"""frogsim benchmark: run one workload closed-loop and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record 1,2,3 [--workload NAME]

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nothing is installed. A single parent process starts one
job at a time (job.py in a fresh interpreter), waits for it, and starts the
next while it is expected to end mostly inside ``--seconds`` (at least
three jobs). Every job of a
run uses the same seed, so the same inputs, and must give the same outputs.

``--trace 0`` prints the end-to-end metrics. Each value is the median over
the run's jobs, with the quartiles printed beside it. The host's speed
switches between fast and slow spells of seconds to minutes, so every time
is rescaled to a fixed reference speed with the speed the job itself
sampled while it ran (probe.py); the raw times are printed as ``raw.*``.
Every metric is printed; the JSON line carries those BENCHMARK.json lists.
``--trace 1`` runs one untraced job and then traced in-process jobs (workers
= 1) and prints the per-layer metrics; traced outputs must equal the
untraced ones, which for sweep_tree12 also checks workers=1 against
workers=2. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 only when
every output check passed; it is 2 when the checkout has no frogsim
sources.

``--record`` stores the outputs of one job per seed as the references that
later runs at those seeds must reproduce (bench/references.json).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
from host import host_record  # noqa: E402
from workloads import WORKLOADS, Workload, failed_units  # noqa: E402

WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
MIN_JOBS = 3
JOB_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0   # start no job that would likely end past this

END_TO_END = (("wall_s", "s"), ("throughput", "1/s"), ("setup_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# printed beside them, never listed: the times as measured, and the sampled
# host speed they were divided by
RAW = (("raw.wall_s", "s"), ("raw.throughput", "1/s"), ("raw.setup_s", "s"),
       ("raw.cpu_s", "s"), ("host.speed", "ratio"))

PER_LAYER = (
    ("rng.derive_key.calls", "count"), ("rng.derive_key.busy_s", "s"),
    ("rng.draws", "count"),
    ("walks.walk_positions.calls", "count"),
    ("walks.walk_positions.busy_s", "s"), ("walks.jumps", "count"),
    ("walks.absorbed", "count"),
    ("walks.series.calls", "count"), ("walks.series.busy_s", "s"),
    ("walks.series.terms", "count"), ("walks.series.domain_vertices", "count"),
    ("frogs.explore_cluster.calls", "count"),
    ("frogs.explore_cluster.busy_s", "s"),
    ("frogs.explore_cluster.self_s", "s"),
    ("frogs.particles_revealed", "count"), ("frogs.vertices_activated", "count"),
    ("frogs.stop.radius_reached", "count"), ("frogs.stop.exhausted", "count"),
    ("frogs.stop.particle_budget", "count"),
    ("frogs.stop.vertex_budget", "count"),
    ("frogs.count_at.calls", "count"), ("frogs.trajectory.calls", "count"),
    ("frogs.trajectory.sampled", "count"),
    ("frogs.trajectory.reuse_ratio", "ratio"),
    ("frogs.stay_closure.calls", "count"), ("frogs.stay_closure.busy_s", "s"),
    ("frogs.exit_conditional_jumps.busy_s", "s"),
    ("estimators.phi_hat.busy_s", "s"), ("estimators.phi_tilde_hat.busy_s", "s"),
    ("estimators.sharpness_constants.busy_s", "s"),
    ("experiments.block_open.calls", "count"),
    ("experiments.block_open.busy_s", "s"),
    ("experiments.good_vertex_decay.busy_s", "s"),
    ("graphs.build_graph.busy_s", "s"),
    ("graphs.ball.calls", "count"), ("graphs.ball.busy_s", "s"),
    ("cli.run.busy_s", "s"), ("cli.sweep_worker.calls", "count"),
    ("cli.sweep_worker.busy_s", "s"), ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
)


def job_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # cache bytecode beside the sources, so every job imports the same way
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(env) -> None:
    """Compile bytecode and load the libraries once, untimed."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads, "
            "tracer, frogsim.cli, frogsim.estimators, frogsim.experiments")
    subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=JOB_TIMEOUT_S)


def run_job(w: Workload, seed: int, size: int, outdir: Path, traced: bool,
            env: dict) -> dict:
    """Start one job, wait for it, and return its timings and outputs."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "job.py"), w.name, str(seed), str(size),
           str(outdir)] + (["--trace"] if traced else [])
    with open(outdir / "stdout.txt", "wb") as out, \
            open(outdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job = {"traced": traced, "exit": proc.returncode, "wall_s": t1 - t0,
           # wait4 covers the job and every pool worker it reaped
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    record_path = outdir / "job.json"
    firsts = [float(p.read_text()) for p in outdir.glob("first.*")]
    if proc.returncode == 0 and record_path.exists() and firsts:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        job["setup_s"] = min(firsts) - t0
        job["work_s"] = record["t_end"] - min(firsts)
        job["outputs"] = record["outputs"]
        job["frogsim"] = record["frogsim"]
        job["versions"] = record["versions"]
        job["trace"] = record.get("trace")
        if not traced:
            rescale(job, probe.read(outdir / "probe.json"), min(firsts),
                    record["t_end"])
    else:
        tail = (outdir / "stderr.txt").read_text(errors="replace")[-2000:]
        job["error"] = (f"job exited {proc.returncode}" if proc.returncode
                        else "job wrote no result or no first-unit mark")
        job["stderr_tail"] = tail
    return job


def rescale(job: dict, samples, first: float, t_end: float) -> None:
    """Add the job's times rescaled to the reference speed (probe.py):
    set-up by the speed sampled before the first unit of work, work by the
    speed sampled after it, wall and CPU time by the speed of the whole
    job."""
    whole = probe.speed(samples)
    if whole is None:
        job["error"] = "job took no host-speed samples"
        return
    job["speed"] = whole
    job["ref_wall_s"] = job["wall_s"] * whole
    job["ref_cpu_s"] = job["cpu_s"] * whole
    job["ref_setup_s"] = job["setup_s"] * (probe.speed(samples, end=first)
                                           or whole)
    job["ref_work_s"] = job["work_s"] * (probe.speed(samples, first, t_end)
                                         or whole)


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def job_problems(w: Workload, job: dict, seed: int, size: int,
                 references: dict, expected: dict | None) -> list[str]:
    """Output-check failures of one job; an empty list means it passed."""
    if "error" in job:
        return [job["error"] + ": " + job.get("stderr_tail", "").strip()]
    problems = []
    if Path(job["frogsim"]) != (ROOT / "src" / "frogsim").resolve():
        problems.append(f"frogsim imported from {job['frogsim']}, "
                        "not from this checkout")
    out = job["outputs"]
    problems += w.check(out, size)
    ref = references.get(w.name, {})
    if ref.get("size") == size and str(seed) in ref.get("seeds", {}):
        problems += [f"reference seed {seed}: {p}"
                     for p in w.compare(ref["seeds"][str(seed)], out)]
    if expected is not None and out != expected:
        kind = "traced" if job["traced"] else "repeated"
        problems.append(f"{kind} job outputs differ from the first job's")
    return problems


def summarize(values: list[float]) -> dict:
    """The median of the values (the reported value), with the quartiles,
    the mean and the sample count."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = med = q3 = vals[0]
    return {"value": med, "q1": q1, "q3": q3, "mean": statistics.fmean(vals),
            "n": len(vals)}


def end_to_end(w: Workload, jobs: list[dict], size: int) -> dict:
    """Per-job medians of the rescaled end-to-end metrics, then the raw
    ones (RAW)."""
    good = [j for j in jobs if "ref_work_s" in j]
    if not good:
        return {}
    units = w.units(size)
    out = {"wall_s": summarize([j["ref_wall_s"] for j in good]),
           "throughput": summarize([units / j["ref_work_s"] for j in good]),
           "setup_s": summarize([j["ref_setup_s"] for j in good]),
           "cpu_s": summarize([j["ref_cpu_s"] for j in good]),
           "peak_rss_mb": summarize([j["peak_rss_mb"] for j in good]),
           "raw.wall_s": summarize([j["wall_s"] for j in good]),
           "raw.throughput": summarize([units / j["work_s"] for j in good]),
           "raw.setup_s": summarize([j["setup_s"] for j in good]),
           "raw.cpu_s": summarize([j["cpu_s"] for j in good]),
           "host.speed": summarize([j["speed"] for j in good])}
    return {name: out[name] for name, _ in END_TO_END + RAW}


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the traced jobs (which must repeat
    exactly), times as medians over them."""
    good = [j for j in traced if j.get("trace")]
    if not good:
        return {}, []
    problems = []
    first = good[0]["trace"]
    for j in good[1:]:
        differ = [k for k in first
                  if not k.endswith("_s") and j["trace"].get(k) != first[k]]
        if differ:
            problems.append(f"traced counts differ between jobs: {differ}")
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            if "wall_s" in untraced:
                out[name] = summarize([j["wall_s"] for j in good])["value"] \
                    - untraced["wall_s"]
            continue
        vals = [j["trace"].get(name, 0) for j in good]
        out[name] = summarize(vals)["value"] if unit == "s" else vals[0]
    return out, problems


def listed_metrics(trace: bool) -> set[str]:
    """Metric names BENCHMARK.json lists for this pass: only these go into
    the JSON line; every metric is printed above it."""
    key = "per_layer" if trace else "end_to_end"
    names = dict(PER_LAYER if trace else END_TO_END)
    if SPEC.exists():
        names = [m["name"] for m in json.loads(SPEC.read_text())[key]]
    return set(names)


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    listed = listed_metrics(trace)
    env = job_env()
    workdir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    warm_up(env)
    references = load_references()
    size = w.size
    jobs: list[dict] = []
    problems: list[str] = []
    expected = None
    start = time.monotonic()

    def job(traced: bool) -> dict:
        nonlocal expected
        j = run_job(w, seed, size, workdir / f"job{len(jobs)}", traced, env)
        j["problems"] = job_problems(w, j, seed, size, references, expected)
        if expected is None and "outputs" in j:
            expected = j["outputs"]
        jobs.append(j)
        problems.extend(f"job {len(jobs) - 1}: {p}" for p in j["problems"])
        return j

    def more(minimum: int, done: int) -> bool:
        """Start another job while it is expected to end mostly inside the
        measuring window."""
        if done < minimum:
            return True
        elapsed = time.monotonic() - start
        last = jobs[-1]["wall_s"]
        return elapsed + last / 2 < seconds and elapsed + last < RUN_BUDGET_S

    if not trace:
        while more(MIN_JOBS, len(jobs)):
            job(False)
        metrics = end_to_end(w, jobs, size)
        units = dict(END_TO_END + RAW)
    else:
        untraced = job(False)
        traced: list[dict] = []
        while more(1, len(traced)):
            traced.append(job(True))
        metrics, count_problems = per_layer(untraced, traced)
        problems += count_problems
        units = dict(PER_LAYER)

    attempted = failed = 0
    for j in jobs:
        n = w.units(size)
        attempted += n
        failed += n if j["problems"] else failed_units(w, j["outputs"], size)
    correct = not problems and failed == 0
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    host = host_record(ROOT, versions)

    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  "
          f"jobs {len(jobs)}  size {size}  unit of work: {w.unit}")
    print("host " + json.dumps(host, sort_keys=True))
    for i, j in enumerate(jobs):
        print(f"  job {i}: traced={int(j['traced'])} exit={j['exit']} "
              f"wall={j['wall_s']:.4f}s setup={j.get('setup_s', float('nan')):.4f}s "
              f"cpu={j['cpu_s']:.4f}s rss={j['peak_rss_mb']:.1f}MB "
              f"speed={j.get('speed', float('nan')):.3f}")
    for name, value in metrics.items():
        if isinstance(value, dict):
            print(f"{name} = {value['value']:.6g} {units[name]}  (median; "
                  f"q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, "
                  f"mean {value['mean']:.6g}, n {value['n']})")
        elif isinstance(value, int):
            print(f"{name} = {value} {units[name]}")
        else:
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g}  ({failed}/{attempted} "
          f"{w.unit})")
    for p in problems:
        print(f"output check problem: {p}")
    print(f"output check: {'PASS' if correct else 'FAIL'}")

    result_dir = WORK / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": w.name, "seed": seed, "trace": int(trace),
                    "size": size, "host": host, "metrics": metrics,
                    "failed_frac": failed / attempted, "problems": problems,
                    "jobs": [{k: v for k, v in j.items() if k != "outputs"}
                             for j in jobs]}, indent=1, sort_keys=True),
        encoding="utf-8")
    spans = workdir / f"job{len(jobs) - 1}" / "spans.jsonl"
    if spans.exists():
        shutil.copy(spans, result_dir / f"{w.name}-seed{seed}-spans.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    flat = {name: {"value": (v["value"] if isinstance(v, dict) else v),
                   "unit": units[name]} for name, v in metrics.items()
            if name in listed}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


def record(names: list[str], seeds: list[int]) -> int:
    """Store one job's outputs per (workload, seed) as references."""
    env = job_env()
    warm_up(env)
    refs = load_references()
    for name in names:
        w = WORKLOADS[name]
        entry = refs.get(name)
        if entry is None or entry.get("size") != w.size:
            entry = refs[name] = {"size": w.size, "seeds": {}}
        for seed in seeds:
            outdir = WORK / "record" / f"{name}-{seed}"
            j = run_job(w, seed, w.size, outdir, False, env)
            problems = job_problems(w, j, seed, w.size, {}, None)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}",
                      file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = j["outputs"]
            shutil.rmtree(outdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="comma-separated seeds to record")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "frogsim" / "__init__.py").is_file():
        print(f"no frogsim sources under {ROOT / 'src'}; run from the root "
              "of a frogsim checkout", file=sys.stderr)
        return 2
    if args.record:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        return record(names, [int(s) for s in args.record.split(",")])
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
