"""The four benchmark workloads: how each job runs and how its outputs are
checked.

A job is one batch run of a workload at a fixed size, started in a fresh
interpreter (see job.py). ``run`` returns the job's outputs as plain JSON
data; ``mark`` must be called by ``run`` at the first unit of work, which
ends set-up. ``check`` returns the invariant violations of a job's outputs
for any seed; ``compare`` returns the differences from a stored reference.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SERIES_TOL = 1e-10          # walks.DEFAULT_TOL, the tolerance every query uses
SERIES_ABS = 1e-12          # reference tolerance for reordered float sums
SERIES_TIMES = (2.0, 8.0, 20.0)
PHI_RADII = (3, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                     # replicas (sources for series_z2) per job
    unit: str                     # what one unit of throughput is
    units: Callable[[int], int]   # units of work in a job of a given size
    run: Callable                 # run(seed, size, outdir, mark, traced)
    check: Callable               # check(outputs, size) -> [problem]
    compare: Callable             # compare(reference, outputs) -> [problem]


def _main(argv) -> int:
    from frogsim import cli
    return cli.main(argv)


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cli_outputs(outdir: Path, status: int) -> dict:
    csv = outdir / "results.csv"
    if not csv.exists():
        return {"exit": status}
    rows = _csv_rows(csv)
    return {"exit": status,
            "results_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
            "rows": [[r["metric"], r["lambda"], float(r["mean"]),
                      float(r["stderr"])] for r in rows]}


def _marking(module, attr: str, mark):
    """Rebind module.attr so that its first call marks the end of set-up.
    functools.wraps keeps the name, so pool workers can still pickle it."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        mark()
        return original(*args, **kwargs)

    setattr(module, attr, wrapper)


def _same_outputs(keys):
    def compare(ref: dict, got: dict) -> list[str]:
        return [f"{k}: {got.get(k)!r} != reference {ref.get(k)!r}"
                for k in keys if ref.get(k) != got.get(k)]
    return compare


def _probabilities(label: str, values) -> list[str]:
    return [f"{label} {v!r} outside [0,1]" for v in values
            if not (0.0 <= v <= 1.0)]


# ---------------------------------------------------------------------------
# sweep_tree12: the CLI survival sweep with its worker pool
# ---------------------------------------------------------------------------

SWEEP_LAMBDAS = "0.5:3.0:0.5"
SWEEP_POINTS = 6


def run_sweep(seed, size, outdir, mark, traced):
    from frogsim import cli
    _marking(cli, "_sweep_worker", mark)
    status = _main(["run", "experiment=survival_sweep", "family=regular_tree",
                    "degree=3", "depth=12", f"lambda={SWEEP_LAMBDAS}",
                    "t=1.0", "n=10", f"replicas={size}", f"seed={seed}",
                    f"workers={1 if traced else 2}", f"out={outdir}"])
    out = _cli_outputs(outdir, status)
    report = outdir / "report.json"
    if report.exists():
        out["censored"] = json.loads(report.read_text())["inputs"]["censored"]
    return out


def check_sweep(out, size):
    problems = []
    if out.get("exit") not in (0, 3):
        return [f"frogsim run exited {out.get('exit')}"]
    survival = [r[2] for r in out["rows"] if r[0] == "survival"]
    if len(survival) != SWEEP_POINTS:
        problems.append(f"{len(survival)} survival rows, want {SWEEP_POINTS}")
    problems += _probabilities("survival", survival)
    problems += [f"survival not non-decreasing in lambda: {a} > {b}"
                 for a, b in zip(survival, survival[1:]) if a > b]
    return problems


# ---------------------------------------------------------------------------
# phi_window_z2: the phi / phi-tilde functionals on two windows
# ---------------------------------------------------------------------------


def run_phi(seed, size, outdir, mark, traced):
    from frogsim import estimators, frogs, graphs
    g = graphs.build_graph(graphs.GraphSpec("lattice_box", d=2, radius=20))
    windows = [(f"ball(origin,{r})", graphs.ball(g, g.origin, r))
               for r in PHI_RADII]
    params = frogs.FrogParams(1.0, 1.0)
    mark()
    out = {}
    for name, S in windows:
        rep = estimators.phi_report(g, S, params, size, seed, window_name=name)
        out[name] = {
            "phi_hat": [rep.phi_hat.mean, rep.phi_hat.stderr],
            "phi_tilde_hat": [rep.phi_tilde_hat.mean, rep.phi_tilde_hat.stderr],
            "replicas": [rep.phi_hat.replicas, rep.phi_tilde_hat.replicas],
            "delta": rep.constants.delta,
        }
    return out


def check_phi(out, size):
    problems = []
    for name, w in out.items():
        for key in ("phi_hat", "phi_tilde_hat"):
            mean, se = w[key]
            if not (math.isfinite(mean) and mean >= 0.0):
                problems.append(f"{name} {key} mean {mean!r}")
            if not (math.isfinite(se) and se >= 0.0):
                problems.append(f"{name} {key} stderr {se!r}")
        if w["replicas"] != [size, size]:
            problems.append(f"{name} replicas {w['replicas']} != {size}")
        problems += _probabilities(f"{name} delta", [w["delta"]])
    if len(out) != len(PHI_RADII):
        problems.append(f"{len(out)} windows, want {len(PHI_RADII)}")
    return problems


def compare_phi(ref, out):
    return [f"{name} {key}: {out.get(name, {}).get(key)!r} != "
            f"reference {w[key]!r}"
            for name, w in ref.items() for key in ("phi_hat", "phi_tilde_hat")
            if out.get(name, {}).get(key) != w[key]]


# ---------------------------------------------------------------------------
# renorm_z2: the CLI renormalization experiment (ACCEPTANCE 13's net)
# ---------------------------------------------------------------------------


def run_renorm(seed, size, outdir, mark, traced):
    from frogsim import experiments
    _marking(experiments, "block_open", mark)
    status = _main(["run", "experiment=renormalization", "lambda=4.0",
                    f"replicas={size}", f"seed={seed}", f"out={outdir}"])
    return _cli_outputs(outdir, status)


def check_renorm(out, size):
    if out.get("exit") != 0:
        return [f"frogsim run exited {out.get('exit')}"]
    means = {r[0]: r[2] for r in out["rows"]}
    problems = _probabilities("renormalization metric", [
        v for k, v in means.items() if k != "net_sites"])
    decay = [means.get(f"p_no_good_vertex_size_{k}") for k in (4, 16, 64)]
    if None in decay:
        problems.append("missing p_no_good_vertex rows")
    else:
        problems += [f"P(no good vertex) increases with |A|: {a} < {b}"
                     for a, b in zip(decay, decay[1:]) if a < b]
    if means.get("open_frequency_site_min", 0) > means.get(
            "open_frequency_site_max", 1):
        problems.append("site open frequency min > max")
    return problems


# ---------------------------------------------------------------------------
# series_z2: exact killed-walk series from seed-drawn sources
# ---------------------------------------------------------------------------

SERIES_SOURCE_RADIUS = 6
SERIES_EXIT_RADIUS = 12


def series_sources(g, seed: int, size: int) -> list[int]:
    from frogsim import graphs
    pool = sorted(graphs.ball(g, g.origin, SERIES_SOURCE_RADIUS) - {g.origin})
    return random.Random(seed).sample(pool, size)


def run_series(seed, size, outdir, mark, traced):
    from frogsim import graphs, walks
    g = graphs.build_graph(graphs.GraphSpec("lattice_box", d=2, radius=40))
    sources = series_sources(g, seed, size)
    exit_window = graphs.ball(g, g.origin, SERIES_EXIT_RADIUS)
    o = g.origin
    mark()
    queries = []
    for t in SERIES_TIMES:
        for x in sources:
            row = walks.heat_kernel_row(g, x, t)
            queries.append(["heat_row", x, t, row.row_sum(), float(row.mass.min()),
                            row.boundary_leakage, row.prob(o),
                            row.truncation_error])
            queries.append(["hitting", x, t,
                            walks.hitting_probability_exact(g, x, o, t)])
            queries.append(["green", x, t, walks.truncated_green(g, x, o, t)])
        table = walks.exit_probability_exact(g, exit_window, t)
        probs = list(table.exit_prob.values())
        queries.append(["exit", o, t, math.fsum(probs), min(probs), max(probs),
                        table.exit_prob[o], table.truncation_error])
    return {"queries": queries}


def check_series(out, size):
    problems = []
    qs = out["queries"]
    want = len(SERIES_TIMES) * (3 * size + 1)
    if len(qs) != want:
        problems.append(f"{len(qs)} series queries, want {want}")
    for kind, x, t, *vals in qs:
        label = f"{kind}(x={x}, t={t})"
        if kind == "heat_row":
            mass, lo, leak, p, trunc = vals
            if not mass <= 1.0 + SERIES_ABS:
                problems.append(f"{label} row mass {mass!r} > 1")
            problems += _probabilities(label, [lo, leak, p])
        elif kind == "exit":
            _, lo, hi, p, trunc = vals
            problems += _probabilities(label, [lo, hi, p])
        elif kind == "hitting":
            problems += _probabilities(label, vals)
            continue
        else:   # green: integral of a probability over [0, t]
            if not 0.0 <= vals[0] <= t:
                problems.append(f"{label} {vals[0]!r} outside [0,t]")
            continue
        if not 0.0 <= trunc <= SERIES_TOL:
            problems.append(f"{label} truncation error {trunc!r} > tol")
    return problems


def compare_series(ref, out):
    problems = []
    rq, oq = ref["queries"], out["queries"]
    if len(rq) != len(oq):
        return [f"{len(oq)} queries, reference has {len(rq)}"]
    for r, o in zip(rq, oq):
        if r[:3] != o[:3] or len(r) != len(o):
            problems.append(f"query {o[:3]} != reference {r[:3]}")
        elif any(abs(a - b) > SERIES_ABS for a, b in zip(r[3:], o[3:])):
            problems.append(f"{o[:3]} values {o[3:]} != reference {r[3:]}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("sweep_tree12", 3000, "replica x grid-point evaluations",
             lambda n: n * SWEEP_POINTS, run_sweep, check_sweep,
             _same_outputs(("results_sha256",))),
    Workload("phi_window_z2", 1000, "phi-hat replicas",
             lambda n: n * len(PHI_RADII), run_phi, check_phi, compare_phi),
    Workload("renorm_z2", 2, "replicas", lambda n: n, run_renorm,
             check_renorm, _same_outputs(("results_sha256",))),
    Workload("series_z2", 16, "series queries",
             lambda n: len(SERIES_TIMES) * (3 * n + 1), run_series,
             check_series, compare_series),
)}


def failed_units(w: Workload, out: dict, size: int) -> int:
    """Units the program itself reports as failed: censored evaluations."""
    return min(int(out.get("censored", 0) or 0), w.units(size))
