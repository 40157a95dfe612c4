"""Batch front-end.

Reads a flat key=value config (plus command-line overrides), fans replicas
out over a deterministic worker pool, and writes three artifacts into the
output directory: results.csv (fixed schema), report.json, and plot.gp (a
gnuplot script that reads only the CSV). Reruns of the same config and seed
are byte-identical regardless of worker count.

Usage:
    frogsim run config.txt [key=value ...]
    frogsim validate config.txt [key=value ...]

Exit status: 0 success, 2 config validation failure, 3 particle-budget
exhaustion while estimating.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

from .graphs import GraphError, GraphSpec, build_graph
from .estimators import replica_survival
from .frogs import FrogParams
from .experiments import (ExperimentReport, NetConfig,
                          abelian_invariance_check, bernoulli_edge_coupling,
                          format_csv, linear_growth_experiment,
                          nonamenable_pipeline, renormalization_experiment)
from .rng import POISSON_LAM_MAX, Stream
from .stats import from_binomial
from .walks import SERIES_T_MAX

EXPERIMENTS = ("survival_sweep", "bernoulli_coupling", "abelian",
               "linear_growth", "nonamenable", "renormalization")


@dataclass
class RunConfig:
    experiment: str = ""
    family: str = "regular_tree"
    d: int = 2
    radius: int = 20
    degree: int = 3
    depth: int = 12
    width: int = 2
    length: int = 240
    path: str = ""
    lam: str = "1.0"          # value or lo:hi:step grid
    t: str = "1.0"            # value or lo:hi:step grid
    n: int = 10
    replicas: int = 100
    seed: int | None = None
    out: str = "out"
    workers: int = 1
    max_particles: int = 2_000_000
    max_vertices: int = 20_000_000
    # experiment-specific knobs
    t_list: str = ""   # nonamenable: comma list, e.g. 0.5,2,10; "" means t
    a: int = 8
    net_extent: int = 2
    decay_density: float = 0.25

    def graph_spec(self) -> GraphSpec:
        return GraphSpec(self.family, d=self.d, radius=self.radius,
                         degree=self.degree, depth=self.depth,
                         width=self.width, length=self.length,
                         path=self.path, max_vertices=self.max_vertices)


_KEY_ALIASES = {"lambda": "lam"}
_INT_KEYS = {"d", "radius", "degree", "depth", "width", "length", "n",
             "replicas", "seed", "workers", "max_particles", "max_vertices",
             "a", "net_extent"}
_FLOAT_KEYS = {"decay_density"}


def parse_config(path: str | None, overrides=()) -> RunConfig:
    cfg = RunConfig()
    pairs = []
    if path:
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            k, v = line.split("=", 1)
            pairs.append((k.strip(), v.strip()))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override is not key=value: {item!r}")
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v.strip()))
    known = {f.name for f in dc_fields(RunConfig)}
    for k, v in pairs:
        k = _KEY_ALIASES.get(k, k)
        if k not in known:
            raise ValueError(f"unknown config key {k!r}")
        if k in _INT_KEYS:
            setattr(cfg, k, int(v))
        elif k in _FLOAT_KEYS:
            setattr(cfg, k, float(v))
        else:
            setattr(cfg, k, v)
    return cfg


_GRID_MAX = 10_000   # most points of a grid; a sweep runs each per replica


def parse_grid(text: str) -> list[float]:
    """A float, or an inclusive lo:hi:step grid of at most _GRID_MAX
    points, with finite lo <= hi and a finite step > 0."""
    text = text.strip()
    parts = text.split(":")
    try:
        nums = [float(part) for part in parts]
    except ValueError:
        nums = None
    if nums is None or len(nums) not in (1, 3):
        raise ValueError(f"{text!r} is neither a number nor a lo:hi:step "
                         "grid of numbers")
    if len(nums) == 3:
        lo, hi, step = nums
        if not (all(map(math.isfinite, (lo, hi, step)))
                and step > 0 and lo <= hi):
            raise ValueError(f"{text!r} needs finite lo <= hi and a "
                             "finite step > 0")
        vals = []
        while (v := lo + len(vals) * step) <= hi + 1e-9:
            if len(vals) == _GRID_MAX:
                raise ValueError(f"{text!r} has more than {_GRID_MAX} "
                                 "points")
            vals.append(round(v, 12))
        return vals
    return nums


def parse_t_list(text: str) -> list[float]:
    """The comma list of lifespans; raises ValueError naming every entry
    that is not a finite number >= 0. Empty text gives an empty list."""
    if not text.strip():
        return []
    vals, bad = [], []
    for entry in text.split(","):
        try:
            v = float(entry)
        except ValueError:
            v = math.nan
        if math.isfinite(v) and v >= 0:
            vals.append(v)
        else:
            bad.append(entry.strip())
    if bad:
        raise ValueError("entries must be finite numbers >= 0, got "
                         + ", ".join(map(repr, bad)))
    return vals


def expected_truncation_radius(cfg: RunConfig) -> int | None:
    if cfg.family == "lattice_box":
        return cfg.radius
    if cfg.family == "regular_tree":
        return cfg.depth
    if cfg.family == "ladder":
        return cfg.length + cfg.width - 1
    return None


# Pool processes allowed per CPU: a few more workers than CPUs cost only
# memory, but an unbounded count would start any number of processes.
_WORKERS_PER_CPU = 4

_T_LIMIT = (f"must be <= {SERIES_T_MAX:g} (the exact walk series "
            "underflows above that)")
_LAM_WHY = ("(the Poisson inverse CDF of the particle counts underflows "
            "above that)")


def validate(cfg: RunConfig) -> list[str]:
    """All violations, never just the first."""
    problems = []
    if cfg.experiment not in EXPERIMENTS:
        problems.append(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; "
            f"got {cfg.experiment!r}")
    if cfg.replicas < 1:
        problems.append("replicas must be >= 1")
    if cfg.seed is None:
        problems.append("seed is required (no wall-clock default)")
    most_workers = _WORKERS_PER_CPU * (os.cpu_count() or 1)
    if cfg.workers < 1:
        problems.append("workers must be >= 1")
    elif cfg.workers > most_workers:
        problems.append(f"workers must be <= {most_workers} "
                        f"({_WORKERS_PER_CPU} per CPU); got {cfg.workers}")
    if cfg.max_particles <= 0 or cfg.max_vertices <= 0:
        problems.append("budgets must be positive")
    for name, text in (("lambda", cfg.lam), ("t", cfg.t)):
        try:
            vals = parse_grid(text)
            if not all(v >= 0 for v in vals):        # nan fails too
                problems.append(f"{name} values must be finite and >= 0")
            if name == "lambda" and any(v > POISSON_LAM_MAX for v in vals):
                problems.append(f"lambda values must be <= "
                                f"{POISSON_LAM_MAX:g} {_LAM_WHY}")
            if name == "t" and any(v > SERIES_T_MAX for v in vals):
                problems.append(f"t values {_T_LIMIT}")
            if name == "lambda" and cfg.experiment == "nonamenable" \
                    and 0 in vals:
                problems.append("nonamenable needs lambda > 0: its lifespan "
                                "bound divides by min(1, lambda)")
            if (len(vals) > 1 and cfg.experiment != "survival_sweep"
                    and cfg.experiment in EXPERIMENTS):
                problems.append(f"{cfg.experiment} takes one {name} value "
                                f"(grids are for survival_sweep); got {text!r}")
        except ValueError as exc:
            problems.append(f"bad {name} grid: {exc}")
    if not 0 <= cfg.decay_density <= POISSON_LAM_MAX:
        problems.append(f"decay_density must be in [0, {POISSON_LAM_MAX:g}] "
                        f"{_LAM_WHY}; got {cfg.decay_density}")
    try:
        if any(v > SERIES_T_MAX for v in parse_t_list(cfg.t_list)):
            problems.append(f"t_list entries {_T_LIMIT}")
    except ValueError as exc:
        problems.append(f"bad t_list: {exc}")
    if cfg.family not in ("lattice_box", "regular_tree", "ladder",
                          "weighted_file"):
        problems.append(f"unknown graph family {cfg.family!r}")
    if cfg.family == "weighted_file" and not cfg.path:
        problems.append("weighted_file needs path=")
    trunc = expected_truncation_radius(cfg)
    if (cfg.experiment in ("survival_sweep", "nonamenable")
            and trunc is not None and cfg.n > trunc):
        problems.append(
            f"survival radius n={cfg.n} exceeds the truncation radius "
            f"{trunc} of the requested graph")
    if cfg.n < 0:
        problems.append("n must be >= 0")
    return problems


# ---------------------------------------------------------------------------
# survival sweep with a deterministic worker pool
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _sweep_worker_init(g):
    _WORKER_STATE["graph"] = g


def _sweep_worker(task):
    """One replica: survival indicators for every grid point, on one shared
    field keyed only by (seed, replica) so grid points ride the coupling."""
    (seed, replica, lam_grid, t_grid, n, budget) = task
    g = _WORKER_STATE["graph"]
    key = Stream(seed, "survival", replica).key
    outcomes = [replica_survival(g, FrogParams(lam, t), n, key,
                                 particle_budget=budget)
                for lam in lam_grid for t in t_grid]
    return replica, [int(o is True) for o in outcomes], outcomes.count(None)


def _run_survival_sweep(cfg: RunConfig):
    lam_grid = parse_grid(cfg.lam)
    t_grid = parse_grid(cfg.t)
    spec = cfg.graph_spec()
    # a bad spec fails here: raised in a pool initializer, it respawns forever
    g = build_graph(spec)
    tasks = [(cfg.seed, r, lam_grid, t_grid, cfg.n, cfg.max_particles)
             for r in range(cfg.replicas)]
    if cfg.workers > 1:
        with mp.Pool(cfg.workers, initializer=_sweep_worker_init,
                     initargs=(g,)) as pool:
            results = pool.map(_sweep_worker, tasks, chunksize=16)
    else:
        _sweep_worker_init(g)
        results = [_sweep_worker(t) for t in tasks]
    results.sort(key=lambda item: item[0])
    npoints = len(lam_grid) * len(t_grid)
    hits = [0] * npoints
    censored = 0          # censored (replica, grid point) evaluations
    for _, indicators, cens in results:
        censored += cens
        for i, v in enumerate(indicators):
            hits[i] += v
    rows = []
    metrics = {}
    i = 0
    graph_name = spec.describe()
    for lam in lam_grid:
        for t in t_grid:
            est = from_binomial(hits[i], cfg.replicas, cfg.seed)
            rows.append({"experiment": "survival_sweep", "graph": graph_name,
                         "lambda": lam, "t": t, "n": cfg.n,
                         "replicas": cfg.replicas, "seed": cfg.seed,
                         "metric": "survival", "mean": est.mean,
                         "stderr": est.stderr})
            metrics[f"survival_lam_{lam:g}_t_{t:g}"] = est
            i += 1
    report = ExperimentReport(
        "survival_sweep",
        {"graph": graph_name, "lambda": cfg.lam, "t": cfg.t, "n": cfg.n,
         "censored": censored},
        metrics, {"no_budget_exhaustion": censored == 0}, cfg.seed)
    detail = (f" ({censored} of {cfg.replicas * npoints} replica x grid-point"
              " evaluations)")
    return rows, report, sum(c > 0 for *_, c in results), detail


_PLOT_TEMPLATE = """\
# gnuplot script; reads only results.csv
set datafile separator ','
set key off
set xlabel 'lambda'
set ylabel 'estimate'
set grid
plot 'results.csv' every ::1 using 3:9 with linespoints pt 7
"""


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; returns the process exit status."""
    problems = validate(cfg)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    censored, detail = 0, ""   # censored replicas
    try:
        if cfg.experiment == "survival_sweep":
            rows, report, censored, detail = _run_survival_sweep(cfg)
        else:
            lam = parse_grid(cfg.lam)[0]
            t = parse_grid(cfg.t)[0]
            if cfg.experiment == "bernoulli_coupling":
                g = build_graph(cfg.graph_spec())
                report = bernoulli_edge_coupling(g, FrogParams(lam, t),
                                                 cfg.replicas, cfg.seed)
            elif cfg.experiment == "abelian":
                g = build_graph(cfg.graph_spec())
                seeds = [Stream(cfg.seed, "abelian", i).key
                         for i in range(cfg.replicas)]
                report = abelian_invariance_check(g, FrogParams(lam, t), seeds)
                report.seed = cfg.seed
            elif cfg.experiment == "linear_growth":
                report = linear_growth_experiment(
                    cfg.width, cfg.length, FrogParams(lam, t), cfg.replicas,
                    cfg.seed, distances=(cfg.n // 4, cfg.n // 2, cfg.n),
                    particle_budget=cfg.max_particles,
                    max_vertices=cfg.max_vertices)
                censored = report.inputs["censored"]
            elif cfg.experiment == "nonamenable":
                g = build_graph(cfg.graph_spec())
                ts = parse_t_list(cfg.t_list) or [t]
                report = nonamenable_pipeline(
                    g, lam, ts, cfg.replicas, cfg.seed, survival_radius=cfg.n,
                    particle_budget=cfg.max_particles)
                censored = report.inputs["censored"]
            elif cfg.experiment == "renormalization":
                net = NetConfig(a=cfg.a, net_extent=cfg.net_extent)
                report = renormalization_experiment(
                    net, lam, cfg.replicas, cfg.seed,
                    decay_density=cfg.decay_density,
                    max_vertices=cfg.max_vertices)
            rows = report.csv_rows()
    except GraphError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    (outdir / "results.csv").write_text(format_csv(rows), encoding="utf-8")
    (outdir / "report.json").write_text(report.to_json() + "\n",
                                        encoding="utf-8")
    (outdir / "plot.gp").write_text(_PLOT_TEMPLATE, encoding="utf-8")
    if censored:
        print(f"budget exhaustion: {censored} replicas censored{detail}",
              file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd = argv[0]
    if cmd not in ("run", "validate"):
        print(f"unknown command {cmd!r}; expected run|validate",
              file=sys.stderr)
        return 2
    rest = argv[1:]
    path = None
    if rest and "=" not in rest[0]:
        path = rest[0]
        rest = rest[1:]
    try:
        cfg = parse_config(path, rest)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cmd == "validate":
        problems = validate(cfg)
        for p in problems:
            print(p)
        return 2 if problems else 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
