import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from frogsim.cli import (RunConfig, main, parse_config, parse_grid, run,
                         validate)


def write_config(tmp_path, **kv):
    base = dict(experiment="survival_sweep", family="regular_tree", degree=3,
                depth=8, n=5, replicas=50, seed=7, t="1.0",
                out=str(tmp_path / "out"))
    base.update(kv)
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return p


def test_parse_grid():
    assert parse_grid("1.5") == [1.5]
    assert parse_grid("0.5:3.0:0.5") == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    with pytest.raises(ValueError):
        parse_grid("3:1:0.5")
    assert len(parse_grid("0:9999:1")) == 10_000
    with pytest.raises(ValueError, match="more than 10000 points"):
        parse_grid("0:10000:1")


# Grids with a non-finite end or step, or too many points: parse_grid
# must reject them before its loop, so they are reached through validate
# only, never through a run.
@pytest.mark.parametrize("arg", ["lambda=0:nan:1", "t=0:1:inf",
                                 "lambda=nan:1:1", "t=-inf:1:1",
                                 "lambda=0:1:1e-300"])
def test_unbounded_grid_exits_2(tmp_path, arg, capsys):
    cfgp = write_config(tmp_path)
    name = arg.split("=")[0]
    problems = validate(parse_config(str(cfgp), [arg]))
    assert len(problems) == 1 and problems[0].startswith(f"bad {name} grid")
    assert main(["validate", str(cfgp), arg]) == 2
    assert capsys.readouterr().out == problems[0] + "\n"


# Grids that are not lo:hi:step of numbers: the message says what the
# grid must look like, not how the parse failed.
@pytest.mark.parametrize("arg", ["lambda=1:2", "lambda=1:2:0.5:3",
                                 "lambda=a:2:1", "t=1:x"])
def test_malformed_grid_exits_2(tmp_path, arg, capsys):
    cfgp = write_config(tmp_path)
    name, text = arg.split("=")
    assert main(["validate", str(cfgp), arg]) == 2
    assert capsys.readouterr().out == (
        f"bad {name} grid: {text!r} is neither a number nor a lo:hi:step "
        "grid of numbers\n")


@pytest.mark.parametrize("arg,problem", [
    ("lambda=nan", "lambda values must be finite and >= 0"),
    ("t=nan", "t values must be finite and >= 0"),
    ("lambda=-inf", "lambda values must be finite and >= 0"),
    ("decay_density=-1", "decay_density must be in [0, 700]"),
    ("decay_density=nan", "decay_density must be in [0, 700]"),
    ("decay_density=inf", "decay_density must be in [0, 700]"),
    ("decay_density=701", "decay_density must be in [0, 700]"),
])
def test_nan_or_out_of_range_value_exits_2(tmp_path, arg, problem):
    args = ["experiment=renormalization", "a=4", "net_extent=1",
            "replicas=1", "seed=1", arg, f"out={tmp_path / 'out'}"]
    name = arg.split("=")[0]
    problems = validate(parse_config(None, args))
    assert len(problems) == 1 and problems[0].startswith(problem)
    r = subprocess.run([sys.executable, "-m", "frogsim.cli", "run", *args],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert problem in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()
    edge = "700" if name == "decay_density" else "0"
    assert validate(parse_config(None, [*args, f"{name}={edge}"])) == []


@pytest.mark.parametrize("experiment", ["bernoulli_coupling", "abelian",
                                        "linear_growth", "nonamenable",
                                        "renormalization"])
def test_grid_outside_survival_sweep_exits_2(tmp_path, experiment, capsys):
    args = [f"experiment={experiment}", "family=regular_tree", "depth=6",
            "n=3", "replicas=2", "seed=1", f"out={tmp_path / 'out'}"]
    for arg, name in (("lambda=1:2:0.5", "lambda"), ("t=1:3:1", "t")):
        problems = validate(parse_config(None, [*args, arg]))
        assert problems == [f"{experiment} takes one {name} value (grids "
                            f"are for survival_sweep); got "
                            f"{arg.split('=')[1]!r}"]
        assert main(["run", *args, arg]) == 2
        assert problems[0] in capsys.readouterr().err
    # a one-point grid is one value
    assert validate(parse_config(None, [*args, "lambda=1:1:1"])) == []
    assert not (tmp_path / "out").exists()


def test_validate_ok(tmp_path):
    cfg = parse_config(str(write_config(tmp_path, **{"lambda": "1.0"})))
    assert validate(cfg) == []


def test_validate_collects_all_problems():
    cfg = RunConfig(experiment="nope", replicas=0, seed=None, lam="-1")
    problems = validate(cfg)
    assert len(problems) >= 4
    assert any("lambda" in p for p in problems)
    assert any("seed" in p for p in problems)


def test_validate_truncation_vs_survival_radius(tmp_path):
    cfg = parse_config(str(write_config(tmp_path, n=30)))
    assert any("truncation radius" in p for p in validate(cfg))


def test_run_writes_artifacts(tmp_path):
    cfg = parse_config(str(write_config(tmp_path, **{"lambda": "0.5:1.5:0.5"})))
    assert run(cfg) == 0
    out = Path(cfg.out)
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "experiment,graph,lambda,t,n,replicas,seed,metric,mean,stderr"
    assert len(lines) == 4  # three grid points
    assert (out / "report.json").exists()
    assert "results.csv" in (out / "plot.gp").read_text()


def test_validate_rejects_lambda_beyond_poisson_range(tmp_path):
    cfgp = write_config(tmp_path, depth=6, n=3, replicas=2, seed=1)
    cfg = parse_config(str(cfgp), ["lambda=800"])
    assert any("lambda values must be <= 700" in p for p in validate(cfg))
    assert run(cfg) == 2
    assert validate(parse_config(str(cfgp), ["lambda=700"])) == []
    r = subprocess.run([sys.executable, "-m", "frogsim.cli", "run", str(cfgp),
                        "lambda=1:800:100"], capture_output=True, text=True)
    assert r.returncode == 2
    assert "lambda values must be <= 700" in r.stderr + r.stdout
    assert "Traceback" not in r.stderr


def test_run_validation_exit_code(tmp_path):
    cfg = parse_config(str(write_config(tmp_path)), ["replicas=0"])
    assert run(cfg) == 2


def test_budget_exhaustion_exit_code(tmp_path):
    cfg = parse_config(str(write_config(tmp_path)),
                       ["lambda=3.0", "t=3.0", "max_particles=5", "n=8",
                        "replicas=30"])
    assert run(cfg) == 3


def test_radius_zero_budget_at_origin_is_censored(tmp_path, capsys):
    # n = 0, budget 1: 41 of the 50 origins alone exceed the budget; those
    # replicas are censored (exit 3), not counted as extinct
    cfg = parse_config(None, [
        "experiment=survival_sweep", "family=regular_tree", "depth=6",
        "lambda=3", "t=1", "n=0", "replicas=50", "seed=1",
        "max_particles=1", f"out={tmp_path / 'out'}"])
    assert run(cfg) == 3
    assert "41 replicas censored" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["inputs"]["censored"] == 41
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert rows[1].split(",")[8] == "0.14"


def test_survival_sweep_censoring_counts_replicas(tmp_path, capsys):
    # all 6 replicas are censored, in 14 of the 18 (replica, grid point)
    # evaluations; the message read "14 replicas censored"
    cfg = parse_config(None, [
        "experiment=survival_sweep", "family=regular_tree", "depth=8",
        "lambda=1:3:1", "t=2", "n=4", "replicas=6", "seed=3",
        "max_particles=1", f"out={tmp_path / 'out'}"])
    assert run(cfg) == 3
    assert ("budget exhaustion: 6 replicas censored (14 of 18 replica x "
            "grid-point evaluations)" in capsys.readouterr().err)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["inputs"]["censored"] == 14


def test_cli_determinism_across_workers(tmp_path):
    cfgp = write_config(tmp_path, **{"lambda": "0.5:2.0:0.5",
                                     "replicas": 120})
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    r1 = subprocess.run([sys.executable, "-m", "frogsim.cli", "run",
                         str(cfgp), f"out={out1}", "workers=1"],
                        capture_output=True, text=True)
    r4 = subprocess.run([sys.executable, "-m", "frogsim.cli", "run",
                         str(cfgp), f"out={out4}", "workers=4"],
                        capture_output=True, text=True)
    assert r1.returncode == 0 and r4.returncode == 0, (r1.stderr, r4.stderr)
    assert (out1 / "results.csv").read_bytes() == \
        (out4 / "results.csv").read_bytes()


def test_cli_monotone_sweep(tmp_path):
    cfg = parse_config(str(write_config(tmp_path)),
                       ["lambda=0.5:3.0:0.5", "replicas=200", "n=6"])
    assert run(cfg) == 0
    rows = Path(cfg.out, "results.csv").read_text().splitlines()[1:]
    means = [float(r.split(",")[8]) for r in rows]
    assert means == sorted(means)  # per-seed coupling forces monotonicity


def test_cli_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("experiment = abelian\nwhatsthis = 3\n")
    with pytest.raises(ValueError):
        parse_config(str(p))


def test_cli_main_validate(tmp_path, capsys):
    from frogsim.cli import main
    cfgp = write_config(tmp_path, **{"lambda": "1.0"})
    assert main(["validate", str(cfgp)]) == 0
    assert main(["validate", str(cfgp), "replicas=0"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_other_experiments_run(tmp_path):
    cfg = parse_config(None, ["experiment=linear_growth", "width=2",
                              "length=120", "lambda=2.0", "t=2.0", "n=100",
                              "replicas=60", "seed=3",
                              f"out={tmp_path/'lin'}"])
    assert run(cfg) == 0
    cfg2 = parse_config(None, ["experiment=abelian", "family=regular_tree",
                               "degree=3", "depth=6", "lambda=1.0", "t=1.0",
                               "replicas=40", "seed=4",
                               f"out={tmp_path/'ab'}"])
    assert run(cfg2) == 0


# sha256 of results.csv from tiny runs on regular_tree degree 3, depth 6,
# seed 11: these experiments' CLI output, byte for byte
CLI_GOLDENS = {
    "bernoulli_coupling": (
        ["lambda=1.5", "t=1.0", "replicas=4"],
        "4bff38b8ab3b5da65f7547669e7be407bc1cb23b626f2557840cbad4907a10eb"),
    "abelian": (
        ["lambda=2.0", "t=2.0", "replicas=5"],
        "0da78ad8886c7ebcbd956a20e09e937493c78542109ada48699dd78a2a039f69"),
}


@pytest.mark.parametrize("experiment", sorted(CLI_GOLDENS))
def test_cli_results_golden(tmp_path, experiment):
    args, digest = CLI_GOLDENS[experiment]
    cfg = parse_config(None, [f"experiment={experiment}",
                              "family=regular_tree", "degree=3", "depth=6",
                              "seed=11", *args, f"out={tmp_path}"])
    assert run(cfg) == 0
    csv = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == digest


@pytest.mark.parametrize("t_list,bad", [("1,abc", ["'abc'"]),
                                        ("-1,2", ["'-1'"]),
                                        ("nan,1,inf,x", ["'nan'", "'inf'",
                                                         "'x'"])])
def test_bad_t_list_exits_2(tmp_path, t_list, bad):
    args = ["experiment=nonamenable", "family=regular_tree", "depth=6", "n=3",
            "replicas=2", "seed=1", f"t_list={t_list}",
            f"out={tmp_path / 'out'}"]
    problems = validate(parse_config(None, args))
    assert len(problems) == 1 and "t_list" in problems[0]
    assert all(b in problems[0] for b in bad)
    r = subprocess.run([sys.executable, "-m", "frogsim.cli", "run", *args],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert "t_list" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args,problem", [
    (["experiment=linear_growth", "t=800"], "t values must be <= 700"),
    (["experiment=survival_sweep", "t=1:701:100"], "t values must be <= 700"),
    (["experiment=nonamenable", "t_list=1,701"],
     "t_list entries must be <= 700"),
])
def test_horizon_beyond_series_range_exits_2(tmp_path, args, problem):
    args = [*args, "family=regular_tree", "depth=6", "n=3", "replicas=2",
            "seed=1", f"out={tmp_path / 'out'}"]
    assert any(problem in p for p in validate(parse_config(None, args)))
    r = subprocess.run([sys.executable, "-m", "frogsim.cli", "run", *args],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert problem in r.stderr
    assert "Traceback" not in r.stderr
    assert validate(parse_config(None, [*args, "t=700", "t_list=700"])) == []


# Replicas censored at max_particles=1 in the runs below. linear_growth's
# 3 radii (25, 50, 100) share its 6 replicas' fields, so each censored
# replica counts once, not once per radius (18); each of nonamenable's 2
# lifespans has its own 6 replicas.
CENSORED_AT_ONE_PARTICLE = {"experiment=linear_growth": 6,
                            "experiment=nonamenable": 11}


@pytest.mark.parametrize("args", [
    ["experiment=linear_growth", "width=2", "length=120", "n=100"],
    ["experiment=nonamenable", "family=regular_tree", "depth=6", "n=3",
     "t_list=1,3"],
])
def test_particle_budget_reaches_survival_experiments(tmp_path, args, capsys):
    censored = CENSORED_AT_ONE_PARTICLE[args[0]]
    base = [*args, "lambda=3.0", "t=2.0", "replicas=6", "seed=3"]
    cfg = parse_config(None, [*base, "max_particles=1",
                              f"out={tmp_path / 'tight'}"])
    assert run(cfg) == 3
    assert (f"budget exhaustion: {censored} replicas censored"
            in capsys.readouterr().err)
    report = json.loads(Path(cfg.out, "report.json").read_text())
    assert report["inputs"]["censored"] == censored
    loose = parse_config(None, [*base, f"out={tmp_path / 'loose'}"])
    assert run(loose) == 0
    report = json.loads(Path(loose.out, "report.json").read_text())
    assert report["inputs"]["censored"] == 0


def test_workers_beyond_per_cpu_bound_exit_2(tmp_path, monkeypatch, capsys):
    import multiprocessing

    from frogsim import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    # the CLI imports multiprocessing only where it starts a pool
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfgp = write_config(tmp_path)
    assert validate(parse_config(str(cfgp), ["workers=8"])) == []
    for workers in (9, 100_000):
        problems = validate(parse_config(str(cfgp), [f"workers={workers}"]))
        assert problems == [f"workers must be <= 8 (4 per CPU); "
                            f"got {workers}"]
        assert cli.main(["validate", str(cfgp), f"workers={workers}"]) == 2
        assert cli.main(["run", str(cfgp), f"workers={workers}"]) == 2
        assert f"got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, message", [
    (["degree=2"], "regular_tree needs degree >= 3"),
    (["family=lattice_box", "d=0", "radius=6"],
     "lattice_box needs d >= 1 and radius >= 1"),
    (["family=weighted_file", "path=no/such/graph.txt"],
     "cannot read graph file"),
    (["max_vertices=100"], "vertex budget exceeded"),
])
def test_bad_graph_spec_exits_2_before_any_pool(tmp_path, monkeypatch, capsys,
                                                bad, message):
    # each spec passes validate; a pool initializer that raised would
    # respawn its worker forever, so the graph must fail before a pool
    import multiprocessing

    from frogsim import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    # the CLI imports multiprocessing only where it starts a pool
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfgp = write_config(tmp_path)
    for workers in (1, 2):
        args = [*bad, f"workers={workers}"]
        assert validate(parse_config(str(cfgp), args)) == []
        assert cli.main(["run", str(cfgp), *args]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


# Experiments that build their own graph must still honour max_vertices:
# a renormalization box of radius 36 holds 2665 vertices, a ladder of width
# 2 and length 240 holds 962.
@pytest.mark.parametrize("args, message", [
    (["experiment=renormalization", "lambda=4", "max_vertices=1000"],
     "vertex budget exceeded: 2665 > 1000"),
    (["experiment=renormalization", "lambda=4", "max_vertices=100"],
     "vertex budget exceeded: a lattice_box of radius 36"),
    (["experiment=linear_growth", "lambda=2", "t=2", "max_vertices=10"],
     "vertex budget exceeded: 962 > 10"),
])
def test_experiment_graph_over_vertex_budget_exits_2(tmp_path, args, message):
    out = tmp_path / "out"
    r = subprocess.run([sys.executable, "-m", "frogsim.cli", "run", *args,
                        "replicas=1", "seed=1", f"out={out}"],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert not (out / "results.csv").exists()


def test_nonamenable_report_records_spectral_diagnostics(tmp_path):
    from frogsim import GraphSpec, build_graph, spectral_radius_estimate
    from frogsim.cli import main

    out = tmp_path / "out"
    assert main(["run", "experiment=nonamenable", "family=regular_tree",
                 "depth=6", "n=3", "lambda=1.0", "t_list=1,2", "replicas=5",
                 "seed=2", f"out={out}"]) == 0
    inputs = json.loads((out / "report.json").read_text())["inputs"]
    g = build_graph(GraphSpec("regular_tree", degree=3, depth=6))
    spec = spectral_radius_estimate(g, g.origin, 2 * min(20, g.max_radius - 1))
    assert inputs["spectral_leakage"] == spec.leakage > 0.0
    assert inputs["spectral_truncation_warning"] is spec.truncation_warning
    assert "spectral" not in (out / "results.csv").read_text()


def test_public_names_cover_the_scripts():
    import ast

    import frogsim

    assert all(hasattr(frogsim, name) for name in frogsim.__all__)
    used = set()
    for path in Path(__file__).parents[1].glob("scripts/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "frogsim":
                used.update(alias.name for alias in node.names)
    assert used and used <= set(frogsim.__all__)


# np.unique's first call imports numpy.ma, which adds about 1 MB of peak
# memory, and multiprocessing, which only a pool of survival_sweep workers
# uses, takes most of frogsim.cli's import time: the benchmarked phi and
# renormalization runs must import neither
NUMPY_MA_PROBE = """
import sys
from frogsim import FrogParams, GraphSpec, ball, build_graph
from frogsim.cli import main
from frogsim.estimators import phi_report
g = build_graph(GraphSpec("lattice_box", d=2, radius=20))
phi_report(g, ball(g, g.origin, 3), FrogParams(1.0, 1.0), 200, 1)
status = main(["run", "experiment=renormalization", "lambda=4", "replicas=1",
               "seed=1", "out=" + sys.argv[1]])
print("status", status, "numpy.ma", "numpy.ma" in sys.modules,
      "multiprocessing", "multiprocessing" in sys.modules)
"""


def test_phi_and_renormalization_never_import_numpy_ma(tmp_path):
    r = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE,
                        str(tmp_path / "out")], capture_output=True, text=True)
    assert r.stdout.splitlines()[-1:] == [
        "status 0 numpy.ma False multiprocessing False"], r.stderr


# Each experiment on a tiny graph at lambda = 0 or t = 0: a run ends with
# an exit status and a message, never with an exception
TINY_RUNS = {
    "survival_sweep": ["family=regular_tree", "depth=6", "n=3"],
    "bernoulli_coupling": ["family=regular_tree", "depth=6"],
    "abelian": ["family=regular_tree", "depth=6"],
    "linear_growth": ["width=2", "length=40", "n=8"],
    "nonamenable": ["family=regular_tree", "depth=6", "n=3"],
    "renormalization": ["a=4", "net_extent=1"],
}


@pytest.mark.parametrize("lam,t", [(0, 1), (1, 0), (0, 0)])
@pytest.mark.parametrize("experiment", sorted(TINY_RUNS))
def test_zero_density_or_lifespan_never_raises(tmp_path, capsys, experiment,
                                               lam, t):
    status = main(["run", f"experiment={experiment}", *TINY_RUNS[experiment],
                   f"lambda={lam}", f"t={t}", "replicas=3", "seed=1",
                   f"out={tmp_path / 'out'}"])
    err = capsys.readouterr().err
    assert status in (0, 2, 3) and "Traceback" not in err
    if status == 2:
        assert err.startswith("config error: ")
    if experiment == "nonamenable" and lam == 0:
        assert status == 2 and "nonamenable needs lambda > 0" in err
