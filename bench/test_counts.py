"""Traced work counts repeat exactly.

Two traced jobs of each workload at a tiny size must give identical values
for every deterministic per-layer count (tracer.DETERMINISTIC): the counts
are functions of the workload, seed and size only, so they can be compared
across hosts. Run from the root of a checkout:

    python -m pytest bench/test_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORK, job_env, run_job  # noqa: E402
from tracer import DETERMINISTIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# tiny job sizes, and the counts each workload must exercise
TINY = {
    "sweep_tree12": (40, ("rng.derive_key.calls", "rng.draws", "walks.jumps",
                          "frogs.particles_revealed",
                          "frogs.trajectory.sampled")),
    "phi_window_z2": (20, ("rng.derive_key.calls", "walks.jumps",
                           "frogs.stay_closure.calls", "walks.series.terms")),
    "renorm_z2": (1, ("walks.jumps", "frogs.trajectory.sampled",
                      "experiments.block_open.calls", "graphs.ball.calls")),
    "series_z2": (2, ("walks.series.terms", "walks.series.domain_vertices")),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat(name):
    size, exercised = TINY[name]
    w = WORKLOADS[name]
    env = job_env()
    jobs = [run_job(w, 5, size, WORK / "test_counts" / f"{name}-{i}", True, env)
            for i in range(2)]
    for job in jobs:
        assert "error" not in job, job.get("stderr_tail")
        assert w.check(job["outputs"], size) == []
    first, second = ({k: job["trace"].get(k, 0) for k in DETERMINISTIC}
                     for job in jobs)
    assert first == second
    assert jobs[0]["outputs"] == jobs[1]["outputs"]
    assert all(first[k] > 0 for k in exercised), first
