"""Run one benchmark job in a fresh interpreter and write ``job.json``.

    python bench/job.py WORKLOAD SEED SIZE OUTDIR [--trace]

The parent (run.py) times the process from outside; this file records, on
the system-wide monotonic clock, when the first unit of work began (in any
process, pool workers included, as ``first.<pid>`` files) and when the work
ended. An untraced job also samples the host's speed while it runs
(probe.py) and writes the samples to ``probe.json``. With ``--trace`` the
job runs in-process with the tracer installed and writes the per-layer
summary and ``spans.jsonl`` instead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_marked_pid = None


def main(argv) -> int:
    name, seed, size, outdir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    traced = "--trace" in argv[4:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sampler = None
    if not traced:
        from probe import Sampler
        sampler = Sampler().start()
    from workloads import WORKLOADS

    def mark():
        global _marked_pid
        if _marked_pid != os.getpid():
            _marked_pid = os.getpid()
            (outdir / f"first.{_marked_pid}").write_text(
                repr(time.monotonic()), encoding="utf-8")

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    outputs = WORKLOADS[name].run(seed, size, outdir, mark, traced)
    t_end = time.monotonic()
    if sampler is not None:
        sampler.stop()
        sampler.write(outdir / "probe.json")
    import numpy
    import scipy
    import frogsim
    record = {"outputs": outputs, "t_end": t_end,
              "frogsim": str(Path(frogsim.__file__).resolve().parent),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
        tracer.write_spans(outdir / "spans.jsonl")
    (outdir / "job.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
