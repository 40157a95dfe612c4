"""Host-speed probe: rescale a job's times to a fixed reference speed.

The reference host is shared, and its vCPUs switch between a fast and a
slow speed (about 2x apart) in spells of seconds to minutes. CPU time
tracks wall time, so the switch is not waiting but slower execution. Over a
run the share of slow time drifts, and every raw time drifts with it.

A job therefore samples the speed of the CPU it runs on while it runs: an
interval timer (``SIGALRM`` every ``INTERVAL_S``) runs a fixed pure-Python
kernel of the kind frogsim's hot paths are made of (splitmix64 steps, dict
and list updates) and records how long it took. If the kernel takes ``p``
seconds at a sample, work runs at ``PROBE_REF_S / p`` of the reference
speed there. Samples are evenly spaced in wall time, so the work a stretch
of ``T`` seconds did, in reference seconds, is ``T`` times the mean of
``PROBE_REF_S / p`` over its samples. A sample slowed by preemption has a
large ``p`` and adds little to that mean.

The kernel is the benchmark's own and never calls frogsim, so a change to
frogsim moves the rescaled times exactly as it moves the raw ones; only the
host's speed is divided out. The handler runs between bytecodes of the
job's main thread, takes about 1 % of its time and changes none of its
outputs. Interval timers are not inherited by forked pool workers.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path

INTERVAL_S = 0.02
PROBE_REF_S = 150e-6    # kernel time that defines the reference speed
_MASK = (1 << 64) - 1
_LOOPS = 120


def kernel() -> float:
    """Run the fixed probe kernel once and return its duration (s)."""
    t0 = time.perf_counter()
    x = 0x2545F4914F6CDD1D
    counts: dict = {}
    seen: list = []
    for i in range(_LOOPS):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        k = x & 63
        counts[k] = counts.get(k, 0) + 1
        seen.append((x >> 11) * (1.0 / (1 << 53)))
    return time.perf_counter() - t0


class Sampler:
    """Sample ``kernel()`` every ``INTERVAL_S`` of wall time in this
    process, stamping each sample with ``time.monotonic()``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append((time.monotonic(), kernel()))

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.samples), encoding="utf-8")


def read(path: Path) -> list[tuple[float, float]]:
    if not path.exists():
        return []
    return [tuple(s) for s in json.loads(path.read_text(encoding="utf-8"))]


def speed(samples, start: float = float("-inf"),
          end: float = float("inf")) -> float | None:
    """Mean speed relative to the reference over the samples taken in
    [start, end], or None if there are none."""
    inside = [PROBE_REF_S / p for t, p in samples if start <= t <= end and p > 0]
    return statistics.fmean(inside) if inside else None
