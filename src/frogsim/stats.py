"""Monte Carlo point estimates with provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass


def check_replicas(n: int) -> None:
    """Raise ValueError unless n >= 1: the one replica-count check."""
    if n < 1:
        raise ValueError(f"replicas must be >= 1, got {n}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    replicas: int
    seed: int
    method: str = "mc"

    def __post_init__(self):
        check_replicas(self.replicas)
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")

    def margin(self, k: float = 3.0) -> float:
        return k * self.stderr


def from_samples(values, seed: int, method: str = "mc") -> Estimate:
    n = len(values)
    check_replicas(n)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return Estimate(mean, stderr, n, seed, method)


def from_binomial(successes: int, n: int, seed: int,
                  method: str = "mc-binomial") -> Estimate:
    check_replicas(n)
    p = successes / n
    return Estimate(p, math.sqrt(p * (1.0 - p) / n), n, seed, method)
