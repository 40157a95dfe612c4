"""Deterministic splittable random streams.

Every stochastic routine in the package draws from an explicit ``Stream``
keyed by a 64-bit state. Child streams are derived from (seed, labels...)
with a counter-based hash, so replica r of a run always sees the same
randomness regardless of worker count or scheduling, and a particle's
trajectory depends only on (field seed, vertex, particle index). That last
property is what makes the per-seed monotone couplings in the frog engine
exact.

Draw k of a stream (k = 1, 2, ...) is splitmix64's output mix of
``key + k * _GOLDEN`` mod 2^64, a pure function of the key and k. Stream
bits come from two implementations of that one sequence: ``Stream.u64``
computes the next draw on Python ints, and ``uniforms_at`` computes draw k
of many streams at once from their keys on ``uint64`` numpy arrays, which
wrap mod 2^64 exactly as ``& _MASK`` does. ``uniform`` and ``exponential``
are fixed formulas on one draw; ``Stream.peek_uniforms`` reads the next n
uniforms of one stream through ``uniforms_at``, and ``Stream.skip``
consumes the draws a block reader used, so every caller reads a stream in
the same order and the couplings hold across them. With ``derive_keys``
(the keys of ``count`` sibling streams, folded on arrays) ``uniforms_at``
lets a batch sampler advance thousands of independent streams in lockstep.
``derive_key`` hashes each distinct string label once per process and
keeps the code in a module dict.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from bisect import bisect_left

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# splitmix64's two output multipliers
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)
# the same constants as uint64 array operands; arithmetic stays on arrays,
# where it wraps silently (numpy warns on uint64 *scalar* overflow)
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)


def splitmix64(x: int) -> int:
    """One splitmix64 scramble of ``x`` (stateless)."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


# blake2b codes of string labels: the labels in use are a few constants
# ("traj", "eta", ...), hashed once per process instead of once per key
_STR_CODES: dict[str, int] = {}


def _label_code(label) -> int:
    """The 64-bit code ``derive_key`` folds for one int or str label."""
    if isinstance(label, str):
        code = _STR_CODES.get(label)
        if code is None:
            # hashlib, not hash(): stable across processes and runs
            code = _STR_CODES[label] = int.from_bytes(hashlib.blake2b(
                label.encode("utf-8"), digest_size=8).digest(), "big")
        return code
    if isinstance(label, int):
        return label & _MASK
    raise TypeError(f"stream labels must be int or str, got {type(label)!r}")


def derive_key(seed: int, *labels) -> int:
    """Fold (seed, labels...) into a 64-bit stream key.

    Label i (ints mod 2^64, strings by their blake2b code) is folded in as
    h = splitmix64(h ^ splitmix64(code ^ (i + 1) * _GOLDEN)), written out.
    The seed is any integer (numpy integers too, through
    ``operator.index``), taken mod 2^64; anything else raises TypeError.
    """
    h = splitmix64(operator.index(seed) & _MASK)
    salt = 0
    for label in labels:
        salt += _GOLDEN
        code = _label_code(label)
        x = ((code ^ salt) + _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK
        x = ((h ^ x ^ (x >> 31)) + _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK
        h = x ^ (x >> 31)
    return h


def derive_keys(seed, *labels, count: int | None = None) -> np.ndarray:
    """``derive_key`` elementwise, as a uint64 array of at least one
    dimension.

    The seed and any int label may be an integer numpy array (values are
    taken mod 2^64, so negative int64 entries wrap as in ``derive_key``);
    the arrays broadcast together and element i folds the seed and labels
    at i.
    ``count=n`` appends the label ``arange(n)``, so
    ``derive_keys(seed, *labels, count=n)[r] == derive_key(seed, *labels, r)``.
    The scalar prefix before the first array is folded once by
    ``derive_key``; the rest runs on arrays.
    """
    if count is not None:
        labels = (*labels, np.arange(count, dtype=np.uint64))
    if isinstance(seed, np.ndarray):
        h = _as_u64(seed) + _NP_GOLDEN
        _np_mix(h)
        first = 0
    else:
        first = next((i for i, label in enumerate(labels)
                      if isinstance(label, np.ndarray)), len(labels))
        h = np.atleast_1d(np.uint64(derive_key(seed, *labels[:first])))
    for i in range(first, len(labels)):
        salt = (i + 1) * _GOLDEN & _MASK
        label = labels[i]
        if isinstance(label, np.ndarray):
            x = _as_u64(label) ^ np.uint64(salt)
            x += _NP_GOLDEN
            _np_mix(x)
        else:
            x = np.uint64(splitmix64(_label_code(label) ^ salt))
        h = h ^ x
        h += _NP_GOLDEN
        _np_mix(h)
    return h


def _as_u64(a: np.ndarray) -> np.ndarray:
    """A new uint64 copy (>= 1-d) of an integer array, values mod 2^64."""
    if a.dtype.kind not in "iub":
        raise TypeError(f"stream labels must be integers, got {a.dtype}")
    return np.array(a, dtype=np.uint64, ndmin=1)


def uniforms_at(keys: np.ndarray, k: int,
                count: int | None = None) -> np.ndarray:
    """Uniform draw k of the streams with these keys: what the k-th
    ``uniform()`` call of a ``Stream`` with each key returns.

    ``count=n`` returns draws k, k+1, ..., k+n-1 as the rows of an
    (n, keys.size) array, in one pass.
    """
    if count is None:
        return _np_uniforms(keys + np.uint64(k * _GOLDEN & _MASK))
    x = np.arange(k, k + count, dtype=np.uint64)[:, None] * _NP_GOLDEN
    return _np_uniforms(x + keys)


def _np_mix(x: np.ndarray) -> None:
    """splitmix64's output mix, in place on a uint64 array."""
    x ^= x >> 30
    x *= _NP_MIX1
    x ^= x >> 27
    x *= _NP_MIX2
    x ^= x >> 31


def _np_uniforms(x: np.ndarray) -> np.ndarray:
    """The uniforms of the draws at counters x (key + k * _GOLDEN);
    overwrites x."""
    _np_mix(x)
    x >>= 11
    return x.astype(np.float64) * _INV_2_53


class Stream:
    """Counter-based pseudo-random stream (splitmix64 core).

    Cheap to create, so it is idiomatic here to derive one stream per
    (replica, vertex, particle) rather than to share mutable generators.
    """

    __slots__ = ("key", "_state")

    def __init__(self, seed: int, *labels):
        self.key = derive_key(seed, *labels) if labels else splitmix64(
            operator.index(seed) & _MASK)
        self._state = self.key

    def child(self, *labels) -> "Stream":
        return Stream(self.key, *labels)

    def u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        x = self._state
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK
        return x ^ (x >> 31)

    def peek_uniforms(self, n: int) -> list[float]:
        """The next n uniforms, equal to n successive ``uniform()`` calls,
        computed on numpy arrays. The stream does not advance: ``skip``
        consumes however many of them the caller used."""
        return uniforms_at(np.array([self._state], dtype=np.uint64), 1,
                           count=n)[:, 0].tolist()

    def skip(self, k: int) -> None:
        """Consume k draws, as k ``u64()`` calls would."""
        self._state = (self._state + k * _GOLDEN) & _MASK

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.u64() >> 11) * _INV_2_53

    def exponential(self) -> float:
        return -math.log1p(-self.uniform())

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is ~n/2^64, negligible here."""
        return self.u64() % n

    def poisson(self, lam: float) -> int:
        """Poisson(lam) draw by inverse CDF (small lam) or exponential counting."""
        if lam < 0 or not math.isfinite(lam):
            raise ValueError(f"poisson mean must be finite and >= 0, got {lam}")
        if lam == 0.0:
            return 0
        if lam < 30.0:
            return poisson_inverse_cdf(lam, self.uniform())
        # count of exponential arrivals in [0, lam] is exactly Poisson(lam)
        total = 0.0
        k = 0
        while True:
            total += self.exponential()
            if total > lam:
                return k
            k += 1

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


# exp(-lam) stays a normal double up to here
POISSON_LAM_MAX = 700.0
# the largest quantile the Poisson inverse CDF resolves
_U_CAP = 1.0 - 1e-12


def poisson_inverse_cdf(lam: float, u: float) -> int:
    """Smallest k with P(Poisson(lam) <= k) >= u: a left binary search of
    min(u, 1 - 1e-12) in ``_poisson_cdf_table(lam)``.

    Monotone in lam for fixed u, which the particle-field couplings rely on.
    u is capped at 1 - 1e-12: past that the accumulated CDF saturates below
    u in floats and the crossing point stops being well defined (the cap
    shifts at most the 1e-12 extreme quantile). Accurate for lam up to ~700
    (below the exp underflow threshold).
    """
    return bisect_left(_poisson_cdf_table(lam), min(u, _U_CAP))


@functools.lru_cache(maxsize=32)
def _poisson_cdf_table(lam: float) -> tuple[float, ...]:
    """The running CDF values P(Poisson(lam) <= k), k = 0, 1, ..., summed
    by the recurrence p_k = p_{k-1} lam / k, up to the first one at or
    above ``_U_CAP`` (which every lam in [0, POISSON_LAM_MAX] reaches).
    A tuple, which ``bisect`` searches faster than an array."""
    if lam > POISSON_LAM_MAX:
        raise ValueError(
            f"poisson_inverse_cdf unstable for lam > {POISSON_LAM_MAX:g}")
    p = cdf = math.exp(-lam)
    table, k = [cdf], 0
    while cdf < _U_CAP:
        k += 1
        p *= lam / k
        cdf += p
        table.append(cdf)
    return tuple(table)


def poisson_counts(lam: float, u: np.ndarray) -> np.ndarray:
    """``poisson_inverse_cdf(lam, u)`` for every u of an array, as int64:
    the same left binary search of min(u, 1 - 1e-12) in the same table."""
    return np.searchsorted(_poisson_cdf_table(lam), np.minimum(u, _U_CAP),
                           side="left")
