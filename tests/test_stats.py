import math
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogsim.stats import Estimate, from_binomial, from_samples


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(0.0, 0.0, 0, 1)
    with pytest.raises(ValueError):
        Estimate(0.0, -1.0, 5, 1)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_from_samples_properties(values):
    est = from_samples(values, seed=0)
    assert min(values) - 1e-9 <= est.mean <= max(values) + 1e-9
    assert est.stderr >= 0.0
    assert est.replicas == len(values)


def test_from_samples_constant_sequence():
    est = from_samples([2.5] * 10, seed=3)
    assert est.mean == 2.5 and est.stderr == 0.0


def generator_stats(values):
    """from_samples' (mean, stderr) as the generator formula sums them."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)


@given(st.one_of(
    st.lists(st.integers(0, 30), min_size=1, max_size=400),
    st.lists(st.integers(0, 3), min_size=1, max_size=60).map(
        lambda vs: [v + 2**53 - 1 for v in vs]),
    st.lists(st.sampled_from([0, 1, 2**53 + 1, 3 * 2**60, 7.5]),
             min_size=1, max_size=40),
    st.tuples(st.integers(-2**62, 2**62), st.integers(1, 300)).map(
        lambda vn: [vn[0]] * vn[1]),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30)))
@settings(max_examples=200, deadline=None)
def test_from_samples_table_equals_generator_formula(values):
    # int samples that repeat sum their squared deviations through a table
    # of distinct values: the same terms in the same order, so the same
    # floats bit for bit, ints of 2^53 and more (which round in v - mean)
    # and single or constant samples included
    est = from_samples(values, seed=0)
    mean, stderr = generator_stats(values)
    assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex())


def test_from_samples_distinct_floats_no_slower():
    # distinct floats keep the generator formula: a table of them costs
    # about three times as much, since a float's hash costs about as much
    # as its term
    values = [math.sin(i) for i in range(1000)]
    assert from_samples(values, 0).stderr.hex() \
        == generator_stats(values)[1].hex()
    ours = min(timeit.repeat(lambda: from_samples(values, 0), number=20,
                             repeat=15))
    theirs = min(timeit.repeat(lambda: generator_stats(values), number=20,
                               repeat=15))
    assert ours < 1.3 * theirs


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_from_binomial_properties(k):
    est = from_binomial(k, 500, seed=1)
    assert 0.0 <= est.mean <= 1.0
    assert est.stderr <= 0.5 / math.sqrt(500) + 1e-12
    if k in (0, 500):
        assert est.stderr == 0.0


def test_margin_is_three_sigma_by_default():
    est = Estimate(1.0, 0.2, 10, 0)
    assert est.margin() == pytest.approx(0.6)
