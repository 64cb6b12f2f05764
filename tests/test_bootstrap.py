"""``bootstrap_ci`` is identical to the plain ``statistics.mean`` loop.

The array implementation must return what the straightforward bootstrap
returns — the same tuple, the same element types (an integral mean of ints
stays an ``int``) — and leave the generator in the same state.  The
reference below is that straightforward bootstrap, kept here verbatim so
the comparison never drifts with the library.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction
from statistics import mean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.validation import ConfigurationError

# import_module: the package re-exports the aggregate() function under the
# module's name.
aggregate_module = importlib.import_module("repro.results.aggregate")
bootstrap_ci = aggregate_module.bootstrap_ci


def reference_bootstrap_ci(values, *, confidence=0.95, resamples=200, rng):
    if len(values) == 1:
        return (values[0], values[0])
    means = sorted(
        mean(rng.choices(values, k=len(values))) for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    low_index = int(tail * (resamples - 1))
    high_index = int((1.0 - tail) * (resamples - 1))
    return (means[low_index], means[high_index])


def _same(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, float) and math.isnan(left):
        return math.isnan(right)
    return left == right


def assert_identical(values, *, seed, confidence=0.95, resamples=200, rng_class=random.Random,
                     warm_up=0):
    expected_rng, actual_rng = rng_class(seed), rng_class(seed)
    for generator in (expected_rng, actual_rng):
        for _ in range(warm_up):
            generator.random()
        if warm_up:
            generator.gauss(0.0, 1.0)  # leaves a cached gauss_next behind
    expected = reference_bootstrap_ci(
        list(values), confidence=confidence, resamples=resamples, rng=expected_rng
    )
    actual = bootstrap_ci(values, confidence=confidence, resamples=resamples, rng=actual_rng)
    assert type(actual) is tuple and len(actual) == 2
    assert all(_same(a, e) for a, e in zip(actual, expected)), (actual, expected)
    assert actual_rng.getstate() == expected_rng.getstate()


seeds = st.integers(min_value=0, max_value=2**64)
confidences = st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99])
resample_counts = st.integers(min_value=1, max_value=120)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40), seeds, confidences,
       resample_counts)
def test_int_samples(values, seed, confidence, resamples):
    assert_identical(values, seed=seed, confidence=confidence, resamples=resamples)


@settings(max_examples=80, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=40), seeds, confidences, resample_counts)
def test_float_samples(values, seed, confidence, resamples):
    assert_identical(values, seed=seed, confidence=confidence, resamples=resamples)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3)), min_size=1, max_size=40),
    seeds, confidences, resample_counts, st.integers(0, 5),
)
def test_mixed_int_float_samples(values, seed, confidence, resamples, warm_up):
    assert_identical(values, seed=seed, confidence=confidence, resamples=resamples,
                     warm_up=warm_up)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2**70, 2**70), min_size=2, max_size=30), seeds)
def test_ints_too_large_for_int64_sums(values, seed):
    # Ints take the generic loop, however large.
    values = values + [2**66]
    assert max(abs(value) for value in values) * len(values) >= 2**62
    assert_identical(values, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0**70, 2.0**70), min_size=2, max_size=30), seeds)
def test_floats_too_large_for_int64_sums(values, seed):
    # Beyond 2**62 / n the scaled resample sums are taken in Python ints.
    values = values + [2.0**66]
    assert_identical(values, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1e-300, 0.1, 3.0, 7.5, 1e300]), min_size=2, max_size=30),
       seeds)
def test_floats_of_far_apart_magnitudes(values, seed):
    assert_identical(values, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(finite_floats, st.sampled_from([math.inf, -math.inf, math.nan])),
                min_size=2, max_size=20), seeds)
def test_non_finite_samples(values, seed):
    assert_identical(values, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), seeds, resample_counts,
       st.integers(1, 64))
def test_samples_spanning_several_blocks(values, seed, resamples, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aggregate_module, "_BLOCK_DRAWS", block)
        assert_identical([value / 4 for value in values], seed=seed, resamples=resamples)
        assert_identical([float(value) for value in values] + [0.5], seed=seed,
                         resamples=resamples)


class _HalvedRandom(random.Random):
    def random(self):
        return super().random() / 2.0


@pytest.mark.parametrize("values", [
    [1, 2, 3, 4, 5],
    [0.5, 1.25, 2.0, 9.75],
    [True, False, True],
    [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2)],
    [7],
    [2.5],
])
@pytest.mark.parametrize("confidence", [0.5, 0.95])
def test_fixed_samples_and_overridden_generators(values, confidence):
    for rng_class in (random.Random, _HalvedRandom):
        assert_identical(values, seed=17, confidence=confidence, rng_class=rng_class)
        assert_identical(values, seed=17, confidence=confidence, rng_class=rng_class,
                         warm_up=3)


def test_more_draws_than_one_block():
    values = [value * 3 + (value % 7) / 4 for value in range(600)]
    resamples = 500
    assert len(values) * resamples > aggregate_module._BLOCK_DRAWS
    assert_identical(values, seed=2024, resamples=resamples, confidence=0.9)


def test_empty_and_bad_confidence_still_raise():
    with pytest.raises(ConfigurationError):
        bootstrap_ci([], rng=random.Random(0))
    with pytest.raises(ConfigurationError):
        bootstrap_ci([1.0, 2.0], confidence=1.0, rng=random.Random(0))


@pytest.mark.parametrize("values,rng_class,exact", [
    ([0.5, 2.0, 3.0], random.Random, True),
    ([2.0**70, 1.0], random.Random, True),
    ([1, 2, 3], random.Random, False),
    ([0.5, 2.0, 3], random.Random, False),
    ([2**70, 1], random.Random, False),
    ([1.0, 2.0, 3.0], _HalvedRandom, False),
    ([True, False], random.Random, False),
    ([Fraction(1, 2), Fraction(1, 3)], random.Random, False),
    ([1.0, math.inf], random.Random, False),
    ([1.0, math.nan], random.Random, False),
])
def test_array_path_is_chosen_by_the_input_type(values, rng_class, exact):
    rng = rng_class(3)
    before = rng.getstate()
    means = aggregate_module._exact_resample_means(values, 10, rng)
    assert (means is not None) == exact
    if not exact:
        assert rng.getstate() == before
