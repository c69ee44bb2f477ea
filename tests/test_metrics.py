"""Metric and k-term helper tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch import (
    Dist,
    RateVector,
    SignalSpec,
    best_k_term,
    gen_rates,
    positive_clip,
    relative_l1_error,
    support_recovery_success,
    top_k_indices,
)
from helpers import brute_best_k, top_k_indices_argsort


def test_best_k_term_examples():
    u = np.array([5.0, -7.0, 2.0])
    dec = best_k_term(u, 1)
    assert np.array_equal(dec.top, [0.0, -7.0, 0.0])
    assert list(dec.support) == [1]
    assert dec.residual_l1 == 7.0

    dec0 = best_k_term(u, 0)
    assert not dec0.top.any()
    assert dec0.residual_l1 == 14.0

    dec3 = best_k_term(u, 3)
    assert np.array_equal(dec3.top, u)
    assert dec3.residual_l1 == 0.0


def test_top_k_ties_and_bounds():
    assert list(top_k_indices(np.array([2.0, -2.0, 1.0]), 1)) == [0]
    assert list(top_k_indices(np.array([1.0, 3.0, 3.0, 0.5]), 2)) == [1, 2]
    with pytest.raises(ValueError):
        top_k_indices(np.zeros(3), 4)
    with pytest.raises(ValueError):
        top_k_indices(np.zeros(3), -1)


# few distinct magnitudes, so most values tie with another
_TIED_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e300, -np.inf, np.inf,
                np.nan, -np.nan]
_INT_DTYPES = [np.int8, np.int16, np.int64]


@st.composite
def top_k_inputs(draw):
    if draw(st.booleans()):
        pool = st.one_of(st.sampled_from(_TIED_FLOATS), st.floats())
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        with np.errstate(over="ignore"):
            return np.array(draw(st.lists(pool, max_size=40)), dtype=dtype)
    dtype = draw(st.sampled_from(_INT_DTYPES))
    info = np.iinfo(dtype)
    pool = st.one_of(st.integers(-3, 3), st.integers(info.min, info.max))
    return np.array(draw(st.lists(pool, max_size=40)), dtype=dtype)


@settings(max_examples=400, deadline=None)
@given(top_k_inputs())
def test_top_k_matches_argsort_oracle(u):
    for k in range(u.size + 1):
        got = top_k_indices(u, k)
        want = top_k_indices_argsort(u, k)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def test_top_k_nan_ranks_last_and_signed_zeros_tie():
    u = np.array([np.nan, -0.0, 0.0, np.nan, -1.0])
    assert top_k_indices(u, 1).tolist() == [4]
    assert top_k_indices(u, 2).tolist() == [1, 4]
    assert top_k_indices(u, 3).tolist() == [1, 2, 4]
    assert top_k_indices(u, 4).tolist() == [0, 1, 2, 4]


def test_best_k_term_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = rng.integers(1, 9)
        u = rng.normal(0, 3, n).round(2)
        for k in range(n + 1):
            got = best_k_term(u, k).residual_l1
            want = brute_best_k(u, k)
            assert abs(got - want) < 1e-12


def test_sigma_k_monotone():
    rng = np.random.default_rng(7)
    u = rng.normal(0, 1, 40)
    sig = [best_k_term(u, k).residual_l1 for k in range(41)]
    assert all(a >= b - 1e-12 for a, b in zip(sig, sig[1:]))
    assert sig[-1] == 0.0


def test_positive_clip_examples():
    assert np.array_equal(positive_clip(np.array([3.0, -2.0, 0.0])), [3.0, 0.0, 0.0])
    u = np.array([0.5, 2.0, 0.0])
    assert np.array_equal(positive_clip(u), u)
    rng = np.random.default_rng(8)
    v = rng.normal(0, 2, 50)
    assert np.array_equal(positive_clip(positive_clip(v)), positive_clip(v))


def test_clip_contraction_toward_nonneg():
    # for theta >= 0: ||u+ - theta||_1 <= ||u - theta||_1
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = rng.integers(1, 30)
        u = rng.normal(0, 5, n)
        theta = np.abs(rng.normal(0, 5, n))
        d_clip = np.abs(positive_clip(u) - theta).sum()
        d_raw = np.abs(u - theta).sum()
        assert d_clip <= d_raw + 1e-12


def test_clip_lipschitz():
    rng = np.random.default_rng(10)
    for _ in range(500):
        u, v = rng.normal(0, 3, 20), rng.normal(0, 3, 20)
        lhs = np.abs(positive_clip(u) - positive_clip(v)).sum()
        assert lhs <= np.abs(u - v).sum() + 1e-12


def _truth(rates, k):
    return RateVector(rates, k)


def test_support_recovery_examples():
    truth = _truth([0.0, 1.0, 0.01, 1.0, 0.0], 2)
    assert support_recovery_success(truth.rates, truth)
    # zero estimate ties to {0..k-1}, which misses the planted support
    assert not support_recovery_success(np.zeros(5), truth)
    prefix = _truth([1.0, 2.0, 0.1, 0.0], 2)
    assert support_recovery_success(np.zeros(4), prefix)
    # permuting values within the support keeps set equality
    permuted = truth.rates.copy()
    permuted[1], permuted[3] = truth.rates[3], truth.rates[1]
    assert support_recovery_success(permuted, truth)


def test_relative_error_zero_and_oracle():
    truth = _truth([2.0, 0.3, 0.1, 1.5, 0.05], 2)
    res = relative_l1_error(truth.rates, truth)
    assert res.value == 0.0 and not res.is_absolute
    oracle = best_k_term(truth.rates, 2).top
    res = relative_l1_error(oracle, truth)
    assert res.value == 1.0 and not res.is_absolute


def test_relative_error_zero_estimate_full_scale():
    spec = SignalSpec(5000, 10, Dist("constant", 1.0),
                      Dist("abs-gaussian", 1e-3), seed=21)
    truth = gen_rates(spec)
    sigma_k = best_k_term(truth.rates, 10).residual_l1
    assert abs(sigma_k - 3.98) < 0.05 * 3.98  # single-draw sanity
    res = relative_l1_error(np.zeros(5000), truth)
    assert not res.is_absolute
    assert abs(res.value - (10 + sigma_k) / sigma_k) < 1e-9


def test_relative_error_sparse_truth_flag():
    truth = _truth([4.0, 0.0, 1.0, 0.0], 2)  # exactly 2-sparse
    res = relative_l1_error(np.array([4.0, 0.0, 0.0, 0.0]), truth)
    assert res.is_absolute and res.value == 1.0


def test_relative_error_shape_mismatch():
    truth = _truth([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        relative_l1_error(np.zeros(3), truth)
