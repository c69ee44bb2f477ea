"""Signal generation and Poisson stream simulation tests."""

from dataclasses import asdict

import numpy as np
import pytest

from flowsketch import (
    Dist,
    RateVector,
    SignalSpec,
    StreamState,
    advance_epoch,
    best_k_term,
    build_random_expander,
    gen_rates,
    parse_dist,
    run_epochs,
)
from flowsketch.graph import BipartiteGraph

from helpers import (
    HeavyTailParams,
    apply_adjacency,
    check_heavy_tail,
    counters_consistent,
)

CONST1 = Dist("constant", 1.0)
MINNOW = Dist("abs-gaussian", 1e-3)


def test_dist_validation():
    with pytest.raises(ValueError):
        Dist("uniform", 1.0)
    with pytest.raises(ValueError):
        Dist("constant", -1.0)
    with pytest.raises(ValueError):
        Dist("abs-gaussian", float("nan"))


def test_dist_draws():
    rng = np.random.default_rng(0)
    c = Dist("constant", 2.5).draw(rng, 7)
    assert (c == 2.5).all() and c.shape == (7,)
    g = Dist("abs-gaussian", 0.5).draw(rng, 20000)
    assert (g >= 0).all()
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
    assert abs(g.mean() - 0.5 * np.sqrt(2 / np.pi)) < 0.01


def test_parse_dist():
    d = parse_dist("constant:1.0")
    assert d == CONST1
    assert parse_dist("abs-gaussian:0.001") == MINNOW
    with pytest.raises(ValueError):
        parse_dist("constant")  # no separator
    with pytest.raises(ValueError):
        parse_dist("uniform:3")


def test_dist_dict_round_trip():
    d = Dist("abs-gaussian", 0.25)
    assert Dist.from_dict(asdict(d)) == d


@pytest.mark.parametrize("bad", [
    {"kind": "constant", "value": 1, "vaule": 2},  # unknown key
    {"kind": "constant"},  # missing key
])
def test_dist_from_dict_rejects_bad_keys(bad):
    with pytest.raises(TypeError):
        Dist.from_dict(bad)


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(10, 11, CONST1, MINNOW, seed=0)
    with pytest.raises(ValueError):
        SignalSpec(10, 2, Dist("constant", 0.0), MINNOW, seed=0)
    # zero-magnitude minnows are legal (exactly sparse signals)
    SignalSpec(10, 2, CONST1, Dist("constant", 0.0), seed=0)


def test_rate_vector_validation():
    with pytest.raises(ValueError):
        RateVector.from_rates(np.array([1.0, -0.5]), 1)
    with pytest.raises(ValueError):
        RateVector.from_rates(np.array([1.0, np.nan]), 1)


def test_rate_vector_realized_support():
    # support tracks the realized largest entries, not any planted labels
    rv = RateVector.from_rates(np.array([0.5, 3.0, 1.0]), 1)
    assert list(rv.whale_support) == [1]
    assert rv.n_flows == 3 and rv.l1() == 4.5


def test_gen_rates_all_whales():
    rv = gen_rates(SignalSpec(12, 12, CONST1, MINNOW, seed=5))
    assert np.array_equal(rv.rates, np.ones(12))
    assert sorted(rv.whale_support) == list(range(12))


def test_gen_rates_deterministic():
    spec = SignalSpec(100, 5, CONST1, MINNOW, seed=42)
    a, b = gen_rates(spec), gen_rates(spec)
    assert np.array_equal(a.rates, b.rates)
    c = gen_rates(SignalSpec(100, 5, CONST1, MINNOW, seed=43))
    assert not np.array_equal(a.rates, c.rates)


def test_gen_rates_full_scale():
    rv = gen_rates(SignalSpec(5000, 10, CONST1, MINNOW, seed=11))
    assert int((rv.rates == 1.0).sum()) == 10
    assert rv.whale_support.size == 10
    assert (rv.rates[rv.whale_support] == 1.0).all()
    minnows = np.delete(rv.rates, rv.whale_support)
    assert (minnows < 0.01).all() and (minnows >= 0).all()


def test_sigma_k_monte_carlo():
    # E sigma_k = 4990 * 1e-3 * sqrt(2/pi) ~= 3.98; banded at 5 pct
    vals = []
    for s in range(500):
        rv = gen_rates(SignalSpec(5000, 10, CONST1, MINNOW, seed=9000 + s))
        vals.append(best_k_term(rv.rates, 10).residual_l1)
    expect = 4990 * 1e-3 * np.sqrt(2 / np.pi)
    assert abs(np.mean(vals) - expect) < 0.05 * expect


def test_heavy_tail_params_validation():
    with pytest.raises(ValueError):
        HeavyTailParams(l0=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        HeavyTailParams(l0=1.0, alpha=0.5)


def test_heavy_tail_trivial_cases():
    ok, viol = check_heavy_tail(np.zeros(10), HeavyTailParams(1.0, 2.0))
    assert ok and viol is None
    one_hot = np.zeros(50)
    one_hot[0] = 1.0
    for alpha in (1.0, 2.0, 4.0):
        ok, viol = check_heavy_tail(one_hot, HeavyTailParams(1.0, alpha))
        assert ok and viol is None


def test_heavy_tail_power_law_member():
    alpha, l0 = 1.5, 2.0
    i = np.arange(1, 201, dtype=np.float64)
    lam = i ** -(alpha + 1.0)
    lam *= l0 / lam.sum()
    ok, viol = check_heavy_tail(lam, HeavyTailParams(l0, alpha))
    assert ok, f"first violation at {viol}"


def test_heavy_tail_violations():
    ok, viol = check_heavy_tail(np.array([1.0, 1.0]), HeavyTailParams(1.0, 2.0))
    assert not ok and viol == 0  # budget itself fails
    ok, viol = check_heavy_tail(
        np.array([0.4, 0.3, 0.3]), HeavyTailParams(1.0, 2.0)
    )
    assert not ok and viol == 2  # sigma_2 = 0.3 > 1/4


def _toy_state(seed, n_flows=30, m=10, d=3, k=3, tau=1.0):
    g = build_random_expander(n_flows, m, d, seed=seed)
    rv = gen_rates(SignalSpec(n_flows, k, Dist("constant", 5.0), MINNOW, seed=seed + 1))
    return StreamState(graph=g, rates=rv, tau=tau, seed=seed + 2)


def test_stream_state_validation():
    g = build_random_expander(8, 4, 2, seed=0)
    rv = gen_rates(SignalSpec(9, 1, CONST1, MINNOW, seed=0))
    with pytest.raises(ValueError):
        StreamState(graph=g, rates=rv, tau=1.0, seed=0)
    rv8 = gen_rates(SignalSpec(8, 1, CONST1, MINNOW, seed=0))
    with pytest.raises(ValueError):
        StreamState(graph=g, rates=rv8, tau=0.0, seed=0)


def test_advance_zero_rates():
    g = build_random_expander(20, 8, 2, seed=1)
    rv = RateVector.from_rates(np.zeros(20), 0)
    st = StreamState(graph=g, rates=rv, tau=1.0, seed=3)
    advance_epoch(st)
    assert st.n_epochs == 1
    assert not st.x.any() and not st.y.any()


def test_tiny_rate_epoch_is_quiet():
    # lambda*tau = 1e-9 across 1000 flows: P(any arrival) < 1e-5
    g = build_random_expander(1000, 50, 4, seed=2)
    rv = RateVector.from_rates(np.full(1000, 1e-9), 0)
    st = StreamState(graph=g, rates=rv, tau=1.0, seed=4)
    advance_epoch(st)
    assert not st.x.any()


def test_single_flow_mean_band():
    # CLT band: |mean - 2| <= 3*sqrt(2/10^4) ~= 0.0424
    g = BipartiteGraph(n_left=1, n_right=1, d=1,
                       columns=np.array([[0]], dtype=np.int32), seed=0)
    rv = RateVector.from_rates(np.array([2.0]), 1)
    st = StreamState(graph=g, rates=rv, tau=1.0, seed=77)
    run_epochs(st, 10_000)
    mean = st.x[0] / st.n_epochs
    assert abs(mean - 2.0) <= 3 * np.sqrt(2.0 / 10_000)
    assert st.y[0] == st.x[0]


def test_run_epochs_identity_and_errors():
    st = _toy_state(10)
    x0, y0 = st.x.copy(), st.y.copy()
    run_epochs(st, 0)
    assert st.n_epochs == 0
    assert np.array_equal(st.x, x0) and np.array_equal(st.y, y0)
    with pytest.raises(ValueError):
        run_epochs(st, -1)


def test_epoch_composition_exact():
    a = run_epochs(_toy_state(20), 7)
    b = run_epochs(run_epochs(_toy_state(20), 3), 4)
    assert a.n_epochs == b.n_epochs == 7
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_stream_replay_deterministic():
    a = run_epochs(_toy_state(30), 5)
    b = run_epochs(_toy_state(30), 5)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_counters_consistent_and_monotone():
    st = _toy_state(40)
    prev = st.x.copy()
    for _ in range(20):
        advance_epoch(st)
        assert counters_consistent(st)
        assert (st.x >= prev).all()
        prev = st.x.copy()
    assert st.x.sum() > 0  # whales at rate 5 certainly fired


def _replicate_counts(graph, rates, tau, n_epochs, reps, seed0):
    """Final (x, y) over many independent replications, stacked row-wise."""
    xs = np.empty((reps, graph.n_left), dtype=np.int64)
    ys = np.empty((reps, graph.n_right), dtype=np.int64)
    for r in range(reps):
        st = StreamState(graph=graph, rates=rates, tau=tau, seed=seed0 + r)
        run_epochs(st, n_epochs)
        xs[r], ys[r] = st.x, st.y
    return xs, ys


def _assert_poisson_moments(samples, mu, reps):
    # mean band 3*sqrt(mu/R); variance band 3*sqrt((mu + 2*mu^2)/R)
    mean_tol = 3 * np.sqrt(mu / reps)
    var_tol = 3 * np.sqrt((mu + 2 * mu**2) / reps)
    assert np.all(np.abs(samples.mean(axis=0) - mu) <= mean_tol)
    assert np.all(np.abs(samples.var(axis=0, ddof=1) - mu) <= var_tol)


def test_marginal_law():
    # X_{n,i} ~ Poisson(n*tau*lambda_i), checked by moment matching
    g = BipartiteGraph(n_left=3, n_right=2, d=1,
                       columns=np.array([[0], [1], [0]], dtype=np.int32), seed=0)
    rv = RateVector.from_rates(np.array([0.5, 2.0, 7.0]), 3)
    reps, n, tau = 10_000, 2, 0.5
    xs, _ = _replicate_counts(g, rv, tau, n, reps, seed0=50_000)
    _assert_poisson_moments(xs, n * tau * rv.rates, reps)


def test_aggregation_law():
    # Y_{n,j} ~ Poisson(n*tau*(A lambda)_j) on a 3x5 toy graph
    cols = np.array([[0, 1], [1, 2], [0, 2], [0, 1], [1, 2]], dtype=np.int32)
    g = BipartiteGraph(n_left=5, n_right=3, d=2, columns=cols, seed=0)
    rv = RateVector.from_rates(np.array([0.3, 0.7, 0.2, 1.1, 0.4]), 2)
    mu = 3 * 1.0 * apply_adjacency(g, rv.rates)
    assert np.allclose(mu, [4.8, 7.5, 3.9])
    reps = 10_000
    _, ys = _replicate_counts(g, rv, 1.0, 3, reps, seed0=90_000)
    _assert_poisson_moments(ys, mu, reps)
