"""Signal generation and Poisson stream simulation tests."""

import hashlib
import re
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from flowsketch import stream
from flowsketch.graph import BipartiteGraph

from helpers import (
    HeavyTailParams,
    advance_epoch_poisson,
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
    for tau in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tau"):
            StreamState(graph=g, rates=rv8, tau=tau, seed=0)


def test_stream_state_refuses_a_negative_epoch_count():
    # epoch -1 would draw from Philox key 2^64 - 1
    g = build_random_expander(8, 4, 2, seed=0)
    rv = gen_rates(SignalSpec(8, 1, CONST1, MINNOW, seed=0))
    with pytest.raises(ValueError, match=re.escape(
            "need epochs >= 0 and 0 < tau < inf with epochs*tau < inf, "
            "got epochs=-1, tau=1.0")):
        StreamState(graph=g, rates=rv, tau=1.0, seed=0, n_epochs=-1)


@pytest.mark.parametrize("rate,tau", [(1e300, 1e10), (1.0, 1e308), (1.0, 1e19)])
def test_mean_past_numpy_poisson_limit_is_refused(rate, tau):
    # rates * tau overflows to inf, or is finite but above the largest mean
    # rng.poisson draws: refused at construction, naming tau
    g = build_random_expander(8, 4, 2, seed=0)
    rv = RateVector.from_rates(np.array([rate] + [0.0] * 7), 1)
    with pytest.raises(ValueError, match="tau"):
        StreamState(graph=g, rates=rv, tau=tau, seed=0)


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


def _stream_pair(rates, tau, seed, m=20, d=3):
    """Two identical fresh streams of the given rates over a cheap graph:
    flow i feeds d consecutive counters."""
    start = np.random.default_rng(seed).integers(0, m - d + 1, rates.size)
    g = BipartiteGraph(n_left=rates.size, n_right=m, d=d,
                       columns=start[:, None] + np.arange(d), seed=0)
    rv = RateVector.from_rates(rates, 0)
    return [StreamState(graph=g, rates=rv, tau=tau, seed=seed) for _ in range(2)]


def _advance_both(new, old):
    """advance_epoch on new, the old rng.poisson advance on old: x, y and
    the next uniform of each epoch's generator must agree."""
    made = []
    real = stream._epoch_rng

    def recording(seed, epoch):
        made.append(real(seed, epoch))
        return made[-1]

    with mock.patch.object(stream, "_epoch_rng", recording):
        advance_epoch(new)
    rng = advance_epoch_poisson(old)
    assert np.array_equal(new.x, old.x)
    assert np.array_equal(new.y, old.y)
    assert made[0].random() == rng.random()


# means on both sides of numpy's switch from Knuth's method to PTRS at 10,
# the smallest subnormal, and means so small that exp(-mean) rounds to 1
MEANS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 9.999, float(np.nextafter(10.0, 0.0)), 10.0]),
    st.floats(1e-9, 10.0, exclude_max=True),
    st.floats(10.0, 1e4),
)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 100, 8191, 8192, 8193, 20000]),
    base=st.sampled_from(["silent", "minnows", "mixed"]),
    spikes=st.lists(st.tuples(st.integers(0, 2**31), MEANS), max_size=40),
    tau=st.sampled_from([1.0, 0.7, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
# flow 0 meets the epoch's first uniform U. Here libm's exp(-lam) is one
# ulp below U, and np.exp(-lam) equals U on hosts whose numpy has its own
# SIMD exp: the flow fires, and an unloosened bound np.exp(-lam) misses it
@example(n=100, base="minnows", spikes=[(0, 0.305119833686703)], tau=1.0, seed=180)
# exp(-lam) equals U exactly: a candidate above the bound that draws 0
@example(n=100, base="minnows", spikes=[(0, 1.1921495278485903)], tau=1.0, seed=1)
def test_epoch_draw_matches_poisson_oracle(n, base, spikes, tau, seed):
    # sizes straddle the bulk draw's chunk of 8192 uniforms
    rng = np.random.default_rng(seed)
    if base == "silent":
        rates = np.zeros(n)
    elif base == "minnows":
        rates = np.abs(rng.normal(0.0, 1e-6, n))
    else:  # zeros among rates from 1e-9 to about 16
        rates = 10.0 ** rng.uniform(-9.0, 1.2, n) * (rng.random(n) < 0.8)
    for pos, mean in spikes:
        rates[pos % n] = mean / tau
    new, old = _stream_pair(rates, tau, seed)
    for _ in range(2):
        _advance_both(new, old)


def _replay_bank(name):
    minnows = Dist("abs-gaussian", 1e-6)
    if name == "readme-5k":  # the README's simulate command, 10 whales
        g = build_random_expander(5000, 800, 8, seed=1)
        rv = gen_rates(SignalSpec(5000, 10, CONST1, minnows, seed=2))
        return StreamState(graph=g, rates=rv, tau=1.0, seed=3)
    if name == "100k":
        g = build_random_expander(100_000, 3000, 10, seed=5)
        rv = gen_rates(SignalSpec(100_000, 10, CONST1, minnows, seed=6))
        return StreamState(graph=g, rates=rv, tau=1.0, seed=7)
    # silent flows and means drawn by PTRS, at tau != 1
    g = build_random_expander(2000, 300, 4, seed=8)
    rates = np.random.default_rng(9).choice(
        [0.0, 1e-6, 0.3, 2.0, 9.0, 14.0, 17.5, 250.0, 1e4], size=2000,
        p=[0.3, 0.3, 0.1, 0.1, 0.05, 0.05, 0.05, 0.03, 0.02])
    rv = RateVector.from_rates(rates, 10)
    return StreamState(graph=g, rates=rv, tau=0.7, seed=11)


# sha256 of x then y, as little-endian int64, after 40 epochs; taken from
# the rng.poisson draw, so any change to the stream fails here
REPLAY_PINS = {
    "readme-5k": "757b36c995d10c4e3516906eeacd0f3281a33d4b900da130ab04a44be0ac2dc4",
    "100k": "08f8c5e89e54a3a7297f93602de70ada5eef58724a46e74c9e38ce28a789b9ec",
    "ptrs-and-silent": "dd0cebb48ff081729ee0a25465afae57a6c57cb034ed0a7cca386ca2fe28c34c",
}


@pytest.mark.parametrize("name", sorted(REPLAY_PINS))
def test_stream_replay_pinned(name):
    st_ = run_epochs(_replay_bank(name), 40)
    digest = hashlib.sha256(
        st_.x.astype("<i8").tobytes() + st_.y.astype("<i8").tobytes()).hexdigest()
    assert digest == REPLAY_PINS[name]
