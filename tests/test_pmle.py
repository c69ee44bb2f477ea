"""Penalized-MLE decoder tests: grids, penalties, localization, solvers."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch import (
    KRAFT_CONSTANT,
    CandidateCountError,
    CandidateSet,
    Dist,
    PmleConfig,
    SignalSpec,
    StreamState,
    WhaleLocalization,
    apply_adjacency,
    build_graph_with_cover,
    build_random_expander,
    gen_rates,
    greedy_cover,
    kraft_audit,
    localize_whales,
    neg_log_likelihood,
    penalty,
    pmle_exhaustive,
    pmle_reduced,
    run_epochs,
    sparse_poisson_solve,
)
from flowsketch import pmle as pmle_module
from flowsketch.graph import BipartiteGraph, CoverSet
from flowsketch.seeds import stable_seed

from helpers import argmin_scalar, level_tuples_recursive

CONST1 = Dist("constant", 1.0)
ZERO = Dist("constant", 0.0)


def hexad_graph():
    """6 flows over 4 counters, d=2, all distinct column pairs."""
    cols = np.array(
        [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int32
    )
    return BipartiteGraph(n_left=6, n_right=4, d=2, columns=cols, seed=0)


# ---------------------------------------------------------------- localize


def localize_oracle(y, g, k):
    """Flows whose d counters all rank among the top t = min(kd, M) of y,
    the ranking sorted by descending y with ties to the lowest index."""
    t = min(k * g.d, g.n_right)
    ranked = sorted(range(g.n_right), key=lambda j: (-y[j], j))
    top = set(ranked[:t])
    return [i for i in range(g.n_left) if set(g.columns[i].tolist()) <= top]


def test_localize_zero_counters():
    g = build_random_expander(12, 8, 2, seed=3)
    loc = localize_whales(np.zeros(8), g, 2)
    # ties break to the lowest index: the top counters are {0, 1, 2, 3}
    expect_a1 = [i for i in range(12) if set(g.columns[i]) <= {0, 1, 2, 3}]
    assert list(loc.a1) == expect_a1 == localize_oracle(np.zeros(8), g, 2)


def test_localize_single_flow():
    g = build_random_expander(30, 12, 3, seed=4)
    for i in (0, 7, 29):
        x = np.zeros(30)
        x[i] = 5
        loc = localize_whales(apply_adjacency(g, x), g, 1)
        assert i in loc.a1


def test_localize_matches_oracle():
    g = build_random_expander(40, 16, 4, seed=5)
    rng = np.random.default_rng(6)
    y = rng.poisson(3.0, 16).astype(float)  # Poisson(3) counts tie often
    for k in (1, 2, 3, 4):
        loc = localize_whales(y, g, k)
        assert loc.a1.dtype == np.int64
        assert loc.a1.tolist() == localize_oracle(y, g, k)


def test_localize_kd_over_m_degrades_to_full():
    g = build_random_expander(20, 8, 4, seed=7)
    y = np.arange(8, dtype=float)
    loc = localize_whales(y, g, 3)  # kd = 12 > 8
    assert loc.a1.tolist() == list(range(20)) == localize_oracle(y, g, 3)


def test_localize_validation():
    g = build_random_expander(10, 6, 2, seed=8)
    with pytest.raises(ValueError):
        localize_whales(np.zeros(5), g, 1)
    with pytest.raises(ValueError):
        localize_whales(np.zeros(6), g, 0)


def test_localize_full_scale_margin():
    # reduced-count version of the acceptance run: strengthened margin
    # (min whale / d = 1/8 >= 10 sigma_k per epoch budget) holds at nt=40
    hits_s = hits_size = 0
    for t in range(12):
        ts = stable_seed(505, t)
        g = build_random_expander(5000, 800, 8, stable_seed(ts, "g"))
        truth = gen_rates(SignalSpec(5000, 10, CONST1,
                                     Dist("abs-gaussian", 1e-6),
                                     seed=stable_seed(ts, "s")))
        st = StreamState(graph=g, rates=truth, tau=1.0,
                         seed=stable_seed(ts, "st"))
        run_epochs(st, 40)
        loc = localize_whales(st.y, g, 10)
        hits_s += np.isin(truth.whale_support, loc.a1).all()
        hits_size += loc.a1.size <= 80
    assert hits_s == 12 and hits_size == 12


# ---------------------------------------------------------------- NLL


def test_nll_examples():
    g = hexad_graph()
    # complete 2x2 instance from a sub-graph: use its own complete graph
    g2 = BipartiteGraph(n_left=2, n_right=2, d=2,
                        columns=np.array([[0, 1], [0, 1]], dtype=np.int32),
                        seed=0)
    val = neg_log_likelihood(np.array([1.0, 1.0]), g2, np.array([3.0, 1.0]), 1.0)
    assert abs(val - (4 - 4 * math.log(2))) < 1e-12

    # mu = y is the unconstrained optimum: value sum(y - y ln y)
    theta = np.array([1.5, 1.5])
    y = np.array([3.0, 3.0])
    assert abs(neg_log_likelihood(theta, g2, y, 1.0)
               - 2 * (3 - 3 * math.log(3))) < 1e-12

    assert neg_log_likelihood(np.zeros(6), g, np.zeros(4), 2.0) == 0.0
    # zero mean against observed packets is rejected with +inf
    assert neg_log_likelihood(np.zeros(6), g, np.array([1.0, 0, 0, 0]), 1.0) == math.inf


def test_nll_validation():
    g = hexad_graph()
    with pytest.raises(ValueError):
        neg_log_likelihood(np.zeros(5), g, np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        neg_log_likelihood(-np.ones(6), g, np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        neg_log_likelihood(np.zeros(6), g, np.zeros(4), 0.0)


def test_nll_stationarity():
    # perturbing theta away from mu = y only increases the objective
    g = hexad_graph()
    theta = np.array([2.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    y = 3.0 * apply_adjacency(g, theta)
    base = neg_log_likelihood(theta, g, y, 3.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        pert = np.maximum(theta + rng.normal(0, 0.1, 6), 0.0)
        assert neg_log_likelihood(pert, g, y, 3.0) >= base - 1e-10


# ---------------------------------------------------------------- config


def test_pmle_config_validation():
    cover = greedy_cover(hexad_graph())
    with pytest.raises(ValueError):
        PmleConfig(l0=0.0, k=1, gamma=1.0, delta=1.0, c=0.1, cover=cover)
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=0, gamma=1.0, delta=1.0, c=0.1, cover=cover)
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=1, gamma=1.0, delta=0.9, c=0.1, cover=cover)
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=1, gamma=1.0, delta=1.0, c=1.0, cover=cover)
    cfg = PmleConfig.from_problem(6, 2, 4.0, cover, gamma=0.5, levels=4)
    assert cfg.grid_step == 1.0 and cfg.n_levels == 4
    assert abs(cfg.c - 0.5 / (2 * math.log(3))) < 1e-12
    with pytest.raises(ValueError):
        PmleConfig.from_problem(6, 6, 4.0, cover)  # k = N
    with pytest.raises(ValueError):
        PmleConfig.from_problem(6, 2, 4.0, cover, gamma=4.0)  # c >= 1
    with pytest.raises(ValueError):
        cfg.offset_rates(7)


# ---------------------------------------------------------------- candidates


def test_candidate_count_matches_enumeration():
    cs = CandidateSet(universe=np.arange(5), grid_step=0.5, n_levels=3)
    cands = list(cs.enumerate())
    assert len(cands) == cs.count() == sum(
        math.comb(5, s) * math.comb(3, s) for s in range(4)
    )
    assert len(set(cands)) == len(cands)
    # supports ascend in size and lexicographically within a size
    sizes = [len(supp) for supp, _ in cands]
    assert sizes == sorted(sizes)
    for supp, lv in cands:
        assert len(supp) == len(lv)
        assert all(1 <= m <= 3 for m in lv) and sum(lv) <= 3
        vec = cs.materialize(supp, lv, 5)
        assert vec.sum() <= cs.l0 + 1e-12


@pytest.mark.parametrize("s, budget", [(s, g) for g in range(1, 11)
                                        for s in range(1, g + 1)] + [(3, 64)])
def test_level_tuples_match_recursive_oracle(s, budget):
    got = pmle_module._level_tuples(s, budget)
    assert got.shape == (math.comb(budget, s), s)
    assert [tuple(r) for r in got.tolist()] == list(level_tuples_recursive(s, budget))


def test_level_tuples_cached_read_only():
    first = pmle_module._level_tuples(3, 12)
    assert pmle_module._level_tuples(3, 12) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2


def test_candidate_count_exceeds():
    cs = CandidateSet(universe=np.arange(5), grid_step=0.5, n_levels=3)
    n = cs.count()
    assert cs.count_exceeds(n - 1)
    assert not cs.count_exceeds(n)
    big = CandidateSet(universe=np.arange(5000), grid_step=0.1, n_levels=2048)
    assert big.count_exceeds(10**6)  # early exit, no bigint blowup


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(universe=np.arange(3), grid_step=0.0, n_levels=2)
    with pytest.raises(ValueError):
        CandidateSet(universe=np.arange(3), grid_step=1.0, n_levels=0)
    with pytest.raises(ValueError):
        CandidateSet(universe=np.arange(3), grid_step=1.0, n_levels=2,
                     penalty_mode="huffman")
    with pytest.raises(ValueError):
        CandidateSet(universe=np.arange(3), grid_step=1.0, n_levels=2,
                     penalty_universe_size=2)


# ---------------------------------------------------------------- penalties


def test_uniform_penalty_kraft_exact():
    # |Lambda| = 1 + 99 = 100; every candidate pays ln 100
    cs = CandidateSet(universe=np.array([0]), grid_step=0.25, n_levels=99,
                      penalty_mode="uniform")
    assert cs.count() == 100
    assert cs.pen_of_size(0) == cs.pen_of_size(1) == math.log(100)
    audit = kraft_audit(cs)
    assert audit.exhaustive and audit.ok
    assert math.isclose(audit.total, 1.0, rel_tol=1e-12)


def test_l0_scaled_penalty_values():
    cs = CandidateSet(universe=np.arange(20), grid_step=1.0, n_levels=4)
    assert penalty(np.zeros(20), cs) == KRAFT_CONSTANT
    assert KRAFT_CONSTANT == math.log(math.pi**2 / 6)
    lam = np.zeros(20)
    lam[3], lam[8] = 1.0, 2.0
    want = 2 * (math.log(20) + math.log(5)) + 2 * math.log(3) + KRAFT_CONSTANT
    assert abs(penalty(lam, cs) - want) < 1e-12


def test_penalty_rejects_bad_candidates():
    cs = CandidateSet(universe=np.arange(4), grid_step=0.5, n_levels=4)
    bad_univ = np.zeros(6)
    bad_univ[5] = 0.5
    with pytest.raises(ValueError):
        penalty(bad_univ, cs)
    with pytest.raises(ValueError):
        penalty(np.array([0.3, 0, 0, 0]), cs)  # off grid
    with pytest.raises(ValueError):
        penalty(np.array([1.5, 1.0, 0, 0]), cs)  # level budget exceeded
    with pytest.raises(ValueError):
        penalty(np.array([-0.5, 0, 0, 0]), cs)


def test_kraft_audit_l0_scaled():
    cs = CandidateSet(universe=np.arange(20), grid_step=1.0, n_levels=4,
                      max_support=2)
    brute = kraft_audit(cs, exhaustive_cap=10**5)
    formula = kraft_audit(cs, exhaustive_cap=100)
    assert brute.exhaustive and not formula.exhaustive
    assert brute.ok and formula.ok
    assert abs(brute.total - formula.total) < 1e-9
    # full-scale set stays within the Kraft budget via the closed form
    big = CandidateSet(universe=np.arange(5000), grid_step=1.0, n_levels=64)
    audit = kraft_audit(big)
    assert not audit.exhaustive and audit.ok


# ---------------------------------------------------------------- exhaustive


def _hexad_problem(c=0.0, gamma=0.5):
    g = hexad_graph()
    cover = greedy_cover(g)
    truth = np.array([2.0, 0, 0, 1.0, 0, 0])
    scale = 5.0
    y = scale * apply_adjacency(g, truth)
    if c == 0.0:
        cfg = PmleConfig(l0=4.0, k=2, gamma=gamma, delta=1.0, c=0.0, cover=cover)
    else:
        cfg = PmleConfig.from_problem(6, 2, 4.0, cover, gamma=gamma, levels=4)
    cs = CandidateSet(universe=np.arange(6), grid_step=1.0, n_levels=4,
                      penalty_mode="uniform")
    return g, cfg, cs, truth, y, scale


def test_exhaustive_noiseless_uniform():
    # injective instance: counter 3 is empty so flows 2,4,5 are pinned to
    # zero and the remaining 3x3 system is invertible; argmin is the truth
    g, cfg, cs, truth, y, scale = _hexad_problem(c=0.0)
    res = pmle_exhaustive(y, g, cs, cfg, scale)
    assert res.support == (0, 3) and res.levels == (2, 1)
    assert np.array_equal(res.rates, truth)
    assert res.exhaustive and res.n_evaluated == cs.count()


def test_exhaustive_offset_perturbation():
    # with c > 0 the offset shifts the optimum by at most one grid step
    g, cfg, cs, truth, y, scale = _hexad_problem(c=None or 0.22)
    res = pmle_exhaustive(y, g, cs, cfg, scale)
    assert np.abs(res.rates - truth).max() <= cfg.grid_step + 1e-12


def test_exhaustive_singleton_universe():
    g = hexad_graph()
    cover = greedy_cover(g)
    cfg = PmleConfig(l0=3.0, k=1, gamma=1.0, delta=1.0, c=0.0, cover=cover)
    cs = CandidateSet(universe=np.array([2]), grid_step=1.0, n_levels=3,
                      penalty_mode="uniform")
    truth = np.zeros(6)
    truth[2] = 2.0
    y = 4.0 * apply_adjacency(g, truth)
    res = pmle_exhaustive(y, g, cs, cfg, 4.0)
    assert res.support == (2,) and res.levels == (2,)


def test_exhaustive_guard():
    g = build_random_expander(5000, 800, 8, seed=1)
    cover = greedy_cover(g)
    cfg = PmleConfig.from_problem(5000, 10, 64.0, cover, levels=64)
    cs = CandidateSet(universe=np.arange(5000), grid_step=cfg.grid_step,
                      n_levels=cfg.n_levels)
    with pytest.raises(CandidateCountError):
        pmle_exhaustive(np.zeros(800), g, cs, cfg, 1.0)


def test_scale_equivariance_uniform():
    # integer rescale of (y, scale) preserves the argmin candidate
    g, cfg, cs, truth, y, scale = _hexad_problem(c=0.22)
    base = pmle_exhaustive(y, g, cs, cfg, scale)
    for factor in (2, 3, 7):
        res = pmle_exhaustive(factor * y, g, cs, cfg, factor * scale)
        assert res.support == base.support and res.levels == base.levels


def test_offset_positivity():
    g, cover, _ = build_graph_with_cover(200, 40, 4, seed=12)
    cfg = PmleConfig.from_problem(200, 3, 8.0, cover, levels=16)
    f = cfg.offset_rates(200)  # any candidate only adds to this
    floor = cfg.c * cfg.l0 / g.d
    assert (apply_adjacency(g, f) / g.d >= floor - 1e-12).all()


# ---------------------------------------------------------------- solver


def test_sparse_solve_one_dimensional():
    g = build_random_expander(20, 10, 3, seed=13)
    rng = np.random.default_rng(14)
    for i in (0, 9, 19):
        y = np.zeros(10)
        y[g.columns[i]] = rng.poisson(8.0, 3)
        res = sparse_poisson_solve(y, g, np.array([i]), scale=2.0,
                                   rel_tol=1e-14, max_iter=2000)
        opt = y[g.columns[i]].sum() / (2.0 * 3)
        if opt == 0.0:
            assert res.theta[0] == 0.0
        else:
            assert abs(res.theta[0] - opt) <= 1e-8 * max(1.0, opt)
        assert res.converged


def test_sparse_solve_validation():
    g = build_random_expander(20, 10, 3, seed=13)
    with pytest.raises(ValueError):
        sparse_poisson_solve(np.zeros(10), g, np.array([], dtype=np.int64), 1.0)
    with pytest.raises(ValueError):
        sparse_poisson_solve(np.zeros(10), g, np.array([0]), 0.0)


def test_sparse_solve_infeasible_precheck():
    g = hexad_graph()
    y = np.array([0.0, 0, 0, 5.0])
    # flow 0 touches counters {0,1} only; packets on counter 3 unexplained
    with pytest.raises(ValueError):
        sparse_poisson_solve(y, g, np.array([0]), 1.0)
    # an everywhere-positive base mean restores feasibility
    res = sparse_poisson_solve(y, g, np.array([0]), 1.0,
                               mu_base=np.full(4, 0.5))
    assert res.converged and res.theta[0] == 0.0


def test_sparse_solve_matches_oracle():
    # 10 counters, 6 flows; truth on 3 of them; solver vs scipy and truth
    g = build_random_expander(6, 10, 3, seed=15)
    support = np.array([0, 2, 4])
    theta_true = np.array([3.0, 0.5, 1.25])
    x = np.zeros(6)
    x[support] = theta_true
    scale = 20.0
    y = scale * apply_adjacency(g, x)
    res = sparse_poisson_solve(y, g, support, scale, rel_tol=1e-14,
                               max_iter=5000)
    rel = np.abs(res.theta - theta_true).sum() / theta_true.sum()
    assert rel <= 1e-4

    a_s = g.csr[:, support].toarray()
    pos = y > 0

    def nll(t):
        mu = scale * (a_s @ t)
        return mu.sum() - (y[pos] * np.log(np.maximum(mu[pos], 1e-300))).sum()

    oracle = scipy.optimize.minimize(
        nll, np.ones(3), method="L-BFGS-B",
        bounds=[(0, None)] * 3, options={"ftol": 1e-15, "gtol": 1e-12},
    )
    assert np.abs(res.theta - oracle.x).sum() / theta_true.sum() <= 1e-4


def test_sparse_solve_monotone_trace():
    rng = np.random.default_rng(16)
    for trial in range(100):
        n, m, d = 12, 8, 2
        g = build_random_expander(n, m, d, seed=1000 + trial)
        supp = np.sort(rng.choice(n, size=3, replace=False))
        x = np.zeros(n)
        x[supp] = rng.uniform(0.5, 4.0, 3)
        y = rng.poisson(6.0 * apply_adjacency(g, x)).astype(float)
        base = np.full(m, 1e-3)
        res = sparse_poisson_solve(y, g, supp, 6.0, mu_base=base)
        tr = res.trace
        assert isinstance(tr, tuple) and len(tr) >= 1
        assert all(a >= b - 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


# ---------------------------------------------------------------- reduced


def test_reduced_empty_a1_warns():
    # the zero candidate is scored against the full-universe code length
    # under both penalty modes, and an empty A1 never reaches the
    # continuous solve, even with exhaustive_cap=0
    g = hexad_graph()
    cover = greedy_cover(g)
    cfg = PmleConfig(l0=4.0, k=1, gamma=1.0, delta=1.0, c=0.1, cover=cover)
    loc = WhaleLocalization(a1=np.empty(0, dtype=np.int64))
    y, scale = np.ones(4), 1.0
    for penalty_mode in ("l0-scaled", "uniform"):
        cs_full = CandidateSet(universe=np.arange(g.n_left),
                               grid_step=cfg.grid_step, n_levels=cfg.n_levels,
                               penalty_mode=penalty_mode)
        want = (neg_log_likelihood(cfg.offset_rates(g.n_left), g, y, scale)
                + 2.0 * cs_full.pen_of_size(0))
        for cap in (10**6, 0):
            with pytest.warns(UserWarning):
                res = pmle_reduced(y, g, loc, cfg, scale, exhaustive_cap=cap,
                                   penalty_mode=penalty_mode)
            assert not res.rates.any() and res.support == ()
            assert res.objective == want
            assert res.n_evaluated == 1 and res.exhaustive
            assert res.localization is loc


def test_reduced_path_branch_exact_recovery(small_expander):
    # exhaustive_cap=0 forces the continuous-solve path; grid projection
    # still lands exactly on on-grid whales when localization isolates them
    g = small_expander
    truth = np.zeros(g.n_left)
    truth[11], truth[37] = 3.0, 1.0
    scale = 50.0
    y = scale * apply_adjacency(g, truth)
    loc = localize_whales(y, g, 2)
    assert np.isin([11, 37], loc.a1).all()
    cover = greedy_cover(g)
    # gamma keeps the offset mass c*l0 well under the smallest whale
    cfg = PmleConfig.from_problem(g.n_left, 2, 8.0, cover, gamma=0.1, levels=8)
    res = pmle_reduced(y, g, loc, cfg, scale, exhaustive_cap=0)
    assert not res.exhaustive
    assert np.array_equal(res.rates, truth)
    assert np.isin(np.array(res.support), loc.a1).all()


def test_reduced_penalty_inheritance():
    cs_full = CandidateSet(universe=np.arange(12), grid_step=0.5, n_levels=5)
    cs_sub = CandidateSet(universe=np.array([1, 4, 7]), grid_step=0.5,
                          n_levels=5, penalty_universe_size=12)
    for s in range(4):
        assert cs_sub.pen_of_size(s) == cs_full.pen_of_size(s)


def test_reduced_matches_exhaustive_small():
    # qualifying instances: whales inside A1 and the full argmin inside A1
    qualified = matched = 0
    s = 0
    while qualified < 12 and s < 60:
        ts = stable_seed(707, s)
        s += 1
        g = build_random_expander(12, 8, 3, stable_seed(ts, "g"))
        cover = greedy_cover(g)
        truth = gen_rates(SignalSpec(12, 2, CONST1, ZERO,
                                     seed=stable_seed(ts, "s")))
        st = StreamState(graph=g, rates=truth, tau=1.0,
                         seed=stable_seed(ts, "st"))
        run_epochs(st, 60)
        cfg = PmleConfig.from_problem(12, 2, l0=2.5, cover=cover, levels=5,
                                      c=0.01)
        cs = CandidateSet(universe=np.arange(12), grid_step=cfg.grid_step,
                          n_levels=cfg.n_levels)
        full = pmle_exhaustive(st.y, g, cs, cfg, 60.0)
        loc = localize_whales(st.y, g, 2)
        if not np.isin(truth.whale_support, loc.a1).all():
            continue
        if full.support and not np.isin(np.array(full.support), loc.a1).all():
            continue
        qualified += 1
        red = pmle_reduced(st.y, g, loc, cfg, 60.0)
        if red.support == full.support and red.levels == full.levels:
            matched += 1
        assert not red.support or np.isin(np.array(red.support), loc.a1).all()
    assert qualified == 12 and matched == 12


# ---------------------------------------------------------------- batched scoring


def _scalar_argmin(y, g, cs, mu0, scale, blocks, exhaustive):
    flat = ((supp, tuple(lv)) for supp, levels in blocks for lv in levels.tolist())
    return argmin_scalar(y, g, cs, mu0, scale, flat, exhaustive)


def _outcome(decode):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return decode()
    except ValueError as e:  # the reduced path's infeasibility precheck
        return str(e)


def assert_matches_scalar(decode):
    """decode() gives the argmin, objective and count that scoring each
    candidate on its own gives."""
    got = _outcome(decode)
    with mock.patch.object(pmle_module, "_argmin", _scalar_argmin):
        want = _outcome(decode)
    if isinstance(want, str):
        assert got == want
        return got
    assert got.support == want.support and got.levels == want.levels
    assert got.objective == want.objective
    assert got.n_evaluated == want.n_evaluated
    assert got.exhaustive == want.exhaustive
    assert np.array_equal(got.rates, want.rates)
    return got


def _check_against_scalar(columns, n_right, universe, n_levels, step, scale,
                          y, c, cover_members, penalty_mode):
    columns = np.array(columns, dtype=np.int32)
    g = BipartiteGraph(n_left=len(columns), n_right=n_right,
                       d=columns.shape[1], columns=columns, seed=0)
    indicator = np.zeros(g.n_left, dtype=np.int8)
    indicator[list(cover_members)] = 1
    cover = CoverSet(members=np.array(sorted(cover_members), dtype=np.int64),
                     indicator=indicator)
    cfg = PmleConfig(l0=n_levels * step, k=1, gamma=1.0, delta=step * step,
                     c=c, cover=cover)
    cs = CandidateSet(universe=np.array(sorted(universe), dtype=np.int64),
                      grid_step=step, n_levels=n_levels,
                      penalty_mode=penalty_mode, penalty_universe_size=g.n_left)
    y = np.array(y, dtype=np.float64)
    full = assert_matches_scalar(lambda: pmle_exhaustive(y, g, cs, cfg, scale))
    assert full.n_evaluated == cs.count()
    a1 = cs.universe
    loc = WhaleLocalization(a1=a1)
    assert_matches_scalar(lambda: pmle_reduced(y, g, loc, cfg, scale,
                                               exhaustive_cap=0,
                                               penalty_mode=penalty_mode))
    return full


@st.composite
def scoring_instances(draw):
    """Up to 7 flows over 2-7 counters. Columns come from a pool that may
    be smaller than the flow count, so duplicated columns force exact
    ties; counters may be all zero, and with c=0 a positive counter
    outside every support makes every candidate +inf."""
    n_right = draw(st.integers(2, 7))
    d = draw(st.integers(1, min(3, n_right)))
    column = st.permutations(range(n_right)).map(lambda p: sorted(p[:d]))
    pool = draw(st.lists(column, min_size=1, max_size=4))
    columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    flows = st.integers(0, len(columns) - 1)
    counts = st.lists(st.integers(0, 6), min_size=n_right, max_size=n_right)
    return dict(
        columns=columns, n_right=n_right,
        universe=draw(st.sets(flows, max_size=4)),
        n_levels=draw(st.integers(1, 4)),
        step=draw(st.sampled_from([0.3, 0.5, 1.0, 2.5])),
        scale=draw(st.sampled_from([1.0, 3.0, 7.5, 40.0])),
        y=draw(st.one_of(st.just([0] * n_right), counts)),
        c=draw(st.sampled_from([0.0, 0.05, 0.4])),
        cover_members=draw(st.sets(flows)),
        penalty_mode=draw(st.sampled_from(["l0-scaled", "uniform"])),
    )


@settings(max_examples=300, deadline=None)
@given(scoring_instances())
def test_batched_scoring_matches_scalar_oracle(inst):
    _check_against_scalar(**inst)


_EDGE = dict(columns=[[0, 1], [0, 2], [1, 2], [0, 1]], n_right=4,
             universe={0, 1, 2, 3}, n_levels=3, step=0.5, scale=8.0,
             y=[8, 8, 0, 0], c=0.1, cover_members={1, 2},
             penalty_mode="l0-scaled")


@pytest.mark.parametrize("penalty_mode", ["l0-scaled", "uniform"])
@pytest.mark.parametrize("case, edit", [
    ("duplicated-columns", {}),  # flows 0 and 3 tie exactly
    ("zero-counters", dict(y=[0, 0, 0, 0])),
    ("all-infinite", dict(c=0.0, y=[4, 2, 2, 3])),  # counter 3 unreachable
    ("empty-universe", dict(universe=set())),
])
def test_batched_scoring_edge_cases(case, edit, penalty_mode):
    res = _check_against_scalar(**{**_EDGE, **edit, "penalty_mode": penalty_mode})
    if case == "duplicated-columns":
        assert res.support == (0,)  # not (3,): the first enumerated wins
    if case in ("all-infinite", "empty-universe"):
        assert res.support == ()
    if case == "all-infinite":
        assert res.objective == math.inf


@pytest.mark.parametrize("seed", range(5))
def test_batched_scoring_matches_scalar_oracle_5k(seed):
    # README size with k=3: |A1| = 3 and 47,905 candidates, enumerated
    g, cover, _ = build_graph_with_cover(5000, 800, 8, stable_seed(seed, "g"))
    truth = gen_rates(SignalSpec(5000, 3, CONST1, Dist("abs-gaussian", 1e-6),
                                 seed=stable_seed(seed, "s")))
    st_ = StreamState(graph=g, rates=truth, tau=1.0, seed=stable_seed(seed, "st"))
    run_epochs(st_, 40)
    cfg = PmleConfig.from_problem(5000, 3, l0=1.25 * truth.l1(), cover=cover,
                                  levels=64)
    loc = localize_whales(st_.y, g, 3)
    res = assert_matches_scalar(lambda: pmle_reduced(st_.y, g, loc, cfg, 40.0))
    assert res.exhaustive and res.n_evaluated == 47_905


def test_exhaustive_scoring_memory_is_chunked():
    # |A1| = 4 with 64 levels: 814,385 candidates, 635,376 of them on the
    # one support of size 4. Scored as one array, that block would need
    # over 150 MB per float temporary.
    g = build_random_expander(40, 24, 8, seed=17)
    cover = greedy_cover(g)
    truth = np.zeros(40)
    truth[[3, 30]] = 2.0
    y = 40.0 * apply_adjacency(g, truth)
    cfg = PmleConfig.from_problem(40, 2, 8.0, cover, gamma=0.05, levels=64)
    cs = CandidateSet(universe=np.array([3, 9, 17, 30]), grid_step=cfg.grid_step,
                      n_levels=cfg.n_levels, penalty_universe_size=40)
    tracemalloc.start()
    try:
        res = pmle_exhaustive(y, g, cs, cfg, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_evaluated == cs.count() == 814_385
    assert res.support == (3, 30)
    assert peak < 32 * 2**20
