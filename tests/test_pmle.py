"""Penalized-MLE decoder tests: grids, penalties, localization, solvers."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsketch import (
    KRAFT_CONSTANT,
    CandidateCountError,
    DecodeSpec,
    Dist,
    PmleConfig,
    SignalSpec,
    StreamState,
    WhaleLocalization,
    build_graph_with_cover,
    build_random_expander,
    gen_rates,
    greedy_cover,
    localize_whales,
    pmle_exhaustive,
    pmle_reduced,
    run_epochs,
    sparse_poisson_solve,
)
from flowsketch import pmle as pmle_module
from flowsketch.graph import BipartiteGraph, _adjacency
from flowsketch.seeds import stable_seed

from helpers import (
    apply_adjacency,
    argmin_chunked,
    argmin_scalar,
    candidate_count,
    enumerate_candidates,
    grid_config,
    kraft_audit,
    l0_path_candidates,
    level_tuples_recursive,
    local_index_unique,
    neg_log_likelihood,
    observe,
    offset_rates,
    penalty,
    sparse_poisson_solve_full,
)
from test_graph import small_graphs

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
    loc = localize_whales(observe(g, np.zeros(8)), 2)
    # ties break to the lowest index: the top counters are {0, 1, 2, 3}
    expect_a1 = [i for i in range(12) if set(g.columns[i]) <= {0, 1, 2, 3}]
    assert list(loc.a1) == expect_a1 == localize_oracle(np.zeros(8), g, 2)


def test_localize_single_flow():
    g = build_random_expander(30, 12, 3, seed=4)
    for i in (0, 7, 29):
        x = np.zeros(30)
        x[i] = 5
        loc = localize_whales(observe(g, apply_adjacency(g, x)), 1)
        assert i in loc.a1


def test_localize_matches_oracle():
    g = build_random_expander(40, 16, 4, seed=5)
    rng = np.random.default_rng(6)
    y = rng.poisson(3.0, 16).astype(float)  # Poisson(3) counts tie often
    for k in (1, 2, 3, 4):
        loc = localize_whales(observe(g, y), k)
        assert loc.a1.dtype == np.int64
        assert loc.a1.tolist() == localize_oracle(y, g, k)


def test_localize_kd_over_m_degrades_to_full():
    g = build_random_expander(20, 8, 4, seed=7)
    y = np.arange(8, dtype=float)
    loc = localize_whales(observe(g, y), 3)  # kd = 12 > 8
    assert loc.a1.tolist() == list(range(20)) == localize_oracle(y, g, 3)


def test_localize_validation():
    g = build_random_expander(10, 6, 2, seed=8)
    with pytest.raises(ValueError):
        localize_whales(observe(g, np.zeros(5)), 1)
    # PmleConfig's rule for k: no bool taken as 1, no fraction
    for k in (0, -1, True, 2.5):
        with pytest.raises(ValueError,
                           match=re.escape(f"k must be an integer >= 1, got {k!r}")):
            localize_whales(observe(g, np.zeros(6)), k)
    # the ranking is by magnitude, so counters must be finite and nonnegative
    for bad in (-1.0, -np.inf, np.nan, np.inf):
        y = np.zeros(6)
        y[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            localize_whales(observe(g, y), 1)


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
        loc = localize_whales(observe(g, st.y), 10)
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
        PmleConfig(l0=0.0, k=1, n_levels=4, c=0.1, n_flows=6)
    for l0, n_levels in [(math.inf, 4), (4.0, 2.5), (4.0, True)]:
        with pytest.raises(ValueError, match="need 0 < l0 < inf and an integer"):
            PmleConfig(l0=l0, k=1, n_levels=n_levels, c=0.1, n_flows=6)
    # l0 passes on its own, but its grid step l0/n_levels underflows to 0,
    # or has no float value at more levels than a float holds
    for l0, n_levels in [(1e-320, 10**6), (4.0, 10**400)]:
        with pytest.raises(ValueError, match="need 0 < grid_step < inf and an integer"):
            PmleConfig(l0=l0, k=1, n_levels=n_levels, c=0.1, n_flows=6)
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            PmleConfig(l0=4.0, k=k, n_levels=4, c=0.1, n_flows=6)
    for n_flows in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_flows must be an integer >= 1"):
            PmleConfig(l0=4.0, k=1, n_levels=4, c=0.1, n_flows=n_flows)
    cfg = PmleConfig(l0=4.0, k=np.int64(2), n_levels=np.int64(4), c=0.1,
                     n_flows=np.int64(6))
    assert cfg.grid_step == 1.0
    with pytest.raises(ValueError, match="unknown penalty mode 'huffman'"):
        PmleConfig(l0=4.0, k=1, n_levels=4, c=0.1, n_flows=6, penalty_mode="huffman")
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=0, n_levels=4, c=0.1, n_flows=6)
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=1, n_levels=0, c=0.1, n_flows=6)
    with pytest.raises(ValueError):
        PmleConfig(l0=4.0, k=1, n_levels=4, c=1.0, n_flows=6)
    cfg = PmleConfig.from_problem(6, 2, 4.0, gamma=0.5, levels=4)
    assert cfg.grid_step == 1.0 and cfg.n_levels == 4 and cfg.n_flows == 6
    assert cfg.penalty_mode == DecodeSpec.penalty_mode
    assert abs(cfg.c - 0.5 / (2 * math.log(3))) < 1e-12
    with pytest.raises(ValueError):
        PmleConfig.from_problem(6, 6, 4.0)  # k = N
    with pytest.raises(ValueError):
        PmleConfig.from_problem(6, 2, 4.0, gamma=4.0)  # c >= 1
    g5 = build_random_expander(5, 4, 2, seed=0)
    # cover flow 5 is not in a 5-flow graph, and -1 would alias flow 4
    for bad in (cover, np.array([-1, 0]), np.array([1, 0])):
        with pytest.raises(ValueError, match="cover must hold sorted, distinct flows"):
            dataclasses.replace(cfg, n_flows=5).offset_means(observe(g5, np.zeros(4)), bad)
    with pytest.raises(ValueError, match="n_flows=6 is not the graph's 5 flows"):
        cfg.offset_means(observe(g5, np.zeros(4)), np.array([0]))


# ---------------------------------------------------------------- candidates


def test_candidate_count_matches_enumeration():
    cfg, universe = grid_config(0.5, 3, 5), np.arange(5)
    cands = list(enumerate_candidates(cfg, universe))
    assert len(cands) == candidate_count(cfg, universe) == cfg.n_candidates(5) == sum(
        math.comb(5, s) * math.comb(3, s) for s in range(4)
    )
    assert len(set(cands)) == len(cands)
    # supports ascend in size and lexicographically within a size
    sizes = [len(supp) for supp, _ in cands]
    assert sizes == sorted(sizes)
    for supp, lv in cands:
        assert len(supp) == len(lv)
        assert all(1 <= m <= 3 for m in lv) and sum(lv) <= 3
        vec = cfg.materialize(supp, lv)
        assert vec.sum() <= cfg.n_levels * cfg.grid_step + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-140, 1e140), st.integers(1, 10**6))
def test_grid_step_is_the_step_that_delta_held(l0, levels):
    # the grid used to be stored as delta = step**2 and read back by sqrt;
    # the square root of a rounded square gives the step back exactly while
    # the square neither underflows nor overflows, as on these steps
    cfg = PmleConfig.from_problem(100, 1, l0, levels=levels)
    assert cfg.n_levels == levels
    assert cfg.grid_step.hex() == math.sqrt((l0 / levels) ** 2).hex()


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
    cfg = grid_config(0.5, 3, 5)
    n = candidate_count(cfg, np.arange(5))
    assert cfg.n_candidates(5, cap=n - 1) > n - 1
    assert cfg.n_candidates(5, cap=n) == n
    cfg.check_exhaustive(5)
    big = grid_config(0.1, 2048, 5000)
    assert big.n_candidates(5000, cap=10**6) > 10**6  # early exit, no bigint blowup
    with pytest.raises(CandidateCountError):
        big.check_exhaustive(5000)


# ---------------------------------------------------------------- penalties


def test_uniform_penalty_kraft_exact():
    # |Lambda| = 1 + 99 = 100; every candidate pays ln 100
    cfg = grid_config(0.25, 99, 1, "uniform")
    assert candidate_count(cfg, np.array([0])) == 100
    assert cfg.pen_of_size(0) == cfg.pen_of_size(1) == math.log(100)
    audit = kraft_audit(cfg, np.array([0]))
    assert audit.exhaustive and audit.ok
    assert math.isclose(audit.total, 1.0, rel_tol=1e-12)


def test_l0_scaled_penalty_values():
    cfg, universe = grid_config(1.0, 4, 20), np.arange(20)
    assert penalty(np.zeros(20), cfg, universe) == KRAFT_CONSTANT
    assert KRAFT_CONSTANT == math.log(math.pi**2 / 6)
    lam = np.zeros(20)
    lam[3], lam[8] = 1.0, 2.0
    want = 2 * (math.log(20) + math.log(5)) + 2 * math.log(3) + KRAFT_CONSTANT
    assert abs(penalty(lam, cfg, universe) - want) < 1e-12


def test_penalty_rejects_bad_candidates():
    cfg, universe = grid_config(0.5, 4, 4), np.arange(4)
    bad_univ = np.zeros(6)
    bad_univ[5] = 0.5
    with pytest.raises(ValueError):
        penalty(bad_univ, cfg, universe)
    with pytest.raises(ValueError):
        penalty(np.array([0.3, 0, 0, 0]), cfg, universe)  # off grid
    with pytest.raises(ValueError):
        penalty(np.array([1.5, 1.0, 0, 0]), cfg, universe)  # level budget exceeded
    with pytest.raises(ValueError):
        penalty(np.array([-0.5, 0, 0, 0]), cfg, universe)


def test_kraft_audit_l0_scaled():
    cfg, universe = grid_config(1.0, 4, 20), np.arange(20)
    brute = kraft_audit(cfg, universe, max_support=2, exhaustive_cap=10**5)
    formula = kraft_audit(cfg, universe, max_support=2, exhaustive_cap=100)
    assert brute.exhaustive and not formula.exhaustive
    assert brute.ok and formula.ok
    assert abs(brute.total - formula.total) < 1e-9
    # full-scale set stays within the Kraft budget via the closed form
    audit = kraft_audit(grid_config(1.0, 64, 5000), np.arange(5000))
    assert not audit.exhaustive and audit.ok


# ---------------------------------------------------------------- exhaustive


def _hexad_problem(c=0.0, gamma=0.5):
    g = hexad_graph()
    cover = greedy_cover(g)
    truth = np.array([2.0, 0, 0, 1.0, 0, 0])
    scale = 5.0
    y = scale * apply_adjacency(g, truth)
    if c == 0.0:
        cfg = PmleConfig(l0=4.0, k=2, n_levels=4, c=0.0, n_flows=6,
                         penalty_mode="uniform")
    else:
        cfg = PmleConfig.from_problem(6, 2, 4.0, gamma=gamma, levels=4,
                                      penalty_mode="uniform")
    return g, cover, cfg, truth, y, scale


def test_exhaustive_noiseless_uniform():
    # injective instance: counter 3 is empty so flows 2,4,5 are pinned to
    # zero and the remaining 3x3 system is invertible; argmin is the truth
    g, cover, cfg, truth, y, scale = _hexad_problem(c=0.0)
    res = pmle_exhaustive(observe(g, y, scale), cfg, np.arange(6), cover)
    assert res.support == (0, 3) and res.levels == (2, 1)
    assert np.array_equal(res.rates, truth)
    assert res.exhaustive and res.n_evaluated == candidate_count(cfg, np.arange(6))


def test_exhaustive_offset_perturbation():
    # with c > 0 the offset shifts the optimum by at most one grid step
    g, cover, cfg, truth, y, scale = _hexad_problem(c=None or 0.22)
    res = pmle_exhaustive(observe(g, y, scale), cfg, np.arange(6), cover)
    assert np.abs(res.rates - truth).max() <= cfg.grid_step + 1e-12


def test_exhaustive_singleton_universe():
    g = hexad_graph()
    cover = greedy_cover(g)
    cfg = PmleConfig(l0=3.0, k=1, n_levels=3, c=0.0, n_flows=6, penalty_mode="uniform")
    truth = np.zeros(6)
    truth[2] = 2.0
    y = 4.0 * apply_adjacency(g, truth)
    res = pmle_exhaustive(observe(g, y, 4.0), cfg, np.array([2]), cover)
    assert res.support == (2,) and res.levels == (2,)


def test_exhaustive_guard():
    g = build_random_expander(5000, 800, 8, seed=1)
    cover = greedy_cover(g)
    cfg = PmleConfig.from_problem(5000, 10, 64.0, levels=64)
    with pytest.raises(CandidateCountError):
        pmle_exhaustive(observe(g, np.zeros(800)), cfg, np.arange(5000), cover)


def test_scale_equivariance_uniform():
    # integer rescale of (y, scale) preserves the argmin candidate
    g, cover, cfg, truth, y, scale = _hexad_problem(c=0.22)
    base = pmle_exhaustive(observe(g, y, scale), cfg, np.arange(6), cover)
    for factor in (2, 3, 7):
        res = pmle_exhaustive(observe(g, factor * y, factor * scale), cfg, np.arange(6),
                              cover)
        assert res.support == base.support and res.levels == base.levels


def test_offset_positivity():
    g, cover, _ = build_graph_with_cover(200, 40, 4, seed=12)
    cfg = PmleConfig.from_problem(200, 3, 8.0, levels=16)
    mu0 = cfg.offset_means(observe(g, np.zeros(40)), cover)  # a candidate only adds
    floor = cfg.c * cfg.l0 / g.d
    assert (mu0 / g.d >= floor - 1e-12).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_offset_means_match_csr_product(data):
    # each counter adds the same term c*l0 once per incident cover flow,
    # the nonzero terms of its csr row, so the bits equal the full product's
    n_right = data.draw(st.integers(1, 12))
    d = data.draw(st.integers(1, n_right))
    column = st.permutations(range(n_right)).map(lambda p: sorted(p[:d]))
    cols = data.draw(st.lists(column, min_size=1, max_size=30))
    g = BipartiteGraph(n_left=len(cols), n_right=n_right, d=d,
                       columns=np.array(cols, dtype=np.int32), seed=0)
    members = sorted(data.draw(st.sets(st.integers(0, g.n_left - 1))))
    step = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]))
    levels = data.draw(st.integers(1, 64))
    cfg = PmleConfig(l0=levels * step, k=1, n_levels=levels,
                     c=data.draw(st.floats(0.0, 0.99)), n_flows=g.n_left)
    cover = np.array(members, dtype=np.int64)
    scale = data.draw(st.sampled_from([0.1, 1.0, 3.0, 40.0]))
    want = scale * apply_adjacency(g, offset_rates(cfg, cover, g.n_left))
    got = cfg.offset_means(observe(g, np.zeros(n_right), scale), cover)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, m, d", [(5000, 800, 8), (20000, 2500, 10)])
def test_offset_means_match_csr_product_greedy_cover(n, m, d):
    g, cover, _ = build_graph_with_cover(n, m, d, stable_seed(n, "offset"))
    cfg = PmleConfig.from_problem(n, 10, 12.5, levels=64)
    for scale in (1.0, 40.0):
        want = scale * apply_adjacency(g, offset_rates(cfg, cover, n))
        got = cfg.offset_means(observe(g, np.zeros(m), scale), cover)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- solver


_DUPLICATED = BipartiteGraph(n_left=4, n_right=5, d=2, seed=0, columns=np.array(
    [[1, 3], [0, 4], [1, 3], [0, 2]], dtype=np.int32))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.lists(st.integers(0, 59), max_size=12))
@example(_DUPLICATED, [])
@example(_DUPLICATED, [0, 2])
@example(_DUPLICATED, [3, 0, 2, 0])
def test_local_index_matches_unique_oracle(g, flows):
    flows = [i % g.n_left for i in flows]
    touched, hit, inv = pmle_module._local_index(g, flows)
    want_touched, want_inv = local_index_unique(g, flows)
    assert touched.tolist() == want_touched.tolist()
    assert inv.tolist() == want_inv.tolist()
    assert np.flatnonzero(hit).tolist() == touched.tolist()


def test_sparse_solve_one_dimensional():
    g = build_random_expander(20, 10, 3, seed=13)
    rng = np.random.default_rng(14)
    for i in (0, 9, 19):
        y = np.zeros(10)
        y[g.columns[i]] = rng.poisson(8.0, 3)
        res = sparse_poisson_solve(observe(g, y, 2.0), np.array([i]), np.zeros(10))
        opt = y[g.columns[i]].sum() / (2.0 * 3)
        if opt == 0.0:
            assert res.theta[0] == 0.0
        else:
            assert abs(res.theta[0] - opt) <= 1e-8 * max(1.0, opt)
        assert res.converged


def test_sparse_solve_validation():
    g = build_random_expander(20, 10, 3, seed=13)
    with pytest.raises(ValueError):
        sparse_poisson_solve(observe(g, np.zeros(10)), np.array([], dtype=np.int64),
                             np.zeros(10))
    with pytest.raises(ValueError, match="need epochs >= 1 and 0 < tau < inf"):
        sparse_poisson_solve(observe(g, np.zeros(10), 0.0), np.array([0]), np.zeros(10))
    # the one counters rule, applied by the observation the solve reads
    for value in (-5.0, np.nan, np.inf):
        y = np.ones(10)
        y[2] = value
        with pytest.raises(ValueError, match=re.escape(
                f"counter 2 is {value}; counters must be finite and nonnegative")):
            sparse_poisson_solve(observe(g, y), np.array([0]), np.zeros(10))
    with pytest.raises(ValueError, match=re.escape("y has shape (9,), expected (10,)")):
        sparse_poisson_solve(observe(g, np.ones(9)), np.array([0]), np.zeros(10))
    # -1 would solve flow 19 under the label -1
    for support in ([-1], [20], [3, 1], [2, 2]):
        with pytest.raises(ValueError, match="support must hold sorted, distinct flows"):
            sparse_poisson_solve(observe(g, np.zeros(10)), np.array(support),
                                 np.zeros(10))


def test_sparse_solve_infeasible_precheck():
    g = hexad_graph()
    y = np.array([0.0, 0, 0, 5.0])
    # flow 0 touches counters {0,1} only; packets on counter 3 unexplained
    with pytest.raises(ValueError):
        sparse_poisson_solve(observe(g, y), np.array([0]), np.zeros(4))
    # an everywhere-positive base mean restores feasibility
    res = sparse_poisson_solve(observe(g, y), np.array([0]),
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
    res = sparse_poisson_solve(observe(g, y, scale), support, np.zeros(10))
    rel = np.abs(res.theta - theta_true).sum() / theta_true.sum()
    assert rel <= 1e-4

    a_s = _adjacency(g)[:, support].toarray()
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
        res = sparse_poisson_solve(observe(g, y, 6.0), supp, mu_base=base)
        tr = res.trace
        assert isinstance(tr, tuple) and len(tr) >= 1
        assert all(a >= b - 1e-9 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


def _assert_same_solve(got, want, y, g, support, scale, mu_base):
    """got within 1e-12 of want: theta relative to its largest entry, the
    objectives relative to their summed term magnitudes; the same
    iterations, convergence flag and trace length."""
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert len(got.trace) == len(want.trace)
    assert (np.abs(got.theta - want.theta).max()
            <= 1e-12 * np.abs(want.theta).max())
    mu = mu_base.copy()
    np.add.at(mu, g.columns[support].ravel(),
              np.repeat(scale * want.theta, g.d))
    mag = 1.0 + mu.sum() + (y * np.abs(np.log(np.maximum(mu, 1e-12)))).sum()
    assert abs(got.objective - want.objective) <= 1e-12 * mag


@st.composite
def solve_problems(draw):
    """A small bank, a support, counters and a base mean: zero, positive,
    or zero on some counters."""
    n_right = draw(st.integers(1, 16))
    g = build_random_expander(draw(st.integers(1, 30)), n_right,
                              draw(st.integers(1, n_right)),
                              draw(st.integers(0, 2**32)))
    support = np.array(sorted(draw(st.sets(st.integers(0, g.n_left - 1),
                                           min_size=1))), dtype=np.int64)
    y = np.array(draw(st.lists(st.integers(0, 300), min_size=n_right,
                               max_size=n_right)), dtype=np.float64)
    scale = draw(st.sampled_from([0.5, 1.0, 6.0, 40.0]))
    mu_base = draw(st.one_of(
        st.just(np.zeros(n_right)),
        st.lists(st.sampled_from([0.0, 1e-3, 0.5, 7.0]), min_size=n_right,
                 max_size=n_right).map(np.array)))
    return y, g, support, scale, mu_base


@settings(max_examples=300, deadline=None)
@given(solve_problems())
def test_sparse_solve_matches_full_counter_oracle(problem):
    # the solve over the touched counters against the same solve over all M
    y, g, support, scale, mu_base = problem
    try:
        want = sparse_poisson_solve_full(y, g, support, scale, mu_base=mu_base)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            sparse_poisson_solve(observe(g, y, scale), support, mu_base=mu_base)
        assert str(got.value) == str(e)
        return
    got = sparse_poisson_solve(observe(g, y, scale), support, mu_base=mu_base)
    _assert_same_solve(got, want, y, g, support, scale, mu_base)


@pytest.mark.parametrize("k", [10, 40, 100])
def test_sparse_solve_matches_full_counter_oracle_5k(k):
    # the solve pmle_reduced runs on A1 at 5k/800/8; at k=100 A1 is every flow
    ts = stable_seed(808, 0)
    g, cover, _ = build_graph_with_cover(5000, 800, 8, stable_seed(ts, "g"))
    rv = gen_rates(SignalSpec(n_flows=5000, k=k, whale_dist=CONST1,
                              minnow_dist=Dist("abs-gaussian", 1e-6),
                              seed=stable_seed(ts, "s")))
    st_ = StreamState(graph=g, rates=rv, tau=1.0, seed=stable_seed(ts, "st"))
    run_epochs(st_, 40)
    cfg = PmleConfig.from_problem(5000, k, l0=1.25 * rv.l1(), levels=64)
    a1 = localize_whales(observe(g, st_.y), k).a1
    mu0 = cfg.offset_means(observe(g, st_.y, 40.0), cover)
    want = sparse_poisson_solve_full(st_.y, g, a1, 40.0, mu_base=mu0)
    got = sparse_poisson_solve(observe(g, st_.y, 40.0), a1, mu_base=mu0)
    _assert_same_solve(got, want, st_.y, g, a1, 40.0, mu0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
       st.sampled_from([0.3, 0.5, 1.0, 2.5]), st.integers(1, 64))
def test_grid_project_keeps_budget(values, step, budget):
    values = np.array(values)
    rounded = np.clip(np.rint(values / step).astype(np.int64), 0, budget)
    m = pmle_module._grid_project(values, step, budget)
    assert ((0 <= m) & (m <= budget) & (m <= rounded)).all()
    assert m.sum() == min(budget, rounded.sum())


def test_grid_project_walks_back_most_over_rounded_first():
    # rounds to (3, 3, 3); two levels over budget, taken off the entries
    # rounded up the most, the first of them on ties
    m = pmle_module._grid_project(np.array([2.6, 2.6, 2.6]), 1.0, 7)
    assert m.tolist() == [2, 2, 3]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0, 1.3, 2.5, 4.9]) | st.floats(0.0, 5.0),
                min_size=1, max_size=12),
       st.sampled_from([0.3, 0.5, 1.0, 2.5]), st.integers(1, 40), st.integers(1, 40))
def test_l0_path_block_matches_candidate_loop(theta, step, budget, s_max):
    # repeated values tie in the ordering; large ones overspend the budget
    theta = np.array(theta)
    s_max = min(s_max, theta.size, budget)
    flows_all = 3 * np.arange(theta.size) + 1
    flows, levels = pmle_module._l0_path(theta, flows_all, step, budget, s_max)
    got = [(tuple(i for i, m in zip(flows, row) if m), tuple(m for m in row if m))
           for row in levels.tolist()]
    assert got == l0_path_candidates(theta, flows_all, step, budget, s_max)


def test_reduced_path_levels_within_budget_below_fitted_mass(small_expander,
                                                              monkeypatch):
    # l0 = 2 under the fitted mass 4: the grid projection walks the path
    # candidates back inside the budget; a guard of 0 forces the solve path
    monkeypatch.setattr(pmle_module, "_EXHAUSTIVE_GUARD", 0)
    g = small_expander
    truth = np.zeros(g.n_left)
    truth[11], truth[37] = 3.0, 1.0
    scale = 50.0
    y = scale * apply_adjacency(g, truth)
    loc = localize_whales(observe(g, y), 2)
    cfg = PmleConfig.from_problem(g.n_left, 2, 2.0, gamma=0.1, levels=4)
    with mock.patch.object(pmle_module, "_grid_project",
                           wraps=pmle_module._grid_project) as proj:
        res = pmle_reduced(observe(g, y, scale), loc, cfg, greedy_cover(g))
    assert not res.exhaustive
    assert any(np.clip(np.rint(v / step), 0, budget).sum() > budget
               for v, step, budget in (c.args for c in proj.call_args_list))
    assert res.support and 0 < sum(res.levels) <= cfg.n_levels
    assert abs(res.rates.sum() - cfg.grid_step * sum(res.levels)) <= 1e-12


# ---------------------------------------------------------------- reduced


def test_reduced_empty_a1_warns():
    # the zero candidate is scored against the full-universe code length
    # under both penalty modes
    g = hexad_graph()
    cover = greedy_cover(g)
    loc = WhaleLocalization(a1=np.empty(0, dtype=np.int64))
    y, scale = np.ones(4), 1.0
    for penalty_mode in ("l0-scaled", "uniform"):
        cfg = PmleConfig(l0=4.0, k=1, n_levels=4, c=0.1, n_flows=g.n_left,
                         penalty_mode=penalty_mode)
        want = (neg_log_likelihood(offset_rates(cfg, cover, g.n_left), g, y, scale)
                + 2.0 * cfg.pen_of_size(0))
        with pytest.warns(UserWarning):
            res = pmle_reduced(observe(g, y, scale), loc, cfg, cover)
        assert not res.rates.any() and res.support == ()
        assert res.objective == want
        assert res.n_evaluated == 1 and res.exhaustive
        assert res.localization is loc


def test_reduced_path_branch_exact_recovery(small_expander, monkeypatch):
    # a guard of 0 forces the continuous-solve path; grid projection still
    # lands exactly on on-grid whales when localization isolates them
    monkeypatch.setattr(pmle_module, "_EXHAUSTIVE_GUARD", 0)
    g = small_expander
    truth = np.zeros(g.n_left)
    truth[11], truth[37] = 3.0, 1.0
    scale = 50.0
    y = scale * apply_adjacency(g, truth)
    loc = localize_whales(observe(g, y), 2)
    assert np.isin([11, 37], loc.a1).all()
    cover = greedy_cover(g)
    # gamma keeps the offset mass c*l0 well under the smallest whale
    cfg = PmleConfig.from_problem(g.n_left, 2, 8.0, gamma=0.1, levels=8)
    res = pmle_reduced(observe(g, y, scale), loc, cfg, cover)
    assert not res.exhaustive
    assert np.array_equal(res.rates, truth)
    assert np.isin(np.array(res.support), loc.a1).all()


def test_reduced_cap_above_the_guard_is_the_guard():
    # 1,929,501 candidates exceed the guard of 10^6: A1 takes the
    # continuous path, where pmle_exhaustive would refuse it
    g = build_random_expander(40, 24, 8, seed=3)
    a1 = np.array([3, 9, 17, 30])
    cfg = PmleConfig.from_problem(g.n_left, 2, 8.0, levels=80)
    assert cfg.n_candidates(a1.size) == 1_929_501
    y = np.full(g.n_right, 2.0)
    res = pmle_reduced(observe(g, y), WhaleLocalization(a1=a1), cfg, greedy_cover(g))
    assert not res.exhaustive


def test_reduced_penalty_inheritance():
    # a universe restricts the supports but keeps the code lengths of all
    # n_flows flows, so a sub-universe holding the full argmin returns it
    # with the same objective bits
    g, cover, cfg, truth, y, scale = _hexad_problem(c=0.0)
    cfg = dataclasses.replace(cfg, penalty_mode="l0-scaled")
    full = pmle_exhaustive(observe(g, y, scale), cfg, np.arange(6), cover)
    sub = pmle_exhaustive(observe(g, y, scale), cfg, np.array(full.support), cover)
    assert full.support and sub.n_evaluated < full.n_evaluated
    assert (sub.support, sub.levels) == (full.support, full.levels)
    assert sub.objective.hex() == full.objective.hex()


@pytest.mark.parametrize("flows, n_flows, message", [
    ([-1], 50, "must hold sorted, distinct flows in \\[0, 50\\)"),
    ([0, 50], 50, "must hold sorted, distinct"),
    ([3, 1], 50, "must hold sorted, distinct"),
    ([2, 2], 50, "must hold sorted, distinct"),
    ([0, 1], 51, "n_flows=51 is not the graph's 50 flows"),
    # flows are integers: no fraction is truncated, no bool taken as 0 or 1
    ([0.0, 2.5], 50, "must hold sorted, distinct"),
    ([False, True], 50, "must hold sorted, distinct"),
], ids=["flow--1", "flow-N", "unsorted", "repeated", "n_flows-not-N", "fractional",
        "bool"])
@pytest.mark.parametrize("caller", ["exhaustive", "reduced", "reduced-path"])
def test_universe_rule_refuses_before_any_work(small_expander, caller, flows,
                                               n_flows, message):
    # a flow of -1 would alias flow N-1, and a flow of N would fail in
    # materialize with an IndexError. A guard of 0 sends A1 to the solve,
    # which holds it to the rule as its support before indexing anything.
    g = small_expander
    cfg = PmleConfig.from_problem(n_flows, 1, 4.0, levels=4)
    y = np.full(g.n_right, 2.0)
    cover = greedy_cover(g)
    guard = 0 if caller == "reduced-path" else pmle_module._EXHAUSTIVE_GUARD
    with mock.patch.object(pmle_module, "_argmin") as argmin, \
            mock.patch.object(pmle_module, "_local_index") as local_index, \
            mock.patch.object(pmle_module, "_EXHAUSTIVE_GUARD", guard), \
            pytest.raises(ValueError, match=message):
        if caller == "exhaustive":
            pmle_exhaustive(observe(g, y), cfg, np.array(flows), cover)
        else:
            pmle_reduced(observe(g, y), WhaleLocalization(a1=np.array(flows)), cfg,
                         cover)
    argmin.assert_not_called()
    local_index.assert_not_called()


def test_flow_rule_takes_integral_floats_and_any_empty_array(small_expander):
    g = small_expander
    flows = pmle_module._check_flows(g, np.array([2.0, 7.0]), "A1")
    assert flows.dtype == np.int64 and flows.tolist() == [2, 7]
    # np.array(()) is float: an empty array of any dtype is the empty set
    for empty in (np.array(()), np.array([], dtype=bool), []):
        flows = pmle_module._check_flows(g, empty, "A1")
        assert flows.dtype == np.int64 and flows.size == 0


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
        cfg = dataclasses.replace(
            PmleConfig.from_problem(12, 2, l0=2.5, levels=5), c=0.01)
        full = pmle_exhaustive(observe(g, st.y, 60.0), cfg, np.arange(12), cover)
        loc = localize_whales(observe(g, st.y), 2)
        if not np.isin(truth.whale_support, loc.a1).all():
            continue
        if full.support and not np.isin(np.array(full.support), loc.a1).all():
            continue
        qualified += 1
        red = pmle_reduced(observe(g, st.y, 60.0), loc, cfg, cover)
        if red.support == full.support and red.levels == full.levels:
            matched += 1
        assert not red.support or np.isin(np.array(red.support), loc.a1).all()
    assert qualified == 12 and matched == 12


# ---------------------------------------------------------------- batched scoring


def _scalar_argmin(obs, cfg, mu0, blocks, exhaustive):
    # a row's candidate is the block's flows with a nonzero level
    flat = ((tuple(i for i, m in zip(flows, lv) if m), tuple(m for m in lv if m))
            for flows, levels in blocks for lv in levels.tolist())
    return argmin_scalar(obs.y, obs.g, cfg, mu0, obs.scale, flat, exhaustive)


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
    cover = np.array(sorted(cover_members), dtype=np.int64)
    cfg = PmleConfig(l0=n_levels * step, k=1, n_levels=n_levels,
                     c=c, n_flows=g.n_left, penalty_mode=penalty_mode)
    a1 = np.array(sorted(universe), dtype=np.int64)
    y = np.array(y, dtype=np.float64)
    obs = observe(g, y, scale)
    full = assert_matches_scalar(lambda: pmle_exhaustive(obs, cfg, a1, cover))
    assert full.n_evaluated == candidate_count(cfg, a1)
    loc = WhaleLocalization(a1=a1)
    with mock.patch.object(pmle_module, "_EXHAUSTIVE_GUARD", 0):  # the solve path
        assert_matches_scalar(lambda: pmle_reduced(obs, loc, cfg, cover))
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


def test_batched_scoring_rounding_tie():
    # Mirror-image flows: flow 1's counters are flow 0's reflected, as are
    # y and the offset, so both candidates have the same objective in exact
    # arithmetic. Summed in different orders, _score puts flow 1 one ulp
    # lower while the batched values put flow 0 lower; a screen without
    # its rounding tolerance never rescores flow 1 and returns flow 0.
    res = _check_against_scalar(
        columns=[[0, 1, 2], [1, 2, 3]], n_right=4, universe={0, 1},
        n_levels=1, step=2.5, scale=1.0, y=[11, 11, 11, 11], c=0.013,
        cover_members={0, 1}, penalty_mode="uniform")
    assert res.support == (1,) and res.levels == (1,)
    assert res.objective.hex() == "0x1.0a3b8258c2ff8p+4"


def test_table_screen_rounding_tie():
    # The same mirror-image tie on disjoint columns, scored through the
    # per-flow level tables: the block has five rows for three levels.
    # _score puts flow 0 lower, the tables flow 1; a screen without its
    # rounding tolerance never rescores flow 0 and returns flow 1.
    g = BipartiteGraph(n_left=2, n_right=6, d=3, seed=0,
                       columns=np.array([[0, 2, 4], [1, 3, 5]], dtype=np.int32))
    cfg = PmleConfig(l0=5.0, k=1, n_levels=2, c=0.013, n_flows=2, penalty_mode="uniform")
    y = np.array([16.0, 6.0, 16.0, 16.0, 6.0, 16.0])
    mu0 = cfg.offset_means(observe(g, y, 3.0), np.array([0, 1]))
    blocks = [((0, 1), np.array([[0, 0], [1, 0], [2, 0], [0, 1], [0, 2]]))]
    got = pmle_module._argmin(observe(g, y, 3.0), cfg, mu0, blocks, exhaustive=False)
    want = _scalar_argmin(observe(g, y, 3.0), cfg, mu0, blocks, exhaustive=False)
    assert got.support == want.support == (0,) and got.levels == want.levels
    assert got.objective.hex() == want.objective.hex() == "0x1.0f47c77b3e838p+3"
    assert got.n_evaluated == want.n_evaluated == 5


@pytest.mark.parametrize("seed", range(5))
def test_batched_scoring_matches_scalar_oracle_5k(seed):
    # README size with k=3: |A1| = 3 and 47,905 candidates, enumerated
    g, cover, _ = build_graph_with_cover(5000, 800, 8, stable_seed(seed, "g"))
    truth = gen_rates(SignalSpec(5000, 3, CONST1, Dist("abs-gaussian", 1e-6),
                                 seed=stable_seed(seed, "s")))
    st_ = StreamState(graph=g, rates=truth, tau=1.0, seed=stable_seed(seed, "st"))
    run_epochs(st_, 40)
    cfg = PmleConfig.from_problem(5000, 3, l0=1.25 * truth.l1(), levels=64)
    loc = localize_whales(observe(g, st_.y), 3)
    obs = observe(g, st_.y, 40.0)
    res = assert_matches_scalar(lambda: pmle_reduced(obs, loc, cfg, cover))
    assert res.exhaustive and res.n_evaluated == 47_905


@st.composite
def screen_instances(draw):
    """Arguments of `pmle._argmin` over a bank of up to 8 flows on 3-10
    counters, with columns from a small pool, so blocks share counters.
    A counter that some flow touches is dead (a positive count, offset
    mean zero). The blocks are every enumeration block of a universe, the
    size-0 block first; the l0 path of drawn values (ragged, scored row
    by row); and drawn ragged rows, enough of them to be scored through
    the per-flow tables."""
    n_right = draw(st.integers(3, 10))
    d = draw(st.integers(1, min(4, n_right)))
    column = st.permutations(range(n_right)).map(lambda p: sorted(p[:d]))
    pool = draw(st.lists(column, min_size=1, max_size=5))
    columns = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))
    g = BipartiteGraph(n_left=len(columns), n_right=n_right, d=d,
                       columns=np.array(columns, dtype=np.int32), seed=0)
    n_levels = draw(st.integers(1, 6))
    step = draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]))
    y = np.array(draw(st.lists(st.integers(0, 8), min_size=n_right,
                               max_size=n_right)), dtype=np.float64)
    mu0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.7, 3.0]),
                                 min_size=n_right, max_size=n_right)))
    dead = draw(st.sampled_from(sorted(set(g.columns.ravel().tolist()))))
    y[dead], mu0[dead] = max(y[dead], 1.0), 0.0
    flows = st.integers(0, g.n_left - 1)
    universe = np.array(sorted(draw(st.sets(flows, min_size=1, max_size=4))))
    penalty_mode = draw(st.sampled_from(["l0-scaled", "uniform"]))
    cfg = grid_config(step, n_levels, g.n_left, penalty_mode)
    blocks = list(cfg.blocks(universe))
    theta = np.array(draw(st.lists(st.floats(0.0, n_levels * step),
                                   min_size=universe.size, max_size=universe.size)))
    blocks.append(pmle_module._l0_path(theta, universe, step, n_levels,
                                       min(universe.size, n_levels)))
    ragged = sorted(draw(st.sets(flows, min_size=1, max_size=3)))
    rows = draw(st.lists(st.lists(st.integers(0, n_levels), min_size=len(ragged),
                                  max_size=len(ragged)),
                         min_size=n_levels + 2, max_size=n_levels + 6))
    blocks.append((tuple(ragged), np.array(rows, dtype=np.int64)))
    scale = draw(st.sampled_from([1.0, 3.0, 40.0]))
    return y, g, cfg, mu0, scale, blocks


@settings(max_examples=300, deadline=None)
@given(screen_instances())
def test_table_screen_matches_chunked_screen(inst):
    # the per-flow level tables give the argmin, objective bits and count
    # of the (rows, |T|) screen they replace
    y, g, cfg, mu0, scale, blocks = inst
    got = pmle_module._argmin(observe(g, y, scale), cfg, mu0, blocks, exhaustive=True)
    want = argmin_chunked(observe(g, y, scale), cfg, mu0, blocks, exhaustive=True)
    assert got.support == want.support and got.levels == want.levels
    assert got.objective.hex() == want.objective.hex()
    assert got.n_evaluated == want.n_evaluated
    assert np.array_equal(got.rates, want.rates)


def test_exhaustive_scoring_memory_is_chunked():
    # |A1| = 4 with 64 levels: 814,385 candidates, 635,376 of them on the
    # one support of size 4. Scored as one array, that block would need
    # over 150 MB per float temporary.
    g = build_random_expander(40, 24, 8, seed=17)
    cover = greedy_cover(g)
    truth = np.zeros(40)
    truth[[3, 30]] = 2.0
    y = 40.0 * apply_adjacency(g, truth)
    cfg = PmleConfig.from_problem(40, 2, 8.0, gamma=0.05, levels=64)
    universe = np.array([3, 9, 17, 30])
    tracemalloc.start()
    try:
        res = pmle_exhaustive(observe(g, y, 40.0), cfg, universe, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_evaluated == candidate_count(cfg, universe) == 814_385
    assert res.support == (3, 30)
    assert peak < 32 * 2**20
