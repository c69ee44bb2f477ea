"""Basis-pursuit decoder tests."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from flowsketch import (
    DecodeSpec,
    Dist,
    LpSolution,
    Observation,
    RateVector,
    SignalSpec,
    StreamState,
    basis_pursuit,
    best_k_term,
    build_random_expander,
    decode,
    direct_estimate,
    gen_rates,
    run_epochs,
)
from flowsketch import lp
from flowsketch.graph import BipartiteGraph, _adjacency
from helpers import (
    adjacency_copies,
    apply_adjacency,
    basis_pursuit_dense,
    jacobi_start_preconditioner,
    low_rank_gram_sparse,
    max_step_masked,
    observe,
    oracle_2sparse,
    preconditioner_from_columns,
)


def test_zero_counters():
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    sol = basis_pursuit(observe(g, np.zeros(2)))
    assert sol.status == "optimal"
    assert not sol.u.any() and sol.objective == 0.0


def test_complete_graph_objective():
    # any u with u0+u1 = 8 is feasible; the l1 optimum value is 8
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    y = np.array([8.0, 8.0])
    sol = basis_pursuit(observe(g, y))
    assert sol.status == "optimal"
    assert abs(sol.objective - 8.0) <= 1e-6 * (1 + y.sum())
    assert sol.primal_feasibility <= 1e-6 * (1 + y.max())


def test_input_validation():
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    # refused by the observation basis pursuit reads, before the interior
    # point runs, which would iterate to its cap on non-finite counters
    # and return a NaN u; a negative counter counts no packets
    with mock.patch.object(lp, "_solve_ipm") as ipm:
        with pytest.raises(ValueError, match=re.escape("y has shape (3,), expected (2,)")):
            basis_pursuit(observe(g, np.zeros(3)))
        for value in (np.nan, np.inf, -np.inf, -5.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"counter 1 is {value}; counters must be finite and nonnegative")):
                basis_pursuit(observe(g, np.array([2.0, value])))
    ipm.assert_not_called()


def test_two_sparse_recovery_matches_oracle(small_expander, monkeypatch):
    monkeypatch.setattr(lp, "_default_tols", lambda y: (1e-9, 1e-9))
    g = small_expander
    rng = np.random.default_rng(61)
    for _ in range(8):
        x = np.zeros(g.n_left)
        i, j = rng.choice(g.n_left, size=2, replace=False)
        x[i], x[j] = rng.integers(1, 50, size=2)
        y = apply_adjacency(g, x)
        sol = basis_pursuit(observe(g, y))
        assert sol.status == "optimal"
        assert np.abs(sol.u - x).sum() <= 1e-4
        ox = oracle_2sparse(g, y)
        assert ox is not None and np.abs(ox - x).sum() <= 1e-8


def test_l1_non_expansion(small_expander):
    # X_n is feasible, so the optimum never exceeds its l1 mass
    g = small_expander
    rng = np.random.default_rng(62)
    for _ in range(5):
        x = rng.poisson(2.0, g.n_left).astype(np.float64)
        y = apply_adjacency(g, x)
        sol = basis_pursuit(observe(g, y))
        tol_obj = 1e-6 * (1 + np.abs(y).sum())
        assert sol.objective <= np.abs(x).sum() + tol_obj


def test_expander_error_bound(plane_expander):
    # on a verified (2, 1/16)-expander:
    # ||u - x||_1 <= 4*sigma_2(x) + (4/d)*||A(u - x)||_1
    g = plane_expander
    rates = gen_rates(SignalSpec(g.n_left, 2, Dist("constant", 3.0),
                                 Dist("abs-gaussian", 0.05), seed=63))
    st = StreamState(graph=g, rates=rates, tau=1.0, seed=64)
    run_epochs(st, 30)
    x = st.x.astype(np.float64)
    sol = basis_pursuit(observe(g, st.y.astype(np.float64)))
    assert sol.status == "optimal"
    resid = np.abs(apply_adjacency(g, sol.u) - apply_adjacency(g, x)).sum()
    bound = 4 * best_k_term(x, 2).residual_l1 + 4 / g.d * resid
    assert np.abs(sol.u - x).sum() <= bound + 1e-6


def test_direct_decode_above_2000_counters_is_certified():
    # 2001 counters: the smallest bank that used to be sent to a second solver
    g = build_random_expander(4000, 2001, 8, seed=65)
    rng = np.random.default_rng(65)
    x = np.zeros(g.n_left)
    x[rng.choice(g.n_left, 3, replace=False)] = (5.0, 9.0, 2.0)
    y = apply_adjacency(g, x)
    sol = decode(Observation(g, y, 1, 1.0), DecodeSpec("direct")).result
    tol_obj = 1e-6 * (1 + np.abs(y).sum())
    tol_feas = 1e-6 * (1 + np.abs(y).max())
    assert sol.solver == "interior-point"
    assert sol.status == "optimal"
    assert sol.primal_feasibility <= tol_feas
    assert sol.duality_gap <= tol_obj
    assert abs(sol.objective - np.abs(x).sum()) <= 2 * tol_obj


def test_infeasible_counters_detected():
    # counter 2 has no incident flow, so any mass there is unexplainable
    cols = np.array([[0], [0], [1], [1]], dtype=np.int32)
    g = BipartiteGraph(n_left=4, n_right=3, d=1, columns=cols, seed=0)
    sol = basis_pursuit(observe(g, np.array([1.0, 1.0, 1.0])))
    assert sol.status == "infeasible"


def test_iteration_cap_status(small_expander, monkeypatch):
    monkeypatch.setattr(lp, "_IPM_DEFAULT_CAP", 1)
    g = small_expander
    rng = np.random.default_rng(66)
    x = rng.poisson(3.0, g.n_left).astype(np.float64)
    y = apply_adjacency(g, x)
    sol = basis_pursuit(observe(g, y))
    assert sol.status == "iteration-cap"


def test_trace_collection(small_expander):
    g = small_expander
    x = np.zeros(g.n_left)
    x[3], x[17] = 4.0, 11.0
    y = apply_adjacency(g, x)
    sol = basis_pursuit(observe(g, y))
    assert sol.trace and len(sol.trace[0]) == 3
    its = [row[0] for row in sol.trace]
    assert its == sorted(its)


def test_direct_estimate():
    g = BipartiteGraph(n_left=3, n_right=2, d=1,
                       columns=np.array([[0], [1], [1]], dtype=np.int32), seed=0)
    y = np.zeros(2)
    lam = np.array([0.5, 0.0, 2.0])
    sol = LpSolution(u=40.0 * lam, objective=0.0, primal_feasibility=0.0,
                     duality_gap=0.0, iterations=0, status="optimal",
                     solver="trivial")
    assert np.allclose(direct_estimate(sol, Observation(g, y, 40, 1.0)), lam)
    sol.u = np.array([8.0, -3.0, 4.0])
    est = direct_estimate(sol, Observation(g, y, 2, 1.0))
    assert np.array_equal(est, [4.0, 0.0, 2.0])
    assert np.array_equal(direct_estimate(sol, Observation(g, y, 4, 1.0)), est / 2)
    assert np.array_equal(direct_estimate(sol, Observation(g, y, 1, 0.5)), 4 * est)
    # the window it divides by is held to the window rule when observed
    for epochs, tau in ((0, 1.0), (2, 0.0), (2, float("nan")), (2, float("inf")),
                        (10**30, 1e300), (10**400, 1.0)):
        with pytest.raises(ValueError, match="need epochs >= 1 and 0 < tau < inf"):
            Observation(g, y, epochs, tau)


@st.composite
def sparse_banks(draw):
    """A bank of at most 60 flows over at most 20 counters, and the
    counters y = A x of a sparse nonnegative integer x."""
    n_right = draw(st.integers(1, 20))
    g = build_random_expander(draw(st.integers(1, 60)), n_right,
                              draw(st.integers(1, n_right)),
                              draw(st.integers(0, 2**32)))
    support = draw(st.sets(st.integers(0, g.n_left - 1), max_size=6))
    x = np.zeros(g.n_left, dtype=np.int64)
    for i in support:
        x[i] = draw(st.integers(1, 50))
    return g, apply_adjacency(g, x)


def tight_tols(y):
    """lp._default_tols a thousand times tighter."""
    return 1e-9 * (1 + y.max()), 1e-9 * (1 + y.sum())


@settings(max_examples=200, deadline=None)
@given(sparse_banks())
def test_basis_pursuit_matches_highs(bank):
    g, y = bank
    a = _adjacency(g).toarray().astype(np.float64)
    ref = scipy.optimize.linprog(np.ones(2 * g.n_left), A_eq=np.hstack([a, -a]),
                                 b_eq=y, bounds=(0, None), method="highs")
    assert ref.status == 0
    # default tolerances certify the gap to 1e-6 * (1 + ||y||_1), up to d
    # times 1e-6 of the optimum: HiGHS's optimum lies in that interval
    sol = basis_pursuit(observe(g, y))
    assert sol.status == "optimal"
    assert sol.objective - sol.duality_gap <= ref.fun * (1 + 1e-9)
    assert abs(sol.objective - ref.fun) <= 1e-6 * (1 + y.sum())
    # tightened tolerances reach the optimum to 1e-6 relative
    with mock.patch.object(lp, "_default_tols", tight_tols):
        sol = basis_pursuit(observe(g, y))
    assert sol.status == "optimal"
    assert abs(sol.objective - ref.fun) <= 1e-6 * max(1.0, ref.fun)


@st.composite
def degenerate_banks(draw):
    """Feasible counters the interior-point method finds hard to move on:
    columns drawn from a small pool so many flows are duplicates, and y
    from a few flows that share one counter, so most counters read 0."""
    n_right = draw(st.integers(2, 20))
    d = draw(st.integers(1, n_right))
    column = st.permutations(range(n_right)).map(lambda p: sorted(p[:d]))
    pool = draw(st.lists(column, min_size=1, max_size=4))
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    g = BipartiteGraph(n_left=len(cols), n_right=n_right, d=d,
                       columns=np.array(cols, dtype=np.int32), seed=0)
    j = draw(st.sampled_from(sorted(set(g.columns.ravel().tolist()))))
    on_j = np.flatnonzero((g.columns == j).any(axis=1))
    x = np.zeros(g.n_left, dtype=np.int64)
    for i in draw(st.lists(st.sampled_from(on_j.tolist()), min_size=1)):
        x[i] += draw(st.integers(1, 10**4))
    return g, apply_adjacency(g, x)


@settings(max_examples=200, deadline=None)
@given(degenerate_banks())
def test_stall_heuristic_spares_feasible_degenerate_counters(bank):
    g, y = bank
    assert basis_pursuit(observe(g, y)).status != "infeasible"


def test_unreachable_counters_are_infeasible():
    # every flow is on both counters, so y must have equal entries; on
    # (1, 2) the residual stalls at 0.5 until a slack reaches zero and the
    # weights overflow, which ends the solve without a warning
    g = BipartiteGraph(n_left=3, n_right=2, d=2, seed=0,
                       columns=np.array([[0, 1]] * 3, dtype=np.int32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = basis_pursuit(observe(g, np.array([1.0, 2.0])))
        assert sol.status == "infeasible" and sol.solver == "interior-point"
        assert sol.primal_feasibility >= 0.5 - 1e-9
        assert basis_pursuit(observe(g, np.array([2.0, 2.0]))).status == "optimal"


# ------------------------------------------------- matrix-free vs dense oracle


def assert_matches_dense(g, y):
    """basis_pursuit and the dense normal-equation oracle reach the same
    status, and optima within the larger of their certified gaps. The
    oracle may stop anywhere within tol_feas of feasible, where its
    objective can sit below the optimum by more than either gap; when the
    optima differ by more, basis_pursuit's optimum must lie within that
    bound of HiGHS's."""
    got = basis_pursuit(observe(g, y))
    want = basis_pursuit_dense(g, y)
    assert got.status == want.status
    if got.status == "optimal":
        bound = max(got.duality_gap, want.duality_gap)
        if abs(got.objective - want.objective) > bound:
            assert abs(got.objective - highs_optimum(g, y)) <= bound
    return got, want


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_banks(), degenerate_banks()))
# the dense oracle stops at residual 2.7e-7 with objective 5.4e-7 below
# the optimum of 52, past both certified gaps
@example((BipartiteGraph(5, 5, 1, np.array([[0], [4], [3], [1], [0]]), seed=14),
          np.array([10, 40, 0, 1, 1])))
def test_matrix_free_matches_dense_oracle(bank):
    g, y = bank
    assert_matches_dense(g, y)


def highs_optimum(g, y):
    """HiGHS's optimum of the bank's basis pursuit, read from its dual
    max y.nu subject to -1 <= A^T nu <= 1: the same value by strong
    duality, and at 5k/800/8 about five times faster than the split
    primal."""
    at = sp.csr_matrix(_adjacency(g).T.astype(np.float64))
    ref = scipy.optimize.linprog(-y, A_ub=sp.vstack([at, -at]),
                                 b_ub=np.ones(2 * g.n_left), bounds=(None, None),
                                 method="highs")
    assert ref.status == 0
    return -ref.fun


@pytest.mark.parametrize("k", [3, 10])
def test_matrix_free_matches_dense_oracle_5k(k):
    g = build_random_expander(5000, 800, 8, seed=67)
    for seed in range(5):
        rates = gen_rates(SignalSpec(5000, k, Dist("constant", 1.0),
                                     Dist("abs-gaussian", 1e-6), seed=seed))
        st_ = StreamState(graph=g, rates=rates, tau=1.0, seed=100 + seed)
        run_epochs(st_, 40)
        y = st_.y.astype(np.float64)
        got, want = assert_matches_dense(g, y)
        assert got.status == "optimal"
        assert got.iterations == want.iterations
        assert np.abs(got.u - want.u).max() <= 1e-6
        # HiGHS's optimum lies in each solve's certified interval
        opt = highs_optimum(g, y)
        for sol in (got, want):
            assert sol.objective - sol.duality_gap <= opt * (1 + 1e-9)
            assert abs(sol.objective - opt) <= sol.duality_gap


# ------------------------------------- operators on A^T vs the copies they replace


def solver_at(g):
    """The A^T that basis_pursuit hands its interior-point method."""
    seen = []
    with mock.patch.object(lp, "_solve_ipm", lambda at, *rest: seen.append(at)):
        basis_pursuit(observe(g, apply_adjacency(g, np.ones(g.n_left))))
    return seen[0]


def assert_operators_match_copies(g, rng):
    """A x, A^T v, the normal product, the start point's and an iteration's
    preconditioner applied to r: bit for bit what the float copies of
    `csr`, the preconditioner built from columns and the Jacobi start
    gave."""
    at = solver_at(g)
    a = at.T
    a_old, at_old = adjacency_copies(g)
    n, m = g.n_left, g.n_right
    x, v, r = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m)
    assert (a @ x).tobytes() == (a_old @ x).tobytes()
    assert (at @ v).tobytes() == (at_old @ v).tobytes()
    two = np.full(n, 2.0)
    assert (a @ (two * (at @ v))).tobytes() == (2.0 * (a_old @ (at_old @ v))).tobytes()
    got = lp._preconditioner(a, at, two)(r)
    assert got.tobytes() == jacobi_start_preconditioner(a_old)(r).tobytes()
    wcol = rng.uniform(0.5, 2.0, n)
    big = rng.choice(n, size=rng.integers(0, n // 4 + 1), replace=False)
    wcol[big] *= 10.0 ** rng.uniform(3.5, 8.0, big.size)
    assert (a @ (wcol * (at @ v))).tobytes() == \
        (a_old @ (wcol * (at_old @ v))).tobytes()
    got = lp._preconditioner(a, at, wcol)(r)
    want = preconditioner_from_columns(a_old, g.columns, wcol)(r)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_banks(), degenerate_banks()), st.integers(0, 2**32 - 1))
def test_operators_match_replaced_copies(bank, seed):
    assert_operators_match_copies(bank[0], np.random.default_rng(seed))


def test_operators_match_replaced_copies_5k():
    g = build_random_expander(5000, 800, 8, seed=67)
    for seed in range(3):
        assert_operators_match_copies(g, np.random.default_rng(seed))


def test_exact_normal_matvec_regression_44x15(monkeypatch):
    # a bank on which adding even 1e-12 max(A diag(w) 1) to the normal
    # product H v, to regularize CG, loses feasibility at these tolerances
    # (the run ends "infeasible" or at the iteration cap); with H v exact
    # it is optimal in under ten iterations
    g = build_random_expander(44, 15, 10, 4241244824)
    x = np.zeros(g.n_left, dtype=np.int64)
    x[[27, 41, 42, 29, 33]] = (34, 17, 8, 7, 1)
    y = apply_adjacency(g, x)
    a = _adjacency(g).toarray().astype(np.float64)
    ref = scipy.optimize.linprog(np.ones(2 * g.n_left), A_eq=np.hstack([a, -a]),
                                 b_eq=y, bounds=(0, None), method="highs")
    monkeypatch.setattr(lp, "_default_tols", tight_tols)
    sol = basis_pursuit(observe(g, y))
    assert sol.status == "optimal" and sol.iterations <= 50
    assert abs(sol.objective - ref.fun) <= 1e-6 * max(1.0, ref.fun)


@pytest.mark.parametrize("n_big", [0, 1, 3, 30, 300])
def test_low_rank_part_matches_the_sparse_product(n_big):
    # C = A_B^T D^-1 A_B from the shared counters, bit for bit scipy's
    # sparse product, and P^-1 r bit for bit the cho_factor/cho_solve one
    g = build_random_expander(5000, 800, 8, seed=67)
    at = solver_at(g)
    a = at.T
    rng = np.random.default_rng(n_big)
    wcol = rng.uniform(0.5, 2.0, g.n_left)
    big = rng.choice(g.n_left, size=n_big, replace=False)
    wcol[big] *= 10.0 ** rng.uniform(3.5, 8.0, n_big)
    dinv = rng.uniform(0.01, 1.0, g.n_right)
    cb = g.columns[np.sort(big)]
    assert lp._gram(cb, dinv).tobytes() == low_rank_gram_sparse(cb, dinv).tobytes()
    a_old, _ = adjacency_copies(g)
    r = rng.normal(size=g.n_right)
    got = lp._preconditioner(a, at, wcol)(r)
    assert got.tobytes() == preconditioner_from_columns(a_old, g.columns, wcol)(r).tobytes()


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308, -1e-308])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.floats(min_value=0.0), st.just(np.nan)),
             min_size=n, max_size=n),
    st.lists(st.one_of(st.floats(), _SPECIAL), min_size=n, max_size=n))))
@example(([1.0, 2.0], [np.nan, -1.0]))
@example(([np.nan, 2.0], [-1.0, -4.0]))
@example(([np.inf, 1.0], [-np.inf, -0.0]))
@example(([0.0, 3.0], [-0.0, -np.inf]))
def test_max_step_matches_the_masked_ratio(vectors):
    # v holds the slacks z or s, which the interior point keeps positive,
    # so never -0.0. A -0.0 in v can make a ratio of -0.0 tie one of +0.0,
    # and which of the two a numpy min returns depends on its reduction
    # order, in either form
    v, dv = (np.array(x, dtype=np.float64) for x in vectors)
    with np.errstate(all="ignore"):
        want = max_step_masked(v, dv)
    got = lp._max_step(v, dv)
    assert got.hex() == want.hex()


def test_woodbury_factor_failure_falls_back_to_diagonal(small_expander):
    # the |B| x |B| factor of the preconditioner has a diagonal floor and
    # does not fail in practice; if it did, PCG runs on the diagonal alone
    g = small_expander
    x = np.zeros(g.n_left)
    x[3], x[17] = 4.0, 11.0
    y = apply_adjacency(g, x)
    want = basis_pursuit(observe(g, y))
    calls = []

    def fail(c, **kwargs):
        calls.append(c.shape)
        return c, 1  # LAPACK's info > 0: a leading minor is not positive

    with mock.patch("scipy.linalg.lapack.dpotrf", fail):
        got = basis_pursuit(observe(g, y))
    assert calls
    assert got.status == want.status == "optimal"
    assert abs(got.objective - want.objective) <= max(got.duality_gap,
                                                      want.duality_gap)
