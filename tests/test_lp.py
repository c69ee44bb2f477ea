"""Basis-pursuit decoder tests."""

import numpy as np
import pytest

from flowsketch import (
    DecodeSpec,
    Dist,
    LpSolution,
    RateVector,
    SignalSpec,
    StreamState,
    apply_adjacency,
    basis_pursuit,
    best_k_term,
    build_random_expander,
    decode,
    direct_estimate,
    gen_rates,
    run_epochs,
)
from flowsketch.graph import BipartiteGraph
from helpers import oracle_2sparse


def test_zero_counters():
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    sol = basis_pursuit(g, np.zeros(2))
    assert sol.status == "optimal"
    assert not sol.u.any() and sol.objective == 0.0


def test_complete_graph_objective():
    # any u with u0+u1 = 8 is feasible; the l1 optimum value is 8
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    y = np.array([8.0, 8.0])
    sol = basis_pursuit(g, y)
    assert sol.status == "optimal"
    assert abs(sol.objective - 8.0) <= 1e-6 * (1 + y.sum())
    assert sol.primal_feasibility <= 1e-6 * (1 + y.max())


def test_input_validation():
    g = BipartiteGraph(n_left=2, n_right=2, d=2,
                       columns=np.array([[0, 1], [0, 1]], dtype=np.int32), seed=0)
    with pytest.raises(ValueError):
        basis_pursuit(g, np.zeros(3))


def test_two_sparse_recovery_matches_oracle(small_expander):
    g = small_expander
    rng = np.random.default_rng(61)
    for _ in range(8):
        x = np.zeros(g.n_left)
        i, j = rng.choice(g.n_left, size=2, replace=False)
        x[i], x[j] = rng.integers(1, 50, size=2)
        y = apply_adjacency(g, x)
        sol = basis_pursuit(g, y, tol_feas=1e-9, tol_obj=1e-9)
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
        sol = basis_pursuit(g, y)
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
    sol = basis_pursuit(g, st.y.astype(np.float64))
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
    sol = decode(g, y, 1, 1.0, DecodeSpec("direct")).result
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
    sol = basis_pursuit(g, np.array([1.0, 1.0, 1.0]))
    assert sol.status == "infeasible"


def test_iteration_cap_status(small_expander):
    g = small_expander
    rng = np.random.default_rng(66)
    x = rng.poisson(3.0, g.n_left).astype(np.float64)
    y = apply_adjacency(g, x)
    sol = basis_pursuit(g, y, iter_cap=1)
    assert sol.status == "iteration-cap"


def test_trace_collection(small_expander):
    g = small_expander
    x = np.zeros(g.n_left)
    x[3], x[17] = 4.0, 11.0
    y = apply_adjacency(g, x)
    sol = basis_pursuit(g, y)
    assert sol.trace and len(sol.trace[0]) == 3
    its = [row[0] for row in sol.trace]
    assert its == sorted(its)


def test_direct_estimate():
    lam = np.array([0.5, 0.0, 2.0])
    sol = LpSolution(u=40.0 * lam, objective=0.0, primal_feasibility=0.0,
                     duality_gap=0.0, iterations=0, status="optimal",
                     solver="trivial")
    assert np.allclose(direct_estimate(sol, 40, 1.0), lam)
    sol.u = np.array([8.0, -3.0, 4.0])
    est = direct_estimate(sol, 2, 1.0)
    assert np.array_equal(est, [4.0, 0.0, 2.0])
    assert np.array_equal(direct_estimate(sol, 4, 1.0), est / 2)
    with pytest.raises(ValueError):
        direct_estimate(sol, 0, 1.0)
    with pytest.raises(ValueError):
        direct_estimate(sol, 2, 0.0)
