"""Shared oracles and fixture builders for the test suite.

Everything here is deliberately independent of the package internals:
oracles use dense algebra and plain enumeration so they stay trustworthy
as reference implementations.
"""

import math
from itertools import combinations

import numpy as np

from flowsketch import BipartiteGraph, GraphConstructionError, PmleResult


def affine_plane_graph() -> BipartiteGraph:
    """Point-line incidence of the affine plane of order 11.

    132 lines (left nodes) over 121 points (right nodes), 11 points per
    line, and two distinct lines share at most one point. Pairwise
    neighborhood unions therefore have >= 21 = (1 - 1/16) * 22 points,
    which makes the graph a verified (2, 1/16)-expander.
    """
    q = 11
    cols = []
    for m in range(q):
        for b in range(q):
            cols.append(sorted(x * q + (m * x + b) % q for x in range(q)))
    for c in range(q):
        cols.append(sorted(c * q + y for y in range(q)))
    columns = np.array(cols, dtype=np.int32)
    return BipartiteGraph(n_left=q * q + q, n_right=q * q, d=q,
                          columns=columns, seed=0)


def oracle_2sparse(g: BipartiteGraph, y: np.ndarray):
    """Brute-force support enumeration for 2-sparse nonnegative recovery.

    Tries every pair of flows, solves the 2-unknown least-squares system
    through the Gram matrix, keeps exact fits with nonnegative
    coefficients, and returns the one of minimum l1 norm (None if no pair
    fits). Vectorized over pairs; near-singular pairs fall back to lstsq.
    """
    a = g.csr.toarray().astype(np.float64)
    n = g.n_left
    gram = a.T @ a
    b = a.T @ y
    yy = float(y @ y)
    idx = np.array(list(combinations(range(n), 2)))
    i, j = idx[:, 0], idx[:, 1]
    gii, gjj, gij = gram[i, i], gram[j, j], gram[i, j]
    det = gii * gjj - gij * gij
    safe = det > 1e-9 * np.maximum(gii * gjj, 1.0)
    ti = np.where(safe, (gjj * b[i] - gij * b[j]) / np.where(safe, det, 1.0), 0.0)
    tj = np.where(safe, (gii * b[j] - gij * b[i]) / np.where(safe, det, 1.0), 0.0)
    # ||y - A_S t||^2 expanded through the Gram matrix; roundoff can push
    # it slightly negative
    res2 = yy - 2.0 * (ti * b[i] + tj * b[j]) + (
        ti * ti * gii + 2.0 * ti * tj * gij + tj * tj * gjj
    )
    best = None
    scale = max(yy, 1.0)
    for p in range(idx.shape[0]):
        if safe[p]:
            if res2[p] > 1e-10 * scale:
                continue
            t = np.array([ti[p], tj[p]])
        else:
            cols = a[:, idx[p]]
            t, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if np.abs(cols @ t - y).max() > 1e-6 * max(1.0, np.abs(y).max()):
                continue
        if (t < -1e-9).any():
            continue
        t = np.maximum(t, 0.0)
        l1 = float(t.sum())
        if best is None or l1 < best[0] - 1e-12:
            best = (l1, idx[p], t)
    if best is None:
        return None
    out = np.zeros(n)
    out[best[1]] = best[2]
    return out


def brute_best_k(u: np.ndarray, k: int) -> float:
    """Minimum l1 residual over every way of keeping k coordinates."""
    n = u.size
    if k >= n:
        return 0.0
    total = float(np.abs(u).sum())
    best = total
    for keep in combinations(range(n), k):
        best = min(best, total - float(np.abs(u[list(keep)]).sum()))
    return best


def brute_expansion_ratio(g: BipartiteGraph, k: int) -> float:
    """Worst |N(S)| / (d |S|) over all left subsets of size <= k."""
    worst = 1.0
    for s in range(1, k + 1):
        for subset in combinations(range(g.n_left), s):
            nbrs = np.unique(g.columns[list(subset)])
            worst = min(worst, nbrs.size / (g.d * s))
    return worst


def greedy_cover_rescan(g: BipartiteGraph) -> np.ndarray:
    """Sorted members of the greedy cover, recomputing every flow's gain
    over all N*d entries on each pick; ties go to the lowest flow index."""
    if np.bincount(g.columns.ravel(), minlength=g.n_right).min() == 0:
        raise GraphConstructionError("a counter has no incident flow")
    uncovered = np.ones(g.n_right, dtype=bool)
    members = []
    while uncovered.any():
        gains = uncovered[g.columns].sum(axis=1)
        pick = int(np.argmax(gains))
        members.append(pick)
        uncovered[g.columns[pick]] = False
    return np.array(sorted(members), dtype=np.int64)


def support_matrix_via_csc(g: BipartiteGraph, support: np.ndarray):
    """A[:, support] as float CSR by slicing a full float CSC copy of the
    adjacency, the construction the sparse Poisson solve used to read."""
    return g.csr.astype(np.float64).tocsc()[:, support].tocsr()


def level_tuples_recursive(s: int, budget: int):
    """Tuples of s integer levels in [1, budget] with sum <= budget,
    lexicographic, built one prefix at a time."""

    def rec(prefix: tuple, slots: int, remaining: int):
        if slots == 0:
            yield prefix
            return
        for m in range(1, remaining - (slots - 1) + 1):
            yield from rec(prefix + (m,), slots - 1, remaining - m)

    yield from rec((), s, budget)


def _nll_from_mu(mu: np.ndarray, y: np.ndarray) -> float:
    pos = y > 0
    if (mu[pos] <= 0).any():
        return math.inf
    return float(mu.sum() - (y[pos] * np.log(mu[pos])).sum())


def argmin_scalar(y, g, cs, mu0, scale, candidates, exhaustive) -> PmleResult:
    """Score each (support, levels) candidate as NLL(candidate + offset) +
    2*pen(candidate) over all counters, one candidate at a time, and keep
    the first minimum."""
    step = cs.grid_step
    best = None
    n_eval = 0
    for supp, lv in candidates:
        mu = mu0.copy()
        if supp:
            cols = g.columns[list(supp)].ravel()
            np.add.at(mu, cols, np.repeat(scale * step * np.asarray(lv, float), g.d))
        obj = _nll_from_mu(mu, y) + 2.0 * cs.pen_of_size(len(supp))
        n_eval += 1
        if best is None or obj < best[0]:
            best = (obj, supp, lv)
    obj, supp, lv = best
    return PmleResult(
        rates=cs.materialize(supp, lv, g.n_left),
        support=supp, levels=lv, objective=obj,
        n_evaluated=n_eval, exhaustive=exhaustive,
    )
