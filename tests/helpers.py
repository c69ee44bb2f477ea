"""Shared oracles, fixture builders and checks for the test suite.

Everything here is deliberately independent of the package internals:
oracles use dense algebra and plain enumeration so they stay trustworthy
as reference implementations.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from flowsketch import (
    LpSolution,
    BipartiteGraph,
    DecodeSpec,
    GraphConstructionError,
    Observation,
    PmleConfig,
    PmleResult,
    SparseSolveResult,
)
from flowsketch import lp, pmle, stream
from flowsketch.experiment import SCHEMA_VERSION
from flowsketch.lp import NumericalError, basis_pursuit


def observe(g: BipartiteGraph, y, scale: float = 1.0) -> Observation:
    """The observation of counters y over one epoch of length `scale`, so
    that its scale is exactly `scale`."""
    return Observation(g, y, 1, scale)


def save_config(cfg, path) -> None:
    """Write an experiment.ExperimentConfig as the JSON that `sweep
    --config` reads, every block spelled out."""
    with open(path, "w") as f:
        json.dump({"schema_version": SCHEMA_VERSION, **asdict(cfg)}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


def write_vector_csv_rows(path, values) -> None:
    """An index,value CSV written row by row through csv.writer: floats
    by repr, anything else as an int."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "value"])
        for i, v in enumerate(values):
            w.writerow([i, repr(float(v)) if isinstance(v, float) else int(v)])


def read_counters_csv_rows(path, n_counters: int) -> np.ndarray:
    """cli._read_counters_csv as it was, every file read row by row by
    csv.reader: the same rules, and the same words for each refusal."""

    def plain_int(text: str) -> Optional[int]:
        if not (text.isascii() and text.isdigit()):
            return None
        digits = text.lstrip("0") or "0"
        return int(digits) if len(digits) <= 16 else 2**53 + 1

    out = [None] * n_counters
    with open(path, newline="") as f:
        r = csv.reader(f)
        if next(r, None) != ["index", "value"]:
            raise ValueError(f"{path}: expected header index,value")
        for row in r:
            i = plain_int(row[0]) if len(row) >= 2 else None
            if i is None:
                raise ValueError(f"{path}: malformed row {row!r}")
            if i >= n_counters:
                raise ValueError(f"{path}: index {row[0]} out of range")
            if len(row) > 2:
                raise ValueError(
                    f"{path}: index {i} has extra fields {row[2:]!r}; "
                    "expected index,value"
                )
            if out[i] is not None:
                raise ValueError(f"{path}: index {i} repeated")
            v = plain_int(row[1])
            if v is None:
                raise ValueError(
                    f"{path}: index {i} has value {row[1]!r}, "
                    "not a nonnegative integer count"
                )
            if v > 2**53:
                raise ValueError(
                    f"{path}: index {i} has value {row[1]!r}, "
                    "above 2^53, which float64 cannot hold exactly"
                )
            out[i] = v
    if None in out:
        raise ValueError(f"{path}: index {out.index(None)} missing")
    return np.array(out, dtype=np.float64)


def adjacency_csr(g: BipartiteGraph) -> sp.csr_matrix:
    """graph._adjacency as it was, by scipy: the 0/1 adjacency matrix as a
    CSR of int8 ones, shape (n_right, n_left), row j listing the flows
    incident to counter j in increasing order. Its indptr and indices are
    the oracle of the packed-key incidence."""
    n, d = g.n_left, g.d
    indptr = np.arange(0, n * d + 1, d)
    data = np.ones(n * d, dtype=np.int8)
    csc = sp.csc_matrix((data, g.columns.ravel(), indptr), shape=(g.n_right, n))
    return csc.tocsr()


def apply_adjacency(g: BipartiteGraph, x: np.ndarray) -> np.ndarray:
    """Counter contents for flow totals x: y_j = sum of x_i over flows
    incident to counter j. Exact int64 arithmetic for integer x, float64
    otherwise."""
    x = np.asarray(x)
    if x.shape != (g.n_left,):
        raise ValueError(f"x has shape {x.shape}, expected ({g.n_left},)")
    exact = np.issubdtype(x.dtype, np.integer)
    return adjacency_csr(g) @ x.astype(np.int64 if exact else np.float64)


def counters_consistent(state) -> bool:
    """Exact check y == A x of a stream.StreamState."""
    return np.array_equal(state.y, apply_adjacency(state.graph, state.x))


@dataclass(frozen=True)
class HeavyTailParams:
    """Compressibility class: ||rates||_1 <= l0 and the tail after the
    best s-term approximation is at most l0 * s^(-alpha) for every s."""

    l0: float
    alpha: float

    def __post_init__(self):
        if not self.l0 > 0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if not self.alpha >= 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


class HeavyTailCheck(NamedTuple):
    ok: bool
    first_violation: Optional[int]  # 0 = the l1 budget itself; s >= 1 = tail at s


def check_heavy_tail(rates: np.ndarray, params: HeavyTailParams) -> HeavyTailCheck:
    """Test membership in the compressibility class, reporting the first
    failing tail index (0 means the overall l1 budget failed)."""
    r = np.abs(np.asarray(rates, dtype=np.float64))
    total = float(r.sum())
    if total > params.l0:
        return HeavyTailCheck(ok=False, first_violation=0)
    desc = np.sort(r)[::-1]
    tails = total - np.cumsum(desc)  # tails[s-1] = sigma_s
    ks = np.arange(1, r.size + 1, dtype=np.float64)
    bad = np.nonzero(tails > params.l0 * ks**-params.alpha + 1e-12 * params.l0)[0]
    if bad.size:
        return HeavyTailCheck(ok=False, first_violation=int(bad[0]) + 1)
    return HeavyTailCheck(ok=True, first_violation=None)


def offset_rates(cfg, cover: np.ndarray, n_flows: int) -> np.ndarray:
    """The additive rate offset c*l0 of a PmleConfig on the cover flows,
    zero elsewhere."""
    on_cover = np.zeros(n_flows)
    on_cover[cover] = 1.0
    return cfg.c * cfg.l0 * on_cover


def neg_log_likelihood(theta: np.ndarray, g: BipartiteGraph, y: np.ndarray,
                       scale: float) -> float:
    """Poisson negative log likelihood of counters y under rate vector
    theta: sum_j [mu_j - y_j ln mu_j] with mu = scale * A theta, dropping
    the ln(y_j!) constant. A counter with mu_j = 0 contributes 0 when
    y_j = 0 and +inf (candidate rejected) when y_j > 0.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (g.n_left,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({g.n_left},)")
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    y = np.asarray(y, dtype=np.float64)
    return _nll_from_mu(scale * apply_adjacency(g, theta), y)


def grid_config(step: float, levels: int, n_flows: int,
                penalty_mode: str = DecodeSpec.penalty_mode) -> PmleConfig:
    """A PmleConfig over n_flows flows, of no offset, whose grid is `levels`
    levels of `step`: l0 = step*levels, checked to give the step back
    exactly."""
    cfg = PmleConfig(l0=step * levels, k=1, n_levels=levels, c=0.0,
                     n_flows=n_flows, penalty_mode=penalty_mode)
    assert cfg.grid_step == step
    return cfg


def _support_sizes(cfg, universe, max_support: Optional[int] = None) -> range:
    """Support sizes of the candidates of a pmle.PmleConfig in a universe,
    optionally only those of at most max_support flows."""
    smax = min(len(universe), cfg.n_levels)
    return range((smax if max_support is None else min(smax, max_support)) + 1)


def candidate_count(cfg, universe, max_support: Optional[int] = None) -> int:
    """|Lambda| of a pmle.PmleConfig in a universe: C(U,s) supports times
    C(G,s) level tuples, summed over the support sizes s."""
    u, g = len(universe), cfg.n_levels
    return sum(math.comb(u, s) * math.comb(g, s)
               for s in _support_sizes(cfg, universe, max_support))


def enumerate_candidates(cfg, universe, max_support: Optional[int] = None):
    """Every (support, levels) candidate of a pmle.PmleConfig in a universe
    as tuples, in the order of its blocks, optionally only the supports of
    at most max_support flows."""
    for supp, levels in cfg.blocks(universe):
        if max_support is not None and len(supp) > max_support:
            return  # support sizes ascend
        for lv in levels.tolist():
            yield supp, tuple(lv)


def penalty(candidate: np.ndarray, cfg, universe) -> float:
    """Code length of an explicit candidate vector.

    Validates grid membership: support inside the universe, every nonzero
    entry an integer multiple of the step within 1e-9 relative, total
    level budget respected.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    nz = np.nonzero(candidate)[0]
    if not np.isin(nz, universe).all():
        raise ValueError("candidate support lies outside the universe")
    if (candidate[nz] < 0).any():
        raise ValueError("candidate entries must be nonnegative")
    levels = candidate[nz] / cfg.grid_step
    rounded = np.rint(levels)
    if (np.abs(levels - rounded) > 1e-9 * np.maximum(1.0, levels)).any():
        raise ValueError("candidate entry off the grid")
    if (rounded > cfg.n_levels).any() or rounded.sum() > cfg.n_levels:
        raise ValueError("candidate exceeds the l1 budget")
    return cfg.pen_of_size(int(nz.size))


class KraftAudit(NamedTuple):
    total: float  # sum of e^{-pen} over the candidate set
    exhaustive: bool  # True when summed candidate by candidate
    ok: bool  # total <= 1 (tiny float slack)


def kraft_audit(cfg, universe, max_support: Optional[int] = None,
                exhaustive_cap: int = 10**5) -> KraftAudit:
    """Verify the penalty of a pmle.PmleConfig is a valid code length:
    sum e^{-pen} <= 1 over its candidates in a universe with at most
    max_support flows.

    Small sets are summed candidate by candidate; larger ones use the
    exact per-size counts (the penalty depends only on support size, so
    the counting formula is not a bound but the same sum regrouped).
    """
    if candidate_count(cfg, universe, max_support) <= exhaustive_cap:
        total = 0.0
        for supp, _levels in enumerate_candidates(cfg, universe, max_support):
            total += math.exp(-cfg.pen_of_size(len(supp)))
        return KraftAudit(total=total, exhaustive=True, ok=total <= 1.0 + 1e-9)
    g = cfg.n_levels
    u = len(universe)
    total = 0.0
    for s in _support_sizes(cfg, universe, max_support):
        log_count = (
            math.lgamma(u + 1) - math.lgamma(s + 1) - math.lgamma(u - s + 1)
            + math.lgamma(g + 1) - math.lgamma(s + 1) - math.lgamma(g - s + 1)
        )
        total += math.exp(log_count - cfg.pen_of_size(s))
    return KraftAudit(total=total, exhaustive=False, ok=total <= 1.0 + 1e-9)


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
    a = adjacency_csr(g).toarray().astype(np.float64)
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


def advance_epoch_poisson(state) -> np.random.Generator:
    """One epoch of stream.run_epochs as it was before the bulk-uniform
    draw: one rng.poisson over all N means, folded in through a dense
    delta. Returns the epoch's generator, left where the draw left it."""
    rng = stream._epoch_rng(state.seed, state.n_epochs)
    delta = rng.poisson(state.rates.rates * state.tau)
    state.x += delta
    active = np.nonzero(delta)[0]
    if active.size:
        np.add.at(
            state.y,
            state.graph.columns[active].ravel(),
            np.repeat(delta[active], state.graph.d),
        )
    state.n_epochs += 1
    return rng


def sample_columns_resort(rng: np.random.Generator, n: int, m: int,
                          d: int) -> np.ndarray:
    """graph._sample_columns as it was before it re-sorted only redrawn
    rows: every rejection round sorts all n rows, and so does the return.
    The same rng.integers calls in the same order, so the same columns."""
    if d == m:
        return np.tile(np.arange(m, dtype=np.int32), (n, 1))
    if d * (d - 1) >= m:
        out = np.empty((n, d), dtype=np.int32)
        for i in range(n):
            out[i] = np.sort(rng.permutation(m)[:d])
        return out
    cols = rng.integers(0, m, size=(n, d), dtype=np.int64)
    while True:
        s = np.sort(cols, axis=1)
        bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
        if not bad.any():
            break
        cols[bad] = rng.integers(0, m, size=(int(bad.sum()), d), dtype=np.int64)
    return np.sort(cols, axis=1).astype(np.int32)


def save_graph_rows(g: BipartiteGraph, path) -> None:
    """graph.save_graph as it was before it formatted rows in chunks: one
    str() per counter index and one write per row."""
    with open(path, "w") as f:
        f.write(f"{g.n_left} {g.n_right} {g.d} {g.seed}\n")
        for row in g.columns:
            f.write(" ".join(str(int(j)) for j in row) + "\n")


def top_k_indices_argsort(u: np.ndarray, k: int) -> np.ndarray:
    """metrics.top_k_indices by a stable argsort of -|u|: the first k in
    that order, ascending."""
    u = np.asarray(u)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-np.abs(u), kind="stable")
    return np.sort(order[:k])


def local_index_unique(g: BipartiteGraph, flows):
    """The sorted counters that the flows touch, and each of the flows'
    counters numbered by its place among them, by np.unique: the oracle of
    pmle._local_index."""
    return np.unique(g.columns[list(flows)].ravel(), return_inverse=True)


def support_matrix_via_csc(g: BipartiteGraph, support: np.ndarray):
    """A[:, support] as float CSR by slicing a full float CSC copy of the
    adjacency, the construction the sparse Poisson solve used to read."""
    return adjacency_csr(g).astype(np.float64).tocsc()[:, support].tocsr()


def local_products_csr(inv: np.ndarray, n: int, d: int, n_touched: int):
    """(A, A^T) over the n support flows and the n_touched counters they
    touch, by scipy, as pmle.sparse_poisson_solve formed its means and
    gradient before its products were numpy's: a float CSR of the flows'
    rows, inv[i*d:(i+1)*d] numbering flow i's counters, and its transpose
    view. `A @ theta` and `A^T @ r` are the oracles of the solve's
    products."""
    a_t = sp.csr_matrix((np.ones(n * d), inv, np.arange(0, n * d + 1, d)),
                        shape=(n, n_touched))
    return a_t.T, a_t


def sparse_poisson_solve_full(y, g: BipartiteGraph, support, scale: float,
                              mu_base) -> SparseSolveResult:
    """pmle.sparse_poisson_solve over all M counters: the same start point,
    step rule, stop rule and Newton polish, on the n_right-row A[:, support]
    and length-M means, residuals and objective."""
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    y = np.asarray(y, dtype=np.float64)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    a_s = support_matrix_via_csc(g, support)
    covered = np.asarray((a_s @ np.ones(support.size)) > 0)
    feas_bad = (y > 0) & (mu_base <= 0) & ~covered
    if feas_bad.any():
        j = int(np.nonzero(feas_bad)[0][0])
        raise ValueError(
            f"counter {j} has observed packets but no mass reaches it "
            f"from the support or the offset"
        )
    floor = 1e-12
    pos = y > 0
    ypos = y[pos]

    def objective(mu):
        return float(mu.sum() - (ypos * np.log(np.maximum(mu[pos], floor))).sum())

    def gradient(mu):
        r = np.ones(g.n_right)
        r[pos] -= ypos / np.maximum(mu[pos], floor)
        return scale * (a_s.T @ r)

    theta = np.full(support.size, (y.sum() + 1.0) / (scale * g.d * support.size))
    mu = mu_base + scale * (a_s @ theta)
    f = objective(mu)
    trace = [f]
    t = 1.0 / (1.0 + scale * g.d)
    converged = False
    it = 0
    for it in range(1, 501):
        grad = gradient(mu)
        t *= 2.0
        while True:
            cand = np.maximum(theta - t * grad, 0.0)
            delta = cand - theta
            if not delta.any():
                break
            mu_cand = mu_base + scale * (a_s @ cand)
            f_cand = objective(mu_cand)
            if f_cand <= f + grad @ delta + (delta @ delta) / (2.0 * t):
                break
            t *= 0.5
            if t < 1e-18:
                break
        if not delta.any() or t < 1e-18:
            converged = True
            break
        theta, mu = cand, mu_cand
        trace.append(f_cand)
        if abs(f - f_cand) <= 1e-8 * max(1.0, abs(f)):
            converged = True
            break
        f = f_cand
    theta = _newton_polish_full(theta, a_s, y, scale, mu_base, floor)
    f = objective(mu_base + scale * (a_s @ theta))
    return SparseSolveResult(theta=theta, objective=f, iterations=it,
                             converged=converged, trace=tuple(trace))


def _newton_polish_full(theta, a_s, y, scale, mu_base, floor, passes=3):
    """Projected Newton steps on the free coordinates, each kept only if it
    shrinks the sup norm of the projected gradient."""
    pos = y > 0

    def pg_norm(th, grad):
        pg = np.where((th <= 0) & (grad > 0), 0.0, grad)
        return float(np.abs(pg).max(initial=0.0))

    for _ in range(passes):
        mu = mu_base + scale * (a_s @ theta)
        r = np.ones(y.size)
        r[pos] -= y[pos] / np.maximum(mu[pos], floor)
        grad = scale * (a_s.T @ r)
        before = pg_norm(theta, grad)
        if before == 0.0:
            break
        free = np.nonzero((theta > 0) | (grad < 0))[0]
        if free.size == 0:
            break
        w = np.zeros(y.size)
        w[pos] = y[pos] / np.maximum(mu[pos], floor) ** 2
        af = a_s[:, free].toarray()
        h = scale * scale * (af.T * w) @ af
        h[np.diag_indices_from(h)] += 1e-12 * max(h.diagonal().max(), 1.0)
        try:
            step = np.linalg.solve(h, grad[free])
        except np.linalg.LinAlgError:
            break
        cand = theta.copy()
        cand[free] = np.maximum(cand[free] - step, 0.0)
        mu_c = mu_base + scale * (a_s @ cand)
        if (mu_c[pos] <= 0).any():
            break
        r_c = np.ones(y.size)
        r_c[pos] -= y[pos] / np.maximum(mu_c[pos], floor)
        grad_c = scale * (a_s.T @ r_c)
        if pg_norm(cand, grad_c) >= before:
            break
        theta = cand
    return theta


def l0_path_candidates(theta, flows_all, step: float, budget: int,
                       s_max: int) -> list:
    """The l0 path of pmle_reduced as a list of (support, levels), built
    one candidate at a time: for s = 0..s_max the s largest of theta (ties
    to the lower position), grid projected, zero levels dropped, each
    distinct candidate once, at its first place."""
    order = np.argsort(-np.asarray(theta), kind="stable")
    out = []
    for s in range(s_max + 1):
        chosen = np.sort(order[:s])
        m = pmle._grid_project(theta[chosen], step, budget)
        keep = m > 0
        cand = (tuple(int(i) for i in flows_all[chosen][keep]),
                tuple(int(v) for v in m[keep]))
        if cand not in out:
            out.append(cand)
    return out


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


def argmin_scalar(y, g, cfg, mu0, scale, candidates, exhaustive) -> PmleResult:
    """Score each (support, levels) candidate as NLL(candidate + offset) +
    2*pen(candidate) over all counters, one candidate at a time, and keep
    the first minimum."""
    step = cfg.grid_step
    best = None
    n_eval = 0
    for supp, lv in candidates:
        mu = mu0.copy()
        if supp:
            cols = g.columns[list(supp)].ravel()
            np.add.at(mu, cols, np.repeat(scale * step * np.asarray(lv, float), g.d))
        obj = _nll_from_mu(mu, y) + 2.0 * cfg.pen_of_size(len(supp))
        n_eval += 1
        if best is None or obj < best[0]:
            best = (obj, supp, lv)
    obj, supp, lv = best
    return PmleResult(
        rates=cfg.materialize(supp, lv),
        support=supp, levels=lv, objective=obj,
        n_evaluated=n_eval, exhaustive=exhaustive,
    )


def argmin_chunked(obs, cfg, mu0, blocks, exhaustive) -> PmleResult:
    """`pmle._argmin` as it screened before per-flow level tables: each row
    chunk of a block evaluates y*ln(mu) on every counter the block's flows
    touch, as one (rows, |T|) buffer, and candidates within the rounding
    bound of the running minimum are rescored exactly by `pmle._score`."""
    y, g, scale = obs.y, obs.g, obs.scale
    chunk_rows = 1024
    a = scale * cfg.grid_step
    pos = y > 0
    live = pos & (mu0 > 0)
    w = np.zeros_like(mu0)
    w[live] = y[live] * np.log(mu0[live])
    dead = pos & ~live
    n_dead = int(dead.sum())
    mu0_sum, w_sum, w_abs = float(mu0.sum()), float(w.sum()), float(np.abs(w).sum())
    y_sum = float(y.sum())
    pen2 = []
    best = None
    first = None
    best_hi = math.inf
    n_eval = 0

    def candidate(flows, row):
        nz = np.flatnonzero(row)
        return tuple(flows[i] for i in nz), tuple(row[nz].tolist())

    for flows, levels in blocks:
        n_eval += len(levels)
        if first is None:
            first = candidate(flows, levels[0])
        s = len(flows)
        while len(pen2) <= s:
            pen2.append(2.0 * cfg.pen_of_size(len(pen2)))
        pen2_s = np.array(pen2[:s + 1])
        ragged = not levels.all()
        touched, _, inv = pmle._local_index(g, list(flows))
        if dead[touched].sum() < n_dead:
            continue
        inc = np.zeros((s, touched.size))
        inc[np.repeat(np.arange(s), g.d), inv] = 1.0
        keep = pos[touched]
        inc = inc[:, keep]
        y_t, mu0_t = y[touched[keep]], mu0[touched[keep]]
        rest = w_sum - float(w[touched].sum())
        for lo in range(0, len(levels), chunk_rows):
            lv = levels[lo:lo + chunk_rows]
            lvf = lv.astype(np.float64)
            size = np.count_nonzero(lv, axis=1) if ragged else s
            pen2_r = pen2_s[size]
            mass = mu0_sum + (a * g.d) * lvf.sum(axis=1)
            buf = lvf @ inc
            buf *= a
            buf += mu0_t
            bad = (buf <= 0).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(buf, out=buf)
            buf *= y_t
            obj = mass - (rest + buf.sum(axis=1)) + pen2_r
            np.abs(buf, out=buf)
            tol_k = 4.0 * (y.size + size * g.d + 8) * np.finfo(np.float64).eps
            tol = tol_k * (mass + w_abs + buf.sum(axis=1) + y_sum + np.abs(pen2_r))
            obj[bad], tol[bad] = math.inf, 0.0
            best_hi = min(best_hi, float((obj + tol).min()))
            if best_hi == math.inf:
                continue
            for j in np.nonzero(obj - tol <= best_hi)[0]:
                supp, cand = candidate(flows, lv[j])
                exact = pmle._score(obs, cfg, mu0, supp, cand)
                if best is None or exact < best[0]:
                    best = (exact, supp, cand)
    obj, supp, lv = best if best is not None else (math.inf, *first)
    return PmleResult(
        rates=cfg.materialize(supp, lv),
        support=supp, levels=lv, objective=obj,
        n_evaluated=n_eval, exhaustive=exhaustive,
    )


def adjacency_copies(g: BipartiteGraph):
    """A and A^T as basis pursuit used to build them for every solve: a
    float copy of the graph's int8 adjacency, and a CSR copy of its
    transpose."""
    a = adjacency_csr(g).astype(np.float64)
    return a, a.T.tocsr()


def low_rank_gram_sparse(cb: np.ndarray, dinv: np.ndarray) -> np.ndarray:
    """A_B^T D^-1 A_B as lp._preconditioner formed it before it summed the
    shared counters itself: cb holds the counters of each flow of B, and
    the product is scipy's sparse one, made dense."""
    nb, d = cb.shape
    e = sp.csr_matrix((np.ones(cb.size), cb.ravel(), np.arange(0, cb.size + 1, d)),
                      shape=(nb, dinv.size))
    return (e.multiply(dinv) @ e.T).toarray()


def preconditioner_from_columns(a: sp.csr_matrix, cols: np.ndarray,
                                wcol: np.ndarray):
    """lp._preconditioner as it was before it read A_B from A^T and summed
    C itself: the same Woodbury product, with C from the sparse product of
    a fresh CSR built from the columns of the flows in B, factored and
    solved by scipy.linalg's cho_factor and cho_solve."""
    m, d = a.shape[0], cols.shape[1]
    big = wcol > lp._LOW_RANK_RATIO * float(np.median(wcol))
    diag = a @ np.where(big, 0.0, wcol)
    dinv = 1.0 / np.maximum(diag, 1e-12 * float((a @ wcol).max()))
    b = np.flatnonzero(big)
    if b.size == 0:
        return lambda r: dinv * r
    cb = cols[b]
    c = low_rank_gram_sparse(cb, dinv)
    c[np.diag_indices_from(c)] += 1.0 / wcol[b]
    try:
        factor = cho_factor(c, lower=True, check_finite=False)
    except LinAlgError:
        return lambda r: dinv * r
    flat = cb.ravel()

    def pinv(r):
        t = dinv * r
        v = cho_solve(factor, t[cb].sum(axis=1), check_finite=False)
        return t - dinv * np.bincount(flat, weights=np.repeat(v, d), minlength=m)

    return pinv


def max_step_masked(v: np.ndarray, dv: np.ndarray) -> float:
    """lp._max_step as it was: the ratios of the entries with dv < 0 taken
    by a boolean mask."""
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def jacobi_start_preconditioner(a: sp.csr_matrix):
    """The start point's own preconditioner before it became the normal
    equations' at w = 2: the inverse of twice the counter degrees, floored
    at 1e-12 of their maximum."""
    deg2 = 2.0 * np.diff(a.indptr)
    dinv0 = 1.0 / np.maximum(deg2, 1e-12 * float(deg2.max()))
    return lambda r: dinv0 * r


def _chol(h: np.ndarray):
    """Lower Cholesky factor of the symmetric matrix h. A failed attempt
    sets the diagonal of h, in place, to its original values plus a jitter
    that grows 100x per retry."""
    diag = h.diagonal().copy()
    bump = 1e-12 * max(float(diag.max(initial=0.0)), 1.0)
    jitter = 0.0
    for _ in range(8):
        try:
            return cho_factor(h, lower=True)
        except LinAlgError:
            jitter = bump if jitter == 0.0 else jitter * 100.0
            np.fill_diagonal(h, diag + jitter)
    raise NumericalError("normal-equation matrix is numerically singular")


def _solve_ipm_dense(a: sp.csr_matrix, y, tol_feas, tol_obj, iter_cap):
    """lp._solve_ipm with its normal equations formed as a dense M x M
    matrix and factored by Cholesky: the same start point, steps, stop
    rule, certified bound and statuses."""
    m, n = a.shape
    at = a.T.tocsr()
    ones = np.ones(2 * n)

    def gmul(z):
        return a @ (z[:n] - z[n:])

    def gtmul(nu):
        t = at @ nu
        return np.concatenate([t, -t])

    def dual_bound(nu):
        atn = np.abs(at @ nu).max(initial=0.0)
        return float(y @ (nu / max(1.0, atn)))

    def max_step(v, dv):
        neg = dv < 0
        if not neg.any():
            return 1.0
        return min(1.0, float((-v[neg] / dv[neg]).min()))

    t = cho_solve(_chol((2.0 * (a @ a.T)).toarray()), y)
    z_tilde = gtmul(t)
    z_bar = z_tilde + max(-1.5 * float(z_tilde.min(initial=0.0)), 0.0)
    s_bar = ones.copy()
    dot = float(z_bar @ s_bar)
    if dot <= 0.0:
        z, s = ones.copy(), ones.copy()
    else:
        z = z_bar + 0.5 * dot / s_bar.sum()
        s = s_bar + 0.5 * dot / z_bar.sum()
    nu = np.zeros(m)

    trace = []
    status = "iteration-cap"
    diverged = False
    it = 0
    for it in range(iter_cap):
        rp = y - gmul(z)
        rd = ones - gtmul(nu) - s
        u = z[:n] - z[n:]
        feas = float(np.abs(rp).max(initial=0.0))
        obj = float(np.abs(u).sum())
        gap = obj - dual_bound(nu)
        trace.append((it, obj, feas))
        if feas <= tol_feas and gap <= tol_obj:
            status = "optimal"
            break

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = z / s
        wcol = w[:n] + w[n:]
        if not np.isfinite(wcol.sum()):
            diverged = True
            break
        factor = _chol((a.multiply(wcol) @ a.T).toarray())

        def newton(rc):
            rhs = rp + a @ ((w[:n] * rd[:n] - rc[:n] / s[:n])
                            - (w[n:] * rd[n:] - rc[n:] / s[n:]))
            dnu = cho_solve(factor, rhs)
            dz = w * (gtmul(dnu) - rd) + rc / s
            ds = (rc - s * dz) / z
            return dnu, dz, ds

        mu = float(z @ s) / (2 * n)
        dnu_a, dz_a, ds_a = newton(-z * s)
        ap = max_step(z, dz_a)
        ad = max_step(s, ds_a)
        mu_aff = float((z + ap * dz_a) @ (s + ad * ds_a)) / (2 * n)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        dnu, dz, ds = newton(sigma * mu - z * s - dz_a * ds_a)
        ap = 0.999 * max_step(z, dz)
        ad = 0.999 * max_step(s, ds)
        z = z + ap * dz
        s = s + ad * ds
        nu = nu + ad * dnu
    else:
        it += 1

    rp = y - gmul(z)
    u = z[:n] - z[n:]
    feas = float(np.abs(rp).max(initial=0.0))
    obj = float(np.abs(u).sum())
    gap = obj - dual_bound(nu)
    stalled = len(trace) >= 10 and trace[-1][2] > 0.9 * trace[-10][2]
    if status != "optimal" and feas > 1e3 * tol_feas and (diverged or stalled):
        status = "infeasible"
    return LpSolution(
        u=u, objective=obj, primal_feasibility=feas, duality_gap=gap,
        iterations=it, status=status, solver="interior-point", trace=trace,
    )


def basis_pursuit_dense(g: BipartiteGraph, y) -> LpSolution:
    """lp.basis_pursuit with the dense normal-equation interior-point
    method that the matrix-free one replaced, at the tolerances and the
    iteration cap lp reads at the call. The trivial cases (a nonzero
    counter with no flow, y = 0) are lp.basis_pursuit's own."""
    y = np.asarray(y, dtype=np.float64)
    a = adjacency_csr(g).astype(np.float64)
    if y.shape != (g.n_right,) or not np.abs(y).max(initial=0.0) or (
            (np.diff(a.indptr) == 0) & (y != 0)).any():
        return basis_pursuit(observe(g, y))
    return _solve_ipm_dense(a, y, *lp._default_tols(y), lp._IPM_DEFAULT_CAP)
