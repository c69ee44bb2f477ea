"""Penalized maximum-likelihood decoding with whale localization.

The estimator searches a quantized grid of candidate rate vectors for the
minimizer of NLL(candidate + offset) + 2*penalty(candidate), where the
offset c*L0 on a covering set of flows keeps every counter's Poisson mean
strictly positive, and the penalty is a code length satisfying Kraft's
inequality. Localization first shrinks the allowed support from all N
flows to the set A1 whose counters are all among the kd largest, which
provably contains the whales when they dominate.

Candidates live in rate units: a candidate lam contributes
mu = scale * A @ lam to the counter means, scale = n_epochs * tau. This
is the normalized-matrix convention with theta = n*tau*d*lam folded in;
estimates are returned as rates directly, no trailing division. The
offset's own means mu0 = scale * A @ (c*L0 on the cover) come from
`PmleConfig.offset_means`, which sums over the cover flows alone.
Every function here reads y, the bank and scale from one
`decoders.Observation`, so none checks the counters or the window.

Candidates are scored in blocks, as arrays over the few counters a
block's flows touch: all level tuples of one support at a time when
enumerating, and the whole l0 path of the reduced decoder as one block
whose rows hold zero levels off each candidate's support. In a large
block, the counters that one flow alone touches are read from per-flow
tables over the levels, so a row costs one lookup per flow. Near-ties of
the batched values are rescored exactly, candidate by candidate, so the
argmin, its objective and the tie-break (the candidate enumerated first)
are those of scoring every candidate on its own.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .decoders import PENALTY_MODES, DecodeSpec, Observation
from .graph import BipartiteGraph, is_integer
from .metrics import top_k_indices

__all__ = [
    "KRAFT_CONSTANT",
    "CandidateCountError",
    "PmleConfig",
    "PmleResult",
    "SparseSolveResult",
    "WhaleLocalization",
    "localize_whales",
    "pmle_exhaustive",
    "pmle_reduced",
    "sparse_poisson_solve",
]

# Additive code-length constant. The per-size budget (1+s)^-2 sums to
# pi^2/6 over s >= 0, so without this shift the zero candidate alone
# already spends the whole Kraft budget.
KRAFT_CONSTANT = math.log(math.pi**2 / 6.0)

_EXHAUSTIVE_GUARD = 10**6
_MU_FLOOR = 1e-12
# iteration cap and relative objective change that stop the first-order
# phase of sparse_poisson_solve
_SOLVE_MAX_ITER = 500
_SOLVE_REL_TOL = 1e-8


class CandidateCountError(ValueError):
    """Raised when an enumeration would exceed the exhaustive guard."""


def _check_flows(g: BipartiteGraph, flows, what: str,
                 cfg: Optional["PmleConfig"] = None) -> np.ndarray:
    """flows as an int64 array; ValueError unless they are sorted, distinct
    integers (not bools) in [0, N), and, given cfg, unless cfg.n_flows is
    g's N. An empty array of any dtype, np.array(()) too, is the empty set."""
    if cfg is not None and cfg.n_flows != g.n_left:
        raise ValueError(f"n_flows={cfg.n_flows} is not the graph's {g.n_left} flows")
    flows = np.asarray(flows)
    if flows.ndim != 1 or (flows.size and (
            flows.dtype.kind not in "iuf"
            or (flows.dtype.kind == "f" and (flows != np.floor(flows)).any())
            or flows[0] < 0 or flows[-1] >= g.n_left or (flows[1:] <= flows[:-1]).any())):
        raise ValueError(f"{what} must hold sorted, distinct flows in [0, {g.n_left})")
    return flows.astype(np.int64, copy=False)


def _check_count(name: str, v) -> None:
    """The rule for a whale or flow count: an integer (not a bool) >= 1."""
    if not (is_integer(v) and v >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class PmleConfig:
    """The penalized-MLE objective: every setting, each held to its rule
    here so a decode refuses before any work, and its candidate set Lambda.

    Lambda holds the rate vectors over n_flows flows whose nonzero entries
    are m*grid_step for integer levels 1 <= m <= n_levels summing to at
    most n_levels (so ||lam||_1 <= l0), grid_step = l0/n_levels (the
    paper's delta is grid_step**2). penalty_mode picks their Kraft code
    lengths (`pen_of_size`). A universe, the sorted flows a search may use,
    restricts the supports but keeps the code lengths of all n_flows flows,
    so restricted (A1) and unrestricted searches minimize the same
    objective. Lambda is never materialized: `blocks` enumerates it and
    `n_candidates` counts it. c scales the offset c*l0 on the cover flows.
    """

    l0: float
    k: int
    n_levels: int
    c: float
    n_flows: int
    penalty_mode: str = DecodeSpec.penalty_mode

    def __post_init__(self):
        if self.penalty_mode not in PENALTY_MODES:
            raise ValueError(f"unknown penalty mode {self.penalty_mode!r}")
        n = self.n_levels
        for name in ("l0", "grid_step"):  # the grid rule; l0 first
            try:
                size = getattr(self, name)
            except OverflowError:  # l0 or n_levels past the float range
                size = math.nan
            if not (0 < size < math.inf and is_integer(n) and n >= 1):
                raise ValueError(f"need 0 < {name} < inf and an integer n_levels >= 1, "
                                 f"got {name}={size}, n_levels={n!r}")
        for name in ("k", "n_flows"):
            _check_count(name, getattr(self, name))
        if not (0 <= self.c < 1):
            raise ValueError(f"offset coefficient c must be in [0,1), got {self.c}")

    @classmethod
    def from_problem(
        cls,
        n_flows: int,
        k: int,
        l0: float,
        gamma: float = DecodeSpec.gamma,
        levels: int = DecodeSpec.levels,
        penalty_mode: str = DecodeSpec.penalty_mode,
    ) -> "PmleConfig":
        """Derive c = gamma/(k*ln(N/k)) and the grid from a level count."""
        if not 1 <= k < n_flows:
            raise ValueError(f"need 1 <= k < n_flows, got k={k}, N={n_flows}")
        c = gamma / (k * math.log(n_flows / k))
        if not 0 < c < 1:  # so gamma must be positive
            raise ValueError(f"derived c = gamma/(k*ln(N/k)) = {c:.4g} outside (0,1)")
        return cls(l0=l0, k=k, n_levels=levels, c=c, n_flows=n_flows,
                   penalty_mode=penalty_mode)

    @property
    def grid_step(self) -> float:
        return self.l0 / self.n_levels

    def offset_means(self, obs: Observation, cover: np.ndarray) -> np.ndarray:
        """Counter means of the offset alone: scale * A @ (c*l0 on the cover
        flows). Each counter adds c*l0 once per incident cover flow, the
        nonzero terms of its row of that product, so the bits agree."""
        g = obs.g
        cover = _check_flows(g, cover, "cover", self)
        mu = np.zeros(g.n_right)
        np.add.at(mu, g.columns[cover].ravel(), self.c * self.l0)
        return obs.scale * mu

    def n_candidates(self, universe_size: int, cap: Optional[int] = None) -> int:
        """|Lambda| over a universe of U flows: sum_s C(U,s)*C(G,s),
        supports times level tuples, stopping once past cap, so a count far
        too large to enumerate costs only its first few terms. A tuple of s
        levels in [1,G] summing to at most G is fixed by its prefix sums, s
        distinct values in [1,G]: C(G,s) of them."""
        g = self.n_levels
        total = 0
        for s in range(min(universe_size, g) + 1):
            total += math.comb(universe_size, s) * math.comb(g, s)
            if cap is not None and total > cap:
                break
        return total

    def check_exhaustive(self, universe_size: int) -> None:
        """The exhaustive guard: CandidateCountError when a universe of
        that many flows has more than 10^6 candidates to enumerate."""
        if self.n_candidates(universe_size, _EXHAUSTIVE_GUARD) > _EXHAUSTIVE_GUARD:
            raise CandidateCountError(
                f"candidate count exceeds the exhaustive guard "
                f"{_EXHAUSTIVE_GUARD}; use pmle_reduced"
            )

    @functools.cached_property
    def _penalty_count(self) -> int:
        return self.n_candidates(self.n_flows)

    def pen_of_size(self, s: int) -> float:
        """Code length of any candidate with s nonzero entries."""
        if s < 0:
            raise ValueError("support size cannot be negative")
        if self.penalty_mode == "uniform":
            return math.log(self._penalty_count)
        return (
            s * (math.log(self.n_flows) + math.log(1 + self.n_levels))
            + 2.0 * math.log(1 + s)
            + KRAFT_CONSTANT
        )

    def blocks(self, universe) -> Iterator[tuple[tuple, np.ndarray]]:
        """Yield (support, levels) blocks over the universe's flows, one per
        support: support size ascending, supports in lexicographic order,
        and levels an int array of shape (C(G,s), s) holding every level
        tuple of that support in lexicographic order. Supports of one size
        share one read-only levels array."""
        universe = [int(i) for i in universe]
        for s in range(min(len(universe), self.n_levels) + 1):
            levels = _level_tuples(s, self.n_levels)
            for supp in combinations(universe, s):
                yield supp, levels

    def materialize(self, support: tuple, levels: tuple) -> np.ndarray:
        out = np.zeros(self.n_flows, dtype=np.float64)
        if support:
            out[list(support)] = np.asarray(levels, float) * self.grid_step
        return out


@functools.lru_cache(maxsize=16)
def _level_tuples(s: int, budget: int) -> np.ndarray:
    """Every tuple of s integer levels in [1, budget] with sum <= budget,
    lexicographic, as a read-only array of shape (C(budget,s), s) in the
    smallest unsigned integer type that holds budget. Cached: read-only,
    a function of (s, budget) alone, and under the exhaustive guard each
    has at most 10^6 rows.

    The prefix sums of such a tuple are s increasing values in
    [1, budget], and lexicographic order of the tuples is that of their
    prefix sums, so the rows are the differences of
    combinations(range(1, budget+1), s).
    """
    n = math.comb(budget, s)
    out = np.fromiter(chain.from_iterable(combinations(range(1, budget + 1), s)),
                      dtype=np.min_scalar_type(budget), count=n * s).reshape(n, s)
    for j in range(s - 1, 0, -1):
        out[:, j] -= out[:, j - 1]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WhaleLocalization:
    """Output of the counter-sorting pass: a1 holds, sorted, the flows
    whose every counter ranks among the (up to) kd largest."""

    a1: np.ndarray


def localize_whales(obs: Observation, k: int) -> WhaleLocalization:
    """The flows whose counters all rank among the kd largest, the
    `top_k_indices` of y, so ties break toward the lowest index. When
    kd >= M every counter is large and a1 is all flows (the reduction
    degrades gracefully to the full search). O(M + N d). k follows
    PmleConfig's rule: an integer >= 1, else ValueError. top_k_indices
    ranks by magnitude, which the counters rule makes y's order.
    """
    _check_count("k", k)
    g = obs.g
    big = np.zeros(g.n_right, dtype=bool)
    big[top_k_indices(obs.y, min(k * g.d, g.n_right))] = True
    a1 = np.nonzero(big[g.columns].all(axis=1))[0].astype(np.int64)
    return WhaleLocalization(a1=a1)


def _nll_from_mu(mu: np.ndarray, y: np.ndarray) -> float:
    pos = y > 0
    if (mu[pos] <= 0).any():
        return math.inf
    return float(mu.sum() - (y[pos] * np.log(mu[pos])).sum())


@dataclass
class PmleResult:
    rates: np.ndarray  # chosen candidate, rate units, length n_flows
    support: tuple  # flow indices of the nonzero entries
    levels: tuple  # grid levels aligned with support
    objective: float  # NLL(candidate + offset) + 2*pen(candidate)
    n_evaluated: int
    exhaustive: bool
    localization: Optional[WhaleLocalization] = None


def pmle_exhaustive(
    obs: Observation,
    cfg: PmleConfig,
    universe: np.ndarray,
    cover: np.ndarray,
) -> PmleResult:
    """Exact penalized-MLE argmin of cfg by full enumeration of its
    candidates supported in the universe, sorted distinct flows of obs.g,
    with the offset of cfg on the cover flows.

    Guarded: refuses more than 10^6 candidates (`cfg.check_exhaustive`).
    Scoring is batched: all level tuples of one support are scored as one
    array, and candidates within rounding error of the minimum are
    rescored exactly, so ties still go to the candidate enumerated first.
    """
    universe = _check_flows(obs.g, universe, "universe", cfg)
    cfg.check_exhaustive(universe.size)
    mu0 = cfg.offset_means(obs, cover)
    return _argmin(obs, cfg, mu0, cfg.blocks(universe), exhaustive=True)


# A block is scored in row chunks whose per-row arrays hold at most this
# many floats, however many level tuples the block has.
_CHUNK_FLOATS = 2**18


def _argmin(
    obs: Observation,
    cfg: PmleConfig,
    mu0: np.ndarray,
    blocks: Iterable[tuple[tuple, np.ndarray]],
    exhaustive: bool,
) -> PmleResult:
    """First minimizer, in enumeration order, of NLL(candidate + offset) +
    2*pen(candidate) over (flows, levels) blocks, mu0 being the offset's
    counter means. Each row of a block's levels array is one candidate:
    the flows whose level in that row is nonzero, at those levels.

    A candidate changes mu0 only on the counters T the block's flows
    touch, so its objective is sum(mu0) minus the y*ln(mu) terms of the
    untouched counters (summed once per call), plus scale*step*d*level
    for each flow, minus the terms of T, plus the penalty. A positive
    counter left at mean zero has the term -inf, which makes the
    objective +inf.

    A counter of T is private when exactly one flow of the block touches
    it, and shared when two or more do. A private counter's term depends
    on that flow's level alone. So a block with more rows than there are
    levels 0..n_levels first tabulates, per flow and level, the flow's
    mass minus its private terms, and its mass plus their magnitudes,
    from one array of terms over (levels, private counters). Each row
    then reads one entry per flow from each table, and only the shared
    counters, usually none, are evaluated row by row. A smaller block
    (the one-flow supports, the l0 path) evaluates all of T row by row,
    which costs less than the tables would.

    These sums are reassociated, so they only screen: each candidate
    whose value is within a rounding-error bound of the running minimum
    is rescored exactly by `_score`, in enumeration order, and the first
    strict minimum wins. The bound is over the magnitudes of the same
    terms the exact sum adds, however the screen groups them (by flow,
    by row or by chunk), so it never drops a candidate that `_score`
    would rank first: the support, levels, objective bits and count are
    those of a one-by-one loop over `_score`. When every candidate is
    +inf the first one is returned.
    """
    g, y = obs.g, obs.y
    a = obs.scale * cfg.grid_step
    pos = y > 0
    live = pos & (mu0 > 0)
    w = np.zeros_like(mu0)
    w[live] = y[live] * np.log(mu0[live])
    dead = pos & ~live
    n_dead = int(dead.sum())
    mu0_sum, w_sum, w_abs = float(mu0.sum()), float(w.sum()), float(np.abs(w).sum())
    y_sum = float(y.sum())
    pen2 = []  # pen2[s] = 2*pen_of_size(s), extended as sizes appear
    best = None  # (exact objective, support, levels) of the running minimum
    first = None
    best_hi = math.inf  # least upper bound on any screened objective so far
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
        ragged = not levels.all()  # some rows leave some of the flows out
        touched, _, inv = _local_index(g, list(flows))
        if dead[touched].sum() < n_dead:
            continue  # an untouched positive counter keeps mean zero
        rest = w_sum - float(w[touched].sum())
        flow_of = np.repeat(np.arange(s), g.d)  # the flow of each entry of inv
        per_row = pos[touched]  # the counters scored row by row
        table = None
        if len(levels) > cfg.n_levels + 1:
            # the private counters' tables: flow i at level l is entry
            # i*(n_levels+1) + l of each
            lvl = np.arange(cfg.n_levels + 1)
            private = per_row & (np.bincount(inv, minlength=touched.size) == 1)
            per_row &= ~private
            on_p = private[inv]
            t_p = touched[inv[on_p]]
            with np.errstate(divide="ignore"):  # -inf at a mean of zero
                term = y[t_p] * np.log(mu0[t_p] + a * lvl[:, None])
            key = (flow_of[on_p] * lvl.size + lvl[:, None]).ravel()
            n_tab = s * lvl.size
            flow_mass = (a * g.d) * np.tile(lvl, s)
            table = np.stack([
                flow_mass - np.bincount(key, weights=term.ravel(), minlength=n_tab),
                flow_mass + np.bincount(key, weights=np.abs(term).ravel(),
                                        minlength=n_tab),
            ])
            offsets = (np.arange(s) * lvl.size)[:, None]
        inc = np.zeros((s, touched.size))  # a flow's d counters are distinct
        inc[flow_of, inv] = 1.0
        inc = inc[:, per_row]
        y_r, mu0_r = y[touched[per_row]], mu0[touched[per_row]]
        step = max(1, _CHUNK_FLOATS // (3 * s + inc.shape[1] + 1))
        for lo in range(0, len(levels), step):
            lv = levels[lo:lo + step]
            if table is None:
                val = mag = (a * g.d) * lv.sum(axis=1, dtype=np.float64)
            else:
                idx = lv.T.astype(np.intp, order="C")  # flows by rows
                idx += offsets
                val, mag = table.take(idx, axis=1).sum(axis=1)
            if inc.size:
                # one (rows, counters) buffer, in place: mu, y*ln(mu), |y*ln(mu)|
                buf = lv @ inc
                buf *= a
                buf += mu0_r
                with np.errstate(divide="ignore"):
                    np.log(buf, out=buf)
                buf *= y_r
                val = val - buf.sum(axis=1)
                np.abs(buf, out=buf)
                mag = mag + buf.sum(axis=1)
            size = np.count_nonzero(lv, axis=1) if ragged else s
            pen2_r = pen2_s[size]
            obj = (mu0_sum - rest) + val + pen2_r
            # first-order rounding bound of either evaluation, per unit of
            # the summed term magnitudes (the objective itself can cancel)
            tol_k = 4.0 * (y.size + size * g.d + 8) * np.finfo(np.float64).eps
            tol = tol_k * (mu0_sum + w_abs + mag + y_sum + np.abs(pen2_r))
            tol[obj == math.inf] = 0.0
            best_hi = min(best_hi, float((obj + tol).min()))
            if best_hi == math.inf:
                continue
            for j in np.nonzero(obj - tol <= best_hi)[0]:
                supp, cand = candidate(flows, lv[j])
                exact = _score(obs, cfg, mu0, supp, cand)
                if best is None or exact < best[0]:
                    best = (exact, supp, cand)
    obj, supp, lv = best if best is not None else (math.inf, *first)
    return PmleResult(
        rates=cfg.materialize(supp, lv),
        support=supp, levels=lv, objective=obj,
        n_evaluated=n_eval, exhaustive=exhaustive,
    )


def _score(obs: Observation, cfg: PmleConfig, mu0: np.ndarray, supp: tuple,
           lv: tuple) -> float:
    """NLL(candidate + offset) + 2*pen(candidate) of one candidate, over
    all counters."""
    g = obs.g
    mu = mu0.copy()
    if supp:
        cols = g.columns[list(supp)].ravel()
        a = obs.scale * cfg.grid_step
        np.add.at(mu, cols, np.repeat(a * np.asarray(lv, float), g.d))
    return _nll_from_mu(mu, obs.y) + 2.0 * cfg.pen_of_size(len(supp))


def _local_index(g: BipartiteGraph, flows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(touched, hit, inv): the sorted counters that `flows` (an index list
    or array) touch, their mask over all M counters, and inv[i*d:(i+1)*d]
    the numbers among them of flows[i]'s counters, by a running count."""
    cols = g.columns[flows].ravel()
    hit = np.zeros(g.n_right, dtype=bool)
    hit[cols] = True
    return np.flatnonzero(hit), hit, np.cumsum(hit)[cols] - 1


def _counter_sums(inv: np.ndarray, theta: np.ndarray, n_touched: int) -> np.ndarray:
    """A[T, support] @ theta, inv numbering each support flow's d counters
    in T as `_local_index` does: one `np.bincount` adds the flows' values
    into their counters in flow order, from zero, the sums of a sparse
    column-by-column product to the bit."""
    d = inv.size // theta.size
    return np.bincount(inv, weights=np.repeat(theta, d), minlength=n_touched)


def _flow_sums(r: np.ndarray, inv_cols: np.ndarray) -> np.ndarray:
    """A[T, support].T @ r, inv_cols (d, |support|) holding in row c each
    flow's c-th counter in T: a zero vector plus the rows of r.take one by
    one, each flow's d terms in counter order, the sums of a sparse
    row-by-row product to the bit. Never `.sum(axis=0)`: for one flow and
    d >= 8 numpy sums that column pairwise, in another order."""
    acc = np.zeros(inv_cols.shape[1])
    for row in r.take(inv_cols):
        acc += row
    return acc


@dataclass
class SparseSolveResult:
    theta: np.ndarray  # nonnegative values on `support`, rate units
    objective: float
    iterations: int
    converged: bool
    trace: Tuple[float, ...]  # objective after the start and each accepted step


def sparse_poisson_solve(
    obs: Observation,
    support: np.ndarray,
    mu_base: np.ndarray,
) -> SparseSolveResult:
    """Projected proximal-gradient Poisson regression on a fixed support.

    Minimizes sum(mu) - sum y ln(mu) over theta >= 0 with
    mu = mu_base + scale * A[:, support] @ theta. Backtracking line search
    keeps the objective non-increasing; stops when the relative objective
    change drops below 1e-8 or after 500 iterations. Up to three projected
    Newton steps then polish theta. Log and gradient inputs are floored at
    1e-12 so a stray zero mean cannot produce NaN.

    Only the counters T that the support touches (`_local_index`) depend
    on theta, so every array of the solve is over T. The other counters
    keep their mu_base means and add one constant to the objective, so
    `objective`, `trace` and the stop rule are over all counters.

    The two products with A[T, support], `_counter_sums` for the means and
    `_flow_sums` for the gradient, are numpy's, so the solve loads no
    scipy.
    """
    g, y, scale = obs.g, obs.y, obs.scale
    support = _check_flows(g, support, "support")
    if support.size == 0:
        raise ValueError("support must be nonempty")
    n, d = support.size, g.d
    touched, hit, inv = _local_index(g, support)
    rest = ~hit
    feas_bad = rest & (y > 0) & (mu_base <= 0)
    if feas_bad.any():
        j = int(np.nonzero(feas_bad)[0][0])
        raise ValueError(
            f"counter {j} has observed packets but no mass reaches it "
            f"from the support or the offset"
        )
    theta = np.full(n, (y.sum() + 1.0) / (scale * d * n))
    y_r, mu_r = y[rest], mu_base[rest]
    const = float(mu_r.sum() - (y_r * np.log(np.maximum(mu_r, _MU_FLOOR))).sum())
    inv_cols = np.ascontiguousarray(inv.reshape(n, d).T)
    base = mu_base[touched]
    pos = y[touched] > 0
    ypos = y[touched][pos]

    def means(th):
        return base + scale * _counter_sums(inv, th, touched.size)

    def objective(mu):
        return const + float(
            mu.sum() - (ypos * np.log(np.maximum(mu[pos], _MU_FLOOR))).sum())

    def gradient(mu):
        r = np.ones(touched.size)
        r[pos] -= ypos / np.maximum(mu[pos], _MU_FLOOR)
        return scale * _flow_sums(r, inv_cols)

    def pg_norm(th, grad):  # sup norm of the projected gradient
        return float(np.abs(np.where((th <= 0) & (grad > 0), 0.0, grad)).max())

    mu = means(theta)
    f = objective(mu)
    trace = [f]
    t = 1.0 / (1.0 + scale * d)
    converged = False
    it = 0
    for it in range(1, _SOLVE_MAX_ITER + 1):
        grad = gradient(mu)
        t *= 2.0
        while True:
            cand = np.maximum(theta - t * grad, 0.0)
            move = cand - theta
            if not move.any():
                break
            mu_cand = means(cand)
            f_cand = objective(mu_cand)
            if f_cand <= f + grad @ move + (move @ move) / (2.0 * t):
                break
            t *= 0.5
            if t < 1e-18:
                break
        if not move.any() or t < 1e-18:
            converged = True
            break
        theta, mu = cand, mu_cand
        trace.append(f_cand)
        if abs(f - f_cand) <= _SOLVE_REL_TOL * max(1.0, abs(f)):
            converged = True
            break
        f = f_cand

    # First-order stops certify progress through objective differences,
    # whose double-precision noise floors the parameter error near 1e-8
    # relative. Gradients carry far less noise, so up to three Newton steps
    # on the free coordinates, each kept only if it shrinks the projected
    # gradient, push theta to machine stationarity.
    grad = gradient(mu)
    for _ in range(3):
        before = pg_norm(theta, grad)
        if before == 0.0:
            break
        free = np.nonzero((theta > 0) | (grad < 0))[0]
        af = np.zeros((touched.size, free.size))  # the dense A[T, free]
        af[inv.reshape(n, d)[free].ravel(), np.repeat(np.arange(free.size), d)] = 1.0
        w = np.zeros(touched.size)
        w[pos] = ypos / np.maximum(mu[pos], _MU_FLOOR) ** 2
        h = scale * scale * (af.T * w) @ af
        h[np.diag_indices_from(h)] += 1e-12 * max(h.diagonal().max(), 1.0)
        try:
            step = np.linalg.solve(h, grad[free])
        except np.linalg.LinAlgError:
            break
        cand = theta.copy()
        cand[free] = np.maximum(cand[free] - step, 0.0)
        mu_cand = means(cand)
        if (mu_cand[pos] <= 0).any():
            break
        grad_cand = gradient(mu_cand)
        if pg_norm(cand, grad_cand) >= before:
            break
        theta, mu, grad = cand, mu_cand, grad_cand
    return SparseSolveResult(theta=theta, objective=objective(mu), iterations=it,
                             converged=converged, trace=tuple(trace))


def _round_levels(values: np.ndarray, step: float, budget: int) -> np.ndarray:
    """Each value rounded to an integer level, clipped to [0, budget]."""
    return np.clip(np.rint(values / step).astype(np.int64), 0, budget)


def _grid_project(values: np.ndarray, step: float, budget: int) -> np.ndarray:
    """Round to integer levels, clip to [0, budget], then walk the total
    back inside the budget by decrementing the most over-rounded entries."""
    m = _round_levels(values, step, budget)
    excess = int(m.sum()) - budget
    while excess > 0:
        idx = np.nonzero(m > 0)[0]
        over = m[idx] * step - values[idx]
        m[idx[int(np.argmax(over))]] -= 1
        excess -= 1
    return m


def _l0_path(theta: np.ndarray, flows_all: np.ndarray, step: float, budget: int,
             s_max: int) -> tuple[tuple, np.ndarray]:
    """The l0 path of fitted values theta on flows_all as one block for
    `_argmin`: the flows of the s_max largest values (ties to the lower
    position), and a levels array whose row s, for s = 0..s_max, is the
    grid projection of the s largest values, zero elsewhere. Each value
    rounds on its own, so only the rows whose rounded levels overspend the
    budget need `_grid_project`'s walk-back. A repeated row is kept only
    at its first place."""
    order = np.argsort(-theta, kind="stable")[:s_max]
    flows = np.sort(order)
    theta = theta[flows]
    joins = np.empty(s_max, dtype=np.int64)  # the row at which each flow enters
    joins[np.searchsorted(flows, order)] = np.arange(1, s_max + 1)
    rounded = _round_levels(theta, step, budget)
    path = np.where(joins <= np.arange(s_max + 1)[:, None], rounded, 0)
    for s in np.flatnonzero(path.sum(axis=1) > budget):
        chosen = joins <= s
        path[s, chosen] = _grid_project(theta[chosen], step, budget)
    first_at = {row.tobytes(): s for s, row in reversed(list(enumerate(path)))}
    return (tuple(int(i) for i in flows_all[flows]),
            path[sorted(first_at.values())])


def pmle_reduced(
    obs: Observation,
    loc: WhaleLocalization,
    cfg: PmleConfig,
    cover: np.ndarray,
) -> PmleResult:
    """Penalized MLE restricted to supports inside the localized set A1.

    Penalties are inherited from the full universe (same code lengths as
    an unrestricted search), so when the unrestricted argmin happens to be
    supported in A1 the reduced search returns it exactly. An A1 whose
    candidates pass the exhaustive guard is enumerated by
    `pmle_exhaustive`; a larger one is screened by one continuous solve on
    A1 whose sorted coordinates define an l0 path of grid-projected
    candidates, at most max(2k, 32) long, for the final penalized
    comparison. Either way ties go to the candidate scored first, and A1
    is held to the flow rule once, as that universe or as the solve's
    support. An empty A1 warns: its only candidate is zero, so the result
    is the zero estimate with the objective of the offset alone
    (n_evaluated 1, exhaustive True).
    """
    a1 = np.asarray(loc.a1)
    if a1.size == 0:
        warnings.warn("localization produced an empty support; returning zeros")
    if cfg.n_candidates(a1.size, _EXHAUSTIVE_GUARD) <= _EXHAUSTIVE_GUARD:
        res = pmle_exhaustive(obs, cfg, a1, cover)
    else:
        mu0 = cfg.offset_means(obs, cover)
        solve = sparse_poisson_solve(obs, a1, mu0)
        s_max = min(a1.size, cfg.n_levels, max(2 * cfg.k, 32))
        block = _l0_path(solve.theta, a1, cfg.grid_step, cfg.n_levels, s_max)
        res = _argmin(obs, cfg, mu0, [block], exhaustive=False)
    res.localization = loc
    return res
