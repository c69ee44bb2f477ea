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
estimates are returned as rates directly, no trailing division.

Candidates are scored in blocks, all level tuples of one support at a
time, as arrays over the few counters that support touches. Near-ties of
the batched values are rescored exactly, candidate by candidate, so the
argmin, its objective and the tie-break (the candidate enumerated first)
are those of scoring every candidate on its own.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .graph import BipartiteGraph, CoverSet, apply_adjacency

__all__ = [
    "KRAFT_CONSTANT",
    "CandidateCountError",
    "CandidateSet",
    "KraftAudit",
    "PmleConfig",
    "PmleResult",
    "SparseSolveResult",
    "WhaleLocalization",
    "kraft_audit",
    "localize_whales",
    "neg_log_likelihood",
    "penalty",
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


class CandidateCountError(ValueError):
    """Raised when an enumeration would exceed the exhaustive guard."""


@dataclass(frozen=True)
class PmleConfig:
    """Grid geometry and offset for the penalized-MLE objective.

    l0 bounds the l1 mass of every candidate; the grid step is sqrt(delta)
    and l0/sqrt(delta) must be a positive integer (the number of nonzero
    levels). c scales the always-on offset c*l0 on the cover flows.
    """

    l0: float
    k: int
    gamma: float
    delta: float
    c: float
    cover: CoverSet

    def __post_init__(self):
        if not self.l0 > 0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        levels = self.l0 / math.sqrt(self.delta)
        if abs(levels - round(levels)) > 1e-9 or round(levels) < 1:
            raise ValueError(
                f"l0/sqrt(delta) = {levels} must be a positive integer"
            )
        if not (0 <= self.c < 1):
            raise ValueError(f"offset coefficient c must be in [0,1), got {self.c}")

    @classmethod
    def from_problem(
        cls,
        n_flows: int,
        k: int,
        l0: float,
        cover: CoverSet,
        gamma: float = 1.0,
        levels: int = 64,
        c: Optional[float] = None,
    ) -> "PmleConfig":
        """Derive c = gamma/(k*ln(N/k)) and the grid from a level count.

        Pass c=0 explicitly to disable the offset (diagnostics only; the
        likelihood is then infinite on candidates missing active counters).
        """
        if not 1 <= k < n_flows:
            raise ValueError(f"need 1 <= k < n_flows, got k={k}, N={n_flows}")
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if levels < 1:
            raise ValueError(f"need at least one grid level, got {levels}")
        log_ratio = math.log(n_flows / k)
        if log_ratio <= 0:
            raise ValueError(f"ln(N/k) must be positive, got N={n_flows}, k={k}")
        if c is None:
            c = gamma / (k * log_ratio)
            if not 0 < c < 1:
                raise ValueError(
                    f"derived c = {c:.4g} outside (0,1); lower gamma"
                )
        step = l0 / levels
        return cls(l0=l0, k=k, gamma=gamma, delta=step * step, c=c, cover=cover)

    @property
    def grid_step(self) -> float:
        return math.sqrt(self.delta)

    @property
    def n_levels(self) -> int:
        return round(self.l0 / math.sqrt(self.delta))

    def offset_rates(self, n_flows: int) -> np.ndarray:
        """The additive rate offset c*l0 on the cover flows, zero elsewhere."""
        if self.cover.indicator.size != n_flows:
            raise ValueError(
                f"cover built for {self.cover.indicator.size} flows, not {n_flows}"
            )
        return self.c * self.l0 * self.cover.indicator.astype(np.float64)


@dataclass(frozen=True)
class CandidateSet:
    """Lazy family of grid rate vectors with a Kraft code length.

    Candidates are the vectors supported in `universe` whose nonzero
    entries are m*grid_step for integer levels 1 <= m <= n_levels summing
    to at most n_levels (that is ||lam||_1 <= l0). Never materialized:
    enumeration is a generator and the size comes from a counting formula.

    penalty_universe_size decouples the code length from the enumeration
    universe: a set restricted to A1 keeps the full-universe penalties so
    restricted and unrestricted searches minimize the same objective.
    """

    universe: np.ndarray  # sorted flow indices allowed in supports
    grid_step: float
    n_levels: int
    penalty_mode: str = "l0-scaled"
    penalty_universe_size: Optional[int] = None
    max_support: Optional[int] = None

    def __post_init__(self):
        u = np.unique(np.asarray(self.universe, dtype=np.int64))
        u.setflags(write=False)
        object.__setattr__(self, "universe", u)
        if self.penalty_mode not in ("l0-scaled", "uniform"):
            raise ValueError(f"unknown penalty mode {self.penalty_mode!r}")
        if not self.grid_step > 0:
            raise ValueError("grid step must be positive")
        if self.n_levels < 1:
            raise ValueError("need at least one grid level")
        if self.penalty_universe_size is None:
            object.__setattr__(self, "penalty_universe_size", u.size)
        if self.penalty_universe_size < u.size:
            raise ValueError("penalty universe cannot be smaller than universe")

    @property
    def l0(self) -> float:
        return self.n_levels * self.grid_step

    def _smax(self, universe_size: int) -> int:
        s = min(universe_size, self.n_levels)
        if self.max_support is not None:
            s = min(s, self.max_support)
        return s

    def _count_sum(self, universe_size: int, cap: Optional[int] = None) -> int:
        g = self.n_levels
        total = 0
        for s in range(self._smax(universe_size) + 1):
            total += math.comb(universe_size, s) * math.comb(g, s)
            if cap is not None and total > cap:
                break
        return total

    def count(self) -> int:
        """|Lambda| = sum_s C(U,s)*C(G,s): supports times level tuples.
        A tuple of s levels in [1,G] summing to at most G is fixed by its
        prefix sums, s distinct values in [1,G]: C(G,s) of them."""
        return self._count_sum(self.universe.size)

    def count_exceeds(self, cap: int) -> bool:
        """Early-terminating `count() > cap` (the full sum can be astronomically
        large while the comparison needs only its first few terms)."""
        return self._count_sum(self.universe.size, cap=cap) > cap

    def _penalty_count(self) -> int:
        memo = self.__dict__.get("_penalty_count_memo")
        if memo is None:
            memo = self._count_sum(self.penalty_universe_size)
            object.__setattr__(self, "_penalty_count_memo", memo)
        return memo

    def pen_of_size(self, s: int) -> float:
        """Code length of any candidate with s nonzero entries."""
        if s < 0:
            raise ValueError("support size cannot be negative")
        if self.penalty_mode == "uniform":
            return math.log(self._penalty_count())
        u = self.penalty_universe_size
        return (
            s * (math.log(u) + math.log(1 + self.n_levels))
            + 2.0 * math.log(1 + s)
            + KRAFT_CONSTANT
        )

    def blocks(self) -> Iterator[tuple[tuple, np.ndarray]]:
        """Yield (support, levels) blocks, one per support: support size
        ascending, supports in lexicographic order, and levels an int
        array of shape (C(G,s), s) holding every level tuple of that
        support in lexicographic order. Supports of one size share one
        read-only levels array."""
        universe = [int(i) for i in self.universe]
        for s in range(self._smax(len(universe)) + 1):
            levels = _level_tuples(s, self.n_levels)
            for supp in combinations(universe, s):
                yield supp, levels

    def enumerate(self) -> Iterator[tuple[tuple, tuple]]:
        """Yield every (support, levels) candidate as tuples, in the order
        of `blocks`."""
        for supp, levels in self.blocks():
            for lv in levels.tolist():
                yield supp, tuple(lv)

    def materialize(self, support: tuple, levels: tuple, n_flows: int) -> np.ndarray:
        out = np.zeros(n_flows, dtype=np.float64)
        if support:
            out[list(support)] = np.asarray(levels, dtype=np.float64) * self.grid_step
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


def penalty(candidate: np.ndarray, cs: CandidateSet) -> float:
    """Code length of an explicit candidate vector.

    Validates grid membership: support inside the universe, every nonzero
    entry an integer multiple of the step within 1e-9 relative, total
    level budget respected.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    nz = np.nonzero(candidate)[0]
    if not np.isin(nz, cs.universe).all():
        raise ValueError("candidate support lies outside the universe")
    if (candidate[nz] < 0).any():
        raise ValueError("candidate entries must be nonnegative")
    levels = candidate[nz] / cs.grid_step
    rounded = np.rint(levels)
    if (np.abs(levels - rounded) > 1e-9 * np.maximum(1.0, levels)).any():
        raise ValueError("candidate entry off the grid")
    if (rounded > cs.n_levels).any() or rounded.sum() > cs.n_levels:
        raise ValueError("candidate exceeds the l1 budget")
    return cs.pen_of_size(int(nz.size))


class KraftAudit(NamedTuple):
    total: float  # sum of e^{-pen} over the candidate set
    exhaustive: bool  # True when summed candidate by candidate
    ok: bool  # total <= 1 (tiny float slack)


def kraft_audit(cs: CandidateSet, exhaustive_cap: int = 10**5) -> KraftAudit:
    """Verify the penalty is a valid code length: sum e^{-pen} <= 1.

    Small sets are summed candidate by candidate; larger ones use the
    exact per-size counts (the penalty depends only on support size, so
    the counting formula is not a bound but the same sum regrouped).
    """
    n = cs.count()
    if n <= exhaustive_cap:
        total = 0.0
        for supp, _levels in cs.enumerate():
            total += math.exp(-cs.pen_of_size(len(supp)))
        return KraftAudit(total=total, exhaustive=True, ok=total <= 1.0 + 1e-9)
    g = cs.n_levels
    u = cs.universe.size
    total = 0.0
    for s in range(cs._smax(u) + 1):
        log_count = (
            math.lgamma(u + 1) - math.lgamma(s + 1) - math.lgamma(u - s + 1)
            + math.lgamma(g + 1) - math.lgamma(s + 1) - math.lgamma(g - s + 1)
        )
        total += math.exp(log_count - cs.pen_of_size(s))
    return KraftAudit(total=total, exhaustive=False, ok=total <= 1.0 + 1e-9)


@dataclass(frozen=True)
class WhaleLocalization:
    """Output of the counter-sorting pass: a1 holds, sorted, the flows
    whose every counter ranks among the (up to) kd largest."""

    a1: np.ndarray


def localize_whales(y: np.ndarray, g: BipartiteGraph, k: int) -> WhaleLocalization:
    """The flows whose counters all rank among the kd largest.

    Ties in the counter ranking break toward the lowest index. When
    kd >= M every counter is large and a1 is all flows (the reduction
    degrades gracefully to the full search). O(M log M + N d).
    """
    y = np.asarray(y)
    if y.shape != (g.n_right,):
        raise ValueError(f"y has shape {y.shape}, expected ({g.n_right},)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t = min(k * g.d, g.n_right)
    order = np.argsort(-np.asarray(y, dtype=np.float64), kind="stable")
    big = np.zeros(g.n_right, dtype=bool)
    big[order[:t]] = True
    a1 = np.nonzero(big[g.columns].all(axis=1))[0].astype(np.int64)
    return WhaleLocalization(a1=a1)


def neg_log_likelihood(
    theta: np.ndarray, g: BipartiteGraph, y: np.ndarray, scale: float
) -> float:
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
    y: np.ndarray,
    g: BipartiteGraph,
    cs: CandidateSet,
    cfg: PmleConfig,
    scale: float,
) -> PmleResult:
    """Exact penalized-MLE argmin by full enumeration of the candidate set.

    Guarded: refuses more than 10^6 candidates. Scoring is batched: all
    level tuples of one support are scored as one array, and candidates
    within rounding error of the minimum are rescored exactly, so ties
    still go to the candidate enumerated first.
    """
    if cs.count_exceeds(_EXHAUSTIVE_GUARD):
        raise CandidateCountError(
            f"candidate count exceeds the exhaustive guard "
            f"{_EXHAUSTIVE_GUARD}; use pmle_reduced"
        )
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.n_right,):
        raise ValueError(f"y has shape {y.shape}, expected ({g.n_right},)")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    mu0 = scale * apply_adjacency(g, cfg.offset_rates(g.n_left))
    return _argmin(y, g, cs, mu0, scale, cs.blocks(), exhaustive=True)


# Rows of a level block scored per array operation, so the one scoring
# buffer stays at most _CHUNK_ROWS * s * d floats however many tuples the
# block has.
_CHUNK_ROWS = 1024


def _argmin(
    y: np.ndarray,
    g: BipartiteGraph,
    cs: CandidateSet,
    mu0: np.ndarray,
    scale: float,
    blocks: Iterable[tuple[tuple, np.ndarray]],
    exhaustive: bool,
) -> PmleResult:
    """First minimizer, in enumeration order, of NLL(candidate + offset) +
    2*pen(candidate) over (support, levels) blocks, mu0 being the offset's
    counter means.

    A block is scored as arrays, in row chunks. A candidate changes mu0
    only on the counters T its support touches, so its objective is
    sum(mu0) + scale*step*d*sum(levels), minus the y*ln(mu) terms of the
    untouched counters (summed once per call), minus those of T, plus the
    penalty; a positive counter left at mean zero makes it +inf. These
    sums are reassociated, so they only screen: each candidate whose
    value is within a rounding-error bound of the running minimum is
    rescored exactly by `_score`, in enumeration order, and the first
    strict minimum wins. That is the candidate, objective and count a
    one-by-one loop over `_score` returns. When every candidate is +inf
    the first one is returned.
    """
    a = scale * cs.grid_step
    pos = y > 0
    live = pos & (mu0 > 0)
    w = np.zeros_like(mu0)
    w[live] = y[live] * np.log(mu0[live])
    dead = pos & ~live
    n_dead = int(dead.sum())
    mu0_sum, w_sum, w_abs = float(mu0.sum()), float(w.sum()), float(np.abs(w).sum())
    y_sum = float(y.sum())
    best = None  # (exact objective, support, levels) of the running minimum
    first = None
    best_hi = math.inf  # least upper bound on any screened objective so far
    n_eval = 0
    for supp, levels in blocks:
        n_eval += len(levels)
        if first is None:
            first = (supp, tuple(levels[0].tolist()))
        s = len(supp)
        touched, inv = np.unique(g.columns[list(supp)].ravel(), return_inverse=True)
        if dead[touched].sum() < n_dead:
            continue  # an untouched positive counter keeps mean zero
        inc = np.zeros((s, touched.size))  # a flow's d counters are distinct
        inc[np.repeat(np.arange(s), g.d), inv] = 1.0
        keep = pos[touched]
        inc = inc[:, keep]
        y_t, mu0_t = y[touched[keep]], mu0[touched[keep]]
        rest = w_sum - float(w[touched].sum())
        pen2 = 2.0 * cs.pen_of_size(s)
        # first-order rounding bound of either evaluation, per unit of the
        # summed term magnitudes (the objective itself can cancel)
        tol_k = 4.0 * (y.size + s * g.d + 8) * np.finfo(np.float64).eps
        for lo in range(0, len(levels), _CHUNK_ROWS):
            lv = levels[lo:lo + _CHUNK_ROWS]
            lvf = lv.astype(np.float64)
            mass = mu0_sum + (a * g.d) * lvf.sum(axis=1)
            # one (rows, |T|) buffer, in place: mu, then y*ln(mu), then |y*ln(mu)|
            buf = lvf @ inc
            buf *= a
            buf += mu0_t
            bad = (buf <= 0).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(buf, out=buf)
            buf *= y_t
            obj = mass - (rest + buf.sum(axis=1)) + pen2
            np.abs(buf, out=buf)
            tol = tol_k * (mass + w_abs + buf.sum(axis=1) + y_sum + abs(pen2))
            obj[bad], tol[bad] = math.inf, 0.0
            best_hi = min(best_hi, float((obj + tol).min()))
            if best_hi == math.inf:
                continue
            for j in np.nonzero(obj - tol <= best_hi)[0]:
                cand = tuple(lv[j].tolist())
                exact = _score(y, g, cs, mu0, scale, supp, cand)
                if best is None or exact < best[0]:
                    best = (exact, supp, cand)
    obj, supp, lv = best if best is not None else (math.inf, *first)
    return PmleResult(
        rates=cs.materialize(supp, lv, g.n_left),
        support=supp, levels=lv, objective=obj,
        n_evaluated=n_eval, exhaustive=exhaustive,
    )


def _score(
    y: np.ndarray,
    g: BipartiteGraph,
    cs: CandidateSet,
    mu0: np.ndarray,
    scale: float,
    supp: tuple,
    lv: tuple,
) -> float:
    """NLL(candidate + offset) + 2*pen(candidate) of one candidate, over
    all counters."""
    mu = mu0.copy()
    if supp:
        cols = g.columns[list(supp)].ravel()
        np.add.at(mu, cols, np.repeat(scale * cs.grid_step * np.asarray(lv, float), g.d))
    return _nll_from_mu(mu, y) + 2.0 * cs.pen_of_size(len(supp))


@dataclass
class SparseSolveResult:
    theta: np.ndarray  # nonnegative values on `support`, rate units
    objective: float
    iterations: int
    converged: bool
    trace: Tuple[float, ...]  # objective after the start and each accepted step


def _support_matrix(g: BipartiteGraph, support: np.ndarray) -> sp.csr_matrix:
    """A[:, support] as a float CSR matrix, read from the columns of the
    support flows."""
    nnz = support.size * g.d
    return sp.csc_matrix(
        (np.ones(nnz), g.columns[support].ravel(), np.arange(0, nnz + 1, g.d)),
        shape=(g.n_right, support.size),
    ).tocsr()


def sparse_poisson_solve(
    y: np.ndarray,
    g: BipartiteGraph,
    support: np.ndarray,
    scale: float,
    mu_base: Optional[np.ndarray] = None,
    max_iter: int = 500,
    rel_tol: float = 1e-8,
) -> SparseSolveResult:
    """Projected proximal-gradient Poisson regression on a fixed support.

    Minimizes sum(mu) - sum y ln(mu) over theta >= 0 with
    mu = mu_base + scale * A[:, support] @ theta. Backtracking line search
    keeps the objective non-increasing; stops when the relative objective
    change drops below rel_tol or at the iteration cap. Log and gradient
    inputs are floored at 1e-12 so a stray zero mean cannot produce NaN.
    """
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    y = np.asarray(y, dtype=np.float64)
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    a_s = _support_matrix(g, support)
    if mu_base is None:
        mu_base = np.zeros(g.n_right)
    covered = np.asarray((a_s @ np.ones(support.size)) > 0)
    feas_bad = (y > 0) & (mu_base <= 0) & ~covered
    if feas_bad.any():
        j = int(np.nonzero(feas_bad)[0][0])
        raise ValueError(
            f"counter {j} has observed packets but no mass reaches it "
            f"from the support or the offset"
        )

    pos = y > 0
    ypos = y[pos]

    def objective(mu):
        return float(mu.sum() - (ypos * np.log(np.maximum(mu[pos], _MU_FLOOR))).sum())

    def gradient(mu):
        r = np.ones(g.n_right)
        r[pos] -= ypos / np.maximum(mu[pos], _MU_FLOOR)
        return scale * (a_s.T @ r)

    theta = np.full(support.size, (y.sum() + 1.0) / (scale * g.d * support.size))
    mu = mu_base + scale * (a_s @ theta)
    f = objective(mu)
    trace = [f]
    t = 1.0 / (1.0 + scale * g.d)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
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
        if abs(f - f_cand) <= rel_tol * max(1.0, abs(f)):
            f = f_cand
            converged = True
            break
        f = f_cand
    theta = _newton_polish(theta, a_s, y, scale, mu_base)
    f = objective(mu_base + scale * (a_s @ theta))
    return SparseSolveResult(theta=theta, objective=f, iterations=it,
                             converged=converged, trace=tuple(trace))


def _newton_polish(theta, a_s, y, scale, mu_base, passes: int = 3):
    """Projected Newton steps on the free coordinates.

    First-order stops certify progress through objective differences, whose
    double-precision noise floors the parameter error near 1e-8 relative.
    Gradients carry far less noise, so a few second-order steps judged by
    the projected gradient norm push the solution to machine stationarity.
    """
    pos = y > 0

    def pg_norm(th, grad):
        pg = np.where((th <= 0) & (grad > 0), 0.0, grad)
        return float(np.abs(pg).max(initial=0.0))

    for _ in range(passes):
        mu = mu_base + scale * (a_s @ theta)
        r = np.ones(y.size)
        r[pos] -= y[pos] / np.maximum(mu[pos], _MU_FLOOR)
        grad = scale * (a_s.T @ r)
        before = pg_norm(theta, grad)
        if before == 0.0:
            break
        free = np.nonzero((theta > 0) | (grad < 0))[0]
        if free.size == 0:
            break
        w = np.zeros(y.size)
        w[pos] = y[pos] / np.maximum(mu[pos], _MU_FLOOR) ** 2
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
        r_c[pos] -= y[pos] / np.maximum(mu_c[pos], _MU_FLOOR)
        grad_c = scale * (a_s.T @ r_c)
        if pg_norm(cand, grad_c) >= before:
            break
        theta = cand
    return theta


def _grid_project(values: np.ndarray, step: float, budget: int) -> np.ndarray:
    """Round to integer levels, clip to [0, budget], then walk the total
    back inside the budget by decrementing the most over-rounded entries."""
    m = np.clip(np.rint(values / step).astype(np.int64), 0, budget)
    excess = int(m.sum()) - budget
    while excess > 0:
        idx = np.nonzero(m > 0)[0]
        over = m[idx] * step - values[idx]
        m[idx[int(np.argmax(over))]] -= 1
        excess -= 1
    return m


def pmle_reduced(
    y: np.ndarray,
    g: BipartiteGraph,
    loc: WhaleLocalization,
    cfg: PmleConfig,
    scale: float,
    exhaustive_cap: int = _EXHAUSTIVE_GUARD,
    penalty_mode: str = "l0-scaled",
) -> PmleResult:
    """Penalized MLE restricted to supports inside the localized set A1.

    Penalties are inherited from the full universe (same code lengths as
    an unrestricted search), so when the unrestricted argmin happens to be
    supported in A1 the reduced search returns it exactly. Small reduced
    sets are enumerated; large ones are screened by one continuous solve
    on A1 whose sorted coordinates define an l0 path of grid-projected
    candidates, at most max(2k, 32) long, for the final penalized
    comparison. Either way ties go to the candidate scored first. An
    empty A1 warns and is always enumerated: its only candidate is zero,
    so the result is the zero estimate with the objective of the offset
    alone (n_evaluated 1, exhaustive True).
    """
    y = np.asarray(y, dtype=np.float64)
    if loc.a1.size == 0:
        warnings.warn("localization produced an empty support; returning zeros")
    cs = CandidateSet(
        universe=loc.a1,
        grid_step=cfg.grid_step,
        n_levels=cfg.n_levels,
        penalty_mode=penalty_mode,
        penalty_universe_size=g.n_left,
    )
    if loc.a1.size == 0 or not cs.count_exceeds(exhaustive_cap):
        res = pmle_exhaustive(y, g, cs, cfg, scale)
        res.localization = loc
        return res

    mu0 = scale * apply_adjacency(g, cfg.offset_rates(g.n_left))
    solve = sparse_poisson_solve(y, g, loc.a1, scale, mu_base=mu0)
    order = np.argsort(-solve.theta, kind="stable")
    s_max = min(loc.a1.size, cs.n_levels, max(2 * cfg.k, 32))

    def path():
        seen = set()
        for s in range(0, s_max + 1):
            chosen = np.sort(order[:s])
            m = _grid_project(solve.theta[chosen], cs.grid_step, cs.n_levels)
            keep = m > 0
            supp = tuple(int(i) for i in loc.a1[chosen][keep])
            key = (supp, tuple(int(v) for v in m[keep]))
            if key not in seen:
                seen.add(key)
                yield supp, m[keep][None, :]

    res = _argmin(y, g, cs, mu0, scale, path(), exhaustive=False)
    res.localization = loc
    return res
