"""Left-regular bipartite sensing graphs.

A counter bank aggregates N flows into M counters (M <= N) through a
sparse binary matrix: flow i increments the d counters listed in
``columns[i]``. That (N, d) array is the graph; the one structure derived
from it and cached is ``csr``, the flows of each counter.
Construction is randomized but fully determined by an integer seed;
expansion quality of small instances can be certified by brute force.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BipartiteGraph",
    "CoverSet",
    "ExpansionReport",
    "GraphConstructionError",
    "EnumerationCapExceeded",
    "apply_adjacency",
    "build_graph_with_cover",
    "build_random_expander",
    "greedy_cover",
    "load_graph",
    "save_graph",
    "verify_expansion",
]


class GraphConstructionError(ValueError):
    """Raised when the requested graph parameters cannot be satisfied."""


class EnumerationCapExceeded(ValueError):
    """Raised when expansion verification would enumerate too many subsets."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable left-d-regular bipartite graph in column-major form.

    columns[i] holds the sorted, distinct counter indices of flow i; it
    alone defines the graph. `csr` is its one cached counter-major index,
    read by `greedy_cover`, `apply_adjacency` and `lp.basis_pursuit`.
    """

    n_left: int
    n_right: int
    d: int
    columns: np.ndarray  # shape (n_left, d), int32, each row sorted
    seed: int

    def __post_init__(self):
        if self.n_left < 1 or not (1 <= self.d <= self.n_right):
            raise GraphConstructionError(
                f"need n_left >= 1 and 1 <= d <= n_right, got "
                f"n_left={self.n_left}, d={self.d}, n_right={self.n_right}"
            )
        cols = np.asarray(self.columns, dtype=np.int32)
        if cols.shape != (self.n_left, self.d):
            raise GraphConstructionError(
                f"columns shape {cols.shape} != ({self.n_left}, {self.d})"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_right):
            raise GraphConstructionError("column entry out of [0, n_right)")
        if self.d > 1:
            diffs = np.diff(cols, axis=1)
            if (diffs <= 0).any():
                raise GraphConstructionError(
                    "each column must list d distinct sorted counter indices"
                )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """Integer adjacency matrix, shape (n_right, n_left): row j lists
        the flows incident to counter j, in increasing order."""
        n, d = self.n_left, self.d
        indptr = np.arange(0, n * d + 1, d)
        data = np.ones(n * d, dtype=np.int64)
        csc = sp.csc_matrix(
            (data, self.columns.ravel(), indptr), shape=(self.n_right, n)
        )
        return csc.tocsr()

    def neighbor_masks(self) -> list:
        """Per-flow counter sets as int bitmasks (for subset enumeration)."""
        return [
            int(np.bitwise_or.reduce([1 << int(j) for j in row]))
            for row in self.columns
        ]


@dataclass(frozen=True)
class CoverSet:
    """Left nodes whose neighborhoods jointly cover every counter."""

    members: np.ndarray  # sorted flow indices
    indicator: np.ndarray  # 0/1 vector, length n_left

    def __post_init__(self):
        m = np.asarray(self.members, dtype=np.int64)
        ind = np.asarray(self.indicator, dtype=np.int8)
        m.setflags(write=False)
        ind.setflags(write=False)
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "indicator", ind)

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class ExpansionReport:
    k_checked: int
    epsilon: float
    worst_ratio: float
    is_expander: bool
    subsets_tested: int


def _sample_columns(rng: np.random.Generator, n: int, m: int, d: int) -> np.ndarray:
    """n independent uniform d-subsets of [0, m), each sorted ascending."""
    if d == m:
        return np.tile(np.arange(m, dtype=np.int32), (n, 1))
    if d * (d - 1) >= m:
        # collision-heavy regime: partial Fisher-Yates per column
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


def build_random_expander(
    n_left: int, n_right: int, d: int, seed: int
) -> BipartiteGraph:
    """Draw each column as a uniform random d-subset of counters.

    Random left-regular graphs of this kind are excellent expanders at
    realistic sizes; use verify_expansion to certify small instances.
    Deterministic in seed.
    """
    if d > n_right:
        raise GraphConstructionError(
            f"cannot pick {d} distinct neighbors among {n_right} counters"
        )
    if n_left < 1 or d < 1:
        raise GraphConstructionError(
            f"need n_left >= 1 and d >= 1, got n_left={n_left}, d={d}"
        )
    rng = np.random.default_rng(seed)
    cols = _sample_columns(rng, n_left, n_right, d)
    return BipartiteGraph(n_left, n_right, d, cols, seed)


def verify_expansion(
    g: BipartiteGraph, k: int, epsilon: float, cap: int = 10**7
) -> ExpansionReport:
    """Exhaustively check |N(S)| >= (1-epsilon)*d*|S| for all |S| <= k.

    worst_ratio is the exact minimum of |N(S)|/(d|S|) over every nonempty
    subset of at most k left nodes; feasibility is guarded by `cap` on the
    total number of subsets. Every k >= 2 takes the same walk: a depth-first
    recursion over subsets in index order that ORs per-flow counter
    bitmasks and counts bits; no N x N matrix is built.
    """
    if not 1 <= k <= g.n_left:
        raise ValueError(f"need 1 <= k <= n_left, got k={k}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    total = sum(math.comb(g.n_left, s) for s in range(1, k + 1))
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} subsets exceeds cap {cap}; lower k or raise cap"
        )

    d = g.d
    # singletons: every column has exactly d distinct neighbors
    worst = 1.0
    if k >= 2:
        masks = g.neighbor_masks()
        n = g.n_left

        def rec(start: int, depth: int, acc: int, worst: float) -> float:
            for i in range(start, n):
                m = acc | masks[i]
                ratio = m.bit_count() / (d * (depth + 1))
                if ratio < worst:
                    worst = ratio
                if depth + 1 < k:
                    worst = rec(i + 1, depth + 1, m, worst)
            return worst

        worst = rec(0, 0, 0, worst)
    return ExpansionReport(
        k_checked=k,
        epsilon=epsilon,
        worst_ratio=worst,
        is_expander=worst >= 1 - epsilon,
        subsets_tested=total,
    )


def greedy_cover(g: BipartiteGraph) -> CoverSet:
    """Greedy set cover of the counters by flow neighborhoods.

    Repeatedly picks the flow covering the most still-uncovered counters,
    ties broken by lowest flow index. A flow's gain only shrinks as
    counters get covered (Minoux's accelerated greedy rests on the same
    fact), so the gains live in one length-N array: every flow starts at
    d, and each counter a pick newly covers takes 1 off the gain of every
    flow incident to it, read from the cached adjacency g.csr. Each
    counter is retired once, so the updates cost O(N*d) in total, and
    each pick adds one O(N) argmax.
    """
    indptr, flows = g.csr.indptr, g.csr.indices
    isolated = np.flatnonzero(np.diff(indptr) == 0)
    if isolated.size:
        raise GraphConstructionError(
            f"counter {int(isolated[0])} has no incident flow"
        )
    gains = np.full(g.n_left, g.d, dtype=np.int64)
    uncovered = np.ones(g.n_right, dtype=bool)
    n_uncovered = g.n_right
    members = []
    while n_uncovered:
        pick = int(np.argmax(gains))  # argmax returns the lowest tied index
        members.append(pick)
        cols = g.columns[pick]
        newly = cols[uncovered[cols]]
        uncovered[newly] = False
        n_uncovered -= newly.size
        for j in newly:
            gains[flows[indptr[j]:indptr[j + 1]]] -= 1
    members = np.array(sorted(members), dtype=np.int64)
    indicator = np.zeros(g.n_left, dtype=np.int8)
    indicator[members] = 1
    return CoverSet(members=members, indicator=indicator)


def build_graph_with_cover(
    n_left: int,
    n_right: int,
    d: int,
    seed: int,
    max_retries: int = 16,
) -> tuple[BipartiteGraph, CoverSet, int]:
    """Build a random graph and its greedy cover.

    Every greedy pick covers at least one new counter, so the cover never
    has more than n_right members. The one thing that can fail is a counter
    with no incident flow; the graph is then rebuilt with a derived seed.
    Returns (graph, cover, retries_used).
    """
    from .seeds import stable_seed

    for attempt in range(max_retries + 1):
        s = seed if attempt == 0 else stable_seed(seed, "cover-retry", attempt)
        g = build_random_expander(n_left, n_right, d, s)
        try:
            return g, greedy_cover(g), attempt
        except GraphConstructionError:
            continue  # a counter landed with no incident flow; redraw
    raise GraphConstructionError(
        f"no usable greedy cover after {max_retries} retries"
    )


def apply_adjacency(g: BipartiteGraph, x: np.ndarray) -> np.ndarray:
    """Counter contents for flow totals x: y_j = sum of x_i over flows
    incident to counter j. Exact int64 arithmetic for integer x, float64
    otherwise."""
    x = np.asarray(x)
    if x.shape != (g.n_left,):
        raise ValueError(f"x has shape {x.shape}, expected ({g.n_left},)")
    exact = np.issubdtype(x.dtype, np.integer)
    return g.csr @ x.astype(np.int64 if exact else np.float64)


def save_graph(g: BipartiteGraph, path) -> None:
    """Plain text sidecar: header 'N M d seed', then one line of d
    space-separated counter indices per flow."""
    with open(path, "w") as f:
        f.write(f"{g.n_left} {g.n_right} {g.d} {g.seed}\n")
        for row in g.columns:
            f.write(" ".join(str(int(j)) for j in row) + "\n")


def load_graph(path) -> BipartiteGraph:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4:
            raise ValueError(f"{path}: malformed header {header!r}")
        n, m, d, seed = (int(t) for t in header)
        cols = np.loadtxt(f, dtype=np.int32, ndmin=2)
    if cols.shape != (n, d):
        raise ValueError(
            f"{path}: expected {n} rows of {d} indices, got shape {cols.shape}"
        )
    return BipartiteGraph(n, m, d, cols, seed)
