"""Left-regular bipartite sensing graphs and their counter covers.

A counter bank aggregates N flows into M counters (M <= N) through a
sparse binary matrix: flow i increments the d counters listed in
``columns[i]``. That (N, d) array is the graph, and nothing derived from
it is stored. A counter cover is an array too: the sorted flows whose
counters cover every counter. Construction is randomized but fully
determined by an integer seed; expansion quality of small instances can
be certified by brute force.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "BipartiteGraph",
    "ExpansionReport",
    "GraphConstructionError",
    "EnumerationCapExceeded",
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


# rows that save_graph formats per write
_SAVE_CHUNK = 1 << 15


def is_integer(v) -> bool:
    """The package's one test for an integer setting: a Python or numpy
    integer, not a bool (an int subclass) and not a float."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_shape(n_left: int, n_right: int, d: int) -> None:
    """A graph has at least one flow, each flow d distinct counters, and
    every counter an int32 index."""
    if n_left < 1 or not 1 <= d <= n_right:
        raise GraphConstructionError(
            f"need n_left >= 1 and 1 <= d <= n_right, got "
            f"n_left={n_left}, d={d}, n_right={n_right}"
        )
    if n_right > 2**31 - 1:
        raise GraphConstructionError(
            f"need n_right <= 2^31 - 1, the int32 index range, got {n_right}"
        )


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable left-d-regular bipartite graph in column-major form.

    columns[i] holds the sorted, distinct counter indices of flow i; it
    alone defines the graph, and it is A^T in CSR form, which
    `lp.basis_pursuit` reads as is. Nothing else is stored.
    """

    n_left: int
    n_right: int
    d: int
    columns: np.ndarray  # shape (n_left, d), int32, each row sorted
    seed: int

    def __post_init__(self):
        _check_shape(self.n_left, self.n_right, self.d)
        # load_graph reads a header seed of ASCII digits only
        if not (is_integer(self.seed) and self.seed >= 0):
            raise GraphConstructionError(f"need an integer seed >= 0, got {self.seed!r}")
        cols = np.asarray(self.columns, dtype=np.int32)
        if cols.shape != (self.n_left, self.d):
            raise GraphConstructionError(
                f"columns shape {cols.shape} != ({self.n_left}, {self.d})"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_right):
            raise GraphConstructionError("column entry out of [0, n_right)")
        if (cols[:, 1:] <= cols[:, :-1]).any():
            raise GraphConstructionError(
                "each column must list d distinct sorted counter indices"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)


def _adjacency(g: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """The counter-to-flows incidence, (indptr, flows): flows[indptr[j]:
    indptr[j+1]] lists the flows incident to counter j in increasing order,
    the indptr and indices of the (n_right, n_left) 0/1 matrix in CSR form.

    Each entry (flow i, counter j) becomes one packed key j << b | i, with
    b the bits of the largest flow index, in uint32 when the largest key
    fits and uint64 otherwise. The keys are distinct, so one in-place sort
    orders them by counter and then by flow, and masking off the counter
    bits leaves the flows. Counter j's row starts at the first key at or
    above j << b, found by searchsorted with needles of the key's own type
    (needles of a wider type would cast every key). The n*d keys are the
    only large array.
    """
    n, m, d = g.n_left, g.n_right, g.d
    b = max(1, (n - 1).bit_length())
    kt = np.uint32 if ((m - 1) << b | (n - 1)) < 2**32 else np.uint64
    key = g.columns.astype(kt)
    key <<= b
    key |= np.arange(n, dtype=kt)[:, None]
    key = key.ravel()
    key.sort()
    indptr = np.empty(m + 1, dtype=np.int64)
    indptr[:m] = np.searchsorted(key, np.arange(m, dtype=kt) << kt(b))
    indptr[m] = n * d
    key &= kt((1 << b) - 1)
    return indptr, key


@dataclass(frozen=True)
class ExpansionReport:
    k_checked: int
    epsilon: float
    worst_ratio: float
    is_expander: bool
    subsets_tested: int


def _sample_columns(rng: "np.random.Generator", n: int, m: int, d: int) -> np.ndarray:
    """n independent uniform d-subsets of [0, m), each sorted ascending.

    When d(d-1) < m, rows are drawn with replacement, and every row that
    holds a counter twice is redrawn whole until none does. Each round
    draws all the rows still bad, in index order, in one `rng.integers`
    call, so the graph is fixed by the seed. The n rows are sorted once;
    after that only the redrawn rows are sorted and checked, so a
    rejection round costs O(rows redrawn * d log d), not O(n * d log d).
    """
    if d == m:
        return np.tile(np.arange(m, dtype=np.int32), (n, 1))
    if d * (d - 1) >= m:
        # collision-heavy regime: partial Fisher-Yates per column
        out = np.empty((n, d), dtype=np.int32)
        for i in range(n):
            out[i] = np.sort(rng.permutation(m)[:d])
        return out

    def draw_sorted(rows: int) -> np.ndarray:
        out = rng.integers(0, m, size=(rows, d), dtype=np.int32)
        out.sort(axis=1)
        return out

    def repeats(rows: np.ndarray) -> np.ndarray:
        """Indices of the sorted rows that hold a counter twice. The hits
        come in row order, so a row hit twice is hit in a run; dropping
        the runs' repeats spares np.unique, which imports numpy.ma."""
        hits = np.flatnonzero(rows[:, 1:] == rows[:, :-1]) // (d - 1)
        return hits[np.diff(hits, prepend=-1) > 0]

    cols = draw_sorted(n)
    bad = repeats(cols)
    while bad.size:
        redrawn = draw_sorted(bad.size)
        cols[bad] = redrawn
        bad = bad[repeats(redrawn)]
    return cols


def build_random_expander(
    n_left: int, n_right: int, d: int, seed: int
) -> BipartiteGraph:
    """Draw each column as a uniform random d-subset of counters.

    Random left-regular graphs of this kind are excellent expanders at
    realistic sizes; use verify_expansion to certify small instances.
    Deterministic in seed.
    """
    _check_shape(n_left, n_right, d)
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
        masks = [int(np.bitwise_or.reduce([1 << int(j) for j in row]))
                 for row in g.columns]  # each flow's counters as an int bitmask
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


def greedy_cover(g: BipartiteGraph) -> np.ndarray:
    """Greedy set cover of the counters by flow neighborhoods: the picked
    flows, sorted, as a read-only int64 array.

    Repeatedly picks the flow covering the most still-uncovered counters,
    ties broken by lowest flow index. A flow's gain only shrinks as
    counters get covered (Minoux's accelerated greedy rests on the same
    fact), so the gains live in one length-N array of the smallest
    unsigned dtype that holds d (one byte for d <= 255): every flow starts
    at d, and each counter a pick newly covers takes 1 off the gain of
    every flow incident to it, read from `_adjacency(g)`, which this call
    builds and drops when it returns. A pick's decrements are one
    `np.subtract.at` over the concatenated adjacency rows of the counters
    it newly covers, which counts a flow incident to several of them once
    per counter. Each counter is retired once, so the decrements cost
    O(N*d) in total, and each pick adds one argmax over the one-byte
    array. All of it is numpy, so a pMLE decode does not load scipy.
    """
    indptr, flows = _adjacency(g)
    isolated = np.flatnonzero(np.diff(indptr) == 0)
    if isolated.size:
        raise GraphConstructionError(
            f"counter {int(isolated[0])} has no incident flow"
        )
    gains = np.full(g.n_left, g.d, dtype=np.min_scalar_type(g.d))
    one = gains.dtype.type(1)
    uncovered = np.ones(g.n_right, dtype=bool)
    n_uncovered = g.n_right
    picks = []
    while n_uncovered:
        pick = int(np.argmax(gains))  # argmax returns the lowest tied index
        picks.append(pick)
        cols = g.columns[pick]
        newly = cols[uncovered[cols]]
        uncovered[newly] = False
        n_uncovered -= newly.size
        np.subtract.at(gains, np.concatenate(
            [flows[indptr[j]:indptr[j + 1]] for j in newly]), one)
    cover = np.array(sorted(picks), dtype=np.int64)
    cover.setflags(write=False)
    return cover


# graphs redrawn, each with a derived seed, before build_graph_with_cover
# gives up on a counter with no incident flow
_COVER_RETRIES = 16


def build_graph_with_cover(
    n_left: int,
    n_right: int,
    d: int,
    seed: int,
) -> tuple[BipartiteGraph, np.ndarray, int]:
    """Build a random graph and its greedy cover (a sorted flow array).

    Every greedy pick covers at least one new counter, so the cover never
    has more than n_right flows. The one thing that can fail is a counter
    with no incident flow; the graph is then rebuilt with a derived seed,
    at most _COVER_RETRIES times. Returns (graph, cover, retries_used).
    """
    from .seeds import stable_seed

    for attempt in range(_COVER_RETRIES + 1):
        s = seed if attempt == 0 else stable_seed(seed, "cover-retry", attempt)
        g = build_random_expander(n_left, n_right, d, s)
        try:
            return g, greedy_cover(g), attempt
        except GraphConstructionError:
            continue  # a counter landed with no incident flow; redraw
    raise GraphConstructionError(
        f"no usable greedy cover after {_COVER_RETRIES} retries"
    )


def save_graph(g: BipartiteGraph, path) -> None:
    """Plain text sidecar: header 'N M d seed', then one line of d
    space-separated counter indices per flow. Rows are formatted
    _SAVE_CHUNK at a time, by one %-format of the chunk's indices."""
    line = " ".join(["%d"] * g.d) + "\n"
    with open(path, "w") as f:
        f.write(f"{g.n_left} {g.n_right} {g.d} {g.seed}\n")
        for start in range(0, g.n_left, _SAVE_CHUNK):
            rows = g.columns[start:start + _SAVE_CHUNK]
            f.write(line * len(rows) % tuple(rows.ravel().tolist()))


def load_graph(path) -> BipartiteGraph:
    """The graph save_graph wrote. The header must be four fields of ASCII
    digits (no sign, underscore or other script's digits, the rule the
    counters follow) and pass the graph-shape rule before any row is read,
    and the body must hold its n rows of d indices. Raises ValueError
    (GraphConstructionError for the shape)."""
    with open(path) as f:
        header = f.readline().split()
        try:
            if not all(t.isascii() and t.isdigit() for t in header):
                raise ValueError
            n, m, d, seed = (int(t) for t in header)
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}") from None
        _check_shape(n, m, d)
        for first in f:  # np.loadtxt warns on a body without data
            if first.strip():
                break
        else:
            raise ValueError(f"{path}: expected {n} rows of {d} indices, got 0 rows")
        try:
            cols = np.loadtxt(chain([first], f), dtype=np.int32, ndmin=2,
                              comments=None)
        except ValueError as e:
            raise ValueError(_bad_row(path, d, e)) from None
    if cols.shape != (n, d):
        raise ValueError(
            f"{path}: expected {n} rows of {d} indices, got shape {cols.shape}"
        )
    return BipartiteGraph(n, m, d, cols, seed)


def _bad_row(path, d: int, error: ValueError) -> str:
    """The refusal of a graph body that np.loadtxt could not read: it names
    the path and the 1-based line of the first nonblank row that is not d
    int32 indices, as np.loadtxt reads that row alone. Reads the file again,
    so only a failed load pays for it."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if lineno == 1 or not line.strip():
                continue
            try:
                ok = np.loadtxt([line], dtype=np.int32, ndmin=2,
                                comments=None).shape == (1, d)
            except ValueError:
                ok = False
            if not ok:
                return (f"{path}: line {lineno} is not a row of {d} int32 "
                        f"indices: {line.strip()!r}")
    return f"{path}: {error}"
