"""Poisson packet streams over a counter bank.

Flows emit packets as independent Poisson processes; per-epoch packet
counts are folded into both the exact per-flow tally and the M compressed
counters. Epoch e of a stream seeded with s uses the counter-based
substream Philox(key=[s, e]), so a stream advanced epoch by epoch, by
run_epochs(state, 1), matches one advanced in a single call, and any epoch
can be regenerated in isolation.

An epoch's counts are bit for bit the counts `rng.poisson(rates * tau)`
gives, and the epoch leaves the generator where that call would, but
`rng.poisson` itself runs only for means of 10 and more, which numpy draws
by PTRS. Below 10, numpy uses Knuth's multiplication method: it draws
uniforms U1, U2, ... by the same `next_double` that `Generator.random`
returns, and the count is the number of running products U1...Uj that stay
above exp(-mean). A mean of 0 draws nothing. A flow with count 0 so
consumes exactly one uniform, and a count of 1 or more happens exactly
when U1 > exp(-mean). An epoch therefore draws one uniform per flow of
positive mean in bulk and finds the few flows that can fire with one
vector comparison against np.exp(-mean) loosened by 2^-40, since np.exp
may differ by an ulp from the libm exp that numpy's sampler calls. Each
such flow replays numpy's loop with `math.exp`, which is that libm exp.
Cost per epoch: one uniform per flow of positive mean, plus O(d) per flow
that fired, at a few microseconds of Python each; a stream in which most
flows fire every epoch is slower than one `rng.poisson` call.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import BipartiteGraph, is_integer
from .metrics import top_k_indices

__all__ = [
    "Dist",
    "RateVector",
    "SignalSpec",
    "StreamState",
    "check_window",
    "gen_rates",
    "parse_dist",
    "run_epochs",
]

_MASK64 = (1 << 64) - 1

# uniforms per bulk draw
_CHUNK = 8192
# after a flow fires, the flows behind it take later uniforms, so the
# comparison is redone over a window that starts this short and grows by
# _GROW until it meets the next candidate or the end of the chunk
_RESCAN = 64
_GROW = 8
# numpy draws means >= this by PTRS (Hoermann 1993), below it by Knuth
_PTRS_MIN = 10.0
# the largest mean numpy's Poisson sampler accepts (POISSON_LAM_MAX there)
_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
# np.exp may differ by an ulp from the libm exp that numpy's sampler calls;
# a candidate bound this much lower than np.exp misses no flow that fires
_LOOSEN = 1.0 - 2.0**-40


def check_window(epochs, tau, least: int = 1) -> None:
    """The one rule for a window of `epochs` epochs of length tau: epochs
    is an integer (a numpy integer, not a bool or a float) of at least
    `least`, tau is finite and positive, and so is the window's length
    epochs*tau as a float. Raises ValueError otherwise."""
    if (not is_integer(epochs) or not least <= epochs <= sys.float_info.max
            or not 0 < tau < math.inf or float(epochs) * float(tau) == math.inf):
        raise ValueError(f"need epochs >= {least} and 0 < tau < inf with "
                         f"epochs*tau < inf, got epochs={epochs}, tau={tau}")


@dataclass(frozen=True)
class Dist:
    """Scalar magnitude distribution for whales or minnows.

    kind "constant": every draw equals `value`.
    kind "abs-gaussian": |N(0, value^2)|, i.e. value is the std dev.
    """

    kind: str
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.kind not in ("constant", "abs-gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"distribution value must be finite >= 0: {self.value}")

    def draw(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.value, dtype=np.float64)
        return np.abs(rng.normal(0.0, self.value, size))

    @classmethod
    def from_dict(cls, d: dict) -> "Dist":
        """Dist(**d): an unknown or a missing key raises TypeError."""
        return cls(**d)


def parse_dist(text: str) -> Dist:
    """Parse 'constant:1.0' or 'abs-gaussian:0.001'."""
    kind, sep, val = text.partition(":")
    if not sep:
        raise ValueError(f"expected KIND:VALUE, got {text!r}")
    return Dist(kind=kind.strip(), value=float(val))


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a random rate vector: k whales, N-k minnows."""

    n_flows: int
    k: int
    whale_dist: Dist
    minnow_dist: Dist
    seed: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n_flows:
            raise ValueError(f"need 0 <= k <= n_flows, got k={self.k}")
        if self.whale_dist.kind == "constant" and self.whale_dist.value <= 0:
            raise ValueError("constant whale magnitude must be positive")


@dataclass(frozen=True)
class RateVector:
    """Nonnegative per-flow rates plus the realized whale support.

    rates is a read-only float64 copy of the array given, so the caller's
    array stays its own. whale_support, derived here, holds the k largest
    realized rates (ties to lowest index), which for abs-gaussian minnows
    may not coincide with the planted whale positions; success metrics
    compare against what was actually largest.
    """

    rates: np.ndarray
    k: int
    whale_support: np.ndarray = field(init=False)

    def __post_init__(self):
        r = np.array(self.rates, dtype=np.float64)
        if (r < 0).any() or not np.isfinite(r).all():
            raise ValueError("rates must be finite and nonnegative")
        s = top_k_indices(r, self.k)
        r.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "whale_support", s)

    @property
    def n_flows(self) -> int:
        return self.rates.size

    def l1(self) -> float:
        return float(self.rates.sum())


def gen_rates(spec: SignalSpec) -> RateVector:
    """Draw a rate vector: k whale positions uniform without replacement,
    magnitudes from the two distributions. Deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n_flows, spec.k
    planted = rng.choice(n, size=k, replace=False) if k else np.empty(0, np.int64)
    rates = np.zeros(n, dtype=np.float64)
    if n - k:
        mask = np.ones(n, dtype=bool)
        mask[planted] = False
        rates[mask] = spec.minnow_dist.draw(rng, n - k)
    rates[planted] = spec.whale_dist.draw(rng, k)
    return RateVector(rates, k)


@dataclass
class StreamState:
    """Mutable simulation state: epoch counter, exact flow tallies x, and
    counter contents y = A x (an exact integer identity, not an estimate),
    all starting at zero. The per-epoch draw plan is built from rates and
    tau at construction, so neither may be replaced afterwards."""

    graph: BipartiteGraph
    rates: RateVector
    tau: float
    seed: int
    n_epochs: int = field(init=False, default=0)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    _plan: "_DrawPlan" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rates.n_flows != self.graph.n_left:
            raise ValueError(
                f"{self.rates.n_flows} rates for {self.graph.n_left} flows"
            )
        check_window(self.n_epochs, self.tau, least=0)
        self._plan = _DrawPlan.build(self.rates.rates, self.tau)
        self.x = np.zeros(self.graph.n_left, dtype=np.int64)
        self.y = np.zeros(self.graph.n_right, dtype=np.int64)


def _epoch_rng(seed: int, epoch: int) -> "np.random.Generator":
    key = np.array([seed & _MASK64, epoch & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class _DrawPlan:
    """What an epoch's draw needs, fixed by the rates and tau: the flows of
    positive rate in index order (None when that is every flow), their
    rates, the loosened bound exp(-mean)*(1 - 2^-40) below which a first
    uniform means count 0, and the positions (into those flows) of the
    means numpy draws by PTRS. A mean is rate * tau, recomputed where a
    flow needs it: when every rate is positive, the bound is the one array
    the plan allocates."""

    flows: Optional[np.ndarray]
    rates: np.ndarray
    tau: float
    bound: np.ndarray
    ptrs: tuple

    @classmethod
    def build(cls, rates: np.ndarray, tau: float) -> "_DrawPlan":
        tau = float(tau)
        top = float(rates.max(initial=0.0)) * tau  # the largest rate * tau
        if not top <= _LAM_MAX:
            raise ValueError(
                f"rates * tau reaches {top} at tau={tau}; numpy draws Poisson "
                f"means up to {_LAM_MAX:.6g}"
            )
        flows = None
        if rates.min(initial=1.0) == 0:
            flows = np.flatnonzero(rates)
            rates = rates[flows]
        bound = np.multiply(rates, -tau)  # -(rates * tau), bit for bit
        np.exp(bound, out=bound)
        bound *= _LOOSEN
        ptrs = ()
        if top >= _PTRS_MIN:
            ptrs = tuple(np.flatnonzero(rates * tau >= _PTRS_MIN).tolist())
        return cls(flows, rates, tau, bound, ptrs)

    def draw(self, rng: "np.random.Generator"):
        """(flows, counts) of the epoch's nonzero counts, drawn as
        `rng.poisson(rates * tau)` draws them, with the same uniforms
        consumed."""
        rates, tau, bound = self.rates, self.tau, self.bound
        fired, counts = [], []
        f = 0  # next flow (position into rates) to draw
        for stop in self.ptrs + (rates.size,):
            while f < stop:  # Knuth flows f..stop-1, a chunk at a time
                n = min(_CHUNK, stop - f)
                u = rng.random(n)
                pos, span = 0, n  # u[pos:] belong to flows f, f+1, ...
                while pos < n:
                    m = min(span, n - pos)
                    above = u[pos:pos + m] > bound[f:f + m]
                    h = int(above.argmax())
                    if not above[h]:  # flows f..f+m-1 drew 0
                        f, pos, span = f + m, pos + m, span * _GROW
                        continue
                    # numpy's loop for flow f+h: count the running products
                    # above exp(-mean), drawing past the chunk if it runs out
                    t = pos + h
                    enlam = math.exp(-(float(rates[f + h]) * tau))
                    prod, k = float(u[t]), 0
                    t += 1
                    while prod > enlam:
                        k += 1
                        prod *= float(u[t]) if t < n else rng.random()
                        t += 1
                    if k:
                        fired.append(f + h)
                        counts.append(k)
                    f, pos, span = f + h + 1, t, _RESCAN
            if stop < rates.size:
                k = rng.poisson(float(rates[stop]) * tau)
                if k:
                    fired.append(stop)
                    counts.append(k)
                f = stop + 1
        fired = np.array(fired, dtype=np.int64)
        if self.flows is not None:
            fired = self.flows[fired]
        return fired, np.array(counts, dtype=np.int64)


def run_epochs(state: StreamState, count: int) -> StreamState:
    """Advance `count` epochs, folding each epoch's counts into x and y in
    place; one epoch is run_epochs(state, 1). The counts equal
    `rng.poisson(rates * tau)` on the epoch's generator (see the module
    docstring), and only the flows that fired are folded in, O(d) each.
    Composition is exact: run_epochs(s, a+b) equals
    run_epochs(run_epochs(s, a), b) because each epoch draws from its own
    substream."""
    check_window(count, state.tau, least=0)
    for _ in range(count):
        flows, counts = state._plan.draw(_epoch_rng(state.seed, state.n_epochs))
        if flows.size:
            state.x[flows] += counts
            np.add.at(state.y, state.graph.columns[flows].ravel(),
                      np.repeat(counts, state.graph.d))
        state.n_epochs += 1
    return state
