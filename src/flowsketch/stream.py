"""Poisson packet streams over a counter bank.

Flows emit packets as independent Poisson processes; per-epoch packet
counts are drawn for all N flows at once and folded into both the exact
per-flow tally and the M compressed counters. Epoch e of a stream seeded
with s uses the counter-based substream Philox(key=[s, e]), so a stream
advanced epoch by epoch matches one advanced in a single call, and any
epoch can be regenerated in isolation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import BipartiteGraph
from .metrics import top_k_indices

__all__ = [
    "Dist",
    "RateVector",
    "SignalSpec",
    "StreamState",
    "advance_epoch",
    "gen_rates",
    "parse_dist",
    "run_epochs",
]

_MASK64 = (1 << 64) - 1


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

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
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

    whale_support holds the k largest realized rates (ties to lowest
    index), which for abs-gaussian minnows may not coincide with the
    planted whale positions; success metrics compare against what was
    actually largest.
    """

    rates: np.ndarray
    whale_support: np.ndarray
    k: int

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=np.float64)
        if (r < 0).any() or not np.isfinite(r).all():
            raise ValueError("rates must be finite and nonnegative")
        s = np.asarray(self.whale_support, dtype=np.int64)
        r.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "whale_support", s)

    @classmethod
    def from_rates(cls, rates: np.ndarray, k: int) -> "RateVector":
        rates = np.asarray(rates, dtype=np.float64)
        return cls(rates=rates, whale_support=top_k_indices(rates, k), k=k)

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
    return RateVector.from_rates(rates, k)


@dataclass
class StreamState:
    """Mutable simulation state: epoch counter, exact flow tallies x, and
    counter contents y = A x (an exact integer identity, not an estimate)."""

    graph: BipartiteGraph
    rates: RateVector
    tau: float
    seed: int
    n_epochs: int = 0
    x: np.ndarray = field(default=None)
    y: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.rates.n_flows != self.graph.n_left:
            raise ValueError(
                f"{self.rates.n_flows} rates for {self.graph.n_left} flows"
            )
        if not self.tau > 0:
            raise ValueError(f"epoch length must be positive, got {self.tau}")
        if self.x is None:
            self.x = np.zeros(self.graph.n_left, dtype=np.int64)
        if self.y is None:
            self.y = np.zeros(self.graph.n_right, dtype=np.int64)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, epoch & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def advance_epoch(state: StreamState) -> StreamState:
    """Draw one epoch of packet counts and fold them into x and y in place.

    Counters are updated incrementally (O(d) per active flow), not by
    re-multiplying the adjacency matrix.
    """
    rng = _epoch_rng(state.seed, state.n_epochs)
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
    return state


def run_epochs(state: StreamState, count: int) -> StreamState:
    """Advance `count` epochs. Composition is exact: run_epochs(s, a+b)
    equals run_epochs(run_epochs(s, a), b) because each epoch draws from
    its own substream."""
    if count < 0:
        raise ValueError(f"epoch count must be >= 0, got {count}")
    for _ in range(count):
        advance_epoch(state)
    return state

