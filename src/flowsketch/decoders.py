"""The one decode path shared by `flowsketch recover` and the sweep.

Every layer decodes one `Observation`, counters and window held to their
rules once, when it is built. `decode` turns one into a rate estimate with
one of the three decoders and hands back the solver's own result next to
the estimate, so callers print or score from it without knowing how the
decoder is wired. The names and modes a command line checks live here at
module scope; `decode` imports the solvers, and `Observation` the window
rule, when first run, so a command that never decodes loads neither.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import graph
from .graph import BipartiteGraph

if TYPE_CHECKING:
    from .lp import LpSolution
    from .pmle import PmleResult

__all__ = ["DECODERS", "PENALTY_MODES", "DecodeSpec", "Decoded",
           "Observation", "check_decoder", "decode"]

DECODERS = ("direct", "pmle-exhaustive", "pmle-reduced")

# the code lengths PmleConfig accepts and its pen_of_size charges
PENALTY_MODES = ("l0-scaled", "uniform")


def check_decoder(name) -> None:
    """The one rule for a decoder name: one of DECODERS. Raises ValueError
    otherwise."""
    if name not in DECODERS:
        raise ValueError(f"unknown decoder {name!r}; choose from {DECODERS}")


@dataclass(frozen=True)
class DecodeSpec:
    """What to decode with; the pmle defaults of every entry point are read
    from here. The pmle decoders need the whale count k and the l1 budget
    l0; basis pursuit runs at its data-scaled default tolerances."""

    decoder: str = "direct"
    k: Optional[int] = None
    l0: Optional[float] = None
    gamma: float = 1.0
    levels: int = 64
    penalty_mode: str = "l0-scaled"

    def __post_init__(self):
        check_decoder(self.decoder)
        if self.decoder != "direct" and (self.k is None or self.l0 is None):
            raise ValueError(f"decoder {self.decoder} requires k and l0")


@dataclass(frozen=True, eq=False)  # y is an array: no field-wise ==
class Observation:
    """The counters y of bank g after `epochs` epochs of length tau, y
    copied once into a read-only float64 array. Raises ValueError unless y
    holds one finite, nonnegative entry per counter of g (the counters
    rule), then unless (epochs, tau) passes `stream.check_window`."""

    g: BipartiteGraph
    y: np.ndarray
    epochs: int
    tau: float

    def __post_init__(self):
        from .stream import check_window

        y = np.array(self.y, dtype=np.float64)
        if y.shape != (self.g.n_right,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.g.n_right},)")
        if not (y.min() >= 0 and y.max() < np.inf):  # a NaN fails both
            j = int(np.flatnonzero(~(np.isfinite(y) & (y >= 0)))[0])
            raise ValueError(
                f"counter {j} is {float(y[j])}; counters must be finite and nonnegative"
            )
        check_window(self.epochs, self.tau)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def scale(self) -> float:
        """The window's length: a rate lam adds scale*lam to its counters."""
        return self.epochs * self.tau


@dataclass
class Decoded:
    estimate: np.ndarray  # rates, length n_flows
    result: "LpSolution | PmleResult"


def decode(obs: Observation, spec: DecodeSpec,
           cover: Optional[np.ndarray] = None) -> Decoded:
    """Estimate per-flow rates from an observation.

    cover is the greedy cover of obs.g, its sorted flows; the pmle
    decoders compute it when it is not given, and refuse one that is not
    sorted, distinct flows of the graph before any solve. Raises
    ValueError, before any cover or solver runs, unless a pmle spec
    passes `PmleConfig.from_problem` and then, for pmle-exhaustive, the
    exhaustive guard `PmleConfig.check_exhaustive` over all N flows (a
    CandidateCountError); and lp.NumericalError when basis pursuit finds
    y unreachable.
    """
    from . import lp, pmle

    g = obs.g
    if spec.decoder == "direct":
        sol = lp.basis_pursuit(obs)
        if sol.status == "infeasible":
            raise lp.NumericalError("basis pursuit reported infeasible")
        return Decoded(lp.direct_estimate(sol, obs), sol)
    cfg = pmle.PmleConfig.from_problem(
        n_flows=g.n_left, k=spec.k, l0=spec.l0, gamma=spec.gamma,
        levels=spec.levels, penalty_mode=spec.penalty_mode,
    )
    if spec.decoder == "pmle-exhaustive":
        cfg.check_exhaustive(g.n_left)
    if cover is None:
        cover = graph.greedy_cover(g)
    if spec.decoder == "pmle-exhaustive":
        res = pmle.pmle_exhaustive(obs, cfg, np.arange(g.n_left), cover)
    else:
        loc = pmle.localize_whales(obs, spec.k)
        res = pmle.pmle_reduced(obs, loc, cfg, cover)
    return Decoded(res.rates, res)
