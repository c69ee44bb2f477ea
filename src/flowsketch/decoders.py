"""The one decode path shared by `flowsketch recover` and the sweep.

`decode` turns a counter vector into a rate estimate with one of the three
decoders and hands back the solver's own result next to the estimate, so
callers print or score from it without knowing how the decoder is wired.
The names and modes a command line checks live here at module scope;
`decode` imports the solvers when it first runs, so a command that never
decodes does not load them.
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
           "check_decoder", "decode"]

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


@dataclass
class Decoded:
    estimate: np.ndarray  # rates, length n_flows
    result: "LpSolution | PmleResult"


def decode(
    g: BipartiteGraph,
    y: np.ndarray,
    epochs: int,
    tau: float,
    spec: DecodeSpec,
    cover: Optional[np.ndarray] = None,
) -> Decoded:
    """Estimate per-flow rates from counters y observed over `epochs`
    epochs of length tau.

    cover is the greedy cover of g, its sorted flows; the pmle decoders
    compute it when it is not given, and refuse one that is not sorted,
    distinct flows of g before any solve. Raises ValueError, before any
    cover or solver runs, unless y passes `pmle.checked_counters`, then
    (epochs, tau) `stream.check_window`, then a pmle spec
    `PmleConfig.from_problem`, then, for pmle-exhaustive, the exhaustive
    guard `PmleConfig.check_exhaustive` over all N flows (a
    CandidateCountError); and lp.NumericalError when basis pursuit finds y
    unreachable.
    """
    from . import lp, pmle
    from .stream import check_window

    y = pmle.checked_counters(y, g)
    check_window(epochs, tau)
    if spec.decoder == "direct":
        sol = lp.basis_pursuit(g, y)
        if sol.status == "infeasible":
            raise lp.NumericalError("basis pursuit reported infeasible")
        return Decoded(lp.direct_estimate(sol, epochs, tau), sol)
    cfg = pmle.PmleConfig.from_problem(
        n_flows=g.n_left, k=spec.k, l0=spec.l0, gamma=spec.gamma,
        levels=spec.levels, penalty_mode=spec.penalty_mode,
    )
    if spec.decoder == "pmle-exhaustive":
        cfg.check_exhaustive(g.n_left)
    if cover is None:
        cover = graph.greedy_cover(g)
    scale = epochs * tau
    if spec.decoder == "pmle-exhaustive":
        res = pmle.pmle_exhaustive(y, g, cfg, np.arange(g.n_left), cover, scale)
    else:
        loc = pmle.localize_whales(y, g, spec.k)
        res = pmle.pmle_reduced(y, g, loc, cfg, cover, scale)
    return Decoded(res.rates, res)
