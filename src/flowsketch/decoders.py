"""The one decode path shared by `flowsketch recover` and the sweep.

`decode` turns a counter vector into a rate estimate with one of the three
decoders and hands back the solver's own result next to the estimate, so
callers print or score from it without knowing how the decoder is wired.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import graph, lp, pmle
from .graph import BipartiteGraph, CoverSet

__all__ = ["DECODERS", "DecodeSpec", "Decoded", "decode"]

DECODERS = ("direct", "pmle-exhaustive", "pmle-reduced")


@dataclass(frozen=True)
class DecodeSpec:
    """What to decode with. The pmle decoders need the whale count k and
    the l1 budget l0 of their candidates; tol_feas, tol_obj and iter_cap
    go to basis pursuit, None meaning its data-scaled default."""

    decoder: str = "direct"
    k: Optional[int] = None
    l0: Optional[float] = None
    gamma: float = 1.0
    levels: int = 64
    penalty_mode: str = "l0-scaled"
    tol_feas: Optional[float] = None
    tol_obj: Optional[float] = None
    iter_cap: Optional[int] = None

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(
                f"unknown decoder {self.decoder!r}; choose from {DECODERS}"
            )
        if self.decoder != "direct" and (self.k is None or self.l0 is None):
            raise ValueError(f"decoder {self.decoder} requires k and l0")


@dataclass
class Decoded:
    estimate: np.ndarray  # rates, length n_flows
    result: Union[lp.LpSolution, pmle.PmleResult]


def decode(
    g: BipartiteGraph,
    y: np.ndarray,
    epochs: int,
    tau: float,
    spec: DecodeSpec,
    cover: Optional[CoverSet] = None,
) -> Decoded:
    """Estimate per-flow rates from counters y observed over `epochs`
    epochs of length tau.

    cover is the greedy cover of g; the pmle decoders compute it when it
    is not given. Raises ValueError, before any solver runs, unless y
    holds one finite, nonnegative entry per counter, and lp.NumericalError
    when basis pursuit finds y unreachable.
    """
    y = np.asarray(y)
    if y.shape != (g.n_right,):
        raise ValueError(f"y has shape {y.shape}, expected ({g.n_right},)")
    bad = np.flatnonzero(~(np.isfinite(y) & (y >= 0)))
    if bad.size:
        raise ValueError(
            f"counter {int(bad[0])} is {float(y[bad[0]])}; "
            "counters must be finite and nonnegative"
        )
    if spec.decoder == "direct":
        sol = lp.basis_pursuit(g, y, spec.tol_feas, spec.tol_obj, spec.iter_cap)
        if sol.status == "infeasible":
            raise lp.NumericalError("basis pursuit reported infeasible")
        return Decoded(lp.direct_estimate(sol, epochs, tau), sol)
    if cover is None:
        cover = graph.greedy_cover(g)
    cfg = pmle.PmleConfig.from_problem(
        n_flows=g.n_left, k=spec.k, l0=spec.l0, cover=cover,
        gamma=spec.gamma, levels=spec.levels,
    )
    scale = epochs * tau
    if spec.decoder == "pmle-exhaustive":
        cs = pmle.CandidateSet(
            universe=np.arange(g.n_left), grid_step=cfg.grid_step,
            n_levels=cfg.n_levels, penalty_mode=spec.penalty_mode,
        )
        res = pmle.pmle_exhaustive(y, g, cs, cfg, scale)
    else:
        loc = pmle.localize_whales(y, g, spec.k)
        res = pmle.pmle_reduced(y, g, loc, cfg, scale,
                                penalty_mode=spec.penalty_mode)
    return Decoded(res.rates, res)
