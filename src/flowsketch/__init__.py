"""Per-flow Poisson rate estimation from compressed counter banks.

N packet flows are folded into M << N counters through a sparse random
left-regular bipartite graph. Two decoders recover per-flow rates from
the counters: basis pursuit (minimum-l1 preimage, then clip and rescale)
and a penalized maximum-likelihood search over a quantized candidate
grid, optionally restricted to the flows singled out by counter-ranking
whale localization.

The names below load on first use: `import flowsketch` imports no
submodule, and reading `flowsketch.decode` or `flowsketch.lp` imports
the module that defines it.
"""

import importlib

# the module each public name is read from
_HOME = {
    **dict.fromkeys(("DecodeSpec", "Decoded", "Observation", "decode"),
                   "decoders"),
    **dict.fromkeys((
        "BipartiteGraph", "EnumerationCapExceeded", "ExpansionReport",
        "GraphConstructionError", "build_graph_with_cover",
        "build_random_expander", "greedy_cover", "load_graph", "save_graph",
        "verify_expansion"), "graph"),
    **dict.fromkeys(("LpSolution", "NumericalError", "basis_pursuit",
                     "direct_estimate"), "lp"),
    **dict.fromkeys((
        "RelativeError", "best_k_term", "positive_clip", "relative_l1_error",
        "support_recovery_success", "top_k_indices"), "metrics"),
    **dict.fromkeys((
        "KRAFT_CONSTANT", "CandidateCountError", "PmleConfig", "PmleResult",
        "SparseSolveResult", "WhaleLocalization", "localize_whales",
        "pmle_exhaustive", "pmle_reduced", "sparse_poisson_solve"), "pmle"),
    **dict.fromkeys((
        "Dist", "RateVector", "SignalSpec", "StreamState", "gen_rates",
        "parse_dist", "run_epochs"), "stream"),
}
__all__ = list(_HOME)
_SUBMODULES = ("cli", "decoders", "experiment", "graph", "lp", "metrics",
               "pmle", "seeds", "stream")

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
