"""Per-flow Poisson rate estimation from compressed counter banks.

N packet flows are folded into M << N counters through a sparse random
left-regular bipartite graph. Two decoders recover per-flow rates from
the counters: basis pursuit (minimum-l1 preimage, then clip and rescale)
and a penalized maximum-likelihood search over a quantized candidate
grid, optionally restricted to the flows singled out by counter-ranking
whale localization.
"""

from .decoders import DecodeSpec, Decoded, decode
from .graph import (
    BipartiteGraph,
    EnumerationCapExceeded,
    ExpansionReport,
    GraphConstructionError,
    build_graph_with_cover,
    build_random_expander,
    greedy_cover,
    load_graph,
    save_graph,
    verify_expansion,
)
from .lp import LpSolution, NumericalError, basis_pursuit, direct_estimate
from .metrics import (
    RelativeError,
    best_k_term,
    positive_clip,
    relative_l1_error,
    support_recovery_success,
    top_k_indices,
)
from .pmle import (
    KRAFT_CONSTANT,
    CandidateCountError,
    CandidateSet,
    PmleConfig,
    PmleResult,
    SparseSolveResult,
    WhaleLocalization,
    localize_whales,
    pmle_exhaustive,
    pmle_reduced,
    sparse_poisson_solve,
)
from .stream import (
    Dist,
    RateVector,
    SignalSpec,
    StreamState,
    advance_epoch,
    gen_rates,
    parse_dist,
    run_epochs,
)

__version__ = "0.1.0"
