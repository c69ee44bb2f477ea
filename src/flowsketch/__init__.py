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
    CoverSet,
    EnumerationCapExceeded,
    ExpansionReport,
    GraphConstructionError,
    apply_adjacency,
    build_graph_with_cover,
    build_random_expander,
    greedy_cover,
    load_graph,
    save_graph,
    verify_expansion,
)
from .lp import LpSolution, NumericalError, basis_pursuit, direct_estimate
from .metrics import (
    KTermDecomposition,
    RelativeError,
    RiskEstimate,
    best_k_term,
    empirical_risk,
    positive_clip,
    relative_l1_error,
    support_recovery_success,
    top_k_indices,
)
from .pmle import (
    KRAFT_CONSTANT,
    CandidateCountError,
    CandidateSet,
    KraftAudit,
    PmleConfig,
    PmleResult,
    SparseSolveResult,
    WhaleLocalization,
    kraft_audit,
    localize_whales,
    neg_log_likelihood,
    penalty,
    pmle_exhaustive,
    pmle_reduced,
    sparse_poisson_solve,
)
from .stream import (
    Dist,
    HeavyTailCheck,
    HeavyTailParams,
    RateVector,
    SignalSpec,
    StreamState,
    advance_epoch,
    check_heavy_tail,
    counters_consistent,
    gen_rates,
    parse_dist,
    run_epochs,
)

__version__ = "0.1.0"
