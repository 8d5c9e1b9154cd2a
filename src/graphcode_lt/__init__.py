"""Loss-tolerant graph codes: decoding, fusion, and architecture analysis."""

# bound before the submodules import: search checkpoints key on it,
# and CLI artifacts are stamped with it
__version__ = "0.1.0"

from .pauli import (
    MeasurementPattern,
    PauliOperator,
    PauliSpan,
    commutes_qubitwise,
)
from .graphs import (
    Graph,
    canonical_form,
    canonical_key,
    graph_state_generators,
    lc_orbit,
    local_complement,
)
from .codes import (
    GraphCode,
    InvalidCodeError,
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
    tree_progenitor,
)
from .opsets import (
    EXHAUSTIVE_LIMIT,
    ResourceLimitError,
    enumerate_nontrivial,
    stabilizer_group,
)
from .polynomials import LossPolynomial, break_even
from .losstree import (
    DecisionTree,
    build_arbitrary_tree,
    build_pauli_tree,
    decode,
    load_or_build,
    monte_carlo_decode,
    success_polynomial,
    total_polynomial,
)
from .errordecode import (
    ErrorAnalysis,
    depolarizing,
    error_threshold,
    fault_probability,
    logical_flip_rates,
)
from .fusion import (
    AdaptiveFusionAnalysis,
    FusionModel,
    LogicalFusionResult,
    adaptive_fusion,
    transversal_fusion,
)
from .modular import (
    LayerStack,
    StackResult,
    fixed_point_threshold,
    logical_transmission,
    optimize_stack,
    stack_flip_rates,
)
from .apps import fbqc_loss_threshold, rgs_link_probability
from .search import (
    Objective,
    ScoredCandidate,
    SearchResult,
    enumerate_candidates,
    evaluate_objective,
    optimize,
    unrooted_representatives,
)
