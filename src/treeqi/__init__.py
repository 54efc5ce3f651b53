"""Self quasi-isometries of finite regular-tree truncations.

Tree addresses and ball sizes, exact quasi-isometry constant measurement
over explicit maps, the level-by-level mixed-subtree construction with
pluggable policies, and the two constructive conversions between map
families (order-preserving normalization and mixed-subtree approximation).
The names exported here are the public API that README lists.
"""

from .errors import (
    BudgetExceededError,
    DepthLimitError,
    InvalidAddressError,
    MapDomainError,
    MapFormatError,
    PolicyError,
    PreconditionError,
    ShapeMismatchError,
    TreeQIError,
    ValidationFailure,
)
from .mapfile import (
    dump_map_text,
    parse_map_file,
    parse_map_text,
    parse_trace_file,
    write_map_file,
    write_trace_file,
)
from .mixed_builder import (
    BuildTrace,
    ClassTrace,
    LevelClass,
    MixedPolicy,
    MixedStructureReport,
    StructureWitness,
    assign_images,
    build_mixed,
    check_assignment,
    feasible_boundary_sizes,
    verify_mixed_structure,
)
from .oracle import oracle_measure
from .qi_map import (
    EXHAUSTIVE,
    FiniteTreeMap,
    PairSource,
    VerificationReport,
    Violation,
    check_geodesic_image,
    check_same_depth,
    coarse_surjectivity_radius,
    compose,
    constant_map,
    finish_report,
    identity_map,
    is_order_preserving,
    levelwise_permutation_map,
    map_from_function,
    measure_qi,
    pair_min_C,
    perturb_map_in_subtree,
    random_automorphism_map,
    random_levelwise_permutation_map,
    random_map,
    sup_distance,
)
from .transforms import (
    ConstantsBundle,
    PromiseWarning,
    approximate_by_mixed,
    constants,
    measure_promise,
    normalize_order_preserving,
)
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    MAX_DEPTH,
    ROOT,
    TreeShape,
    Vertex,
    ball_size,
    format_address,
    parse_address,
    validate_address,
)

__version__ = "0.1.0"
