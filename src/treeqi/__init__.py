"""Self quasi-isometries of finite regular-tree truncations.

Tree addresses and ball sizes, exact quasi-isometry constant measurement
over explicit maps, the level-by-level mixed-subtree construction with
pluggable policies, and the two constructive conversions between map
families (order-preserving normalization and mixed-subtree approximation).
The names exported here are the public API that README lists.

Each name is imported from its module on first use (PEP 562), and so is
each submodule, so a process compiles only the modules it runs: `python -m
treeqi verify` never compiles the construction or the conversions.
"""

import importlib

# the public names of each module, read on first use
_EXPORTS = {
    "errors": (
        "BudgetExceededError DepthLimitError InvalidAddressError MapDomainError MapFormatError "
        "PolicyError PreconditionError ShapeMismatchError TreeQIError ValidationFailure"
    ),
    "mapfile": (
        "dump_map_text parse_map_file parse_map_text parse_trace_file write_map_file "
        "write_trace_file"
    ),
    "mixed_builder": (
        "BuildTrace ClassTrace LevelClass MixedPolicy MixedStructureReport StructureWitness "
        "assign_images build_mixed check_assignment feasible_boundary_sizes "
        "verify_mixed_structure"
    ),
    "oracle": "oracle_measure",
    "pair_source": "EXHAUSTIVE PairSource",
    "qi_map": "check_geodesic_image check_same_depth finish_report measure_qi pair_min_C",
    "report": "VerificationReport Violation",
    "transforms": (
        "ConstantsBundle PromiseWarning approximate_by_mixed constants measure_promise "
        "normalize_order_preserving"
    ),
    "tree_core": (
        "DEFAULT_VERTEX_BUDGET MAX_DEPTH ROOT TreeShape Vertex ball_size format_address "
        "parse_address validate_address"
    ),
    "tree_map": (
        "FiniteTreeMap coarse_surjectivity_radius compose constant_map identity_map "
        "is_order_preserving levelwise_permutation_map map_from_function perturb_map_in_subtree "
        "random_automorphism_map random_levelwise_permutation_map random_map sup_distance"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name from its module, kept here once read; or a submodule."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as e:
        if e.name != f"{__name__}.{name}":  # a module that exists failed to import
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
