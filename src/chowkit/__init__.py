"""chowkit: exact intersection-theory arithmetic and sheaf-bound toolkit.

The package computes, entirely in exact rational arithmetic, the numeric
invariants attached to sheaves on P^2 and P^3: Chern characters and their
calculus (products, twists, duals, restriction, pushforward,
Riemann-Roch), splitting-type enumeration, explicit cohomology and ch_3
bounds, two-term resolution shapes of rank-two reflexive sheaves, linear
monad shapes of normalized sheaves on P^2, partition-type stratum labels,
and a deterministic catalog/CLI layer tying them together.

The public names are imported lazily (PEP 562): ``import chowkit`` loads
no module of the package, and the first use of a name imports the module
that defines it.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "bounds": (
        "BoundReport", "bound_report", "ch3_bound", "enumerate_admissible_c3",
        "euler_bound", "extreme_bounds", "h0_line_bundle", "p3_bounds",
    ),
    "catalog": (
        "SCHEMA_VERSION", "CatalogEntry", "bounds_catalog", "canonical_lines",
        "document_pieces", "parse_catalog", "serialize_catalog", "serialize_entry",
    ),
    "chow": (
        "ChernCharacter", "ChernClasses", "as_rational", "ch_line_bundle",
        "character_to_chern", "chern_to_character", "dual", "euler_characteristic", "mul",
        "parse_rational", "pushforward_from_hyperplane", "rational_str",
        "restrict_to_hyperplane", "todd", "twist",
    ),
    "errors": (
        "DimensionMismatchError", "DomainError", "InadmissibleParameterError",
        "IntegralityError", "NotRealizableError", "RankMismatchError",
        "UnsupportedDimensionError",
    ),
    "monads": (
        "MonadShape", "PartitionType", "charge", "is_normalized", "monad_shape",
        "partition_types",
    ),
    "resolutions": (
        "PresentationReport", "admissible_s", "format_term", "max_admissible_s",
        "presentation_report", "resolution_shapes", "verify_resolution_chern",
    ),
    "splitting": (
        "SplittingType", "enumerate_splitting_types", "splitting_radius",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module on first use and keep the name here.

    A submodule's name imports the submodule, so ``chowkit.catalog`` works
    after a plain ``import chowkit``.
    """
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
