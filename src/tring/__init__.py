"""Exact arithmetic for the graded ring of truncation-compatible
polynomial families, its t0-extension with two products, and the
attached operad machinery with verification suites.

Importing the package loads none of its submodules.  A name below, or a
submodule, is imported on its first access (PEP 562) and looked up in
its module on every access, so the package keeps no copy of a function
that a test or a tracer may rebind in its module.
"""

import importlib

__version__ = "0.1.0"

# the names the package re-exports, by the submodule that defines them
_EXPORTS = {
    "poly": (
        "IncreasingMap",
        "ParseError",
        "Polynomial",
        "enumerate_increasing_maps",
        "format_polynomial",
        "parse_polynomial",
        "pullback",
        "pushforward",
    ),
    "ring": (
        "NotInRingError",
        "RdElement",
        "RElement",
        "check_component",
        "decode_rd",
        "project_to_level",
        "r_mul",
        "restrict_level",
    ),
    "rt0": (
        "ClassConstants",
        "ConsistencyError",
        "InvalidElementError",
        "RT0Element",
        "class_constants",
        "dot_mul",
        "dot_power",
        "iota",
        "leading_term_check",
        "monomials_of_degree",
        "odot",
        "odot_basis_expand",
        "odot_basis_expand_iota",
        "q_k",
        "structure_words",
        "substitute_class",
    ),
    "base": (
        "BaseOperadConfig",
        "ConfigError",
        "GradedAlgebra",
        "load_config",
        "rank2_base",
        "trivial_base",
    ),
    "superops": (
        "DualBasisPair",
        "SuperSpace",
        "SuperTensor",
        "es_axiom_check",
        "es_compose",
        "es_permute",
        "pair",
        "vowa_check",
        "vowa_exhaustive",
    ),
    "mtilde": (
        "MTildeElement",
        "act",
        "compose",
        "important_b_check",
        "morphism_F",
        "mt_mul",
        "operad_axiom_check",
        "psi_phi_classes",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("poly", "ring", "rt0", "linalg", "base", "superops", "mtilde")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
