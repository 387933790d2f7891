"""Exact arithmetic for the graded ring of truncation-compatible
polynomial families, its t0-extension with two products, and the
attached operad machinery with verification suites."""

from .poly import (
    IncreasingMap,
    ParseError,
    Polynomial,
    enumerate_increasing_maps,
    format_polynomial,
    parse_polynomial,
    pullback,
    pushforward,
)
from .ring import (
    NotInRingError,
    RdElement,
    RElement,
    check_component,
    decode_rd,
    project_to_level,
    r_mul,
    restrict_level,
)
from .rt0 import (
    ClassConstants,
    ConsistencyError,
    InvalidElementError,
    RT0Element,
    class_constants,
    dot_mul,
    dot_power,
    iota,
    leading_term_check,
    monomials_of_degree,
    odot,
    odot_basis_expand,
    odot_basis_expand_iota,
    q_k,
    structure_words,
    substitute_class,
)
from .base import (
    BaseOperadConfig,
    ConfigError,
    GradedAlgebra,
    load_config,
    rank2_base,
    trivial_base,
)
from .superops import (
    DualBasisPair,
    SuperSpace,
    SuperTensor,
    es_axiom_check,
    es_compose,
    es_permute,
    pair,
    vowa_check,
    vowa_exhaustive,
)
from .mtilde import (
    MTildeElement,
    act,
    compose,
    important_b_check,
    morphism_F,
    mt_mul,
    operad_axiom_check,
    psi_phi_classes,
)

__version__ = "0.1.0"
