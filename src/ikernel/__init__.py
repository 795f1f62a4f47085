"""Exact invariant-ring computations.

Sparse rational polynomials, exact linear algebra over monomial frames,
derivation kernels, graded subalgebra membership with certificates,
integrality searches, and a reproducible verification harness.
"""

from .actions import (
    CuspInstance,
    Instance,
    ParametricSubstitution,
    build_cusp_instance,
    build_instance,
    check_group_law,
    derive_composition_rule,
    infinitesimal,
    invariant_subspace,
    is_invariant,
    substitution_stabilizes,
)
from .algebra import (
    GradedBasis,
    MembershipCertificate,
    NotHomogeneous,
    SubalgebraSpec,
    decomposable_span,
    graded_piece,
    indecomposable_generators,
    intersect_with_subring,
    membership,
    monomial_membership,
    y_positive_monomial_algebra,
)
from .derivation import (
    Derivation,
    InhomogeneousDerivation,
    PreservationResult,
    kernel_graded_basis,
    preserves_subalgebra,
)
from .exactlin import SpanBasis
from .harness import (
    ScenarioConfig,
    ScenarioReport,
    list_scenarios,
    run_scenario,
    verify_report,
)
from .integrality import (
    LocalizationCertificate,
    RelationCertificate,
    algebraic_relation_search,
    integral_relation_search,
    localization_contains,
    non_integrality_by_specialization,
    transcendental_over_constants,
)
from .poly import (
    Monomial,
    ParseError,
    Polynomial,
    VarSystem,
    VarSystemMismatch,
    format_polynomial,
    monomials_of_degree,
    parse_polynomial,
)

__version__ = "0.1.0"
