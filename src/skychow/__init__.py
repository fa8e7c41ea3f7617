"""Exact Chow ring arithmetic for sequences of point blow-ups of P^n.

The package computes presentations of the Chow ring of the variety at the
top of a blow-up sequence, canonical normal forms and intersection numbers
in both the total and strict transform bases, finality of exceptional
divisors by two independent routes, and cross-checks everything against a
brute-force graded lattice oracle over the integers.
"""

from .chowring import (
    ChowElement,
    Presentation,
    degree_integral,
    from_divisor,
    graded_rank,
    normal_form,
    rho,
    sparse_product,
    strict_presentation,
    total_presentation,
)
from .curve import (
    CurveCheckReport,
    CurveRingElement,
    CurveRingParams,
    curve_ideal,
    curve_ideal_generators,
    curve_normal_form,
    curve_ring_checks,
)
from .finality import (
    DivisorFinality,
    FinalityReport,
    final_by_chow,
    final_by_proximity,
    finality_report,
    intersecting_indices,
)
from .oracle import (
    GradedIdeal,
    HermiteLattice,
    membership,
    minimal_generator_count,
    quotient_rank,
    quotient_structure,
    reduce,
)
from .poly import Polynomial, format_polynomial, monomials_of_degree
from .proximity import (
    DivisorVector,
    InvalidConfigError,
    ProximityConfig,
    augmented_change_of_basis,
    change_of_basis,
    enumerate_proximity_configs,
    invert_unitriangular,
    strict_class_in_total,
    strict_to_total,
    total_to_strict,
    validate_config,
)

__version__ = "0.1.0"
