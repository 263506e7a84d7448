"""Exact-arithmetic toolkit for twisted coordinate rings of finite power
endomorphisms of projective space, and for the divisor dynamics that decide
one-sided ampleness of the associated twist sequences."""

__version__ = "0.1.0"

from .cohomology import (
    LeftScanResult,
    RightScanResult,
    h,
    left_vanishing_scan,
    right_vanishing_scan,
)
from .dynamics import (
    AmplenessReport,
    CurveFunctional,
    DivisorClass,
    GrowthFit,
    NonLeftAmpleWitness,
    NumericalActionSpec,
    Verdict,
    WitnessSearchExhausted,
    classify_ampleness,
    degree_consistency,
    delta_sequence,
    growth_bound_check,
    non_left_ample_witness,
    orbit_pairings,
    pairing,
)
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    NoRealEigenvalueError,
    NotAnEigenvalueError,
    RationalInterval,
    SingularMatrixError,
    char_poly,
    count_real_roots_above,
    cyclotomic,
    det,
    is_quasi_unipotent,
    jordan_growth_exponent,
    spectral_radius_interval,
)
from .ring import (
    BudgetExceededError,
    DecompositionWitness,
    GradeError,
    GrowthClass,
    Monomial,
    PowerRingSpec,
    associativity_check,
    generator_degrees,
    grade_dimension,
    grade_of_degree,
    growth_class,
    monomials,
    random_monomial,
    twist_degree,
    twisted_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
