"""Exact-arithmetic toolkit for twisted coordinate rings of finite power
endomorphisms of projective space, and for the divisor dynamics that decide
one-sided ampleness of the associated twist sequences.

Submodules load on first use: ``import thcr`` imports none of them, and
``thcr.X`` (or ``from thcr import X``) imports only the module that owns X.
"""

__version__ = "0.7.0"

_EXPORTS = {
    "cohomology": (
        "LeftScanResult",
        "RightScanResult",
        "h",
        "left_vanishing_scan",
        "right_vanishing_scan",
    ),
    "dynamics": (
        "AmplenessReport",
        "CurveFunctional",
        "DivisorClass",
        "NonLeftAmpleWitness",
        "NumericalActionSpec",
        "Verdict",
        "WitnessSearchExhausted",
        "classify_ampleness",
        "non_left_ample_witness",
        "orbit_pairings",
        "pairing",
    ),
    "intlinalg": (
        "IntMatrix",
        "IntPolynomial",
        "RationalInterval",
        "SingularMatrixError",
        "char_poly",
        "count_real_roots_above",
        "det",
        "is_quasi_unipotent",
        "spectral_radius_interval",
    ),
    "ring": (
        "BudgetExceededError",
        "DecompositionWitness",
        "GradeError",
        "GrowthClass",
        "Monomial",
        "PowerRingSpec",
        "generator_degrees",
        "grade_dimension",
        "grade_of_degree",
        "growth_class",
        "twist_degree",
        "twisted_product",
    ),
}
_SUBMODULES = ("citations", *_EXPORTS)
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_OWNER])


def _submodule(name):
    # __import__ rather than importlib.import_module, so that the load shows
    # up under `python -X importtime`; importing it binds it in globals().
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_submodule(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
