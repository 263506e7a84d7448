"""Dynamics of divisor classes under an integer pullback action.

The action is an invertible integer matrix on the numerical divisor group
Z^l, together with a list of curve functionals describing positivity: a
class counts as ample here exactly when it pairs strictly positively with
every supplied curve.  That convention is faithful when the curve list is
a full dual description of the nef cone (as for toric inputs) and an
approximation otherwise.

The witness search for the failure of left ampleness reads the gaps
between the partial sums of D's orbit and H's orbit from one orbit per
curve, that of u = D + H - P H, whose partial sums telescope to them; H's
orbit is built to the horizon only when the multiplier k = 1 fails.  Next
to it this module builds the left/right ampleness classifier.  Its exact
certificates:

* an invertible integer action whose eigenvalues do not all lie on the
  unit circle has spectral radius strictly above one (unit-circle algebraic
  integers are roots of unity), which rules out left ampleness;
* an eigenvector that is positive against every curve, with integer
  eigenvalue >= 1, certifies right ampleness;
* when all eigenvalues are roots of unity the action behaves like an
  automorphism, where left and right ampleness agree but depend on
  eventual ampleness of the twist sequence, which numerical data alone
  cannot decide; a user-supplied flag asserts it.
"""

from __future__ import annotations

import enum
import operator
from itertools import accumulate

from . import citations
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    NoRealEigenvalueError,
    RationalInterval,
    char_poly,
    count_real_roots_above,
    is_quasi_unipotent,
    spectral_radius_interval,
)
from .ring import _exact_int, _Record, _setattr

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

# The largest multiple k of the ample class the witness search tries
MAX_WITNESS_MULTIPLIER = 2**16


class WitnessSearchExhausted(RuntimeError):
    """No witness found within the configured search bounds."""


class UnsupportedActionError(ValueError):
    """The requested computation is not supported on this action."""


class DivisorClass(_Record):
    """Coordinates of a divisor class in the numerical group Z^l.

    ``coords`` may be any iterable of integers and is stored as a tuple of
    ints: bools, floats and strings raise ``TypeError``.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        _setattr(self, "coords", _int_row(coords, "divisor entry"))

    def scaled(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * c for c in self.coords))


class CurveFunctional(_Record):
    """Intersection-with-a-curve functional; pairing is the dot product.

    ``coords`` is stored as a tuple of ints, checked as ``DivisorClass``'s.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        _setattr(self, "coords", _int_row(coords, "curve entry"))


def pairing(divisor: DivisorClass, curve: CurveFunctional) -> int:
    if len(divisor.coords) != len(curve.coords):
        raise ValueError("divisor and curve live in different ranks")
    return sum(map(operator.mul, divisor.coords, curve.coords))


def _int_row(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints: plain ints as they are, others by ``_exact_int``."""
    row = tuple(values)
    if all(type(x) is int for x in row):
        return row
    return tuple([_exact_int(name, x) for x in row])


# the keys of a spec document, as NumericalActionSpec.from_json_dict reads them
_SPEC_KEYS = ("P", "curves", "dimX", "degSigma", "ampleFlag")


class NumericalActionSpec(_Record):
    """Invertible integer action plus curve functionals and metadata.

    ``dim_x`` is the dimension of the underlying space (used by the degree
    bookkeeping check); ``deg_sigma`` the degree of the endomorphism, if
    known; ``ample_flag`` a user assertion that the twist sequence is
    eventually ample, consulted only in the root-of-unity case.
    """

    __slots__ = ("matrix", "curves", "dim_x", "deg_sigma", "ample_flag")

    def __init__(self, matrix, curves, dim_x=1, deg_sigma=None, ample_flag=None):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        curves = tuple([c if isinstance(c, CurveFunctional) else CurveFunctional(c)
                        for c in curves])
        if not curves:
            raise ValueError("at least one curve functional is required")
        if any(len(c.coords) != matrix.dim for c in curves):
            raise ValueError("curve length does not match the action rank")
        try:
            dim_x = _exact_int("dim_x", dim_x)
            deg_sigma = None if deg_sigma is None else _exact_int("deg_sigma", deg_sigma)
        except TypeError:
            raise TypeError(
                f"dim_x and deg_sigma must be integers, got {dim_x!r} and {deg_sigma!r}"
            ) from None
        if ample_flag is not None and type(ample_flag) is not bool:
            raise TypeError(f"ample_flag must be True, False or None, got {ample_flag!r}")
        if dim_x < 1:
            raise ValueError("dim_x must be >= 1")
        if deg_sigma is not None and deg_sigma < 1:
            raise ValueError("deg_sigma must be >= 1")
        # chi(0) = (-1)**n det(P); chi is cached on the matrix for later use
        if char_poly(matrix).evaluate(0) == 0:
            raise ValueError("action matrix must be invertible over Q")
        _setattr(self, "matrix", matrix)
        _setattr(self, "curves", curves)
        _setattr(self, "dim_x", dim_x)
        _setattr(self, "deg_sigma", deg_sigma)
        _setattr(self, "ample_flag", ample_flag)

    @property
    def rank(self) -> int:
        return self.matrix.dim

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NumericalActionSpec":
        """The spec a JSON document describes; an unknown key raises ``ValueError``."""
        unknown = [key for key in doc if key not in _SPEC_KEYS]
        if unknown:
            raise ValueError(
                f"spec document has unknown keys {', '.join(map(repr, unknown))}; "
                f"the keys are {', '.join(_SPEC_KEYS)}"
            )
        try:
            matrix = doc["P"]
            curves = doc["curves"]
        except KeyError as missing:
            raise ValueError(f"spec document is missing {missing}") from None
        return cls(
            matrix,
            curves,
            dim_x=doc.get("dimX", 1),
            deg_sigma=doc.get("degSigma"),
            ample_flag=doc.get("ampleFlag"),
        )


class Verdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNDETERMINED = "Undetermined"


class AmplenessReport(_Record):
    """The left and right verdicts, the radius enclosure and their reasons."""

    __slots__ = ("left", "right", "spectral_radius", "quasi_unipotent",
                 "ample_eigenvector", "reasons")


def _check_lengths(spec: NumericalActionSpec, divisor: DivisorClass) -> None:
    if len(divisor.coords) != spec.rank:
        raise ValueError("divisor length does not match the action rank")


def orbit_pairings(
    spec: NumericalActionSpec,
    divisor: DivisorClass,
    curve: CurveFunctional,
    max_m: int,
) -> list[int]:
    """[(P**m D . C) for m = 0..max_m], exactly.

    The terms below the rank n pair D with the curve rows C @ P**m, which
    the matrix computes once per curve and keeps.  Past them Cayley-Hamilton
    (chi(P) = 0, chi = x**n + sum_{j<n} a_j x**j) gives s_i = -sum_{j<n} a_j s_{i-n+j},
    so each later term costs n products instead of n**2.
    """
    max_m = _exact_int("max_m", max_m)
    if max_m < 0:
        raise ValueError("max_m must be >= 0")
    _check_lengths(spec, divisor)
    if len(curve.coords) != spec.rank:
        raise ValueError("curve length does not match the action rank")
    n = spec.rank
    rows = spec.matrix._curve_rows(curve.coords)[: max_m + 1]
    out = [sum(map(operator.mul, divisor.coords, row)) for row in rows]
    if max_m >= n:
        negated = [-a for a in char_poly(spec.matrix).coeffs[:-1]]
        for i in range(n, max_m + 1):
            out.append(sum(map(operator.mul, negated, out[i - n : i])))
    return out


class NonLeftAmpleWitness(_Record):
    """An ample multiple H and curve C with (Delta_m - P**m H . C) < 0, m <= horizon."""

    __slots__ = ("h", "curve", "horizon", "multiplier")


def non_left_ample_witness(
    spec: NumericalActionSpec,
    divisor: DivisorClass,
    ample: DivisorClass,
    horizon: int = 64,
) -> NonLeftAmpleWitness:
    """Search for the obstruction pair behind left-ampleness failure.

    Requires a real eigenvalue strictly above one, read from the cached
    radius enclosure; Sturm counts decide only when one lies strictly inside
    it.  Tries each curve with multipliers k = 1, 2, 4, ... of the
    supplied ample class until the partial-sum pairing stays strictly
    below the orbit pairing of k * ample over the whole horizon.

    The gaps g_m = (Delta_m(D) - P**m H) . C, with Delta_m(D) = sum_{i<m} P**i D,
    come from one orbit: for u = D + H - P H the sum telescopes,
    Delta_m(u) = Delta_m(D) + sum_{i<m} (P**i H - P**(i+1) H) = Delta_m(D) + H - P**m H,
    so g_m = Delta_m(u) . C - H . C, and the gaps for 1 <= m <= horizon are
    the partial sums of u's orbit to horizon - 1 (past the rank by chi's
    recurrence, as ``orbit_pairings`` runs it), less H . C.  k = 1 holds
    when every gap is negative; only otherwise is H's orbit built to the
    horizon, and k tests g_m - (k - 1) (P**m H . C).
    """
    _check_lengths(spec, divisor)
    _check_lengths(spec, ample)
    horizon = _exact_int("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not _real_root_above_one(char_poly(spec.matrix)):
        raise UnsupportedActionError(
            "no real eigenvalue above one; witness search needs spectral radius > 1"
        )
    image = spec.matrix.apply(ample.coords)
    u = DivisorClass(tuple([d + h - p for d, h, p in zip(divisor.coords, ample.coords, image)]))
    for curve in spec.curves:
        sums = list(accumulate(orbit_pairings(spec, u, curve, horizon - 1)))
        if max(sums) < pairing(ample, curve):
            return NonLeftAmpleWitness(ample, curve, horizon, 1)
        orbit = orbit_pairings(spec, ample, curve, horizon)
        gaps = [s - orbit[0] for s in sums]
        k = 2
        while k <= MAX_WITNESS_MULTIPLIER:
            if all(g < (k - 1) * h for g, h in zip(gaps, orbit[1:])):
                return NonLeftAmpleWitness(ample.scaled(k), curve, horizon, k)
            k *= 2
    raise WitnessSearchExhausted(
        f"no witness with multiplier <= {MAX_WITNESS_MULTIPLIER} over horizon {horizon}"
    )


def _real_root_above_one(chi: IntPolynomial) -> bool:
    """Whether chi has a real root above one, read from its cached radius cell."""
    interval = chi._largest_root
    if interval is None:
        return False
    if interval.lo == interval.hi:
        return interval.lo > 1
    if interval.lo >= 1:
        return True
    if interval.hi <= 1:
        return False
    return count_real_roots_above(chi, 1) >= 1


def _integer_eigenvalue(matrix: IntMatrix, coords: tuple[int, ...]) -> int | None:
    if all(c == 0 for c in coords):
        return None
    image = matrix.apply(coords)
    base = next(c for c in coords if c != 0)
    index = coords.index(base)
    if image[index] % base:
        return None
    lam = image[index] // base
    if all(i == lam * c for i, c in zip(image, coords)):
        return lam
    return None


def classify_ampleness(
    spec: NumericalActionSpec,
    divisor: DivisorClass,
) -> AmplenessReport:
    """Three-valued left/right ampleness verdicts with exact certificates.

    Left is No whenever the spectral radius exceeds one, which for an
    invertible integer action is equivalent to some eigenvalue lying off
    the unit circle.  Right is Yes when the divisor is positive against
    every curve and is an eigenvector with integer eigenvalue >= 1.  In
    the root-of-unity case both sides are Yes exactly when the user
    asserts eventual ampleness of the twists; otherwise they stay
    Undetermined.  Undetermined is an honest value, not an error.
    """
    _check_lengths(spec, divisor)
    matrix = spec.matrix
    quasi_unipotent = is_quasi_unipotent(matrix)
    reasons: list[str] = []
    if quasi_unipotent:
        interval: RationalInterval | None = RationalInterval.point(1)
    else:
        try:
            interval = spectral_radius_interval(matrix)
        except NoRealEigenvalueError:
            interval = None
            reasons.append("no-real-eigenvalue-action-cannot-preserve-a-cone")

    left = Verdict.UNDETERMINED
    right = Verdict.UNDETERMINED
    eigenvector: DivisorClass | None = None

    positive = all(pairing(divisor, c) > 0 for c in spec.curves)
    lam = _integer_eigenvalue(matrix, divisor.coords)
    if positive and lam is not None and lam >= 1:
        right = Verdict.YES
        eigenvector = divisor
        reasons.append(citations.RIGHT_FROM_AMPLE_EIGENVECTOR)

    if quasi_unipotent:
        if spec.ample_flag is True:
            left = Verdict.YES
            right = Verdict.YES
            reasons.append(citations.UNIT_CIRCLE_EQUIVALENCE)
        else:
            reasons.append(citations.UNIT_CIRCLE_FLAG_NEEDED)
    else:
        left = Verdict.NO
        reasons.append(citations.RADIUS_EXCEEDS_ONE_WHEN_NOT_UNIT_CIRCLE)
        reasons.append(citations.LEFT_FAILS_ABOVE_ONE)

    return AmplenessReport(
        left=left,
        right=right,
        spectral_radius=interval,
        quasi_unipotent=quasi_unipotent,
        ample_eigenvector=eigenvector,
        reasons=tuple(reasons),
    )


def degree_consistency(spec: NumericalActionSpec, divisor: DivisorClass) -> bool:
    """Check ((P**m D)**dim_x) == deg_sigma**m * (D**dim_x) for every m >= 1.

    Self-intersection numbers are only computed on rank-one actions, where
    the class (d) has (D**dim_x) = d**dim_x; higher ranks would need the
    full intersection form and are reported as unsupported.
    """
    _check_lengths(spec, divisor)
    if spec.deg_sigma is None:
        raise ValueError("deg_sigma is required for the degree check")
    if spec.rank != 1:
        raise UnsupportedActionError(
            "self-intersection bookkeeping is only supported on rank-one actions"
        )
    d = divisor.coords[0]
    # (p**m d)**k == s**m d**k: for d != 0, m = 1 forces p**k == s, which gives every m
    return d == 0 or spec.matrix.rows[0][0] ** spec.dim_x == spec.deg_sigma
