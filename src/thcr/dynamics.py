"""Dynamics of divisor classes under an integer pullback action.

The action is an invertible integer matrix on the numerical divisor group
Z^l, together with a list of curve functionals describing positivity: a
class counts as ample here exactly when it pairs strictly positively with
every supplied curve.  That convention is faithful when the curve list is
a full dual description of the nef cone (as for toric inputs) and an
approximation otherwise.

Orbit pairings (P**m D . C) below the rank n pair D with the curve rows
C @ P**m, built per call from the packed powers that the matrix keeps with
chi; past the rank chi's recurrence gives them.  The witness search for
the failure of left ampleness reads the gaps between the partial sums of
D's orbit and H's orbit from one orbit per curve, that of u = D + H - P H,
whose partial sums telescope to them; H's orbit is built to the horizon
only when the multiplier k = 1 fails.  Next to it this module builds the
left/right ampleness classifier.  Its exact certificates:

* an invertible integer action whose eigenvalues do not all lie on the
  unit circle has spectral radius strictly above one (unit-circle algebraic
  integers are roots of unity), which rules out left ampleness;
* such an action is checked to preserve the proper cone {D : C D >= 0} cut
  out by its curves (``_require_curve_cone``), so its spectral radius is an
  eigenvalue (Birkhoff 1967; Vandergraft 1968) and the reported enclosure
  of the largest real eigenvalue encloses the spectral radius; an action
  that fails the check is rejected with ``ValueError``;
* an eigenvector that is positive against every curve, with integer
  eigenvalue >= 1, certifies right ampleness;
* when all eigenvalues are roots of unity the action behaves like an
  automorphism, where left and right ampleness agree but depend on
  eventual ampleness of the twist sequence, which these certificates do
  not decide: left stays Undetermined.
"""

from __future__ import annotations

import enum
import operator
from functools import lru_cache
from itertools import accumulate, combinations

from . import citations
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    RationalInterval,
    _packed_powers,
    char_poly,
    count_real_roots_above,
    is_quasi_unipotent,
    spectral_radius_interval,
)
from .ring import _exact_int, _int_row, _Record, _setattr

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


class NumericalActionSpec(_Record):
    """Invertible integer action plus the curve functionals that test positivity."""

    __slots__ = ("matrix", "curves")

    def __init__(self, matrix, curves):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        curves = tuple([c if isinstance(c, CurveFunctional) else CurveFunctional(c)
                        for c in curves])
        if not curves:
            raise ValueError("at least one curve functional is required")
        if any(len(c.coords) != matrix.dim for c in curves):
            raise ValueError("curve length does not match the action rank")
        # chi(0) = (-1)**n det(P); chi is cached on the matrix for later use
        if char_poly(matrix).evaluate(0) == 0:
            raise ValueError("action matrix must be invertible over Q")
        _setattr(self, "matrix", matrix)
        _setattr(self, "curves", curves)

    @property
    def rank(self) -> int:
        return self.matrix.dim


class Verdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNDETERMINED = "Undetermined"


class AmplenessReport(_Record):
    """The left and right verdicts, the radius enclosure, and the reasons in
    the order the classifier reached them."""

    __slots__ = ("left", "right", "spectral_radius", "quasi_unipotent",
                 "ample_eigenvector", "reasons")

    @property
    def citations(self) -> tuple[str, ...]:
        """The reasons, each a citation id, sorted."""
        return tuple(sorted(self.reasons))


def _check_lengths(spec: NumericalActionSpec, divisor: DivisorClass) -> None:
    if len(divisor.coords) != spec.rank:
        raise ValueError("divisor length does not match the action rank")


def _curve_rows(matrix: IntMatrix, curve: tuple[int, ...], max_m: int) -> list[tuple[int, ...]]:
    """The row vectors ``curve @ P**m`` for m <= min(max_m, n - 1).

    Each is one sum of the packed rows of P**m that the matrix keeps with
    chi, weighted by the curve's entries, unpacked slot by slot.  Its
    entries are below ||curve||_1 * ||P||_inf**(n-1) < 2**top in absolute
    value, with top = bitlen(||curve||_1) + (n - 1) * bits, so they fit the
    kept slots when top < w; a wider curve repacks the powers at
    w = top + 2 for this call only.
    """
    n = matrix.dim
    _, bits, w, powers = matrix._chi_and_powers
    top = sum(map(abs, curve)).bit_length() + (n - 1) * bits
    if top >= w:
        w = top + 2
        powers = _packed_powers(matrix.rows, w, min(max_m, n - 1))
    half, mask = 1 << (w - 1), (1 << w) - 1
    shifts = range(0, n * w, w)
    bias = sum([half << s for s in shifts])
    rows = [curve]
    for power in powers[:max_m]:
        packed = sum(map(operator.mul, curve, power)) + bias
        rows.append(tuple([(packed >> s & mask) - half for s in shifts]))
    return rows


def orbit_pairings(
    spec: NumericalActionSpec,
    divisor: DivisorClass,
    curve: CurveFunctional,
    max_m: int,
) -> list[int]:
    """[(P**m D . C) for m = 0..max_m], exactly.

    The terms below the rank n pair D with the curve rows C @ P**m
    (``_curve_rows``).  Past them Cayley-Hamilton (chi(P) = 0,
    chi = x**n + sum_{j<n} a_j x**j) gives s_i = -sum_{j<n} a_j s_{i-n+j},
    so each later term costs n products instead of n**2.
    """
    max_m = _exact_int("max_m", max_m)
    if max_m < 0:
        raise ValueError("max_m must be >= 0")
    _check_lengths(spec, divisor)
    if len(curve.coords) != spec.rank:
        raise ValueError("curve length does not match the action rank")
    n = spec.rank
    rows = _curve_rows(spec.matrix, curve.coords, max_m)
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
    it.  Finds, curve by curve, the least multiplier k among 1, 2, 4, ...
    of the supplied ample class for which the partial-sum pairing stays
    strictly below the orbit pairing of k * ample over the whole horizon.

    The gaps g_m = (Delta_m(D) - P**m H) . C, with Delta_m(D) = sum_{i<m} P**i D,
    come from one orbit: for u = D + H - P H the sum telescopes,
    Delta_m(u) = Delta_m(D) + sum_{i<m} (P**i H - P**(i+1) H) = Delta_m(D) + H - P**m H,
    so g_m = Delta_m(u) . C - H . C, and the gaps for 1 <= m <= horizon are
    the partial sums of u's orbit to horizon - 1 (past the rank by chi's
    recurrence, as ``orbit_pairings`` runs it), less H . C.  k = 1 holds
    when every gap is negative; only otherwise is H's orbit built to the
    horizon, and k > 1 holds when g_m < (k - 1) h_m for every m, with
    h_m = P**m H . C.  Where h_m > 0 that asks k >= g_m // h_m + 2; where
    h_m <= 0 a larger k only tightens it.  So the least power of two that
    meets the first bounds is the one candidate, checked in one scan.
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
        pairs = [(s - orbit[0], h) for s, h in zip(sums, orbit[1:])]
        need = max([2] + [g // h + 2 for g, h in pairs if h > 0])
        k = 1 << (need - 1).bit_length()
        if k <= MAX_WITNESS_MULTIPLIER and all(g < (k - 1) * h for g, h in pairs):
            return NonLeftAmpleWitness(ample.scaled(k), curve, horizon, k)
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


def _scaled_inverse(basis: tuple[tuple[int, ...], ...]) -> list[list[int]] | None:
    """|det B| * B**-1 for the square integer rows B, None when B is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [B | I]: step k
    replaces each row but the pivot row by (p_k * row - row[k] * pivot row)
    / p_{k-1}, p_k the k-th pivot and p_{-1} = 1, and every division is
    exact.  A row with a zero in the pivot column is only rescaled by
    p_k / p_{k-1}, and left alone while the pivots agree, as for unit
    curves.  The left block ends as d I with d = +-det B, so the right
    block, T with T B = d I, is d B**-1.
    """
    n = len(basis)
    rows = [[*row, *[int(i == j) for j in range(n)]] for i, row in enumerate(basis)]
    last = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        p = top[k]
        for i, row in enumerate(rows):
            m = row[k]
            if i != k and (m or p != last):
                rows[i] = [(p * x - m * y) // last for x, y in zip(row, top)]
        last = p
    if last < 0:
        return [[-x for x in row[n:]] for row in rows]
    return [row[n:] for row in rows]


def _in_cone(b, cone: tuple[tuple[int, ...], ...] | None) -> bool:
    """Whether b lies in cone(B), given the columns of M = |det B| B**-1
    (``_curve_cones``), or None where M is a positive monomial matrix and
    b M >= 0 reads b >= 0."""
    if cone is None:
        return min(b) >= 0
    return all([sum(map(operator.mul, b, column)) >= 0 for column in cone])


@lru_cache(maxsize=128)
def _curve_cones(curves: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple]:
    """``(units, cones)`` for curves whose cone K = {D : C D >= 0} is proper,
    ``ValueError`` otherwise; the curves are factored once and kept.

    ``cones`` has one entry per basis B among the curves, the columns of
    M = |det B| B**-1 (``_scaled_inverse``), or None when M is a positive
    monomial matrix, as for unit curves, where b M >= 0 iff b >= 0.  By
    Caratheodory b lies in cone(C), the cone the curves span, iff
    b M >= 0 for some basis, that is sign(det B) b adj(B) >= 0.
    ``units`` holds r for each curve that is a positive multiple of the
    unit vector e_r, and None for the others.

    K is pointed iff some basis exists, and full-dimensional iff cone(C) is
    pointed, that is iff no -c of a nonzero curve lies in cone(C); with
    exactly n curves both hold once C is a basis.
    """
    n = len(curves[0])
    cones = []
    for basis in combinations(curves, n):
        m = _scaled_inverse(basis)
        if m is not None:
            monomial = all([sum(map(bool, row)) == 1 and max(row) > 0 for row in m])
            cones.append(None if monomial else tuple(zip(*m)))
    negatives = [[-x for x in c] for c in curves if any(c)] if len(curves) > n else []
    if not cones or any([_in_cone(b, cone) for b in negatives for cone in cones]):
        raise ValueError("the cone {D : C D >= 0} of the curves is not proper")
    units = tuple([c.index(max(c)) if sum(map(bool, c)) == 1 and max(c) > 0 else None
                   for c in curves])
    return units, tuple(cones)


def _require_curve_cone(spec: NumericalActionSpec) -> None:
    """Raise ``ValueError`` unless the action preserves the proper cone
    K = {D : C D >= 0} that its curves cut out (``_curve_cones``).

    By Farkas' lemma P K lies in K iff the row c P of C P lies in cone(C)
    for every curve c: for n curves that reads sign(det C) C P adj(C) >= 0,
    and for unit curves P >= 0.  Membership in a cone is unchanged by a
    positive factor, so a curve x e_r with x > 0 tests P's row r itself.
    """
    rows = spec.matrix.rows
    columns = None
    curves = tuple([c.coords for c in spec.curves])
    units, cones = _curve_cones(curves)
    for c, r in zip(curves, units):
        if r is None:
            columns = columns or list(zip(*rows))
            image = [sum(map(operator.mul, c, column)) for column in columns]
        else:
            image = rows[r]
        if not any([_in_cone(image, cone) for cone in cones]):
            raise ValueError("the action does not preserve the cone {D : C D >= 0} of its curves")


def classify_ampleness(
    spec: NumericalActionSpec,
    divisor: DivisorClass,
) -> AmplenessReport:
    """Three-valued left/right ampleness verdicts with exact certificates.

    Left is No whenever the spectral radius exceeds one, which for an
    invertible integer action is equivalent to some eigenvalue lying off
    the unit circle.  Right is Yes when the divisor is positive against
    every curve and is an eigenvector with integer eigenvalue >= 1.  In
    the root-of-unity case left and right agree but hinge on eventual
    ampleness of the twists, which none of these certificates reads, so
    left stays Undetermined.  Undetermined is an honest value, not an error.

    The reported radius is the spectral radius: 1 for a root-of-unity
    action, and otherwise the enclosure of the largest real eigenvalue,
    which is the spectral radius because the action is first checked to
    preserve the proper cone {D : C D >= 0} of its curves (Birkhoff 1967;
    Vandergraft 1968).  An action that fails that check raises
    ``ValueError`` (``_require_curve_cone``).
    """
    _check_lengths(spec, divisor)
    matrix = spec.matrix
    quasi_unipotent = is_quasi_unipotent(matrix)
    reasons: list[str] = []
    if quasi_unipotent:
        interval = RationalInterval(1, 1)
    else:
        _require_curve_cone(spec)
        interval = spectral_radius_interval(matrix)

    left = right = Verdict.UNDETERMINED
    eigenvector: DivisorClass | None = None

    positive = all(pairing(divisor, c) > 0 for c in spec.curves)
    lam = _integer_eigenvalue(matrix, divisor.coords)
    if positive and lam is not None and lam >= 1:
        right = Verdict.YES
        eigenvector = divisor
        reasons.append(citations.RIGHT_FROM_AMPLE_EIGENVECTOR)

    if quasi_unipotent:
        reasons.append(citations.UNIT_CIRCLE_LEFT_UNDECIDED)
    else:
        left = Verdict.NO
        reasons.append(citations.RADIUS_EXCEEDS_ONE_WHEN_NOT_UNIT_CIRCLE)
        reasons.append(citations.LEFT_FAILS_ABOVE_ONE)

    return AmplenessReport(left, right, interval, quasi_unipotent, eigenvector, tuple(reasons))
