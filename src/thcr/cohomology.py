"""Line bundle cohomology on P^m and the vanishing scans for twisted pieces.

Dimensions come from the closed form: global sections count monomials,
top cohomology is its dual, everything in between vanishes.  So of the
H^q with q > 0 only H^m can be nonzero, and H^m(O(d)) is nonzero exactly
when d <= -m - 1.

The scanned degrees follow from e_{n+1} = r * e_n + 1.  Both start at
d_0 = t.  The right scan's d_n = t + e_n steps as
d_{n+1} = r * d_n + 1 - (r - 1) * t, and the left scan's
d_n = e_n + r**n * t steps as d_{n+1} = r * d_n + 1, so each grade costs
one multiply-add rather than a power.

Both degree sequences are monotone where it matters (the proof is in
``_scan``), so H^m is nonzero on a prefix of the right scan's grades and
on a suffix of the left scan's.  ``_scan`` finds the split by bisection,
which is also the scan's marker, and evaluates C(~d_n, m), ~d = -d - 1,
only on the nonzero stretch.  On P^1 that is ~d_n itself.  For m >= 2 it
is a polynomial of degree m in r**n, so ``_top_column`` sums m + 1
geometric columns, one big-by-small product each per grade, instead of
``math.comb``'s big-by-big product tree, and divides each sum, a multiple
of m! (r - 1)**m, by that constant as a shift by its power of two and a
floor division by its odd part, skipped when the odd part is 1.  The
top-degree closed form in ``_top`` serves only ``h``; the scans check
their arguments once per scan by ``_check_scan_args``.

A ``ScanRow`` is a tuple underneath.  ``_scan`` builds the rows one
cohomology index q at a time, all in C: for each q, ``map`` applies
``tuple.__new__`` with the class to a ``zip`` of the grades, the degrees,
q and the values (zeros for q < m, the top column for q = m), and one
extended-slice assignment puts those rows at every m-th index of one list,
from index q - 1, so the rows come out grade by grade and, within a grade,
by q.  Each map yields exactly one row per grade, so every slot is filled.
No Python frame runs per row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from operator import floordiv, invert, itemgetter, mul, neg, rshift

from .citations import EVENTUAL_VANISHING, PERSISTENT_TOP_COHOMOLOGY
from .ring import PowerRingSpec, _exact_int, _Record

_new_tuple = tuple.__new__


def _top(space_dim: int, degree: int) -> int:
    """dim H^m of O(``degree``) on P^m, m = ``space_dim``, by Serre duality."""
    return math.comb(-degree - 1, space_dim) if degree <= -space_dim - 1 else 0


def h(space_dim: int, degree: int, q: int) -> int:
    """dim H^q of the degree-``degree`` line bundle on projective ``space_dim``-space."""
    space_dim = _exact_int("space_dim", space_dim)
    degree = _exact_int("degree", degree)
    q = _exact_int("q", q)
    if space_dim < 1:
        raise ValueError("space dimension must be >= 1")
    if not 0 <= q <= space_dim:
        raise ValueError(f"cohomology index {q} out of range 0..{space_dim}")
    if q == 0:
        return math.comb(degree + space_dim, space_dim) if degree >= 0 else 0
    if q == space_dim:
        return _top(space_dim, degree)
    return 0


class ScanRow(_Record, tuple):
    """``value`` = dim H^q of O(``degree``) at grade ``n`` of a scan.

    The tuple ``(n, degree, q, value)`` underneath, built by one
    ``tuple.__new__`` call; it never equals a plain tuple.
    """

    __slots__ = ()
    _fields = ("n", "degree", "q", "value")

    def __new__(cls, n: int, degree: int, q: int, value: int):
        return _new_tuple(cls, (n, degree, q, value))

    __init__ = object.__init__

    n = property(itemgetter(0))
    degree = property(itemgetter(1))
    q = property(itemgetter(2))
    value = property(itemgetter(3))


class RightScanResult(_Record):
    """Outcome of scanning H^q(O(t + e_n)) for q > 0 over 0 <= n <= max_n.

    ``stabilized_at`` is the smallest n from which all higher cohomology
    vanishes through the end of the window, or None if it never does.
    """

    __slots__ = ("twist", "max_n", "stabilized_at", "rows")

    @property
    def citations(self) -> tuple[str, ...]:
        """The citation id of eventual vanishing if the scan stabilized, else none."""
        return () if self.stabilized_at is None else (EVENTUAL_VANISHING,)


class LeftScanResult(_Record):
    """Outcome of scanning H^q(O(e_n + r**n * t)) for q > 0 over n <= max_n.

    The degree e_n + r**n * t is the twist seen from the left: tensoring
    the grade-n piece by O(t) pulls t back through n rounds of the power
    map, multiplying it by r**n.  ``nonvanishing_from`` is the start of
    the trailing window on which some positive-degree cohomology persists;
    when set, the scan witnesses failure of vanishing on the left.
    """

    __slots__ = ("twist", "max_n", "nonvanishing_from", "rows")

    @property
    def nonvanishing(self) -> bool:
        return self.nonvanishing_from is not None

    @property
    def citations(self) -> tuple[str, ...]:
        """The citation id of persistent top cohomology if it persists, else none."""
        return (PERSISTENT_TOP_COHOMOLOGY,) if self.nonvanishing else ()


def _top_column(m: int, r: int, t: int, step: int, n0: int, count: int):
    """C(~d_n, m), n0 <= n < n0 + ``count``, for d_0 = t, d_{n+1} = r d_n + step (``_scan``).

    For m >= 2 (``_scan`` answers m = 1 without it).  Each grade's column
    sum is m! (r - 1)**m C(~d_n, m), an exact multiple of that constant,
    which is 2**s times an odd u.  So the sum shifts right by s, which is
    exact because 2**s divides it, and the result, u C(~d_n, m), is
    floor-divided by u only when u > 1, again exactly.  u has fewer digits
    than the constant: for (m, r) = (2, 3) the constant 8 leaves no
    division at all, and for (8, 5) 2**23 * 315 leaves a one-digit 315.
    """
    if not count:  # an empty column would still yield its initial value
        return ()
    a, b = -((r - 1) * t + step), step - (r - 1)
    poly = [1]  # P_0, P_1, ... of prod (a R + c) over the c seen so far
    for c in range(b, b - (r - 1) * m, 1 - r):  # c = b - (r - 1) j, j < m
        poly = [c * lo + a * hi for lo, hi in zip(poly + [0], [0] + poly)]
    columns = [accumulate(repeat(r**k, count - 1), mul, initial=p * r**(k * n0))
               for k, p in enumerate(poly)]
    scale = math.factorial(m) * (r - 1)**m
    shift = (scale & -scale).bit_length() - 1
    odd = scale >> shift
    tops = map(rshift, map(sum, zip(*columns)), repeat(shift))
    return tops if odd == 1 else map(floordiv, tops, repeat(odd))


def _scan(spec: PowerRingSpec, max_n: int, degree: int, step: int,
          rising: bool) -> tuple[tuple[ScanRow, ...], int | None]:
    """Rows for d_0 = ``degree``, d_{n+1} = r * d_n + ``step``, and the split.

    The rows of grade n are (n, d_n, q, 0) for 0 < q < m, then
    (n, d_n, m, h^m(d_n)); each q's rows come from one ``map`` over all
    grades, assigned to the list slice [q - 1::m], which puts them in that
    order.
    H^m(O(d)) is nonzero exactly when d <= -m - 1, where it is
    C(-d - 1, m) = C(~d, m), so the scan finds the grades that satisfy this
    and evaluates binomials only there; for m = 1 no binomial at all, since
    C(~d, 1) = ~d exactly.  The grades split at one
    index k, returned with the rows as the marker (None when k = max_n + 1):

    * ``rising`` (the right scan, d_n = t + e_n).  e_{n+1} = r * e_n + 1 >
      e_n, so the degrees strictly rise and H^m is nonzero exactly on a
      prefix.  k is its end, ``bisect_right(degrees, -m - 1)``: H^m
      vanishes from k through the window's end.
    * otherwise (the left scan, d_n = e_n + r**n * t, step 1).  Here
      d_{n+1} - d_n = (r - 1) * d_n + 1.  When d_n <= -1 that is at most
      2 - r <= 0, so for t <= -1 the degrees never rise; for t >= 0 they
      stay >= 0 and H^m vanishes throughout.  Either way H^m is nonzero
      exactly on a suffix.  k is its start, the first d_n <= -m - 1, found
      by ``bisect_left`` on -d_n >= m + 1: bisection needs that predicate
      false-then-true along the grades, not the values sorted, so it also
      holds for t >= 0, where the predicate is false throughout.

    On the stretch, (r - 1) * d_n + step = g0 * r**n, g0 = (r - 1) * t + step,
    as both sides multiply by r per grade.  So with R = r**n, a = -g0 and
    b = step - (r - 1), (r - 1) * ~d_n = a R + b, and m! (r - 1)**m C(~d_n, m)
    = prod_{j<m} (a R + b - (r - 1) j) = sum_k P_k R**k, with integers P_k
    built once per scan.  The sum is m! (r - 1)**m times the integer
    C(~d_n, m), so ``_top_column``'s shift by that constant's power of two
    and division by its odd part are both exact.
    """
    m, r = spec.dim, spec.power
    grades = max_n + 1
    degrees = []
    for _ in range(grades):
        degrees.append(degree)
        degree = r * degree + step
    if rising:
        k = bisect_right(degrees, -m - 1)
        lo, hi = 0, k
    else:
        k = bisect_left(degrees, m + 1, key=neg)
        lo, hi = k, grades
    if m == 1:  # C(~d, 1) = ~d
        stretch = map(invert, degrees[lo:hi])
    else:
        stretch = _top_column(m, r, degrees[0], step, lo, hi - lo)
    tops = chain(repeat(0, lo), stretch, repeat(0, grades - hi))
    rows = [None] * (grades * m)
    for q, values in enumerate([repeat(0)] * (m - 1) + [tops], 1):
        # the rows (n, d_n, q, value) of every grade n, at the indices n * m + q - 1
        rows[q - 1::m] = map(_new_tuple, repeat(ScanRow),
                             zip(range(grades), degrees, repeat(q), values))
    return tuple(rows), (k if k < grades else None)


def _check_scan_args(spec: PowerRingSpec, twist: int, max_n: int) -> tuple[int, int]:
    """``twist`` and ``max_n`` as ints, after the checks both scans share."""
    twist = _exact_int("twist", twist)
    max_n = _exact_int("max_n", max_n)
    if spec.power < 2:
        raise ValueError("vanishing scans need power >= 2")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return twist, max_n


def right_vanishing_scan(spec: PowerRingSpec, twist: int, max_n: int) -> RightScanResult:
    """Smallest n0 with H^q(O(twist + e_n)) = 0 for all q > 0, n0 <= n <= max_n."""
    twist, max_n = _check_scan_args(spec, twist, max_n)
    rows, n0 = _scan(spec, max_n, twist, 1 - (spec.power - 1) * twist, True)
    return RightScanResult(twist, max_n, n0, rows)


def left_vanishing_scan(spec: PowerRingSpec, twist: int, max_n: int) -> LeftScanResult:
    """Scan the left-twisted degrees e_n + r**n * twist for persistent cohomology."""
    twist, max_n = _check_scan_args(spec, twist, max_n)
    rows, start = _scan(spec, max_n, twist, 1, False)
    return LeftScanResult(twist, max_n, start, rows)
