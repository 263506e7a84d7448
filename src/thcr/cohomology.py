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
which is also the scan's marker, and evaluates binomials only on the
nonzero stretch, by one C-level ``map`` of ``math.comb`` over the
complemented degrees ~d = -d - 1.  The top-degree closed form in ``_top``
serves only ``h``; the scans check their arguments once per scan by
``_check_scan_args``.

A ``ScanRow`` is a tuple underneath.  ``_scan`` builds all m rows of every
grade in C: ``zip`` lays out the columns (n, d_n, q, value), the first two
from an m-fold ``zip`` of the grades and of the degrees (one row per grade
when m = 1), and ``map`` applies ``tuple.__new__`` with the class, so no
Python frame runs per row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import invert, itemgetter, neg

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


def _scan(spec: PowerRingSpec, max_n: int, degree: int, step: int,
          rising: bool) -> tuple[tuple[ScanRow, ...], int | None]:
    """Rows for d_0 = ``degree``, d_{n+1} = r * d_n + ``step``, and the split.

    The rows of grade n are (n, d_n, q, 0) for 0 < q < m, then
    (n, d_n, m, h^m(d_n)).  H^m(O(d)) is nonzero exactly when d <= -m - 1,
    where it is C(-d - 1, m) = C(~d, m), so the scan finds the grades that
    satisfy this and evaluates binomials only there.  The grades split at one
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
    """
    m, r = spec.dim, spec.power
    grades = max_n + 1
    degrees = []
    for _ in range(grades):
        degrees.append(degree)
        degree = r * degree + step
    if rising:
        k = bisect_right(degrees, -m - 1)
        tops = chain(map(math.comb, map(invert, degrees[:k]), repeat(m)), repeat(0, grades - k))
    else:
        k = bisect_left(degrees, m + 1, key=neg)
        tops = chain(repeat(0, k), map(math.comb, map(invert, degrees[k:]), repeat(m)))
    if m == 1:
        columns = zip(range(grades), degrees, repeat(1), tops)
    else:
        columns = zip(
            chain.from_iterable(zip(*[range(grades)] * m)),  # n, m times
            chain.from_iterable(zip(*[degrees] * m)),  # d_n, m times
            chain.from_iterable(repeat(range(1, m + 1), grades)),  # q = 1..m
            chain.from_iterable(zip(*[repeat(0)] * (m - 1), tops)),  # 0, ..., 0, top
        )
    rows = tuple(map(_new_tuple, repeat(ScanRow), columns))
    return rows, (k if k < grades else None)


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
