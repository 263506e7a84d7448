"""Line bundle cohomology on P^m and the vanishing scans for twisted pieces.

Dimensions come from the closed form: global sections count monomials,
top cohomology is its dual, everything in between vanishes.  So of the
H^q with q > 0 only H^m can be nonzero, and a scan evaluates one binomial
per grade.

The scanned degrees follow from e_{n+1} = r * e_n + 1.  Both start at
d_0 = t.  The right scan's d_n = t + e_n steps as
d_{n+1} = r * d_n + 1 - (r - 1) * t, and the left scan's
d_n = e_n + r**n * t steps as d_{n+1} = r * d_n + 1, so each grade costs
one multiply-add rather than a power.

The top-degree closed form lives in ``_top``, which ``h`` delegates to for
q = m and which the scans call directly, once per grade: their arguments
are checked once per scan by ``_check_scan_args``, not by ``h`` at every
grade.

A ``ScanRow`` is a tuple underneath.  ``_scan`` steps the degrees and
evaluates ``_top`` once per grade in Python, then builds all m rows of
every grade in C: ``zip`` lays out the columns (n, d_n, q, value), the
first two from an m-fold ``zip`` of the grades and of the degrees, and
``map`` applies ``tuple.__new__`` with the class, so no Python frame runs
per row.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import itemgetter

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


def _scan(spec: PowerRingSpec, max_n: int, degree: int,
          step: int) -> tuple[tuple[ScanRow, ...], list[int]]:
    """Rows and H^m dimensions for d_0 = ``degree``, d_{n+1} = r * d_n + ``step``.

    Only H^m can be nonzero, so each grade steps its degree and evaluates
    ``_top`` once; its rows are (n, d_n, q, 0) for 0 < q < m, then
    (n, d_n, m, top).
    """
    m, r = spec.dim, spec.power
    grades = max_n + 1
    degrees = []
    for _ in range(grades):
        degrees.append(degree)
        degree = r * degree + step
    tops = list(map(_top, repeat(m), degrees))
    columns = zip(
        chain.from_iterable(zip(*[range(grades)] * m)),  # n, m times
        chain.from_iterable(zip(*[degrees] * m)),  # d_n, m times
        chain.from_iterable(repeat(range(1, m + 1), grades)),  # q = 1..m
        chain.from_iterable(zip(*[repeat(0)] * (m - 1), tops)),  # 0, ..., 0, top
    )
    return tuple(map(_new_tuple, repeat(ScanRow), columns)), tops


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
    rows, tops = _scan(spec, max_n, twist, 1 - (spec.power - 1) * twist)
    n0: int | None = None
    for n in range(max_n, -1, -1):
        if tops[n]:
            break
        n0 = n
    return RightScanResult(twist, max_n, n0, rows)


def left_vanishing_scan(spec: PowerRingSpec, twist: int, max_n: int) -> LeftScanResult:
    """Scan the left-twisted degrees e_n + r**n * twist for persistent cohomology."""
    twist, max_n = _check_scan_args(spec, twist, max_n)
    rows, tops = _scan(spec, max_n, twist, 1)
    start: int | None = None
    for n in range(max_n, -1, -1):
        if not tops[n]:
            break
        start = n
    return LeftScanResult(twist, max_n, start, rows)
