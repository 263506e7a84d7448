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
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from .ring import PowerRingSpec


def h(space_dim: int, degree: int, q: int) -> int:
    """dim H^q of the degree-``degree`` line bundle on projective ``space_dim``-space."""
    if space_dim < 1:
        raise ValueError("space dimension must be >= 1")
    if not 0 <= q <= space_dim:
        raise ValueError(f"cohomology index {q} out of range 0..{space_dim}")
    if q == 0:
        return math.comb(degree + space_dim, space_dim) if degree >= 0 else 0
    if q == space_dim:
        return math.comb(-degree - 1, space_dim) if degree <= -space_dim - 1 else 0
    return 0


@dataclasses.dataclass(frozen=True)
class ScanRow:
    n: int
    degree: int
    q: int
    value: int


@dataclasses.dataclass(frozen=True)
class RightScanResult:
    """Outcome of scanning H^q(O(t + e_n)) for q > 0 over 0 <= n <= max_n.

    ``stabilized_at`` is the smallest n from which all higher cohomology
    vanishes through the end of the window, or None if it never does.
    """

    twist: int
    max_n: int
    stabilized_at: Optional[int]
    rows: tuple[ScanRow, ...]


@dataclasses.dataclass(frozen=True)
class LeftScanResult:
    """Outcome of scanning H^q(O(e_n + r**n * t)) for q > 0 over n <= max_n.

    The degree e_n + r**n * t is the twist seen from the left: tensoring
    the grade-n piece by O(t) pulls t back through n rounds of the power
    map, multiplying it by r**n.  ``nonvanishing_from`` is the start of
    the trailing window on which some positive-degree cohomology persists;
    when set, the scan witnesses failure of vanishing on the left.
    """

    twist: int
    max_n: int
    nonvanishing_from: Optional[int]
    rows: tuple[ScanRow, ...]

    @property
    def nonvanishing(self) -> bool:
        return self.nonvanishing_from is not None


def _scan(spec: PowerRingSpec, max_n: int, degree: int, step: int):
    """Rows for the degrees d_0 = ``degree``, d_{n+1} = r * d_n + ``step``.

    Only H^m can be nonzero, so each grade calls ``h`` once and writes the
    rows for 0 < q < m as the 0 that the closed form gives there.
    """
    m, r = spec.dim, spec.power
    rows = []
    clean = []
    for n in range(max_n + 1):
        top = h(m, degree, m)
        rows.extend(ScanRow(n, degree, q, 0) for q in range(1, m))
        rows.append(ScanRow(n, degree, m, top))
        clean.append(top == 0)
        degree = r * degree + step
    return rows, clean


def _check_scan_args(spec: PowerRingSpec, max_n: int) -> None:
    if spec.power < 2:
        raise ValueError("vanishing scans need power >= 2")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")


def right_vanishing_scan(spec: PowerRingSpec, twist: int, max_n: int) -> RightScanResult:
    """Smallest n0 with H^q(O(twist + e_n)) = 0 for all q > 0, n0 <= n <= max_n."""
    _check_scan_args(spec, max_n)
    rows, clean = _scan(spec, max_n, twist, 1 - (spec.power - 1) * twist)
    n0: Optional[int] = None
    for n in range(max_n, -1, -1):
        if not clean[n]:
            break
        n0 = n
    return RightScanResult(twist, max_n, n0, tuple(rows))


def left_vanishing_scan(spec: PowerRingSpec, twist: int, max_n: int) -> LeftScanResult:
    """Scan the left-twisted degrees e_n + r**n * twist for persistent cohomology."""
    _check_scan_args(spec, max_n)
    rows, clean = _scan(spec, max_n, twist, 1)
    start: Optional[int] = None
    for n in range(max_n, -1, -1):
        if clean[n]:
            break
        start = n
    return LeftScanResult(twist, max_n, start, tuple(rows))
