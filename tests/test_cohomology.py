from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thcr import citations
from thcr.cohomology import (
    ScanRow,
    h,
    left_vanishing_scan,
    right_vanishing_scan,
)
from thcr.ring import PowerRingSpec, twist_degree


def count_monomials(nvars, degree):
    """Brute-force count of monomials of the given total degree."""
    if nvars == 1:
        return 1 if degree >= 0 else 0
    return sum(count_monomials(nvars - 1, degree - e) for e in range(degree + 1))


def test_sections_of_cubic_on_plane():
    assert count_monomials(3, 3) == 10
    assert h(2, 3, 0) == 10


def test_tautological_twist_has_no_cohomology():
    assert h(1, -1, 0) == 0
    assert h(1, -1, 1) == 0


def test_top_cohomology_by_serre_duality():
    # oracle: h^2 of O(-4) on the plane equals h^0 of O(1)
    assert h(2, 1, 0) == count_monomials(3, 1) == 3
    assert h(2, -4, 2) == 3


def test_serre_duality_window():
    for m in (1, 2, 3):
        for d in range(-20, 21):
            for q in range(m + 1):
                assert h(m, d, q) == h(m, -d - m - 1, m - q)


def test_euler_characteristic_is_binomial_polynomial():
    # sum_q (-1)**q h^q == (d+1)(d+2)...(d+m) / m! as a polynomial identity
    for m in (1, 2, 3, 4):
        for d in range(-20, 21):
            chi = sum((-1) ** q * h(m, d, q) for q in range(m + 1))
            poly = Fraction(1)
            for i in range(1, m + 1):
                poly *= Fraction(d + i)
            for i in range(1, m + 1):
                poly /= i
            assert chi == poly


def test_ends_never_both_positive():
    for m in (1, 2, 3):
        for d in range(-15, 16):
            assert h(m, d, 0) * h(m, d, m) == 0


def test_middle_cohomology_vanishes():
    for d in range(-15, 16):
        assert h(3, d, 1) == 0
        assert h(3, d, 2) == 0


def test_h_validation():
    with pytest.raises(ValueError):
        h(2, 0, 3)
    with pytest.raises(ValueError):
        h(2, 0, -1)
    with pytest.raises(ValueError):
        h(0, 0, 0)


@pytest.mark.parametrize("args", [
    (2, 1.5, 2), (2.0, 1, 2), (2, 1, 2.0), (True, 1, 1), (2, False, 2), (2, 1, True),
    ("2", 1, 2), (2, None, 2),
], ids=repr)
def test_h_rejects_non_integers(args):
    with pytest.raises(TypeError, match="must be an integer"):
        h(*args)


@pytest.mark.parametrize("scan", [right_vanishing_scan, left_vanishing_scan])
@pytest.mark.parametrize("twist, max_n", [
    (1.5, 3), (-2.0, 3), (True, 3), (-2, 3.0), (-2, False), ("-2", 3), (-2, None),
], ids=repr)
def test_scans_reject_non_integers(scan, twist, max_n):
    with pytest.raises(TypeError, match="must be an integer"):
        scan(PowerRingSpec(2, 2), twist, max_n)


def test_line_bundle_and_table():
    assert h(2, -4, 2) == 3


# --- vanishing scans -----------------------------------------------------------

def test_right_scan_plane_binary():
    result = right_vanishing_scan(PowerRingSpec(dim=2, power=2), -3, 8)
    assert result.stabilized_at == 1


def test_right_scan_trivial_twist():
    result = right_vanishing_scan(PowerRingSpec(dim=2, power=2), 0, 8)
    assert result.stabilized_at == 0


def test_right_scan_line_ternary():
    result = right_vanishing_scan(PowerRingSpec(dim=1, power=3), -10, 8)
    assert result.stabilized_at == 3


def test_right_scan_reports_failure():
    # window too short for the twist to recover
    result = right_vanishing_scan(PowerRingSpec(dim=1, power=2), -100, 3)
    assert result.stabilized_at is None
    assert result.citations == ()


def test_right_scan_cites_eventual_vanishing_once_it_stabilizes():
    result = right_vanishing_scan(PowerRingSpec(dim=1, power=2), -3, 12)
    assert result.stabilized_at == 2
    assert result.citations == (citations.EVENTUAL_VANISHING,)


def test_right_scan_monotone():
    # once vanishing holds it persists: degrees strictly increase
    spec = PowerRingSpec(dim=2, power=3)
    for twist in range(-10, 1):
        result = right_vanishing_scan(spec, twist, 10)
        clean = {}
        for row in result.rows:
            clean.setdefault(row.n, True)
            clean[row.n] = clean[row.n] and row.value == 0
        n0 = result.stabilized_at
        assert n0 is not None
        assert all(clean[n] for n in range(n0, 11))
        assert n0 == 0 or not clean[n0 - 1]


def test_left_scan_line_binary_negative_twist():
    spec = PowerRingSpec(dim=1, power=2)
    result = left_vanishing_scan(spec, -2, 10)
    assert result.nonvanishing
    assert result.nonvanishing_from == 0
    values = {(row.n, row.q): row.value for row in result.rows}
    for n in range(11):
        # degree e_n - 2*2**n = -(2**n + 1), so the dual count is 2**n
        assert values[(n, 1)] == 2**n


def test_left_scan_trivial_twist_vanishes():
    result = left_vanishing_scan(PowerRingSpec(dim=1, power=2), 0, 8)
    assert not result.nonvanishing
    assert result.nonvanishing_from is None


@pytest.mark.parametrize("m, r, t", [(1, 2, 0), (2, 3, 0), (1, 2, 5), (3, 2, 1)])
def test_left_scan_with_nonnegative_twist_cites_nothing(m, r, t):
    assert left_vanishing_scan(PowerRingSpec(dim=m, power=r), t, 10).citations == ()


def test_left_scan_cites_persistent_top_cohomology():
    result = left_vanishing_scan(PowerRingSpec(dim=1, power=2), -3, 12)
    assert result.nonvanishing_from == 0
    assert result.citations == (citations.PERSISTENT_TOP_COHOMOLOGY,)


def test_left_scan_plane_ternary():
    result = left_vanishing_scan(PowerRingSpec(dim=2, power=3), -1, 8)
    assert result.nonvanishing
    assert result.nonvanishing_from == 2
    values = {(row.n, row.q): row.value for row in result.rows}
    assert all(values[(n, 2)] > 0 for n in range(2, 9))


def test_left_scan_constant_degree_edge():
    # power 2, twist -1 pins every degree at -1: no cohomology at all
    result = left_vanishing_scan(PowerRingSpec(dim=1, power=2), -1, 6)
    assert not result.nonvanishing
    assert all(row.degree == -1 for row in result.rows)


def test_scan_degree_bookkeeping():
    spec = PowerRingSpec(dim=2, power=3)
    right = right_vanishing_scan(spec, -4, 6)
    left = left_vanishing_scan(spec, -4, 6)
    assert len(right.rows) == len(left.rows) == 7 * 2
    assert all(type(row) is ScanRow for row in right.rows + left.rows)
    for row in right.rows:
        assert row.degree == -4 + twist_degree(spec, row.n)
    for row in left.rows:
        assert row.degree == twist_degree(spec, row.n) + 3**row.n * -4


def test_scans_require_power_at_least_two():
    with pytest.raises(ValueError):
        right_vanishing_scan(PowerRingSpec(dim=1, power=1), 0, 5)
    with pytest.raises(ValueError):
        left_vanishing_scan(PowerRingSpec(dim=1, power=1), 0, 5)


def reference_scan(spec, max_n, degree_of):
    """Scan rows with each grade's degree computed afresh and h at every q > 0."""
    m = spec.dim
    rows = []
    clean = []
    for n in range(max_n + 1):
        d = degree_of(n)
        vals = [h(m, d, q) for q in range(1, m + 1)]
        rows.extend(ScanRow(n, d, q, v) for q, v in zip(range(1, m + 1), vals))
        clean.append(all(v == 0 for v in vals))
    return rows, clean


def trailing_start(flags, value):
    """Start of the trailing run of ``flags`` equal to ``value``, or None."""
    start = None
    for n in range(len(flags) - 1, -1, -1):
        if flags[n] != value:
            break
        start = n
    return start


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 8),
    r=st.integers(2, 7),
    t=st.integers(-60, 20),
    max_n=st.integers(0, 80),
)
@example(m=1, r=3, t=-5, max_n=12)
@example(m=3, r=2, t=-7, max_n=0)
@example(m=2, r=5, t=4, max_n=20)
@example(m=4, r=2, t=-1, max_n=80)
# the thresholds' edges: t = -m - 1 puts the right marker at 1, t = -m at 0
@example(m=2, r=3, t=-3, max_n=10)
@example(m=3, r=2, t=-3, max_n=10)
# left degrees pinned at -1 by r = 2, t = -1 (marker None); falling for r = 3
@example(m=2, r=2, t=-1, max_n=30)
@example(m=1, r=3, t=-1, max_n=20)
# t = 0: nothing on either side over the longest window
@example(m=5, r=4, t=0, max_n=80)
# one grade with top cohomology: right marker None, left marker 0
@example(m=2, r=5, t=-9, max_n=0)
# top cohomology on both sides where m! (r - 1)**m has odd part 1 (a shift
# alone, or C(~d, 1) = ~d at m = 1), one digit (3, 315) and two 30-bit
# digits (467775 * 3**12)
@example(m=1, r=2, t=-6, max_n=12)
@example(m=1, r=3, t=-4, max_n=12)
@example(m=2, r=3, t=-7, max_n=12)
@example(m=2, r=5, t=-7, max_n=12)
@example(m=4, r=2, t=-9, max_n=12)
@example(m=8, r=5, t=-12, max_n=12)
@example(m=12, r=7, t=-20, max_n=12)
def test_scans_match_reference(m, r, t, max_n):
    assert_scans_match_reference(m, r, t, max_n)


def assert_scans_match_reference(m, r, t, max_n):
    """Both scans' rows and markers equal ``reference_scan``'s; returns the scans."""
    spec = PowerRingSpec(dim=m, power=r)
    rows, clean = reference_scan(spec, max_n, lambda n: t + twist_degree(spec, n))
    right = right_vanishing_scan(spec, t, max_n)
    assert right.rows == tuple(rows)
    assert right.stabilized_at == trailing_start(clean, True)
    rows, clean = reference_scan(spec, max_n, lambda n: twist_degree(spec, n) + r**n * t)
    left = left_vanishing_scan(spec, t, max_n)
    assert left.rows == tuple(rows)
    assert left.nonvanishing_from == trailing_start(clean, False)
    return right, left


def stretch(result, m):
    """The grades of ``result`` with nonzero top cohomology."""
    return [row.n for row in result.rows if row.q == m and row.value]


# The nonzero stretch of H^m is a prefix of the right scan's grades and a
# suffix of the left scan's.  Each case puts a stretch of the given length
# at each end of the window: ending inside it or filling it from grade 0
# (right), and starting inside it or filling it from grade 0 (left).  The
# right scan's lengths 0 and 1 are the threshold twists t = -m and -m - 1.
@pytest.mark.parametrize("m, r", [(1, 2), (1, 3), (2, 2), (3, 3), (4, 5), (8, 5)])
@pytest.mark.parametrize("stretch_len", ["0", "1", "m", "m+1", "m+2"])
def test_scan_stretch_edges(m, r, stretch_len):
    length = {"0": 0, "1": 1, "m": m, "m+1": m + 1, "m+2": m + 2}[stretch_len]
    spec = PowerRingSpec(dim=m, power=r)
    # right: d_n = t + e_n rises, so d_{length-1} = -m - 1 ends the prefix
    t = -m - 1 - twist_degree(spec, length - 1) if length else -m
    for max_n in (length + 2, length - 1):
        if max_n >= 0:
            right, _ = assert_scans_match_reference(m, r, t, max_n)
            assert stretch(right, m) == list(range(min(length, max_n + 1)))
    # left: t = -1 (-2 at r = 2, where -1 pins every degree at -1) starts
    # the degrees above -m - 1, so the suffix starts at some k >= 1; except
    # at (m, r) = (1, 2), where d_n = 2**n (t + 1) - 1 and d_0 = t = -2 is
    # already -m - 1, so no suffix starts inside a window
    t = -1 if r > 2 else -2
    k = next(n for n in range(64)
             if twist_degree(spec, n) + r**n * t <= -m - 1)
    assert k or (m, r) == (1, 2)
    if k:
        _, left = assert_scans_match_reference(m, r, t, k + length - 1)
        assert stretch(left, m) == list(range(k, k + length))
    # left from grade 0: d_0 = -m - 1 and the degrees fall from there
    if length:
        _, left = assert_scans_match_reference(m, r, -m - 1, length - 1)
        assert stretch(left, m) == list(range(length))


# Deep windows: every top row is h(m, d, m), every middle row 0.  The
# examples are the deep-queries benchmark's scan shapes.
@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 12),
    r=st.integers(2, 9),
    t=st.integers(-10**6, 10**6),
    max_n=st.integers(0, 1200),
)
@example(m=1, r=2, t=-1, max_n=1000)
@example(m=1, r=2, t=-2, max_n=1000)
@example(m=1, r=2, t=-9, max_n=1000)
@example(m=2, r=3, t=-1, max_n=800)
@example(m=2, r=3, t=-2, max_n=800)
@example(m=2, r=3, t=-9, max_n=800)
@example(m=4, r=2, t=-1, max_n=600)
@example(m=4, r=2, t=-2, max_n=600)
@example(m=4, r=2, t=-9, max_n=600)
@example(m=8, r=5, t=-1, max_n=300)
@example(m=8, r=5, t=-2, max_n=300)
@example(m=8, r=5, t=-9, max_n=300)
# odd parts of m! (r - 1)**m: 1 at (1, 2), (1, 3), (2, 3) and (2, 5); 3 at
# (4, 2); 315 at (8, 5); 467775 * 3**12, two 30-bit digits, at (12, 7);
# t = -10**6 gives the right scans a nonzero prefix
@example(m=1, r=2, t=-10**6, max_n=1000)
@example(m=1, r=3, t=-9, max_n=600)
@example(m=2, r=3, t=-10**6, max_n=800)
@example(m=2, r=5, t=-9, max_n=400)
@example(m=4, r=2, t=-10**6, max_n=600)
@example(m=8, r=5, t=-10**6, max_n=300)
@example(m=12, r=7, t=-9, max_n=300)
@example(m=12, r=7, t=-10**6, max_n=300)
def test_deep_scan_rows_are_closed_form_cohomology(m, r, t, max_n):
    spec = PowerRingSpec(dim=m, power=r)
    layout = [(n, q) for n in range(max_n + 1) for q in range(1, m + 1)]
    for result, degree_of in (
        (right_vanishing_scan(spec, t, max_n), lambda n: t + (r**n - 1) // (r - 1)),
        (left_vanishing_scan(spec, t, max_n), lambda n: (r**n - 1) // (r - 1) + r**n * t),
    ):
        assert [(row.n, row.q) for row in result.rows] == layout
        for row in result.rows:
            assert row.degree == degree_of(row.n)
            assert row.value == (h(m, row.degree, m) if row.q == m else 0)
