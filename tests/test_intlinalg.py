import doctest
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from intlinalg_oracles import (
    cyclotomic,
    cyclotomic_indices,
    euler_phi,
    is_quasi_unipotent_walk,
    matmul,
    random_unimodular,
    shifted,
)

import thcr.intlinalg as intlinalg
from thcr.dynamics import (
    DivisorClass,
    NumericalActionSpec,
    _real_root_above_one,
    classify_ampleness,
    non_left_ample_witness,
)
from thcr.intlinalg import (
    DEFAULT_RADIUS_WIDTH,
    IntMatrix,
    IntPolynomial,
    RationalInterval,
    SingularMatrixError,
    char_poly,
    count_real_roots_above,
    det,
    is_quasi_unipotent,
    spectral_radius_interval,
)


# --- independent oracles ------------------------------------------------------

def minor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * minor_det(minor)
    return total


def charpoly_by_interpolation(rows):
    """det(xI - P) via exact evaluation at n+1 points plus Lagrange interpolation."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        ys.append(minor_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, xk in enumerate(xs):
            if k == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d + 1] += c
                new[d] -= c * xk
            basis = new
            denom *= xi - xk
        for d, c in enumerate(basis):
            coeffs[d] += yi * c / denom
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def reference_radius_interval(matrix):
    """The radius bisection with a full Sturm count at every midpoint.

    The cells of ``spectral_radius_interval``, the grid from the Cauchy
    bound of the characteristic polynomial itself, reached on Fractions by
    halving the width and returning a root as soon as it is known to be the
    largest: at a midpoint, or as the integer in a cell narrower than 1.
    Every side is decided by ``count_real_roots_above`` and exact Fraction
    evaluation of the squarefree part.
    """
    chi = char_poly(matrix)
    # a copy, so that the library's chi caches no Sturm chain from here
    sf = IntPolynomial(*chi.coeffs)._sturm[0]
    bound = 1 + max(abs(Fraction(c, chi.leading())) for c in chi.coeffs[:-1])
    if count_real_roots_above(sf, -bound) == 0:
        raise ValueError("no real eigenvalue")
    lo, hi = -bound, Fraction(bound)
    while hi - lo > DEFAULT_RADIUS_WIDTH:
        if hi - lo < 1:
            candidate = math.floor(hi)
            if lo < candidate <= hi and sf.evaluate(candidate) == 0:
                if count_real_roots_above(sf, candidate) == 0:
                    return candidate, candidate
        mid = (lo + hi) / 2
        if sf.evaluate(mid) == 0:
            if count_real_roots_above(sf, mid) == 0:
                return mid, mid
            lo = mid
        elif count_real_roots_above(sf, mid) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_char_poly(rows):
    """det(xI - P) by the Faddeev-LeVerrier recurrence, n - 1 matrix products.

    M_1 = I, M_{k+1} = P @ M_k + c_{n-k} I and c_{n-k} = -tr(P @ M_k) / k.
    """
    n = len(rows)
    coeffs = [0] * n + [1]
    product = [list(row) for row in rows]
    for k in range(1, n + 1):
        t = sum(product[i][i] for i in range(n))
        assert t % k == 0
        c = coeffs[n - k] = -(t // k)
        if k == n:
            break
        for i in range(n):
            product[i][i] += c
        cols = list(zip(*product))
        product = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
    return IntPolynomial(*coeffs)


def companion(poly):
    """Integer companion matrix of a monic polynomial; its char_poly is poly."""
    n = poly.degree()
    rows = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -poly.coeffs[i]
    return IntMatrix(rows)


def square_lists(dim, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    )


# --- characteristic polynomial ------------------------------------------------

def test_char_poly_scalar():
    assert char_poly(IntMatrix([[2]])) == IntPolynomial(-2, 1)


def test_char_poly_identity_2x2():
    assert char_poly(IntMatrix([[1, 0], [0, 1]])) == IntPolynomial(1, -2, 1)


def test_char_poly_rotation():
    # cofactor expansion by hand: det([[x, 1], [-1, x]]) = x**2 + 1
    assert char_poly(IntMatrix([[0, -1], [1, 0]])) == IntPolynomial(1, 0, 1)


@given(st.integers(1, 4).flatmap(square_lists))
def test_char_poly_matches_interpolation_oracle(rows):
    assert char_poly(IntMatrix(rows)).coeffs == charpoly_by_interpolation(rows)


@settings(deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: square_lists(d, -(2**16), 2**16)))
def test_char_poly_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix(rows).charpoly().all_coeffs()
    assert char_poly(IntMatrix(rows)).coeffs == tuple(int(c) for c in reversed(expected))


@settings(deadline=None)
@example([[0] * 4 for _ in range(4)])
@example([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
@example([[int(i == j) for j in range(5)] for i in range(5)])
@example([[-7]])
@example([[1, 2], [3, 4]])
@example([[2, 0, 1], [1, 3, 0], [0, 1, 4]])
@example([[-(2**64), 2**64], [2**64, -(2**64)]])
@example([[-(2**64)] * 12 for _ in range(12)])
@example([[2**64 - 1 if j == 4 else 0 for j in range(12)] for _ in range(12)])
@example([[(-1) ** i * 2**64 if j == (i + 1) % 12 else 0 for j in range(12)] for i in range(12)])
@example([[-(2**64)]])
@given(st.integers(1, 12).flatmap(lambda d: square_lists(d, -(2**64), 2**64)))
def test_char_poly_matches_faddeev_leverrier(rows):
    # pinned: the zero matrix, a nilpotent Jordan block, the identity and
    # small ranks; then the packed-row slot bound |(P**k)_ij| <= ||P||_inf**k.
    # A rank-12 matrix of -(2**64) has powers of alternating sign within a
    # factor 12 of it.  One nonzero column (||P||_inf = 2**64 - 1, just below
    # a power of two), a signed cyclic shift and rank 1 reach it exactly.
    assert char_poly(IntMatrix(rows)) == reference_char_poly(rows)


def test_char_poly_computed_once_per_matrix(monkeypatch):
    runs = []
    newton_char_poly = intlinalg._newton_char_poly

    def counted(rows):
        runs.append(rows)
        return newton_char_poly(rows)

    monkeypatch.setattr(intlinalg, "_newton_char_poly", counted)
    matrix = IntMatrix([[2, 1], [1, 1]])
    assert char_poly(matrix) is char_poly(matrix)
    assert len(runs) == 1
    # the invertibility check, the cyclotomic test, the radius bisection and
    # the witness guard share one
    runs.clear()
    spec = NumericalActionSpec([[3, 1, 0], [1, 2, 1], [0, 1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    divisor = DivisorClass((1, 2, 1))
    report = classify_ampleness(spec, divisor)
    assert not report.quasi_unipotent
    non_left_ample_witness(spec, divisor, DivisorClass((1, 1, 1)))
    assert len(runs) == 1


def test_sturm_chain_built_once_per_action(monkeypatch):
    builds = []
    sturm_chain = intlinalg._sturm_chain

    def counted(poly):
        builds.append(poly)
        return sturm_chain(poly)

    monkeypatch.setattr(intlinalg, "_sturm_chain", counted)

    def chains_built(rows):
        builds.clear()
        n = len(rows)
        spec = NumericalActionSpec(rows, [[int(i == j) for j in range(n)] for i in range(n)])
        divisor = DivisorClass(((1, 2) * n)[:n])
        report = classify_ampleness(spec, divisor)
        assert report.spectral_radius is not None and not report.quasi_unipotent
        non_left_ample_witness(spec, divisor, DivisorClass((1,) * n))
        return len(builds)

    # a Perron action: the certified radius cell also decides the witness
    # guard, so no chain is built
    assert chains_built([[3, 1, 0], [1, 2, 1], [0, 1, 2]]) == 0
    # a simple integer largest root above a double root: certified as a point
    assert chains_built([[2, 1, 0], [0, 2, 0], [0, 0, 5]]) == 0
    # an irrational double largest root: the bisection and the guard read one
    # cached chain of the squarefree part
    assert chains_built([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]) == 1


def test_squarefree_chi_runs_no_gcd(monkeypatch):
    # the Sturm chain's own remainder sequence shows chi squarefree: it ends
    # in a constant, so the chain is chi's, undivided
    chi = char_poly(IntMatrix([[3, 1, 0], [1, 2, 1], [0, 1, 2]]))
    assert chi._sturm == (chi, tuple(intlinalg._sturm_chain(chi)))
    # a repeated root: one remainder sequence gives the squarefree part and
    # the chain, divided exactly by the gcd it ends in
    builds = []
    sturm_chain = intlinalg._sturm_chain

    def counted(poly):
        builds.append(poly)
        return sturm_chain(poly)

    monkeypatch.setattr(intlinalg, "_sturm_chain", counted)
    chi = IntPolynomial(1, -3, 1) * IntPolynomial(1, -3, 1) * IntPolynomial(-5, 1)
    sf, chain = chi._sturm
    assert builds == [chi]
    assert sf == IntPolynomial(1, -3, 1) * IntPolynomial(-5, 1)
    assert chain[0] == sf and chain[-1].degree() == 0
    # the pair is cached, built once per polynomial
    assert chi._sturm[0] is sf
    assert builds == [chi]
    other = IntPolynomial(*chi.coeffs)
    assert other._sturm[0] == sf
    assert builds == [chi, other]
    zero = IntPolynomial()
    with pytest.raises(ValueError, match="zero polynomial"):
        zero._sturm
    assert "_sturm" not in vars(zero)


def test_repeated_integer_root_is_certified_as_a_point():
    matrix = IntMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    chi = char_poly(matrix)
    assert chi == IntPolynomial(-2, 1) * IntPolynomial(-2, 1) * IntPolynomial(-5, 1)
    # chi(x + 5) = x (x + 3)**2 has no sign variation, whatever the double
    # root below 5, so the certificate gives the point with no squarefree
    # test and no chain
    assert spectral_radius_interval(matrix) == RationalInterval(5, 5)
    assert "_sturm" not in vars(chi)
    assert reference_radius_interval(matrix) == (5, 5)
    # the squarefree part and its counts, built on demand
    assert chi._sturm[0] == IntPolynomial(10, -7, 1)
    assert [count_real_roots_above(chi, b) for b in (0, 2, 5)] == [2, 1, 0]


def sturm_factor_lists():
    """Linear and quadratic factors with multiplicities 1-3, possibly none."""
    linear = st.tuples(st.integers(-4, 4), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    quadratic = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([-2, -1, 1, 2]))
    factor = st.tuples(st.one_of(linear, quadratic), st.integers(1, 3))
    return st.lists(factor, max_size=3)


def fraction_divmod(a, b):
    """Quotient and remainder of a by b over Q, coefficient lists from x**0 up."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        quotient.append(c)
        for i, x in enumerate(b):
            a[len(a) - len(b) + i] -= c * x
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return quotient[::-1], a


def two_sequence_sturm_chain(poly):
    """The squarefree part's Sturm chain over Q by two remainder sequences:
    sf = poly / gcd(poly, poly') from one Euclid, then sf, sf' and the
    negated remainders from a second."""
    f = [Fraction(c) for c in poly.coeffs]
    if len(f) < 2:
        return []
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    sf, rem = fraction_divmod(f, a)
    assert not rem
    chain = [sf, [i * c for i, c in enumerate(sf)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in fraction_divmod(chain[-2], chain[-1])[1]])
    return chain


def sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(deadline=None)
@example([], 0)
@example([], 7)
@example([((3, -2), 1)], 1)
@example([((-2, 1), 2), ((-5, 1), 1)], -1)
@example([((1, -3, 1), 2), ((-5, 1), 3)], 2)
@given(sturm_factor_lists(), st.sampled_from([0, -6, -2, -1, 1, 2, 6]))
def test_sturm_matches_two_sequence_construction(factors, content):
    # the one divided remainder sequence counts the roots above each point as
    # the chain of the squarefree part does, also at the rational roots
    poly = expand(factors) * IntPolynomial(content)
    if content == 0:
        # every real number is a root of the zero polynomial: no count exists
        with pytest.raises(ValueError, match="zero polynomial"):
            count_real_roots_above(poly, 0)
        with pytest.raises(ValueError, match="zero polynomial"):
            poly._sturm
        return
    reference = two_sequence_sturm_chain(poly)
    at_infinity = sign_changes([f[-1] for f in reference])
    points = {Fraction(-c[0], c[1]) for c, _ in factors if len(c) == 2}
    points.update(Fraction(n, 4) for n in range(-24, 25))
    for x in sorted(points):
        values = [sum(c * x**i for i, c in enumerate(f)) for f in reference]
        assert count_real_roots_above(poly, x) == sign_changes(values) - at_infinity, x


@given(st.integers(1, 4).flatmap(square_lists))
def test_det_matches_cofactor_oracle(rows):
    assert det(IntMatrix(rows)) == minor_det(rows)


# --- spectral radius interval ---------------------------------------------------

def test_spectral_radius_scalar_exact():
    assert spectral_radius_interval(IntMatrix([[2]])) == intlinalg.RationalInterval(2, 2)


def test_spectral_radius_identity_exact():
    ident = IntMatrix([[1, 0], [0, 1]])
    assert spectral_radius_interval(ident) == intlinalg.RationalInterval(1, 1)


def test_spectral_radius_golden_ratio():
    fib = IntMatrix([[1, 1], [1, 0]])
    chi = char_poly(fib)  # x**2 - x - 1, increasing through its largest root
    interval = spectral_radius_interval(fib)
    assert interval.hi - interval.lo <= DEFAULT_RADIUS_WIDTH
    assert chi.evaluate(interval.lo) <= 0 <= chi.evaluate(interval.hi)
    assert count_real_roots_above(chi, interval.hi) == 0


def test_spectral_radius_singular_rejected():
    with pytest.raises(SingularMatrixError):
        spectral_radius_interval(IntMatrix([[1, 1], [1, 1]]))


def test_spectral_radius_no_real_eigenvalue():
    with pytest.raises(ValueError, match="^no real eigenvalue"):
        spectral_radius_interval(IntMatrix([[0, -1], [1, 0]]))


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: square_lists(d, 0, 4)))
def test_spectral_radius_certificate_on_cone_preserving(rows):
    # Entrywise nonnegative matrices preserve the positive orthant, so the
    # largest real root is the spectral radius and |det| >= 1 forces it >= 1.
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    interval = spectral_radius_interval(matrix)
    chi = char_poly(matrix)
    assert interval.lo >= 1 - DEFAULT_RADIUS_WIDTH
    assert count_real_roots_above(chi, interval.hi) == 0
    assert chi.evaluate(interval.lo) == 0 or count_real_roots_above(chi, interval.lo) >= 1


def radius_factor():
    """Monic factors with a multiplicity: rational roots of either sign,
    quadratics with complex or irrational roots, and close pairs
    k, sqrt(k**2 + 1), about 1 / (2k) apart."""
    linear = st.integers(-6, 6).map(lambda r: IntPolynomial(-r, 1))
    quadratic = st.tuples(st.integers(-6, 6), st.integers(-9, 9)).map(
        lambda bc: IntPolynomial(bc[1], bc[0], 1)
    )
    close_pair = st.integers(1, 1000).map(
        lambda k: IntPolynomial(-k, 1) * IntPolynomial(-(k * k + 1), 0, 1)
    )
    return st.tuples(st.one_of(linear, quadratic, close_pair), st.integers(1, 3))


@st.composite
def radius_matrices(draw):
    if draw(st.booleans()):
        rows = draw(st.integers(1, 5).flatmap(lambda d: square_lists(d, -8, 8)))
        return IntMatrix(rows)
    poly = IntPolynomial(1)
    for factor, multiplicity in draw(st.lists(radius_factor(), min_size=1, max_size=3)):
        for _ in range(multiplicity):
            poly = poly * factor
    assume(poly.degree() <= 9)
    # a shift to the left makes the largest root negative
    return companion(shifted(poly, draw(st.integers(-40, 6))))


@settings(deadline=None, max_examples=150)
@given(radius_matrices())
def test_spectral_radius_matches_full_sturm_bisection(matrix):
    assume(det(matrix) != 0)
    try:
        expected = reference_radius_interval(matrix)
    except ValueError:
        with pytest.raises(ValueError, match="^no real eigenvalue"):
            spectral_radius_interval(matrix)
        return
    interval = spectral_radius_interval(matrix)
    assert (interval.lo, interval.hi) == expected


@st.composite
def action_matrices(draw):
    """Signed, nonnegative and equal-row-sum matrices, and companions of a
    cyclotomic product times (x - r): the shapes the ampleness path meets.

    Equal row sums make the row sum an eigenvalue with the all-ones
    eigenvector, so a nonnegative one has an integer spectral radius.
    """
    kind = draw(st.sampled_from(["signed", "nonnegative", "row-sum", "cyclotomic"]))
    if kind == "cyclotomic":
        poly = IntPolynomial(-draw(st.integers(-4, 4)), 1)
        for index in draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), max_size=2)):
            poly = poly * cyclotomic(index)
        return companion(poly)
    n = draw(st.integers(1, 6))
    if kind == "signed":
        return IntMatrix(draw(square_lists(n, -9, 9)))
    rows = draw(square_lists(n, 0, 9))
    if kind == "row-sum":
        total = max(map(sum, rows)) + draw(st.integers(0, 5))
        for i, row in enumerate(rows):
            row[i] += total - sum(row)
    return IntMatrix(rows)


@settings(deadline=None, max_examples=150)
@given(st.one_of(radius_matrices(), action_matrices()))
# integer largest roots, which the bisection returns as points
@example(IntMatrix([[3, 0], [0, 1]]))
@example(IntMatrix([[2, 5, 1], [4, 3, 1], [0, 0, 8]]))
def test_spectral_radius_matches_full_sturm_bisection_on_action_shapes(matrix):
    assume(det(matrix) != 0)
    try:
        expected = reference_radius_interval(matrix)
    except ValueError:
        with pytest.raises(ValueError, match="^no real eigenvalue"):
            spectral_radius_interval(matrix)
        return
    interval = spectral_radius_interval(matrix)
    assert (interval.lo, interval.hi) == expected


def diagonal_matrix(entries):
    n = len(entries)
    return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


@settings(deadline=None, max_examples=200)
@given(st.one_of(
    radius_matrices(),
    action_matrices(),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(diagonal_matrix),
))
# integer largest roots, with smaller integer roots on the bisection's midpoints
@example(diagonal_matrix((1, 3, 5)))
@example(diagonal_matrix((-5, -3, -1)))
# the root 1 and an irrational root about 1e-11 above or below it share the
# final cell, so a point needs the Sturm count at 1
@example(companion(IntPolynomial(-1, 1) * IntPolynomial(-(10**11 + 2), 10**11, 1)))
@example(companion(IntPolynomial(-1, 1) * IntPolynomial(-(10**11), 10**11, 1)))
def test_sturm_fallback_matches_full_sturm_bisection(matrix):
    # with no float guess the certificate declines every input, so the
    # bisection and its integer-root check on the final cell answer each shape
    assume(det(matrix) != 0)
    matrix = IntMatrix(matrix.rows)  # no cell cached from an earlier example
    with mock.patch.object(intlinalg, "_float_largest_root", return_value=None):
        try:
            expected = reference_radius_interval(matrix)
        except ValueError:
            with pytest.raises(ValueError, match="^no real eigenvalue"):
                spectral_radius_interval(matrix)
            return
        interval = spectral_radius_interval(matrix)
    assert (interval.lo, interval.hi) == expected
    assert "_sturm" in vars(char_poly(matrix))


def test_certificate_gallops_one_cell_to_the_root():
    # the float guess lies just below the largest root's cell, so the
    # certificate steps one cell up; no Sturm chain is built
    matrix = IntMatrix([[996383, 113231], [957651, 943229]])
    chi = char_poly(matrix)
    guess = Fraction(intlinalg._float_largest_root(chi))
    interval = spectral_radius_interval(matrix)
    assert 2 * interval.lo - interval.hi < guess < interval.lo
    assert (interval.lo, interval.hi) == reference_radius_interval(matrix)
    assert "_sturm" not in vars(chi)


def test_certificate_steps_one_cell_down_to_the_root():
    matrix = IntMatrix([[821698, 242574], [115860, 431082]])
    chi = char_poly(matrix)
    guess = Fraction(intlinalg._float_largest_root(chi))
    interval = spectral_radius_interval(matrix)
    assert interval.hi < guess < 2 * interval.hi - interval.lo
    assert (interval.lo, interval.hi) == reference_radius_interval(matrix)
    assert "_sturm" not in vars(chi)


@pytest.mark.parametrize("chi", [
    IntPolynomial(2, 0, 1),
    IntPolynomial(1, -3, 1) * IntPolynomial(1, -3, 1),
], ids=["x**2 + 2", "(x**2 - 3x + 1)**2"])
def test_certificate_declines_a_sign_constant_chi_in_one_step(chi):
    # chi >= 0 everywhere, so the guess's cell and the one below it show no
    # sign change, and the certificate declines after three values of chi
    matrix = companion(chi)
    try:
        expected = reference_radius_interval(matrix)
    except ValueError:
        expected = None
    certify = intlinalg._certified_largest_root
    runs = []

    def counted(*args):
        with mock.patch.object(
            intlinalg, "_homogeneous_value", wraps=intlinalg._homogeneous_value
        ) as values:
            result = certify(*args)
        runs.append((result, values.call_count))
        return result

    with mock.patch.object(intlinalg, "_certified_largest_root", counted):
        if expected is None:
            with pytest.raises(ValueError, match="^no real eigenvalue"):
                spectral_radius_interval(matrix)
        else:
            interval = spectral_radius_interval(matrix)
            assert (interval.lo, interval.hi) == expected
    [(result, evaluations)] = runs
    assert result is None and evaluations <= 3


def test_benchmark_shaped_actions_are_certified():
    # nonnegative actions with a positive diagonal, ranks 2-12 and 2-16-bit
    # entries, a third with equal row sums, as the ampleness corpus draws
    # them: the float guess certifies each largest root, so no chain is built
    rng = random.Random(29)
    actions = 0
    while actions < 100:
        n, hi = rng.randint(2, 12), 2 ** rng.randint(2, 16) - 1
        rows = [[rng.randint(int(i == j), hi) for j in range(n)] for i in range(n)]
        if actions % 3 == 0:
            total = max(map(sum, rows))
            for i, row in enumerate(rows):
                row[i] += total - sum(row)
        matrix = IntMatrix(rows)
        if det(matrix) == 0:
            continue
        actions += 1
        interval = spectral_radius_interval(matrix)
        chi = char_poly(matrix)
        assert "_sturm" not in vars(chi), rows
        if interval.lo == interval.hi:
            assert chi.evaluate(interval.lo) == 0
        else:
            assert chi.evaluate(interval.lo) < 0 < chi.evaluate(interval.hi)
        assert count_real_roots_above(chi, interval.hi) == 0


def assert_bisection_fallback(matrix):
    """The certificate declines ``matrix``; the bisection gives the reference.

    On the radius path only the bisection builds a Sturm chain, so a chain
    kept on a fresh matrix's characteristic polynomial shows the decline.
    """
    chi = char_poly(matrix)
    assert "_sturm" not in vars(chi)
    interval = spectral_radius_interval(matrix)
    assert "_sturm" in vars(chi)
    assert (interval.lo, interval.hi) == reference_radius_interval(matrix)
    return interval


def test_certificate_declines_a_complex_pair_right_of_the_largest_real_root():
    # 5 +- 3i lie right of the real root 2, so the shift by 2 keeps a sign
    # variation that Descartes' rule cannot rule out
    matrix = IntMatrix([[5, -3, 0], [3, 5, 0], [0, 0, 2]])
    chi = char_poly(matrix)
    assert not intlinalg._shift_nonnegative(chi, 2, 1)
    assert assert_bisection_fallback(matrix) == intlinalg.RationalInterval(2, 2)


def test_certificate_declines_when_the_float_guess_overflows():
    matrix = IntMatrix([[2**1100 + 3, 1], [1, 1]])
    assert intlinalg._float_largest_root(char_poly(matrix)) is None
    interval = assert_bisection_fallback(matrix)
    assert interval.lo < 2**1100 + 3 < interval.hi


def test_certificate_declines_an_even_multiplicity_largest_root():
    # chi = (x**2 - 3x + 1)**2 keeps its sign across the double root
    # (3 + sqrt(5)) / 2, so no cell shows a sign change; the bisection counts
    # on the squarefree part and returns the cell of chi's grid
    matrix = IntMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    chi = char_poly(matrix)
    assert chi == IntPolynomial(1, -3, 1) * IntPolynomial(1, -3, 1)
    interval = assert_bisection_fallback(matrix)
    assert chi._sturm[0] == IntPolynomial(1, -3, 1)
    assert interval == RationalInterval(
        Fraction(11244370359, 4294967296), Fraction(5622185181, 2147483648)
    )
    assert (2 * interval.lo - 3) ** 2 < 5 < (2 * interval.hi - 3) ** 2


@st.composite
def repeated_blocks(draw):
    """diag(A, ..., A) with two or three copies of a positive 2x2 or 3x3 A,
    whose simple Perron root becomes a root of that multiplicity."""
    k = draw(st.integers(2, 3))
    block = draw(square_lists(k, 1, 2**8))
    copies = draw(st.integers(2, 3))
    n = k * copies
    rows = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(k):
            rows[c * k + i][c * k : (c + 1) * k] = block[i]
    return rows, copies


@settings(deadline=None, max_examples=60)
@given(repeated_blocks())
@example(([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]], 2))
@example(([[2, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 2, 1, 0, 0],
           [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 2, 1], [0, 0, 0, 0, 1, 1]], 3))
@example(([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]], 2))
# rounding noise near the triple root 266.35 once sent the float guess to the
# smaller triple root 36.65
@example(([[172, 129, 0, 0, 0, 0], [99, 131, 0, 0, 0, 0], [0, 0, 172, 129, 0, 0],
           [0, 0, 99, 131, 0, 0], [0, 0, 0, 0, 172, 129], [0, 0, 0, 0, 99, 131]], 3))
def test_spectral_radius_of_a_repeated_perron_root(case):
    sympy = pytest.importorskip("sympy")
    rows, copies = case
    matrix = IntMatrix(rows)  # a fresh matrix, so chi and its cells are not cached yet
    assume(det(matrix) != 0)
    with mock.patch.object(intlinalg, "_sturm_chain", wraps=intlinalg._sturm_chain) as chains:
        interval = spectral_radius_interval(matrix)
    # an integer root is certified as a point, since round() absorbs the float
    # guess's error; any other repeated root leaves the guess many cells off
    # (about eps**(1/k) for multiplicity k) or chi without a sign change, so
    # the certificate declines and the bisection builds one chain
    assert chains.call_count == (interval.lo != interval.hi)
    assert (interval.lo, interval.hi) == reference_radius_interval(matrix)
    root = max(sympy_poly(char_poly(matrix)).real_roots())
    lo = sympy.Rational(interval.lo.numerator, interval.lo.denominator)
    hi = sympy.Rational(interval.hi.numerator, interval.hi.denominator)
    assert lo <= root <= hi


@settings(deadline=None, max_examples=100)
@given(st.one_of(radius_matrices(), action_matrices()))
# the largest root about 1e-11 above or below 1, so that 1 lies strictly
# inside its cell and the guard falls back to a Sturm count
@example(companion(IntPolynomial(-(10**11 + 2), 10**11, 1)))
@example(companion(IntPolynomial(-(10**11), 10**11, 1)))
def test_witness_guard_matches_sturm_count(matrix):
    assume(det(matrix) != 0)
    chi = char_poly(matrix)
    assert _real_root_above_one(chi) == (count_real_roots_above(chi, 1) >= 1)


def test_witness_guard_counts_only_when_one_is_inside_the_cell():
    for n, inside in ((10**11, True), (10**10, False)):
        chi = char_poly(companion(IntPolynomial(-(n + 2), n, 1)))
        interval = chi._largest_root
        assert (interval.lo < 1 < interval.hi) == inside
        assert _real_root_above_one(chi)
        assert ("_sturm" in vars(chi)) == inside


@pytest.mark.parametrize(
    "diagonal, root",
    [((1, 3, 5), 5), ((-5, -3, -1), -1), ((-2, -1), -1)],
)
def test_spectral_radius_midpoint_on_smaller_root(diagonal, root):
    # a bisection midpoint lands exactly on a smaller root of the
    # squarefree part before the largest root is isolated
    matrix = diagonal_matrix(diagonal)
    assert reference_radius_interval(matrix) == (root, root)
    assert spectral_radius_interval(matrix) == intlinalg.RationalInterval(root, root)


def test_spectral_radius_lower_end_on_smaller_root():
    # (x - 1)(x**2 + 2x - 5): a midpoint lands on the root 1, which becomes the
    # lower end while the largest root -1 + sqrt(6) lies less than 1 above it,
    # so the floor candidate 1 is a root of sf at lo and must not be returned
    matrix = companion(IntPolynomial(-1, 1) * IntPolynomial(-5, 2, 1))
    interval = spectral_radius_interval(matrix)
    assert (interval.lo, interval.hi) == reference_radius_interval(matrix)
    assert (interval.lo + 1) ** 2 < 6 < (interval.hi + 1) ** 2


# --- quasi-unipotence -----------------------------------------------------------

def test_quasi_unipotent_identity():
    assert is_quasi_unipotent(IntMatrix([[1, 0], [0, 1]]))


def test_quasi_unipotent_rotation():
    assert is_quasi_unipotent(IntMatrix([[0, -1], [1, 0]]))


def test_quasi_unipotent_scalar_two():
    assert not is_quasi_unipotent(IntMatrix([[2]]))


def test_quasi_unipotent_more_cases():
    assert is_quasi_unipotent(IntMatrix([[-1]]))
    assert is_quasi_unipotent(IntMatrix([[1, 1], [0, 1]]))  # unipotent shear
    assert is_quasi_unipotent(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # 3-cycle
    assert not is_quasi_unipotent(IntMatrix([[1, 1], [1, 0]]))
    assert not is_quasi_unipotent(IntMatrix([[2, 0], [0, 3]]))
    # det = -1 but a real eigenvalue pair off the unit circle
    assert not is_quasi_unipotent(IntMatrix([[2, 1], [1, 1]]))


def test_quasi_unipotent_float_oracle_sample():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(12345)
    checked = 0
    while checked < 100:
        dim = rng.choice([2, 3])
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        matrix = IntMatrix(rows)
        if det(matrix) == 0:
            continue
        checked += 1
        eigvals = numpy.linalg.eigvals(numpy.array(rows, dtype=float))
        oracle = bool(max(abs(abs(v) - 1.0) for v in eigvals) <= 1e-6)
        assert is_quasi_unipotent(matrix) == oracle


@st.composite
def near_cyclotomic_matrices(draw):
    """Block-triangular cyclotomic companions conjugated by a unimodular
    matrix, with one entry sometimes nudged off the root-of-unity locus."""
    indices = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]),
                            min_size=1, max_size=4))
    blocks = [companion(cyclotomic(d)).rows for d in indices]
    n = sum(len(b) for b in blocks)
    assume(n <= 8)
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    start = 0
    for block in blocks:
        # the block on the diagonal, zeros below it
        k = len(block)
        for i in range(start, n):
            for j in range(start, start + k):
                rows[i][j] = block[i - start][j - start] if i < start + k else 0
        start += k
    if draw(st.booleans()):
        # on or below the diagonal, where it can change the polynomial
        i = draw(st.integers(0, n - 1))
        rows[i][draw(st.integers(0, i))] += draw(st.sampled_from([-1, 1]))
    matrix = IntMatrix(rows)
    if n > 1:
        q, q_inv = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
        matrix = IntMatrix(matmul(matmul(q, matrix.rows), q_inv))
    return matrix


@settings(deadline=None)
@given(near_cyclotomic_matrices())
def test_quasi_unipotent_matches_sympy_factorisation(matrix):
    sympy = pytest.importorskip("sympy")
    factors = sympy.Matrix(matrix.rows).charpoly().factor_list()[1]
    expected = all(f.is_cyclotomic for f, _ in factors)
    assert is_quasi_unipotent(matrix) == expected


# Salem polynomials: reciprocal, one root above 1 and the others on the unit
# circle, none a root of unity.  The first is Lehmer's (Salem number 1.17628).
SALEM = [
    IntPolynomial(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
    IntPolynomial(1, 0, 0, -1, -1, -1, 0, 0, 1),
    IntPolynomial(1, 0, -1, -1, -1, 0, 1),
    IntPolynomial(1, -1, -1, -1, 1),
]


@st.composite
def graeffe_cases(draw):
    """Companions of cyclotomic products, alone or times a Salem polynomial,
    conjugated by a unimodular matrix, and unimodular products of shears:
    ranks 1..12."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["cyclotomic", "salem", "unimodular"]))
    if kind == "unimodular":
        return IntMatrix(random_unimodular(rng, draw(st.integers(2, 12)))[0])
    poly = draw(st.sampled_from(SALEM)) if kind == "salem" else IntPolynomial(1)
    n = draw(st.integers(max(poly.degree(), 1), 12))
    while poly.degree() < n:
        room = n - poly.degree()
        poly = poly * cyclotomic(draw(st.sampled_from(cyclotomic_indices(room))))
    matrix = companion(poly)
    if n > 1:
        q, q_inv = random_unimodular(rng, n)
        matrix = IntMatrix(matmul(matmul(q, matrix.rows), q_inv))
    return matrix


@settings(deadline=None, max_examples=200)
@given(graeffe_cases())
def test_quasi_unipotent_matches_the_cyclotomic_walk(matrix):
    assert is_quasi_unipotent(matrix) == is_quasi_unipotent_walk(matrix)


def test_quasi_unipotent_rejects_salem_companions():
    for poly in SALEM:
        assert not is_quasi_unipotent(companion(poly))


def test_quasi_unipotent_nilpotent_is_not():
    # chi = x**2 is its own Graeffe image; the determinant gate answers first
    assert not is_quasi_unipotent(IntMatrix([[0, 1], [0, 0]]))


def test_quasi_unipotent_determinant_gate_squares_nothing():
    matrix = IntMatrix([[-2]])
    char_poly(matrix)
    with mock.patch.object(IntPolynomial, "__mul__", side_effect=AssertionError):
        assert not is_quasi_unipotent(matrix)


def test_quasi_unipotent_phi_16_takes_five_squarings():
    # Phi_16 = x**8 + 1 -> Phi_8**2 -> Phi_4**4 -> Phi_2**8 -> Phi_1**8, which
    # is its own image; (x + 1)**8 meets the binomial bound with equality
    matrix = companion(cyclotomic(16))
    char_poly(matrix)
    with mock.patch.object(
        IntPolynomial, "__mul__", autospec=True, side_effect=IntPolynomial.__mul__
    ) as mul:
        assert is_quasi_unipotent(matrix)
    assert mul.call_count == 5


def test_quasi_unipotent_with_fixed_vector_has_radius_one():
    # When 1 is an eigenvalue the largest real root of a quasi-unipotent
    # action is exactly 1.
    for rows in ([[1]], [[1, 1], [0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]):
        matrix = IntMatrix(rows)
        assert is_quasi_unipotent(matrix)
        assert spectral_radius_interval(matrix) == RationalInterval(1, 1)


def test_cyclotomic_indices_match_brute_force():
    # phi from a sieve up to twice Kronecker's bound 2 * n * n at n = 30
    limit = 4 * 30 * 30
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    for n in range(1, 31):
        expected = tuple(d for d in range(1, limit + 1) if phi[d] <= n)
        assert cyclotomic_indices(n) == expected
        assert max(expected) <= 2 * n * n


@pytest.mark.parametrize("bad", [True, False, 2.0, 1.5, "3", None], ids=repr)
def test_cyclotomic_rejects_non_integers(bad):
    # the cache holds the entries of 1 and 2, which True and 2.0 compare equal to
    assert cyclotomic(1) == IntPolynomial(-1, 1)
    assert cyclotomic(2) == IntPolynomial(1, 1)
    with pytest.raises(TypeError, match="^cyclotomic index must be an integer"):
        cyclotomic(bad)


@pytest.mark.parametrize("bad", [True, False, 7.5, 6.0, "3", None], ids=repr)
def test_euler_phi_rejects_non_integers(bad):
    # the cache holds the entries of 1 and 6, which True and 6.0 compare equal to;
    # unchecked, 7.5 and 6.0 give 6.5 and 2.0
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    with pytest.raises(TypeError, match="^euler_phi argument must be an integer"):
        euler_phi(bad)


def test_cyclotomic_small():
    assert cyclotomic(1) == IntPolynomial(-1, 1)
    assert cyclotomic(2) == IntPolynomial(1, 1)
    assert cyclotomic(4) == IntPolynomial(1, 0, 1)
    assert cyclotomic(6) == IntPolynomial(1, -1, 1)
    assert euler_phi(12) == 4


# --- root counting and plumbing -------------------------------------------------

def test_count_real_roots_full_line():
    chi = char_poly(IntMatrix([[2, 0], [0, 3]]))
    assert count_real_roots_above(chi, 2) == 1
    assert count_real_roots_above(chi, 3) == 0


# --- integer Sturm layer against sympy ---------------------------------------------

def factor_lists(monic=False):
    """Factor lists [(coeffs, multiplicity)] of linear and quadratic factors.

    Monic lists have nonzero constant terms, so their product is the
    characteristic polynomial of an invertible companion matrix.
    """
    lead = st.just(1) if monic else st.sampled_from([-3, -2, -1, 1, 2, 3])
    const = st.integers(-4, 4).filter(bool) if monic else st.integers(-4, 4)
    linear = st.tuples(const, lead)
    quadratic = st.tuples(const, st.integers(-4, 4), lead)
    factor = st.tuples(st.one_of(linear, quadratic), st.integers(1, 3))
    return st.lists(factor, min_size=1, max_size=3)


def expand(factors):
    poly = IntPolynomial(1)
    for coeffs, multiplicity in factors:
        for _ in range(multiplicity):
            poly = poly * IntPolynomial(*coeffs)
    return poly


def sympy_poly(poly):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(poly.coeffs)), sympy.Symbol("x"))


@settings(deadline=None)
@given(factor_lists())
def test_squarefree_part_matches_sympy(factors):
    poly = expand(factors)
    expected = tuple(int(c) for c in reversed(sympy_poly(poly).sqf_part().all_coeffs()))
    assert poly._sturm[0].coeffs in (expected, tuple(-c for c in expected))


@settings(deadline=None)
@example([((1, 1, -3), 1), ((4, -1, 3), 2)])
@example([((-1, 1), 1), ((1, -2, 2), 3)])
@given(factor_lists())
def test_count_real_roots_above_matches_sympy(factors):
    sympy = pytest.importorskip("sympy")
    poly = expand(factors)
    roots = set(sympy_poly(poly).real_roots())
    # every rational root is a bound, and so is a grid of rationals off the
    # dyadic points that bisection visits
    bounds = {Fraction(-c[0], c[1]) for c, _ in factors if len(c) == 2}
    bounds.update(Fraction(n, 3) for n in range(-18, 19))
    for bound in sorted(bounds):
        rational = sympy.Rational(bound.numerator, bound.denominator)
        expected = sum(1 for r in roots if r > rational)
        assert count_real_roots_above(poly, bound) == expected, bound


@settings(deadline=None)
@given(factor_lists(monic=True))
def test_spectral_radius_encloses_sympy_largest_root(factors):
    sympy = pytest.importorskip("sympy")
    poly = expand(factors)
    roots = sympy_poly(poly).real_roots()
    assume(roots)
    matrix = companion(poly)
    assert char_poly(matrix) == poly
    interval = spectral_radius_interval(matrix)
    assert interval.hi - interval.lo <= DEFAULT_RADIUS_WIDTH
    lo = sympy.Rational(interval.lo.numerator, interval.lo.denominator)
    hi = sympy.Rational(interval.hi.numerator, interval.hi.denominator)
    assert lo <= max(roots) <= hi


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    # entries that are not plain ints go through ring._exact_int: bools, floats
    # and strings are rejected, never truncated
    for bad in (lambda: IntPolynomial(True), lambda: IntPolynomial(2.0),
                lambda: IntPolynomial(1, "2"), lambda: IntMatrix([[1.5]]),
                lambda: IntMatrix([[1, 2], [3, True]])):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("lo, hi", [
    (True, 2), (0, False), (0.5, 1), (1, 2.0), ("1/2", 1), (0, "1"), (None, 1),
], ids=repr)
def test_interval_rejects_non_rational_endpoints(lo, hi):
    # Fraction() took all of these: a bool as 0 or 1, a float as its binary
    # value and a string by parsing it
    with pytest.raises(TypeError, match="^interval endpoints must be ints or Fractions"):
        RationalInterval(lo, hi)
    with pytest.raises(TypeError, match="^interval endpoints must be ints or Fractions"):
        RationalInterval(lo=lo, hi=hi)


def test_interval_takes_ints_and_fractions():
    for interval in (RationalInterval(1, Fraction(3, 2)),
                     RationalInterval(lo=1, hi=Fraction(3, 2)),
                     RationalInterval(Fraction(2, 2), hi=Fraction(6, 4))):
        assert (interval.lo, interval.hi) == (1, Fraction(3, 2))
        assert type(interval.lo) is Fraction and type(interval.hi) is Fraction
    with pytest.raises(ValueError):
        RationalInterval(2, 1)


@pytest.mark.parametrize("bound", [True, False, 0.5, 2.0, "1/3", None], ids=repr)
def test_count_real_roots_above_rejects_non_rational_bounds(bound):
    # Fraction() took all but None: a bool as 0 or 1, a float as its binary
    # value and a string by parsing it
    chi = IntPolynomial(-2, 0, 1)
    with pytest.raises(TypeError, match="^bound must be an int or a Fraction"):
        count_real_roots_above(chi, bound)
    assert count_real_roots_above(chi, Fraction(1, 3)) == count_real_roots_above(chi, 1) == 1


def test_doctests():
    failures, _ = doctest.testmod(intlinalg)
    assert failures == 0
