
import random
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from intlinalg_oracles import cyclotomic, euler_phi, matmul, random_unimodular

from thcr import citations
from thcr.dynamics import (
    MAX_WITNESS_MULTIPLIER,
    CurveFunctional,
    DivisorClass,
    NumericalActionSpec,
    UnsupportedActionError,
    Verdict,
    WitnessSearchExhausted,
    classify_ampleness,
    non_left_ample_witness,
    orbit_pairings,
    pairing,
)
import thcr.dynamics as dynamics
from thcr.intlinalg import IntMatrix, IntPolynomial, RationalInterval, char_poly, det


def scalar_spec(p):
    return NumericalActionSpec([[p]], [[1]])


D1 = DivisorClass((1,))
C1 = CurveFunctional((1,))


# --- orbit and partial sums ------------------------------------------------------

def test_orbit_scalar_doubling():
    assert orbit_pairings(scalar_spec(2), D1, C1, 3) == [1, 2, 4, 8]


def test_orbit_zero_divisor():
    spec = NumericalActionSpec([[1, 1], [0, 1]], [[1, 0]])
    zero = DivisorClass((0, 0))
    assert orbit_pairings(spec, zero, CurveFunctional((1, 0)), 5) == [0] * 6


def test_orbit_shear():
    spec = NumericalActionSpec([[1, 1], [0, 1]], [[1, 0]])
    assert orbit_pairings(spec, DivisorClass((0, 1)), CurveFunctional((1, 0)), 3) == [
        0,
        1,
        2,
        3,
    ]


def partial_sums(spec, divisor, curve, max_m):
    """[(Delta_m(D) . C) for m = 1..max_m], Delta_m(D) = sum_{i<m} P**i D."""
    return list(accumulate(orbit_pairings(spec, divisor, curve, max_m - 1)))


def test_delta_scalar_doubling():
    # 1 + p + ... + p**(m-1) with p = 2
    assert partial_sums(scalar_spec(2), D1, C1, 4) == [1, 3, 7, 15]


def test_delta_zero_divisor():
    assert partial_sums(scalar_spec(3), DivisorClass((0,)), C1, 4) == [0] * 4


def test_delta_shear():
    spec = NumericalActionSpec([[1, 1], [0, 1]], [[1, 0]])
    assert partial_sums(spec, DivisorClass((0, 1)), CurveFunctional((1, 0)), 4) == [
        0,
        1,
        3,
        6,
    ]


def small_vectors(dim):
    return st.tuples(*([st.integers(-4, 4)] * dim))


def curve_vectors(dim):
    """Small curves, or curves with entries up to 2**40, wider than the
    slots of the packed powers kept with chi, so those are repacked."""
    return st.one_of(small_vectors(dim), st.tuples(*([st.integers(-(2**40), 2**40)] * dim)))


def small_matrices(dim):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    )


@settings(deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            small_matrices(d),
            small_vectors(d),
            small_vectors(d),
            small_vectors(d),
            small_vectors(d),
        )
    )
)
def test_orbit_is_bilinear(data):
    rows, d1, d2, c1, c2 = data
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    spec = NumericalActionSpec(matrix, [c1, c2])
    da, db = DivisorClass(d1), DivisorClass(d2)
    dsum = DivisorClass(tuple(a + b for a, b in zip(d1, d2)))
    ca, cb = CurveFunctional(c1), CurveFunctional(c2)
    csum = CurveFunctional(tuple(a + b for a, b in zip(c1, c2)))
    left = orbit_pairings(spec, dsum, ca, 5)
    split = [
        x + y
        for x, y in zip(orbit_pairings(spec, da, ca, 5), orbit_pairings(spec, db, ca, 5))
    ]
    assert left == split
    left_c = orbit_pairings(spec, da, csum, 5)
    split_c = [
        x + y
        for x, y in zip(orbit_pairings(spec, da, ca, 5), orbit_pairings(spec, da, cb, 5))
    ]
    assert left_c == split_c


@settings(deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(small_matrices(d), small_vectors(d), small_vectors(d))
    )
)
def test_delta_differences_are_orbit_values(data):
    # Delta_m(D) summed as a class, by matrix-vector products, pairs with C to
    # the partial sums of the orbit
    rows, dvec, cvec = data
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    spec = NumericalActionSpec(matrix, [cvec])
    divisor, curve = DivisorClass(dvec), CurveFunctional(cvec)
    orbit = orbit_pairings(spec, divisor, curve, 6)
    deltas = partial_sums(spec, divisor, curve, 7)
    vec, total = dvec, (0,) * len(dvec)
    for m in range(7):
        total = tuple(a + b for a, b in zip(total, vec))
        vec = matrix.apply(vec)
        assert pairing(DivisorClass(total), curve) == deltas[m]
        assert deltas[m] - (deltas[m - 1] if m else 0) == orbit[m]


def reference_orbit_pairings(spec, divisor, curve, max_m):
    """The orbit by one exact matrix-vector product per term."""
    vec = divisor.coords
    out = [pairing(DivisorClass(vec), curve)]
    for _ in range(max_m):
        vec = spec.matrix.apply(vec)
        out.append(pairing(DivisorClass(vec), curve))
    return out


@st.composite
def orbit_cases(draw):
    """Signed actions of rank 1..8, or companions of cyclotomic products
    (every eigenvalue a root of unity, repeated factors allowed), with
    max_m from 0 to 3n and the recurrence's edges n - 1 and n drawn often,
    and a small or a wide curve."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        rows = draw(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
        )
    else:
        poly = IntPolynomial(1)
        while poly.degree() < n:
            room = n - poly.degree()
            poly = poly * cyclotomic(draw(st.sampled_from(
                [d for d in range(1, 31) if euler_phi(d) <= room]
            )))
        rows = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][n - 1] = -poly.coeffs[i]
    max_m = draw(st.one_of(st.sampled_from([n - 1, n]), st.integers(0, 3 * n)))
    return rows, draw(small_vectors(n)), draw(curve_vectors(n)), max_m


@settings(deadline=None, max_examples=200)
@given(orbit_cases())
def test_orbit_recurrence_matches_matrix_vector_products(case):
    rows, dvec, cvec, max_m = case
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    spec = NumericalActionSpec(matrix, [cvec])
    divisor, curve = DivisorClass(dvec), CurveFunctional(cvec)
    expected = reference_orbit_pairings(spec, divisor, curve, max_m)
    assert orbit_pairings(spec, divisor, curve, max_m) == expected


@st.composite
def shared_curve_calls(draw):
    """One action with several curves, small or wide, and divisors, and a
    list of orbit calls (curve, divisor, max_m) over them in any order,
    repeats included."""
    n = draw(st.integers(1, 6))
    rows = draw(small_matrices(n))
    curves = draw(st.lists(curve_vectors(n), min_size=1, max_size=4))
    divisors = draw(st.lists(small_vectors(n), min_size=1, max_size=4))
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(curves) - 1), st.integers(0, len(divisors) - 1),
                  st.integers(0, 3 * n)),
        min_size=1, max_size=12,
    ))
    return rows, curves, divisors, calls


@settings(deadline=None)
@given(shared_curve_calls())
def test_curve_rows_match_matrix_vector_products(case):
    rows, curves, divisors, calls = case
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    spec = NumericalActionSpec(matrix, curves)
    n = matrix.dim
    for curve in curves:
        vec, want = curve, []
        for _ in range(n):
            want.append(vec)
            vec = tuple(sum(c * r[j] for c, r in zip(vec, rows)) for j in range(n))
        for max_m in range(n):
            assert dynamics._curve_rows(matrix, curve, max_m) == want[: max_m + 1]
    for c, d, max_m in calls:
        divisor, curve = DivisorClass(divisors[d]), CurveFunctional(curves[c])
        expected = reference_orbit_pairings(spec, divisor, curve, max_m)
        assert orbit_pairings(spec, divisor, curve, max_m) == expected


def test_pairing_a_wide_curve_leaves_the_matrix_cache_alone():
    # ||P||_inf = 7: the kept slots hold curves with ||C||_1 below 2**4, so
    # the wide curve's rows come from powers repacked for that call only
    rows = [[3, -1, 2], [0, 2, -5], [1, 1, 1]]
    matrix = IntMatrix(rows)
    narrow, wide = (1, 2, 3), (2**40, -(2**39), 7)
    spec = NumericalActionSpec(matrix, [narrow, wide])
    divisor = DivisorClass((1, -1, 2))
    cached = matrix._chi_and_powers
    chi, _, _, powers = cached
    packed = [list(power) for power in powers]
    for curve in (wide, narrow, wide):
        curve = CurveFunctional(curve)
        assert orbit_pairings(spec, divisor, curve, 9) == reference_orbit_pairings(
            spec, divisor, curve, 9
        )
    assert matrix._chi_and_powers is cached
    assert char_poly(matrix) is chi and powers == packed
    assert chi == char_poly(IntMatrix(rows))
    assert list(vars(matrix)) == ["_chi_and_powers"]


def test_orbit_rejects_negative_max_m():
    with pytest.raises(ValueError, match="max_m must be >= 0"):
        orbit_pairings(scalar_spec(2), D1, C1, -1)


# --- witness search -----------------------------------------------------------------

def brute_force_witness(spec, divisor, ample, horizon):
    """(curve, k) for the first curve and least power of two k <= the cap with
    sum_{i<m} (P**i D . C) < k * (P**m H . C) for m = 1..horizon, from
    matrix-vector products alone; None when there is none."""
    for curve in spec.curves:
        orbit_d = reference_orbit_pairings(spec, divisor, curve, horizon)
        orbit_h = reference_orbit_pairings(spec, ample, curve, horizon)
        k = 1
        while k <= MAX_WITNESS_MULTIPLIER:
            if all(sum(orbit_d[:m]) < k * orbit_h[m] for m in range(1, horizon + 1)):
                return curve, k
            k *= 2
    return None


@st.composite
def witness_cases(draw):
    """Ranks 1..5 and a horizon from 1 to max(12, 3n + 2), so that horizons
    at or below n + 1, where u's orbit to horizon - 1 takes at most one
    recurrence step, are drawn often."""
    n = draw(st.integers(1, 5))
    rows = draw(small_matrices(n))
    curves = draw(st.lists(small_vectors(n), min_size=1, max_size=3))
    horizon = draw(st.one_of(st.integers(1, n + 1), st.integers(1, max(12, 3 * n + 2))))
    return rows, curves, draw(small_vectors(n)), draw(small_vectors(n)), horizon


@settings(deadline=None, max_examples=200)
@given(witness_cases())
def test_witness_matches_brute_force(case):
    rows, curves, dvec, hvec, horizon = case
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    spec = NumericalActionSpec(matrix, curves)
    divisor, ample = DivisorClass(dvec), DivisorClass(hvec)
    try:
        witness = non_left_ample_witness(spec, divisor, ample, horizon=horizon)
    except UnsupportedActionError:
        assume(False)
    except WitnessSearchExhausted:
        assert brute_force_witness(spec, divisor, ample, horizon) is None
        return
    curve, k = brute_force_witness(spec, divisor, ample, horizon)
    assert (witness.curve, witness.multiplier, witness.h) == (curve, k, ample.scaled(k))
    assert witness.horizon == horizon


def test_witness_builds_the_ample_orbit_only_past_k_one():
    # k = 1 is decided on the one orbit of u = D + H - P H, to horizon - 1;
    # the case below needs 32 and takes H's orbit to the horizon
    spec = scalar_spec(2)
    with mock.patch.object(dynamics, "orbit_pairings", wraps=orbit_pairings) as orbits:
        assert non_left_ample_witness(spec, D1, D1).multiplier == 1
    assert [call.args[3] for call in orbits.call_args_list] == [63]
    assert orbits.call_args_list[0].args[1] == DivisorClass((1 + 1 - 2,))
    spec = NumericalActionSpec([[-2, 1], [-2, 3]], [[2, -1], [-1, 2]])
    with mock.patch.object(dynamics, "orbit_pairings", wraps=orbit_pairings) as orbits:
        witness = non_left_ample_witness(spec, DivisorClass((0, 3)), DivisorClass((2, 1)), 12)
    assert witness.multiplier == 32
    # u's orbit, then H's to the horizon, for each curve that k = 1 fails on
    assert [call.args[3] for call in orbits.call_args_list] == [11, 12] * 2


# a quasi-unipotent action, which the radius guard rejects: the horizon is
# checked before it
ROTATION = NumericalActionSpec([[0, -1], [1, 0]], [[1, 0], [0, 1]])
D2 = DivisorClass((1, 1))


@pytest.mark.parametrize("horizon", [0, -1])
def test_witness_rejects_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="^horizon must be >= 1"):
        non_left_ample_witness(scalar_spec(2), D1, D1, horizon=horizon)
    with pytest.raises(ValueError, match="^horizon must be >= 1"):
        non_left_ample_witness(ROTATION, D2, D2, horizon=horizon)


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
def test_witness_and_orbit_reject_non_integer_lengths(bad):
    # unchecked, True would run as 1 and 2.0 would fail inside a slice
    with pytest.raises(TypeError, match="^horizon must be an integer"):
        non_left_ample_witness(scalar_spec(2), D1, D1, horizon=bad)
    with pytest.raises(TypeError, match="^horizon must be an integer"):
        non_left_ample_witness(ROTATION, D2, D2, horizon=bad)
    with pytest.raises(TypeError, match="^max_m must be an integer"):
        orbit_pairings(scalar_spec(2), D1, C1, bad)


def test_witness_skips_a_failing_first_curve():
    spec = NumericalActionSpec([[-2, 1], [-2, 3]], [[2, -1], [-1, 2]])
    divisor, ample = DivisorClass((0, 3)), DivisorClass((2, 1))
    witness = non_left_ample_witness(spec, divisor, ample, horizon=12)
    # the first curve fails, and the second needs multiplier 32
    assert (witness.curve.coords, witness.multiplier) == ((-1, 2), 32)
    assert brute_force_witness(spec, divisor, ample, 12) == (witness.curve, 32)


def test_witness_scalar_double():
    witness = non_left_ample_witness(scalar_spec(2), D1, D1)
    assert witness.curve == C1
    deltas = partial_sums(scalar_spec(2), D1, witness.curve, 1000)
    orbit = orbit_pairings(scalar_spec(2), DivisorClass(witness.h.coords), witness.curve, 1000)
    assert all(deltas[m - 1] - orbit[m] < 0 for m in range(1, 1001))


def test_witness_scalar_triple_closed_form():
    witness = non_left_ample_witness(scalar_spec(3), D1, D1)
    k = witness.multiplier
    # (3**m - 1)/2 < k * 3**m for every m
    for m in range(1, 1001):
        assert (3**m - 1) // 2 - k * 3**m < 0


def test_witness_requires_radius_above_one():
    with pytest.raises(UnsupportedActionError):
        non_left_ample_witness(scalar_spec(1), D1, D1)


def test_witness_search_can_exhaust():
    # ample class pairing to zero can never dominate the partial sums
    spec = NumericalActionSpec([[2, 0], [0, 2]], [[1, 0]])
    with pytest.raises(WitnessSearchExhausted):
        non_left_ample_witness(spec, DivisorClass((1, 0)), DivisorClass((0, 1)), horizon=8)


# --- ampleness classifier --------------------------------------------------------------

def test_classifier_scalar_actions():
    for p in (2, 3, 5):
        report = classify_ampleness(scalar_spec(p), D1)
        assert report.left is Verdict.NO
        assert report.right is Verdict.YES
        assert not report.quasi_unipotent
        assert report.spectral_radius == RationalInterval(p, p)
        assert report.ample_eigenvector == D1
        assert report.reasons


def test_classifier_identity_leaves_left_undetermined():
    spec = NumericalActionSpec([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    report = classify_ampleness(spec, DivisorClass((1, 1)))
    # the divisor is still an ample eigenvector, so the right side is known
    assert report.left is Verdict.UNDETERMINED
    assert report.right is Verdict.YES
    assert report.quasi_unipotent
    assert report.spectral_radius == RationalInterval(1, 1)
    assert report.citations == (citations.RIGHT_FROM_AMPLE_EIGENVECTOR,
                                 citations.UNIT_CIRCLE_LEFT_UNDECIDED)
    # Delta_m(D) = m D is never ample here, and neither side is claimed
    report = classify_ampleness(spec, DivisorClass((-1, -1)))
    assert (report.left, report.right) == (Verdict.UNDETERMINED, Verdict.UNDETERMINED)
    assert report.citations == (citations.UNIT_CIRCLE_LEFT_UNDECIDED,)


def test_classifier_non_eigenvector_diagonal():
    spec = NumericalActionSpec([[2, 0], [0, 3]], [[1, 0], [0, 1]])
    report = classify_ampleness(spec, DivisorClass((1, 1)))
    assert report.left is Verdict.NO
    assert report.right is Verdict.UNDETERMINED
    assert report.ample_eigenvector is None


def test_classifier_scale_invariance():
    specs = [
        (scalar_spec(3), D1),
        (NumericalActionSpec([[2, 0], [0, 3]], [[1, 0], [0, 1]]), DivisorClass((1, 1))),
        (NumericalActionSpec([[1, 0], [0, 1]], [[1, 0], [0, 1]]), DivisorClass((2, 5))),
    ]
    for spec, divisor in specs:
        doubled = DivisorClass(tuple(2 * c for c in divisor.coords))
        a = classify_ampleness(spec, divisor)
        b = classify_ampleness(spec, doubled)
        assert (a.left, a.right) == (b.left, b.right)


IDENTITY_CURVES = {n: [[int(i == j) for j in range(n)] for i in range(n)] for n in (1, 2)}


# Actions that preserve no proper cone cut out by their curves.  The largest
# real eigenvalue of the first three is -2, 2 (the radius is 3) and none (the
# radius is 2), so no enclosure of it could be reported as the radius.
@pytest.mark.parametrize("matrix, curves, message", [
    ([[-2]], IDENTITY_CURVES[1], "does not preserve"),
    ([[-3, 0], [0, 2]], IDENTITY_CURVES[2], "does not preserve"),
    ([[0, -2], [2, 0]], IDENTITY_CURVES[2], "does not preserve"),
    ([[2, 1], [1, 1]], [[1, 0], [0, 1], [-1, -1]], "is not proper"),
    ([[2, 0], [0, 2]], [[1, 0]], "is not proper"),
], ids=["scalar-minus-2", "negative-eigenvalue-is-the-radius", "no-real-eigenvalue",
        "curves-span-a-line", "too-few-curves"])
def test_classifier_rejects_an_action_off_its_curve_cone(matrix, curves, message):
    spec = NumericalActionSpec(matrix, curves)
    with pytest.raises(ValueError, match=message):
        classify_ampleness(spec, DivisorClass((1,) * spec.rank))


def test_quasi_unipotent_actions_skip_the_cone_check():
    # the radius of a root-of-unity action is 1 on any cone
    spec = NumericalActionSpec([[0, -1], [1, 0]], IDENTITY_CURVES[2])
    report = classify_ampleness(spec, DivisorClass((1, 1)))
    assert report.spectral_radius == RationalInterval(1, 1)


@st.composite
def cone_preserving_actions(draw):
    """``(P, curves)`` with P = U**-1 N U for U unimodular and N >= 0
    invertible, and the rows of U as curves, sometimes with a redundant
    one, the sum of two rows: C P = N U, whose rows lie in cone(U)."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(IntMatrix(rows)) != 0)
    if n == 1:
        u = u_inv = [[draw(st.sampled_from([1, -1]))]]
    else:
        u, u_inv = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    curves = [list(row) for row in u]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        curves.append([a + b for a, b in zip(u[i], u[j])])
    return matmul(matmul(u_inv, rows), u), curves


@settings(deadline=None, max_examples=150)
@given(cone_preserving_actions())
def test_radius_of_a_cone_preserving_action_encloses_the_largest_modulus(action):
    sympy = pytest.importorskip("sympy")
    matrix, curves = action
    spec = NumericalActionSpec(matrix, curves)
    radius = classify_ampleness(spec, DivisorClass((1,) * spec.rank)).spectral_radius
    # the roots of chi's squarefree part are simple, so 30 digits hold them;
    # float eigenvalues of a defective P = U**-1 N U, as [[349, -144],
    # [841, -347]] with the double eigenvalue 1, are off by about 2e-6
    chi = sympy.Matrix(matrix).charpoly()
    modulus = max(abs(root) for root in sympy.Poly(chi.sqf_part()).nroots(n=30))
    slack = 1e-12 * max(1.0, modulus)
    assert float(radius.lo) - slack <= modulus <= float(radius.hi) + slack


def _in_cone_lp(b, rows) -> bool:
    """Whether b is a nonnegative combination of ``rows``, by sympy's exact
    simplex on Farkas' dual: b lies in the cone iff b . y >= 0 for every y
    with C y >= 0, so iff the least b . y over those y in the box |y_i| <= 1
    is 0.  With y = y+ - y- and y+, y- >= 0 the origin is a vertex, so no
    first phase runs (in sympy 1.14 it returns infeasible points as optima
    of some primal forms, and cycles on others); the point it returns is
    checked."""
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import linprog

    n, c = len(b), sympy.Matrix(rows)
    constraints = sympy.Matrix.hstack(-c, c).col_join(sympy.eye(2 * n))
    bounds = sympy.zeros(len(rows), 1).col_join(sympy.ones(2 * n, 1))
    least, point = linprog([*b, *[-x for x in b]], constraints, bounds)
    y = sympy.Matrix(point[:n]) - sympy.Matrix(point[n:])
    assert min(c * y) >= 0 and sympy.Matrix([b]).dot(y) == least
    return least == 0


@st.composite
def actions_and_curves(draw):
    """Signed actions with signed curve sets of n - 1 to n + 2 curves, and
    cone-preserving actions whose curves gain signed extras."""
    if draw(st.booleans()):
        matrix, curves = draw(cone_preserving_actions())
        n = len(matrix)
    else:
        n = draw(st.integers(1, 3))
        matrix = draw(small_matrices(n))
        assume(det(IntMatrix(matrix)) != 0)
        curves = []
    count = draw(st.integers(max(1, n - 1), n + 2))
    while len(curves) < count:
        curves.append(list(draw(st.tuples(*[st.integers(-2, 2)] * n))))
    return matrix, curves[:count]


# degenerate pivots: a repeated curve, a zero curve beside a basis, and an
# extra curve on a facet of the cone the others span
@settings(deadline=None, max_examples=120)
@given(actions_and_curves())
@example(([[2, 1], [1, 1]], [[1, 1], [0, 1], [1, 1]]))
@example(([[2, 1], [1, 1]], [[1, 0], [0, 1], [1, 0]]))
@example(([[2, 1], [1, 1]], [[0, 0], [1, 0], [0, 1]]))
@example(([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]))
@example(([[2, -1, 0], [0, 1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]))
def test_cone_check_matches_exact_linear_programming(action):
    sympy = pytest.importorskip("sympy")
    matrix, curves = action
    n = len(matrix)
    proper = sympy.Matrix(curves).rank() == n and not any(
        _in_cone_lp([-x for x in c], curves) for c in curves if any(c))
    preserved = proper and all(_in_cone_lp(row, curves) for row in matmul(curves, matrix))
    spec = NumericalActionSpec(matrix, curves)
    if preserved:
        dynamics._require_curve_cone(spec)
    else:
        message = "does not preserve" if proper else "is not proper"
        with pytest.raises(ValueError, match=message):
            dynamics._require_curve_cone(spec)


def test_cone_check_of_many_curves_in_rank_12():
    # the 12 unit curves and 12 sums of two of them: C(24, 12), about 2.7
    # million, bases among them, but one small linear program per row
    n = 12
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    curves = units + [[a + b for a, b in zip(units[i], units[(i + 1 + i // n) % n])]
                      for i in range(n)]
    rows = [[(3 * i + 7 * j) % 5 + int(i == j) for j in range(n)] for i in range(n)]
    dynamics._require_curve_cone(NumericalActionSpec(rows, curves))
    rows[0][1] = -1
    with pytest.raises(ValueError, match="does not preserve"):
        dynamics._require_curve_cone(NumericalActionSpec(rows, curves))


def test_classifier_citations_are_the_sorted_reasons():
    report = classify_ampleness(scalar_spec(2), D1)
    assert report.citations == tuple(sorted(report.reasons))
    assert len(report.citations) == 3


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
            small_vectors(d),
        )
    )
)
def test_classifier_left_never_yes_above_one(data):
    rows, dvec = data
    matrix = IntMatrix(rows)
    assume(det(matrix) != 0)
    # a nonnegative action preserves the orthant that the unit curves cut out
    units = [[int(i == j) for j in range(matrix.dim)] for i in range(matrix.dim)]
    report = classify_ampleness(NumericalActionSpec(matrix, units), DivisorClass(dvec))
    if report.spectral_radius.lo > 1:
        assert report.left is not Verdict.YES


# --- spec plumbing ----------------------------------------------------------------------

def test_spec_rejects_singular_matrix():
    with pytest.raises(ValueError):
        NumericalActionSpec([[1, 1], [1, 1]], [[1, 0]])


def test_spec_rejects_empty_curves():
    with pytest.raises(ValueError):
        NumericalActionSpec([[2]], [])


def test_spec_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        NumericalActionSpec([[2]], [[1, 0]])
    with pytest.raises(ValueError):
        orbit_pairings(scalar_spec(2), DivisorClass((1, 2)), C1, 3)


@pytest.mark.parametrize("entry", [True, 1.5, "1"])
def test_spec_rejects_non_integer_curve_entries(entry):
    with pytest.raises(TypeError):
        NumericalActionSpec([[1]], [[entry]])


# the messages were "expected an integer, got 1.5" and "'NoneType' object
# cannot be interpreted as an integer"
@pytest.mark.parametrize("build, name", [
    (lambda: IntMatrix([[1.5]]), "entry"),
    (lambda: IntPolynomial(True), "coefficient"),
    (lambda: NumericalActionSpec([[1]], [[None]]), "curve entry"),
], ids=["matrix", "polynomial", "curve"])
def test_integer_checks_name_the_argument(build, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        build()


class _Index:
    """An integer-like value that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# both records stored what they were given: DivisorClass((0.5,)) came back
# from classify_ampleness as a right-Yes ample eigenvector, and a list made
# an unhashable record
@pytest.mark.parametrize("record, name", [
    (DivisorClass, "divisor entry"), (CurveFunctional, "curve entry"),
], ids=["divisor", "curve"])
@pytest.mark.parametrize("coords", [
    (0.5,), (True,), (1, False), (1.5, 2), ("1",), (2.0,), (None,),
], ids=repr)
def test_coordinates_reject_non_integers(record, name, coords):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        record(coords)


@pytest.mark.parametrize("record", [DivisorClass, CurveFunctional])
def test_coordinates_are_stored_as_int_tuples(record):
    for coords in ([1, 2], (_Index(1), 2), (x for x in (1, 2))):
        value = record(coords)
        assert value.coords == (1, 2) and all(type(c) is int for c in value.coords)
        assert value == record((1, 2)) and hash(value) == hash(record((1, 2)))


def test_spec_takes_integer_curve_rows():
    spec = NumericalActionSpec([[1]], [[1]])
    assert spec.curves == (CurveFunctional((1,)),)
    assert type(spec.curves[0].coords[0]) is int


def test_pairing_is_dot_product():
    assert pairing(DivisorClass((2, -1)), CurveFunctional((3, 4))) == 2
