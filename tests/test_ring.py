import copy
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from ring_oracles import (
    _compositions,
    associativity_check,
    automaton_counts,
    decompose_brute,
    decompose_residue,
    in_one_sided_ideal,
    monomials,
    random_monomial,
)

import thcr.ring as ring
from thcr import citations
from thcr.cohomology import LeftScanResult, RightScanResult, ScanRow
from thcr.dynamics import (
    AmplenessReport,
    CurveFunctional,
    DivisorClass,
    NonLeftAmpleWitness,
    NumericalActionSpec,
    Verdict,
)
from thcr.intlinalg import IntMatrix, IntPolynomial, RationalInterval
from thcr.ring import (
    BudgetExceededError,
    DecompositionWitness,
    GenerationReport,
    GradeError,
    GrowthClass,
    GrowthReport,
    Monomial,
    PowerRingSpec,
    _carry_jumps,
    _orbit_size,
    _sorted_parts,
    decompose_fast,
    generation_report,
    generator_degrees,
    grade_dimension,
    grade_of_degree,
    growth_class,
    growth_report,
    twist_degree,
    twisted_product,
)

SPEC_GRID = [
    PowerRingSpec(dim=1, power=2),
    PowerRingSpec(dim=1, power=3),
    PowerRingSpec(dim=2, power=2),
    PowerRingSpec(dim=2, power=3),
    PowerRingSpec(dim=1, power=5),
]


# --- twist degrees ---------------------------------------------------------------

def test_twist_degree_identity():
    # e_{a+b} = e_a + r**a * e_b, exactly
    for r in (1, 2, 3, 5):
        spec = PowerRingSpec(dim=1, power=r)
        for a in range(13):
            for b in range(13):
                assert twist_degree(spec, a + b) == twist_degree(
                    spec, a
                ) + r**a * twist_degree(spec, b)


def test_twist_degree_recurrence():
    for r in (1, 2, 3, 5):
        spec = PowerRingSpec(dim=2, power=r)
        assert twist_degree(spec, 0) == 0
        for n in range(12):
            assert twist_degree(spec, n + 1) == r * twist_degree(spec, n) + 1


def test_grade_of_degree_roundtrip():
    spec = PowerRingSpec(dim=1, power=3)
    for n in range(8):
        assert grade_of_degree(spec, twist_degree(spec, n)) == n
    with pytest.raises(GradeError):
        grade_of_degree(spec, 2)


def ladder_grade_of_degree(spec, total_degree):
    """The ladder walk e -> r * e + 1 that grade_of_degree used to take."""
    n, e = 0, 0
    while e < total_degree:
        e = e * spec.power + 1
        n += 1
    if e != total_degree:
        raise GradeError(f"{total_degree} is not a twist degree for r={spec.power}")
    return n


def grade_or_error(inverse, spec, total_degree):
    try:
        return "grade", inverse(spec, total_degree)
    except GradeError as err:
        return "error", str(err)


@pytest.mark.parametrize("r", range(1, 8))
def test_grade_of_degree_matches_ladder_walk(r):
    # every degree in -3..3000, and e_n - 1, e_n, e_n + 1 for n < 200, where
    # the degrees run to hundreds of digits
    spec = PowerRingSpec(dim=2, power=r)
    degrees = list(range(-3, 3001))
    for n in range(200):
        e = twist_degree(spec, n)
        degrees += [e - 1, e, e + 1]
    for d in degrees:
        assert grade_or_error(grade_of_degree, spec, d) == grade_or_error(
            ladder_grade_of_degree, spec, d), d


# --- graded dimensions ------------------------------------------------------------

def test_grade_dimension_binary_line():
    spec = PowerRingSpec(dim=1, power=2)
    for n in range(11):
        assert grade_dimension(spec, n) == 2**n


def test_grade_dimension_unit_piece():
    for spec in SPEC_GRID:
        assert grade_dimension(spec, 0) == 1


def test_grade_dimension_matches_enumeration():
    # oracle: exhaustive enumeration of distinct exponent vectors
    for spec in SPEC_GRID:
        for n in range(5):
            seen = set()
            expected = twist_degree(spec, n)
            for mono in monomials(spec, n):
                assert mono.degree == expected
                seen.add(mono.exps)
            assert len(seen) == grade_dimension(spec, n)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_monomials_strictly_increasing_lexicographic(m, r):
    spec = PowerRingSpec(dim=m, power=r)
    assert [z.exps for z in monomials(spec, 0)] == [(0,) * (m + 1)]
    for n in range(5):
        exps = [z.exps for z in monomials(spec, n)]
        assert all(a < b for a, b in zip(exps, exps[1:]))
        assert len(exps) == grade_dimension(spec, n)


def test_compositions_single_part():
    for total in range(6):
        assert list(_compositions(total, 1)) == [(total,)]


def test_grade_dimension_ternary_plane():
    # enumerate degree-4 monomials in 3 variables by hand-style loop
    count = sum(
        1
        for a in range(5)
        for b in range(5 - a)
        if a + b <= 4
    )
    assert count == 15
    assert grade_dimension(PowerRingSpec(dim=2, power=3), 2) == 15


# --- twisted product ---------------------------------------------------------------

def test_product_binary_line():
    spec = PowerRingSpec(dim=1, power=2)
    x, y = Monomial((1, 0)), Monomial((0, 1))
    assert twisted_product(spec, x, y) == Monomial((1, 2))


def test_product_unit_laws():
    for spec in SPEC_GRID:
        one = Monomial((0,) * spec.nvars)
        rng = random.Random(5)
        for n in range(4):
            v = random_monomial(spec, n, rng)
            assert twisted_product(spec, one, v) == v
            assert twisted_product(spec, v, one) == v


def test_product_ternary_example():
    spec = PowerRingSpec(dim=1, power=3)
    result = twisted_product(spec, Monomial((1, 0)), Monomial((1, 3)))
    assert result == Monomial((4, 9))
    assert result.degree == twist_degree(spec, 3)


def test_product_rejects_operands_from_another_ambient_space():
    spec = PowerRingSpec(dim=2, power=2)
    x = Monomial((1, 0, 0, 0, 0))
    with pytest.raises(GradeError, match="operands must have 3 variables"):
        twisted_product(spec, x, x)
    # equal lengths are not enough: each must match the spec
    with pytest.raises(GradeError):
        twisted_product(spec, Monomial((1, 0)), Monomial((1, 0)))
    with pytest.raises(GradeError):
        twisted_product(spec, Monomial((1, 0, 0)), Monomial((1, 0)))


def test_product_rejects_off_ladder_degrees():
    spec = PowerRingSpec(dim=1, power=3)
    with pytest.raises(GradeError):
        twisted_product(spec, Monomial((2, 0)), Monomial((1, 0)))


@settings(deadline=None)
@given(
    st.sampled_from(SPEC_GRID),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2**30),
)
def test_product_degree_additivity(spec, a, b, seed):
    rng = random.Random(seed)
    u = random_monomial(spec, a, rng)
    v = random_monomial(spec, b, rng)
    assert twisted_product(spec, u, v).degree == twist_degree(spec, a + b)


def test_commutative_baseline():
    # r = 1 is the ordinary polynomial ring: the twist is trivial
    spec = PowerRingSpec(dim=2, power=1)
    u, v = Monomial((1, 0, 1)), Monomial((0, 2, 1))
    assert twisted_product(spec, u, v) == Monomial((1, 2, 2))
    assert twisted_product(spec, v, u) == Monomial((1, 2, 2))


# --- decomposability ----------------------------------------------------------------

def test_binary_line_everything_decomposes():
    spec = PowerRingSpec(dim=1, power=2)
    for n in range(2, 7):
        for z in monomials(spec, n):
            witness = decompose_fast(spec, z, n)
            assert witness is not None
            assert twisted_product(spec, witness.u, witness.v) == z


def test_ternary_line_square_is_irreducible():
    spec = PowerRingSpec(dim=1, power=3)
    assert decompose_fast(spec, Monomial((2, 2)), 2) is None
    assert decompose_brute(spec, Monomial((2, 2)), 2) is None


def test_binary_plane_witness_monomial():
    spec = PowerRingSpec(dim=2, power=2)
    assert decompose_fast(spec, Monomial((3, 1, 3)), 3) is None


def test_fast_agrees_with_brute_everywhere():
    for spec in SPEC_GRID:
        for n in range(2, 5):
            for z in monomials(spec, n):
                fast = decompose_fast(spec, z, n)
                brute = decompose_brute(spec, z, n)
                assert (fast is None) == (brute is None), (spec, z)
                for witness in (fast, brute):
                    if witness is not None:
                        assert twisted_product(spec, witness.u, witness.v) == z


def test_degree_one_marker_family_is_irreducible():
    # every monomial whose first exponent is p**(n-1) - 1 resists splitting
    for spec in (
        PowerRingSpec(dim=1, power=3),
        PowerRingSpec(dim=1, power=5),
        PowerRingSpec(dim=2, power=3),
    ):
        p = spec.power
        for n in range(2, 5):
            marker = p ** (n - 1) - 1
            rest = twist_degree(spec, n) - marker
            found = 0
            for z in monomials(spec, n):
                if z.exps[0] != marker:
                    continue
                found += 1
                assert decompose_fast(spec, z, n) is None
            assert found >= 1 and rest >= 0


def reference_split_grade(spec, z, n):
    """Least a in 1..n-1 with sum(z_i mod r**a) <= e_a, the exact split criterion."""
    for a in range(1, n):
        q = spec.power**a
        if sum(e % q for e in z.exps) <= twist_degree(spec, a):
            return a
    return None


@pytest.mark.parametrize(
    "m, r, n", [(8, 2, 62), (1, 2, 64), (3, 7, 23), (2, 3, 41), (4, 1, 70), (1, 1, 2)]
)
def test_decompose_fast_deep_grades_match_criterion(m, r, n):
    # exponents past 2**64 (e_n for r = 1 is n, so those grades stay small)
    spec = PowerRingSpec(dim=m, power=r)
    rng = random.Random(m * 1000 + r * 100 + n)
    splits = 0
    for _ in range(60):
        z = random_monomial(spec, n, rng)
        witness = decompose_fast(spec, z, n)
        grade = reference_split_grade(spec, z, n)
        if grade is None:
            assert witness is None, z
            continue
        splits += 1
        assert (witness.a, witness.b) == (grade, n - grade)
        assert witness.u.degree == twist_degree(spec, grade)
        assert witness.v.degree == twist_degree(spec, n - grade)
        assert twisted_product(spec, witness.u, witness.v) == z
    assert splits > 0


# the eight (m, r, n) shapes of the deep-queries benchmark workload, r = 1,
# and three more powers of two whose exponents also run past 2**64
DEEP_SHAPES = [(8, 2, 62), (4, 3, 40), (1, 2, 64), (2, 5, 27), (8, 5, 27),
               (3, 2, 63), (6, 3, 40), (2, 7, 23), (3, 1, 50),
               (5, 4, 40), (2, 8, 30), (8, 16, 20)]


@pytest.mark.parametrize("r", [*range(1, 10), 16, 2**20])
def test_decompose_fast_grades_zero_and_one_never_split(r):
    # no grade lies strictly between 0 and n < 2; at n = 0, e_n - 1 = -1
    # has every bit set, so the carry vector alone would find a split
    for m in (1, 2, 3):
        spec = PowerRingSpec(dim=m, power=r)
        for n in (0, 1):
            for z in monomials(spec, n):
                assert decompose_fast(spec, z, n) is None, (spec, z, n)


def test_decompose_fast_witness_equals_residue_form_on_small_grades():
    # every grade whose piece holds at most 3,000 monomials; on the line
    # with r = 1 that is every grade up to 2,998, so it stops at grade 100
    for m in (1, 2, 3):
        for r in (1, 2, 3, 4):
            spec = PowerRingSpec(dim=m, power=r)
            n = 0
            while n < 100 and grade_dimension(spec, n + 1) <= 3000:
                n += 1
                for z in monomials(spec, n):
                    assert decompose_fast(spec, z, n) == decompose_residue(spec, z, n), (
                        spec, z)


@pytest.mark.parametrize("m, r, n", DEEP_SHAPES)
def test_decompose_fast_witness_equals_residue_form_deep(m, r, n):
    spec = PowerRingSpec(dim=m, power=r)
    rng = random.Random(f"{m}:{r}:{n}")
    for _ in range(200):
        z = random_monomial(spec, n, rng)
        assert decompose_fast(spec, z, n) == decompose_residue(spec, z, n), z


@pytest.mark.parametrize("m", [*range(1, 9), 40])
@pytest.mark.parametrize("r", [*range(1, 10), 10**6])
def test_carry_jumps_table(r, m):
    # entry c is the least j >= 1 with e_j >= c, with e_j and r**j
    spec = PowerRingSpec(m, r)
    table = _carry_jumps(r, m)
    assert len(table) == m + 1
    for c, (j, e, q) in enumerate(table):
        least = next(k for k in itertools.count(1) if twist_degree(spec, k) >= c)
        assert (j, e, q) == (least, twist_degree(spec, least), r**least), c
    assert _carry_jumps(r, m) is table


@st.composite
def graded_monomials(draw, powers):
    """(spec, z, n): m in 1..24, r from ``powers``, n in 1..200, z of grade n."""
    m, r, n = draw(st.integers(1, 24)), draw(powers), draw(st.integers(1, 200))
    spec = PowerRingSpec(m, r)
    total = twist_degree(spec, n)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m, max_size=m)))
    exps = tuple(map(operator.sub, (*cuts, total), (0, *cuts)))
    return spec, Monomial(exps), n


@settings(max_examples=200, deadline=None)
@given(graded_monomials(st.integers(2, 64)))
def test_decompose_fast_carry_lemma(case):
    # the carry c_a into digit a of the base-r sum of z is an integer in
    # 0..m, z splits at a iff c_a = 0, and c_{a+j} * r**j >= c_a - e_j, so
    # decompose_fast may jump from a straight to the least a + j with e_j >= c_a
    spec, z, n = case
    m, r = spec.dim, spec.power
    carries = {}
    for a in range(1, n):
        q = r**a
        excess = sum(x % q for x in z.exps) - twist_degree(spec, a)
        assert excess % q == 0, (z, a)
        carries[a] = excess // q
        assert 0 <= carries[a] <= m, (z, a)
    for a, c in carries.items():
        j = 1
        while a + j < n and twist_degree(spec, j) < c:
            assert carries[a + j] > 0, (z, a, j)
            j += 1
    grade = reference_split_grade(spec, z, n)
    assert grade == next((a for a, c in carries.items() if c == 0), None)
    witness = decompose_residue(spec, z, n)
    assert decompose_fast(spec, z, n) == witness
    if witness is not None:
        # no excess is left to remove, so the greedy fill takes nothing
        assert witness.a == grade
        assert witness.v.exps == tuple(x // r**grade for x in z.exps)


@settings(max_examples=200, deadline=None)
@given(graded_monomials(st.sampled_from([2**k for k in range(1, 17)])))
def test_decompose_fast_power_of_two_carry_vector(case):
    # for r = 2**k the carry c_a into digit a is the number of partial sums
    # z_0 + ... + z_j that carry into bit k*a, so c_a = 0 iff bit k*a of
    # C = OR_j (P_j ^ P_{j-1} ^ z_j) is clear
    spec, z, n = case
    r = spec.power
    k = r.bit_length() - 1
    carries = total = 0
    for x in z.exps:
        carries |= (total + x) ^ total ^ x
        total += x
    for a in range(1, n):
        q = r**a
        c = (sum(x % q for x in z.exps) - twist_degree(spec, a)) // q
        assert (c == 0) == (not carries >> (k * a) & 1), (z, a)
    assert decompose_fast(spec, z, n) == decompose_residue(spec, z, n)


@settings(max_examples=100, deadline=None)
@given(graded_monomials(st.just(1)))
def test_decompose_fast_power_one_greedy_witness(case):
    # for r = 1 every carry is c_a = -a, so z splits at a = 1 and the greedy
    # fill takes the excess 1 from z's first nonzero coordinate
    spec, z, n = case
    witness = decompose_fast(spec, z, n)
    assert witness == decompose_residue(spec, z, n)
    if n < 2:
        assert witness is None
        return
    first = next(i for i, x in enumerate(z.exps) if x)
    u, v = [0] * spec.nvars, list(z.exps)
    u[first], v[first] = 1, v[first] - 1
    assert (witness.a, witness.u.exps, witness.v.exps) == (1, tuple(u), tuple(v))


def test_is_decomposable_dispatch():
    spec = PowerRingSpec(dim=1, power=2)
    z = Monomial((2, 1))
    assert decompose_fast(spec, z, 2) is not None
    assert decompose_brute(spec, z, 2) is not None
    with pytest.raises(GradeError):
        decompose_fast(spec, Monomial((1, 1)), 2)


# --- generator counting ---------------------------------------------------------------

def test_generator_degrees_binary_line():
    counts = generator_degrees(PowerRingSpec(dim=1, power=2), 6)
    assert counts[1] == 2
    assert all(counts[n] == 0 for n in range(2, 7))


def test_generator_degrees_ternary_line():
    counts = generator_degrees(PowerRingSpec(dim=1, power=3), 4)
    assert all(counts[n] >= 1 for n in range(2, 5))


def test_generator_degrees_binary_plane_lower_bound():
    counts = generator_degrees(PowerRingSpec(dim=2, power=2), 4)
    for n in range(2, 5):
        assert counts[n] >= 2 ** (n - 2)


def test_generator_degrees_match_brute_route():
    for spec in SPEC_GRID:
        counts = generator_degrees(spec, 4)
        for n in range(2, 5):
            brute = sum(
                1 for z in monomials(spec, n) if decompose_brute(spec, z, n) is None
            )
            assert counts[n] == brute


def test_generator_degrees_match_decompose_fast_grid():
    # the oracle of the capped, sorted walk and of the line's closed form:
    # decompose_fast over every monomial of every grade from 2 that holds at
    # most 10**4 monomials; r = 1 never outgrows that, so its grades stop
    # where the deepest r = 2 grade does
    grid = [(m, r) for m in (1, 2, 3) for r in (1, 2, 3, 4, 5)]
    for m, r in grid + [(1, 6), (1, 7)] + [(4, r) for r in (2, 3, 4, 5)]:
        spec = PowerRingSpec(dim=m, power=r)
        top = 1
        while top < 13 and grade_dimension(spec, top + 1) <= 10**4:
            top += 1
        counts = generator_degrees(spec, top)
        assert counts[1] == m + 1
        for n in range(2, top + 1):
            by_decompose_fast = sum(
                1 for z in monomials(spec, n) if decompose_fast(spec, z, n) is None
            )
            assert counts[n] == by_decompose_fast, (m, r, n)
            if r == 1:
                assert counts[n] == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_generator_degrees_match_carry_automaton(m, r):
    # the walk in every grade of at most 10**4.5 monomials, and the line's
    # closed form up to grade 60, against the carry automaton
    spec = PowerRingSpec(dim=m, power=r)
    top = 60
    if m > 1:
        top = 1
        while grade_dimension(spec, top + 1) <= 10**4.5:
            top += 1
    assert generator_degrees(spec, top) == automaton_counts(m, r, top)
    if (m, r) == (2, 2):
        assert automaton_counts(m, r, 9) == {1: 3, **{n: 3 ** (n - 2) for n in range(2, 10)}}


def test_generator_degrees_line_closed_form_at_grade_400(monkeypatch):
    # e_400 has 1,265 bits for r = 9: no walk could reach it, so the walk
    # is made to fail
    def no_walk(*args):
        raise AssertionError("P^1 walked a grade")

    monkeypatch.setattr(ring, "_sorted_parts", no_walk)
    for r in range(1, 10):
        counts = generator_degrees(PowerRingSpec(1, r), 400)
        want = {n: (r - 2) * (r - 1) ** (n - 2) if r > 2 else 0 for n in range(2, 401)}
        assert counts == {1: 2, **want}, r


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 4),
    r=st.integers(1, 6),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**30),
)
def test_residue_test_ignores_the_last_coordinate(m, r, n, seed):
    # for r >= 2 the residues sum to e_n = e_a (mod r**a) and e_a < r**a, so
    # the split test over all m + 1 coordinates agrees with the test over the
    # first m; for r = 1 every residue is 0
    spec = PowerRingSpec(m, r)
    z = random_monomial(spec, n, random.Random(seed)).exps
    for a in range(1, n):
        q, e = r**a, twist_degree(spec, a)
        assert (sum(x % q for x in z) <= e) == (sum(x % q for x in z[:-1]) <= e), (z, a)


def test_generator_degrees_budget():
    with pytest.raises(BudgetExceededError) as info:
        generator_degrees(PowerRingSpec(dim=2, power=2), 9, budget=100)
    err = info.value
    assert err.grade == 4
    assert err.partial == {1: 3, 2: 1, 3: 3}
    # grade 1 is its dimension, never enumerated
    assert generator_degrees(PowerRingSpec(dim=2, power=2), 1, budget=1) == {1: 3}


@pytest.mark.parametrize("m", [1, 2], ids=["line", "plane"])
@pytest.mark.parametrize("budget", [0, -5])
def test_generator_degrees_rejects_a_budget_below_one(m, budget):
    # the line and grade 1 enumerate nothing, yet a budget below 1 is no budget
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        generator_degrees(PowerRingSpec(dim=m, power=2), 3, budget=budget)


def test_generation_report_on_the_binary_line_is_generated_in_degree_one():
    report = generation_report(PowerRingSpec(dim=1, power=2), 4)
    assert report == GenerationReport((2, 0, 0, 0), True, (citations.GENERATED_IN_DEGREE_ONE,),
                                      ())


def test_generation_report_of_the_polynomial_ring_cites_it():
    report = generation_report(PowerRingSpec(dim=2, power=1), 4)
    assert report == GenerationReport((3, 0, 0, 0), True, (citations.POLYNOMIAL_RING,), ())


def test_generation_report_states_its_verdict_without_a_window():
    # grade 1 alone shows no count past it; the verdict is about every grade
    report = generation_report(PowerRingSpec(dim=2, power=3), 1)
    assert report == GenerationReport((3,), False, (citations.NEW_GENERATORS_EVERY_DEGREE,), ())


def test_generation_report_on_the_binary_plane_needs_new_generators():
    spec = PowerRingSpec(dim=2, power=2)
    report = generation_report(spec, 4)
    assert report.counts == tuple(generator_degrees(spec, 4).values()) == (3, 1, 3, 9)
    assert report.generated_in_degree_one is False
    assert report.citations == (citations.NEW_GENERATORS_EVERY_DEGREE,)
    assert report.witnesses == ((1, 1, 1), (3, 3, 1), (7, 7, 1))
    with pytest.raises(BudgetExceededError):
        generation_report(spec, 4, budget=100)


def test_generation_report_budget_stop_carries_the_finished_grades():
    spec = PowerRingSpec(dim=2, power=2)
    with pytest.raises(BudgetExceededError) as info:
        generation_report(spec, 9, budget=100)
    assert info.value.partial == {1: 3, 2: 1, 3: 3}
    full = generation_report(spec, 9)
    assert info.value.report == GenerationReport((3, 1, 3), False, full.citations, full.witnesses)
    assert BudgetExceededError(4, 120, 100, {}).report is None


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 6), r=st.integers(2, 8), n=st.integers(2, 200))
def test_new_generators_split_at_no_grade(m, r, n):
    assume((m, r) != (1, 2))
    spec = PowerRingSpec(dim=m, power=r)
    witnesses = ring._new_generators(spec, n)
    assert len(witnesses) == n - 1
    # decompose_residue checks the grade first: z has m + 1 entries summing to e_n
    assert decompose_residue(spec, Monomial(witnesses[-1]), n) is None


def test_generation_verdict_matches_the_walk():
    # every grade 2..12 the walk reaches within the budget: no count is zero
    # unless the ring is generated in degree one, and then every count is
    grades = 0
    for m in range(1, 5):
        for r in range(1, 7):
            spec = PowerRingSpec(dim=m, power=r)
            try:
                counts = generator_degrees(spec, 12, budget=2 * 10**5)
            except BudgetExceededError as exc:
                counts = exc.partial
            verdict = generation_report(spec, 1).generated_in_degree_one
            window = [counts[n] for n in range(2, len(counts) + 1)]
            assert window and [count == 0 for count in window] == [verdict] * len(window)
            grades += len(window)
    assert grades == 150


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=14),
    parts=st.integers(min_value=1, max_value=5),
    cap=st.integers(min_value=0, max_value=16),
)
def test_sorted_parts_are_the_sorted_capped_compositions(total, parts, cap):
    want = [
        z for z in _compositions(total, parts)
        if list(z) == sorted(z, reverse=True) and max(z) <= cap
    ]
    assert list(_sorted_parts(total, parts, cap)) == want


def test_orbit_sizes_cover_every_composition():
    for parts in range(1, 6):
        for total in range(12):
            walk = list(_sorted_parts(total, parts, total))
            assert sum(_orbit_size(z) for z in walk) == math.comb(total + parts - 1, parts - 1)
            for z in walk:
                assert _orbit_size(z) == len(set(itertools.permutations(z)))


def test_cap_lemma_every_large_exponent_splits():
    # a monomial of grade n with an exponent >= r**(n-1) splits at grade n - 1
    # or lower, so the capped walk misses no generator
    checked = 0
    for m in (1, 2, 3):
        for r in (2, 3, 4):
            spec = PowerRingSpec(dim=m, power=r)
            n = 2
            while grade_dimension(spec, n) <= 3000:
                cap = r ** (n - 1)
                for z in monomials(spec, n):
                    if max(z.exps) >= cap:
                        witness = decompose_fast(spec, z, n)
                        assert witness is not None, (m, r, z)
                        checked += 1
                n += 1
    assert checked > 1000


def test_binary_line_capped_walk_is_empty_in_every_grade():
    # (1, 2) is generated in degree one: under the cap x + y <= 2**n - 2,
    # one short of e_n = 2**n - 1, whatever the budget
    for n in range(2, 501):
        assert list(_sorted_parts(2**n - 1, 2, 2 ** (n - 1) - 1)) == []


# --- sampling and laws ------------------------------------------------------------------

def test_random_monomial_shape():
    rng = random.Random(0)
    for spec in SPEC_GRID:
        for n in range(5):
            mono = random_monomial(spec, n, rng)
            assert len(mono.exps) == spec.nvars
            assert mono.degree == twist_degree(spec, n)


def test_random_monomial_reproducible():
    spec = PowerRingSpec(dim=2, power=3)
    draws1 = [random_monomial(spec, 3, random.Random(7)) for _ in range(1)]
    draws2 = [random_monomial(spec, 3, random.Random(7)) for _ in range(1)]
    assert draws1 == draws2


@pytest.mark.parametrize("n", [63, 64])
def test_random_monomial_past_machine_word(n):
    # e_n + m exceeds sys.maxsize, where a draw over range(e_n + m) overflows
    spec = PowerRingSpec(dim=3, power=2)
    mono = random_monomial(spec, n, random.Random(11))
    assert len(mono.exps) == 4
    assert mono.degree == twist_degree(spec, n) == 2**n - 1
    assert random_monomial(spec, n, random.Random(11)) == mono


def test_random_monomial_is_uniform_on_a_small_grade():
    spec = PowerRingSpec(dim=2, power=2)
    rng = random.Random(3)
    draws = 6000
    counts = {}
    for _ in range(draws):
        mono = random_monomial(spec, 2, rng)
        counts[mono.exps] = counts.get(mono.exps, 0) + 1
    size = grade_dimension(spec, 2)
    assert len(counts) == size == 10
    assert all(abs(c - draws / size) < 0.15 * draws / size for c in counts.values())


def test_associativity_spot_check():
    spec = PowerRingSpec(dim=1, power=2)
    x, y = Monomial((1, 0)), Monomial((0, 1))
    left = twisted_product(spec, twisted_product(spec, x, y), x)
    right = twisted_product(spec, x, twisted_product(spec, y, x))
    assert left == right == Monomial((5, 2))


def test_associativity_check_all_specs():
    for seed, spec in enumerate(SPEC_GRID):
        assert associativity_check(spec, trials=300, seed=seed)
    assert associativity_check(PowerRingSpec(dim=2, power=1), trials=300, seed=42)


# --- growth classifier ---------------------------------------------------------------

def test_growth_class_geometric():
    assert growth_class([1, 2, 4, 8, 16]) is GrowthClass.EXPONENTIAL


def test_growth_class_squares():
    assert growth_class([1, 4, 9, 16, 25]) is GrowthClass.POLYNOMIAL_BOUNDED


def test_growth_class_cubes_and_linear():
    assert growth_class([n**3 for n in range(1, 12)]) is GrowthClass.POLYNOMIAL_BOUNDED
    assert growth_class(list(range(1, 12))) is GrowthClass.POLYNOMIAL_BOUNDED


def test_growth_class_section_rings():
    spec = PowerRingSpec(dim=1, power=2)
    dims = [grade_dimension(spec, n) for n in range(9)]
    assert growth_class(dims) is GrowthClass.EXPONENTIAL


def reference_growth_class(dims):
    """The classifier on Fraction ratios, as growth_class computed it before
    it cross-multiplied."""
    ratios = [Fraction(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    tail = ratios[len(ratios) // 2 :]
    if min(tail) >= Fraction(17, 16) and tail[-1] >= tail[0]:
        return GrowthClass.EXPONENTIAL
    return GrowthClass.POLYNOMIAL_BOUNDED


@st.composite
def near_threshold_windows(draw):
    # steps of exactly 17/16 and equal first and last tail ratios are the
    # boundary cases; d_0 is a multiple of 16**length so exact steps stay
    # whole, and half the windows keep one step ratio throughout
    length = draw(st.integers(4, 12))
    steps = st.sampled_from([(17, 16), (17, 16), (2, 1), (16, 15), (1, 1), (18, 17), (3, 4)])
    if draw(st.booleans()):
        steps = st.just(draw(steps))
    dims = [draw(st.integers(1, 40)) * 16**length]
    for _ in range(length - 1):
        num, den = draw(steps)
        dims.append(max(1, dims[-1] * num // den + draw(st.integers(-1, 1))))
    return dims


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    near_threshold_windows(),
    st.lists(st.integers(1, 10**4), min_size=4, max_size=30),
))
def test_growth_class_matches_fraction_reference(dims):
    assert growth_class(dims) is reference_growth_class(dims)


def test_growth_class_boundaries():
    # every tail ratio exactly 17/16, so both comparisons are equalities
    assert growth_class([16**5, 17 * 16**4, 17**2 * 16**3, 17**3 * 16**2]) is (
        GrowthClass.EXPONENTIAL)
    # one tail step just under 17/16
    assert growth_class([16**3, 17 * 16**2, 17**2 * 16, 17**3 - 1]) is (
        GrowthClass.POLYNOMIAL_BOUNDED)


def test_growth_class_validation():
    with pytest.raises(ValueError):
        growth_class([1, 2, 4])
    with pytest.raises(ValueError):
        growth_class([1, 2, 0, 4])


_CHAIN_IDS = (citations.EXPONENTIAL_GROWTH_NOT_NOETHERIAN, citations.RIGHT_IDEAL_CHAIN,
              citations.LEFT_IDEAL_CHAIN)


def test_growth_report_of_the_polynomial_ring_is_noetherian():
    report = growth_report(PowerRingSpec(dim=1, power=1), 10)
    assert report == GrowthReport(tuple(range(1, 12)), GrowthClass.POLYNOMIAL_BOUNDED, True,
                                  (citations.POLYNOMIAL_RING,), (), ())


def test_growth_report_of_the_binary_line_is_not_noetherian():
    report = growth_report(PowerRingSpec(dim=1, power=2), 10)
    right = tuple((2**(k - 1) - 1, 2**(k - 1)) for k in range(1, 11))
    left = tuple((1, 2**k - 2) for k in range(1, 11))
    assert report == GrowthReport(tuple(2**n for n in range(11)), GrowthClass.EXPONENTIAL,
                                  False, _CHAIN_IDS, right, left)


def test_growth_report_takes_short_windows():
    spec = PowerRingSpec(dim=1, power=2)
    for max_n in range(3):
        assert growth_report(spec, max_n) == GrowthReport(
            (1, 2, 4)[:max_n + 1], GrowthClass.EXPONENTIAL, False, _CHAIN_IDS,
            ((0, 1), (1, 2))[:max_n], ((1, 0), (1, 2))[:max_n])
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        growth_report(spec, -1)
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="max_n must be an integer"):
            growth_report(spec, bad)


def test_growth_class_agrees_with_the_growth_report():
    # the 17/16 window classifier, which benchmarks compare reports with,
    # gives the theorem's class on every window of four grades or more
    for m in range(1, 9):
        for r in range(1, 8):
            spec = PowerRingSpec(dim=m, power=r)
            report = growth_report(spec, 59)
            for max_n in range(3, 60):
                assert growth_class(report.dims[:max_n + 1]) is report.growth_class, (m, r, max_n)


def test_ideal_chains_ascend_strictly_by_brute_force():
    # g_k, of grade k, lies in neither g_j B nor B g_j for any j < k: every
    # product g_j * w, or w * g_j, over the monomials w of grade k - j misses it
    for m in (1, 2, 3):
        for r in (2, 3, 4, 5):
            spec = PowerRingSpec(dim=m, power=r)
            report = growth_report(spec, 7)
            for side, chain in (("right", report.right_chain), ("left", report.left_chain)):
                gens = [Monomial(g) for g in chain]
                for k, g_k in enumerate(gens, 1):
                    assert g_k.degree == twist_degree(spec, k), (m, r, side, k)
                    for j, g_j in enumerate(gens[:k - 1], 1):
                        if grade_dimension(spec, k - j) <= 3000:
                            assert not in_one_sided_ideal(spec, g_k, g_j, side), (m, r, side, j, k)
                # the oracle does find members: g_1 * g_1 lies in both g_1 B and B g_1
                square = twisted_product(spec, gens[0], gens[0])
                assert in_one_sided_ideal(spec, square, gens[0], side), (m, r, side)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(2, 2**20), st.integers(2, 200), st.data())
def test_ideal_chain_obstructions_in_closed_form(m, r, k, data):
    # right: g_k - g_j has x_1 entry r**(j-1) (r**(k-j) - 1), of r-adic
    # valuation j - 1, so r**j does not divide it; left: x_0 of g_k is 1,
    # below r**(k-j) times x_0 of g_j
    j = data.draw(st.integers(1, k - 1))
    spec = PowerRingSpec(dim=m, power=r)
    report = growth_report(spec, k)
    for chain in (report.right_chain, report.left_chain):
        assert len(chain) == k
        assert sum(chain[k - 1]) == twist_degree(spec, k)
    g_k, g_j = report.right_chain[k - 1], report.right_chain[j - 1]
    diff = g_k[1] - g_j[1]
    assert diff % r**(j - 1) == 0 and diff % r**j != 0
    g_k, g_j = report.left_chain[k - 1], report.left_chain[j - 1]
    assert g_k[0] == g_j[0] == 1 < r**(k - j)


# --- records ----------------------------------------------------------------------

_ROW = ScanRow(n=0, degree=-3, q=1, value=1)
_CURVE = CurveFunctional((1,))
_REASONS = ("spectral-radius-above-one-blocks-left-ampleness",)
# (record built by keyword, the same record built positionally, a different
# record of the same class, the repr the frozen dataclasses printed);
# IntPolynomial takes its coefficients only positionally and keeps its own repr
RECORDS = [
    (PowerRingSpec(dim=1, power=2), PowerRingSpec(1, 2), PowerRingSpec(2, 1),
     "PowerRingSpec(dim=1, power=2)"),
    (Monomial(exps=(1, 2)), Monomial((1, 2)), Monomial((2, 1)), "Monomial(exps=(1, 2))"),
    (DecompositionWitness(a=1, b=1, u=Monomial((1, 0)), v=Monomial((0, 1))),
     DecompositionWitness(1, 1, Monomial((1, 0)), Monomial((0, 1))),
     DecompositionWitness(1, 1, Monomial((0, 1)), Monomial((1, 0))),
     "DecompositionWitness(a=1, b=1, u=Monomial(exps=(1, 0)), v=Monomial(exps=(0, 1)))"),
    (GenerationReport(counts=(3, 1), generated_in_degree_one=False, citations=("a",),
                      witnesses=((1, 1, 1),)),
     GenerationReport((3, 1), False, ("a",), ((1, 1, 1),)),
     GenerationReport((3, 1), False, ("a",), ((2, 0, 1),)),
     "GenerationReport(counts=(3, 1), generated_in_degree_one=False, citations=('a',), "
     "witnesses=((1, 1, 1),))"),
    (GrowthReport(dims=(1, 2), growth_class=GrowthClass.EXPONENTIAL, noetherian=False,
                  citations=(), right_chain=((0, 1),), left_chain=((1, 0),)),
     GrowthReport((1, 2), GrowthClass.EXPONENTIAL, False, (), ((0, 1),), ((1, 0),)),
     GrowthReport((1, 2), GrowthClass.POLYNOMIAL_BOUNDED, True, (), (), ()),
     "GrowthReport(dims=(1, 2), growth_class=<GrowthClass.EXPONENTIAL: 'Exponential'>, "
     "noetherian=False, citations=(), right_chain=((0, 1),), left_chain=((1, 0),))"),
    (ScanRow(n=0, degree=-3, q=1, value=1), ScanRow(0, -3, 1, 1), ScanRow(0, -3, 1, 2),
     "ScanRow(n=0, degree=-3, q=1, value=1)"),
    (RightScanResult(stabilized_at=None, rows=(_ROW,)),
     RightScanResult(None, (_ROW,)), RightScanResult(0, (_ROW,)),
     "RightScanResult(stabilized_at=None, rows=(ScanRow(n=0, degree=-3, q=1, value=1),))"),
    (LeftScanResult(nonvanishing_from=0, rows=(_ROW,)),
     LeftScanResult(0, (_ROW,)), LeftScanResult(0, ()),
     "LeftScanResult(nonvanishing_from=0, rows=(ScanRow(n=0, degree=-3, q=1, value=1),))"),
    (IntPolynomial(-2, 1), IntPolynomial(-2, 1, 0), IntPolynomial(2, 1), "IntPolynomial(-2, 1)"),
    (IntMatrix(rows=[[2, 1], [1, 1]]), IntMatrix(((2, 1), (1, 1))), IntMatrix([[1, 1], [1, 2]]),
     "IntMatrix(rows=((2, 1), (1, 1)))"),
    (RationalInterval(lo=1, hi=2), RationalInterval(Fraction(1), Fraction(2)),
     RationalInterval(1, 3), "RationalInterval(lo=Fraction(1, 1), hi=Fraction(2, 1))"),
    (DivisorClass(coords=(1, 2)), DivisorClass([1, 2]), DivisorClass((2, 1)),
     "DivisorClass(coords=(1, 2))"),
    (CurveFunctional(coords=(1, 0)), CurveFunctional([1, 0]), CurveFunctional((0, 1)),
     "CurveFunctional(coords=(1, 0))"),
    (NumericalActionSpec(matrix=IntMatrix([[2]]), curves=(_CURVE,)),
     NumericalActionSpec([[2]], [[1]]), NumericalActionSpec([[3]], [[1]]),
     "NumericalActionSpec(matrix=IntMatrix(rows=((2,),)), curves=(CurveFunctional(coords=(1,)),))"),
    (AmplenessReport(left=Verdict.NO, right=Verdict.YES, spectral_radius=RationalInterval(2, 2),
                     quasi_unipotent=False, ample_eigenvector=DivisorClass((1,)),
                     reasons=_REASONS),
     AmplenessReport(Verdict.NO, Verdict.YES, RationalInterval(2, 2), False, DivisorClass((1,)),
                     _REASONS),
     AmplenessReport(Verdict.NO, Verdict.UNDETERMINED, RationalInterval(2, 2), False, None,
                     _REASONS),
     "AmplenessReport(left=<Verdict.NO: 'No'>, right=<Verdict.YES: 'Yes'>, "
     "spectral_radius=RationalInterval(lo=Fraction(2, 1), hi=Fraction(2, 1)), "
     "quasi_unipotent=False, ample_eigenvector=DivisorClass(coords=(1,)), "
     "reasons=('spectral-radius-above-one-blocks-left-ampleness',))"),
    (NonLeftAmpleWitness(h=DivisorClass((2,)), curve=_CURVE, horizon=8, multiplier=2),
     NonLeftAmpleWitness(DivisorClass((2,)), _CURVE, 8, 2),
     NonLeftAmpleWitness(DivisorClass((4,)), _CURVE, 8, 4),
     "NonLeftAmpleWitness(h=DivisorClass(coords=(2,)), curve=CurveFunctional(coords=(1,)), "
     "horizon=8, multiplier=2)"),
]
# the records whose cached properties live in an instance dict
CACHING_RECORDS = (IntPolynomial, IntMatrix)


@pytest.mark.parametrize("record, twin, other, text", RECORDS,
                         ids=[type(case[0]).__name__ for case in RECORDS])
def test_records_are_frozen_values(record, twin, other, text):
    assert record == twin and hash(record) == hash(twin)
    assert record != other and not record == other
    values = tuple(getattr(record, f) for f in record._fields)
    assert record != values and values != record
    assert not record == values and not values == record
    assert len({record, twin, other}) == 2
    assert repr(record) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record
    assert copy.copy(record) == record == copy.deepcopy(record)
    field = record._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert getattr(record, field) == getattr(twin, field)
    assert hasattr(record, "__dict__") == isinstance(record, CACHING_RECORDS)


_MONO = Monomial((1, 0))


# (class, positional arguments, keyword arguments) of calls that must raise
BAD_CALLS = [
    (DecompositionWitness, (1, 1, _MONO), {}),
    (DecompositionWitness, (1, 1, _MONO, _MONO, _MONO), {}),
    (DecompositionWitness, (), {"a": 1, "b": 1, "u": _MONO}),
    (DecompositionWitness, (1, 1, _MONO, _MONO), {"w": 0}),
    (DecompositionWitness, (1, 1, _MONO), {"v": _MONO, "a": 1}),
    # twist and max_n are the scans' arguments, not fields of their records
    (RightScanResult, (-3, None, ()), {}),
    (LeftScanResult, (), {"twist": -3, "max_n": 0, "nonvanishing_from": 0, "rows": ()}),
    (NonLeftAmpleWitness, (DivisorClass((2,)), _CURVE, 8), {}),
    (AmplenessReport, (), {"left": Verdict.NO}),
    (ScanRow, (0, -3, 1), {}),
    (ScanRow, (0, -3, 1, 1, 1), {}),
    (PowerRingSpec, (1,), {}),
    (PowerRingSpec, (), {"dim": 1, "r": 2}),
    (DivisorClass, (), {}),
    (CurveFunctional, (), {"coord": (1,)}),
    (NumericalActionSpec, ([[2]], [[1]]), {"ample_flag": True}),
    (RationalInterval, (1, 2, 3), {}),
    (IntMatrix, (), {}),
    (IntPolynomial, (), {"coeffs": (1,)}),
]


@pytest.mark.parametrize("cls, args, kwargs", BAD_CALLS, ids=[
    "-".join([cls.__name__, str(len(args)), *kwargs]) for cls, args, kwargs in BAD_CALLS])
def test_records_reject_wrong_arity_and_unknown_keywords(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


class _Index:
    """An integer-like value that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("dim, power", [
    (True, 2), (1, False), (2.5, 2), (1, 2.0), (2.0, 2), ("1", 2), (1, None),
], ids=repr)
def test_spec_rejects_non_integers(dim, power):
    with pytest.raises(TypeError, match="must be an integer"):
        PowerRingSpec(dim, power)


def test_spec_takes_integer_likes_as_ints():
    spec = PowerRingSpec(_Index(2), _Index(3))
    assert spec == PowerRingSpec(2, 3)
    assert type(spec.dim) is int and type(spec.power) is int


# twist_degree(spec, 2.5) once returned the floored 4.0 and 2.0 the float
# 3.0, generator_degrees(spec, True) counted grade 1, and a float or bool
# budget was compared as given
@pytest.mark.parametrize("value", [True, 2.0, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("call, name", [
    (lambda v: ring.twist_degree(PowerRingSpec(1, 2), v), "n"),
    (lambda v: ring.generator_degrees(PowerRingSpec(2, 2), v), "max_n"),
    (lambda v: ring.generator_degrees(PowerRingSpec(2, 2), 3, budget=v), "budget"),
], ids=["twist_degree", "generator_degrees", "budget"])
def test_grade_arguments_reject_non_integers(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


def test_grade_arguments_take_integer_likes_as_ints():
    spec = PowerRingSpec(2, 2)
    assert ring.twist_degree(spec, _Index(3)) == 7
    assert ring.generator_degrees(spec, _Index(3), budget=_Index(100)) == (
        ring.generator_degrees(spec, 3, budget=100))


def test_spec_validation():
    with pytest.raises(ValueError):
        PowerRingSpec(dim=0, power=2)
    with pytest.raises(ValueError):
        PowerRingSpec(dim=1, power=0)
    with pytest.raises(ValueError):
        Monomial((1, -1))


# (0.5, 0.5) and (True, 0) once multiplied to Monomial(exps=(2.5, 0.5)), and
# decompose_fast answered None for (1.5, 1.5)
@pytest.mark.parametrize("exps", [
    (0.5, 0.5), (True, 0), (0, False), (1.5, 1.5), ("1", 0), (2.0, 1), (1, None),
], ids=repr)
def test_monomial_rejects_non_integer_exponents(exps):
    with pytest.raises(TypeError, match="exponent must be an integer"):
        Monomial(exps)


def test_monomial_takes_integer_likes_as_ints():
    mono = Monomial((_Index(2), 1))
    assert mono == Monomial((2, 1))
    assert all(type(e) is int for e in mono.exps)
    with pytest.raises(ValueError):
        Monomial((_Index(-1), 1))


# a list was stored as given (unhashable, unequal to the tuple) and a
# generator was stored exhausted, with degree 0
@pytest.mark.parametrize("exps", [[1, 2], (x for x in (1, 2))], ids=["list", "generator"])
def test_monomial_stores_a_tuple(exps):
    mono = Monomial(exps)
    assert mono.exps == (1, 2) and mono.degree == 3
    assert mono == Monomial((1, 2)) and hash(mono) == hash(Monomial((1, 2)))
