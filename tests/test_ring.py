import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thcr.ring import (
    BudgetExceededError,
    GradeError,
    GrowthClass,
    Monomial,
    PowerRingSpec,
    _compositions,
    associativity_check,
    decompose_brute,
    decompose_fast,
    generator_degrees,
    grade_dimension,
    grade_of_degree,
    growth_class,
    monomials,
    random_monomial,
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
        one = Monomial.unit(spec.nvars)
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
    # every grade from 2 that holds at most 10**4 monomials; r = 1 never
    # outgrows that, so its grades stop where the deepest r = 2 grade does
    for m in (1, 2, 3):
        for r in (1, 2, 3, 4, 5):
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


def test_generator_degrees_budget():
    with pytest.raises(BudgetExceededError) as info:
        generator_degrees(PowerRingSpec(dim=2, power=2), 9, budget=100)
    err = info.value
    assert err.grade == 4
    assert err.partial == {1: 3, 2: 1, 3: 3}


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


def test_growth_class_validation():
    with pytest.raises(ValueError):
        growth_class([1, 2, 4])
    with pytest.raises(ValueError):
        growth_class([1, 2, 0, 4])


def test_spec_validation():
    with pytest.raises(ValueError):
        PowerRingSpec(dim=0, power=2)
    with pytest.raises(ValueError):
        PowerRingSpec(dim=1, power=0)
    with pytest.raises(ValueError):
        Monomial((1, -1))
