"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they go by."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from ring_oracles import decompose_brute, in_one_sided_ideal, monomials, random_monomial

from thcr.dynamics import (
    CurveFunctional,
    DivisorClass,
    NumericalActionSpec,
    Verdict,
    classify_ampleness,
    orbit_pairings,
)
from thcr.cohomology import h, right_vanishing_scan
from thcr.intlinalg import IntMatrix, det, is_quasi_unipotent
from thcr.ring import (
    Monomial,
    PowerRingSpec,
    decompose_fast,
    generator_degrees,
    grade_dimension,
    growth_report,
    twist_degree,
    twisted_product,
)


@contextmanager
def criterion(ident: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"{ident} took {elapsed:.2f}s, limit {limit_seconds}s"
    print(f"ACCEPTANCE {ident}: PASS ({elapsed:.2f}s)")


def test_criterion_01_dimension_table():
    with criterion("01 dimension-table", 5.0):
        binary_line = PowerRingSpec(dim=1, power=2)
        for n in range(11):
            assert grade_dimension(binary_line, n) == 2**n
        grid = [(2, 1), (3, 1), (2, 2), (3, 2)]
        for p, m in grid:
            spec = PowerRingSpec(dim=m, power=p)
            for n in range(5):
                enumerated = sum(1 for _ in monomials(spec, n))
                assert grade_dimension(spec, n) == enumerated


def test_criterion_02_finite_generation_binary_line():
    with criterion("02 finite-generation-p2-m1", 10.0):
        counts = generator_degrees(PowerRingSpec(dim=1, power=2), 8)
        for n in range(2, 9):
            assert counts[n] == 0


def test_criterion_03_non_generation_odd_powers_on_line():
    with criterion("03 non-generation-p3-p5-m1", 60.0):
        for p in (3, 5):
            spec = PowerRingSpec(dim=1, power=p)
            for n in (2, 3, 4):
                marker = p ** (n - 1) - 1
                marker_seen = 0
                for z in monomials(spec, n):
                    fast = decompose_fast(spec, z, n)
                    brute = decompose_brute(spec, z, n)
                    assert (fast is None) == (brute is None)
                    if z.exps[0] == marker:
                        marker_seen += 1
                        assert fast is None
                assert marker_seen >= 1


def test_criterion_04_non_generation_binary_plane_family():
    with criterion("04 non-generation-p2-m2", 60.0):
        spec = PowerRingSpec(dim=2, power=2)
        for n in (2, 3, 4):
            head = 2 ** (n - 1) - 1
            budget = 2 ** (n - 1)  # odd tail exponents sum to this
            family = [
                Monomial((head, 2 * i + 1, budget - 2 * i - 1))
                for i in range(budget // 2)
            ]
            assert len(family) == 2 ** (n - 2)
            for z in family:
                assert z.degree == twist_degree(spec, n)
                assert decompose_fast(spec, z, n) is None
                assert decompose_brute(spec, z, n) is None


def test_criterion_05_ampleness_classifier():
    with criterion("05 ampleness-classifier", 1.0):
        one = DivisorClass((1,))
        for p in (2, 3, 5):
            report = classify_ampleness(NumericalActionSpec([[p]], [[1]]), one)
            assert (report.left, report.right) == (Verdict.NO, Verdict.YES)
        # a root-of-unity action: right from the ample eigenvector, left open
        identity = NumericalActionSpec([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        report = classify_ampleness(identity, DivisorClass((1, 1)))
        assert (report.left, report.right) == (Verdict.UNDETERMINED, Verdict.YES)
        diagonal = NumericalActionSpec([[2, 0], [0, 3]], [[1, 0], [0, 1]])
        report = classify_ampleness(diagonal, DivisorClass((1, 1)))
        assert (report.left, report.right) == (Verdict.NO, Verdict.UNDETERMINED)


def test_criterion_06_left_failure_cohomology_witness():
    with criterion("06 cohomology-witness", 1.0):
        spec = PowerRingSpec(dim=1, power=2)
        for n in range(21):
            degree = twist_degree(spec, n) + 2**n * -2
            value = h(1, degree, 1)
            assert value == 2**n and value > 0
        for twist in range(-10, 1):
            scan = right_vanishing_scan(spec, twist, 10)
            assert scan.stabilized_at is not None
            for n in range(scan.stabilized_at, 11):
                d = twist + twist_degree(spec, n)
                assert h(1, d, 1) == 0


def test_criterion_07_quasi_unipotence_oracle():
    numpy = pytest.importorskip("numpy")
    with criterion("07 quasi-unipotence-oracle", 30.0):
        rng = random.Random(20260811)
        for dim in (2, 3):
            checked = 0
            while checked < 500:
                rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
                matrix = IntMatrix(rows)
                if det(matrix) == 0:
                    continue
                checked += 1
                eigvals = numpy.linalg.eigvals(numpy.array(rows, dtype=float))
                oracle = bool(max(abs(abs(v) - 1.0) for v in eigvals) <= 1e-6)
                assert is_quasi_unipotent(matrix) == oracle, rows


def test_criterion_08_growth_bounds():
    def constant(seq, r, j):
        """The least c with seq[m] <= c * m**j * r**m for every m >= 1 in the window."""
        return max(Fraction(seq[m], m**j * r**m) for m in range(1, len(seq)))

    with criterion("08 growth-bounds", 1.0):
        shear = NumericalActionSpec([[1, 1], [0, 1]], [[1, 0]])
        divisor, curve = DivisorClass((0, 1)), CurveFunctional((1, 0))
        for window in (50, 100, 200):
            seq = orbit_pairings(shear, divisor, curve, window)
            assert constant(seq, 1, 1) == 1  # bounded: no growth across windows
        for p in (2, 3, 5):
            spec = NumericalActionSpec([[p]], [[1]])
            seq = orbit_pairings(spec, DivisorClass((1,)), CurveFunctional((1,)), 64)
            assert constant(seq, p, 0) == 1


def test_criterion_09_non_noetherian_flag():
    with criterion("09 non-noetherian-flag", 5.0):
        for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
            spec = PowerRingSpec(dim=m, power=p)
            report = growth_report(spec, 4)
            assert report.noetherian is False
            # each chain ascends strictly: g_k is in no g_j B, or B g_j, for j < k
            for side, chain in (("right", report.right_chain), ("left", report.left_chain)):
                gens = [Monomial(g) for g in chain]
                assert [g.degree for g in gens] == [twist_degree(spec, k) for k in range(1, 5)]
                for k in range(2, 5):
                    for j in range(1, k):
                        assert not in_one_sided_ideal(spec, gens[k - 1], gens[j - 1], side)
        for m in (1, 2):
            report = growth_report(PowerRingSpec(dim=m, power=1), 4)
            assert (report.noetherian, report.right_chain, report.left_chain) == (True, (), ())


def test_criterion_10_algebra_laws():
    with criterion("10 algebra-laws", 10.0):
        for seed, (p, m) in enumerate([(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]):
            spec = PowerRingSpec(dim=m, power=p)
            one = Monomial((0,) * spec.nvars)

            def transcript(seed_value):
                rng = random.Random(seed_value)
                triples = []
                for _ in range(1000):
                    grades = [rng.randint(0, 4) for _ in range(3)]
                    triples.append(
                        tuple(random_monomial(spec, g, rng) for g in grades)
                    )
                return triples

            first, second = transcript(seed), transcript(seed)
            assert first == second  # seed-reproducible sampling
            for u, v, w in first:
                left = twisted_product(spec, twisted_product(spec, u, v), w)
                right = twisted_product(spec, u, twisted_product(spec, v, w))
                assert left == right
                assert twisted_product(spec, one, u) == u
                assert twisted_product(spec, u, one) == u
