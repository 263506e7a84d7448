"""Graded sections ring of projective space twisted by a power endomorphism.

For the self-map of P^m sending every coordinate to its r-th power, the
n-th graded piece is the space of degree-e_n forms, where

    e_n = 1 + r + r**2 + ... + r**(n-1) = (r**n - 1) / (r - 1),

and the product of a grade-a piece with a grade-b piece raises the second
factor's exponents by r**a before multiplying.  Since the twist fixes the
base field, products of monomials are monomials, so generation questions
reduce to exponent-vector combinatorics; this module provides the graded
pieces, the twisted product, a decomposability test (two independent
routes), generator counting, and a growth classifier.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from fractions import Fraction
from typing import Iterator, Optional

DEFAULT_BUDGET = 10**6


class GradeError(ValueError):
    """A monomial's total degree does not match the claimed grade."""


class BudgetExceededError(RuntimeError):
    """Grade enumeration would exceed the configured monomial budget."""

    def __init__(self, grade: int, size: int, budget: int, partial: dict[int, int]):
        super().__init__(
            f"grade {grade} holds {size} monomials, above the budget of {budget}"
        )
        self.grade = grade
        self.size = size
        self.budget = budget
        self.partial = dict(partial)


@dataclasses.dataclass(frozen=True)
class PowerRingSpec:
    """Ambient P^m (``dim`` = m) and the exponent ``power`` = r of x_i -> x_i**r.

    ``power`` may be any integer >= 1; r = 1 degenerates to the ordinary
    polynomial ring.  Prime r is the motivating (Frobenius) case, but
    nothing below needs primality.
    """

    dim: int
    power: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("projective space dimension must be >= 1")
        if self.power < 1:
            raise ValueError("endomorphism power must be >= 1")

    @property
    def nvars(self) -> int:
        return self.dim + 1


@dataclasses.dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial in the homogeneous coordinates."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def unit(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @property
    def degree(self) -> int:
        return sum(self.exps)


@dataclasses.dataclass(frozen=True)
class DecompositionWitness:
    """A factorization z = u * v with u in grade a, v in grade b."""

    a: int
    b: int
    u: Monomial
    v: Monomial


def twist_degree(spec: PowerRingSpec, n: int) -> int:
    """e_n = (r**n - 1)/(r - 1); satisfies e_{a+b} = e_a + r**a * e_b."""
    if n < 0:
        raise ValueError("grade must be nonnegative")
    r = spec.power
    if r == 1:
        return n
    return (r**n - 1) // (r - 1)


def grade_of_degree(spec: PowerRingSpec, total_degree: int) -> int:
    """Inverse of twist_degree; raises GradeError off the degree ladder."""
    n, e = 0, 0
    while e < total_degree:
        e = e * spec.power + 1
        n += 1
    if e != total_degree:
        raise GradeError(f"{total_degree} is not a twist degree for r={spec.power}")
    return n


def grade_dimension(spec: PowerRingSpec, n: int) -> int:
    """Dimension of the grade-n piece: C(e_n + m, m)."""
    return math.comb(twist_degree(spec, n) + spec.dim, spec.dim)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every ``parts``-tuple of nonnegative ints summing to ``total``, lexicographically.

    The last two coordinates come from one flat loop, not from a one-part
    generator per tuple.
    """
    if parts == 1:
        yield (total,)
    elif parts == 2:
        for head in range(total + 1):
            yield (head, total - head)
    else:
        for head in range(total + 1):
            for rest in _compositions(total - head, parts - 1):
                yield (head, *rest)


def monomials(spec: PowerRingSpec, n: int) -> Iterator[Monomial]:
    """All monomials of the grade-n piece, in lexicographic exponent order."""
    for exps in _compositions(twist_degree(spec, n), spec.nvars):
        yield Monomial(exps)


def _require_grade(spec: PowerRingSpec, mono: Monomial, n: int) -> None:
    if len(mono.exps) != spec.nvars:
        raise GradeError("monomial has the wrong number of variables")
    if mono.degree != twist_degree(spec, n):
        raise GradeError(f"degree {mono.degree} does not match grade {n}")


def twisted_product(spec: PowerRingSpec, u: Monomial, v: Monomial) -> Monomial:
    """Product in the twisted ring: exponents of v scale by r**(grade of u).

    Grades are inferred from total degrees, which determine them uniquely.
    """
    a = grade_of_degree(spec, u.degree)
    grade_of_degree(spec, v.degree)
    q = spec.power**a
    if len(u.exps) != len(v.exps):
        raise GradeError("operands live in different ambient spaces")
    return Monomial(tuple(x + q * y for x, y in zip(u.exps, v.exps)))


def decompose_fast(
    spec: PowerRingSpec, z: Monomial, n: int
) -> Optional[DecompositionWitness]:
    """Residue-based decomposability test, O(n * variables).

    Splitting z = u * v with u in grade a forces u's exponents to agree
    with z's modulo r**a.  Writing u_i = (z_i mod r**a) + r**a * k_i, the
    k_i must be nonnegative, at most z_i // r**a, and sum to
    (e_a - sum of residues) / r**a.  Since sum z_i = e_a + r**a * e_b,
    that target is always an integer and the capacities always cover it,
    so a split at grade a exists iff sum(z_i mod r**a) <= e_a; any greedy
    fill then produces a witness.  The smallest such a is returned.

    The grade loop carries q = r**a (q *= r) and e_a = r * e_{a-1} + 1
    from one grade to the next instead of recomputing either.
    """
    _require_grade(spec, z, n)
    r = spec.power
    q, e_a = 1, 0
    for a in range(1, n):
        q *= r
        e_a = r * e_a + 1
        residues = [e % q for e in z.exps]
        need = e_a - sum(residues)
        if need < 0:
            continue
        k = need // q
        alpha = residues
        for i, e in enumerate(z.exps):
            take = min(e // q, k)
            alpha[i] += take * q
            k -= take
            if k == 0:
                break
        u = Monomial(tuple(alpha))
        v = Monomial(tuple((x - y) // q for x, y in zip(z.exps, alpha)))
        assert v.degree == twist_degree(spec, n - a)
        return DecompositionWitness(a, n - a, u, v)
    return None


def decompose_brute(
    spec: PowerRingSpec, z: Monomial, n: int
) -> Optional[DecompositionWitness]:
    """Exhaustive decomposability test; the independent check of the fast route.

    Enumerates every candidate second factor of every admissible grade.
    Exponential in the grade, so only suitable at small sizes.
    """
    _require_grade(spec, z, n)
    if n < 2:
        return None
    r = spec.power
    for a in range(1, n):
        b = n - a
        q = r**a
        for beta in _compositions(twist_degree(spec, b), spec.nvars):
            alpha = tuple(e - q * x for e, x in zip(z.exps, beta))
            if all(x >= 0 for x in alpha):
                return DecompositionWitness(a, b, Monomial(alpha), Monomial(beta))
    return None


def generator_degrees(
    spec: PowerRingSpec, max_n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Count monomials in each grade <= max_n that no lower grades generate.

    Grade 1 is reported as its full dimension (nothing below it can
    generate).  The ring is generated in degree one up to max_n iff every
    count for 2 <= n <= max_n is zero.

    By the criterion behind ``decompose_fast``, a grade-n exponent vector z
    is a new generator iff sum_i (z_i mod r**a) > e_a for every 1 <= a < n.
    Each grade's ladder of (r**a, e_a) is built once; each monomial of each
    grade is then visited once, with at most n - 1 residue sums and no
    witness.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    r = spec.power
    counts: dict[int, int] = {}
    for n in range(1, max_n + 1):
        size = grade_dimension(spec, n)
        if size > budget:
            raise BudgetExceededError(n, size, budget, counts)
        if n < 2:
            counts[n] = size
            continue
        ladder = []
        q, e_a = 1, 0
        for _ in range(1, n):
            q *= r
            e_a = r * e_a + 1
            ladder.append((q, e_a))
        count = 0
        for z in _compositions(twist_degree(spec, n), spec.nvars):
            for q, e_a in ladder:
                if sum([x % q for x in z]) <= e_a:
                    break
            else:
                count += 1
        counts[n] = count
    return counts


def random_monomial(spec: PowerRingSpec, n: int, rng: random.Random) -> Monomial:
    """Uniform random monomial of grade n, by a stars-and-bars draw.

    The bars are distinct positions drawn with ``rng.randrange``, repeats
    rejected, so grades with e_n past sys.maxsize draw like any other.
    """
    total = twist_degree(spec, n)
    parts = spec.nvars
    bars: set[int] = set()
    while len(bars) < parts - 1:
        bars.add(rng.randrange(total + parts - 1))
    exps = []
    prev = -1
    for bar in sorted(bars):
        exps.append(bar - prev - 1)
        prev = bar
    exps.append(total + parts - 2 - prev)
    return Monomial(tuple(exps))


def associativity_check(
    spec: PowerRingSpec, trials: int, seed: int, max_grade: int = 4
) -> bool:
    """Sample random graded triples and compare the two product orders."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        grades = [rng.randint(0, max_grade) for _ in range(3)]
        u, v, w = (random_monomial(spec, g, rng) for g in grades)
        left = twisted_product(spec, twisted_product(spec, u, v), w)
        right = twisted_product(spec, u, twisted_product(spec, v, w))
        if left != right:
            return False
    return True


class GrowthClass(enum.Enum):
    POLYNOMIAL_BOUNDED = "PolynomialBounded"
    EXPONENTIAL = "Exponential"


def growth_class(
    dims, threshold: Fraction = Fraction(17, 16)
) -> GrowthClass:
    """Classify a dimension sequence as polynomially bounded or exponential.

    Exponential means the consecutive ratios over the last half of the
    window stay at or above the threshold and are not decaying: the final
    ratio must not drop below the first tail ratio.  Polynomial sequences
    fail the second condition on any window (their ratios slide toward 1),
    while the section rings here have ratios increasing toward r**m.
    """
    dims = list(dims)
    if len(dims) < 4:
        raise ValueError("need at least four terms")
    if any(d <= 0 for d in dims):
        raise ValueError("dimensions must be positive")
    ratios = [Fraction(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    tail = ratios[len(ratios) // 2 :]
    if min(tail) >= threshold and tail[-1] >= tail[0]:
        return GrowthClass.EXPONENTIAL
    return GrowthClass.POLYNOMIAL_BOUNDED
