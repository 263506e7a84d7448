"""Independent checks of thcr's answers, run after the timed phase.

Nothing here calls the thcr function whose answer it checks. The ring
criterion is the one stated in ROADMAP.md: a monomial z of grade n splits
off a factor of grade a exactly when sum_i (z_i mod r**a) <= e_a. Matrix
facts come from sympy, which is imported only when a check first needs it,
so it never weighs on the timed phase or on its memory peak.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def twist(r: int, n: int) -> int:
    """e_n = 1 + r + ... + r**(n-1)."""
    return n if r == 1 else (r**n - 1) // (r - 1)


def twist_grade(r: int, degree: int) -> int:
    """The n with e_n == degree."""
    n = 0
    while twist(r, n) < degree:
        n += 1
    if twist(r, n) != degree:
        raise ValueError(f"{degree} is not a twist degree for r={r}")
    return n


def compositions(total: int, parts: int):
    """All exponent vectors with ``parts`` entries summing to ``total``, by stars and bars."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        exps = []
        for bar in bars:
            exps.append(bar - prev - 1)
            prev = bar
        exps.append(total + parts - 2 - prev)
        yield exps


def first_split_grade(exps, r: int, n: int):
    """Smallest a in 1..n-1 at which the monomial splits, or None if it is a generator."""
    q = 1
    for a in range(1, n):
        q *= r
        if sum(x % q for x in exps) <= twist(r, a):
            return a
    return None


def generator_counts(m: int, r: int, max_n: int) -> dict[int, int]:
    """Generators per grade by the residue criterion; grade 1 is its full dimension."""
    counts = {1: m + 1}
    for n in range(2, max_n + 1):
        counts[n] = sum(
            1 for z in compositions(twist(r, n), m + 1) if first_split_grade(z, r, n) is None
        )
    return counts


def matvec(rows, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in rows)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def witness_holds(rows, divisor, curve, ample, k: int, horizon: int) -> bool:
    """(sum_{i<m} P**i D . C) - k (P**m H . C) < 0 for every m in 1..horizon."""
    d, h = tuple(divisor), matvec(rows, ample)
    partial = 0
    for _ in range(horizon):
        partial += dot(d, curve)
        if partial - k * dot(h, curve) >= 0:
            return False
        d, h = matvec(rows, d), matvec(rows, h)
    return True


def integer_eigenvalue(rows, vec):
    """lambda with P v = lambda v for an integer lambda, else None."""
    if not any(vec):
        return None
    image = matvec(rows, vec)
    i = next(j for j, x in enumerate(vec) if x)
    if image[i] % vec[i]:
        return None
    lam = image[i] // vec[i]
    return lam if all(y == lam * x for x, y in zip(vec, image)) else None


def matrix_facts(rows):
    """Characteristic polynomial (low to high), quasi-unipotence and the
    maximum modulus of the eigenvalues, from sympy."""
    import sympy

    x = sympy.Symbol("x")
    chi = sympy.Matrix(rows).charpoly(x)
    coeffs = [int(c) for c in reversed(chi.all_coeffs())]
    poly = sympy.Poly(list(reversed(coeffs)), x)
    _, factors = sympy.factor_list(poly)
    quasi_unipotent = all(f.is_cyclotomic for f, _ in factors)
    roots = sympy.Poly(sympy.sqf_part(poly), x).nroots(n=50, maxsteps=200)
    radius = max(abs(z) for z in roots)
    return coeffs, quasi_unipotent, Fraction(str(sympy.Float(radius, 50)))


def encloses(lo: Fraction, hi: Fraction, value: Fraction) -> bool:
    """lo <= value <= hi, up to the 1e-40 error of a 50-digit numerical root."""
    slack = Fraction(1, 10**40) * max(1, abs(value))
    return lo - slack <= value <= hi + slack


def top_cohomology(space_dim: int, degree: int, q: int) -> int:
    """dim H^q(P^m, O(degree)) for q >= 1, from Serre duality."""
    import sympy

    if q < space_dim or degree > -space_dim - 1:
        return 0
    return int(sympy.binomial(-degree - 1, space_dim))


def clean(space_dim: int, degree: int) -> bool:
    """All positive-degree cohomology of O(degree) on P^m vanishes."""
    return degree >= -space_dim


def trailing_start(flags):
    """Smallest n0 with flags[n] true for every n >= n0, or None if the last is false."""
    start = None
    for n in range(len(flags) - 1, -1, -1):
        if not flags[n]:
            break
        start = n
    return start
