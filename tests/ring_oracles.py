"""Brute-force oracles for ``thcr.ring``: the exhaustive decomposability
search that ``decompose_fast`` is checked against, and the sampled
associativity check of the twisted product.  Nothing in the library uses
them."""

import random

from thcr.ring import (
    DecompositionWitness,
    Monomial,
    _compositions,
    _require_grade,
    random_monomial,
    twist_degree,
    twisted_product,
)


def decompose_brute(spec, z, n):
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


def associativity_check(spec, trials, seed, max_grade=4):
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
