"""Reference implementations for ``thcr.ring``: the enumeration of every
monomial of a grade that the exhaustive tests walk, the exhaustive
decomposability search that ``decompose_fast`` is checked against, the
residue form of ``decompose_fast`` whose witnesses it must reproduce
exactly, the base-r carry automaton that counts new generators without a
walk, one-sided ideal membership by trying every cofactor, the uniform
monomial draw the randomized tests sample from, and the sampled
associativity check of the twisted product.  Nothing in the library uses
them."""

import itertools
import operator
import random

from thcr.ring import (
    DecompositionWitness,
    Monomial,
    _require_grade,
    grade_of_degree,
    twist_degree,
    twisted_product,
)


def _compositions(total, parts):
    """Every ``parts``-tuple of nonnegative ints summing to ``total``, lexicographically.

    Stars and bars: the ``parts - 1`` bars are a non-decreasing choice of
    cuts in 0..total, and each part is the gap between two cuts.
    """
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def monomials(spec, n):
    """All monomials of the grade-n piece, in lexicographic exponent order."""
    for exps in _compositions(twist_degree(spec, n), spec.nvars):
        yield Monomial(exps)


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


def decompose_residue(spec, z, n):
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


def automaton_counts(m, r, max_n):
    """New generators in each grade 1..max_n of P^m with power r >= 2, by the
    base-r carry automaton, as ``generator_degrees`` reports them.

    Add the m + 1 exponents of z digit by digit in base r: digit a holds
    D_a, the sum of the coordinates' digits a, which w(D) tuples of m + 1
    base-r digits give.  The sum is e_n, n ones, so with t_0 = 0 the carry
    steps by t_{a+1} = (t_a + D_a - 1) / r, which must be a nonnegative
    integer (it never exceeds m), and the sum ends after n digits iff
    t_n = 0.  z splits at a iff the carry t_a into digit a is 0, so z is
    new iff t_a >= 1 for 1 <= a <= n - 1.  Grade 1 counts all its m + 1
    monomials, as there.
    """
    weights = [1]
    for _ in range(m + 1):  # the coefficients of (1 + x + ... + x**(r-1))**(m+1)
        weights = [sum(weights[max(0, d - r + 1):d + 1]) for d in range(len(weights) + r - 1)]
    counts = {}
    states = {0: 1}  # carry t_a -> the digit paths that reach it
    for a in range(max_n):
        step = {}
        for t, paths in states.items():
            for d, w in enumerate(weights):
                nxt, rem = divmod(t + d - 1, r)
                if rem == 0 and nxt >= 0:
                    step[nxt] = step.get(nxt, 0) + paths * w
        counts[a + 1] = step.pop(0, 0)
        states = step
    return counts


def in_one_sided_ideal(spec, z, g, side):
    """Whether the monomial z lies in the right ideal g B (``side`` "right") or
    the left ideal B g ("left"), by trying every monomial w of the grade
    between: g * w, or w * g, must be z.  The ideal is spanned by those
    products, each a monomial."""
    b = grade_of_degree(spec, z.degree) - grade_of_degree(spec, g.degree)
    if b < 0:
        return False
    for w in monomials(spec, b):
        if (twisted_product(spec, g, w) if side == "right" else twisted_product(spec, w, g)) == z:
            return True
    return False


def random_monomial(spec, n, rng):
    """Uniform random monomial of grade n, by a stars-and-bars draw.

    The bars are distinct positions drawn with ``rng.randrange``, repeats
    rejected, so grades with e_n past sys.maxsize draw like any other.
    """
    total = twist_degree(spec, n)
    parts = spec.nvars
    bars = set()
    while len(bars) < parts - 1:
        bars.add(rng.randrange(total + parts - 1))
    exps = []
    prev = -1
    for bar in sorted(bars):
        exps.append(bar - prev - 1)
        prev = bar
    exps.append(total + parts - 2 - prev)
    return Monomial(tuple(exps))


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
