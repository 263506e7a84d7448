"""Reference implementations for ``thcr.intlinalg``: the cyclotomic
polynomials from which the tests build root-of-unity inputs, the cyclotomic
walk that the Graeffe quasi-unipotence test is checked against, and the
plain-list matrix and polynomial helpers that build test inputs.  Nothing
in the library uses them."""

import operator
from functools import lru_cache

from thcr.intlinalg import IntPolynomial, char_poly
from thcr.ring import _exact_int


@lru_cache(maxsize=None, typed=True)
def euler_phi(n):
    """Euler's totient; typed cache and argument check as ``cyclotomic``'s."""
    n = _exact_int("euler_phi argument", n)
    if n < 1:
        raise ValueError("argument must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None, typed=True)
def cyclotomic(n):
    """The n-th cyclotomic polynomial, by dividing x**n - 1 by lower ones.

    The cache is typed, so a bool, float or string reaches the check
    instead of the entry of an equal int.
    """
    n = _exact_int("cyclotomic index", n)
    if n < 1:
        raise ValueError("argument must be positive")
    poly = IntPolynomial(*([-1] + [0] * (n - 1) + [1]))
    for d in range(1, n):
        if n % d == 0:
            poly, rem, _ = poly.pseudo_divmod(cyclotomic(d))
            assert rem.is_zero()
    return poly


@lru_cache(maxsize=None)
def cyclotomic_indices(n):
    """The indices d with phi(d) <= n, all at most 2*n*n (Kronecker)."""
    return tuple(d for d in range(1, 2 * n * n + 1) if euler_phi(d) <= n)


def is_quasi_unipotent_walk(matrix):
    """Quasi-unipotence by dividing chi by every Phi_d with phi(d) <= n.

    Kronecker's theorem bounds the candidates, since any cyclotomic factor
    of a degree-n polynomial has index d with phi(d) <= n, hence d <= 2*n*n.
    A determinant of absolute value != 1 rules the property out at once.
    """
    chi = char_poly(matrix)
    if abs(chi.coeffs[0]) != 1:
        return False
    f = chi
    for d in cyclotomic_indices(matrix.dim):
        phi_d = cyclotomic(d)
        while f.degree() >= phi_d.degree():
            quot, rem, _ = f.pseudo_divmod(phi_d)
            if not rem.is_zero():
                break
            f = quot
        if f.degree() == 0:
            break
    return f.degree() == 0


def matmul(a, b):
    """The product of two square matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def random_unimodular(rng, dim):
    """Product of integer shears, as lists of rows; returns (Q, Q_inverse)."""
    q = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
    q_inv = q
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        k = rng.randint(-2, 2)
        shear = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
        shear[i][j] = k
        unshear = [row[:] for row in shear]
        unshear[i][j] = -k
        q = matmul(q, shear)
        q_inv = matmul(unshear, q_inv)
    return q, q_inv


def shifted(poly, t):
    """poly(x - t): every root moves right by t, multiplicities kept.

    Horner's rule on coefficient lists: out * (x - t) + c for each
    coefficient c from the top down.
    """
    out = []
    for c in reversed(poly.coeffs):
        out = [a - t * b for a, b in zip([0, *out], [*out, 0])]
        out[0] += c
    return IntPolynomial(*out)
