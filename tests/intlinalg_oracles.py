"""Reference implementations for ``thcr.intlinalg``: the cyclotomic
polynomials from which the tests build root-of-unity inputs, and the
cyclotomic walk that the Graeffe quasi-unipotence test is checked against.
Nothing in the library uses them."""

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
