"""Exact integer and rational linear algebra for endomorphism actions.

Characteristic polynomials, certified isolation of the dominant real
eigenvalue and quasi-unipotence via cyclotomic factorization.  Everything
runs over Z or Q, so every answer is a certificate rather than a
floating-point estimate.

The characteristic polynomial comes from Newton's identities on the power
sums tr(P**k), read from the diagonals of powers built on packed rows: one
integer per row, one slot per entry (Kronecker substitution).  It is kept on
the immutable ``IntMatrix`` with the curve rows C @ P**m, m < n, of every
curve C an orbit is paired with, so the cyclotomic test, the radius, the
witness search and the orbit recurrence compute each once.

The largest real root is guessed and certified on the grid of the Sturm
bisection, the dyadic cells from the characteristic polynomial's own Cauchy
bound.  A float Laguerre iteration from a Fujiwara root bound guesses the
root, integer signs at the ends of the grid cell around the guess show a
root inside (a bracket widened and halved back on exact signs when the guess
is off, as it is near a multiple root), and one Taylor shift to the upper
end with no sign variation shows, by Descartes' rule of signs, no root above
it.  That proves the largest real root in the cell whatever its
multiplicity, so no squarefree test comes first.  Perron-Frobenius puts
every other eigenvalue of a cone-preserving action at real part below the
largest, so for such an action the certificate holds, and no Sturm chain is
built, unless that root has even multiplicity or the float guess overflows.
The cell is the one the Sturm bisection would return, so both paths give
the same interval.  Each ``IntPolynomial`` keeps its default-width
enclosure, which the radius and the witness guard share.

When the certificate fails the bisection runs.  Each ``IntPolynomial``
keeps its squarefree part and Sturm chain, so the bisection and
``count_real_roots_above`` build one chain per polynomial.  The bisection
runs on integers: every endpoint is a dyadic ``j / 2**k`` (the
characteristic polynomial is monic, so its Cauchy bound is an integer), and
widths, floors and signs are read from the pair ``(j, 2**k)``; Fractions are
built only for the returned interval.  It decides midpoints above a
power-of-two Fujiwara root bound without a Sturm count, and once a count
isolates the largest root it decides each midpoint by the sign of the
squarefree part alone.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from .ring import _exact_int, _Record, _setattr


class SingularMatrixError(ValueError):
    """Raised where an invertible matrix is required."""


class NoRealEigenvalueError(ValueError):
    """The characteristic polynomial has no real root to isolate."""


class IntPolynomial(_Record):
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x**i.

    >>> IntPolynomial(-2, 1)
    IntPolynomial(-2, 1)
    >>> IntPolynomial(-2, 1).evaluate(5)
    3
    """

    __slots__ = ("coeffs", "__dict__")  # the dict holds the cached properties
    _fields = ("coeffs",)

    def __init__(self, *coeffs: int):
        coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            coeffs = [_exact_int("coefficient", c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        _setattr(self, "coeffs", tuple(coeffs))

    def __reduce__(self):  # the constructor takes the coefficients unpacked
        return IntPolynomial, self.coeffs

    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1]

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(*(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return IntPolynomial(*a)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(*(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial(*out)

    def pseudo_divmod(
        self, divisor: "IntPolynomial"
    ) -> tuple["IntPolynomial", "IntPolynomial", int]:
        """Pseudo-division over Z: ``(q, r, k)`` with lc**k * self == q * divisor + r.

        ``lc`` is the divisor's leading coefficient and deg r < deg divisor.
        The dividend is scaled by ``lc`` only when a step would not divide
        exactly, so a monic divisor gives ordinary division with k == 0.

        >>> IntPolynomial(-1, 0, 1).pseudo_divmod(IntPolynomial(1, 1))
        (IntPolynomial(-1, 1), IntPolynomial(), 0)
        >>> IntPolynomial(1, 0, 1).pseudo_divmod(IntPolynomial(1, 2))
        (IntPolynomial(-1, 2), IntPolynomial(5), 2)
        """
        if divisor.is_zero():
            raise ZeroDivisionError("pseudo-division by the zero polynomial")
        lead = divisor.leading()
        d = divisor.degree()
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - d, 0)
        k = 0
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d]
            if c == 0:
                continue
            if c % lead:
                rem = [lead * x for x in rem]
                quot = [lead * x for x in quot]
                k += 1
                c = rem[i + d]
            c //= lead
            quot[i] = c
            for j, b in enumerate(divisor.coeffs):
                rem[i + j] -= c * b
        return IntPolynomial(*quot), IntPolynomial(*rem[:d]), k

    @cached_property
    def _sturm(self) -> tuple["IntPolynomial", tuple["IntPolynomial", ...]]:
        """The squarefree part and its Sturm chain (empty below degree one)."""
        if self.degree() < 1:
            return self, ()
        sf = squarefree_part(self)
        return sf, tuple(_sturm_chain(sf))

    @cached_property
    def _largest_root(self) -> RationalInterval | None:
        """The ``DEFAULT_RADIUS_WIDTH`` enclosure of a monic polynomial's
        largest real root, None without one; the radius and the witness
        guard share it."""
        return _largest_root_interval(self)

    def __repr__(self):
        return f"IntPolynomial({', '.join(str(c) for c in self.coeffs)})"


class IntMatrix(_Record):
    """Square matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "__dict__")  # the dict holds the cached characteristic polynomial
    _fields = ("rows",)

    def __init__(self, rows):
        data = tuple(map(tuple, rows))
        if not all(type(x) is int for row in data for x in row):
            data = tuple(tuple(_exact_int("entry", x) for x in row) for row in data)
        if not data:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square")
        _setattr(self, "rows", data)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _char_poly(self) -> "IntPolynomial":
        return _newton_char_poly(self.rows)

    @cached_property
    def _curve_row_cache(self) -> dict:
        return {}

    def _curve_rows(self, curve: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The row vectors ``curve @ P**m`` for m < n, computed once per curve."""
        rows = self._curve_row_cache.get(curve)
        if rows is None:
            rows, cols = [curve], list(zip(*self.rows))
            for _ in range(self.dim - 1):
                rows.append(tuple([sum(map(operator.mul, rows[-1], col)) for col in cols]))
            rows = self._curve_row_cache[curve] = tuple(rows)
        return rows

    @classmethod
    def scalar(cls, dim: int, value: int) -> "IntMatrix":
        return cls([[value if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        return cls.scalar(dim, 1)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows]
        )

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.dim:
            raise ValueError("vector length does not match matrix dimension")
        return tuple([sum(map(operator.mul, row, vector)) for row in self.rows])


class RationalInterval(_Record):
    """Closed interval with exact rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not all(isinstance(x, (int, Fraction)) and type(x) is not bool for x in (lo, hi)):
            raise TypeError(f"interval endpoints must be ints or Fractions, got {lo!r} and {hi!r}")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)

    @classmethod
    def point(cls, value) -> "RationalInterval":
        return cls(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi


DEFAULT_RADIUS_WIDTH = Fraction(1, 10**9)


def det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = matrix.dim
    a = [list(row) for row in matrix.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - P), monic with integer coefficients.

    Uses Newton's identities on the power sums tr(P**k) for k <= n, read
    from the diagonal slots of P**k built on packed rows; every division is
    exact.  The result is computed once per matrix and kept on it.

    >>> char_poly(IntMatrix([[0, -1], [1, 0]]))
    IntPolynomial(1, 0, 1)
    """
    return matrix._char_poly


def _newton_char_poly(rows) -> IntPolynomial:
    n = len(rows)
    # Row i of P**k is packed into one integer, entry j in the w-bit slot j.
    # |(P**k)_ij| <= ||P||_inf**k < 2**(n * bits) for k <= n, so an entry
    # plus the slot bias 2**(w-1) fits its slot and never borrows from the next.
    w = n * max(sum(map(abs, row)) for row in rows).bit_length() + 2
    power = [sum([x << j * w for j, x in enumerate(row)]) for row in rows]
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum([half << j * w for j in range(n)])
    # p_k = tr(P**k), each row of P @ P**k one sum of packed rows
    sums = [0]
    for k in range(1, n + 1):
        if k > 1:
            power = [sum(map(operator.mul, row, power)) for row in rows]
        sums.append(sum([(r + bias) >> i * w & mask for i, r in enumerate(power)]) - n * half)
    # k * a_{n-k} = -(p_k + sum_{i<k} a_{n-i} p_{k-i})
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        t = sums[k] + sum(map(operator.mul, coeffs[n - k + 1 : n], sums[1:k]))
        if t % k:
            raise ArithmeticError("Newton identity sum not divisible")
        coeffs[n - k] = -(t // k)
    return IntPolynomial(*coeffs)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
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
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by dividing x**n - 1 by lower ones.

    The cache is typed, so a bool, float or string reaches the check
    instead of the entry of an equal int.

    >>> cyclotomic(4)
    IntPolynomial(1, 0, 1)
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
def _cyclotomic_indices(n: int) -> tuple[int, ...]:
    """The indices d with phi(d) <= n, all at most 2*n*n (Kronecker)."""
    return tuple(d for d in range(1, 2 * n * n + 1) if euler_phi(d) <= n)


def is_quasi_unipotent(matrix: IntMatrix) -> bool:
    """True iff every eigenvalue is a root of unity.

    Decided exactly: the characteristic polynomial must factor into
    cyclotomic polynomials.  Kronecker's theorem bounds the candidates,
    since any cyclotomic factor of a degree-l polynomial has index d with
    phi(d) <= l, hence d <= 2*l*l.  A determinant of absolute value != 1
    rules the property out immediately.
    """
    chi = char_poly(matrix)
    n = matrix.dim
    determinant = (-1) ** n * chi.evaluate(0)
    if abs(determinant) != 1:
        return False
    f = chi
    for d in _cyclotomic_indices(n):
        phi_d = cyclotomic(d)
        while f.degree() >= phi_d.degree():
            quot, rem, _ = f.pseudo_divmod(phi_d)
            if not rem.is_zero():
                break
            f = quot
        if f.degree() == 0:
            break
    return f.degree() == 0


# --- Sturm machinery over Z -------------------------------------------------
#
# Chains are IntPolynomials scaled by positive constants, which leaves every
# sign unchanged; signs at a rational p/q come from q**d * f(p/q) in Z.


def _primitive(poly: IntPolynomial) -> IntPolynomial:
    """Divide out the content, signed so the leading coefficient is positive."""
    content = math.gcd(*poly.coeffs)
    if poly.leading() < 0:
        content = -content
    return IntPolynomial(*(c // content for c in poly.coeffs))


def _primitive_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    while not b.is_zero():
        _, rem, _ = a.pseudo_divmod(b)
        a, b = b, rem if rem.is_zero() else _primitive(rem)
    return _primitive(a)


def squarefree_part(poly: IntPolynomial) -> IntPolynomial:
    """The radical of an integer polynomial: same roots, all simple.

    Returned primitive with positive leading coefficient.
    """
    if poly.degree() < 1:
        return poly
    g = _primitive_gcd(poly, poly.derivative())
    quot, rem, _ = poly.pseudo_divmod(g)
    assert rem.is_zero()
    return _primitive(quot)


def _sturm_chain(poly: IntPolynomial) -> list[IntPolynomial]:
    chain = [poly]
    deriv = poly.derivative()
    if not deriv.is_zero():
        chain.append(deriv)
        while chain[-1].degree() > 0:
            divisor = chain[-1]
            _, rem, k = chain[-2].pseudo_divmod(divisor)
            if rem.is_zero():
                break
            # lc**k * a = q * b + r: the remainder over Q is r / lc**k, and
            # -r * sign(lc)**k is a positive multiple of its negation
            if divisor.leading() > 0 or k % 2 == 0:
                rem = -rem
            content = math.gcd(*rem.coeffs)
            chain.append(IntPolynomial(*(c // content for c in rem.coeffs)))
    return chain


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _homogeneous_value(poly: IntPolynomial, p: int, q: int) -> int:
    """q**degree * poly(p/q), by integer Horner; its sign is poly's for q > 0."""
    acc = 0
    scale = 1
    for c in reversed(poly.coeffs):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _variations_at(chain: tuple[IntPolynomial, ...], p: int, q: int) -> int:
    """Sign variations of the chain at p/q, for any q > 0 (not only reduced)."""
    return _variations([_sign(_homogeneous_value(f, p, q)) for f in chain])


def _variations_at_infinity(chain: tuple[IntPolynomial, ...], positive: bool) -> int:
    signs = []
    for f in chain:
        s = _sign(f.leading())
        if not positive and f.degree() % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def count_real_roots_above(poly: IntPolynomial, bound) -> int:
    """Number of distinct real roots strictly greater than ``bound``.

    ``bound`` may itself be a root: on a squarefree chain the variation
    count at a root equals the count just to its right.
    """
    _, chain = poly._sturm
    if not chain:
        return 0
    bound = Fraction(bound)
    above = _variations_at(chain, bound.numerator, bound.denominator)
    return above - _variations_at_infinity(chain, positive=True)


def spectral_radius_interval(matrix: IntMatrix) -> RationalInterval:
    """Certified rational enclosure of the largest real eigenvalue.

    For an action preserving a full-dimensional cone (every numerical
    pullback action does) the largest real eigenvalue is the spectral
    radius, which is the intended use.  The enclosure is the final cell of a
    dyadic bisection from the characteristic polynomial's Cauchy bound, or a
    point for an exact rational root.  It is first guessed and certified: a
    float estimate picks the cell, integer signs at its ends show a root
    inside, and one Taylor shift with no sign variation shows, by Descartes'
    rule of signs, no root above it, whatever the root's multiplicity.
    Perron-Frobenius puts every other eigenvalue of a cone-preserving action
    at real part below the radius, so the shift has no variation there.
    When the guess is not certified (a largest root of even multiplicity, a
    float overflow, a complex pair to the right of the largest real root)
    Sturm sign counts of the squarefree part drive the bisection itself; both
    give the same interval.  The enclosure, of width at most
    ``DEFAULT_RADIUS_WIDTH``, is kept on the characteristic polynomial.

    Raises ``SingularMatrixError`` for singular input and
    ``NoRealEigenvalueError`` when no real eigenvalue exists, which cannot
    happen for cone-preserving actions.
    """
    chi = char_poly(matrix)
    if chi.evaluate(0) == 0:
        raise SingularMatrixError("matrix is singular")
    interval = chi._largest_root
    if interval is None:
        raise NoRealEigenvalueError("no real eigenvalue; matrix cannot preserve a cone")
    return interval


def _largest_root_interval(chi: IntPolynomial) -> RationalInterval | None:
    """The monic ``chi``'s largest real root in a cell of width at most
    ``DEFAULT_RADIUS_WIDTH`` on the dyadic grid from chi's Cauchy bound.

    A point for a rational root, None when there is no real root.  On the
    radius path only this fallback, after the certificate declines, builds a
    Sturm chain.
    """
    width = DEFAULT_RADIUS_WIDTH
    certified = _certified_largest_root(chi)
    if certified is not None:
        return certified
    sf, chain = chi._sturm
    at_infinity = _variations_at_infinity(chain, positive=True)
    above_lo = _variations_at_infinity(chain, positive=False) - at_infinity
    if above_lo == 0:
        return None

    # The grid is chi's: chi is monic, so its Cauchy bound is an integer and
    # the endpoints are lo = jl / scale and hi = jh / scale with scale a power
    # of two.  Counts and signs are sf's, whose roots are chi's.  Signs at an
    # unreduced pair equal those at the reduced fraction, so Fractions are
    # built only for the result.
    bound = 1 + max(abs(c) for c in chi.coeffs[:-1])
    cap = _root_cap(sf)
    jl, jh, scale = -bound, bound, 1
    # invariant: the largest real root lies in (lo, hi] and above_lo distinct
    # roots lie above lo; once above_lo == 1 that root is the only one in
    # (lo, hi], and sf (positive leading coefficient) is negative left of it
    while (jh - jl) * width.denominator > width.numerator * scale:
        if jh - jl < scale:
            candidate = jh // scale
            if jl < candidate * scale <= jh and sf.evaluate(candidate) == 0:
                if above_lo == 1 or _variations_at(chain, candidate, 1) == at_infinity:
                    return RationalInterval(candidate, candidate)
        mid = jl + jh
        jl, jh, scale = 2 * jl, 2 * jh, 2 * scale
        if mid >= cap * scale:
            jh = mid
            continue
        value = _homogeneous_value(sf, mid, scale)
        if above_lo == 1:
            above = 1 if value < 0 else 0
        else:
            above = _variations_at(chain, mid, scale) - at_infinity
        if above:
            jl, above_lo = mid, above
        elif value == 0:
            return RationalInterval.point(Fraction(mid, scale))
        else:
            jh = mid
    return RationalInterval(Fraction(jl, scale), Fraction(jh, scale))


# --- guess and certify ------------------------------------------------------
#
# The bisection above is determined by its input: it stops at the least
# power-of-two scale S with 2 * bound / S <= width, and its cells are
# (-bound + i * 2 * bound / S, -bound + (i + 1) * 2 * bound / S], with bound
# chi's Cauchy bound.  At the width 10**-9 those cells are narrower than 1/2,
# so its answer is known in advance: the cell above it was narrower than 1
# and still wider than the width, so an integer largest root is returned as
# a point; any other is irrational (a rational root of a monic integer
# polynomial is an integer), never a cell end, and the answer is the open
# final cell around it.  A sign change of chi across such a cell and no root
# at or above its upper end prove the largest root inside, whatever its
# multiplicity, so the certificate needs no squarefree test.

def _certified_largest_root(chi: IntPolynomial) -> RationalInterval | None:
    """The bisection's answer for ``chi``, certified from a float guess, or None."""
    bound = 1 + max(abs(c) for c in chi.coeffs[:-1])
    step = 2 * bound
    width = DEFAULT_RADIUS_WIDTH
    cells = -(-step * width.denominator // width.numerator)
    scale = 1 << (cells - 1).bit_length()
    guess = _float_largest_root(chi)
    if guess is None:
        return None
    root = round(guess)
    if chi.evaluate(root) == 0 and _shift_nonnegative(chi, root, 1):
        return RationalInterval(root, root)
    num, den = guess.as_integer_ratio()
    # the cell (hi - step, hi] / scale that holds the guess
    hi = step * -(-(num + bound * den) * scale // (step * den)) - bound * scale
    lo = hi - step
    lo_value, hi_value = _homogeneous_value(chi, lo, scale), _homogeneous_value(chi, hi, scale)
    # A guess within rounding of a cell end may sit in a neighbouring cell,
    # and one near a root of multiplicity k is good to about eps**(1/k) only:
    # widen the bracket in doubling steps until chi changes sign over it
    gap = step
    while not lo_value < 0 < hi_value:
        if hi_value < 0:
            lo, lo_value, hi = hi, hi_value, hi + gap
            hi_value = _homogeneous_value(chi, hi, scale)
        elif lo_value > 0 and lo > -bound * scale:
            lo, hi, hi_value = lo - gap, lo, lo_value
            lo_value = _homogeneous_value(chi, lo, scale)
        else:
            return None
        gap *= 2
    # then halve it on chi's signs back to one cell; a grid point is never a
    # root here unless it is an integer one
    while hi - lo > step:
        mid = lo + (hi - lo) // (2 * step) * step
        value = _homogeneous_value(chi, mid, scale)
        if value == 0:
            return None
        if value < 0:
            lo = mid
        else:
            hi = mid
    # a root in (lo, hi), none at or above hi; an integer root inside the
    # cell might be the largest, which the bisection returns as a point
    candidate = hi // scale
    if lo < candidate * scale and chi.evaluate(candidate) == 0:
        return None
    if not _shift_nonnegative(chi, hi, scale):
        return None
    return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))


def _float_largest_root(poly: IntPolynomial) -> float | None:
    """A float estimate of the largest real root, or None on overflow.

    Laguerre's Newton-type iteration from the Fujiwara cap, which lies
    above every root: for a real-rooted polynomial it falls monotonically
    onto the largest root, cubically near it (about 4 steps on the
    benchmark's actions, where plain Newton takes about 16).  It stops
    before the first step no shorter than the last: rounding noise then
    rules p, as it does early near a multiple root, and such a step can
    jump to another root.
    """
    try:
        coeffs = [float(c) for c in reversed(poly.coeffs)]
        x = float(_root_cap(poly))
    except OverflowError:
        return None
    n = len(coeffs) - 1
    previous = math.inf
    for _ in range(64):
        # Horner for p, p' and p''/2 at x
        p = dp = ddp = 0.0
        for c in coeffs:
            ddp = ddp * x + dp
            dp = dp * x + p
            p = p * x + c
        if not p:
            break
        g = dp / p
        h = g * g - 2 * ddp / p
        denominator = g + math.copysign(math.sqrt(max((n - 1) * (n * h - g * g), 0.0)), g)
        if not denominator:
            break
        correction = n / denominator
        if not abs(correction) < previous:
            break
        x -= correction
        previous = abs(correction)
        if not previous > 1e-14 * abs(x):
            break
    return x if math.isfinite(x) else None


def _shift_nonnegative(poly: IntPolynomial, p: int, q: int) -> bool:
    """True when every coefficient of q**degree * poly(x + p/q) is >= 0, q > 0.

    By Descartes' rule of signs poly then has no root above p/q.  The Taylor
    shift runs on q**degree * poly(y / q) by p, in y = q * x; coefficient i is
    final after pass i, so a negative one stops it early.
    """
    n = poly.degree()
    c = [a * q ** (n - i) for i, a in enumerate(poly.coeffs)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += p * c[j + 1]
        if c[i] < 0:
            return False
    return c[n] >= 0


def _root_cap(poly: IntPolynomial) -> int:
    """A power of two above the modulus of every root (Fujiwara's bound).

    |a_{n-k} / a_n| < 2**(bitlen(a_{n-k}) - bitlen(a_n) + 1), so each term
    |a_{n-k} / a_n|**(1/k) of the bound lies below 2**ceil(that / k).
    """
    lead_bits = abs(poly.leading()).bit_length()
    exponent = max(
        -((lead_bits - 1 - abs(c).bit_length()) // k)
        for k, c in enumerate(reversed(poly.coeffs[:-1]), 1)
    )
    return 2 ** (1 + max(exponent, 0))
