"""Exact integer and rational linear algebra for endomorphism actions.

Characteristic polynomials, certified isolation of the dominant real
eigenvalue and quasi-unipotence by Graeffe root squaring: the
characteristic polynomial is replaced by the one whose roots are the squares
of its roots until a coefficient breaks the binomial bound of a polynomial
with every root in the unit disk (not quasi-unipotent) or the polynomial is
its own image (quasi-unipotent).  Everything runs over Z or Q, so every
answer is a certificate rather than a floating-point estimate.

The characteristic polynomial comes from Newton's identities on the power
sums tr(P**k), read from the diagonals of powers built on packed rows: one
integer per row, one w-bit slot per entry, w = n * bitlen(||P||_inf) + 2
(Kronecker substitution).  It is kept on the immutable ``IntMatrix`` in
one cached property with the packed rows of P**1..P**(n-1), n(n - 1)
integers (about 50 KB at rank 12 with 16-bit entries), so the
quasi-unipotence test, the radius and the orbit pairings compute it once.

The largest real root, which the radius and the witness guard share, is
found on one dyadic grid by a one-cell certificate from a float guess or,
when that declines, a plain Sturm bisection of the same cells
(``_largest_root_interval``).  Each ``IntPolynomial`` keeps that enclosure,
and its squarefree part with a Sturm chain for it, both from one remainder
sequence, so at most one chain is built per polynomial.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from .ring import _int_row, _Record, _setattr


class SingularMatrixError(ValueError):
    """Raised where an invertible matrix is required."""


class NoRealEigenvalueError(ValueError):
    """The characteristic polynomial has no real root to isolate."""


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """``coeffs`` without its trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


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
        _setattr(self, "coeffs", _trimmed(_int_row(coeffs, "coefficient")))

    @classmethod
    def _of(cls, coeffs) -> "IntPolynomial":
        """The polynomial over the ints ``coeffs``, stored unchecked but with
        trailing zeros stripped.

        For results the library computes from integers only.
        """
        self = object.__new__(cls)
        _setattr(self, "coeffs", _trimmed(tuple(coeffs)))
        return self

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
        return IntPolynomial._of([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial._of(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial._of(out)

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
        return IntPolynomial._of(quot), IntPolynomial._of(rem[:d]), k

    @cached_property
    def _sturm(self) -> tuple["IntPolynomial", tuple["IntPolynomial", ...]]:
        """The squarefree part and a Sturm chain for it (``_squarefree_sturm``)."""
        return _squarefree_sturm(self)

    @cached_property
    def _largest_root(self) -> RationalInterval | None:
        """The enclosure of a monic polynomial's largest real root, None
        without one; the radius and the witness guard share it."""
        return _largest_root_interval(self)

    def __repr__(self):
        return f"IntPolynomial({', '.join(str(c) for c in self.coeffs)})"


class IntMatrix(_Record):
    """Square matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "__dict__")  # the dict holds chi and its packed powers
    _fields = ("rows",)

    def __init__(self, rows):
        data = tuple([_int_row(row, "entry") for row in rows])
        if not data:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square")
        _setattr(self, "rows", data)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _chi_and_powers(self) -> tuple["IntPolynomial", int, int, list[list[int]]]:
        """``(chi, bits, w, powers)``: chi, and the rows of P**1..P**(n-1)
        packed at slot width w, with bits = bitlen(||P||_inf)."""
        return _newton_char_poly(self.rows)

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.dim:
            raise ValueError("vector length does not match matrix dimension")
        return tuple([sum(map(operator.mul, row, vector)) for row in self.rows])


class RationalInterval(_Record):
    """Closed interval with exact rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not (_is_rational(lo) and _is_rational(hi)):
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


def _is_rational(x) -> bool:
    """True for ints and Fractions, the exact rationals; bools are not."""
    return isinstance(x, (int, Fraction)) and type(x) is not bool


DEFAULT_RADIUS_WIDTH = Fraction(1, 10**9)


def det(matrix: IntMatrix) -> int:
    """Exact determinant, (-1)**n * chi(0) from the cached characteristic polynomial.

    >>> det(IntMatrix([[2, 1], [1, 1]]))
    1
    """
    return (-1) ** matrix.dim * char_poly(matrix).coeffs[0]


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - P), monic with integer coefficients.

    Uses Newton's identities on the power sums tr(P**k) for k <= n, read
    from the diagonal slots of P**k built on packed rows; every division is
    exact.  The result is computed once per matrix and kept on it.

    >>> char_poly(IntMatrix([[0, -1], [1, 0]]))
    IntPolynomial(1, 0, 1)
    """
    return matrix._chi_and_powers[0]


def _newton_char_poly(rows) -> tuple[IntPolynomial, int, int, list[list[int]]]:
    """``IntMatrix._chi_and_powers``: chi, ``bits``, ``w`` and the packed powers."""
    n = len(rows)
    # Row i of P**k is packed into one integer, entry j in the w-bit slot j.
    # |(P**k)_ij| <= ||P||_inf**k < 2**(n * bits) for k <= n, so an entry
    # plus the slot bias 2**(w-1) fits its slot and never borrows from the next.
    bits = max(sum(map(abs, row)) for row in rows).bit_length()
    w = n * bits + 2
    powers = _packed_powers(rows, w, n)
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum([half << j * w for j in range(n)])
    # p_k = tr(P**k), the sum of the diagonal slots
    sums = [0]
    for power in powers:
        sums.append(sum([(r + bias) >> i * w & mask for i, r in enumerate(power)]) - n * half)
    # k * a_{n-k} = -(p_k + sum_{i<k} a_{n-i} p_{k-i})
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        t = sums[k] + sum(map(operator.mul, coeffs[n - k + 1 : n], sums[1:k]))
        if t % k:
            raise ArithmeticError("Newton identity sum not divisible")
        coeffs[n - k] = -(t // k)
    del powers[-1]  # P**n serves only its trace
    return IntPolynomial._of(coeffs), bits, w, powers


def _packed_powers(rows, w: int, count: int) -> list[list[int]]:
    """The rows of P**k for k = 1..count, each packed into one integer with
    entry j in the w-bit slot j; a row of P @ P**k is one sum of packed rows."""
    power = [1 << i * w for i in range(len(rows))]
    powers = []
    for _ in range(count):
        power = [sum(map(operator.mul, row, power)) for row in rows]
        powers.append(power)
    return powers


def is_quasi_unipotent(matrix: IntMatrix) -> bool:
    """True iff every eigenvalue is a root of unity.

    Decided exactly by Graeffe root squaring (Bradford and Davenport,
    "Effective tests for cyclotomic polynomials", ISSAC 1988).  A
    determinant of absolute value != 1 rules the property out at once; it
    also keeps 0 out of the roots, so x**2, which is its own Graeffe image,
    never reaches the loop.  Each step replaces chi_j by the monic chi_{j+1}
    with chi_{j+1}(x**2) = (-1)**n chi_j(x) chi_j(-x), whose roots are the
    squares of chi_j's.

    While every root lies in the closed unit disk, each coefficient of x**k
    is at most C(n, k) in absolute value, so a larger one answers False.
    A fixed point chi_{j+1} == chi_j has a root set that squaring permutes,
    so every root is a root of unity and the answer is True.  The loop
    always stops: if every root is on the unit circle, every root is a root
    of unity of order d <= 2 n**2 (Kronecker), and after the 2-part of each
    order is squared away, within floor(log2(2 n**2)) + 1 steps, squaring
    permutes the roots.  Otherwise the Mahler measure M(chi) > 1, chi_j has
    measure M(chi)**(2**j), and Landau's inequality M(chi_j) <= ||chi_j||_2
    soon forces a coefficient past its binomial bound.

    >>> is_quasi_unipotent(IntMatrix([[0, -1], [1, 0]]))
    True
    >>> is_quasi_unipotent(IntMatrix([[2, 1], [1, 1]]))
    False
    """
    chi = char_poly(matrix)
    if abs(chi.coeffs[0]) != 1:
        return False
    n = matrix.dim
    bounds = [math.comb(n, k) for k in range(n + 1)]
    while True:
        if any(abs(a) > b for a, b in zip(chi.coeffs, bounds)):
            return False
        mirror = IntPolynomial._of([-a if k % 2 else a for k, a in enumerate(chi.coeffs)])
        square = (chi * mirror).coeffs[::2]
        if n % 2:
            square = [-a for a in square]
        if tuple(square) == chi.coeffs:
            return True
        chi = IntPolynomial._of(square)


# --- Sturm machinery over Z -------------------------------------------------
#
# Chains are IntPolynomials scaled by positive constants, which leaves every
# sign unchanged; signs at a rational p/q come from q**d * f(p/q) in Z.


def _primitive(poly: IntPolynomial) -> IntPolynomial:
    """Divide out the content, signed so the leading coefficient is positive."""
    content = math.gcd(*poly.coeffs)
    if poly.leading() < 0:
        content = -content
    return IntPolynomial._of([c // content for c in poly.coeffs])


def squarefree_part(poly: IntPolynomial) -> IntPolynomial:
    """The radical of an integer polynomial: same roots, all simple.

    Returned primitive with positive leading coefficient.  The zero
    polynomial, of which every real number is a root, raises ``ValueError``.
    It is the first member of ``poly._sturm``, computed once per polynomial.
    """
    return poly._sturm[0]


def _squarefree_sturm(poly: IntPolynomial) -> tuple[IntPolynomial, tuple[IntPolynomial, ...]]:
    """``poly``'s squarefree part and a Sturm chain for its distinct roots.

    The Sturm chain of ``poly`` ends in g = gcd(poly, poly').  Divided by g,
    its members still have signs whose variations count the distinct roots
    above a point, also at a root (Basu, Pollack and Roy, *Algorithms in
    Real Algebraic Geometry*, ch. 2), and the first is the squarefree part.
    g is made primitive, so by Gauss's lemma each division is exact over Z.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial has every real number as a root")
    if poly.degree() < 1:
        return poly, ()
    chain = _sturm_chain(poly)
    if chain[-1].degree() > 0:
        g = _primitive(chain[-1])
        chain = [f.pseudo_divmod(g)[0] for f in chain]
    return _primitive(chain[0]), tuple(chain)


def _sturm_chain(poly: IntPolynomial) -> list[IntPolynomial]:
    chain = [poly, poly.derivative()]
    while chain[-1].degree() > 0:
        divisor = chain[-1]
        _, rem, k = chain[-2].pseudo_divmod(divisor)
        if rem.is_zero():
            break
        # lc**k * a = q * b + r: the remainder over Q is r / lc**k, and
        # -r * sign(lc)**k is a positive multiple of its negation; the sign
        # rides on the content that divides r
        content = math.gcd(*rem.coeffs)
        if divisor.leading() > 0 or k % 2 == 0:
            content = -content
        chain.append(IntPolynomial._of([c // content for c in rem.coeffs]))
    return chain


def _variations(values: list[int]) -> int:
    """Sign changes between consecutive nonzero values."""
    negative = [v < 0 for v in values if v]
    return sum(map(operator.ne, negative, negative[1:]))


def _homogeneous_value(poly: IntPolynomial, p: int, q: int) -> int:
    """q**degree * poly(p/q), by integer Horner; its sign is poly's for q > 0."""
    acc = 0
    scale = 1
    for c in reversed(poly.coeffs):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _roots_above(chain: tuple[IntPolynomial, ...], p: int, q: int) -> int:
    """Distinct real roots above p/q, for any q > 0 (not only reduced), of
    the polynomial whose ``_sturm`` chain this is: the sign variations at
    p/q less those at +infinity, the leading coefficients' signs."""
    at_p = _variations([_homogeneous_value(f, p, q) for f in chain])
    return at_p - _variations([f.leading() for f in chain])


def count_real_roots_above(poly: IntPolynomial, bound) -> int:
    """Number of distinct real roots strictly greater than ``bound``.

    ``bound`` is an int or a Fraction and may itself be a root: on the
    chain of ``poly._sturm`` the variation count at a root equals the count
    just to its right.  The zero polynomial raises ``ValueError``: every
    real number is one of its roots.
    """
    if not _is_rational(bound):
        raise TypeError(f"bound must be an int or a Fraction, got {bound!r}")
    bound = Fraction(bound)
    return _roots_above(poly._sturm[1], bound.numerator, bound.denominator)


def spectral_radius_interval(matrix: IntMatrix) -> RationalInterval:
    """Certified rational enclosure of the largest real eigenvalue.

    For an action preserving a full-dimensional cone (every numerical
    pullback action does) the largest real eigenvalue is the spectral
    radius, which is the intended use.  ``_largest_root_interval`` gives the
    enclosure, a point or a cell of width at most ``DEFAULT_RADIUS_WIDTH``.

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
    """The monic ``chi``'s largest real root: a point for an integer root, a
    cell of width at most ``DEFAULT_RADIUS_WIDTH`` otherwise, None without one.

    The grid.  chi is monic, so its Cauchy bound ``bound = 1 + max |a_i|``
    (i < n) is an integer.  With ``step = 2 * bound`` and ``scale`` the least
    power of two with ``step / scale <= DEFAULT_RADIUS_WIDTH``, the cells
    are ``(lo, lo + step] / scale`` for ``lo = -bound * scale + i * step``,
    0 <= i < scale.  A cell is narrower than 1/2, so it holds at most one
    integer, ``hi // scale``.  A rational root of a monic integer polynomial
    is an integer, so the answer is that integer when it is the largest root
    and otherwise the cell with the largest root inside.

    The certificate, ``_certified_largest_root``, builds no Sturm chain: it
    tests ``round`` of a float guess as an integer root, or chi's signs at
    the ends of one cell show a root inside (the guess's cell, or the
    neighbour its end signs point to, for a guess a rounding error past an
    end) and one Taylor shift to the upper end with no sign variation shows,
    by Descartes' rule of signs, no root above it, whatever the
    multiplicity.  Perron-Frobenius puts every other eigenvalue of a
    cone-preserving action at real part below the largest, so the
    certificate declines only a largest root of even multiplicity, a guess
    more than a cell off (as near a multiple root), a float overflow or a
    complex pair to the right of the largest real root.

    The fallback reads one Sturm count on the chain of ``chi._sturm``,
    ``_roots_above``, three ways.  No root above -bound means no real root.
    Then it bisects the same grid from ``(lo, hi] = (-bound, bound] *
    scale`` to one cell at ``mid = lo + (hi - lo) // (2 * step) * step``,
    which becomes the lower end when a root lies above it.  One check on
    the final cell returns its integer as a point when it is a root with
    none above it.
    """
    bound = 1 + max(abs(c) for c in chi.coeffs[:-1])
    step = 2 * bound
    width = DEFAULT_RADIUS_WIDTH
    cells = -(-step * width.denominator // width.numerator)
    scale = 1 << (cells - 1).bit_length()
    certified = _certified_largest_root(chi, bound, step, scale)
    if certified is not None:
        return certified
    sf, chain = chi._sturm
    # every real root lies above -bound, so no root above it means none at all
    if not _roots_above(chain, -bound, 1):
        return None
    # invariant: the largest real root lies in (lo, hi]
    lo, hi = -bound * scale, bound * scale
    while hi - lo > step:
        mid = lo + (hi - lo) // (2 * step) * step
        if _roots_above(chain, mid, scale):
            lo = mid
        else:
            hi = mid
    candidate = hi // scale
    if lo < candidate * scale and sf.evaluate(candidate) == 0:
        if not _roots_above(chain, candidate, 1):
            return RationalInterval(candidate, candidate)
    return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))


def _certified_largest_root(
    chi: IntPolynomial, bound: int, step: int, scale: int
) -> RationalInterval | None:
    """``_largest_root_interval``'s answer, certified from a float guess, or None."""
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
    # a guess within rounding of a cell end may sit in the neighbouring cell
    if hi_value < 0:
        lo, lo_value, hi = hi, hi_value, hi + step
        hi_value = _homogeneous_value(chi, hi, scale)
    elif lo_value > 0:
        lo, hi, hi_value = lo - step, lo, lo_value
        lo_value = _homogeneous_value(chi, lo, scale)
    if not lo_value < 0 < hi_value:
        return None
    # an integer root in the cell may be the largest: the fallback's point
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
