"""Graded sections ring of projective space twisted by a power endomorphism.

For the self-map of P^m sending every coordinate to its r-th power, the
n-th graded piece is the space of degree-e_n forms, where

    e_n = 1 + r + r**2 + ... + r**(n-1) = (r**n - 1) / (r - 1),

and the product of a grade-a piece with a grade-b piece raises the second
factor's exponents by r**a before multiplying.  Since the twist fixes the
base field, products of monomials are monomials, so generation questions
reduce to exponent-vector combinatorics; this module provides the degree
and dimension of each graded piece, the twisted product, a decomposability
test (which the tests check against brute-force enumeration), generator
counting, and a growth classifier; ``generation_report`` and
``growth_report`` carry verdicts that hold in every grade, from (m, r)
alone, with the citation ids those rest on; the growth report's
``right_chain`` and ``left_chain`` show why ACC fails on each side.
"""

from __future__ import annotations

import enum
import functools
import math
import operator

from . import citations

DEFAULT_BUDGET = 10**6

# The annotations are strings (PEP 563), so these names are needed only by
# type checkers; importing typing would cost every cold CLI call.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

_setattr = object.__setattr__


def _exact_int(name: str, value) -> int:
    """``value`` as an int; bools, floats and strings raise TypeError, never truncate.

    The message names the argument.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _int_row(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints: plain ints as they are, others by ``_exact_int``."""
    row = tuple(values)
    if all(type(x) is int for x in row):
        return row
    return tuple([_exact_int(name, x) for x in row])


class GradeError(ValueError):
    """A monomial's total degree does not match the claimed grade."""


class BudgetExceededError(RuntimeError):
    """Grade enumeration would exceed the configured monomial budget.

    ``partial`` maps each grade finished before the stop to its count.
    Raised by ``generation_report``, ``report`` is that report over those
    grades; otherwise it is None.
    """

    def __init__(self, grade: int, size: int, budget: int, partial: dict[int, int]):
        super().__init__(
            f"grade {grade} holds {size} monomials, above the budget of {budget}"
        )
        self.grade = grade
        self.size = size
        self.budget = budget
        self.partial = dict(partial)
        self.report = None


class _Record:
    """Immutable value record over the fields named in a subclass's ``_fields``.

    ``_fields`` defaults to the subclass's ``__slots__``.  Equality and
    hashing go by the class and the field values, ``repr`` is
    ``Name(field=value, ...)``, and assigning or deleting a field raises
    ``AttributeError``.  Pickling and copying rebuild a record by calling
    its class with the field values, so they rerun any checks.

    The generic ``__init__`` takes the fields positionally or by keyword,
    so a record that only stores its fields writes no ``__init__``.
    ``__init_subclass__`` keeps each field's slot-descriptor ``__set__`` in
    ``_stores``; a positional call stores through those, and only keywords
    or a wrong arity take the binding branch.  A record that validates
    writes its own ``__init__`` and stores with ``object.__setattr__``.  A
    record that caches with ``functools.cached_property`` lists
    ``"__dict__"`` in its ``__slots__`` and names its ``_fields``
    explicitly; assignment still raises, since ``cached_property`` writes
    the instance dict directly.

    A subclass may also derive from ``tuple`` (``__slots__ = ()``, an
    explicit ``_fields``, one property per field, a ``__new__`` that builds
    the tuple and ``__init__ = object.__init__``).  ``__eq__`` answers
    False for any tuple of another class, and ``__ne__`` here shadows
    tuple's, so such a record never equals a plain tuple in either operand
    order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._stores = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *args, **kwargs):
        stores = self._stores
        if kwargs or len(args) != len(stores):
            args = self._bind(args, kwargs)
        for store, value in zip(stores, args):
            store(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in ``_fields`` order; TypeError unless each is given once."""
        fields = cls._fields
        values = dict(zip(fields, args))
        values.update(kwargs)
        if len(args) + len(kwargs) == len(values) == len(fields):
            try:
                return [values[name] for name in fields]
            except KeyError:
                pass
        raise TypeError(f"{cls.__qualname__}() takes {', '.join(fields)}, each once; got "
                        f"{len(args)} positional and the keywords {', '.join(kwargs) or 'none'}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class PowerRingSpec(_Record):
    """Ambient P^m (``dim`` = m) and the exponent ``power`` = r of x_i -> x_i**r.

    ``power`` may be any integer >= 1; r = 1 degenerates to the ordinary
    polynomial ring.  Prime r is the motivating (Frobenius) case, but
    nothing below needs primality.  Both must be integers: bools and
    non-integral values raise ``TypeError``.
    """

    __slots__ = ("dim", "power")

    def __init__(self, dim: int, power: int):
        dim = _exact_int("dim", dim)
        power = _exact_int("power", power)
        if dim < 1:
            raise ValueError("projective space dimension must be >= 1")
        if power < 1:
            raise ValueError("endomorphism power must be >= 1")
        _setattr(self, "dim", dim)
        _setattr(self, "power", power)

    @property
    def nvars(self) -> int:
        return self.dim + 1


class Monomial(_Record):
    """Exponent vector of a monomial in the homogeneous coordinates.

    ``exps`` may be any iterable and is stored as a tuple.  Exponents must be
    nonnegative integers: bools, floats and strings raise ``TypeError``,
    negatives ``ValueError``, and integer-likes become ints.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = _int_row(exps, "exponent")
        for e in exps:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
        _setattr(self, "exps", exps)

    @classmethod
    def _of(cls, exps: tuple[int, ...]) -> Monomial:
        """A monomial over ``exps``, a tuple of nonnegative ints, stored unchecked.

        For results the library builds from checked monomials only.
        """
        self = object.__new__(cls)
        _setattr(self, "exps", exps)
        return self

    @property
    def degree(self) -> int:
        return sum(self.exps)


class DecompositionWitness(_Record):
    """A factorization z = u * v with u in grade a, v in grade b."""

    __slots__ = ("a", "b", "u", "v")


def twist_degree(spec: PowerRingSpec, n: int) -> int:
    """e_n = (r**n - 1)/(r - 1); satisfies e_{a+b} = e_a + r**a * e_b.

    ``n`` must be an integer: bools and non-integral values raise ``TypeError``.
    """
    n = _exact_int("n", n)
    if n < 0:
        raise ValueError("grade must be nonnegative")
    r = spec.power
    if r == 1:
        return n
    return (r**n - 1) // (r - 1)


def grade_of_degree(spec: PowerRingSpec, total_degree: int) -> int:
    """Inverse of twist_degree; raises GradeError off the degree ladder.

    For r >= 2, ``total_degree`` = e_n exactly when
    r**n == total_degree * (r - 1) + 1.  The logarithm of that target
    rounds to the only candidate n (math.log works from the bit length of
    a big int, and its error is far below 1/2 at any degree that fits in
    memory), and one power checks it exactly.
    """
    r = spec.power
    if total_degree >= 0:
        if r == 1:
            return total_degree
        target = total_degree * (r - 1) + 1
        n = round(math.log(target, r))
        if r**n == target:
            return n
    raise GradeError(f"{total_degree} is not a twist degree for r={r}")


def grade_dimension(spec: PowerRingSpec, n: int) -> int:
    """Dimension of the grade-n piece: C(e_n + m, m)."""
    return math.comb(twist_degree(spec, n) + spec.dim, spec.dim)


def _sorted_parts(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every non-increasing ``parts``-tuple of ints in 0..cap summing to ``total``.

    The tuples come in lexicographic order; the head runs from
    ceil(total / parts), the least a largest part can be, to the cap, and
    the tail is walked under the head as its cap.
    """
    if parts == 1:
        if total <= cap:
            yield (total,)
    elif parts == 2:
        for head in range(-(-total // 2), min(cap, total) + 1):
            yield (head, total - head)
    else:
        for head in range(-(-total // parts), min(cap, total) + 1):
            for rest in _sorted_parts(total - head, parts - 1, head):
                yield (head, *rest)


def _orbit_size(z: tuple[int, ...]) -> int:
    """Distinct orderings of a sorted tuple: len(z)! / prod(run length!)."""
    size = math.factorial(len(z))
    run = 1
    for i in range(1, len(z)):
        if z[i] == z[i - 1]:
            run += 1
            size //= run
        else:
            run = 1
    return size


def _require_grade(spec: PowerRingSpec, mono: Monomial, n: int) -> int:
    """e_n, once ``mono`` is checked to lie in the grade-n piece."""
    if len(mono.exps) != spec.nvars:
        raise GradeError("monomial has the wrong number of variables")
    e_n = twist_degree(spec, n)
    if mono.degree != e_n:
        raise GradeError(f"degree {mono.degree} does not match grade {n}")
    return e_n


def twisted_product(spec: PowerRingSpec, u: Monomial, v: Monomial) -> Monomial:
    """Product in the twisted ring: exponents of v scale by r**(grade of u).

    Grades are inferred from total degrees, which determine them uniquely.
    """
    if not len(u.exps) == len(v.exps) == spec.nvars:
        raise GradeError(f"operands must have {spec.nvars} variables")
    a = grade_of_degree(spec, u.degree)
    grade_of_degree(spec, v.degree)
    q = spec.power**a
    return Monomial._of(tuple([x + q * y for x, y in zip(u.exps, v.exps)]))


@functools.lru_cache
def _carry_jumps(r: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """For each carry c in 0..m, the jump (j, e_j, r**j) of ``decompose_fast``,
    where j is the least j >= 1 with e_j >= c; one table per ring (r, m)."""
    jumps = []
    j, e, q = 1, 1, r
    for c in range(m + 1):
        while e < c:
            j, e, q = j + 1, r * e + 1, q * r
        jumps.append((j, e, q))
    return tuple(jumps)


def decompose_fast(
    spec: PowerRingSpec, z: Monomial, n: int
) -> DecompositionWitness | None:
    """Decomposability test by the base-r carry, O(n * variables) at worst.

    Splitting z = u * v with u in grade a forces u's exponents to agree
    with z's modulo r**a, so v_i <= w_i = z_i // r**a, and the degrees
    force sum(v) = e_{n-a}.  Such a v exists iff

        sum_i (z_i mod r**a) <= e_a,   equivalently   sum_i w_i >= e_{n-a},

    the two forms being one inequality because sum z_i = e_n =
    e_a + r**a * e_{n-a}.  The smallest split grade a is returned.

    Carry form.  c_a = e_{n-a} - sum(w) = (sum_i (z_i mod r**a) - e_a) / r**a
    is the carry into digit a when the z_i are added in base r, and z
    splits at a iff c_a <= 0.  For r >= 2 the residues are each below r**a
    and e_a < r**a, so c_a is an integer in 0..m and z splits iff c_a = 0.

    Carry vector, for r = 2**k.  Base-r digit a is bits k*a .. k*a + k - 1,
    so r**a = 2**(k*a).  Add the z_j one at a time, with partial sums
    P_j = z_0 + ... + z_j (P_{-1} = 0): the residues mod 2**(k*a) sum to
    P_m mod 2**(k*a) = e_a plus 2**(k*a) for each partial sum
    P_{j-1} + z_j that carries into bit k*a, so c_a counts those sums.
    The carry-in bits of x + y are (x + y) ^ x ^ y, and their union over
    the partial sums, C = OR_j (P_j ^ P_{j-1} ^ z_j), has bit k*a clear iff
    c_a = 0.  As e_n - 1 = r + ... + r**(n-1) has a one at exactly the bits
    k*a for 1 <= a < n, the first split is the lowest set bit of
    (e_n - 1) & ~C, over k; there is none when that is 0.  Grades below 2
    have no split (and e_0 - 1 = -1 has every bit set), so they return
    None first.  Only a power of two lines its digits up with bits.

    Carry jumps, for every other r.  Residues only grow with the modulus,
    and e_{a+j} = e_a + r**a * e_j, so

        c_{a+j} * r**j >= c_a - e_j:

    no grade before a + j splits, where j >= 1 is the least step with
    e_j >= c_a.  The loop jumps there at once: it divides the quotients by
    r**j in one pass (w_i //= r**j) and carries the target as
    e_{n-a-j} = (e_{n-a} - e_j) // r**j, starting from e_n.  As c_a <= m,
    a step is at most about log_r(m) + 1 grades long and never skips a
    split.  The jump depends on the ring and c_a alone, so each ring keeps
    a table of (j, e_j, r**j) for c = 0..m (``_carry_jumps``, cached by
    (r, m)), and each jump is one lookup; r**a is formed once, at the split.

    The witness is v = w less the excess k = -c_a, removed greedily in
    coordinate order, and u = z - r**a * v: the same witness as the residue
    form, which fills u_i = (z_i mod r**a) + r**a * take_i with the same
    takes.  For r >= 2 the excess is 0 and v = w; the greedy fill matters
    only for r = 1, where every c_a = -a and z splits at a = 1 with k = 1.
    """
    e_n = _require_grade(spec, z, n)
    if n < 2:
        return None
    r = spec.power
    if r & (r - 1) == 0 and r > 1:
        carries = p = 0
        for x in z.exps:
            s = p + x
            carries |= s ^ p ^ x
            p = s
        free = (e_n - 1) & ~carries
        if not free:
            return None
        shift = (free & -free).bit_length() - 1
        a = shift // (r.bit_length() - 1)
        v = [x >> shift for x in z.exps]
    else:
        jumps = _carry_jumps(r, spec.dim)
        v = z.exps
        t = e_n
        a = c = 0
        while True:
            # jump to a + j for the least j >= 1 with e = e_j >= c; q = r**j
            j, e, q = jumps[c]
            a += j
            if a >= n:
                return None
            v = [x // q for x in v]
            t = (t - e) // q
            c = t - sum(v)
            if c <= 0:
                break
        if c:  # only r = 1, with the excess -c = 1
            v[next(i for i, x in enumerate(v) if x)] -= 1
    q_a = r**a
    # v_i <= z_i // r**a, so u_i >= z_i mod r**a: both are nonnegative ints
    u = Monomial._of(tuple([x - q_a * y for x, y in zip(z.exps, v)]))
    v = Monomial._of(tuple(v))
    # e_{n-a} = (e_n - e_a) / r**a, from e_n and r**a alone, not from t
    e_a = (q_a - 1) // (r - 1) if r > 1 else a
    assert v.degree == (e_n - e_a) // q_a
    return DecompositionWitness(a, n - a, u, v)


def generator_degrees(
    spec: PowerRingSpec, max_n: int, budget: int = DEFAULT_BUDGET
) -> dict[int, int]:
    """Count monomials in each grade <= max_n that no lower grades generate.

    Grade 1 is reported as its full dimension (nothing below it can
    generate).  The ring is generated in degree one up to max_n iff every
    count for 2 <= n <= max_n is zero.

    By the criterion behind ``decompose_fast``, a grade-n exponent vector z
    is a new generator iff, for every 1 <= a < n,

        sum_i (z_i mod r**a) > e_a,   equivalently   sum_i z_i // r**a < e_{n-a}.

    On the line P^1 (m = 1) the count has a closed form: grade n >= 2 holds

        (r - 2) * (r - 1)**(n - 2)

    new generators when r >= 3, and none when r <= 2.  For r = 1 every
    residue is 0, so every z splits; the proof for r >= 2 takes two steps.

    (a) The last coordinate drops out.  The residues of z sum to
        e_n = e_a (mod r**a), and e_a < r**a, so the sum over all m + 1
        coordinates is <= e_a iff the sum over the first m is.  On the line
        the sum is e_a or e_a + r**a, the larger exactly when
        x mod r**a > e_a, where x = z_0.
    (b) Digits.  Write x in base r.  The rung a = 1 holds iff digit 0 of x
        is >= 2, since e_1 = 1 < r.  Given x mod r**a > e_a, the rung a + 1
        holds iff digit a is >= 1, because e_{a+1} = e_a + r**a: a digit
        >= 1 puts x mod r**(a+1) above r**a + e_a, a digit 0 leaves it
        below r**a <= e_{a+1}.  So the rungs a <= n - 1 hold iff digit 0
        is >= 2 and digits 1..n-2 are >= 1.  Then x mod r**(n-1) > e_{n-1},
        and x <= e_n = (1...1) in base r, n ones, forces the top digit n - 1
        and every higher one to 0.  That leaves r - 2 choices for digit 0
        and r - 1 for each of the n - 2 others.

    The case r = 2 is the corollary that P^1 with r = 2 is generated in
    degree one in every grade: digit 0 has no choice.

    >>> generator_degrees(PowerRingSpec(1, 5), 6)
    {1: 2, 2: 3, 3: 12, 4: 48, 5: 192, 6: 768}

    For m >= 2 the residue form is tested on a walk, which two facts shrink:

    * Cap lemma.  If some z_i >= r**(n-1), then sum_i (z_i mod r**(n-1))
      <= e_n - r**(n-1) = e_{n-1}, so z splits at grade n - 1.  Every
      generator therefore has all z_i <= r**(n-1) - 1, and under that cap
      the residues at a = n - 1 are z itself, whose sum e_n > e_{n-1}
      never splits: the top rung leaves the ladder.
    * Symmetry.  The test is symmetric in the coordinates, so only
      non-increasing z are walked, and each generator found counts its
      orbit size (m+1)! / prod(run length!) (``_orbit_size``).

    The ladder of (r**a, e_a), 1 <= a <= n - 2, grows by one rung per
    grade (q *= r, e_a = r * e_a + 1); each sorted, capped z is visited
    once, with at most n - 2 residue sums and no witness.  The budget
    bounds the walk only: before each walked grade (m >= 2, n >= 2), its
    full dimension C(e_n + m, m), with e_n carried as r * e_{n-1} + 1, is
    checked against the budget.  Grade 1 and the line enumerate nothing
    and answer at any budget.  ``max_n`` and ``budget`` must be integers,
    ``budget`` at least 1.
    """
    max_n = _exact_int("max_n", max_n)
    budget = _exact_int("budget", budget)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    r, m = spec.power, spec.dim
    counts: dict[int, int] = {}
    ladder: list[tuple[int, int]] = []
    q, e_a, e_n = 1, 0, 0
    for n in range(1, max_n + 1):
        e_n = r * e_n + 1
        if n < 2:
            counts[n] = m + 1
            continue
        if m == 1:
            counts[n] = (r - 2) * (r - 1) ** (n - 2) if r > 2 else 0
            continue
        size = math.comb(e_n + m, m)
        if size > budget:
            raise BudgetExceededError(n, size, budget, counts)
        count = 0
        # q = r**(n-2) here, so the cap is r**(n-1) - 1
        for z in _sorted_parts(e_n, m + 1, q * r - 1):
            for q_a, e in ladder:
                if sum([x % q_a for x in z]) <= e:
                    break
            else:
                count += _orbit_size(z)
        counts[n] = count
        # grade n + 1 tests the rungs a <= n - 1
        q *= r
        e_a = r * e_a + 1
        ladder.append((q, e_a))
    return counts


class GenerationReport(_Record):
    """``generator_degrees``'s counts for grades 1..max_n in order, whether the
    ring is generated in degree one, the citation id of that verdict, and one
    new generator's exponents for each grade 2..max_n where it is not."""

    __slots__ = ("counts", "generated_in_degree_one", "citations", "witnesses")


def _new_generators(spec: PowerRingSpec, max_n: int) -> tuple[tuple[int, ...], ...]:
    """One new generator's exponents for each grade 2..max_n, for r >= 3, or
    for r = 2 with m >= 2.

    z is new in grade n iff it splits at no grade a < n, i.e.
    sum_i (z_i mod r**a) > e_a for each such a:

    * r >= 3: z = (e_{n-1} + 1, r**(n-1) - 1, 0, ...).  As e_{n-1} = e_a
      (mod r**a) and e_a + 1 < r**a, the residues sum to e_a + r**a.
    * r = 2, m >= 2: z = (2**(n-1) - 1, 2**(n-1) - 1, 1, 0, ...), whose
      residues sum to 2**(a+1) - 1 > e_a = 2**a - 1.

    Both are (e_{n-1} + lead, r**(n-1) - 1, *rest), as e_{n-1} = 2**(n-1) - 1
    for r = 2.
    """
    m, r = spec.dim, spec.power
    lead, rest = (1, (0,) * (m - 1)) if r > 2 else (0, (1,) + (0,) * (m - 2))
    witnesses = []
    q, e = 1, 0
    for _ in range(2, max_n + 1):
        q, e = q * r, r * e + 1  # r**(n-1), e_{n-1}
        witnesses.append((e + lead, q - 1, *rest))
    return tuple(witnesses)


def generation_report(spec: PowerRingSpec, max_n: int,
                      budget: int = DEFAULT_BUDGET) -> GenerationReport:
    """The counts of ``generator_degrees(spec, max_n, budget)`` beside a verdict
    that holds in every grade and rests on (m, r) alone.

    The ring is generated in degree one iff r = 1, where it is k[x_0..x_m],
    or (m, r) = (1, 2), where the line's closed form has the factor r - 2 = 0.
    Otherwise every grade n >= 2 needs a new generator, and the report
    carries one for each grade 2..max_n (``_new_generators``).  A budget
    stop raises ``BudgetExceededError`` whose ``report`` is this report
    with the counts of the grades finished before the stop.
    """
    stop = None
    try:
        counts = generator_degrees(spec, max_n, budget)
    except BudgetExceededError as exc:
        counts, stop = exc.partial, exc
    counts = tuple(counts.values())
    if spec.power == 1:
        report = GenerationReport(counts, True, (citations.POLYNOMIAL_RING,), ())
    elif (spec.dim, spec.power) == (1, 2):
        report = GenerationReport(counts, True, (citations.GENERATED_IN_DEGREE_ONE,), ())
    else:
        report = GenerationReport(counts, False, (citations.NEW_GENERATORS_EVERY_DEGREE,),
                                  _new_generators(spec, max_n))
    if stop is not None:
        stop.report = report
        raise stop
    return report


class GrowthClass(enum.Enum):
    POLYNOMIAL_BOUNDED = "PolynomialBounded"
    EXPONENTIAL = "Exponential"


def growth_class(dims) -> GrowthClass:
    """Classify a dimension sequence as polynomially bounded or exponential.

    Exponential means the consecutive ratios over the last half of the
    window stay at or above 17/16 and are not decaying: the final ratio
    must not drop below the first tail ratio.  Polynomial sequences fail
    the second condition on any window (their ratios slide toward 1),
    while the section rings here have ratios increasing toward r**m.
    The dimensions are positive, so both tests compare the ratios exactly
    by cross-multiplying.
    """
    dims = list(dims)
    if len(dims) < 4:
        raise ValueError("need at least four terms")
    if any(d <= 0 for d in dims):
        raise ValueError("dimensions must be positive")
    first, last = (len(dims) - 1) // 2, len(dims) - 1
    steep = all(16 * dims[i + 1] >= 17 * dims[i] for i in range(first, last))
    if steep and dims[last] * dims[first] >= dims[first + 1] * dims[last - 1]:
        return GrowthClass.EXPONENTIAL
    return GrowthClass.POLYNOMIAL_BOUNDED


class GrowthReport(_Record):
    """The dimensions of grades 0..max_n, the ring's ``growth_class`` and
    whether it is ``noetherian``, both in every grade, the citation ids of
    that verdict, and, for r >= 2, the exponents of g_1..g_max_n of a
    strictly ascending right and left ideal chain (``right_chain``,
    ``left_chain``; both empty for r = 1)."""

    __slots__ = ("dims", "growth_class", "noetherian", "citations", "right_chain",
                 "left_chain")


def growth_report(spec: PowerRingSpec, max_n: int) -> GrowthReport:
    """The dimensions of grades 0..max_n beside a verdict that rests on r alone.

    For r = 1 the ring is k[x_0..x_m]: polynomially bounded and noetherian.
    For r >= 2 each grade multiplies the dimension by

        dim_{n+1} / dim_n = prod_{i=1..m} (r e_n + 1 + i) / (e_n + i),

    and no factor falls as e_n grows, since (r - 1) i >= 1; at e_0 = 0 the
    factors are (1 + i) / i.  So the ratio is at least m + 1 in every grade: the growth is
    exponential, and a graded noetherian algebra grows subexponentially
    (Stephenson-Zhang 1997).

    For r >= 2 the report also carries g_1..g_max_n of two chains, g_k in
    grade k.  A product of monomials is the monomial u * v = u + r**a v,
    a the grade of u, so a one-sided ideal that monomials generate is
    spanned by monomials, and a monomial lies in a sum of such ideals only
    if it lies in one of them.  So g_k outside g_j B (or B g_j) for every
    j < k makes the ideals that g_1, ..., g_k generate ascend strictly on
    that side, and ACC fails on both sides.

    * Right: g_k = x_0**e_{k-1} x_1**(r**(k-1)).  g_k in g_j B needs r**j
      to divide g_k - g_j, whose x_1 entry r**(j-1) (r**(k-j) - 1) has
      r-adic valuation j - 1.
    * Left: g_k = x_0 x_1**(e_k - 1).  g_k in B g_j needs
      g_k >= r**(k-j) g_j in every coordinate, which fails at x_0, as
      1 < r**(k-j).

    ``max_n`` must be an integer >= 0.
    """
    max_n = _exact_int("max_n", max_n)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    dims = tuple([grade_dimension(spec, n) for n in range(max_n + 1)])
    r = spec.power
    if r == 1:
        return GrowthReport(dims, GrowthClass.POLYNOMIAL_BOUNDED, True,
                            (citations.POLYNOMIAL_RING,), (), ())
    pad = (0,) * (spec.dim - 1)
    right, left = [], []
    q, e = 1, 0  # r**(k-1), e_{k-1}
    for _ in range(max_n):
        right.append((e, q, *pad))
        q, e = q * r, r * e + 1
        left.append((1, e - 1, *pad))
    return GrowthReport(dims, GrowthClass.EXPONENTIAL, False,
                        (citations.EXPONENTIAL_GROWTH_NOT_NOETHERIAN,
                         citations.RIGHT_IDEAL_CHAIN, citations.LEFT_IDEAL_CHAIN),
                        tuple(right), tuple(left))
