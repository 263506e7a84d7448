"""The four benchmark workloads.

Each workload turns a seed into a corpus of operations (the same seed
always gives the same corpus), runs one operation at a time, reduces each
answer to a small digest, and checks every digest against an independent
oracle after the timed phase. The timed phase repeats the corpus in whole
passes, so every run measures the same mix of operation sizes; the seed
picks the inputs inside each size class and the order of each pass.

thcr functions are looked up through their modules at call time, so the
traced run's rebinding applies to the calls made here.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import oracles


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def _thcr():
    from thcr import cohomology, dynamics, intlinalg, ring

    return ring, intlinalg, dynamics, cohomology


class Workload:
    name = ""
    setup_import = "thcr"
    # span-name prefixes of the modules expected to do the work
    dominant: tuple[str, ...] = ()
    in_process = True

    def corpus(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def digest(self, op: Op, out):
        raise NotImplementedError

    def check(self, op: Op, digest):
        """None when the digest is right, else a one-line reason.

        Digests of operations that raised never reach here: an exception is
        always a failure, since no corpus holds an input thcr should reject.
        """
        raise NotImplementedError

    def probe_defects(self, seed: int):
        """(probes run, probes answered wrongly) for a known defect; none by default."""
        return 0, 0

    @staticmethod
    def rng(name: str, seed: int) -> random.Random:
        return random.Random(f"{name}:{seed}")


# --- gens-enum ---------------------------------------------------------------

GENS_DIMS = range(1, 5)
GENS_POWERS = range(2, 6)
GENS_MIN_SIZE, GENS_MAX_SIZE = 10**2, 10**4.5


def gens_grid() -> list[tuple[int, int, int]]:
    """Every (m, r, n) whose top grade holds 10**2 to 10**4.5 monomials."""
    grid = []
    for m in GENS_DIMS:
        for r in GENS_POWERS:
            n = 1
            while (size := math.comb(oracles.twist(r, n) + m, m)) <= GENS_MAX_SIZE:
                if size >= GENS_MIN_SIZE:
                    grid.append((m, r, n))
                n += 1
    return grid


class GensEnum(Workload):
    name = "gens-enum"
    dominant = ("ring.",)

    def corpus(self, seed):
        # The grid is small enough to run whole in every pass; the seed sets
        # the pass order only, so the size mix never changes between seeds.
        ring = _thcr()[0]
        return [Op("gens", (ring.PowerRingSpec(m, r), n)) for m, r, n in gens_grid()]

    def execute(self, op):
        spec, max_n = op.args
        return _thcr()[0].generator_degrees(spec, max_n)

    def digest(self, op, out):
        return tuple(sorted(out.items()))

    def check(self, op, digest):
        spec, max_n = op.args
        want = tuple(sorted(oracles.generator_counts(spec.dim, spec.power, max_n).items()))
        return None if digest == want else f"counts {digest} != criterion {want}"


# --- ampleness-corpus --------------------------------------------------------

AMP_RANKS = (2, 3, 4, 5, 6, 8, 10, 12)
AMP_BITS = (2, 4, 6, 8, 12, 16)
AMP_DRAWS = 2          # actions per (rank, bits) cell
AMP_HORIZON = 64
# Characteristic polynomials (low to high, monic) whose companion blocks
# build the quasi-unipotent actions: Phi_d for d = 1, 2, 3, 4, 6, 5, 8, 10, 12.
CYCLOTOMIC = ((-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1),
              (1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1), (1, 0, -1, 0, 1))


def exact_det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def nonnegative_action(rng, rank, bits, row_sum):
    """Invertible nonnegative matrix with a positive diagonal.

    It preserves the positive orthant, so its largest real eigenvalue is its
    spectral radius, and the positive diagonal makes P**m H grow
    monotonically, so a left-ampleness witness with a multiplier of at most
    64 * max(D) exists. With ``row_sum`` every row sums to the same value,
    which makes the all-ones divisor an eigenvector.
    """
    hi = 2**bits - 1
    while True:
        rows = [[rng.randint(0, hi) if i != j else 0 for j in range(rank)] for i in range(rank)]
        if row_sum:
            s = max(sum(row) for row in rows) + rng.randint(1, hi)
            for i, row in enumerate(rows):
                row[i] = s - sum(row)
        else:
            for i, row in enumerate(rows):
                row[i] = rng.randint(1, hi)
        if exact_det(rows):
            return rows


def quasi_unipotent_action(rng, rank, bits):
    """Block upper-triangular matrix of cyclotomic companion blocks, with
    ``bits``-bit entries above the blocks, conjugated by a permutation."""
    blocks, left = [], rank
    while left:
        poly = rng.choice([p for p in CYCLOTOMIC if len(p) - 1 <= left])
        blocks.append(poly)
        left -= len(poly) - 1
    rows = [[0] * rank for _ in range(rank)]
    start = 0
    hi = 2**bits - 1
    for poly in blocks:
        k = len(poly) - 1
        for i in range(k):
            if i:
                rows[start + i][start + i - 1] = 1
            rows[start + i][start + k - 1] = -poly[i]
        for i in range(start, start + k):
            for j in range(start + k, rank):
                rows[i][j] = rng.randint(-hi, hi)
        start += k
    perm = list(range(rank))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)]


def identity_curves(rank):
    return [[int(i == j) for j in range(rank)] for i in range(rank)]


class AmplenessCorpus(Workload):
    name = "ampleness-corpus"
    dominant = ("intlinalg.", "dynamics.")

    def corpus(self, seed):
        rng = self.rng(self.name, seed)
        ops = []
        for rank in AMP_RANKS:
            for bits in AMP_BITS:
                for draw in range(AMP_DRAWS):
                    row_sum = (rank + bits + draw) % 3 == 0
                    rows = nonnegative_action(rng, rank, bits, row_sum)
                    if row_sum:
                        divisor = (rng.randint(1, 9),) * rank
                    else:
                        divisor = tuple(rng.randint(1, 15) for _ in range(rank))
                    ops.append(Op("classify", (rows, divisor)))
            # a third of the corpus takes the cyclotomic path and skips Sturm
            for bits in AMP_BITS[rank % 2::2]:
                for _ in range(AMP_DRAWS):
                    rows = quasi_unipotent_action(rng, rank, bits)
                    divisor = tuple(rng.randint(1, 15) for _ in range(rank))
                    ops.append(Op("classify-qu", (rows, divisor)))
        return ops

    def execute(self, op):
        _, _, dynamics, _ = _thcr()
        rows, divisor = op.args
        rank = len(rows)
        spec = dynamics.NumericalActionSpec(rows, identity_curves(rank))
        d = dynamics.DivisorClass(divisor)
        report = dynamics.classify_ampleness(spec, d)
        witness = None
        if not report.quasi_unipotent:
            ample = dynamics.DivisorClass((1,) * rank)
            witness = dynamics.non_left_ample_witness(spec, d, ample, horizon=AMP_HORIZON)
        return report, witness

    def digest(self, op, out):
        report, witness = out
        radius = report.spectral_radius
        return (
            report.left.value,
            report.right.value,
            None if radius is None else (radius.lo, radius.hi),
            report.quasi_unipotent,
            None if report.ample_eigenvector is None else report.ample_eigenvector.coords,
            report.reasons,
            None if witness is None else (witness.h.coords, witness.curve.coords,
                                          witness.horizon, witness.multiplier),
        )

    def check(self, op, digest):
        _, intlinalg, _, _ = _thcr()
        rows, divisor = op.args
        left, right, radius, qu, eigenvector, _, witness = digest
        coeffs, want_qu, max_modulus = oracles.matrix_facts(rows)
        got = list(intlinalg.char_poly(intlinalg.IntMatrix(rows)).coeffs)
        if got != coeffs:
            return f"char_poly {got} != sympy {coeffs}"
        if qu != want_qu:
            return f"quasiUnipotent {qu} != cyclotomic factorisation {want_qu}"
        if radius is None or not oracles.encloses(*radius, max_modulus):
            return f"radius {radius} does not enclose max modulus {float(max_modulus)}"
        if radius[1] - radius[0] > intlinalg.DEFAULT_RADIUS_WIDTH:
            return f"radius interval wider than {intlinalg.DEFAULT_RADIUS_WIDTH}"
        want_left = "Undetermined" if want_qu else "No"
        lam = oracles.integer_eigenvalue(rows, divisor)
        is_right = all(x > 0 for x in divisor) and lam is not None and lam >= 1
        want_right = "Yes" if is_right else "Undetermined"
        if (left, right) != (want_left, want_right):
            return f"verdicts {(left, right)} != {(want_left, want_right)}"
        if eigenvector != (divisor if is_right else None):
            return f"ampleEigenvector {eigenvector} is wrong"
        if want_qu:
            return None if witness is None else "witness searched on a quasi-unipotent action"
        if witness is None:
            return "no witness for an action with spectral radius above one"
        h, curve, horizon, k = witness
        ample = (1,) * len(rows)
        if h != tuple(k * x for x in ample) or horizon != AMP_HORIZON:
            return f"witness {witness} does not scale the ample class"
        if not oracles.witness_holds(rows, divisor, curve, ample, k, horizon):
            return f"witness {witness} fails the partial-sum inequality"
        if k > 1 and oracles.witness_holds(rows, divisor, curve, ample, k // 2, horizon):
            return f"witness multiplier {k} is not the smallest power of two"
        return None

    def probe_defects(self, seed):
        """Actions that do not preserve the cone of their curves.

        The right answer is a radius interval that encloses the maximum
        modulus, or a rejection with ValueError. ``spectral_radius_interval``
        returns the largest real root instead (ROADMAP aim 3), so today every
        probe is answered wrongly. The probes run outside the timed phase, so
        the operations the timed phase counts never fail on this defect.
        """
        _, _, dynamics, _ = _thcr()
        rng = self.rng(self.name + ":noncone", seed)
        wrong = 0
        actions = noncone_actions(rng)
        for rows in actions:
            rank = len(rows)
            try:
                spec = dynamics.NumericalActionSpec(rows, identity_curves(rank))
                report = dynamics.classify_ampleness(spec, dynamics.DivisorClass((1,) * rank))
            except ValueError:
                continue
            except Exception:
                wrong += 1
                continue
            radius = report.spectral_radius
            _, _, max_modulus = oracles.matrix_facts(rows)
            if radius is None or not oracles.encloses(radius.lo, radius.hi, max_modulus):
                wrong += 1
        return len(actions), wrong


def noncone_actions(rng) -> list:
    actions = []
    for _ in range(2):
        actions.append([[-rng.randint(2, 9)]])
        b = rng.randint(2, 8)
        actions.append([[-rng.randint(b + 1, 16), 0], [0, b]])
        p, q = rng.randint(2, 9), rng.randint(2, 9)
        c = rng.randint(2, math.isqrt(p * p + q * q - 1))
        actions.append([[p, -q, 0], [q, p, 0], [0, 0, c]])
        rank = rng.randint(3, 5)
        actions.append([[-x for x in row] for row in nonnegative_action(rng, rank, 4, False)])
    return actions


# --- deep-queries ------------------------------------------------------------

# (m, r, n) with e_n above 2**60, so exponents run past 64 bits
DECOMPOSE_SPECS = ((8, 2, 62), (4, 3, 40), (1, 2, 64), (2, 5, 27),
                   (8, 5, 27), (3, 2, 63), (6, 3, 40), (2, 7, 23))
DECOMPOSE_PER_SPEC = 40
ASSOC_SPECS = ((8, 2), (3, 3), (1, 5), (5, 2))
ASSOC_PER_SPEC = 15
SCAN_SHAPES = ((1, 2, 1000), (2, 3, 800), (4, 2, 600), (8, 5, 300))
# (m, r, window length) and (polynomial degree, window length)
GROWTH_SECTION = ((1, 2, 200), (2, 3, 250), (4, 2, 300))
GROWTH_POLY = ((2, 200), (5, 250), (8, 300))


def deep_monomial(rng, m: int, r: int, n: int) -> tuple[int, ...]:
    """Uniform exponent vector of grade n by stars and bars on Python ints.

    ``thcr.ring.random_monomial`` cannot be used here: its ``rng.sample``
    over ``range(e_n + m)`` raises OverflowError once e_n passes sys.maxsize.
    """
    total, parts = oracles.twist(r, n), m + 1
    bars: set[int] = set()
    while len(bars) < parts - 1:
        bars.add(rng.randrange(total + parts - 1))
    exps, prev = [], -1
    for bar in sorted(bars):
        exps.append(bar - prev - 1)
        prev = bar
    exps.append(total + parts - 2 - prev)
    return tuple(exps)


def section_dims(m: int, r: int, start: int, length: int) -> list[int]:
    return [math.comb(oracles.twist(r, n) + m, m) for n in range(start, start + length)]


class DeepQueries(Workload):
    name = "deep-queries"
    dominant = ("ring.", "cohomology.")

    def corpus(self, seed):
        ring = _thcr()[0]
        rng = self.rng(self.name, seed)
        ops = []
        for m, r, n in DECOMPOSE_SPECS:
            spec = ring.PowerRingSpec(m, r)
            for _ in range(DECOMPOSE_PER_SPEC):
                ops.append(Op("decompose", (spec, ring.Monomial(deep_monomial(rng, m, r, n)), n)))
        for m, r in ASSOC_SPECS:
            spec = ring.PowerRingSpec(m, r)
            for _ in range(ASSOC_PER_SPEC):
                grades = [rng.randint(4, 20) for _ in range(3)]
                ops.append(Op("assoc", (spec,) + tuple(
                    ring.Monomial(deep_monomial(rng, m, r, g)) for g in grades)))
        for m, r, max_n in SCAN_SHAPES:
            spec = ring.PowerRingSpec(m, r)
            # a negative twist keeps top cohomology alive on the left, so
            # every left scan carries big binomials and costs about the same
            t = rng.randint(-9, -1)
            ops.append(Op("right-scan", (spec, t, max_n)))
            ops.append(Op("left-scan", (spec, t, max_n)))
        for m, r, length in GROWTH_SECTION:
            dims = section_dims(m, r, rng.randint(0, 20), length)
            ops.append(Op("growth", (dims, "Exponential")))
        for k, length in GROWTH_POLY:
            start = rng.randint(0, 50)
            dims = [math.comb(n + k, k) for n in range(start, start + length)]
            ops.append(Op("growth", (dims, "PolynomialBounded")))
        return ops

    def execute(self, op):
        ring, _, _, cohomology = _thcr()
        if op.kind == "decompose":
            return ring.decompose_fast(*op.args)
        if op.kind == "assoc":
            spec, u, v, w = op.args
            return (ring.twisted_product(spec, ring.twisted_product(spec, u, v), w),
                    ring.twisted_product(spec, u, ring.twisted_product(spec, v, w)))
        if op.kind == "right-scan":
            return cohomology.right_vanishing_scan(*op.args)
        if op.kind == "left-scan":
            return cohomology.left_vanishing_scan(*op.args)
        return ring.growth_class(op.args[0])

    def digest(self, op, out):
        if op.kind == "decompose":
            return None if out is None else (out.a, out.b, out.u.exps, out.v.exps)
        if op.kind == "assoc":
            return out[0].exps, out[1].exps
        if op.kind in ("right-scan", "left-scan"):
            marker = out.stabilized_at if op.kind == "right-scan" else out.nonvanishing_from
            rows = out.rows
            sample = {0, len(rows) - 1, len(rows) // 2, len(rows) // 3}
            if marker is not None:
                sample.update(i for i, row in enumerate(rows) if row.n == marker)
            return marker, len(rows), tuple(
                (rows[i].n, rows[i].degree, rows[i].q, rows[i].value) for i in sorted(sample))
        return out.value

    def check(self, op, digest):
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, digest)

    def _check_decompose(self, op, digest):
        ring = _thcr()[0]
        spec, z, n = op.args
        r = spec.power
        want = oracles.first_split_grade(z.exps, r, n)
        if digest is None:
            return None if want is None else f"no split found, but grade {want} splits"
        a, b, u, v = digest
        if a != want or a + b != n:
            return f"split at grade {a} of {a}+{b}, criterion gives first grade {want}"
        if sum(u) != oracles.twist(r, a) or sum(v) != oracles.twist(r, b):
            return "witness factors have the wrong degrees"
        if ring.twisted_product(spec, ring.Monomial(u), ring.Monomial(v)) != z:
            return "twisted_product of the witness is not the monomial"
        if any(x + r**a * y != e for x, y, e in zip(u, v, z.exps)):
            return "witness does not multiply back to the monomial"
        return None

    def _check_assoc(self, op, digest):
        spec, u, v, w = op.args
        r = spec.power
        a = oracles.twist_grade(r, u.degree)
        b = oracles.twist_grade(r, v.degree)
        want = tuple(x + r**a * y + r**(a + b) * z for x, y, z in zip(u.exps, v.exps, w.exps))
        if digest != (want, want):
            return "products disagree with u + r**a v + r**(a+b) w"
        return None

    def _scan_check(self, op, digest, degree_of, want_marker):
        spec, t, max_n = op.args
        m = spec.dim
        marker, count, sample = digest
        if count != (max_n + 1) * m:
            return f"{count} rows, expected {(max_n + 1) * m}"
        want = want_marker([oracles.clean(m, degree_of(n)) for n in range(max_n + 1)])
        if marker != want:
            return f"marker {marker} != {want}"
        for n, degree, q, value in sample:
            if degree != degree_of(n) or value != oracles.top_cohomology(m, degree, q):
                return f"row n={n} q={q} is wrong"
        return None

    def _check_right_scan(self, op, digest):
        spec, t, _ = op.args
        return self._scan_check(op, digest, lambda n: t + oracles.twist(spec.power, n),
                                oracles.trailing_start)

    def _check_left_scan(self, op, digest):
        spec, t, _ = op.args
        r = spec.power
        return self._scan_check(op, digest, lambda n: oracles.twist(r, n) + r**n * t,
                                lambda clean: oracles.trailing_start([not c for c in clean]))

    def _check_growth(self, op, digest):
        want = op.args[1]
        return None if digest == want else f"growth class {digest} != {want}"


# --- cli-cold ----------------------------------------------------------------

CLI_SMALL_GENS = ((1, 2, 7), (1, 3, 5), (2, 2, 4), (2, 3, 3), (3, 2, 3), (1, 5, 4), (2, 4, 3))


class CliCold(Workload):
    name = "cli-cold"
    setup_import = "thcr.cli"
    dominant = ("op.",)   # the child interpreters
    in_process = False

    def __init__(self, root: str, env: dict):
        self.root, self.env = root, env

    def corpus(self, seed):
        rng = self.rng(self.name, seed)
        ops = []
        for _ in range(2):
            for fmt in ("json", "csv"):
                r, m = rng.randint(2, 5), rng.randint(1, 4)
                ops.append(Op("cli.dims", ("dims", "--p", r, "--m", m,
                                       "--max-n", rng.randint(4, 10), "--format", fmt)))
                m, r, n = rng.choice(CLI_SMALL_GENS)
                ops.append(Op("cli.gens", ("gens", "--p", r, "--m", m, "--max-n", n, "--format", fmt)))
                r, m = rng.randint(2, 4), rng.randint(1, 3)
                ops.append(Op("cli.cohomology", ("cohomology", "--p", r, "--m", m,
                                             "--t", rng.randint(-5, 3),
                                             "--max-n", rng.randint(6, 16), "--format", fmt)))
                r, m = rng.randint(2, 4), rng.randint(1, 3)
                ops.append(Op("cli.growth", ("growth", "--p", r, "--m", m,
                                         "--max-n", rng.randint(6, 14), "--format", fmt)))
            # ampleness has no CSV form
            rank = rng.randint(2, 3)
            rows = nonnegative_action(rng, rank, rng.randint(2, 6), False)
            divisor = [rng.randint(1, 9) for _ in range(rank)]
            ops.append(Op("cli.ampleness", ("ampleness", "--matrix", json.dumps(rows),
                                        "--curves", json.dumps(identity_curves(rank)),
                                        "--divisor", json.dumps(divisor), "--format", "json")))
        return ops

    def execute(self, op):
        proc = subprocess.run([sys.executable, "-m", "thcr.cli", *map(str, op.args)],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def digest(self, op, out):
        return out

    def check(self, op, digest):
        returncode, stdout = digest
        if returncode != 0:
            return f"exit {returncode}"
        args = list(op.args)
        opt = {args[i]: args[i + 1] for i in range(1, len(args) - 1, 2)}
        fmt = opt["--format"]
        if fmt == "json":
            doc = json.loads(stdout)["results"]
        else:
            lines = stdout.strip().splitlines()
            doc = [[int(x) if x.lstrip("-").isdigit() else x for x in line.split(",")]
                   for line in lines[1:]]
        got, want = getattr(self, "_expect_" + op.args[0])(opt, fmt, doc)
        return None if got == want else f"report {got!r} != library {want!r}"

    @staticmethod
    def _spec(opt):
        return _thcr()[0].PowerRingSpec(opt["--m"], opt["--p"])

    def _expect_dims(self, opt, fmt, doc):
        ring = _thcr()[0]
        spec = self._spec(opt)
        want = [[n, ring.twist_degree(spec, n), ring.grade_dimension(spec, n)]
                for n in range(opt["--max-n"] + 1)]
        got = doc if fmt == "csv" else [[r["n"], r["twistDegree"], r["dim"]] for r in doc["rows"]]
        return got, want

    def _expect_gens(self, opt, fmt, doc):
        counts = _thcr()[0].generator_degrees(self._spec(opt), opt["--max-n"])
        want = [[n, counts[n]] for n in sorted(counts)]
        got = doc if fmt == "csv" else [[int(n), c] for n, c in doc["counts"].items()]
        return sorted(got), want

    def _expect_growth(self, opt, fmt, doc):
        ring = _thcr()[0]
        spec = self._spec(opt)
        dims = [ring.grade_dimension(spec, n) for n in range(opt["--max-n"] + 1)]
        if fmt == "csv":
            return doc, [[n, d] for n, d in enumerate(dims)]
        return (doc["dims"], doc["growthClass"]), (dims, ring.growth_class(dims).value)

    def _expect_cohomology(self, opt, fmt, doc):
        cohomology = _thcr()[3]
        spec = self._spec(opt)
        right = cohomology.right_vanishing_scan(spec, opt["--t"], opt["--max-n"])
        left = cohomology.left_vanishing_scan(spec, opt["--t"], opt["--max-n"])
        rows = [[row.n, row.degree, row.q, row.value] for scan in (right, left) for row in scan.rows]
        if fmt == "csv":
            return doc, rows
        got = (doc["rightScan"]["stabilizedAt"], doc["leftScan"]["nonVanishingFrom"],
               [[r["n"], r["degree"], r["q"], r["h"]] for r in doc["table"]])
        return got, (right.stabilized_at, left.nonvanishing_from, rows)

    def _expect_ampleness(self, opt, fmt, doc):
        _, _, dynamics, _ = _thcr()
        rows = json.loads(opt["--matrix"])
        spec = dynamics.NumericalActionSpec(rows, json.loads(opt["--curves"]))
        report = dynamics.classify_ampleness(
            spec, dynamics.DivisorClass(tuple(json.loads(opt["--divisor"]))))
        radius = report.spectral_radius
        got = (doc["left"], doc["right"], doc["quasiUnipotent"], doc["reasons"],
               doc["spectralRadius"] and [doc["spectralRadius"]["lo"], doc["spectralRadius"]["hi"]])
        want = (report.left.value, report.right.value, report.quasi_unipotent,
                list(report.reasons), radius and [str(radius.lo), str(radius.hi)])
        return got, want


def make(name: str, root: str, child_env: dict) -> Workload:
    if name == CliCold.name:
        return CliCold(root, child_env)
    return {w.name: w for w in (GensEnum, AmplenessCorpus, DeepQueries)}[name]()


NAMES = (GensEnum.name, AmplenessCorpus.name, DeepQueries.name, CliCold.name)
