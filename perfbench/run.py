"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gens-enum --seed 1 --seconds 20 --trace 0

Run from the repository root. The load is one closed-loop client: the next
operation starts when the previous one has returned. With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-module metrics of a traced run,
which also measures the tracing overhead against an untraced run of the
same operations. The lines before it are a readable report. Each run is
also appended to ``.bench_out/runs.jsonl`` (see ``--out``), the input of
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100          # so that at least ten samples lie beyond the 90th percentile
HARD_STOP_S = 150      # a run ends well inside its 180 s limit whatever --seconds says
WARMUP_S = 1.0
SETUP_SAMPLES = 11
IMPORTTIME_SAMPLES = 5
CAL_EVERY_S = 0.025    # the most time that passes between two calibrations
CAL_REF_S = 0.001      # times are reported at the speed where calibrate() takes this long


def calibrate() -> float:
    """Seconds that a fixed pure-Python task takes right now.

    The 2-core machine this benchmark was tuned on changes speed by 10 to
    30 % over seconds and minutes, because other tenants share its cores;
    the task's own time moves with it. Every reported time is multiplied by
    CAL_REF_S over the mean calibration time measured around it, which
    cancels that drift. The task mixes the three kinds of work thcr does:
    small-int tuple loops, Fraction arithmetic and big-int products. It
    shares no code with thcr, so no change to thcr can move it; changing the
    task would rescale every reported time.
    """
    t0 = time.perf_counter()
    hits = 0
    for a in range(21):
        for b in range(21 - a):
            z = (a, b, 20 - a - b)
            q = 1
            for k in range(1, 5):
                q *= 2
                if sum(x % q for x in z) <= q - 1:
                    hits += k
                    break
    x = Fraction(0)
    for i in range(1, 40):
        x = (x * Fraction(i, i + 7) + Fraction(3, i)) % 97
    big = 3**2000
    for i in range(12):
        hits += (big * (big + i)) % (big - i) > 0
    return time.perf_counter() - t0 if hits and x else 0.0


def speed_scale(cal_s: list[float]) -> float:
    return CAL_REF_S / statistics.mean(cal_s)


def child_env() -> dict:
    """Environment for child interpreters: thcr from this checkout only.

    TWISTED_BUDGET is dropped because it silently changes what ``gens`` does.
    """
    env = dict(os.environ)
    env.pop("TWISTED_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_thcr() -> None:
    if not (SRC / "thcr" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no thcr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thcr

    if Path(thcr.__file__).resolve().parent != SRC / "thcr":
        raise SystemExit(f"run.py: imported thcr from {thcr.__file__}, not from {SRC}")


@dataclass
class Phase:
    """Executions of one timed phase, in the order they ran.

    Per-operation figures are typed arrays, 20 bytes an operation, so that
    the runner's own memory hardly grows with the number of operations run.
    """

    wall_s: float = 0.0
    passes: int = 0
    index: array.array = field(default_factory=lambda: array.array("i"))
    lat_ns: array.array = field(default_factory=lambda: array.array("q"))
    # lat_ns at reference speed, scaled by the calibrations around each operation
    scaled_ns: array.array = field(default_factory=lambda: array.array("d"))
    cal_s: list[float] = field(default_factory=list)
    # reason per execution that raised or disagreed with the reference digest
    bad: dict[int, str] = field(default_factory=dict)


class Runner:
    """Runs a workload's corpus and keeps the first digest of each operation."""

    def __init__(self, workload, ops, seed):
        self.workload, self.ops, self.seed = workload, ops, seed
        self.ref: dict[int, object] = {}
        self.ref_error: dict[int, str] = {}

    def run_one(self, i: int, phase: Phase | None, tracer=None) -> None:
        op = self.ops[i]
        error = None
        sid = tracer.open(tracer.name_id("op." + op.kind)) if tracer else None
        t0 = time.perf_counter_ns()
        try:
            out = self.workload.execute(op)
        except Exception as exc:  # an operation's failure is a result, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close(sid)
        digest = None
        if not error:
            try:
                digest = self.workload.digest(op, out)
            except Exception as exc:
                error = f"unreadable answer, {type(exc).__name__}: {exc}"
        del out
        if i not in self.ref and i not in self.ref_error:
            if error:
                self.ref_error[i] = error
            else:
                self.ref[i] = digest
        elif not error and i in self.ref and digest != self.ref[i]:
            error = "answer differs from the first run of the same input"
        if phase is not None:
            phase.index.append(i)
            phase.lat_ns.append(t1 - t0)
            if error:
                phase.bad[len(phase.index) - 1] = error

    def warm_up(self) -> None:
        start = time.perf_counter()
        for i in self.order(-1):
            self.run_one(i, None)
            if time.perf_counter() - start >= WARMUP_S:
                break

    def order(self, pass_no: int) -> list[int]:
        order = list(range(len(self.ops)))
        random.Random(f"order:{self.seed}:{pass_no}").shuffle(order)
        return order

    def run_pass(self, phase: Phase, tracer=None) -> None:
        start = time.perf_counter()
        first = len(phase.lat_ns)
        cals = [calibrate()]
        cal_before = []   # per operation, the index of the calibration just before it
        last = time.perf_counter()
        for i in self.order(phase.passes):
            if time.perf_counter() - last >= CAL_EVERY_S:
                cals.append(calibrate())
                last = time.perf_counter()
            cal_before.append(len(cals) - 1)
            self.run_one(i, phase, tracer)
        cals.append(calibrate())
        # scale each operation by the two calibrations before it and the two after
        phase.scaled_ns.extend(
            ns * speed_scale(cals[max(0, k - 1):k + 3])
            for ns, k in zip(phase.lat_ns[first:], cal_before))
        phase.cal_s.extend(cals)
        phase.wall_s += time.perf_counter() - start
        phase.passes += 1

    def done(self, phase: Phase, seconds: float) -> bool:
        return phase.wall_s >= HARD_STOP_S or (
            phase.wall_s >= seconds and len(phase.index) >= MIN_OPS)

    def timed(self, seconds: float) -> Phase:
        """Whole passes until ``seconds`` have passed and MIN_OPS operations have run."""
        phase = Phase()
        while not self.done(phase, seconds):
            self.run_pass(phase)
        return phase

    def timed_pairs(self, seconds: float, tracer, targets) -> tuple[Phase, Phase]:
        """Untraced and traced passes, alternating, so that both see the same
        machine; the untraced passes together run for ``seconds``."""
        plain, traced = Phase(), Phase()
        while not self.done(plain, seconds):
            self.run_pass(plain)
            with tracer.installed(targets):
                self.run_pass(traced, tracer)
        return plain, traced

    def oracle_failures(self) -> dict[int, str]:
        """Reason per operation whose first answer the oracle rejects."""
        failures = dict(self.ref_error)
        for i, digest in self.ref.items():
            try:
                reason = self.workload.check(self.ops[i], digest)
            except Exception as exc:  # a malformed answer fails its check, not the run
                reason = f"oracle cannot read the answer, {type(exc).__name__}: {exc}"
            if reason:
                failures[i] = reason
        return failures


def failed_executions(phase: Phase, oracle: dict[int, str]) -> dict[int, str]:
    bad = dict(phase.bad)
    for pos, i in enumerate(phase.index):
        if i in oracle:
            bad.setdefault(pos, oracle[i])
    return bad


def timed_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60)
    return time.perf_counter() - t0, proc


def setup_seconds(module: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``module``, as measured and at
    reference speed; the first run is discarded."""
    walls, cals = [], [calibrate()]
    for _ in range(SETUP_SAMPLES + 1):
        wall, proc = timed_child([sys.executable, "-c", f"import {module}"])
        if proc.returncode != 0:
            raise SystemExit(f"run.py: importing {module} failed:\n{proc.stderr}")
        walls.append(wall)
        cals.append(calibrate())
    scaled = [w * speed_scale(cals[k:k + 2]) for k, w in enumerate(walls)]
    return walls[1:], scaled[1:]


def import_split() -> dict[str, float]:
    """Median interpreter, click and thcr shares of ``import thcr.cli``, from -X importtime."""
    samples = {"interpreter": [], "click": [], "thcr": []}
    for _ in range(IMPORTTIME_SAMPLES):
        wall, proc = timed_child([sys.executable, "-X", "importtime", "-c", "import thcr.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        click = cumulative.get("click", 0.0)
        thcr = cumulative.get("thcr", 0.0) + cumulative.get("thcr.cli", 0.0) - click
        samples["click"].append(click)
        samples["thcr"].append(thcr)
        samples["interpreter"].append(wall - click - thcr)
    return {k: statistics.median(v) for k, v in samples.items()}


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timing_figures(lat_ns, ok: int) -> tuple[float, float, float]:
    """Correct operations per second of operation time, median and p90 latency in ms."""
    ms = [x / 1e6 for x in lat_ns]
    return ok / (sum(ms) / 1e3), statistics.median(ms), percentile(ms, 90)


def end_to_end(phase: Phase, bad: dict, setup: tuple, rss: float, in_process: bool):
    """Rows of (metric, value at reference speed, value as measured, unit, note)."""
    n = len(phase.index)
    ok = n - len(bad)
    scaled = timing_figures(phase.scaled_ns, ok)
    raw = timing_figures(phase.lat_ns, ok)
    beyond = sum(x / 1e6 > scaled[2] for x in phase.scaled_ns)
    return [
        ("throughput_ops_s", scaled[0], raw[0], "1/s", f"{ok} correct of n={n}"),
        ("latency_p50_ms", scaled[1], raw[1], "ms", f"n={n}"),
        ("latency_p90_ms", scaled[2], raw[2], "ms", f"n={n}, {beyond} beyond"),
        ("failed_frac", len(bad) / n, len(bad) / n, "ratio", f"{len(bad)} failed of n={n}"),
        ("setup_s", statistics.median(setup[1]), statistics.median(setup[0]), "s",
         f"median of n={len(setup[0])} fresh interpreters"),
        ("peak_rss_mib", rss, rss, "MiB", "n=1" if in_process else f"max of n={n} children"),
    ]


def traced_metrics(runner: Runner, seconds: float):
    """Untraced and traced passes over the same operations; per-module figures from spans."""
    import spans

    workload = runner.workload
    tracer = spans.Tracer()
    targets = trace_targets() if workload.in_process else []
    untraced, traced = runner.timed_pairs(seconds / 2, tracer, targets)
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload.name}-{runner.seed}.bin"
    tracer.write(span_path)
    del tracer
    sf = spans.read_spans(span_path)
    groups = {"ring": ("ring.",), "intlinalg": ("intlinalg.",), "dynamics": ("dynamics.",),
              "cohomology": ("cohomology.",), "dominant": workload.dominant}
    stats, busy = spans.summarize(sf, groups)
    empty = spans.NameStats()

    def st(name):
        return stats.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("ring.generator_degrees", "ring.decompose_fast", "ring.twisted_product",
                 "ring.growth_class", "intlinalg.spectral_radius_interval",
                 "intlinalg.char_poly", "intlinalg.is_quasi_unipotent", "intlinalg.det",
                 "intlinalg.count_real_roots_above", "dynamics.classify_ampleness",
                 "dynamics.non_left_ample_witness", "cohomology.right_vanishing_scan",
                 "cohomology.left_vanishing_scan"):
        m[f"{name}.calls"] = (st(name).calls, "count")
        m[f"{name}.busy_s"] = (st(name).busy_ns / 1e9, "s")
    for name in ("intlinalg.spectral_radius_interval", "intlinalg.is_quasi_unipotent",
                 "dynamics.classify_ampleness", "dynamics.non_left_ample_witness"):
        m[f"{name}.self_s"] = (st(name).self_ns / 1e9, "s")
    examined = spans.count_children(sf, "ring.decompose_fast", "ring.generator_degrees")
    found = spans.count_children(sf, "ring.decompose_fast", "ring.generator_degrees", flag=0)
    gens_busy = st("ring.generator_degrees").busy_ns / 1e9
    m["ring.monomials_examined"] = (examined, "count")
    m["ring.monomials_per_s"] = (ratio(examined, gens_busy), "1/s")
    m["ring.generators_found_ratio"] = (ratio(found, examined), "ratio")
    dec = st("ring.decompose_fast")
    m["ring.decompose_fast.split_ratio"] = (ratio(dec.flag_sum, dec.calls), "ratio")
    m["ring.exponent_bits_max"] = (max(dec.size_max, st("ring.twisted_product").size_max), "bits")
    m["intlinalg.radius_denominator_bits_max"] = (
        st("intlinalg.spectral_radius_interval").size_max, "bits")
    m["intlinalg.charpoly_coeff_bits_max"] = (st("intlinalg.char_poly").size_max, "bits")
    wit = st("dynamics.non_left_ample_witness")
    m["dynamics.witness_found_ratio"] = (ratio(wit.flag_sum, wit.calls), "ratio")
    m["dynamics.orbit_bits_max"] = (st("dynamics.orbit_pairings").size_max, "bits")
    m["cohomology.rows"] = (st("cohomology.right_vanishing_scan").size_sum
                            + st("cohomology.left_vanishing_scan").size_sum, "count")
    split = import_split()
    m["cli.interpreter_s"] = (split["interpreter"], "s")
    m["cli.import_click_s"] = (split["click"], "s")
    m["cli.import_thcr_s"] = (split["thcr"], "s")
    for sub in ("dims", "gens", "ampleness", "cohomology", "growth"):
        walls = spans.durations(sf, f"op.cli.{sub}")
        m[f"cli.{sub}.wall_s"] = (statistics.median(walls) / 1e9 if walls else 0.0, "s")
    cli_digests = list(runner.ref.values()) if not workload.in_process else []
    m["cli.report_bytes"] = (statistics.median(len(d[1].encode()) for d in cli_digests)
                             if cli_digests else 0, "B")
    m["cli.exit_nonzero"] = (sum(1 for d in cli_digests if d[0] != 0), "count")
    op_s = sum(traced.lat_ns) / 1e9
    for label in ("ring", "intlinalg", "dynamics", "cohomology"):
        m[f"{label}.busy_share"] = (busy[label] / 1e9 / op_s, "ratio")
    m["trace.dominant_busy_share"] = (busy["dominant"] / 1e9 / op_s, "ratio")
    m["trace.op_s"] = (op_s, "s")
    m["trace.untraced_op_s"] = (sum(untraced.lat_ns) / 1e9, "s")
    m["trace.overhead_frac"] = (sum(traced.scaled_ns) / sum(untraced.scaled_ns) - 1, "ratio")
    m["trace.spans"] = (sf.count, "count")
    return untraced, traced, m


def trace_targets():
    from thcr import cohomology, dynamics, intlinalg, ring

    def bits(values):
        return max((abs(v).bit_length() for v in values), default=0)

    return [
        (ring, "generator_degrees", None),
        (ring, "decompose_fast", lambda a, r: (int(r is not None), bits(a[1].exps))),
        (ring, "twisted_product", lambda a, r: (0, bits(r.exps))),
        (ring, "growth_class", None),
        (intlinalg, "spectral_radius_interval",
         lambda a, r: (0, max(r.lo.denominator.bit_length(), r.hi.denominator.bit_length()))),
        (intlinalg, "char_poly", lambda a, r: (0, bits(r.coeffs))),
        (intlinalg, "is_quasi_unipotent", None),
        (intlinalg, "det", None),
        (intlinalg, "count_real_roots_above", None),
        (dynamics, "classify_ampleness", None),
        (dynamics, "non_left_ample_witness", lambda a, r: (1, r.multiplier.bit_length())),
        (dynamics, "orbit_pairings", lambda a, r: (0, bits(r))),
        (cohomology, "right_vanishing_scan", lambda a, r: (0, len(r.rows))),
        (cohomology, "left_vanishing_scan", lambda a, r: (0, len(r.rows))),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "runs.jsonl",
                        help="JSON-lines file the run record is appended to")
    args = parser.parse_args(argv)

    load_thcr()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload, str(ROOT), child_env())
    ops = workload.corpus(args.seed)
    runner = Runner(workload, ops, args.seed)
    runner.warm_up()

    measured_metrics = {}
    if args.trace:
        untraced, traced, layer = traced_metrics(runner, args.seconds)
        phases = [untraced, traced]
    else:
        phase = runner.timed(args.seconds)
        phases = [phase]
        rss = peak_rss_mib(children=not workload.in_process)
        setup = setup_seconds(workload.setup_import)

    oracle = runner.oracle_failures()
    bad = [failed_executions(p, oracle) for p in phases]
    probes, wrong = workload.probe_defects(args.seed)
    attempted = sum(len(p.index) for p in phases)
    failed = sum(len(b) for b in bad)

    print(f"workload {workload.name}  seed {args.seed}  corpus {len(ops)} ops  "
          f"passes {'+'.join(str(p.passes) for p in phases)}  "
          f"timed {' + '.join(f'{p.wall_s:.2f}' for p in phases)} s  trace {args.trace}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        metrics["dynamics.noncone_probes"] = {"value": probes, "unit": "count"}
        metrics["dynamics.noncone_wrong_frac"] = {"value": wrong / probes if probes else 0.0,
                                                  "unit": "ratio"}
        for k, v in metrics.items():
            print(f"  {k:46s} {v['value']:>16.6g} {v['unit']}")
    else:
        table = end_to_end(phase, bad[0], setup, rss, workload.in_process)
        cal = statistics.mean(phase.cal_s)
        print(f"  times at reference speed: calibration {cal * 1e3:.3f} ms measured, "
              f"{CAL_REF_S * 1e3:.3f} ms reference (n={len(phase.cal_s)})")
        print(f"  {'metric':18s} {'value':>14s} {'measured':>14s} unit   samples")
        for name, value, measured, unit, note in table:
            print(f"  {name:18s} {value:14.6g} {measured:14.6g} {unit:6s} {note}")
        metrics = {name: {"value": value, "unit": unit} for name, value, _, unit, _ in table
                   if name != "failed_frac"}
        measured_metrics = {name: measured for name, _, measured, _, _ in table}
    if probes:
        print(f"  known defect: the spectral radius of {wrong} of {probes} actions that do not "
              f"preserve their curve cone is wrong (ROADMAP aim 3)")
    reasons = sorted({r for b in bad for r in b.values()})
    for reason in reasons[:10]:
        print(f"  FAILED: {reason}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_s": sum(p.wall_s for p in phases),
        "ops": attempted, "corpus": len(ops), "passes": [p.passes for p in phases],
        "nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit(),
        "calibration_s": statistics.mean(c for p in phases for c in p.cal_s),
        "measured": measured_metrics, "result": result,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
