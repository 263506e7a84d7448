"""Command-line lab: dimension tables, generator counts, ampleness verdicts,
vanishing scans, and growth classification, as reproducible JSON/CSV reports.

Exit codes: 0 success, 2 invalid configuration, 3 enumeration budget
exhausted.  The environment variable TWISTED_BUDGET overrides --budget.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Optional

import click

from . import __version__, citations
from .cohomology import left_vanishing_scan, right_vanishing_scan
from .dynamics import (
    DivisorClass,
    NumericalActionSpec,
    UnsupportedActionError,
    classify_ampleness,
    degree_consistency,
)
from .intlinalg import RationalInterval, exact_int
from .ring import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GrowthClass,
    PowerRingSpec,
    generator_degrees,
    grade_dimension,
    growth_class,
    twist_degree,
)

_CITATION_IDS = frozenset(
    value for name, value in vars(citations).items() if name.isupper()
)


@dataclasses.dataclass
class RunConfig:
    command: str
    power: Optional[int] = None
    m: Optional[int] = None
    max_n: Optional[int] = None
    matrix: Optional[object] = None
    divisor: Optional[list] = None
    curves: Optional[list] = None
    dim_x: Optional[int] = None
    deg_sigma: Optional[int] = None
    ample_flag: Optional[bool] = None
    t: Optional[int] = None
    fmt: str = "json"
    out: Optional[str] = None
    seed: int = 0
    budget: Optional[int] = None


@dataclasses.dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    citations: list[str]
    version: str
    csv_table: Optional[tuple] = None

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "citations": self.citations,
            "version": self.version,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        if self.csv_table is None:
            raise ValueError(f"command {self.command!r} has no CSV form; use json")
        header, data = self.csv_table
        lines = [",".join(header)]
        lines.extend(",".join(str(x) for x in row) for row in data)
        return "\n".join(lines) + "\n"


def resolve_budget(flag_value: Optional[int]) -> int:
    env = os.environ.get("TWISTED_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise click.UsageError(f"TWISTED_BUDGET is not an integer: {env!r}")
    elif flag_value is not None:
        budget = flag_value
    else:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise click.UsageError(f"budget must be >= 1, got {budget}")
    return budget


def _interval_json(interval: Optional[RationalInterval]) -> Optional[dict]:
    if interval is None:
        return None
    return {
        "lo": str(interval.lo),
        "hi": str(interval.hi),
        "loFloat": float(interval.lo),
        "hiFloat": float(interval.hi),
    }


def _collect_citations(reasons) -> list[str]:
    return sorted(set(reasons) & _CITATION_IDS)


def _ring_spec(config: RunConfig) -> PowerRingSpec:
    if config.power is None or config.m is None:
        raise click.UsageError("--p/--r and --m are required")
    try:
        return PowerRingSpec(dim=config.m, power=config.power)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _run_dims(config: RunConfig) -> Report:
    spec = _ring_spec(config)
    max_n = config.max_n if config.max_n is not None else 8
    if max_n < 0:
        raise click.UsageError("--max-n must be >= 0")
    rows = [
        {"n": n, "twistDegree": twist_degree(spec, n), "dim": grade_dimension(spec, n)}
        for n in range(max_n + 1)
    ]
    results = {"rows": rows}
    csv_table = (
        ("n", "twist_degree", "dim"),
        [(r["n"], r["twistDegree"], r["dim"]) for r in rows],
    )
    return Report("dims", _echo_inputs(config), results, [], __version__, csv_table)


def _run_gens(config: RunConfig) -> Report:
    spec = _ring_spec(config)
    max_n = config.max_n if config.max_n is not None else 4
    budget = resolve_budget(config.budget)
    counts = generator_degrees(spec, max_n, budget=budget)
    generated = all(counts[n] == 0 for n in range(2, max_n + 1))
    cites = []
    if generated:
        cites.append(citations.GENERATED_IN_DEGREE_ONE)
    if any(counts[n] > 0 for n in range(2, max_n + 1)):
        cites.append(citations.NEW_GENERATORS_EVERY_DEGREE)
    results = {
        "counts": {str(n): counts[n] for n in sorted(counts)},
        "generatedInDegreeOne": generated,
        "window": max_n,
        "budget": budget,
    }
    csv_table = (("n", "new_generators"), [(n, counts[n]) for n in sorted(counts)])
    return Report("gens", _echo_inputs(config), results, cites, __version__, csv_table)


def _run_growth(config: RunConfig) -> Report:
    spec = _ring_spec(config)
    max_n = config.max_n if config.max_n is not None else 10
    dims = [grade_dimension(spec, n) for n in range(max_n + 1)]
    verdict = growth_class(dims)
    exponential = verdict is GrowthClass.EXPONENTIAL
    cites = [citations.EXPONENTIAL_GROWTH_NOT_NOETHERIAN] if exponential else []
    results = {
        "dims": dims,
        "growthClass": verdict.value,
        "noetherian": False if exponential else None,
    }
    csv_table = (("n", "dim"), list(enumerate(dims)))
    return Report("growth", _echo_inputs(config), results, cites, __version__, csv_table)


def _run_cohomology(config: RunConfig) -> Report:
    spec = _ring_spec(config)
    if config.t is None:
        raise click.UsageError("--t is required for cohomology scans")
    max_n = config.max_n if config.max_n is not None else 12
    try:
        right = right_vanishing_scan(spec, config.t, max_n)
        left = left_vanishing_scan(spec, config.t, max_n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    cites = []
    if right.stabilized_at is not None:
        cites.append(citations.EVENTUAL_VANISHING)
    if left.nonvanishing:
        cites.append(citations.PERSISTENT_TOP_COHOMOLOGY)
    table = [
        {"side": side, "n": row.n, "degree": row.degree, "q": row.q, "h": row.value}
        for side, scan in (("right", right), ("left", left))
        for row in scan.rows
    ]
    results = {
        "rightScan": {"stabilizedAt": right.stabilized_at, "maxN": right.max_n},
        "leftScan": {
            "nonVanishing": left.nonvanishing,
            "nonVanishingFrom": left.nonvanishing_from,
            "maxN": left.max_n,
        },
        "table": table,
    }
    csv_table = (
        ("n", "degree", "q", "h"),
        [(r["n"], r["degree"], r["q"], r["h"]) for r in table],
    )
    return Report(
        "cohomology", _echo_inputs(config), results, cites, __version__, csv_table
    )


def _parse_json_argument(text: str, what: str):
    raw = text.strip()
    if raw.startswith("[") or raw.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"invalid JSON for {what}: {exc}")
    try:
        with open(raw, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise click.UsageError(f"cannot read {what} from {raw!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"invalid JSON in {raw!r}: {exc}")


def _run_ampleness(config: RunConfig) -> Report:
    if config.matrix is None:
        raise click.UsageError("--matrix is required (inline JSON or a file path)")
    doc = config.matrix if isinstance(config.matrix, dict) else {"P": config.matrix}
    doc = dict(doc)
    if config.curves is not None:
        doc["curves"] = config.curves
    if config.dim_x is not None:
        doc["dimX"] = config.dim_x
    if config.deg_sigma is not None:
        doc["degSigma"] = config.deg_sigma
    if config.ample_flag is not None:
        doc["ampleFlag"] = config.ample_flag
    doc.setdefault("curves", None)
    if doc["curves"] is None:
        raise click.UsageError("--curves is required (or supply them in the spec file)")
    if config.divisor is None:
        raise click.UsageError("--divisor is required")
    try:
        spec = NumericalActionSpec.from_json_dict(doc)
        divisor = DivisorClass(tuple(map(exact_int, config.divisor)))
        report = classify_ampleness(spec, divisor)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc))
    degree_ok = None
    if spec.deg_sigma is not None and spec.rank == 1:
        try:
            degree_ok = degree_consistency(spec, divisor)
        except (ValueError, UnsupportedActionError):
            degree_ok = None
    results = {
        "left": report.left.value,
        "right": report.right.value,
        "spectralRadius": _interval_json(report.spectral_radius),
        "quasiUnipotent": report.quasi_unipotent,
        "ampleEigenvector": (
            list(report.ample_eigenvector.coords) if report.ample_eigenvector else None
        ),
        "reasons": list(report.reasons),
        "degreeConsistent": degree_ok,
    }
    return Report(
        "ampleness",
        _echo_inputs(config),
        results,
        _collect_citations(report.reasons),
        __version__,
    )


_RUNNERS = {
    "dims": _run_dims,
    "gens": _run_gens,
    "ampleness": _run_ampleness,
    "cohomology": _run_cohomology,
    "growth": _run_growth,
}


def run(config: RunConfig) -> Report:
    """Dispatch a validated configuration to its command implementation."""
    try:
        runner = _RUNNERS[config.command]
    except KeyError:
        raise click.UsageError(f"unknown command {config.command!r}")
    return runner(config)


def _echo_inputs(config: RunConfig) -> dict:
    skip = {"command", "fmt", "out"}
    echo = {"format": config.fmt}
    for field in dataclasses.fields(config):
        if field.name in skip:
            continue
        value = getattr(config, field.name)
        if value is None:
            continue
        key = {
            "max_n": "maxN",
            "dim_x": "dimX",
            "deg_sigma": "degSigma",
            "ample_flag": "ampleFlag",
        }.get(field.name, field.name)
        echo[key] = value
    return echo


def _emit(report: Report, config: RunConfig) -> None:
    try:
        text = report.to_json() if config.fmt == "json" else report.to_csv()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _execute(config: RunConfig) -> None:
    try:
        report = run(config)
    except BudgetExceededError as exc:
        click.echo(f"budget exhausted: {exc}", err=True)
        partial = {str(n): exc.partial[n] for n in sorted(exc.partial)}
        click.echo(f"partial counts: {json.dumps(partial)}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(report, config)


def _output_options(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
        help="Report format; JSON is canonical, CSV covers tables.",
    )(fn)
    fn = click.option("--out", type=str, default=None, help="Write the report here.")(fn)
    fn = click.option("--seed", type=int, default=0, help="Sampling seed (echoed).")(fn)
    return fn


def _ring_options(fn):
    fn = click.option("--p", "--r", "power", type=int, required=True,
                      help="Power of the coordinate endomorphism x_i -> x_i**r.")(fn)
    fn = click.option("--m", "space_dim", type=int, required=True,
                      help="Dimension of the ambient projective space.")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="thcr")
def main():
    """Exact computations with twisted coordinate rings of power endomorphisms."""


@main.command()
@_ring_options
@click.option("--max-n", type=int, default=8, help="Largest grade to tabulate.")
@_output_options
def dims(power, space_dim, max_n, fmt, out, seed):
    """Tabulate twist degrees and graded dimensions."""
    _execute(RunConfig("dims", power=power, m=space_dim, max_n=max_n,
                       fmt=fmt, out=out, seed=seed))


@main.command()
@_ring_options
@click.option("--max-n", type=int, default=4, help="Largest grade to inspect.")
@click.option("--budget", type=int, default=None,
              help=f"Monomials allowed per grade (default {DEFAULT_BUDGET}).")
@_output_options
def gens(power, space_dim, max_n, budget, fmt, out, seed):
    """Count monomials in each grade that lower grades cannot generate."""
    _execute(RunConfig("gens", power=power, m=space_dim, max_n=max_n,
                       budget=budget, fmt=fmt, out=out, seed=seed))


@main.command()
@click.option("--matrix", type=str, required=True,
              help="Action matrix as inline JSON rows, or a path to a spec file.")
@click.option("--divisor", type=str, required=True, help="Divisor coordinates, JSON.")
@click.option("--curves", type=str, default=None,
              help="Curve functionals, JSON list of lists.")
@click.option("--dimX", "dim_x", type=int, default=None, help="Dimension of the space.")
@click.option("--deg-sigma", type=int, default=None, help="Degree of the endomorphism.")
@click.option("--ample-flag", type=bool, default=None,
              help="Assert the twist sequence is eventually ample (root-of-unity case).")
@_output_options
def ampleness(matrix, divisor, curves, dim_x, deg_sigma, ample_flag, fmt, out, seed):
    """Classify left/right ampleness of the twist sequence for an action."""
    matrix_doc = _parse_json_argument(matrix, "--matrix")
    divisor_doc = _parse_json_argument(divisor, "--divisor")
    curves_doc = _parse_json_argument(curves, "--curves") if curves else None
    _execute(RunConfig("ampleness", matrix=matrix_doc, divisor=divisor_doc,
                       curves=curves_doc, dim_x=dim_x, deg_sigma=deg_sigma,
                       ample_flag=ample_flag, fmt=fmt, out=out, seed=seed))


@main.command()
@_ring_options
@click.option("--t", type=int, required=True, help="Twisting degree to scan.")
@click.option("--max-n", type=int, default=12, help="Scan window end.")
@_output_options
def cohomology(power, space_dim, t, max_n, fmt, out, seed):
    """Run the right/left vanishing scans for a twist degree."""
    _execute(RunConfig("cohomology", power=power, m=space_dim, t=t, max_n=max_n,
                       fmt=fmt, out=out, seed=seed))


@main.command()
@_ring_options
@click.option("--max-n", type=int, default=10, help="Largest grade in the window.")
@_output_options
def growth(power, space_dim, max_n, fmt, out, seed):
    """Classify the growth of the graded dimensions."""
    _execute(RunConfig("growth", power=power, m=space_dim, max_n=max_n,
                       fmt=fmt, out=out, seed=seed))


if __name__ == "__main__":
    main()
