"""Command-line lab: dimension tables, generator counts, ampleness verdicts,
vanishing scans, and growth classification, as reproducible JSON/CSV reports.

Each subcommand calls one library function (``cohomology`` its two scans)
and renders the record it returns: values, verdict and citation ids all
come from the library, and this module only lays them out.

The front end is the standard library's ``argparse``, so a call imports
nothing outside Python and thcr.  ``main(argv)`` parses one subcommand,
runs it and returns the exit code: 0 success, 2 invalid configuration,
3 enumeration budget exhausted.  An invalid configuration prints the
subcommand's usage line and ``thcr <cmd>: error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .ring import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PowerRingSpec,
    generation_report,
    grade_dimension,
    growth_report,
    twist_degree,
)

# The annotations are strings (PEP 563); the name is for type checkers only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .intlinalg import RationalInterval
    from .ring import GenerationReport

# Each subcommand imports the modules it runs inside its runner, so a cold
# `thcr dims` never loads intlinalg, dynamics or cohomology.  ring stays
# here because DEFAULT_BUDGET is part of the --budget help text.


class UsageError(Exception):
    """An invalid configuration; ``main`` reports it as a usage error and exits 2."""


def _key(dest: str) -> str:
    """An option's report key: its argparse dest in camelCase (max_n -> maxN)."""
    head, *rest = dest.split("_")
    return head + "".join(word.title() for word in rest)


def _interval_json(interval: RationalInterval) -> dict:
    return {
        "lo": str(interval.lo),
        "hi": str(interval.hi),
        "loFloat": float(interval.lo),
        "hiFloat": float(interval.hi),
    }


def _by_grade(rows, first: int) -> dict:
    """``rows`` as a JSON object keyed by grade, the first row in grade ``first``."""
    return {str(n): row for n, row in enumerate(rows, first)}


def _run_dims(config: argparse.Namespace) -> tuple:
    spec = PowerRingSpec(dim=config.m, power=config.power)
    max_n = config.max_n
    if max_n < 0:
        raise UsageError("--max-n must be >= 0")
    rows = [
        {"n": n, "twistDegree": twist_degree(spec, n), "dim": grade_dimension(spec, n)}
        for n in range(max_n + 1)
    ]
    csv_rows = [(r["n"], r["twistDegree"], r["dim"]) for r in rows]
    return {"rows": rows}, (), (("n", "twist_degree", "dim"), csv_rows)


def _run_gens(config: argparse.Namespace) -> tuple:
    spec = PowerRingSpec(dim=config.m, power=config.power)
    budget = DEFAULT_BUDGET if config.budget is None else config.budget
    return _gens_output(generation_report(spec, config.max_n, budget=budget), budget)


def _gens_output(report: GenerationReport, budget: int) -> tuple:
    """``gens``' (results, citations, csv_table) for a ``GenerationReport``;
    after a budget stop its counts stop before the grade that exceeded it."""
    results = {
        "counts": _by_grade(report.counts, 1),
        "generatedInDegreeOne": report.generated_in_degree_one,
        "witnesses": _by_grade(report.witnesses, 2),
        "budget": budget,
    }
    csv_rows = list(enumerate(report.counts, 1))
    return results, report.citations, (("n", "new_generators"), csv_rows)


def _run_growth(config: argparse.Namespace) -> tuple:
    report = growth_report(PowerRingSpec(dim=config.m, power=config.power), config.max_n)
    results = {"dims": report.dims, "growthClass": report.growth_class.value,
               "noetherian": report.noetherian,
               "rightChain": _by_grade(report.right_chain, 1),
               "leftChain": _by_grade(report.left_chain, 1)}
    return results, report.citations, (("n", "dim"), list(enumerate(report.dims)))


def _run_cohomology(config: argparse.Namespace) -> tuple:
    from .cohomology import left_vanishing_scan, right_vanishing_scan

    spec = PowerRingSpec(dim=config.m, power=config.power)
    right = right_vanishing_scan(spec, config.t, config.max_n)
    left = left_vanishing_scan(spec, config.t, config.max_n)
    table = [
        {"side": side, "n": row.n, "degree": row.degree, "q": row.q, "h": row.value}
        for side, scan in (("right", right), ("left", left))
        for row in scan.rows
    ]
    results = {
        "rightScan": {"stabilizedAt": right.stabilized_at},
        "leftScan": {
            "nonVanishing": left.nonvanishing,
            "nonVanishingFrom": left.nonvanishing_from,
        },
        "table": table,
    }
    # a ScanRow is the tuple (n, degree, q, value)
    csv_table = (("n", "degree", "q", "h"), right.rows + left.rows)
    return results, right.citations + left.citations, csv_table


def _parse_json_argument(text: str, what: str):
    raw = text.strip()
    if raw.startswith("[") or raw.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON for {what}: {exc}")
    try:
        with open(raw, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} from {raw!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {raw!r}: {exc}")


def _is_int_list(value) -> bool:
    """A list of plain ints; JSON floats, strings, null, nested lists and bools fail."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def _require_rows(value, what: str) -> None:
    if not (isinstance(value, list) and all(_is_int_list(row) for row in value)):
        raise UsageError(f"{what} must be a JSON list of lists of integers")


def _run_ampleness(config: argparse.Namespace) -> tuple:
    from .dynamics import DivisorClass, NumericalActionSpec, classify_ampleness

    _require_rows(config.matrix, "--matrix")
    _require_rows(config.curves, "--curves")
    if not _is_int_list(config.divisor):
        raise UsageError("--divisor must be a JSON list of integers")
    spec = NumericalActionSpec(config.matrix, config.curves)
    report = classify_ampleness(spec, DivisorClass(tuple(config.divisor)))
    results = {
        "left": report.left.value,
        "right": report.right.value,
        "spectralRadius": _interval_json(report.spectral_radius),
        "quasiUnipotent": report.quasi_unipotent,
        "ampleEigenvector": (
            list(report.ample_eigenvector.coords) if report.ample_eigenvector else None
        ),
        "reasons": list(report.reasons),
    }
    return results, report.citations, None


# Each runner returns (results, citations, csv_table), csv_table None where
# the report has no CSV form; _execute wraps them in the report envelope.
_RUNNERS = {
    "dims": _run_dims,
    "gens": _run_gens,
    "ampleness": _run_ampleness,
    "cohomology": _run_cohomology,
    "growth": _run_growth,
}


def _echo_inputs(config: argparse.Namespace) -> dict:
    """The parsed options a report echoes; a subcommand's namespace holds only its own."""
    return {_key(k): v for k, v in vars(config).items()
            if k not in ("command", "out") and v is not None}


def _emit(text: str, config: argparse.Namespace) -> None:
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write the report to {config.out!r}: {exc}")
    else:
        sys.stdout.write(text)


def _execute(config: argparse.Namespace) -> int:
    code = 0
    try:
        results, cites, csv_table = _RUNNERS[config.command](config)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        partial = {str(n): exc.partial[n] for n in sorted(exc.partial)}
        print(f"partial counts: {json.dumps(partial)}", file=sys.stderr)
        results, cites, csv_table = _gens_output(exc.report, exc.budget)
        code = 3
    except ValueError as exc:
        raise UsageError(str(exc))
    if config.format == "json":
        doc = {
            "command": config.command,
            "inputs": _echo_inputs(config),
            "results": results,
            "citations": cites,
            "version": __version__,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif csv_table is None:
        raise UsageError(f"command {config.command!r} has no CSV form; use json")
    else:
        header, data = csv_table
        text = "".join(",".join(map(str, row)) + "\n" for row in (header, *data))
    _emit(text, config)
    return code


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="thcr", allow_abbrev=False,
        description="Exact computations with twisted coordinate rings of power endomorphisms.",
    )
    parser.add_argument("--version", action="version",
                        version=f"thcr, version {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {}

    def command(name, summary, ring=True):
        sub = subparsers.add_parser(name, help=summary, description=summary,
                                    allow_abbrev=False)
        if ring:
            sub.add_argument("--p", "--r", dest="power", type=int, required=True,
                             help="Power of the coordinate endomorphism x_i -> x_i**r.")
            sub.add_argument("--m", type=int, required=True,
                             help="Dimension of the ambient projective space.")
        commands[name] = sub
        return sub

    sub = command("dims", "Tabulate twist degrees and graded dimensions.")
    sub.add_argument("--max-n", type=int, default=8, help="Largest grade to tabulate.")
    sub = command("gens", "Count monomials in each grade that lower grades cannot generate.")
    sub.add_argument("--max-n", type=int, default=4, help="Largest grade to inspect.")
    sub.add_argument("--budget", type=int, default=None,
                     help=f"Monomials allowed per walked grade; only m >= 2 walks, "
                          f"from grade 2 (default {DEFAULT_BUDGET}).")
    sub = command("ampleness",
                  "Classify left/right ampleness of the twist sequence for an action.",
                  ring=False)
    sub.add_argument("--matrix", required=True,
                     help="Action matrix: JSON rows, inline or in a file.")
    sub.add_argument("--divisor", required=True,
                     help="Divisor coordinates: a JSON list, inline or in a file.")
    sub.add_argument("--curves", required=True,
                     help="Curve functionals: JSON rows, inline or in a file.")
    sub = command("cohomology", "Run the right/left vanishing scans for a twist degree.")
    sub.add_argument("--t", type=int, required=True, help="Twisting degree to scan.")
    sub.add_argument("--max-n", type=int, default=12, help="Scan window end.")
    sub = command("growth", "Classify the growth of the graded dimensions.")
    sub.add_argument("--max-n", type=int, default=10, help="Largest grade in the window.")

    for sub in commands.values():
        sub.add_argument("--format", choices=["json", "csv"], default="json",
                         help="Report format; JSON is canonical, CSV covers tables.")
        sub.add_argument("--out", default=None, help="Write the report here.")
    return parser, commands


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; usage errors exit 2."""
    # reports hold exact integers of any length: lift Python's 4300-digit
    # cap on int/str conversion (3.10.7 on), or a long window is a traceback
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser, commands = _parser()
    args, extra = parser.parse_known_args(argv)
    usage = commands[args.command]
    if extra:
        usage.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "ampleness":
            for name in ("matrix", "divisor", "curves"):
                setattr(args, name, _parse_json_argument(getattr(args, name), f"--{name}"))
        return _execute(args)
    except UsageError as exc:
        usage.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
