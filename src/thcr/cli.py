"""Command-line lab: dimension tables, generator counts, ampleness verdicts,
vanishing scans, and growth classification, as reproducible JSON/CSV reports.

The front end is the standard library's ``argparse``, so a call imports
nothing outside Python and thcr.  ``main(argv)`` parses one subcommand,
runs it and returns the exit code: 0 success, 2 invalid configuration,
3 enumeration budget exhausted.  An invalid configuration prints the
subcommand's usage line and ``thcr <cmd>: error: <message>`` on stderr.
The environment variable TWISTED_BUDGET overrides --budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, citations
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

# The annotations are strings (PEP 563); the name is for type checkers only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .intlinalg import RationalInterval

# Each subcommand imports the modules it runs inside its runner, so a cold
# `thcr dims` never loads intlinalg, dynamics or cohomology.  ring stays
# here because DEFAULT_BUDGET is part of the --budget help text.

_CITATION_IDS = frozenset(
    value for name, value in vars(citations).items() if name.isupper()
)


class UsageError(Exception):
    """An invalid configuration; ``main`` reports it as a usage error and exits 2."""


def _key(dest: str) -> str:
    """An option's report key: its argparse dest in camelCase (max_n -> maxN)."""
    head, *rest = dest.split("_")
    return head + "".join(word.title() for word in rest)


def resolve_budget(flag_value: int | None) -> int:
    env = os.environ.get("TWISTED_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"TWISTED_BUDGET is not an integer: {env!r}")
    elif flag_value is not None:
        budget = flag_value
    else:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")
    return budget


def _interval_json(interval: RationalInterval | None) -> dict | None:
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
    return {"rows": rows}, [], (("n", "twist_degree", "dim"), csv_rows)


def _run_gens(config: argparse.Namespace) -> tuple:
    spec = PowerRingSpec(dim=config.m, power=config.power)
    max_n = config.max_n
    budget = resolve_budget(config.budget)
    counts = generator_degrees(spec, max_n, budget=budget)
    generated = all(counts[n] == 0 for n in range(2, max_n + 1))
    cites = []
    if generated:
        cites.append(citations.GENERATED_IN_DEGREE_ONE)
    else:
        cites.append(citations.NEW_GENERATORS_EVERY_DEGREE)
    results = {
        "counts": {str(n): counts[n] for n in sorted(counts)},
        "generatedInDegreeOne": generated,
        "window": max_n,
        "budget": budget,
    }
    csv_table = (("n", "new_generators"), [(n, counts[n]) for n in sorted(counts)])
    return results, cites, csv_table


def _run_growth(config: argparse.Namespace) -> tuple:
    spec = PowerRingSpec(dim=config.m, power=config.power)
    dims = [grade_dimension(spec, n) for n in range(config.max_n + 1)]
    verdict = growth_class(dims)
    exponential = verdict is GrowthClass.EXPONENTIAL
    cites = [citations.EXPONENTIAL_GROWTH_NOT_NOETHERIAN] if exponential else []
    results = {
        "dims": dims,
        "growthClass": verdict.value,
        "noetherian": False if exponential else None,
    }
    return results, cites, (("n", "dim"), list(enumerate(dims)))


def _run_cohomology(config: argparse.Namespace) -> tuple:
    from .cohomology import left_vanishing_scan, right_vanishing_scan

    spec = PowerRingSpec(dim=config.m, power=config.power)
    right = right_vanishing_scan(spec, config.t, config.max_n)
    left = left_vanishing_scan(spec, config.t, config.max_n)
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
    return results, cites, csv_table


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
    from .dynamics import (
        DivisorClass,
        NumericalActionSpec,
        classify_ampleness,
        degree_consistency,
    )

    in_doc = isinstance(config.matrix, dict)
    doc = dict(config.matrix) if in_doc else {"P": config.matrix}
    # flags override document fields
    for name in ("curves", "dim_x", "deg_sigma", "ample_flag"):
        if (value := getattr(config, name)) is not None:
            doc[_key(name)] = value
    if doc.get("curves") is None:
        raise UsageError("--curves is required (or supply them in the spec file)")
    if "P" in doc:
        _require_rows(doc["P"], '"P" in the --matrix document' if in_doc else "--matrix")
    _require_rows(doc["curves"], "--curves" if config.curves is not None
                  else '"curves" in the --matrix document')
    if not _is_int_list(config.divisor):
        raise UsageError("--divisor must be a JSON list of integers")
    try:
        spec = NumericalActionSpec.from_json_dict(doc)
        divisor = DivisorClass(tuple(config.divisor))
        report = classify_ampleness(spec, divisor)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))
    degree_ok = (degree_consistency(spec, divisor)
                 if spec.deg_sigma is not None and spec.rank == 1 else None)
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
    return results, _collect_citations(report.reasons), None


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
    try:
        results, cites, csv_table = _RUNNERS[config.command](config)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        partial = {str(n): exc.partial[n] for n in sorted(exc.partial)}
        print(f"partial counts: {json.dumps(partial)}", file=sys.stderr)
        return 3
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
    return 0


# the boolean spellings --ample-flag accepted when this CLI was built on click
_BOOLEANS = {
    **dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
    **dict.fromkeys(("0", "false", "f", "no", "n", "off", ""), False),
}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        spellings = ", ".join(repr(k) for k in _BOOLEANS)
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a valid boolean; use one of {spellings}"
        ) from None


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
                     help=f"Monomials allowed per grade (default {DEFAULT_BUDGET}).")
    sub = command("ampleness",
                  "Classify left/right ampleness of the twist sequence for an action.",
                  ring=False)
    sub.add_argument("--matrix", required=True,
                     help="Action matrix as inline JSON rows, or a path to a spec file.")
    sub.add_argument("--divisor", required=True, help="Divisor coordinates, JSON.")
    sub.add_argument("--curves", default=None, help="Curve functionals, JSON list of lists.")
    sub.add_argument("--dimX", dest="dim_x", type=int, default=None,
                     help="Dimension of the space.")
    sub.add_argument("--deg-sigma", type=int, default=None,
                     help="Degree of the endomorphism.")
    sub.add_argument(
        "--ample-flag", type=_boolean, default=None, metavar="BOOLEAN",
        help="Assert the twist sequence is eventually ample (root-of-unity case).",
    )
    sub = command("cohomology", "Run the right/left vanishing scans for a twist degree.")
    sub.add_argument("--t", type=int, required=True, help="Twisting degree to scan.")
    sub.add_argument("--max-n", type=int, default=12, help="Scan window end.")
    sub = command("growth", "Classify the growth of the graded dimensions.")
    sub.add_argument("--max-n", type=int, default=10, help="Largest grade in the window.")

    for sub in commands.values():
        sub.add_argument("--format", choices=["json", "csv"], default="json",
                         help="Report format; JSON is canonical, CSV covers tables.")
        sub.add_argument("--out", default=None, help="Write the report here.")
        sub.add_argument("--seed", type=int, default=0, help="Sampling seed (echoed).")
    return parser, commands


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; usage errors exit 2."""
    parser, commands = _parser()
    args, extra = parser.parse_known_args(argv)
    usage = commands[args.command]
    if extra:
        usage.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "ampleness":
            args.matrix = _parse_json_argument(args.matrix, "--matrix")
            args.divisor = _parse_json_argument(args.divisor, "--divisor")
            args.curves = (_parse_json_argument(args.curves, "--curves")
                           if args.curves else None)
        return _execute(args)
    except UsageError as exc:
        usage.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
