"""Byte-identical report corpus: the behavioural contract for refactors.

Each case runs one configuration through the CLI and compares the report
with the file stored under ``tests/data/reports``.  A deliberate change to
report bytes regenerates the corpus in the same change:

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import json
from pathlib import Path

import pytest
from cli_helper import invoke

REPORTS = Path(__file__).parent / "data" / "reports"

AMPLENESS = {
    "scalar-2": ([[2]], [1], [[1]]),
    "irrational-radius": ([[2, 1], [1, 1]], [1, 1], [[1, 0], [0, 1]]),
    "rational-roots": ([[2, 0], [0, 3]], [1, 1], [[1, 0], [0, 1]]),
    "quasi-unipotent": ([[0, -1], [1, 0]], [1, 1], [[1, 0], [0, 1]]),
    "scalar-minus-2": ([[-2]], [1], [[1]]),
    "no-real-eigenvalue": ([[0, -2], [1, 0]], [1, 1], [[1, 0], [0, 1]]),
    "rank-6-8bit": (
        [
            [-87, 120, 5, -110, -128, -54],
            [112, 63, 35, -117, 11, 122],
            [-27, 83, -80, -30, 7, -83],
            [89, 43, -81, 57, 81, 0],
            [99, -80, -28, 21, -79, -105],
            [-26, 56, 121, -29, -114, 57],
        ],
        [1, 0, 0, 0, 0, 0],
        [[1 if i == j else 0 for j in range(6)] for i in range(6)],
    ),
}


def _cases():
    cases = {}
    for p, m in ((2, 1), (2, 2), (3, 1)):
        for command, extra in (("dims", []), ("gens", []), ("growth", []),
                               ("cohomology", ["--t", "-3"])):
            for fmt in ("json", "csv"):
                args = [command, "--p", str(p), "--m", str(m), *extra, "--format", fmt]
                cases[f"{command}-p{p}-m{m}.{fmt}"] = args
    for label, (matrix, divisor, curves) in AMPLENESS.items():
        cases[f"ampleness-{label}.json"] = [
            "ampleness", "--matrix", json.dumps(matrix),
            "--divisor", json.dumps(divisor), "--curves", json.dumps(curves),
        ]
    return cases


CASES = _cases()


def _render(args) -> bytes:
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result.stdout.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name):
    assert _render(CASES[name]) == (REPORTS / name).read_bytes()


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        (REPORTS / name).write_bytes(_render(args))
