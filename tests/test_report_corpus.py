"""Byte-identical report corpus: the behavioural contract for refactors.

Each case runs one configuration as a user does, in a fresh
``python -S -m thcr.cli``, and compares the report with the file stored
under ``tests/data/reports``.  A deliberate change to report bytes
regenerates the corpus, through the same cold call, in the same change:

    PYTHONPATH=src python tests/test_report_corpus.py

In-process, each stored JSON report's citation ids are also rebuilt from
its ``inputs`` through the library record the CLI renders, so the library,
not the CLI, owns every cited id.
"""

import json
from pathlib import Path

import pytest
from cli_helper import fresh_python

from thcr import citations
from thcr.cohomology import left_vanishing_scan, right_vanishing_scan
from thcr.dynamics import DivisorClass, NumericalActionSpec, classify_ampleness
from thcr.ring import DEFAULT_BUDGET, PowerRingSpec, generation_report, growth_report

REPORTS = Path(__file__).parent / "data" / "reports"

AMPLENESS = {
    "scalar-2": ([[2]], [1], [[1]]),
    "irrational-radius": ([[2, 1], [1, 1]], [1, 1], [[1, 0], [0, 1]]),
    "rational-roots": ([[2, 0], [0, 3]], [1, 1], [[1, 0], [0, 1]]),
    "quasi-unipotent": ([[0, -1], [1, 0]], [1, 1], [[1, 0], [0, 1]]),
    # chi = (x**2 - 3x + 1)**2: an irrational double largest root, whose cell
    # lies on chi's grid rather than its squarefree part's
    "repeated-root": (
        [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
        [1, 1, 1, 1],
        [[1 if i == j else 0 for j in range(4)] for i in range(4)],
    ),
    # nonnegative, so it preserves the orthant that the unit curves cut out
    "rank-6-8bit": (
        [
            [87, 120, 5, 110, 128, 54],
            [112, 63, 35, 117, 11, 122],
            [27, 83, 80, 30, 7, 83],
            [89, 43, 81, 57, 81, 0],
            [99, 80, 28, 21, 79, 105],
            [26, 56, 121, 29, 114, 57],
        ],
        [1, 0, 0, 0, 0, 0],
        [[1 if i == j else 0 for j in range(6)] for i in range(6)],
    ),
    # the identity, with an ample eigenvector: right Yes, left Undetermined
    "identity-eigenvector": ([[1, 0], [0, 1]], [1, 1], [[1, 0], [0, 1]]),
    # curves cutting out the square pyramid |D1|, |D2| <= D3, a cone with 4
    # facets in rank 3, which the action (D2, D1, 2 D3) maps into itself
    "pyramid-cone": (
        [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
        [0, 0, 1],
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
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
    # m >= 3 pins the order of the zero middle rows and large top binomials
    for p, m, t, max_n, formats in ((2, 4, -3, 40, ("json", "csv")),
                                    (5, 8, -2, 30, ("json",))):
        for fmt in formats:
            cases[f"cohomology-p{p}-m{m}.{fmt}"] = [
                "cohomology", "--p", str(p), "--m", str(m), "--t", str(t),
                "--max-n", str(max_n), "--format", fmt,
            ]
    # P^1 with r = 5 has new generators in every grade, (r - 2)(r - 1)**(n - 2)
    for fmt in ("json", "csv"):
        cases[f"gens-p5-m1.{fmt}"] = [
            "gens", "--p", "5", "--m", "1", "--max-n", "8", "--format", fmt,
        ]
    # r = 1 is the polynomial ring, and a window of grade 1 alone still
    # states the all-grades verdict
    for command in ("gens", "growth"):
        for fmt in ("json", "csv"):
            cases[f"{command}-p1-m2.{fmt}"] = [command, "--p", "1", "--m", "2", "--format", fmt]
    cases["gens-p3-m2-n1.json"] = [
        "gens", "--p", "3", "--m", "2", "--max-n", "1", "--format", "json",
    ]
    for label, (matrix, divisor, curves) in AMPLENESS.items():
        cases[f"ampleness-{label}.json"] = [
            "ampleness", "--matrix", json.dumps(matrix),
            "--divisor", json.dumps(divisor), "--curves", json.dumps(curves),
        ]
    return cases


CASES = _cases()


def _render(args) -> bytes:
    # -S: no site-packages, so nothing outside the standard library to lean on
    proc = fresh_python("-S", "-m", "thcr.cli", *args, text=False)
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name):
    assert _render(CASES[name]) == (REPORTS / name).read_bytes()


def _library_citations(command: str, inputs: dict) -> tuple:
    """The citation ids of the library record behind a report of ``inputs``."""
    if command == "ampleness":
        spec = NumericalActionSpec(inputs["matrix"], inputs["curves"])
        return classify_ampleness(spec, DivisorClass(inputs["divisor"])).citations
    spec = PowerRingSpec(inputs["m"], inputs["power"])
    max_n = inputs["maxN"]
    if command == "gens":
        return generation_report(spec, max_n, inputs.get("budget", DEFAULT_BUDGET)).citations
    if command == "growth":
        return growth_report(spec, max_n).citations
    if command == "cohomology":
        t = inputs["t"]
        return (right_vanishing_scan(spec, t, max_n).citations
                + left_vanishing_scan(spec, t, max_n).citations)
    assert command == "dims"  # a table with no verdict
    return ()


@pytest.mark.parametrize("name", sorted(path.name for path in REPORTS.glob("*.json")))
def test_library_record_cites_what_the_report_cites(name):
    doc = json.loads((REPORTS / name).read_bytes())
    assert list(_library_citations(doc["command"], doc["inputs"])) == doc["citations"]


def test_every_citation_is_pinned_by_a_report():
    cited = set()
    for path in REPORTS.glob("*.json"):
        cited.update(json.loads(path.read_bytes())["citations"])
    ids = {value for name, value in vars(citations).items() if name.isupper()}
    assert sorted(ids - cited) == []


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        (REPORTS / name).write_bytes(_render(args))
