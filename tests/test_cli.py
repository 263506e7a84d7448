import json

import pytest
from cli_helper import invoke
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thcr.dynamics import DivisorClass, NumericalActionSpec, classify_ampleness


def test_gens_binary_line():
    result = invoke("gens", "--p", "2", "--m", "1", "--max-n", "6")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["results"]["generatedInDegreeOne"] is True
    assert doc["results"]["counts"]["6"] == 0
    assert doc["citations"]


def test_gens_ternary_line():
    result = invoke("gens", "--p", "3", "--m", "1", "--max-n", "4")
    doc = json.loads(result.output)
    assert doc["results"]["generatedInDegreeOne"] is False
    assert all(doc["results"]["counts"][str(n)] >= 1 for n in range(2, 5))
    assert "power-ring-needs-new-generators-in-every-degree" in doc["citations"]


def test_gens_accepts_r_alias():
    by_p = invoke("gens", "--p", "4", "--m", "1", "--max-n", "3")
    by_r = invoke("gens", "--r", "4", "--m", "1", "--max-n", "3")
    assert json.loads(by_p.output)["results"] == json.loads(by_r.output)["results"]


def test_ampleness_scalar():
    result = invoke(
        "ampleness",
        "--matrix", "[[2]]",
        "--divisor", "[1]",
        "--curves", "[[1]]",
    )
    doc = json.loads(result.output)
    assert doc["results"]["left"] == "No"
    assert doc["results"]["right"] == "Yes"
    assert doc["results"]["spectralRadius"]["lo"] == "2"
    assert doc["citations"]


IDENTITY = {"--matrix": "[[1, 0], [0, 1]]", "--divisor": "[1, 1]",
            "--curves": "[[1, 0], [0, 1]]"}


def _ampleness(options, *extra):
    return invoke("ampleness", *(part for item in options.items() for part in item), *extra)


def test_ample_flag_is_unrecognized():
    # Delta_m(D) = m D is never ample for D = (-1, -1), whatever is asserted
    options = {**IDENTITY, "--divisor": "[-1, -1]"}
    doc = json.loads(_ampleness(options).stdout)["results"]
    assert (doc["left"], doc["right"]) == ("Undetermined", "Undetermined")
    result = _ampleness(options, "--ample-flag", "true")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "unrecognized arguments: --ample-flag true" in result.stderr


def test_ampleness_reads_each_input_from_a_file(tmp_path):
    inline = _ampleness(IDENTITY)
    doc = json.loads(inline.stdout)["results"]
    assert (doc["left"], doc["right"], doc["quasiUnipotent"]) == ("Undetermined", "Yes", True)
    for flag, value in IDENTITY.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(value)
        # the report echoes the parsed JSON, so it cannot tell the two apart
        assert _ampleness({**IDENTITY, flag: str(path)}).stdout == inline.stdout, flag


def test_inputs_echo_parsed_options():
    doc = json.loads(_ampleness({"--matrix": "[[2]]", "--divisor": "[1]",
                                 "--curves": "[[-1]]"}).output)
    assert doc["inputs"] == {"matrix": [[2]], "divisor": [1], "curves": [[-1]], "format": "json"}
    assert (doc["results"]["right"], doc["results"]["ampleEigenvector"]) == ("Undetermined", None)
    # every parsed option but the command and --out, under its camelCase key
    doc = json.loads(invoke("gens", "--p", "2", "--m", "1", "--max-n", "2",
                            "--budget", "100").output)
    assert set(doc["inputs"]) == {"power", "m", "maxN", "budget", "format"}


RANK_6_SIGNED = [
    [-87, 120, 5, -110, -128, -54],
    [112, 63, 35, -117, 11, 122],
    [-27, 83, -80, -30, 7, -83],
    [89, 43, -81, 57, 81, 0],
    [99, -80, -28, 21, -79, -105],
    [-26, 56, 121, -29, -114, 57],
]
NOT_PRESERVED = "the action does not preserve the cone {D : C D >= 0} of its curves"


# the largest real eigenvalue of the first three is -2, 2 (the radius is 3)
# and none (the radius is 2): none of them preserves the orthant
@pytest.mark.parametrize("matrix, curves, message", [
    ([[-2]], [[1]], NOT_PRESERVED),
    ([[-3, 0], [0, 2]], [[1, 0], [0, 1]], NOT_PRESERVED),
    ([[0, -2], [2, 0]], [[1, 0], [0, 1]], NOT_PRESERVED),
    (RANK_6_SIGNED, [[int(i == j) for j in range(6)] for i in range(6)], NOT_PRESERVED),
    ([[2, 0], [0, 2]], [[1, 0]], "the cone {D : C D >= 0} of the curves is not proper"),
], ids=["scalar-minus-2", "negative-eigenvalue-is-the-radius", "no-real-eigenvalue",
        "signed-rank-6", "one-curve-in-rank-2"])
def test_ampleness_off_the_curve_cone_exits_two(matrix, curves, message):
    result = invoke("ampleness", "--matrix", json.dumps(matrix), "--curves", json.dumps(curves),
                    "--divisor", json.dumps([1] * len(matrix)))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines()[-1] == f"thcr ampleness: error: {message}"


@pytest.mark.parametrize("matrix, curves, divisor", [
    ([[1, 2]], [[1, 0]], [1, 0]),
    ([], [[1]], [1]),
    ([[2]], [], [1]),
    ([[2, 1], [1, 1]], [[1, 0, 0]], [1, 0]),
    ([[2, 1], [1, 1]], [[1, 0]], [1]),
    ([[1, 1], [1, 1]], [[1, 0]], [1, 0]),
], ids=["non-square", "empty-matrix", "no-curves", "curve-length", "divisor-length",
        "singular"])
def test_ampleness_rejects_invalid_input(matrix, curves, divisor):
    # well-formed JSON the library rejects: the CLI exits 2 with its message
    with pytest.raises(ValueError) as raised:
        classify_ampleness(NumericalActionSpec(matrix, curves), DivisorClass(divisor))
    result = invoke("ampleness", "--matrix", json.dumps(matrix), "--divisor",
                    json.dumps(divisor), "--curves", json.dumps(curves))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == f"thcr ampleness: error: {raised.value}"


def test_cohomology_scans():
    result = invoke(
        "cohomology", "--p", "2", "--m", "1", "--t", "-2", "--max-n", "6"
    )
    doc = json.loads(result.output)
    assert doc["results"]["leftScan"]["nonVanishing"] is True
    # right degrees -2 + e_n reach -1 already at n = 1, and O(-1) has no
    # cohomology on the line
    assert doc["results"]["rightScan"]["stabilizedAt"] == 1
    rows = {(r["side"], r["n"]): r["h"] for r in doc["results"]["table"] if r["q"] == 1}
    assert rows[("left", 4)] == 16


def test_cohomology_csv_columns():
    result = invoke(
        "cohomology", "--p", "2", "--m", "1", "--t", "-2", "--max-n", "2",
        "--format", "csv",
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,degree,q,h"
    assert len(lines) == 1 + 2 * 3  # right and left scans, n = 0..2


def test_dims_csv():
    result = invoke(
        "dims", "--p", "2", "--m", "1", "--max-n", "4", "--format", "csv"
    )
    assert result.output.splitlines()[0] == "n,twist_degree,dim"
    assert result.output.splitlines()[-1] == "4,15,16"


def test_growth_flags_non_noetherian():
    result = invoke("growth", "--p", "2", "--m", "1", "--max-n", "8")
    doc = json.loads(result.output)
    assert doc["results"]["growthClass"] == "Exponential"
    assert doc["results"]["noetherian"] is False
    assert "exponential-section-growth-rules-out-noetherian" in doc["citations"]
    # g_k of each chain for grades 1..8: x_0**e_{k-1} x_1**(2**(k-1)) and x_0 x_1**(e_k - 1)
    assert doc["results"]["rightChain"] == {str(k): [2**(k - 1) - 1, 2**(k - 1)]
                                            for k in range(1, 9)}
    assert doc["results"]["leftChain"] == {str(k): [1, 2**k - 2] for k in range(1, 9)}


def test_reports_are_byte_identical():
    args = ["gens", "--p", "3", "--m", "1", "--max-n", "4"]
    first = invoke(*args)
    second = invoke(*args)
    assert first.output == second.output
    assert first.output.encode() == second.output.encode()


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    result = invoke(
        "dims", "--p", "2", "--m", "1", "--max-n", "3", "--out", str(target)
    )
    assert result.exit_code == 0
    assert json.loads(target.read_text())["command"] == "dims"


def test_out_into_missing_directory_exits_two(tmp_path):
    target = tmp_path / "missing" / "report.json"
    result = invoke("dims", "--p", "2", "--m", "1", "--max-n", "3", "--out", str(target))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "cannot write the report to" in result.stderr
    assert "Traceback" not in result.output
    assert not target.parent.exists()


def test_invalid_config_exits_two():
    result = invoke("gens", "--p", "0", "--m", "1")
    assert result.exit_code == 2
    result = invoke("gens", "--m", "1")
    assert result.exit_code == 2
    result = invoke("ampleness", "--matrix", "not-json-or-a-file",
                    "--divisor", "[1]", "--curves", "[[1]]")
    assert result.exit_code == 2
    result = invoke("ampleness", "--matrix", "[[2]]", "--divisor", "[1]", "--curves", "[[1]]",
                    "--format", "csv")
    assert result.exit_code == 2
    result = invoke("cohomology", "--p", "2", "--m", "1")
    assert result.exit_code == 2


def test_budget_exhaustion_exits_three():
    result = invoke("gens", "--p", "2", "--m", "2", "--max-n", "9", "--budget", "100")
    assert result.exit_code == 3
    assert "budget" in result.output


BUDGET_STOP = ("gens", "--p", "2", "--m", "2", "--max-n", "12", "--budget", "1000")


def test_budget_stop_reports_partial_counts():
    result = invoke(*BUDGET_STOP)
    assert result.exit_code == 3
    budget, partial_line = result.stderr.splitlines()
    assert budget == "budget exhausted: grade 6 holds 2080 monomials, above the budget of 1000"
    prefix = "partial counts: "
    assert partial_line.startswith(prefix)
    partial = json.loads(partial_line[len(prefix):])
    # grade 6 is the first over the budget; grades 1..5 match a full run,
    # beside the all-grades verdict and the witnesses to grade 12
    doc = json.loads(result.stdout)
    full = json.loads(invoke("gens", "--p", "2", "--m", "2", "--max-n", "5").stdout)
    assert partial == doc["results"]["counts"] == full["results"]["counts"]
    assert doc["results"]["generatedInDegreeOne"] is False
    assert doc["citations"] == full["citations"]
    assert doc["results"]["witnesses"] == json.loads(invoke(
        "gens", "--p", "2", "--m", "2", "--max-n", "12").stdout)["results"]["witnesses"]


def test_budget_stop_prints_the_partial_csv():
    result = invoke(*BUDGET_STOP, "--format", "csv")
    assert result.exit_code == 3
    assert len(result.stderr.splitlines()) == 2
    full = invoke("gens", "--p", "2", "--m", "2", "--max-n", "5", "--format", "csv")
    assert result.stdout == full.stdout


def test_line_answers_past_the_budget():
    # grade 40 holds e_40 + 1 > 10**27 monomials, but the line's closed form
    # enumerates none of them
    result = invoke("gens", "--p", "5", "--m", "1", "--max-n", "40")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)["results"]
    assert doc["budget"] == 10**6
    assert doc["counts"] == {"1": 2, **{str(n): 3 * 4 ** (n - 2) for n in range(2, 41)}}


def test_reports_hold_integers_past_the_str_digit_cap():
    # a 4401-digit power: Python's default cap on int/str conversion is 4300
    result = invoke("gens", "--p", "1" + "0" * 4400, "--m", "1", "--max-n", "3")
    assert result.exit_code == 0, result.stderr
    r = 10**4400
    counts = json.loads(result.stdout)["results"]["counts"]
    assert counts == {"1": 2, "2": r - 2, "3": (r - 2) * (r - 1)}


def test_environment_does_not_set_the_budget():
    # grade 2 of the plane is walked and holds 10 monomials
    args = ("gens", "--p", "2", "--m", "2", "--max-n", "4")
    plain = invoke(*args)
    assert plain.exit_code == 0
    assert invoke(*args, env={"TWISTED_BUDGET": "1"}).stdout == plain.stdout


@pytest.mark.parametrize("args", [
    ("dims", "--p", "2", "--m", "1"),
    ("gens", "--p", "2", "--m", "1"),
    ("growth", "--p", "2", "--m", "1"),
    ("cohomology", "--p", "2", "--m", "1", "--t", "-2"),
    ("ampleness", "--matrix", "[[2]]", "--divisor", "[1]", "--curves", "[[1]]"),
], ids=lambda args: args[0])
def test_seed_is_not_an_option(args):
    assert invoke(*args).exit_code == 0
    result = invoke(*args, "--seed", "0")
    assert result.exit_code == 2
    assert "unrecognized arguments: --seed 0" in result.stderr


def test_cohomology_rejects_power_one():
    result = invoke("cohomology", "--p", "1", "--m", "1", "--t", "0")
    assert result.exit_code == 2


def test_bad_windows_exit_two():
    assert invoke("gens", "--p", "2", "--m", "1", "--max-n", "0").exit_code == 2
    assert invoke("growth", "--p", "2", "--m", "1", "--max-n", "-1").exit_code == 2


def test_growth_states_its_verdict_on_a_short_window():
    result = invoke("growth", "--p", "2", "--m", "2", "--max-n", "0")
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.stdout)["results"]
    assert doc == {"dims": [1], "growthClass": "Exponential", "noetherian": False,
                   "rightChain": {}, "leftChain": {}}


def test_non_integer_json_exits_two():
    good = {"--matrix": "[[2]]", "--divisor": "[1]", "--curves": "[[1]]"}
    for flag, bad in (("--matrix", "[[2.7]]"), ("--divisor", "[1.9]"),
                      ("--curves", "[[true]]"), ("--matrix", '[["2"]]')):
        args = ["ampleness"]
        for key, value in {**good, flag: bad}.items():
            args += [key, value]
        assert invoke(*args).exit_code == 2, (flag, bad)
    result = invoke("ampleness", "--matrix", "[[2.7]]", "--divisor", "[1.9]",
                    "--curves", "[[true]]")
    assert result.exit_code == 2


def test_nonpositive_budget_exits_two():
    args = ["gens", "--p", "2", "--m", "2", "--max-n", "2"]
    assert invoke(*args, "--budget", "-5").exit_code == 2
    assert invoke(*args, "--budget", "0").exit_code == 2
    assert invoke(*args, "--budget", "1").exit_code == 3


def test_a_spec_document_is_not_a_matrix(tmp_path):
    # --matrix takes the action's rows alone, and --curves the curves
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"P": [[1]], "curves": [[1]], "ampleFlag": True}))
    for document in ('{"P": [[2]], "curves": [[1]]}', str(path)):
        result = _ampleness({"--matrix": document, "--divisor": "[1]", "--curves": "[[1]]"})
        assert result.exit_code == 2, document
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            "thcr ampleness: error: --matrix must be a JSON list of lists of integers")
        result = invoke("ampleness", "--matrix", document, "--divisor", "[1]")
        assert result.exit_code == 2, document
        assert "the following arguments are required: --curves" in result.stderr


def test_degree_flags_are_unrecognized():
    args = ("ampleness", "--matrix", "[[2]]", "--divisor", "[1]", "--curves", "[[1]]")
    for flag in ("--dimX", "--deg-sigma"):
        result = invoke(*args, flag, "2")
        assert result.exit_code == 2, flag
        assert f"unrecognized arguments: {flag} 2" in result.stderr


def test_dims_negative_window_exits_two():
    result = invoke("dims", "--p", "2", "--m", "1", "--max-n", "-3")
    assert result.exit_code == 2
    assert "--max-n must be >= 0" in result.output
    assert invoke("dims", "--p", "2", "--m", "1", "--max-n", "0").exit_code == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--matrix", "[1,2]", "--matrix must be a JSON list of lists of integers"),
    ("--divisor", '{"a":1}', "--divisor must be a JSON list of integers"),
    ("--curves", "[1]", "--curves must be a JSON list of lists of integers"),
])
def test_malformed_json_shapes_name_the_input(flag, value, message):
    result = _ampleness({"--matrix": "[[2]]", "--divisor": "[1]", "--curves": "[[1]]",
                         flag: value})
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"thcr ampleness: error: {message}"


ROWS_MESSAGE = "must be a JSON list of lists of integers"


@pytest.mark.parametrize("flag, value, message", [
    ("--matrix", "[[null]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[[1]]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[1.5]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[true]]", f"--matrix {ROWS_MESSAGE}"),
    ("--curves", "[[null]]", f"--curves {ROWS_MESSAGE}"),
    ("--divisor", "[null]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[[1]]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[1.5]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[false]", "--divisor must be a JSON list of integers"),
])
def test_non_integer_json_entries_name_the_input(flag, value, message):
    result = _ampleness({"--matrix": "[[2]]", "--divisor": "[1]", "--curves": "[[1]]",
                         flag: value})
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"thcr ampleness: error: {message}"


# --- argument fuzzing -------------------------------------------------------------

JUNK = ("", "x", "1.5", "-", "1e3", "[1]", "--p", "{", "not-a-file", "0", "-1", "xml")
ODD_JSON = ("[]", "[[]]", "[1]", "[[1, 2]]", "[[2.5]]", '[["a"]]', "[[true]]", "[[null]]",
            '{"P": 5}', '{"P": [[2]], "curves": 5}', '{"a": 1}', "[[1e400]]")


def int_text(lo, hi):
    return st.sampled_from([str(i) for i in range(lo, hi + 1)])


def signed_rows(n):
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


def ampleness_options(n):
    rows = signed_rows(n).map(json.dumps)
    return {
        "--matrix": rows,
        "--divisor": st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(json.dumps),
        "--curves": rows,
    }


RING_OPTIONS = {
    "--p": int_text(1, 3),
    "--m": int_text(1, 3),
    "--max-n": int_text(0, 4),
    "--t": int_text(-5, 5),
    "--budget": int_text(1, 3000),
}
COMMAND_FLAGS = {
    "dims": ("--p", "--m", "--max-n"),
    "gens": ("--p", "--m", "--max-n", "--budget"),
    "growth": ("--p", "--m", "--max-n"),
    "cohomology": ("--p", "--m", "--t", "--max-n"),
    "ampleness": ("--matrix", "--divisor", "--curves"),
}


@st.composite
def cli_arguments(draw):
    """Argument lists for every subcommand, mostly well-formed and in ranges
    that finish quickly, with some junk values, odd JSON, missing flags and
    flags that the subcommand does not take."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    options = {
        **RING_OPTIONS,
        **ampleness_options(draw(st.integers(1, 3))),
        "--format": st.sampled_from(["json", "csv"]),
    }
    # sampled_from draws near-uniformly; integers() would favour its edges
    mostly = st.sampled_from([True] * 9 + [False])
    flags = [f for f in COMMAND_FLAGS[command] if draw(mostly)]
    if draw(st.booleans()):
        flags.append("--format")
    if not draw(mostly):
        flags.append(draw(st.sampled_from(sorted(options))))
    args = [command]
    for flag in flags:
        kind = draw(st.sampled_from(["valid"] * 16 + ["junk", "odd"] * 2))
        if kind == "junk":
            value = draw(st.sampled_from(JUNK))
        elif kind == "odd" and flag in ("--matrix", "--divisor", "--curves"):
            value = draw(st.sampled_from(ODD_JSON))
        else:
            value = draw(options[flag])
        args += [flag, value]
    return args


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_arguments())
def test_cli_fuzz_exits_cleanly_and_reproducibly(args):
    first = invoke(*args)
    assert first.exit_code in (0, 2, 3), (args, first.output)
    assert "Traceback" not in first.output, args
    second = invoke(*args)
    assert (second.exit_code, second.stdout, second.stderr) == (
        first.exit_code, first.stdout, first.stderr
    ), args
