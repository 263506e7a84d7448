import json

import pytest
from cli_helper import invoke
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


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


def test_ampleness_identity_with_flag():
    result = invoke(
        "ampleness",
        "--matrix", "[[1, 0], [0, 1]]",
        "--divisor", "[1, 1]",
        "--curves", "[[1, 0], [0, 1]]",
        "--ample-flag", "true",
    )
    doc = json.loads(result.output)
    assert doc["results"]["left"] == "Yes"
    assert doc["results"]["right"] == "Yes"
    assert doc["results"]["quasiUnipotent"] is True


def test_ampleness_spec_file(tmp_path):
    spec_path = tmp_path / "action.json"
    spec_path.write_text(
        json.dumps(
            {
                "P": [[2]],
                "curves": [[1]],
                "dimX": 2,
                "degSigma": 4,
            }
        )
    )
    result = invoke("ampleness", "--matrix", str(spec_path), "--divisor", "[1]")
    doc = json.loads(result.output)
    assert doc["results"]["left"] == "No"
    assert doc["results"]["degreeConsistent"] is True


def test_flags_override_document_fields_and_inputs_echo_parsed_options():
    document = json.dumps({"P": [[2]], "curves": [[1]], "dimX": 2, "degSigma": 4})
    args = ("ampleness", "--matrix", document, "--divisor", "[1]")
    doc = json.loads(invoke(*args).output)
    assert doc["results"]["degreeConsistent"] is True
    doc = json.loads(invoke(*args, "--deg-sigma", "3").output)
    assert doc["results"]["degreeConsistent"] is False
    assert doc["inputs"]["degSigma"] == 3
    # every parsed option but the command and --out, under its camelCase key
    doc = json.loads(invoke("gens", "--p", "2", "--m", "1", "--max-n", "2",
                            "--budget", "100").output)
    assert set(doc["inputs"]) == {"power", "m", "maxN", "budget", "format", "seed"}


def test_ampleness_rejects_singular():
    result = invoke("ampleness", "--matrix", "[[1, 1], [1, 1]]", "--divisor", "[1, 0]",
                    "--curves", "[[1, 0]]")
    assert result.exit_code == 2


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


def test_reports_are_byte_identical():
    args = ["gens", "--p", "3", "--m", "1", "--max-n", "4", "--seed", "0"]
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


def test_budget_exhaustion_exits_three():
    result = invoke("gens", "--p", "2", "--m", "2", "--max-n", "9", "--budget", "100")
    assert result.exit_code == 3
    assert "budget" in result.output


def test_budget_stop_reports_partial_counts():
    result = invoke("gens", "--p", "2", "--m", "2", "--max-n", "12", "--budget", "1000")
    assert result.exit_code == 3
    assert result.stdout == ""
    prefix = "partial counts: "
    lines = [line for line in result.stderr.splitlines() if line.startswith(prefix)]
    assert len(lines) == 1
    partial = json.loads(lines[0][len(prefix):])
    # grade 6 is the first over the budget; grades 1..5 match a full run
    full = invoke("gens", "--p", "2", "--m", "2", "--max-n", "5")
    assert partial == json.loads(full.stdout)["results"]["counts"]


def test_env_budget_overrides_flag():
    # the generous flag would let the run finish; the environment wins
    result = invoke(
        "gens", "--p", "2", "--m", "2", "--max-n", "9", "--budget", "1000000000",
        env={"TWISTED_BUDGET": "100"},
    )
    assert result.exit_code == 3


def test_cohomology_rejects_power_one():
    result = invoke("cohomology", "--p", "1", "--m", "1", "--t", "0")
    assert result.exit_code == 2


def test_bad_windows_exit_two():
    assert invoke("gens", "--p", "2", "--m", "1", "--max-n", "0").exit_code == 2
    assert invoke("growth", "--p", "2", "--m", "1", "--max-n", "2").exit_code == 2


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
    args = ["gens", "--p", "2", "--m", "1", "--max-n", "2"]
    assert invoke(*args, env={"TWISTED_BUDGET": "-5"}).exit_code == 2
    assert invoke(*args, env={"TWISTED_BUDGET": "0"}).exit_code == 2
    assert invoke(*args, "--budget", "0").exit_code == 2
    assert invoke(*args, "--budget", "1").exit_code == 3


def test_non_integer_spec_fields_exit_two(tmp_path):
    for extra in ({"dimX": "a"}, {"dimX": 2.5, "degSigma": True}, {"degSigma": 2.0}):
        spec_path = tmp_path / "action.json"
        spec_path.write_text(json.dumps({"P": [[2]], "curves": [[1]], **extra}))
        result = invoke("ampleness", "--matrix", str(spec_path), "--divisor", "[1]")
        assert result.exit_code == 2, extra
        assert "dim_x and deg_sigma must be integers" in result.output, extra


def test_unknown_spec_key_exits_two():
    doc = '{"P": [[2]], "curves": [[1]], "dimX": 2, "degsigma": 3}'
    result = invoke("ampleness", "--matrix", doc, "--divisor", "[1]")
    assert result.exit_code == 2
    assert "unknown keys 'degsigma'" in result.stderr
    assert result.stdout == ""


def test_dims_negative_window_exits_two():
    result = invoke("dims", "--p", "2", "--m", "1", "--max-n", "-3")
    assert result.exit_code == 2
    assert "--max-n must be >= 0" in result.output
    assert invoke("dims", "--p", "2", "--m", "1", "--max-n", "0").exit_code == 0


@pytest.mark.parametrize("flag", ["yes", 1])
def test_spec_document_ample_flag_must_be_boolean(tmp_path, flag):
    spec_path = tmp_path / "action.json"
    spec_path.write_text(json.dumps({"P": [[1]], "curves": [[1]], "ampleFlag": flag}))
    result = invoke("ampleness", "--matrix", str(spec_path), "--divisor", "[1]")
    assert result.exit_code == 2, flag
    assert "ample_flag must be True, False or None" in result.stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--matrix", "[1,2]", "--matrix must be a JSON list of lists of integers"),
    ("--divisor", '{"a":1}', "--divisor must be a JSON list of integers"),
    ("--curves", "[1]", "--curves must be a JSON list of lists of integers"),
    ("--matrix", '{"P": null}',
     '"P" in the --matrix document must be a JSON list of lists of integers'),
])
def test_malformed_json_shapes_name_the_input(flag, value, message):
    args = {"--matrix": "[[2]]", "--divisor": "[1]", "--curves": "[[1]]", flag: value}
    result = invoke("ampleness", *(part for item in args.items() for part in item))
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"thcr ampleness: error: {message}"


ROWS_MESSAGE = "must be a JSON list of lists of integers"


@pytest.mark.parametrize("flag, value, message", [
    ("--matrix", "[[null]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[[1]]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[1.5]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", "[[true]]", f"--matrix {ROWS_MESSAGE}"),
    ("--matrix", '{"P": [["2"]]}', f'"P" in the --matrix document {ROWS_MESSAGE}'),
    ("--curves", "[[null]]", f"--curves {ROWS_MESSAGE}"),
    ("--divisor", "[null]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[[1]]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[1.5]", "--divisor must be a JSON list of integers"),
    ("--divisor", "[false]", "--divisor must be a JSON list of integers"),
])
def test_non_integer_json_entries_name_the_input(flag, value, message):
    args = {"--matrix": "[[2]]", "--divisor": "[1]", "--curves": "[[1]]", flag: value}
    result = invoke("ampleness", *(part for item in args.items() for part in item))
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
        "--matrix": st.one_of(rows, st.fixed_dictionaries(
            {"P": signed_rows(n), "curves": signed_rows(n)}).map(json.dumps)),
        "--divisor": st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(json.dumps),
        "--curves": rows,
        "--dimX": int_text(1, 4),
        "--deg-sigma": int_text(1, 4),
        "--ample-flag": st.sampled_from(["true", "false"]),
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
    "ampleness": ("--matrix", "--divisor", "--curves", "--dimX", "--deg-sigma", "--ample-flag"),
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
        "--seed": int_text(-2, 2),
    }
    # sampled_from draws near-uniformly; integers() would favour its edges
    mostly = st.sampled_from([True] * 9 + [False])
    flags = [f for f in COMMAND_FLAGS[command] if draw(mostly)]
    flags += [f for f in ("--format", "--seed") if draw(st.booleans())]
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
