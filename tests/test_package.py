"""The package surface and its import graph: ``import thcr`` loads no
submodule, each CLI subcommand loads only the modules it runs and nothing
outside the standard library, the command line keeps its options and
spellings, the lazy exports behave like the eager ones, and every docstring
example passes.  Import effects are checked in fresh interpreters, since
this test process has long since loaded everything."""

import doctest
import importlib
import json
import pkgutil
import re
import shlex
import sys

import pytest
from cli_helper import ROOT, fresh_python, invoke

import thcr

PUBLIC_NAMES = [
    "AmplenessReport", "BudgetExceededError", "CurveFunctional", "DecompositionWitness",
    "DivisorClass", "GradeError", "GrowthClass", "IntMatrix", "IntPolynomial",
    "LeftScanResult", "Monomial", "NonLeftAmpleWitness",
    "NumericalActionSpec", "PowerRingSpec", "RationalInterval",
    "RightScanResult", "SingularMatrixError", "Verdict", "WitnessSearchExhausted",
    "char_poly", "citations", "classify_ampleness", "cohomology", "count_real_roots_above",
    "det", "dynamics",
    "generator_degrees", "grade_dimension", "grade_of_degree",
    "growth_class", "h", "intlinalg", "is_quasi_unipotent",
    "left_vanishing_scan", "non_left_ample_witness", "orbit_pairings",
    "pairing", "right_vanishing_scan", "ring", "spectral_radius_interval",
    "twist_degree", "twisted_product",
]

COMPUTE_MODULES = {"thcr.cohomology", "thcr.dynamics", "thcr.intlinalg"}
# standard-library modules whose import the subcommands other than
# ampleness no longer pay for on a cold start (inspect, ast, dis and
# tokenize come with dataclasses)
COLD_START_FREE = {"dataclasses", "inspect", "fractions", "decimal", "typing", "random"}
# what dataclasses brings in, which no subcommand loads: every record is a
# ring._Record
DATACLASSES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

AMPLENESS = ["ampleness", "--matrix", "[[2, 1], [1, 1]]", "--divisor", "[1, 2]",
             "--curves", "[[1, 0], [0, 1]]"]
SUBCOMMANDS = [
    ["dims", "--p", "2", "--m", "2", "--max-n", "4"],
    ["gens", "--p", "2", "--m", "1", "--max-n", "4"],
    ["growth", "--p", "3", "--m", "1", "--max-n", "6", "--format", "csv"],
    ["cohomology", "--p", "2", "--m", "1", "--t", "-2", "--max-n", "6"],
    AMPLENESS,
]

# Runs the CLI as `python -m thcr.cli ARGS` does, then prints the names of
# all loaded modules as the last line of stderr.
RUN_CLI = """
import json, runpy, sys
sys.argv = ["thcr", *sys.argv[1:]]
try:
    runpy.run_module("thcr.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(*args, flags=()):
    """Run the CLI in a fresh ``python FLAGS``; the process and every module it loaded."""
    proc = fresh_python(*flags, "-c", RUN_CLI, *args)
    *_, loaded = proc.stderr.splitlines()
    return proc, set(json.loads(loaded))


def run_cli(*args):
    proc, loaded = loaded_modules(*args)
    return proc, {k for k in loaded if k.startswith("thcr.")}


def test_import_thcr_loads_no_submodule():
    proc = fresh_python("-c", "import sys, thcr; print([k for k in sys.modules if 'thcr.' in k])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    ["dims", "--p", "2", "--m", "2", "--max-n", "4"],
    ["gens", "--p", "2", "--m", "1", "--max-n", "4"],
    ["growth", "--p", "3", "--m", "1", "--max-n", "6", "--format", "csv"],
], ids=lambda args: args[0])
def test_ring_subcommands_load_no_compute_module(args):
    proc, loaded = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"thcr.citations", "thcr.ring"}


def test_cohomology_subcommand_loads_neither_dynamics_nor_intlinalg():
    proc, loaded = run_cli("cohomology", "--p", "2", "--m", "1", "--t", "-2", "--max-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"thcr.citations", "thcr.cohomology", "thcr.ring"}


@pytest.mark.parametrize("args", SUBCOMMANDS[:4], ids=lambda args: args[0])
def test_ring_subcommands_load_no_dataclasses_fractions_typing_or_random(args):
    # -S, because site-packages' .pth files may import typing and random
    # themselves before thcr runs
    proc, loaded = loaded_modules(*args, flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    assert "thcr.ring" in loaded
    assert sorted(loaded & COLD_START_FREE) == []


def test_cold_ampleness_loads_no_dataclasses():
    proc, loaded = loaded_modules(*AMPLENESS, flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    assert "thcr.dynamics" in loaded
    assert sorted(loaded & DATACLASSES) == []


def test_ampleness_report_from_a_cold_start_is_unchanged():
    proc, loaded = run_cli(*AMPLENESS)
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"thcr.citations", "thcr.dynamics", "thcr.intlinalg", "thcr.ring"}
    warm = invoke(*AMPLENESS)
    assert proc.stdout == warm.stdout
    assert json.loads(proc.stdout)["results"]["left"] == "No"


def test_import_trace_of_dims_lists_no_compute_module():
    proc = fresh_python("-X", "importtime", "-m", "thcr.cli",
                        "dims", "--p", "2", "--m", "2", "--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    traced = set(re.findall(r"\|\s*(thcr\.\w+)$", proc.stderr, re.MULTILINE))
    assert "thcr.ring" in traced
    assert not traced & COMPUTE_MODULES
    assert not re.search(r"\|\s*click\b", proc.stderr)


def test_cold_dims_loads_no_click():
    script = ("import sys\nfrom thcr.cli import main\n"
              "code = main(['dims', '--p', '2', '--m', '2', '--max-n', '4'])\n"
              "print(code, [m for m in sys.modules if m.partition('.')[0] == 'click'], "
              "file=sys.stderr)")
    proc = fresh_python("-c", script)
    assert proc.stderr.strip() == "0 []"


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=lambda args: args[0])
def test_subcommands_run_without_site_packages(args):
    # -S skips site-packages: no click, numpy or sympy to fall back on
    proc = fresh_python("-S", "-m", "thcr.cli", *args, text=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == invoke(*args).stdout.encode()


def test_cli_binds_no_verdict_logic():
    # verdicts and their citation ids come from library records; the CLI renders them
    import thcr.cli as cli
    from thcr import citations, ring

    ids = {value for name, value in vars(citations).items() if name.isupper()}
    decisions = (citations, ring.growth_class, ring.generator_degrees, ring.GrowthClass)
    bound = [name for name, value in vars(cli).items()
             if any(value is d for d in decisions) or isinstance(value, str) and value in ids
             or name in ("citations", "growth_class", "generator_degrees")
             or name.isupper() and name in vars(citations)]
    assert bound == []
    source = (ROOT / "src" / "thcr" / "cli.py").read_text(encoding="utf-8")
    assert "citations." not in source
    assert sorted(i for i in ids if i in source) == []


def test_version():
    result = invoke("--version")
    assert (result.exit_code, result.stdout) == (0, "thcr, version 0.7.0\n")


def test_option_prefixes_are_not_abbreviations():
    assert invoke("gens", "--p", "2", "--m", "1", "--max", "3").exit_code == 2


def test_public_names_are_unchanged():
    assert sorted(thcr.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(thcr))
    # the enumerator is a test oracle (tests/ring_oracles.py), not library API
    assert len(PUBLIC_NAMES) == 42 and not hasattr(thcr, "monomials")


def test_star_import_binds_every_public_name():
    script = ("import thcr; ns = {}; exec('from thcr import *', ns); "
              "print(sorted(n for n in thcr.__all__ if ns.get(n) is not getattr(thcr, n)))")
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exports_are_the_owning_modules_objects():
    from thcr import char_poly, classify_ampleness, h, ring, twist_degree

    assert ring is sys.modules["thcr.ring"] is thcr.ring
    assert twist_degree is ring.twist_degree
    assert char_poly is thcr.intlinalg.char_poly
    assert classify_ampleness is thcr.dynamics.classify_ampleness
    assert h is thcr.cohomology.h


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        thcr.nope
    with pytest.raises(ImportError):
        from thcr import nope  # noqa: F401


def test_docstring_examples_pass():
    modules = [thcr, *(importlib.import_module(f"thcr.{info.name}")
                       for info in pkgutil.iter_modules(thcr.__path__))]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module, report=False)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["{1: 3, 2: 1, 3: 3, 4: 9}", "No Yes"]


def readme_commands():
    """Each ``thcr ...`` line of the README's command-line block, as argv past ``thcr``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("thcr ")]


def test_readme_command_line_examples():
    docs = {}
    for argv in readme_commands():
        result = invoke(*argv)
        assert result.exit_code == 0, (argv, result.stderr)
        if "csv" not in argv:
            docs[" ".join(argv)] = json.loads(result.stdout)["results"]
    assert len(docs) == 7
    # the comments: none past grade 1, 3 * 4**(n - 2) and 2**(n - 2) new generators
    for command, new in [("gens --p 2 --m 1 --max-n 6", lambda n: 0),
                         ("gens --p 5 --m 1 --max-n 8", lambda n: 3 * 4**(n - 2)),
                         ("gens --p 3 --m 1 --max-n 40", lambda n: 2**(n - 2))]:
        counts = docs[command]["counts"]
        max_n = int(command.split()[-1])
        assert counts == {"1": 2, **{str(n): new(n) for n in range(2, max_n + 1)}}
    identity = docs["ampleness --matrix [[1,0],[0,1]] --divisor [1,1] --curves [[1,0],[0,1]]"]
    assert (identity["right"], identity["left"]) == ("Yes", "Undetermined")
    growth = docs["growth --p 2 --m 1 --max-n 10"]
    assert (growth["growthClass"], growth["noetherian"]) == ("Exponential", False)
    # and g_k of each chain in grades 1..10, none in g_j B or B g_j for j < k:
    # r**j does not divide the x_1 difference, and x_0 = 1 is below r**(k-j)
    right, left = growth["rightChain"], growth["leftChain"]
    assert set(right) == set(left) == {str(k) for k in range(1, 11)}
    for k in range(2, 11):
        for j in range(1, k):
            assert (right[str(k)][1] - right[str(j)][1]) % 2**j != 0
            assert left[str(k)][0] < 2**(k - j) * left[str(j)][0]
