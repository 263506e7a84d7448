"""The benchmark's own checks: seeded corpora are reproducible, oracles
catch corrupted answers, span figures add up, and compare labels as it says."""

import array
import json

import pytest

import compare
import run
import spans
import workloads

ROOT = str(run.ROOT)


def make(name):
    return workloads.make(name, ROOT, run.child_env())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corpus_is_a_function_of_the_seed(name):
    workload = make(name)
    assert workload.corpus(7) == workload.corpus(7)
    if name != "gens-enum":  # gens-enum runs its whole grid for every seed
        assert workload.corpus(7) != workload.corpus(8)


def test_pass_order_is_a_function_of_the_seed():
    ops = make("gens-enum").corpus(0)
    a, b = run.Runner(None, ops, 3), run.Runner(None, ops, 4)
    assert a.order(0) == run.Runner(None, ops, 3).order(0)
    assert a.order(0) != b.order(0)
    assert sorted(a.order(1)) == list(range(len(ops)))


def first(workload, kind):
    return next(op for op in workload.corpus(1) if op.kind == kind)


def test_gens_oracle_flags_a_corrupted_count():
    workload = make("gens-enum")
    op = min(workload.corpus(1), key=lambda op: op.args[1] * op.args[0].power)
    digest = workload.digest(op, workload.execute(op))
    assert workload.check(op, digest) is None
    n, count = digest[-1]
    assert workload.check(op, digest[:-1] + ((n, count + 1),)) is not None


def test_decompose_oracle_flags_bad_witnesses():
    workload = make("deep-queries")
    ops = [op for op in workload.corpus(1) if op.kind == "decompose"]
    split = next(op for op in ops if workload.execute(op) is not None)
    digest = workload.digest(split, workload.execute(split))
    assert workload.check(split, digest) is None
    assert workload.check(split, None) is not None
    a, b, u, v = digest
    assert workload.check(split, (a, b, (u[0] + 1,) + u[1:], v)) is not None


def test_scan_oracle_flags_a_wrong_marker():
    workload = make("deep-queries")
    op = first(workload, "left-scan")
    marker, count, sample = workload.digest(op, workload.execute(op))
    assert workload.check(op, (marker, count, sample)) is None
    assert workload.check(op, (0 if marker != 0 else 1, count, sample)) is not None


def test_ampleness_oracle_flags_a_wrong_radius():
    workload = make("ampleness-corpus")
    op = next(op for op in workload.corpus(1)
              if op.kind == "classify" and len(op.args[0]) == 3)
    digest = workload.digest(op, workload.execute(op))
    assert workload.check(op, digest) is None
    lo, hi = digest[2]
    assert workload.check(op, digest[:2] + ((lo + 1, hi + 1),) + digest[3:]) is not None


def test_noncone_probes_show_the_known_radius_defect():
    probes, wrong = make("ampleness-corpus").probe_defects(1)
    assert probes == 8
    assert wrong == probes  # lower this when spectral_radius_interval is fixed


def test_cli_oracle_flags_an_altered_report():
    workload = make("cli-cold")
    op = first(workload, "cli.dims")
    returncode, stdout = workload.digest(op, workload.execute(op))
    assert workload.check(op, (returncode, stdout)) is None
    doc = json.loads(stdout)
    doc["results"]["rows"][-1]["dim"] += 1
    assert workload.check(op, (0, json.dumps(doc))) is not None
    assert workload.check(op, (2, stdout)) is not None


def test_child_env_drops_the_budget_override(monkeypatch):
    monkeypatch.setenv("TWISTED_BUDGET", "5")
    env = run.child_env()
    assert "TWISTED_BUDGET" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


def test_span_figures_from_a_span_file(tmp_path):
    # root 0..100 holds a child 10..40 with a grandchild 20..30, and a child 50..60
    tracer = spans.Tracer()
    names = ["op.x", "ring.f", "intlinalg.g", "ring.f"]
    rows = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 20, 30), (1, 0, 50, 60)]
    for col, values in zip(("name", "parent", "start", "end"), zip(*rows)):
        tracer.cols[col] = array.array(tracer.cols[col].typecode, values)
    tracer.cols["flag"] = array.array("b", [0, 1, 0, 0])
    tracer.cols["size"] = array.array("q", [0, 5, 9, 7])
    for name in names:
        tracer.name_id(name)
    path = tmp_path / "spans.bin"
    tracer.write(path)
    sf = spans.read_spans(path)
    stats, busy = spans.summarize(sf, {"ring": ("ring.",), "work": ("ring.", "intlinalg.")})
    assert stats["op.x"].self_ns == 100 - 30 - 10
    assert (stats["ring.f"].calls, stats["ring.f"].busy_ns, stats["ring.f"].self_ns) == (2, 40, 30)
    assert (stats["ring.f"].flag_sum, stats["ring.f"].size_max, stats["ring.f"].size_sum) == (1, 7, 12)
    assert busy == {"ring": 40, "work": 40}
    assert spans.count_children(sf, "ring.f", "op.x") == 2
    assert spans.count_children(sf, "ring.f", "op.x", flag=0) == 1
    assert spans.durations(sf, "ring.f") == [30, 10]


def test_tracer_sees_calls_through_imported_names():
    from thcr import dynamics, intlinalg

    original = intlinalg.char_poly
    tracer = spans.Tracer()
    targets = [(intlinalg, "char_poly", None), (dynamics, "classify_ampleness", None)]
    spec = dynamics.NumericalActionSpec([[2, 1], [1, 1]], [[1, 0], [0, 1]])
    with tracer.installed(targets):
        assert dynamics.char_poly is not original
        dynamics.classify_ampleness(spec, dynamics.DivisorClass((1, 1)))
    assert intlinalg.char_poly is original and dynamics.char_poly is original
    names = [tracer.names[i] for i in tracer.cols["name"]]
    assert names[0] == "dynamics.classify_ampleness"
    assert "intlinalg.char_poly" in names
    assert all(p == 0 for p, n in zip(tracer.cols["parent"], names) if n == "intlinalg.char_poly")


@pytest.mark.parametrize("base,new,better,bound,want", [
    ({s: 10.0 + s % 2 * 0.1 for s in range(10)}, {s: 8.0 for s in range(10)}, "lower", 0.2, "better"),
    ({s: 10.0 + s % 2 * 0.1 for s in range(10)}, {s: 13.0 for s in range(10)}, "lower", 0.2, "worse"),
    ({s: 10.0 + s % 2 * 0.1 for s in range(10)}, {s: 10.3 for s in range(10)}, "lower", 0.2, "unchanged"),
    ({s: 10.0 + s * 1.0 for s in range(10)}, {s: 12.0 + s * 1.0 for s in range(10)}, "higher", 0.1, "unresolved"),
])
def test_compare_labels(base, new, better, bound, want):
    assert compare.label(base, new, better, bound) == want


def test_a_malformed_report_fails_its_operation_not_the_run():
    workload = make("cli-cold")
    op = first(workload, "cli.growth")
    runner = run.Runner(workload, [op], 1)
    runner.ref[0] = (0, "not json" if "json" in op.args else "n,dim\n0,x\n")
    assert list(runner.oracle_failures()) == [0]
