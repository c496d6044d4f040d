"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the root of a checkout with:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Op  # noqa: E402


def _make(name: str, seed: int):
    return workloads.WORKLOADS[name](random.Random(f"perfbench/{name}/{seed}"))


def _rounds(name: str, seed: int, count: int = 2):
    w = _make(name, seed)
    return [w.round() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    count = 1 if name == "pencil" else 3
    assert _rounds(name, 7, count) == _rounds(name, 7, count)
    assert _rounds(name, 7, count) != _rounds(name, 8, count)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_is_the_stated_mix(name):
    ops = _make(name, 3).round()
    counts = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    assert counts == dict(workloads.WORKLOADS[name].mix)


def test_symbolic_inputs_pass_their_checks():
    w = _make("symbolic", 1)
    tr = tracing.NullTracer()
    for op in w.round():
        w.check(op, w.run(op, tr))


def test_symbolic_checks_reject_wrong_answers():
    w = _make("symbolic", 1)
    with pytest.raises(CheckFailed):
        w.check(Op("tangent", (4,)), 13)
    derivation = workloads.coincidence.bitangent_derivation(4)
    with pytest.raises(CheckFailed):
        w.check(Op("bitangent", (5,)), derivation)
    tr = tracing.NullTracer()
    op = Op("dsl", ("G", "g^4"))
    e, monomial, rendered, top = w.run(op, tr)
    w.check(op, (e, monomial, rendered, top))
    with pytest.raises(CheckFailed):
        w.check(op, (e, monomial, "3*G", top))
    with pytest.raises(CheckFailed):
        w.check(op, (e, monomial, rendered, 3))
    op = Op("power", ("PS", 2, ((1, "p"), (-2, "g")), 5))
    e, base = w.run(op, tr)
    w.check(op, (e, base))
    with pytest.raises(CheckFailed):
        w.check(op, (e + 1, base))
    checks = workloads.spaces.verify_formula_suite()
    with pytest.raises(CheckFailed):
        w.check(Op("formulas", ()), checks[:-1])


def test_four_lines_inputs_take_the_intended_branches():
    w = _make("four_lines", 2)
    tr = tracing.Tracer()
    for op in w.round():
        w.check(op, w.run(op, tr))
    counters = tr.counters
    assert counters.get("oracle.lines_meeting_four.outcome.rational", 0) >= 3
    assert sum(counters.values()) == 10


def test_four_lines_checks_reject_wrong_answers():
    w = _make("four_lines", 2)
    ops = {op.kind: op for op in w.round()}
    general = ops["general"]
    lines = [workloads.wedge(p, q) for p, q in general.args]
    result = w.run(general, tracing.NullTracer())
    good = [
        ([c if isinstance(c, int) else str(c) for c in line.coords], m)
        for line, m in result.solutions
    ]
    workloads.check_four_lines(lines, False, good, 2, 2)
    with pytest.raises(CheckFailed):
        workloads.check_four_lines(lines, False, good, 2, 3)
    with pytest.raises(CheckFailed):
        workloads.check_four_lines(lines, True, good, 2, 2)
    # a line through two unrelated points misses the inputs
    wrong = [(list(workloads.wedge((1, 0, 0, 0), (0, 1, 0, 0))), 1), good[1]]
    with pytest.raises(CheckFailed):
        workloads.check_four_lines(lines, False, wrong, 2, 2)
    # the right solution with the transversal L dropped
    two = ops["two_transversal"]
    result = w.run(two, tracing.NullTracer())
    w.check(two, result)
    other = [s for s in result.solutions if s[0].coords != result.solutions[0][0].coords]
    fake = workloads.oracle.SolutionSet.finite([(other[0][0], 2)])
    with pytest.raises(CheckFailed):
        w.check(two, fake)


def test_parse_coordinate_reads_the_printed_forms():
    parse = workloads.parse_coordinate
    assert parse(-3) == (-3, 0, 0)
    assert parse("2/3") == (Fraction(2, 3), 0, 0)
    assert parse("3 + 2*sqrt(5)") == (3, 2, 5)
    assert parse("-1/2 - sqrt(-7)") == (Fraction(-1, 2), -1, -7)
    assert parse("-4*sqrt(13)") == (0, -4, 13)
    assert parse("sqrt(2)") == (0, 1, 2)
    with pytest.raises(CheckFailed):
        parse("3 + sqrt")


def test_pencil_check_rejects_a_short_count():
    w = _make("pencil", 1)
    op = Op("d3", workloads.pencil_instance(random.Random(0), 3))
    w.check(op, 6)
    with pytest.raises(CheckFailed):
        w.check(op, 5)


def test_pencil_instances_put_the_vertex_on_the_plane():
    rng = random.Random(4)
    for n in workloads.PENCIL_DEGREES:
        _, terms, plane, vertex = workloads.pencil_instance(rng, n)
        assert sum(a * x for a, x in zip(plane, vertex)) == 0
        assert workloads.surface_value(terms, vertex) != 0
        assert all(sum(m) == n for m, _ in terms)


def _proc(argv, stdout, code=0):
    return subprocess.CompletedProcess(list(argv), code, stdout, "")


def test_cli_checks_reject_wrong_answers():
    w = workloads.Cli(random.Random(0))
    op = Op("tangent-count", ("tangent-count", "5", "--json"))
    w.check(op, _proc(op.args, json.dumps({"n": 5, "count": 20, "trace": []})))
    with pytest.raises(CheckFailed):
        w.check(op, _proc(op.args, json.dumps({"n": 5, "count": 21, "trace": []})))
    with pytest.raises(CheckFailed):
        w.check(op, _proc(op.args, "", code=1))
    op = Op("eval", ("eval", "--space", "G", "g^4"))
    w.check(op, _proc(op.args, "2*G = 2\n"))
    with pytest.raises(CheckFailed):
        w.check(op, _proc(op.args, "2*G = 3\n"))
    op = Op("bitangent-count", ("bitangent-count", "4"))
    w.check(op, _proc(op.args, "28\n"))
    with pytest.raises(CheckFailed):
        w.check(op, _proc(op.args, "27\n"))
    op = Op("oracle-pencil", ("oracle", "pencil", "--degree", "3", "--seed", "5"))
    refusal = subprocess.CompletedProcess(list(op.args), 2, "", "error: the pencil is not generic\n")
    with pytest.raises(workloads.Refused):
        w.check(op, refusal)


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0, 100, -1, 1],
        ["a", 10, 40, 0, 1],
        ["b", 15, 25, 1, 1],
        ["c", 50, 90, 0, 1],
    ]
    assert tracing.self_times_ns(spans) == [30, 20, 10, 40]
    summary = tracing.summarize(spans)
    assert summary["op"] == (1, 0.1, 30e-6)
    assert tracing.summarize(spans, {1: 2.0})["op"] == (1, 0.2, 60e-6)


def test_times_are_scaled_to_the_reference_speed():
    assert run.machine_speed_ns() > 0
    assert run.scaled(10.0, run.REFERENCE_SPEED_NS) == 10.0
    assert run.scaled(10.0, 2 * run.REFERENCE_SPEED_NS) == 5.0


def test_ops_per_s_is_the_mix_rate_at_median_latencies():
    ref = run.REFERENCE_SPEED_NS
    samples = [("a", 1_000_000, ref)] * 3 + [("b", 4_000_000, ref), ("b", 8_000_000, 2 * ref)]
    loop = SimpleNamespace(samples=samples)
    setup = [{"total_s": 0.5, "speed_ns": ref}]
    values = run.end_to_end(loop, (("a", 3), ("b", 1)), setup, 20.0)
    # 4 operations take 3 * 1 ms + 1 * 4 ms at the reference speed
    assert values["ops_per_s"][0] == pytest.approx(4 / 0.007)
    assert values["latency_p50_ms"][0] == pytest.approx(1.0)
    assert values["setup_s"] == (0.5, 1)


def test_tracer_records_nesting_and_ops():
    tr = tracing.Tracer()
    tr.next_op()
    with tr.span("op"):
        with tr.span("inner"):
            pass
    tr.count("x")
    tr.count("x", 2)
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("op", -1, 1), ("inner", 0, 1)]
    assert tr.counters == {"x": 3}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
