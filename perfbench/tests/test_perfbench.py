"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import capture  # noqa: E402
import cases  # noqa: E402
import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import qkdlimits  # noqa: E402
import qkdlimits.cli  # noqa: E402,F401  (its imported names are traced too)


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


def _stream(workload, seed, pool, count=300):
    stream = cases.op_stream(workload, seed, pool)
    return [(kind, json.dumps(case, sort_keys=True)) for kind, case in (next(stream) for _ in range(count))]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_inputs_are_fixed_by_the_seed(reference, workload):
    pool, _ = reference
    assert _stream(workload, 5, pool) == _stream(workload, 5, pool)
    assert _stream(workload, 5, pool) != _stream(workload, 6, pool)


def test_op_kind_mix_does_not_depend_on_the_seed(reference):
    pool, _ = reference
    def group(kind, case):
        return kind if kind in cases.SINGLE_GROUP_KINDS else json.loads(case)["group"]

    kinds = [[(k, group(k, c)) for k, c in _stream("sweeps", s, pool, 90)] for s in (1, 2)]
    assert kinds[0] == kinds[1]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_case_is_sent_equally_often(reference, workload):
    pool, _ = reference
    kinds = set(cases.op_kinds(workload, pool))
    sendable = sorted(c["id"] for c in pool if c["kind"] in kinds)
    stream = cases.op_stream(workload, random.randrange(1000), pool)
    sent = [next(stream)[1]["id"] for _ in range(20 * len(sendable))]
    counts = {i: sent.count(i) for i in sendable}
    # Groups differ in size, so a case is sent as often as its group's
    # turns allow; within one group the counts differ by at most one.
    by_group = {}
    for c in pool:
        if c["id"] in counts:
            group = c["kind"] if c["kind"] in cases.SINGLE_GROUP_KINDS else c["group"]
            by_group.setdefault((c["kind"], group), []).append(counts[c["id"]])
    assert min(counts.values()) >= 1
    assert all(max(v) - min(v) <= 1 for v in by_group.values())


def test_stored_pool_is_the_generated_pool(reference):
    pool, _ = reference
    assert json.loads(json.dumps(cases.build_pool())) == pool


def test_in_process_reference_outputs_match(reference):
    pool, outputs = reference
    for case, ref in zip(pool, outputs):
        if case["kind"].startswith("cli_") or case["kind"] == "malformed":
            continue
        out = json.loads(json.dumps(ops.call(case)))
        assert checks.matches_reference(case, out, ref), case["id"]
        assert checks.independent_check(case, out, ops.fiber_qber_at), case["id"]


def test_malformed_outcomes_match(reference):
    pool, outputs = reference
    judge = worker.make_judge(outputs, pool, ops)
    seen = set()
    for case, ref in zip(pool, outputs):
        if case["kind"] != "malformed":
            continue
        try:
            out, err = ops.call(case), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        assert checks.library_outcome(out, err) == ref, case["group"]
        seen.add(judge("malformed", case, out, err)[0])
    # The seed commit has known defects besides the documented outcome.
    assert seen == {"ok", "defect"}


def test_in_process_cli_matches_the_cli_process(reference, tmp_path):
    pool, outputs = reference
    docs = cases.scenario_docs(pool)
    files = worker.write_scenario_files(pool, tmp_path)
    judge = worker.make_judge(outputs, pool, ops)
    process = capture.CliCaller(files)
    first_of_kind = {}
    for case, ref in zip(pool, outputs):
        if not case["kind"].startswith("cli_"):
            continue
        first_of_kind.setdefault(case["kind"], (case, ref))
        out = worker.cli_in_process(worker.cli_argv(case, files))
        assert judge(case["kind"], case, out, None)[0] in ("ok", "defect"), case["args"]["argv"]
    assert len(first_of_kind) == 8
    for case, ref in first_of_kind.values():
        out = process(case)
        if case["kind"] == "cli_malformed":
            assert checks.cli_outcome(out[0], out[2]) == ref
        else:
            assert checks.matches_reference(case, out[:2], ref, docs), case["args"]["argv"]


def test_frozen_monte_carlo_values_are_in_the_reference(reference):
    pool, outputs = reference
    found = {
        c["args"]["mub_count"]: out[0]
        for c, out in zip(pool, outputs)
        if c["kind"] in ("mc_ir2_1e5", "mc_ir3_1e5") and c["args"]["seed"] == 12345
    }
    assert found == {2: 0.25217, 3: 0.33568}


def test_comparison_tolerances():
    doc = {"link": {"kind": "satellite"}}
    case = {"kind": "scenario", "args": {"doc": doc}}
    ref = {"d_max_km": 1.0, "eta_channel_at_d_max": 1e-8}
    assert checks.matches_reference(case, {"d_max_km": 1.0 + 5e-10, "eta_channel_at_d_max": 1.000001e-8}, ref)
    assert not checks.matches_reference(case, {"d_max_km": 1.0 + 5e-9, "eta_channel_at_d_max": 1e-8}, ref)
    sweep = {"kind": "sweep", "args": {"doc": doc}}
    assert checks.matches_reference(sweep, [[1e-9, 1.0 + 5e-10, True]], [[1e-9, 1.0, True]])
    assert not checks.matches_reference(sweep, [[1e-9, 1.0 + 5e-9, True]], [[1e-9, 1.0, True]])
    mc = {"kind": "mc_ir2_1e5", "args": {}}
    assert not checks.matches_reference(mc, [math.nextafter(0.25217, 1.0), 0.0], [0.25217, 0.0])


def _snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "qkdlimits" or name.startswith("qkdlimits.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    snap["PauliDistribution.__init__"] = qkdlimits.pauli.PauliDistribution.__init__
    return snap


def test_trace_restores_every_wrapped_name():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for mod, attr in (("qkdlimits.scenario", "max_distance_numeric"),
                          ("qkdlimits.pauli", "choi_state"), ("qkdlimits.cli", "capacity_verdict"),
                          ("qkdlimits", "capacity_verdict")):
            assert getattr(sys.modules[mod], attr) is not before[(mod, attr)]
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_trace_self_time_and_counts(reference):
    pool, _ = reference
    case = next(c for c in pool if c["kind"] == "scenario" and c["group"] == "satellite"
                and "solver" not in c["args"]["doc"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.begin_op(0, "scenario")
        ops.call(case)
        tracer.end_op(span)
    finally:
        tracer.restore()
    s = tracer.summary()
    assert s["calls"]["scenario.parse"] == 1
    assert s["calls"]["scenario.run"] == 1  # run_scenario and distance_analysis share one span
    assert s["calls"]["distance.bisection"] == 1
    assert s["calls"]["links.model"] > 0 and s["calls"]["detection.detection_probability"] > 0
    assert all(v >= -1e-9 for v in s["self_s"].values())
    root = tracer.spans[0]
    total_self = sum(s["self_s"][k] for k in s["self_s"] if k not in ("links.model", "detection.detection_probability"))
    assert total_self <= root[4] - root[3]


def test_tail_is_the_highest_percentile_with_ten_samples_above_up_to_p99():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(5000)]) == (4949.0, 99.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_reports_the_declared_metrics(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verdicts", "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
