"""One worker process of a benchmark run: set-up, timed phase, checks.

Usage: worker.py --workload W --seed S --seconds T --trace 0|1 --index I

One closed-loop caller on one thread: each op starts when the previous
one has returned. Set-up (importing the package, loading the cases,
writing the scenario files CLI ops read, making the op stream and one
untimed warm-up op of each kind) ends when the first timed op starts;
the worker reports that instant on the shared monotonic clock so that
run.py can time set-up from the spawn.

Each output is checked right after its op, outside the timed region;
in the traced phase, after the tracer is removed, so that the checks'
own calls into the package are not traced. The last line of stdout is
one JSON object with the results.

With --trace 1 the timed phase has two halves: the first untraced, the
second traced. The ratio of their op rates is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

import cases  # noqa: E402
import checks  # noqa: E402


def load_reference() -> tuple[list[dict], list]:
    with open(REFERENCE) as fh:
        data = json.load(fh)
    return data["cases"], data["outputs"]


def _warmup_ops(workload: str, seed: int, pool) -> list[tuple[str, dict]]:
    """One op of each kind the workload sends, from a stream the timed one never sees."""
    kinds, ops = cases.op_kinds(workload, pool), {}
    for op_kind, case in cases.op_stream(workload, seed + 1, pool):
        ops.setdefault(op_kind, case)
        if len(ops) == len(kinds):
            return list(ops.items())
    raise AssertionError("unreachable: the stream is endless")


class Phase:
    """Latencies, busy time per op kind and verdicts of one timed phase.

    A verdict is "ok"; "defect", a malformed input that did what it did
    when the reference was captured (counted, and not a failure);
    "failed", an op that raised or did something else undocumented; or
    "wrong", a failed op whose output is wrong, which makes the run
    incorrect.

    Only the latency array grows with the op count (8 bytes an op), so
    the harness's own memory barely moves the peak RSS.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.kind_s: dict[str, float] = {}
        self.failed = 0
        self.wrong = 0
        self.defects = 0
        self.failures: dict[str, int] = {}
        self.defect_kinds: dict[str, int] = {}
        self.wall_s = 0.0

    def add(self, kind: str, latency: float) -> None:
        self.latencies.append(latency)
        self.kind_s[kind] = self.kind_s.get(kind, 0.0) + latency

    def judged(self, verdict: tuple[str, str]) -> None:
        status, label = verdict
        if status == "defect":
            self.defects += 1
            self.defect_kinds[label] = self.defect_kinds.get(label, 0) + 1
        elif status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            self.failures[label] = self.failures.get(label, 0) + 1

    def as_dict(self) -> dict:
        return {**vars(self), "latencies": self.latencies.tolist()}


def run_phase(stream, call, judge, seconds: float, tracer=None, first_op_id: int = 0) -> Phase:
    """Closed loop until the deadline. Outputs are judged between ops,
    outside the timed region; under a tracer, after the tracer is gone."""
    phase, pending = Phase(), []
    start = perf_counter()
    deadline = start + seconds
    op_id = first_op_id
    try:
        while True:
            op_kind, case = next(stream)
            span = tracer.begin_op(op_id, op_kind) if tracer else None
            t0 = perf_counter()
            try:
                out, err = call(case), None
            except Exception as exc:  # a failed op is recorded, and the loop goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer:
                tracer.end_op(span)
                pending.append((op_kind, case, out, err))
            else:
                phase.judged(judge(op_kind, case, out, err))
            phase.add(op_kind, t1 - t0)
            op_id += 1
            if t1 >= deadline:
                break
        phase.wall_s = perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    for item in pending:
        phase.judged(judge(*item))
    return phase


# ---------------------------------------------------------------- calls


def write_scenario_files(pool: list[dict], directory: Path) -> list[str]:
    """Write the documents that "@<n>" CLI arguments name; returns their paths."""
    files = []
    for i, doc in enumerate(cases.scenario_docs(pool)):
        path = directory / f"s{i}.json"
        path.write_text(json.dumps(doc))
        files.append(str(path))
    return files


def cli_argv(case: dict, files: list[str]) -> list[str]:
    return [files[int(x[1:])] if x.startswith("@") else x for x in case["args"]["argv"]]


def cli_in_process(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of ``qkdlimits.cli.main(argv)``, run in this
    process. An exception main lets through ends the process with exit 1
    and a traceback, as ``python -m qkdlimits`` would."""
    from qkdlimits import cli  # cli.main is looked up per call, so a traced run sees its wrapper

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what the process would print before exiting
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
            code = 1
    return [code, out.getvalue(), err.getvalue()]


def make_caller(ops, files: list[str]):
    def call(case):
        if case["kind"].startswith("cli_"):
            return cli_in_process(cli_argv(case, files))
        return ops.call(case)

    return call


def make_judge(outputs, pool, ops):
    docs = cases.scenario_docs(pool)

    def judge(op_kind, case, out, err) -> tuple[str, str]:
        label = f"{op_kind} {case['group']}"
        ref = outputs[case["id"]]
        if op_kind == "malformed":
            outcome = checks.library_outcome(out, err)
            return checks.malformed_status(outcome, checks.LIBRARY_DOCUMENTED, ref), f"{label}: {outcome}"
        if err is not None:
            return "wrong", f"{label}: {err}"
        if op_kind == "cli_malformed":
            outcome = checks.cli_outcome(out[0], out[2])
            return checks.malformed_status(outcome, checks.CLI_DOCUMENTED, ref), f"{label}: {outcome}"
        if op_kind.startswith("cli_"):
            ok = checks.matches_reference(case, out[:2], ref, docs)
            return ("ok" if ok else "wrong"), f"{label}: wrong output (exit {out[0]})"
        ok = checks.matches_reference(case, out, ref) and checks.independent_check(
            case, out, ops.fiber_qber_at
        )
        return ("ok" if ok else "wrong"), f"{label}: wrong output"

    return judge


def _setup(workload: str, seed: int, tmp: Path, result: dict):
    sys.path.insert(0, str(SRC))
    # The CLI module first: its import is what a CLI user waits for.
    t0 = perf_counter()
    import qkdlimits.cli  # noqa: F401

    result["cli_import_s"] = perf_counter() - t0
    result["cli_numpy_loaded"] = "numpy" in sys.modules
    import ops

    pool, outputs = load_reference()
    files = write_scenario_files(pool, tmp) if "cli" in cases.CYCLES[workload] else []
    call = make_caller(ops, files)
    for _kind, case in _warmup_ops(workload, seed, pool):
        try:
            call(case)
        except Exception:  # its outcome is judged in the timed phase, not here
            pass
    return call, make_judge(outputs, pool, ops), pool


# ---------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    result: dict = {}
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        call, judge, pool = _setup(args.workload, args.seed, tmp, result)
        stream = cases.op_stream(args.workload, args.seed, pool)
        # The set-up objects live as long as the worker; keep the
        # collector from rescanning them during the timed phase.
        gc.collect()
        gc.freeze()
        result["first_op_at"] = perf_counter()
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases = [run_phase(stream, call, judge, seconds)]
        if args.trace:
            import tracing

            spans_dir = OUT_DIR / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer = tracing.Tracer()
            tracer.install()
            phases.append(run_phase(stream, call, judge, seconds, tracer=tracer,
                                    first_op_id=len(phases[0].latencies)))
            tracer.write_spans(spans_dir / f"{args.workload}-{args.index}.jsonl")
            result["trace"] = tracer.summary()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result["phases"] = [p.as_dict() for p in phases]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
