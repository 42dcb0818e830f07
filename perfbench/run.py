"""qkdlimits benchmark: one workload, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verdicts,sweeps,montecarlo} \\
        --seed N --seconds T --trace {0,1}

Workloads:

- verdicts: one-shot questions through pauli, qber, detection,
  repeater and scenario (parse + run on variants of every link kind),
  with a fixed 1/8 share of malformed scenarios.
- sweeps: sweep_scenario over y0, e_det, eta_eff, mu and alpha on every
  link kind, plus distance.dark_count_sweep; one op is one sweep call.
  Every fourth op is instead one ``qkdlimits.cli.main`` call, in-process,
  cycling through the seven subcommands and malformed scenario files.
- montecarlo: the attack estimators, single-block (1e5 trials) and
  multi-block (1e6 trials, four blocks) calls.

A run starts WORKERS fresh worker processes one after another; each
has its own set-up and measures seconds/WORKERS of closed-loop ops on
one thread. The workers' inputs come from the seed: every run sends
the same cases equally often, in an order the seed shuffles (see
cases.op_stream), so runs differ by the machine, not by their inputs.
Metrics:

- setup_s: median over the workers of the time from spawn to the first
  timed op (interpreter start, imports, inputs, one warm-up op per kind);
- ops_per_s: ops completed per second spent in ops (the caller's
  checking between ops is not counted);
- op_p50_us: median op latency;
- op_tail_us: latency at the highest percentile that still has at
  least 10 samples above it, capped at p99 (beyond p99 a run of 10^5
  ops reads single scheduling hiccups); the percentile and sample count
  are printed;
- peak_rss_mb: largest resident set of any process the run started.

Printed besides, and carried in the result line as ``failed`` of
``attempted``: failed ops, with the failing input kinds. A malformed
input whose outcome is not the documented one (ValidationError, exit 1)
but is the one recorded when reference.json was captured is a known
defect of the package: it is printed with its kind as ``seed_defects``,
and not counted as failed. Any other undocumented outcome fails.

With --trace 1 the result line carries the per-layer metrics instead;
see tracing.py. Every run also writes its full record, with a header
(git sha, Python and numpy versions, nproc, load average, seed, op
count), to .perfbench/result-<workload>-<seed>-<trace>.json.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Exits 2 without a result when the package source is
missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKERS = 3
TAIL_SAMPLES_ABOVE = 10
TAIL_MAX_PERCENTILE = 99.0

sys.path.insert(0, str(HERE))
import cases  # noqa: E402
import tracing  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us", "peak_rss_mb": "MB",
}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _run_worker(args, index: int, seconds: float) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(cases.child_seed(args.seed, index)), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--index", str(index)]
    spawned = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {index} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["first_op_at"] - spawned


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile, up to p99, that
    still has TAIL_SAMPLES_ABOVE samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = min(max(n - TAIL_SAMPLES_ABOVE - 1, 0), math.ceil(TAIL_MAX_PERCENTILE / 100 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(phases: list[dict], setups: list[float], peak_rss_kb: int) -> tuple[dict, float]:
    """The end-to-end metrics, and the percentile op_tail_us reads."""
    latencies = [x for p in phases for x in p["latencies"]]
    tail_s, tail_pct = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_us": statistics.median(latencies) * 1e6,
        "op_tail_us": tail_s * 1e6,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, tail_pct


def _rate(phases: list[dict]) -> float:
    return sum(len(p["latencies"]) for p in phases) / sum(sum(p["latencies"]) for p in phases)


def per_layer(results: list[dict], workload: str) -> tuple[dict, list[str]]:
    merged = tracing.merge([r["trace"] for r in results])
    untraced = _rate([r["phases"][0] for r in results])
    traced = _rate([r["phases"][1] for r in results])
    extra = {"trace.overhead_ratio": traced / untraced}
    extra["cli.import_s"] = statistics.median(r["cli_import_s"] for r in results)
    extra["cli.numpy_loaded_ratio"] = sum(r["cli_numpy_loaded"] for r in results) / len(results)
    return tracing.per_layer_metrics(merged, extra), merged["missing"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM, so that subprocess.run kills the worker it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in (ROOT / "src" / "qkdlimits" / "__init__.py", HERE / "reference.json"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a qkdlimits checkout", file=sys.stderr)
            return 2

    header = {
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": _numpy_version(),
        "nproc": os.cpu_count(), "loadavg_start": _loadavg(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workers": WORKERS,
    }
    results, setups = [], []
    for i in range(WORKERS):
        result, setup = _run_worker(args, i, args.seconds / WORKERS)
        results.append(result)
        setups.append(setup)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    header["loadavg_end"] = _loadavg()

    phases = [p for r in results for p in r["phases"]]
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    defects = sum(p["defects"] for p in phases)
    correct = all(p["wrong"] == 0 for p in phases)
    header["timed_ops"] = attempted
    failures: Counter = Counter()
    defect_kinds: Counter = Counter()
    kinds_s: Counter = Counter()
    for p in phases:
        failures.update(p["failures"])
        defect_kinds.update(p["defect_kinds"])
        kinds_s.update(p["kind_s"])
    busy = sum(kinds_s.values())

    lines = [f"# qkdlimits benchmark: {args.workload}, seed {args.seed}, trace {args.trace}"]
    lines += [f"#   {k}: {v}" for k, v in header.items()]
    record = {"header": header, "failures": dict(failures), "seed_defects": dict(defect_kinds)}
    if args.trace:
        values, missing = per_layer(results, args.workload)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        for name, unit in tracing.PER_LAYER:
            note = "" if values[name] else "  (absent: this workload does not reach it)"
            lines.append(f"{name:42s} {values[name]:.6g} {unit}{note}")
        if missing:
            lines.append(f"# entry points not found, so not traced: {', '.join(missing)}")
    else:
        values, pct = end_to_end(phases, setups, peak_rss_kb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, unit in END_TO_END_UNITS.items():
            lines.append(f"{name:14s} {values[name]:.6g} {unit}")
        lines.append(f"#   op_tail_us is p{pct:.4g} of {attempted} samples")
        record["tail_percentile"] = pct
    lines.append(f"{'failed_ratio':14s} {failed / attempted:.6g} (failed {failed} of {attempted})")
    lines += [f"#   failed x{n}: {label}" for label, n in failures.most_common()]
    lines.append(f"{'seed_defects':14s} {defects / attempted:.6g} (known defects {defects} of {attempted}:"
                 " malformed inputs that still do what they did when reference.json was captured)")
    lines += [f"#   seed defect x{n}: {label}" for label, n in defect_kinds.most_common()]
    lines += [f"#   share of timed work, {k}: {v / busy:.4f}" for k, v in sorted(kinds_s.items())]
    lines.append(f"correct        {correct}")
    print("\n".join(lines))

    record.update(metrics=metrics, correct=correct, attempted=attempted, failed=failed,
                  setups_s=setups, kind_share={k: v / busy for k, v in kinds_s.items()})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
