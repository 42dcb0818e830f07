"""Regenerate reference.json: the case pool and the package's outputs.

Usage: python3 perfbench/capture.py

Run at the commit whose outputs are the reference. CLI cases are run as
``python -m qkdlimits`` processes, the way a user runs them; the
benchmark itself calls ``qkdlimits.cli.main`` in-process and must get
the same output. The self-tests in perfbench/tests check that the
stored outputs still match.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import checks  # noqa: E402
import ops  # noqa: E402
from worker import OUT_DIR, REFERENCE, SRC, cli_argv, write_scenario_files  # noqa: E402


class CliCaller:
    """Runs a CLI case as a ``python -m qkdlimits`` process."""

    def __init__(self, files: list[str]) -> None:
        self.files = files
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, case: dict) -> list:
        proc = subprocess.run([sys.executable, "-m", "qkdlimits"] + cli_argv(case, self.files),
                              capture_output=True, text=True, env=self.env, timeout=60)
        return [proc.returncode, proc.stdout, proc.stderr]


def compute(pool: list[dict]) -> list:
    """Output of every case, in pool order; for a malformed case, its outcome."""
    outputs = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        caller = CliCaller(write_scenario_files(pool, Path(tmp)))
        for case in pool:
            if case["kind"] == "cli_malformed":
                code, _stdout, stderr = caller(case)
                outputs.append(checks.cli_outcome(code, stderr))
            elif case["kind"] == "malformed":
                try:
                    out, err = ops.call(case), None
                except Exception as exc:  # the outcome is recorded, whatever it is
                    out, err = None, f"{type(exc).__name__}: {exc}"
                outputs.append(checks.library_outcome(out, err))
            elif case["kind"].startswith("cli_"):
                code, stdout, stderr = caller(case)
                if "Traceback" in stderr:
                    raise RuntimeError(f"case {case['id']} crashed: {stderr}")
                outputs.append([code, stdout])
            else:
                outputs.append(ops.call(case))
    return outputs


def main() -> int:
    pool = cases.build_pool()
    data = {"pool_seed": cases.POOL_SEED, "cases": pool, "outputs": compute(pool)}
    REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {len(pool)} cases to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
