"""Golden CLI output: byte-identical stdout and exit codes.

Each case runs ``qkdlimits.cli.main`` with ``--no-timestamp`` and
compares stdout and the exit code with the copy stored in
``golden/cli_outputs.json``. Refactors of the scenario and CLI layers
must leave every stored output unchanged. After a deliberate change of
output, rewrite the file with ``python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from qkdlimits import cli

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_outputs.json"
SCENARIOS = HERE.parent / "scenarios"

_SWEEP = ["--param", "y0", "--from", "1e-10", "--to", "1e-4", "--points", "61", "--scale", "log"]
_BEAM = ["--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25"]
# The beam and atmosphere flags left out take the CLI defaults, which the
# stored outputs pin.
_FLAG_CASES = [
    ["max-distance", "fiber", "--mub", "2", "--y0", "1e-6", "--e-det", "0.01", "--mu", "0.3"],
    ["max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01", "--eta-eff", "0.6", *_BEAM],
    ["max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
     "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5"],
    ["max-distance", "satellite", "--mub", "2", "--y0", "1e-7", "--e-det", "0.02", "--mu", "0.5",
     "--zenith-angle", "0.5", *_BEAM],
    ["thresholds", "--y0", "1e-5", "--e-det", "0.01"],
    ["channel", "--p", "0.9", "0.05", "0.03", "0.02"],
    ["qber", "--ex", "0.05", "--ez", "0.04"],
    # A diverging beam is bisected, not sent to the far-field envelope.
    ["max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
     "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5", "--curvature=-1e6"],
    # The same beam with the value as its own token: argparse alone would
    # take -1e6 for a flag.
    ["max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
     "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5", "--curvature", "-1e6"],
]
# Sweeps whose points change the source or the detector efficiency, so the
# bisection's guard runs per point; the e_det sweep crosses the 1/4 limit.
_GUARD_SWEEPS = [
    ["freespace_ground_2mub.json", "--param", "eta_eff", "--from", "1e-4", "--to", "1",
     "--points", "41", "--scale", "log"],
    ["freespace_ground_2mub.json", "--param", "mu", "--from", "1e-3", "--to", "5",
     "--points", "41", "--scale", "log"],
    ["satellite_2mub.json", "--param", "e_det", "--from", "0", "--to", "0.3",
     "--points", "31", "--scale", "linear"],
]


def _cases() -> list[list[str]]:
    cases = []
    for path in sorted(SCENARIOS.glob("*.json")):
        for fmt in ("json", "table", "csv"):
            cases.append(["run", path.name, "--format", fmt])
    cases.append(["repeater", "repeater_chain.json"])
    for name in ("fiber_2mub_single_photon.json", "freespace_ground_2mub.json"):
        cases.append(["sweep", name, *_SWEEP])
    cases.extend(["sweep", *argv] for argv in _GUARD_SWEEPS)
    cases.extend(argv + ["--format", "json"] for argv in _FLAG_CASES)
    return [argv + ["--no-timestamp"] for argv in cases]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(SCENARIOS / a) if a.endswith(".json") else a for a in argv])
    return code, out.getvalue()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def test_golden_file_covers_every_case():
    stored = json.loads(GOLDEN.read_text())
    assert sorted(stored) == sorted(_key(a) for a in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=_key)
def test_cli_output_is_unchanged(argv):
    want = json.loads(GOLDEN.read_text())[_key(argv)]
    code, out = _run(argv)
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    stored = {}
    for argv in _cases():
        code, out = _run(argv)
        stored[_key(argv)] = {"exit": code, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(stored)} cases to {GOLDEN}")
