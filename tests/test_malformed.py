"""Malformed scenarios: every field of every shipped scenario set to each
of a fixed list of wrong values.

The library raises nothing but QkdLimitError subclasses, and the CLI's
run never exits 3 or lets an exception through. A value of the wrong
type is a ValidationError (exit 1) that names the field. Validity is
settled at parse time, so a malformed link is reported even when the
detector is infeasible, by run and by sweep alike.
"""

import contextlib
import copy
import io
import json
import math
import pathlib

import pytest

from qkdlimits import QkdLimitError, ValidationError, parse_scenario, run_scenario
from qkdlimits.cli import main

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
VALUES = (None, "x", -1.0, math.nan, [], {}, True, 2.5, 10**400)


def _sites(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _sites(value, path + (key,))


def _label(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _set(doc: dict, path, value) -> dict:
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


def _library(doc: dict):
    try:
        run_scenario(parse_scenario(doc))
    except QkdLimitError as exc:
        return exc
    return None


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _wrong_type(old, new) -> bool:
    """new cannot stand where old stood: a non-number for a number, or a
    section replaced by anything but null or a section of its own type."""
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        return not isinstance(new, (int, float)) or isinstance(new, bool)
    if isinstance(old, (dict, list)):
        return new is not None and type(new) is not type(old)
    return False


def _mutants():
    """(path, site, old value, mutated document) for every field of the
    shipped scenarios and every value of VALUES; a field path shared by
    several scenarios is mutated in the first only."""
    seen = set()
    for file in sorted(SCENARIOS.glob("*.json")):
        base = json.loads(file.read_text())
        for path, old in _sites(base):
            if path in seen:
                continue
            seen.add(path)
            for value in VALUES:
                site = f"{file.name}: {_label(path)}={value!r}"
                yield path, site, old, value, _set(base, path, value)


def test_every_field_set_to_every_wrong_value(tmp_path):
    path_file = tmp_path / "mutant.json"
    problems = []
    for path, site, old, value, doc in _mutants():
        try:
            outcome = _library(doc)
            path_file.write_text(json.dumps(doc))
            code = _cli(["run", str(path_file), "--no-timestamp"])
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            problems.append(f"{site}: {type(exc).__name__}: {exc}")
            continue
        if code == 3:
            problems.append(f"{site}: CLI exit 3 ({outcome!r})")
        if isinstance(outcome, ValidationError) != (code == 1):
            problems.append(f"{site}: library {outcome!r} but CLI exit {code}")
        # curvature_m is the one number field where null is a value.
        if _wrong_type(old, value) and (value, path[-1]) != (None, "curvature_m"):
            if not isinstance(outcome, ValidationError):
                problems.append(f"{site}: accepted or {outcome!r}, not a ValidationError")
            elif _label(path) not in str(outcome):
                problems.append(f"{site}: message does not name the field: {outcome}")
        if path[0] == "link" and isinstance(outcome, ValidationError):
            twin = _set(doc, ("detector", "e_det"), 0.45)
            if not isinstance(_library(twin), ValidationError):
                problems.append(f"{site}: infeasible detector hides the malformed link")
            path_file.write_text(json.dumps(twin))
            argv = ["sweep", str(path_file), "--param", "y0", "--from", "1e-9",
                    "--to", "0.5", "--points", "11"]
            if _cli(argv) != 1:
                problems.append(f"{site}: sweep with an infeasible detector does not exit 1")
    assert not problems, "\n".join(problems)


# A value of the right type that its model rejects, and the path of the
# object that holds it: the model's message follows that path.
_MODEL_ERRORS = [
    ("fiber_2mub_single_photon.json", ("link", "alpha_db_per_km"), -1, "link"),
    ("freespace_ground_2mub.json", ("link", "beam", "w0_m"), -1, "link.beam"),
    ("fiber_2mub_single_photon.json", ("detector", "y0"), 2, "detector"),
    ("fiber_2mub_attenuated_mu03.json", ("source", "mu"), -1, "source"),
    ("fiber_2mub_single_photon.json", ("source", "k"), 0, "source"),
    ("satellite_2mub.json", ("link", "zenith_angle_rad"), 2, "link"),
    ("fiber_2mub_decoy.json", ("source", "probabilities"), [1.0, 0.5, 0.5], "source"),
    ("repeater_chain.json", ("chain", "links", 0), [1.0, 1.0, 0.0, 0.0], "chain.links[0]"),
    ("repeater_chain.json", ("chain", "links"), [], "chain"),
]


@pytest.mark.parametrize(
    "name, path, value, where", _MODEL_ERRORS, ids=[_label(c[1]) for c in _MODEL_ERRORS]
)
def test_a_value_its_model_rejects_names_its_path(tmp_path, capsys, name, path, value, where):
    doc = _set(json.loads((SCENARIOS / name).read_text()), path, value)
    file = tmp_path / "mutant.json"
    file.write_text(json.dumps(doc))
    assert main(["run", str(file), "--no-timestamp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario field {where}: "), err
    assert err.count("scenario field") == 1
