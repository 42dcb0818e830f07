"""Malformed scenarios: every field of every shipped scenario set to each
of a fixed list of wrong values.

The library raises nothing but QkdLimitError subclasses, and the CLI's
run never exits 3 or lets an exception through. A value of the wrong
type is a ValidationError (exit 1) that names the field. Validity is
settled at parse time, so a malformed link is reported even when the
detector is infeasible, by run and by sweep alike.

Called directly, every model field and public scalar argument refuses a
value that is not a finite number of its kind with a ValidationError
whose .field names it, and takes a numpy number as it takes a float. An
argument that must be a sequence refuses a value that is not iterable
the same way.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from qkdlimits import (
    AttackConfig,
    Attenuated,
    BeamGeometry,
    ChainSpec,
    Decoy,
    DetectorModel,
    FiberLink,
    GroundAtmosphere,
    PauliDistribution,
    QberSet,
    QkdLimitError,
    SatellitePath,
    ScenarioLink,
    SinglePhoton,
    ValidationError,
    best_case_intensity,
    binary_entropy,
    capacity_verdicts,
    dark_count_sweep,
    decoy_expected_qber,
    depolarizing,
    detection_probability,
    gamma_threshold,
    k_photon_transmissivity,
    omega,
    parse_scenario,
    pauli_channel_qber_montecarlo,
    pauli_from_qbers_2mub_worstcase,
    run_scenario,
    satellite_slant_distance_km,
    security_verdict,
    sweep_scenario,
)
from qkdlimits.cli import _cmd_channel, main
from qkdlimits.distance import distance_bounds
from qkdlimits.links import LINK_PARTS

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
    # Each document gets a file of its own: rewriting one file truncates
    # it, which on some file systems costs tens of milliseconds a time.
    problems = []
    for i, (path, site, old, value, doc) in enumerate(_mutants()):
        path_file = tmp_path / f"mutant{i}.json"
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
            twin_file = tmp_path / f"twin{i}.json"
            twin_file.write_text(json.dumps(twin))
            argv = ["sweep", str(twin_file), "--param", "y0", "--from", "1e-9",
                    "--to", "0.5", "--points", "11"]
            if _cli(argv) != 1:
                problems.append(f"{site}: sweep with an infeasible detector does not exit 1")
    assert not problems, "\n".join(problems)


# A value of the right type that its model rejects, and the path of the
# field that holds it (of the object, where no one field is at fault):
# the model's message follows that path.
_MODEL_ERRORS = [
    ("fiber_2mub_single_photon.json", ("link", "alpha_db_per_km"), -1, "link.alpha_db_per_km"),
    ("freespace_ground_2mub.json", ("link", "beam", "w0_m"), -1, "link.beam.w0_m"),
    ("fiber_2mub_single_photon.json", ("detector", "y0"), 2, "detector.y0"),
    ("fiber_2mub_attenuated_mu03.json", ("source", "mu"), -1, "source.mu"),
    ("fiber_2mub_single_photon.json", ("source", "k"), 0, "source.k"),
    ("satellite_2mub.json", ("link", "zenith_angle_rad"), 2, "link.zenith_angle_rad"),
    (
        "fiber_2mub_decoy.json", ("source", "probabilities"), [1.0, 0.5, 0.5],
        "source.probabilities",
    ),
    ("fiber_2mub_decoy.json", ("source", "intensities", 1), -1, "source.intensities[1]"),
    ("repeater_chain.json", ("chain", "links", 0), [1.0, 1.0, 0.0, 0.0], "chain.links[0]"),
    ("repeater_chain.json", ("chain", "links"), [], "chain"),
    ("fiber_2mub_single_photon.json", ("protocol", "mub_count"), 2.0, "protocol.mub_count"),
    (
        "fiber_2mub_single_photon.json", ("solver",), {"d_lo_km": 10.0, "d_hi_km": 1.0},
        "solver.d_hi_km",
    ),
    ("repeater_chain.json", ("chain", "links", 0, 1), 1.5, "chain.links[0][1]"),
    # QberSet reads e_y=None as a two-basis set; in a document it is a null number.
    ("repeater_chain.json", ("chain", "qbers", 0, "e_y"), None, "chain.qbers[0].e_y"),
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


def _decoy(**fields):
    return Decoy(**{"intensities": (0.5,), "probabilities": (1.0,), **fields})


_FIBER = parse_scenario(json.loads((SCENARIOS / "fiber_2mub_single_photon.json").read_text()))
_BEAM = dict(w0_m=1.0, wavelength_m=1.0, aperture_radius_m=1.0)
_DET = DetectorModel(0.0, 0.0)

# Every number a model field or a public scalar argument takes: a label,
# a call that puts the value there, the name its ValidationError gives,
# and a valid value that np.float32 and np.int64 hold exactly (None for
# an integer, which must be an int).
_NUMBER_SITES = [
    ("DetectorModel.y0", lambda v: DetectorModel(v, 0.0), "y0", 0.0),
    ("DetectorModel.e_det", lambda v: DetectorModel(0.0, v), "e_det", 0.0),
    ("DetectorModel.eta_eff", lambda v: DetectorModel(0.0, 0.0, v), "eta_eff", 1.0),
    ("SinglePhoton.k", lambda v: SinglePhoton(v), "k", None),
    ("Attenuated.mu", lambda v: Attenuated(v), "mu", 1.0),
    ("Decoy.intensities", lambda v: _decoy(intensities=(0.5, v), probabilities=(0.5, 0.5)),
     "intensities[1]", 0.0),
    ("Decoy.probabilities", lambda v: _decoy(probabilities=(v,)), "probabilities[0]", 1.0),
    ("Decoy.rep_rate_hz", lambda v: _decoy(rep_rate_hz=v), "rep_rate_hz", 0.0),
    ("Decoy.dead_time_s", lambda v: _decoy(dead_time_s=v), "dead_time_s", 0.0),
    ("FiberLink.alpha_db_per_km", lambda v: FiberLink(v), "alpha_db_per_km", 1.0),
    ("GroundAtmosphere.alpha0_per_km", lambda v: GroundAtmosphere(v), "alpha0_per_km", 1.0),
    ("GroundAtmosphere.scale_height_km", lambda v: GroundAtmosphere(scale_height_km=v),
     "scale_height_km", 1.0),
    ("GroundAtmosphere.altitude_km", lambda v: GroundAtmosphere(altitude_km=v),
     "altitude_km", 0.0),
    ("SatellitePath.zenith_angle_rad", lambda v: SatellitePath(v), "zenith_angle_rad", 1.0),
    ("SatellitePath.eta_zenith", lambda v: SatellitePath(eta_zenith=v), "eta_zenith", 1.0),
    ("BeamGeometry.w0_m", lambda v: BeamGeometry(**{**_BEAM, "w0_m": v}), "w0_m", 1.0),
    ("BeamGeometry.wavelength_m", lambda v: BeamGeometry(**{**_BEAM, "wavelength_m": v}),
     "wavelength_m", 1.0),
    ("BeamGeometry.aperture_radius_m",
     lambda v: BeamGeometry(**{**_BEAM, "aperture_radius_m": v}), "aperture_radius_m", 1.0),
    ("BeamGeometry.curvature_m", lambda v: BeamGeometry(**_BEAM, curvature_m=v),
     "curvature_m", -1.0),
    ("QberSet.e_x", lambda v: QberSet(v, 0.0), "e_x", 0.0),
    ("QberSet.e_z", lambda v: QberSet(0.0, v), "e_z", 1.0),
    ("QberSet.e_y", lambda v: QberSet(0.0, 0.0, v), "e_y", 0.0),
    ("AttackConfig.trials", lambda v: AttackConfig(2, v, 0), "trials", None),
    ("AttackConfig.seed", lambda v: AttackConfig(2, 1, v), "seed", None),
    ("AttackConfig.block_size", lambda v: AttackConfig(2, 1, 0, v), "block_size", None),
    ("k_photon_transmissivity.eta", lambda v: k_photon_transmissivity(v, 2), "eta", 1.0),
    ("k_photon_transmissivity.k", lambda v: k_photon_transmissivity(0.5, v), "k", None),
    ("detection_probability.eta", lambda v: detection_probability(SinglePhoton(), v), "eta", 0.0),
    ("decoy_expected_qber.eta", lambda v: decoy_expected_qber(v, _decoy(), _DET), "eta", 1.0),
    ("best_case_intensity.eta", lambda v: best_case_intensity(_decoy(), v, _DET), "eta", 1.0),
    ("dark_count_sweep.y0_values",
     lambda v: dark_count_sweep([v], _DET, SinglePhoton(), FiberLink(0.2), 2), "y0", 0.0),
    ("satellite_slant_distance_km.altitude_km", lambda v: satellite_slant_distance_km(v, 0.0),
     "altitude_km", 1.0),
    ("satellite_slant_distance_km.zenith_angle_rad",
     lambda v: satellite_slant_distance_km(1.0, v), "zenith_angle_rad", 0.0),
    ("depolarizing.strength", lambda v: depolarizing(v), "strength", 1.0),
    ("binary_entropy.x", lambda v: binary_entropy(v), "x", 1.0),
    ("security_verdict.assumed_p2", lambda v: security_verdict(QberSet(0.1, 0.1), v),
     "assumed_p2", 0.0),
    ("PauliDistribution.p", lambda v: PauliDistribution((0.5, v, 0.5, 0.0)), "p[1]", 0.0),
    ("pauli_from_qbers_2mub_worstcase.assumed_p2",
     lambda v: pauli_from_qbers_2mub_worstcase(QberSet(0.1, 0.1), v), "assumed_p2", 0.0),
    # The scale is checked after the points: a sweep that took 10**400
    # points would build its values without end, and this one builds none.
    ("sweep_scenario.points", lambda v: sweep_scenario(_FIBER, "y0", 1e-9, 1e-6, v, "none"),
     "points", None),
    ("sweep_scenario.start", lambda v: sweep_scenario(_FIBER, "y0", v, 1e-6, 2, "linear"),
     "start", 0.0),
    ("sweep_scenario.stop", lambda v: sweep_scenario(_FIBER, "y0", 0.0, v, 2, "linear"),
     "stop", 0.0),
    ("qkdlimits channel --p", lambda v: _cmd_channel(argparse.Namespace(p=[0.5, 0.5, v, 0.0])),
     "p[2]", 0.0),
]
_NOT_NUMBERS = {
    "True": True, "np.True_": np.True_, "'0.1'": "0.1", "b'0.1'": b"0.1",
    "10**400": 10**400, "nan": math.nan, "inf": math.inf,
    # Past Python's int-to-str digit limit, so its message gives its size.
    "10**5000": 10**5000,
}
_REFUSALS = [
    pytest.param(call, field, value, id=f"{label}-{shown}")
    for label, call, field, _ in _NUMBER_SITES
    for shown, value in _NOT_NUMBERS.items()
    # An infinite curvature_m is a collimated beam.
    if (field, shown) != ("curvature_m", "inf")
]


@pytest.mark.parametrize("call, field, value", _REFUSALS)
def test_a_number_outside_its_rule_names_its_field(call, field, value):
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert exc.value.field == field, exc.value
    assert str(exc.value).startswith(f"{field}="), exc.value


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
    reason="10**5000 has a repr without an int-to-str digit limit below 5001 digits",
)
def test_an_int_too_long_for_repr_is_shown_by_its_bits():
    with pytest.raises(ValidationError) as exc:
        SinglePhoton(10**5000)
    assert str(exc.value) == "k=<int of 16610 bits> is beyond float range"
    assert exc.value.field == "k"


_HUGE, _LONG = 10**5000, "x" * 10**6
_LONG_SHOWN = "'" + "x" * 17 + "..." + "x" * 18 + "'"
_DOC = json.loads((SCENARIOS / "fiber_2mub_single_photon.json").read_text())
_FIBER_POINT = (DetectorModel(1e-6, 0.01), ScenarioLink("fiber", fiber=FiberLink(0.2)))
# Each error text that quotes a value the caller gave, as a call that puts
# the value there and the text with {} for the quote. Every quote is
# errors.shown's: 10**5000, past Python's int-to-str digit limit, is
# given by its size, and a long str is abbreviated. Sites that quote a
# str with repr take _LONG too.
_QUOTES = [
    ("detection_probability", lambda v: detection_probability(v, 0.5),
     "unknown source model {}", True),
    ("omega", lambda v: omega(_FIBER_POINT[0], v, gamma_threshold(_FIBER_POINT[0], 2)),
     "unknown source model {}", True),
    ("distance_bounds", lambda v: distance_bounds([(v, *_FIBER_POINT)], 2),
     "unknown source model {}", True),
    ("ScenarioLink.kind", lambda v: ScenarioLink(v),
     "unknown link kind {}, expected one of " + str(tuple(LINK_PARTS)), True),
    ("sweep_scenario.param", lambda v: sweep_scenario(_FIBER, v, 1e-6, 1e-5, 3, "log"),
     "unknown sweep parameter {}, expected one of ('y0', 'e_det', 'eta_eff', 'mu', 'alpha')",
     True),
    ("sweep_scenario.scale", lambda v: sweep_scenario(_FIBER, "y0", 1e-6, 1e-5, 3, v),
     "scale must be 'log' or 'linear', got {}", True),
    ("pauli_channel_qber_montecarlo.mub_count",
     lambda v: pauli_channel_qber_montecarlo(depolarizing(0.1), v, AttackConfig(2, 1, 0)),
     "mub_count={} differs from cfg.mub_count=2", True),
    ("schema_version", lambda v: parse_scenario({**_DOC, "schema_version": v}),
     "scenario field schema_version: got {}, this build reads 1", False),
    ("a section", lambda v: parse_scenario({**_DOC, "source": v}),
     "scenario field source: expected an object, got {}", False),
    ("a kind", lambda v: parse_scenario({**_DOC, "source": {"kind": v}}),
     "scenario field source.kind: unknown source {}, expected one of "
     "('single_photon', 'attenuated', 'decoy')", False),
    ("an unknown key", lambda v: parse_scenario({**_DOC, v: 0}),
     "scenario field <root>: unknown keys [{}]", False),
]


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
    reason="10**5000 has a repr without an int-to-str digit limit below 5001 digits",
)
@pytest.mark.parametrize("call, text", [q[1:3] for q in _QUOTES], ids=[q[0] for q in _QUOTES])
def test_an_error_quotes_a_huge_int_by_its_size(call, text):
    with pytest.raises(ValidationError) as exc:
        call(_HUGE)
    assert str(exc.value) == text.format("<int of 16610 bits>")


@pytest.mark.parametrize(
    "call, text", [q[1:3] for q in _QUOTES if q[3]], ids=[q[0] for q in _QUOTES if q[3]]
)
def test_an_error_abbreviates_a_long_value(call, text):
    with pytest.raises(ValidationError) as exc:
        call(_LONG)
    assert str(exc.value) == text.format(_LONG_SHOWN)


@pytest.mark.parametrize(
    "call, valid",
    [(s[1], s[3]) for s in _NUMBER_SITES if s[3] is not None],
    ids=[s[0] for s in _NUMBER_SITES if s[3] is not None],
)
@pytest.mark.parametrize("kind", [np.float32, np.int64])
def test_a_numpy_number_stands_where_a_float_does(call, valid, kind):
    assert call(kind(valid)) == call(valid)


_THREE_BASES = QberSet(0.1, 0.1, 0.1)


@pytest.mark.parametrize("value", ["0.1", np.array([0.1, 0.2])], ids=repr)
def test_assumed_p2_that_is_not_a_number_is_refused_on_three_bases(value):
    # A number other than 0 gets the two-basis-only message; this is not one.
    with pytest.raises(ValidationError, match=r"^assumed_p2=.* is not a number$") as exc:
        security_verdict(_THREE_BASES, value)
    assert exc.value.field == "assumed_p2"


@pytest.mark.parametrize("value", [0.1, math.nan], ids=repr)
def test_assumed_p2_on_three_bases_names_its_field(value):
    with pytest.raises(ValidationError, match="^assumed_p2 applies only to two-basis sets$") as exc:
        security_verdict(_THREE_BASES, value)
    assert exc.value.field == "assumed_p2"


# A call that takes a sequence, given a value that is none, and the name
# of the argument its ValidationError gives.
_NOT_SEQUENCES = [
    pytest.param(lambda: PauliDistribution(5), "p", id="PauliDistribution(5)"),
    pytest.param(lambda: PauliDistribution(None), "p", id="PauliDistribution(None)"),
    pytest.param(lambda: Decoy(0.5, 1.0), "intensities", id="Decoy(0.5, 1.0)"),
    pytest.param(lambda: Decoy((0.5,), 1.0), "probabilities", id="Decoy((0.5,), 1.0)"),
    pytest.param(lambda: ChainSpec(links=5), "links", id="ChainSpec(links=5)"),
    pytest.param(
        lambda: ChainSpec(links=(PauliDistribution((1.0, 0.0, 0.0, 0.0)),), qbers=5),
        "qbers", id="ChainSpec(qbers=5)",
    ),
    pytest.param(lambda: capacity_verdicts(5), "ps", id="capacity_verdicts(5)"),
    pytest.param(
        lambda: dark_count_sweep(5, _DET, SinglePhoton(), FiberLink(0.2), 2), "y0_values",
        id="dark_count_sweep(5)",
    ),
]


@pytest.mark.parametrize("call, field", _NOT_SEQUENCES)
def test_a_sequence_argument_that_is_none_names_its_field(call, field):
    with pytest.raises(ValidationError, match=f"^{field}=.* is not a sequence$") as exc:
        call()
    assert exc.value.field == field
