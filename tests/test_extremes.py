"""Extreme in-range values through every public entry and the CLI.

Each number a caller gives is set, one at a time and then in seeded
random draws, to the values at the edges of float arithmetic: 0, the
smallest subnormal, 1e-300, the ends of the package's intervals and just
inside them, 1 and 1.7e308. Nothing but a QkdLimitError subclass may
escape a library call or cli.main, and every JSON document the CLI
prints must be strict JSON: no Infinity or NaN.
"""

import contextlib
import io
import json
import math
import pathlib
import random

import numpy as np

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
    QubitState,
    SatellitePath,
    ScenarioLink,
    SinglePhoton,
    apply_channel,
    atmospheric_transmissivity,
    beam_spot_size,
    best_case_intensity,
    binary_entropy,
    capacity_verdicts,
    chain_qber_verdict,
    chain_verdict,
    dark_count_sweep,
    decoy_expected_qber,
    depolarizing,
    detection_probability,
    diffraction_transmissivity,
    fiber_transmissivity,
    gamma_threshold,
    intercept_resend_qber_montecarlo,
    k_photon_transmissivity,
    max_diffraction_distance,
    max_distance_numeric,
    max_fiber_distance,
    omega,
    pauli_channel_qber_montecarlo,
    pauli_from_qbers,
    qber_attenuated,
    qber_k_photon,
    qbers_from_pauli,
    satellite_slant_distance_km,
    satellite_transmissivity,
    scenario_from_file,
    security_verdict,
    sweep_scenario,
)
from qkdlimits.cli import main
from qkdlimits.distance import distance_bounds

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
# The edges of float arithmetic and of the package's intervals ([0, 1),
# [0, 1/2), (0, 1], (0, inf), (-inf, inf) without 0, and the misalignment
# thresholds 1/4 and 1/3), each end and just inside it.
_ENDS = (0.25, 1 / 3, 0.5, 1.0)
EXTREMES = (
    0.0, 5e-324, 1e-300, *_ENDS, *(math.nextafter(x, 0.0) for x in _ENDS), 1.7e308,
    -5e-324, -1.7e308,
)
# Basis counts, photon numbers and seeds, up to 2**64 - 1 and float range.
INT_EXTREMES = (0, 1, 2, 3, 2**53 + 1, 2**64 - 1, int(1.7e308))
SEED = 20261022
DRAWS = 40


def _variants(base: dict, pools: dict, rng: random.Random):
    """base, then base with each key set to each value of its pool, then
    DRAWS seeded draws that each set three keys at once."""
    yield dict(base)
    for key, pool in pools.items():
        for value in pool:
            yield {**base, key: value}
    for _ in range(DRAWS):
        keys = rng.sample(sorted(pools), min(3, len(pools)))
        yield {**base, **{key: rng.choice(pools[key]) for key in keys}}


def _escape(label: str, call) -> str | None:
    """What escaped call(), other than a QkdLimitError, as a line naming label."""
    try:
        call()
    except QkdLimitError:
        pass
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        return f"{label}: {type(exc).__name__}: {exc}"
    return None


# Every number the library calls below take, and a valid value of each.
_LIBRARY = dict(
    y0=1e-6, e_det=0.01, eta_eff=0.5, mu=0.5, k=2, eta=0.5, d=10.0, alpha=0.2,
    alpha0=5e-3, scale_height=6.6, altitude=0.5, zenith=0.5, eta_zenith=0.9,
    w0=0.1, wavelength=8e-7, aperture=0.5, curvature=-1e6, rep_rate=1e9, dead_time=1e-8,
    p1=0.02, p2=0.01, p3=0.02, e_x=0.05, e_z=0.04, e_y=0.03, assumed_p2=0.0,
    d_lo=1e-3, d_hi=1e3, m=2, seed=7,
)
_INTS = {"k", "m", "seed"}


class _Models:
    """The models built from the values v, built anew on each call."""

    def __init__(self, v: dict):
        self.v = v

    def det(self):
        v = self.v
        return DetectorModel(v["y0"], v["e_det"], v["eta_eff"])

    def decoy(self):
        v = self.v
        return Decoy((v["mu"], v["eta"]), (0.5, 0.5), v["rep_rate"], v["dead_time"])

    def sources(self):
        return SinglePhoton(), SinglePhoton(self.v["k"]), Attenuated(self.v["mu"]), self.decoy()

    def beam(self, curved=True):
        v = self.v
        sizes = v["w0"], v["wavelength"], v["aperture"]
        return BeamGeometry(*sizes, v["curvature"]) if curved else BeamGeometry(*sizes)

    def atm(self):
        v = self.v
        return GroundAtmosphere(v["alpha0"], v["scale_height"], v["altitude"])

    def satellite(self):
        return SatellitePath(self.v["zenith"], self.v["eta_zenith"])

    def links(self):
        return (
            ScenarioLink("fiber", fiber=FiberLink(self.v["alpha"])),
            ScenarioLink("ground_atmosphere", atmosphere=self.atm()),
            ScenarioLink("diffraction", beam=self.beam()),
            ScenarioLink("diffraction", beam=self.beam(curved=False)),
            ScenarioLink("freespace", beam=self.beam(), atmosphere=self.atm()),
            ScenarioLink("satellite", beam=self.beam(), satellite=self.satellite()),
        )

    def pauli(self):
        p1, p2, p3 = self.v["p1"], self.v["p2"], self.v["p3"]
        return PauliDistribution((1.0 - p1 - p2 - p3, p1, p2, p3))

    def diagonal(self):
        return self.v["eta"], 1.0 - self.v["eta"]

    def qbers(self):
        v = self.v
        e_y = v["e_y"]  # read on two bases too, so that every variant of it runs
        return QberSet(v["e_x"], v["e_z"], e_y if v["m"] == 3 else None)


def _library_calls(v: dict):
    """(name, call) for each public entry, reading the values v."""
    o = _Models(v)

    def bounds(bracket):
        points = [(src, o.det(), link) for src in o.sources() for link in o.links()]
        return distance_bounds(points, v["m"], bracket)

    def omegas():
        g = gamma_threshold(o.det(), v["m"])
        for src in (SinglePhoton(), Attenuated(v["mu"]), o.decoy()):
            om = omega(o.det(), src, g)
            max_fiber_distance(FiberLink(v["alpha"]), om)
            max_diffraction_distance(o.beam(), om)

    def numeric():
        g = gamma_threshold(o.det(), v["m"])
        model = ScenarioLink("freespace", beam=o.beam(), atmosphere=o.atm()).transmissivity
        return max_distance_numeric(model, SinglePhoton(v["k"]), o.det(), g, v["d_lo"], v["d_hi"])

    def chain():
        spec = ChainSpec((o.pauli(), depolarizing(v["eta"])), (o.qbers(), o.qbers()))
        return chain_verdict(spec), chain_qber_verdict(spec)

    def monte_carlo():
        cfg = AttackConfig(v["m"], 64, v["seed"], 16)
        intercept_resend_qber_montecarlo(cfg)
        pauli_channel_qber_montecarlo(o.pauli(), v["m"], cfg)

    return [
        ("detection_probability",
         lambda: [detection_probability(s, v["eta"]) for s in o.sources()]),
        ("k_photon_transmissivity", lambda: k_photon_transmissivity(v["eta"], v["k"])),
        ("qber_k_photon", lambda: qber_k_photon(v["eta"], v["k"], o.det())),
        ("qber_attenuated", lambda: qber_attenuated(v["eta"], v["mu"], o.det())),
        ("decoy_expected_qber", lambda: decoy_expected_qber(v["eta"], o.decoy(), o.det())),
        ("best_case_intensity", lambda: best_case_intensity(o.decoy(), v["eta"], o.det())),
        ("omega", omegas),
        ("distance_bounds", lambda: bounds(None)),
        ("distance_bounds with a bracket", lambda: bounds((v["d_lo"], v["d_hi"]))),
        ("max_distance_numeric", numeric),
        ("dark_count_sweep", lambda: dark_count_sweep(
            [v["y0"], v["eta"]], o.det(), Attenuated(v["mu"]), FiberLink(v["alpha"]), v["m"])),
        ("fiber_transmissivity", lambda: fiber_transmissivity(FiberLink(v["alpha"]), v["d"])),
        ("atmospheric_transmissivity", lambda: atmospheric_transmissivity(o.atm(), v["d"])),
        ("beam_spot_size", lambda: beam_spot_size(o.beam(), v["d"])),
        ("diffraction_transmissivity", lambda: diffraction_transmissivity(o.beam(), v["d"])),
        ("link kernels", lambda: [link.transmissivity(v["d"]) for link in o.links()]),
        ("satellite_transmissivity", lambda: satellite_transmissivity(o.satellite())),
        ("satellite_slant_distance_km",
         lambda: satellite_slant_distance_km(v["altitude"], v["zenith"])),
        ("capacity_verdicts", lambda: capacity_verdicts([o.pauli(), depolarizing(v["eta"])])),
        ("apply_channel", lambda: apply_channel(o.pauli(), QubitState(np.diag(o.diagonal())))),
        ("binary_entropy", lambda: binary_entropy(v["eta"])),
        ("security_verdict", lambda: security_verdict(o.qbers(), v["assumed_p2"])),
        ("pauli_from_qbers", lambda: pauli_from_qbers(o.qbers(), v["assumed_p2"])),
        ("qbers_from_pauli", lambda: qbers_from_pauli(o.pauli())),
        ("chain verdicts", chain),
        ("Monte Carlo", monte_carlo),
    ]


class _Reads(dict):
    """A dict that records the keys read from it."""

    def __init__(self, values: dict):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_the_library_raises_only_its_own_errors():
    # Each entry runs once for each distinct set of the values it reads,
    # which the run on the valid values records.
    reads = {}
    for i, (name, _) in enumerate(_library_calls(_LIBRARY)):
        base = _Reads(_LIBRARY)
        _library_calls(base)[i][1]()
        reads[name] = sorted(base.read)
    pools = {key: INT_EXTREMES if key in _INTS else EXTREMES for key in _LIBRARY}
    problems, seen = [], set()
    for v in _variants(_LIBRARY, pools, random.Random(SEED)):
        for name, call in _library_calls(v):
            run = (name, *(v[key] for key in reads[name]))
            if run not in seen:
                seen.add(run)
                problems.append(_escape(f"{name} at {v}", call))
    problems = list(filter(None, problems))
    assert not problems, "\n".join(problems[:20])
    assert len(seen) > 2_000


def _strict(text: str):
    """json.loads that refuses Infinity, -Infinity and NaN."""

    def refuse(token):
        raise AssertionError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _cli_json(argv: list[str]) -> None:
    """cli.main on argv in JSON: what it prints is strict JSON."""
    code, out = _cli([*argv, "--format", "json", "--no-timestamp"])
    if out or code in (0, 2):
        _strict(out)


# Each CLI command and its number flags, each with a valid value.
_DETECTOR = {"y0": 1e-6, "e-det": 0.01, "eta-eff": 0.5}
_BEAM = {"w0": 0.1, "wavelength": 8e-7, "aperture": 0.5, "curvature": -1e6}
_COMMANDS = [
    (["max-distance", "fiber", "--mub", "2"],
     {**_DETECTOR, "mu": 0.5, "alpha": 0.2, "d-lo": 1e-3, "d-hi": 1e3}),
    (["max-distance", "fiber", "--mub", "3"], {**_DETECTOR, "alpha": 0.2}),
    (["max-distance", "freespace", "--mub", "2"],
     {**_DETECTOR, **_BEAM, "alpha0": 5e-3, "scale-height": 6.6, "altitude": 0.5}),
    (["max-distance", "deepspace", "--mub", "2"], {**_DETECTOR, **_BEAM, "mu": 0.5}),
    (["max-distance", "deepspace", "--mub", "3", "--k", "2"], _DETECTOR),
    (["max-distance", "satellite", "--mub", "2"],
     {**_DETECTOR, **_BEAM, "zenith-angle": 0.5, "eta-zenith": 0.9}),
    (["thresholds"], _DETECTOR),
    (["qber"], {"ex": 0.05, "ez": 0.04, "ey": 0.03}),
    (["qber"], {"ex": 0.05, "ez": 0.04, "assumed-p2": 0.01}),
]


def test_every_cli_command_prints_strict_json_or_refuses():
    rng = random.Random(SEED)
    problems, runs = [], 0
    for command, base in _COMMANDS:
        for v in _variants(base, dict.fromkeys(base, EXTREMES), rng):
            argv = [*command, *(t for key, x in v.items() for t in (f"--{key}", repr(x)))]
            runs += 1
            problems.append(_escape(" ".join(argv), lambda: _cli_json(argv)))
    for i in range(len(EXTREMES) - 3):
        argv = ["channel", "--p", *map(repr, EXTREMES[i : i + 4])]
        runs += 1
        problems.append(_escape(" ".join(argv), lambda: _cli_json(argv)))
    problems = list(filter(None, problems))
    assert not problems, "\n".join(problems[:20])
    assert runs > 600


# Each sweep parameter and a scenario it applies to.
_SWEEPS = {
    "y0": "fiber_2mub_single_photon.json",
    "e_det": "satellite_2mub.json",
    "eta_eff": "fiber_2mub_attenuated_mu03.json",
    "mu": "freespace_ground_2mub.json",
    "alpha": "fiber_2mub_decoy.json",
}


def test_every_sweep_param_takes_the_extremes():
    rng = random.Random(SEED)
    problems = []
    ends = [(a, b) for a in EXTREMES for b in EXTREMES[::3]]
    for param, name in _SWEEPS.items():
        path = str(SCENARIOS / name)
        sc = scenario_from_file(path)
        for start, stop in ends[::2] + rng.sample(ends, 6):
            scale = rng.choice(("log", "linear"))
            label = f"sweep {param} from {start} to {stop} ({scale})"
            sweep = lambda: sweep_scenario(sc, param, start, stop, 3, scale)  # noqa: E731
            problems.append(_escape(label, sweep))
            argv = ["sweep", path, "--param", param, "--from", repr(start), "--to", repr(stop),
                    "--points", "3", "--scale", scale]
            problems.append(_escape(f"qkdlimits {label}", lambda: _cli(argv)))
    problems = list(filter(None, problems))
    assert not problems, "\n".join(problems[:20])
