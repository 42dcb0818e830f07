"""Scenario files: a single JSON document describing protocol, source,
detector and link, plus an optional repeater chain.

parse_scenario checks the document's structure and builds typed objects,
including the link's transmissivity model. It hands each number as given
to its model, which checks it by the rule of qkdlimits.errors, and puts
the model's error under the field's path. run_scenario and
sweep_scenario hand their (source, detector, link) points and the
scenario's solver bracket, if it has one, to distance.distance_bounds,
which chooses between the closed forms and the guarded bisection.
Results come back as a ResultRecord whose JSON form validates against
schemas/result_record.schema.json.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .detection import Attenuated, Decoy, DetectorModel, SinglePhoton, SourceModel
from .distance import DistanceBound, distance_bounds, gamma_threshold
from .errors import VALUE_REPR, ValidationError, integer, real
from .links import (
    LINK_PARTS,
    BeamGeometry,
    FiberLink,
    GroundAtmosphere,
    SatellitePath,
    ScenarioLink,
    satellite_transmissivity,
)
from .pauli import PauliDistribution
from .qber import QberSet, check_mub_count, symmetric_threshold
from .repeater import ChainSpec, chain_qber_verdict, chain_verdict

SCHEMA_VERSION = 1

_LINK_KINDS = tuple(LINK_PARTS)
_SOURCES = {"single_photon": SinglePhoton, "attenuated": Attenuated, "decoy": Decoy}
_SWEEP_PARAMS = ("y0", "e_det", "eta_eff", "mu", "alpha")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: protocol, hardware and exactly one link variant,
    optionally a repeater chain alongside."""

    mub_count: int
    source: SourceModel | None
    detector: DetectorModel | None
    link: ScenarioLink | None
    solver: tuple[float, float] | None
    chain: ChainSpec | None
    raw: dict


@dataclass(frozen=True)
class ResultRecord:
    """Self-describing computation record (inputs echoed, outputs, version)."""

    command: str
    inputs: dict
    results: dict
    schema_version: int = SCHEMA_VERSION
    artifact_name: str = "qkdlimits"
    artifact_version: str = __version__
    timestamp: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "artifact": {"name": self.artifact_name, "version": self.artifact_version},
            "command": self.command,
            "timestamp": self.timestamp,
            "inputs": self.inputs,
            "results": self.results,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(
            command=d["command"],
            inputs=d["inputs"],
            results=d["results"],
            schema_version=d["schema_version"],
            artifact_name=d["artifact"]["name"],
            artifact_version=d["artifact"]["version"],
            timestamp=d.get("timestamp"),
        )


def result_record_schema() -> dict:
    schema = resources.files("qkdlimits").joinpath("schemas/result_record.schema.json")
    text = schema.read_text(encoding="utf-8")
    return json.loads(text)


def _expect(v, cls: type, path: str):
    """v, a JSON object (cls dict) or list (cls list), or an error."""
    if not isinstance(v, cls):
        what = "an object" if cls is dict else "a list"
        raise ValidationError(f"scenario field {path}: expected {what}, got {VALUE_REPR.repr(v)}")
    return v


def _require(obj: dict, key: str, path: str, default=dataclasses.MISSING):
    """obj[key]; a missing key takes the default, or is an error without one."""
    if key in obj:
        return obj[key]
    if default is dataclasses.MISSING:
        raise ValidationError(f"scenario field {path}: missing required key {key!r}")
    return default


def _number(obj: dict, key: str, path: str, default=dataclasses.MISSING):
    """_require's obj[key], for its model to check as a number. A present
    null is refused here: a model may read None as absent (QberSet's e_y)."""
    if key in obj and obj[key] is None:
        raise ValidationError(f"scenario field {path}.{key}: expected a number, got None")
    return _require(obj, key, path, default)


def _check_keys(obj, allowed, path: str):
    unknown = sorted(_expect(obj, dict, path).keys() - allowed)
    if unknown:
        shown = [VALUE_REPR.repr(k) for k in unknown[: VALUE_REPR.maxlist]]
        if len(unknown) > VALUE_REPR.maxlist:
            shown.append(f"... and {len(unknown) - VALUE_REPR.maxlist} more")
        raise ValidationError(f"scenario field {path}: unknown keys [{', '.join(shown)}]")


def _build(path: str, cls, fields: dict, whole: str = ""):
    """cls(**fields), a ValidationError it raises put under path: under
    path.field if it names a field, and under path[i] for the entry
    whole[i] of the field named whole, a list that path itself holds."""
    try:
        return cls(**fields)
    except ValidationError as exc:
        name = path
        if exc.field is not None:
            entry = whole and exc.field.startswith(f"{whole}[")
            name += exc.field[len(whole):] if entry else f".{exc.field}"
        raise ValidationError(f"scenario field {name}: {exc}") from None


def _record(cls, obj, path: str, **given):
    """The dataclass cls with each field read from obj under its own name,
    as a number unless it is given. A field with a default may be absent."""
    fields = cls.__dataclass_fields__
    _check_keys(obj, fields.keys(), path)
    for name, f in fields.items():
        if name not in given:
            given[name] = _number(obj, name, path, f.default)
    return _build(path, cls, given)


def _kind(obj, kinds: tuple[str, ...], path: str) -> tuple[str, dict]:
    """A tagged object's kind, one of kinds, and its other fields."""
    kind = _require(_expect(obj, dict, path), "kind", path)
    if kind not in kinds:
        raise ValidationError(
            f"scenario field {path}.kind: unknown {path} {VALUE_REPR.repr(kind)}, "
            f"expected one of {kinds}"
        )
    return kind, {k: v for k, v in obj.items() if k != "kind"}


def _parse_source(obj) -> SourceModel:
    kind, params = _kind(obj, tuple(_SOURCES), "source")
    # A decoy source's lists are checked as lists here, entry by entry by Decoy.
    lists = {
        key: _expect(_require(params, key, "source"), list, f"source.{key}")
        for key in ("intensities", "probabilities")
        if kind == "decoy"
    }
    return _record(_SOURCES[kind], params, "source", **lists)


def _parse_beam(obj, path: str) -> BeamGeometry:
    # curvature_m is the one field where null is a value: absent, which
    # is a collimated beam (R = inf).
    obj = {k: v for k, v in _expect(obj, dict, path).items() if (k, v) != ("curvature_m", None)}
    return _record(BeamGeometry, obj, path)


def _parse_link(obj) -> ScenarioLink:
    kind, params = _kind(obj, _LINK_KINDS, "link")
    if kind == "fiber":
        return ScenarioLink(kind, fiber=_record(FiberLink, params, "link"))
    if kind == "ground_atmosphere":
        return ScenarioLink(kind, atmosphere=_record(GroundAtmosphere, params, "link"))
    if kind == "diffraction":
        return ScenarioLink(kind, beam=_parse_beam(params, "link"))
    beam = _parse_beam(_require(params, "beam", "link"), "link.beam")
    params.pop("beam")
    if kind == "satellite":
        return ScenarioLink(kind, beam=beam, satellite=_record(SatellitePath, params, "link"))
    _check_keys(params, {"atmosphere"}, "link")
    atm = {} if params.get("atmosphere") is None else params["atmosphere"]
    atmosphere = _record(GroundAtmosphere, atm, "link.atmosphere")
    return ScenarioLink(kind, beam=beam, atmosphere=atmosphere)


def _parse_chain(obj, mub_count: int) -> ChainSpec:
    _check_keys(obj, {"links", "qbers"}, "chain")
    links = []
    for i, p in enumerate(_expect(_require(obj, "links", "chain"), list, "chain.links")):
        path = f"chain.links[{i}]"
        links.append(_build(path, PauliDistribution, {"p": _expect(p, list, path)}, "p"))
    qbers = obj.get("qbers")
    if qbers is not None:
        qbers = tuple(
            _record(QberSet, q, f"chain.qbers[{i}]")
            for i, q in enumerate(_expect(qbers, list, "chain.qbers"))
        )
        for i, q in enumerate(qbers):
            if q.mub_count != mub_count:
                raise ValidationError(
                    f"scenario field chain.qbers[{i}]: a {q.mub_count}-basis QBER set "
                    f"under protocol.mub_count {mub_count}; e_y is present iff three bases"
                )
    return _build("chain", ChainSpec, {"links": links, "qbers": qbers})


def _bracket(d_lo_km, d_hi_km) -> tuple[float, float]:
    """The solver bracket: finite, 0 <= d_lo_km < d_hi_km."""
    lo = real(d_lo_km, "d_lo_km", 0.0, ends="[)")
    return lo, real(d_hi_km, "d_hi_km", lo, ends="()")


def _parse_solver(obj) -> tuple[float, float]:
    _check_keys(obj, {"d_lo_km", "d_hi_km"}, "solver")
    ends = {key: _number(obj, key, "solver") for key in ("d_lo_km", "d_hi_km")}
    return _build("solver", _bracket, ends)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the model objects.

    The one place scenario input is read and checked: running a parsed
    scenario meets no malformed field.
    """
    _check_keys(
        doc,
        {"schema_version", "protocol", "source", "detector", "link", "solver", "chain"},
        "<root>",
    )
    version = _require(doc, "schema_version", "<root>")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(
            f"scenario field schema_version: got {VALUE_REPR.repr(version)}, "
            f"this build reads {SCHEMA_VERSION}"
        )
    protocol = _require(doc, "protocol", "<root>")
    _check_keys(protocol, {"mub_count"}, "protocol")
    mub_count = _require(protocol, "mub_count", "protocol")
    _build("protocol", check_mub_count, {"mub_count": mub_count})

    source = _parse_source(doc["source"]) if doc.get("source") is not None else None
    detector = None
    if doc.get("detector") is not None:
        detector = _record(DetectorModel, doc["detector"], "detector")
    link = _parse_link(doc["link"]) if doc.get("link") is not None else None
    chain = _parse_chain(doc["chain"], mub_count) if doc.get("chain") is not None else None
    if link is None and chain is None:
        raise ValidationError("scenario needs a link, a chain, or both")
    if link is not None and (source is None or detector is None):
        raise ValidationError("scenario with a link needs source and detector too")
    solver = _parse_solver(doc["solver"]) if doc.get("solver") is not None else None

    return Scenario(
        mub_count=mub_count,
        source=source,
        detector=detector,
        link=link,
        solver=solver,
        chain=chain,
        raw=doc,
    )


def scenario_from_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        where = f"{path}:{exc.lineno}:{exc.colno}"
        raise ValidationError(f"{where}: not valid JSON ({exc.msg})") from exc
    except (OSError, RecursionError, ValueError) as exc:
        # A file that cannot be read, bytes that are not UTF-8, nesting past
        # the recursion limit, an integer literal past the int conversion limit.
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")
    return parse_scenario(doc)


def _bound_to_results(bound: DistanceBound) -> dict:
    return {
        "d_max_km": None if math.isinf(bound.d_max_km) else bound.d_max_km,
        "feasible": bound.feasible,
        "method": bound.method,
        "status": bound.status,
    }


def _plob_bits(eta: float) -> float:
    # Repeaterless rate bound -log2(1 - eta); informational only.
    return -math.log1p(-eta) / math.log(2.0)


def distance_analysis(sc: Scenario) -> dict:
    """Gamma/Omega thresholds and the distance bound for the scenario link,
    as distance_bounds computed them."""
    if sc.link is None:
        raise ValidationError("scenario has no link to analyze")
    det, link = sc.detector, sc.link
    [bound] = distance_bounds([(sc.source, det, link)], sc.mub_count, sc.solver)
    if bound is None:  # the misalignment alone breaks the threshold
        gamma_threshold(det, sc.mub_count)  # raises InfeasibleConfigurationError
    g, o = bound.gamma, bound.omega
    results = {
        "mub_count": sc.mub_count,
        "qber_threshold": symmetric_threshold(sc.mub_count),
        "gamma_min": g.gamma_min,
    }
    if o is not None:
        results["omega"] = o.omega
        results["omega_prime"] = None if math.isinf(o.omega_prime) else o.omega_prime
        results["source_kind"] = o.source_kind
    results.update(_bound_to_results(bound))
    if link.kind == "satellite":
        sat = link.satellite
        results["eta_atmosphere"] = satellite_transmissivity(sat)
        if bound.status == "solved":
            results["altitude_km"] = bound.d_max_km * math.cos(sat.zenith_angle_rad)
    if bound.status == "solved":
        eta_ch = link.transmissivity(bound.d_max_km)
        results["eta_channel_at_d_max"] = eta_ch
        results["plob_bits_per_use_at_d_max"] = _plob_bits(det.eta_eff * eta_ch)
        results["plob_note"] = "informational repeaterless rate bound, not a verdict"
    if not bound.feasible:
        if o is not None and o.omega >= 1.0:
            results["infeasible_reason"] = (
                f"required channel transmissivity omega={o.omega} is at or above 1; "
                "even a lossless channel cannot bring the QBER under the threshold"
            )
        else:
            results["infeasible_reason"] = (
                f"detection probability never exceeds gamma_min={g.gamma_min} "
                "on the searched interval; QBER stays at or above the protocol threshold"
            )
    return results


def chain_analysis(chain: ChainSpec) -> dict:
    v = chain_verdict(chain)
    out = {
        "links": len(chain.links),
        "p_max_min": v.p_max_min,
        "zero_capacity_certain": v.zero_capacity_certain,
        "upper_bound_bits": v.upper_bound_bits,
        "converse_known": v.converse_known,
    }
    if chain.qbers is not None:
        qv = chain_qber_verdict(chain)
        out["all_links_pass"] = qv.all_links_pass
        out["worst_link_index"] = qv.worst_link_index
        out["link_margins"] = [v.margin for v in qv.link_verdicts]
    return out


def run_scenario(sc: Scenario, command: str = "run") -> ResultRecord:
    """Execute everything the scenario describes; timestamp left unset."""
    results: dict = {}
    if sc.link is not None:
        results.update(distance_analysis(sc))
    if sc.chain is not None:
        results["chain"] = chain_analysis(sc.chain)
    return ResultRecord(command=command, inputs=sc.raw, results=results)


def _with_param(
    sc: Scenario, param: str, value: float
) -> tuple[SourceModel, DetectorModel, ScenarioLink]:
    """The source, detector and link of sc with param set to value;
    sweep_scenario has checked param."""
    src, det, link = sc.source, sc.detector, sc.link
    if param == "y0":
        return src, DetectorModel(value, det.e_det, det.eta_eff), link
    if param == "e_det":
        return src, DetectorModel(det.y0, value, det.eta_eff), link
    if param == "eta_eff":
        return src, DetectorModel(det.y0, det.e_det, value), link
    if param == "mu":
        if not isinstance(src, Attenuated):
            raise ValidationError("sweep over mu needs an attenuated source")
        return Attenuated(value), det, link
    if link.kind != "fiber":
        raise ValidationError("sweep over alpha needs a fiber link")
    return src, det, ScenarioLink("fiber", fiber=FiberLink(value))


def sweep_scenario(
    sc: Scenario, param: str, start: float, stop: float, points: int, scale: str
) -> list[tuple[str, float, float, bool]]:
    """Distance bound as one scenario parameter sweeps a range.

    Returns (param, value, d_max_km, feasible) rows in input order;
    infeasible points are flagged rows, not errors.
    """
    if sc.link is None:
        raise ValidationError("sweep needs a scenario with a link")
    if param not in _SWEEP_PARAMS:
        raise ValidationError(f"unknown sweep parameter {param!r}, expected one of {_SWEEP_PARAMS}")
    integer(points, "points", 1)
    start = real(start, "start", -math.inf, ends="()")
    stop = real(stop, "stop", -math.inf, ends="()")
    if scale not in ("log", "linear"):
        raise ValidationError(f"scale must be 'log' or 'linear', got {scale!r}")
    if scale == "log" and (start <= 0 or stop <= 0):
        raise ValidationError("log scale needs positive endpoints")
    n = points - 1
    if scale == "log":
        values = [start * (stop / start) ** (i / n) if n else start for i in range(points)]
    else:
        values = [start + (stop - start) * i / n if n else start for i in range(points)]
    points = (_with_param(sc, param, v) for v in values)
    bounds = distance_bounds(points, sc.mub_count, sc.solver)
    # A point whose misalignment is hopeless is a flagged row.
    return [
        (param, v, 0.0, False) if b is None else (param, v, b.d_max_km, b.feasible)
        for v, b in zip(values, bounds)
    ]

