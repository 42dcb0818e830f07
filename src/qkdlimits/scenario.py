"""Scenario files: a single JSON document describing protocol, source,
detector and link, plus an optional repeater chain.

parse_scenario checks every field once and builds typed objects,
including the link's transmissivity model. run_scenario and
sweep_scenario hand their (source, detector, link) points to
distance.distance_bounds, which chooses between the closed forms and
the guarded bisection. Results come back as a ResultRecord whose JSON
form validates against schemas/result_record.schema.json.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .detection import Attenuated, Decoy, DetectorModel, SinglePhoton, SourceModel
from .distance import DEFAULT_BRACKETS_KM, DistanceBound, distance_bounds, gamma_threshold
from .errors import ValidationError
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
from .qber import QberSet, symmetric_threshold
from .repeater import ChainSpec, chain_qber_verdict, chain_verdict

SCHEMA_VERSION = 1

_LINK_KINDS = tuple(LINK_PARTS)
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


class _ValueRepr(reprlib.Repr):
    """Abbreviates the wrong input value a ValidationError quotes. A value
    within the limits prints as repr prints it, dict key order included."""

    def repr_dict(self, x, level):
        if not x or level <= 0:
            return "{...}" if x else "{}"
        pieces = [
            f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
            for k, v in itertools.islice(x.items(), self.maxdict)
        ]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


_REPR = _ValueRepr()
_REPR.maxlevel = 3
_REPR.maxstring = _REPR.maxother = 40


def _object(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(f"scenario field {path}: expected an object, got {_REPR.repr(v)}")
    return v


def _list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"scenario field {path}: expected a list, got {_REPR.repr(v)}")
    return v


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"scenario field {path}: missing required key {key!r}")
    return obj[key]


def _number(obj, key, path: str, default=dataclasses.MISSING) -> float:
    """obj[key] as a float, key being an object key or a list index.

    A missing object key takes the default, or is an error without one.
    """
    if isinstance(obj, dict) and key not in obj:
        if default is dataclasses.MISSING:
            raise ValidationError(f"scenario field {path}: missing required key {key!r}")
        return default
    v = obj[key]
    name = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"scenario field {name}: expected a number, got {_REPR.repr(v)}")
    try:
        return float(v)
    except OverflowError:
        raise ValidationError(f"scenario field {name}: integer beyond float range") from None


def _check_keys(obj, allowed, path: str):
    unknown = sorted(_object(obj, path).keys() - allowed)
    if unknown:
        shown = [_REPR.repr(k) for k in unknown[: _REPR.maxlist]]
        if len(unknown) > _REPR.maxlist:
            shown.append(f"... and {len(unknown) - _REPR.maxlist} more")
        raise ValidationError(f"scenario field {path}: unknown keys [{', '.join(shown)}]")


def _record(cls, obj, path: str, **given):
    """The dataclass cls with each field read from obj under its own name,
    as a number unless it is given. A field with a default may be absent."""
    fields = cls.__dataclass_fields__
    _check_keys(obj, fields.keys(), path)
    for name, f in fields.items():
        if name not in given:
            given[name] = _number(obj, name, path, f.default)
    return cls(**given)


def _kind(obj, kinds: tuple[str, ...], path: str) -> tuple[str, dict]:
    """A tagged object's kind, one of kinds, and its other fields."""
    kind = _require(_object(obj, path), "kind", path)
    if kind not in kinds:
        raise ValidationError(
            f"scenario field {path}.kind: unknown {path} {_REPR.repr(kind)}, "
            f"expected one of {kinds}"
        )
    return kind, {k: v for k, v in obj.items() if k != "kind"}


def _parse_source(obj) -> SourceModel:
    kind, params = _kind(obj, ("single_photon", "attenuated", "decoy"), "source")
    if kind == "single_photon":
        _check_keys(params, {"k"}, "source")
        k = params.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValidationError(
                f"scenario field source.k: expected an integer, got {_REPR.repr(k)}"
            )
        _number(params, "k", "source", 1)  # k enters the models as a float
        return SinglePhoton(k=k)
    if kind == "attenuated":
        return _record(Attenuated, params, "source")
    lists = {}
    for key in ("intensities", "probabilities"):
        xs = _list(_require(params, key, "source"), f"source.{key}")
        lists[key] = tuple(_number(xs, i, f"source.{key}") for i in range(len(xs)))
    return _record(Decoy, params, "source", **lists)


def _parse_beam(obj, path: str) -> BeamGeometry:
    # curvature_m is the one field where null is a value: absent, which
    # is a collimated beam (R = inf).
    obj = {k: v for k, v in _object(obj, path).items() if not (k == "curvature_m" and v is None)}
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
    for i, p in enumerate(_list(_require(obj, "links", "chain"), "chain.links")):
        path = f"chain.links[{i}]"
        p = _list(p, path)
        links.append(PauliDistribution([_number(p, j, path) for j in range(len(p))]))
    qbers = obj.get("qbers")
    if qbers is not None:
        qbers = tuple(
            _record(QberSet, q, f"chain.qbers[{i}]")
            for i, q in enumerate(_list(qbers, "chain.qbers"))
        )
        for i, q in enumerate(qbers):
            if q.mub_count != mub_count:
                raise ValidationError(
                    f"scenario field chain.qbers[{i}]: a {q.mub_count}-basis QBER set "
                    f"under protocol.mub_count {mub_count}; e_y is present iff three bases"
                )
    return ChainSpec(links=tuple(links), qbers=qbers)


def _parse_solver(obj) -> tuple[float, float]:
    _check_keys(obj, {"d_lo_km", "d_hi_km"}, "solver")
    lo, hi = _number(obj, "d_lo_km", "solver"), _number(obj, "d_hi_km", "solver")
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValidationError(
            f"scenario field solver: need finite 0 <= d_lo_km < d_hi_km, got [{lo!r}, {hi!r}]"
        )
    return lo, hi


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
            f"scenario field schema_version: got {_REPR.repr(version)}, "
            f"this build reads {SCHEMA_VERSION}"
        )
    protocol = _require(doc, "protocol", "<root>")
    _check_keys(protocol, {"mub_count"}, "protocol")
    mub_count = _require(protocol, "mub_count", "protocol")
    if type(mub_count) is not int or mub_count not in (2, 3):
        raise ValidationError(
            "scenario field protocol.mub_count: must be the integer 2 or 3, "
            f"got {_REPR.repr(mub_count)}"
        )

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
    except OSError as exc:
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: not valid JSON ({exc.msg})"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Bytes that are not UTF-8, nesting past the recursion limit, an
        # integer literal past the int conversion limit.
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")
    return parse_scenario(doc)


def _bracket(sc: Scenario) -> tuple[float, float]:
    return sc.solver if sc.solver is not None else DEFAULT_BRACKETS_KM[sc.link.kind]


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
    [bound] = distance_bounds([(sc.source, det, link)], sc.mub_count, *_bracket(sc))
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
    if bound.status == "solved" and math.isfinite(bound.d_max_km):
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
    if isinstance(points, bool) or not (isinstance(points, int) and points >= 1):
        raise ValidationError(f"points={points!r} must be an integer >= 1")
    for name, v in (("start", start), ("stop", stop)):
        # NaN, inf and ints beyond float range all fail the comparison.
        finite = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
        if isinstance(v, bool) or not finite:
            raise ValidationError(f"{name}={_REPR.repr(v)} must be a finite number")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ValidationError("log scale needs positive endpoints")
        values = [
            start * (stop / start) ** (i / (points - 1)) if points > 1 else start
            for i in range(points)
        ]
    elif scale == "linear":
        values = [
            start + (stop - start) * i / (points - 1) if points > 1 else start
            for i in range(points)
        ]
    else:
        raise ValidationError(f"scale must be 'log' or 'linear', got {scale!r}")
    points = (_with_param(sc, param, v) for v in values)
    bounds = distance_bounds(points, sc.mub_count, *_bracket(sc))
    # A point whose misalignment is hopeless is a flagged row.
    return [
        (param, v, 0.0, False) if b is None else (param, v, b.d_max_km, b.feasible)
        for v, b in zip(values, bounds)
    ]

