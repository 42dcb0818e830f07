"""Command-line front end.

Subcommands: thresholds, channel, qber, max-distance, repeater, sweep,
run. Output is a human table by default, or JSON / CSV via --format;
identical invocations produce byte-identical output once timestamps are
suppressed with --no-timestamp. Exit codes: 0 success, 1 input error,
2 infeasible configuration, 3 numeric failure. An output pipe closed by
its reader also ends in exit 1, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .attack import AttackConfig, intercept_resend_qber_analytic, intercept_resend_qber_montecarlo
from .distance import gamma_threshold
from .detection import DetectorModel
from .errors import (
    InconsistentQberError,
    InfeasibleConfigurationError,
    NumericError,
    ValidationError,
)
from .links import DEFAULT_ALPHA0_PER_KM, DEFAULT_ETA_ZENITH, DEFAULT_SCALE_HEIGHT_KM
from .pauli import PauliDistribution, capacity_verdict
from .qber import (
    MUB_COUNTS,
    QberSet,
    pauli_from_qbers,
    security_verdict,
    symmetric_threshold,
)
from .scenario import (
    _SWEEP_PARAMS,
    ResultRecord,
    Scenario,
    chain_analysis,
    parse_scenario,
    run_scenario,
    scenario_from_file,
    sweep_scenario,
)

CLI_SIMPLEX_TOL = 1e-3


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every token float() takes as a value.

    argparse reads a token that starts with '-' as a flag unless it looks
    like a negative number, and its pattern for one has no exponent, so
    `--d-lo -1e-3` or `--p -1e-3 0.5 0.3 0.2` would lose a value to a
    usage error. No flag here is a number, so such a token is always a
    value: the value of a float flag, or a wrong one that its flag's type
    or the input checks report. The subcommand parsers are of this class
    too, since add_subparsers builds them from the parent's class.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkdlimits",
        description="Fundamental limits on QBER and distance for qubit-based QKD.",
    )
    parser.add_argument("--version", action="version", version=f"qkdlimits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp for byte-identical reruns",
        )

    def detector_flags(p, required: bool):
        p.add_argument("--y0", type=float, required=required, help="dark-count probability per gate")
        p.add_argument("--e-det", type=float, required=required, help="intrinsic misalignment error")
        p.add_argument("--eta-eff", type=float, default=None, help="receiver efficiency (default 1)")

    p = sub.add_parser("thresholds", help="QBER thresholds and minimum detection probability")
    p.add_argument("--mub", type=int, choices=MUB_COUNTS, help="restrict to one protocol")
    detector_flags(p, required=False)
    p.add_argument("--mc-trials", type=int, default=0, help="verify the attack QBER by Monte Carlo")
    p.add_argument("--seed", type=int, default=None, help="RNG seed for --mc-trials (default 0)")
    common(p)

    p = sub.add_parser("channel", help="zero-capacity verdict for a Pauli channel")
    p.add_argument("--p", nargs=4, type=float, required=True, metavar=("P0", "P1", "P2", "P3"))
    common(p)

    p = sub.add_parser("qber", help="security verdict from observed error rates")
    p.add_argument("--ex", type=float, required=True)
    p.add_argument("--ez", type=float, required=True)
    p.add_argument("--ey", type=float, default=None)
    p.add_argument("--assumed-p2", type=float, default=0.0, help="assumed Y weight (2-basis only)")
    common(p)

    p = sub.add_parser("max-distance", help="maximum secure distance for a link model")
    p.add_argument("model", choices=("fiber", "freespace", "deepspace", "satellite"))
    p.add_argument("--mub", type=int, choices=MUB_COUNTS, required=True)
    detector_flags(p, required=True)
    p.add_argument("--k", type=int, default=None, help="photon number (single-photon source)")
    p.add_argument("--mu", type=float, default=None, help="mean photon number (attenuated source)")
    # The model flags default to None, so that a flag given to a model it
    # does not belong to is seen; _MODEL_FLAGS holds the models and defaults.
    p.add_argument("--alpha", type=float, help="fiber loss in dB/km (fiber)")
    p.add_argument("--w0", type=float, help="beam waist in m")
    p.add_argument("--wavelength", type=float, help="wavelength in m")
    p.add_argument("--aperture", type=float, help="receiver aperture radius in m")
    p.add_argument("--curvature", type=float, help="phase-front radius in m")
    p.add_argument("--alpha0", type=float, help="ground extinction per km (freespace)")
    p.add_argument("--scale-height", type=float, help="atmosphere scale height in km (freespace)")
    p.add_argument("--altitude", type=float, help="path altitude in km (freespace)")
    p.add_argument("--zenith-angle", type=float, help="zenith angle in rad (satellite)")
    p.add_argument("--eta-zenith", type=float, help="zenith transmissivity (satellite)")
    p.add_argument("--d-lo", type=float, default=None, help="solver bracket lower end in km")
    p.add_argument("--d-hi", type=float, default=None, help="solver bracket upper end in km")
    common(p)

    p = sub.add_parser("repeater", help="bottleneck verdict for a repeater chain scenario")
    p.add_argument("scenario", help="scenario JSON file with a chain section")
    common(p)

    p = sub.add_parser("sweep", help="sweep one parameter of a scenario, CSV output")
    p.add_argument("scenario", help="base scenario JSON file")
    p.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    common(p)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    common(p)

    return parser


def _fmt_value(key: str, v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return f"{v:.4g}" if key.endswith("_km") else f"{v:.8g}"
    return str(v)


def _table_lines(d: dict, indent: str = "") -> list[str]:
    lines = []
    width = max((len(k) for k in d), default=0)
    for k, v in d.items():
        if isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            lines.extend(_table_lines(v, indent + "  "))
        else:
            lines.append(f"{indent}{k:<{width}}  {_fmt_value(k, v)}")
    return lines


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    return str(v)


def _csv(header, rows) -> str:
    """CSV text of a header and rows of cells, without its last newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue().rstrip("\n")


def _emit_record(record: ResultRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        flat = _flatten(record.results)
        return _csv(flat.keys(), [flat.values()])
    header = f"# qkdlimits {record.command}"
    if record.timestamp:
        header += f" ({record.timestamp})"
    return "\n".join([header] + _table_lines(record.results))


def _cmd_thresholds(args) -> ResultRecord:
    protocols = (args.mub,) if args.mub else MUB_COUNTS
    det = None
    if args.y0 is not None or args.e_det is not None:
        if args.y0 is None or args.e_det is None:
            raise ValidationError("--y0 and --e-det go together")
        det = DetectorModel(y0=args.y0, e_det=args.e_det, eta_eff=_given(args.eta_eff, 1.0))
    elif args.eta_eff is not None:
        raise ValidationError("--eta-eff needs --y0 and --e-det")
    if args.seed is not None and not args.mc_trials:
        raise ValidationError("--seed needs --mc-trials")
    seed = _given(args.seed, 0)
    results = {}
    for mub in protocols:
        row = {
            "qber_threshold_symmetric": symmetric_threshold(mub),
            "intercept_resend_qber": intercept_resend_qber_analytic(mub),
        }
        # AttackConfig rejects a trial count below 1.
        if args.mc_trials:
            est, se = intercept_resend_qber_montecarlo(
                AttackConfig(mub_count=mub, trials=args.mc_trials, seed=seed)
            )
            row["intercept_resend_qber_mc"] = est
            row["intercept_resend_qber_mc_stderr"] = se
        if det is not None:
            try:
                row["gamma_min"] = gamma_threshold(det, mub).gamma_min
            except InfeasibleConfigurationError as exc:
                row["feasible"] = False
                row["status"] = "infeasible"
                row["infeasible_reason"] = str(exc)
        results[f"mub_{mub}"] = row
    inputs = {
        "mub": args.mub,
        "y0": args.y0,
        "e_det": args.e_det,
        "eta_eff": _given(args.eta_eff, 1.0),
        "mc_trials": args.mc_trials,
        "seed": seed,
    }
    return ResultRecord(command="thresholds", inputs=inputs, results=results)


def _cmd_channel(args) -> ResultRecord:
    p = [float(x) for x in args.p]
    for x in p:
        if not (math.isfinite(x) and -CLI_SIMPLEX_TOL <= x <= 1.0 + CLI_SIMPLEX_TOL):
            raise ValidationError(f"probability {x!r} outside [0, 1]")
    total = math.fsum(p)
    if abs(total - 1.0) > CLI_SIMPLEX_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, more than {CLI_SIMPLEX_TOL} from 1")
    # A weight up to CLI_SIMPLEX_TOL below 0 counts as 0; the clipped weights
    # are divided by their own sum, so that they sum to 1.
    weights = [max(x, 0.0) for x in p]
    total = math.fsum(weights)
    dist = PauliDistribution([x / total for x in weights])
    v = capacity_verdict(dist)
    results = {
        "p_normalized": list(dist.p),
        "p_max": v.p_max,
        "npt": v.npt,
        "min_pt_eigenvalue": v.min_pt_eigenvalue,
        "phi_upper_bound_bits": v.phi_upper_bound,
        "zero_capacity": v.zero_capacity,
    }
    return ResultRecord(command="channel", inputs={"p": p}, results=results)


def _cmd_qber(args) -> ResultRecord:
    q = QberSet(e_x=args.ex, e_z=args.ez, e_y=args.ey)
    v = security_verdict(q, assumed_p2=args.assumed_p2)
    results = {
        "mub_count": q.mub_count,
        "qber_sum": v.qber_sum,
        "threshold": v.threshold,
        "margin": v.margin,
        "secure_possible": v.secure_possible,
        "regime_warning": v.regime_warning,
    }
    try:
        rec = pauli_from_qbers(q, args.assumed_p2)
        results["channel_consistent"] = True
        results["reconstructed_pauli"] = list(rec.p)
        results["phi_upper_bound_bits"] = capacity_verdict(rec).phi_upper_bound
    except InconsistentQberError:
        results["channel_consistent"] = False
    inputs = {"e_x": args.ex, "e_z": args.ez, "e_y": args.ey, "assumed_p2": args.assumed_p2}
    return ResultRecord(command="qber", inputs=inputs, results=results)


def _given(value, default):
    return default if value is None else value


_BEAM_MODELS = ("freespace", "deepspace", "satellite")
# Each model-specific max-distance flag: the models it belongs to and its
# default. Any other model rejects it.
_MODEL_FLAGS = {
    "alpha": (("fiber",), 0.17),
    "w0": (_BEAM_MODELS, None),
    "wavelength": (_BEAM_MODELS, None),
    "aperture": (_BEAM_MODELS, None),
    "curvature": (_BEAM_MODELS, None),
    "alpha0": (("freespace",), DEFAULT_ALPHA0_PER_KM),
    "scale_height": (("freespace",), DEFAULT_SCALE_HEIGHT_KM),
    "altitude": (("freespace",), 0.0),
    "zenith_angle": (("satellite",), 0.0),
    "eta_zenith": (("satellite",), DEFAULT_ETA_ZENITH),
}


def _scenario_from_max_distance_args(args) -> Scenario:
    if args.k is not None and args.mu is not None:
        raise ValidationError("--k and --mu are mutually exclusive")
    flags = {}
    for dest, (models, default) in _MODEL_FLAGS.items():
        value = getattr(args, dest)
        if value is not None and args.model not in models:
            flag = "--" + dest.replace("_", "-")
            raise ValidationError(f"the {args.model} model does not take {flag}")
        flags[dest] = _given(value, default)
    if args.mu is not None:
        source = {"kind": "attenuated", "mu": args.mu}
    else:
        source = {"kind": "single_photon", "k": args.k if args.k is not None else 1}

    def beam() -> dict:
        for dest in ("w0", "wavelength", "aperture"):
            if flags[dest] is None:
                raise ValidationError(f"{args.model} model needs --{dest}")
        return {
            "w0_m": flags["w0"],
            "wavelength_m": flags["wavelength"],
            "aperture_radius_m": flags["aperture"],
            "curvature_m": flags["curvature"],
        }

    if args.model == "fiber":
        link = {"kind": "fiber", "alpha_db_per_km": flags["alpha"]}
    elif args.model == "deepspace":
        link = {"kind": "diffraction", **beam()}
    elif args.model == "freespace":
        link = {
            "kind": "freespace",
            "beam": beam(),
            "atmosphere": {
                "alpha0_per_km": flags["alpha0"],
                "scale_height_km": flags["scale_height"],
                "altitude_km": flags["altitude"],
            },
        }
    else:
        link = {
            "kind": "satellite",
            "beam": beam(),
            "zenith_angle_rad": flags["zenith_angle"],
            "eta_zenith": flags["eta_zenith"],
        }
    doc = {
        "schema_version": 1,
        "protocol": {"mub_count": args.mub},
        "source": source,
        "detector": {"y0": args.y0, "e_det": args.e_det, "eta_eff": _given(args.eta_eff, 1.0)},
        "link": link,
    }
    if args.d_lo is not None or args.d_hi is not None:
        if args.d_lo is None or args.d_hi is None:
            raise ValidationError("--d-lo and --d-hi go together")
        doc["solver"] = {"d_lo_km": args.d_lo, "d_hi_km": args.d_hi}
    return parse_scenario(doc)


def _cmd_scenario(args) -> ResultRecord:
    """run, repeater and max-distance: one scenario through run_scenario.

    An infeasible link still yields a record, with the chain verdict if
    the scenario has a chain; main turns it into exit code 2.
    """
    if args.command == "max-distance":
        sc = _scenario_from_max_distance_args(args)
    else:
        sc = scenario_from_file(args.scenario)
    if args.command == "repeater":
        if sc.chain is None:
            raise ValidationError(f"{args.scenario}: repeater command needs a chain section")
        sc = dataclasses.replace(sc, link=None)
    try:
        return run_scenario(sc, args.command)
    except InfeasibleConfigurationError as exc:
        results = {"feasible": False, "status": "infeasible", "infeasible_reason": str(exc)}
        if sc.chain is not None:
            results["chain"] = chain_analysis(sc.chain)
        return ResultRecord(command=args.command, inputs=sc.raw, results=results)


def _print(text: str) -> int:
    """Print text to stdout: 0, or 1 if the reader has closed the pipe.

    A closed pipe points stdout at devnull, so that the flush at exit
    raises no second BrokenPipeError.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            sc = scenario_from_file(args.scenario)
            rows = sweep_scenario(sc, args.param, args.start, args.stop, args.points, args.scale)
            return _print(_csv(["param", "value", "d_max_km", "feasible"], rows))
        if args.command == "thresholds":
            record = _cmd_thresholds(args)
        elif args.command == "channel":
            record = _cmd_channel(args)
        elif args.command == "qber":
            record = _cmd_qber(args)
        else:
            record = _cmd_scenario(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleConfigurationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    if not args.no_timestamp:
        record = dataclasses.replace(
            record, timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
    if _print(_emit_record(record, args.format)):
        return 1

    if record.results.get("status") == "infeasible":
        return 2
    # Multi-row reports (thresholds over both protocols) fail only as a whole.
    statuses = [
        v.get("status", "solved") for v in record.results.values() if isinstance(v, dict)
    ]
    if statuses and all(s == "infeasible" for s in statuses):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
