"""Command-line front end.

Subcommands: thresholds, channel, qber, max-distance, repeater, sweep,
run. Output is a human table by default, or JSON / CSV via --format;
identical invocations produce byte-identical output once timestamps are
suppressed with --no-timestamp. Exit codes: 0 success, 1 input error,
2 infeasible configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--eta-eff", type=float, default=1.0, help="receiver efficiency (default 1)")

    p = sub.add_parser("thresholds", help="QBER thresholds and minimum detection probability")
    p.add_argument("--mub", type=int, choices=(2, 3), help="restrict to one protocol")
    detector_flags(p, required=False)
    p.add_argument("--mc-trials", type=int, default=0, help="verify the attack QBER by Monte Carlo")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --mc-trials")
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
    p.add_argument("--mub", type=int, choices=(2, 3), required=True)
    detector_flags(p, required=True)
    p.add_argument("--k", type=int, default=None, help="photon number (single-photon source)")
    p.add_argument("--mu", type=float, default=None, help="mean photon number (attenuated source)")
    p.add_argument("--alpha", type=float, default=0.17, help="fiber loss in dB/km")
    p.add_argument("--w0", type=float, default=None, help="beam waist in m")
    p.add_argument("--wavelength", type=float, default=None, help="wavelength in m")
    p.add_argument("--aperture", type=float, default=None, help="receiver aperture radius in m")
    p.add_argument("--curvature", type=float, default=None, help="phase-front radius in m")
    p.add_argument(
        "--alpha0", type=float, default=DEFAULT_ALPHA0_PER_KM, help="ground extinction per km"
    )
    p.add_argument(
        "--scale-height",
        type=float,
        default=DEFAULT_SCALE_HEIGHT_KM,
        help="atmosphere scale height in km",
    )
    p.add_argument("--altitude", type=float, default=0.0, help="path altitude in km")
    p.add_argument("--zenith-angle", type=float, default=0.0, help="zenith angle in rad")
    p.add_argument("--eta-zenith", type=float, default=DEFAULT_ETA_ZENITH)
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


def _emit_record(record: ResultRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        flat = _flatten(record.results)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow([_csv_cell(v) for v in flat.values()])
        return buf.getvalue().rstrip("\n")
    header = f"# qkdlimits {record.command}"
    if record.timestamp:
        header += f" ({record.timestamp})"
    return "\n".join([header] + _table_lines(record.results))


def _cmd_thresholds(args) -> ResultRecord:
    protocols = (args.mub,) if args.mub else (2, 3)
    det = None
    if args.y0 is not None or args.e_det is not None:
        if args.y0 is None or args.e_det is None:
            raise ValidationError("--y0 and --e-det go together")
        det = DetectorModel(y0=args.y0, e_det=args.e_det, eta_eff=args.eta_eff)
    results = {}
    for mub in protocols:
        row = {
            "qber_threshold_symmetric": symmetric_threshold(mub),
            "intercept_resend_qber": intercept_resend_qber_analytic(mub),
        }
        # AttackConfig rejects a trial count below 1.
        if args.mc_trials:
            est, se = intercept_resend_qber_montecarlo(
                AttackConfig(mub_count=mub, trials=args.mc_trials, seed=args.seed)
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
        "eta_eff": args.eta_eff,
        "mc_trials": args.mc_trials,
        "seed": args.seed,
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
    dist = PauliDistribution([max(x, 0.0) / total for x in p])
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


def _scenario_from_max_distance_args(args) -> Scenario:
    if args.k is not None and args.mu is not None:
        raise ValidationError("--k and --mu are mutually exclusive")
    if args.mu is not None:
        source = {"kind": "attenuated", "mu": args.mu}
    else:
        source = {"kind": "single_photon", "k": args.k if args.k is not None else 1}

    def beam() -> dict:
        for flag, v in (("--w0", args.w0), ("--wavelength", args.wavelength), ("--aperture", args.aperture)):
            if v is None:
                raise ValidationError(f"{args.model} model needs {flag}")
        return {
            "w0_m": args.w0,
            "wavelength_m": args.wavelength,
            "aperture_radius_m": args.aperture,
            "curvature_m": args.curvature,
        }

    if args.model == "fiber":
        link = {"kind": "fiber", "alpha_db_per_km": args.alpha}
    elif args.model == "deepspace":
        link = {"kind": "diffraction", **beam()}
    elif args.model == "freespace":
        link = {
            "kind": "freespace",
            "beam": beam(),
            "atmosphere": {
                "alpha0_per_km": args.alpha0,
                "scale_height_km": args.scale_height,
                "altitude_km": args.altitude,
            },
        }
    else:
        link = {
            "kind": "satellite",
            "beam": beam(),
            "zenith_angle_rad": args.zenith_angle,
            "eta_zenith": args.eta_zenith,
        }
    doc = {
        "schema_version": 1,
        "protocol": {"mub_count": args.mub},
        "source": source,
        "detector": {"y0": args.y0, "e_det": args.e_det, "eta_eff": args.eta_eff},
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


def _emit_sweep(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param", "value", "d_max_km", "feasible"])
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue().rstrip("\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            sc = scenario_from_file(args.scenario)
            rows = sweep_scenario(sc, args.param, args.start, args.stop, args.points, args.scale)
            print(_emit_sweep(rows))
            return 0
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
    print(_emit_record(record, args.format))

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
