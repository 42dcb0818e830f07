"""Correctness checks: reference comparison and closed-form checks.

Stdlib only: the checks never call into the package they check.
``matches_reference`` compares an output with the one
stored in reference.json; ``independent_check`` applies the formulas
that hold whatever the implementation.
"""

from __future__ import annotations

import math

# Tolerances of the reference comparison. Bisection results must agree
# to BISECT_REL_TOL (the package's tolerance when reference.json was
# captured); quantities derived from a bisected distance get
# DERIVED_REL_TOL; Monte Carlo estimates and CLI output of closed-form
# paths must be identical.
EXACT_REL_TOL = 1e-12
ABS_TOL = 1e-15
BISECT_REL_TOL = 1e-9
DERIVED_REL_TOL = 1e-6
_DISTANCE_FIELDS = {"d_max_km", "altitude_km"}
_BISECTION_LINKS = {"freespace", "satellite", "ground_atmosphere"}


# ---------------------------------------------------------------- comparison


def _close(a, b, rel: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    if not isinstance(b, (int, float)):
        return False
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rel * max(abs(a), abs(b)) + (ABS_TOL if rel else 0.0)


def same(ref, out, rel: float, distance_rel: float | None = None, key: str = "") -> bool:
    """Structural equality with float tolerance; d_max-like fields use distance_rel."""
    if isinstance(ref, dict):
        return (
            isinstance(out, dict)
            and ref.keys() == out.keys()
            and all(same(ref[k], out[k], rel, distance_rel, k) for k in ref)
        )
    if isinstance(ref, (list, tuple)):
        return (
            isinstance(out, (list, tuple))
            and len(ref) == len(out)
            and all(same(r, o, rel, distance_rel, key) for r, o in zip(ref, out))
        )
    tol = distance_rel if distance_rel is not None and key in _DISTANCE_FIELDS else rel
    return _close(ref, out, tol)


def _numeric_tokens_close(ref: str, out: str, rel: float) -> bool:
    """Texts equal except numbers, which agree to rel."""
    ref_t, out_t = ref.replace(",", " , ").split(), out.replace(",", " , ").split()
    if len(ref_t) != len(out_t):
        return False
    for r, o in zip(ref_t, out_t):
        if r == o:
            continue
        try:
            if not _close(float(r.strip('"')), float(o.strip('"')), rel):
                return False
        except ValueError:
            return False
    return True


def _uses_bisection(case: dict) -> bool:
    a = case["args"]
    if case["kind"] in ("scenario", "sweep") and "doc" in a:
        return a["doc"].get("link", {}).get("kind") in _BISECTION_LINKS
    return False


def _cli_uses_bisection(case: dict, docs: list[dict]) -> bool:
    argv = case["args"]["argv"]
    if argv[0] == "max-distance":
        return argv[1] in ("freespace", "satellite")
    return any(
        x.startswith("@") and docs[int(x[1:])].get("link", {}).get("kind") in _BISECTION_LINKS
        for x in argv
    )


def matches_reference(case: dict, out, ref, docs: list[dict] | None = None) -> bool:
    kind = case["kind"]
    if kind.startswith("mc_"):
        return out == ref
    if kind.startswith("cli_"):
        if out[0] != ref[0]:
            return False
        if out[1] == ref[1]:
            return True
        return _cli_uses_bisection(case, docs) and _numeric_tokens_close(ref[1], out[1], DERIVED_REL_TOL)
    if _uses_bisection(case):
        if kind == "sweep":  # rows of (value, d_max_km, feasible)
            return same(ref, out, BISECT_REL_TOL)
        return same(ref, out, DERIVED_REL_TOL, BISECT_REL_TOL)
    return same(ref, out, EXACT_REL_TOL)


# ---------------------------------------------------------------- malformed inputs

# The documented outcome of a malformed scenario, in the library and in the CLI.
LIBRARY_DOCUMENTED = "ValidationError"
CLI_DOCUMENTED = "exit 1 error"


def library_outcome(out, err: str | None) -> str:
    """What a malformed scenario did in the library: the exception's type,
    or "accepted without error"."""
    if err is not None:
        return err.split(":")[0]
    return out if out == LIBRARY_DOCUMENTED else "accepted without error"


def cli_outcome(code: int, stderr: str) -> str:
    """What a malformed scenario file did in the CLI: the exit code and the
    kind of message, which names no file, so it is the same in any checkout."""
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1]
        return f"exit {code} traceback {last.split(':')[0]}"
    if stderr.startswith("error: "):
        return f"exit {code} error"
    return f"exit {code}"


def malformed_status(outcome: str, documented: str, recorded: str) -> str:
    """"ok" for the documented outcome; "defect" for the outcome recorded
    in the reference, a defect the package had when it was captured;
    "failed" for anything else."""
    if outcome == documented:
        return "ok"
    return "defect" if outcome == recorded else "failed"


# ---------------------------------------------------------------- independent checks


def _h2(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _near(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_capacity(a, out) -> bool:
    zero, p_max, phi, _npt, min_eig = out
    expect_pmax = max(a["p"]) / math.fsum(a["p"])
    return (
        _near(p_max, expect_pmax)
        and zero == (p_max <= 0.5)
        and _near(phi, 0.0 if zero else 1.0 - _h2(p_max))
        and abs(min_eig - (0.5 - p_max)) <= 1e-10
    )


def _qbers_of(p) -> tuple[float, float, float]:
    return p[2] + p[3], p[1] + p[2], p[1] + p[3]  # E_X, E_Z, E_Y


def _check_qber(a, out, three: bool) -> bool:
    secure, total, threshold, margin, _warn = out["verdict"]
    expect_total = a["e_x"] + a["e_z"] + (a["e_y"] if three else 0.0)
    expect_threshold = 1.0 if three else 0.5 + a["assumed_p2"]
    ok = _near(total, expect_total) and secure == (expect_total < expect_threshold)
    ok = ok and _near(threshold, expect_threshold) and _near(margin, expect_threshold - total)
    if isinstance(out["pauli"], list):
        e_x, e_z, e_y = _qbers_of(out["pauli"])
        ok = ok and _near(e_x, a["e_x"], 1e-9) and _near(e_z, a["e_z"], 1e-9)
        if three:
            ok = ok and _near(e_y, a["e_y"], 1e-9)
    return ok


def _check_chain(a, out) -> bool:
    p_max_min, zero, bound = out[0], out[1], out[2]
    expect = min(max(p) / math.fsum(p) for p in a["links"])
    thresholds = [1.0 if len(q) == 3 else 0.5 for q in a["qbers"]]
    margins = [t - sum(q) for t, q in zip(thresholds, a["qbers"])]
    return (
        _near(p_max_min, expect)
        and zero == (expect <= 0.5)
        and _near(bound, 0.0 if zero else 1.0 - _h2(p_max_min))
        and out[3] == all(m > 0 for m in margins)
        and all(_near(x, m) for x, m in zip(out[5], margins))
    )


def _fiber_closed_form(doc_source: dict, y0: float, e_det: float, eta_eff: float,
                       alpha: float, mub: int) -> float | None:
    """-(10/alpha) log10(Omega) from the Gamma and Omega formulas; None if infeasible."""
    if mub == 2:
        if e_det >= 0.25:
            return None
        gamma = y0 / (1.0 + y0 - 4.0 * e_det)
    else:
        if e_det >= 1.0 / 3.0:
            return None
        gamma = y0 / (2.0 + y0 - 6.0 * e_det)
    if doc_source["kind"] == "single_photon":
        om = gamma / eta_eff
    else:
        mu = doc_source["mu"] if doc_source["kind"] == "attenuated" else max(doc_source["intensities"])
        om = -math.log1p(-gamma) / (eta_eff * mu)
    if om >= 1.0:
        return None
    return -(10.0 / alpha) * math.log10(om)


def _check_scenario(a, out, fiber_qber_at) -> bool:
    doc = a["doc"]
    link = doc.get("link")
    if link is None or link["kind"] != "fiber" or not isinstance(out, dict):
        return True
    det, src, mub = doc["detector"], doc["source"], doc["protocol"]["mub_count"]
    if src["kind"] == "single_photon" and src.get("k", 1) != 1:
        return True
    d = _fiber_closed_form(src, det["y0"], det["e_det"], det["eta_eff"], link["alpha_db_per_km"], mub)
    if d is None or d <= 0.0:
        return out["feasible"] is False
    if not _near(out["d_max_km"], d):
        return False
    # Cross-route: the detection model's exact QBER at the closed-form
    # d_max sits on the protocol threshold.
    threshold = 0.25 if mub == 2 else 1.0 / 3.0
    return abs(fiber_qber_at(src, det, link["alpha_db_per_km"], d) - threshold) <= 1e-9


def _check_sweep(a, out) -> bool:
    if "doc" in a:
        doc = a["doc"]
        if doc["link"]["kind"] != "fiber":
            return True
        det, src = dict(doc["detector"]), dict(doc["source"])
        alpha, mub = doc["link"]["alpha_db_per_km"], doc["protocol"]["mub_count"]
        for value, d, feasible in out:
            if a["param"] in det:
                det[a["param"]] = value
            elif a["param"] == "mu":
                src["mu"] = value
            else:
                alpha = value
            expect = _fiber_closed_form(src, det["y0"], det["e_det"], det["eta_eff"], alpha, mub)
            if not _row_ok(expect, d, feasible):
                return False
        return True
    for y0, d, feasible in out:
        expect = _fiber_closed_form(a["source"], y0, a["det"]["e_det"], a["det"]["eta_eff"],
                                    a["alpha_db_per_km"], a["mub_count"])
        if not _row_ok(expect, d, feasible):
            return False
    return True


def _row_ok(expect, d, feasible) -> bool:
    if expect is None or expect <= 0.0:
        return feasible is False and d == 0.0
    return feasible is True and _near(d, expect)


def _check_montecarlo(a, out) -> bool:
    """Estimates within 6 standard errors of the exact values."""
    n = a["trials"]
    if a["estimator"] == "intercept_resend":
        exact = [0.25 if a["mub_count"] == 2 else 1.0 / 3.0]
    else:
        p = [x / math.fsum(a["p"]) for x in a["p"]]
        exact = list(_qbers_of(p))[: a["mub_count"]]
    return all(
        abs(est - e) <= 6.0 * math.sqrt(max(e * (1 - e), 1.0 / n) / n) + 1e-12
        for est, e in zip(out, exact)
    )


def independent_check(case: dict, out, fiber_qber_at) -> bool:
    """Closed-form checks; fiber_qber_at(source, detector, alpha, d_km) is
    the detection module's exact QBER, used for the cross-route check."""
    kind, a = case["kind"], case["args"]
    if kind == "capacity":
        return _check_capacity(a, out)
    if kind in ("qber2", "qber3"):
        return _check_qber(a, out, kind == "qber3")
    if kind == "chain":
        return _check_chain(a, out)
    if kind == "scenario":
        return _check_scenario(a, out, fiber_qber_at)
    if kind == "sweep":
        return _check_sweep(a, out)
    if kind.startswith("mc_"):
        return _check_montecarlo(a, out)
    return True


