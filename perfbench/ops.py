"""Calling the package for each in-process case kind.

``call`` runs one case and returns a JSON-shaped output. Outcomes the
package documents for valid input (an inconsistent QBER set, an
infeasible configuration) are part of the output; any other exception
propagates to the caller, which counts the op as failed.

Functions are looked up on their modules at call time
(``pauli.capacity_verdict``, not a bound name), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

from qkdlimits import attack, detection, distance, errors, links, pauli, qber, repeater, scenario


# ---------------------------------------------------------------- calls


def _det(d: dict) -> detection.DetectorModel:
    return detection.DetectorModel(y0=d["y0"], e_det=d["e_det"], eta_eff=d["eta_eff"])


def _verdict(v) -> list:
    return [v.secure_possible, v.qber_sum, v.threshold, v.margin, v.regime_warning]


def _capacity(a):
    v = pauli.capacity_verdict(pauli.PauliDistribution(a["p"]))
    return [v.zero_capacity, v.p_max, v.phi_upper_bound, v.npt, v.min_pt_eigenvalue]


def _qber(a, three: bool):
    q = qber.QberSet(e_x=a["e_x"], e_z=a["e_z"], e_y=a["e_y"] if three else None)
    p2 = 0.0 if three else a["assumed_p2"]
    out = {"verdict": _verdict(qber.security_verdict(q, assumed_p2=p2))}
    try:
        if three:
            rec = qber.pauli_from_qbers_3mub(q)
        else:
            rec = qber.pauli_from_qbers_2mub_worstcase(q, assumed_p2=p2)
        out["pauli"] = list(rec.p)
    except errors.InconsistentQberError:
        out["pauli"] = "InconsistentQberError"
    return out


def _detect(a, group):
    det = _det(a["det"])
    if group == "k_photon":
        b = detection.qber_k_photon(a["eta"], a["k"], det)
    elif group == "attenuated":
        b = detection.qber_attenuated(a["eta"], a["mu"], det)
    else:
        src = detection.Decoy(
            intensities=tuple(a["src"]["intensities"]),
            probabilities=tuple(a["src"]["probabilities"]),
            rep_rate_hz=a["src"]["rep_rate_hz"],
            dead_time_s=a["src"]["dead_time_s"],
        )
        b = detection.decoy_expected_qber(a["eta"], src, det)
    return [b.gamma, b.total_yield, b.error_yield, b.qber, None if b.weights is None else list(b.weights)]


def _chain(a):
    qsets = tuple(qber.QberSet(*q) for q in a["qbers"])
    spec = repeater.ChainSpec(
        links=tuple(pauli.PauliDistribution(p) for p in a["links"]), qbers=qsets
    )
    v = repeater.chain_verdict(spec)
    qv = repeater.chain_qber_verdict(spec)
    return [v.p_max_min, v.zero_capacity_certain, v.upper_bound_bits, qv.all_links_pass,
            qv.worst_link_index, [x.margin for x in qv.link_verdicts]]


def _scenario(a):
    try:
        return scenario.run_scenario(scenario.parse_scenario(a["doc"])).results
    except errors.InfeasibleConfigurationError:
        return "InfeasibleConfigurationError"


def _sweep(a):
    if "doc" in a:
        sc = scenario.parse_scenario(a["doc"])
        rows = scenario.sweep_scenario(sc, a["param"], a["start"], a["stop"], a["points"], a["scale"])
        return [[v, d, f] for _, v, d, f in rows]
    src_doc = a["source"]
    if src_doc["kind"] == "attenuated":
        src = detection.Attenuated(mu=src_doc["mu"])
    else:
        src = detection.SinglePhoton(k=src_doc.get("k", 1))
    det = detection.DetectorModel(y0=0.0, e_det=a["det"]["e_det"], eta_eff=a["det"]["eta_eff"])
    rows = distance.dark_count_sweep(
        a["y0"], det, src, links.FiberLink(a["alpha_db_per_km"]), a["mub_count"]
    )
    return [[r.y0, r.d_max_km, r.feasible] for r in rows]


def _montecarlo(a):
    cfg = attack.AttackConfig(mub_count=a["mub_count"], trials=a["trials"], seed=a["seed"])
    if a["estimator"] == "intercept_resend":
        return list(attack.intercept_resend_qber_montecarlo(cfg))
    q = attack.pauli_channel_qber_montecarlo(pauli.PauliDistribution(a["p"]), a["mub_count"], cfg)
    return [q.e_x, q.e_z, q.e_y]


def _malformed(a):
    """Documented outcome: ValidationError. Anything else propagates or returns."""
    try:
        return scenario.run_scenario(scenario.parse_scenario(a["doc"])).results
    except errors.ValidationError:
        return "ValidationError"


def call(case: dict):
    kind, a = case["kind"], case["args"]
    if kind == "capacity":
        return _capacity(a)
    if kind in ("qber2", "qber3"):
        return _qber(a, kind == "qber3")
    if kind == "detect":
        return _detect(a, case["group"])
    if kind == "chain":
        return _chain(a)
    if kind == "scenario":
        return _scenario(a)
    if kind == "sweep":
        return _sweep(a)
    if kind.startswith("mc_"):
        return _montecarlo(a)
    if kind == "malformed":
        return _malformed(a)
    raise ValueError(f"not an in-process case kind: {kind}")


# ---------------------------------------------------------------- cross-route check


def fiber_qber_at(source: dict, det: dict, alpha: float, d_km: float) -> float:
    """Exact QBER from the detection module at a fiber distance."""
    eta = det["eta_eff"] * 10.0 ** (-alpha * d_km / 10.0)
    model = detection.DetectorModel(y0=det["y0"], e_det=det["e_det"], eta_eff=det["eta_eff"])
    if source["kind"] == "single_photon":
        return detection.qber_k_photon(eta, 1, model).qber
    mu = source["mu"] if source["kind"] == "attenuated" else max(source["intensities"])
    return detection.qber_attenuated(eta, mu, model).qber
