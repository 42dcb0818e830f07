"""Detector and source models mapping transmissivity to observed QBER.

The QBER model is the exact ratio E = P / Y of error yield to total
yield, never the small-Y0 approximation: misalignment errors arrive
with the signal, dark counts with probability Y0 land half the time on
the wrong outcome. Single-photon, attenuated (Poisson) and decoy-state
sources are covered; each defines its detection probability gamma(eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import UndefinedQberError, ValidationError, field_error, integer, real, sequence

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DetectorModel:
    """Receiver parameters: dark-count probability per gate Y0 in [0, 1),
    intrinsic misalignment error e_det in [0, 1/2), and detector/optics
    efficiency eta_eff in (0, 1] folded into the channel transmissivity."""

    y0: float
    e_det: float
    eta_eff: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "y0", real(self.y0, "y0", 0.0, 1.0, "[)"))
        object.__setattr__(self, "e_det", real(self.e_det, "e_det", 0.0, 0.5, "[)"))
        object.__setattr__(self, "eta_eff", real(self.eta_eff, "eta_eff", 0.0, 1.0, "(]"))


@dataclass(frozen=True)
class SinglePhoton:
    """Fock source emitting exactly k photons per pulse."""

    k: int = 1

    def __post_init__(self):
        integer(self.k, "k", 1)

    def gamma(self, eta: float) -> float:
        """Detection probability 1 - (1 - eta)^k at transmissivity eta."""
        if self.k == 1:
            return eta
        # expm1/log1p form: the naive 1 - (1 - eta)**k rounds eta to the double
        # grid near 1.0, wiping out eta below ~1e-16 and quantizing small
        # results to steps of ~5e-17, which stalls root finding on the yield.
        if eta == 1.0:
            return 1.0
        return -math.expm1(self.k * math.log1p(-eta))


@dataclass(frozen=True)
class Attenuated:
    """Attenuated laser with Poisson mean photon number mu > 0."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", real(self.mu, "mu", 0.0, ends="()"))

    def gamma(self, eta: float) -> float:
        """Detection probability 1 - exp(-eta mu) at transmissivity eta."""
        return -math.expm1(-eta * self.mu)


@dataclass(frozen=True)
class Decoy:
    """Decoy-state source cycling through intensities with fixed weights.

    ``rep_rate_hz`` and ``dead_time_s`` feed the dead-time correction of
    the expected QBER; leave them 0 to disable it.
    """

    intensities: tuple[float, ...]
    probabilities: tuple[float, ...]
    rep_rate_hz: float = 0.0
    dead_time_s: float = 0.0

    def __post_init__(self):
        mus = sequence(self.intensities, "intensities")
        qs = sequence(self.probabilities, "probabilities")
        mus = tuple(real(m, f"intensities[{i}]", 0.0, ends="[)") for i, m in enumerate(mus))
        qs = tuple(real(q, f"probabilities[{i}]", 0.0, ends="()") for i, q in enumerate(qs))
        if len(mus) == 0:
            raise ValidationError("decoy source needs at least one intensity")
        if len(mus) != len(qs):
            raise ValidationError(
                f"{len(mus)} intensities but {len(qs)} probabilities"
            )
        total = sum(qs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise field_error("probabilities", qs, f"sum to {total!r}, not 1")
        for name in ("rep_rate_hz", "dead_time_s"):
            object.__setattr__(self, name, real(getattr(self, name), name, 0.0, ends="[)"))
        object.__setattr__(self, "intensities", mus)
        object.__setattr__(self, "probabilities", tuple(q / total for q in qs))

    @cached_property
    def mu(self) -> float:
        """Signal intensity: the largest, the best case for any detector
        with e_det < 1/2 (Lo, Ma & Chen 2005)."""
        mu = max(self.intensities)
        if mu <= 0.0:
            raise ValidationError("decoy source has no nonvacuum intensity")
        return mu

    # Bounded at mu, a decoy source detects as an attenuated one does.
    gamma = Attenuated.gamma


SourceModel = SinglePhoton | Attenuated | Decoy


@dataclass(frozen=True)
class QberBreakdown:
    """Detection bookkeeping behind a QBER value.

    gamma is the signal detection probability, total_yield the
    probability of any click, error_yield the probability of a wrong
    click; qber = error_yield / total_yield. For decoy sources the
    convex weights of the per-intensity QBERs are attached.
    """

    gamma: float
    total_yield: float
    error_yield: float
    qber: float
    weights: tuple[float, ...] | None = field(default=None)


def k_photon_transmissivity(eta: float, k: int) -> float:
    """Probability 1 - (1 - eta)^k that at least one of k photons survives."""
    eta = real(eta, "eta", 0.0, 1.0)
    # A pulse with no photon is never detected, even over a lossless channel.
    return SinglePhoton(k).gamma(eta) if integer(k, "k", 0) else 0.0


def _breakdown(gamma: float, det: DetectorModel) -> QberBreakdown:
    # Exact forms: Y = gamma + (1 - gamma) Y0, P = e_det gamma + (1 - gamma) Y0 / 2.
    total = gamma + (1.0 - gamma) * det.y0
    if total == 0.0:
        raise UndefinedQberError(
            "no detections: signal never arrives and y0 = 0, QBER is 0/0"
        )
    err = det.e_det * gamma + (1.0 - gamma) * det.y0 / 2.0
    return QberBreakdown(gamma=gamma, total_yield=total, error_yield=err, qber=err / total)


def qber_k_photon(eta: float, k: int, det: DetectorModel) -> QberBreakdown:
    """Exact QBER for a k-photon pulse over total transmissivity eta."""
    return _breakdown(detection_probability(SinglePhoton(k), eta), det)


def qber_attenuated(eta: float, mu: float, det: DetectorModel) -> QberBreakdown:
    """Exact QBER for an attenuated pulse: gamma = 1 - exp(-eta mu)."""
    return _breakdown(detection_probability(Attenuated(mu), eta), det)


def _per_intensity(eta: float, src: Decoy, det: DetectorModel) -> list[QberBreakdown]:
    eta = real(eta, "eta", 0.0, 1.0)
    out = []
    for mu in src.intensities:
        gamma = -math.expm1(-eta * mu)
        try:
            out.append(_breakdown(gamma, det))
        except UndefinedQberError as exc:
            raise UndefinedQberError(
                f"intensity mu={mu} yields no detections (vacuum with y0 = 0)"
            ) from exc
    return out


def decoy_expected_qber(eta: float, src: Decoy, det: DetectorModel) -> QberBreakdown:
    """Expected QBER over the decoy intensity cycle with dead-time weights.

    Each intensity i contributes with weight c_i q_i Q_i where
    c_i = 1 / (1 + r_s Q_i tau_dt) accounts for detector dead time. The
    result is the convex combination sum_i lambda_i E_i of the
    per-intensity QBERs; the weights are returned and sum to 1.
    """
    parts = _per_intensity(eta, src, det)
    c = [1.0 / (1.0 + src.rep_rate_hz * b.total_yield * src.dead_time_s) for b in parts]
    wq = [ci * qi * b.total_yield for ci, qi, b in zip(c, src.probabilities, parts)]
    denom = sum(wq)
    lam = tuple(w / denom for w in wq)
    if abs(sum(lam) - 1.0) > 1e-9:
        raise ValidationError(f"convex weights sum to {sum(lam)!r}")
    gamma = sum(ci * qi * b.gamma for ci, qi, b in zip(c, src.probabilities, parts))
    err = sum(ci * qi * b.error_yield for ci, qi, b in zip(c, src.probabilities, parts))
    return QberBreakdown(
        gamma=gamma,
        total_yield=denom,
        error_yield=err,
        qber=err / denom,
        weights=lam,
    )


def best_case_intensity(src: Decoy, eta: float, det: DetectorModel) -> tuple[int, float]:
    """Index and value of the intensity with the lowest exact QBER.

    Dead time is deliberately left out: the comparison is between raw
    per-intensity error rates. Ties go to the largest intensity and then
    to the lowest index.
    """
    parts = _per_intensity(eta, src, det)
    best = 0
    for i in range(1, len(parts)):
        if parts[i].qber < parts[best].qber or (
            parts[i].qber == parts[best].qber
            and src.intensities[i] > src.intensities[best]
        ):
            best = i
    return best, src.intensities[best]


def detection_probability(src: SourceModel, eta: float) -> float:
    """Signal detection probability gamma for a source at transmissivity eta.

    Decoy sources evaluate at their largest intensity, mu.
    """
    eta = real(eta, "eta", 0.0, 1.0)
    if not isinstance(src, SourceModel):
        raise ValidationError(f"unknown source model {src!r}")
    return src.gamma(eta)
