"""Maximum secure distance from detector noise and channel loss.

The chain of reasoning: the per-basis QBER threshold translates into a
minimum signal detection probability Gamma, Gamma translates into a
minimum channel transmissivity Omega, and Omega translates into a
distance through the loss model. distance_bounds is the one place that
chooses the route for a (source, detector, link) point: fiber and
far-field diffraction of a collimated beam have closed forms; every
other link goes through a monotonicity-guarded bisection, _bisect.
run_scenario, sweep_scenario and dark_count_sweep all call it; it solves
each point as it reads it, with one guard memo per call for the bisection.
max_distance_numeric bisects one point on a model of the caller's own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .detection import Attenuated, Decoy, DetectorModel, SinglePhoton, SourceModel
from .errors import (
    BracketError,
    InfeasibleConfigurationError,
    NonMonotonicModelError,
    ValidationError,
)
from .links import BeamGeometry, FiberLink, ScenarioLink

BISECT_REL_TOL = 1e-9
BISECT_MAX_ITER = 60
MONOTONE_SAMPLES = 64
# Bisection bracket in km for each link kind when a scenario sets none.
DEFAULT_BRACKETS_KM = {
    "fiber": (1e-6, 1e5),
    "ground_atmosphere": (1e-6, 1e7),
    "diffraction": (1e-3, 1e12),
    "freespace": (1e-3, 1e7),
    "satellite": (1e-3, 1e10),
}


@dataclass(frozen=True)
class GammaThreshold:
    """Minimum detection probability for sub-threshold QBER."""

    gamma_min: float
    mub_count: int


@dataclass(frozen=True)
class OmegaValue:
    """Minimum channel transmissivity Omega, its log form and its Gamma.

    omega_prime = -ln(1 - omega); both are set to inf when omega >= 1,
    meaning even a lossless channel cannot beat the threshold.
    """

    omega: float
    omega_prime: float
    source_kind: str
    gamma: GammaThreshold | None = None


@dataclass(frozen=True)
class DistanceBound:
    """Maximum distance verdict.

    status is "solved" (d_max is the threshold crossing), "infeasible"
    (no distance works, d_max = 0), "unbounded" (threshold holds at any
    loss, d_max = inf) or "feasible-everywhere" (numeric search), where
    d_max is only the bracket end that was still feasible. gamma (and
    omega, on a closed-form route) are the thresholds behind the bound.
    """

    d_max_km: float
    feasible: bool
    method: str
    status: str = "solved"
    gamma: GammaThreshold | None = None
    omega: OmegaValue | None = None


def gamma_threshold(det: DetectorModel, mub_count: int) -> GammaThreshold:
    """Minimum gamma keeping the symmetric QBER under the protocol threshold.

    Two bases need E < 1/4, giving Gamma = Y0 / (1 + Y0 - 4 e_det);
    three bases need E < 1/3, giving Gamma = Y0 / (2 + Y0 - 6 e_det).
    Misalignment at or above the threshold is infeasible outright.
    """
    if mub_count == 2:
        if det.e_det >= 0.25:
            raise InfeasibleConfigurationError(
                f"e_det={det.e_det} is at or above the two-basis threshold 1/4; "
                "the QBER floor from misalignment alone already breaks security"
            )
        g = det.y0 / (1.0 + det.y0 - 4.0 * det.e_det)
    elif mub_count == 3:
        if det.e_det >= 1.0 / 3.0:
            raise InfeasibleConfigurationError(
                f"e_det={det.e_det} is at or above the three-basis threshold 1/3; "
                "the QBER floor from misalignment alone already breaks security"
            )
        g = det.y0 / (2.0 + det.y0 - 6.0 * det.e_det)
    else:
        raise ValidationError(f"mub_count must be 2 or 3, got {mub_count!r}")
    return GammaThreshold(gamma_min=g, mub_count=mub_count)


def omega(det: DetectorModel, src: SourceModel, g: GammaThreshold) -> OmegaValue:
    """Minimum channel transmissivity for the detection threshold g.

    Single-photon sources need eta_ch > Gamma / eta_eff; attenuated and
    decoy (best-case intensity) sources need
    eta_ch > -ln(1 - Gamma) / (eta_eff mu).
    """
    if isinstance(src, SinglePhoton):
        if src.k != 1:
            raise ValidationError(
                f"closed-form omega covers k=1 only, got k={src.k}; "
                "use max_distance_numeric for multiphoton sources"
            )
        om = g.gamma_min / det.eta_eff
        kind = "single-photon"
    elif isinstance(src, (Attenuated, Decoy)):
        om = -math.log1p(-g.gamma_min) / (det.eta_eff * src.mu)
        kind = "attenuated"
    else:
        raise ValidationError(f"unknown source model {src!r}")
    prime = -math.log1p(-om) if om < 1.0 else math.inf
    return OmegaValue(omega=om, omega_prime=prime, source_kind=kind, gamma=g)


def max_fiber_distance(link: FiberLink, o: OmegaValue) -> DistanceBound:
    """Closed form d_max = -(10 / alpha) log10(Omega) for fiber loss."""
    if o.omega >= 1.0:
        return DistanceBound(0.0, False, "closed-form", "infeasible", o.gamma, o)
    if o.omega <= 0.0:
        return DistanceBound(math.inf, True, "closed-form", "unbounded", o.gamma, o)
    d = -(10.0 / link.alpha_db_per_km) * math.log10(o.omega)
    if d <= 0.0:
        return DistanceBound(0.0, False, "closed-form", "infeasible", o.gamma, o)
    return DistanceBound(d, True, "closed-form", "solved", o.gamma, o)


def max_diffraction_distance(beam: BeamGeometry, o: OmegaValue) -> DistanceBound:
    """Far-field diffraction bound d < (pi w0 a_R / lambda) sqrt(2 / Omega').

    Uses the spreading envelope w_d >= w0 d / d_R, so it slightly
    overestimates the exact crossing; reported in km.
    """
    if o.omega_prime <= 0.0:
        return DistanceBound(math.inf, True, "closed-form", "unbounded", o.gamma, o)
    if math.isinf(o.omega_prime):
        return DistanceBound(0.0, False, "closed-form", "infeasible", o.gamma, o)
    d_m = (
        math.pi * beam.w0_m * beam.aperture_radius_m / beam.wavelength_m
    ) * math.sqrt(2.0 / o.omega_prime)
    return DistanceBound(d_m / 1000.0, True, "closed-form", "solved", o.gamma, o)


def max_distance_numeric(
    model: Callable[[float], float],
    src: SourceModel,
    det: DetectorModel,
    g: GammaThreshold,
    d_lo_km: float,
    d_hi_km: float,
) -> DistanceBound:
    """Invert gamma(eta_eff * model(d)) = Gamma by bisection on [d_lo, d_hi].

    The model must be a non-increasing transmissivity of distance in km;
    64 log-spaced samples guard against non-monotone models (for
    example a focused beam measured past its waist), which raise
    NonMonotonicModelError. Converges to 1e-9 relative in d or 60
    bisection steps, whichever comes first. The one-point entry for a
    model of the caller's own; distance_bounds solves many points.
    """
    return _bisect(model, src, det, g, d_lo_km, d_hi_km, {})


def _transmissivity(model: Callable[[float], float], d: float) -> float:
    eta_ch = model(d)
    if not (math.isfinite(eta_ch) and 0.0 <= eta_ch <= 1.0):
        raise BracketError(f"model returned transmissivity {eta_ch!r} at d={d}")
    return eta_ch


@functools.lru_cache(maxsize=32)
def _guard_grid(d_lo_km: float, d_hi_km: float) -> tuple[float, ...]:
    """MONOTONE_SAMPLES log-spaced distances from d_lo_km to d_hi_km, as
    Python floats, not numpy scalars: the models are scalar math. A bad
    bracket raises on every call, since lru_cache keeps no exception."""
    if not (math.isfinite(d_lo_km) and math.isfinite(d_hi_km)) or d_lo_km < 0.0:
        raise BracketError(f"bad interval [{d_lo_km!r}, {d_hi_km!r}]")
    if d_lo_km >= d_hi_km:
        raise BracketError(f"empty interval [{d_lo_km}, {d_hi_km}]")
    grid = np.geomspace(max(d_lo_km, d_hi_km * 1e-12), d_hi_km, MONOTONE_SAMPLES).tolist()
    grid[0] = float(d_lo_km)
    return tuple(grid)


def _bisect(
    model: Callable[[float], float],
    src: SourceModel,
    det: DetectorModel,
    g: GammaThreshold,
    d_lo_km: float,
    d_hi_km: float,
    guards: dict,
) -> DistanceBound:
    """The bisection bound of one point; _guard_grid checks the bracket
    first. guards is the caller's memo for one call: the model's
    values on the guard grid, keyed on the model object itself (held
    there, so its id cannot be reused), and the checked detection
    probabilities, keyed on (model, source, eta_eff)."""
    grid = _guard_grid(d_lo_km, d_hi_km)
    eta_eff = det.eta_eff
    vals = guards.get((model, src, eta_eff))
    if vals is None:
        etas = guards.get(model)
        if etas is None:
            etas = guards[model] = [_transmissivity(model, d) for d in grid]
        if not isinstance(src, SourceModel):
            raise ValidationError(f"unknown source model {src!r}")
        vals = [src.gamma(eta_eff * eta_ch) for eta_ch in etas]
        for i in range(len(vals) - 1):
            if vals[i + 1] > vals[i] + 1e-12:
                raise NonMonotonicModelError(
                    f"detection probability rises from {vals[i]} to {vals[i + 1]} "
                    f"between d={grid[i]} and d={grid[i + 1]} km; restrict the "
                    "interval to the monotone side of the focus"
                )
        guards[(model, src, eta_eff)] = vals
    target = g.gamma_min
    if vals[0] <= target:
        return DistanceBound(0.0, False, "bisection", "infeasible", g)
    if vals[-1] > target:
        return DistanceBound(d_hi_km, True, "bisection", "feasible-everywhere", g)
    # Narrow to the grid cell holding the crossing; otherwise a wide
    # default bracket cannot reach the relative tolerance in 60 steps.
    idx = next(i for i in range(1, len(vals)) if vals[i] <= target)
    lo, hi = grid[idx - 1], grid[idx]
    gamma = src.gamma
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if gamma(eta_eff * _transmissivity(model, mid)) > target:
            lo = mid
        else:
            hi = mid
    return DistanceBound(0.5 * (lo + hi), True, "bisection", "solved", g)


def distance_bounds(
    points: Iterable[tuple[SourceModel, DetectorModel, ScenarioLink]],
    mub_count: int,
    d_lo_km: float,
    d_hi_km: float,
) -> list[DistanceBound | None]:
    """The distance bound of each (source, detector, link) point, in order;
    None where the misalignment alone breaks the threshold.

    A point has a closed form when its link is fiber, or diffraction of a
    collimated beam (infinite curvature_m: the far-field envelope does
    not bound a focused or diverging one), and its source is
    single-photon with k=1, attenuated or decoy. Every other point is
    bisected on [d_lo_km, d_hi_km] by _bisect, with one guard memo for
    the whole call. Each point is solved as it is read, so the first
    failing point raises, and the bracket is checked only if a point is
    bisected. The one solver for many points: every bound equals the
    one a call for that point alone gives, bit for bit.
    """
    bounds: list = []
    guards: dict = {}
    for src, det, link in points:
        try:
            g = gamma_threshold(det, mub_count)
        except InfeasibleConfigurationError:
            bounds.append(None)
            continue
        has_omega = isinstance(src, (Attenuated, Decoy)) or (
            isinstance(src, SinglePhoton) and src.k == 1
        )
        if has_omega and link.kind == "fiber":
            bounds.append(max_fiber_distance(link.fiber, omega(det, src, g)))
        elif has_omega and link.kind == "diffraction" and math.isinf(link.beam.curvature_m):
            bounds.append(max_diffraction_distance(link.beam, omega(det, src, g)))
        else:
            bounds.append(_bisect(link.transmissivity, src, det, g, d_lo_km, d_hi_km, guards))
    return bounds


@dataclass(frozen=True)
class SweepRow:
    y0: float
    d_max_km: float
    feasible: bool


def dark_count_sweep(
    y0_values: Sequence[float],
    det_template: DetectorModel,
    src: SourceModel,
    link: FiberLink,
    mub_count: int,
) -> list[SweepRow]:
    """Fiber distance bound for each dark-count probability, through
    distance_bounds, as sweep_scenario's y0 sweep of that fiber scenario.

    Rows keep the input order; infeasible configurations come back
    flagged rather than raising, so a sweep can cross the feasibility
    boundary. Misalignment infeasibility does raise, since it kills
    every row at once.
    """
    values = [float(y0) for y0 in y0_values]
    if not values:
        return []
    e_det, eta_eff = det_template.e_det, det_template.eta_eff
    # Hopeless misalignment raises here: it is the same at every y0, so
    # the engine flags no row with None.
    gamma_threshold(DetectorModel(values[0], e_det, eta_eff), mub_count)
    fiber = ScenarioLink("fiber", fiber=link)
    points = ((src, DetectorModel(y0, e_det, eta_eff), fiber) for y0 in values)
    bounds = distance_bounds(points, mub_count, *DEFAULT_BRACKETS_KM["fiber"])
    return [SweepRow(y0, b.d_max_km, b.feasible) for y0, b in zip(values, bounds)]
