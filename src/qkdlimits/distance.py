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
An explicit bracket holds on every route: a closed form whose crossing
lies outside it is reported as the bisection would report it. Without
one, each point is bisected on its link kind's default bracket and the
closed forms stand as they are. max_distance_numeric bisects one point
on a model of the caller's own.

One rule, how the point is built, picks the bisection's path. A point
is monotone when its link cannot rise with distance by construction
(every kind but a focused beam, or one whose w0 squared is subnormal)
and its source's gamma is the package's own. Its guard is lazy: it
reads each grid transmissivity and computes each detection probability
only when the search for the crossing cell asks for it, and every bound
stays bit-identical to the full guard's. Every other point, and every
model of the caller's own, takes the full guard: all 64 values are
computed and checked. The bisection runs until it meets its 1e-9
relative tolerance.

Most of a monotone point's midpoints need no model call. Where the
values near the crossing are normal floats, a few regula falsi trials
first certify a point a above the crossing and a point b below it, each
more than CERTIFY_MARGIN (about 1e4 ulps) from Gamma. The computed
detection probability is then monotone in d to a few ulp, so a midpoint
at or below a, or at or above b, would test the way the plain loop
would find by evaluating it: the bisection takes that side without a
call, and every bound and error stays bit-identical.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .detection import Attenuated, Decoy, DetectorModel, SinglePhoton, SourceModel
from .errors import (
    BracketError,
    InfeasibleConfigurationError,
    NonMonotonicModelError,
    ValidationError,
    sequence,
)
from .links import BeamGeometry, FiberLink, ScenarioLink, _never_rises
from .qber import MUB_COUNTS, MUB_NAMES, check_mub_count, symmetric_threshold

BISECT_REL_TOL = 1e-9
MONOTONE_SAMPLES = 64
# The certified skip of _bisect: a detection probability more than
# Gamma * CERTIFY_MARGIN (about 1e4 ulps) from Gamma certifies its side of
# the crossing. At most CERTIFY_TRIALS regula falsi trials look for the
# crossing; one inside the margin is closed in by a probe at a relative
# CERTIFY_PROBE on either side.
CERTIFY_MARGIN = 1e-12
CERTIFY_TRIALS = 6
CERTIFY_PROBE = 1e-10
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
    loss, d_max = inf) or "feasible-everywhere" (the crossing lies past
    the bracket), where d_max is only the bracket end that was still
    feasible. gamma (and omega, on a closed-form route) are the
    thresholds behind the bound.
    """

    d_max_km: float
    feasible: bool
    method: str
    status: str = "solved"
    gamma: GammaThreshold | None = None
    omega: OmegaValue | None = None


# Each basis count's (m - 1)/(2m), m - 1, 2m and name, for gamma_threshold.
_GAMMA_TERMS = {
    m: (symmetric_threshold(m), m - 1.0, 2.0 * m, name) for m, name in zip(MUB_COUNTS, MUB_NAMES)
}


def gamma_threshold(det: DetectorModel, mub_count: int) -> GammaThreshold:
    """Minimum gamma keeping the symmetric QBER under the protocol threshold.

    m bases need E < (m - 1)/(2m) (1/4, 1/3), giving
    Gamma = Y0 / ((m - 1) + Y0 - 2m e_det). Misalignment at or above the
    threshold is infeasible outright.
    """
    check_mub_count(mub_count)
    e_t, below, scale, name = _GAMMA_TERMS[mub_count]
    if det.e_det >= e_t:
        raise InfeasibleConfigurationError(
            f"e_det={det.e_det} is at or above the {name} threshold 1/{round(1 / e_t)}; "
            "the QBER floor from misalignment alone already breaks security"
        )
    g = det.y0 / (below + det.y0 - scale * det.e_det)
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
    """Closed form d_max = -(10 / alpha) log10(Omega) for fiber loss;
    its status by _closed_form."""
    d_km = -(10.0 / link.alpha_db_per_km) * math.log10(o.omega) if 0.0 < o.omega < 1.0 else math.nan
    return _closed_form(d_km, o)


def max_diffraction_distance(beam: BeamGeometry, o: OmegaValue) -> DistanceBound:
    """Far-field diffraction bound d < (pi w0 a_R / lambda) sqrt(2 / Omega').

    Uses the spreading envelope w_d >= w0 d / d_R, so it slightly
    overestimates the exact crossing; reported in km, with the status of
    _closed_form (a crossing that rounds to 0 km is infeasible).
    """
    scale = math.pi * beam.w0_m * beam.aperture_radius_m / beam.wavelength_m
    d_km = scale * math.sqrt(2.0 / o.omega_prime) / 1000.0 if 0.0 < o.omega < 1.0 else math.nan
    return _closed_form(d_km, o)


def _closed_form(d_km: float, o: OmegaValue) -> DistanceBound:
    """The bound of a crossing d_km (NaN unless 0 < Omega < 1): unbounded for Omega <= 0
    or d_km = inf, infeasible for Omega >= 1 or d_km <= 0, solved otherwise."""
    if o.omega <= 0.0:
        return DistanceBound(math.inf, True, "closed-form", "unbounded", o.gamma, o)
    if o.omega >= 1.0 or d_km <= 0.0:
        return DistanceBound(0.0, False, "closed-form", "infeasible", o.gamma, o)
    status = "unbounded" if math.isinf(d_km) else "solved"
    return DistanceBound(d_km, True, "closed-form", status, o.gamma, o)


def max_distance_numeric(
    model: Callable[[float], float],
    src: SourceModel,
    det: DetectorModel,
    g: GammaThreshold,
    d_lo_km: float,
    d_hi_km: float,
) -> DistanceBound:
    """Invert gamma(eta_eff * model(d)) = Gamma by bisection on [d_lo, d_hi].

    The model must be a non-increasing transmissivity of distance in km.
    It always takes the full guard: 64 log-spaced samples, all computed
    and checked, guard against non-monotone models (for example a
    focused beam measured past its waist), which raise
    NonMonotonicModelError. Converges to 1e-9 relative in d. The
    one-point entry for a model of the caller's own; distance_bounds
    solves many points.
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


# The package's own detection functions, by source type. Each is monotone
# in eta and accurate to a few ulp, so on transmissivities that never rise
# its computed values rise by less than 1e-15, and the guard's 1e-12 check
# cannot fire. A source whose gamma is any other function is fully checked.
_PACKAGE_GAMMAS = {
    SinglePhoton: SinglePhoton.gamma,
    Attenuated: Attenuated.gamma,
    Decoy: Decoy.gamma,
}


def _guard(model, src: SourceModel, eta_eff: float, grid, guards: dict, monotone: bool):
    """The detection probability at each guard grid index of (model, src,
    eta_eff), as a function of the index, kept in the call's memo.

    The memo also holds the model's values on the grid, each read through
    _transmissivity once, when first needed. A monotone point (see
    _bisect) reads the grid's far end first: a package kernel checks its
    distance, so it fails there if it fails anywhere, with the same
    message. Then each probability is computed once, when the cell search
    asks for it. Every other point reads all the grid's values, then
    computes every probability, and a rise above 1e-12 raises
    NonMonotonicModelError, as it does for a focused beam or a model with
    a bump.
    """
    # A source compares by its fields, so the key also holds its gamma
    # function: one whose instance gamma was replaced must not share an
    # entry with a package source, while equal package sources still do.
    own = getattr(src, "gamma", None)
    key = (model, src, getattr(own, "__func__", own), eta_eff)
    prob = guards.get(key)
    if prob is not None:
        return prob
    n = len(grid)
    etas, vals = guards.setdefault(model, [None] * n), [None] * n

    def eta(i: int) -> float:
        if etas[i] is None:
            etas[i] = _transmissivity(model, grid[i])
        return etas[i]

    def prob(i: int) -> float:
        if vals[i] is None:
            vals[i] = gamma(eta_eff * eta(i))
        return vals[i]

    # The far end alone for a monotone point, every value for the rest.
    for i in range(n - 1 if monotone else 0, n):
        eta(i)
    if not isinstance(src, SourceModel):
        raise ValidationError(f"unknown source model {src!r}")
    gamma = src.gamma
    if not monotone:
        vals[:] = [gamma(eta_eff * eta_ch) for eta_ch in etas]
        for i in range(n - 1):
            if vals[i + 1] > vals[i] + 1e-12:
                raise NonMonotonicModelError(
                    f"detection probability rises from {vals[i]} to {vals[i + 1]} "
                    f"between d={grid[i]} and d={grid[i + 1]} km; restrict the "
                    "interval to the monotone side of the focus"
                )
    guards[key] = prob
    return prob


def _bisect(
    model: Callable[[float], float],
    src: SourceModel,
    det: DetectorModel,
    g: GammaThreshold,
    d_lo_km: float,
    d_hi_km: float,
    guards: dict,
    monotone: bool = False,
) -> DistanceBound:
    """The bisection bound of one point; _guard_grid checks the bracket
    first. guards is the caller's memo for one call: the model's values
    on the guard grid, keyed on the model object itself (held there, so
    its id cannot be reused), and the detection probabilities, keyed on
    (model, source, the source's gamma function, eta_eff); see _guard. The bisection runs until
    hi - lo <= BISECT_REL_TOL * hi, or until no float lies between them.

    monotone says how the point is built: model is a package link kernel
    that cannot rise with distance (see links._never_rises), and src's
    gamma is the package's own (_PACKAGE_GAMMAS). Its computed detection
    probability then rises by less than 1e-15 between any two distances,
    so its guard is lazy and cannot fail. Where Gamma also passes
    _normal_near, that probability is monotone to a few ulp, well inside
    CERTIFY_MARGIN. So each midpoint at or below the certified end a of
    _certified_bracket, or at or above b, takes the side it would test to
    without a model call, and the midpoints, the bound and every error
    are those of the plain loop, bit for bit. Every other point takes the
    full guard and the plain loop."""
    grid = _guard_grid(d_lo_km, d_hi_km)
    eta_eff = det.eta_eff
    prob = _guard(model, src, eta_eff, grid, guards, monotone)
    target = g.gamma_min
    lo, hi = 0, len(grid) - 1
    if prob(lo) <= target:
        return DistanceBound(0.0, False, "bisection", "infeasible", g)
    if prob(hi) > target:
        return DistanceBound(d_hi_km, True, "bisection", "feasible-everywhere", g)
    # Find the grid cell of the first crossing, so that a wide bracket
    # starts the bisection from one cell. On monotone values, halving
    # finds a crossing, and it is the first if the value before it exceeds
    # the target by more than 1e-12, since those values rise by less than
    # 1e-15. Otherwise, and on checked values, scan from the near end.
    if monotone:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if prob(mid) > target:
                lo = mid
            else:
                hi = mid
    idx = hi
    if not (monotone and prob(lo) > target + 1e-12):
        idx = next(i for i in range(1, hi + 1) if prob(i) <= target)
    lo, hi = grid[idx - 1], grid[idx]
    gamma, tol = src.gamma, BISECT_REL_TOL
    # a and b are the certified ends; without a certificate they are the
    # cell's ends, which no midpoint reaches. The trials work in ln d, so
    # a cell that starts at 0 gets none.
    a, b = lo, hi
    if monotone and lo > 0.0 and _normal_near(src, target):
        a, b = _certified_bracket(model, gamma, eta_eff, target, lo, hi, prob(idx - 1), prob(idx))
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a:
            lo = mid
            continue
        if mid >= b:
            hi = mid
            continue
        if gamma(eta_eff * _transmissivity(model, mid)) > target:
            lo = mid
        else:
            hi = mid
    return DistanceBound(0.5 * (lo + hi), True, "bisection", "solved", g)


def _normal_near(src: SourceModel, target: float) -> bool:
    """Whether Gamma(1 - CERTIFY_MARGIN) is a normal float even divided by
    the source's photon scale (k, or mu when above 1): then every value
    the link and src.gamma compute near the crossing is a normal float,
    accurate to a few ulp. False for Gamma = 0 (y0 = 0)."""
    scale = src.k if isinstance(src, SinglePhoton) else max(1.0, src.mu)
    return target * (1.0 - CERTIFY_MARGIN) / scale >= sys.float_info.min


def _certified_bracket(model, gamma, eta_eff, target, lo, hi, g_lo, g_hi):
    """(a, b) around the crossing in the cell (lo, hi), whose detection
    probabilities are g_lo > target >= g_hi: a is the largest distance
    evaluated whose probability exceeds Gamma(1 + CERTIFY_MARGIN), b the
    smallest whose probability is below Gamma(1 - CERTIFY_MARGIN); lo and
    hi where there is none.

    The trials are Illinois regula falsi in ln d on ln(gamma / Gamma)
    (Dowell & Jarratt, BIT 11, 168-174, 1971), at most CERTIFY_TRIALS of
    them. A trial inside the margin band ends the search, after one
    probe on either side of it at a relative distance CERTIFY_PROBE.
    Every distance tried lies inside the cell.
    """
    up, down = target * (1.0 + CERTIFY_MARGIN), target * (1.0 - CERTIFY_MARGIN)
    log, exp, tiny = math.log, math.exp, sys.float_info.min
    ln_target = log(target)
    a, b = lo, hi
    # x is ln d, f is ln(gamma / Gamma): falling, and close to straight
    # over a cell for every link kind.
    x0, f0 = log(lo), log(g_lo) - ln_target
    x1, f1 = log(hi), log(max(g_hi, tiny)) - ln_target
    side = 0
    for _ in range(CERTIFY_TRIALS):
        x = x0 + (x1 - x0) * f0 / (f0 - f1) if f0 > f1 else 0.5 * (x0 + x1)
        d = exp(x)
        if not a < d < b:
            d = 0.5 * (a + b)
            x = log(d)
        v = gamma(eta_eff * model(d))
        if v > up:
            a = d
        elif v < down:
            b = d
        else:
            for p in (d * (1.0 - CERTIFY_PROBE), d * (1.0 + CERTIFY_PROBE)):
                if a < p < b:
                    v = gamma(eta_eff * model(p))
                    if v > up:
                        a = p
                    elif v < down:
                        b = p
            break
        # Illinois: a second step in a row on one side halves the other
        # end's f, so that end moves too.
        if v > target:
            x0, f0 = x, log(v) - ln_target
            if side > 0:
                f1 *= 0.5
            side = 1
        else:
            x1, f1 = x, log(max(v, tiny)) - ln_target
            if side < 0:
                f0 *= 0.5
            side = -1
    return a, b


def _clip(bound: DistanceBound, bracket: tuple[float, float] | None) -> DistanceBound:
    """A closed-form bound on an explicit bracket, as the bisection reports
    one: a crossing at or below d_lo_km is infeasible, one past d_hi_km
    is feasible everywhere at d_hi_km. Without a bracket, the bound."""
    if bracket is None:
        return bound
    d_lo_km, d_hi_km = bracket
    if bound.feasible and bound.d_max_km <= d_lo_km:
        return replace(bound, d_max_km=0.0, feasible=False, status="infeasible")
    if bound.d_max_km > d_hi_km:
        return replace(bound, d_max_km=d_hi_km, status="feasible-everywhere")
    return bound


def distance_bounds(
    points: Iterable[tuple[SourceModel, DetectorModel, ScenarioLink]],
    mub_count: int,
    bracket: tuple[float, float] | None = None,
) -> list[DistanceBound | None]:
    """The distance bound of each (source, detector, link) point, in order;
    None where the misalignment alone breaks the threshold.

    A point has a closed form when its link is fiber, or diffraction of a
    collimated beam (infinite curvature_m: the far-field envelope does
    not bound a focused or diverging one), and its source is
    single-photon with k=1, attenuated or decoy. Every other point is
    bisected by _bisect, with one guard memo for the whole call; it is
    monotone when links._never_rises holds for its link and its source's
    gamma is the package's own. bracket
    is (d_lo_km, d_hi_km): when given, it is checked first and holds on
    every route, the closed forms clipped to it by _clip; when None,
    each point is bisected on its link kind's DEFAULT_BRACKETS_KM and
    the closed forms stand unclipped. Each point is solved as it is
    read, so the first failing point raises. The one solver for many
    points: every bound equals the one a call for that point alone
    gives, bit for bit.
    """
    if bracket is not None:
        _guard_grid(*bracket)  # raises BracketError on a bad bracket
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
            bound = _clip(max_fiber_distance(link.fiber, omega(det, src, g)), bracket)
        elif has_omega and link.kind == "diffraction" and math.isinf(link.beam.curvature_m):
            bound = _clip(max_diffraction_distance(link.beam, omega(det, src, g)), bracket)
        else:
            lo, hi = bracket or DEFAULT_BRACKETS_KM[link.kind]
            own = _PACKAGE_GAMMAS.get(type(src))
            monotone = own is not None and getattr(src.gamma, "__func__", None) is own
            monotone = monotone and _never_rises(link)
            bound = _bisect(link.transmissivity, src, det, g, lo, hi, guards, monotone)
        bounds.append(bound)
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
    # Each DetectorModel checks its y0 as the engine reaches the point.
    values = sequence(y0_values, "y0_values")
    if not values:
        return []
    e_det, eta_eff = det_template.e_det, det_template.eta_eff
    # Hopeless misalignment raises here: it is the same at every y0, so
    # the engine flags no row with None.
    gamma_threshold(DetectorModel(values[0], e_det, eta_eff), mub_count)
    fiber = ScenarioLink("fiber", fiber=link)
    points = ((src, DetectorModel(y0, e_det, eta_eff), fiber) for y0 in values)
    bounds = distance_bounds(points, mub_count)
    return [SweepRow(float(y0), b.d_max_km, b.feasible) for y0, b in zip(values, bounds)]
