"""Channel transmissivity models: fiber, atmosphere, satellite, beam optics.

Distance units follow the conventions of each setting: km for fiber and
atmospheric extinction, meters for beam propagation. Each loss formula
is written once, in a kernel: a closure over its part's constants that
checks the distance and evaluates the formula. The public functions
evaluate a kernel built for the call. ScenarioLink pairs a link kind with
its parameter objects and builds its kind's kernel once, in km, with the
atmosphere or satellite factor of a composite beam link folded in, so
the solver's evaluations make no further call. A fiber whose 10/alpha
overflows a float is rejected, as is a beam whose Rayleigh range rounds
to 0.0 or overflows; a beam whose spot size squared overflows a float
passes nothing, 0.0, the limit of the aperture formula.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import ValidationError, field_error, number, real, shown

# Clear-sky extinction at ground level near 800 nm and the atmosphere's
# effective scale height.
DEFAULT_ALPHA0_PER_KM = 5e-3
DEFAULT_SCALE_HEIGHT_KM = 6.6
DEFAULT_ETA_ZENITH = 0.967

# The link kinds and the ScenarioLink parts each one uses.
LINK_PARTS = {
    "fiber": ("fiber",),
    "ground_atmosphere": ("atmosphere",),
    "diffraction": ("beam",),
    "freespace": ("beam", "atmosphere"),
    "satellite": ("beam", "satellite"),
}


@dataclass(frozen=True)
class FiberLink:
    """Telecom fiber with attenuation alpha in dB/km."""

    alpha_db_per_km: float

    def __post_init__(self):
        alpha = real(self.alpha_db_per_km, "alpha_db_per_km", 0.0, ends="()")
        if math.isinf(10.0 / alpha):
            raise field_error("alpha_db_per_km", alpha, "is too small: 10/alpha overflows a float")
        object.__setattr__(self, "alpha_db_per_km", alpha)


def _distance(d, name: str) -> None:
    """Refuse d, a distance that failed a kernel's float test, unless it is
    a number (errors.number) that is finite and >= 0. The kernels then take
    it as it is, so an int is quoted as given."""
    x = number(d, name)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"distance {shown(d)} must be >= 0", name)


def _fiber_kernel(link: FiberLink) -> Callable[[float], float]:
    isfinite, neg_alpha = math.isfinite, -link.alpha_db_per_km

    def fiber(d):
        if not (type(d) is float and isfinite(d) and d >= 0.0):
            _distance(d, "d_km")
        return 10.0 ** (neg_alpha * d / 10.0)

    return fiber


def fiber_transmissivity(link: FiberLink, d_km: float) -> float:
    """eta = 10^(-alpha d / 10)."""
    return _fiber_kernel(link)(d_km)


@dataclass(frozen=True)
class GroundAtmosphere:
    """Horizontal atmospheric path at fixed altitude (Beer-Lambert).

    Extinction decays exponentially with altitude over the scale height.
    """

    alpha0_per_km: float = DEFAULT_ALPHA0_PER_KM
    scale_height_km: float = DEFAULT_SCALE_HEIGHT_KM
    altitude_km: float = 0.0

    def __post_init__(self):
        for name in ("alpha0_per_km", "scale_height_km", "altitude_km"):
            ends = "[)" if name == "altitude_km" else "()"
            object.__setattr__(self, name, real(getattr(self, name), name, 0.0, ends=ends))

    @cached_property
    def extinction_per_km(self) -> float:
        return self.alpha0_per_km * math.exp(-self.altitude_km / self.scale_height_km)


def _ground_kernel(atm: GroundAtmosphere) -> Callable[[float], float]:
    isfinite, exp, neg_alpha_h = math.isfinite, math.exp, -atm.extinction_per_km

    def ground(d):
        if not (type(d) is float and isfinite(d) and d >= 0.0):
            _distance(d, "d_km")
        return exp(neg_alpha_h * d)

    return ground


def atmospheric_transmissivity(atm: GroundAtmosphere, d_km: float) -> float:
    """eta = exp(-alpha(h) d) along a horizontal path of length d."""
    return _ground_kernel(atm)(d_km)


@dataclass(frozen=True)
class SatellitePath:
    """Ground-to-space slant path through the whole atmosphere.

    eta = eta_zenith ** sec(theta), valid for zenith angles up to 1 rad;
    the default zenith transmissivity is for clear sky near 800 nm.
    """

    zenith_angle_rad: float = 0.0
    eta_zenith: float = DEFAULT_ETA_ZENITH

    def __post_init__(self):
        zenith = real(self.zenith_angle_rad, "zenith_angle_rad", 0.0, 1.0)
        object.__setattr__(self, "zenith_angle_rad", zenith)
        object.__setattr__(self, "eta_zenith", real(self.eta_zenith, "eta_zenith", 0.0, 1.0, "(]"))


def satellite_transmissivity(sat: SatellitePath) -> float:
    """Atmospheric factor of the slant path (independent of slant range)."""
    return sat.eta_zenith ** (1.0 / math.cos(sat.zenith_angle_rad))


def satellite_slant_distance_km(altitude_km: float, zenith_angle_rad: float) -> float:
    """Slant range d = h / cos(theta).

    Flat-atmosphere approximation; it ignores Earth's curvature, which
    is acceptable within the 1 rad zenith-angle domain.
    """
    altitude_km = real(altitude_km, "altitude_km", 0.0, ends="()")
    return altitude_km / math.cos(real(zenith_angle_rad, "zenith_angle_rad", 0.0, 1.0))


@dataclass(frozen=True)
class BeamGeometry:
    """Gaussian beam against a circular receiver aperture.

    w0_m is the initial spot size, curvature_m the phase-front radius at
    the transmitter (infinite for a collimated beam, negative allowed
    for a diverging one), aperture_radius_m the receiver radius.
    """

    w0_m: float
    wavelength_m: float
    aperture_radius_m: float
    curvature_m: float = math.inf

    def __post_init__(self):
        for name in ("w0_m", "wavelength_m", "aperture_radius_m"):
            object.__setattr__(self, name, real(getattr(self, name), name, 0.0, ends="()"))
        r0 = self.curvature_m  # an infinite radius, of either sign, is a collimated beam
        if not (isinstance(r0, float) and math.isinf(r0)):
            if real(r0, "curvature_m", -math.inf, math.inf, "()") == 0.0:
                raise field_error("curvature_m", r0, "must be nonzero")
            object.__setattr__(self, "curvature_m", float(r0))
        for name in ("w0_m", "aperture_radius_m"):
            x = getattr(self, name)
            if math.isinf(x * x):
                raise field_error(name, x, "is too large: its square overflows a float")
        problem = None
        if self.rayleigh_range_m == 0.0:
            name, size = ("w0_m", "small") if self.w0_m**2 == 0.0 else ("wavelength_m", "large")
            problem = f"is too {size}: the Rayleigh range rounds to 0.0"
        elif math.isinf(self.rayleigh_range_m):
            big_w0 = math.isinf(math.pi * self.w0_m**2)
            name, size = ("w0_m", "large") if big_w0 else ("wavelength_m", "small")
            problem = f"is too {size}: the Rayleigh range overflows a float"
        if problem:
            raise field_error(name, getattr(self, name), problem)

    @cached_property
    def rayleigh_range_m(self) -> float:
        return math.pi * self.w0_m**2 / self.wavelength_m


def beam_spot_size(beam: BeamGeometry, d_m: float) -> float:
    """Spot size w_d = w0 sqrt((1 - d/R0)^2 + (d/d_R)^2) at range d.

    Never smaller than the far-field envelope w0 d / d_R.
    """
    if not (type(d_m) is float and math.isfinite(d_m) and d_m >= 0.0):
        _distance(d_m, "d_m")
    focus = 0.0 if math.isinf(beam.curvature_m) else d_m / beam.curvature_m
    spread = d_m / beam.rayleigh_range_m
    return beam.w0_m * math.hypot(1.0 - focus, spread)


def _beam_kernel(
    beam: BeamGeometry, scale: float, atmosphere: GroundAtmosphere | None = None, factor=1.0
) -> Callable[[float], float]:
    """The aperture's catch at d * scale meters, times exp(-alpha(h) d)
    along the atmosphere if one is given, else times factor. It reads d
    with errors.number, then checks d * scale with _distance; w_d is
    beam_spot_size's, written out so that no evaluation calls it."""
    isfinite, exp, hypot, expm1 = math.isfinite, math.exp, math.hypot, math.expm1
    w0, z_r, r0 = beam.w0_m, beam.rayleigh_range_m, beam.curvature_m
    neg_2a2 = -2.0 * beam.aperture_radius_m**2
    collimated, freespace = math.isinf(r0), atmosphere is not None
    neg_alpha_h = -atmosphere.extinction_per_km if freespace else 0.0
    name = "d_m" if scale == 1 else "d_km"

    def beam_link(d):
        # Before the scaling, which would pass True * 1000.0.
        if type(d) is not float:
            number(d, name)
        d_m = d * scale
        if not (isfinite(d_m) and d_m >= 0.0):
            _distance(d_m, name)
        w = w0 * hypot(1.0 if collimated else 1.0 - d_m / r0, d_m / z_r)
        try:
            eta = -expm1(neg_2a2 / w**2)
        except OverflowError:
            eta = 0.0
        return eta * (exp(neg_alpha_h * d) if freespace else factor)

    return beam_link


def diffraction_transmissivity(beam: BeamGeometry, d_m: float) -> float:
    """Fraction 1 - exp(-2 a_R^2 / w_d^2) of the beam caught by the aperture;
    0.0 where w_d^2 overflows a float."""
    # The int scale 1 leaves d_m as it is, so an int is quoted as given.
    return _beam_kernel(beam, 1)(d_m)


# The class of each ScenarioLink part.
_PART_CLASSES = {
    "fiber": FiberLink,
    "beam": BeamGeometry,
    "atmosphere": GroundAtmosphere,
    "satellite": SatellitePath,
}


@dataclass(frozen=True)
class ScenarioLink:
    """A link of one kind: the parameter objects that kind uses and its
    transmissivity as a function of distance in km, built once from them.

    LINK_PARTS names the parts of each kind; a missing part, a part the
    kind does not use, or a part of the wrong class is a ValidationError.
    """

    kind: str
    fiber: FiberLink | None = None
    beam: BeamGeometry | None = None
    atmosphere: GroundAtmosphere | None = None
    satellite: SatellitePath | None = None
    transmissivity: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = LINK_PARTS.get(self.kind) if isinstance(self.kind, str) else None
        if parts is None:
            raise ValidationError(
                f"unknown link kind {shown(self.kind)}, expected one of {tuple(LINK_PARTS)}"
            )
        for name in _PART_CLASSES:
            if (getattr(self, name) is None) == (name in parts):
                need = "needs" if name in parts else "does not use"
                raise ValidationError(f"{self.kind} link {need} {name}")
        for name in parts:
            part, cls = getattr(self, name), _PART_CLASSES[name]
            if not isinstance(part, cls):
                raise ValidationError(
                    f"{self.kind} link {name} must be a {cls.__name__}, "
                    f"not {type(part).__name__}"
                )
        object.__setattr__(self, "transmissivity", _flat_model(self))


def _flat_model(link: ScenarioLink) -> Callable[[float], float]:
    """The link's transmissivity in km: its kind's kernel, with the beam
    kinds' distance check on d * 1000.0."""
    if link.kind == "fiber":
        return _fiber_kernel(link.fiber)
    if link.kind == "ground_atmosphere":
        return _ground_kernel(link.atmosphere)
    # A diffraction link's factor 1.0 leaves every value as it is.
    factor = satellite_transmissivity(link.satellite) if link.kind == "satellite" else 1.0
    return _beam_kernel(link.beam, 1000.0, link.atmosphere, factor)


def _never_rises(link: ScenarioLink) -> bool:
    """Whether link.transmissivity cannot rise with distance by more than
    a few ulp, by construction of its kernel. The fiber and ground
    kernels are exponentials of -d. _beam_kernel's spot size w never
    shrinks unless the beam is focused (a finite positive curvature_m),
    and when w0 squared is a normal float so is every w squared, so its
    catch falls with d too."""
    beam = link.beam
    return beam is None or (
        not 0.0 < beam.curvature_m < math.inf and beam.w0_m**2 >= sys.float_info.min
    )
