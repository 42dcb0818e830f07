"""Transmissivity models: fiber, atmosphere, slant paths, Gaussian beams."""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdlimits import distance, scenario
from qkdlimits import (
    BeamGeometry,
    DetectorModel,
    FiberLink,
    GroundAtmosphere,
    SatellitePath,
    ScenarioLink,
    SinglePhoton,
    ValidationError,
    atmospheric_transmissivity,
    beam_spot_size,
    dark_count_sweep,
    diffraction_transmissivity,
    fiber_transmissivity,
    satellite_slant_distance_km,
    satellite_transmissivity,
)
from qkdlimits.distance import DEFAULT_BRACKETS_KM
from qkdlimits.links import LINK_PARTS


class TestFiber:
    LINK = FiberLink(alpha_db_per_km=0.17)

    def test_zero_distance(self):
        assert fiber_transmissivity(self.LINK, 0.0) == 1.0

    def test_frozen_values(self):
        assert math.isclose(
            fiber_transmissivity(self.LINK, 100.0), 0.019952623149688795, rel_tol=1e-14
        )
        assert math.isclose(
            fiber_transmissivity(self.LINK, 470.0), 1.023292992280754e-08, rel_tol=1e-13
        )

    def test_multiplicative_in_distance(self):
        a = fiber_transmissivity(self.LINK, 120.0)
        b = fiber_transmissivity(self.LINK, 80.0)
        assert math.isclose(a * b, fiber_transmissivity(self.LINK, 200.0), rel_tol=1e-13)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FiberLink(alpha_db_per_km=0.0)
        with pytest.raises(ValidationError):
            FiberLink(alpha_db_per_km=-0.1)
        with pytest.raises(ValidationError):
            fiber_transmissivity(self.LINK, -1.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-308])
    def test_an_alpha_whose_10_over_alpha_overflows_is_rejected(self, alpha):
        # The closed form's 10/alpha would be inf, and the route would
        # decide the verdict: unbounded closed form, bisected to a bracket.
        with pytest.raises(ValidationError) as exc:
            FiberLink(alpha_db_per_km=alpha)
        assert str(exc.value) == f"alpha_db_per_km={alpha!r} is too small: 10/alpha overflows a float"
        assert exc.value.field == "alpha_db_per_km"
        assert math.isfinite(10.0 / FiberLink(alpha_db_per_km=5.6e-308).alpha_db_per_km)


class TestGroundAtmosphere:
    def test_sea_level_frozen_value(self):
        atm = GroundAtmosphere()
        assert math.isclose(atmospheric_transmissivity(atm, 10.0), math.exp(-0.05), rel_tol=1e-15)

    def test_extinction_decays_with_altitude(self):
        at_scale_height = GroundAtmosphere(altitude_km=6.6)
        assert math.isclose(
            at_scale_height.extinction_per_km, 0.0018393972058572117, rel_tol=1e-14
        )
        assert GroundAtmosphere(altitude_km=20.0).extinction_per_km < 5e-3 / math.e

    def test_zero_distance(self):
        assert atmospheric_transmissivity(GroundAtmosphere(), 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            GroundAtmosphere(alpha0_per_km=0.0)
        with pytest.raises(ValidationError):
            GroundAtmosphere(scale_height_km=-1.0)
        with pytest.raises(ValidationError):
            GroundAtmosphere(altitude_km=-0.1)
        with pytest.raises(ValidationError):
            atmospheric_transmissivity(GroundAtmosphere(), -5.0)


class TestSatellitePath:
    def test_zenith(self):
        assert satellite_transmissivity(SatellitePath(zenith_angle_rad=0.0)) == 0.967

    def test_frozen_slant_value(self):
        sat = SatellitePath(zenith_angle_rad=1.0)
        assert math.isclose(satellite_transmissivity(sat), 0.9397819277477991, rel_tol=1e-14)

    def test_lossless_atmosphere(self):
        for z in (0.0, 0.5, 1.0):
            assert satellite_transmissivity(SatellitePath(zenith_angle_rad=z, eta_zenith=1.0)) == 1.0

    def test_slant_distance(self):
        assert satellite_slant_distance_km(500.0, 0.0) == 500.0
        assert math.isclose(
            satellite_slant_distance_km(500.0, 1.0), 500.0 / math.cos(1.0), rel_tol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            SatellitePath(zenith_angle_rad=1.01)
        with pytest.raises(ValidationError):
            SatellitePath(zenith_angle_rad=-0.1)
        with pytest.raises(ValidationError):
            SatellitePath(zenith_angle_rad=0.5, eta_zenith=0.0)
        with pytest.raises(ValidationError):
            SatellitePath(zenith_angle_rad=0.5, eta_zenith=1.1)
        with pytest.raises(ValidationError):
            satellite_slant_distance_km(0.0, 0.5)

    @pytest.mark.parametrize("zenith", [-0.1, 1.01, math.nan])
    def test_slant_distance_checks_the_zenith_angle(self, zenith):
        with pytest.raises(ValidationError, match=r"zenith angle .* outside \[0, 1\] rad"):
            satellite_slant_distance_km(500.0, zenith)


class TestBeamGeometry:
    BEAM = BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=0.5)

    def test_waist_at_origin(self):
        assert beam_spot_size(self.BEAM, 0.0) == 2.0

    def test_rayleigh_range(self):
        assert math.isclose(self.BEAM.rayleigh_range_m, 15707963.267948966, rel_tol=1e-15)

    def test_spot_at_rayleigh_range_is_sqrt2_waist(self):
        spot = beam_spot_size(self.BEAM, self.BEAM.rayleigh_range_m)
        assert math.isclose(spot, 2.0 * math.sqrt(2.0), rel_tol=1e-15)

    def test_focused_beam_shrinks_before_spreading(self):
        focused = BeamGeometry(w0_m=0.2, wavelength_m=1e-6, aperture_radius_m=0.1, curvature_m=1e4)
        at_focus = beam_spot_size(focused, 1e4)
        assert at_focus < 0.2
        assert beam_spot_size(focused, 0.0) == 0.2

    def test_divergent_beam_spreads_faster(self):
        divergent = BeamGeometry(w0_m=0.2, wavelength_m=1e-6, aperture_radius_m=0.1, curvature_m=-1e4)
        collimated = BeamGeometry(w0_m=0.2, wavelength_m=1e-6, aperture_radius_m=0.1)
        d = 5e3
        assert beam_spot_size(divergent, d) > beam_spot_size(collimated, d)

    @given(
        st.floats(1e-3, 5.0),
        st.floats(3e-7, 2e-6),
        st.floats(0.0, 1e9),
    )
    def test_far_field_envelope(self, w0, wavelength, d):
        beam = BeamGeometry(w0_m=w0, wavelength_m=wavelength, aperture_radius_m=0.5)
        spread = d / beam.rayleigh_range_m
        assert beam_spot_size(beam, d) >= w0 * spread * (1.0 - 1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BeamGeometry(w0_m=0.0, wavelength_m=8e-7, aperture_radius_m=0.5)
        with pytest.raises(ValidationError):
            BeamGeometry(w0_m=2.0, wavelength_m=0.0, aperture_radius_m=0.5)
        with pytest.raises(ValidationError):
            BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=-0.5)
        with pytest.raises(ValidationError):
            BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=0.5, curvature_m=0.0)
        with pytest.raises(ValidationError):
            BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=0.5, curvature_m=float("nan"))

    @pytest.mark.parametrize("name", ["w0_m", "aperture_radius_m"])
    def test_a_value_whose_square_overflows_is_rejected(self, name):
        fields = {"w0_m": 2.0, "wavelength_m": 8e-7, "aperture_radius_m": 0.5, name: 1e200}
        with pytest.raises(ValidationError, match=f"{name}=1e\\+200 is too large"):
            BeamGeometry(**fields)
        fields[name] = 1e154  # its square, 1e308, is still a float
        if name == "aperture_radius_m":
            assert BeamGeometry(**fields).w0_m > 0.0
        else:  # but pi w0^2 is not, so the Rayleigh range overflows
            with pytest.raises(ValidationError, match="w0_m=1e\\+154 is too large: the Rayleigh"):
                BeamGeometry(**fields)

    @pytest.mark.parametrize(
        "link, path",
        [
            ({"kind": "diffraction", "w0_m": 1e200, "wavelength_m": 8e-7,
              "aperture_radius_m": 0.5}, "link.w0_m"),
            ({"kind": "satellite", "beam": {"w0_m": 0.1, "wavelength_m": 8e-7,
              "aperture_radius_m": 1e200}}, "link.beam.aperture_radius_m"),
        ],
    )
    def test_a_scenario_names_the_overflowing_field(self, link, path):
        doc = {
            "schema_version": 1,
            "protocol": {"mub_count": 2},
            "source": {"kind": "single_photon"},
            "detector": {"y0": 1e-6, "e_det": 0.01},
            "link": link,
        }
        with pytest.raises(ValidationError, match=f"^scenario field {path}: "):
            scenario.parse_scenario(doc)

    @pytest.mark.parametrize(
        "link, path",
        [
            ({"kind": "fiber", "alpha_db_per_km": 5e-324}, "link.alpha_db_per_km"),
            ({"kind": "diffraction", "w0_m": 1.0, "wavelength_m": 1e-320,
              "aperture_radius_m": 1.0}, "link.wavelength_m"),
            ({"kind": "satellite", "beam": {"w0_m": 1e154, "wavelength_m": 8e-7,
              "aperture_radius_m": 0.5}}, "link.beam.w0_m"),
        ],
    )
    def test_a_scenario_names_the_field_of_an_overflowing_constant(self, link, path):
        doc = {
            "schema_version": 1,
            "protocol": {"mub_count": 2},
            "source": {"kind": "single_photon"},
            "detector": {"y0": 1e-6, "e_det": 0.01},
            "link": link,
        }
        with pytest.raises(ValidationError, match=f"^scenario field {path}: .* overflows a float$"):
            scenario.parse_scenario(doc)

    @pytest.mark.parametrize(
        "w0, wavelength, name, message",
        [
            (1.0, 1e-320, "wavelength_m", "wavelength_m=1e-320 is too small"),
            (1e150, 1e-300, "wavelength_m", "wavelength_m=1e-300 is too small"),
            (1e154, 8e-7, "w0_m", "w0_m=1e+154 is too large"),
        ],
    )
    def test_a_rayleigh_range_that_overflows_is_rejected(self, w0, wavelength, name, message):
        # An infinite Rayleigh range is a beam that never spreads, and the
        # route would decide the verdict, as for a fiber's 10/alpha.
        with pytest.raises(ValidationError) as exc:
            BeamGeometry(w0_m=w0, wavelength_m=wavelength, aperture_radius_m=0.5)
        assert str(exc.value) == f"{message}: the Rayleigh range overflows a float"
        assert exc.value.field == name
        beam = BeamGeometry(w0_m=1e150, wavelength_m=1e-6, aperture_radius_m=0.5)
        assert math.isfinite(beam.rayleigh_range_m)

    @pytest.mark.parametrize(
        "w0, wavelength, name, message",
        [
            (1e-200, 8e-7, "w0_m", "w0_m=1e-200 is too small"),
            (1e-13, 1e300, "wavelength_m", "wavelength_m=1e+300 is too large"),
        ],
    )
    def test_a_rayleigh_range_that_rounds_to_zero_is_rejected(self, w0, wavelength, name, message):
        # pi w0^2 / lambda underflows to 0.0, which every spot size divides by.
        with pytest.raises(ValidationError) as exc:
            BeamGeometry(w0_m=w0, wavelength_m=wavelength, aperture_radius_m=0.5)
        assert str(exc.value) == f"{message}: the Rayleigh range rounds to 0.0"
        assert exc.value.field == name
        # A Rayleigh range that is tiny but not zero is a beam that spreads at once.
        beam = BeamGeometry(w0_m=1e-160, wavelength_m=8e-7, aperture_radius_m=0.5)
        assert 0.0 < beam.rayleigh_range_m and diffraction_transmissivity(beam, 1.0) == 0.0


class TestDiffraction:
    def test_full_capture_near_waist(self):
        beam = BeamGeometry(w0_m=0.01, wavelength_m=8e-7, aperture_radius_m=5.0)
        assert diffraction_transmissivity(beam, 0.0) > 0.9999999

    def test_matched_aperture_frozen_value(self):
        # aperture^2 = w^2 / 2 gives exactly 1 - 1/e at the waist
        beam = BeamGeometry(w0_m=1.0, wavelength_m=8e-7, aperture_radius_m=math.sqrt(0.5))
        assert math.isclose(diffraction_transmissivity(beam, 0.0), 0.6321205588285577, rel_tol=1e-14)

    def test_collimated_capture_decreases(self):
        beam = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)
        values = [diffraction_transmissivity(beam, d) for d in (0.0, 1e3, 1e4, 1e5, 1e6)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_a_spot_whose_square_overflows_passes_nothing(self):
        beam = BeamGeometry(w0_m=0.1, wavelength_m=8e-7, aperture_radius_m=0.5)
        assert diffraction_transmissivity(beam, 1e300) == 0.0
        assert diffraction_transmissivity(beam, 1e150) > 0.0

    @given(st.floats(1e-3, 5.0), st.floats(3e-7, 2e-6), st.floats(1e-3, 2.0), st.floats(0.0, 1e12))
    def test_range(self, w0, wavelength, aperture, d):
        beam = BeamGeometry(w0_m=w0, wavelength_m=wavelength, aperture_radius_m=aperture)
        assert 0.0 <= diffraction_transmissivity(beam, d) <= 1.0



@pytest.mark.parametrize(
    "make, name, expected",
    [
        (
            lambda: BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25),
            "rayleigh_range_m",
            lambda b: math.pi * b.w0_m**2 / b.wavelength_m,
        ),
        (
            lambda: GroundAtmosphere(altitude_km=2.0),
            "extinction_per_km",
            lambda a: a.alpha0_per_km * math.exp(-a.altitude_km / a.scale_height_km),
        ),
    ],
)
def test_cached_link_constants_leave_identity_to_the_fields(make, name, expected):
    used, fresh = make(), make()
    assert getattr(used, name) == expected(used)
    assert getattr(used, name) is getattr(used, name)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


PARTS = {
    "fiber": FiberLink(0.2),
    "beam": BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25),
    "atmosphere": GroundAtmosphere(),
    "satellite": SatellitePath(),
}


class TestScenarioLink:
    def test_link_kinds_are_one_table(self):
        assert scenario._LINK_KINDS == tuple(LINK_PARTS)
        assert DEFAULT_BRACKETS_KM.keys() == LINK_PARTS.keys()

    @pytest.mark.parametrize("kind", sorted(LINK_PARTS))
    def test_each_kind_builds_from_its_parts(self, kind):
        link = ScenarioLink(kind, **{name: PARTS[name] for name in LINK_PARTS[kind]})
        assert 0.0 < link.transmissivity(1.0) <= 1.0

    @pytest.mark.parametrize("kind", sorted(LINK_PARTS))
    def test_a_missing_part_is_rejected(self, kind):
        for missing in LINK_PARTS[kind]:
            parts = {name: PARTS[name] for name in LINK_PARTS[kind] if name != missing}
            with pytest.raises(ValidationError, match=f"{kind} link needs {missing}"):
                ScenarioLink(kind, **parts)

    @pytest.mark.parametrize("kind", sorted(LINK_PARTS))
    def test_a_part_the_kind_does_not_use_is_rejected(self, kind):
        for extra in sorted(PARTS.keys() - set(LINK_PARTS[kind])):
            parts = {name: PARTS[name] for name in (*LINK_PARTS[kind], extra)}
            with pytest.raises(ValidationError, match=f"{kind} link does not use {extra}"):
                ScenarioLink(kind, **parts)

    @pytest.mark.parametrize("kind", ["bogus", "", None, ["fiber"]])
    def test_an_unknown_kind_is_rejected(self, kind):
        with pytest.raises(ValidationError, match="unknown link kind"):
            ScenarioLink(kind, fiber=PARTS["fiber"])

    def test_dark_count_sweep_needs_a_fiber(self):
        det = DetectorModel(y0=1e-8, e_det=0.01)
        with pytest.raises(ValidationError, match="fiber link needs fiber"):
            dark_count_sweep([1e-8], det, SinglePhoton(), None, 2)

    @pytest.mark.parametrize("kind", sorted(LINK_PARTS))
    def test_a_part_of_the_wrong_class_is_rejected(self, kind):
        for name in LINK_PARTS[kind]:
            wrong = next(p for n, p in PARTS.items() if n != name)
            for bad in ("x", 1.0, wrong):
                parts = {n: bad if n == name else PARTS[n] for n in LINK_PARTS[kind]}
                with pytest.raises(ValidationError, match=f"{kind} link {name} must be a "):
                    ScenarioLink(kind, **parts)

    def test_dark_count_sweep_rejects_a_scenario_link_as_its_fiber(self):
        det = DetectorModel(y0=1e-8, e_det=0.01)
        link = ScenarioLink("fiber", fiber=PARTS["fiber"])
        message = "fiber link fiber must be a FiberLink, not ScenarioLink"
        with pytest.raises(ValidationError, match=message):
            dark_count_sweep([1e-8], det, SinglePhoton(), link, 2)


def _composed(link: ScenarioLink):
    """The transmissivity in km composed from the public functions."""
    if link.kind == "fiber":
        return lambda d: fiber_transmissivity(link.fiber, d)
    if link.kind == "ground_atmosphere":
        return lambda d: atmospheric_transmissivity(link.atmosphere, d)
    if link.kind == "diffraction":
        return lambda d: diffraction_transmissivity(link.beam, d * 1000.0)
    if link.kind == "freespace":
        return lambda d: (
            diffraction_transmissivity(link.beam, d * 1000.0)
            * atmospheric_transmissivity(link.atmosphere, d)
        )
    eta_atm = satellite_transmissivity(link.satellite)
    return lambda d: diffraction_transmissivity(link.beam, d * 1000.0) * eta_atm


def _outcome(model, d):
    try:
        return model(d).hex()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestFlatModels:
    """Each kind's transmissivity against the public functions, composed as
    the kind composes them. The base kinds evaluate the same kernels as
    those functions, so test_public_functions_keep_their_bits pins the
    functions' values to the code from before the kernels."""

    CURVATURES = (math.inf, -2e4, -3e6, 5e3, 1e6)

    def links(self, rng):
        yield ScenarioLink("fiber", fiber=FiberLink(0.17))
        yield ScenarioLink("fiber", fiber=FiberLink(float(rng.uniform(0.1, 3.0))))
        yield ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere())
        yield ScenarioLink(
            "ground_atmosphere",
            atmosphere=GroundAtmosphere(float(rng.uniform(1e-4, 0.1)), 6.6, float(rng.uniform(0, 5))),
        )
        for curvature in self.CURVATURES:
            beam = BeamGeometry(
                w0_m=float(rng.uniform(0.01, 2.0)),
                wavelength_m=float(rng.uniform(4e-7, 2e-6)),
                aperture_radius_m=float(rng.uniform(0.05, 1.0)),
                curvature_m=curvature,
            )
            yield ScenarioLink("diffraction", beam=beam)
            yield ScenarioLink("freespace", beam=beam, atmosphere=GroundAtmosphere(altitude_km=1.0))
            yield ScenarioLink(
                "satellite", beam=beam, satellite=SatellitePath(float(rng.uniform(0, 1)), 0.9)
            )

    def distances(self, rng):
        grids = [distance._guard_grid(*bracket) for bracket in DEFAULT_BRACKETS_KM.values()]
        drawn = 10.0 ** rng.uniform(-7.0, 13.0, size=10_000)
        drawn[::50] = rng.uniform(0.0, 1e4, size=200)
        bad = [-1.0, -0.0, -1e-300, math.nan, math.inf, -math.inf, 1e306, 5e-324]
        return [d for grid in grids for d in grid] + drawn.tolist() + bad

    def test_every_kind_is_bit_identical_to_the_public_functions(self):
        rng = np.random.default_rng(20261019)
        ds = self.distances(rng)
        seen = set()
        for link in self.links(rng):
            flat, composed = link.transmissivity, _composed(link)
            got = [_outcome(flat, d) for d in ds]
            assert got == [_outcome(composed, d) for d in ds], link
            seen.update(v[:15] for v in got if v.startswith("ValidationError"))
            seen.update(v for v in got if v in ("0x0.0p+0", "0x1.0000000000000p+0"))
        assert {"ValidationError", "0x0.0p+0", "0x1.0000000000000p+0"} <= seen

    def test_public_functions_keep_their_bits(self):
        # The sha256 of every value (float.hex) and message of the four
        # public functions below, captured before they became evaluations
        # of the links' kernels, so the kernels answer to the older code.
        rng = np.random.default_rng(20261019)
        ds = self.distances(rng) + [-2, 0, 3]
        parts = [
            (fiber_transmissivity, FiberLink(0.17)),
            (fiber_transmissivity, FiberLink(float(rng.uniform(0.1, 3.0)))),
            (atmospheric_transmissivity, GroundAtmosphere()),
            (
                atmospheric_transmissivity,
                GroundAtmosphere(float(rng.uniform(1e-4, 0.1)), 6.6, float(rng.uniform(0, 5))),
            ),
        ]
        for curvature in self.CURVATURES:
            beam = BeamGeometry(
                w0_m=float(rng.uniform(0.01, 2.0)),
                wavelength_m=float(rng.uniform(4e-7, 2e-6)),
                aperture_radius_m=float(rng.uniform(0.05, 1.0)),
                curvature_m=curvature,
            )
            parts += [(diffraction_transmissivity, beam), (beam_spot_size, beam)]
        got = [_outcome(functools.partial(f, part), d) for f, part in parts for d in ds]
        seen = {"0x0.0p+0", "0x1.0000000000000p+0", "ValidationError: distance -2 must be >= 0"}
        assert seen <= set(got)
        digest = hashlib.sha256("\n".join(got).encode()).hexdigest()
        assert digest == "a6ecfa8d5d3ba27c630d2d5ba47dc01e0d481ddb49b5ab1c5a17d830b7985007"

    def test_the_distance_check_names_the_value_each_kind_checks(self):
        rng = np.random.default_rng(1)
        for link in self.links(rng):
            scale = 1 if link.kind in ("fiber", "ground_atmosphere") else 1000.0
            with pytest.raises(ValidationError, match=f"^distance {-2.0 * scale!r} must be >= 0$"):
                link.transmissivity(-2.0)
