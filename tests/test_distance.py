"""Maximum-distance solvers: closed forms, bisection, sweeps."""

import contextlib
import hashlib
import math
import random
import statistics
import sys

import numpy as np
import pytest

from qkdlimits import distance
from qkdlimits import (
    Attenuated,
    BeamGeometry,
    BracketError,
    Decoy,
    DetectorModel,
    FiberLink,
    GroundAtmosphere,
    InfeasibleConfigurationError,
    NonMonotonicModelError,
    SatellitePath,
    ScenarioLink,
    SinglePhoton,
    ValidationError,
    dark_count_sweep,
    detection_probability,
    diffraction_transmissivity,
    fiber_transmissivity,
    gamma_threshold,
    max_diffraction_distance,
    max_distance_numeric,
    max_fiber_distance,
    omega,
    parse_scenario,
    qber_attenuated,
    qber_k_photon,
    sweep_scenario,
    symmetric_threshold,
)
from qkdlimits.distance import DistanceBound
from qkdlimits.links import _never_rises

DET = DetectorModel(y0=1e-8, e_det=0.01, eta_eff=1.0)
FIBER = FiberLink(alpha_db_per_km=0.17)


class TestGammaThreshold:
    def test_frozen_two_basis(self):
        g = gamma_threshold(DET, 2)
        assert g.mub_count == 2
        assert math.isclose(g.gamma_min, 1.0416666558159723e-08, rel_tol=1e-12)

    def test_frozen_three_basis(self):
        g = gamma_threshold(DET, 3)
        assert math.isclose(g.gamma_min, 5.154639148687427e-09, rel_tol=1e-12)

    def test_three_basis_needs_fewer_detections(self):
        assert gamma_threshold(DET, 3).gamma_min < gamma_threshold(DET, 2).gamma_min

    def test_misalignment_at_threshold_is_infeasible(self):
        with pytest.raises(InfeasibleConfigurationError, match="two-basis"):
            gamma_threshold(DetectorModel(y0=1e-8, e_det=0.25, eta_eff=1.0), 2)
        with pytest.raises(InfeasibleConfigurationError, match="three-basis"):
            gamma_threshold(DetectorModel(y0=1e-8, e_det=1.0 / 3.0, eta_eff=1.0), 3)

    def test_quarter_misalignment_still_works_with_three_bases(self):
        g = gamma_threshold(DetectorModel(y0=1e-8, e_det=0.25, eta_eff=1.0), 3)
        assert g.gamma_min > 0.0

    def test_mub_count_domain(self):
        with pytest.raises(ValidationError):
            gamma_threshold(DET, 4)


class TestOmega:
    def test_single_photon_scales_by_detector_efficiency(self):
        det = DetectorModel(y0=1e-8, e_det=0.01, eta_eff=0.5)
        g = gamma_threshold(det, 2)
        o = omega(det, SinglePhoton(), g)
        assert o.source_kind == "single-photon"
        assert math.isclose(o.omega, g.gamma_min / 0.5, rel_tol=1e-15)

    def test_frozen_attenuated(self):
        g = gamma_threshold(DET, 2)
        o = omega(DET, Attenuated(mu=0.3), g)
        assert o.source_kind == "attenuated"
        assert math.isclose(o.omega, 3.472222204137732e-08, rel_tol=1e-12)

    def test_small_omega_keeps_prime_close(self):
        g = gamma_threshold(DET, 2)
        o = omega(DET, SinglePhoton(), g)
        assert math.isclose(o.omega_prime, o.omega, rel_tol=1e-7)

    def test_dark_count_free_detector_is_unbounded(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        o = omega(det, SinglePhoton(), gamma_threshold(det, 2))
        assert o.omega == 0.0
        assert o.omega_prime == 0.0
        bound = max_fiber_distance(FIBER, o)
        assert bound.status == "unbounded"
        assert bound.d_max_km == math.inf
        assert bound.feasible

    def test_omega_at_or_above_one_is_infeasible(self):
        det = DetectorModel(y0=0.4, e_det=0.05, eta_eff=1.0)
        o = omega(det, Attenuated(mu=0.3), gamma_threshold(det, 2))
        assert o.omega > 1.0
        assert o.omega_prime == math.inf
        bound = max_fiber_distance(FIBER, o)
        assert bound.status == "infeasible"
        assert not bound.feasible
        assert bound.d_max_km == 0.0

    def test_multiphoton_has_no_closed_form(self):
        g = gamma_threshold(DET, 2)
        with pytest.raises(ValidationError, match="k=1"):
            omega(DET, SinglePhoton(k=2), g)

    def test_an_object_that_is_not_a_source_is_rejected(self):
        g = gamma_threshold(DET, 2)
        with pytest.raises(ValidationError, match="unknown source model"):
            detection_probability(object(), 0.2)
        with pytest.raises(ValidationError, match="unknown source model"):
            omega(DET, object(), g)
        with pytest.raises(ValidationError, match="unknown source model"):
            max_distance_numeric(lambda d: fiber_transmissivity(FIBER, d), object(), DET, g, 1.0, 10.0)

    def test_decoy_reduces_to_best_intensity(self):
        g = gamma_threshold(DET, 2)
        src = Decoy((0.5, 0.1, 0.0), (0.7, 0.2, 0.1))
        assert omega(DET, src, g).omega == omega(DET, Attenuated(0.5), g).omega


class TestClosedFormDistances:
    def test_frozen_fiber_table(self):
        cases = [
            (2, SinglePhoton(), 469.54536691549816),
            (3, SinglePhoton(), 487.51774895110924),
            (2, Attenuated(0.3), 438.7877935306577),
            (3, Attenuated(0.3), 456.7601756334826),
            (2, Attenuated(2.0), 487.2530135862059),
        ]
        for mub, src, expected in cases:
            o = omega(DET, src, gamma_threshold(DET, mub))
            bound = max_fiber_distance(FIBER, o)
            assert bound.method == "closed-form"
            assert bound.status == "solved"
            assert math.isclose(bound.d_max_km, expected, rel_tol=1e-12)

    def test_three_bases_always_reach_farther(self):
        for src in (SinglePhoton(), Attenuated(0.3)):
            d2 = max_fiber_distance(FIBER, omega(DET, src, gamma_threshold(DET, 2)))
            d3 = max_fiber_distance(FIBER, omega(DET, src, gamma_threshold(DET, 3)))
            assert d3.d_max_km > d2.d_max_km

    def test_frozen_deep_space(self):
        beam = BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=0.5)
        o = omega(DET, SinglePhoton(), gamma_threshold(DET, 3))
        bound = max_diffraction_distance(beam, o)
        assert math.isclose(bound.d_max_km, 77352748.39061429, rel_tol=1e-12)

    @pytest.mark.parametrize("mub", [2, 3])
    def test_a_diffraction_crossing_at_0_km_is_infeasible(self, mub):
        # pi w0 a_R / lambda is subnormal, so the crossing rounds to 0 km:
        # infeasible, as a fiber crossing at 0 km and _clip report it.
        beam = BeamGeometry(w0_m=1e-161, wavelength_m=1.0, aperture_radius_m=1e-161)
        det = DetectorModel(y0=0.3, e_det=0.0)
        o = omega(det, SinglePhoton(), gamma_threshold(det, mub))
        assert 0.0 < o.omega < 1.0
        bound = max_diffraction_distance(beam, o)
        assert (bound.d_max_km, bound.feasible, bound.status) == (0.0, False, "infeasible")
        [through] = distance.distance_bounds(
            [(SinglePhoton(), det, ScenarioLink("diffraction", beam=beam))], mub
        )
        assert through == bound

    def test_qber_at_the_boundary_hits_the_threshold(self):
        # Solving for d then evaluating the QBER at d must land back on
        # the protocol threshold.
        rng = np.random.default_rng(11)
        for _ in range(25):
            det = DetectorModel(
                y0=float(10 ** rng.uniform(-9, -5)),
                e_det=float(rng.uniform(0.0, 0.2)),
                eta_eff=float(rng.uniform(0.3, 1.0)),
            )
            mub = int(rng.choice([2, 3]))
            link = FiberLink(alpha_db_per_km=float(rng.uniform(0.1, 0.5)))
            o = omega(det, SinglePhoton(), gamma_threshold(det, mub))
            bound = max_fiber_distance(link, o)
            eta = det.eta_eff * fiber_transmissivity(link, bound.d_max_km)
            qber = qber_k_photon(eta, 1, det).qber
            assert abs(qber - symmetric_threshold(mub)) <= 1e-9

    def test_attenuated_round_trip(self):
        o = omega(DET, Attenuated(0.3), gamma_threshold(DET, 2))
        bound = max_fiber_distance(FIBER, o)
        eta = fiber_transmissivity(FIBER, bound.d_max_km)
        assert abs(qber_attenuated(eta, 0.3, DET).qber - 0.25) <= 1e-9


class TestNumericSolver:
    def test_matches_fiber_closed_form(self):
        g = gamma_threshold(DET, 2)
        closed = max_fiber_distance(FIBER, omega(DET, SinglePhoton(), g))
        numeric = max_distance_numeric(
            lambda d: fiber_transmissivity(FIBER, d), SinglePhoton(), DET, g, 1e-3, 5e3
        )
        assert numeric.method == "bisection"
        assert abs(numeric.d_max_km - closed.d_max_km) <= 1e-6

    def test_diffraction_stays_inside_the_envelope(self):
        beam = BeamGeometry(w0_m=2.0, wavelength_m=8e-7, aperture_radius_m=0.5)
        g = gamma_threshold(DET, 3)
        closed = max_diffraction_distance(beam, omega(DET, SinglePhoton(), g))
        numeric = max_distance_numeric(
            lambda d: diffraction_transmissivity(beam, d * 1000.0),
            SinglePhoton(),
            DET,
            g,
            1e-3,
            1e12,
        )
        # The closed form drops the focusing term, so it can only overshoot.
        assert numeric.d_max_km <= closed.d_max_km
        assert numeric.d_max_km >= closed.d_max_km * (1.0 - 1e-6)
        assert math.isclose(numeric.d_max_km, 77352746.79571225, rel_tol=2e-9)

    def test_multiphoton_source(self):
        g = gamma_threshold(DET, 2)
        numeric = max_distance_numeric(
            lambda d: fiber_transmissivity(FIBER, d), SinglePhoton(k=2), DET, g, 1e-3, 5e3
        )
        eta_req = 1.0 - math.sqrt(1.0 - g.gamma_min)
        expected = -10.0 / 0.17 * math.log10(eta_req)
        assert math.isclose(numeric.d_max_km, expected, rel_tol=1e-8)

    def test_infeasible_at_short_end(self):
        det = DetectorModel(y0=0.4, e_det=0.05, eta_eff=0.3)
        g = gamma_threshold(det, 2)
        bound = max_distance_numeric(
            lambda d: fiber_transmissivity(FIBER, d), SinglePhoton(), det, g, 1e-6, 5e3
        )
        assert bound.status == "infeasible"
        assert not bound.feasible
        assert bound.d_max_km == 0.0

    def test_feasible_across_the_whole_bracket(self):
        g = gamma_threshold(DET, 2)
        bound = max_distance_numeric(
            lambda d: fiber_transmissivity(FIBER, d), SinglePhoton(), DET, g, 1e-3, 10.0
        )
        assert bound.status == "feasible-everywhere"
        assert bound.d_max_km == 10.0
        assert bound.feasible

    def test_focused_beam_triggers_monotonicity_guard(self):
        focused = BeamGeometry(w0_m=0.2, wavelength_m=1e-6, aperture_radius_m=0.1, curvature_m=1e4)
        g = gamma_threshold(DET, 2)
        with pytest.raises(NonMonotonicModelError):
            max_distance_numeric(
                lambda d: diffraction_transmissivity(focused, d * 1000.0),
                SinglePhoton(),
                DET,
                g,
                0.01,
                50.0,
            )

    def test_bracket_validation(self):
        g = gamma_threshold(DET, 2)
        model = lambda d: fiber_transmissivity(FIBER, d)
        with pytest.raises(BracketError):
            max_distance_numeric(model, SinglePhoton(), DET, g, 10.0, 1.0)
        with pytest.raises(BracketError):
            max_distance_numeric(model, SinglePhoton(), DET, g, -1.0, 10.0)
        with pytest.raises(BracketError):
            max_distance_numeric(model, SinglePhoton(), DET, g, 1.0, math.inf)

    @pytest.mark.parametrize("d_hi", [1e7, 1e30, 1e100, 1e200])
    def test_a_wide_bracket_still_meets_the_tolerance(self, d_hi):
        # The first guard cell is [1, 1.55e-12 d_hi] km; 60 halvings cannot
        # narrow it, so the bisection runs until the tolerance holds. At
        # 1e200 km the spot size squared overflows and passes nothing.
        beam = BeamGeometry(w0_m=0.1, wavelength_m=8e-7, aperture_radius_m=0.5)
        link = ScenarioLink("freespace", beam=beam, atmosphere=GroundAtmosphere())
        det = DetectorModel(y0=1e-6, e_det=0.01)
        [bound] = distance.distance_bounds([(SinglePhoton(), det, link)], 2, (1.0, d_hi))
        assert bound.status == "solved"
        assert math.isclose(bound.d_max_km, 1969.2907612908011, rel_tol=1e-9)

    def test_model_output_must_be_a_transmissivity(self):
        g = gamma_threshold(DET, 2)
        with pytest.raises(BracketError):
            max_distance_numeric(lambda d: 1.5, SinglePhoton(), DET, g, 1.0, 10.0)
        with pytest.raises(BracketError):
            max_distance_numeric(lambda d: float("nan"), SinglePhoton(), DET, g, 1.0, 10.0)


class TestBatch:
    """Many points, one guard memo: one guard grid per call, one guard per
    (source, eta_eff), and every bound equal to its own call."""

    BEAM = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)

    def link(self, calls=None):
        # diffraction(BEAM, 1000 d) * exp(-0.005 d); no closed form, so
        # every point is bisected. With calls, the model logs its inputs.
        out = ScenarioLink(
            "freespace", beam=self.BEAM, atmosphere=GroundAtmosphere(alpha0_per_km=0.005)
        )
        if calls is not None:
            model = out.transmissivity

            def counted(d):
                calls.append(d)
                return model(d)

            object.__setattr__(out, "transmissivity", counted)
        return out

    def rows(self):
        out = []
        for src in (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5)):
            for eta_eff in (0.05, 1.0):
                for y0 in (0.0, 1e-9, 1e-6, 1e-3, 0.3, 0.9):
                    out.append((src, DetectorModel(y0=y0, e_det=0.02, eta_eff=eta_eff)))
        return out

    def test_rows_equal_their_own_calls(self):
        link, statuses = self.link(), set()
        for bracket in ((1e-3, 1e7), (0.1, 10.0)):
            rows = self.rows()
            bounds = distance.distance_bounds(((s, det, link) for s, det in rows), 2, bracket)
            model = link.transmissivity
            assert bounds == [
                max_distance_numeric(model, s, det, gamma_threshold(det, 2), *bracket)
                for s, det in rows
            ]
            statuses |= {bound.status for bound in bounds}
        assert statuses == {"solved", "infeasible", "feasible-everywhere"}

    def test_grid_and_guard_are_evaluated_once_per_batch(self, monkeypatch):
        model_calls, detect_calls = [], []
        link = self.link(model_calls)
        gamma = SinglePhoton.gamma

        def counted_detection(src, eta):
            detect_calls.append(eta)
            return gamma(src, eta)

        monkeypatch.setattr(SinglePhoton, "gamma", counted_detection)
        # Rows that differ only in Gamma share one guard.
        points = [
            (src, det, link)
            for src, det in self.rows()
            if src == SinglePhoton() and det.eta_eff == 1.0
        ]
        alone = []
        for point in points:
            model_calls.clear()
            detect_calls.clear()
            distance.distance_bounds([point], 2, (1e-3, 1e7))
            alone.append((len(model_calls), len(detect_calls)))
        model_calls.clear()
        detect_calls.clear()
        distance.distance_bounds(points, 2, (1e-3, 1e7))
        assert len(model_calls) == 64 + sum(m - 64 for m, _ in alone)
        assert len(detect_calls) == 64 + sum(n - 64 for _, n in alone)
        assert {type(d) for d in model_calls} == {float}

    def test_the_guard_grid_is_built_once_per_bracket(self, monkeypatch):
        geomspace, grids, seen = np.geomspace, [], []

        def counted(*args, **kwargs):
            grids.append(args)
            return geomspace(*args, **kwargs)

        monkeypatch.setattr(np, "geomspace", counted)
        distance._guard_grid.cache_clear()
        src, det = self.rows()[2]
        for _ in range(2):
            seen.append([])
            model = self.link(seen[-1]).transmissivity
            max_distance_numeric(model, src, det, gamma_threshold(det, 2), 0.1, 10.0)
        assert len(grids) == 1
        assert seen[0][:64] == seen[1][:64]
        assert distance._guard_grid(0.1, 10.0) == tuple(seen[0][:64])
        assert seen[0][0] == 0.1 and {type(d) for d in seen[0][:64]} == {float}

    def test_the_guard_runs_per_source_and_efficiency(self):
        # A 5e-12 rise in transmissivity trips the 1e-12 guard at
        # eta_eff = 1 but not at eta_eff = 0.1.
        def model(d):
            return 0.5 + (5e-12 if d >= 3.0 else 0.0) if d < 6.0 else 0.1

        def solve(dets):
            guards, src = {}, SinglePhoton()
            return [
                distance._bisect(model, src, det, gamma_threshold(det, 2), 1.0, 10.0, guards)
                for det in dets
            ]

        dim = DetectorModel(y0=0.03, e_det=0.02, eta_eff=0.1)
        bright = DetectorModel(y0=0.03, e_det=0.02, eta_eff=1.0)
        assert solve([dim])[0].status == "solved"
        with pytest.raises(NonMonotonicModelError):
            solve([dim, bright])
        with pytest.raises(NonMonotonicModelError):
            solve([bright, dim])


class TestDistanceBounds:
    """distance_bounds: each point solved as it is read, one guard memo per call."""

    BEAM = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)
    BRACKET = (1e-3, 1e7)

    def expected(self, src, det, link):
        # The bound of one point from the public per-route functions.
        try:
            g = gamma_threshold(det, 2)
        except InfeasibleConfigurationError:
            return None
        closed = src != SinglePhoton(k=3)
        if closed and link.kind == "fiber":
            return max_fiber_distance(link.fiber, omega(det, src, g))
        if closed and link.kind == "diffraction" and math.isinf(link.beam.curvature_m):
            return max_diffraction_distance(link.beam, omega(det, src, g))
        return max_distance_numeric(link.transmissivity, src, det, g, *self.BRACKET)

    def test_mixed_routes_equal_the_per_point_calls(self):
        diverging = BeamGeometry(0.05, 8e-7, 0.25, curvature_m=-1e4)
        links = [
            ScenarioLink("fiber", fiber=FIBER),
            ScenarioLink("diffraction", beam=self.BEAM),
            ScenarioLink("diffraction", beam=diverging),
            ScenarioLink("freespace", beam=self.BEAM, atmosphere=GroundAtmosphere()),
            ScenarioLink("satellite", beam=self.BEAM, satellite=SatellitePath()),
        ]
        hopeless = DetectorModel(y0=1e-8, e_det=0.3)
        points = [
            (src, det, link)
            for link in links
            for src in (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5))
            for det in (DET, hopeless)
        ]
        bounds = distance.distance_bounds(points, 2, self.BRACKET)
        assert bounds == [self.expected(*p) for p in points]
        assert [b is None for b in bounds] == [p[1] is hopeless for p in points]
        assert {b.method for b in bounds if b is not None} == {"closed-form", "bisection"}

    def test_interleaved_links_read_each_grid_distance_at_most_once(self):
        calls = []

        def link(alpha):
            # A fiber, bisected for a k=3 source, whose model logs its calls.
            out = ScenarioLink("fiber", fiber=FiberLink(alpha))
            model = out.transmissivity

            def counted(d):
                calls.append((alpha, d))
                return model(d)

            object.__setattr__(out, "transmissivity", counted)
            return out

        a, b, src = link(0.2), link(0.5), SinglePhoton(k=3)
        points = [(src, DetectorModel(y0=1e-7, e_det=0.01), a), (src, DET, b), (src, DET, a)]
        grid = set(distance._guard_grid(*self.BRACKET))
        alone = []
        for p in points:
            calls.clear()
            alone.append(distance.distance_bounds([p], 2, self.BRACKET)[0])
            assert len([d for _, d in calls if d in grid]) < 64
        assert alone == [self.expected(*p) for p in points]
        assert {bound.status for bound in alone} == {"solved"}
        calls.clear()
        assert distance.distance_bounds(points, 2, self.BRACKET) == alone
        for alpha in (0.2, 0.5):
            seen = [d for x, d in calls if x == alpha and d in grid]
            assert len(seen) == len(set(seen)) < 64

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ((10.0, 1.0), "empty interval"),
            ((-1.0, 10.0), "bad interval"),
            ((1.0, math.inf), "bad interval"),
        ],
        ids=["reversed", "negative", "infinite"],
    )
    def test_a_bad_bracket_is_checked_before_any_route(self, bracket, message):
        # An explicit bracket holds on the closed forms too, so a bad one
        # raises whatever the points' routes, even with no point to solve.
        fiber = ScenarioLink("fiber", fiber=FIBER)
        hopeless = DetectorModel(y0=1e-8, e_det=0.3)
        points = [(SinglePhoton(), DET, fiber), (Attenuated(0.5), hopeless, fiber)]
        for batch in (points, points[:1], []):
            with pytest.raises(BracketError, match=message):
                distance.distance_bounds(batch, 2, bracket)
        assert distance.distance_bounds(points, 2) == [self.expected(*p) for p in points]

    @pytest.mark.parametrize("kind", ["freespace", "satellite", "diffraction"])
    def test_a_bracket_that_overflows_in_metres_raises_first(self, kind):
        # The top of (1, 1e306) km is inf in metres. That error comes
        # before any status, so an infeasible detector raises it too.
        diverging = BeamGeometry(0.05, 8e-7, 0.25, curvature_m=-1e4)
        link = {
            "freespace": ScenarioLink("freespace", beam=self.BEAM, atmosphere=GroundAtmosphere()),
            "satellite": ScenarioLink("satellite", beam=self.BEAM, satellite=SatellitePath()),
            "diffraction": ScenarioLink("diffraction", beam=diverging),
        }[kind]
        for det in (DetectorModel(y0=0.5, e_det=0.01), DET):
            for src in (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5)):
                with pytest.raises(ValidationError, match=r"^distance inf must be >= 0$"):
                    distance.distance_bounds([(src, det, link)], 2, (1.0, 1e306))

    @pytest.mark.parametrize("kind", ["fiber", "diffraction"])
    def test_an_explicit_bracket_clips_a_closed_form(self, kind):
        link = (
            ScenarioLink("fiber", fiber=FIBER)
            if kind == "fiber"
            else ScenarioLink("diffraction", beam=self.BEAM)
        )
        src, g = SinglePhoton(), gamma_threshold(DET, 2)
        [free] = distance.distance_bounds([(src, DET, link)], 2)
        d = free.d_max_km
        assert (free.method, free.status) == ("closed-form", "solved")
        cases = [
            ((0.5 * d, 2.0 * d), d, "solved"),
            ((0.5 * d, d), d, "solved"),  # a crossing at d_hi lies inside
            ((d, 2.0 * d), 0.0, "infeasible"),  # and one at d_lo does not
            ((2.0 * d, 4.0 * d), 0.0, "infeasible"),
            ((0.0, 0.5 * d), 0.5 * d, "feasible-everywhere"),
        ]
        for bracket, d_max, status in cases:
            [bound] = distance.distance_bounds([(src, DET, link)], 2, bracket)
            want = DistanceBound(d_max, status != "infeasible", "closed-form", status, g, free.omega)
            assert bound == want, bracket
            if d not in bracket:
                # The bisection of the link on that bracket says the same.
                numeric = max_distance_numeric(link.transmissivity, src, DET, g, *bracket)
                assert numeric.status == status
                assert status == "solved" or numeric.d_max_km == d_max

    def test_an_explicit_bracket_bounds_an_unbounded_closed_form(self):
        fiber = ScenarioLink("fiber", fiber=FIBER)
        dark_free = DetectorModel(y0=0.0, e_det=0.01)
        noisy = DetectorModel(y0=0.9, e_det=0.01, eta_eff=0.3)  # Omega >= 1
        points = [(SinglePhoton(), dark_free, fiber), (SinglePhoton(), noisy, fiber)]
        unbounded, infeasible = distance.distance_bounds(points, 2)
        assert (unbounded.status, infeasible.status) == ("unbounded", "infeasible")
        capped = DistanceBound(
            50.0, True, "closed-form", "feasible-everywhere", unbounded.gamma, unbounded.omega
        )
        assert distance.distance_bounds(points, 2, (1.0, 50.0)) == [capped, infeasible]


class TestParameterMonotonicity:
    def solve(self, det, mu=None):
        src = SinglePhoton() if mu is None else Attenuated(mu)
        o = omega(det, src, gamma_threshold(det, 2))
        return max_fiber_distance(FIBER, o).d_max_km

    def test_darker_detectors_reach_farther(self):
        distances = [
            self.solve(DetectorModel(y0=y0, e_det=0.01, eta_eff=1.0))
            for y0 in (1e-9, 1e-8, 1e-7, 1e-6)
        ]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_misalignment_costs_distance(self):
        distances = [
            self.solve(DetectorModel(y0=1e-8, e_det=e, eta_eff=1.0))
            for e in (0.0, 0.05, 0.1, 0.2)
        ]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_detector_efficiency_buys_distance(self):
        distances = [
            self.solve(DetectorModel(y0=1e-8, e_det=0.01, eta_eff=eta))
            for eta in (0.3, 0.5, 0.8, 1.0)
        ]
        assert all(a < b for a, b in zip(distances, distances[1:]))

    def test_brighter_pulses_reach_farther_in_the_weak_regime(self):
        distances = [self.solve(DET, mu=mu) for mu in (0.1, 0.3, 1.0, 2.0)]
        assert all(a < b for a, b in zip(distances, distances[1:]))


class TestDarkCountSweep:
    def test_frozen_decades(self):
        rows = dark_count_sweep(
            [1e-9, 1e-8, 1e-7, 1e-6, 1e-5], DET, SinglePhoton(), FIBER, 2
        )
        expected = [
            528.3688960877622,
            469.54536691549816,
            410.7218398987397,
            351.8983344370246,
            293.07504452452116,
        ]
        assert [r.y0 for r in rows] == [1e-9, 1e-8, 1e-7, 1e-6, 1e-5]
        for row, want in zip(rows, expected):
            assert row.feasible
            assert math.isclose(row.d_max_km, want, rel_tol=1e-12)

    def test_slope_per_decade(self):
        rows = dark_count_sweep(
            [1e-9, 1e-8, 1e-7, 1e-6, 1e-5], DET, SinglePhoton(), FIBER, 2
        )
        for a, b in zip(rows, rows[1:]):
            assert abs((a.d_max_km - b.d_max_km) - 10.0 / 0.17) < 0.5

    def test_infeasible_rows_are_flagged_not_dropped(self):
        det = DetectorModel(y0=1e-8, e_det=0.01, eta_eff=0.3)
        rows = dark_count_sweep([1e-8, 0.45], det, SinglePhoton(), FIBER, 2)
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].d_max_km == 0.0

    def test_hopeless_misalignment_raises(self):
        det = DetectorModel(y0=1e-8, e_det=0.3, eta_eff=1.0)
        with pytest.raises(InfeasibleConfigurationError):
            dark_count_sweep([1e-8], det, SinglePhoton(), FIBER, 2)

    @pytest.mark.parametrize("mub_count", [2, 3])
    @pytest.mark.parametrize(
        "source",
        [
            {"kind": "single_photon", "k": 1},
            {"kind": "attenuated", "mu": 0.5},
            {"kind": "decoy", "intensities": [0.6, 0.1, 0.0], "probabilities": [0.5, 0.3, 0.2]},
            # No closed form: bisected, as sweep_scenario does.
            {"kind": "single_photon", "k": 2},
        ],
    )
    def test_rows_equal_the_y0_rows_of_sweep_scenario(self, source, mub_count):
        sc = parse_scenario(
            {
                "schema_version": 1,
                "protocol": {"mub_count": mub_count},
                "source": source,
                "detector": {"y0": 1e-8, "e_det": 0.02, "eta_eff": 0.1},
                "link": {"kind": "fiber", "alpha_db_per_km": 0.17},
            }
        )
        rows = sweep_scenario(sc, "y0", 1e-10, 0.9, 25, "log")
        got = dark_count_sweep(
            [r[1] for r in rows], sc.detector, sc.source, sc.link.fiber, mub_count
        )
        assert got == [distance.SweepRow(v, d, f) for _, v, d, f in rows]
        assert {r.feasible for r in got} == {True, False}

    def test_empty_input_returns_no_rows_whatever_the_misalignment(self):
        det = DetectorModel(y0=1e-8, e_det=0.3, eta_eff=1.0)
        assert dark_count_sweep([], det, SinglePhoton(), FIBER, 2) == []

    @pytest.mark.parametrize(
        "y0_values, error",
        [([1.5, 1e-8], ValidationError), ([1e-8, 1.5], InfeasibleConfigurationError)],
    )
    def test_errors_come_in_point_by_point_order(self, y0_values, error):
        det = DetectorModel(y0=1e-8, e_det=0.3, eta_eff=1.0)
        with pytest.raises(error):
            dark_count_sweep(y0_values, det, SinglePhoton(), FIBER, 2)


def _full_guard_bound(model, src, det, g, d_lo_km, d_hi_km):
    """The bisection bound with every guard value computed and checked and
    the crossing cell found by a scan from the near end, as the solver
    did before its guard became lazy; it bisects until the tolerance holds."""
    grid = distance._guard_grid(d_lo_km, d_hi_km)
    vals = [src.gamma(det.eta_eff * distance._transmissivity(model, d)) for d in grid]
    for i in range(len(vals) - 1):
        if vals[i + 1] > vals[i] + 1e-12:
            raise NonMonotonicModelError(
                f"detection probability rises from {vals[i]} to {vals[i + 1]} "
                f"between d={grid[i]} and d={grid[i + 1]} km; restrict the "
                "interval to the monotone side of the focus"
            )
    target = g.gamma_min
    if vals[0] <= target:
        return DistanceBound(0.0, False, "bisection", "infeasible", g)
    if vals[-1] > target:
        return DistanceBound(d_hi_km, True, "bisection", "feasible-everywhere", g)
    idx = next(i for i in range(1, len(vals)) if vals[i] <= target)
    lo, hi = grid[idx - 1], grid[idx]
    while hi - lo > distance.BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if src.gamma(det.eta_eff * distance._transmissivity(model, mid)) > target:
            lo = mid
        else:
            hi = mid
    return DistanceBound(0.5 * (lo + hi), True, "bisection", "solved", g)


def _reference_bounds(points, mub_count, bracket):
    """distance_bounds point by point: the closed forms, clipped to an
    explicit bracket as the bisection reports a crossing outside it, or
    the full guard on the bracket or the link kind's default.
    test_links checks each link's transmissivity against the public
    functions bit for bit."""
    out = []
    for src, det, link in points:
        try:
            g = gamma_threshold(det, mub_count)
        except InfeasibleConfigurationError:
            out.append(None)
            continue
        lo, hi = distance.DEFAULT_BRACKETS_KM[link.kind] if bracket is None else bracket
        closed = not (isinstance(src, SinglePhoton) and src.k != 1)
        if closed and link.kind == "fiber":
            b = max_fiber_distance(link.fiber, omega(det, src, g))
        elif closed and link.kind == "diffraction" and math.isinf(link.beam.curvature_m):
            b = max_diffraction_distance(link.beam, omega(det, src, g))
        else:
            out.append(_full_guard_bound(link.transmissivity, src, det, g, lo, hi))
            continue
        if bracket is not None and b.feasible and b.d_max_km <= lo:
            b = DistanceBound(0.0, False, "closed-form", "infeasible", b.gamma, b.omega)
        elif bracket is not None and b.d_max_km > hi:
            b = DistanceBound(hi, True, "closed-form", "feasible-everywhere", b.gamma, b.omega)
        out.append(b)
    return out


def _outcome(solve, *args):
    """The bounds with each d_max_km as float.hex, or the error's type and message."""
    try:
        return [None if b is None else (b.d_max_km.hex(), b) for b in solve(*args)]
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _gamma_calls():
    """The eta of each call of the package's gamma functions, recorded by a
    profile hook so that the functions themselves stay unpatched."""
    codes = {SinglePhoton.gamma.__code__, Attenuated.gamma.__code__}
    etas = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            etas.append(frame.f_locals["eta"])

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield etas
    finally:
        sys.setprofile(old)


class TestLazyGuard:
    """The guard of a monotone point, a link that cannot rise by
    construction and a source with the package's own gamma, reads only
    the grid values its cell search asks for; every bound and every
    error stays the one the full guard gives."""

    def random_batch(self, rng: random.Random):
        def lu(a, b):
            return 10.0 ** rng.uniform(a, b)

        def source():
            r = rng.random()
            if r < 0.45:
                return SinglePhoton(rng.choice((1, 1, rng.randint(2, 7))))
            if r < 0.8:
                return Attenuated(lu(-3, 1))
            mu = lu(-2, 0.5)
            return Decoy((mu, 0.2 * mu, 0.0), (0.6, 0.3, 0.1))

        def y0(top):
            # Gamma = 0 and a Gamma near 1e-300 keep the plain loop or take
            # the certified skip at the edge of the normal floats.
            return rng.choice((0.0, lu(-300.5, -299.5), lu(-12, top), lu(-12, top)))

        def link():
            kind = rng.choice(("fiber", "ground_atmosphere", "diffraction", "freespace", "satellite"))
            if kind == "fiber":
                return ScenarioLink(kind, fiber=FiberLink(rng.uniform(0.15, 0.4)))
            atm = GroundAtmosphere(lu(-4, -1), rng.uniform(1, 10), rng.uniform(0, 5))
            if kind == "ground_atmosphere":
                return ScenarioLink(kind, atmosphere=atm)
            # Collimated, diverging and focused beams, on every beam kind.
            curvature = rng.choice((math.inf, math.inf, -lu(2, 9), -lu(2, 9), lu(2, 12)))
            beam = BeamGeometry(lu(-2.5, 0.5), lu(-7, -5.5), lu(-2, 0.5), curvature)
            if kind == "diffraction":
                return ScenarioLink(kind, beam=beam)
            if kind == "freespace":
                return ScenarioLink(kind, beam=beam, atmosphere=atm)
            return ScenarioLink(kind, beam=beam, satellite=SatellitePath(rng.uniform(0, 1), 0.9))

        links = [link(), link()]
        r = rng.random()
        if r < 0.5:
            bracket = distance.DEFAULT_BRACKETS_KM[links[0].kind]
        elif r < 0.55:  # a beam's top overflows in metres
            bracket = (rng.choice((0.0, lu(-6, 2))), 1e306)
        else:
            lo = rng.choice((0.0, lu(-6, 2)))
            bracket = (lo, lo + lu(-1, 12))
        src = source()
        det = DetectorModel(y0(-2), rng.uniform(0, 0.3), lu(-3, 0))
        points = []
        for _ in range(rng.randint(1, 8)):
            r = rng.random()
            if r < 0.3:  # points that move only Gamma share one guard
                det = DetectorModel(y0(-1), rng.uniform(0, 0.3), det.eta_eff)
            elif r < 0.5:
                det = DetectorModel(det.y0, det.e_det, lu(-4, 0))
            elif r < 0.7:
                src = source()
            points.append((src, det, rng.choice(links[: rng.randint(1, 2)])))
        return points, rng.choice((2, 3)), bracket

    def test_random_batches_equal_the_full_guard(self, monkeypatch):
        # The reference is the plain bisection, so this also checks that
        # the certified skip leaves every bound and error as it was.
        certified = []

        def counted(*args):
            certified.append(args[2])  # eta_eff
            return certify(*args)

        certify = distance._certified_bracket
        monkeypatch.setattr(distance, "_certified_bracket", counted)
        rng, errors, solved = random.Random(20261019), set(), 0
        for _ in range(5000):
            batch = self.random_batch(rng)
            got = _outcome(distance.distance_bounds, *batch)
            assert got == _outcome(_reference_bounds, *batch), batch
            if isinstance(got, str):
                errors.add(got.split(":")[0])
            else:
                solved += sum(b is not None and b[1].status == "solved" for b in got)
        assert errors == {"NonMonotonicModelError", "ValidationError"}
        assert solved >= 5000
        assert len(certified) > solved // 2

    def test_a_falling_model_computes_each_guard_value_at_most_once(self):
        link = ScenarioLink(
            "freespace",
            beam=BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25),
            atmosphere=GroundAtmosphere(),
        )
        etas = [link.transmissivity(d) for d in distance._guard_grid(1e-3, 1e7)]
        sources = (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5), Decoy((0.5, 0.1), (0.5, 0.5)))
        for src in sources:
            for eta_eff in (0.05, 1.0):
                points = [
                    (src, DetectorModel(y0=y0, e_det=0.02, eta_eff=eta_eff), link)
                    for y0 in (1e-9, 1e-7, 1e-6, 1e-3, 0.3, 0.9)
                ]
                grid_etas = {eta_eff * eta for eta in etas}
                with _gamma_calls() as calls:
                    bounds = distance.distance_bounds(points, 2, (1e-3, 1e7))
                assert bounds == _reference_bounds(points, 2, (1e-3, 1e7))
                assert "solved" in {b.status for b in bounds}
                on_grid = [eta for eta in calls if eta in grid_etas]
                assert len(on_grid) == len(set(on_grid)) < 64

    def test_a_model_of_the_callers_own_takes_the_full_guard(self):
        # Falling on the grid or not, a model that the package did not
        # build has every guard value computed and checked.
        grid = distance._guard_grid(1.0, 1e4)

        def falling(d):
            return math.exp(-d / 50.0)

        def bumped(d):
            return math.nextafter(falling(grid[9]), 1.0) if d == grid[10] else falling(d)

        det = DetectorModel(y0=1e-6, e_det=0.01)
        g = gamma_threshold(det, 2)
        for model in (falling, bumped):
            grid_etas = {model(d) for d in grid}
            with _gamma_calls() as calls:
                bound = max_distance_numeric(model, SinglePhoton(), det, g, 1.0, 1e4)
            assert bound == _full_guard_bound(model, SinglePhoton(), det, g, 1.0, 1e4)
            assert bound.status == "solved"
            assert len([eta for eta in calls if eta in grid_etas]) == 64

    def test_a_focused_beam_past_its_focus_takes_the_full_guard(self):
        # Past its focus near 1 km the beam spreads, so its values fall on
        # this bracket's grid; but a focused beam can rise, so its guard
        # computes and checks every probability.
        beam = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25, curvature_m=1e3)
        link, bracket = ScenarioLink("diffraction", beam=beam), (2.0, 1e6)
        etas = [link.transmissivity(d) for d in distance._guard_grid(*bracket)]
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        src, det = SinglePhoton(), DetectorModel(y0=1e-6, e_det=0.01, eta_eff=0.5)
        with _gamma_calls() as calls:
            [bound] = distance.distance_bounds([(src, det, link)], 2, bracket)
        g = gamma_threshold(det, 2)
        assert bound == _full_guard_bound(link.transmissivity, src, det, g, *bracket)
        assert bound.status == "solved"
        assert len([eta for eta in calls if eta in {0.5 * eta for eta in etas}]) == 64

    @pytest.mark.parametrize(
        "kind", ["fiber", "ground_atmosphere", "diffraction", "freespace", "satellite"]
    )
    def test_a_link_that_cannot_rise_reads_few_grid_values(self, kind):
        beam = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)
        link = {
            "fiber": ScenarioLink("fiber", fiber=FIBER),
            "ground_atmosphere": ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere()),
            "diffraction": ScenarioLink("diffraction", beam=BeamGeometry(0.05, 8e-7, 0.25, curvature_m=-1e4)),
            "freespace": ScenarioLink("freespace", beam=beam, atmosphere=GroundAtmosphere()),
            "satellite": ScenarioLink("satellite", beam=beam, satellite=SatellitePath()),
        }[kind]
        model, calls = link.transmissivity, []
        object.__setattr__(link, "transmissivity", lambda d: calls.append(d) or model(d))
        grid = set(distance._guard_grid(*distance.DEFAULT_BRACKETS_KM[kind]))
        for src in (SinglePhoton(k=2), SinglePhoton(k=3)):
            calls.clear()
            point = [(src, DetectorModel(y0=1e-7, e_det=0.01, eta_eff=0.5), link)]
            [bound] = distance.distance_bounds(point, 2)
            on_grid = [d for d in calls if d in grid]
            assert len(on_grid) == len(set(on_grid)) < 64
            assert [bound] == _reference_bounds(point, 2, None)
            assert bound.method == "bisection" and bound.status == "solved"

    @pytest.mark.parametrize("own_gamma", ["method", "staticmethod", "instance"])
    def test_a_source_with_a_gamma_of_its_own_takes_the_full_guard(self, own_gamma):
        # Detection that rises with distance on a falling model: only the
        # full guard sees it.
        def rising(eta):
            return 1.0 - eta

        class Mine(SinglePhoton):
            if own_gamma == "method":
                def gamma(self, eta):
                    return rising(eta)
            elif own_gamma == "staticmethod":
                gamma = staticmethod(rising)

        src = Mine()
        if own_gamma == "instance":
            src = SinglePhoton()
            object.__setattr__(src, "gamma", rising)
        det = DetectorModel(y0=1e-6, e_det=0.01)
        with pytest.raises(NonMonotonicModelError):
            max_distance_numeric(
                lambda d: math.exp(-d / 50.0), src, det, gamma_threshold(det, 2), 1.0, 1e4
            )

    def test_a_replaced_instance_gamma_gets_a_guard_of_its_own(self):
        # mine equals SinglePhoton() field by field; only its gamma, which
        # rises as the link falls, differs. A package point before it in the
        # same call must not lend it its guard values.
        link = ScenarioLink(
            "freespace",
            beam=BeamGeometry(w0_m=0.1, wavelength_m=8e-7, aperture_radius_m=0.5),
            atmosphere=GroundAtmosphere(alpha0_per_km=0.005),
        )
        det = DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        mine = SinglePhoton()
        object.__setattr__(mine, "gamma", lambda eta: 1.0 - eta)
        assert mine == SinglePhoton()
        for points in ([(mine, det, link)], [(SinglePhoton(), det, link), (mine, det, link)]):
            with pytest.raises(NonMonotonicModelError):
                distance.distance_bounds(points, 2)

    @pytest.mark.parametrize("monotone", [False, True])
    def test_equal_package_sources_share_one_guard_entry(self, monotone):
        link = ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere())
        det = DetectorModel(y0=1e-6, e_det=0.01)
        g, guards = gamma_threshold(det, 2), {}
        for make in (SinglePhoton, lambda: Decoy((0.5, 0.1), (0.5, 0.5))):
            bounds = [
                distance._bisect(link.transmissivity, make(), det, g, 1e-3, 1e4, guards, monotone)
                for _ in range(2)
            ]
            assert bounds[0] == bounds[1]
        assert len([key for key in guards if isinstance(key, tuple)]) == 2


class TestCertifiedBracket:
    """Regula falsi certifies a point on each side of the crossing, and the
    bisection takes the side of each midpoint beyond one without a model
    call; its bounds stay those of the plain loop, bit for bit."""

    @staticmethod
    def points():
        beam = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)
        diverging = BeamGeometry(0.1, 1.55e-6, 0.5, curvature_m=-1e5)
        links = [
            ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere()),
            ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere(altitude_km=2.0)),
            ScenarioLink("satellite", beam=beam, satellite=SatellitePath(0.5)),
            ScenarioLink("satellite", beam=diverging, satellite=SatellitePath()),
            ScenarioLink("freespace", beam=beam, atmosphere=GroundAtmosphere()),
            ScenarioLink("freespace", beam=diverging, atmosphere=GroundAtmosphere(altitude_km=1.0)),
        ]
        sources = (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5), Decoy((0.6, 0.1), (0.7, 0.3)))
        for link in links:
            for src in sources:
                for y0 in (1e-10, 1e-8, 1e-6, 1e-4):
                    yield src, DetectorModel(y0=y0, e_det=0.02, eta_eff=0.5), link

    def test_a_certified_bracket_saves_most_model_calls(self):
        def solve(src, det, link, monotone):
            """The bound and its model calls off the guard grid."""
            calls = []

            def model(d):
                calls.append(d)
                return link.transmissivity(d)

            g = gamma_threshold(det, 2)
            lo, hi = distance.DEFAULT_BRACKETS_KM[link.kind]
            bound = distance._bisect(model, src, det, g, lo, hi, {}, monotone)
            grid = set(distance._guard_grid(lo, hi))
            return bound, sum(d not in grid for d in calls)

        cap = distance.CERTIFY_TRIALS + 2  # the trials and the two probes
        certified, plain = [], []
        for point in self.points():
            bound, n = solve(*point, True)
            want, n_plain = solve(*point, False)
            assert (bound.d_max_km.hex(), bound) == (want.d_max_km.hex(), want)
            assert n <= n_plain + cap
            if bound.status == "solved":
                certified.append(n)
                plain.append(n_plain)
        assert len(certified) >= 80
        assert statistics.median(plain) >= 25
        assert statistics.median(certified) <= 8

    @pytest.mark.parametrize(
        "curvature, w0, never_rises",
        [(math.inf, 0.05, True), (-1e5, 0.05, True), (1e5, 0.05, False), (math.inf, 1e-160, False)],
        ids=["collimated", "diverging", "focused", "subnormal-w0-squared"],
    )
    def test_only_a_beam_that_cannot_rise_is_certified(self, curvature, w0, never_rises):
        beam = BeamGeometry(w0, 1e-6, 0.25, curvature)
        for link in (
            ScenarioLink("diffraction", beam=beam),
            ScenarioLink("freespace", beam=beam, atmosphere=GroundAtmosphere()),
            ScenarioLink("satellite", beam=beam, satellite=SatellitePath()),
        ):
            assert _never_rises(link) is never_rises
        assert _never_rises(ScenarioLink("fiber", fiber=FIBER))
        assert _never_rises(ScenarioLink("ground_atmosphere", atmosphere=GroundAtmosphere()))

    @pytest.mark.parametrize(
        "src, gamma_min, normal",
        [
            (SinglePhoton(), 1e-300, True),
            (SinglePhoton(), 0.0, False),
            (SinglePhoton(k=7), 2.3e-308, False),
            (Attenuated(0.5), 2.3e-308, True),
            (Attenuated(1e10), 1e-300, False),
        ],
    )
    def test_gamma_near_the_subnormals_keeps_the_plain_loop(self, src, gamma_min, normal):
        assert distance._normal_near(src, gamma_min) is normal

    def test_a_model_of_the_callers_own_keeps_the_plain_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("certified a model of the caller's own")

        monkeypatch.setattr(distance, "_certified_bracket", refuse)
        det = DetectorModel(y0=1e-6, e_det=0.01)
        bound = max_distance_numeric(
            lambda d: math.exp(-d / 50.0), SinglePhoton(), det, gamma_threshold(det, 2), 1.0, 1e4
        )
        assert bound.status == "solved"


# ---------------------------------------------------------------- basis-count pin

PIN_MUBS = [2, 3, 2.0, 3.0, True, None, "2", 0, 1, 4]


def _pin_bits(v) -> str:
    """float.hex of a float, repr of anything else, fields of a result."""
    if isinstance(v, float):
        return v.hex()
    if v is None or isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return "(" + " ".join(_pin_bits(x) for x in v) + ")"
    return type(v).__name__ + "(" + " ".join(_pin_bits(x) for x in vars(v).values()) + ")"


def _pin_line(name: str, fn, *args, shown=None) -> str:
    """name, the arguments (or shown, in their place) and what fn returned."""
    try:
        out = _pin_bits(fn(*args))
    except Exception as exc:  # the type and the text are pinned too
        out = f"{type(exc).__name__}: {exc}"
    return f"{name} {args if shown is None else shown!r} {out}"


def pinned_basis_rules():
    """One line per call: the arguments, then the float.hex of the result
    or the type and text of the exception.

    Covers every rule that follows from the basis count (the thresholds,
    Gamma, the verdict and the protocol's bases) and both closed forms,
    alone and through distance_bounds, over a seeded grid holding the
    1/4 and 1/3 boundaries, y0 = 0, non-integer basis counts, and
    assumed_p2 of -0.0 and NaN. The diffraction crossing that rounds to
    0 km has its own test.
    """
    from qkdlimits.attack import _protocol_bases
    from qkdlimits.qber import QberSet, security_verdict

    rng = random.Random(20261019)
    lines = []
    for m in PIN_MUBS:
        lines.append(_pin_line("threshold", symmetric_threshold, m))
        lines.append(_pin_line("bases", _protocol_bases, m))

    quarter, third = 0.25, 1.0 / 3.0
    e_dets = [0.0, 0.01, quarter, third, 0.49]
    e_dets += [math.nextafter(x, s) for x in (quarter, third) for s in (0.0, 1.0)]
    e_dets += [rng.uniform(0.0, 0.4) for _ in range(6)]
    y0s = [0.0, 5e-324, 1e-300, 1e-8, 1e-3, 0.3, math.nextafter(1.0, 0.0)]
    y0s += [10 ** rng.uniform(-12, -1) for _ in range(4)]
    dets = [DetectorModel(y0, e, eta) for y0 in y0s for e in e_dets for eta in (1.0, 0.3)]
    for m in PIN_MUBS:
        for det in dets[:: 1 if m in (2, 3) else 17]:
            lines.append(_pin_line("gamma", gamma_threshold, det, m))

    p2s = [0.0, -0.0, 0, 0.1, 0.25, 0.5, math.nextafter(0.5, 1.0), -0.1, math.nan]
    p2s += [rng.uniform(0.0, 0.5) for _ in range(2)]
    rates = [0.0, 0.1, quarter, third, 0.5, 1.0] + [rng.random() for _ in range(3)]
    for e_x in rates:
        for e_z in rates:
            q2 = QberSet(e_x, e_z)
            for p2 in p2s:
                lines.append(_pin_line("verdict", security_verdict, q2, p2))
            for e_y in rates[::2]:
                q3 = QberSet(e_x, e_z, e_y)
                for p2 in (0.0, -0.0, 0, 0.1, math.nan):
                    lines.append(_pin_line("verdict", security_verdict, q3, p2))
    lines.append(_pin_line("verdict", security_verdict, QberSet(0.25, 0.25), 0.0))
    lines.append(_pin_line("verdict", security_verdict, QberSet(third, third, third), 0.0))

    sources = [SinglePhoton(), Attenuated(0.5), Attenuated(1e-3), Decoy((0.5, 0.1), (0.5, 0.5))]
    fibers = [FiberLink(a) for a in (5e-324, 1e-3, 0.17, 0.2, 1e3, 1e300)]
    beams = [
        BeamGeometry(w0, lam, ap)
        for w0, lam, ap in [
            (0.05, 8e-7, 0.25), (2.0, 8e-7, 0.5), (1e-3, 1.55e-6, 1e-3), (1.0, 1e-320, 1.0),
        ]
    ]
    brackets = [None, (1e-6, 1e5), (1.0, 50.0), (100.0, 200.0), (0.0, 1e-9)]
    for m in (2, 3):
        for det in dets[::3]:
            try:
                g = gamma_threshold(det, m)
            except InfeasibleConfigurationError:
                continue
            for src in sources:
                o = omega(det, src, g)
                for link in fibers:
                    lines.append(_pin_line("fiber", max_fiber_distance, link, o))
                for beam in beams:
                    lines.append(_pin_line("diffraction", max_diffraction_distance, beam, o))
    points = [
        (src, det, ScenarioLink("fiber", fiber=link))
        for src in sources for det in dets[::5] for link in fibers[1:5]
    ] + [
        (src, det, ScenarioLink("diffraction", beam=beam))
        for src in sources for det in dets[::5] for beam in beams
    ]
    for m in PIN_MUBS:
        for bracket in brackets if m in (2, 3) else [None]:
            lines.append(
                _pin_line("bounds", distance.distance_bounds, points, m, bracket, shown=(m, bracket))
            )
    return lines


def test_every_basis_count_rule_keeps_its_bits():
    # The sha256 of pinned_basis_rules(), captured from the per-protocol
    # branches in qber, distance and attack.
    lines = pinned_basis_rules()
    assert len(lines) == 9684
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d9d63baeb49b152e9f2a94db120e1b5f50bd58c2201ada310d24039fb57e9408"
