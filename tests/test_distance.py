"""Maximum-distance solvers: closed forms, bisection, sweeps."""

import math

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
    max_distance_batch,
    max_distance_numeric,
    max_fiber_distance,
    omega,
    parse_scenario,
    qber_attenuated,
    qber_k_photon,
    sweep_scenario,
    symmetric_threshold,
)

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

    def test_model_output_must_be_a_transmissivity(self):
        g = gamma_threshold(DET, 2)
        with pytest.raises(BracketError):
            max_distance_numeric(lambda d: 1.5, SinglePhoton(), DET, g, 1.0, 10.0)
        with pytest.raises(BracketError):
            max_distance_numeric(lambda d: float("nan"), SinglePhoton(), DET, g, 1.0, 10.0)


class TestBatch:
    """max_distance_batch: one guard grid per batch, one guard per (source, eta_eff)."""

    BEAM = BeamGeometry(w0_m=0.05, wavelength_m=8e-7, aperture_radius_m=0.25)

    def model(self, d):
        return diffraction_transmissivity(self.BEAM, d * 1000.0) * math.exp(-0.005 * d)

    def rows(self):
        out = []
        for src in (SinglePhoton(), SinglePhoton(k=3), Attenuated(0.5)):
            for eta_eff in (0.05, 1.0):
                for y0 in (0.0, 1e-9, 1e-6, 1e-3, 0.3, 0.9):
                    det = DetectorModel(y0=y0, e_det=0.02, eta_eff=eta_eff)
                    out.append((src, det, gamma_threshold(det, 2)))
        return out

    def test_a_scalar_call_is_a_batch_of_one(self):
        statuses = set()
        for bracket in ((1e-3, 1e7), (0.1, 10.0)):
            for row in self.rows():
                alone = max_distance_numeric(self.model, *row, *bracket)
                assert alone == max_distance_batch(self.model, [row], *bracket)[0]
                statuses.add(alone.status)
        assert statuses == {"solved", "infeasible", "feasible-everywhere"}

    def test_rows_equal_their_own_calls(self):
        rows = self.rows()
        batch = max_distance_batch(self.model, rows, 1e-3, 1e7)
        assert batch == [max_distance_numeric(self.model, *row, 1e-3, 1e7) for row in rows]

    def test_grid_and_guard_are_evaluated_once_per_batch(self, monkeypatch):
        model_calls, detect_calls = [], []

        def counted(d):
            model_calls.append(type(d))
            return self.model(d)

        gamma = SinglePhoton.gamma

        def counted_detection(src, eta):
            detect_calls.append(eta)
            return gamma(src, eta)

        monkeypatch.setattr(SinglePhoton, "gamma", counted_detection)
        # Rows that differ only in Gamma share one guard.
        rows = [r for r in self.rows() if r[0] == SinglePhoton() and r[1].eta_eff == 1.0]
        alone = []
        for row in rows:
            model_calls.clear()
            detect_calls.clear()
            max_distance_numeric(counted, *row, 1e-3, 1e7)
            alone.append((len(model_calls), len(detect_calls)))
        model_calls.clear()
        detect_calls.clear()
        max_distance_batch(counted, rows, 1e-3, 1e7)
        assert len(model_calls) == 64 + sum(m - 64 for m, _ in alone)
        assert len(detect_calls) == 64 + sum(n - 64 for _, n in alone)
        assert set(model_calls) == {float}

    def test_the_guard_grid_is_built_once_per_bracket(self, monkeypatch):
        geomspace, grids = np.geomspace, []

        def counted(*args, **kwargs):
            grids.append(args)
            return geomspace(*args, **kwargs)

        def recording(d):
            seen[-1].append(d)
            return self.model(d)

        monkeypatch.setattr(np, "geomspace", counted)
        distance._guard_grid.cache_clear()
        seen = []
        for _ in range(2):
            seen.append([])
            max_distance_batch(recording, self.rows()[:3], 0.1, 10.0)
        assert len(grids) == 1
        assert seen[0][:64] == seen[1][:64]
        assert distance._guard_grid(0.1, 10.0) == tuple(seen[0][:64])
        assert seen[0][0] == 0.1 and {type(d) for d in seen[0][:64]} == {float}

    def test_the_guard_runs_per_source_and_efficiency(self):
        # A 5e-12 rise in transmissivity trips the 1e-12 guard at
        # eta_eff = 1 but not at eta_eff = 0.1.
        def model(d):
            return 0.5 + (5e-12 if d >= 3.0 else 0.0) if d < 6.0 else 0.1

        dim = DetectorModel(y0=0.03, e_det=0.02, eta_eff=0.1)
        bright = DetectorModel(y0=0.03, e_det=0.02, eta_eff=1.0)
        rows = [(SinglePhoton(), det, gamma_threshold(det, 2)) for det in (dim, bright)]
        assert max_distance_batch(model, rows[:1], 1.0, 10.0)[0].status == "solved"
        with pytest.raises(NonMonotonicModelError):
            max_distance_batch(model, rows, 1.0, 10.0)
        with pytest.raises(NonMonotonicModelError):
            max_distance_batch(model, rows[::-1], 1.0, 10.0)

    def test_an_empty_batch_checks_the_bracket_only(self):
        def model(d):
            raise AssertionError("an empty batch evaluates no model")

        assert max_distance_batch(model, [], 1.0, 10.0) == []
        with pytest.raises(BracketError):
            max_distance_batch(model, [], 10.0, 1.0)

    def test_a_bad_transmissivity_fails_the_batch(self):
        with pytest.raises(BracketError, match="transmissivity"):
            max_distance_batch(lambda d: 1.5, self.rows(), 1.0, 10.0)


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
        bounds = distance.distance_bounds(points, 2, *self.BRACKET)
        assert bounds == [self.expected(*p) for p in points]
        assert [b is None for b in bounds] == [p[1] is hopeless for p in points]
        assert {b.method for b in bounds if b is not None} == {"closed-form", "bisection"}

    def test_interleaved_links_evaluate_each_guard_grid_once(self):
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
        alone = [distance.distance_bounds([p], 2, *self.BRACKET)[0] for p in points]
        assert alone == [self.expected(*p) for p in points]
        assert {bound.status for bound in alone} == {"solved"}
        calls.clear()
        assert distance.distance_bounds(points, 2, *self.BRACKET) == alone
        grid = list(distance._guard_grid(*self.BRACKET))
        for alpha in (0.2, 0.5):
            seen = [d for x, d in calls if x == alpha]
            assert seen[:64] == grid and sum(d in grid for d in seen) == 64

    def test_a_bad_bracket_is_checked_only_for_bisected_points(self):
        fiber = ScenarioLink("fiber", fiber=FIBER)
        hopeless = DetectorModel(y0=1e-8, e_det=0.3)
        points = [(SinglePhoton(), DET, fiber), (Attenuated(0.5), hopeless, fiber)]
        for bracket in ((10.0, 1.0), (-1.0, 10.0), (1.0, math.inf)):
            assert distance.distance_bounds(points, 2, *bracket) == [
                self.expected(*p) for p in points
            ]
            with pytest.raises(BracketError):
                distance.distance_bounds([*points, (SinglePhoton(k=3), DET, fiber)], 2, *bracket)


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
