"""Click statistics: yields, error yields, expected QBER per source model."""

import math
import sys

import numpy as np
import pytest

from qkdlimits import (
    Attenuated,
    Decoy,
    DetectorModel,
    SinglePhoton,
    UndefinedQberError,
    ValidationError,
    best_case_intensity,
    decoy_expected_qber,
    detection_probability,
    k_photon_transmissivity,
    qber_attenuated,
    qber_k_photon,
)

DET = DetectorModel(y0=1e-8, e_det=0.01, eta_eff=1.0)


class TestKPhotonTransmissivity:
    def test_exact_small_cases(self):
        assert k_photon_transmissivity(0.3, 1) == 0.3
        assert k_photon_transmissivity(0.5, 2) == 0.75
        assert k_photon_transmissivity(0.7, 0) == 0.0
        assert k_photon_transmissivity(1.0, 0) == 0.0
        assert k_photon_transmissivity(1.0, 3) == 1.0
        assert k_photon_transmissivity(0.0, 5) == 0.0

    def test_no_cancellation_for_tiny_eta(self):
        # 1 - (1 - eta)**k loses everything below ~1e-16; the log1p form
        # must keep full relative precision.
        assert math.isclose(k_photon_transmissivity(5e-9, 2), 9.999999975e-09, rel_tol=1e-12)
        assert k_photon_transmissivity(1e-300, 1) == 1e-300

    def test_matches_naive_form_where_it_is_accurate(self):
        for eta in (0.2, 0.5, 0.9):
            for k in (2, 3, 7):
                naive = 1.0 - (1.0 - eta) ** k
                assert math.isclose(k_photon_transmissivity(eta, k), naive, rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValidationError):
            k_photon_transmissivity(-0.1, 1)
        with pytest.raises(ValidationError):
            k_photon_transmissivity(1.1, 1)
        with pytest.raises(ValidationError):
            k_photon_transmissivity(float("nan"), 1)
        with pytest.raises(ValidationError):
            k_photon_transmissivity(0.5, -1)
        with pytest.raises(ValidationError):
            k_photon_transmissivity(0.5, 1.5)

    def test_a_bool_is_not_a_photon_number(self):
        for k in (True, False):
            with pytest.raises(ValidationError, match=f"k={k} must be an integer >= 0"):
                k_photon_transmissivity(0.5, k)


class TestSinglePhotonQber:
    def test_lossless_detector_sees_only_misalignment(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        b = qber_k_photon(1.0, 1, det)
        assert b.gamma == 1.0
        assert b.total_yield == 1.0
        assert b.qber == 0.01

    def test_frozen_deep_loss_value(self):
        b = qber_k_photon(1e-8, 1, DET)
        assert math.isclose(b.qber, 0.254999998775, rel_tol=1e-12)

    def test_dark_counts_only_gives_half(self):
        assert qber_k_photon(0.0, 1, DET).qber == 0.5

    def test_no_clicks_at_all_is_undefined(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        with pytest.raises(UndefinedQberError):
            qber_k_photon(0.0, 1, det)

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            qber_k_photon(0.5, 0, DET)

    def test_qber_decreases_with_transmissivity(self):
        for k in (1, 3):
            values = [qber_k_photon(eta, k, DET).qber for eta in np.logspace(-9, 0, 40)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_qber_range(self):
        for eta in np.logspace(-9, 0, 25):
            q = qber_k_photon(float(eta), 1, DET).qber
            assert DET.e_det <= q <= 0.5


class TestAttenuatedQber:
    def test_frozen_values(self):
        b = qber_attenuated(1.0, 0.3, DET)
        assert math.isclose(b.gamma, 0.2591817793182821, rel_tol=1e-14)
        assert math.isclose(b.qber, 0.010000014005649576, rel_tol=1e-12)

    def test_dark_counts_only_gives_half(self):
        assert qber_attenuated(0.0, 0.3, DET).qber == 0.5

    def test_intensity_must_be_positive(self):
        with pytest.raises(ValidationError):
            qber_attenuated(0.5, 0.0, DET)
        with pytest.raises(ValidationError):
            qber_attenuated(0.5, -0.3, DET)

    def test_qber_decreases_with_intensity(self):
        values = [qber_attenuated(1e-4, mu, DET).qber for mu in (0.05, 0.1, 0.3, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def reference_decoy_qber(eta, src, det):
    gammas = [-math.expm1(-eta * mu) if mu > 0 else 0.0 for mu in src.intensities]
    yields = [g + (1 - g) * det.y0 for g in gammas]
    errors = [det.e_det * g + (1 - g) * det.y0 / 2 for g in gammas]
    dead = [1.0 / (1.0 + src.rep_rate_hz * y * src.dead_time_s) for y in yields]
    raw = [c * q * y for c, q, y in zip(dead, src.probabilities, yields)]
    lam = [w / math.fsum(raw) for w in raw]
    per_intensity = [e / y for e, y in zip(errors, yields)]
    return math.fsum(l * e for l, e in zip(lam, per_intensity)), lam, per_intensity


class TestDecoyQber:
    SRC = Decoy(intensities=(0.5, 0.1, 0.0), probabilities=(0.7, 0.2, 0.1))

    def test_matches_reference_mixture(self):
        b = decoy_expected_qber(0.1, self.SRC, DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0))
        expected, lam, _ = reference_decoy_qber(
            0.1, self.SRC, DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        )
        assert math.isclose(b.qber, expected, rel_tol=1e-12)
        assert b.weights == pytest.approx(lam, rel=1e-12)

    def test_mixture_is_convex(self):
        det = DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        b = decoy_expected_qber(0.1, self.SRC, det)
        _, lam, per = reference_decoy_qber(0.1, self.SRC, det)
        assert min(per) <= b.qber <= max(per) <= math.fsum(per)
        assert all(w > 0 for w in lam)
        assert abs(math.fsum(lam) - 1.0) <= 1e-12

    def test_dead_time_reweights_but_keeps_bounds(self):
        det = DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        src = Decoy(
            intensities=(0.5, 0.1, 0.0),
            probabilities=(0.7, 0.2, 0.1),
            rep_rate_hz=1e9,
            dead_time_s=1e-7,
        )
        b = decoy_expected_qber(0.1, src, det)
        expected, _, per = reference_decoy_qber(0.1, src, det)
        assert math.isclose(b.qber, expected, rel_tol=1e-10)
        assert min(per) <= b.qber <= max(per)

    def test_single_intensity_reduces_to_attenuated(self):
        det = DetectorModel(y0=1e-7, e_det=0.02, eta_eff=1.0)
        mixed = decoy_expected_qber(0.05, Decoy((0.4,), (1.0,)), det)
        plain = qber_attenuated(0.05, 0.4, det)
        assert mixed.qber == plain.qber

    def test_vacuum_slot_contributes_half(self):
        det = DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        _, _, per = reference_decoy_qber(0.1, self.SRC, det)
        assert per[2] == 0.5

    def test_all_vacuum_without_dark_counts_is_undefined(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        with pytest.raises(UndefinedQberError):
            decoy_expected_qber(0.1, Decoy((0.0,), (1.0,)), det)

    def test_decoy_validation(self):
        with pytest.raises(ValidationError):
            Decoy((0.5, 0.1), (1.0,))
        with pytest.raises(ValidationError):
            Decoy((0.5, -0.1), (0.5, 0.5))
        with pytest.raises(ValidationError):
            Decoy((0.5, 0.1), (0.5, 0.0))
        with pytest.raises(ValidationError):
            Decoy((0.5, 0.1), (0.5, 0.4))
        with pytest.raises(ValidationError):
            Decoy((0.5,), (1.0,), rep_rate_hz=-1.0)
        with pytest.raises(ValidationError):
            Decoy((0.5,), (1.0,), dead_time_s=-1e-9)


class TestBestCaseIntensity:
    def test_single_choice(self):
        det = DetectorModel(y0=1e-8, e_det=0.01, eta_eff=1.0)
        assert best_case_intensity(Decoy((0.3,), (1.0,)), 0.1, det) == (0, 0.3)

    def test_larger_intensity_wins_under_loss(self):
        det = DetectorModel(y0=1e-6, e_det=0.01, eta_eff=1.0)
        src = Decoy((0.5, 0.001), (0.5, 0.5))
        assert best_case_intensity(src, 1e-4, det) == (0, 0.5)

    def test_tie_prefers_larger_intensity(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        src = Decoy((0.2, 0.5), (0.5, 0.5))
        assert best_case_intensity(src, 0.1, det) == (1, 0.5)

    def test_equal_intensities_pick_first(self):
        det = DetectorModel(y0=0.0, e_det=0.01, eta_eff=1.0)
        src = Decoy((0.4, 0.4), (0.5, 0.5))
        assert best_case_intensity(src, 0.1, det) == (0, 0.4)

    @pytest.mark.parametrize("eta", [2.0, math.nan, math.inf, -5.0])
    def test_eta_outside_the_unit_interval_is_rejected(self, eta):
        # Both decoy functions run the one per-intensity check.
        src, det = Decoy((0.5, 0.1), (0.5, 0.5)), DetectorModel(1e-6, 0.01)
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            best_case_intensity(src, eta, det)
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            decoy_expected_qber(eta, src, det)


class TestDetectionProbability:
    def test_single_photon(self):
        assert detection_probability(SinglePhoton(), 0.37) == 0.37
        k3 = detection_probability(SinglePhoton(k=3), 0.2)
        assert math.isclose(k3, 1.0 - 0.8**3, rel_tol=1e-14)

    def test_attenuated(self):
        got = detection_probability(Attenuated(mu=0.3), 0.5)
        assert math.isclose(got, -math.expm1(-0.15), rel_tol=1e-15)

    def test_decoy_uses_largest_intensity(self):
        src = Decoy((0.5, 0.1, 0.0), (0.7, 0.2, 0.1))
        assert detection_probability(src, 0.2) == detection_probability(Attenuated(0.5), 0.2)
        # The cached signal intensity leaves equality and hashing to the fields.
        fresh = Decoy((0.5, 0.1, 0.0), (0.7, 0.2, 0.1))
        assert src.mu == 0.5 and src == fresh and hash(src) == hash(fresh)

    def test_all_vacuum_decoy_rejected(self):
        # The decoy builds; its signal intensity fails on first use.
        src = Decoy((0.0,), (1.0,))
        with pytest.raises(ValidationError, match="no nonvacuum intensity"):
            detection_probability(src, 0.2)
        with pytest.raises(ValidationError, match="no nonvacuum intensity"):
            src.mu

    def test_eta_domain(self):
        with pytest.raises(ValidationError):
            detection_probability(SinglePhoton(), 1.2)


def test_detector_model_validation():
    with pytest.raises(ValidationError):
        DetectorModel(y0=1.0, e_det=0.01, eta_eff=1.0)
    with pytest.raises(ValidationError):
        DetectorModel(y0=-1e-9, e_det=0.01, eta_eff=1.0)
    with pytest.raises(ValidationError):
        DetectorModel(y0=1e-8, e_det=0.5, eta_eff=1.0)
    with pytest.raises(ValidationError):
        DetectorModel(y0=1e-8, e_det=0.01, eta_eff=0.0)
    with pytest.raises(ValidationError):
        DetectorModel(y0=1e-8, e_det=0.01, eta_eff=1.1)


def test_single_photon_validation():
    with pytest.raises(ValidationError):
        SinglePhoton(k=0)
    with pytest.raises(ValidationError):
        SinglePhoton(k=2.5)


def test_a_bool_is_not_a_single_photon_count():
    with pytest.raises(ValidationError, match="k=True must be an integer >= 1"):
        SinglePhoton(k=True)


def test_a_photon_number_past_float_range_is_refused():
    # k enters gamma as a float; such a k built, and gamma raised OverflowError.
    for build in (SinglePhoton, lambda k: k_photon_transmissivity(0.5, k)):
        with pytest.raises(ValidationError, match=r"^k=1000.*0 is beyond float range$") as exc:
            build(10**400)
        assert exc.value.field == "k"
    assert SinglePhoton(int(sys.float_info.max)).gamma(0.5) == 1.0


def test_attenuated_validation():
    with pytest.raises(ValidationError):
        Attenuated(mu=0.0)
    with pytest.raises(ValidationError):
        Attenuated(mu=-1.0)
