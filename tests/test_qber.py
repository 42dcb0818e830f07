"""Error-rate bookkeeping: channel to QBERs, reconstructions, verdicts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlimits import (
    InconsistentQberError,
    PauliDistribution,
    QberSet,
    ValidationError,
    capacity_verdict,
    depolarizing,
    pauli_from_qbers,
    pauli_from_qbers_2mub_worstcase,
    pauli_from_qbers_3mub,
    qbers_from_pauli,
    security_verdict,
    symmetric_threshold,
)


def normalized(raw):
    total = math.fsum(raw)
    return PauliDistribution(tuple(v / total for v in raw))


simplex_points = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).filter(lambda t: math.fsum(t) > 1e-6)


def test_qber_set_validation():
    with pytest.raises(ValidationError):
        QberSet(e_x=-0.1, e_z=0.1)
    with pytest.raises(ValidationError):
        QberSet(e_x=0.1, e_z=1.5)
    with pytest.raises(ValidationError):
        QberSet(e_x=0.1, e_z=0.1, e_y=float("nan"))
    assert QberSet(0.1, 0.2).mub_count == 2
    assert QberSet(0.1, 0.2, 0.3).mub_count == 3


@pytest.mark.parametrize("field", ["e_x", "e_z", "e_y"])
@pytest.mark.parametrize("bad", [True, False, "0.1", b"0.1"], ids=repr)
def test_a_rate_that_is_not_a_number_is_refused(field, bad):
    # The scenario parser refuses these; a bool rate was kept as is, so
    # QberSet(True, 0.1).qber_sum was 1.1.
    rates = {"e_x": 0.1, "e_z": 0.1, "e_y": 0.1, field: bad}
    message = f"^{field}={re.escape(repr(bad))} is not a number$"
    with pytest.raises(ValidationError, match=message) as exc:
        QberSet(**rates)
    assert exc.value.field == field


def test_numpy_float_rates_are_accepted():
    q = QberSet(np.float64(0.1), np.float64(0.2))
    assert q.qber_sum == 0.1 + 0.2


def test_identity_channel_has_no_errors():
    q = qbers_from_pauli(PauliDistribution((1.0, 0.0, 0.0, 0.0)))
    assert (q.e_x, q.e_z, q.e_y) == (0.0, 0.0, 0.0)


def test_bit_phase_flip_rates():
    q = qbers_from_pauli(PauliDistribution((0.7, 0.1, 0.0, 0.2)))
    assert q.e_x == 0.2
    assert q.e_z == 0.1
    assert q.e_y == pytest.approx(0.3, abs=1e-15)


def test_depolarizing_boundary_rates_are_symmetric():
    q = qbers_from_pauli(depolarizing(2.0 / 3.0))
    third = 1.0 / 3.0
    assert q.e_x == third
    assert q.e_z == third
    assert q.e_y == third


class TestThreeBasisReconstruction:
    def test_error_free(self):
        p = pauli_from_qbers_3mub(QberSet(0.0, 0.0, 0.0))
        assert p.p == (1.0, 0.0, 0.0, 0.0)

    def test_symmetric_tenth(self):
        p = pauli_from_qbers_3mub(QberSet(0.1, 0.1, 0.1))
        assert p.p == pytest.approx((0.85, 0.05, 0.05, 0.05), abs=1e-12)

    def test_edge_consistent(self):
        p = pauli_from_qbers_3mub(QberSet(0.5, 0.5, 0.0))
        assert p.p == pytest.approx((0.5, 0.0, 0.5, 0.0), abs=1e-12)

    def test_inconsistent_triple_raises(self):
        with pytest.raises(InconsistentQberError):
            pauli_from_qbers_3mub(QberSet(0.6, 0.0, 0.0))

    def test_needs_the_third_rate(self):
        with pytest.raises(ValidationError):
            pauli_from_qbers_3mub(QberSet(0.1, 0.1))

    @given(simplex_points)
    def test_round_trip_is_identity(self, raw):
        p = normalized(raw)
        back = pauli_from_qbers_3mub(qbers_from_pauli(p))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back.p, p.p))

    @given(simplex_points)
    def test_rate_sum_identity(self, raw):
        p = normalized(raw)
        q = qbers_from_pauli(p)
        assert abs((q.e_x + q.e_z + q.e_y) - 2.0 * (1.0 - p.p[0])) <= 1e-12


class TestTwoBasisWorstCase:
    def test_error_free(self):
        p = pauli_from_qbers_2mub_worstcase(QberSet(0.0, 0.0))
        assert p.p == (1.0, 0.0, 0.0, 0.0)

    def test_boundary_quarter(self):
        p = pauli_from_qbers_2mub_worstcase(QberSet(0.25, 0.25))
        assert p.p == (0.5, 0.25, 0.0, 0.25)
        assert capacity_verdict(p).zero_capacity

    def test_asymmetric(self):
        p = pauli_from_qbers_2mub_worstcase(QberSet(0.1, 0.2))
        assert p.p == pytest.approx((0.7, 0.2, 0.0, 0.1), abs=1e-15)

    def test_assumed_y_weight_shifts_mass(self):
        p = pauli_from_qbers_2mub_worstcase(QberSet(0.3, 0.25), assumed_p2=0.1)
        assert p.p == pytest.approx((0.55, 0.15, 0.1, 0.2), abs=1e-12)

    def test_assumed_y_weight_range(self):
        with pytest.raises(ValidationError):
            pauli_from_qbers_2mub_worstcase(QberSet(0.3, 0.25), assumed_p2=-0.1)
        with pytest.raises(ValidationError):
            pauli_from_qbers_2mub_worstcase(QberSet(0.3, 0.25), assumed_p2=0.26)

    def test_rejects_three_rate_input(self):
        with pytest.raises(ValidationError):
            pauli_from_qbers_2mub_worstcase(QberSet(0.1, 0.1, 0.1))

    def test_inconsistent_pair_raises(self):
        with pytest.raises(InconsistentQberError):
            pauli_from_qbers_2mub_worstcase(QberSet(0.7, 0.6))

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_reconstruction_reproduces_measured_rates(self, e_x, e_z):
        if e_x + e_z > 1.0:
            return
        p = pauli_from_qbers_2mub_worstcase(QberSet(e_x, e_z))
        q = qbers_from_pauli(p)
        assert abs(q.e_x - e_x) <= 1e-12
        assert abs(q.e_z - e_z) <= 1e-12


def test_reconstruction_dispatches_on_the_basis_count():
    three = QberSet(e_x=0.1, e_z=0.2, e_y=0.15)
    two = QberSet(e_x=0.1, e_z=0.2)
    assert pauli_from_qbers(three) == pauli_from_qbers_3mub(three)
    assert pauli_from_qbers(two) == pauli_from_qbers_2mub_worstcase(two)
    assert pauli_from_qbers(two, 0.05) == pauli_from_qbers_2mub_worstcase(two, 0.05)
    with pytest.raises(InconsistentQberError):
        pauli_from_qbers(QberSet(e_x=0.9, e_z=0.9))
    with pytest.raises(ValidationError):
        pauli_from_qbers(two, 0.5)


def test_symmetric_threshold_values():
    assert symmetric_threshold(2) == 0.25
    assert symmetric_threshold(3) == 1.0 / 3.0
    with pytest.raises(ValidationError):
        symmetric_threshold(4)


class TestSecurityVerdict:
    def test_two_basis_interior(self):
        v = security_verdict(QberSet(0.12, 0.12))
        assert v.secure_possible
        assert v.threshold == 0.5
        assert v.margin == pytest.approx(0.26, abs=1e-15)
        assert not v.regime_warning

    def test_two_basis_boundary_is_insecure(self):
        v = security_verdict(QberSet(0.25, 0.25))
        assert not v.secure_possible
        assert v.margin == 0.0

    def test_three_basis_boundary_is_insecure(self):
        third = 1.0 / 3.0
        v = security_verdict(QberSet(third, third, third))
        assert v.qber_sum == 1.0
        assert not v.secure_possible
        assert v.margin == 0.0

    def test_three_basis_interior(self):
        v = security_verdict(QberSet(0.3, 0.3, 0.3))
        assert v.secure_possible
        assert v.threshold == 1.0

    def test_asymmetric_two_basis_insecure_example(self):
        v = security_verdict(QberSet(0.3, 0.25))
        assert not v.secure_possible

    def test_assumed_y_weight_raises_threshold(self):
        v = security_verdict(QberSet(0.3, 0.25), assumed_p2=0.1)
        assert v.threshold == 0.6
        assert v.secure_possible

    def test_assumed_y_weight_only_for_two_bases(self):
        with pytest.raises(ValidationError):
            security_verdict(QberSet(0.1, 0.1, 0.1), assumed_p2=0.1)
        with pytest.raises(ValidationError):
            security_verdict(QberSet(0.1, 0.1), assumed_p2=0.6)

    def test_warning_when_identity_weight_is_not_dominant(self):
        v3 = security_verdict(QberSet(0.6, 0.6, 0.6))
        assert v3.regime_warning
        assert not v3.secure_possible
        v2 = security_verdict(QberSet(0.45, 0.45))
        assert v2.regime_warning
        assert not v2.secure_possible

    def test_warning_when_rates_fit_no_channel(self):
        # (0.6, 0, 0) admits no Pauli channel; the inequality is still
        # evaluated but flagged.
        v = security_verdict(QberSet(0.6, 0.0, 0.0))
        assert v.regime_warning
        assert v.secure_possible

    def test_no_warning_in_the_trusted_regime(self):
        assert not security_verdict(QberSet(0.1, 0.1, 0.1)).regime_warning
        assert not security_verdict(QberSet(0.05, 0.1)).regime_warning

    @given(st.floats(0.0, 0.24), st.floats(0.0, 0.24))
    def test_secure_pairs_reconstruct_to_nonzero_capacity(self, e_x, e_z):
        q = QberSet(e_x, e_z)
        assert security_verdict(q).secure_possible
        rec = pauli_from_qbers_2mub_worstcase(q)
        assert not capacity_verdict(rec).zero_capacity

    @given(st.floats(0.26, 0.5), st.floats(0.26, 0.5))
    @settings(max_examples=60)
    def test_insecure_pairs_reconstruct_to_zero_capacity(self, e_x, e_z):
        q = QberSet(e_x, e_z)
        assert not security_verdict(q).secure_possible
        rec = pauli_from_qbers_2mub_worstcase(q)
        assert capacity_verdict(rec).zero_capacity
