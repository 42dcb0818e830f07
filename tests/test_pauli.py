"""Channel-to-Choi plumbing and the capacity verdict's two routes."""

import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlimits import repeater
from qkdlimits import (
    BELL_PROJECTORS,
    PAULI_MATRICES,
    CapacityVerdict,
    ChainSpec,
    ChoiState,
    NumericError,
    PauliDistribution,
    QubitState,
    ValidationError,
    apply_channel,
    binary_entropy,
    capacity_verdict,
    capacity_verdicts,
    chain_verdict,
    choi_state,
    depolarizing,
    partial_transpose,
    symmetric_eigenvalues,
)


def unit_simplex(draw_tuple):
    total = math.fsum(draw_tuple)
    return PauliDistribution(tuple(v / total for v in draw_tuple))


simplex_points = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).filter(lambda t: math.fsum(t) > 1e-6)


def transpose_in(m, pt):
    """For each matrix of m (one matrix or a stack), whether it equals pt."""
    return np.array([np.array_equal(layer, pt) for layer in m.reshape(-1, *m.shape[-2:])])


class TestPauliDistribution:
    def test_identity_channel(self):
        p = PauliDistribution((1.0, 0.0, 0.0, 0.0))
        assert p.p == (1.0, 0.0, 0.0, 0.0)
        assert p.p_max == 1.0

    def test_fsum_keeps_boundary_exact(self):
        # 0.5 + 3*(1/6) sums to 1 only under compensated summation; the
        # boundary probe must see p_max == 0.5 exactly, not 0.5 + 1 ulp.
        third_half = (2.0 / 3.0) / 4.0
        p = PauliDistribution((0.5, third_half, third_half, third_half))
        assert p.p_max == 0.5

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            PauliDistribution((0.5, 0.5))
        with pytest.raises(ValidationError):
            PauliDistribution((0.2, 0.2, 0.2, 0.2, 0.2))

    def test_counts_the_weights_before_reading_them(self):
        # The first four sum to 1: a fifth weight must not be dropped.
        with pytest.raises(ValidationError, match=r"^need 4 Pauli probabilities, got 5$"):
            PauliDistribution((0.25, 0.25, 0.25, 0.25, "x"))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValidationError):
            PauliDistribution((1.5, -0.5, 0.0, 0.0))
        with pytest.raises(ValidationError):
            PauliDistribution((0.25, 0.25, 0.25, float("nan")))
        with pytest.raises(ValidationError):
            PauliDistribution((0.5, 0.3, 0.1, 0.0))

    def test_clamps_tiny_negative_roundoff(self):
        p = PauliDistribution((1.0, -1e-13, 5e-14, 5e-14))
        assert all(v >= 0.0 for v in p.p)

    @pytest.mark.parametrize("text", ["1000", b"\x01\x00\x00\x00", bytearray(b"\x01\x00\x00\x00")],
                             ids=repr)
    def test_rejects_text(self, text):
        # Read one item at a time, "1000" was the identity channel.
        message = f"^Pauli probabilities must be numbers, not {type(text).__name__}$"
        with pytest.raises(ValidationError, match=message):
            PauliDistribution(text)

    @pytest.mark.parametrize("p", [
        (True, 0.0, 0.0, 0.0), (1.0, False, 0.0, 0.0), (np.True_, 0, 0, 0), ("1", 0, 0, 0),
        (b"1", 0, 0, 0), (np.str_("1"), 0, 0, 0),
    ], ids=repr)
    def test_rejects_entries_that_are_not_numbers(self, p):
        # float() reads each of these as 0 or 1, so each was accepted.
        field = "p[1]" if p[1] is False else "p[0]"
        message = rf"^{re.escape(field)}=.* is not a number$"
        with pytest.raises(ValidationError, match=message) as exc:
            PauliDistribution(p)
        assert exc.value.field == field

    def test_rejects_a_boolean_array(self):
        with pytest.raises(ValidationError, match=r"^p\[0\]=np\.True_ is not a number$") as exc:
            PauliDistribution(np.array([True, False, False, False]))
        assert exc.value.field == "p[0]"

    @pytest.mark.parametrize("p", [
        [0.5, 0.5, 0, 0], (0.5, 0.5, 0.0, 0.0), np.array([0.5, 0.5, 0.0, 0.0]),
        np.array([0.5, 0.5, 0.0, 0.0], dtype=np.float32),
        (np.float64(0.5), np.float32(0.5), np.int64(0), 0), iter([0.5, 0.5, 0.0, 0.0]),
    ], ids=["list", "tuple", "float64-array", "float32-array", "numpy-scalars", "iterator"])
    def test_accepts_numbers_in_any_sequence(self, p):
        dist = PauliDistribution(p)
        assert dist.p == (0.5, 0.5, 0.0, 0.0)
        assert all(type(x) is float for x in dist.p)


class TestDepolarizing:
    def test_zero_strength_is_identity(self):
        assert depolarizing(0.0).p == (1.0, 0.0, 0.0, 0.0)

    def test_boundary_strength_lands_on_half(self):
        p = depolarizing(2.0 / 3.0)
        s4 = (2.0 / 3.0) / 4.0
        assert p.p == (0.5, s4, s4, s4)
        assert p.p_max == 0.5

    def test_full_strength_mixes_every_input(self):
        channel = depolarizing(1.0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = QubitState.from_ket(raw)
            out = apply_channel(channel, state)
            np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_domain(self):
        depolarizing(4.0 / 3.0)
        with pytest.raises(ValidationError):
            depolarizing(-0.01)
        with pytest.raises(ValidationError):
            depolarizing(1.34)


class TestStatesAndChannels:
    def test_qubit_state_checks_shape_and_positivity(self):
        with pytest.raises(ValidationError):
            QubitState(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValidationError):
            QubitState(np.eye(2))  # trace 2
        with pytest.raises(ValidationError):
            QubitState(np.array([[2.0, 0.0], [0.0, -1.0]]))

    def test_states_check_their_shape(self):
        with pytest.raises(ValidationError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
            QubitState(np.eye(3) / 3)
        with pytest.raises(ValidationError, match=r"expected a 4x4 matrix, got shape \(2, 2\)"):
            ChoiState(np.eye(2) / 2)

    def test_qubit_state_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            QubitState([[1.0, math.inf], [math.inf, 0.0]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            QubitState([[math.nan, 0.0], [0.0, 1.0]])

    def test_from_ket_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            QubitState.from_ket([0.0, 0.0])

    def test_apply_identity_channel_returns_input(self):
        state = QubitState.from_ket([1.0, 1.0])
        out = apply_channel(PauliDistribution((1.0, 0.0, 0.0, 0.0)), state)
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-15)

    @given(simplex_points, st.floats(0.0, math.tau), st.floats(0.0, math.pi))
    def test_apply_channel_preserves_density_matrix(self, raw, phase, polar):
        channel = unit_simplex(raw)
        ket = [math.cos(polar / 2), math.sin(polar / 2) * complex(math.cos(phase), math.sin(phase))]
        out = apply_channel(channel, QubitState.from_ket(ket)).matrix
        assert abs(np.trace(out) - 1.0) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
        assert min(np.linalg.eigvalsh(out)) > -1e-12

    def test_pauli_matrices_square_to_identity(self):
        for sigma in PAULI_MATRICES:
            np.testing.assert_allclose(sigma @ sigma, np.eye(2), atol=0)


class TestChoi:
    def test_identity_choi_is_phi_plus_projector(self):
        choi = choi_state(PauliDistribution((1.0, 0.0, 0.0, 0.0)))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        assert (choi.matrix == expected).all()

    def test_bell_projectors_resolve_identity(self):
        np.testing.assert_allclose(sum(BELL_PROJECTORS), np.eye(4), atol=1e-15)

    def test_uniform_mixture_gives_maximally_mixed_choi(self):
        choi = choi_state(PauliDistribution((0.25, 0.25, 0.25, 0.25)))
        np.testing.assert_allclose(choi.matrix, np.eye(4) / 4, atol=1e-15)
        np.testing.assert_allclose(partial_transpose(choi), np.eye(4) / 4, atol=1e-15)

    @given(simplex_points)
    def test_choi_spectrum_is_the_distribution(self, raw):
        p = unit_simplex(raw)
        eigs = symmetric_eigenvalues(choi_state(p).matrix)
        assert np.allclose(sorted(eigs), sorted(p.p), atol=1e-12)

    def test_partial_transpose_is_an_involution(self):
        # p_max <= 1/2 keeps the transposed matrix PSD, so it can be
        # re-wrapped as a ChoiState and transposed back.
        choi = choi_state(PauliDistribution((0.4, 0.3, 0.2, 0.1)))
        round_trip = partial_transpose(ChoiState(partial_transpose(choi)))
        np.testing.assert_allclose(round_trip, choi.matrix, atol=0)

    def test_partial_transpose_of_max_entangled(self):
        choi = choi_state(PauliDistribution((1.0, 0.0, 0.0, 0.0)))
        eigs = sorted(symmetric_eigenvalues(partial_transpose(choi)))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_partial_transpose_bit_phase_flip_spectrum(self):
        choi = choi_state(PauliDistribution((0.75, 0.25, 0.0, 0.0)))
        eigs = sorted(symmetric_eigenvalues(partial_transpose(choi)))
        assert np.allclose(eigs, [-0.25, 0.25, 0.5, 0.5], atol=1e-12)

    def test_choi_state_validation(self):
        with pytest.raises(ValidationError):
            ChoiState(np.ones((4, 4)))  # trace 4
        asym = np.eye(4) / 4
        asym = asym.copy()
        asym[0, 1] = 0.1
        with pytest.raises(ValidationError):
            ChoiState(asym)
        negative = partial_transpose(choi_state(PauliDistribution((1.0, 0.0, 0.0, 0.0))))
        with pytest.raises(ValidationError):
            ChoiState(negative)

    def test_choi_state_rejects_non_finite_entries(self):
        m = np.eye(4) / 4
        m[0, 1] = m[1, 0] = math.inf
        with pytest.raises(ValidationError, match="not symmetric"):
            ChoiState(m)

    def test_trace_message_prints_a_plain_float(self):
        with pytest.raises(ValidationError) as err:
            ChoiState(np.ones((4, 4)))
        assert str(err.value) == "Choi matrix trace is 4.0, not 1"

    def test_choi_state_of_a_distribution_is_read_only(self):
        choi = choi_state(PauliDistribution((0.4, 0.3, 0.2, 0.1)))
        assert isinstance(choi, ChoiState)
        assert not choi.matrix.flags.writeable
        with pytest.raises(ValueError):
            choi.matrix.flags.writeable = True
        np.testing.assert_array_equal(choi.matrix, ChoiState(choi.matrix).matrix)


class TestEigensolver:
    def test_diagonal_matrix(self):
        w = symmetric_eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert list(w) == [1.0, 2.0, 3.0, 4.0]

    def test_scaled_identity(self):
        w = symmetric_eigenvalues(np.eye(4) / 4)
        assert np.allclose(w, 0.25, atol=0)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValidationError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_rejects_non_finite_entries(self):
        for bad in ([[1.0, math.inf], [math.inf, 1.0]], [[math.nan, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValidationError, match="not symmetric"):
                symmetric_eigenvalues(bad)

    def test_empty_matrix_has_no_eigenvalues(self):
        assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)

    def test_solver_failure_is_a_numeric_error(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericError, match="eigensolver failed to converge: no convergence"):
            symmetric_eigenvalues(np.eye(2))

    def test_a_stack_is_solved_matrix_by_matrix(self):
        a = np.random.default_rng(4).normal(size=(5, 4, 4))
        stack = a + a.transpose(0, 2, 1)
        w = symmetric_eigenvalues(stack)
        assert w.shape == (5, 4)
        for m, row in zip(stack, w):
            assert row.tobytes() == symmetric_eigenvalues(m).tobytes()

    def test_rejects_a_stack_holding_one_bad_matrix(self):
        for bad in ([[0.0, 1.0], [0.0, 0.0]], [[math.nan, 0.0], [0.0, 1.0]]):
            stack = np.stack([np.eye(2), np.array(bad), np.eye(2)])
            with pytest.raises(ValidationError, match="not symmetric within 1e-10"):
                symmetric_eigenvalues(stack)

    def test_rejects_vectors_and_non_square_stacks(self):
        for shape in ((4,), (3, 2, 4)):
            with pytest.raises(ValidationError, match=r"expected a square matrix, got shape"):
                symmetric_eigenvalues(np.zeros(shape))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_frozen_values(self):
        assert math.isclose(binary_entropy(0.55), 0.9927744539878083, rel_tol=1e-14)
        assert math.isclose(binary_entropy(0.75), 0.8112781244591328, rel_tol=1e-14)

    def test_symmetry(self):
        for x in (0.1, 0.23, 0.4):
            assert math.isclose(binary_entropy(x), binary_entropy(1 - x), rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValidationError):
            binary_entropy(-0.1)
        with pytest.raises(ValidationError):
            binary_entropy(1.1)


class TestCapacityVerdict:
    def test_identity_channel(self):
        v = capacity_verdict(PauliDistribution((1.0, 0.0, 0.0, 0.0)))
        assert isinstance(v, CapacityVerdict)
        assert not v.zero_capacity
        assert v.npt
        assert v.p_max == 1.0
        assert v.phi_upper_bound == 1.0
        assert math.isclose(v.min_pt_eigenvalue, -0.5, abs_tol=1e-12)

    def test_bit_phase_flip_example(self):
        v = capacity_verdict(PauliDistribution((0.75, 0.25, 0.0, 0.0)))
        assert not v.zero_capacity
        assert v.npt
        assert math.isclose(v.phi_upper_bound, 0.18872187554086714, rel_tol=1e-12)
        assert math.isclose(v.min_pt_eigenvalue, -0.25, abs_tol=1e-12)

    def test_uniform_mixture_has_zero_capacity(self):
        v = capacity_verdict(PauliDistribution((0.25, 0.25, 0.25, 0.25)))
        assert v.zero_capacity
        assert not v.npt
        assert v.phi_upper_bound == 0.0

    def test_depolarizing_boundary_grid(self):
        expectations = {0.66: False, 2.0 / 3.0: True, 0.667: True, 0.7: True}
        for strength, zero in expectations.items():
            assert capacity_verdict(depolarizing(strength)).zero_capacity is zero

    def test_phi_vanishes_continuously_at_the_boundary(self):
        on_boundary = capacity_verdict(PauliDistribution((0.5, 0.5, 0.0, 0.0)))
        assert on_boundary.phi_upper_bound == 0.0
        assert on_boundary.zero_capacity
        eps = 1e-6
        just_above = capacity_verdict(PauliDistribution((0.5 + eps, 0.5 - eps, 0.0, 0.0)))
        assert not just_above.zero_capacity
        assert 0.0 <= just_above.phi_upper_bound < 1e-11

    def test_one_eigensolve_per_verdict(self, monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []

        def counted(m):
            calls.append(m)
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        capacity_verdict(PauliDistribution((0.4, 0.3, 0.2, 0.1)))
        assert len(calls) == 1

    def test_solver_failure_on_the_transpose_is_a_numeric_error(self, monkeypatch):
        p = PauliDistribution((1.0, 0.0, 0.0, 0.0))
        pt = partial_transpose(choi_state(p))
        solve = np.linalg.eigvalsh

        def failing_on_pt(m):
            # The verdict solves a stack of transposes; look for pt in it.
            if transpose_in(m, pt).any():
                raise np.linalg.LinAlgError("no convergence")
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_pt)
        with pytest.raises(NumericError, match="eigensolver failed to converge"):
            capacity_verdict(p)

    def test_routes_that_disagree_are_a_numeric_error(self, monkeypatch):
        solve = np.linalg.eigvalsh
        # Shifted up, so a positivity check on the way still passes.
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solve(m) + 2e-10)
        with pytest.raises(NumericError, match="PT spectrum route gives"):
            capacity_verdict(PauliDistribution((0.75, 0.25, 0.0, 0.0)))

    @given(simplex_points)
    @settings(max_examples=300)
    def test_routes_agree_on_the_simplex(self, raw):
        p = unit_simplex(raw)
        v = capacity_verdict(p)
        assert abs(v.min_pt_eigenvalue - (0.5 - v.p_max)) <= 1e-10
        assert v.npt == (v.min_pt_eigenvalue < -1e-12)
        assert v.zero_capacity == (v.p_max <= 0.5)
        assert v.zero_capacity != v.npt or abs(v.p_max - 0.5) < 1e-9
        if v.zero_capacity:
            assert v.phi_upper_bound == 0.0
        else:
            assert 0.0 < v.phi_upper_bound <= 1.0

    @given(simplex_points)
    def test_phi_matches_entropy_formula(self, raw):
        p = unit_simplex(raw)
        v = capacity_verdict(p)
        if v.p_max > 0.5:
            assert math.isclose(
                v.phi_upper_bound, 1.0 - binary_entropy(v.p_max), rel_tol=1e-12, abs_tol=1e-15
            )


def verdict_bits(v):
    """Every field of a verdict, floats as hex so that -0.0 differs from 0.0."""
    return (v.zero_capacity, v.p_max.hex(), v.phi_upper_bound.hex(), v.npt,
            v.min_pt_eigenvalue.hex())


class TestCapacityVerdicts:
    """capacity_verdicts decides a batch with one eigensolve; every verdict
    must be the one a single call gives."""

    def test_single_batch_and_chain_verdicts_are_bit_identical(self, monkeypatch):
        draws = np.random.default_rng(20240814).dirichlet(np.ones(4), size=10**4)
        ps = [PauliDistribution(tuple(row.tolist())) for row in draws]
        ps += [PauliDistribution(t) for t in (
            (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.5, 1 / 6, 1 / 6, 1 / 6),
            (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 1.0),
        )]
        single = [verdict_bits(capacity_verdict(p)) for p in ps]
        assert [verdict_bits(v) for v in capacity_verdicts(ps)] == single
        seen = []
        batch = repeater.capacity_verdicts

        def recorded(links):
            verdicts = batch(links)
            seen.extend(verdicts)
            return verdicts

        monkeypatch.setattr(repeater, "capacity_verdicts", recorded)
        for i in range(0, len(ps), 8):
            chain_verdict(ChainSpec(links=tuple(ps[i:i + 8])))
        assert [verdict_bits(v) for v in seen] == single

    def test_routes_that_disagree_on_one_link_raise_its_single_error(self, monkeypatch):
        ps = [PauliDistribution(t) for t in (
            (0.4, 0.3, 0.2, 0.1), (0.75, 0.25, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
        )]
        pt = partial_transpose(choi_state(ps[1]))
        solve = np.linalg.eigvalsh

        def shifted_on_pt(m):
            w = solve(m)
            return w + 2e-10 * transpose_in(m, pt).reshape(w.shape[:-1] + (1,))

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_on_pt)
        with pytest.raises(NumericError, match="PT spectrum route gives") as single:
            capacity_verdict(ps[1])
        with pytest.raises(NumericError) as batch:
            capacity_verdicts(ps)
        assert str(batch.value) == str(single.value)
        assert len(capacity_verdicts([ps[0], ps[2]])) == 2

    def test_a_solver_failure_on_one_link_raises_its_single_error(self, monkeypatch):
        ps = [PauliDistribution(t) for t in (
            (0.4, 0.3, 0.2, 0.1), (1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
        )]
        pt = partial_transpose(choi_state(ps[1]))
        solve = np.linalg.eigvalsh

        def failing_on_pt(m):
            if transpose_in(m, pt).any():
                raise np.linalg.LinAlgError("no convergence")
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_pt)
        with pytest.raises(NumericError, match="eigensolver failed to converge") as single:
            capacity_verdict(ps[1])
        with pytest.raises(NumericError) as batch:
            capacity_verdicts(ps)
        assert str(batch.value) == str(single.value)
        assert len(capacity_verdicts([ps[0], ps[2]])) == 2

    def test_one_eigensolve_per_batch(self, monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []

        def counted(m):
            calls.append(m.shape)
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        capacity_verdicts([depolarizing(s / 10) for s in range(10)])
        assert calls == [(10, 4, 4)]

    def test_rejects_elements_that_are_not_distributions(self):
        good = PauliDistribution((0.4, 0.3, 0.2, 0.1))
        with pytest.raises(ValidationError, match="^channel 1 must be a PauliDistribution, not list$"):
            capacity_verdicts([good, [0.7, 0.1, 0.1, 0.1]])
        with pytest.raises(ValidationError, match="^channel 0 must be a PauliDistribution, not tuple$"):
            capacity_verdict((0.7, 0.1, 0.1, 0.1))

    def test_an_empty_batch_has_no_verdicts(self):
        assert capacity_verdicts(()) == ()


def pinned_channels():
    """10^4 seeded Dirichlet draws, then the edge cases: the four vertices,
    every placement of three points on the p_max = 1/2 faces, each
    subnormal weight beside 1, and each pair of subnormal weights beside
    two halves, in every pair of slots. Halving a subnormal weight rounds,
    so those are the channels whose matrices depend on when the 1/2 of a
    Bell projector is applied."""
    draws = np.random.default_rng(20261020).dirichlet(np.ones(4), size=10**4)
    points = [tuple(row.tolist()) for row in draws]
    for face in ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.5, 0.25, 0.25, 0.0),
                 (0.5, 1 / 6, 1 / 6, 1 / 6)):
        points += sorted(set(itertools.permutations(face)))
    # 1, 2 and 3 units of the last place, and a larger one.
    subnormals = (5e-324, 1e-323, 1.5e-323, 1e-310)
    for (i, j), v in itertools.product(itertools.permutations(range(4), 2), subnormals):
        beside_one = [0.0] * 4
        beside_one[i], beside_one[j] = v, 1.0
        points.append(tuple(beside_one))
    for (i, j), (v, w) in itertools.product(
        itertools.combinations(range(4), 2), itertools.product(subnormals, repeat=2)
    ):
        beside_halves = [0.5] * 4
        beside_halves[i], beside_halves[j] = v, w
        points.append(tuple(beside_halves))
    return [PauliDistribution(t) for t in points]


def pinned_choi_bits():
    """One line per channel: its batch, its probabilities as hex, the
    verdict's bits, and the bytes of its Choi matrix and of that matrix's
    partial transpose. The channels go to capacity_verdicts in batches
    of 1, 2, ..., 8, 1, 2, ..."""
    ps = pinned_channels()
    lines = []
    start, size = 0, 1
    while start < len(ps):
        batch = ps[start:start + size]
        for p, v in zip(batch, capacity_verdicts(batch)):
            choi = choi_state(p)
            lines.append(" ".join([
                str(start), *(x.hex() for x in p.p), repr(verdict_bits(v)),
                choi.matrix.tobytes().hex(), partial_transpose(choi).tobytes().hex(),
            ]))
        start, size = start + size, size % 8 + 1
    return lines


def test_every_choi_matrix_and_verdict_keeps_its_bits():
    # The sha256 of pinned_choi_bits(), captured from the per-k sum
    # m += p_k * P_k of each Choi matrix and the partial transpose of
    # that stack.
    lines = pinned_choi_bits()
    assert len(lines) == 10_170
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1cf9146b76a3d2f23d19ec41a6a4e103e6057b75596ddfc43dba6b428ef5ab86"
