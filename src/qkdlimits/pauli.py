"""Qubit Pauli channels, their Choi states and two-way capacity verdicts.

A Pauli channel applies I, X, Y or Z with probabilities (p0, p1, p2, p3).
Its two-way assisted secret-key capacity is zero exactly when the largest
probability is at most 1/2, which is also when the Choi state stays PPT.
When the largest probability exceeds 1/2, 1 - H2(p_max) upper-bounds the
capacity. ``capacity_verdicts`` decides a batch of channels with one
product against the transposed Bell projectors and one eigensolve;
``capacity_verdict`` is a batch of one. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

SIMPLEX_TOL = 1e-12
NPT_TOL = 1e-12
ROUTE_AGREEMENT_TOL = 1e-10

PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _check_self_adjoint(m: np.ndarray, tol: float, message: str) -> None:
    # NaN and inf entries fail; np.allclose counts inf as close to inf.
    # m may be a stack of matrices: compare each with its own adjoint.
    if not (np.isfinite(m).all() and (np.abs(m - m.swapaxes(-1, -2).conj()) <= tol).all()):
        raise ValidationError(message)


def _probability(x) -> float:
    # float() reads a numeric str and a bool too; neither is a probability.
    if isinstance(x, (str, bytes, bool, np.bool_)):
        raise ValidationError(f"probability {x!r} is not a number")
    return float(x)


@dataclass(frozen=True)
class PauliDistribution:
    """Probability 4-vector over the Pauli operators (I, X, Y, Z).

    Entries must lie in [0, 1] and sum to 1 within 1e-12; inputs inside
    the tolerance are renormalized, anything else is rejected.
    """

    p: tuple[float, float, float, float]

    def __init__(self, p) -> None:
        if isinstance(p, (str, bytes, bytearray)):
            raise ValidationError(f"Pauli probabilities must be numbers, not {type(p).__name__}")
        vals = [x if type(x) is float else _probability(x) for x in p]
        if len(vals) != 4:
            raise ValidationError(f"need 4 Pauli probabilities, got {len(vals)}")
        for x in vals:
            if not math.isfinite(x) or x < -SIMPLEX_TOL or x > 1.0 + SIMPLEX_TOL:
                raise ValidationError(f"probability {x!r} outside [0, 1]")
        # fsum: exactly-rounded total, so (0.5, 1/6, 1/6, 1/6) stays on
        # the p_max = 1/2 boundary instead of drifting one ulp past it.
        total = math.fsum(vals)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        vals = [min(max(x, 0.0), 1.0) / total for x in vals]
        object.__setattr__(self, "p", tuple(vals))

    @property
    def p_max(self) -> float:
        return max(self.p)

    def as_array(self) -> np.ndarray:
        return np.array(self.p)


class QubitState:
    """Single-qubit density matrix (2x2 complex, Hermitian, unit trace)."""

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError(f"expected a 2x2 matrix, got shape {m.shape}")
        _check_self_adjoint(m, 1e-12, "density matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > 1e-12 or abs(m.trace().imag) > 1e-12:
            raise ValidationError(f"density matrix trace is {m.trace()}, not 1")
        if np.linalg.eigvalsh(m).min() < -1e-12:
            raise ValidationError("density matrix has a negative eigenvalue")
        self.matrix = m.copy()
        self.matrix.flags.writeable = False

    @classmethod
    def from_ket(cls, amplitudes) -> "QubitState":
        v = np.asarray(amplitudes, dtype=complex).reshape(2)
        norm = np.vdot(v, v).real
        if norm <= 0:
            raise ValidationError("ket amplitudes are all zero")
        return cls(np.outer(v, v.conj()) / norm)


def apply_channel(p: PauliDistribution, rho: QubitState) -> QubitState:
    """Apply the Pauli channel: sum_k p_k P_k rho P_k."""
    out = np.zeros((2, 2), dtype=complex)
    for prob, sigma in zip(p.p, PAULI_MATRICES):
        out += prob * (sigma @ rho.matrix @ sigma.conj().T)
    return QubitState(out)


def depolarizing(strength: float) -> PauliDistribution:
    """Pauli distribution (1 - 3p/4, p/4, p/4, p/4) of the depolarizing channel.

    The channel maps rho to (1 - p) rho + p I/2; p may run up to 4/3,
    past which the distribution leaves the simplex.
    """
    s = float(strength)
    if not 0.0 <= s <= 4.0 / 3.0:
        raise ValidationError(f"depolarizing strength {s!r} outside [0, 4/3]")
    return PauliDistribution((1.0 - 0.75 * s, s / 4.0, s / 4.0, s / 4.0))


def _partial_transpose(stack: np.ndarray) -> np.ndarray:
    """Partial transpose over the output qubit of each 4x4 matrix of a stack."""
    n = len(stack)
    return stack.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)


# (I tensor P_k) |phi+> for k = 0..3; the projectors are all real.
_BELL_KETS = [np.kron(np.eye(2), sigma) @ np.array([1, 0, 0, 1]) for sigma in PAULI_MATRICES]
BELL_PROJECTORS = tuple(np.real(np.outer(v, v.conj())) / 2.0 for v in _BELL_KETS)
_BELL_STACK = np.array(BELL_PROJECTORS)
# 2 |bell_k><bell_k| and its partial transpose, a read-only row of 16 per k.
_BELL_ROWS = 2.0 * _BELL_STACK.reshape(4, 16)
_PT_BELL_ROWS = 2.0 * _partial_transpose(_BELL_STACK).reshape(4, 16)
_BELL_ROWS.flags.writeable = _PT_BELL_ROWS.flags.writeable = False


class ChoiState:
    """Choi state of a Pauli channel: Bell-diagonal, real symmetric 4x4."""

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
        _check_self_adjoint(m, 1e-12, "Choi matrix is not symmetric")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValidationError(f"Choi matrix trace is {float(np.trace(m))!r}, not 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValidationError("Choi matrix is not positive semidefinite")
        self.matrix = m.copy()
        self.matrix.flags.writeable = False


def _choi_stack(ps, rows: np.ndarray) -> np.ndarray:
    """(n, 4, 4) stack of sum_k p_k M_k, where rows holds the 2 M_k: each
    entry sums at most two nonzero terms (p_k / 2) * +-1, each exact, so it
    rounds once, as m += p_k * M_k in k order does, on any BLAS, FMA or not.
    Halving first rounds a subnormal p_k as p_k * M_k does."""
    halves = np.array([p.p for p in ps], dtype=float).reshape(-1, 4) * 0.5
    return (halves @ rows).reshape(-1, 4, 4)


def choi_state(p: PauliDistribution) -> ChoiState:
    """Choi state sum_k p_k |bell_k><bell_k| of the channel, built without
    ChoiState's checks: it is exactly symmetric, with unit trace and
    spectrum p."""
    # Own the data read-only, so that the view cannot be made writeable again.
    stack = _choi_stack((p,), _BELL_ROWS).copy()
    stack.flags.writeable = False
    choi = object.__new__(ChoiState)
    choi.matrix = stack[0]
    return choi


def partial_transpose(c: ChoiState) -> np.ndarray:
    """Partial transpose over the output (second) qubit.

    The result is again real symmetric but may have a negative
    eigenvalue; for a Bell-diagonal input the spectrum is {1/2 - p_k}.
    """
    return _partial_transpose(c.matrix[np.newaxis])[0]


def symmetric_eigenvalues(matrix):
    """Eigenvalues of a real symmetric matrix, ascending; for a stack of
    matrices, of each one along the last axis.

    Thin wrapper over LAPACK's symmetric solver: one call solves a whole
    stack, after the self-adjointness check of every matrix in it.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    _check_self_adjoint(m, 1e-10, "matrix is not symmetric within 1e-10")
    return _eigvalsh(m)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh, unchecked; a solver failure is a NumericError."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) in bits, with H2(0) = H2(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class CapacityVerdict:
    """Zero-capacity decision for a Pauli channel.

    ``zero_capacity`` comes from the analytic criterion p_max <= 1/2,
    ``npt`` from the numeric partial-transpose spectrum (strictly below
    -1e-12 to absorb float noise), and ``phi_upper_bound`` is the
    1 - H2(p_max) capacity bound (zero at and below the boundary).
    """

    zero_capacity: bool
    p_max: float
    phi_upper_bound: float
    npt: bool
    min_pt_eigenvalue: float


def capacity_verdicts(ps) -> tuple[CapacityVerdict, ...]:
    """Decide zero two-way capacity of each channel by both routes, in order.

    The analytic route reads p_max off each distribution; the numeric
    route builds the partially transposed Choi states in one product and
    solves them in one eigensolve. For each channel the two must agree to
    1e-10 (min eigenvalue = 1/2 - p_max) or a NumericError is raised.
    """
    ps = tuple(ps)
    for i, p in enumerate(ps):
        if not isinstance(p, PauliDistribution):
            raise ValidationError(
                f"channel {i} must be a PauliDistribution, not {type(p).__name__}"
            )
    eigs = _eigvalsh(_choi_stack(ps, _PT_BELL_ROWS))
    verdicts = []
    for p, min_eig in zip(ps, eigs[:, 0].tolist()):
        p_max = p.p_max
        if abs(min_eig - (0.5 - p_max)) > ROUTE_AGREEMENT_TOL:
            raise NumericError(
                f"PT spectrum route gives {min_eig!r}, analytic route {0.5 - p_max!r}"
            )
        zero = p_max <= 0.5
        verdicts.append(CapacityVerdict(
            zero_capacity=zero,
            p_max=p_max,
            phi_upper_bound=0.0 if zero else 1.0 - binary_entropy(p_max),
            npt=min_eig < -NPT_TOL,
            min_pt_eigenvalue=min_eig,
        ))
    return tuple(verdicts)


def capacity_verdict(p: PauliDistribution) -> CapacityVerdict:
    """Decide zero two-way capacity of one channel: a batch of one."""
    return capacity_verdicts((p,))[0]
