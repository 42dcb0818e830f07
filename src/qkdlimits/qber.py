"""QBER thresholds for two- and three-basis prepare-and-measure protocols.

A Pauli channel induces error rates E_X = p2 + p3, E_Z = p1 + p2 and
E_Y = p1 + p3 in the three mutually unbiased bases. A protocol uses m of
them (m in MUB_COUNTS), and security (nonzero two-way capacity) is
possible exactly when its m rates sum to less than (m - 1)/2:
E_X + E_Z < 1/2 or E_X + E_Z + E_Y < 1. Boundaries are insecure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InconsistentQberError, ValidationError
from .pauli import PauliDistribution

CONSISTENCY_TOL = 1e-12
# The protocols' numbers of mutually unbiased bases, and their names.
MUB_COUNTS = (2, 3)
MUB_NAMES = ("two-basis", "three-basis")


@dataclass(frozen=True)
class QberSet:
    """Observed error rates per basis; e_y present iff three bases used."""

    e_x: float
    e_z: float
    e_y: float | None = None

    def __post_init__(self):
        for name in ("e_x", "e_z", "e_y"):
            v = getattr(self, name)
            if v is None:
                continue
            if isinstance(v, bool) or not (
                isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0
            ):
                raise ValidationError(f"{name}={v!r} is not a rate in [0, 1]")

    @property
    def mub_count(self) -> int:
        return 2 if self.e_y is None else 3

    @property
    def qber_sum(self) -> float:
        return self.e_x + self.e_z + (self.e_y or 0.0)


@dataclass(frozen=True)
class SecurityVerdict:
    """Outcome of the threshold inequality for a QBER set.

    ``margin`` is threshold minus observed sum; security is possible iff
    it is strictly positive. ``regime_warning`` flags sets whose
    reconstructed channel does not have the identity as its dominant
    Pauli component (or cannot be reconstructed at all), where the
    threshold inequality is necessary but its converse is unproven.
    """

    secure_possible: bool
    qber_sum: float
    threshold: float
    margin: float
    regime_warning: bool = False


def qbers_from_pauli(p: PauliDistribution) -> QberSet:
    """Per-basis error rates of a Pauli channel (all three bases)."""
    p0, p1, p2, p3 = p.p
    return QberSet(e_x=p2 + p3, e_z=p1 + p2, e_y=p1 + p3)


def pauli_from_qbers_3mub(q: QberSet) -> PauliDistribution:
    """Invert three observed error rates back to the Pauli probabilities.

    With s = (E_X + E_Z + E_Y)/2 the unique solution is
    p = (1 - s, s - E_X, s - E_Y, s - E_Z). Any component below -1e-12
    means no Pauli channel produces these rates.
    """
    if q.mub_count != 3:
        raise ValidationError("three-basis inversion needs e_y")
    s = (q.e_x + q.e_z + q.e_y) / 2.0
    parts = (1.0 - s, s - q.e_x, s - q.e_y, s - q.e_z)
    if min(parts) < -CONSISTENCY_TOL:
        raise InconsistentQberError(
            f"QBER set (e_x={q.e_x}, e_z={q.e_z}, e_y={q.e_y}) implies "
            f"Pauli probabilities {parts}, not a distribution"
        )
    return PauliDistribution([max(x, 0.0) for x in parts])


def pauli_from_qbers_2mub_worstcase(q: QberSet, assumed_p2: float = 0.0) -> PauliDistribution:
    """Reconstruct a Pauli channel from E_X and E_Z alone.

    Two error rates fix the channel only up to the Y weight p2; the
    reconstruction (1 - E_X - E_Z + p2, E_Z - p2, p2, E_X - p2) uses the
    assumed value, whose default 0 is the worst case for security.
    """
    if q.mub_count != 2:
        raise ValidationError("two-basis reconstruction must not carry e_y")
    p2 = float(assumed_p2)
    if not 0.0 <= p2 <= min(q.e_x, q.e_z):
        raise ValidationError(f"assumed_p2={p2!r} outside [0, min(e_x, e_z)]")
    p0 = 1.0 - q.e_x - q.e_z + p2
    if p0 < -CONSISTENCY_TOL:
        raise InconsistentQberError(
            f"e_x + e_z = {q.e_x + q.e_z} exceeds 1 + p2; no Pauli channel fits"
        )
    return PauliDistribution((max(p0, 0.0), q.e_z - p2, p2, q.e_x - p2))


def pauli_from_qbers(q: QberSet, assumed_p2: float = 0.0) -> PauliDistribution:
    """The Pauli channel a QBER set reconstructs to: the three-basis
    inversion, or the two-basis reconstruction at assumed_p2."""
    if q.mub_count == 3:
        return pauli_from_qbers_3mub(q)
    return pauli_from_qbers_2mub_worstcase(q, assumed_p2)


def check_mub_count(mub_count: int) -> None:
    """Raise ValidationError unless mub_count is an int (not a bool) in
    MUB_COUNTS: 2.0 is refused here as by the scenario parser."""
    is_int = isinstance(mub_count, int) and not isinstance(mub_count, bool)
    if not (is_int and mub_count in MUB_COUNTS):
        raise ValidationError(f"mub_count must be 2 or 3, got {mub_count!r}")


def symmetric_threshold(mub_count: int) -> float:
    """Per-basis QBER threshold (m - 1)/(2m) (1/4, 1/3) when all m rates are equal."""
    check_mub_count(mub_count)
    return (mub_count - 1) / (2 * mub_count)


def _regime_warning(q: QberSet, assumed_p2: float) -> bool:
    try:
        rec = pauli_from_qbers(q, assumed_p2)
    except ValidationError:
        return True
    return rec.p[0] < max(rec.p[1:])


def security_verdict(q: QberSet, assumed_p2: float = 0.0) -> SecurityVerdict:
    """Evaluate the security threshold inequality for an observed QBER set.

    Secure iff the m rates sum to less than (m - 1)/2 + assumed_p2; with
    three, assumed_p2 must stay 0 (the third rate already fixes p2).
    Never raises for in-range rates; sets that fall outside the
    identity-dominant regime only get regime_warning.
    """
    if q.e_y is not None and assumed_p2 != 0.0:
        raise ValidationError("assumed_p2 applies only to two-basis sets")
    if not 0.0 <= assumed_p2 <= 0.5:
        raise ValidationError(f"assumed_p2={assumed_p2!r} outside [0, 1/2]")
    threshold = (q.mub_count - 1) / 2 + assumed_p2
    total = q.qber_sum
    margin = threshold - total
    return SecurityVerdict(
        secure_possible=margin > 0.0,
        qber_sum=total,
        threshold=threshold,
        margin=margin,
        regime_warning=_regime_warning(q, assumed_p2),
    )
