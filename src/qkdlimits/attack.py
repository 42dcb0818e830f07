"""Intercept-resend attack QBER, by exact enumeration and by Monte Carlo.

The analytic path enumerates (Alice basis, bit, Eve basis, Eve outcome,
Bob outcome) with Born-rule weights. Projectors are built from
integer-component kets, so every weight is an exact dyadic rational and
the enumeration result carries no rounding error at all (1/4 for two
bases, 1/3 for three). The Born and Pauli-flip tables are built once per
basis set and cached read-only, so a call after the first builds none.

The Monte Carlo path uses numpy's Philox counter-based generator with
explicit 64-bit seeding. Trials are split into fixed-size blocks, each
drawing from its own substream keyed by (seed, stream index); block
counts are merged by summation, so the estimate depends only on
(seed, trials, block_size) and never on scheduling. Blocks run
concurrently on up to os.cpu_count() threads (numpy releases the GIL
while it draws and compares), unless no block holds more than one chunk:
such a small call runs on the calling thread, since starting a pool
would cost more than the threads save. Inside a block each array is
drawn in chunks of _CHUNK_SIZE, and the sampled bases, bits and outcomes
are kept as uint8 codes into flat Born tables: chunked draws return the same
Philox stream as one whole-block draw, so the estimates are bit-identical
to a serial, unchunked run while each thread holds about 1 MiB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ValidationError
from .pauli import PAULI_MATRICES, PauliDistribution
from .qber import QberSet

DEFAULT_BLOCK_SIZE = 1 << 18
# Draws per numpy call inside a block: small enough that a chunk's
# float64 temporaries stay in cache, large enough to amortize the calls.
_CHUNK_SIZE = 1 << 15

# Unnormalized eigenstate kets of the three mutually unbiased bases.
# Integer components keep every projector entry an exact dyadic rational.
_MUB_KETS = {
    "X": ((1, 1), (1, -1)),
    "Z": ((1, 0), (0, 1)),
    "Y": ((1, 1j), (1, -1j)),
}


@dataclass(frozen=True)
class AttackConfig:
    """Protocol and sampling parameters for the Monte Carlo estimators."""

    mub_count: int
    trials: int
    seed: int
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if not (_is_int(self.mub_count) and self.mub_count in (2, 3)):
            raise ValidationError(f"mub_count must be 2 or 3, got {self.mub_count!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValidationError(f"trials={self.trials!r} must be an integer >= 1")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed={self.seed!r} must fit in 64 bits")
        if not (_is_int(self.block_size) and self.block_size >= 1):
            raise ValidationError(f"block_size={self.block_size!r} must be >= 1")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_config(cfg) -> None:
    if not isinstance(cfg, AttackConfig):
        raise ValidationError(f"cfg must be an AttackConfig, not {type(cfg).__name__}")


def _projector(ket) -> np.ndarray:
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _protocol_bases(mub_count: int) -> tuple[str, ...]:
    if mub_count == 2:
        return ("X", "Z")
    if mub_count == 3:
        return ("X", "Z", "Y")
    raise ValidationError(f"mub_count must be 2 or 3, got {mub_count!r}")


@cache
def _born_tensor(bases: tuple[str, ...]) -> np.ndarray:
    """B[a, b, e, m] = tr(proj[e][m] proj[a][b]), all entries exact dyadics;
    built once per basis tuple and read-only, since every caller shares it."""
    n = len(bases)
    projs = [[_projector(k) for k in _MUB_KETS[name]] for name in bases]
    born = np.zeros((n, 2, n, 2))
    for a in range(n):
        for b in range(2):
            for e in range(n):
                for m in range(2):
                    born[a, b, e, m] = np.trace(projs[e][m] @ projs[a][b]).real
    born.flags.writeable = False
    return born


def _enumerate_intercept_resend(bases: tuple[str, ...], eve_matches_alice: bool) -> float:
    born = _born_tensor(bases)
    n = len(bases)
    numerator = 0.0
    count = 0
    for a in range(n):
        for b in range(2):
            eve_choices = (a,) if eve_matches_alice else range(n)
            for e in eve_choices:
                count += 1
                for m in range(2):
                    # Eve sees m, resends; Bob (matching Alice) errs with
                    # the Born weight of the flipped bit.
                    numerator += born[a, b, e, m] * born[a, 1 - b, e, m]
    return float(numerator) / count


def intercept_resend_qber_analytic(mub_count: int, eve_matches_alice: bool = False) -> float:
    """Exact average QBER of an intercept-resend attack.

    Eve measures each qubit in a random protocol basis and resends the
    outcome eigenstate; only Bob's matching-basis rounds are kept. The
    diagnostic mode pins Eve to Alice's basis, which yields zero error.
    """
    return _enumerate_intercept_resend(_protocol_bases(mub_count), eve_matches_alice)


def _block_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    )


def _block_sizes(trials: int, block_size: int):
    full, rem = divmod(trials, block_size)
    sizes = [block_size] * full
    if rem:
        sizes.append(rem)
    return sizes


def _run_blocks(blocks, largest: int) -> list[int]:
    """Call each block (a callable returning its error count); counts in order.

    Blocks draw from their own substreams and hold no shared state, so
    running them on threads changes nothing in the counts. A single
    block, a single core, or blocks of at most one chunk each (largest
    is the most trials any block holds) run on the calling thread: below
    that size starting a pool costs more than the threads save.
    """
    workers = min(len(blocks), os.cpu_count() or 1)
    if workers == 1 or largest <= _CHUNK_SIZE:
        return [block() for block in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda block: block(), blocks))


def _draw_codes(rng: np.random.Generator, high: int, size: int) -> np.ndarray:
    """rng.integers(0, high, size) as uint8, drawn chunk by chunk."""
    codes = np.empty(size, dtype=np.uint8)
    for lo in range(0, size, _CHUNK_SIZE):
        seg = codes[lo:lo + _CHUNK_SIZE]
        seg[...] = rng.integers(0, high, size=len(seg))
    return codes


def _intercept_resend_block(
    seed: int, stream: int, size: int, n: int, eve_p0: np.ndarray, bob_p0: np.ndarray
) -> int:
    """Errors in one block: the draws of a whole-block kernel, in chunks.

    eve_p0[(a*n + e)*2 + b] = born[a, b, e, 0] and
    bob_p0[(a*n + e)*2 + m] = born[a, 0, e, m]. The stream order is all of
    a, b, e, u_eve, then u_bob, as one call per array would draw it.
    """
    rng = _block_rng(seed, stream)
    key = _draw_codes(rng, n, size)  # a, then (a*n + e)*2, then + m
    b = _draw_codes(rng, 2, size)
    for lo in range(0, size, _CHUNK_SIZE):
        seg = key[lo:lo + _CHUNK_SIZE]
        seg[...] = (seg * n + rng.integers(0, n, size=len(seg))) * 2
    u = np.empty(min(size, _CHUNK_SIZE))
    for lo in range(0, size, _CHUNK_SIZE):
        seg = key[lo:lo + _CHUNK_SIZE]
        rng.random(out=u[:len(seg)])
        seg += u[:len(seg)] >= eve_p0[seg + b[lo:lo + _CHUNK_SIZE]]
    errors = 0
    for lo in range(0, size, _CHUNK_SIZE):
        seg = key[lo:lo + _CHUNK_SIZE]
        rng.random(out=u[:len(seg)])
        r = u[:len(seg)] >= bob_p0[seg]
        errors += int(np.count_nonzero(r != b[lo:lo + _CHUNK_SIZE]))
    return errors


def intercept_resend_qber_montecarlo(cfg: AttackConfig) -> tuple[float, float]:
    """Monte Carlo estimate of the intercept-resend QBER.

    Returns (estimate, std_error) with the binomial standard error
    sqrt(E(1 - E) / trials). Bit-identical for identical
    (seed, trials, block_size).
    """
    _check_config(cfg)
    bases = _protocol_bases(cfg.mub_count)
    n = len(bases)
    born = _born_tensor(bases)
    eve_p0 = born[:, :, :, 0].transpose(0, 2, 1).ravel()
    bob_p0 = born[:, 0, :, :].ravel()
    sizes = _block_sizes(cfg.trials, cfg.block_size)
    blocks = [
        partial(_intercept_resend_block, cfg.seed, stream, size, n, eve_p0, bob_p0)
        for stream, size in enumerate(sizes)
    ]
    est = sum(_run_blocks(blocks, sizes[0])) / cfg.trials
    return est, math.sqrt(est * (1.0 - est) / cfg.trials)


@cache
def _flip_probabilities(bases: tuple[str, ...]) -> np.ndarray:
    """flip[basis, k, b] = Born weight of reading 1-b after Pauli k hits
    the b eigenstate; exactly 0 or 1 for Pauli operators. Built once per
    basis tuple and read-only, like _born_tensor."""
    flip = np.zeros((len(bases), 4, 2))
    for bi, name in enumerate(bases):
        projs = [_projector(k) for k in _MUB_KETS[name]]
        for k, sigma in enumerate(PAULI_MATRICES):
            for b in (0, 1):
                evolved = sigma @ projs[b] @ sigma.conj().T
                flip[bi, k, b] = np.trace(projs[1 - b] @ evolved).real
    flip.flags.writeable = False
    return flip


def _pauli_block(seed: int, stream: int, size: int, cum: np.ndarray, flip: np.ndarray) -> int:
    """Errors in one block of one basis; flip[k*2 + b] is the flip weight.

    The stream order is all of b, then the uniforms that pick k, then u.
    """
    rng = _block_rng(seed, stream)
    key = _draw_codes(rng, 2, size)  # b, then k*2 + b
    u = np.empty(min(size, _CHUNK_SIZE))
    for lo in range(0, size, _CHUNK_SIZE):
        seg = key[lo:lo + _CHUNK_SIZE]
        k = np.searchsorted(cum, rng.random(out=u[:len(seg)]), side="right")
        seg[...] = seg + 2 * k
    errors = 0
    for lo in range(0, size, _CHUNK_SIZE):
        seg = key[lo:lo + _CHUNK_SIZE]
        rng.random(out=u[:len(seg)])
        errors += int(np.count_nonzero(u[:len(seg)] < flip[seg]))
    return errors


def pauli_channel_qber_montecarlo(
    p: PauliDistribution, mub_count: int, cfg: AttackConfig
) -> QberSet:
    """Estimate the per-basis QBERs of a Pauli channel by sampling.

    Each basis gets cfg.trials rounds: prepare a random eigenstate,
    sample the Pauli index from p, apply it, measure in the same basis.
    cfg contributes trials, seed and block_size; mub_count must equal
    cfg.mub_count. Estimates converge to (E_X, E_Z, E_Y) =
    (p2 + p3, p1 + p2, p1 + p3).
    """
    if not isinstance(p, PauliDistribution):
        raise ValidationError(f"p must be a PauliDistribution, not {type(p).__name__}")
    _check_config(cfg)
    if mub_count != cfg.mub_count:
        raise ValidationError(
            f"mub_count={mub_count!r} differs from cfg.mub_count={cfg.mub_count!r}"
        )
    bases = _protocol_bases(mub_count)
    flip = _flip_probabilities(bases)
    cum = np.cumsum(p.as_array())
    cum[-1] = 1.0
    sizes = _block_sizes(cfg.trials, cfg.block_size)
    blocks = [
        partial(_pauli_block, cfg.seed, bi * len(sizes) + block, size, cum, flip[bi].ravel())
        for bi in range(len(bases))
        for block, size in enumerate(sizes)
    ]
    counts = _run_blocks(blocks, sizes[0])
    rates = [
        sum(counts[bi * len(sizes):(bi + 1) * len(sizes)]) / cfg.trials
        for bi in range(len(bases))
    ]
    if mub_count == 2:
        return QberSet(e_x=rates[0], e_z=rates[1])
    return QberSet(e_x=rates[0], e_z=rates[1], e_y=rates[2])
