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
drawn in chunks of _CHUNK_SIZE, and what must be kept is kept as uint8
codes: chunked draws return the same Philox stream as one whole-block
draw.

Each kernel keeps that stream's positions but reads only the draws that
can change its error count. With mutually unbiased bases Eve's outcome
never changes Bob's reading: a right basis guess resends Alice's state,
so Bob reads her bit, and after a wrong guess Bob reads 0 with
probability 1/2 whatever Eve saw. So the intercept-resend kernel reads
the bases, the bit and Bob's uniform, and jumps the Philox counter past
Eve's uniforms (_skip_raw) instead of computing them. Pauli flip weights
are exactly 0 or 1 and do not depend on the bit, so the Pauli kernel
jumps past the bits the same way, counts the trials whose Pauli index
flips, and never draws the uniforms a weight would be compared against:
they come last in the block's stream. Both facts are checked once, when
the tables are built, and the facts about numpy's draws the jumps rest
on are checked once per process (_check_skips). The estimates are
therefore bit-identical to a serial, unchunked run that reads every
draw, while each thread holds about 1 MiB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import NumericError, ValidationError
from .pauli import PAULI_MATRICES, PauliDistribution
from .qber import MUB_COUNTS, QberSet, check_mub_count

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
        if not (_is_int(self.mub_count) and self.mub_count in MUB_COUNTS):
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
    check_mub_count(mub_count)
    return tuple(_MUB_KETS)[: int(mub_count)]


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
    _check_born(born)
    born.flags.writeable = False
    return born


def _check_born(born: np.ndarray) -> None:
    """Refuse a Born table on which Eve's outcome could change Bob's reading.

    The Monte Carlo kernel never reads Eve's outcome, which is exact when
    born[a, :, a, :] is the identity (a right guess measures Alice's bit
    and resends her state, so Bob reads her bit) and born[a, 0, e, m] is
    one threshold for every e != a and both m. Mutually unbiased bases
    give both, with the threshold 1/2.
    """
    n = len(born)
    wrong = [born[a, 0, e, m] for a in range(n) for e in range(n) if e != a for m in (0, 1)]
    right = all((born[a, :, a, :] == np.eye(2)).all() for a in range(n))
    if not (right and min(wrong) == max(wrong)):
        raise NumericError("Eve's outcome changes Bob's reading in this Born table")


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


def _skip_raw(bitgen: np.random.Philox, n: int) -> None:
    """Leave bitgen in the state random_raw(n, output=False) leaves it in,
    without computing the Philox blocks that call would compute.

    Philox holds the 4 outputs of its current counter block in a buffer.
    The rest of that buffer is read out first; advance(q) then moves the
    counter over q whole blocks, and random_raw computes the last block,
    1 to 4 outputs of it, so that the buffer holds what random_raw(n)
    leaves there. advance also clears the buffered 32-bit half that
    integers() keeps and random_raw never touches, so it is put back.
    """
    state = bitgen.state
    head = min(n, 4 - state["buffer_pos"])
    bitgen.random_raw(head, output=False)
    if n == head:
        return
    q, r = divmod(n - head - 1, 4)
    if q:
        bitgen.advance(q)
        now = bitgen.state
        now["has_uint32"], now["uinteger"] = state["has_uint32"], state["uinteger"]
        bitgen.state = now
    bitgen.random_raw(r + 1, output=False)


def _skip_facts() -> list[tuple[dict, dict]]:
    """Pairs of Philox states that the kernels' skips take to be equal.

    integers(0, 2) takes one 32-bit half of a raw output per bit, so 3
    bits move the stream as 2 raw outputs do; the uniforms that follow
    read whole outputs, never the buffered half, so that half is left out
    of the first pair. The second pair is _skip_raw(9) against
    random_raw(9) on a fresh generator: two whole blocks jumped, one
    computed.
    """
    def fresh():
        return np.random.Philox(key=np.array([1, 2], dtype=np.uint64))

    bits, raw = fresh(), fresh()
    np.random.Generator(bits).integers(0, 2, 3)
    raw.random_raw(2)
    skipped, drawn = fresh(), fresh()
    _skip_raw(skipped, 9)
    drawn.random_raw(9)
    half = ("has_uint32", "uinteger")
    return [
        ({k: v for k, v in bits.state.items() if k not in half},
         {k: v for k, v in raw.state.items() if k not in half}),
        (skipped.state, drawn.state),
    ]


def _plain(state):
    """A bit generator state with its arrays as lists, for comparing."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _check_skips(facts: list[tuple[dict, dict]]) -> None:
    """Refuse numpy draws the kernels' skips would not reproduce."""
    if any(_plain(got) != _plain(want) for got, want in facts):
        raise NumericError("skipping Philox draws does not reproduce drawing them")


@cache
def _skips_checked() -> None:
    """_check_skips on this numpy, once per process, on the calling
    thread like _born_tensor; an exception is not cached."""
    _check_skips(_skip_facts())


def _intercept_resend_block(
    seed: int, stream: int, size: int, n: int, bob_threshold: float
) -> int:
    """Errors in one block, counted from the draws of a whole-block kernel.

    The stream order is all of a, b, e, u_eve, then u_bob, as one call per
    array would draw it. Eve's outcome never changes Bob's reading
    (_check_born): a trial errs exactly when e != a and
    (u_bob >= bob_threshold) != b. So the counter jumps past u_eve, one
    raw output per uniform as random() would take, without computing
    them (_skip_raw), and a is kept only until e is drawn.
    """
    rng = _block_rng(seed, stream)
    miss = _draw_codes(rng, n, size)  # a, then e != a
    b = _draw_codes(rng, 2, size)
    for lo in range(0, size, _CHUNK_SIZE):
        seg = miss[lo:lo + _CHUNK_SIZE]
        seg[...] = rng.integers(0, n, size=len(seg)) != seg
    _skip_raw(rng.bit_generator, size)  # u_eve
    u = np.empty(min(size, _CHUNK_SIZE))
    errors = 0
    for lo in range(0, size, _CHUNK_SIZE):
        seg = miss[lo:lo + _CHUNK_SIZE]
        rng.random(out=u[:len(seg)])
        r = u[:len(seg)] >= bob_threshold
        errors += int(np.count_nonzero(seg & (r != b[lo:lo + _CHUNK_SIZE])))
    return errors


def intercept_resend_qber_montecarlo(cfg: AttackConfig) -> tuple[float, float]:
    """Monte Carlo estimate of the intercept-resend QBER.

    Returns (estimate, std_error) with the binomial standard error
    sqrt(E(1 - E) / trials). Bit-identical for identical
    (seed, trials, block_size).
    """
    _check_config(cfg)
    bases = _protocol_bases(cfg.mub_count)
    bob_threshold = _born_tensor(bases)[0, 0, 1, 0]  # any e != a reads the same
    _skips_checked()
    sizes = _block_sizes(cfg.trials, cfg.block_size)
    blocks = [
        partial(_intercept_resend_block, cfg.seed, stream, size, len(bases), bob_threshold)
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
    _check_flips(flip)
    flip.flags.writeable = False
    return flip


def _check_flips(flip: np.ndarray) -> None:
    """Refuse a flip table whose weights are not 0 or 1 or depend on b:
    the Monte Carlo kernel counts flip[basis, k, 0] for each Pauli index k
    and never reads b or the uniform a weight would be compared against."""
    if not (np.isin(flip, (0.0, 1.0)).all() and (flip[..., 0] == flip[..., 1]).all()):
        raise NumericError("the Pauli flip table is not 0 or 1, or depends on the bit")


def _pauli_block(seed: int, stream: int, size: int, cum: np.ndarray, flips: np.ndarray) -> int:
    """Errors in one block of one basis; flips[k] is 1 where Pauli k flips.

    The stream order is all of b, then the uniforms u_k that pick k, then
    the uniforms u compared against the flip weight, as one call per array
    would draw it. A flip weight is 0 or 1 for either bit (_check_flips),
    so a trial errs exactly when flips[k] is 1: the counter jumps past b
    without computing it (_skip_raw), and u, the last draws of the
    stream, is not drawn at all. From a fresh generator integers(0, 2)
    takes one 32-bit half of a raw output per bit, and the uniforms read
    whole outputs, so b spans (size + 1) // 2 raw outputs (_skip_facts).

    For u_k < 1 = cum[3], k = searchsorted(cum, u_k, side="right") is the
    number of j < 3 with u_k >= cum[j], so flips[k] is flips[0] plus the
    steps flips[j + 1] - flips[j] of those j; only nonzero steps are counted.
    """
    steps = [(cum[j], int(flips[j + 1] - flips[j])) for j in range(3) if flips[j + 1] != flips[j]]
    rng = _block_rng(seed, stream)
    _skip_raw(rng.bit_generator, (size + 1) // 2)  # b
    u = np.empty(min(size, _CHUNK_SIZE))
    errors = int(flips[0]) * size
    for lo in range(0, size, _CHUNK_SIZE):
        uk = rng.random(out=u[:min(size - lo, _CHUNK_SIZE)])
        for edge, step in steps:
            errors += step * int(np.count_nonzero(uk >= edge))
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
    _skips_checked()
    cum = np.cumsum(p.as_array())
    cum[-1] = 1.0
    sizes = _block_sizes(cfg.trials, cfg.block_size)
    blocks = [
        partial(_pauli_block, cfg.seed, bi * len(sizes) + block, size, cum, flip[bi, :, 0])
        for bi in range(len(bases))
        for block, size in enumerate(sizes)
    ]
    counts = _run_blocks(blocks, sizes[0])
    rates = [
        sum(counts[bi * len(sizes):(bi + 1) * len(sizes)]) / cfg.trials
        for bi in range(len(bases))
    ]
    return QberSet(*rates)
