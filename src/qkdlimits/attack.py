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
(seed, trials, block_size) and never on scheduling. Inside a block each
array is drawn in chunks of _CHUNK_SIZE, and what must be kept is kept
as uint8 codes: chunked draws return the same Philox stream as one
whole-block draw.

The unit of parallel work is a trial range of a block. A block of more
than one chunk is cut into min(usable CPUs, its chunks) ranges at even
trials. Philox reaches any place in a stream in O(1), so each range
moves its own generator to its segment of each array (_skip_raw) and
draws only that; a block's count is the sum of its ranges' counts. The
intercept-resend kernel maps raw 32-bit halves to codes as numpy does
(_read_codes). For three bases numpy rejects a half of 0 (probability
2^-32) and takes one more, which moves the rest of the block's stream,
so a cut range that meets one flags its block, and the block is drawn
again as one range on the calling thread: one range [0, size) is the
whole-block kernel, and drops each zero half. The Pauli kernel reads
only uniforms, which never reject. Ranges run on the process's one
thread pool (numpy releases the GIL while it draws and compares), built
by the first call that cuts a block and built anew in a forked child. A
call that cuts no block (one usable CPU, or no block larger than a
chunk) runs on the calling thread, since a pool would cost more than the
threads save.

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
they come last in the block's stream. Both facts are checked when the
tables are built, and the facts about numpy's draws that the jumps and
raw reads rest on once per process (_check_skips). The estimates are
therefore bit-identical to a serial, unchunked run that reads every
draw, while each thread holds about 1 MiB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import NumericError, ValidationError, integer
from .pauli import PAULI_MATRICES, PauliDistribution
from .qber import QberSet, check_mub_count

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
        check_mub_count(self.mub_count)
        integer(self.trials, "trials", 1)
        integer(self.seed, "seed", 0, 2**64 - 1)
        integer(self.block_size, "block_size", 1)


def _check_config(cfg) -> None:
    if not isinstance(cfg, AttackConfig):
        raise ValidationError(f"cfg must be an AttackConfig, not {type(cfg).__name__}")


def _projector(ket) -> np.ndarray:
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _protocol_bases(mub_count: int) -> tuple[str, ...]:
    check_mub_count(mub_count)
    return tuple(_MUB_KETS)[:mub_count]


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
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _block_sizes(trials: int, block_size: int):
    full, rem = divmod(trials, block_size)
    sizes = [block_size] * full
    if rem:
        sizes.append(rem)
    return sizes


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a process pinned by taskset sees its own count),
    else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _pool():
    """The process's one thread pool for Monte Carlo ranges, built by the
    first call that cuts a block; a forked child builds its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_usable_cpus(), thread_name_prefix="qkdlimits-mc")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _ranges(size: int, cpus: int) -> list[tuple[int, int]]:
    """The [lo, hi) trial ranges of a block: min(cpus, its chunks) of them,
    cut at even trials, so a block of at most one chunk is one range and
    every range's a and e segments start at a raw output."""
    k = min(cpus, -(-size // _CHUNK_SIZE))
    edges = [2 * (size * i // (2 * k)) for i in range(k)] + [size]
    return list(zip(edges, edges[1:]))


def _run_ranges(blocks, sizes: list[int]) -> list[list]:
    """Each block's range results, in order: block(lo, hi) for each of
    its _ranges.

    Ranges draw from their own generators and share no state, so running
    them on threads changes no result. When no block is cut (one CPU, or
    no block larger than a chunk) every block is one range on the calling
    thread, where a pool would cost more than it saves; otherwise every
    range goes to the process's pool and the calling thread waits.
    """
    cpus = _usable_cpus()
    spans = [_ranges(size, cpus) for size in sizes]
    calls = [partial(block, lo, hi) for block, span in zip(blocks, spans) for lo, hi in span]
    if len(calls) == len(blocks):
        results = iter([call() for call in calls])
    else:
        results = _pool().map(lambda call: call(), calls)
    return [[next(results) for _ in span] for span in spans]


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


class _Halves:
    """A Philox generator read as 32-bit halves, low half first, as
    integers() takes them. at counts the halves read or passed; at an odd
    at, the high half of the last raw output drawn is held."""

    def __init__(self, bitgen: np.random.Philox):
        self.bitgen, self.at, self.held = bitgen, 0, None

    def skip(self, n: int) -> None:
        """Pass n halves: whole raw outputs by _skip_raw, then at an odd
        end one raw output drawn for its high half."""
        to, drawn = self.at + n, (self.at + 1) // 2
        if to > 2 * drawn:
            _skip_raw(self.bitgen, to // 2 - drawn)
            if to % 2:
                self.held = self.bitgen.random_raw(1).view(np.uint32)[1:]
        self.at = to

    def read(self, n: int) -> np.ndarray:
        """The next n halves, as uint32."""
        odd = self.at % 2
        x = self.bitgen.random_raw((n - odd + 1) // 2).view(np.uint32)
        if odd:
            x = np.concatenate((self.held, x))
        self.at += n
        if self.at % 2:
            self.held = x[-1:]
        return x[:n]


def _codes(x: np.ndarray, n: int, out: np.ndarray) -> None:
    """out[...] = (x * n) >> 32 for uint32 halves x, as uint8: numpy's
    Lemire map of a half to a code below n, which steps up at each half
    ceil(j * 2^32 / n), j = 1 .. n - 1."""
    np.greater_equal(x, np.uint32(-(-(1 << 32) // n)), out=out.view(np.bool_))
    for j in range(2, n):
        out += x >= np.uint32(-(-(j << 32) // n))


def _read_codes(halves: _Halves, n: int, out: np.ndarray, drop: bool) -> bool:
    """Fill out with the next codes below n, 2 or 3, chunk by chunk.

    A half of 0 is the one half Lemire's method rejects, for n = 3 only
    (2^32 % 3 is 1), and numpy then takes the next half. With drop set,
    each zero half is dropped as numpy drops it; without, the read
    returns False at the first chunk that holds one.
    """
    for lo in range(0, len(out), _CHUNK_SIZE):
        seg = out[lo:lo + _CHUNK_SIZE]
        x = halves.read(len(seg))
        if n == 3 and not x.all():
            if not drop:
                return False
            x = x[x != 0]
            while len(x) < len(seg):
                more = halves.read(len(seg) - len(x))
                x = np.concatenate((x, more[more != 0]))
        _codes(x, n, seg)
    return True


def _skip_facts() -> list[tuple]:
    """Pairs that the kernels' skips and raw reads take to be equal.

    integers(0, 2) takes one 32-bit half of a raw output per bit, so 3
    bits move the stream as 2 raw outputs do; the uniforms that follow
    read whole outputs, never the buffered half, so that half is left out
    of the first pair. The second pair is _skip_raw(9) against
    random_raw(9) on a fresh generator: two whole blocks jumped, one
    computed. The last two hold integers(0, n) against _read_codes for
    n = 2 and 3, each after a buffered half of 0, which n = 2 reads as
    code 0 and n = 3 drops: the halves' order and their map to codes.
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
    facts = [
        ({k: v for k, v in bits.state.items() if k not in half},
         {k: v for k, v in raw.state.items() if k not in half}),
        (skipped.state, drawn.state),
    ]
    for n in (2, 3):
        held, halves = fresh(), _Halves(fresh())
        held.state = {**held.state, "has_uint32": 1, "uinteger": 0}
        halves.at, halves.held = 1, np.zeros(1, dtype=np.uint32)  # as held holds it
        codes = np.empty(999, dtype=np.uint8)
        _read_codes(halves, n, codes, drop=True)
        facts.append((np.random.Generator(held).integers(0, n, 999), codes))
    return facts


def _plain(state):
    """A bit generator state or an array, its arrays as lists, for comparing."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _check_skips(facts: list[tuple]) -> None:
    """Refuse numpy draws the kernels' skips and raw reads would not reproduce."""
    if any(_plain(got) != _plain(want) for got, want in facts):
        raise NumericError("skipping Philox draws or reading them raw differs from drawing them")


@cache
def _skips_checked() -> None:
    """_check_skips on this numpy, once per process, on the calling
    thread like _born_tensor; an exception is not cached."""
    _check_skips(_skip_facts())


def _intercept_resend_range(
    seed: int, stream: int, size: int, n: int, bob_threshold: float, lo: int, hi: int
) -> int | None:
    """Errors in trials [lo, hi) of one block, or None when the range is
    cut and meets a half that numpy rejects (_read_codes).

    The block's stream order is all of a, b, e, u_eve, then u_bob, as one
    call per array would draw it. Eve's outcome never changes Bob's
    reading (_check_born): a trial errs exactly when e != a and
    (u_bob >= bob_threshold) != b. So the counter jumps past u_eve, one
    raw output per uniform as random() would take, without computing
    them (_skip_raw).

    a, b and e take one 32-bit half per code, so a range passes lo halves
    before its a, size - (hi - lo) between its segments and size - hi
    after its e; the uniforms start at the next whole raw output. A
    single range [0, size) passes none and drops each rejected half.
    """
    rng = _block_rng(seed, stream)
    halves = _Halves(rng.bit_generator)
    count = hi - lo
    a, b, e = np.empty((3, count), dtype=np.uint8)
    for gap, codes, high in ((lo, a, n), (size - count, b, 2), (size - count, e, n)):
        halves.skip(gap)
        if not _read_codes(halves, high, codes, drop=count == size):
            return None
    miss = np.not_equal(a, e, out=a.view(np.bool_))
    halves.skip(size - hi)
    _skip_raw(rng.bit_generator, size + lo)  # u_eve, then u_bob before lo
    u = np.empty(min(count, _CHUNK_SIZE))
    errors = 0
    for at in range(0, count, _CHUNK_SIZE):
        seg = miss[at:at + _CHUNK_SIZE]
        rng.random(out=u[:len(seg)])
        r = u[:len(seg)] >= bob_threshold
        errors += int(np.count_nonzero(seg & (r != b[at:at + _CHUNK_SIZE])))
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
        partial(_intercept_resend_range, cfg.seed, stream, size, len(bases), bob_threshold)
        for stream, size in enumerate(sizes)
    ]
    errors = 0
    for block, size, results in zip(blocks, sizes, _run_ranges(blocks, sizes)):
        if None in results:  # a cut range met a rejected half
            results = [block(0, size)]
        errors += sum(results)
    est = errors / cfg.trials
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


def _pauli_range(
    seed: int, stream: int, size: int, cum: np.ndarray, flips: np.ndarray, lo: int, hi: int
) -> int:
    """Errors in trials [lo, hi) of one block of one basis; flips[k] is 1
    where Pauli k flips.

    The stream order is all of b, then the uniforms u_k that pick k, then
    the uniforms u compared against the flip weight, as one call per array
    would draw it. A flip weight is 0 or 1 for either bit (_check_flips),
    so a trial errs exactly when flips[k] is 1: the counter jumps past b
    and the u_k before lo without computing them (_skip_raw), and u, the
    last draws of the stream, is not drawn at all. From a fresh generator
    integers(0, 2) takes one 32-bit half of a raw output per bit, and the
    uniforms read whole outputs, so b spans (size + 1) // 2 raw outputs
    (_skip_facts). random() never rejects a draw, so every range starts
    where the one before it ended.

    For u_k < 1 = cum[3], k = searchsorted(cum, u_k, side="right") is the
    number of j < 3 with u_k >= cum[j], so flips[k] is flips[0] plus the
    steps flips[j + 1] - flips[j] of those j; only nonzero steps are counted.
    """
    steps = [(cum[j], int(flips[j + 1] - flips[j])) for j in range(3) if flips[j + 1] != flips[j]]
    rng = _block_rng(seed, stream)
    _skip_raw(rng.bit_generator, (size + 1) // 2 + lo)  # b, then u_k before lo
    count = hi - lo
    u = np.empty(min(count, _CHUNK_SIZE))
    errors = int(flips[0]) * count
    for at in range(0, count, _CHUNK_SIZE):
        uk = rng.random(out=u[:min(count - at, _CHUNK_SIZE)])
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
        partial(_pauli_range, cfg.seed, bi * len(sizes) + block, size, cum, flip[bi, :, 0])
        for bi in range(len(bases))
        for block, size in enumerate(sizes)
    ]
    counts = [sum(results) for results in _run_ranges(blocks, sizes * len(bases))]
    rates = [
        sum(counts[bi * len(sizes):(bi + 1) * len(sizes)]) / cfg.trials
        for bi in range(len(bases))
    ]
    return QberSet(*rates)
