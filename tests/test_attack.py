"""Intercept-resend statistics, analytic and sampled."""

import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qkdlimits import (
    AttackConfig,
    NumericError,
    PauliDistribution,
    ValidationError,
    intercept_resend_qber_analytic,
    intercept_resend_qber_montecarlo,
    pauli_channel_qber_montecarlo,
    qbers_from_pauli,
)
from qkdlimits import attack
from qkdlimits.attack import (
    _CHUNK_SIZE,
    DEFAULT_BLOCK_SIZE,
    _block_rng,
    _block_sizes,
    _born_tensor,
    _enumerate_intercept_resend,
    _flip_probabilities,
    _protocol_bases,
)
from qkdlimits.qber import QberSet

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_analytic_values_are_exact():
    assert intercept_resend_qber_analytic(2) == 0.25
    assert intercept_resend_qber_analytic(3) == 1.0 / 3.0
    assert type(intercept_resend_qber_analytic(2)) is float


def test_correct_basis_guess_leaves_no_trace():
    assert intercept_resend_qber_analytic(2, eve_matches_alice=True) == 0.0
    assert intercept_resend_qber_analytic(3, eve_matches_alice=True) == 0.0


def test_enumeration_is_basis_permutation_invariant():
    assert _enumerate_intercept_resend(("Z", "X"), False) == _enumerate_intercept_resend(
        ("X", "Z"), False
    )
    assert _enumerate_intercept_resend(("Y", "Z", "X"), False) == 1.0 / 3.0
    assert _enumerate_intercept_resend(("X", "Y"), False) == 0.25


def test_mub_count_domain():
    with pytest.raises(ValidationError):
        intercept_resend_qber_analytic(4)


class TestMonteCarlo:
    def test_frozen_regression_values(self):
        est2, se2 = intercept_resend_qber_montecarlo(
            AttackConfig(mub_count=2, trials=10**5, seed=12345)
        )
        assert est2 == 0.25217
        assert math.isclose(se2, math.sqrt(est2 * (1 - est2) / 10**5), rel_tol=1e-12)
        est3, _ = intercept_resend_qber_montecarlo(
            AttackConfig(mub_count=3, trials=10**5, seed=12345)
        )
        assert est3 == 0.33568

    def test_estimate_sits_near_the_analytic_value(self):
        for mub, truth in ((2, 0.25), (3, 1.0 / 3.0)):
            cfg = AttackConfig(mub_count=mub, trials=10**6, seed=20240811)
            est, _ = intercept_resend_qber_montecarlo(cfg)
            se = math.sqrt(truth * (1 - truth) / cfg.trials)
            assert abs(est - truth) < 5 * se

    def test_same_seed_same_answer(self):
        cfg = AttackConfig(mub_count=2, trials=50000, seed=99)
        assert intercept_resend_qber_montecarlo(cfg) == intercept_resend_qber_montecarlo(cfg)

    def test_different_seeds_differ(self):
        a = intercept_resend_qber_montecarlo(AttackConfig(mub_count=2, trials=50000, seed=0))
        b = intercept_resend_qber_montecarlo(AttackConfig(mub_count=2, trials=50000, seed=1))
        assert a != b

    def test_result_depends_only_on_seed_trials_and_block_size(self):
        # Trials that do not divide evenly into blocks leave a remainder
        # block; the estimate must still be reproducible.
        cfg = AttackConfig(mub_count=2, trials=10000, seed=4, block_size=4096)
        est, se = intercept_resend_qber_montecarlo(cfg)
        again, _ = intercept_resend_qber_montecarlo(
            AttackConfig(mub_count=2, trials=10000, seed=4, block_size=4096)
        )
        assert est == again
        assert abs(est - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 10000)

    def test_convergence_improves_with_trials(self):
        truth = 0.25
        for trials in (10**3, 10**4, 10**5):
            se = math.sqrt(truth * (1 - truth) / trials)
            hits = 0
            for seed in range(20):
                est, _ = intercept_resend_qber_montecarlo(
                    AttackConfig(mub_count=2, trials=trials, seed=seed)
                )
                if abs(est - truth) < 5 * se:
                    hits += 1
            assert hits >= 19


class TestPauliChannelSampling:
    def test_identity_channel_has_no_errors(self):
        q = pauli_channel_qber_montecarlo(
            PauliDistribution((1.0, 0.0, 0.0, 0.0)),
            3,
            AttackConfig(mub_count=3, trials=20000, seed=1),
        )
        assert (q.e_x, q.e_z, q.e_y) == (0.0, 0.0, 0.0)

    def test_rates_match_the_channel_within_sampling_error(self):
        p = PauliDistribution((0.7, 0.1, 0.1, 0.1))
        trials = 200000
        sampled = pauli_channel_qber_montecarlo(
            p, 3, AttackConfig(mub_count=3, trials=trials, seed=42)
        )
        exact = qbers_from_pauli(p)
        for got, want in (
            (sampled.e_x, exact.e_x),
            (sampled.e_z, exact.e_z),
            (sampled.e_y, exact.e_y),
        ):
            se = math.sqrt(want * (1 - want) / trials)
            assert abs(got - want) < 5 * se

    def test_bit_phase_flip_channel(self):
        p = PauliDistribution((0.7, 0.2, 0.0, 0.1))
        trials = 200000
        sampled = pauli_channel_qber_montecarlo(
            p, 3, AttackConfig(mub_count=3, trials=trials, seed=777)
        )
        exact = qbers_from_pauli(p)
        assert abs(sampled.e_y - exact.e_y) < 5 * math.sqrt(exact.e_y * (1 - exact.e_y) / trials)

    def test_two_basis_protocol_reports_no_y_rate(self):
        q = pauli_channel_qber_montecarlo(
            PauliDistribution((0.7, 0.1, 0.1, 0.1)),
            2,
            AttackConfig(mub_count=2, trials=20000, seed=3),
        )
        assert q.e_y is None
        assert q.mub_count == 2

    def test_deterministic(self):
        p = PauliDistribution((0.6, 0.2, 0.1, 0.1))
        cfg = AttackConfig(mub_count=3, trials=30000, seed=8)
        assert pauli_channel_qber_montecarlo(p, 3, cfg) == pauli_channel_qber_montecarlo(
            p, 3, cfg
        )


def test_attack_config_validation():
    seeds = f"must be an integer in [0, {2**64 - 1}]"
    for fields, message, field in (
        (dict(mub_count=4, trials=100, seed=0), "mub_count must be 2 or 3", "mub_count"),
        (dict(mub_count=2.0, trials=100, seed=0), "mub_count must be 2 or 3, got 2.0", "mub_count"),
        (dict(mub_count=True, trials=100, seed=0), "mub_count must be 2 or 3", "mub_count"),
        (dict(mub_count=2, trials=0, seed=0), "trials=0 must be an integer >= 1", "trials"),
        (dict(mub_count=2, trials=100.5, seed=0), "trials=100.5 must be an integer", "trials"),
        (dict(mub_count=2, trials=True, seed=0), "trials=True must be an integer >= 1", "trials"),
        (dict(mub_count=2, trials=100, seed=-1), f"seed=-1 {seeds}", "seed"),
        (dict(mub_count=2, trials=100, seed=2**64), f"seed={2**64} {seeds}", "seed"),
        (dict(mub_count=2, trials=100, seed=True), f"seed=True {seeds}", "seed"),
        (
            dict(mub_count=2, trials=100, seed=0, block_size=0),
            "block_size=0 must be an integer >= 1",
            "block_size",
        ),
        (
            dict(mub_count=2, trials=100, seed=0, block_size=True),
            "block_size=True must be an integer >= 1",
            "block_size",
        ),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)) as exc:
            AttackConfig(**fields)
        assert exc.value.field == field


class TestEstimatorArguments:
    def test_pauli_mub_count_must_match_the_config(self):
        p = PauliDistribution((0.7, 0.1, 0.1, 0.1))
        with pytest.raises(ValidationError, match="mub_count=3 differs from cfg.mub_count=2"):
            pauli_channel_qber_montecarlo(p, 3, AttackConfig(mub_count=2, trials=100, seed=0))
        with pytest.raises(ValidationError, match="differs"):
            pauli_channel_qber_montecarlo(p, 2, AttackConfig(mub_count=3, trials=100, seed=0))

    def test_pauli_argument_types(self):
        cfg = AttackConfig(mub_count=2, trials=100, seed=0)
        with pytest.raises(ValidationError, match="p must be a PauliDistribution, not tuple"):
            pauli_channel_qber_montecarlo((0.7, 0.1, 0.1, 0.1), 2, cfg)
        with pytest.raises(ValidationError, match="cfg must be an AttackConfig, not dict"):
            pauli_channel_qber_montecarlo(
                PauliDistribution((0.7, 0.1, 0.1, 0.1)), 2, dict(mub_count=2, trials=100, seed=0)
            )

    def test_intercept_resend_config_type(self):
        with pytest.raises(ValidationError, match="cfg must be an AttackConfig, not int"):
            intercept_resend_qber_montecarlo(2)


class TestTables:
    """The Born and flip tables are built once per basis set and shared."""

    def test_a_second_call_builds_no_table(self, monkeypatch):
        projector, built = attack._projector, []

        def counted(ket):
            built.append(ket)
            return projector(ket)

        monkeypatch.setattr(attack, "_projector", counted)
        attack._born_tensor.cache_clear()
        attack._flip_probabilities.cache_clear()
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        for mub in (2, 3):
            cfg = AttackConfig(mub, 1000, 7)
            calls = (
                lambda: intercept_resend_qber_analytic(mub),
                lambda: intercept_resend_qber_montecarlo(cfg),
                lambda: pauli_channel_qber_montecarlo(p, mub, cfg),
            )
            first_builds = []
            for call in calls:
                built.clear()
                first = call()
                first_builds.append(len(built))
                built.clear()
                assert call() == first
                assert built == []
            # Two projectors per basis for each table; the Monte Carlo
            # call reuses the Born table the analytic call built.
            assert first_builds == [2 * mub, 0, 2 * mub]

    def test_the_cached_tables_are_read_only(self):
        for bases in (("X", "Z"), ("X", "Z", "Y")):
            for build in (_born_tensor, _flip_probabilities):
                table = build(bases)
                assert build(bases) is table
                with pytest.raises(ValueError, match="read-only"):
                    table.flat[0] = 0.5

    # The Monte Carlo kernels read neither Eve's outcome nor the Pauli
    # kernel's bit and last uniform; these facts of the tables are why.

    @pytest.mark.parametrize("mub", [2, 3])
    def test_eves_outcome_never_changes_bobs_reading(self, mub):
        born = _born_tensor(_protocol_bases(mub))
        for a in range(mub):
            for e in range(mub):
                eve_p0 = born[a, :, e, 0].tolist()  # P(Eve reads 0 | b)
                bob_p0 = born[a, 0, e, :].tolist()  # P(Bob reads 0 | Eve read m)
                if set(eve_p0) <= {0.0, 1.0}:
                    # Decided: Eve reads Alice's bit and Bob reads it after her.
                    assert e == a and eve_p0 == bob_p0 == [1.0, 0.0]
                else:
                    assert e != a and bob_p0 == [0.5, 0.5]

    @pytest.mark.parametrize("mub", [2, 3])
    def test_pauli_flips_are_certain_and_independent_of_the_bit(self, mub):
        flip = _flip_probabilities(_protocol_bases(mub))
        assert set(flip.ravel().tolist()) == {0.0, 1.0}
        assert (flip[..., 0] == flip[..., 1]).all()
        # X errs under Y and Z, Z under X and Y, Y under X and Z.
        want = [[0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]][:mub]
        assert flip[..., 0].tolist() == want

    def test_the_build_checks_refuse_a_doctored_table(self):
        born = _born_tensor(("X", "Z", "Y"))
        attack._check_born(born)
        for index, value in (((0, 0, 1, 0), 0.25), ((0, 0, 0, 0), 0.5), ((2, 1, 2, 1), 0.5)):
            doctored = born.copy()
            doctored[index] = value
            with pytest.raises(NumericError, match="Eve's outcome changes Bob's reading"):
                attack._check_born(doctored)
        flip = _flip_probabilities(("X", "Z", "Y"))
        attack._check_flips(flip)
        for index, value in (((0, 2, 0), 0.5), ((1, 1, 1), 0.0)):
            doctored = flip.copy()
            doctored[index] = value
            with pytest.raises(NumericError, match="flip table"):
                attack._check_flips(doctored)

    def test_a_basis_that_is_not_unbiased_builds_no_table(self, monkeypatch):
        # A real basis at an angle: its overlaps with X and Z are not 1/2.
        monkeypatch.setitem(attack._MUB_KETS, "Y", ((2, 1), (1, -2)))
        attack._born_tensor.cache_clear()
        attack._flip_probabilities.cache_clear()
        try:
            with pytest.raises(NumericError, match="Eve's outcome"):
                _born_tensor(("X", "Z", "Y"))
            with pytest.raises(NumericError, match="flip table"):
                _flip_probabilities(("X", "Z", "Y"))
        finally:
            attack._born_tensor.cache_clear()
            attack._flip_probabilities.cache_clear()


def philox_state(bg):
    """A Philox state with its arrays as lists, so states compare with ==."""
    state = bg.state
    return {
        **state,
        "state": {k: v.tolist() for k, v in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


def counter(state) -> int:
    """The 256-bit Philox counter of a philox_state."""
    return sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))


class TestSkipRaw:
    """_skip_raw leaves a Philox generator in the whole state that
    random_raw(n, output=False) leaves it in, without computing the
    blocks it skips."""

    KEY = np.array([2**64 - 1, 12345], dtype=np.uint64)
    SIZES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 2**15 - 1, 2**15, 2**15 + 1, 10**5, 2**18 + 1)

    @classmethod
    def start(cls, pos, draws):
        """A generator after `draws` integers(0, 3) draws (has_uint32 is
        draws % 2; 2 draws leave a spent half in uinteger), moved on to
        buffer_pos pos; pos 0 replays the buffer a block left, through
        the state."""
        bg = np.random.Philox(key=cls.KEY)
        np.random.Generator(bg).integers(0, 3, draws)
        if draws == 0:
            bg.random_raw(4)  # a block in the buffer
        bg.random_raw(((pos or 4) - bg.state["buffer_pos"]) % 4)
        if pos == 0:
            state = bg.state
            state["buffer_pos"] = 0
            bg.state = state
        state = bg.state
        assert (state["buffer_pos"], state["has_uint32"]) == (pos, draws % 2)
        return bg

    @pytest.mark.parametrize("draws", [0, 1, 2, 3])
    @pytest.mark.parametrize("pos", [0, 1, 2, 3, 4])
    def test_the_state_equals_that_of_drawing(self, pos, draws):
        for n in self.SIZES:
            skipped, drawn = self.start(pos, draws), self.start(pos, draws)
            attack._skip_raw(skipped, n)
            drawn.random_raw(n, output=False)
            assert philox_state(skipped) == philox_state(drawn), n

    @pytest.mark.parametrize("pos", [0, 1, 2, 3, 4])
    def test_a_skip_of_two_to_the_forty_moves_the_counter_only(self, pos):
        # Drawing 2**40 outputs would take hours; the state follows from
        # counter arithmetic: the buffered outputs first, then one counter
        # step per block of 4, the last block held in the buffer.
        n = 2**40
        bg = self.start(pos, 3)
        before = philox_state(bg)
        attack._skip_raw(bg, n)
        after = philox_state(bg)
        rest = n - (4 - pos)
        assert counter(after) == counter(before) + -(-rest // 4)
        assert after["buffer_pos"] == (rest - 1) % 4 + 1
        assert after["state"]["key"] == before["state"]["key"]
        for half in ("has_uint32", "uinteger"):
            assert after[half] == before[half]
        last = np.random.Philox(key=self.KEY, counter=counter(after) - 1)
        last.random_raw(4)
        assert after["buffer"] == last.state["buffer"].tolist()

    def test_the_one_time_check_refuses_a_doctored_fact(self):
        facts = attack._skip_facts()
        attack._check_skips(facts)
        for i, field in ((0, "buffer_pos"), (1, "has_uint32"), (1, "uinteger")):
            doctored = [(dict(got), dict(want)) for got, want in facts[:2]] + facts[2:]
            doctored[i][0][field] += 1
            with pytest.raises(NumericError, match="skipping Philox draws"):
                attack._check_skips(doctored)
        doctored = [(dict(got), dict(want)) for got, want in facts[:2]] + facts[2:]
        doctored[1][0]["state"] = {**facts[1][0]["state"], "counter": np.zeros(4, np.uint64)}
        with pytest.raises(NumericError, match="skipping Philox draws"):
            attack._check_skips(doctored)

    def test_the_one_time_check_refuses_a_doctored_code_fact(self):
        # The last two facts pair numpy's integers(0, n) for n = 2 and 3,
        # after a buffered half of 0, with the codes read from raw halves.
        facts = attack._skip_facts()
        for i, n in ((2, 2), (3, 3)):
            drawn, read = facts[i]
            assert len(drawn) == len(read) == 999 and set(read.tolist()) == set(range(n))
            for at in (0, 998):
                codes = read.copy()
                codes[at] = (codes[at] + 1) % n
                doctored = facts[:i] + [(drawn, codes)] + facts[i + 1:]
                with pytest.raises(NumericError, match="reading them raw"):
                    attack._check_skips(doctored)

    def test_an_estimate_refuses_a_numpy_whose_skips_differ(self, monkeypatch):
        facts = attack._skip_facts()
        doctored = [facts[0], ({**facts[1][0], "buffer_pos": 3}, facts[1][1])]
        monkeypatch.setattr(attack, "_skip_facts", lambda: doctored)
        attack._skips_checked.cache_clear()
        try:
            p = PauliDistribution((1.0, 0.0, 0.0, 0.0))
            with pytest.raises(NumericError, match="skipping Philox draws"):
                intercept_resend_qber_montecarlo(AttackConfig(2, 10, 0))
            with pytest.raises(NumericError, match="skipping Philox draws"):
                pauli_channel_qber_montecarlo(p, 2, AttackConfig(2, 10, 0))
        finally:
            attack._skips_checked.cache_clear()

    def test_the_check_runs_once_on_the_calling_thread(self, monkeypatch):
        facts, threads = attack._skip_facts, []

        def counted():
            threads.append(threading.get_ident())
            return facts()

        monkeypatch.setattr(attack, "_skip_facts", counted)
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        attack._skips_checked.cache_clear()
        try:
            cfg = AttackConfig(3, 2 * (_CHUNK_SIZE + 1), 5, block_size=_CHUNK_SIZE + 1)
            p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
            intercept_resend_qber_montecarlo(cfg)
            pauli_channel_qber_montecarlo(p, 3, cfg)
            assert threads == [threading.get_ident()]
        finally:
            attack._skips_checked.cache_clear()


# The whole-block kernels the chunked, threaded estimators replaced: one
# numpy call per array and block, int64/float64 arrays, 4-D Born lookup.
# They draw the same Philox streams, so every estimate must match exactly.


def whole_block_intercept_resend(cfg):
    bases = _protocol_bases(cfg.mub_count)
    n = len(bases)
    born = _born_tensor(bases)
    errors = 0
    for stream, size in enumerate(_block_sizes(cfg.trials, cfg.block_size)):
        rng = _block_rng(cfg.seed, stream)
        a = rng.integers(0, n, size=size)
        b = rng.integers(0, 2, size=size)
        e = rng.integers(0, n, size=size)
        u_eve = rng.random(size)
        u_bob = rng.random(size)
        m = (u_eve >= born[a, b, e, 0]).astype(np.intp)
        r = (u_bob >= born[a, 0, e, m]).astype(np.intp)
        errors += int(np.count_nonzero(r != b))
    est = errors / cfg.trials
    return est, math.sqrt(est * (1.0 - est) / cfg.trials)


def whole_block_pauli(p, mub_count, cfg):
    bases = _protocol_bases(mub_count)
    flip = _flip_probabilities(bases)
    cum = np.cumsum(p.as_array())
    cum[-1] = 1.0
    sizes = _block_sizes(cfg.trials, cfg.block_size)
    rates = []
    for bi in range(len(bases)):
        errors = 0
        for block, size in enumerate(sizes):
            rng = _block_rng(cfg.seed, bi * len(sizes) + block)
            b = rng.integers(0, 2, size=size)
            k = np.searchsorted(cum, rng.random(size), side="right")
            u = rng.random(size)
            errors += int(np.count_nonzero(u < flip[bi, k, b]))
        rates.append(errors / cfg.trials)
    if mub_count == 2:
        return QberSet(e_x=rates[0], e_z=rates[1])
    return QberSet(e_x=rates[0], e_z=rates[1], e_y=rates[2])


SEEDS = [0, 1, 2, 7, 42, 99, 777, 12345, 20240811, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
SEEDS += [(0x9E3779B97F4A7C15 * i) % 2**64 for i in range(1, 8)]
CHANNELS = [
    (0.7, 0.1, 0.1, 0.1),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.5, 0.0, 0.5, 0.0),
    (0.6, 0.2, 0.0, 0.2),
    (0.25, 0.25, 0.25, 0.25),
]
BLOCK_SIZES = [DEFAULT_BLOCK_SIZE, 1, 3, 32767, 40000]
TRIALS = [1, 7, _CHUNK_SIZE - 1, _CHUNK_SIZE + 1, 10**5, 262145, 10**6]
# Every (trials, block_size) pair of at most 64 blocks; a million
# one-trial substreams would test nothing the small counts do not.
GRID = [(t, bs) for t in TRIALS for bs in BLOCK_SIZES if -(-t // bs) <= 64]


def seeds_for(trials, block_size):
    """Every seed for a few trials; fewer, rotating through SEEDS, for more."""
    if trials < 10:
        return SEEDS
    count = 4 if trials < 10**5 else 2 if trials < 10**6 else 1
    start = (TRIALS.index(trials) * len(BLOCK_SIZES) + BLOCK_SIZES.index(block_size)) * 4
    return [SEEDS[(start + i) % len(SEEDS)] for i in range(count)]


def test_the_grid_covers_every_seed_and_the_chunk_edges():
    used = {s for t, bs in GRID for s in seeds_for(t, bs)}
    assert used == set(SEEDS) and len(SEEDS) >= 20
    assert {t for t, _ in GRID} == set(TRIALS)
    assert {bs for _, bs in GRID} == set(BLOCK_SIZES)


class TestChunkedKernelsMatchTheWholeBlockKernels:
    @pytest.mark.parametrize("trials, block_size", GRID)
    def test_intercept_resend(self, trials, block_size):
        for mub in (2, 3):
            for seed in seeds_for(trials, block_size):
                cfg = AttackConfig(mub, trials, seed, block_size)
                assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)

    @pytest.mark.parametrize("trials, block_size", GRID)
    def test_pauli_channel(self, trials, block_size):
        for mub in (2, 3):
            for i, seed in enumerate(seeds_for(trials, block_size)):
                p = PauliDistribution(CHANNELS[(i + mub) % len(CHANNELS)])
                cfg = AttackConfig(mub, trials, seed, block_size)
                got = pauli_channel_qber_montecarlo(p, mub, cfg)
                assert got == whole_block_pauli(p, mub, cfg)

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_the_core_count_does_not_change_the_result(self, monkeypatch, cpus):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: cpus)
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        for mub in (2, 3):
            for cfg in (
                AttackConfig(mub, 10**6, 31),
                AttackConfig(mub, 10**5, 32, block_size=7919),
            ):
                assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
                assert pauli_channel_qber_montecarlo(p, mub, cfg) == whole_block_pauli(p, mub, cfg)


PIN_TRIALS = [
    1, 7, _CHUNK_SIZE - 1, _CHUNK_SIZE, _CHUNK_SIZE + 1, 10**5,
    DEFAULT_BLOCK_SIZE - 1, DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE + 1, 10**6,
]
PIN_BLOCK_SIZES = [1, 3, 32767, DEFAULT_BLOCK_SIZE]
PIN_SEEDS = [0, 12345, 2**64 - 1]
# Point masses, zero entries (ties among the cumulative weights) and mixtures.
PIN_CHANNELS = [
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.5, 0.0, 0.5, 0.0),
    (0.0, 0.5, 0.0, 0.5),
    (0.6, 0.2, 0.0, 0.2),
    (0.7, 0.2, 0.1, 0.0),
    (0.7, 0.1, 0.1, 0.1),
    (0.1, 0.2, 0.3, 0.4),
]


def pinned_estimates():
    """One line per estimate: its arguments, then the float.hex of its values.

    Every (trials, block_size) pair of at most 64 blocks, both protocols;
    all of PIN_SEEDS below 10^5 trials and one of them, in turn, above.
    Each Pauli estimate takes the next channel of PIN_CHANNELS.
    """
    lines = []
    for trials in PIN_TRIALS:
        for block_size in PIN_BLOCK_SIZES:
            if -(-trials // block_size) > 64:
                continue
            for mub in (2, 3):
                turn = len(lines) // 2
                seeds = PIN_SEEDS if trials < 10**5 else [PIN_SEEDS[turn % len(PIN_SEEDS)]]
                for seed in seeds:
                    cfg = AttackConfig(mub, trials, seed, block_size)
                    est, se = intercept_resend_qber_montecarlo(cfg)
                    lines.append(f"ir {cfg} {est.hex()} {se.hex()}")
                    p = PIN_CHANNELS[len(lines) // 2 % len(PIN_CHANNELS)]
                    q = pauli_channel_qber_montecarlo(PauliDistribution(p), mub, cfg)
                    rates = (q.e_x, q.e_z) if mub == 2 else (q.e_x, q.e_z, q.e_y)
                    lines.append(f"pauli {p} {cfg} " + " ".join(r.hex() for r in rates))
    return lines


def test_every_estimate_keeps_its_bits():
    # The sha256 of pinned_estimates(), captured from the kernels that
    # looked up every draw in the Born and flip tables.
    lines = pinned_estimates()
    assert len(lines) == 208
    rates = {v for line in lines if line.startswith("pauli") for v in line.split()[-3:]}
    assert {"0x0.0p+0", "0x1.0000000000000p+0"} <= rates
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "245cc76dc1fa2630b89759f0bce3a1391b56c93f052d781b7f5717d65fddc68d"


def zero_halves(seed, size):
    """Where the first 3 * size 32-bit halves of block 0's stream are 0."""
    x = _block_rng(seed, 0).bit_generator.random_raw(-(-3 * size // 2)).view(np.uint32)
    return np.flatnonzero(x[:3 * size] == 0).tolist()


def block_by_numpy_rules(seed, size, n, zeros=()):
    """Errors in block 0 of (seed, size) as numpy draws it, from its raw
    halves with those at the places in zeros set to 0.

    Each code takes the next half x, low half first, as (x * n) >> 32 in
    Python's ints; for three bases a zero half is dropped (Lemire's
    method rejects it). The uniforms start at the raw output after the
    last e, and the trial is read through the Born table as
    whole_block_intercept_resend reads it.
    """
    x = [int(v) for v in _block_rng(seed, 0).bit_generator.random_raw(2 * size).view(np.uint32)]
    for place in zeros:
        x[place] = 0
    at, codes = 0, []
    for high in (n, 2, n):
        drawn = []
        while len(drawn) < size:
            if x[at] or high == 2:
                drawn.append(x[at] * high >> 32)
            at += 1
        codes.append(np.array(drawn))
    a, b, e = codes
    rng = _block_rng(seed, 0)
    rng.bit_generator.random_raw(-(-at // 2))
    u_eve, u_bob = rng.random(size), rng.random(size)
    born = _born_tensor(_protocol_bases(n))
    m = (u_eve >= born[a, b, e, 0]).astype(np.intp)
    return int(np.count_nonzero((u_bob >= born[a, 0, e, m]) != b))


def record_ranges(monkeypatch):
    """Replace the intercept-resend kernel by one that records each
    range's (lo, hi) and whether it ran on the calling thread."""
    kernel, ranges = attack._intercept_resend_range, []
    caller = threading.get_ident()

    def recorded(*args):
        ranges.append((*args[-2:], threading.get_ident() == caller))
        return kernel(*args)

    monkeypatch.setattr(attack, "_intercept_resend_range", recorded)
    return ranges


def plant_zeros(monkeypatch, places):
    """Make every _Halves read find 0 at these places of its stream, as a
    Philox output with a zero half there would give."""
    read = attack._Halves.read

    def planted(self, n):
        start, x = self.at, read(self, n).copy()
        for place in places:
            if start <= place < start + n:
                x[place - start] = 0
        return x

    monkeypatch.setattr(attack._Halves, "read", planted)


HALF_CUTS = [
    0, 1, 2**31 - 1, 2**31, -(-2**32 // 3) - 1, -(-2**32 // 3),
    -(-2**33 // 3) - 1, -(-2**33 // 3), 2**32 - 1,
]


class TestCodes:
    """The intercept-resend kernel reads a, b and e from raw 32-bit halves
    and maps each as numpy's integers(0, n) does."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_code_map_at_its_cut_points(self, n):
        out = np.empty(len(HALF_CUTS), dtype=np.uint8)
        attack._codes(np.array(HALF_CUTS, dtype=np.uint32), n, out)
        assert out.tolist() == [x * n >> 32 for x in HALF_CUTS]
        # numpy's own code for each half, from a generator holding it in
        # its buffer; for three bases it rejects the half 0.
        for x in HALF_CUTS[n == 3:]:
            bg = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
            bg.state = {**bg.state, "has_uint32": 1, "uinteger": x}
            assert np.random.Generator(bg).integers(0, n, 1)[0] == x * n >> 32, x

    def test_the_halves_are_the_stream_read_low_half_first(self):
        key = np.array([3, 4], dtype=np.uint64)
        stream = np.random.Philox(key=key).random_raw(200).view(np.uint32)
        for steps in ([(0, 5), (1, 1), (0, 2), (3, 0), (7, 9)], [(1, 0), (0, 1), (2, 6)],
                      [(9, 0), (8, 0), (0, 3), (50, 1), (1, 7), (0, 0), (1, 64)]):
            halves, at = attack._Halves(np.random.Philox(key=key)), 0
            for skip, read in steps:
                halves.skip(skip)
                assert halves.read(read).tolist() == stream[at + skip:at + skip + read].tolist()
                at += skip + read
            assert halves.at == at
            # The generator has drawn the raw outputs that hold those halves.
            drawn = np.random.Philox(key=key)
            drawn.random_raw(-(-at // 2))
            assert philox_state(halves.bitgen) == philox_state(drawn)

    def test_the_reference_is_numpy(self):
        # Seeds 127939 and 1344 hold a zero half in a and in e.
        for seed, size, n in ((127939, 10**5, 3), (1344, 10**5, 3), (5, 777, 2), (5, 777, 3)):
            cfg = AttackConfig(n, size, seed)
            assert block_by_numpy_rules(seed, size, n) / size == whole_block_intercept_resend(cfg)[0]

    @pytest.mark.parametrize(
        "places, n, redrawn",
        [
            ((70000,), 3, True),  # a of the second range
            ((2 * 10**5 + 10,), 3, True),  # e of the first range
            ((10**5 - 1,), 3, True),  # a's last half: b starts at an odd half
            ((32767, 32768), 3, True),  # a chunk's last half, and the one read for it
            ((150003,), 3, False),  # b, whose code of 2 never rejects
            ((70000, 2 * 10**5 + 10), 2, False),
        ],
    )
    def test_a_planted_zero_half(self, monkeypatch, places, n, redrawn):
        seed, size = 12345, 10**5
        want = block_by_numpy_rules(seed, size, n, places) / size
        assert want != block_by_numpy_rules(seed, size, n) / size
        plant_zeros(monkeypatch, places)
        cfg = AttackConfig(n, size, seed)
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 1)
        ranges = record_ranges(monkeypatch)
        assert intercept_resend_qber_montecarlo(cfg)[0] == want
        assert ranges == [(0, size, True)]
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        ranges.clear()
        assert intercept_resend_qber_montecarlo(cfg)[0] == want
        cut = [(0, 50000, False), (50000, size, False)]
        assert sorted(ranges) == sorted(cut + [(0, size, True)] * redrawn)


class TestRanges:
    """A block of more than one chunk is cut into trial ranges, one per
    usable CPU; every estimate equals the whole-block oracle's."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_ranges_cut_a_block_at_even_trials(self, cpus):
        for size in (1, 2, 3, _CHUNK_SIZE, _CHUNK_SIZE + 1, 3 * _CHUNK_SIZE, 10**5, 2**18):
            ranges = attack._ranges(size, cpus)
            assert len(ranges) == min(cpus, -(-size // _CHUNK_SIZE))
            edges = [lo for lo, _ in ranges] + [size]
            assert [hi for _, hi in ranges] == edges[1:] and edges[0] == 0
            assert all(lo < hi for lo, hi in ranges)
            assert all(lo % 2 == 0 for lo, _ in ranges)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_the_usable_cpus_do_not_change_the_result(self, monkeypatch, cpus):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: cpus)
        ranges, cut = record_ranges(monkeypatch), 0
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        cases = [(t, bs, seeds_for(t, bs)[0]) for t, bs in GRID]
        cases += [(10**5, DEFAULT_BLOCK_SIZE, 12345), (10**6, DEFAULT_BLOCK_SIZE, 31)]
        for trials, block_size, seed in cases:
            for mub in (2, 3):
                cfg = AttackConfig(mub, trials, seed, block_size)
                assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
                assert pauli_channel_qber_montecarlo(p, mub, cfg) == whole_block_pauli(p, mub, cfg)
                cut += sum(len(attack._ranges(s, cpus)) for s in _block_sizes(trials, block_size))
        # No draw on this grid is rejected, so no block is drawn twice.
        assert len(ranges) == cut
        assert any(not caller for *_, caller in ranges) == (cpus > 1)

    @pytest.mark.parametrize("seed, zero", [(127939, 96807), (1344, 228079)])
    def test_a_rejected_draw_redraws_the_block_as_one_range(self, monkeypatch, seed, zero):
        # A 32-bit half of 0 is the one Lemire's method rejects for a
        # range of 3; these seeds hold one among a (127939) or e (1344).
        assert zero_halves(seed, 10**5) == [zero]
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        ranges = record_ranges(monkeypatch)
        cfg = AttackConfig(3, 10**5, seed)
        assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
        assert sorted(ranges) == [(0, 50000, False), (0, 10**5, True), (50000, 10**5, False)]

    def test_the_usable_cpus_are_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert attack._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert attack._usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert attack._usable_cpus() == 1


class TestThreads:
    @staticmethod
    def forbid_pools(monkeypatch):
        def no_pool():
            raise RuntimeError("the thread pool was used")

        monkeypatch.setattr(attack, "_pool", no_pool)

    def test_a_single_block_is_drawn_as_pooled_ranges(self, monkeypatch):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        pool, maps = attack._pool(), []

        class Recorded:
            def map(self, fn, calls):
                calls = list(calls)
                maps.append(len(calls))
                return pool.map(fn, calls)

        monkeypatch.setattr(attack, "_pool", Recorded)
        ranges = record_ranges(monkeypatch)
        est, _ = intercept_resend_qber_montecarlo(
            AttackConfig(mub_count=2, trials=10**5, seed=12345)
        )
        assert est == 0.25217
        assert maps == [2]
        assert sorted(ranges) == [(0, 50000, False), (50000, 10**5, False)]

    def test_small_blocks_build_no_pool(self, monkeypatch):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 8)
        self.forbid_pools(monkeypatch)
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        cfg = AttackConfig(mub_count=3, trials=10**3, seed=7)  # one block per basis
        assert pauli_channel_qber_montecarlo(p, 3, cfg) == whole_block_pauli(p, 3, cfg)
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=8, block_size=_CHUNK_SIZE)
        assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
        # One trial more per block than a chunk cuts each block in two.
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=8, block_size=_CHUNK_SIZE + 1)
        with pytest.raises(RuntimeError, match="thread pool"):
            intercept_resend_qber_montecarlo(cfg)

    def test_a_single_core_builds_no_pool(self, monkeypatch):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 1)
        self.forbid_pools(monkeypatch)
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=5, block_size=30000)
        assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)

    def test_one_pool_serves_every_call(self, monkeypatch):
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        attack._pool.cache_clear()
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        intercept_resend_qber_montecarlo(AttackConfig(2, 10**5, 1))
        pauli_channel_qber_montecarlo(p, 3, AttackConfig(3, 10**5, 2))
        info = attack._pool.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # More callers than CPUs, each waiting on its own ranges in the one
        # pool, with thread switches forced often.
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 3)
        cfgs = [AttackConfig(3, 10**5, seed) for seed in range(6)]
        got = [None] * len(cfgs)

        def run(i):
            got[i] = intercept_resend_qber_montecarlo(cfgs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [whole_block_intercept_resend(cfg) for cfg in cfgs]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_builds_its_own_pool(self):
        # The parent's workers do not exist in the child: a pool kept
        # across the fork would take the child's ranges and never run them.
        # The alarm ends a child that hangs.
        code = """if True:
            import os, signal, sys, warnings
            # Python 3.12+ warns that fork() in a threaded process may deadlock.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            from qkdlimits import AttackConfig, attack, intercept_resend_qber_montecarlo
            attack._usable_cpus = lambda: 2
            cfg = AttackConfig(3, 10**5, 12345)
            want = intercept_resend_qber_montecarlo(cfg)
            pool = attack._pool()
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)
                ok = intercept_resend_qber_montecarlo(cfg) == want and attack._pool() is not pool
                os._exit(0 if ok else 1)
            print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "0", "")

    def test_peak_memory_of_a_threaded_million_trial_call(self, monkeypatch):
        # The whole-block kernel peaked at 16.25 MiB here: about 16 MiB of
        # int64/float64 arrays per block.
        monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
        cfg = AttackConfig(mub_count=3, trials=10**6, seed=20240811)
        tracemalloc.start()
        try:
            intercept_resend_qber_montecarlo(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
