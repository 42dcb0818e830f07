"""Intercept-resend statistics, analytic and sampled."""

import concurrent.futures
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from qkdlimits import (
    AttackConfig,
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
    for fields, message in (
        (dict(mub_count=4, trials=100, seed=0), "mub_count must be 2 or 3"),
        (dict(mub_count=2.0, trials=100, seed=0), "mub_count must be 2 or 3, got 2.0"),
        (dict(mub_count=True, trials=100, seed=0), "mub_count must be 2 or 3"),
        (dict(mub_count=2, trials=0, seed=0), "trials=0 must be an integer >= 1"),
        (dict(mub_count=2, trials=100.5, seed=0), "trials=100.5 must be an integer"),
        (dict(mub_count=2, trials=True, seed=0), "trials=True must be an integer >= 1"),
        (dict(mub_count=2, trials=100, seed=-1), "seed=-1 must fit in 64 bits"),
        (dict(mub_count=2, trials=100, seed=2**64), "must fit in 64 bits"),
        (dict(mub_count=2, trials=100, seed=True), "seed=True must fit in 64 bits"),
        (dict(mub_count=2, trials=100, seed=0, block_size=0), "block_size=0 must be >= 1"),
        (dict(mub_count=2, trials=100, seed=0, block_size=True), "block_size=True must be >= 1"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            AttackConfig(**fields)


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
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        for mub in (2, 3):
            for cfg in (
                AttackConfig(mub, 10**6, 31),
                AttackConfig(mub, 10**5, 32, block_size=7919),
            ):
                assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
                assert pauli_channel_qber_montecarlo(p, mub, cfg) == whole_block_pauli(p, mub, cfg)


class TestThreads:
    @staticmethod
    def forbid_pools(monkeypatch):
        def no_pool(*args, **kwargs):
            raise RuntimeError("a ThreadPoolExecutor was built")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)

    def test_a_single_block_builds_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        self.forbid_pools(monkeypatch)
        est, _ = intercept_resend_qber_montecarlo(
            AttackConfig(mub_count=2, trials=10**5, seed=12345)
        )
        assert est == 0.25217
        # Several blocks do build one, so the patch above is where it is built.
        with pytest.raises(RuntimeError, match="ThreadPoolExecutor"):
            intercept_resend_qber_montecarlo(AttackConfig(mub_count=2, trials=10**6, seed=0))

    def test_small_blocks_build_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        self.forbid_pools(monkeypatch)
        p = PauliDistribution((0.6, 0.2, 0.0, 0.2))
        cfg = AttackConfig(mub_count=3, trials=10**3, seed=7)  # one block per basis
        assert pauli_channel_qber_montecarlo(p, 3, cfg) == whole_block_pauli(p, 3, cfg)
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=8, block_size=_CHUNK_SIZE)
        assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)
        # One trial more per block than a chunk does build one.
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=8, block_size=_CHUNK_SIZE + 1)
        with pytest.raises(RuntimeError, match="ThreadPoolExecutor"):
            intercept_resend_qber_montecarlo(cfg)

    def test_a_single_core_builds_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self.forbid_pools(monkeypatch)
        cfg = AttackConfig(mub_count=3, trials=10**5, seed=5, block_size=30000)
        assert intercept_resend_qber_montecarlo(cfg) == whole_block_intercept_resend(cfg)

    def test_peak_memory_of_a_threaded_million_trial_call(self, monkeypatch):
        # The whole-block kernel peaked at 16.25 MiB here: about 16 MiB of
        # int64/float64 arrays per block.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = AttackConfig(mub_count=3, trials=10**6, seed=20240811)
        tracemalloc.start()
        try:
            intercept_resend_qber_montecarlo(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
