"""Chain verdicts: the weakest link decides."""

import math
import random

import numpy as np
import pytest

from qkdlimits import (
    ChainSpec,
    PauliDistribution,
    QberSet,
    ValidationError,
    capacity_verdict,
    chain_qber_verdict,
    chain_verdict,
)


def pick_distribution(rng):
    raw = [rng.random() for _ in range(4)]
    total = math.fsum(raw)
    return PauliDistribution(tuple(v / total for v in raw))


class TestChainVerdict:
    def test_single_link_reduces_to_the_channel_verdict(self):
        rng = random.Random(5)
        for _ in range(20):
            p = pick_distribution(rng)
            chain = chain_verdict(ChainSpec(links=(p,)))
            single = capacity_verdict(p)
            assert chain.zero_capacity_certain == single.zero_capacity
            assert chain.p_max_min == single.p_max
            assert math.isclose(
                chain.upper_bound_bits, single.phi_upper_bound, rel_tol=1e-12, abs_tol=1e-15
            )

    def test_bottleneck_below_half_is_certainly_zero(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.6, 0.4, 0.0, 0.0)),
                PauliDistribution((0.45, 0.25, 0.15, 0.15)),
            )
        )
        v = chain_verdict(chain)
        assert v.p_max_min == 0.45
        assert v.zero_capacity_certain
        assert v.upper_bound_bits == 0.0
        assert not v.converse_known

    def test_frozen_two_link_bound(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.6, 0.4, 0.0, 0.0)),
                PauliDistribution((0.55, 0.45, 0.0, 0.0)),
            )
        )
        v = chain_verdict(chain)
        assert v.p_max_min == 0.55
        assert not v.zero_capacity_certain
        assert math.isclose(v.upper_bound_bits, 0.007225546012191706, rel_tol=1e-10)
        assert abs(v.upper_bound_bits - 0.007226) <= 1e-6

    def test_boundary_link_is_certainly_zero(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.9, 0.1, 0.0, 0.0)),
                PauliDistribution((0.5, 0.5, 0.0, 0.0)),
            )
        )
        assert chain_verdict(chain).zero_capacity_certain

    def test_adding_a_link_never_raises_the_bound(self):
        rng = random.Random(9)
        for _ in range(30):
            links = [pick_distribution(rng)]
            previous = chain_verdict(ChainSpec(links=tuple(links))).upper_bound_bits
            for _ in range(3):
                links.append(pick_distribution(rng))
                current = chain_verdict(ChainSpec(links=tuple(links))).upper_bound_bits
                assert current <= previous + 1e-15
                previous = current

    def test_link_order_does_not_matter(self):
        rng = random.Random(13)
        links = [pick_distribution(rng) for _ in range(4)]
        base = chain_verdict(ChainSpec(links=tuple(links)))
        shuffled = links[::-1]
        other = chain_verdict(ChainSpec(links=tuple(shuffled)))
        assert base.p_max_min == other.p_max_min
        assert base.upper_bound_bits == other.upper_bound_bits

    def test_one_eigensolve_per_chain(self, monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []

        def counted(m):
            calls.append(m.shape)
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rng = random.Random(8)
        chain_verdict(ChainSpec(links=tuple(pick_distribution(rng) for _ in range(8))))
        assert calls == [(8, 4, 4)]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError):
            ChainSpec(links=())


class TestChainQberVerdict:
    def test_all_links_clean(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.8, 0.1, 0.0, 0.1)),
                PauliDistribution((0.8, 0.05, 0.05, 0.1)),
            ),
            qbers=(QberSet(0.1, 0.1), QberSet(0.15, 0.1)),
        )
        v = chain_qber_verdict(chain)
        assert v.all_links_pass
        assert v.worst_link_index == 1
        assert len(v.link_verdicts) == 2

    def test_one_bad_link_fails_the_chain(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.8, 0.1, 0.0, 0.1)),
                PauliDistribution((0.5, 0.3, 0.0, 0.2)),
            ),
            qbers=(QberSet(0.1, 0.1), QberSet(0.3, 0.25)),
        )
        v = chain_qber_verdict(chain)
        assert not v.all_links_pass
        assert v.worst_link_index == 1
        assert v.link_verdicts[0].secure_possible
        assert not v.link_verdicts[1].secure_possible

    def test_three_basis_boundary_link_fails(self):
        third = 1.0 / 3.0
        chain = ChainSpec(
            links=(PauliDistribution((0.25, 0.25, 0.25, 0.25)),),
            qbers=(QberSet(third, third, third),),
        )
        assert not chain_qber_verdict(chain).all_links_pass

    def test_chain_pass_means_every_link_passes(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 4)
            links = tuple(pick_distribution(rng) for _ in range(n))
            qbers = tuple(
                QberSet(rng.uniform(0, 0.5), rng.uniform(0, 0.5)) for _ in range(n)
            )
            v = chain_qber_verdict(ChainSpec(links=links, qbers=qbers))
            assert v.all_links_pass == all(lv.secure_possible for lv in v.link_verdicts)

    def test_requires_qbers(self):
        chain = ChainSpec(links=(PauliDistribution((0.8, 0.1, 0.0, 0.1)),))
        with pytest.raises(ValidationError):
            chain_qber_verdict(chain)

    def test_rejects_mixed_protocols(self):
        chain = ChainSpec(
            links=(
                PauliDistribution((0.8, 0.1, 0.0, 0.1)),
                PauliDistribution((0.8, 0.1, 0.0, 0.1)),
            ),
            qbers=(QberSet(0.1, 0.1), QberSet(0.1, 0.1, 0.1)),
        )
        with pytest.raises(ValidationError, match="homogeneous"):
            chain_qber_verdict(chain)

    def test_rejects_parts_of_the_wrong_type(self):
        good = PauliDistribution((0.8, 0.1, 0.0, 0.1))
        with pytest.raises(ValidationError, match=r"^chain links\[1\] must be a PauliDistribution, not list$"):
            ChainSpec(links=(good, [0.7, 0.1, 0.1, 0.1]))
        with pytest.raises(ValidationError, match=r"^chain qbers\[1\] must be a QberSet, not tuple$"):
            ChainSpec(links=(good, good), qbers=(QberSet(0.1, 0.1), (0.1, 0.1)))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            ChainSpec(
                links=(PauliDistribution((0.8, 0.1, 0.0, 0.1)),),
                qbers=(QberSet(0.1, 0.1), QberSet(0.1, 0.1)),
            )
