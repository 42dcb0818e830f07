"""Repeater chains of Pauli channels.

A chain of links cannot beat its weakest link: with
p_max_min = min over links of max_k p_k, the end-to-end two-way
capacity is certainly zero when p_max_min <= 1/2, and otherwise
bounded by 1 - H2(p_max_min). No matching converse is known, so a
chain that escapes the bound is merely "not certainly zero". The bound
is cross-checked against the per-link capacity verdicts, which all
links of a chain get from one ``capacity_verdicts`` call, so one
eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .pauli import PauliDistribution, binary_entropy, capacity_verdicts
from .qber import QberSet, SecurityVerdict, security_verdict


@dataclass(frozen=True)
class ChainSpec:
    """Ordered repeater links, each a Pauli channel; optional observed QBERs.

    A link that is not a PauliDistribution, or a QBER entry that is not a
    QberSet, is a ValidationError naming its index.
    """

    links: tuple[PauliDistribution, ...]
    qbers: tuple[QberSet, ...] | None = None

    def __post_init__(self):
        if len(self.links) == 0:
            raise ValidationError("chain needs at least one link")
        if self.qbers is not None and len(self.qbers) != len(self.links):
            raise ValidationError(
                f"{len(self.qbers)} QBER sets for {len(self.links)} links"
            )
        for name, items, cls in (("links", self.links, PauliDistribution),
                                 ("qbers", self.qbers or (), QberSet)):
            for i, item in enumerate(items):
                if not isinstance(item, cls):
                    raise ValidationError(
                        f"chain {name}[{i}] must be a {cls.__name__}, not {type(item).__name__}"
                    )


@dataclass(frozen=True)
class ChainVerdict:
    """Bottleneck capacity statement for the whole chain.

    converse_known is always False: the bound is one-sided.
    """

    p_max_min: float
    zero_capacity_certain: bool
    upper_bound_bits: float
    converse_known: bool = False


@dataclass(frozen=True)
class ChainQberVerdict:
    """Worst-link view of per-link QBER threshold checks."""

    all_links_pass: bool
    worst_link_index: int
    link_verdicts: tuple[SecurityVerdict, ...]


def chain_verdict(chain: ChainSpec) -> ChainVerdict:
    """Evaluate the bottleneck bound min over links of the single-link bound."""
    p_max_min = min(link.p_max for link in chain.links)
    zero = p_max_min <= 0.5
    bound = 0.0 if zero else 1.0 - binary_entropy(p_max_min)
    # Cross-check against the per-link verdicts; both routes must agree.
    per_link = min(v.phi_upper_bound for v in capacity_verdicts(chain.links))
    if abs(per_link - bound) > 1e-12:
        raise ValidationError(
            f"bottleneck bound {bound!r} disagrees with per-link minimum {per_link!r}"
        )
    return ChainVerdict(
        p_max_min=p_max_min,
        zero_capacity_certain=zero,
        upper_bound_bits=bound,
    )


def chain_qber_verdict(chain: ChainSpec) -> ChainQberVerdict:
    """Check every link's observed QBERs against the repeaterless threshold.

    All links must use the same number of bases. The chain passes only
    if its worst link (largest QBER sum) passes.
    """
    if chain.qbers is None:
        raise ValidationError("chain carries no observed QBER sets")
    counts = {q.mub_count for q in chain.qbers}
    if len(counts) != 1:
        raise ValidationError(
            f"links mix {sorted(counts)}-basis protocols; chains must be homogeneous"
        )
    verdicts = tuple(security_verdict(q) for q in chain.qbers)
    worst = max(range(len(verdicts)), key=lambda i: verdicts[i].qber_sum)
    return ChainQberVerdict(
        all_links_pass=all(v.secure_possible for v in verdicts),
        worst_link_index=worst,
        link_verdicts=verdicts,
    )
