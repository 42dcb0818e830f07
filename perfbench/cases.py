"""Benchmark inputs: the reference pool and the seeded op streams.

Stdlib only; nothing here imports qkdlimits or numpy.

The pool is a fixed list of cases, generated once from POOL_SEED and the
shipped scenarios by ``build_pool``. ``capture.py`` stores it, together
with the outputs the package gave for every case, in ``reference.json``.
A workload run never regenerates the pool: it loads the stored cases and
draws from them with its own seed, so every input it sends has a
reference output. That includes the malformed scenarios (seeded
mutations of the valid ones): their documented outcome is
ValidationError, or exit 1 from the CLI, and the reference records the
outcome they had when it was captured, so that a defect known then is
told apart from a new one.

Every workload has a fixed cycle of slots. Each slot names an op kind
and walks round-robin through that kind's groups (link kind, sub-kind,
chain length); each group walks through all its cases in an order the
seed shuffles. So every run sends the same mix of kinds, groups and
cases, and the seed decides their order. Runs therefore differ by the
machine, not by which costly cases they happened to draw.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
from pathlib import Path

POOL_SEED = 20260217
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Slots of each workload's cycle. A slot names a case kind; "cli" names
# the family of CLI case kinds, one kind per turn.
CYCLES = {
    "verdicts": (
        "capacity", "qber2", "qber3", "detect", "chain", "scenario", "scenario", "malformed",
    ),
    "sweeps": ("sweep", "sweep", "sweep", "cli"),
    "montecarlo": (
        "mc_ir2_1e5", "mc_ir3_1e5", "mc_ir2_1e5", "mc_ir3_1e5", "mc_ir2_1e5",
        "mc_ir3_1e5", "mc_pauli3_2e5", "mc_ir2_1e6", "mc_ir3_1e6",
    ),
}
WORKLOADS = tuple(CYCLES)
# Kinds whose cases form one group: each malformed input is its own kind
# of input, so grouping by it would give hundreds of one-case groups.
SINGLE_GROUP_KINDS = ("malformed", "cli_malformed")
# Malformed scenarios in the pool, for the library and for the CLI.
MALFORMED_COUNT = 256
CLI_MALFORMED_COUNT = 32

MC_KINDS = {
    # kind: (estimator, mub_count, trials)
    "mc_ir2_1e5": ("intercept_resend", 2, 100_000),
    "mc_ir3_1e5": ("intercept_resend", 3, 100_000),
    "mc_ir2_1e6": ("intercept_resend", 2, 1_000_000),
    "mc_ir3_1e6": ("intercept_resend", 3, 1_000_000),
    "mc_pauli3_2e5": ("pauli_channel", 3, 200_000),
}

# ---------------------------------------------------------------- helpers


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _simplex(rng: random.Random) -> list[float]:
    """Random Pauli 4-vector; about half have p_max above 1/2."""
    if rng.random() < 0.5:
        top = rng.uniform(0.5, 0.98)
        rest = [rng.expovariate(1.0) for _ in range(3)]
        scale = (1.0 - top) / sum(rest)
        p = [top] + [r * scale for r in rest]
        rng.shuffle(p)
    else:
        w = [rng.expovariate(1.0) for _ in range(4)]
        p = [x / sum(w) for x in w]
    return p


def shipped_scenarios() -> dict[str, dict]:
    return {
        f.stem: json.loads(f.read_text())
        for f in sorted(SCENARIO_DIR.glob("*.json"))
    }


def _base_docs() -> dict[str, list[dict]]:
    """Shipped scenarios grouped by link kind, plus the kinds none ships."""
    shipped = shipped_scenarios()
    groups: dict[str, list[dict]] = {}
    for doc in shipped.values():
        kind = doc["link"]["kind"] if "link" in doc else "chain"
        groups.setdefault(kind, []).append(doc)
    free = shipped["freespace_ground_2mub"]
    groups["ground_atmosphere"] = [
        {**copy.deepcopy(free), "link": {"kind": "ground_atmosphere", **free["link"]["atmosphere"]}}
    ]
    chain3 = copy.deepcopy(shipped["repeater_chain"])
    chain3["protocol"] = {"mub_count": 3}
    chain3["chain"]["qbers"] = [
        {"e_x": 0.1, "e_z": 0.4, "e_y": 0.3},
        {"e_x": 0.05, "e_z": 0.45, "e_y": 0.4},
    ]
    groups["chain"].append(chain3)
    return groups


_BISECTION_KINDS = ("freespace", "satellite", "ground_atmosphere")


def _jitter_doc(rng: random.Random, base: dict) -> dict:
    """A valid variant of a scenario with its parameters redrawn."""
    doc = copy.deepcopy(base)
    if "detector" in doc:
        det = doc["detector"]
        det["y0"] = _log_uniform(rng, 1e-10, 1e-5)
        det["e_det"] = rng.uniform(0.001, 0.06)
        det["eta_eff"] = rng.uniform(0.2, 1.0)
        if rng.random() < 0.06:
            # Misalignment at or past the threshold: documented
            # InfeasibleConfigurationError.
            det["e_det"] = rng.uniform(0.34, 0.49)
    if rng.random() < 0.3 and "link" in doc:
        doc["protocol"]["mub_count"] = 5 - doc["protocol"]["mub_count"]
    src = doc.get("source")
    if src is not None:
        if src["kind"] == "attenuated":
            src["mu"] = _log_uniform(rng, 0.05, 3.0)
        elif src["kind"] == "decoy":
            top = _log_uniform(rng, 0.2, 1.0)
            src["intensities"] = [top, top * rng.uniform(0.05, 0.4), 0.0]
            src["rep_rate_hz"] = _log_uniform(rng, 1e6, 1e9)
            src["dead_time_s"] = _log_uniform(rng, 1e-9, 1e-6)
    link = doc.get("link")
    if link is not None:
        kind = link["kind"]
        if kind == "fiber":
            link["alpha_db_per_km"] = rng.uniform(0.15, 0.3)
        elif kind == "ground_atmosphere":
            link["alpha0_per_km"] = _log_uniform(rng, 1e-3, 5e-2)
            link["altitude_km"] = rng.uniform(0.0, 3.0)
        beam = link.get("beam", link if kind == "diffraction" else None)
        if beam is not None:
            beam["w0_m"] *= rng.uniform(0.5, 2.0)
            beam["aperture_radius_m"] *= rng.uniform(0.5, 2.0)
        if kind == "freespace":
            link["atmosphere"]["alpha0_per_km"] = _log_uniform(rng, 1e-3, 5e-2)
            link["atmosphere"]["altitude_km"] = rng.uniform(0.0, 3.0)
        if kind == "satellite":
            link["zenith_angle_rad"] = rng.uniform(0.0, 1.0)
            link["eta_zenith"] = rng.uniform(0.9, 0.99)
        if kind in _BISECTION_KINDS and rng.random() < 0.4:
            lo = _log_uniform(rng, 1e-3, 1.0)
            doc["solver"] = {"d_lo_km": lo, "d_hi_km": lo * _log_uniform(rng, 1e3, 1e8)}
    chain = doc.get("chain")
    if chain is not None:
        n = rng.randint(1, 8)
        chain["links"] = [_simplex(rng) for _ in range(n)]
        three = doc["protocol"]["mub_count"] == 3
        chain["qbers"] = [
            {"e_x": rng.uniform(0, 0.3), "e_z": rng.uniform(0, 0.3),
             **({"e_y": rng.uniform(0, 0.3)} if three else {})}
            for _ in range(n)
        ]
    return doc


# ---------------------------------------------------------------- pool


def _verdict_cases(rng: random.Random, n: int) -> list[dict]:
    cases = []
    for _ in range(n):
        cases.append({"kind": "capacity", "group": "p", "args": {"p": _simplex(rng)}})
    cases.append({"kind": "capacity", "group": "p", "args": {"p": [0.5, 1 / 6, 1 / 6, 1 / 6]}})
    for _ in range(n):
        e_x, e_z = rng.uniform(0, 0.6), rng.uniform(0, 0.6)
        p2 = rng.uniform(0, min(e_x, e_z, 0.5)) if rng.random() < 0.3 else 0.0
        cases.append({"kind": "qber2", "group": "q", "args": {"e_x": e_x, "e_z": e_z, "assumed_p2": p2}})
    for _ in range(n):
        args = {"e_x": rng.uniform(0, 0.6), "e_z": rng.uniform(0, 0.6), "e_y": rng.uniform(0, 0.6)}
        cases.append({"kind": "qber3", "group": "q", "args": args})
    for i in range(n):
        group = ("k_photon", "attenuated", "decoy")[i % 3]
        args = {
            "eta": _log_uniform(rng, 1e-7, 1.0),
            "det": {"y0": _log_uniform(rng, 1e-9, 1e-3), "e_det": rng.uniform(0, 0.2),
                    "eta_eff": rng.uniform(0.1, 1.0)},
        }
        if group == "k_photon":
            args["k"] = rng.randint(1, 4)
        elif group == "attenuated":
            args["mu"] = _log_uniform(rng, 0.05, 3.0)
        else:
            top = _log_uniform(rng, 0.2, 1.0)
            args["src"] = {
                "intensities": [top, top * rng.uniform(0.05, 0.4), 0.0],
                "probabilities": [0.7, 0.2, 0.1],
                "rep_rate_hz": _log_uniform(rng, 1e6, 1e9),
                "dead_time_s": _log_uniform(rng, 1e-9, 1e-6),
            }
        cases.append({"kind": "detect", "group": group, "args": args})
    for _ in range(n):
        links = [_simplex(rng) for _ in range(rng.randint(1, 8))]
        three = rng.random() < 0.5
        qbers = [
            [rng.uniform(0, 0.3), rng.uniform(0, 0.3)] + ([rng.uniform(0, 0.3)] if three else [])
            for _ in links
        ]
        cases.append({"kind": "chain", "group": str(len(links)), "args": {"links": links, "qbers": qbers}})
    return cases


def _scenario_cases(rng: random.Random, per_kind: int) -> list[dict]:
    cases = []
    for kind, bases in sorted(_base_docs().items()):
        for b in bases:
            cases.append({"kind": "scenario", "group": kind, "args": {"doc": b}})
        for i in range(per_kind - len(bases)):
            doc = _jitter_doc(rng, bases[i % len(bases)])
            cases.append({"kind": "scenario", "group": kind, "args": {"doc": doc}})
    return cases


# (link kind, parameter) pairs swept; mu only where the source is attenuated.
# Eleven of the eighteen groups (with dark_count_sweep) go through
# bisection, so the median sweep lies inside the bisection latencies
# rather than in the gap between them and the closed-form ones.
SWEEP_COMBOS = (
    ("fiber", "y0"), ("fiber", "e_det"), ("fiber", "eta_eff"), ("fiber", "mu"), ("fiber", "alpha"),
    ("diffraction", "y0"),
    ("freespace", "y0"), ("freespace", "e_det"), ("freespace", "eta_eff"), ("freespace", "mu"),
    ("satellite", "y0"), ("satellite", "e_det"), ("satellite", "eta_eff"),
    ("ground_atmosphere", "y0"), ("ground_atmosphere", "e_det"), ("ground_atmosphere", "eta_eff"),
    ("ground_atmosphere", "mu"),
)


def _sweep_range(rng: random.Random, param: str) -> tuple[float, float, str]:
    """Endpoints that cross the feasibility boundary for most bases."""
    if param == "y0":
        return _log_uniform(rng, 1e-10, 1e-8), rng.uniform(0.3, 0.9), "log"
    if param == "e_det":
        return rng.uniform(0.0, 0.02), rng.uniform(0.3, 0.45), "linear"
    if param == "eta_eff":
        return _log_uniform(rng, 1e-6, 1e-4), 1.0, "log"
    if param == "mu":
        return _log_uniform(rng, 1e-6, 1e-4), rng.uniform(1.0, 5.0), "log"
    return rng.uniform(0.1, 0.2), rng.uniform(0.5, 2.0), "linear"


def _sweep_cases(rng: random.Random, per_combo: int) -> list[dict]:
    bases = _base_docs()
    cases = []
    for kind, param in SWEEP_COMBOS:
        candidates = [
            b for b in bases[kind]
            if param != "mu" or b["source"]["kind"] == "attenuated"
        ]
        for i in range(per_combo):
            doc = _jitter_doc(rng, candidates[i % len(candidates)])
            doc["detector"]["e_det"] = rng.uniform(0.001, 0.06)
            if param == "eta_eff":
                doc["detector"]["y0"] = _log_uniform(rng, 1e-6, 1e-4)
            start, stop, scale = _sweep_range(rng, param)
            args = {"doc": doc, "param": param, "start": start, "stop": stop,
                    "points": rng.choice((21, 31, 41)), "scale": scale}
            cases.append({"kind": "sweep", "group": f"{kind}/{param}", "args": args})
    for _ in range(per_combo):
        base = rng.choice([b for b in bases["fiber"] if b["source"]["kind"] != "decoy"])
        start, stop, _ = _sweep_range(rng, "y0")
        n = rng.choice((21, 31, 41))
        args = {
            "y0": [start * (stop / start) ** (i / (n - 1)) for i in range(n)],
            "det": {"e_det": rng.uniform(0.001, 0.06), "eta_eff": rng.uniform(0.2, 1.0)},
            "source": base["source"],
            "alpha_db_per_km": rng.uniform(0.15, 0.3),
            "mub_count": rng.choice((2, 3)),
        }
        cases.append({"kind": "sweep", "group": "dark_count_sweep", "args": args})
    return cases


def _mc_cases(rng: random.Random, per_kind: int) -> list[dict]:
    cases = []
    for kind, (estimator, mub, trials) in MC_KINDS.items():
        seeds = [rng.getrandbits(64) for _ in range(per_kind - 1)]
        seeds.insert(0, 12345)
        for seed in seeds:
            args = {"estimator": estimator, "mub_count": mub, "trials": trials, "seed": seed}
            if estimator == "pauli_channel":
                args["p"] = _simplex(rng)
            cases.append({"kind": kind, "group": kind, "args": args})
    return cases


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("table", "json", "csv")), "--no-timestamp"]


def _cli_cases(rng: random.Random, per_kind: int, docs: list[dict]) -> list[dict]:
    """CLI invocations; "@<n>" names docs[n], written to a file at set-up."""
    by_kind: dict[str, list[int]] = {}
    for i, doc in enumerate(docs):
        kind = doc["link"]["kind"] if "link" in doc else "chain"
        by_kind.setdefault(kind, []).append(i)
    link_kinds = sorted(k for k in by_kind if k != "chain")
    cases = []

    def add(sub, argv):
        cases.append({"kind": "cli_" + sub, "group": sub, "args": {"argv": [sub] + argv + _fmt(rng)}})

    for i in range(per_kind):
        argv = []
        if i % 3 == 1:
            argv += ["--mub", str(rng.choice((2, 3)))]
        if i % 2 == 0:
            argv += ["--y0", repr(_log_uniform(rng, 1e-9, 1e-4)), "--e-det", repr(rng.uniform(0, 0.4))]
        if i % 4 == 3:
            argv += ["--mc-trials", str(rng.randint(1000, 20000)), "--seed", str(rng.getrandbits(32))]
        add("thresholds", argv)

        p = _simplex(rng)
        add("channel", ["--p"] + [repr(x) for x in p])

        argv = ["--ex", repr(rng.uniform(0, 0.4)), "--ez", repr(rng.uniform(0, 0.4))]
        if i % 2:
            argv += ["--ey", repr(rng.uniform(0, 0.4))]
        add("qber", argv)

        model = ("fiber", "deepspace", "freespace", "satellite")[i % 4]
        argv = [model, "--mub", str(rng.choice((2, 3))),
                "--y0", repr(_log_uniform(rng, 1e-9, 1e-5)), "--e-det", repr(rng.uniform(0.001, 0.06)),
                "--eta-eff", repr(rng.uniform(0.2, 1.0))]
        if rng.random() < 0.5:
            argv += ["--mu", repr(_log_uniform(rng, 0.05, 2.0))]
        if model == "fiber":
            argv += ["--alpha", repr(rng.uniform(0.15, 0.3))]
        else:
            argv += ["--w0", repr(rng.uniform(0.02, 0.3)), "--wavelength", "8e-07",
                     "--aperture", repr(rng.uniform(0.1, 1.0))]
        if model == "satellite":
            argv += ["--zenith-angle", repr(rng.uniform(0, 1))]
        add("max-distance", argv)

        add("repeater", [f"@{rng.choice(by_kind['chain'])}"])

        kind, param = rng.choice([c for c in SWEEP_COMBOS if c[0] in link_kinds and c[1] != "mu"])
        start, stop, scale = _sweep_range(rng, param)
        add("sweep", [f"@{rng.choice(by_kind[kind])}", "--param", param, "--from", repr(start),
                      "--to", repr(stop), "--points", str(rng.choice((11, 21))), "--scale", scale])

        add("run", [f"@{rng.choice(range(len(docs)))}"])
    return cases


def build_pool() -> list[dict]:
    """Every case any workload can draw, in a fixed order; ids are indices."""
    rng = random.Random(POOL_SEED)
    cases = _verdict_cases(rng, 96)
    scenarios = _scenario_cases(rng, 24)
    cases += scenarios
    cases += _sweep_cases(rng, 8)
    cases += _mc_cases(rng, 12)
    cases += _cli_cases(rng, 16, [c["args"]["doc"] for c in scenarios])
    # The malformed cases come last, from their own stream, so that adding
    # them left every earlier case as it was.
    bad_rng = random.Random(POOL_SEED + 1)
    docs = [c["args"]["doc"] for c in scenarios]
    cases += malformed_cases(bad_rng, docs, MALFORMED_COUNT)
    cases += _cli_malformed(bad_rng, docs, malformed_cases(bad_rng, docs, CLI_MALFORMED_COUNT))
    for i, c in enumerate(cases):
        c["id"] = i
    return cases


def scenario_docs(pool: list[dict]) -> list[dict]:
    """The pool's valid scenario documents, then the ones the CLI's
    malformed cases read; "@<n>" in a CLI case names the n-th."""
    valid = [c["args"]["doc"] for c in pool if c["kind"] == "scenario"]
    return valid + [c["args"]["doc"] for c in pool if c["kind"] == "cli_malformed"]


# ---------------------------------------------------------------- malformed inputs

# Numeric fields where null or a negative number is a valid input.
_NULL_OK = {"curvature_m", "e_y"}
_NEGATIVE_OK = {"curvature_m"}
_INTEGER_FIELDS = {"mub_count", "k"}


def _sites(node, path=()):
    """(path, value) for every dict entry and list element below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _sites(value, path + (key,))


def mutations(doc: dict) -> list[tuple[str, tuple]]:
    """Every (mutation, path) that makes a scenario malformed by its documentation."""
    out = [("unknown_key", ())]
    for path, value in _sites(doc):
        field = next((p for p in reversed(path) if isinstance(p, str)), "")
        out.append(("string", path))
        if isinstance(value, dict):
            out.append(("unknown_key", path))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if field not in _NULL_OK:
                out.append(("null", path))
            if field not in _NEGATIVE_OK:
                out.append(("negative", path))
            if field in _INTEGER_FIELDS:
                out.append(("float_for_int", path))
    return out


def apply_mutation(doc: dict, mutation: str, path: tuple) -> dict:
    doc = copy.deepcopy(doc)
    if mutation == "unknown_key":
        target = doc
        for p in path:
            target = target[p]
        target["bogus_field"] = 1
        return doc
    parent = doc
    for p in path[:-1]:
        parent = parent[p]
    key = path[-1]
    if mutation == "string":
        parent[key] = "abc"
    elif mutation == "null":
        parent[key] = None
    elif mutation == "negative":
        parent[key] = -1.0
    else:
        parent[key] = float(parent[key])
    return doc


def site_name(mutation: str, path: tuple) -> str:
    """Input kind label, e.g. "null@solver.d_lo_km" or "string@chain.links[]"."""
    label = "".join("[]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    return f"{mutation}@{label or '<root>'}"


def malformed_cases(rng: random.Random, bases: list[dict], count: int) -> list[dict]:
    """Seeded mutations of valid scenario documents."""
    out = []
    for _ in range(count):
        base = rng.choice(bases)
        mutation, path = rng.choice(mutations(base))
        out.append({
            "kind": "malformed",
            "group": site_name(mutation, path),
            "args": {"doc": apply_mutation(base, mutation, path), "has_link": "link" in base,
                     "has_chain": "chain" in base},
        })
    return out


def _cli_malformed(rng: random.Random, docs: list[dict], malformed: list[dict]) -> list[dict]:
    """CLI cases reading malformed documents, which follow docs in the
    "@<n>" numbering."""
    out = []
    for i, case in enumerate(malformed):
        subs = ["run"]
        if case["args"]["has_link"]:
            subs.append("sweep")
        if case["args"]["has_chain"]:
            subs.append("repeater")
        sub = rng.choice(subs)
        argv = [sub, f"@{len(docs) + i}"]
        if sub == "sweep":
            argv += ["--param", "y0", "--from", "1e-9", "--to", "0.5", "--points", "11"]
        argv += _fmt(rng)
        out.append({**case, "kind": "cli_malformed", "args": {**case["args"], "argv": argv}})
    return out


# ---------------------------------------------------------------- op streams


def _in_slot(slot: str, kind: str) -> bool:
    return kind.startswith("cli_") if slot == "cli" else kind == slot


def op_kinds(workload: str, pool: list[dict]) -> list[str]:
    """Every case kind a workload's stream sends."""
    return sorted({c["kind"] for c in pool for slot in CYCLES[workload] if _in_slot(slot, c["kind"])})


def op_stream(workload: str, seed: int, pool: list[dict]):
    """Endless (op_kind, case) stream for one workload, fixed by seed."""
    rng = random.Random(seed)
    groups: dict[str, list[list[dict]]] = {}
    for slot in sorted(set(CYCLES[workload])):
        by_group: dict[str, list[dict]] = {}
        for c in pool:
            if _in_slot(slot, c["kind"]):
                if slot == "cli" or c["kind"] in SINGLE_GROUP_KINDS:
                    group = c["kind"]
                else:
                    group = c["group"]
                by_group.setdefault(group, []).append(c)
        groups[slot] = [by_group[g] for g in sorted(by_group)]
        for members in groups[slot]:
            rng.shuffle(members)
    turn = dict.fromkeys(groups, 0)
    visits = [0] * sum(len(g) for g in groups.values())
    index = {id(m): i for i, m in enumerate(m for g in groups.values() for m in g)}
    for slot in itertools.cycle(CYCLES[workload]):
        g = groups[slot]
        members = g[turn[slot] % len(g)]
        turn[slot] += 1
        i = index[id(members)]
        case = members[visits[i] % len(members)]
        visits[i] += 1
        yield case["kind"], case


def child_seed(seed: int, child: int) -> int:
    """Seed of one worker process of a run."""
    return random.Random(f"{seed}/{child}").getrandbits(63)
