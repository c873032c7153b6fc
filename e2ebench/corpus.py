"""Seeded inputs for the three workloads.

Everything here is a pure function of ``(seed, scale)``: the same seed
always yields the same nets, libraries and edit streams, and the program
under test only ever sees the generated inputs.  ``scale`` shrinks every
net (sinks and buffer positions) for the benchmark's own smoke tests;
measured runs use ``scale=1``.

Net classes follow the paper's Table 1 (``ind337`` / ``ind1944`` /
``ind2676``, about 580 / 3300 / 4560 buffer positions in the repo's
scaled form) and the Fig. 4 trunk.  A seed varies the instance — pin
placement, sink loads, RAT spread, driver strength — never the class.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Tuple

from repro import paper_library
from repro.experiments.workloads import (
    FIG4_NET,
    TABLE1_NETS,
    build_net,
    make_corners,
)
from repro.tree.io import library_to_dict, tree_from_dict, tree_to_dict

#: Table 1 net classes by name.
NET_CLASSES = {spec.name: spec for spec in TABLE1_NETS}

#: paper_solve's round: every Table 1 class at b = 8 / 32 / 64, then the
#: Fig. 4 trunk at 2000 and 4000 positions with b = 32.
PAPER_CELLS: Tuple[Tuple[str, int, int], ...] = tuple(
    (name, b, 0) for name in NET_CLASSES for b in (8, 32, 64)
) + (("trunk", 32, 2000), ("trunk", 32, 4000))

#: Driver resistances (ohms) of paper_solve's driver-sizing sweep.  The
#: sweep (on each ind337 net) and the three corner groups per round are
#: assumptions: no captured trace gives in-process call shares.
SWEEP_DRIVERS: Tuple[float, ...] = (90.0, 350.0, 1200.0)

#: Members of a group call: corners of a /batch, edits of an ECO pass.
GROUP_SIZE = 8

_BUILD = build_net.__wrapped__  # bypass the lru_cache: every net is fresh


def _seeds(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def library(size: int, seed: int):
    """The paper library of ``size`` types, jittered per seed."""
    return paper_library(size, jitter=0.03, seed=seed * 131 + size)


def table1_net(name: str, rng: random.Random, scale: float = 1.0):
    """A fresh instance of a Table 1 net class."""
    spec = NET_CLASSES[name]
    spec = dataclasses.replace(
        spec,
        seed=rng.randrange(1 << 30),
        sinks=max(2, round(spec.sinks * min(1.0, scale * 4))),
        target_positions=max(8, round(spec.target_positions * scale)),
        driver_resistance=rng.uniform(150.0, 250.0),
    )
    return _BUILD(spec)


def trunk_net(positions: int, rng: random.Random, scale: float = 1.0):
    """A fresh Fig. 4 trunk: seeded length, RAT and driver."""
    spec = dataclasses.replace(
        FIG4_NET,
        die_size=FIG4_NET.die_size * rng.uniform(0.9, 1.1),
        rat_window_ps=(9000.0,) * 2,
        driver_resistance=rng.uniform(150.0, 250.0),
    )
    return _BUILD(spec, max(8, round(positions * scale)))


def corner_dicts(rng: random.Random, scale: float = 1.0):
    """``GROUP_SIZE`` R/C corners of one fresh ind337-class net, as dicts.

    The same corners :func:`~repro.experiments.workloads.corner_variants`
    builds (``make_corners`` scales every wire's R and C), without its
    deep copies.
    """
    base = tree_to_dict(table1_net("ind337", rng, scale))
    out = []
    for _, r_scale, c_scale in make_corners(GROUP_SIZE):
        nodes = []
        for node in base["nodes"]:
            edge = node.get("edge")
            if edge is not None:
                node = dict(node, edge=dict(
                    edge, resistance=edge["resistance"] * r_scale,
                    capacitance=edge["capacitance"] * c_scale))
            nodes.append(node)
        out.append(dict(base, nodes=nodes))
    return out


def corner_group(rng: random.Random, scale: float = 1.0):
    """The corners of :func:`corner_dicts` as routing trees."""
    return [tree_from_dict(spec) for spec in corner_dicts(rng, scale)]


@dataclasses.dataclass
class PaperRound:
    """One round of paper_solve: cold cells (each ind337 one also takes
    the driver sweep) and three corner groups."""

    cells: List[Tuple[str, int, Any]]  # (cell label, b, tree)
    groups: List[list]                 # corner groups at b = 32


def paper_corpus(seed: int, rounds: int, scale: float = 1.0):
    """``rounds`` rounds of fresh paper_solve inputs plus libraries."""
    rng = _seeds(seed, "paper")
    libraries = {b: library(b, seed) for b in (8, 32, 64)}
    out = []
    for _ in range(rounds):
        cells = []
        for name, b, positions in PAPER_CELLS:
            if name == "trunk":
                tree = trunk_net(positions, rng, scale)
                label = f"trunk{positions}"
            else:
                tree = table1_net(name, rng, scale)
                label = name
            cells.append((f"{label}/b{b}", b, tree))
        groups = [corner_group(rng, scale) for _ in range(3)]
        out.append(PaperRound(cells=cells, groups=groups))
    return libraries, out


def warmup_net(seed: int, scale: float = 1.0):
    """A small net outside every timed corpus (warm-up only)."""
    return table1_net("ind337", _seeds(seed, "warmup"), scale)


# -- serving inputs ------------------------------------------------------

SERVE_LIBRARY_SIZE = 32
ECO_LIBRARY_SIZE = 8


def serve_corpus(
    seed: int, rounds: int, misses: int, hits: int, batches: int,
    hot: int, scale: float = 1.0,
):
    """serve_mix's inputs: ``(library, hot nets, request stream)``.

    The hot nets are sent once during set-up, which puts them in the
    server's cache.  The stream is ``rounds`` shuffled rounds of
    ``(kind, payload)`` tuples: ``"miss"`` (a fresh ind1944-class net),
    ``"hit"`` (the next hot net, in turn) and ``"batch"`` (the corners
    of a fresh ind337-class net).  Payloads are the JSON-ready net dicts
    the client sends.
    """
    rng = _seeds(seed, "serve")
    hot_nets = [tree_to_dict(table1_net("ind1944", rng, scale))
                for _ in range(hot)]
    stream = []
    repeats = 0
    for _ in range(rounds):
        ops = [("miss", tree_to_dict(table1_net("ind1944", rng, scale)))
               for _ in range(misses)]
        for _ in range(hits):
            ops.append(("hit", hot_nets[repeats % hot]))
            repeats += 1
        ops += [("batch", corner_dicts(rng, scale))
                for _ in range(batches)]
        rng.shuffle(ops)
        stream.extend(ops)
    lib = library_to_dict(library(SERVE_LIBRARY_SIZE, seed))
    return lib, hot_nets, stream


#: ECO edit mix, as cumulative shares.  The captured session requests in
#: ``tests/data/workload_mixed.jsonl`` hold only RAT changes and driver
#: swaps, four to one; that ratio is kept.  The shares of load, wire and
#: topology edits are assumptions: the corpus has none of them.
EDIT_MIX: Tuple[Tuple[str, float], ...] = (
    ("set_sink_rat", 0.40),
    ("set_sink_cap", 0.55),
    ("set_wire", 0.75),
    ("swap_driver", 0.85),
    ("add_sink", 0.925),
    ("split_wire", 1.0),
)


def _edit(rng: random.Random, sinks, wires, inner) -> Dict[str, Any]:
    """One seeded single edit on ``net`` (ids in its serialized space)."""
    roll = rng.random()
    op = next(name for name, share in EDIT_MIX if roll < share)
    if op == "set_sink_rat":
        node = rng.choice(sinks)
        return {"op": "set_sink_rat", "node": node["id"],
                "required_arrival": node["required_arrival"]
                * rng.uniform(0.8, 1.2)}
    if op == "set_sink_cap":
        node = rng.choice(sinks)
        return {"op": "set_sink_cap", "node": node["id"],
                "capacitance": node["capacitance"] * rng.uniform(0.7, 1.4)}
    if op == "set_wire":
        node = rng.choice(wires)
        edge = node["edge"]
        factor = rng.uniform(0.8, 1.25)
        return {"op": "set_wire", "node": node["id"],
                "resistance": edge["resistance"] * factor,
                "capacitance": edge["capacitance"] * factor}
    if op == "swap_driver":
        return {"op": "swap_driver",
                "resistance": rng.uniform(120.0, 300.0)}
    if op == "add_sink":
        parent = rng.choice(inner)
        return {"op": "add_sink", "parent": parent["id"],
                "edge_resistance": rng.uniform(5.0, 50.0),
                "edge_capacitance": rng.uniform(2e-15, 2e-14),
                "capacitance": rng.uniform(2e-15, 4.1e-14),
                "required_arrival": rng.uniform(5e-10, 3e-9)}
    node = rng.choice(wires)
    return {"op": "split_wire", "node": node["id"],
            "fraction": rng.uniform(0.2, 0.8)}


@dataclasses.dataclass
class EcoSession:
    """One ECO session: its net and the edit requests it will send."""

    net: Dict[str, Any]
    requests: List[List[Dict[str, Any]]]  # each one /edit call's edits


def eco_corpus(seed: int, sessions: int, singles: int, scale: float = 1.0):
    """Sessions on fresh ind1944-class nets with seeded edit streams.

    Each session sends ``singles`` one-edit requests and one
    ``GROUP_SIZE``-edit request (the group), each followed by a resolve;
    the group's position in the stream is seeded.  Edits only address
    nodes of the original net, which no edit in the mix removes.
    """
    rng = _seeds(seed, "eco")
    out = []
    for _ in range(sessions):
        net = tree_to_dict(table1_net("ind1944", rng, scale))
        nodes = net["nodes"]
        sinks = [n for n in nodes if n["kind"] == "sink"]
        wires = [n for n in nodes if "edge" in n]
        inner = [n for n in nodes if n["kind"] != "sink"]
        requests = [[_edit(rng, sinks, wires, inner)]
                    for _ in range(singles)]
        group = [_edit(rng, sinks, wires, inner)
                 for _ in range(GROUP_SIZE)]
        requests.insert(rng.randrange(singles + 1), group)
        out.append(EcoSession(net=net, requests=requests))
    return library_to_dict(library(ECO_LIBRARY_SIZE, seed)), out

