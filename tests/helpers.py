"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by an
unambiguous module name (``from helpers import ...``): ``conftest`` is a
pytest-managed name that exists once per collected directory, so under a
rootdir that also contains ``benchmarks/conftest.py`` a plain
``import conftest`` can resolve to the wrong file depending on
collection order.  ``helpers`` exists only here.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro import Driver, RoutingTree
from repro.core.candidate import Candidate, SinkDecision
from repro.units import fF, ps

#: Tolerance for slack comparisons in seconds (sub-femtosecond).
SLACK_ATOL = 1e-16


def make_candidates(points: Sequence[Tuple[float, float]]) -> List[Candidate]:
    """Candidates from raw (q, c) pairs with dummy sink decisions."""
    return [Candidate(q=q, c=c, decision=SinkDecision(i)) for i, (q, c) in enumerate(points)]


def qc(candidates: Sequence[Candidate]) -> List[Tuple[float, float]]:
    """The (q, c) pairs of a candidate list, for equality assertions."""
    return [(cand.q, cand.c) for cand in candidates]


def relabeled(
    tree: RoutingTree, rename: bool = True, reverse_children: bool = False
) -> RoutingTree:
    """A structurally identical tree with new names and/or child order.

    Rebuilt through the tree API, so node ids are reassigned too: attach
    order is child order, and reversing it at every vertex exercises the
    canonicalization's sibling sort (tests for :mod:`repro.service`).
    """
    twin = RoutingTree.with_source(driver=tree.driver)
    mapping = {tree.root_id: twin.root_id}
    stack = [tree.root_id]
    counter = 0
    while stack:
        node_id = stack.pop()
        children = tree.children_of(node_id)
        if reverse_children:
            children = tuple(reversed(children))
        for child_id in children:
            node = tree.node(child_id)
            edge = tree.edge_to(child_id)
            counter += 1
            name = f"renamed_{counter * 31 + 7}" if rename else node.name
            if node.is_sink:
                mapping[child_id] = twin.add_sink(
                    mapping[node_id], edge.resistance, edge.capacitance,
                    capacitance=node.capacitance,
                    required_arrival=node.required_arrival,
                    name=name, polarity=node.polarity,
                )
            else:
                mapping[child_id] = twin.add_internal(
                    mapping[node_id], edge.resistance, edge.capacitance,
                    buffer_position=node.is_buffer_position,
                    allowed_buffers=node.allowed_buffers,
                    name=name,
                )
            stack.append(child_id)
    return twin


def random_small_tree(seed: int, max_extra: int = 3) -> RoutingTree:
    """A random tree with <= ~7 buffer positions, for oracle tests.

    The shape mixes chains and branches so merges happen above buffer
    positions (the structurally interesting case).
    """
    rng = random.Random(seed)
    tree = RoutingTree.with_source(driver=Driver(rng.uniform(100.0, 800.0)))

    def wire() -> Tuple[float, float]:
        return rng.uniform(5.0, 400.0), fF(rng.uniform(2.0, 60.0))

    def sink(parent: int) -> None:
        r, c = wire()
        tree.add_sink(
            parent,
            r,
            c,
            capacitance=fF(rng.uniform(2.0, 41.0)),
            required_arrival=ps(rng.uniform(0.0, 1500.0)),
        )

    # A short chain off the source, then a branch, then short chains.
    r, c = wire()
    node = tree.add_internal(tree.root_id, r, c)
    for _ in range(rng.randrange(max_extra)):
        r, c = wire()
        node = tree.add_internal(node, r, c)
    branches = rng.choice([1, 2, 2, 3])
    for _ in range(branches):
        child = node
        for _ in range(rng.randrange(1, 3)):
            r, c = wire()
            child = tree.add_internal(child, r, c)
        sink(child)
    tree.validate()
    return tree


def require_backend(backend: str) -> None:
    """Skip the calling test when ``backend`` cannot run here (soa needs
    numpy; native also needs its executor to build and load)."""
    import pytest

    if backend == "object":
        return
    pytest.importorskip("numpy")
    if backend == "native":
        from repro.core import native

        if not native.available():
            pytest.skip(f"native executor unavailable: "
                        f"{native.unavailable_reason()}")


# -- malformed serialized nets ------------------------------------------------

def malformed_base() -> dict:
    """A valid serialized net the :data:`MALFORMED_NETS` mutations break.

    Rows: 0 source; 1, 2, 3, 7 buffer positions; 4, 5, 6, 8, 9 sinks
    (4 and 5 under 3, 8 and 9 under 7); plus a driver.
    """
    from repro import random_tree_net
    from repro.tree.io import tree_to_dict

    data = tree_to_dict(random_tree_net(5, seed=1))
    data["driver"] = {"resistance": 100.0, "intrinsic_delay": 0.0}
    return data


def _setter(path, value):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _dropper(path):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


def _allowed_off_a_position(data):
    data["nodes"][1]["buffer_position"] = False
    data["nodes"][1]["allowed_buffers"] = ["b0"]


def _childless_internal(data):
    del data["nodes"][8:10]


#: Mutations of :func:`malformed_base` that every net reader must reject
#: with a :class:`~repro.errors.TreeError` (each mutates in place).
MALFORMED_NETS = {
    "wrong format version": _setter(("format_version",), 2),
    "missing nodes": _dropper(("nodes",)),
    "nodes not a list": _setter(("nodes",), {"0": {}}),
    "empty nodes": _setter(("nodes",), []),
    "first node not the source": _setter(("nodes", 0, "kind"), "internal"),
    "node not an object": _setter(("nodes", 2), [1, 2]),
    "node is a string": _setter(("nodes", 4), "sink"),
    "missing id": _dropper(("nodes", 2, "id")),
    "unhashable id": _setter(("nodes", 2, "id"), [2]),
    "duplicate id": _setter(("nodes", 3, "id"), 2),
    "missing kind": _dropper(("nodes", 3, "kind")),
    "unknown kind": _setter(("nodes", 1, "kind"), "mystery"),
    "no edge": _dropper(("nodes", 1, "edge")),
    "edge not an object": _setter(("nodes", 1, "edge"), 5.0),
    "edge without parent": _dropper(("nodes", 3, "edge", "parent")),
    "edge without resistance": _dropper(("nodes", 1, "edge", "resistance")),
    "edge without capacitance": _dropper(("nodes", 2, "edge", "capacitance")),
    "string resistance": _setter(("nodes", 1, "edge", "resistance"), "40"),
    "null wire capacitance": _setter(("nodes", 4, "edge", "capacitance"),
                                     None),
    "string length": _setter(("nodes", 2, "edge", "length"), "far"),
    "negative resistance": _setter(("nodes", 1, "edge", "resistance"), -1.0),
    "parent not seen yet": _setter(("nodes", 1, "edge", "parent"), 7),
    "unhashable parent": _setter(("nodes", 1, "edge", "parent"), [0]),
    "attached under a sink": _setter(("nodes", 5, "edge", "parent"), 4),
    "position not a list": _setter(("nodes", 1, "position"), 5),
    "sink without capacitance": _dropper(("nodes", 4, "capacitance")),
    "sink without required arrival": _dropper(
        ("nodes", 6, "required_arrival")),
    "string sink load": _setter(("nodes", 4, "capacitance"), "1e-15"),
    "negative sink load": _setter(("nodes", 4, "capacitance"), -1e-15),
    "bad polarity": _setter(("nodes", 5, "polarity"), 2),
    "buffer_position not a flag": _setter(
        ("nodes", 1, "buffer_position"), "yes"),
    "allowed_buffers not a list": _setter(
        ("nodes", 1, "allowed_buffers"), "b0"),
    "allowed_buffers off a position": _allowed_off_a_position,
    "childless internal vertex": _childless_internal,
    "driver not an object": _setter(("driver",), 100.0),
    "driver without resistance": _dropper(("driver", "resistance")),
    "string driver resistance": _setter(("driver", "resistance"), "100"),
    "negative driver resistance": _setter(("driver", "resistance"), -5.0),
}
