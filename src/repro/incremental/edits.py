"""The typed edit algebra of the incremental ECO engine.

An *engineering change order* (ECO) arrives as a small set of local
modifications to an already-solved net: a sink's required arrival moved,
a wire segment re-routed, a pin added or dropped, the driver resized.
This module gives each such move a typed, validated representation so
the rest of the subsystem — the
:class:`~repro.incremental.engine.IncrementalSolver`, the ``/session``
endpoints, the ``repro edit`` CLI — can reason about *what changed*
instead of diffing trees.

Each edit is a frozen dataclass with two responsibilities:

* :meth:`Edit.apply` — perform the change on a
  :class:`~repro.tree.routing_tree.RoutingTree` (through the tree's
  validated mutation API) and return an :class:`EditImpact` describing
  the blast radius: the deepest vertex whose *subtree content* changed
  (the dirty anchor the digest update walks up from), plus any
  created/removed node ids;
* a JSON codec (:func:`edit_to_dict` / :func:`edit_from_dict`) in the
  same SI-unit conventions as :mod:`repro.tree.io`, used by the
  ``/session/.../edit`` endpoint and the edit-script files of
  ``repro edit``.

Every failure — unknown node, wrong node kind, invalid value — raises
:class:`~repro.errors.EditError` *before* the tree is touched, so a
rejected edit never leaves a session half-applied.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple, Type

from repro.errors import EditError, ReproError
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


@dataclass(frozen=True)
class EditImpact:
    """What one applied edit did to the net.

    Attributes:
        anchor: The deepest surviving vertex whose subtree *content*
            changed — digests must be recomputed from here up to the
            root.  ``None`` for driver swaps (the driver is outside
            every subtree digest by design).
        structural: Whether the node/edge set changed (the compiled
            schedule must be re-flattened; payload-only edits are
            patched in place instead).
        created: Node ids added by this edit.
        removed: Node ids deleted by this edit.
    """

    anchor: Optional[int]
    structural: bool = False
    created: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()


class Edit:
    """Base class of the edit algebra (see module docstring)."""

    #: JSON ``op`` tag; set per subclass.
    op: str = ""

    def apply(self, tree: RoutingTree) -> EditImpact:
        """Validate against ``tree``, mutate it, and report the impact.

        Raises:
            EditError: The edit does not apply to this net.
        """
        raise NotImplementedError

    def check_finite(self) -> None:
        """Reject NaN/inf payloads (the session patches the compiled
        schedule without re-validating the tree, so the check is here).

        Raises:
            EditError: A numeric field is not finite.
        """
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise EditError(f"{self.op}: {field.name} must be finite, "
                                f"got {value}")

    def describe(self) -> str:
        """One-line human summary (CLI transcripts)."""
        payload = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.op}({payload})"


def _sink(tree: RoutingTree, node_id: int) -> None:
    try:
        node = tree.node(node_id)
    except ReproError as exc:
        raise EditError(str(exc)) from exc
    if not node.is_sink:
        raise EditError(
            f"node {node_id} is a {node.kind.value}, not a sink"
        )


def _non_root(tree: RoutingTree, node_id: int) -> None:
    try:
        tree.node(node_id)
    except ReproError as exc:
        raise EditError(str(exc)) from exc
    if node_id == tree.root_id:
        raise EditError("the source vertex has no incoming wire")


@dataclass(frozen=True)
class SetSinkRAT(Edit):
    """Change a sink's required arrival time (seconds)."""

    node: int
    required_arrival: float
    op = "set_sink_rat"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _sink(tree, self.node)
        tree.set_sink(self.node, required_arrival=self.required_arrival)
        return EditImpact(anchor=self.node)


@dataclass(frozen=True)
class SetSinkCap(Edit):
    """Change a sink's load capacitance (farads)."""

    node: int
    capacitance: float
    op = "set_sink_cap"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _sink(tree, self.node)
        if self.capacitance < 0.0:
            raise EditError(
                f"sink capacitance must be >= 0, got {self.capacitance}"
            )
        tree.set_sink(self.node, capacitance=self.capacitance)
        return EditImpact(anchor=self.node)


@dataclass(frozen=True)
class SetSinkPolarity(Edit):
    """Flip a sink's required signal polarity (+1 or -1)."""

    node: int
    polarity: int
    op = "set_sink_polarity"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _sink(tree, self.node)
        if self.polarity not in (1, -1):
            raise EditError(f"polarity must be +1 or -1, got {self.polarity}")
        tree.set_sink(self.node, polarity=self.polarity)
        return EditImpact(anchor=self.node)


@dataclass(frozen=True)
class SetWire(Edit):
    """Re-parasitize the wire reaching ``node`` (move / re-length).

    ``node`` is the *downstream* endpoint; topology is unchanged.  The
    subtree under ``node`` keeps its digest — only the parent's
    accumulation sees the new ``R``/``C`` — so the anchor is the parent.
    """

    node: int
    resistance: float
    capacitance: float
    length: Optional[float] = None
    op = "set_wire"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _non_root(tree, self.node)
        if self.resistance < 0.0 or self.capacitance < 0.0:
            raise EditError(
                "wire parasitics must be >= 0 "
                f"(R={self.resistance}, C={self.capacitance})"
            )
        tree.set_edge(
            self.node, resistance=self.resistance,
            capacitance=self.capacitance, length=self.length,
        )
        return EditImpact(anchor=tree.edge_to(self.node).parent)


@dataclass(frozen=True)
class SwapDriver(Edit):
    """Replace the source driver (``resistance=None`` = ideal driver).

    The driver sits *outside* the dynamic program's subtree recursion —
    it only scores the finished root frontier — so this edit dirties no
    subtree at all: an incremental re-solve after a driver swap is one
    argmax over the memoized root frontier.
    """

    resistance: Optional[float] = None
    intrinsic_delay: float = 0.0
    name: str = "driver"
    op = "swap_driver"

    def apply(self, tree: RoutingTree) -> EditImpact:
        if self.resistance is None:
            tree.driver = None
        else:
            try:
                tree.driver = Driver(
                    resistance=self.resistance,
                    intrinsic_delay=self.intrinsic_delay,
                    name=self.name,
                )
            except ReproError as exc:
                raise EditError(str(exc)) from exc
        return EditImpact(anchor=None)


@dataclass(frozen=True)
class AddSink(Edit):
    """Attach a new sink pin under an existing vertex."""

    parent: int
    edge_resistance: float
    edge_capacitance: float
    capacitance: float
    required_arrival: float
    polarity: int = 1
    name: str = ""
    op = "add_sink"

    def apply(self, tree: RoutingTree) -> EditImpact:
        try:
            node = tree.node(self.parent)
        except ReproError as exc:
            raise EditError(str(exc)) from exc
        if node.is_sink:
            raise EditError(
                f"cannot attach under sink {self.parent}: sinks are leaves"
            )
        try:
            new_id = tree.add_sink(
                self.parent, self.edge_resistance, self.edge_capacitance,
                capacitance=self.capacitance,
                required_arrival=self.required_arrival,
                polarity=self.polarity, name=self.name,
            )
        except ReproError as exc:
            raise EditError(str(exc)) from exc
        return EditImpact(
            anchor=self.parent, structural=True, created=(new_id,)
        )


@dataclass(frozen=True)
class SplitWire(Edit):
    """Insert an internal vertex (a buffer position) inside a wire.

    The edge reaching ``node`` splits at ``fraction`` of its electrical
    extent; total parasitics are conserved exactly (see
    :meth:`~repro.tree.routing_tree.RoutingTree.split_edge`).
    """

    node: int
    fraction: float = 0.5
    buffer_position: bool = True
    allowed_buffers: Optional[Tuple[str, ...]] = None
    name: str = ""
    op = "split_wire"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _non_root(tree, self.node)
        if not 0.0 < self.fraction < 1.0:
            raise EditError(
                f"split fraction must be inside (0, 1), got {self.fraction}"
            )
        parent = tree.edge_to(self.node).parent
        try:
            new_id = tree.split_edge(
                self.node, fraction=self.fraction,
                buffer_position=self.buffer_position,
                allowed_buffers=self.allowed_buffers, name=self.name,
            )
        except ReproError as exc:
            raise EditError(str(exc)) from exc
        return EditImpact(anchor=parent, structural=True, created=(new_id,))


@dataclass(frozen=True)
class RemoveSubtree(Edit):
    """Drop a vertex and everything below it (ECO pin removal)."""

    node: int
    op = "remove_subtree"

    def apply(self, tree: RoutingTree) -> EditImpact:
        _non_root(tree, self.node)
        parent = tree.edge_to(self.node).parent
        try:
            removed = tree.remove_subtree(self.node)
        except ReproError as exc:
            raise EditError(str(exc)) from exc
        return EditImpact(
            anchor=parent, structural=True, removed=tuple(removed)
        )


#: JSON ``op`` tag -> edit class (the codec's dispatch table).
EDIT_TYPES: Dict[str, Type[Edit]] = {
    cls.op: cls
    for cls in (
        SetSinkRAT, SetSinkCap, SetSinkPolarity, SetWire, SwapDriver,
        AddSink, SplitWire, RemoveSubtree,
    )
}


def edit_to_dict(edit: Edit) -> Dict[str, Any]:
    """Serialize one edit to its JSON object (``{"op": ..., fields}``)."""
    if not isinstance(edit, Edit) or edit.op not in EDIT_TYPES:
        raise EditError(f"not an edit: {edit!r}")
    payload: Dict[str, Any] = {"op": edit.op}
    for key, value in asdict(edit).items():
        if isinstance(value, tuple):
            value = list(value)
        payload[key] = value
    return payload


def edit_from_dict(data: Dict[str, Any]) -> Edit:
    """Parse one edit from its JSON object.

    Raises:
        EditError: Missing/unknown ``op``, unknown fields, or field
            values of the wrong shape (the dataclass raises on type
            misuse at apply time; structural problems surface here).
    """
    if not isinstance(data, dict):
        raise EditError(f"an edit must be an object, got {type(data).__name__}")
    op = data.get("op")
    cls = EDIT_TYPES.get(op)
    if cls is None:
        raise EditError(
            f"unknown edit op {op!r}; known ops: {sorted(EDIT_TYPES)}"
        )
    known = {f.name for f in fields(cls)}
    payload = {key: value for key, value in data.items() if key != "op"}
    unknown = set(payload) - known
    if unknown:
        raise EditError(
            f"unknown fields for {op!r}: {sorted(unknown)} "
            f"(expected among {sorted(known)})"
        )
    if "allowed_buffers" in payload and payload["allowed_buffers"] is not None:
        payload["allowed_buffers"] = tuple(payload["allowed_buffers"])
    try:
        return cls(**payload)
    except TypeError as exc:
        raise EditError(f"bad {op!r} edit: {exc}") from exc
