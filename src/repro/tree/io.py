"""JSON serialization for routing trees and buffer libraries.

The interchange format is deliberately simple: a dict with a ``nodes``
list (pre-order, so parents always precede children), an optional
``driver``, and a format version.  It exists so workloads can be saved,
diffed and reloaded deterministically; it is not an industry format, but
the structure mirrors what a SPEF/DEF importer would produce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import TreeError, TreeStructureError
from repro.library.buffer_type import BufferType
from repro.library.library import BufferLibrary
from repro.tree.node import Driver, Node, NodeKind
from repro.tree.routing_tree import Edge, RoutingTree

FORMAT_VERSION = 1


def tree_to_dict(tree: RoutingTree) -> Dict[str, Any]:
    """Serialize ``tree`` (including its driver) to plain dicts."""
    nodes = []
    for node_id in tree.preorder():
        node = tree.node(node_id)
        entry: Dict[str, Any] = {
            "id": node.node_id,
            "kind": node.kind.value,
            "name": node.name,
        }
        if node.position is not None:
            entry["position"] = list(node.position)
        if node.kind is NodeKind.SINK:
            entry["capacitance"] = node.capacitance
            entry["required_arrival"] = node.required_arrival
            if node.polarity != 1:
                entry["polarity"] = node.polarity
        if node.kind is NodeKind.INTERNAL:
            entry["buffer_position"] = node.is_buffer_position
            if node.allowed_buffers is not None:
                entry["allowed_buffers"] = sorted(node.allowed_buffers)
        if node_id != tree.root_id:
            edge = tree.edge_to(node_id)
            entry["edge"] = {
                "parent": edge.parent,
                "resistance": edge.resistance,
                "capacitance": edge.capacitance,
                "length": edge.length,
            }
        nodes.append(entry)

    data: Dict[str, Any] = {"format_version": FORMAT_VERSION, "nodes": nodes}
    if tree.driver is not None:
        data["driver"] = {
            "resistance": tree.driver.resistance,
            "intrinsic_delay": tree.driver.intrinsic_delay,
            "name": tree.driver.name,
        }
    return data


@dataclass
class NetColumns:
    """A validated net as flat, row-indexed columns (:func:`decode_net`).

    Row ``i`` is entry ``i`` of the serialized ``nodes`` list: row 0 is
    the source and every parent row precedes its children.  It is also
    the node id :func:`build_tree` gives that vertex, so a canonical
    digest computed over the columns
    (:func:`repro.service.canon.canonicalize`) names the same nodes as
    one computed over the built tree.

    Attributes:
        parent: Parent row of every row (``-1`` for the source).
        kind: :class:`NodeKind` of every row.
        payload: The canonical payload text of every row
            (:func:`sink_payload`, :func:`internal_payload` or
            :data:`SOURCE_PAYLOAD`).
        resistance / capacitance: Parasitics of the wire into every row
            (``0.0`` for the source).
        ids: The serialized id of every row.
        num_buffer_positions: Rows that are buffer positions.
        driver: The net's driver, or ``None``.
        nodes: The serialized node entries the columns were decoded
            from; :func:`build_tree` reads the fields the algorithms
            never see (names, positions, lengths) from them.  Empty
            for the columns of a tree (:func:`tree_columns`).
    """

    parent: List[int]
    kind: List[NodeKind]
    payload: List[str]
    resistance: List[float]
    capacitance: List[float]
    ids: List[Any]
    num_buffer_positions: int
    driver: Optional[Driver]
    nodes: List[Dict[str, Any]]

    @property
    def num_nodes(self) -> int:
        return len(self.parent)


def sink_payload(capacitance: float, required_arrival: float,
                 polarity: int) -> str:
    """The canonical payload text of a sink (floats in exact hex form)."""
    return (f"S(c={float(capacitance).hex()},"
            f"q={float(required_arrival).hex()},p={polarity:+d})")


def internal_payload(buffer_position: bool,
                     allowed_buffers: Optional[Iterable[str]]) -> str:
    """The canonical payload text of an internal vertex."""
    allowed = ("*" if allowed_buffers is None
               else ",".join(sorted(set(allowed_buffers))))
    return f"I(bp={int(buffer_position)},f=[{allowed}])"


#: The payload of a source, and that of an unrestricted internal vertex
#: (no ``allowed_buffers``: almost all of them) by buffer-position flag.
SOURCE_PAYLOAD = "N()"
_OPEN_PAYLOAD = (internal_payload(False, None), internal_payload(True, None))


def _type_name(value: Any) -> str:
    return type(value).__name__


def _require_numbers(where: str, **fields: Any) -> None:
    """Raise a :class:`TreeError` naming the first non-numeric field."""
    for field, value in fields.items():
        if not isinstance(value, Real):
            raise TreeError(f"{where} {field!r} must be a number, "
                            f"got {_type_name(value)}")


def _decode_driver(spec: Any) -> Driver:
    if not isinstance(spec, dict):
        raise TreeError(
            f"driver must be an object, got {_type_name(spec)}")
    if "resistance" not in spec:
        raise TreeError("driver: missing field 'resistance'")
    resistance = spec["resistance"]
    intrinsic_delay = spec.get("intrinsic_delay", 0.0)
    _require_numbers("driver: field", resistance=resistance,
                     intrinsic_delay=intrinsic_delay)
    return Driver(resistance=resistance, intrinsic_delay=intrinsic_delay,
                  name=spec.get("name", "driver"))


def decode_net(data: Dict[str, Any]) -> NetColumns:
    """Validate a serialized net and decode it into :class:`NetColumns`.

    One pass over ``data["nodes"]`` makes every check a
    :class:`RoutingTree` built from the same data would make (see
    :meth:`RoutingTree.validate`, :class:`Node` and :class:`Edge`), with
    the same messages, and rejects malformed fields (a missing or
    non-numeric value, a node that is not an object) with a
    :class:`TreeError` naming the node and the field.  No tree object is
    built: a serving cache hit needs only the columns' digest.

    Raises:
        TreeError: ``data`` does not describe a valid routing tree.
    """
    if not isinstance(data, dict):
        raise TreeError(f"a net must be an object, got {_type_name(data)}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TreeError(f"unsupported tree format version: {version!r}")
    driver = _decode_driver(data["driver"]) if "driver" in data else None
    if "nodes" not in data:
        raise TreeError("net: missing field 'nodes'")
    nodes = data["nodes"]
    if not isinstance(nodes, list):
        raise TreeError(
            f"net: field 'nodes' must be a list, got {_type_name(nodes)}")
    if (not nodes or not isinstance(nodes[0], dict)
            or nodes[0].get("kind") != NodeKind.SOURCE.value):
        raise TreeError("first serialized node must be the source")

    sink_kind, internal_kind = NodeKind.SINK, NodeKind.INTERNAL
    parent = [-1]
    kind = [NodeKind.SOURCE]
    payload = [SOURCE_PAYLOAD]
    resistance = [0.0]
    capacitance = [0.0]
    ids: List[Any] = []
    leaf = [True] * len(nodes)
    row_of: Dict[Any, int] = {}
    positions = sinks = 0
    # Non-finite values are reported after the structural checks, first
    # sink then first edge, in the order RoutingTree.validate checks.
    bad_sink = bad_edge = 0
    isfinite = math.isfinite
    for row, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise TreeError(f"node at index {row} must be an object, "
                            f"got {_type_name(entry)}")
        if "id" not in entry:
            raise TreeError(f"node at index {row}: missing field 'id'")
        ident = entry["id"]
        try:
            seen = ident in row_of
        except TypeError:
            raise TreeError(
                f"node at index {row}: field 'id' must be a string or a "
                f"number, got {_type_name(ident)}") from None
        if seen:
            raise TreeError(f"duplicate serialized node id {ident!r}")
        if not row:
            ids.append(ident)
            row_of[ident] = 0
            continue
        edge = entry.get("edge")
        if edge is None:
            raise TreeError(f"non-root node {ident} lacks an edge")
        if not isinstance(edge, dict):
            raise TreeError(f"node {ident}: field 'edge' must be an object, "
                            f"got {_type_name(edge)}")
        try:
            up = row_of.get(edge["parent"])
        except TypeError:  # an unhashable parent id is never seen
            up = None
        except KeyError:
            raise TreeError(f"node {ident}: edge lacks field 'parent'") from None
        if up is None:
            raise TreeError(
                f"node {ident}: parent {edge['parent']!r} not seen yet "
                "(nodes must be serialized parents-first)"
            )
        try:
            r = edge["resistance"]
            c = edge["capacitance"]
        except KeyError as exc:
            raise TreeError(
                f"node {ident}: edge lacks field {exc.args[0]!r}") from None
        length = edge.get("length", 0.0)
        if not (type(r) is float and type(c) is float
                and type(length) is float):
            _require_numbers(f"node {ident}: edge field", resistance=r,
                             capacitance=c, length=length)
        position = entry.get("position")
        if position is not None and not isinstance(position, (list, tuple)):
            raise TreeError(f"node {ident}: field 'position' must be a list "
                            f"of coordinates, got {_type_name(position)}")
        node_kind = entry.get("kind")
        if node_kind == "sink":
            try:
                load = entry["capacitance"]
                rat = entry["required_arrival"]
            except KeyError as exc:
                raise TreeError(
                    f"node {ident}: missing field {exc.args[0]!r}") from None
            if not (type(load) is float and type(rat) is float):
                _require_numbers(f"node {ident}: field", capacitance=load,
                                 required_arrival=rat)
            if load < 0.0:
                raise TreeError(
                    f"sink {row}: capacitance must be >= 0, got {load}")
            polarity = entry.get("polarity", 1)
            if polarity not in (1, -1):
                raise TreeError(f"node {row}: polarity must be +1 or -1, "
                                f"got {polarity}")
            kind.append(sink_kind)
            payload.append(sink_payload(load, rat, int(polarity)))
            sinks += 1
            if not bad_sink and not (isfinite(load) and isfinite(rat)):
                bad_sink = row
        elif node_kind == "internal":
            buffer_position = entry.get("buffer_position", False)
            if buffer_position not in (True, False):
                raise TreeError(
                    f"node {ident}: field 'buffer_position' must be true or "
                    f"false, got {buffer_position!r}")
            allowed = entry.get("allowed_buffers")
            if allowed is None:
                payload.append(_OPEN_PAYLOAD[bool(buffer_position)])
            else:
                if not isinstance(allowed, (list, tuple, set, frozenset)) or \
                        not all(isinstance(name, str) for name in allowed):
                    raise TreeError(
                        f"node {ident}: field 'allowed_buffers' must be a "
                        "list of buffer names")
                if not buffer_position:
                    raise TreeError(
                        f"node {row}: allowed_buffers set on a "
                        "non-buffer-position vertex")
                payload.append(internal_payload(True, allowed))
            kind.append(internal_kind)
            if buffer_position:
                positions += 1
        elif "kind" not in entry:
            raise TreeError(f"node {ident}: missing field 'kind'")
        else:
            raise TreeError(f"unknown node kind {node_kind!r}")
        if kind[up] is sink_kind:
            raise TreeStructureError(
                f"cannot attach node under sink {up}: sinks are leaves")
        if r < 0.0 or c < 0.0:
            raise TreeError(f"edge {up}->{row}: parasitics must be >= 0 "
                            f"(R={r}, C={c})")
        if not bad_edge and not (isfinite(r) and isfinite(c)):
            bad_edge = row
        leaf[up] = False
        parent.append(up)
        resistance.append(r)
        capacitance.append(c)
        ids.append(ident)
        row_of[ident] = row

    for row, (is_leaf, node_kind) in enumerate(zip(leaf, kind)):
        if is_leaf and node_kind is not sink_kind:
            raise TreeStructureError(
                f"leaf node {row} ({node_kind.value}) is not a sink")
    if not sinks:
        raise TreeStructureError("tree has no sinks")
    if bad_sink:
        entry = nodes[bad_sink]
        raise TreeError(
            f"sink {bad_sink}: required arrival and capacitance must be "
            f"finite (RAT={entry['required_arrival']}, "
            f"C={entry['capacitance']})"
        )
    if bad_edge:
        raise TreeError(
            f"edge {parent[bad_edge]}->{bad_edge}: parasitics must be finite "
            f"(R={resistance[bad_edge]}, C={capacitance[bad_edge]})"
        )
    return NetColumns(parent, kind, payload, resistance, capacitance, ids,
                      positions, driver, nodes)


def build_tree(columns: NetColumns) -> RoutingTree:
    """The :class:`RoutingTree` of decoded columns; node ``i`` is row ``i``.

    The columns were validated by :func:`decode_net`, so the tree is
    assembled directly instead of vertex by vertex.
    """
    entries = columns.nodes
    parent = columns.parent
    resistance = columns.resistance
    capacitance = columns.capacitance
    sink_kind, internal_kind = NodeKind.SINK, NodeKind.INTERNAL
    nodes = [Node(node_id=0, kind=NodeKind.SOURCE,
                  name=entries[0].get("name", "src"))]
    edges = []
    for row in range(1, columns.num_nodes):
        node_kind = columns.kind[row]
        entry = entries[row]
        position = entry.get("position")
        if position is not None:
            position = tuple(position)
        name = entry.get("name", "")
        if node_kind is sink_kind:
            nodes.append(Node(
                node_id=row, kind=sink_kind,
                capacitance=entry["capacitance"],
                required_arrival=entry["required_arrival"],
                name=name or f"sink{row}", position=position,
                polarity=int(entry.get("polarity", 1)),
            ))
        else:
            allowed = entry.get("allowed_buffers")
            nodes.append(Node(
                node_id=row, kind=internal_kind,
                is_buffer_position=bool(entry.get("buffer_position", False)),
                allowed_buffers=None if allowed is None else frozenset(allowed),
                name=name or f"v{row}", position=position,
            ))
        edges.append(Edge(parent[row], row, resistance[row], capacitance[row],
                          entry["edge"].get("length", 0.0)))
    return RoutingTree.from_rows(nodes, edges, driver=columns.driver)


def tree_columns(tree: RoutingTree) -> NetColumns:
    """The columns of ``tree``: rows in pre-order, ``ids`` its node ids.

    Children keep their order in the tree (a pre-order visit numbers
    them consecutively), which is the tie order canonical digests rely
    on for interchangeable siblings.
    """
    order = tree.preorder()
    row_of = {node_id: row for row, node_id in enumerate(order)}
    parent = [-1]
    kind = []
    payload = []
    resistance = [0.0]
    capacitance = [0.0]
    positions = 0
    for node_id in order:
        node = tree.node(node_id)
        kind.append(node.kind)
        if node.is_sink:
            payload.append(sink_payload(
                node.capacitance, node.required_arrival, node.polarity))
        elif node.is_source:
            payload.append(SOURCE_PAYLOAD)
        else:
            payload.append(internal_payload(
                node.is_buffer_position, node.allowed_buffers))
            positions += bool(node.is_buffer_position)
        if node_id != tree.root_id:
            edge = tree.edge_to(node_id)
            parent.append(row_of[edge.parent])
            resistance.append(edge.resistance)
            capacitance.append(edge.capacitance)
    return NetColumns(parent, kind, payload, resistance, capacitance, order,
                      positions, tree.driver, [])


def tree_from_dict(
    data: Dict[str, Any], with_id_map: bool = False
) -> Union[RoutingTree, Tuple[RoutingTree, Dict[Any, int]]]:
    """Rebuild a tree from :func:`tree_to_dict` output.

    :func:`decode_net` followed by :func:`build_tree`: node ids are
    re-assigned sequentially in serialized order, and the pre-order
    layout of the format guarantees the same topology and electrical
    data.

    Args:
        data: The serialized tree.
        with_id_map: Also return ``{serialized id: new node id}``, so a
            caller answering in terms of the *serialized* ids (the HTTP
            serving layer does) can translate back.  Ids in a file are
            arbitrary labels; re-assignment means two files describing
            the same tree load identically, but it also means in-memory
            ids need this map to be reported against the file's ids.

    Returns:
        The tree, or ``(tree, id_map)`` when ``with_id_map`` is true.

    Raises:
        TreeError: ``data`` is malformed or not a valid routing tree.
    """
    columns = decode_net(data)
    tree = build_tree(columns)
    if with_id_map:
        return tree, {ident: row for row, ident in enumerate(columns.ids)}
    return tree


def library_to_dict(library: BufferLibrary) -> Dict[str, Any]:
    """Serialize a buffer library."""
    return {
        "format_version": FORMAT_VERSION,
        "buffers": [
            {
                "name": b.name,
                "driving_resistance": b.driving_resistance,
                "input_capacitance": b.input_capacitance,
                "intrinsic_delay": b.intrinsic_delay,
                "cost": b.cost,
                "inverting": b.inverting,
                "max_load": b.max_load,
            }
            for b in library.buffers
        ],
    }


def library_from_dict(data: Dict[str, Any]) -> BufferLibrary:
    """Rebuild a buffer library from :func:`library_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TreeError(f"unsupported library format version: {version!r}")
    return BufferLibrary(
        BufferType(
            name=entry["name"],
            driving_resistance=entry["driving_resistance"],
            input_capacitance=entry["input_capacitance"],
            intrinsic_delay=entry["intrinsic_delay"],
            cost=entry.get("cost", 1.0),
            inverting=entry.get("inverting", False),
            max_load=entry.get("max_load"),
        )
        for entry in data["buffers"]
    )


def tree_to_json(tree: RoutingTree, indent: Union[int, None] = None) -> str:
    """Serialize ``tree`` to a JSON string with deterministic key order.

    ``sort_keys`` makes the text a function of the tree alone, so saved
    nets diff cleanly and byte-equal files imply equal trees.  (Equal
    trees up to naming/ordering are a weaker, solver-level equivalence —
    that is :func:`repro.service.canon.canonicalize`'s job, not this
    format's.)
    """
    return json.dumps(tree_to_dict(tree), indent=indent, sort_keys=True)


def tree_from_json(text: str) -> RoutingTree:
    """Rebuild a tree from :func:`tree_to_json` output."""
    return tree_from_dict(json.loads(text))


def library_to_json(library: BufferLibrary, indent: Union[int, None] = None) -> str:
    """Serialize a buffer library to a JSON string (deterministic keys)."""
    return json.dumps(library_to_dict(library), indent=indent, sort_keys=True)


def library_from_json(text: str) -> BufferLibrary:
    """Rebuild a buffer library from :func:`library_to_json` output."""
    return library_from_dict(json.loads(text))


def save_tree(tree: RoutingTree, path: Union[str, Path]) -> None:
    """Write ``tree`` as JSON to ``path``."""
    Path(path).write_text(tree_to_json(tree, indent=2))


def load_tree(path: Union[str, Path]) -> RoutingTree:
    """Read a tree previously written by :func:`save_tree`."""
    return tree_from_json(Path(path).read_text())
