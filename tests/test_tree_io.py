"""JSON serialization round-trip tests."""

import pytest

from helpers import MALFORMED_NETS, malformed_base
from repro import (
    Driver,
    evaluate_slack,
    insert_buffers,
    load_tree,
    paper_library,
    random_tree_net,
    save_tree,
    two_pin_net,
)
from repro.errors import TreeError
from repro.tree.io import (
    build_tree,
    decode_net,
    library_from_dict,
    library_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.units import fF, ps


@pytest.fixture
def net():
    return random_tree_net(
        10, seed=4, required_arrival=(ps(100.0), ps(900.0)), driver=Driver(300.0)
    )


def test_round_trip_preserves_counts(net):
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.num_nodes == net.num_nodes
    assert copy.num_sinks == net.num_sinks
    assert copy.num_buffer_positions == net.num_buffer_positions


def test_round_trip_preserves_driver(net):
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.driver == net.driver


def test_round_trip_preserves_optimal_slack(net):
    # The strongest invariant: the reloaded instance is the same problem.
    library = paper_library(4)
    copy = tree_from_dict(tree_to_dict(net))
    original = insert_buffers(net, library)
    reloaded = insert_buffers(copy, library)
    assert reloaded.slack == pytest.approx(original.slack, abs=1e-18)


def test_round_trip_preserves_allowed_buffers():
    from repro import RoutingTree

    tree = RoutingTree.with_source()
    tree.add_internal(0, 1.0, fF(1.0), allowed_buffers=["a", "b"])
    tree.add_sink(1, 1.0, fF(1.0), capacitance=fF(2.0), required_arrival=0.0)
    copy = tree_from_dict(tree_to_dict(tree))
    assert copy.node(1).allowed_buffers == frozenset({"a", "b"})


def test_file_round_trip(tmp_path, net):
    path = tmp_path / "net.json"
    save_tree(net, path)
    copy = load_tree(path)
    assert copy.num_nodes == net.num_nodes
    assert evaluate_slack(copy) == pytest.approx(evaluate_slack(net), abs=1e-18)


def test_rejects_unknown_version(net):
    data = tree_to_dict(net)
    data["format_version"] = 99
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_rejects_missing_source():
    with pytest.raises(TreeError):
        tree_from_dict({"format_version": 1, "nodes": []})


def test_rejects_orphan_node(net):
    data = tree_to_dict(net)
    del data["nodes"][1]["edge"]
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_rejects_unknown_kind(net):
    data = tree_to_dict(net)
    data["nodes"][1]["kind"] = "mystery"
    with pytest.raises(TreeError):
        tree_from_dict(data)


def test_positions_preserved():
    net = two_pin_net(length=100.0, num_segments=2)
    copy = tree_from_dict(tree_to_dict(net))
    assert copy.node(1).position == (50.0, 0.0)


def test_library_round_trip():
    library = paper_library(8)
    copy = library_from_dict(library_to_dict(library))
    assert copy == library


def test_library_version_check():
    library = paper_library(2)
    data = library_to_dict(library)
    data["format_version"] = 0
    with pytest.raises(TreeError):
        library_from_dict(data)


@pytest.mark.parametrize("label", sorted(MALFORMED_NETS))
def test_malformed_net_is_a_tree_error(label):
    data = malformed_base()
    tree_from_dict(data)  # the base itself is valid
    MALFORMED_NETS[label](data)
    with pytest.raises(TreeError) as info:
        tree_from_dict(data)
    with pytest.raises(TreeError) as decoded:
        decode_net(data)
    assert str(decoded.value) == str(info.value)


@pytest.mark.parametrize("path,field", [
    (("nodes", 1, "edge", "resistance"), "'resistance'"),
    (("nodes", 4, "required_arrival"), "'required_arrival'"),
])
def test_missing_field_error_names_node_and_field(path, field):
    data = malformed_base()
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    with pytest.raises(TreeError, match=f"node {path[1]}: .*{field}"):
        tree_from_dict(data)


def test_decoded_columns_match_the_built_tree(net):
    columns = decode_net(tree_to_dict(net))
    tree = build_tree(columns)
    assert columns.num_nodes == tree.num_nodes == net.num_nodes
    assert columns.num_buffer_positions == net.num_buffer_positions
    assert columns.driver == net.driver
    for row in range(1, columns.num_nodes):
        edge = tree.edge_to(row)
        assert (edge.parent, edge.resistance, edge.capacitance) == (
            columns.parent[row], columns.resistance[row],
            columns.capacitance[row])
        assert tree.node(row).kind is columns.kind[row]
    tree.validate()


def test_messages_match_the_tree_api():
    # The decoder reports tree-level faults in the words RoutingTree,
    # Node and Edge use for the same fault.
    data = malformed_base()
    data["nodes"][4]["capacitance"] = -1e-15
    with pytest.raises(TreeError,
                       match=r"^sink 4: capacitance must be >= 0, got -1e-15$"):
        tree_from_dict(data)
    data = malformed_base()
    data["nodes"][2]["edge"]["resistance"] = -1.0
    with pytest.raises(TreeError, match=r"^edge 1->2: parasitics must be >= 0"):
        tree_from_dict(data)
    data = malformed_base()
    data["nodes"][6]["required_arrival"] = float("nan")
    with pytest.raises(TreeError, match=r"^sink 6: required arrival and "
                       r"capacitance must be finite"):
        tree_from_dict(data)
    data = malformed_base()
    data["nodes"][3]["edge"]["capacitance"] = float("inf")
    with pytest.raises(TreeError, match=r"^edge 2->3: parasitics must be "
                       r"finite"):
        tree_from_dict(data)
