"""Compiled solve schedules: parity, caching, pickling, the arena.

The acceptance bar for the compiled execution layer is the same as the
SoA backend's: *bit identity* with the reference path.  The interpreter
performs the same IEEE-754 operations on the same inputs in dependency
order, so slack, driver load, the full assignment — and even the DP
statistics (peak list length, candidates generated) — must compare
equal with ``==``, never approx.
"""

import pickle

import pytest

from helpers import random_small_tree

from repro import (
    Driver,
    RoutingTree,
    compile_net,
    insert_buffers,
    paper_library,
    solve_many,
    two_pin_net,
    uniform_random_library,
)
from repro.core.schedule import (
    OP_BUFFER,
    OP_FINAL,
    OP_MERGE,
    OP_SINK,
    OP_WIRE,
    CompiledNet,
    auto_compile,
    cached_schedule,
    clear_schedule_cache,
)
from repro.core.stores import resolve_backend
from repro.errors import AlgorithmError
from repro.units import fF, ps

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

BACKENDS = ["object"] + (["soa"] if numpy is not None else [])


def assert_identical(a, b):
    assert a.slack == b.slack  # exact: same bits
    assert a.driver_load == b.driver_load
    assert a.assignment == b.assignment


def assert_same_stats(a, b):
    assert a.stats.peak_list_length == b.stats.peak_list_length
    assert a.stats.candidates_generated == b.stats.candidates_generated
    assert a.stats.root_candidates == b.stats.root_candidates


# ----------------------------------------------------------------------
# Parity: compiled interpreter vs tree walk
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["fast", "lillis"])
@pytest.mark.parametrize("seed", range(20))
def test_compiled_parity_on_random_trees(algorithm, backend, seed):
    tree = random_small_tree(seed)
    library = uniform_random_library(5, seed=seed + 500)
    with auto_compile(False):
        walk = insert_buffers(tree, library, algorithm=algorithm,
                              backend=backend)
    compiled = compile_net(tree, library)
    result = insert_buffers(compiled, library, algorithm=algorithm,
                            backend=backend)
    assert_identical(walk, result)
    assert_same_stats(walk, result)
    assert result.stats.backend == backend
    # Repeat solves (warm factory/arena) stay identical.
    again = insert_buffers(compiled, library, algorithm=algorithm,
                           backend=backend)
    assert_identical(result, again)
    assert_same_stats(result, again)


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parity_van_ginneken(backend):
    tree = two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=48)
    library = paper_library(1)
    with auto_compile(False):
        walk = insert_buffers(tree, library, algorithm="van_ginneken",
                              backend=backend)
    result = insert_buffers(compile_net(tree, library), library,
                            algorithm="van_ginneken", backend=backend)
    assert_identical(walk, result)
    assert result.stats.algorithm == "van_ginneken"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("destructive", [False, True])
def test_compiled_parity_destructive_pruning(backend, destructive):
    tree = two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=64)
    library = paper_library(8)
    with auto_compile(False):
        walk = insert_buffers(tree, library, backend=backend,
                              destructive_pruning=destructive)
    result = insert_buffers(compile_net(tree, library), library,
                            backend=backend,
                            destructive_pruning=destructive)
    assert_identical(walk, result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parity_with_restricted_and_steiner_nodes(backend):
    """Allowed-buffer subsets, empty subsets and pure Steiner points."""
    library = paper_library(4)
    names = [b.name for b in library.buffers]
    tree = RoutingTree.with_source(driver=Driver(400.0))
    v1 = tree.add_internal(0, 120.0, fF(30.0), allowed_buffers=[names[0]])
    v2 = tree.add_internal(v1, 90.0, fF(20.0), buffer_position=False)
    v3 = tree.add_internal(v2, 90.0, fF(20.0), allowed_buffers=[])
    tree.add_sink(v3, 60.0, fF(10.0), capacitance=fF(15.0),
                  required_arrival=ps(700.0))
    tree.add_sink(v2, 80.0, fF(12.0), capacitance=fF(18.0),
                  required_arrival=ps(900.0))
    with auto_compile(False):
        walk = insert_buffers(tree, library, backend=backend)
    result = insert_buffers(compile_net(tree, library), library,
                            backend=backend)
    assert_identical(walk, result)
    assert_same_stats(walk, result)


def test_compiled_driver_override_and_default():
    tree = random_small_tree(4)
    library = uniform_random_library(4, seed=9)
    compiled = compile_net(tree, library)
    assert compiled.driver == tree.driver
    strong = insert_buffers(compiled, library, driver=Driver(10.0))
    weak = insert_buffers(compiled, library, driver=Driver(5000.0))
    assert strong.slack > weak.slack
    with auto_compile(False):
        default = insert_buffers(tree, library)
    assert insert_buffers(compiled, library).slack == default.slack


# ----------------------------------------------------------------------
# Instruction stream shape
# ----------------------------------------------------------------------


def test_schedule_instruction_counts():
    tree = random_small_tree(11)
    library = paper_library(4)
    compiled = compile_net(tree, library)
    codes = [op & 3 for op in compiled.ops]
    merges = sum(
        len(tree.children_of(n.node_id)) - 1
        for n in tree.nodes() if not n.is_sink
    )
    assert codes.count(OP_SINK) == tree.num_sinks == compiled.num_sinks
    assert codes.count(OP_WIRE) == tree.num_nodes - 1
    assert codes.count(OP_MERGE) == merges
    assert codes.count(OP_BUFFER) == tree.num_buffer_positions
    # Exactly one node-final instruction per vertex.
    finals = sum(1 for op in compiled.ops if op & OP_FINAL)
    assert finals == tree.num_nodes
    assert len(compiled) == len(compiled.ops) == len(compiled.args)


def test_compile_invalid_tree_rejected():
    tree = RoutingTree.with_source()  # no sinks
    with pytest.raises(AlgorithmError, match="invalid routing tree"):
        compile_net(tree, paper_library(2))


def test_compiled_rejects_mismatched_library():
    tree = random_small_tree(0)
    compiled = compile_net(tree, paper_library(4))
    with pytest.raises(AlgorithmError, match="different buffer"):
        insert_buffers(compiled, paper_library(8))


def test_compiled_rejects_list_level_overrides():
    from repro.core.dp import run_dynamic_program

    tree = random_small_tree(1)
    library = paper_library(2)
    compiled = compile_net(tree, library)
    with pytest.raises(AlgorithmError, match="RoutingTree"):
        run_dynamic_program(
            compiled, library, lambda lst, plan: lst, algorithm="hooked",
            add_wire=lambda lst, r, c: lst, backend="object",
        )


# ----------------------------------------------------------------------
# Repeat-solve caching
# ----------------------------------------------------------------------


def test_auto_compile_caches_on_first_solve():
    tree = random_small_tree(7)
    library = uniform_random_library(4, seed=70)
    clear_schedule_cache()
    assert cached_schedule(tree, library) is None
    first = insert_buffers(tree, library)
    compiled = cached_schedule(tree, library)
    assert isinstance(compiled, CompiledNet)
    second = insert_buffers(tree, library)  # interpreter path
    assert_identical(first, second)
    assert_same_stats(first, second)


def test_auto_compile_disabled_does_not_cache():
    tree = random_small_tree(8)
    library = uniform_random_library(4, seed=80)
    clear_schedule_cache()
    with auto_compile(False):
        insert_buffers(tree, library)
        assert cached_schedule(tree, library) is None


def test_cache_invalidated_when_tree_grows():
    tree = random_small_tree(9)
    library = uniform_random_library(4, seed=90)
    before = insert_buffers(tree, library)
    assert cached_schedule(tree, library) is not None
    tree.add_sink(0, 200.0, fF(30.0), capacitance=fF(25.0),
                  required_arrival=ps(100.0))
    assert cached_schedule(tree, library) is None  # stale entry ignored
    after = insert_buffers(tree, library)
    with auto_compile(False):
        fresh = insert_buffers(tree, library)
    assert_identical(after, fresh)
    assert after.slack != before.slack or after.assignment != before.assignment


def test_cache_invalidated_by_sink_mutation():
    """In-place required-arrival edits must not serve stale schedules."""
    tree = two_pin_net(length=8000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(900.0), driver=Driver(200.0),
                       num_segments=32)
    library = paper_library(4)
    before = insert_buffers(tree, library)
    assert cached_schedule(tree, library) is not None
    for node in tree.sinks():
        node.required_arrival = node.required_arrival / 2.0
    assert cached_schedule(tree, library) is None
    after = insert_buffers(tree, library)
    with auto_compile(False):
        fresh = insert_buffers(tree, library)
    assert_identical(after, fresh)
    assert after.slack != before.slack


def test_cache_invalidated_by_driver_mutation():
    tree = random_small_tree(18)
    library = uniform_random_library(4, seed=180)
    insert_buffers(tree, library)
    assert cached_schedule(tree, library) is not None
    tree.driver = Driver(resistance=tree.driver.resistance * 7.0)
    assert cached_schedule(tree, library) is None
    after = insert_buffers(tree, library)
    with auto_compile(False):
        assert_identical(after, insert_buffers(tree, library))


def test_cache_invalidated_by_library_change():
    tree = random_small_tree(10)
    small = uniform_random_library(3, seed=100)
    large = uniform_random_library(6, seed=101)
    insert_buffers(tree, small)
    assert cached_schedule(tree, small) is not None
    assert cached_schedule(tree, large) is None
    result = insert_buffers(tree, large)
    with auto_compile(False):
        assert_identical(result, insert_buffers(tree, large))


# ----------------------------------------------------------------------
# Pickling and batch dispatch
# ----------------------------------------------------------------------


def test_compiled_net_pickle_roundtrip():
    tree = random_small_tree(12)
    library = uniform_random_library(5, seed=120)
    compiled = compile_net(tree, library)
    reference = insert_buffers(compiled, library)
    clone = pickle.loads(pickle.dumps(compiled))
    assert isinstance(clone, CompiledNet)
    assert clone.ops == compiled.ops
    assert clone.num_buffer_positions == compiled.num_buffer_positions
    result = insert_buffers(clone, clone.library)
    assert result.slack == reference.slack
    assert result.assignment == reference.assignment
    # The original keeps working after its clone was pickled away.
    assert insert_buffers(compiled, library).slack == reference.slack


def test_compiled_payload_smaller_than_tree():
    tree = two_pin_net(length=20_000.0, sink_capacitance=fF(20.0),
                       required_arrival=ps(2000.0), driver=Driver(200.0),
                       num_segments=200)
    library = paper_library(8)
    compiled = compile_net(tree, library)
    assert len(pickle.dumps(compiled)) < len(pickle.dumps(tree))


def test_solve_many_validates_each_net_exactly_once(monkeypatch):
    trees = [random_small_tree(seed) for seed in range(4)]
    library = paper_library(4)
    calls = []
    original = RoutingTree.validate

    def counting_validate(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RoutingTree, "validate", counting_validate)
    results = solve_many(trees, library, jobs=1)
    assert len(results) == len(trees)
    assert len(calls) == len(trees)


@pytest.mark.parametrize("precompile", [False, True])
def test_solve_many_precompile_parity(precompile):
    trees = [random_small_tree(seed) for seed in range(5)]
    library = paper_library(4)
    reference = [insert_buffers(t, library) for t in trees]
    results = solve_many(trees, library, jobs=1, precompile=precompile)
    for got, want in zip(results, reference):
        assert_identical(got, want)


def test_solve_many_ships_compiled_nets_to_workers():
    trees = [random_small_tree(seed) for seed in range(6)]
    library = paper_library(4)
    serial = solve_many(trees, library, jobs=1)
    parallel = solve_many(trees, library, jobs=2)
    for got, want in zip(parallel, serial):
        assert_identical(got, want)


def test_solve_many_accepts_precompiled_nets():
    trees = [random_small_tree(seed) for seed in range(3)]
    library = paper_library(4)
    compiled = [compile_net(t, library) for t in trees]
    reference = solve_many(trees, library, jobs=1)
    results = solve_many(compiled, library, jobs=1)
    for got, want in zip(results, reference):
        assert_identical(got, want)


# ----------------------------------------------------------------------
# Backend auto-selection
# ----------------------------------------------------------------------


def _expected_auto():
    from repro.core import native

    if numpy is None:
        return "object"
    return "native" if native.available() else "soa"


def test_resolve_backend_auto():
    assert resolve_backend("object") == "object"
    assert resolve_backend("soa") == "soa"
    assert resolve_backend("auto") == _expected_auto()


def test_insert_buffers_auto_backend():
    tree = random_small_tree(14)
    library = uniform_random_library(4, seed=140)
    result = insert_buffers(tree, library, backend="auto")
    assert result.stats.backend == _expected_auto()
    explicit = insert_buffers(tree, library, backend="object")
    assert_identical(result, explicit)


def test_unknown_backend_still_rejected():
    tree = random_small_tree(15)
    with pytest.raises(AlgorithmError, match="unknown candidate-store"):
        insert_buffers(tree, uniform_random_library(3, seed=1),
                       backend="warp_drive")


# ----------------------------------------------------------------------
# Scratch arena (SoA backend)
# ----------------------------------------------------------------------


@pytest.mark.skipif(numpy is None, reason="numpy required for the arena")
class TestScratchArena:
    def test_blocks_are_recycled(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        view = arena.f8(10)
        block = view.base
        assert len(block) == 16  # next power of two
        arena.recycle(view)
        again = arena.f8(12)
        assert again.base is block  # same block, reused
        assert len(again) == 12

    def test_dtype_pools_are_separate(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        floats = arena.f8(4)
        ints = arena.ip(4)
        assert floats.dtype == numpy.float64
        assert ints.dtype == numpy.intp
        arena.recycle(floats)
        arena.recycle(ints)
        assert arena.f8(4).dtype == numpy.float64
        assert arena.ip(4).dtype == numpy.intp

    def test_double_recycle_is_ignored(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        view = arena.f8(5)
        arena.recycle(view)
        arena.recycle(view)  # second call must not double-pool the block
        first = arena.f8(5)
        second = arena.f8(5)
        assert first.base is not second.base

    def test_reset_forgets_outstanding_loans(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        leaked = arena.f8(6)
        arena.reset()
        arena.recycle(leaked)  # dead loan: ignored, not pooled
        assert arena.f8(6).base is not leaked.base

    def test_empty_borrows_share_singleton(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        assert len(arena.f8(0)) == 0
        assert arena.f8(0) is arena.f8(0)
        arena.recycle(arena.f8(0))  # no-op

    def test_iota_grows_and_matches_arange(self):
        from repro.core.stores.soa import ScratchArena

        arena = ScratchArena()
        assert arena.iota(5).tolist() == list(range(5))
        assert arena.iota(300).tolist() == list(range(300))


@pytest.mark.skipif(numpy is None, reason="numpy required for SoA")
def test_factory_reuse_isolated_across_solves():
    """Two consecutive solves through one factory must not share state."""
    library = uniform_random_library(5, seed=160)
    tree_a = random_small_tree(16)
    tree_b = random_small_tree(17)
    compiled_a = compile_net(tree_a, library)
    compiled_b = compile_net(tree_b, library)

    first_a = insert_buffers(compiled_a, library, backend="soa")
    factory = compiled_a.factory("soa")
    assert factory is compiled_a.factory("soa")  # cached per net

    # Solve B on its own compiled net, then A again on the *warm* one.
    insert_buffers(compiled_b, library, backend="soa")
    second_a = insert_buffers(compiled_a, library, backend="soa")
    assert_identical(first_a, second_a)
    assert_same_stats(first_a, second_a)

    # The first result's reconstruction is untouched by later solves.
    with auto_compile(False):
        fresh = insert_buffers(tree_a, library, backend="soa")
    assert first_a.assignment == fresh.assignment
    assert first_a.slack == fresh.slack


@pytest.mark.skipif(numpy is None, reason="numpy required for SoA")
def test_released_store_fails_loudly():
    from repro.core.stores.soa import SoAStoreFactory

    factory = SoAStoreFactory()
    store = factory.sink(3, 1.0e-9, 2.0e-14)
    assert not store.released()
    store.release()
    assert store.released()
    store.release()  # idempotent
    with pytest.raises(TypeError):
        len(store)
