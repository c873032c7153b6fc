"""The native whole-schedule executor: parity, fallback, robustness.

Native output must be bit-identical (``==``) to the object reference —
slack, driver load, assignment and the three DP counters — on every
algorithm and mode; a missing compiler must degrade ``auto`` to soa
with identical answers; and the executor's context handles must be
safe to pickle around, to share between threads and to build from two
processes at once.
"""

import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_small_tree, require_backend

from repro import (
    BufferLibrary,
    BufferType,
    Driver,
    RoutingTree,
    compile_net,
    insert_buffers,
    insert_buffers_brute_force,
    paper_library,
    two_pin_net,
    uniform_random_library,
)
from repro.core.stores import resolve_backend
from repro.errors import AlgorithmError, EditError, LibraryError
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.resilience.deadline import deadline_scope
from repro.tree.builders import random_tree_net
from repro.tree.segmenting import segment_to_position_count
from repro.units import fF, ps

ROOT = Path(__file__).resolve().parent.parent


def assert_identical(a, b):
    assert a.slack == b.slack
    assert a.driver_load == b.driver_load
    assert a.assignment == b.assignment
    assert a.stats.root_candidates == b.stats.root_candidates
    assert a.stats.peak_list_length == b.stats.peak_list_length
    assert a.stats.candidates_generated == b.stats.candidates_generated


@pytest.fixture
def native_backend():
    require_backend("native")
    from repro.core import native

    return native


def trunk(positions=400):
    return two_pin_net(
        length=20000.0, sink_capacitance=fF(25.0),
        required_arrival=ps(1200.0), driver=Driver(180.0),
        num_segments=positions,
    )


def big_net(seed=3, positions=1500):
    return segment_to_position_count(
        random_tree_net(
            24, seed=seed, required_arrival=(ps(400.0), ps(2500.0)),
            driver=Driver(resistance=200.0),
        ),
        positions,
    )


# -- selection --------------------------------------------------------


def test_auto_prefers_native(native_backend):
    assert resolve_backend("auto") == "native"
    result = insert_buffers(random_small_tree(2), paper_library(4))
    assert result.stats.backend == "native"


def test_fresh_tree_is_compiled_not_walked(native_backend):
    from repro.core.schedule import cached_schedule

    tree = random_small_tree(4)
    library = paper_library(4)
    assert cached_schedule(tree, library) is None
    insert_buffers(tree, library, backend="native")
    assert cached_schedule(tree, library) is not None


def test_custom_add_buffer_runs_per_op(native_backend):
    """An untagged add-buffer callable takes the per-op SoA stores."""
    from repro.core.dp import run_dynamic_program

    def add_buffer(store, plan):
        return store.apply_buffer(plan, generator="scan")

    tree = random_small_tree(6)
    library = uniform_random_library(4, seed=6)
    custom = run_dynamic_program(tree, library, add_buffer, "custom",
                                 backend="native")
    reference = insert_buffers(tree, library, algorithm="lillis",
                               backend="object")
    assert_identical(custom, reference)


# -- differential: native vs object vs exhaustive search --------------


def _capped(library, seed):
    """Two extra load-capped copies of the library's first types."""
    capped = [
        BufferType(
            name=f"{b.name}_cap", driving_resistance=b.driving_resistance,
            input_capacitance=b.input_capacitance,
            intrinsic_delay=b.intrinsic_delay,
            max_load=fF(30.0 + 15.0 * i + seed % 7),
        )
        for i, b in enumerate(library.buffers[:2])
    ]
    return BufferLibrary(list(library.buffers) + capped)


CASES = [
    ("fast", {}),
    ("fast", {"destructive_pruning": True}),
    ("lillis", {}),
    ("van_ginneken", {}),
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    tree_seed=st.integers(0, 10_000),
    library_seed=st.integers(0, 10_000),
    size=st.integers(1, 4),
    capped=st.booleans(),
    case=st.sampled_from(CASES),
    resistance=st.sampled_from([None, 90.0, 1500.0]),
)
def test_differential_against_object_and_brute_force(
    tree_seed, library_seed, size, capped, case, resistance
):
    require_backend("native")
    algorithm, options = case
    tree = random_small_tree(tree_seed)
    if tree.num_buffer_positions > 6:
        tree = two_pin_net(
            length=1500.0 + tree_seed % 2000, sink_capacitance=fF(20.0),
            required_arrival=ps(600.0), driver=Driver(150.0),
            num_segments=1 + tree_seed % 5,
        )
    library = uniform_random_library(
        1 if algorithm == "van_ginneken" else size, seed=library_seed
    )
    if capped and algorithm != "van_ginneken":
        library = _capped(library, library_seed)
    driver = None if resistance is None else Driver(resistance)
    native = insert_buffers(tree, library, algorithm=algorithm,
                            driver=driver, backend="native", **options)
    reference = insert_buffers(tree, library, algorithm=algorithm,
                               driver=driver, backend="object", **options)
    assert_identical(native, reference)
    assert native.stats.backend == "native"
    exact = insert_buffers_brute_force(tree, library, driver=driver)
    tolerance = 1e-12 * max(1.0, abs(exact.slack))
    if options.get("destructive_pruning"):
        # The paper's literal pruning is a heuristic on multi-pin trees:
        # it can only under-report slack.
        assert native.slack <= exact.slack + tolerance
    else:
        assert abs(native.slack - exact.slack) <= tolerance


@pytest.mark.parametrize("algorithm, destructive", [
    ("fast", False), ("fast", True), ("lillis", False),
])
def test_parity_on_large_capped_nets(native_backend, algorithm, destructive):
    options = {"destructive_pruning": True} if destructive else {}
    library = _capped(paper_library(12), 3)
    for net in (big_net(), trunk(600)):
        assert_identical(
            insert_buffers(net, library, algorithm=algorithm,
                           backend="native", **options),
            insert_buffers(net, library, algorithm=algorithm,
                           backend="object", **options),
        )


# -- provenance --------------------------------------------------------


def test_archive_is_read_by_the_soa_tape_walker(native_backend):
    """An archived native tape is in ProvenanceTape's four-column
    layout: SoA's Python walker (TapeArchive.expand_into) backtraces it
    exactly as the C walk does, and both match the object reference."""
    from array import array

    from repro.core import native
    from repro.core.stores.soa import TapeArchive

    net = big_net(positions=600)
    library = paper_library(8)
    compiled = compile_net(net, library)
    root_final = max(compiled.final_of_node.values())
    context = native.acquire(compiled)
    try:
        context.begin(native.MODE_HULL, False, array("q", [root_final]))
        context.run(0, len(compiled.ops))
        resistance = net.driver.resistance
        best = context.best(resistance)
        live = {}
        best.decision.expand(live, [])
        archive = native.NativeArchive(context)
        [(q, c, d, _, _)] = context.captured()
    finally:
        native.release(context)
    winner = max(range(len(q)), key=lambda i: (q[i] - resistance * c[i], -i))
    via_c, via_python = {}, {}
    archive.expand_into(int(d[winner]), via_c)
    TapeArchive.expand_into(archive, int(d[winner]), via_python)
    assert live == via_c == via_python
    assert live == insert_buffers(compiled, library,
                                  backend="object").assignment


def test_stale_reference_fails_loudly(native_backend):
    from repro.core import native

    compiled = compile_net(random_small_tree(8), paper_library(4))
    context = native.acquire(compiled)
    context.begin(native.MODE_HULL, False)
    context.run(0, len(compiled.ops))
    best = context.best(100.0)
    context.begin(native.MODE_HULL, False)
    with pytest.raises(AlgorithmError, match="stale provenance"):
        best.decision.expand({}, [])
    native.release(context)


# -- execution hooks: deadline and profiler -----------------------------


class CountingDeadline:
    def __init__(self):
        self.sites = []

    def check(self, site):
        self.sites.append(site)


def test_deadline_polled_between_chunks(native_backend):
    from repro.core import native

    net = trunk(1200)
    library = paper_library(4)
    compiled = compile_net(net, library)
    deadline = CountingDeadline()
    with deadline_scope(deadline):
        insert_buffers(compiled, library, backend="native")
    assert set(deadline.sites) == {"dp.schedule"}
    assert len(deadline.sites) == math.ceil(
        compiled.num_nodes / native.CHUNK_FINALS)


def test_profiler_counts_match_object(native_backend):
    net = big_net(positions=500)
    library = paper_library(6)
    compiled = compile_net(net, library)
    profiles = {}
    for backend in ("object", "native"):
        profiler = KernelProfiler()
        with profile_scope(profiler, flush=False):
            result = insert_buffers(compiled, library, backend=backend)
        profiles[backend] = profiler
    native_profile = profiles["native"]
    assert native_profile.calls == profiles["object"].calls
    assert native_profile.ranges == profiles["object"].ranges
    assert native_profile.peak_list_length == result.stats.peak_list_length
    assert native_profile.seconds["buffer"] > 0.0


# -- robustness: pickling, threads, concurrent builds --------------------


def test_pickled_compiled_net_carries_no_native_context(native_backend):
    library = paper_library(6)
    compiled = compile_net(big_net(positions=400), library)
    first = insert_buffers(compiled, library, backend="native")
    assert compiled._native is not None
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone._native is None
    assert b"NativeContext" not in pickle.dumps(compiled)
    assert_identical(insert_buffers(clone, library, backend="native"), first)


def test_threads_share_one_compiled_net(native_backend):
    """More threads than cores solving one net, switching often: every
    answer is the reference (a shared context would corrupt some)."""
    library = paper_library(16)
    compiled = compile_net(big_net(positions=1500), library)
    reference = insert_buffers(compiled, library, backend="object")
    results, errors = [], []

    def solve():
        try:
            for _ in range(4):
                results.append(
                    insert_buffers(compiled, library, backend="native"))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=solve)
               for _ in range(2 * (os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 4 * len(threads)
    for result in results:
        assert_identical(result, reference)


def test_inconsistent_schedule_is_rejected(native_backend):
    compiled = compile_net(random_small_tree(3), paper_library(4))
    compiled.args[0] = len(compiled.sink_node) + 5  # a sink past the end
    with pytest.raises(AlgorithmError, match="inconsistent"):
        insert_buffers(compiled, paper_library(4), backend="native")


def test_two_processes_build_one_library(native_backend, tmp_path):
    script = (
        "import sys; from repro.core import native; "
        "print(native.build(sys.argv[1]))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), outputs
    files = sorted(path.name for path in tmp_path.iterdir())
    assert len(files) == 1 and files[0].endswith(".so"), files
    lib = native_backend._open(tmp_path / files[0])
    assert lib.rn_new() is not None


# -- fallback ------------------------------------------------------------


@pytest.mark.parametrize("stage", ["build", "_open"])
def test_failed_build_falls_back_to_soa(stage, monkeypatch, caplog):
    pytest.importorskip("numpy")
    from repro.core import native

    def broken(*args, **kwargs):
        raise OSError(f"simulated {stage} failure")

    native._reset()
    monkeypatch.setattr(native, stage, broken)
    try:
        with caplog.at_level("WARNING", logger="repro.core.native"):
            assert resolve_backend("auto") == "soa"
            assert resolve_backend("auto") == "soa"
            tree = random_small_tree(11)
            library = uniform_random_library(4, seed=11)
            auto = insert_buffers(tree, library)
        assert auto.stats.backend == "soa"
        assert_identical(auto, insert_buffers(tree, library,
                                              backend="object"))
        warnings = [r for r in caplog.records
                    if "native backend unavailable" in r.getMessage()]
        assert len(warnings) == 1
        with pytest.raises(AlgorithmError, match="unavailable"):
            insert_buffers(tree, library, backend="native")
    finally:
        monkeypatch.undo()
        native._reset()


# -- finite-input guard ----------------------------------------------------


BACKENDS = ("object", "soa", "native")


@pytest.mark.parametrize("field, value", [
    ("required_arrival", math.nan),
    ("required_arrival", math.inf),
    ("required_arrival", -math.inf),
    ("capacitance", math.nan),
    ("capacitance", math.inf),
])
def test_non_finite_sink_is_rejected_alike(field, value):
    library = paper_library(4)
    messages = set()
    for backend in BACKENDS:
        if backend != "object":
            try:
                require_backend(backend)
            except pytest.skip.Exception:
                continue
        tree = random_tree_net(5, seed=1)
        sink = tree.sinks()[0]
        tree.set_sink(sink.node_id, **{field: value})
        with pytest.raises(AlgorithmError, match="must be finite") as info:
            insert_buffers(tree, library, backend=backend)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_non_finite_wire_is_rejected():
    tree = random_tree_net(5, seed=1)
    child = tree.sinks()[0].node_id
    tree.set_edge(child, resistance=math.nan)
    with pytest.raises(AlgorithmError, match="must be finite"):
        insert_buffers(tree, paper_library(4), backend="object")
    with pytest.raises(AlgorithmError, match="must be finite"):
        compile_net(tree, paper_library(4))


@pytest.mark.parametrize("field", [
    "driving_resistance", "input_capacitance", "intrinsic_delay", "max_load",
])
def test_non_finite_buffer_type_is_rejected(field):
    values = dict(name="b", driving_resistance=500.0,
                  input_capacitance=fF(5.0), intrinsic_delay=ps(20.0))
    values[field] = math.nan
    with pytest.raises(LibraryError, match="finite"):
        BufferType(**values)
    values[field] = math.inf
    with pytest.raises(LibraryError, match="finite"):
        BufferType(**values)


def test_non_finite_edit_is_rejected():
    from repro.incremental import IncrementalSolver, SetSinkRAT

    tree = random_tree_net(5, seed=1)
    solver = IncrementalSolver(tree, paper_library(4), backend="object")
    before = solver.resolve()
    sink = tree.sinks()[0].node_id
    with pytest.raises(EditError, match="finite"):
        solver.apply(SetSinkRAT(node=sink, required_arrival=math.nan))
    assert solver.resolve().slack == before.slack


def test_solve_endpoint_rejects_nan_alike():
    from test_service import ServerHarness

    from repro.errors import ServiceError

    library = paper_library(4)
    tree = random_tree_net(5, seed=1)
    tree.set_sink(tree.sinks()[0].node_id, required_arrival=math.nan)
    h = ServerHarness(jobs=1, cache_size=16)
    try:
        statuses = set()
        for backend in BACKENDS:
            if backend != "object":
                try:
                    require_backend(backend)
                except pytest.skip.Exception:
                    continue
            with pytest.raises(ServiceError) as info:
                h.client.solve(tree, library, backend=backend)
            statuses.add(str(info.value).split()[0])
            assert "must be finite" in str(info.value)
        assert len(statuses) == 1
        assert h.client.stats()["cache"]["size"] == 0
    finally:
        h.shutdown()


def test_tree_with_nan_is_invalid():
    tree = RoutingTree.with_source(driver=Driver(100.0))
    tree.add_sink(0, 10.0, fF(1.0), capacitance=fF(2.0),
                  required_arrival=math.nan)
    with pytest.raises(Exception, match="must be finite"):
        tree.validate()
