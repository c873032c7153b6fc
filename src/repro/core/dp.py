"""The bottom-up dynamic program shared by every insertion algorithm.

The engine walks the tree in post-order maintaining, per subtree, the
sorted nonredundant candidate list of Section 2.  The three operations
are exactly the paper's:

1. *add buffer* at a buffer position — pluggable (this is where the
   algorithms differ);
2. *add wire* when moving a child's list up through its incoming edge;
3. *merge* sibling branch lists at branching vertices.

At the root the driver turns the list into a single slack number, and
the winning candidate's decision DAG is expanded into an explicit
:class:`~repro.core.solution.BufferingResult`.

The *representation* of the candidate lists is pluggable too
(:mod:`repro.core.stores`): with ``backend="object"`` (this engine-level
function's default — the public :func:`~repro.core.api.insert_buffers`
defaults to ``"auto"``, which defers the choice to the execution router
(:mod:`repro.routing`; the default ``static`` policy picks native, else
SoA when NumPy imports, else object))
the engine operates on bare ``CandidateList`` objects exactly as the seed
code did — including the legacy list-level ``add_buffer`` /
``add_wire`` / ``merge`` callables used by the instrumentation modules —
while any other backend runs through the :class:`CandidateStore`
protocol, with ``add_buffer`` receiving the store (the built-in
algorithms route it to the store's fused
:meth:`~repro.core.stores.base.CandidateStore.apply_buffer`).  Store
ops may mutate in place and return the same store; the engine's
release bookkeeping only recycles operands that were actually
replaced.  Provenance may be deferred: the winning root candidate's
``decision`` can be a backend handle (the SoA tape reference) that
:func:`~repro.core.candidate.reconstruct_assignment` expands once, at
the end of the solve.

So is the *execution strategy* (:mod:`repro.core.schedule`):
:func:`run_dynamic_program` accepts either a plain
:class:`~repro.tree.routing_tree.RoutingTree` — walked as above — or a
:class:`~repro.core.schedule.CompiledNet`, interpreted as a flat
instruction stream with no tree-object access in the hot path.  Plain
trees compile themselves transparently: the first solve walks the tree
and caches a schedule, repeat solves run the interpreter.  Both paths
perform the same IEEE-754 operations on the same inputs in dependency
order, so their results are bit-identical.

There is a third executor of the same contract outside this module:
the incremental engine (:mod:`repro.incremental.engine`) runs its own
interpreter over a ``CompiledNet``'s instruction stream, skipping
clean subtree ranges and splicing memoized frontiers onto the stack.
It builds its per-backend operations with :func:`_resolve_ops` and
finishes through :func:`_finish`, so those two helpers — together with
the instruction semantics of ``_execute_schedule`` and the engine's
release discipline (a consumed store is released the moment it is no
longer reachable from the stack) — are a load-bearing internal
contract: change them in lockstep with that engine.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.buffer_ops import BufferPlan
from repro.core.candidate import (
    Candidate,
    CandidateList,
    SinkDecision,
    best_candidate_for_driver,
    reconstruct_assignment,
)
from repro.core.schedule import (
    OP_FINAL,
    OP_MERGE,
    OP_SINK,
    OP_WIRE,
    CompiledNet,
    auto_compile_enabled,
    cache_schedule,
    cached_schedule,
)
from repro.core.solution import BufferingResult, DPStats
from repro.errors import AlgorithmError
from repro.library.library import BufferLibrary
from repro.obs.profiler import instrument_ops, record_dp_stats
from repro.obs.spans import active_tracer
from repro.resilience.deadline import active_deadline
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree

#: Signature of an add-buffer operation under the object backend: takes
#: the node's current candidate list and its :class:`BufferPlan`,
#: returns the new full list (old and new candidates, nonredundant,
#: sorted).  Under any other backend the first argument is the node's
#: :class:`~repro.core.stores.base.CandidateStore` instead.
AddBufferOp = Callable[[CandidateList, BufferPlan], CandidateList]


@lru_cache(maxsize=64)
def _full_library_plan(buffers) -> BufferPlan:
    """The whole-library :class:`BufferPlan`, cached per buffer tuple.

    Sharing across solves matters for the batch engine and the sweep
    experiments, which solve many nets against one library: each worker
    process sorts the library once, not once per net.
    """
    return BufferPlan(-1, buffers)


def build_plans(tree: RoutingTree, library: BufferLibrary) -> Dict[int, BufferPlan]:
    """Precompute a :class:`BufferPlan` per buffer position.

    Nodes that allow the whole library share one plan's sort orders via
    :meth:`BufferPlan.shared_view`; restricted nodes get a plan for
    their subset.  This mirrors the paper's one-off ``O(b log b)``
    library sort outside the main loop.
    """
    full_plan = _full_library_plan(library.buffers)
    plans: Dict[int, BufferPlan] = {}
    for node in tree.buffer_positions():
        if node.allowed_buffers is None:
            plan = BufferPlan.shared_view(node.node_id, full_plan)
        else:
            allowed = [b for b in library.buffers if b.name in node.allowed_buffers]
            if not allowed:
                continue  # effectively not a buffer position
            plan = BufferPlan(node.node_id, allowed)
        plans[node.node_id] = plan
    return plans


def _release_noop(store) -> None:
    """Store release under the object backend: bare lists, GC-managed."""


def _release_store(store) -> None:
    store.release()


def _resolve_ops(
    backend: str,
    add_wire: Optional[Callable],
    merge: Optional[Callable],
    factory=None,
) -> Tuple[Callable, Callable, Callable, Callable, Callable]:
    """The five backend-specific callables the engine loops over.

    Returns ``(sink_op, wire_op, merge_op, best_op, release_op)``.
    ``factory`` is only used (and created when ``None``) for non-object
    backends; reusing one across solves keeps its scratch state warm.
    Shared with the incremental engine's splice interpreter (see the
    module docstring), which passes its session-owned factory here.
    """
    if backend == "object":
        from repro.core.merge import merge_branches as default_merge
        from repro.core.wire_ops import add_wire as default_add_wire

        wire_op = add_wire if add_wire is not None else default_add_wire
        merge_op = merge if merge is not None else default_merge

        def sink_op(node_id: int, q: float, c: float) -> CandidateList:
            return [Candidate(q=q, c=c, decision=SinkDecision(node_id))]

        return (
            sink_op,
            wire_op,
            merge_op,
            best_candidate_for_driver,
            _release_noop,
        )

    if add_wire is not None or merge is not None:
        raise AlgorithmError(
            "list-level add_wire/merge overrides require backend='object'; "
            f"got backend={backend!r}"
        )
    if factory is None:
        from repro.core.stores import get_store_backend

        factory = get_store_backend(backend)()
    factory.begin_solve()
    wire_op = lambda store, r, c: store.add_wire(r, c)  # noqa: E731
    merge_op = lambda left, right: left.merge(right)  # noqa: E731
    best_op = lambda store, resistance: store.best_for_driver(resistance)  # noqa: E731
    return factory.sink, wire_op, merge_op, best_op, _release_store


def _execute_schedule(
    compiled: CompiledNet,
    plans: List[BufferPlan],
    sink_op: Callable,
    wire_op: Callable,
    merge_op: Callable,
    add_buffer: AddBufferOp,
    release: Callable,
):
    """Run the instruction stream; returns ``(root_list, peak, generated)``.

    The stack machine mirrors the tree walk's data flow exactly — each
    instruction consumes only values the tree walk would have had at
    that point — so every arithmetic result is bit-identical.  Stores a
    consumed operand no longer reachable from the stack are released to
    the backend (a no-op for bare object lists), which is what lets the
    SoA scratch arena recycle buffers mid-solve.
    """
    steps, wire_r, wire_c, sink_node, sink_q, sink_c = compiled.runtime()

    stack: List[object] = []
    push = stack.append
    pop = stack.pop
    peak = 0
    generated = 0
    deadline = active_deadline()
    # One thread-local read per solve; with no active profiler the ops
    # come back untouched and end_range is None, so the dispatch loop
    # below executes the uninstrumented instruction stream.
    sink_op, wire_op, merge_op, add_buffer, end_range = instrument_ops(
        sink_op, wire_op, merge_op, add_buffer
    )

    for op, arg in steps:
        code = op & 3
        if code == OP_WIRE:
            top = stack[-1]
            current = wire_op(top, wire_r[arg], wire_c[arg])
            if current is not top:
                release(top)
                stack[-1] = current
        elif code == OP_SINK:
            current = sink_op(sink_node[arg], sink_q[arg], sink_c[arg])
            generated += 1
            push(current)
        elif code == OP_MERGE:
            right = pop()
            left = pop()
            current = merge_op(left, right)
            generated += len(current)
            if current is not left:
                release(left)
            if current is not right:
                release(right)
            push(current)
        else:  # OP_BUFFER
            top = stack[-1]
            before = len(top)
            current = add_buffer(top, plans[arg])
            generated += max(len(current) - before, 0)
            if current is not top:
                release(top)
                stack[-1] = current
        if op & OP_FINAL:
            # Instruction-range boundary: one per tree node.  The
            # deadline poll and profiler hook each cost a single
            # is-not-None test when inactive.
            if len(current) > peak:
                peak = len(current)
            if deadline is not None:
                deadline.check("dp.schedule")
            if end_range is not None:
                end_range(len(current))

    assert len(stack) == 1, "schedule must reduce to the root list"
    return stack[0], peak, generated


def _finish(
    root_list,
    best_op: Callable,
    release: Callable,
    driver: Optional[Driver],
    algorithm: str,
    num_buffer_positions: int,
    library: BufferLibrary,
    peak_length: int,
    candidates_generated: int,
    started: float,
    backend: str,
) -> BufferingResult:
    """Turn the root list into the result object (shared by both paths)."""
    resistance = driver.resistance if driver is not None else 0.0
    best = best_op(root_list, resistance)
    assert best is not None  # a validated tree always yields candidates
    slack = best.q - (driver.delay(best.c) if driver is not None else 0.0)
    root_candidates = len(root_list)
    release(root_list)

    tracer = active_tracer()
    with tracer.span("backtrace") if tracer is not None else nullcontext():
        assignment = reconstruct_assignment(best.decision)

    elapsed = time.perf_counter() - started
    stats = DPStats(
        algorithm=algorithm,
        num_buffer_positions=num_buffer_positions,
        library_size=library.size,
        root_candidates=root_candidates,
        peak_list_length=peak_length,
        candidates_generated=candidates_generated,
        runtime_seconds=elapsed,
        backend=backend,
    )
    record_dp_stats(stats)
    return BufferingResult(
        slack=slack,
        assignment=assignment,
        driver_load=best.c,
        stats=stats,
    )


def native_mode(backend: str, add_buffer: Callable) -> Optional[int]:
    """The native executor's add-buffer mode for this solve, or ``None``.

    Only the built-in store ops carry a ``native_mode`` tag; any other
    callable (a plugin's own add-buffer step) runs per operation on the
    native backend's SoA stores.
    """
    if backend != "native":
        return None
    return getattr(add_buffer, "native_mode", None)


def _run_native(
    compiled: CompiledNet,
    library: BufferLibrary,
    mode: int,
    algorithm: str,
    driver: Optional[Driver],
) -> BufferingResult:
    """Solve a :class:`CompiledNet` in the native executor.

    The whole schedule runs in C, in chunks of at most
    :data:`repro.core.native.CHUNK_FINALS` node boundaries; between
    chunks the deadline is polled (site ``"dp.schedule"``) and an
    active :class:`~repro.obs.profiler.KernelProfiler` is filled from
    the executor's per-op counters.
    """
    from repro.core import native
    from repro.obs.profiler import active_profiler

    context = native.acquire(compiled)
    profiler = active_profiler()
    started = time.perf_counter()
    tracer = active_tracer()
    try:
        with (
            tracer.span(
                "dp.schedule", backend="native", algorithm=algorithm,
                instructions=len(compiled.ops),
            )
            if tracer is not None
            else nullcontext()
        ):
            context.begin(mode, profiler is not None)
            context.run(0, len(compiled.ops), active_deadline(),
                        "dp.schedule", profiler)
        depth, _, peak, generated, _ = context.info()
        assert depth == 1, "schedule must reduce to the root list"
        # The context stands in for the root list: len() is the root's
        # candidate count and NativeContext.best its driver argmax.
        return _finish(
            context, native.NativeContext.best, _release_noop, driver,
            algorithm, compiled.num_buffer_positions, library, peak,
            generated, started, "native",
        )
    finally:
        native.release(context)


def _run_compiled(
    compiled: CompiledNet,
    library: BufferLibrary,
    add_buffer: AddBufferOp,
    algorithm: str,
    driver: Optional[Driver],
    backend: str,
) -> BufferingResult:
    """Solve a :class:`CompiledNet` with the interpreter loop."""
    compiled.check_library(library)
    driver = driver if driver is not None else compiled.driver
    mode = native_mode(backend, add_buffer)
    if mode is not None:
        return _run_native(compiled, library, mode, algorithm, driver)
    plans = compiled.plans()
    factory = None if backend == "object" else compiled.factory(backend)
    sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
        backend, None, None, factory=factory
    )

    started = time.perf_counter()
    tracer = active_tracer()
    try:
        with (
            tracer.span(
                "dp.schedule", backend=backend, algorithm=algorithm,
                instructions=len(compiled.ops),
            )
            if tracer is not None
            else nullcontext()
        ):
            root_list, peak_length, candidates_generated = _execute_schedule(
                compiled, plans, sink_op, wire_op, merge_op, add_buffer, release
            )
        result = _finish(
            root_list, best_op, release, driver, algorithm,
            compiled.num_buffer_positions, library, peak_length,
            candidates_generated, started, backend,
        )
    finally:
        # Also runs after a DeadlineExceeded abort: the next
        # begin_solve resets the arena, but releasing the tape now
        # keeps an aborted solve from pinning its provenance.
        if factory is not None:
            factory.end_solve()
    return result


def run_dynamic_program(
    tree: Union[RoutingTree, CompiledNet],
    library: BufferLibrary,
    add_buffer: AddBufferOp,
    algorithm: str,
    driver: Optional[Driver] = None,
    add_wire: Optional[Callable[[CandidateList, float, float], CandidateList]] = None,
    merge: Optional[Callable[[CandidateList, CandidateList], CandidateList]] = None,
    backend: str = "object",
) -> BufferingResult:
    """Run the bottom-up DP and return the optimal buffering.

    Args:
        tree: A routing tree, or a :class:`~repro.core.schedule.CompiledNet`
            from :func:`~repro.core.schedule.compile_net` (already
            validated and planned; solved by the interpreter loop with
            no tree-object access).  Plain trees are compiled and cached
            transparently after their first solve, so repeat solves take
            the interpreter path automatically (see
            :func:`repro.core.schedule.auto_compile`).
        library: The buffer library (defines ``b``).
        add_buffer: The pluggable add-buffer operation.  Operates on
            ``CandidateList`` under ``backend="object"`` and on the
            node's :class:`CandidateStore` under any other backend.
        algorithm: Name recorded in the result.
        driver: Source driver; defaults to ``tree.driver`` (or the
            driver recorded at compile time); ``None`` means an ideal
            driver (slack is simply the best ``q``).
        add_wire, merge: List-level overrides for the other two
            operations (used by instrumentation and the cost extension);
            default to the standard ones.  Object backend only, and they
            force the tree-walking path.
        backend: Candidate-store backend name
            (:func:`repro.core.stores.store_backend_names`), or
            ``"auto"``.

    Raises:
        AlgorithmError: If the tree fails validation, the backend is
            unknown, list-level overrides are combined with a non-object
            backend, or a compiled net is combined with overrides or a
            mismatched library.
    """
    from repro.core.stores import resolve_backend

    backend = resolve_backend(backend)
    has_overrides = add_wire is not None or merge is not None

    if isinstance(tree, CompiledNet):
        if has_overrides:
            raise AlgorithmError(
                "list-level add_wire/merge overrides require a plain "
                "RoutingTree; got a CompiledNet"
            )
        return _run_compiled(tree, library, add_buffer, algorithm, driver, backend)

    auto = auto_compile_enabled() and not has_overrides
    if auto:
        compiled = cached_schedule(tree, library)
        if compiled is None and native_mode(backend, add_buffer) is not None:
            # The native executor runs schedules only: compile (and
            # validate) the fresh tree instead of walking it.
            compiled = cache_schedule(tree, library)
        if compiled is not None:
            return _run_compiled(
                compiled, library, add_buffer, algorithm, driver, backend
            )

    try:
        tree.validate()
    except Exception as exc:
        raise AlgorithmError(f"invalid routing tree: {exc}") from exc

    driver = driver if driver is not None else tree.driver
    plans = build_plans(tree, library)
    sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
        backend, add_wire, merge
    )

    started = time.perf_counter()

    lists: Dict[int, object] = {}
    peak_length = 0
    candidates_generated = 0
    deadline = active_deadline()
    tracer = active_tracer()
    sink_op, wire_op, merge_op, add_buffer, end_range = instrument_ops(
        sink_op, wire_op, merge_op, add_buffer
    )
    walk_handle = (
        tracer.begin("dp.walk", backend=backend, algorithm=algorithm)
        if tracer is not None
        else None
    )

    for node_id in tree.postorder():
        if deadline is not None:
            deadline.check("dp.walk")
        node = tree.node(node_id)
        if node.is_sink:
            current = sink_op(node_id, node.required_arrival, node.capacitance)
            candidates_generated += 1
        else:
            branch_lists: List[object] = []
            for child in tree.children_of(node_id):
                edge = tree.edge_to(child)
                child_list = lists.pop(child)
                wired = wire_op(child_list, edge.resistance, edge.capacitance)
                if wired is not child_list:
                    release(child_list)
                branch_lists.append(wired)
            current = branch_lists[0]
            for other in branch_lists[1:]:
                merged = merge_op(current, other)
                candidates_generated += len(merged)
                if merged is not current:
                    release(current)
                if merged is not other:
                    release(other)
                current = merged
            plan = plans.get(node_id)
            if plan is not None:
                before = len(current)
                buffered = add_buffer(current, plan)
                candidates_generated += max(len(buffered) - before, 0)
                if buffered is not current:
                    release(current)
                current = buffered

        if len(current) > peak_length:
            peak_length = len(current)
        if end_range is not None:
            end_range(len(current))
        lists[node_id] = current

    if walk_handle is not None:
        tracer.end(walk_handle)

    result = _finish(
        lists[tree.root_id], best_op, release, driver, algorithm,
        tree.num_buffer_positions, library, peak_length,
        candidates_generated, started, backend,
    )

    if auto:
        # Amortize the next solve: remember the flattened schedule.
        # The walk above already validated the tree and built its
        # plans, so compilation reuses both and only pays the flatten.
        cache_schedule(tree, library, validate=False, plans=plans)
    return result
