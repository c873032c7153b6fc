"""The incremental re-solve engine: dirty-path execution with splicing.

:class:`IncrementalSolver` is a stateful session around one net: it
compiles the net's postorder schedule once, memoizes every subtree's
finished candidate frontier in a digest-keyed
:class:`~repro.incremental.subtree_cache.FrontierCache`, and after each
batch of :mod:`~repro.incremental.edits` re-runs **only the dirty
instruction sub-ranges** of the schedule — every clean subtree is a
contiguous, skippable range whose cached frontier is spliced onto the
interpreter stack in O(k).  The result — slack, assignment, driver
load, even the ``peak_list_length`` / ``candidates_generated`` DP stats
— is bit-identical to a from-scratch solve of the edited net (asserted
exactly, ``==`` not approx, by ``tests/test_incremental.py``).

**How dirtiness works.**  The engine maintains a Merkle digest per
subtree and updates it along the edited node's root path (O(depth) per
edit).  At resolve time nothing is explicitly marked dirty: the
interpreter simply probes the frontier cache at every subtree start —
an edited subtree's digest changed, so it *misses* and is re-executed
(and re-captured), while unchanged subtrees hit and are skipped.  The
digest is the invalidation.  This also means structurally repeated
subtrees — sibling copies, or the same subtree across different
sessions sharing one cache — are solved once and spliced everywhere
else.

**Why the digest is order-sensitive.**  Unlike
:func:`repro.service.canon.canonicalize` (which sorts children so
cosmetic reordering hits one cache entry), the frontier digest hashes
children in **tree order**: the DP folds sibling branches left to
right, and float addition is not associative, so frontiers of two
subtrees that are equal only up to child reordering can differ in the
last ulp.  Keying on the order-sensitive digest is what lets a spliced
frontier replay the exact IEEE-754 data flow of a scratch solve.  (The
canonical sorted digest remains the *request*-level key — see
:attr:`~repro.service.canon.CanonicalNet.subtree_keys`.)

**Provenance across solves.**  A cached frontier's decisions name node
ids of the tree it was captured from.  Splicing into a digest-equal
subtree elsewhere wraps each decision in a
:class:`SplicedFrontierDecision`, which translates ids through
tree-preorder indices at backtrace time — O(answer), only for the
winning candidate.  Splices into the *same* vertex of an unchanged
index reuse the decisions unwrapped.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Tuple, Union

from repro.core.candidate import (
    Candidate,
    ExpandedDecision,
    reconstruct_assignment,
)
from repro.core.dp import _finish, _release_noop, _resolve_ops, native_mode
from repro.core.registry import get_algorithm
from repro.core.schedule import (
    OP_FINAL,
    OP_MERGE,
    OP_SINK,
    OP_WIRE,
    CompiledNet,
    compile_net,
)
from repro.core.solution import BufferingResult
from repro.core.stores import get_store_backend, resolve_backend
from repro.core.stores.soa import _CHAIN_LIMIT
from repro.errors import AlgorithmError, EditError
from repro.incremental.edits import (
    Edit,
    EditImpact,
    SetSinkCap,
    SetSinkRAT,
    SetWire,
    SplitWire,
    edit_from_dict,
)
from repro.incremental.subtree_cache import FrontierCache, FrontierSnapshot
from repro.library.library import BufferLibrary
from repro.obs.profiler import instrument_ops
from repro.obs.spans import active_tracer
from repro.resilience.deadline import active_deadline
from repro.service.canon import (
    digest_body,
    edge_entry,
    library_key,
    node_payload,
    options_key,
)
from repro.tree.node import Driver
from repro.tree.routing_tree import RoutingTree


#: Frontiers a native session keeps per chain of vertices, and the
#: fewest instructions between two kept frontiers (see
#: :meth:`IncrementalSolver._native_probes`).
NATIVE_CAPTURES = 64
NATIVE_MIN_STRIDE = 16


class TreeIndex:
    """A frozen tree-preorder numbering of one net state.

    Preorder makes every subtree a contiguous index block, so two
    digest-equal subtrees (identical shape *in tree order*) correspond
    position-by-position: node at relative index ``r`` of one maps to
    relative index ``r`` of the other.  Snapshots pin the index of the
    state they were captured from; one instance is shared by all
    snapshots of a resolve, and payload-only edits reuse it outright
    (ids and order don't move).
    """

    __slots__ = ("node_of_index", "index_of_node")

    def __init__(self, node_of_index: Tuple[int, ...]) -> None:
        self.node_of_index = node_of_index
        self.index_of_node = {
            node_id: index for index, node_id in enumerate(node_of_index)
        }


class SplicedFrontierDecision:
    """Provenance of a spliced candidate: translate ids at backtrace.

    Wraps a captured decision DAG together with the capture-time and
    splice-time :class:`TreeIndex` anchors.  ``expand`` (the deferred
    hook of :func:`repro.core.candidate.reconstruct_assignment`) expands
    the inner decision into the capture tree's ids, then maps each
    assigned node through its preorder offset onto the splice target's
    subtree — the step that makes one cache entry serve every
    digest-equal subtree instance with correct node ids.

    ``chain_depth`` counts nested provenance generations (wrappers and
    tape archives); once it reaches the cap, the engine flattens the
    splice to an :class:`~repro.core.candidate.ExpandedDecision`
    instead of nesting further, bounding both retained memory and the
    expansion recursion however long a session lives.
    """

    __slots__ = ("decision", "src_index", "src_root", "dst_index",
                 "dst_root", "chain_depth")

    def __init__(
        self,
        decision: object,
        src_index: TreeIndex,
        src_root: int,
        dst_index: TreeIndex,
        dst_root: int,
    ) -> None:
        self.decision = decision
        self.src_index = src_index
        self.src_root = src_root
        self.dst_index = dst_index
        self.dst_root = dst_root
        self.chain_depth = 1 + getattr(decision, "chain_depth", 0)

    def expand(self, assignment: Dict[int, object], stack: list) -> None:
        inner = reconstruct_assignment(self.decision)
        if not inner:
            return
        src_of = self.src_index.index_of_node
        dst_nodes = self.dst_index.node_of_index
        offset = (
            self.dst_index.index_of_node[self.dst_root]
            - src_of[self.src_root]
        )
        for node_id, buffer in inner.items():
            assignment[dst_nodes[src_of[node_id] + offset]] = buffer

    def __repr__(self) -> str:
        return (
            f"SplicedFrontierDecision({self.src_root}->{self.dst_root})"
        )


def splice_snapshot(
    snapshot: FrontierSnapshot, factory=None, decisions=None
):
    """Materialize a frozen frontier into a live store list.

    The splice primitive shared by the incremental engine and the
    parallel partitioned solver: turns a
    :class:`~repro.incremental.subtree_cache.FrontierSnapshot` back
    into whatever the executing backend pushes on its interpreter
    stack — a plain :class:`~repro.core.candidate.Candidate` list for
    the object backend (``factory=None``) or a store built by
    ``factory.from_snapshot`` (value columns copied, provenance
    deferred).  The copied floats are the captured floats, so every
    downstream operation sees bit-identical inputs.

    ``decisions`` overrides the snapshot's own provenance — the
    incremental engine passes id-translated wrappers here; callers
    splicing in original coordinates (the parallel solver — subschedule
    extraction preserves node ids) leave it ``None``.
    """
    if decisions is None:
        decisions = snapshot.decision_list()
    if factory is None:
        return [
            Candidate(q=q, c=c, decision=decision)
            for q, c, decision in zip(snapshot.q, snapshot.c, decisions)
        ]
    return factory.from_snapshot(snapshot.q, snapshot.c, decisions)


class IncrementalSolver:
    """A stateful ECO session: apply edits, re-solve the dirty path.

    Typical use::

        solver = IncrementalSolver(tree, library, algorithm="fast")
        baseline = solver.resolve()            # full solve, frontiers memoized
        solver.apply(SetWire(node=17, resistance=3.1, capacitance=4.2e-15))
        updated = solver.resolve()             # pays only the dirty path

    The session owns its tree (edits mutate it in place), a private
    :class:`~repro.core.schedule.CompiledNet` (payload edits are O(1)
    array patches; structural edits re-flatten), a private store
    factory (warm SoA arenas across re-solves) and a
    :class:`~repro.incremental.subtree_cache.FrontierCache` — pass a
    shared cache to pool frontier memory across sessions (the server
    does).

    Args:
        tree: The net; validated once here, mutated by :meth:`apply`.
        library: The buffer library (fixed for the session's lifetime).
        algorithm: A registered algorithm exposing ``add_buffer_op``
            (all built-ins do).
        backend: Candidate-store backend name or ``"auto"``; must be
            ``"object"`` or provide frontier snapshots (``"soa"`` does).
        driver: Fixed driver override; default ``None`` follows
            ``tree.driver`` (so :class:`~repro.incremental.edits.SwapDriver`
            edits take effect).
        cache: Shared :class:`FrontierCache`; a private one by default.
        capture: Memoize frontiers while solving (disable for pure
            replay measurements).
        **options: Algorithm options (part of every cache key).

    Raises:
        AlgorithmError: Unknown algorithm/backend, invalid options, an
            algorithm without ``add_buffer_op``, or a backend without
            snapshot support.
    """

    def __init__(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        algorithm: str = "fast",
        backend: str = "auto",
        driver: Optional[Driver] = None,
        cache: Optional[FrontierCache] = None,
        capture: bool = True,
        **options,
    ) -> None:
        self.tree = tree
        self.library = library
        self.algorithm = algorithm
        self.backend = resolve_backend(backend)
        self.driver = driver
        self.capture = capture
        self.options = dict(options)
        strategy = get_algorithm(algorithm)
        strategy.validate_options(options)
        self._add_buffer = strategy.add_buffer_op(
            self.backend, library, **options
        )
        self._label = strategy.stats_label(**options)
        #: Executor mode when the session runs in the native executor
        #: (``None``: the Python interpreter loop below).
        self._native_mode = native_mode(self.backend, self._add_buffer)
        self.cache = cache if cache is not None else FrontierCache()
        self._context_key = digest_body(";".join((
            f"lib={library_key(library)}",
            f"alg={algorithm}",
            f"backend={self.backend}",
            f"opts={options_key(options)}",
        )))
        if self.backend == "object":
            self.factory = None
        else:
            # Backends without snapshot support fail loudly on the first
            # capture (StoreFactory's defaults raise AlgorithmError).
            self.factory = get_store_backend(self.backend)()
        try:
            tree.validate()
        except Exception as exc:
            raise AlgorithmError(f"invalid routing tree: {exc}") from exc
        self.compiled: CompiledNet = compile_net(tree, library, validate=False)
        self._digest: Dict[int, str] = {}
        self._entry: Dict[int, str] = {}
        #: Per-vertex payload and incoming-edge texts of the digests,
        #: and the parent / children maps of the dirty-path walk (the
        #: last two are dropped on every structural edit).
        self._payload: Dict[int, str] = {}
        self._prefix: Dict[int, str] = {}
        self._parents: Dict[int, int] = {}
        self._kids: Dict[int, Tuple[int, ...]] = {}
        self._rebuild_digests()
        self._index: Optional[TreeIndex] = None
        self._index_stale = True
        self._schedule_stale = False
        self._probe: Optional[Dict[int, List[int]]] = None
        self._final_node: Optional[Dict[int, int]] = None
        self._native_points: Optional[tuple] = None
        self._stale = True
        self._last_result: Optional[BufferingResult] = None
        #: Session counters (surfaced by /stats and `repro edit`).
        self.resolves = 0
        self.edits_applied = 0
        self.last_executed_fraction = 1.0
        self.last_spliced_subtrees = 0
        self._executed_instructions = 0
        self._total_instructions = 0

    # -- digest maintenance --------------------------------------------

    def _body(self, node_id: int) -> str:
        """The order-sensitive Merkle body of one vertex (see module
        docstring for why children are *not* sorted here)."""
        body = self._payload[node_id] = node_payload(self.tree, node_id)
        children = self.tree.children_of(node_id)
        if children:
            entry = self._entry
            body += "[" + "|".join(entry[child] for child in children) + "]"
        return body

    def _digest_node(self, node_id: int) -> None:
        digest = digest_body(self._body(node_id))
        self._digest[node_id] = digest
        if node_id != self.tree.root_id:
            edge = self.tree.edge_to(node_id)
            prefix = edge_entry(edge.resistance, edge.capacitance, "")
            self._prefix[node_id] = prefix
            self._entry[node_id] = prefix + digest

    def _rebuild_digests(self) -> None:
        self._digest.clear()
        self._entry.clear()
        self._payload.clear()
        self._prefix.clear()
        for node_id in self.tree.postorder():
            self._digest_node(node_id)

    def _recompute_up(self, node_id: int) -> None:
        """Refresh digests from ``node_id`` to the root (the dirty path).

        The anchor is the deepest vertex the edit touched; strictly
        above it only child entries change, so the ancestors' own
        payload and edge texts come from the cache.
        """
        tree = self.tree
        root = tree.root_id
        self._digest_node(node_id)
        current = node_id
        digests = self._digest
        entries = self._entry
        payloads = self._payload
        prefixes = self._prefix
        parents = self._parents
        kids = self._kids
        while current != root:
            parent = parents.get(current)
            if parent is None:
                parent = parents[current] = tree.edge_to(current).parent
            current = parent
            payload = payloads.get(current)
            prefix = prefixes.get(current)
            if payload is None or (prefix is None and current != root):
                self._digest_node(current)
                continue
            children = kids.get(current)
            if children is None:
                children = kids[current] = tree.children_of(current)
            if len(children) == 1:
                body = payload + "[" + entries[children[0]] + "]"
            else:
                body = payload + "[" + "|".join(
                    [entries[child] for child in children]) + "]"
            digest = digest_body(body)
            digests[current] = digest
            if current != root:
                entries[current] = prefix + digest

    # -- edits ---------------------------------------------------------

    def apply(self, edit: Union[Edit, Dict]) -> EditImpact:
        """Apply one edit to the session's net.

        Accepts an :class:`~repro.incremental.edits.Edit` or its JSON
        dict form.  Digests along the dirty path are refreshed, and the
        compiled schedule is patched in place (payload edits) or marked
        for re-flattening (structural edits).  The next
        :meth:`resolve` pays only for what changed.

        Raises:
            EditError: The edit is malformed or does not apply; the net
                is left untouched in that case.
        """
        if isinstance(edit, dict):
            edit = edit_from_dict(edit)
        if not isinstance(edit, Edit):
            raise EditError(f"not an edit: {edit!r}")
        edit.check_finite()
        impact = edit.apply(self.tree)
        self.edits_applied += 1
        self._stale = True
        if impact.structural:
            self._parents.clear()
            self._kids.clear()

        for node_id in impact.removed:
            self._digest.pop(node_id, None)
            self._entry.pop(node_id, None)
            self._payload.pop(node_id, None)
            self._prefix.pop(node_id, None)
        if isinstance(edit, (SetWire, SplitWire)):
            # The child keeps its digest; only its edge-prefixed entry
            # (and everything above) changes.
            edge = self.tree.edge_to(edit.node)
            prefix = edge_entry(edge.resistance, edge.capacitance, "")
            self._prefix[edit.node] = prefix
            self._entry[edit.node] = prefix + self._digest[edit.node]
        for node_id in impact.created:
            self._digest_node(node_id)
        if impact.anchor is not None:
            self._recompute_up(impact.anchor)

        if impact.structural:
            self._schedule_stale = True
            self._index_stale = True
        elif self._schedule_stale:
            # A re-flatten is already pending (earlier structural edit):
            # it will pick up this payload change from the tree, and the
            # old schedule may not even contain the edited node.
            pass
        elif isinstance(edit, (SetSinkRAT, SetSinkCap)):
            node = self.tree.node(edit.node)
            self.compiled.patch_sink(
                edit.node, node.required_arrival, node.capacitance
            )
        elif isinstance(edit, SetWire):
            self.compiled.patch_wire(
                edit.node, edit.resistance, edit.capacitance
            )
        # SetSinkPolarity and SwapDriver leave the schedule untouched:
        # polarity is outside the compiled payloads, the driver only
        # scores the finished root frontier.
        return impact

    def apply_edits(self, edits) -> List[EditImpact]:
        """Apply a sequence of edits (see :meth:`apply`)."""
        return [self.apply(edit) for edit in edits]

    # -- schedule / index upkeep ---------------------------------------

    def _ensure_schedule(self) -> None:
        if not self._schedule_stale:
            return
        # Structural edits went through the validated mutation API, but
        # re-validating here is cheap relative to a re-flatten and keeps
        # invariant violations loud at the earliest boundary.
        self.compiled = compile_net(self.tree, self.library, validate=True)
        self._schedule_stale = False
        self._probe = None
        self._final_node = None
        self._native_points = None

    def _frozen_index(self) -> TreeIndex:
        if self._index is None or self._index_stale:
            self._index = TreeIndex(tuple(self.tree.preorder()))
            self._index_stale = False
        return self._index

    def _probes(self) -> Dict[int, List[int]]:
        """``instruction -> [nodes whose subtree starts here]``, outermost
        first (so the largest clean subtree wins the splice)."""
        if self._probe is None:
            final = self.compiled.final_of_node
            by_start: Dict[int, List[int]] = {}
            for node, start in self.compiled.start_of_node.items():
                by_start.setdefault(start, []).append(node)
            for nodes in by_start.values():
                nodes.sort(key=final.__getitem__, reverse=True)
            self._probe = by_start
            self._final_node = {
                index: node for node, index in final.items()
            }
        return self._probe

    def _native_probes(self) -> tuple:
        """``(probes, final_node, points)`` restricted to the vertices a
        native session memoizes.

        Executing is cheap in the native executor and capturing a
        frontier is not, so a native session keeps about
        :data:`NATIVE_CAPTURES` frontiers per chain instead of one per
        vertex: a vertex is kept when its subtree's instruction count
        crosses a multiple of the stride — ``len(schedule) /
        NATIVE_CAPTURES``, at least :data:`NATIVE_MIN_STRIDE` — that
        none of its children's counts reach, and the root always is.  A
        splice then lands on the nearest kept vertex below a clean
        boundary and the few instructions in between run again.  Only
        kept vertices are probed; ``points`` lists their start and
        final instructions in order.
        """
        if self._native_points is None:
            compiled = self.compiled
            start_of = compiled.start_of_node
            final_of = compiled.final_of_node
            stride = max(NATIVE_MIN_STRIDE,
                         len(compiled.ops) // NATIVE_CAPTURES)
            bucket = {
                node: (final_of[node] - start_of[node] + 1) // stride
                for node in final_of
            }
            children_of = self.tree.children_of
            root = self.tree.root_id
            kept = [
                node for node in final_of
                if node == root or bucket[node] > max(
                    (bucket[child] for child in children_of(node)), default=0
                )
            ]
            probes: Dict[int, List[int]] = {}
            for node in kept:
                probes.setdefault(start_of[node], []).append(node)
            for nodes in probes.values():
                nodes.sort(key=final_of.__getitem__, reverse=True)
            final_node = {final_of[node]: node for node in kept}
            points = sorted(set(probes) | set(final_node))
            self._native_points = (probes, final_node, points)
        return self._native_points

    # -- splice / capture ----------------------------------------------

    def _splice(
        self, snapshot: FrontierSnapshot, target_root: int, index: TreeIndex
    ):
        decisions = snapshot.decision_list()
        translate = self._translator(snapshot, target_root, index)
        if translate is not None:
            decisions = [translate(decision) for decision in decisions]
        return splice_snapshot(snapshot, self.factory, decisions=decisions)

    @staticmethod
    def _translator(
        snapshot: FrontierSnapshot, target_root: int, index: TreeIndex
    ):
        """Maps a snapshot decision onto ``target_root``'s node ids, or
        ``None`` when the splice lands where the snapshot was taken."""
        if snapshot.canon is index and snapshot.root_id == target_root:
            return None
        src_of = snapshot.canon.index_of_node
        dst_nodes = index.node_of_index
        offset = index.index_of_node[target_root] - src_of[snapshot.root_id]

        def translate(decision):
            if getattr(decision, "chain_depth", 0) >= _CHAIN_LIMIT:
                # Cap the provenance chain: expand + translate now
                # (O(answer) once) instead of nesting another
                # generation of wrappers.
                return ExpandedDecision({
                    dst_nodes[src_of[node_id] + offset]: buffer
                    for node_id, buffer
                    in reconstruct_assignment(decision).items()
                })
            return SplicedFrontierDecision(
                decision, snapshot.canon, snapshot.root_id,
                index, target_root,
            )

        return translate

    # -- the dirty-path interpreter ------------------------------------

    def resolve(self) -> BufferingResult:
        """Solve the current net, reusing every memoized clean subtree.

        Bit-identical to ``insert_buffers(tree, library, ...)`` on the
        edited net — including the DP stats, except ``runtime_seconds``
        which reports this (much shorter) resolve.  With no edits since
        the last resolve, returns the previous result without solving.
        """
        if self._last_result is not None and not self._stale:
            return self._last_result
        self._ensure_schedule()
        if self._native_mode is not None:
            return self._resolve_native()
        index = self._frozen_index()
        compiled = self.compiled
        steps, wire_r, wire_c, sink_node, sink_q, sink_c = compiled.runtime()
        plans = compiled.plans()
        probes = self._probes()
        final_node = self._final_node
        final_of_node = compiled.final_of_node
        digest = self._digest
        cache = self.cache
        context = self._context_key
        capture = self.capture
        add_buffer = self._add_buffer
        driver = self.driver if self.driver is not None else self.tree.driver

        started = time.perf_counter()
        sink_op, wire_op, merge_op, best_op, release = _resolve_ops(
            self.backend, None, None, factory=self.factory
        )
        sink_op, wire_op, merge_op, add_buffer, end_range = instrument_ops(
            sink_op, wire_op, merge_op, add_buffer
        )
        tracer = active_tracer()
        resolve_handle = (
            tracer.begin("incremental.resolve", backend=self.backend)
            if tracer is not None
            else None
        )
        factory = self.factory
        snapshot_values = getattr(factory, "snapshot_values", None)

        stack: List[object] = []
        push = stack.append
        pop = stack.pop
        peaks: List[int] = []
        gens: List[int] = []
        # Captures collect here and become cache entries only after the
        # run: values are copied at the capture point (the object
        # backend's wire op mutates candidates in place downstream) but
        # SoA provenance stays as raw tape indices until the tape is
        # archived once, at the end — capture cost therefore scales
        # with candidate values, not provenance graphs.
        pending: List[tuple] = []
        pending_keys = set()
        executed = 0
        spliced = 0
        i = 0
        total = len(steps)
        current = None
        deadline = active_deadline()
        while i < total:
            nodes_here = probes.get(i)
            if nodes_here is not None:
                snapshot = None
                for node in nodes_here:
                    snapshot = cache.get((digest[node], context))
                    if snapshot is not None:
                        break
                if snapshot is not None:
                    if tracer is not None:
                        splice_handle = tracer.begin(
                            "splice", node=node, size=len(snapshot.q)
                        )
                        push(self._splice(snapshot, node, index))
                        tracer.end(splice_handle)
                    else:
                        push(self._splice(snapshot, node, index))
                    peaks.append(snapshot.peak)
                    gens.append(snapshot.generated)
                    spliced += 1
                    i = final_of_node[node] + 1
                    continue
            op, arg = steps[i]
            executed += 1
            code = op & 3
            if code == OP_WIRE:
                top = stack[-1]
                current = wire_op(top, wire_r[arg], wire_c[arg])
                if current is not top:
                    release(top)
                    stack[-1] = current
            elif code == OP_SINK:
                current = sink_op(sink_node[arg], sink_q[arg], sink_c[arg])
                push(current)
                peaks.append(0)
                gens.append(1)
            elif code == OP_MERGE:
                right = pop()
                left = pop()
                right_peak = peaks.pop()
                right_gen = gens.pop()
                current = merge_op(left, right)
                gens[-1] += right_gen + len(current)
                if right_peak > peaks[-1]:
                    peaks[-1] = right_peak
                if current is not left:
                    release(left)
                if current is not right:
                    release(right)
                # Right's aggregate slot folded into left's, which now
                # sits exactly under the pushed result.
                push(current)
            else:  # OP_BUFFER
                top = stack[-1]
                before = len(top)
                current = add_buffer(top, plans[arg])
                gens[-1] += max(len(current) - before, 0)
                if current is not top:
                    release(top)
                    stack[-1] = current
            if op & OP_FINAL:
                length = len(current)
                if length > peaks[-1]:
                    peaks[-1] = length
                if deadline is not None:
                    deadline.check("incremental.resolve")
                if end_range is not None:
                    end_range(length)
                if capture:
                    node = final_node[i]
                    key = (digest[node], context)
                    if key not in pending_keys and key not in cache:
                        pending_keys.add(key)
                        store = stack[-1]
                        if snapshot_values is not None:
                            q, c, d = snapshot_values(store)
                            decisions = None
                        else:
                            q = []
                            c = []
                            decision_list = []
                            for candidate in store:
                                q.append(candidate.q)
                                c.append(candidate.c)
                                decision_list.append(candidate.decision)
                            decisions = tuple(decision_list)
                            d = None
                        pending.append(
                            (key, node, q, c, decisions, d,
                             peaks[-1], gens[-1])
                        )
            i += 1

        assert len(stack) == 1, "schedule must reduce to the root list"
        if resolve_handle is not None:
            tracer.end(
                resolve_handle, executed=executed, total=total,
                spliced=spliced,
            )
        result = _finish(
            stack[0], best_op, release, driver, self._label,
            compiled.num_buffer_positions, self.library, peaks[0], gens[0],
            started, self.backend,
        )
        if pending:
            archive = (
                factory.archive_tape() if snapshot_values is not None
                else None
            )
            for key, node, q, c, decisions, d, peak, gen in pending:
                cache.put(key, FrontierSnapshot(
                    q, c, decisions, index, node, peak, gen,
                    archive=archive, d=d,
                ))
        if factory is not None:
            factory.end_solve()
        return self._record(result, executed, total, spliced)

    def _record(self, result, executed: int, total: int,
                spliced: int) -> BufferingResult:
        self.resolves += 1
        self.last_executed_fraction = executed / total if total else 0.0
        self.last_spliced_subtrees = spliced
        self._executed_instructions += executed
        self._total_instructions += total
        self._last_result = result
        self._stale = False
        return result

    def _resolve_native(self) -> BufferingResult:
        """:meth:`resolve` on the native executor.

        The same control flow as the interpreter loop — probe the cache
        at subtree starts, splice hits, capture completed frontiers —
        planned up front: whether a probe hits or a frontier needs
        capturing depends only on the digests and the cache (captures
        are committed after the run), so a walk over the probe and
        node-boundary points yields the splice points and the capture
        list.  The executor then runs each span between two splices in
        one call, keeping the listed frontiers as it passes them, with
        per-stack-entry peak/generated aggregates.
        """
        from bisect import bisect_left

        from repro.core import native
        from repro.obs.profiler import active_profiler

        index = self._frozen_index()
        compiled = self.compiled
        probes, final_node, events = self._native_probes()
        final_of_node = compiled.final_of_node
        digest = self._digest
        cache = self.cache
        context_key = self._context_key
        capture = self.capture
        total = len(compiled.ops)

        started = time.perf_counter()
        tracer = active_tracer()
        resolve_handle = (
            tracer.begin("incremental.resolve", backend=self.backend)
            if tracer is not None
            else None
        )
        # Plan: (splice instruction, snapshot, node) in order, plus the
        # node-final instructions whose frontiers are kept.
        splices: List[tuple] = []
        captures = array("q")
        pending: List[tuple] = []
        pending_keys = set()
        executed = 0
        cursor = 0
        position = 0
        count = len(events)
        while position < count:
            point = events[position]
            nodes_here = probes.get(point)
            if nodes_here is not None:
                snapshot = None
                for node in nodes_here:
                    snapshot = cache.get((digest[node], context_key))
                    if snapshot is not None:
                        break
                if snapshot is not None:
                    splices.append((point, snapshot, node))
                    executed += point - cursor
                    cursor = final_of_node[node] + 1
                    position = bisect_left(events, cursor, position)
                    continue
            if capture:
                node = final_node.get(point)
                if node is not None:
                    key = (digest[node], context_key)
                    if key not in pending_keys and key not in cache:
                        pending_keys.add(key)
                        captures.append(point)
                        pending.append((key, node))
            position += 1
        executed += total - cursor

        deadline = active_deadline()
        profiler = active_profiler()
        site = "incremental.resolve"
        context = native.acquire(compiled)
        try:
            context.begin(self._native_mode, profiler is not None, captures)
            cursor = 0
            for point, snapshot, node in splices:
                context.run(cursor, point, deadline, site, profiler)
                splice_handle = (
                    tracer.begin("splice", node=node, size=len(snapshot.q))
                    if tracer is not None
                    else None
                )
                translate = self._translator(snapshot, node, index)
                decision_at = (
                    snapshot.decision_at if translate is None
                    else lambda i, s=snapshot, t=translate: t(s.decision_at(i))
                )
                context.push(snapshot.q, snapshot.c, decision_at,
                             snapshot.peak, snapshot.generated)
                if splice_handle is not None:
                    tracer.end(splice_handle)
                cursor = final_of_node[node] + 1
            context.run(cursor, total, deadline, site, profiler)
            depth, _, peak, generated, _ = context.info()
            assert depth == 1, "schedule must reduce to the root list"
            if resolve_handle is not None:
                tracer.end(
                    resolve_handle, executed=executed, total=total,
                    spliced=len(splices),
                )
            result = _finish(
                context, native.NativeContext.best, _release_noop,
                self.driver if self.driver is not None else self.tree.driver,
                self._label, compiled.num_buffer_positions, self.library,
                peak, generated, started, self.backend,
            )
            if pending:
                archive = native.NativeArchive(context)
                for (key, node), (q, c, d, peak, generated) in zip(
                    pending, context.captured()
                ):
                    cache.put(key, FrontierSnapshot(
                        q, c, None, index, node, peak, generated,
                        archive=archive, d=d,
                    ))
        finally:
            native.release(context)
        return self._record(result, executed, total, len(splices))

    # -- introspection -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.tree.num_nodes

    def stats(self) -> Dict[str, object]:
        """Session health: counters plus the frontier cache's (JSON-ready)."""
        total = self._total_instructions
        return {
            "algorithm": self._label,
            "backend": self.backend,
            "num_nodes": self.tree.num_nodes,
            "resolves": self.resolves,
            "edits_applied": self.edits_applied,
            "last_executed_fraction": self.last_executed_fraction,
            "last_spliced_subtrees": self.last_spliced_subtrees,
            "executed_fraction": (
                self._executed_instructions / total if total else 0.0
            ),
            "frontier_cache": self.cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalSolver(nodes={self.tree.num_nodes}, "
            f"algorithm={self._label!r}, backend={self.backend!r}, "
            f"resolves={self.resolves})"
        )
