"""The native backend: a whole compiled schedule per C call.

``kernel.c`` (next to this file) executes a
:class:`~repro.core.schedule.CompiledNet` — SINK / WIRE / MERGE /
BUFFER with the ``hull`` and ``scan`` generators, ``destructive`` mode
and the load-capped prefix-scan fallback — behind a context handle,
writing provenance in :class:`~repro.core.stores.soa.ProvenanceTape`'s
four-column layout.  This module builds and loads it with ``ctypes`` and
exposes:

* :func:`available` / :func:`load` — the compiled library, built on
  first use (never at import) with the installed ``gcc`` into a
  content-hashed file under the user cache directory
  (:func:`cache_dir`), published by an atomic rename so concurrent
  builders end with one loadable file.  A failed build or load makes
  the backend unavailable: ``resolve_backend("auto")`` then falls back
  to ``"soa"`` and one warning is logged.
* :class:`NativeContext` — one executor context bound to one compiled
  net; :func:`acquire` / :func:`release` pool them per net so repeat
  solves reuse warm buffers and concurrent threads never share one.
* :class:`NativeStoreFactory` — the ``"native"`` store-backend entry.
  Whole-schedule solves go through :func:`repro.core.dp._run_native`;
  per-operation callers (the polarity DP, a tree walk pinned by
  routing policy, custom ``add_buffer`` callables, the partitioned
  solver's residual replay) get this factory, which is the SoA store.

**Bit-identity.**  The C code performs the object backend's IEEE-754
operations in the same order with the same tie rules.  It is compiled
with ``-O2 -ffp-contract=off`` and without ``-ffast-math``: contraction
would fuse ``q - r * c`` into one rounding (an FMA) and fast-math would
reassociate sums, and either changes low-order bits.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path
from typing import List, Optional

from repro.core.stores.soa import SoAStoreFactory, TapeArchive, np
from repro.errors import AlgorithmError

__all__ = [
    "MODE_DESTRUCTIVE",
    "MODE_HULL",
    "MODE_SCAN",
    "NativeArchive",
    "NativeContext",
    "NativeStoreFactory",
    "SpliceTable",
    "acquire",
    "available",
    "build",
    "cache_dir",
    "library_path",
    "load",
    "release",
    "unavailable_reason",
]

logger = logging.getLogger(__name__)

#: Add-buffer modes, as tagged on the built-in store ops
#: (``add_buffer.native_mode``): hull walk keeping the full list, hull
#: walk inserting into the hull (the paper's literal pseudocode), and
#: the exhaustive Lillis scan.
MODE_HULL = 0
MODE_DESTRUCTIVE = 1
MODE_SCAN = 2

_SOURCE = Path(__file__).with_name("kernel.c")
_COMPILER = "gcc"
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Node boundaries per C call: the deadline and profiler are polled
#: between chunks.
CHUNK_FINALS = 256

_OPS = ("sink", "wire", "merge", "buffer")

_state_lock = threading.Lock()
#: Serializes binding creation, so concurrent first solves of one
#: compiled net share one binding.
_bind_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_failure: Optional[str] = None


def cache_dir() -> Path:
    """Where built libraries live: ``$REPRO_NATIVE_CACHE``, else
    ``$XDG_CACHE_HOME/repro/native``, else ``~/.cache/repro/native``."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def library_path(directory: Optional[Path] = None) -> Path:
    """The content-hashed library file for this source, flags and ABI."""
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(" ".join((_COMPILER,) + _FLAGS).encode())
    digest.update(f"{platform.system()}-{platform.machine()}".encode())
    folder = Path(directory) if directory is not None else cache_dir()
    return folder / f"repro_native-{digest.hexdigest()[:16]}.so"


def build(directory: Optional[Path] = None) -> Path:
    """Compile ``kernel.c`` unless an identical build is already cached.

    The compiler writes a private temporary file that is then renamed
    over the target, so a reader never sees a partial library and two
    processes building at once both end with one complete file.
    """
    path = library_path(directory)
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, scratch = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-o", scratch, str(_SOURCE), "-lm"],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return path


_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_PI64 = ctypes.POINTER(ctypes.c_int64)
_PF64 = ctypes.POINTER(ctypes.c_double)

_SIGNATURES = {
    "rn_new": ([], _P),
    "rn_free": ([_P], None),
    "rn_check": ([ctypes.c_char_p, _P, _I64, _I64, _I64, _I64, _P, _P, _I64,
                  _I64, _P], ctypes.c_int),
    "rn_bind": ([_P, ctypes.c_char_p, _P, _I64] + [_P] * 13, None),
    "rn_begin": ([_P, ctypes.c_int, ctypes.c_int, _P, _I64], None),
    "rn_run": ([_P, _I64, _I64, _I64], _I64),
    "rn_push": ([_P, _I64, _P, _P, _I64, _I64, _I64], ctypes.c_int),
    "rn_info": ([_P, _PI64], None),
    "rn_best": ([_P, ctypes.c_double, _PF64, _PI64], _I64),
    "rn_backtrace": ([_P, _I64, _P, _P, _I64, _P, _I64, _P], ctypes.c_int),
    "rn_walk": ([_P, _P, _P, _P, _I64, _I64, _P, _P, _I64, _P, _I64, _P],
                ctypes.c_int),
    "rn_captures": ([_P, _PI64], None),
    "rn_copy_captures": ([_P, _P, _P, _P, _P], None),
    "rn_copy_tape": ([_P, _P], None),
    "rn_compact": ([_P, _P, _I64, _PI64], ctypes.c_int),
    "rn_counters": ([_P, _PF64, _PI64, _PI64], None),
}


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The loaded executor library, building it on first use.

    Returns ``None`` (and logs one warning per process) when NumPy is
    missing or the build or load fails; the outcome is remembered.
    """
    global _lib, _failure
    if _lib is not None or _failure is not None:
        return _lib
    with _state_lock:
        if _lib is not None or _failure is not None:
            return _lib
        try:
            if np is None:
                raise RuntimeError("numpy is not installed")
            _lib = _open(build())
        except Exception as exc:  # compiler, filesystem or loader failure
            detail = getattr(exc, "stderr", None)
            reason = f"{type(exc).__name__}: {exc}"
            if detail:
                reason += f" ({detail.decode(errors='replace').strip()[:400]})"
            _failure = reason
            logger.warning(
                "native backend unavailable, falling back to soa: %s", reason
            )
    return _lib


def available() -> bool:
    """Whether the native executor is loaded (building it if needed)."""
    return load() is not None


def unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed, or ``None``."""
    return _failure


def _reset() -> None:
    """Forget the load outcome so the next use retries (tests)."""
    global _lib, _failure
    with _state_lock:
        _lib = None
        _failure = None


def _require() -> ctypes.CDLL:
    lib = load()
    if lib is None:
        raise AlgorithmError(
            f"the 'native' candidate-store backend is unavailable "
            f"({_failure}); use backend='soa' or 'object'"
        )
    return lib


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


class _Binding:
    """A compiled net's schedule in the executor's flat layout.

    Holds the C-visible plan columns (one row per buffer type of each
    distinct plan; shared library-wide plans appear once) plus the
    pool of idle contexts bound to this net.
    """

    __slots__ = ("compiled", "plans", "columns", "pointers", "idle")

    def __init__(self, compiled, lib: ctypes.CDLL) -> None:
        plans = compiled.plans()
        plan_kernel = array("q")
        kernel_off = array("q", [0])
        t_r = array("d")
        t_cin = array("d")
        t_k = array("d")
        t_limit = array("d")
        t_capped = array("B")
        t_cap_order = array("q")
        kernels = {}
        for plan in plans:
            owner = plan._shared_from or plan
            index = kernels.get(id(owner))
            if index is None:
                index = len(kernels)
                kernels[id(owner)] = index
                for buffer in owner.by_resistance_desc:
                    t_r.append(buffer.driving_resistance)
                    t_cin.append(buffer.input_capacitance)
                    t_k.append(buffer.intrinsic_delay)
                    capped = buffer.max_load is not None
                    t_limit.append(buffer.max_load if capped else float("inf"))
                    t_capped.append(1 if capped else 0)
                t_cap_order.extend(owner.cap_order)
                kernel_off.append(len(t_r))
            plan_kernel.append(index)
        n_ops = len(compiled.ops)
        n_wires = len(compiled.wire_r)
        n_sinks = len(compiled.sink_node)
        if (
            len(compiled.args) != n_ops
            or len(compiled.wire_c) != n_wires
            or len(compiled.sink_q) != n_sinks
            or len(compiled.sink_c) != n_sinks
            or lib.rn_check(
                compiled.ops, _address(compiled.args), n_ops, n_wires,
                n_sinks, len(plans), _address(plan_kernel),
                _address(kernel_off), len(kernels), len(t_r),
                _address(t_cap_order),
            )
        ):
            raise AlgorithmError(
                "compiled net is inconsistent: an instruction or plan "
                "index falls outside its payload"
            )
        self.compiled = compiled
        self.plans = plans
        self.columns = (plan_kernel, kernel_off, t_r, t_cin, t_k, t_limit,
                        t_capped, t_cap_order)
        self.pointers = (
            compiled.ops, _address(compiled.args), len(compiled.ops),
            _address(compiled.wire_r), _address(compiled.wire_c),
            _address(compiled.sink_node), _address(compiled.sink_q),
            _address(compiled.sink_c),
        ) + tuple(_address(column) for column in self.columns)
        self.idle: List["NativeContext"] = []


class NativeContext:
    """One executor context bound to one compiled net.

    Not thread-safe; :func:`acquire` hands each caller its own.  The
    context keeps its stack and tape buffers across solves.
    """

    __slots__ = ("lib", "handle", "binding", "generation", "splices",
                 "_info", "_captures", "_best_values", "_best_record",
                 "__weakref__")

    def __init__(self, binding: _Binding) -> None:
        lib = _require()
        self.lib = lib
        self.handle = lib.rn_new()
        if not self.handle:
            raise MemoryError("native context allocation failed")
        self.binding = binding
        lib.rn_bind(self.handle, *binding.pointers)
        self.generation = 0
        #: Provenance of spliced frontiers (SPLICE records' slots).
        self.splices = SpliceTable()
        self._captures: Optional[array] = None
        self._info = (ctypes.c_int64 * 5)()
        self._best_values = (ctypes.c_double * 2)()
        self._best_record = ctypes.c_int64()

    def __del__(self) -> None:
        handle = getattr(self, "handle", None)
        if handle:
            self.lib.rn_free(handle)
            self.handle = None

    # -- execution -----------------------------------------------------

    def begin(self, mode: int, profiling: bool,
              captures: Optional[array] = None) -> None:
        """Start a solve.  After each instruction index in ``captures``
        (an ascending ``array('q')``) the top frontier is kept for
        :meth:`captured`."""
        self.generation += 1
        self.splices = SpliceTable()
        self._captures = captures
        address, count = (
            (0, 0) if captures is None or not len(captures)
            else (_address(captures), len(captures))
        )
        self.lib.rn_begin(self.handle, mode, 1 if profiling else 0,
                          address, count)

    def run(self, start: int, stop: int, deadline=None, site: str = "",
            profiler=None) -> None:
        """Execute instructions ``[start, stop)`` in chunks of at most
        :data:`CHUNK_FINALS` node boundaries, polling ``deadline`` and
        folding C counters into ``profiler`` between chunks."""
        run = self.lib.rn_run
        handle = self.handle
        index = start
        while index < stop:
            index = run(handle, index, stop, CHUNK_FINALS)
            if index < 0:
                _raise_status(index)
            if profiler is not None:
                self.fold_counters(profiler)
            if deadline is not None:
                deadline.check(site)

    def fold_counters(self, profiler) -> None:
        seconds = (ctypes.c_double * 4)()
        calls = (ctypes.c_int64 * 4)()
        misc = (ctypes.c_int64 * 2)()
        self.lib.rn_counters(self.handle, seconds, calls, misc)
        for slot, op in enumerate(_OPS):
            profiler.seconds[op] += seconds[slot]
            profiler.calls[op] += calls[slot]
        profiler.ranges += misc[0]
        if misc[1] > profiler.peak_list_length:
            profiler.peak_list_length = misc[1]

    def push(self, q, c, decision_at, peak: int, generated: int) -> None:
        """Push a memoized frontier: values are copied, and candidate
        ``i``'s provenance is ``decision_at(i)``, built only if a
        backtrace or an archive reaches it."""
        q = _doubles(q)
        c = _doubles(c)
        base = self.splices.add(len(q), decision_at)
        status = self.lib.rn_push(
            self.handle, len(q), q.ctypes.data, c.ctypes.data, base, peak,
            generated,
        )
        if status:
            _raise_status(status)

    def info(self):
        """``(depth, top length, top peak, top generated, tape length)``."""
        self.lib.rn_info(self.handle, self._info)
        return tuple(self._info)

    def __len__(self) -> int:
        """Candidates on top of the stack (the root list after a solve)."""
        return self.info()[1]

    def captured(self):
        """The frontiers kept at the ``captures`` instructions, in order:
        ``(q, c, tape index, peak, generated)`` per capture.  The
        columns are views of one copy of the capture arena, shared by
        the captures like the tape archive they index into."""
        info = self._info
        self.lib.rn_captures(self.handle, info)
        count, total = info[0], info[1]
        if not count:
            return []
        q = np.empty(total, dtype=np.float64)
        c = np.empty(total, dtype=np.float64)
        d = np.empty(total, dtype=np.int64)
        meta = np.empty(4 * count, dtype=np.int64)
        self.lib.rn_copy_captures(self.handle, q.ctypes.data, c.ctypes.data,
                                  d.ctypes.data, meta.ctypes.data)
        rows = meta.tolist()
        return [
            (q[offset:offset + length], c[offset:offset + length],
             d[offset:offset + length], peak, generated)
            for offset, length, peak, generated
            in zip(rows[0::4], rows[1::4], rows[2::4], rows[3::4])
        ]

    # -- the root ------------------------------------------------------

    def best(self, resistance: float):
        """The driver's min-c argmax at the root, as ``BestCandidate``."""
        from repro.core.stores.base import BestCandidate

        values = self._best_values
        record = self._best_record
        index = self.lib.rn_best(self.handle, resistance, values, record)
        if index == -2:
            _raise_status(index)
        if index < 0:
            return None
        return BestCandidate(
            q=values[0], c=values[1],
            decision=NativeTapeRef(self, record.value, self.generation),
        )

    def expand(self, record: int, assignment: dict) -> None:
        """Backtrace tape record ``record`` into ``assignment``."""
        _walk(self.lib.rn_backtrace, (self.handle,), record,
              self.binding.plans, self.splices, assignment)


class NativeTapeRef:
    """Deferred provenance of a native root candidate.

    The ``expand`` hook of
    :func:`~repro.core.candidate.reconstruct_assignment`: the backtrace
    runs in C, once per solve; a reference that outlives its solve fails
    loudly instead of reading the next solve's tape.
    """

    __slots__ = ("context", "index", "generation")

    def __init__(self, context: NativeContext, index: int,
                 generation: int) -> None:
        self.context = context
        self.index = index
        self.generation = generation

    def expand(self, assignment: dict, stack: list) -> None:
        if self.context.generation != self.generation:
            raise AlgorithmError(
                "stale provenance reference: the native solve that "
                "produced this candidate has ended"
            )
        self.context.expand(self.index, assignment)

    def __repr__(self) -> str:
        return f"NativeTapeRef({self.index}, gen={self.generation})"


_scratch = threading.local()


def _walk_buffers(buffer_cap: int, splice_cap: int):
    """This thread's backtrace outputs, grown to the given caps:
    ``(arrays, addresses)`` for plan slots, type indices, splice slots
    and the two counts."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or len(buffers[0][0]) < buffer_cap or \
            len(buffers[0][2]) < splice_cap:
        size = max(buffer_cap,
                   256 if buffers is None else len(buffers[0][0]))
        splice_size = max(splice_cap,
                          64 if buffers is None else len(buffers[0][2]))
        arrays = (np.empty(size, dtype=np.int64),
                  np.empty(size, dtype=np.int64),
                  np.empty(splice_size, dtype=np.int64),
                  np.empty(2, dtype=np.int64))
        buffers = (arrays, tuple(array.ctypes.data for array in arrays))
        _scratch.buffers = buffers
    return buffers


def _doubles(values):
    """``values`` as a contiguous float64 array (no copy when it is one)."""
    return np.ascontiguousarray(values, dtype=np.float64)


def _walk(function, leading, record, plans, splices, assignment) -> None:
    """Run a C backtrace and apply its buffer and splice outputs."""
    from repro.core.candidate import reconstruct_assignment

    # Answers are short: start with this thread's arrays and grow them
    # to the whole plan table / splice count only on ERR_FULL.
    buffer_cap = splice_cap = 0
    while True:
        arrays, (plan_out, type_out, splice_out, counts) = _walk_buffers(
            buffer_cap, splice_cap)
        status = function(*leading, record, plan_out, type_out,
                          len(arrays[0]), splice_out, len(arrays[2]), counts)
        if status != -4 or (buffer_cap, splice_cap) == (len(plans),
                                                         len(splices)):
            break
        buffer_cap, splice_cap = len(plans), len(splices)
    if status:
        _raise_status(status)
    buffers, spliced = arrays[3].tolist()
    # Copied out first: expanding a splice may walk again on this thread.
    slots = arrays[0][:buffers].tolist()
    types = arrays[1][:buffers].tolist()
    spliced_slots = arrays[2][:spliced].tolist()
    for slot, kind in zip(slots, types):
        plan = plans[slot]
        assignment[plan.node_id] = plan.by_resistance_desc[kind]
    for slot in spliced_slots:
        assignment.update(reconstruct_assignment(splices[slot]))


class SpliceTable:
    """The decisions behind SPLICE records, built on first use.

    A spliced frontier adds one group of consecutive slots and a
    ``decision_at(i)`` builder; a backtrace usually reaches one
    candidate per group, so building all of them up front would cost
    O(frontier) per splice for nothing, so indexing builds one
    decision at a time.
    """

    __slots__ = ("bases", "builders", "length")

    def __init__(self) -> None:
        self.bases: List[int] = []
        self.builders: list = []
        self.length = 0

    def add(self, count: int, decision_at) -> int:
        base = self.length
        self.bases.append(base)
        self.builders.append(decision_at)
        self.length += count
        return base

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, slot: int):
        from bisect import bisect_right

        group = bisect_right(self.bases, slot) - 1
        return self.builders[group](slot - self.bases[group])


class NativeArchive(TapeArchive):
    """A :class:`~repro.core.stores.soa.TapeArchive` of the frontiers a
    native context captured, whose backtraces run in C.

    Construction first compacts the context's tape to the records the
    captured frontiers reach (about a tenth of a trunk's tape), so call
    it after the solve's own backtrace and before
    :meth:`NativeContext.captured`, whose tape indices it renumbers.
    The four columns are rows of one C-filled array (the usual
    ``op``/``a``/``b``/``c`` attributes); ``plans`` is the
    compiled net's plan table itself, which is never mutated; and only
    the splice slots a kept record names are frozen.
    """

    __slots__ = ("_columns",)

    def __init__(self, context: "NativeContext") -> None:
        splices = context.splices
        slots = np.empty(max(len(splices), 1), dtype=np.int64)
        info = context._info
        status = context.lib.rn_compact(context.handle, slots.ctypes.data,
                                        len(splices), info)
        if status:
            _raise_status(status)
        length, kept_slots = info[0], info[1]
        columns = np.empty((4, length), dtype=np.int64)
        context.lib.rn_copy_tape(context.handle, columns.ctypes.data)
        base = columns.ctypes.data
        step = 8 * length
        # Raw column addresses for the C walk; the views below keep the
        # buffer alive.
        self._columns = (base, base + step, base + 2 * step, base + 3 * step,
                         length)
        self.op, self.a, self.b, self.c = columns
        self.plans = context.binding.plans
        self._freeze_splices(
            [splices[slot] for slot in slots[:kept_slots].tolist()])

    def expand_into(self, index: int, assignment: dict) -> None:
        _walk(_require().rn_walk, self._columns, index, self.plans,
              self.splices, assignment)


def _raise_status(status: int) -> None:
    if status == -1:
        raise MemoryError("native executor ran out of memory")
    raise AlgorithmError(
        f"native executor rejected the schedule (status {status})"
    )


def acquire(compiled) -> NativeContext:
    """An idle context bound to ``compiled`` (created on demand).

    The binding lives on the compiled net (dropped from pickles, like
    its store factories); each concurrent solve gets its own context.
    """
    binding = compiled._native
    if binding is None:
        lib = _require()
        with _bind_lock:
            binding = compiled._native
            if binding is None:
                binding = compiled._native = _Binding(compiled, lib)
    try:
        return binding.idle.pop()
    except IndexError:
        return NativeContext(binding)


def release(context: NativeContext) -> None:
    """Return ``context`` to its net's idle pool."""
    context.splices = SpliceTable()
    context._captures = None
    context.binding.idle.append(context)


class NativeStoreFactory(SoAStoreFactory):
    """The ``"native"`` backend's per-operation store factory.

    Whole-schedule solves never mint stores (see
    :func:`repro.core.dp._run_native`); callers that drive the DP one
    operation at a time get SoA stores, which are bit-identical.
    """

    def __init__(self) -> None:
        _require()
        super().__init__()
