"""Shared pieces: sample statistics, the server process, answer checks.

The answer checks run after the timed window, on a two-process pool:
every timed answer is compared with the pure-Python object backend on
the same net (slack bit-identical, same buffer assignment).
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

ROOT = Path(__file__).resolve().parent.parent

#: Kernel profiler op names reported per solve.
KERNEL_OPS = ("wire", "merge", "buffer")

#: Answer checks run on this many worker processes.
CHECK_WORKERS = 2


# -- statistics ------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated ``pct``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    ``count`` is a run's planned sample count, so the percentile is
    fixed by the plan, not by how fast a run went.  Below 21 samples no
    percentile above the median qualifies and the median is returned.
    """
    return max(50, (100 * (count - 10)) // count) if count > 10 else 50


class Samples:
    """Per-class latency samples in milliseconds, with planned counts.

    Each sample is kept twice: as measured (``raw``) and at the reference
    host speed (``values``, see :class:`SpeedGauge`).  The metrics use
    ``values``; the raw medians are printed beside them.
    """

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}
        self.planned: Dict[str, int] = {}

    def plan(self, name: str, count: int) -> None:
        self.planned[name] = count
        self.values.setdefault(name, [])

    def add(self, name: str, seconds: float, factor: float) -> None:
        self.values.setdefault(name, []).append(seconds * 1e3 * factor)
        self.raw.setdefault(name, []).append(seconds * 1e3)

    def p50(self, name: str) -> float:
        return percentile(self.values[name], 50)

    def tail(self, name: str) -> Tuple[float, int]:
        pct = tail_percentile(self.planned[name])
        return percentile(self.values[name], pct), pct


# -- host speed --------------------------------------------------------------

#: One calibration pass takes this long at the reference host speed (ms).
CALIBRATION_MS = 12.0

_RNG = random.Random(1)


class _Node:
    __slots__ = ("key", "value", "kids")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.kids: List["_Node"] = []


def _calibration_pass(arrays: List[Any]) -> None:
    """Fixed work in the program's mix, using no repro code: dict and
    float arithmetic, small NumPy array operations, and an object-tree
    walk serialized to JSON.  The collector is off for the pass, so
    garbage the program left behind is not collected on the pass's
    clock."""
    import numpy

    gc.disable()
    try:
        table: Dict[int, float] = {}
        total = 0.0
        for i in range(10000):
            key = i % 997
            table[key] = table.get(key, 0.0) + i * 1.0001
            total += (i % 7) * 0.5
        for _ in range(4):
            for array in arrays:
                merged = numpy.concatenate((numpy.minimum(array, 0.5), array))
                total += float(merged[numpy.argsort(merged, kind="stable")[-1]])
        nodes = [_Node(i, i * 0.5) for i in range(2000)]
        for i in range(1, len(nodes)):
            nodes[(i - 1) // 2].kids.append(nodes[i])
        sums = {}
        stack = [nodes[0]]
        while stack:
            node = stack.pop()
            sums[node.key] = node.value + sum(kid.value for kid in node.kids)
            stack.extend(node.kids)
        json.dumps(sums)
    finally:
        gc.enable()


def running_tasks() -> int:
    """Threads of this process and of all its descendants (the server,
    pool workers) that are running or in uninterruptible wait, not
    counting the calling thread."""
    me = threading.get_native_id()
    count = 0
    stack = [os.getpid()]
    while stack:
        pid = stack.pop()
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            task = f"/proc/{pid}/task/{tid}"
            try:
                with open(task + "/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
                with open(task + "/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
            except (OSError, ValueError, IndexError):
                continue
            if state in ("R", "D") and int(tid) != me:
                count += 1
    return count


class SpeedGauge:
    """The host's current speed, from a calibration pass around each op.

    The host this benchmark runs on is shared: the same work takes up to
    twice as long from one minute to the next, and no run is long
    enough to average that out.  So every timed operation is bracketed
    by two calibration passes and scaled by ``CALIBRATION_MS`` over the
    median of the last few, which reports milliseconds at the reference
    speed.  The pass touches no repro code.

    A pass must not run beside work of the program: CPU the program
    spends outside the timed call (server work after the reply, a
    background thread, a pool process) would slow the pass and be
    divided out.  So each pass first waits until no other thread of the
    process tree is running in three probes a millisecond apart, and
    counts the passes that still found it busy after half a second.
    """

    PROBES = 3
    WAIT_LIMIT_S = 0.5

    def __init__(self, window: int = 5) -> None:
        import numpy

        self.recent: Deque[float] = deque(maxlen=window)
        self.passes: List[float] = []
        self.busy_passes = 0
        self.arrays = [
            numpy.array([_RNG.random() for _ in range(size)])
            for size in (_RNG.randrange(20, 200) for _ in range(64))
        ]

    def _wait_idle(self) -> None:
        deadline = time.perf_counter() + self.WAIT_LIMIT_S
        idle = 0
        while idle < self.PROBES:
            if time.perf_counter() > deadline:
                self.busy_passes += 1
                return
            idle = 0 if running_tasks() else idle + 1
            time.sleep(0.001)

    def sample(self) -> float:
        """Run one pass once the program is idle; returns the current
        scale factor."""
        self._wait_idle()
        elapsed, _ = timed(lambda: _calibration_pass(self.arrays))
        self.recent.append(elapsed * 1e3)
        self.passes.append(elapsed * 1e3)
        return CALIBRATION_MS / percentile(self.recent, 50)

    def time(self, fn: Callable[[], Any]) -> Tuple[float, float, Any]:
        """Time ``fn`` between two passes: ``(seconds, factor, result)``."""
        self.sample()
        elapsed, out = timed(fn)
        return elapsed, self.sample(), out


GAUGE = SpeedGauge()


def rounds(seconds: float, nominal: float, trace: bool) -> int:
    """Whole rounds in a run of ``seconds``; a traced run needs two (one
    untraced, one traced)."""
    return max(2 if trace else 1, round(seconds / nominal))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- the repro serve subprocess ---------------------------------------------

class Server:
    """``repro serve --jobs 1`` on an ephemeral port, as a subprocess."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        from repro.service import ServiceClient

        self.client = ServiceClient(port=int(match.group(1)), timeout=120.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.healthz()
                break
            except Exception:
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def scrape(text: str, name: str) -> float:
    """Sum every series of the Prometheus counter ``name`` in ``text``."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name)] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


# -- answer checks (object backend, after the timed window) ----------------

def named(assignment: Dict[Any, Any]) -> Dict[str, str]:
    """An assignment as ``{str(node id): buffer name}``."""
    return {str(node): getattr(buf, "name", buf)
            for node, buf in assignment.items()}


def _reference_task(task) -> Any:
    """Worker side: object-backend answers in the net's serialized ids."""
    from repro import insert_buffers
    from repro.tree.io import library_from_dict, tree_from_dict

    kind = task[0]
    if kind == "solve":
        _, net, lib, driver_r = task
        library = library_from_dict(lib)
        tree, id_map = tree_from_dict(net, with_id_map=True)
        label = {new: old for old, new in id_map.items()}
        driver = None
        if driver_r is not None:
            from repro import Driver

            driver = Driver(resistance=driver_r)
        result = insert_buffers(tree, library, backend="object",
                                driver=driver)
        return (result.slack, named(
            {label[n]: b for n, b in result.assignment.items()}))
    return _session_reference(*task[1:])


def replay_edits(solver, edits, id_map, created,
                 label: Optional[Dict[Any, Any]] = None) -> float:
    """Apply one ``/edit`` request's edits to a local ``IncrementalSolver``.

    ``edits`` name nodes by the net's serialized ids, which ``id_map``
    maps to the solver's; the nodes the edits create are recorded under
    the server's labels ``created`` (in ``id_map`` and, when given, in
    the reverse map ``label``).  Returns the seconds spent in
    ``solver.apply``.
    """
    from repro.incremental.edits import edit_from_dict

    seconds = 0.0
    made = []
    for spec in edits:
        spec = dict(spec)
        for field in ("node", "parent"):
            if field in spec:
                spec[field] = id_map[spec[field]]
        edit = edit_from_dict(spec)
        elapsed, impact = timed(lambda: solver.apply(edit))
        seconds += elapsed
        made.extend(impact.created)
    for internal, serialized in zip(made, created):
        id_map[serialized] = internal
        if label is not None:
            label[internal] = serialized
    return seconds


def _session_reference(net, lib, requests, created) -> List[Any]:
    """Mirror one ECO session on the object backend.

    The opening answer is a whole-net object solve under the incremental
    engine; each later answer is replayed incrementally on the object
    store, which the engine keeps bit-identical to a solve from scratch.
    """
    from repro.incremental.engine import IncrementalSolver
    from repro.tree.io import library_from_dict, tree_from_dict

    library = library_from_dict(lib)
    tree, id_map = tree_from_dict(net, with_id_map=True)
    label = {new: old for old, new in id_map.items()}

    def answer(result):
        return (result.slack, named(
            {label[n]: b for n, b in result.assignment.items()}))

    solver = IncrementalSolver(tree, library, backend="object")
    answers = [answer(solver.resolve())]
    for edits, new_labels in zip(requests, created):
        replay_edits(solver, edits, id_map, new_labels, label)
        answers.append(answer(solver.resolve()))
    return answers


def _task_key(task: tuple) -> tuple:
    if task[0] == "solve":  # same net and library objects, same driver
        return (id(task[1]), id(task[2]), task[3])
    return (id(task),)


def references(tasks: List[tuple]) -> List[Any]:
    """Object-backend answers for ``tasks``, on ``CHECK_WORKERS`` processes.

    Tasks that share their net and library objects (a hot net's repeats)
    are solved once.
    """
    if not tasks:
        return []
    distinct: Dict[tuple, tuple] = {}
    for task in tasks:
        distinct.setdefault(_task_key(task), task)
    # Largest nets first, so neither worker is left with a long tail.
    order = sorted(distinct, key=lambda key: -_task_cost(distinct[key]))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=context) as pool:
        answers = dict(zip(order, pool.map(
            _reference_task, [distinct[key] for key in order])))
    return [answers[_task_key(task)] for task in tasks]


def _task_cost(task: tuple) -> int:
    return len(task[1]["nodes"]) * len(task[2]["buffers"])


def same_answer(got: Tuple[float, Dict[str, str]], want: Any) -> bool:
    """Bit-identical slack and the same assignment."""
    return isinstance(want, tuple) and want[0] != "mismatch" and (
        got[0] == want[0] and got[1] == want[1]
    )


def served(answer: Dict[str, Any]) -> Tuple[float, Dict[str, str]]:
    """A server answer as ``(slack, assignment)`` in the sent ids."""
    return answer["slack_seconds"], dict(answer["assignment"])


# -- timing helper ------------------------------------------------------------

def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def repeat_setup(setup: Callable[[], Any], times: int = SETUP_REPEATS,
                 teardown: Optional[Callable[[Any], None]] = None):
    """Run ``setup`` ``times`` times; keep the last result.

    Returns ``(median seconds at reference speed, result)``; earlier
    results are passed to ``teardown`` before the next repetition.
    """
    seconds = []
    result = None
    for _ in range(times):
        if result is not None and teardown is not None:
            teardown(result)
        # Each repetition starts from the same heap: the previous
        # corpus is freed before the next one is built.
        result = None
        gc.collect()
        elapsed, factor, result = GAUGE.time(setup)
        seconds.append(elapsed * factor)
    # The inputs now stay alive for the whole run; freezing them keeps
    # the collector from rescanning them during every timed operation.
    gc.collect()
    gc.freeze()
    return percentile(seconds, 50), result
