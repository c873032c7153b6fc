"""End-to-end benchmark of the buffering system, split by layer.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper_solve --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one caller):

* ``paper_solve`` — in-process ``insert_buffers`` on fresh Table 1 and
  Fig. 4 nets; the kernel does nearly all the work.
* ``serve_mix`` — ``/solve`` misses and hits plus ``/batch`` corner
  groups against one ``repro serve --jobs 1`` subprocess.
* ``eco_session`` — ECO sessions on the same server: open, edits,
  incremental re-solves.

Every workload reports the same end-to-end metrics, by the role an
answer plays for its caller: ``cold`` is the first answer for a net the
system has not seen (a whole-net solve), ``warm`` an answer built from
state kept from an earlier one, ``group`` one call answering eight
members, and ``setup_s`` the set-up time.  ``--trace 1`` runs traced and
untraced rounds in alternation and prints the per-layer metrics instead.

Latencies are wall time scaled to a reference host speed, measured by a
calibration pass before and after every operation, each taken once the
program's processes are idle (see ``common.SpeedGauge``); the unscaled
medians are printed too.

Every answer is checked after the timed window against the pure-Python
object backend on the same net: slack bit-identical, same assignment.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run's environment, the per-class sample counts and, when traced, the
layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: name -> (unit, what it measures on each workload).
END_TO_END = {
    "setup_s": ("s", "median of 3 set-ups: corpus generation, server "
                     "spawn to first 200 /healthz, warm-up"),
    "cold_p50_ms": ("ms", "first answer for an unseen net: paper_solve "
                          "insert_buffers, serve_mix /solve miss, "
                          "eco_session open + first resolve"),
    "cold_tail_ms": ("ms", "cold tail percentile (see per-class counts)"),
    "warm_p50_ms": ("ms", "answer from kept state: paper_solve driver "
                          "re-solve, serve_mix /solve hit, eco_session "
                          "edit + resolve"),
    "warm_tail_ms": ("ms", "warm tail percentile (see per-class counts)"),
    "group_p50_ms": ("ms", "eight members in one call: paper_solve "
                           "solve_many of 8 corners, serve_mix /batch, "
                           "eco_session 8-edit request + resolve"),
}

#: Per-layer metrics: name -> (unit, end-to-end metrics it should move).
PER_LAYER = {
    "schedule.compile_ms": ("ms", "cold_*"),
    "routing.route_ms": ("ms", "cold_* (small nets, b = 8)"),
    "routing.soa_share": ("ratio", "cold_* (small nets, b = 8)"),
    "kernel.wire_ms": ("ms", "cold_*, eco warm_*; not serve warm_*"),
    "kernel.merge_ms": ("ms", "cold_*, eco warm_*; not serve warm_*"),
    "kernel.buffer_ms": ("ms", "cold_*, eco warm_*; not serve warm_*"),
    "kernel.peak_list_len": ("count", "explains kernel.buffer_ms"),
    "kernel.candidates_generated": ("count", "explains kernel.buffer_ms"),
    "api.overhead_ms": ("ms", "paper_solve cold_p50_ms"),
    "client.encode_ms": ("ms", "serve warm_* first, cold_* second"),
    "server.decode_ms": ("ms", "serve warm_* first, cold_* second"),
    "tree.from_dict_ms": ("ms", "serve warm_* first, cold_* second"),
    "canon.digest_ms": ("ms", "serve warm_* first, cold_* second"),
    "cache.encode_ms": ("ms", "serve warm_* first, cold_* second"),
    "client.decode_ms": ("ms", "serve warm_* first, cold_* second"),
    "cache.lookup_ms": ("ms", "serve warm_p50_ms"),
    "cache.hit_ratio": ("ratio", "serve warm_p50_ms"),
    "server.residual_ms": ("ms", "serve warm_p50_ms, eco warm_p50_ms"),
    "batch.group_ms": ("ms", "group_p50_ms"),
    "batch.lanes_per_group": ("count", "group_p50_ms"),
    "batch.axis_share": ("ratio", "group_p50_ms"),
    "incremental.apply_ms": ("ms", "eco warm_*, group_p50_ms"),
    "incremental.resolve_ms": ("ms", "eco warm_*, group_p50_ms"),
    "incremental.executed_fraction": ("ratio", "eco warm_*"),
    "incremental.open_ms": ("ms", "eco cold_p50_ms"),
    "obs.tracing_overhead": ("ms", "none (traced - untraced)"),
}

WORKLOADS = ("paper_solve", "serve_mix", "eco_session")

#: Why each workload is in the benchmark (printed with every run).
RATIONALE = {
    "paper_solve": "the kernel does nearly all the work; service layers "
                   "none. A kernel change shows here; a wire-format or "
                   "cache change should read 'no change'.",
    "serve_mix": "hits run no kernel (decode, tree, canon, cache, "
                 "encode); misses run kernel and service layers; /batch "
                 "is the only path through the batch axis.",
    "eco_session": "stateful writes beside reads; per-edit kernel work is "
                   "only the dirty path, so the incremental engine and "
                   "per-request server cost dominate.",
}


def _commit() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _environment(args) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def _run_workload(name, seed, seconds, trace, scale):
    if name == "paper_solve":
        import paper

        return paper.run(seed, seconds, trace, scale)
    import serving

    return getattr(serving, name)(seed, seconds, trace, scale)


def _check(outcome) -> int:
    """Compare every answer with the object backend.

    Returns the number of operations with at least one wrong answer (a
    group call's eight answers belong to one operation).
    """
    from common import references, same_answer

    wrong = set()
    for checked, want in zip(outcome["checks"],
                             references(outcome["tasks"])):
        if isinstance(want, list):  # an ECO session: one per answer
            if len(checked) != len(want):
                wrong.update(op for op, _ in checked)
            wrong.update(op for (op, got), ref in zip(checked, want)
                         if not same_answer(got, ref))
        elif not same_answer(checked[1], want):
            wrong.add(checked[0])
    return len(wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="net size factor (smoke tests use < 1)")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so the server it started
    # is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import CALIBRATION_MS, GAUGE, percentile

    print("run: " + json.dumps(_environment(args), sort_keys=True))
    print(f"why {args.workload}: {RATIONALE[args.workload]}")
    started = time.perf_counter()
    outcome = _run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.scale)
    measured = time.perf_counter() - started
    mismatches = _check(outcome)
    print(f"phases: set-ups + window {measured:.1f} s, answer checks "
          f"{time.perf_counter() - started - measured:.1f} s")
    passes = GAUGE.passes
    print(f"host gauge: {len(passes)} passes, median "
          f"{percentile(passes, 50):.2f} ms, range {min(passes):.2f}-"
          f"{max(passes):.2f} ms (reference {CALIBRATION_MS:g} ms); "
          f"{GAUGE.busy_passes} found the program busy after "
          f"{GAUGE.WAIT_LIMIT_S:g} s")
    samples = outcome["samples"]
    counts = {name: len(values) for name, values in samples.values.items()}
    print("samples: " + json.dumps(counts, sort_keys=True))
    print("raw p50 ms (unscaled): " + json.dumps({
        name: round(percentile(values, 50), 3)
        for name, values in sorted(samples.raw.items())}))

    metrics = {}
    if args.trace:
        print(f"{'layer':<32}{'value':>12}  {'unit':<6} "
              "base -> end-to-end metrics it should move")
        for name, (unit, moves) in PER_LAYER.items():
            value, base = outcome["layers"].get(name, (0.0, "not crossed"))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<32}{value:>12.4f}  {unit:<6} {base} -> {moves}")
    else:
        values = {"setup_s": outcome["setup_s"]}
        for role in ("cold", "warm", "group"):
            values[f"{role}_p50_ms"] = samples.p50(role)
        for role in ("cold", "warm"):
            value, pct = samples.tail(role)
            values[f"{role}_tail_ms"] = value
            print(f"{role}_tail_ms = p{pct} of {counts[role]} samples")
        for name, (unit, _) in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    failed = outcome["failed"] + mismatches
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
