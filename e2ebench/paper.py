"""paper_solve: in-process ``insert_buffers`` on fresh paper-class nets.

One caller, closed loop.  A round solves every Table 1 class at
b = 8 / 32 / 64 and the Fig. 4 trunks at 2000 / 4000 positions (cold:
validation, the tree walk and the schedule compile are all paid), then
re-solves each ind337 net for three driver strengths (warm: the net's
compiled schedule is kept from its cold solve), then solves three 8-corner
groups with ``solve_many`` (group).

Traced rounds alternate with untraced ones.  A traced cold solve runs
under a :class:`~repro.obs.profiler.KernelProfiler`; around it the
benchmark times the router and a schedule compile on a copy of the net.
"""

from __future__ import annotations

import copy

from repro import Driver, compile_net, insert_buffers, solve_many
from repro.core.batch import SolverPool
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.routing.features import features_of
from repro.routing.router import Router, default_policy
from repro.tree.io import library_to_dict, tree_to_dict

from common import (
    GAUGE, KERNEL_OPS, Samples, mean, named, percentile, repeat_setup,
    rounds, timed,
)
import corpus

#: Nominal seconds of one round on a 2-core reference box.
ROUND_SECONDS = 7.0


def _setup(seed, rounds, scale):
    libraries, data = corpus.paper_corpus(seed, rounds, scale)
    warm = corpus.warmup_net(seed, scale)
    insert_buffers(warm, libraries[32])
    solve_many([warm, copy.deepcopy(warm)], libraries[32])
    return libraries, data


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    count = rounds(seconds, ROUND_SECONDS, trace)
    setup_s, (libraries, data) = repeat_setup(
        lambda: _setup(seed, count, scale)
    )
    samples = Samples()
    untraced = count - count // 2 if trace else count
    cells = len(data[0].cells)
    warm_per_round = sum(
        1 for label, _, _ in data[0].cells if label.startswith("ind337")
    ) * len(corpus.SWEEP_DRIVERS)
    samples.plan("cold", cells * untraced)
    samples.plan("warm", warm_per_round * untraced)
    samples.plan("group", len(data[0].groups) * untraced)

    router = Router(policy=default_policy())
    layers = {name: [] for name in (
        "route", "compile", "overhead", "peak", "candidates", "soa",
        "group", "lanes", "batched", "scalar",
    ) + KERNEL_OPS}
    # cold ms at reference speed by (cell label, traced round)
    by_cell = {}
    # (net, b, driver resistance, op number, (slack, assignment))
    answers = []
    attempted = failed = 0

    for index, rnd in enumerate(data):
        traced = trace and index % 2 == 1
        suffix = "_traced" if traced else ""
        for label, b, tree in rnd.cells:
            library = libraries[b]
            attempted += 1
            try:
                if traced:
                    elapsed, _ = timed(lambda: router.route(
                        features_of(tree, library), backend="auto",
                        supports_walk=True,
                    ))
                    layers["route"].append(elapsed)
                    profiler = KernelProfiler()
                    with profile_scope(profiler, flush=False):
                        elapsed, factor, result = GAUGE.time(
                            lambda: insert_buffers(tree, library))
                    for op in KERNEL_OPS:
                        layers[op].append(profiler.seconds[op])
                    layers["overhead"].append(
                        elapsed - result.stats.runtime_seconds)
                    layers["peak"].append(result.stats.peak_list_length)
                    layers["candidates"].append(
                        result.stats.candidates_generated)
                    layers["soa"].append(result.stats.backend == "soa")
                    spare = copy.deepcopy(tree)
                    layers["compile"].append(
                        timed(lambda: compile_net(spare, library))[0])
                else:
                    elapsed, factor, result = GAUGE.time(
                        lambda: insert_buffers(tree, library))
                samples.add("cold" + suffix, elapsed, factor)
                by_cell.setdefault((label, traced), []).append(
                    elapsed * factor * 1e3)
                answers.append((tree, b, None, attempted,
                                (result.slack, named(result.assignment))))
            except Exception:
                failed += 1
                continue
            if not label.startswith("ind337"):
                continue
            for resistance in corpus.SWEEP_DRIVERS:
                attempted += 1
                try:
                    elapsed, factor, result = GAUGE.time(lambda: insert_buffers(
                        tree, library,
                        driver=Driver(resistance=resistance)))
                except Exception:
                    failed += 1
                    continue
                samples.add("warm" + suffix, elapsed, factor)
                answers.append((tree, b, resistance, attempted,
                                (result.slack, named(result.assignment))))
        library = libraries[32]
        for group in rnd.groups:
            attempted += 1
            try:
                if traced:
                    def pooled():
                        with SolverPool(library, jobs=1) as pool:
                            nets = [compile_net(t, library) for t in group]
                            return pool.solve(nets), pool.batch_axis_stats()

                    elapsed, factor, (results, stats) = GAUGE.time(pooled)
                    layers["group"].append(elapsed)
                    histogram = stats["lanes_histogram"]
                    layers["lanes"].extend(
                        int(lanes) for lanes, count in histogram.items()
                        for _ in range(count))
                    layers["batched"].append(stats["batched_solves"])
                    layers["scalar"].append(stats["scalar_solves"])
                else:
                    elapsed, factor, results = GAUGE.time(
                        lambda: solve_many(group, library))
            except Exception:
                failed += 1
                continue
            samples.add("group" + suffix, elapsed, factor)
            for tree, result in zip(group, results):
                answers.append((tree, 32, None, attempted,
                                (result.slack, named(result.assignment))))

    lib_dicts = {b: library_to_dict(lib) for b, lib in libraries.items()}
    tasks = [("solve", tree_to_dict(tree), lib_dicts[b], resistance)
             for tree, b, resistance, _, _ in answers]
    checks = [(op, got) for _, _, _, op, got in answers]
    return dict(
        setup_s=setup_s, samples=samples, attempted=attempted,
        failed=failed, tasks=tasks, checks=checks,
        layers=_layers(layers, by_cell) if trace else {},
    )


def _layers(layers, by_cell):
    solves = len(layers["overhead"])
    batched = sum(layers["batched"])
    solved = batched + sum(layers["scalar"])
    out = {
        "schedule.compile_ms": (mean(layers["compile"]) * 1e3,
                                f"compile_net, mean of {solves} nets"),
        "routing.route_ms": (mean(layers["route"]) * 1e3,
                             f"Router.route, mean of {solves} nets"),
        "routing.soa_share": (mean(layers["soa"]),
                              f"solves on soa / {solves} solves"),
        "api.overhead_ms": (mean(layers["overhead"]) * 1e3,
                            "insert_buffers wall - DPStats runtime"),
        "kernel.peak_list_len": (mean(layers["peak"]),
                                 f"DPStats, mean of {solves} solves"),
        "kernel.candidates_generated": (
            mean(layers["candidates"]), f"DPStats, mean of {solves} solves"),
        "batch.group_ms": (mean(layers["group"]) * 1e3,
                           f"solve_many of {len(layers['group'])} groups"),
        "batch.lanes_per_group": (mean(layers["lanes"]),
                                  f"over {len(layers['lanes'])} groups"),
        "batch.axis_share": (batched / solved if solved else 0.0,
                             f"batched solves / {solved} solves"),
    }
    for op in KERNEL_OPS:
        out[f"kernel.{op}_ms"] = (
            mean(layers[op]) * 1e3,
            f"KernelProfiler total / {solves} solves",
        )
    # Traced and untraced rounds solve different nets of the same cells,
    # so the overhead is compared cell by cell, not over the mixture.
    cells = sorted({label for label, _ in by_cell})
    deltas = [mean(by_cell[label, True]) - mean(by_cell[label, False])
              for label in cells
              if (label, True) in by_cell and (label, False) in by_cell]
    out["obs.tracing_overhead"] = (
        percentile(deltas, 50) if deltas else 0.0,
        f"median over {len(deltas)} cells of traced - untraced cold (ms)",
    )
    return out
