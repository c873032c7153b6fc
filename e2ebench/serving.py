"""serve_mix and eco_session: one client against ``repro serve --jobs 1``.

Both are closed loops with one caller.  serve_mix sends ``/solve`` on
ind1944-class nets at b = 32 — fresh nets (cold: cache misses) and
repeats of a hot set solved during set-up (warm: cache hits) —
interleaved with ``/batch`` calls that each carry the 8 corners of a
fresh ind337-class net (group).  eco_session opens sessions on fresh ind1944-class nets (cold:
``POST /session`` plus the first ``/resolve``), then sends single-edit
requests (warm: one ``/edit`` plus ``/resolve``) and one 8-edit request
(group) per session.

Traced rounds alternate with untraced ones.  In a traced round the
client asks for ``/solve?trace=1`` and, around each answer, the
benchmark times the same public calls the request crossed (JSON encode
and decode, ``tree_from_dict``, ``canonicalize`` + ``request_key``,
the cache payload's verify/materialize/encode); the server's own
spans give the cache lookup, route, compile and solve, ``/metrics``
the cache hit ratio, ``/stats`` the batch-axis grouping.  ECO layers
come from a local :class:`~repro.incremental.engine.IncrementalSolver`
on the same net and edits, and from each answer's ``incremental`` block.
"""

from __future__ import annotations

import json

from repro import compile_net, insert_buffers, solve_many
from repro.incremental.engine import IncrementalSolver
from repro.obs.profiler import KernelProfiler, profile_scope
from repro.service.cache import SolutionPayload
from repro.service.canon import canonicalize, library_key, request_key
from repro.core.stores import resolve_backend
from repro.tree.io import (
    library_from_dict, library_to_dict, tree_from_dict, tree_to_dict,
)

from common import (
    GAUGE, KERNEL_OPS, Samples, Server, mean, repeat_setup, replay_edits,
    rounds, scrape, served, timed,
)
import corpus

#: serve_mix round: fresh nets, hot-set repeats, corner groups.  Three
#: ``/solve`` per ``/batch``, as in the captured mixed-request corpus
#: ``tests/data/workload_mixed.jsonl`` (24 solve, 8 batch).  That corpus
#: repeats no net, so the even hit/miss split is an assumption.  The hot
#: set is one net: a hit's cost does not depend on which cached net it
#: repeats, and each hot net costs a solve in every set-up.
SERVE_ROUND = dict(misses=3, hits=3, batches=2)
SERVE_HOT = 1
SERVE_ROUND_SECONDS = 2.5

#: eco_session round: sessions, each with this many single edits and one
#: group request.  A quarter of the edit requests carry several edits,
#: as in the captured corpus (2 of its 8 session requests); its multi-edit
#: requests carry two edits, so the group's eight is an assumption.
ECO_SESSIONS = 4
ECO_SINGLES = 3
ECO_ROUND_SECONDS = 3.5


def _server_setup(make_corpus, warmups):
    """Inputs, a started server, then the warm-up: ``/solve`` of every
    ``(net, library)`` in ``warmups(inputs)``."""
    data = make_corpus()
    server = Server()
    try:
        for net, lib in warmups(data):
            server.client.solve(net, lib)
    except BaseException:
        server.stop()
        raise
    return data, server


def _warmup(seed, scale, size):
    return (tree_to_dict(corpus.warmup_net(seed, scale)),
            library_to_dict(corpus.library(size, seed + 1)))


def _spans(answer):
    """Total span duration by name (ms) from an answer's trace."""
    out = {}
    for event in answer.get("trace", {}).get("traceEvents", []):
        if event.get("ph") == "X":
            out[event["name"]] = out.get(event["name"], 0.0) + event["dur"] / 1e3
    return out


# -- serve_mix ---------------------------------------------------------------

def _request_layers(net, lib, answer, layers):
    """Time, in-process, the calls one /solve crossed (outside the window)."""
    answer = {k: v for k, v in answer.items() if k != "trace"}
    body = {"net": net, "library": lib, "algorithm": "fast",
            "backend": "auto", "options": {}}
    ms = {}
    ms["client.encode"], text = timed(lambda: json.dumps(body))

    def decode():
        spec = json.loads(text)
        library = library_from_dict(spec["library"])
        return spec, library, library_key(library)

    ms["server.decode"], (spec, library, _) = timed(decode)
    ms["tree.from_dict"], (tree, id_map) = timed(
        lambda: tree_from_dict(spec["net"], with_id_map=True))
    backend = resolve_backend("auto")

    def digest():
        canon = canonicalize(tree)
        request_key(canon, library, backend=backend, driver=tree.driver)
        return canon

    ms["canon.digest"], canon = timed(digest)
    payload = SolutionPayload(
        slack=answer["slack_seconds"],
        driver_load=answer["driver_load_farads"],
        assignment=tuple(sorted(
            (canon.index_of_node[id_map[_key(node, id_map)]], name)
            for node, name in answer["assignment"].items())),
        algorithm=answer["algorithm"], backend=answer["backend"],
        num_buffer_positions=answer["stats"]["num_buffer_positions"],
        library_size=answer["stats"]["library_size"],
        root_candidates=answer["stats"]["root_candidates"],
        peak_list_length=answer["stats"]["peak_list_length"],
        candidates_generated=answer["stats"]["candidates_generated"],
        runtime_seconds=answer["stats"]["solve_runtime_seconds"],
    )
    ms["cache.encode"], reply = timed(lambda: (
        payload.digest(), payload.materialize(canon, library),
        json.dumps(answer))[2])
    ms["client.decode"], _ = timed(lambda: json.loads(reply))
    for name, seconds in ms.items():
        layers[name].append(seconds * 1e3)
    return tree, library


def _key(node, id_map):
    """The serialized id a JSON object key names (ints arrive as str)."""
    if node in id_map:
        return node
    return int(node)


def serve_mix(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    count = rounds(seconds, SERVE_ROUND_SECONDS, trace)

    def make():
        return corpus.serve_corpus(
            seed, count, SERVE_ROUND["misses"], SERVE_ROUND["hits"],
            SERVE_ROUND["batches"], SERVE_HOT, scale)

    # The hot set's first solves are the warm-up: they are not timed,
    # and they put the nets the hits repeat in the cache.
    setup_s, ((lib, _, stream), server) = repeat_setup(
        lambda: _server_setup(
            make, lambda data: [(net, data[0]) for net in data[1]]),
        teardown=lambda result: result[1].stop(),
    )
    with server:
        return _serve_window(server.client, lib, stream, count, trace,
                             setup_s)


def _serve_window(client, lib, stream, count, trace, setup_s):
    samples = Samples()
    untraced = count - count // 2 if trace else count
    samples.plan("cold", SERVE_ROUND["misses"] * untraced)
    samples.plan("warm", SERVE_ROUND["hits"] * untraced)
    samples.plan("group", SERVE_ROUND["batches"] * untraced)
    per_round = sum(SERVE_ROUND.values())
    layer_names = (
        "client.encode", "server.decode", "tree.from_dict", "canon.digest",
        "cache.encode", "client.decode", "cache.lookup", "residual",
        "compile", "route", "group",
    ) + KERNEL_OPS
    layers = {name: [] for name in layer_names}
    checks, tasks = [], []
    attempted = failed = 0
    library = library_from_dict(lib)
    metrics_before = client.metrics()
    stats_before = client.stats()["batch_axis"]

    for position, (kind, payload) in enumerate(stream):
        round_index = position // per_round
        traced = trace and round_index % 2 == 1
        suffix = "_traced" if traced else ""
        attempted += 1
        if kind == "batch":
            try:
                elapsed, factor, answers = GAUGE.time(
                    lambda: client.solve_batch(payload, lib))
            except Exception:
                failed += 1
                continue
            samples.add("group" + suffix, elapsed, factor)
            for net, answer in zip(payload, answers):
                tasks.append(("solve", net, lib, None))
                checks.append((attempted, served(answer)))
            if traced:
                trees = [tree_from_dict(net) for net in payload]
                layers["group"].append(
                    timed(lambda: solve_many(trees, library))[0] * 1e3)
            continue
        try:
            elapsed, factor, answer = GAUGE.time(
                lambda: client.solve(payload, lib, trace=traced))
        except Exception:
            failed += 1
            continue
        expected_hit = kind == "hit"
        if answer["cached"] != expected_hit:
            failed += 1
            continue
        samples.add(("warm" if expected_hit else "cold") + suffix, elapsed,
                    factor)
        tasks.append(("solve", payload, lib, None))
        checks.append((attempted, served(answer)))
        if not traced:
            continue
        spans = _spans(answer)
        tree, _ = _request_layers(payload, lib, answer, layers)
        layers["cache.lookup"].append(spans.get("cache.lookup", 0.0))
        if expected_hit:
            local = sum(layers[name][-1] for name in (
                "client.encode", "server.decode", "tree.from_dict",
                "canon.digest", "cache.encode", "client.decode",
                "cache.lookup"))
            layers["residual"].append(elapsed * 1e3 - local)
        else:
            layers["compile"].append(spans.get("compile", 0.0))
            layers["route"].append(spans.get("route", 0.0))
            compiled = compile_net(tree, library, validate=False)
            profiler = KernelProfiler()
            with profile_scope(profiler, flush=False):
                insert_buffers(compiled, library)
            for op in KERNEL_OPS:
                layers[op].append(profiler.seconds[op] * 1e3)

    metrics_after = client.metrics()
    stats_after = client.stats()["batch_axis"]
    out = dict(setup_s=setup_s, samples=samples, attempted=attempted,
               failed=failed, tasks=tasks, checks=checks, layers={})
    if trace:
        out["layers"] = _serve_layers(
            layers, samples, (metrics_before, metrics_after),
            (stats_before, stats_after))
    return out


def _serve_layers(layers, samples, metrics, stats):
    def delta(name):
        return scrape(metrics[1], name) - scrape(metrics[0], name)

    requested = delta("repro_nets_requested_total")
    solved = delta("repro_nets_solved_total")
    before, after = stats
    batched = after["batched_solves"] - before["batched_solves"]
    scalar = after["scalar_solves"] - before["scalar_solves"]
    groups = after["groups"] - before["groups"]
    lanes = sum(
        int(k) * (v - before["lanes_histogram"].get(k, 0))
        for k, v in after["lanes_histogram"].items())
    hits = len(layers["residual"])
    misses = len(layers["compile"])
    traced = len(layers["client.encode"])
    out = {
        name + "_ms": (mean(layers[name]),
                       f"mean of {traced} traced /solve answers")
        for name in ("client.encode", "server.decode", "tree.from_dict",
                     "canon.digest", "cache.encode", "client.decode",
                     "cache.lookup")
    }
    out.update({
        "cache.hit_ratio": ((requested - solved) / requested
                            if requested else 0.0,
                            f"/metrics: nets not solved / {requested:g} "
                            "nets requested"),
        "server.residual_ms": (mean(layers["residual"]),
                               f"hit round trip - layers above, "
                               f"mean of {hits} hits"),
        "schedule.compile_ms": (mean(layers["compile"]),
                                f"server compile span, mean of {misses} "
                                "misses"),
        "routing.route_ms": (mean(layers["route"]),
                             f"server route span, mean of {misses} misses"),
        "batch.group_ms": (mean(layers["group"]),
                           f"solve_many of {len(layers['group'])} groups"),
        "batch.lanes_per_group": (lanes / groups if groups else 0.0,
                                  f"/stats: over {groups} groups"),
        "batch.axis_share": (batched / (batched + scalar)
                             if batched + scalar else 0.0,
                             f"/stats: batched / {batched + scalar} "
                             "solved nets"),
        "obs.tracing_overhead": (
            samples.p50("warm_traced") - samples.p50("warm"),
            "hit p50 with ?trace=1 - without (ms)"),
    })
    for op in KERNEL_OPS:
        out[f"kernel.{op}_ms"] = (
            mean(layers[op]),
            f"KernelProfiler, same compiled net, mean of {misses} misses")
    return out


# -- eco_session ---------------------------------------------------------------

def eco_session(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    count = rounds(seconds, ECO_ROUND_SECONDS, trace)
    warm = _warmup(seed, scale, corpus.ECO_LIBRARY_SIZE)

    def make():
        return corpus.eco_corpus(seed, count * ECO_SESSIONS, ECO_SINGLES,
                                 scale)

    setup_s, ((lib, sessions), server) = repeat_setup(
        lambda: _server_setup(make, lambda data: [warm]),
        teardown=lambda result: result[1].stop(),
    )
    with server:
        return _eco_window(server.client, lib, sessions, trace, setup_s,
                           count)


def _eco_window(client, lib, sessions, trace, setup_s, count):
    samples = Samples()
    untraced = count - count // 2 if trace else count
    samples.plan("cold", ECO_SESSIONS * untraced)
    samples.plan("warm", ECO_SESSIONS * ECO_SINGLES * untraced)
    samples.plan("group", ECO_SESSIONS * untraced)
    layers = {name: [] for name in (
        "open", "apply", "resolve", "fraction", "residual") + KERNEL_OPS}
    library = library_from_dict(lib)
    tasks, checks = [], []
    attempted = failed = 0

    for index, spec in enumerate(sessions):
        traced = trace and (index // ECO_SESSIONS) % 2 == 1
        suffix = "_traced" if traced else ""
        attempted += 1
        try:
            def open_session():
                session = client.create_session(spec.net, lib)
                return session, session.resolve()

            elapsed, factor, (session, answer) = GAUGE.time(open_session)
        except Exception:
            failed += 1
            continue
        samples.add("cold" + suffix, elapsed, factor)
        got = [(attempted, served(answer))]
        created = []
        replica = None
        if traced:
            tree, id_map = tree_from_dict(spec.net, with_id_map=True)
            seconds, replica = timed(lambda: IncrementalSolver(tree, library))
            seconds += timed(replica.resolve)[0]
            layers["open"].append(seconds * 1e3)
        ok = True
        for edits in spec.requests:
            kind = "group" if len(edits) > 1 else "warm"
            attempted += 1
            try:
                def edit_resolve():
                    return session.edit(*edits), session.resolve()

                elapsed, factor, (edit_answer, answer) = GAUGE.time(
                    edit_resolve)
            except Exception:
                failed += 1
                ok = False
                break
            samples.add(kind + suffix, elapsed, factor)
            got.append((attempted, served(answer)))
            created.append(edit_answer["created"])
            if replica is not None:
                apply_s = replay_edits(replica, edits, id_map,
                                       edit_answer["created"])
                profiler = KernelProfiler()
                with profile_scope(profiler, flush=False):
                    replica.resolve()
                resolve_ms = answer["stats"]["solve_runtime_seconds"] * 1e3
                layers["apply"].append(apply_s * 1e3)
                layers["resolve"].append(resolve_ms)
                layers["fraction"].append(
                    answer["incremental"]["executed_fraction"])
                for op in KERNEL_OPS:
                    layers[op].append(profiler.seconds[op] * 1e3)
                if kind == "warm":
                    layers["residual"].append(
                        elapsed * 1e3 - apply_s * 1e3 - resolve_ms)
        try:
            session.delete()
        except Exception:
            failed += 1
            ok = False
        if ok:
            tasks.append(("session", spec.net, lib,
                          spec.requests, created))
            checks.append(got)

    out = dict(setup_s=setup_s, samples=samples, attempted=attempted,
               failed=failed, tasks=tasks, checks=checks, layers={})
    if trace:
        resolves = len(layers["resolve"])
        out["layers"] = {
            "incremental.open_ms": (
                mean(layers["open"]),
                f"IncrementalSolver build + first resolve, mean of "
                f"{len(layers['open'])} sessions"),
            "incremental.apply_ms": (
                mean(layers["apply"]),
                f"IncrementalSolver.apply, mean of {resolves} requests"),
            "incremental.resolve_ms": (
                mean(layers["resolve"]),
                f"answer stats.solve_runtime_seconds, mean of {resolves}"),
            "incremental.executed_fraction": (
                mean(layers["fraction"]),
                f"executed / total instructions, mean of {resolves} "
                "resolves"),
            "server.residual_ms": (
                mean(layers["residual"]),
                f"edit+resolve round trip - apply - resolve, mean of "
                f"{len(layers['residual'])}"),
            "obs.tracing_overhead": (
                0.0, "not crossed: session requests carry no trace option"),
        }
        for op in KERNEL_OPS:
            out["layers"][f"kernel.{op}_ms"] = (
                mean(layers[op]),
                f"KernelProfiler on the local resolve, mean of {resolves}")
    return out

