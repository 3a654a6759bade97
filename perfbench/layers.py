"""Per-layer measurements for the traced run.

Each function calls one layer's public functions on the workload's own
inputs, inside the benchmark's spans, and returns named per-layer metrics.
None of them changes how the program runs: the program's own spans and
metrics are only read, through ``obs.traces()`` / ``obs.snapshot()`` here and
the server's ``/metrics`` and ``/debug/traces`` in :mod:`service`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

from spans import median

#: Update batches the in-process probe applies and maintains incrementally.
PROBE_UPDATES = 5
#: ``execution="processes"`` runs on one long-lived session.
PROCESS_RUNS = 4
#: Runs per side when comparing with observability or benchmark spans off.
OVERHEAD_PAIRS = 3


def deterministic_counts(graph_document: dict, rules_document: dict, first_batch: list) -> dict:
    """Operation counts that must repeat exactly: one batch run and one
    incremental run over the first update batch, both on the plans compiled
    for the base graph (the call shapes the traced probe times)."""
    from repro import Detector, RuleSet
    from repro.graph.io import graph_from_dict, update_from_list
    from repro.graph.updates import apply_update

    rules = RuleSet.from_dict(rules_document)
    graph = graph_from_dict(graph_document)
    detector = Detector(rules, engine="batch")
    plans = detector.compile_plans(graph)
    result = detector.run(graph, plans)
    delta = update_from_list(first_batch)
    incremental = Detector(rules).run_incremental(graph, delta, apply_update(graph, delta), plans)
    return {
        **match_counts(result.stats),
        "detect.violations": len(result.violations),
        "detect.neighborhood_size": incremental.neighborhood_size,
        "detect.incremental_operations": incremental.stats.total_operations(),
        "digest": digest(result.violations),
        "delta_digest": hashlib.sha1(
            json.dumps(incremental.delta.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
    }


def match_counts(stats) -> dict:
    return {
        "matching.candidates_examined": stats.candidates_examined,
        "matching.expansions": stats.expansions,
        "matching.literal_evaluations": stats.literal_evaluations,
        "matching.matches_emitted": stats.matches_emitted,
        "matching.total_operations": stats.total_operations(),
    }


def digest(violations) -> str:
    return hashlib.sha1(violations.to_json().encode("utf-8")).hexdigest()


def _timed(fn, repeats: int) -> tuple[float, object]:
    times = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - started)
    return median(times), value


def in_process(tracer, graph_document: dict, rules_document: dict, batches: list,
               work: str) -> tuple[dict, dict]:
    """graph, matching, detect, service-encoding, storage-WAL and obs layers.

    Returns (metrics, harvest): the harvest holds the program's own spans and
    metrics, read before the obs on/off comparison resets them, and the
    serial violation set the processes backend must reproduce.
    """
    from repro import Detector, RuleSet, obs
    from repro.graph.io import graph_from_dict, update_from_list
    from repro.graph.sharded import ShardedStore
    from repro.graph.updates import apply_update
    from repro.service.protocol import encode_record, violation_record
    from repro.storage.wal import WriteAheadLog

    metrics: dict = {}
    rules = RuleSet.from_dict(rules_document)
    with tracer.span("graph.load", repeats=3):
        metrics["graph.load_s"], graph = _timed(lambda: graph_from_dict(graph_document), 3)
    with tracer.span("matching.compile_plans", repeats=3):
        metrics["matching.compile_plans_s"], plans = _timed(
            lambda: Detector(rules, engine="batch").compile_plans(graph), 3
        )
    detector = Detector(rules, engine="batch")
    with tracer.span("detect.run", repeats=3):
        metrics["detect.run_s"], result = _timed(lambda: detector.run(graph, plans), 3)
    stats = result.stats
    metrics.update(match_counts(stats))
    metrics["matching.useful_ratio"] = stats.matches_emitted / max(1, stats.candidates_examined)
    metrics["detect.violations"] = len(result.violations)

    records = [violation_record(violation) for violation in result.violations]
    with tracer.span("service.encode", records=len(records)):
        seconds, _ = _timed(lambda: [encode_record(record) for record in records], 3)
    metrics["service.encode_ms"] = seconds * 1000

    apply_times, incremental_times, wal_times = [], [], []
    incremental_detector = Detector(rules)
    wal_dir = os.path.join(work, "wal-probe")
    shutil.rmtree(wal_dir, ignore_errors=True)
    update_bytes = 0
    with WriteAheadLog(os.path.join(wal_dir, "wal.log")) as wal:
        current = graph
        for version, batch in enumerate(batches[:PROBE_UPDATES], start=2):
            delta = update_from_list(batch)
            with tracer.span("graph.apply_update"):
                started = time.perf_counter()
                after = apply_update(current, delta)
                apply_times.append(time.perf_counter() - started)
            with tracer.span("detect.run_incremental"):
                started = time.perf_counter()
                change = incremental_detector.run_incremental(current, delta, after, plans)
                incremental_times.append(time.perf_counter() - started)
            if version == 2:
                metrics["detect.neighborhood_size"] = change.neighborhood_size
                metrics["detect.incremental_operations"] = change.stats.total_operations()
            journal = [
                {"type": "update", "graph": "kb", "version": version, "delta": batch},
                {"type": "session_delta", "session": "s1", "version": version,
                 "delta": change.delta.to_dict()},
            ]
            update_bytes += len(json.dumps(batch))
            with tracer.span("storage.wal_append"):
                started = time.perf_counter()
                wal.append_many(journal)
                wal_times.append(time.perf_counter() - started)
            current = after
    metrics["graph.apply_update_ms"] = median(apply_times) * 1000
    metrics["detect.incremental_ms"] = median(incremental_times) * 1000
    metrics["storage.wal_append_ms"] = median(wal_times) * 1000
    metrics["storage.wal_bytes_per_update_byte"] = (
        os.path.getsize(os.path.join(wal_dir, "wal.log")) / update_bytes
    )
    shutil.rmtree(wal_dir, ignore_errors=True)

    with tracer.span("graph.shard_build"):
        started = time.perf_counter()
        ShardedStore.build(graph, 2, rules.diameter())
        metrics["graph.shard_build_s"] = time.perf_counter() - started

    program_spans = obs.traces()
    program_metrics = obs.snapshot()
    with tracer.span("obs.on_off", pairs=OVERHEAD_PAIRS):
        on, off = [], []
        try:
            for _ in range(OVERHEAD_PAIRS):
                obs.configure(enabled=False)
                off.append(_timed(lambda: detector.run(graph, plans), 1)[0])
                obs.configure(enabled=True)
                on.append(_timed(lambda: detector.run(graph, plans), 1)[0])
        finally:
            obs.configure()
    metrics["obs.overhead_share"] = median(on) / median(off) - 1
    with tracer.span("harness.span_on_off", pairs=OVERHEAD_PAIRS):
        spanned, bare = [], []
        for _ in range(OVERHEAD_PAIRS):
            bare.append(_timed(lambda: detector.run(graph, plans), 1)[0])
            started = time.perf_counter()
            with tracer.span("detect.run"):
                detector.run(graph, plans)
            spanned.append(time.perf_counter() - started)
    metrics["harness.trace_overhead_share"] = median(spanned) / median(bare) - 1
    return metrics, {"program_spans": program_spans, "program_metrics": program_metrics,
                     "reference": result.violations.to_json()}


def processes(tracer, graph_document: dict, rules_document: dict, reference: str,
              serial_s: float, shard_build_s: float) -> tuple[dict, bool]:
    """Repeated ``execution="processes"`` runs on one long-lived session;
    returns (metrics, whether every run's violations were byte-identical to
    the serial ``reference``).

    The start method is read with ``resolve_start_method()`` just before each
    run, as the executor will resolve it; nothing is pinned.  Workers report
    their busy work in cost units, not seconds, so the slowest worker's busy
    time is estimated as the serial run time times its share of the cost;
    ``parallel.overhead_s`` is the wall time minus that estimate, minus the
    shard build on runs that spawn.
    """
    from repro import DetectionOptions, Detector, RuleSet
    from repro.detect.parallel.executor import fault_tolerance_counters, resolve_start_method
    from repro.graph.io import graph_from_dict

    graph = graph_from_dict(graph_document)
    before = fault_tolerance_counters()
    walls, busy, imbalance, overhead = [], [], [], []
    spawns = 0
    identical = True
    with Detector(
        RuleSet.from_dict(rules_document),
        engine="parallel",
        processors=2,
        options=DetectionOptions(execution="processes"),
    ) as detector:
        for _ in range(PROCESS_RUNS):
            method = resolve_start_method()
            spawns += method == "spawn"
            with tracer.span("parallel.run", start_method=method):
                started = time.perf_counter()
                result = detector.run(graph)
                wall = time.perf_counter() - started
            identical = identical and result.violations.to_json() == reference
            costs = [trace.busy_time for trace in result.worker_traces] or [0.0]
            total = sum(costs) or 1.0
            walls.append(wall)
            busy.append(sum(costs))
            imbalance.append(max(costs) / (total / len(costs)))
            slowest = serial_s * max(costs) / total
            overhead.append(wall - slowest - (shard_build_s if method == "spawn" else 0.0))
    after = fault_tolerance_counters()
    return {
        "parallel.run_s": median(walls),
        "parallel.spawn_share": spawns / PROCESS_RUNS,
        "parallel.worker_busy_units": median(busy),
        "parallel.busy_imbalance": median(imbalance),
        "parallel.overhead_s": median(overhead),
        "parallel.worker_restarts": after["worker_restarts"] - before["worker_restarts"],
        "parallel.degraded_runs": after["degraded_runs"] - before["degraded_runs"],
    }, identical
