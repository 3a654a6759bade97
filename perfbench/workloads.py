"""The measured loops of the three workloads.

Each loop returns an :class:`Outcome`: the raw per-operation samples the
end-to-end metrics are computed from, plus the correctness checks it made.
"""

from __future__ import annotations

import json
import resource
import shutil
import time
from dataclasses import dataclass, field

import inputs
import layers
import service
from spans import median

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def prefill_count(rate: float, seconds: float) -> int:
    """Untimed updates posted before the window, so that the server's periodic
    checkpoint (every ``DEFAULT_CHECKPOINT_EVERY`` accepted updates) falls in
    the middle of the measured window at the workload's low, steady rate."""
    from repro.storage.manager import DEFAULT_CHECKPOINT_EVERY

    return max(0, DEFAULT_CHECKPOINT_EVERY - int(rate * seconds) // 2)


@dataclass
class Outcome:
    setups: list = field(default_factory=list)
    #: (latency seconds, ok) of the workload's timed operation
    ops: list = field(default_factory=list)
    #: seconds of each completed full detection, and to its first violation
    detect: list = field(default_factory=list)
    first: list = field(default_factory=list)
    window: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    layer_metrics: dict = field(default_factory=dict)
    harvest: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(passed)


def _stream(detector, graph) -> tuple[float, float, object]:
    """One full ``Detector.stream`` run: (seconds, seconds to first violation, result)."""
    started = time.perf_counter()
    first = None
    for _ in detector.stream(graph):
        if first is None:
            first = time.perf_counter() - started
    return time.perf_counter() - started, first, detector.last_result


def batch(tracer, graph_document: dict, rules_document: dict, seconds: float) -> Outcome:
    """Closed loop, one client: repeated full serial runs of ``Detector(engine="batch")``."""
    from repro import Detector, RuleSet
    from repro.graph.io import graph_from_dict

    outcome = Outcome()
    for _ in range(SETUPS):
        with tracer.span("harness.setup"):
            started = time.perf_counter()
            with tracer.span("graph.load"):
                graph = graph_from_dict(graph_document)
            with tracer.span("matching.compile_plans"):
                detector = Detector(RuleSet.from_dict(rules_document), engine="batch")
                detector.compile_plans(graph)
            with tracer.span("detect.stream"):
                _, _, reference = _stream(detector, graph)
            outcome.setups.append(time.perf_counter() - started)
    expected = layers.digest(reference.violations), layers.match_counts(reference.stats)

    gaps = []
    with tracer.span("harness.workload"):
        origin = time.perf_counter()
        finished = origin
        while time.perf_counter() - origin < seconds:
            gaps.append(time.perf_counter() - finished)
            outcome.attempted += 1
            try:
                with tracer.span("detect.stream"):
                    elapsed, first, result = _stream(detector, graph)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted and fails the benchmark
                print(f"perfbench: detection run failed: {exc!r}", flush=True)
                outcome.failed += 1
                break
            finished = time.perf_counter()
            outcome.ops.append((elapsed, True))
            outcome.detect.append(elapsed)
            outcome.first.append(first)
            outcome.check(
                "every run repeats the first run's violations and operation counts",
                (layers.digest(result.violations), layers.match_counts(result.stats)) == expected,
            )
        outcome.window = time.perf_counter() - origin
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.layer_metrics["harness.generator_lag_ms"] = median(gaps) * 1000
    outcome.harvest["result"] = reference
    outcome.harvest["graph"] = graph
    return outcome


def service_run(tracer, root: str, work: str, graph_document: dict, rules_document: dict,
                batches: list, seconds: float, rate: float, setups: int = SETUPS,
                prefill: int = 0) -> Outcome:
    """Durable server, open-loop writer beside a closed-loop reader, kill -9, restart.

    The first ``prefill`` batches are posted one after another before the
    window and are not timed.
    """
    from repro import Detector, RuleSet, ViolationSet, Violation

    outcome = Outcome()
    graph_body = json.dumps(graph_document).encode()
    rules_body = json.dumps(rules_document).encode()
    bodies = [json.dumps(batch).encode() for batch in batches]
    server = restarted = None
    data_dirs = []
    try:
        for index in range(setups):
            with tracer.span("harness.setup"):
                server, elapsed, session_id = service.setup_server(
                    root, work, index, graph_body, rules_body, tracer
                )
            data_dirs.append(server.data_dir)
            outcome.setups.append(elapsed)
            if index < setups - 1:
                server.stop()
        registered = service.request_json(server.port, "GET", f"/graphs/{service.GRAPH}")["version"]
        with tracer.span("harness.prefill", updates=prefill):
            for body in bodies[:prefill]:
                service.request_json(server.port, "POST", f"/graphs/{service.GRAPH}/updates", body)
        base_version = registered + prefill
        with tracer.span("harness.workload", rate=rate):
            run = service.drive(server, bodies[prefill:], base_version, seconds, rate, tracer)
        acks, streams = run["acks"], run["streams"]
        acked = sum(1 for ack in acks if ack["ok"])
        state = service.request_json(server.port, "GET", f"/sessions/{session_id}")
        outcome.peak_rss_mb = server.peak_rss_mb()
        if tracer.enabled:
            scraped = service.scrape_metrics(server.port)
            traces = service.request_json(server.port, "GET", "/debug/traces?limit=2048")["spans"]
            data_bytes = service.directory_bytes(server.data_dir)
        with tracer.span("service.kill9"):
            server.kill9()
        restarted = service.Server(root, server.data_dir, server.log_path)
        with tracer.span("storage.recover"):
            recover_s = restarted.start()
        recovered_graph = service.request_json(restarted.port, "GET", f"/graphs/{service.GRAPH}")
        recovered_state = service.request_json(restarted.port, "GET", f"/sessions/{session_id}")
        health = service.request_json(restarted.port, "GET", "/health")
        if tracer.enabled and not any(span["name"] == "storage.checkpoint" for span in traces):
            service.request_json(restarted.port, "POST", "/admin/checkpoint")
            traces += service.request_json(restarted.port, "GET", "/debug/traces")["spans"]
    finally:
        for process in (server, restarted):
            if process is not None:
                process.stop()
        for data_dir in data_dirs:
            shutil.rmtree(data_dir, ignore_errors=True)

    outcome.attempted = len(acks) + len(streams)
    outcome.failed = sum(1 for ack in acks if not ack["ok"]) + sum(1 for s in streams if not s["ok"])
    outcome.ops = [(ack["done"] - ack["due"], ack["ok"]) for ack in acks]
    done_streams = [s for s in streams if s["ok"]]
    outcome.detect = [s["seconds"] for s in done_streams]
    outcome.first = [s["first"] for s in done_streams if s["first"] is not None]
    outcome.window = run["window"]

    # correctness: rebuild every version the checks need in this process
    rules = RuleSet.from_dict(rules_document)
    final_version = base_version + acked
    last_stream = done_streams[-1] if done_streams else None
    wanted = sorted({final_version, last_stream["version"] if last_stream else final_version})
    truth = {}
    for version in wanted:
        graph = inputs.replay(graph_document, batches[: version - registered])
        truth[version] = Detector(rules, engine="batch").run(graph).violations
    session_set = ViolationSet.from_dict(state)
    outcome.check("session version equals acknowledged updates",
                  state["current_version"] == final_version)
    outcome.check("session violations equal batch Dect on the final graph",
                  session_set == truth[final_version])
    if last_stream is not None:
        streamed = ViolationSet(Violation.from_dict(record) for record in last_stream["violations"])
        outcome.check("last NDJSON stream equals batch Dect at its version",
                      streamed == truth[last_stream["version"]])
    outcome.check("recovered graph version equals acknowledged updates",
                  recovered_graph["version"] == final_version)
    outcome.check("recovered session equals the pre-crash session",
                  recovered_state["current_version"] == final_version
                  and ViolationSet.from_dict(recovered_state) == session_set)

    refused = sum(1 for item in acks + streams if item.get("status") in (429, 503))
    lags = [ack["sent"] - ack["due"] for ack in acks]
    metrics = {
        "storage.recover_s": recover_s,
        "storage.replayed_records": health["persistence"]["recovered"]["replayed"],
        "service.refused": refused,
        "harness.generator_lag_ms": median(lags) * 1000,
        "service.updates_acked": acked,
    }
    if tracer.enabled:
        checkpoints = [span["duration"] for span in traces if span["name"] == "storage.checkpoint"]
        metrics.update({
            "service.http_request_s": scraped["repro_http_request_seconds_sum"]
            / scraped["repro_http_request_seconds_count"],
            "storage.wal_fsync_ms": 1000 * scraped.get("repro_wal_fsync_seconds_sum", 0.0)
            / max(1.0, scraped.get("repro_wal_fsync_seconds_count", 0.0)),
            "storage.checkpoints": scraped.get("repro_checkpoints_total", 0.0),
            "storage.checkpoint_s": median(checkpoints),
            "storage.data_dir_bytes_per_graph_byte": data_bytes / len(graph_body),
            "service.ack_service_ms": 1000 * median([a["done"] - a["sent"] for a in acks]),
        })
        outcome.harvest["server_spans"] = traces
        outcome.harvest["server_metrics"] = scraped
    outcome.layer_metrics.update(metrics)
    return outcome
