"""The repository benchmark: one command, one JSON result line.

    python3 perfbench/run.py --workload kb-batch --seed 8 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/expected.json``; only
``kb-batch`` and ``service-updates`` are listed in ``BENCHMARK.json``):

* ``kb-batch`` — repeated full serial ``Detector(engine="batch")`` runs over a
  skewed 4,000-entity knowledge base and 36 rules of diameter ≤ 5;
* ``literal-heavy`` — the same loop over a marketplace graph whose one rule
  makes literal evaluation dominate (run by hand; see ``dropped`` in
  ``expected.json``);
* ``service-updates`` — a durable ``repro-detect serve`` process under an
  open-loop update writer and a closed-loop NDJSON reader, ended by
  ``kill -9`` and a restart on the same data directory.

With ``--trace 0`` the last stdout line carries every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, a self-time table per layer
is printed above it, and the spans go to ``perfbench/out/``.  The traced
run's loop is cut to ``TRACE_WINDOW`` seconds, because its layer probes take
a minute or more on top of it.  Any failed correctness check prints the
failing check and exits with status 1.

Inputs are generated from ``--seed`` before timing starts.  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _handle:
    #: workload name -> its sizes, seeds, rate and limit, and recorded counts
    WORKLOADS = json.load(_handle)["workloads"]
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
#: metric name -> unit, in BENCHMARK.json order
UNITS = {kind: {entry["name"]: entry["unit"] for entry in _SPEC[kind]}
         for kind in ("end_to_end", "per_layer")}


#: Span-name prefixes; the traced run reports each one's self time.
LAYERS = ("graph", "matching", "detect", "parallel", "service", "storage", "obs", "harness")

#: Longest measured loop of a traced run, in seconds.
TRACE_WINDOW = 20.0

#: The short service pass a batch workload's traced run makes, so that every
#: layer is measured on every workload's own inputs.
SERVICE_PROBE = {"seconds": 4.0, "rate": 2.0}


def build_inputs(name: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    """Return (graph document, rules document, update batches) for a workload:
    enough batches for the open-loop writer, or for the traced run's probes."""
    import inputs
    import layers
    import workloads

    spec = WORKLOADS[name]
    if spec["graph"] == "kb":
        graph, rules = inputs.kb_inputs(spec["entities"], seed)
    else:
        graph, rules = inputs.marketplace_inputs(spec["products"], spec["sellers"], seed)
    if spec["kind"] == "service":
        count = workloads.prefill_count(spec["rate"], seconds) + int(spec["rate"] * seconds) + 1
    else:
        count = int(SERVICE_PROBE["rate"] * SERVICE_PROBE["seconds"]) + 1
    count = max(layers.PROBE_UPDATES, count)
    batches = inputs.update_stream(graph, count, spec["update_size"], seed)
    return graph, rules, batches


def provenance() -> dict:
    """Where a result came from: machine, interpreter and program version.

    ``commit`` needs a git checkout; ``source_sha1`` (over ``src/**/*.py``)
    identifies the program in a plain copy too.
    """
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    source = hashlib.sha1()
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    source.update(handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha1": source.hexdigest(),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran just then.

    Reported with the provenance so that a slow phase of a shared host can be
    told apart from a slow program; it is not a metric.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value % 7
        times.append(time.perf_counter() - started)
    return sorted(times)[1] * 1000


def end_to_end(outcome, limit_s: float, kind: str) -> tuple[dict, dict]:
    """Return (metrics, sample notes) from a workload's raw samples.

    ``metrics`` maps a name to (value, unit).  It holds the gated metrics of
    ``BENCHMARK.json`` and a few reported ones that are printed but not gated,
    including the issue's service-specific names for the same samples.
    """
    from spans import median, tail

    latencies = [latency for latency, ok in outcome.ops if ok]
    op_tail, op_pct, op_n = tail(latencies)
    detect_tail, detect_pct, detect_n = tail(outcome.detect)
    on_time = sum(1 for latency, ok in outcome.ops if ok and latency <= limit_s) / len(outcome.ops)
    metrics = {
        "setup_s": (median(outcome.setups), "s"),
        "op_p50_ms": (median(latencies) * 1000, "ms"),
        "op_tail_ms": (op_tail * 1000, "ms"),
        "op_on_time_share": (on_time, "share"),
        "detect_p50_s": (median(outcome.detect), "s"),
        "detect_tail_s": (detect_tail, "s"),
        "detect_runs_per_s": (len(outcome.detect) / outcome.window, "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "ok_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "share"),
        "first_violation_ms": (median(outcome.first) * 1000, "ms"),
        "failed_share": (outcome.failed / outcome.attempted, "share"),
    }
    if kind == "service":
        metrics.update({
            "update_ack_p50_ms": metrics["op_p50_ms"],
            "update_ack_tail_ms": metrics["op_tail_ms"],
            "update_miss_share": (1 - on_time, "share"),
            "stream_p50_s": metrics["detect_p50_s"],
            "recover_s": (outcome.layer_metrics["storage.recover_s"], "s"),
        })
    notes = {
        "op_tail_ms": {"percentile": op_pct, "samples": op_n},
        "detect_tail_s": {"percentile": detect_pct, "samples": detect_n},
        "setup_s": {"samples": len(outcome.setups)},
        "op_on_time_share": {"limit_ms": limit_s * 1000},
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from spans import Tracer

    spec = WORKLOADS[name]
    if trace:
        seconds = min(seconds, TRACE_WINDOW)
    graph, rules, batches = build_inputs(name, seed, seconds)
    host_before = host_loop_ms()
    tracer = Tracer(trace)
    with tracer.span("harness.run", workload=name, seed=seed):
        if spec["kind"] == "batch":
            outcome = workloads.batch(tracer, graph, rules, seconds)
        else:
            outcome = workloads.service_run(
                tracer, ROOT, OUT, graph, rules, batches, seconds, spec["rate"],
                prefill=workloads.prefill_count(spec["rate"], seconds),
            )
        verify(outcome, seed, rules, spec)
        if trace:
            per_layer, harvest = probe_layers(tracer, outcome, name, seed, graph, rules, batches, spec)
    if trace:
        report_trace(tracer, per_layer, harvest, name, seed)
    metrics, notes = end_to_end(outcome, spec["limit_ms"] / 1000, spec["kind"])
    if trace:
        metrics = {name: (per_layer[name], unit) for name, unit in UNITS["per_layer"].items()}
    selected = UNITS["per_layer"] if trace else UNITS["end_to_end"]
    host = {"host_loop_ms_before": host_before, "host_loop_ms_after": host_loop_ms()}
    print(json.dumps({"workload": name, "seed": seed, "provenance": {**provenance(), **host},
                      "notes": notes, "checks": outcome.checks}), flush=True)
    for check, passed in outcome.checks.items():
        print(f"perfbench: {'ok  ' if passed else 'FAIL'} {check}", flush=True)
    for metric, (value, unit) in metrics.items():
        gated = "" if metric in selected else "  (reported, not gated)"
        print(f"perfbench: {metric:<42} {value:>14.6g} {unit}{gated}", flush=True)
    correct = all(outcome.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": metrics[metric][0], "unit": unit}
                    for metric, unit in selected.items()},
    }), flush=True)
    return 0 if correct and outcome.failed == 0 else 1


def verify(outcome, seed: int, rules: dict, spec: dict) -> None:
    """Batch workloads: the reference validator on every seed, the recorded
    counts and digest on the default one."""
    import layers
    from repro import RuleSet, find_violations

    if spec["kind"] != "batch":
        return
    result = outcome.harvest["result"]
    oracle = find_violations(outcome.harvest["graph"], RuleSet.from_dict(rules))
    outcome.check("violations equal the reference validator", oracle == result.violations)
    recorded = spec.get("expected")
    if seed == spec["default_seed"] and recorded is not None:
        observed = {**layers.match_counts(result.stats), "detect.violations": len(result.violations),
                    "digest": layers.digest(result.violations)}
        outcome.check("default seed matches the recorded counts and digest",
                      all(observed[key] == value for key, value in recorded.items() if key in observed))


def probe_layers(tracer, outcome, name, seed, graph, rules, batches, spec) -> tuple[dict, dict]:
    """Measure every layer on the workload's inputs; return (metrics, harvest)."""
    import layers
    import workloads
    from spans import median

    with tracer.span("harness.probe"):
        measured, harvest = layers.in_process(tracer, graph, rules, batches, OUT)
        parallel, identical = layers.processes(tracer, graph, rules, harvest["reference"],
                                               measured["detect.run_s"],
                                               measured["graph.shard_build_s"])
        measured.update(parallel)
        outcome.check("execution='processes' violations are byte-identical to serial Dect",
                      identical)
        if spec["kind"] == "batch":
            probe = workloads.service_run(
                tracer, ROOT, OUT, graph, rules, batches, SERVICE_PROBE["seconds"],
                SERVICE_PROBE["rate"], setups=1,
            )
            outcome.checks.update({f"service probe: {k}": v for k, v in probe.checks.items()})
            if probe.failed:
                outcome.check("service probe: every request succeeded", False)
            service_metrics = probe.layer_metrics
        else:
            service_metrics = outcome.layer_metrics
        measured.update(service_metrics)
        if spec["kind"] == "batch":
            measured["harness.generator_lag_ms"] = outcome.layer_metrics["harness.generator_lag_ms"]
        measured["detect.first_violation_ms"] = median(outcome.first) * 1000
        with tracer.span("harness.hash_seeds"):
            counts = layers.deterministic_counts(graph, rules, batches[0])
            for hash_seed in ("1", "2"):
                observed = _counts_subprocess(name, seed, hash_seed)
                outcome.check(f"counts repeat under PYTHONHASHSEED={hash_seed}", observed == counts)
        recorded = spec.get("expected")
        if seed == spec["default_seed"] and recorded is not None:
            outcome.check("default seed: counts equal the recorded ones",
                          all(counts[key] == value for key, value in recorded.items()))
        for key in ("matching.candidates_examined", "matching.expansions",
                    "matching.literal_evaluations", "matching.matches_emitted",
                    "matching.total_operations", "detect.violations",
                    "detect.neighborhood_size", "detect.incremental_operations"):
            outcome.check(f"{key} repeats exactly", measured[key] == counts[key])

    measured["service.ack_residual_ms"] = measured["service.ack_service_ms"] - (
        measured["graph.apply_update_ms"] + measured["detect.incremental_ms"]
        + measured["storage.wal_fsync_ms"]
    )
    harvest["server_spans"] = (probe if spec["kind"] == "batch" else outcome).harvest["server_spans"]
    return measured, harvest


def report_trace(tracer, measured: dict, harvest: dict, name: str, seed: int) -> None:
    """Add self time per layer, write the span file, print the self-time table."""
    table = tracer.layer_table()
    for layer in LAYERS:
        measured[f"self.{layer}_s"] = table.get(layer, 0.0)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"trace-{name}-{seed}-{stamp}.json")
    tracer.write(path, {"workload": name, "seed": seed, "provenance": provenance(),
                        "program_spans": harvest["program_spans"],
                        "program_metrics": harvest["program_metrics"],
                        "server_spans": harvest["server_spans"]})
    root = next(record for record in tracer.spans if record["parent_id"] is None)
    print(f"perfbench: spans -> {os.path.relpath(path, ROOT)}", flush=True)
    print(f"perfbench: {'layer':<10} {'self s':>10} {'share':>7}  (root {root['end'] - root['start']:.3f} s;"
          " concurrent threads overlap)", flush=True)
    for layer, seconds in sorted(table.items(), key=lambda item: -item[1]):
        print(f"perfbench: {layer:<10} {seconds:>10.4f} {seconds / (root['end'] - root['start']):>7.1%}",
              flush=True)


def _counts_subprocess(name: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--counts"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"counts subprocess failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's recorded default seed)")
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"],
                        help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", action="store_true",
                        help="print only the deterministic operation counts (hash-seed probe)")
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    # the program's own temporary files (process-backend spools) stay in the checkout
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch

    try:
        if args.counts:
            import layers

            graph, rules, batches = build_inputs(args.workload, seed, SERVICE_PROBE["seconds"])
            print(json.dumps(layers.deterministic_counts(graph, rules, batches[0]), sort_keys=True))
            return 0
        return run_workload(args.workload, seed, args.seconds, bool(args.trace))
    finally:
        stop_helpers()


def stop_helpers() -> None:
    """Wait for every process this run started before it exits.

    The benchmark's own subprocesses (servers, hash-seed probes) are waited
    for where they are started.  ``execution="processes"`` runs under the
    ``spawn`` start method also make :mod:`multiprocessing` start its
    resource-tracker process, which would otherwise outlive this one; it is
    stopped and reaped here, with any worker not yet joined, after the
    queues of finished runs are collected so that it has nothing left to
    clean up.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    gc.collect()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
