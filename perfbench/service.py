"""The ``service-updates`` workload: a durable ``repro-detect serve`` process
under an open-loop writer and a closed-loop NDJSON reader.

The server runs as its own OS process with ``--data-dir`` and the default
flush policy (the WAL is fsync'd before every acknowledgement, a checkpoint
runs every 64 accepted updates).  Two client threads share this process:

* the writer posts pre-encoded update batches at a fixed rate; each update
  is timed from the moment it was due, so a stall shows in the updates
  queued behind it;
* the reader streams full detections back to back.

The run ends with ``kill -9`` and a restart on the same data directory.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from typing import Optional

GRAPH = "kb"
CATALOG = "bench"
HTTP_TIMEOUT = 30.0
READY_TIMEOUT = 60.0


class Server:
    """One ``repro-detect serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, data_dir: str, log_path: str) -> None:
        self.root = root
        self.data_dir = data_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start the server; return seconds until ``/health`` answers."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--data-dir", self.data_dir, "--quiet"],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        self.port = self._read_port(started + READY_TIMEOUT)
        while True:
            try:
                status, _ = request(self.port, "GET", "/health")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() > started + READY_TIMEOUT:
                raise RuntimeError("server did not answer /health")
            time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        stream = self.process.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                chunk = os.read(stream.fileno(), 1)
                if not chunk:
                    raise RuntimeError(f"server exited; see {self.log_path}")
                line += chunk
        text = line.decode("utf-8").strip()
        if "serving on http://" not in text:
            raise RuntimeError(f"unexpected server banner {text!r}")
        return int(text.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill9(self) -> None:
        self.process.kill()
        self._reap()

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            self._reap()
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
        self._reap()

    def _reap(self) -> None:
        if self.process is not None:
            self.process.wait()
            self.process.stdout.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def request_json(port: int, method: str, path: str, body: Optional[bytes] = None) -> dict:
    status, raw = request(port, method, path, body)
    if status >= 400:
        raise RuntimeError(f"{method} {path} answered {status}: {raw[:200]!r}")
    return json.loads(raw)


def stream_detect(port: int, body: bytes) -> dict:
    """Run one NDJSON detection stream to its summary record."""
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    first = None
    violations = []
    summary = None
    try:
        connection.request("POST", f"/graphs/{GRAPH}/detect", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        if response.status != 200:
            return {"ok": False, "status": response.status}
        for line in response:
            record = json.loads(line)
            if record["type"] == "violation":
                if first is None:
                    first = time.perf_counter() - started
                violations.append(record)
            elif record["type"] == "summary":
                summary = record
            else:
                return {"ok": False, "status": 200}
    finally:
        connection.close()
    return {
        "ok": summary is not None,
        "status": 200,
        "seconds": time.perf_counter() - started,
        "first": first,
        "version": summary["graph_version"] if summary else None,
        "violations": violations,
    }


def setup_server(root: str, work: str, index: int, graph_body: bytes, rules_body: bytes,
                 tracer) -> tuple[Server, float, str]:
    """Start a server on a fresh data directory, register the catalog and the
    graph, open one continuous session; return (server, seconds, session id)."""
    data_dir = os.path.join(work, f"data-{index}")
    shutil.rmtree(data_dir, ignore_errors=True)
    server = Server(root, data_dir, os.path.join(work, "server.log"))
    started = time.perf_counter()
    try:
        with tracer.span("service.start"):
            server.start()
        with tracer.span("service.register"):
            request_json(server.port, "POST", f"/rules/{CATALOG}", rules_body)
            request_json(server.port, "POST", f"/graphs/{GRAPH}", graph_body)
        with tracer.span("service.open_session"):
            session = request_json(
                server.port, "POST", f"/graphs/{GRAPH}/sessions",
                json.dumps({"catalog": CATALOG}).encode(),
            )
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, session["session"]


def drive(server: Server, bodies: list[bytes], base_version: int, seconds: float,
          rate: float, tracer) -> dict:
    """Run the open-loop writer and the closed-loop reader for ``seconds``."""
    origin = time.perf_counter() + 0.05
    end = origin + seconds
    acks: list[dict] = []
    streams: list[dict] = []
    parent = tracer.current()
    detect_body = json.dumps({"catalog": CATALOG, "engine": "batch"}).encode()

    def writer() -> None:
        for index, body in enumerate(bodies):
            due = origin + index / rate
            if due >= end:
                break
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            ok = False
            with tracer.span("service.update", parent=parent):
                try:
                    status, raw = request(server.port, "POST", f"/graphs/{GRAPH}/updates", body)
                    ok = status == 200 and json.loads(raw)["version"] == base_version + index + 1
                except OSError:
                    status = None
            done = time.perf_counter()
            acks.append({"due": due, "sent": sent, "done": done, "ok": ok, "status": status})
            if not ok:
                break  # later batches were generated against this one

    def reader() -> None:
        while time.perf_counter() < end:
            with tracer.span("service.detect_stream", parent=parent):
                try:
                    outcome = stream_detect(server.port, detect_body)
                except OSError:
                    outcome = {"ok": False, "status": None}
            streams.append(outcome)
            if not outcome["ok"]:
                break

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    pause = origin - time.perf_counter()
    if pause > 0:
        time.sleep(pause)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"acks": acks, "streams": streams, "window": max(time.perf_counter(), end) - origin}


def scrape_metrics(port: int) -> dict:
    """Sum ``*_sum`` / ``*_count`` / counters of the Prometheus exposition by name."""
    status, raw = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    totals: dict[str, float] = {}
    for line in raw.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def directory_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
