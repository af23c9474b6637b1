"""Served-hub benchmark: browse / curate / sync traffic against ``gitcite serve``.

Run from the repository root::

    python3 hubbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

One run builds the seeded hub, then starts ``gitcite serve`` on a fresh copy
of it :data:`SETUPS` times; the median start-up is reported as ``setup_s``.
The one client runs a warm-up cycle, then the workload's closed loop for
``--seconds``.  The run stops the server (SIGTERM: drain, journal flush,
save), reloads the saved working copy and audits it against what the client
was told.  The last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs the server under ``hubbench/serve_traced.py`` and the
client with layer spans, and reports per-operation layer costs instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Tracer, install_client

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".hubbench-work"
SETUPS = 7
SLICES = 5
START_TIMEOUT = 60.0
STOP_TIMEOUT = 120.0


class ServedHub:
    """One ``gitcite serve`` subprocess on a working copy."""

    def __init__(self, directory: Path, traced: bool) -> None:
        entry = [str(HERE / "serve_traced.py")] if traced else ["-m", "repro.cli"]
        command = [sys.executable, *entry, "serve", "-C", str(directory),
                   "--port", "0", "--no-rate-limit"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.directory = directory
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        banner: list[str] = []
        reader = threading.Thread(target=self._read_banner, args=(banner,), daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if len(banner) < 2:
            self.kill()
            raise RuntimeError(f"gitcite serve did not come up: {banner}")
        self.url = banner[0].rsplit(" on ", 1)[1].strip()
        self.token = banner[1].rsplit(": ", 1)[1].strip()

    def _read_banner(self, banner: list[str]) -> None:
        for line in self.process.stdout:
            if line.startswith("serving ") or "token (" in line:
                banner.append(line)
            if len(banner) == 2:
                return

    def stop(self) -> int:
        """SIGTERM (drain + save) and wait; returns the exit code."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def start_hubs(fixture: Path, traced: bool):
    """Start ``gitcite serve`` :data:`SETUPS` times, each on a fresh copy of ``fixture``.

    Only the start-up is timed: spawn to banner, which covers interpreter
    start, fsck, checkpoint load, journal replay and the socket bind.  Every
    hub but the last is killed before the next one starts.  Returns the last
    hub and the start-up times.
    """
    hub = None
    times = []
    for attempt in range(SETUPS):
        if hub is not None:
            hub.kill()
        directory = WORK / f"hub-{attempt}"
        shutil.copytree(fixture, directory)
        started = time.perf_counter()
        hub = ServedHub(directory, traced)
        times.append(time.perf_counter() - started)
    return hub, times


def drive(workload, client, seconds: float, tracer):
    """One warm-up cycle, then the timed closed loop.

    Returns ``(ops, failures, start, window)``: ``ops`` holds one
    ``(started, latency)`` pair per measured operation.
    """
    call = tracer.wrap("op", lambda op: op()) if tracer else (lambda op: op())
    ops: list[tuple[float, float]] = []
    failures: list[str] = []

    def run(op, record: bool) -> None:
        started = time.perf_counter()
        try:
            call(op)
        except Exception as exc:  # any failure is counted, the loop goes on
            failures.append(f"{type(exc).__name__}: {exc}")
        if record:
            ops.append((started, time.perf_counter() - started))

    for op in workload.cycle(client):
        run(op, record=False)
    window = tracer.window_start() if tracer else None
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for op in workload.cycle(client):
            if time.perf_counter() >= deadline:
                break
            run(op, record=True)
    return ops, failures, start, window


class ClientTracer(Tracer):
    """Client-side spans plus the server's trace endpoint, for ``--trace 1``."""

    def __init__(self, hub: ServedHub) -> None:
        import http.client

        from repro.hub.httpd import HttpTransport

        super().__init__()
        install_client(self)
        self.transport = HttpTransport(hub.url)
        self.wire_bytes = 0
        # Body bytes on the wire, counted at the stdlib HTTP client.
        send, read = http.client.HTTPConnection.request, http.client.HTTPResponse.read

        def request(connection, method, url, body=None, headers=None, **kwargs):
            self._count(len(body or b""))
            return send(connection, method, url, body, headers or {}, **kwargs)

        def read_body(response, amt=None):
            data = read(response, amt)
            self._count(len(data))
            return data

        http.client.HTTPConnection.request = request
        http.client.HTTPResponse.read = read_body

    def _count(self, size: int) -> None:
        with self._lock:
            self.wire_bytes += size

    def server(self, reset: bool) -> dict:
        url = "/__bench/trace" + ("?reset=1" if reset else "")
        response = self.transport.request("GET", url)
        if not response.ok:
            raise RuntimeError(f"trace endpoint answered {response.status}")
        return response.json

    def window_start(self) -> dict:
        server = self.server(reset=True)
        self.snapshot(reset=True)
        with self._lock:
            self.wire_bytes = 0
        return server

    def layers(self, window: dict, ops: int, traced_mean_ms: float) -> dict:
        client = self.snapshot()["stats"]
        wire_kb = self.wire_bytes / 1024
        server = self.server(reset=False)
        stats = server["stats"]

        def per_op(table: dict, label: str, column: int, scale: float = 1e3) -> float:
            return table.get(label, [0, 0.0, 0.0])[column] * scale / ops

        values = {
            "traced_mean_ms": traced_mean_ms,
            "client_ms_per_op": per_op(client, "op", 2),
            "client_transfer_ms_per_op": per_op(client, "client_transfer", 2),
            "client_delta_ms_per_op": per_op(client, "client_delta", 2),
            "transport_ms_per_op": per_op(client, "client_http", 2) - per_op(stats, "http", 1),
        }
        for label in ("http", "guard", "rest", "platform", "lock_wait", "transfer",
                      "delta", "vcs", "store", "journal", "fsync"):
            values[f"{label}_ms_per_op"] = per_op(stats, label, 2)
        values["requests_per_op"] = per_op(client, "client_http", 0, 1)
        values["wire_kb_per_op"] = wire_kb / ops
        values["fsyncs_per_op"] = per_op(stats, "fsync", 0, 1)
        values["delta_encodes_per_op"] = (per_op(stats, "delta", 0, 1)
                                          + per_op(client, "client_delta", 0, 1))
        values["server_cpu_ms_per_op"] = (server["cpu_s"] - window["cpu_s"]) * 1e3 / ops
        values["hooks_missing"] = len(server["missing"]) + len(self.missing)
        return values


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def end_to_end(ops, start: float, seconds: float) -> dict:
    """Mean, p90 and throughput of each of :data:`SLICES` equal time slices, medians taken.

    The window is cut by operation start time.  A burst of load from
    outside the benchmark then spoils a slice or two instead of the run.
    The mean stands in for the median: curate is 40% reads of about 7 ms
    and 60% writes of about 17 ms, so its median sits on the step between
    the two and read 12 to 16 ms on five runs; the mean does not.
    """
    width = seconds / SLICES
    slices: list[list[float]] = [[] for _ in range(SLICES)]
    for started, latency in ops:
        slices[min(SLICES - 1, int((started - start) / width))].append(latency)
    slices = [latencies for latencies in slices if latencies]
    return {
        "mean_ms": statistics.median(statistics.fmean(lat) for lat in slices) * 1e3,
        "p90_ms": statistics.median(percentile(lat, 0.9) for lat in slices) * 1e3,
        "ops_per_s": statistics.median(len(lat) for lat in slices) / width,
    }


def benchmark(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from fixture import build_hub, make_plan
    from workloads import CYCLE, WORKLOADS
    from repro.hub.httpd import HttpTransport
    from repro.vcs.workingcopy import load_repository

    plan = make_plan(seed)
    workload = WORKLOADS[name](plan, seconds)
    fixture = WORK / "fixture"
    build_hub(plan, fixture, workload.branches())
    workload.prepare(fixture)
    hub, setup_times = start_hubs(fixture, traced)
    tracer = None
    try:
        client = workload.connect(HttpTransport(hub.url), hub.token, seed)
        tracer = ClientTracer(hub) if traced else None
        ops, failures, start, window = drive(workload, client, seconds, tracer)
        layers = tracer.layers(window, len(ops),
                               end_to_end(ops, start, seconds)["mean_ms"]) if traced else None
    finally:
        code = hub.stop()
    problems = [] if code == 0 else [f"gitcite serve exited with {code}"]
    problems += workload.audit(load_repository(hub.directory), client)
    for message in (failures + problems)[:5]:
        print(f"hubbench: {message}", file=sys.stderr)
    if traced:
        values = layers
    else:
        values = end_to_end(ops, start, seconds)
        values["setup_s"] = statistics.median(setup_times)
    metrics = {key: {"value": value, "unit": UNITS.get(key, "ms")} for key, value in values.items()}
    return {
        "correct": not failures and not problems,
        "attempted": len(ops) + CYCLE,
        "failed": len(failures) + (1 if problems else 0),
        "metrics": metrics,
    }


UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "requests_per_op": "count",
    "wire_kb_per_op": "KiB",
    "fsyncs_per_op": "count",
    "delta_encodes_per_op": "count",
    "hooks_missing": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("browse", "curate", "sync"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hubbench: no program source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
