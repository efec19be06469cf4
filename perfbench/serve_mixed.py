"""serve-mixed: an open-loop request schedule against ``repro serve``.

The server runs as a subprocess with a per-client quota generous enough
that nothing is refused (the limiter's admit path still runs). Its
stdout and stderr are drained continuously by reader threads, so the
access log can never fill a pipe and stall it.

The generator is open-loop: one asyncio event loop (a single sender
thread) starts every request at its due time whether or not earlier
requests have answered. Each request has a client timeout, so a stall
counts as failures rather than a hang, and its latency is taken from
when it was due, so a late generator cannot hide a stall. The
generator's own lateness is reported, and a run whose lateness exceeds
:data:`LATENESS_P50_MS`/:data:`LATENESS_MAX_MS` is marked incorrect.

After the schedule: conservation checks (every issued request answered,
no quota rejections, nothing shed or rejected by the queue), the
server's ``VmHWM``, then ``POST /shutdown``.

Latencies are reference seconds (:mod:`perfbench.speed`): the client
and the server (through ``perfbench/sampled_serve.py``) each run a speed
sampler, and each request is scaled by the speed both saw around it. So
that each sampler sees the cores its process works on, the server is
pinned to one core and the client to the others.
"""

import asyncio
import dataclasses
import http.client
import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque, namedtuple

from repro.harness.cache import decode_result
from repro.harness.runner import geomean

from . import inproc, workloads
from .report import (child_env, delta, median, parse_exposition,
                     percentile, ratio, smooth_percentile, vm_hwm_mb)
from .speed import SpeedSampler

HOST = "127.0.0.1"

#: Server spawns timed for ``setup_s``; the last one serves the run.
SETUP_SPAWNS = 5

#: Seconds a client waits for any one response.
REQUEST_TIMEOUT_S = 30.0
PREWARM_TIMEOUT_S = 300.0

#: Latency limits per request class for ``slo_met_share``.
LIMIT_S = {"hit": 0.05, "miss": 2.0, "sweep": 5.0}

#: Generator lateness beyond which a run is invalid.
LATENESS_P50_MS = 5.0
LATENESS_MAX_MS = 500.0

#: A quota generous enough that no request is ever refused, and one miss
#: worker: the simulator is GIL-bound, so a second worker on a small
#: machine adds contention, not throughput.
SERVER_FLAGS = ("--quota-rps", "100000", "--quota-burst", "100000",
                "--quota-max-inflight", "1000", "--miss-workers", "1")

#: Runs the server under a speed sampler (see :mod:`perfbench.speed`).
SAMPLED_SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "sampled_serve.py")

Outcome = namedtuple("Outcome", "request due sent done status body error")


def fetch(port, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
    """One blocking request; returns (status, body bytes)."""
    connection = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """A ``repro serve`` subprocess with both output pipes drained; its
    speed sampler's ticks go to ``<cache_dir>.ticks``."""

    def __init__(self, cache_dir, env, cpus):
        self.ticks_file = cache_dir + ".ticks"
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, SAMPLED_SERVE, self.ticks_file, "serve",
             "--host", HOST, "--port", "0", "--cache-dir", cache_dir,
             *SERVER_FLAGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        # Set before the interpreter has started a thread, so every
        # server thread inherits it.
        os.sched_setaffinity(self.proc.pid, cpus)
        self.port = None
        self.tail = deque(maxlen=40)
        self.lines = {}             # lines read, per stream (one reader each)
        self._port = queue.Queue()
        self._readers = [
            threading.Thread(target=self._drain, args=(stream, name),
                             daemon=True)
            for stream, name in ((self.proc.stdout, "stdout"),
                                 (self.proc.stderr, "stderr"))]
        for reader in self._readers:
            reader.start()

    def _drain(self, stream, name):
        self.lines[name] = 0
        for line in stream:
            self.lines[name] += 1
            self.tail.append(line)
            if name == "stdout" and "listening on" in line:
                self._port.put(int(line.split("/")[2].rsplit(":", 1)[1]))
        stream.close()

    def wait_healthy(self, timeout=60.0):
        """Block until ``/healthz`` answers 200; returns that moment on
        the ``time.monotonic`` clock."""
        try:
            self.port = self._port.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("server never reported its port:\n%s"
                               % "".join(self.tail)) from None
        deadline = time.monotonic() + timeout
        while True:
            try:
                if fetch(self.port, "GET", "/healthz", timeout=5)[0] == 200:
                    return time.monotonic()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def scrape(self):
        status, body = fetch(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError("/metrics answered %d" % status)
        return parse_exposition(body.decode("utf-8"))

    def ticks(self):
        """The server's speed-sampler ticks (after :meth:`close`)."""
        with open(self.ticks_file) as handle:
            return json.load(handle)

    def close(self):
        """``POST /shutdown``, then wait for the process and its readers
        (killing it only if it does not exit)."""
        try:
            if self.port is not None and self.proc.poll() is None:
                fetch(self.port, "POST", "/shutdown", timeout=10)
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            for reader in self._readers:
                reader.join(timeout=10)


async def _exchange(port, request):
    """One request on its own connection (``Connection: close``)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        body = (request.body or "").encode("utf-8")
        head = ("%s %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n"
                "Content-Type: application/json\r\nContent-Length: %d\r\n"
                "\r\n" % (request.method, request.path, HOST, port,
                          len(body)))
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def _send(port, request, due):
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        status, body = await asyncio.wait_for(_exchange(port, request),
                                              REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
        return Outcome(request, due, sent, loop.time(), None, None,
                       repr(exc))
    return Outcome(request, due, sent, loop.time(), status, body, None)


async def _open_loop(port, schedule):
    """Start every request at its due time; returns (start, outcomes)."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    tasks = []
    for request in schedule:
        due = start + request.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_send(port, request, due)))
    return start, await asyncio.gather(*tasks)


def _result_ok(point, result):
    return (result.get("benchmark") == point.benchmark
            and result.get("dataset") == point.dataset
            and result.get("label") == point.label
            and result.get("params") == dataclasses.asdict(point.params)
            and result.get("total_time", 0) > 0)


def prewarm(server):
    """Populate the warm pool; returns {point: result payload}."""
    known = {}
    for label, params in workloads.FIG9_VERSIONS:
        versions = [(label, params)]
        points = workloads.grid(workloads.FIG9_PAIRS, versions,
                                workloads.SERVE_SCALE)
        body = workloads.sweep_body(workloads.FIG9_PAIRS, (label,), params)
        status, payload = fetch(server.port, "POST", "/sweep", body,
                                timeout=PREWARM_TIMEOUT_S)
        entries = json.loads(payload)["results"] if status == 200 else []
        if len(entries) != len(points):
            raise RuntimeError("prewarm sweep answered %d" % status)
        for point, entry in zip(points, entries):
            if entry.get("status") != "ok" or not _result_ok(
                    point, entry["result"]):
                raise RuntimeError("prewarm failed for %s"
                                   % point.describe())
            known[point] = entry["result"]
    return known


def check(outcome, known):
    """Whether one answered request is correct; records the results of
    first-seen points in *known* (later answers must repeat them)."""
    if outcome.status != 200:
        return False
    try:
        payload = json.loads(outcome.body)
    except ValueError:
        return False
    request = outcome.request
    if request.kind == "sweep":
        entries = payload.get("results", [])
        if len(entries) != len(request.points):
            return False
        results = [entry.get("result") if entry.get("status") == "ok"
                   else None for entry in entries]
    else:
        if request.kind == "hit" and payload.get("cache") != "hit":
            return False
        results = [payload.get("result")]
    ok = True
    for point, result in zip(request.points, results):
        if result is None or not _result_ok(point, result):
            ok = False
        elif known.setdefault(point, result) != result:
            ok = False
    return ok


def speedups(results):
    """Pair CDP cycles ÷ cycles of every optimised point in *results*."""
    cdp = {(p.benchmark, p.dataset): r["total_time"]
           for p, r in results.items() if p.label == "CDP"}
    return [cdp[(p.benchmark, p.dataset)] / r["total_time"]
            for p, r in results.items()
            if p.label not in ("No CDP", "CDP")
            and (p.benchmark, p.dataset) in cdp]


def _server_layers(before, after, outcomes):
    """Per-layer serving metrics from ``/metrics`` deltas."""
    def route_mean_ms(route):
        return 1e3 * ratio(
            delta(before, after, "repro_serve_request_seconds_sum",
                  route=route),
            delta(before, after, "repro_serve_request_seconds_count",
                  route=route))

    lookups = delta(before, after, "repro_cache_lookups_total",
                    cache="result")
    client_point = [o.done - o.sent for o in outcomes
                    if o.status is not None and o.request.method == "GET"]
    return {
        "harness.queue.wait_s": ratio(
            delta(before, after, "repro_queue_wait_seconds_sum"),
            delta(before, after, "repro_queue_wait_seconds_count")),
        "harness.queue.dedup_joins": delta(
            before, after, "repro_queue_dedup_joins_total"),
        "harness.queue.rejected": delta(before, after,
                                        "repro_queue_rejected_total"),
        "harness.quota.rejections": delta(before, after,
                                          "repro_quota_rejections_total"),
        "harness.index.errors": delta(before, after,
                                      "repro_cache_index_errors_total"),
        "harness.serve.server_ms.point": route_mean_ms("/point"),
        "harness.serve.server_ms.sweep": route_mean_ms("/sweep"),
        "harness.serve.transport_ms": (
            1e3 * sum(client_point) / len(client_point)
            - route_mean_ms("/point")) if client_point else 0.0,
        "harness.cache.hit_ratio": ratio(
            delta(before, after, "repro_cache_lookups_total",
                  cache="result", outcome="hit"), lookups),
    }


def split_cores():
    """(server cores, client cores): the last core this process may use
    for the server and the others for the client, so that each speed
    sampler runs on the cores its process works on. With one core, both
    share it."""
    cores = sorted(os.sched_getaffinity(0))
    return {cores[-1]}, set(cores[:-1] or cores)


def run(seed, seconds, scratch, trace):
    """Run serve-mixed; returns (values, attempted, failed, correct,
    meta)."""
    schedule = workloads.serve_schedule(seed, seconds)
    env = child_env()
    server_cores, client_cores = split_cores()
    all_cores = os.sched_getaffinity(0)
    # Before any thread starts, so the reader threads inherit it.
    os.sched_setaffinity(0, client_cores)
    try:
        return _run(scratch, trace, schedule, env, server_cores)
    finally:
        os.sched_setaffinity(0, all_cores)


def _run(scratch, trace, schedule, env, server_cores):
    spawns = []
    # asyncio's loop.time() is time.monotonic(), so the sampler reads it.
    with SpeedSampler(clock=time.monotonic) as sampler:
        for _ in range(SETUP_SPAWNS - 1):
            probe = Server(scratch("probe"), env, server_cores)
            try:
                spawns.append((probe.spawned, probe.wait_healthy()))
            finally:
                probe.close()
        server = Server(scratch("serve"), env, server_cores)
        try:
            spawns.append((server.spawned, server.wait_healthy()))
            warm = prewarm(server)
            known = dict(warm)
            before = server.scrape()
            start, outcomes = asyncio.run(_open_loop(server.port, schedule))
            after = server.scrape()
            server_rss = vm_hwm_mb(server.proc.pid)
        finally:
            server.close()

    ok = [check(outcome, known) for outcome in outcomes]
    failed = ok.count(False)
    answered = sum(o.status is not None for o in outcomes)
    lateness = [1e3 * (o.sent - o.due) for o in outcomes]
    conservation = {
        "issued": len(schedule), "answered": answered,
        "quota_rejections": delta(before, after,
                                  "repro_quota_rejections_total"),
        "queue_shed": delta(before, after, "repro_queue_shed_total"),
        "queue_rejected": delta(before, after,
                                "repro_queue_rejected_total"),
    }
    valid = (percentile(lateness, 50) <= LATENESS_P50_MS
             and max(lateness) <= LATENESS_MAX_MS)
    conserved = (answered == len(schedule)
                 and conservation["quota_rejections"] == 0
                 and conservation["queue_shed"] == 0
                 and conservation["queue_rejected"] == 0)
    meta = {"requests": len(schedule),
            "by_kind": {kind: sum(r.kind == kind for r in schedule)
                        for kind in LIMIT_S},
            "lateness_p50_ms": percentile(lateness, 50),
            "lateness_max_ms": max(lateness), "lateness_valid": valid,
            "conservation": conservation, "conserved": conserved,
            "server_output_lines": server.lines,
            "raw_setup_s": median([end - begun for begun, end in spawns]),
            "speed_samples": sampler.samples,
            "kernel_s": sampler.kernel_s()}
    if failed:
        meta["first_failures"] = [
            (o.request.kind, o.request.path, o.status, o.error)
            for o, good in zip(outcomes, ok) if not good][:5]

    if trace:
        values, attempted, replay_failed, replay_meta = replay(
            outcomes, ok, warm, known, scratch)
        values.update(_server_layers(before, after, outcomes))
        meta["replay"] = replay_meta
        failed += replay_failed
        attempted += len(outcomes)
        return values, attempted, failed, failed == 0 and valid \
            and conserved, meta

    # Latencies from the due time, in reference seconds at the speed of
    # both processes' cores.
    latency = sampler.seconds([o.due for o in outcomes],
                              [o.done for o in outcomes],
                              others=[server.ticks()])

    def latencies(kind):
        return [lat for o, good, lat in zip(outcomes, ok, latency)
                if good and o.request.kind == kind]

    span = max(o.done for o in outcomes) - start
    in_time = [good and lat <= LIMIT_S[o.request.kind]
               for o, good, lat in zip(outcomes, ok, latency)]

    def goodput(kind):
        """Correct answers of *kind* within its limit, per second."""
        return sum(met for o, met in zip(outcomes, in_time)
                   if o.request.kind == kind) / span

    hits, misses = latencies("hit"), latencies("miss")
    meta["raw_ms"] = {
        kind + "_p50": 1e3 * percentile([o.done - o.due for o, good in
                                         zip(outcomes, ok) if good
                                         and o.request.kind == kind], 50)
        for kind in ("hit", "miss")}
    meta["tails_ms"] = {"hit_p90": 1e3 * smooth_percentile(hits, 90),
                        "hit_p99": 1e3 * percentile(hits, 99),
                        "hit_max": 1e3 * max(hits, default=0.0),
                        "miss_p90": 1e3 * percentile(misses, 90),
                        "miss_max": 1e3 * max(misses, default=0.0)}
    values = {
        "setup_s": median(sampler.seconds(*zip(*spawns))),
        "peak_rss_mb": server_rss,
        "points_per_s": goodput("miss"),
        "warm_points_per_s": goodput("hit"),
        "sim_speedup_geomean": geomean(speedups(warm)),
        "hit_p50_ms": 1e3 * smooth_percentile(hits, 50),
        "miss_p50_ms": 1e3 * smooth_percentile(misses, 50),
        "slo_met_share": sum(in_time) / len(outcomes),
    }
    return values, len(outcomes), failed, failed == 0 and valid \
        and conserved, meta


def replay(outcomes, ok, warm, known, scratch):
    """Traced in-process replay of the run's cold points (plus each
    pair's No CDP reference for the output check); their simulated
    statistics must equal what the server answered."""
    served = {p for o, good in zip(outcomes, ok) if good
              for p in o.request.points
              if p.label not in ("No CDP", "CDP") and p not in warm}
    pairs = sorted({(p.benchmark, p.dataset) for p in served})
    points = workloads.grid(pairs, workloads.FIG9_VERSIONS[:1],
                            workloads.SERVE_SCALE)
    points += sorted(served, key=lambda p: p.describe())
    values, attempted, failed, meta, results = inproc.run_traced(points,
                                                                 scratch)
    mismatched = 0
    for point, result in zip(points, results):
        if point in known and (result is None or inproc.sim_stats(result)
                               != inproc.sim_stats(decode_result(
                                   known[point]))):
            mismatched += 1
    meta["server_mismatches"] = mismatched
    return values, attempted, failed + mismatched, meta

