"""fig9-cold and tune-sweep: sweep points run in-process.

The untraced pass is what a ``repro figure``/``repro sweep`` user runs:
one serial :class:`~repro.harness.sweep.SweepExecutor` over a
:class:`~repro.harness.cache.ResultCache`, one ``run`` per point so each
point has its own latency. Its backend is the program's serial backend;
only the simulate step it calls is wrapped, to keep each point's driver
outputs for the correctness check. After the grid, warm passes repeat
the completed points from the cache until the run's time is up.

The traced run sends every point through that executor and then again,
into a second cache, through the public calls the library makes for it
(dataset build, parse, transform, codegen, instantiate, drive, simulate,
breakdown, encode, cache put/get), with a span around each call. The
simulated statistics of the two must be equal.
"""

import dataclasses
import json
import time
import traceback
from array import array

import numpy as np

from repro.benchmarks import get_benchmark
from repro.engine.cache import KERNEL_CACHE, codegen_cache_key
from repro.engine.module import Module, compile_artifact
from repro.harness.cache import ResultCache, decode_result, encode_result
from repro.harness.metrics import REGISTRY
from repro.harness import sweep
from repro.harness.runner import (RunResult, geomean, outputs_match,
                                  run_variant)
from repro.harness.sweep import SweepExecutor
from repro.harness.variants import variant_to_run
from repro.minicuda import parse, tokenize
from repro.runtime.host import Device
from repro.transforms import transform

from .reference import matches_reference, reference_outputs
from .report import (SERVER_ONLY, median, metric_sum,
                     parse_exposition, percentile, ratio,
                     smooth_percentile, vm_hwm_mb)
from .trace import Tracer, self_times

#: Latency limits for ``slo_met_share``: a cold point, a warm lookup.
COLD_LIMIT_S = {"fig9-cold": 5.0, "tune-sweep": 1.0}
HIT_LIMIT_S = 0.05

#: Warm passes run at least this often after the grid, whatever time is
#: left.
MIN_WARM_PASSES = 3

#: ... and for at least this share of the run's seconds, so that a slow
#: grid leaves the hit percentiles enough lookups.
MIN_WARM_SHARE = 0.4

#: Spans whose self time is a per-layer ``<span>_s`` metric.
TIMED_SPANS = ("datasets.build", "minicuda.parse", "transforms.transform",
               "engine.codegen", "engine.instantiate", "engine.execute",
               "sim.simulate", "sim.breakdown", "harness.cache.get",
               "harness.cache.put", "harness.cache.encode")


def sim_stats(result):
    """Everything the timing simulator decided for one point."""
    return (result.total_time, result.device_launches,
            result.host_agg_launches, result.launch_queue_wait,
            tuple(sorted(result.breakdown.items())))


def _index_errors():
    return metric_sum(parse_exposition(REGISTRY.render()),
                      "repro_cache_index_errors_total")


class OutputChecker:
    """Checks a point's outputs against its pair's ``No CDP`` outputs and,
    for BFS/SSSP/TC, an independent reference."""

    def __init__(self):
        self._nocdp = {}
        self._expected = {}

    def check(self, point, data, outputs):
        pair = (point.benchmark, point.dataset, point.scale)
        if pair not in self._expected:
            self._expected[pair] = reference_outputs(point.benchmark, data)
        if point.label == "No CDP":
            self._nocdp.setdefault(pair, outputs)
        reference = self._nocdp.get(pair)
        return (reference is not None and outputs_match(reference, outputs)
                and matches_reference(self._expected[pair], outputs))


class Pass:
    """Outcome of running a point list once: per-point results (None when
    the point failed or its outputs were wrong), start times and wall
    times."""

    def __init__(self):
        self.results = []
        self.begins = []
        self.walls = []
        self.failed = 0

    def add(self, result, begun, ended, ok):
        self.results.append(result if ok else None)
        self.begins.append(begun)
        self.walls.append(ended - begun)
        self.failed += not ok

    def seconds(self, sampler):
        """Each point's reference seconds (see :mod:`perfbench.speed`)."""
        return sampler.seconds(self.begins, np.add(self.begins, self.walls))


class WarmSamples:
    """Warm lookups from the cache, each with its start and end time.

    Only back-to-back passes after the grid are sampled: lookups
    interleaved with cold points read slower (a median of 0.15 against
    0.10 ms over ten fig9-cold runs), so the mix would depend on how long
    the grid took. Times are kept in flat arrays, so that the run's peak
    memory does not grow with how many lookups fit in its time.
    """

    def __init__(self):
        self.begins = array("d")
        self.ends = array("d")
        self.failed = 0

    def warm_pass(self, executor, points, cold):
        """Look up every point *cold* completed, from the warm cache."""
        for point, want in zip(points, cold.results):
            if want is None:
                continue
            begun = time.perf_counter()
            got = executor.run_one(point)
            self.ends.append(time.perf_counter())
            self.begins.append(begun)
            self.failed += got != want

    def binned_percentile(self, latencies, q):
        """The mean, over the seconds of the warm passes, of each
        second's *q*-th percentile of *latencies* (one per lookup).

        The host switches between a fast and a slow state every few
        seconds, and the speed normalisation corrects lookups for it
        only in part. Over a whole run, the lookup median sits where the
        slow state's lookups begin and jumps with their share; the mean
        over seconds moves in proportion to it.
        """
        if not len(latencies):
            return 0.0
        ends = np.asarray(self.ends)
        second = (ends - ends[0]).astype(int)
        latencies = np.asarray(latencies)
        return float(np.mean([np.percentile(latencies[second == s], q)
                              for s in np.unique(second)]))


class UntracedGrid:
    """Points through one serial executor over a result cache, each
    checked as it completes.

    While the grid is open, the sweep module's simulate step
    (``repro.harness.sweep._simulate_point``, its documented patch point)
    is wrapped to keep each point's dataset and driver outputs aside;
    the result it returns carries no outputs, as the program's does.
    """

    def __init__(self, cache_dir):
        self.executor = SweepExecutor(cache=ResultCache(cache_dir),
                                      backend="serial", on_error="continue")
        self.checker = OutputChecker()
        self.cold = Pass()
        self._kept = {}
        self._simulate = sweep._simulate_point
        sweep._simulate_point = self._simulate_keeping_outputs

    def _simulate_keeping_outputs(self, point):
        bench, data = sweep._bench_and_data(point.benchmark, point.dataset,
                                            point.scale)
        result = run_variant(bench, data, point.label, point.params,
                             point.device_config, keep_outputs=True)
        self._kept[point] = (data, result.outputs)
        return dataclasses.replace(result, outputs=None)

    def run(self, point):
        started = time.perf_counter()
        result = self.executor.run_one(point)
        ended = time.perf_counter()
        data, outputs = self._kept.pop(point, (None, None))
        ok = (isinstance(result, RunResult) and outputs is not None
              and self.checker.check(point, data, outputs))
        self.cold.add(result, started, ended, ok)

    def close(self):
        sweep._simulate_point = self._simulate
        self.executor.close()


class TracedPipeline:
    """One point as the library's public calls, a span around each.

    Compiled artifacts are memoized under the engine's own cache key
    (:func:`repro.engine.cache.codegen_cache_key`), so that, as with the
    engine's kernel cache, each kernel is compiled once.
    """

    def __init__(self, tracer, cache):
        self.tracer = tracer
        self.cache = cache
        self.datasets = {}
        self.artifacts = {}
        self.counts = {}            # trace id -> counters at the boundaries
        self._tokens = {}
        self.checker = OutputChecker()
        self.cold = Pass()

    def _data(self, point):
        key = (point.benchmark, point.dataset, point.scale)
        if key not in self.datasets:
            bench = get_benchmark(point.benchmark)
            with self.tracer.span("datasets.build"):
                data = bench.build_dataset(point.dataset, point.scale)
            self.datasets[key] = (bench, data)
        return self.datasets[key]

    def _artifact(self, bench, point, counts):
        variant, config = variant_to_run(point.label, point.params)
        source = (bench.nocdp_source() if variant == "nocdp"
                  else bench.cdp_source())
        key = codegen_cache_key(source, config)
        artifact = self.artifacts.get(key)
        if artifact is not None:
            return artifact
        span = self.tracer.span
        with span("minicuda.parse"):
            program = parse(source)
        meta = None
        if config is not None:
            with span("transforms.transform"):
                transformed = transform(program, config)
            program, meta = transformed.program, transformed.meta
            counts["ast_nodes"] = sum(1 for _ in program.walk())
        with span("engine.codegen"):
            artifact = compile_artifact(program, meta)
        self.artifacts[key] = artifact
        if source not in self._tokens:
            self._tokens[source] = len(tokenize(source))
        counts["tokens"] = self._tokens[source]
        counts["codegen_bytes"] = len(artifact.python_source)
        return artifact

    def run_checked(self, trace_id, point):
        """Run one cold point as trace *trace_id* and check its outputs."""
        started = time.perf_counter()
        try:
            result, outputs, data = self._run(trace_id, point)
        except Exception:
            traceback.print_exc()
            self.cold.add(None, started, time.perf_counter(), False)
            return
        ended = time.perf_counter()
        ok = (self.checker.check(point, data, outputs)
              and self.counts[trace_id]["encode_ok"])
        self.cold.add(result, started, ended, ok)

    def _run(self, trace_id, point):
        """Run one cold point; returns (result, outputs, dataset)."""
        span = self.tracer.span
        counts = self.counts[trace_id] = {}
        started = time.perf_counter()
        with self.tracer.trace(trace_id):
            with span("harness.cache.get"):
                cached = self.cache.get(point)
            if cached is not None:
                raise RuntimeError("%s is not cold" % point.describe())
            bench, data = self._data(point)
            artifact = self._artifact(bench, point, counts)
            with span("engine.instantiate"):
                module = Module.from_artifact(artifact)
            device = Device(module, point.device_config)
            with span("engine.execute"):
                outputs = bench.drive(device, data)
            with span("sim.simulate"):
                timing = device.finish()
            with span("sim.breakdown"):
                component = device.breakdown()
            result = RunResult(
                benchmark=bench.name, dataset=getattr(data, "name", "?"),
                label=point.label, params=point.params,
                total_time=timing.total_time,
                breakdown=component.as_dict(),
                device_launches=timing.device_launches,
                host_agg_launches=timing.host_agg_launches,
                launch_queue_wait=timing.launch_queue_wait)
            with span("harness.cache.encode"):
                blob = json.dumps(encode_result(result))
            with span("harness.cache.put"):
                self.cache.put(point, result,
                               sim_cost=time.perf_counter() - started)
        grids = device.trace.grids
        counts.update(threads=sum(g.grid_dim * g.block_dim for g in grids),
                      grids=len(grids), blob_bytes=len(blob),
                      encode_ok=decode_result(json.loads(blob)) == result)
        return result, outputs, data


def warm_traced(pipeline, points):
    """:data:`MIN_WARM_PASSES` traced warm passes; returns failures."""
    failed = 0
    trace_id = len(points)
    for _ in range(MIN_WARM_PASSES):
        for point, want in zip(points, pipeline.cold.results):
            if want is None:
                continue
            with pipeline.tracer.trace(trace_id, "lookup"):
                with pipeline.tracer.span("harness.cache.get"):
                    got = pipeline.cache.get(point)
            failed += got != want
            trace_id += 1
    return failed


def end_to_end(workload, points, cold, warm, scored, sampler):
    """The end-to-end metrics of an untraced in-process run (all but
    ``setup_s``), every time in reference seconds of *sampler*; the
    speedup geomean is over the points in *scored*."""
    cdp = {}
    for point, result in zip(points, cold.results):
        if result is not None and point.label == "CDP":
            cdp[(point.benchmark, point.dataset)] = result.total_time
    speedups = [cdp[(p.benchmark, p.dataset)] / r.total_time
                for p, r in zip(points, cold.results)
                if r is not None and p in scored
                and (p.benchmark, p.dataset) in cdp]
    walls = cold.seconds(sampler)
    ok_walls = [w for w, r in zip(walls, cold.results) if r is not None]
    lookups = sampler.seconds(warm.begins, warm.ends)
    met = (sum(w <= COLD_LIMIT_S[workload] for w in ok_walls)
           + sum(lat <= HIT_LIMIT_S for lat in lookups))
    return {
        "peak_rss_mb": vm_hwm_mb(),
        "points_per_s": ratio(len(ok_walls), sum(walls)),
        "warm_points_per_s": ratio(len(lookups), sum(lookups)),
        "sim_speedup_geomean": geomean(speedups),
        "hit_p50_ms": 1e3 * warm.binned_percentile(lookups, 50),
        "miss_p50_ms": 1e3 * smooth_percentile(walls, 50),
        "slo_met_share": ratio(met, len(walls) + len(lookups)),
    }


def layer_metrics(tracer, pipeline):
    """Per-layer metrics from a traced run's spans and boundary counters.

    Times are the median self time of one call; rates divide summed work
    by summed self time.
    """
    own = {}
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        own.setdefault(span.name, []).append(seconds)
    counts = list(pipeline.counts.values())
    results = [r for r in pipeline.cold.results if r is not None]

    def column(key):
        return [c[key] for c in counts if key in c]

    values = {name + "_s": median(own.get(name, [])) for name in TIMED_SPANS}
    values.update({
        "minicuda.tokens_per_s": ratio(sum(column("tokens")),
                                       sum(own.get("minicuda.parse", []))),
        "transforms.ast_nodes_out": median(column("ast_nodes")),
        "engine.codegen_bytes": median(column("codegen_bytes")),
        "engine.threads": median(column("threads")),
        "engine.ns_per_thread": 1e9 * ratio(
            sum(own.get("engine.execute", [])), sum(column("threads"))),
        "sim.grids": median(column("grids")),
        "sim.us_per_grid": 1e6 * ratio(sum(own.get("sim.simulate", [])),
                                       sum(column("grids"))),
        "harness.cache.blob_bytes": median(column("blob_bytes")),
        "harness.cache.hit_ratio": ratio(pipeline.cache.hits,
                                         pipeline.cache.hits
                                         + pipeline.cache.misses),
        "sim.cycles": median([r.total_time for r in results]),
        "sim.device_launches": median([r.device_launches for r in results]),
        "sim.launch_queue_wait": median([r.launch_queue_wait
                                         for r in results]),
    })
    return values


def stage_ledger(tracer, untraced_walls, n_points):
    """Per-stage self-time totals and per-point span coverage (Σ stage
    self time ÷ the same point's untraced wall)."""
    totals = {}
    per_point = [0.0] * n_points
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        if span.trace_id >= n_points or span.parent is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + seconds
        per_point[span.trace_id] += seconds
    coverage = [ratio(staged, wall)
                for staged, wall in zip(per_point, untraced_walls)]
    return {"self_time_s": {name: round(seconds, 6) for name, seconds in
                            sorted(totals.items(), key=lambda kv: -kv[1])},
            "coverage_median": median(coverage),
            "coverage_min": min(coverage) if coverage else 0.0,
            "coverage_total": ratio(sum(per_point), sum(untraced_walls))}


def run(workload, points, scored, seconds, scratch, started, sampler):
    """An untraced in-process run: the cold grid, then warm passes until
    *seconds* after *started*, all while *sampler* is active.
    *scored* are the optimised points ``sim_speedup_geomean`` is taken
    over. Returns (values, attempted, failed, meta); *values* lacks
    ``setup_s``."""
    warm = WarmSamples()
    grid = UntracedGrid(scratch("cold"))
    cold = grid.cold
    try:
        for point in points:
            grid.run(point)
        passes = 0
        until = max(started + seconds,
                    time.perf_counter() + MIN_WARM_SHARE * seconds)
        while passes < MIN_WARM_PASSES or time.perf_counter() < until:
            warm.warm_pass(grid.executor, points, cold)
            passes += 1
    finally:
        grid.close()
    lookups = np.subtract(warm.ends, warm.begins)
    meta = {"cold_points": len(points), "cold_wall_s": sum(cold.walls),
            "warm_lookups": len(lookups),
            "kernel_cache": KERNEL_CACHE.stats(),
            "raw_ms": {"miss_p50": 1e3 * percentile(cold.walls, 50),
                       "miss_p90": 1e3 * percentile(cold.walls, 90),
                       "hit_p50": 1e3 * percentile(lookups, 50),
                       "hit_p99": 1e3 * percentile(lookups, 99)},
            "tails_ms": {"hit_p90": 1e3 * warm.binned_percentile(
                sampler.seconds(warm.begins, warm.ends), 90)}}
    return (end_to_end(workload, points, cold, warm, scored, sampler),
            len(points) + len(lookups), cold.failed + warm.failed, meta)


def run_traced(points, scratch):
    """A traced in-process run: each point of the grid untraced (for its
    wall time) and then traced into a second cache; then traced warm
    passes.

    Returns (values, attempted, failed, meta, results): *values* are the
    per-layer metrics, *results* the traced pass's per-point results.
    """
    index_errors = _index_errors()
    untraced = UntracedGrid(scratch("untraced"))
    tracer = Tracer()
    pipeline = TracedPipeline(tracer, ResultCache(scratch("traced")))
    # Each point runs untraced and then traced, back to back, so machine
    # speed drift cancels out of span coverage and tracing overhead. Only
    # the untraced pass goes through the engine's kernel cache.
    kernels = KERNEL_CACHE.stats()
    try:
        for index, point in enumerate(points):
            untraced.run(point)
            pipeline.run_checked(index, point)
    finally:
        untraced.close()
    kernels = {key: value - kernels[key]
               for key, value in KERNEL_CACHE.stats().items()}
    cold, traced = untraced.cold, pipeline.cold
    mismatched = sum(
        a is not None and b is not None and sim_stats(a) != sim_stats(b)
        for a, b in zip(cold.results, traced.results))
    warm_failed = warm_traced(pipeline, points)
    lookups = sum(r is not None for r in traced.results) * MIN_WARM_PASSES
    values = layer_metrics(tracer, pipeline)
    values["engine.kernel_cache_hit_ratio"] = ratio(
        kernels["hits"], kernels["hits"] + kernels["misses"])
    values["harness.index.errors"] = _index_errors() - index_errors
    values.update({name: 0.0 for name in SERVER_ONLY})
    meta = {"cold_points": len(points), "untraced_wall_s": sum(cold.walls),
            "traced_wall_s": sum(traced.walls),
            "tracing_overhead_s": sum(traced.walls) - sum(cold.walls),
            "kernel_cache": KERNEL_CACHE.stats(),
            "sim_mismatches": mismatched, "spans": len(tracer.spans)}
    meta.update(stage_ledger(tracer, cold.walls, len(points)))
    attempted = 2 * len(points) + lookups
    failed = cold.failed + traced.failed + mismatched + warm_failed
    return values, attempted, failed, meta, traced.results
