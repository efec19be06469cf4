"""Metric names, units and the result line the benchmark prints.

The names and units here must agree with ``BENCHMARK.json`` (the
benchmark's own tests check that). Every workload reports every metric;
a layer that is not on a workload's path reports 0.
"""

import json
import os
import re

import numpy as np

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "warm_points_per_s": "1/s",
    "sim_speedup_geomean": "x",
    "hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
    "slo_met_share": "share",
}

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "datasets.build_s": "s",
    "minicuda.parse_s": "s",
    "minicuda.tokens_per_s": "1/s",
    "transforms.transform_s": "s",
    "transforms.ast_nodes_out": "count",
    "engine.codegen_s": "s",
    "engine.codegen_bytes": "bytes",
    "engine.instantiate_s": "s",
    "engine.kernel_cache_hit_ratio": "ratio",
    "engine.execute_s": "s",
    "engine.threads": "count",
    "engine.ns_per_thread": "ns",
    "sim.simulate_s": "s",
    "sim.breakdown_s": "s",
    "sim.grids": "count",
    "sim.us_per_grid": "us",
    "sim.cycles": "cycles",
    "sim.device_launches": "count",
    "sim.launch_queue_wait": "cycles",
    "harness.cache.get_s": "s",
    "harness.cache.put_s": "s",
    "harness.cache.encode_s": "s",
    "harness.cache.blob_bytes": "bytes",
    "harness.cache.hit_ratio": "ratio",
    "harness.queue.wait_s": "s",
    "harness.queue.dedup_joins": "count",
    "harness.queue.rejected": "count",
    "harness.quota.rejections": "count",
    "harness.index.errors": "count",
    "harness.serve.server_ms.point": "ms",
    "harness.serve.server_ms.sweep": "ms",
    "harness.serve.transport_ms": "ms",
}

#: Server-side layers an in-process workload never reaches.
SERVER_ONLY = ("harness.queue.wait_s", "harness.queue.dedup_joins",
               "harness.queue.rejected", "harness.quota.rejections",
               "harness.serve.server_ms.point",
               "harness.serve.server_ms.sweep", "harness.serve.transport_ms")


def median(values):
    """Median of *values* (0.0 when empty)."""
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q):
    """The *q*-th percentile of *values* (0.0 when empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def smooth_percentile(values, q):
    """The *q*-th percentile of *values* by the Harrell-Davis estimator
    (0.0 when empty), for the end-to-end latency metrics: a mean of all
    order statistics weighted by a beta density centred on the
    percentile (here taken at the middle of each rank's interval). It
    moves little when the few samples next to the percentile shift,
    where the plain percentile follows one or two of them (fig9-cold's
    miss median is the middle of only 56 fixed points)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if not n:
        return 0.0
    p = q / 100.0
    rank = (np.arange(n) + 0.5) / n
    log_weight = ((p * (n + 1) - 1) * np.log(rank)
                  + ((1 - p) * (n + 1) - 1) * np.log1p(-rank))
    weight = np.exp(log_weight - log_weight.max())
    return float(np.dot(weight, ordered) / weight.sum())


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def vm_hwm_mb(pid="self"):
    """Peak resident set (``VmHWM``) of process *pid*, in MiB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %s" % pid)


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Prometheus text exposition -> ``{(name, labels): value}`` where
    *labels* is a sorted tuple of ``(label, value)`` pairs."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        labels = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, labels)] = float(value)
    return samples


def metric_sum(samples, name, **labels):
    """Sum of *name*'s samples whose labels include *labels*."""
    want = set(labels.items())
    return sum(value for (sample, have), value in samples.items()
               if sample == name and want <= set(have))


def delta(before, after, name, **labels):
    return metric_sum(after, name, **labels) - metric_sum(before, name,
                                                          **labels)


def result_line(values, trace, correct, attempted, failed):
    """The JSON object the benchmark prints last.

    *values* must name exactly the metrics of the run's kind
    (:data:`PER_LAYER` when *trace*, else :data:`END_TO_END`).
    """
    units = PER_LAYER if trace else END_TO_END
    if set(values) != set(units):
        raise ValueError("metrics mismatch: missing %s, unexpected %s"
                         % (sorted(set(units) - set(values)),
                            sorted(set(values) - set(units))))
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


#: The checkout the benchmark runs in, and the program's sources in it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env():
    """Environment for child interpreters: the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env
