"""Experiment harness: variants, runner, tuning, sweeps, and figures.

Public names resolve lazily (PEP 562): ``import repro.harness.sweep`` loads
only what the sweep path needs, and the HTTP service, the remote worker
fleet and the figure builders load on first use of one of their names.
"""

import importlib

#: Submodule -> the public names it defines.
_EXPORTS = {
    "autotune": ("QuickTuneResult", "hill_climb", "predict_threshold",
                 "quick_tune"),
    "cache": ("CACHE_VERSION", "CacheInfo", "FigureArtifactCache",
              "PruneReport", "ResultCache", "decode_result", "encode_result",
              "figure_key", "point_key"),
    "figures": ("BreakdownFigure", "FixedThresholdResult", "SpeedupFigure",
                "SweepFigure", "Table1Result", "figure9", "figure10",
                "figure11", "figure12", "fixed_threshold_study", "table1"),
    "runner": ("RunResult", "child_launch_sizes", "geomean", "outputs_match",
               "run_variant"),
    "sweep": ("BACKENDS", "Backend", "PointFailure", "SweepExecutor",
              "SweepPoint", "SweepPointError", "SweepStats", "make_backend",
              "run_sweep", "sweep_grid"),
    "index": ("CacheIndex",),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "REGISTRY"),
    "queue": ("MissTask", "RequestScheduler"),
    "quota": ("ApiKey", "ApiKeyAuth", "ClientQuota", "QuotaLease",
              "QuotaManager", "load_api_keys"),
    "task": ("PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL", "Provenance",
             "Task", "parse_priority", "priority_label"),
    "remote": ("RemoteBackend", "RemoteError", "RemoteHandshakeError",
               "RemoteProtocolError", "RemoteWorkerError", "WorkerServer",
               "parse_workers", "worker_ping", "worker_stop"),
    "serve": ("ENDPOINTS", "QueryService", "ServeServer"),
    "tuning": ("FULL_THRESHOLDS", "TuneOutcome", "threshold_candidates",
               "tune"),
    "variants": ("ALL_GRANULARITIES", "KLAP_GRANULARITIES", "VARIANT_LABELS",
                 "TuningParams", "mask_params", "uses", "variant_to_run"),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "QuickTuneResult", "hill_climb", "predict_threshold", "quick_tune",
    "CACHE_VERSION", "CacheInfo", "FigureArtifactCache", "PruneReport",
    "ResultCache", "decode_result", "encode_result", "figure_key",
    "point_key",
    "BACKENDS", "Backend", "PointFailure", "SweepExecutor", "SweepPoint",
    "SweepPointError", "SweepStats", "make_backend", "run_sweep",
    "sweep_grid",
    "RemoteBackend", "RemoteError", "RemoteHandshakeError",
    "RemoteProtocolError", "RemoteWorkerError", "WorkerServer",
    "parse_workers", "worker_ping", "worker_stop",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "CacheIndex",
    "MissTask", "RequestScheduler",
    "ApiKey", "ApiKeyAuth", "ClientQuota", "QuotaLease", "QuotaManager",
    "load_api_keys",
    "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL", "Provenance",
    "Task", "parse_priority", "priority_label",
    "ENDPOINTS", "QueryService", "ServeServer",
    "BreakdownFigure", "FixedThresholdResult", "SpeedupFigure", "SweepFigure",
    "Table1Result", "figure9", "figure10", "figure11", "figure12",
    "fixed_threshold_study", "table1",
    "RunResult", "child_launch_sizes", "geomean", "outputs_match",
    "run_variant",
    "FULL_THRESHOLDS", "TuneOutcome", "threshold_candidates", "tune",
    "ALL_GRANULARITIES", "KLAP_GRANULARITIES", "VARIANT_LABELS",
    "TuningParams", "mask_params", "uses", "variant_to_run",
]
