"""The repository benchmark: three workloads, checked outputs, one result.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 30 \
        --trace 0

Workloads (see ``perfbench/workloads.py`` for how each input is drawn):

* ``fig9-cold`` — Fig. 9's 14 pairs × {No CDP, CDP, KLAP, CDP+T+C+A} at
  scale 1.0 through one serial sweep executor over an empty result
  cache, then warm passes over the same grid from that cache;
* ``tune-sweep`` — distinct tuning points at scale 0.03 (every draw a
  fresh compile; half a fixed pool, half seeded, in a seeded order) plus
  each pair's No CDP/CDP references, then warm passes;
* ``serve-mixed`` — an open-loop Poisson schedule of warm hits, cold
  misses and mixed ``POST /sweep`` batches against a ``repro serve``
  subprocess.

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric; with ``--trace 1`` it carries the per-layer
metrics of a traced run. The line before it holds run metadata (versions,
``nproc``, an interpreter-loop calibration time, the raw wall-time
figures, and for traced runs the per-stage self-time ledger, span
coverage and tracing overhead). Exit status is 0 whenever a result is
printed; ``"correct": false`` marks a run whose outputs or serving
checks failed.

End-to-end times are reference seconds: wall time scaled by the speed of
a fixed calibration kernel timed alongside the work
(``perfbench/speed.py``), because the shared host's own speed wanders
too much between runs for raw wall times to repeat. Per-layer times are
raw.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.report import ROOT, SRC, child_env, result_line  # noqa: E402
from perfbench.speed import SpeedSampler, reference_seconds  # noqa: E402

WORKLOADS = ("fig9-cold", "tune-sweep", "serve-mixed")

#: Fresh interpreters timed for ``setup_s`` on the in-process workloads.
SETUP_PROBES = 5

#: What an in-process workload imports before its first timed operation.
PROGRAM_MODULES = ("repro.benchmarks", "repro.engine.module",
                   "repro.harness.cache", "repro.harness.sweep",
                   "repro.minicuda", "repro.runtime.host",
                   "repro.transforms")

_PROBE = ("import importlib, time\n"
          "for name in %r:\n"
          "    importlib.import_module(name)\n"
          "print(time.monotonic())\n"
          "from perfbench.speed import kernel_seconds\n"
          "print(kernel_seconds())\n")


def import_setup_seconds():
    """Reference seconds (see :mod:`perfbench.speed`) of each of
    :data:`SETUP_PROBES` spawns of a fresh interpreter until it has
    imported the program (interpreter start plus imports). Each probe
    times the calibration kernel after its imports, so each is scaled by
    the speed of the core it ran on."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c",
                               _PROBE % (PROGRAM_MODULES,)],
                              env=child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        imported, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append((imported - started, kernel_s))
    return samples


def calibrate(iterations=2_000_000):
    """Seconds for a fixed pure-interpreter loop (metadata only; no
    metric is divided by it)."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - started


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "calibrate_s": calibrate()}


def run_workload(args, scratch):
    """Returns (values, attempted, failed, correct, meta)."""
    if args.workload == "serve-mixed":
        from perfbench import serve_mixed
        return serve_mixed.run(args.seed, args.seconds, scratch, args.trace)
    from perfbench import inproc, workloads
    if args.workload == "fig9-cold":
        points = workloads.fig9_points()
        scored = {p for p in points if p.label not in ("No CDP", "CDP")}
    else:
        points = workloads.tune_points(args.seed)
        scored = set(workloads.tune_pool())
    if args.trace:
        values, attempted, failed, meta, _ = inproc.run_traced(points,
                                                               scratch)
        return values, attempted, failed, failed == 0, meta
    setup = import_setup_seconds()
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        values, attempted, failed, meta = inproc.run(
            args.workload, points, scored, args.seconds, scratch, started,
            sampler)
    values["setup_s"] = statistics.median(
        reference_seconds(wall, kernel_s) for wall, kernel_s in setup)
    meta.update(raw_setup_s=statistics.median(wall for wall, _ in setup),
                speed_samples=sampler.samples, kernel_s=sampler.kernel_s())
    return values, attempted, failed, failed == 0, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s; run from the root of "
              "a repository checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    base = os.path.join(ROOT, ".perfbench", "run-%d" % os.getpid())
    made = []

    def scratch(name):
        path = os.path.join(base, "%s-%d" % (name, len(made)))
        os.makedirs(path)
        made.append(path)
        return path

    try:
        values, attempted, failed, correct, meta = run_workload(args,
                                                                scratch)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, environment=environment())
    print(json.dumps({"perfbench": meta}, sort_keys=True, default=str))
    print(result_line(values, args.trace, correct, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
