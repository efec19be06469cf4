"""The benchmark's own tests: seeded inputs, span arithmetic, metric names.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import report, speed, workloads  # noqa: E402
from perfbench.trace import Span, Tracer, self_times  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- seeded inputs ----------------------------------------------------------

def test_same_seed_same_points_and_schedule():
    assert workloads.tune_points(7) == workloads.tune_points(7)
    assert workloads.serve_schedule(7, 5) == workloads.serve_schedule(7, 5)


def test_different_seed_different_points_and_schedule():
    assert workloads.tune_points(7) != workloads.tune_points(8)
    first, second = (workloads.serve_schedule(seed, 5) for seed in (7, 8))
    assert [r.due for r in first] != [r.due for r in second]
    assert [r.path for r in first] != [r.path for r in second]


def test_fig9_grid_is_seed_independent_and_complete():
    points = workloads.fig9_points()
    assert len(points) == 14 * 4 == len(set(points))
    assert {p.scale for p in points} == {1.0}


def test_tuning_pool_is_in_every_seeds_points():
    pool = workloads.tune_pool()
    assert pool == workloads.tune_pool()
    assert len(pool) == 14 * workloads.TUNE_ROUNDS // 2 == len(set(pool))
    for seed in (3, 4):
        points = workloads.tune_points(seed)
        assert set(pool) <= set(points)
        assert len(set(points[28:]) - set(pool)) == len(pool)


def test_every_tuning_draw_is_a_new_compile():
    points = workloads.tune_points(3)
    refs = points[:28]
    assert {p.label for p in refs} == {"No CDP", "CDP"}
    draws = [(p.benchmark, p.label, p.params) for p in points[28:]]
    assert len(draws) == 14 * workloads.TUNE_ROUNDS
    assert len(set(draws)) == len(draws)


def test_schedule_is_sorted_and_misses_are_cold():
    schedule = workloads.serve_schedule(5, 20)
    dues = [r.due for r in schedule]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 20.1
    warm = set(workloads.serve_warm_points())
    assert all(r.points[0] in warm for r in schedule if r.kind == "hit")
    cold = [p for r in schedule if r.kind != "hit" for p in r.points
            if p.label not in ("No CDP", "CDP")]
    assert not warm & set(cold)
    # Repeats are the only cold point asked for twice.
    repeats = len(cold) - len(set(cold))
    misses = sum(r.kind == "miss" for r in schedule)
    assert 0 < repeats < misses / 4
    assert {p for r in schedule if r.kind == "sweep" for p in r.points
            if p.label in ("No CDP", "CDP")} <= warm


# -- spans ------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [Span("point", 0.0, 10.0, None, 1),
             Span("compile", 1.0, 4.0, 0, 1),
             Span("parse", 1.5, 2.5, 1, 1),
             Span("execute", 5.0, 9.0, 0, 1)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("request", 0.0, 10.0, None, 0),
             Span("a", 2.0, 6.0, 0, 0),
             Span("b", 4.0, 8.0, 0, 0),
             Span("c", 9.0, 12.0, 0, 0)]        # runs past its parent
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_trace_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.trace(4):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    with tracer.trace(5, "lookup"):
        pass
    names = [(s.name, s.parent, s.trace_id) for s in tracer.spans]
    assert names == [("point", None, 4), ("outer", 0, 4), ("inner", 1, 4),
                     ("lookup", None, 5)]
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0, 1.0]


# -- speed normalisation ----------------------------------------------------

def _sampler_with_ticks(ticks):
    """A sampler holding kernel timings ``(end, cost)``, taken through
    its own tick handler with a scripted clock."""
    readings = iter([value for end, cost in ticks
                     for value in (end - cost, end)])
    sampler = speed.SpeedSampler(clock=lambda: next(readings))
    for _ in ticks:
        sampler._tick(None, None)
    return sampler


def test_reference_seconds_scale_by_kernel_speed_and_drop_ticks():
    # The kernel takes twice its reference time: the host is half speed.
    cost = 2 * speed.REFERENCE_S
    sampler = _sampler_with_ticks([(1.0, cost), (2.0, cost), (9.0, cost)])
    got = sampler.seconds([0.5, 2.2], [1.5, 2.4])
    # [0.5, 1.5] holds the tick ending at 1.0, which paused the work.
    assert got[0] == pytest.approx((1.0 - cost) / 2)
    assert got[1] == pytest.approx(0.2 / 2)


def test_reference_seconds_cancel_a_uniform_slowdown():
    fast = _sampler_with_ticks([(t, speed.REFERENCE_S)
                                for t in (0.3, 0.6, 0.9)])
    slow = _sampler_with_ticks([(2 * t, 2 * speed.REFERENCE_S)
                                for t in (0.3, 0.6, 0.9)])
    assert slow.seconds(0.0, 1.6) == pytest.approx(fast.seconds(0.0, 0.8))


def test_reference_seconds_need_a_sample_near_the_interval():
    sampler = _sampler_with_ticks([(1.0, speed.REFERENCE_S)])
    with pytest.raises(RuntimeError):
        sampler.seconds([5.0], [6.0])
    with pytest.raises(RuntimeError):
        speed.SpeedSampler().seconds([0.0], [1.0])


def test_sampler_ticks_while_active_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(interval=0.01) as sampler:
        started = time.perf_counter()
        while time.perf_counter() < started + 0.2:
            pass
    taken = sampler.samples
    time.sleep(0.05)
    assert taken >= 5 and sampler.samples == taken
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- metrics ----------------------------------------------------------------

def test_benchmark_json_names_every_emitted_metric_with_its_unit():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == report.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {
        "fig9-cold", "tune-sweep", "serve-mixed"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_emits_every_metric_with_a_unit(trace):
    units = report.PER_LAYER if trace else report.END_TO_END
    line = json.loads(report.result_line(
        {name: 1.5 for name in units}, trace, True, 10, 0))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units
    with pytest.raises(ValueError):
        report.result_line({}, trace, True, 10, 0)


def test_hit_percentiles_average_over_seconds():
    from perfbench.inproc import WarmSamples
    warm = WarmSamples()
    # One second of 30 fast lookups, then one of 10 slow ones.
    ends = [10.0 + i / 30 for i in range(30)] + [11.0 + i / 10
                                                   for i in range(10)]
    warm.ends.extend(ends)
    latencies = [0.1] * 30 + [0.3] * 10
    assert warm.binned_percentile(latencies, 50) == pytest.approx(0.2)
    assert WarmSamples().binned_percentile([], 50) == 0.0


def test_smooth_percentile_tracks_the_plain_one():
    values = [float(v) for v in range(1, 102)]
    assert report.smooth_percentile(values, 50) == pytest.approx(51.0)
    assert report.smooth_percentile(values, 90) == pytest.approx(
        report.percentile(values, 90), rel=0.01)
    assert report.smooth_percentile([], 50) == 0.0


def test_parse_exposition_sums_labelled_series():
    text = ('# HELP x_total demo\n# TYPE x_total counter\n'
            'x_total{route="/point",code="200"} 3\n'
            'x_total{route="/sweep",code="200"} 2\n'
            'y_seconds_sum 0.5\n')
    samples = report.parse_exposition(text)
    assert report.metric_sum(samples, "x_total") == 5
    assert report.metric_sum(samples, "x_total", route="/point") == 3
    assert report.metric_sum(samples, "y_seconds_sum") == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig9-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode == 2
    assert "no program source" in done.stderr
    assert done.stdout == ""
