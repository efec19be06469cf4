"""Harness unit tests: variant mapping, runner, tuning, geomean."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.benchmarks import get_benchmark
from repro.errors import ReproError
from repro.harness import (TuningParams, VARIANT_LABELS, child_launch_sizes,
                           geomean, outputs_match, run_variant,
                           threshold_candidates, tune, uses, variant_to_run)

SCALE = 0.1


@pytest.fixture(scope="module")
def bfs_setup():
    bench = get_benchmark("BFS")
    data = bench.build_dataset("KRON", SCALE)
    return bench, data


class TestVariantMapping:
    def test_no_cdp(self):
        variant, config = variant_to_run("No CDP", TuningParams())
        assert variant == "nocdp" and config is None

    def test_plain_cdp(self):
        variant, config = variant_to_run("CDP", TuningParams())
        assert variant == "cdp" and config is None

    def test_klap_is_aggregation_only(self):
        params = TuningParams(threshold=32, coarsen_factor=8,
                              granularity="block")
        _, config = variant_to_run("KLAP (CDP+A)", params)
        assert config.threshold is None
        assert config.coarsen_factor is None
        assert config.aggregate == "block"

    def test_full_combo(self):
        params = TuningParams(threshold=32, coarsen_factor=8,
                              granularity="multiblock", group_blocks=4)
        _, config = variant_to_run("CDP+T+C+A", params)
        assert (config.threshold, config.coarsen_factor,
                config.aggregate, config.group_blocks) == \
            (32, 8, "multiblock", 4)

    def test_uses(self):
        assert uses("CDP+T+C", "T") and uses("CDP+T+C", "C")
        assert not uses("CDP+T+C", "A")
        assert uses("KLAP (CDP+A)", "A") and not uses("KLAP (CDP+A)", "T")
        assert not uses("No CDP", "T")

    def test_all_labels_map(self):
        params = TuningParams(threshold=1, coarsen_factor=2,
                              granularity="block")
        for label in VARIANT_LABELS:
            variant, _ = variant_to_run(label, params)
            assert variant in ("cdp", "nocdp")

    def test_params_describe(self):
        params = TuningParams(threshold=8, granularity="multiblock",
                              group_blocks=4)
        assert params.describe() == "T=8,A=multiblock(4)"
        assert TuningParams().describe() == "-"


class TestGeomean:
    def test_simple(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([4, 0, -1]) == pytest.approx(4.0)

    def test_log_identity(self):
        values = [1.5, 2.5, 9.0]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geomean(values) == pytest.approx(expected)


class TestRunner:
    def test_run_variant_result_fields(self, bfs_setup):
        bench, data = bfs_setup
        result = run_variant(bench, data, "CDP")
        assert result.total_time > 0
        assert result.device_launches > 0
        assert set(result.breakdown) == {"parent", "child", "launch", "agg",
                                         "disagg"}

    def test_check_against_passes_for_correct_variant(self, bfs_setup):
        bench, data = bfs_setup
        reference = run_variant(bench, data, "No CDP", keep_outputs=True)
        run_variant(bench, data, "CDP+T", TuningParams(threshold=8),
                    check_against=reference.outputs)

    def test_check_against_detects_mismatch(self, bfs_setup):
        bench, data = bfs_setup
        reference = run_variant(bench, data, "No CDP", keep_outputs=True)
        bad = {key: value + 1 for key, value in reference.outputs.items()}
        with pytest.raises(ReproError):
            run_variant(bench, data, "CDP", check_against=bad)

    def test_outputs_dropped_unless_requested(self, bfs_setup):
        bench, data = bfs_setup
        assert run_variant(bench, data, "CDP").outputs is None

    def test_child_launch_sizes(self, bfs_setup):
        bench, data = bfs_setup
        sizes = child_launch_sizes(bench, data)
        assert sizes
        assert all(s >= 32 for s in sizes)


class TestOutputsMatch:
    def test_equal_int_arrays(self):
        a = {"x": np.array([1, 2, 3])}
        assert outputs_match(a, {"x": np.array([1, 2, 3])})

    def test_mismatched_keys(self):
        a = {"x": np.zeros(3)}
        assert not outputs_match(a, {"y": np.zeros(3)})
        assert not outputs_match(a, {"x": np.zeros(3), "y": np.zeros(3)})
        assert not outputs_match(a, {})

    def test_nan_in_same_positions_matches(self):
        a = {"x": np.array([1.0, np.nan, 3.0])}
        b = {"x": np.array([1.0, np.nan, 3.0])}
        assert outputs_match(a, b)

    def test_nan_against_number_differs(self):
        a = {"x": np.array([1.0, np.nan, 3.0])}
        b = {"x": np.array([1.0, 2.0, 3.0])}
        assert not outputs_match(a, b)
        assert not outputs_match(b, a)

    def test_int_vs_float_kind_compares_by_value(self):
        ints = {"x": np.array([1, 2, 3])}
        floats = {"x": np.array([1.0, 2.0, 3.0])}
        assert outputs_match(ints, floats)
        assert outputs_match(floats, ints)
        assert not outputs_match(ints, {"x": np.array([1.0, 2.5, 3.0])})

    def test_float_tolerance(self):
        a = {"x": np.array([1.0])}
        assert outputs_match(a, {"x": np.array([1.0 + 1e-13])})
        assert not outputs_match(a, {"x": np.array([1.0 + 1e-6])})

    def test_shape_mismatch(self):
        a = {"x": np.zeros(3)}
        assert not outputs_match(a, {"x": np.zeros((3, 1))})
        assert not outputs_match(a, {"x": np.zeros(4)})

    def test_int_arrays_compare_exactly(self):
        a = {"x": np.array([1, 2, 3])}
        assert not outputs_match(a, {"x": np.array([1, 2, 4])})


class TestTuning:
    def test_threshold_candidates_capped(self, bfs_setup):
        bench, data = bfs_setup
        candidates = threshold_candidates(bench, data)
        largest = max(child_launch_sizes(bench, data))
        assert all(t <= largest for t in candidates)
        assert candidates == sorted(candidates)

    def test_uncapped_adds_one_beyond(self, bfs_setup):
        bench, data = bfs_setup
        capped = threshold_candidates(bench, data)
        uncapped = threshold_candidates(bench, data, cap_to_largest=False)
        assert uncapped[-1] > capped[-1]

    def test_uncapped_is_capped_plus_exactly_one(self, bfs_setup):
        """Regression: uncapped used to discard the constructed list and
        return the entire FULL_THRESHOLDS axis, inflating Fig. 12 sweeps."""
        bench, data = bfs_setup
        capped = threshold_candidates(bench, data)
        uncapped = threshold_candidates(bench, data, cap_to_largest=False)
        largest = max(child_launch_sizes(bench, data))
        assert uncapped[:-1] == capped
        assert sum(1 for t in uncapped if t > largest) == 1

    def test_uncapped_respects_coarse(self, bfs_setup):
        bench, data = bfs_setup
        coarse = threshold_candidates(bench, data, coarse=True)
        uncapped = threshold_candidates(bench, data, coarse=True,
                                        cap_to_largest=False)
        largest = max(child_launch_sizes(bench, data))
        assert uncapped[:-1] == coarse
        assert uncapped[-1] > largest

    def test_tune_picks_minimum(self, bfs_setup):
        bench, data = bfs_setup
        outcome = tune(bench, data, "CDP+T", strategy="guided")
        assert outcome.best_time == min(t for _, t in outcome.evaluated)
        assert outcome.best.threshold is not None

    def test_guided_skips_warp(self, bfs_setup):
        bench, data = bfs_setup
        outcome = tune(bench, data, "KLAP (CDP+A)", strategy="guided")
        grans = {p.granularity for p, _ in outcome.evaluated}
        assert "warp" not in grans
        assert "multiblock" not in grans  # prior work's options only

    def test_variant_without_t_has_no_thresholds(self, bfs_setup):
        bench, data = bfs_setup
        outcome = tune(bench, data, "CDP+C", strategy="guided")
        assert all(p.threshold is None for p, _ in outcome.evaluated)


def _run_python(code):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLazyPackage:
    """``repro.harness`` resolves its names on first use, so the sweep
    path does not load the HTTP service, sockets or process pools."""

    def test_sweep_import_loads_no_service_or_pool_modules(self):
        loaded = _run_python(
            "import sys\n"
            "import repro.harness.sweep\n"
            "heavy = ('http', 'email', 'multiprocessing', 'concurrent',\n"
            "         'socketserver')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in heavy\n"
            "             or m in ('repro.harness.serve',\n"
            "                      'repro.harness.remote')))\n")
        assert loaded.strip() == "[]"

    def test_star_import_resolves_every_public_name(self):
        out = _run_python(
            "import repro.harness as harness\n"
            "namespace = {}\n"
            "exec('from repro.harness import *', namespace)\n"
            "missing = [n for n in harness.__all__ if n not in namespace]\n"
            "print(len(harness.__all__), missing)\n"
            "print(harness.BACKENDS['remote'] is harness.RemoteBackend)\n")
        count, rest = out.split(" ", 1)
        assert int(count) > 80
        assert rest.splitlines() == ["[]", "True"]

    def test_unknown_name_is_an_attribute_error(self):
        import repro.harness as harness
        with pytest.raises(AttributeError):
            harness.no_such_name
