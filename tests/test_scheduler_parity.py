"""Golden timing digests for the simulator.

The timing model is the reproduction's ground truth, so "almost the same"
is a regression. Every benchmark (Table I's seven) × every variant label
(Fig. 9's nine series) is traced once at a small fixed scale and replayed
on the default device and on a deliberately skewed one (fewer SMs, slower
launch server, pricier host round-trips), so congestion and
underutilization paths are both exercised: 126 replays.

Each replay is reduced to a sha256 of a canonical JSON of its
:class:`~repro.sim.scheduler.TimingResult` (total time, launch-queue wait,
both launch counters, every grid's ready/first-start/finish/blocks-done)
and its Fig. 10 breakdown. ``total_time`` is stored in plain form too, so
a diff of the data file stays readable.

Regenerate the data file only for an intended timing-model change (and
bump ``CACHE_VERSION`` with it)::

    PYTHONPATH=src python tests/test_scheduler_parity.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.benchmarks import all_benchmarks
from repro.harness.variants import VARIANT_LABELS, TuningParams, mask_params, \
    variant_to_run
from repro.runtime.host import Device
from repro.sim.config import DeviceConfig
from repro.sim.metrics import breakdown
from repro.sim.scheduler import simulate

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "sim_golden.json")
SCALE = 0.1

#: Default device plus one skewed enough to move every cost term.
DEVICE_CONFIGS = {
    "default": DeviceConfig(),
    "skewed": DeviceConfig(num_sms=3, launch_service_interval=11,
                           device_launch_latency=137, host_agg_overhead=9001),
}

#: Tuning point used for every optimized label (masked per label).
BASE_PARAMS = TuningParams(threshold=64, coarsen_factor=2,
                           granularity="multiblock", group_blocks=4)


def trace_for(bench, label):
    data = bench.build_dataset(bench.dataset_names[0], SCALE)
    variant, config = variant_to_run(label, mask_params(label, BASE_PARAMS))
    module = bench.module_for(variant, config)
    device = Device(module)
    bench.drive(device, data)
    return device.trace


def replay_digest(trace, config):
    """{"total_time": int, "sha256": digest of the whole replay}."""
    result = simulate(trace, config)
    record = {
        "total_time": result.total_time,
        "launch_queue_wait": result.launch_queue_wait,
        "device_launches": result.device_launches,
        "host_agg_launches": result.host_agg_launches,
        "grids": [[gid, t.ready, t.first_start, t.finish, t.blocks_done]
                  for gid, t in sorted(result.grid_timings.items())],
        "breakdown": breakdown(trace, config).as_dict(),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return {"total_time": result.total_time,
            "sha256": hashlib.sha256(blob).hexdigest()}


def case_digests(bench, label):
    trace = trace_for(bench, label)
    return {name: replay_digest(trace, config)
            for name, config in DEVICE_CONFIGS.items()}


CASES = [(bench, label)
         for bench in all_benchmarks() for label in VARIANT_LABELS]
CASE_IDS = ["%s-%s" % (b.name, label) for b, label in CASES]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("bench,label", CASES, ids=CASE_IDS)
def test_bit_identical_timing_and_breakdown(bench, label, golden):
    assert case_digests(bench, label) == golden["%s-%s" % (bench.name, label)]


def test_corpus_covers_all_benchmarks_and_labels(golden):
    names = {b.name for b, _ in CASES}
    assert len(names) == 7
    assert {label for _, label in CASES} == set(VARIANT_LABELS)
    assert sorted(golden) == sorted(CASE_IDS)
    assert sum(len(entry) for entry in golden.values()) == 126


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_scheduler_parity.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    digests = {case_id: case_digests(bench, label)
               for case_id, (bench, label) in zip(CASE_IDS, CASES)}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
