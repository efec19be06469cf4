"""Golden parity for the execution engine.

Fig. 9's 14 (benchmark, dataset) pairs × {No CDP, CDP, KLAP (CDP+A),
CDP+T+C+A} at scale 0.03 are run and each point is reduced to two
digests: one of ``RunResult.to_dict()`` (simulated cycles, breakdown,
launch counts) and one of the driver outputs with their dtypes and raw
bytes. The committed digests pin engine behaviour bit for bit, so a
codegen or runtime change that alters any output value, dtype or timing
shows here.

Regenerate the data file only for an intended behaviour change::

    PYTHONPATH=src python tests/test_engine_golden.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np

from repro.benchmarks import FIG9_PAIRS, get_benchmark
from repro.harness.runner import run_variant
from repro.harness.variants import TuningParams, mask_params

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "engine_golden_fig9.json")
SCALE = 0.03

#: Fig. 9's four series with pinned tuning parameters.
VERSIONS = (
    ("No CDP", TuningParams()),
    ("CDP", TuningParams()),
    ("KLAP (CDP+A)", TuningParams(granularity="block")),
    ("CDP+T+C+A", TuningParams(threshold=64, coarsen_factor=4,
                               granularity="multiblock", group_blocks=8)),
)


def _sha(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def outputs_digest(outputs):
    """sha256 over every output's name, dtype, shape and raw bytes."""
    chunks = []
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        chunks.append(("%s|%s|%r|" % (name, array.dtype.str,
                                      array.shape)).encode())
        chunks.append(array.tobytes())
    return _sha(chunks)


def point_digests():
    """{"BENCH:DATASET:label": {"result": sha, "outputs": sha}}."""
    digests = {}
    for bench_name, dataset in FIG9_PAIRS:
        bench = get_benchmark(bench_name)
        data = bench.build_dataset(dataset, SCALE)
        for label, params in VERSIONS:
            result = run_variant(bench, data, label,
                                 mask_params(label, params),
                                 keep_outputs=True)
            blob = json.dumps(result.to_dict(), sort_keys=True).encode()
            digests["%s:%s:%s" % (bench_name, dataset, label)] = {
                "result": _sha([blob]),
                "outputs": outputs_digest(result.outputs),
            }
    return digests


def test_fig9_points_match_golden_digests():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    actual = point_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(
        "%s (%s)" % (key, ", ".join(part for part in ("result", "outputs")
                                    if actual[key][part] != golden[key][part]))
        for key in golden if actual[key] != golden[key])
    assert not changed, "engine results changed: " + "; ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(point_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
