"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of ``(seed, seconds)``: the same
arguments always give the same point lists and the same arrival
schedule. The program under test only ever sees the generated point
specs and HTTP requests.

* ``fig9-cold`` — Fig. 9's 14 (benchmark, dataset) pairs × four code
  versions at scale 1.0 with pinned tuning parameters (seed-independent).
* ``tune-sweep`` — each pair's ``No CDP``/``CDP`` reference points, then
  rounds of distinct tuning points drawn from the tuning space at scale
  0.03; no two draws of one benchmark share a transform config, so every
  draw is a fresh compile. Half the draws are a fixed pool (the same for
  every seed, so the speedups taken over it compare across seeds); the
  seed draws the other half and sets the order.
* ``serve-mixed`` — an open-loop Poisson schedule of warm ``/point``
  hits over a prewarmed pool, ~10% cold ``/point`` misses (a few
  repeated while the first is still in flight) and a few ``POST /sweep``
  batches of two warm points and one cold one. The cold points come from
  a fixed pool; the seed sets the arrival times, the order and the hits.
"""

import json
import random
from collections import namedtuple
from urllib.parse import urlencode

from repro.benchmarks import FIG9_PAIRS
from repro.harness.sweep import SweepPoint, sweep_grid
from repro.harness.tuning import (DEFAULT_CFACTORS, DEFAULT_GROUP_BLOCKS,
                                  FULL_THRESHOLDS)
from repro.harness.variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES,
                                    VARIANT_LABELS, TuningParams,
                                    mask_params)

FIG9_SCALE = 1.0
TUNE_SCALE = 0.03
SERVE_SCALE = 0.03

#: Fig. 9's four series with the pinned parameters each one reads.
FIG9_VERSIONS = (
    ("No CDP", TuningParams()),
    ("CDP", TuningParams()),
    ("KLAP (CDP+A)", TuningParams(granularity="block")),
    ("CDP+T+C+A", TuningParams(threshold=64, coarsen_factor=4,
                               granularity="multiblock", group_blocks=8)),
)

#: Tuning draws per benchmark and variant label in each half (the fixed
#: pool, the seeded draw) of one tune-sweep run, roughly in proportion to
#: each label's share of the tuning space. Fixed quotas keep the label mix
#: (and so the mix of compile costs and speedups) the same for every seed.
TUNE_QUOTAS = {"KLAP (CDP+A)": 1, "CDP+T": 1, "CDP+C": 1, "CDP+T+C": 2,
               "CDP+T+A": 4, "CDP+C+A": 1, "CDP+T+C+A": 10}
TUNE_POOL_SEED = 2022             # fixes the pooled half of the draws

#: Rounds of one fresh draw per pair: both halves of a benchmark's draws
#: are split over its two datasets.
TUNE_ROUNDS = sum(TUNE_QUOTAS.values())

#: serve-mixed traffic: offered rate, class shares, dedup repeats.
SERVE_RATE = 30.0                 # requests per second, all classes
SERVE_MISS_SHARE = 0.10
SERVE_SWEEP_EVERY = 5.0           # seconds of schedule per POST /sweep
SERVE_DUP_EVERY = 8               # every 8th miss is repeated ...
SERVE_DUP_DELAY = 0.005           # ... this many seconds later
SERVE_POOL_SEED = 2022            # fixes which cold points are asked for

Request = namedtuple("Request", "due kind method path body points")
Request.__doc__ = """One scheduled HTTP request.

``due`` is seconds after the schedule starts; ``kind`` is ``hit``,
``miss`` or ``sweep``; ``points`` are the :class:`SweepPoint`\\ s the
response must carry, in order.
"""


def grid(pairs, versions, scale):
    """(pairs × versions) points, pair-major, params masked per label."""
    params = dict(versions)
    return sweep_grid(pairs, list(params), scale,
                      params_for=lambda bench, dataset, label: mask_params(
                          label, params[label]))


def fig9_points():
    """The fig9-cold grid, in pair-major order."""
    return grid(FIG9_PAIRS, FIG9_VERSIONS, FIG9_SCALE)


def tuning_space():
    """Every distinct (label, masked params) of the T/C/A variants over
    the tuning space's axes, in a fixed order."""
    space = []
    seen = set()
    for label in VARIANT_LABELS:
        if label in ("No CDP", "CDP"):
            continue
        grans = (KLAP_GRANULARITIES if label.startswith("KLAP")
                 else ALL_GRANULARITIES)
        for threshold in FULL_THRESHOLDS:
            for cfactor in DEFAULT_CFACTORS:
                for gran in grans:
                    for group in DEFAULT_GROUP_BLOCKS:
                        params = mask_params(label, TuningParams(
                            threshold, cfactor, gran, group))
                        if (label, params) not in seen:
                            seen.add((label, params))
                            space.append((label, params))
    return space


def _tuning_by_label():
    by_label = {}
    for label, params in tuning_space():
        by_label.setdefault(label, []).append(params)
    return by_label


def _tune_draw(rng, by_label, taken):
    """Points of one half of every benchmark's draws, stratified by label
    under :data:`TUNE_QUOTAS`, none of them in *taken*."""
    points = []
    for bench in sorted({bench for bench, _ in FIG9_PAIRS}):
        datasets = [dataset for name, dataset in FIG9_PAIRS if name == bench]
        draws = [(label, params) for label, quota in TUNE_QUOTAS.items()
                 for params in rng.sample(
                     [p for p in by_label[label]
                      if (bench, label, p) not in taken], quota)]
        rng.shuffle(draws)
        points += [SweepPoint(bench, datasets[i % len(datasets)], label,
                              params, scale=TUNE_SCALE)
                   for i, (label, params) in enumerate(draws)]
    return points


def tune_pool():
    """The pooled half of every tune-sweep run's draws, the same for every
    seed."""
    return _tune_draw(random.Random(TUNE_POOL_SEED), _tuning_by_label(), ())


def tune_points(seed):
    """References for every pair, then :data:`TUNE_ROUNDS` rounds of one
    fresh tuning draw per pair, from :func:`tune_pool` and a seeded draw
    of as many more, in a seeded order.

    Each benchmark's draws are distinct, so each is a new compile.
    """
    rng = random.Random(seed)
    pool = tune_pool()
    taken = {(p.benchmark, p.label, p.params) for p in pool}
    draws = {}
    for point in pool + _tune_draw(rng, _tuning_by_label(), taken):
        draws.setdefault((point.benchmark, point.dataset), []).append(point)
    points = grid(FIG9_PAIRS, FIG9_VERSIONS[:2], TUNE_SCALE)
    for pair in FIG9_PAIRS:
        rng.shuffle(draws[pair])
    for _ in range(TUNE_ROUNDS):
        points += [draws[pair].pop() for pair in FIG9_PAIRS]
    return points


def serve_warm_points():
    """The prewarmed pool: the fig9 grid at the serving scale."""
    return grid(FIG9_PAIRS, FIG9_VERSIONS, SERVE_SCALE)


def point_path(point):
    """The ``GET /point`` URL for *point*."""
    query = {"benchmark": point.benchmark, "dataset": point.dataset,
             "label": point.label, "scale": repr(point.scale)}
    params = point.params
    for key, value in (("threshold", params.threshold),
                       ("coarsen", params.coarsen_factor),
                       ("aggregate", params.granularity)):
        if value is not None:
            query[key] = value
    if params.granularity == "multiblock":
        query["group_blocks"] = params.group_blocks
    return "/point?" + urlencode(query)


def sweep_body(pairs, variants, params):
    """``POST /sweep`` body for a (pairs × variants) grid."""
    body = {"pairs": ["%s:%s" % pair for pair in pairs],
            "variants": list(variants), "scale": SERVE_SCALE,
            "params": {key: value for key, value in
                       (("threshold", params.threshold),
                        ("coarsen", params.coarsen_factor),
                        ("aggregate", params.granularity),
                        ("group_blocks", params.group_blocks))
                       if value is not None}}
    return json.dumps(body, sort_keys=True)


def _arrivals(rng, count, seconds):
    """*count* Poisson arrivals over [0, seconds): a Poisson process
    conditioned on its count is sorted uniform draws."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def cold_pool(n_miss, n_sweep):
    """The cold points serve-mixed asks for: *n_miss* ``/point`` misses
    and *n_sweep* combined-optimization sweep columns, none in the warm
    pool. The pool is the same for every seed (only the order in which
    it is asked for is seeded), so miss latencies compare across seeds.
    """
    warm = {((p.benchmark, p.dataset), p.label, p.params)
            for p in serve_warm_points()}
    candidates = [(pair, label, params) for pair in FIG9_PAIRS
                  for label, params in tuning_space()
                  if (pair, label, params) not in warm]
    random.Random(SERVE_POOL_SEED).shuffle(candidates)
    misses = candidates[:n_miss]
    sweeps = [c for c in candidates[n_miss:]
              if c[1] == "CDP+T+C+A"][:n_sweep]
    return misses, sweeps


def serve_schedule(seed, seconds):
    """The serve-mixed request schedule, sorted by due time."""
    rng = random.Random(seed)
    warm = serve_warm_points()
    total = max(10, int(round(SERVE_RATE * seconds)))
    n_sweep = max(2, int(seconds // SERVE_SWEEP_EVERY))
    n_miss = max(2, int(round(SERVE_MISS_SHARE * total)))
    kinds = (["sweep"] * n_sweep + ["miss"] * n_miss
             + ["hit"] * (total - n_sweep - n_miss))
    rng.shuffle(kinds)
    misses, sweeps = cold_pool(n_miss, n_sweep)
    rng.shuffle(misses)
    rng.shuffle(sweeps)

    requests = []
    for due, kind in zip(_arrivals(rng, total, seconds), kinds):
        if kind == "hit":
            point = rng.choice(warm)
            requests.append(Request(due, "hit", "GET", point_path(point),
                                    None, (point,)))
        elif kind == "miss":
            (bench, dataset), label, params = misses.pop()
            point = SweepPoint(bench, dataset, label, params,
                               scale=SERVE_SCALE)
            request = Request(due, "miss", "GET", point_path(point), None,
                              (point,))
            requests.append(request)
            if len(misses) % SERVE_DUP_EVERY == 0:
                requests.append(request._replace(due=due + SERVE_DUP_DELAY))
        else:
            # No CDP and CDP are in the warm pool; the combined
            # optimization's column is cold.
            pair, label, params = sweeps.pop()
            versions = (("No CDP", TuningParams()), ("CDP", TuningParams()),
                        (label, params))
            requests.append(Request(
                due, "sweep", "POST", "/sweep",
                sweep_body((pair,), [v for v, _ in versions], params),
                tuple(grid((pair,), versions, SERVE_SCALE))))
    requests.sort(key=lambda request: request.due)
    return requests
