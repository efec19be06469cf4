"""Event-driven timing simulation (phase 2).

Replays a :class:`~repro.sim.trace.Trace` against a
:class:`~repro.sim.config.DeviceConfig`:

* blocks of ready grids are placed FIFO onto SMs with per-SM block-slot and
  thread capacities; excess blocks wait — small grids underutilize the
  device because they cannot fill the slots;
* each dynamic launch leaves its parent block at its recorded thread-cycle
  offset, then passes through a single launch processor with a fixed service
  interval — many concurrent launches queue up, reproducing the congestion
  the paper identifies as CDP's first-order cost;
* grid-granularity aggregated launches become ready only after the parent
  grid completes plus a host round-trip (Sec. V-A's CPU involvement);
* host events run sequentially; ``sync`` waits for every grid launched so
  far (and all transitively launched descendants).

The golden digests in ``tests/test_scheduler_parity.py`` pin every
:class:`TimingResult` this produces across the benchmark × variant corpus.
"""

import heapq
from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError
from .config import DeviceConfig
from .trace import HOST_AGG


@dataclass
class GridTiming:
    ready: int = 0
    first_start: int = -1
    finish: int = 0
    blocks_done: int = 0


@dataclass
class TimingResult:
    """Output of the timing simulation."""

    total_time: int
    grid_timings: dict                  # gid -> GridTiming
    launch_queue_wait: int              # cycles launches spent queued
    device_launches: int
    host_agg_launches: int


class _SM:
    __slots__ = ("free_blocks", "free_threads", "work_free")

    def __init__(self, config):
        self.free_blocks = config.max_blocks_per_sm
        self.free_threads = config.max_threads_per_sm
        self.work_free = 0      # when the SM's shared pipeline drains


class Simulator:
    """One-shot simulator; use :func:`simulate`."""

    def __init__(self, trace, config):
        self.trace = trace
        self.config = config
        self.events = []
        self._seq = 0
        self.sms = [_SM(config) for _ in range(config.num_sms)]
        self.pending_blocks = deque()   # (grid, block_index)
        self.timings = {g.gid: GridTiming() for g in trace.grids}
        self.launch_server_free = 0
        self.launch_queue_wait = 0
        self.device_launches = 0
        self.host_agg_launches = 0
        self.outstanding = 0            # grids injected but not finished
        # Children index: dynamic launches fire when their parent *block*
        # starts (offset known then); host_agg fire at parent grid finish.
        self.block_launches = {}        # (parent gid, block) -> [LaunchRecord]
        self.finish_launches = {}       # parent gid -> [LaunchRecord]
        for grid in trace.grids:
            for rec in grid.children:
                key = (grid.gid, rec.parent_block)
                self.block_launches.setdefault(key, []).append(rec)
        for grid in trace.grids:
            launch = grid.launch
            if launch is not None and launch.kind == HOST_AGG:
                self.finish_launches.setdefault(
                    launch.parent_grid.gid, []).append(launch)

    # -- event machinery -------------------------------------------------------

    def _push(self, time, kind, payload):
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, kind, payload))

    def run(self):
        """Process host events; returns a :class:`TimingResult`."""
        host_time = 0
        for event in self.trace.host_events:
            if event[0] == "launch":
                grid = event[1]
                host_time += self.config.host_launch_latency
                self._inject(grid, host_time)
            elif event[0] == "sync":
                host_time = max(host_time, self._drain())
            else:
                raise SimulationError("unknown host event %r" % (event[0],))
        host_time = max(host_time, self._drain())
        return TimingResult(
            total_time=host_time,
            grid_timings=self.timings,
            launch_queue_wait=self.launch_queue_wait,
            device_launches=self.device_launches,
            host_agg_launches=self.host_agg_launches)

    def _inject(self, grid, ready_time):
        timing = self.timings[grid.gid]
        timing.ready = ready_time
        self.outstanding += 1
        if not grid.blocks:
            timing.finish = ready_time
            self.outstanding -= 1
            self._on_grid_finish(grid, ready_time)
            return
        self._push(ready_time, "grid_ready", grid)

    def _drain(self):
        """Run the event loop to exhaustion; returns the last finish time."""
        last = 0
        while self.events:
            time, _, kind, payload = heapq.heappop(self.events)
            last = max(last, time)
            if kind == "grid_ready":
                for index in range(len(payload.blocks)):
                    self.pending_blocks.append((payload, index))
                self._schedule(time)
            elif kind == "block_finish":
                self._on_block_finish(time, *payload)
            elif kind == "launch_ready":
                self._inject(payload.grid, time)
            else:
                raise SimulationError("unknown event %r" % kind)
        if self.outstanding != 0:
            raise SimulationError(
                "simulation drained with %d unfinished grids"
                % self.outstanding)
        return last

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, time):
        while self.pending_blocks:
            grid, index = self.pending_blocks[0]
            sm = self._find_sm(grid.block_dim)
            if sm is None:
                return
            self.pending_blocks.popleft()
            sm.free_blocks -= 1
            sm.free_threads -= min(grid.block_dim,
                                   self.config.max_threads_per_sm)
            timing = self.timings[grid.gid]
            if timing.first_start < 0:
                timing.first_start = time
            cost = grid.blocks[index]
            # Blocks resident on one SM share its issue pipeline: the block
            # completes when both its own slowest warp has retired and the
            # SM has pushed the block's summed work through the pipeline.
            sm.work_free = max(sm.work_free, time) \
                + self.config.block_service(cost.sum_warp)
            finish = max(time + self.config.block_latency(cost.max_warp),
                         sm.work_free)
            self._emit_block_launches(grid, index, time, finish - time)
            self._push(finish, "block_finish", (grid, index, sm))

    def _find_sm(self, block_threads):
        best = None
        for sm in self.sms:
            if sm.free_blocks <= 0:
                continue
            if sm.free_threads < min(block_threads,
                                     self.config.max_threads_per_sm):
                continue
            if best is None or sm.free_threads > best.free_threads:
                best = sm
        return best

    def _emit_block_launches(self, grid, index, start, duration):
        for rec in self.block_launches.get((grid.gid, index), ()):
            arrival = start + min(rec.issue_offset, duration)
            self.device_launches += 1
            ready = max(arrival, self.launch_server_free) \
                + self.config.launch_service_interval
            self.launch_queue_wait += ready - arrival \
                - self.config.launch_service_interval
            self.launch_server_free = ready
            self._push(ready + self.config.device_launch_latency,
                       "launch_ready", rec)

    def _on_block_finish(self, time, grid, index, sm):
        sm.free_blocks += 1
        sm.free_threads += min(grid.block_dim,
                               self.config.max_threads_per_sm)
        timing = self.timings[grid.gid]
        timing.blocks_done += 1
        if timing.blocks_done == len(grid.blocks):
            timing.finish = time
            self.outstanding -= 1
            self._on_grid_finish(grid, time)
        self._schedule(time)

    def _on_grid_finish(self, grid, time):
        for rec in self.finish_launches.get(grid.gid, ()):
            self.host_agg_launches += 1
            self._push(time + self.config.host_agg_overhead,
                       "launch_ready", rec)


def simulate(trace, config=None):
    """Replay *trace* on *config* (default :class:`DeviceConfig`)."""
    return Simulator(trace, config or DeviceConfig()).run()
