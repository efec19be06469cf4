"""``repro serve`` with a speed sampler in the server's main thread.

    python3 perfbench/sampled_serve.py TICKS_FILE serve --host ... 

Runs the program's own command line (everything after *TICKS_FILE*)
while a :class:`~perfbench.speed.SpeedSampler` times the calibration
kernel on the ``time.monotonic`` clock, and writes its
:meth:`~perfbench.speed.SpeedSampler.ticks` to *TICKS_FILE* as JSON when
the command returns. serve-mixed scales its request latencies by the
speed of the server's cores as well as the client's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.speed import SpeedSampler  # noqa: E402


def main(ticks_file, argv):
    from repro.cli import main as repro_main
    sampler = SpeedSampler(clock=time.monotonic)
    try:
        with sampler:
            return repro_main(argv)
    finally:
        with open(ticks_file, "w") as handle:
            json.dump(sampler.ticks(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
