"""Build one workload's inputs in a fresh interpreter, then print the clock.

    python3 benchmarks/setup_probe.py <workload> <seed>

run.py starts this process and takes ``time.monotonic()`` (one clock for
every process on the host) before it does; the difference to the printed
value is the set-up time: interpreter start, ``import torspec`` and building
the inputs from the seed.
"""

import sys
import time

import workloads

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.monotonic())
