"""One cold set-up: import stochnls and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken and then the host-speed kernel's time (see
hostspeed.py).  run.py starts this in fresh interpreters and reports the
median as ``setup_s``; interpreter start-up is not included.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.perf_counter() - START, hostspeed.kernel_seconds())
