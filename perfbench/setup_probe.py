"""Print the set-up time of a sim workload, measured in this fresh process.

    python perfbench/setup_probe.py sim-src

Covers the package import, spec construction and one one-packet warm-up
`run` per spec, exactly what the workload does before its first timed call.
`src` must be on PYTHONPATH.
"""

import sys
from time import perf_counter

from workloads import sim_setup

start = perf_counter()
sim_setup(sys.argv[1])
print(perf_counter() - start)
