"""Print the seconds one fresh interpreter spends importing centroflow and
building a workload's inputs: ``setup_probe.py WORKLOAD SEED SIZE``."""

import sys
import time

start = time.perf_counter()
from workloads import WORKLOADS, import_centroflow  # noqa: E402

cf = import_centroflow()
name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
WORKLOADS[name].make_inputs(cf, seed, WORKLOADS[name].sizes[size])
print(time.perf_counter() - start)
