"""Fresh-interpreter start-up probe: ``import repro.cli`` and both C kernels.

Run as ``python3 perfsuite/startup_probe.py`` with ``PYTHONPATH`` naming
the checkout's ``src``.  Prints one JSON line: import seconds, kernel
load seconds, and whether each kernel loaded.  The kernel cache is
whatever ``REPRO_CKERNEL_CACHE`` names, so the caller chooses warm or
cold.

numpy, which ``repro`` needs everywhere, is imported first and timed on
its own: no change to the program can move that time, so the caller
uses it as the host-speed reference for the probe.
"""

import json
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import repro.cli  # noqa: E402,F401

imported = time.perf_counter()
from repro.sim.fast_engine import ckernel as replay_ckernel  # noqa: E402
from repro.snn import ckernel as snn_ckernel  # noqa: E402

snn = snn_ckernel.load_kernel() is not None
replay = replay_ckernel.load_kernel() is not None
loaded = time.perf_counter()
print(json.dumps({"numpy_import_s": numpy_done - start,
                  "import_s": imported - start,
                  "kernel_load_s": loaded - imported,
                  "snn_kernel": snn, "replay_kernel": replay,
                  "repro_file": repro.cli.__file__}))
