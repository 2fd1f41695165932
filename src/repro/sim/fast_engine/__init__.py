"""The simulator's compiled replay path, split by strategy.

The reference loop in :mod:`repro.sim.simulator` is the readable
specification; this package is the one fast path next to it:

- :mod:`.planner` — the columnar replay planner: CSR trigger→access
  alignment, window segmentation at prefetch trigger boundaries, and
  the eligibility checks that decide whether the compiled kernel may
  run.
- :mod:`.ckernel` — the on-demand compiled C replay kernel, a
  transcription of the reference loop with identical IEEE-754
  operation order.
- :mod:`.batch` — the ``replay_batch`` driver tying the two together
  and falling back to the reference loop when the plan is ineligible
  or no compiler is available.
"""

from .batch import REPLAY_QUEUE_GAUGE, REPLAY_SERIES_NAMES, replay_batch

__all__ = ["REPLAY_QUEUE_GAUGE", "REPLAY_SERIES_NAMES", "replay_batch"]
