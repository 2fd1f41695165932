"""The ``engine="batch"`` replay driver.

Plans the replay from the trace's cached columns
(:func:`~repro.sim.fast_engine.planner.plan_replay`), then executes it
on the compiled C kernel (:mod:`~repro.sim.fast_engine.ckernel`) and
writes the kernel's counters back into the simulator's reference
cache/DRAM state.  When there is no kernel (no C compiler, or
``REPRO_NO_SIMKERNEL=1``) or the plan is ineligible (non-monotone
instruction ids, negative blocks, oversized ids), it runs the
simulator's reference loop on that same state instead, sets
``engine_used = "reference"`` and emits an
:class:`~repro.errors.EngineFallbackWarning`.  Both paths produce
bit-identical :class:`~repro.sim.metrics.SimResult`\\ s.

Warm caches and pre-seeded prefetch state cannot reach the kernel:
:meth:`Simulator.run <repro.sim.simulator.Simulator.run>` is
single-use and the simulator builds its state cold in ``__init__``.
"""

from __future__ import annotations

import warnings
from typing import Dict, List

import numpy as np

from ..metrics import SimResult
from ...errors import EngineFallbackWarning
from ...types import Trace
from .ckernel import load_kernel
from .planner import plan_replay

#: Recorder series names for the kernel's per-window row columns, in
#: :data:`~repro.sim.fast_engine.ckernel.SERIES_FIELDS` order (the last
#: column is the DRAM-queue occupancy gauge).
REPLAY_SERIES_NAMES = (
    "replay.l1_hits", "replay.l1_misses",
    "replay.l2_hits", "replay.l2_misses",
    "replay.llc_hits", "replay.llc_misses", "replay.llc_useful",
    "replay.pf_issued", "replay.pf_late", "replay.pf_dropped",
    "replay.dram_requests", "replay.dram_wait",
)

REPLAY_QUEUE_GAUGE = "replay.dram_queue_len"


def _feed_kernel_series(recorder, series_rows: np.ndarray, n: int,
                        window: int) -> None:
    """Feed the kernel's cumulative per-window rows through a recorder."""
    for k, row in enumerate(series_rows.tolist()):
        end = min((k + 1) * window, n)
        recorder.sample(
            end,
            cumulative=dict(zip(REPLAY_SERIES_NAMES, row)),
            gauges={REPLAY_QUEUE_GAUGE: row[len(REPLAY_SERIES_NAMES)]})


def replay_batch(sim, trace: Trace,
                 by_trigger: Dict[int, List[int]],
                 result: SimResult, recorder=None) -> None:
    """Replay ``trace`` on ``sim`` using the batch plan.

    Same contract as the reference loop: sets ``result``'s counters and
    cycles and the simulator's cache/DRAM stats; the caller owns the
    shared epilogue.  With a
    :class:`~repro.obs.timeseries.WindowRecorder` armed, the kernel
    emits one cumulative-counter row per window — the same rows the
    reference loop records.
    """
    arrays = trace.arrays()
    plan = plan_replay(arrays, by_trigger)
    kernel = load_kernel() if plan.kernel_eligible else None
    if kernel is None:
        reason = plan.fallback_reason or "no replay kernel"
        warnings.warn(EngineFallbackWarning(
            f"replay engine downgraded to 'reference': {reason}"),
            stacklevel=3)
        sim.engine_used = "reference"
        sim._replay_reference(trace, by_trigger, result, recorder)
        return

    series_window = recorder.window if recorder is not None else 0
    out = kernel.replay(arrays.instr_ids, arrays.blocks,
                        plan.pf_starts, plan.pf_blocks, sim.config,
                        series_window=series_window)
    if recorder is not None:
        _feed_kernel_series(recorder, out["series"], len(arrays),
                            series_window)

    # -- write the kernel's counters back into the reference state ------
    l1, l2, llc, dram = sim.l1d, sim.l2, sim.llc, sim.dram
    l1.hits, l1.misses = out["l1_hits"], out["l1_misses"]
    l2.hits, l2.misses = out["l2_hits"], out["l2_misses"]
    llc.hits, llc.misses = out["llc_hits"], out["llc_misses"]
    llc.useful_prefetches = out["llc_useful"]
    llc.evicted_unused_prefetches = out["llc_evicted_unused"]
    llc.prefetch_fills = out["llc_pf_fills"]
    dram.requests = out["dram_requests"]
    dram.total_wait_cycles = out["dram_wait"]
    wait_hist = dram.wait_histogram
    if wait_hist is not None:
        observe = wait_hist.observe
        for wait in out["waits"].tolist():
            observe(wait)
    if out["pf_dropped"]:
        sim._pf_dropped.inc(out["pf_dropped"])

    result.l1d_hits = out["l1_hits"]
    result.l2_hits = out["l2_hits"]
    result.llc_hits = out["llc_hits"]
    result.llc_misses = out["llc_misses"]
    result.pf_issued = out["pf_issued"]
    result.pf_late = out["pf_late"]
    # Late prefetches count as useful here, exactly as in the reference
    # loop; the caller's epilogue adds the LLC's in-cache useful count.
    result.pf_useful = out["pf_late"]

    # ---- core.finalize -------------------------------------------------
    cycles = trace.instruction_count / sim.config.core.width
    for cursor in (out["dispatch"], out["commit"], out["drain"]):
        if cursor > cycles:
            cycles = cursor
    result.cycles = cycles
