"""Columnar replay planner for the batch engine.

``engine="batch"`` splits each replay into a *plan* (derived once from
the trace columns and the prefetch file, no simulator state involved)
and an *execution* (the compiled kernel or the reference loop).  The plan
captures three things:

1. **Eligibility** — whether the compiled kernel's preconditions hold.
   The kernel assumes strictly increasing instruction ids (its ROB is
   a ring buffer), non-negative block numbers (C ``%`` differs from
   Python's on negatives), and ids small enough that every derived
   cycle count stays well inside the 2^53 window where ``double``
   holds integers exactly.  Ineligible plans run on the reference loop —
   slower, never wrong.

2. **Trigger alignment** — the per-access prefetch lists flattened to
   CSR form (``pf_starts``/``pf_blocks``): one searchsorted pass maps
   ``by_trigger`` keys onto trace positions, and triggers naming no
   trace instruction are dropped, exactly like the dict probe they
   replace.  The flat arrays are what the C kernel walks.

3. **Window segmentation** — the replay partitioned at prefetch
   trigger points.  A *free* window can never observe prefetch state:
   either the replay has no triggers at all (the prefetch-free
   baseline: one free window spanning the whole trace) or the window
   ends before the first trigger fires.  Every window from the first
   trigger onward is *coupled*: a fill from an earlier trigger may
   land on any access in it (including exactly on its first access —
   the window boundary), so classification and timing stay
   sequential there.  The invariants, enforced by construction and
   pinned by tests:

   - windows tile ``[0, n)`` exactly, in order, without overlap;
   - a coupled window starts at a trigger access, and triggers only
     ever start windows;
   - free windows carry no CSR entries and precede every coupled one.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ...types import TraceArrays

#: Instruction ids above this bound fall back to the reference loop: the
#: kernel mixes cycle integers into ``double`` arithmetic, and keeping
#: ids (and therefore every derived dispatch/completion value for any
#: realistic trace) far below 2^53 makes that mixing exact.
MAX_KERNEL_INSTR_ID = 1 << 44


class Window(NamedTuple):
    """One planned replay span ``[start, stop)``."""

    start: int
    stop: int
    #: ``"free"`` — no prefetch interaction can occur inside;
    #: ``"coupled"`` — begins at a trigger, fills may land anywhere.
    kind: str


class ReplayPlan(NamedTuple):
    """Everything the batch driver needs to execute one replay."""

    n: int
    #: Whether the compiled kernel may run this plan.
    kernel_eligible: bool
    #: Human-readable reason when ``kernel_eligible`` is false.
    fallback_reason: Optional[str]
    #: CSR prefetch alignment: ``pf_blocks[pf_starts[i]:pf_starts[i+1]]``
    #: are the blocks access ``i`` triggers (empty arrays when the
    #: replay is prefetch-free or the plan is ineligible).
    pf_starts: np.ndarray
    pf_blocks: np.ndarray
    #: Sorted unique trace positions of trigger accesses — the window
    #: boundaries.  Kept as a column; densely-triggered replays
    #: (nextline triggers on every access) would otherwise spend more
    #: time building window tuples than replaying.
    trigger_positions: np.ndarray

    def windows(self) -> List[Window]:
        """The window tiling of ``[0, n)``, materialized on demand."""
        if not self.kernel_eligible and self.n > 0:
            # Unplannable replays run the reference loop end to end: one
            # coupled window, timing sequential throughout.
            return [Window(0, self.n, "coupled")]
        return segment_windows(self.n, self.trigger_positions)

    @property
    def free_accesses(self) -> int:
        """Accesses inside interaction-free windows."""
        if not self.kernel_eligible:
            return 0
        if len(self.trigger_positions) == 0:
            return self.n
        return int(self.trigger_positions[0])


def segment_windows(n: int, trigger_positions: np.ndarray) -> List[Window]:
    """Tile ``[0, n)`` into free/coupled windows at trigger boundaries.

    ``trigger_positions`` must be sorted unique trace indices of
    accesses that issue at least one prefetch.
    """
    if n == 0:
        return []
    if len(trigger_positions) == 0:
        return [Window(0, n, "free")]
    windows: List[Window] = []
    first = int(trigger_positions[0])
    if first > 0:
        windows.append(Window(0, first, "free"))
    bounds = trigger_positions.tolist() + [n]
    for start, stop in zip(bounds, bounds[1:]):
        windows.append(Window(int(start), int(stop), "coupled"))
    return windows


def align_triggers(arrays: TraceArrays,
                   by_trigger: Dict[int, List[int]],
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``by_trigger`` into CSR arrays over trace positions.

    Returns ``(pf_starts, pf_blocks, trigger_positions)``.  Requires
    monotone instruction ids (positions are then unique); triggers
    naming no trace instruction are dropped.
    """
    n = len(arrays)
    pf_starts = np.zeros(n + 1, dtype=np.int64)
    if not by_trigger or n == 0:
        return pf_starts, np.empty(0, dtype=np.int64), pf_starts[:0]
    ids = arrays.instr_ids
    keys = np.fromiter(by_trigger.keys(), dtype=np.int64,
                       count=len(by_trigger))
    pos = np.minimum(np.searchsorted(ids, keys), np.int64(n - 1))
    hit_idx = np.nonzero(ids[pos] == keys)[0]
    # Monotone ids make hit positions unique, so sorting the surviving
    # keys by position gives the CSR fill order in one pass.
    order = hit_idx[np.argsort(pos[hit_idx], kind="stable")]
    trigger_positions = pos[order]
    counts = np.zeros(n + 1, dtype=np.int64)
    flat: List[int] = []
    extend = flat.extend
    keys_l = keys.tolist()
    pos_l = pos.tolist()
    for idx in order.tolist():
        blocks = by_trigger[keys_l[idx]]
        counts[pos_l[idx] + 1] = len(blocks)
        extend(blocks)
    np.cumsum(counts, out=pf_starts)
    pf_blocks = np.asarray(flat, dtype=np.int64)
    return pf_starts, pf_blocks, trigger_positions


def plan_replay(arrays: TraceArrays,
                by_trigger: Dict[int, List[int]]) -> ReplayPlan:
    """Build the :class:`ReplayPlan` for one replay.

    Pure function of the trace columns and the prefetch alignment;
    the cold-cache and kernel-availability checks stay with the
    driver, which can see the simulator.
    """
    n = len(arrays)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return ReplayPlan(0, True, None, np.zeros(1, dtype=np.int64),
                          empty, empty)
    if not arrays.monotone():
        return ReplayPlan(n, False, "non-monotone instruction ids",
                          np.zeros(n + 1, dtype=np.int64), empty, empty)
    if int(arrays.instr_ids[-1]) > MAX_KERNEL_INSTR_ID:
        return ReplayPlan(n, False, "instruction ids exceed kernel bound",
                          np.zeros(n + 1, dtype=np.int64), empty, empty)
    if int(arrays.blocks.min()) < 0:
        return ReplayPlan(n, False, "negative block numbers",
                          np.zeros(n + 1, dtype=np.int64), empty, empty)
    pf_starts, pf_blocks, trigger_positions = align_triggers(
        arrays, by_trigger)
    return ReplayPlan(n, True, None, pf_starts, pf_blocks,
                      trigger_positions)
