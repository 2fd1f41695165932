"""Dynamic-priority ensemble (the paper's flagged future work, §5).

The paper's fixed-priority ensemble (PATHFINDER > NL > SISB) sometimes
trails SISB-only on temporally-dominated benchmarks because PATHFINDER
always gets first claim on the 2-slot budget.  The paper notes "it is
possible to get larger benefits with dynamic ensemble priority
policies" — this module implements one.

Each member's recent *usefulness* is tracked with a scoreboard: every
prefetch a member wins a slot for is remembered (bounded window), and
when a later demand access hits a remembered block, the owning member
is credited.  Members are re-ranked by their exponentially-decayed
hit rate, so whichever prefetcher is currently working on this phase
of this workload gets budget priority.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..types import BLOCK_BITS, MemoryAccess, Trace
from .base import Prefetcher


class AdaptiveEnsemblePrefetcher(Prefetcher):
    """Usefulness-ranked combination of prefetchers.

    Args:
        members: The member prefetchers (initial priority = given order).
        budget: Prefetch slots per access (paper: 2).
        window: How many outstanding slot-winning prefetches to remember
            per member while waiting for a demand hit.
        decay: Per-access exponential decay of each member's score, so
            priority follows the current program phase.
        credit: Score added when a member's prefetch is demanded.
    """

    name = "adaptive-ensemble"

    def __init__(self, members: Sequence[Prefetcher], budget: int = 2,
                 window: int = 512, decay: float = 0.999,
                 credit: float = 1.0):
        if not members:
            raise ConfigError("ensemble needs at least one member")
        if budget < 1 or window < 1:
            raise ConfigError("budget and window must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        self.members = list(members)
        self.budget = budget
        self.window = window
        self.decay = decay
        self.credit = credit
        self.name = "adaptive(" + "+".join(m.name for m in members) + ")"
        self.scores = [0.0] * len(self.members)
        #: block -> member index, bounded FIFO of outstanding prefetches.
        self._pending: "OrderedDict[int, int]" = OrderedDict()
        self.slots_used = [0] * len(self.members)
        self.credits = [0] * len(self.members)

    def attach_observability(self, obs) -> None:
        for member in self.members:
            member.attach_observability(obs)

    def publish_telemetry(self) -> None:
        for member in self.members:
            member.publish_telemetry()

    def train(self, trace: Trace) -> None:
        for member in self.members:
            member.train(trace)

    def _credit_hit(self, block: int) -> None:
        owner = self._pending.pop(block, None)
        if owner is not None:
            self.scores[owner] += self.credit
            self.credits[owner] += 1

    def _remember(self, block: int, owner: int) -> None:
        self._pending[block] = owner
        self._pending.move_to_end(block)
        while len(self._pending) > self.window:
            self._pending.popitem(last=False)

    def priority_order(self) -> List[int]:
        """Member indices, best current score first (stable on ties)."""
        return sorted(range(len(self.members)),
                      key=lambda i: -self.scores[i])

    def process(self, access: MemoryAccess) -> List[int]:
        # A one-access chunk.  Bound to the class so an instance-level
        # process_batch override (the base per-access loop) still ends
        # here rather than recursing.
        return AdaptiveEnsemblePrefetcher.process_batch(
            self, [access.address], [access.pc], [access.instr_id])[0]

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """Each member runs the whole chunk, then slots merge per access.

        Members share no state and never see the scoreboard, so
        running each one over the chunk first is exact; the merge then
        walks the chunk in program order: credit the demanded block,
        decay every score, and fill the budget in priority order.
        """
        # Every member observes every access so its tables stay warm.
        candidates = [member.process_batch(addresses, pcs, instr_ids)
                      for member in self.members]
        blocks = (np.asarray(addresses) >> BLOCK_BITS).tolist()
        scores = self.scores
        decay = self.decay
        merged: List[List[int]] = []
        for demand_block, per_member in zip(blocks, zip(*candidates)):
            self._credit_hit(demand_block)
            for i in range(len(scores)):
                scores[i] *= decay
            chosen: List[int] = []
            seen_blocks = set()
            for index in self.priority_order():
                for address in per_member[index]:
                    block = address >> BLOCK_BITS
                    if block in seen_blocks:
                        continue
                    if len(chosen) < self.budget:
                        chosen.append(address)
                        seen_blocks.add(block)
                        self.slots_used[index] += 1
                        self._remember(block, index)
            merged.append(chosen)
        return merged

    def reset(self) -> None:
        for member in self.members:
            member.reset()
        self.scores = [0.0] * len(self.members)
        self._pending.clear()
        self.slots_used = [0] * len(self.members)
        self.credits = [0] * len(self.members)
