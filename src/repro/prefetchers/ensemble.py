"""Fixed-priority prefetcher ensembles (paper §3.4, §5).

The paper's best design point combines PATHFINDER with Next-Line and
SISB: PATHFINDER's high-confidence predictions take priority, and the
remaining slots of the 2-per-access budget are filled by the
rule-based members.  The priority is *fixed*, which the paper notes can
leave the ensemble slightly behind SISB-only on temporally-dominated
benchmarks — a behaviour this implementation reproduces.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ConfigError
from ..types import BLOCK_BITS, MemoryAccess, Trace
from .base import Prefetcher


class EnsemblePrefetcher(Prefetcher):
    """Priority-ordered combination of prefetchers.

    Args:
        members: Prefetchers in priority order (first = highest).
        budget: Slots available per access (paper: 2).
    """

    name = "ensemble"

    def __init__(self, members: Sequence[Prefetcher], budget: int = 2):
        if not members:
            raise ConfigError("ensemble needs at least one member")
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        self.members = list(members)
        self.budget = budget
        self.name = "+".join(m.name for m in self.members)
        #: Per-member count of prefetch slots actually used.
        self.slots_used = [0] * len(self.members)

    def attach_observability(self, obs) -> None:
        for member in self.members:
            member.attach_observability(obs)

    def publish_telemetry(self) -> None:
        for member in self.members:
            member.publish_telemetry()

    def train(self, trace: Trace) -> None:
        for member in self.members:
            member.train(trace)

    def process(self, access: MemoryAccess) -> List[int]:
        # A one-access chunk.  Bound to the class so an instance-level
        # process_batch override (the base per-access loop) still ends
        # here rather than recursing.
        return EnsemblePrefetcher.process_batch(
            self, [access.address], [access.pc], [access.instr_id])[0]

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """Each member runs the whole chunk, then slots merge per access.

        Members share no state and never see the ensemble's choices,
        so running each one over the chunk before merging hands the
        per-access priority merge exactly the candidates a per-access
        interleaving would.
        """
        # Every member observes every access (their tables must stay
        # warm) even when it wins no slots.
        candidates = [member.process_batch(addresses, pcs, instr_ids)
                      for member in self.members]
        budget = self.budget
        slots_used = self.slots_used
        merged: List[List[int]] = []
        for per_member in zip(*candidates):
            chosen: List[int] = []
            seen_blocks = set()
            for index, member_candidates in enumerate(per_member):
                for address in member_candidates:
                    block = address >> BLOCK_BITS
                    if block in seen_blocks:
                        continue
                    if len(chosen) < budget:
                        chosen.append(address)
                        seen_blocks.add(block)
                        slots_used[index] += 1
            merged.append(chosen)
        return merged

    def reset(self) -> None:
        for member in self.members:
            member.reset()
        self.slots_used = [0] * len(self.members)
