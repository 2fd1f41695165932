"""Pythia (Bera et al., MICRO 2021) — RL delta prefetcher baseline.

A tabular reinforcement-learning prefetcher built the way Pythia is:
program *features* are hashed into per-feature Q-value *vaults* whose
values are summed to score each action; the *actions* are candidate
prefetch deltas (including "no prefetch"); and rewards are assigned by
an Evaluation Queue that observes whether issued prefetches were later
demanded.  Q-values are updated SARSA-style across every vault.  The
default feature set is Pythia's best-performing pair: (PC ⊕ last
delta) and the recent delta-sequence signature.

The implementation reproduces the behavioural signature the paper
reports for Pythia at the LLC: it is *aggressive* (issues on nearly
every access — highest issue counts in Table 6), its epsilon-greedy
exploration wastes some bandwidth on hard-to-predict patterns, and it
can settle into a local minimum such as always-delta-1 on xalan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import BLOCKS_PER_PAGE, MemoryAccess, compose_address
from .base import Prefetcher


def _default_actions() -> Tuple[int, ...]:
    """Pythia's delta action list (positive and negative deltas + none)."""
    return (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 8, -8, 16, -16, 32)


@dataclass(frozen=True)
class PythiaConfig:
    """RL hyper-parameters and structure sizes.

    Attributes:
        actions: Candidate prefetch deltas; 0 = no prefetch.
        alpha: SARSA learning rate.  [Pythia's hardware default is
            0.0065 over billions of accesses; scaled up for the
            shorter traces used here — the paper itself tuned
            alpha/gamma/epsilon per LLC configuration (§4.3).]
        gamma: Discount factor (Pythia default 0.55).
        epsilon: Exploration probability.
        reward_accurate: Reward for a prefetch later demanded.
        reward_inaccurate: Reward for a prefetch evicted unused.
        reward_no_prefetch: Reward for choosing not to prefetch (small
            positive: saves bandwidth when nothing is predictable).
        eq_size: Evaluation-queue capacity.
        degree: Prefetches issued per access (paper budget: 2).
        use_delta_sequence_vault: Enable the second feature vault
            (signature of the last two in-page deltas), as in Pythia's
            two-feature configuration; disabling it leaves the single
            (PC ⊕ delta) vault.
        seed: RNG seed for exploration.
    """

    actions: Tuple[int, ...] = field(default_factory=_default_actions)
    alpha: float = 0.15
    gamma: float = 0.55
    epsilon: float = 0.05
    reward_accurate: float = 20.0
    reward_inaccurate: float = -8.0
    reward_no_prefetch: float = 2.0
    eq_size: int = 256
    degree: int = 2
    use_delta_sequence_vault: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if 0 not in self.actions:
            raise ConfigError("action list must include 0 (no prefetch)")
        if len(set(self.actions)) != len(self.actions):
            raise ConfigError("action list must not repeat a delta")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if self.degree < 1 or self.eq_size < 1:
            raise ConfigError("degree and eq_size must be >= 1")


class _EQEntry:
    """A pending prefetch awaiting its reward."""

    __slots__ = ("state", "action", "block", "resolved")

    def __init__(self, state: Tuple[int, ...], action: int, block: int):
        self.state = state
        self.action = action  # index into the config's action list
        self.block = block
        self.resolved = False


class PythiaPrefetcher(Prefetcher):
    """Tabular SARSA delta prefetcher with an evaluation queue."""

    name = "pythia"

    def __init__(self, config: Optional[PythiaConfig] = None):
        self.config = config or PythiaConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # One Q-table ("vault") per program feature, each mapping a
        # feature to its row of Q-values (one per action, in action-list
        # order); action values are summed across vaults, exactly as
        # Pythia's QVStore does.
        self._vaults: List[Dict[int, List[float]]] = [{}]
        if self.config.use_delta_sequence_vault:
            self._vaults.append({})
        self._zero_row = [0.0] * len(self.config.actions)
        self._no_prefetch = self.config.actions.index(0)
        self._eq: Deque[_EQEntry] = deque()
        self._eq_by_block: Dict[int, List[_EQEntry]] = {}
        # page -> last offset (for delta features)
        self._last_offset: Dict[int, int] = {}
        self._last_delta: Dict[int, int] = {}
        self._prev_delta: Dict[int, int] = {}
        self.rewards_assigned = 0

    # -- feature / Q helpers ---------------------------------------------------

    def _features_of(self, pc: int, last_delta: int,
                     prev_delta: int) -> Tuple[int, ...]:
        """One hashed feature index per vault."""
        pc_delta = ((pc & 0xFFF) << 7) ^ (last_delta & 0x7F)
        if not self.config.use_delta_sequence_vault:
            return (pc_delta,)
        sequence = ((last_delta & 0x7F) << 7) ^ (prev_delta & 0x7F)
        return (pc_delta, sequence)

    def _q_row(self, state: Tuple[int, ...]) -> List[float]:
        """Q-value of every action (action-list order), summed across
        vaults; an unseen feature contributes 0.0."""
        zero = self._zero_row
        rows = [vault.get(feature, zero)
                for vault, feature in zip(self._vaults, state)]
        return [sum(values) for values in zip(*rows)]

    def _update(self, state: Tuple[int, ...], action: int, reward: float,
                next_state: Optional[Tuple[int, ...]]) -> None:
        """SARSA step for action index ``action`` in ``state``."""
        cfg = self.config
        zero = self._zero_row
        old = sum(vault.get(feature, zero)[action]
                  for vault, feature in zip(self._vaults, state))
        bootstrap = (cfg.gamma * max(self._q_row(next_state))
                     if next_state is not None else 0.0)
        step = cfg.alpha * (reward + bootstrap - old) / len(self._vaults)
        for vault, feature in zip(self._vaults, state):
            row = vault.get(feature)
            if row is None:
                row = vault[feature] = list(zero)
            row[action] = row[action] + step
        self.rewards_assigned += 1

    # -- evaluation queue ---------------------------------------------------

    def _enqueue(self, entry: _EQEntry) -> None:
        self._eq.append(entry)
        self._eq_by_block.setdefault(entry.block, []).append(entry)
        while len(self._eq) > self.config.eq_size:
            evicted = self._eq.popleft()
            bucket = self._eq_by_block.get(evicted.block)
            if bucket and evicted in bucket:
                bucket.remove(evicted)
                if not bucket:
                    del self._eq_by_block[evicted.block]
            if not evicted.resolved:
                self._update(evicted.state, evicted.action,
                             self.config.reward_inaccurate, None)

    def _resolve_hits(self, block: int,
                      next_state: Tuple[int, ...]) -> None:
        for entry in self._eq_by_block.pop(block, []):
            if not entry.resolved:
                entry.resolved = True
                self._update(entry.state, entry.action,
                             self.config.reward_accurate, next_state)

    # -- per-access -----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        page, offset = access.page, access.offset
        previous_offset = self._last_offset.get(page)
        delta = 0
        if previous_offset is not None:
            delta = offset - previous_offset
        self._last_offset[page] = offset
        last_delta = self._last_delta.get(page, 0)
        prev_delta = self._prev_delta.get(page, 0)
        if delta != 0:
            self._prev_delta[page] = last_delta
            self._last_delta[page] = delta

        state = self._features_of(access.pc,
                                  delta if delta != 0 else last_delta,
                                  prev_delta)
        self._resolve_hits(access.block, state)

        # Epsilon-greedy multi-action selection, best Q first (a stable
        # sort: ties keep action-list order).
        actions = cfg.actions
        if self._rng.random() < cfg.epsilon:
            chosen = [actions.index(int(action)) for action in
                      self._rng.choice(actions, size=cfg.degree,
                                       replace=False)]
        else:
            qs = self._q_row(state)
            chosen = sorted(range(len(actions)), key=qs.__getitem__,
                            reverse=True)[:cfg.degree]

        addresses: List[int] = []
        for action in chosen:
            if action == self._no_prefetch:
                self._update(state, action, cfg.reward_no_prefetch, None)
                continue
            target = offset + actions[action]
            if not 0 <= target < BLOCKS_PER_PAGE:
                continue
            address = compose_address(page, target)
            self._enqueue(_EQEntry(state, action, address >> 6))
            addresses.append(address)
        return addresses

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.config.seed)
        for vault in self._vaults:
            vault.clear()
        self._eq.clear()
        self._eq_by_block.clear()
        self._last_offset.clear()
        self._last_delta.clear()
        self._prev_delta.clear()
        self.rewards_assigned = 0
