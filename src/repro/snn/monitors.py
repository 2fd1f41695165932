"""Recording utilities, mirroring BindsNet's monitor classes.

The paper used BindsNet monitors to observe run-time neuron behaviour
(Table 2 / Figure 3).  These helpers collect the same series across
multiple input intervals.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .network import RunRecord


class SpikeMonitor:
    """Accumulates per-interval spike counts and winners."""

    def __init__(self) -> None:
        self.spike_counts: List[np.ndarray] = []
        self.winners: List[Optional[int]] = []
        self.first_spike_ticks: List[Optional[int]] = []

    def record(self, record: RunRecord) -> None:
        """Append one interval's observations."""
        self.spike_counts.append(record.spike_counts.copy())
        self.winners.append(record.winner)
        self.first_spike_ticks.append(record.first_spike_tick)

    def record_one_tick(self, winners: Sequence[int], n_neurons: int) -> None:
        """Append one-tick intervals known only by their winners.

        A one-tick :class:`RunRecord` is fully described by its
        winner: a one-hot spike count and a first spike at tick 0.
        """
        for winner in winners:
            counts = np.zeros(n_neurons, dtype=int)
            counts[winner] = 1
            self.spike_counts.append(counts)
            self.winners.append(winner)
            self.first_spike_ticks.append(0)

    @property
    def intervals(self) -> int:
        """Number of recorded intervals."""
        return len(self.winners)

    def total_spikes(self) -> np.ndarray:
        """Per-neuron spike totals across all recorded intervals."""
        if not self.spike_counts:
            return np.zeros(0, dtype=int)
        return np.sum(self.spike_counts, axis=0)


class VoltageMonitor:
    """Accumulates per-tick excitatory potentials across intervals."""

    def __init__(self) -> None:
        self._traces: List[np.ndarray] = []

    def record(self, record: RunRecord) -> None:
        """Append one interval's voltage trace (requires
        ``present(..., record_voltage=True)``)."""
        if record.voltage_trace is not None:
            self._traces.append(record.voltage_trace)

    def trace(self) -> np.ndarray:
        """Concatenated (total_ticks, n_neurons) potential series."""
        if not self._traces:
            return np.zeros((0, 0))
        return np.concatenate(self._traces, axis=0)
