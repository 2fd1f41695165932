"""The PATHFINDER prefetcher (paper §3).

Per demand load, PATHFINDER:

1. looks up the (pc, page) stream in the Training Table and computes
   the new within-page delta;
2. reconciles the previously fired neuron's labels against that delta
   in the Inference Table (label learning + confidence update, §3.3);
3. encodes the updated delta history as a Memory Access Pixel Matrix
   and queries the SNN (full multi-tick interval or the 1-tick
   approximation), with STDP learning continuously on — or gated by
   the periodic-STDP policy of Figure 8;
4. records the firing neuron in the Training Table for the next
   reconciliation;
5. issues up to ``degree`` prefetches from the firing neurons' labels
   whose confidence clears the threshold.

The steps run chunk-wise in the three passes of
:meth:`PathfinderPrefetcher.process_batch`;
:meth:`~PathfinderPrefetcher.process` is its one-access call.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EngineFallbackWarning
from ..prefetchers.base import Prefetcher
from ..snn.monitors import SpikeMonitor
from ..snn.network import (DiehlCookNetwork, NetworkConfig, RunRecord,
                           load_tick_kernel)
from ..snn.neurons import LIFConfig
from ..snn.stdp import STDPConfig
from ..types import (
    BLOCK_BITS,
    BLOCKS_PER_PAGE,
    PAGE_BITS,
    MemoryAccess,
)
from .config import PathfinderConfig
from .inference_table import InferenceTable
from .pixel import PixelMatrixEncoder, SparseEncoding
from .training_table import TrainingEntry, TrainingTable


class PathfinderPrefetcher(Prefetcher):
    """SNN/STDP online-learning delta prefetcher."""

    name = "pathfinder"

    def __init__(self, config: Optional[PathfinderConfig] = None):
        self.config = config or PathfinderConfig()
        self.encoder = PixelMatrixEncoder(self.config)
        self.network = self._build_network()
        self.training_table = TrainingTable(
            capacity=self.config.training_table_size,
            history=self.config.history)
        self.inference_table = InferenceTable(
            n_neurons=self.config.n_neurons,
            labels_per_neuron=self.config.labels_per_neuron,
            confidence_max=self.config.confidence_max,
            confidence_init=self.config.confidence_init,
            require_confirmation=self.config.require_confirmation)
        self.accesses_seen = 0
        self.snn_queries = 0
        self.stdp_updates = 0
        self.prefetches_emitted = 0
        # Neurons reinitialised by the SNN's weight-health check; their
        # inference-table labels are erased alongside (resilience).
        self.neuron_repairs = 0
        # Table 1 instrumentation (full-interval mode only): how often
        # the highest-potential neuron after the first tick matches the
        # interval's most-firing neuron.
        self.first_tick_matches = 0
        self.first_tick_total = 0
        # How pass 2 ran the SNN queries: ``"used"`` (the compiled
        # window kernel) or ``"fallback:<reason>"``; ``None`` before
        # the first query.
        self.snn_kernel: Optional[str] = None
        # Armed by attach_observability(): the SpikeMonitor bridge that
        # feeds SNN telemetry into the metrics registry.
        self.monitor: Optional[SpikeMonitor] = None
        self._obs = None
        # Armed by series_arm() (``--series``): windowed
        # learning-dynamics bookkeeping, counted at existing decision
        # points of the pipeline.
        self._series_armed = False
        self._series_pred_checked = 0
        self._series_pred_correct = 0
        self._series_winner_counts: Dict[int, int] = {}
        self._series_prev_weights: Optional[np.ndarray] = None
        self._series_prev_theta: Optional[np.ndarray] = None

    def _build_network(self) -> DiehlCookNetwork:
        cfg = self.config
        net_cfg = NetworkConfig(
            n_input=cfg.n_input,
            n_neurons=cfg.n_neurons,
            timesteps=cfg.timesteps,
            inhibition_scale=cfg.inhibition_scale,
            init_density=cfg.init_density,
            seed=cfg.seed)
        stdp = STDPConfig(
            nu_post=cfg.nu_post,
            x_target=cfg.x_target,
            w_max=cfg.w_max,
            norm=cfg.norm)
        lif = LIFConfig(
            theta_plus=cfg.theta_plus,
            theta_max=cfg.theta_max,
            tc_theta_decay=cfg.tc_theta_decay)
        return DiehlCookNetwork(net_cfg, stdp=stdp, exc_lif=lif,
                                fast=cfg.fast_snn)

    # -- observability -------------------------------------------------------

    def attach_observability(self, obs) -> None:
        """Arm SNN telemetry collection for this run.

        When the bundle is enabled, every SNN query's
        :class:`~repro.snn.network.RunRecord` is recorded into a
        :class:`~repro.snn.monitors.SpikeMonitor` (the paper's own
        observation mechanism, Table 2 / Figure 3) rather than a
        parallel bookkeeping structure; :meth:`publish_telemetry`
        summarises it into the registry afterwards.
        """
        if obs is None or not obs.enabled:
            self._obs = None
            return
        self._obs = obs
        if self.monitor is None:
            self.monitor = SpikeMonitor()

    @property
    def weight_saturation(self) -> float:
        """Fraction of plastic weights within 1% of ``w_max``."""
        w = self.network.weights
        if w.size == 0:
            return 0.0
        return float(np.mean(w >= 0.99 * self.config.w_max))

    def publish_telemetry(self) -> None:
        """Summarise the attached monitor into the metrics registry."""
        if self._obs is None or self.monitor is None:
            return
        scope = self._obs.registry.scope(component="snn",
                                         prefetcher=self.name)
        scope.counter("snn.queries").inc(self.snn_queries)
        scope.counter("snn.stdp_updates").inc(self.stdp_updates)
        spikes_per_interval = scope.histogram(
            "snn.spikes_per_interval",
            bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128))
        for counts in self.monitor.spike_counts:
            spikes_per_interval.observe(int(counts.sum()))
        total_spikes = int(self.monitor.total_spikes().sum())
        scope.counter("snn.spikes").inc(total_spikes)
        scope.gauge("snn.weight_saturation").set(self.weight_saturation)
        scope.gauge("snn.intervals").set(self.monitor.intervals)
        scope.counter("snn.encoder_cache_hits").inc(self.encoder.cache_hits)
        scope.counter("snn.encoder_cache_misses").inc(
            self.encoder.cache_misses)
        if self.neuron_repairs:
            scope.counter("snn.neuron_repairs").inc(self.neuron_repairs)
            self._obs.tracer.emit(
                "snn.neuron_repaired", prefetcher=self.name,
                repairs=self.neuron_repairs)
        self._obs.tracer.emit(
            "snn.summary", prefetcher=self.name, queries=self.snn_queries,
            stdp_updates=self.stdp_updates, spikes=total_spikes,
            intervals=self.monitor.intervals,
            weight_saturation=self.weight_saturation,
            encoder_cache_hits=self.encoder.cache_hits,
            encoder_cache_misses=self.encoder.cache_misses)

    def series_arm(self) -> None:
        """Start windowed learning-dynamics bookkeeping (``--series``).

        Captures baseline weight/theta snapshots so the first window's
        drift norms measure change from the initial model, and resets
        the per-window prediction/winner tallies.
        """
        self._series_armed = True
        self._series_pred_checked = 0
        self._series_pred_correct = 0
        self._series_winner_counts = {}
        self._series_prev_weights = self.network.weights.copy()
        self._series_prev_theta = self.network.exc.theta.copy()

    def series_sample(self, cumulative, gauges) -> None:
        """Contribute PATHFINDER's windowed series at a boundary.

        Cumulative counters (diffed into per-window sums by the
        recorder): prediction checks/hits, SNN queries and STDP
        updates, table eviction/label churn.  Gauges: weight/theta
        drift L2 norms since the previous boundary, the window's
        winner-selection entropy (bits), and table occupancies.
        """
        if not self._series_armed:
            return
        cumulative["gen.pred_checked"] = self._series_pred_checked
        cumulative["gen.pred_correct"] = self._series_pred_correct
        cumulative["snn.queries"] = self.snn_queries
        cumulative["snn.stdp_updates"] = self.stdp_updates
        cumulative["table.training_evictions"] = self.training_table.evictions
        it = self.inference_table
        cumulative["table.labels_assigned"] = it.labels_assigned
        cumulative["table.labels_erased"] = it.labels_erased
        w = self.network.weights
        gauges["snn.weight_drift"] = float(
            np.linalg.norm(w - self._series_prev_weights))
        self._series_prev_weights = w.copy()
        theta = self.network.exc.theta
        gauges["snn.theta_drift"] = float(
            np.linalg.norm(theta - self._series_prev_theta))
        self._series_prev_theta = theta.copy()
        counts = self._series_winner_counts
        total = sum(counts.values())
        entropy = 0.0
        if total:
            for count in counts.values():
                p = count / total
                entropy -= p * math.log2(p)
            counts.clear()
        gauges["snn.winner_entropy"] = entropy
        gauges["table.training_occupancy"] = float(
            len(self.training_table._rows))
        gauges["table.inference_occupancy"] = float(it.occupancy())

    # -- periodic STDP gating (paper Figure 8) ------------------------------

    def _learning_enabled(self) -> bool:
        epoch = self.config.stdp_epoch
        if epoch is None:
            return True
        return (self.accesses_seen % epoch) < self.config.stdp_on_accesses

    # -- the generation pipeline ---------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        # A one-access chunk.  Bound to the class so an instance-level
        # process_batch override (the base per-access loop) still ends
        # here rather than recursing.
        return PathfinderPrefetcher.process_batch(
            self, [access.address], [access.pc], [access.instr_id])[0]

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """PATHFINDER's per-access work over a trace chunk.

        Three passes (docs/architecture.md, "Batched columnar
        pipeline"):

        1. :meth:`_table_pass` — vectorized page/offset math, then a
           tight sequential walk doing the Training-Table bookkeeping
           and pixel-encoder lookups, queueing one *op* per
           Inference-Table interaction.  SNN winners for queries
           inside the chunk are not known yet, so an observe against a
           not-yet-run query records a placeholder token resolved in
           pass 3.
        2. :meth:`_snn_pass` — every queued query runs through the SNN
           in program order: the compiled window kernel when it
           applies, one query at a time otherwise.
        3. :meth:`_predict_pass` — replays the queued ops in program
           order against the Inference Table: weight-repair label
           resets, observes, winner recording, prediction lookup and
           prefetch-address composition.

        Every state update (STDP/theta in pass 2, table mutations in
        passes 1 and 3) happens in program order, so every chunk size
        — one access included — yields the same prefetch file; the
        parity suite pins it against the dense reference SNN and
        golden digests.
        """
        ops, encodings, learns = self._table_pass(addresses, pcs)
        winners, ranked, repairs = self._snn_pass(encodings, learns)
        return self._predict_pass(len(addresses), ops, winners, ranked,
                                  repairs)

    def _table_pass(self, addresses, pcs):
        """Pass 1: tables and encoding; returns ``(ops, encodings, learns)``.

        ``ops`` preserves program order: ``(access_idx, entry,
        query_idx, offset, page)`` queries and ``(fired, delta)``
        observes.  A negative ``fired`` is a placeholder for the winner
        of this chunk's query ``-fired - 1``.
        """
        cfg = self.config
        addresses = np.asarray(addresses)
        n = len(addresses)
        pages_l = (addresses >> PAGE_BITS).tolist()
        offsets_l = ((addresses >> BLOCK_BITS)
                     & (BLOCKS_PER_PAGE - 1)).tolist()
        pcs_l = np.asarray(pcs).tolist()

        tt = self.training_table
        rows = tt._rows
        rows_get = rows.get
        move_end = rows.move_to_end
        capacity = tt.capacity
        history = tt.history
        bound = cfg.max_delta
        cold_pages = cfg.cold_page_encoding
        epoch = cfg.stdp_epoch
        on_accesses = cfg.stdp_on_accesses
        encode_key = self.encoder.encode_padded_key
        enc_cache_get = self.encoder._cache.get
        enc_cache_move = self.encoder._cache.move_to_end
        enc_hits = 0
        clip = self.encoder._clip
        zero_pads = tuple((0,) * k for k in range(history))
        seen = self.accesses_seen
        armed = self._series_armed

        ops: List[tuple] = []
        encodings: List[SparseEncoding] = []
        learns: List[bool] = []
        for i in range(n):
            seen += 1
            page = pages_l[i]
            offset = offsets_l[i]
            key = (pcs_l[i], page)
            entry = rows_get(key)
            if entry is None:
                if len(rows) >= capacity:
                    rows.popitem(last=False)
                    tt.evictions += 1
                entry = TrainingEntry(last_offset=offset,
                                      deltas=deque(maxlen=history))
                rows[key] = entry
                if not cold_pages:
                    entry.fired_neuron = None
                    continue
                padded = (clip(offset),) + zero_pads[history - 1]
            else:
                move_end(key)
                delta = offset - entry.last_offset
                entry.last_offset = offset
                if delta == 0:
                    # Repeat access to the same block: nothing to learn.
                    continue
                if not -bound <= delta <= bound:
                    entry.deltas.clear()
                    entry.fired_neuron = None
                    continue
                fired = entry.fired_neuron
                if fired is not None:
                    # Armed series runs carry the entry so pass 3 can
                    # check ``delta in entry.predicted`` in program
                    # order, right before the observe.
                    ops.append((fired, delta, entry) if armed
                               else (fired, delta))
                d = entry.deltas
                d.append(delta)
                pad = len(d)
                if pad >= history:
                    padded = tuple(d)
                elif not cold_pages:
                    entry.fired_neuron = None
                    continue
                else:
                    padded = zero_pads[history - pad] + tuple(d)
            encoding = enc_cache_get(padded)
            if encoding is None:
                encoding = encode_key(padded)
            else:
                enc_cache_move(padded)
                enc_hits += 1
            qidx = len(encodings)
            encodings.append(encoding)
            learns.append(True if epoch is None
                          else (seen % epoch) < on_accesses)
            entry.fired_neuron = -qidx - 1
            ops.append((i, entry, qidx, offset, page))
        self.accesses_seen = seen
        self.encoder.cache_hits += enc_hits
        return ops, encodings, learns

    def _snn_pass(self, encodings: List[SparseEncoding],
                  learns: List[bool]):
        """Pass 2: run the queued SNN queries in program order.

        Returns ``(winners, ranked, repairs)``: each query's winner
        (``None`` for a silent multi-tick interval); for queries where
        several neurons fired (multi-tick, ``degree > 1``) their
        :meth:`RunRecord.winners` ranking; and the neurons each
        query's weight-health check repaired.

        The compiled window kernel runs the window whenever
        :meth:`_window_kernel` hands one out.  Otherwise — and for the
        rest of the window if the kernel hands back on a non-finite
        health scan — this is the one per-query loop, each query going
        through :meth:`_run_network`.
        """
        ranked: Dict[int, List[int]] = {}
        repairs: Dict[int, Tuple[int, ...]] = {}
        n = len(encodings)
        if not n:
            return [], ranked, repairs
        net = self.network
        winners: List[Optional[int]] = []
        kernel = self._window_kernel()
        if kernel is not None:
            winners = net.present_one_tick_window(
                kernel, [encoding.active for encoding in encodings],
                learns)
            done = len(winners)
            self.stdp_updates += sum(learns[:done])
            if self.monitor is not None:
                self.monitor.record_one_tick(winners, net.config.n_neurons)
            repaired = net.drain_repaired_neurons()
            if repaired:
                repairs[done - 1] = repaired
        degree = self.config.degree
        for q in range(len(winners), n):
            record = self._run_network(encodings[q], learns[q])
            winners.append(record.winner)
            if degree > 1 and record.winner is not None:
                neurons = record.winners(degree)
                if len(neurons) > 1:
                    ranked[q] = neurons
            repaired = net.drain_repaired_neurons()
            if repaired:
                repairs[q] = repaired
        self.snn_queries += n
        return winners, ranked, repairs

    def _predict_pass(self, n: int, ops: List[tuple],
                      winners: List[Optional[int]],
                      ranked: Dict[int, List[int]],
                      repairs: Dict[int, Tuple[int, ...]]
                      ) -> List[List[int]]:
        """Pass 3: replay table interactions in program order.

        Observe ops are 2- or 3-tuples, query ops 5-tuples.  A query
        first erases the labels of the neurons its interval repaired
        (their labels were learned by weights that no longer exist),
        then records its winner and predicts: the ranking of
        :meth:`InferenceTable.predict` is inlined for the winner (same
        stable two-slot comparison), then threshold filter, dedup and
        degree cut.
        """
        cfg = self.config
        it = self.inference_table
        observe = it.observe
        predict = it.predict
        slots_all = it._slots
        threshold = cfg.confidence_threshold
        degree = cfg.degree
        armed = self._series_armed
        results: List[Optional[List[int]]] = [None] * n
        emitted = 0
        pred_checked = pred_correct = 0
        winner_counts = self._series_winner_counts
        for op in ops:
            if len(op) < 5:
                fired = op[0]
                if fired < 0:
                    fired = winners[-fired - 1]
                    if fired is None:
                        # That query's interval stayed silent: there
                        # is no neuron to reconcile.
                        continue
                delta = op[1]
                if len(op) == 3:
                    predicted = op[2].predicted
                    if predicted:
                        pred_checked += 1
                        if delta in predicted:
                            pred_correct += 1
                observe(fired, delta)
                continue
            i, entry, qidx, offset, page = op
            if repairs and qidx in repairs:
                for neuron in repairs[qidx]:
                    it.reset_neuron(neuron)
                    self.neuron_repairs += 1
            winner = winners[qidx]
            # Only resolve the placeholder if a later access didn't
            # already clear or re-query this stream.
            if entry.fired_neuron == -qidx - 1:
                entry.fired_neuron = winner
            if winner is None:
                continue
            if armed:
                winner_counts[winner] = winner_counts.get(winner, 0) + 1
            predictions: List[int] = []
            if ranked and qidx in ranked:
                # Several neurons fired (multi-tick, degree > 1): each
                # one's labels in turn, most spikes first.
                for label in [label for neuron in ranked[qidx]
                              for label in predict(neuron, threshold)]:
                    if label not in predictions:
                        predictions.append(label)
                        if len(predictions) >= degree:
                            break
            else:
                slots = slots_all[winner]
                if len(slots) == 2:
                    if slots[1].confidence > slots[0].confidence:
                        slots = (slots[1], slots[0])
                elif len(slots) > 2:
                    slots = sorted(slots, key=lambda s: -s.confidence)
                for slot in slots:
                    if slot.confidence >= threshold:
                        label = slot.label
                        if label not in predictions:
                            predictions.append(label)
                        if len(predictions) >= degree:
                            break
            entry.predicted = tuple(predictions)
            if predictions:
                addrs: List[int] = []
                page_base = page << PAGE_BITS
                for label in predictions:
                    target = offset + label
                    if 0 <= target < BLOCKS_PER_PAGE:
                        addrs.append(page_base
                                     | (target << BLOCK_BITS))
                emitted += len(addrs)
                results[i] = addrs
        self.prefetches_emitted += emitted
        if armed:
            self._series_pred_checked += pred_checked
            self._series_pred_correct += pred_correct
        return [r if r is not None else [] for r in results]

    def _window_kernel(self):
        """The compiled window kernel for pass 2, or ``None``.

        The kernel implements only the fast one-tick query, and the
        per-query fault hook does not fire inside it.  Any other case
        takes the per-query loop, and never silently: the reason lands
        in :attr:`snn_kernel` and is announced once per run with an
        :class:`~repro.errors.EngineFallbackWarning`.
        """
        from ..resilience import faults

        cfg = self.config
        kernel = None
        if not cfg.one_tick:
            reason = "multi-tick config"
        elif not cfg.fast_snn:
            reason = "fast_snn off"
        elif faults.ACTIVE is not None:
            reason = "fault plan armed"
        else:
            kernel = load_tick_kernel()
            reason = None if kernel is not None else "no SNN kernel"
        if reason is None:
            if self.snn_kernel is None:
                self.snn_kernel = "used"
        elif self.snn_kernel != "fallback:" + reason:
            self.snn_kernel = "fallback:" + reason
            warnings.warn(EngineFallbackWarning(
                f"PATHFINDER SNN queries run one at a time ({reason}); "
                "the compiled window kernel is not used"), stacklevel=2)
        return kernel

    def _run_network(self, encoding: SparseEncoding,
                     learn: bool) -> RunRecord:
        """One SNN query of pass 2's per-query loop."""
        if learn:
            self.stdp_updates += 1
        if self.config.one_tick:
            # The encoder only emits full-intensity pixels, so the
            # binary-rates fast path applies.
            record = self.network.present_one_tick(
                encoding.rates, learn=learn, active=encoding.active,
                binary=True)
        else:
            record = self.network.present(encoding.rates, learn=learn)
            if record.winner is not None:
                # Table 1 statistic: would the 1-tick rule (highest
                # potential after the first tick, normalised by each
                # neuron's effective threshold distance) have picked
                # the interval's winner?
                self.first_tick_total += 1
                exc = self.network.exc
                rise = record.potentials_first_tick - exc.config.rest
                gap = exc.config.threshold_gap + exc.theta
                first_tick_winner = int(
                    np.argmax(rise / np.maximum(gap, 1e-9)))
                # Count a match when the tick-1 leader is any of the
                # interval's most-firing neurons (co-specialised
                # neurons legitimately tie on spike counts).
                best_count = record.spike_counts.max()
                if record.spike_counts[first_tick_winner] == best_count:
                    self.first_tick_matches += 1
        if self.monitor is not None:
            self.monitor.record(record)
        return record

    def reset(self) -> None:
        """Clear all run-time state, re-seeding the SNN identically.

        The encoder's memo table survives (encodings are a pure
        function of the config) but its hit/miss counters restart so
        per-run telemetry stays comparable.
        """
        self.encoder.cache_hits = 0
        self.encoder.cache_misses = 0
        self.network = self._build_network()
        self.training_table = TrainingTable(
            capacity=self.config.training_table_size,
            history=self.config.history)
        self.inference_table.reset()
        self.accesses_seen = 0
        self.snn_queries = 0
        self.stdp_updates = 0
        self.prefetches_emitted = 0
        self.neuron_repairs = 0
        self.first_tick_matches = 0
        self.first_tick_total = 0
        self.snn_kernel = None
        self._series_armed = False
        self._series_pred_checked = 0
        self._series_pred_correct = 0
        self._series_winner_counts = {}
        self._series_prev_weights = None
        self._series_prev_theta = None
        if self.monitor is not None:
            self.monitor = SpikeMonitor()
