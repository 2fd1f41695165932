"""Two-phase trace replay: demand loads + a precomputed prefetch file.

This mirrors the ML-DPC ChampSim fork's flow (paper §4.1): prefetchers
run offline over the load trace to emit ``PrefetchRequest`` records;
the simulator then replays the trace, injecting each prefetch into the
LLC when its triggering instruction dispatches.  Prefetching is
memory→LLC only, exactly as in the competition setting.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError, EngineFallbackWarning, SimulationError
from ..obs import Counter, Observability
from ..types import PrefetchRequest, Trace
from .cache import CacheConfig, SetAssociativeCache
from .cpu import CoreConfig, TimingCore
from .dram import DramConfig, DramModel
from .fast_engine import REPLAY_QUEUE_GAUGE, REPLAY_SERIES_NAMES, replay_batch
from .metrics import SimResult

#: Replay engines accepted by :class:`Simulator` and :func:`simulate`.
ENGINES = ("batch", "reference")


@dataclass(frozen=True)
class HierarchyConfig:
    """The full memory-hierarchy configuration (paper Table 3 defaults).

    Attributes:
        l1d / l2 / llc: Per-level cache geometry and latency.
        dram: DRAM organisation and timing.
        core: Timing-core parameters.
        max_prefetches_per_access: Issue budget per triggering load
            (paper: 2).
    """

    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", sets=64, ways=12, latency=5))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", sets=1024, ways=8, latency=10))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="LLC", sets=2048, ways=16, latency=20))
    dram: DramConfig = field(default_factory=DramConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    max_prefetches_per_access: int = 2

    @classmethod
    def scaled(cls, divisor: int = 16) -> "HierarchyConfig":
        """A proportionally shrunk hierarchy for scaled-down traces.

        The paper replays 1M loads against a 2MB LLC; this
        reproduction's default traces are 20–50× shorter, so with the
        full-size hierarchy their working sets never pressure the LLC
        and temporal reuse all hits in cache.  Dividing every cache's
        set count by ``divisor`` (default 16 → 128KB LLC) restores the
        paper's working-set:LLC ratio while keeping latencies and the
        rest of Table 3 intact.
        """
        return cls(
            l1d=CacheConfig(name="L1D", sets=max(1, 64 // divisor),
                            ways=12, latency=5),
            l2=CacheConfig(name="L2", sets=max(1, 1024 // divisor),
                           ways=8, latency=10),
            llc=CacheConfig(name="LLC", sets=max(1, 2048 // divisor),
                            ways=16, latency=20),
        )


class Simulator:
    """Replays one trace with one prefetch file.

    Instances are single-use: construct, call :meth:`run`, read the
    returned :class:`~repro.sim.metrics.SimResult`.

    With an enabled :class:`~repro.obs.Observability` bundle, the run
    emits prefetch-lifecycle events (``pf.issued`` → ``pf.fill`` →
    ``pf.useful``/``pf.late``/``pf.dropped``/``pf.evicted_unused``),
    mirrors per-level hit/miss counters and the DRAM queue-wait
    histogram into the metrics registry, and brackets the replay in
    ``run.begin``/``run.end`` events.  With the default disabled
    bundle the replay loop pays only a handful of boolean checks.

    Two replay engines produce bit-identical results (enforced by
    ``tests/test_replay_parity.py``):

    - ``"batch"`` (default) — :func:`repro.sim.fast_engine.replay_batch`
      plans the replay from the trace columns and runs it on a
      compiled C kernel, then writes the kernel's counters back into
      this simulator's cache/DRAM state;
    - ``"reference"`` — the straightforward per-object loop below
      (:meth:`_replay_reference`), kept as the readable specification,
      the parity oracle, and the batch engine's only fallback.

    The kernel covers LRU replacement and metrics-level observability:
    per-event tracing or an ``srrip`` level resolves ``"batch"`` to
    ``"reference"`` here, and the batch driver itself runs the
    reference loop when no kernel can be built or the trace cannot be
    planned for it.  Every downgrade emits a typed
    :class:`~repro.errors.EngineFallbackWarning` and sets
    ``engine_used``, so callers can always ask for the fastest engine
    and still see when they did not get it.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 obs: Optional[Observability] = None,
                 engine: str = "batch"):
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown replay engine {engine!r}; expected one of {ENGINES}")
        self.config = config or HierarchyConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        self._trace_events = self.obs.tracer.enabled
        # The kernel has no event-tracing hooks and only implements
        # LRU, so those configurations run on the reference engine.
        non_lru = (self.config.l1d.replacement != "lru"
                   or self.config.l2.replacement != "lru"
                   or self.config.llc.replacement != "lru")
        if engine == "batch" and (self._trace_events or non_lru):
            reason = ("event tracing is enabled" if self._trace_events
                      else "a non-LRU replacement policy is configured")
            warnings.warn(EngineFallbackWarning(
                f"replay engine downgraded to 'reference': {reason}"),
                stacklevel=2)
            engine = "reference"
        self.engine_requested = engine
        #: The engine that ran (the batch driver may still fall back).
        self.engine_used = engine
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.llc = SetAssociativeCache(self.config.llc)
        self.dram = DramModel(self.config.dram)
        self.core = TimingCore(self.config.core)
        # Typed drop counter (always live — drops are rare, so this
        # costs nothing on the hot path); mirrored into the registry
        # and ``result.extra`` at the end of the run.
        self._pf_dropped = Counter()
        # In-flight prefetches as a min-heap of (completion_cycle, block)
        # plus a membership map for O(1) match.  Completion cycles are
        # integers end to end (DRAM arithmetic is all-int).
        self._pf_heap: List[Tuple[int, int]] = []
        self._pf_inflight: Dict[int, int] = {}
        self._ran = False

    # -- prefetch handling -------------------------------------------------

    def _drain_completed_prefetches(self, cycle: float) -> None:
        """Fill the LLC with every prefetch whose data has arrived."""
        while self._pf_heap and self._pf_heap[0][0] <= cycle:
            _, block = heapq.heappop(self._pf_heap)
            completion = self._pf_inflight.pop(block, None)
            if completion is None:
                continue  # superseded (demand fetched it first)
            if self._trace_events:
                evicted_before = self.llc.evicted_unused_prefetches
                victim = self.llc.insert(block, prefetched=True)
                self.obs.tracer.emit("pf.fill", block=block, cycle=cycle)
                if self.llc.evicted_unused_prefetches > evicted_before:
                    self.obs.tracer.emit("pf.evicted_unused", block=victim,
                                         cycle=cycle)
            else:
                self.llc.insert(block, prefetched=True)

    def _issue_prefetch(self, block: int, cycle: float, result: SimResult,
                        trigger: Optional[int] = None) -> None:
        if self.llc.contains(block) or block in self._pf_inflight:
            self._pf_dropped.inc()
            if self._trace_events:
                reason = ("inflight" if block in self._pf_inflight
                          else "resident")
                self.obs.tracer.emit("pf.dropped", block=block, cycle=cycle,
                                     trigger=trigger, reason=reason)
            return
        completion = self.dram.access(block, int(cycle))
        self._pf_inflight[block] = completion
        heapq.heappush(self._pf_heap, (completion, block))
        result.pf_issued += 1
        if self._trace_events:
            self.obs.tracer.emit("pf.issued", block=block, cycle=cycle,
                                 completion=completion, trigger=trigger)

    # -- demand path -------------------------------------------------------

    def _demand_access(self, block: int, dispatch: float,
                       result: SimResult) -> float:
        """Serve one demand load; returns its total latency in cycles."""
        cfg = self.config
        if self.l1d.lookup(block):
            result.l1d_hits += 1
            return cfg.l1d.latency
        if self.l2.lookup(block):
            result.l2_hits += 1
            self.l1d.insert(block)
            return cfg.l1d.latency + cfg.l2.latency
        lookup_latency = cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency
        trace_events = self._trace_events
        useful_before = self.llc.useful_prefetches if trace_events else 0
        if self.llc.lookup(block):
            result.llc_hits += 1
            if trace_events and self.llc.useful_prefetches > useful_before:
                self.obs.tracer.emit("pf.useful", block=block, cycle=dispatch)
            self.l2.insert(block)
            self.l1d.insert(block)
            return lookup_latency
        result.llc_misses += 1
        inflight = self._pf_inflight.pop(block, None)
        if inflight is not None:
            # Late prefetch: demand waits only for the remaining latency.
            result.pf_late += 1
            result.pf_useful += 1
            completion = max(inflight, dispatch + lookup_latency)
            if trace_events:
                self.obs.tracer.emit("pf.late", block=block, cycle=dispatch,
                                     waited=completion - dispatch)
        else:
            issue = self.core.mshr_admit(dispatch + lookup_latency)
            completion = self.dram.access(block, int(issue))
            self.core.mshr_fill(completion)
        if trace_events:
            evicted_before = self.llc.evicted_unused_prefetches
            victim = self.llc.insert(block)
            if self.llc.evicted_unused_prefetches > evicted_before:
                self.obs.tracer.emit("pf.evicted_unused", block=victim,
                                     cycle=dispatch)
        else:
            self.llc.insert(block)
        self.l2.insert(block)
        self.l1d.insert(block)
        return completion - dispatch

    # -- main loop ---------------------------------------------------------

    def run(self, trace: Trace,
            prefetches: Iterable[PrefetchRequest] = (),
            prefetcher_name: str = "none") -> SimResult:
        """Replay ``trace`` with the given prefetch file.

        Args:
            trace: The demand-load trace.
            prefetches: Prefetch records; triggers must reference
                instruction ids present in the trace (others are
                silently ignored, as ChampSim does).
            prefetcher_name: Label recorded in the result.

        Returns:
            The populated :class:`SimResult`.

        Raises:
            SimulationError: if the simulator instance is reused.
        """
        if self._ran:
            raise SimulationError("Simulator instances are single-use")
        self._ran = True

        budget = self.config.max_prefetches_per_access
        by_trigger: Dict[int, List[int]] = {}
        for pf in prefetches:
            if pf.address < 0:
                # A corrupt prefetch file (or a buggy prefetcher slipping
                # past the guard) must degrade to a dropped prefetch, not
                # crash the replay with a nonsense block index.
                self._pf_dropped.inc()
                if self._trace_events:
                    self.obs.tracer.emit(
                        "pf.dropped", block=pf.address,
                        trigger=pf.trigger_instr_id, reason="invalid")
                continue
            blocks = by_trigger.setdefault(pf.trigger_instr_id, [])
            if len(blocks) < budget:
                # pf.address >> BLOCK_BITS inline: this loop runs once
                # per prefetch record and the ``block`` property call
                # is measurable at prefetch-file sizes.
                blocks.append(pf.address >> 6)

        result = SimResult(trace_name=trace.name,
                           prefetcher_name=prefetcher_name,
                           instructions=trace.instruction_count,
                           loads=len(trace))

        if self.obs.enabled:
            self.dram.wait_histogram = self.obs.registry.histogram(
                "dram.queue_wait_cycles", run=prefetcher_name,
                trace=trace.name)
        if self._trace_events:
            self.obs.tracer.emit("run.begin", trace=trace.name,
                                 prefetcher=prefetcher_name,
                                 loads=len(trace))

        # Windowed series collection (``--series``): one recorder per
        # replay, fed cumulative counters at window boundaries.
        recorder = None
        if self.obs.series is not None:
            recorder = self.obs.series.recorder(
                component="replay", prefetcher=prefetcher_name,
                trace=trace.name)

        if self.engine_used == "batch":
            replay_batch(self, trace, by_trigger, result, recorder)
        else:
            self._replay_reference(trace, by_trigger, result, recorder)

        # Account prefetched lines that were demanded after install.
        result.pf_useful += self.llc.useful_prefetches
        result.dram_requests = self.dram.requests
        result.extra["dram_avg_wait"] = self.dram.average_wait
        result.extra["pf_unused_evicted"] = float(
            self.llc.evicted_unused_prefetches)
        if self._pf_dropped.value:
            result.extra["pf_dropped"] = float(self._pf_dropped.value)
        self._publish_metrics(trace, prefetcher_name, result)
        return result

    def _replay_reference(self, trace: Trace,
                          by_trigger: Dict[int, List[int]],
                          result: SimResult, recorder=None) -> None:
        """The reference replay loop; sets ``result``'s counters and cycles.

        With a :class:`~repro.obs.timeseries.WindowRecorder`, each
        window boundary also records a snapshot of the cumulative
        counters.  That is pure observation: the :class:`SimResult`
        is bit-identical with and without ``--series``.
        """
        window = recorder.window if recorder is not None else 0
        n = len(trace)
        next_boundary = min(window, n) if window else -1
        for i, acc in enumerate(trace, 1):
            dispatch = self.core.dispatch_load(acc.instr_id)
            self._drain_completed_prefetches(dispatch)
            latency = self._demand_access(acc.block, dispatch, result)
            self.core.complete_load(acc.instr_id, dispatch + latency)
            for block in by_trigger.get(acc.instr_id, ()):
                self._issue_prefetch(block, dispatch, result,
                                     trigger=acc.instr_id)
            if i == next_boundary:
                self._sample_window(recorder, i, result)
                next_boundary = min(next_boundary + window, n)
        result.cycles = self.core.finalize(trace.instruction_count)

    def _sample_window(self, recorder, end: int, result: SimResult) -> None:
        """Record the cumulative replay counters at a window boundary."""
        recorder.sample(end, cumulative=dict(zip(
            REPLAY_SERIES_NAMES,
            (self.l1d.hits, self.l1d.misses,
             self.l2.hits, self.l2.misses,
             self.llc.hits, self.llc.misses,
             self.llc.useful_prefetches,
             result.pf_issued, result.pf_late,
             self._pf_dropped.value,
             self.dram.requests, self.dram.total_wait_cycles))),
            gauges={REPLAY_QUEUE_GAUGE: self.dram.queue_len})

    def _publish_metrics(self, trace: Trace, prefetcher_name: str,
                         result: SimResult) -> None:
        """Mirror the run's counters into the registry and close events."""
        if not self.obs.enabled:
            return
        scope = self.obs.registry.scope(run=prefetcher_name,
                                        trace=trace.name)
        for cache, hits in ((self.l1d, result.l1d_hits),
                            (self.l2, result.l2_hits),
                            (self.llc, result.llc_hits)):
            level = scope.scope(level=cache.config.name)
            level.counter("cache.hits").inc(cache.hits)
            level.counter("cache.misses").inc(cache.misses)
        scope.counter("pf.issued").inc(result.pf_issued)
        scope.counter("pf.useful").inc(result.pf_useful)
        scope.counter("pf.late").inc(result.pf_late)
        scope.counter("pf.dropped").inc(self._pf_dropped.value)
        scope.counter("pf.evicted_unused").inc(
            self.llc.evicted_unused_prefetches)
        scope.counter("dram.requests").inc(self.dram.requests)
        scope.gauge("sim.ipc").set(result.ipc)
        scope.gauge("sim.cycles").set(result.cycles)
        if self._trace_events:
            self.obs.tracer.emit(
                "run.end", trace=trace.name, prefetcher=prefetcher_name,
                cycles=result.cycles, ipc=result.ipc,
                pf_issued=result.pf_issued, pf_useful=result.pf_useful,
                pf_late=result.pf_late, pf_dropped=self._pf_dropped.value,
                llc_hits=result.llc_hits, llc_misses=result.llc_misses)


def simulate(trace: Trace, prefetches: Iterable[PrefetchRequest] = (),
             config: Optional[HierarchyConfig] = None,
             prefetcher_name: str = "none",
             obs: Optional[Observability] = None,
             engine: str = "batch") -> SimResult:
    """Convenience wrapper: build a fresh :class:`Simulator` and run it."""
    return Simulator(config, obs=obs, engine=engine).run(
        trace, prefetches, prefetcher_name)
