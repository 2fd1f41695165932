"""Drivers that turn (workload, prefetcher) pairs into metrics.

The flow mirrors the paper's methodology exactly (§4.1): generate the
trace, run the prefetcher offline to produce a prefetch file, replay
trace + prefetch file through the simulator, and derive accuracy and
coverage against a no-prefetch baseline run of the same trace.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import PathfinderConfig, PathfinderPrefetcher
from ..errors import ConfigError, WorkerCrashError
from ..obs import (
    MemorySink,
    Observability,
    SeriesCollector,
    Tracer,
    adaptation_lag,
    default_observability,
    detect_phases,
    rate_points,
)
from ..obs.ledger import active_ledger, current_run_id
from ..resilience import faults
from ..resilience import supervisor as resilience_supervisor
from ..resilience.checkpoint import cell_key, resolve_journal
from ..resilience.guard import GuardedPrefetcher
from ..resilience.supervisor import ResiliencePolicy
from ..prefetchers import (
    AdaptiveEnsemblePrefetcher,
    BestOffsetPrefetcher,
    ColdPagePredictor,
    DeltaLSTMPrefetcher,
    EnsemblePrefetcher,
    NextLinePrefetcher,
    PythiaPrefetcher,
    SISBPrefetcher,
    SPPPrefetcher,
    VoyagerPrefetcher,
    generate_prefetches,
)
from ..prefetchers.base import Prefetcher
from ..sim import SimResult, simulate
from ..sim.simulator import HierarchyConfig, Simulator
from ..traces import make_trace
from ..types import Trace


def default_hierarchy() -> HierarchyConfig:
    """The hierarchy used throughout the reproduction's evaluation.

    Scaled down 16× from the paper's Table 3 so the default 16–20K-load
    traces exert the same working-set pressure the paper's 1M-load
    traces exert on a 2MB LLC (see ``HierarchyConfig.scaled``).
    """
    return HierarchyConfig.scaled()


def _pathfinder_nl_sisb() -> Prefetcher:
    return EnsemblePrefetcher(
        [PathfinderPrefetcher(), NextLinePrefetcher(degree=1),
         SISBPrefetcher()])


def _pathfinder_nl() -> Prefetcher:
    return EnsemblePrefetcher(
        [PathfinderPrefetcher(), NextLinePrefetcher(degree=1)])


def _adaptive_pf_nl_sisb() -> Prefetcher:
    return AdaptiveEnsemblePrefetcher(
        [PathfinderPrefetcher(), NextLinePrefetcher(degree=1),
         SISBPrefetcher()])


def _pathfinder_coldpage() -> Prefetcher:
    return EnsemblePrefetcher(
        [PathfinderPrefetcher(), ColdPagePredictor()])


#: Factory per prefetcher name, matching the paper's Figure 4 lineup.
PREFETCHER_FACTORIES: Dict[str, Callable[[], Prefetcher]] = {
    "nextline": lambda: NextLinePrefetcher(degree=2),
    "bo": BestOffsetPrefetcher,
    "spp": SPPPrefetcher,
    "sisb": SISBPrefetcher,
    "pythia": PythiaPrefetcher,
    "delta-lstm": DeltaLSTMPrefetcher,
    "voyager": VoyagerPrefetcher,
    "pathfinder": PathfinderPrefetcher,
    "pathfinder+nl": _pathfinder_nl,
    "pathfinder+nl+sisb": _pathfinder_nl_sisb,
    # Future-work extensions (paper §3.4 / §5):
    "adaptive-ensemble": _adaptive_pf_nl_sisb,
    "pathfinder+coldpage": _pathfinder_coldpage,
}


def make_prefetcher(name: str) -> Prefetcher:
    """Instantiate a fresh prefetcher by registry name."""
    try:
        return PREFETCHER_FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(PREFETCHER_FACTORIES))
        raise ConfigError(f"unknown prefetcher {name!r}; known: {known}") from None


#: A grid cell's prefetcher: a registry name or an explicit PATHFINDER
#: configuration (the sensitivity experiments sweep configs directly).
CellSpec = Union[str, PathfinderConfig]


def _spec_prefetcher(spec: CellSpec) -> Prefetcher:
    if isinstance(spec, str):
        return make_prefetcher(spec)
    return PathfinderPrefetcher(spec)


def _spec_name(spec: CellSpec) -> str:
    return spec if isinstance(spec, str) else "pathfinder"


def _cell_label(index: int, workload: str, spec: CellSpec) -> str:
    """Short human-readable cell tag for event records and the ledger.

    The index disambiguates config-sweep cells that share a prefetcher
    name; the canonical (long) key from ``checkpoint.cell_key`` is what
    the ledger stores alongside it for exact identity.
    """
    return f"{index:03d}:{workload}:{_spec_name(spec)}"


@dataclass
class EvalRow:
    """One (workload, prefetcher) measurement.

    ``speedup`` and ``coverage`` are relative to the same workload's
    no-prefetch baseline run.
    """

    workload: str
    prefetcher: str
    ipc: float
    speedup: float
    accuracy: float
    coverage: float
    issued: int
    useful: int
    baseline_misses: int
    result: SimResult
    #: Wall-clock breakdown of this row's phases (seconds), e.g.
    #: ``{"prefetch_file_s": ..., "replay_s": ...}``.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Resilience accounting: ``engine_used`` (the replay engine that
    #: actually ran, after any fallback) on every simulated row,
    #: ``snn_kernel`` (``"used"`` or ``"fallback:<reason>"``) on rows
    #: whose prefetcher holds a PATHFINDER, plus — when resilience
    #: machinery engaged — keys like ``outcome``
    #: ("ok"/"retried"/"failed"), ``attempts``, ``error``,
    #: ``prefetcher_errors``, ``quarantined`` (see docs/architecture.md).
    extras: Dict[str, object] = field(default_factory=dict)


def _annotate_phases(obs: Observability, trace_name: str,
                     prefetcher_name: str) -> List[Dict[str, object]]:
    """Detect phase changes in this run's miss-rate series.

    Runs the windowed mean-shift detector over the replay's per-window
    demand miss rate and, for each boundary, measures the prefetcher's
    adaptation lag on its prediction-accuracy series (windows until
    accuracy recovers to its pre-boundary level).  Emits one
    ``phase.change`` trace annotation per boundary when the tracer is
    live, and returns the annotations for ``EvalRow.extras``.
    """
    series = obs.series
    replay = {"component": "replay", "prefetcher": prefetcher_name,
              "trace": trace_name}
    misses = series.find("replay.llc_misses", **replay)
    l1_hits = series.find("replay.l1_hits", **replay)
    l1_misses = series.find("replay.l1_misses", **replay)
    if misses is None or l1_hits is None or l1_misses is None:
        return []
    accesses: Dict[int, float] = {}
    for source in (l1_hits, l1_misses):
        for start, value in source.sorted_points():
            accesses[start] = accesses.get(start, 0) + value
    starts: List[int] = []
    values: List[float] = []
    for start, value in misses.sorted_points():
        total = accesses.get(start)
        if total:
            starts.append(start)
            values.append(value / total)
    boundaries = detect_phases(values)
    if not boundaries:
        return []

    gen = {"component": "generation", "prefetcher": prefetcher_name,
           "trace": trace_name}
    correct = series.find("gen.pred_correct", **gen)
    checked = series.find("gen.pred_checked", **gen)
    accuracy = (rate_points(correct.snapshot(), checked.snapshot())
                if correct is not None and checked is not None else [])
    acc_starts = [start for start, _ in accuracy]
    acc_values = [value for _, value in accuracy]

    annotations: List[Dict[str, object]] = []
    for boundary in boundaries:
        lag = None
        if acc_values:
            lag = adaptation_lag(acc_values,
                                 bisect_left(acc_starts, starts[boundary]))
        annotations.append({
            "window_start": starts[boundary],
            "miss_rate_before": values[boundary - 1],
            "miss_rate_after": values[boundary],
            "adaptation_lag": lag,
        })
    if obs.tracer.enabled:
        for annotation in annotations:
            obs.tracer.emit("phase.change", prefetcher=prefetcher_name,
                            trace=trace_name, **annotation)
    return annotations


def _snn_kernel(prefetcher: Prefetcher) -> Optional[str]:
    """How a PATHFINDER inside ``prefetcher`` (itself, a guard's
    ``inner`` or an ensemble member) ran its SNN queries: ``"used"``
    or ``"fallback:<reason>"``; ``None`` if there is none."""
    pending = [prefetcher]
    while pending:
        current = pending.pop()
        status = getattr(current, "snn_kernel", None)
        if status is not None:
            return status
        pending.extend(getattr(current, "members", ()))
        inner = getattr(current, "inner", None)
        if inner is not None:
            pending.append(inner)
    return None


def run_prefetcher(trace: Trace, prefetcher: Prefetcher,
                   baseline: SimResult,
                   hierarchy: Optional[HierarchyConfig] = None,
                   budget: int = 2,
                   obs: Optional[Observability] = None,
                   engine: str = "batch") -> EvalRow:
    """Generate this prefetcher's prefetch file and replay it.

    With an enabled ``obs`` bundle, the two phases are profiled
    (``prefetch_file`` / ``replay``), the prefetcher's internal
    telemetry is published, and the simulator emits lifecycle events;
    the per-phase wall times land in :attr:`EvalRow.timings` either way.
    ``engine`` selects the replay engine (results are bit-identical;
    see :class:`~repro.sim.simulator.Simulator`).

    The prefetcher runs behind a
    :class:`~repro.resilience.guard.GuardedPrefetcher`: a healthy model
    passes through bit-identically (the parity suites assert this), a
    throwing one is quarantined to no-prefetch with the degradation
    recorded in :attr:`EvalRow.extras` instead of aborting the run.
    """
    obs = obs if obs is not None else Observability.disabled()
    hierarchy = hierarchy or default_hierarchy()
    if not isinstance(prefetcher, GuardedPrefetcher):
        prefetcher = GuardedPrefetcher(prefetcher)
    prefetcher.attach_observability(obs)
    gen_recorder = None
    if obs.series is not None:
        gen_recorder = obs.series.recorder(
            component="generation", prefetcher=prefetcher.name,
            trace=trace.name)
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    with obs.profiler.phase("prefetch_file"):
        requests = generate_prefetches(prefetcher, trace, budget=budget,
                                       recorder=gen_recorder)
    timings["prefetch_file_s"] = time.perf_counter() - start
    prefetcher.publish_telemetry()
    start = time.perf_counter()
    with obs.profiler.phase("replay"):
        sim = Simulator(hierarchy, obs=obs, engine=engine)
        result = sim.run(trace, requests, prefetcher.name)
    timings["replay_s"] = time.perf_counter() - start
    if sim.engine_used == "batch":
        # The engine-explicit alias ``repro compare --stats`` pairs on;
        # only replays the kernel actually ran carry it, so a fallback
        # timing never lands under the batch key.
        timings["replay_batch_s"] = timings["replay_s"]
    extras: Dict[str, object] = {"engine_used": sim.engine_used}
    snn_kernel = _snn_kernel(prefetcher)
    if snn_kernel is not None:
        extras["snn_kernel"] = snn_kernel
    if obs.series is not None:
        phases = _annotate_phases(obs, trace.name, prefetcher.name)
        if phases:
            extras["phases"] = phases
    if prefetcher.errors:
        extras["prefetcher_errors"] = prefetcher.errors
        extras["quarantined"] = prefetcher.quarantined
        extras["error"] = prefetcher.last_error
    return EvalRow(
        workload=trace.name,
        prefetcher=prefetcher.name,
        ipc=result.ipc,
        speedup=result.ipc / baseline.ipc if baseline.ipc else 0.0,
        accuracy=result.accuracy(),
        coverage=result.coverage(baseline.llc_misses),
        issued=result.pf_issued,
        useful=result.pf_useful,
        baseline_misses=baseline.llc_misses,
        result=result,
        timings=timings,
        extras=extras)


def eval_row_metrics(row: EvalRow) -> Dict[str, object]:
    """The canonical ledger metrics dict for one row.

    Shared by the grid's ledger recording and the campaign supervisor
    so every cell record — however it was executed — carries the same
    comparable metric keys.
    """
    return {
        "ipc": row.ipc,
        "speedup": row.speedup,
        "accuracy": row.accuracy,
        "coverage": row.coverage,
        "issued": row.issued,
        "useful": row.useful,
        "late": row.result.pf_late,
        "dropped": row.result.extra.get("pf_dropped", 0),
    }


def _worker_faults(attempt: int, index: Optional[int]) -> None:
    """Fire the ``worker.crash`` / ``worker.hang`` fault points.

    Only ever fires inside a child process: during the supervisor's
    serial fallback the same task body runs in the parent, where
    killing or hanging would defeat the degradation being tested.
    """
    if multiprocessing.parent_process() is None:
        return
    if faults.fires("worker.crash", attempt=attempt, index=index):
        os._exit(13)
    site = faults.fires("worker.hang", attempt=attempt, index=index)
    if site is not None:
        time.sleep(site.seconds)


def _run_cell_task(task: Tuple
                   ) -> Tuple[EvalRow, Optional[object], Optional[List],
                              Optional[List]]:
    """Worker-process body for one parallel grid cell.

    Receives everything it needs as picklable values (trace, baseline,
    cell spec, hierarchy, budget) plus the resilience context: the
    parent's :class:`~repro.resilience.faults.FaultPlan` (re-armed here
    so injection crosses the process boundary), the attempt number
    (lets first-attempt-only faults stand down on retries), and the
    cell index (lets ``cells=``-scoped faults pick their victim) —
    and the run-context (run id + cell label) injected at the
    ``run_cells`` boundary.

    When the parent session is observed, the worker records into a
    private :class:`~repro.obs.Observability` bundle and ships its
    registry back for the parent to
    :meth:`~repro.obs.MetricsRegistry.merge`.  When the parent's tracer
    has a live sink, the worker additionally records events into a
    local :class:`~repro.obs.MemorySink` — every event tagged with the
    run id and cell label — and ships them back in the cell result for
    the parent to :meth:`~repro.obs.Tracer.ingest` in cell order
    (file-handle sinks can't cross process boundaries, and without
    this hand-off worker events would be silently dropped).
    """
    (trace, baseline, spec, hierarchy, budget, observe, capture_events,
     engine, plan, attempt, index, run_id, cell, series_window) = task
    with faults.injected(plan):
        _worker_faults(attempt, index)
        obs = None
        if observe or series_window:
            tracer = Tracer(MemorySink()) if capture_events else None
            series = (SeriesCollector(window=series_window)
                      if series_window else None)
            if series is not None:
                # Same ambient label the serial path binds, so a
                # parallel merge is bit-identical to a serial run.
                series.bind(cell=cell)
            obs = Observability(tracer=tracer, series=series,
                                enabled=observe)
            if capture_events:
                context = {"cell": cell}
                if run_id is not None:
                    context["run_id"] = run_id
                obs.tracer.bind(**context)
        row = run_prefetcher(trace, _spec_prefetcher(spec), baseline,
                             hierarchy=hierarchy, budget=budget, obs=obs,
                             engine=engine)
    events = (obs.tracer.sink.events
              if obs is not None and capture_events else None)
    series_records = (obs.series.snapshot()
                      if obs is not None and obs.series is not None
                      else None)
    return (row, (obs.registry if obs is not None and observe else None),
            events, series_records)


@dataclass
class Evaluation:
    """A (workloads × prefetchers) grid runner with caching.

    Traces and their no-prefetch baselines are generated once and
    reused across prefetchers, so every prefetcher sees the identical
    access stream — the paper's fairness requirement (§4.5).

    Grid entry points accept ``jobs``: with ``jobs > 1`` cells fan out
    over a :class:`~concurrent.futures.ProcessPoolExecutor`, one task
    per cell, and rows come back in the same deterministic order the
    serial path produces (each cell is an independent, seeded run, so
    the values are identical too — only wall-clock timings differ).
    """

    n_accesses: int = 20_000
    seed: int = 1
    hierarchy: HierarchyConfig = field(default_factory=default_hierarchy)
    budget: int = 2
    #: Optional observability bundle threaded through trace generation,
    #: baseline replay, and every prefetcher run.
    obs: Optional[Observability] = None
    #: Replay engine for every simulation in the grid ("batch" or
    #: "reference"); results are bit-identical, only wall-clock
    #: differs.  The batch default also amortizes the trace's columns
    #: across the whole lineup: every cell replays the same cached
    #: :class:`~repro.types.Trace`, so its columns and monotone flag
    #: are derived once per workload, not once per cell.
    engine: str = "batch"
    #: Retry/timeout/degradation policy for ``run_cells``.  ``None``
    #: falls back to the ambient default (set by the CLI's ``--retries``
    #: / ``--cell-timeout``); with neither, grids run unsupervised on
    #: the exact pre-resilience code path.
    policy: Optional[ResiliencePolicy] = None
    #: Checkpoint journal (or path) for ``run_cells``; completed cells
    #: are journaled and skipped bit-identically on resume.  ``None``
    #: falls back to the ambient default (the CLI's ``--resume``).
    checkpoint: Optional[object] = None
    _traces: Dict[str, Trace] = field(default_factory=dict)
    _baselines: Dict[str, SimResult] = field(default_factory=dict)

    def _obs(self) -> Observability:
        if self.obs is None:
            # Fall back to the CLI-installed ambient bundle so code that
            # builds its own Evaluation (the experiment registry) still
            # records into the invocation's registry and tracer.
            self.obs = default_observability() or Observability.disabled()
        return self.obs

    def trace(self, workload: str) -> Trace:
        """The cached trace for a workload (generated on first use)."""
        if workload not in self._traces:
            with self._obs().profiler.phase("trace_gen"):
                trace = make_trace(workload, self.n_accesses,
                                   seed=self.seed)
            # Inert unless the trace.corrupt fault point is armed.
            self._traces[workload] = faults.corrupt_trace(trace)
        return self._traces[workload]

    def baseline(self, workload: str) -> SimResult:
        """The cached no-prefetch run for a workload."""
        if workload not in self._baselines:
            obs = self._obs()
            with obs.profiler.phase("baseline_replay"):
                self._baselines[workload] = simulate(
                    self.trace(workload), config=self.hierarchy,
                    prefetcher_name="none", obs=obs, engine=self.engine)
        return self._baselines[workload]

    def run(self, workload: str, prefetcher_name: str) -> EvalRow:
        """Evaluate one registry prefetcher on one workload."""
        prefetcher = make_prefetcher(prefetcher_name)
        return run_prefetcher(self.trace(workload), prefetcher,
                              self.baseline(workload),
                              hierarchy=self.hierarchy, budget=self.budget,
                              obs=self._obs(), engine=self.engine)

    def run_config(self, workload: str, config: PathfinderConfig) -> EvalRow:
        """Evaluate an explicit PATHFINDER config on one workload."""
        return run_prefetcher(self.trace(workload),
                              PathfinderPrefetcher(config),
                              self.baseline(workload),
                              hierarchy=self.hierarchy, budget=self.budget,
                              obs=self._obs(), engine=self.engine)

    def _cell_key(self, workload: str, spec: CellSpec) -> str:
        return cell_key(workload, spec, seed=self.seed,
                        n_accesses=self.n_accesses, budget=self.budget,
                        engine=self.engine, hierarchy=self.hierarchy)

    def _failed_row(self, workload: str, spec: CellSpec,
                    outcome) -> EvalRow:
        """A zeroed placeholder for a cell that exhausted its retries."""
        name = spec if isinstance(spec, str) else "pathfinder"
        result = SimResult(trace_name=workload, prefetcher_name=name)
        return EvalRow(workload=workload, prefetcher=name, ipc=0.0,
                       speedup=0.0, accuracy=0.0, coverage=0.0, issued=0,
                       useful=0, baseline_misses=0, result=result,
                       extras={"outcome": "failed",
                               "attempts": outcome.attempts,
                               "error": outcome.error})

    def _ledger_cell(self, index: int, cell: Tuple[str, CellSpec],
                     row: EvalRow, key: Optional[str] = None,
                     restored: bool = False) -> None:
        """Record one cell's provenance in the ambient run ledger."""
        ledger = active_ledger()
        if ledger is None:
            return
        workload, spec = cell
        metrics = eval_row_metrics(row)
        error = row.extras.get("error")
        ledger.record_cell(
            cell=_cell_label(index, workload, spec),
            key=key or self._cell_key(workload, spec),
            seed=self.seed,
            workload=workload,
            prefetcher=row.prefetcher,
            metrics=metrics,
            timings=row.timings,
            outcome=str(row.extras.get("outcome", "ok")),
            attempts=int(row.extras.get("attempts", 1)),
            restored=restored,
            error=str(error) if error is not None else None,
            engine_used=row.extras.get("engine_used"))

    def _publish_resilience(self, stats) -> None:
        resilience_supervisor.note_stats(stats)
        if self.obs is None or not self.obs.enabled:
            return
        scope = self.obs.registry.scope(component="resilience")
        for label, count in stats.cells.items():
            scope.counter(f"cells.{label}").inc(count)
        if stats.pool_respawns:
            scope.counter("pool.respawns").inc(stats.pool_respawns)
        if stats.timeouts:
            scope.counter("cell.timeouts").inc(stats.timeouts)
        if stats.serial_fallback:
            scope.counter("pool.serial_fallback").inc()

    def run_cells(self, cells: Sequence[Tuple[str, CellSpec]],
                  jobs: int = 1,
                  policy: Optional[ResiliencePolicy] = None,
                  checkpoint=None) -> List[EvalRow]:
        """Evaluate arbitrary (workload, spec) cells, optionally in parallel.

        Args:
            cells: ``(workload, spec)`` pairs where ``spec`` is a
                registry prefetcher name or a ``PathfinderConfig``.
            jobs: Worker processes; ``<= 1`` runs serially in-process.
            policy: Retry/timeout policy; overrides the ``Evaluation``
                field and the ambient CLI default.  With a policy, every
                row's ``extras`` records its outcome and failed cells
                degrade to zeroed placeholder rows (``policy.degrade``)
                instead of aborting the grid.
            checkpoint: Journal (or path) to record completed cells in;
                cells already journaled under an identical key are
                restored bit-identically instead of re-run.

        Returns:
            One ``EvalRow`` per cell, in the order given.

        Raises:
            WorkerCrashError: A cell failed and no degrading policy was
                in force.  The exception carries ``partial_rows`` and
                per-cell ``failures`` — finished work is never discarded.
        """
        cells = list(cells)
        if policy is None:
            policy = (self.policy if self.policy is not None
                      else resilience_supervisor.default_policy())
        if checkpoint is None:
            checkpoint = (self.checkpoint if self.checkpoint is not None
                          else resilience_supervisor.default_checkpoint())
        journal = resolve_journal(checkpoint)

        rows: List[Optional[EvalRow]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        pending: List[int] = []
        for i, (workload, spec) in enumerate(cells):
            if journal is not None:
                keys[i] = self._cell_key(workload, spec)
                rows[i] = journal.get(keys[i])
                if rows[i] is not None:
                    self._ledger_cell(i, cells[i], rows[i], key=keys[i],
                                      restored=True)
            if rows[i] is None:
                pending.append(i)
        if not pending:
            return rows  # fully restored from the journal

        run_id = current_run_id()

        def finish(i: int, row: EvalRow) -> None:
            rows[i] = row
            if journal is not None:
                journal.record(keys[i], row)
            self._ledger_cell(i, cells[i], row, key=keys[i])

        if policy is None and (jobs <= 1 or len(pending) <= 1):
            # The exact pre-resilience serial path (parity anchor).
            # Each cell runs under tracer context carrying the same
            # run-id + cell tags the parallel workers stamp, so serial
            # and parallel event logs line up record-for-record.
            obs = self._obs()
            for i in pending:
                workload, spec = cells[i]
                label = _cell_label(i, workload, spec)
                if obs.series is not None:
                    # Fill the trace/baseline caches outside the cell's
                    # series context, exactly where the parallel path
                    # generates them, so baseline series carry the same
                    # (cell-free) labels in both modes.
                    self.baseline(workload)
                context = {"cell": label}
                if run_id is not None:
                    context["run_id"] = run_id
                series_context = (obs.series.context(cell=label)
                                  if obs.series is not None
                                  else nullcontext())
                with obs.tracer.context(**context), series_context:
                    finish(i, self.run(workload, spec)
                           if isinstance(spec, str)
                           else self.run_config(workload, spec))
            return rows

        # Traces/baselines are generated in the parent (filling the
        # caches) so every worker replays the identical access stream.
        obs = self._obs()  # resolves the ambient bundle, if any
        observe = obs.enabled
        capture = observe and obs.tracer.enabled
        series_window = (obs.series.window if obs.series is not None else 0)
        plan = faults.active()

        def make_task(pos: int, attempt: int) -> Tuple:
            i = pending[pos]
            workload, spec = cells[i]
            return (self.trace(workload), self.baseline(workload), spec,
                    self.hierarchy, self.budget, observe, capture,
                    self.engine, plan, attempt, i, run_id,
                    _cell_label(i, workload, spec), series_window)

        if policy is None:
            # Unsupervised fan-out: one submit per cell so a raising
            # cell reports alongside its siblings' finished work
            # instead of discarding it.
            failures: Dict[int, str] = {}
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as pool:
                futures = [pool.submit(_run_cell_task, make_task(pos, 0))
                           for pos in range(len(pending))]
                for pos, future in enumerate(futures):
                    i = pending[pos]
                    try:
                        row, registry, events, series_records = \
                            future.result()
                    except Exception as exc:  # noqa: BLE001
                        failures[i] = f"{type(exc).__name__}: {exc}"
                    else:
                        finish(i, row)
                        if registry is not None:
                            self._obs().registry.merge(registry)
                        if events:
                            # Futures are consumed in submission order,
                            # so worker events land in deterministic
                            # cell order regardless of completion order.
                            self._obs().tracer.ingest(events)
                        if series_records and obs.series is not None:
                            obs.series.ingest(series_records)
            if failures:
                raise WorkerCrashError(
                    f"{len(failures)} of {len(cells)} grid cell(s) "
                    f"failed (no retry policy in force)",
                    partial_rows=list(rows), failures=failures)
            return rows

        # Supervised path: retries/backoff/timeouts, pool respawn on
        # BrokenProcessPool, serial fallback, per-cell accounting.
        if jobs <= 1:
            outcomes, stats = resilience_supervisor.run_serial(
                _run_cell_task, make_task, len(pending), policy)
        else:
            outcomes, stats = resilience_supervisor.run_supervised(
                _run_cell_task, make_task, len(pending), jobs, policy)
        failures = {}
        for pos, outcome in enumerate(outcomes):
            i = pending[pos]
            workload, spec = cells[i]
            if outcome.ok:
                row, registry, events, series_records = outcome.value
                if registry is not None:
                    self._obs().registry.merge(registry)
                if events:
                    self._obs().tracer.ingest(events)
                if series_records and obs.series is not None:
                    obs.series.ingest(series_records)
                row.extras["outcome"] = outcome.outcome
                row.extras["attempts"] = outcome.attempts
                if outcome.error is not None:
                    row.extras["error"] = outcome.error
                finish(i, row)
            elif policy.degrade:
                # Degraded cell: placeholder row, NOT journaled, so a
                # later --resume gets another shot at it (the ledger
                # still records the failure for provenance).
                rows[i] = self._failed_row(workload, spec, outcome)
                self._ledger_cell(i, cells[i], rows[i], key=keys[i])
            else:
                failures[i] = outcome.error or "cell failed"
        self._publish_resilience(stats)
        if failures:
            raise WorkerCrashError(
                f"{len(failures)} of {len(cells)} grid cell(s) failed "
                f"after {policy.retries + 1} attempt(s)",
                partial_rows=list(rows), failures=failures)
        return rows

    def run_grid(self, workloads: Sequence[str],
                 prefetchers: Sequence[str],
                 jobs: int = 1,
                 policy: Optional[ResiliencePolicy] = None,
                 checkpoint=None) -> List[EvalRow]:
        """Evaluate the full grid, row-major by workload."""
        return self.run_cells([(workload, name) for workload in workloads
                               for name in prefetchers], jobs=jobs,
                              policy=policy, checkpoint=checkpoint)


@dataclass(frozen=True)
class SeedAggregate:
    """Across-seed statistics for one (workload, prefetcher) cell.

    ``speedups`` retains the raw per-seed values (in seed order) so
    downstream consumers — significance tests, bootstrap CIs, the
    dashboard's ranking whiskers — can work from samples instead of
    the lossy mean/stdev summary.
    """

    workload: str
    prefetcher: str
    mean_speedup: float
    std_speedup: float
    mean_accuracy: float
    mean_coverage: float
    seeds: int
    speedups: Tuple[float, ...] = ()


def multi_seed_grid(workloads: Sequence[str],
                    prefetchers: Sequence[str],
                    seeds: Sequence[int] = (1, 2, 3),
                    n_accesses: int = 16_000,
                    hierarchy: Optional[HierarchyConfig] = None,
                    budget: int = 2,
                    obs: Optional[Observability] = None,
                    jobs: int = 1,
                    policy: Optional[ResiliencePolicy] = None,
                    checkpoint=None) -> List[SeedAggregate]:
    """Run a grid across several trace seeds and aggregate.

    Synthetic traces make seed sensitivity a real validity question;
    this helper reports mean and standard deviation of the speedup per
    (workload, prefetcher) so conclusions can be checked for stability.

    Args:
        budget: Prefetches kept per triggering access (default matches
            ``Evaluation``'s).
        obs: Optional observability bundle shared by every per-seed
            evaluation (phases and metrics all land in one registry).
        jobs: Worker processes per seed grid; ``<= 1`` stays serial.
        policy: Optional retry/timeout policy for every per-seed grid.
        checkpoint: Optional shared journal — cell keys embed the seed,
            so one journal resumes the whole multi-seed sweep.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    evaluations = [Evaluation(n_accesses=n_accesses, seed=seed,
                              hierarchy=hierarchy or default_hierarchy(),
                              budget=budget, obs=obs, policy=policy,
                              checkpoint=checkpoint)
                   for seed in seeds]
    cells = [(workload, name) for workload in workloads
             for name in prefetchers]
    per_seed = [evaluation.run_cells(cells, jobs=jobs)
                for evaluation in evaluations]
    aggregates: List[SeedAggregate] = []
    for index, (workload, name) in enumerate(cells):
        rows = [seed_rows[index] for seed_rows in per_seed]
        speedups = [r.speedup for r in rows]
        aggregates.append(SeedAggregate(
            workload=workload,
            prefetcher=name,
            mean_speedup=statistics.fmean(speedups),
            std_speedup=(statistics.stdev(speedups)
                         if len(speedups) > 1 else 0.0),
            mean_accuracy=statistics.fmean(r.accuracy for r in rows),
            mean_coverage=statistics.fmean(r.coverage for r in rows),
            seeds=len(seeds),
            speedups=tuple(speedups)))
    return aggregates
