"""The four workloads: one job each, run through ``repro``'s public API.

A job runs once per call to :meth:`Job.run` and returns an
:class:`Outcome`: its wall time, every cell's output fingerprint and
replay engine, the cells that failed, and per-layer figures.  Traced
and untraced repeats run the same program path.  For the serial jobs a
traced repeat wraps, for the length of the repeat, the public calls
``repro.harness.runner`` makes into each layer (``make_trace``,
``simulate``, ``make_prefetcher``, ``generate_prefetches``,
``GuardedPrefetcher.train``, ``Simulator.run``) in spans.  The parallel
jobs run their cells in worker processes, so their per-cell figures
come from the run ledger the program writes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from metrics import fingerprint, ledger_error, metric_key, row_error

from repro.campaign import campaign_summary
from repro.harness import runner
from repro.harness.experiments import run_experiment
from repro.harness.runner import Evaluation
from repro.obs.ledger import finish_run, read_ledger, start_run
from repro.traces import WORKLOAD_NAMES, make_trace

#: The paper's Figure 4 lineup.
FIG4 = ("bo", "sisb", "voyager", "delta-lstm", "spp", "pythia",
        "pathfinder", "pathfinder+nl+sisb")
#: Online and rule-based learners: no LSTM anywhere.
ONLINE = ("pathfinder", "pathfinder+nl+sisb", "nextline", "bo", "spp",
          "sisb")
#: ``run_experiment("table6")``'s grid.
GRID = ("spp", "pythia", "pathfinder")
#: The campaign spec's prefetchers.
CAMPAIGN = ("nextline", "bo", "spp", "sisb", "pathfinder")
#: Offline-trained prefetchers whose ``train`` does real work.
TRAINED = ("delta-lstm", "voyager")

#: Seconds a single CLI call may take before it and its workers are killed.
CLI_TIMEOUT_S = 60


@dataclass
class Cell:
    fingerprint: Tuple
    engine: str
    error: Optional[str] = None


@dataclass
class Outcome:
    wall_s: float
    cells: Dict[str, Cell] = field(default_factory=dict)
    #: Cells expected but missing, failed or quarantined: key -> reason.
    failed: Dict[str, str] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Per-cell busy seconds (parallel jobs; from the ledger).
    cell_s: List[float] = field(default_factory=list)


def cell_key(workload: str, prefetcher: str, seed: int) -> str:
    return f"{workload}/{prefetcher}/seed={seed}"


def _add(layer: Dict[str, float], name: str, value: float) -> None:
    layer[name] = layer.get(name, 0.0) + value


def _row_cell(row) -> Cell:
    return Cell(fingerprint(row.speedup, row.accuracy, row.coverage,
                            row.issued),
                str(row.extras.get("engine_used")), row_error(row.extras))


def _ledger_cells(records: Sequence[dict], outcome: Outcome) -> None:
    """Fold ledger cell records into ``outcome`` (cells, layer, cell_s)."""
    for record in records:
        key = cell_key(record["workload"], record["prefetcher"],
                       int(record["seed"]))
        metrics = record.get("metrics", {})
        cell = Cell(fingerprint(metrics.get("speedup", 0.0),
                                metrics.get("accuracy", 0.0),
                                metrics.get("coverage", 0.0),
                                metrics.get("issued", 0)),
                    str(record.get("engine_used")), ledger_error(record))
        previous = outcome.cells.get(key)
        if previous is not None and previous.fingerprint != cell.fingerprint:
            cell.error = "recorded twice with different outputs"
        outcome.cells[key] = cell
        timings = record.get("timings", {})
        gen_s = float(timings.get("prefetch_file_s", 0.0))
        replay_s = float(timings.get("replay_s", 0.0))
        outcome.cell_s.append(gen_s + replay_s)
        pf = metric_key(record["prefetcher"])
        layer = outcome.layer
        _add(layer, f"gen.{pf}.infer_s", gen_s)
        _add(layer, f"gen.{pf}.issued", metrics.get("issued", 0))
        _add(layer, "replay.prefetched_s", replay_s)
        _add(layer, "replay.pf_useful", metrics.get("useful", 0))
        _add(layer, "replay.pf_late", metrics.get("late", 0))


@contextmanager
def traced_runner(tracer) -> Iterator[None]:
    """Wrap the runner module's calls into each layer in spans.

    For the length of the block, the names ``repro.harness.runner``
    looks up at call time are replaced by thin wrappers that open a
    span and call the original; they are restored on exit.  Spans:
    ``traces.make_trace``, ``sim.baseline`` (``simulate``),
    ``prefetchers.generate`` (``generate_prefetches``, which calls
    ``train`` first), ``prefetchers.train`` (``GuardedPrefetcher.train``)
    and ``sim.replay`` (``Simulator.run``).  Each prefetcher span carries
    the registry name ``make_prefetcher`` was last called with, as a
    metric key.
    """
    current = {"pf": None}
    originals = {name: getattr(runner, name) for name in (
        "make_trace", "simulate", "make_prefetcher", "generate_prefetches",
        "GuardedPrefetcher", "Simulator")}

    def make_trace_(workload, *args, **kwargs):
        with tracer.span("traces.make_trace", workload=workload):
            return originals["make_trace"](workload, *args, **kwargs)

    def simulate_(*args, **kwargs):
        with tracer.span("sim.baseline"):
            return originals["simulate"](*args, **kwargs)

    def make_prefetcher_(name):
        current["pf"] = metric_key(name)
        return originals["make_prefetcher"](name)

    def generate_prefetches_(*args, **kwargs):
        with tracer.span("prefetchers.generate", prefetcher=current["pf"]):
            return originals["generate_prefetches"](*args, **kwargs)

    class GuardedPrefetcher(originals["GuardedPrefetcher"]):
        def train(self, trace):
            with tracer.span("prefetchers.train", prefetcher=current["pf"]):
                return super().train(trace)

    class Simulator(originals["Simulator"]):
        def run(self, *args, **kwargs):
            with tracer.span("sim.replay", prefetcher=current["pf"]):
                return super().run(*args, **kwargs)

    wrappers = {"make_trace": make_trace_, "simulate": simulate_,
                "make_prefetcher": make_prefetcher_,
                "generate_prefetches": generate_prefetches_,
                "GuardedPrefetcher": GuardedPrefetcher,
                "Simulator": Simulator}
    for name, wrapper in wrappers.items():
        setattr(runner, name, wrapper)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(runner, name, original)


class Job:
    """One workload.  Subclasses set the lineup, traces and loads."""

    name = ""
    prefetchers: Tuple[str, ...] = ()
    traces: Tuple[str, ...] = tuple(WORKLOAD_NAMES)
    #: Demand loads per trace.
    loads = 0
    #: Worker processes the job's cells run on (1: in this process).
    workers = 1
    #: Per-layer metric prefix for a parallel job's throughput figures.
    prefix: Optional[str] = None

    def __init__(self, seed: int, work: Path, env: Dict[str, str]):
        self.seed = seed
        self.work = work
        self.env = env

    def seeds(self) -> Tuple[int, ...]:
        return (self.seed,)

    def expected(self) -> List[str]:
        return [cell_key(w, p, s) for s in self.seeds()
                for w in self.traces for p in self.prefetchers]

    def run(self, tracer) -> Outcome:
        raise NotImplementedError

    def reference_cells(self) -> Dict[str, Cell]:
        """One cell per prefetcher, replayed by the ``reference`` engine.

        Runs outside the timed region; the caller compares the result
        with the timed runs' fingerprints.
        """
        seed = self.seeds()[0]
        evaluation = Evaluation(n_accesses=self.loads, seed=seed,
                                engine="reference")
        cells = [(self.traces[0], pf) for pf in self.prefetchers]
        rows = evaluation.run_cells(cells)
        return {cell_key(w, p, seed): _row_cell(row)
                for (w, p), row in zip(cells, rows)}

    def probe_traces(self, tracer) -> None:
        """Time the job's trace generation by itself (traced runs only).

        The parallel jobs generate traces where the benchmark cannot
        wrap them, so the traced run repeats the same ``make_trace``
        calls in a span tree of their own, outside the job's span.
        """
        with tracer.span("bench.probe"):
            for seed in self.seeds():
                for workload in self.traces:
                    with tracer.span("traces.make_trace",
                                     workload=workload):
                        make_trace(workload, self.loads, seed=seed)


class SerialJob(Job):
    """A serial grid through ``Evaluation.run_cells``, as a user runs it."""

    def run(self, tracer) -> Outcome:
        cells = [(w, p) for w in self.traces for p in self.prefetchers]
        start = time.perf_counter()
        with tracer.span("bench.job"), \
                traced_runner(tracer) if tracer.enabled else nullcontext():
            with tracer.span("harness.run_cells"):
                rows = Evaluation(n_accesses=self.loads,
                                  seed=self.seed).run_cells(cells)
        outcome = Outcome(time.perf_counter() - start)
        for (w, p), row in zip(cells, rows):
            outcome.cells[cell_key(w, p, self.seed)] = _row_cell(row)
            _add(outcome.layer, f"gen.{metric_key(p)}.issued", row.issued)
            _add(outcome.layer, "replay.pf_useful", row.useful)
            _add(outcome.layer, "replay.pf_late", row.result.pf_late)
        return outcome


class Fig4Lineup(SerialJob):
    name = "fig4-lineup"
    prefetchers = FIG4
    traces = ("cc-5",)
    loads = 1000


class OnlineSuite(SerialJob):
    name = "online-suite"
    prefetchers = ONLINE
    loads = 2000


class GridJobs2(Job):
    """``run_experiment("table6", jobs=2)`` under a run ledger, as the CLI."""

    name = "grid-jobs2"
    prefetchers = GRID
    loads = 4000
    workers = 2
    prefix = "grid"

    def run(self, tracer) -> Outcome:
        if tracer.enabled:
            self.probe_traces(tracer)
        results = self.work / "results"
        start = time.perf_counter()
        with tracer.span("bench.job"):
            ledger = start_run(results, "experiment",
                               ["experiment", "table6", "--jobs",
                                str(self.workers)],
                               {"experiment": "table6", "seed": self.seed,
                                "loads": self.loads, "jobs": self.workers},
                               seeds=[self.seed])
            status = "error"
            try:
                with tracer.span("harness.run_experiment"):
                    run_experiment("table6", seed=self.seed,
                                   jobs=self.workers, n_accesses=self.loads)
                status = "ok"
            finally:
                finish_run(ledger, time.perf_counter() - start,
                           status=status)
        outcome = Outcome(time.perf_counter() - start)
        _ledger_cells(read_ledger(ledger.path)["cells"], outcome)
        os.remove(ledger.path)
        return outcome


def run_cli(args: Sequence[str], cwd: Path, env: Dict[str, str],
            log: Path) -> int:
    """Run ``python -m repro.cli ARGS`` in its own process group.

    Output goes to ``log``.  On timeout, or if the CLI leaves workers
    behind, the whole group is killed; the call returns only after the
    CLI itself has been reaped.
    """
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *args],
                                cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return code


class CampaignResume(Job):
    """``repro campaign run --series --stop-after N``, then ``resume``."""

    name = "campaign-resume"
    prefetchers = CAMPAIGN
    loads = 2000
    workers = 2
    prefix = "campaign"
    stop_after = 55

    def __init__(self, seed: int, work: Path, env: Dict[str, str]):
        super().__init__(seed, work, env)
        self._runs = 0

    def seeds(self) -> Tuple[int, ...]:
        return (self.seed, self.seed + 100_003)

    def run(self, tracer) -> Outcome:
        if tracer.enabled:
            self.probe_traces(tracer)
        self._runs += 1
        base = self.work / f"campaign-{self._runs}"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        spec_path = base / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "bench", "workloads": list(self.traces),
            "prefetchers": list(self.prefetchers),
            "seeds": list(self.seeds()), "loads": self.loads,
            "workers": self.workers}))
        directory = base / "campaign"
        log = base / "cli.log"
        codes = []
        start = time.perf_counter()
        with tracer.span("bench.job"):
            with tracer.span("campaign.run"):
                codes.append(run_cli(
                    ["campaign", "run", str(spec_path), "--dir",
                     str(directory), "--series", "--stop-after",
                     str(self.stop_after)], base, self.env, log))
            paused = time.perf_counter()
            with tracer.span("campaign.resume"):
                codes.append(run_cli(["campaign", "resume", str(directory)],
                                     base, self.env, log))
        end = time.perf_counter()
        outcome = Outcome(end - start)
        layer = outcome.layer
        layer["campaign.run_s"] = paused - start
        layer["campaign.resume_s"] = end - paused
        if codes != [0, 0]:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"[{self.name}] campaign CLI exit codes {codes}:\n{tail}",
                  file=sys.stderr)
        ledger_path = directory / "ledger.jsonl"
        if ledger_path.exists():
            _ledger_cells(read_ledger(ledger_path)["cells"], outcome)
            layer["obs.ledger_bytes"] = ledger_path.stat().st_size
        series_path = directory / "campaign_series.jsonl"
        if series_path.exists():
            layer["obs.series_bytes"] = series_path.stat().st_size
        if (directory / "campaign.json").exists():
            summary = campaign_summary(directory)
            layer["campaign.retries"] = summary["retries"]
            layer["campaign.quarantined"] = len(summary["quarantined"])
            for cell in summary["quarantined"]:
                key = cell_key(cell["workload"], cell["prefetcher"],
                               int(cell["seed"]))
                outcome.failed[key] = f"quarantined: {cell['error']}"
        shutil.rmtree(base, ignore_errors=True)
        return outcome


JOBS = {job.name: job for job in (Fig4Lineup, OnlineSuite, GridJobs2,
                                   CampaignResume)}
