"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfsuite/run.py --workload fig4-lineup --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same job alternately untraced and traced and prints the per-layer
metrics, including tracing overhead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from the checkout's ``src`` (never from an
installed copy); without it the benchmark exits 2 and prints no result.
Everything the run writes lives under ``.perfsuite/`` in the checkout:
the C-kernel cache, temporary files, run ledgers, campaign directories,
stored output fingerprints and span dumps.  Metric names and units come
from ``BENCHMARK.json`` at the checkout's root.

Host timings are given at a reference host speed.  Each timed repeat
is scaled by ``CAL_REF_S`` over the faster of the times a fixed
pure-Python loop (the calibration loop) takes right before and right
after it; each start-up probe is scaled by ``NUMPY_REF_S`` over the
probe's own ``import numpy`` time.  The raw host seconds are printed
beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfsuite"

sys.path.insert(0, str(HERE))
import metrics as m  # noqa: E402
from calibrate import spin_median  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

#: prctl option that makes a process its orphaned descendants' parent.
PR_SET_CHILD_SUBREAPER = 36

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
PER_LAYER_UNITS = {e["name"]: e["unit"] for e in SPEC["per_layer"]}

#: Fewest fresh-interpreter start-up probes per run (``setup_s`` is
#: their median).
SETUP_PROBES = 9
#: Minimum timed repeats per mode, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Seconds one start-up probe may take.
PROBE_TIMEOUT_S = 30
#: Calibration-loop seconds that define the reference host speed (about
#: the loop's median time on the 2-core VM the baseline was measured on).
CAL_REF_S = 0.015
#: Seconds of a fresh interpreter's ``import numpy`` at the reference
#: host speed (the probe's median on the same VM).
NUMPY_REF_S = 0.108


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> Dict[str, str]:
    """The environment every process the benchmark starts runs under."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_CKERNEL_CACHE": str(WORK / "ckernel"),
        "REPRO_RESULTS_DIR": str(WORK / "results"),
        "TMPDIR": str(WORK / "tmp"),
    })
    return env


def source_digest() -> str:
    """sha256 over the program and benchmark sources (keys stored outputs)."""
    digest = hashlib.sha256()
    files = sorted(p for base in (SRC, HERE) for p in base.rglob("*")
                   if p.is_file() and p.suffix in (".py", ".c", ".h"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Calibrator:
    """Times the calibration loop on ``cores`` cores at once: host speed.

    The host this benchmark was built on changes speed by up to half
    within minutes, and CPU time moves with wall time, so the slowdown
    is not waiting.  Scaling a timing by ``CAL_REF_S`` over the loop's
    time taken right before or after it removes most of that drift; a
    change to the program cannot move the loop.  A job that keeps two
    workers busy is calibrated on two cores: a helper interpreter
    (``calibrate.py``) runs the loop beside this one, and the two
    medians are averaged.
    """

    def __init__(self, cores: int):
        self.times: List[float] = []
        self._helpers: List[subprocess.Popen] = []
        for _ in range(cores - 1):
            self._helpers.append(subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))

    def __call__(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [spin_median()] + [float(helper.stdout.readline())
                                   for helper in self._helpers]
        self.times.append(m.mean(times))
        return self.times[-1]

    def close(self) -> None:
        for helper in self._helpers:
            for stream in (helper.stdin, helper.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def probe_startup(env: Dict[str, str]) -> Dict[str, float]:
    """One fresh interpreter: wall, import and kernel-load seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "startup_probe.py")],
                          env=env, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"start-up probe failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not str(Path(report["repro_file"]).resolve()).startswith(str(SRC)):
        raise RuntimeError(f"probe imported {report['repro_file']}, "
                           f"not the checkout's src")
    report["wall_s"] = wall
    report["scale"] = NUMPY_REF_S / report["numpy_import_s"]
    return report


def compiler_version() -> str:
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if not cc:
        return "none"
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.splitlines()
    return lines[0] if lines else "unknown"


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def peak_rss_mb() -> float:
    """Highest RSS of this process or any child it has reaped (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checker:
    """Output check: every cell's fingerprint against one reference set.

    The reference is the fingerprint file stored by an earlier run of
    the same workload, seed and sources; the first clean run of a set
    stores it.  Within a run, the first repeat is the reference.
    """

    def __init__(self, path: Path):
        self.path = path
        self.stored = path.exists()
        self.reference: Dict[str, List] = (
            json.loads(path.read_text()) if self.stored else {})
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, str] = {}

    def _fail(self, key: str, reason: str) -> None:
        self.failed += 1
        self.reasons.setdefault(key, reason)

    def check(self, expected: List[str], outcome) -> None:
        self.attempted += len(expected)
        for key in expected:
            cell = outcome.cells.get(key)
            if key in outcome.failed:
                self._fail(key, outcome.failed[key])
            elif cell is None:
                self._fail(key, "missing from the job's output")
            elif cell.error:
                self._fail(key, cell.error)
            else:
                reference = self.reference.setdefault(key,
                                                      list(cell.fingerprint))
                if list(cell.fingerprint) != reference:
                    self._fail(key, f"fingerprint {cell.fingerprint} != "
                                    f"{tuple(reference)}")

    def check_reference_engine(self, cells) -> None:
        """Cells replayed by the reference engine must match too."""
        for key, cell in cells.items():
            self.attempted += 1
            expected = self.reference.get(key)
            if cell.error:
                self._fail(key, f"reference engine: {cell.error}")
            elif expected is None or list(cell.fingerprint) != expected:
                self._fail(key, f"reference engine gives {cell.fingerprint},"
                                f" batch gives {expected}")

    def fail_all(self, expected: List[str], reason: str) -> None:
        self.attempted += len(expected)
        for key in expected:
            self._fail(key, reason)

    def save(self) -> None:
        if self.stored or self.failed or not self.reference:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.reference, sort_keys=True))
        os.replace(tmp, self.path)


def simulated_metrics(reference: Dict[str, List]) -> Dict[str, float]:
    speedups, accuracies, coverages = [], [], []
    for speedup, accuracy, coverage, _ in reference.values():
        speedups.append(float.fromhex(speedup))
        accuracies.append(float.fromhex(accuracy))
        coverages.append(float.fromhex(coverage))
    positive = [s for s in speedups if s > 0]
    return {
        "ipc_speedup_geomean": m.geomean(positive) if positive else 0.0,
        "pf_accuracy_mean": m.mean(accuracies) if accuracies else 0.0,
        "pf_coverage_mean": m.mean(coverages) if coverages else 0.0,
    }


def layer_metrics(job, traced: List, untraced: List, probes: List,
                  cold: Dict, calibs: List[float]) -> Dict[str, float]:
    """Per-layer figures: medians over the traced repeats.

    Every timing is scaled to the reference host speed like ``wall_s``:
    seconds are multiplied by the repeat's scale, rates divided by it.
    """
    import jobs

    per_repeat: List[Dict[str, float]] = []
    cell_samples: List[float] = []
    for outcome, spans, scale in traced:
        layer = {name: 0.0 for name in PER_LAYER_UNITS}
        layer.update(outcome.layer)
        totals = m.span_totals(spans)
        own = m.self_times(spans)
        layer["traces.make_trace_s"] = totals.get("traces.make_trace", 0.0)
        if "sim.replay" in totals:
            layer["replay.baseline_s"] = totals.get("sim.baseline", 0.0)
            layer["replay.prefetched_s"] = totals["sim.replay"]
        for span in spans:
            pf = span["attrs"].get("prefetcher")
            if span["name"] == "prefetchers.generate":
                # Self time: the nested train span is counted apart.
                layer[f"gen.{pf}.infer_s"] += own[int(span["id"])]
            elif span["name"] == "prefetchers.train" and pf in jobs.TRAINED:
                layer[f"gen.{pf}.train_s"] += (float(span["end"])
                                               - float(span["start"]))
            elif span["name"] == "traces.make_trace":
                layer["traces.loads"] += job.loads
        for layer_name, seconds in m.layer_self_times(spans).items():
            key = f"self.{layer_name}_s"
            if key in layer:
                layer[key] = seconds
        layer["replay.requests"] = len(outcome.cells) * job.loads
        layer["replay.engine_fallbacks"] = sum(
            cell.engine != "batch" for cell in outcome.cells.values())
        if job.prefix:
            busy = sum(outcome.cell_s)
            efficiency = m.parallel_efficiency(busy, job.workers,
                                               outcome.wall_s)
            layer[f"{job.prefix}.cells_per_s"] = (len(outcome.cells)
                                                  / outcome.wall_s)
            layer[f"{job.prefix}.parallel_efficiency"] = efficiency["value"]
            layer[f"{job.prefix}.cell_time_sum_s"] = busy
            if job.prefix == "grid":
                layer["grid.wall_s"] = outcome.wall_s
                cell_samples.extend(c * scale for c in outcome.cell_s)
        layer["trace.spans"] = len(spans)
        layer["trace.traced_wall_s"] = outcome.wall_s
        for name, unit in PER_LAYER_UNITS.items():
            if unit == "s":
                layer[name] *= scale
            elif unit == "1/s":
                layer[name] /= scale
        per_repeat.append(layer)
    result = {name: m.median([r[name] for r in per_repeat])
              for name in PER_LAYER_UNITS}
    if cell_samples:
        pct, tail, n = m.tail_percentile(cell_samples)
        result["grid.cell_s_p50"] = m.median(cell_samples)
        result["grid.cell_s_tail"] = tail
        result["grid.cell_s_tail_pct"] = pct
        result["grid.cell_samples"] = n
    result["trace.untraced_wall_s"] = m.median(
        [o.wall_s * scale for o, scale in untraced])
    result["trace.overhead_s"] = (result["trace.traced_wall_s"]
                                  - result["trace.untraced_wall_s"])
    result["startup.import_s"] = m.median(
        [p["import_s"] * p["scale"] for p in probes])
    result["startup.kernel_load_warm_s"] = m.median(
        [p["kernel_load_s"] * p["scale"] for p in probes])
    result["startup.kernel_compile_cold_s"] = (cold["kernel_load_s"]
                                               * cold["scale"])
    result["startup.kernels_available"] = (int(probes[0]["snn_kernel"])
                                           + int(probes[0]["replay_kernel"]))
    result["host.calib_s"] = m.median(calibs)
    return result


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC.relative_to(ROOT)}/repro; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update(env)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import tempfile

    tempfile.tempdir = env["TMPDIR"]
    import numpy
    import repro

    if not str(Path(repro.__file__).resolve()).startswith(str(SRC)):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import jobs
    from repro.sim.fast_engine import ckernel as replay_ckernel
    from repro.snn import ckernel as snn_ckernel

    # Fill the warm kernel cache before anything is timed.
    kernels = {"snn_kernel": snn_ckernel.load_kernel() is not None,
               "replay_kernel": replay_ckernel.load_kernel() is not None}
    job = jobs.JOBS[args.workload](args.seed, WORK / "runs", env)
    with Calibrator(job.workers) as calibrated:
        return measure(args, env, job, kernels, calibrated)


def measure(args: argparse.Namespace, env: Dict[str, str], job,
            kernels: Dict[str, bool], calibrated: Calibrator) -> int:
    """Time, check and report one run of ``job``; returns the exit code."""
    import tempfile

    import numpy

    calibs = calibrated.times
    digest = source_digest()
    cold = None
    if args.trace:
        cold_dir = Path(tempfile.mkdtemp(prefix="cold-ckernel-",
                                         dir=env["TMPDIR"]))
        try:
            cold = probe_startup(dict(env, REPRO_CKERNEL_CACHE=str(cold_dir)))
        finally:
            shutil.rmtree(cold_dir, ignore_errors=True)

    shutil.rmtree(WORK / "runs", ignore_errors=True)
    (WORK / "runs").mkdir(parents=True)
    checker = Checker(WORK / "fingerprints"
                      / f"{job.name}-seed{args.seed}-{digest}.json")
    expected = job.expected()

    def repeat(tracer):
        gc.collect()
        try:
            outcome = job.run(tracer)
        except Exception:  # noqa: BLE001 - a broken job is a failed result
            traceback.print_exc(file=sys.stderr)
            checker.fail_all(expected, "job raised")
            return None
        checker.check(expected, outcome)
        return outcome

    # The run lasts --seconds from here.  Its first repeat warms lazy
    # imports and allocators: checked, not timed.
    deadline = time.perf_counter() + args.seconds
    repeat(NullTracer())
    untraced: List = []
    traced: List = []
    probes: List = []
    # Every timed repeat sits between two calibrations and is scaled by
    # the faster of the two: interference can only slow the loop, and
    # the loop often reads slow right after a start-up probe exits.
    # Probes interleave with the repeats, so setup_s samples the same
    # stretch of machine time as wall_s.
    calib = calibrated()
    while len(untraced) < MIN_REPEATS or time.perf_counter() < deadline:
        outcome = repeat(NullTracer())
        if outcome is None:
            break
        after = calibrated()
        untraced.append((outcome, CAL_REF_S / min(calib, after)))
        calib = after
        if args.trace:
            tracer = Tracer()
            outcome = repeat(tracer)
            if outcome is None:
                break
            after = calibrated()
            traced.append((outcome, tracer.spans,
                           CAL_REF_S / min(calib, after)))
            calib = after
        probes.append(probe_startup(env))
        calib = calibrated()
    while len(probes) < SETUP_PROBES:
        probes.append(probe_startup(env))
    rss = peak_rss_mb()

    try:
        checker.check_reference_engine(job.reference_cells())
    except Exception:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        checker.fail_all(["reference-engine"], "reference engine raised")
    checker.save()

    outcomes = [o for o, _ in untraced] + [o for o, _, _ in traced]
    engines: Dict[str, int] = {}
    for outcome in outcomes:
        for cell in outcome.cells.values():
            engines[cell.engine] = engines.get(cell.engine, 0) + 1
    degraded = [name for name, ok in kernels.items() if not ok]
    degraded += [f"engine {name} x{count}" for name, count in engines.items()
                 if name != "batch"]
    provenance = {
        "workload": job.name, "seed": args.seed, "loads": job.loads,
        "repeats": len(untraced), "traced_repeats": len(traced),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "compiler": compiler_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "src_digest": digest,
        "fingerprints": "stored" if checker.stored else "new",
        "engines": engines, **kernels,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("degraded: " + ("yes (" + ", ".join(degraded) + ")"
                          if degraded else "no"))
    for key, reason in sorted(checker.reasons.items()):
        print(f"failed cell: {key}: {reason}")
    print(f"calibration loop s (n={len(calibs)}): "
          + " ".join(f"{c:.5f}" for c in calibs))
    print(f"raw wall_s (n={len(untraced)}): "
          + " ".join(f"{o.wall_s:.4f}" for o, _ in untraced))
    print(f"raw setup_s (n={len(probes)}): "
          + " ".join(f"{p['wall_s']:.4f}" for p in probes))
    print(f"probe numpy import s (n={len(probes)}): "
          + " ".join(f"{p['numpy_import_s']:.4f}" for p in probes))

    if args.trace:
        spans_path = WORK / "spans" / f"{job.name}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for index, (_, spans, _) in enumerate(traced):
                for span in spans:
                    fh.write(json.dumps(dict(span, repeat=index),
                                        sort_keys=True) + "\n")
        print(f"spans: {spans_path.relative_to(ROOT)}")
        values = (layer_metrics(job, traced, untraced, probes, cold, calibs)
                  if traced and untraced else
                  {name: 0.0 for name in PER_LAYER_UNITS})
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": m.median([o.wall_s * scale for o, scale in untraced]
                               or [0.0]),
            "setup_s": m.median([p["wall_s"] * p["scale"]
                                 for p in probes]),
            "peak_rss_mb": rss,
            "ok_cell_ratio": m.ok_cell_ratio(checker.attempted,
                                             checker.failed),
            **simulated_metrics(checker.reference),
        }
        units = END_TO_END_UNITS
    metrics_out = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    for name, entry in metrics_out.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics_out}))
    return 0


def become_subreaper() -> None:
    """Adopt, instead of init, any process a descendant leaves orphaned.

    Linux only (``PR_SET_CHILD_SUBREAPER``); elsewhere a no-op.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> List[int]:
    """Process ids of this process's live or unreaped children."""
    pids: List[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in path.read_text().split()]
        except OSError:
            pass
    return pids


def reap_children() -> None:
    """Kill every child still there and wait for each to end.

    As a subreaper this process also holds whatever its children
    orphaned, so nothing the run started outlives it.
    """
    for _ in range(100):
        pids = children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    become_subreaper()
    # A terminated run unwinds too, so the reaping below still happens.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args)
    finally:
        reap_children()


if __name__ == "__main__":
    sys.exit(main())
