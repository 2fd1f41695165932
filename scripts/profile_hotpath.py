#!/usr/bin/env python
"""Break PATHFINDER prefetch-file generation into hot-path buckets.

Times one instrumented run of the production pipeline
(``PathfinderPrefetcher.process_batch``) and reports where
``prefetch_file_s`` goes, one bucket per pass:

- **pass1-tables** — Training-Table bookkeeping and pixel encoding
  (the encoder's LRU memo hits and misses included);
- **pass2-snn** — the SNN queries: the compiled window kernel, or the
  per-query loop when it falls back (the run's ``snn_kernel`` status
  prints alongside);
- **pass3-predict** — Inference-Table observes, weight-repair resets,
  predictions and prefetch-address composition;
- **driver/other** — everything else (trace columns, the chunk loop,
  budget enforcement).

The uninstrumented wall time prints alongside, so the wrapper cost is
visible.

The replay side gets the same treatment: one instrumented
*reference-engine* run (the parity oracle — the only engine with
per-stage seams) is broken into

- **cache-probe** — the L1/L2/LLC lookup + install path of each demand
  load, DRAM and ROB time excluded;
- **dram** — the bank-timing model (demand fills and prefetch issues);
- **rob-commit** — dispatch, ROB drain/commit, MSHR admit/fill, and
  the final cycle count;
- **pf-drain** — prefetch fill draining into the LLC plus
  per-access prefetch issue (minus its nested DRAM call);
- **driver/other** — the remainder (trigger alignment, the loop).

The batch engine's (compiled kernel) wall time prints alongside: the
buckets explain what the kernel flattens.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py \
        [--workload cc-5] [--loads 20000] [--budget 2]
        [--prefetcher pathfinder]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.runner import default_hierarchy, make_prefetcher  # noqa: E402
from repro.prefetchers.base import generate_prefetches  # noqa: E402
from repro.sim.simulator import Simulator, simulate  # noqa: E402
from repro.traces import make_trace  # noqa: E402


class Bucket:
    """Accumulated wall time + call count for one pipeline stage."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0


def wrap(obj, name, bucket):
    """Replace ``obj.name`` with a timing wrapper feeding ``bucket``."""
    inner = getattr(obj, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            bucket.seconds += time.perf_counter() - t0
            bucket.calls += 1

    setattr(obj, name, timed)


def wrap_excluding(obj, name, bucket, inner_buckets):
    """Like :func:`wrap`, but subtract time already booked to nested
    seams (``inner_buckets``) during the call, so buckets stay
    disjoint and sum to (at most) the wall time."""
    inner = getattr(obj, name)

    def timed(*args, **kwargs):
        before = sum(b.seconds for b in inner_buckets)
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            nested = sum(b.seconds for b in inner_buckets) - before
            bucket.seconds += elapsed - nested
            bucket.calls += 1

    setattr(obj, name, timed)


def profile_replay(trace, requests, prefetcher_name):
    """Replay buckets from one instrumented reference-engine run.

    Returns ``(rows, reference_s, batch_s)`` where ``rows``
    is ``[(bucket, calls, seconds), ...]`` summing (with the
    driver/other remainder) to ``reference_s``.
    """
    hierarchy = default_hierarchy()

    t0 = time.perf_counter()
    simulate(trace, requests, config=hierarchy,
             prefetcher_name=prefetcher_name, engine="batch")
    batch_s = time.perf_counter() - t0

    sim = Simulator(hierarchy, engine="reference")
    buckets = {name: Bucket()
               for name in ("cache-probe", "dram", "rob-commit",
                            "pf-drain")}
    wrap(sim.dram, "access", buckets["dram"])
    for name in ("dispatch_load", "mshr_admit", "mshr_fill",
                 "complete_load", "finalize"):
        wrap(sim.core, name, buckets["rob-commit"])
    # The demand path calls DRAM and the MSHRs inside it; the prefetch
    # issue path calls DRAM.  Exclude the nested seams so each cycle
    # of wall time lands in exactly one bucket.
    wrap_excluding(sim, "_demand_access", buckets["cache-probe"],
                   (buckets["dram"], buckets["rob-commit"]))
    wrap_excluding(sim, "_issue_prefetch", buckets["pf-drain"],
                   (buckets["dram"],))
    wrap(sim, "_drain_completed_prefetches", buckets["pf-drain"])

    t0 = time.perf_counter()
    sim.run(trace, requests, prefetcher_name)
    reference_s = time.perf_counter() - t0

    rows = [(name, bucket.calls, bucket.seconds)
            for name, bucket in buckets.items()]
    accounted = sum(seconds for _, _, seconds in rows)
    rows.append(("driver/other", len(trace),
                 max(0.0, reference_s - accounted)))
    return rows, reference_s, batch_s


def profile_generation(trace, budget):
    """Generation buckets from one instrumented production run.

    Returns ``(rows, plain_s, instrumented_s, prefetcher)`` where
    ``rows`` is ``[(bucket, calls, seconds), ...]`` summing (with the
    driver/other remainder) to ``instrumented_s``.
    """
    # Uninstrumented wall time first (it also pays any kernel compile).
    t0 = time.perf_counter()
    generate_prefetches(make_prefetcher("pathfinder"), trace, budget)
    plain_s = time.perf_counter() - t0

    pf = make_prefetcher("pathfinder")
    buckets = {"pass1-tables": "_table_pass", "pass2-snn": "_snn_pass",
               "pass3-predict": "_predict_pass"}
    timed = {}
    for bucket_name, method in buckets.items():
        timed[bucket_name] = Bucket()
        wrap(pf, method, timed[bucket_name])
    t0 = time.perf_counter()
    generate_prefetches(pf, trace, budget)
    instrumented_s = time.perf_counter() - t0

    rows = [(name, bucket.calls, bucket.seconds)
            for name, bucket in timed.items()]
    accounted = sum(seconds for _, _, seconds in rows)
    rows.append(("driver/other", len(trace),
                 max(0.0, instrumented_s - accounted)))
    return rows, plain_s, instrumented_s, pf


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Profile PATHFINDER's prefetch-file hot path")
    parser.add_argument("--workload", default="cc-5")
    parser.add_argument("--loads", type=int, default=20_000)
    parser.add_argument("--budget", type=int, default=2)
    parser.add_argument("--prefetcher", default="pathfinder",
                        help="prefetch file replayed in the replay-side "
                             "profile (generation buckets always profile "
                             "pathfinder)")
    args = parser.parse_args()

    trace = make_trace(args.workload, args.loads)

    rows, plain_s, instrumented_s, pf = profile_generation(trace,
                                                           args.budget)
    print(f"workload={args.workload} loads={args.loads} "
          f"budget={args.budget}")
    print(f"prefetch_file_s: {plain_s:.4f} "
          f"({instrumented_s:.4f} instrumented)")
    print(f"SNN kernel: {pf.snn_kernel}; "
          f"queries: {pf.snn_queries}; encoder cache hits/misses: "
          f"{pf.encoder.cache_hits}/{pf.encoder.cache_misses}")
    print()
    print(f"{'bucket':<14} {'calls':>8} {'seconds':>9} {'share':>7}")
    for name, calls, seconds in rows:
        print(f"{name:<14} {calls:>8} {seconds:>9.4f} "
              f"{seconds / instrumented_s:>6.1%}")

    # -- replay-side buckets ---------------------------------------------
    replay_pf = make_prefetcher(args.prefetcher)
    requests = generate_prefetches(replay_pf, trace, args.budget)
    replay_rows, reference_s, batch_s = profile_replay(
        trace, requests, args.prefetcher)
    print()
    print(f"replay of {args.prefetcher} prefetch file "
          f"({len(requests)} requests)")
    print(f"reference replay_s: {reference_s:.4f} (instrumented)")
    print(f"batch replay_s:     {batch_s:.4f} "
          f"({reference_s / batch_s:.2f}x vs instrumented reference)")
    print()
    print(f"{'bucket':<14} {'calls':>8} {'seconds':>9} {'share':>7}")
    for name, calls, seconds in replay_rows:
        print(f"{name:<14} {calls:>8} {seconds:>9.4f} "
              f"{seconds / reference_s:>6.1%}")

    # -- series overhead --------------------------------------------------
    # The windowed series collector must be near-free: generation + batch
    # replay of the default bench cell, best of `repeats`, with and
    # without a recorder attached.  Results are parity-checked, so this
    # bucket prices pure telemetry.
    from repro.obs import Observability, SeriesCollector

    def timed_cell(with_series):
        obs = (Observability(series=SeriesCollector())
               if with_series else None)
        pf = make_prefetcher(args.prefetcher)
        recorder = None
        if obs is not None:
            recorder = obs.series.recorder(
                component="generation", prefetcher=args.prefetcher,
                trace=args.workload)
        t0 = time.perf_counter()
        reqs = generate_prefetches(pf, trace, args.budget,
                                   recorder=recorder)
        simulate(trace, reqs, config=hierarchy,
                 prefetcher_name=args.prefetcher, obs=obs, engine="batch")
        return time.perf_counter() - t0

    hierarchy = default_hierarchy()
    repeats = 3
    timed_cell(True)  # warm both paths once
    plain_s = min(timed_cell(False) for _ in range(repeats))
    series_s = min(timed_cell(True) for _ in range(repeats))
    overhead = series_s / plain_s - 1.0
    print()
    print(f"series overhead (generation + batch replay, best of "
          f"{repeats})")
    print(f"plain:         {plain_s:.4f}s")
    print(f"with --series: {series_s:.4f}s")
    print(f"overhead:      {overhead:+.2%} (budget < 5%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
