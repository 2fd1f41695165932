"""Cross-engine parity: the batch engine must be bit-identical to the
reference loop.

The batch engine (``repro.sim.fast_engine.batch``) re-implements the
reference replay loop as a columnar plan executed by a compiled C
kernel; its only permitted difference is wall-clock time.  These tests
replay the same (trace, prefetch file) under both engines for every
registered prefetcher across three behaviourally distinct workloads
and require the *entire* :class:`~repro.sim.metrics.SimResult` —
cycles included, to the last float bit — to match.
"""

from __future__ import annotations

import warnings
from itertools import accumulate

import pytest

from repro.errors import ConfigError, EngineFallbackWarning
from repro.obs import MemorySink, Observability, Tracer
from repro.prefetchers.base import generate_prefetches
from repro.sim.cache import CacheConfig
from repro.sim.fast_engine import batch as batch_module
from repro.sim.simulator import ENGINES, HierarchyConfig, Simulator, simulate
from repro.traces.workloads import make_trace
from repro.harness.runner import PREFETCHER_FACTORIES, default_hierarchy

#: Three workloads with distinct pattern mixes: delta/interleaved-heavy,
#: temporal-replay-heavy, and irregular chase-heavy.
PARITY_WORKLOADS = ("cc-5", "471-omnetpp-s1", "605-mcf-s1")
N_ACCESSES = 2500
SEED = 11

needs_kernel = pytest.mark.skipif(
    batch_module.load_kernel() is None,
    reason="no C compiler available for the replay kernel")

#: The two parity legs of every cell.  ``fast``: the compiled kernel —
#: the fast path — must actually run, so the suite can never pass by
#: comparing the reference loop with itself.  ``batch``: the batch
#: engine as callers get it — the kernel, or its reference fallback
#: under ``REPRO_NO_SIMKERNEL=1`` (CI runs the suite both ways).
PARITY_LEGS = (pytest.param("fast", marks=needs_kernel), "batch")

_trace_cache = {}
_request_cache = {}
_reference_cache = {}


def _trace(workload: str):
    if workload not in _trace_cache:
        _trace_cache[workload] = make_trace(workload, N_ACCESSES, seed=SEED)
    return _trace_cache[workload]


def _requests(workload: str, prefetcher: str):
    key = (workload, prefetcher)
    if key not in _request_cache:
        factory = PREFETCHER_FACTORIES[prefetcher]
        _request_cache[key] = generate_prefetches(factory(), _trace(workload))
    return _request_cache[key]


def _reference(workload: str, prefetcher: str):
    key = (workload, prefetcher)
    if key not in _reference_cache:
        requests = (_requests(workload, prefetcher)
                    if prefetcher != "none" else ())
        _reference_cache[key] = simulate(
            _trace(workload), requests, default_hierarchy(), prefetcher,
            engine="reference")
    return _reference_cache[key]


def _replay_leg(leg: str, trace, requests, name: str):
    sim = Simulator(default_hierarchy(), engine="batch")
    result = sim.run(trace, requests, name)
    if leg == "fast":
        assert sim.engine_used == "batch", "the replay kernel did not run"
    return result


@pytest.mark.parametrize("engine", PARITY_LEGS)
@pytest.mark.parametrize("workload", PARITY_WORKLOADS)
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_engines_bit_identical(workload, prefetcher, engine):
    candidate = _replay_leg(engine, _trace(workload),
                            _requests(workload, prefetcher), prefetcher)
    assert candidate == _reference(workload, prefetcher)


@pytest.mark.parametrize("engine", PARITY_LEGS)
def test_engines_bit_identical_without_prefetches(engine):
    candidate = _replay_leg(engine, _trace("cc-5"), (), "none")
    assert candidate == _reference("cc-5", "none")


def test_batch_engine_is_the_default():
    sim = Simulator(default_hierarchy())
    assert sim.engine_used == "batch"


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError):
        Simulator(default_hierarchy(), engine="turbo")
    with pytest.raises(ConfigError, match="batch.*reference"):
        Simulator(default_hierarchy(), engine="fast")


def _fallback_warnings(caught):
    return [w for w in caught
            if issubclass(w.category, EngineFallbackWarning)]


@pytest.mark.parametrize("engine", ENGINES)
def test_srrip_config_falls_back_to_reference(engine):
    """An srrip level runs the reference loop; only a ``batch`` request
    is a downgrade, and it says why."""
    config = HierarchyConfig(
        llc=CacheConfig(name="LLC", sets=128, ways=16, latency=20,
                        replacement="srrip"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = Simulator(config, engine=engine)
    downgrades = _fallback_warnings(caught)
    assert len(downgrades) == (engine == "batch")
    assert all("non-LRU" in str(w.message) for w in downgrades)
    assert sim.engine_requested == "reference"
    assert sim.engine_used == "reference"
    # And the run still works end to end.
    result = sim.run(_trace("cc-5"), (), "none")
    assert result.llc_misses > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_event_tracing_falls_back_to_reference(engine):
    obs = Observability(tracer=Tracer(MemorySink()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = Simulator(default_hierarchy(), obs=obs, engine=engine)
    downgrades = _fallback_warnings(caught)
    assert len(downgrades) == (engine == "batch")
    assert all("event tracing" in str(w.message) for w in downgrades)
    assert sim.engine_used == "reference"


@needs_kernel
def test_armed_faults_keep_batch_bit_identical():
    """No fault point fires inside replay, so armed faults leave the
    batch kernel in place — silently — and bit-identical to the
    reference on a ``trace.corrupt`` trace."""
    from repro.resilience.faults import FaultPlan, corrupt_trace, injected

    with injected(FaultPlan.parse("trace.corrupt:frac=0.05", seed=2)):
        trace = corrupt_trace(make_trace("605-mcf-s1", N_ACCESSES,
                                         seed=SEED))
        assert trace != _trace("605-mcf-s1"), "the fault must fire"
        requests = generate_prefetches(PREFETCHER_FACTORIES["spp"](), trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            sim = Simulator(default_hierarchy(), engine="batch")
            batch = sim.run(trace, requests, "spp")
        reference = simulate(trace, requests, default_hierarchy(), "spp",
                             engine="reference")
    assert sim.engine_used == "batch"
    assert batch == reference


def test_compatible_requests_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        for engine in ENGINES:
            assert Simulator(default_hierarchy(),
                             engine=engine).engine_used == engine


def test_metrics_observability_parity():
    """Metrics-only observability stays on the batch engine and mirrors
    the same counters and DRAM wait histogram as the reference."""
    trace = _trace("471-omnetpp-s1")
    requests = _requests("471-omnetpp-s1", "nextline")

    def run(engine):
        obs = Observability()
        sim = Simulator(default_hierarchy(), obs=obs, engine=engine)
        result = sim.run(trace, requests, "nextline")
        return sim, result, obs.registry.snapshot()

    batch_sim, batch_result, batch_metrics = run("batch")
    ref_sim, ref_result, ref_metrics = run("reference")
    assert ref_sim.engine_used == "reference"
    assert batch_result == ref_result
    assert batch_metrics == ref_metrics


# -- trigger-alignment edge cases ---------------------------------------------
#
# The batch planner aligns prefetch triggers to trace positions before
# the kernel runs; these tests pin its edge cases against the reference.

from repro.types import MemoryAccess, PrefetchRequest, Trace  # noqa: E402


def _both_engines(trace, requests):
    reference = simulate(trace, requests, default_hierarchy(), "t",
                         engine="reference")
    batch = simulate(trace, requests, default_hierarchy(), "t",
                     engine="batch")
    return batch, reference


def test_triggers_missing_from_trace_are_ignored():
    """Prefetch triggers that name no trace instruction are silently
    dropped by both engines (ChampSim semantics)."""
    accesses = [MemoryAccess(instr_id=(i + 1) * 10, pc=0x4,
                             address=(1 << 20 | i) << 6)
                for i in range(64)]
    trace = Trace(name="t", accesses=accesses, total_instructions=641)
    requests = [PrefetchRequest(trigger_instr_id=10,
                                address=(1 << 21) << 6),
                PrefetchRequest(trigger_instr_id=15,       # no such id
                                address=(1 << 21 | 1) << 6),
                PrefetchRequest(trigger_instr_id=99_999,   # past the end
                                address=(1 << 21 | 2) << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_issued == 1


def test_non_monotone_instr_ids_take_dict_fallback():
    """Duplicate/regressing instruction ids disable searchsorted
    trigger alignment; each duplicate re-issues its list, as the
    reference loop's dict probe does."""
    ids = [10, 20, 20, 15, 30, 40, 40, 50]
    accesses = [MemoryAccess(instr_id=i, pc=0x4,
                             address=(1 << 20 | k) << 6)
                for k, i in enumerate(ids)]
    trace = Trace(name="t", accesses=accesses, total_instructions=51)
    requests = [PrefetchRequest(trigger_instr_id=20,
                                address=(1 << 21) << 6),
                PrefetchRequest(trigger_instr_id=40,
                                address=(1 << 21 | 1) << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference


def test_assured_miss_blocks_that_are_prefetch_targets_stay_scalar():
    """A first-touch block that is also a prefetch target still goes
    through the in-flight/LLC checks, so a timely prefetch converts it
    into an LLC hit."""
    blocks = [1 << 20 | k for k in range(48)]
    # Re-demand the prefetched block late enough for the fill to land.
    target = 1 << 21
    addresses = [b << 6 for b in blocks] + [target << 6]
    accesses = [MemoryAccess(instr_id=(i + 1) * 10, pc=0x4, address=a)
                for i, a in enumerate(addresses)]
    trace = Trace(name="t", accesses=accesses,
                  total_instructions=len(accesses) * 10 + 1)
    requests = [PrefetchRequest(trigger_instr_id=10, address=target << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_useful >= 1


# -- batch-engine replay planner ----------------------------------------------
#
# The batch engine plans each replay (kernel eligibility plus the CSR
# trigger alignment) before running it.  These tests pin the planner on
# its edge cases and the driver's fallback behaviour.

from repro.sim.fast_engine.planner import (  # noqa: E402
    MAX_KERNEL_INSTR_ID,
    plan_replay,
)


def _mini_trace(ids_blocks, name="t"):
    accesses = [MemoryAccess(instr_id=i, pc=0x4, address=b << 6)
                for i, b in ids_blocks]
    total = max((i for i, _ in ids_blocks), default=0) + 1
    return Trace(name=name, accesses=accesses, total_instructions=total)


def test_planner_empty_trace():
    trace = Trace(name="t", accesses=[], total_instructions=0)
    plan = plan_replay(trace.arrays(), {})
    assert plan.n == 0 and plan.kernel_eligible
    assert plan.pf_starts.tolist() == [0] and plan.pf_blocks.size == 0
    batch, reference = _both_engines(trace, ())
    assert batch == reference


def test_planner_single_access_trace():
    trace = _mini_trace([(10, 1 << 20)])
    # Prefetch-free: an all-zero CSR row.
    plan = plan_replay(trace.arrays(), {})
    assert plan.kernel_eligible and plan.fallback_reason is None
    assert plan.pf_starts.tolist() == [0, 0] and plan.pf_blocks.size == 0
    # Triggered on its only access.
    plan = plan_replay(trace.arrays(), {10: [1 << 21]})
    assert plan.pf_starts.tolist() == [0, 1]
    assert plan.pf_blocks.tolist() == [1 << 21]
    batch, reference = _both_engines(
        trace, [PrefetchRequest(trigger_instr_id=10,
                                address=(1 << 21) << 6)])
    assert batch == reference


def test_planner_aligns_triggers_in_program_order():
    ids_blocks = [((k + 1) * 10, (1 << 20) + k) for k in range(20)]
    trace = _mini_trace(ids_blocks)
    # Dict order differs from program order; id 999 names no access.
    by_trigger = {200: [(1 << 21) + 2], 50: [1 << 21],
                  999: [1 << 22], 120: [(1 << 21) + 1, (1 << 21) + 3]}
    plan = plan_replay(trace.arrays(), by_trigger)
    assert plan.kernel_eligible
    # Positions 4, 11, 19 trigger; the unknown id is dropped.
    counts = [0] * 20
    counts[4], counts[11], counts[19] = 1, 2, 1
    assert plan.pf_starts.tolist() == list(accumulate([0] + counts))
    assert plan.pf_blocks.tolist() == [1 << 21, (1 << 21) + 1,
                                       (1 << 21) + 3, (1 << 21) + 2]


def test_fill_on_window_boundary_is_bit_identical():
    """A prefetch whose fill completes exactly when a later trigger
    access dispatches: the fill must be visible to that access in
    every engine."""
    gap = 40  # wide instruction gap: fill completes before re-demand
    ids_blocks = [((k + 1) * gap, (1 << 20) + k) for k in range(30)]
    target = 1 << 21
    ids_blocks.append(((31) * gap, target))  # boundary access re-demands
    trace = _mini_trace(ids_blocks)
    requests = [PrefetchRequest(trigger_instr_id=gap, address=target << 6),
                PrefetchRequest(trigger_instr_id=15 * gap,
                                address=(target + 1) << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_useful >= 1


def test_planner_rejects_non_monotone_ids():
    trace = _mini_trace([(10, 1 << 20), (30, (1 << 20) + 1),
                         (20, (1 << 20) + 2)])
    plan = plan_replay(trace.arrays(), {})
    assert not plan.kernel_eligible
    assert "monotone" in plan.fallback_reason
    assert plan.pf_blocks.size == 0
    # The replay still runs (reference fallback) and stays bit-identical.
    batch, reference = _both_engines(trace, ())
    assert batch == reference


def test_planner_rejects_oversized_instruction_ids():
    trace = _mini_trace([(10, 1 << 20),
                         (MAX_KERNEL_INSTR_ID + 7, (1 << 20) + 1)])
    plan = plan_replay(trace.arrays(), {})
    assert not plan.kernel_eligible
    assert "bound" in plan.fallback_reason


def test_first_touch_prefetch_targets_stay_coupled():
    """A first-touch block that is also a prefetch target must not be
    classified as an assured miss once a trigger precedes it — the
    whole suffix from the first trigger is coupled."""
    ids_blocks = [((k + 1) * 10, (1 << 20) + k) for k in range(10)]
    target = (1 << 20) + 5  # first-touched at position 5, prefetched at 0
    trace = _mini_trace(ids_blocks)
    plan = plan_replay(trace.arrays(), {10: [target]})
    assert plan.pf_starts.tolist() == [0] + [1] * 10
    assert plan.pf_blocks.tolist() == [target]
    batch, reference = _both_engines(
        trace, [PrefetchRequest(trigger_instr_id=10, address=target << 6)])
    assert batch == reference


def test_batch_without_kernel_falls_back_bit_identically(monkeypatch):
    """No C compiler (or REPRO_NO_SIMKERNEL=1) must only cost speed —
    and must say so: a typed warning, ``engine_used == "reference"``,
    and no fallback timing under the ``replay_batch_s`` key."""
    from repro.harness.runner import run_prefetcher

    trace = _trace("cc-5")
    baseline = _reference("cc-5", "none")
    kernel_row = run_prefetcher(trace, PREFETCHER_FACTORIES["nextline"](),
                                baseline, default_hierarchy())
    monkeypatch.setattr(batch_module, "load_kernel", lambda: None)
    with pytest.warns(EngineFallbackWarning, match="no replay kernel"):
        row = run_prefetcher(trace, PREFETCHER_FACTORIES["nextline"](),
                             baseline, default_hierarchy())
    assert row.extras["engine_used"] == "reference"
    assert "replay_batch_s" not in row.timings
    assert row.result == kernel_row.result
    assert row.result == _reference("cc-5", "nextline")


def test_ineligible_plan_fallback_names_its_reason():
    trace = _mini_trace([(10, 1 << 20), (30, (1 << 20) + 1),
                         (20, (1 << 20) + 2)])
    sim = Simulator(default_hierarchy(), engine="batch")
    with pytest.warns(EngineFallbackWarning, match="non-monotone"):
        sim.run(trace, (), "none")
    assert sim.engine_used == "reference"
