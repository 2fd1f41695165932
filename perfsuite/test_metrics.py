"""Tests for the benchmark's own metric code.

Run from the root of a checkout: ``python3 -m pytest perfsuite -q``.
They run in a few seconds; only the ledger-folding test imports
``repro`` (from the checkout's ``src``).
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


# -- percentiles with sample counts ------------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert m.percentile(values, 50) == 50
    assert m.percentile(values, 90) == 90
    assert m.percentile(values, 100) == 100
    assert m.percentile([7.0], 50) == 7.0
    assert m.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        m.percentile([], 50)
    with pytest.raises(ValueError):
        m.percentile([1.0], 0)
    with pytest.raises(ValueError):
        m.percentile([1.0], 101)


@pytest.mark.parametrize("n, pct", [
    (5, 50.0),      # too few for ten beyond the median: median, n says so
    (20, 50.0),     # exactly ten beyond the median
    (39, 50.0),     # 9.75 beyond p75: not enough
    (40, 75.0),
    (99, 75.0),     # 9.9 beyond p90
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = [float(i) for i in range(n)]
    got_pct, value, count = m.tail_percentile(values)
    assert (got_pct, count) == (pct, n)
    assert value == m.percentile(values, pct)
    beyond = sum(v > value for v in values)
    assert beyond >= m.MIN_BEYOND or got_pct == m.TAIL_LADDER[0]


def test_median():
    assert m.median([3.0, 1.0, 2.0]) == 2.0
    assert m.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        m.median([])


# -- geometric mean, ratios with bases ---------------------------------------

def test_geomean():
    assert m.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert m.geomean([1.05]) == pytest.approx(1.05)
    assert m.geomean([1.0, 1.0, 1.0]) == 1.0
    # Order does not matter and it sits between min and max.
    values = [1.01, 1.2, 0.97, 1.05]
    assert m.geomean(values) == pytest.approx(m.geomean(values[::-1]))
    assert min(values) < m.geomean(values) < max(values)
    with pytest.raises(ValueError):
        m.geomean([])
    with pytest.raises(ValueError):
        m.geomean([1.0, 0.0])


def test_ratio_keeps_bases():
    r = m.ratio(3.0, 4.0)
    assert r == {"value": 0.75, "numerator": 3.0, "denominator": 4.0}
    with pytest.raises(ValueError):
        m.ratio(1.0, 0.0)


def test_parallel_efficiency_bases():
    r = m.parallel_efficiency(busy_s=6.0, workers=2, wall_s=4.0)
    assert r["value"] == 0.75
    assert r["numerator"] == 6.0 and r["denominator"] == 8.0
    with pytest.raises(ValueError):
        m.parallel_efficiency(1.0, 0, 1.0)


# -- failed-cell ratio -------------------------------------------------------

def test_ok_cell_ratio():
    assert m.ok_cell_ratio(100, 0) == 1.0
    assert m.ok_cell_ratio(100, 1) == pytest.approx(0.99)
    assert m.ok_cell_ratio(4, 4) == 0.0
    with pytest.raises(ValueError):
        m.ok_cell_ratio(0, 0)
    with pytest.raises(ValueError):
        m.ok_cell_ratio(3, 4)
    with pytest.raises(ValueError):
        m.ok_cell_ratio(3, -1)


# -- name validation ---------------------------------------------------------

@pytest.mark.parametrize("name", [
    "wall_s", "gen.pathfinder-nl-sisb.infer_s", "9lives", "a" * 64,
    "grid.cell_s_p50"])
def test_valid_names(name):
    assert m.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_wall", ".x", "-x", "a" * 65, "gen.pathfinder+nl.infer_s",
    "wall s", "wall/s", "naïve"])
def test_invalid_names(name):
    assert not m.valid_name(name)


def test_metric_key_maps_plus_to_dash():
    assert m.metric_key("pathfinder+nl+sisb") == "pathfinder-nl-sisb"
    assert m.metric_key("delta-lstm") == "delta-lstm"
    with pytest.raises(ValueError):
        m.metric_key("bad name")


# -- fingerprints and the output check ---------------------------------------

def test_fingerprint_is_exact_and_json_safe():
    fp = m.fingerprint(1.0 + 2 ** -52, 0.5, 0.25, 7)
    assert json.loads(json.dumps(fp)) == list(fp)
    assert fp != m.fingerprint(1.0, 0.5, 0.25, 7)  # one ulp apart
    assert float.fromhex(fp[0]) == 1.0 + 2 ** -52


def _outcome(cells, failed=None):
    return SimpleNamespace(
        cells={key: SimpleNamespace(fingerprint=fp, engine="batch",
                                    error=None)
               for key, fp in cells.items()},
        failed=failed or {})


def test_checker_counts_drift_missing_and_quarantine(tmp_path):
    from run import Checker

    fp = m.fingerprint(1.1, 0.5, 0.2, 3)
    other = m.fingerprint(1.1, 0.5, 0.2, 4)
    checker = Checker(tmp_path / "fp.json")
    checker.check(["a", "b"], _outcome({"a": fp, "b": fp}))
    assert (checker.attempted, checker.failed) == (2, 0)
    checker.check(["a", "b"], _outcome({"a": other, "b": fp}))
    assert (checker.attempted, checker.failed) == (4, 1)
    checker.check(["a", "b"], _outcome({"a": fp}))           # b missing
    checker.check(["a", "b"], _outcome({"a": fp, "b": fp},
                                       failed={"b": "quarantined"}))
    assert (checker.attempted, checker.failed) == (8, 3)
    assert set(checker.reasons) == {"a", "b"}
    checker.save()  # a run with failures stores nothing
    assert not (tmp_path / "fp.json").exists()


@pytest.mark.parametrize("record, failed", [
    ({"outcome": "ok", "error": None}, False),
    ({"outcome": "retried", "error": None}, False),
    ({"outcome": "ok", "error": "ValueError: boom"}, True),
    ({"outcome": "failed", "error": "WorkerCrashError"}, True),
    ({"outcome": "quarantined", "error": "x"}, True),
])
def test_ledger_error(record, failed):
    assert (m.ledger_error(record) is not None) == failed


def test_row_error():
    assert m.row_error({"engine_used": "batch"}) is None
    assert "failed" in m.row_error({"outcome": "failed", "error": "x"})
    assert "quarantined=True" in m.row_error(
        {"prefetcher_errors": 3, "quarantined": True, "error": "boom"})


def test_checker_fails_ledger_cell_with_error(tmp_path):
    """The grid records a guarded prefetcher's failure as outcome ``ok``
    with ``error`` set; the output check must count it as failed."""
    src = HERE.parent / "src"
    if not (src / "repro").is_dir():
        pytest.skip("needs the checkout's src")
    sys.path.insert(0, str(src))
    jobs = pytest.importorskip("jobs")
    from run import Checker

    def record(error):
        return {"workload": "cc-5", "prefetcher": "spp", "seed": 1,
                "outcome": "ok", "error": error, "engine_used": "batch",
                "metrics": {"speedup": 1.1, "accuracy": 0.5,
                            "coverage": 0.2, "issued": 3},
                "timings": {"prefetch_file_s": 0.1, "replay_s": 0.2}}

    expected = ["cc-5/spp/seed=1"]
    checker = Checker(tmp_path / "fp.json")
    clean = jobs.Outcome(1.0)
    jobs._ledger_cells([record(None)], clean)
    checker.check(expected, clean)
    assert checker.failed == 0
    broken = jobs.Outcome(1.0)
    jobs._ledger_cells([record("ValueError: boom")], broken)
    checker.check(expected, broken)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "boom" in checker.reasons["cc-5/spp/seed=1"]


def test_checker_stores_then_enforces_the_set(tmp_path):
    from run import Checker

    fp = m.fingerprint(1.1, 0.5, 0.2, 3)
    first = Checker(tmp_path / "fp.json")
    first.check(["a"], _outcome({"a": fp}))
    first.save()
    second = Checker(tmp_path / "fp.json")
    assert second.stored
    second.check(["a"], _outcome({"a": m.fingerprint(1.2, 0.5, 0.2, 3)}))
    assert second.failed == 1
    # The reference engine must match the stored set as well.
    third = Checker(tmp_path / "fp.json")
    third.check_reference_engine({"a": SimpleNamespace(fingerprint=fp,
                                                       error=None)})
    third.check_reference_engine({"a": SimpleNamespace(
        fingerprint=m.fingerprint(1.1, 0.5, 0.2, 9), error=None)})
    assert (third.attempted, third.failed) == (2, 1)


# -- spans and self time -----------------------------------------------------

def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "attrs": {}}


def test_self_times_subtract_children():
    spans = [_span(0, "bench.job", 0.0, 10.0),
             _span(1, "traces.make_trace", 1.0, 3.0, 0),
             _span(2, "prefetchers.generate", 3.0, 8.0, 0),
             _span(3, "sim.replay", 8.0, 9.0, 0)]
    own = m.self_times(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 5.0, 3: 1.0}
    layers = m.layer_self_times(spans)
    assert layers == {"bench": 2.0, "traces": 2.0, "prefetchers": 5.0,
                      "sim": 1.0}
    assert math.fsum(layers.values()) == 10.0


def test_self_times_merge_overlap_and_clip():
    spans = [_span(0, "a.x", 0.0, 10.0),
             _span(1, "b.y", 2.0, 6.0, 0),
             _span(2, "b.z", 4.0, 12.0, 0)]   # overlaps and overruns
    assert m.self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("bench.job"):
        with tracer.span("traces.make_trace", workload="cc-5"):
            pass
    assert [s["name"] for s in tracer.spans] == ["bench.job",
                                                 "traces.make_trace"]
    assert tracer.spans[1]["parent"] == 0
    assert tracer.spans[1]["attrs"] == {"workload": "cc-5"}
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    null = NullTracer()
    with null.span("bench.job"):
        pass
    assert not null.spans


# -- BENCHMARK.json names ----------------------------------------------------

def test_benchmark_json_names_are_valid():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [e["name"] for e in spec["end_to_end"]]
             + [e["name"] for e in spec["per_layer"]])
    assert all(m.valid_name(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"][0]
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


# -- processes the run starts --------------------------------------------------

def test_reap_children_stops_children_and_orphans():
    import subprocess

    from run import become_subreaper, children, reap_children

    become_subreaper()
    # The shell backgrounds a sleeper and exits at once, orphaning it.
    subprocess.run(["sh", "-c", "sleep 60 &"], check=True)
    child = subprocess.Popen(["sleep", "60"])
    assert child.pid in children()
    assert len(children()) == 2  # the orphan was adopted
    reap_children()
    assert children() == []


def test_calibrator_helper_answers_and_exits():
    from run import Calibrator

    with Calibrator(2) as calibrated:
        helper = calibrated._helpers[0]
        assert calibrated() > 0
    assert helper.returncode == 0
    assert len(calibrated.times) == 1
