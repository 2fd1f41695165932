"""Pure metric helpers for the benchmark (no I/O, no ``repro`` import).

Everything here is small arithmetic the benchmark's own tests pin:
medians and tail percentiles with their sample counts, geometric
means, ratios that keep their bases, metric-name validation, the
per-cell output fingerprint, the failed-cell ratio, and layer self
time from a list of spans.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Metric and workload names: a letter or digit, then up to 63 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """True when ``name`` is a legal metric or workload name."""
    return bool(NAME_RE.fullmatch(name))


def metric_key(prefetcher: str) -> str:
    """A prefetcher registry name as a metric-name fragment (``+`` → ``-``)."""
    key = prefetcher.replace("+", "-")
    if not valid_name(key):
        raise ValueError(f"prefetcher {prefetcher!r} gives no valid name")
    return key


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` in ``n`` samples (float-safe)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(values: Sequence[float]
                    ) -> Tuple[float, float, int]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``(pct, value, n)``.  With too few samples for even the
    median to have ten beyond it, the median is returned and the
    sample count says how little it rests on.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of no samples")
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            chosen = pct
    return chosen, percentile(values, chosen), n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return math.fsum(values) / len(values)


def ratio(numerator: float, denominator: float) -> Dict[str, float]:
    """A ratio with both of its bases, so it is never quoted bare."""
    if denominator == 0:
        raise ValueError("ratio with a zero base")
    return {"value": numerator / denominator,
            "numerator": numerator, "denominator": denominator}


def parallel_efficiency(busy_s: float, workers: int, wall_s: float
                        ) -> Dict[str, float]:
    """Σ busy time / (workers × wall), with both bases."""
    if workers <= 0:
        raise ValueError("parallel efficiency needs at least one worker")
    return ratio(busy_s, workers * wall_s)


def ok_cell_ratio(attempted: int, failed: int) -> float:
    """Share of attempted cells that ran, were not quarantined and passed
    the output check: ``1 - failed / attempted``."""
    if attempted <= 0:
        raise ValueError("no cells attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return 1.0 - failed / attempted


# ---------------------------------------------------------------------------
# Output fingerprints
# ---------------------------------------------------------------------------

def fingerprint(speedup: float, accuracy: float, coverage: float,
                issued: int) -> Tuple[str, str, str, int]:
    """An exact, JSON-safe cell fingerprint (floats as hex)."""
    return (float(speedup).hex(), float(accuracy).hex(),
            float(coverage).hex(), int(issued))


def row_error(extras: Dict[str, object]) -> Optional[str]:
    """Why an ``EvalRow`` (by its ``extras``) is a failed cell, or None.

    A row fails when its cell exhausted its retries, or when the
    prefetcher behind the guard raised (and was possibly quarantined).
    """
    if extras.get("outcome") == "failed":
        return f"failed: {extras.get('error')}"
    if extras.get("prefetcher_errors"):
        return (f"prefetcher errors ({extras.get('prefetcher_errors')}, "
                f"quarantined={extras.get('quarantined')}): "
                f"{extras.get('error')}")
    return None


def ledger_error(record: Dict[str, object]) -> Optional[str]:
    """Why a run-ledger cell record is a failed cell, or None.

    A record fails when its outcome is neither ``ok`` nor ``retried``,
    or when it carries an ``error``: the grid records a guarded
    prefetcher's failure there while the outcome still reads ``ok``.
    """
    outcome = record.get("outcome")
    if outcome not in ("ok", "retried"):
        return f"{outcome}: {record.get('error')}"
    if record.get("error") is not None:
        return f"prefetcher error: {record['error']}"
    return None


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

Span = Dict[str, object]  # {"id", "name", "start", "end", "parent"}


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children of one parent may overlap (they are merged first), and a
    child's interval is clipped to its parent's.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: float(s["start"])):
            lo = max(float(child["start"]), cursor)
            hi = min(float(child["end"]), end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[int(span["id"])] = (end - start) - covered
    return result


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    per_span = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(str(span["name"]))
        totals[layer] = totals.get(layer, 0.0) + per_span[int(span["id"])]
    return totals


def span_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Inclusive duration summed per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        name = str(span["name"])
        totals[name] = (totals.get(name, 0.0)
                        + float(span["end"]) - float(span["start"]))
    return totals
