"""The Memory Access Pixel Matrix encoder (paper §3.2, §3.4).

A delta history of length H becomes an H × D binary image: row *r*
lights the column for the r-th delta (column ``delta + (D-1)/2``).
Three refinements from §3.4 are implemented, each independently
switchable for the Figure 9 ablation ladder:

- **Enlarged pixels** — each lit pixel also lights its row neighbours,
  amplifying the extremely sparse input so neurons actually fire.
- **Middle-delta shift** — the middle row's column is offset by a fixed
  constant, de-aliasing histories whose enlarged pixels would
  otherwise cluster.
- **Reordering** — a fixed bit-reversal-style permutation of columns is
  applied before enlargement, so adjacent delta values land far apart
  and their enlarged blobs stop overlapping.  (The paper describes the
  reorder only as "aids in optimizing the processing flow"; this is
  our concrete interpretation, documented in DESIGN.md.)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .config import PathfinderConfig


@dataclass(frozen=True)
class SparseEncoding:
    """A pixel-rate vector plus its precomputed support.

    Both arrays are marked read-only because instances are shared
    through the encoder's LRU cache; consumers that need to scale the
    rates (e.g. intensity boosting) copy first.

    Attributes:
        rates: Dense float intensities, shape ``(n_input,)``.
        active: Sorted flat indices of the nonzero pixels — exactly
            ``np.flatnonzero(rates)``, precomputed so the SNN hot path
            never has to scan the (overwhelmingly zero) vector.
    """

    rates: np.ndarray
    active: np.ndarray


def _spread_permutation(width: int) -> np.ndarray:
    """A fixed permutation that maps adjacent columns far apart.

    Columns are re-ordered by a stride walk with a stride co-prime to
    the width, which sends neighbouring delta values to distant pixels.
    """
    stride = max(2, int(np.ceil(np.sqrt(width))))
    while np.gcd(stride, width) != 1:
        stride += 1
    return (np.arange(width) * stride) % width


class PixelMatrixEncoder:
    """Encodes delta histories into flat pixel-intensity vectors.

    The output is a float vector of length ``D * H`` with values in
    [0, 1], ready for Poisson rate coding by the SNN.
    """

    def __init__(self, config: PathfinderConfig):
        self.config = config
        self._width = config.delta_range
        self._height = config.history
        self._center = config.max_delta
        self._permutation: Optional[np.ndarray] = (
            _spread_permutation(self._width) if config.reorder_pixels else None)
        # Per-(row, delta-column) lit-index tables: every shift /
        # permutation / enlargement decision is resolved once here, so
        # encoding a history is H table lookups and one scatter.
        self._row_tables = self._build_row_tables()
        self._cache: "OrderedDict[Tuple[int, ...], SparseEncoding]" = \
            OrderedDict()
        self._cache_size = getattr(config, "encoder_cache_size", 4096)
        self.cache_hits = 0
        self.cache_misses = 0

    def _build_row_tables(self) -> List[List[np.ndarray]]:
        """Precompute the lit flat indices for every (row, column).

        ``tables[row][delta + max_delta]`` is the sorted array of flat
        pixel indices that :meth:`encode` would light for that delta in
        that row (middle-shift, permutation, and enlargement already
        applied).
        """
        cfg = self.config
        middle = self._height // 2
        tables: List[List[np.ndarray]] = []
        for row in range(self._height):
            base = row * self._width
            entries: List[np.ndarray] = []
            for raw in range(self._width):
                column = raw
                if row == middle and self._height >= 3:
                    column = min(self._width - 1,
                                 max(0, column + cfg.middle_shift))
                if self._permutation is not None:
                    column = int(self._permutation[column])
                lit = {column}
                if cfg.enlarge_pixels:
                    for offset in range(1, cfg.enlarge_radius + 1):
                        for neighbour in (column - offset, column + offset):
                            if 0 <= neighbour < self._width:
                                lit.add(neighbour)
                indices = base + np.array(sorted(lit), dtype=np.intp)
                indices.setflags(write=False)
                entries.append(indices)
            tables.append(entries)
        return tables

    @property
    def n_input(self) -> int:
        """Length of the encoded vector (D × H)."""
        return self._width * self._height

    def in_range(self, delta: int) -> bool:
        """Whether a delta is representable in the pixel matrix."""
        return -self.config.max_delta <= delta <= self.config.max_delta

    def encode(self, deltas: Sequence[int]) -> np.ndarray:
        """Encode a delta history (most recent last) into pixel rates.

        Uses the precomputed lit-index tables; returns a fresh writable
        vector, bit-identical to :meth:`encode_reference`.

        Args:
            deltas: Exactly H values; each must be in range (a zero is
                legal — it is used by the cold-page encodings).

        Raises:
            ConfigError: on wrong history length or out-of-range delta.
        """
        if len(deltas) != self._height:
            raise ConfigError(
                f"expected {self._height} deltas, got {len(deltas)}")
        rates = np.zeros(self.n_input, dtype=float)
        for row, delta in enumerate(deltas):
            if not self.in_range(delta):
                raise ConfigError(f"delta {delta} outside pixel matrix range")
            rates[self._row_tables[row][delta + self._center]] = 1.0
        return rates

    def encode_reference(self, deltas: Sequence[int]) -> np.ndarray:
        """Original per-pixel encoding loop, kept for parity tests."""
        cfg = self.config
        if len(deltas) != self._height:
            raise ConfigError(
                f"expected {self._height} deltas, got {len(deltas)}")
        rates = np.zeros(self.n_input, dtype=float)
        middle = self._height // 2
        for row, delta in enumerate(deltas):
            if not self.in_range(delta):
                raise ConfigError(f"delta {delta} outside pixel matrix range")
            column = delta + self._center
            if row == middle and self._height >= 3:
                column = min(self._width - 1,
                             max(0, column + cfg.middle_shift))
            if self._permutation is not None:
                column = int(self._permutation[column])
            self._light(rates, row, column)
        return rates

    def _light(self, rates: np.ndarray, row: int, column: int) -> None:
        base = row * self._width
        rates[base + column] = 1.0
        if not self.config.enlarge_pixels:
            return
        for offset in range(1, self.config.enlarge_radius + 1):
            for neighbour in (column - offset, column + offset):
                if 0 <= neighbour < self._width:
                    rates[base + neighbour] = 1.0

    # -- cold-page special encodings (paper §3.4) ---------------------------

    def encode_history(self, deltas: Sequence[int],
                       first_offset: Optional[int] = None) -> Optional[np.ndarray]:
        """Encode a possibly-short history using the cold-page scheme.

        With ``cold_page_encoding`` enabled, short histories map to the
        paper's special cases (for H = 3):

        - no deltas yet, first offset known → ``{OF1, 0, 0}``
        - one delta D1 → ``{0, 0, D1}`` (zeroes lead, so an offset
          pattern and a delta pattern stay distinguishable)
        - two deltas → ``{0, D1, D2}``

        Out-of-range values (an offset can exceed a reduced delta
        range) are clipped into range.  Returns ``None`` when nothing
        can be encoded (short history with the feature disabled).
        """
        cfg = self.config
        deltas = [self._clip(d) for d in deltas]
        if len(deltas) >= self._height:
            return self.encode(list(deltas[-self._height:]))
        if not cfg.cold_page_encoding:
            return None
        if not deltas:
            if first_offset is None:
                return None
            padded = [self._clip(first_offset)] + [0] * (self._height - 1)
            return self.encode(padded)
        padded = [0] * (self._height - len(deltas)) + list(deltas)
        return self.encode(padded)

    def encode_padded_key(self, key: Tuple[int, ...]) -> SparseEncoding:
        """Memoised sparse encoding of an already-padded, in-range key.

        PATHFINDER's table pass builds the padded history key itself
        (the :meth:`encode_history` cold-page padding; its deltas are
        in range by construction) and looks it up here.  Results are
        cached (LRU, keyed by the padded history) — delta histories
        repeat heavily in real traces, so most accesses skip encoding
        entirely.  The returned arrays are read-only and shared; the
        ``rates`` values are bit-identical to :meth:`encode` and
        ``active`` equals ``np.flatnonzero(rates)``.
        """
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        # Rows occupy disjoint, increasing index ranges and each table
        # is sorted, so concatenating in row order is already the
        # sorted unique support.
        active = np.concatenate(
            [self._row_tables[row][delta + self._center]
             for row, delta in enumerate(key)])
        rates = np.zeros(self.n_input, dtype=float)
        rates[active] = 1.0
        rates.setflags(write=False)
        active.setflags(write=False)
        encoding = SparseEncoding(rates=rates, active=active)
        if self._cache_size > 0:
            self._cache[key] = encoding
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return encoding

    def cache_clear(self) -> None:
        """Drop all memoised encodings and reset the hit/miss counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _clip(self, value: int) -> int:
        bound = self.config.max_delta
        return max(-bound, min(bound, value))


def history_key(deltas: Sequence[int]) -> tuple:
    """Canonical hashable form of a delta history."""
    return tuple(int(d) for d in deltas)
