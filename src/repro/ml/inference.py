"""Batched inference for frozen models: row-stable contractions.

Delta-LSTM and Voyager are frozen once trained, so every context a
trace chunk produces can go through the model in one batched forward
instead of one single-row forward per access.  That is only sound if a
row's prediction does not depend on which other rows share its batch:
the per-access path, a chunk of 7 and a whole-trace chunk must emit the
same prefetch file.

BLAS ``X @ W`` does not give that.  OpenBLAS picks its kernels, and so
its summation order, from the matrix shape, so one row of ``X @ W``
changes in the last bits when the number of rows changes (measured on
Delta-LSTM's 32×65 head: every row count tried from 1 to 100 gives
other bits than 1000 rows do).
numpy's unoptimised ``einsum`` sums each output element in one fixed
order whatever the row count; :func:`row_matmul` is that contraction.
Every other inference step — embedding lookups, gate nonlinearities,
row-wise argmax/argsort — is elementwise or per row already.

Rows go through the model :data:`INFER_BLOCK_ROWS` at a time, which
bounds the temporaries (embedded sequences, hidden sequences, logits)
a large chunk would otherwise allocate at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Rows per inference block.  Blocks of 512 rows measurably raise the
#: peak RSS of a Fig-4 lineup run (+13%); 64 keeps it flat and is still
#: large enough to amortise numpy's per-call overhead.  Any block size
#: gives the same bits (see :func:`row_matmul`).
INFER_BLOCK_ROWS = 64


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for 2-D ``x`` with each output row independent of the
    others: row ``i`` has the same bits however many rows ``x`` has."""
    return np.einsum("ik,kn->in", x, w, optimize=False)


def map_unique_rows(rows: np.ndarray,
                    block_fn: Callable[[np.ndarray], np.ndarray]
                    ) -> np.ndarray:
    """Apply ``block_fn`` to the distinct rows of ``rows``, block-wise.

    ``rows`` is an integer array whose first axis indexes contexts;
    ``block_fn`` maps a block of at most :data:`INFER_BLOCK_ROWS`
    contexts to a 2-D integer array with one result row per context.
    Duplicate contexts are computed once — with row-stable inference
    that is invisible in the result.  Returns one result row per input
    row, in input order.
    """
    n = rows.shape[0]
    unique, inverse = np.unique(rows.reshape(n, -1), axis=0,
                                return_inverse=True)
    unique = unique.reshape((-1,) + rows.shape[1:])
    out = [block_fn(unique[start:start + INFER_BLOCK_ROWS])
           for start in range(0, unique.shape[0], INFER_BLOCK_ROWS)]
    return np.concatenate(out)[inverse.reshape(-1)]
