"""On-demand compiled C kernel for the one-tick SNN hot loop.

The batched prefetch-file pipeline (docs/architecture.md, "Batched
columnar pipeline") needs the per-query rank/STDP/theta sequence to
cost well under a microsecond; a NumPy expression of the same ops
bottoms out at ~10 us/query on typical hosts because the arithmetic is
tiny (~4 KFLOP) and every ufunc call costs ~1 us of dispatch.  This
module compiles a ~150-line C translation of
:meth:`~repro.snn.network.DiehlCookNetwork.present_one_tick`'s fast
path with the system C compiler and binds it through :mod:`ctypes`.

Bit-identity contract
---------------------
The C code performs *exactly* the same IEEE-754 double operations in
the same order as the NumPy fast path:

- the drive accumulation matches ``np.add.reduce(rows, axis=0)``
  (strictly sequential over rows, seeded with the first row);
- the column total matches NumPy's 1-D ``add.reduce`` by porting its
  pairwise summation (8-accumulator unrolled blocks of <= 128, halved
  recursively above that);
- clip uses NaN-propagating compares identical to
  ``np.maximum``/``np.minimum``;
- it is compiled with ``-ffp-contract=off -fno-fast-math`` so no FMA
  contraction or reassociation can change results.

The winner is the first index attaining the maximal score, which
matches ``np.negative(scores).argsort()[0]`` whenever the top score is
unique (always, in practice: scores are quotients of evolving weight
sums — the parity suites assert end-to-end identical prefetch files).

If no compiler is available (or ``REPRO_NO_CKERNEL=1`` is set)
PATHFINDER's pass 2 runs its queries one at a time through the NumPy
hot path — slower, never wrong — and says so with an
:class:`~repro.errors.EngineFallbackWarning`.  Compiling, caching and
loading are :mod:`repro._cbuild`'s job (``$REPRO_CKERNEL_CACHE``).
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from .._cbuild import KernelLoader

#: C translation of the one-tick fast path.  Kept as a string (not a
#: data file) so the module is self-contained under any packaging.
C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* NumPy's 1-D pairwise summation (numpy/_core/src/umath/loops.c.src,
 * pairwise_sum_DOUBLE) for a contiguous buffer: bit-identical partial
 * sums, required so the renormalisation total matches np.add.reduce. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        int64_t i;
        double res = 0.;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else if (n <= 128) {
        double r[8], res;
        int64_t i;
        r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
        r[4] = a[4]; r[5] = a[5]; r[6] = a[6]; r[7] = a[7];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double pf_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* The scan of DiehlCookNetwork.check_weight_health: any non-finite
 * weight, theta, or membrane value.  Runs on the same cadence as the
 * scalar path; a hit makes the window kernel return early so Python
 * can run the (seeded, stateful) repair. */
static int any_nonfinite(const double *w, const double *theta,
                         const double *v,
                         int64_t n_input, int64_t n_neurons)
{
    int64_t i;
    for (i = 0; i < n_input * n_neurons; i++) {
        if (!isfinite(w[i])) return 1;
    }
    for (i = 0; i < n_neurons; i++) {
        if (!isfinite(theta[i]) || !isfinite(v[i])) return 1;
    }
    return 0;
}

/* One window of one-tick presentations.  Mirrors
 * DiehlCookNetwork.present_one_tick's fast path (binary rates, sparse
 * active support) op for op; see that method for the derivation.
 *
 *   w           (n_input, n_neurons) C-contiguous weights, updated
 *   theta       (n_neurons,) adaptive thresholds, updated
 *   v           (n_neurons,) membrane potentials (health scan only)
 *   active_flat concatenated active-pixel indices for all queries
 *   starts      (n_queries + 1,) offsets into active_flat
 *   learn       (n_queries,) per-query STDP/adaptation flags
 *   intervals   intervals_presented before this window (for the
 *               health-check cadence)
 *   drive_buf   (n_neurons,) scratch
 *   column_buf  (n_input,) scratch
 *   winners     (n_queries,) output
 *
 * Returns the number of queries fully presented: n_queries normally,
 * fewer iff a due health scan saw a non-finite value — the caller
 * then runs the scalar repair path from that point.
 */
int64_t pf_tick_window(
    double *w, double *theta, const double *v,
    const int64_t *active_flat, const int64_t *starts,
    const unsigned char *learn,
    int64_t n_queries, int64_t n_input, int64_t n_neurons,
    int64_t intervals, int64_t health_interval,
    double threshold_gap, int clamp_gap, double max_probability,
    int do_stdp, double stdp_d0, double stdp_d1,
    double w_min, double w_max, int has_norm, double norm,
    double theta_plus, int has_theta_max, double theta_max,
    double theta_decay,
    double *drive_buf, double *column_buf,
    int64_t *winners)
{
    int64_t b, c, i, k;
    for (b = 0; b < n_queries; b++) {
        const int64_t *act = active_flat + starts[b];
        int64_t n_active = starts[b + 1] - starts[b];

        /* drive = add.reduce(w.take(active, axis=0), axis=0) * P */
        if (n_active > 0) {
            const double *row = w + act[0] * n_neurons;
            for (c = 0; c < n_neurons; c++) {
                drive_buf[c] = row[c];
            }
            for (k = 1; k < n_active; k++) {
                row = w + act[k] * n_neurons;
                for (c = 0; c < n_neurons; c++) {
                    drive_buf[c] += row[c];
                }
            }
            for (c = 0; c < n_neurons; c++) {
                drive_buf[c] *= max_probability;
            }
        }
        else {
            for (c = 0; c < n_neurons; c++) {
                drive_buf[c] = 0.0;
            }
        }

        /* scores = drive / (theta + threshold_gap); first-max argmax */
        int64_t winner = 0;
        double best = -INFINITY;
        for (c = 0; c < n_neurons; c++) {
            double gap = theta[c] + threshold_gap;
            if (clamp_gap && gap < 1e-9) {
                gap = 1e-9;
            }
            double score = drive_buf[c] / gap;
            if (score > best) {
                best = score;
                winner = c;
            }
        }
        winners[b] = winner;

        if (learn[b]) {
            if (do_stdp) {
                double *wcol = w + winner;
                for (i = 0; i < n_input; i++) {
                    column_buf[i] = wcol[i * n_neurons] + stdp_d0;
                }
                for (k = 0; k < n_active; k++) {
                    int64_t a = act[k];
                    column_buf[a] = wcol[a * n_neurons] + stdp_d1;
                }
                /* np.maximum / np.minimum: NaN-propagating, and ties
                 * (incl. -0.0 vs 0.0) resolve to the second operand. */
                for (i = 0; i < n_input; i++) {
                    double v = column_buf[i];
                    v = (v > w_min || isnan(v)) ? v : w_min;
                    v = (v < w_max || isnan(v)) ? v : w_max;
                    column_buf[i] = v;
                }
                if (has_norm) {
                    double total = pairwise_sum(column_buf, n_input);
                    if (total == 0.0) {
                        total = 1.0;
                    }
                    double scale = norm / total;
                    for (i = 0; i < n_input; i++) {
                        column_buf[i] *= scale;
                    }
                }
                for (i = 0; i < n_input; i++) {
                    wcol[i * n_neurons] = column_buf[i];
                }
            }
            if (theta_plus != 0.0) {
                double tw = theta[winner];
                if (has_theta_max) {
                    double room = 1.0 - tw / theta_max;
                    if (!(room > 0.0)) {
                        room = 0.0;
                    }
                    theta[winner] = tw + theta_plus * room;
                }
                else {
                    theta[winner] = tw + theta_plus;
                }
            }
            for (c = 0; c < n_neurons; c++) {
                theta[c] *= theta_decay;
            }
        }

        intervals++;
        if (intervals % health_interval == 0
                && any_nonfinite(w, theta, v, n_input, n_neurons)) {
            return b + 1;
        }
    }
    return n_queries;
}
"""

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)

class TickKernel:
    """ctypes binding of the compiled one-tick window kernel."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        fn = lib.pf_tick_window
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, _INT64_P, _INT64_P, _UINT8_P,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_int, ctypes.c_double,
            ctypes.c_int, ctypes.c_double, ctypes.c_double,
            ctypes.c_double, ctypes.c_double, ctypes.c_int,
            ctypes.c_double, ctypes.c_double, ctypes.c_int,
            ctypes.c_double, ctypes.c_double,
            _DOUBLE_P, _DOUBLE_P, _INT64_P,
        ]
        self._tick = fn
        ps = lib.pf_pairwise_sum
        ps.restype = ctypes.c_double
        ps.argtypes = [_DOUBLE_P, ctypes.c_int64]
        self._pairwise = ps

    def pairwise_sum(self, values: np.ndarray) -> float:
        """The kernel's pairwise sum (exposed for the parity tests)."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        return self._pairwise(values.ctypes.data_as(_DOUBLE_P),
                              values.size)

    def tick_window(self, w, theta, v, active_flat, starts, learn,
                    winners, *, intervals, health_interval,
                    threshold_gap, clamp_gap, max_probability,
                    do_stdp, stdp_d0, stdp_d1, w_min, w_max, norm,
                    theta_plus, theta_max, theta_decay,
                    drive_buf, column_buf) -> int:
        """Present the whole window; return queries fully processed."""
        return self._tick(
            w.ctypes.data_as(_DOUBLE_P),
            theta.ctypes.data_as(_DOUBLE_P),
            v.ctypes.data_as(_DOUBLE_P),
            active_flat.ctypes.data_as(_INT64_P),
            starts.ctypes.data_as(_INT64_P),
            learn.ctypes.data_as(_UINT8_P),
            len(learn), w.shape[0], w.shape[1],
            intervals, health_interval,
            threshold_gap, int(clamp_gap), max_probability,
            int(do_stdp), stdp_d0, stdp_d1,
            w_min, w_max, int(norm is not None),
            0.0 if norm is None else norm,
            theta_plus, int(theta_max is not None),
            0.0 if theta_max is None else theta_max,
            theta_decay,
            drive_buf.ctypes.data_as(_DOUBLE_P),
            column_buf.ctypes.data_as(_DOUBLE_P),
            winners.ctypes.data_as(_INT64_P),
        )


_loader = KernelLoader(C_SOURCE, prefix="tick",
                       disable_env="REPRO_NO_CKERNEL", bind=TickKernel,
                       link_flags=("-lm",))


def load_kernel() -> Optional[TickKernel]:
    """The process-wide compiled kernel, or ``None`` if unavailable.

    Compiles on first call (cached on disk afterwards).  Returns
    ``None`` — and PATHFINDER's pass 2 falls back to its per-query
    loop — when ``REPRO_NO_CKERNEL=1``, no C compiler is on PATH, or
    compilation/loading fails for any reason.
    """
    return _loader.load()
