"""Compiled/fused hot-path kernels (numba when importable, blocked numpy always).

The three inner loops that dominate a training step — the incidence SpMM
forward, its row-sparse backward, and the margin-ranking loss — all stream a
handful of arrays once.  The generic backends pay for that streaming several
times over: every gather materialises an ``(nnz, d)`` temporary and the loss
walks the batch four times (sub, add, relu, mean).  This module provides the
fused alternatives the ``"compiled"`` backend is built from:

* with **numba** importable, ``@njit(cache=True)`` kernels run each loop in a
  single compiled pass (one traversal, no temporaries);
* without numba, **cache-blocked** pure-numpy versions process rows in blocks
  small enough to stay in cache, so every temporary is block-sized instead of
  batch-sized.  The numpy paths are bit-identical to the reference kernels
  (same elementwise operations in the same order — blocking only changes
  *where* the partial results live, not the floating-point schedule), which
  is what the parity suite asserts.  The row-sparse backward has no blocked
  twin: without numba it is the reference's compacted-transpose SpMM.

numba is an optional dependency: nothing in this module imports it at call
time when it is absent, and every consumer falls back to the numpy path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.rowsparse import segment_sum

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default CI environment
    njit = None
    HAVE_NUMBA = False


#: Rows per block for the cache-blocked numpy kernels: sized so one block of
#: gathered rows plus the output block (~512 KB at float64) sits inside a
#: typical L2 cache.
BLOCK_BYTES = 1 << 19


def block_rows(dim: int, itemsize: int = 8) -> int:
    """Rows per cache block for a ``dim``-wide matrix (at least 64)."""
    return max(64, BLOCK_BYTES // max(1, int(dim) * int(itemsize)))


# --------------------------------------------------------------------------- #
# Fixed-nnz SpMM forward
# --------------------------------------------------------------------------- #
if HAVE_NUMBA:  # pragma: no cover - compiled path, exercised by the numba CI job

    @njit(cache=True)
    def _numba_fixed_spmm(cols, vals, X, out):
        m, k = cols.shape
        d = X.shape[1]
        for i in range(m):
            for j in range(k):
                v = vals[i, j]
                c = cols[i, j]
                for col in range(d):
                    out[i, col] += v * X[c, col]

    @njit(cache=True)
    def _numba_rowsparse_bwd(sorted_cols, sorted_rows, sorted_vals, grad,
                             unique, packed):
        nnz = sorted_cols.shape[0]
        d = grad.shape[1]
        pos = -1
        last = np.int64(-1)
        for e in range(nnz):
            c = sorted_cols[e]
            if c != last:
                pos += 1
                unique[pos] = c
                last = c
            v = sorted_vals[e]
            r = sorted_rows[e]
            for j in range(d):
                packed[pos, j] += v * grad[r, j]

    @njit(cache=True)
    def _numba_margin_fused(pos_scores, neg_scores, margin, mask):
        n = pos_scores.shape[0]
        total = 0.0
        for i in range(n):
            v = pos_scores[i] - neg_scores[i] + margin
            if v > 0.0:
                mask[i] = True
                total += v
            else:
                mask[i] = False
        return total


def fixed_spmm(cols: np.ndarray, vals: np.ndarray, X: np.ndarray,
               dtype: np.dtype) -> np.ndarray:
    """``out[i] = Σ_j vals[i, j] · X[cols[i, j]]`` for a constant-nnz pattern.

    Dispatches to the numba kernel when available, otherwise to the
    cache-blocked numpy kernel.  ``X`` may be 1-D (treated as width-1).
    """
    squeeze = X.ndim == 1
    X2 = X[:, None] if squeeze else X
    if HAVE_NUMBA:
        X2 = np.ascontiguousarray(X2, dtype=dtype)
        out = np.zeros((cols.shape[0], X2.shape[1]), dtype=dtype)
        _numba_fixed_spmm(cols, vals.astype(dtype, copy=False), X2, out)
    else:
        out = blocked_fixed_spmm(cols, vals, X2, dtype)
    return out[:, 0] if squeeze else out


def blocked_fixed_spmm(cols: np.ndarray, vals: np.ndarray, X: np.ndarray,
                       dtype: np.dtype) -> np.ndarray:
    """Cache-blocked numpy fallback for :func:`fixed_spmm` (2-D ``X`` only).

    Performs the same ``k`` gathers and ``k − 1`` adds as the unblocked fused
    kernel — bit-identical outputs — but every gathered temporary is
    block-sized, so the working set of one block iteration stays in cache
    instead of streaming ``k`` full ``(m, d)`` temporaries through memory.
    """
    m, k = cols.shape
    d = X.shape[1]
    vals = vals.astype(dtype, copy=False)
    out = np.empty((m, d), dtype=dtype)
    step = block_rows(d, np.dtype(dtype).itemsize)
    for start in range(0, m, step):
        stop = min(m, start + step)
        sl = slice(start, stop)
        np.multiply(vals[sl, 0:1], X[cols[sl, 0]], out=out[sl])
        for j in range(1, k):
            out[sl] += vals[sl, j:j + 1] * X[cols[sl, j]]
    return out


# --------------------------------------------------------------------------- #
# Fused row-sparse backward (gather + scale + coalesce in one schedule)
# --------------------------------------------------------------------------- #
def rowsparse_bwd(cols: np.ndarray, rows: np.ndarray, vals: np.ndarray,
                  grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``A^T @ grad`` in coalesced row-sparse form.

    Returns ``(unique_cols, packed_rows)`` — the
    :class:`~repro.sparse.rowsparse.RowSparseGrad` payload.  With numba the
    compiled kernel fuses the gather, the scale, and the segment-sum into one
    pass over the column-sorted entries.  Without it the entries go through
    :meth:`~repro.sparse.coo.COOMatrix.tocsr` into the same compacted-transpose
    SpMM as the reference backward (:func:`~repro.sparse.rowsparse.segment_sum`),
    so the two are bit-identical.
    """
    if HAVE_NUMBA and grad.ndim == 2 and cols.size:  # pragma: no cover - numba CI job
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        n_unique = 1 + int(np.count_nonzero(sorted_cols[1:] != sorted_cols[:-1]))
        unique = np.empty(n_unique, dtype=np.int64)
        packed = np.zeros((n_unique, grad.shape[1]), dtype=grad.dtype)
        _numba_rowsparse_bwd(sorted_cols, rows[order],
                             vals[order].astype(grad.dtype, copy=False),
                             np.ascontiguousarray(grad), unique, packed)
        return unique, packed
    n_cols = int(cols.max()) + 1 if cols.size else 0
    csr = COOMatrix(rows, cols, vals, (grad.shape[0], n_cols)).tocsr()
    return segment_sum(csr.indices, csr.indptr, csr.data, grad, n_cols)


# --------------------------------------------------------------------------- #
# Fused margin-ranking loss (forward + backward mask in one pass)
# --------------------------------------------------------------------------- #
def margin_loss_forward(pos: np.ndarray, neg: np.ndarray, margin: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(relu(pos − neg + margin), mask)`` computed in one batch pass.

    The mask is the backward pass: ``d/d pos = mask``, ``d/d neg = −mask``
    (scaled by the reduction).  The op sequence mirrors the reference exactly
    (same subtract, add, compare, multiply), so the fused loss is bit-identical
    to the unfused one.
    """
    pre = pos - neg + margin
    mask = pre > 0
    return pre * mask, mask


def margin_loss_sum(pos: np.ndarray, neg: np.ndarray, margin: float
                    ) -> Tuple[float, np.ndarray]:
    """``(Σ relu(pos − neg + margin), mask)`` — the reduced forward.

    With numba the subtract, hinge, mask write, and sum run as a single
    compiled loop over the batch (no intermediate arrays at all); the numpy
    path computes the same reduction from :func:`margin_loss_forward`'s
    output, keeping bit-identity with the reference ``.sum()``.
    """
    if HAVE_NUMBA and pos.ndim == 1:  # pragma: no cover - numba CI job
        mask = np.empty(pos.shape[0], dtype=np.bool_)
        pos64 = np.ascontiguousarray(pos, dtype=np.float64)
        neg64 = np.ascontiguousarray(neg, dtype=np.float64)
        total = _numba_margin_fused(pos64, neg64, float(margin), mask)
        return float(total), mask
    raw, mask = margin_loss_forward(pos, neg, margin)
    return raw.sum(), mask


def margin_loss_flops(n: int) -> int:
    """Analytic FLOPs of one fused margin-loss evaluation over ``n`` pairs."""
    # sub + add + compare + mask-multiply + sum
    return int(5 * n)
