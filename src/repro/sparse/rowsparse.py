"""Row-sparse gradient container for embedding-style parameters.

A minibatch of ``B`` triplets touches at most ``3 * B`` rows of the stacked
embedding matrix, yet a dense backward materialises — and the optimizer then
rewrites — all ``N + R`` rows.  :class:`RowSparseGrad` stores only the touched
rows, so the whole gradient pipeline (SpMM backward, gradient accumulation,
optimizer update) costs ``O(B * d)`` instead of ``O((N + R) * d)`` per step.

The contract mirrors ``torch.sparse``'s coalesced layout restricted to
row-level granularity:

* ``indices`` — 1-D ``int64`` array of **unique, sorted** row numbers, shape
  ``(k,)``.
* ``values`` — packed gradient rows aligned with ``indices``, shape
  ``(k,) + shape[1:]`` (usually ``(k, d)``).
* ``shape`` — the dense shape the gradient stands in for.

Custom SpMM backends that want to emit sparse gradients should build one with
:meth:`RowSparseGrad.from_rows` (which coalesces duplicates) and hand it to
``Tensor.accumulate_grad``; everything downstream — merging, densification,
and the optimizers' scatter updates — is handled by the framework.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp


def unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct values of ``ids`` (all in ``[0, n)``), found with a mark array.

    One boolean scatter plus one scan: ``O(len(ids) + n)`` and no sort.  For
    a training batch against its vocabulary (24k ids, 62k rows) that is
    0.1 ms against 4 ms for ``np.unique``.
    """
    mark = np.zeros(n, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark)


def segment_sum(targets: np.ndarray, indptr: np.ndarray, weights: np.ndarray,
                values: np.ndarray, n_targets: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sum weighted source rows into their distinct target rows with one SpMM.

    Source row ``j`` owns the entries ``indptr[j]:indptr[j + 1]`` of
    ``targets`` / ``weights`` (the CSR layout of a source-by-target matrix
    ``A``), and entry ``e`` adds ``weights[e] * values[j]`` to target
    ``targets[e]``.  Returns ``(unique_targets, packed)`` — ``A^T @ values``
    restricted to the touched targets.

    The touched targets come from :func:`unique_ids` and are remapped onto
    ``[0, k)`` monotonically, so ``A``'s CSR arrays, with the remapped
    column indices, *are* the CSC layout of the compacted ``(k, M)``
    transpose: one SciPy product, no ``(nnz, d)`` contribution array and no
    sort.  Every packed row adds its contributions starting from zero in
    ascending source row (stored order within a row) — the one summation
    order shared by every row-sparse sum in the tree.
    """
    values = np.asarray(values)
    unique = unique_ids(targets, n_targets)
    if unique.size == 0:
        return unique, values[:0]
    # SciPy has no float16 sparse kernels; narrower floats sum at float32.
    work = np.promote_types(values.dtype, np.float32) if values.dtype == np.float16 \
        else values.dtype
    remap = np.empty(n_targets, dtype=np.int64)
    remap[unique] = np.arange(unique.size, dtype=np.int64)
    compact_t = sp.csc_matrix(
        (weights.astype(work, copy=False), remap[targets], indptr),
        shape=(unique.size, values.shape[0]))
    flat = values.reshape(values.shape[0], -1).astype(work, copy=False)
    packed = np.asarray(compact_t @ flat).astype(values.dtype, copy=False)
    return unique, packed.reshape((unique.size,) + values.shape[1:])


def coalesce_rows(rows: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` over duplicate entries of ``rows``.

    Returns ``(unique_rows, packed_values)`` with ``unique_rows`` sorted.
    Runs as one :func:`segment_sum` with unit weights, so duplicates add in
    ascending position, exactly like the row-sparse SpMM backward.
    """
    rows = np.asarray(rows, dtype=np.int64)
    values = np.asarray(values)
    if rows.size == 0:
        return rows, values[:0]
    if rows.min() < 0:
        raise IndexError(f"negative row index {rows.min()}")
    indptr = np.arange(rows.size + 1, dtype=np.int64)
    return segment_sum(rows, indptr, np.ones(rows.size, dtype=values.dtype),
                       values, int(rows.max()) + 1)


class RowSparseGrad:
    """A gradient that is non-zero only on a subset of leading rows.

    Parameters
    ----------
    indices:
        Unique, sorted row indices, shape ``(k,)``.
    values:
        Gradient rows aligned with ``indices``, shape ``(k,) + shape[1:]``.
    shape:
        Dense shape of the parameter the gradient belongs to.

    Use :meth:`from_rows` when the row list may contain duplicates.
    """

    __slots__ = ("indices", "values", "shape")

    #: Structural marker so the autograd engine can recognise the type without
    #: importing this module (avoids a circular import with the tape).
    is_row_sparse = True

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, ...]) -> None:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.asarray(values)
        shape = tuple(int(s) for s in shape)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if values.shape != (indices.size,) + shape[1:]:
            raise ValueError(
                f"values must have shape {(indices.size,) + shape[1:]}, got {values.shape}"
            )
        if indices.size:
            if indices.min() < 0 or indices.max() >= shape[0]:
                raise IndexError(
                    f"row index out of range for dense shape {shape}: "
                    f"[{indices.min()}, {indices.max()}]"
                )
            if np.any(indices[1:] <= indices[:-1]):
                raise ValueError(
                    "indices must be strictly increasing (unique and sorted); "
                    "use RowSparseGrad.from_rows to coalesce duplicates"
                )
        self.indices = indices
        self.values = values
        self.shape = shape

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: np.ndarray, values: np.ndarray,
                  shape: Tuple[int, ...]) -> "RowSparseGrad":
        """Build from a (possibly duplicated) row list, coalescing on the way."""
        unique, packed = coalesce_rows(rows, np.asarray(values))
        return cls(unique, packed, shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "RowSparseGrad":
        """Build from a dense gradient, keeping rows with any ``|x| > tol``."""
        dense = np.asarray(dense)
        flat = np.abs(dense).reshape(dense.shape[0], -1) if dense.ndim > 1 else np.abs(dense)[:, None]
        rows = np.flatnonzero(flat.max(axis=1) > tol)
        return cls(rows, dense[rows].copy(), dense.shape)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of stored (touched) rows ``k``."""
        return int(self.indices.size)

    @property
    def nnz(self) -> int:
        """Number of stored scalars (``k * prod(shape[1:])``)."""
        return int(self.values.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index and value arrays."""
        return self.indices.nbytes + self.values.nbytes

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def density(self) -> float:
        """Fraction of dense rows that are stored."""
        return self.n_rows / self.shape[0] if self.shape[0] else 0.0

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def merge(self, other: "RowSparseGrad") -> "RowSparseGrad":
        """Return the sum of two row-sparse gradients (still row-sparse)."""
        if not isinstance(other, RowSparseGrad):
            raise TypeError(f"expected RowSparseGrad, got {type(other)!r}")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        rows = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.values, other.values], axis=0)
        return RowSparseGrad.from_rows(rows, vals, self.shape)

    def add_to_dense(self, dense: np.ndarray) -> np.ndarray:
        """Scatter-add the stored rows into ``dense`` in place (and return it)."""
        dense = np.asarray(dense)
        if dense.shape != self.shape:
            raise ValueError(f"dense shape {dense.shape} != gradient shape {self.shape}")
        # ``indices`` is unique, so plain fancy-index addition is safe.
        dense[self.indices] += self.values
        return dense

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the full dense gradient (the transparent fallback)."""
        out = np.zeros(self.shape, dtype=dtype if dtype is not None else self.values.dtype)
        out[self.indices] = self.values
        return out

    def scale(self, factor: float) -> "RowSparseGrad":
        """Return a copy with every value multiplied by ``factor``."""
        return RowSparseGrad(self.indices.copy(), self.values * factor, self.shape)

    def copy(self) -> "RowSparseGrad":
        """Deep copy."""
        return RowSparseGrad(self.indices.copy(), self.values.copy(), self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RowSparseGrad(shape={self.shape}, rows={self.n_rows}, "
                f"density={self.density:.4f})")
