"""Incidence-matrix builders (paper Section 4.2).

Two sparse layouts turn a batch of triplets into one SpMM operand:

* **ht** — ``A ∈ {−1,0,+1}^{M×N}`` with ``+1`` at the head column and ``−1``
  at the tail column of each row; ``A @ E`` yields the per-triplet
  ``head − tail`` vectors (used by TransR and TransH).
* **hrt** — ``A ∈ {−1,0,+1}^{M×(N+R)}`` which additionally places ``+1`` at
  column ``N + relation``; multiplying by the vertically stacked
  ``[E_entities; E_relations]`` matrix yields ``head + relation − tail``
  (used by TransE and TorusE).

Every row therefore holds exactly two (ht) or three (hrt) non-zeros, so the
matrices stay extremely sparse regardless of how dense the underlying graph is
(paper Appendix B).
"""

from __future__ import annotations

from typing import Literal, Optional, Union

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_triples

Format = Literal["coo", "csr"]
SparseMat = Union[COOMatrix, CSRMatrix]


def _check_format(fmt: Format) -> None:
    if fmt not in ("coo", "csr"):
        raise ValueError(f"format must be 'coo' or 'csr', got {fmt!r}")


def _sorted_pair(heads: np.ndarray, tails: np.ndarray):
    """Head (+1) and tail (−1) entries of each row in ascending column order.

    Returns ``(lo_cols, hi_cols, lo_vals)`` (the ``hi`` value is ``−lo_vals``);
    on ``head == tail`` the head stays first — the order a stable per-row
    column sort gives, i.e. the order :meth:`COOMatrix.tocsr` produces.
    """
    swap = tails < heads
    return (np.where(swap, tails, heads), np.where(swap, heads, tails),
            np.where(swap, -1.0, 1.0))


def _direct_csr(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> CSRMatrix:
    """CSR from per-row ``(M, k)`` entries already in column order: ``indptr = k·arange``."""
    m, k = cols.shape
    indptr = k * np.arange(m + 1, dtype=np.int64)
    return CSRMatrix(indptr, cols.ravel(), vals.ravel(), (m, int(n_cols)))


def build_ht_incidence(
    triples: np.ndarray,
    n_entities: int,
    fmt: Format = "csr",
) -> SparseMat:
    """Build the ``(head − tail)`` incidence matrix for a batch of triplets.

    Parameters
    ----------
    triples:
        Integer array of shape ``(M, 3)`` holding ``(head, relation, tail)``
        indices.  The relation column is ignored here.
    n_entities:
        Number of entity rows in the embedding matrix (columns of ``A``).
    fmt:
        Output format; ``"csr"`` (default, CPU kernels) or ``"coo"``.

    Returns
    -------
    Sparse matrix of shape ``(M, n_entities)`` with exactly two non-zeros per
    row (they cancel when ``head == tail``, which is the mathematically
    correct ``h − t = 0``).
    """
    _check_format(fmt)
    triples = check_triples(triples, n_entities=n_entities)
    m = triples.shape[0]
    if fmt == "csr":
        lo, hi, lo_vals = _sorted_pair(triples[:, 0], triples[:, 2])
        return _direct_csr(np.column_stack([lo, hi]),
                           np.column_stack([lo_vals, -lo_vals]), n_entities)
    rows = np.repeat(np.arange(m, dtype=np.int64), 2)
    cols = np.empty(2 * m, dtype=np.int64)
    cols[0::2] = triples[:, 0]
    cols[1::2] = triples[:, 2]
    vals = np.empty(2 * m, dtype=np.float64)
    vals[0::2] = 1.0
    vals[1::2] = -1.0
    return COOMatrix(rows, cols, vals, (m, int(n_entities)))


def build_hrt_incidence(
    triples: np.ndarray,
    n_entities: int,
    n_relations: int,
    fmt: Format = "csr",
) -> SparseMat:
    """Build the ``(head + relation − tail)`` incidence matrix for a batch.

    The relation column index is offset by ``n_entities`` so the matrix can be
    multiplied against the vertically stacked ``[E_entities; E_relations]``
    embedding matrix (paper Section 4.2.2 and Figure 3b).

    Returns
    -------
    Sparse matrix of shape ``(M, n_entities + n_relations)`` with exactly
    three non-zeros per row.
    """
    _check_format(fmt)
    triples = check_triples(triples, n_entities=n_entities, n_relations=n_relations)
    m = triples.shape[0]
    if fmt == "csr":
        # The relation column (offset by N) exceeds every entity column, so
        # it is always last; only the head/tail pair needs ordering.
        lo, hi, lo_vals = _sorted_pair(triples[:, 0], triples[:, 2])
        cols = np.column_stack([lo, hi, triples[:, 1] + int(n_entities)])
        vals = np.column_stack([lo_vals, -lo_vals, np.ones(m, dtype=np.float64)])
        return _direct_csr(cols, vals, int(n_entities) + int(n_relations))
    rows = np.repeat(np.arange(m, dtype=np.int64), 3)
    cols = np.empty(3 * m, dtype=np.int64)
    cols[0::3] = triples[:, 0]
    cols[1::3] = triples[:, 1] + int(n_entities)
    cols[2::3] = triples[:, 2]
    vals = np.empty(3 * m, dtype=np.float64)
    vals[0::3] = 1.0
    vals[1::3] = 1.0
    vals[2::3] = -1.0
    return COOMatrix(rows, cols, vals, (m, int(n_entities) + int(n_relations)))


class IncidenceBuilder:
    """Stateful builder that also caches transposes for the backward SpMM.

    The trainer asks this object for a fresh incidence matrix per minibatch;
    the builder remembers the dataset dimensions, the output format, and hands
    back ``(A, A^T)`` pairs so the backward pass never re-transposes.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes of the knowledge graph.
    fmt:
        Sparse format handed to the SpMM backend (``"csr"`` for the SciPy /
        fused CPU kernels, ``"coo"`` for COO-oriented kernels, mirroring the
        paper's iSpLib-CSR / DGL-COO split).
    """

    def __init__(self, n_entities: int, n_relations: int, fmt: Format = "csr") -> None:
        if n_entities <= 0:
            raise ValueError(f"n_entities must be positive, got {n_entities}")
        if n_relations <= 0:
            raise ValueError(f"n_relations must be positive, got {n_relations}")
        _check_format(fmt)
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.fmt: Format = fmt

    @property
    def stacked_dim(self) -> int:
        """Number of columns of the ``hrt`` incidence matrix (``N + R``)."""
        return self.n_entities + self.n_relations

    def ht(self, triples: np.ndarray, with_transpose: bool = False):
        """Build the ``ht`` matrix (optionally with its transpose)."""
        A = build_ht_incidence(triples, self.n_entities, fmt=self.fmt)
        if not with_transpose:
            return A
        return A, A.T

    def hrt(self, triples: np.ndarray, with_transpose: bool = False):
        """Build the ``hrt`` matrix (optionally with its transpose)."""
        A = build_hrt_incidence(triples, self.n_entities, self.n_relations, fmt=self.fmt)
        if not with_transpose:
            return A
        return A, A.T

    def describe(self, triples: np.ndarray) -> dict:
        """Return sparsity statistics for the ``hrt`` matrix of ``triples``.

        Useful for the Appendix-B style report: the density depends only on
        the batch size and vocabulary, never on graph structure.
        """
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        m = triples.shape[0]
        cols = self.stacked_dim
        nnz = 3 * m
        return {
            "rows": m,
            "cols": cols,
            "nnz": nnz,
            "nnz_per_row": 3,
            "density": nnz / (m * cols) if m and cols else 0.0,
        }
