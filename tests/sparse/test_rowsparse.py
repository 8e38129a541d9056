"""Tests for the row-sparse gradient container."""

import numpy as np
import pytest

from repro.sparse import RowSparseGrad, coalesce_rows
from repro.sparse.incidence import build_hrt_incidence
from repro.sparse.rowsparse import segment_sum, unique_ids
from repro.sparse.spmm import _rowsparse_backward


class TestCoalesceRows:
    def test_sums_duplicates(self):
        rows = np.array([3, 1, 3, 1, 0])
        values = np.arange(10.0).reshape(5, 2)
        unique, packed = coalesce_rows(rows, values)
        np.testing.assert_array_equal(unique, [0, 1, 3])
        np.testing.assert_allclose(packed[1], values[1] + values[3])
        np.testing.assert_allclose(packed[2], values[0] + values[2])
        np.testing.assert_allclose(packed[0], values[4])

    def test_already_unique_sorted(self):
        rows = np.array([0, 2, 5])
        values = np.ones((3, 4))
        unique, packed = coalesce_rows(rows, values)
        np.testing.assert_array_equal(unique, rows)
        np.testing.assert_allclose(packed, values)

    def test_empty(self):
        unique, packed = coalesce_rows(np.array([], dtype=np.int64),
                                       np.empty((0, 3)))
        assert unique.size == 0
        assert packed.shape == (0, 3)


class TestRowSparseGrad:
    def test_from_rows_coalesces(self):
        rsg = RowSparseGrad.from_rows(
            np.array([4, 0, 4]), np.ones((3, 2)), (6, 2)
        )
        np.testing.assert_array_equal(rsg.indices, [0, 4])
        np.testing.assert_allclose(rsg.values, [[1.0, 1.0], [2.0, 2.0]])
        assert rsg.n_rows == 2
        assert rsg.shape == (6, 2)

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([2, 1]), np.ones((2, 3)), (4, 3))
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([1, 1]), np.ones((2, 3)), (4, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            RowSparseGrad(np.array([5]), np.ones((1, 3)), (4, 3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([0]), np.ones((1, 2)), (4, 3))

    def test_to_dense_roundtrip(self):
        dense = np.zeros((5, 3))
        dense[1] = [1.0, 2.0, 3.0]
        dense[4] = [-1.0, 0.5, 0.0]
        rsg = RowSparseGrad.from_dense(dense)
        np.testing.assert_array_equal(rsg.indices, [1, 4])
        np.testing.assert_allclose(rsg.to_dense(), dense)

    def test_merge(self):
        a = RowSparseGrad(np.array([0, 2]), np.ones((2, 2)), (4, 2))
        b = RowSparseGrad(np.array([2, 3]), 2 * np.ones((2, 2)), (4, 2))
        merged = a.merge(b)
        np.testing.assert_allclose(merged.to_dense(),
                                   a.to_dense() + b.to_dense())

    def test_merge_shape_mismatch(self):
        a = RowSparseGrad(np.array([0]), np.ones((1, 2)), (4, 2))
        b = RowSparseGrad(np.array([0]), np.ones((1, 2)), (5, 2))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_add_to_dense_in_place(self):
        rsg = RowSparseGrad(np.array([1, 3]), np.ones((2, 2)), (4, 2))
        dense = np.full((4, 2), 10.0)
        out = rsg.add_to_dense(dense)
        assert out is dense
        np.testing.assert_allclose(dense[1], 11.0)
        np.testing.assert_allclose(dense[0], 10.0)

    def test_scale(self):
        rsg = RowSparseGrad(np.array([0]), np.ones((1, 2)), (3, 2))
        np.testing.assert_allclose(rsg.scale(2.5).values, 2.5)

    def test_three_dimensional_values(self):
        """TransR projection stacks have (R, k, d) parameters."""
        rsg = RowSparseGrad.from_rows(
            np.array([1, 1, 0]), np.ones((3, 2, 2)), (3, 2, 2)
        )
        dense = rsg.to_dense()
        assert dense.shape == (3, 2, 2)
        np.testing.assert_allclose(dense[1], 2.0)
        np.testing.assert_allclose(dense[2], 0.0)

    def test_density_and_nbytes(self):
        rsg = RowSparseGrad(np.array([0, 1]), np.ones((2, 8)), (10, 8))
        assert rsg.density == pytest.approx(0.2)
        assert rsg.nnz == 16
        assert rsg.nbytes == rsg.indices.nbytes + rsg.values.nbytes


def _batch(seed, m=120, n_entities=25, n_relations=4):
    rng = np.random.default_rng(seed)
    triples = np.column_stack([rng.integers(0, n_entities, m),
                               rng.integers(0, n_relations, m),
                               rng.integers(0, n_entities, m)])
    triples[::5, 2] = triples[::5, 0]  # head == tail: duplicate columns in a row
    return triples


class TestUniqueIds:
    def test_matches_np_unique(self):
        ids = np.random.default_rng(0).integers(0, 50, 300)
        np.testing.assert_array_equal(unique_ids(ids, 50), np.unique(ids))

    def test_few_ids_in_a_large_range(self):
        ids = np.array([99_999, 5, 5, 70_000])
        np.testing.assert_array_equal(unique_ids(ids, 100_000), [5, 70_000, 99_999])

    def test_empty(self):
        assert unique_ids(np.empty(0, dtype=np.int64), 7).size == 0


class TestCoalesceOrder:
    def test_duplicates_add_in_ascending_position(self):
        """Each packed row is ((0 + v_first) + ...) + v_last, bit for bit."""
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 6, 80)
        values = rng.standard_normal((80, 3)) * 10.0 ** rng.integers(-8, 8, (80, 1))
        unique, packed = coalesce_rows(rows, values)
        for u, row in zip(unique, packed):
            expected = np.zeros(3)
            for i in np.flatnonzero(rows == u):
                expected = expected + values[i]
            np.testing.assert_array_equal(row, expected)

    def test_rejects_negative_rows(self):
        with pytest.raises(IndexError):
            coalesce_rows(np.array([1, -1]), np.ones((2, 2)))

    def test_row_beyond_shape_rejected(self):
        with pytest.raises(IndexError):
            RowSparseGrad.from_rows(np.array([0, 6]), np.ones((2, 2)), (6, 2))

    def test_one_dimensional_and_float16_values_keep_dtype(self):
        rows = np.array([2, 0, 2])
        unique, packed = coalesce_rows(rows, np.array([1.0, 2.0, 3.0], dtype=np.float16))
        np.testing.assert_array_equal(unique, [0, 2])
        assert packed.dtype == np.float16
        np.testing.assert_array_equal(packed, [2.0, 4.0])


class TestCompactedRowSparseBackward:
    """``_rowsparse_backward`` is ``A^T @ grad`` restricted to touched rows."""

    N_ENT, N_REL = 25, 4

    def _check_against_dense(self, A, grad, n_rows):
        out = _rowsparse_backward(A, grad, n_rows)
        dense = A.to_dense().T @ grad.astype(np.float64)
        touched = np.flatnonzero(np.abs(A.to_dense()).sum(axis=0) > 0)
        np.testing.assert_array_equal(out.indices, touched)
        np.testing.assert_allclose(out.to_dense(), dense, rtol=1e-12, atol=1e-12)
        assert out.values.dtype == grad.dtype
        return out

    @pytest.mark.parametrize("fmt", ["csr", "coo"])
    def test_matches_dense_with_head_equals_tail(self, fmt):
        triples = _batch(0)
        A = build_hrt_incidence(triples, self.N_ENT, self.N_REL, fmt=fmt)
        grad = np.random.default_rng(1).standard_normal((len(triples), 8))
        out = self._check_against_dense(A, grad, self.N_ENT + self.N_REL)
        # head == tail rows cancel exactly; their column is still touched.
        loop = triples[0, 0]
        assert loop in out.indices

    def test_csr_and_coo_inputs_bit_identical(self):
        triples = _batch(2)
        grad = np.random.default_rng(3).standard_normal((len(triples), 5))
        n = self.N_ENT + self.N_REL
        a = _rowsparse_backward(build_hrt_incidence(triples, self.N_ENT, self.N_REL,
                                                    fmt="csr"), grad, n)
        b = _rowsparse_backward(build_hrt_incidence(triples, self.N_ENT, self.N_REL,
                                                    fmt="coo"), grad, n)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_batch(self):
        A = build_hrt_incidence(np.empty((0, 3), dtype=np.int64),
                                self.N_ENT, self.N_REL, fmt="csr")
        out = _rowsparse_backward(A, np.empty((0, 6)), self.N_ENT + self.N_REL)
        assert out.n_rows == 0 and out.values.shape == (0, 6)
        assert out.shape == (self.N_ENT + self.N_REL, 6)

    def test_float32_gradient(self):
        triples = _batch(4)
        A = build_hrt_incidence(triples, self.N_ENT, self.N_REL, fmt="csr")
        grad = np.random.default_rng(5).standard_normal((len(triples), 6))
        out32 = _rowsparse_backward(A, grad.astype(np.float32), self.N_ENT + self.N_REL)
        assert out32.values.dtype == np.float32
        dense = A.to_dense().T @ grad
        np.testing.assert_allclose(out32.to_dense(), dense, rtol=1e-5, atol=1e-5)

    def test_partitioned_compact_sub_incidence_is_bit_identical(self):
        """The id-compacted batch matrix (partitioned tables) gives the same sums."""
        triples = _batch(6)
        grad = np.random.default_rng(7).standard_normal((len(triples), 6))
        n = self.N_ENT + self.N_REL
        full = self._check_against_dense(
            build_hrt_incidence(triples, self.N_ENT, self.N_REL, fmt="csr"), grad, n)
        entity_ids = np.unique(triples[:, 0::2])
        relation_ids = np.unique(triples[:, 1])
        compact = np.column_stack([np.searchsorted(entity_ids, triples[:, 0]),
                                   np.searchsorted(relation_ids, triples[:, 1]),
                                   np.searchsorted(entity_ids, triples[:, 2])])
        A_c = build_hrt_incidence(compact, entity_ids.size, relation_ids.size, fmt="csr")
        sub = self._check_against_dense(A_c, grad, entity_ids.size + relation_ids.size)
        global_ids = np.concatenate([entity_ids, self.N_ENT + relation_ids])
        np.testing.assert_array_equal(global_ids[sub.indices], full.indices)
        np.testing.assert_array_equal(sub.values, full.values)

    def test_segment_sum_weights_scale_source_rows(self):
        # Two source rows, the second feeding target 1 twice with weights 2, 3.
        unique, packed = segment_sum(np.array([4, 1, 1]), np.array([0, 1, 3]),
                                     np.array([1.0, 2.0, 3.0]),
                                     np.array([[1.0], [10.0]]), 6)
        np.testing.assert_array_equal(unique, [1, 4])
        np.testing.assert_array_equal(packed, [[50.0], [1.0]])
