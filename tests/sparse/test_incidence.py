"""Tests for the ht / hrt incidence-matrix builders (paper Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix, COOMatrix, IncidenceBuilder, build_ht_incidence, build_hrt_incidence


@pytest.fixture
def triples():
    return np.array([
        [0, 1, 3],
        [2, 0, 1],
        [3, 2, 0],
        [1, 1, 2],
    ], dtype=np.int64)


N_ENT, N_REL = 5, 3


class TestHtIncidence:
    def test_shape_and_nnz(self, triples):
        A = build_ht_incidence(triples, N_ENT)
        assert A.shape == (4, N_ENT)
        assert A.nnz == 2 * len(triples)

    def test_values_are_plus_minus_one(self, triples):
        A = build_ht_incidence(triples, N_ENT, fmt="coo")
        assert set(np.unique(A.values)) == {-1.0, 1.0}

    def test_dense_structure(self, triples):
        A = build_ht_incidence(triples, N_ENT).to_dense()
        for i, (h, _, t) in enumerate(triples):
            expected = np.zeros(N_ENT)
            expected[h] += 1.0
            expected[t] -= 1.0
            np.testing.assert_allclose(A[i], expected)

    def test_product_equals_head_minus_tail(self, triples):
        rng = np.random.default_rng(0)
        E = rng.standard_normal((N_ENT, 6))
        A = build_ht_incidence(triples, N_ENT)
        expected = E[triples[:, 0]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-12)

    def test_self_loop_cancels(self):
        A = build_ht_incidence(np.array([[2, 0, 2]]), N_ENT)
        np.testing.assert_allclose(A.to_dense(), np.zeros((1, N_ENT)))

    def test_format_selection(self, triples):
        assert isinstance(build_ht_incidence(triples, N_ENT, fmt="csr"), CSRMatrix)
        assert isinstance(build_ht_incidence(triples, N_ENT, fmt="coo"), COOMatrix)
        with pytest.raises(ValueError):
            build_ht_incidence(triples, N_ENT, fmt="dense")

    def test_entity_bound_validation(self, triples):
        with pytest.raises(ValueError):
            build_ht_incidence(triples, 3)

    def test_empty_batch(self):
        A = build_ht_incidence(np.empty((0, 3), dtype=np.int64), N_ENT)
        assert A.shape == (0, N_ENT)
        assert A.nnz == 0


class TestHrtIncidence:
    def test_shape_and_nnz(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        assert A.shape == (4, N_ENT + N_REL)
        assert A.nnz == 3 * len(triples)

    def test_relation_column_offset(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL).to_dense()
        for i, (h, r, t) in enumerate(triples):
            assert A[i, N_ENT + r] == 1.0

    def test_product_equals_h_plus_r_minus_t(self, triples):
        rng = np.random.default_rng(1)
        E = rng.standard_normal((N_ENT + N_REL, 6))
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        expected = E[triples[:, 0]] + E[N_ENT + triples[:, 1]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-12)

    def test_relation_bound_validation(self, triples):
        with pytest.raises(ValueError):
            build_hrt_incidence(triples, N_ENT, 2)

    def test_rows_have_exactly_three_nonzeros(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        np.testing.assert_array_equal(A.nnz_per_row(), np.full(len(triples), 3))


class TestIncidenceBuilder:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncidenceBuilder(0, 3)
        with pytest.raises(ValueError):
            IncidenceBuilder(3, 0)
        with pytest.raises(ValueError):
            IncidenceBuilder(3, 3, fmt="dense")

    def test_ht_with_transpose(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        A, At = builder.ht(triples, with_transpose=True)
        np.testing.assert_allclose(At.to_dense(), A.to_dense().T)

    def test_hrt_with_transpose(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        A, At = builder.hrt(triples, with_transpose=True)
        np.testing.assert_allclose(At.to_dense(), A.to_dense().T)

    def test_stacked_dim(self):
        assert IncidenceBuilder(10, 4).stacked_dim == 14

    def test_describe_density_independent_of_structure(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        stats = builder.describe(triples)
        assert stats["nnz_per_row"] == 3
        assert stats["nnz"] == 3 * len(triples)
        assert stats["density"] == pytest.approx(3 / (N_ENT + N_REL))


class TestIncidenceProperties:
    @given(
        n_entities=st.integers(min_value=3, max_value=20),
        n_relations=st.integers(min_value=1, max_value=6),
        n_triples=st.integers(min_value=1, max_value=30),
        dim=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_hrt_spmm_equals_gather_expression(self, n_entities, n_relations,
                                               n_triples, dim, seed):
        """The hrt SpMM must reproduce the gather-based h + r − t for any batch."""
        rng = np.random.default_rng(seed)
        triples = np.column_stack([
            rng.integers(0, n_entities, n_triples),
            rng.integers(0, n_relations, n_triples),
            rng.integers(0, n_entities, n_triples),
        ])
        E = rng.standard_normal((n_entities + n_relations, dim))
        A = build_hrt_incidence(triples, n_entities, n_relations)
        expected = E[triples[:, 0]] + E[n_entities + triples[:, 1]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-10, atol=1e-12)

    @given(
        n_entities=st.integers(min_value=2, max_value=20),
        n_triples=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_ht_row_sums_are_zero(self, n_entities, n_triples, seed):
        """+1 and −1 per row always cancel: A @ 1 = 0 regardless of the batch."""
        rng = np.random.default_rng(seed)
        triples = np.column_stack([
            rng.integers(0, n_entities, n_triples),
            np.zeros(n_triples, dtype=np.int64),
            rng.integers(0, n_entities, n_triples),
        ])
        A = build_ht_incidence(triples, n_entities)
        np.testing.assert_allclose(A.matvec(np.ones(n_entities)), np.zeros(n_triples),
                                   atol=1e-12)


class TestDirectCSR:
    """The CSR builders skip ``COOMatrix.tocsr`` but must store the same arrays."""

    @staticmethod
    def _triples(seed, m=200, n_entities=30, n_relations=4):
        rng = np.random.default_rng(seed)
        triples = np.column_stack([rng.integers(0, n_entities, m),
                                   rng.integers(0, n_relations, m),
                                   rng.integers(0, n_entities, m)])
        triples[::7, 2] = triples[::7, 0]  # head == tail rows
        return triples

    @staticmethod
    def _assert_same_csr(direct, via_coo):
        assert isinstance(direct, CSRMatrix)
        assert direct.shape == via_coo.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(direct, name), getattr(via_coo, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hrt_equals_tocsr_of_coo(self, seed):
        triples = self._triples(seed)
        self._assert_same_csr(build_hrt_incidence(triples, 30, 4, fmt="csr"),
                              build_hrt_incidence(triples, 30, 4, fmt="coo").tocsr())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ht_equals_tocsr_of_coo(self, seed):
        triples = self._triples(seed)
        self._assert_same_csr(build_ht_incidence(triples, 30, fmt="csr"),
                              build_ht_incidence(triples, 30, fmt="coo").tocsr())

    def test_head_equals_tail_keeps_both_entries_head_first(self):
        A = build_hrt_incidence(np.array([[3, 1, 3], [4, 0, 2]]), 5, 2, fmt="csr")
        np.testing.assert_array_equal(A.indptr, [0, 3, 6])
        np.testing.assert_array_equal(A.indices, [3, 3, 6, 2, 4, 5])
        np.testing.assert_array_equal(A.data, [1.0, -1.0, 1.0, -1.0, 1.0, 1.0])

    def test_relation_offset_is_last_column(self):
        triples = self._triples(3)
        A = build_hrt_incidence(triples, 30, 4, fmt="csr")
        np.testing.assert_array_equal(A.indices[2::3], triples[:, 1] + 30)
        np.testing.assert_array_equal(A.data[2::3], 1.0)

    def test_empty_batch(self):
        A = build_hrt_incidence(np.empty((0, 3), dtype=np.int64), 5, 2, fmt="csr")
        assert A.shape == (0, 7) and A.nnz == 0
        np.testing.assert_array_equal(A.indptr, [0])
