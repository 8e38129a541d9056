"""The cache-blocked, in-place Adam updates against the full-table formulas.

``Adam._update`` and ``Adam._update_sparse`` run over row blocks with two
block-sized scratch arrays.  Blocking may change where temporaries live but
not one floating-point operation, so every test here demands exact equality
(parameters, both moments, the step counter and the per-row step counters)
with :class:`ReferenceAdam`, a straight-line copy of the unblocked formulas.
"""

import tracemalloc

import numpy as np
import pytest

import repro.optim.adam as adam_mod
from repro.nn.parameter import Parameter
from repro.optim import Adam
from repro.sparse import RowSparseGrad


class ReferenceAdam(Adam):
    """Adam written as whole-table expressions (one temporary per operation)."""

    def _update(self, param):
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        state = self._param_state(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param.data)
            state["v"] = np.zeros_like(param.data)
        state.setdefault("t", 0)
        m, v = state["m"], state["v"]
        state["t"] += 1
        t = state["t"]
        row_t = state.get("row_t")
        if row_t is not None:
            row_t.fill(t)
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * (grad * grad)
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _update_sparse(self, param, grad):
        if self.weight_decay:
            self._update(param)
            return
        state = self._param_state(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param.data)
            state["v"] = np.zeros_like(param.data)
        if "row_t" not in state:
            state["row_t"] = np.full(param.data.shape[0], int(state.get("t", 0)),
                                     dtype=np.int64)
        m, v, row_t = state["m"], state["v"], state["row_t"]
        rows, vals = grad.indices, grad.values
        row_t[rows] += 1
        t = row_t[rows]
        state["t"] = max(int(state.get("t", 0)), int(t.max(initial=0)))
        expand = (slice(None),) + (None,) * (vals.ndim - 1)
        m_rows = self.beta1 * m[rows] + (1 - self.beta1) * vals
        v_rows = self.beta2 * v[rows] + (1 - self.beta2) * (vals * vals)
        m[rows] = m_rows
        v[rows] = v_rows
        m_hat = m_rows / (1 - self.beta1 ** t)[expand]
        v_hat = v_rows / (1 - self.beta2 ** t)[expand]
        param.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _dense_grad(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


def _sparse_grad(rng, shape, dtype):
    k = max(1, shape[0] // 3)
    rows = np.sort(rng.choice(shape[0], size=k, replace=False))
    return RowSparseGrad(rows, rng.standard_normal((k,) + shape[1:]).astype(dtype), shape)


def _run_pair(shape, schedule, dtype=np.float64, weight_decay=0.0, seed=0):
    """Drive the blocked and the reference Adam through the same gradients."""
    rng = np.random.default_rng(seed)
    init = rng.standard_normal(shape).astype(dtype)
    p_blk, p_ref = Parameter(init), Parameter(init)
    # Parameter() stores float64; a narrower table is installed directly.
    p_blk.data, p_ref.data = init.copy(), init.copy()
    kwargs = dict(lr=0.01, betas=(0.8, 0.95), eps=1e-7, weight_decay=weight_decay)
    opt_blk, opt_ref = Adam([p_blk], **kwargs), ReferenceAdam([p_ref], **kwargs)
    for kind in schedule:
        grad = (_dense_grad if kind == "dense" else _sparse_grad)(rng, shape, dtype)
        p_blk.grad, p_ref.grad = grad, grad
        opt_blk.step()
        opt_ref.step()
        _assert_same(p_blk, opt_blk, p_ref, opt_ref)
    return p_blk, opt_blk


def _assert_same(p_blk, opt_blk, p_ref, opt_ref):
    np.testing.assert_array_equal(p_blk.data, p_ref.data)
    assert p_blk.data.dtype == p_ref.data.dtype
    s_blk, s_ref = opt_blk.state[id(p_blk)], opt_ref.state[id(p_ref)]
    assert set(s_blk) == set(s_ref)
    for key in ("m", "v", "row_t"):
        if key in s_ref:
            np.testing.assert_array_equal(s_blk[key], s_ref[key])
            assert s_blk[key].dtype == s_ref[key].dtype
    assert s_blk["t"] == s_ref["t"]


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Seven-row blocks, so small tables span many blocks and a ragged tail."""
    monkeypatch.setattr(adam_mod, "block_rows", lambda width, itemsize=8: 7)


MIXED = ["dense", "sparse", "sparse", "dense", "sparse", "dense"]


class TestBlockedAdamBitIdentical:
    def test_rows_not_a_multiple_of_block_rows(self):
        # 64-wide float64 rows give 1024-row blocks: 2 full blocks + 452 rows.
        _run_pair((2500, 64), ["dense", "dense", "sparse", "sparse"])

    def test_ragged_tail_many_blocks(self, tiny_blocks):
        _run_pair((50, 5), MIXED)

    def test_fewer_rows_than_one_block(self):
        _run_pair((10, 64), MIXED)

    @pytest.mark.parametrize("blocks", ["real", "tiny"])
    def test_one_dimensional_parameter(self, blocks, request):
        if blocks == "tiny":
            request.getfixturevalue("tiny_blocks")
        _run_pair((47,), MIXED)

    def test_scalar_parameter(self):
        _run_pair((), ["dense"] * 3)

    def test_three_dimensional_parameter(self, tiny_blocks):
        _run_pair((11, 3, 4), MIXED)

    def test_float32_keeps_dtype(self, tiny_blocks):
        p, opt = _run_pair((30, 6), MIXED, dtype=np.float32)
        state = opt.state[id(p)]
        assert p.data.dtype == np.float32
        assert state["m"].dtype == np.float32 and state["v"].dtype == np.float32

    @pytest.mark.parametrize("schedule", [["dense"] * 3, MIXED])
    def test_weight_decay(self, schedule, tiny_blocks):
        _run_pair((30, 6), schedule, weight_decay=0.05)

    def test_dense_sparse_dense_keeps_counters_in_step(self, tiny_blocks):
        p, opt = _run_pair((40, 4), ["dense", "dense", "sparse", "sparse", "dense"])
        state = opt.state[id(p)]
        assert state["t"] == 5
        # The last dense step advanced every row's counter to the global step.
        np.testing.assert_array_equal(state["row_t"], np.full(40, 5))

    def test_sparse_grad_narrower_than_moments(self, tiny_blocks):
        # float32 gradient values on a float64 table: the reference squares
        # and scales them at float32 before widening.
        rng = np.random.default_rng(3)
        init = rng.standard_normal((20, 3))
        p_blk, p_ref = Parameter(init.copy()), Parameter(init.copy())
        opt_blk, opt_ref = Adam([p_blk], lr=0.01), ReferenceAdam([p_ref], lr=0.01)
        for _ in range(3):
            grad = _sparse_grad(rng, (20, 3), np.float32)
            p_blk.grad, p_ref.grad = grad, grad
            opt_blk.step()
            opt_ref.step()
            _assert_same(p_blk, opt_blk, p_ref, opt_ref)

    def test_empty_sparse_gradient(self):
        p_blk, p_ref = Parameter(np.ones((5, 2))), Parameter(np.ones((5, 2)))
        opt_blk, opt_ref = Adam([p_blk]), ReferenceAdam([p_ref])
        empty = RowSparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 2)), (5, 2))
        p_blk.grad, p_ref.grad = empty, empty
        opt_blk.step()
        opt_ref.step()
        _assert_same(p_blk, opt_blk, p_ref, opt_ref)

    def test_no_full_table_temporaries(self):
        """Peak extra memory of a dense step stays far below one table copy."""
        p = Parameter(np.zeros((20000, 64)))  # 10 MB table
        opt = Adam([p])
        p.grad = np.ones_like(p.data)
        opt.step()  # allocates the moments
        p.grad = np.ones_like(p.data)
        tracemalloc.start()
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < p.data.nbytes // 4
