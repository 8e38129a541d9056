"""Adam optimizer (the optimiser used by the paper's training scripts)."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer
from repro.sparse.kernels import block_rows


class Adam(Optimizer):
    """Adam with bias correction.

    Row-sparse gradients take a *lazy* update in the style of PyTorch's
    ``SparseAdam``: only the rows a batch touched have their moments decayed
    and their bias correction advanced, tracked by a per-row step counter.
    Untouched rows keep stale moments instead of decaying toward zero, so the
    trajectory differs from dense Adam by the (tiny) updates dense Adam would
    apply to zero-gradient rows — loss curves match within tolerance, not
    bit-for-bit.  Weight decay couples every row into every step and therefore
    falls back to the dense path.

    Parameters
    ----------
    params:
        Parameters to optimise.
    lr:
        Learning rate (the paper uses 4e-4 for every framework).
    betas:
        Exponential decay rates for the first and second moment estimates.
    eps:
        Denominator fuzz factor.
    weight_decay:
        Optional decoupled-style L2 penalty added to the gradient.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 4e-4,
                 betas: Tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        state = self._param_state(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param.data)
            state["v"] = np.zeros_like(param.data)
        # The sparse path keeps "t" in sync on every step, so whenever
        # "row_t" exists "t" does too; a fresh parameter starts at 0.
        state.setdefault("t", 0)
        state["t"] += 1
        t = state["t"]
        row_t = state.get("row_t")
        if row_t is not None:
            # A dense step decays and bias-corrects every row at the global
            # step count; advance the per-row counters with it so a later
            # return to the sparse path does not undercount the decays.
            row_t.fill(t)
        data, m, v, grad = (np.atleast_1d(x) for x in
                            (param.data, state["m"], state["v"], grad))
        b1, b2, wd = self.beta1, self.beta2, self.weight_decay
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        step_dtype = np.result_type(grad, data) if wd else grad.dtype
        for sl, a, b, a_hat, b_hat in _row_blocks(
                data.shape[0], data.shape[1:], step_dtype, np.result_type(m, v)):
            g = grad[sl]
            if wd:  # grad + wd * data
                g = np.add(g, np.multiply(data[sl], wd, out=a), out=a)
            mb, vb = m[sl], v[sl]
            mb *= b1
            mb += np.multiply(g, 1 - b1, out=b)
            vb *= b2
            np.multiply(g, g, out=b)
            b *= 1 - b2
            vb += b
            # data -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(mb, c1, out=a_hat)
            a_hat *= self.lr
            np.divide(vb, c2, out=b_hat)
            np.sqrt(b_hat, out=b_hat)
            b_hat += self.eps
            a_hat /= b_hat
            data[sl] -= a_hat
        self._count_update_flops(param, 10)

    def _update_sparse(self, param: Parameter, grad) -> None:
        if self.weight_decay:
            # Decay applies to every row every step; densify for correctness.
            super()._update_sparse(param, grad)
            return
        state = self._param_state(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param.data)
            state["v"] = np.zeros_like(param.data)
        if "row_t" not in state:
            # Taking over from the dense path: every row has seen ``t`` steps.
            state["row_t"] = np.full(param.data.shape[0], int(state.get("t", 0)),
                                     dtype=np.int64)
        m, v, row_t = state["m"], state["v"], state["row_t"]
        rows, vals = grad.indices, grad.values
        row_t[rows] += 1
        t = row_t[rows]
        # Keep the dense step counter in sync (cheap: max over touched rows
        # only) so a later switch back to the dense path resumes with a bias
        # correction consistent with how far the moments have decayed.
        state["t"] = max(int(state.get("t", 0)), int(t.max(initial=0)))
        # Broadcast the per-row bias corrections over the value shape.
        expand = (slice(None),) + (None,) * (vals.ndim - 1)
        b1, b2, data = self.beta1, self.beta2, param.data
        step_dtype = np.result_type(m, vals)
        # The float64 per-row corrections widen the bias-corrected step.
        for sl, a, b, a_hat, b_hat in _row_blocks(
                rows.size, vals.shape[1:], step_dtype,
                np.result_type(step_dtype, np.float64)):
            r, g, tb = rows[sl], vals[sl], t[sl]
            # m_rows = b1 * m[r] + (1 - b1) * g;  v_rows likewise with g * g.
            np.multiply(g, 1 - b1, out=a)
            a += b1 * m[r]
            np.multiply(g, g, out=b)
            np.multiply(b, 1 - b2, out=b, dtype=g.dtype)  # at g's width
            b += b2 * v[r]
            m[r] = a
            v[r] = b
            np.divide(a, (1 - b1 ** tb)[expand], out=a_hat)
            a_hat *= self.lr
            np.divide(b, (1 - b2 ** tb)[expand], out=b_hat)
            np.sqrt(b_hat, out=b_hat)
            b_hat += self.eps
            a_hat /= b_hat
            data[r] -= a_hat
        self._count_sparse_update_flops(param, vals.size, 10)


def _row_blocks(n_rows: int, tail: Tuple[int, ...], step_dtype, hat_dtype):
    """Cache-sized row blocks of an Adam update, with reusable scratch.

    Yields ``(rows, a, b, a_hat, b_hat)`` for consecutive blocks of
    :func:`~repro.sparse.kernels.block_rows` rows: ``a``/``b`` hold the
    moment-update temporaries (``step_dtype``) and ``a_hat``/``b_hat`` the
    bias-corrected step (``hat_dtype``).  When the two dtypes agree — every
    dense update, and every float64 sparse one — these are the same two
    block-sized arrays.  Each temporary of the straight-line update lands
    in a scratch array of its own dtype, with the same operands in the same
    order, so the blocked update is bit-identical to the full-table formulas
    while no full-table temporary (and its page faults) is ever allocated.
    """
    width = int(np.prod(tail, dtype=np.int64))
    itemsize = max(np.dtype(step_dtype).itemsize, np.dtype(hat_dtype).itemsize)
    step = block_rows(width, itemsize)
    size = (min(step, n_rows),) + tuple(tail)
    a, b = np.empty(size, step_dtype), np.empty(size, step_dtype)
    if np.dtype(hat_dtype) == np.dtype(step_dtype):
        a_hat, b_hat = a, b
    else:
        a_hat, b_hat = np.empty(size, hat_dtype), np.empty(size, hat_dtype)
    for lo in range(0, n_rows, step):
        k = min(step, n_rows - lo)
        yield slice(lo, lo + k), a[:k], b[:k], a_hat[:k], b_hat[:k]
