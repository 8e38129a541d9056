"""Outside-in span tracing for the benchmark's traced runs.

The program under test carries no tracing of its own, so the traced run
wraps the public entry points of each layer at the place where its caller
looks them up (a module global, a class attribute, or the backend registry
lookup in ``repro.sparse.spmm``) and records one span per call.  Nothing under
``src/`` changes; :func:`instrument` returns an undo callback that restores
every patched name.

A span records its name, start, end, parent span and the id of the step or
request it belongs to.  Spans stay in memory and are written as JSONL once the
run ends.  A layer's self time is its span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent_index, unit_id].
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Seconds spent computing counters inside wrappers (measured).
        self.extra_overhead_s = 0.0
        #: Wrapped calls record spans only while active (the timed window).
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.unit = None
            self._local.open = defaultdict(int)
        return stack

    def set_unit(self, unit_id) -> None:
        """Tag spans opened from now on (on this thread) with a step/request id."""
        self._stack()
        self._local.unit = unit_id

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        self._stack()
        return self._local.open[name] > 0

    def begin(self, name: str, start: Optional[float] = None) -> int:
        """Open a span (``start`` backdates it, e.g. to a request's due time)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, _now() if start is None else start, None, parent,
                  self._local.unit]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        self._local.open[name] += 1
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        stack = self._stack()
        stack.pop()
        self._local.open[self.spans[index][0]] -= 1

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``observe(args, kwargs, result)`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                start = _now()
                observe(args, kwargs, result)
                tracer.extra_overhead_s += _now() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # ------------------------------------------------------------------ #
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds per span name, total seconds per root name)``."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _unit in self.spans:
            if parent is not None and end is not None:
                child_cover[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        roots: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _unit) in enumerate(self.spans):
            if end is None:
                continue
            self_s[name] += (end - start) - child_cover[i]
            if parent is None:
                roots[name] += end - start
        return dict(self_s), dict(roots)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "unit": unit}) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one wrapped call (begin + end + call)."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    start = _now()
    for _ in range(samples):
        noop()
    traced = _now() - start
    plain = lambda: None  # noqa: E731 — the unwrapped baseline
    start = _now()
    for _ in range(samples):
        plain()
    return max(0.0, (traced - (_now() - start)) / samples)


# --------------------------------------------------------------------------- #
# Patching names where their callers look them up
# --------------------------------------------------------------------------- #
class _Patches:
    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, tracer: Tracer, cls: type, attr: str, name: str,
               observe: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` on the class of the MRO that defines it."""
        owner = next(k for k in cls.__mro__ if attr in k.__dict__)
        self.set(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))

    def function(self, tracer: Tracer, module, attr: str, name: str,
                 observe: Optional[Callable] = None) -> None:
        self.set(module, attr, tracer.wrap(name, getattr(module, attr), observe))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _TracedKernel:
    """A registered SpMM backend seen through the tracer.

    Forward and transposed-backward products go through the same backend
    object, so the span name is chosen by whether ``autograd.backward`` is
    open.  The backend's ``rowsparse_backward`` attribute is kept (wrapped
    when present, ``None`` when absent) so :func:`repro.sparse.spmm.spmm`
    picks the same backward path as in an untraced run.
    """

    def __init__(self, tracer: Tracer, backend) -> None:
        from repro.autograd import flop_counter

        self._flop_counter = flop_counter
        self._tracer = tracer
        self._backend = backend
        fused = backend.rowsparse_backward
        self.rowsparse_backward = (None if fused is None else
                                   tracer.wrap("sparse.rowsparse_bwd", fused))

    def __call__(self, A, X):
        tracer = self._tracer
        if not tracer.active:
            return self._backend(A, X)
        backward = tracer.is_open("autograd.backward")
        index = tracer.begin("sparse.spmm_bwd" if backward else "sparse.spmm_fwd")
        try:
            with self._flop_counter() as counters:
                out = self._backend(A, X)
        finally:
            tracer.end(index)
        if not backward:
            tracer.count("spmm_fwd_bytes", counters.bytes_streamed)
        return out


def instrument(tracer: Tracer, layers: Iterable[str]) -> Callable[[], None]:
    """Wrap the entry points of ``layers`` ("train", "serve"); returns undo."""
    patches = _Patches()
    layers = set(layers)
    if "train" in layers:
        _instrument_training(tracer, patches)
    if "serve" in layers:
        _instrument_serving(tracer, patches)
    return patches.undo


def _instrument_training(tracer: Tracer, patches: _Patches) -> None:
    import numpy as np

    from repro.autograd.tensor import Tensor
    from repro.losses.margin import MarginRankingLoss
    from repro.models.base import KGEModel
    from repro.models.transe import SpTransE
    from repro.optim.adam import Adam
    from repro.optim.optimizer import Optimizer
    from repro.sparse import rowsparse
    from repro.sparse.incidence import IncidenceBuilder

    # ``repro.sparse.spmm`` the package attribute is the function, which
    # shadows the module of the same name: take the module from sys.modules.
    spmm_module = sys.modules["repro.sparse.spmm"]
    kernels: Dict[str, _TracedKernel] = {}
    get_backend = spmm_module.get_backend

    def traced_get_backend(name):
        backend = get_backend(name)
        kernel = kernels.get(backend.name)
        if kernel is None or kernel._backend is not backend:
            kernel = kernels[backend.name] = _TracedKernel(tracer, backend)
        return kernel

    patches.set(spmm_module, "get_backend", traced_get_backend)
    patches.function(tracer, spmm_module, "_rowsparse_backward",
                     "sparse.rowsparse_bwd")

    def observe_coalesce(args, _kwargs, result):
        tracer.count("coalesce_contributed_rows", np.asarray(args[0]).size)
        tracer.count("coalesce_unique_rows", result[0].size)

    patches.function(tracer, rowsparse, "coalesce_rows", "sparse.coalesce",
                     observe_coalesce)
    patches.method(tracer, IncidenceBuilder, "hrt", "sparse.incidence")
    patches.method(tracer, KGEModel, "loss", "models.forward")
    patches.method(tracer, SpTransE, "normalize_parameters", "models.normalize")
    patches.method(tracer, MarginRankingLoss, "forward", "losses.margin")
    patches.method(tracer, Tensor, "backward", "autograd.backward")
    patches.method(tracer, Optimizer, "zero_grad", "optim.zero_grad")
    patches.method(tracer, Optimizer, "step", "optim.step")

    # Rows written vs rows that carry a gradient, counted at the update
    # dispatch (no span: the update is the optim.step layer itself).
    dense_update = Adam.__dict__["_update"]
    sparse_update = Adam.__dict__["_update_sparse"]

    def counted_update(self, param):
        if not tracer.active:
            return dense_update(self, param)
        start = _now()
        grad = np.asarray(param.grad)
        rows = grad.reshape(grad.shape[0], -1)
        tracer.count("optim_rows_with_grad", int(np.count_nonzero(rows.any(axis=1))))
        tracer.count("optim_rows_written", grad.shape[0])
        tracer.extra_overhead_s += _now() - start
        return dense_update(self, param)

    def counted_update_sparse(self, param, grad):
        if not tracer.active:
            return sparse_update(self, param, grad)
        tracer.count("optim_rows_with_grad", int(grad.n_rows))
        tracer.count("optim_rows_written", int(grad.n_rows))
        return sparse_update(self, param, grad)

    patches.set(Adam, "_update", counted_update)
    patches.set(Adam, "_update_sparse", counted_update_sparse)


def _instrument_serving(tracer: Tracer, patches: _Patches) -> None:
    from repro import ranking
    from repro.ann.ivf import IVFIndex
    from repro.models.transe import SpTransE
    from repro.nn.partitioned import PartitionedEmbedding
    from repro.serving.cache import LRUCache
    from repro.serving.engine import InferenceEngine

    def observe_get(_args, _kwargs, result):
        tracer.count("cache_lookups")
        tracer.count("cache_hits", 1 if result[0] else 0)

    def observe_probe(args, _kwargs, result):
        tracer.count("ann_probes")
        tracer.count("ann_probed_fraction_sum",
                     result.size / max(1, args[0].n_entities))

    patches.method(tracer, InferenceEngine, "top_k_tails_batch", "serving.engine")
    patches.method(tracer, InferenceEngine, "top_k_heads_batch", "serving.engine")
    patches.method(tracer, LRUCache, "get", "serving.cache", observe_get)
    patches.method(tracer, LRUCache, "recheck", "serving.cache")
    patches.method(tracer, LRUCache, "put", "serving.cache")
    patches.method(tracer, SpTransE, "l2_query_vector", "models.query_vector")
    patches.method(tracer, PartitionedEmbedding, "exact_rows", "nn.exact_rows")
    patches.method(tracer, IVFIndex, "candidate_ids", "ann.probe", observe_probe)
    patches.method(tracer, IVFIndex, "exact_rows", "ann.gather")
    # The engine reaches the rescoring kernels as ``ranking.<name>``; the IVF
    # module binds its own copies, so its coarse probe stays in ann.probe.
    patches.function(tracer, ranking, "l2_distance_matrix", "ranking.l2")
    patches.function(tracer, ranking, "top_k", "ranking.topk")
