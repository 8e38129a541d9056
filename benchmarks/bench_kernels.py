"""Hot-path kernel layer: reference vs numpy-fused vs compiled step time.

Paper reference
---------------
Section 5.5 again, but from the kernel side: the framework's claim is that the
sparse formulation concentrates nearly all training time in a handful of
kernels (incidence SpMM forward, row-sparse backward, margin loss, L2
ranking), so swapping a compiled implementation into any one of them moves the
whole step time.  This harness measures exactly that substitution.

What this harness does
----------------------
* pytest-benchmark entries time one SpMM per backend (``scipy``, ``fused``,
  ``compiled``), the fused-vs-reference margin loss, and one blocked
  :func:`repro.ranking.l2_distance_matrix` sweep;
* ``run()`` trains SpTransE per backend under :func:`repro.autograd.flop_counter`
  and reports step time plus the per-kernel wall-clock split
  (``OpCounters.per_op_seconds``), then times quantized/full ranking latency;
* ``main()`` prints the tables and emits the per-kernel timings as JSON
  (``--json`` writes to a file, otherwise they are printed), so runs can be
  diffed across machines and numba availability.

The ``compiled`` backend uses numba JIT kernels when numba is importable and a
cache-blocked pure-numpy path otherwise; ``kernels.HAVE_NUMBA`` is included in
the JSON payload, with the core count and toolchain versions, so results are
never compared across the two, or across hosts, silently.  The
default scale keeps each case in seconds; ``--scale 3.3`` gives an FB15K-shaped
workload with ~50k entities, the configuration the PR's numba acceptance
numbers refer to.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
import pytest

from benchmarks.common import (
    DEFAULT_DIM,
    DEFAULT_SCALE,
    format_table,
    host_fingerprint,
    load_scaled_dataset,
    paper_training_config,
)
from repro.autograd import Tensor, flop_counter
from repro.losses import margin_ranking_loss
from repro.models import SpTransE
from repro.ranking import l2_distance_matrix
from repro.sparse import build_hrt_incidence, get_backend, spmm
from repro.sparse import kernels
from repro.training import Trainer

#: Reference (scipy), numpy-fused, and compiled (numba-or-blocked-numpy) paths.
KERNEL_BACKENDS = ["scipy", "fused", "compiled"]


def _hrt_case(scale: float = DEFAULT_SCALE, dim: int = DEFAULT_DIM, seed: int = 0):
    kg = load_scaled_dataset("FB15K", scale=scale, seed=seed)
    triples = kg.split.train[: min(8192, kg.n_triples)]
    A = build_hrt_incidence(triples, kg.n_entities, kg.n_relations, fmt="coo")
    X = np.random.default_rng(seed).standard_normal(
        (kg.n_entities + kg.n_relations, dim))
    return kg, A, X


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_spmm_forward_kernel(benchmark, backend):
    """Time one hrt-incidence SpMM forward per kernel path."""
    _, A, X = _hrt_case()
    kernel = get_backend(backend)
    kernel(A, X)  # warm the pattern cache (and numba JIT when present)
    benchmark.group = "kernel-spmm-forward"
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["numba"] = kernels.HAVE_NUMBA
    out = benchmark(kernel, A, X)
    assert out.shape == (A.shape[0], X.shape[1])


@pytest.mark.parametrize("backend", ["fused", "compiled"])
def test_spmm_backward_kernel(benchmark, backend):
    """Time the row-sparse backward (SpMM^T gather-scatter) per kernel path."""
    _, A, X = _hrt_case(seed=1)

    def step():
        E = Tensor(X, requires_grad=True)
        spmm(A, E, backend=backend, sparse_grad=True).sum().backward()
        return E.grad

    step()
    benchmark.group = "kernel-rowsparse-backward"
    benchmark.extra_info["backend"] = backend
    assert benchmark(step) is not None


@pytest.mark.parametrize("fused", [False, True])
def test_margin_loss_kernel(benchmark, fused):
    """Fused one-pass margin loss vs the op-by-op reference."""
    rng = np.random.default_rng(2)
    pos = Tensor(rng.standard_normal(65536))
    neg = Tensor(rng.standard_normal(65536))
    benchmark.group = "kernel-margin-loss"
    benchmark.extra_info["fused"] = fused
    out = benchmark(margin_ranking_loss, pos, neg, 0.5, "mean", fused)
    assert np.isfinite(out.data)


def test_ranking_l2_kernel(benchmark):
    """Time one blocked L2 ranking sweep (the serving hot loop)."""
    rng = np.random.default_rng(3)
    queries = rng.standard_normal((32, DEFAULT_DIM))
    targets = rng.standard_normal((20000, DEFAULT_DIM))
    benchmark.group = "kernel-ranking-l2"
    out = benchmark(l2_distance_matrix, queries, targets)
    assert out.shape == (32, 20000)


def _time_ranking(model: SpTransE, repeats: int = 5) -> float:
    """Median latency of a full score_all_tails sweep (serving-shaped query)."""
    heads = np.arange(min(32, model.n_entities), dtype=np.int64)
    rels = np.zeros(heads.size, dtype=np.int64)
    model.score_all_tails(heads, rels)  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        model.score_all_tails(heads, rels)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def run(scale: float = DEFAULT_SCALE, epochs: int = 2, dim: int = DEFAULT_DIM,
        batch_size: int = 4096) -> dict:
    """Train SpTransE per kernel backend; collect per-kernel timings.

    Returns ``{"rows": [...], "per_op_seconds": {backend: {...}}, ...}`` — the
    shape ``main()`` dumps as JSON.
    """
    kg = load_scaled_dataset("FB15K", scale=scale)
    steps = max(1, epochs * -(-kg.split.train.shape[0] // batch_size))
    rows = []
    per_op = {}
    for backend in KERNEL_BACKENDS:
        model = SpTransE(kg.n_entities, kg.n_relations, dim, backend=backend, rng=0)
        with flop_counter() as counters:
            result = Trainer(model, kg,
                             paper_training_config(epochs, batch_size)).train()
        rows.append({
            "backend": backend,
            "total_s": result.total_time,
            "step_ms": 1e3 * result.total_time / steps,
            "final_loss": result.final_loss,
            "rank_ms": 1e3 * _time_ranking(model),
        })
        per_op[backend] = dict(sorted(counters.per_op_seconds.items(),
                                      key=lambda kv: -kv[1]))
    reference = rows[0]["step_ms"]
    for row in rows:
        row["speedup"] = reference / row["step_ms"] if row["step_ms"] else float("nan")
    return {
        "config": {"scale": scale, "epochs": epochs, "dim": dim,
                   "batch_size": batch_size, "n_entities": kg.n_entities,
                   "numba": kernels.HAVE_NUMBA, **host_fingerprint()},
        "rows": rows,
        "per_op_seconds": per_op,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="dataset scale; 3.3 approximates the 50k-entity config")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report (rows + per-kernel "
                             "OpCounters timings) to this file as JSON")
    args = parser.parse_args()
    report = run(scale=args.scale, epochs=args.epochs, dim=args.dim,
                 batch_size=args.batch_size)
    numba = "with numba" if report["config"]["numba"] else "numpy-only"
    print(format_table(report["rows"],
                       ["backend", "step_ms", "rank_ms", "final_loss", "speedup"],
                       title=f"Kernel layer: step time per backend ({numba}, "
                             f"{report['config']['n_entities']} entities)"))
    payload = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(payload + "\n")
        print(f"\nPer-kernel timings written to {args.json}")
    else:
        print("\n" + payload)


if __name__ == "__main__":
    main()
