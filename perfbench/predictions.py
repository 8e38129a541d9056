"""Which end-to-end metric each per-layer metric should move, and where.

Written down before measuring, as the ledger later changes are judged
against: a change that speeds up a layer should move the named end-to-end
metric on the named workloads and leave the others flat.  On a workload not
listed, a layer's time should read 0 (the layer does no work there).  The
HTTP workload's engine runs inside the server's worker process, where no
wrapper reaches; its serving layers are read from ``/v1/stats`` instead.
``latency_ms_p95`` is the tail reported on the details line of every run;
it is not a gated end-to-end metric because it spreads by more than the
largest allowed bound between runs on a shared 2-vCPU host.
"""

from __future__ import annotations

from typing import Dict, List

TRAIN = ("train_fb15k_dense", "train_yago_rowsparse")
ANN = ("serve_ann_zipf",)
HTTP = ("serve_http_pool",)
ALL = TRAIN + ANN + HTTP

#: per-layer metric -> (end-to-end metric it should move, workloads)
MOVES: Dict[str, tuple] = {
    "data.next_ms": ("latency_ms_p50", TRAIN),
    "sparse.incidence_ms": ("throughput_per_s", TRAIN),
    "sparse.spmm_fwd_ms": ("throughput_per_s", TRAIN),
    "sparse.spmm_fwd_bytes": ("throughput_per_s", TRAIN),
    "sparse.spmm_bwd_ms": ("throughput_per_s", ("train_fb15k_dense",)),
    "sparse.rowsparse_bwd_ms": ("throughput_per_s", ("train_yago_rowsparse",)),
    "sparse.coalesce_ms": ("throughput_per_s", ("train_yago_rowsparse",)),
    "sparse.coalesce_unique_ratio": ("throughput_per_s", ("train_yago_rowsparse",)),
    "autograd.backward_ms": ("throughput_per_s", TRAIN),
    "losses.margin_ms": ("throughput_per_s", TRAIN),
    "models.forward_ms": ("throughput_per_s", TRAIN),
    "optim.zero_grad_ms": ("throughput_per_s", TRAIN),
    "optim.step_ms": ("throughput_per_s", TRAIN),
    "optim.rows_touched_ratio": ("throughput_per_s", TRAIN),
    "models.normalize_ms": ("throughput_per_s", TRAIN),
    "training.checkpoint_ms": ("throughput_per_s", ("train_yago_rowsparse",)),
    "quality.final_loss": ("throughput_per_s", TRAIN),
    "serving.cache_hit_ratio": ("throughput_per_s", ANN),
    "serving.cache_ms": ("latency_ms_p50", ANN),
    "serving.engine_ms": ("latency_ms_p50", ANN),
    "models.query_vector_ms": ("latency_ms_p50", ANN),
    "nn.exact_rows_ms": ("latency_ms_p50", ANN),
    "ann.probe_ms": ("latency_ms_p50", ANN),
    "ann.probed_fraction": ("throughput_per_s", ANN),
    "ann.faults": ("latency_ms_p95", ANN),
    "ann.gather_ms": ("latency_ms_p50", ANN),
    "ranking.l2_ms": ("latency_ms_p50", ANN),
    "ranking.topk_ms": ("latency_ms_p50", ANN),
    "quality.recall_at_10": ("throughput_per_s", ANN),
    "serving.server_ms_p50": ("latency_ms_p50", HTTP),
    "serving.transport_ms_p50": ("latency_ms_p50", HTTP),
    "serving.batch_size_mean": ("throughput_per_s", HTTP),
    "serving.shipped_deadline_ratio": ("latency_ms_p50", HTTP),
    "serving.service_ms_per_row": ("throughput_per_s", HTTP),
    "serving.shed.admission": ("latency_ms_p95", HTTP),
    "serving.shed.timeout": ("latency_ms_p95", HTTP),
    "serving.shed.deadline_miss": ("latency_ms_p95", HTTP),
    "serving.shed.error": ("latency_ms_p95", HTTP),
    "serving.generator_late_ms_p99": ("latency_ms_p95", HTTP),
    "serving.goodput_qps": ("latency_ms_p95", HTTP),
    "client.queue_ms": ("latency_ms_p50", HTTP),
    "client.send_ms": ("latency_ms_p50", HTTP),
    "client.wait_ms": ("latency_ms_p50", HTTP),
    "client.read_ms": ("latency_ms_p50", HTTP),
    "trace.unattributed_share": ("throughput_per_s", ALL),
    "trace.overhead_share": ("throughput_per_s", ALL),
    "trace.spans": ("throughput_per_s", ALL),
}

#: Timed layers (the ones ranked against each other).
TIMED = [name for name in MOVES if name.endswith("_ms")]


def _largest(values: Dict[str, float]) -> str:
    return max(TIMED, key=lambda name: values.get(name, 0.0))


def check(workload: str, values: Dict[str, float]) -> Dict[str, object]:
    """The trace's verdict on this workload's predictions."""
    idle: List[str] = [name for name, (_, where) in MOVES.items()
                       if workload not in where and name in TIMED
                       and values.get(name, 0.0) != 0.0]
    out: Dict[str, object] = {
        "largest_layer": _largest(values),
        "attributed_95pct": values["trace.unattributed_share"] <= 0.05,
        "idle_layers_nonzero": idle,
    }
    if workload == "train_fb15k_dense":
        out["optim_step_largest"] = out["largest_layer"] == "optim.step_ms"
        out["no_coalesce"] = values["sparse.coalesce_ms"] == 0.0
    elif workload == "train_yago_rowsparse":
        out["coalesce_largest"] = out["largest_layer"] == "sparse.coalesce_ms"
        out["no_dense_spmm_bwd"] = values["sparse.spmm_bwd_ms"] == 0.0
    elif workload == "serve_ann_zipf":
        out["cache_hits_over_half"] = values["serving.cache_hit_ratio"] > 0.5
    else:
        out["cache_bypassed"] = values["serving.cache_hit_ratio"] < 0.01
    return out
