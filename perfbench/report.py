"""Result assembly shared by the workloads: percentiles, host, layer table."""

from __future__ import annotations

import json
import os
import platform
import resource
from typing import Dict, List, Optional, Sequence

import numpy as np

from spans import Tracer, span_cost_s

#: Root spans that are one unit of work: a training step, a served call of
#: 8 queries, an HTTP request.  ``train.epoch_end`` is a root but no unit.
UNIT_SPANS = ("train.step", "serve.call", "http.request")


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_fingerprint(seed: int, backend: str) -> Dict[str, object]:
    import scipy

    from repro.sparse import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(kernels.HAVE_NUMBA),
        "spmm_backend": backend,
        "seed": int(seed),
    }


def latency_metrics(samples_ms: Sequence[float]) -> Dict[str, float]:
    """The median (an end-to-end metric) and the tail (reported alongside)."""
    return {"latency_ms_p50": percentile(samples_ms, 50),
            "latency_ms_p95": percentile(samples_ms, 95),
            "latency_ms_p99": percentile(samples_ms, 99)}


def layer_metrics(tracer: Tracer, names: List[str], window_s: float,
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric in ``names``; layers a workload skips read 0.

    ``<span>_ms`` is the span's self time per root unit (training step,
    served call or HTTP request), so the layers of one workload add up to
    its per-unit wall time minus ``trace.unattributed_share`` of it.
    """
    self_s, roots = tracer.self_times()
    units = sum(1 for span in tracer.spans
                if span[3] is None and span[0] in UNIT_SPANS)
    units = max(1, units)
    counters = tracer.counters
    out: Dict[str, float] = {name: 0.0 for name in names}
    for span_name, seconds in self_s.items():
        key = f"{span_name}_ms"
        if key in out:
            out[key] = 1e3 * seconds / units
    root_total = sum(roots.values())
    root_self = sum(self_s.get(name, 0.0) for name in roots)
    out["trace.unattributed_share"] = root_self / root_total if root_total else 0.0
    overhead = len(tracer.spans) * span_cost_s() + tracer.extra_overhead_s
    out["trace.overhead_share"] = overhead / window_s if window_s else 0.0
    out["trace.spans"] = float(len(tracer.spans))
    out["sparse.spmm_fwd_bytes"] = counters.get("spmm_fwd_bytes", 0.0) / units
    if counters.get("coalesce_contributed_rows"):
        out["sparse.coalesce_unique_ratio"] = (
            counters["coalesce_unique_rows"] / counters["coalesce_contributed_rows"])
    if counters.get("optim_rows_written"):
        out["optim.rows_touched_ratio"] = (
            counters["optim_rows_with_grad"] / counters["optim_rows_written"])
    if counters.get("cache_lookups"):
        out["serving.cache_hit_ratio"] = (counters["cache_hits"]
                                          / counters["cache_lookups"])
    if counters.get("ann_probes"):
        out["ann.probed_fraction"] = (counters["ann_probed_fraction_sum"]
                                      / counters["ann_probes"])
    for key, value in (extra or {}).items():
        if key not in out:
            raise KeyError(f"per-layer metric {key!r} is not in BENCHMARK.json")
        out[key] = float(value)
    return out


def write_json(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
