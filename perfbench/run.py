"""The repository benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_fb15k_dense --seed 1 \\
        --seconds 20 --trace 0

Workloads (their reasons are recorded in ``BENCHMARK.json``):

* ``train_fb15k_dense`` — SpTransE, FB15K-shaped graph at scale 1.0, Adam,
  dense gradients, ``scipy`` SpMM backend;
* ``train_yago_rowsparse`` — the same on the YAGO3-10-shaped graph at scale
  0.25 with row-sparse gradients, lazy Adam and a checkpoint every epoch;
* ``serve_ann_zipf`` — in-process engine over an IVF-indexed artifact,
  Zipf-skewed closed-loop batches;
* ``serve_http_pool`` — ``sptransx serve --workers 1`` under an open and
  then a closed loop of never-repeating queries.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run that wraps each layer's entry points
(see ``spans.py``) and prints the per-layer metrics.  Either way the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the host fingerprint and run details,
and the full result (plus the spans, when traced) is written under
``.perfbench/`` in the checkout.  A failed correctness check exits 1.

On the training and in-engine serving workloads ``throughput_per_s`` and
``latency_ms_*`` are scaled to a reference host speed by a calibration probe
timed between steps or calls (``hostspeed.py``), because a shared host's
speed can drift by up to 2x over minutes; the unscaled values are on the details
line as ``<metric>_raw``, with the factor as ``host_slowdown``.  The HTTP
workload reports its timings unscaled: a probe between requests would delay
the open loop, its server runs in another process, and much of a request's
latency is waiting (sockets, the batching deadline) that a slow host does not
stretch, so scaling it by a probe taken around the load phases over-corrects.

``<layer>_ms`` per-layer metrics are self time per unit of work (training
step, served call of 8 queries, HTTP request).  ``predictions.py`` states
which end-to-end metric each layer should move on which workload; traced runs
report whether the trace agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train_fb15k_dense", "train_yago_rowsparse", "serve_ann_zipf",
             "serve_http_pool")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_spec():
    for needed in ("BENCHMARK.json", os.path.join("src", "repro"), "benchmarks"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing under {ROOT}; "
                     "run from a full checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    # A shell that starts this in the background ignores SIGINT; the servers
    # it starts inherit that and could then not be stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    args = _parse(argv)
    spec = _load_spec()
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    import predictions
    from hostspeed import scale_timings
    from report import host_fingerprint, layer_metrics, peak_rss_mb, write_json
    from spans import Tracer, instrument

    if args.workload.startswith("train_"):
        import train as workload_module
        layers = ("train",)
    elif args.workload == "serve_ann_zipf":
        import serve_ann as workload_module
        layers = ("serve",)
    else:
        import serve_http as workload_module
        layers = ()

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    undo = instrument(tracer, layers) if tracer is not None else None
    with tempfile.TemporaryDirectory(prefix="run-", dir=out_dir) as scratch:
        # Temporary files of this process and the servers it starts stay in
        # the checkout.
        os.environ["TMPDIR"] = tempfile.tempdir = scratch
        try:
            result = workload_module.run(args.workload, args.seed, args.seconds,
                                         tracer, scratch)
        finally:
            if undo is not None:
                undo()

    slowdown = result.get("slowdown", 1.0)
    e2e = dict(scale_timings(result["end_to_end"], slowdown), peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(tracer, names, result["window_s"], result["layers"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    correct = all(result["checks"].values()) and result["failed"] == 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "host": host_fingerprint(args.seed, result["backend"]),
        "checks": result["checks"],
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "host_slowdown": slowdown,
        "end_to_end": e2e,
        "info": result["info"],
    }
    if tracer is not None:
        details["predictions"] = predictions.check(args.workload, values)
        tracer.write_jsonl(os.path.join(out_dir, stem + ".spans.jsonl"))
    summary = {"correct": correct, "attempted": int(result["attempted"]),
               "failed": int(result["failed"]), "metrics": metrics}
    write_json(os.path.join(out_dir, stem + ".json"), dict(details, result=summary))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
