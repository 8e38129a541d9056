"""ANN read path: an in-process InferenceEngine over an IVF-indexed artifact.

Set-up (timed as ``setup_s``) writes a partitioned, clustered SpTransE
artifact (checkpoint, bucket weight files and IVF index), loads it back
memory-mapped with its index at the manifest-default ``nprobe``, and answers
one warm-up query.  After a fixed untimed warm-up of the query stream fills
the result cache, the timed window is one closed-loop caller sending batches
of 8 queries (4 tail, 4 head) drawn Zipf-skewed from 4,096 distinct pairs, so
the cache absorbs the head of the distribution and the rest goes through IVF
probing, bucket row reads and exact rescoring.  Recall@10
against exact ranking is computed after the window.

The served artifact is the same on every run (built from ``ARTIFACT_SEED``);
``--seed`` draws the query stream.  The index build auto-tunes ``nprobe`` from
the table it clusters, and across table seeds that choice flips between 8 and
16 probes, which halves throughput: a fixed artifact keeps runs with different
traffic seeds comparable.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

from benchmarks.bench_inference_throughput import _zipf_queries
from hostspeed import HostProbe
from report import latency_metrics

N_ENTITIES = 100_000
N_RELATIONS = 64
DIM = 64
PARTITIONS = 8
DISTINCT = 4096
STREAM = 60_000
BATCH = 8
K = 10
#: An LRU of this size reaches its steady hit ratio on this stream (about
#: 0.68) within the warm-up, so the window's hit ratio does not depend on
#: how many queries the window gets through.
CACHE_SIZE = 1024
#: Queries replayed before the window so it sees a warm result cache.
WARM_QUERIES = 2048
RECALL_SAMPLE = 256
ARTIFACT_SEED = 0
SETUPS = 3


def _write_artifact(directory: str, seed: int) -> str:
    """Partitioned SpTransE artifact whose entity rows are clustered.

    A trained entity table groups entities by type, the structure IVF
    exploits; the rows are a seeded mixture of Gaussians and relations are
    small offsets, as TransE relations are.
    """
    from repro.models.transe import SpTransE
    from repro.training.checkpoint import save_checkpoint, save_weight_files

    artifact = os.path.join(directory, "artifact")
    model = SpTransE(N_ENTITIES, N_RELATIONS, DIM, rng=seed, partitions=PARTITIONS,
                     partition_dir=os.path.join(directory, "buckets"))
    try:
        rng = np.random.default_rng(seed)
        n_centers = 2 * int(np.sqrt(N_ENTITIES))
        centers = rng.standard_normal((n_centers, DIM))
        rows = (centers[rng.integers(0, n_centers, size=N_ENTITIES)]
                + 0.1 * rng.standard_normal((N_ENTITIES, DIM)))
        model.embeddings.write_rows(np.arange(N_ENTITIES, dtype=np.int64), rows)
        model.embeddings.relations.data[...] = \
            0.05 * rng.standard_normal(model.embeddings.relations.data.shape)
        save_checkpoint(os.path.join(artifact, "checkpoint.npz"), model)
        save_weight_files(artifact, model, ann="ivf", ann_nprobe=None)
    finally:
        model.embeddings.close()
    return artifact


def _set_up(directory: str, seed: int):
    from repro.ann import ARTIFACT_INDEX, load_index
    from repro.serving import InferenceEngine
    from repro.training.checkpoint import load_model

    artifact = _write_artifact(directory, seed)
    model = load_model(artifact, mmap=True)
    index = load_index(os.path.join(artifact, ARTIFACT_INDEX))
    engine = InferenceEngine(model, cache_size=CACHE_SIZE, ann_index=index)
    engine.top_k_tails(0, 0, k=K)
    engine.cache.clear()
    return engine


def _answer_ok(result, k: int) -> bool:
    ids = result.entities
    scores = result.scores
    return (len(ids) == k and len(set(ids)) == k
            and all(0 <= i < N_ENTITIES for i in ids)
            and all(np.isfinite(scores))
            and all(a <= b for a, b in zip(scores, scores[1:])))


def _recall(engine, answers: Dict, seed: int) -> float:
    """Recall@K of the served answers against an exact engine on a sample."""
    from repro.serving import InferenceEngine, TopKQuery

    exact = InferenceEngine(engine.model, cache_size=0)
    keys = sorted(answers)
    rng = np.random.default_rng(seed)
    if len(keys) > RECALL_SAMPLE:
        keys = [keys[i] for i in np.sort(rng.choice(len(keys), RECALL_SAMPLE,
                                                     replace=False))]
    hits = 0
    for direction in ("tail", "head"):
        group = [key for key in keys if key[0] == direction]
        queries = [TopKQuery(anchor, relation, K) for _, anchor, relation in group]
        batch = (exact.top_k_tails_batch if direction == "tail"
                 else exact.top_k_heads_batch)
        for start in range(0, len(queries), 64):
            truth = batch(queries[start:start + 64])
            for key, result in zip(group[start:start + 64], truth):
                hits += len(set(result.entities) & set(answers[key].entities))
    return hits / float(K * max(1, len(keys)))


def _faults(engine) -> float:
    stats = engine.stats()
    counters = getattr(engine.model.embeddings, "counters", {})
    return float(stats["ann"]["index_faults"] + counters.get("faults", 0))


def run(workload: str, seed: int, seconds: float, tracer, scratch: str) -> Dict:
    span = tracer.span if tracer is not None else (lambda _n: contextlib.nullcontext())
    stream = _zipf_queries(STREAM, DISTINCT, N_ENTITIES, k=K, seed=seed)
    setup_s: List[float] = []
    directory = None
    engine = None
    try:
        for _ in range(SETUPS):
            if directory is not None:
                engine.model.embeddings.close()
                engine = None
                shutil.rmtree(directory, ignore_errors=True)
                gc.collect()
            directory = tempfile.mkdtemp(prefix="ann-", dir=scratch)
            start = time.perf_counter()
            engine = _set_up(directory, ARTIFACT_SEED)
            setup_s.append(time.perf_counter() - start)
        half = BATCH // 2
        for position in range(0, WARM_QUERIES, BATCH):
            engine.top_k_tails_batch(stream[position:position + half])
            engine.top_k_heads_batch(stream[position + half:position + BATCH])
        faults_before = _faults(engine)

        latencies: List[float] = []
        answers: Dict = {}
        bad = 0
        queries = 0
        position = WARM_QUERIES
        probe = HostProbe() if tracer is None else None
        if tracer is not None:
            tracer.active = True
        window_start = time.perf_counter()
        deadline = window_start + seconds
        while time.perf_counter() < deadline:
            if probe is not None:
                probe.tick()
            if position + BATCH > len(stream):
                position = 0
            batch = stream[position:position + BATCH]
            position += BATCH
            if tracer is not None:
                tracer.set_unit(len(latencies))
            start = time.perf_counter()
            with span("serve.call"):
                tails = engine.top_k_tails_batch(batch[:half])
                heads = engine.top_k_heads_batch(batch[half:])
            latencies.append((time.perf_counter() - start) * 1e3)
            queries += len(batch)
            for direction, group, results in (("tail", batch[:half], tails),
                                              ("head", batch[half:], heads)):
                for q, result in zip(group, results):
                    if not _answer_ok(result, q.k):
                        bad += 1
                    answers[(direction, q.anchor, q.relation)] = result
        window_s = time.perf_counter() - window_start - (probe.spent_s if probe else 0.0)
        if tracer is not None:
            tracer.active = False
        faults = _faults(engine) - faults_before
        stats = engine.stats()
        recall = _recall(engine, answers, seed)
        nprobe = stats["ann"]["nprobe"]
    finally:
        if engine is not None:
            engine.model.embeddings.close()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    return {
        "attempted": queries,
        "failed": bad,
        "checks": {"answers_valid": bad == 0, "recall_at_10_min": recall >= 0.9},
        "window_s": window_s,
        "backend": "ann-ivf",
        "slowdown": probe.slowdown() if probe is not None else 1.0,
        "end_to_end": {
            "setup_s": float(np.median(setup_s)),
            "throughput_per_s": queries / window_s,
            **latency_metrics(latencies),
        },
        "layers": {"quality.recall_at_10": recall, "ann.faults": faults},
        "info": {
            "calls": len(latencies), "queries": queries, "nprobe": nprobe,
            "distinct_answered": len(answers), "recall_at_10": recall,
            "cache_hit_rate": stats["cache"]["hit_rate"],
            "probed_fraction": stats["probed_fraction"],
            "setup_s_samples": setup_s,
        },
    }
