"""Training workloads: SpTransE with Adam on FB15K- and YAGO3-10-shaped graphs.

Set-up (timed as ``setup_s``) generates the synthetic graph, builds the model,
optimizer and trainer, and pulls the first batch, which pre-generates every
negative.  The timed window then runs ``Trainer.train_step`` over the batch
stream for the requested seconds, doing the trainer's epoch-end work
(renormalisation, and for the row-sparse workload a checkpoint with optimizer
state) at each epoch boundary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import os
import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

from benchmarks.common import load_scaled_dataset, paper_training_config
from hostspeed import HostProbe
from report import latency_metrics

#: name -> (catalog dataset, scale, sparse_grads, checkpoint every epoch)
WORKLOADS = {
    "train_fb15k_dense": ("FB15K", 1.0, False, False),
    "train_yago_rowsparse": ("YAGO3-10", 0.25, True, True),
}
DIM = 64
BATCH_SIZE = 4096
BACKEND = "scipy"
SETUPS = 3


def _set_up(dataset: str, scale: float, sparse_grads: bool, seed: int):
    from repro.models import SpTransE
    from repro.training import Trainer

    kg = load_scaled_dataset(dataset, scale=scale, seed=seed)
    model = SpTransE(kg.n_entities, kg.n_relations, DIM, backend=BACKEND, rng=seed)
    config = dataclasses.replace(paper_training_config(1, BATCH_SIZE, seed),
                                 sparse_grads=sparse_grads)
    trainer = Trainer(model, kg, config)
    batches = iter(trainer.batches)
    first = next(batches)  # pre-generates the negatives of every epoch
    return kg, trainer, batches, first


def run(workload: str, seed: int, seconds: float, tracer, scratch: str) -> Dict:
    from repro.training.checkpoint import save_checkpoint

    dataset, scale, sparse_grads, checkpoint_each_epoch = WORKLOADS[workload]
    setup_s: List[float] = []
    state = None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = _set_up(dataset, scale, sparse_grads, seed)
        setup_s.append(time.perf_counter() - start)
    kg, trainer, batches, pending = state
    per_epoch = len(trainer.batches)
    config = trainer.config
    span = tracer.span if tracer is not None else (lambda _n: contextlib.nullcontext())
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)

    step_ms: List[float] = []
    losses: List[float] = []
    step_epoch: List[int] = []
    positives = 0
    epoch = step_in_epoch = 0
    probe = HostProbe() if tracer is None else None
    if tracer is not None:
        tracer.active = True
    window_start = time.perf_counter()
    deadline = window_start + seconds
    try:
        while True:
            if probe is not None:
                probe.tick()
            if tracer is not None:
                tracer.set_unit(len(step_ms))
            start = time.perf_counter()
            with span("train.step"):
                with span("data.next"):
                    batch = pending if pending is not None else next(batches)
                pending = None
                stats = trainer.train_step(batch)
            step_ms.append((time.perf_counter() - start) * 1e3)
            losses.append(stats.loss)
            step_epoch.append(epoch)
            positives += batch.size
            step_in_epoch += 1
            if step_in_epoch == per_epoch:
                with span("train.epoch_end"):
                    if config.normalize_every and (epoch + 1) % config.normalize_every == 0:
                        trainer.model.normalize_parameters()
                    if checkpoint_each_epoch:
                        with span("training.checkpoint"):
                            save_checkpoint(os.path.join(ckpt_dir, "model.npz"),
                                            trainer.model, trainer.optimizer,
                                            epoch=epoch + 1)
                epoch += 1
                step_in_epoch = 0
                batches = iter(trainer.batches)
            if time.perf_counter() >= deadline:
                break
        window_s = time.perf_counter() - window_start - (probe.spent_s if probe else 0.0)
    finally:
        if tracer is not None:
            tracer.active = False
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    failed = sum(1 for loss in losses if not math.isfinite(loss))
    epochs = sorted(set(step_epoch))
    by_epoch = {e: [l for l, s in zip(losses, step_epoch) if s == e] for e in epochs}
    if len(epochs) >= 2:
        first_loss = float(np.mean(by_epoch[epochs[0]]))
        last_loss = float(np.mean(by_epoch[epochs[-1]]))
    else:
        half = max(1, len(losses) // 2)
        first_loss = float(np.mean(losses[:half]))
        last_loss = float(np.mean(losses[half:] or losses))
    checks = {
        "losses_finite": failed == 0,
        "loss_decreased": last_loss < first_loss,
    }
    return {
        "attempted": len(losses),
        "failed": failed,
        "checks": checks,
        "window_s": window_s,
        "backend": BACKEND,
        "end_to_end": {
            "setup_s": float(np.median(setup_s)),
            "throughput_per_s": positives / window_s,
            **latency_metrics(step_ms),
        },
        "slowdown": probe.slowdown() if probe is not None else 1.0,
        "layers": {"quality.final_loss": last_loss},
        "info": {
            "entities": kg.n_entities, "relations": kg.n_relations,
            "triples": int(kg.split.train.shape[0]),
            "batches_per_epoch": per_epoch, "steps": len(losses),
            "epochs_started": len(epochs), "first_epoch_loss": first_loss,
            "final_loss": last_loss, "setup_s_samples": setup_s,
        },
    }
