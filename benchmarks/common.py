"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper.  Because the
paper's runs use an A100 + 64-core EPYC for hours, each harness here exposes a
*scale* knob: the pytest-benchmark entry points run at a small default scale
(seconds per case), while each module's ``main()`` accepts command-line
arguments for larger, closer-to-paper runs.  Dataset shapes always come from
the paper's Table 3 catalog (scaled proportionally), so the relative workload
mix across datasets is preserved.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

from repro.baselines import DenseTorusE, DenseTransE, DenseTransH, DenseTransR
from repro.data import (
    KGDataset,
    TripletBatch,
    UniformNegativeSampler,
    make_dataset_like,
)
from repro.data.catalog import BENCHMARK_DATASETS
from repro.models import SpTorusE, SpTransE, SpTransH, SpTransR
from repro.training import Trainer, TrainingConfig

#: Default down-scaling of the paper's datasets for CPU-friendly benchmark runs.
DEFAULT_SCALE = 0.004
#: Datasets averaged over by the paper's headline tables (Table 3).
DATASETS = list(BENCHMARK_DATASETS)
#: Embedding dimension used by the quick benchmark runs (the paper uses up to 1024).
DEFAULT_DIM = 64
#: The four models the paper implements, with their sparse and dense classes.
MODEL_PAIRS: Dict[str, Tuple[type, type, dict]] = {
    "TransE": (SpTransE, DenseTransE, {}),
    "TransR": (SpTransR, DenseTransR, {"relation_dim": 32}),
    "TransH": (SpTransH, DenseTransH, {}),
    "TorusE": (SpTorusE, DenseTorusE, {}),
}


def host_fingerprint() -> Dict[str, object]:
    """Core count and toolchain versions, stored with every checked-in result."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


@dataclass
class BenchCase:
    """One (dataset, model, formulation) benchmark configuration."""

    dataset_name: str
    model_name: str
    formulation: str          # "sparse" or "dense"
    scale: float = DEFAULT_SCALE
    embedding_dim: int = DEFAULT_DIM

    @property
    def label(self) -> str:
        return f"{self.model_name}/{self.dataset_name}/{self.formulation}"


def load_scaled_dataset(name: str, scale: float = DEFAULT_SCALE, seed: int = 0) -> KGDataset:
    """Synthetic stand-in for one catalog dataset at the given scale."""
    return make_dataset_like(name, scale=scale, rng=seed)


def build_model(model_name: str, formulation: str, kg: KGDataset,
                embedding_dim: int = DEFAULT_DIM, seed: int = 0):
    """Instantiate the sparse or dense variant of one of the paper's models."""
    sparse_cls, dense_cls, kwargs = MODEL_PAIRS[model_name]
    cls = sparse_cls if formulation == "sparse" else dense_cls
    return cls(kg.n_entities, kg.n_relations, embedding_dim, rng=seed, **kwargs)


def make_batch(kg: KGDataset, batch_size: int, seed: int = 0) -> TripletBatch:
    """A fixed positive/negative batch (negatives pre-generated, paper protocol)."""
    sampler = UniformNegativeSampler(kg.n_entities, rng=seed)
    positives = kg.split.train[:batch_size]
    return TripletBatch(positives=positives, negatives=sampler.corrupt(positives))


def paper_training_config(epochs: int = 2, batch_size: int = 4096,
                          seed: int = 0) -> TrainingConfig:
    """The paper's Section-5.3 configuration (lr 4e-4, margin 0.5, Adam)."""
    return TrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=4e-4,
                          margin=0.5, optimizer="adam", seed=seed)


def train_case(case: BenchCase, epochs: int, batch_size: int = 4096, seed: int = 0):
    """Train one benchmark case and return (model, TrainingResult)."""
    kg = load_scaled_dataset(case.dataset_name, scale=case.scale, seed=seed)
    model = build_model(case.model_name, case.formulation, kg,
                        embedding_dim=case.embedding_dim, seed=seed)
    result = Trainer(model, kg, paper_training_config(epochs, batch_size, seed)).train()
    return model, result


def format_table(rows: List[Dict[str, object]], columns: List[str],
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) if rows else len(c)
              for c in columns}
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def geometric_mean(values) -> float:
    """Geometric mean used for averaging speedup factors across datasets."""
    values = np.asarray(list(values), dtype=float)
    values = values[values > 0]
    return float(np.exp(np.log(values).mean())) if values.size else float("nan")
