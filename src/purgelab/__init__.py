"""Metric-learning lab for equivalent-mutant detection.

Trains a desk-scale pair classifier jointly with cluster purge loss, a
per-class hinge objective over EMA verges of origin-mutant distances, and
ships the corpus tooling, baselines, sweep engine, and diagnostics around it.
"""

from .data import (
    Corpus,
    FeatureCache,
    HashingFeatures,
    MutantRecord,
    TableFeatures,
    dedup,
    generate_synthetic,
    ingest,
    make_batches,
    split,
    write_corpus,
)
from .errors import PurgelabError
from .evaluation import (
    DistanceStats,
    EvalReport,
    SweepGrid,
    distance_stats,
    evaluate,
    export_embeddings,
    permutation_pvalue,
    sweep,
)
from .losses import (
    EmbeddedBatch,
    LossConfig,
    LossOutput,
    cluster_purge_loss,
    contrastive_loss,
    cross_entropy,
    joint_loss,
    triplet_batch_loss,
)
from .trainer import (
    TrainConfig,
    TrainerState,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
    train_step,
)
from .vecmath import cosine_distance, ema_batch, ema_step, finite_difference_gradient
from .verges import VergeRegistry, VergeState

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "DistanceStats",
    "EmbeddedBatch",
    "EvalReport",
    "FeatureCache",
    "HashingFeatures",
    "LossConfig",
    "LossOutput",
    "MutantRecord",
    "PurgelabError",
    "SweepGrid",
    "TableFeatures",
    "TrainConfig",
    "TrainerState",
    "VergeRegistry",
    "VergeState",
    "cluster_purge_loss",
    "contrastive_loss",
    "cosine_distance",
    "cross_entropy",
    "dedup",
    "distance_stats",
    "ema_batch",
    "ema_step",
    "evaluate",
    "export_embeddings",
    "finite_difference_gradient",
    "generate_synthetic",
    "ingest",
    "joint_loss",
    "load_checkpoint",
    "make_batches",
    "permutation_pvalue",
    "resume",
    "save_checkpoint",
    "split",
    "sweep",
    "train",
    "train_step",
    "triplet_batch_loss",
    "write_corpus",
]
