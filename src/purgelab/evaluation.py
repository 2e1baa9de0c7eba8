"""Evaluation harness: confusion metrics, embedding-space diagnostics, the
metric-weight x margin sweep engine, and embedding export.

Precision/recall/F1 are binary metrics on the equivalent class (label 1).
Undefined metrics (zero denominators) are reported as ``None``, never as a
silent 0. Argmax ties in the classifier are broken toward non-equivalent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import FeatureCache
from .encoder import classify_pairs, encode_batch
from .errors import ConfigError, PurgelabError, StratifyError, UnknownClassError
from .losses import EmbeddedBatch
from .trainer import TrainConfig, TrainerState, train, with_loss

# Not called here: purgebench's tracer counts calls made through this module
# attribute, so it stays importable from this module.
from .vecmath import cosine_distance  # noqa: F401


@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "EvalReport":
        precision = tp / (tp + fp) if tp + fp > 0 else None
        recall = tp / (tp + fn) if tp + fn > 0 else None
        f1 = None
        if precision is not None and recall is not None and precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        return cls(tp=tp, fp=fp, tn=tn, fn=fn, precision=precision, recall=recall, f1=f1)


def _embed(state: TrainerState, data: FeatureCache) -> tuple[np.ndarray, np.ndarray]:
    """The (origin, mutant) embeddings of every pair."""
    return (
        encode_batch(state.encoder, data.origin_features).embeddings,
        encode_batch(state.encoder, data.mutant_features).embeddings,
    )


def evaluate(state: TrainerState, data: FeatureCache) -> EvalReport:
    """Classify every pair and aggregate binary metrics on the equivalent class."""
    if len(data) == 0:
        raise ConfigError("cannot evaluate on an empty corpus")
    origins, mutants = _embed(state, data)
    logits = classify_pairs(state.head, origins, mutants).logits
    predictions = (logits[:, 1] > logits[:, 0]).astype(np.int64)  # tie -> 0
    labels = data.labels
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    return EvalReport.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class DistanceStats:
    """Per-label summary of origin-mutant embedding distances."""

    n_eq: int
    mean_eq: float
    std_eq: float
    n_noneq: int
    mean_noneq: float
    std_noneq: float
    ratio: float | None  # mean_noneq / mean_eq, absent when mean_eq == 0

    @classmethod
    def from_distances(cls, eq: np.ndarray, noneq: np.ndarray) -> "DistanceStats":
        """Summary of the (equivalent, non-equivalent) split of :func:`pair_distances`."""
        if eq.size == 0 or noneq.size == 0:
            raise StratifyError("distance stats need at least one sample per label")
        mean_eq = float(eq.mean())
        mean_noneq = float(noneq.mean())
        return cls(
            n_eq=int(eq.size),
            mean_eq=mean_eq,
            std_eq=float(eq.std()),
            n_noneq=int(noneq.size),
            mean_noneq=mean_noneq,
            std_noneq=float(noneq.std()),
            ratio=mean_noneq / mean_eq if mean_eq > 0.0 else None,
        )


def pair_distances(state: TrainerState, data: FeatureCache) -> tuple[np.ndarray, np.ndarray]:
    """Raw origin-mutant distances, split by label: (equivalent, non-equivalent)."""
    if len(data) == 0:
        raise ConfigError("cannot compute distances on an empty corpus")
    distances = EmbeddedBatch(data.class_ids, data.labels, *_embed(state, data)).distances
    return distances[data.labels == 1], distances[data.labels == 0]


def distance_stats(state: TrainerState, data: FeatureCache) -> DistanceStats:
    return DistanceStats.from_distances(*pair_distances(state, data))


@dataclass
class PermutationResult:
    p_value: float
    observed_diff: float
    resamples: int


def permutation_pvalue(a, b, resamples: int = 10_000, seed: int = 0) -> PermutationResult:
    """Two-sample permutation test on the absolute difference of means.

    Pools the samples, reshuffles ``resamples`` times with a seeded generator,
    and reports the add-one-smoothed two-sided p-value. Distribution-free and
    fully reproducible.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise StratifyError("permutation test needs nonempty samples on both sides")
    if resamples < 1:
        raise ConfigError(f"resamples must be >= 1, got {resamples}")
    observed = abs(float(a.mean()) - float(b.mean()))
    pool = np.concatenate([a, b])
    n_a = a.size
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(resamples):
        perm = rng.permutation(pool)
        diff = abs(float(perm[:n_a].mean()) - float(perm[n_a:].mean()))
        if diff >= observed:
            hits += 1
    return PermutationResult(
        p_value=(hits + 1) / (resamples + 1),
        observed_diff=observed,
        resamples=resamples,
    )


@dataclass
class SweepCell:
    lam: float
    zeta: float
    report: EvalReport | None
    error: str | None = None


@dataclass
class SweepGrid:
    lambda_values: list[float]
    zeta_values: list[float]
    cells: list[SweepCell]  # row-major: lambda outer, zeta inner

    def cell(self, i: int, j: int) -> SweepCell:
        return self.cells[i * len(self.zeta_values) + j]

    def best(self) -> SweepCell | None:
        """Best cell by F1, ties broken by precision, then lowest (lam, zeta)."""
        scored = [
            c for c in self.cells if c.report is not None and c.report.f1 is not None
        ]
        if not scored:
            return None
        return min(scored, key=lambda c: (-c.report.f1, -c.report.precision, c.lam, c.zeta))


def _run_cell(base_config: TrainConfig, train_data: FeatureCache, test_data: FeatureCache,
              lam: float, zeta: float) -> SweepCell:
    try:
        config = with_loss(base_config, lam=lam, zeta=zeta)
        result = train(config, train_data)
        report = evaluate(result.state, test_data)
    except PurgelabError as exc:
        return SweepCell(lam=lam, zeta=zeta, report=None, error=f"{type(exc).__name__}: {exc}")
    return SweepCell(lam=lam, zeta=zeta, report=report)


def sweep_workers(requested: int, cells: int) -> int:
    """Worker processes for a sweep: at most one per cell and one per CPU.
    Fewer than one requested worker is a :class:`ConfigError`."""
    if requested < 1:
        raise ConfigError(f"workers must be >= 1, got {requested}")
    return min(requested, cells, os.cpu_count() or 1)


def sweep(
    base_config: TrainConfig,
    train_data: FeatureCache,
    test_data: FeatureCache,
    lambda_values,
    zeta_values,
    workers: int = 1,
) -> SweepGrid:
    """Train and evaluate one model per (lam, zeta) cell.

    All cells share the base config, seed and featurized corpora and are
    fully independent, so a cell rerun in isolation reproduces its in-sweep
    result exactly. A cell that fails with a purgelab error (divergence, an
    invalid lam or zeta) records its error and the sweep continues.
    ``workers`` is capped by :func:`sweep_workers`.
    """
    lambda_values = [float(v) for v in lambda_values]
    zeta_values = [float(v) for v in zeta_values]
    if not lambda_values or not zeta_values:
        raise ConfigError("sweep needs at least one value per axis")
    if len(train_data) == 0 or len(test_data) == 0:
        raise ConfigError("cannot sweep over an empty train or test corpus")
    lams = [lam for lam in lambda_values for _ in zeta_values]
    zetas = zeta_values * len(lambda_values)
    workers = sweep_workers(workers, len(lams))
    run_cell = partial(_run_cell, base_config, train_data, test_data)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, lams, zetas))
    else:
        cells = list(map(run_cell, lams, zetas))
    return SweepGrid(lambda_values=lambda_values, zeta_values=zeta_values, cells=cells)


def export_embeddings(state: TrainerState, data: FeatureCache, class_filter=None) -> list[tuple]:
    """Embedding rows (class_id, label, role, *components) for external tools.

    One ``origin`` row per selected class (label -1: origins carry no
    equivalence label) followed by one ``mutant`` row per record, in
    deterministic class-then-corpus order.
    """
    if len(data) == 0:
        raise ConfigError("cannot export an empty corpus")
    origins, mutants = _embed(state, data)
    present = {int(c) for c in data.class_ids}
    if class_filter is not None:
        wanted = {int(c) for c in class_filter}
        unknown = wanted - present
        if unknown:
            raise UnknownClassError(f"classes not in corpus: {sorted(unknown)}")
    else:
        wanted = present
    rows: list[tuple] = []
    for cid in sorted(wanted):
        mask = np.flatnonzero(data.class_ids == cid)
        first = int(mask[0])
        rows.append((cid, -1, "origin", *origins[first].tolist()))
        for i in mask:
            rows.append((cid, int(data.labels[i]), "mutant", *mutants[int(i)].tolist()))
    return rows
