"""Evaluation harness: confusion metrics, embedding-space diagnostics, the
metric-weight x margin sweep engine, and embedding export.

Precision/recall/F1 are binary metrics on the equivalent class (label 1).
Undefined metrics (zero denominators) are reported as ``None``, never as a
silent 0. Argmax ties in the classifier are broken toward non-equivalent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Iterator

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


# Rows per encoder and pair-head call on a corpus of n pairs: eval, stats and
# export hold one block's intermediates, not the corpus's. BLAS can take
# other kernels, with other rounding, for a product of few rows, so no call
# has fewer than min(n, EVAL_BLOCK) rows. With OpenBLAS 0.3.31 on x86-64 each
# embedding then has the bits of one call on the whole corpus; pair-head
# logits can move by about 1e-15, and no prediction has moved.
EVAL_BLOCK = 256


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of ``range(n)``, EVAL_BLOCK rows each, the last one
    taking a shorter remainder too."""
    ends = [*range(EVAL_BLOCK, n - EVAL_BLOCK + 1, EVAL_BLOCK), n]
    return [slice(start, end) for start, end in zip([0, *ends], ends)]


def _encode(params, features: np.ndarray) -> np.ndarray:
    """The unit embeddings of the rows of ``features``, encoded block by block."""
    embeddings = np.empty((features.shape[0], params.w2.shape[0]))
    for rows in _blocks(features.shape[0]):
        embeddings[rows] = encode_batch(params, features[rows]).embeddings
    return embeddings


def _embeddings(state: TrainerState, data: FeatureCache) -> tuple[np.ndarray, np.ndarray]:
    """The embeddings of ``data.origins``, one row per class, and of every
    mutant. The origins are encoded cycled to at least min(n, EVAL_BLOCK)
    rows, as large as a block of pairs, for the bits of a call on the whole
    corpus."""
    k = data.origins.shape[0]
    cycled = np.arange(max(k, min(len(data), EVAL_BLOCK))) % k
    return _encode(state.encoder, data.origins[cycled])[:k], _encode(state.encoder, data.mutant_features)


def evaluate(state: TrainerState, data: FeatureCache) -> EvalReport:
    """Classify every pair and aggregate binary metrics on the equivalent class."""
    predictions = np.empty(len(data), dtype=np.int64)
    origins, mutants = _embeddings(state, data)
    for rows in _blocks(len(data)):
        logits = classify_pairs(state.head, origins[data.origin_rows[rows]], mutants[rows]).logits
        predictions[rows] = logits[:, 1] > logits[:, 0]  # tie -> 0
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
    distances = np.empty(len(data))
    origins, mutants = _embeddings(state, data)
    for rows in _blocks(len(data)):
        batch = EmbeddedBatch(data.class_ids[rows], data.labels[rows], origins[data.origin_rows[rows]], mutants[rows])
        distances[rows] = batch.distances
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

    Resamples are drawn into the rows of one preallocated block: each row is
    a copy of the pool that ``rng.permuted`` shuffles in place, in row order,
    with the draws of ``rng.permutation(pool)``.
    A row-wise sum adds each row in the pairwise order of ``mean`` on a 1-D
    slice, so the p-value is the one a loop of one resample at a time gives.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise StratifyError("permutation test needs nonempty samples on both sides")
    if resamples < 1:
        raise ConfigError(f"resamples must be >= 1, got {resamples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    observed = abs(float(a.mean()) - float(b.mean()))
    pool = np.concatenate([a, b])
    n_a, n_b = a.size, b.size
    rng = np.random.default_rng(seed)
    rows = max(1, min(64, resamples, (1 << 20) // pool.nbytes))  # at most 64 rows and 1 MB
    block = np.empty((rows, pool.size))
    hits = 0
    for done in range(0, resamples, rows):
        perms = block[: min(rows, resamples - done)]
        perms[:] = pool
        rng.permuted(perms, axis=1, out=perms)
        diffs = np.abs(perms[:, :n_a].sum(axis=1) / n_a - perms[:, n_a:].sum(axis=1) / n_b)
        hits += int(np.count_nonzero(diffs >= observed))
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
    lambda_values: list[float],
    zeta_values: list[float],
    workers: int = 1,
) -> SweepGrid:
    """Train and evaluate one model per (lam, zeta) cell of two lists of floats.

    All cells share the base config, seed and featurized corpora and are
    fully independent, so a cell rerun in isolation reproduces its in-sweep
    result exactly. A cell that fails with a purgelab error (divergence, an
    invalid lam or zeta) records its error and the sweep continues.
    ``workers`` is capped by :func:`sweep_workers`.
    """
    if not lambda_values or not zeta_values:
        raise ConfigError("sweep needs at least one value per axis")
    lams = [lam for lam in lambda_values for _ in zeta_values]
    zetas = zeta_values * len(lambda_values)
    workers = sweep_workers(workers, len(lams))
    run_cell = partial(_run_cell, base_config, train_data, test_data)
    if workers > 1:
        # Imported here, so that a process that runs no pool does not hold one.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bystanders = set(multiprocessing.active_children())
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            cells = list(pool.map(run_cell, lams, zetas))
        except BaseException:
            # A pool's own shutdown waits for the running cells, and a second
            # Ctrl-C in that wait would leave the workers alive and the
            # process unable to exit, so they are ended here, and only they.
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in set(multiprocessing.active_children()) - bystanders:
                worker.terminate()
                worker.join()
            raise
        pool.shutdown()
    else:
        cells = list(map(run_cell, lams, zetas))
    return SweepGrid(lambda_values=lambda_values, zeta_values=zeta_values, cells=cells)


def export_embeddings(state: TrainerState, data: FeatureCache, class_filter=None) -> Iterator[tuple]:
    """Embedding rows (class_id, label, role, *components) for external tools.

    One ``origin`` row per selected class (label -1: origins carry no
    equivalence label) followed by one ``mutant`` row per record, in
    deterministic class-then-corpus order. The filter is checked, and every
    pair embedded, before this returns; the rows are
    then made one at a time as they are iterated.
    """
    present = {int(c) for c in data.class_ids}
    wanted = present if class_filter is None else {int(c) for c in class_filter}
    if wanted - present:
        raise UnknownClassError(f"classes not in corpus: {sorted(wanted - present)}")
    origins, mutants = _embeddings(state, data)
    order = np.argsort(data.class_ids, kind="stable")  # by class, in corpus order within one
    groups = np.split(order, np.flatnonzero(np.diff(data.class_ids[order])) + 1)

    def rows():
        for members in (g for g in groups if int(data.class_ids[g[0]]) in wanted):
            cid = int(data.class_ids[members[0]])
            yield (cid, -1, "origin", *origins[data.origin_rows[members[0]]].tolist())
            for i in members:
                yield (cid, int(data.labels[i]), "mutant", *mutants[i].tolist())

    return rows()
