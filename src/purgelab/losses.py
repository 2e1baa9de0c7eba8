"""Loss functions for the joint training objective.

The centerpiece is the cluster purge loss: a per-class hinge that pulls
equivalent mutants inside their class's negative verge and pushes
non-equivalent mutants outside the positive verge, each by a margin. The
module also provides the adapted contrastive loss, a minimal triplet
baseline, stabilized two-way cross-entropy, and the joint combination, all
with analytic gradients with respect to the embeddings (and logits where
applicable).

Every metric loss and the verge update read one :class:`EmbeddedBatch`, which
holds a minibatch batch-first and computes its row norms and origin-mutant
distances once. Loss values are summed with plain loops in batch order and
the hinge powers are taken on Python floats, which keeps the bits of a
sample-by-sample evaluation: ``np.sum`` adds pairwise, ``sum()`` compensates
from Python 3.12 on, and numpy's vectorized ``**`` can round differently
from the scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    EmptyBatchError,
    NormalizationError,
    NumericError,
)
from .vecmath import (
    cosine_distance_gradients,
    cosine_distances,
    ema_rate,
    row_norms,
)

# Not called here: purgebench's tracer counts calls made through these module
# attributes, so they stay importable from this module.
from .vecmath import cosine_distance, cosine_distance_gradient  # noqa: F401

if TYPE_CHECKING:
    from .verges import VergeRegistry

_UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters shared by the metric losses.

    gamma          EMA smoothing factor for verge updates (>= 1).
    alpha          exponent on the equivalent-side hinge (> 0).
    beta           exponent on the non-equivalent-side hinge (> 0).
    zeta           margin added to both hinge arguments; may be negative,
                   which carves an error zone the loss leaves alone. Also
                   used as the triplet baseline's margin.
    lam            weight of the metric loss in the joint objective.
    hinge_epsilon  floor for the hinge argument inside derivative factors
                   only, guarding fractional exponents near activation
                   onset; loss values are never clamped.
    """

    gamma: float = 12.0
    alpha: float = 2.0
    beta: float = 0.5
    zeta: float = -0.05
    lam: float = 1.15
    hinge_epsilon: float = 1e-6

    def __post_init__(self):
        ema_rate(self.gamma)  # raises ConfigError unless gamma is finite and >= 1
        if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ConfigError("alpha and beta must be finite and strictly positive")
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"lam must be finite and non-negative, got {self.lam!r}")
        if not 0.0 < self.hinge_epsilon <= 1e-3:
            raise ConfigError(f"hinge_epsilon must be in (0, 1e-3], got {self.hinge_epsilon!r}")
        if not np.isfinite(self.zeta):
            raise ConfigError("zeta must be finite")


@dataclass(eq=False)
class EmbeddedBatch:
    """A minibatch in embedding space, one row per corpus pair.

    Row i pairs the embedding of class ``class_ids[i]``'s original program with
    the embedding of one of its mutants; ``labels[i]`` is 1 when that mutant is
    equivalent. The row norms and the origin-mutant distances are computed
    once, on construction, and every row must be finite and nonzero. Use
    :meth:`from_rows` for rows that must also be unit-norm.
    """

    class_ids: np.ndarray  # (m,)
    labels: np.ndarray  # (m,), 0 or 1
    origins: np.ndarray  # (m, dim)
    mutants: np.ndarray  # (m, dim)
    origin_norms: np.ndarray = field(init=False)  # (m,)
    mutant_norms: np.ndarray = field(init=False)  # (m,)
    distances: np.ndarray = field(init=False)  # (m,), in [0, 1]

    def __post_init__(self):
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.origins = np.asarray(self.origins, dtype=np.float64)
        self.mutants = np.asarray(self.mutants, dtype=np.float64)
        m = self.class_ids.size
        if m == 0:
            raise EmptyBatchError("a batch needs at least one sample")
        if (
            self.class_ids.shape != (m,)
            or self.labels.shape != (m,)
            or self.origins.ndim != 2
            or self.origins.shape != self.mutants.shape
            or self.origins.shape[0] != m
        ):
            raise DimensionError(
                f"batch needs m class ids and labels and two (m, dim) embedding "
                f"matrices, got {self.class_ids.shape}, {self.labels.shape}, "
                f"{self.origins.shape} and {self.mutants.shape}"
            )
        if ((self.labels != 0) & (self.labels != 1)).any():
            raise ConfigError(f"labels must be 0 or 1, got {self.labels.tolist()!r}")
        self.origin_norms = row_norms(self.origins)
        self.mutant_norms = row_norms(self.mutants)
        if not (np.isfinite(self.origin_norms).all() and np.isfinite(self.mutant_norms).all()):
            raise NumericError("embeddings contain non-finite components")
        if not (self.origin_norms.all() and self.mutant_norms.all()):
            raise DegenerateVectorError("cosine distance is undefined for a zero vector")
        self.distances = cosine_distances(
            self.origins, self.mutants, self.origin_norms, self.mutant_norms
        )

    def __len__(self) -> int:
        return int(self.class_ids.shape[0])

    @classmethod
    def from_rows(cls, class_ids, labels, origins, mutants) -> "EmbeddedBatch":
        """A batch whose embedding rows must all be unit-norm, such as encoder output."""
        batch = cls(class_ids, labels, origins, mutants)
        for name, norms in (("origin", batch.origin_norms), ("mutant", batch.mutant_norms)):
            off = np.flatnonzero(np.abs(norms - 1.0) > _UNIT_NORM_TOL)
            if off.size:
                norm = float(norms[off[0]])
                raise NormalizationError(
                    f"{name} embedding {int(off[0])} must be unit-norm, got norm {norm!r}"
                )
        return batch

    def distance_grads(
        self, rows: Sequence[int], scales: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum_k scales[k] * distances[rows[k]] w.r.t. the origins
        and the mutants; rows not listed get zero."""
        origin_grads = np.zeros_like(self.origins)
        mutant_grads = np.zeros_like(self.mutants)
        if rows:
            idx = np.asarray(rows)
            grad_o, grad_s = cosine_distance_gradients(
                self.origins[idx], self.mutants[idx], self.origin_norms[idx], self.mutant_norms[idx]
            )
            scale = np.asarray(scales)[:, None]
            origin_grads[idx] = scale * grad_o
            mutant_grads[idx] = scale * grad_s
        return origin_grads, mutant_grads


@dataclass
class LossOutput:
    """Loss value plus the gradients the caller needs to backpropagate.

    Batch losses fill ``origin_grads``/``mutant_grads`` (one row per sample);
    cross-entropy fills ``logit_grads``. ``skipped_count`` counts samples whose
    term was dropped because the required opposite verge was uninitialized.
    """

    value: float
    skipped_count: int = 0
    origin_grads: np.ndarray | None = None
    mutant_grads: np.ndarray | None = None
    logit_grads: np.ndarray | None = None


def cluster_purge_loss(
    batch: EmbeddedBatch, registry: VergeRegistry, cfg: LossConfig
) -> LossOutput:
    """Cluster purge loss over a minibatch, with gradients into both embeddings.

    Each equivalent sample pays [dist - v_minus + zeta]_+ ^ alpha for sitting
    outside its class's negative verge; each non-equivalent sample pays
    [v_plus - dist + zeta]_+ ^ beta for sitting inside the positive verge.
    The mean is over the full batch size m, so a sample whose required
    opposite verge has never formed contributes zero (and is counted in
    ``skipped_count``) without shrinking the divisor. The registry is read as
    constants: callers update it before computing the loss, and no gradient
    flows into the verges.
    """
    m = len(batch)
    total = 0.0
    skipped = 0
    rows: list[int] = []
    scales: list[float] = []
    rows_in = zip(batch.class_ids.tolist(), batch.labels.tolist(), batch.distances.tolist())
    for i, (class_id, label, d) in enumerate(rows_in):
        state = registry.get(class_id)
        verge = None
        if state is not None:
            verge = state.v_minus if label == 1 else state.v_plus
        if verge is None:
            skipped += 1
            continue
        if label == 1:
            arg = d - verge + cfg.zeta
            exponent = cfg.alpha
            sign = 1.0
        else:
            arg = verge - d + cfg.zeta
            exponent = cfg.beta
            sign = -1.0
        if arg <= 0.0:
            continue
        total += arg**exponent
        # Derivative factor only: the floor keeps beta < 1 bounded at onset.
        factor = exponent * max(arg, cfg.hinge_epsilon) ** (exponent - 1.0)
        rows.append(i)
        scales.append(sign * factor / m)
    origin_grads, mutant_grads = batch.distance_grads(rows, scales)
    return LossOutput(
        value=total / m,
        skipped_count=skipped,
        origin_grads=origin_grads,
        mutant_grads=mutant_grads,
    )


def contrastive_loss(batch: EmbeddedBatch, cfg: LossConfig) -> LossOutput:
    """Adapted contrastive loss over origin-mutant pairs; class ids are unused.

    Equivalent pairs pay their raw distance, non-equivalent pairs pay
    [zeta - dist]_+, i.e. only while they sit inside the margin.
    """
    m = len(batch)
    total = 0.0
    rows: list[int] = []
    scales: list[float] = []
    for i, (label, d) in enumerate(zip(batch.labels.tolist(), batch.distances.tolist())):
        if label == 1:
            arg = d
            d_dist = 1.0 / m
        else:
            arg = cfg.zeta - d
            d_dist = -1.0 / m
        if arg <= 0.0:
            continue
        total += arg
        rows.append(i)
        scales.append(d_dist)
    origin_grads, mutant_grads = batch.distance_grads(rows, scales)
    return LossOutput(value=total / m, origin_grads=origin_grads, mutant_grads=mutant_grads)


def triplet_batch_loss(batch: EmbeddedBatch, margin: float) -> LossOutput:
    """Mean triplet hinge [dist(o_i, s_i) - dist(o_i, s_j) + margin]_+ over a
    minimal in-batch sampler.

    Every same-class pair of an equivalent row i and a non-equivalent row j
    forms one (origin i, mutant i, mutant j) triplet, in row-major (i, j)
    order. The mean is over all triplets; a batch without one contributes
    zero. Uses the same normalized cosine distance as the other losses.
    """
    origin_grads = np.zeros_like(batch.origins)
    mutant_grads = np.zeros_like(batch.mutants)
    equivalent = batch.labels == 1
    same_class = batch.class_ids[:, None] == batch.class_ids[None, :]
    anchors, negatives = np.nonzero(equivalent[:, None] & ~equivalent[None, :] & same_class)
    n = anchors.size
    if n == 0:
        return LossOutput(value=0.0, origin_grads=origin_grads, mutant_grads=mutant_grads)
    o, o_norms = batch.origins[anchors], batch.origin_norms[anchors]
    s_neg, s_neg_norms = batch.mutants[negatives], batch.mutant_norms[negatives]
    args = batch.distances[anchors] - cosine_distances(o, s_neg, o_norms, s_neg_norms) + margin
    active = args > 0.0
    total = 0.0
    for arg in args[active].tolist():
        total += arg
    if active.any():
        i, j = anchors[active], negatives[active]
        o, o_norms = o[active], o_norms[active]
        grad_o_pos, grad_pos = cosine_distance_gradients(
            o, batch.mutants[i], o_norms, batch.mutant_norms[i]
        )
        grad_o_neg, grad_neg = cosine_distance_gradients(
            o, s_neg[active], o_norms, s_neg_norms[active]
        )
        # Unbuffered adds in triplet order, as a triplet-by-triplet fold would.
        np.add.at(origin_grads, i, grad_o_pos - grad_o_neg)
        np.add.at(mutant_grads, i, grad_pos)
        np.add.at(mutant_grads, j, -grad_neg)
    origin_grads /= n
    mutant_grads /= n
    return LossOutput(value=total / n, origin_grads=origin_grads, mutant_grads=mutant_grads)


def cross_entropy(logits, labels) -> LossOutput:
    """Mean two-way softmax cross-entropy, with max-subtraction stabilization.

    ``logits`` is one 2-vector with an int label, or an (m, 2) matrix with m
    labels. Returns the mean over rows of -log softmax(row)[label] and its
    gradient (softmax - one_hot) / m, shaped like ``logits``.
    """
    z = np.asarray(logits, dtype=np.float64)
    rows = z.reshape(1, -1) if z.ndim == 1 else z
    labels = np.asarray(labels).reshape(-1)
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] == 0:
        raise DimensionError(f"logits must be 2-vectors, got shape {z.shape}")
    m = rows.shape[0]
    if labels.shape != (m,):
        raise DimensionError(f"need one label per logit row, got {labels.shape[0]} for {m}")
    if not np.isfinite(rows).all():
        raise NumericError("logits contains non-finite components")
    if ((labels != 0) & (labels != 1)).any():
        raise ConfigError(f"label must be 0 or 1, got {labels.tolist()!r}")
    labels = labels.astype(np.intp, copy=False)
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    totals = exp[:, 0] + exp[:, 1]
    picked = np.arange(m), labels
    total = 0.0
    for value in (np.log(totals) - shifted[picked]).tolist():
        total += value
    grad = exp / totals[:, None]
    grad[picked] -= 1.0
    grad /= m
    return LossOutput(value=total / m, logit_grads=grad.reshape(z.shape))


def joint_loss(metric_value: float, ce_value: float, lam: float) -> float:
    """Joint objective: metric_value * lam + ce_value, which must be finite."""
    if lam < 0.0:
        raise ConfigError(f"lam must be non-negative, got {lam!r}")
    joint = metric_value * lam + ce_value
    if not np.isfinite(joint):
        raise NumericError(f"non-finite joint loss {joint!r}")
    return joint
