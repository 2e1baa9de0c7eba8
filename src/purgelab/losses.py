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

import math
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Iterable

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


def setting(default, help: str, **metadata):
    """A config field that declares its command-line flag: its ``help``, and as
    needed its ``flag`` (else ``--field-name``), ``choices`` and integer
    ``minimum`` and ``maximum``, which ``TrainConfig`` checks. ``asdict``
    leaves them out."""
    return field(default=default, metadata={"help": help, **metadata})


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters shared by the metric losses, each described by its
    field's help. ``zeta``, the margin added to both hinge arguments, may be
    negative, which carves an error zone the loss leaves alone; it is also the
    triplet baseline's margin. ``hinge_epsilon`` floors the hinge argument in
    derivative factors only; loss values are never clamped."""

    gamma: float = setting(12.0, "verge EMA smoothing factor")
    alpha: float = setting(2.0, "equivalent-side hinge exponent")
    beta: float = setting(0.5, "non-equivalent-side hinge exponent")
    zeta: float = setting(-0.05, "hinge margin (may be negative)")
    lam: float = setting(1.15, "metric-loss weight", flag="--lambda")
    hinge_epsilon: float = setting(1e-6, "derivative guard for fractional hinge exponents")

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
    equivalent. ``rows`` stacks the m origin rows over the m mutant rows, as
    the encoder emits them; ``origins`` and ``mutants`` are its two halves.
    The row norms and the origin-mutant distances are computed once, on
    construction, and every row must be finite and nonzero, and unit-norm
    too under ``unit`` (see :meth:`from_rows`).
    """

    class_ids: np.ndarray  # (m,)
    labels: np.ndarray  # (m,), 0 or 1
    origins: np.ndarray  # (m, dim)
    mutants: np.ndarray  # (m, dim)
    unit: InitVar[bool] = False
    rows: np.ndarray = field(init=False)  # (2m, dim)
    norms: np.ndarray = field(init=False)  # (2m,), origin norms then mutant norms
    distances: np.ndarray = field(init=False)  # (m,), in [0, 1]

    def __post_init__(self, unit):
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        origins, mutants = (np.asarray(a, dtype=np.float64) for a in (self.origins, self.mutants))
        m = self.class_ids.size
        if m == 0:
            raise EmptyBatchError("a batch needs at least one sample")
        if (
            self.class_ids.shape != (m,)
            or self.labels.shape != (m,)
            or origins.ndim != 2
            or origins.shape != mutants.shape
            or origins.shape[0] != m
        ):
            raise DimensionError(
                f"batch needs m class ids and labels and two (m, dim) embedding "
                f"matrices, got {self.class_ids.shape}, {self.labels.shape}, "
                f"{origins.shape} and {mutants.shape}"
            )
        if not set(self.labels.tolist()) <= {0, 1}:
            raise ConfigError(f"labels must be 0 or 1, got {self.labels.tolist()!r}")
        self.rows = np.concatenate([origins, mutants])
        self.origins, self.mutants = self.rows[:m], self.rows[m:]
        self.norms = norms = row_norms(self.rows)
        # One pass over the norms on the common path, which finds the precise
        # error only once it fails. A list is cheaper to scan than a numpy
        # reduction is to call at these sizes.
        listed = norms.tolist()
        if not all(abs(x - 1.0) <= _UNIT_NORM_TOL if unit else 0.0 < x < math.inf for x in listed):
            if not all(map(math.isfinite, listed)):
                raise NumericError("embeddings contain non-finite components")
            if 0.0 in listed:
                raise DegenerateVectorError("cosine distance is undefined for a zero vector")
            i = next(i for i, x in enumerate(listed) if abs(x - 1.0) > _UNIT_NORM_TOL)
            name, row = ("origin", i) if i < m else ("mutant", i - m)
            raise NormalizationError(f"{name} embedding {row} must be unit-norm, got norm {listed[i]!r}")
        self.distances = cosine_distances(self.origins, self.mutants, norms[:m], norms[m:])

    def __len__(self) -> int:
        return int(self.class_ids.shape[0])

    @classmethod
    def from_rows(cls, class_ids, labels, origins, mutants) -> "EmbeddedBatch":
        """A batch whose embedding rows must all be unit-norm, such as encoder output."""
        return cls(class_ids, labels, origins, mutants, unit=True)

    def hinge(self, terms: Iterable[tuple[int, float, float, float]], epsilon: float, skipped: int = 0) -> LossOutput:
        """Sum of [arg]_+ ** exponent over ``(row, arg, exponent, sign)`` terms in
        row order, divided by the batch size m, where ``sign`` is d arg / d
        distance, with its gradient w.r.t. ``self.rows``; a row with no active
        term gets zero rows. ``epsilon`` floors the argument in the derivative
        factor only, which keeps an exponent below 1 bounded at onset."""
        m = len(self)
        total = 0.0
        rows: list[int] = []
        scales: list[float] = []
        for i, arg, exponent, sign in terms:
            if arg <= 0.0:
                continue
            total += arg**exponent
            factor = exponent * max(arg, epsilon) ** (exponent - 1.0)
            rows.append(i)
            scales.append(sign * factor / m)
        grads = np.zeros(self.rows.shape)
        if rows:
            idx = np.asarray(rows)
            grad_o, grad_s = cosine_distance_gradients(
                self.origins[idx], self.mutants[idx], self.norms[idx], self.norms[m + idx]
            )
            scale = np.asarray(scales)[:, None]
            grads[idx] = scale * grad_o
            grads[m + idx] = scale * grad_s
        return LossOutput(total / m, skipped, grads)


@dataclass
class LossOutput:
    """Loss value plus the gradients the caller needs to backpropagate.

    Batch losses fill ``embedding_grads``, shaped like :attr:`EmbeddedBatch.rows`
    (one origin row, then one mutant row, per sample); cross-entropy fills
    ``logit_grads``. ``skipped_count`` counts samples whose term was dropped
    because the required opposite verge was uninitialized.
    """

    value: float
    skipped_count: int = 0
    embedding_grads: np.ndarray | None = None
    logit_grads: np.ndarray | None = None

    @property
    def origin_grads(self) -> np.ndarray:
        return self.embedding_grads[: len(self.embedding_grads) // 2]

    @property
    def mutant_grads(self) -> np.ndarray:
        return self.embedding_grads[len(self.embedding_grads) // 2 :]


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
    terms = []
    skipped = 0
    rows_in = zip(batch.class_ids.tolist(), batch.labels.tolist(), batch.distances.tolist())
    for i, (class_id, label, d) in enumerate(rows_in):
        state = registry.get(class_id)
        verge = None if state is None else state.v_minus if label == 1 else state.v_plus
        if verge is None:
            skipped += 1
        elif label == 1:
            terms.append((i, d - verge + cfg.zeta, cfg.alpha, 1.0))
        else:
            terms.append((i, verge - d + cfg.zeta, cfg.beta, -1.0))
    return batch.hinge(terms, cfg.hinge_epsilon, skipped)


def contrastive_loss(batch: EmbeddedBatch, cfg: LossConfig) -> LossOutput:
    """Adapted contrastive loss over origin-mutant pairs; class ids are unused.

    Equivalent pairs pay their raw distance, non-equivalent pairs pay
    [zeta - dist]_+, i.e. only while they sit inside the margin: the purge
    hinge with exponent 1 and a fixed border.
    """
    terms = (
        (i, d, 1.0, 1.0) if label == 1 else (i, cfg.zeta - d, 1.0, -1.0)
        for i, (label, d) in enumerate(zip(batch.labels.tolist(), batch.distances.tolist()))
    )
    return batch.hinge(terms, cfg.hinge_epsilon)


def triplet_batch_loss(batch: EmbeddedBatch, margin: float) -> LossOutput:
    """Mean triplet hinge [dist(o_i, s_i) - dist(o_i, s_j) + margin]_+ over a
    minimal in-batch sampler.

    Every same-class pair of an equivalent row i and a non-equivalent row j
    forms one (origin i, mutant i, mutant j) triplet, in row-major (i, j)
    order. The mean is over all triplets; a batch without one contributes
    zero. Uses the same normalized cosine distance as the other losses.
    """
    m = len(batch)
    grads = np.zeros(batch.rows.shape)
    equivalent = batch.labels == 1
    same_class = batch.class_ids[:, None] == batch.class_ids[None, :]
    anchors, negatives = np.nonzero(equivalent[:, None] & ~equivalent[None, :] & same_class)
    n = anchors.size
    if n == 0:
        return LossOutput(value=0.0, embedding_grads=grads)
    o, o_norms = batch.origins[anchors], batch.norms[anchors]
    s_neg, s_neg_norms = batch.mutants[negatives], batch.norms[m + negatives]
    args = batch.distances[anchors] - cosine_distances(o, s_neg, o_norms, s_neg_norms) + margin
    active = args > 0.0
    total = 0.0
    for arg in args[active].tolist():
        total += arg
    if active.any():
        i, j = anchors[active], negatives[active]
        o, o_norms = o[active], o_norms[active]
        grad_o_pos, grad_pos = cosine_distance_gradients(o, batch.mutants[i], o_norms, batch.norms[m + i])
        grad_o_neg, grad_neg = cosine_distance_gradients(
            o, s_neg[active], o_norms, s_neg_norms[active]
        )
        # Unbuffered adds in triplet order, as a triplet-by-triplet fold would.
        np.add.at(grads, i, grad_o_pos - grad_o_neg)
        np.add.at(grads, m + i, grad_pos)
        np.add.at(grads, m + j, -grad_neg)
    grads /= n
    return LossOutput(value=total / n, embedding_grads=grads)


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
    if not all(map(math.isfinite, rows.ravel().tolist())):
        raise NumericError("logits contains non-finite components")
    if not set(labels.tolist()) <= {0, 1}:
        raise ConfigError(f"label must be 0 or 1, got {labels.tolist()!r}")
    labels = labels.astype(np.intp, copy=False)
    shifted = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
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
    if not math.isfinite(joint):
        raise NumericError(f"non-finite joint loss {joint!r}")
    return joint
