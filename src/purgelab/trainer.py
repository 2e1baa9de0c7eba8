"""Joint cross-entropy + metric-loss training loop.

Per step, in order: encode origins and mutants in one stacked pass, update
verges from the current distances (cluster-purge runs only), compute the
metric loss and cross-entropy, combine them with the metric weight,
backpropagate (CE through the head into the embeddings, metric gradients
directly into the embeddings, both through one stacked encoder pass), and
take one Adam step. Everything is deterministic under a fixed (config,
corpus, seed); verges persist across epochs and live inside the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import FeatureCache, make_batches, write_file
from .encoder import (
    DenseParams,
    classify_pairs,
    encode_batch,
    encoder_backward,
    init_flat_params,
    pair_backward,
    param_shapes,
    param_views,
    split_flat,
)
from .errors import (
    ConfigError,
    DeserializeError,
    DivergenceError,
    NumericError,
    VersionError,
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
from .verges import VergeRegistry

CHECKPOINT_MAGIC = b"purgelab-ckpt"
CHECKPOINT_VERSION = 3

LOSS_KINDS = ("ce_only", "ce_plus_cpl", "ce_plus_contrastive", "ce_plus_triplet")

# The integer fields of TrainConfig and the least value each may take.
_INT_MINIMUMS = {"epochs": 1, "batch_size": 1, "seed": 0, "feature_dim": 1, "hidden_dim": 1,
                 "embed_dim": 1, "pair_hidden_dim": 1}


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "ce_plus_cpl"
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 30
    batch_size: int = 4
    feature_dim: int = 256
    hidden_dim: int = 128
    embed_dim: int = 64
    pair_hidden_dim: int = 64
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name, low in _INT_MINIMUMS.items():
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be finite and positive, got {self.step_size!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("moment decay rates must lie in [0, 1)")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ConfigError(f"adam_epsilon must be finite and positive, got {self.adam_epsilon!r}")


@dataclass
class AdamState:
    """Adam moments in the flat parameter layout. The step gradient ``grad``
    and one ``scratch`` vector share the layout; they are not checkpointed."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.grad, self.scratch = np.zeros((2, self.m.size))


@dataclass
class TrainerState:
    """Everything a training run carries: the checkpointable state.

    ``encoder`` and ``head`` are views into the flat vector ``params``, and
    ``grad_segments`` are the same views into ``adam.grad``. The views'
    version counters start at ``adam.t``: every Adam step bumps all three.
    """

    config: TrainConfig
    params: np.ndarray
    registry: VergeRegistry
    adam: AdamState
    epoch: int = 0
    encoder: DenseParams = field(init=False)
    head: DenseParams = field(init=False)
    grad_segments: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.encoder, self.head = param_views(self.params, self.config, self.adam.t)
        self.grad_segments = split_flat(self.adam.grad, self.config)


@dataclass
class LossRow:
    """The losses of one training step, or their means over one epoch (with the
    skipped counts summed). ``index`` is the epoch, or the number of Adam steps
    the state had taken before the step."""

    index: int
    ce_loss: float
    metric_loss: float
    joint_loss: float
    skipped_count: int

    @classmethod
    def mean(cls, index: int, rows: list[LossRow]) -> LossRow:
        """The epoch row of step rows ``rows``, added left to right in step order
        (``sum()`` compensates from Python 3.12 on)."""
        ce = metric = joint = 0.0
        skipped = 0
        for r in rows:
            ce += r.ce_loss
            metric += r.metric_loss
            joint += r.joint_loss
            skipped += r.skipped_count
        n = len(rows)
        return cls(index, ce / n, metric / n, joint / n, skipped)


@dataclass
class TrainResult:
    state: TrainerState
    history: list[LossRow]
    step_trace: list[LossRow] | None = None


def init_state(config: TrainConfig) -> TrainerState:
    params = init_flat_params(config.seed, config)
    adam = AdamState(m=np.zeros_like(params), v=np.zeros_like(params))
    return TrainerState(config, params, VergeRegistry(config.loss.gamma), adam)


def _metric_loss(state: TrainerState, batch: EmbeddedBatch) -> LossOutput | None:
    kind = state.config.loss_kind
    cfg = state.config.loss
    if kind == "ce_only":
        return None
    if kind == "ce_plus_cpl":
        state.registry.batch_update(batch)
        return cluster_purge_loss(batch, state.registry, cfg)
    if kind == "ce_plus_contrastive":
        return contrastive_loss(batch, cfg)
    return triplet_batch_loss(batch, cfg.zeta)


def train_step(state: TrainerState, batch: FeatureCache) -> LossRow:
    """One forward/backward/update cycle; mutates the state in place.

    The one place a step diverges: a non-finite value in the forward pass or
    the loss, or a float power that overflows, aborts with a
    :class:`DivergenceError`; nothing is clipped or papered over.
    """
    try:
        lcfg = state.config.loss
        m = len(batch)
        cache = encode_batch(state.encoder, batch.stacked_features)
        origins, mutants = cache.embeddings[:m], cache.embeddings[m:]
        embedded = EmbeddedBatch.from_rows(batch.class_ids, batch.labels, origins, mutants)

        metric_out = _metric_loss(state, embedded)
        metric_value = 0.0 if metric_out is None else metric_out.value
        skipped = 0 if metric_out is None else metric_out.skipped_count

        pair_cache = classify_pairs(state.head, origins, mutants)
        ce = cross_entropy(pair_cache.logits, embedded.labels)
        joint = joint_loss(metric_value, ce.value, lcfg.lam)

        grads = state.grad_segments
        d_embeddings = np.concatenate(pair_backward(state.head, pair_cache, ce.logit_grads, grads[4:]))
        if metric_out is not None:
            d_embeddings += lcfg.lam * metric_out.embedding_grads
        encoder_backward(state.encoder, cache, d_embeddings, grads[:4])
        row = LossRow(state.adam.t, ce.value, metric_value, joint, skipped)
        _adam_step(state)
        return row
    except (NumericError, OverflowError) as exc:
        cause = f"step overflowed {exc}" if isinstance(exc, OverflowError) else exc
        raise DivergenceError(f"numeric divergence: {cause}", epoch=state.epoch) from exc


def _adam_step(state: TrainerState) -> None:
    """One Adam update of the flat parameters from ``state.adam.grad``, in place
    and allocation-free. It takes Kingma and Ba's efficient form (Adam, ICLR
    2015, section 2): the bias corrections fold into the step size and epsilon,
    so θ -= α·√(1-β₂ᵗ)/(1-β₁ᵗ) · m / (√v + ε·√(1-β₂ᵗ)). That is the textbook
    update up to rounding, with no scalar divide over the vector. The gradient
    is dead once v has seen it, so its buffer then holds √v + ε·√(1-β₂ᵗ)."""
    cfg = state.config
    adam = state.adam
    g, a = adam.grad, adam.scratch
    adam.t += 1
    root_bias2 = math.sqrt(1.0 - cfg.beta2**adam.t)
    step = cfg.step_size * root_bias2 / (1.0 - cfg.beta1**adam.t)
    np.multiply(adam.m, cfg.beta1, out=adam.m)
    np.multiply(g, 1.0 - cfg.beta1, out=a)
    np.add(adam.m, a, out=adam.m)
    np.multiply(adam.v, cfg.beta2, out=adam.v)
    np.multiply(g, 1.0 - cfg.beta2, out=a)
    np.multiply(a, g, out=a)
    np.add(adam.v, a, out=adam.v)
    np.sqrt(adam.v, out=g)
    np.add(g, cfg.adam_epsilon * root_bias2, out=g)
    np.multiply(adam.m, step, out=a)
    np.divide(a, g, out=a)
    np.subtract(state.params, a, out=state.params)
    state.encoder.version += 1
    state.head.version += 1


def train(config: TrainConfig, data: FeatureCache, collect_steps: bool = False) -> TrainResult:
    """Train from a fresh state for ``config.epochs`` epochs."""
    state = init_state(config)
    return resume(state, data, collect_steps=collect_steps)


def resume(state: TrainerState, data: FeatureCache, collect_steps: bool = False) -> TrainResult:
    """Continue a (possibly loaded) state up to its configured epoch count.

    Epoch shuffles are keyed by (seed, epoch index), so a resumed run walks
    the same batches an uninterrupted run would.
    """
    if len(data) == 0:
        raise ConfigError("cannot train on an empty corpus")
    cfg = state.config
    history: list[LossRow] = []
    trace: list[LossRow] | None = [] if collect_steps else None
    while state.epoch < cfg.epochs:
        epoch = state.epoch
        rows: list[LossRow] = []
        for step_index, batch in enumerate(make_batches(data, cfg.batch_size, cfg.seed, epoch)):
            try:
                rows.append(train_step(state, batch))
            except DivergenceError as exc:
                exc.step = step_index
                exc.history = history
                raise
        history.append(LossRow.mean(epoch, rows))
        if trace is not None:
            trace += rows
        state.epoch = epoch + 1
    return TrainResult(state=state, history=history, step_trace=trace)


# --- checkpoint container -------------------------------------------------
#
# Layout: magic, u32 version, u32 meta length, meta JSON (config echo, epoch,
# verge rows, Adam step count), then the flat parameter vector, Adam's m
# and Adam's v as one block of raw little-endian float64 (3 x n, where the
# config's layout fixes n), then the sha256 of every byte before it. Fully
# deterministic: no timestamps.

_DIGEST_SIZE = hashlib.sha256().digest_size


def save_checkpoint(state: TrainerState, path) -> None:
    """Write the versioned checkpoint container, replacing ``path`` whole;
    byte-identical for equal states."""
    meta = {
        "epoch": state.epoch,
        "adam_t": state.adam.t,
        "verges": state.registry.rows(),
        "config": asdict(state.config),
    }
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = struct.pack("<II", CHECKPOINT_VERSION, len(meta_b))
    block = [f.astype("<f8", copy=False) for f in (state.params, state.adam.m, state.adam.v)]
    parts = [CHECKPOINT_MAGIC, header, meta_b, *block]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    write_file([*parts, digest.digest()], path)


def load_checkpoint(path) -> TrainerState:
    """Restore a :class:`TrainerState`; never returns a partial load.

    Checks, in order: the magic, the version, the sha256 trailer, the
    metadata (the config, non-negative integer counters, the verge rows),
    the block length against the config's layout, and that every parameter
    and moment is finite.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(CHECKPOINT_MAGIC)
    if raw[:start] != CHECKPOINT_MAGIC:
        raise DeserializeError("not a purgelab checkpoint")
    if len(raw) < start + 8 + _DIGEST_SIZE:
        raise DeserializeError("checkpoint truncated")
    version, meta_len = struct.unpack_from("<II", raw, start)
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"unsupported checkpoint version {version}")
    end = len(raw) - _DIGEST_SIZE
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise DeserializeError("checkpoint digest mismatch: the file is truncated or corrupted")
    start += 8
    try:
        meta = json.loads(raw[start : start + meta_len].decode("utf-8"))
        cfg_dict = dict(meta["config"])
        loss = LossConfig(**cfg_dict.pop("loss"))
        config = TrainConfig(loss=loss, **cfg_dict)
        n = sum(math.prod(shape) for shape in param_shapes(config))
        adam_t, epoch = meta["adam_t"], meta["epoch"]
        registry = VergeRegistry.from_rows(loss.gamma, meta["verges"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DeserializeError(f"malformed checkpoint metadata: {exc!r}") from None
    if not all(type(c) is int and c >= 0 for c in (adam_t, epoch)):
        raise DeserializeError(f"adam_t {adam_t!r} and epoch {epoch!r} must be non-negative ints")
    start += meta_len
    if end - start != 3 * 8 * n:
        raise DeserializeError(
            f"checkpoint holds {end - start} parameter bytes, the config's layout needs {3 * 8 * n}"
        )
    flat = np.frombuffer(raw, dtype="<f8", count=3 * n, offset=start).astype(np.float64)
    if not np.isfinite(flat).all():
        raise DeserializeError("checkpoint holds non-finite parameters or moments")
    params, m, v = flat.reshape(3, n)
    return TrainerState(config, params, registry, AdamState(m, v, adam_t), epoch)


def with_loss(config: TrainConfig, **loss_updates) -> TrainConfig:
    """Copy a config with some loss hyperparameters replaced."""
    return replace(config, loss=replace(config.loss, **loss_updates))
