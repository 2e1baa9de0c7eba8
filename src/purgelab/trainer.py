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

import functools
import hashlib
import io
import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import MAX_DIM, FeatureCache, make_batches, write_file
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
    setting,
    triplet_batch_loss,
)
from .verges import VergeRegistry

CHECKPOINT_MAGIC = b"purgelab-ckpt"
CHECKPOINT_VERSION = 3

LOSS_KINDS = ("ce_only", "ce_plus_cpl", "ce_plus_contrastive", "ce_plus_triplet")


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = setting("ce_plus_cpl", "training objective", choices=LOSS_KINDS)
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = setting(30, "training epochs", minimum=1)
    batch_size: int = setting(4, "minibatch size", flag="--batch", minimum=1)
    feature_dim: int = setting(256, "input feature width", minimum=1, maximum=MAX_DIM)
    hidden_dim: int = setting(128, "encoder hidden width", minimum=1, maximum=MAX_DIM)
    embed_dim: int = setting(64, "embedding width", minimum=1, maximum=MAX_DIM)
    pair_hidden_dim: int = setting(64, "pair-classifier hidden width", minimum=1, maximum=MAX_DIM)
    step_size: float = setting(1e-3, "optimizer step size")
    beta1: float = setting(0.9, "first-moment decay")
    beta2: float = setting(0.999, "second-moment decay")
    adam_epsilon: float = setting(1e-8, "optimizer denominator guard")
    seed: int = setting(0, "initialization and shuffling seed", minimum=0)

    def __post_init__(self):
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "minimum" in meta and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if "minimum" in meta and value < meta["minimum"]:
                raise ConfigError(f"{f.name} must be >= {meta['minimum']}, got {value}")
            if "maximum" in meta and value > meta["maximum"]:
                raise ConfigError(f"{f.name} must be <= {meta['maximum']}, got {value}")
            if "choices" in meta and value not in meta["choices"]:
                raise ConfigError(f"{f.name} must be one of {meta['choices']}, got {value!r}")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be finite and positive, got {self.step_size!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("moment decay rates must lie in [0, 1)")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ConfigError(f"adam_epsilon must be finite and positive, got {self.adam_epsilon!r}")


@dataclass
class TrainerState:
    """Everything a training run carries: the checkpointable state.

    ``m`` and ``v`` are Adam's moments and ``t`` its step count. ``encoder``
    and ``head`` are views into the flat vector ``params``, and
    ``grad_segments`` are the same views into the step gradient ``grad``.
    ``grad`` and one ``scratch`` vector share the layout of ``m`` and ``v``
    and are not checkpointed; they are made on first use, the first step, so
    a state that is only read never holds them. The views' version counters
    start at ``t``: every Adam step bumps all three.
    """

    config: TrainConfig
    params: np.ndarray
    registry: VergeRegistry
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    epoch: int = 0
    encoder: DenseParams = field(init=False)
    head: DenseParams = field(init=False)

    def __post_init__(self):
        self.encoder, self.head = param_views(self.params, self.config, self.t)

    @functools.cached_property
    def _buffers(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        grad, scratch = np.zeros((2, self.params.size))
        return grad, scratch, split_flat(grad, self.config)

    grad = property(lambda self: self._buffers[0])
    scratch = property(lambda self: self._buffers[1])
    grad_segments = property(lambda self: self._buffers[2])


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
    return TrainerState(config, params, VergeRegistry(config.loss.gamma), np.zeros_like(params), np.zeros_like(params))


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
        cache = encode_batch(state.encoder, np.concatenate([batch.origin_features, batch.mutant_features]))
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
        row = LossRow(state.t, ce.value, metric_value, joint, skipped)
        _adam_step(state)
        return row
    except (NumericError, OverflowError) as exc:
        cause = f"step overflowed {exc}" if isinstance(exc, OverflowError) else exc
        raise DivergenceError(f"numeric divergence: {cause}", epoch=state.epoch) from exc


def _adam_step(state: TrainerState) -> None:
    """One Adam update of the flat parameters from ``state.grad``, in place
    and allocation-free. It takes Kingma and Ba's efficient form (Adam, ICLR
    2015, section 2): the bias corrections fold into the step size and epsilon,
    so θ -= α·√(1-β₂ᵗ)/(1-β₁ᵗ) · m / (√v + ε·√(1-β₂ᵗ)). That is the textbook
    update up to rounding, with no scalar divide over the vector. The gradient
    is dead once v has seen it, so its buffer then holds √v + ε·√(1-β₂ᵗ)."""
    cfg = state.config
    m, v, g, a = state.m, state.v, state.grad, state.scratch
    state.t += 1
    root_bias2 = math.sqrt(1.0 - cfg.beta2**state.t)
    step = cfg.step_size * root_bias2 / (1.0 - cfg.beta1**state.t)
    np.multiply(m, cfg.beta1, out=m)
    np.multiply(g, 1.0 - cfg.beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, cfg.beta2, out=v)
    np.multiply(g, 1.0 - cfg.beta2, out=a)
    np.multiply(a, g, out=a)
    np.add(v, a, out=v)
    np.sqrt(v, out=g)
    np.add(g, cfg.adam_epsilon * root_bias2, out=g)
    np.multiply(m, step, out=a)
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
        "adam_t": state.t,
        "verges": state.registry.rows(),
        "config": asdict(state.config),
    }
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = struct.pack("<II", CHECKPOINT_VERSION, len(meta_b))
    block = [f.astype("<f8", copy=False) for f in (state.params, state.m, state.v)]
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
    and moment is finite. The file is read once: the float block goes
    straight into the one array that ``params``, ``m`` and ``v`` view, and
    every section is hashed as it is read.
    """
    start = len(CHECKPOINT_MAGIC)
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe, whose size is known only once it is read
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        head = fh.read(start + 8)
        if head[:start] != CHECKPOINT_MAGIC:
            raise DeserializeError("not a purgelab checkpoint")
        if size < start + 8 + _DIGEST_SIZE:
            raise DeserializeError("checkpoint truncated")
        version, meta_len = struct.unpack_from("<II", head, start)
        if version != CHECKPOINT_VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        end = size - _DIGEST_SIZE
        meta_b = fh.read(min(meta_len, end - start - 8))
        nbytes = end - start - 8 - len(meta_b)
        flat = np.empty((nbytes + 7) // 8, dtype="<f8")
        block = memoryview(flat).cast("B")[:nbytes]
        read = fh.readinto(block)
        digest = hashlib.sha256(head)
        digest.update(meta_b)
        digest.update(block)
        trailer = fh.read()
    if read != nbytes or digest.digest() != trailer:
        raise DeserializeError("checkpoint digest mismatch: the file is truncated or corrupted")
    start += 8
    try:
        # A meta length past the block names the trailer's bytes too, as in the file.
        meta = json.loads((meta_b + trailer)[:meta_len].decode("utf-8"))
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
    flat = flat.astype(np.float64, copy=False)  # a copy only on a big-endian host
    if not np.isfinite(flat).all():
        raise DeserializeError("checkpoint holds non-finite parameters or moments")
    params, m, v = flat.reshape(3, n)
    return TrainerState(config, params, registry, m, v, adam_t, epoch)


def with_loss(config: TrainConfig, **loss_updates) -> TrainConfig:
    """Copy a config with some loss hyperparameters replaced."""
    return replace(config, loss=replace(config.loss, **loss_updates))
