"""Deterministic feed-forward encoder and pair classifier with hand-written
backpropagation.

The encoder maps hashed text features through
feature_dim -> hidden_dim -> embed_dim with a tanh between the layers and
L2-normalizes the output, so every embedding is unit-norm by construction.
The pair head consumes the symmetric block [o, s, |o - s|, o * s] built from
two embeddings and emits two logits (equivalent / non-equivalent). Both are
:class:`DenseParams` and share one forward and one backward body.

Forward passes cache what the backward pass needs; each cache records the
parameter version it was computed under, and the backward functions refuse a
cache that has gone stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegenerateVectorError, DimensionError, NumericError, StateError

if TYPE_CHECKING:
    from .trainer import TrainConfig


@dataclass
class DenseParams:
    """Two dense layers with a tanh between them: the encoder, or the pair head."""

    w1: np.ndarray  # (hidden, inputs)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (outputs, hidden)
    b2: np.ndarray  # (outputs,)
    version: int = 0


def param_shapes(config: TrainConfig) -> list[tuple[int, ...]]:
    """Segment shapes of the flat parameter vector under ``config``'s dimensions.

    Every weight of the encoder and the head lives in one contiguous float64
    vector, in the segment order encoder w1, b1, w2, b2, then head w1, b1, w2,
    b2. Adam's moments, the step gradient and the checkpoint share the layout.
    """
    h, e, p = config.hidden_dim, config.embed_dim, config.pair_hidden_dim
    return [(h, config.feature_dim), (h,), (e, h), (e,), (p, 4 * e), (p,), (2, p), (2,)]


def split_flat(flat: np.ndarray, config: TrainConfig) -> list[np.ndarray]:
    """Views of the flat vector ``flat`` as the segments of :func:`param_shapes`."""
    shapes = param_shapes(config)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if flat.shape != (ends[-1],):
        raise DimensionError(f"flat parameters must be ({ends[-1]},), got {flat.shape}")
    return [seg.reshape(shape) for seg, shape in zip(np.split(flat, ends[:-1]), shapes)]


def param_views(
    flat: np.ndarray, config: TrainConfig, version: int = 0
) -> tuple[DenseParams, DenseParams]:
    """Encoder and head whose arrays are views into the flat vector ``flat``."""
    views = split_flat(flat, config)
    return DenseParams(*views[:4], version), DenseParams(*views[4:], version)


def init_flat_params(seed: int, config: TrainConfig) -> np.ndarray:
    """Reproducible scale-balanced initialization: Glorot weights, zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(math.prod(shape) for shape in param_shapes(config)))
    for seg in split_flat(flat, config):
        if seg.ndim == 2:
            seg[...] = rng.normal(0.0, np.sqrt(2.0 / sum(seg.shape)), size=seg.shape)
    return flat


def _forward(params: DenseParams, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The post-tanh hidden rows and the output rows of ``params`` on ``inputs``."""
    hidden = np.tanh(inputs @ params.w1.T + params.b1)
    return hidden, hidden @ params.w2.T + params.b2


def _upstream(
    params: DenseParams, cache: EncoderCache | PairCache, upstream: np.ndarray, outputs: np.ndarray
) -> np.ndarray:
    """``upstream`` as float64, once ``cache`` is known to be fresh and
    ``upstream`` to have the shape of its ``outputs``."""
    if cache.params_version != params.version:
        raise StateError(
            f"stale forward cache: params version {params.version}, "
            f"cache version {cache.params_version}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != outputs.shape:
        raise DimensionError(
            f"upstream must match output shape {outputs.shape}, got {upstream.shape}"
        )
    return upstream


def _backward(
    params: DenseParams,
    cache: EncoderCache | PairCache,
    d_out: np.ndarray,
    out: Sequence[np.ndarray],
) -> np.ndarray:
    """Backpropagate the gradient ``d_out`` on the outputs through both layers.

    The w1, b1, w2, b2 gradients, summed over the rows, are written into the
    buffers ``out``; the gradient on the first layer's pre-activation is
    returned.
    """
    arrays = (params.w1, params.b1, params.w2, params.b2)
    if [o.shape for o in out] != [a.shape for a in arrays]:
        raise DimensionError("gradient buffers must match the parameter shapes")
    w1, b1, w2, b2 = out
    np.matmul(d_out.T, cache.hidden, out=w2)
    d_out.sum(axis=0, out=b2)
    d_pre = (d_out @ params.w2) * (1.0 - cache.hidden**2)  # tanh'
    np.matmul(d_pre.T, cache.inputs, out=w1)
    d_pre.sum(axis=0, out=b1)
    return d_pre


@dataclass
class EncoderCache:
    inputs: np.ndarray  # (m, feature)
    hidden: np.ndarray  # (m, hidden), post-tanh
    norms: np.ndarray  # (m, 1)
    embeddings: np.ndarray  # (m, embed), unit rows
    params_version: int


def encode_batch(params: DenseParams, features: np.ndarray) -> EncoderCache:
    """Forward pass over a batch of feature rows; embeddings are unit-norm."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.w1.shape[1]:
        raise DimensionError(
            f"features must be (m, {params.w1.shape[1]}), got {features.shape}"
        )
    hidden, prenorm = _forward(params, features)
    norms = np.linalg.norm(prenorm, axis=1, keepdims=True)  # (m, 1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("encoder produced a zero vector before normalization")
    if not np.isfinite(norms).all():
        raise NumericError("encoder pre-normalization norm is not finite")
    return EncoderCache(features, hidden, norms, prenorm / norms, params.version)


def encoder_backward(
    params: DenseParams,
    cache: EncoderCache,
    upstream: np.ndarray,
    out: Sequence[np.ndarray],
) -> None:
    """Backpropagate gradients w.r.t. embeddings into the parameters.

    The normalization Jacobian (I - e e^T) / ||z|| is applied first, so
    upstream gradients on the unit embeddings flow correctly into the raw
    layer outputs. The w1, b1, w2, b2 gradients, summed over the rows, are
    written into the buffers ``out``.
    """
    upstream = _upstream(params, cache, upstream, cache.embeddings)
    e = cache.embeddings
    radial = np.sum(upstream * e, axis=1, keepdims=True)
    _backward(params, cache, (upstream - radial * e) / cache.norms, out)


@dataclass
class PairCache:
    inputs: np.ndarray  # (m, 4*embed), pair_features of origins and mutants
    hidden: np.ndarray  # (m, pair_hidden), post-tanh
    logits: np.ndarray  # (m, 2)
    params_version: int


def pair_features(origins: np.ndarray, mutants: np.ndarray) -> np.ndarray:
    """Symmetric-difference pair block [o, s, |o - s|, o * s]."""
    return np.concatenate(
        [origins, mutants, np.abs(origins - mutants), origins * mutants], axis=1
    )


def classify_pairs(params: DenseParams, origins: np.ndarray, mutants: np.ndarray) -> PairCache:
    """Forward pass of the pair head over matched rows of embeddings."""
    origins = np.asarray(origins, dtype=np.float64)
    mutants = np.asarray(mutants, dtype=np.float64)
    if origins.shape != mutants.shape or origins.ndim != 2:
        raise DimensionError("origins and mutants must be matching (m, embed) matrices")
    if 4 * origins.shape[1] != params.w1.shape[1]:
        raise DimensionError(
            f"embed dim {origins.shape[1]} does not match head input {params.w1.shape[1]}"
        )
    pf = pair_features(origins, mutants)
    return PairCache(pf, *_forward(params, pf), params.version)


def pair_backward(
    params: DenseParams,
    cache: PairCache,
    upstream: np.ndarray,
    out: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate logit gradients into head parameters and both embeddings.

    The w1, b1, w2, b2 gradients are written into the buffers ``out``; the
    gradients on the origin and mutant rows are returned, in that order.
    |o - s| uses the sign subgradient, with sign(0) = 0 on tied components.
    """
    upstream = _upstream(params, cache, upstream, cache.logits)
    d_pf = _backward(params, cache, upstream, out) @ params.w1  # (m, 4*embed)
    e = d_pf.shape[1] // 4
    origins, mutants = cache.inputs[:, :e], cache.inputs[:, e : 2 * e]
    d_o_block, d_s_block = d_pf[:, :e], d_pf[:, e : 2 * e]
    d_abs, d_prod = d_pf[:, 2 * e : 3 * e], d_pf[:, 3 * e :]
    diff_sign = np.sign(origins - mutants)
    origin_grads = d_o_block + diff_sign * d_abs + mutants * d_prod
    mutant_grads = d_s_block - diff_sign * d_abs + origins * d_prod
    return origin_grads, mutant_grads
