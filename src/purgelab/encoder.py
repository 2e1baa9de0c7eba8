"""Deterministic feed-forward encoder and pair classifier with hand-written
backpropagation.

The encoder maps hashed text features through
feature_dim -> hidden_dim -> embed_dim with a tanh between the layers and
L2-normalizes the output, so every embedding is unit-norm by construction.
The pair head consumes the symmetric block [o, s, |o - s|, o * s] built from
two embeddings and emits two logits (equivalent / non-equivalent).

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
class EncoderParams:
    w1: np.ndarray  # (hidden, feature)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (embed, hidden)
    b2: np.ndarray  # (embed,)
    version: int = 0


@dataclass
class PairClassifierParams:
    w1: np.ndarray  # (pair_hidden, 4*embed)
    b1: np.ndarray  # (pair_hidden,)
    w2: np.ndarray  # (2, pair_hidden)
    b2: np.ndarray  # (2,)
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
) -> tuple[EncoderParams, PairClassifierParams]:
    """Encoder and head whose arrays are views into the flat vector ``flat``."""
    views = split_flat(flat, config)
    return EncoderParams(*views[:4], version), PairClassifierParams(*views[4:], version)


def init_flat_params(seed: int, config: TrainConfig) -> np.ndarray:
    """Reproducible scale-balanced initialization: Glorot weights, zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(math.prod(shape) for shape in param_shapes(config)))
    for seg in split_flat(flat, config):
        if seg.ndim == 2:
            seg[...] = rng.normal(0.0, np.sqrt(2.0 / sum(seg.shape)), size=seg.shape)
    return flat


@dataclass
class EncoderCache:
    features: np.ndarray  # (m, feature)
    hidden: np.ndarray  # (m, hidden), post-tanh
    norms: np.ndarray  # (m, 1)
    embeddings: np.ndarray  # (m, embed), unit rows
    params_version: int


def encode_batch(params: EncoderParams, features: np.ndarray) -> EncoderCache:
    """Forward pass over a batch of feature rows; embeddings are unit-norm."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.w1.shape[1]:
        raise DimensionError(
            f"features must be (m, {params.w1.shape[1]}), got {features.shape}"
        )
    hidden = np.tanh(features @ params.w1.T + params.b1)  # (m, hidden)
    prenorm = hidden @ params.w2.T + params.b2  # (m, embed)
    norms = np.linalg.norm(prenorm, axis=1, keepdims=True)  # (m, 1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("encoder produced a zero vector before normalization")
    if not np.isfinite(norms).all():
        raise NumericError("encoder pre-normalization norm is not finite")
    embeddings = prenorm / norms
    return EncoderCache(
        features=features,
        hidden=hidden,
        norms=norms,
        embeddings=embeddings,
        params_version=params.version,
    )


def encoder_backward(
    params: EncoderParams,
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
    if cache.params_version != params.version:
        raise StateError(
            f"stale forward cache: params version {params.version}, "
            f"cache version {cache.params_version}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.embeddings.shape:
        raise DimensionError(
            f"upstream must match embeddings shape {cache.embeddings.shape}, got {upstream.shape}"
        )
    w1, b1, w2, b2 = _checked_out((params.w1, params.b1, params.w2, params.b2), out)
    e = cache.embeddings
    radial = np.sum(upstream * e, axis=1, keepdims=True)
    d_prenorm = (upstream - radial * e) / cache.norms  # (m, embed)
    d_hidden = d_prenorm @ params.w2  # (m, hidden)
    d_pre1 = d_hidden * (1.0 - cache.hidden**2)  # tanh'
    _layer_grads(d_prenorm, cache.hidden, w2, b2)
    _layer_grads(d_pre1, cache.features, w1, b1)


def _checked_out(params: Sequence[np.ndarray], out: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """The gradient buffers ``out``, checked against the parameter shapes."""
    if [o.shape for o in out] != [p.shape for p in params]:
        raise DimensionError("gradient buffers must match the parameter shapes")
    return out


def _layer_grads(d_pre, inputs, w_out, b_out) -> None:
    """Weight and bias gradients of one dense layer from the gradient on its
    pre-activation, written into ``w_out`` and ``b_out``."""
    np.matmul(d_pre.T, inputs, out=w_out)
    d_pre.sum(axis=0, out=b_out)


@dataclass
class PairCache:
    pair_features: np.ndarray  # (m, 4*embed), origins and mutants first
    hidden: np.ndarray  # (m, pair_hidden), post-tanh
    logits: np.ndarray  # (m, 2)
    params_version: int


def pair_features(origins: np.ndarray, mutants: np.ndarray) -> np.ndarray:
    """Symmetric-difference pair block [o, s, |o - s|, o * s]."""
    return np.concatenate(
        [origins, mutants, np.abs(origins - mutants), origins * mutants], axis=1
    )


def classify_pairs(
    params: PairClassifierParams, origins: np.ndarray, mutants: np.ndarray
) -> PairCache:
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
    hidden = np.tanh(pf @ params.w1.T + params.b1)
    logits = hidden @ params.w2.T + params.b2
    return PairCache(
        pair_features=pf,
        hidden=hidden,
        logits=logits,
        params_version=params.version,
    )


def pair_backward(
    params: PairClassifierParams,
    cache: PairCache,
    upstream: np.ndarray,
    out: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate logit gradients into head parameters and both embeddings.

    The w1, b1, w2, b2 gradients are written into the buffers ``out``; the
    gradients on the origin and mutant rows are returned, in that order.
    |o - s| uses the sign subgradient, with sign(0) = 0 on tied components.
    """
    if cache.params_version != params.version:
        raise StateError(
            f"stale forward cache: params version {params.version}, "
            f"cache version {cache.params_version}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.logits.shape:
        raise DimensionError(
            f"upstream must match logits shape {cache.logits.shape}, got {upstream.shape}"
        )
    w1, b1, w2, b2 = _checked_out((params.w1, params.b1, params.w2, params.b2), out)
    _layer_grads(upstream, cache.hidden, w2, b2)
    d_hidden = upstream @ params.w2
    d_pre = d_hidden * (1.0 - cache.hidden**2)
    _layer_grads(d_pre, cache.pair_features, w1, b1)
    d_pf = d_pre @ params.w1  # (m, 4*embed)
    e = d_pf.shape[1] // 4
    origins, mutants = cache.pair_features[:, :e], cache.pair_features[:, e : 2 * e]
    d_o_block, d_s_block = d_pf[:, :e], d_pf[:, e : 2 * e]
    d_abs, d_prod = d_pf[:, 2 * e : 3 * e], d_pf[:, 3 * e :]
    diff_sign = np.sign(origins - mutants)
    origin_grads = d_o_block + diff_sign * d_abs + mutants * d_prod
    mutant_grads = d_s_block - diff_sign * d_abs + origins * d_prod
    return origin_grads, mutant_grads
