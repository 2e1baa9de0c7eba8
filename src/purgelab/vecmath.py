"""Dense vector primitives: normalized cosine distance and its gradient over
matching rows of two matrices (and of two single vectors), exponential moving
averages in sequential and closed form, and a finite-difference gradient
oracle used by the gradient audits.

All arithmetic is 64-bit. Distances live in [0, 1] with 0 at collinearity.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    EmptyBatchError,
    NumericError,
)


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite, nonempty 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError(f"{name} contains non-finite components")
    return v


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching rows of two (m, d) arrays.

    The stacked matmul gives every row the bits ``np.dot`` gives that row;
    ``einsum`` and ``(a * b).sum(axis=1)`` round differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, with the bits of ``np.linalg.norm`` per row."""
    return np.sqrt(row_dots(a, a))


def cosine_distances(a, b, norm_a, norm_b) -> np.ndarray:
    """Normalized cosine distance of matching rows: 1 - (cossim + 1) / 2.

    Codomain is [0, 1]: 0 for collinear rows, 0.5 for orthogonal ones, 1 for
    antiparallel ones. ``norm_a``/``norm_b`` are the rows' nonzero norms. The
    similarity is clamped into [-1, 1] before the mapping so float drift
    cannot push a result outside [0, 1].
    """
    cos = np.minimum(1.0, np.maximum(-1.0, row_dots(a, b) / (norm_a * norm_b)))
    return np.minimum(1.0, np.maximum(0.0, 1.0 - (cos + 1.0) / 2.0))


def cosine_distance_gradients(a, b, norm_a, norm_b) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of each row's ``cosine_distances`` term w.r.t. both rows.

    Valid on the smooth interior (strictly between collinear and antiparallel),
    for rows of any norm, so it agrees with central differences even when a
    perturbation leaves the unit sphere.
    """
    norm_a = norm_a[:, None]
    norm_b = norm_b[:, None]
    unit_a = a / norm_a
    unit_b = b / norm_b
    cos = row_dots(unit_a, unit_b)[:, None]
    grad_a = -0.5 * (unit_b - cos * unit_a) / norm_a
    grad_b = -0.5 * (unit_a - cos * unit_b) / norm_b
    return grad_a, grad_b


def _single_rows(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two checked vectors as one-row matrices, with their norms."""
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    a = a[None]
    b = b[None]
    norm_a = row_norms(a)
    norm_b = row_norms(b)
    if norm_a[0] == 0.0 or norm_b[0] == 0.0:
        raise DegenerateVectorError("cosine distance is undefined for a zero vector")
    return a, b, norm_a, norm_b


def cosine_distance(a, b) -> float:
    """:func:`cosine_distances` of two vectors."""
    return float(cosine_distances(*_single_rows(a, b))[0])


def cosine_distance_gradient(a, b) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cosine_distance_gradients` of two vectors."""
    grad_a, grad_b = cosine_distance_gradients(*_single_rows(a, b))
    return grad_a[0], grad_b[0]


def ema_rate(gamma: float) -> float:
    """The per-observation EMA step s = 2 / (gamma + 1) of smoothing factor
    ``gamma``; gamma >= 1 keeps s in (0, 1] so every update is a convex
    combination."""
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ConfigError(f"gamma must be finite and >= 1, got {gamma!r}")
    return 2.0 / (gamma + 1.0)


def ema_step(current: float, x: float, gamma: float) -> float:
    """One EMA update: current * (1 - s) + x * s, with s = ``ema_rate(gamma)``."""
    if not (np.isfinite(current) and np.isfinite(x)):
        raise NumericError(f"EMA inputs must be finite, got current={current!r}, x={x!r}")
    s = ema_rate(gamma)
    return current * (1.0 - s) + x * s


def ema_batch(current: float, xs: Sequence[float], gamma: float) -> float:
    """Closed-form EMA over an ordered batch of observations.

    For h observations this computes
    current * (1-s)^h + s * sum_j xs[j] * (1-s)^(h-j), which equals folding
    ``ema_step`` over xs in order. Order matters: later observations weigh
    more.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise EmptyBatchError("ema_batch needs at least one observation")
    if not math.isfinite(current) or not all(math.isfinite(x) for x in xs):
        raise NumericError("EMA inputs must be finite")
    s = ema_rate(gamma)
    keep = 1.0 - s
    h = len(xs)
    weighted = 0.0
    for j, x in enumerate(xs, start=1):
        weighted += x * keep ** (h - j)
    return current * keep**h + s * weighted


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], at, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    This is the independent oracle the analytic gradients are checked
    against; it never shares code with them.
    """
    if step <= 0.0:
        raise ConfigError(f"step must be positive, got {step!r}")
    at = as_vector(at, "at")
    grad = np.zeros_like(at)
    for i in range(at.size):
        hi = at.copy()
        lo = at.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NumericError(f"non-finite function value near component {i}")
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad
