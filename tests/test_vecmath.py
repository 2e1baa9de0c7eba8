import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purgelab.errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    EmptyBatchError,
    NumericError,
)
from purgelab.vecmath import (
    as_vector,
    cosine_distance,
    cosine_distance_gradient,
    ema_batch,
    ema_rate,
    ema_step,
    finite_difference_gradient,
)


def test_cosine_distance_collinear():
    assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_cosine_distance_antiparallel():
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 1.0


def test_cosine_distance_orthogonal():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 0.5


def test_cosine_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_distance_zero_vector():
    with pytest.raises(DegenerateVectorError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])


def test_cosine_distance_non_finite():
    with pytest.raises(NumericError):
        cosine_distance([np.nan, 0.0], [1.0, 0.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cosine_distance_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    assert cosine_distance(a, b) == pytest.approx(cosine_distance(b, a), abs=1e-15)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_cosine_distance_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4)
    assert cosine_distance(a, scale * a) == pytest.approx(0.0, abs=1e-12)


def test_cosine_distance_range():
    # VergeRegistry.batch_update folds these distances unchecked, so the
    # range must hold at extreme scales and at both ends, collinear and
    # antiparallel, where the cosine can round past +-1.
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e-160, 1e153):
        for _ in range(200):
            a = scale * rng.normal(size=6)
            b = scale * rng.normal(size=6)
            for x, y in ((a, b), (a, a), (a, 0.5 * a), (a, -a), (a, -0.5 * a)):
                d = cosine_distance(x, y)
                assert 0.0 <= d <= 1.0


def test_cosine_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        ga, gb = cosine_distance_gradient(a, b)
        fa = finite_difference_gradient(lambda x: cosine_distance(x, b), a, step=1e-6)
        fb = finite_difference_gradient(lambda x: cosine_distance(a, x), b, step=1e-6)
        assert np.allclose(ga, fa, rtol=1e-5, atol=1e-8)
        assert np.allclose(gb, fb, rtol=1e-5, atol=1e-8)


def test_ema_rate():
    assert ema_rate(3.0) == 0.5
    assert ema_rate(1.0) == 1.0


def test_ema_rate_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        ema_rate(0.0)
    with pytest.raises(ConfigError):
        ema_rate(-2.0)
    with pytest.raises(ConfigError):
        ema_rate(0.5)  # step would exceed 1
    with pytest.raises(ConfigError):
        ema_rate(float("nan"))


def test_ema_step_direct_substitution():
    assert ema_step(0.8, 0.2, 3.0) == pytest.approx(0.5, abs=1e-15)


def test_ema_step_fixed_point():
    for gamma in (1.0, 3.0, 12.0, 99.0):
        assert ema_step(0.4, 0.4, gamma) == pytest.approx(0.4, abs=1e-15)


def test_ema_step_full_replacement():
    assert ema_step(0.0, 1.0, 1.0) == 1.0


def test_ema_step_rejects_non_finite():
    with pytest.raises(NumericError):
        ema_step(float("inf"), 0.0, 3.0)


def test_ema_batch_two_values():
    # oracle: two sequential steps, 0.8 -> 0.5 -> 0.55
    assert ema_batch(0.8, (0.2, 0.6), 3.0) == pytest.approx(0.55, abs=1e-12)


def test_ema_batch_single_value_reduces_to_step():
    gamma = 7.0
    assert ema_batch(0.3, (0.9,), gamma) == pytest.approx(ema_step(0.3, 0.9, gamma), abs=1e-15)


def test_ema_batch_gamma_twelve():
    # oracle: sequential iteration with s = 2/13
    assert ema_batch(0.5, (0.2, 0.4), 12.0) == pytest.approx(0.445562, abs=1e-6)


def test_ema_batch_empty():
    with pytest.raises(EmptyBatchError):
        ema_batch(0.5, (), 3.0)
    with pytest.raises(NumericError):
        ema_batch(0.5, (0.2, float("nan")), 3.0)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.floats(1.0, 50.0),
)
@settings(max_examples=100, deadline=None)
def test_ema_batch_equals_sequential_fold(seed, h, gamma):
    rng = np.random.default_rng(seed)
    current = float(rng.uniform())
    xs = rng.uniform(size=h).tolist()
    folded = current
    for x in xs:
        folded = ema_step(folded, x, gamma)
    assert abs(ema_batch(current, xs, gamma) - folded) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.floats(1.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_ema_batch_convex_containment(seed, h, gamma):
    rng = np.random.default_rng(seed)
    current = float(rng.uniform())
    xs = rng.uniform(size=h).tolist()
    out = ema_batch(current, xs, gamma)
    lo = min([current] + xs)
    hi = max([current] + xs)
    assert lo - 1e-12 <= out <= hi + 1e-12


def test_ema_batch_order_sensitive():
    gamma = 3.0
    assert ema_batch(0.5, (0.1, 0.9), gamma) != ema_batch(0.5, (0.9, 0.1), gamma)


def test_finite_difference_gradient_squared_norm():
    grad = finite_difference_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]), step=1e-5)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_difference_gradient_constant():
    grad = finite_difference_gradient(lambda v: 3.25, np.array([0.4, -0.2, 1.0]))
    assert np.all(grad == 0.0)


def test_finite_difference_gradient_rejects_bad_step():
    with pytest.raises(ConfigError):
        finite_difference_gradient(lambda v: 0.0, np.array([1.0]), step=0.0)


def test_finite_difference_gradient_non_finite_function():
    with pytest.raises(NumericError):
        finite_difference_gradient(lambda v: float("nan"), np.array([1.0]))


def test_as_vector_refuses_a_matrix():
    with pytest.raises(DimensionError, match="1-D"):
        as_vector([[1.0, 2.0]])


def test_finite_difference_gradient_takes_a_list():
    grad = finite_difference_gradient(lambda v: float(v @ v), [1.0, 2.0], step=1e-5)
    assert grad == pytest.approx([2.0, 4.0], abs=1e-8)


def test_ema_batch_takes_a_numpy_array():
    assert ema_batch(0.5, np.array([0.2, 0.4]), 12.0) == ema_batch(0.5, (0.2, 0.4), 12.0)
