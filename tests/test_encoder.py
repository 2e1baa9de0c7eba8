import numpy as np
import pytest

from purgelab.encoder import (
    classify_pairs,
    encode_batch,
    encoder_backward,
    init_flat_params,
    pair_backward,
    pair_features,
    param_shapes,
    param_views,
    split_flat,
)
from purgelab.errors import ConfigError, DegenerateVectorError, DimensionError, StateError
from purgelab.losses import cross_entropy
from purgelab.trainer import TrainConfig

SMALL = TrainConfig(feature_dim=8, hidden_dim=6, embed_dim=4, pair_hidden_dim=5)


def small_params(seed):
    return param_views(init_flat_params(seed, SMALL), SMALL)


def zeros_like_params(params):
    return [np.zeros_like(p) for p in (params.w1, params.b1, params.w2, params.b2)]


def test_dims_validation():
    for name in ("feature_dim", "hidden_dim", "embed_dim", "pair_hidden_dim"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            TrainConfig(**{name: 0})


def test_encode_output_is_unit_norm():
    enc, _ = small_params(0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = encode_batch(enc, rng.normal(size=(1, 8))).embeddings[0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
    # a zero output has no direction to normalize
    enc.w2[:] = 0.0
    enc.b2[:] = 0.0
    with pytest.raises(DegenerateVectorError):
        encode_batch(enc, rng.normal(size=(1, 8)))


def test_encode_deterministic():
    enc, _ = small_params(0)
    f = np.linspace(-1.0, 1.0, 8)[None, :]
    assert np.array_equal(encode_batch(enc, f).embeddings, encode_batch(enc, f).embeddings)


def test_encode_dimension_mismatch():
    enc, _ = small_params(0)
    with pytest.raises(DimensionError):
        encode_batch(enc, np.zeros((1, 9)))


def test_init_reproducible_and_seed_sensitive():
    a_enc, a_head = small_params(42)
    b_enc, b_head = small_params(42)
    c_enc, _ = small_params(43)
    assert np.array_equal(a_enc.w1, b_enc.w1)
    assert np.array_equal(a_head.w2, b_head.w2)
    assert not np.array_equal(a_enc.w1, c_enc.w1)


def test_param_views_share_one_flat_vector():
    config = TrainConfig()
    flat = init_flat_params(0, config)
    assert flat.shape == (57_730,)
    enc, head = param_views(flat, config)
    arrays = [enc.w1, enc.b1, enc.w2, enc.b2, head.w1, head.b1, head.w2, head.b2]
    assert [a.shape for a in arrays] == param_shapes(config)
    assert all(np.shares_memory(a, flat) for a in arrays)
    flat[-1] = 5.0
    assert head.b2[1] == 5.0
    with pytest.raises(DimensionError):
        param_views(flat[:-1], config)


def test_default_dims():
    config = TrainConfig()
    assert (config.feature_dim, config.hidden_dim, config.embed_dim) == (256, 128, 64)


def test_pair_features_zero_difference_block():
    rng = np.random.default_rng(2)
    o = rng.normal(size=(3, 4))
    pf = pair_features(o, o.copy())
    assert np.all(pf[:, 8:12] == 0.0)  # |o - s| block
    assert np.allclose(pf[:, 12:16], o * o)


def test_classify_pair_deterministic_and_softmax_normalized():
    enc, head = small_params(7)
    rng = np.random.default_rng(3)
    o = encode_batch(enc, rng.normal(size=(1, 8))).embeddings
    s = encode_batch(enc, rng.normal(size=(1, 8))).embeddings
    logits_a = classify_pairs(head, o, s).logits[0]
    logits_b = classify_pairs(head, o, s).logits[0]
    assert np.array_equal(logits_a, logits_b)
    probs = np.exp(logits_a) / np.sum(np.exp(logits_a))
    assert abs(probs.sum() - 1.0) <= 1e-12
    with pytest.raises(DimensionError):
        classify_pairs(head, o, s[:, :3])
    with pytest.raises(DimensionError):
        classify_pairs(head, o[:, :3], s[:, :3])


def test_normalization_jacobian_orthogonality():
    # J^T applied to the unit output has no component along the input.
    enc, _ = small_params(0)
    rng = np.random.default_rng(4)
    cache = encode_batch(enc, rng.normal(size=(1, 8)))
    grads = zeros_like_params(enc)
    encoder_backward(enc, cache, cache.embeddings.copy(), grads)
    # upstream = e means the pre-normalization gradient is (e - (e.e)e)/n = 0
    d_prenorm = (cache.embeddings - cache.embeddings) / cache.norms
    assert np.allclose(d_prenorm, 0.0)
    # and the parameter gradients of the final layer vanish with it
    assert np.allclose(grads[2], 0.0, atol=1e-15)


def test_backward_rejects_stale_cache():
    enc, head = small_params(0)
    rng = np.random.default_rng(5)
    cache = encode_batch(enc, rng.normal(size=(2, 8)))
    pcache = classify_pairs(head, cache.embeddings, cache.embeddings)
    enc.version += 1
    head.version += 1
    with pytest.raises(StateError):
        encoder_backward(enc, cache, np.zeros((2, 4)), zeros_like_params(enc))
    with pytest.raises(StateError):
        pair_backward(head, pcache, np.zeros((2, 2)), zeros_like_params(head))


def test_backward_checks_upstream_shape_after_staleness():
    enc, head = small_params(0)
    rng = np.random.default_rng(5)
    cache = encode_batch(enc, rng.normal(size=(2, 8)))
    pcache = classify_pairs(head, cache.embeddings, cache.embeddings)
    for bad in (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4)):
        with pytest.raises(DimensionError, match="upstream must match"):
            encoder_backward(enc, cache, bad, zeros_like_params(enc))
    for bad in (np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2)):
        with pytest.raises(DimensionError, match="upstream must match"):
            pair_backward(head, pcache, bad, zeros_like_params(head))
    # A stale cache is reported before the upstream's shape is looked at.
    enc.version += 1
    head.version += 1
    with pytest.raises(StateError):
        encoder_backward(enc, cache, np.zeros((3, 4)), zeros_like_params(enc))
    with pytest.raises(StateError):
        pair_backward(head, pcache, np.zeros((3, 3)), zeros_like_params(head))


def test_zero_upstream_gives_zero_parameter_gradients():
    enc, head = small_params(0)
    rng = np.random.default_rng(6)
    cache = encode_batch(enc, rng.normal(size=(3, 8)))
    grads = [np.full_like(g, np.nan) for g in zeros_like_params(enc)]
    encoder_backward(enc, cache, np.zeros((3, 4)), grads)
    for arr in grads:
        assert np.all(arr == 0.0)
    pcache = classify_pairs(head, cache.embeddings, cache.embeddings)
    pgrads = [np.full_like(g, np.nan) for g in zeros_like_params(head)]
    pair_backward(head, pcache, np.zeros((3, 2)), pgrads)
    for arr in pgrads:
        assert np.all(arr == 0.0)


def test_backward_writes_into_and_adds_onto_gradient_buffers():
    # One backward over both towers' rows stacked writes the sum of the two
    # per-tower backwards into the buffers, whatever they held before.
    enc, head = small_params(0)
    rng = np.random.default_rng(8)
    f_o, f_s = rng.normal(size=(2, 3, 8))
    cache_o = encode_batch(enc, f_o)
    cache_s = encode_batch(enc, f_s)
    stacked = encode_batch(enc, np.concatenate([f_o, f_s]))
    up_o, up_s = rng.normal(size=(2, 3, 4))
    only_o, only_s = zeros_like_params(enc), zeros_like_params(enc)
    encoder_backward(enc, cache_o, up_o, only_o)
    encoder_backward(enc, cache_s, up_s, only_s)
    out = [np.full_like(p, np.nan) for p in only_o]
    encoder_backward(enc, stacked, np.concatenate([up_o, up_s]), out)
    for o, a, b in zip(out, only_o, only_s):
        np.testing.assert_allclose(o, a + b, rtol=0.0, atol=1e-12)
    with pytest.raises(DimensionError):
        encoder_backward(enc, cache_o, up_o, out[::-1])

    pcache = classify_pairs(head, cache_o.embeddings, cache_s.embeddings)
    up = rng.normal(size=(3, 2))
    first = zeros_like_params(head)
    d_o, d_s = pair_backward(head, pcache, up, first)
    out = [np.full_like(p, np.nan) for p in first]
    again_o, again_s = pair_backward(head, pcache, up, out)
    for o, f in zip(out, first):
        assert np.array_equal(o, f)
    assert np.array_equal(again_o, d_o) and np.array_equal(again_s, d_s)
    with pytest.raises(DimensionError):
        pair_backward(head, pcache, up, out[::-1])


def test_whole_model_gradient_matches_finite_differences():
    params = init_flat_params(3, SMALL)
    enc, head = param_views(params, SMALL)
    rng = np.random.default_rng(7)
    m = 4
    f_o = rng.normal(size=(m, 8))
    f_s = rng.normal(size=(m, 8))
    labels = rng.integers(0, 2, size=m)

    def loss_value():
        co = encode_batch(enc, f_o)
        cs = encode_batch(enc, f_s)
        pc = classify_pairs(head, co.embeddings, cs.embeddings)
        return sum(cross_entropy(pc.logits[i], int(labels[i])).value for i in range(m)) / m

    stacked = encode_batch(enc, np.concatenate([f_o, f_s]))
    pc = classify_pairs(head, stacked.embeddings[:m], stacked.embeddings[m:])
    d_logits = np.zeros((m, 2))
    for i in range(m):
        d_logits[i] = cross_entropy(pc.logits[i], int(labels[i])).logit_grads
    d_logits /= m
    grad = np.zeros_like(params)
    segments = split_flat(grad, SMALL)
    d_origins, d_mutants = pair_backward(head, pc, d_logits, segments[4:])
    encoder_backward(enc, stacked, np.concatenate([d_origins, d_mutants]), segments[:4])
    step = 1e-6
    worst = 0.0
    for k in range(params.size):
        keep = params[k]
        params[k] = keep + step
        f_hi = loss_value()
        params[k] = keep - step
        f_lo = loss_value()
        params[k] = keep
        numeric = (f_hi - f_lo) / (2.0 * step)
        worst = max(worst, abs(grad[k] - numeric) / max(1e-6, abs(grad[k]), abs(numeric)))
    assert worst < 1e-4


def test_unit_norm_survives_parameter_updates():
    enc, _ = small_params(11)
    rng = np.random.default_rng(12)
    for _ in range(5):
        enc.w1 -= 0.05 * rng.normal(size=enc.w1.shape)
        enc.b2 += 0.05 * rng.normal(size=enc.b2.shape)
        enc.version += 1
        e = encode_batch(enc, rng.normal(size=(1, 8))).embeddings[0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
