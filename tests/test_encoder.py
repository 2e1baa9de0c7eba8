import numpy as np
import pytest

from purgelab.encoder import (
    EncoderDims,
    classify_pairs,
    encode_batch,
    encoder_backward,
    init_flat_params,
    init_params,
    pair_backward,
    pair_features,
    param_shapes,
    param_views,
)
from purgelab.errors import ConfigError, DimensionError, StateError
from purgelab.losses import cross_entropy

SMALL = EncoderDims(feature_dim=8, hidden_dim=6, embed_dim=4, pair_hidden_dim=5)


def test_dims_validation():
    with pytest.raises(ConfigError):
        EncoderDims(feature_dim=0)


def test_encode_output_is_unit_norm():
    enc, _ = init_params(0, SMALL)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = encode_batch(enc, rng.normal(size=(1, 8))).embeddings[0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9


def test_encode_deterministic():
    enc, _ = init_params(0, SMALL)
    f = np.linspace(-1.0, 1.0, 8)[None, :]
    assert np.array_equal(encode_batch(enc, f).embeddings, encode_batch(enc, f).embeddings)


def test_encode_dimension_mismatch():
    enc, _ = init_params(0, SMALL)
    with pytest.raises(DimensionError):
        encode_batch(enc, np.zeros((1, 9)))


def test_init_reproducible_and_seed_sensitive():
    a_enc, a_head = init_params(42, SMALL)
    b_enc, b_head = init_params(42, SMALL)
    c_enc, _ = init_params(43, SMALL)
    assert np.array_equal(a_enc.w1, b_enc.w1)
    assert np.array_equal(a_head.w2, b_head.w2)
    assert not np.array_equal(a_enc.w1, c_enc.w1)


def test_param_views_share_one_flat_vector():
    flat = init_flat_params(0, EncoderDims())
    assert flat.shape == (57_730,)
    enc, head = param_views(flat, EncoderDims())
    arrays = [enc.w1, enc.b1, enc.w2, enc.b2, head.w1, head.b1, head.w2, head.b2]
    assert [a.shape for a in arrays] == param_shapes(EncoderDims())
    assert all(np.shares_memory(a, flat) for a in arrays)
    flat[-1] = 5.0
    assert head.b2[1] == 5.0
    with pytest.raises(DimensionError):
        param_views(flat[:-1], EncoderDims())


def test_default_dims():
    dims = EncoderDims()
    assert (dims.feature_dim, dims.hidden_dim, dims.embed_dim) == (256, 128, 64)


def test_pair_features_zero_difference_block():
    rng = np.random.default_rng(2)
    o = rng.normal(size=(3, 4))
    pf = pair_features(o, o.copy())
    assert np.all(pf[:, 8:12] == 0.0)  # |o - s| block
    assert np.allclose(pf[:, 12:16], o * o)


def test_classify_pair_deterministic_and_softmax_normalized():
    enc, head = init_params(7, SMALL)
    rng = np.random.default_rng(3)
    o = encode_batch(enc, rng.normal(size=(1, 8))).embeddings
    s = encode_batch(enc, rng.normal(size=(1, 8))).embeddings
    logits_a = classify_pairs(head, o, s).logits[0]
    logits_b = classify_pairs(head, o, s).logits[0]
    assert np.array_equal(logits_a, logits_b)
    probs = np.exp(logits_a) / np.sum(np.exp(logits_a))
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_normalization_jacobian_orthogonality():
    # J^T applied to the unit output has no component along the input.
    enc, _ = init_params(0, SMALL)
    rng = np.random.default_rng(4)
    cache = encode_batch(enc, rng.normal(size=(1, 8)))
    grads = encoder_backward(enc, cache, cache.embeddings.copy())
    # upstream = e means the pre-normalization gradient is (e - (e.e)e)/n = 0
    d_prenorm = (cache.embeddings - cache.embeddings) / cache.norms
    assert np.allclose(d_prenorm, 0.0)
    # and the parameter gradients of the final layer vanish with it
    assert np.allclose(grads.w2, 0.0, atol=1e-15)


def test_backward_rejects_stale_cache():
    enc, head = init_params(0, SMALL)
    rng = np.random.default_rng(5)
    cache = encode_batch(enc, rng.normal(size=(2, 8)))
    pcache = classify_pairs(head, cache.embeddings, cache.embeddings)
    enc.version += 1
    head.version += 1
    with pytest.raises(StateError):
        encoder_backward(enc, cache, np.zeros((2, 4)))
    with pytest.raises(StateError):
        pair_backward(head, pcache, np.zeros((2, 2)))


def test_zero_upstream_gives_zero_parameter_gradients():
    enc, head = init_params(0, SMALL)
    rng = np.random.default_rng(6)
    cache = encode_batch(enc, rng.normal(size=(3, 8)))
    grads = encoder_backward(enc, cache, np.zeros((3, 4)))
    for arr in (grads.w1, grads.b1, grads.w2, grads.b2):
        assert np.all(arr == 0.0)
    pcache = classify_pairs(head, cache.embeddings, cache.embeddings)
    pgrads = pair_backward(head, pcache, np.zeros((3, 2)))
    for arr in (pgrads.w1, pgrads.b1, pgrads.w2, pgrads.b2):
        assert np.all(arr == 0.0)


def test_backward_writes_into_and_adds_onto_gradient_buffers():
    enc, head = init_params(0, SMALL)
    rng = np.random.default_rng(8)
    cache_o = encode_batch(enc, rng.normal(size=(3, 8)))
    cache_s = encode_batch(enc, rng.normal(size=(3, 8)))
    up_o, up_s = rng.normal(size=(2, 3, 4))
    fresh_o = encoder_backward(enc, cache_o, up_o)
    fresh_s = encoder_backward(enc, cache_s, up_s)
    out = [np.full_like(p, np.nan) for p in (enc.w1, enc.b1, enc.w2, enc.b2)]
    grads = encoder_backward(enc, cache_o, up_o, out=out)
    assert all(g is o for g, o in zip((grads.w1, grads.b1, grads.w2, grads.b2), out))
    encoder_backward(enc, cache_s, up_s, out=out, accumulate=True)
    for name, o in zip(("w1", "b1", "w2", "b2"), out):
        assert np.array_equal(o, getattr(fresh_o, name) + getattr(fresh_s, name))

    pcache = classify_pairs(head, cache_o.embeddings, cache_s.embeddings)
    up = rng.normal(size=(3, 2))
    fresh = pair_backward(head, pcache, up)
    out = [np.full_like(p, np.nan) for p in (head.w1, head.b1, head.w2, head.b2)]
    grads = pair_backward(head, pcache, up, out=out)
    for name, o in zip(("w1", "b1", "w2", "b2"), out):
        assert getattr(grads, name) is o
        assert np.array_equal(o, getattr(fresh, name))
    assert np.array_equal(grads.origin_grads, fresh.origin_grads)
    with pytest.raises(DimensionError):
        pair_backward(head, pcache, up, out=out[::-1])


def _named(enc, head):
    return [
        ("enc.w1", enc.w1), ("enc.b1", enc.b1), ("enc.w2", enc.w2), ("enc.b2", enc.b2),
        ("head.w1", head.w1), ("head.b1", head.b1), ("head.w2", head.w2), ("head.b2", head.b2),
    ]


def test_whole_model_gradient_matches_finite_differences():
    enc, head = init_params(3, SMALL)
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

    co = encode_batch(enc, f_o)
    cs = encode_batch(enc, f_s)
    pc = classify_pairs(head, co.embeddings, cs.embeddings)
    d_logits = np.zeros((m, 2))
    for i in range(m):
        d_logits[i] = cross_entropy(pc.logits[i], int(labels[i])).logit_grads
    d_logits /= m
    hg = pair_backward(head, pc, d_logits)
    eo = encoder_backward(enc, co, hg.origin_grads)
    es = encoder_backward(enc, cs, hg.mutant_grads)
    analytic = {
        "enc.w1": eo.w1 + es.w1, "enc.b1": eo.b1 + es.b1,
        "enc.w2": eo.w2 + es.w2, "enc.b2": eo.b2 + es.b2,
        "head.w1": hg.w1, "head.b1": hg.b1, "head.w2": hg.w2, "head.b2": hg.b2,
    }
    step = 1e-6
    worst = 0.0
    for name, arr in _named(enc, head):
        flat = arr.ravel()
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + step
            f_hi = loss_value()
            flat[k] = keep - step
            f_lo = loss_value()
            flat[k] = keep
            numeric = (f_hi - f_lo) / (2.0 * step)
            a = analytic[name].ravel()[k]
            worst = max(worst, abs(a - numeric) / max(1e-6, abs(a), abs(numeric)))
    assert worst < 1e-4


def test_unit_norm_survives_parameter_updates():
    enc, _ = init_params(11, SMALL)
    rng = np.random.default_rng(12)
    for _ in range(5):
        enc.w1 -= 0.05 * rng.normal(size=enc.w1.shape)
        enc.b2 += 0.05 * rng.normal(size=enc.b2.shape)
        enc.version += 1
        e = encode_batch(enc, rng.normal(size=(1, 8))).embeddings[0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
