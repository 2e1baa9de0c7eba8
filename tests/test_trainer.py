import ast
import copy
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from purgelab import evaluation
from purgelab import trainer as trainer_module
from purgelab.data import MAX_DIM, FeatureCache, HashingFeatures, generate_synthetic, make_batches
from purgelab.encoder import encode_batch, encoder_backward, split_flat
from purgelab.errors import (
    ConfigError,
    DeserializeError,
    DivergenceError,
    StateError,
    VersionError,
)
from purgelab.losses import LossConfig
from purgelab.trainer import (
    LOSS_KINDS,
    TrainConfig,
    _adam_step,
    init_state,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
    train_step,
    with_loss,
)

SMALL = dict(feature_dim=24, hidden_dim=12, embed_dim=8, pair_hidden_dim=6)


def small_setup(seed=0, n_classes=4, per_class=8):
    corpus, table = generate_synthetic(
        "geometric", n_classes=n_classes, per_class=per_class, seed=seed, feature_dim=24
    )
    return FeatureCache.from_corpus(corpus, table)


def small_config(**overrides):
    base = dict(epochs=3, batch_size=4, seed=0, **SMALL)
    base.update(overrides)
    return TrainConfig(**base)


def checkpoints_equal(a, b):
    pairs = [
        (a.encoder.w1, b.encoder.w1), (a.encoder.b1, b.encoder.b1),
        (a.encoder.w2, b.encoder.w2), (a.encoder.b2, b.encoder.b2),
        (a.head.w1, b.head.w1), (a.head.b1, b.head.b1),
        (a.head.w2, b.head.w2), (a.head.b2, b.head.b2),
    ]
    if not all(np.array_equal(x, y) for x, y in pairs):
        return False
    if a.t != b.t or a.epoch != b.epoch:
        return False
    if not (np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)):
        return False
    return (a.registry.gamma, a.registry.states) == (b.registry.gamma, b.registry.states)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(loss_kind="nope")
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(feature_dim=16.0)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)


@pytest.mark.parametrize("name", ["feature_dim", "hidden_dim", "embed_dim", "pair_hidden_dim"])
def test_dimensions_are_bounded_by_max_dim(name):
    # checked on the config alone: nothing of that size is allocated
    assert getattr(TrainConfig(**{name: MAX_DIM}), name) == MAX_DIM
    with pytest.raises(ConfigError, match=f"{name} must be <= {MAX_DIM}, got {MAX_DIM + 1}"):
        TrainConfig(**{name: MAX_DIM + 1})


def test_hashing_and_geometric_widths_are_bounded_by_max_dim():
    assert HashingFeatures(MAX_DIM).dim == MAX_DIM
    with pytest.raises(ConfigError):
        HashingFeatures(MAX_DIM + 1)
    with pytest.raises(ConfigError):
        generate_synthetic("geometric", feature_dim=MAX_DIM + 1)


def test_ce_only_reports_zero_metric_and_joint_equals_ce():
    data = small_setup()
    result = train(small_config(loss_kind="ce_only", epochs=2), data)
    for stats in result.history:
        assert stats.metric_loss == 0.0
        assert stats.joint_loss == pytest.approx(stats.ce_loss, abs=1e-15)
        assert stats.skipped_count == 0


def test_lambda_zero_cpl_matches_ce_only_updates():
    data = small_setup()
    cfg_ce = small_config(loss_kind="ce_only", epochs=2)
    cfg_cpl = with_loss(small_config(loss_kind="ce_plus_cpl", epochs=2), lam=0.0)
    state_ce = train(cfg_ce, data).state
    state_cpl = train(cfg_cpl, data).state
    assert np.array_equal(state_ce.encoder.w1, state_cpl.encoder.w1)
    assert np.array_equal(state_ce.head.w2, state_cpl.head.w2)


def test_single_step_reproduces_hand_derived_joint():
    # Two samples of one class through the real encoder: mutant features equal
    # to +/- the origin features give exact distances 1.0 and 0.0 (odd encoder
    # with zero biases at init). Verges pre-seeded so the hinge arguments are
    # 0.15 and 0.10; the head's output layer is zeroed to force (0, 0) logits.
    config = small_config(loss_kind="ce_plus_cpl", epochs=1)
    config = with_loss(config, zeta=0.05, alpha=2.0, beta=0.5, lam=1.15, gamma=2e12)
    state = init_state(config)
    state.head.w2[:] = 0.0
    state.head.b2[:] = 0.0
    state.registry.update_class(0, pos_distances=(0.05,), neg_distances=(0.9,))
    rng = np.random.default_rng(9)
    f = rng.normal(size=24)
    batch = FeatureCache(
        class_ids=np.array([0, 0]),
        labels=np.array([1, 0]),
        origins=f[np.newaxis],
        origin_rows=[0, 0],
        mutant_features=np.stack([-f, f]),
    )
    metrics = train_step(state, batch)
    assert metrics.ce_loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert metrics.metric_loss == pytest.approx(0.169364, abs=1e-6)
    assert metrics.joint_loss == pytest.approx(0.887916, abs=1e-6)


def test_train_deterministic():
    data = small_setup()
    config = small_config(loss_kind="ce_plus_cpl")
    a = train(config, data)
    b = train(config, data)
    assert checkpoints_equal(a.state, b.state)
    assert [s.joint_loss for s in a.history] == [s.joint_loss for s in b.history]


def test_contrastive_never_touches_registry():
    data = small_setup()
    result = train(small_config(loss_kind="ce_plus_contrastive", epochs=2), data)
    assert result.state.registry.states == {}


def test_triplet_runs_and_reports():
    data = small_setup()
    config = with_loss(small_config(loss_kind="ce_plus_triplet", epochs=2), zeta=0.2)
    result = train(config, data)
    assert len(result.history) == 2
    assert all(np.isfinite(s.joint_loss) for s in result.history)


def test_no_gradient_leaks_through_verges():
    # Recomputing a step with the registry hard-frozen at the post-update
    # values yields identical parameter updates.
    data = small_setup()
    config = small_config(loss_kind="ce_plus_cpl", epochs=1)
    batch = make_batches(data, 4, config.seed, 0)[0]

    state_a = init_state(config)
    train_step(state_a, batch)

    # rerun the same step with the post-update verges injected as constants
    # and the update disabled: parameter updates must be identical
    state_b = init_state(config)
    state_b.registry = copy.deepcopy(state_a.registry)
    state_b.registry.batch_update = lambda samples: set()  # type: ignore[method-assign]
    train_step(state_b, batch)
    assert np.array_equal(state_a.encoder.w1, state_b.encoder.w1)
    assert np.array_equal(state_a.head.w1, state_b.head.w1)


def test_divergence_raises_with_location():
    # a huge finite step size drives parameters to inf/NaN after one update
    data = small_setup()
    config = small_config(loss_kind="ce_only", epochs=1, step_size=1e300)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        train(config, data)
    assert info.value.epoch == 0
    assert info.value.step >= 1
    assert info.value.history == []


def test_float_overflow_raises_divergence_with_location():
    # 2,000th powers of hinge arguments above 1.43 overflow a Python float in
    # the second epoch, after the first one finished
    data = small_setup()
    config = small_config(epochs=4, loss=LossConfig(zeta=1.0, alpha=2000.0))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="step overflowed") as info:
        train(config, data)
    assert isinstance(info.value.__cause__, OverflowError)
    assert (info.value.epoch, info.value.step) == (1, 7)
    assert [row.index for row in info.value.history] == [0]


def _divergence_sites(tree):
    """The enclosing function of each ``DivergenceError(...)`` call."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "DivergenceError":
                    found.append(func)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


def test_train_step_is_the_only_divergence_boundary():
    # Every failing step turns into a DivergenceError in one place.
    package = Path(trainer_module.__file__).parent
    sites = [
        (path.name, func)
        for path in sorted(package.glob("*.py"))
        for func in _divergence_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("trainer.py", "train_step")]


def test_flat_adam_matches_textbook_per_array_update():
    # References applied array by array. The in-place update of the flat
    # vector must agree bit for bit with Kingma and Ba's efficient form, also
    # on exact-zero gradients, and with the textbook form up to rounding.
    config = small_config(step_size=3e-3, beta1=0.8, beta2=0.99, adam_epsilon=1e-7)
    state = init_state(config)
    ref_params = [seg.copy() for seg in split_flat(state.params, config)]
    eff_params = [p.copy() for p in ref_params]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    rng = np.random.default_rng(17)
    for t in range(1, 7):
        grads = [rng.normal(size=p.shape) * (rng.random(p.shape) < 0.7) for p in ref_params]
        if t == 3:
            grads = [np.zeros_like(p) for p in ref_params]
        for out, g in zip(state.grad_segments, grads):
            out[...] = g
        _adam_step(state)
        bias1 = 1.0 - config.beta1**t
        bias2 = 1.0 - config.beta2**t
        step = config.step_size * math.sqrt(bias2) / bias1
        eps_hat = config.adam_epsilon * math.sqrt(bias2)
        for k, g in enumerate(grads):
            ref_m[k] = config.beta1 * ref_m[k] + (1.0 - config.beta1) * g
            ref_v[k] = config.beta2 * ref_v[k] + (1.0 - config.beta2) * g * g
            eff_params[k] -= step * ref_m[k] / (np.sqrt(ref_v[k]) + eps_hat)
            m_hat = ref_m[k] / bias1
            v_hat = ref_v[k] / bias2
            ref_params[k] -= config.step_size * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    for flat, ref in ((state.params, eff_params), (state.m, ref_m), (state.v, ref_v)):
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in ref]))
    textbook = np.concatenate([a.ravel() for a in ref_params])
    np.testing.assert_allclose(state.params, textbook, rtol=1e-12, atol=0.0)
    assert state.t == state.encoder.version == state.head.version == 6


def test_each_step_encodes_and_backpropagates_both_towers_in_one_call(monkeypatch):
    import purgelab.trainer as trainer_module

    calls = []
    real_encode, real_backward = trainer_module.encode_batch, trainer_module.encoder_backward

    def encode(params, features):
        calls.append(("encode_batch", len(features)))
        return real_encode(params, features)

    def backward(params, cache, upstream, out):
        calls.append(("encoder_backward", len(upstream)))
        return real_backward(params, cache, upstream, out)

    monkeypatch.setattr(trainer_module, "encode_batch", encode)
    monkeypatch.setattr(trainer_module, "encoder_backward", backward)
    state = init_state(small_config(batch_size=5))
    batches = make_batches(small_setup(), 5, 0, 0)  # 32 records: the last batch holds 2
    for batch in batches:
        train_step(state, batch)
    assert len(batches) == 7
    assert calls == [
        (name, 2 * len(batch)) for batch in batches for name in ("encode_batch", "encoder_backward")
    ]


def test_param_version_counts_steps_and_stales_caches(tmp_path):
    data = small_setup()
    result = train(small_config(epochs=2), data)
    steps = 2 * int(np.ceil(len(data) / 4))
    state = result.state
    assert state.encoder.version == state.head.version == state.t == steps
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.encoder.version == loaded.head.version == loaded.t == steps
    batch = make_batches(data, 4, 0, 0)[0]
    cache = encode_batch(loaded.encoder, batch.origin_features)
    train_step(loaded, batch)
    assert loaded.encoder.version == loaded.t == steps + 1
    with pytest.raises(StateError):
        upstream = np.zeros_like(cache.embeddings)
        encoder_backward(loaded.encoder, cache, upstream, loaded.grad_segments[:4])


def test_checkpoint_roundtrip(tmp_path):
    data = small_setup()
    result = train(small_config(loss_kind="ce_plus_cpl"), data)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(result.state, path)
    loaded = load_checkpoint(path)
    assert checkpoints_equal(result.state, loaded)
    assert loaded.config == result.state.config


def test_checkpoint_bytes_deterministic(tmp_path):
    data = small_setup()
    result = train(small_config(), data)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(result.state, p1)
    save_checkpoint(result.state, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_resume_equals_uninterrupted(tmp_path):
    data = small_setup()
    full = train(small_config(loss_kind="ce_plus_cpl", epochs=4), data)

    part = train(small_config(loss_kind="ce_plus_cpl", epochs=2), data)
    path = tmp_path / "part.bin"
    save_checkpoint(part.state, path)
    resumed_state = load_checkpoint(path)
    from dataclasses import replace

    resumed_state.config = replace(resumed_state.config, epochs=4)
    resumed = resume(resumed_state, data)

    assert checkpoints_equal(full.state, resumed.state)
    assert [s.joint_loss for s in full.history[2:]] == [
        s.joint_loss for s in resumed.history
    ]


def test_corrupted_checkpoint_never_partially_loads(tmp_path):
    data = small_setup()
    result = train(small_config(epochs=1), data)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(result.state, path)
    raw = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DeserializeError):
        load_checkpoint(tmp_path / "trunc.bin")
    (tmp_path / "junk.bin").write_bytes(b"junk" + raw)
    with pytest.raises(DeserializeError):
        load_checkpoint(tmp_path / "junk.bin")
    # The lowest mantissa bit of the first stored weight: the weight stays
    # finite and plausible, so only the digest trailer can catch the flip.
    flipped = bytearray(raw)
    flipped[len(raw) - 32 - 3 * 8 * result.state.params.size] ^= 1
    (tmp_path / "flip.bin").write_bytes(bytes(flipped))
    with pytest.raises(DeserializeError):
        load_checkpoint(tmp_path / "flip.bin")


@pytest.mark.parametrize("version", [1, 2, 99])
def test_version_mismatch(tmp_path, version):
    data = small_setup()
    result = train(small_config(epochs=1), data)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(result.state, path)
    raw = bytearray(path.read_bytes())
    raw[13:17] = version.to_bytes(4, "little")  # version field after magic
    (tmp_path / "other.bin").write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_checkpoint(tmp_path / "other.bin")


def test_cpl_skipped_counts_surface_in_history():
    # classes with only one label leave the opposite verge uninitialized
    data = small_setup()
    result = train(small_config(loss_kind="ce_plus_cpl", epochs=1), data)
    assert result.history[0].skipped_count >= 0


def test_step_trace_collection():
    data = small_setup()
    result = train(small_config(epochs=2), data, collect_steps=True)
    steps_per_epoch = int(np.ceil(len(data) / 4))
    assert len(result.step_trace) == 2 * steps_per_epoch


def test_cpl_training_loss_decreases_on_separable_data():
    # 8 well-separated classes: the epoch-mean joint loss falls monotonically
    # through the first five epochs
    corpus, table = generate_synthetic(
        "geometric", n_classes=8, per_class=40, noise=0.3, seed=4
    )
    data = FeatureCache.from_corpus(corpus, table)
    result = train(TrainConfig(loss_kind="ce_plus_cpl", epochs=5, seed=4), data)
    joints = [e.joint_loss for e in result.history]
    assert all(b <= a for a, b in zip(joints, joints[1:]))


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_warm_training_steps_allocate_little(kind):
    # At default dimensions a step's arrays are batch-sized; only a per-step
    # copy of the flat parameter vector (or of its largest segments) would
    # reach a quarter of its bytes.
    corpus, table = generate_synthetic("geometric", n_classes=4, per_class=10, seed=1)
    batches = make_batches(FeatureCache.from_corpus(corpus, table), 4, 0, 0)
    state = init_state(TrainConfig(loss_kind=kind))
    for batch in batches[:3]:
        train_step(state, batch)
    tracemalloc.start()
    try:
        for batch in batches[3:]:
            train_step(state, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.params.nbytes // 4


def test_a_checkpoint_loads_its_block_once_into_aligned_native_arrays(tmp_path):
    # The float block is read into the one array that params, m and v view:
    # the load's peak is that block plus small change (finite-check flags, the
    # metadata), not a second copy of the file.
    path = tmp_path / "ckpt.bin"
    save_checkpoint(init_state(TrainConfig()), path)
    tracemalloc.start()
    try:
        state = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 3 * state.params.nbytes
    assert peak <= 1.15 * block
    for array in (state.params, state.m, state.v):
        assert array.dtype == np.float64 and array.dtype.isnative
        assert array.flags.aligned and array.flags.writeable
        assert np.shares_memory(array, state.params.base)
    assert state.params.base.nbytes == block


# The attributes of a state made or loaded from a file: the training buffers
# (the step gradient, its segments and Adam's scratch vector) are not among them.
_STATE_ATTRIBUTES = {"config", "params", "registry", "m", "v", "t", "epoch", "encoder", "head"}


def test_a_state_makes_its_training_buffers_on_its_first_step(tmp_path):
    data = small_setup()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(train(small_config(epochs=1), data).state, path)
    loaded = load_checkpoint(path)
    evaluation.evaluate(loaded, data)
    evaluation.distance_stats(loaded, data)
    list(evaluation.export_embeddings(loaded, data))
    assert set(vars(loaded)) == _STATE_ATTRIBUTES
    fresh = init_state(small_config())
    assert set(vars(fresh)) == _STATE_ATTRIBUTES
    train_step(fresh, make_batches(data, 4, 0, 0)[0])
    assert set(vars(fresh)) > _STATE_ATTRIBUTES
    assert fresh.grad is fresh.grad and fresh.grad.shape == fresh.scratch.shape == fresh.params.shape
    assert all(np.shares_memory(seg, fresh.grad) for seg in fresh.grad_segments)


def test_a_checkpoint_loads_from_a_pipe_like_from_its_file(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(train(small_config(epochs=1), small_setup()).state, path)
    raw = path.read_bytes()
    for data, error in ((raw, None), (raw[:-1], "digest mismatch"), (raw[:30], "truncated")):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)  # a small checkpoint fits the pipe's buffer
            os.close(write_end)
            if error is None:
                assert checkpoints_equal(load_checkpoint(f"/dev/fd/{read_end}"), load_checkpoint(path))
            else:
                with pytest.raises(DeserializeError, match=error):
                    load_checkpoint(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
