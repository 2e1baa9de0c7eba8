"""The batch-first losses, cross-entropy and verge update against a
sample-by-sample reference.

The reference below is the per-sample formulation: one cosine distance and
one gradient per origin-mutant pair, one cross-entropy per logit row, and
Python accumulation in batch order. The batch code must reproduce it bit for
bit (``np.array_equal``, ``==``), not merely within a tolerance.
"""

import copy

import numpy as np
import pytest

from purgelab.data import FeatureCache
from purgelab.errors import DivergenceError, NormalizationError
from purgelab.losses import (
    EmbeddedBatch,
    LossConfig,
    cluster_purge_loss,
    contrastive_loss,
    cross_entropy,
    triplet_batch_loss,
)
from purgelab.trainer import TrainConfig, init_state, train_step
from purgelab.verges import VergeRegistry

# --- per-sample reference ------------------------------------------------------


def ref_cosine_distance(a, b):
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    cos = float(np.dot(a, b)) / (norm_a * norm_b)
    cos = min(1.0, max(-1.0, cos))
    return min(1.0, max(0.0, 1.0 - (cos + 1.0) / 2.0))


def ref_cosine_distance_gradient(a, b):
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    unit_a = a / norm_a
    unit_b = b / norm_b
    cos = float(np.dot(unit_a, unit_b))
    return -0.5 * (unit_b - cos * unit_a) / norm_a, -0.5 * (unit_a - cos * unit_b) / norm_b


def ref_cluster_purge_loss(rows, registry, cfg):
    m = len(rows)
    dim = rows[0][1].shape[0]
    origin_grads = np.zeros((m, dim))
    mutant_grads = np.zeros((m, dim))
    total = 0.0
    skipped = 0
    for i, (cid, o, s, label) in enumerate(rows):
        state = registry.get(cid)
        verge = None
        if state is not None:
            verge = state.v_minus if label == 1 else state.v_plus
        if verge is None:
            skipped += 1
            continue
        d = ref_cosine_distance(o, s)
        if label == 1:
            arg, exponent, sign = d - verge + cfg.zeta, cfg.alpha, 1.0
        else:
            arg, exponent, sign = verge - d + cfg.zeta, cfg.beta, -1.0
        if arg <= 0.0:
            continue
        total += arg**exponent
        factor = exponent * max(arg, cfg.hinge_epsilon) ** (exponent - 1.0)
        d_dist = sign * factor / m
        grad_o, grad_s = ref_cosine_distance_gradient(o, s)
        origin_grads[i] = d_dist * grad_o
        mutant_grads[i] = d_dist * grad_s
    return total / m, skipped, origin_grads, mutant_grads


def ref_contrastive_loss(rows, cfg):
    m = len(rows)
    dim = rows[0][1].shape[0]
    origin_grads = np.zeros((m, dim))
    mutant_grads = np.zeros((m, dim))
    total = 0.0
    for i, (_, o, s, label) in enumerate(rows):
        d = ref_cosine_distance(o, s)
        if label == 1:
            arg, d_dist = d, 1.0 / m
        else:
            arg, d_dist = cfg.zeta - d, -1.0 / m
        if arg <= 0.0:
            continue
        total += arg
        grad_o, grad_s = ref_cosine_distance_gradient(o, s)
        origin_grads[i] = d_dist * grad_o
        mutant_grads[i] = d_dist * grad_s
    return total / m, origin_grads, mutant_grads


def ref_triplet(anchor, positive, negative, margin):
    arg = ref_cosine_distance(anchor, positive) - ref_cosine_distance(anchor, negative) + margin
    zero = np.zeros_like(anchor)
    if arg <= 0.0:
        return 0.0, zero, zero.copy(), zero.copy()
    ga_pos, gp = ref_cosine_distance_gradient(anchor, positive)
    ga_neg, gn = ref_cosine_distance_gradient(anchor, negative)
    return arg, ga_pos - ga_neg, gp, -gn


def ref_triplet_batch(rows, margin):
    m = len(rows)
    dim = rows[0][1].shape[0]
    origin_grads = np.zeros((m, dim))
    mutant_grads = np.zeros((m, dim))
    triplets = [
        (i, j)
        for i in range(m)
        if rows[i][3] == 1
        for j in range(m)
        if rows[j][3] == 0 and rows[j][0] == rows[i][0]
    ]
    if not triplets:
        return 0.0, origin_grads, mutant_grads
    total = 0.0
    for i, j in triplets:
        value, ga, gp, gn = ref_triplet(rows[i][1], rows[i][2], rows[j][2], margin)
        total += value
        origin_grads[i] += ga
        mutant_grads[i] += gp
        mutant_grads[j] += gn
    n = len(triplets)
    origin_grads /= n
    mutant_grads /= n
    return total / n, origin_grads, mutant_grads


def ref_cross_entropy(logits, labels):
    m = logits.shape[0]
    grads = np.zeros((m, 2))
    total = 0.0
    for i in range(m):
        shifted = logits[i] - logits[i].max()
        exp = np.exp(shifted)
        row_total = float(exp.sum())
        total += float(np.log(row_total) - shifted[labels[i]])
        grads[i] = exp / row_total
        grads[i][labels[i]] -= 1.0
    grads /= m
    return total / m, grads


def ref_batch_update(registry, rows):
    order, pos, neg = [], {}, {}
    for cid, o, s, label in rows:
        if cid not in pos and cid not in neg:
            order.append(cid)
        (pos if label == 1 else neg).setdefault(cid, []).append(ref_cosine_distance(o, s))
    for cid in order:
        registry.update_class(cid, pos.get(cid, ()), neg.get(cid, ()))


# --- random batches --------------------------------------------------------------


def unit_rows(rng, m, dim):
    rows = rng.normal(size=(m, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_case(rng, m, dim=16):
    """A batch over a few classes (so classes repeat), with a registry in
    which some verges never formed."""
    n_classes = max(1, m // 2)
    class_ids = rng.integers(0, n_classes, size=m)
    labels = rng.integers(0, 2, size=m)
    origins = unit_rows(rng, n_classes, dim)[class_ids]  # one origin per class
    mutants = unit_rows(rng, m, dim)
    # some mutants close to their origin so distances span the hinges
    near = rng.random(m) < 0.5
    mutants[near] = origins[near] + 0.3 * mutants[near]
    mutants /= np.linalg.norm(mutants, axis=1, keepdims=True)
    registry = VergeRegistry(float(rng.uniform(1.0, 20.0)))
    for cid in range(n_classes):
        kind = int(rng.integers(0, 4))  # none, v_plus only, v_minus only, both
        pos = (float(rng.uniform(0.0, 0.6)),) if kind in (1, 3) else ()
        neg = (float(rng.uniform(0.2, 0.9)),) if kind in (2, 3) else ()
        registry.update_class(cid, pos_distances=pos, neg_distances=neg)
    cfg = LossConfig(
        zeta=float(rng.uniform(-0.3, 0.15)),
        alpha=float(rng.uniform(0.5, 3.0)),
        beta=float(rng.uniform(0.3, 1.5)),
    )
    rows = [(int(class_ids[i]), origins[i], mutants[i], int(labels[i])) for i in range(m)]
    batch = EmbeddedBatch.from_rows(class_ids, labels, origins, mutants)
    return rows, batch, registry, cfg


CASES = [(m, seed) for m in (1, 4, 16) for seed in range(12)]


def assert_grads_equal(out, origin_grads, mutant_grads):
    assert np.array_equal(out.origin_grads, origin_grads)
    assert np.array_equal(out.mutant_grads, mutant_grads)


@pytest.mark.parametrize("m,seed", CASES)
def test_verge_update_and_cpl_match_reference(m, seed):
    rows, batch, registry, cfg = random_case(np.random.default_rng(seed), m)
    reference = copy.deepcopy(registry)

    # before the update: skips wherever the opposite verge never formed
    value, skipped, og, mg = ref_cluster_purge_loss(rows, reference, cfg)
    out = cluster_purge_loss(batch, registry, cfg)
    assert (out.value, out.skipped_count) == (value, skipped)
    assert_grads_equal(out, og, mg)

    ref_batch_update(reference, rows)
    touched = registry.batch_update(batch)
    assert touched == {r[0] for r in rows}
    assert registry.states == reference.states

    value, skipped, og, mg = ref_cluster_purge_loss(rows, reference, cfg)
    out = cluster_purge_loss(batch, registry, cfg)
    assert (out.value, out.skipped_count) == (value, skipped)
    assert_grads_equal(out, og, mg)


@pytest.mark.parametrize("m,seed", CASES)
def test_contrastive_matches_reference(m, seed):
    rows, batch, _, cfg = random_case(np.random.default_rng(100 + seed), m)
    value, og, mg = ref_contrastive_loss(rows, cfg)
    out = contrastive_loss(batch, cfg)
    assert out.value == value
    assert_grads_equal(out, og, mg)


@pytest.mark.parametrize("m,seed", CASES)
def test_triplet_sampler_matches_reference(m, seed):
    rng = np.random.default_rng(200 + seed)
    rows, batch, _, _ = random_case(rng, m)
    margin = float(rng.uniform(-0.2, 0.4))
    value, og, mg = ref_triplet_batch(rows, margin)
    out = triplet_batch_loss(batch, margin)
    assert out.value == value
    assert_grads_equal(out, og, mg)


def test_single_triplet_matches_reference():
    # the triplet (a, p, n) is the two-row batch (a, p, 1), (a, n, 0)
    rng = np.random.default_rng(7)
    active = inactive = 0
    for _ in range(60):
        a, p, n = unit_rows(rng, 3, 8)
        margin = float(rng.uniform(-0.2, 0.4))
        value, ga, gp, gn = ref_triplet(a, p, n, margin)
        batch = EmbeddedBatch.from_rows([0, 0], [1, 0], np.stack([a, a]), np.stack([p, n]))
        out = triplet_batch_loss(batch, margin)
        assert out.value == value
        assert np.array_equal(out.origin_grads[0] + out.origin_grads[1], ga)
        assert np.array_equal(out.mutant_grads[0], gp)
        assert np.array_equal(out.mutant_grads[1], gn)
        active += value > 0.0
        inactive += value == 0.0
    assert active and inactive


@pytest.mark.parametrize("m,seed", CASES)
def test_cross_entropy_matches_reference(m, seed):
    rng = np.random.default_rng(300 + seed)
    logits = rng.normal(scale=4.0, size=(m, 2))
    labels = rng.integers(0, 2, size=m)
    value, grads = ref_cross_entropy(logits, labels)
    out = cross_entropy(logits, labels)
    assert out.value == value
    assert np.array_equal(out.logit_grads, grads)


def test_cases_cover_skips_inactive_hinges_and_both_labels():
    skipped = inactive = active = 0
    labels = set()
    for m, seed in CASES:
        rows, batch, registry, cfg = random_case(np.random.default_rng(seed), m)
        out = cluster_purge_loss(batch, registry, cfg)
        skipped += out.skipped_count
        hit = np.any(out.origin_grads != 0.0, axis=1)
        active += int(hit.sum())
        inactive += m - out.skipped_count - int(hit.sum())
        labels |= {r[3] for r in rows}
    assert skipped and inactive and active and labels == {0, 1}


# --- validation in the training step ---------------------------------------------


def _step_setup(monkeypatch, corrupt):
    config = TrainConfig(epochs=1, feature_dim=12, hidden_dim=8, embed_dim=6, pair_hidden_dim=5)
    state = init_state(config)
    rng = np.random.default_rng(3)
    batch = FeatureCache(
        class_ids=np.array([0, 0, 1]),
        origin_features=rng.normal(size=(3, 12)),
        mutant_features=rng.normal(size=(3, 12)),
        labels=np.array([1, 0, 1]),
    )
    import purgelab.trainer as trainer_module

    real = trainer_module.encode_batch

    def encode(params, features):
        cache = real(params, features)
        corrupt(cache.embeddings[len(batch) :])  # the stacked mutant rows
        return cache

    monkeypatch.setattr(trainer_module, "encode_batch", encode)
    return state, batch


def test_nan_embedding_row_raises_divergence(monkeypatch):
    def corrupt(rows):
        rows[1, 2] = np.nan

    state, batch = _step_setup(monkeypatch, corrupt)
    before = state.params.copy()
    with pytest.raises(DivergenceError):
        train_step(state, batch)
    assert np.array_equal(state.params, before)


def test_non_unit_embedding_row_raises_normalization_error(monkeypatch):
    def corrupt(rows):
        rows[2] *= 1.01

    state, batch = _step_setup(monkeypatch, corrupt)
    before = state.params.copy()
    with pytest.raises(NormalizationError):
        train_step(state, batch)
    assert np.array_equal(state.params, before)
