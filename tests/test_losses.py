import numpy as np
import pytest

from purgelab.errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    EmptyBatchError,
    NormalizationError,
    NumericError,
)
from purgelab.losses import (
    EmbeddedBatch,
    LossConfig,
    cluster_purge_loss,
    contrastive_loss,
    cross_entropy,
    joint_loss,
    triplet_batch_loss,
)
from purgelab.vecmath import cosine_distance, finite_difference_gradient
from purgelab.verges import VergeRegistry


def unit_at_distance(d, dim=4):
    cos = 1.0 - 2.0 * d
    v = np.zeros(dim)
    v[0] = cos
    v[1] = np.sqrt(max(0.0, 1.0 - cos * cos))
    return v


ORIGIN = np.array([1.0, 0.0, 0.0, 0.0])


def batch_of(rows):
    """A unit-norm batch from (class_id, origin, mutant, label) rows."""
    class_ids, origins, mutants, labels = zip(*rows)
    return EmbeddedBatch.from_rows(class_ids, labels, np.stack(origins), np.stack(mutants))


def triplet(anchor, positive, negative, margin):
    """The one-triplet hinge as the two-row batch (a, p, 1), (a, n, 0)."""
    origins = np.stack([anchor, anchor])
    batch = EmbeddedBatch([0, 0], [1, 0], origins, np.stack([positive, negative]))
    return triplet_batch_loss(batch, margin)


def registry_with(class_id, v_plus=None, v_minus=None, gamma=3.0):
    # single-observation updates are EMA fixed points, so these land exactly
    registry = VergeRegistry(gamma)
    registry.update_class(
        class_id,
        pos_distances=(v_plus,) if v_plus is not None else (),
        neg_distances=(v_minus,) if v_minus is not None else (),
    )
    return registry


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# --- cluster purge loss -----------------------------------------------------


def test_cpl_hand_derived_fixture():
    # m=2, same class; l=1 at dist 0.6 with v_minus=0.5, l=0 at dist 0.05 with
    # v_plus=0.1; zeta=0.05, alpha=2, beta=0.5 -> (0.15^2 + 0.10^0.5) / 2
    registry = registry_with(7, v_plus=0.1, v_minus=0.5)
    cfg = LossConfig(zeta=0.05, alpha=2.0, beta=0.5)
    batch = batch_of(
        [(7, ORIGIN, unit_at_distance(0.6), 1), (7, ORIGIN, unit_at_distance(0.05), 0)]
    )
    out = cluster_purge_loss(batch, registry, cfg)
    assert out.value == pytest.approx(0.169364, abs=1e-6)
    assert out.skipped_count == 0


def test_cpl_negative_hinge_argument_contributes_zero():
    registry = registry_with(1, v_minus=0.4)
    cfg = LossConfig(zeta=-0.05)
    batch = batch_of([(1, ORIGIN, unit_at_distance(0.3), 1)])
    out = cluster_purge_loss(batch, registry, cfg)
    assert out.value == 0.0
    assert np.all(out.origin_grads == 0.0)
    assert np.all(out.mutant_grads == 0.0)


def test_cpl_all_inactive_batch_is_zero_with_zero_gradients():
    registry = registry_with(1, v_plus=0.1, v_minus=0.9)
    cfg = LossConfig(zeta=-0.05)
    batch = batch_of(
        [(1, ORIGIN, unit_at_distance(0.2), 1), (1, ORIGIN, unit_at_distance(0.5), 0)]
    )
    out = cluster_purge_loss(batch, registry, cfg)
    assert out.value == 0.0
    assert np.all(out.origin_grads == 0.0)
    assert np.all(out.mutant_grads == 0.0)


def test_cpl_uninitialized_opposite_verge_skips_but_keeps_divisor():
    # class 2 has only a positive verge; its l=1 sample needs the negative
    # verge, so it is skipped; the l=0 sample is active. Divisor stays m=2.
    registry = registry_with(2, v_plus=0.5)
    cfg = LossConfig(zeta=0.0, beta=1.0)
    batch = batch_of(
        [(2, ORIGIN, unit_at_distance(0.6), 1), (2, ORIGIN, unit_at_distance(0.2), 0)]
    )
    out = cluster_purge_loss(batch, registry, cfg)
    assert out.skipped_count == 1
    assert out.value == pytest.approx((0.5 - 0.2) / 2.0, abs=1e-9)


def test_cpl_unknown_class_skips_every_sample():
    registry = VergeRegistry(3.0)
    out = cluster_purge_loss(
        batch_of([(9, ORIGIN, unit_at_distance(0.4), 1)]), registry, LossConfig()
    )
    assert out.value == 0.0
    assert out.skipped_count == 1


def test_cpl_empty_batch():
    with pytest.raises(EmptyBatchError):
        EmbeddedBatch([], [], np.zeros((0, 4)), np.zeros((0, 4)))
    with pytest.raises(DimensionError):
        EmbeddedBatch([0, 0], [1, 0, 1], np.tile(ORIGIN, (2, 1)), np.tile(ORIGIN, (2, 1)))
    with pytest.raises(ConfigError):
        EmbeddedBatch([0], [2], ORIGIN[None, :], ORIGIN[None, :])


@pytest.mark.parametrize("side", ["origins", "mutants"])
def test_embedded_batch_rejects_zero_row(side):
    # a zero row has no cosine distance; it must not become nan
    rows = {"origins": np.tile(ORIGIN, (2, 1)), "mutants": np.tile(ORIGIN, (2, 1))}
    rows[side][1] = 0.0
    with pytest.raises(DegenerateVectorError, match="zero vector"):
        EmbeddedBatch([0, 0], [1, 0], rows["origins"], rows["mutants"])


def test_cpl_rejects_non_unit_embeddings():
    with pytest.raises(NormalizationError):
        batch_of([(1, ORIGIN * 2.0, ORIGIN, 1)])


def test_cpl_monotone_in_distance():
    registry = registry_with(1, v_plus=0.3, v_minus=0.3)
    cfg = LossConfig(zeta=0.0)
    values_eq = []
    values_ne = []
    for d in np.linspace(0.05, 0.95, 10):
        batch = batch_of([(1, ORIGIN, unit_at_distance(float(d)), 1)])
        values_eq.append(cluster_purge_loss(batch, registry, cfg).value)
        batch = batch_of([(1, ORIGIN, unit_at_distance(float(d)), 0)])
        values_ne.append(cluster_purge_loss(batch, registry, cfg).value)
    assert all(b >= a - 1e-12 for a, b in zip(values_eq, values_eq[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(values_ne, values_ne[1:]))


def test_cpl_monotone_in_zeta():
    registry = registry_with(1, v_plus=0.4, v_minus=0.4)
    batch = batch_of(
        [(1, ORIGIN, unit_at_distance(0.5), 1), (1, ORIGIN, unit_at_distance(0.3), 0)]
    )
    values = [
        cluster_purge_loss(batch, registry, LossConfig(zeta=z)).value
        for z in np.linspace(-0.2, 0.2, 9)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_cpl_permutation_invariant():
    rng = np.random.default_rng(11)
    registry = registry_with(1, v_plus=0.4, v_minus=0.4)
    registry.update_class(2, pos_distances=(0.2,), neg_distances=(0.6,))
    rows = [
        (int(rng.integers(1, 3)), random_unit(rng, 6), random_unit(rng, 6), int(rng.integers(0, 2)))
        for _ in range(6)
    ]
    value = cluster_purge_loss(batch_of(rows), registry, LossConfig()).value
    shuffled = batch_of([rows[i] for i in rng.permutation(6)])
    assert cluster_purge_loss(shuffled, registry, LossConfig()).value == pytest.approx(
        value, abs=1e-15
    )


def test_cpl_nonnegative_on_random_batches():
    rng = np.random.default_rng(5)
    for _ in range(50):
        registry = registry_with(
            1, v_plus=float(rng.uniform()), v_minus=float(rng.uniform())
        )
        batch = batch_of(
            [
                (1, random_unit(rng, 5), random_unit(rng, 5), int(rng.integers(0, 2)))
                for _ in range(4)
            ]
        )
        cfg = LossConfig(zeta=float(rng.uniform(-0.1, 0.1)))
        assert cluster_purge_loss(batch, registry, cfg).value >= 0.0


def test_cpl_derivative_guard_bounds_fractional_exponent():
    # hinge argument far below hinge_epsilon: the loss value stays unclamped
    # while the gradient factor is floored, so beta < 1 cannot blow up
    registry = registry_with(1, v_plus=0.2)
    cfg = LossConfig(zeta=0.0, beta=0.5, hinge_epsilon=1e-6)
    d = 0.2 - 1e-9  # argument w = 1e-9
    batch = batch_of([(1, ORIGIN, unit_at_distance(d), 0)])
    out = cluster_purge_loss(batch, registry, cfg)
    assert out.value == pytest.approx(1e-9**0.5, rel=1e-4)
    guard_bound = 0.5 * cfg.hinge_epsilon ** (-0.5)  # max derivative factor
    grad_norm = float(np.linalg.norm(out.mutant_grads))
    unguarded = 0.5 * (1e-9) ** (-0.5)
    assert grad_norm <= guard_bound
    assert grad_norm < unguarded / 10.0


# --- contrastive ------------------------------------------------------------


def test_contrastive_equivalent_pays_distance():
    cfg = LossConfig(zeta=0.09)
    batch = batch_of([(0, ORIGIN, unit_at_distance(0.3), 1)])
    assert contrastive_loss(batch, cfg).value == pytest.approx(0.3, abs=1e-9)


def test_contrastive_nonequivalent_beyond_margin_is_free():
    cfg = LossConfig(zeta=0.09)
    batch = batch_of([(0, ORIGIN, unit_at_distance(0.12), 0)])
    assert contrastive_loss(batch, cfg).value == 0.0


def test_contrastive_nonequivalent_inside_margin():
    cfg = LossConfig(zeta=0.09)
    batch = batch_of([(0, ORIGIN, unit_at_distance(0.02), 0)])
    assert contrastive_loss(batch, cfg).value == pytest.approx(0.07, abs=1e-9)


def test_contrastive_all_equivalent_reduces_to_mean_distance():
    distances = [0.1, 0.25, 0.4]
    batch = batch_of([(0, ORIGIN, unit_at_distance(d), 1) for d in distances])
    out = contrastive_loss(batch, LossConfig(zeta=0.09))
    assert out.value == pytest.approx(np.mean(distances), abs=1e-9)


def test_contrastive_permutation_invariant():
    rng = np.random.default_rng(3)
    rows = [
        (0, random_unit(rng, 5), random_unit(rng, 5), int(rng.integers(0, 2))) for _ in range(5)
    ]
    value = contrastive_loss(batch_of(rows), LossConfig()).value
    shuffled = batch_of([rows[i] for i in rng.permutation(5)])
    assert contrastive_loss(shuffled, LossConfig()).value == pytest.approx(value, abs=1e-15)


# --- triplet ----------------------------------------------------------------


def test_triplet_well_separated():
    out = triplet(ORIGIN, unit_at_distance(0.1), unit_at_distance(0.6), margin=0.2)
    assert out.value == 0.0


def test_triplet_violating():
    out = triplet(ORIGIN, unit_at_distance(0.4), unit_at_distance(0.3), margin=0.2)
    assert out.value == pytest.approx(0.3, abs=1e-9)


def test_triplet_identical_positive_negative():
    p = unit_at_distance(0.37)
    out = triplet(ORIGIN, p, p, margin=0.2)
    assert out.value == pytest.approx(0.2, abs=1e-12)


# --- cross-entropy ----------------------------------------------------------


def test_cross_entropy_uniform():
    out = cross_entropy(np.array([0.0, 0.0]), 1)
    assert out.value == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_saturated():
    assert cross_entropy(np.array([20.0, -20.0]), 0).value < 1e-8


def test_cross_entropy_hand_value():
    out = cross_entropy(np.array([1.0, 3.0]), 1)
    assert out.value == pytest.approx(0.126928, abs=1e-6)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    out = cross_entropy(np.array([1.0, 3.0]), 1)
    softmax = np.exp([1.0, 3.0]) / np.sum(np.exp([1.0, 3.0]))
    assert np.allclose(out.logit_grads, softmax - np.array([0.0, 1.0]), atol=1e-12)


def test_cross_entropy_rejects_non_finite():
    with pytest.raises(NumericError):
        cross_entropy(np.array([np.inf, 0.0]), 0)


def test_cross_entropy_rejects_wrong_shape():
    with pytest.raises(DimensionError):
        cross_entropy(np.array([1.0, 2.0, 3.0]), 0)
    with pytest.raises(DimensionError):
        cross_entropy(np.zeros((2, 2)), [0])
    for label in (-1, 2):
        with pytest.raises(ConfigError, match="label must be 0 or 1"):
            cross_entropy(np.zeros(2), label)


# --- joint ------------------------------------------------------------------


def test_joint_composition_fixture():
    assert joint_loss(0.169364, 0.693147, 1.15) == pytest.approx(0.887916, abs=1e-6)


def test_joint_zero_metric():
    assert joint_loss(0.0, 0.42, 2.0) == 0.42


def test_joint_zero_ce():
    assert joint_loss(0.37, 0.0, 1.0) == 0.37


def test_joint_rejects_non_finite():
    with pytest.raises(NumericError):
        joint_loss(float("nan"), 0.0, 1.0)
    with pytest.raises(ConfigError):
        joint_loss(0.37, 0.42, -1.0)


# --- config validation ------------------------------------------------------


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        LossConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        LossConfig(lam=-0.5)
    with pytest.raises(ConfigError):
        LossConfig(gamma=0.5)
    with pytest.raises(ConfigError):
        LossConfig(hinge_epsilon=0.1)
    with pytest.raises(ConfigError):
        LossConfig(zeta=np.inf)
    LossConfig(lam=0.0)  # zero weight is allowed for ablation comparisons


# --- gradient audits --------------------------------------------------------


def relative_error(analytic, numeric):
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def cpl_case(rng, dim=5, m=4):
    """Random CPL batch whose hinge arguments stay clear of the kink."""
    cfg = LossConfig(
        zeta=float(rng.uniform(-0.1, 0.1)),
        alpha=float(rng.uniform(1.2, 3.0)),
        beta=float(rng.uniform(0.3, 0.9)),
    )
    registry = VergeRegistry(float(rng.uniform(1.0, 20.0)))
    rows = []
    guard = 0
    while len(rows) < m:
        guard += 1
        assert guard < 10_000
        o = random_unit(rng, dim)
        s = random_unit(rng, dim)
        label = int(rng.integers(0, 2))
        d = cosine_distance(o, s)
        verge = float(rng.uniform(0.0, 1.0))
        arg = d - verge + cfg.zeta if label == 1 else verge - d + cfg.zeta
        if abs(arg) <= 1e-3:
            continue
        cid = len(rows) + 1
        if label == 1:
            registry.update_class(cid, neg_distances=(verge,))
        else:
            registry.update_class(cid, pos_distances=(verge,))
        rows.append((cid, o, s, label))
    return batch_of(rows), registry, cfg


def flat_batch_embeddings(origins, mutants):
    """Row i's origin then mutant, for every row in order."""
    return np.concatenate([origins, mutants], axis=1).ravel()


def rebuilt_batch(batch, flat):
    # EmbeddedBatch itself accepts off-sphere rows, so finite-difference probes
    # may leave the unit sphere; the analytic distance gradient is exact there
    dim = batch.origins.shape[1]
    pairs = flat.reshape(len(batch), 2 * dim)
    return EmbeddedBatch(batch.class_ids, batch.labels, pairs[:, :dim], pairs[:, dim:])


def test_cpl_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(30):
        batch, registry, cfg = cpl_case(rng)

        def value_at(flat):
            return cluster_purge_loss(rebuilt_batch(batch, flat), registry, cfg).value

        out = cluster_purge_loss(batch, registry, cfg)
        analytic = flat_batch_embeddings(out.origin_grads, out.mutant_grads)
        numeric = finite_difference_gradient(
            value_at, flat_batch_embeddings(batch.origins, batch.mutants), step=1e-6
        )
        assert relative_error(analytic, numeric) < 1e-4


def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        cfg = LossConfig(zeta=float(rng.uniform(0.02, 0.2)))
        batch = batch_of(
            [
                (0, random_unit(rng, 5), random_unit(rng, 5), int(rng.integers(0, 2)))
                for _ in range(4)
            ]
        )
        args = [
            cosine_distance(o, s) if label == 1 else cfg.zeta - cosine_distance(o, s)
            for o, s, label in zip(batch.origins, batch.mutants, batch.labels)
        ]
        if any(abs(a) <= 1e-3 for a in args):
            continue
        checked += 1

        def value_at(flat):
            return contrastive_loss(rebuilt_batch(batch, flat), cfg).value

        out = contrastive_loss(batch, cfg)
        analytic = flat_batch_embeddings(out.origin_grads, out.mutant_grads)
        numeric = finite_difference_gradient(
            value_at, flat_batch_embeddings(batch.origins, batch.mutants), step=1e-6
        )
        assert relative_error(analytic, numeric) < 1e-4


def test_triplet_gradients_match_finite_differences():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 30:
        a = random_unit(rng, 5)
        p = random_unit(rng, 5)
        n = random_unit(rng, 5)
        margin = float(rng.uniform(-0.2, 0.4))
        arg = cosine_distance(a, p) - cosine_distance(a, n) + margin
        if abs(arg) <= 1e-3:
            continue
        checked += 1
        out = triplet(a, p, n, margin)
        d_anchor = out.origin_grads[0] + out.origin_grads[1]
        analytic = np.concatenate([d_anchor, out.mutant_grads[0], out.mutant_grads[1]])

        def value_at(flat):
            return triplet(flat[:5], flat[5:10], flat[10:], margin).value

        numeric = finite_difference_gradient(
            value_at, np.concatenate([a, p, n]), step=1e-6
        )
        assert relative_error(analytic, numeric) < 1e-4


def test_cross_entropy_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(30):
        logits = rng.normal(scale=3.0, size=2)
        label = int(rng.integers(0, 2))
        out = cross_entropy(logits, label)
        numeric = finite_difference_gradient(
            lambda z: cross_entropy(z, label).value, logits, step=1e-6
        )
        assert relative_error(out.logit_grads, numeric) < 1e-4
