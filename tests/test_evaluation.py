import multiprocessing
import tracemalloc

import numpy as np
import pytest

from purgelab import evaluation
from purgelab.data import FeatureCache, HashingFeatures, generate_synthetic, split
from purgelab.errors import ConfigError, StratifyError, UnknownClassError
from purgelab.evaluation import (
    EvalReport,
    distance_stats,
    evaluate,
    export_embeddings,
    pair_distances,
    permutation_pvalue,
    sweep,
)
from purgelab.trainer import TrainConfig, init_state, train, with_loss

SMALL = dict(feature_dim=24, hidden_dim=12, embed_dim=8, pair_hidden_dim=6)


def small_setup(seed=0):
    corpus, table = generate_synthetic(
        "geometric", n_classes=4, per_class=8, seed=seed, feature_dim=24
    )
    return corpus, FeatureCache.from_corpus(corpus, table)


def small_split():
    corpus, table = generate_synthetic("geometric", n_classes=4, per_class=8, seed=0, feature_dim=24)
    train_side, test_side = split(corpus, 0.5, seed=0)
    return FeatureCache.from_corpus(train_side, table), FeatureCache.from_corpus(test_side, table)


def small_config(**overrides):
    base = dict(epochs=2, batch_size=4, seed=0, **SMALL)
    base.update(overrides)
    return TrainConfig(**base)


# --- metric identities --------------------------------------------------------


def test_report_symmetric_case():
    report = EvalReport.from_counts(tp=90, fp=10, tn=0, fn=10)
    assert report.precision == pytest.approx(0.9)
    assert report.recall == pytest.approx(0.9)
    assert report.f1 == pytest.approx(0.9)


def test_report_undefined_precision_is_absent():
    report = EvalReport.from_counts(tp=0, fp=0, tn=5, fn=3)
    assert report.precision is None
    assert report.recall == 0.0
    assert report.f1 is None


def test_report_all_negative_recall_absent():
    report = EvalReport.from_counts(tp=0, fp=2, tn=5, fn=0)
    assert report.recall is None
    assert report.f1 is None


def test_f1_identity_on_random_counts():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 50, size=4))
        report = EvalReport.from_counts(tp, fp, tn, fn)
        if report.precision is not None and report.recall is not None:
            p, r = report.precision, report.recall
            if p + r > 0:
                assert report.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            else:
                assert report.f1 is None


def test_evaluate_is_pure():
    corpus, data = small_setup()
    state = train(small_config(), data).state
    a = evaluate(state, data)
    b = evaluate(state, data)
    assert a == b
    assert a.tp + a.fp + a.tn + a.fn == len(corpus)


def test_evaluate_untrained_ties_break_toward_nonequivalent():
    # a zeroed head gives identical logits for every pair: argmax ties resolve
    # to label 0, so nothing is predicted equivalent
    _, data = small_setup()
    state = init_state(small_config())
    state.head.w2[:] = 0.0
    state.head.b2[:] = 0.0
    report = evaluate(state, data)
    assert report.tp == 0 and report.fp == 0
    assert report.precision is None


def test_feature_cache_and_evaluate_memory_do_not_scale_with_copies():
    # 2048 records of 64 classes at default widths: one (2048, 256) float64
    # matrix is 4 MB. The cache holds one origin row per class, and an
    # evaluate that passes the whole corpus through the encoder and the pair
    # head at once peaks above 8 MB.
    corpus = generate_synthetic("codegen", n_classes=64, per_class=32, seed=0)[0]
    data = FeatureCache.from_corpus(corpus, HashingFeatures(256))
    assert data.origins.shape == (64, 256)
    assert data.origin_rows.shape == (2048,)
    assert np.array_equal(data.origin_features[40], data.origins[1])  # class 1's first record
    state = init_state(TrainConfig())
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        evaluate(state, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live < 5 * 2**20


# --- distance stats -----------------------------------------------------------


def test_distance_stats_shapes_and_ranges():
    corpus, data = small_setup()
    state = init_state(small_config())
    stats = distance_stats(state, data)
    assert stats.n_eq + stats.n_noneq == len(corpus)
    assert 0.0 <= stats.mean_eq <= 1.0
    assert 0.0 <= stats.mean_noneq <= 1.0
    assert stats.ratio == pytest.approx(stats.mean_noneq / stats.mean_eq)
    with pytest.raises(StratifyError):
        evaluation.DistanceStats.from_distances(np.array([]), np.array([0.5]))


def test_distance_stats_identical_pairs_have_absent_ratio():
    corpus, table = generate_synthetic(
        "geometric", n_classes=2, per_class=6, noise=0.0, seed=0, feature_dim=24
    )
    # with zero noise equivalents coincide with origins: mean_eq == 0
    state = init_state(small_config())
    stats = distance_stats(state, FeatureCache.from_corpus(corpus, table))
    assert stats.mean_eq == pytest.approx(0.0, abs=1e-9)
    assert stats.ratio is None


def test_pair_distances_split_by_label():
    corpus, data = small_setup()
    state = init_state(small_config())
    eq, noneq = pair_distances(state, data)
    labels = np.array([r.label for r in corpus.records])
    assert eq.size == int(labels.sum())
    assert noneq.size == int((1 - labels).sum())


# --- permutation test -----------------------------------------------------------


def test_permutation_identical_samples_p_near_one():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=40)
    result = permutation_pvalue(a, a.copy(), resamples=2000, seed=0)
    assert result.p_value > 0.9
    assert result.observed_diff == 0.0


def test_permutation_disjoint_samples_p_small():
    a = np.full(50, 0.1)
    b = np.full(50, 0.9)
    result = permutation_pvalue(a, b, resamples=2000, seed=0)
    assert result.p_value < 0.01


def test_permutation_deterministic_given_seed():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=30)
    b = rng.uniform(size=30) + 0.1
    r1 = permutation_pvalue(a, b, resamples=500, seed=7)
    r2 = permutation_pvalue(a, b, resamples=500, seed=7)
    assert r1 == r2


def test_permutation_seed_stability_within_monte_carlo_tolerance():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=60)
    b = rng.uniform(size=60) + 0.05
    p1 = permutation_pvalue(a, b, resamples=4000, seed=1).p_value
    p2 = permutation_pvalue(a, b, resamples=4000, seed=2).p_value
    assert abs(p1 - p2) < 5.0 / np.sqrt(4000)


def permutation_loop_reference(a, b, resamples, seed):
    """One ``rng.permutation`` of the pool and two ``mean`` calls per resample."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    observed = abs(float(a.mean()) - float(b.mean()))
    pool = np.concatenate([a, b])
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(resamples):
        perm = rng.permutation(pool)
        if abs(float(perm[: a.size].mean()) - float(perm[a.size :].mean())) >= observed:
            hits += 1
    return (hits + 1) / (resamples + 1), observed


def _pools():
    rng = np.random.default_rng(11)
    yield rng.uniform(size=3), rng.uniform(size=5) + 0.2
    yield rng.uniform(size=40), rng.uniform(size=25) + 0.05
    # a pool of 4,700 values, so fewer than 64 resamples fit in a 1 MB block
    yield rng.uniform(size=3000), rng.uniform(size=1700) + 0.01
    # small integers: sums are exact and many resamples tie the observed diff
    yield rng.integers(0, 3, size=17).astype(float), rng.integers(0, 3, size=23).astype(float)


@pytest.mark.parametrize("resamples", [1, 63, 64, 65, 2000])
def test_permutation_matches_loop_reference(resamples):
    for seed, (a, b) in enumerate(_pools()):
        result = permutation_pvalue(a, b, resamples=resamples, seed=seed)
        assert (result.p_value, result.observed_diff) == permutation_loop_reference(a, b, resamples, seed)
        assert result.resamples == resamples


def test_permutation_pool_larger_than_a_block_row():
    # a pool of 140,000 values takes more than 1 MB, so a block holds one resample
    rng = np.random.default_rng(12)
    a, b = rng.uniform(size=90_000), rng.uniform(size=50_000)
    result = permutation_pvalue(a, b, resamples=3, seed=4)
    assert (result.p_value, result.observed_diff) == permutation_loop_reference(a, b, 3, 4)


def test_permutation_validation():
    with pytest.raises(StratifyError):
        permutation_pvalue([], [1.0], resamples=10, seed=0)
    with pytest.raises(ConfigError):
        permutation_pvalue([1.0], [1.0], resamples=0, seed=0)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        permutation_pvalue([1.0], [1.0], resamples=10, seed=-1)


# --- sweep ---------------------------------------------------------------------


def test_sweep_cell_counts():
    train_side, test_side = small_split()
    grid = sweep(
        small_config(epochs=1),
        train_side,
        test_side,
        lambda_values=[1.0, 1.1],
        zeta_values=[-0.02, 0.0, 0.01],
    )
    assert len(grid.cells) == 6
    assert [c.lam for c in grid.cells[:3]] == [1.0, 1.0, 1.0]
    assert grid.cell(1, 2).lam == 1.1
    assert grid.cell(1, 2).zeta == 0.01


def test_sweep_single_cell_equals_direct_run():
    train_side, test_side = small_split()
    config = small_config(epochs=1)
    grid = sweep(config, train_side, test_side, [1.2], [-0.03])
    direct = evaluate(
        train(with_loss(config, lam=1.2, zeta=-0.03), train_side).state,
        test_side,
    )
    assert grid.cells[0].report == direct


def test_sweep_cell_rerun_bit_identical():
    train_side, test_side = small_split()
    config = small_config(epochs=1)
    grid = sweep(config, train_side, test_side, [1.0, 1.3], [-0.05, 0.0])
    again = sweep(config, train_side, test_side, [1.3], [0.0])
    target = [c for c in grid.cells if c.lam == 1.3 and c.zeta == 0.0][0]
    assert target.report == again.cells[0].report


def test_sweep_best_tie_breaking():
    from purgelab.evaluation import SweepCell, SweepGrid

    r_low = EvalReport.from_counts(tp=8, fp=2, tn=8, fn=2)
    r_high = EvalReport.from_counts(tp=9, fp=1, tn=9, fn=1)
    cells = [
        SweepCell(lam=1.1, zeta=0.0, report=r_high),
        SweepCell(lam=1.0, zeta=0.01, report=r_high),
        SweepCell(lam=1.0, zeta=0.0, report=r_low),
    ]
    grid = SweepGrid(lambda_values=[1.0, 1.1], zeta_values=[0.0, 0.01], cells=cells)
    best = grid.best()
    assert (best.lam, best.zeta) == (1.0, 0.01)


def test_sweep_parallel_matches_sequential():
    train_side, test_side = small_split()
    config = small_config(epochs=1)
    seq = sweep(config, train_side, test_side, [1.0, 1.2], [0.0])
    par = sweep(config, train_side, test_side, [1.0, 1.2], [0.0], workers=2)
    assert [c.report for c in seq.cells] == [c.report for c in par.cells]
    assert multiprocessing.active_children() == []  # the pool's workers have ended


def test_sweep_records_divergence_and_continues():
    train_side, test_side = small_split()
    config = small_config(epochs=1, step_size=1e300)
    with np.errstate(all="ignore"):
        grid = sweep(config, train_side, test_side, [1.0], [0.0, 0.01])
    assert all(c.report is None and c.error for c in grid.cells)
    assert grid.best() is None


def test_sweep_validation():
    _, data = small_setup()
    with pytest.raises(ConfigError):
        sweep(small_config(), data, data, [], [0.0])


# --- embedding export ------------------------------------------------------------


def test_export_row_count_and_order():
    corpus, data = small_setup()
    state = init_state(small_config())
    rows = list(export_embeddings(state, data))
    n_classes = len({r.class_id for r in corpus.records})
    assert len(rows) == n_classes + len(corpus)
    roles = [row[2] for row in rows]
    assert roles.count("origin") == n_classes
    # embedding payload has embed_dim components
    assert len(rows[0]) == 3 + 8


def test_export_class_filter():
    corpus, data = small_setup()
    state = init_state(small_config())
    rows = list(export_embeddings(state, data, class_filter=[2]))
    assert all(row[0] == 2 for row in rows)
    mutants = [row for row in rows if row[2] == "mutant"]
    assert len(mutants) == sum(1 for r in corpus.records if r.class_id == 2)


@pytest.mark.parametrize("class_filter", [None, [3, 0]])
def test_export_groups_interleaved_classes_like_a_per_class_scan(class_filter):
    # Classes interleaved in the corpus: rows come class by class, ascending,
    # and in corpus order within a class, as a scan per class gives them.
    _, data = small_setup()
    data = data.take(np.random.default_rng(5).permutation(len(data)))
    state = init_state(small_config())
    origins, mutants = evaluation._embeddings(state, data)
    expected = []
    for cid in sorted(set(data.class_ids.tolist()) if class_filter is None else set(class_filter)):
        members = np.flatnonzero(data.class_ids == cid)
        expected.append((cid, -1, "origin", *origins[data.origin_rows[members[0]]].tolist()))
        expected += [(cid, int(data.labels[i]), "mutant", *mutants[i].tolist()) for i in members]
    assert list(export_embeddings(state, data, class_filter)) == expected


def test_export_unknown_class():
    _, data = small_setup()
    state = init_state(small_config())
    with pytest.raises(UnknownClassError):
        export_embeddings(state, data, class_filter=[99])


def test_export_origin_rows_use_sentinel_label():
    _, data = small_setup()
    state = init_state(small_config())
    rows = export_embeddings(state, data)
    for row in rows:
        if row[2] == "origin":
            assert row[1] == -1
        else:
            assert row[1] in (0, 1)
