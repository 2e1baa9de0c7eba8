"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

Criteria 5-8 train real models and take a couple of minutes combined. Their
corpus and training seeds are arbitrary frozen constants: every run is
bit-deterministic, so the printed numbers are stable on one platform.
"""

import json

import numpy as np

from purgelab.cli import _parse_range, run
from purgelab.data import Corpus, FeatureCache, MutantRecord, dedup, generate_synthetic, split
from purgelab.encoder import (
    classify_pairs,
    encode_batch,
    encoder_backward,
    init_flat_params,
    pair_backward,
    param_views,
    split_flat,
)
from purgelab.evaluation import (
    evaluate,
    distance_stats,
    pair_distances,
    permutation_pvalue,
    sweep,
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
from purgelab.trainer import TrainConfig, train, with_loss
from purgelab.vecmath import (
    cosine_distance,
    ema_batch,
    ema_step,
    finite_difference_gradient,
)
from purgelab.verges import VergeRegistry


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def unit_at_distance(d, dim=4):
    cos = 1.0 - 2.0 * d
    v = np.zeros(dim)
    v[0] = cos
    v[1] = np.sqrt(max(0.0, 1.0 - cos * cos))
    return v


ORIGIN4 = np.array([1.0, 0.0, 0.0, 0.0])


def batch_of(rows):
    """A unit-norm batch from (class_id, origin, mutant, label) rows."""
    class_ids, origins, mutants, labels = zip(*rows)
    return EmbeddedBatch.from_rows(class_ids, labels, np.stack(origins), np.stack(mutants))


def rebuilt_batch(batch, x):
    """``batch`` with its rows replaced by ``x``, row i's origin then mutant;
    off-sphere rows are accepted, as finite-difference probes need."""
    dim = batch.origins.shape[1]
    pairs = x.reshape(len(batch), 2 * dim)
    return EmbeddedBatch(batch.class_ids, batch.labels, pairs[:, :dim], pairs[:, dim:])


def triplet(anchor, positive, negative, margin):
    """The one-triplet hinge as the two-row batch (a, p, 1), (a, n, 0)."""
    origins = np.stack([anchor, anchor])
    batch = EmbeddedBatch([0, 0], [1, 0], origins, np.stack([positive, negative]))
    return triplet_batch_loss(batch, margin)


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def relative_error(analytic, numeric):
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# --- 1: EMA closed form vs sequential folding --------------------------------


def test_criterion_1_ema_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        gamma = float(rng.uniform(1.0, 50.0))
        params = gamma
        current = float(rng.uniform())
        xs = rng.uniform(size=int(rng.integers(1, 65))).tolist()
        folded = current
        for x in xs:
            folded = ema_step(folded, x, params)
        worst = max(worst, abs(ema_batch(current, xs, params) - folded))
    report(1, worst <= 1e-12, f"1000 randomized EMA batches, max |closed - fold| = {worst:.2e}")


# --- 2: hand-derived loss fixtures --------------------------------------------


def test_criterion_2_loss_fixtures():
    registry = VergeRegistry(3.0)
    registry.update_class(7, pos_distances=(0.1,), neg_distances=(0.5,))
    cpl_out = cluster_purge_loss(
        batch_of(
            [
                (7, ORIGIN4, unit_at_distance(0.6), 1),
                (7, ORIGIN4, unit_at_distance(0.05), 0),
            ]
        ),
        registry,
        LossConfig(zeta=0.05, alpha=2.0, beta=0.5),
    )
    cfg = LossConfig(zeta=0.09)
    contrast_eq = contrastive_loss(batch_of([(0, ORIGIN4, unit_at_distance(0.3), 1)]), cfg)
    contrast_out = contrastive_loss(batch_of([(0, ORIGIN4, unit_at_distance(0.12), 0)]), cfg)
    contrast_in = contrastive_loss(batch_of([(0, ORIGIN4, unit_at_distance(0.02), 0)]), cfg)
    ce_uniform = cross_entropy(np.array([0.0, 0.0]), 1)
    ce_hand = cross_entropy(np.array([1.0, 3.0]), 1)
    joint = joint_loss(cpl_out.value, ce_uniform.value, 1.15)
    checks = [
        abs(cpl_out.value - 0.169364) <= 1e-6,
        abs(contrast_eq.value - 0.3) <= 1e-6,
        contrast_out.value == 0.0,
        abs(contrast_in.value - 0.07) <= 1e-6,
        abs(ce_uniform.value - 0.693147) <= 1e-6,
        abs(ce_hand.value - 0.126928) <= 1e-6,
        abs(joint - 0.887916) <= 1e-6,
    ]
    report(
        2,
        all(checks),
        f"cpl={cpl_out.value:.6f} contrastive=({contrast_eq.value:.2f},"
        f"{contrast_out.value:.2f},{contrast_in.value:.2f}) "
        f"ce=({ce_uniform.value:.6f},{ce_hand.value:.6f}) joint={joint:.6f}",
    )


# --- 3: gradient audit ----------------------------------------------------------


def _audit_cpl(rng, count):
    worst = 0.0
    done = 0
    while done < count:
        cfg = LossConfig(
            zeta=float(rng.uniform(-0.1, 0.1)),
            alpha=float(rng.uniform(1.2, 3.0)),
            beta=float(rng.uniform(0.3, 0.9)),
        )
        registry = VergeRegistry(float(rng.uniform(1.0, 20.0)))
        dim = int(rng.integers(4, 17))
        rows = []
        ok = True
        for i in range(int(rng.integers(2, 9))):
            o = random_unit(rng, dim)
            s = random_unit(rng, dim)
            label = int(rng.integers(0, 2))
            d = cosine_distance(o, s)
            verge = float(rng.uniform())
            arg = d - verge + cfg.zeta if label == 1 else verge - d + cfg.zeta
            if abs(arg) <= 1e-3:  # guard region excluded from the audit
                ok = False
                break
            if label == 1:
                registry.update_class(i, neg_distances=(verge,))
            else:
                registry.update_class(i, pos_distances=(verge,))
            rows.append((i, o, s, label))
        if not ok or not rows:
            continue
        done += 1
        batch = batch_of(rows)
        out = cluster_purge_loss(batch, registry, cfg)
        analytic = np.concatenate([out.origin_grads, out.mutant_grads], axis=1).ravel()
        flat = np.concatenate([batch.origins, batch.mutants], axis=1).ravel()

        def value_at(x, batch=batch, registry=registry, cfg=cfg):
            return cluster_purge_loss(rebuilt_batch(batch, x), registry, cfg).value

        numeric = finite_difference_gradient(value_at, flat, step=1e-6)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def _audit_contrastive_triplet_ce(rng, count):
    worst = 0.0
    done = 0
    while done < count:
        cfg = LossConfig(zeta=float(rng.uniform(0.02, 0.2)))
        dim = 5
        o = random_unit(rng, dim)
        s = random_unit(rng, dim)
        label = int(rng.integers(0, 2))
        d = cosine_distance(o, s)
        arg = d if label == 1 else cfg.zeta - d
        if abs(arg) <= 1e-3:
            continue
        done += 1
        batch = batch_of([(0, o, s, label)])
        out = contrastive_loss(batch, cfg)
        analytic = np.concatenate([out.origin_grads[0], out.mutant_grads[0]])

        def value_at(x, batch=batch, cfg=cfg):
            return contrastive_loss(rebuilt_batch(batch, x), cfg).value

        numeric = finite_difference_gradient(value_at, np.concatenate([o, s]), step=1e-6)
        worst = max(worst, relative_error(analytic, numeric))

    done = 0
    while done < count:
        a = random_unit(rng, 5)
        p = random_unit(rng, 5)
        n = random_unit(rng, 5)
        margin = float(rng.uniform(-0.2, 0.4))
        if abs(cosine_distance(a, p) - cosine_distance(a, n) + margin) <= 1e-3:
            continue
        done += 1
        out = triplet(a, p, n, margin)
        d_anchor = out.origin_grads[0] + out.origin_grads[1]
        analytic = np.concatenate([d_anchor, out.mutant_grads[0], out.mutant_grads[1]])
        numeric = finite_difference_gradient(
            lambda x, margin=margin: triplet(x[:5], x[5:10], x[10:], margin).value,
            np.concatenate([a, p, n]),
            step=1e-6,
        )
        worst = max(worst, relative_error(analytic, numeric))

    for _ in range(count):
        logits = rng.normal(scale=3.0, size=2)
        label = int(rng.integers(0, 2))
        out = cross_entropy(logits, label)
        numeric = finite_difference_gradient(
            lambda z, label=label: cross_entropy(z, label).value, logits, step=1e-6
        )
        worst = max(worst, relative_error(out.logit_grads, numeric))
    return worst


def _audit_composite(rng, count):
    """Joint CE + weighted purge loss through the whole encoder+head model."""
    dims = TrainConfig(feature_dim=8, hidden_dim=6, embed_dim=4, pair_hidden_dim=5)
    worst = 0.0
    for trial in range(count):
        params = init_flat_params(int(rng.integers(0, 2**31)), dims)
        enc, head = param_views(params, dims)
        cfg = LossConfig(zeta=float(rng.uniform(-0.05, 0.05)))
        m = 3
        f_o = rng.normal(size=(m, 8))
        f_s = rng.normal(size=(m, 8))
        labels = rng.integers(0, 2, size=m)

        # fixed verges chosen so every hinge argument clears the kink region
        registry = VergeRegistry(12.0)
        start = encode_batch(enc, f_o).embeddings, encode_batch(enc, f_s).embeddings
        for i in range(m):
            d = cosine_distance(start[0][i], start[1][i])
            arg = float(rng.uniform(0.005, 0.15)) * (1 if rng.integers(0, 2) else -1)
            if labels[i] == 1:
                verge = min(1.0, max(0.0, d + cfg.zeta - arg))
                registry.update_class(i, neg_distances=(verge,))
            else:
                verge = min(1.0, max(0.0, d - cfg.zeta + arg))
                registry.update_class(i, pos_distances=(verge,))

        def batch_from(origins, mutants):
            return EmbeddedBatch(np.arange(m), labels, origins, mutants)

        def loss_value():
            co = encode_batch(enc, f_o)
            cs = encode_batch(enc, f_s)
            pc = classify_pairs(head, co.embeddings, cs.embeddings)
            ce = sum(cross_entropy(pc.logits[i], int(labels[i])).value for i in range(m)) / m
            metric = cluster_purge_loss(
                batch_from(co.embeddings, cs.embeddings), registry, cfg
            ).value
            return joint_loss(metric, ce, cfg.lam)

        stacked = encode_batch(enc, np.concatenate([f_o, f_s]))
        co, cs = stacked.embeddings[:m], stacked.embeddings[m:]
        pc = classify_pairs(head, co, cs)
        d_logits = np.zeros((m, 2))
        for i in range(m):
            d_logits[i] = cross_entropy(pc.logits[i], int(labels[i])).logit_grads
        d_logits /= m
        analytic = np.zeros_like(params)
        segments = split_flat(analytic, dims)
        head_o, head_s = pair_backward(head, pc, d_logits, segments[4:])
        metric_out = cluster_purge_loss(batch_from(co, cs), registry, cfg)
        d_origins = head_o + cfg.lam * metric_out.origin_grads
        d_mutants = head_s + cfg.lam * metric_out.mutant_grads
        encoder_backward(enc, stacked, np.concatenate([d_origins, d_mutants]), segments[:4])
        step = 1e-6
        for k in range(params.size):
            keep = params[k]
            params[k] = keep + step
            f_hi = loss_value()
            params[k] = keep - step
            f_lo = loss_value()
            params[k] = keep
            numeric = (f_hi - f_lo) / (2.0 * step)
            a = analytic[k]
            worst = max(worst, abs(a - numeric) / max(1e-6, abs(a), abs(numeric)))
    return worst


def test_criterion_3_gradient_audit():
    rng = np.random.default_rng(300)
    worst_cpl = _audit_cpl(rng, 60)
    worst_other = _audit_contrastive_triplet_ce(rng, 50)
    worst_composite = _audit_composite(rng, 10)
    worst = max(worst_cpl, worst_other, worst_composite)
    report(
        3,
        worst < 1e-4,
        f"220 loss instances + 10 full-model audits, max relative error = {worst:.2e}",
    )


# --- 4: verge semantics -----------------------------------------------------------


def test_criterion_4_verge_semantics():
    rng = np.random.default_rng(400)
    worked = VergeRegistry(3.0).update_class(1, pos_distances=(0.3, 0.5))
    ok_worked = abs(worked.v_plus - 0.4) <= 1e-12

    ok_range = True
    ok_isolation = True
    ok_roundtrip = True
    for _ in range(300):
        registry = VergeRegistry(float(rng.uniform(1.0, 30.0)))
        frozen = {}
        for _ in range(int(rng.integers(1, 10))):
            cid = int(rng.integers(0, 4))
            pos = rng.uniform(size=rng.integers(0, 4)).tolist()
            neg = rng.uniform(size=rng.integers(0, 4)).tolist()
            before = {
                k: (s.v_plus, s.v_minus) for k, s in registry.states.items() if k != cid
            }
            registry.update_class(cid, pos, neg)
            for k, vals in before.items():
                state = registry.get(k)
                if (state.v_plus, state.v_minus) != vals:
                    ok_isolation = False
            frozen = registry.states
        for state in frozen.values():
            for v in (state.v_plus, state.v_minus):
                if v is not None and not 0.0 <= v <= 1.0:
                    ok_range = False
        restored = VergeRegistry.from_rows(registry.gamma, json.loads(json.dumps(registry.rows())))
        if set(restored.states) != set(registry.states):
            ok_roundtrip = False
        else:
            for cid, state in registry.states.items():
                other = restored.get(cid)
                if (other.v_plus, other.v_minus) != (state.v_plus, state.v_minus):
                    ok_roundtrip = False
    ok = ok_worked and ok_range and ok_isolation and ok_roundtrip
    report(
        4,
        ok,
        f"worked example v+={worked.v_plus}, range/isolation/round-trip over 300 "
        f"randomized registries: {ok_range}/{ok_isolation}/{ok_roundtrip}",
    )


# --- 5: embedding-structure effect --------------------------------------------------


def test_criterion_5_embedding_structure_effect():
    seed = 6  # frozen corpus/training seed
    corpus, table = generate_synthetic(
        "geometric", n_classes=8, per_class=40, equiv_fraction=0.5, seed=seed
    )
    base = train(
        TrainConfig(loss_kind="ce_only", epochs=30, seed=seed), FeatureCache.from_corpus(corpus, table)
    )
    purge = train(
        TrainConfig(loss_kind="ce_plus_cpl", epochs=30, seed=seed), FeatureCache.from_corpus(corpus, table)
    )
    stats_base = distance_stats(base.state, FeatureCache.from_corpus(corpus, table))
    stats_purge = distance_stats(purge.state, FeatureCache.from_corpus(corpus, table))
    _, noneq_purge = pair_distances(purge.state, FeatureCache.from_corpus(corpus, table))
    _, noneq_base = pair_distances(base.state, FeatureCache.from_corpus(corpus, table))
    test = permutation_pvalue(noneq_purge, noneq_base, resamples=10_000, seed=0)
    factor = stats_purge.ratio / stats_base.ratio
    ok = factor >= 1.5 and test.p_value < 0.01
    report(
        5,
        ok,
        f"ratio ce_only={stats_base.ratio:.3f} ce_plus_cpl={stats_purge.ratio:.3f} "
        f"factor={factor:.2f} (need >= 1.5), noneq-shift p={test.p_value:.5f} (need < 0.01)",
    )


# --- 6: classification effect ---------------------------------------------------------


def test_criterion_6_classification_effect():
    seeds = (0, 1, 2)  # frozen
    fraction = 0.25
    f1 = {"ce_only": [], "ce_plus_contrastive": [], "ce_plus_cpl": []}
    for seed in seeds:
        corpus, table = generate_synthetic(
            "geometric", n_classes=8, per_class=40, equiv_fraction=0.5, seed=seed
        )
        train_side, test_side = split(corpus, fraction, seed)
        for kind, lam, zeta in (
            ("ce_only", 1.15, -0.05),
            ("ce_plus_contrastive", 1.05, 0.09),
            ("ce_plus_cpl", 1.15, -0.05),
        ):
            config = with_loss(
                TrainConfig(loss_kind=kind, epochs=30, seed=seed), lam=lam, zeta=zeta
            )
            rep = evaluate(
                train(config, FeatureCache.from_corpus(train_side, table)).state,
                FeatureCache.from_corpus(test_side, table),
            )
            f1[kind].append(rep.f1 if rep.f1 is not None else 0.0)
    ce = float(np.mean(f1["ce_only"]))
    contrast = float(np.mean(f1["ce_plus_contrastive"]))
    purge = float(np.mean(f1["ce_plus_cpl"]))
    full_chain = purge >= contrast + 0.005 and contrast >= ce + 0.005
    degraded = purge >= ce + 0.01
    detail = (
        f"mean F1 over seeds {seeds} at split {fraction}: ce_only={ce:.4f} "
        f"ce_plus_contrastive={contrast:.4f} ce_plus_cpl={purge:.4f}"
    )
    if full_chain:
        report(6, True, detail + " | full ordering holds (each step >= 0.5 pp)")
    else:
        report(
            6,
            degraded,
            detail
            + f" | contrastive ordering failed; degraded check cpl-ce={100 * (purge - ce):+.2f}pp (need >= 1 pp)",
        )


# --- 7: sweep shape ----------------------------------------------------------------


def test_criterion_7_sweep_shape():
    corpus, table = generate_synthetic(
        "geometric", n_classes=4, per_class=8, seed=1, feature_dim=24
    )
    train_side, test_side = split(corpus, 0.5, seed=1)
    config = TrainConfig(
        epochs=2, seed=1, feature_dim=24, hidden_dim=12, embed_dim=8, pair_hidden_dim=6
    )
    cpl_lams = _parse_range("1.00:1.30:0.05")
    cpl_zetas = _parse_range("-0.06:0.01:0.01")
    grid = sweep(
        config,
        FeatureCache.from_corpus(train_side, table),
        FeatureCache.from_corpus(test_side, table),
        cpl_lams,
        cpl_zetas,
    )

    contrast_config = TrainConfig(
        loss_kind="ce_plus_contrastive",
        epochs=2, seed=1, feature_dim=24, hidden_dim=12, embed_dim=8, pair_hidden_dim=6,
    )
    contrast_zetas = _parse_range("0.03:0.18:0.03")
    contrast_grid = sweep(
        contrast_config,
        FeatureCache.from_corpus(train_side, table),
        FeatureCache.from_corpus(test_side, table),
        cpl_lams,
        contrast_zetas,
    )

    rerun_ok = True
    for i, j in ((2, 3), (6, 7)):
        cell = grid.cell(i, j)
        alone = sweep(
            config,
            FeatureCache.from_corpus(train_side, table),
            FeatureCache.from_corpus(test_side, table),
            [cell.lam],
            [cell.zeta],
        )
        if alone.cells[0].report != cell.report:
            rerun_ok = False
    ok = len(grid.cells) == 56 and len(contrast_grid.cells) == 42 and rerun_ok
    report(
        7,
        ok,
        f"cpl grid cells={len(grid.cells)} (need 56), contrastive cells="
        f"{len(contrast_grid.cells)} (need 42), isolated reruns bit-identical={rerun_ok}",
    )


# --- 8: determinism ----------------------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    def full_run(tag):
        base = tmp_path / tag
        assert run(["gen", "--out-dir", str(base / "data"), "--seed", "3"]) == 0
        assert (
            run(
                ["train", "--corpus", str(base / "data" / "corpus.tsv"),
                 "--features", str(base / "data" / "features.tsv"),
                 "--out-dir", str(base / "model"), "--seed", "3"]
            )
            == 0
        )
        assert (
            run(
                ["eval", "--checkpoint", str(base / "model" / "checkpoint.bin"),
                 "--corpus", str(base / "data" / "corpus.tsv"),
                 "--features", str(base / "data" / "features.tsv"),
                 "--out-dir", str(base / "eval")]
            )
            == 0
        )
        return (
            (base / "model" / "checkpoint.bin").read_bytes(),
            (base / "model" / "history.tsv").read_bytes(),
            (base / "eval" / "report.txt").read_bytes(),
        )

    first = full_run("a")
    second = full_run("b")
    identical = first == second

    data = tmp_path / "a" / "data"
    assert (
        run(
            ["train", "--corpus", str(data / "corpus.tsv"),
             "--features", str(data / "features.tsv"),
             "--out-dir", str(tmp_path / "half"), "--seed", "3", "--epochs", "15"]
        )
        == 0
    )
    assert (
        run(
            ["train", "--corpus", str(data / "corpus.tsv"),
             "--features", str(data / "features.tsv"),
             "--resume", str(tmp_path / "half" / "checkpoint.bin"),
             "--epochs", "30", "--out-dir", str(tmp_path / "resumed")]
        )
        == 0
    )
    resumed_equal = (tmp_path / "resumed" / "checkpoint.bin").read_bytes() == first[0]
    ok = identical and resumed_equal
    report(
        8,
        ok,
        f"two gen->train->eval runs byte-identical={identical}, "
        f"resume-at-epoch-15 equals straight 30-epoch run={resumed_equal}",
    )


# --- 9: preprocessing properties ------------------------------------------------------


def test_criterion_9_preprocessing_properties():
    rng = np.random.default_rng(900)

    ok_dedup = True
    ok_partition = True
    ok_stratify = True
    for _ in range(1000):
        n_eq = int(rng.integers(1, 25))
        n_ne = int(rng.integers(1, 25))
        records = [
            MutantRecord(0, "origin", f"eq-{rng.integers(0, 2 * n_eq)}", 1)
            for _ in range(n_eq)
        ] + [
            MutantRecord(0, "origin", f"ne-{rng.integers(0, 2 * n_ne)}", 0)
            for _ in range(n_ne)
        ]
        corpus = Corpus(records=records)
        once = dedup(corpus)
        if dedup(once).records != once.records or len(once) > len(corpus):
            ok_dedup = False
        fraction = float(rng.uniform(0.2, 0.8))
        train_side, test_side = split(corpus, fraction, seed=int(rng.integers(0, 2**31)))
        if sorted(
            (r.class_id, r.mutant_text, r.label) for r in train_side.records + test_side.records
        ) != sorted((r.class_id, r.mutant_text, r.label) for r in corpus.records):
            ok_partition = False
        got_eq = sum(r.label for r in train_side.records)
        got_ne = len(train_side) - got_eq
        if abs(got_eq - fraction * n_eq) > 1.0 or abs(got_ne - fraction * n_ne) > 1.0:
            ok_stratify = False

    profile = [MutantRecord(0, "o", f"eq-{i}", 1) for i in range(918)]
    profile += [MutantRecord(0, "o", f"ne-{i}", 0) for i in range(181)]
    train_side, test_side = split(Corpus(records=profile), 0.5, seed=0)
    eq_train = sum(r.label for r in train_side.records)
    ne_train = len(train_side) - eq_train
    ok_profile = abs(eq_train - 459) <= 1 and ne_train in (90, 91)

    ok = ok_dedup and ok_partition and ok_stratify and ok_profile
    report(
        9,
        ok,
        f"1000 randomized corpora: dedup idempotent={ok_dedup}, partition={ok_partition}, "
        f"stratified within 1={ok_stratify}; 918/181 profile (train {eq_train}/{ne_train})={ok_profile}",
    )
