import argparse
import hashlib
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from purgelab.cli import build_parser, run
from purgelab.data import FeatureCache, generate_synthetic, ingest, write_corpus
from purgelab.errors import ConfigError
from purgelab.trainer import CHECKPOINT_MAGIC, TrainConfig

SMALL_DIMS = [
    "--feature-dim", "24", "--hidden-dim", "12", "--embed-dim", "8", "--pair-hidden-dim", "6",
]


def gen_small(out_dir, seed=0):
    rc = run(
        ["gen", "--out-dir", str(out_dir), "--classes", "4", "--per-class", "8",
         "--seed", str(seed), "--feature-dim", "24"]
    )
    assert rc == 0
    return str(out_dir / "corpus.tsv"), str(out_dir / "features.tsv")


def train_small(out_dir, corpus, features, extra=()):
    """Train on ``corpus``, with hashed features when ``features`` is None."""
    table = [] if features is None else ["--features", features]
    rc = run(
        ["train", "--corpus", corpus, *table, "--out-dir", str(out_dir),
         "--epochs", "2", *SMALL_DIMS, *extra]
    )
    assert rc == 0
    return str(out_dir / "checkpoint.bin")


def test_gen_writes_corpus_features_manifest(tmp_path):
    corpus_path, features_path = gen_small(tmp_path / "data")
    assert os.path.exists(corpus_path)
    assert os.path.exists(features_path)
    manifest = (tmp_path / "data" / "manifest.txt").read_text()
    assert [line for line in manifest.splitlines() if line.startswith("command ")] == ["command = gen"]
    assert "seed = 0" in manifest
    assert len(ingest(corpus_path)) == 32


def test_gen_then_train_then_eval_end_to_end(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    assert os.path.exists(ckpt)
    assert os.path.exists(tmp_path / "run" / "history.tsv")
    rc = run(
        ["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
         "--out-dir", str(tmp_path / "eval")]
    )
    assert rc == 0
    report = (tmp_path / "eval" / "report.txt").read_text()
    assert "tp = " in report and "f1 = " in report


def test_history_lines_have_five_fields(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    train_small(tmp_path / "run", corpus, features)
    lines = (tmp_path / "run" / "history.tsv").read_text().splitlines()
    assert len(lines) == 2
    assert all(len(line.split("\t")) == 5 for line in lines)


# The training hyperparameter flags of train and sweep: (type, default).
TRAINING_FLAGS = {
    "--loss-kind": (str, "ce_plus_cpl"),
    "--gamma": (float, 12.0),
    "--alpha": (float, 2.0),
    "--beta": (float, 0.5),
    "--zeta": (float, -0.05),
    "--lambda": (float, 1.15),
    "--hinge-epsilon": (float, 1e-06),
    "--epochs": (int, 30),
    "--batch": (int, 4),
    "--feature-dim": (int, 256),
    "--hidden-dim": (int, 128),
    "--embed-dim": (int, 64),
    "--pair-hidden-dim": (int, 64),
    "--step-size": (float, 0.001),
    "--beta1": (float, 0.9),
    "--beta2": (float, 0.999),
    "--adam-epsilon": (float, 1e-08),
    "--seed": (int, 0),
}


def _subcommand_actions(name):
    parser = build_parser({})
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]._actions


def test_train_and_sweep_flags_are_pinned():
    options = {
        name: {o for a in _subcommand_actions(name) for o in a.option_strings}
        for name in ("train", "sweep")
    }
    assert options["train"] == {
        "-h", "--help", "--config", "--out-dir", "--corpus", "--features", "--resume", "--trace",
        "--loss-kind", "--gamma", "--alpha", "--beta", "--zeta", "--lambda", "--hinge-epsilon",
        "--epochs", "--batch", "--feature-dim", "--hidden-dim", "--embed-dim", "--pair-hidden-dim",
        "--step-size", "--beta1", "--beta2", "--adam-epsilon", "--seed",
    }
    assert options["sweep"] == {
        "-h", "--help", "--config", "--out-dir", "--train-corpus", "--test-corpus", "--features",
        "--lambda-range", "--zeta-range", "--workers",
        "--loss-kind", "--gamma", "--alpha", "--beta", "--zeta", "--lambda", "--hinge-epsilon",
        "--epochs", "--batch", "--feature-dim", "--hidden-dim", "--embed-dim", "--pair-hidden-dim",
        "--step-size", "--beta1", "--beta2", "--adam-epsilon", "--seed",
    }
    for name in ("train", "sweep"):
        flags = {
            a.option_strings[0]: a for a in _subcommand_actions(name)
            if a.option_strings[0] in TRAINING_FLAGS
        }
        assert {o: (a.type, a.default) for o, a in flags.items()} == TRAINING_FLAGS
        assert all(type(a.default) is a.type for a in flags.values())
        assert flags["--loss-kind"].choices == (
            "ce_only", "ce_plus_cpl", "ce_plus_contrastive", "ce_plus_triplet"
        )


def test_invalid_zeta_format_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    rc = run(["train", "--zeta", "not-a-number", "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_missing_input_exits_1(tmp_path):
    rc = run(["eval", "--checkpoint", str(tmp_path / "nope.bin"), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_domain_error_line_is_machine_parsable(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("3\t1\ta\tb\n3\t0\tDIFFERENT\tc\n")
    rc = run(["preprocess", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR SchemaError:")


def test_preprocess_dedups_and_splits(tmp_path):
    corpus, _ = generate_synthetic("geometric", n_classes=4, per_class=8, seed=1, feature_dim=24)
    # duplicate every record once
    corpus.records = corpus.records + corpus.records
    src = tmp_path / "raw.tsv"
    write_corpus(corpus, src)
    rc = run(["preprocess", "--input", str(src), "--fraction", "0.5", "--seed", "3",
              "--out-dir", str(tmp_path / "pp")])
    assert rc == 0
    train_side = ingest(tmp_path / "pp" / "train.tsv")
    test_side = ingest(tmp_path / "pp" / "test.tsv")
    assert len(train_side) + len(test_side) == 32  # duplicates removed
    assert abs(len(train_side) - 16) <= 2


def test_trace_writes_one_row_per_step_matching_history(tmp_path):
    # 32 records in batches of 5: 7 steps per epoch, the last one partial
    corpus, features = gen_small(tmp_path / "data")
    train_small(tmp_path / "run", corpus, features, extra=["--epochs", "3", "--batch", "5", "--trace"])
    steps = [line.split("\t") for line in (tmp_path / "run" / "steps.tsv").read_text().splitlines()]
    history = [line.split("\t") for line in (tmp_path / "run" / "history.tsv").read_text().splitlines()]
    assert len(history) == 3 and len(steps) == 3 * 7
    assert [int(row[0]) for row in steps] == list(range(21))
    for epoch, row in enumerate(history):
        rows = steps[7 * epoch : 7 * (epoch + 1)]
        for column in (1, 2, 3):
            total = 0.0
            for step in rows:
                total += float(step[column])
            assert repr(total / 7) == row[column]
        assert sum(int(step[4]) for step in rows) == int(row[4])


def test_train_eval_deterministic_across_runs(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    ckpt_a = train_small(tmp_path / "run_a", corpus, features)
    ckpt_b = train_small(tmp_path / "run_b", corpus, features)
    assert Path(ckpt_a).read_bytes() == Path(ckpt_b).read_bytes()
    hist_a = (tmp_path / "run_a" / "history.tsv").read_text()
    hist_b = (tmp_path / "run_b" / "history.tsv").read_text()
    assert hist_a == hist_b


def test_manifest_rerun_reproduces_outputs(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    train_small(tmp_path / "run_a", corpus, features, extra=["--zeta", "-0.03", "--seed", "5"])
    manifest = str(tmp_path / "run_a" / "manifest.txt")
    rc = run(["train", "--config", manifest, "--out-dir", str(tmp_path / "run_b")])
    assert rc == 0
    assert (
        (tmp_path / "run_a" / "checkpoint.bin").read_bytes()
        == (tmp_path / "run_b" / "checkpoint.bin").read_bytes()
    )
    assert (
        (tmp_path / "run_a" / "history.tsv").read_text()
        == (tmp_path / "run_b" / "history.tsv").read_text()
    )


def test_explicit_flag_overrides_manifest(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    train_small(tmp_path / "run_a", corpus, features, extra=["--epochs", "1"])
    manifest = str(tmp_path / "run_a" / "manifest.txt")
    rc = run(["train", "--config", manifest, "--epochs", "2", "--out-dir", str(tmp_path / "run_b")])
    assert rc == 0
    lines = (tmp_path / "run_b" / "history.tsv").read_text().splitlines()
    assert len(lines) == 2


def test_resume_matches_straight_run(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    train_small(tmp_path / "full", corpus, features, extra=["--epochs", "4"])
    train_small(tmp_path / "half", corpus, features, extra=["--epochs", "2"])
    rc = run(
        ["train", "--corpus", corpus, "--features", features,
         "--resume", str(tmp_path / "half" / "checkpoint.bin"),
         "--epochs", "4", "--out-dir", str(tmp_path / "resumed"), *SMALL_DIMS]
    )
    assert rc == 0
    assert (
        (tmp_path / "full" / "checkpoint.bin").read_bytes()
        == (tmp_path / "resumed" / "checkpoint.bin").read_bytes()
    )


def test_resume_takes_checkpoint_config_and_rejects_conflicting_flags(tmp_path, capsys):
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "half", corpus, features, extra=["--lambda", "1.0"])
    base = ["train", "--corpus", corpus, "--features", features, "--resume", ckpt, "--epochs", "3"]
    capsys.readouterr()

    # flags not given take the checkpoint's values, and the outputs say so
    assert run([*base, "--out-dir", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.startswith("train: ce_plus_cpl epoch 2 ")
    manifest = (tmp_path / "a" / "manifest.txt").read_text().splitlines()
    for line in ("loss_kind = ce_plus_cpl", "lam = 1.0", "hidden_dim = 12", "epochs = 3"):
        assert line in manifest

    # given flags that agree with the checkpoint change nothing
    rc = run([*base, "--lambda", "1.0", *SMALL_DIMS, "--out-dir", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "b" / "checkpoint.bin"
    ).read_bytes()

    # so does rerunning the resumed run from its manifest
    rc = run(["train", "--config", str(tmp_path / "a" / "manifest.txt"), "--out-dir", str(tmp_path / "c")])
    assert rc == 0
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "c" / "checkpoint.bin"
    ).read_bytes()

    # given flags that conflict with it are an error, and nothing is written
    for conflict in (["--loss-kind", "ce_only"], ["--lambda", "9"], ["--hidden-dim", "13"]):
        capsys.readouterr()
        rc = run([*base, *conflict, "--out-dir", str(tmp_path / "bad")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR ConfigError:")
        assert not (tmp_path / "bad").exists()


def test_sweep_grid_counts_and_table(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    pp = tmp_path / "pp"
    rc = run(["preprocess", "--input", corpus, "--out-dir", str(pp), "--seed", "0"])
    assert rc == 0
    rc = run(
        ["sweep", "--train-corpus", str(pp / "train.tsv"), "--test-corpus", str(pp / "test.tsv"),
         "--features", features, "--out-dir", str(tmp_path / "sweep"),
         "--lambda-range", "1.00:1.10:0.05", "--zeta-range=-0.02:0.00:0.01",
         "--epochs", "1", *SMALL_DIMS]
    )
    assert rc == 0
    rows = [
        line for line in (tmp_path / "sweep" / "sweep.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(rows) == 3 * 3
    matrix = (tmp_path / "sweep" / "sweep_matrix.txt").read_text()
    assert "best:" in matrix


def test_paper_grid_shapes(tmp_path):
    from purgelab.cli import _parse_range

    assert len(_parse_range("1.00:1.30:0.05")) == 7
    assert len(_parse_range("-0.06:0.01:0.01")) == 8
    assert len(_parse_range("0.03:0.18:0.03")) == 6


def test_stats_with_baseline(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    ckpt_a = train_small(tmp_path / "a", corpus, features, extra=["--loss-kind", "ce_plus_cpl"])
    ckpt_b = train_small(tmp_path / "b", corpus, features, extra=["--loss-kind", "ce_only"])
    rc = run(
        ["stats", "--checkpoint", ckpt_a, "--baseline", ckpt_b, "--corpus", corpus,
         "--features", features, "--resamples", "200", "--out-dir", str(tmp_path / "stats")]
    )
    assert rc == 0
    text = (tmp_path / "stats" / "stats.txt").read_text()
    assert "mean_noneq = " in text
    assert "p_value = " in text


def test_export_rows(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    rc = run(
        ["export", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
         "--classes", "1,2", "--out-dir", str(tmp_path / "exp")]
    )
    assert rc == 0
    lines = (tmp_path / "exp" / "embeddings.tsv").read_text().splitlines()
    assert len(lines) == 2 + 16  # 2 origins + 8 mutants per selected class
    assert all(line.split("\t")[0] in ("1", "2") for line in lines)


def test_commands_do_not_mutate_inputs(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    before = Path(corpus).read_bytes(), Path(features).read_bytes()
    train_small(tmp_path / "run", corpus, features)
    after = Path(corpus).read_bytes(), Path(features).read_bytes()
    assert before == after


def test_corrupt_checkpoint_never_escapes_eval(tmp_path, capsys):
    # Seeded fuzz over a tiny checkpoint: truncations and single-bit flips.
    # eval exits 1 with an error line on every one of them.
    data = tmp_path / "data"
    rc = run(["gen", "--out-dir", str(data), "--classes", "2", "--per-class", "4",
              "--feature-dim", "16"])
    assert rc == 0
    ckpt = train_small(
        tmp_path / "run", str(data / "corpus.tsv"), str(data / "features.tsv"),
        extra=["--feature-dim", "16", "--hidden-dim", "8", "--embed-dim", "4",
               "--pair-hidden-dim", "4", "--epochs", "1"],
    )
    raw = Path(ckpt).read_bytes()
    rng = np.random.default_rng(2024)
    cases = [raw[:n] for n in [0, 13, 17, len(raw) - 1, *rng.integers(0, len(raw), 40)]]
    for bit in rng.integers(0, 8 * len(raw), 200):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases.append(bytes(flipped))
    bad = tmp_path / "bad.bin"
    outcomes = {0: 0, 1: 0}
    for case in cases:
        bad.write_bytes(case)
        capsys.readouterr()
        rc = run(["eval", "--checkpoint", str(bad), "--corpus", str(data / "corpus.tsv"),
                  "--features", str(data / "features.tsv"), "--out-dir", str(tmp_path / "eval")])
        assert rc in outcomes
        outcomes[rc] += 1
        if rc == 1:
            assert re.match(r"ERROR \w+: ", capsys.readouterr().err)
    assert outcomes == {0: 0, 1: len(cases)}


def forge_meta(ckpt, updates, out):
    """Write ``ckpt`` to ``out`` with its metadata updated by ``updates`` and a
    recomputed sha256 trailer, so only the metadata checks can reject it."""
    raw = Path(ckpt).read_bytes()
    start = len(CHECKPOINT_MAGIC)
    version, meta_len = struct.unpack_from("<II", raw, start)
    meta = json.loads(raw[start + 8 : start + 8 + meta_len])
    meta.update(updates)
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        raw[:start] + struct.pack("<II", version, len(meta_b)) + meta_b
        + raw[start + 8 + meta_len : -32]
    )
    out.write_bytes(body + hashlib.sha256(body).digest())
    return str(out)


@pytest.mark.parametrize("updates", [
    {"verges": [[0, math.nan, 0.5]]},
    {"verges": [[0, 5.0, None]]},
    {"verges": [[0.5, 0.1, 0.2]]},
    {"verges": [[True, 0.1, 0.2]]},
    {"verges": [[-1, 0.1, 0.2]]},
    {"verges": [[0, 0.1]]},
    {"adam_t": -1},
    {"adam_t": 2.7},
    {"adam_t": True},
    {"epoch": 1.9},
], ids=lambda updates: json.dumps(updates))
def test_forged_checkpoint_metadata_exits_1(tmp_path, capsys, updates):
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    forged = forge_meta(ckpt, updates, tmp_path / "forged.bin")
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", forged], ["train", "--resume", forged, "--epochs", "3"]):
        capsys.readouterr()
        rc = run([*argv, "--corpus", corpus, "--features", features, "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR DeserializeError: ")
        assert not out.exists()


def _corrupt_features(path, text):
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(" ", 1)[0] + f" {text}\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("name, corrupt, error", [
    pytest.param("features", lambda p: p.write_text(p.read_text().replace("table 1 24", "table 1 abc")),
                 "ParseError", id="feature-table-dim-not-integer"),
    pytest.param("features", lambda p: _corrupt_features(p, "nan"), "ParseError", id="feature-nan"),
    pytest.param("features", lambda p: _corrupt_features(p, "-inf"), "ParseError", id="feature-inf"),
    pytest.param("features", lambda p: p.write_bytes(p.read_bytes() + b"\xff\n"), "ParseError",
                 id="feature-table-not-utf8"),
    pytest.param("corpus", lambda p: p.write_bytes(p.read_bytes() + b"0\t1\ta\xff\tb\n"), "ParseError",
                 id="corpus-not-utf8"),
    pytest.param("config", lambda p: p.write_bytes(b"corpus = \xff\n"), "ConfigError", id="config-not-utf8"),
    pytest.param("config", lambda p: p.write_text("out_dir = a\nout_dir = a\n"), "ConfigError",
                 id="config-repeated-key"),
    pytest.param("features", lambda p: p.write_text(p.read_text() + p.read_text().splitlines()[1] + "\n"),
                 "ParseError", id="feature-table-repeated-key"),
    pytest.param("corpus", lambda p: p.write_bytes(b""), "ConfigError", id="eval-empty-corpus"),
    pytest.param("train_corpus", lambda p: p.write_bytes(b""), "ConfigError",
                 id="sweep-empty-train-corpus"),
    pytest.param("test_corpus", lambda p: p.write_bytes(b""), "ConfigError",
                 id="sweep-empty-test-corpus"),
])
def test_malformed_input_exits_1_with_error_line(tmp_path, capsys, name, corrupt, error):
    # eval reads --corpus; sweep reads copies of it as its train and test corpora
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    config = tmp_path / "config.txt"
    config.write_text("")
    sides = {side: tmp_path / f"{side}.tsv" for side in ("train_corpus", "test_corpus")}
    for path in sides.values():
        path.write_bytes(Path(corpus).read_bytes())
    corrupt({"features": Path(features), "corpus": Path(corpus), "config": config, **sides}[name])
    common = ["--features", features, "--config", str(config), "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    if name in sides:
        rc = run(["sweep", "--train-corpus", str(sides["train_corpus"]),
                  "--test-corpus", str(sides["test_corpus"]), "--lambda-range", "1:1:1",
                  "--zeta-range", "0:0:1", "--epochs", "1", *SMALL_DIMS, *common])
    else:
        rc = run(["eval", "--checkpoint", ckpt, "--corpus", corpus, *common])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"ERROR {error}: ")


@pytest.mark.parametrize("command, flags", [
    pytest.param("export", [], id="export-empty-corpus"),
    pytest.param("stats", [], id="stats-empty-corpus"),
    pytest.param("train", ["--step-size", "inf"], id="step-size-inf"),
    pytest.param("train", ["--adam-epsilon", "inf"], id="adam-epsilon-inf"),
    pytest.param("train", ["--alpha", "nan"], id="alpha-nan"),
    pytest.param("train", ["--beta", "nan"], id="beta-nan"),
    pytest.param("train", ["--lambda", "nan"], id="lambda-nan"),
    pytest.param("sweep", ["--step-size", "inf"], id="sweep-step-size-inf"),
    pytest.param("train", ["--hidden-dim", "0"], id="hidden-dim-0"),
    pytest.param("sweep", ["--embed-dim", "0"], id="sweep-embed-dim-0"),
    pytest.param("sweep", ["--workers", "-3"], id="sweep-workers-negative"),
    pytest.param("gen", ["--noise", "nan"], id="gen-noise-nan"),
    pytest.param("gen", ["--noise", "inf"], id="gen-noise-inf"),
    # codegen corpora have no feature table and no geometric scatter
    pytest.param("gen", ["--mode", "codegen", "--noise", "5"], id="gen-codegen-noise"),
    pytest.param("gen", ["--mode", "codegen", "--feature-dim", "7"], id="gen-codegen-feature-dim"),
    # 1e10 records: rejected by the product alone, before anything is generated
    pytest.param("gen", ["--classes", "100000", "--per-class", "100000"], id="gen-too-many-records"),
    pytest.param("gen", ["--seed", "-1"], id="gen-negative-seed"),
    pytest.param("preprocess", ["--seed", "-1"], id="preprocess-negative-seed"),
    pytest.param("preprocess", ["--fraction", "2"], id="preprocess-fraction-2"),
    # a missing checkpoint and corpus, so a parse made after loading them
    # would surface as FileNotFoundError instead
    pytest.param("export", ["--checkpoint", "{missing}", "--corpus", "{missing}", "--classes", "abc"],
                 id="export-bad-classes"),
])
def test_bad_value_exits_1_before_featurizing(tmp_path, capsys, command, flags):
    # train, sweep and preprocess get missing corpora, so a check made after
    # reading one would surface as FileNotFoundError instead
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    empty, missing = tmp_path / "empty.tsv", str(tmp_path / "missing.tsv")
    empty.write_bytes(b"")
    inputs = {
        "export": ["--checkpoint", ckpt, "--corpus", str(empty), "--features", features],
        "stats": ["--checkpoint", ckpt, "--corpus", str(empty), "--features", features],
        "train": ["--corpus", missing],
        "sweep": ["--train-corpus", missing, "--test-corpus", missing],
        "gen": [],
        "preprocess": ["--input", missing],
    }[command]
    flags = [flag.format(missing=missing) for flag in flags]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run([command, *inputs, *flags, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR ConfigError: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    pytest.param(["--baseline", "{base}", "--stats-seed", "-1"], "stats_seed must be >= 0, got -1",
                 id="negative-seed"),
    pytest.param(["--baseline", "{base}", "--resamples", "0"], "resamples must be >= 1, got 0",
                 id="zero-resamples"),
    pytest.param(["--baseline", "{base16}"], "baseline feature_dim 16 is not the checkpoint's 24",
                 id="baseline-feature-dim"),
    pytest.param(["--resamples", "50"], "resamples = 50 has no effect without --baseline",
                 id="resamples-without-baseline"),
    pytest.param(["--stats-seed", "3"], "stats_seed = 3 has no effect without --baseline",
                 id="seed-without-baseline"),
])
def test_stats_checks_flags_before_reading_the_corpus(tmp_path, capsys, flags, error):
    # The corpus is missing, so a check made after reading it would surface
    # as FileNotFoundError instead.
    data = tmp_path / "data"
    assert run(["gen", "--mode", "codegen", "--classes", "2", "--per-class", "4",
                "--out-dir", str(data)]) == 0
    corpus = str(data / "corpus.tsv")
    ckpt = train_small(tmp_path / "run", corpus, features=None)
    base16 = train_small(tmp_path / "run16", corpus, features=None,
                         extra=["--feature-dim", "16", "--epochs", "1"])
    flags = [flag.format(base=ckpt, base16=base16) for flag in flags]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(["stats", "--checkpoint", ckpt, "--corpus", str(tmp_path / "missing.tsv"), *flags,
              "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR ConfigError: {error}\n"
    assert not out.exists()


def test_stats_manifest_without_baseline_replays_with_config(tmp_path):
    # the manifest echoes the default --resamples and --stats-seed
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["stats", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
                "--out-dir", str(first)]) == 0
    assert run(["stats", "--config", str(first / "manifest.txt"), "--out-dir", str(again)]) == 0
    assert (again / "stats.txt").read_bytes() == (first / "stats.txt").read_bytes()


@pytest.mark.parametrize("line", [
    "gamma = abc", "epochs = 1.5", "trace = abc", "trace = 2",
    # a key must name a flag of train, and command must name train itself
    "command = eval", "bogus = 7", "classes = 99",
])
def test_bad_config_value_exits_2_like_the_flag(tmp_path, capsys, line):
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    rc = run(["train", "--config", str(config), "--out-dir", str(out)])
    assert rc == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_export_manifest_replays_with_config(tmp_path):
    # an export manifest holds "classes = " (all classes), which gen's integer
    # --classes must not try to parse
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["export", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
                "--out-dir", str(first)]) == 0
    assert run(["export", "--config", str(first / "manifest.txt"), "--out-dir", str(again)]) == 0
    assert (again / "embeddings.tsv").read_bytes() == (first / "embeddings.tsv").read_bytes()


def test_codegen_gen_manifest_replays_with_config(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["gen", "--mode", "codegen", "--classes", "2", "--per-class", "4",
                "--out-dir", str(first)]) == 0
    assert run(["gen", "--config", str(first / "manifest.txt"), "--out-dir", str(again)]) == 0
    assert (again / "corpus.tsv").read_bytes() == (first / "corpus.tsv").read_bytes()
    assert not (again / "features.tsv").exists()


def sweep_args(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    pp = tmp_path / "pp"
    assert run(["preprocess", "--input", corpus, "--out-dir", str(pp), "--seed", "0"]) == 0
    return ["sweep", "--train-corpus", str(pp / "train.tsv"), "--test-corpus", str(pp / "test.tsv"),
            "--features", features, "--epochs", "1", *SMALL_DIMS]


@pytest.mark.parametrize("bad_ranges", [
    ["--lambda-range=nan:nan:1"],
    ["--lambda-range=0:inf:1"],
    ["--zeta-range=-inf:0:0.01"],
    ["--lambda-range=1:2:nan"],
    ["--lambda-range=1:2:1e-300"],  # 1e300 values
    ["--zeta-range=-1e308:1e308:1"],  # the span overflows to inf
    ["--lambda-range=0:1:0.0001"],  # 10,001 values, one over the cap
    ["--lambda-range=0:55:1", "--zeta-range=0:199:1"],  # 56 x 200 cells
])
def test_sweep_rejects_non_finite_and_oversized_ranges(tmp_path, capsys, bad_ranges):
    args = sweep_args(tmp_path)
    capsys.readouterr()
    rc = run([*args, *bad_ranges, "--out-dir", str(tmp_path / "sweep")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR ConfigError:")
    assert not (tmp_path / "sweep").exists()


def test_sweep_records_any_cell_error_and_continues(tmp_path):
    # lambda = -0.5 is an invalid loss config for its cell alone
    args = sweep_args(tmp_path)
    out = tmp_path / "sweep"
    rc = run([*args, "--lambda-range=-0.5:0.5:0.5", "--zeta-range=0:0:1", "--out-dir", str(out)])
    assert rc == 0
    rows = [line.split("\t") for line in (out / "sweep.tsv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["-0.5", "0.0", "0.5"]
    assert rows[0][4] == "none"
    assert all(r[4] != "none" for r in rows[1:])
    errors = (out / "sweep_errors.txt").read_text().splitlines()
    assert len(errors) == 1 and errors[0].startswith("-0.5\t0.0\tConfigError: ")
    matrix = (out / "sweep_matrix.txt").read_text().splitlines()
    assert matrix[2].split("|")[1].strip() == "ConfigError"


def test_sweep_workers_clamped_to_cells_and_cpus(monkeypatch):
    from purgelab import evaluation

    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 8)
    cases = {(1, 56): 1, (2, 56): 2, (64, 56): 8, (64, 3): 3}
    assert {k: evaluation.sweep_workers(*k) for k in cases} == cases
    for requested in (0, -4):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            evaluation.sweep_workers(requested, 5)
    corpus, table = generate_synthetic("geometric", n_classes=2, per_class=4, feature_dim=16)
    data = FeatureCache.from_corpus(corpus, table)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        evaluation.sweep(TrainConfig(feature_dim=16), data, data, [1.0], [0.0], workers=0)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: None)
    assert evaluation.sweep_workers(4, 10) == 1


def test_stats_and_sweep_featurize_each_corpus_once(tmp_path, monkeypatch):
    corpus, features = gen_small(tmp_path / "data")
    ckpt_a = train_small(tmp_path / "a", corpus, features, extra=["--loss-kind", "ce_plus_cpl"])
    ckpt_b = train_small(tmp_path / "b", corpus, features, extra=["--loss-kind", "ce_only"])
    args = sweep_args(tmp_path)
    built = []
    from_corpus = FeatureCache.from_corpus.__func__

    def counting(cls, corpus, provider):
        built.append(len(corpus))
        return from_corpus(cls, corpus, provider)

    monkeypatch.setattr(FeatureCache, "from_corpus", classmethod(counting))
    rc = run(["stats", "--checkpoint", ckpt_a, "--baseline", ckpt_b, "--corpus", corpus,
              "--features", features, "--resamples", "50", "--out-dir", str(tmp_path / "stats")])
    assert rc == 0
    assert built == [32]
    built.clear()
    rc = run([*args, "--lambda-range=1.0:1.1:0.05", "--zeta-range=0:0.01:0.01",
              "--out-dir", str(tmp_path / "sweep")])
    assert rc == 0
    assert len(built) == 2  # the train and the test corpus, for all 6 cells


# sha256 of the outputs of one small geometric train + eval. A refactor that
# must not move float bits keeps these; a change that does move them says so
# and re-pins them.
PINNED_DIGESTS = {
    "history.tsv": "cc3bd306eef48571f83c24689d7b485ad8e28231ca4e54e99690acdd8b85d14f",
    "report.txt": "65ceb3e74e73f6bf459be75bfe018722f3b4137e9fd7bb6e6bd81928f72bff2b",
}


def test_small_train_eval_outputs_are_pinned(tmp_path):
    corpus, features = gen_small(tmp_path / "data", seed=3)
    ckpt = train_small(tmp_path / "run", corpus, features, extra=["--epochs", "3", "--seed", "3"])
    rc = run(["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
              "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS
