import argparse
import builtins
import errno
import hashlib
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from purgelab import cli, evaluation, trainer
from purgelab.cli import build_parser, run
from purgelab.data import FeatureCache, generate_synthetic, ingest, write_corpus
from purgelab.errors import ConfigError
from purgelab.trainer import CHECKPOINT_MAGIC, LOSS_KINDS, TrainConfig, load_checkpoint

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
    parser = build_parser()
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

    # so is a conflicting value that only the --config file gives
    config = tmp_path / "lam.txt"
    config.write_text("lam = 9.0\n")
    capsys.readouterr()
    rc = run([*base, "--config", str(config), "--out-dir", str(tmp_path / "bad")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR ConfigError: lam = 9.0 conflicts")
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


def test_export_unknown_class_keeps_an_existing_file(tmp_path, capsys):
    # export writes rows as they are made, so the class check must come before
    # the output file is opened
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    args = ["export", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
            "--out-dir", str(tmp_path / "exp")]
    assert run(args) == 0
    good = (tmp_path / "exp" / "embeddings.tsv").read_bytes()
    capsys.readouterr()
    assert run([*args, "--classes", "1,99"]) == 1
    assert capsys.readouterr().err.startswith("ERROR UnknownClassError: ")
    assert (tmp_path / "exp" / "embeddings.tsv").read_bytes() == good


def test_ctrl_c_exits_130_with_an_error_line(monkeypatch, capsys):
    import purgelab.cli as cli

    def interrupted(ns):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_gen", interrupted)
    assert run(["gen"]) == 130
    assert capsys.readouterr().err == "ERROR KeyboardInterrupt: interrupted\n"


def _cell_dying_above_lambda_1_05(base_config, train_data, test_data, lam, zeta):
    # A sweep worker that dies the way the OOM killer or a segfault ends it.
    if lam > 1.05:
        os._exit(3)
    return _REAL_RUN_CELL(base_config, train_data, test_data, lam, zeta)


_REAL_RUN_CELL = evaluation._run_cell


def test_a_dead_sweep_worker_exits_1_with_an_error_line(tmp_path, monkeypatch, capsys):
    corpus, features = gen_small(tmp_path / "data")
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "_run_cell", _cell_dying_above_lambda_1_05)
    rc = run(["sweep", "--train-corpus", corpus, "--test-corpus", corpus, "--features", features,
              "--out-dir", str(tmp_path / "sweep"), "--lambda-range", "1.00:1.10:0.10",
              "--zeta-range=0:0:0.01", "--epochs", "1", "--workers", "2", *SMALL_DIMS])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR BrokenProcessPool: ")


def test_out_of_memory_exits_1_with_an_error_line(tmp_path, monkeypatch, capsys):
    corpus, features = gen_small(tmp_path / "data")
    capsys.readouterr()

    def too_big(seed, config):
        raise MemoryError("Unable to allocate 239. GiB for an array with shape (32000000000,)")

    monkeypatch.setattr(trainer, "init_flat_params", too_big)
    rc = run(["train", "--corpus", corpus, "--features", features, *SMALL_DIMS,
              "--hidden-dim", "100000000", "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "ERROR MemoryError: Unable to allocate 239. GiB for an array with shape (32000000000,)\n"
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["train-trace", "sweep-errors", "gen-features"])
def test_a_run_removes_the_optional_outputs_it_did_not_write(tmp_path, case):
    # The second run into the same directory does not write ``name``, so an
    # old copy would pair the first run's file with the second run's manifest.
    if case == "train-trace":
        corpus, features = gen_small(tmp_path / "data")
        first = ["train", "--corpus", corpus, "--features", features, "--epochs", "1", *SMALL_DIMS]
        first, second, name = [*first, "--trace"], [*first, "--seed", "3"], "steps.tsv"
    elif case == "sweep-errors":
        args = sweep_args(tmp_path)  # lambda = -0.5 fails its cell
        first, second = ([*args, f"--lambda-range={r}", "--zeta-range=0:0:1"] for r in ("-0.5:0.5:0.5", "0.5:0.5:1"))
        name = "sweep_errors.txt"
    else:
        first = ["gen", "--classes", "4", "--per-class", "8", "--feature-dim", "24"]
        second = ["gen", "--mode", "codegen", "--classes", "4", "--per-class", "8"]
        name = "features.tsv"
    out = tmp_path / "out"
    assert run([*first, "--out-dir", str(out)]) == 0
    assert (out / name).exists()
    assert run([*second, "--out-dir", str(out)]) == 0
    assert not (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert {"train-trace": "trace = 0\n", "sweep-errors": "lambda_range = 0.5:0.5:1\n",
            "gen-features": "mode = codegen\n"}[case] in manifest


def _fail_third_write(monkeypatch, error):
    """Make the third write to each file opened for writing raise ``error``."""
    real_open = builtins.open

    class Failing:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise error
            return self.fh.write(data)

        def writelines(self, chunks):
            for chunk in chunks:
                self.write(chunk)

    def patched(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Failing(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", patched)


@pytest.mark.parametrize("error, rc, line", [
    pytest.param(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 1, "ERROR OSError: ", id="ENOSPC"),
    pytest.param(KeyboardInterrupt(), 130, "ERROR KeyboardInterrupt: ", id="KeyboardInterrupt"),
])
def test_failed_in_place_resume_keeps_the_old_checkpoint(tmp_path, monkeypatch, capsys, error, rc, line):
    corpus, features = gen_small(tmp_path / "data")
    run_dir = tmp_path / "run"
    ckpt = train_small(run_dir, corpus, features)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _fail_third_write(patch, error)
        assert run(["train", "--resume", ckpt, "--epochs", "3", "--corpus", corpus, "--features", features,
                    "--out-dir", str(run_dir)]) == rc
    assert capsys.readouterr().err.startswith(line)
    # the same files with the same bytes: no temporary file is left behind
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert load_checkpoint(ckpt).epoch == 2


def test_a_run_failing_after_its_first_output_leaves_no_old_manifest(tmp_path, monkeypatch, capsys):
    # The seed-3 checkpoint replaces the seed-0 one, then the history write
    # fails: a manifest saying seed = 0 would describe a mix of two runs.
    import purgelab.cli as cli

    corpus, features = gen_small(tmp_path / "data")
    run_dir = tmp_path / "run"
    ckpt = train_small(run_dir, corpus, features)
    old_history = (run_dir / "history.tsv").read_bytes()
    real = cli.write_file

    def write_file(chunks, path):
        if os.path.basename(path) == "history.tsv":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real(chunks, path)

    monkeypatch.setattr(cli, "write_file", write_file)
    capsys.readouterr()
    assert run(["train", "--corpus", corpus, "--features", features, "--out-dir", str(run_dir),
                "--epochs", "2", *SMALL_DIMS, "--seed", "3"]) == 1
    assert capsys.readouterr().err.startswith("ERROR OSError: ")
    assert load_checkpoint(ckpt).config.seed == 3
    assert (run_dir / "history.tsv").read_bytes() == old_history
    assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint.bin", "history.tsv"]


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


# Extreme but valid values of the float training flags.
EXTREME_FLOATS = {
    "--alpha": ["1e-300", "400", "1e300"],
    "--beta": ["1e-300", "400", "1e300"],
    "--zeta": ["-1e300", "10", "1e300"],
    "--lambda": ["0", "1e300"],
    "--gamma": ["1", "1e300"],
    "--step-size": ["1e-300", "1e300"],
    "--adam-epsilon": ["1e-300", "1e300"],
    "--hinge-epsilon": ["1e-300", "0.001"],
}


def test_extreme_training_floats_never_escape(tmp_path, capsys):
    # Seeded draws of extreme flag values, 10 per loss kind: each train exits
    # 0, or 1 with one error line, never with a traceback.
    corpus, features = gen_small(tmp_path / "data")
    rng = np.random.default_rng(18)
    outcomes = {0: 0, 1: 0}
    with np.errstate(all="ignore"):
        for case in range(40):
            flags = [f"{flag}={rng.choice(values)}" for flag, values in EXTREME_FLOATS.items()
                     if rng.random() < 0.5]
            capsys.readouterr()
            rc = run(["train", "--corpus", corpus, "--features", features, "--out-dir", str(tmp_path / "run"),
                      "--epochs", "2", *SMALL_DIMS, "--loss-kind", LOSS_KINDS[case % 4], *flags])
            err = capsys.readouterr().err
            outcomes[rc] += 1
            assert re.fullmatch(r"ERROR \w+: .+\n" if rc else "", err), (flags, err)
        assert outcomes[0] and outcomes[1]
        # the zeta = 9.9 cell overflows 400th powers; the other one keeps its F1
        args = [*sweep_args(tmp_path), "--alpha", "400", "--lambda-range", "1:1:1", "--epochs", "3"]
        alone, both = tmp_path / "alone", tmp_path / "both"
        assert run([*args, "--zeta-range=-0.05:-0.05:1", "--out-dir", str(alone)]) == 0
        assert run([*args, "--zeta-range=-0.05:10:9.95", "--out-dir", str(both)]) == 0
    good = (alone / "sweep.tsv").read_text().splitlines()[1]
    assert good.split("\t")[4] != "none"
    assert (both / "sweep.tsv").read_text().splitlines()[1:] == [good, "1.0\t9.9\tnone\tnone\tnone"]
    error = (both / "sweep_errors.txt").read_text()
    assert error.startswith("1.0\t9.9\tDivergenceError: numeric divergence: step overflowed ")


# Tokens the input fuzz inserts: separators, escapes, values the parsers
# special-case, and bytes that are not UTF-8 or end a C string.
FUZZ_TOKENS = [b"\t", b"\n", b"\r", b"\\", b"=", b" ", b"#", b"-1", b"nan", b"1e999", b"none", b"\x00",
               b"\xff", b"\xc3"]


def _fuzzed(raw, rng, per_kind=12):
    """Seeded byte flips, truncations, inserted tokens and duplicated lines of ``raw``."""
    for _ in range(per_kind):
        bit = int(rng.integers(0, 8 * len(raw)))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
        yield raw[: int(rng.integers(0, len(raw)))]
        at = int(rng.integers(0, len(raw) + 1))
        yield raw[:at] + FUZZ_TOKENS[int(rng.integers(0, len(FUZZ_TOKENS)))] + raw[at:]
        lines = raw.splitlines(keepends=True)
        line = lines[int(rng.integers(0, len(lines)))]
        lines.insert(int(rng.integers(0, len(lines) + 1)), line)
        yield b"".join(lines)


def test_fuzzed_corpus_table_and_config_never_escape(tmp_path, monkeypatch, capsys):
    # Relative paths, so a fuzzed --config path stays under tmp_path; a
    # one-bit flip cannot turn their first letters into "/".
    monkeypatch.chdir(tmp_path)
    corpus, features = gen_small(Path("data"))
    ckpt = train_small(Path("run"), corpus, features)
    good = {name: Path(name).read_bytes() for name in (corpus, features)}
    Path("eval.txt").write_text(
        f"command = eval\ncheckpoint = {ckpt}\ncorpus = {corpus}\nfeatures = {features}\nout_dir = eval\n"
    )
    good["eval.txt"] = Path("eval.txt").read_bytes()
    runs = {
        corpus: [["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features],
                 ["eval", "--checkpoint", ckpt, "--corpus", corpus],
                 ["preprocess", "--input", corpus]],
        features: [["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features]],
        "eval.txt": [["eval", "--config", "eval.txt"]],
    }
    rng = np.random.default_rng(17)
    outcomes = {0: 0, 1: 0, 2: 0}
    for name, argvs in runs.items():
        for case in _fuzzed(good[name], rng):
            Path(name).write_bytes(case)
            for argv in argvs:
                capsys.readouterr()
                rc = run(argv if name == "eval.txt" else [*argv, "--out-dir", "out"])
                err = capsys.readouterr().err
                assert rc in outcomes, (name, case, argv)
                assert "Traceback" not in err
                if rc == 1:
                    assert re.match(r"ERROR \w+: ", err), (name, case, err)
                outcomes[rc] += 1
        Path(name).write_bytes(good[name])
    assert all(outcomes.values()), outcomes


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
    # finite, but a geometric point's norm would overflow
    pytest.param("gen", ["--noise", "1e300"], id="gen-noise-overflow"),
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
    # a config file cannot name another config file
    "config = other.txt",
    # argparse checks choices only on the command line
    "loss_kind = bogus",
    # "none" is None only for a flag whose default is None
    "gamma = none", "trace = none",
])
def test_bad_config_value_exits_2_like_the_flag(tmp_path, capsys, line):
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    rc = run(["train", "--config", str(config), "--out-dir", str(out)])
    assert rc == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_config_mode_outside_choices_exits_2(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("mode = bogus\n")
    rc = run(["gen", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "argument --mode: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "preprocess", "train", "eval", "sweep", "stats", "export"])
def test_config_of_every_default_parses_like_no_config(tmp_path, monkeypatch, command):
    # every flag's built-in default, written as a manifest writes it, parses
    # back to the same value through --config
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda ns: seen.append(ns) or 0)
    assert run([command]) == 0
    bare = vars(seen.pop())
    keys = sorted(set(bare) - {"command", "config", "func", "given"})
    config = tmp_path / "config.txt"
    config.write_text("".join(f"{key} = {cli._fmt(bare[key])}\n" for key in keys))
    assert run([command, "--config", str(config)]) == 0
    again = vars(seen.pop())
    assert again.pop("given") == {"config", *keys} and bare.pop("given") == frozenset()
    assert again.pop("config") == str(config) and bare.pop("config") is None
    assert again == bare
    if command == "train":  # every flag type: int, float, str, None and store-true
        assert {type(bare[key]) for key in keys} == {int, float, str, type(None), bool}


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
    first, other = tmp_path / "first", tmp_path / "other"
    assert run(["gen", "--mode", "codegen", "--classes", "2", "--per-class", "4",
                "--out-dir", str(first)]) == 0
    assert run(["gen", "--per-class", "8", "--out-dir", str(other)]) == 0
    manifest, other_manifest = str(first / "manifest.txt"), str(other / "manifest.txt")
    # argparse takes --conf for --config and keeps the last of a repeated flag
    for i, config in enumerate([["--config", manifest], ["--conf", manifest],
                                ["--config", other_manifest, "--config", manifest]]):
        again = tmp_path / f"again{i}"
        assert run(["gen", *config, "--out-dir", str(again)]) == 0
        assert (again / "corpus.tsv").read_bytes() == (first / "corpus.tsv").read_bytes()
        assert not (again / "features.tsv").exists()


def test_config_without_value_exits_2(tmp_path, capsys):
    rc = run(["eval", "--config", "--checkpoint", str(tmp_path / "x.bin"),
              "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--config: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    "checkpoint.bin": "61303b300cd879c774851be2a9b54460c691ae02b7faaa6cd60f4cede818d605",
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


# sha256 of the read-only outputs of two default-width models, trained on 32
# records, on a 640-record hashed codegen corpus: more than two 256-row
# evaluation blocks, the last one partial.
PINNED_MULTIBLOCK_DIGESTS = {
    "report.txt": "1724e367ebe7dc88520d1211bd639fb9b4a5da94dabfb77bd0391b1315b50838",
    "stats.txt": "cb02837c9f919f05a6753d08bdd056527b83ae6a1ccca49afaa4f0b5cbc8a40a",
    "embeddings.tsv": "0cc12687ccc1f85e08d24c09cddab14cade9eeb34354d2b10fa9ba561bafe0ef",
}


def test_multiblock_eval_stats_export_outputs_are_pinned(tmp_path):
    for name, classes, per_class, seed in (("small", 4, 8, 1), ("large", 8, 80, 2)):
        assert run(["gen", "--mode", "codegen", "--classes", str(classes), "--per-class",
                    str(per_class), "--seed", str(seed), "--out-dir", str(tmp_path / name)]) == 0
    small, large = (str(tmp_path / name / "corpus.tsv") for name in ("small", "large"))
    default_dims = ["--feature-dim", "256", "--hidden-dim", "128", "--embed-dim", "64", "--pair-hidden-dim", "64"]
    ckpt, base = (train_small(tmp_path / kind, small, None, extra=["--loss-kind", kind, "--epochs", "10", *default_dims])
                  for kind in ("ce_plus_cpl", "ce_only"))
    out = tmp_path / "out"
    common = ["--checkpoint", ckpt, "--corpus", large, "--out-dir", str(out)]
    assert run(["eval", *common]) == 0
    assert "fp = 4\n" in (out / "report.txt").read_text()  # not one predicted label for all
    assert run(["stats", *common, "--baseline", base, "--resamples", "200"]) == 0
    assert run(["export", *common]) == 0
    assert len((out / "embeddings.tsv").read_text().splitlines()) == 8 + 640
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_MULTIBLOCK_DIGESTS}
    assert digests == PINNED_MULTIBLOCK_DIGESTS


# sha256 of the training outputs of each loss kind at the default model
# dimensions and batch 4, on 27 geometric records: six full batches and a
# partial one of three per epoch. They pin every float bit of the step.
PINNED_LOSS_KIND_DIGESTS = {
    "ce_only": ("8a37a70fdbfe8b435e5d0effce6dec48dce640cf1ace3f59b9ab8fa88a1c78f2",
                "73015c3484cf200a457b564bdbd93018fda0312fbc301364b1553c87c6b9e500"),
    "ce_plus_cpl": ("644232d88c741b9974b9475c3135e4acc155c8b48532dec762bc79b3f4e49248",
                    "5d45d1850df32b8834f2d504349514d24b2ab5ea43eab2595629d99a94ff2051"),
    "ce_plus_contrastive": ("3bf5b71a1417eb1360138f0bb106f0b1a390cdfba8250fcf7b49a29774f9f88a",
                            "13724fc86328d72324573f1d46e08c61ef7e2d4bfa430a63888aec5d913e414a"),
    "ce_plus_triplet": ("ce1cde0c8bd40741e389984b5ca089836c9a822e1b040b420785b2af592e93c4",
                        "db3fd83010c343faa66881df1c632c142102f803be9c07953442fe18356bae7d"),
}


def test_default_width_training_of_every_loss_kind_is_pinned(tmp_path):
    data = tmp_path / "data"
    assert run(["gen", "--classes", "3", "--per-class", "9", "--seed", "5", "--out-dir", str(data)]) == 0
    digests = {}
    for kind in LOSS_KINDS:
        out = tmp_path / kind
        assert run(["train", "--corpus", str(data / "corpus.tsv"), "--features", str(data / "features.tsv"),
                    "--loss-kind", kind, "--epochs", "3", "--seed", "2", "--out-dir", str(out)]) == 0
        digests[kind] = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                              for name in ("checkpoint.bin", "history.tsv"))
    assert digests == PINNED_LOSS_KIND_DIGESTS
