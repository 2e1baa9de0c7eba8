import argparse
import builtins
import ctypes
import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from purgelab import cli, evaluation, trainer
from purgelab.cli import build_parser, run
from purgelab.data import FeatureCache, HashingFeatures, generate_synthetic, ingest, write_corpus
from purgelab.errors import ConfigError
from purgelab.losses import LossConfig
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


def test_training_flags_are_made_from_field_metadata():
    # Each training setting's flag, help, choices and integer minimum live on
    # its config field alone; the CLI keeps no table of its own.
    declared = [f for f in (*fields(LossConfig), *fields(TrainConfig)) if f.name != "loss"]
    assert all(isinstance(f.metadata.get("help"), str) and f.metadata["help"] for f in declared)
    for name in ("train", "sweep"):
        actions = {a.dest: a for a in _subcommand_actions(name)}
        for f in declared:
            a = actions[f.name]
            assert a.option_strings == [f.metadata.get("flag", "--" + f.name.replace("_", "-"))]
            assert a.help == f.metadata["help"] + " (default %(default)s)"
            assert (a.default, a.choices) == (f.default, f.metadata.get("choices"))
    for f in declared:
        if "minimum" in f.metadata:
            with pytest.raises(ConfigError, match=f"{f.name} must be >= {f.metadata['minimum']}"):
                TrainConfig(**{f.name: f.metadata["minimum"] - 1})


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
    cells = " P 36.36 R 50.00 F 42.11 |" * 3
    assert matrix == (
        "lambda\\zeta |         -0.02          |         -0.01          |          0.00          |\n"
        + "-" * 88 + "\n"
        f"   1.00     |{cells}\n"
        f"   1.05     |{cells}\n"
        f"   1.10     |{cells}\n"
        "\nbest: lambda=1.0 zeta=-0.02 P=0.36363636363636365 R=0.5 F1=0.4210526315789474\n"
    )


def test_paper_grid_shapes(tmp_path):
    from purgelab.cli import _parse_range

    assert len(_parse_range("1.00:1.30:0.05")) == 7
    assert len(_parse_range("-0.06:0.01:0.01")) == 8
    assert len(_parse_range("0.03:0.18:0.03")) == 6


@pytest.mark.parametrize("text, values", [
    ("1.00:1.30:0.05", [1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3]),
    ("-0.06:0.01:0.01", [-0.06, -0.05, -0.04, -0.03, -0.02, -0.01, 0.0, 0.01]),
    ("0.03:0.18:0.03", [0.03, 0.06, 0.09, 0.12, 0.15, 0.18]),
    # a STEP that does not divide STOP - START stops short of STOP
    ("0:1:0.6", [0.0, 0.6]),
    ("-0.06:0.01:0.04", [-0.06, -0.02]),
    ("0:1:0.4", [0.0, 0.4, 0.8]),
])
def test_range_values_never_pass_stop(text, values):
    assert cli._parse_range(text) == values


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


def _cell_raising_above_lambda_1_05(base_config, train_data, test_data, lam, zeta):
    # A sweep cell that fails with an error the sweep does not record.
    if lam > 1.05:
        raise RuntimeError("not a purgelab error")
    return _REAL_RUN_CELL(base_config, train_data, test_data, lam, zeta)


def test_a_failed_pooled_sweep_ends_only_its_own_workers(tmp_path, monkeypatch):
    corpus, features = gen_small(tmp_path / "data")
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "_run_cell", _cell_raising_above_lambda_1_05)
    bystander = multiprocessing.Process(target=time.sleep, args=(60,))
    bystander.start()
    try:
        with pytest.raises(RuntimeError, match="not a purgelab error"):
            run(["sweep", "--train-corpus", corpus, "--test-corpus", corpus, "--features", features,
                 "--out-dir", str(tmp_path / "sweep"), "--lambda-range", "1.00:1.10:0.10",
                 "--zeta-range=0:0:0.01", "--epochs", "1", "--workers", "2", *SMALL_DIMS])
        assert bystander.is_alive()
        assert multiprocessing.active_children() == [bystander]
    finally:
        bystander.terminate()
        bystander.join(timeout=10)


def _cell_interrupting_above_lambda_1_05(base_config, train_data, test_data, lam, zeta):
    # One Ctrl-C reaching the sweep's own process while its workers train.
    if lam > 1.05:
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(0.5)
    return _REAL_RUN_CELL(base_config, train_data, test_data, lam, zeta)


def test_ctrl_c_during_a_pooled_sweep_exits_130_and_leaves_no_worker(tmp_path, monkeypatch, capsys):
    corpus, features = gen_small(tmp_path / "data")
    capsys.readouterr()
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "_run_cell", _cell_interrupting_above_lambda_1_05)
    out = tmp_path / "sweep"
    rc = run(["sweep", "--train-corpus", corpus, "--test-corpus", corpus, "--features", features,
              "--out-dir", str(out), "--lambda-range", "1.00:1.10:0.10",
              "--zeta-range=0:0:0.01", "--epochs", "1", "--workers", "2", *SMALL_DIMS])
    assert rc == 130
    assert capsys.readouterr().err == "ERROR KeyboardInterrupt: interrupted\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


# Run in its own process: with the workers left alive, that process never
# exits. It prints how many child processes are left when ``run`` returns.
_SWEEP_WITH_TWO_CTRL_CS = """
import multiprocessing, os, signal, sys, time
from purgelab import cli, evaluation

real_run_cell = evaluation._run_cell

def cell(base_config, train_data, test_data, lam, zeta):
    # Two Ctrl-Cs reaching the sweep's own process 0.3 s apart while its workers train.
    if lam > 1.05:
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(0.3)
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(0.5)
    return real_run_cell(base_config, train_data, test_data, lam, zeta)

os.cpu_count = lambda: 2
evaluation._run_cell = cell
rc = cli.run(sys.argv[1:])
print(len(multiprocessing.active_children()))
sys.exit(rc)
"""


def test_a_second_ctrl_c_during_a_pooled_sweep_exits_130_and_leaves_no_worker(tmp_path):
    corpus, features = gen_small(tmp_path / "data")
    out = tmp_path / "sweep"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", _SWEEP_WITH_TWO_CTRL_CS, "sweep", "--train-corpus", corpus, "--test-corpus", corpus,
         "--features", features, "--out-dir", str(out), "--lambda-range", "1.00:1.10:0.10",
         "--zeta-range=0:0:0.01", "--epochs", "1", "--workers", "2", *SMALL_DIMS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # hung: end it and its workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert stderr == "ERROR KeyboardInterrupt: interrupted\n"
    assert stdout == "0\n"
    assert not out.exists()


# Runs a command in a process of its own and prints its exit code and the
# process-pool modules it has loaded.
_CLI_POOL_MODULES = """
import sys
from purgelab import cli
rc = cli.run(sys.argv[1:])
print(rc, sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_a_command_without_a_pool_never_imports_one(tmp_path, command):
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    argv = {
        "eval": ["eval", "--checkpoint", ckpt, "--corpus", corpus],
        "sweep": ["sweep", "--train-corpus", corpus, "--test-corpus", corpus, "--lambda-range", "1:1.1:0.1",
                  "--zeta-range=0:0:1", "--epochs", "1", "--workers", "1", *SMALL_DIMS],
    }[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CLI_POOL_MODULES, *argv, "--features", features,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.stderr, proc.stdout.splitlines()[-1]) == ("", "0 []")


def _bundled_openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, found
    apart from the CLI's own lookup, or None for another BLAS build."""
    found = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    lib = ctypes.CDLL(str(found[0])) if found else None
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        return None
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@pytest.fixture
def blas_threads():
    """The bundled OpenBLAS's getter and setter; its count is restored after the test."""
    blas = _bundled_openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is absent")
    before = blas[0]()
    yield blas
    blas[1](before)


@pytest.mark.parametrize("rc", [0, 1, 130])
def test_a_command_runs_on_one_blas_thread_and_gives_back_the_callers_count(tmp_path, monkeypatch, blas_threads, rc):
    get, set_ = blas_threads
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    if rc == 1:  # a bad corpus
        corpus = str(tmp_path / "empty.tsv")
        Path(corpus).write_bytes(b"")
    seen = []
    real_cmd_eval = cli.cmd_eval

    def recording(ns):
        seen.append(get())
        if rc == 130:
            raise KeyboardInterrupt
        return real_cmd_eval(ns)

    monkeypatch.setattr(cli, "cmd_eval", recording)
    set_(2)
    assert run(["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
                "--out-dir", str(tmp_path / "eval")]) == rc
    assert seen == [1]
    assert get() == 2


def _cell_reporting_blas_threads(base_config, train_data, test_data, lam, zeta):
    # A sweep cell that reports, as its error, the BLAS thread count and the process it ran in.
    get, _ = _bundled_openblas()
    return evaluation.SweepCell(lam=lam, zeta=zeta, report=None, error=f"threads {get()} pid {os.getpid()}")


def test_every_cell_of_a_pooled_sweep_runs_on_one_blas_thread(tmp_path, monkeypatch, blas_threads):
    get, set_ = blas_threads
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "_run_cell", _cell_reporting_blas_threads)
    set_(2)
    out = tmp_path / "sweep"
    assert run([*sweep_args(tmp_path), "--lambda-range=1.0:1.1:0.05", "--zeta-range=0:0.01:0.01",
                "--workers", "2", "--out-dir", str(out)]) == 0
    reports = [line.split("\t")[2].split() for line in (out / "sweep_errors.txt").read_text().splitlines()]
    assert [threads for _, threads, _, _ in reports] == ["1"] * 6
    assert str(os.getpid()) not in {pid for *_, pid in reports}  # every cell ran in a worker
    assert get() == 2


def test_a_blas_without_the_bundled_library_gives_the_same_bytes(tmp_path, monkeypatch):
    corpus, features = gen_small(tmp_path / "data")
    outputs = {}
    for name in ("bundled", "stubbed"):
        if name == "stubbed":
            monkeypatch.setattr(cli, "_openblas", lambda: None)
        ckpt = train_small(tmp_path / name, corpus, features)
        assert run(["eval", "--checkpoint", ckpt, "--corpus", corpus, "--features", features,
                    "--out-dir", str(tmp_path / name)]) == 0
        outputs[name] = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()
                         if path.name != "manifest.txt"}  # which names the output paths
    assert outputs["stubbed"] == outputs["bundled"]
    assert sorted(outputs["bundled"]) == ["checkpoint.bin", "history.tsv", "report.txt"]


@pytest.mark.parametrize("side", ["train", "test"])
def test_an_empty_corpus_error_names_the_file(tmp_path, capsys, side):
    # With two corpora, "empty corpus" alone would not say which one is empty.
    corpus, features = gen_small(tmp_path / "data")
    empty = tmp_path / "empty.tsv"
    empty.write_bytes(b"")
    corpora = {"train": corpus, "test": corpus, side: str(empty)}
    capsys.readouterr()
    rc = run(["sweep", "--train-corpus", corpora["train"], "--test-corpus", corpora["test"],
              "--features", features, "--lambda-range", "1:1:1", "--zeta-range", "0:0:1", "--epochs", "1",
              *SMALL_DIMS, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"ERROR ConfigError: {empty}: empty corpus: a feature cache needs at least one record\n"
    )


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


# Runs the CLI in a process of its own with two sweep workers on any host.
_CLI_WITH_TWO_CPUS = """
import os, sys
os.cpu_count = lambda: 2
from purgelab import cli
sys.exit(cli.run(sys.argv[1:]))
"""


def test_float_overflow_prints_no_numpy_warning_even_as_errors(tmp_path):
    # numpy's floating-point warnings stay quiet in the CLI, forked sweep
    # workers included, so an overflow ends in one ERROR line or none even
    # when the interpreter turns warnings into errors.
    data = tmp_path / "data"
    assert run(["gen", "--classes", "3", "--per-class", "6", "--out-dir", str(data)]) == 0
    inputs = ["--features", str(data / "features.tsv"), "--epochs", "2", "--step-size", "1e300"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli_process(*argv):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _CLI_WITH_TWO_CPUS, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = cli_process("train", "--corpus", str(data / "corpus.tsv"), *inputs, "--out-dir", str(tmp_path / "run"))
    assert (proc.returncode, proc.stderr) == (
        1, "ERROR DivergenceError: numeric divergence: encoder pre-normalization norm is not finite\n"
    )
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        proc = cli_process("sweep", "--train-corpus", str(data / "corpus.tsv"), "--test-corpus",
                           str(data / "corpus.tsv"), *inputs, "--workers", workers, "--out-dir", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        tables.append((out / "sweep.tsv").read_bytes())
    assert tables[0] == tables[1]


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
    {"config": {}},
    {"config": {"loss": {}}},
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


def test_a_nan_weight_under_a_valid_trailer_exits_1(tmp_path, capsys):
    corpus, features = gen_small(tmp_path / "data")
    raw = bytearray(Path(train_small(tmp_path / "run", corpus, features)).read_bytes())
    start = len(CHECKPOINT_MAGIC)
    _, meta_len = struct.unpack_from("<II", raw, start)
    struct.pack_into("<d", raw, start + 8 + meta_len, math.nan)
    body = bytes(raw[:-32])
    forged = tmp_path / "forged.bin"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", str(forged)], ["train", "--resume", str(forged), "--epochs", "3"]):
        capsys.readouterr()
        rc = run([*argv, "--corpus", corpus, "--features", features, "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "ERROR DeserializeError: checkpoint holds non-finite parameters or moments\n"
        assert not out.exists()


def _flip(raw, at):
    flipped = bytearray(raw)
    flipped[at] ^= 1
    return bytes(flipped)


def _resigned(body):
    return body + hashlib.sha256(body).digest()


# A checkpoint's sections as (start, end) offsets: magic, header (u32 version,
# u32 meta length), meta, block and sha256 trailer.
def _sections(raw):
    _, meta_len = struct.unpack_from("<II", raw, 13)
    return {"magic": (0, 13), "header": (13, 21), "meta": (21, 21 + meta_len),
            "block": (21 + meta_len, len(raw) - 32), "trailer": (len(raw) - 32, len(raw))}


_DIGEST_LINE = "ERROR DeserializeError: checkpoint digest mismatch: the file is truncated or corrupted"
_SMALL_BLOCK = 3 * 8 * 616  # params, m and v at SMALL_DIMS


@pytest.mark.parametrize("damage, line", [
    pytest.param(lambda raw, s: raw[: s["magic"][1] // 2], "ERROR DeserializeError: not a purgelab checkpoint",
                 id="truncated-in-magic"),
    pytest.param(lambda raw, s: raw[: s["header"][0] + 4], "ERROR DeserializeError: checkpoint truncated",
                 id="truncated-in-header"),
    pytest.param(lambda raw, s: raw[: sum(s["meta"]) // 2], _DIGEST_LINE, id="truncated-in-meta"),
    pytest.param(lambda raw, s: raw[: sum(s["block"]) // 2], _DIGEST_LINE, id="truncated-in-block"),
    pytest.param(lambda raw, s: raw[: sum(s["block"]) // 2 + 3], _DIGEST_LINE, id="truncated-off-a-float"),
    pytest.param(lambda raw, s: raw[: sum(s["trailer"]) // 2], _DIGEST_LINE, id="truncated-in-trailer"),
    pytest.param(lambda raw, s: raw[:-1], _DIGEST_LINE, id="one-byte-short"),
    pytest.param(lambda raw, s: raw + b"\0", _DIGEST_LINE, id="one-byte-long"),
    pytest.param(lambda raw, s: _flip(raw, 5), "ERROR DeserializeError: not a purgelab checkpoint",
                 id="flipped-in-magic"),
    pytest.param(lambda raw, s: _flip(raw, 13), "ERROR VersionError: unsupported checkpoint version 2",
                 id="flipped-in-version"),
    pytest.param(lambda raw, s: _flip(raw, 17), _DIGEST_LINE, id="flipped-in-meta-length"),
    pytest.param(lambda raw, s: _flip(raw, sum(s["meta"]) // 2), _DIGEST_LINE, id="flipped-in-meta"),
    pytest.param(lambda raw, s: _flip(raw, sum(s["block"]) // 2), _DIGEST_LINE, id="flipped-in-block"),
    pytest.param(lambda raw, s: _flip(raw, sum(s["trailer"]) // 2), _DIGEST_LINE, id="flipped-in-trailer"),
    pytest.param(lambda raw, s: _resigned(raw[:-32] + b"\0" * 8),
                 f"ERROR DeserializeError: checkpoint holds {_SMALL_BLOCK + 8} parameter bytes, "
                 f"the config's layout needs {_SMALL_BLOCK}", id="resigned-float-long"),
    pytest.param(lambda raw, s: _resigned(raw[:-35]),
                 f"ERROR DeserializeError: checkpoint holds {_SMALL_BLOCK - 3} parameter bytes, "
                 f"the config's layout needs {_SMALL_BLOCK}", id="resigned-off-a-float"),
])
def test_every_damaged_section_of_a_checkpoint_gives_its_one_error_line(tmp_path, capsys, damage, line):
    corpus, features = gen_small(tmp_path / "data")
    raw = Path(train_small(tmp_path / "run", corpus, features)).read_bytes()
    assert _sections(raw)["block"][1] - _sections(raw)["block"][0] == _SMALL_BLOCK
    bad = tmp_path / "bad.bin"
    bad.write_bytes(damage(raw, _sections(raw)))
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", str(bad)], ["train", "--resume", str(bad), "--epochs", "3"]):
        capsys.readouterr()
        rc = run([*argv, "--corpus", corpus, "--features", features, "--out-dir", str(out)])
        assert (rc, capsys.readouterr().err) == (1, line + "\n")
        assert not out.exists()


@pytest.mark.parametrize("past", [0, 10], ids=["to-the-trailer", "into-the-trailer"])
def test_a_resigned_meta_length_past_the_meta_reads_the_bytes_it_names(tmp_path, capsys, past):
    # The meta length is read as written: a meta that runs over the block, and
    # on into the trailer, is decoded from those bytes.
    corpus, features = gen_small(tmp_path / "data")
    raw = Path(train_small(tmp_path / "run", corpus, features)).read_bytes()
    meta_len = len(raw) - 21 - 32 + past
    forged = _resigned(raw[:17] + struct.pack("<I", meta_len) + raw[21:-32])
    with pytest.raises(ValueError) as decoding:
        json.loads(forged[21 : 21 + meta_len].decode("utf-8"))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(forged)
    line = f"ERROR DeserializeError: malformed checkpoint metadata: {decoding.value!r}\n"
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", str(bad)], ["train", "--resume", str(bad), "--epochs", "3"]):
        capsys.readouterr()
        rc = run([*argv, "--corpus", corpus, "--features", features, "--out-dir", str(out)])
        assert (rc, capsys.readouterr().err) == (1, line)
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


@pytest.mark.parametrize("component", ["\u0661", "1_0", "\u0663.\u0665"])
def test_feature_table_components_are_spelled_as_the_writer_writes_them(tmp_path, capsys, component):
    # float() reads each of these (as 1.0, 10.0 and 3.5); a rewrite of the
    # table would not keep their spelling, so a load refuses them.
    corpus, features = gen_small(tmp_path / "data")
    ckpt = train_small(tmp_path / "run", corpus, features)
    _corrupt_features(Path(features), component)
    line = f"ERROR ParseError: line 2: components must be ASCII with no '_', got {component!r}\n"
    out = tmp_path / "out"
    for argv in (["train", "--epochs", "1", *SMALL_DIMS], ["eval", "--checkpoint", ckpt]):
        capsys.readouterr()
        rc = run([*argv, "--corpus", corpus, "--features", features, "--out-dir", str(out)])
        assert (rc, capsys.readouterr().err) == (1, line)
        assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    pytest.param("export", [], id="export-empty-corpus"),
    pytest.param("stats", [], id="stats-empty-corpus"),
    # the later --corpus wins over the missing one
    pytest.param("train", ["--corpus", "{empty}"], id="train-empty-corpus"),
    pytest.param("train", ["--step-size", "inf"], id="step-size-inf"),
    pytest.param("train", ["--adam-epsilon", "inf"], id="adam-epsilon-inf"),
    pytest.param("train", ["--alpha", "nan"], id="alpha-nan"),
    pytest.param("train", ["--beta", "nan"], id="beta-nan"),
    pytest.param("train", ["--lambda", "nan"], id="lambda-nan"),
    pytest.param("sweep", ["--step-size", "inf"], id="sweep-step-size-inf"),
    pytest.param("train", ["--hidden-dim", "0"], id="hidden-dim-0"),
    pytest.param("sweep", ["--embed-dim", "0"], id="sweep-embed-dim-0"),
    pytest.param("sweep", ["--workers", "-3"], id="sweep-workers-negative"),
    pytest.param("sweep", ["--features", "{features}", "--feature-dim", "16"], id="sweep-feature-table-width"),
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
    flags = [flag.format(missing=missing, empty=empty, features=features) for flag in flags]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run([command, *inputs, *flags, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR ConfigError: ")
    assert not out.exists()


def _with_class_id(corpus: str, class_id: str, path: Path) -> str:
    """A copy of ``corpus`` at ``path`` with class 0, its first line, renamed ``class_id``."""
    lines = Path(corpus).read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(class_id + line[1:] if line.startswith("0\t") else line for line in lines),
                    encoding="utf-8")
    return str(path)


def test_class_ids_are_bounded_by_int64(tmp_path, capsys):
    corpus, features = gen_small(tmp_path / "data")
    largest = _with_class_id(corpus, str(2**63 - 1), tmp_path / "largest.tsv")
    ckpt = train_small(tmp_path / "run", largest, features)
    assert run(["export", "--checkpoint", ckpt, "--corpus", largest, "--features", features,
                "--classes", str(2**63 - 1), "--out-dir", str(tmp_path / "exp")]) == 0
    rows = (tmp_path / "exp" / "embeddings.tsv").read_text().splitlines()
    assert {row.split("\t")[0] for row in rows} == {str(2**63 - 1)}
    too_large = _with_class_id(corpus, str(2**63), tmp_path / "too_large.tsv")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--corpus", too_large, "--features", features, "--out-dir", str(out), *SMALL_DIMS]) == 1
    assert capsys.readouterr().err == (
        f"ERROR ParseError: line 1: class_id must be in [0, 2**63), got {2**63}\n"
    )
    assert not out.exists()


_HUGE = "99999999999999999999"


@pytest.mark.parametrize("args", [
    # a class id past int64, on every path that reads a corpus
    pytest.param(["train", "--corpus", "{huge_id}", "--features", "{features}", *SMALL_DIMS], id="train-class-id"),
    pytest.param(["train", "--corpus", "{id_2_63}", "--features", "{features}", *SMALL_DIMS],
                 id="train-class-id-2**63"),
    pytest.param(["eval", "--checkpoint", "{ckpt}", "--corpus", "{huge_id}", "--features", "{features}"],
                 id="eval-class-id"),
    pytest.param(["stats", "--checkpoint", "{ckpt}", "--corpus", "{huge_id}", "--features", "{features}"],
                 id="stats-class-id"),
    pytest.param(["export", "--checkpoint", "{ckpt}", "--corpus", "{huge_id}", "--features", "{features}"],
                 id="export-class-id"),
    pytest.param(["sweep", "--train-corpus", "{huge_id}", "--test-corpus", "{corpus}", "--features", "{features}",
                  "--lambda-range", "1:1:1", "--zeta-range", "0:0:1", "--epochs", "1", *SMALL_DIMS],
                 id="sweep-class-id"),
    pytest.param(["preprocess", "--input", "{huge_id}"], id="preprocess-class-id"),
    # a dimension past MAX_DIM
    pytest.param(["gen", "--feature-dim", _HUGE], id="gen-feature-dim-1e20"),
    pytest.param(["gen", "--feature-dim", str(2**62)], id="gen-feature-dim-2**62"),
    pytest.param(["train", "--corpus", "{corpus}", "--hidden-dim", _HUGE], id="train-hidden-dim"),
    pytest.param(["train", "--corpus", "{corpus}", "--feature-dim", _HUGE], id="train-hashed-feature-dim"),
    pytest.param(["train", "--corpus", "{corpus}", "--embed-dim", _HUGE], id="train-embed-dim"),
    pytest.param(["train", "--corpus", "{corpus}", "--pair-hidden-dim", _HUGE], id="train-pair-hidden-dim"),
])
def test_an_oversize_integer_exits_1_with_one_error_line(tmp_path, capsys, args):
    corpus, features = gen_small(tmp_path / "data")
    paths = {
        "corpus": corpus,
        "features": features,
        "ckpt": train_small(tmp_path / "run", corpus, features),
        "huge_id": _with_class_id(corpus, _HUGE, tmp_path / "huge_id.tsv"),
        "id_2_63": _with_class_id(corpus, str(2**63), tmp_path / "id_2_63.tsv"),
    }
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run([arg.format(**paths) for arg in args] + ["--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    [line] = err.splitlines()
    assert line.startswith("ERROR ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("classes", ["1_0", "+3", " 4", "\u0663", "007", "-1"])
def test_export_classes_are_spelled_as_the_corpus_spells_class_ids(tmp_path, capsys, classes):
    # a missing checkpoint: the flag is checked before it is read
    out = tmp_path / "out"
    rc = run(["export", "--checkpoint", str(tmp_path / "missing.bin"), "--corpus", str(tmp_path / "missing.tsv"),
              f"--classes={classes}", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"ERROR ConfigError: --classes ids must be ASCII digits with no leading zero, got {classes!r}\n"
    )
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
    # comment and blank lines are skipped
    config.write_text("# every default\n\n" + "".join(f"{key} = {cli._fmt(bare[key])}\n" for key in keys))
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


@pytest.mark.parametrize("text, error", [
    ("a:b:c", "range must be numeric, got 'a:b:c'"),
    ("1:2", "range must be START:STOP:STEP, got '1:2'"),
    ("0:1:0", "range needs step > 0 and stop >= start, got '0:1:0'"),
    ("1:0:0.5", "range needs step > 0 and stop >= start, got '1:0:0.5'"),
])
def test_malformed_sweep_range_exits_1_with_one_error_line(tmp_path, capsys, text, error):
    # The corpora are missing, so a range that passed its checks would
    # surface as another error.
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.tsv")
    rc = run(["sweep", "--train-corpus", missing, "--test-corpus", missing, f"--lambda-range={text}",
              "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR ConfigError: {error}\n"
    assert not out.exists()


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


def test_multiblock_embeddings_have_the_same_bits_at_one_and_two_blas_threads(blas_threads):
    # The corpus of the multiblock test above: the README says each embedding
    # has the bits of one whole-corpus call, whatever count a library caller sets.
    _, set_ = blas_threads
    corpus, _ = generate_synthetic("codegen", n_classes=8, per_class=80, seed=2)
    data = FeatureCache.from_corpus(corpus, HashingFeatures(TrainConfig.feature_dim))
    assert len(data) == 640
    state = trainer.init_state(TrainConfig())
    bits = {}
    for threads in (1, 2):
        set_(threads)
        bits[threads] = [embeddings.tobytes() for embeddings in evaluation._embeddings(state, data)]
    assert bits[1] == bits[2]


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
