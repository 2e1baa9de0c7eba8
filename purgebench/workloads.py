"""The three benchmark workloads, each driven through ``purgelab.cli.run``.

A workload has a set-up, which generates its inputs from the seed into a
directory, and a timed section (one repetition), which runs the CLI commands
a user would run on the inputs of one set-up directory. Every repetition
writes to its own directory, so the runner can compare output bytes between
repetitions.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from purgelab.trainer import load_checkpoint, save_checkpoint

# Input sizes. "full" is the benchmark; "tiny" is for the smoke self-test.
SIZES = {
    "full": dict(
        geo_classes=8, geo_per_class=40, geo_epochs=30, geo_batch=4,
        sweep_classes=8, sweep_per_class=40, sweep_epochs=3, sweep_batch=16,
        lambda_range="1.00:1.30:0.05", zeta_range="-0.06:0.01:0.01", workers=2,
        big_classes=64, big_per_class=32, small_classes=8, small_per_class=16,
        small_epochs=10, small_batch=4, resamples=10_000, ckpt_reps=20,
    ),
    "tiny": dict(
        geo_classes=4, geo_per_class=8, geo_epochs=2, geo_batch=4,
        sweep_classes=4, sweep_per_class=8, sweep_epochs=1, sweep_batch=16,
        lambda_range="1.00:1.05:0.05", zeta_range="-0.01:0.00:0.01", workers=2,
        big_classes=8, big_per_class=8, small_classes=4, small_per_class=8,
        small_epochs=8, small_batch=4, resamples=200, ckpt_reps=3,
    ),
}


class CommandFailed(Exception):
    """A CLI call returned non-zero; the run cannot go on."""


@dataclass
class Result:
    """What one set-up or one repetition measured."""

    outputs: list[str] = field(default_factory=list)  # files compared byte for byte
    train: list[tuple[int, float]] = field(default_factory=list)  # (steps, seconds)
    eval: list[tuple[int, float]] = field(default_factory=list)  # (pairs, seconds)
    ckpt_save_ms: list[float] = field(default_factory=list)
    ckpt_load_ms: list[float] = field(default_factory=list)
    ckpt_bytes: int = 0
    f1: float | None = None
    ratio: float | None = None
    cells: int = 0


def _lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _key_values(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)


def _number(bench, path, key) -> float | None:
    """A numeric entry of a report; a missing or ``none`` value fails a check."""
    value = _key_values(path).get(key, "none")
    if not bench.check(value != "none", f"{os.path.basename(path)}: {key} is {value}"):
        return None
    return float(value)


def _steps(corpus, batch, epochs) -> int:
    return math.ceil(_lines(corpus) / batch) * epochs


def _eval(bench, result, d, checkpoint, corpus, *extra):
    seconds = bench.cli("eval", "--checkpoint", checkpoint, "--corpus", corpus, *extra,
                        "--out-dir", f"{d}/eval")
    report = f"{d}/eval/report.txt"
    counts = [_number(bench, report, k) for k in ("tp", "fp", "tn", "fn")]
    pairs = _lines(corpus)
    bench.check(sum(c or 0 for c in counts) == pairs, "eval: confusion counts do not cover the corpus")
    result.eval.append((pairs, seconds))
    result.f1 = _number(bench, report, "f1")
    result.outputs.append(report)


def _stats(bench, result, d, checkpoint, corpus, *extra):
    bench.cli("stats", "--checkpoint", checkpoint, "--corpus", corpus, *extra,
              "--out-dir", f"{d}/stats")
    path = f"{d}/stats/stats.txt"
    result.ratio = _number(bench, path, "ratio")
    result.outputs.append(path)


def _checkpoint_loop(bench, result, d, checkpoint, reps):
    """Repeated save_checkpoint/load_checkpoint of a trained state."""
    state = load_checkpoint(checkpoint)
    path = f"{d}/ckpt_loop.bin"
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        save_checkpoint(state, path)
        t1 = time.perf_counter_ns()
        state = load_checkpoint(path)
        t2 = time.perf_counter_ns()
        result.ckpt_save_ms.append((t1 - t0) / 1e6)
        result.ckpt_load_ms.append((t2 - t1) / 1e6)
    with open(path, "rb") as a, open(checkpoint, "rb") as b:
        bench.check(a.read() == b.read(), "checkpoint changed bytes over save/load round trips")
    result.ckpt_bytes = os.path.getsize(checkpoint)


class GeoTrain:
    """Geometric corpus from a feature table; one default train, then eval, stats, checkpoints."""

    name = "geo-train"
    workers = 1

    def __init__(self, size, seed):
        self.z = SIZES[size]
        self.seed = str(seed)

    def setup(self, bench, d) -> Result:
        z = self.z
        bench.cli("gen", "--mode", "geometric", "--classes", str(z["geo_classes"]),
                  "--per-class", str(z["geo_per_class"]), "--seed", self.seed, "--out-dir", d)
        bench.cli("preprocess", "--input", f"{d}/corpus.tsv", "--seed", self.seed, "--out-dir", d)
        names = ("corpus.tsv", "features.tsv", "train.tsv", "test.tsv")
        return Result(outputs=[f"{d}/{n}" for n in names])

    def rep(self, bench, i, d, workers) -> Result:
        z = self.z
        features = ("--features", f"{i}/features.tsv")
        result = Result()
        seconds = bench.cli("train", "--corpus", f"{i}/train.tsv", *features,
                            "--loss-kind", "ce_plus_cpl", "--epochs", str(z["geo_epochs"]),
                            "--batch", str(z["geo_batch"]), "--seed", self.seed, "--out-dir", f"{d}/train")
        result.train.append((_steps(f"{i}/train.tsv", z["geo_batch"], z["geo_epochs"]), seconds))
        checkpoint = f"{d}/train/checkpoint.bin"
        result.outputs += [checkpoint, f"{d}/train/history.tsv"]
        _eval(bench, result, d, checkpoint, f"{i}/test.tsv", *features)
        _stats(bench, result, d, checkpoint, f"{i}/test.tsv", *features)
        _checkpoint_loop(bench, result, d, checkpoint, z["ckpt_reps"])
        return result


class CodegenSweep:
    """Hashed codegen corpus; the 56-cell purge-loss grid, then a retrain of the best cell."""

    name = "codegen-sweep"

    def __init__(self, size, seed):
        self.z = SIZES[size]
        self.seed = str(seed)
        self.workers = self.z["workers"]

    def setup(self, bench, d) -> Result:
        z = self.z
        bench.cli("gen", "--mode", "codegen", "--classes", str(z["sweep_classes"]),
                  "--per-class", str(z["sweep_per_class"]), "--seed", self.seed, "--out-dir", d)
        bench.cli("preprocess", "--input", f"{d}/corpus.tsv", "--seed", self.seed, "--out-dir", d)
        return Result(outputs=[f"{d}/{n}" for n in ("corpus.tsv", "train.tsv", "test.tsv")])

    def rep(self, bench, i, d, workers) -> Result:
        z = self.z
        train, test = f"{i}/train.tsv", f"{i}/test.tsv"
        common = ("--batch", str(z["sweep_batch"]), "--epochs", str(z["sweep_epochs"]), "--seed", self.seed)
        result = Result()
        seconds = bench.cli("sweep", "--train-corpus", train, "--test-corpus", test, *common,
                            f"--lambda-range={z['lambda_range']}", f"--zeta-range={z['zeta_range']}",
                            "--workers", str(workers), "--out-dir", f"{d}/sweep")
        with open(f"{d}/sweep/sweep.tsv", encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh if not line.startswith("#")]
        result.cells = len(rows)
        result.train.append((result.cells * _steps(train, z["sweep_batch"], z["sweep_epochs"]), seconds))
        bench.check(not os.path.exists(f"{d}/sweep/sweep_errors.txt"), "sweep: some cells failed")
        result.outputs += [f"{d}/sweep/sweep.tsv", f"{d}/sweep/sweep_matrix.txt"]
        best = _best_cell(f"{d}/sweep/sweep_matrix.txt")
        if not bench.check(best is not None, "sweep: no cell has an F1"):
            raise CommandFailed("sweep found no best cell")
        lam, zeta, best_f1 = best
        # A cell rerun on its own reproduces its in-sweep result exactly.
        seconds = bench.cli("train", "--corpus", train, *common, "--loss-kind", "ce_plus_cpl",
                            f"--lambda={lam}", f"--zeta={zeta}", "--out-dir", f"{d}/train")
        result.train.append((_steps(train, z["sweep_batch"], z["sweep_epochs"]), seconds))
        checkpoint = f"{d}/train/checkpoint.bin"
        result.outputs.append(checkpoint)
        _eval(bench, result, d, checkpoint, test)
        bench.check(result.f1 == best_f1, f"retrained best cell F1 {result.f1} != sweep F1 {best_f1}")
        _stats(bench, result, d, checkpoint, test)
        _checkpoint_loop(bench, result, d, checkpoint, z["ckpt_reps"])
        return result


def _best_cell(matrix_path):
    with open(matrix_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("best:"):
                fields = dict(part.split("=", 1) for part in line.split()[1:])
                return fields["lambda"], fields["zeta"], float(fields["F1"])
    return None


class CodegenStats:
    """Read-only diagnostics on a large codegen corpus against two set-up checkpoints."""

    name = "codegen-stats"
    workers = 1

    def __init__(self, size, seed):
        self.z = SIZES[size]
        self.seed = seed

    def setup(self, bench, d) -> Result:
        z, s = self.z, self.seed
        # Distinct generator seeds keep the training corpus out of the large one.
        bench.cli("gen", "--mode", "codegen", "--classes", str(z["big_classes"]),
                  "--per-class", str(z["big_per_class"]), "--seed", str(2 * s), "--out-dir", f"{d}/large")
        bench.cli("gen", "--mode", "codegen", "--classes", str(z["small_classes"]),
                  "--per-class", str(z["small_per_class"]), "--seed", str(2 * s + 1), "--out-dir", f"{d}/small")
        result = Result(outputs=[f"{d}/large/corpus.tsv", f"{d}/small/corpus.tsv"])
        steps = _steps(f"{d}/small/corpus.tsv", z["small_batch"], z["small_epochs"])
        for kind in ("ce_plus_cpl", "ce_only"):
            seconds = bench.cli("train", "--corpus", f"{d}/small/corpus.tsv", "--loss-kind", kind,
                                "--epochs", str(z["small_epochs"]), "--batch", str(z["small_batch"]),
                                "--seed", str(s), "--out-dir", f"{d}/{kind}")
            result.train.append((steps, seconds))
            result.outputs += [f"{d}/{kind}/checkpoint.bin", f"{d}/{kind}/history.tsv"]
        return result

    def rep(self, bench, i, d, workers) -> Result:
        z = self.z
        corpus = f"{i}/large/corpus.tsv"
        checkpoint = f"{i}/ce_plus_cpl/checkpoint.bin"
        result = Result()
        _eval(bench, result, d, checkpoint, corpus)
        _stats(bench, result, d, checkpoint, corpus, "--baseline", f"{i}/ce_only/checkpoint.bin",
               "--resamples", str(z["resamples"]), "--stats-seed", str(self.seed))
        _number(bench, f"{d}/stats/stats.txt", "p_value")
        bench.cli("export", "--checkpoint", checkpoint, "--corpus", corpus, "--out-dir", f"{d}/export")
        result.outputs.append(f"{d}/export/embeddings.tsv")
        _checkpoint_loop(bench, result, d, checkpoint, z["ckpt_reps"])
        return result


WORKLOADS = {w.name: w for w in (GeoTrain, CodegenSweep, CodegenStats)}
