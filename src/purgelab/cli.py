"""Command-line surface: preprocess, gen, train, eval, sweep, stats, export.

Every flag has a default and every run writes a flat key=value manifest next
to its outputs; rerunning a command with ``--config <manifest>`` restores all
flags (explicit flags still win), reproducing the outputs bit for bit. Exit
codes: 0 on success, 2 on usage errors (nothing written), 1 on domain errors
with a machine-parsable ``ERROR <name>: <message>`` line on stderr, and 130
on Ctrl-C, with the line ``ERROR KeyboardInterrupt: interrupted``.
A command and its sweep workers run on one BLAS thread; run restores the count.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import math
import os
import sys
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from .data import (
    FeatureCache,
    HashingFeatures,
    _ascii_int,
    check_fraction,
    dedup,
    generate_synthetic,
    ingest,
    load_feature_table,
    read_lines,
    split,
    write_corpus,
    write_feature_table,
    write_file,
)
from .errors import ConfigError, PurgelabError
from .evaluation import (
    DistanceStats,
    evaluate,
    export_embeddings,
    pair_distances,
    permutation_pvalue,
    sweep,
    sweep_workers,
)
from .losses import LossConfig
from .trainer import (
    TrainConfig,
    TrainerState,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
)

# Largest sweep grid the CLI accepts; the default grid has 56 cells.
MAX_SWEEP_CELLS = 10_000

# gen flags that only geometric mode reads, with their defaults.
_GEOMETRIC_FLAGS = {"noise": 1.0, "feature_dim": TrainConfig.feature_dim}
# stats flags that only the permutation test against --baseline reads.
_PERMUTATION_FLAGS = {"resamples": 10_000, "stats_seed": 0}


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def load_config_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` manifest into a string map; a key may appear once."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path, ConfigError), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if "\0" in line:  # no flag value holds one, and a path with one cannot be opened
            raise ConfigError(f"{path}:{lineno}: NUL byte")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats")
        values[key] = value
    return values


class _StoreGiven(argparse.Action):
    """Store a flag's value and record its dest in ``namespace.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def _zero_or_one(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per field of LossConfig and TrainConfig, with the default, type
    and flag metadata its field declares."""
    for f in (*fields(LossConfig), *fields(TrainConfig)):
        if f.name != "loss":
            p.add_argument(
                f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                dest=f.name,
                type=type(f.default),
                default=f.default,
                choices=f.metadata.get("choices"),
                help=f.metadata["help"] + " (default %(default)s)",
            )


def _train_config(ns: argparse.Namespace) -> TrainConfig:
    loss = LossConfig(**{f.name: getattr(ns, f.name) for f in fields(LossConfig)})
    return TrainConfig(
        loss=loss, **{f.name: getattr(ns, f.name) for f in fields(TrainConfig) if f.name != "loss"}
    )


def _resume_config(ns: argparse.Namespace, saved: TrainConfig) -> TrainConfig:
    """The checkpoint's config with the new epoch target.

    A training flag that was given must agree with the checkpoint; every other
    one takes the checkpoint's value on ``ns``, so the console line and the
    manifest echo the config that actually runs.
    """
    values = asdict(saved)
    values.update(values.pop("loss"))
    del values["epochs"]
    for dest, value in values.items():
        if dest in ns.given and getattr(ns, dest) != value:
            raise ConfigError(
                f"{dest} = {_fmt(getattr(ns, dest))} conflicts with the resumed "
                f"checkpoint's {dest} = {_fmt(value)}"
            )
        setattr(ns, dest, value)
    return replace(saved, epochs=ns.epochs)


def _featurized(ns: argparse.Namespace, feature_dim: int, *paths: str) -> list[FeatureCache]:
    """Each corpus file, ingested and featurized at ``feature_dim`` by the
    ``--features`` table if one is given, else by hashing."""
    if getattr(ns, "features", None):
        provider = load_feature_table(ns.features)
        if provider.dim != feature_dim:
            raise ConfigError(f"feature table dim {provider.dim} is not the model's {feature_dim}")
    else:
        provider = HashingFeatures(feature_dim)
    try:
        return [FeatureCache.from_corpus(ingest(path := p), provider) for p in paths]
    except ConfigError as exc:  # an empty corpus; ``path`` is the file being read
        raise ConfigError(f"{path}: {exc}") from None


def _finish(ns: argparse.Namespace, outputs: dict, summary) -> int:
    """Make ``--out-dir``; write each of ``outputs`` (file name -> writer of a
    path) into it and remove each mapped to None, an optional output this run
    did not write; remove an old manifest once the first output is in place
    and write the new one last, so a manifest marks a finished command; print
    ``summary()``, which may report what the writes counted."""
    os.makedirs(ns.out_dir, exist_ok=True)
    manifest = os.path.join(ns.out_dir, "manifest.txt")
    for name, write in outputs.items():
        path = os.path.join(ns.out_dir, name)
        if write is not None:
            write(path)
        elif os.path.lexists(path):
            os.remove(path)
        if os.path.lexists(manifest):
            os.remove(manifest)
    skip = {"command", "config", "func", "given"}
    lines = [f"{key} = {_fmt(getattr(ns, key))}\n" for key in sorted(vars(ns)) if key not in skip]
    write_file([f"command = {ns.command}\n", *lines], manifest)
    print(summary())
    return 0


def _loss_lines(rows):
    """One ``index, ce, metric, joint, skipped`` line per loss row."""
    return (f"{r.index}\t{r.ce_loss!r}\t{r.metric_loss!r}\t{r.joint_loss!r}\t{r.skipped_count}\n" for r in rows)


def _reject_unused(ns: argparse.Namespace, defaults: dict, why: str) -> None:
    """ConfigError for a flag of ``defaults`` away from its default, which
    has no effect ``why``. A replayed manifest echoes the defaults, so it runs."""
    for dest, default in defaults.items():
        if getattr(ns, dest) != default:
            raise ConfigError(f"{dest} = {_fmt(getattr(ns, dest))} has no effect {why}")


def _check_minimums(ns: argparse.Namespace, minimums: dict[str, int]) -> None:
    for dest, least in minimums.items():
        if getattr(ns, dest) < least:
            raise ConfigError(f"{dest} must be >= {least}, got {getattr(ns, dest)}")


def _checkpoint_and_corpus(ns: argparse.Namespace) -> tuple[TrainerState, FeatureCache]:
    """The ``--checkpoint`` state, without Adam's moments, and the ``--corpus``
    featurized at its feature dim."""
    state = load_checkpoint(ns.checkpoint, moments=False)
    [data] = _featurized(ns, state.config.feature_dim, ns.corpus)
    return state, data


def _report(ns: argparse.Namespace, name: str, lines) -> int:
    """Write ``key = value`` lines to ``name``, echoed on one line."""
    text = [f"{key} = {_fmt(value)}\n" for key, value in lines]
    summary = f"{ns.command}: " + " ".join(f"{k}={_fmt(v)}" for k, v in lines)
    return _finish(ns, {name: partial(write_file, text)}, lambda: summary)


def _parse_range(text: str) -> list[float]:
    """Parse START:STOP:STEP into an inclusive grid axis of finite values,
    at most ``MAX_SWEEP_CELLS`` long."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"range must be numeric, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"range needs step > 0 and stop >= start, got {text!r}")
    # Every START + i * STEP up to STOP: the step count is floored, forgiving
    # 1e-9 of a step of rounding ((0.01 + 0.06) / 0.01 is 6.999999999999999),
    # and is inf when STOP - START overflows.
    count = math.floor(min((stop - start) / step, MAX_SWEEP_CELLS) + 1e-9) + 1
    if count > MAX_SWEEP_CELLS:
        raise ConfigError(f"range {text!r} has more than {MAX_SWEEP_CELLS} values")
    return [round(start + i * step, 9) for i in range(count)]


def _parse_classes(text: str) -> list[int] | None:
    if not text:
        return None
    try:
        return [_ascii_int(part, "--classes ids") for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_gen(ns: argparse.Namespace) -> int:
    _check_minimums(ns, {"seed": 0})
    if ns.mode == "codegen":
        _reject_unused(ns, _GEOMETRIC_FLAGS, "in codegen mode")
    corpus, table = generate_synthetic(
        mode=ns.mode,
        n_classes=ns.classes,
        per_class=ns.per_class,
        equiv_fraction=ns.equiv_fraction,
        noise=ns.noise,
        seed=ns.seed,
        feature_dim=ns.feature_dim,
    )
    outputs = {
        "corpus.tsv": partial(write_corpus, corpus),
        "features.tsv": None if table is None else partial(write_feature_table, table),
    }
    return _finish(ns, outputs, lambda: f"gen: {len(corpus)} records, {ns.classes} classes -> {ns.out_dir}")


def cmd_preprocess(ns: argparse.Namespace) -> int:
    _check_minimums(ns, {"seed": 0})
    check_fraction(ns.fraction)
    corpus = ingest(ns.input)
    deduped = dedup(corpus)
    train_side, test_side = split(deduped, ns.fraction, ns.seed)
    outputs = {"train.tsv": partial(write_corpus, train_side), "test.tsv": partial(write_corpus, test_side)}
    return _finish(ns, outputs, lambda: (
        f"preprocess: {len(corpus)} in, {len(deduped)} after dedup, "
        f"{len(train_side)}/{len(test_side)} train/test -> {ns.out_dir}"
    ))


def cmd_train(ns: argparse.Namespace) -> int:
    if ns.resume:
        state = load_checkpoint(ns.resume)
        state.config = _resume_config(ns, state.config)
        [data] = _featurized(ns, ns.feature_dim, ns.corpus)
        result = resume(state, data, collect_steps=ns.trace)
    else:
        config = _train_config(ns)
        [data] = _featurized(ns, ns.feature_dim, ns.corpus)
        result = train(config, data, collect_steps=ns.trace)
    trace = result.step_trace
    outputs = {
        "checkpoint.bin": partial(save_checkpoint, result.state),
        "history.tsv": partial(write_file, _loss_lines(result.history)),
        "steps.tsv": None if trace is None else partial(write_file, _loss_lines(trace)),
    }
    summary = "train: nothing to do (checkpoint already at target epochs)"
    if result.history:
        last = result.history[-1]
        summary = (f"train: {ns.loss_kind} epoch {last.index} "
                   f"ce {last.ce_loss:.6f} metric {last.metric_loss:.6f} joint {last.joint_loss:.6f}")
    return _finish(ns, outputs, lambda: summary)


def cmd_eval(ns: argparse.Namespace) -> int:
    state, data = _checkpoint_and_corpus(ns)
    report = evaluate(state, data)
    return _report(ns, "report.txt", list(asdict(report).items()))


def cmd_stats(ns: argparse.Namespace) -> int:
    if ns.baseline:
        _check_minimums(ns, {"resamples": 1, "stats_seed": 0})
    else:
        _reject_unused(ns, _PERMUTATION_FLAGS, "without --baseline")
    state = load_checkpoint(ns.checkpoint, moments=False)
    base_state = load_checkpoint(ns.baseline, moments=False) if ns.baseline else None
    if base_state is not None and base_state.config.feature_dim != state.config.feature_dim:
        raise ConfigError(
            f"baseline feature_dim {base_state.config.feature_dim} is not "
            f"the checkpoint's {state.config.feature_dim}"
        )
    [data] = _featurized(ns, state.config.feature_dim, ns.corpus)
    eq, noneq = pair_distances(state, data)
    lines = list(asdict(DistanceStats.from_distances(eq, noneq)).items())
    if base_state is not None:
        base_eq, base_noneq = pair_distances(base_state, data)
        base_stats = DistanceStats.from_distances(base_eq, base_noneq)
        test = permutation_pvalue(noneq, base_noneq, resamples=ns.resamples, seed=ns.stats_seed)
        lines += [
            ("baseline_mean_eq", base_stats.mean_eq),
            ("baseline_mean_noneq", base_stats.mean_noneq),
            ("baseline_ratio", base_stats.ratio),
            ("noneq_mean_shift", test.observed_diff),
            ("p_value", test.p_value),
            ("resamples", test.resamples),
        ]
    return _report(ns, "stats.txt", lines)


def _pct(value) -> str:
    return "  --  " if value is None else f"{100.0 * value:6.2f}"


def _sweep_matrix(grid, best):
    header = "lambda\\zeta |" + "".join(f" {z:^22.2f} |" for z in grid.zeta_values)
    yield header + "\n"
    yield "-" * len(header) + "\n"
    for i, lam in enumerate(grid.lambda_values):
        row = f"{lam:^11.2f} |"
        for j in range(len(grid.zeta_values)):
            cell = grid.cell(i, j)
            r = cell.report
            if r is None:
                row += f" {cell.error.split(':', 1)[0]:^22} |"
            else:
                row += f" P{_pct(r.precision)} R{_pct(r.recall)} F{_pct(r.f1)} |"
        yield row + "\n"
    if best is not None:
        yield (
            f"\nbest: lambda={best.lam!r} zeta={best.zeta!r} "
            f"P={_fmt(best.report.precision)} R={_fmt(best.report.recall)} "
            f"F1={_fmt(best.report.f1)}\n"
        )


def cmd_sweep(ns: argparse.Namespace) -> int:
    lambda_values = _parse_range(ns.lambda_range)
    zeta_values = _parse_range(ns.zeta_range)
    cells = len(lambda_values) * len(zeta_values)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep grid has {cells} cells, more than {MAX_SWEEP_CELLS}")
    workers = sweep_workers(ns.workers, cells)
    config = _train_config(ns)
    train_data, test_data = _featurized(ns, ns.feature_dim, ns.train_corpus, ns.test_corpus)
    grid = sweep(config, train_data, test_data, lambda_values, zeta_values, workers=workers)
    best = grid.best()
    table = ["# lambda\tzeta\tprecision\trecall\tf1\n"]
    for c in grid.cells:  # a failed cell has no report, so "none" for each metric
        metrics = [_fmt(getattr(c.report, k, None)) for k in ("precision", "recall", "f1")]
        table.append("\t".join([repr(c.lam), repr(c.zeta), *metrics]) + "\n")
    errors = [f"{c.lam!r}\t{c.zeta!r}\t{c.error}\n" for c in grid.cells if c.error]
    outputs = {
        "sweep.tsv": partial(write_file, table),
        "sweep_matrix.txt": partial(write_file, _sweep_matrix(grid, best)),
        "sweep_errors.txt": partial(write_file, errors) if errors else None,
    }
    summary = f"sweep: {len(grid.cells)} cells"
    if best is not None:
        summary += f", best lambda={best.lam!r} zeta={best.zeta!r} f1={_fmt(best.report.f1)}"
    return _finish(ns, outputs, lambda: summary)


def cmd_export(ns: argparse.Namespace) -> int:
    classes = _parse_classes(ns.classes)
    state, data = _checkpoint_and_corpus(ns)
    rows = export_embeddings(state, data, classes)
    count = 0

    def lines():
        nonlocal count
        for count, (class_id, label, role, *components) in enumerate(rows, start=1):
            yield f"{class_id}\t{label}\t{role}\t" + "\t".join(map(repr, components)) + "\n"

    outputs = {"embeddings.tsv": partial(write_file, lines())}
    return _finish(ns, outputs, lambda: f"export: {count} rows -> {ns.out_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purgelab",
        description="Equivalent-mutant detection lab: cluster purge loss training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text, func, reads_checkpoint=False):
        p = sub.add_parser(name, help=help_text)
        p.register("action", None, _StoreGiven)  # every flag without an action records itself
        p.set_defaults(func=func, given=frozenset())
        p.add_argument("--config", help="preload flags from a manifest file")
        p.add_argument("--out-dir", default="out", help="directory for outputs")
        if reads_checkpoint:  # eval, stats and export: a checkpoint run on a corpus
            p.add_argument("--checkpoint", default="out/checkpoint.bin")
            p.add_argument("--corpus", default="corpus.tsv")
            p.add_argument("--features")
        return p

    p = subparser("gen", "generate a synthetic mutant corpus", cmd_gen)
    p.add_argument("--mode", choices=("geometric", "codegen"), default="geometric")
    p.add_argument("--classes", type=int, default=8, help="number of mutant classes")
    p.add_argument("--per-class", type=int, default=40, help="mutants per class")
    p.add_argument("--equiv-fraction", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=_GEOMETRIC_FLAGS["noise"], help="geometric scatter magnitude")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", type=int, default=_GEOMETRIC_FLAGS["feature_dim"])

    p = subparser("preprocess", "ingest, dedup, and stratified-split a corpus", cmd_preprocess)
    p.add_argument("--input", default="corpus.tsv")
    p.add_argument("--fraction", type=float, default=0.5, help="train-side fraction")
    p.add_argument("--seed", type=int, default=0)

    p = subparser("train", "train a model on a corpus", cmd_train)
    p.add_argument("--corpus", default="corpus.tsv")
    p.add_argument("--features", help="feature table (default: hashed features)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--trace", nargs="?", const=True, default=False, type=_zero_or_one,
                   help="also write per-step loss trace")
    _add_train_flags(p)

    subparser("eval", "evaluate a checkpoint on a corpus", cmd_eval, reads_checkpoint=True)

    p = subparser("sweep", "grid-search lambda and zeta", cmd_sweep)
    p.add_argument("--train-corpus", default="train.tsv")
    p.add_argument("--test-corpus", default="test.tsv")
    p.add_argument("--features")
    p.add_argument("--lambda-range", default="1.00:1.30:0.05", help="START:STOP:STEP")
    p.add_argument("--zeta-range", default="-0.06:0.01:0.01", help="START:STOP:STEP")
    p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
    _add_train_flags(p)

    p = subparser("stats", "distance distribution stats, optionally vs a baseline", cmd_stats, reads_checkpoint=True)
    p.add_argument("--baseline", help="baseline checkpoint to compare against")
    p.add_argument("--resamples", type=int, default=_PERMUTATION_FLAGS["resamples"])
    p.add_argument("--stats-seed", type=int, default=_PERMUTATION_FLAGS["stats_seed"], help="permutation test seed")

    p = subparser("export", "export embeddings for external plotting", cmd_export, reads_checkpoint=True)
    p.add_argument("--classes", default="", help="comma-separated class ids (default all)")

    return parser


def _check_config_keys(parser, ns: argparse.Namespace, file_defaults: dict[str, str]) -> None:
    """Usage error for a ``--config`` key that no flag of the command has, for a
    ``config`` key (config files do not nest), or for another ``command``."""
    if file_defaults.get("command", ns.command) != ns.command:
        parser.error(f"--config holds command = {file_defaults['command']}, not {ns.command}")
    unknown = sorted(set(file_defaults) - (set(vars(ns)) - {"func", "given", "config"}))
    if unknown:
        parser.error(f"{ns.command}: --config keys name no flag: {', '.join(unknown)}")


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None
    for another BLAS build."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def run(argv) -> int:
    try:
        try:
            parser = build_parser()
            ns = parser.parse_args(argv)
            if ns.config is not None:
                # Each value is read as --flag=value after the command, argv[0],
                # and before its flags, which win as argparse keeps the last;
                # "none" leaves unset only a flag whose default is None.
                values = load_config_file(ns.config)
                _check_config_keys(parser, ns, values)
                [commands] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
                command = commands[ns.command]
                command.set_defaults(given=frozenset(values))
                flags = {a.dest: a.option_strings[0] for a in command._actions}
                tokens = [f"{flags[k]}={v}" for k, v in values.items()
                          if k != "command" and not (v == "none" and command.get_default(k) is None)]
                ns = parser.parse_args([argv[0], *tokens, *argv[1:]])
        except SystemExit as exc:
            return int(exc.code or 0)
        # One BLAS thread, which forked sweep workers inherit (OPENBLAS_NUM_THREADS
        # is read as numpy loads); the caller's count comes back whatever the exit.
        blas = _openblas()
        if blas:
            threads = blas[0]()
            blas[1](1)
        try:
            # The finite checks decide what is an error, so numpy's warnings stay quiet.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return ns.func(ns)
        finally:
            if blas:
                blas[1](threads)
    # A sweep's dead worker; the pool is looked up only once it is loaded.
    except (PurgelabError, OSError, MemoryError,
            getattr(sys.modules.get("concurrent.futures.process"), "BrokenProcessPool", PurgelabError)) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("ERROR KeyboardInterrupt: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
