"""Command-line surface: preprocess, gen, train, eval, sweep, stats, export.

Every flag has a default and every run writes a flat key=value manifest next
to its outputs; rerunning a command with ``--config <manifest>`` restores all
flags (explicit flags still win), reproducing the outputs bit for bit. Exit
codes: 0 on success, 2 on usage errors (nothing written), 1 on domain errors
with a machine-parsable ``ERROR <name>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, fields, replace

from .data import (
    FeatureCache,
    HashingFeatures,
    check_fraction,
    dedup,
    generate_synthetic,
    ingest,
    load_feature_table,
    read_lines,
    split,
    write_corpus,
    write_feature_table,
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
    LOSS_KINDS,
    TrainConfig,
    TrainerState,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
)

# Largest sweep grid the CLI accepts; the default grid has 56 cells.
MAX_SWEEP_CELLS = 10_000

_TRAIN_DEFAULTS = TrainConfig()
_LOSS_DEFAULTS = LossConfig()

# gen flags that only geometric mode reads, with their defaults.
_GEOMETRIC_FLAGS = {"noise": 1.0, "feature_dim": _TRAIN_DEFAULTS.feature_dim}
# stats flags that only the permutation test against --baseline reads.
_PERMUTATION_FLAGS = {"resamples": 10_000, "stats_seed": 0}


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats")
        values[key] = value
    return values


def write_manifest(path, command: str, args: argparse.Namespace) -> None:
    skip = {"command", "config", "func", "given"}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(vars(args)):
            if key in skip:
                continue
            fh.write(f"{key} = {_fmt(getattr(args, key))}\n")


class _StoreGiven(argparse.Action):
    """Store a flag's value and record its dest in ``namespace.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def _zero_or_one(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"expected 0 or 1, got {text!r}")
    return text == "1"


class _Args:
    """add_argument wrapper that lets a config file override built-in defaults.

    A config value is passed to argparse as a string default, so the chosen
    subcommand parses it like the same flag on the command line. ``given`` on
    the parsed namespace names every value that came from the command line or
    the config file rather than a built-in default.
    """

    def __init__(self, parser: argparse.ArgumentParser, file_defaults: dict[str, str]):
        self.parser = parser
        self.file_defaults = file_defaults
        parser.set_defaults(given=frozenset(file_defaults))

    def add(self, *names, dest=None, type=str, default=None, **kwargs):
        if dest is None:
            dest = names[-1].lstrip("-").replace("-", "_")
        raw = self.file_defaults.get(dest)
        if raw is not None:
            default = None if raw == "none" else raw
        self.parser.add_argument(
            *names, dest=dest, type=type, default=default, action=_StoreGiven, **kwargs
        )

    def flag(self, *names, dest=None, default=False, **kwargs):
        if dest is None:
            dest = names[-1].lstrip("-").replace("-", "_")
        default = self.file_defaults.get(dest, default)
        action = self.parser.add_argument(
            *names, dest=dest, action="store_true", default=default, **kwargs
        )
        action.type = _zero_or_one  # argparse applies it to a config file's string default


# Training flags whose names differ from their config field's.
_FLAG_NAMES = {"lam": "--lambda", "batch_size": "--batch"}

_TRAIN_HELP = {
    "gamma": "verge EMA smoothing factor",
    "alpha": "equivalent-side hinge exponent",
    "beta": "non-equivalent-side hinge exponent",
    "zeta": "hinge margin (may be negative)",
    "lam": "metric-loss weight",
    "hinge_epsilon": "derivative guard for fractional hinge exponents",
    "loss_kind": "training objective",
    "epochs": "training epochs",
    "batch_size": "minibatch size",
    "feature_dim": "input feature width",
    "hidden_dim": "encoder hidden width",
    "embed_dim": "embedding width",
    "pair_hidden_dim": "pair-classifier hidden width",
    "step_size": "optimizer step size",
    "beta1": "first-moment decay",
    "beta2": "second-moment decay",
    "adam_epsilon": "optimizer denominator guard",
    "seed": "initialization and shuffling seed",
}


def _add_train_flags(args: _Args) -> None:
    """One flag per field of LossConfig and TrainConfig, with its default and type."""
    for defaults in (_LOSS_DEFAULTS, _TRAIN_DEFAULTS):
        for f in fields(defaults):
            if f.name == "loss":
                continue
            default = getattr(defaults, f.name)
            args.add(
                _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                dest=f.name,
                type=type(default),
                default=default,
                choices=LOSS_KINDS if f.name == "loss_kind" else None,
                help=_TRAIN_HELP[f.name] + " (default %(default)s)",
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
    return [FeatureCache.from_corpus(ingest(path), provider) for path in paths]


def _outpath(ns: argparse.Namespace, name: str) -> str:
    os.makedirs(ns.out_dir, exist_ok=True)
    return os.path.join(ns.out_dir, name)


def _write_losses(path, rows) -> None:
    """One ``index, ce, metric, joint, skipped`` line per loss row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in rows:
            fh.write(f"{r.index}\t{r.ce_loss!r}\t{r.metric_loss!r}\t{r.joint_loss!r}\t{r.skipped_count}\n")


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
    """The ``--checkpoint`` state and the ``--corpus`` featurized at its feature dim."""
    state = load_checkpoint(ns.checkpoint)
    [data] = _featurized(ns, state.config.feature_dim, ns.corpus)
    return state, data


def _write_report(ns: argparse.Namespace, command: str, name: str, lines) -> int:
    """Write ``key = value`` lines to ``name`` and the manifest, echo them on one line."""
    with open(_outpath(ns, name), "w", encoding="utf-8", newline="\n") as fh:
        for key, value in lines:
            fh.write(f"{key} = {_fmt(value)}\n")
    write_manifest(_outpath(ns, "manifest.txt"), command, ns)
    print(f"{command}: " + " ".join(f"{k}={_fmt(v)}" for k, v in lines))
    return 0


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
    steps = (stop - start) / step  # inf when the difference overflows
    if not steps <= MAX_SWEEP_CELLS - 1:
        raise ConfigError(f"range {text!r} has more than {MAX_SWEEP_CELLS} values")
    count = int(round(steps)) + 1
    return [round(start + i * step, 9) for i in range(count)]


def _parse_classes(text: str) -> list[int] | None:
    if not text:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--classes must be comma-separated integers, got {text!r}") from None


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
    write_corpus(corpus, _outpath(ns, "corpus.tsv"))
    if table is not None:
        write_feature_table(table, _outpath(ns, "features.tsv"))
    write_manifest(_outpath(ns, "manifest.txt"), "gen", ns)
    print(f"gen: {len(corpus)} records, {ns.classes} classes -> {ns.out_dir}")
    return 0


def cmd_preprocess(ns: argparse.Namespace) -> int:
    _check_minimums(ns, {"seed": 0})
    check_fraction(ns.fraction)
    corpus = ingest(ns.input)
    deduped = dedup(corpus)
    train_side, test_side = split(deduped, ns.fraction, ns.seed)
    write_corpus(train_side, _outpath(ns, "train.tsv"))
    write_corpus(test_side, _outpath(ns, "test.tsv"))
    write_manifest(_outpath(ns, "manifest.txt"), "preprocess", ns)
    print(
        f"preprocess: {len(corpus)} in, {len(deduped)} after dedup, "
        f"{len(train_side)}/{len(test_side)} train/test -> {ns.out_dir}"
    )
    return 0


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
    save_checkpoint(result.state, _outpath(ns, "checkpoint.bin"))
    _write_losses(_outpath(ns, "history.tsv"), result.history)
    if ns.trace and result.step_trace is not None:
        _write_losses(_outpath(ns, "steps.tsv"), result.step_trace)
    write_manifest(_outpath(ns, "manifest.txt"), "train", ns)
    last = result.history[-1] if result.history else None
    if last is not None:
        print(
            f"train: {ns.loss_kind} epoch {last.index} "
            f"ce {last.ce_loss:.6f} metric {last.metric_loss:.6f} joint {last.joint_loss:.6f}"
        )
    else:
        print("train: nothing to do (checkpoint already at target epochs)")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    state, data = _checkpoint_and_corpus(ns)
    report = evaluate(state, data)
    return _write_report(ns, "eval", "report.txt", list(asdict(report).items()))


def cmd_stats(ns: argparse.Namespace) -> int:
    if ns.baseline:
        _check_minimums(ns, {"resamples": 1, "stats_seed": 0})
    else:
        _reject_unused(ns, _PERMUTATION_FLAGS, "without --baseline")
    state = load_checkpoint(ns.checkpoint)
    base_state = load_checkpoint(ns.baseline) if ns.baseline else None
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
    return _write_report(ns, "stats", "stats.txt", lines)


def _pct(value) -> str:
    return "  --  " if value is None else f"{100.0 * value:6.2f}"


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
    with open(_outpath(ns, "sweep.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# lambda\tzeta\tprecision\trecall\tf1\n")
        for cell in grid.cells:
            r = cell.report
            fh.write(
                f"{cell.lam!r}\t{cell.zeta!r}\t"
                f"{_fmt(r.precision if r else None)}\t"
                f"{_fmt(r.recall if r else None)}\t"
                f"{_fmt(r.f1 if r else None)}\n"
            )
    with open(_outpath(ns, "sweep_matrix.txt"), "w", encoding="utf-8", newline="\n") as fh:
        header = "lambda\\zeta |" + "".join(f" {z:^22.2f} |" for z in zeta_values)
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for i, lam in enumerate(lambda_values):
            row = f"{lam:^11.2f} |"
            for j in range(len(zeta_values)):
                cell = grid.cell(i, j)
                r = cell.report
                if r is None:
                    row += f" {cell.error.split(':', 1)[0]:^22} |"
                else:
                    row += f" P{_pct(r.precision)} R{_pct(r.recall)} F{_pct(r.f1)} |"
            fh.write(row + "\n")
        if best is not None:
            fh.write(
                f"\nbest: lambda={best.lam!r} zeta={best.zeta!r} "
                f"P={_fmt(best.report.precision)} R={_fmt(best.report.recall)} "
                f"F1={_fmt(best.report.f1)}\n"
            )
    errors = [c for c in grid.cells if c.error]
    if errors:
        with open(_outpath(ns, "sweep_errors.txt"), "w", encoding="utf-8", newline="\n") as fh:
            for cell in errors:
                fh.write(f"{cell.lam!r}\t{cell.zeta!r}\t{cell.error}\n")
    write_manifest(_outpath(ns, "manifest.txt"), "sweep", ns)
    print(
        f"sweep: {len(grid.cells)} cells"
        + (
            f", best lambda={best.lam!r} zeta={best.zeta!r} f1={_fmt(best.report.f1)}"
            if best is not None
            else ""
        )
    )
    return 0


def cmd_export(ns: argparse.Namespace) -> int:
    classes = _parse_classes(ns.classes)
    state, data = _checkpoint_and_corpus(ns)
    rows = export_embeddings(state, data, classes)
    with open(_outpath(ns, "embeddings.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            class_id, label, role, *components = row
            comp_text = "\t".join(repr(c) for c in components)
            fh.write(f"{class_id}\t{label}\t{role}\t{comp_text}\n")
    write_manifest(_outpath(ns, "manifest.txt"), "export", ns)
    print(f"export: {len(rows)} rows -> {ns.out_dir}")
    return 0


def build_parser(file_defaults: dict[str, str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purgelab",
        description="Equivalent-mutant detection lab: cluster purge loss training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        a = _Args(p, file_defaults)
        a.add("--config", type=str, default=None, help="preload flags from a manifest file")
        a.add("--out-dir", type=str, default="out", help="directory for outputs")
        return p, a

    p, a = subparser("gen", "generate a synthetic mutant corpus")
    a.add("--mode", choices=("geometric", "codegen"), default="geometric")
    a.add("--classes", type=int, default=8, help="number of mutant classes")
    a.add("--per-class", type=int, default=40, help="mutants per class")
    a.add("--equiv-fraction", type=float, default=0.5)
    a.add("--noise", type=float, default=_GEOMETRIC_FLAGS["noise"], help="geometric scatter magnitude")
    a.add("--seed", type=int, default=0)
    a.add("--feature-dim", type=int, default=_GEOMETRIC_FLAGS["feature_dim"])
    p.set_defaults(func=cmd_gen)

    p, a = subparser("preprocess", "ingest, dedup, and stratified-split a corpus")
    a.add("--input", type=str, default="corpus.tsv")
    a.add("--fraction", type=float, default=0.5, help="train-side fraction")
    a.add("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p, a = subparser("train", "train a model on a corpus")
    a.add("--corpus", type=str, default="corpus.tsv")
    a.add("--features", type=str, default=None, help="feature table (default: hashed features)")
    a.add("--resume", type=str, default=None, help="checkpoint to continue from")
    a.flag("--trace", help="also write per-step loss trace")
    _add_train_flags(a)
    p.set_defaults(func=cmd_train)

    p, a = subparser("eval", "evaluate a checkpoint on a corpus")
    a.add("--checkpoint", type=str, default="out/checkpoint.bin")
    a.add("--corpus", type=str, default="corpus.tsv")
    a.add("--features", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    p, a = subparser("sweep", "grid-search lambda and zeta")
    a.add("--train-corpus", type=str, default="train.tsv")
    a.add("--test-corpus", type=str, default="test.tsv")
    a.add("--features", type=str, default=None)
    a.add("--lambda-range", type=str, default="1.00:1.30:0.05", help="START:STOP:STEP")
    a.add("--zeta-range", type=str, default="-0.06:0.01:0.01", help="START:STOP:STEP")
    a.add("--workers", type=int, default=1, help="parallel sweep workers")
    _add_train_flags(a)
    p.set_defaults(func=cmd_sweep)

    p, a = subparser("stats", "distance distribution stats, optionally vs a baseline")
    a.add("--checkpoint", type=str, default="out/checkpoint.bin")
    a.add("--baseline", type=str, default=None, help="baseline checkpoint to compare against")
    a.add("--corpus", type=str, default="corpus.tsv")
    a.add("--features", type=str, default=None)
    a.add("--resamples", type=int, default=_PERMUTATION_FLAGS["resamples"])
    a.add("--stats-seed", type=int, default=_PERMUTATION_FLAGS["stats_seed"], help="permutation test seed")
    p.set_defaults(func=cmd_stats)

    p, a = subparser("export", "export embeddings for external plotting")
    a.add("--checkpoint", type=str, default="out/checkpoint.bin")
    a.add("--corpus", type=str, default="corpus.tsv")
    a.add("--features", type=str, default=None)
    a.add("--classes", type=str, default="", help="comma-separated class ids (default all)")
    p.set_defaults(func=cmd_export)

    return parser


def _peek_config(argv) -> dict[str, str]:
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return load_config_file(argv[i + 1])
        if arg.startswith("--config="):
            return load_config_file(arg.split("=", 1)[1])
    return {}


def _check_config_keys(parser, ns: argparse.Namespace, file_defaults: dict[str, str]) -> None:
    """Usage error for a ``--config`` key that no flag of the command has, or another ``command``."""
    if file_defaults.get("command", ns.command) != ns.command:
        parser.error(f"--config holds command = {file_defaults['command']}, not {ns.command}")
    unknown = sorted(set(file_defaults) - (set(vars(ns)) - {"func", "given"}))
    if unknown:
        parser.error(f"{ns.command}: --config keys name no flag: {', '.join(unknown)}")


def run(argv) -> int:
    try:
        file_defaults = _peek_config(argv)
        parser = build_parser(file_defaults)
        try:
            ns = parser.parse_args(argv)
            _check_config_keys(parser, ns, file_defaults)
        except SystemExit as exc:
            return int(exc.code or 0)
        return ns.func(ns)
    except PurgelabError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
