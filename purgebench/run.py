"""purgelab benchmark: one workload per call, through the public CLI, in-process.

    python3 purgebench/run.py --workload geo-train --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it prints the end-to-end metrics. The timed section is
repeated for about ``--seconds`` seconds (at least twice), with the set-up
repeats spread over the first repetitions; times are medians and rates are
total work over total time. With ``--trace 1`` it prints the per-layer
metrics from a traced set-up and traced repetitions, each checked byte for
byte against an untraced twin. Every line but the last is readable text; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Work files go to ``.benchrun/`` at the repository root and are
removed at the end; a traced run leaves its spans there as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import uuid

from tracer import Tracer, layer_metrics, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 5
MIN_REPS = 2


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics a run prints, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Bench:
    """Checks, CLI calls and the optional tracer shared by one run."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = tracer

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def span(self, name):
        if self.tracer is None or not self.tracer.installed:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def cli(self, *argv) -> float:
        """Run one CLI command in-process; returns its wall time in seconds."""
        from purgelab.cli import run
        from workloads import CommandFailed

        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), self.span(f"cli.{argv[0]}"):
            rc = run([str(a) for a in argv])
        seconds = time.perf_counter() - t0
        if not self.check(rc == 0, f"{argv[0]} exited {rc}"):
            raise CommandFailed(" ".join(map(str, argv)))
        return seconds


def same_outputs(bench, first, other, base_first, base_other, what):
    """One check per output file: bytes equal between two directories."""
    for a, b in zip(first.outputs, other.outputs):
        rel = os.path.relpath(a, base_first)
        same = os.path.relpath(b, base_other) == rel
        if same:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                same = fa.read() == fb.read()
        bench.check(same, f"{what}: {rel} differs")


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def rate(records) -> float:
    """Total work over total time of (count, seconds) records."""
    seconds = sum(t for _, t in records)
    return sum(n for n, _ in records) / seconds if seconds else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int) -> int:
    """The highest of a few percentiles that leaves at least ten samples above it."""
    return next((q for q in (99, 95, 90, 75) if n * (100 - q) >= 1000), 50)


def blas_info() -> tuple[str, str]:
    """The BLAS numpy was built against, and its thread count as found at start."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = str(getattr(handle, symbol)())
                    break
    env = ",".join(f"{k}={os.environ[k]}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS") if k in os.environ)
    return name, f"{threads} ({env or 'no thread variables set'})"


def run_untraced(bench, wl, seconds, work):
    """Repetitions of the timed section for about ``seconds``; the set-up
    repeats are spread over the first repetitions, so that set-up time and
    timed section see the same machine state."""
    setups, setup_times = [], []

    def setup():
        i = len(setups)
        result, elapsed = timed(wl.setup, bench, f"{work}/setup{i}")
        setups.append(result)
        setup_times.append(elapsed)
        if i:
            same_outputs(bench, setups[0], result, f"{work}/setup0", f"{work}/setup{i}", "set-up repeat")

    reps, walls, pool_cpu = [], [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + median(walls) <= seconds:
        if len(setups) < SETUP_REPS:
            setup()
        d = f"{work}/rep{len(reps)}"
        cpu0 = children_cpu_s()
        result, elapsed = timed(wl.rep, bench, f"{work}/setup0", d, wl.workers)
        if result.cells:
            pool_cpu.append((children_cpu_s() - cpu0) / result.cells)
        reps.append(result)
        walls.append(elapsed)
        if len(reps) > 1:
            same_outputs(bench, reps[0], result, f"{work}/rep0", d, "repeat")
            shutil.rmtree(d)
    while len(setups) < SETUP_REPS:
        setup()

    first = reps[0]
    # A workload whose timed section does not train reports its set-up training.
    trains = [t for r in reps for t in r.train] or [t for s in setups for t in s.train]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(walls),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "train_steps_per_s": rate(trains),
        "heldout_f1": first.f1 or 0.0,
    }
    samples = {"setup_s": len(setup_times), "wall_s": len(walls), "train_steps_per_s": len(trains)}
    _, lines = io_metrics(reps)
    lines += [f"evaluation.dist_ratio = {first.ratio!r} ratio",
              f"trainer.ckpt_bytes = {first.ckpt_bytes!r} bytes"]
    if pool_cpu:
        lines.append(f"evaluation.pool_cpu_s_per_cell = {median(pool_cpu)!r} s")
    for name, values in (("setup_s", setup_times), ("wall_s", walls),
                         ("train_steps_per_s", [n / t for n, t in trains])):
        lines.append(f"{name} samples = [{', '.join(f'{v:.6g}' for v in values)}]")
    return metrics, samples, lines


def io_metrics(reps):
    """Evaluation throughput and checkpoint save/load times of untraced repetitions.

    They are per-layer metrics: at this run length their spread across seeds
    is wider than any bound an end-to-end metric may have. Returns the values
    and text lines that also give the sample count and a tail percentile.
    """
    evals = [e for r in reps for e in r.eval]
    metrics = {"evaluation.eval_pairs_per_s": rate(evals)}
    lines = [f"evaluation.eval_pairs_per_s = {metrics['evaluation.eval_pairs_per_s']!r} 1/s "
             f"(n={len(evals)})"]
    for name in ("ckpt_save_ms", "ckpt_load_ms"):
        values = [ms for r in reps for ms in getattr(r, name)]
        q = tail_percentile(len(values))
        metrics[f"trainer.{name}"] = median(values)
        lines.append(f"trainer.{name} = {median(values)!r} ms, p{q} {percentile(values, q)!r} ms "
                     f"(n={len(values)})")
    return metrics, lines


def run_traced(bench, wl, seconds, work, tracer):
    untraced_setup = wl.setup(bench, f"{work}/setup0")
    with tracer.active(), tracer.span("bench.setup"):
        traced_setup = wl.setup(bench, f"{work}/setup1")
    same_outputs(bench, untraced_setup, traced_setup, f"{work}/setup0", f"{work}/setup1", "traced set-up")

    pool_cpu = 0.0
    if wl.workers > 1:
        cpu0 = children_cpu_s()
        pooled = wl.rep(bench, f"{work}/setup0", f"{work}/pooled", wl.workers)
        pool_cpu = (children_cpu_s() - cpu0) / pooled.cells
    # Forked workers would lose their spans, so the traced side and its
    # untraced twin both run in-process; the side that runs first alternates.
    def plain(d):
        return timed(wl.rep, bench, f"{work}/setup0", d, 1)

    def traced(d):
        with tracer.active(), tracer.span("bench.rep"):
            return timed(wl.rep, bench, f"{work}/setup0", d, 1)

    walls = {plain: [], traced: []}
    plains = []
    start = time.perf_counter()
    while (len(walls[traced]) < MIN_REPS
           or time.perf_counter() - start + sum(map(median, walls.values())) <= seconds):
        k = len(walls[traced])
        results = {}
        for side in (plain, traced) if k % 2 == 0 else (traced, plain):
            results[side], elapsed = side(f"{work}/{side.__name__}{k}")
            walls[side].append(elapsed)
        plains.append(results[plain])
        same_outputs(bench, results[plain], results[traced], f"{work}/plain{k}", f"{work}/traced{k}",
                     "traced repetition")
        if wl.workers > 1 and k == 0:
            same_outputs(bench, pooled, results[plain], f"{work}/pooled", f"{work}/plain0",
                         f"--workers {wl.workers} against --workers 1")

    first = plains[0]
    metrics, samples, featurize_per = layer_metrics(tracer)
    io_values, lines = io_metrics(plains)
    metrics.update(io_values)
    metrics["trainer.ckpt_bytes"] = first.ckpt_bytes
    metrics["evaluation.pool_cpu_s_per_cell"] = pool_cpu
    metrics["evaluation.dist_ratio"] = first.ratio or 0.0
    metrics["bench.trace_overhead_frac"] = median(walls[traced]) / median(walls[plain]) - 1.0
    samples["bench.trace_overhead_frac"] = len(walls[traced])
    lines += [f"data.featurize_calls per {where} = {median(counts)!r} count (n={len(counts)})"
              for where, counts in featurize_per.items()]
    return metrics, samples, lines


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description="purgelab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0, help="time budget of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        import purgelab.cli  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"purgebench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed)
    run_dir = os.path.join(ROOT, ".benchrun", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = os.path.join(run_dir, "work")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(work)

    blas, threads = blas_info()
    print(f"env: python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
          f"blas threads {threads}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, size {args.size}")

    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    bench = Bench(tracer)
    metrics, samples, lines = {}, {}, []
    try:
        if args.trace:
            metrics, samples, lines = run_traced(bench, wl, args.seconds, work, tracer)
        else:
            metrics, samples, lines = run_untraced(bench, wl, args.seconds, work)
    except workloads.CommandFailed as exc:
        print(f"aborted: command failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.write(os.path.join(run_dir, "spans.jsonl.gz"))
        else:
            os.rmdir(run_dir)

    units = metric_units(args.trace)
    for name, unit in units.items():
        if name not in metrics:
            bench.check(False, f"metric {name} was not measured")
            continue
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name} = {metrics[name]!r} {unit}{n}")
    for name in sorted(metrics.keys() - units.keys()):
        if metrics[name]:
            print(f"{name} = {metrics[name]!r} (not in BENCHMARK.json)")
    failed = len(bench.failures)
    for what in bench.failures:
        print(f"check failed: {what}")
    print(f"error_rate = {failed / max(bench.attempted, 1)!r} fraction "
          f"({failed} of {bench.attempted} checks failed)")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
