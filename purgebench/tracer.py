"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the purgelab layers at the place they
are looked up (a module global, or an attribute of a class), so the program
itself is unchanged. Each wrapped call becomes one span: name, start, end,
parent span and an item count, all under one run id. Cosine-distance calls
are only counted, because a span per call would cost more than the call.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    return int(result.embeddings.shape[0])


def _length(args, kwargs, result):
    return len(result)


def _pairs(args, kwargs, result):
    eq, noneq = result
    return int(eq.size + noneq.size)


def _resamples(args, kwargs, result):
    return int(result.resamples)


# (module, attribute, span name, item count). Each entry is the name a caller
# resolves at call time: ``resume`` finds ``train_step`` and ``make_batches``
# in the trainer's globals, ``sweep`` finds ``train`` and ``evaluate`` in the
# evaluation module's globals, and the CLI finds its own imports.
SPAN_TARGETS = [
    ("purgelab.cli", "ingest", "data.ingest", _length),
    ("purgelab.data", "FeatureCache.from_corpus", "data.featurize", _length),
    ("purgelab.trainer", "make_batches", "data.make_batches", None),
    ("purgelab.trainer", "encode_batch", "encoder.encode_batch", _rows),
    ("purgelab.evaluation", "encode_batch", "encoder.encode_batch", _rows),
    ("purgelab.trainer", "encoder_backward", "encoder.encoder_backward", None),
    ("purgelab.trainer", "classify_pairs", "encoder.classify_pairs", None),
    ("purgelab.evaluation", "classify_pairs", "encoder.classify_pairs", None),
    ("purgelab.trainer", "pair_backward", "encoder.pair_backward", None),
    ("purgelab.trainer", "cluster_purge_loss", "losses.cluster_purge_loss", None),
    ("purgelab.trainer", "cross_entropy", "losses.cross_entropy", None),
    ("purgelab.verges", "VergeRegistry.batch_update", "verges.batch_update", None),
    ("purgelab.trainer", "train_step", "trainer.train_step", None),
    ("purgelab.cli", "train", "trainer.train", None),
    ("purgelab.evaluation", "train", "trainer.train", None),
    ("purgelab.cli", "evaluate", "evaluation.evaluate", None),
    ("purgelab.evaluation", "evaluate", "evaluation.evaluate", None),
    ("purgelab.cli", "pair_distances", "evaluation.pair_distances", _pairs),
    ("purgelab.evaluation", "pair_distances", "evaluation.pair_distances", _pairs),
    ("purgelab.cli", "permutation_pvalue", "evaluation.permutation_pvalue", _resamples),
]

# (module, attribute, counter). Training-side calls come from the losses and
# the verge registry; evaluation-side calls come from ``pair_distances``.
COUNT_TARGETS = [
    ("purgelab.losses", "cosine_distance", "cosine.train"),
    ("purgelab.losses", "cosine_distance_gradient", "cosine.train"),
    ("purgelab.verges", "cosine_distance", "cosine.train"),
    ("purgelab.evaluation", "cosine_distance", "cosine.eval"),
]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "n")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.n = 0

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters for one run; ``active()`` installs the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.installed = False

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> Span:
        stack = self._stack
        record = Span(len(self.spans), stack[-1] if stack else -1, name, time.perf_counter_ns())
        self.spans.append(record)
        stack.append(record.id)
        return record

    def _close(self, record: Span) -> None:
        self._stack.pop()
        record.end = time.perf_counter_ns()

    def _span_wrapper(self, fn, name, count_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count_of is not None:
                record.n = count_of(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper, and restore the original attributes on exit."""
        restore = []
        try:
            for module, attr, name, count_of in SPAN_TARGETS:
                restore.append(self._patch(module, attr, lambda fn, n=name, c=count_of: self._span_wrapper(fn, n, c)))
            for module, attr, name in COUNT_TARGETS:
                restore.append(self._patch(module, attr, lambda fn, n=name: self._count_wrapper(fn, n)))
            self.installed = True
            yield self
        finally:
            self.installed = False
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(module, attr, make):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, leaf)
        if isinstance(original, classmethod):
            setattr(owner, leaf, classmethod(make(original.__func__)))
        else:
            setattr(owner, leaf, make(original))
        return owner, leaf, original

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, then one line with the counters."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "n": s.n,
                }) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def layer_metrics(tracer: Tracer):
    """Per-layer numbers from the recorded spans and counters.

    Returns the metrics, the sample counts behind them, and the
    FeatureCache.from_corpus calls made by each CLI call and each sweep cell.
    A layer that the workload never calls reads 0.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            children[s.parent].append(s)
    steps = by_name["trainer.train_step"]
    step_ids = {s.id for s in steps}
    n_steps = len(steps)

    def total_us(name, inside_step=None):
        return sum(
            s.dur for s in by_name[name]
            if inside_step is None or (s.parent in step_ids) == inside_step
        ) / 1e3

    def per(total, count):
        return total / count if count else 0.0

    step_us = [s.dur / 1e3 for s in steps]
    self_us = [(s.dur - sum(c.dur for c in children[s.id])) / 1e3 for s in steps]
    enc_eval = [s for s in by_name["encoder.encode_batch"] if s.parent not in step_ids]
    eval_pairs = sum(s.n for s in enc_eval) / 2
    distance_pairs = sum(s.n for s in by_name["evaluation.pair_distances"])
    # A sweep cell is one train and the evaluate that follows it.
    cells = [
        cell
        for sweep in by_name["cli.sweep"]
        for cell in zip(
            [c for c in children[sweep.id] if c.name == "trainer.train"],
            [c for c in children[sweep.id] if c.name == "evaluation.evaluate"],
        )
    ]
    cell_s = [(t.dur + e.dur) / 1e9 for t, e in cells]
    reps = by_name["bench.rep"]
    rep_ids = {s.id for s in reps}

    def under_rep(s):
        while s.parent >= 0:
            if s.parent in rep_ids:
                return True
            s = spans[s.parent]
        return False

    featurize = by_name["data.featurize"]
    metrics = {
        "data.featurize_calls": per(sum(1 for s in featurize if under_rep(s)), len(reps)),
        "data.featurize_us_per_record": per(total_us("data.featurize"), sum(s.n for s in featurize)),
        "data.ingest_us_per_record": per(
            total_us("data.ingest"), sum(s.n for s in by_name["data.ingest"])
        ),
        "data.batching_us_per_epoch": per(total_us("data.make_batches"), len(by_name["data.make_batches"])),
        "encoder.fwd_us_per_step": per(total_us("encoder.encode_batch", True), n_steps),
        "encoder.bwd_us_per_step": per(total_us("encoder.encoder_backward", True), n_steps),
        "encoder.head_fwd_us_per_step": per(total_us("encoder.classify_pairs", True), n_steps),
        "encoder.head_bwd_us_per_step": per(total_us("encoder.pair_backward", True), n_steps),
        "encoder.fwd_us_per_pair": per(sum(s.dur for s in enc_eval) / 1e3, eval_pairs),
        "losses.metric_us_per_step": per(total_us("losses.cluster_purge_loss", True), n_steps),
        "losses.ce_us_per_step": per(total_us("losses.cross_entropy", True), n_steps),
        "losses.ce_calls_per_step": per(
            sum(1 for s in by_name["losses.cross_entropy"] if s.parent in step_ids), n_steps
        ),
        "verges.update_us_per_step": per(total_us("verges.batch_update", True), n_steps),
        "vecmath.cosine_calls_per_step": per(tracer.counts["cosine.train"], n_steps),
        "vecmath.cosine_calls_per_pair": per(tracer.counts["cosine.eval"], distance_pairs),
        "trainer.step_us_p50": percentile(step_us, 50),
        "trainer.step_us_p99": percentile(step_us, 99),
        "trainer.step_self_us": percentile(self_us, 50),
        "evaluation.cell_s_p50": percentile(cell_s, 50),
        "evaluation.permutation_us_per_resample": per(
            total_us("evaluation.permutation_pvalue"),
            sum(s.n for s in by_name["evaluation.permutation_pvalue"]),
        ),
        "evaluation.pair_distances_us_per_pair": per(total_us("evaluation.pair_distances"), distance_pairs),
    }
    for command in ("gen", "preprocess", "train", "eval", "stats", "export", "sweep"):
        durations = [s.dur / 1e9 for s in by_name[f"cli.{command}"]]
        metrics[f"cli.{command}_s"] = per(sum(durations), len(durations))
    samples = {
        "trainer.step_us_p50": n_steps,
        "trainer.step_us_p99": n_steps,
        "trainer.step_self_us": n_steps,
        "evaluation.cell_s_p50": len(cells),
    }

    def featurize_calls(first, last):
        return sum(1 for f in featurize if first.start <= f.start and f.end <= last.end)

    featurize_per = defaultdict(list)
    for s in spans:
        if s.name.startswith("cli."):
            featurize_per[s.name].append(featurize_calls(s, s))
    for t, e in cells:
        featurize_per["sweep cell"].append(featurize_calls(t, e))
    return metrics, samples, featurize_per
