"""Corpus schema, ingestion, preprocessing, feature hashing, minibatching,
and synthetic corpus generation.

Corpus wire format (one record per line, UTF-8, tab-separated, fixed order):

    class_id<TAB>label<TAB>origin<TAB>mutant

class_id is a decimal integer, label is 0 or 1, and the two text fields have
backslash-escaped tabs, newlines, and carriage returns. All records of one
class share the same origin text.
"""

from __future__ import annotations

import hashlib
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    ParseError,
    PurgelabError,
    SchemaError,
    StratifyError,
)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Geometric-mode constants. Non-equivalent mutants are offset by a controlled
# radial shift along a fixed "mutation" direction set shared across classes
# (mutation operators leave shared signatures); equivalents scatter along a
# disjoint "benign" direction set with the same magnitude profile, scaled by
# the noise knob. Matching magnitude profiles leave the two distance
# distributions overlapping (the regime the purge loss is meant to clean
# up), so the label signal lives in displacement direction, not length.
GEOMETRIC_SHIFT = 1.2
GEOMETRIC_JITTER = 0.5
GEOMETRIC_SUBSPACE_DIM = 8

# Largest synthetic corpus (n_classes * per_class records); the default is 320.
MAX_GEN_RECORDS = 100_000
# Largest geometric noise: far past where the scatter swamps the unit origin,
# and far below where a point's squared norm would overflow.
MAX_GEN_NOISE = 1e100
# Widest feature vector or layer. With every width at this bound the flat
# parameter vector holds under 2**57 float64s, so even the checkpoint's 3 x n
# block stays below numpy's 2**63-byte limit, and an array too large for the
# host's memory raises MemoryError.
MAX_DIM = 2**27


@dataclass(frozen=True)
class MutantRecord:
    """One (class id, origin text, mutant text, equivalence label) corpus row."""

    class_id: int
    origin_text: str
    mutant_text: str
    label: int

    def __post_init__(self):
        if not 0 <= self.class_id < 2**63:  # an int64 in every array that holds it
            raise SchemaError(f"class_id must be in [0, 2**63), got {self.class_id}")
        if self.label not in (0, 1):
            raise SchemaError(f"label must be 0 or 1, got {self.label!r}")
        if not self.origin_text or not self.mutant_text:
            raise SchemaError("origin and mutant texts must be nonempty")


@dataclass
class Corpus:
    records: list[MutantRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def validate_corpus(corpus: Corpus) -> None:
    """Check that all records of one class share an origin text."""
    origins: dict[int, str] = {}
    for record in corpus.records:
        known = origins.setdefault(record.class_id, record.origin_text)
        if known != record.origin_text:
            raise SchemaError(
                f"class {record.class_id} has conflicting origin texts"
            )


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape_match(match: re.Match) -> str:
    nxt = match.group(1)
    if nxt not in _UNESCAPED:
        raise ValueError(f"bad escape \\{nxt}" if nxt else "dangling backslash")
    return _UNESCAPED[nxt]


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(_unescape_match, text) if "\\" in text else text


def read_lines(path, error: type[PurgelabError] = ParseError):
    """Yield the lines of the UTF-8 text file ``path``, line endings kept.
    Bytes that are not UTF-8 raise ``error``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_file(chunks, path) -> None:
    """Replace the file ``path`` whole with ``chunks``, each a ``str`` (as UTF-8)
    or bytes-like, through a temporary file next to it and ``os.replace``. If
    anything raises, an interrupt included, ``path`` keeps its old bytes and the
    temporary file is removed. Not fsynced: a power loss is not covered."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):  # os.replace did not run or failed
            os.remove(tmp)


def _ascii_int(text: str, name: str) -> int:
    """The integer ``text`` spells in ASCII digits with no leading zero; ``int``
    also takes a sign, ``_``, blanks, leading zeros and non-ASCII digits, which
    a rewrite would not keep."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise ValueError(f"{name} must be ASCII digits with no leading zero, got {text!r}")
    return int(text)


def ingest(path) -> Corpus:
    """Parse a corpus file and validate the per-class origin invariant."""
    records: list[MutantRecord] = []
    # The records of a class repeat its origin field, so each distinct field
    # is unescaped once, and the records share its text.
    origins: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            class_id = _ascii_int(parts[0], "class_id")
            label = int(parts[1]) if parts[1] in ("0", "1") else parts[1]  # any other text fails MutantRecord
            origin = origins.get(parts[2])
            if origin is None:
                origin = origins[parts[2]] = _unescape(parts[2])
            record = MutantRecord(
                class_id=class_id,
                origin_text=origin,
                mutant_text=_unescape(parts[3]),
                label=label,
            )
        except (ValueError, SchemaError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        records.append(record)
    corpus = Corpus(records=records)
    validate_corpus(corpus)
    return corpus


def write_corpus(corpus: Corpus, path) -> None:
    write_file((f"{r.class_id}\t{r.label}\t{_escape(r.origin_text)}\t{_escape(r.mutant_text)}\n"
                for r in corpus.records), path)


def _squash_ws(text: str) -> str:
    return " ".join(text.split())


def dedup(corpus: Corpus) -> Corpus:
    """Drop records whose whitespace-normalized (origin, mutant) pair repeats.

    Keeps the first occurrence, preserves order, and is idempotent.
    """
    seen: set[tuple[str, str]] = set()
    kept: list[MutantRecord] = []
    for record in corpus.records:
        key = (_squash_ws(record.origin_text), _squash_ws(record.mutant_text))
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return Corpus(records=kept)


def check_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must be in (0, 1), got {fraction!r}")


def split(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Label-stratified split into (train, test), reproducible from seed.

    Each side preserves the corpus equivalence ratio within one record per
    label; together the sides partition the corpus. Record order within each
    side follows the original corpus order.
    """
    check_fraction(fraction)
    by_label: dict[int, list[int]] = {0: [], 1: []}
    for idx, record in enumerate(corpus.records):
        by_label[record.label].append(idx)
    for label, indices in by_label.items():
        if not indices:
            raise StratifyError(f"label {label} has no records to stratify")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (0, 1):
        indices = np.array(by_label[label], dtype=np.int64)
        order = rng.permutation(len(indices))
        take = int(fraction * len(indices) + 0.5)  # round half up
        train_idx.extend(indices[order[:take]].tolist())
        test_idx.extend(indices[order[take:]].tolist())
    train_idx.sort()
    test_idx.sort()
    train = Corpus([corpus.records[i] for i in train_idx])
    test = Corpus([corpus.records[i] for i in test_idx])
    return train, test


class HashingFeatures:
    """Feature provider that hashes token unigrams and bigrams into
    sign-hashed, L2-normalized ``dim``-vectors, stable across runs.

    Two memos live as long as the instance.

    - The gram memo maps each distinct gram (a token, or a pair of tokens) to
      its signed slot: ``bucket`` for a + sign, ``bucket + dim`` for a - sign.
      A gram is hashed once, and a memo hit builds no string.
    - The line memo maps a line (text split on ``"\\n"``) and the last token
      ahead of it to the slots of the line's unigrams and of the bigrams that
      end in it, the first of which spans the break, and to the last token
      ahead of the next line. A token never holds whitespace, so each gram of
      a text ends in exactly one of its lines.

    A text of n tokens has 2n - 1 grams. The vector's entries sum to the
    signed count of those grams, an odd number, so the vector is never zero.
    """

    def __init__(self, dim: int = 256):
        if not isinstance(dim, numbers.Integral) or not 16 <= dim <= MAX_DIM:
            raise ConfigError(f"feature dim must be an integer in [16, {MAX_DIM}], got {dim!r}")
        self.dim = dim
        self._slots: dict[str | tuple[str, str], int] = {}
        self._lines: dict[tuple[tuple[str, ...], str], tuple[list[int], tuple[str, ...]]] = {}

    def _slot(self, gram: str | tuple[str, str]) -> int:
        tokens = (gram,) if isinstance(gram, str) else gram
        key = f"{len(tokens)}:" + "\x1f".join(tokens)
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % self.dim
        slot = self._slots[gram] = bucket if digest[8] & 1 else bucket + self.dim
        return slot

    def _line(self, before: tuple[str, ...], line: str) -> tuple[list[int], tuple[str, ...]]:
        """Memoize and return the slots of the grams that end in ``line``, with
        ``before`` the token ahead of it (none at the start of a text), and the
        token ahead of the next line."""
        tokens = [*before, *_TOKEN_RE.findall(line)]
        memo = self._slots
        grams = [*tokens[len(before) :], *zip(tokens, tokens[1:])]
        slots = [memo[gram] if gram in memo else self._slot(gram) for gram in grams]
        entry = self._lines[before, line] = (slots, tuple(tokens[-1:]))
        return entry

    def vector(self, text: str) -> np.ndarray:
        lines = self._lines
        slots: list[int] = []
        before: tuple[str, ...] = ()  # the last token so far
        for line in text.split("\n"):
            entry = lines.get((before, line))
            line_slots, before = self._line(before, line) if entry is None else entry
            slots += line_slots
        if not slots:
            raise DegenerateInputError("text contains no tokens")
        # Exact integer counts, so this has the bits of adding +-1.0 per gram.
        counts = np.bincount(slots, minlength=2 * self.dim)
        vec = np.subtract(counts[: self.dim], counts[self.dim :], dtype=np.float64)
        return vec / float(np.linalg.norm(vec))


class TableFeatures:
    """Feature provider backed by an explicit text -> vector table."""

    def __init__(self, dim: int, table: dict[str, np.ndarray]):
        self.dim = dim
        self.table = table

    def vector(self, text: str) -> np.ndarray:
        try:
            return self.table[text]
        except KeyError:
            raise DegenerateInputError(f"no feature entry for text {text!r}") from None


def write_feature_table(features: TableFeatures, path) -> None:
    def lines():
        yield f"feature-table 1 {features.dim}\n"
        for key, vec in features.table.items():
            yield f"{_escape(key)}\t{' '.join(repr(float(x)) for x in vec)}\n"
    write_file(lines(), path)


def load_feature_table(path) -> TableFeatures:
    """Read a feature table; a malformed header or line, a component that is
    not a finite float or not spelled in ASCII without ``_``, a repeated key,
    or bytes that are not UTF-8 raise :class:`ParseError`."""
    lines = read_lines(path)
    header = next(lines, "").rstrip("\n").split()
    if len(header) != 3 or header[0] != "feature-table" or header[1] != "1":
        raise ParseError(f"not a feature table: {header!r}")
    try:
        dim = _ascii_int(header[2], "feature table dim")
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from None
    table: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            key, comps = line.split("\t")
            if not comps.isascii() or "_" in comps:  # float() takes both, a rewrite keeps neither
                bad = next(x for x in comps.split(" ") if not x.isascii() or "_" in x)
                raise ValueError(f"components must be ASCII with no '_', got {bad!r}")
            key = _unescape(key)
            vec = np.array([float(x) for x in comps.split(" ")], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if vec.shape[0] != dim:
            raise ParseError(f"line {lineno}: expected {dim} components")
        if not np.isfinite(vec).all():
            raise ParseError(f"line {lineno}: components must be finite")
        if key in table:
            raise ParseError(f"line {lineno}: repeated key {key!r}")
        table[key] = vec
    return TableFeatures(dim=dim, table=table)


class FeatureCache:
    """A featurized corpus: per-record class ids, labels and mutant feature
    rows in corpus order, and one origin feature row per class. All records of
    a class share its origin text, so ``origins`` holds each class's vector
    once, in order of first appearance, and record i's origin row is
    ``origins[origin_rows[i]]``. Built once per corpus by :meth:`from_corpus`;
    a minibatch is a record subset made by :meth:`take`, which shares the
    origins. Every consumer reads its records through one, so it alone
    rejects an empty corpus."""

    def __init__(self, class_ids, labels, origins, origin_rows, mutant_features):
        self.class_ids = np.asarray(class_ids, dtype=np.int64)
        if self.class_ids.size == 0:
            raise ConfigError("empty corpus: a feature cache needs at least one record")
        self.labels = np.asarray(labels, dtype=np.int64)
        self.origins = np.asarray(origins, dtype=np.float64)
        self.origin_rows = np.asarray(origin_rows, dtype=np.int64)
        self.mutant_features = np.asarray(mutant_features, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.class_ids.shape[0])

    @property
    def origin_features(self) -> np.ndarray:
        """The origin feature row of each record, gathered from ``origins``."""
        return self.origins[self.origin_rows]

    @classmethod
    def from_corpus(cls, corpus: Corpus, provider) -> "FeatureCache":
        validate_corpus(corpus)
        n = len(corpus)
        mutant_features = np.zeros((n, provider.dim), dtype=np.float64)
        origin_rows = np.zeros(n, dtype=np.int64)
        row_of: dict[int, int] = {}  # class id -> its row of ``origins``
        origins: list[np.ndarray] = []
        for i, record in enumerate(corpus.records):
            row = row_of.get(record.class_id)
            if row is None:
                row = row_of[record.class_id] = len(origins)
                origins.append(provider.vector(record.origin_text))
            origin_rows[i] = row
            mutant_features[i] = provider.vector(record.mutant_text)
        return cls(
            class_ids=[r.class_id for r in corpus.records],
            labels=[r.label for r in corpus.records],
            origins=np.array(origins, dtype=np.float64),
            origin_rows=origin_rows,
            mutant_features=mutant_features,
        )

    def take(self, rows) -> "FeatureCache":
        """The given records, in the given order."""
        return FeatureCache(
            self.class_ids[rows], self.labels[rows], self.origins, self.origin_rows[rows], self.mutant_features[rows]
        )


def make_batches(data: FeatureCache, batch_size: int, seed: int, epoch_index: int) -> list[FeatureCache]:
    """Epoch-deterministic shuffled minibatches; the final partial batch stays."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if epoch_index < 0:
        raise ConfigError(f"epoch_index must be >= 0, got {epoch_index}")
    order = np.random.default_rng([seed, epoch_index]).permutation(len(data))
    return [data.take(order[s : s + batch_size]) for s in range(0, len(data), batch_size)]


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate_synthetic(
    mode: str,
    n_classes: int = 8,
    per_class: int = 40,
    equiv_fraction: float = 0.5,
    noise: float = 1.0,
    seed: int = 0,
    feature_dim: int = 256,
) -> tuple[Corpus, TableFeatures | None]:
    """Generate a synthetic mutant corpus.

    ``geometric`` mode emits per-class clusters directly in feature space and
    returns a parallel feature table (bypassing text hashing): equivalents
    scatter around the class origin point with magnitude noise*|N(0,1)|,
    non-equivalents get an extra controlled radial shift. With noise=0 every
    equivalent sits exactly on its origin.

    ``codegen`` mode emits small C-style program texts with operator
    substitutions; mutations in unreachable or no-effect positions (e.g.
    after an unconditional return) are labeled equivalent. Features for
    codegen corpora come from the usual hashing provider.
    """
    if mode not in ("geometric", "codegen"):
        raise ConfigError(f"unknown synthetic mode {mode!r}")
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    if per_class < 4:
        raise ConfigError(f"per_class must be >= 4, got {per_class}")
    if n_classes * per_class > MAX_GEN_RECORDS:
        raise ConfigError(f"{n_classes} x {per_class} records is more than {MAX_GEN_RECORDS}")
    if not 0.0 < equiv_fraction < 1.0:
        raise ConfigError(f"equiv_fraction must be in (0, 1), got {equiv_fraction!r}")
    if not 0.0 <= noise <= MAX_GEN_NOISE:
        raise ConfigError(f"noise must be in [0, {MAX_GEN_NOISE:g}], got {noise!r}")
    n_equiv = int(per_class * equiv_fraction + 0.5)
    if n_equiv == 0 or n_equiv == per_class:
        raise ConfigError("equiv_fraction leaves one label empty at this per_class")
    if mode == "geometric":
        if not 2 * GEOMETRIC_SUBSPACE_DIM <= feature_dim <= MAX_DIM:
            raise ConfigError(
                f"geometric mode needs feature_dim in [{2 * GEOMETRIC_SUBSPACE_DIM}, {MAX_DIM}], got {feature_dim}"
            )
        return _generate_geometric(n_classes, per_class, n_equiv, noise, seed, feature_dim)
    return _generate_codegen(n_classes, per_class, n_equiv, seed), None


def _generate_geometric(n_classes, per_class, n_equiv, noise, seed, dim):
    rng = np.random.default_rng(seed)
    k = GEOMETRIC_SUBSPACE_DIM
    # Disjoint orthonormal direction sets for mutation and benign displacements.
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2 * k)))
    mutation_dirs, benign_dirs = basis[:, :k], basis[:, k:]
    records: list[MutantRecord] = []
    table: dict[str, np.ndarray] = {}
    for c in range(n_classes):
        origin = _unit(rng, dim)
        origin_key = f"class{c:03d}/origin"
        table[origin_key] = origin
        for j in range(per_class):
            equivalent = j < n_equiv
            jitter = noise * GEOMETRIC_JITTER * abs(rng.standard_normal())
            jitter_dir = _unit(rng, dim)
            magnitude = GEOMETRIC_SHIFT * abs(rng.standard_normal())
            weights = _unit(rng, k)
            if equivalent:
                # Scales with noise so that noise=0 parks equivalents exactly
                # on their origin point.
                offset = noise * magnitude * (benign_dirs @ weights)
            else:
                offset = magnitude * (mutation_dirs @ weights)
            point = origin + jitter * jitter_dir + offset
            if jitter > 0.0 or float(np.linalg.norm(offset)) > 0.0:
                point = point / np.linalg.norm(point)
            mutant_key = f"class{c:03d}/mutant{j:03d}"
            table[mutant_key] = point
            records.append(
                MutantRecord(
                    class_id=c,
                    origin_text=origin_key,
                    mutant_text=mutant_key,
                    label=1 if equivalent else 0,
                )
            )
    return Corpus(records=records), TableFeatures(dim=dim, table=table)


def _codegen_origin(c: int) -> str:
    return (
        f"int scan_{c}(int items[], int count, int limit) {{\n"
        f"    int total_{c} = 0;\n"
        f"    for (int i = 0; i < count; i++) {{\n"
        f"        if (items[i] > limit) {{\n"
        f"            total_{c} = total_{c} + items[i];\n"
        f"        }}\n"
        f"    }}\n"
        f"    return total_{c};\n"
        f"}}\n"
    )


def _codegen_live_mutation(origin: str, c: int, kind: int, k: int) -> str:
    if kind == 0:
        return origin.replace(
            f"total_{c} = total_{c} + items[i];",
            f"total_{c} = total_{c} - items[i] - {k};",
        )
    if kind == 1:
        return origin.replace("items[i] > limit", f"items[i] > limit + {k}")
    if kind == 2:
        return origin.replace(f"int total_{c} = 0;", f"int total_{c} = {k};")
    return origin.replace("int i = 0;", f"int i = {k};")


def _generate_codegen(n_classes, per_class, n_equiv, seed):
    rng = np.random.default_rng(seed)
    records: list[MutantRecord] = []
    for c in range(n_classes):
        origin = _codegen_origin(c)
        for j in range(per_class):
            # Disjoint constant ranges per mutant keep all texts distinct.
            k = 1000 * j + int(rng.integers(1, 1000))
            if j < n_equiv:
                # Dead position: a statement after the unconditional return
                # never executes, so the mutant behaves identically.
                mutant = origin.replace(
                    f"    return total_{c};\n",
                    f"    return total_{c};\n    total_{c} += {k};\n",
                )
                label = 1
            else:
                mutant = _codegen_live_mutation(origin, c, j % 4, k)
                label = 0
            records.append(
                MutantRecord(
                    class_id=c, origin_text=origin, mutant_text=mutant, label=label
                )
            )
    return Corpus(records=records)
