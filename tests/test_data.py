import ast
import hashlib
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purgelab import data as data_module
from purgelab.data import (
    Corpus,
    FeatureCache,
    HashingFeatures,
    MutantRecord,
    TableFeatures,
    _escape,
    _unescape,
    dedup,
    generate_synthetic,
    ingest,
    load_feature_table,
    make_batches,
    split,
    write_corpus,
    write_feature_table,
    write_file,
)
from purgelab.errors import (
    ConfigError,
    DegenerateInputError,
    ParseError,
    SchemaError,
    StratifyError,
)
from purgelab.vecmath import cosine_distance


def rec(cid, origin, mutant, label):
    return MutantRecord(class_id=cid, origin_text=origin, mutant_text=mutant, label=label)


def small_corpus(n_eq=3, n_ne=3):
    records = []
    for i in range(n_eq):
        records.append(rec(0, "int f() { return 0; }", f"int f() {{ return 0; }} // eq{i}", 1))
    for i in range(n_ne):
        records.append(rec(0, "int f() { return 0; }", f"int f() {{ return {i + 1}; }}", 0))
    return Corpus(records=records)


# --- record/corpus validation ----------------------------------------------


def test_record_validation():
    with pytest.raises(SchemaError):
        rec(-1, "a", "b", 0)
    with pytest.raises(SchemaError):
        rec(0, "", "b", 0)
    with pytest.raises(SchemaError):
        rec(0, "a", "b", 2)


# --- ingest / write ----------------------------------------------------------


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert len(ingest(path)) == 0


def test_ingest_single_line(tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text("\n3\t1\tint f();\tint g();\n\n")  # blank lines are skipped
    corpus = ingest(path)
    assert len(corpus) == 1
    assert corpus.records[0] == rec(3, "int f();", "int g();", 1)


def test_ingest_rejects_conflicting_origins(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("3\t1\torigin-a\tm1\n3\t0\torigin-b\tm2\n")
    with pytest.raises(SchemaError):
        ingest(path)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("3\t1\ta\tb\nnot-a-number\t1\ta\tb\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest(path)


@pytest.mark.parametrize("class_id, label", [
    pytest.param("1_0", "1", id="class-underscore"),
    pytest.param("+1", "0", id="class-plus"),
    pytest.param(" 0 ", "1", id="class-blanks"),
    pytest.param("\u0663", "0", id="class-arabic-indic-digit"),
    pytest.param("-1", "0", id="class-negative"),
    pytest.param("007", "1", id="class-leading-zeros"),
    pytest.param("3", "01", id="label-leading-zero"),
    pytest.param("3", "+1", id="label-plus"),
    pytest.param("3", " 1", id="label-blank"),
    pytest.param("3", "\u0661", id="label-arabic-indic-digit"),
])
def test_ingest_rejects_integers_not_in_ascii_digits(tmp_path, class_id, label):
    # int() takes each of these, and preprocess would then write it in
    # canonical form, so the record would not survive a round trip.
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t1\to\tm\n{class_id}\t{label}\to2\tm\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: "):
        ingest(path)


def test_corpus_roundtrip_with_escapes(tmp_path):
    corpus = Corpus(
        records=[
            rec(0, "line1\nline2", "tab\there", 1),
            rec(1, "back\\slash", "carriage\rreturn", 0),
        ]
    )
    path = tmp_path / "corpus.tsv"
    write_corpus(corpus, path)
    back = ingest(path)
    assert back.records == corpus.records


@pytest.mark.parametrize(
    "field, message",
    [("bad\\xescape", r"line 2: bad escape \\x"), ("trailing\\", "line 2: dangling backslash")],
)
def test_ingest_rejects_bad_escapes_with_line(tmp_path, field, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t1\to\tm\n0\t0\to\t{field}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        ingest(path)


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(
        st.one_of(st.sampled_from(["\\", "\\n", "\\t", "\\r", "\n", "\t", "\r", "n"]), st.text()),
        max_size=8,
    ).map("".join)
)
def test_unescape_inverts_escape(text):
    assert _unescape(_escape(text)) == text


# --- dedup -------------------------------------------------------------------


def test_dedup_distinct_corpus_unchanged():
    corpus = small_corpus()
    assert dedup(corpus).records == corpus.records


def test_dedup_keeps_first_occurrence():
    a = rec(0, "o", "m", 1)
    b = rec(0, "o", "m", 0)  # same pair, different label: still a duplicate
    corpus = Corpus(records=[a, b])
    assert dedup(corpus).records == [a]


def test_dedup_whitespace_normalized():
    a = rec(0, "int  f()", "x =  1;", 1)
    b = rec(0, "int f()", "x = 1;", 1)
    corpus = Corpus(records=[a, b])
    assert len(dedup(corpus)) == 1


def test_dedup_idempotent_and_shrinking():
    rng = np.random.default_rng(0)
    for _ in range(20):
        records = []
        for _ in range(int(rng.integers(1, 30))):
            cid = int(rng.integers(0, 3))
            records.append(
                rec(cid, f"origin-{cid}", f"mutant-{rng.integers(0, 8)}", int(rng.integers(0, 2)))
            )
        corpus = Corpus(records=records)
        once = dedup(corpus)
        assert len(once) <= len(corpus)
        assert dedup(once).records == once.records


# --- split --------------------------------------------------------------------


def test_split_balanced_ten_ten():
    corpus = small_corpus(n_eq=10, n_ne=10)
    train, test = split(corpus, 0.5, seed=1)
    assert sum(r.label for r in train.records) == 5
    assert sum(1 - r.label for r in train.records) == 5
    assert len(train) == len(test) == 10


def test_split_reproducible():
    corpus = small_corpus(n_eq=9, n_ne=7)
    a = split(corpus, 0.5, seed=3)
    b = split(corpus, 0.5, seed=3)
    assert a[0].records == b[0].records
    assert a[1].records == b[1].records


def test_split_appendix_profile_918_181():
    # 918 equivalents split evenly; 181 non-equivalents split 91/90
    records = [rec(0, "o", f"eq-{i}", 1) for i in range(918)]
    records += [rec(0, "o", f"ne-{i}", 0) for i in range(181)]
    train, test = split(Corpus(records=records), 0.5, seed=0)
    train_eq = sum(r.label for r in train.records)
    test_eq = sum(r.label for r in test.records)
    assert abs(train_eq - 459) <= 1 and abs(test_eq - 459) <= 1
    train_ne = len(train) - train_eq
    test_ne = len(test) - test_eq
    assert {train_ne, test_ne} == {90, 91}


def test_split_partition():
    corpus = small_corpus(n_eq=11, n_ne=6)
    train, test = split(corpus, 0.3, seed=9)
    merged = sorted(train.records + test.records, key=lambda r: r.mutant_text)
    assert merged == sorted(corpus.records, key=lambda r: r.mutant_text)
    assert not set(r.mutant_text for r in train.records) & set(
        r.mutant_text for r in test.records
    )
    position = {r.mutant_text: i for i, r in enumerate(corpus.records)}
    for side in (train, test):  # each side keeps corpus order
        indices = [position[r.mutant_text] for r in side.records]
        assert indices == sorted(indices)


def test_split_missing_label():
    corpus = Corpus(records=[rec(0, "o", "m", 1)])
    with pytest.raises(StratifyError):
        split(corpus, 0.5, seed=0)


def test_split_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        split(small_corpus(), 0.0, seed=0)
    with pytest.raises(ConfigError):
        split(small_corpus(), 1.0, seed=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_stratification_within_one(seed):
    rng = np.random.default_rng(seed)
    n_eq = int(rng.integers(1, 40))
    n_ne = int(rng.integers(1, 40))
    fraction = float(rng.uniform(0.1, 0.9))
    corpus = small_corpus(n_eq=n_eq, n_ne=n_ne)
    train, test = split(corpus, fraction, seed=seed)
    assert len(train) + len(test) == len(corpus)
    train_eq = sum(r.label for r in train.records)
    assert abs(train_eq - fraction * n_eq) <= 1.0
    train_ne = len(train) - train_eq
    assert abs(train_ne - fraction * n_ne) <= 1.0


# --- feature extraction -------------------------------------------------------


def test_extract_features_deterministic():
    text = "int mid = l + (h - l) / 2;"
    assert np.array_equal(HashingFeatures(256).vector(text), HashingFeatures(256).vector(text))


def test_extract_features_unit_norm():
    for text in ("return x;", "a b c d e", "x += 1"):
        assert abs(np.linalg.norm(HashingFeatures(64).vector(text)) - 1.0) <= 1e-9


def test_extract_features_sensitive_to_one_token():
    a = HashingFeatures(256).vector("return mid ;")
    b = HashingFeatures(256).vector("return mid + 1 ;")
    assert not np.array_equal(a, b)


def test_extract_features_rejects_empty():
    with pytest.raises(DegenerateInputError):
        HashingFeatures(256).vector("")
    with pytest.raises(DegenerateInputError):
        HashingFeatures(256).vector("   \n  ")


def test_hashing_features_dim_validation():
    assert HashingFeatures().dim == 256
    assert HashingFeatures(16).dim == 16
    with pytest.raises(ConfigError):
        HashingFeatures(8)


@pytest.mark.parametrize("dim", [0, -3, 8, 16.5, "32"])
def test_extract_features_rejects_bad_dim(dim):
    with pytest.raises(ConfigError):
        HashingFeatures(dim).vector("a b")


# sha256 of the origin and mutant feature rows of a fixed codegen corpus,
# computed with the per-gram hashing loop; any change to the hashed bits fails.
FEATURE_DIGESTS = {
    16: (
        "c28f9d8c381415bd07a9fb49ee78afe15db3a9404f87a4baa2ca012b6820d7b1",
        "85c717918b4766b5651ab16a6bf845afbeb74e6ef852c3b7f1d7a434190f959f",
    ),
    256: (
        "716c7c28b9aef26a937379fe48e2111ea24687a3f23e92ad65e0a2303c734c57",
        "ace8c169aa7d2a37278f11d44abf7ac4ba7ac6119b09a600143bd16e0599dfad",
    ),
}


@pytest.mark.parametrize("dim", sorted(FEATURE_DIGESTS))
def test_hashed_feature_bits_are_pinned(dim):
    corpus = generate_synthetic("codegen", n_classes=8, per_class=16, seed=5)[0]
    data = FeatureCache.from_corpus(corpus, HashingFeatures(dim))
    digests = tuple(
        hashlib.sha256(rows.tobytes()).hexdigest()
        for rows in (data.origin_features, data.mutant_features)
    )
    assert digests == FEATURE_DIGESTS[dim]


def reference_features(text: str, dim: int) -> np.ndarray:
    """One blake2b per unigram and bigram occurrence, accumulated one signed
    unit at a time."""
    tokens = re.findall(r"\w+|[^\w\s]", text)
    if not tokens:
        raise DegenerateInputError("text contains no tokens")
    vec = np.zeros(dim, dtype=np.float64)
    for order in (1, 2):
        for i in range(len(tokens) - order + 1):
            gram = f"{order}:" + "\x1f".join(tokens[i : i + order])
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
            bucket = int.from_bytes(digest[:8], "little") % dim
            vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    return vec / float(np.linalg.norm(vec))


# A small alphabet makes repeated grams and memo hits likely; the non-ASCII
# tokens exercise the UTF-8 encoding of each gram. Tokens are separated by
# spaces or by line breaks ("\n", "\r\n", blank and whitespace-only lines),
# so texts have one-token lines and grams that span one or more line breaks.
_TOKENS = st.sampled_from(["a", "b", "x", "mid", "(", ")", ";", "+=", "é", "Ω", "变量", "ß2"])
_SEPARATORS = st.sampled_from([" ", " ", "\n", "\r\n", "\n\n", " \n\t\r\n"])
_TEXTS = st.tuples(
    st.sampled_from(["", "\n", " \r\n"]),
    st.lists(st.tuples(_TOKENS, _SEPARATORS), min_size=1, max_size=12),
).map(lambda t: t[0] + "".join(token + sep for token, sep in t[1]))


def _features_or_error(featurize, text: str):
    try:
        return featurize(text).tobytes()
    except DegenerateInputError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_TEXTS, min_size=1, max_size=4), dim=st.sampled_from([16, 17, 64, 256]))
@example(texts=["x", "变量", "a a a a", "( ( ( ("], dim=16)  # single tokens, repeated grams
# bigrams that span line breaks around one-token lines; blank lines
@example(texts=["a\nb\nc", "a\n\nb\r\n \nc\n", "x y\nz\nmid ; (", "\n\na b\n"], dim=16)
def test_hashing_features_match_per_gram_reference(texts, dim):
    provider = HashingFeatures(dim)  # shared, so later texts hit the memo
    for text in texts + texts:
        expected = _features_or_error(lambda t: reference_features(t, dim), text)
        assert _features_or_error(provider.vector, text) == expected
        assert _features_or_error(HashingFeatures(dim).vector, text) == expected


def test_write_file_writes_str_as_utf8_and_bytes_as_is(tmp_path):
    path = tmp_path / "out.bin"
    write_file(["é\r\n", b"\x00\xff", np.array([1.0])], path)
    assert path.read_bytes() == "é\r\n".encode("utf-8") + b"\x00\xff" + np.array([1.0]).tobytes()
    # created like any other file, so its mode follows the umask
    (tmp_path / "plain").touch()
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode


def test_write_file_keeps_the_old_file_when_the_chunks_raise(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise ParseError("bad row")

    with pytest.raises(ParseError):
        write_file(chunks(), path)
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "old\n"


def _writers(tree):
    """The enclosing function of each ``open`` call whose mode writes,
    appends or creates, or is not a string literal, and of each
    ``write_text``/``write_bytes`` call."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                writes = any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)
                if (name == "open" and writes) or name in ("write_text", "write_bytes"):
                    found.append(func)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


def test_write_file_is_the_only_writer():
    # Every output goes through write_file, so every output is replaced whole.
    package = Path(data_module.__file__).parent
    sites = [
        (path.name, func)
        for path in sorted(package.glob("*.py"))
        for func in _writers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("data.py", "write_file")]


def _constructors(tree):
    """The qualified name of the function around each call of ``FeatureCache``,
    or of ``cls`` inside the ``FeatureCache`` class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "FeatureCache" or (child.func.id == "cls" and scope[:1] == ["FeatureCache"]):
                    found.append(".".join(scope))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, [*scope, child.name] if named else scope)

    visit(tree, [])
    return found


def test_only_from_corpus_and_take_make_a_feature_cache():
    # A cache comes from a corpus, and every minibatch from FeatureCache.take,
    # so nothing else needs to know how a cache lays out its rows.
    package = Path(data_module.__file__).parent
    sites = [
        (path.name, func)
        for path in sorted(package.glob("*.py"))
        for func in _constructors(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("data.py", "FeatureCache.from_corpus"), ("data.py", "FeatureCache.take")]


def test_feature_table_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    table = TableFeatures(
        dim=16, table={f"key-{i}": rng.normal(size=16) for i in range(5)}
    )
    path = tmp_path / "features.tsv"
    write_feature_table(table, path)
    back = load_feature_table(path)
    assert back.dim == 16
    assert set(back.table) == set(table.table)
    for key in table.table:
        assert np.array_equal(back.table[key], table.table[key])
    path.write_text(path.read_text().replace("feature-table 1 16", "feature-table 2 16"))  # another version
    with pytest.raises(ParseError, match="not a feature table"):
        load_feature_table(path)


def test_feature_table_key_with_escapes_roundtrips(tmp_path):
    key = "tab\there\nnew\\line\\n\rend\\"
    table = TableFeatures(dim=2, table={key: np.array([0.5, -1.0])})
    path = tmp_path / "features.tsv"
    write_feature_table(table, path)
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")  # a blank line is skipped
    back = load_feature_table(path)
    assert list(back.table) == [key]
    assert np.array_equal(back.table[key], table.table[key])


@pytest.mark.parametrize("key, message", [("k\\x", r"bad escape \\x"), ("k\\", "dangling backslash")])
def test_feature_table_bad_key_escape_is_parse_error(tmp_path, key, message):
    path = tmp_path / "features.tsv"
    path.write_text(f"feature-table 1 2\nok\t1.0 2.0\n{key}\t1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 3: {message}"):
        load_feature_table(path)


@pytest.mark.parametrize("dim", ["+2", "2_0", "\u0662", "-2", "016"])
def test_feature_table_dim_must_be_ascii_digits(tmp_path, dim):
    path = tmp_path / "features.tsv"
    path.write_text(f"feature-table 1 {dim}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="feature table dim must be ASCII digits"):
        load_feature_table(path)


def test_table_features_unknown_key():
    table = TableFeatures(dim=4, table={})
    with pytest.raises(DegenerateInputError):
        table.vector("missing")


# --- batching -----------------------------------------------------------------


def test_make_batches_sizes():
    corpus = small_corpus(n_eq=5, n_ne=5)
    data = FeatureCache.from_corpus(corpus, HashingFeatures(32))
    batches = make_batches(data, batch_size=4, seed=0, epoch_index=0)
    assert [len(b) for b in batches] == [4, 4, 2]


def test_make_batches_epoch_deterministic():
    corpus = small_corpus(n_eq=6, n_ne=6)
    data = FeatureCache.from_corpus(corpus, HashingFeatures(32))
    a = make_batches(data, 4, seed=5, epoch_index=2)
    b = make_batches(data, 4, seed=5, epoch_index=2)
    c = make_batches(data, 4, seed=5, epoch_index=3)
    assert all(np.array_equal(x.mutant_features, y.mutant_features) for x, y in zip(a, b))
    assert any(
        not np.array_equal(x.mutant_features, y.mutant_features) for x, y in zip(a, c)
    )


def test_make_batches_copies_no_more_than_one_feature_table():
    # Each batch takes its own mutant rows from the cache; the epoch makes no
    # copy of the whole table and no stacked origin-and-mutant block.
    corpus, _ = generate_synthetic("codegen", n_classes=8, per_class=40, seed=0)
    data = FeatureCache.from_corpus(corpus, HashingFeatures(256))
    table_bytes = len(data) * 256 * 8
    tracemalloc.start()
    try:
        make_batches(data, 4, seed=0, epoch_index=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes


def test_make_batches_empty_corpus():
    with pytest.raises(ConfigError, match="empty corpus"):
        make_batches(FeatureCache.from_corpus(Corpus(), HashingFeatures()), 4, 0, 0)


def test_feature_cache_rejects_an_empty_corpus():
    # Every consumer gets its records through a FeatureCache, so it alone
    # rejects an empty corpus, however it is made.
    data = FeatureCache.from_corpus(small_corpus(), HashingFeatures(32))
    with pytest.raises(ConfigError, match="empty corpus"):
        FeatureCache.from_corpus(Corpus(), HashingFeatures(32))
    with pytest.raises(ConfigError, match="empty corpus"):
        FeatureCache([], [], data.origins, [], np.zeros((0, 32)))
    with pytest.raises(ConfigError, match="empty corpus"):
        data.take([])


def test_make_batches_rejects_bad_size():
    with pytest.raises(ConfigError):
        make_batches(FeatureCache.from_corpus(small_corpus(), HashingFeatures(32)), 0, 0, 0)
    with pytest.raises(ConfigError):
        make_batches(FeatureCache.from_corpus(small_corpus(), HashingFeatures(32)), 4, 0, -1)


def test_feature_cache_matches_provider():
    corpus = small_corpus()
    provider = HashingFeatures(32)
    cache = FeatureCache.from_corpus(corpus, provider)
    assert len(cache) == len(corpus)
    for i, record in enumerate(corpus.records):
        assert np.array_equal(cache.mutant_features[i], provider.vector(record.mutant_text))
        assert np.array_equal(cache.origin_features[i], provider.vector(record.origin_text))


def test_feature_cache_rejects_conflicting_origins():
    # An in-memory corpus never passes through ingest, so the cache checks it:
    # one origin row per class would silently keep only the first text.
    corpus = Corpus(records=[rec(0, "int a;", "int b;", 1), rec(0, "float z = 1;", "float z = 2;", 0)])
    with pytest.raises(SchemaError, match="class 0 has conflicting origin texts"):
        FeatureCache.from_corpus(corpus, HashingFeatures(16))


# --- synthetic generation -------------------------------------------------------


def test_generate_geometric_reproducible():
    a_corpus, a_table = generate_synthetic("geometric", n_classes=4, per_class=8, seed=3)
    b_corpus, b_table = generate_synthetic("geometric", n_classes=4, per_class=8, seed=3)
    assert a_corpus.records == b_corpus.records
    for key in a_table.table:
        assert np.array_equal(a_table.table[key], b_table.table[key])


def test_generate_geometric_zero_noise_equivalents_sit_on_origin():
    corpus, table = generate_synthetic(
        "geometric", n_classes=2, per_class=6, equiv_fraction=0.5, noise=0.0, seed=1
    )
    for record in corpus.records:
        if record.label == 1:
            d = cosine_distance(table.vector(record.origin_text), table.vector(record.mutant_text))
            assert d <= 1e-12


def test_generate_geometric_noise_bound():
    # at the bound every point is still a unit vector; past it nothing is generated
    _, table = generate_synthetic(
        "geometric", n_classes=2, per_class=4, noise=data_module.MAX_GEN_NOISE, feature_dim=16
    )
    norms = np.linalg.norm(np.stack(list(table.table.values())), axis=1)
    assert np.allclose(norms, 1.0)
    for noise in (np.nextafter(data_module.MAX_GEN_NOISE, np.inf), 1e300, np.inf, np.nan, -1.0):
        with pytest.raises(ConfigError, match="noise must be in"):
            generate_synthetic("geometric", n_classes=2, per_class=4, noise=noise, feature_dim=16)


def test_generate_geometric_label_counts():
    corpus, _ = generate_synthetic("geometric", n_classes=3, per_class=10, equiv_fraction=0.3, seed=0)
    per_class_eq = 3
    labels = np.array([r.label for r in corpus.records])
    assert labels.sum() == 3 * per_class_eq
    assert len(corpus) == 30


def test_generate_codegen_dead_site_mutants_are_equivalent():
    corpus, table = generate_synthetic("codegen", n_classes=3, per_class=8, seed=2)
    assert table is None
    for record in corpus.records:
        inserted_after_return = "return total_" in record.mutant_text and (
            record.mutant_text.count("total_") > record.origin_text.count("total_")
        )
        if record.label == 1:
            # the only equivalent mutation is the statement after the return
            assert inserted_after_return
        else:
            assert record.mutant_text != record.origin_text


def test_generate_codegen_distinct_mutants():
    corpus, _ = generate_synthetic("codegen", n_classes=2, per_class=12, seed=4)
    texts = [(r.class_id, r.mutant_text) for r in corpus.records]
    assert len(set(texts)) == len(texts)


def test_generate_codegen_feeds_hashing_features():
    corpus, _ = generate_synthetic("codegen", n_classes=2, per_class=4, seed=0)
    provider = HashingFeatures(64)
    cache = FeatureCache.from_corpus(corpus, provider)
    assert cache.origin_features.shape == (8, 64)


def test_generate_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic("nope")
    with pytest.raises(ConfigError):
        generate_synthetic("geometric", n_classes=1)
    with pytest.raises(ConfigError):
        generate_synthetic("geometric", per_class=2)
    with pytest.raises(ConfigError):
        generate_synthetic("geometric", equiv_fraction=0.0)
    with pytest.raises(ConfigError):
        generate_synthetic("geometric", per_class=10, equiv_fraction=0.01)
    for equiv_fraction in (1.5, float("nan")):
        with pytest.raises(ConfigError, match="equiv_fraction must be in"):
            generate_synthetic("geometric", equiv_fraction=equiv_fraction)
    for feature_dim in (0, 1, 8, 15):
        with pytest.raises(ConfigError):
            generate_synthetic("geometric", feature_dim=feature_dim)
    generate_synthetic("geometric", n_classes=2, per_class=4, feature_dim=16)
