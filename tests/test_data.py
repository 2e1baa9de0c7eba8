import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purgelab import data as data_module
from purgelab.data import (
    NGRAM_ORDERS,
    Corpus,
    FeatureCache,
    HashingFeatures,
    MutantRecord,
    TableFeatures,
    _escape,
    _unescape,
    dedup,
    extract_features,
    generate_synthetic,
    ingest,
    load_feature_table,
    make_batches,
    split,
    write_corpus,
    write_feature_table,
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
    path.write_text("3\t1\tint f();\tint g();\n")
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
    assert np.array_equal(extract_features(text, 256), extract_features(text, 256))


def test_extract_features_unit_norm():
    for text in ("return x;", "a b c d e", "x += 1"):
        assert abs(np.linalg.norm(extract_features(text, 64)) - 1.0) <= 1e-9


def test_extract_features_sensitive_to_one_token():
    a = extract_features("return mid ;", 256)
    b = extract_features("return mid + 1 ;", 256)
    assert not np.array_equal(a, b)


def test_extract_features_rejects_empty():
    with pytest.raises(DegenerateInputError):
        extract_features("", 256)
    with pytest.raises(DegenerateInputError):
        extract_features("   \n  ", 256)


def test_hashing_features_dim_validation():
    assert HashingFeatures().dim == 256
    assert HashingFeatures(16).dim == 16
    with pytest.raises(ConfigError):
        HashingFeatures(8)


@pytest.mark.parametrize("dim", [0, -3, 8, 16.5, "32"])
def test_extract_features_rejects_bad_dim(dim):
    with pytest.raises(ConfigError):
        extract_features("a b", dim)


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


def reference_features(text: str, dim: int, orders=NGRAM_ORDERS) -> np.ndarray:
    """One blake2b per gram occurrence, accumulated one signed unit at a time."""
    tokens = re.findall(r"\w+|[^\w\s]", text)
    if not tokens:
        raise DegenerateInputError("text contains no tokens")
    vec = np.zeros(dim, dtype=np.float64)
    for order in orders:
        for i in range(len(tokens) - order + 1):
            gram = f"{order}:" + "\x1f".join(tokens[i : i + order])
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
            bucket = int.from_bytes(digest[:8], "little") % dim
            vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateInputError("feature hashing cancelled to a zero vector")
    return vec / norm


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
# trigrams that span two line breaks around one-token lines; blank lines
@example(texts=["a\nb\nc", "a\n\nb\r\n \nc\n", "x y\nz\nmid ; (", "\n\na b\n"], dim=16)
def test_hashing_features_match_per_gram_reference(texts, dim):
    for orders in [(1,), (1, 2), (1, 2, 3)]:
        with mock.patch.object(data_module, "NGRAM_ORDERS", orders):
            provider = HashingFeatures(dim)  # shared, so later texts hit the memo
            for text in texts + texts:
                expected = _features_or_error(lambda t: reference_features(t, dim, orders=orders), text)
                assert _features_or_error(provider.vector, text) == expected
                assert _features_or_error(lambda t: extract_features(t, dim), text) == expected


def test_hashing_features_cancelled_grams_raise(monkeypatch):
    # With orders (1, 2) a text of n tokens has 2n - 1 grams, an odd count
    # that cannot cancel, so unigrams alone are used: at dim 16, "x" and "z"
    # hash to one bucket with opposite signs.
    monkeypatch.setattr(data_module, "NGRAM_ORDERS", (1,))
    with pytest.raises(DegenerateInputError):
        reference_features("x z", 16, orders=(1,))
    with pytest.raises(DegenerateInputError):
        HashingFeatures(16).vector("x z")
    with pytest.raises(DegenerateInputError):
        extract_features("z x z x", 16)


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


def test_feature_table_key_with_escapes_roundtrips(tmp_path):
    key = "tab\there\nnew\\line\\n\rend\\"
    table = TableFeatures(dim=2, table={key: np.array([0.5, -1.0])})
    path = tmp_path / "features.tsv"
    write_feature_table(table, path)
    back = load_feature_table(path)
    assert list(back.table) == [key]
    assert np.array_equal(back.table[key], table.table[key])


@pytest.mark.parametrize("key, message", [("k\\x", r"bad escape \\x"), ("k\\", "dangling backslash")])
def test_feature_table_bad_key_escape_is_parse_error(tmp_path, key, message):
    path = tmp_path / "features.tsv"
    path.write_text(f"feature-table 1 2\nok\t1.0 2.0\n{key}\t1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 3: {message}"):
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


def test_make_batches_empty_corpus():
    with pytest.raises(ConfigError, match="empty corpus"):
        make_batches(FeatureCache.from_corpus(Corpus(), HashingFeatures()), 4, 0, 0)


def test_make_batches_rejects_bad_size():
    with pytest.raises(ConfigError):
        make_batches(FeatureCache.from_corpus(small_corpus(), HashingFeatures(32)), 0, 0, 0)


def test_feature_cache_matches_provider():
    corpus = small_corpus()
    provider = HashingFeatures(32)
    cache = FeatureCache.from_corpus(corpus, provider)
    assert len(cache) == len(corpus)
    for i, record in enumerate(corpus.records):
        assert np.array_equal(cache.mutant_features[i], provider.vector(record.mutant_text))
        assert np.array_equal(cache.origin_features[i], provider.vector(record.origin_text))


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
    for feature_dim in (0, 1, 8, 15):
        with pytest.raises(ConfigError):
            generate_synthetic("geometric", feature_dim=feature_dim)
    generate_synthetic("geometric", n_classes=2, per_class=4, feature_dim=16)
