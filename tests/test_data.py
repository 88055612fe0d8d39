"""Data model, tokenizer, window sampling, generator, and JSONL I/O."""

import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fraudformer import data as data_mod
from fraudformer.data import (PAD_ID, BehaviorSequence, GeneratorConfig,
                              SchemaError, VocabSpec, bucketize_amount,
                              default_vocab, generate_corpus, ids_array,
                              iter_jsonl, read_jsonl, read_vocab, window_sample,
                              write_jsonl, write_vocab)
from tests.conftest import TINY_VOCAB, assert_same_corpus, make_sequence


# --- vocab & sequence invariants --------------------------------------------

def test_default_vocab_layout():
    v = default_vocab()
    assert v.D == 9
    assert all(c >= 2 for c in v.cardinalities)
    assert len({n for n, _ in v.dims}) == 9


def test_vocab_rejects_duplicate_names():
    with pytest.raises(ValueError):
        VocabSpec(dims=(("a", 4), ("a", 5)))


def test_sequence_rejects_bad_onset():
    ids = np.ones((4, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        BehaviorSequence("u", ids, label=1, anomaly_onset=4)
    with pytest.raises(ValueError):
        BehaviorSequence("u", ids, label=0, anomaly_onset=2)


def test_sequence_rejects_empty():
    with pytest.raises(ValueError):
        BehaviorSequence("u", np.zeros((0, 2), dtype=np.int64), 0, None)


@pytest.mark.parametrize("ids", [[[1, 1]], np.ones((3, 2)), np.ones(3, dtype=np.int64),
                                 np.ones((1, 2, 2), dtype=np.int64)])
def test_sequence_rejects_ids_not_2d_integer(ids):
    with pytest.raises(ValueError, match="2-D integer"):
        BehaviorSequence("u", ids)


def test_sequence_ids_read_only_int64_view():
    own = np.ones((3, 2), dtype=np.int32)
    seq = BehaviorSequence("u", own)
    assert seq.ids.dtype == np.int64 and not seq.ids.flags.writeable
    assert own.flags.writeable
    assert ids_array(seq) is seq.ids
    with pytest.raises(ValueError):
        seq.ids[0, 0] = 2


# --- tokenizer ---------------------------------------------------------------

def test_bucketize_spec_points():
    assert bucketize_amount(0.0, 16) == 1
    assert bucketize_amount(1.0, 16) == 2
    assert bucketize_amount(1e9, 16) == 15  # clamped to B-1


def test_bucketize_rejects_negative():
    with pytest.raises(ValueError):
        bucketize_amount(-0.5, 16)


@given(st.floats(min_value=0, max_value=1e12), st.floats(min_value=0, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_bucketize_monotone(a, b):
    lo, hi = sorted((a, b))
    assert bucketize_amount(lo, 16) <= bucketize_amount(hi, 16)
    assert bucketize_amount(lo, 16) != PAD_ID


# --- window sampling ---------------------------------------------------------

def window_starts(seq, window):
    """Each window's token ids (as bytes) -> its start; the windows must differ."""
    starts = {seq.ids[s:s + window].tobytes(): s for s in range(len(seq) - window + 1)}
    assert len(starts) == len(seq) - window + 1
    return starts


def test_window_full_length_is_identity():
    rng = np.random.default_rng(0)
    seq = make_sequence(rng, TINY_VOCAB, 10, label=2, onset=3)
    out = window_sample(seq, 10, rng)
    np.testing.assert_array_equal(out.ids, seq.ids)
    assert np.shares_memory(out.ids, seq.ids)  # a view, not a copy
    assert out.label == 0 and out.anomaly_onset is None  # windows are unlabelled


def test_window_start_uniformity_chi2():
    rng = np.random.default_rng(3)
    seq = make_sequence(rng, TINY_VOCAB, 100)
    starts = []
    start_of = window_starts(seq, 32)
    draw = np.random.default_rng(0)
    for _ in range(10_000):
        out = window_sample(seq, 32, draw)
        starts.append(start_of[out.ids.tobytes()])
    counts = np.bincount(starts, minlength=69)
    assert len(counts) == 69  # starts 0..68
    _, p = stats.chisquare(counts)
    assert p > 0.01


# --- generator ---------------------------------------------------------------

def test_generator_fraud_fraction_zero():
    cfg = GeneratorConfig(n_users=60, fraud_fraction=0.0, t_min=8, t_max=12, seed=0)
    corpus = generate_corpus(cfg)
    assert len(corpus) == 60
    assert all(s.label == 0 and s.anomaly_onset is None for s in corpus)


def test_generator_fraud_fraction_one_fixed_class():
    mix = [0.0] * 8
    mix[2] = 1.0  # class id 3
    cfg = GeneratorConfig(n_users=40, fraud_fraction=1.0, class_mix=tuple(mix),
                          t_min=8, t_max=12, seed=0)
    corpus = generate_corpus(cfg)
    assert all(s.label == 3 and s.anomaly_onset is not None for s in corpus)


def test_generator_determinism():
    cfg = GeneratorConfig(n_users=50, fraud_fraction=0.1, t_min=8, t_max=16, seed=9)
    assert_same_corpus(generate_corpus(cfg), generate_corpus(cfg))


def test_generator_events_within_vocab_bounds():
    cfg = GeneratorConfig(n_users=4200, fraud_fraction=0.2, t_min=16, t_max=32, seed=1)
    corpus = generate_corpus(cfg)
    cards = np.array(cfg.vocab.cardinalities)
    total = 0
    for seq in corpus:
        ids = ids_array(seq)
        assert (ids >= 1).all() and (ids < cards).all()  # PAD never emitted
        total += len(seq)
    assert total > 1e5  # property covers at least 1e5 events


def test_generator_label_onset_consistency():
    cfg = GeneratorConfig(n_users=300, fraud_fraction=0.3, t_min=8, t_max=24, seed=2)
    for seq in generate_corpus(cfg):
        assert (seq.label != 0) == (seq.anomaly_onset is not None)
        assert len(seq) >= cfg.t_min


# Digests of write_jsonl(generate_corpus(cfg)), recorded from the per-user
# scalar generator that the lockstep one replaced. They also pin numpy's
# Generator streams: a numpy upgrade that changes them fails here first.
ONE_CLASS_MIX = tuple(1.0 if c == 3 else 0.0 for c in range(8))  # merchant_roulette
ODD_VOCAB = VocabSpec((("channel", 6), ("hour_of_day", 7), ("flag", 2),
                       ("merchant_category", 12), ("day_of_week", 8), ("region", 5)))
PINNED_CORPORA = {
    "fraud0": (dict(seed=0, n_users=300, fraud_fraction=0.0, t_min=8, t_max=40),
               "f2451b2d0b86c28a2d83b3adcc8444442354b5ad40d52a5f3fe33424b3ec6824"),
    "fraud005": (dict(seed=3, n_users=300, fraud_fraction=0.05),
                 "8dfc0223ed60314feda9600b8b901c61eabf82bfbe714c1e132dda9b98943bea"),
    "fraud03": (dict(seed=5, n_users=200, fraud_fraction=0.3, t_min=6, t_max=24),
                "3dab876b99ae7c390b58866183412dff71e15c240fd82decc04353d33bc3f5bd"),
    "fraud1": (dict(seed=11, n_users=150, fraud_fraction=1.0, t_min=10, t_max=30),
               "89ab02d2b76e062108d2924bf44ecc29aa94c16193e3b9140d60abcf8a0f40de"),
    "one_class": (dict(seed=7, n_users=120, fraud_fraction=1.0, class_mix=ONE_CLASS_MIX,
                       t_min=12, t_max=20),
                  "d9e097164c6ca96f5a4933701f5059ce561ee77321aa4f7638e6cf66a1141903"),
    # No amount dimension, a 2-token dimension, an hour dimension too small
    # for a night band, and sequences down to 2 events.
    "short_odd_vocab": (dict(seed=2, n_users=100, fraud_fraction=0.5, t_min=2, t_max=9,
                             n_personas=3, vocab=ODD_VOCAB),
                        "93a9888c43cccf1f04c0c9f5b7a9562c3bffb189e99b36df5ea0298eeca3b857"),
}


def corpus_digest(cfg):
    buf = io.StringIO()
    write_jsonl(buf, generate_corpus(cfg))
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_CORPORA))
def test_generator_output_is_pinned(name):
    kw, digest = PINNED_CORPORA[name]
    assert corpus_digest(GeneratorConfig(**kw)) == digest


@pytest.mark.parametrize("name", ["fraud03", "short_odd_vocab"])
def test_generator_output_does_not_depend_on_the_block(monkeypatch, name):
    kw, digest = PINNED_CORPORA[name]
    monkeypatch.setattr(data_mod, "GEN_BLOCK", 7)
    assert corpus_digest(GeneratorConfig(**kw)) == digest


def test_normal_of_size_n_is_n_scalar_draws():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    block = a.normal(3.5, 1.0, size=37)
    scalars = [b.normal(3.5, 1.0) for _ in range(37)]
    assert block.tolist() == scalars
    assert a.random() == b.random()  # the stream is left in the same state


def reference_draw(cum_row, u, top):
    return min(int(np.searchsorted(cum_row, u, side="right")), top)


def test_compare_and_sum_draw_is_searchsorted():
    rng = np.random.default_rng(0)
    K = 6
    cum = np.full((200, K), np.inf)
    tops = rng.integers(0, K, size=200)
    for r, top in enumerate(tops):
        cum[r, :top + 1] = np.cumsum(rng.dirichlet(np.full(top + 1, 0.3)))
    # Ties: half the draws land exactly on a cumulative entry of their row.
    u = rng.random(200)
    ties = np.flatnonzero(rng.random(200) < 0.5)
    u[ties] = [cum[r, rng.integers(tops[r] + 1)] for r in ties]
    got = data_mod._draw(cum, u, tops)
    assert got.tolist() == [reference_draw(cum[r, :top + 1], u[r], top)
                            for r, top in enumerate(tops)]


def test_compare_and_sum_draw_clamps_a_short_row():
    # A row whose last cumulative value is below 1: searchsorted past it
    # returns the support size, and the clamp keeps the last token.
    cum = np.array([0.25, 0.5, 0.75, np.inf])
    u = np.array([0.1, 0.25, 0.75, 0.8, 0.999])
    got = data_mod._draw(np.tile(cum, (5, 1)), u, np.full(5, 2))
    assert got.tolist() == [reference_draw(cum[:3], x, 2) for x in u] == [0, 1, 2, 2, 2]


# --- JSONL I/O ----------------------------------------------------------------

def test_jsonl_empty_round_trip(tmp_path):
    p = tmp_path / "empty.jsonl"
    with open(p, "w", encoding="utf-8") as fh:
        write_jsonl(fh, [])
    assert read_jsonl(p) == []


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_jsonl_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(rng.integers(1, 8)):
        label = int(rng.integers(0, 9))
        t_len = int(rng.integers(2, 12))
        onset = int(rng.integers(0, t_len)) if label else None
        corpus.append(make_sequence(rng, TINY_VOCAB, t_len, f"u{i}", label, onset))
    import io, tempfile, os
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_jsonl(fh, corpus)
        assert_same_corpus(read_jsonl(path, TINY_VOCAB.cardinalities), corpus)
    finally:
        os.unlink(path)


def test_jsonl_rejects_wrong_attr_width(tmp_path):
    p = tmp_path / "bad.jsonl"
    rec = {"user_id": "u0", "attrs": [[1, 2, 3]], "label": 0, "anomaly_onset": None}
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaError, match="line 1"):
        read_jsonl(p, TINY_VOCAB.cardinalities)


def test_jsonl_rejects_out_of_vocab_id(tmp_path):
    p = tmp_path / "bad.jsonl"
    good = {"user_id": "u0", "attrs": [[1, 1]], "label": 0, "anomaly_onset": None}
    bad = {"user_id": "u1", "attrs": [[1, 9]], "label": 0, "anomaly_onset": None}
    p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(SchemaError, match="line 2"):
        read_jsonl(p, TINY_VOCAB.cardinalities)
    # The stream yields the good user before it reaches the bad line.
    users = iter_jsonl(p, TINY_VOCAB.cardinalities)
    assert next(users).user_id == "u0"
    with pytest.raises(SchemaError, match="line 2"):
        next(users)


def test_jsonl_rejects_malformed_json(tmp_path):
    good = json.dumps({"user_id": "u0", "attrs": [[1, 1]], "label": 0, "anomaly_onset": None})
    not_object = "a record must be a JSON object"
    p = tmp_path / "bad.jsonl"
    for line, message in [("{not json", "invalid JSON"), ("123", not_object),
                          ('["user_id","attrs","label","anomaly_onset"]', not_object),
                          ('"u0"', not_object), ("null", not_object)]:
        p.write_text(good + "\n" + line + "\n")
        with pytest.raises(SchemaError, match=f"line 2: {message}"):
            read_jsonl(p)


@pytest.mark.parametrize("field,value", [
    ("label", -1), ("label", "2"), ("label", 1.7), ("label", True), ("label", None),
    ("anomaly_onset", 1.6), ("anomaly_onset", "1"),
    ("user_id", None), ("user_id", 7), ("user_id", ""), ("user_id", "a,b"),
    ("user_id", 'a"b'), ("user_id", "a\rb"), ("user_id", "a\nb"), ("user_id", ["u0"]),
])
def test_jsonl_label_and_onset_must_be_json_integers(tmp_path, field, value):
    good = {"user_id": "u0", "attrs": [[1, 1], [2, 2], [3, 3]], "label": 1, "anomaly_onset": 1}
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
    with pytest.raises(SchemaError, match=f"line 2: field '{field}'"):
        read_jsonl(p, TINY_VOCAB.cardinalities)


@pytest.mark.parametrize("layout", ["[[{v}, {v}]]", "[[1, 2], [2, {v}]]"],
                         ids=["alone", "next-to-integers"])
@pytest.mark.parametrize("value", ["1.7", "1e0", '"3"', "true"])
def test_jsonl_token_ids_must_be_json_integers(tmp_path, layout, value):
    # np.array would read these as 1, 1, 3 and 1; [1, true] even as int64.
    good = '{"user_id": "u0", "attrs": [[1, 2]], "label": 0, "anomaly_onset": null}'
    bad = good.replace("u0", "u1").replace("[[1, 2]]", layout.format(v=value))
    p = tmp_path / "bad.jsonl"
    p.write_text(good + "\n" + bad + "\n")
    with pytest.raises(SchemaError, match=r"line 2: field 'attrs'\[.\]\[.\] must be an integer"):
        read_jsonl(p, TINY_VOCAB.cardinalities)


def test_jsonl_token_id_beyond_int64_is_refused(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"user_id": "u0", "attrs": [[1, 9223372036854775808]], "label": 0, '
                 '"anomaly_onset": null}\n')
    with pytest.raises(SchemaError, match="line 1: field 'attrs' has a token id outside"):
        read_jsonl(p)


def test_vocab_sidecar_round_trip(tmp_path):
    p = tmp_path / "vocab.json"
    with open(p, "w", encoding="utf-8") as fh:
        write_vocab(fh, default_vocab())
    assert read_vocab(p) == default_vocab()


@pytest.mark.parametrize("sidecar,message", [
    ({}, "missing key 'dims'"),
    ({"dims": [{"name": "a"}]}, "missing key 'cardinality'"),
    ({"dims": [{"name": "a", "cardinality": "abc"}]}, "cardinality 'abc' is not an integer"),
    ({"dims": [{"name": "a", "cardinality": 3.7}]}, "cardinality 3.7 is not an integer"),
    ({"dims": [{"name": "a", "cardinality": 3}, {"name": "a", "cardinality": 4}]},
     "dimension names must be unique"),
    ({"dims": [{"name": "a", "cardinality": 1}]}, "needs cardinality >= 2"),
], ids=["no_dims", "no_cardinality", "string_cardinality", "float_cardinality",
        "repeated_name", "cardinality_1"])
def test_read_vocab_names_its_file(tmp_path, sidecar, message):
    p = tmp_path / "vocab.json"
    p.write_text(json.dumps(sidecar))
    with pytest.raises(SchemaError, match=f"vocab.json: .*{message}"):
        read_vocab(p)
