"""Data model, tokenizer, window sampling, generator, and JSONL I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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
    p = tmp_path / "bad.jsonl"
    p.write_text("{not json\n")
    with pytest.raises(SchemaError, match="line 1"):
        read_jsonl(p)


def test_vocab_sidecar_round_trip(tmp_path):
    p = tmp_path / "vocab.json"
    with open(p, "w", encoding="utf-8") as fh:
        write_vocab(fh, default_vocab())
    assert read_vocab(p) == default_vocab()
