"""Differencing, convolutional anomaly head, imbalanced sampler, fine-tuning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudformer import parallel
from fraudformer.numerics import ops
from fraudformer.numerics.gradcheck import grad_check
from fraudformer.numerics.tensor import DimensionError, GradTape, Tensor
from fraudformer.sft import (AnomalyHeadConfig, SequenceTooShortError,
                             SftConfig, batch_class_logits,
                             epoch_batches, finetune_sft, head_features,
                             init_head_params, score_users)
from fraudformer.verify import weighted_sum
from fraudformer.model import causal_forward, encode_batch, init_params
from tests.conftest import f64_params, needs_two_workers, no_thread_left, tiny_model_config


def head64(cfg, d_model, seed=0):
    return init_head_params(cfg, d_model, np.random.default_rng(seed), dtype=np.float64)


def one_sequence_block(hdiff):
    """A batch of one for ``head_features``: hidden rows [T+2, d], BOS first,
    whose event rows have first differences ``hdiff``; and its length."""
    rows = np.vstack([np.zeros((2, hdiff.shape[1])), np.cumsum(hdiff, axis=0)])
    return Tensor(rows), np.array([len(hdiff) + 1])


# --- differencing --------------------------------------------------------------

def test_diff_op_constant_rows_are_zero():
    h = Tensor(np.tile([1.0, -2.0, 3.0], (5, 1)))
    np.testing.assert_array_equal(ops.row_diff(h).data, 0.0)


def test_diff_op_hand_case():
    h = Tensor(np.array([[1.0], [3.0], [2.0]]))
    np.testing.assert_allclose(ops.row_diff(h).data, [[2.0], [-1.0]])


def test_diff_op_shift_invariance():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 4))
    c = rng.standard_normal(4)
    # Row-constant shifts cancel; 64-bit rounding of (a+c)-(b+c) still leaves
    # a few ulps, so compare at 1e-12 rather than bitwise.
    np.testing.assert_allclose(ops.row_diff(Tensor(h, dtype=np.float64)).data,
                               ops.row_diff(Tensor(h + c, dtype=np.float64)).data,
                               atol=1e-12)


def test_diff_op_too_short():
    with pytest.raises(DimensionError, match="at least 2 rows"):
        ops.row_diff(Tensor(np.ones((1, 4))))


# --- anomaly head ---------------------------------------------------------------

def test_head_zero_input_zero_biases_gives_zero_features():
    cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=4, hidden=8)
    params = head64(cfg, d_model=6)
    for k in cfg.kernel_sizes:
        params[f"head.conv{k}.b"].data[:] = 0.0
    feats = head_features(*one_sequence_block(np.zeros((5, 6))), cfg, params)
    np.testing.assert_array_equal(feats.data, 0.0)


def test_head_maxpool_translation_invariance():
    cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=4, hidden=8)
    params = head64(cfg, d_model=3, seed=1)
    rng = np.random.default_rng(2)
    motif = rng.standard_normal((3, 3)) * 5  # dominant local pattern
    def planted(offset):
        x = np.zeros((12, 3))
        x[offset:offset + 3] = motif
        return head_features(*one_sequence_block(x), cfg, params).data
    np.testing.assert_allclose(planted(2), planted(7), atol=1e-10)


def test_head_too_short_names_minimum():
    cfg = AnomalyHeadConfig()
    params = head64(cfg, d_model=4)
    with pytest.raises(SequenceTooShortError, match="5"):
        head_features(*one_sequence_block(np.zeros((4, 4))), cfg, params)


def test_head_gradient_check():
    cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=3, hidden=6, dropout=0.0)
    params = head64(cfg, d_model=4, seed=3)
    rng = np.random.default_rng(4)
    # Two sequences of 7 and 5 events in 8-row segments: the second one's
    # padded tail is masked, and its gradient must be zero.
    h = Tensor(rng.standard_normal((16, 4)), requires_grad=True)
    lengths = np.array([7, 5])
    w = Tensor(rng.standard_normal((cfg.feature_width, 2)))

    def loss_fn():
        logits = ops.matmul(head_features(h, lengths, cfg, params), w)
        return ops.softmax_ce(logits, np.array([1, 0]))

    wiggle = [h] + [params[k] for k in sorted(params)]
    err = grad_check(loss_fn, wiggle, np.random.default_rng(0), n_probes=8)
    assert err < 1e-4
    h.grad = None
    with GradTape() as tape:
        tape.backward(loss_fn())
    np.testing.assert_array_equal(h.grad[[0, 8]], 0.0)      # BOS rows
    np.testing.assert_array_equal(h.grad[8 + 1 + 5:], 0.0)  # padding of sequence 2


def test_head_zero_input_sends_no_gradient_to_bos_or_padding():
    """All-zero hidden rows tie every conv position at relu(bias): filters
    with a positive bias pool a valid position, the others tie at the masked
    position 0. Neither may reach a BOS or padding row."""
    cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=6, hidden=6, dropout=0.0)
    params = head64(cfg, d_model=4, seed=5)
    for k in cfg.kernel_sizes:
        params[f"head.conv{k}.b"].data[:] = np.linspace(-1.0, 1.0, cfg.filters)
    h = Tensor(np.zeros((3 * 9, 4)), requires_grad=True)
    lengths = np.array([8, 4, 6])
    with GradTape() as tape:
        features = head_features(h, lengths, cfg, params)
        tape.backward(weighted_sum(features, Tensor(np.ones_like(features.data))))
    grad = h.grad.reshape(3, 9, 4)
    for b, n in enumerate(lengths):
        np.testing.assert_array_equal(grad[b, 0], 0.0)           # BOS
        np.testing.assert_array_equal(grad[b, n + 1:], 0.0)      # padding
        assert np.abs(grad[b, 1:n + 1]).sum() > 0                # events do get some


@given(seed=st.integers(0, 2 ** 31 - 1),
       lengths=st.lists(st.integers(6, 12), min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_batched_head_equals_each_sequence_alone(seed, lengths):
    """float64: head features and logits of a mixed-length batch equal those
    of each sequence run alone, from min_events (6) to t_max (12)."""
    cfg = tiny_model_config(dropout=0.0)
    head_cfg = AnomalyHeadConfig(filters=4, hidden=8)
    assert head_cfg.min_events == 6 and cfg.t_max == 12
    params = f64_params(cfg, seed=seed % 1000)
    params.update(head64(head_cfg, cfg.d_model, seed=seed))
    rng = np.random.default_rng(seed)
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in lengths]

    batch = encode_batch(ids, params, cfg)
    h = causal_forward(batch.x, params, cfg)
    feats = head_features(h, batch.lengths, head_cfg, params).data
    logits = batch_class_logits(ids, params, cfg, head_cfg).data
    r = cfg.t_max + 1
    for b, t in enumerate(lengths):
        rows = Tensor(h.data[b * r:b * r + t + 1])
        alone = head_features(rows, np.array([t]), head_cfg, params).data[0]
        np.testing.assert_allclose(feats[b], alone, rtol=0, atol=1e-12)
        alone = batch_class_logits([ids[b]], params, cfg, head_cfg).data[0]
        np.testing.assert_allclose(logits[b], alone, rtol=0, atol=1e-12)


def test_head_config_rejects_tiny_kernels():
    with pytest.raises(ValueError):
        AnomalyHeadConfig(kernel_sizes=(1, 3))


# --- sampler --------------------------------------------------------------------

def test_sampler_exact_positive_count():
    cfg = SftConfig(batch_size=8, pos_fraction=0.25, seed=0)
    assert cfg.pos_per_batch == 2
    batches = epoch_batches(list("AB"), list(range(30)), cfg, epoch=0)
    for b in batches:
        assert sum(1 for x in b if isinstance(x, str)) == 2


def test_sampler_negative_epoch_coverage():
    cfg = SftConfig(batch_size=8, pos_fraction=0.25, seed=1)
    negs = list(range(25))
    seen = [x for b in epoch_batches(["p"], negs, cfg, epoch=3)
            for x in b if isinstance(x, int)]
    assert sorted(seen) == negs  # each negative exactly once


def test_sampler_positive_repetition_pigeonhole():
    cfg = SftConfig(batch_size=8, pos_fraction=0.25, seed=2)
    # 300 negatives at 6 per batch: two consecutive epochs of 50 batches.
    batches = [b for epoch in range(2)
               for b in epoch_batches(["x", "y", "z"], list(range(300)), cfg, epoch)]
    assert len(batches) == 100
    draws = [x for batch in batches for x in batch if isinstance(x, str)]
    # 100 batches x 2 positives from a pool of 3: repetition is forced.
    assert min(draws.count(c) for c in "xyz") > 10


def test_sampler_determinism_and_epoch_variation():
    cfg = SftConfig(batch_size=8, pos_fraction=0.25, seed=5)
    a = epoch_batches(["p", "q"], list(range(40)), cfg, epoch=0)
    b = epoch_batches(["p", "q"], list(range(40)), cfg, epoch=0)
    c = epoch_batches(["p", "q"], list(range(40)), cfg, epoch=1)
    assert a == b
    assert a != c


def test_sampler_rejects_empty_pools():
    cfg = SftConfig(batch_size=8, pos_fraction=0.25, seed=0)
    with pytest.raises(ValueError):
        epoch_batches([], [1], cfg, 0)
    with pytest.raises(ValueError):
        epoch_batches([1], [], cfg, 0)


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="pos_fraction must be in"):
        SftConfig(batch_size=8, pos_fraction=0.0, seed=0)
    with pytest.raises(ValueError, match="one positive and one negative"):
        SftConfig(batch_size=16, pos_fraction=0.01, seed=0)  # rounds to zero positives


# --- fine-tuning -----------------------------------------------------------------

def test_finetune_freeze_multiplier_zero(small_planted_corpus):
    cfg = tiny_model_config()
    # Corpus uses the default 9-dim vocab; build a matching model.
    from fraudformer.data import default_vocab
    from fraudformer.model import ModelConfig
    mc = ModelConfig.for_vocab(default_vocab(), d_model=32, n_layers=1, n_heads=2,
                               t_max=16, dropout=0.1)
    backbone = init_params(mc, np.random.default_rng(0))
    before = {k: v.data.copy() for k, v in backbone.items()}
    head_cfg = AnomalyHeadConfig(filters=4, hidden=8)
    sft = SftConfig(epochs=1, lr=1e-3, backbone_lr_mult=0.0, seed=0,
                    batch_size=8, pos_fraction=0.25)
    params, _ = finetune_sft(backbone, mc, small_planted_corpus[:60], head_cfg, sft)
    for k, v in before.items():
        np.testing.assert_array_equal(params[k].data, v)


def test_finetune_toy_accuracy_and_determinism(small_planted_corpus):
    from fraudformer.data import default_vocab
    from fraudformer.model import ModelConfig
    mc = ModelConfig.for_vocab(default_vocab(), d_model=32, n_layers=1, n_heads=2,
                               t_max=16, dropout=0.1)
    head_cfg = AnomalyHeadConfig(filters=8, hidden=16)
    sft = SftConfig(epochs=20, lr=1e-3, backbone_lr_mult=0.1, seed=0,
                    batch_size=16, pos_fraction=0.25)

    def run():
        backbone = init_params(mc, np.random.default_rng(1))
        return finetune_sft(backbone, mc, small_planted_corpus, head_cfg, sft)

    params, metrics = run()
    assert metrics[-1]["accuracy"] > 0.95  # planted anomalies are learnable
    _, metrics2 = run()
    assert metrics == metrics2

    # Scoring: positives above negatives on average, scores in [0, 1].
    scores = dict(score_users(params, mc, head_cfg, small_planted_corpus))
    labels = {s.user_id: s.label for s in small_planted_corpus}
    pos_scores = [v for u, v in scores.items() if labels[u] > 0]
    neg_scores = [v for u, v in scores.items() if labels[u] == 0]
    assert np.mean(pos_scores) > np.mean(neg_scores)
    assert all(0.0 <= v <= 1.0 for v in scores.values())


def test_score_users_sorted_and_deterministic(small_planted_corpus):
    from fraudformer.data import default_vocab
    from fraudformer.model import ModelConfig
    mc = ModelConfig.for_vocab(default_vocab(), d_model=32, n_layers=1, n_heads=2,
                               t_max=16, dropout=0.1)
    backbone = init_params(mc, np.random.default_rng(2))
    head_cfg = AnomalyHeadConfig(filters=4, hidden=8)
    head = init_head_params(head_cfg, mc.d_model, np.random.default_rng(3))
    params = dict(backbone); params.update(head)
    a = score_users(params, mc, head_cfg, small_planted_corpus[:40])
    b = score_users(params, mc, head_cfg, small_planted_corpus[:40])
    assert a == b
    keys = [(-s, u) for u, s in a]
    assert keys == sorted(keys)


@pytest.fixture(scope="module")
def scoring_model():
    from fraudformer.data import default_vocab
    from fraudformer.model import ModelConfig
    mc = ModelConfig.for_vocab(default_vocab(), d_model=32, n_layers=1, n_heads=2,
                               t_max=16, dropout=0.1)
    head_cfg = AnomalyHeadConfig(filters=4, hidden=8)
    params = init_params(mc, np.random.default_rng(2))
    params.update(init_head_params(head_cfg, mc.d_model, np.random.default_rng(3)))
    return params, mc, head_cfg


@pytest.fixture(scope="module")
def mixed_length_corpus():
    """Users of 8 to 40 events, many of them longer than the model's t_max of 16."""
    from fraudformer.data import GeneratorConfig, generate_corpus
    return generate_corpus(GeneratorConfig(n_users=48, fraud_fraction=0.3, t_min=8,
                                           t_max=40, seed=4))


def test_score_users_ignores_corpus_order(scoring_model, mixed_length_corpus):
    params, mc, head_cfg = scoring_model
    assert sum(len(s) > mc.t_max for s in mixed_length_corpus) >= 10
    forward = dict(score_users(params, mc, head_cfg, mixed_length_corpus))
    backward = dict(score_users(params, mc, head_cfg, mixed_length_corpus[::-1]))
    assert forward == backward  # bit for bit, every user


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_two_workers)],
                         ids=["one-worker", "two-workers"])
def test_score_users_ignores_batch_size(scoring_model, mixed_length_corpus, monkeypatch,
                                        workers):
    """Every batch size gives each user the bits of one forward over the
    whole corpus, and so do halves of a batch scored in a helper thread."""
    params, mc, head_cfg = scoring_model
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    want = score_users(params, mc, head_cfg, mixed_length_corpus)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    for batch_size in (1, 7, 64):
        with no_thread_left():
            got = score_users(params, mc, head_cfg, mixed_length_corpus, batch_size=batch_size)
        assert got == want


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_two_workers)],
                         ids=["one-worker", "two-workers"])
def test_score_users_ignores_batch_size_at_the_default_model(monkeypatch, workers):
    """At the default model and head, where a row's GEMM kernel can change
    with the number of rows, every batch size and both halves of a batch
    give each user the same bits."""
    from fraudformer.config import load_run_config
    from fraudformer.data import GeneratorConfig, default_vocab, generate_corpus
    cfg = load_run_config()
    mc, head_cfg = cfg.model_config(default_vocab()), cfg.head_config()
    assert head_cfg == AnomalyHeadConfig()
    params = init_params(mc, np.random.default_rng(5))
    params.update(init_head_params(head_cfg, mc.d_model, np.random.default_rng(6)))
    users = generate_corpus(GeneratorConfig(n_users=70, fraud_fraction=0.2, seed=6))
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    want = score_users(params, mc, head_cfg, users)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    for batch_size in (1, 7, 30, 64):
        with no_thread_left():
            got = score_users(params, mc, head_cfg, users, batch_size=batch_size)
        assert got == want


def test_eval_rows_ignore_batch_neighbours(scoring_model, mixed_length_corpus):
    """A short user's score and embedding are the same bits alone, in a
    shuffled batch of short users, and next to users of t_max events."""
    from fraudformer.contrastive import embed_batch, embed_sequence
    params, mc, head_cfg = scoring_model
    short = [s for s in mixed_length_corpus if len(s) < mc.t_max]
    long = [s for s in mixed_length_corpus if len(s) >= mc.t_max]
    assert len(short) >= 8 and len(long) >= 8
    shuffled = [short[i] for i in np.random.default_rng(0).permutation(len(short))]
    mixed = sorted(short + long, key=lambda s: s.user_id)  # one batch, interleaved

    alone = {}
    for s in short:
        alone.update(score_users(params, mc, head_cfg, [s]))
    for batch in (shuffled, mixed):
        scores = dict(score_users(params, mc, head_cfg, batch))
        assert all(scores[s.user_id] == alone[s.user_id] for s in short)

    def embeddings(batch):
        rows = embed_batch([s.ids[-mc.t_max:] for s in batch], params, mc).data
        return {s.user_id: row for s, row in zip(batch, rows)}

    alone = {s.user_id: embed_sequence(params, mc, s).data for s in short}
    for batch in (shuffled, mixed):
        rows = embeddings(batch)
        for s in short:
            np.testing.assert_array_equal(rows[s.user_id], alone[s.user_id])


def test_sft_pipeline_gradient_check():
    cfg = tiny_model_config(dropout=0.0)
    backbone = f64_params(cfg, seed=9)
    head_cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=3, hidden=6, dropout=0.0)
    head = head64(head_cfg, cfg.d_model, seed=10)
    params = dict(backbone); params.update(head)
    rng = np.random.default_rng(5)
    ids = [rng.integers(1, 4, size=(6, 2)), rng.integers(1, 4, size=(5, 2))]
    labels = np.array([1, 0])

    def loss_fn():
        logits = batch_class_logits(ids, params, cfg, head_cfg)
        return ops.softmax_ce(logits, labels)

    names = ["embed.0", "layer0.attn.wv", "head.conv2.w", "head.mlp.w1"]
    err = grad_check(loss_fn, [params[n] for n in names],
                     np.random.default_rng(0), n_probes=10)
    assert err < 1e-4
