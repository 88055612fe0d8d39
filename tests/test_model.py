"""Causal backbone: embeddings, attention causality, tied decoding, loss, loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudformer.config import from_json, to_json
from fraudformer.model import (ModelConfig, PretrainConfig, allocate_widths,
                               batch_reconstruction_loss, causal_forward,
                               encode_batch, init_params, param_count,
                               pretrain_loop, reconstruct_logits,
                               reconstruction_loss)
from fraudformer.numerics import ops
from fraudformer.numerics.gradcheck import grad_check
from fraudformer.numerics.optim import Adam
from fraudformer.numerics.tensor import DimensionError, GradTape, Tensor
from tests.conftest import TINY_VOCAB, f64_params, make_sequence, tiny_model_config


# --- config & widths ----------------------------------------------------------

def test_allocate_widths_sums_to_d_model():
    for dm in (16, 64, 96):
        w = allocate_widths((16, 25, 8, 9, 33, 9, 17, 17, 9), dm)
        assert sum(w) == dm
        assert all(x >= 1 for x in w)


def test_allocate_widths_monotone_in_vocab_size():
    w = allocate_widths((4, 256), 12)
    assert w[1] > w[0]


def test_model_config_validation():
    with pytest.raises(ValueError):
        tiny_model_config(d_k=(3, 4))  # does not sum to d_model
    with pytest.raises(ValueError):
        tiny_model_config(n_heads=3)  # does not divide d_model


def test_model_config_json_round_trip():
    cfg = tiny_model_config()
    assert from_json(ModelConfig, to_json(cfg)) == cfg


# --- embedding ----------------------------------------------------------------

def hidden(ids, params, cfg):
    """Hidden rows of one sequence: its BOS row, then one row per event."""
    return causal_forward(encode_batch([ids], params, cfg).x, params, cfg)


def test_embed_concat_shape_and_position():
    cfg = tiny_model_config()
    params = f64_params(cfg)
    ids = np.array([[1, 2], [3, 4], [2, 1]])
    out = encode_batch([ids], params, cfg).x
    assert out.shape == (cfg.t_max + 1, cfg.d_model)
    np.testing.assert_allclose(out.data[0], params["bos"].data + params["pos"].data[0],
                               atol=1e-12)
    expect = np.concatenate([params["embed.0"].data[ids[:, 0]],
                             params["embed.1"].data[ids[:, 1]]], axis=1)
    expect = expect + params["pos"].data[[1, 2, 3]]
    np.testing.assert_allclose(out.data[1:4], expect, atol=1e-12)


def test_embed_concat_single_dim_degenerate():
    cfg = ModelConfig(cardinalities=(6,), d_k=(8,), d_model=8, n_layers=1,
                      n_heads=2, t_max=8, dropout=0.0)
    params = f64_params(cfg)
    ids = np.array([[2], [5]])
    out = encode_batch([ids], params, cfg).x
    expect = params["embed.0"].data[[2, 5]] + params["pos"].data[[1, 2]]
    np.testing.assert_allclose(out.data[1:3], expect, atol=1e-12)


def test_embed_concat_changing_one_dim_touches_one_slice():
    cfg = tiny_model_config()
    params = f64_params(cfg)
    a = encode_batch([np.array([[1, 2]])], params, cfg).x.data
    b = encode_batch([np.array([[1, 3]])], params, cfg).x.data
    w0 = cfg.d_k[0]
    np.testing.assert_array_equal(a[:, :w0], b[:, :w0])
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[1:, w0:], b[1:, w0:])


def test_embed_concat_errors():
    cfg = tiny_model_config()
    params = f64_params(cfg)
    with pytest.raises(IndexError):
        encode_batch([np.array([[9, 1]])], params, cfg)
    with pytest.raises(DimensionError):
        encode_batch([np.ones((cfg.t_max + 1, 2), dtype=np.int64)], params, cfg)
    with pytest.raises(DimensionError):  # one sequence too long spoils the batch
        encode_batch([np.ones((3, 2), dtype=np.int64),
                      np.ones((cfg.t_max + 1, 2), dtype=np.int64)], params, cfg)
    with pytest.raises(DimensionError):
        encode_batch([np.ones((3, 3), dtype=np.int64)], params, cfg)
    assert encode_batch([np.ones((cfg.t_max, 2), dtype=np.int64)],
                        params, cfg).x.shape == (cfg.t_max + 1, cfg.d_model)


def test_encode_batch_pads_to_t_max():
    cfg = tiny_model_config()
    params = f64_params(cfg)
    ids = [np.ones((3, 2), dtype=np.int64), np.ones((5, 2), dtype=np.int64)]
    enc = encode_batch(ids, params, cfg)
    assert enc.x.shape == (2 * (cfg.t_max + 1), cfg.d_model)
    assert enc.ids.shape == (2, cfg.t_max, 2) and list(enc.lengths) == [3, 5]
    assert enc.ids[0, :3].all() and not enc.ids[0, 3:].any() and not enc.ids[1, 5:].any()


# --- causality ----------------------------------------------------------------

def test_causal_forward_is_strictly_causal():
    cfg = tiny_model_config(n_layers=2, dropout=0.0)
    params = f64_params(cfg, seed=3)
    rng = np.random.default_rng(0)
    ids = rng.integers(1, 4, size=(8, 2))
    base = hidden(ids, params, cfg).data
    for t in (0, 2, 5, 7):
        mod = ids.copy()
        mod[t, 0] = 1 + (mod[t, 0] % 3)
        out = hidden(mod, params, cfg).data
        # Row t+1 is the first to see event t.
        assert np.abs(out[:t + 1] - base[:t + 1]).max() < 1e-12
        assert np.abs(out[t + 1:] - base[t + 1:]).max() > 1e-8  # non-degenerate


def test_causal_forward_t1_single_position():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg)
    out = hidden(np.array([[1, 2]]), params, cfg)
    assert out.shape == (cfg.t_max + 1, cfg.d_model)
    assert np.isfinite(out.data).all()


def test_causal_forward_rejects_ragged_rows():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg)
    x = encode_batch([np.ones((4, 2), dtype=np.int64)], params, cfg).x
    with pytest.raises(DimensionError):
        causal_forward(Tensor(x.data[:-1]), params, cfg)  # t_max rows


@given(lengths=st.lists(st.integers(1, 12), min_size=2, max_size=5),
       pick=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_hidden_rows_alone_equal_rows_in_batch(lengths, pick, seed):
    """A sequence's hidden rows, padding included, do not depend on its batch
    neighbours or their lengths."""
    cfg = tiny_model_config(n_layers=2, dropout=0.0)
    params = f64_params(cfg, seed=5)
    rng = np.random.default_rng(seed)
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in lengths]
    b = pick % len(ids)
    r = cfg.t_max + 1
    rows = causal_forward(encode_batch(ids, params, cfg).x, params, cfg).data
    mine = rows[b * r: (b + 1) * r]
    np.testing.assert_allclose(mine, hidden(ids[b], params, cfg).data, rtol=0, atol=1e-12)


# --- weight tying & parameter count --------------------------------------------

def test_no_decode_parameters_exist():
    cfg = tiny_model_config()
    params = f64_params(cfg)
    assert not any("decode" in k or "lm_head" in k or "out_proj" in k for k in params)
    assert param_count(cfg) == sum(p.data.size for p in params.values())


def test_optimizer_step_on_embedding_moves_decode_logits():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg, seed=2)
    ids = np.array([[1, 2], [3, 1]])
    h = hidden(ids, params, cfg)
    before = [lg.data.copy() for lg in reconstruct_logits(h, params, cfg)]
    opt = Adam(params, lr=0.05)
    params["embed.0"].ensure_grad()[:] = 1.0
    opt.step()
    h2 = hidden(ids, params, cfg)
    after = reconstruct_logits(h2, params, cfg)
    assert not np.allclose(before[0], after[0].data)  # both paths moved together


def test_embedding_gradient_flows_from_both_paths():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg, seed=4)
    ids = np.array([[1, 2], [3, 4], [2, 3]])

    def loss_fn():
        return batch_reconstruction_loss([ids], params, cfg)

    err = grad_check(loss_fn, [params["embed.0"], params["embed.1"]],
                     np.random.default_rng(0), n_probes=20)
    assert err < 1e-4


# --- reconstruction loss --------------------------------------------------------

def loop_reconstruction_oracle(logits, targets, valid):
    """Scalar oracle with explicit loops: mean over valid rows of mean-over-D CE."""
    total, rows = 0.0, 0
    n, d_total = targets.shape
    for t in range(n):
        if not valid[t]:
            continue
        acc = 0.0
        for d in range(d_total):
            row = logits[d][t]
            z = row - row.max()
            acc += -(z[targets[t, d]] - math.log(np.exp(z).sum()))
        total += acc / d_total
        rows += 1
    return total / rows


def test_reconstruction_loss_uniform_logits():
    logits = [Tensor(np.zeros((4, 2), dtype=np.float64)),
              Tensor(np.zeros((4, 3), dtype=np.float64))]
    targets = np.array([[0, 1], [1, 2], [0, 0], [1, 1]])
    valid = np.ones(4, dtype=bool)
    loss = reconstruction_loss(logits, targets, valid)
    assert abs(loss.item() - (math.log(2) + math.log(3)) / 2) < 1e-9
    assert abs(loss.item() - 0.8959) < 5e-5


def test_reconstruction_loss_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        logits_np = [rng.standard_normal((3, 4)), rng.standard_normal((3, 5))]
        targets = np.stack([rng.integers(0, 4, 3), rng.integers(0, 5, 3)], axis=1)
        valid = np.array([True, rng.random() < 0.7, True])
        got = reconstruction_loss([Tensor(l) for l in logits_np], targets, valid).item()
        want = loop_reconstruction_oracle(logits_np, targets, valid)
        assert abs(got - want) < 1e-6


def test_reconstruction_loss_single_dim_is_lm_loss():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((5, 7))
    targets = rng.integers(0, 7, 5)
    valid = np.ones(5, dtype=bool)
    got = reconstruction_loss([Tensor(logits)], targets[:, None], valid).item()
    want = ops.softmax_ce(Tensor(logits), targets).item()
    assert abs(got - want) < 1e-9


def test_reconstruction_loss_all_padded_raises():
    logits = [Tensor(np.zeros((2, 3)))]
    with pytest.raises(ValueError):
        reconstruction_loss(logits, np.zeros((2, 1), dtype=np.int64),
                            np.zeros(2, dtype=bool))


def test_reconstruction_loss_rejects_misaligned_rows():
    logits = [Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5)))]
    targets, valid = np.zeros((3, 2), dtype=np.int64), np.ones(3, dtype=bool)
    reconstruction_loss(logits, targets, valid)  # aligned: accepted
    for bad_targets, bad_valid in ((targets[:2], valid), (targets[:, :1], valid),
                                   (targets, valid[:2])):
        with pytest.raises(DimensionError, match="reconstruction_loss"):
            reconstruction_loss(logits, bad_targets, bad_valid)


def test_full_model_gradient_check():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg, seed=6)
    rng = np.random.default_rng(2)
    ids = rng.integers(1, 4, size=(4, 2))
    # One row per BOS/event position of a sequence padded to t_max 12; only
    # the first 4 rows carry a real next event.
    targets = np.pad(rng.integers(1, 4, size=(5, 2)), ((0, 8), (0, 0)))
    valid = np.arange(13) < 4

    def loss_fn():
        h = hidden(ids, params, cfg)
        return reconstruction_loss(reconstruct_logits(h, params, cfg), targets, valid)

    names = ["embed.0", "pos", "layer0.attn.wq", "layer0.mlp.w1", "ln_f.g"]
    err = grad_check(loss_fn, [params[n] for n in names], np.random.default_rng(1),
                     n_probes=10)
    assert err < 1e-4


# --- training loop --------------------------------------------------------------

def test_pretrain_lr_zero_keeps_params(tiny_corpus):
    cfg = tiny_model_config()
    out, curve = pretrain_loop(tiny_corpus, cfg,
                               PretrainConfig(steps=3, batch_size=4, lr=0.0, seed=0))
    fresh = init_params(cfg, np.random.default_rng(0))
    # Same init seed stream: identical start, and lr=0 leaves it untouched.
    ref, _ = pretrain_loop(tiny_corpus, cfg,
                           PretrainConfig(steps=1, batch_size=4, lr=0.0, seed=0))
    for k in out:
        np.testing.assert_array_equal(out[k].data, ref[k].data)
    assert len(curve) == 3


def test_pretrain_determinism(tiny_corpus):
    cfg = tiny_model_config()
    pc = PretrainConfig(steps=5, batch_size=4, lr=1e-3, seed=3)
    _, c1 = pretrain_loop(tiny_corpus, cfg, pc)
    _, c2 = pretrain_loop(tiny_corpus, cfg, pc)
    assert c1 == c2


def test_pretrain_overfits_tiny_corpus():
    rng = np.random.default_rng(0)
    corpus = [make_sequence(rng, TINY_VOCAB, 16, f"u{i:03d}") for i in range(32)]
    cfg = ModelConfig(cardinalities=(4, 5), d_k=(32, 32), d_model=64, n_layers=2,
                      n_heads=4, t_max=16, dropout=0.0)
    pc = PretrainConfig(steps=500, batch_size=8, lr=3e-3, seed=0)
    _, curve = pretrain_loop(corpus, cfg, pc)
    first = curve[0][1]
    tail = np.mean([l for _, l in curve[-20:]])
    assert tail < 0.2 * first


def test_pretrain_initial_loss_near_uniform(tiny_corpus):
    cfg = tiny_model_config()
    pc = PretrainConfig(steps=1, batch_size=8, lr=1e-3, seed=1)
    _, curve = pretrain_loop(tiny_corpus, cfg, pc)
    expect = (math.log(4) + math.log(5)) / 2
    assert abs(curve[0][1] - expect) / expect < 0.05


def test_batch_loss_ignores_padding():
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg, seed=11)
    rng = np.random.default_rng(3)
    short = make_sequence(rng, TINY_VOCAB, 3, "a")
    long = make_sequence(rng, TINY_VOCAB, 7, "b")

    def batch_loss(seqs):
        return batch_reconstruction_loss([s.ids for s in seqs], params, cfg).item()

    alone = batch_loss([short, short])
    padded = batch_loss([short, long])
    # The short sequence's contribution is identical whether or not the batch
    # is padded out to the longer segment; check via a mixed-batch identity.
    l_short = batch_loss([short])
    l_long = batch_loss([long])
    assert abs(padded - (3 * l_short + 7 * l_long) / 10) < 1e-5
    assert abs(alone - l_short) < 1e-6
