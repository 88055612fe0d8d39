"""Sequence embeddings, cosine similarity, InfoNCE, contrastive fine-tuning."""

import math

import numpy as np
import pytest

from fraudformer.contrastive import (ContrastiveConfig, cosine_matrix, embed_batch,
                                     embed_sequence, finetune_contrastive,
                                     infonce_loss, mean_alignment)
from fraudformer.model import causal_forward, encode_batch, init_params
from fraudformer.numerics.gradcheck import grad_check
from fraudformer.numerics.ops import take_rows
from fraudformer.numerics.tensor import DimensionError, Tensor
from fraudformer.sft import AnomalyHeadConfig
from tests.conftest import f64_params, tiny_model_config


def loop_cosine_oracle(a, b):
    n, d = a.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            num = sum(a[i, k] * b[j, k] for k in range(d))
            out[i, j] = num / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    return out


# --- cosine matrix ---------------------------------------------------------------

def test_cosine_orthonormal_rows_give_identity():
    a = Tensor(np.eye(3), dtype=np.float64)
    np.testing.assert_allclose(cosine_matrix(a, a).data, np.eye(3), atol=1e-12)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((4, 5))
    got = cosine_matrix(Tensor(2.0 * b, dtype=np.float64),
                        Tensor(b, dtype=np.float64)).data
    np.testing.assert_allclose(np.diag(got), 1.0, atol=1e-12)


def test_cosine_matches_loop_oracle():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    got = cosine_matrix(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    np.testing.assert_allclose(got, loop_cosine_oracle(a, b), atol=1e-6)
    assert (np.abs(got) <= 1 + 1e-12).all()


# --- InfoNCE -----------------------------------------------------------------------

def test_infonce_equal_similarities_is_log_n():
    # Identical rows: every cosine is 1, softmax is uniform.
    v = Tensor(np.tile([1.0, 2.0], (4, 1)), dtype=np.float64)
    loss = infonce_loss(v, v.copy(), tau=0.05)
    assert abs(loss.item() - math.log(4)) < 1e-9
    assert abs(loss.item() - 1.3863) < 1e-4


def test_infonce_perfect_alignment_near_zero():
    v = Tensor(np.eye(4), dtype=np.float64)  # orthogonal: off-diagonal cos = 0
    loss = infonce_loss(v, v.copy(), tau=0.05)
    assert loss.item() < 1e-6  # bounded by (N-1) e^{-1/tau}


def test_infonce_parameter_errors():
    v = Tensor(np.eye(3), dtype=np.float64)
    with pytest.raises(ValueError):
        infonce_loss(v, v, tau=0.0)
    one = Tensor(np.ones((1, 3)), dtype=np.float64)
    with pytest.raises(ValueError):
        infonce_loss(one, one, tau=0.05)


def test_infonce_batch_permutation_invariance():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    base = infonce_loss(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64), 0.1).item()
    perm = rng.permutation(6)
    shuf = infonce_loss(Tensor(a[perm], dtype=np.float64),
                        Tensor(b[perm], dtype=np.float64), 0.1).item()
    assert abs(base - shuf) < 1e-9


def test_infonce_gradient_check():
    rng = np.random.default_rng(3)
    v = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    vp = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    err = grad_check(lambda: infonce_loss(v, vp, 0.2), [v, vp],
                     np.random.default_rng(0), n_probes=20)
    assert err < 1e-4


# --- embeddings ----------------------------------------------------------------------

def test_embed_sequence_eval_deterministic(tiny_corpus):
    cfg = tiny_model_config()
    params = f64_params(cfg)
    a = embed_sequence(params, cfg, tiny_corpus[0]).data
    b = embed_sequence(params, cfg, tiny_corpus[0]).data
    np.testing.assert_array_equal(a, b)


def test_embed_sequence_dropout_views_differ(tiny_corpus):
    cfg = tiny_model_config(dropout=0.2)
    params = f64_params(cfg)
    a = embed_sequence(params, cfg, tiny_corpus[0], np.random.default_rng(1)).data
    b = embed_sequence(params, cfg, tiny_corpus[0], np.random.default_rng(2)).data
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1.0 - 1e-9


def test_embed_sequence_dropout_zero_equals_eval(tiny_corpus):
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg)
    tr = embed_sequence(params, cfg, tiny_corpus[1], np.random.default_rng(0)).data
    ev = embed_sequence(params, cfg, tiny_corpus[1]).data
    np.testing.assert_array_equal(tr, ev)


def test_embed_batch_matches_single(tiny_corpus):
    cfg = tiny_model_config()
    params = f64_params(cfg)
    seqs = tiny_corpus[:3]
    batch = embed_batch([s.ids for s in seqs], params, cfg).data
    for i, s in enumerate(seqs):
        np.testing.assert_allclose(batch[i], embed_sequence(params, cfg, s).data,
                                   atol=1e-10)


@pytest.mark.parametrize("batch", [1, 2, 16])
def test_embed_batch_rows_match_the_full_forward(batch):
    """The last layer run at each sequence's last row only gives the rows that
    the full forward gives there, to float32 round-off, at every length."""
    cfg = tiny_model_config(n_layers=2, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(batch)
    lengths = list(range(AnomalyHeadConfig().min_events, cfg.t_max + 1))
    lengths = np.resize(lengths, -(-len(lengths) // batch) * batch).reshape(-1, batch)
    for chunk in lengths:
        ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
               for t in chunk]
        x = encode_batch(ids, params, cfg).x
        last = np.arange(batch) * (cfg.t_max + 1) + chunk
        want = take_rows(causal_forward(x, params, cfg), last).data
        got = embed_batch(ids, params, cfg).data
        assert got.dtype == np.float32 and got.shape == (batch, cfg.d_model)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_causal_forward_rejects_last_rows_outside_their_sequence(tiny_corpus):
    cfg = tiny_model_config(dropout=0.0)
    params = f64_params(cfg)
    x = encode_batch([s.ids[-cfg.t_max:] for s in tiny_corpus[:2]], params, cfg).x
    r = cfg.t_max + 1
    for last in ([3], [3, 2], [3, r + r]):
        with pytest.raises(DimensionError, match="one row of each"):
            causal_forward(x, params, cfg, last=np.array(last))


# --- training -------------------------------------------------------------------------

def test_contrastive_rejects_zero_dropout(tiny_corpus):
    cfg = tiny_model_config(dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dropout"):
        finetune_contrastive(params, cfg, tiny_corpus,
                             ContrastiveConfig(batch_size=8, steps=1, seed=0))


def test_contrastive_rejects_small_corpus(tiny_corpus):
    cfg = tiny_model_config()
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="batch"):
        finetune_contrastive(params, cfg, tiny_corpus[:4],
                             ContrastiveConfig(batch_size=8, steps=1, seed=0))


def test_contrastive_reduces_loss_and_is_deterministic(tiny_corpus):
    cfg = tiny_model_config(dropout=0.1)
    ccfg = ContrastiveConfig(tau=0.05, batch_size=8, steps=30, lr=1e-3, seed=0)

    def run():
        params = init_params(cfg, np.random.default_rng(6))
        return finetune_contrastive(params, cfg, tiny_corpus, ccfg)

    params, curve = run()
    assert len(curve) == 30
    # The tiny random model starts close to its floor; the load-bearing checks
    # are staying under the uniform-softmax ceiling and exact reproducibility.
    assert all(l < math.log(8) for _, l in curve)
    _, curve2 = run()
    assert curve == curve2


def test_mean_alignment_bounds(tiny_corpus):
    cfg = tiny_model_config()
    params = f64_params(cfg)
    ids = [s.ids for s in tiny_corpus[:6]]
    v = embed_batch(ids, params, cfg).data
    assert -1.0 - 1e-9 <= mean_alignment(v, v) <= 1.0 + 1e-9
    assert abs(mean_alignment(v, v) - 1.0) < 1e-9
