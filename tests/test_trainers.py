"""The step, the sampler and the dropout rng shared by pretraining, SFT and
contrastive tuning."""

import dataclasses
import os
import time
import tracemalloc

import numpy as np
import pytest

import fraudformer.contrastive as cl
import fraudformer.model as model_mod
from fraudformer import parallel
from fraudformer.config import load_run_config
from fraudformer.contrastive import ContrastiveConfig, finetune_contrastive
from fraudformer.data import GeneratorConfig, default_vocab, generate_corpus
from fraudformer.model import (ModelConfig, PretrainConfig, batch_reconstruction_loss,
                               init_params, pretrain_loop, shard_reconstruction_loss)
from fraudformer.numerics import GradTape, Tensor, softmax_ce
from fraudformer.numerics.optim import Adam
from fraudformer.rng import child_rng, shuffled_batches
from fraudformer.sft import (AnomalyHeadConfig, SftConfig, batch_class_logits, finetune_sft,
                             init_head_params, shard_class_loss)
from tests.conftest import assert_no_child, needs_two_workers


def test_shuffled_batches_walk_one_permutation_per_epoch():
    batches = list(shuffled_batches(5, 2, 6, seed=3, label="t-order"))
    perms = [child_rng(3, "t-order", epoch).permutation(5).tolist() for epoch in range(3)]
    assert all(len(b) == 2 for b in batches)
    # Batch 2 takes the last index of epoch 0 and the first of epoch 1.
    assert [i for b in batches for i in b] == (perms[0] + perms[1] + perms[2])[:12]
    with pytest.raises(ValueError, match="empty"):
        next(shuffled_batches(0, 2, 1, seed=0, label="t-order"))


MODEL = ModelConfig.for_vocab(default_vocab(), d_model=16, n_layers=1, n_heads=2,
                              t_max=16, dropout=0.1)

TRAINERS = {
    "pretrain": lambda corpus: pretrain_loop(
        corpus, MODEL, PretrainConfig(steps=2, batch_size=8, seed=0)),
    "sft": lambda corpus: finetune_sft(
        init_params(MODEL, np.random.default_rng(0)), MODEL, corpus,
        AnomalyHeadConfig(filters=4, hidden=8),
        SftConfig(epochs=1, batch_size=8, seed=0)),
    "contrastive": lambda corpus: finetune_contrastive(
        init_params(MODEL, np.random.default_rng(0)), MODEL, corpus,
        ContrastiveConfig(batch_size=8, steps=2, seed=0)),
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_nan_parameter_stops_each_trainer_at_step_0(trainer, small_planted_corpus, monkeypatch):
    """One NaN weight makes the first loss NaN; the step raises before any update."""
    opts = []
    real_init = Adam.__init__

    def poisoned_init(self, params, *args, **kwargs):
        real_init(self, params, *args, **kwargs)
        params["layer0.mlp.w1"].data[0, 0] = np.nan
        opts.append((self, {name: p.data.copy() for name, p in params.items()}))

    monkeypatch.setattr(Adam, "__init__", poisoned_init)
    with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
        TRAINERS[trainer](small_planted_corpus[:40])
    [(opt, before)] = opts
    assert opt.t == 0
    for name, p in opt.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    assert_no_child()


# Uneven shards: batches of 7 split 4 + 3, and SFT's last batch of an epoch is
# short. A batch of one window has no shard 1.
SHARDED = {
    "pretrain": lambda corpus: pretrain_loop(
        corpus, MODEL, PretrainConfig(steps=3, batch_size=7, seed=2)),
    "pretrain_batch_1": lambda corpus: pretrain_loop(
        corpus, MODEL, PretrainConfig(steps=3, batch_size=1, seed=2)),
    "sft": lambda corpus: finetune_sft(
        init_params(MODEL, np.random.default_rng(0)), MODEL, corpus,
        AnomalyHeadConfig(filters=4, hidden=8),
        SftConfig(epochs=2, batch_size=7, seed=2)),
}


@needs_two_workers
@pytest.mark.parametrize("trainer", sorted(SHARDED))
def test_one_and_two_workers_train_the_same_bits(trainer, small_planted_corpus, monkeypatch):
    """The shards are fixed, so a worker changes where shard 1 runs and not
    a bit of the parameters, the curve or the metrics."""
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        runs.append(SHARDED[trainer](small_planted_corpus[:40]))
        assert_no_child()
    (params1, log1), (params2, log2) = runs
    assert log1 == log2
    assert sorted(params1) == sorted(params2)
    for name in params1:
        np.testing.assert_array_equal(params1[name].data, params2[name].data, err_msg=name)


def gradients(params, loss_fn):
    """loss_fn(leaves), a (loss, hits) pair, and each parameter's gradient,
    on fresh leaves that wrap ``params``' arrays."""
    leaves = {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}
    with GradTape() as tape:
        loss, hits = loss_fn(leaves)
    tape.backward(loss)
    return float(loss.data), hits, {name: t.grad for name, t in leaves.items()}


@pytest.mark.parametrize("n", [2, 7, 8])
def test_weighted_shards_sum_to_the_full_batch(n, small_planted_corpus):
    """At dropout 0 the two weighted shard losses sum to the batch's loss, and
    g0 + g1 is the batch's gradient, to float32 round-off; SFT's hits too."""
    model = dataclasses.replace(MODEL, dropout=0.0)
    head = AnomalyHeadConfig(filters=4, hidden=8, dropout=0.0)
    params = init_params(model, np.random.default_rng(0))
    params.update(init_head_params(head, model.d_model, np.random.default_rng(1)))
    # Windows of unequal length, so the pretrain shares are not n0 / n.
    ids = [s.ids[:6 + 2 * i] for i, s in enumerate(small_planted_corpus[:n])]
    labels = np.array([int(s.label > 0) for s in small_planted_corpus[:n]])
    assert 0 < labels.sum() < n

    def class_loss(leaves):
        logits = batch_class_logits(ids, leaves, model, head)
        return softmax_ce(logits, labels), int((logits.data.argmax(axis=1) == labels).sum())

    cases = [(lambda leaves: (batch_reconstruction_loss(ids, leaves, model), 0),
              lambda k, leaves: (shard_reconstruction_loss(ids, k, leaves, model), 0)),
             (class_loss, lambda k, leaves: shard_class_loss(ids, labels, k, leaves, model, head))]
    for full_fn, shard_fn in cases:
        loss, hits, g = gradients(params, full_fn)
        shards = [gradients(params, lambda leaves, k=k: shard_fn(k, leaves)) for k in (0, 1)]
        np.testing.assert_allclose(shards[0][0] + shards[1][0], loss, rtol=1e-6)
        assert shards[0][1] + shards[1][1] == hits
        # Float32 round-off against the largest gradient entry: some, such as
        # the key biases' (attention is shift-invariant), are round-off alone.
        atol = 1e-6 * max(np.abs(v).max() for v in g.values() if v is not None)
        for name in g:
            if g[name] is None:
                assert all(grads[name] is None for _, _, grads in shards), name
                continue
            summed = shards[0][2][name] + shards[1][2][name]
            np.testing.assert_allclose(summed, g[name], rtol=1e-4, atol=atol, err_msg=name)


@needs_two_workers
@pytest.mark.parametrize("worker_first", [True, False],
                         ids=["before_this_process_posts", "after_this_process_posts"])
def test_a_worker_that_dies_mid_training_fails_clearly(small_planted_corpus, monkeypatch,
                                                       worker_first):
    """The worker dies at its second step, before or after this process has
    sent it its shard of that step: a broken pipe or a cut record, the same
    failure either way."""
    real, parent, calls = model_mod.batch_reconstruction_loss, os.getpid(), []

    def dies_at_the_workers_second_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            if os.getpid() != parent:
                time.sleep(0 if worker_first else 0.3)
                os._exit(3)
            time.sleep(0.3 if worker_first else 0)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_mod, "batch_reconstruction_loss", dies_at_the_workers_second_step)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    with pytest.raises(RuntimeError, match="the worker process exited with status 3 "
                                           "before its last step"):
        SHARDED["pretrain"](small_planted_corpus[:40])
    assert_no_child()


def test_contrastive_step_peak_stays_near_its_forward(monkeypatch):
    """Backward frees the tape as it runs: a contrastive step at the default model
    and batch (64 windows of 32 events, two dropout views) peaks within 1.25x of
    the bytes its finished forward holds. Keeping every record and intermediate
    gradient until the step ends gave 1.90x."""
    run = load_run_config()
    model = run.model_config(default_vocab())
    corpus = generate_corpus(GeneratorConfig(n_users=64, t_min=32, t_max=48, seed=3))
    params = init_params(model, np.random.default_rng(0))
    held = []
    real_infonce = cl.infonce_loss

    def infonce_then_measure(*args):
        loss = real_infonce(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        return loss

    monkeypatch.setattr(cl, "infonce_loss", infonce_then_measure)
    tracemalloc.start()
    try:
        finetune_contrastive(params, model, corpus,
                             dataclasses.replace(run.contrastive_config(), steps=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [forward] = held
    assert peak <= 1.25 * forward, f"peak {peak / 1e6:.1f} MB, forward {forward / 1e6:.1f} MB"


# Each forward that takes a dropout rng, as (model, head, params, batch, rng) -> Tensor.
RNG_FORWARDS = {
    "batch_reconstruction_loss": lambda model, head, params, seqs, rng:
        batch_reconstruction_loss([s.ids for s in seqs], params, model, rng),
    "batch_class_logits": lambda model, head, params, seqs, rng:
        batch_class_logits([s.ids for s in seqs], params, model, head, rng),
    "embed_batch": lambda model, head, params, seqs, rng:
        cl.embed_batch([s.ids for s in seqs], params, model, rng),
    "embed_sequence": lambda model, head, params, seqs, rng:
        cl.embed_sequence(params, model, seqs[0], rng),
}


@pytest.mark.parametrize("forward", sorted(RNG_FORWARDS))
def test_dropout_runs_iff_an_rng_is_passed(forward, small_planted_corpus):
    """At dropout 0.5, no rng gives the bits of dropout 0; one rng gives the
    same bits twice, and not those of no rng."""
    head = AnomalyHeadConfig(filters=4, hidden=8, dropout=0.5)
    on = (dataclasses.replace(MODEL, dropout=0.5), head)
    off = (dataclasses.replace(MODEL, dropout=0.0), dataclasses.replace(head, dropout=0.0))
    params = init_params(MODEL, np.random.default_rng(0))
    params.update(init_head_params(head, MODEL.d_model, np.random.default_rng(1)))
    seqs = small_planted_corpus[:4]

    def run(cfgs, rng):
        return RNG_FORWARDS[forward](*cfgs, params, seqs, rng).data

    evaluated = run(on, None)
    np.testing.assert_array_equal(evaluated, run(off, None))
    np.testing.assert_array_equal(evaluated, run(off, child_rng(0, "test-dropout")))
    trained = run(on, child_rng(0, "test-dropout"))
    np.testing.assert_array_equal(trained, run(on, child_rng(0, "test-dropout")))
    assert not np.array_equal(trained, evaluated)
