"""The step, the sampler and the dropout rng shared by pretraining, SFT and
contrastive tuning."""

import dataclasses
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

import fraudformer.contrastive as cl
import fraudformer.model as model_mod
from fraudformer import parallel
from fraudformer.config import load_run_config
from fraudformer.contrastive import ContrastiveConfig, finetune_contrastive
from fraudformer.data import GeneratorConfig, default_vocab, generate_corpus, window_sample
from fraudformer.model import (ModelConfig, PretrainConfig, batch_reconstruction_loss,
                               init_params, pretrain_loop, shard_reconstruction_loss)
from fraudformer.numerics import GradTape, Tensor, ops, softmax_ce
from fraudformer.numerics.optim import Adam
from fraudformer.rng import child_rng, shuffled_batches
from fraudformer.sft import (AnomalyHeadConfig, SftConfig, batch_class_logits, finetune_sft,
                             init_head_params, shard_class_loss)
from fraudformer.verify import weighted_sum
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


@needs_two_workers
@pytest.mark.parametrize("trainer", ["pretrain", "sft"])
def test_only_this_process_steps_the_optimizer(trainer, small_planted_corpus, monkeypatch):
    """The worker computes gradients and nothing else: every Adam step runs
    here, on parameters that the worker reads."""
    real_step, parent, steps = Adam.step, os.getpid(), []

    def step_here_only(self):
        if os.getpid() != parent:
            raise RuntimeError("Adam.step ran in the worker")
        steps.append(self.t)
        real_step(self)

    monkeypatch.setattr(Adam, "step", step_here_only)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    SHARDED[trainer](small_planted_corpus[:40])
    assert steps and steps == list(range(len(steps)))
    assert_no_child()


@needs_two_workers
def test_parameters_left_without_a_gradient_train_alike_at_one_and_two_workers(monkeypatch):
    """"none" gets a gradient from neither shard, and "late" from shard 1
    only, at steps 0 and 2: at 1 and 2 workers the parameters, Adam's
    moments and step count, and each step's (loss, hits) are equal, and
    "none" never moves. Step 1 must not reuse step 0's gradient of "late"."""
    def shard_loss(step, shard, leaves):
        loss = ops.scale(weighted_sum(leaves["both"], leaves["both"]), 1.0 + shard)
        if shard == 1 and step != 1:
            loss = ops.add(loss, weighted_sum(leaves["late"], leaves["late"]))
        return ops.scale(loss, step + 1.0), shard + 1

    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        rng = np.random.default_rng(0)
        params = {name: Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
                  for name in ("both", "late", "none")}
        none = params["none"].data.copy()
        opt = Adam(params, lr=0.1)
        runs.append((parallel.train_steps(opt, 3, shard_loss), opt))
        assert_no_child()
        np.testing.assert_array_equal(params["none"].data, none)
    (log1, opt1), (log2, opt2) = runs
    assert log1 == log2 and [hits for _, hits in log1] == [3, 3, 3]
    assert opt1.t == opt2.t == 3
    for name in opt1.params:
        for a, b in ((opt1.params[name].data, opt2.params[name].data),
                     (opt1.m[name], opt2.m[name]), (opt1.v[name], opt2.v[name])):
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert not opt2.m["none"].any() and opt2.m["late"].all()


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


# Float32 gradients against float64 ones, as a share of the global gradient
# norm. Over seeds 0-39 the worst parameter of a pretrain or SFT batch read
# 1.3e-7 to 3.4e-7 (float32's unit round-off is 6e-8), with one exception: at
# seed 19 a layer-1 MLP input sits at 1.7e-8 in float32 and -4.6e-9 in
# float64, on either side of the ReLU's kink, and layer1.mlp.w1 read 9.5e-5.
# That is a different active set, not round-off. The seeds below read
# 1.7e-7 to 3.0e-7.
F32_GRAD_BOUND = 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_gradients_match_float64_at_the_default_model(seed):
    """One pretrain batch and one SFT batch of 32 windows at the default
    model and head, dropout on: each parameter's float32 gradient differs
    from that of the same step with every parameter cast to float64 by less
    than F32_GRAD_BOUND of the float64 gradient's global norm. A relative
    error per parameter would not do: the key biases' true gradient is 0."""
    cfg = load_run_config()
    model, head = cfg.model_config(default_vocab()), cfg.head_config()
    rng = np.random.default_rng(seed)
    params = init_params(model, rng)
    backbone = dict(params)
    params.update(init_head_params(head, model.d_model, rng))
    users = generate_corpus(GeneratorConfig(n_users=200, fraud_fraction=0.2, seed=seed))
    wrng = np.random.default_rng(seed + 100)
    pre_ids = [window_sample(s, model.t_max, wrng) for s in users[:32]]
    batch = [s for s in users if s.label > 0][:8] + [s for s in users if s.label == 0][:24]
    sft_ids = [window_sample(s, model.t_max, wrng) for s in batch]
    labels = np.array([int(s.label > 0) for s in batch])

    def pre_loss(leaves):
        drng = np.random.default_rng(seed + 200)
        return batch_reconstruction_loss(pre_ids, leaves, model, drng), 0

    def sft_loss(leaves):
        drng = np.random.default_rng(seed + 300)
        return softmax_ce(batch_class_logits(sft_ids, leaves, model, head, drng), labels), 0

    for stage, group, loss_fn in (("pretrain", backbone, pre_loss), ("sft", params, sft_loss)):
        g32 = gradients(group, loss_fn)[2]
        g64 = gradients({k: Tensor(p.data.astype(np.float64)) for k, p in group.items()},
                        loss_fn)[2]
        assert {g.dtype for g in g32.values()} == {np.dtype(np.float32)}
        assert {g.dtype for g in g64.values()} == {np.dtype(np.float64)}
        norm = np.sqrt(sum(np.sum(g * g) for g in g64.values()))
        errors = {k: np.linalg.norm(g32[k] - g64[k]) / norm for k in g64}
        worst = max(errors, key=errors.get)
        assert errors[worst] < F32_GRAD_BOUND, (stage, worst, errors[worst])


@needs_two_workers
@pytest.mark.parametrize("worker_first", [True, False],
                         ids=["before_this_process_sends_the_step",
                              "after_this_process_sends_the_step"])
def test_a_worker_that_dies_mid_training_fails_clearly(small_planted_corpus, monkeypatch,
                                                       worker_first):
    """The worker dies as it waits for its second step, before or after this
    process has sent that step's number: a broken pipe or a cut record, the
    same failure either way."""
    real_load, real_loss, parent = pickle.load, model_mod.batch_reconstruction_loss, os.getpid()
    reads, slowed = [], []

    def dies_waiting_for_its_second_step(file):
        if os.getpid() != parent:
            reads.append(1)
            if len(reads) == 2:
                time.sleep(0 if worker_first else 0.3)
                os._exit(3)
        return real_load(file)

    def slow_first_shard(*args, **kwargs):
        if os.getpid() == parent and not slowed:
            slowed.append(1)
            time.sleep(0.3 if worker_first else 0)
        return real_loss(*args, **kwargs)

    monkeypatch.setattr(pickle, "load", dies_waiting_for_its_second_step)
    monkeypatch.setattr(model_mod, "batch_reconstruction_loss", slow_first_shard)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    with pytest.raises(RuntimeError, match="the worker process exited with status 3 "
                                           "before its last step") as failed:
        SHARDED["pretrain"](small_planted_corpus[:40])
    assert_no_child()
    # Which of the two it was shows in the error's chain of contexts.
    causes, exc = [], failed.value
    while exc is not None:
        causes.append(type(exc))
        exc = exc.__context__
    assert (BrokenPipeError in causes) == worker_first, causes


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
