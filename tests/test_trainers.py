"""The step, the sampler and the dropout rng shared by pretraining, SFT and
contrastive tuning."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fraudformer.contrastive as cl
from fraudformer.config import load_run_config
from fraudformer.contrastive import ContrastiveConfig, finetune_contrastive
from fraudformer.data import GeneratorConfig, default_vocab, generate_corpus
from fraudformer.model import (ModelConfig, PretrainConfig, batch_reconstruction_loss,
                               init_params, pretrain_loop)
from fraudformer.numerics.optim import Adam
from fraudformer.rng import child_rng, shuffled_batches
from fraudformer.sft import (AnomalyHeadConfig, SftConfig, batch_class_logits, finetune_sft,
                             init_head_params)


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
        corpus, MODEL, PretrainConfig(steps=2, batch_size=8)),
    "sft": lambda corpus: finetune_sft(
        init_params(MODEL, np.random.default_rng(0)), MODEL, corpus,
        AnomalyHeadConfig(filters=4, hidden=8),
        SftConfig(epochs=1, batch_size=8)),
    "contrastive": lambda corpus: finetune_contrastive(
        init_params(MODEL, np.random.default_rng(0)), MODEL, corpus,
        ContrastiveConfig(batch_size=8, steps=2)),
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
