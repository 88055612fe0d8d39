"""Release acceptance suite.

Nine end-to-end criteria, one test per criterion. Each test appends a
PASS/FAIL verdict line that conftest echoes in the terminal summary.
Criteria 7 and 8 train real (small) models and dominate the runtime.
"""

import math
import time

import numpy as np
import pytest

from fraudformer.checkpoint import load_checkpoint, save_checkpoint
from fraudformer.cli import SMOKE_OVERRIDES, pipeline_smoke, run_subcommand
from fraudformer.config import load_run_config
from fraudformer.contrastive import (ContrastiveConfig, cosine_matrix,
                                     embed_batch, finetune_contrastive,
                                     infonce_loss, mean_alignment)
from fraudformer.data import GeneratorConfig, generate_corpus
from fraudformer.evaluation import (RankEntry, per_class_metrics, roc_auc,
                                    topk_consistent, topk_rank_metrics)
from fraudformer.model import (ModelConfig, allocate_widths,
                               batch_reconstruction_loss, causal_forward,
                               encode_batch, init_params,
                               param_count, reconstruct_logits,
                               reconstruction_loss)
from fraudformer.numerics.optim import Adam
from fraudformer.numerics.tensor import Tensor
from fraudformer.rng import child_rng
from fraudformer.verify import TOLERANCE, gradient_suite

from tests import conftest


def check(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[criterion {num}] {verdict}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def f64_model(cards, d_model, n_layers, n_heads, t_max, seed):
    cfg = ModelConfig(cardinalities=tuple(cards),
                      d_k=allocate_widths(cards, d_model), d_model=d_model,
                      n_layers=n_layers, n_heads=n_heads, t_max=t_max,
                      dropout=0.0)
    params = init_params(cfg, np.random.default_rng(seed), dtype=np.float64)
    return cfg, params


# --- 1: gradient suite --------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = gradient_suite(seed=0)
    rc = run_subcommand(["gradcheck"])
    elapsed = time.monotonic() - t0
    worst = max(err for _, err in results)
    ok = all(err < TOLERANCE for _, err in results) and rc == 0 and elapsed < 60
    check(1, "gradient checks < 1e-4, gradcheck exits 0 in < 60 s", ok,
          f"{len(results)} checks, worst {worst:.2e}, {elapsed:.1f}s, rc={rc}")


# --- 2: causality ---------------------------------------------------------------------

def test_criterion_2_causality():
    cards = (6, 5, 4)
    cfg, params = f64_model(cards, d_model=32, n_layers=4, n_heads=4,
                            t_max=16, seed=11)
    rng = np.random.default_rng(12)
    t_len = 16
    base = np.stack([rng.integers(1, v, size=t_len) for v in cards], axis=1)

    def logits_of(ids):
        h = causal_forward(encode_batch([ids], params, cfg).x, params, cfg)
        return np.concatenate([l.data for l in reconstruct_logits(h, params, cfg)],
                              axis=1)

    ref = logits_of(base)
    worst_past = 0.0
    future_changed = 0
    for _ in range(100):
        t = int(rng.integers(0, t_len))
        d = int(rng.integers(0, len(cards)))
        ids = base.copy()
        old = ids[t, d]
        while ids[t, d] == old:
            ids[t, d] = rng.integers(1, cards[d])
        got = logits_of(ids)
        # Row 0 is BOS; row t predicts event t from the events before it.
        worst_past = max(worst_past, float(np.abs(got[:t + 1] - ref[:t + 1]).max()))
        if np.abs(got[t + 1:] - ref[t + 1:]).max() > 1e-6:
            future_changed += 1
    ok = worst_past < 1e-12 and future_changed == 100
    check(2, "perturbation at t leaves logits before t unchanged (100 trials)",
          ok, f"max past diff {worst_past:.2e}, future changed {future_changed}/100")


# --- 3: weight tying --------------------------------------------------------------------

def tying_probe(params, cfg, ids):
    """One optimizer step on the first embedding table moves both paths."""
    emb_before = encode_batch([ids], params, cfg).x.data.copy()
    h = causal_forward(encode_batch([ids], params, cfg).x, params, cfg)
    dec_before = reconstruct_logits(h, params, cfg)[0].data.copy()
    opt = Adam(params, lr=0.05)
    params["embed.0"].ensure_grad()[:] = 1.0
    opt.step()
    emb_after = encode_batch([ids], params, cfg).x.data
    h2 = causal_forward(encode_batch([ids], params, cfg).x, params, cfg)
    dec_after = reconstruct_logits(h2, params, cfg)[0].data
    return (not np.allclose(emb_before, emb_after)
            and not np.allclose(dec_before, dec_after))


def test_criterion_3_weight_tying(tmp_path):
    cards = (7, 4, 9)
    cfg = ModelConfig(cardinalities=cards, d_k=allocate_widths(cards, 24),
                      d_model=24, n_layers=2, n_heads=2, t_max=10, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(3))
    actual = sum(int(p.data.size) for p in params.values())
    count_ok = param_count(cfg) == actual
    embed_tables = [k for k in params if k.startswith("embed.")]
    no_decode = (len(embed_tables) == len(cards)
                 and not any("decode" in k or "unembed" in k for k in params))

    ids = np.stack([np.random.default_rng(4).integers(1, v, size=6)
                    for v in cards], axis=1)
    live_ok = tying_probe(params, cfg, ids)

    path = tmp_path / "tied.ckpt"
    save_checkpoint(path, params, cfg)
    ck = load_checkpoint(path)
    reload_ok = (sum(int(p.data.size) for p in ck.params.values())
                 == param_count(cfg)) and tying_probe(ck.params, cfg, ids)

    ok = count_ok and no_decode and live_ok and reload_ok
    check(3, "tied tables: closed-form count, shared update, checkpoint-stable",
          ok, f"params {actual}, closed form {param_count(cfg)}")


# --- 4: analytic losses -----------------------------------------------------------------

def test_criterion_4_analytic_losses():
    # Uniform logits, V = [2, 3].
    n = 10
    rng = np.random.default_rng(5)
    logits = [Tensor(np.zeros((n, v)), dtype=np.float64) for v in (2, 3)]
    targets = np.stack([rng.integers(0, v, size=n) for v in (2, 3)], axis=1)
    uniform = reconstruction_loss(logits, targets, np.ones(n, dtype=bool)).item()
    expect = 0.5 * (math.log(2) + math.log(3))
    uniform_ok = abs(uniform - expect) < 1e-6 and abs(uniform - 0.8959) < 5e-5

    # InfoNCE with all similarities equal.
    v = Tensor(np.tile([0.3, -1.2, 0.5], (8, 1)), dtype=np.float64)
    nce = infonce_loss(v, v.copy(), tau=0.05).item()
    nce_ok = abs(nce - math.log(8)) < 1e-9

    # Fresh model, first real batch.
    gen = GeneratorConfig(n_users=32, fraud_fraction=0.0, t_min=16, t_max=16,
                          seed=6)
    corpus = generate_corpus(gen)
    cfg = load_run_config().model_config(gen.vocab)
    params = init_params(cfg, np.random.default_rng(7))
    ids = [s.ids for s in corpus]
    first = batch_reconstruction_loss(ids, params, cfg).item()
    floor = np.mean([math.log(v) for v in cfg.cardinalities])
    first_ok = abs(first - floor) / floor < 0.05

    check(4, "uniform recon = mean ln V_d; InfoNCE = ln N; init loss near floor",
          uniform_ok and nce_ok and first_ok,
          f"uniform {uniform:.6f}, infonce {nce:.10f}, "
          f"first batch {first:.4f} vs {floor:.4f}")


# --- 5: oracle equivalence ---------------------------------------------------------------

def loop_recon(logit_arrays, targets, valid):
    total, rows = 0.0, 0
    for i in range(targets.shape[0]):
        if not valid[i]:
            continue
        per_dim = []
        for d, l in enumerate(logit_arrays):
            z = l[i] - l[i].max()
            per_dim.append(-(z[targets[i, d]] - math.log(np.exp(z).sum())))
        total += float(np.mean(per_dim))
        rows += 1
    return total / rows


def loop_cosine(a, b):
    out = np.zeros((a.shape[0], a.shape[0]))
    for i in range(a.shape[0]):
        for j in range(a.shape[0]):
            out[i, j] = (a[i] @ b[j]) / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    return out


def loop_per_class(preds, labels, n_classes):
    rows = []
    for c in range(n_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        support = sum(1 for l in labels if l == c)
        predicted = sum(1 for p in preds if p == c)
        rows.append((100 * tp / support if support else None,
                     100 * tp / predicted if predicted else None,
                     100 * support / len(labels)))
    return rows


def loop_topk(entries, k):
    order = sorted(entries, key=lambda e: (-e.score, e.user_id))
    cut = math.ceil(k * len(entries))
    hits = sum(e.true_label for e in order[:cut])
    p_total = sum(e.true_label for e in entries)
    return cut, hits, 100 * hits / cut, 100 * hits / p_total


def loop_auc(entries):
    pos = [e.score for e in entries if e.true_label == 1]
    neg = [e.score for e in entries if e.true_label == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(8)
    n_instances = 120
    failures = []

    for i in range(n_instances):
        # reconstruction loss
        n = int(rng.integers(2, 8))
        cards = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4)))]
        logit_arrays = [rng.standard_normal((n, v)) for v in cards]
        targets = np.stack([rng.integers(0, v, size=n) for v in cards], axis=1)
        valid = rng.random(n) < 0.7
        if not valid.any():
            valid[0] = True
        got = reconstruction_loss([Tensor(l, dtype=np.float64) for l in logit_arrays],
                                  targets, valid).item()
        if abs(got - loop_recon(logit_arrays, targets, valid)) > 1e-6:
            failures.append(("recon", i))

        # cosine matrix
        a = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 7))))
        b = rng.standard_normal(a.shape)
        got = cosine_matrix(Tensor(a, dtype=np.float64),
                            Tensor(b, dtype=np.float64)).data
        if np.abs(got - loop_cosine(a, b)).max() > 1e-6:
            failures.append(("cosine", i))

        # per-class metrics
        n_classes = int(rng.integers(2, 5))
        m = int(rng.integers(2, 30))
        preds = rng.integers(0, n_classes, m).tolist()
        labels = rng.integers(0, n_classes, m).tolist()
        rows = per_class_metrics(preds, labels, n_classes)
        for row, (rec, prec, ratio) in zip(rows, loop_per_class(preds, labels, n_classes)):
            if (row.recall, row.precision) != (rec, prec) or abs(row.ratio - ratio) > 1e-12:
                failures.append(("per_class", i))

        # top-k + roc_auc share one ranked instance
        m = int(rng.integers(4, 50))
        scores = np.round(rng.random(m), 2)  # coarse scores force ties
        labels = (rng.random(m) < 0.4).astype(int)
        if labels.sum() in (0, m):
            labels[0], labels[1] = 0, 1
        entries = [RankEntry(f"u{j:03d}", float(s), int(l))
                   for j, (s, l) in enumerate(zip(scores, labels))]
        k = float(rng.choice([0.05, 0.1, 0.33, 0.5]))
        row = topk_rank_metrics(entries, [k])[0]
        cut, hits, prec, rec = loop_topk(entries, k)
        if (row["cut"], row["hits"]) != (cut, hits) or \
           abs(row["precision"] - prec) > 1e-12 or abs(row["recall"] - rec) > 1e-12:
            failures.append(("topk", i))
        if abs(roc_auc(entries) - loop_auc(entries)) > 1e-10:
            failures.append(("auc", i))

    check(5, f"five metrics match brute-force oracles on {n_instances} instances",
          not failures, f"failures: {failures[:5]}" if failures else "all matched")


# --- 6: published-report consistency ---------------------------------------------------

def test_criterion_6_reference_consistency():
    published = [(0.01, 0.02, 19.16), (0.001, 0.05, 5.5), (0.0001, 0.13, 1.19)]
    pub_ok = all(topk_consistent({"k": k, "precision": p, "recall": r},
                                 p_total=800, n_total=80_000_000)
                 for k, p, r in published)
    reject_ok = not topk_consistent({"k": 0.01, "precision": 0.50, "recall": 19.16},
                                    p_total=800, n_total=80_000_000)

    rng = np.random.default_rng(9)
    exact_ok = True
    for _ in range(100):
        # The identity assumes the cut ceil(k*N) equals k*N, so draw sizes
        # where every tested k yields an integral cut.
        m = 100 * int(rng.integers(1, 6))
        labels = (rng.random(m) < 0.05).astype(int)
        if not labels.any():
            labels[0] = 1
        entries = [RankEntry(f"u{j:04d}", float(s), int(l))
                   for j, (s, l) in enumerate(zip(rng.random(m), labels))]
        for row in topk_rank_metrics(entries, [0.01, 0.05, 0.5]):
            exact_ok &= topk_consistent(row, int(labels.sum()), m, digits=10)

    check(6, "precision(k) = recall(k)*P/(k*N): reference rows and synthetic reports",
          pub_ok and reject_ok and exact_ok)


# --- 7: end-to-end smoke -----------------------------------------------------------------

def test_criterion_7_end_to_end_smoke(tmp_path):
    report, ok = pipeline_smoke(load_run_config(SMOKE_OVERRIDES),
                                tmp_path / "smoke", quiet=True)
    check(7, "pretrain + few-shot tuning meets loss/AUC/precision/time thresholds",
          ok, f"loss ratio {report['loss_ratio']:.3f}, auc {report['auc']:.4f}, "
              f"top-1% lift {report['precision_lift']:.1f}x, "
              f"{report['elapsed_seconds']:.0f}s")


# --- 8: contrastive run ------------------------------------------------------------------

def test_criterion_8_contrastive_run():
    from dataclasses import replace

    gen = GeneratorConfig(n_users=2600, fraud_fraction=0.05, t_min=32, t_max=32,
                          seed=7)
    corpus = generate_corpus(gen)
    train, held = corpus[:2000], corpus[2000:]
    # Stronger dropout than the scoring default: it is the augmentation that
    # creates the two views, and weak views leave the positive term of the
    # loss with nothing to pull together.
    cfg = replace(load_run_config().model_config(gen.vocab), dropout=0.3)
    params = init_params(cfg, child_rng(0, "init"))
    held_ids = [s.ids for s in held[:128]]

    def held_metrics(p):
        losses, aligns = [], []
        for rep in range(3):
            ra = child_rng(123, "eval-view-a", rep)
            rb = child_rng(123, "eval-view-b", rep)
            va = embed_batch(held_ids, p, cfg, ra)
            vb = embed_batch(held_ids, p, cfg, rb)
            losses.append(infonce_loss(va, vb, 0.05).item())
            aligns.append(mean_alignment(va.data, vb.data))
        return float(np.mean(losses)), float(np.mean(aligns))

    _, align_before = held_metrics(params)
    tuned, _ = finetune_contrastive(params, cfg, train,
                                    ContrastiveConfig(tau=0.05, batch_size=64,
                                                      steps=200, lr=1e-3, seed=0))
    held_loss, align_after = held_metrics(tuned)

    ids_all = [s.ids for s in held]
    v = np.vstack([embed_batch(ids_all[i:i + 64], tuned, cfg).data
                   for i in range(0, len(ids_all), 64)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = np.array([int(s.label > 0) for s in held])
    sims = v @ v.T
    np.fill_diagonal(sims, -2.0)
    nn = sims.argmax(axis=1)
    fraud = labels == 1
    lift = labels[nn[fraud]].mean() / labels.mean()

    ok = held_loss < math.log(64) and align_after > align_before and lift >= 5.0
    check(8, "held-out InfoNCE < ln 64, alignment rises, NN retrieval >= 5x base",
          ok, f"loss {held_loss:.4f} vs {math.log(64):.3f}, "
              f"alignment {align_before:.4f} -> {align_after:.4f}, lift {lift:.1f}x")


# --- 9: determinism ----------------------------------------------------------------------

STAGE_CFG = {
    "data": {"n_users": 48, "fraud_fraction": 0.2, "t_min": 16, "t_max": 16},
    "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
    "pretrain": {"steps": 8, "batch_size": 8},
    "sft": {"epochs": 1, "batch_size": 8, "filters": 4, "hidden": 8},
    "contrastive": {"batch_size": 8, "steps": 4},
}


def run_all_stages(cfgp, out):
    out.mkdir()
    data, vocab = out / "d.jsonl", out / "d.jsonl.vocab.json"
    pre, sft, cl = out / "pre.ckpt", out / "sft.ckpt", out / "cl.ckpt"
    scores, emb = out / "scores.csv", out / "emb.csv"
    steps = [
        ["gen-data", "--config", cfgp, "--out", str(data)],
        ["pretrain", "--config", cfgp, "--data", str(data),
         "--vocab", str(vocab), "--out", str(pre)],
        ["finetune-sft", "--config", cfgp, "--data", str(data),
         "--vocab", str(vocab), "--checkpoint", str(pre), "--out", str(sft)],
        ["finetune-cl", "--config", cfgp, "--data", str(data),
         "--vocab", str(vocab), "--checkpoint", str(pre), "--out", str(cl)],
        ["score", "--checkpoint", str(sft), "--data", str(data),
         "--out", str(scores)],
        ["embed", "--checkpoint", str(cl), "--data", str(data),
         "--out", str(emb)],
    ]
    for argv in steps:
        assert run_subcommand(argv) == 0, argv[0]
    return [data, vocab, pre, out / "pre.ckpt.loss.csv", sft, out / "sft.ckpt.metrics.csv",
            cl, out / "cl.ckpt.loss.csv", scores, emb]


def test_criterion_9_determinism(tmp_path, capsys):
    import json
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(STAGE_CFG))
    first = run_all_stages(str(cfgp), tmp_path / "run1")
    second = run_all_stages(str(cfgp), tmp_path / "run2")
    diffs = [a.name for a, b in zip(first, second)
             if a.read_bytes() != b.read_bytes()]
    check(9, "identical config+seed reruns give bitwise-identical artifacts",
          not diffs, f"differs: {diffs}" if diffs else f"{len(first)} artifacts compared")
