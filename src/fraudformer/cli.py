"""Command-line pipeline: data generation, training, scoring, reports.

Every subcommand is reproducible from (config JSON, seed) alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import io
import itertools
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import contrastive as cl
from . import evaluation as ev
from . import parallel
from . import sft as sft_mod
from .checkpoint import Checkpoint, atomic_open, load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .data import (GEN_BLOCK, BehaviorSequence, generate_corpus, iter_numbered_jsonl,
                   numbered_lines, parse_jsonl_line, read_jsonl, read_vocab, window_sample,
                   write_jsonl, write_vocab)
from .model import ModelConfig, pretrain_loop
from .verify import TOLERANCE, gradient_suite

__all__ = ["main", "run_subcommand", "pipeline_smoke"]

# Users per embed forward, kept small because peak memory grows with it:
# `embed` reads its input in blocks of this many non-blank lines.
EMBED_CHUNK = 16

# glibc's mallopt parameter for the free space malloc keeps at the top of the
# heap when it grows or trims it, and the amount kept. Without it glibc trims
# the top as soon as its free space passes about twice the largest recently
# freed block, so each batch of `score` or `finetune-cl` hands its ~12 MB of
# temporaries back to the kernel and the next batch faults them in again, a
# page at a time. 64 MiB is the smallest of 8, 16, 24, 32, 48 and 64 MiB that
# removed those faults from both. `score` halves its batches between two
# threads, not processes: a forked parent would copy these retained pages as
# it wrote them, about 4,400 faults per call. Its helper thread takes its
# temporaries from a second glibc arena, and a second call still reuses them.
M_TOP_PAD = -2
HEAP_TOP_PAD = 64 << 20


def _load_cfg(args, fallback: Optional[dict] = None) -> RunConfig:
    """The ``--config`` file's run config, or else ``fallback``'s, with any
    ``--seed`` override."""
    cfg = load_run_config(args.config or fallback)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _write_curve(path, curve: Sequence[Tuple[int, float]]) -> None:
    with atomic_open(path) as fh:
        fh.write("step,loss\n")
        for step, loss in curve:
            fh.write(f"{step},{loss:.8g}\n")


def _write_scores(path, scores: Sequence[Tuple[str, float]]) -> None:
    with atomic_open(path) as fh:
        fh.write("user_id,score\n")
        for uid, score in scores:
            fh.write(f"{uid},{score:.10g}\n")


def _read_scores(path) -> Dict[str, float]:
    """user_id -> score from a ``score`` CSV. A missing column, a score that is
    not a number or a repeated user fails naming the file and the line."""
    scores: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"user_id", "score"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{path}: line 1: the header needs columns user_id and score")
        for row in reader:
            uid = row["user_id"]
            try:
                if uid in scores:
                    raise ValueError(f"user {uid!r} is scored twice")
                scores[uid] = float(row["score"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return scores


def _first_sight(first_line: Dict[str, int], path, lineno: int, user_id: str) -> None:
    """Note that ``user_id`` is on line ``lineno`` of ``path``; a user_id that
    repeats fails naming both of its lines, since each user gets one score or
    embedding."""
    if user_id in first_line:
        raise ValueError(f"{path}: lines {first_line[user_id]} and {lineno}: "
                         f"user {user_id!r} appears twice")
    first_line[user_id] = lineno


def _unique_users(path, cardinalities: Optional[Sequence[int]] = None,
                  ) -> Iterator[BehaviorSequence]:
    """``path``'s users, streamed, each user_id seen once."""
    first_line: Dict[str, int] = {}
    for lineno, seq in iter_numbered_jsonl(path, cardinalities):
        _first_sight(first_line, path, lineno, seq.user_id)
        yield seq


def _vocab_path(args) -> str:
    return args.vocab if args.vocab else str(args.out) + ".vocab.json"


def _write_corpus(path, vocab_path, corpus: Sequence[BehaviorSequence], vocab) -> None:
    with atomic_open(path) as fh:
        write_jsonl(fh, corpus)
    with atomic_open(vocab_path) as fh:
        write_vocab(fh, vocab)


def _gen_part(cfg, part: int, parts: int) -> Iterator[Tuple[int, str]]:
    """Per block ``part``, ``part + parts``, ... of the corpus: its user
    count and its JSONL text."""
    users = generate_corpus(cfg, part, parts)
    for lo in range(0, len(users), GEN_BLOCK):
        block, text = users[lo:lo + GEN_BLOCK], io.StringIO()
        write_jsonl(text, block)
        yield len(block), text.getvalue()


def cmd_gen_data(args) -> int:
    """Generate the corpus, its blocks of ``GEN_BLOCK`` users split between
    ``parallel.workers()`` processes where there are two blocks or more."""
    gen_cfg = _load_cfg(args).generator_config()
    n_users = 0
    blocks = parallel.interleave_parts(functools.partial(_gen_part, gen_cfg),
                                       gen_cfg.n_users > GEN_BLOCK)
    with contextlib.closing(blocks), atomic_open(args.out) as fh:
        for count, text in blocks:
            fh.write(text)
            n_users += count
    with atomic_open(_vocab_path(args)) as fh:
        write_vocab(fh, gen_cfg.vocab)
    print(f"wrote {n_users} sequences to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    vocab = read_vocab(args.vocab)
    corpus = read_jsonl(args.data, vocab.cardinalities)
    model_cfg = cfg.model_config(vocab)
    params, curve = pretrain_loop(corpus, model_cfg, cfg.pretrain_config())
    save_checkpoint(args.out, params, model_cfg, kind="pretrain",
                    meta={"steps": len(curve), "final_loss": curve[-1][1],
                          "seed": cfg.seed})
    _write_curve(args.curve or str(args.out) + ".loss.csv", curve)
    print(f"pretrained {len(curve)} steps; loss {curve[0][1]:.4f} -> {curve[-1][1]:.4f}")
    return 0


def _load_checkpoint(path, kind: str) -> Checkpoint:
    """The checkpoint at ``path``, which must be of the given kind."""
    ckpt = load_checkpoint(path)
    if ckpt.kind != kind:
        raise ValueError(f"{path} is a {ckpt.kind!r} checkpoint; this subcommand "
                         f"accepts only a {kind!r} checkpoint")
    return ckpt


def _check_vocab(model_cfg: ModelConfig, vocab) -> None:
    if model_cfg.cardinalities != vocab.cardinalities:
        raise ValueError("checkpoint model does not match the vocab sidecar: "
                         f"{model_cfg.cardinalities} vs {vocab.cardinalities}")


def _head_readable(corpus: Iterable[BehaviorSequence], model_cfg: ModelConfig,
                   head_cfg: sft_mod.AnomalyHeadConfig) -> Iterator[BehaviorSequence]:
    """The users the anomaly head can read, lazily; each one too short for it
    is named on stderr and left out."""
    for seq in corpus:
        # Training windows and scoring both read at most t_max events.
        n_events = min(len(seq), model_cfg.t_max)
        if n_events < head_cfg.min_events:
            print(f"skipped {seq.user_id}: {n_events} events, the anomaly head "
                  f"needs at least {head_cfg.min_events}", file=sys.stderr)
        else:
            yield seq


def cmd_finetune_sft(args) -> int:
    cfg = _load_cfg(args)
    ckpt = _load_checkpoint(args.checkpoint, "pretrain")
    head_cfg = cfg.head_config()
    head_cfg.check_window(ckpt.model.t_max, "the checkpoint's model.t_max")
    vocab = read_vocab(args.vocab)
    _check_vocab(ckpt.model, vocab)
    corpus = read_jsonl(args.data, vocab.cardinalities)
    corpus = list(_head_readable(corpus, ckpt.model, head_cfg))
    params, metrics = sft_mod.finetune_sft(ckpt.params, ckpt.model, corpus,
                                           head_cfg, cfg.sft_config())
    save_checkpoint(args.out, params, ckpt.model, head=head_cfg, kind="sft",
                    meta={"epochs": len(metrics), "seed": cfg.seed})
    metrics_path = args.metrics or str(args.out) + ".metrics.csv"
    with atomic_open(metrics_path) as fh:
        fh.write("epoch,loss,accuracy\n")
        for m in metrics:
            fh.write(f"{m['epoch']},{m['loss']:.8g},{m['accuracy']:.8g}\n")
    print(f"fine-tuned {len(metrics)} epochs; final accuracy {metrics[-1]['accuracy']:.3f}")
    return 0


def cmd_finetune_cl(args) -> int:
    cfg = _load_cfg(args)
    ckpt = _load_checkpoint(args.checkpoint, "pretrain")
    vocab = read_vocab(args.vocab)
    _check_vocab(ckpt.model, vocab)
    corpus = read_jsonl(args.data, vocab.cardinalities)
    params, curve = cl.finetune_contrastive(ckpt.params, ckpt.model, corpus,
                                            cfg.contrastive_config())
    save_checkpoint(args.out, params, ckpt.model, kind="contrastive",
                    meta={"steps": len(curve), "seed": cfg.seed})
    _write_curve(args.curve or str(args.out) + ".loss.csv", curve)
    print(f"contrastive loss {curve[0][1]:.4f} -> {curve[-1][1]:.4f}")
    return 0


def cmd_score(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint, "sft")
    users = _unique_users(args.data, ckpt.model.cardinalities)
    scores = sft_mod.score_users(ckpt.params, ckpt.model, ckpt.head,
                                 _head_readable(users, ckpt.model, ckpt.head))
    _write_scores(args.out, scores)
    print(f"scored {len(scores)} users -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    scores = _read_scores(args.scores)
    # Streamed: each user's id array is dropped once its label is read.
    entries = [ev.RankEntry(s.user_id, scores[s.user_id], int(s.label > 0))
               for s in _unique_users(args.data) if s.user_id in scores]
    found = {e.user_id for e in entries}
    missing = [uid for uid in scores if uid not in found]
    if missing:
        raise ValueError(f"{len(missing)} scored users are not in {args.data}; "
                         f"the first is {missing[0]!r}")
    ks = [float(k) for k in args.k.split(",")] if args.k else [0.01, 0.001, 0.0001]
    rows = ev.topk_rank_metrics(entries, ks)
    print(ev.render_topk_report(rows), end="")
    auc = ev.roc_auc(entries)
    print(f"ROC-AUC: {auc:.4f}")
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(ev.topk_report_csv(rows))
    return 0


def _embed_part(path, ckpt: Checkpoint, part: int, parts: int,
                ) -> Iterator[Tuple[List[Tuple[int, str]], str, Optional[str]]]:
    """Blocks ``part``, ``part + parts``, ``part + 2 * parts``, ... of
    ``path``, each ``EMBED_CHUNK`` non-blank lines, embedded in one forward
    apiece; the other blocks are skipped unparsed. Per block: its (line
    number, user_id) pairs, its CSV rows and None; for a block that failed,
    which ends the part, the pairs read before the fault, "" and its text."""
    model = ckpt.model
    cards = np.asarray(model.cardinalities, dtype=np.uint64)
    # 9 significant digits round-trip a float32 exactly. One format for the
    # row's Python floats gives the text of formatting each value alone.
    row = ",".join(["%.9g"] * model.d_model)
    lines = numbered_lines(path)
    for b in itertools.count():
        block = list(itertools.islice(lines, EMBED_CHUNK))
        if not block:
            return
        if b % parts != part:
            continue
        pairs: List[Tuple[int, str]] = []
        ids = []
        try:
            for lineno, line in block:
                seq = parse_jsonl_line(line, lineno, cards)
                pairs.append((lineno, seq.user_id))
                ids.append(window_sample(seq, model.t_max))
            vecs = cl.embed_batch(ids, ckpt.params, model).data
        except Exception as exc:  # reported after the repeat check of `pairs`
            yield pairs, "", str(exc)
            return
        yield pairs, "".join(f"{uid},{row % tuple(vec.tolist())}\n"
                             for (_, uid), vec in zip(pairs, vecs)), None


def cmd_embed(args) -> int:
    """Embed each user's most recent ``t_max`` events, ``EMBED_CHUNK`` users
    at a time, split between ``parallel.workers()`` processes by block where
    ``--data`` is a regular file: both processes open it, and a pipe's lines
    would be split between their reads."""
    ckpt = load_checkpoint(args.checkpoint)  # any kind: every checkpoint has a backbone
    header = ",".join(f"e{i}" for i in range(ckpt.model.d_model))
    first_line: Dict[str, int] = {}
    n_users = 0
    part = functools.partial(_embed_part, args.data, ckpt)
    blocks = parallel.interleave_parts(part, os.path.isfile(args.data))
    with contextlib.closing(blocks), atomic_open(args.out) as fh:
        fh.write(f"user_id,{header}\n")
        for pairs, text, error in blocks:
            for lineno, uid in pairs:
                _first_sight(first_line, args.data, lineno, uid)
            if error is not None:
                raise ValueError(error)
            fh.write(text)
            n_users += len(pairs)
    print(f"embedded {n_users} sequences -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradient_suite(seed=args.seed)
    for name, err in results:
        print(f"{name:22s} max rel err {err:.3e}  {'ok' if err < TOLERANCE else 'FAIL'}")
    return 0 if all(err < TOLERANCE for _, err in results) else 1


# --- end-to-end smoke ------------------------------------------------------

SMOKE_OVERRIDES = {
    "data": {"n_users": 12000, "t_min": 32, "t_max": 32},
    "pretrain": {"steps": 600},
    "sft": {"epochs": 2},
}

N_EVAL_USERS = 2000
N_FEWSHOT_POSITIVES = 50
MAX_SFT_NEGATIVES = 4000
SMOKE_BUDGET_SECONDS = 900.0


def pipeline_smoke(cfg: RunConfig, workdir, quiet: bool = False) -> Tuple[dict, bool]:
    """gen-data -> pretrain -> finetune-sft -> score -> eval, with thresholds."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    say = (lambda *a: None) if quiet else print
    stage_seconds: Dict[str, float] = {}
    stage, start = "gen-data", t0

    def end_stage(following: Optional[str] = None) -> float:
        """Note the running stage's wall seconds and start ``following``;
        return the time."""
        nonlocal stage, start
        now = time.monotonic()
        stage_seconds[stage] = now - start
        stage, start = following, now
        return now

    try:
        gen_cfg = cfg.generator_config()
        corpus = generate_corpus(gen_cfg)
        _write_corpus(workdir / "corpus.jsonl", workdir / "vocab.json", corpus, gen_cfg.vocab)
        train, heldout = corpus[:-N_EVAL_USERS], corpus[-N_EVAL_USERS:]
        say(f"[{stage}] {len(train)} train / {len(heldout)} held-out users")

        end_stage("pretrain")
        model_cfg = cfg.model_config(gen_cfg.vocab)
        params, curve = pretrain_loop(train, model_cfg, cfg.pretrain_config())
        save_checkpoint(workdir / "pretrain.ckpt", params, model_cfg, kind="pretrain")
        _write_curve(workdir / "pretrain.loss.csv", curve)
        initial = float(np.mean([l for _, l in curve[:5]]))
        final = float(np.mean([l for _, l in curve[-10:]]))
        say(f"[{stage}] loss {initial:.4f} -> {final:.4f}")

        end_stage("finetune-sft")
        head_cfg = cfg.head_config()
        pool = list(_head_readable(train, model_cfg, head_cfg))
        pos = [s for s in pool if s.label > 0][:N_FEWSHOT_POSITIVES]
        neg = [s for s in pool if s.label == 0][:MAX_SFT_NEGATIVES]
        sft_params, metrics = sft_mod.finetune_sft(params, model_cfg, pos + neg,
                                                   head_cfg, cfg.sft_config())
        save_checkpoint(workdir / "sft.ckpt", sft_params, model_cfg,
                        head=head_cfg, kind="sft")
        say(f"[{stage}] {len(pos)} positives, {len(neg)} negatives, "
            f"final train accuracy {metrics[-1]['accuracy']:.3f}")

        end_stage("score")
        scored = list(_head_readable(heldout, model_cfg, head_cfg))
        scores = sft_mod.score_users(sft_params, model_cfg, head_cfg, scored)
        _write_scores(workdir / "scores.csv", scores)

        end_stage("eval")
        labels = {s.user_id: int(s.label > 0) for s in scored}
        entries = [ev.RankEntry(uid, score, labels[uid]) for uid, score in scores]
        auc = ev.roc_auc(entries)
        top1 = ev.topk_rank_metrics(entries, [0.01])[0]
        base_rate = 100.0 * sum(labels.values()) / len(labels)
    except Exception as exc:
        raise RuntimeError(f"smoke pipeline failed at stage {stage!r}: {exc}") from exc

    elapsed = end_stage() - t0
    report = {
        "initial_loss": initial,
        "final_loss": final,
        "loss_ratio": final / initial,
        "auc": auc,
        "top1_precision_pct": top1["precision"],
        "base_rate_pct": base_rate,
        "precision_lift": top1["precision"] / base_rate if base_rate else float("inf"),
        "elapsed_seconds": elapsed,
        "stage_seconds": stage_seconds,
    }
    criteria = [
        ("reconstruction loss <= 80% of initial", report["loss_ratio"] <= 0.80,
         f"ratio {report['loss_ratio']:.3f}"),
        ("held-out ROC-AUC >= 0.90", auc >= 0.90, f"auc {auc:.4f}"),
        ("top-1% precision >= 10x base rate", report["precision_lift"] >= 10.0,
         f"lift {report['precision_lift']:.1f}x"),
        (f"wall clock <= {SMOKE_BUDGET_SECONDS:.0f}s", elapsed <= SMOKE_BUDGET_SECONDS,
         f"{elapsed:.1f}s"),
    ]
    say("stage seconds: " + ", ".join(f"{name} {t:.1f}" for name, t in stage_seconds.items()))
    ok = True
    for name, passed, detail in criteria:
        say(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
        ok = ok and passed
    report["pass"] = ok
    return report, ok


def cmd_smoke(args) -> int:
    _, ok = pipeline_smoke(_load_cfg(args, SMOKE_OVERRIDES), args.out or "smoke-run")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraudformer",
                                     description="Payment-behavior sequence modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run-config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--vocab", help="vocab sidecar path (default: <out>.vocab.json)")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="autoregressive pretraining")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--curve", help="loss-curve CSV path")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune-sft", help="supervised anomaly fine-tuning")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metrics", help="metrics CSV path")
    p.set_defaults(fn=cmd_finetune_sft)

    p = sub.add_parser("finetune-cl", help="contrastive fine-tuning")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--curve", help="loss-curve CSV path")
    p.set_defaults(fn=cmd_finetune_cl)

    p = sub.add_parser("score", help="rank users by anomaly score")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("eval", help="top-k%% report and ROC-AUC from a score CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", required=True, help="corpus JSONL carrying true labels")
    p.add_argument("--k", help="comma-separated top fractions, e.g. 0.01,0.001")
    p.add_argument("--out", help="optional report CSV path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("embed", help="export sequence embeddings as CSV")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("gradcheck", help="64-bit finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("smoke", help="end-to-end desk-scale pipeline with thresholds")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="working directory (default: smoke-run)")
    p.set_defaults(fn=cmd_smoke)

    return parser


@functools.cache
def keep_freed_heap() -> bool:
    """Keep ``HEAP_TOP_PAD`` bytes of freed memory at the heap top for reuse,
    once per process; False, doing nothing, where the C library has no
    ``mallopt``. The policy changes where memory comes from, never a number."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt in it
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_TOP_PAD, HEAP_TOP_PAD))


def run_subcommand(argv: Optional[Sequence[str]] = None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # runtime failure -> message, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand())


if __name__ == "__main__":
    main()
