"""Traced runs: spans around the program's public functions, from outside.

``Tracer.install`` replaces every public function of each layer module of
``fraudformer`` (its ``__all__``, plus the CLI's ``cmd_*`` subcommands and
the tape/optimizer methods) with a wrapper that records one span per call:
name, start, end and parent. The backward closure each op hands to
``GradTape.record`` is wrapped too, so an op's backward time is its own.
Spans are kept in memory and written out at the end; ``layer_metrics``
turns them into per-round per-layer numbers. The counting hooks (attention
entries, tape records, output bytes) run with the span clock stopped, so
their cost is in no span.

Only calls made while ``recording`` is set are traced, and the workloads
set it around their timed subcommands. A target that a refactor removed
is skipped, and the metrics built on it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = {
    "data": "fraudformer.data",
    "model": "fraudformer.model",
    "numerics": "fraudformer.numerics.ops",
    "sft": "fraudformer.sft",
    "contrastive": "fraudformer.contrastive",
    "evaluation": "fraudformer.evaluation",
    "checkpoint": "fraudformer.checkpoint",
    "cli": "fraudformer.cli",
}
METHODS = [
    ("numerics", "fraudformer.numerics.tensor", "GradTape", "backward"),
    ("numerics", "fraudformer.numerics.optim", "Adam", "step"),
]
OPS = ("matmul", "matmul_t", "softmax_rows", "add_const", "scale", "add",
       "layer_norm", "take_rows", "concat_cols", "slice_cols", "dropout", "relu",
       "softmax_ce", "conv1d")
SUBCOMMANDS = ("gen_data", "pretrain", "finetune_sft", "finetune_cl", "score",
               "eval", "embed")

# metric -> (span names whose inclusive time it sums)
TIMES = {
    "data.generate_s": ["data.generate_corpus"],
    "data.write_jsonl_s": ["data.write_jsonl"],
    "data.read_jsonl_s": ["data.read_jsonl"],
    "data.batch_build_s": ["data.window_sample", "data.ids_array"],
    "model.encode_batch_s": ["model.encode_batch"],
    "model.causal_forward_s": ["model.causal_forward"],
    "model.loss_s": ["model.reconstruct_logits", "model.reconstruction_loss"],
    "numerics.backward_s": ["numerics.GradTape.backward"],
    "numerics.adam_s": ["numerics.Adam.step"],
    "sft.finetune_s": ["sft.finetune_sft"],
    "sft.head_s": ["sft.head_features"],
    "sft.score_users_s": ["sft.score_users"],
    "contrastive.finetune_s": ["contrastive.finetune_contrastive"],
    "contrastive.embed_batch_s": ["contrastive.embed_batch"],
    "contrastive.infonce_s": ["contrastive.infonce_loss"],
    "contrastive.embed_sequence_s": ["contrastive.embed_sequence"],
    "evaluation.roc_auc_s": ["evaluation.roc_auc"],
    "evaluation.topk_s": ["evaluation.topk_rank_metrics"],
    "checkpoint.save_s": ["checkpoint.save_checkpoint"],
    "checkpoint.load_s": ["checkpoint.load_checkpoint"],
}
for _sub in SUBCOMMANDS:
    TIMES[f"cli.{_sub}_s"] = [f"cli.cmd_{_sub}"]


def _per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in TIMES}
    for op in OPS:
        units.update({f"numerics.{op}.calls": "count", f"numerics.{op}.fwd_s": "s",
                      f"numerics.{op}.bwd_s": "s", f"numerics.{op}.out_bytes": "B"})
    units.update({
        "model.attn_scores": "count", "model.attn_useful_ratio": "ratio",
        "numerics.tape_records": "count",
        "contrastive.embed_sequence_p50_ms": "ms", "contrastive.embed_sequence_p99_ms": "ms",
        "checkpoint.bytes": "B", "cli.self_s": "s",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: List[list] = []      # [name, start, end, parent index or -1]
        self._stack: List[int] = []
        self._op: Optional[str] = None   # op whose forward is running
        self.counts: Dict[str, float] = defaultdict(float)
        self.wrapped: set = set()
        self._paused = 0.0               # seconds spent in counting hooks

    def _clock(self) -> float:
        return time.perf_counter() - self._paused

    def _hook(self, hook: Callable, *args) -> None:
        t0 = time.perf_counter()
        hook(*args)
        self._paused += time.perf_counter() - t0

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self._clock()

    def _wrap(self, name: str, fn: Callable, op: bool = False,
              before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args)
            outer = tracer._op
            if op:
                tracer._op = name
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._op = outer
            if after is not None:
                tracer._hook(after, args, out)
            return out

        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer, modname in LAYERS.items():
            try:
                modules[layer] = importlib.import_module(modname)
            except ImportError:
                continue
        fraud_modules = [m for n, m in list(sys.modules.items())
                         if n == "fraudformer" or n.startswith("fraudformer.")]
        for layer, mod in modules.items():
            modname = mod.__name__
            names = [n for n in getattr(mod, "__all__", [])]
            if layer == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != modname:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, **self._hooks(layer, attr))
                for m in fraud_modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                self.wrapped.add(name)
        for layer, modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(modname), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                continue
            name = f"{layer}.{cls_name}.{meth}"
            before = self._count_tape if meth == "backward" else None
            setattr(cls, meth, self._wrap(name, fn, before=before))
            self.wrapped.add(name)
        tape_cls = getattr(sys.modules.get("fraudformer.numerics.tensor"), "GradTape", None)
        if tape_cls is not None and hasattr(tape_cls, "record"):
            record = tape_cls.record
            tracer = self

            def traced_record(tape, backward_fn):
                if tracer.recording and tracer._op is not None:
                    backward_fn = tracer._wrap(tracer._op + ".bwd", backward_fn)
                return record(tape, backward_fn)

            tape_cls.record = traced_record
            self.wrapped.add("numerics.GradTape.record")

    def _hooks(self, layer: str, attr: str) -> dict:
        if layer == "numerics":
            hooks = {"op": True, "after": lambda args, out, a=attr: self._count_op(a, out)}
            if attr == "softmax_rows":
                hooks["before"] = self._count_attention
            return hooks
        if layer == "checkpoint" and attr in ("save_checkpoint", "load_checkpoint"):
            return {"after": self._count_checkpoint}
        return {}

    def _count_op(self, op: str, out) -> None:
        self.counts[f"numerics.{op}.out_bytes"] += getattr(getattr(out, "data", None), "nbytes", 0)

    def _count_attention(self, args) -> None:
        scores = args[0].data
        self.counts["model.attn_scores"] += scores.size
        self.counts["attn_allowed"] += int(np.isfinite(scores).sum())

    def _count_tape(self, args) -> None:
        self.counts["tape_records"] += len(args[0])
        self.counts["backward_calls"] += 1

    def _count_checkpoint(self, args, out) -> None:
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    # --- reduction ---------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        incl: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            dur = end - start
            incl[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return incl, own, calls

    def layer_metrics(self, rounds: int) -> Tuple[Dict[str, float], List[str]]:
        """Per-round per-layer metrics, and the names reported missing."""
        incl, own, calls = self.totals()
        out: Dict[str, float] = {}
        missing: List[str] = []

        def put(metric: str, needs: List[str], value: Callable[[], float]) -> None:
            if all(n in self.wrapped for n in needs):
                out[metric] = float(value())
            else:
                missing.append(metric)

        for metric, spans in TIMES.items():
            put(metric, spans, lambda s=spans: sum(incl[n] for n in s) / rounds)
        for op in OPS:
            n = f"numerics.{op}"
            put(f"{n}.calls", [n], lambda n=n: calls[n] / rounds)
            put(f"{n}.fwd_s", [n], lambda n=n: incl[n] / rounds)
            put(f"{n}.bwd_s", [n, "numerics.GradTape.record"], lambda n=n: incl[n + ".bwd"] / rounds)
            put(f"{n}.out_bytes", [n], lambda n=n: self.counts[f"{n}.out_bytes"] / rounds)
        put("model.attn_scores", ["numerics.softmax_rows"],
            lambda: self.counts["model.attn_scores"] / rounds)
        put("model.attn_useful_ratio", ["numerics.softmax_rows"],
            lambda: self.counts["attn_allowed"] / max(self.counts["model.attn_scores"], 1))
        put("numerics.tape_records", ["numerics.GradTape.backward"],
            lambda: self.counts["tape_records"] / max(self.counts["backward_calls"], 1))
        durations = [end - start for name, start, end, _ in self.spans
                     if name == "contrastive.embed_sequence"]
        for q in (50, 99):
            put(f"contrastive.embed_sequence_p{q}_ms", ["contrastive.embed_sequence"],
                lambda q=q: 1e3 * np.percentile(durations, q) if durations else 0.0)
        put("checkpoint.bytes", ["checkpoint.save_checkpoint", "checkpoint.load_checkpoint"],
            lambda: self.counts["checkpoint.bytes"] / rounds)
        cli_spans = [n for n in self.wrapped if n.startswith("cli.cmd_")]
        put("cli.self_s", cli_spans or ["cli.cmd_*"],
            lambda: sum(own[n] for n in cli_spans) / rounds)
        return out, missing

    def layer_shares(self) -> Dict[str, float]:
        """Each layer's self time as a share of the traced subcommands' time."""
        _, own, _ = self.totals()
        total = sum(end - start for name, start, end, _ in self.spans if name.startswith("cli."))
        shares: Dict[str, float] = defaultdict(float)
        for name, t in own.items():
            shares[name.split(".")[0]] += t / total if total else 0.0
        return dict(shares)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.7f},{end - t0:.7f},{parent}\n")
