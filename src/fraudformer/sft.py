"""Supervised fine-tuning: differenced hidden states through a multi-scale
convolutional anomaly head, trained with imbalance-aware sampling.

The backbone hidden sequence is first-order differenced to strip slow
trend, then each kernel size extracts local anomaly evidence which a
global max pool makes length-independent; a small MLP maps the pooled
features to two logits, normal and anomalous.

The head runs once per batch, on the padded [B, R, d] hidden block as it
stands: one ``row_diff`` along time, and per kernel size k one ``conv1d``,
a relu and a max pool. Conv position 0 reads the step from BOS and
positions t > length - k read padding; a 0/1 mask zeroes them after the
relu, leaving 1 <= t <= length - k. That is exact: every sequence has at
least ``min_events`` events and so at least one valid position, relu output
is >= 0 and a masked position holds 0, so the pool keeps the largest valid
value. When every valid value is 0 the pool's tie goes to the masked
position 0, whose gradient is zero, as relu's is at a valid 0. Each
sequence's pooled features, and their gradients, are therefore those of
the sequence run alone.

As in pretraining, dropout (backbone and head) runs iff an rng is passed:
training passes one per step, scoring passes none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics as nm
from . import parallel
from .data import BehaviorSequence, window_sample
from .model import ModelConfig, ParamTable, causal_forward, encode_batch
from .rng import child_rng

__all__ = [
    "AnomalyHeadConfig", "SftConfig",
    "head_param_table", "init_head_params", "head_features", "batch_class_logits",
    "shard_class_loss", "epoch_batches", "finetune_sft", "score_users",
]


class SequenceTooShortError(ValueError):
    pass


@dataclass(frozen=True)
class AnomalyHeadConfig:
    kernel_sizes: Tuple[int, ...] = (2, 3, 5)
    filters: int = 32
    hidden: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        sizes = self.kernel_sizes
        if not sizes or min(sizes) < 2 or len(set(sizes)) < len(sizes):
            raise ValueError(f"sft.kernel_sizes must be one or more distinct sizes >= 2, "
                             f"got {list(sizes)}")
        if self.filters < 1:
            raise ValueError(f"sft.filters must be >= 1, got {self.filters}")
        if self.hidden < 1:
            raise ValueError(f"sft.hidden must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"sft.dropout must be in [0, 1), got {self.dropout}")

    def check_window(self, t_max: int, owner: str) -> None:
        """Raise unless a window of ``t_max`` events, ``owner``'s, is long
        enough for the head: its largest kernel plus one."""
        if self.min_events > t_max:
            raise ValueError(f"sft.kernel_sizes: the largest kernel, {max(self.kernel_sizes)}, "
                             f"needs windows of {self.min_events} events, more than "
                             f"{owner} {t_max}")

    @property
    def min_events(self) -> int:
        """Shortest sequence the head can score: one more than its largest kernel."""
        return max(self.kernel_sizes) + 1

    @property
    def feature_width(self) -> int:
        return len(self.kernel_sizes) * self.filters


def head_param_table(cfg: AnomalyHeadConfig, d_model: int) -> ParamTable:
    """Every head parameter, in the order ``init_head_params`` draws them; an
    sft checkpoint must hold exactly these besides its backbone."""
    table: ParamTable = {}
    for k in cfg.kernel_sizes:
        table[f"head.conv{k}.w"] = ((k, d_model, cfg.filters), None)
        table[f"head.conv{k}.b"] = ((cfg.filters,), 0.0)
    table.update({"head.mlp.w1": ((cfg.feature_width, cfg.hidden), None),
                  "head.mlp.b1": ((cfg.hidden,), 0.0),
                  "head.mlp.w2": ((cfg.hidden, 2), None),
                  "head.mlp.b2": ((2,), 0.0)})
    return table


def init_head_params(cfg: AnomalyHeadConfig, d_model: int,
                     rng: np.random.Generator, dtype=np.float32) -> Dict[str, nm.Tensor]:
    """Fresh head parameters: each weight drawn from normal(0, 1 / sqrt(fan-in)),
    its fan-in being the product of all its axes but the last; biases 0."""
    return {name: nm.Tensor(
        rng.normal(0.0, 1.0 / math.sqrt(math.prod(shape[:-1])), size=shape).astype(dtype)
        if fill is None else np.full(shape, fill, dtype=dtype), requires_grad=True)
        for name, (shape, fill) in head_param_table(cfg, d_model).items()}


def head_features(h: nm.Tensor, lengths: np.ndarray, cfg: AnomalyHeadConfig,
                  params: Dict[str, nm.Tensor]) -> nm.Tensor:
    """Pooled conv features of a batch: [B, len(kernel_sizes) * F].

    ``h`` is the [B, R, d] hidden block as ``causal_forward`` returns it,
    [B*R, d] rows with BOS first in each sequence; sequence b has
    ``lengths[b]`` events, then padding.
    """
    if int(lengths.min()) < cfg.min_events:
        raise SequenceTooShortError(
            f"difference sequence of length {int(lengths.min()) - 1} is shorter than "
            f"the largest kernel ({cfg.min_events - 1}); need >= {cfg.min_events} events")
    n_seq = len(lengths)
    r = h.data.shape[0] // n_seq
    # [B, R-1, d]; row 0 of each sequence is the step from BOS.
    hdiff = nm.row_diff(nm.reshape(h, (n_seq, r, h.data.shape[1])))
    pooled = []
    for k in cfg.kernel_sizes:
        conv = nm.relu(nm.conv1d(hdiff, params[f"head.conv{k}.w"], params[f"head.conv{k}.b"]))
        t = np.arange(r - k)[None, :, None]
        valid = (t >= 1) & (t <= (lengths - k)[:, None, None])
        pooled.append(nm.max_over_time(nm.scale(conv, valid.astype(conv.data.dtype))))
    return nm.concat_cols(pooled)


def _mlp(features: nm.Tensor, cfg: AnomalyHeadConfig, params: Dict[str, nm.Tensor],
         rng: Optional[np.random.Generator]) -> nm.Tensor:
    """[B, 2] logits of [B, F] features. Both products take ``matmul``'s
    stacked-row form, [B, 1, k], so that a row's bits do not depend on B."""
    n = features.data.shape[0]
    x = nm.reshape(nm.dropout(features, cfg.dropout, rng), (n, 1, -1))
    x = nm.relu(nm.matmul(x, params["head.mlp.w1"], params["head.mlp.b1"]))
    return nm.reshape(nm.matmul(x, params["head.mlp.w2"], params["head.mlp.b2"]), (n, 2))


def batch_class_logits(id_arrays: Sequence[np.ndarray], params: Dict[str, nm.Tensor],
                       model_cfg: ModelConfig, head_cfg: AnomalyHeadConfig,
                       rng: Optional[np.random.Generator] = None) -> nm.Tensor:
    """Full pipeline for a batch: embed -> causal -> diff -> head: [B, 2].

    ``params`` holds the backbone and the head together."""
    batch = encode_batch(id_arrays, params, model_cfg)
    h = causal_forward(batch.x, params, model_cfg, rng)
    return _mlp(head_features(h, batch.lengths, head_cfg, params), head_cfg, params, rng)


@dataclass
class SftConfig:
    """Training knobs, the imbalance-aware sampler's included: each batch of
    ``batch_size`` holds ``pos_fraction`` of it in positives."""

    epochs: int = 3
    lr: float = 1e-3
    backbone_lr_mult: float = 0.1
    batch_size: int = 32
    pos_fraction: float = 0.25
    seed: int = field(kw_only=True)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"sft.epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.pos_fraction < 1.0:
            raise ValueError(f"sft.pos_fraction must be in (0, 1), got {self.pos_fraction}")
        if not 1 <= self.pos_per_batch < self.batch_size:
            raise ValueError(f"sft.batch_size {self.batch_size} at sft.pos_fraction "
                             f"{self.pos_fraction} must hold one positive and one negative")

    @property
    def pos_per_batch(self) -> int:
        return int(round(self.pos_fraction * self.batch_size))


def epoch_batches(pos_pool: Sequence, neg_pool: Sequence, cfg: SftConfig,
                  epoch: int) -> List[List]:
    """One epoch: each negative exactly once, positives re-drawn with replacement."""
    if not pos_pool or not neg_pool:
        raise ValueError(f"SFT needs a user with label > 0 and a user with label 0 that the "
                         f"anomaly head can read; got {len(pos_pool)} with label > 0 and "
                         f"{len(neg_pool)} with label 0")
    n_pos = cfg.pos_per_batch
    n_neg = cfg.batch_size - n_pos
    rng = child_rng(cfg.seed, "sampler", epoch)
    neg_order = rng.permutation(len(neg_pool))
    batches = []
    for start in range(0, len(neg_pool), n_neg):
        chunk = neg_order[start:start + n_neg]
        picks = rng.integers(0, len(pos_pool), size=n_pos)
        batches.append([pos_pool[int(i)] for i in picks] + [neg_pool[int(i)] for i in chunk])
    return batches


def shard_class_loss(id_arrays: Sequence[np.ndarray], labels: np.ndarray, shard: int,
                     params: Dict[str, nm.Tensor], model_cfg: ModelConfig,
                     head_cfg: AnomalyHeadConfig, rng: Optional[np.random.Generator] = None,
                     ) -> Tuple[nm.Tensor, int]:
    """Shard ``shard`` (``parallel.shard_slice``) of a batch's classification
    loss, weighted by the shard's share of the batch's sequences, so that the
    two shards' losses sum to the batch's; and the shard's correct argmaxes."""
    part = parallel.shard_slice(len(id_arrays), shard)
    logits = batch_class_logits(id_arrays[part], params, model_cfg, head_cfg, rng)
    hits = int((logits.data.argmax(axis=1) == labels[part]).sum())
    share = len(labels[part]) / len(labels)
    return nm.scale(nm.softmax_ce(logits, labels[part]), share), hits


def finetune_sft(backbone: Dict[str, nm.Tensor], model_cfg: ModelConfig,
                 corpus: Sequence[BehaviorSequence], head_cfg: AnomalyHeadConfig,
                 cfg: SftConfig) -> Tuple[Dict[str, nm.Tensor], List[dict]]:
    """Fine-tune backbone (at a reduced rate) plus a fresh anomaly head.

    Returns the merged parameter dict and per-epoch metrics
    (mean loss, training accuracy). Each step's batch runs as two shards
    (``parallel.train_steps``), each with its own dropout stream.
    """
    pos = [s for s in corpus if s.label > 0]
    neg = [s for s in corpus if s.label == 0]
    params = dict(backbone)
    params.update(init_head_params(head_cfg, model_cfg.d_model, child_rng(cfg.seed, "head-init")))
    mult = {name: cfg.backbone_lr_mult for name in backbone}
    opt = nm.Adam(params, lr=cfg.lr, lr_mult=mult)
    epochs = [epoch_batches(pos, neg, cfg, epoch) for epoch in range(cfg.epochs)]
    batches = [batch for epoch in epochs for batch in epoch]

    def shard_loss(step: int, shard: int, leaves: Dict[str, nm.Tensor]):
        wrng = child_rng(cfg.seed, "sft-window", step)
        ids = [window_sample(s, model_cfg.t_max, wrng) for s in batches[step]]
        labels = np.array([int(s.label > 0) for s in batches[step]])
        drng = child_rng(cfg.seed, "sft-dropout", step, shard)
        return shard_class_loss(ids, labels, shard, leaves, model_cfg, head_cfg, drng)

    steps = iter(parallel.train_steps(opt, len(batches), shard_loss))
    metrics: List[dict] = []
    for epoch, epoch_seqs in enumerate(epochs):
        done = list(itertools.islice(steps, len(epoch_seqs)))
        metrics.append({"epoch": epoch, "loss": float(np.mean([loss for loss, _ in done])),
                        "accuracy": sum(hits for _, hits in done)
                        / sum(len(batch) for batch in epoch_seqs)})
    return params, metrics


def score_users(params: Dict[str, nm.Tensor], model_cfg: ModelConfig,
                head_cfg: AnomalyHeadConfig, users: Iterable[BehaviorSequence],
                batch_size: int = 64) -> List[Tuple[str, float]]:
    """Anomaly probability per user, sorted descending (ties by user_id).

    ``users`` is read ``batch_size`` at a time, in this thread, so a stream
    is never held whole. Each user is scored on their most recent ``t_max``
    events, padded to ``t_max``, so a score depends only on the checkpoint
    and that user's events, bit for bit: not on corpus order, batch size or
    batch neighbours. That lets ``parallel.map_halves`` score the second
    half of each batch in a helper thread where there are two CPUs.
    """
    def scored(chunk: List[BehaviorSequence]) -> List[Tuple[str, float]]:
        ids = [window_sample(s, model_cfg.t_max) for s in chunk]
        logits = batch_class_logits(ids, params, model_cfg, head_cfg)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e[:, 1] / e.sum(axis=1)
        return [(s.user_id, float(p)) for s, p in zip(chunk, probs)]

    users = iter(users)
    chunks = iter(lambda: list(itertools.islice(users, batch_size)), [])
    out = [pair for done in parallel.map_halves(scored, chunks) for pair in done]
    out.sort(key=lambda t: (-t[1], t[0]))
    return out
