"""Contrastive fine-tuning with dropout-generated positive views.

Two stochastic forward passes of the same batch give (v, v+) pairs; the
other first-view embeddings in the batch act as negatives in an InfoNCE
objective over temperature-scaled cosine similarities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics as nm
from .data import BehaviorSequence, window_sample
from .model import ModelConfig, causal_forward, encode_batch
from .rng import child_rng, shuffled_batches

__all__ = [
    "ContrastiveConfig", "embed_sequence", "embed_batch", "cosine_matrix",
    "infonce_loss", "finetune_contrastive", "mean_alignment",
]


def embed_batch(id_arrays: Sequence[np.ndarray], params: Dict[str, nm.Tensor],
                cfg: ModelConfig, rng: Optional[np.random.Generator] = None) -> nm.Tensor:
    """Sequence embeddings: hidden state at each last non-pad position: [N, d_model].
    Dropout runs iff ``rng`` is given. The last layer runs at those rows only
    (see ``causal_forward``); a row is the same bits alone or in any batch."""
    batch = encode_batch(id_arrays, params, cfg)
    last = np.arange(len(batch.lengths)) * (cfg.t_max + 1) + batch.lengths
    return causal_forward(batch.x, params, cfg, rng, last)


def embed_sequence(params: Dict[str, nm.Tensor], cfg: ModelConfig,
                   seq: BehaviorSequence,
                   rng: Optional[np.random.Generator] = None) -> nm.Tensor:
    """Embedding of one sequence's most recent ``t_max`` events; with an rng,
    dropout runs so views differ. Without one it is the same bits as the
    sequence's row of any ``embed_batch`` call without one."""
    ids = seq.ids[-cfg.t_max:]
    return nm.reshape(embed_batch([ids], params, cfg, rng), (cfg.d_model,))


def cosine_matrix(a: nm.Tensor, b: nm.Tensor) -> nm.Tensor:
    """out[i, j] = cos(a_i, b_j); rejects zero rows."""
    if a.data.shape != b.data.shape or a.data.ndim != 2:
        raise nm.DimensionError(f"cosine_matrix needs equal [N, d] shapes, "
                                f"got {a.data.shape} and {b.data.shape}")
    return nm.matmul_t(nm.normalize_rows(a), nm.normalize_rows(b))


def infonce_loss(v: nm.Tensor, v_plus: nm.Tensor, tau: float) -> nm.Tensor:
    """Mean over instances of -log softmax over {positive pair, in-batch negatives}.

    Row i's candidates are cos(v_i, v+_i) against cos(v_i, v_j) for the
    other N-1 first views, all divided by the temperature.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = v.data.shape[0]
    if n < 2:
        raise ValueError(f"InfoNCE needs a batch of >= 2, got {n}")
    eye = np.eye(n, dtype=v.data.dtype)
    pos = cosine_matrix(v, v_plus)
    neg = cosine_matrix(v, v)
    logits = nm.add(nm.scale(pos, eye / tau), nm.scale(neg, (1.0 - eye) / tau))
    return nm.softmax_ce(logits, np.arange(n))


def mean_alignment(v: np.ndarray, v_plus: np.ndarray) -> float:
    """Mean cosine between paired views."""
    va = v / np.linalg.norm(v, axis=1, keepdims=True)
    vb = v_plus / np.linalg.norm(v_plus, axis=1, keepdims=True)
    return float((va * vb).sum(axis=1).mean())


@dataclass
class ContrastiveConfig:
    tau: float = 0.05
    batch_size: int = 64
    steps: int = 200
    lr: float = 1e-3
    seed: int = field(kw_only=True)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"contrastive.tau must be > 0, got {self.tau}")
        if self.steps < 1:
            raise ValueError(f"contrastive.steps must be >= 1, got {self.steps}")
        if self.batch_size < 2:
            raise ValueError(f"contrastive.batch_size must be >= 2: InfoNCE needs "
                             f"in-batch negatives, got {self.batch_size}")


def finetune_contrastive(backbone: Dict[str, nm.Tensor], model_cfg: ModelConfig,
                         corpus: Sequence[BehaviorSequence], cfg: ContrastiveConfig,
                         ) -> Tuple[Dict[str, nm.Tensor], List[Tuple[int, float]]]:
    """Full-backbone InfoNCE training; returns params and the loss curve."""
    if model_cfg.dropout == 0.0:
        raise ValueError("contrastive fine-tuning needs dropout > 0: "
                         "with p=0 the two views coincide")
    if len(corpus) < cfg.batch_size:
        raise ValueError(f"corpus of {len(corpus)} smaller than batch size {cfg.batch_size}")
    opt = nm.Adam(backbone, lr=cfg.lr)
    batches = shuffled_batches(len(corpus), cfg.batch_size, cfg.steps, cfg.seed, "cl-order")
    curve: List[Tuple[int, float]] = []
    for step, picks in enumerate(batches):
        wrng = child_rng(cfg.seed, "cl-window", step)
        ids = [window_sample(corpus[i], model_cfg.t_max, wrng).ids for i in picks]
        rng_a = child_rng(cfg.seed, "cl-view-a", step)
        rng_b = child_rng(cfg.seed, "cl-view-b", step)

        def loss_fn() -> nm.Tensor:
            v = embed_batch(ids, backbone, model_cfg, rng_a)
            v_plus = embed_batch(ids, backbone, model_cfg, rng_b)
            return infonce_loss(v, v_plus, cfg.tau)

        curve.append((step, opt.minimize(loss_fn)))
    return backbone, curve
