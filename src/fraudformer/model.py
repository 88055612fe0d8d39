"""Causal transformer over concatenated multivariate embeddings.

Each event's D attribute tokens are embedded per dimension and the
embeddings concatenated into one d_model-wide row; a learned
begin-of-sequence row conditions the first prediction. Decoding reuses
the embedding tables (weight tying): the hidden state is sliced back
into per-dimension chunks and each chunk is matched against its own
table, so there are no separate decode matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics as nm
from .data import BehaviorSequence, VocabSpec, window_sample
from .rng import child_rng, shuffled_batches

__all__ = [
    "ModelConfig", "PretrainConfig", "allocate_widths", "init_params",
    "param_count", "EncodedBatch", "encode_batch",
    "causal_forward", "reconstruct_logits", "reconstruction_loss",
    "batch_reconstruction_loss", "pretrain_loop",
]


def allocate_widths(cardinalities: Sequence[int], d_model: int) -> Tuple[int, ...]:
    """Split d_model across dimensions, proportional to ceil(log2 V_d).

    Largest-remainder rounding; every dimension gets at least one column.
    """
    weights = [max(1, math.ceil(math.log2(v))) for v in cardinalities]
    total = sum(weights)
    if d_model < len(weights):
        raise ValueError(f"model.d_model must be >= {len(weights)}, one column per "
                         f"dimension, got {d_model}")
    raw = [d_model * w / total for w in weights]
    widths = [max(1, int(r)) for r in raw]
    remainders = sorted(range(len(raw)), key=lambda i: (raw[i] - int(raw[i]), i), reverse=True)
    i = 0
    while sum(widths) < d_model:
        widths[remainders[i % len(raw)]] += 1
        i += 1
    while sum(widths) > d_model:
        j = max(range(len(widths)), key=lambda k: (widths[k], k))
        widths[j] -= 1
    return tuple(widths)


@dataclass(frozen=True)
class ModelConfig:
    cardinalities: Tuple[int, ...]
    d_k: Tuple[int, ...]
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    t_max: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        if sum(self.d_k) != self.d_model:
            raise ValueError(f"sum(d_k)={sum(self.d_k)} must equal d_model={self.d_model}")
        if len(self.d_k) != len(self.cardinalities):
            raise ValueError("d_k and cardinalities must have equal length")
        if self.n_layers < 1:
            raise ValueError(f"model.n_layers must be >= 1, got {self.n_layers}")
        if self.n_heads < 1:
            raise ValueError(f"model.n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"model.d_model {self.d_model} is not divisible by "
                             f"model.n_heads {self.n_heads}")
        if self.t_max < 2:
            raise ValueError(f"model.t_max must be >= 2, got {self.t_max}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"model.dropout must be in [0, 1), got {self.dropout}")

    @property
    def D(self) -> int:
        return len(self.cardinalities)

    @property
    def d_offsets(self) -> Tuple[int, ...]:
        out, acc = [], 0
        for w in self.d_k:
            out.append(acc)
            acc += w
        return tuple(out)

    @classmethod
    def for_vocab(cls, vocab: VocabSpec, d_model: int, n_layers: int,
                  n_heads: int, t_max: int, dropout: float) -> "ModelConfig":
        return cls(vocab.cardinalities, allocate_widths(vocab.cardinalities, d_model),
                   d_model, n_layers, n_heads, t_max, dropout)


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """normal(0, std) with resampling outside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x.astype(dtype)


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> Dict[str, nm.Tensor]:
    """Fresh backbone parameters; all weights trainable leaves."""
    std = 0.02
    p: Dict[str, nm.Tensor] = {}

    def leaf(name, arr):
        p[name] = nm.Tensor(arr, requires_grad=True)

    for d, (v, w) in enumerate(zip(cfg.cardinalities, cfg.d_k)):
        leaf(f"embed.{d}", _trunc_normal(rng, (v, w), std, dtype))
    leaf("pos", _trunc_normal(rng, (cfg.t_max + 1, cfg.d_model), std, dtype))
    leaf("bos", _trunc_normal(rng, (cfg.d_model,), std, dtype))
    dm, dh = cfg.d_model, 4 * cfg.d_model
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        leaf(f"{pre}.ln1.g", np.ones(dm, dtype=dtype))
        leaf(f"{pre}.ln1.b", np.zeros(dm, dtype=dtype))
        for nme in ("wq", "wk", "wv", "wo"):
            leaf(f"{pre}.attn.{nme}", _trunc_normal(rng, (dm, dm), std, dtype))
        for nme in ("bq", "bk", "bv", "bo"):
            leaf(f"{pre}.attn.{nme}", np.zeros(dm, dtype=dtype))
        leaf(f"{pre}.ln2.g", np.ones(dm, dtype=dtype))
        leaf(f"{pre}.ln2.b", np.zeros(dm, dtype=dtype))
        leaf(f"{pre}.mlp.w1", _trunc_normal(rng, (dm, dh), std, dtype))
        leaf(f"{pre}.mlp.b1", np.zeros(dh, dtype=dtype))
        leaf(f"{pre}.mlp.w2", _trunc_normal(rng, (dh, dm), std, dtype))
        leaf(f"{pre}.mlp.b2", np.zeros(dm, dtype=dtype))
    leaf("ln_f.g", np.ones(dm, dtype=dtype))
    leaf("ln_f.b", np.zeros(dm, dtype=dtype))
    return p


def param_count(cfg: ModelConfig) -> int:
    """Closed-form backbone size.

    sum_d V_d*d_k[d]  (tied embedding/decode tables)
    + (t_max + 2) * d_model  (positional rows incl. the BOS slot, + bos)
    + n_layers * (12*d_model^2 + 13*d_model)  (attention, MLP, two norms)
    + 2*d_model  (final norm)
    """
    dm = cfg.d_model
    emb = sum(v * w for v, w in zip(cfg.cardinalities, cfg.d_k))
    return emb + (cfg.t_max + 2) * dm + cfg.n_layers * (12 * dm * dm + 13 * dm) + 2 * dm


@dataclass
class EncodedBatch:
    """B sequences as ``nm.sequence_rows``'s [B * (t_max + 1), d_model] rows: per
    sequence a BOS row, then its events right-padded with PAD (0) to t_max."""

    x: nm.Tensor            # [B * (t_max + 1), d_model]
    ids: np.ndarray         # [B, t_max, D] padded token ids
    lengths: np.ndarray     # true (un-padded) event counts per sequence


def encode_batch(id_arrays: Sequence[np.ndarray], params: Dict[str, nm.Tensor],
                 cfg: ModelConfig) -> EncodedBatch:
    """Embed [T_i, D] id arrays: each sequence gets a BOS row at position 0 and
    its events, their per-dimension embeddings concatenated, at positions 1..T_i.

    Every sequence is padded to ``t_max``, so that a row's float sums, and so
    its outputs bit for bit, do not depend on its batch neighbours.
    """
    if any(a.ndim != 2 or a.shape[1] != cfg.D for a in id_arrays):
        raise nm.DimensionError(f"ids must be [T, {cfg.D}], got "
                                f"{[a.shape for a in id_arrays]}")
    lengths = np.array([a.shape[0] for a in id_arrays], dtype=np.int64)
    if lengths.max() > cfg.t_max:
        raise nm.DimensionError(f"sequence length {lengths.max()} exceeds t_max={cfg.t_max}")
    ids = np.zeros((len(id_arrays), cfg.t_max, cfg.D), dtype=np.int64)
    for i, a in enumerate(id_arrays):
        ids[i, :a.shape[0]] = a
    events = nm.concat_cols([nm.take_rows(params[f"embed.{d}"], ids[..., d]) for d in range(cfg.D)])
    x = nm.sequence_rows(events, params["bos"], params["pos"])
    return EncodedBatch(x=x, ids=ids, lengths=lengths)


def causal_forward(x: nm.Tensor, params: Dict[str, nm.Tensor], cfg: ModelConfig,
                   rng: Optional[np.random.Generator] = None,
                   last: Optional[np.ndarray] = None) -> nm.Tensor:
    """Pre-norm causal self-attention blocks over [B * R, d_model] rows.

    The rows are B sequences of R = t_max + 1 rows each, as ``encode_batch``
    lays them out. ``nm.attention`` runs per sequence and head under the
    causal mask, so a row sees only the earlier rows of its own sequence.
    Dropout runs iff ``rng`` is given (training); ``rng=None`` is evaluation.

    With ``last``, one row index into ``x`` per sequence, the result is the
    [B, d_model] rows ``take_rows(causal_forward(x), last)``, to float
    round-off: the last layer takes keys and values from every row but runs
    its queries, attention output, MLP and final norm at those rows only,
    each query under its own position's mask row. Their products are
    stacked, [B, 1, k] @ W, so that a row's bits do not depend on B: numpy
    computes a lone 2-D row with another kernel.
    """
    n, r = x.data.shape[0], cfg.t_max + 1
    if n % r:
        raise nm.DimensionError(f"{n} rows do not split into sequences of t_max + 1 = {r}")
    n_seq, d = n // r, cfg.d_model
    if last is not None:
        last = np.asarray(last, dtype=np.int64)
        if last.shape != (n_seq,) or np.any(last // r != np.arange(n_seq)):
            raise nm.DimensionError(f"last must give one row of each of the {n_seq} "
                                    f"sequences in order, got {last}")
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        h = nm.layer_norm(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
        rows, query_rows = h, None
        if last is not None and i == cfg.n_layers - 1:
            x, rows = (nm.take_rows(t, last[:, None]) for t in (x, h))
            query_rows = last % r
        q, k, v = (nm.matmul(t, params[f"{pre}.attn.w{c}"], params[f"{pre}.attn.b{c}"])
                   for t, c in zip((rows, h, h), "qkv"))
        att = nm.matmul(nm.attention(q, k, v, cfg.n_heads, r, query_rows),
                        params[f"{pre}.attn.wo"], params[f"{pre}.attn.bo"])
        att = nm.dropout(att, cfg.dropout, rng)
        x = nm.add(x, att)
        h2 = nm.layer_norm(x, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        m = nm.relu(nm.matmul(h2, params[f"{pre}.mlp.w1"], params[f"{pre}.mlp.b1"]))
        m = nm.matmul(m, params[f"{pre}.mlp.w2"], params[f"{pre}.mlp.b2"])
        m = nm.dropout(m, cfg.dropout, rng)
        x = nm.add(x, m)
    out = nm.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    return out if last is None else nm.reshape(out, (n_seq, d))


def reconstruct_logits(h: nm.Tensor, params: Dict[str, nm.Tensor],
                       cfg: ModelConfig) -> List[nm.Tensor]:
    """Slice hidden rows per dimension and decode against the tied tables."""
    out = []
    for d, (off, w) in enumerate(zip(cfg.d_offsets, cfg.d_k)):
        out.append(nm.matmul_t(nm.slice_cols(h, off, off + w), params[f"embed.{d}"]))
    return out


def reconstruction_loss(logits: Sequence[nm.Tensor], targets: np.ndarray,
                        valid: np.ndarray) -> nm.Tensor:
    """Mean over non-pad positions of the per-dimension mean cross-entropy.

    logits: per-dimension [N, V_d] rows aligned with targets [N, D];
    valid marks rows that carry a real next event.
    """
    valid = np.asarray(valid, dtype=bool)
    n, d = logits[0].data.shape[0], len(logits)
    if valid.shape != (n,) or np.shape(targets) != (n, d):
        raise nm.DimensionError(f"reconstruction_loss: {n} logit rows in {d} dims vs "
                                f"targets {np.shape(targets)} and valid {valid.shape}")
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        raise ValueError("reconstruction loss over an all-padded batch")
    terms = [nm.softmax_ce(nm.take_rows(lg, idx), targets[idx, di])
             for di, lg in enumerate(logits)]
    return nm.scale(nm.add_n(terms), 1.0 / d)


def batch_reconstruction_loss(id_arrays: Sequence[np.ndarray], params: Dict[str, nm.Tensor],
                              cfg: ModelConfig,
                              rng: Optional[np.random.Generator] = None) -> nm.Tensor:
    """Encode + forward + next-event loss for a batch of [T_i, D] id arrays:
    row t of a sequence (BOS first) predicts its event t, and only rows
    before its length count."""
    batch = encode_batch(id_arrays, params, cfg)
    h = causal_forward(batch.x, params, cfg, rng)
    logits = reconstruct_logits(h, params, cfg)
    targets = np.pad(batch.ids, ((0, 0), (0, 1), (0, 0))).reshape(-1, cfg.D)
    valid = np.arange(cfg.t_max + 1) < batch.lengths[:, None]
    return reconstruction_loss(logits, targets, valid.reshape(-1))


@dataclass
class PretrainConfig:
    steps: int = 400
    batch_size: int = 32
    lr: float = 3e-3
    seed: int = field(kw_only=True)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"pretrain.steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"pretrain.batch_size must be >= 1, got {self.batch_size}")


def pretrain_loop(corpus: Sequence[BehaviorSequence], cfg: ModelConfig, train_cfg: PretrainConfig,
                  ) -> Tuple[Dict[str, nm.Tensor], List[Tuple[int, float]]]:
    """Next-event pretraining on ``t_max`` windows from fresh parameters;
    returns the parameters and the (step, loss) curve."""
    if not corpus:
        raise ValueError("pretraining corpus is empty")
    params = init_params(cfg, child_rng(train_cfg.seed, "init"))
    opt = nm.Adam(params, lr=train_cfg.lr)
    batches = shuffled_batches(len(corpus), train_cfg.batch_size, train_cfg.steps,
                               train_cfg.seed, "pretrain-order")
    curve: List[Tuple[int, float]] = []
    for step, picks in enumerate(batches):
        wrng = child_rng(train_cfg.seed, "pretrain-window", step)
        ids = [window_sample(corpus[i], cfg.t_max, wrng) for i in picks]
        drng = child_rng(train_cfg.seed, "pretrain-dropout", step)
        loss = opt.minimize(lambda: batch_reconstruction_loss(ids, params, cfg, drng))
        curve.append((step, loss))
    return params, curve
