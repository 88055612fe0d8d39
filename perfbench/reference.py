"""Checks computed apart from the program.

Everything here is written from the documented formats in the root
README (checkpoint layout, model notes) and never imports ``fraudformer``,
so a fault in the program cannot hide itself by also breaking the check.

- ``read_checkpoint`` parses the FFCK checkpoint format.
- ``hidden_states`` / ``embedding`` / ``anomaly_probability`` are a
  float64 forward pass of the causal transformer and the SFT anomaly head.
- ``backbone_size`` is the closed-form parameter count.
- ``roc_auc`` / ``topk`` are brute-force ranking metrics.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

MAGIC = b"FFCK"
VERSION = 1


class CheckError(AssertionError):
    """An artifact or output of the program is wrong."""


@dataclass
class Checkpoint:
    config: dict
    params: Dict[str, np.ndarray]  # float64 copies

    @property
    def model(self) -> dict:
        return self.config["model"]

    @property
    def head(self) -> Optional[dict]:
        return self.config["head"]

    @property
    def kind(self) -> str:
        return self.config["kind"]


def read_checkpoint(path) -> Checkpoint:
    """Parse magic | u32 version | u64+config JSON | u64+manifest JSON |
    little-endian float32 blobs | u32 CRC32 of everything before it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != MAGIC:
        raise CheckError(f"{path}: bad magic or too short ({len(raw)} bytes)")
    body, crc = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(body) != crc:
        raise CheckError(f"{path}: CRC32 mismatch")
    if struct.unpack("<I", body[4:8])[0] != VERSION:
        raise CheckError(f"{path}: unexpected version")
    pos = 8
    blocks = []
    for _ in range(2):
        (n,) = struct.unpack("<Q", body[pos:pos + 8])
        pos += 8
        blocks.append(json.loads(body[pos:pos + n].decode("utf-8")))
        pos += n
    config, manifest = blocks
    data = body[pos:]
    params = {}
    expected = 0
    names = [e["name"] for e in manifest]
    if names != sorted(names):
        raise CheckError(f"{path}: manifest not sorted by name")
    for entry in manifest:
        shape = tuple(entry["shape"])
        nbytes = 4 * int(np.prod(shape, dtype=np.int64))
        if entry["offset"] != expected:
            raise CheckError(f"{path}: blob {entry['name']!r} not contiguous")
        blob = data[expected:expected + nbytes]
        if len(blob) != nbytes:
            raise CheckError(f"{path}: blob {entry['name']!r} truncated")
        params[entry["name"]] = np.frombuffer(blob, dtype="<f4").reshape(shape).astype(np.float64)
        expected += nbytes
    if expected != len(data):
        raise CheckError(f"{path}: {len(data) - expected} trailing payload bytes")
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckError(f"{path}: parameter {name!r} is not finite")
    return Checkpoint(config, params)


def backbone_size(model: dict) -> int:
    """sum_d V_d*d_k[d] + (t_max+2)*d + n_layers*(12d^2 + 13d) + 2d."""
    d = model["d_model"]
    emb = sum(v * w for v, w in zip(model["cardinalities"], model["d_k"]))
    return emb + (model["t_max"] + 2) * d + model["n_layers"] * (12 * d * d + 13 * d) + 2 * d


def check_backbone(ckpt: Checkpoint, path, kind: str) -> None:
    if ckpt.kind != kind:
        raise CheckError(f"{path}: kind {ckpt.kind!r}, expected {kind!r}")
    n = sum(a.size for name, a in ckpt.params.items() if not name.startswith("head."))
    want = backbone_size(ckpt.model)
    if n != want:
        raise CheckError(f"{path}: backbone has {n} parameters, closed form gives {want}")


# --- float64 forward -------------------------------------------------------

def _layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def hidden_states(ckpt: Checkpoint, ids: np.ndarray) -> np.ndarray:
    """Final-norm hidden rows [T+1, d]: row 0 is BOS, row t follows event t."""
    m, p = ckpt.model, ckpt.params
    t_len = ids.shape[0]
    if t_len > m["t_max"]:
        raise ValueError(f"{t_len} events exceed t_max={m['t_max']}")
    events = np.concatenate([p[f"embed.{d}"][ids[:, d]] for d in range(ids.shape[1])], axis=1)
    x = np.vstack([p["bos"] + p["pos"][0], events + p["pos"][1:t_len + 1]])
    n = t_len + 1
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    dh = m["d_model"] // m["n_heads"]
    for i in range(m["n_layers"]):
        pre = f"layer{i}"
        h = _layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = h @ p[f"{pre}.attn.wq"] + p[f"{pre}.attn.bq"]
        k = h @ p[f"{pre}.attn.wk"] + p[f"{pre}.attn.bk"]
        v = h @ p[f"{pre}.attn.wv"] + p[f"{pre}.attn.bv"]
        heads = []
        for j in range(m["n_heads"]):
            cols = slice(j * dh, (j + 1) * dh)
            s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            s[future] = -np.inf
            w = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
        x = x + np.hstack(heads) @ p[f"{pre}.attn.wo"] + p[f"{pre}.attn.bo"]
        h2 = _layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        mlp = np.maximum(h2 @ p[f"{pre}.mlp.w1"] + p[f"{pre}.mlp.b1"], 0.0)
        x = x + mlp @ p[f"{pre}.mlp.w2"] + p[f"{pre}.mlp.b2"]
    return _layer_norm(x, p["ln_f.g"], p["ln_f.b"])


def embedding(ckpt: Checkpoint, ids: np.ndarray) -> np.ndarray:
    """Hidden state after the last of the most recent t_max events."""
    ids = ids[-ckpt.model["t_max"]:]
    return hidden_states(ckpt, ids)[ids.shape[0]]


def anomaly_probability(ckpt: Checkpoint, ids: np.ndarray) -> float:
    """P(anomalous) of the binary head over the whole sequence (must fit t_max)."""
    p, head = ckpt.params, ckpt.head
    hd = np.diff(hidden_states(ckpt, ids)[1:], axis=0)
    pooled = []
    for k in head["kernel_sizes"]:
        w, b = p[f"head.conv{k}.w"], p[f"head.conv{k}.b"]
        conv = sum(hd[j:hd.shape[0] - k + 1 + j] @ w[j] for j in range(k)) + b
        pooled.append(np.maximum(conv, 0.0).max(axis=0))
    hidden = np.maximum(np.concatenate(pooled) @ p["head.mlp.w1"] + p["head.mlp.b1"], 0.0)
    logits = hidden @ p["head.mlp.w2"] + p["head.mlp.b2"]
    e = np.exp(logits - logits.max())
    return float(e[1] / e.sum())


# --- brute-force ranking metrics -------------------------------------------

def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties half."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum((sp > sn) + 0.5 * (sp == sn) for sp in pos for sn in neg)
    return wins / (len(pos) * len(neg))


def topk(users: Sequence[Tuple[str, float, int]], k: float) -> Tuple[int, int, float, float]:
    """(cut, hits, precision %, recall %) over the top ceil(k*N) by score, ties by id."""
    ranked = sorted(users, key=lambda u: (-u[1], u[0]))
    cut = math.ceil(k * len(ranked))
    hits = sum(y for _, _, y in ranked[:cut])
    total = sum(y for _, _, y in ranked)
    return cut, hits, 100.0 * hits / cut, 100.0 * hits / total


def close(ref: np.ndarray, got: np.ndarray, tol: float) -> bool:
    """float32-vs-float64 agreement: |ref - got| <= tol * (1 + |ref|)."""
    return bool(np.all(np.abs(np.asarray(ref) - np.asarray(got)) <= tol * (1.0 + np.abs(ref))))


def mean_log_vocab(cardinalities: List[int]) -> float:
    """Next-event cross-entropy of near-zero logits: mean_d ln V_d."""
    return float(np.mean([math.log(v) for v in cardinalities]))
