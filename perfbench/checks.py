"""Checks on the artifacts the CLI writes: corpora, loss curves, scores,
eval reports and embeddings. Each raises ``CheckError`` on the first fault."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

import reference as ref
from reference import CheckError

# Generous for float32-vs-float64, far below the perturbations the tests plant.
TOLERANCE = 1e-4


@dataclass
class User:
    user_id: str
    ids: np.ndarray  # [T, D] token ids
    label: int


def read_corpus(path) -> List[User]:
    users = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            users.append(User(rec["user_id"], np.asarray(rec["attrs"], dtype=np.int64),
                              int(rec["label"])))
    return users


def read_cardinalities(vocab_path) -> List[int]:
    with open(vocab_path, encoding="utf-8") as fh:
        return [int(d["cardinality"]) for d in json.load(fh)["dims"]]


def check_corpus(users: Sequence[User], n_users: int, t_min: int, t_max: int,
                 cards: Sequence[int], path) -> None:
    """User count, unique ids, lengths in [t_min, t_max], tokens in [1, V_d)."""
    if len(users) != n_users:
        raise CheckError(f"{path}: {len(users)} users, expected {n_users}")
    if len({u.user_id for u in users}) != len(users):
        raise CheckError(f"{path}: duplicate user ids")
    hi = np.asarray(cards)
    for u in users:
        if not t_min <= u.ids.shape[0] <= t_max:
            raise CheckError(f"{path}: {u.user_id} has {u.ids.shape[0]} events, "
                             f"outside [{t_min}, {t_max}]")
        if u.ids.shape[1] != len(cards) or np.any(u.ids < 1) or np.any(u.ids >= hi):
            raise CheckError(f"{path}: {u.user_id} has a token outside [1, V_d)")


def read_curve(path, rows: int) -> List[float]:
    with open(path, encoding="utf-8") as fh:
        losses = [float(r["loss"]) for r in csv.DictReader(fh)]
    if len(losses) != rows or not all(math.isfinite(x) for x in losses):
        raise CheckError(f"{path}: expected {rows} finite losses, got {losses[:4]}...")
    return losses


def check_first_loss(curve_path, rows: int, cards: Sequence[int], tol: float = 0.01) -> None:
    """Step 0 of pretraining starts from near-zero logits: loss ~ mean_d ln V_d."""
    first = read_curve(curve_path, rows)[0]
    want = ref.mean_log_vocab(cards)
    if abs(first - want) > tol:
        raise CheckError(f"{curve_path}: first-step loss {first:.4f}, "
                         f"analytic {want:.4f} for near-zero logits")


def read_scores(path) -> Dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["user_id", "score"]:
            raise CheckError(f"{path}: bad header")
        rows = [(uid, float(s)) for uid, s in reader]
    scores = dict(rows)
    if len(scores) != len(rows):
        raise CheckError(f"{path}: a user appears more than once")
    return scores


def check_scores(path, users: Sequence[User], ckpt: ref.Checkpoint,
                 sample: Sequence[User]) -> Dict[str, float]:
    """Every user once, finite and in [0, 1]; the ``sample`` users, which must
    fit the model's t_max, match the float64 reference forward."""
    scores = read_scores(path)
    if set(scores) != {u.user_id for u in users}:
        raise CheckError(f"{path}: scored users differ from the corpus")
    for uid, s in scores.items():
        if not (math.isfinite(s) and 0.0 <= s <= 1.0):
            raise CheckError(f"{path}: score {s} of {uid} is not a probability")
    if not sample:
        raise CheckError(f"{path}: no users to compare with the reference")
    for u in sample:
        want = ref.anomaly_probability(ckpt, u.ids)
        if not ref.close(want, scores[u.user_id], TOLERANCE):
            raise CheckError(f"{path}: {u.user_id} scored {scores[u.user_id]:.6g}, "
                             f"float64 reference gives {want:.6g}")
    return scores


def check_eval(stdout: str, report_path, scores: Dict[str, float],
               users: Sequence[User], ks: Sequence[float], auc_floor: float) -> float:
    """Brute-force AUC and top-k precision/recall agree with what eval printed
    and wrote; AUC clears the floor. Returns the AUC."""
    labels = {u.user_id: int(u.label > 0) for u in users}
    ranked = [(uid, s, labels[uid]) for uid, s in scores.items()]
    auc = ref.roc_auc([s for _, s, _ in ranked], [y for _, _, y in ranked])
    lines = stdout.splitlines()
    printed_auc = [float(l.split(":")[1]) for l in lines if l.startswith("ROC-AUC:")]
    if len(printed_auc) != 1 or abs(printed_auc[0] - auc) > 5e-5 + 1e-12:
        raise CheckError(f"eval printed ROC-AUC {printed_auc}, brute force gives {auc:.6f}")
    if auc < auc_floor:
        raise CheckError(f"held-out ROC-AUC {auc:.4f} below the floor {auc_floor}")
    printed = [l.split()[2:4] for l in lines if l.startswith("Top ")]
    with open(report_path, encoding="utf-8") as fh:
        written = list(csv.DictReader(fh))
    if len(printed) != len(ks) or len(written) != len(ks):
        raise CheckError(f"eval reported {len(printed)} printed / {len(written)} written "
                         f"top-k rows, expected {len(ks)}")
    for k, shown, row in zip(ks, printed, written):
        cut, hits, prec, rec = ref.topk(ranked, k)
        ok = (abs(float(shown[0]) - prec) <= 0.005 + 1e-9
              and abs(float(shown[1]) - rec) <= 0.005 + 1e-9
              and int(row["cut"]) == cut and int(row["hits"]) == hits
              and abs(float(row["precision_pct"]) - prec) <= 1e-5
              and abs(float(row["recall_pct"]) - rec) <= 1e-5)
        if not ok:
            raise CheckError(f"top {k}: eval gave {shown} / {dict(row)}, brute force "
                             f"gives cut {cut}, hits {hits}, {prec:.2f}%, {rec:.2f}%")
    return auc


def read_embeddings(path, d_model: int) -> Dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["user_id"] + [f"e{i}" for i in range(d_model)]:
            raise CheckError(f"{path}: bad header")
        rows = [(r[0], np.array(r[1:], dtype=np.float64)) for r in reader]
    out = dict(rows)
    if len(out) != len(rows):
        raise CheckError(f"{path}: a user appears more than once")
    for uid, v in rows:
        if v.shape != (d_model,) or not np.all(np.isfinite(v)):
            raise CheckError(f"{path}: row of {uid} is not {d_model} finite values")
    return out


def check_embeddings(path, users: Sequence[User], ckpt: ref.Checkpoint,
                     sample: Sequence[User]) -> Dict[str, np.ndarray]:
    """Every user once with d_model finite values; the ``sample`` users match
    the float64 reference over their last t_max events."""
    emb = read_embeddings(path, ckpt.model["d_model"])
    if set(emb) != {u.user_id for u in users}:
        raise CheckError(f"{path}: embedded users differ from the corpus")
    if not sample:
        raise CheckError(f"{path}: no users to compare with the reference")
    for u in sample:
        want = ref.embedding(ckpt, u.ids)
        if not ref.close(want, emb[u.user_id], TOLERANCE):
            err = float(np.max(np.abs(want - emb[u.user_id])))
            raise CheckError(f"{path}: embedding of {u.user_id} is off the float64 "
                             f"reference by {err:.3g}")
    return emb
