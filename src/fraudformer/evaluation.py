"""Report metrics: per-class recall/precision/ratio tables, top-k% ranked
precision/recall, and ROC-AUC. All percentages; undefined cells are kept
as None rather than as zero."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "RankEntry", "ClassRow", "per_class_metrics", "topk_rank_metrics",
    "roc_auc", "render_topk_report", "topk_report_csv", "topk_consistent",
]


@dataclass(frozen=True)
class RankEntry:
    user_id: str
    score: float
    true_label: int  # binary: 1 = anomalous

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score for {self.user_id!r} is not finite")


@dataclass(frozen=True)
class ClassRow:
    label: int
    recall: Optional[float]     # %; None when the class has no support
    precision: Optional[float]  # %; None when the class is never predicted
    ratio: float                # % of eval items carrying this label


def per_class_metrics(preds: Sequence[int], labels: Sequence[int],
                      n_classes: int) -> List[ClassRow]:
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError(f"need equal nonempty preds/labels, got {preds.shape} vs {labels.shape}")
    rows = []
    total = labels.size
    for c in range(n_classes):
        tp = int(((preds == c) & (labels == c)).sum())
        support = int((labels == c).sum())
        predicted = int((preds == c).sum())
        rows.append(ClassRow(
            label=c,
            recall=None if support == 0 else 100.0 * tp / support,
            precision=None if predicted == 0 else 100.0 * tp / predicted,
            ratio=100.0 * support / total,
        ))
    return rows


def _ranked(entries: Sequence[RankEntry]) -> List[RankEntry]:
    return sorted(entries, key=lambda e: (-e.score, e.user_id))


def topk_rank_metrics(entries: Sequence[RankEntry],
                      k_fractions: Sequence[float]) -> List[dict]:
    """Precision/recall (in %) over the top ceil(k*N) scores per k.

    k*N is taken exactly at the decimal k is written as: in floats 0.07 * 100
    is 7.000000000000001, whose ceiling would rank 8 users as the top 7%."""
    if not entries:
        raise ValueError("no rank entries")
    for k in k_fractions:
        if not 0.0 < k <= 1.0:
            raise ValueError(f"k fraction must be in (0, 1], got {k}")
    ranked = _ranked(entries)
    n = len(ranked)
    p_total = sum(e.true_label for e in ranked)
    if p_total == 0:
        raise ValueError("recall undefined: no positive entries")
    rows = []
    for k in k_fractions:
        cut = math.ceil(Fraction(str(k)) * n)
        hits = sum(e.true_label for e in ranked[:cut])
        rows.append({
            "k": k, "cut": cut, "hits": hits,
            "precision": 100.0 * hits / cut,
            "recall": 100.0 * hits / p_total,
        })
    return rows


def roc_auc(entries: Sequence[RankEntry]) -> float:
    """P(random positive outranks random negative), ties counted half."""
    scores = np.array([e.score for e in entries], dtype=np.float64)
    labels = np.array([e.true_label for e in entries], dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    # Midranks give the Mann-Whitney U statistic.
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def topk_consistent(row: dict, p_total: int, n_total: int, digits: int = 2) -> bool:
    """Check precision(k) = recall(k) * P / (k * N) to last-digit rounding."""
    implied = row["recall"] / 100.0 * p_total / (row["k"] * n_total) * 100.0
    unit = 10.0 ** -digits
    return abs(round(implied, digits) - round(row["precision"], digits)) <= unit + 1e-12


def render_topk_report(rows: Sequence[dict]) -> str:
    header = ("Rank", "Precision (%)", "Recall (%)")
    table = [header]
    for r in rows:
        table.append((f"Top {100.0 * r['k']:g}%", f"{r['precision']:.2f}", f"{r['recall']:.2f}"))
    widths = [max(len(row[c]) for row in table) for c in range(3)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


def topk_report_csv(rows: Sequence[dict]) -> str:
    out = ["k,cut,hits,precision_pct,recall_pct"]
    for r in rows:
        out.append(f"{r['k']:g},{r['cut']},{r['hits']},{r['precision']:.6f},{r['recall']:.6f}")
    return "\n".join(out) + "\n"
