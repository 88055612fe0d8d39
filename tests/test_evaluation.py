"""Per-class report, top-k% ranking metrics, ROC-AUC, consistency oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudformer.evaluation import (RankEntry, per_class_metrics,
                                    render_topk_report, roc_auc, topk_consistent,
                                    topk_rank_metrics, topk_report_csv)


def entries_from(scores, labels):
    return [RankEntry(f"u{i:04d}", float(s), int(l))
            for i, (s, l) in enumerate(zip(scores, labels))]


# --- per-class -----------------------------------------------------------------

def test_per_class_perfect_predictions():
    labels = [0, 1, 2, 0, 1, 2]
    rows = per_class_metrics(labels, labels, 3)
    for r in rows:
        assert r.recall == 100.0 and r.precision == 100.0


def test_per_class_all_normal_predictions():
    labels = [0] * 9 + [1]
    rows = per_class_metrics([0] * 10, labels, 2)
    assert rows[0].recall == 100.0
    assert rows[1].recall == 0.0
    assert rows[1].precision is None  # class never predicted
    assert abs(rows[0].ratio - 90.0) < 1e-12 and abs(rows[1].ratio - 10.0) < 1e-12


def test_per_class_hand_confusion_matrix():
    #            true:  0  0  0  0  1  1  1  1  2  2  2  2
    preds =           [0, 0, 1, 2, 1, 1, 0, 2, 2, 2, 2, 0]
    labels =          [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    rows = per_class_metrics(preds, labels, 3)
    assert rows[0].recall == pytest.approx(100 * 2 / 4)
    assert rows[0].precision == pytest.approx(100 * 2 / 4)
    assert rows[1].recall == pytest.approx(100 * 2 / 4)
    assert rows[1].precision == pytest.approx(100 * 2 / 3)
    assert rows[2].recall == pytest.approx(100 * 3 / 4)
    assert rows[2].precision == pytest.approx(100 * 3 / 5)


def test_per_class_zero_support_is_undefined():
    rows = per_class_metrics([0, 0], [0, 0], 2)
    assert rows[1].recall is None and rows[1].ratio == 0.0


def test_per_class_length_mismatch():
    with pytest.raises(ValueError):
        per_class_metrics([0], [0, 1], 2)


def test_per_class_ratios_sum_to_100():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, 137)
    rows = per_class_metrics(labels, labels, 5)
    assert abs(sum(r.ratio for r in rows) - 100.0) < 1e-9


# --- top-k ------------------------------------------------------------------------

def test_topk_trivial_cases():
    e = entries_from([0.9, 0.8, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01],
                     [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    row = topk_rank_metrics(e, [0.2])[0]
    assert row["precision"] == 100.0 and row["recall"] == 100.0
    full = topk_rank_metrics(e, [1.0])[0]
    assert full["recall"] == 100.0
    assert full["precision"] == pytest.approx(100 * 2 / 10)


def test_topk_ceil_cut_and_tiebreak():
    # Equal scores: ties broken by ascending user_id, deterministically.
    e = [RankEntry("b", 0.5, 0), RankEntry("a", 0.5, 1), RankEntry("c", 0.5, 0)]
    row = topk_rank_metrics(e, [0.34])[0]  # ceil(0.34 * 3) = 2 -> {a, b}
    assert row["cut"] == 2 and row["hits"] == 1


def test_topk_cut_is_exact_at_decimal_k():
    # 0.07 * 100 is 7.000000000000001 in floats; the top 7% of 100 is 7 users.
    e = entries_from(np.linspace(1.0, 0.01, 100), [1] + [0] * 99)
    row = topk_rank_metrics(e, [0.07])[0]
    assert row["cut"] == 7 and row["precision"] == pytest.approx(100 / 7)


def test_topk_recall_monotone_in_k():
    rng = np.random.default_rng(1)
    e = entries_from(rng.random(200), rng.random(200) < 0.1)
    rows = topk_rank_metrics(e, [0.01, 0.05, 0.2, 1.0])
    recalls = [r["recall"] for r in rows]
    assert recalls == sorted(recalls)


def test_topk_counts_are_integers():
    rng = np.random.default_rng(2)
    e = entries_from(rng.random(97), rng.random(97) < 0.2)
    for row in topk_rank_metrics(e, [0.03, 0.11, 0.5]):
        assert row["precision"] * row["cut"] / 100 == pytest.approx(row["hits"])


def test_topk_no_positives_raises():
    e = entries_from([0.5, 0.4], [0, 0])
    with pytest.raises(ValueError, match="recall"):
        topk_rank_metrics(e, [0.5])


def test_rank_entry_rejects_non_finite():
    with pytest.raises(ValueError):
        RankEntry("u", float("nan"), 0)


# --- ROC-AUC ---------------------------------------------------------------------

def brute_force_auc(entries):
    pos = [e.score for e in entries if e.true_label == 1]
    neg = [e.score for e in entries if e.true_label == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_roc_auc_perfect_and_reversed():
    e = entries_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert roc_auc(e) == 1.0
    e = entries_from([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert roc_auc(e) == 0.0


def test_roc_auc_null_case_is_half():
    rng = np.random.default_rng(3)
    e = entries_from(rng.random(20_000), rng.random(20_000) < 0.5)
    assert abs(roc_auc(e) - 0.5) < 0.02


def test_roc_auc_six_entry_hand_case():
    e = entries_from([0.9, 0.7, 0.7, 0.4, 0.3, 0.1], [1, 0, 1, 0, 1, 0])
    assert roc_auc(e) == pytest.approx(brute_force_auc(e))


def test_roc_auc_signed_zeros_tie():
    # 0.0 == -0.0, so the two form one tie group and each pair counts half.
    e = entries_from([0.0, -0.0, 0.0, -0.0], [1, 0, 0, 1])
    assert roc_auc(e) == 0.5 == brute_force_auc(e)


def test_roc_auc_single_class_raises():
    with pytest.raises(ValueError):
        roc_auc(entries_from([0.1, 0.2], [1, 1]))


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 1)),
                min_size=2, max_size=100))
@settings(max_examples=200, deadline=None)
def test_roc_auc_matches_pair_oracle(pairs):
    labels = [l for _, l in pairs]
    if len(set(labels)) < 2:
        return
    e = entries_from([s / 3.0 for s, _ in pairs], labels)  # coarse scores force ties
    assert roc_auc(e) == pytest.approx(brute_force_auc(e), abs=1e-12)


# --- consistency oracle -------------------------------------------------------------

PUBLISHED_ROWS = [
    # (k, precision %, recall %) with P=800 positives out of N=8e7 users
    (0.01, 0.02, 19.16),
    (0.001, 0.05, 5.5),
    (0.0001, 0.13, 1.19),
]


@pytest.mark.parametrize("k,prec,rec", PUBLISHED_ROWS)
def test_reference_report_rows_are_consistent(k, prec, rec):
    row = {"k": k, "precision": prec, "recall": rec}
    assert topk_consistent(row, p_total=800, n_total=80_000_000)


def test_consistency_rejects_inconsistent_row():
    row = {"k": 0.01, "precision": 0.50, "recall": 19.16}
    assert not topk_consistent(row, p_total=800, n_total=80_000_000)


def test_consistency_exact_on_computed_reports():
    rng = np.random.default_rng(4)
    e = entries_from(rng.random(5000), rng.random(5000) < 0.01)
    p_total = sum(x.true_label for x in e)
    for row in topk_rank_metrics(e, [0.01, 0.001, 0.02]):
        assert topk_consistent(row, p_total, len(e), digits=10)


# --- rendering -----------------------------------------------------------------------

def test_csv_reports_round_trip_columns():
    rng = np.random.default_rng(5)
    e = entries_from(rng.random(100), [1] * 5 + [0] * 95)
    topk = topk_rank_metrics(e, [0.05])
    assert "precision" in topk_report_csv(topk).splitlines()[0]
    assert "5" in render_topk_report(topk)
