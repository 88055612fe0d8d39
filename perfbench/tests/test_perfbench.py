"""Fast tests of the benchmark itself; not part of the repository's test run.

    python3 -m pytest perfbench/tests -q

Each artifact check must accept the program's real output and reject a
deliberately corrupted copy; a small run of every workload must finish.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from checks import CheckError  # noqa: E402
from fraudformer.cli import run_subcommand  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402


def cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_subcommand([str(a) for a in argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """A tiny SFT model, a population that fits t_max, and its outputs."""
    d = tmp_path_factory.mktemp("art")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "data": {"n_users": 40, "fraud_fraction": 0.3, "t_max": 32},
                               "pretrain": {"steps": 1, "batch_size": 4},
                               "sft": {"epochs": 1, "batch_size": 8}}))
    data = d / "data.jsonl"
    cli("gen-data", "--config", cfg, "--out", data)
    common = ["--config", cfg, "--data", data, "--vocab", f"{data}.vocab.json"]
    cli("pretrain", *common, "--out", d / "pre.ckpt")
    cli("finetune-sft", *common, "--checkpoint", d / "pre.ckpt", "--out", d / "sft.ckpt")
    cli("score", "--checkpoint", d / "sft.ckpt", "--data", data, "--out", d / "scores.csv")
    printed = cli("eval", "--scores", d / "scores.csv", "--data", data, "--out", d / "report.csv")
    cli("embed", "--checkpoint", d / "pre.ckpt", "--data", data, "--out", d / "emb.csv")
    return {"dir": d, "users": checks.read_corpus(data), "printed": printed,
            "sft": ref.read_checkpoint(d / "sft.ckpt"), "pre": ref.read_checkpoint(d / "pre.ckpt")}


def test_scores_shuffled_against_users_rejected(art):
    d, users = art["dir"], art["users"]
    checks.check_scores(d / "scores.csv", users, art["sft"], users[:8])
    lines = (d / "scores.csv").read_text().splitlines()
    ids = [l.split(",")[0] for l in lines[1:]]
    vals = [l.split(",")[1] for l in lines[1:]]
    shuffled = d / "scores-shuffled.csv"
    shuffled.write_text("\n".join([lines[0]] + [f"{u},{v}" for u, v in zip(ids, vals[1:] + vals[:1])]) + "\n")
    with pytest.raises(CheckError, match="float64 reference"):
        checks.check_scores(shuffled, users, art["sft"], users[:8])


def test_one_embedding_perturbed_rejected(art):
    d, users = art["dir"], art["users"]
    checks.check_embeddings(d / "emb.csv", users, art["pre"], users[:4])
    rows = (d / "emb.csv").read_text().splitlines()
    cells = rows[3].split(",")
    cells[5] = repr(float(cells[5]) + 1e-2)
    rows[3] = ",".join(cells)
    bad = d / "emb-perturbed.csv"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckError, match="float64"):
        checks.check_embeddings(bad, users, art["pre"], users[:4])


def test_wrong_auc_rejected(art):
    d, users = art["dir"], art["users"]
    scores = checks.read_scores(d / "scores.csv")
    ks = (0.01, 0.001, 0.0001)
    checks.check_eval(art["printed"], d / "report.csv", scores, users, ks, auc_floor=0.0)
    lines = art["printed"].splitlines()
    auc = float(lines[-1].split(":")[1])
    wrong = "\n".join(lines[:-1] + [f"ROC-AUC: {min(auc + 0.01, 1.0) if auc < 1 else 0.99:.4f}"])
    with pytest.raises(CheckError, match="ROC-AUC"):
        checks.check_eval(wrong, d / "report.csv", scores, users, ks, auc_floor=0.0)
    with pytest.raises(CheckError, match="floor"):
        checks.check_eval(art["printed"], d / "report.csv", scores, users, ks, auc_floor=1.01)


def test_wrong_topk_report_rejected(art):
    d, users = art["dir"], art["users"]
    scores = checks.read_scores(d / "scores.csv")
    rows = (d / "report.csv").read_text().splitlines()
    k, cut, hits, *rest = rows[1].split(",")
    rows[1] = ",".join([k, cut, str(int(hits) + 1), *rest])
    bad = d / "report-bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckError, match="brute force"):
        checks.check_eval(art["printed"], bad, scores, users, (0.01, 0.001, 0.0001), 0.0)


def test_truncated_or_flipped_checkpoint_rejected(art):
    raw = (art["dir"] / "sft.ckpt").read_bytes()
    bad = art["dir"] / "bad.ckpt"
    bad.write_bytes(raw[:-10])
    with pytest.raises(CheckError):
        ref.read_checkpoint(bad)
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckError, match="CRC"):
        ref.read_checkpoint(bad)


def test_backbone_size_and_first_loss(art):
    ref.check_backbone(art["pre"], "pre.ckpt", "pretrain")
    with pytest.raises(CheckError, match="kind"):
        ref.check_backbone(art["pre"], "pre.ckpt", "sft")
    cards = art["pre"].model["cardinalities"]
    checks.check_first_loss(art["dir"] / "pre.ckpt.loss.csv", 1, cards)
    with pytest.raises(CheckError, match="analytic"):
        checks.check_first_loss(art["dir"] / "pre.ckpt.loss.csv", 1, [c + 4 for c in cards])


def test_corpus_properties_rejected(art):
    users = art["users"]
    cards = art["pre"].model["cardinalities"]
    checks.check_corpus(users, 40, 16, 32, cards, "data")
    with pytest.raises(CheckError, match="users"):
        checks.check_corpus(users, 41, 16, 32, cards, "data")
    shortest = min(u.ids.shape[0] for u in users)
    with pytest.raises(CheckError, match="events"):
        checks.check_corpus(users, 40, shortest + 1, 32, cards, "data")
    users[0].ids[0, 0] = 0
    try:
        with pytest.raises(CheckError, match="token"):
            checks.check_corpus(users, 40, 16, 32, cards, "data")
    finally:
        users[0].ids[0, 0] = 1


def test_brute_force_auc_counts_ties_half():
    assert ref.roc_auc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0]) == pytest.approx(0.875)
    assert ref.topk([("a", 0.9, 1), ("b", 0.8, 0), ("c", 0.1, 1)], 0.5) == (2, 1, 50.0, 50.0)


def test_missing_function_is_reported_not_fatal():
    tracer = Tracer()
    tracer.wrapped = {"numerics." + op for op in ("matmul", "softmax_rows")}
    values, missing = tracer.layer_metrics(rounds=1)
    assert "model.encode_batch_s" in missing and "model.encode_batch_s" not in values
    assert values["numerics.matmul.calls"] == 0.0
    assert set(values) | set(missing) == set(PER_LAYER_UNITS)


def _run(workload, trace, cwd=ROOT):
    p = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
                        "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


@pytest.mark.parametrize("workload,trace", [("train", 0), ("score", 0), ("embed", 0), ("train", 1)])
def test_small_run_finishes(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = set(PER_LAYER_UNITS) if trace else {"setup_s", "peak_rss_mb", "seqs_per_s"}
    assert set(result["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _run("score", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
