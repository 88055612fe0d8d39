"""Run configuration merging and CLI subcommands."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fraudformer import cli, parallel
from fraudformer.cli import build_parser, keep_freed_heap, run_subcommand
from fraudformer.config import ConfigError, DEFAULTS, load_run_config
from fraudformer.contrastive import ContrastiveConfig
from fraudformer.data import GeneratorConfig
from fraudformer.model import ModelConfig, PretrainConfig
from fraudformer.numerics import Tensor
from fraudformer.sft import AnomalyHeadConfig, SftConfig
from tests.conftest import (assert_no_child, edit_checkpoint_config, needs_two_workers,
                            no_thread_left)


# --- config -----------------------------------------------------------------

def test_defaults_load_without_file():
    cfg = load_run_config()
    assert cfg.seed == DEFAULTS["seed"]
    assert cfg.pretrain_config().batch_size == DEFAULTS["pretrain"]["batch_size"]


def test_override_merges_recursively(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 5, "pretrain": {"steps": 7}}))
    cfg = load_run_config(p)
    assert cfg.seed == 5
    assert cfg.pretrain_config().steps == 7
    assert cfg.pretrain_config().lr == DEFAULTS["pretrain"]["lr"]


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"pretrain": {"stepz": 7}}))
    with pytest.raises(ConfigError, match="stepz"):
        load_run_config(p)
    p.write_text(json.dumps({"bogus_section": {}}))
    with pytest.raises(ConfigError, match="bogus_section"):
        load_run_config(p)
    # Pretraining windows are t_max events, as in SFT and contrastive tuning.
    with pytest.raises(ConfigError, match="pretrain.window"):
        load_run_config({"pretrain": {"window": 32}})
    p.write_text("[]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_run_config(p)


def test_with_seed_propagates():
    cfg = load_run_config().with_seed(42)
    assert cfg.seed == 42
    assert cfg.generator_config().seed == 42
    assert cfg.pretrain_config().seed == 42


def test_every_spec_hyperparameter_is_named():
    cfg = load_run_config()
    assert cfg.head_config().kernel_sizes == (2, 3, 5)
    assert cfg.sft_config().backbone_lr_mult == 0.1
    assert cfg.sft_config().pos_fraction == 0.25
    assert cfg.contrastive_config().tau == 0.05


def test_settable_value_count():
    """A run's settable values are the config leaves plus the config
    dataclasses' fields. A change that adds or removes one moves this pin."""
    def leaves(d):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in d.values())
    classes = (GeneratorConfig, ModelConfig, PretrainConfig, AnomalyHeadConfig,
               SftConfig, ContrastiveConfig)
    assert leaves(DEFAULTS) + sum(len(dataclasses.fields(c)) for c in classes) == 62


def test_sft_section_classes_share_no_field():
    """The sft section feeds two classes by field name: a name on both would
    set two settings from one key."""
    names = [{f.name for f in dataclasses.fields(c)} for c in (SftConfig, AnomalyHeadConfig)]
    assert names[0] & names[1] == set()


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = load_run_config(json.loads(example))
    assert cfg.raw == load_run_config().raw  # the example spells out defaults


# --- CLI --------------------------------------------------------------------

SMALL_DATA = {"data": {"n_users": 40, "fraud_fraction": 0.2, "t_min": 16,
                       "t_max": 16}}


def write_cfg(tmp_path, extra=None):
    body = dict(SMALL_DATA)
    if extra:
        body.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(body))
    return str(p)


def test_cli_bad_flags_exit_2(capsys):
    # Training is float32 only, so pretrain has no precision flag; score and
    # embed read no config and draw nothing, so they take no seed.
    for argv in (["no-such-command"],
                 ["pretrain", "--data", "d", "--vocab", "v", "--out", "o", "--mode", "f64"],
                 ["score", "--checkpoint", "c", "--data", "d", "--out", "o", "--seed", "1"],
                 ["embed", "--checkpoint", "c", "--data", "d", "--out", "o", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


def test_help_renders_for_every_subcommand(capsys):
    """argparse %-formats help text: a bare % in a subcommand's help put a
    dict dump in the top-level help."""
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    for argv in [[]] + [[name] for name in subparsers.choices]:
        with pytest.raises(SystemExit) as exc:
            run_subcommand(argv + ["--help"])
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "top-k% report" in out and "'option_strings'" not in out


def test_cli_runtime_failure_exit_1(tmp_path, capsys):
    rc = run_subcommand(["pretrain", "--data", str(tmp_path / "missing.jsonl"),
                         "--vocab", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_gen_data_deterministic(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(a)]) == 0
    assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.vocab.json").exists()


def test_cli_full_pipeline(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
        "pretrain": {"steps": 5, "batch_size": 8},
        "sft": {"epochs": 1, "batch_size": 8, "filters": 4, "hidden": 8},
        "contrastive": {"batch_size": 8, "steps": 3},
    })
    data = tmp_path / "d.jsonl"
    vocab = tmp_path / "d.jsonl.vocab.json"
    ckpt = tmp_path / "pre.ckpt"
    sft_ckpt = tmp_path / "sft.ckpt"
    cl_ckpt = tmp_path / "cl.ckpt"
    scores = tmp_path / "scores.csv"

    assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(data)]) == 0
    assert run_subcommand(["pretrain", "--config", cfgp, "--data", str(data),
                           "--vocab", str(vocab), "--out", str(ckpt)]) == 0
    assert (tmp_path / "pre.ckpt.loss.csv").read_text().startswith("step,loss")
    assert run_subcommand(["finetune-sft", "--config", cfgp, "--data", str(data),
                           "--vocab", str(vocab), "--checkpoint", str(ckpt),
                           "--out", str(sft_ckpt)]) == 0
    assert run_subcommand(["finetune-cl", "--config", cfgp, "--data", str(data),
                           "--vocab", str(vocab), "--checkpoint", str(ckpt),
                           "--out", str(cl_ckpt)]) == 0
    assert run_subcommand(["score", "--checkpoint", str(sft_ckpt),
                           "--data", str(data), "--out", str(scores)]) == 0
    assert scores.read_text().startswith("user_id,score")
    assert run_subcommand(["eval", "--scores", str(scores), "--data", str(data),
                           "--k", "0.1,0.5"]) == 0
    out = capsys.readouterr().out
    assert "ROC-AUC" in out

    emb = tmp_path / "emb.csv"
    assert run_subcommand(["embed", "--checkpoint", str(cl_ckpt),
                           "--data", str(data), "--out", str(emb)]) == 0
    assert emb.read_text().startswith("user_id,e0")


def test_cli_score_rejects_headless_checkpoint(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
        "pretrain": {"steps": 1, "batch_size": 8},
    })
    data = tmp_path / "d.jsonl"
    ckpt = tmp_path / "pre.ckpt"
    run_subcommand(["gen-data", "--config", cfgp, "--out", str(data)])
    run_subcommand(["pretrain", "--config", cfgp, "--data", str(data),
                    "--vocab", str(tmp_path / "d.jsonl.vocab.json"),
                    "--out", str(ckpt)])
    rc = run_subcommand(["score", "--checkpoint", str(ckpt),
                         "--data", str(data), "--out", str(tmp_path / "s.csv")])
    assert rc == 1


def test_cli_vocab_mismatch_detected(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
        "pretrain": {"steps": 1, "batch_size": 8},
    })
    data = tmp_path / "d.jsonl"
    vocab = tmp_path / "d.jsonl.vocab.json"
    ckpt = tmp_path / "pre.ckpt"
    run_subcommand(["gen-data", "--config", cfgp, "--out", str(data)])
    run_subcommand(["pretrain", "--config", cfgp, "--data", str(data),
                    "--vocab", str(vocab), "--out", str(ckpt)])
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"dims": [{"name": "a", "cardinality": 3},
                                          {"name": "b", "cardinality": 4}]}))
    rc = run_subcommand(["finetune-sft", "--config", cfgp, "--data", str(data),
                         "--vocab", str(other), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert "vocab" in capsys.readouterr().err


# --- score and embed on outside input -----------------------------------------

@pytest.fixture(scope="module")
def scoring_run(tmp_path_factory):
    """A corpus, a pretrained checkpoint and an SFT checkpoint, trained briefly."""
    d = tmp_path_factory.mktemp("scoring")
    cfgp = write_cfg(d, {
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
        "pretrain": {"steps": 1, "batch_size": 8},
        "sft": {"epochs": 1, "batch_size": 8, "filters": 4, "hidden": 8},
    })
    data, vocab = d / "d.jsonl", d / "d.jsonl.vocab.json"
    common = ["--config", cfgp, "--data", str(data), "--vocab", str(vocab)]
    assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(data)]) == 0
    assert run_subcommand(["pretrain", *common, "--out", str(d / "pre.ckpt")]) == 0
    assert run_subcommand(["finetune-sft", *common, "--checkpoint", str(d / "pre.ckpt"),
                           "--out", str(d / "sft.ckpt")]) == 0
    return {"cfg": cfgp, "data": data, "vocab": vocab,
            "pre": d / "pre.ckpt", "sft": d / "sft.ckpt",
            "records": [json.loads(l) for l in data.read_text().splitlines()]}


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_cli_score_skips_short_user(scoring_run, tmp_path, capsys):
    records = scoring_run["records"]
    short = dict(records[0], user_id="short", attrs=records[0]["attrs"][:5],
                 label=0, anomaly_onset=None)
    data = write_records(tmp_path / "d.jsonl", records[:3] + [short] + records[3:])
    out = tmp_path / "s.csv"
    assert run_subcommand(["score", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(data), "--out", str(out)]) == 0
    scored = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
    assert scored == {r["user_id"] for r in records}
    assert "short" in capsys.readouterr().err


def test_cli_finetune_sft_skips_short_user(scoring_run, tmp_path, capsys):
    records = scoring_run["records"]
    # A negative is drawn once per epoch, so the short user is always sampled.
    short = dict(records[0], user_id="short", attrs=records[0]["attrs"][:5],
                 label=0, anomaly_onset=None)
    out = tmp_path / "sft.ckpt"

    def finetune(recs):
        data = write_records(tmp_path / "d.jsonl", recs)
        return run_subcommand(["finetune-sft", "--config", scoring_run["cfg"],
                               "--data", str(data), "--vocab", str(scoring_run["vocab"]),
                               "--checkpoint", str(scoring_run["pre"]), "--out", str(out)])

    assert finetune(records + [short]) == 0
    assert out.exists()
    assert "skipped short: 5 events" in capsys.readouterr().err
    # When the only positive is too short, the positive pool is empty.
    normals = [r for r in records if r["label"] == 0]
    out.unlink()
    assert finetune(normals + [dict(short, label=1, anomaly_onset=0)]) == 1
    assert (f"got 0 with label > 0 and {len(normals)} with label 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kept", ["normal", "fraud"])
def test_cli_finetune_sft_names_the_missing_label(scoring_run, tmp_path, capsys, kept):
    """A corpus of one label, as gen-data writes at fraud_fraction 0, fails
    with both counts and no checkpoint."""
    records = [r for r in scoring_run["records"] if (r["label"] > 0) == (kept == "fraud")]
    data = write_records(tmp_path / "d.jsonl", records)
    out = tmp_path / "sft.ckpt"
    assert run_subcommand(["finetune-sft", "--config", scoring_run["cfg"],
                           "--data", str(data), "--vocab", str(scoring_run["vocab"]),
                           "--checkpoint", str(scoring_run["pre"]), "--out", str(out)]) == 1
    n_pos, n_neg = (len(records), 0) if kept == "fraud" else (0, len(records))
    err = capsys.readouterr().err
    assert "SFT needs a user with label > 0 and a user with label 0" in err
    assert f"got {n_pos} with label > 0 and {n_neg} with label 0" in err
    assert not out.exists()


def test_cli_finetune_cl_rejects_batch_of_one(scoring_run, tmp_path, capsys):
    # The model comes from the checkpoint; the config sets the contrastive stage.
    cfgp = write_cfg(tmp_path, {"contrastive": {"batch_size": 1, "steps": 2}})
    out = tmp_path / "cl.ckpt"
    assert run_subcommand(["finetune-cl", "--config", cfgp,
                           "--data", str(scoring_run["data"]),
                           "--vocab", str(scoring_run["vocab"]),
                           "--checkpoint", str(scoring_run["pre"]), "--out", str(out)]) == 1
    assert "batch_size must be >= 2" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("key,value,command", [
    ("data.n_personas", 0, "gen-data"),
    ("model.n_heads", 0, "pretrain"),
    ("model.dropout", "0.1", "pretrain"),
    ("pretrain.steps", 0, "pretrain"),
    ("pretrain.steps", 1.5, "pretrain"),
    ("pretrain.steps", True, "pretrain"),
    ("pretrain.batch_size", 0, "pretrain"),
    ("sft.epochs", 0, "finetune-sft"),
    ("sft.kernel_sizes", [2, 3.5], "finetune-sft"),
    ("contrastive.steps", 0, "finetune-cl"),
    ("data.n_users", 0, "gen-data"),
    ("data.t_max", 5000, "gen-data"),
    ("data.class_mix", [-0.125, 0.375] + [0.125] * 6, "gen-data"),
    ("data.t_min", 1, "gen-data"),  # the default fraud_fraction is above 0
    ("data.t_min", 0, "gen-data"),
    ("data.t_max", 8, "gen-data"),  # below the default t_min
    ("sft.kernel_sizes", [], "finetune-sft"),
    ("sft.kernel_sizes", [1], "finetune-sft"),
    ("sft.kernel_sizes", [2, 2], "finetune-sft"),  # two sizes, one conv
    ("sft.kernel_sizes", [2, 32], "finetune-sft"),  # needs 33 events, model.t_max is 32
    ("sft.filters", 0, "finetune-sft"),
    ("sft.hidden", 0, "finetune-sft"),
    # A dict sets several keys of the section: 0.75 of one is one positive, no negative.
    ("sft.batch_size", {"batch_size": 1, "pos_fraction": 0.75}, "finetune-sft"),
    ("sft.dropout", 1.0, "finetune-sft"),
    ("model.dropout", 1.0, "pretrain"),
    ("model.t_max", 1, "pretrain"),
    ("model.d_model", 4, "pretrain"),  # fewer columns than dimensions
    ("model.n_layers", 0, "pretrain"),
    ("contrastive.tau", 0, "finetune-cl"),
    ("sft.kernel_sizes", [2, 16], "finetune-sft"),  # fits model.t_max 32, not the checkpoint's 16
])
def test_cli_bad_config_value_names_its_key(scoring_run, tmp_path, capsys, key, value, command):
    section, leaf = key.split(".")
    cfgp = write_cfg(tmp_path, {section: value if isinstance(value, dict) else {leaf: value}})
    inputs = ["--data", str(scoring_run["data"]), "--vocab", str(scoring_run["vocab"])]
    if command.startswith("finetune"):
        inputs += ["--checkpoint", str(scoring_run["pre"])]
    out = tmp_path / "out"
    argv = [command, "--config", cfgp, *(inputs if command != "gen-data" else []),
            "--out", str(out)]
    assert run_subcommand(argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_score_rejects_head_with_n_classes(scoring_run, tmp_path, capsys):
    """An sft checkpoint from before the head was fixed at two classes."""
    import shutil
    old = tmp_path / "old-sft.ckpt"
    shutil.copy(scoring_run["sft"], old)
    edit_checkpoint_config(old, lambda config: config["head"].update(n_classes=2))
    out = tmp_path / "s.csv"
    assert run_subcommand(["score", "--checkpoint", str(old),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 1
    assert "n_classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,ckpt", [("score", "sft"), ("embed", "pre")])
def test_cli_out_of_range_token_names_the_line(scoring_run, tmp_path, capsys, command, ckpt):
    records = [dict(r) for r in scoring_run["records"]]
    records[2]["attrs"] = [list(row) for row in records[2]["attrs"]]
    records[2]["attrs"][-1][0] = 99
    data = write_records(tmp_path / "d.jsonl", records)
    out = tmp_path / "out.csv"
    assert run_subcommand([command, "--checkpoint", str(scoring_run[ckpt]),
                           "--data", str(data), "--out", str(out)]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_score_rejects_a_negative_label_naming_the_line(scoring_run, tmp_path, capsys):
    records = [dict(r) for r in scoring_run["records"]]
    records[2].update(label=-1, anomaly_onset=None)
    data = write_records(tmp_path / "d.jsonl", records)
    out = tmp_path / "s.csv"
    assert run_subcommand(["score", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(data), "--out", str(out)]) == 1
    assert "line 3: field 'label'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("user_id", ["a,b", None], ids=["comma", "null"])
def test_cli_score_rejects_an_id_a_csv_cannot_carry(scoring_run, tmp_path, capsys, user_id):
    records = [dict(r) for r in scoring_run["records"]]
    records[1]["user_id"] = user_id
    data = write_records(tmp_path / "d.jsonl", records)
    out = tmp_path / "s.csv"
    assert run_subcommand(["score", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(data), "--out", str(out)]) == 1
    assert "line 2: field 'user_id'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("user_id,value\nu0000000,0.5\n", "line 1: the header needs columns user_id and score"),
    ("user_id,score\nu0000000,0.5\nu0000001,abc\n", "line 3: could not convert"),
    ("user_id,score\nu0000000,0.5\nu0000000,0.7\n", "line 3: user 'u0000000' is scored twice"),
], ids=["no_score_column", "not_a_number", "repeated_user"])
def test_cli_eval_names_the_scores_file_and_line(scoring_run, tmp_path, capsys, text, message):
    scores = tmp_path / "s.csv"
    scores.write_text(text)
    assert run_subcommand(["eval", "--scores", str(scores),
                           "--data", str(scoring_run["data"])]) == 1
    assert f"s.csv: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "embed", "eval"])
def test_cli_repeated_user_names_both_lines(scoring_run, tmp_path, capsys, command):
    records = scoring_run["records"]
    data = write_records(tmp_path / "d.jsonl", records[:3] + [records[1]])
    out = tmp_path / "out.csv"
    if command == "eval":
        scores = tmp_path / "s.csv"
        scores.write_text("user_id,score\n" + "".join(f"{r['user_id']},0.5\n" for r in records[:3]))
        argv = ["eval", "--scores", str(scores), "--data", str(data), "--out", str(out)]
    else:
        ckpt = scoring_run["sft" if command == "score" else "pre"]
        argv = [command, "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert run_subcommand(argv) == 1
    uid = records[1]["user_id"]
    assert f"d.jsonl: lines 2 and 4: user {uid!r} appears twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eval_rejects_scored_users_missing_from_the_data(scoring_run, tmp_path, capsys):
    records = scoring_run["records"]
    scores = tmp_path / "s.csv"
    scores.write_text("user_id,score\n" + "".join(f"{r['user_id']},0.5\n" for r in records))
    data = write_records(tmp_path / "d.jsonl", records[:3])
    assert run_subcommand(["eval", "--scores", str(scores), "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert (f"{len(records) - 3} scored users are not in {data}; the first is "
            f"{records[3]['user_id']!r}") in captured.err
    assert "ROC-AUC" not in captured.out


def write_compact(path, records):
    """``records`` as lines in the compact form that gen-data writes."""
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))
    return path


@pytest.mark.parametrize("write", [write_records, write_compact], ids=["spaced", "compact"])
def test_cli_eval_reads_ids_outside_any_vocab(scoring_run, tmp_path, capsys, write):
    records = [dict(r) for r in scoring_run["records"]]
    records[1]["attrs"] = [[999] * len(row) for row in records[1]["attrs"]]
    records[2]["attrs"] = [[-4, 2 ** 70]]
    scores = tmp_path / "s.csv"
    scores.write_text("user_id,score\n" + "".join(f"{r['user_id']},0.5\n" for r in records))
    data = write(tmp_path / "d.jsonl", records)
    assert run_subcommand(["eval", "--scores", str(scores), "--data", str(data)]) == 0
    assert "ROC-AUC" in capsys.readouterr().out


@pytest.mark.parametrize("write", [write_records, write_compact], ids=["spaced", "compact"])
@pytest.mark.parametrize("edit,message", [
    (lambda r: "{not json", "line 3: invalid JSON"),
    (lambda r: [r], "line 3: a record must be a JSON object"),
    (lambda r: {k: v for k, v in r.items() if k != "label"}, "line 3: missing field 'label'"),
    (lambda r: {k: v for k, v in r.items() if k != "attrs"}, "line 3: missing field 'attrs'"),
    (lambda r: dict(r, label=-1, anomaly_onset=None), "line 3: field 'label'"),
    (lambda r: dict(r, label=True), "line 3: field 'label'"),
    (lambda r: dict(r, user_id="a,b"), "line 3: field 'user_id'"),
    (lambda r: dict(r, user_id=None), "line 3: field 'user_id'"),
], ids=["invalid_json", "not_object", "no_label", "no_attrs", "negative_label", "bool_label",
        "comma_user_id", "null_user_id"])
def test_cli_eval_names_the_line_of_a_bad_record(scoring_run, tmp_path, capsys, write,
                                                 edit, message):
    records = [dict(r) for r in scoring_run["records"]]
    scores = tmp_path / "s.csv"
    scores.write_text("user_id,score\n" + "".join(f"{r['user_id']},0.5\n" for r in records))
    bad = edit(records[2])
    data = write(tmp_path / "d.jsonl", records[:2] + [{} if isinstance(bad, str) else bad]
                 + records[3:])
    if isinstance(bad, str):
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
    out = tmp_path / "report.csv"
    assert run_subcommand(["eval", "--scores", str(scores), "--data", str(data),
                           "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_score_failed_write_leaves_old_file(scoring_run, tmp_path, capsys, monkeypatch):
    from fraudformer import sft
    monkeypatch.setattr(sft, "score_users", lambda *a, **k: [("u1", 0.5), ("u2", "not a score")])
    out = tmp_path / "s.csv"
    out.write_text("old\n")
    assert run_subcommand(["score", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 1
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("workers,want", [(1, [64]), pytest.param(2, [32, 32],
                                                                  marks=needs_two_workers)],
                         ids=["one-worker", "two-workers"])
def test_cli_score_streams_and_fails_on_a_late_malformed_line(scoring_run, tmp_path, capsys,
                                                            monkeypatch, workers, want):
    from fraudformer import sft
    real = sft.batch_class_logits
    forwards = []

    def counted(ids, *args, **kwargs):
        forwards.append(len(ids))
        return real(ids, *args, **kwargs)

    monkeypatch.setattr(sft, "batch_class_logits", counted)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    records = scoring_run["records"]
    # 80 users, one full chunk of 64 and more, then a malformed line 81.
    users = records + [dict(r, user_id=r["user_id"] + "-copy") for r in records]
    data = write_records(tmp_path / "d.jsonl", users)
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    out = tmp_path / "s.csv"
    assert run_subcommand(["score", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(data), "--out", str(out)]) == 1
    assert "line 81" in capsys.readouterr().err
    assert sorted(forwards) == want  # the first 64 users, in one forward or two halves
    assert list(tmp_path.iterdir()) == [data]


# --- score split between two threads ----------------------------------------

def score_with(monkeypatch, capsys, workers, ckpt, data, out):
    """``score`` run with ``workers``: (exit code, stderr). No thread is left
    after it and OpenBLAS's thread count is back where it was."""
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    with no_thread_left():
        rc = run_subcommand(["score", "--checkpoint", str(ckpt), "--data", str(data),
                             "--out", str(out)])
    return rc, capsys.readouterr().err


@needs_two_workers
def test_cli_score_one_and_two_workers_write_the_same_bytes(scoring_run, tmp_path, capsys,
                                                           monkeypatch):
    records = scoring_run["records"]
    short = dict(records[0], user_id="short", attrs=records[0]["attrs"][:5],
                 label=0, anomaly_onset=None)
    copies = [dict(r, user_id=r["user_id"] + "-copy") for r in records[:39]]
    # 79 users the head can read: a chunk of 64 and an odd last chunk of 15.
    data = write_records(tmp_path / "d.jsonl", records[:30] + [short] + records[30:] + copies)
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"s{workers}.csv"
        rc, err = score_with(monkeypatch, capsys, workers, scoring_run["sft"], data, out)
        assert rc == 0 and "skipped short: 5 events" in err
        runs.append((out.read_bytes(), err))
    assert runs[0] == runs[1]
    assert runs[0][0].count(b"\n") == 1 + 79


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_two_workers)],
                         ids=["one-worker", "two-workers"])
def test_cli_score_fails_on_an_error_in_the_second_half(scoring_run, tmp_path, capsys,
                                                         monkeypatch, workers):
    """An exception raised while scoring the second half of a chunk, in the
    helper thread where there are two workers, ends ``score`` with exit 1
    and its message, and no CSV."""
    from fraudformer import sft
    real = sft.batch_class_logits
    raised_in = []

    def fails_on_the_short_window(ids, *args, **kwargs):
        if any(len(w) == 7 for w in ids):
            raised_in.append(threading.current_thread() is threading.main_thread())
            raise RuntimeError("the forward failed")
        return real(ids, *args, **kwargs)

    monkeypatch.setattr(sft, "batch_class_logits", fails_on_the_short_window)
    records = scoring_run["records"]
    odd = dict(records[0], user_id="odd", attrs=records[0]["attrs"][:7], label=0,
               anomaly_onset=None)
    data = write_records(tmp_path / "d.jsonl", records[:30] + [odd] + records[30:])
    out = tmp_path / "s.csv"
    rc, err = score_with(monkeypatch, capsys, workers, scoring_run["sft"], data, out)
    assert rc == 1 and "error: the forward failed" in err
    assert raised_in == [workers == 1]  # user 31 of 41, in shard 1: users 22-41
    assert list(tmp_path.iterdir()) == [data]


def test_cli_embed_csv_round_trips_float32(scoring_run, tmp_path, capsys):
    from fraudformer.checkpoint import load_checkpoint
    from fraudformer.contrastive import embed_batch
    from fraudformer.data import read_jsonl
    out = tmp_path / "e.csv"
    assert run_subcommand(["embed", "--checkpoint", str(scoring_run["pre"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 0
    ckpt = load_checkpoint(scoring_run["pre"])
    users = read_jsonl(scoring_run["data"])
    want = embed_batch([s.ids[-ckpt.model.t_max:] for s in users],
                       ckpt.params, ckpt.model).data
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [s.user_id for s in users]
    got = np.array([r[1:] for r in rows], dtype=np.float64).astype(np.float32)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_cli_embed_text_is_each_value_formatted_alone(scoring_run, tmp_path, capsys,
                                                     monkeypatch):
    """The one row format writes the text of formatting each value alone,
    on float32 edge values, and the text reads back to the same bits."""
    from fraudformer import contrastive
    from fraudformer.numerics.tensor import Tensor
    f32 = np.finfo(np.float32)
    edge = [-0.0, 0.0, f32.smallest_subnormal, -f32.smallest_subnormal, f32.tiny,
            3.4028235e38, -f32.max, 0.1, 1 / 3, 1 + f32.eps, 16777217.0, 1e-5, 123456.789]
    rng = np.random.default_rng(0)
    made = []

    def rows(ids, params, cfg, dropout_rng=None):
        scale = 10.0 ** rng.integers(-8, 8, (len(ids), 1))
        vals = rng.standard_normal((len(ids), cfg.d_model)) * scale
        vals[:, :len(edge)] = edge
        made.append(vals.astype(np.float32))
        return Tensor(made[-1])

    monkeypatch.setattr(contrastive, "embed_batch", rows)
    monkeypatch.setattr(parallel, "workers", lambda: 1)  # `made` sees this process only
    out = tmp_path / "e.csv"
    assert run_subcommand(["embed", "--checkpoint", str(scoring_run["pre"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    made = np.concatenate(made)
    assert len(lines) == len(made) == len(scoring_run["records"])
    for line, want in zip(lines, made):
        text = line.split(",")[1:]
        assert text == [f"{x:.9g}" for x in want.tolist()]
        got = np.array(text, dtype=np.float64).astype(np.float32)
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))  # -0.0 too
    assert text[:3] == ["-0", "0", "1.40129846e-45"] and text[5] == "3.40282347e+38"
    assert text[7:10] == ["0.100000001", "0.333333343", "1.00000012"]  # all 9 digits


def count_embed_batches(monkeypatch, fail_on=None):
    """Wrap ``embed_batch`` to count its calls; raise on call number ``fail_on``."""
    from fraudformer import contrastive
    real = contrastive.embed_batch
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == fail_on:
            raise RuntimeError("embedding failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(contrastive, "embed_batch", counted)
    return calls


def test_cli_embed_failed_write_leaves_no_file(scoring_run, tmp_path, capsys, monkeypatch):
    count_embed_batches(monkeypatch, fail_on=2)
    out = tmp_path / "e.csv"
    assert run_subcommand(["embed", "--checkpoint", str(scoring_run["pre"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 1
    assert "embedding failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_embed_runs_one_forward_per_chunk(scoring_run, tmp_path, capsys, monkeypatch):
    from fraudformer.cli import EMBED_CHUNK
    calls = count_embed_batches(monkeypatch)
    monkeypatch.setattr(parallel, "workers", lambda: 1)  # `calls` sees this process only
    out = tmp_path / "e.csv"
    assert run_subcommand(["embed", "--checkpoint", str(scoring_run["pre"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 0
    n_users = len(scoring_run["records"])
    assert n_users == 40 and EMBED_CHUNK == 16
    assert calls == [16, 16, 8]  # ceil(40 / 16) = 3 forwards
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [r["user_id"] for r in scoring_run["records"]]


# --- embed split between two processes ---------------------------------------

def embed_with(monkeypatch, capsys, workers, ckpt, data, out):
    """``embed`` run on ``workers`` processes: (exit code, stderr)."""
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    rc = run_subcommand(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert_no_child()
    return rc, err


def blocks_corpus(scoring_run, path, n_users=37):
    """``n_users`` users in 3 blocks of 16 lines, the last one partial; some
    shorter than the model's t_max (16), some longer, with blank lines
    between them, which no block counts."""
    records = [dict(r, attrs=r["attrs"][:3 + i % 5], label=0, anomaly_onset=None)
               if i % 4 == 0 else dict(r, attrs=r["attrs"] * 2) if i % 4 == 1 else r
               for i, r in enumerate(scoring_run["records"][:n_users])]
    lines = [json.dumps(r) + "\n" for r in records]
    for at in (30, 17, 5, 0):
        lines.insert(at, "\n" if at % 2 else "   \n")
    path.write_text("".join(lines))
    return path


@needs_two_workers
def test_cli_embed_one_and_two_workers_write_the_same_bytes(scoring_run, tmp_path,
                                                             capsys, monkeypatch):
    data = blocks_corpus(scoring_run, tmp_path / "d.jsonl")
    get_threads, set_threads = parallel._openblas_threads()
    threads = get_threads()
    set_threads(3)
    try:
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"e{workers}.csv"
            assert embed_with(monkeypatch, capsys, workers, scoring_run["pre"], data,
                              out) == (0, "")
            outs.append(out.read_bytes())
        assert get_threads() == 3  # this process's BLAS threads are restored
    finally:
        set_threads(threads)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 37


@needs_two_workers
def test_cli_embed_reads_a_pipe_in_one_process(scoring_run, tmp_path, capsys, monkeypatch):
    """Two processes that each opened a pipe would split its lines between
    their reads, so a pipe is read by the command's process alone: its CSV
    is that of the file read by one worker, and its stderr stays empty."""
    import fraudformer
    data = blocks_corpus(scoring_run, tmp_path / "d.jsonl")
    want = tmp_path / "e1.csv"
    assert embed_with(monkeypatch, capsys, 1, scoring_run["pre"], data, want) == (0, "")
    out = tmp_path / "e2.csv"
    script = ("import sys; from fraudformer import cli, parallel; parallel.workers = lambda: 2; "
              "sys.exit(cli.run_subcommand())")
    env = {**os.environ, "PYTHONPATH": str(Path(fraudformer.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", script, "embed", "--checkpoint",
                            str(scoring_run["pre"]), "--data", "/dev/stdin", "--out", str(out)],
                           input=data.read_bytes(), capture_output=True, env=env, timeout=120)
    assert (child.returncode, child.stderr) == (0, b"")
    assert out.read_bytes() == want.read_bytes()


def _malform(lines, user):
    lines[user] = lines[user][:20] + "\n"


def _repeat(lines, user, of):
    lines[user] = lines[of]


# Line numbers are users' indices + 1: users 0-15 are block 0 (this process),
# 16-31 block 1 (the worker), 32-39 block 2 (this process).
@needs_two_workers
@pytest.mark.parametrize("fault,message", [
    (lambda lines: _malform(lines, 35), "line 36: invalid JSON"),
    (lambda lines: _malform(lines, 20), "line 21: invalid JSON"),
    (lambda lines: (_malform(lines, 35), _malform(lines, 20)), "line 21: invalid JSON"),
    (lambda lines: _repeat(lines, 20, of=3), "lines 4 and 21: user"),
    (lambda lines: _repeat(lines, 36, of=25), "lines 26 and 37: user"),
    (lambda lines: (_repeat(lines, 20, of=3), _malform(lines, 22)), "lines 4 and 21: user"),
    (lambda lines: (_malform(lines, 19), _repeat(lines, 20, of=3)), "line 20: invalid JSON"),
], ids=["malformed_in_parent_block", "malformed_in_worker_block", "first_of_two_malformed",
        "repeat_parent_then_worker", "repeat_worker_then_parent",
        "repeat_before_malformed_in_worker_block", "malformed_before_repeat_in_worker_block"])
def test_cli_embed_fails_alike_on_one_and_two_workers(scoring_run, tmp_path, capsys,
                                                      monkeypatch, fault, message):
    lines = scoring_run["data"].read_text().splitlines(keepends=True)
    fault(lines)
    data = tmp_path / "d.jsonl"
    data.write_text("".join(lines))
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"e{workers}.csv"
        rc, err = embed_with(monkeypatch, capsys, workers, scoring_run["pre"], data, out)
        assert rc == 1 and message in err
        assert list(tmp_path.iterdir()) == [data]
        errors.append(err)
    assert errors[0] == errors[1]


@needs_two_workers
def test_cli_embed_fails_clearly_when_the_worker_dies(scoring_run, tmp_path, capsys,
                                                     monkeypatch):
    from fraudformer import contrastive
    real, parent = contrastive.embed_batch, os.getpid()

    def dies_in_the_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(contrastive, "embed_batch", dies_in_the_worker)
    out = tmp_path / "e.csv"
    rc, err = embed_with(monkeypatch, capsys, 2, scoring_run["pre"], scoring_run["data"], out)
    assert rc == 1
    assert "error: the worker process exited with status 3 before its last block" in err
    assert list(tmp_path.iterdir()) == []


@needs_two_workers
def test_cli_embed_worker_error_comes_back_as_its_text(scoring_run, tmp_path, capsys,
                                                       monkeypatch):
    """A fault outside any block, here reading the file, fails alike too."""
    from fraudformer import data as data_mod
    real, parent = data_mod.numbered_lines, os.getpid()

    def unreadable_in_the_worker(path):
        if os.getpid() != parent:
            raise OSError("disk gone")
        return real(path)

    monkeypatch.setattr(cli, "numbered_lines", unreadable_in_the_worker)
    out = tmp_path / "e.csv"
    rc, err = embed_with(monkeypatch, capsys, 2, scoring_run["pre"], scoring_run["data"], out)
    assert rc == 1 and "error: disk gone" in err
    assert list(tmp_path.iterdir()) == []


@needs_two_workers
@pytest.mark.parametrize("n_users", [100, 600], ids=["one_block", "three_blocks"])
def test_cli_gen_data_one_and_two_workers_write_the_same_bytes(tmp_path, capsys, monkeypatch,
                                                               n_users):
    """Blocks 0 and 2 of 600 users come from this process and block 1 from the
    worker; the corpus is that of one process. 100 users are one block, which
    is never forked."""
    cfgp = write_cfg(tmp_path, {"seed": 4, "data": {"n_users": n_users, "fraud_fraction": 0.2}})
    outs = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        out = tmp_path / f"c{workers}.jsonl"
        assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {n_users} sequences to {out}\n"
        assert_no_child()
        outs.append((out.read_bytes(), (tmp_path / f"c{workers}.jsonl.vocab.json").read_bytes()))
    assert outs[0] == outs[1]
    assert len(outs[0][0].splitlines()) == n_users


@pytest.mark.parametrize("fault,message", [
    (lambda params: params.pop("layer0.ln1.g"), "parameter 'layer0.ln1.g' is missing"),
    (lambda params: params.update({"layer0.attn.wq": Tensor(np.zeros((32, 8), np.float32))}),
     "parameter 'layer0.attn.wq' has shape [32, 8], the config implies [32, 32]"),
], ids=["missing_parameter", "wrong_shape"])
def test_cli_refuses_a_checkpoint_unlike_its_config(scoring_run, tmp_path, capsys,
                                                    fault, message):
    """A checkpoint whose parameters disagree with its own config fails at
    load, naming the parameter, however valid its CRC."""
    from fraudformer.checkpoint import load_checkpoint, save_checkpoint
    loaded = load_checkpoint(scoring_run["sft"])
    fault(loaded.params)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, loaded.params, loaded.model, head=loaded.head, kind=loaded.kind)
    out = tmp_path / "out.csv"
    assert run_subcommand(["score", "--checkpoint", str(bad), "--data",
                           str(scoring_run["data"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,ckpt", [("score", "sft"), ("embed", "pre")])
def test_cli_refuses_a_checkpoint_with_a_nan_parameter(scoring_run, tmp_path, capsys,
                                                       command, ckpt):
    from fraudformer.checkpoint import load_checkpoint, save_checkpoint
    loaded = load_checkpoint(scoring_run[ckpt])
    loaded.params["pos"].data[3, 1] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, loaded.params, loaded.model, head=loaded.head, kind=loaded.kind)
    out = tmp_path / "out.csv"
    assert run_subcommand([command, "--checkpoint", str(bad), "--data",
                           str(scoring_run["data"]), "--out", str(out)]) == 1
    assert f"{bad}: parameter 'pos' holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_data_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    from fraudformer import cli
    real = cli.generate_corpus
    # Two users are written, then the third record fails to serialise.
    monkeypatch.setattr(cli, "generate_corpus", lambda cfg: real(cfg)[:2] + [None])
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "d.jsonl"
    assert run_subcommand(["gen-data", "--config", cfgp, "--out", str(out)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# Run in a fresh interpreter: makes a default-size sft checkpoint and a
# 256-user corpus (4 batches of 64), scores it twice and prints the minor
# page faults each score call took.
SCORE_FAULTS_SCRIPT = r"""
import contextlib, io, json, resource, sys
from pathlib import Path
import numpy as np
from fraudformer.checkpoint import save_checkpoint
from fraudformer.cli import run_subcommand
from fraudformer.config import load_run_config
from fraudformer.data import read_vocab
from fraudformer.model import init_params
from fraudformer.sft import init_head_params

d = Path(sys.argv[1])
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_subcommand([str(a) for a in argv]) == 0, argv
(d / "pop.json").write_text(json.dumps({"seed": 3, "data": {"n_users": 256}}))
run("gen-data", "--config", d / "pop.json", "--out", d / "pop.jsonl")
cfg = load_run_config()
model = cfg.model_config(read_vocab(d / "pop.jsonl.vocab.json"))
head = cfg.head_config()
rng = np.random.default_rng(0)
params = {**init_params(model, rng), **init_head_params(head, model.d_model, rng)}
save_checkpoint(d / "sft.ckpt", params, model, head=head, kind="sft")
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run("score", "--checkpoint", d / "sft.ckpt", "--data", d / "pop.jsonl", "--out", d / "s.csv")
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not keep_freed_heap(), reason="the C library has no mallopt")
def test_cli_score_reuses_freed_heap_across_calls(tmp_path):
    """A second score call reuses the heap the first one freed. Without the
    heap policy glibc trims each batch's temporaries and the next batch
    faults them in again: ~15,000 minor faults per call at 256 users."""
    import fraudformer
    env = {**os.environ, "PYTHONPATH": str(Path(fraudformer.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", SCORE_FAULTS_SCRIPT, str(tmp_path)],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    first, second = json.loads(child.stdout.splitlines()[-1])
    assert len((tmp_path / "s.csv").read_text().splitlines()) > 1 + 3 * 64
    assert second < 1000, f"the score calls took {first} and {second} minor faults"


@pytest.mark.parametrize("command,ckpt,accepted", [
    ("finetune-sft", "sft", "pretrain"),
    ("finetune-cl", "sft", "pretrain"),
    ("score", "pre", "sft"),
], ids=["finetune-sft", "finetune-cl", "score"])
def test_cli_rejects_wrong_checkpoint_kind(scoring_run, tmp_path, capsys,
                                           command, ckpt, accepted):
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(scoring_run[ckpt]),
            "--data", str(scoring_run["data"]), "--out", str(out)]
    if command != "score":
        argv += ["--config", scoring_run["cfg"], "--vocab", str(scoring_run["vocab"])]
    assert run_subcommand(argv) == 1
    assert f"accepts only a '{accepted}' checkpoint" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_embed_accepts_any_checkpoint_kind(scoring_run, tmp_path, capsys):
    # pretrain and contrastive checkpoints are embedded by the tests above.
    out = tmp_path / "e.csv"
    assert run_subcommand(["embed", "--checkpoint", str(scoring_run["sft"]),
                           "--data", str(scoring_run["data"]), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + len(scoring_run["records"])


def test_smoke_skips_users_too_short_for_the_head(tmp_path, capsys):
    from fraudformer.cli import N_EVAL_USERS, pipeline_smoke
    from fraudformer.config import load_run_config
    cfg = load_run_config({
        "data": {"n_users": 2200, "fraud_fraction": 0.3, "t_min": 4, "t_max": 8},
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "t_max": 16},
        "pretrain": {"steps": 2, "batch_size": 8},
        "sft": {"epochs": 1, "batch_size": 8, "filters": 4, "hidden": 8},
    })
    report, _ = pipeline_smoke(cfg, tmp_path)
    captured = capsys.readouterr()
    skipped = [l for l in captured.err.splitlines() if l.startswith("skipped ")]
    assert skipped and all("the anomaly head needs at least 6" in l for l in skipped)
    scored = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    assert 0 < len(scored) < N_EVAL_USERS
    assert 0.0 <= report["auc"] <= 1.0
    stages = report["stage_seconds"]
    assert list(stages) == ["gen-data", "pretrain", "finetune-sft", "score", "eval"]
    assert min(stages.values()) >= 0.0
    assert sum(stages.values()) == pytest.approx(report["elapsed_seconds"])
    assert "stage seconds: gen-data " in captured.out
