"""The three workloads. Each drives the program only through
``fraudformer.cli.run_subcommand``, in-process, as a closed loop: a
subcommand starts when the previous one has returned.

A workload has a ``setup``, repeated in child processes (its median is
``setup_s``), and a ``round`` of timed subcommands, repeated whole until
the timed time reaches ``--seconds``. The first round's artifacts are
checked in full against ``checks``/``reference``, and its operations,
failed ones included, are the run's ``attempted`` and ``failed``; every
later round must reproduce its artifacts byte for byte. Checks run outside
the timed subcommands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
import reference as ref
from checks import CheckError

# The model set-up and the order probe use fixed seeds, so that the probe's
# failure count is the same on every --seed; --seed makes the corpora the
# timed subcommands read.
SETUP_SEED = 0
PROBE_SEED = 1
DATA_T_MIN, DATA_T_MAX = 16, 64      # default generator lengths
EVAL_KS = (0.01, 0.001, 0.0001)     # eval's default --k


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Cli:
    """Runs subcommands, times the timed ones per round and counts operations."""

    def __init__(self, run_subcommand, tracer=None):
        self._run = run_subcommand
        self.tracer = tracer
        self.rounds: List[Dict[str, float]] = []  # per round: subcommand -> timed seconds
        self.work: Dict[str, int] = {}            # subcommand -> sequences it handles per round
        self.attempted = 0
        self.failed = 0

    def __call__(self, *argv, work: Optional[int] = None) -> str:
        """Run one subcommand; ``work`` (sequences) marks it as timed."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        timed = work is not None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if timed and self.tracer is not None:
                self.tracer.recording = True
            t0 = time.perf_counter()
            try:
                rc = self._run(argv)
            finally:
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.recording = False
        if rc != 0:
            raise CheckError(f"`fraudformer {' '.join(argv)}` exited {rc}: {err.getvalue().strip()}")
        if timed:
            self.rounds[-1][argv[0]] = dt
            self.work[argv[0]] = work
        return out.getvalue()

    def start_round(self) -> None:
        self.rounds.append({})

    @property
    def timed_s(self) -> float:
        return sum(sum(r.values()) for r in self.rounds)

    def rate(self, subcommands: Optional[List[str]] = None) -> float:
        """Sequences per second of a round, from each subcommand's median time
        over the rounds, so that one slow stretch of the machine counts once."""
        subs = subcommands or list(self.work)
        done = [r for r in self.rounds if all(s in r for s in subs)]
        seconds = sum(statistics.median(r[s] for r in done) for s in subs)
        return sum(self.work[s] for s in subs) / seconds


class Workload:
    name = ""
    # (stage metric printed for people, subcommands whose time it divides by)
    stages: List[tuple] = []

    def __init__(self, cli: Cli, workdir: Path, seed: int):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.digests: Dict[str, str] = {}

    def setup(self, dest: Path) -> None:
        """Make the inputs of the rounds under ``dest``."""
        raise NotImplementedError

    def attach(self, dest: Path) -> List[Path]:
        """Point the rounds at the inputs under ``dest``; return the artifacts
        that must come out identical on every set-up."""
        raise NotImplementedError

    def round(self, first: bool) -> None:
        raise NotImplementedError

    def _same_as_first(self, first: bool, *paths: Path, text: Optional[Dict[str, str]] = None) -> None:
        current = {p.name: _digest(p) for p in paths}
        current.update({k: hashlib.sha256(v.encode()).hexdigest() for k, v in (text or {}).items()})
        if first:
            self.digests = current
        elif current != self.digests:
            changed = sorted(k for k in current if current[k] != self.digests.get(k))
            raise CheckError(f"round output differs from the first round: {changed}")

    def notes(self) -> List[str]:
        """Lines for people, printed before the result."""
        return []

    def stage_rates(self) -> Dict[str, float]:
        return {metric: self.cli.rate(subs) for metric, subs in self.stages}


class Train(Workload):
    """gen-data -> pretrain -> finetune-sft -> finetune-cl on a fresh corpus
    from the default generator distribution, default model and batch sizes."""

    name = "train"
    N_USERS = 500
    PRETRAIN_STEPS = 10
    FEWSHOT_USERS = 96          # labelled fraud cases, all positive
    SFT_NEGATIVES = 384         # with 8 positives per batch of 32: 16 steps
    SFT_STEPS = math.ceil(SFT_NEGATIVES / 24)
    CL_STEPS = 2
    stages = [("gen_users_per_s", ["gen-data"]), ("pretrain_seqs_per_s", ["pretrain"]),
              ("sft_seqs_per_s", ["finetune-sft"]), ("cl_seqs_per_s", ["finetune-cl"])]

    def setup(self, dest: Path) -> None:
        """The labelled SFT set: a few-shot pool of fraud cases and normal users."""
        dest.mkdir(parents=True)
        parts = []
        for name, n, fraction in (("fewshot", self.FEWSHOT_USERS, 1.0),
                                  ("negatives", self.SFT_NEGATIVES, 0.0)):
            cfg = _write_json(dest / f"{name}.json", {
                "seed": self.seed, "data": {"n_users": n, "fraud_fraction": fraction}})
            self.cli("gen-data", "--config", cfg, "--out", dest / f"{name}.jsonl")
            parts.append((dest / f"{name}.jsonl").read_text(encoding="utf-8"))
        (dest / "sft.jsonl").write_text("".join(parts), encoding="utf-8")
        _write_json(dest / "train.json", {
            "seed": self.seed, "data": {"n_users": self.N_USERS},
            "pretrain": {"steps": self.PRETRAIN_STEPS}, "sft": {"epochs": 1},
            "contrastive": {"steps": self.CL_STEPS}})

    def attach(self, dest: Path) -> List[Path]:
        self.sft_data, self.config = dest / "sft.jsonl", dest / "train.json"
        return [self.sft_data, self.config]

    def round(self, first: bool) -> None:
        d = self.workdir / "round"
        d.mkdir(exist_ok=True)
        corpus, vocab = d / "corpus.jsonl", d / "corpus.jsonl.vocab.json"
        cli = self.cli
        cli("gen-data", "--config", self.config, "--out", corpus, work=self.N_USERS)
        common = ["--config", self.config, "--vocab", vocab]
        cli("pretrain", *common, "--data", corpus, "--out", d / "pre.ckpt",
            work=32 * self.PRETRAIN_STEPS)
        cli("finetune-sft", *common, "--data", self.sft_data, "--checkpoint", d / "pre.ckpt",
            "--out", d / "sft.ckpt", work=32 * self.SFT_STEPS)
        cli("finetune-cl", *common, "--data", corpus, "--checkpoint", d / "pre.ckpt",
            "--out", d / "cl.ckpt", work=64 * self.CL_STEPS)
        outputs = [corpus, vocab, d / "pre.ckpt", d / "pre.ckpt.loss.csv",
                   d / "sft.ckpt", d / "sft.ckpt.metrics.csv", d / "cl.ckpt", d / "cl.ckpt.loss.csv"]
        if first:
            cli.attempted += self.N_USERS + self.PRETRAIN_STEPS + self.SFT_STEPS + self.CL_STEPS
            self._check(d, corpus, vocab)
        self._same_as_first(first, *outputs)

    def _check(self, d: Path, corpus: Path, vocab: Path) -> None:
        cards = checks.read_cardinalities(vocab)
        users = checks.read_corpus(corpus)
        checks.check_corpus(users, self.N_USERS, DATA_T_MIN, DATA_T_MAX, cards, corpus)
        # The two parts share user ids (u0000000, ...); finetune-sft reads labels only.
        for part, n, fraud in (("fewshot", self.FEWSHOT_USERS, True),
                               ("negatives", self.SFT_NEGATIVES, False)):
            path = self.sft_data.with_name(f"{part}.jsonl")
            users = checks.read_corpus(path)
            checks.check_corpus(users, n, DATA_T_MIN, DATA_T_MAX, cards, path)
            if any((u.label != 0) != fraud for u in users):
                raise CheckError(f"{path}: expected only {'fraud' if fraud else 'normal'} users")
        for name, kind in (("pre.ckpt", "pretrain"), ("sft.ckpt", "sft"), ("cl.ckpt", "contrastive")):
            ckpt = ref.read_checkpoint(d / name)
            ref.check_backbone(ckpt, d / name, kind)
            if list(ckpt.model["cardinalities"]) != cards:
                raise CheckError(f"{d / name}: cardinalities differ from the vocab sidecar")
        checks.check_first_loss(d / "pre.ckpt.loss.csv", self.PRETRAIN_STEPS, cards)
        checks.read_curve(d / "cl.ckpt.loss.csv", self.CL_STEPS)
        with open(d / "sft.ckpt.metrics.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != 1 or not all(math.isfinite(float(x)) for x in rows[0].split(",")):
            raise CheckError(f"{d / 'sft.ckpt.metrics.csv'}: expected one finite epoch row")


def _model_setup(cli: Cli, dest: Path, extra: dict, tune: str) -> Path:
    """A small fixed-seed model: gen-data -> pretrain -> ``tune``; returns its checkpoint."""
    cfg = _write_json(dest / "setup.json", {
        "seed": SETUP_SEED, "data": {"n_users": 160, "fraud_fraction": 0.3, "t_max": 32},
        "pretrain": {"steps": 40, "batch_size": 8}, **extra})
    data = dest / "setup.jsonl"
    cli("gen-data", "--config", cfg, "--out", data)
    common = ["--config", cfg, "--data", data, "--vocab", str(data) + ".vocab.json"]
    cli("pretrain", *common, "--out", dest / "setup-pre.ckpt")
    out = dest / "model.ckpt"
    cli(tune, *common, "--checkpoint", dest / "setup-pre.ckpt", "--out", out)
    return out


class Score(Workload):
    """score, then eval, of a held-out population with an SFT checkpoint."""

    name = "score"
    N_USERS = 400
    FRAUD_FRACTION = 0.05        # ~20 positives, so eval's recall and AUC are defined
    PROBE_USERS = 64
    REFERENCE_USERS = 8
    AUC_FLOOR = 0.75            # 20 seeds gave 0.87 to 0.99; chance is 0.5
    stages = [("score_users_per_s", ["score", "eval"])]

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        ckpt = _model_setup(self.cli, dest, {"sft": {"epochs": 2, "batch_size": 8}}, "finetune-sft")
        self.cli("gen-data", "--out", dest / "population.jsonl", "--config", _write_json(
            dest / "population.json", {"seed": self.seed, "data": {
                "n_users": self.N_USERS, "fraud_fraction": self.FRAUD_FRACTION}}))
        probe = dest / "probe.jsonl"
        self.cli("gen-data", "--out", probe, "--config", _write_json(
            dest / "probe.json", {"seed": PROBE_SEED, "data": {"n_users": self.PROBE_USERS}}))
        (dest / "probe-reversed.jsonl").write_text(
            "".join(reversed(probe.read_text(encoding="utf-8").splitlines(keepends=True))),
            encoding="utf-8")
        self.cli("score", "--checkpoint", ckpt, "--data", probe, "--out", dest / "probe-scores.csv")

    def attach(self, dest: Path) -> List[Path]:
        self.ckpt, self.population = dest / "model.ckpt", dest / "population.jsonl"
        self.probe_reversed, self.probe_scores = dest / "probe-reversed.jsonl", dest / "probe-scores.csv"
        self.probe_users = checks.read_corpus(dest / "probe.jsonl")
        self.t_max = ref.read_checkpoint(self.ckpt).model["t_max"]
        return [self.ckpt, self.population, self.probe_scores]

    def round(self, first: bool) -> None:
        d = self.workdir / "round"
        d.mkdir(exist_ok=True)
        scores, report = d / "scores.csv", d / "report.csv"
        self.cli("score", "--checkpoint", self.ckpt, "--data", self.population,
                 "--out", scores, work=self.N_USERS)
        printed = self.cli("eval", "--scores", scores, "--data", self.population,
                           "--out", report, work=0)
        if first:
            self._check(scores, report, printed)
            self._order_probe(d / "probe-reversed.csv")
        self._same_as_first(first, scores, report, text={"eval stdout": printed})

    def _check(self, scores: Path, report: Path, printed: str) -> None:
        ckpt = ref.read_checkpoint(self.ckpt)
        ref.check_backbone(ckpt, self.ckpt, "sft")
        users = checks.read_corpus(self.population)
        checks.check_corpus(users, self.N_USERS, DATA_T_MIN, DATA_T_MAX,
                            ckpt.model["cardinalities"], self.population)
        # Only users that fit t_max are scored on their whole sequence.
        sample = [u for u in users if u.ids.shape[0] <= ckpt.model["t_max"]][:self.REFERENCE_USERS]
        got = checks.check_scores(scores, users, ckpt, sample)
        checks.check_eval(printed, report, got, users, EVAL_KS, self.AUC_FLOOR)

    def notes(self) -> List[str]:
        changed, long = getattr(self, "probe_changes", (0, 0))
        return [f"order probe: {changed} of {self.PROBE_USERS} users changed score, "
                f"{long} of them longer than t_max"]

    def _order_probe(self, out: Path) -> None:
        """Known fault: a user's score depends on corpus order. score_users
        keys each window's RNG by the batch's start offset, so users longer
        than t_max get another window; the others move in the last float32
        bits with their batch neighbours. Each probe user whose score moves
        is a failed operation. It runs once, in the first round, which also
        counts the round's operations: later rounds repeat them exactly."""
        self.cli("score", "--checkpoint", self.ckpt, "--data", self.probe_reversed, "--out", out)
        before, after = checks.read_scores(self.probe_scores), checks.read_scores(out)
        changed = [u for u in self.probe_users if before[u.user_id] != after[u.user_id]]
        self.cli.attempted += self.N_USERS + self.PROBE_USERS
        self.cli.failed += len(changed)
        self.probe_changes = (len(changed), sum(u.ids.shape[0] > self.t_max for u in changed))


class Embed(Workload):
    """embed of a population with a contrastive checkpoint: one forward pass
    per user at batch size 1."""

    name = "embed"
    N_USERS = 1500
    SUBSET_USERS = 64
    REFERENCE_USERS = 8
    stages = [("embed_users_per_s", ["embed"])]

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        _model_setup(self.cli, dest, {"contrastive": {"steps": 2, "batch_size": 8}}, "finetune-cl")
        population = dest / "population.jsonl"
        self.cli("gen-data", "--out", population, "--config", _write_json(
            dest / "population.json", {"seed": self.seed, "data": {"n_users": self.N_USERS}}))
        lines = population.read_text(encoding="utf-8").splitlines(keepends=True)
        picks = np.random.default_rng(self.seed).permutation(len(lines))[:self.SUBSET_USERS]
        (dest / "subset.jsonl").write_text("".join(lines[i] for i in picks), encoding="utf-8")

    def attach(self, dest: Path) -> List[Path]:
        self.ckpt, self.population = dest / "model.ckpt", dest / "population.jsonl"
        self.subset = dest / "subset.jsonl"
        return [self.ckpt, self.population, self.subset]

    def round(self, first: bool) -> None:
        d = self.workdir / "round"
        d.mkdir(exist_ok=True)
        emb = d / "embeddings.csv"
        self.cli("embed", "--checkpoint", self.ckpt, "--data", self.population,
                 "--out", emb, work=self.N_USERS)
        self._same_as_first(first, emb)
        if first:
            self._check(emb)
            self._order_check(emb, d / "subset-embeddings.csv")

    def _order_check(self, emb: Path, sub: Path) -> None:
        """The embeddings of a shuffled subset must equal the full run's rows
        bit for bit; each user that differs is a failed operation. Like the
        score probe, it runs in the first round only."""
        self.cli("embed", "--checkpoint", self.ckpt, "--data", self.subset, "--out", sub)
        full, part = checks.read_embeddings(emb, self.d_model), checks.read_embeddings(sub, self.d_model)
        self.cli.attempted += self.N_USERS + self.SUBSET_USERS
        self.cli.failed += sum(not np.array_equal(v, full[uid]) for uid, v in part.items())

    def _check(self, emb: Path) -> None:
        ckpt = ref.read_checkpoint(self.ckpt)
        ref.check_backbone(ckpt, self.ckpt, "contrastive")
        self.d_model = ckpt.model["d_model"]
        users = checks.read_corpus(self.population)
        checks.check_corpus(users, self.N_USERS, DATA_T_MIN, DATA_T_MAX,
                            ckpt.model["cardinalities"], self.population)
        # Half the sample fits t_max, half is cut to its last t_max events.
        t_max = ckpt.model["t_max"]
        half = self.REFERENCE_USERS // 2
        sample = ([u for u in users if u.ids.shape[0] <= t_max][:half]
                  + [u for u in users if u.ids.shape[0] > t_max][:half])
        checks.check_embeddings(emb, users, ckpt, sample)


WORKLOADS = {w.name: w for w in (Train, Score, Embed)}


def timed_setup(name: str, seed: int, dest: Path) -> float:
    """Run a workload's set-up in a child process, wait for it to end, and
    return the set-up's duration as the child measured it (without
    interpreter start-up).

    The rounds run in this process afterwards, so its peak RSS is theirs
    and not the set-up's model training."""
    try:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), name, str(seed), str(dest)],
                               capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
        raise CheckError("set-up process gave no result in 150 s") from None
    if child.returncode != 0:
        raise CheckError(f"set-up failed: {child.stderr.strip()[-2000:]}")
    return float(child.stdout.split()[-1])


if __name__ == "__main__":
    # The set-up child: workloads.py WORKLOAD SEED DEST; prints its duration.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fraudformer.cli import run_subcommand

    name, seed, dest = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name](Cli(run_subcommand), dest.parent, seed)
    t0 = time.perf_counter()
    workload.setup(dest)
    print(time.perf_counter() - t0)
