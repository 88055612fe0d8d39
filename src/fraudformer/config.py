"""Strict JSON run configuration.

One document drives every pipeline stage; unknown keys are rejected so an
experiment record is exactly what ran. The single global seed fans out to
per-component streams via fixed labels (see rng.child_rng).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .contrastive import ContrastiveConfig
from .data import GeneratorConfig, VocabSpec, default_vocab
from .model import ModelConfig, PretrainConfig
from .sft import AnomalyHeadConfig, SftConfig

__all__ = ["RunConfig", "load_run_config", "DEFAULTS", "ConfigError"]


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "data": {
        "n_users": 1000,
        "n_personas": 4,
        "fraud_fraction": 0.01,
        "class_mix": [0.125] * 8,
        "t_min": 16,
        "t_max": 64,
    },
    "model": {
        "d_model": 64,
        "n_layers": 2,
        "n_heads": 2,
        "t_max": 32,
        "dropout": 0.1,
    },
    "pretrain": {
        "steps": 400,
        "batch_size": 32,
        "lr": 3e-3,
    },
    "sft": {
        "epochs": 3,
        "lr": 1e-3,
        "backbone_lr_mult": 0.1,
        "batch_size": 32,
        "pos_fraction": 0.25,
        "kernel_sizes": [2, 3, 5],
        "filters": 32,
        "hidden": 64,
        "n_classes": 2,
        "dropout": 0.1,
    },
    "contrastive": {
        "tau": 0.05,
        "batch_size": 64,
        "steps": 200,
        "lr": 1e-3,
    },
}


def _fits(default, value) -> bool:
    """Whether JSON ``value`` has the type of ``default``, an int, a float or a
    list of them: a bool is not a number, and an int may stand for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, int)


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            out[key] = _merge(defaults[key], value, path + key + ".")
        elif not _fits(defaults[key], value):
            raise ConfigError(f"config key {path + key!r} must have the JSON type of its "
                              f"default {json.dumps(defaults[key])}, got {json.dumps(value)}")
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    raw: dict

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def generator_config(self) -> GeneratorConfig:
        d = self.raw["data"]
        return GeneratorConfig(
            n_users=d["n_users"], n_personas=d["n_personas"],
            fraud_fraction=d["fraud_fraction"], class_mix=tuple(d["class_mix"]),
            seed=self.seed, t_min=d["t_min"], t_max=d["t_max"],
            vocab=default_vocab())

    def model_config(self, vocab: VocabSpec) -> ModelConfig:
        m = self.raw["model"]
        return ModelConfig.for_vocab(vocab, d_model=m["d_model"],
                                     n_layers=m["n_layers"], n_heads=m["n_heads"],
                                     t_max=m["t_max"], dropout=m["dropout"])

    def pretrain_config(self) -> PretrainConfig:
        p = self.raw["pretrain"]
        return PretrainConfig(steps=p["steps"], batch_size=p["batch_size"],
                              lr=p["lr"], seed=self.seed)

    def head_config(self) -> AnomalyHeadConfig:
        s = self.raw["sft"]
        return AnomalyHeadConfig(kernel_sizes=tuple(s["kernel_sizes"]),
                                 filters=s["filters"], hidden=s["hidden"],
                                 n_classes=s["n_classes"], dropout=s["dropout"])

    def sft_config(self) -> SftConfig:
        s = self.raw["sft"]
        return SftConfig(epochs=s["epochs"], lr=s["lr"],
                         backbone_lr_mult=s["backbone_lr_mult"],
                         batch_size=s["batch_size"], pos_fraction=s["pos_fraction"],
                         seed=self.seed)

    def contrastive_config(self) -> ContrastiveConfig:
        c = self.raw["contrastive"]
        return ContrastiveConfig(tau=c["tau"], batch_size=c["batch_size"],
                                 steps=c["steps"], lr=c["lr"], seed=self.seed)

    def with_seed(self, seed: int) -> "RunConfig":
        raw = copy.deepcopy(self.raw)
        raw["seed"] = int(seed)
        return RunConfig(raw)


def load_run_config(source=None) -> RunConfig:
    """Build a RunConfig from a JSON file path, a dict, or defaults."""
    if source is None:
        given = {}
    elif isinstance(source, dict):
        given = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            given = json.load(fh)
    return RunConfig(_merge(DEFAULTS, given))
