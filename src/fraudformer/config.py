"""Strict JSON run configuration.

One document drives every pipeline stage; unknown keys are rejected so an
experiment record is exactly what ran. The single global seed fans out to
per-component streams via fixed labels (see rng.child_rng).

Each setting's default is declared once, on its config dataclass's field:
``DEFAULTS`` is read off those fields, and a section is built as
``cls(**section)``. Loading builds every section, so a bad value fails,
naming its key, before any stage reads a file.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import MISSING, dataclass, fields

from .contrastive import ContrastiveConfig
from .data import GeneratorConfig, VocabSpec, default_vocab
from .model import ModelConfig, PretrainConfig
from .sft import AnomalyHeadConfig, SftConfig

__all__ = ["RunConfig", "load_run_config", "DEFAULTS", "ConfigError", "to_json", "from_json"]


class ConfigError(ValueError):
    pass


# A section's settings are the defaulted fields of its classes, less the
# seed: that is one top-level setting, shared by every stage.
SECTIONS = {
    "data": (GeneratorConfig,),
    "model": (ModelConfig,),
    "pretrain": (PretrainConfig,),
    "sft": (SftConfig, AnomalyHeadConfig),
    "contrastive": (ContrastiveConfig,),
}


def _json(value):
    return list(value) if isinstance(value, tuple) else value


def to_json(cfg) -> dict:
    """A config dataclass's fields as a JSON object, tuples as lists."""
    return {f.name: _json(getattr(cfg, f.name)) for f in fields(cfg)}


def from_json(make, obj: dict, **fixed):
    """``make(**obj, **fixed)``, with the JSON object's lists as tuples."""
    return make(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}, **fixed)


DEFAULTS = {
    "seed": GeneratorConfig.seed,
    **{name: {f.name: _json(f.default) for cls in classes for f in fields(cls)
              if f.default is not MISSING and f.name != "seed"}
       for name, classes in SECTIONS.items()},
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


@dataclass(frozen=True)
class RunConfig:
    """A merged config document. Making one builds every section once, so a
    bad value fails here as a ConfigError that names its key."""

    raw: dict

    def __post_init__(self):
        try:
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
            self.generator_config()
            self.pretrain_config()
            self.sft_config()
            self.contrastive_config()
            t_max = self.model_config(default_vocab()).t_max
            self.head_config().check_window(t_max, "model.t_max")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def _build(self, section: str, cls, make=None, **fixed):
        """``cls``, made by ``make`` from ``fixed`` and its fields' keys in the section."""
        names = {f.name for f in fields(cls)}
        return from_json(make or cls, {k: v for k, v in self.raw[section].items()
                                       if k in names}, **fixed)

    def generator_config(self) -> GeneratorConfig:
        return self._build("data", GeneratorConfig, seed=self.seed)

    def model_config(self, vocab: VocabSpec) -> ModelConfig:
        return self._build("model", ModelConfig, functools.partial(ModelConfig.for_vocab, vocab))

    def pretrain_config(self) -> PretrainConfig:
        return self._build("pretrain", PretrainConfig, seed=self.seed)

    def head_config(self) -> AnomalyHeadConfig:
        return self._build("sft", AnomalyHeadConfig)

    def sft_config(self) -> SftConfig:
        return self._build("sft", SftConfig, seed=self.seed)

    def contrastive_config(self) -> ContrastiveConfig:
        return self._build("contrastive", ContrastiveConfig, seed=self.seed)

    def with_seed(self, seed: int) -> "RunConfig":
        return RunConfig({**self.raw, "seed": int(seed)})


def load_run_config(source=None) -> RunConfig:
    """Build a RunConfig from a JSON file path, a dict, or defaults."""
    if source is None:
        given = {}
    elif isinstance(source, dict):
        given = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ConfigError(f"{source}: a run config must be a JSON object")
    return RunConfig(_merge(DEFAULTS, given))
