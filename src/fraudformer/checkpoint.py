"""Versioned binary checkpoints.

Layout: magic "FFCK" | u32 version | u64 config-JSON length + bytes |
u64 manifest-JSON length + bytes | little-endian float32 parameter blobs
in manifest order | u32 CRC32 of everything before it.

Each named tensor is stored exactly once; the embedding tables double as
decode matrices structurally, so tying survives a round trip by
construction.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from .config import from_json, to_json
from .model import ModelConfig, param_table
from .numerics import Tensor
from .sft import AnomalyHeadConfig, head_param_table

__all__ = [
    "MAGIC", "VERSION", "KINDS", "Checkpoint", "save_checkpoint", "load_checkpoint",
    "atomic_open", "CheckpointError", "CrcError", "VersionError", "ShapeError",
]

MAGIC = b"FFCK"
VERSION = 1
KINDS = ("pretrain", "sft", "contrastive")


class CheckpointError(ValueError):
    pass


class CrcError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class ShapeError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    params: Dict[str, Tensor]
    model: ModelConfig
    head: Optional[AnomalyHeadConfig]
    kind: str            # one of KINDS
    meta: dict


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """A file written in full or not at all: the block writes ``<path>.tmp``,
    which replaces ``path`` only once the block has ended without error."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(path, params: Dict[str, Tensor], model: ModelConfig,
                    head: Optional[AnomalyHeadConfig] = None,
                    kind: str = "pretrain", meta: Optional[dict] = None) -> None:
    config = {
        "model": to_json(model),
        "head": to_json(head) if head is not None else None,
        "kind": kind,
        "meta": meta or {},
    }
    cfg_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    names = sorted(params)
    manifest = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(params[name].data, dtype="<f4")
        blob = arr.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    man_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([
        MAGIC, struct.pack("<I", VERSION),
        struct.pack("<Q", len(cfg_bytes)), cfg_bytes,
        struct.pack("<Q", len(man_bytes)), man_bytes,
        *blobs,
    ])
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def _config(path, cls, obj: dict):
    """``cls`` from a checkpoint's JSON, which must hold each of its fields and
    nothing else: a missing key must not quietly take its default."""
    names = {f.name for f in fields(cls)}
    if set(obj) != names:
        raise CheckpointError(f"{path}: {cls.__name__} keys unknown {sorted(set(obj) - names)}, "
                              f"missing {sorted(names - set(obj))}; re-run the stage that wrote it")
    return from_json(cls, obj)


def _check_params(path, params: Dict[str, Tensor], model: ModelConfig,
                  head: Optional[AnomalyHeadConfig]) -> None:
    """Raise unless ``params`` has exactly the names and shapes that the
    checkpoint's own model config, and its head config if any, imply."""
    table = {**param_table(model), **(head_param_table(head, model.d_model) if head else {})}
    want = {name: shape for name, (shape, _) in table.items()}
    got = {name: t.data.shape for name, t in params.items()}
    faults = [f"parameter {name!r} is missing" for name in want if name not in got]
    faults += [f"parameter {name!r} is not one of the config's" for name in got if name not in want]
    faults += [f"parameter {name!r} has shape {list(got[name])}, the config implies "
               f"{list(shape)}" for name, shape in want.items() if got.get(name, shape) != shape]
    if faults:
        raise ShapeError(f"{path}: {'; '.join(faults)}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    body, crc_bytes = raw[:-4], raw[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise CrcError(f"{path}: CRC mismatch; file is corrupt")
    version = struct.unpack("<I", body[4:8])[0]
    if version != VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    pos = 8
    cfg_len = struct.unpack("<Q", body[pos:pos + 8])[0]
    pos += 8
    config = json.loads(body[pos:pos + cfg_len].decode("utf-8"))
    pos += cfg_len
    man_len = struct.unpack("<Q", body[pos:pos + 8])[0]
    pos += 8
    manifest = json.loads(body[pos:pos + man_len].decode("utf-8"))
    pos += man_len
    data = body[pos:]
    params: Dict[str, Tensor] = {}
    for i, entry in enumerate(manifest):
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 4 * count
        next_start = manifest[i + 1]["offset"] if i + 1 < len(manifest) else len(data)
        if end > len(data) or end != next_start:
            raise ShapeError(f"{path}: blob for {entry['name']!r} does not match shape {shape}")
        arr = np.frombuffer(data[start:end], dtype="<f4").reshape(shape)
        # Training refuses a non-finite loss, so only a hand-made or damaged
        # file gets here; its NaN would run on into every output.
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {entry['name']!r} holds a non-finite value")
        params[entry["name"]] = Tensor(arr.copy(), requires_grad=True)
    for key in ("model", "head", "kind", "meta"):
        if key not in config:
            raise CheckpointError(f"{path}: the config has no {key!r} key")
    kind, has_head = config["kind"], config["head"] is not None
    if kind not in KINDS:
        raise CheckpointError(f"{path}: 'kind' is {kind!r}, not one of {', '.join(KINDS)}")
    if has_head != (kind == "sft"):
        raise CheckpointError(f"{path}: 'head' is {'set' if has_head else 'null'} on a {kind!r} "
                              "checkpoint; an sft checkpoint has one and no other kind does")
    model = _config(path, ModelConfig, config["model"])
    head = _config(path, AnomalyHeadConfig, config["head"]) if has_head else None
    _check_params(path, params, model, head)
    return Checkpoint(params=params, model=model, head=head,
                      kind=kind, meta=config["meta"])
