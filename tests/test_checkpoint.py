"""Binary checkpoint format: round trips, corruption detection, tying."""

import errno
import struct

import numpy as np
import pytest

from fraudformer import checkpoint
from fraudformer.checkpoint import (MAGIC, VERSION, CheckpointError, CrcError,
                                    ShapeError, VersionError, load_checkpoint,
                                    save_checkpoint)
from fraudformer.model import (causal_forward, encode_batch, init_params,
                               reconstruct_logits)
from fraudformer.numerics.optim import Adam
from fraudformer.sft import AnomalyHeadConfig, init_head_params
from tests.conftest import edit_checkpoint_config, tiny_model_config


def make_ckpt(tmp_path, seed=0, **save_kw):
    cfg = tiny_model_config()
    params = init_params(cfg, np.random.default_rng(seed))
    if save_kw.get("head"):  # an sft checkpoint holds the head its config implies
        params.update(init_head_params(save_kw["head"], cfg.d_model, np.random.default_rng(seed)))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, **save_kw)
    return path, params, cfg


def test_round_trip_bitwise_equal(tmp_path):
    path, params, cfg = make_ckpt(tmp_path)
    ck = load_checkpoint(path)
    assert ck.model == cfg
    assert sorted(ck.params) == sorted(params)
    for k in params:
        np.testing.assert_array_equal(ck.params[k].data, params[k].data)
        assert ck.params[k].requires_grad


def test_save_is_deterministic(tmp_path):
    cfg = tiny_model_config()
    params = init_params(cfg, np.random.default_rng(1))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params, cfg)
    save_checkpoint(b, params, cfg)
    assert a.read_bytes() == b.read_bytes()


def test_failed_save_leaves_old_checkpoint(tmp_path, monkeypatch):
    path, params, cfg = make_ckpt(tmp_path, seed=0)
    old = path.read_bytes()

    class DiskFull:
        """A file that takes half of the first write and then runs out of space."""
        def __init__(self, fh):
            self.fh = fh
        def __enter__(self):
            return self
        def __exit__(self, *exc):
            self.fh.close()
        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                        raising=False)
    new_params = init_params(cfg, np.random.default_rng(1))
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, new_params, cfg)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    for k in params:
        np.testing.assert_array_equal(load_checkpoint(path).params[k].data, params[k].data)


def test_head_config_and_meta_survive(tmp_path):
    head = AnomalyHeadConfig(filters=4, hidden=8)
    path, _, _ = make_ckpt(tmp_path, head=head, kind="sft", meta={"step": 7})
    ck = load_checkpoint(path)
    assert ck.head == head and ck.kind == "sft" and ck.meta == {"step": 7}


@pytest.mark.parametrize("section,edit,key", [
    ("head", lambda c: c.update(n_classes=2), "n_classes"),
    ("model", lambda c: c.update(vocab_size=9), "vocab_size"),
    ("model", lambda c: c.pop("t_max"), "t_max"),
], ids=["head-unknown", "model-unknown", "model-missing"])
def test_config_key_mismatch_names_the_key(tmp_path, section, edit, key):
    """A config key this version does not read, or one it lacks, fails the
    load: a missing key must not quietly take its default."""
    path, _, _ = make_ckpt(tmp_path, head=AnomalyHeadConfig(filters=4, hidden=8), kind="sft")
    edit_checkpoint_config(path, lambda config: edit(config[section]))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


def test_flipped_payload_byte_raises_crc_error(tmp_path):
    path, _, _ = make_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CrcError):
        load_checkpoint(path)


def test_bad_magic_raises(tmp_path):
    path, _, _ = make_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_wrong_version_raises(tmp_path):
    path, _, _ = make_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", VERSION + 1)
    # Re-seal the CRC so only the version check fires.
    import zlib
    body = bytes(raw[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_shape_mismatch_raises(tmp_path):
    path, _, _ = make_ckpt(tmp_path)
    raw = path.read_bytes()
    # Grow one manifest shape without growing its blob.
    import json, zlib
    pos = 8
    cfg_len = struct.unpack("<Q", raw[pos:pos + 8])[0]
    pos += 8 + cfg_len
    man_len = struct.unpack("<Q", raw[pos:pos + 8])[0]
    manifest = json.loads(raw[pos + 8:pos + 8 + man_len])
    manifest[0]["shape"][0] += 1
    man2 = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:pos] + struct.pack("<Q", len(man2)) + man2 + raw[pos + 8 + man_len:-4]
    (tmp_path / "m.ckpt").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ShapeError):
        load_checkpoint(tmp_path / "m.ckpt")


def test_tying_preserved_after_reload(tmp_path):
    path, _, cfg = make_ckpt(tmp_path, seed=3)
    ck = load_checkpoint(path)
    params = ck.params
    ids = np.array([[1, 2], [3, 1]])
    h = causal_forward(encode_batch([ids], params, cfg).x, params, cfg)
    before = reconstruct_logits(h, params, cfg)[0].data.copy()
    opt = Adam(params, lr=0.05)
    params["embed.0"].grad = np.ones_like(params["embed.0"].data)
    opt.step()
    h2 = causal_forward(encode_batch([ids], params, cfg).x, params, cfg)
    after = reconstruct_logits(h2, params, cfg)[0].data
    assert not np.allclose(before, after)  # one table drives both paths
