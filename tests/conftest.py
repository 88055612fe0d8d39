"""Shared fixtures: tiny models and corpora small enough for fast tests."""

import os

import numpy as np
import pytest

from fraudformer import parallel
from fraudformer.data import (BehaviorSequence, GeneratorConfig, VocabSpec,
                              generate_corpus)
from fraudformer.model import ModelConfig, init_params


TINY_VOCAB = VocabSpec(dims=(("kind", 4), ("level", 5)))

# One line per acceptance criterion, echoed after the terminal summary so the
# verdicts are visible even when pytest captures stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


needs_two_workers = pytest.mark.skipif(
    parallel._openblas_threads() is None or not hasattr(os, "fork"),
    reason="two workers need os.fork and numpy's OpenBLAS thread setter")


def assert_no_child():
    """No child process of this one is left, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tiny_model_config(**overrides) -> ModelConfig:
    kw = dict(cardinalities=(4, 5), d_k=(4, 4), d_model=8, n_layers=1,
              n_heads=2, t_max=12, dropout=0.1)
    kw.update(overrides)
    return ModelConfig(**kw)


def make_sequence(rng: np.random.Generator, vocab: VocabSpec, t_len: int,
                  user_id: str = "u0", label: int = 0, onset=None) -> BehaviorSequence:
    ids = np.array([[int(rng.integers(1, c)) for c in vocab.cardinalities]
                    for _ in range(t_len)], dtype=np.int64)
    return BehaviorSequence(user_id, ids, label, onset)


def assert_same_corpus(a, b):
    """Same users, labels, onsets and token ids, in the same order."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.user_id, x.label, x.anomaly_onset) == (y.user_id, y.label, y.anomaly_onset)
        np.testing.assert_array_equal(x.ids, y.ids)


@pytest.fixture(scope="session")
def tiny_corpus():
    rng = np.random.default_rng(0)
    return [make_sequence(rng, TINY_VOCAB, int(rng.integers(3, 10)), f"u{i:03d}")
            for i in range(24)]


@pytest.fixture(scope="session")
def small_planted_corpus():
    """200 users, heavy fraud fraction, short sequences: SFT toy set."""
    cfg = GeneratorConfig(n_users=200, fraud_fraction=0.3, t_min=16, t_max=16, seed=5)
    return generate_corpus(cfg)


@pytest.fixture()
def tiny_params():
    cfg = tiny_model_config()
    return init_params(cfg, np.random.default_rng(7)), cfg


def f64_params(cfg: ModelConfig, seed: int = 7):
    from fraudformer.numerics.tensor import Tensor
    params = init_params(cfg, np.random.default_rng(seed))
    return {k: Tensor(v.data.astype(np.float64), requires_grad=True)
            for k, v in params.items()}


def edit_checkpoint_config(path, edit) -> None:
    """Rewrite the config JSON of the checkpoint at ``path`` through
    ``edit(config)``, re-sealing its CRC so that only the edit shows."""
    import json
    import struct
    import zlib
    raw = path.read_bytes()
    cfg_len = struct.unpack("<Q", raw[8:16])[0]
    config = json.loads(raw[16:16 + cfg_len])
    edit(config)
    cfg2 = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<Q", len(cfg2)) + cfg2 + raw[16 + cfg_len:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
