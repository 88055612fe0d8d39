"""Deterministic seed fan-out.

One global seed, spread to per-component streams via fixed string labels
so every stage is reproducible from (config, seed) alone.
"""

from __future__ import annotations

import zlib
from typing import Iterator, List

import numpy as np

__all__ = ["child_rng", "child_seed", "shuffled_batches"]


def child_seed(seed: int, label: str, *indices: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8")), *indices])


def child_rng(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, label[, index...])."""
    return np.random.default_rng(child_seed(seed, label, *indices))


def shuffled_batches(n: int, batch_size: int, steps: int, seed: int,
                     label: str) -> Iterator[List[int]]:
    """``steps`` batches of indices into ``range(n)``, taken in turn from one
    permutation per epoch, ``child_rng(seed, label, epoch)``; a batch that
    reaches the end of an epoch continues into the next one."""
    if n < 1:
        raise ValueError("cannot draw batches from an empty corpus")
    order: List[int] = []
    epoch = 0
    for _ in range(steps):
        while len(order) < batch_size:
            order.extend(int(i) for i in child_rng(seed, label, epoch).permutation(n))
            epoch += 1
        batch, order = order[:batch_size], order[batch_size:]
        yield batch
