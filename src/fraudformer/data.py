"""Multivariate behavior-sequence data model and synthetic corpus generator.

A user's events are one [T, D] array of discrete attribute token ids, one
row per event. Token id 0 is reserved as PAD in every dimension and never
appears in real events.
Sequences carry an optional fraud class label (0 = normal, 1..8 = planted
fraud archetypes) and, for synthetic data, the onset index where the
fraud regime begins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .rng import child_rng

__all__ = [
    "PAD_ID", "FRAUD_CLASS_NAMES", "VocabSpec", "BehaviorSequence",
    "GeneratorConfig", "default_vocab",
    "bucketize_amount", "window_sample", "generate_corpus", "ids_array",
    "iter_jsonl", "read_jsonl", "write_jsonl", "read_vocab", "write_vocab", "SchemaError",
]

PAD_ID = 0

# Class 0 is normal; 1..8 are the planted fraud regimes of the generator.
FRAUD_CLASS_NAMES = (
    "normal", "amount_spike", "burst_rate", "channel_shift",
    "merchant_roulette", "night_activity", "region_hop", "device_swap",
    "mixed_regime",
)


class SchemaError(ValueError):
    """Corpus file violates the JSONL schema; message carries the line number."""


@dataclass(frozen=True)
class VocabSpec:
    """Per-dimension attribute vocabularies. Cardinalities include PAD."""

    dims: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.dims]
        if len(set(names)) != len(names):
            raise ValueError("dimension names must be unique")
        for name, card in self.dims:
            if card < 2:
                raise ValueError(f"dimension {name!r} needs cardinality >= 2, got {card}")

    @property
    def D(self) -> int:
        return len(self.dims)

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return tuple(c for _, c in self.dims)

    def index_of(self, name: str) -> Optional[int]:
        for i, (n, _) in enumerate(self.dims):
            if n == name:
                return i
        return None

    def to_json(self) -> dict:
        return {"dims": [{"name": n, "cardinality": c} for n, c in self.dims]}

    @classmethod
    def from_json(cls, obj: dict) -> "VocabSpec":
        return cls(tuple((d["name"], int(d["cardinality"])) for d in obj["dims"]))


def default_vocab() -> VocabSpec:
    """The 9-feature default schema (cardinalities include PAD id 0)."""
    return VocabSpec((
        ("amount_bucket", 16),
        ("hour_of_day", 25),
        ("day_of_week", 8),
        ("channel", 9),
        ("merchant_category", 33),
        ("device_type", 9),
        ("time_gap_bucket", 17),
        ("region", 17),
        ("action_type", 9),
    ))


@dataclass(eq=False)
class BehaviorSequence:
    """One user's events as token ids [T, D], with optional class label and onset.

    ``ids`` is kept as a read-only int64 array; slicing it gives views, so
    windows share the user's memory. Sequences compare by identity: compare
    their ``ids`` with ``np.array_equal``.
    """

    user_id: str
    ids: np.ndarray
    label: int = 0
    anomaly_onset: Optional[int] = None

    def __post_init__(self):
        ids = self.ids
        if not (isinstance(ids, np.ndarray) and ids.ndim == 2
                and np.issubdtype(ids.dtype, np.integer)):
            raise ValueError(f"sequence {self.user_id!r} needs a 2-D integer ids array")
        if ids.shape[0] == 0:
            raise ValueError(f"sequence {self.user_id!r} has no events")
        if ids.shape[0] > 4096:
            raise ValueError(f"sequence {self.user_id!r} exceeds 4096 events")
        if self.anomaly_onset is not None:
            if not 0 <= self.anomaly_onset < ids.shape[0]:
                raise ValueError(f"anomaly_onset {self.anomaly_onset} outside sequence")
            if self.label == 0:
                raise ValueError("anomaly_onset requires a nonzero label")
        # A view, so that the caller's own array stays writeable.
        self.ids = ids.astype(np.int64, copy=False).view()
        self.ids.flags.writeable = False

    def __len__(self) -> int:
        return self.ids.shape[0]


def ids_array(seq: BehaviorSequence) -> np.ndarray:
    """Token ids of shape [T, D]: the sequence's own read-only array, not a copy."""
    return seq.ids


def bucketize_amount(amount: float, buckets: int = 16) -> int:
    """Map a nonnegative amount to a log2 bucket token; never PAD.

    token = 1 + min(floor(log2(1 + amount)), buckets - 2). Monotone
    non-decreasing in the amount.
    """
    if amount < 0:
        raise ValueError(f"amount must be nonnegative, got {amount}")
    if buckets < 3:
        raise ValueError(f"need at least 3 buckets, got {buckets}")
    return 1 + min(int(math.floor(math.log2(1.0 + amount))), buckets - 2)


def window_sample(seq: BehaviorSequence, window: int, rng: np.random.Generator) -> BehaviorSequence:
    """Uniformly sample a contiguous window of length min(window, len).

    The window carries the user's id and events only: no label or onset.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(seq)
    if window >= n:
        start, stop = 0, n
    else:
        start = int(rng.integers(0, n - window + 1))
        stop = start + window
    return BehaviorSequence(seq.user_id, seq.ids[start:stop])


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic payment-behavior corpus."""

    n_users: int = 1000
    n_personas: int = 4
    fraud_fraction: float = 0.01
    class_mix: Tuple[float, ...] = (0.125,) * 8
    seed: int = 0
    t_min: int = 16
    t_max: int = 64
    vocab: VocabSpec = field(default_factory=default_vocab)

    def __post_init__(self):
        if abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ValueError("class_mix probabilities must sum to 1")
        if not 0.0 <= self.fraud_fraction <= 1.0:
            raise ValueError("fraud_fraction must be in [0, 1]")
        if len(self.class_mix) != len(FRAUD_CLASS_NAMES) - 1:
            raise ValueError(f"class_mix needs {len(FRAUD_CLASS_NAMES) - 1} entries")
        if self.t_min < 1 or self.t_max < self.t_min:
            raise ValueError("need 1 <= t_min <= t_max")


class _Personas:
    """Per-persona Markov transition tables and amount scales.

    Normal behavior stays inside a per-dimension token band; the top token
    of every non-amount dimension (and the night band of hour_of_day) is
    reserved for the planted fraud regimes, so anomalies are rare events a
    sequence model can actually pick up at desk scale.
    """

    def __init__(self, cfg: GeneratorConfig):
        rng = child_rng(cfg.seed, "gen-personas")
        vocab = cfg.vocab
        self.amount_dim = vocab.index_of("amount_bucket")
        hour_dim = vocab.index_of("hour_of_day")
        self.offsets: list[int] = []
        self.supports: list[int] = []
        for d, (_, card) in enumerate(vocab.dims):
            if d == hour_dim and card >= 10:
                offset = 5  # tokens 1..4 = night hours, fraud-only
            else:
                offset = 1
            self.offsets.append(offset)
            self.supports.append(max(1, card - 1 - offset))  # excludes top token
        self.init_cum: list[list[Optional[np.ndarray]]] = []
        self.trans_cum: list[list[Optional[np.ndarray]]] = []
        self.log_mu: list[float] = []
        for _ in range(cfg.n_personas):
            inits, trans = [], []
            for d in range(vocab.D):
                if d == self.amount_dim:
                    inits.append(None)
                    trans.append(None)
                    continue
                k = self.supports[d]
                inits.append(np.cumsum(rng.dirichlet(np.full(k, 0.4))))
                rows = rng.dirichlet(np.full(k, 0.3), size=k)
                trans.append(np.cumsum(rows, axis=1))
            self.init_cum.append(inits)
            self.trans_cum.append(trans)
            self.log_mu.append(float(rng.uniform(2.0, 6.0)))


def _draw(cum: np.ndarray, u: float, offset: int) -> int:
    return offset + min(int(cum.searchsorted(u, side="right")), len(cum) - 1)


def _generate_user(cfg: GeneratorConfig, personas: _Personas, user_index: int) -> BehaviorSequence:
    rng = child_rng(cfg.seed, "gen-user", user_index)
    vocab = cfg.vocab
    persona = int(rng.integers(cfg.n_personas))
    t_len = int(rng.integers(cfg.t_min, cfg.t_max + 1))
    label, onset = 0, None
    if rng.random() < cfg.fraud_fraction:
        label = 1 + int(rng.choice(len(cfg.class_mix), p=np.asarray(cfg.class_mix)))
        onset = int(rng.integers(max(1, t_len // 4), 3 * t_len // 4 + 1))

    amt_d = personas.amount_dim
    hour_d = vocab.index_of("hour_of_day")
    chan_d = vocab.index_of("channel")
    merch_d = vocab.index_of("merchant_category")
    dev_d = vocab.index_of("device_type")
    gap_d = vocab.index_of("time_gap_bucket")
    reg_d = vocab.index_of("region")
    cards = vocab.cardinalities

    uniforms = rng.random((t_len, vocab.D))
    ids = np.zeros((t_len, vocab.D), dtype=np.int64)
    for t in range(t_len):
        attrs = ids[t]
        for d in range(vocab.D):
            if d == amt_d:
                continue
            cum = (personas.init_cum if t == 0 else personas.trans_cum)[persona][d]
            off = personas.offsets[d]
            # regime-forced tokens can sit outside the normal band; clamp
            row = cum if t == 0 else cum[min(max(int(ids[t - 1, d]) - off, 0),
                                             personas.supports[d] - 1)]
            attrs[d] = _draw(row, uniforms[t, d], off)
        amount = math.exp(rng.normal(personas.log_mu[persona], 1.0)) if amt_d is not None else 0.0
        if onset is not None and t >= onset and (t == onset or rng.random() < 0.6):
            # Regimes reach for the reserved top tokens / night band, which
            # never occur in normal traffic. Anomalous events are interleaved
            # with normal ones (always at the onset, then ~60% of the time) so
            # the fraud phase alternates rather than settling on a constant.
            # Every regime also trips the shared marker dimensions: anomalous
            # activity happens out-of-schedule (top day/action tokens).
            name = FRAUD_CLASS_NAMES[label]
            for marker in ("day_of_week", "action_type"):
                md = vocab.index_of(marker)
                if md is not None:
                    attrs[md] = cards[md] - 1
            if name == "amount_spike":
                amount *= 1000.0
            elif name == "burst_rate" and gap_d is not None:
                attrs[gap_d] = cards[gap_d] - 1
            elif name == "channel_shift" and chan_d is not None:
                attrs[chan_d] = cards[chan_d] - 1
            elif name == "merchant_roulette" and merch_d is not None:
                attrs[merch_d] = (cards[merch_d] - 1 if rng.random() < 0.5
                                  else 1 + int(rng.integers(cards[merch_d] - 1)))
            elif name == "night_activity" and hour_d is not None:
                attrs[hour_d] = 1 + int(rng.integers(min(4, cards[hour_d] - 1)))
            elif name == "region_hop" and reg_d is not None:
                attrs[reg_d] = cards[reg_d] - 1 - int(rng.integers(min(3, cards[reg_d] - 1)))
            elif name == "device_swap":
                if dev_d is not None:
                    attrs[dev_d] = cards[dev_d] - 1
                amount *= 10.0
            elif name == "mixed_regime":
                amount *= 30.0
                if gap_d is not None:
                    attrs[gap_d] = cards[gap_d] - 1
        if amt_d is not None:
            attrs[amt_d] = bucketize_amount(amount, cards[amt_d])
    return BehaviorSequence(f"u{user_index:07d}", ids, label, onset)


def generate_corpus(cfg: GeneratorConfig) -> List[BehaviorSequence]:
    """Synthesize the full corpus; fully determined by cfg.seed."""
    personas = _Personas(cfg)
    return [_generate_user(cfg, personas, u) for u in range(cfg.n_users)]


# --- JSONL corpus I/O ------------------------------------------------------

def write_jsonl(fh: TextIO, corpus: Iterable[BehaviorSequence]) -> None:
    """Write one JSON record per user to the open text file ``fh``."""
    for seq in corpus:
        rec = {
            "user_id": seq.user_id,
            "attrs": seq.ids.tolist(),
            "label": seq.label,
            "anomaly_onset": seq.anomaly_onset,
        }
        fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def iter_jsonl(path, cardinalities: Optional[Sequence[int]] = None) -> Iterator[BehaviorSequence]:
    """Parse a corpus file one user at a time; a malformed line fails with its
    line number when the reader reaches it.

    With ``cardinalities`` every event must have one token per dimension,
    each in [0, V_d).
    """
    cards = None if cardinalities is None else np.asarray(cardinalities, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from exc
            for key in ("user_id", "attrs", "label", "anomaly_onset"):
                if key not in rec:
                    raise SchemaError(f"line {lineno}: missing field {key!r}")
            attrs = rec["attrs"]
            if not isinstance(attrs, list) or not attrs:
                raise SchemaError(f"line {lineno}: field 'attrs' must be a nonempty list")
            try:
                ids = np.array(attrs, dtype=np.int64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"line {lineno}: field 'attrs' must be rows of integer "
                                  f"token ids of equal length: {exc}") from exc
            if ids.ndim != 2:
                raise SchemaError(f"line {lineno}: field 'attrs' must be a list of rows")
            if cards is not None:
                if ids.shape[1] != cards.size:
                    raise SchemaError(f"line {lineno}: field 'attrs' rows have "
                                      f"{ids.shape[1]} values, expected {cards.size}")
                bad = (ids < 0) | (ids >= cards)
                if bad.any():
                    t, d = np.argwhere(bad)[0]
                    raise SchemaError(f"line {lineno}: field 'attrs'[{t}][{d}]={ids[t, d]} "
                                      f"outside [0, {cards[d]})")
            onset = rec["anomaly_onset"]
            try:
                seq = BehaviorSequence(str(rec["user_id"]), ids, int(rec["label"]),
                                       None if onset is None else int(onset))
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from exc
            yield seq


def read_jsonl(path, cardinalities: Optional[Sequence[int]] = None) -> List[BehaviorSequence]:
    """The whole corpus file as a list; see ``iter_jsonl``."""
    return list(iter_jsonl(path, cardinalities))


def write_vocab(fh: TextIO, vocab: VocabSpec) -> None:
    """Write the vocab sidecar to the open text file ``fh``."""
    json.dump(vocab.to_json(), fh, separators=(",", ":"))
    fh.write("\n")


def read_vocab(path) -> VocabSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return VocabSpec.from_json(json.load(fh))
