"""Multivariate behavior-sequence data model and synthetic corpus generator.

A user's events are one [T, D] array of discrete attribute token ids, one
row per event. Token id 0 is reserved as PAD in every dimension and never
appears in real events.
Sequences carry an optional fraud class label (0 = normal, 1..8 = planted
fraud archetypes) and, for synthetic data, the onset index where the
fraud regime begins.

The generator steps users forward in blocks of ``GEN_BLOCK``, one event
index at a time for the whole block; the Markov draw of a step is one
compare-and-sum over the personas' padded cumulative tables. User u draws
from its own stream ``child_rng(seed, "gen-user", u)``, and the corpus
stays the same only while every user makes these draws in this order:

1. persona ``integers(n_personas)``, length ``integers(t_min, t_max + 1)``,
   the fraud coin ``random() < fraud_fraction``;
2. a fraud user only: class ``1 + choice(8, p=class_mix)``, then onset
   ``integers(max(1, t_len // 4), 3 * t_len // 4 + 1)``;
3. the ``(t_len, D)`` uniforms ``random((t_len, D))`` that drive the Markov
   draws, which take nothing else from the stream;
4. per event, in order, if the vocab has ``amount_bucket``: the log-amount
   ``normal(log_mu[persona], 1.0)``; from the onset on, a fraud user then
   draws the anomaly coin ``random() < 0.6`` (not at the onset itself, which
   is always anomalous) and, for an anomalous event, its regime's own draws:
   merchant_roulette ``random() < 0.5`` and, when that fails,
   ``integers(V - 1)``; night_activity ``integers(min(4, V - 1))``;
   region_hop ``integers(min(3, V - 1))`` (V the dimension's cardinality).

Consecutive draws of one kind may be made in one call: ``normal(size=n)``
gives the values of n scalar calls and leaves the stream where they would.
A new regime keeps this order and appends its own draws after it. A regime
that only changes which tables a user walks (an in-band regime that switches
persona at the onset, say) needs no draws of its own: it joins the lockstep
step with a persona index per step, not a scalar path beside it.
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
    "iter_numbered_jsonl", "iter_jsonl", "read_jsonl", "write_jsonl", "read_vocab",
    "write_vocab", "SchemaError",
]

PAD_ID = 0
MAX_EVENTS = 4096  # longest sequence a BehaviorSequence holds

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

    def to_json(self) -> dict:
        return {"dims": [{"name": n, "cardinality": c} for n, c in self.dims]}


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
        if not (isinstance(ids, np.ndarray) and ids.ndim == 2 and ids.dtype.kind in "iu"):
            raise ValueError(f"sequence {self.user_id!r} needs a 2-D integer ids array")
        if ids.shape[0] == 0:
            raise ValueError(f"sequence {self.user_id!r} has no events")
        if ids.shape[0] > MAX_EVENTS:
            raise ValueError(f"sequence {self.user_id!r} exceeds {MAX_EVENTS} events")
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
    """Token ids of shape [T, D]: ``seq.ids`` itself, not a copy. The program
    reads ``seq.ids``; this stays while the benchmark's tracer times it by name."""
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
        if self.n_users < 1:
            raise ValueError(f"data.n_users must be >= 1, got {self.n_users}")
        if self.n_personas < 1:
            raise ValueError(f"data.n_personas must be >= 1, got {self.n_personas}")
        if not 0.0 <= self.fraud_fraction <= 1.0:
            raise ValueError(f"data.fraud_fraction must be in [0, 1], got {self.fraud_fraction}")
        if len(self.class_mix) != len(FRAUD_CLASS_NAMES) - 1:
            raise ValueError(f"data.class_mix needs {len(FRAUD_CLASS_NAMES) - 1} entries")
        if min(self.class_mix) < 0:
            raise ValueError(f"data.class_mix entries must be >= 0, got {list(self.class_mix)}")
        if abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ValueError("data.class_mix probabilities must sum to 1")
        if not 1 <= self.t_min <= self.t_max:
            raise ValueError(f"need 1 <= data.t_min <= data.t_max, got "
                             f"t_min {self.t_min} and t_max {self.t_max}")
        if self.t_max > MAX_EVENTS:
            raise ValueError(f"data.t_max must be <= {MAX_EVENTS}, got {self.t_max}")
        if self.fraud_fraction > 0 and self.t_min < 2:
            raise ValueError("data.t_min must be >= 2 when data.fraud_fraction > 0: "
                             "a fraud onset needs a normal event before it")


# Users generated together, one event index at a time. A module constant, so
# that the block's arrays, not n_users, bound the generator's working memory.
GEN_BLOCK = 256


class _Personas:
    """Per-persona Markov transition tables and amount scales.

    Normal behavior stays inside a per-dimension token band; the top token
    of every non-amount dimension (and the night band of hour_of_day) is
    reserved for the planted fraud regimes, so anomalies are rare events a
    sequence model can actually pick up at desk scale.

    ``cum`` holds every cumulative row, [personas, D, K + 1, K] flattened to
    rows: row ``(persona * D + d) * (K + 1) + r`` is the next token's
    distribution after the band's token r, and r = K is the first event's
    distribution. Rows are padded to
    the largest support K with +inf, which never counts as <= u, so
    ``_draw`` over a padded row equals ``searchsorted`` over the row's own
    support. The amount dimension has no chain: its rows are all padding,
    and its column is filled from the amounts afterwards.
    """

    def __init__(self, cfg: GeneratorConfig):
        rng = child_rng(cfg.seed, "gen-personas")
        vocab = cfg.vocab
        self.dim = {name: d for d, (name, _) in enumerate(vocab.dims)}
        self.amount_dim = self.dim.get("amount_bucket")
        hour_dim = self.dim.get("hour_of_day")
        offsets, supports = [], []
        for d, (_, card) in enumerate(vocab.dims):
            if d == hour_dim and card >= 10:
                offset = 5  # tokens 1..4 = night hours, fraud-only
            else:
                offset = 1
            offsets.append(offset)
            supports.append(max(1, card - 1 - offset))  # excludes top token
        self.offsets = np.array(offsets, dtype=np.int64)
        self.tops = np.array(supports, dtype=np.int64) - 1
        P, D, K = cfg.n_personas, vocab.D, max(supports)
        cum = np.full((P, D, K + 1, K), np.inf)
        self.log_mu: list[float] = []
        for p in range(P):
            for d in range(D):
                if d == self.amount_dim:
                    continue
                k = supports[d]
                cum[p, d, K, :k] = np.cumsum(rng.dirichlet(np.full(k, 0.4)))
                rows = rng.dirichlet(np.full(k, 0.3), size=k)
                cum[p, d, :k, :k] = np.cumsum(rows, axis=1)
            self.log_mu.append(float(rng.uniform(2.0, 6.0)))
        self.K = K
        self.cum = cum.reshape(P * D * (K + 1), K)


def _draw(cum: np.ndarray, u: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Per row of cumulative entries, the number of entries <= u, clamped to
    ``top``: ``min(searchsorted(row, u, side="right"), top)`` for every row
    at once. ``cum`` is [..., K] and ``u`` and ``top`` broadcast to [...]."""
    return np.minimum((cum <= u[..., None]).sum(axis=-1), top)


@dataclass
class _UserStart:
    """A user's draws made before the first event (see the module docstring)."""

    index: int
    rng: np.random.Generator
    persona: int
    t_len: int
    label: int
    onset: Optional[int]
    uniforms: np.ndarray      # [t_len, D]
    log_amounts: np.ndarray   # the events before the onset (all, for a normal user)


def _start_user(cfg: GeneratorConfig, personas: _Personas, user_index: int) -> _UserStart:
    rng = child_rng(cfg.seed, "gen-user", user_index)
    persona = int(rng.integers(cfg.n_personas))
    t_len = int(rng.integers(cfg.t_min, cfg.t_max + 1))
    label, onset = 0, None
    if rng.random() < cfg.fraud_fraction:
        label = 1 + int(rng.choice(len(cfg.class_mix), p=np.asarray(cfg.class_mix)))
        onset = int(rng.integers(max(1, t_len // 4), 3 * t_len // 4 + 1))
    uniforms = rng.random((t_len, cfg.vocab.D))
    # Before the onset an event draws only its amount, so these draws are one
    # call: normal(size=n) gives the values of n scalar calls, in order.
    n_normal = 0 if personas.amount_dim is None else (t_len if onset is None else onset)
    log_amounts = rng.normal(personas.log_mu[persona], 1.0, size=n_normal)
    return _UserStart(user_index, rng, persona, t_len, label, onset, uniforms, log_amounts)


def _fraud_event(attrs: np.ndarray, label: int, rng: np.random.Generator,
                 dim: dict, cards: Tuple[int, ...]) -> float:
    """Overwrite one anomalous event's tokens in place; return its amount factor.

    Regimes reach for the reserved top tokens / night band, which never occur
    in normal traffic. Every regime also trips the shared marker dimensions:
    anomalous activity happens out-of-schedule (top day/action tokens).
    """
    for marker in ("day_of_week", "action_type"):
        if marker in dim:
            attrs[dim[marker]] = cards[dim[marker]] - 1
    name = FRAUD_CLASS_NAMES[label]
    gap_d = dim.get("time_gap_bucket")
    if name == "amount_spike":
        return 1000.0
    if name == "burst_rate" and gap_d is not None:
        attrs[gap_d] = cards[gap_d] - 1
    elif name == "channel_shift" and "channel" in dim:
        d = dim["channel"]
        attrs[d] = cards[d] - 1
    elif name == "merchant_roulette" and "merchant_category" in dim:
        d = dim["merchant_category"]
        attrs[d] = cards[d] - 1 if rng.random() < 0.5 else 1 + int(rng.integers(cards[d] - 1))
    elif name == "night_activity" and "hour_of_day" in dim:
        d = dim["hour_of_day"]
        attrs[d] = 1 + int(rng.integers(min(4, cards[d] - 1)))
    elif name == "region_hop" and "region" in dim:
        d = dim["region"]
        attrs[d] = cards[d] - 1 - int(rng.integers(min(3, cards[d] - 1)))
    elif name == "device_swap":
        if "device_type" in dim:
            d = dim["device_type"]
            attrs[d] = cards[d] - 1
        return 10.0
    elif name == "mixed_regime":
        if gap_d is not None:
            attrs[gap_d] = cards[gap_d] - 1
        return 30.0
    return 1.0


def _generate_block(cfg: GeneratorConfig, personas: _Personas,
                    users: range) -> List[BehaviorSequence]:
    """The given users, stepped forward together one event index at a time."""
    cards = cfg.vocab.cardinalities
    D, K, amt_d = cfg.vocab.D, personas.K, personas.amount_dim
    starts = [_start_user(cfg, personas, u) for u in users]
    B, T = len(starts), max(s.t_len for s in starts)
    uniforms = np.zeros((B, T, D))
    log_amounts = np.zeros((B, T))
    factors = np.ones((B, T))
    for b, s in enumerate(starts):
        uniforms[b, :s.t_len] = s.uniforms
        log_amounts[b, :len(s.log_amounts)] = s.log_amounts
    frauds = [(b, s) for b, s in enumerate(starts) if s.onset is not None]
    # First table row of each (user, dimension).
    rows = (np.array([s.persona for s in starts])[:, None] * D + np.arange(D)) * (K + 1)
    prev = np.full((B, D), K)  # the first event's row
    ids = np.zeros((B, T, D), dtype=np.int64)
    # Past a user's length the steps draw from padding and are cut off below.
    for t in range(T):
        cum = personas.cum[rows + prev]
        ids[:, t] = personas.offsets + _draw(cum, uniforms[:, t], personas.tops)
        # A fraud user's draws at this event, before the next step reads it.
        # Anomalous events are interleaved with normal ones (always at the
        # onset, then ~60% of the time) so the fraud phase alternates rather
        # than settling on a constant.
        for b, s in frauds:
            if not s.onset <= t < s.t_len:
                continue
            if amt_d is not None:
                log_amounts[b, t] = s.rng.normal(personas.log_mu[s.persona], 1.0)
            if t == s.onset or s.rng.random() < 0.6:
                factors[b, t] = _fraud_event(ids[b, t], s.label, s.rng, personas.dim, cards)
        # Regime-forced tokens can sit outside the normal band; clamp.
        prev = np.clip(ids[:, t] - personas.offsets, 0, personas.tops)
    out = []
    for b, s in enumerate(starts):
        seq_ids = ids[b, :s.t_len].copy()
        if amt_d is not None:
            seq_ids[:, amt_d] = [
                bucketize_amount(math.exp(z) * f, cards[amt_d])
                for z, f in zip(log_amounts[b, :s.t_len].tolist(), factors[b, :s.t_len].tolist())]
        out.append(BehaviorSequence(f"u{s.index:07d}", seq_ids, s.label, s.onset))
    return out


def generate_corpus(cfg: GeneratorConfig) -> List[BehaviorSequence]:
    """Synthesize the full corpus; fully determined by cfg.seed."""
    personas = _Personas(cfg)
    corpus: List[BehaviorSequence] = []
    for lo in range(0, cfg.n_users, GEN_BLOCK):
        corpus += _generate_block(cfg, personas, range(lo, min(lo + GEN_BLOCK, cfg.n_users)))
    return corpus


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


def iter_numbered_jsonl(path, cardinalities: Optional[Sequence[int]] = None,
                        ) -> Iterator[Tuple[int, BehaviorSequence]]:
    """Parse a corpus file one user at a time, as (line number, user) pairs; a
    malformed line fails with its line number when the reader reaches it.

    Each line is a JSON object. ``user_id`` must be a nonempty JSON string
    with no ``,``, ``"``, CR or LF, so that it is one field of a score CSV;
    ``label`` must be a JSON integer >= 0, ``anomaly_onset`` a JSON integer
    or null, and ``attrs`` rows of JSON integer token ids of equal length.
    With ``cardinalities`` every event must have one token per dimension,
    each in [0, V_d).
    """
    cards = None if cardinalities is None else np.asarray(cardinalities, dtype=np.uint64)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise SchemaError(f"line {lineno}: a record must be a JSON object")
            for key in ("user_id", "attrs", "label", "anomaly_onset"):
                if key not in rec:
                    raise SchemaError(f"line {lineno}: missing field {key!r}")
            user_id = rec["user_id"]
            if type(user_id) is not str or not user_id or any(c in user_id for c in ',"\r\n'):
                raise SchemaError(f"line {lineno}: field 'user_id' must be a nonempty string "
                                  f"without ',', '\"', CR or LF, got {user_id!r}")
            attrs = rec["attrs"]
            if not isinstance(attrs, list) or not attrs:
                raise SchemaError(f"line {lineno}: field 'attrs' must be a nonempty list")
            try:
                ids = np.array(attrs)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"line {lineno}: field 'attrs' must be rows of integer "
                                  f"token ids of equal length: {exc}") from exc
            if ids.ndim != 2:
                raise SchemaError(f"line {lineno}: field 'attrs' must be a list of rows")
            # np.array reads 1.7 and "3" into float and str arrays but [1, true]
            # into int64, so a line that spells a bool is checked value by value.
            if ids.dtype != np.int64 or "true" in line or "false" in line:
                for t, row in enumerate(attrs):
                    for d, value in enumerate(row):
                        if type(value) is not int:  # a bool is an int subclass
                            raise SchemaError(f"line {lineno}: field 'attrs'[{t}][{d}] must be "
                                              f"an integer token id, got {value!r}")
                if ids.dtype != np.int64:
                    raise SchemaError(f"line {lineno}: field 'attrs' has a token id outside "
                                      f"the 64-bit integers")
            if cards is not None:
                if ids.shape[1] != cards.size:
                    raise SchemaError(f"line {lineno}: field 'attrs' rows have "
                                      f"{ids.shape[1]} values, expected {cards.size}")
                # One comparison: a negative id reads as a huge unsigned one.
                bad = ids.view(np.uint64) >= cards
                if bad.any():
                    t, d = np.argwhere(bad)[0]
                    raise SchemaError(f"line {lineno}: field 'attrs'[{t}][{d}]={ids[t, d]} "
                                      f"outside [0, {cards[d]})")
            label, onset = rec["label"], rec["anomaly_onset"]
            if type(label) is not int or label < 0:  # a bool is an int subclass
                raise SchemaError(f"line {lineno}: field 'label' must be an integer >= 0, "
                                  f"got {label!r}")
            if type(onset) not in (int, type(None)):
                raise SchemaError(f"line {lineno}: field 'anomaly_onset' must be an integer "
                                  f"or null, got {onset!r}")
            try:
                seq = BehaviorSequence(user_id, ids, label, onset)
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from exc
            yield lineno, seq


def iter_jsonl(path, cardinalities: Optional[Sequence[int]] = None) -> Iterator[BehaviorSequence]:
    """The users of ``iter_numbered_jsonl``, without their line numbers."""
    return (seq for _, seq in iter_numbered_jsonl(path, cardinalities))


def read_jsonl(path, cardinalities: Optional[Sequence[int]] = None) -> List[BehaviorSequence]:
    """The whole corpus file as a list; see ``iter_jsonl``."""
    return list(iter_jsonl(path, cardinalities))


def write_vocab(fh: TextIO, vocab: VocabSpec) -> None:
    """Write the vocab sidecar to the open text file ``fh``."""
    json.dump(vocab.to_json(), fh, separators=(",", ":"))
    fh.write("\n")


def read_vocab(path) -> VocabSpec:
    """The vocab sidecar at ``path``; a fault fails naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            dims = tuple((d["name"], d["cardinality"]) for d in json.load(fh)["dims"])
            for name, card in dims:
                if type(card) is not int:
                    raise ValueError(f"dimension {name!r}: cardinality {card!r} is not an integer")
            return VocabSpec(dims)
        except KeyError as exc:
            raise SchemaError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
