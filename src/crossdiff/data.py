"""Interaction logs, filtering, leave-one-out splits, augmentation, synthetic data.

Index-space convention: the two domain vocabularies occupy disjoint ranges of
one global integer space. Domain x starts at 0, domain y starts where x ends,
and each range reserves its first two rows for that domain's mask and padding
tokens. Any global index therefore resolves to exactly one domain.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DOMAIN_X = "x"
DOMAIN_Y = "y"
DOMAINS = (DOMAIN_X, DOMAIN_Y)
DOMAIN_LABELS = {"x": DOMAIN_X, "X": DOMAIN_X, "y": DOMAIN_Y, "Y": DOMAIN_Y}  # log label -> domain

# reserved rows at the start of each domain's index range
MASK_OFFSET = 0
PAD_OFFSET = 1
N_RESERVED = 2

SPECIFIC_PROB = 0.4   # synthetic logs: chance a specific-domain event uses the specific interest


@dataclass(frozen=True)
class InteractionEvent:
    user_id: str
    item_id: str
    domain: str
    timestamp: int


@dataclass
class Vocab:
    """Items of one domain mapped into a contiguous global index range."""
    domain: str
    base: int
    items: list[str]
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {it: self.base + N_RESERVED + i for i, it in enumerate(self.items)}

    @property
    def mask_index(self) -> int:
        return self.base + MASK_OFFSET

    @property
    def pad_index(self) -> int:
        return self.base + PAD_OFFSET

    @property
    def size(self) -> int:
        """Total rows including the two reserved tokens."""
        return len(self.items) + N_RESERVED

    @property
    def n_items(self) -> int:
        return len(self.items)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise KeyError("unknown item %r in domain %s" % (item_id, self.domain))

    def is_item(self, index: int) -> bool:
        """True for a real item's index; False for reserved rows and other domains."""
        return self.base + N_RESERVED <= index < self.base + self.size

    def contains(self, index: int) -> bool:
        """True for any index in this domain's range, reserved rows included."""
        return self.base <= index < self.base + self.size

    def real_indices(self) -> np.ndarray:
        return np.arange(self.base + N_RESERVED, self.base + self.size)


@dataclass
class UserSequence:
    user_index: int
    items: list[tuple[int, str]]   # (global item index, domain), chronological

    def __len__(self) -> int:
        return len(self.items)

    @property
    def indices(self) -> list[int]:
        return [g for g, _ in self.items]


@dataclass
class DatasetSplit:
    train: list[UserSequence]
    validation: list[tuple[UserSequence, tuple[int, str]]]
    test: list[tuple[UserSequence, tuple[int, str]]]
    vocab_x: Vocab
    vocab_y: Vocab
    user_ids: list[str]

    def vocab_of(self, domain: str) -> Vocab:
        return self.vocab_x if domain == DOMAIN_X else self.vocab_y


def ingest_log(path: str, fmt: str = "tsv"):
    """Parse a user/item/domain/timestamp log.

    Returns (events, row_errors) where row_errors collects (line_number,
    message) for malformed rows. A domain label outside DOMAIN_LABELS and an
    empty file are hard errors rather than row errors.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError("fmt must be 'tsv' or 'csv', got %r" % fmt)
    delim = "\t" if fmt == "tsv" else ","

    events: list[InteractionEvent] = []
    errors: list[tuple[int, str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if line_no == 1 and [c.strip().lower() for c in row[:2]] == ["user_id", "item_id"]:
                continue
            if len(row) != 4:
                errors.append((line_no, "expected 4 fields, got %d" % len(row)))
                continue
            user_id, item_id, domain_raw, ts_raw = (c.strip() for c in row)
            if not user_id or not item_id:
                errors.append((line_no, "empty user_id or item_id"))
                continue
            if domain_raw not in DOMAIN_LABELS:
                raise ValueError("line %d: unknown domain label %r (known: %s)"
                                 % (line_no, domain_raw, sorted(DOMAIN_LABELS)))
            try:
                ts = int(ts_raw)
            except ValueError:
                errors.append((line_no, "malformed timestamp %r" % ts_raw))
                continue
            events.append(InteractionEvent(user_id, item_id, DOMAIN_LABELS[domain_raw], ts))
    if not events and not errors:
        raise ValueError("no interaction rows found in %s" % path)
    return events, errors


def filter_and_split(events: list[InteractionEvent],
                     min_user_interactions: int = 10,
                     min_per_domain: int = 3,
                     max_seq_len: int = 15) -> DatasetSplit:
    """Threshold users, truncate to the most recent items, split leave-one-out.

    Thresholds apply to each user's full history; truncation happens after.
    Users with fewer than 3 surviving items cannot be split and are dropped
    regardless of thresholds. Vocabularies cover surviving items only.
    """
    return filter_and_split_with_stats(events, min_user_interactions, min_per_domain,
                                       max_seq_len)[0]


def filter_and_split_with_stats(events: list[InteractionEvent],
                                min_user_interactions: int = 10,
                                min_per_domain: int = 3,
                                max_seq_len: int = 15) -> tuple[DatasetSplit, dict]:
    """filter_and_split's split, and the counts of users kept and dropped by
    each filter threshold, from one filtering pass."""
    if max_seq_len < 3:
        raise ValueError("max_seq_len must be >= 3, got %d" % max_seq_len)

    by_user: dict[str, list[InteractionEvent]] = {}
    for ev in events:
        by_user.setdefault(ev.user_id, []).append(ev)

    surviving: dict[str, list[InteractionEvent]] = {}
    dropped_total = dropped_domain = 0
    for uid in sorted(by_user):
        evs = sorted(by_user[uid], key=lambda e: e.timestamp)
        if len(evs) < max(min_user_interactions, 3):
            dropped_total += 1
            continue
        counts = {d: sum(1 for e in evs if e.domain == d) for d in DOMAINS}
        if min(counts.values()) < min_per_domain:
            dropped_domain += 1
            continue
        surviving[uid] = evs[-max_seq_len:]
    stats = {"n_events": len(events), "n_users_total": len(by_user),
             "n_users_kept": len(surviving),
             "dropped_by_total_threshold": dropped_total,
             "dropped_by_domain_threshold": dropped_domain}
    if not surviving:
        binding = ("min_user_interactions=%d" % min_user_interactions
                   if dropped_total >= dropped_domain
                   else "min_per_domain=%d" % min_per_domain)
        raise ValueError("no users survive filtering (binding threshold: %s)" % binding)

    items_x, items_y = set(), set()
    for evs in surviving.values():
        for e in evs:
            (items_x if e.domain == DOMAIN_X else items_y).add(e.item_id)
    vocab_x = Vocab(DOMAIN_X, 0, sorted(items_x))
    vocab_y = Vocab(DOMAIN_Y, vocab_x.size, sorted(items_y))
    vocabs = {DOMAIN_X: vocab_x, DOMAIN_Y: vocab_y}

    user_ids = sorted(surviving)
    train, validation, test = [], [], []
    for ui, uid in enumerate(user_ids):
        seq = [(vocabs[e.domain].index_of(e.item_id), e.domain) for e in surviving[uid]]
        train.append(UserSequence(ui, seq[:-2]))
        validation.append((UserSequence(ui, seq[:-2]), seq[-2]))
        test.append((UserSequence(ui, seq[:-1]), seq[-1]))
    return DatasetSplit(train=train, validation=validation, test=test,
                        vocab_x=vocab_x, vocab_y=vocab_y, user_ids=user_ids), stats


# ---------------------------------------------------------------------------
# augmentation

AUGMENTATION_OPS = ("crop", "mask", "reorder", "substitute", "insert")


@dataclass(frozen=True)
class AugmentationSpec:
    op: str
    rate: float
    rng_seed: int


def augment(seq: UserSequence, spec: AugmentationSpec, vocab_x: Vocab, vocab_y: Vocab,
            max_seq_len: int = 15) -> UserSequence:
    """Apply one stochastic sequence perturbation; deterministic under the seed.

    Sequences shorter than 2 pass through unchanged. Mask and substitution
    respect each position's own domain, which is why both vocabularies are
    needed for mixed-domain sequences.
    """
    if spec.op not in AUGMENTATION_OPS:
        raise ValueError("unknown augmentation op %r" % spec.op)
    if not (0.0 < spec.rate < 1.0):
        raise ValueError("rate must lie in (0, 1), got %r" % spec.rate)
    L = len(seq)
    if L < 2:
        return UserSequence(seq.user_index, list(seq.items))

    rng = np.random.default_rng(spec.rng_seed)
    vocabs = {DOMAIN_X: vocab_x, DOMAIN_Y: vocab_y}
    items = list(seq.items)
    n = math.ceil(spec.rate * L)

    if spec.op == "crop":
        n_keep = math.ceil((1.0 - spec.rate) * L)
        start = int(rng.integers(0, L - n_keep + 1))
        items = items[start:start + n_keep]
    elif spec.op in ("mask", "substitute"):
        for p in rng.choice(L, size=n, replace=False):
            d = items[p][1]
            v = vocabs[d]
            # the same draw, and stream position, as rng.choice(v.real_indices())
            g = (v.mask_index if spec.op == "mask"
                 else v.base + N_RESERVED + int(rng.integers(0, v.n_items)))
            items[p] = (g, d)
    elif spec.op == "reorder":
        start = int(rng.integers(0, L - n + 1))
        perm = rng.permutation(n)
        window = [items[start + k] for k in perm]
        items[start:start + n] = window
    elif spec.op == "insert":
        for _ in range(n):
            anchor = int(rng.integers(0, len(items)))
            d = items[anchor][1]
            v = vocabs[d]
            new = (v.base + N_RESERVED + int(rng.integers(0, v.n_items)), d)
            items.insert(anchor, new)
        items = items[-max_seq_len:]
    return UserSequence(seq.user_index, items)


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 200
    n_items_x: int = 100
    n_items_y: int = 100
    n_shared_interests: int = 4
    n_specific_interests: int = 2
    noise_rate: float = 0.1
    seq_len_range: tuple[int, int] = (10, 15)
    rng_seed: int = 0


@dataclass
class GroundTruth:
    """Latent interest assignment per user plus item-to-cluster membership."""
    shared_interest: dict[str, int]
    specific_interest: dict[str, int | None]
    specific_domain: dict[str, str | None]
    cluster_items: dict[tuple[str, int], list[str]]   # (domain, cluster) -> item ids


def generate_synthetic(cfg: SyntheticConfig):
    """Two-domain logs driven by shared and domain-specific interest clusters.

    Each domain's items are partitioned into n_shared + n_specific equal
    blocks; a user's shared interest picks the same block index in both
    domains, which is what makes the next item predictable across domains.
    Returns (events, ground_truth).
    """
    lo, hi = cfg.seq_len_range
    if not (6 <= lo <= hi <= 15):
        raise ValueError("seq_len_range must satisfy 6 <= min <= max <= 15, got %r"
                         % (cfg.seq_len_range,))
    if not (0.0 <= cfg.noise_rate <= 1.0):
        raise ValueError("noise_rate must lie in [0, 1], got %r" % cfg.noise_rate)
    n_clusters = cfg.n_shared_interests + cfg.n_specific_interests
    if cfg.n_shared_interests < 1:
        raise ValueError("need at least one shared interest")
    for dom, n_items in ((DOMAIN_X, cfg.n_items_x), (DOMAIN_Y, cfg.n_items_y)):
        if n_items < n_clusters:
            raise ValueError("domain %s has %d items for %d interest clusters"
                             % (dom, n_items, n_clusters))

    rng = np.random.default_rng(cfg.rng_seed)
    item_ids = {DOMAIN_X: ["x%04d" % i for i in range(cfg.n_items_x)],
                DOMAIN_Y: ["y%04d" % i for i in range(cfg.n_items_y)]}
    cluster_items: dict[tuple[str, int], list[str]] = {}
    for dom in DOMAINS:
        ids = item_ids[dom]
        bounds = np.linspace(0, len(ids), n_clusters + 1).astype(int)
        for c in range(n_clusters):
            cluster_items[(dom, c)] = ids[bounds[c]:bounds[c + 1]]

    events: list[InteractionEvent] = []
    shared_of: dict[str, int] = {}
    specific_of: dict[str, int | None] = {}
    specific_dom: dict[str, str | None] = {}
    for u in range(cfg.n_users):
        uid = "u%04d" % u
        shared = int(rng.integers(cfg.n_shared_interests))
        shared_of[uid] = shared
        if cfg.n_specific_interests > 0 and rng.random() < 0.5:
            spec_c = cfg.n_shared_interests + int(rng.integers(cfg.n_specific_interests))
            spec_d = DOMAIN_X if rng.random() < 0.5 else DOMAIN_Y
        else:
            spec_c, spec_d = None, None
        specific_of[uid] = spec_c
        specific_dom[uid] = spec_d

        L = int(rng.integers(lo, hi + 1))
        # both domains must clear the per-domain filter threshold
        n_x = int(np.clip(rng.binomial(L, 0.5), 3, L - 3))
        doms = [DOMAIN_X] * n_x + [DOMAIN_Y] * (L - n_x)
        doms = [doms[i] for i in rng.permutation(L)]
        for pos, dom in enumerate(doms):
            if rng.random() < cfg.noise_rate:
                item = item_ids[dom][int(rng.integers(len(item_ids[dom])))]
            else:
                if (dom == spec_d and spec_c is not None
                        and rng.random() < SPECIFIC_PROB):
                    block = cluster_items[(dom, spec_c)]
                else:
                    block = cluster_items[(dom, shared)]
                item = block[int(rng.integers(len(block)))]
            events.append(InteractionEvent(uid, item, dom, u * 1000 + pos))

    truth = GroundTruth(shared_interest=shared_of, specific_interest=specific_of,
                        specific_domain=specific_dom, cluster_items=cluster_items)
    return events, truth


def save_events(events: list[InteractionEvent], path: str, fmt: str = "tsv") -> None:
    """Write events back out in the ingestible log format, header included."""
    delim = "\t" if fmt == "tsv" else ","
    with open(path, "w") as fh:
        fh.write(delim.join(("user_id", "item_id", "domain", "timestamp")) + "\n")
        for ev in events:
            fh.write(delim.join((ev.user_id, ev.item_id, ev.domain,
                                 str(ev.timestamp))) + "\n")


def save_ground_truth(truth: GroundTruth, path: str) -> None:
    doc = {"shared_interest": truth.shared_interest,
           "specific_interest": truth.specific_interest,
           "specific_domain": truth.specific_domain,
           "cluster_items": {"%s:%d" % k: v for k, v in truth.cluster_items.items()}}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# split persistence

SPLIT_FORMAT_VERSION = 1


def save_split(split: DatasetSplit, out_dir: str) -> None:
    """Write the split as JSON files under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    head = {
        "format_version": SPLIT_FORMAT_VERSION,
        "user_ids": split.user_ids,
        "vocab_x": {"base": split.vocab_x.base, "items": split.vocab_x.items},
        "vocab_y": {"base": split.vocab_y.base, "items": split.vocab_y.items},
    }
    with open(os.path.join(out_dir, "vocab.json"), "w") as fh:
        json.dump(head, fh, indent=1, sort_keys=True)

    def seq_rec(seq: UserSequence) -> dict:
        return {"user_index": seq.user_index, "items": [[g, d] for g, d in seq.items]}

    with open(os.path.join(out_dir, "train.jsonl"), "w") as fh:
        for seq in split.train:
            fh.write(json.dumps(seq_rec(seq), sort_keys=True) + "\n")
    for name, part in (("valid", split.validation), ("test", split.test)):
        with open(os.path.join(out_dir, name + ".jsonl"), "w") as fh:
            for seq, (g, d) in part:
                rec = seq_rec(seq)
                rec["target"] = [g, d]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_split(in_dir: str) -> DatasetSplit:
    """Read a split that save_split wrote.

    Raises ValueError naming vocab.json unless it is JSON holding user_ids
    and two contiguous vocabularies (x at base 0, y where x ends), and,
    naming the file and line, unless every record is JSON with items,
    user_index and (valid, test) target, each item and target a real item of
    its tagged domain, and user_index an integer in [0, len(user_ids)).
    """
    vocab_path = os.path.join(in_dir, "vocab.json")
    try:
        with open(vocab_path) as fh:
            head = json.load(fh)
        if head["format_version"] != SPLIT_FORMAT_VERSION:
            raise ValueError("unsupported split format version %r" % head["format_version"])
        vocab_x = Vocab(DOMAIN_X, head["vocab_x"]["base"], list(head["vocab_x"]["items"]))
        vocab_y = Vocab(DOMAIN_Y, head["vocab_y"]["base"], list(head["vocab_y"]["items"]))
        user_ids = list(head["user_ids"])
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError("%s: malformed vocabulary file (%s: %s)"
                         % (vocab_path, type(e).__name__, e)) from None
    if (vocab_x.base, vocab_y.base) != (0, vocab_x.size):
        raise ValueError("%s: vocabulary bases %d (x) and %d (y) are not contiguous; "
                         "expected 0 and %d" % (vocab_path, vocab_x.base, vocab_y.base,
                                                vocab_x.size))
    vocabs = {DOMAIN_X: vocab_x, DOMAIN_Y: vocab_y}

    def read_seqs(name: str, with_target: bool):
        out = []
        path = os.path.join(in_dir, name + ".jsonl")
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    rec = json.loads(line)
                    items = [(g, d) for g, d in rec["items"]]
                    target = None
                    if with_target:
                        g, d = rec["target"]
                        target = (g, d)
                    u = rec["user_index"]
                except (ValueError, KeyError, TypeError) as e:
                    raise ValueError("%s line %d: malformed record (%s: %s)"
                                     % (path, line_no, type(e).__name__, e)) from None
                for g, d in items + ([target] if with_target else []):
                    if not (type(g) is int and d in vocabs and vocabs[d].is_item(g)):
                        raise ValueError("%s line %d: %r is not a real item of the "
                                         "domain it is tagged with" % (path, line_no, [g, d]))
                if not (type(u) is int and 0 <= u < len(user_ids)):
                    raise ValueError("%s line %d: user_index %r is not an integer in "
                                     "[0, %d)" % (path, line_no, u, len(user_ids)))
                seq = UserSequence(u, items)
                out.append((seq, target) if with_target else seq)
        return out

    return DatasetSplit(train=read_seqs("train", False),
                        validation=read_seqs("valid", True),
                        test=read_seqs("test", True),
                        vocab_x=vocab_x, vocab_y=vocab_y, user_ids=user_ids)
