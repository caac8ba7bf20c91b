"""Log ingestion, filtering, leave-one-out splits, augmentation, synthetic data."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff.data import (
    AUGMENTATION_OPS,
    DOMAIN_X,
    DOMAIN_Y,
    N_RESERVED,
    AugmentationSpec,
    DatasetSplit,
    InteractionEvent,
    SyntheticConfig,
    UserSequence,
    Vocab,
    augment,
    filter_and_split,
    generate_synthetic,
    ingest_log,
    load_ground_truth,
    load_split,
    save_events,
    save_ground_truth,
    save_split,
    survival_stats,
)


def write_log(path, rows, delim="\t", header=True):
    with open(path, "w") as fh:
        if header:
            fh.write(delim.join(("user_id", "item_id", "domain", "timestamp")) + "\n")
        for row in rows:
            fh.write(delim.join(str(c) for c in row) + "\n")


def make_events(spec):
    """spec: {user: [(item, domain), ...]} with timestamps in list order."""
    events = []
    for uid, pairs in spec.items():
        for t, (item, dom) in enumerate(pairs):
            events.append(InteractionEvent(uid, item, dom, t))
    return events


class TestIngest:
    def test_basic_tsv(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        write_log(path, [("u1", "a", "x", 3), ("u1", "b", "y", 1), ("u2", "c", "x", 2)])
        events, errors = ingest_log(path)
        assert errors == []
        assert len(events) == 3
        assert events[0] == InteractionEvent("u1", "a", DOMAIN_X, 3)
        assert events[1].domain == DOMAIN_Y

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_log(path, [("u1", "a", "x", 3)], delim=",")
        events, errors = ingest_log(path, fmt="csv")
        assert len(events) == 1 and errors == []

    def test_headerless(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        write_log(path, [("u1", "a", "x", 0)], header=False)
        events, _ = ingest_log(path)
        assert len(events) == 1

    def test_row_errors_collected(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        with open(path, "w") as fh:
            fh.write("u1\ta\tx\t0\n")
            fh.write("u1\ta\tx\n")             # 3 fields
            fh.write("\ta\tx\t1\n")            # empty user
            fh.write("u1\tb\ty\tnever\n")      # bad timestamp
            fh.write("u1\tc\ty\t2\n")
        events, errors = ingest_log(path)
        assert len(events) == 2
        assert sorted(ln for ln, _ in errors) == [2, 3, 4]

    def test_unknown_domain_is_hard_error(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        write_log(path, [("u1", "a", "z", 0)])
        with pytest.raises(ValueError, match="unknown domain"):
            ingest_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        write_log(path, [])
        with pytest.raises(ValueError, match="no interaction rows"):
            ingest_log(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "log.tsv")
        with open(path, "w") as fh:
            fh.write("u1\ta\tx\t0\n\n\nu1\tb\ty\t1\n")
        events, errors = ingest_log(path)
        assert len(events) == 2 and errors == []

    def test_bad_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="fmt"):
            ingest_log(str(tmp_path / "x"), fmt="parquet")


class TestVocab:
    def test_reserved_then_items(self):
        v = Vocab(DOMAIN_X, 0, ["a", "b", "c"])
        assert v.mask_index == 0 and v.pad_index == 1
        assert v.size == 5 and v.n_items == 3
        assert v.index_of("a") == 2 and v.index_of("c") == 4

    def test_disjoint_ranges(self):
        vx = Vocab(DOMAIN_X, 0, ["a", "b"])
        vy = Vocab(DOMAIN_Y, vx.size, ["p", "q", "r"])
        xs = set(range(vx.base, vx.base + vx.size))
        ys = set(range(vy.base, vy.base + vy.size))
        assert xs.isdisjoint(ys)
        assert all(vx.contains(i) and not vy.contains(i) for i in xs)
        assert all(vy.contains(i) and not vx.contains(i) for i in ys)

    def test_round_trip(self):
        v = Vocab(DOMAIN_Y, 7, ["p", "q"])
        for it in v.items:
            assert v.item_of(v.index_of(it)) == it
        for idx in v.real_indices():
            assert v.index_of(v.item_of(int(idx))) == idx

    def test_real_indices_exclude_reserved(self):
        v = Vocab(DOMAIN_X, 0, ["a", "b"])
        ri = list(v.real_indices())
        assert v.mask_index not in ri and v.pad_index not in ri
        assert ri == [2, 3]

    def test_errors(self):
        v = Vocab(DOMAIN_X, 0, ["a"])
        with pytest.raises(KeyError):
            v.index_of("zzz")
        with pytest.raises(IndexError):
            v.item_of(v.mask_index)
        with pytest.raises(IndexError):
            v.item_of(99)


def seq_of(split, uid):
    ui = split.user_ids.index(uid)
    return split.train[ui], split.validation[ui], split.test[ui]


class TestFilterAndSplit:
    def test_leave_one_out_assignment(self):
        pairs = [("a%d" % i, DOMAIN_X) for i in range(5)] + \
                [("b%d" % i, DOMAIN_Y) for i in range(5)]
        events = make_events({"u1": pairs})
        split = filter_and_split(events, min_user_interactions=10, min_per_domain=3)
        train, (vin, vtgt), (tin, ttgt) = seq_of(split, "u1")
        full = [(split.vocab_of(d).index_of(it), d) for it, d in pairs]
        assert train.items == full[:-2]
        assert vin.items == full[:-2] and vtgt == full[-2]
        assert tin.items == full[:-1] and ttgt == full[-1]
        # train plus the two held-out targets reconstructs the history
        assert train.items + [vtgt, ttgt] == full

    def test_thresholds_apply_before_truncation(self):
        # 20 interactions truncated to 15: user passes the >=10 rule on the
        # full history even though a later-filtered view would also pass here;
        # the per-domain rule is what distinguishes: 3 y-events all fall in
        # the truncated-away prefix, yet the user survives.
        pairs = [("b%d" % i, DOMAIN_Y) for i in range(3)] + \
                [("a%d" % i, DOMAIN_X) for i in range(17)]
        events = make_events({"u1": pairs})
        split = filter_and_split(events, min_user_interactions=10, min_per_domain=3,
                                 max_seq_len=15)
        assert split.user_ids == ["u1"]
        train, _, (tin, _) = seq_of(split, "u1")
        # most recent 15 kept: the last 15 x-items
        assert len(tin.items) + 1 == 15
        assert all(d == DOMAIN_X for _, d in train.items)

    def test_truncation_keeps_most_recent(self):
        pairs = [("i%02d" % i, DOMAIN_X if i % 2 else DOMAIN_Y) for i in range(20)]
        events = make_events({"u1": pairs})
        split = filter_and_split(events, min_user_interactions=1, min_per_domain=3,
                                 max_seq_len=15)
        _, _, (tin, ttgt) = seq_of(split, "u1")
        kept = tin.items + [ttgt]
        names = [split.vocab_of(d).item_of(g) for g, d in kept]
        assert names == ["i%02d" % i for i in range(5, 20)]

    def test_total_threshold_drops_user(self):
        events = make_events({
            "keep": [("a%d" % i, DOMAIN_X) for i in range(5)]
                    + [("b%d" % i, DOMAIN_Y) for i in range(5)],
            "drop": [("a0", DOMAIN_X)] * 4 + [("b0", DOMAIN_Y)] * 5,
        })
        split = filter_and_split(events, min_user_interactions=10, min_per_domain=3)
        assert split.user_ids == ["keep"]

    def test_domain_threshold_drops_user(self):
        events = make_events({
            "keep": [("a%d" % i, DOMAIN_X) for i in range(7)]
                    + [("b%d" % i, DOMAIN_Y) for i in range(3)],
            "drop": [("a%d" % i, DOMAIN_X) for i in range(8)]
                    + [("b0", DOMAIN_Y), ("b1", DOMAIN_Y)],
        })
        split = filter_and_split(events, min_user_interactions=10, min_per_domain=3)
        assert split.user_ids == ["keep"]

    def test_min_interactions_floor_of_three(self):
        # permissive threshold still cannot keep unsplittable users
        events = make_events({
            "tiny": [("a0", DOMAIN_X), ("b0", DOMAIN_Y)],
            "ok": [("a0", DOMAIN_X), ("a1", DOMAIN_X), ("a2", DOMAIN_X),
                   ("b0", DOMAIN_Y), ("b1", DOMAIN_Y), ("b2", DOMAIN_Y)],
        })
        split = filter_and_split(events, min_user_interactions=1, min_per_domain=1)
        assert split.user_ids == ["ok"]

    def test_vocab_sorted_and_survivors_only(self):
        events = make_events({
            "keep": [("zz", DOMAIN_X), ("aa", DOMAIN_X), ("mm", DOMAIN_X),
                     ("q1", DOMAIN_Y), ("q0", DOMAIN_Y), ("q2", DOMAIN_Y)],
            "drop": [("ghost", DOMAIN_X)],
        })
        split = filter_and_split(events, min_user_interactions=4, min_per_domain=3)
        assert split.vocab_x.items == ["aa", "mm", "zz"]
        assert split.vocab_y.items == ["q0", "q1", "q2"]
        assert split.vocab_y.base == split.vocab_x.size

    def test_timestamp_order_not_input_order(self):
        events = [InteractionEvent("u1", "late", DOMAIN_X, 100),
                  InteractionEvent("u1", "a", DOMAIN_X, 1),
                  InteractionEvent("u1", "b", DOMAIN_X, 2),
                  InteractionEvent("u1", "c", DOMAIN_Y, 3),
                  InteractionEvent("u1", "d", DOMAIN_Y, 4),
                  InteractionEvent("u1", "e", DOMAIN_Y, 5)]
        split = filter_and_split(events, min_user_interactions=1, min_per_domain=1)
        _, _, (tin, ttgt) = seq_of(split, "u1")
        g, d = ttgt
        assert split.vocab_of(d).item_of(g) == "late"

    def test_no_survivors_names_binding_threshold(self):
        events = make_events({"u1": [("a0", DOMAIN_X)] * 2})
        with pytest.raises(ValueError, match="min_user_interactions=10"):
            filter_and_split(events, min_user_interactions=10, min_per_domain=3)
        events = make_events({"u1": [("a%d" % i, DOMAIN_X) for i in range(12)]})
        with pytest.raises(ValueError, match="min_per_domain=3"):
            filter_and_split(events, min_user_interactions=10, min_per_domain=3)

    def test_max_seq_len_validation(self):
        with pytest.raises(ValueError, match="max_seq_len"):
            filter_and_split([], max_seq_len=2)

    def test_idempotent_on_survivors(self):
        events, _ = generate_synthetic(SyntheticConfig(n_users=30, n_items_x=40,
                                                       n_items_y=40, rng_seed=5))
        split1 = filter_and_split(events)
        survivors = set(split1.user_ids)
        again = [e for e in events if e.user_id in survivors]
        split2 = filter_and_split(again)
        assert split2.user_ids == split1.user_ids
        assert split2.vocab_x.items == split1.vocab_x.items
        assert split2.vocab_y.items == split1.vocab_y.items
        assert [s.items for s in split2.train] == [s.items for s in split1.train]
        assert [t for _, t in split2.test] == [t for _, t in split1.test]

    def test_survival_stats_counts(self):
        events = make_events({
            "a": [("i%d" % i, DOMAIN_X) for i in range(6)]
                 + [("j%d" % i, DOMAIN_Y) for i in range(6)],
            "b": [("i0", DOMAIN_X)] * 5,                      # total < 10
            "c": [("i%d" % i, DOMAIN_X) for i in range(9)]
                 + [("j0", DOMAIN_Y), ("j1", DOMAIN_Y)],      # y-count < 3
        })
        stats = survival_stats(events, min_user_interactions=10, min_per_domain=3)
        assert stats["n_users_total"] == 3
        assert stats["n_users_kept"] == 1
        assert stats["dropped_by_total_threshold"] == 1
        assert stats["dropped_by_domain_threshold"] == 1
        assert stats["n_events"] == len(events)


@pytest.fixture(scope="module")
def aug_vocabs():
    vx = Vocab(DOMAIN_X, 0, ["a%d" % i for i in range(20)])
    vy = Vocab(DOMAIN_Y, vx.size, ["b%d" % i for i in range(20)])
    return vx, vy


def mixed_seq(vx, vy, L=10, seed=3):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(L):
        if i % 2 == 0:
            items.append((int(rng.choice(vx.real_indices())), DOMAIN_X))
        else:
            items.append((int(rng.choice(vy.real_indices())), DOMAIN_Y))
    return UserSequence(0, items)


class TestAugment:
    def test_crop_contiguous(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=10)
        out = augment(seq, AugmentationSpec("crop", 0.4, 1), vx, vy)
        n_keep = math.ceil(0.6 * 10)
        assert len(out) == n_keep
        joined = seq.items
        assert any(out.items == joined[s:s + n_keep]
                   for s in range(10 - n_keep + 1))

    def test_mask_count_and_domain(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=10)
        out = augment(seq, AugmentationSpec("mask", 0.3, 2), vx, vy)
        assert len(out) == 10
        changed = [i for i in range(10) if out.items[i] != seq.items[i]]
        assert len(changed) == math.ceil(0.3 * 10)
        for i in changed:
            g, d = out.items[i]
            assert d == seq.items[i][1]
            assert g == (vx if d == DOMAIN_X else vy).mask_index

    def test_reorder_multiset(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=12)
        out = augment(seq, AugmentationSpec("reorder", 0.5, 7), vx, vy)
        assert len(out) == 12
        assert sorted(out.items) == sorted(seq.items)

    def test_reorder_outside_window_fixed(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=12)
        out = augment(seq, AugmentationSpec("reorder", 0.25, 7), vx, vy)
        n = math.ceil(0.25 * 12)
        diffs = [i for i in range(12) if out.items[i] != seq.items[i]]
        if diffs:
            assert max(diffs) - min(diffs) < n

    def test_substitute_same_domain_real_items(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=10)
        out = augment(seq, AugmentationSpec("substitute", 0.3, 11), vx, vy)
        assert len(out) == 10
        changed = [i for i in range(10) if out.items[i] != seq.items[i]]
        assert len(changed) <= math.ceil(0.3 * 10)   # a draw may repeat the item
        for i in changed:
            g, d = out.items[i]
            assert d == seq.items[i][1]
            assert g in set(int(k) for k in (vx if d == DOMAIN_X else vy).real_indices())

    def test_insert_grows_then_truncates(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=6)
        out = augment(seq, AugmentationSpec("insert", 0.3, 4), vx, vy, max_seq_len=15)
        assert len(out) == 6 + math.ceil(0.3 * 6)
        # originals survive as a subsequence when nothing is truncated
        it = iter(out.items)
        assert all(any(o == c for c in it) for o in seq.items)

    def test_insert_respects_max_len(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=14)
        out = augment(seq, AugmentationSpec("insert", 0.5, 4), vx, vy, max_seq_len=15)
        assert len(out) == 15

    def test_deterministic(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=10)
        for op in AUGMENTATION_OPS:
            a = augment(seq, AugmentationSpec(op, 0.4, 99), vx, vy)
            b = augment(seq, AugmentationSpec(op, 0.4, 99), vx, vy)
            assert a.items == b.items, op

    def test_short_sequence_passthrough(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = UserSequence(0, [(2, DOMAIN_X)])
        out = augment(seq, AugmentationSpec("crop", 0.5, 0), vx, vy)
        assert out.items == seq.items
        assert out.items is not seq.items

    def test_errors(self, aug_vocabs):
        vx, vy = aug_vocabs
        seq = mixed_seq(vx, vy, L=5)
        with pytest.raises(ValueError, match="unknown augmentation"):
            augment(seq, AugmentationSpec("rotate", 0.5, 0), vx, vy)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="rate"):
                augment(seq, AugmentationSpec("crop", bad, 0), vx, vy)

    @settings(max_examples=60, deadline=None)
    @given(op=st.sampled_from(AUGMENTATION_OPS),
           rate=st.floats(0.05, 0.95),
           length=st.integers(2, 15),
           seed=st.integers(0, 2**31 - 1))
    def test_output_always_valid(self, op, rate, length, seed):
        vx = Vocab(DOMAIN_X, 0, ["a%d" % i for i in range(8)])
        vy = Vocab(DOMAIN_Y, vx.size, ["b%d" % i for i in range(8)])
        seq = mixed_seq(vx, vy, L=length, seed=seed % 1000)
        out = augment(seq, AugmentationSpec(op, rate, seed), vx, vy)
        assert 1 <= len(out) <= 15
        for g, d in out.items:
            v = vx if d == DOMAIN_X else vy
            assert v.contains(g)
            assert g != v.pad_index


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_users=20, n_items_x=30, n_items_y=30, rng_seed=4)
        ev1, t1 = generate_synthetic(cfg)
        ev2, t2 = generate_synthetic(cfg)
        assert ev1 == ev2
        assert t1.shared_interest == t2.shared_interest

    def test_sequence_lengths_and_domain_floors(self):
        cfg = SyntheticConfig(n_users=40, n_items_x=30, n_items_y=30,
                              seq_len_range=(8, 12), rng_seed=1)
        events, _ = generate_synthetic(cfg)
        by_user = {}
        for e in events:
            by_user.setdefault(e.user_id, []).append(e)
        assert len(by_user) == 40
        for evs in by_user.values():
            assert 8 <= len(evs) <= 12
            nx = sum(1 for e in evs if e.domain == DOMAIN_X)
            assert nx >= 3 and len(evs) - nx >= 3

    def test_survives_default_filter(self):
        cfg = SyntheticConfig(n_users=25, n_items_x=30, n_items_y=30, rng_seed=2)
        events, _ = generate_synthetic(cfg)
        split = filter_and_split(events)
        assert len(split.user_ids) == 25

    def test_zero_noise_stays_on_cluster(self):
        cfg = SyntheticConfig(n_users=30, n_items_x=36, n_items_y=36,
                              noise_rate=0.0, rng_seed=3)
        events, truth = generate_synthetic(cfg)
        for e in events:
            c = truth.item_cluster[(e.domain, e.item_id)]
            assert c in truth.user_clusters(e.user_id, e.domain)

    def test_noise_rate_recount(self):
        # off-cluster events arise only from the noise branch landing outside
        # the user's clusters; compare the recount to its exact expectation
        cfg = SyntheticConfig(n_users=150, n_items_x=60, n_items_y=60,
                              noise_rate=0.3, rng_seed=6)
        events, truth = generate_synthetic(cfg)
        expected = var = 0.0
        off = 0
        for e in events:
            blocks = truth.user_clusters(e.user_id, e.domain)
            n_in = sum(len(truth.cluster_items[(e.domain, c)]) for c in blocks)
            n_dom = cfg.n_items_x if e.domain == DOMAIN_X else cfg.n_items_y
            p = cfg.noise_rate * (1.0 - n_in / n_dom)
            expected += p
            var += p * (1.0 - p)
            c = truth.item_cluster[(e.domain, e.item_id)]
            off += c not in truth.user_clusters(e.user_id, e.domain)
        assert abs(off - expected) < 5.0 * math.sqrt(var)
        assert off > 0

    def test_cluster_partition(self):
        cfg = SyntheticConfig(n_users=5, n_items_x=30, n_items_y=24, rng_seed=0)
        _, truth = generate_synthetic(cfg)
        n_clusters = cfg.n_shared_interests + cfg.n_specific_interests
        for dom, n_items in ((DOMAIN_X, 30), (DOMAIN_Y, 24)):
            ids = [it for c in range(n_clusters)
                   for it in truth.cluster_items[(dom, c)]]
            assert len(ids) == n_items == len(set(ids))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="seq_len_range"):
            generate_synthetic(SyntheticConfig(seq_len_range=(4, 12)))
        with pytest.raises(ValueError, match="seq_len_range"):
            generate_synthetic(SyntheticConfig(seq_len_range=(12, 20)))
        with pytest.raises(ValueError, match="noise_rate"):
            generate_synthetic(SyntheticConfig(noise_rate=1.5))
        with pytest.raises(ValueError, match="clusters"):
            generate_synthetic(SyntheticConfig(n_items_x=3))
        with pytest.raises(ValueError, match="shared"):
            generate_synthetic(SyntheticConfig(n_shared_interests=0))


class TestRoundTrips:
    def test_events_save_ingest(self, tmp_path):
        cfg = SyntheticConfig(n_users=10, n_items_x=20, n_items_y=20, rng_seed=8)
        events, _ = generate_synthetic(cfg)
        for fmt in ("tsv", "csv"):
            path = str(tmp_path / ("log." + fmt))
            save_events(events, path, fmt=fmt)
            back, errors = ingest_log(path, fmt=fmt)
            assert errors == []
            assert back == events

    def test_ground_truth_round_trip(self, tmp_path):
        cfg = SyntheticConfig(n_users=12, n_items_x=24, n_items_y=24, rng_seed=9)
        _, truth = generate_synthetic(cfg)
        path = str(tmp_path / "truth.json")
        save_ground_truth(truth, path)
        back = load_ground_truth(path)
        assert back.shared_interest == truth.shared_interest
        assert back.specific_interest == truth.specific_interest
        assert back.specific_domain == truth.specific_domain
        assert back.cluster_items == truth.cluster_items
        assert back.item_cluster == truth.item_cluster

    def test_split_round_trip(self, tmp_path, small_split):
        out = str(tmp_path / "split")
        save_split(small_split, out)
        back = load_split(out)
        assert back.user_ids == small_split.user_ids
        assert back.vocab_x.items == small_split.vocab_x.items
        assert back.vocab_y.base == small_split.vocab_y.base
        assert [s.items for s in back.train] == [s.items for s in small_split.train]
        assert [(s.items, t) for s, t in back.validation] == \
               [(s.items, t) for s, t in small_split.validation]
        assert [(s.items, t) for s, t in back.test] == \
               [(s.items, t) for s, t in small_split.test]

    def test_split_version_check(self, tmp_path, small_split):
        out = str(tmp_path / "split")
        save_split(small_split, out)
        import json
        vp = os.path.join(out, "vocab.json")
        with open(vp) as fh:
            head = json.load(fh)
        head["format_version"] = 99
        with open(vp, "w") as fh:
            json.dump(head, fh)
        with pytest.raises(ValueError, match="format version"):
            load_split(out)
