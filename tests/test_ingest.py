import dataclasses
import hashlib
import os

import numpy as np
import pytest

from alignrec import ingest, pipeline
from alignrec.ingest import (Example, GeneratorSpec, IngestError,
                             InteractionDataset, UserRecord)


def write_lines(tmp_path, rows, header="user_id\titem_id\ttimestamp"):
    path = tmp_path / "data.tsv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


class TestLoadTsv:
    def test_sorts_by_timestamp(self, tmp_path):
        path = write_lines(tmp_path, ["u\ta\t30", "u\tb\t10", "u\tc\t20"])
        ds = ingest.load_tsv(path)
        assert ds.users[0].timestamps == [10, 20, 30]
        assert ds.users[0].item_indices == [ds.vocab["b"], ds.vocab["c"], ds.vocab["a"]]

    def test_ties_keep_file_order(self, tmp_path):
        path = write_lines(tmp_path, ["u\ta\t10", "u\tb\t10", "u\tc\t10"])
        ds = ingest.load_tsv(path)
        assert ds.users[0].item_indices == [1, 2, 3]

    def test_interleaved_users_stay_chronological(self, tmp_path):
        path = write_lines(tmp_path, ["u\ta\t5", "v\tb\t1", "u\tc\t2", "v\td\t9"])
        ds = ingest.load_tsv(path)
        by_id = {u.user_id: u for u in ds.users}
        assert by_id["u"].timestamps == [2, 5]
        assert by_id["v"].timestamps == [1, 9]

    def test_non_integer_timestamp_names_line(self, tmp_path):
        path = write_lines(tmp_path, ["u\ta\t10", "u\tb\tnope"])
        with pytest.raises(IngestError, match=":3"):
            ingest.load_tsv(path)

    def test_timestamp_beyond_int64_names_line(self, tmp_path):
        path = write_lines(tmp_path, ["u\ta\t10", f"u\tb\t{2 ** 63 - 1}", f"u\tc\t{2 ** 63}"])
        with pytest.raises(IngestError, match=":4: .*int64"):
            ingest.load_tsv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest.load_tsv(str(path))

    def test_missing_column_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["u\t10"], header="user_id\ttimestamp")
        with pytest.raises(IngestError, match="missing column"):
            ingest.load_tsv(str(path))

    def test_vocab_first_seen_order_with_padding_reserved(self, tmp_path):
        path = write_lines(tmp_path, ["u\tzz\t1", "u\taa\t2", "u\tzz\t3"])
        ds = ingest.load_tsv(path)
        assert ds.vocab == {"zz": 1, "aa": 2}
        assert ds.vocab_size == 3  # padding slot included


HEADER = b"user_id\titem_id\ttimestamp\n"


def write_bytes(tmp_path, data):
    path = tmp_path / "raw.tsv"
    path.write_bytes(data)
    return str(path)


def as_lists(ds):
    return [(u.user_id, u.item_indices, u.timestamps) for u in ds.users], ds.vocab


class TestTsvContract:
    """The accepted TSV format, pinned line break by line break and field by
    field."""

    WANT = ([("u", [1, 2], [1, 2]), ("v", [3], [5])], {"a": 1, "b": 2, "c": 3})

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_line_breaks(self, tmp_path, eol):
        data = eol.join([b"user_id\titem_id\ttimestamp", b"u\ta\t1", b"u\tb\t2",
                         b"v\tc\t5"]) + eol
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_mixed_line_breaks(self, tmp_path):
        data = HEADER + b"u\ta\t1\r\nu\tb\t2\rv\tc\t5\n"
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_no_final_newline(self, tmp_path):
        data = HEADER + b"u\ta\t1\nu\tb\t2\nv\tc\t5"
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        data = (HEADER + b"\nu\ta\t1\n   \n\t\t\nu\tb\t2\n \t \n\xe3\x80\x80\n"
                b"v\tc\t5\n\n")
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_skipped_lines_still_count_for_line_numbers(self, tmp_path):
        data = HEADER + b"u\ta\t1\n\n\t\t\nu\tb\tnope\n"
        with pytest.raises(IngestError, match=r"raw\.tsv:5: timestamp 'nope' is not an integer$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    def test_extra_columns(self, tmp_path):
        data = (b"user_id\titem_id\ttimestamp\tnote\n"
                b"u\ta\t1\tx\nu\tb\t2\t\nv\tc\t5\ty\tz\n")
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_header_in_another_column_order(self, tmp_path):
        data = b"timestamp\tnote\titem_id\tuser_id\n1\t\ta\tu\n2\t\tb\tu\n5\t\tc\tv\n"
        assert as_lists(ingest.load_tsv(write_bytes(tmp_path, data))) == self.WANT

    def test_ids_are_taken_verbatim(self, tmp_path):
        data = HEADER + b"u\ta\t1\nu \ta\t2\nu\t a\t3\n"
        users, vocab = as_lists(ingest.load_tsv(write_bytes(tmp_path, data)))
        assert users == [("u", [1, 2], [1, 3]), ("u ", [1], [2])]
        assert vocab == {"a": 1, " a": 2}

    def test_non_ascii_ids(self, tmp_path):
        data = HEADER + "usér\títem☃\t3\n用户\t物品\t1\nusér\t物品\t2\n".encode()
        users, vocab = as_lists(ingest.load_tsv(write_bytes(tmp_path, data)))
        assert users == [("usér", [2, 1], [2, 3]), ("用户", [2], [1])]
        assert vocab == {"ítem☃": 1, "物品": 2}

    @pytest.mark.parametrize("raw, value", [
        (b" 12", 12), (b"12 ", 12), (b"+12", 12), (b"1_000", 1000), (b"007", 7),
        (b"0", 0), (b"999999999999999999", 10 ** 18 - 1),
        (b"1000000000000000000", 10 ** 18),
        (b"9223372036854775807", 2 ** 63 - 1)])
    def test_timestamp_spellings(self, tmp_path, raw, value):
        data = HEADER + b"u\ta\t" + raw + b"\n"
        users, _ = as_lists(ingest.load_tsv(write_bytes(tmp_path, data)))
        assert users == [("u", [1], [value])]

    def test_too_few_columns(self, tmp_path):
        data = HEADER + b"u\ta\t1\nu\tb\n"
        with pytest.raises(IngestError, match=r"raw\.tsv:3: expected 3 columns, got 2$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    def test_too_few_columns_for_a_reordered_header(self, tmp_path):
        data = b"item_id\tuser_id\tnote\ttimestamp\na\tu\t\t1\na\tu\t2\n"
        with pytest.raises(IngestError, match=r"raw\.tsv:3: expected 4 columns, got 3$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    def test_negative_timestamp(self, tmp_path):
        data = HEADER + b"u\ta\t1\nu\tb\t-5\n"
        with pytest.raises(IngestError, match=r"raw\.tsv:3: negative timestamp -5$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    def test_first_bad_line_is_named(self, tmp_path):
        data = HEADER + b"u\ta\t-1\nu\tb\n"
        with pytest.raises(IngestError, match=r"raw\.tsv:2: negative timestamp -1$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    def test_not_utf8(self, tmp_path):
        data = HEADER + b"u\t\xff\t1\n"
        with pytest.raises(IngestError, match=r"raw\.tsv: not UTF-8 text \(invalid start byte\)$"):
            ingest.load_tsv(write_bytes(tmp_path, data))

    @pytest.mark.parametrize("data", [HEADER[:-1], HEADER, HEADER + b"\n",
                                      HEADER + b"\n \n\t\t\n"])
    def test_header_only(self, tmp_path, data):
        with pytest.raises(IngestError, match=r"raw\.tsv: no data rows$"):
            ingest.load_tsv(write_bytes(tmp_path, data))


def mk_user(uid, items, start=0, step=10):
    return UserRecord(uid, list(items), [start + step * i for i in range(len(items))])


def random_filter_input(rng):
    """(users, vocab) with users of 2 to 7 events and a long tail of rare
    items, so that pruning at k=4 often takes several rounds."""
    users = []
    for u in range(int(rng.integers(15, 40))):
        n = int(rng.integers(2, 8))
        tss = np.cumsum(rng.integers(0, 5, n)).tolist()
        users.append(UserRecord(f"u{u}", rng.geometric(0.1, n).tolist(), tss))
    top = max(max(u.item_indices) for u in users)
    return users, {f"i{j}": j for j in range(1, top + 1)}


def brute_force_filter(users, vocab, k):
    """(user id, item ids, timestamps) of each kept user, the vocabulary
    re-densified in first-seen order, and the number of item-pruning rounds,
    by alternating the two filters until nothing changes."""
    name = {v: key for key, v in vocab.items()}
    recs = {u.user_id: list(zip(u.item_indices, u.timestamps)) for u in users}
    rounds = 0
    while True:
        recs = {uid: r for uid, r in recs.items() if len(r) >= k}
        counts = {}
        for r in recs.values():
            for it, _ in r:
                counts[it] = counts.get(it, 0) + 1
        bad = {it for it, c in counts.items() if c < k}
        if not bad:
            break
        rounds += 1
        recs = {uid: [(it, ts) for it, ts in r if it not in bad] for uid, r in recs.items()}
    new_vocab = {}
    for r in recs.values():
        for it, _ in r:
            new_vocab.setdefault(name[it], len(new_vocab) + 1)
    kept = [(uid, [name[it] for it, _ in r], [ts for _, ts in r]) for uid, r in recs.items()]
    return kept, new_vocab, rounds


class TestFilter:
    def test_short_user_removed(self):
        ds = InteractionDataset.of(
            [mk_user("long1", [1, 2] * 5), mk_user("long2", [1, 2] * 5),
             mk_user("short", [1, 2] * 4 + [1])],
            {"a": 1, "b": 2})
        out = ingest.filter_min_interactions(ds, 10)
        assert [u.user_id for u in out.users] == ["long1", "long2"]

    def test_fixpoint_identity(self):
        ds = InteractionDataset.of(
            [mk_user(f"u{i}", [1, 2, 3] * 3) for i in range(3)],
            {"a": 1, "b": 2, "c": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert [u.item_indices for u in out.users] == [u.item_indices for u in ds.users]

    def test_cascading_removal_reaches_fixpoint(self):
        # dropping the rare item pushes user a below threshold on the next sweep
        users = [
            mk_user("a", [1, 2, 1, 2, 3]),
            mk_user("b", [1, 2, 1, 2, 1]),
            mk_user("c", [1, 2, 1, 2, 2]),
        ]
        cases = [(users, {"x": 1, "y": 2, "z": 3}, 5)]
        for seed in range(10):
            cases.append((*random_filter_input(np.random.default_rng(seed)), 4))
        kept, rounds = [], []
        for users, vocab, k in cases:
            ds = InteractionDataset.of(users, vocab)
            want, want_vocab, n = brute_force_filter(users, vocab, k)
            kept.append([uid for uid, _, _ in want])
            rounds.append(n)
            if not want:
                with pytest.raises(IngestError, match="exhausted"):
                    ingest.filter_min_interactions(ds, k)
                continue
            out = ingest.filter_min_interactions(ds, k)
            back = {v: key for key, v in out.vocab.items()}
            got = [(u.user_id, [back[i] for i in u.item_indices], u.timestamps)
                   for u in out.users]
            assert got == want
            assert list(out.vocab.items()) == list(want_vocab.items())
        assert kept[0] == ["b", "c"]
        assert max(rounds) >= 3

    def test_two_pruning_rounds(self):
        # item 3 is rare; pruning it drops u1, which leaves item 2 rare; pruning
        # that drops u2 and u3
        users = [mk_user("u1", [3, 2, 1]), mk_user("u2", [2, 1, 1]),
                 mk_user("u3", [2, 1, 1]), mk_user("u4", [1, 1, 1, 1])]
        ds = InteractionDataset.of(users, {"x": 1, "y": 2, "z": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert [u.user_id for u in out.users] == ["u4"]
        assert out.vocab == {"x": 1}
        assert out.users[0].item_indices == [1, 1, 1, 1]

    def test_exhausted_dataset_raises(self):
        ds = InteractionDataset.of([mk_user("u", [1, 2, 3])], {"a": 1, "b": 2, "c": 3})
        with pytest.raises(IngestError, match="exhausted"):
            ingest.filter_min_interactions(ds, 4)

    def test_k_below_three_rejected(self):
        ds = InteractionDataset.of([mk_user("u", [1] * 5)], {"a": 1})
        with pytest.raises(IngestError):
            ingest.filter_min_interactions(ds, 2)

    def test_vocab_redensified(self):
        users = [mk_user("a", [1, 3, 1, 3, 1, 3, 1, 3, 3]),
                 mk_user("b", [1, 3, 1, 3, 1, 3, 1, 3, 1])]
        ds = InteractionDataset.of(users, {"x": 1, "y": 2, "z": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert sorted(out.vocab.values()) == list(range(1, len(out.vocab) + 1))


class TestSplit:
    def test_four_item_user(self):
        ds = InteractionDataset.of([mk_user("u", [1, 2, 3, 4])],
                                   {"a": 1, "b": 2, "c": 3, "d": 4})
        sp = ingest.leave_one_out_split(ds)
        assert sp.test[0].items == [1, 2, 3] and sp.test[0].target_item == 4
        assert sp.valid[0].items == [1, 2] and sp.valid[0].target_item == 3
        assert len(sp.train) == 1
        assert sp.train[0].items == [1] and sp.train[0].target_item == 2

    def test_three_item_user_has_no_train_pair(self):
        # the remaining prefix after holding out valid+test is a single item,
        # which cannot form an input->target pair
        ds = InteractionDataset.of([mk_user("u", [1, 2, 3])],
                                   {"a": 1, "b": 2, "c": 3})
        sp = ingest.leave_one_out_split(ds)
        assert len(sp.train) == 0
        assert sp.valid[0].target_item == 2 and sp.test[0].target_item == 3

    def test_pair_count_matches_enumeration(self, rng):
        users = []
        for i in range(100):
            n = int(rng.integers(3, 12))
            users.append(mk_user(f"u{i}", rng.integers(1, 9, n).tolist()))
        ds = InteractionDataset.of(users, {f"i{j}": j for j in range(1, 9)})
        sp = ingest.leave_one_out_split(ds)
        assert len(sp.train) == sum(max(0, len(u.item_indices) - 3) for u in users)

    def test_too_short_user_rejected(self):
        ds = InteractionDataset.of([mk_user("u", [1, 2])], {"a": 1, "b": 2})
        with pytest.raises(IngestError):
            ingest.leave_one_out_split(ds)

    def test_round_trip_multiset(self, rng):
        users = []
        for i in range(30):
            n = int(rng.integers(3, 9))
            users.append(mk_user(f"u{i}", rng.integers(1, 7, n).tolist(), start=i * 1000))
        ds = InteractionDataset.of(users, {f"i{j}": j for j in range(1, 7)})
        sp = ingest.leave_one_out_split(ds)
        seen = []
        for ex in [*sp.train, *sp.valid, *sp.test]:
            seen.append((ex.user_id, ex.target_item, ex.target_timestamp))
        for ex in sp.test:  # each user appears once in test; add its first item
            seen.append((ex.user_id, ex.items[0], ex.timestamps[0]))
        want = [(u.user_id, it, ts) for u in users
                for it, ts in zip(u.item_indices, u.timestamps)]
        assert sorted(seen) == sorted(want)


class TestBatches:
    def test_interval_vector(self):
        ex = Example("u", [5, 6, 7], [100, 160, 220], 9, 400)
        b = ingest.make_batches([ex], max_len=5, batch_size=4)[0]
        assert np.array_equal(b.T[0], [0.0, 60.0, 60.0, 180.0])
        assert np.array_equal(b.t_elig[0], [False, True, True, True])

    def test_truncation_keeps_most_recent(self):
        ex = Example("u", [1, 2, 3, 4, 5], [10, 20, 30, 40, 50], 6, 99)
        b = ingest.make_batches([ex], max_len=3, batch_size=1)[0]
        assert np.array_equal(b.items[0], [3, 4, 5])
        assert np.array_equal(b.T[0], [0.0, 10.0, 10.0, 49.0])

    def test_single_item_input(self):
        ex = Example("u", [3], [100], 5, 150)
        b = ingest.make_batches([ex], max_len=4, batch_size=1)[0]
        assert b.seq_len == 1
        assert np.array_equal(b.T[0], [0.0, 50.0])

    def test_non_causal_target_rejected(self):
        ex = Example("u", [1, 2], [100, 200], 3, 150)
        with pytest.raises(IngestError, match="non-causal"):
            ingest.make_batches([ex], max_len=4, batch_size=1)

    def test_non_causal_message_names_the_first_offending_row(self):
        exs = [Example("u", [1], [10], 2, 20), Example("v", [1, 2], [100, 200], 3, 150),
               Example("w", [1], [500], 2, 400)]
        with pytest.raises(IngestError, match="user v: target at 150 before last input at 200"):
            ingest.make_batches(exs, max_len=4, batch_size=4)

    @pytest.mark.parametrize("fn", [
        lambda exs: ingest.make_batches(exs, max_len=4, batch_size=4),
        ingest.median_positive_interval])
    def test_example_without_input_items_rejected(self, fn):
        exs = [Example("u", [1], [10], 2, 20), Example("v", [], [], 3, 150)]
        with pytest.raises(IngestError, match="example for user v: 0 input items"):
            fn(exs)

    def test_left_padding_layout(self):
        exs = [Example("u", [1, 2, 3], [10, 20, 30], 4, 99),
               Example("v", [5], [50], 6, 60)]
        b = ingest.make_batches(exs, max_len=4, batch_size=4)[0]
        assert np.array_equal(b.items[1], [0, 0, 5])
        assert np.array_equal(b.mask[1], [False, False, True])
        assert np.all(b.mask[:, -1])   # every row's last item is the last column
        assert np.all(b.items[~b.mask] == 0)
        assert np.array_equal(b.T[1], [0.0, 0.0, 0.0, 10.0])
        assert np.array_equal(b.t_elig[1], [False, False, False, True])

    @pytest.mark.parametrize("side", ["right", "up"])
    def test_only_left_padding_accepted(self, side):
        ex = Example("u", [1, 2], [10, 20], 3, 30)
        with pytest.raises(IngestError, match="pad_side must be left"):
            ingest.make_batches([ex], max_len=4, batch_size=1, pad_side=side)

    def test_interval_entries_non_negative(self, rng):
        from conftest import random_examples
        exs = random_examples(rng, n_examples=30, max_len=8)
        for b in ingest.make_batches(exs, max_len=6, batch_size=7):
            assert np.all(b.T[b.t_elig] >= 0.0)
            assert np.all(b.T[~b.t_elig] == 0.0)
            # first valid position carries an explicit zero
            for i in range(b.size):
                first = b.seq_len - int(b.mask[i].sum())
                assert b.T[i, first] == 0.0


class TestSegments:
    def mk(self, stamps):
        return [Example(f"u{i}", [1], [0], 1, ts) for i, ts in enumerate(stamps)]

    def test_even_split(self):
        segs = ingest.segment_indices_by_time(self.mk(range(8)), 4)
        assert [len(s) for s in segs] == [2, 2, 2, 2]

    def test_remainder_goes_to_early_segments(self):
        segs = ingest.segment_indices_by_time(self.mk(range(10)), 4)
        assert [len(s) for s in segs] == [3, 3, 2, 2]

    def test_equal_timestamps_keep_stable_order(self):
        exs = self.mk([7] * 10)
        segs = ingest.segment_indices_by_time(exs, 4)
        flat = [exs[i].user_id for s in segs for i in s]
        assert flat == [e.user_id for e in exs]

    def test_concatenation_is_sorted_input(self, rng):
        exs = self.mk(rng.integers(0, 1000, 23).tolist())
        segs = ingest.segment_indices_by_time(exs, 4)
        flat = [exs[i].target_timestamp for s in segs for i in s]
        assert flat == sorted(e.target_timestamp for e in exs)

    def test_groups_are_contiguous_runs_of_the_sorted_order(self, rng):
        for n in range(2, 24):
            exs = self.mk(rng.integers(0, 50, n).tolist())
            order = sorted(range(n), key=lambda i: exs[i].target_timestamp)
            for k in range(2, n + 1):
                segs = ingest.segment_indices_by_time(exs, k)
                sizes = [n // k + (g < n % k) for g in range(k)]
                starts = np.cumsum([0] + sizes).tolist()
                assert segs == [order[a:b] for a, b in zip(starts, starts[1:])]
                assert all(type(i) is int for s in segs for i in s)

    def test_k_larger_than_test_rejected(self):
        with pytest.raises(IngestError, match="segment_indices_by_time"):
            ingest.segment_indices_by_time(self.mk([1, 2]), 3)

    def test_k_below_two_rejected(self):
        with pytest.raises(IngestError, match="segment_indices_by_time"):
            ingest.segment_indices_by_time(self.mk([1, 2]), 1)


class TestGenerator:
    def test_deterministic_under_seed(self):
        spec = GeneratorSpec(n_users=20, n_items=30, n_clusters=3,
                             min_events=8, max_events=12)
        a = ingest.synth_shift_generate(spec, seed=9)
        b = ingest.synth_shift_generate(spec, seed=9)
        assert all(u.item_indices == v.item_indices and u.timestamps == v.timestamps
                   for u, v in zip(a.users, b.users))

    def test_different_seed_differs(self):
        spec = GeneratorSpec(n_users=20, n_items=30, n_clusters=3,
                             min_events=8, max_events=12)
        a = ingest.synth_shift_generate(spec, seed=1)
        b = ingest.synth_shift_generate(spec, seed=2)
        assert any(u.item_indices != v.item_indices for u, v in zip(a.users, b.users))

    def test_degenerate_single_cluster_regimes(self):
        spec = GeneratorSpec(n_users=25, n_items=10, n_clusters=2, noise_rate=0.0,
                             regime_weights=[[1, 0], [0, 1]], min_events=8,
                             max_events=14, walk_persistence=1.0)
        ds = ingest.synth_shift_generate(spec, seed=3)
        switch = spec.switch_frac * spec.horizon
        for u in ds.users:
            for it, ts in zip(u.item_indices, u.timestamps):
                assert (1 <= it <= 5) if ts < switch else (6 <= it <= 10)

    def test_strictly_increasing_timestamps(self):
        spec = GeneratorSpec(n_users=40, n_items=24, n_clusters=4,
                             min_events=10, max_events=30)
        ds = ingest.synth_shift_generate(spec, seed=5)
        for u in ds.users:
            assert all(b > a for a, b in zip(u.timestamps, u.timestamps[1:]))

    def test_fewer_items_than_clusters_rejected(self):
        with pytest.raises(IngestError):
            ingest.synth_shift_generate(
                GeneratorSpec(n_items=3, n_clusters=5), seed=0)

    def test_tsv_round_trip(self, tmp_path):
        spec = GeneratorSpec(n_users=10, n_items=12, n_clusters=3,
                             min_events=5, max_events=8)
        ds = ingest.synth_shift_generate(spec, seed=4)
        path = tmp_path / "ds.tsv"
        ingest.write_tsv(ds, str(path))
        assert events(ingest.load_tsv(str(path))) == events(ds)

    @pytest.mark.parametrize("generator, digest", [
        (pipeline.SHIFT_EXPERIMENT_CONFIG["data"]["generator"],
         "bc38a4c990b6018fd4ad3f10c6701f7e75d14d9af3f4c9eede9ef73deeb5cb54"),
        # tools/byte_identity.py's tiny shapes
        ({"n_users": 40, "n_items": 30, "n_clusters": 3, "min_events": 8, "max_events": 12},
         "1a4a65481ab1e844641430025acf5978f1902cb1b7618967b8faa3f0b1544cbc"),
    ])
    def test_written_bytes_are_pinned(self, tmp_path, generator, digest):
        # the data of acceptance criteria 6 and 7 and of the benchmark's inputs
        path = tmp_path / "ds.tsv"
        ingest.write_tsv(ingest.synth_shift_generate(GeneratorSpec(**generator), seed=0),
                         str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def events(ds):
    """(user id, item id, timestamp) of every event, in the dataset's order."""
    name = {v: k for k, v in ds.vocab.items()}
    return [(u.user_id, name[i], t) for u in ds.users
            for i, t in zip(u.item_indices, u.timestamps)]


def test_median_positive_interval():
    exs = [Example("u", [1, 2, 3], [0, 10, 40], 4, 100)]
    # gaps 10, 30, 60 -> median 30
    assert ingest.median_positive_interval(exs) == 30.0


# ---------------------------------------------------------------------------
# the per-example loops that batching and the lambda median replaced, kept as
# references: the flat versions must agree with them exactly


def loop_build_batch(chunk, max_len):
    m = len(chunk)
    trimmed = [(ex.items[-max_len:], ex.timestamps[-max_len:], ex) for ex in chunk]
    L = max(len(items) for items, _, _ in trimmed)
    items_m = np.full((m, L), ingest.PAD_INDEX, dtype=np.int64)
    mask = np.zeros((m, L), dtype=bool)
    tgt_item = np.zeros(m, dtype=np.int64)
    T = np.zeros((m, L + 1), dtype=np.float64)
    elig = np.zeros((m, L + 1), dtype=bool)
    for i, (items, tss, ex) in enumerate(trimmed):
        lo = L - len(items)
        items_m[i, lo:] = items
        mask[i, lo:] = True
        tgt_item[i] = ex.target_item
        T[i, lo + 1:L] = np.diff(np.asarray(tss, dtype=np.int64))
        elig[i, lo + 1:L] = True
        T[i, L] = float(int(ex.target_timestamp) - int(tss[-1]))
        elig[i, L] = True
    return items_m, mask, tgt_item, T, elig


def loop_median_positive_interval(examples):
    gaps = []
    for ex in examples:
        tss = ex.timestamps
        gaps += [b - a for a, b in zip(tss, tss[1:]) if b - a > 0]
        if ex.target_timestamp - tss[-1] > 0:
            gaps.append(ex.target_timestamp - tss[-1])
    if not gaps:
        return 1.0
    return float(np.median(np.asarray(gaps, dtype=np.float64)))


def random_split(rng, n_users, max_events, t_choices):
    users = []
    for u in range(n_users):
        n = int(rng.integers(3, max_events + 1))
        tss = np.cumsum(rng.choice(t_choices, n)).tolist()   # ties and zero gaps
        users.append(UserRecord(f"u{u}", rng.integers(1, 9, n).tolist(), tss))
    return ingest.leave_one_out_split(
        InteractionDataset.of(users, {f"i{j}": j for j in range(1, 9)}))


def assert_batches_match_loop(examples, max_len, batch_size):
    ex_list = list(examples)
    got = ingest.make_batches(examples, max_len=max_len, batch_size=batch_size)
    assert len(got) == -(-len(ex_list) // batch_size)
    for k, b in enumerate(got):
        want = loop_build_batch(ex_list[k * batch_size:(k + 1) * batch_size], max_len)
        for name, w in zip(("items", "mask", "target_item", "T", "t_elig"), want):
            g = getattr(b, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name


class TestAgainstLoops:
    @pytest.mark.parametrize("max_len", [1, 2, 3, 6, 50])
    def test_split_batches_match_loop(self, max_len):
        rng = np.random.default_rng(max_len)
        sp = random_split(rng, n_users=25, max_events=30, t_choices=[0, 1, 7, 300])
        for part in (sp.train, sp.valid, sp.test):
            assert_batches_match_loop(part, max_len, batch_size=16)
        order = rng.permutation(len(sp.train))
        assert_batches_match_loop(sp.train[order], max_len, batch_size=16)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 6, 50])
    def test_example_list_batches_match_loop(self, max_len, rng):
        from conftest import random_examples
        exs = random_examples(rng, n_examples=40, min_len=1, max_len=12)
        assert_batches_match_loop(exs, max_len, batch_size=7)

    @pytest.mark.parametrize("t_choices", [[0, 1, 7, 300], [0, 0, 5], [3], [0]])
    def test_median_matches_loop(self, t_choices):
        rng = np.random.default_rng(len(t_choices))
        for _ in range(30):
            sp = random_split(rng, n_users=int(rng.integers(1, 8)), max_events=12,
                              t_choices=t_choices)
            for part in (sp.train, sp.valid, sp.test, sp.train[::2]):
                assert (ingest.median_positive_interval(part)
                        == loop_median_positive_interval(list(part)))

    def test_all_zero_gaps_give_one(self):
        sp = random_split(np.random.default_rng(0), n_users=5, max_events=9, t_choices=[0])
        assert ingest.median_positive_interval(sp.train) == 1.0

    def test_example_list_median_matches_loop(self, rng):
        from conftest import random_examples
        for n in range(1, 12):
            exs = random_examples(rng, n_examples=n, min_len=1, max_len=9)
            assert ingest.median_positive_interval(exs) == loop_median_positive_interval(exs)


class TestExamples:
    def test_parts_share_one_copy_of_the_events(self):
        ds = InteractionDataset.of([mk_user("u", [1, 2, 3, 4, 5]), mk_user("v", [6, 7, 8])],
                                   {f"i{j}": j for j in range(1, 9)})
        sp = ingest.leave_one_out_split(ds)
        assert sp.test.items is ds.items and sp.test.times is ds.times
        assert sp.train.items is sp.test.items and sp.valid.times is sp.test.times
        assert [ex.items for ex in sp.train] == [[1], [1, 2]]
        sub = sp.test[np.array([1])]
        assert len(sub) == 1 and sub[0] == Example("v", [6, 7], [0, 10], 8, 20)
        assert sub.items is sp.test.items
        assert [ex.user_id for ex in sp.valid[-1:]] == ["v"]

    def test_load_filter_split_build_no_user_records(self, tmp_path, monkeypatch):
        spec = GeneratorSpec(n_users=30, n_items=40, n_clusters=4, min_events=4, max_events=9)
        path = str(tmp_path / "ds.tsv")
        ingest.write_tsv(ingest.synth_shift_generate(spec, seed=2), path)

        def refuse(*args):
            raise AssertionError("a UserRecord was built")
        monkeypatch.setattr(ingest, "UserRecord", refuse)
        loaded = ingest.load_tsv(path)
        ds = ingest.filter_min_interactions(loaded, 3)
        sp = ingest.leave_one_out_split(ds)
        assert len(sp.test) == len(ds.user_ids) and sp.test.items is ds.items

    def test_of_is_identity_on_examples(self, rng):
        from conftest import random_examples
        exs = random_examples(rng, n_examples=5)
        flat = ingest.Examples.of(exs)
        assert ingest.Examples.of(flat) is flat
        assert list(flat) == exs

    def test_split_and_median_use_linear_memory(self):
        import tracemalloc
        ds = InteractionDataset.of([mk_user("u", [1 + i % 7 for i in range(3000)])],
                                   {f"i{j}": j for j in range(1, 8)})
        tracemalloc.start()
        try:
            sp = ingest.leave_one_out_split(ds)
            lam = ingest.median_positive_interval(sp.train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam == 10.0 and len(sp.train) == 2997
        assert peak < 2 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# the byte parse and the block batching against the per-line loop and the
# per-chunk batch they replaced: both must agree with them exactly

ID_CHARS = ["a", "b", "z", "0", "9", " ", "-", "é", "☃", "用"]


def random_id(rng):
    # up to 12 characters and 36 bytes, so keys span several 8-byte words
    return "".join(rng.choice(ID_CHARS, int(rng.integers(0, 13))))


def random_tsv_lines(rng):
    """Header and data lines of a regular TSV: columns in random order among
    extra ones, ids of mixed lengths and scripts (empty ones included),
    timestamps with ties and leading zeros, rows grouped by user, grouped
    and sorted, or shuffled."""
    header = list(ingest.TSV_COLUMNS) + ["note", "x"][:int(rng.integers(0, 3))]
    header = [header[i] for i in rng.permutation(len(header))]
    users = [random_id(rng) for _ in range(int(rng.integers(1, 12)))]
    items = [random_id(rng) for _ in range(int(rng.integers(1, 30)))]
    hi = int(rng.choice([3, 1000, 10 ** 18]))
    rows = []
    for _ in range(int(rng.integers(1, 150))):
        ts = str(int(rng.integers(0, hi)))
        if rng.random() < 0.1:
            ts = ts.zfill(min(18, len(ts) + 3))
        row = {"user_id": rng.choice(users), "item_id": rng.choice(items), "timestamp": ts,
               "note": random_id(rng), "x": ""}
        rows.append([row[c] for c in header])
    u, t = header.index("user_id"), header.index("timestamp")
    order = rng.integers(0, 3)               # shuffled, grouped by user, or also by time
    if order == 1:
        rows.sort(key=lambda r: users.index(r[u]))
    if order == 2:
        rows.sort(key=lambda r: (users.index(r[u]), int(r[t])))
    return ["\t".join(header)] + ["\t".join(r) for r in rows]


def on_line(change):
    def edit(lines, i):
        lines[i] = change(lines[i])
    return edit


def on_field(name, change):
    def edit(lines, i):
        parts = lines[i].split("\t")
        c = lines[0].split("\t").index(name)
        parts[c] = change(parts[c])
        lines[i] = "\t".join(parts)
    return edit


def inserted(make):
    def edit(lines, i):
        lines.insert(i, make(lines[0].count("\t")))
    return edit


def merged_with_next(lines, i):
    lines[i:i + 2] = ["\r".join(lines[i:i + 2])]


# edits of data line i, each of which makes a regular file irregular
IRREGULAR = {
    "crlf": on_line(lambda line: line + "\r"),
    "lone-cr": merged_with_next,
    "blank": inserted(lambda tabs: ""),
    "spaces": inserted(lambda tabs: "  "),
    "tabs-only": inserted(lambda tabs: "\t" * tabs),
    "tab-and-space-only": inserted(lambda tabs: " \t" * tabs),
    "extra-column": on_line(lambda line: line + "\textra"),
    "too-few-columns": on_line(lambda line: line.rsplit("\t", 1)[0]),
    **{f"timestamp-{name}": on_field("timestamp", lambda v, new=new: new) for name, new in [
        ("space-before", " 12"), ("space-after", "12 "), ("plus", "+12"),
        ("underscore", "1_000"), ("19-digits", "1234567890123456789"),
        ("int64-overflow", str(2 ** 63)), ("negative", "-3"), ("empty", ""),
        ("word", "soon")]},
    **{f"id-with-{ord(c):x}": on_field("item_id", lambda v, c=c: v[:1] + c + v[1:])
       for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\0\x1f"},
}


def outcome(load):
    """(users, vocab items in order) of a load, or its error message."""
    try:
        ds = load()
    except IngestError as e:
        return str(e)
    return ([(u.user_id, u.item_indices, u.timestamps) for u in ds.users],
            list(ds.vocab.items()))


def reference_outcome(path):
    """The per-line loop, fed the file as load_tsv always read it."""
    def load():
        with open(path, encoding="utf-8") as fh:
            return ingest._load_lines(path, fh.read().splitlines())
    return outcome(load)


def write_tsv_text(tmp_path, lines, rng):
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    return write_bytes(tmp_path, text.encode("utf-8"))


class TestByteParse:
    @pytest.mark.parametrize("seed", range(40))
    def test_regular_files_match_the_line_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = write_tsv_text(tmp_path, random_tsv_lines(rng), rng)
        with open(path, "rb") as fh:
            assert ingest._parse_regular(path, fh.read()) is not None
        got = outcome(lambda: ingest.load_tsv(path))
        assert not isinstance(got, str) and got == reference_outcome(path)

    @pytest.mark.parametrize("kind", sorted(IRREGULAR))
    def test_irregular_files_match_the_line_loop(self, tmp_path, kind):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            lines = random_tsv_lines(rng)
            lines.append(lines[-1])              # at least two data lines
            IRREGULAR[kind](lines, int(rng.integers(1, len(lines) - 1)))
            path = write_tsv_text(tmp_path, lines, rng)
            with open(path, "rb") as fh:
                assert ingest._parse_regular(path, fh.read()) is None
            assert outcome(lambda: ingest.load_tsv(path)) == reference_outcome(path)

    def test_ids_near_the_end_of_the_file(self, tmp_path):
        # the last fields sit inside the file's final 8 bytes
        for tail in (b"u\ta\t1", b"u\ta\t1\n", b"uu\tbbbbbbbbb\t7", b"\t\t0\n"):
            path = write_bytes(tmp_path, HEADER + b"v\tlonger-item-id\t3\n" + tail)
            assert outcome(lambda: ingest.load_tsv(path)) == reference_outcome(path)

    def test_traced_peak_at_the_catalog_shape(self, tmp_path):
        import tracemalloc
        # the generator shape of the adapt-catalog benchmark: about 80k lines
        spec = GeneratorSpec(n_users=2500, n_items=20000, n_clusters=8,
                             min_events=24, max_events=40, noise_rate=0.3)
        path = str(tmp_path / "catalog.tsv")
        ingest.write_tsv(ingest.synth_shift_generate(spec, seed=1), path)
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            ds = ingest.load_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_interactions > 75_000
        assert peak <= 10 * size, f"traced peak {peak / size:.1f}x the file's size"


class TestBlockBatches:
    @pytest.mark.parametrize("batch_size", [1, 7, 8, 256])
    @pytest.mark.parametrize("max_len", [3, 50])
    def test_matches_build_batch_per_chunk(self, batch_size, max_len):
        rng = np.random.default_rng(batch_size * 100 + max_len)
        sp = random_split(rng, n_users=120, max_events=30, t_choices=[0, 1, 7, 300])
        for part in (sp.train, sp.test, sp.train[rng.permutation(len(sp.train))]):
            got = ingest.make_batches(part, max_len=max_len, batch_size=batch_size)
            assert len(got) == -(-len(part) // batch_size)
            for k, b in enumerate(got):
                want = ingest._build_batch(part[k * batch_size:(k + 1) * batch_size], max_len)
                for f in dataclasses.fields(ingest.Batch):
                    g, w = getattr(b, f.name), getattr(want, f.name)
                    assert g.dtype == w.dtype and np.array_equal(g, w), f.name
                    assert g.flags.c_contiguous and g.flags.owndata, f.name

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 100, 255, 256, 257, 300])
    @pytest.mark.parametrize("max_len", [1, 4, 50])
    def test_time_loss_columns_are_false_then_mask(self, batch_size, max_len):
        rng = np.random.default_rng(batch_size + max_len)
        sp = random_split(rng, n_users=60, max_events=30, t_choices=[0, 1, 7, 300])
        part = sp.train[rng.permutation(len(sp.train))]
        got = ingest.make_batches(part, max_len=max_len, batch_size=batch_size)
        for k, b in enumerate(got):
            chunk = list(part[k * batch_size:(k + 1) * batch_size])
            want = loop_build_batch(chunk, max_len)[4]
            assert np.array_equal(b.t_elig, want)
            assert np.array_equal(b.t_elig, np.hstack([np.zeros((b.size, 1), bool), b.mask]))

    def test_batch_stores_four_arrays(self):
        names = [f.name for f in dataclasses.fields(ingest.Batch)]
        assert names == ["items", "mask", "target_item", "T"]

    def test_non_causal_message_names_the_first_offending_row_of_a_later_block(self):
        ok = [Example(f"u{i}", [1], [10], 2, 20) for i in range(ingest._BATCH_BLOCK_ROWS + 5)]
        bad = [Example("v", [1, 2], [100, 200], 3, 150), Example("w", [1], [500], 2, 400)]
        with pytest.raises(IngestError, match="user v: target at 150 before last input at 200"):
            ingest.make_batches(ok + bad, max_len=4, batch_size=3)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(IngestError, match="batch_size must be >= 1"):
            ingest.make_batches([Example("u", [1], [10], 2, 20)], max_len=4, batch_size=0)


def filtered_generator_data(tmp_path, rng):
    spec = GeneratorSpec(n_users=30, n_items=60, n_clusters=3, min_events=3, max_events=12,
                         noise_rate=0.3)
    ds = ingest.synth_shift_generate(spec, seed=int(rng.integers(1000)))
    return ingest.filter_min_interactions(ds, 4)


def irregular_tsv_data(tmp_path, rng):
    lines = random_tsv_lines(rng)
    IRREGULAR["crlf"](lines, 1)
    return ingest.load_tsv(write_tsv_text(tmp_path, lines, rng))


PRODUCERS = {
    "regular-tsv": lambda tmp_path, rng: ingest.load_tsv(
        write_tsv_text(tmp_path, random_tsv_lines(rng), rng)),
    "irregular-tsv": irregular_tsv_data,
    "generator": lambda tmp_path, rng: ingest.synth_shift_generate(
        GeneratorSpec(n_users=20, n_items=30, n_clusters=3, min_events=3, max_events=12),
        seed=int(rng.integers(1000))),
    "filter": filtered_generator_data,
    "of": lambda tmp_path, rng: InteractionDataset.of(*random_filter_input(rng)),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_every_producer_gives_the_event_layout(tmp_path, producer):
    for seed in range(5):
        ds = PRODUCERS[producer](tmp_path, np.random.default_rng(seed))
        assert ds.items.dtype == ds.times.dtype == ds.counts.dtype == np.int64
        assert ds.counts.sum() == len(ds.items) == len(ds.times)
        assert len(ds.user_ids) == len(ds.counts)
        user = np.repeat(np.arange(len(ds.counts)), ds.counts)
        assert np.all((np.diff(ds.times) >= 0) | (np.diff(user) != 0))
        assert ds.items.min() >= 1 and ds.items.max() <= len(ds.vocab)
        assert sorted(ds.vocab.values()) == list(range(1, len(ds.vocab) + 1))
