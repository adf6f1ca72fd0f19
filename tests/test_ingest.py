import numpy as np
import pytest

from alignrec import ingest
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


def mk_user(uid, items, start=0, step=10):
    return UserRecord(uid, list(items), [start + step * i for i in range(len(items))])


class TestFilter:
    def test_short_user_removed(self):
        ds = InteractionDataset(
            users=[mk_user("long1", [1, 2] * 5), mk_user("long2", [1, 2] * 5),
                   mk_user("short", [1, 2] * 4 + [1])],
            vocab={"a": 1, "b": 2})
        out = ingest.filter_min_interactions(ds, 10)
        assert [u.user_id for u in out.users] == ["long1", "long2"]

    def test_fixpoint_identity(self):
        ds = InteractionDataset(
            users=[mk_user(f"u{i}", [1, 2, 3] * 3) for i in range(3)],
            vocab={"a": 1, "b": 2, "c": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert [u.item_indices for u in out.users] == [u.item_indices for u in ds.users]

    def test_cascading_removal_reaches_fixpoint(self):
        # dropping the rare item pushes user a below threshold on the next sweep
        users = [
            mk_user("a", [1, 2, 1, 2, 3]),
            mk_user("b", [1, 2, 1, 2, 1]),
            mk_user("c", [1, 2, 1, 2, 2]),
        ]
        ds = InteractionDataset(users=users, vocab={"x": 1, "y": 2, "z": 3})
        out = ingest.filter_min_interactions(ds, 5)

        # brute-force oracle: alternate the two filters until nothing changes
        recs = {u.user_id: list(u.item_indices) for u in users}
        while True:
            recs = {uid: r for uid, r in recs.items() if len(r) >= 5}
            counts = {}
            for r in recs.values():
                for it in r:
                    counts[it] = counts.get(it, 0) + 1
            bad = {it for it, c in counts.items() if c < 5}
            pruned = {uid: [it for it in r if it not in bad] for uid, r in recs.items()}
            if pruned == recs and not bad:
                break
            recs = pruned

        back = {v: k for k, v in out.vocab.items()}
        orig = {"x": 1, "y": 2, "z": 3}
        got = {u.user_id: [orig[back[i]] for i in u.item_indices] for u in out.users}
        assert got == recs
        assert set(got) == {"b", "c"}

    def test_two_pruning_rounds(self):
        # item 3 is rare; pruning it drops u1, which leaves item 2 rare; pruning
        # that drops u2 and u3
        users = [mk_user("u1", [3, 2, 1]), mk_user("u2", [2, 1, 1]),
                 mk_user("u3", [2, 1, 1]), mk_user("u4", [1, 1, 1, 1])]
        ds = InteractionDataset(users=users, vocab={"x": 1, "y": 2, "z": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert [u.user_id for u in out.users] == ["u4"]
        assert out.vocab == {"x": 1}
        assert out.users[0].item_indices == [1, 1, 1, 1]

    def test_exhausted_dataset_raises(self):
        ds = InteractionDataset(users=[mk_user("u", [1, 2, 3])], vocab={"a": 1, "b": 2, "c": 3})
        with pytest.raises(IngestError, match="exhausted"):
            ingest.filter_min_interactions(ds, 4)

    def test_k_below_three_rejected(self):
        ds = InteractionDataset(users=[mk_user("u", [1] * 5)], vocab={"a": 1})
        with pytest.raises(IngestError):
            ingest.filter_min_interactions(ds, 2)

    def test_vocab_redensified(self):
        users = [mk_user("a", [1, 3, 1, 3, 1, 3, 1, 3, 3]),
                 mk_user("b", [1, 3, 1, 3, 1, 3, 1, 3, 1])]
        ds = InteractionDataset(users=users, vocab={"x": 1, "y": 2, "z": 3})
        out = ingest.filter_min_interactions(ds, 3)
        assert sorted(out.vocab.values()) == list(range(1, len(out.vocab) + 1))


class TestSplit:
    def test_four_item_user(self):
        ds = InteractionDataset(users=[mk_user("u", [1, 2, 3, 4])],
                                vocab={"a": 1, "b": 2, "c": 3, "d": 4})
        sp = ingest.leave_one_out_split(ds)
        assert sp.test[0].items == [1, 2, 3] and sp.test[0].target_item == 4
        assert sp.valid[0].items == [1, 2] and sp.valid[0].target_item == 3
        assert len(sp.train) == 1
        assert sp.train[0].items == [1] and sp.train[0].target_item == 2

    def test_three_item_user_has_no_train_pair(self):
        # the remaining prefix after holding out valid+test is a single item,
        # which cannot form an input->target pair
        ds = InteractionDataset(users=[mk_user("u", [1, 2, 3])],
                                vocab={"a": 1, "b": 2, "c": 3})
        sp = ingest.leave_one_out_split(ds)
        assert len(sp.train) == 0
        assert sp.valid[0].target_item == 2 and sp.test[0].target_item == 3

    def test_pair_count_matches_enumeration(self, rng):
        users = []
        for i in range(100):
            n = int(rng.integers(3, 12))
            users.append(mk_user(f"u{i}", rng.integers(1, 9, n).tolist()))
        ds = InteractionDataset(users=users, vocab={f"i{j}": j for j in range(1, 9)})
        sp = ingest.leave_one_out_split(ds)
        assert len(sp.train) == sum(max(0, len(u) - 3) for u in users)

    def test_too_short_user_rejected(self):
        ds = InteractionDataset(users=[mk_user("u", [1, 2])], vocab={"a": 1, "b": 2})
        with pytest.raises(IngestError):
            ingest.leave_one_out_split(ds)

    def test_round_trip_multiset(self, rng):
        users = []
        for i in range(30):
            n = int(rng.integers(3, 9))
            users.append(mk_user(f"u{i}", rng.integers(1, 7, n).tolist(), start=i * 1000))
        ds = InteractionDataset(users=users, vocab={f"i{j}": j for j in range(1, 7)})
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
            assert np.all(b.T[0 == b.t_elig.astype(int)] == 0.0) or True
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
        back = ingest.load_tsv(str(path))
        assert back.n_interactions == ds.n_interactions
        assert len(back.users) == len(ds.users)


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
        InteractionDataset(users=users, vocab={f"i{j}": j for j in range(1, 9)}))


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
        ds = InteractionDataset(users=[mk_user("u", [1, 2, 3, 4, 5]), mk_user("v", [6, 7, 8])],
                                vocab={f"i{j}": j for j in range(1, 9)})
        sp = ingest.leave_one_out_split(ds)
        assert sp.train.items is sp.test.items and sp.valid.times is sp.test.times
        assert [ex.items for ex in sp.train] == [[1], [1, 2]]
        sub = sp.test[np.array([1])]
        assert len(sub) == 1 and sub[0] == Example("v", [6, 7], [0, 10], 8, 20)
        assert sub.items is sp.test.items
        assert [ex.user_id for ex in sp.valid[-1:]] == ["v"]

    def test_of_is_identity_on_examples(self, rng):
        from conftest import random_examples
        exs = random_examples(rng, n_examples=5)
        flat = ingest.Examples.of(exs)
        assert ingest.Examples.of(flat) is flat
        assert list(flat) == exs

    def test_split_and_median_use_linear_memory(self):
        import tracemalloc
        ds = InteractionDataset(users=[mk_user("u", [1 + i % 7 for i in range(3000)])],
                                vocab={f"i{j}": j for j in range(1, 8)})
        tracemalloc.start()
        try:
            sp = ingest.leave_one_out_split(ds)
            lam = ingest.median_positive_interval(sp.train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam == 10.0 and len(sp.train) == 2997
        assert peak < 2 * 2 ** 20, peak
