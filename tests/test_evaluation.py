import time

import numpy as np
import pytest

from alignrec.evaluation import (aggregate, batch_rank_metrics, rank_metrics,
                                 ranked_items, segment_analysis, target_rank,
                                 throughput)
from alignrec.ingest import Example


def reference_batch_rank_metrics(logits, targets, k):
    """The two-pass float64 form batch_rank_metrics replaced: padding column
    set to -inf in a copy, then an (m, V) tie mask. Its NaN-target rows are
    the old perfect score, so the oracle tests below draw no NaN target."""
    z = np.array(logits, dtype=np.float64, copy=True)
    t = np.asarray(targets)
    z[:, 0] = -np.inf
    m = z.shape[0]
    zt = z[np.arange(m), t]
    greater = np.sum(z > zt[:, None], axis=1)
    ties_before = np.sum((z == zt[:, None]) & (np.arange(z.shape[1]) < t[:, None]),
                         axis=1)
    r = 1 + greater + ties_before
    hit = r <= k
    out = np.zeros((m, 4), dtype=np.float64)
    out[hit, 0] = 1.0
    out[hit, 1] = 1.0 / r[hit]
    out[hit, 2] = 1.0 / np.log2(r[hit] + 1.0)
    out[:, 3] = r
    return out


class TestRankMetrics:
    def test_top_ranked_target(self):
        z = np.zeros(10)
        z[4] = 5.0
        assert rank_metrics(z, 4, 10) == (1.0, 1.0, 1.0)

    def test_rank_three_values(self):
        z = np.array([9.0, 8.0, 7.0, 0.0])
        recall, rr, ndcg = rank_metrics(z, 2, 10)
        assert recall == 1.0
        assert rr == pytest.approx(1.0 / 3.0)
        assert ndcg == pytest.approx(0.5)  # 1 / log2(4)

    def test_rank_outside_cutoff_scores_zero(self):
        z = -np.arange(12.0)
        assert rank_metrics(z, 11, 10) == (0.0, 0.0, 0.0)

    def test_ties_broken_by_lower_index(self):
        z = np.array([1.0, 1.0, 1.0])
        assert target_rank(z, 0) == 1
        assert target_rank(z, 1) == 2
        assert target_rank(z, 2) == 3

    def test_matches_full_sort_oracle_with_ties(self, rng):
        for _ in range(1000):
            v = int(rng.integers(2, 30))
            z = rng.integers(0, 5, v).astype(float)  # heavy ties
            t = int(rng.integers(0, v))
            order = sorted(range(v), key=lambda j: (-z[j], j))
            assert target_rank(z, t) == 1 + order.index(t)

    def test_metric_ordering_invariants(self, rng):
        for _ in range(300):
            v = int(rng.integers(2, 40))
            z = rng.normal(size=v)
            t = int(rng.integers(0, v))
            recall, rr, ndcg = rank_metrics(z, t, 10)
            assert recall >= ndcg >= 0.0
            assert recall >= rr >= 0.0

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            rank_metrics(np.zeros(3), 0, 0)

    def test_nan_target_ranks_last_and_scores_zero(self):
        z = np.array([0.0, 1.0, np.nan, 3.0, 2.0])
        assert target_rank(z, 2) == 4
        assert rank_metrics(z, 2, 10) == (0.0, 0.0, 0.0)
        assert rank_metrics(np.full(3, np.nan), 1, 10) == (0.0, 0.0, 0.0)
        # a NaN elsewhere never outranks a real target
        assert target_rank(np.array([0.0, np.nan, 1.0, np.nan, 2.0]), 4) == 1


class TestBatchMetrics:
    def test_matches_scalar_path(self, rng):
        t = rng.integers(1, 15, 20)
        for z in (rng.normal(size=(20, 15)),
                  rng.integers(0, 3, (20, 15)).astype(float)):  # heavy ties
            rows = batch_rank_metrics(z, t, 10)
            for i in range(20):
                zi = z[i].copy()
                zi[0] = -np.inf  # padding exclusion applied by the batch path
                assert tuple(rows[i, :3]) == rank_metrics(zi, t[i], 10)
                assert rows[i, 3] == target_rank(zi, t[i])

    def test_float32_logits_rank_as_their_exact_float64_cast(self, rng):
        z = rng.normal(size=(40, 30)).astype(np.float32)
        t = rng.integers(1, 30, 40)
        rows = np.arange(0, 40, 2)
        z[rows, (t[rows] + 7) % 29 + 1] = z[rows, t[rows]]   # exact ties with the target
        ranks32 = batch_rank_metrics(z, t, 10)
        assert np.array_equal(ranks32, batch_rank_metrics(z.astype(np.float64), t, 10))
        plain = z.copy()
        plain[rows, (t[rows] + 7) % 29 + 1] = -np.inf
        assert np.any(ranks32[:, 3] != batch_rank_metrics(plain, t, 10)[:, 3])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_two_pass_reference(self, rng, dtype):
        cases = []
        for m, V in ((1, 9), (7, 12), (40, 30)):
            t = rng.integers(1, V, m)
            cases.append((rng.normal(size=(m, V)), t))
            cases.append((rng.integers(0, 3, (m, V)).astype(float), t))   # heavy ties
            z = rng.normal(size=(m, V))
            for i in range(m):   # ties with the target below and above it
                z[i, rng.integers(1, V, 2)] = z[i, t[i]]
            cases.append((z, t))
            z = rng.normal(size=(m, V))
            z[:, rng.integers(0, V, V // 3)] = -np.inf     # -inf in other columns
            cases.append((z, t))
            z = rng.normal(size=(m, V))
            z[np.arange(m), t] = -np.inf                   # a -inf target
            z[::2, rng.integers(1, V, 2)] = -np.inf
            cases.append((z, t))
            z = rng.normal(size=(m, V))
            z[:, 0] = z[np.arange(m), t]                   # padding ties the target
            cases.append((z, t))
        for z, t in cases:
            z = z.astype(dtype)
            for k in (1, 3, 10):
                assert np.array_equal(batch_rank_metrics(z, t, k),
                                      reference_batch_rank_metrics(z, t, k))
                assert np.array_equal(batch_rank_metrics(z[:1], t[:1], k),
                                      reference_batch_rank_metrics(z[:1], t[:1], k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_target_ranks_last_and_scores_zero(self, dtype):
        z = np.array([[0, 1, np.nan, 3, 2],
                      [0, np.nan, 1, np.nan, 2],
                      [np.nan] * 5], dtype=dtype)
        t = np.array([2, 4, 3])
        rows = batch_rank_metrics(z, t, 10)
        assert np.array_equal(rows, [[0, 0, 0, 4], [1, 1, 1, 1], [0, 0, 0, 4]])
        assert np.array_equal(batch_rank_metrics(z, t, 4)[:, :3], rows[:, :3])
        for i in range(3):
            assert tuple(rows[i, :3]) == rank_metrics(
                np.concatenate([[-np.inf], z[i, 1:]]), t[i], 10)

    def test_padding_index_never_recommended(self, rng):
        z = rng.normal(size=(5, 8))
        z[:, 0] = 100.0
        ranked = ranked_items(z, top_k=7)
        assert np.all(ranked != 0)
        full = ranked_items(z, top_k=8)
        assert np.all(full[:, -1] == 0)  # the padding slot sorts dead last

    def test_aggregation_is_arithmetic_mean(self, rng):
        rows = rng.random((13, 3))
        rep = aggregate(rows, k=10)
        assert abs(rep.recall_at_k - rows[:, 0].mean()) < 1e-12
        assert abs(rep.mrr_at_k - rows[:, 1].mean()) < 1e-12
        assert abs(rep.ndcg_at_k - rows[:, 2].mean()) < 1e-12


class TestSegmentAnalysis:
    def test_identical_model_identical_segments(self):
        exs = [Example(f"u{i}", [1], [0], 1, i) for i in range(8)]
        rep = segment_analysis(exs, np.tile([1.0, 0.5, 0.7], (8, 1)), k_segments=4)
        assert len(rep.segments) == 4
        for seg in rep.segments:
            assert seg["ndcg_at_k"] == pytest.approx(0.7)
        assert sum(s["n_examples"] for s in rep.segments) == 8

    def test_baseline_deltas_reported(self):
        exs = [Example(f"u{i}", [1], [0], 1, i) for i in range(8)]
        rep = segment_analysis(exs, np.full((8, 3), 0.9), k_segments=4,
                               baseline_rows=np.full((8, 3), 0.6))
        for seg in rep.segments:
            assert seg["ndcg_delta"] == pytest.approx(0.3)

    def test_segment_means_partition_the_examples(self, rng):
        exs = [Example(f"u{i}", [1], [0], 1, int(ts))
               for i, ts in enumerate(rng.integers(0, 100, 10))]
        rows = rng.random((10, 3))

        rep = segment_analysis(exs, rows, k_segments=4)
        order = np.argsort([e.target_timestamp for e in exs], kind="stable")
        sizes = [3, 3, 2, 2]
        pos = 0
        for seg, size in zip(rep.segments, sizes):
            sel = rows[order[pos:pos + size]]
            assert seg["ndcg_at_k"] == pytest.approx(sel[:, 2].mean())
            pos += size


class FakeBatch:
    size = 4


class TestThroughput:
    def test_warmup_excluded_from_timing(self):
        calls = {"n": 0}

        def eval_fn(batch):
            calls["n"] += 1
            if calls["n"] <= 2:       # the warmup pass over both batches
                time.sleep(0.05)

        rep = throughput(eval_fn, [FakeBatch(), FakeBatch()], warmup=1, reps=3)
        assert calls["n"] == 2 * 4
        assert rep.iterations_per_second > 2 / 0.05

    def test_report_carries_adaptation_flag_and_batch_size(self):
        rep = throughput(lambda b: None, [FakeBatch()], warmup=0, reps=1,
                         adaptation_enabled=True)
        assert rep.adaptation_enabled is True
        assert rep.batch_size == 4
        assert rep.iterations_per_second > 0

    def test_doubling_work_roughly_halves_throughput(self):
        def light(batch):
            time.sleep(0.004)

        def heavy(batch):
            time.sleep(0.008)

        batches = [FakeBatch()] * 10
        fast = throughput(light, batches, warmup=0, reps=3)
        slow = throughput(heavy, batches, warmup=0, reps=3)
        ratio = slow.iterations_per_second / fast.iterations_per_second
        assert 0.3 <= ratio <= 0.8

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            throughput(lambda b: None, [FakeBatch()], reps=0)
