import tracemalloc

import numpy as np
import pytest

from alignrec import autograd as ag
from alignrec import losses, model
from alignrec.adapt import AdaptConfig
from alignrec.losses import LossWeights
from alignrec.model import StepExtension
from conftest import random_batch, tiny_params


def brute_force_time_loss(delta, T, elig, lam, block_size):
    """Independent per-row double loop over within-block pairs."""
    total = 0.0
    pairs = 0
    m, n_cols = np.shape(elig)
    for i in range(m):
        cols = [c for c in range(n_cols) if elig[i][c]]
        blocks = [cols[k:k + block_size] for k in range(0, len(cols), block_size)]
        for blk in blocks:
            for a in range(len(blk)):
                for b in range(a + 1, len(blk)):
                    ci, cj = blk[a], blk[b]
                    term = 1.0 - (delta[i][ci] - delta[i][cj]) * \
                        ((T[i][ci] - T[i][cj]) / lam)
                    total += max(0.0, term)
                    pairs += 1
    return (total / pairs if pairs else 0.0), pairs


def mask_time_loss(delta_full, T, elig, lam, block_size):
    """The time loss with its pairs from np.nonzero over an (m, n, n) mask of
    same-block, upper-triangle pairs: the enumeration the band replaced."""
    elig = np.asarray(elig, dtype=bool)
    m, n_cols = elig.shape
    ordinal = np.cumsum(elig, axis=1) - 1
    block_id = np.where(elig, ordinal // block_size, -1)
    same = (block_id[:, :, None] == block_id[:, None, :]) & (block_id[:, :, None] >= 0)
    rows, pi, pj = np.nonzero(same & np.triu(np.ones((n_cols, n_cols), dtype=bool), k=1))
    if rows.size == 0:
        return ag.constant(np.zeros((), dtype=delta_full.data.dtype)), 0
    flat_i, flat_j = rows * n_cols + pi, rows * n_cols + pj
    flat = ag.reshape(delta_full, (-1,))
    t_diff = (T.reshape(-1)[flat_i] - T.reshape(-1)[flat_j]) / lam
    margin = ag.sub(1.0, ag.mul(ag.sub(flat[flat_i], flat[flat_j]), ag.constant(
        t_diff.astype(delta_full.data.dtype))))
    return ag.div(ag.reduce_sum(ag.relu(margin)), float(rows.size)), rows.size


class TestRecLoss:
    def test_confident_correct_prediction_drives_loss_down(self):
        z = np.zeros((1, 8))
        z[0, 3] = 50.0
        loss = losses.rec_loss(ag.constant(z), np.array([3]))
        assert float(loss.data) < 1e-12

    def test_uniform_logits_give_log_vocab(self):
        loss = losses.rec_loss(ag.constant(np.zeros((2, 20))), np.array([3, 19]))
        assert abs(float(loss.data) - np.log(20.0)) < 1e-12

    def test_matches_direct_summation(self, rng):
        z = rng.normal(size=(6, 13))
        t = rng.integers(0, 13, 6)
        loss = losses.rec_loss(ag.constant(z), t)
        ref = np.mean([-np.log(np.exp(z[i, t[i]]) / np.exp(z[i]).sum())
                       for i in range(6)])
        assert abs(float(loss.data) - ref) < 1e-12


class TestTimeLoss:
    def run(self, delta, T, elig, lam, b):
        out, pairs = losses.time_alignment_loss(
            ag.constant(np.asarray(delta, float)), np.asarray(T, float),
            np.asarray(elig, bool), lam, b)
        return float(out.data), pairs

    def test_well_ordered_pair_is_free(self):
        # margin (3-1) * ((30-10)/10) = 4 >= 1
        val, pairs = self.run([[3.0, 1.0]], [[30.0, 10.0]], [[True, True]], 10.0, 4)
        assert val == 0.0 and pairs == 1

    def test_flat_predictions_cost_one(self):
        val, _ = self.run([[1.0, 1.0]], [[30.0, 10.0]], [[True, True]], 10.0, 4)
        assert val == 1.0

    def test_block_covering_all_positions_equals_full_pairwise(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            delta = rng.normal(size=(m, n))
            T = rng.integers(0, 500, (m, n)).astype(float)
            elig = rng.random((m, n)) > 0.25
            lam = float(rng.uniform(1.0, 100.0))
            val, pairs = self.run(delta, T, elig, lam, n + 1)
            # unblocked brute force over all eligible pairs
            total, cnt = 0.0, 0
            for i in range(m):
                cols = np.flatnonzero(elig[i])
                for a in range(len(cols)):
                    for b in range(a + 1, len(cols)):
                        term = 1.0 - (delta[i, cols[a]] - delta[i, cols[b]]) * \
                            ((T[i, cols[a]] - T[i, cols[b]]) / lam)
                        total += max(0.0, term)
                        cnt += 1
            ref = total / cnt if cnt else 0.0
            assert pairs == cnt
            assert abs(val - ref) <= 1e-12

    def test_small_blocks_equal_within_block_brute_force(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(4, 12))
            b = int(rng.integers(2, 5))
            delta = rng.normal(size=(m, n))
            T = rng.integers(0, 500, (m, n)).astype(float)
            elig = rng.random((m, n)) > 0.3
            lam = float(rng.uniform(1.0, 100.0))
            val, pairs = self.run(delta, T, elig, lam, b)
            ref, cnt = brute_force_time_loss(delta, T, elig, lam, b)
            assert pairs == cnt
            assert abs(val - ref) <= 1e-12

    def test_lambda_scaling_invariance_is_bit_exact(self, rng):
        delta = rng.normal(size=(2, 6))
        T = rng.integers(0, 100, (2, 6)).astype(float)
        elig = np.ones((2, 6), bool)
        lam = 10.0
        base, _ = self.run(delta, T, elig, lam, 3)
        for c in (2.0, 3.0, 0.5, 1024.0):
            scaled, _ = self.run(delta, T * c, elig, lam * c, 3)
            assert scaled == base  # bitwise

    def test_margin_satisfied_everywhere_gives_zero(self):
        # delta ordering matches T ordering with margin >= 1 on every pair
        delta = np.array([[4.0, 3.0, 2.0, 1.0]])
        T = np.array([[400.0, 300.0, 200.0, 100.0]])
        elig = np.ones((1, 4), bool)
        val, pairs = self.run(delta, T, elig, 100.0, 5)
        assert val == 0.0 and pairs == 6

    def test_no_pairs_yields_zero_loss_and_gradient(self):
        d = ag.parameter(np.array([[1.0, 2.0]]))
        out, pairs = losses.time_alignment_loss(
            d, np.zeros((1, 2)), np.array([[False, True]]), 1.0, 4)
        assert pairs == 0 and float(out.data) == 0.0
        g = ag.grad(out, {"d": d})
        assert "d" not in g

    def test_nan_in_masked_positions_never_read(self, rng):
        params = tiny_params(seed=3)
        batch = random_batch(rng, n_examples=5, max_len=6)
        batch.T[~batch.t_elig] = np.nan
        trace = model.forward_full(params, batch, training=False)
        w = LossWeights(lam=100.0, block_size=3)
        loss, _ = losses.batch_time_loss(params, trace, batch, w)
        assert np.isfinite(float(loss.data))
        g = ag.grad(loss, params.as_dict())
        assert all(np.all(np.isfinite(v)) for v in g.values())

    def test_gradient_matches_finite_differences(self, rng):
        d = ag.parameter(rng.normal(size=(2, 5)))
        T = rng.integers(0, 60, (2, 5)).astype(float)
        elig = np.ones((2, 5), bool)

        def f():
            val, _ = losses.time_alignment_loss(d, T, elig, 13.0, 3)
            return val

        rep = ag.finite_diff_check(f, {"d": d}, eps=1e-6, tol=1e-5,
                                   n_samples=10, rng=rng)
        assert rep.ok, rep.failures


class TestTimeLossBand:
    @staticmethod
    def loss_and_grad(fn, delta, T, elig, lam, block_size):
        d = ag.parameter(delta)
        loss, pairs = fn(d, T, elig, lam, block_size)
        g = ag.grad(loss, {"d": d}).get("d")
        return loss.data, g, pairs

    def assert_bitwise_equal(self, delta, T, elig, lam, block_size):
        got = self.loss_and_grad(losses.time_alignment_loss, delta, T, elig, lam, block_size)
        want = self.loss_and_grad(mask_time_loss, delta, T, elig, lam, block_size)
        assert got[2] == want[2]
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        if want[1] is None:
            assert got[1] is None
        else:
            assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()

    def test_band_equals_the_mask_enumeration_bitwise(self):
        rng = np.random.default_rng(2025)
        for trial in range(500):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            dtype = np.float32 if trial % 2 else np.float64
            delta = rng.normal(size=(m, n)).astype(dtype)
            T = rng.integers(0, 500, (m, n)).astype(float)
            elig = rng.random((m, n)) > rng.uniform(0.0, 0.9)
            elig[rng.random(m) < 0.2] = False        # rows with no eligible entry
            block_size = int(rng.integers(2, n + 3)) if trial % 5 else 10**9
            self.assert_bitwise_equal(delta, T, elig, float(rng.uniform(1, 100)), block_size)

    @pytest.mark.parametrize("block_size", [2, 3, 10, 10**9])
    def test_single_column_and_empty_rows(self, block_size, rng):
        for elig in ([[True], [False], [True]], [[False, False], [False, False]],
                     [[False] * 6, [True] * 6]):
            elig = np.asarray(elig)
            delta, T = rng.normal(size=elig.shape), rng.uniform(0, 50, elig.shape)
            self.assert_bitwise_equal(delta, T, elig, 7.0, block_size)

    def test_band_on_real_batches_with_a_huge_block(self, rng):
        for n_examples, max_len in ((5, 6), (40, 12)):
            batch = random_batch(rng, n_examples=n_examples, max_len=max_len)
            delta = rng.uniform(0.1, 2.0, batch.T.shape)
            for block_size in (2, 4, 10**9):
                self.assert_bitwise_equal(delta, batch.T, batch.t_elig, 300.0, block_size)

    @staticmethod
    def traced_peak(m, L, block_size):
        rng = np.random.default_rng(7)
        delta = ag.parameter(rng.uniform(0.5, 1.5, (m, L + 1)).astype(np.float32))
        T = rng.integers(0, 1000, (m, L + 1)).astype(float)
        elig = np.arange(L + 1) > rng.integers(0, L // 2, (m, 1))
        tracemalloc.start()
        try:
            loss, pairs = losses.time_alignment_loss(delta, T, elig, 100.0, block_size)
            ag.grad(loss, {"d": delta})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs > 0
        return peak

    def test_peak_memory_is_linear_in_the_band(self):
        m, L, block_size = 8, 400, 10
        band = m * (L + 1) * block_size
        peak = self.traced_peak(m, L, block_size)
        assert peak <= 64 * band, f"{peak / band:.0f} B per band entry"

    def test_band_width_stays_capped_at_the_row(self):
        # a block wider than the row pairs each entry with the rest of its
        # row only; 10**5 rather than 10**9, so that a band which did grow
        # with block_size fails the bound instead of exhausting memory
        m, L = 2, 60
        band = m * (L + 1) * (L + 1)
        peak = self.traced_peak(m, L, 10**5)
        assert peak <= 64 * band, f"{peak / band:.0f} B per band entry"


class TestBackwardProjection:
    def test_zero_weights_give_zero(self, rng):
        params = tiny_params()
        params["block0.W2"].data = np.zeros_like(params["block0.W2"].data)
        params["block0.b2"].data = np.zeros_like(params["block0.b2"].data)
        q = losses.backward_projection(params, ag.constant(rng.normal(size=(3, 8))))
        assert np.all(q.data == 0.0)

    def test_identity_like_projection(self):
        params = tiny_params(d=4, d_s=4)
        params["block0.W2"].data = np.eye(4)
        params["block0.b2"].data = np.zeros(4)
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        q = losses.backward_projection(params, ag.constant(x))
        assert np.allclose(q.data, x, atol=1e-14)

    def test_matches_matrix_vector_product(self, rng):
        params = tiny_params(seed=9)
        x = rng.normal(size=(4, 8))
        q = losses.backward_projection(params, ag.constant(x))
        ref = x @ params["block0.W2"].data + params["block0.b2"].data
        assert np.allclose(q.data, ref, atol=1e-14)


def fabricate(params, h_final, x_last, x_next, B_next, delta_next, a_raw=None):
    """Assemble just enough of a trace for the state loss."""
    if a_raw is not None:
        params["block0.a_raw"].data = np.array(a_raw, dtype=np.float64)
    trace = type("T", (), {})()
    trace.A = params.decay()
    trace.h_final = ag.constant(h_final)
    trace.x_last = ag.constant(x_last)
    trace.extension = StepExtension(
        x_next=ag.constant(x_next), B_next=ag.constant(B_next),
        delta_next=ag.constant(delta_next))
    return trace


class TestStateLoss:
    def test_exact_reconstruction_is_free(self):
        params = tiny_params(d=6, d_s=3)
        for name in ("block0.W2", "block0.b2"):
            params[name].data = np.zeros_like(params[name].data)
        trace = fabricate(params, np.zeros((2, 3, 6)), np.zeros((2, 6)),
                          np.zeros((2, 6)), np.zeros((2, 3)), np.ones(2))
        loss, inter = losses.state_alignment_loss(params, trace)
        assert float(loss.data) == 0.0
        assert np.allclose(inter.h_back, 0.0)

    def test_norm_four_delta_two_gives_one(self):
        params = tiny_params(d=6, d_s=3)
        for name in ("block0.W2", "block0.b2"):
            params[name].data = np.zeros_like(params[name].data)
        # A = -1 -> backward decay is exactly 1; zero next-step inputs make
        # h_back = exp(-2) * h_n, so the gap norm is (1 - e^-2) * ||h_n||
        h = np.zeros((1, 3, 6))
        h[0, 0, 0] = 4.0 / (1.0 - np.exp(-2.0))
        trace = fabricate(params, h, np.zeros((1, 6)), np.zeros((1, 6)),
                          np.zeros((1, 3)), np.array([2.0]), a_raw=0.0)
        loss, inter = losses.state_alignment_loss(params, trace)
        assert abs(float(loss.data) - 1.0) < 1e-12

    def test_unit_negative_decay_makes_backward_factor_one(self, rng):
        params = tiny_params(seed=3)
        batch = random_batch(rng)
        params["block0.a_raw"].data = np.array(0.0)  # A = -1
        trace = model.forward_full(params, batch, training=False)
        loss, inter = losses.state_alignment_loss(params, trace)
        assert inter.P_bar == 1.0
        assert np.allclose(inter.P, 0.0, atol=1e-15)

    def test_backward_factor_times_negative_decay_is_one_exactly(self, rng):
        params = tiny_params(seed=5)
        batch = random_batch(rng)
        for a_raw in (-2.0, -0.3, 0.0, 0.7, 2.0):
            params["block0.a_raw"].data = np.array(a_raw)
            trace = model.forward_full(params, batch, training=False)
            _, inter = losses.state_alignment_loss(params, trace)
            assert inter.P_bar * np.exp(a_raw) == 1.0  # -A = exp(a_raw)

    def test_tiny_extension_step_hits_clamp_guard(self, rng):
        params = tiny_params()
        trace = fabricate(params, rng.normal(size=(2, 4, 8)), rng.normal(size=(2, 8)),
                          rng.normal(size=(2, 8)), rng.normal(size=(2, 4)),
                          np.array([1e-12, 0.5]))
        loss, inter = losses.state_alignment_loss(params, trace)
        assert inter.clamp_warnings == 1
        assert np.isfinite(float(loss.data))

    def test_matches_naive_oracle(self, rng):
        params = tiny_params(seed=17)
        batch = random_batch(rng, n_examples=6)
        trace = model.forward_full(params, batch, training=False)
        loss, inter = losses.state_alignment_loss(params, trace)
        A = float(trace.A.data)
        W2 = params["block0.W2"].data
        b2 = params["block0.b2"].data
        refs = []
        for i in range(batch.size):
            hn = trace.h_final.data[i]
            xn = trace.x_last.data[i]
            dn = max(float(trace.extension.delta_next.data[i]), 1e-8)
            q = xn @ W2 + b2
            h_next = np.exp(dn * A) * hn + \
                np.outer(dn * trace.extension.B_next.data[i],
                         trace.extension.x_next.data[i])
            h_back = (-1.0 / A) * h_next + np.outer(dn * q, xn)
            refs.append(np.linalg.norm(hn - h_back) / dn ** 2)
        assert np.allclose(inter.per_row, refs, atol=1e-12)
        assert abs(float(loss.data) - np.mean(refs)) < 1e-12


    @pytest.mark.parametrize("a_raw", [0.0, 0.3, 0.9, np.log(4.0)],
                             ids=["A=-1", "A=-1.35", "A=-2.46", "A=-4"])
    def test_rank_two_gap_matches_two_step_reconstruction(self, rng, a_raw):
        # float64; delta from the division guard up, and one row under it
        params = tiny_params(seed=21, d=6, d_s=3)
        m = 8
        dn = np.array([losses.DELTA_GUARD * 1e-3, losses.DELTA_GUARD, 1e-6, 1e-3,
                       0.1, 0.7, 1.5, 3.0])
        h, x, xn, B = (rng.normal(size=s) for s in ((m, 3, 6), (m, 6), (m, 6), (m, 3)))
        trace = fabricate(params, h, x, xn, B, dn, a_raw=a_raw)
        _, inter = losses.state_alignment_loss(params, trace)

        A = -np.exp(a_raw)
        d = np.maximum(dn, losses.DELTA_GUARD)[:, None, None]
        Q = x @ params["block0.W2"].data + params["block0.b2"].data
        h_next = np.exp(d * A) * h + d * B[:, :, None] * xn[:, None, :]
        h_back = (-1.0 / A) * h_next + d * Q[:, :, None] * x[:, None, :]
        scale = np.abs(h_back).max()
        assert np.abs(inter.h_back - h_back).max() <= 1e-12 * scale
        assert np.abs(inter.gap - (h - h_back)).max() <= 1e-12 * scale
        # where the gap is not itself a cancellation, the loss agrees closely
        big = dn >= 0.1
        ref = np.linalg.norm((h - h_back).reshape(m, -1), axis=1) / d[:, 0, 0] ** 2
        np.testing.assert_allclose(inter.per_row[big], ref[big], rtol=1e-10)

    def test_builds_at_most_two_full_size_arrays(self, rng):
        # the (m, d_s, d) arrays of the graph besides h_final itself
        params = tiny_params(seed=22, d=6, d_s=3)
        m = 5
        trace = fabricate(params, *(rng.normal(size=s) for s in
                                    ((m, 3, 6), (m, 6), (m, 6), (m, 3))),
                          rng.uniform(0.1, 1.0, m))
        for name in ("h_final", "x_last"):
            setattr(trace, name, ag.parameter(getattr(trace, name).data))
        ext = trace.extension
        for name in ("x_next", "B_next", "delta_next"):
            setattr(ext, name, ag.parameter(getattr(ext, name).data))
        loss, _ = losses.state_alignment_loss(params, trace)
        seen, stack, full = set(), [loss], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
                if node.shape == (m, 3, 6) and node is not trace.h_final:
                    full.append(node)
        assert len(full) <= 2, [n._backward.__qualname__ for n in full]


class TestTheoremBound:
    def test_zero_gap_zero_bound(self):
        params = tiny_params(d=6, d_s=3)
        for name in ("block0.W2", "block0.b2"):
            params[name].data = np.zeros_like(params[name].data)
        trace = fabricate(params, np.zeros((1, 3, 6)), np.zeros((1, 6)),
                          np.zeros((1, 6)), np.zeros((1, 3)), np.ones(1),
                          a_raw=0.0)
        loss, inter = losses.state_alignment_loss(params, trace)
        bound = losses.state_loss_bound(trace, trace.extension, inter)
        assert float(loss.data) == 0.0 and np.allclose(bound, 0.0)

    def test_precondition_rejected_above_minus_one(self, rng):
        params = tiny_params()
        trace = fabricate(params, rng.normal(size=(1, 4, 8)), rng.normal(size=(1, 8)),
                          rng.normal(size=(1, 8)), rng.normal(size=(1, 4)),
                          np.ones(1), a_raw=-1.0)  # A = -exp(-1) > -1
        _, inter = losses.state_alignment_loss(params, trace)
        with pytest.raises(losses.LossError, match="precondition"):
            losses.state_loss_bound(trace, trace.extension, inter)

    def test_bound_dominates_loss_on_random_instances(self, rng):
        params = tiny_params(d=6, d_s=3)
        m = 400
        a_raw = float(rng.uniform(0.0, np.log(4.0)))  # A in [-4, -1]
        trace = fabricate(params,
                          rng.normal(size=(m, 3, 6)), rng.normal(size=(m, 6)),
                          rng.normal(size=(m, 6)), rng.normal(size=(m, 3)),
                          rng.uniform(0.05, 2.0, m), a_raw=a_raw)
        loss, inter = losses.state_alignment_loss(params, trace)
        bound = losses.state_loss_bound(trace, trace.extension, inter)
        assert np.all(inter.per_row <= bound + 1e-12)


class TestTotalLoss:
    def test_zero_weights_reduce_to_rec(self):
        w = LossWeights(mu1_train=0.0, mu2_train=0.0)
        rec = ag.constant(np.array(1.7))
        out = losses.total_loss(rec, ag.constant(np.array(9.0)),
                                ag.constant(np.array(9.0)), w, "train")
        assert float(out.data) == 1.7

    def test_test_phase_ignores_rec(self):
        w = AdaptConfig(mu1_test=0.5, mu2_test=0.25)
        out = losses.total_loss(ag.constant(np.array(1e9)),
                                ag.constant(np.array(2.0)),
                                ag.constant(np.array(4.0)), w, "test")
        assert float(out.data) == 0.5 * 2.0 + 0.25 * 4.0
        w = AdaptConfig(mu1_test=0.0, mu2_test=0.25)
        out = losses.total_loss(None, ag.constant(np.array(np.inf)),
                                ag.constant(np.array(4.0)), w, "test")
        assert float(out.data) == 0.25 * 4.0

    def test_train_combination(self):
        w = LossWeights(mu1_train=0.1, mu2_train=1.0)
        out = losses.total_loss(ag.constant(np.array(1.0)),
                                ag.constant(np.array(2.0)),
                                ag.constant(np.array(3.0)), w, "train")
        assert abs(float(out.data) - (1.0 + 0.2 + 3.0)) < 1e-15

    def test_default_training_weights(self):
        w = LossWeights()
        assert w.mu1_train == 0.1 and w.mu2_train == 1.0

    def test_default_test_weights(self):
        w = AdaptConfig()
        assert w.mu1_test == 1e-2 and w.mu2_test == 1e-1

    def test_invalid_weights_rejected(self):
        with pytest.raises(losses.LossError):
            LossWeights(lam=0.0)
        with pytest.raises(losses.LossError):
            LossWeights(block_size=1)
        with pytest.raises(losses.LossError):
            LossWeights(mu1_train=-0.5)


class TestLossGradients:
    def test_all_losses_pass_finite_differences(self, rng):
        params = tiny_params(seed=23, detach_extension=False)
        batch = random_batch(rng, n_examples=3, max_len=6)
        w = LossWeights(lam=500.0, block_size=4)
        pd = params.as_dict()

        def rec():
            tr = model.forward_full(params, batch, training=False)
            return losses.rec_loss(tr.logits, batch.target_item)

        def time():
            tr = model.forward_full(params, batch, training=False)
            return losses.batch_time_loss(params, tr, batch, w)[0]

        def state():
            tr = model.forward_full(params, batch, training=False)
            return losses.state_alignment_loss(params, tr)[0]

        def total():
            tr = model.forward_full(params, batch, training=False)
            return losses.total_loss(
                losses.rec_loss(tr.logits, batch.target_item),
                losses.batch_time_loss(params, tr, batch, w)[0],
                losses.state_alignment_loss(params, tr)[0], w, "train")

        for f in (rec, time, state, total):
            rep = ag.finite_diff_check(f, pd, eps=1e-5, tol=1e-4,
                                       n_samples=24, rng=rng)
            assert rep.ok, rep.failures[:4]


class TestFloat32Audit:
    """The float32 working precision at the edges of each loss's range."""

    @pytest.mark.parametrize("lam", [600.0, 1e6])
    def test_time_loss_at_gaps_near_a_million_seconds(self, rng, lam):
        m, n = 3, 9
        T = np.round(rng.uniform(0.9e6, 1.1e6, (m, n)))
        elig = np.ones((m, n), bool)
        elig[:, 0] = False
        d32 = rng.uniform(0.5, 1.5, (m, n)).astype(np.float32)
        out = {}
        for dt in (np.float32, np.float64):
            delta = ag.parameter(d32.astype(dt))
            loss, pairs = losses.time_alignment_loss(delta, T, elig, lam, 4)
            out[dt] = loss, ag.grad(loss, {"d": delta})["d"]
        (l32, g32), (_, g64) = out[np.float32], out[np.float64]
        ref, ref_pairs = brute_force_time_loss(d32.astype(float), T, elig, lam, 4)
        assert pairs == ref_pairs
        assert l32.data.dtype == g32.dtype == np.float32
        assert abs(float(l32.data) - ref) <= 1e-6 * max(1.0, abs(ref))
        assert np.allclose(g32, g64, rtol=1e-5, atol=1e-6 * np.abs(g64).max())

    def test_state_loss_at_the_delta_guard_stays_finite(self, rng):
        params = tiny_params(dtype="float32")

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        delta_next = np.array([0.0, losses.DELTA_GUARD / 100, 0.5], np.float32)
        trace = fabricate(params, f32(3, 4, 8), f32(3, 8), f32(3, 8), f32(3, 4),
                          delta_next)
        loss, inter = losses.state_alignment_loss(params, trace)
        assert inter.clamp_warnings == 2
        assert loss.data.dtype == np.float32 and np.isfinite(loss.data)
        grads = ag.grad(loss, params.as_dict())
        assert all(g.dtype == np.float32 and np.all(np.isfinite(g))
                   for g in grads.values())

    def test_cross_entropy_on_float32_logits_of_ten_thousand(self):
        z = np.array([[1e4, -1e4, 0.0, 1e4],
                      [-1e4, -1e4, -1e4, 1e4]], np.float32)
        logits = ag.parameter(z)
        loss = losses.rec_loss(logits, np.array([1, 3]))
        # row 0: target 2e4 under two tied maxima; row 1: target is the max
        ref = (2e4 + np.log(2.0)) / 2
        assert loss.data.dtype == np.float32
        assert abs(float(loss.data) - ref) <= 1e-6 * ref
        g = ag.grad(loss, {"z": logits})["z"]
        assert g.dtype == np.float32
        assert np.array_equal(g, np.array([[0.25, -0.5, 0.0, 0.25],
                                           [0.0, 0.0, 0.0, 0.0]], np.float32))
