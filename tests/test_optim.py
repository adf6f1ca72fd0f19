import numpy as np
import pytest

from alignrec import model, optim
from alignrec.optim import Adam, Snapshot
from conftest import random_batch, tiny_params


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        params = tiny_params()
        before = {n: params[n].data.copy() for n in params.names()}
        opt = Adam(params, lr=0.1)
        opt.step({n: np.zeros_like(params[n].data) for n in params.names()})
        for n in params.names():
            assert np.array_equal(params[n].data, before[n])

    def test_first_step_matches_hand_computation(self):
        params = tiny_params()
        g = {n: np.full_like(params[n].data, 0.5) for n in params.names()}
        before = {n: params[n].data.copy() for n in params.names()}
        opt = Adam(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step(g)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expect_delta = -0.01 * 0.5 / (np.sqrt(0.25) + 1e-8)
        for n in params.names():
            assert np.allclose(params[n].data - before[n], expect_delta, atol=1e-12)

    def test_float32_step_with_zero_and_tiny_gradients(self):
        params = tiny_params(dtype="float32")
        params["E"].data[1:3] = 0.0
        before = {n: params[n].data.copy() for n in params.names()}
        g = np.zeros_like(params["E"].data)
        g[1] = 1e-30   # g*g underflows to 0 in float32, so eps alone divides
        g[2] = 1e-20   # g*g is subnormal
        opt = Adam(params, lr=0.01, eps=1e-8)
        opt.step({"E": g})
        for n in params.names():
            assert params[n].data.dtype == opt.m[n].dtype == opt.v[n].dtype == np.float32
            assert np.all(np.isfinite(params[n].data))
        E = params["E"].data
        assert np.array_equal(E[3:], before["E"][3:]) and np.array_equal(E[0], before["E"][0])
        assert all(np.array_equal(params[n].data, before[n]) for n in params.names() if n != "E")
        # bias-corrected first step in float64: -lr * g / (|g| + eps)
        g64 = g[1:3].astype(np.float64)
        assert np.allclose(E[1:3], -0.01 * g64 / (np.abs(g64) + 1e-8), rtol=1e-6, atol=0.0)

    def test_two_runs_identical(self, rng):
        def run():
            params = tiny_params(seed=5)
            opt = Adam(params, lr=0.05)
            local = np.random.default_rng(7)
            for _ in range(5):
                g = {n: local.normal(size=params[n].data.shape)
                     for n in params.names()}
                opt.step(g)
            return {n: params[n].data.copy() for n in params.names()}

        a, b = run(), run()
        for n in a:
            assert np.array_equal(a[n], b[n])

    def test_non_finite_gradient_aborts(self):
        params = tiny_params()
        g = {n: np.zeros_like(params[n].data) for n in params.names()}
        g["E"][0, 0] = np.nan
        before = {n: params[n].data.copy() for n in params.names()}
        opt = Adam(params)
        with pytest.raises(optim.OptimError, match="non-finite"):
            opt.step(g)
        for n in params.names():  # nothing mutated
            assert np.array_equal(params[n].data, before[n])

    def test_overflowing_second_moment_aborts_before_any_update(self):
        # g * g beyond the float range: v would become inf and freeze the entry
        params = tiny_params(dtype="float32")
        g = {n: np.ones_like(params[n].data) for n in params.names()}
        g["block0.Wf1"][0, 0] = 2 * np.sqrt(np.finfo(np.float32).max)
        before = {n: params[n].data.copy() for n in params.names()}
        opt = Adam(params)
        with np.errstate(over="ignore"), \
                pytest.raises(optim.OptimError, match="second moment of 'block0.Wf1'"):
            opt.step(g)
        assert opt.step_count == 0
        for n in params.names():  # nothing mutated, E and block0.W1 included
            assert np.array_equal(params[n].data, before[n])
            assert not opt.m[n].any() and not opt.v[n].any()

    def test_zero_learning_rate_is_noop(self, rng):
        params = tiny_params()
        before = {n: params[n].data.copy() for n in params.names()}
        opt = Adam(params, lr=0.0)
        opt.step({n: rng.normal(size=params[n].data.shape) for n in params.names()})
        for n in params.names():
            assert np.array_equal(params[n].data, before[n])


class TestSnapshot:
    def test_capture_mutate_restore(self, rng):
        params = tiny_params()
        snap = Snapshot(params)
        params["E"].data += 1.0
        params["block0.a_raw"].data = np.array(3.0)
        assert not snap.matches(params)
        snap.restore(params)
        assert snap.matches(params)

    def test_restore_is_idempotent(self):
        params = tiny_params()
        snap = Snapshot(params)
        snap.restore(params)
        snap.restore(params)
        assert snap.matches(params)

    def test_matches_compares_bytes_exactly(self):
        params = tiny_params()
        params["block0.a_raw"].data = np.array(np.nan)
        snap = Snapshot(params)
        assert snap.matches(params)              # equal bytes, though nan != nan
        params["block0.a_raw"].data = np.array(0.0)
        snap = Snapshot(params)
        params["block0.a_raw"].data = np.array(-0.0)
        assert not snap.matches(params)          # 0.0 == -0.0, but not bytewise

    def test_architecture_mismatch_rejected(self):
        snap = Snapshot(tiny_params())
        other = tiny_params(d=16, d_s=8)
        with pytest.raises(optim.OptimError):
            snap.restore(other)

    def test_restore_recovers_logits_after_sgd_step(self, rng):
        params = tiny_params(seed=3)
        batch = random_batch(rng)
        frozen = model.forward_full(params, batch, training=False).logits.data.copy()
        snap = Snapshot(params)
        optim.sgd_step(params, {"E": np.ones_like(params["E"].data)}, lr=0.1)
        moved = model.forward_full(params, batch, training=False).logits.data
        assert not np.array_equal(moved, frozen)
        snap.restore(params)
        after = model.forward_full(params, batch, training=False).logits.data
        assert np.array_equal(after, frozen)
