import tracemalloc
import weakref

import numpy as np
import pytest

from alignrec import adapt, evaluation, ingest, model, optim, pipeline
from alignrec import autograd as ag
from alignrec import losses as L
from alignrec.adapt import AdaptConfig
from alignrec.config import load_config
from alignrec.losses import LossWeights
from conftest import random_examples, tiny_params


@pytest.fixture
def setup(rng):
    params = tiny_params(seed=31)
    exs = random_examples(rng, n_examples=8, max_len=6)
    batches = ingest.make_batches(exs, max_len=6, batch_size=4)
    weights = LossWeights(lam=800.0, block_size=4)
    return params, exs, batches, weights


def frozen_logits(params, batch):
    return model.forward_full(params, batch, training=False).logits.data


class TestAdaptAndPredict:
    def test_zero_steps_is_identity(self, setup):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=0, lr=0.5)
        logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert np.array_equal(logits, frozen_logits(params, batches[0]))
        assert model.checkpoint_digest(params) == digest and not rep.aborted

    def test_zero_learning_rate_is_identity(self, setup):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=3, lr=0.0)
        logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert np.array_equal(logits, frozen_logits(params, batches[0]))
        assert model.checkpoint_digest(params) == digest

    def test_published_preset_accepted(self, setup):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=1, lr=0.05, mu1_test=1e-3, mu2_test=1e-2)
        logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert model.checkpoint_digest(params) == digest and not rep.aborted
        assert len(rep.time_losses) == 1 and len(rep.state_losses) == 1

    def test_parameters_restored_bit_exactly(self, setup):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=2, lr=0.2)
        adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert model.checkpoint_digest(params) == digest

    def test_adaptation_changes_predictions(self, setup):
        params, _, batches, weights = setup
        cfg = AdaptConfig(steps=2, lr=0.2)
        logits, _ = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert not np.array_equal(logits, frozen_logits(params, batches[0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_and_predicts_from_snapshot(self, setup):
        params, _, batches, weights = setup
        params["E"].data = params["E"].data * 1e200  # overflow the state loss
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=1, lr=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert rep.aborted
        assert model.checkpoint_digest(params) == digest
        assert np.array_equal(logits, frozen_logits(params, batches[0]),
                              equal_nan=True)

    def test_zero_weight_skips_its_loss(self, setup):
        params, _, batches, weights = setup
        only_time = AdaptConfig(steps=1, lr=0.1, mu2_test=0.0)
        only_state = AdaptConfig(steps=1, lr=0.1, mu1_test=0.0)
        _, rt = adapt.adapt_and_predict(params, batches[0], only_time, weights)
        _, rs = adapt.adapt_and_predict(params, batches[0], only_state, weights)
        assert rt.state_losses == [0.0] and rt.time_losses[0] > 0.0
        assert rs.time_losses == [0.0] and rs.state_losses[0] > 0.0
        neither = AdaptConfig(steps=2, lr=0.1, mu1_test=0.0, mu2_test=0.0)
        logits, rn = adapt.adapt_and_predict(params, batches[0], neither, weights)
        assert rn.time_losses == [] and rn.state_losses == []   # no step taken
        assert np.array_equal(logits, frozen_logits(params, batches[0]))


    @pytest.mark.parametrize("bad", [31, 10**6, -1])   # 31 is V
    def test_item_id_outside_the_table_raises(self, rng, bad):
        params = tiny_params(seed=31, vocab_size=31)
        batch = ingest.make_batches(random_examples(rng, n_examples=4, max_len=6),
                                    max_len=6, batch_size=4)[0]
        batch.items[1, -1] = bad
        with pytest.raises(ag.DomainError, match="out of range"):
            adapt.adapt_and_predict(params, batch, AdaptConfig(steps=2, lr=0.2),
                                    LossWeights(lam=800.0, block_size=4))


def dense_reference(params, batch, cfg, weights):
    """Adaptation over the whole embedding table, built from public pieces:
    (logits, time losses, state losses)."""
    live = params.overlay()
    time_losses, state_losses = [], []
    for _ in range(cfg.steps):
        trace = model.forward_full(live, batch, training=False, need_logits=False)
        t_loss, s_loss, _ = L.alignment_losses(
            live, trace, batch, weights, cfg.mu1_test, cfg.mu2_test)
        time_losses.append(float(t_loss.data))
        state_losses.append(float(s_loss.data))
        total = L.total_loss(None, t_loss, s_loss, cfg, phase="test")
        optim.sgd_step(live, ag.grad(total, live.as_dict()), cfg.lr)
    with ag.no_grad():
        logits = model.forward_full(live, batch, training=False,
                                    need_extension=False).logits.data
    return logits, time_losses, state_losses


def test_row_restricted_adaptation_equals_the_dense_reference(rng):
    # a 4-item vocabulary over 6 sequences of up to 6 steps repeats ids
    # across rows and positions, so rows collect several gradient terms
    params = tiny_params(seed=7)
    exs = random_examples(rng, n_examples=6, vocab=4, min_len=4, max_len=6)
    batch = ingest.make_batches(exs, max_len=6, batch_size=6)[0]
    ids, counts = np.unique(batch.items[batch.mask], return_counts=True)
    assert counts.max() >= 3
    assert any(len(set(batch.items[r][batch.mask[r]]) & set(batch.items[0][batch.mask[0]]))
               for r in range(1, batch.size))
    cfg = AdaptConfig(steps=3, lr=0.5)
    weights = LossWeights(lam=800.0, block_size=4)
    logits, rep = adapt.adapt_and_predict(params, batch, cfg, weights)
    ref_logits, ref_time, ref_state = dense_reference(params, batch, cfg, weights)
    assert not rep.aborted
    assert not np.array_equal(logits, frozen_logits(params, batch))
    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(rep.time_losses, ref_time)
    assert np.array_equal(rep.state_losses, ref_state)


class TestEvaluateWithAdaptation:
    def test_runs_are_repeatable(self, setup):
        params, _, batches, weights = setup
        cfg = AdaptConfig(steps=1, lr=0.1)
        a, _ = adapt.evaluate_with_adaptation(params, batches, cfg, weights)
        b, _ = adapt.evaluate_with_adaptation(params, batches, cfg, weights)
        assert np.array_equal(a, b)

    def test_global_parameters_unchanged_after_run(self, setup):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=2, lr=0.3)
        adapt.evaluate_with_adaptation(params, batches, cfg, weights)
        assert model.checkpoint_digest(params) == digest

    def test_batch_order_permutation_is_hermetic(self, setup, rng):
        params, exs, _, weights = setup
        cfg = AdaptConfig(steps=1, lr=0.2)
        batches = ingest.make_batches(exs, max_len=6, batch_size=2)
        in_order = [adapt.adapt_and_predict(params, b, cfg, weights)[0]
                    for b in batches]
        for k in reversed(range(len(batches))):
            again, _ = adapt.adapt_and_predict(params, batches[k], cfg, weights)
            assert np.array_equal(again, in_order[k])

    def test_whole_test_set_as_one_batch(self, setup):
        params, exs, _, weights = setup
        batches = ingest.make_batches(exs, max_len=6, batch_size=len(exs))
        assert len(batches) == 1
        digest = model.checkpoint_digest(params)
        cfg = AdaptConfig(steps=1, lr=0.1, batch_policy="whole")
        rows, reports = adapt.evaluate_with_adaptation(params, batches, cfg, weights)
        assert rows.shape == (len(exs), 4) and len(reports) == 1
        assert model.checkpoint_digest(params) == digest

    def test_labels_never_influence_adaptation(self, setup, rng):
        # poisoning the targets changes metrics but not the adapted logits
        params, exs, _, weights = setup
        cfg = AdaptConfig(steps=2, lr=0.2)
        batch = ingest.make_batches(exs, max_len=6, batch_size=len(exs))[0]
        ref, _ = adapt.adapt_and_predict(params, batch, cfg, weights)
        batch.target_item = rng.integers(1, 21, batch.size)
        poisoned, _ = adapt.adapt_and_predict(params, batch, cfg, weights)
        assert np.array_equal(ref, poisoned)

    def test_no_batches_give_rows_of_the_same_width(self, setup):
        params, _, batches, weights = setup
        cfg = AdaptConfig(steps=1, lr=0.1)
        frozen = adapt.evaluate_frozen(params, batches[:1])
        adapted, _ = adapt.evaluate_with_adaptation(params, batches[:1], cfg, weights)
        assert frozen.shape[1] == adapted.shape[1] == 4
        empty, reports = adapt.evaluate_with_adaptation(params, [], cfg, weights)
        assert empty.shape == adapt.evaluate_frozen(params, []).shape == (0, 4)
        assert empty.dtype == frozen.dtype and reports == []

    def test_noop_config_reproduces_frozen_metrics(self, setup):
        params, _, batches, weights = setup
        frozen = adapt.evaluate_frozen(params, batches)
        for cfg in (AdaptConfig(steps=0, lr=0.5),
                    AdaptConfig(steps=3, lr=0.0),
                    AdaptConfig(steps=2, lr=0.5, mu1_test=0.0, mu2_test=0.0)):
            rows, _ = adapt.evaluate_with_adaptation(params, batches, cfg, weights)
            assert np.array_equal(rows, frozen)


class TestBaseParametersUntouched:
    """Adaptation runs on a read-only overlay: the base tensors keep their
    very arrays."""

    def _assert_untouched(self, params, before):
        for name in params.names():
            assert params[name].data is before[name], name

    def test_adapt_and_predict(self, setup):
        params, _, batches, weights = setup
        before = {n: params[n].data for n in params.names()}
        _, rep = adapt.adapt_and_predict(
            params, batches[0], AdaptConfig(steps=2, lr=0.2), weights)
        assert not rep.aborted
        self._assert_untouched(params, before)

    def test_evaluate_with_adaptation(self, setup):
        params, _, batches, weights = setup
        before = {n: params[n].data for n in params.names()}
        adapt.evaluate_with_adaptation(params, batches, AdaptConfig(steps=2, lr=0.2),
                                       weights)
        self._assert_untouched(params, before)


class TestAdaptConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            AdaptConfig(steps=-1)
        for lr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                AdaptConfig(lr=lr)
        with pytest.raises(ValueError):
            AdaptConfig(mu2_test=float("inf"))
        with pytest.raises(ValueError):
            AdaptConfig(batch_policy="sometimes")


def test_trained_and_reloaded_parameters_adapt_alike(tmp_path):
    # adaptation must depend on the parameter values only, not on gradients
    # left on the tensors by training
    cfg = load_config({
        "seed": 5,
        "data": {"generator": {"n_users": 40, "n_items": 30, "n_clusters": 3,
                               "min_events": 8, "max_events": 12},
                 "max_len": 8, "min_interactions": 0},
        "model": {"d": 8, "d_s": 4, "conv_width": 3, "dropout": 0.0},
        "train": {"lr": 0.02, "epochs": 2, "batch_size": 16, "eval_every": 2},
        "adapt": {"steps": 2, "lr": 0.1, "batch_policy": "whole"},
    })
    params, weights, split, _ = pipeline.train_model(cfg)
    path = str(tmp_path / "ck.bin")
    model.save_checkpoint(path, params)
    loaded, _ = model.load_checkpoint(path)
    batch = pipeline.test_batches(cfg, split)[0]
    trained = adapt.adapt_and_predict(params, batch, cfg.adapt, weights)[0]
    reloaded = adapt.adapt_and_predict(loaded, batch, cfg.adapt, weights)[0]
    assert np.array_equal(trained, reloaded)


class TestStartStepPredict:
    """adapt_and_predict is start, M steps, then predict; one step's graph
    is alive at a time."""

    def test_adapt_and_predict_is_start_steps_predict(self, setup):
        params, _, batches, weights = setup
        cfg = AdaptConfig(steps=3, lr=0.5)
        logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        state = adapt.start(params, batches[0])
        records = []
        for k in range(cfg.steps):
            assert state.n_steps == k
            state, rec = adapt.step(state, cfg, weights)
            records.append(rec)
        assert not rep.aborted and not any(r.abort_reason for r in records)
        assert np.array_equal(adapt.predict(state, batches[0]), logits)
        assert rep.time_losses == [r.time_loss for r in records]
        assert rep.state_losses == [r.state_loss for r in records]
        assert rep.clamp_warnings == sum(r.clamp_warnings for r in records)

    def test_zero_steps_predicts_the_frozen_logits(self, setup):
        params, _, batches, _ = setup
        for batch in batches:
            assert np.array_equal(adapt.predict(adapt.start(params, batch), batch),
                                  frozen_logits(params, batch))

    def test_step_writes_neither_the_checkpoint_nor_its_input_state(self, setup):
        params, _, batches, weights = setup
        before = {n: params[n].data.copy() for n in params.names()}
        arrays = {n: params[n].data for n in params.names()}
        state = adapt.start(params, batches[0])
        for _ in range(2):
            held = {n: state.params[n].data.copy() for n in state.params.names()}
            new, rec = adapt.step(state, AdaptConfig(steps=2, lr=0.5), weights)
            assert not rec.abort_reason and new.n_steps == state.n_steps + 1
            assert new.params is not state.params
            for n in state.params.names():
                assert np.array_equal(state.params[n].data, held[n]), n
            state = new
        for n in params.names():
            assert params[n].data is arrays[n], n
            assert np.array_equal(params[n].data, before[n]), n
        assert not np.array_equal(state.params["E"].data,
                                  params["E"].data[state.rows])

    def test_each_steps_graph_is_freed_before_the_next_forward(self, setup, monkeypatch):
        params, _, batches, weights = setup
        losses_seen = []       # weakrefs to each step's total loss array
        dead_at = []           # (call, how many losses are dead, how many seen)
        total_loss, forward = L.total_loss, adapt.forward_full

        def tracked_total(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            losses_seen.append(weakref.ref(out.data))
            return out

        def tracked_forward(*args, **kwargs):
            predicting = kwargs.get("need_extension") is False
            if predicting:
                dead_at.append(("predict", sum(r() is None for r in losses_seen),
                                len(losses_seen)))
            out = forward(*args, **kwargs)
            if not predicting:
                dead_at.append(("step", sum(r() is None for r in losses_seen),
                                len(losses_seen)))
            return out

        monkeypatch.setattr(L, "total_loss", tracked_total)
        monkeypatch.setattr(adapt, "forward_full", tracked_forward)
        _, rep = adapt.adapt_and_predict(params, batches[0],
                                         AdaptConfig(steps=3, lr=0.2), weights)
        assert not rep.aborted and len(losses_seen) == 3
        # after step k+1's forward, steps 0..k have dead losses
        assert dead_at == [("step", 0, 0), ("step", 1, 1), ("step", 2, 2),
                           ("predict", 3, 3)]

    def test_traced_peak_does_not_grow_with_the_step_count(self):
        rng = np.random.default_rng(4)
        params = tiny_params(seed=4, vocab_size=21, d=32, d_s=16)
        exs = random_examples(rng, n_examples=64, max_len=16, min_len=8)
        batch = ingest.make_batches(exs, max_len=16, batch_size=64)[0]
        weights = LossWeights(lam=800.0, block_size=4)

        def peak(steps):
            cfg = AdaptConfig(steps=steps, lr=0.05)
            adapt.adapt_and_predict(params, batch, cfg, weights)   # warm-up
            tracemalloc.start()
            try:
                _, rep = adapt.adapt_and_predict(params, batch, cfg, weights)
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not rep.aborted
            return traced

        one, three = peak(1), peak(3)
        assert three <= 1.1 * one, (one, three)


def test_time_pairs_are_built_once_per_request(setup, monkeypatch):
    params, _, batches, weights = setup
    calls = []
    build = L.time_pairs

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(L, "time_pairs", counted)
    _, rep = adapt.adapt_and_predict(params, batches[0], AdaptConfig(steps=2, lr=0.2),
                                     weights)
    assert not rep.aborted and len(rep.time_losses) == 2 and len(calls) == 1
    adapt.adapt_and_predict(params, batches[0],
                            AdaptConfig(steps=2, lr=0.2, mu1_test=0.0), weights)
    assert len(calls) == 1     # no time loss, no pairs


class TestStepFailureAbortsItsBatch:
    """A failure at any step predicts that batch from the unadapted
    parameters and names the failure; it never leaves adapt_and_predict."""

    @staticmethod
    def fail_on_call(monkeypatch, owner, name, n, error):
        real = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == n:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)

    @pytest.mark.parametrize("where, error", [
        ("discretize", model.ModelError("stability violated: decay A must be negative")),
        ("state_alignment_loss", L.LossError("state_alignment_loss: decay A must be negative")),
    ])
    def test_failure_at_step_two(self, setup, monkeypatch, where, error):
        params, _, batches, weights = setup
        digest = model.checkpoint_digest(params)
        frozen = frozen_logits(params, batches[0])
        owner = model if where == "discretize" else L
        self.fail_on_call(monkeypatch, owner, where, 3, error)    # step 2 of 0..4
        cfg = AdaptConfig(steps=5, lr=0.2)
        logits, rep = adapt.adapt_and_predict(params, batches[0], cfg, weights)
        assert rep.aborted
        assert rep.abort_reason == f"step 2: {type(error).__name__}: {error}"
        assert "\n" not in rep.abort_reason
        assert len(rep.time_losses) == len(rep.state_losses) == 2
        assert np.array_equal(logits, frozen)
        assert model.checkpoint_digest(params) == digest

    def test_the_next_batch_adapts_as_if_alone(self, setup, monkeypatch):
        params, _, batches, weights = setup
        cfg = AdaptConfig(steps=3, lr=0.2)
        alone, _ = adapt.adapt_and_predict(params, batches[1], cfg, weights)
        self.fail_on_call(monkeypatch, model, "discretize", 2,
                          model.ModelError("stability violated: decay A must be negative"))
        rows, reports = adapt.evaluate_with_adaptation(params, batches[:2], cfg, weights)
        assert [r.aborted for r in reports] == [True, False]
        assert reports[1].abort_reason == ""
        assert np.array_equal(rows[batches[0].size:], evaluation.batch_rank_metrics(
            alone, batches[1].target_item, 10))

    def test_non_finite_loss_names_its_step(self, setup):
        params, _, batches, weights = setup
        params["E"].data = params["E"].data * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            _, rep = adapt.adapt_and_predict(params, batches[0],
                                             AdaptConfig(steps=2, lr=0.1), weights)
        assert rep.aborted
        assert rep.abort_reason == "step 0: AdaptError: non-finite adaptation loss"
