from dataclasses import replace

import numpy as np
import pytest

from alignrec import ingest, model, pipeline
from alignrec.config import load_config


def small_config(epochs=1, patience=3, eval_every=1):
    return load_config({
        "seed": 5,
        "data": {"generator": {"n_users": 30, "n_items": 20, "n_clusters": 3,
                               "min_events": 8, "max_events": 12},
                 "max_len": 6, "min_interactions": 0},
        "model": {"d": 8, "d_s": 4, "dropout": 0.0},
        "train": {"lr": 0.02, "epochs": epochs, "batch_size": 64,
                  "eval_every": eval_every, "patience": patience},
        "adapt": {"steps": 1, "lr": 0.05, "batch_policy": "whole"},
    })


class TestEarlyStopping:
    """train_model's stopping rule, driven by scripted validation NDCG
    (dyadic values, so each row mean is exact)."""

    def run(self, monkeypatch, scores, patience):
        """Train with each evaluation scoring the next entry of `scores`;
        returns (epochs run, the digest seen at each evaluation, the
        returned parameters' digest)."""
        seen = []

        def scripted(params, batches, k=10):
            seen.append(model.checkpoint_digest(params))
            rows = np.zeros((sum(b.size for b in batches), 4))
            rows[:, 2] = scores[len(seen) - 1]
            return rows

        monkeypatch.setattr(pipeline.adapt_mod, "evaluate_frozen", scripted)
        params, _, _, history = pipeline.train_model(
            small_config(epochs=len(scores), patience=patience))
        assert len(set(seen)) == len(seen)      # every epoch moved the parameters
        assert [r["valid_ndcg"] for r in history] == scores[:len(history)]
        return len(history), seen, model.checkpoint_digest(params)

    def test_strict_improvement_never_stops(self, monkeypatch):
        n, seen, final = self.run(monkeypatch, [0.125, 0.25, 0.375, 0.5, 0.625], patience=3)
        assert n == 5 and final == seen[4]

    def test_stops_after_patience_bad_evals(self, monkeypatch):
        n, seen, final = self.run(monkeypatch, [0.5, 0.25, 0.25, 0.25, 0.875], patience=3)
        assert n == 4 and final == seen[0]

    def test_plateau_counts_as_non_improvement(self, monkeypatch):
        n, seen, final = self.run(monkeypatch, [0.5, 0.5, 0.5, 0.5, 0.875], patience=3)
        assert n == 4 and final == seen[0]

    def test_recovery_resets_the_counter(self, monkeypatch):
        # without the reset, the bad evaluations at 2 and 4 would stop at 4
        n, seen, final = self.run(monkeypatch, [0.5, 0.25, 0.625, 0.5, 0.5, 0.875], patience=2)
        assert n == 5 and final == seen[2]


def test_shift_experiment_frozen_row_is_the_frozen_evaluation():
    cfg = small_config()
    res = pipeline.shift_experiment(cfg, seeds=[2])
    assert set(res) == {"frozen", "adapted"}
    seeded = replace(cfg, seed=2)
    params, weights, split, _ = pipeline.train_model(seeded)
    expected = {}
    for ttt in (False, True):
        report, _, _ = pipeline.evaluate_run(seeded, params, weights, split, ttt=ttt)
        expected[ttt] = [s["ndcg_at_k"] for s in report.segments]
    assert res["frozen"].shape == (1, 4)
    assert res["frozen"][0].tolist() == expected[False]
    assert res["adapted"][0].tolist() == expected[True]


@pytest.mark.parametrize("patience", [1, 2])
def test_epochs_between_evaluations_do_not_count(monkeypatch, patience):
    # evaluations at epochs 2, 4, 6, ...: a flat score stops after `patience`
    # of them, not after `patience` epochs
    calls = []

    def flat(params, batches, k=10):
        calls.append(1)
        return np.zeros((sum(b.size for b in batches), 4))

    monkeypatch.setattr(pipeline.adapt_mod, "evaluate_frozen", flat)
    _, _, _, history = pipeline.train_model(
        small_config(epochs=10, patience=patience, eval_every=2))
    assert len(calls) == patience + 1 and len(history) == 2 * (patience + 1)


def test_min_interactions_filters_the_loaded_dataset():
    # 150 items over about 300 events: some items occur fewer than 3 times
    cfg = small_config()
    data = replace(cfg.data, generator={**cfg.data.generator, "n_items": 150})
    raw = pipeline.load_dataset(replace(cfg, data=data))
    got = pipeline.load_dataset(replace(cfg, data=replace(data, min_interactions=3)))
    want = ingest.filter_min_interactions(raw, 3)
    assert len(want.items) < len(raw.items)
    assert got.user_ids == want.user_ids and got.vocab == want.vocab
    for name in ("items", "times", "counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
