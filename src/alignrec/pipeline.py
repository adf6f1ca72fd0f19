"""End-to-end plumbing: dataset resolution, the training loop, and the
frozen/adapted evaluation paths used by the CLI and the experiments.

Everything here is deterministic for a fixed config and seed: one rng drives
parameter init, batch shuffling and dropout, in a fixed consumption order,
and log records contain no wall-clock values.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from . import adapt as adapt_mod
from . import autograd as ag
from . import evaluation, ingest, losses as L, model, optim
from .config import generator_spec


class PipelineError(RuntimeError):
    pass


def load_dataset(cfg):
    """Materialize the dataset named by the config (file or generator)."""
    if cfg.data.path:
        ds = ingest.load_tsv(cfg.data.path)
    else:
        spec = generator_spec(cfg)
        ds = ingest.synth_shift_generate(spec, seed=cfg.seed)
    if cfg.data.min_interactions:
        ds = ingest.filter_min_interactions(ds, cfg.data.min_interactions)
    return ds


def resolve_weights(cfg, train_examples):
    """LossWeights with lam resolved ("median" -> median positive gap)."""
    lam = cfg.losses.lam
    if isinstance(lam, str):
        lam = ingest.median_positive_interval(train_examples)
    return replace(cfg.losses, lam=float(lam))


def build_model(cfg, vocab_size, rng):
    mc = model.ModelConfig(vocab_size=vocab_size, dtype=cfg.precision, **vars(cfg.model))
    return model.ModelParams(mc, rng=rng)


def train_model(cfg, progress=None):
    """Train with Adam on the combined objective, validating by NDCG@10
    every eval_every epochs and at the last one.

    A strictly higher NDCG snapshots the parameters; training stops after
    cfg.train.patience evaluations in a row without one (a plateau counts
    as none), and the best snapshot is restored. Returns (params, weights,
    split, history): one deterministic JSON-serializable record per epoch
    run, each also passed to `progress` when given.
    """
    rng = np.random.default_rng(cfg.seed)
    ds = load_dataset(cfg)
    split = ingest.leave_one_out_split(ds)
    if not split.train:
        # the data leaves nothing to train on: an input-data error, not a
        # numeric failure
        raise ingest.IngestError("no training examples after splitting")
    weights = resolve_weights(cfg, split.train)

    params = build_model(cfg, ds.vocab_size, rng)
    adam = optim.Adam(params, lr=cfg.train.lr, beta1=cfg.train.beta1,
                      beta2=cfg.train.beta2, eps=cfg.train.eps)
    valid_batches = ingest.make_batches(split.valid, cfg.data.max_len,
                                        max(1, cfg.train.batch_size),
                                        cfg.data.pad_side)
    pdict = params.as_dict()
    best = optim.snapshot(params)
    best_ndcg = -1.0
    stale = 0
    history = []

    order = np.arange(len(split.train))
    for epoch in range(1, cfg.train.epochs + 1):
        rng.shuffle(order)
        examples = split.train[order]
        batches = ingest.make_batches(examples, cfg.data.max_len,
                                      cfg.train.batch_size, cfg.data.pad_side)
        sums = np.zeros(4)
        for batch in batches:
            trace = model.forward_full(params, batch, rng=rng, training=True)
            rec = L.rec_loss(trace.logits, batch.target_item)
            tl, sl, _ = L.alignment_losses(params, trace, batch, weights,
                                           weights.mu1_train, weights.mu2_train)
            total = L.total_loss(rec, tl, sl, weights, phase="train")
            if not np.isfinite(total.data):
                raise PipelineError(
                    f"non-finite training loss at epoch {epoch}: rec={float(rec.data)} "
                    f"time={tl and float(tl.data)} state={sl and float(sl.data)}")
            grads = ag.grad(total, pdict)
            adam.step(grads)
            sums += [float(total.data), float(rec.data),
                     float(tl.data) if tl is not None else 0.0,
                     float(sl.data) if sl is not None else 0.0]
        n = max(1, len(batches))
        record = {"epoch": epoch, "loss": sums[0] / n, "rec": sums[1] / n,
                  "time": sums[2] / n, "state": sums[3] / n}

        if epoch % cfg.train.eval_every == 0 or epoch == cfg.train.epochs:
            rows = adapt_mod.evaluate_frozen(params, valid_batches)
            ndcg = float(rows[:, 2].mean()) if len(rows) else 0.0
            record["valid_ndcg"] = ndcg
            if ndcg > best_ndcg:
                best_ndcg = ndcg
                best = optim.snapshot(params)
                stale = 0
            else:
                stale += 1

        history.append(record)
        if progress is not None:
            progress(record)
        if stale >= cfg.train.patience:
            break

    best.restore(params)
    return params, weights, split, history


def test_batches(cfg, split):
    """Batch the test split per the adaptation batching policy."""
    if cfg.adapt.batch_policy == "whole":
        bs = max(1, len(split.test))
    else:
        bs = cfg.adapt.batch_size
    return ingest.make_batches(split.test, cfg.data.max_len, bs, cfg.data.pad_side)


def evaluate_run(cfg, params, weights, split, ttt=True, k=10, k_segments=4,
                 with_baseline_delta=False):
    """Metrics + segment breakdown for the test split, frozen or adapted.

    Returns (MetricsReport, AdaptReports, per-example rows); with ttt and
    with_baseline_delta each segment also reports the delta to frozen.
    """
    batches = test_batches(cfg, split)
    reports = []
    baseline = None
    if ttt:
        rows, reports = adapt_mod.evaluate_with_adaptation(
            params, batches, cfg.adapt, weights, k=k)
        if with_baseline_delta:
            baseline = adapt_mod.evaluate_frozen(params, batches, k=k)
    else:
        rows = adapt_mod.evaluate_frozen(params, batches, k=k)
    report = evaluation.segment_analysis(split.test, rows, k_segments=k_segments,
                                         k=k, baseline_rows=baseline)
    return report, reports, rows


# desk-scale interest-shift benchmark: staggered user windows over a global
# horizon with the cluster-regime switch at 60%, post-switch events sparse
# enough that the second regime stays under-served during training
SHIFT_EXPERIMENT_CONFIG = {
    "out_dir": "runs/shift",
    "data": {
        "generator": {"n_users": 500, "n_items": 200, "n_clusters": 8,
                      "min_events": 18, "max_events": 34, "noise_rate": 0.15,
                      "walk_persistence": 0.9, "switch_frac": 0.6,
                      "gap_mean_pre": 600.0, "gap_mean_post": 1500.0},
        "max_len": 20, "min_interactions": 0,
    },
    "model": {"d": 24, "d_s": 12, "conv_width": 4, "dropout": 0.0},
    "losses": {"mu1_train": 0.1, "mu2_train": 0.01},
    "train": {"lr": 0.01, "epochs": 10, "batch_size": 256, "eval_every": 5},
    "adapt": {"steps": 2, "lr": 0.1, "mu1_test": 0.01, "mu2_test": 0.1,
              "batch_policy": "whole"},
}


def shift_experiment(base_config, seeds):
    """Train on the synthetic shift dataset and compare frozen vs adapted
    per-segment NDCG@10, once per seed.

    Each seed makes one adapted evaluate_run whose baseline delta carries
    the frozen model's per-segment NDCG. Returns {"frozen", "adapted"}, each
    a (len(seeds), 4) array of segment NDCG.
    """
    frozen, adapted = [], []
    for seed in seeds:
        cfg = replace(base_config, seed=int(seed))
        params, weights, split, _ = train_model(cfg)
        report, _, _ = evaluate_run(cfg, params, weights, split, ttt=True,
                                    with_baseline_delta=True)
        frozen.append([s["baseline_ndcg_at_k"] for s in report.segments])
        adapted.append([s["ndcg_at_k"] for s in report.segments])
    return {"frozen": np.asarray(frozen), "adapted": np.asarray(adapted)}


def write_json(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def write_log(path, records):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
