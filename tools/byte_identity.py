#!/usr/bin/env python3
"""Check that two source trees adapt and predict byte for byte alike.

    python3 tools/byte_identity.py --other PATH [--shapes NAMES] [--seed N]

Runs one seeded request set on this checkout and on the checkout at PATH,
each in its own subprocess that imports alignrec from that tree's `src/`.
Each shape's data is generated, written as a TSV in a temporary directory
and read back with `ingest.load_tsv`, as the benchmark does, so the loader
is compared too.
A shape whose model is trained records its parameter digest right after
training (`<shape>/trained/digest`), so a change that alters only the
trained bits is named as such: every difference downstream of it follows.
For every shape it records the split (the shared `items` and `times` and
each part's `first`, `end` and `user`), the resolved time-loss scale lam and
the five arrays of each request batch (its four fields and the
`t_elig` derived from its mask), so that a loader, filter, split or
batching difference is named directly, in any batch. For every shape,
adaptation config and request batch it records the adapted logits, their
metric rows at k=10 (recall, reciprocal rank, NDCG, rank;
`evaluation.batch_rank_metrics`), the AdaptReport's per-step losses, clamp
warnings and abort flag, and the checkpoint digest after the request.
Every request batch's frozen logits (the prediction pass that
`adapt.evaluate_frozen` ranks) and frozen metric rows are recorded once per
shape, so a change to the frozen forward is named directly, and a change to
the ranking shows even where adaptation aborts. The two record sets are
compared array by array (NaN equals NaN); exit 0 when all are identical, 1
otherwise.

Shapes (comma-separated, default all three benchmark shapes):
- train-shift: the shift-experiment model trained for one epoch, whole-test
  requests;
- adapt-long, adapt-catalog: the benchmark's seeded models and request sizes
  (see perfbench/workloads.py);
- tiny: a seconds-long shape for smoke tests;
- tiny-2block: tiny with two blocks, so an earlier block runs in front of
  the last one;
- tiny-short: tiny with max_len 2, so every sequence is shorter than the
  extension's w-1 convolution context;
- tiny-f32, tiny-f64: tiny pinned to float32 and to float64. Every other
  shape runs at the run config's default precision, so against a checkout
  with another default only these two compare like with like;
- tiny-w1: tiny with conv_width 1, so the extension step has an empty
  convolution context;
- tiny-stop: tiny trained through pipeline.train_model with eval_every 1
  and patience 1 for up to 20 epochs. At the default seed 0 the validation
  NDCG of epoch 5 equals epoch 4's, so training stops early at epoch 5, and
  the requests run on the restored parameters of epoch 4.

Adaptation configs: the shape's own (M=2), M=3 at lr 0.5, zero steps, each
loss alone, and an embedding table scaled so that its largest entry is
ABORT_FRACTION of its dtype's largest finite value: the table stays finite,
the forward pass overflows, and adaptation aborts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES = ("train-shift", "adapt-long", "adapt-catalog", "tiny", "tiny-2block",
          "tiny-short", "tiny-f32", "tiny-f64", "tiny-w1", "tiny-stop")
N_BATCHES = 6
CONFIGS = {
    "m2": {},
    "m3-lr0.5": {"steps": 3, "lr": 0.5},
    "steps0": {"steps": 0},
    "time-only": {"mu2_test": 0.0},
    "state-only": {"mu1_test": 0.0},
    "abort": {},     # run on a table scaled to ABORT_FRACTION of its dtype's range
}
ABORT_FRACTION = 0.25
TINY = {
    "generator": {"n_users": 40, "n_items": 30, "n_clusters": 3,
                  "min_events": 8, "max_events": 12},
    "max_len": 8, "d": 8, "d_s": 4, "request_size": 4,
}
SMOKE_SHAPES = {"tiny": TINY, "tiny-2block": {**TINY, "n_blocks": 2},
                "tiny-short": {**TINY, "max_len": 2},
                "tiny-f32": {**TINY, "precision": "float32"},
                "tiny-f64": {**TINY, "precision": "float64"},
                "tiny-w1": {**TINY, "conv_width": 1},
                "tiny-stop": {**TINY, "train": {"epochs": 20, "eval_every": 1,
                                                "patience": 1}}}


def _write_data(generator, seed, tmp):
    """Generate a shape's data and write it as a TSV under `tmp`; returns
    its path."""
    from alignrec import ingest

    path = os.path.join(tmp, "data.tsv")
    ds = ingest.synth_shift_generate(ingest.GeneratorSpec(**generator), seed=seed)
    ingest.write_tsv(ds, path)
    return path


def _load_shape(name, seed, tmp):
    """(params, weights, split, request batches, adaptation config, whether
    the params were trained) of one shape, its data read from a TSV written
    under `tmp`."""
    from alignrec import ingest, pipeline
    from alignrec.config import load_config

    if name == "train-shift":
        shift = pipeline.SHIFT_EXPERIMENT_CONFIG
        cfg = load_config(shift, overrides={
            "seed": seed, "data": {"path": _write_data(shift["data"]["generator"], seed, tmp)},
            "train": {"epochs": 1, "eval_every": 1}})
        params, weights, split, _ = pipeline.train_model(cfg)
        batches = pipeline.test_batches(cfg, split)[:N_BATCHES]
        return params, weights, split, batches, cfg.adapt, True

    if name in SMOKE_SHAPES:
        w = SMOKE_SHAPES[name]
    else:
        import workloads   # perfbench/workloads.py, for the benchmark's shapes
        w = workloads.ADAPT_WORKLOADS[name]
    pinned = {"precision": w["precision"]} if "precision" in w else {}
    cfg = load_config({
        "seed": seed, **pinned,
        "data": {"path": _write_data(w["generator"], seed, tmp), "max_len": w["max_len"],
                 "min_interactions": 0},
        "model": {"d": w["d"], "d_s": w["d_s"], "n_blocks": w.get("n_blocks", 1),
                  "conv_width": w.get("conv_width", 4)},
        "train": w.get("train", {}),
        "adapt": {"steps": 2, "batch_policy": "fixed",
                  "batch_size": w["request_size"]},
    })
    if "train" in w:
        params, weights, split, _ = pipeline.train_model(cfg)
    else:
        ds = pipeline.load_dataset(cfg)
        split = ingest.leave_one_out_split(ds)
        weights = pipeline.resolve_weights(cfg, split.train)
        params = pipeline.build_model(cfg, ds.vocab_size, np.random.default_rng(seed))
    batches = pipeline.test_batches(cfg, split)[:N_BATCHES]
    return params, weights, split, batches, cfg.adapt, "train" in w


def worker(src, shapes, seed, out):
    """Run the request set with alignrec imported from `src`; save every
    recorded array to the .npz file `out`."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import alignrec
    from alignrec import adapt, evaluation, model
    from alignrec import autograd as ag
    if not os.path.abspath(alignrec.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"alignrec imported from {alignrec.__file__}, not {src}")

    record = {}
    for shape in shapes:
        with tempfile.TemporaryDirectory() as tmp:
            params, weights, split, batches, base, trained = _load_shape(shape, seed, tmp)
        if trained:
            record[f"{shape}/trained/digest"] = np.asarray(model.checkpoint_digest(params))
        E = params["E"].data
        top = np.finfo(E.dtype).max * ABORT_FRACTION
        bad = params.overlay()
        bad.tensors["E"] = ag.Tensor(E / np.abs(E).max() * E.dtype.type(top),
                                     requires_grad=True)
        record[f"{shape}/split/items"] = split.test.items
        record[f"{shape}/split/times"] = split.test.times
        for part in ("train", "valid", "test"):
            for f in ("first", "end", "user"):
                record[f"{shape}/split/{part}/{f}"] = getattr(getattr(split, part), f)
        record[f"{shape}/lam"] = np.asarray(weights.lam)
        for i, batch in enumerate(batches):
            for name in ("items", "mask", "target_item", "T", "t_elig"):
                record[f"{shape}/batch/{i}/{name}"] = getattr(batch, name)
            with ag.no_grad():
                record[f"{shape}/frozen/{i}/logits"] = model.forward_full(
                    params, batch, training=False, need_extension=False).logits.data
            record[f"{shape}/frozen/{i}/rows"] = adapt.evaluate_frozen(params, [batch])
        for cname, over in CONFIGS.items():
            acfg = dataclasses.replace(base, **over)
            p = bad if cname == "abort" else params
            for i, batch in enumerate(batches):
                with np.errstate(all="ignore"):
                    logits, rep = adapt.adapt_and_predict(p, batch, acfg, weights)
                key = f"{shape}/{cname}/{i}/"
                record[key + "logits"] = logits
                record[key + "rows"] = evaluation.batch_rank_metrics(
                    logits, batch.target_item, 10)
                record[key + "time_losses"] = np.asarray(rep.time_losses, dtype=float)
                record[key + "state_losses"] = np.asarray(rep.state_losses, dtype=float)
                record[key + "clamp_warnings"] = np.asarray(rep.clamp_warnings)
                record[key + "aborted"] = np.asarray(rep.aborted)
                record[key + "digest"] = np.asarray(model.checkpoint_digest(params))
    np.savez(out, **record)


def compare(a, b):
    """Keys missing on one side and keys whose arrays differ (NaN == NaN)."""
    problems = [f"only in this checkout: {k}" for k in sorted(set(a) - set(b))]
    problems += [f"only in the other checkout: {k}" for k in sorted(set(b) - set(a))]
    for k in sorted(set(a) & set(b)):
        x, y = a[k], b[k]
        nan_ok = x.dtype.kind in "fc" and y.dtype.kind in "fc"
        if x.dtype != y.dtype or not np.array_equal(x, y, equal_nan=nan_ok):
            problems.append(f"differs: {k}")
    return problems


def _run_tree(tree, shapes, seed, out):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", os.path.join(tree, "src"),
           "--shapes", ",".join(shapes), "--seed", str(seed), "--out", out]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"byte_identity: run on {tree} failed:\n{res.stderr}")
    sys.stderr.write(res.stderr)      # warnings of a run that finished
    with np.load(out) as z:
        return {k: z[k] for k in z.files}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--other", help="root of the checkout to compare against")
    p.add_argument("--shapes", default="train-shift,adapt-long,adapt-catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    shapes = args.shapes.split(",")
    unknown = [s for s in shapes if s not in SHAPES]
    if unknown:
        p.error(f"unknown shapes {unknown} (have {', '.join(SHAPES)})")
    if args.worker:
        worker(args.worker, shapes, args.seed, args.out)
        return 0
    if not args.other:
        p.error("--other is required")

    with tempfile.TemporaryDirectory() as tmp:
        mine = _run_tree(ROOT, shapes, args.seed, os.path.join(tmp, "this.npz"))
        other = _run_tree(args.other, shapes, args.seed, os.path.join(tmp, "other.npz"))
    problems = compare(mine, other)
    for shape in shapes:
        keys = [k for k in mine if k.startswith(shape + "/")]
        aborted = sum(bool(mine[k]) for k in keys if k.endswith("/aborted"))
        bad = sum(1 for q in problems if f" {shape}/" in q)
        trained = f"differs: {shape}/trained/digest" in problems
        print(f"{shape}: {len(keys)} arrays, {bad} differ, {aborted} requests aborted"
              + (", trained parameters differ" if trained else ""))
    for q in problems[:20]:
        print(f"  {q}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
