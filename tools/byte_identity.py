#!/usr/bin/env python3
"""Check that two source trees adapt and predict byte for byte alike.

    python3 tools/byte_identity.py --other PATH [--shapes NAMES] [--seed N]

Runs one seeded request set on this checkout and on the checkout at PATH,
each in its own subprocess that imports alignrec from that tree's `src/`.
For every shape, adaptation config and request batch it records the adapted
logits, the AdaptReport's per-step losses, clamp warnings and abort flag, and
the checkpoint digest after the request. The two record sets are compared
array by array (NaN equals NaN); exit 0 when all are identical, 1 otherwise.

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
  convolution context.

Adaptation configs: the shape's own (M=2), M=3 at lr 0.5, zero steps, each
loss alone, and an overflowing embedding table that aborts adaptation.
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
          "tiny-short", "tiny-f32", "tiny-f64", "tiny-w1")
N_BATCHES = 6
CONFIGS = {
    "m2": {},
    "m3-lr0.5": {"steps": 3, "lr": 0.5},
    "steps0": {"steps": 0},
    "time-only": {"mu2_test": 0.0},
    "state-only": {"mu1_test": 0.0},
    "abort": {},     # run on a table scaled by ABORT_SCALE
}
ABORT_SCALE = 1e200
TINY = {
    "generator": {"n_users": 40, "n_items": 30, "n_clusters": 3,
                  "min_events": 8, "max_events": 12},
    "max_len": 8, "d": 8, "d_s": 4, "request_size": 4,
}
SMOKE_SHAPES = {"tiny": TINY, "tiny-2block": {**TINY, "n_blocks": 2},
                "tiny-short": {**TINY, "max_len": 2},
                "tiny-f32": {**TINY, "precision": "float32"},
                "tiny-f64": {**TINY, "precision": "float64"},
                "tiny-w1": {**TINY, "conv_width": 1}}


def _load_shape(name, seed):
    """(params, weights, request batches, adaptation config) of one shape."""
    from alignrec import ingest, pipeline
    from alignrec.config import load_config

    if name == "train-shift":
        cfg = load_config(pipeline.SHIFT_EXPERIMENT_CONFIG, overrides={
            "seed": seed, "train": {"epochs": 1, "eval_every": 1}})
        params, weights, split, _ = pipeline.train_model(cfg)
        return params, weights, pipeline.test_batches(cfg, split)[:N_BATCHES], cfg.adapt

    if name in SMOKE_SHAPES:
        w = SMOKE_SHAPES[name]
    else:
        import workloads   # perfbench/workloads.py, for the benchmark's shapes
        w = workloads.ADAPT_WORKLOADS[name]
    pinned = {"precision": w["precision"]} if "precision" in w else {}
    cfg = load_config({
        "seed": seed, **pinned,
        "data": {"generator": w["generator"], "max_len": w["max_len"],
                 "min_interactions": 0},
        "model": {"d": w["d"], "d_s": w["d_s"], "n_blocks": w.get("n_blocks", 1),
                  "conv_width": w.get("conv_width", 4)},
        "adapt": {"steps": 2, "batch_policy": "fixed",
                  "batch_size": w["request_size"]},
    })
    ds = pipeline.load_dataset(cfg)
    split = ingest.leave_one_out_split(ds)
    weights = pipeline.resolve_weights(cfg, split.train)
    params = pipeline.build_model(cfg, ds.vocab_size, np.random.default_rng(seed))
    batches = pipeline.test_batches(cfg, split)[:N_BATCHES]
    return params, weights, batches, cfg.adapt


def worker(src, shapes, seed, out):
    """Run the request set with alignrec imported from `src`; save every
    recorded array to the .npz file `out`."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import alignrec
    from alignrec import adapt, model
    from alignrec import autograd as ag
    if not os.path.abspath(alignrec.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"alignrec imported from {alignrec.__file__}, not {src}")

    record = {}
    for shape in shapes:
        params, weights, batches, base = _load_shape(shape, seed)
        bad = params.overlay()
        bad.tensors["E"] = ag.Tensor(params["E"].data * ABORT_SCALE, requires_grad=True)
        for cname, over in CONFIGS.items():
            acfg = dataclasses.replace(base, **over)
            p = bad if cname == "abort" else params
            for i, batch in enumerate(batches):
                with np.errstate(all="ignore"):
                    logits, rep = adapt.adapt_and_predict(p, batch, acfg, weights)
                key = f"{shape}/{cname}/{i}/"
                record[key + "logits"] = logits
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
        print(f"{shape}: {len(keys)} arrays, {bad} differ, {aborted} requests aborted")
    for q in problems[:20]:
        print(f"  {q}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
