"""Command-line entry points.

Subcommands: gen (synthesize a dataset), train, eval, gradcheck, sweep.
Exit codes: 0 success; 2 configuration or input-data error, including a
missing or unreadable config or data file; 3 numeric failure or unreadable
checkpoint. Each error prints one line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import adapt as adapt_mod
from . import autograd as ag
from . import evaluation, ingest, losses as L, model, pipeline
from .config import ABLATIONS, ConfigError, generator_spec, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parser():
    p = argparse.ArgumentParser(prog="alignrec",
                                description="Selective state-space recommender "
                                            "with test-time alignment")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--preset", choices=["main", "appendix"], default=None)
        sp.add_argument("--ablate", action="append", default=[],
                        choices=list(ABLATIONS))

    sp = sub.add_parser("gen", help="write a synthetic dataset as TSV")
    common(sp)

    sp = sub.add_parser("train", help="train and write the best checkpoint")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--ttt", choices=["on", "off"], default="on")
    sp.add_argument("--throughput", action="store_true",
                    help="also measure iterations/second (timing output)")
    sp.add_argument("--ranks-csv", action="store_true",
                    help="write per-example ranks as CSV")

    sp = sub.add_parser("gradcheck", help="finite-difference check of all losses")
    common(sp)

    sp = sub.add_parser("sweep", help="grid over training loss weights -> CSV")
    common(sp)
    sp.add_argument("--grid", default="0.01,0.1,1,10",
                    help="comma-separated weight values for both axes")

    return p


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = load_config(args.config, preset=args.preset, overrides=overrides,
                      ablate=args.ablate)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError([f"cannot create out_dir {cfg.out_dir}: {e.strerror}"]) from None
    return cfg


def cmd_gen(args):
    cfg = _load(args)
    spec = generator_spec(cfg)
    if spec is None:
        raise ConfigError(["gen requires a data.generator section"])
    ds = ingest.synth_shift_generate(spec, seed=cfg.seed)
    tsv = os.path.join(cfg.out_dir, "dataset.tsv")
    ingest.write_tsv(ds, tsv)
    pipeline.write_json(os.path.join(cfg.out_dir, "gen_manifest.json"), {
        "seed": cfg.seed,
        "spec": asdict(spec),
        "n_users": len(ds.user_ids),
        "n_interactions": ds.n_interactions,
        "vocab_size": ds.vocab_size,
        "path": tsv,
    })
    print(f"wrote {tsv} ({len(ds.user_ids)} users, {ds.n_interactions} interactions)")
    return EXIT_OK


def cmd_train(args):
    cfg = _load(args)
    params, weights, split, history = pipeline.train_model(
        cfg, progress=lambda r: print(
            f"epoch {r['epoch']}: loss {r['loss']:.4f}"
            + (f" valid ndcg {r['valid_ndcg']:.4f}" if "valid_ndcg" in r else ""),
            file=sys.stderr))
    ck = os.path.join(cfg.out_dir, "checkpoint.bin")
    model.save_checkpoint(ck, params, extra={"lam": weights.lam})
    pipeline.write_log(os.path.join(cfg.out_dir, "train_log.jsonl"), history)
    pipeline.write_json(os.path.join(cfg.out_dir, "manifest.json"), {
        "config": asdict(cfg),
        "lam": weights.lam,
        "checkpoint": ck,
        "checkpoint_digest": model.checkpoint_digest(params),
        "epochs_run": len(history),
        "n_train": len(split.train), "n_valid": len(split.valid),
        "n_test": len(split.test),
    })
    print(f"checkpoint: {ck}")
    return EXIT_OK


def _check_architecture(saved, arch):
    """Raise one ConfigError naming every Architecture field in which the
    run config differs from the checkpoint's config. Dropout is not
    compared: evaluation never applies it."""
    want = model.ModelConfig(**vars(arch), vocab_size=saved.vocab_size)   # resolves d_ff 0
    problems = [f"checkpoint {f.name}={getattr(saved, f.name)!r} does not match "
                f"config {f.name}={getattr(want, f.name)!r}"
                for f in fields(model.Architecture)
                if f.name != "dropout" and getattr(saved, f.name) != getattr(want, f.name)]
    if problems:
        raise ConfigError(problems)


def cmd_eval(args):
    cfg = _load(args)
    params, extra = model.load_checkpoint(args.checkpoint)
    _check_architecture(params.config, cfg.model)
    ds = pipeline.load_dataset(cfg)
    if ds.vocab_size != params.config.vocab_size:
        raise ConfigError([
            f"checkpoint vocab {params.config.vocab_size} != dataset vocab {ds.vocab_size}"])
    split = ingest.leave_one_out_split(ds)
    weights = pipeline.resolve_weights(cfg, split.train)
    if "lam" in extra:
        lam = extra["lam"]
        try:
            if isinstance(lam, str):   # training stores lam resolved to seconds
                raise L.LossError(lam)
            weights = replace(weights, lam=lam)
        except L.LossError:
            raise model.ModelError(
                f"checkpoint lam must be a positive finite number, got {lam!r}") from None

    ttt = args.ttt == "on"
    report, adapt_reports, per_example = pipeline.evaluate_run(
        cfg, params, weights, split, ttt=ttt, with_baseline_delta=ttt)
    tag = "ttt" if ttt else "frozen"
    pipeline.write_json(os.path.join(cfg.out_dir, f"metrics_{tag}.json"), asdict(report))
    pipeline.write_json(os.path.join(cfg.out_dir, f"segments_{tag}.json"),
                        {"segments": report.segments})
    if adapt_reports:
        pipeline.write_log(os.path.join(cfg.out_dir, f"adapt_reports_{tag}.jsonl"),
                           [asdict(r) for r in adapt_reports])
    if args.ranks_csv:
        with open(os.path.join(cfg.out_dir, f"ranks_{tag}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("example,target_timestamp,rank,recall,rr,ndcg\n")
            targets = split.test.times[split.test.end].tolist()
            for i, (ts, r) in enumerate(zip(targets, per_example)):
                fh.write(f"{i},{ts},{int(r[3])},{r[0]},{r[1]},{r[2]}\n")
    print(f"{tag}: recall@{report.k} {report.recall_at_k:.4f} "
          f"mrr@{report.k} {report.mrr_at_k:.4f} ndcg@{report.k} {report.ndcg_at_k:.4f}")

    if args.throughput:
        batches = pipeline.test_batches(cfg, split)

        def frozen_fn(b):
            with ag.no_grad():
                return model.forward_full(params, b, training=False,
                                          need_extension=False).logits.data

        def adapted_fn(b):
            return adapt_mod.adapt_and_predict(params, b, cfg.adapt, weights)[0]

        rep = evaluation.throughput(adapted_fn if ttt else frozen_fn, batches,
                                    warmup=1, reps=3, adaptation_enabled=ttt)
        pipeline.write_json(os.path.join(cfg.out_dir, f"throughput_{tag}.json"), asdict(rep))
        print(f"throughput: {rep.iterations_per_second:.2f} it/s")
    return EXIT_OK


def cmd_gradcheck(args):
    # full differentiability: the extension detachment is disabled here,
    # otherwise finite differences would see through the stop-gradient;
    # and float64 whatever the run precision, which eps=1e-5 needs
    cfg = _load(args)
    cfg = replace(cfg, precision="float64",
                  model=replace(cfg.model, detach_extension=False))
    rng = np.random.default_rng(cfg.seed)
    ds = pipeline.load_dataset(cfg)
    split = ingest.leave_one_out_split(ds)
    weights = pipeline.resolve_weights(cfg, split.train)
    params = pipeline.build_model(cfg, ds.vocab_size, rng)
    batch = ingest.make_batches(split.train[:4] or split.test[:4],
                                cfg.data.max_len, 8, cfg.data.pad_side)[0]
    pd = params.as_dict()

    def make_total():
        tr = model.forward_full(params, batch, training=False)
        return L.total_loss(
            L.rec_loss(tr.logits, batch.target_item),
            L.batch_time_loss(params, tr, batch, weights)[0],
            L.state_alignment_loss(params, tr)[0],
            weights, "train")

    checks = {
        "rec": lambda: L.rec_loss(
            model.forward_full(params, batch, training=False).logits,
            batch.target_item),
        "time": lambda: L.batch_time_loss(
            params, model.forward_full(params, batch, training=False),
            batch, weights)[0],
        "state": lambda: L.state_alignment_loss(
            params, model.forward_full(params, batch, training=False))[0],
        "total": make_total,
    }
    results = {}
    ok = True
    for name, f in checks.items():
        rep = ag.finite_diff_check(f, pd, eps=1e-5, tol=1e-4, n_samples=24,
                                   rng=np.random.default_rng(cfg.seed))
        results[name] = {"checked": rep.n_checked, "failures": len(rep.failures),
                         "max_rel_err": rep.max_rel_err()}
        ok = ok and rep.ok
        print(f"{name}: {rep}")
    pipeline.write_json(os.path.join(cfg.out_dir, "gradcheck.json"), results)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError([f"--grid must be comma-separated numbers, got {args.grid!r}"])
    cfg = _load(args)
    rows = []
    for mu1 in values:
        for mu2 in values:
            sub = load_config(asdict(cfg), overrides={
                "losses": {"mu1_train": mu1, "mu2_train": mu2},
                "out_dir": cfg.out_dir})
            params, weights, split, _ = pipeline.train_model(sub)
            report, _, _ = pipeline.evaluate_run(sub, params, weights, split,
                                                 ttt=True)
            rows.append({"mu1_train": mu1, "mu2_train": mu2,
                         "recall_at_10": report.recall_at_k,
                         "mrr_at_10": report.mrr_at_k,
                         "ndcg_at_10": report.ndcg_at_k})
            print(f"mu1={mu1} mu2={mu2}: ndcg {report.ndcg_at_k:.4f}")
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
                "gradcheck": cmd_gradcheck, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (pipeline.PipelineError, ag.DomainError, model.ModelError,
            adapt_mod.AdaptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ingest.IngestError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
