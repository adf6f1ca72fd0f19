#!/usr/bin/env python3
"""alignrec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the workload runs untraced and the last line of
standard output is the end-to-end result. With `--trace 1` the workload runs
untraced for half the time and traced for the other half, and the last line
carries the per-layer metrics. Every metric is also printed by name with its
unit on the lines before. The full report (environment stamp, workload-only
metrics, adaptation reports) and, when traced, every span are written under
`perfbench/work/`.

Exit code 0 only when every operation succeeded and passed its correctness
checks; 2 when the program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-shift", "adapt-long", "adapt-catalog")

# end-to-end metrics: name -> (unit, how to read it from a workload result)
END_TO_END = {
    "setup_s": ("s", lambda r: r["setup_s"]),
    "adapted_ex_per_s": ("examples/s", lambda r: r["adapted"]["ex_per_s"]),
    "frozen_ex_per_s": ("examples/s", lambda r: r["frozen"]["ex_per_s"]),
    "adapted_ms_p50": ("ms", lambda r: r["adapted"]["ms_p50"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
}
# measured on the workloads where they apply; printed and kept in the report
WORKLOAD_ONLY = {
    "train_ex_per_s": ("examples/s", lambda r: r.get("train_ex_per_s")),
    "eval_ex_per_s": ("examples/s", lambda r: r.get("eval_ex_per_s")),
    "ndcg10_frozen": ("NDCG@10", lambda r: r.get("ndcg10_frozen")),
    "ndcg10_adapted": ("NDCG@10", lambda r: r.get("ndcg10_adapted")),
    "adapted_ms_p90": ("ms", lambda r: r["adapted"].get("ms_p90")),
}
# per-layer self times, in seconds, summed over the traced half of the run
SPAN_METRICS = (
    "model.scan", "autograd.grad", "model.embed", "model.transform",
    "model.discretize", "model.ffn_and_norm", "model.extend_step", "model.predict",
    "model.forward_full", "losses.rec_loss", "losses.batch_time_loss",
    "losses.state_alignment_loss", "losses.total_loss", "optim.snapshot",
    "optim.matches", "optim.restore", "optim.sgd_step", "optim.adam_step",
    "evaluation.batch_rank_metrics", "evaluation.ranked_items",
    "evaluation.segment_analysis", "adapt.evaluate_with_adaptation",
    "adapt.adapt_and_predict", "adapt.evaluate_frozen", "pipeline.train_model",
    "pipeline.evaluate_run", "ingest.load_tsv", "ingest.leave_one_out_split",
    "ingest.make_batches", "model.load_checkpoint",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import alignrec from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "alignrec", "__init__.py")):
        raise ImportError(f"no alignrec sources under {src}")
    sys.path.insert(0, src)
    import alignrec
    from alignrec import (adapt, autograd, evaluation, ingest, losses,  # noqa: F401
                          model, optim, pipeline)
    if not os.path.abspath(alignrec.__file__).startswith(src + os.sep):
        raise ImportError(f"alignrec was imported from {alignrec.__file__}")
    return alignrec


def adapt_summary(reports):
    n = len(reports)
    return {
        "seconds_adapt": sum(r.seconds_adapt for r in reports) / n if n else 0.0,
        "seconds_predict": sum(r.seconds_predict for r in reports) / n if n else 0.0,
        "abort_frac": sum(r.aborted for r in reports) / n if n else 0.0,
        "abort_base": n,
        "clamp_warnings": sum(r.clamp_warnings for r in reports),
    }


def layer_metrics(tracer, result, workload):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    selfs = tracer.self_seconds()
    out = {f"{name}.s": (selfs.get(name, 0.0), "s") for name in SPAN_METRICS}
    n_adapted = max(1, result["traced"]["adapted"]["requests"])
    per_req = lambda key: tracer.total(key, "adapted") / n_adapted  # noqa: E731
    out["model.forward_full.calls"] = (
        tracer.calls("model.forward_full", "adapted") / n_adapted, "count")
    out["model.scan_state_bytes"] = (tracer.total("model.scan_state_bytes"), "B")
    out["model.logit_bytes"] = (per_req("model.logit_bytes"), "B")
    out["optim.bytes_copied"] = (per_req("optim.bytes_copied"), "B")
    out["optim.bytes_hashed"] = (per_req("optim.bytes_hashed"), "B")
    out["losses.time_pairs"] = (tracer.total("losses.time_pairs"), "count")
    out["ingest.vocab_size"] = (result["vocab_size"], "count")
    for key, val in adapt_summary(result["untraced_reports"]).items():
        unit = "s" if key.startswith("seconds") else "count"
        out[f"adapt.{key}"] = (val, "ratio" if key == "abort_frac" else unit)
    out["adapt.overhead_ratio"] = (
        result["adapted"]["ex_per_s"] / result["frozen"]["ex_per_s"], "ratio")
    out["adapt.late_gain"] = (result["late_gain"], "NDCG")
    if workload == "train-shift":
        overhead = result["train_ex_per_s"] / result["traced_train_ex_per_s"] - 1.0
    else:
        def cycle(r):
            return 1.0 / r["adapted"]["ex_per_s"] + 1.0 / r["frozen"]["ex_per_s"]
        overhead = cycle(result["traced"]) / cycle(result) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        alignrec = import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import stamp
    import tracing
    import workloads

    env = stamp.environment_stamp()
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, alignrec)
    before = set(os.listdir(work))
    try:
        if args.workload == "train-shift":
            result, ops = workloads.run_train_shift(args.seed, args.seconds, work, tracer)
        else:
            result, ops = workloads.run_adapt(args.workload, args.seed, args.seconds,
                                              work, tracer)
    finally:
        for name in set(os.listdir(work)) - before:   # generated inputs
            if name.endswith((".tsv", ".ckpt")):
                os.remove(os.path.join(work, name))

    reports = result.pop("reports", [])
    result["untraced_reports"] = reports[:result.pop("n_untraced_reports", len(reports))]
    correct = ops.failed == 0 and ops.attempted > 0
    metrics = {}
    shown = {}
    try:
        for name, (unit, get) in {**END_TO_END, **WORKLOAD_ONLY}.items():
            val = get(result)
            if val is not None:
                shown[name] = (val, unit)
                if name in END_TO_END:
                    metrics[name] = {"value": val, "unit": unit}
        if tracer is not None:
            layers = layer_metrics(tracer, result, args.workload)
            shown.update(layers)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    except (KeyError, TypeError, ZeroDivisionError) as e:
        correct = False
        ops.errors.append(f"metrics incomplete: {type(e).__name__}: {e}")

    shown["ops_attempted"] = (ops.attempted, "count")
    shown["ops_failed"] = (ops.failed, "count")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  stamp {env['stamp_id']}")
    for name, (val, unit) in shown.items():
        print(f"  {name:34s} {val:>16.6g} {unit}")
    for err in ops.errors:
        print(f"  FAILED: {err}")

    summary = {k: v for k, v in result.items() if k != "untraced_reports"}
    summary["adaptation"] = adapt_summary(result["untraced_reports"])
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "correct": correct,
            "ops_attempted": ops.attempted, "ops_failed": ops.failed,
            "errors": ops.errors, "result": summary,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    stem = os.path.join(work, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2, sort_keys=True, default=float)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
