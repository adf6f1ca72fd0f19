"""The three benchmark workloads.

All three are closed loops with one client: the next request is sent only
after the previous prediction has come back. The benchmark generates its
inputs from the seed, writes them as a TSV, and the program loads that file
with `ingest.load_tsv`; the program never sees the seed of the data.

- train-shift: `pipeline.train_model` then `pipeline.evaluate_run` (adapted,
  with the frozen baseline) at the shift-experiment shape, followed by
  whole-test-batch adapted and frozen requests.
- adapt-long: config-default model shape (L=50, d=64, d_s=32) over a
  2,000-item catalog; 64-sequence requests with M=2. The scan's
  m*L*d_s*d state stack dominates.
- adapt-catalog: L=20, d=64, d_s=32 over a ~20,000-item vocabulary;
  8-sequence requests with M=2. The per-request snapshot, digest, dense
  embedding gradient and full-table update dominate.

Every request is an operation; on train-shift every epoch and every
`evaluate_run` call is one too. An operation fails when it raises or when a
correctness check on its output fails.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy as np

from alignrec import adapt, ingest, model, pipeline
from alignrec.config import load_config

SETUP_REPEATS = 3
K = 10
K_SEGMENTS = 4

# Adapt workloads: generator spec, model shape, request size.
ADAPT_WORKLOADS = {
    "adapt-long": {
        "generator": {"n_users": 512, "n_items": 2000, "n_clusters": 8,
                      "min_events": 60, "max_events": 80},
        "max_len": 50, "d": 64, "d_s": 32, "request_size": 64,
    },
    "adapt-catalog": {
        "generator": {"n_users": 2500, "n_items": 20000, "n_clusters": 8,
                      "min_events": 24, "max_events": 40, "noise_rate": 0.3},
        "max_len": 20, "d": 64, "d_s": 32, "request_size": 8,
    },
}
ADAPT_STEPS = 2
DISTINCT_REQUESTS = 8     # request batches cycle, so repeats can be compared
TRAIN_SHIFT_EPOCHS = 2
EVAL_REPEATS = 3


class CheckFailed(AssertionError):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Counts operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # any failure of the program counts against it
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{type(e).__name__}: {e}")
            return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite_rows(rows, what):
    check(len(rows) > 0 and bool(np.all(np.isfinite(rows))),
          f"{what}: metric rows are empty or not finite")


def late_gain(examples, adapted_rows, frozen_rows):
    """Segments 3-4 (latest targets) adapted minus frozen NDCG@10."""
    groups = ingest.segment_indices_by_time(examples, K_SEGMENTS)
    return float(np.mean([adapted_rows[g, 2].mean() - frozen_rows[g, 2].mean()
                          for g in groups[2:]]))


def summarize_requests(latencies, size):
    """Throughput and latency percentiles of one request kind. p90 is only
    given when at least ten samples lie beyond it."""
    out = {"requests": len(latencies), "latencies_ms": [1e3 * x for x in latencies]}
    if not latencies:
        return out
    out["ex_per_s"] = size * len(latencies) / sum(latencies)
    out["ms_p50"] = 1e3 * statistics.median(latencies)
    if len(latencies) >= 100:
        out["ms_p90"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    return out


class Requests:
    """Closed-loop adapted and frozen requests on fixed batches, with the
    per-request correctness gate."""

    def __init__(self, params, batches, acfg, weights, digest, ops):
        self.params, self.batches = params, batches
        self.acfg, self.weights, self.digest = acfg, weights, digest
        self.ops = ops
        self.tracer = None       # set for the traced half of a run
        self.first = {}          # (kind, batch index) -> rows on the first visit
        self.reports = []
        self.count = 0

    def warm_up(self):
        """Untimed first request; also checks that zero adaptation steps
        reproduce the frozen rows exactly."""
        b = self.batches[0]

        def op():
            rows_a, _ = adapt.evaluate_with_adaptation(
                self.params, [b], self.acfg, self.weights, k=K)
            rows_f = adapt.evaluate_frozen(self.params, [b], k=K)
            rows_0, _ = adapt.evaluate_with_adaptation(
                self.params, [b], adapt.AdaptConfig(steps=0), self.weights, k=K)
            finite_rows(rows_a, "warm-up adapted")
            finite_rows(rows_f, "warm-up frozen")
            check(np.array_equal(rows_0, rows_f),
                  "steps=0 adaptation does not reproduce the frozen rows")
            check(model.checkpoint_digest(self.params) == self.digest,
                  "parameters not restored bit-exactly after warm-up")
            self.first[("adapted", 0)] = rows_a
            self.first[("frozen", 0)] = rows_f
        self.ops.run(op)

    def _serve(self, kind, i, fn):
        b = self.batches[i % len(self.batches)]
        key = (kind, i % len(self.batches))
        if self.tracer is not None:
            self.tracer.request = (kind, self.count)
        t0 = time.perf_counter()
        out = fn(b)
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.request = None
        rows = out[0] if kind == "adapted" else out
        finite_rows(rows, f"{kind} request")
        if kind == "adapted":
            check(model.checkpoint_digest(self.params) == self.digest,
                  "parameters not restored bit-exactly after an adapted request")
            self.reports.extend(out[1])
        if key in self.first:
            check(np.array_equal(self.first[key], rows),
                  f"{kind} rows of a repeated batch differ")
        else:
            self.first[key] = rows
        return dt

    def loop(self, seconds, min_cycles=3):
        """Alternate adapted and frozen requests until `seconds` have passed.
        Returns the latencies of each kind."""
        lat = {"adapted": [], "frozen": []}
        deadline = time.perf_counter() + seconds
        n = 0
        while n < min_cycles or time.perf_counter() < deadline:
            for kind, fn in (
                    ("adapted", lambda b: adapt.evaluate_with_adaptation(
                        self.params, [b], self.acfg, self.weights, k=K)),
                    ("frozen", lambda b: adapt.evaluate_frozen(self.params, [b], k=K))):
                dt = self.ops.run(lambda: self._serve(kind, n, fn))
                if dt is not None:
                    lat[kind].append(dt)
            self.count += 1
            n += 1
        return lat

    def quality(self, examples):
        """NDCG@10 of both kinds and the late-segment gain over the batches
        both kinds have served; `examples` are the batches' examples in order."""
        done = [i for i in range(len(self.batches))
                if ("adapted", i) in self.first and ("frozen", i) in self.first]
        if not done:
            return {}
        m = self.batches[0].size
        adapted = np.concatenate([self.first[("adapted", i)] for i in done])
        frozen = np.concatenate([self.first[("frozen", i)] for i in done])
        served = [ex for i in done for ex in examples[i * m:(i + 1) * m]]
        return {"ndcg10_adapted": float(adapted[:, 2].mean()),
                "ndcg10_frozen": float(frozen[:, 2].mean()),
                "late_gain": late_gain(served, adapted, frozen)}


def timed_setups(setup_fn):
    """Run the set-up SETUP_REPEATS times; returns (median seconds, last result)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup_fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


# ---------------------------------------------------------------------------
# adapt-long / adapt-catalog


def _adapt_config(name, tsv, seed):
    w = ADAPT_WORKLOADS[name]
    return load_config({
        "seed": seed,
        "data": {"path": tsv, "max_len": w["max_len"], "min_interactions": 0},
        "model": {"d": w["d"], "d_s": w["d_s"]},
        "adapt": {"steps": ADAPT_STEPS, "batch_policy": "fixed",
                  "batch_size": w["request_size"]},
    })


def run_adapt(name, seed, seconds, work, tracer=None):
    w = ADAPT_WORKLOADS[name]
    ops = Ops()
    spec = ingest.GeneratorSpec(**w["generator"])
    ds = ingest.synth_shift_generate(spec, seed=seed)
    tsv = os.path.join(work, f"{name}-{seed}.tsv")
    ingest.write_tsv(ds, tsv)
    cfg = _adapt_config(name, tsv, seed)
    n_distinct = len({it for u in ds.users for it in u.item_indices})
    seeded = pipeline.build_model(cfg, n_distinct + 1, np.random.default_rng(seed))
    ckpt = os.path.join(work, f"{name}-{seed}.ckpt")
    model.save_checkpoint(ckpt, seeded)
    del seeded, ds

    m = w["request_size"]

    def setup():
        loaded = ingest.load_tsv(tsv)
        split = ingest.leave_one_out_split(loaded)
        weights = pipeline.resolve_weights(cfg, split.train)
        batches = ingest.make_batches(split.test, cfg.data.max_len, m,
                                      cfg.data.pad_side)
        params, _ = model.load_checkpoint(ckpt)
        return loaded.vocab_size, split, weights, batches, params

    setup_s, (vocab, split, weights, batches, params) = timed_setups(setup)
    batches = batches[:DISTINCT_REQUESTS]
    examples = split.test[:m * len(batches)]
    check(all(b.size == m for b in batches), "request batches are not full")
    digest = model.checkpoint_digest(params)
    req = Requests(params, batches, cfg.adapt, weights, digest, ops)
    req.warm_up()

    out = {"setup_s": setup_s, "vocab_size": vocab, "request_size": m,
           "n_parameters": params.n_parameters()}
    if tracer is None:
        lat = req.loop(seconds)
    else:
        lat = req.loop(seconds / 2.0)
        out["n_untraced_reports"] = len(req.reports)
        req.tracer = tracer
        tracer.active = True
        tracer.request = ("setup", 0)
        setup()
        tracer.request = None
        traced = req.loop(seconds / 2.0)
        tracer.active = False
        out["traced"] = {k: summarize_requests(v, m) for k, v in traced.items()}
    out["adapted"] = summarize_requests(lat["adapted"], m)
    out["frozen"] = summarize_requests(lat["frozen"], m)
    out["reports"] = req.reports
    out.update(req.quality(examples))
    out["peak_rss_mb"] = peak_rss_mb()
    return out, ops


# ---------------------------------------------------------------------------
# train-shift


def shift_config(tsv, seed, work):
    return load_config(pipeline.SHIFT_EXPERIMENT_CONFIG, overrides={
        "seed": seed, "out_dir": work,
        "data": {"path": tsv},
        "train": {"epochs": TRAIN_SHIFT_EPOCHS, "eval_every": 1},
    })


def _train(cfg, ops):
    """train_model with one operation per epoch; returns (result, epoch
    seconds). The first epoch includes train_model's own data loading."""
    marks = [time.perf_counter()]
    records = []

    def progress(record):
        marks.append(time.perf_counter())
        records.append(record)
        ops.attempted += 1
        if not all(math.isfinite(v) for v in record.values()):
            ops.failed += 1
            ops.errors.append(f"non-finite epoch record {record}")

    try:
        result = pipeline.train_model(cfg, progress=progress)
    except Exception as e:
        ops.attempted += 1
        ops.failed += 1
        ops.errors.append(f"{type(e).__name__}: {e}")
        return None, []
    return result, [b - a for a, b in zip(marks, marks[1:])]


def run_train_shift(seed, seconds, work, tracer=None):
    ops = Ops()
    spec = ingest.GeneratorSpec(**pipeline.SHIFT_EXPERIMENT_CONFIG["data"]["generator"])
    tsv = os.path.join(work, f"train-shift-{seed}.tsv")
    ingest.write_tsv(ingest.synth_shift_generate(spec, seed=seed), tsv)
    cfg = shift_config(tsv, seed, work)

    def setup():
        loaded = ingest.load_tsv(tsv)
        split = ingest.leave_one_out_split(loaded)
        weights = pipeline.resolve_weights(cfg, split.train)
        batches = pipeline.test_batches(cfg, split)
        params = pipeline.build_model(cfg, loaded.vocab_size,
                                      np.random.default_rng(cfg.seed))
        return loaded.vocab_size, split, batches, params

    setup_s, (vocab, split, batches, _) = timed_setups(setup)
    out = {"setup_s": setup_s, "vocab_size": vocab, "request_size": batches[0].size,
           "n_train": len(split.train), "n_test": len(split.test)}

    t_start = time.perf_counter()
    result, epochs = _train(cfg, ops)
    if result is None:
        out["peak_rss_mb"] = peak_rss_mb()
        return out, ops
    params, weights, split, history = result
    out["train_ex_per_s"] = len(split.train) / statistics.median(epochs)
    out["epochs"] = len(epochs)
    digest = model.checkpoint_digest(params)

    if tracer is not None:
        # the same seed trains again under the tracer; it must end bit-identical
        tracer.active = True
        tracer.request = ("setup", 0)
        setup()
        tracer.request = ("train", 0)
        traced, traced_epochs = _train(cfg, ops)
        tracer.request = None
        tracer.active = False
        ops.run(lambda: check(traced is not None and
                              model.checkpoint_digest(traced[0]) == digest
                              and traced[3] == history,
                              "a second training run with the same seed differs"))
        if traced_epochs:
            out["traced_train_ex_per_s"] = (len(split.train)
                                            / statistics.median(traced_epochs))

    req = Requests(params, batches, cfg.adapt, weights, digest, ops)
    req.warm_up()
    n_test = len(split.test)
    first_eval = {}

    def evaluate():
        t0 = time.perf_counter()
        report, reports, rows = pipeline.evaluate_run(
            cfg, params, weights, split, ttt=True, k=K, k_segments=K_SEGMENTS,
            with_baseline_delta=True)
        dt = time.perf_counter() - t0
        finite_rows(rows, "evaluate_run")
        check(model.checkpoint_digest(params) == digest,
              "parameters not restored bit-exactly after evaluate_run")
        frozen = sum(s["baseline_ndcg_at_k"] * s["n_examples"]
                     for s in report.segments) / report.n_examples
        result = {"ndcg10_adapted": report.ndcg_at_k, "ndcg10_frozen": frozen,
                  "late_gain": late_gain(split.test, rows, req.first[("frozen", 0)])}
        if first_eval:
            check(result == first_eval, "repeated evaluate_run gives other NDCG")
        else:
            check(np.array_equal(rows, req.first[("adapted", 0)]),
                  "evaluate_run rows differ from the adapted request rows")
            first_eval.update(result)
        req.reports.extend(reports)
        return dt

    def measure(budget, tr):
        """EVAL_REPEATS evaluate_run calls, then requests until the budget
        is spent."""
        req.tracer = tr
        deadline = time.perf_counter() + budget
        eval_s = []
        for i in range(EVAL_REPEATS):
            if tr is not None:
                tr.request = ("eval", i)
            dt = ops.run(evaluate)
            if tr is not None:
                tr.request = None
            if dt is not None:
                eval_s.append(dt)
        return eval_s, req.loop(deadline - time.perf_counter())

    remaining = max(0.0, seconds - (time.perf_counter() - t_start))
    if tracer is None:
        eval_s, lat = measure(remaining, None)
    else:
        eval_s, lat = measure(remaining / 2.0, None)
        out["n_untraced_reports"] = len(req.reports)
        tracer.active = True
        t_eval, t_lat = measure(remaining / 2.0, tracer)
        tracer.active = False
        out["traced"] = {k: summarize_requests(v, batches[0].size)
                         for k, v in t_lat.items()}
        out["traced"]["eval_ex_per_s"] = n_test / statistics.median(t_eval) if t_eval else None
    out["eval_ex_per_s"] = n_test / statistics.median(eval_s) if eval_s else None
    out["evaluate_run_calls"] = len(eval_s)
    out.update(first_eval)
    out["adapted"] = summarize_requests(lat["adapted"], batches[0].size)
    out["frozen"] = summarize_requests(lat["frozen"], batches[0].size)
    out["reports"] = req.reports
    out["peak_rss_mb"] = peak_rss_mb()
    return out, ops
