"""Span tracer that wraps alignrec's public functions from outside the package.

Every wrapped function records one span (name, start, end, parent span,
request id) while the tracer is active and calls straight through when it is
not. Spans stay in memory; `write_spans` dumps them at the end of a run. A
span's self time is its duration minus the time its child spans cover; calls
are nested on one thread, so the children's durations simply add up.

Byte counts recorded here are computed from tensor sizes, not measured.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.active = False
        self.request = None          # (kind, index) of the request being served
        self.spans = []              # [name, start, end, parent, request, self_s]
        self.counts = defaultdict(float)   # (counter, request kind) -> total
        self._stack = []             # indices of open spans
        self._child = []             # time covered by children, per span

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, 0.0])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        span[5] = dur - self._child[idx]
        if span[3] is not None:
            self._child[span[3]] += dur

    def count(self, key, value):
        kind = self.request[0] if self.request else None
        self.counts[(key, kind)] += value

    def wrap(self, owner, attr, name, on_return=None):
        """Replace owner.attr by a recording wrapper; `on_return(tracer,
        args, result)` records counts from the call's arguments or result."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer, args, out)
            return out

        setattr(owner, attr, wrapper)

    def self_seconds(self):
        out = defaultdict(float)
        for name, _, _, _, _, self_s in self.spans:
            out[name] += self_s
        return dict(out)

    def calls(self, name, kind=None):
        return sum(1 for s in self.spans
                   if s[0] == name and (kind is None or (s[4] and s[4][0] == kind)))

    def total(self, key, kind=None):
        return sum(v for (k, kd), v in self.counts.items()
                   if k == key and (kind is None or kd == kind))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req, self_s in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": req,
                                     "self_s": self_s}) + "\n")


def _param_bytes(params):
    return sum(params[n].data.nbytes for n in params.names())


def _on_snapshot(tracer, args, snap):
    nbytes = sum(a.nbytes for a in snap.arrays.values())
    tracer.count("optim.bytes_copied", nbytes)
    tracer.count("optim.bytes_hashed", nbytes)


def _on_restore(tracer, args, _):
    tracer.count("optim.bytes_copied", _param_bytes(args[1]))


def _on_matches(tracer, args, _):
    tracer.count("optim.bytes_hashed", _param_bytes(args[1]))


def _on_scan(tracer, args, _):
    abar, bbar, X = args[0], args[1], args[2]
    m, L = abar.data.shape
    s, d = bbar.data.shape[-1], X.data.shape[-1]
    per_stack = m * L * s * d * X.data.dtype.itemsize   # H and BX are each this big
    tracer.counts[("model.scan_state_bytes", "max")] = max(
        tracer.counts[("model.scan_state_bytes", "max")], 2.0 * per_stack)


def _on_predict(tracer, args, logits):
    tracer.count("model.logit_bytes", logits.data.nbytes)


def _on_time_loss(tracer, args, out):
    tracer.count("losses.time_pairs", out[1])


def install(tracer, alignrec):
    """Wrap the public functions of every alignrec layer. Names bound with
    `from .x import y` are wrapped where they were imported as well."""
    ag, adapt, evaluation = alignrec.autograd, alignrec.adapt, alignrec.evaluation
    ingest, losses, model = alignrec.ingest, alignrec.losses, alignrec.model
    optim, pipeline = alignrec.optim, alignrec.pipeline

    for fn in ("load_tsv", "leave_one_out_split", "make_batches",
               "median_positive_interval", "segment_indices_by_time"):
        tracer.wrap(ingest, fn, f"ingest.{fn}")
    for fn in ("embed", "transform", "discretize", "ffn_and_norm", "extend_step",
               "forward_full", "load_checkpoint", "checkpoint_digest"):
        tracer.wrap(model, fn, f"model.{fn}")
    tracer.wrap(model, "scan", "model.scan", _on_scan)
    tracer.wrap(model, "predict", "model.predict", _on_predict)
    tracer.wrap(ag, "grad", "autograd.grad")
    for fn in ("rec_loss", "state_alignment_loss", "total_loss"):
        tracer.wrap(losses, fn, f"losses.{fn}")
    tracer.wrap(losses, "batch_time_loss", "losses.batch_time_loss", _on_time_loss)
    tracer.wrap(optim, "snapshot", "optim.snapshot", _on_snapshot)
    tracer.wrap(optim, "sgd_step", "optim.sgd_step")
    tracer.wrap(optim.Adam, "step", "optim.adam_step")
    tracer.wrap(optim.Snapshot, "restore", "optim.restore", _on_restore)
    tracer.wrap(optim.Snapshot, "matches", "optim.matches", _on_matches)
    for fn in ("batch_rank_metrics", "ranked_items", "segment_analysis", "aggregate"):
        tracer.wrap(evaluation, fn, f"evaluation.{fn}")
    for fn in ("evaluate_with_adaptation", "adapt_and_predict", "evaluate_frozen"):
        tracer.wrap(adapt, fn, f"adapt.{fn}")
    tracer.wrap(adapt, "forward_full", "model.forward_full")
    tracer.wrap(adapt, "batch_rank_metrics", "evaluation.batch_rank_metrics")
    tracer.wrap(adapt, "ranked_items", "evaluation.ranked_items")
    for fn in ("train_model", "evaluate_run", "load_dataset", "resolve_weights",
               "build_model", "test_batches"):
        tracer.wrap(pipeline, fn, f"pipeline.{fn}")
