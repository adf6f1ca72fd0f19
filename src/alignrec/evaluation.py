"""Full-catalog ranking metrics, timestamp-segment analysis and the
test-time throughput harness.

Ties in the logits are broken deterministically: the lower item index wins.
The padding index 0 never competes (its logit is treated as -inf by the
helpers that consume raw model logits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import ingest   # called through the module, where perfbench/tracing.py wraps it
from .ingest import PAD_INDEX


@dataclass
class MetricsReport:
    recall_at_k: float
    mrr_at_k: float
    ndcg_at_k: float
    n_examples: int
    k: int
    segments: list = field(default_factory=list)  # list of per-segment dicts


@dataclass
class ThroughputReport:
    iterations_per_second: float
    batch_size: int
    adaptation_enabled: bool
    n_batches: int
    warmup: int
    reps: int
    rep_seconds: list


def target_rank(logits, target):
    """1-based rank of the target item; equal logits at lower indices win.
    A NaN target logit ranks last, at len(logits) - 1, the number of items
    beside the padding slot; a NaN logit elsewhere never outranks the
    target."""
    z = np.asarray(logits)
    t = int(target)
    zt = z[t]
    if np.isnan(zt):
        return len(z) - 1
    greater = int(np.sum(z > zt))
    tied_before = int(np.sum(z[:t] == zt))
    return 1 + greater + tied_before


def rank_metrics(logits, target, k):
    """(recall, reciprocal rank, ndcg) at cutoff k for one example; all 0
    for a NaN target logit."""
    if k < 1:
        raise ValueError(f"rank_metrics: k must be >= 1, got {k}")
    r = target_rank(logits, target)
    if r > k or np.isnan(np.asarray(logits)[target]):
        return 0.0, 0.0, 0.0
    return 1.0, 1.0 / r, 1.0 / np.log2(r + 1.0)


def batch_rank_metrics(logits, targets, k):
    """Vectorized per-example rows [recall, rr, ndcg, rank] for a (m, V)
    logit matrix; the padding column is excluded from the ranking.

    One pass in the logits' own dtype: each row counts the items above its
    target's logit, and one count over the whole matrix finds whether any
    other item equals a target's. Only a row where one does, or whose target
    logit is -inf, also counts the ties at lower indices; the padding column
    counts as one of them for a -inf target, as if its logit were -inf.
    A NaN target logit ranks last, at V - 1, and scores 0.
    """
    z = np.asarray(logits)
    t = np.asarray(targets)
    m, V = z.shape
    zt = np.where(t == PAD_INDEX, -np.inf, z[np.arange(m), t])
    items = z[:, 1:]    # every column but PAD_INDEX 0
    # an int32 sum of a bool row is about twice as fast as count_nonzero's
    greater = np.sum(items > zt[:, None], axis=1, dtype=np.int32)
    equal = items == zt[:, None]
    nan = np.isnan(zt)
    tied = zt == -np.inf
    # each finite target equals itself; only a row with another equal item
    # needs its own count, and usually there is none
    if np.count_nonzero(equal) > np.count_nonzero(~tied & ~nan):
        tied |= np.sum(equal, axis=1, dtype=np.int32) > 1
    ties_before = np.zeros(m, dtype=np.int32)
    rows = np.flatnonzero(tied)
    if rows.size:
        t_tied = t[rows]
        ties_before[rows] = np.sum(equal[rows] & (np.arange(1, V) < t_tied[:, None]),
                                   axis=1, dtype=np.int32)
        ties_before[rows] += (zt[rows] == -np.inf) & (t_tied > PAD_INDEX)
    r = 1 + greater + ties_before
    r[nan] = V - 1
    hit = (r <= k) & ~nan
    out = np.zeros((m, 4), dtype=np.float64)
    out[hit, 0] = 1.0
    out[hit, 1] = 1.0 / r[hit]
    out[hit, 2] = 1.0 / np.log2(r[hit] + 1.0)
    out[:, 3] = r
    return out


def ranked_items(logits, top_k=10):
    """Top item indices per row, stable under ties (lower index first); the
    padding column never ranks."""
    z = np.array(logits, dtype=np.float64, copy=True)
    z[:, PAD_INDEX] = -np.inf
    order = np.argsort(-z, axis=1, kind="stable")
    return order[:, :top_k]


def aggregate(per_example, k, segments=None):
    """MetricsReport from per-example metric rows (rank column ignored)."""
    per_example = np.asarray(per_example, dtype=np.float64)
    means = per_example[:, :3].mean(axis=0) if len(per_example) else np.zeros(3)
    return MetricsReport(recall_at_k=float(means[0]), mrr_at_k=float(means[1]),
                         ndcg_at_k=float(means[2]), n_examples=len(per_example),
                         k=k, segments=segments or [])


def segment_analysis(examples, rows, k_segments=4, k=10, baseline_rows=None):
    """Break per-example metric rows down by target-time segment. With
    baseline_rows, each segment also reports the NDCG delta to them.

    rows (and baseline_rows) hold one metric row [recall, rr, ndcg, ...]
    per example, in the order of `examples`.
    """
    rows = np.asarray(rows, dtype=np.float64)
    base_rows = None
    if baseline_rows is not None:
        base_rows = np.asarray(baseline_rows, dtype=np.float64)
    groups = ingest.segment_indices_by_time(examples, k_segments)

    segments = []
    for gi, grp in enumerate(groups):
        sel = rows[grp]
        seg = {
            "segment": gi + 1,
            "n_examples": len(grp),
            "recall_at_k": float(sel[:, 0].mean()),
            "mrr_at_k": float(sel[:, 1].mean()),
            "ndcg_at_k": float(sel[:, 2].mean()),
        }
        if base_rows is not None:
            bsel = base_rows[grp]
            seg["baseline_ndcg_at_k"] = float(bsel[:, 2].mean())
            seg["ndcg_delta"] = seg["ndcg_at_k"] - seg["baseline_ndcg_at_k"]
        segments.append(seg)
    return aggregate(rows, k, segments=segments)


def throughput(eval_fn, batches, warmup=1, reps=3, adaptation_enabled=False):
    """Median iterations/second over timed repetitions, after warmup passes.

    One iteration = one batch through eval_fn.
    """
    if reps < 1:
        raise ValueError(f"throughput: reps must be >= 1, got {reps}")
    for _ in range(warmup):
        for b in batches:
            eval_fn(b)
    rep_seconds = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for b in batches:
            eval_fn(b)
        rep_seconds.append(time.perf_counter() - t0)
    med = float(np.median(rep_seconds))
    ips = len(batches) / med if med > 0 else float("inf")
    return ThroughputReport(iterations_per_second=ips,
                            batch_size=batches[0].size if batches else 0,
                            adaptation_enabled=adaptation_enabled,
                            n_batches=len(batches), warmup=warmup, reps=reps,
                            rep_seconds=rep_seconds)
