"""Per-batch test-time adaptation.

For each test batch: take M plain gradient steps on the weighted
self-supervised alignment losses, mu1_test * L_time + mu2_test * L_state
(no labels are touched), over a read-only overlay of the parameters, then
predict with the adapted overlay. A term with weight zero is not computed,
and with both weights zero no step is taken, so prediction equals the
frozen model's. The checkpoint arrays are never written, so batches are
completely independent of each other and need no snapshot or restore.

The steps run without the prediction head, so the losses reach the item
table E only through the batch's own lookups. The overlay's E is therefore
a copy of just those rows, indexed by batch-local ids; every other row
would get an exact zero gradient and keep its value. After the last step
the adapted rows are written into one copy of the full table for the
prediction pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import losses as L
from . import optim
from .checks import non_negative, type_problems
# ranked_items is unused here but stays importable: perfbench/tracing.py
# wraps adapt.ranked_items by name.
from .evaluation import batch_rank_metrics, ranked_items  # noqa: F401
from .model import forward_full


class AdaptError(RuntimeError):
    pass


@dataclass
class AdaptConfig:
    steps: int = 1                   # M
    lr: float = 0.005                # alpha
    mu1_test: float = 1e-2           # time-loss weight; 0 leaves the term out
    mu2_test: float = 1e-1           # state-loss weight; 0 leaves the term out
    batch_policy: str = "whole"      # "whole" | "fixed"
    batch_size: int = 256            # used by the "fixed" policy

    def __post_init__(self):
        p = type_problems(type(self), vars(self))
        if not p:
            p = [f"{n} must be a non-negative finite number, got {getattr(self, n)}"
                 for n in ("lr", "mu1_test", "mu2_test") if not non_negative(getattr(self, n))]
            p += [f"{n} must be >= {lo}, got {getattr(self, n)}"
                  for n, lo in (("steps", 0), ("batch_size", 1)) if getattr(self, n) < lo]
            if self.batch_policy not in ("whole", "fixed"):
                p.append(f"batch_policy must be whole|fixed, got {self.batch_policy!r}")
        if p:
            raise ValueError("; ".join(p))


@dataclass
class AdaptReport:
    time_losses: list = field(default_factory=list)
    state_losses: list = field(default_factory=list)
    aborted: bool = False
    clamp_warnings: int = 0
    seconds_adapt: float = 0.0
    seconds_predict: float = 0.0


def adapt_and_predict(params, batch, cfg, weights):
    """Algorithm: M self-supervised gradient steps on `params.overlay()`,
    then predict. Returns (logits, AdaptReport).

    A non-finite loss aborts adaptation: the prediction comes from the
    unadapted parameters, with the report flagged. An item id outside the
    table raises `DomainError`.
    """
    report = AdaptReport()
    live = params
    steps = cfg.steps if (cfg.mu1_test or cfg.mu2_test) else 0

    t0 = time.perf_counter()
    if steps:
        rows, local = np.unique(batch.items, return_inverse=True)
        with ag.no_grad():
            E_rows = ag.embedding(params["E"], rows).data   # range-checks the ids
        live = params.overlay()
        live.tensors["E"] = ag.Tensor(E_rows, requires_grad=True)
        local_batch = replace(batch, items=local.reshape(batch.items.shape))
        try:
            for _ in range(steps):
                trace = forward_full(live, local_batch, training=False, need_logits=False)
                t_loss, s_loss, warned = L.alignment_losses(
                    live, trace, local_batch, weights, cfg.mu1_test, cfg.mu2_test)
                report.clamp_warnings += warned
                report.time_losses.append(float(t_loss.data) if t_loss is not None else 0.0)
                report.state_losses.append(float(s_loss.data) if s_loss is not None else 0.0)
                total = L.total_loss(None, t_loss, s_loss, cfg, phase="test")
                if not np.isfinite(total.data):
                    raise AdaptError("non-finite adaptation loss")
                grads = ag.grad(total, live.as_dict())
                optim.sgd_step(live, grads, cfg.lr)
        except (AdaptError, optim.OptimError, ag.DomainError):
            live = params
            report.aborted = True
        else:
            E = params["E"].data.copy()
            E[rows] = live["E"].data
            live.tensors["E"] = ag.Tensor(E)
    report.seconds_adapt = time.perf_counter() - t0

    t1 = time.perf_counter()
    with ag.no_grad():
        logits = forward_full(live, batch, training=False,
                              need_extension=False).logits.data
    report.seconds_predict = time.perf_counter() - t1
    return logits, report


def evaluate_with_adaptation(params, batches, cfg, weights, k=10):
    """Run adapt_and_predict over every batch; `params` is only read.
    Returns (per-example metric rows, reports)."""
    rows = []
    reports = []
    for batch in batches:
        logits, report = adapt_and_predict(params, batch, cfg, weights)
        rows.append(batch_rank_metrics(logits, batch.target_item, k))
        reports.append(report)
    per_example = np.concatenate(rows, axis=0) if rows else np.zeros((0, 4))
    return per_example, reports


def evaluate_frozen(params, batches, k=10):
    """Plain evaluation without adaptation; per-example metric rows."""
    with ag.no_grad():
        rows = [batch_rank_metrics(
            forward_full(params, b, training=False, need_extension=False).logits.data,
            b.target_item, k) for b in batches]
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, 4))
