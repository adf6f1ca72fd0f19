"""Per-batch test-time adaptation.

For each test batch: take M plain gradient steps on the weighted
self-supervised alignment losses, mu1_test * L_time + mu2_test * L_state
(no labels are touched), over a read-only overlay of the parameters, then
predict with the adapted overlay. A term with weight zero is not computed,
and with both weights zero no step is taken, so prediction equals the
frozen model's. The checkpoint arrays are never written, so batches are
completely independent of each other and need no snapshot or restore.

Adaptation is three functions over an immutable `AdaptState`, the shape
TENT (Wang et al., ICLR 2021) gives test-time adaptation: `start` builds
the state of a batch, `step` takes one gradient step and returns a new
state with a `StepRecord`, and `predict` runs the prediction pass.
`adapt_and_predict` is start, M steps, then predict. A step's trace,
losses and gradients are locals of `step`, so one step's graph is alive
at a time: it is freed before the next step's forward and before the
prediction pass.

The steps run without the prediction head, so the losses reach the item
table E only through the batch's own lookups. The state's E is therefore
a copy of just those rows, indexed by batch-local ids; every other row
would get an exact zero gradient and keep its value. The prediction pass
writes the adapted rows into one copy of the full table. The time loss's
pairs depend on the batch alone, so the first step builds them and the
state carries them to the next.

A failed step (a non-finite loss or gradient, a decay A that is no longer
negative, or any other `checks.NumericError`) ends that batch's adaptation
only: the batch is predicted from the unadapted parameters, and its report
names the failure in `abort_reason` ("step k: ..."). The same holds when
the last step succeeds but the prediction pass fails on the adapted
parameters ("predict: ..."); a failure of the unadapted prediction
propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import losses as L
from . import optim
from .checks import Checked, NumericError, non_negative
# ranked_items is unused here but stays importable: perfbench/tracing.py
# wraps adapt.ranked_items by name.
from .evaluation import batch_rank_metrics, ranked_items  # noqa: F401
from .ingest import Batch
from .model import ModelParams, forward_full


class AdaptError(NumericError):
    pass


@dataclass
class AdaptConfig(Checked):
    steps: int = 1                   # M
    lr: float = 0.005                # alpha
    mu1_test: float = 1e-2           # time-loss weight; 0 leaves the term out
    mu2_test: float = 1e-1           # state-loss weight; 0 leaves the term out
    batch_policy: str = "whole"      # "whole" | "fixed"
    batch_size: int = 256            # used by the "fixed" policy

    def _range_problems(self):
        p = [f"{n} must be a non-negative finite number, got {getattr(self, n)}"
             for n in ("lr", "mu1_test", "mu2_test") if not non_negative(getattr(self, n))]
        p += [f"{n} must be >= {lo}, got {getattr(self, n)}"
              for n, lo in (("steps", 0), ("batch_size", 1)) if getattr(self, n) < lo]
        if self.batch_policy not in ("whole", "fixed"):
            p.append(f"batch_policy must be whole|fixed, got {self.batch_policy!r}")
        return p


@dataclass
class AdaptReport:
    time_losses: list = field(default_factory=list)
    state_losses: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""           # one line; empty unless aborted
    clamp_warnings: int = 0
    seconds_adapt: float = 0.0
    seconds_predict: float = 0.0


@dataclass(frozen=True)
class AdaptState:
    """One batch's adaptation after `n_steps` steps. No step writes a state:
    each returns a new one, so the start state stays the unadapted one."""
    base: ModelParams        # the checkpoint's parameters, only read
    params: ModelParams      # overlay of base whose E holds the batch's rows only
    rows: np.ndarray         # (n_rows,) item ids of the overlay's E rows
    batch: Batch             # the batch with its items as local ids into rows
    n_steps: int = 0
    pairs: L.TimePairs | None = None   # the time loss's pairs, once built


@dataclass(frozen=True)
class StepRecord:
    """What one step measured. The losses are None when the step failed
    before computing them, and 0 for a term with weight zero."""
    time_loss: float | None
    state_loss: float | None
    clamp_warnings: int
    abort_reason: str = ""           # one line; empty unless the step failed


def _reason(where, e):
    """One-line abort reason: where it failed, the error's type and text."""
    return " ".join(f"{where}: {type(e).__name__}: {e}".split())


def start(params, batch):
    """The state of `batch` before any step: an overlay of `params` whose E
    is a copy of the batch's rows, and the batch with local item ids. An
    item id outside the table raises `DomainError`."""
    rows, local = np.unique(batch.items, return_inverse=True)
    with ag.no_grad():
        E_rows = ag.embedding(params["E"], rows).data   # range-checks the ids
    live = params.overlay()
    live.tensors["E"] = ag.Tensor(E_rows, requires_grad=True)
    return AdaptState(base=params, params=live, rows=rows,
                      batch=replace(batch, items=local.reshape(batch.items.shape)))


def step(state, cfg, weights):
    """One SGD step on the weighted alignment losses; returns (new state,
    StepRecord). The update goes into a fresh overlay, so `state` is left
    as it was. A failure returns `state` itself with the record's
    `abort_reason` set."""
    live, batch, pairs = state.params, state.batch, state.pairs
    measured = (None, None, 0)
    try:
        if pairs is None and cfg.mu1_test:
            pairs = L.time_pairs(batch.T, batch.t_elig, weights.lam, weights.block_size,
                                 live.config.np_dtype)
        trace = forward_full(live, batch, training=False, need_logits=False)
        t_loss, s_loss, warned = L.alignment_losses(
            live, trace, batch, weights, cfg.mu1_test, cfg.mu2_test, pairs)
        measured = (float(t_loss.data) if t_loss is not None else 0.0,
                    float(s_loss.data) if s_loss is not None else 0.0, warned)
        total = L.total_loss(None, t_loss, s_loss, cfg, phase="test")
        if not np.isfinite(total.data):
            raise AdaptError("non-finite adaptation loss")
        grads = ag.grad(total, live.as_dict())
        new = live.overlay()
        optim.sgd_step(new, grads, cfg.lr)
    except NumericError as e:
        return state, StepRecord(*measured, abort_reason=_reason(f"step {state.n_steps}", e))
    return (replace(state, params=new, n_steps=state.n_steps + 1, pairs=pairs),
            StepRecord(*measured))


def predict(state, batch):
    """Logits of `batch` (global item ids) under the state's parameters:
    the base's at step 0, otherwise the base's E with the adapted rows
    written into one copy of it."""
    live = state.base
    if state.n_steps:
        E = state.base["E"].data.copy()
        E[state.rows] = state.params["E"].data
        live = state.params.overlay()
        live.tensors["E"] = ag.Tensor(E)
    with ag.no_grad():
        return forward_full(live, batch, training=False,
                            need_extension=False).logits.data


def adapt_and_predict(params, batch, cfg, weights):
    """Algorithm: start, M self-supervised gradient steps, then predict.
    Returns (logits, AdaptReport).

    A failed step, or a failed prediction from the adapted parameters,
    aborts adaptation: the prediction comes from the unadapted parameters,
    with the report flagged and the reason recorded. An item id outside the
    table raises `DomainError`.
    """
    report = AdaptReport()
    steps = cfg.steps if (cfg.mu1_test or cfg.mu2_test) else 0

    t0 = time.perf_counter()
    unadapted = state = start(params, batch)
    for _ in range(steps):
        state, rec = step(state, cfg, weights)
        if rec.time_loss is not None:
            report.time_losses.append(rec.time_loss)
            report.state_losses.append(rec.state_loss)
        report.clamp_warnings += rec.clamp_warnings
        if rec.abort_reason:
            state = unadapted
            report.aborted, report.abort_reason = True, rec.abort_reason
            break
    report.seconds_adapt = time.perf_counter() - t0

    t1 = time.perf_counter()
    try:
        logits = predict(state, batch)
    except NumericError as e:
        if not state.n_steps:
            raise
        report.aborted, report.abort_reason = True, _reason("predict", e)
        logits = predict(unadapted, batch)
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
