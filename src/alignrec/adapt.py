"""Per-batch test-time adaptation.

For each test batch: take M plain gradient steps on the weighted
self-supervised alignment losses (no labels are touched) over a read-only
overlay of the parameters, then predict with the adapted overlay. The
checkpoint arrays are never written, so batches are completely independent
of each other and need no snapshot or restore.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import losses as L
from . import optim
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
    mu1_test: float = 1e-2
    mu2_test: float = 1e-1
    use_time_loss: bool = True
    use_state_loss: bool = True
    batch_policy: str = "whole"      # "whole" | "fixed"
    batch_size: int = 256            # used by the "fixed" policy

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"AdaptConfig: steps must be >= 0, got {self.steps}")
        if self.lr < 0:
            raise ValueError(f"AdaptConfig: lr must be >= 0, got {self.lr}")
        if self.batch_policy not in ("whole", "fixed"):
            raise ValueError(f"AdaptConfig: unknown batch_policy {self.batch_policy!r}")

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class AdaptReport:
    time_losses: list = field(default_factory=list)
    state_losses: list = field(default_factory=list)
    post_logits_checksum: str = ""
    aborted: bool = False
    clamp_warnings: int = 0
    seconds_adapt: float = 0.0
    seconds_predict: float = 0.0

    def to_dict(self):
        return dict(self.__dict__)


def _logits_digest(logits):
    return hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()[:16]


def _ssl_losses(params, batch, weights, cfg):
    """Forward pass plus whichever alignment losses are enabled."""
    trace = forward_full(params, batch, training=False, need_logits=False)
    t_loss = s_loss = None
    warned = 0
    if cfg.use_time_loss:
        t_loss, _ = L.batch_time_loss(params, trace, batch, weights)
    if cfg.use_state_loss:
        s_loss, inter = L.state_alignment_loss(
            params, trace, dilution_power=weights.dilution_power)
        warned = inter.clamp_warnings
    return trace, t_loss, s_loss, warned


def adapt_and_predict(params, batch, cfg, weights):
    """Algorithm: M self-supervised gradient steps on `params.overlay()`,
    then predict. Returns (logits, AdaptReport).

    A non-finite loss aborts adaptation: the prediction comes from the
    unadapted parameters, with the report flagged.
    """
    report = AdaptReport()
    live = params.overlay()
    w = L.LossWeights(mu1_test=cfg.mu1_test, mu2_test=cfg.mu2_test,
                      lam=weights.lam, block_size=weights.block_size,
                      dilution_power=weights.dilution_power)

    t0 = time.perf_counter()
    try:
        for _ in range(cfg.steps):
            trace, t_loss, s_loss, warned = _ssl_losses(live, batch, weights, cfg)
            report.clamp_warnings += warned
            report.time_losses.append(float(t_loss.data) if t_loss is not None else 0.0)
            report.state_losses.append(float(s_loss.data) if s_loss is not None else 0.0)
            total = L.total_loss(None, t_loss, s_loss, w, phase="test")
            if not np.isfinite(total.data):
                raise AdaptError("non-finite adaptation loss")
            grads = ag.grad(total, live.as_dict())
            optim.sgd_step(live, grads, cfg.lr)
    except (AdaptError, optim.OptimError, ag.DomainError):
        live = params
        report.aborted = True
    report.seconds_adapt = time.perf_counter() - t0

    t1 = time.perf_counter()
    with ag.no_grad():
        logits = forward_full(live, batch, training=False,
                              need_extension=False).logits.data
    report.seconds_predict = time.perf_counter() - t1
    report.post_logits_checksum = _logits_digest(logits)
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
    per_example = np.concatenate(rows, axis=0) if rows else np.zeros((0, 3))
    return per_example, reports


def evaluate_frozen(params, batches, k=10):
    """Plain evaluation without adaptation; per-example metric rows."""
    with ag.no_grad():
        rows = [batch_rank_metrics(
            forward_full(params, b, training=False, need_extension=False).logits.data,
            b.target_item, k) for b in batches]
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, 3))
