"""Optimization utilities: Adam, SGD for the adaptation step, and exact
parameter snapshot/restore."""

from __future__ import annotations

import numpy as np

from .checks import NumericError


class OptimError(NumericError):
    pass


class Adam:
    """Standard Adam with bias correction, moments keyed by parameter name."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {n: np.zeros_like(params[n].data) for n in params.names()}
        self.v = {n: np.zeros_like(params[n].data) for n in params.names()}

    def step(self, grads):
        """One update. A non-finite gradient, or one whose square overflows the
        second moment, raises OptimError before any parameter or moment moves."""
        moments = {}
        for name in self.params.names():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(self.params[name].data)
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            if not np.all(np.isfinite(v)):
                raise OptimError(f"adam_step: non-finite gradient for {name!r}"
                                 if not np.all(np.isfinite(g)) else
                                 f"adam_step: second moment of {name!r} overflows")
            moments[name] = (self.beta1 * self.m[name] + (1.0 - self.beta1) * g, v)
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, (m, v) in moments.items():
            self.m[name], self.v[name] = m, v
            self.params[name].data = self.params[name].data - \
                self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def sgd_step(params, grads, lr):
    """Plain theta <- theta - lr * grad, the adaptation update."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise OptimError(f"sgd_step: non-finite gradient for {name!r}")
    for name in params.names():
        g = grads.get(name)
        if g is not None:
            params[name].data = params[name].data - lr * g


class Snapshot:
    """Deep copy of every parameter tensor."""

    def __init__(self, params):
        self.arrays = {n: params[n].data.copy() for n in params.names()}

    def restore(self, params):
        if set(params.names()) != set(self.arrays):
            raise OptimError("restore: parameter names do not match the snapshot")
        for name in params.names():
            src = self.arrays[name]
            dst = params[name].data
            if src.shape != dst.shape or src.dtype != dst.dtype:
                raise OptimError(f"restore: architecture mismatch for {name!r}")
            params[name].data = src.copy()

    def matches(self, params):
        """Exact equality of names, dtypes, shapes and bytes."""
        if set(params.names()) != set(self.arrays):
            return False
        for name in params.names():
            a, b = self.arrays[name], params[name].data
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        return True


snapshot = Snapshot   # perfbench/tracing.py wraps optim.snapshot
