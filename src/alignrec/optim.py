"""Optimization utilities: Adam, SGD for the adaptation step, and exact
parameter snapshot/restore."""

from __future__ import annotations

import numpy as np


class OptimError(ValueError):
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
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise OptimError(f"adam_step: non-finite gradient for {name!r}")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name in self.params.names():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(self.params[name].data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            self.params[name].data = self.params[name].data - \
                self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


def snapshot(params):
    return Snapshot(params)
