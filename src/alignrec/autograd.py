"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus the graph bookkeeping needed for backward().
Every primitive builds its output value eagerly and attaches a closure that
propagates gradients to its parents. The op set is exactly what the model
and its losses need; there is no graph optimizer, no higher-order grads.

float64 is the working precision for training and adaptation; float32 is
accepted for throughput runs (ops preserve the input dtype).
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "DomainError", "GradStore",
    "constant", "parameter",
    "add", "sub", "neg", "mul", "div", "matmul", "exp", "log", "sqrt",
    "softplus", "sigmoid", "silu", "relu", "outer", "concat", "reshape",
    "reduce_sum", "reduce_mean", "clip_min", "stop_gradient",
    "masked_select", "take_flat", "gather_time", "embedding",
    "causal_conv1d", "layer_norm", "dropout",
    "softmax_cross_entropy", "frobenius_norm",
    "einsum", "scan_step", "sequential_scan",
    "backward", "grad", "no_grad", "finite_diff_check", "FiniteDiffReport",
]


class ShapeError(ValueError):
    """Raised when operands of a primitive are not shape-compatible."""


class DomainError(ValueError):
    """Raised when an input leaves the mathematical domain of a primitive."""


# map parameter name -> gradient ndarray
GradStore = dict


class Tensor:
    """An ndarray plus the graph edges required for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None,
                 name=None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all real work happens in the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    def backward(self):
        backward(self)


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name=None):
    return Tensor(np.array(data, copy=True), requires_grad=True, name=name)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _coerce_pair(a, b):
    """Wrap operands; python scalars adopt the tensor operand's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.isscalar(b):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.isscalar(a):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _as_tensor(a), _as_tensor(b)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(opname, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: incompatible shapes {a.shape} vs {b.shape}")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results hold neither parents nor a
    backward closure, so each intermediate is freed as soon as nothing else
    refers to it. For passes whose output is only read."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data, parents, backward_fn, name=None):
    # backward() never visits the parents of a node that needs no gradient
    req = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else (),
                  _backward=backward_fn if req else None, name=name)


# ---------------------------------------------------------------------------
# elementwise / linear-algebra primitives


def add(a, b):
    a, b = _coerce_pair(a, b)
    _check_broadcast("add", a, b)
    out_data = a.data + b.data

    def bw(g, acc):
        acc(a, _unbroadcast(g, a.data.shape))
        acc(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bw)


def sub(a, b):
    a, b = _coerce_pair(a, b)
    _check_broadcast("sub", a, b)
    out_data = a.data - b.data

    def bw(g, acc):
        acc(a, _unbroadcast(g, a.data.shape))
        acc(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), bw)


def neg(a):
    a = _as_tensor(a)

    def bw(g, acc):
        acc(a, -g)

    return _node(-a.data, (a,), bw)


def mul(a, b):
    a, b = _coerce_pair(a, b)
    _check_broadcast("mul", a, b)
    out_data = a.data * b.data

    def bw(g, acc):
        acc(a, _unbroadcast(g * b.data, a.data.shape))
        acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bw)


def div(a, b):
    a, b = _coerce_pair(a, b)
    _check_broadcast("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: zero denominator")
    out_data = a.data / b.data

    def bw(g, acc):
        acc(a, _unbroadcast(g / b.data, a.data.shape))
        acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), bw)


def matmul(a, b):
    """a @ b with a of rank >= 2 (batched allowed) and b of rank 2."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def bw(g, acc):
        acc(a, g @ b.data.T)
        ga = a.data.reshape(-1, a.data.shape[-1])
        gg = g.reshape(-1, g.shape[-1])
        acc(b, ga.T @ gg)

    return _node(out_data, (a, b), bw)


def _parse_einsum(spec, operands):
    """Split an explicit einsum spec into (input terms, output term) and
    check it against the operands; every failure is a ShapeError."""
    if spec.count("->") != 1:
        raise ShapeError(f"einsum: spec {spec!r} needs exactly one '->'")
    lhs, out = spec.split("->")
    terms = lhs.split(",")
    if len(terms) != len(operands):
        raise ShapeError(
            f"einsum: spec {spec!r} names {len(terms)} operands, got {len(operands)}")
    sizes = {}
    for term, op in zip(terms, operands):
        if not term.isalpha() or len(set(term)) != len(term):
            raise ShapeError(
                f"einsum: term {term!r} in {spec!r} must be distinct letters")
        if len(term) != op.data.ndim:
            raise ShapeError(f"einsum: term {term!r} does not match shape {op.shape}")
        for idx, n in zip(term, op.data.shape):
            if sizes.setdefault(idx, n) != n:
                raise ShapeError(f"einsum: index {idx!r} has sizes {sizes[idx]} and {n}")
    if len(set(out)) != len(out) or not set(out) <= set(sizes):
        raise ShapeError(f"einsum: output {out!r} in {spec!r} must be distinct input indices")
    for i, term in enumerate(terms):
        seen = set(out).union(*(t for j, t in enumerate(terms) if j != i))
        lone = set(term) - seen
        if lone:
            raise ShapeError(
                f"einsum: index {''.join(sorted(lone))!r} of term {term!r} is summed "
                f"within one operand; reduce_sum it first")
    return terms, out


def einsum(spec, *operands):
    """Tensor contraction in explicit einsum notation, e.g. "mts,mks->mtk".

    Each index is one letter, appears at most once per term, and every index
    of an operand also appears in the output or in another operand. Under
    those rules the gradient of each operand is again an einsum: the other
    operands and the output gradient contracted back to its own term.
    """
    operands = tuple(_as_tensor(o) for o in operands)
    terms, out = _parse_einsum(spec, operands)
    out_data = np.einsum(spec, *(o.data for o in operands), optimize=True)

    def bw(g, acc):
        for i, op in enumerate(operands):
            if not op.requires_grad:
                continue
            others = terms[:i] + terms[i + 1:]
            back = ",".join(others + [out]) + "->" + terms[i]
            acc(op, np.einsum(back, *(o.data for j, o in enumerate(operands) if j != i),
                              g, optimize=True))

    return _node(out_data, operands, bw)


def exp(a):
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g, acc):
        acc(a, g * out_data)

    return _node(out_data, (a,), bw)


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: non-positive input")
    out_data = np.log(a.data)

    def bw(g, acc):
        acc(a, g / a.data)

    return _node(out_data, (a,), bw)


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: negative input")
    out_data = np.sqrt(a.data)

    def bw(g, acc):
        acc(a, np.where(out_data > 0.0, g / (2.0 * np.where(out_data > 0, out_data, 1.0)), 0.0))

    return _node(out_data, (a,), bw)


from scipy.special import expit as _sigmoid


def sigmoid(a):
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)

    def bw(g, acc):
        acc(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def softplus(a):
    """log(1 + e^x), computed stably; derivative is sigmoid(x)."""
    a = _as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)

    def bw(g, acc):
        acc(a, g * _sigmoid(a.data))

    return _node(out_data, (a,), bw)


def silu(a):
    """x * sigmoid(x)."""
    a = _as_tensor(a)
    s = _sigmoid(a.data)
    out_data = a.data * s

    def bw(g, acc):
        acc(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _node(out_data, (a,), bw)


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bw(g, acc):
        acc(a, g * (a.data > 0.0))

    return _node(out_data, (a,), bw)


def outer(u, v):
    """Batched outer product: (..., p) x (..., q) -> (..., p, q)."""
    u, v = _as_tensor(u), _as_tensor(v)
    if u.data.ndim < 1 or u.data.shape[:-1] != v.data.shape[:-1]:
        raise ShapeError(f"outer: incompatible shapes {u.shape} vs {v.shape}")
    batch = "abcdefghijklmn"[:u.data.ndim - 1]
    return einsum(f"{batch}p,{batch}q->{batch}pq", u, v)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g, acc):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            acc(t, piece)

    return _node(out_data, tuple(tensors), bw)


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g, acc):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        acc(a, np.broadcast_to(gg, a.data.shape))

    return _node(out_data, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)])
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def bw(g, acc):
        gg = np.asarray(g) / n
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        acc(a, np.broadcast_to(gg, a.data.shape))

    return _node(out_data, (a,), bw)


def clip_min(a, lo):
    """max(a, lo) elementwise; gradient passes only where a >= lo."""
    a = _as_tensor(a)
    out_data = np.maximum(a.data, lo)

    def bw(g, acc):
        acc(a, g * (a.data >= lo))

    return _node(out_data, (a,), bw)


def stop_gradient(a):
    a = _as_tensor(a)
    return Tensor(a.data, requires_grad=False)


def reshape(a, shape):
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# indexing primitives


def _getitem(a, key):
    a = _as_tensor(a)
    out_data = a.data[key]

    def bw(g, acc):
        full = np.zeros_like(a.data)
        full[key] += g
        acc(a, full)

    return _node(np.array(out_data, copy=True), (a,), bw)


def take_flat(a, flat_index):
    """Gather from the flattened tensor; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(flat_index)
    out_data = a.data.reshape(-1)[idx]

    def bw(g, acc):
        full = np.zeros(a.data.size, dtype=a.data.dtype)
        np.add.at(full, idx, g)
        acc(a, full.reshape(a.data.shape))

    return _node(out_data, (a,), bw)


def masked_select(a, mask):
    """Select entries where a boolean mask is true, as a 1-D tensor."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != np.shape(a.data if isinstance(a, Tensor) else a):
        raise ShapeError(f"masked_select: mask shape {mask.shape} does not match input")
    return take_flat(a, np.flatnonzero(mask.reshape(-1)))


def gather_time(a, index):
    """Pick one time step per row: a (m, L, ...) -> (m, ...)."""
    a = _as_tensor(a)
    idx = np.asarray(index)
    m = a.data.shape[0]
    rows = np.arange(m)
    out_data = a.data[rows, idx]

    def bw(g, acc):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, idx), g)
        acc(a, full)

    return _node(np.array(out_data, copy=True), (a,), bw)


def embedding(table, indices):
    """Row lookup into a (V, d) table; backward scatter-adds into rows."""
    table = _as_tensor(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DomainError(
            f"embedding: index out of range for table with {table.data.shape[0]} rows")
    out_data = table.data[idx]

    def bw(g, acc):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        acc(table, full)

    return _node(np.array(out_data, copy=True), (table,), bw)


# ---------------------------------------------------------------------------
# structured primitives


def causal_conv1d(x, kernel, bias):
    """Depthwise causal 1-D convolution over the time axis.

    x: (m, L, C); kernel: (w, C); bias: (C,). The input is implicitly
    left-padded with w-1 zeros so position t sees x[t-w+1 .. t].
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3 or kernel.data.ndim != 2 or x.data.shape[2] != kernel.data.shape[1]:
        raise ShapeError(
            f"causal_conv1d: incompatible shapes {x.shape} vs kernel {kernel.shape}")
    m, L, C = x.data.shape
    w = kernel.data.shape[0]
    out_data = np.broadcast_to(bias.data, (m, L, C)).astype(x.data.dtype).copy()
    for k in range(w):
        shift = w - 1 - k  # how far back in time tap k looks
        if shift == 0:
            out_data += kernel.data[k] * x.data
        elif shift < L:
            out_data[:, shift:, :] += kernel.data[k] * x.data[:, :L - shift, :]

    def bw(g, acc):
        gx = np.zeros_like(x.data)
        gk = np.zeros_like(kernel.data)
        for k in range(w):
            shift = w - 1 - k
            if shift == 0:
                gx += kernel.data[k] * g
                gk[k] = np.sum(g * x.data, axis=(0, 1))
            elif shift < L:
                gx[:, :L - shift, :] += kernel.data[k] * g[:, shift:, :]
                gk[k] = np.sum(g[:, shift:, :] * x.data[:, :L - shift, :], axis=(0, 1))
        acc(x, gx)
        acc(kernel, gk)
        acc(bias, np.sum(g, axis=(0, 1)))

    return _node(out_data, (x, kernel, bias), bw)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = gamma.data * xhat + beta.data

    def bw(g, acc):
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        acc(x, (gg - m1 - xhat * m2) * inv)
        red = tuple(range(g.ndim - 1))
        acc(gamma, np.sum(g * xhat, axis=red))
        acc(beta, np.sum(g, axis=red))

    return _node(out_data, (x, gamma, beta), bw)


def dropout(x, rate, rng=None, training=False):
    """Inverted dropout: active only in training mode; identity otherwise."""
    x = _as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode requires an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def bw(g, acc):
        acc(x, g * keep)

    return _node(x.data * keep, (x,), bw)


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -log softmax(logits)[target]; numerically stable."""
    logits = _as_tensor(logits)
    t = np.asarray(targets)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    m, V = logits.data.shape
    if t.shape != (m,):
        raise ShapeError(f"softmax_cross_entropy: targets shape {t.shape} vs batch {m}")
    if t.size and (t.min() < 0 or t.max() >= V):
        raise DomainError("softmax_cross_entropy: target index out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(m)
    losses = lse - z[rows, t]
    out_data = losses.mean()

    def bw(g, acc):
        p = np.exp(z - lse[:, None])
        p[rows, t] -= 1.0
        acc(logits, (g / m) * p)

    return _node(out_data, (logits,), bw)


def frobenius_norm(a, axis):
    """sqrt(sum of squares) over the given axes; zero-input gradient is zero."""
    a = _as_tensor(a)
    ax = tuple(np.atleast_1d(axis))
    out_data = np.sqrt(np.sum(a.data * a.data, axis=ax))

    def bw(g, acc):
        denom = np.where(out_data > 0.0, out_data, 1.0)
        gg = np.asarray(g * np.where(out_data > 0.0, 1.0, 0.0) / denom)
        gg = np.expand_dims(gg, ax)
        acc(a, gg * a.data)

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# the selective-scan recurrence


def _decay_kernel(abar, mask):
    """W[m, t, k] = mask[m, k] * prod_{k<j<=t} abar'[m, j] on the lower
    triangle (t >= k) and 0 above it, where abar' is abar with masked steps
    set to 1.

    This is exp of the segment sum of log abar', formed as a running product
    inside each segment rather than as a ratio of prefix products, so exact
    zeros in abar need no logarithm and produce no 0/0. The gradient needs no
    division either: the derivative of W[t, k] by abar_j (k < j <= t) is the
    product over the segment with j left out, W[t, j] * W[j-1, k].
    """
    mask = np.asarray(mask, dtype=bool)
    L = abar.data.shape[1]
    a = np.where(mask, abar.data, 1.0).astype(abar.data.dtype, copy=False)
    below = np.tri(L, L, -1, dtype=bool)            # t > k
    seg = np.cumprod(np.where(below, a[:, :, None], 1.0), axis=1)
    W = np.where(np.tri(L, L, dtype=bool), seg, 0.0) * mask[:, None, :]

    def bw(g, acc):
        # P[j, k] = W[j-1, k]: the segment product up to just before step j
        P = np.zeros_like(W)
        P[:, 1:] = W[:, :-1]
        ga = np.einsum("mtj,mtj->mj", W, np.einsum("mtk,mjk->mtj", g, P, optimize=True))
        acc(abar, np.where(mask, ga, 0.0))

    return _node(W, (abar,), bw)


def sequential_scan(abar, bbar, x, C, mask):
    """The masked recurrence h_t = abar_t h_{t-1} + bbar_t (x) x_t with
    readout y_t = h_t^T c_t, in its quadratic (state-space-dual) form.

    abar: (m, L); bbar: (m, L, s); x: (m, L, d); C: (m, L, s);
    mask: (m, L) bool. A masked step leaves the state unchanged: its decay
    counts as 1 and it injects nothing, though y_t still reads the carried
    state. With the decay kernel W[t, k] = prod_{k<j<=t} abar_j (lower
    triangle, masked columns zero):

        Y       = (W o C bbar^T) x                      (m, L, d)
        h_final = sum_k W[L-1, k] bbar_k (x) x_k        (m, s, d)

    Returns (Y, h_final, W), W being a non-differentiable copy of the
    (m, L, L) kernel. Memory is O(m L^2) beside the inputs: no (m, L, s, d)
    state stack is formed, and the gradient is composed from einsum.
    """
    abar, bbar, x, C = (_as_tensor(v) for v in (abar, bbar, x, C))
    mask = np.asarray(mask, dtype=bool)
    m, L = abar.data.shape
    s = bbar.data.shape[-1]
    d = x.data.shape[-1]
    if bbar.data.shape != (m, L, s) or x.data.shape != (m, L, d) or \
            C.data.shape != (m, L, s) or mask.shape != (m, L):
        raise ShapeError(
            f"sequential_scan: inconsistent shapes abar {abar.shape}, "
            f"bbar {bbar.shape}, x {x.shape}, C {C.shape}, mask {mask.shape}")

    W = _decay_kernel(abar, mask)
    scores = mul(W, einsum("mts,mks->mtk", C, bbar))
    Y = einsum("mtk,mkd->mtd", scores, x)
    h_final = einsum("mk,mks,mkd->msd", W[:, -1], bbar, x)
    return Y, h_final, Tensor(W.data)


def scan_step(h_prev, abar, bbar, x):
    """One recurrence step: abar * h_prev + bbar (x) x.

    h_prev: (..., s, d); abar: per-row decay factors; bbar: (..., s);
    x: (..., d).
    """
    h_prev, abar = _as_tensor(h_prev), _as_tensor(abar)
    if abar.data.ndim < h_prev.data.ndim:
        abar = reshape(abar, abar.data.shape + (1, 1))
    return add(mul(abar, h_prev), outer(bbar, x))


# ---------------------------------------------------------------------------
# backward pass and verification


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root):
    """Propagate gradients from a scalar root to every reachable parameter."""
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)

    def acc(node, g):
        if not node.requires_grad:
            return
        g = np.asarray(g, dtype=node.data.dtype)
        node.grad = g if node.grad is None else node.grad + g

    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad, acc)


def grad(loss, params):
    """Gradients of a scalar loss for a dict of named parameter tensors.

    Parameters not reachable from the loss get zero gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"grad: loss must be scalar, got shape {loss.shape}")
    # backward() only resets the nodes it reaches; a parameter outside this
    # graph would otherwise report the gradient of an earlier loss
    for p in params.values():
        p.grad = None
    backward(loss)
    store = {}
    for name, p in params.items():
        store[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return store


class FiniteDiffReport:
    """Outcome of a central-difference gradient check."""

    def __init__(self):
        self.checked = []   # (name, index, analytic, numeric, rel_err)
        self.failures = []  # same tuples, rel_err > tol

    @property
    def n_checked(self):
        return len(self.checked)

    @property
    def ok(self):
        return not self.failures

    def max_rel_err(self):
        return max((c[4] for c in self.checked), default=0.0)

    def __repr__(self):
        return (f"FiniteDiffReport(checked={self.n_checked}, "
                f"failures={len(self.failures)}, max_rel_err={self.max_rel_err():.3e})")


def finite_diff_check(f, params, eps=1e-5, tol=1e-4, n_samples=20, rng=None):
    """Compare analytic gradients of f() against central finite differences.

    f is a deterministic closure over `params` returning a loss Tensor. A
    random subset of coordinates across all parameters is perturbed by
    +/- eps; a coordinate fails when
    |analytic - numeric| / max(|analytic|, eps) > tol.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"finite_diff_check: eps {eps} outside (0, 1e-2]")
    rng = rng or np.random.default_rng(0)
    analytic = grad(f(), params)

    coords = []
    for name, p in params.items():
        for _ in range(max(1, n_samples // max(1, len(params)))):
            coords.append((name, tuple(rng.integers(0, s) for s in p.data.shape)))
    while len(coords) < n_samples:
        name = list(params)[int(rng.integers(0, len(params)))]
        p = params[name]
        coords.append((name, tuple(rng.integers(0, s) for s in p.data.shape)))

    report = FiniteDiffReport()
    for name, idx in coords:
        p = params[name]
        orig = p.data[idx]
        p.data[idx] = orig + eps
        f_plus = float(f().data)
        p.data[idx] = orig - eps
        f_minus = float(f().data)
        p.data[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[name][idx])
        rel = abs(a - numeric) / max(abs(a), eps)
        entry = (name, idx, a, numeric, rel)
        report.checked.append(entry)
        if rel > tol:
            report.failures.append(entry)
    return report
