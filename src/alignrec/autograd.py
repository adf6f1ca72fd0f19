"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus the graph edges that grad() walks back.
Every primitive builds its output value eagerly and attaches a closure that
propagates gradients to its parents. The op set is exactly what the model
and its losses need; there is no graph optimizer, no higher-order grads.
Indexing a Tensor is the only gather, and its backward the only scatter-add.

Every op keeps its input's dtype, dropout's mask included. Run configs
train, adapt and serve in float32 (`RunConfig.precision`); the oracles
(finite_diff_check, `alignrec gradcheck`, the naive-recurrence and
brute-force checks of the tests) build float64 parameters, the dtype a bare
`ModelConfig` defaults to.

numpy is the only dependency: the sigmoid is numpy's exp, built in one
buffer. A backward computes no product for an operand that takes no
gradient, the causal convolution works through sequences in blocks with
one scratch buffer, and `linear` adds its bias and applies its row mask in
the product's own buffer, so neither a constant mask, a bias nor a
convolution tap costs a full-size array. A reader of the convolution's last
row alone takes it from `causal_conv1d_last`, which computes that row with
the whole convolution's float operations and nothing else.

Every contraction the model composes is a batched `matmul`, with
`transpose` and a broadcast `mul` around it: the scan's readouts and final
state and the head. The state loss's rank-2 product is a `sub_matmul`, which
subtracts it from the scaled state in the product's own buffer. numpy runs
each as one call with no spec to parse. The embedding gradient scatters
rows through the table's flat view with a 1-D np.add.at whose index is
built a block at a time; it gives the same bits as the 2-D np.add.at.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "DomainError",
    "constant", "parameter",
    "add", "sub", "neg", "mul", "div", "matmul", "sub_matmul", "transpose",
    "linear", "exp",
    "softplus", "silu", "relu", "concat", "reshape",
    "reduce_sum", "clip_min", "stop_gradient", "embedding",
    "causal_conv1d", "causal_conv1d_last", "layer_norm", "dropout",
    "softmax_cross_entropy", "frobenius_norm",
    "sequential_scan", "last_decay",
    "grad", "no_grad", "finite_diff_check", "FiniteDiffReport",
]


class ShapeError(ValueError):
    """Raised when operands of a primitive are not shape-compatible."""


class DomainError(ValueError):
    """Raised when an input leaves the mathematical domain of a primitive."""


class Tensor:
    """An ndarray plus the graph edges required for reverse-mode AD."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return _getitem(self, key)


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(np.array(data, copy=True), requires_grad=True)


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


def _node(data, parents, backward_fn):
    # grad() never visits the parents of a node that needs no gradient
    req = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else (),
                  _backward=backward_fn if req else None)


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
        # a product for an operand that takes no gradient, such as a mask,
        # would be a full-size array that acc throws away
        if a.requires_grad:
            acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bw)


def div(a, b):
    a, b = _coerce_pair(a, b)
    _check_broadcast("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: zero denominator")
    out_data = a.data / b.data

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), bw)


def _swap(x):
    return np.swapaxes(x, -1, -2)


def matmul(a, b):
    """a @ b under numpy's rules for operands of rank >= 2: the last two axes
    multiply as matrices and the leading axes broadcast.

    Each gradient is again a batched matmul, summed back over the axes its
    operand was broadcast along. A 2-D b, a weight shared by every row of a,
    takes its gradient as one GEMM over a's rows flattened.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError
        out_data = a.data @ b.data   # numpy checks the inner and leading sizes
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} vs {b.shape}") from None

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g @ _swap(b.data), a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:
                ga = a.data.reshape(-1, a.data.shape[-1])
                acc(b, ga.T @ g.reshape(-1, g.shape[-1]))
            else:
                acc(b, _unbroadcast(_swap(a.data) @ g, b.data.shape))

    return _node(out_data, (a, b), bw)


def sub_matmul(a, u, v):
    """a - u @ v, the product subtracted in its own buffer. u: (..., n, r),
    v: (..., r, p), a: the product's shape; for a low rank r the product
    costs little beside a.

    The values and gradients are those of sub(a, matmul(u, v)), but the
    graph keeps one output array where those two keep two, and a's gradient
    is g itself.
    """
    a, u, v = _as_tensor(a), _as_tensor(u), _as_tensor(v)
    try:
        if u.data.ndim < 2 or v.data.ndim < 2:
            raise ValueError
        out_data = u.data @ v.data
        if out_data.shape != a.data.shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"sub_matmul: incompatible shapes {a.shape} - "
                         f"{u.shape} @ {v.shape}") from None
    np.subtract(a.data, out_data, out=out_data)

    def bw(g, acc):
        acc(a, g)
        if u.requires_grad:
            gu = g @ _swap(v.data)
            acc(u, _unbroadcast(np.negative(gu, out=gu), u.data.shape))
        if v.requires_grad:
            gv = _swap(u.data) @ g
            acc(v, _unbroadcast(np.negative(gv, out=gv), v.data.shape))

    return _node(out_data, (a, u, v), bw)


def transpose(a):
    """a with its last two axes swapped, as a view."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: needs rank >= 2, got {a.shape}")

    def bw(g, acc):
        acc(a, _swap(g))

    return _node(_swap(a.data), (a,), bw)


def linear(x, W, b, mask=None):
    """(x @ W + b) * mask[..., None]: the affine map, with rows where mask is
    0 zeroed. x: (..., k) of rank >= 2; W: (k, n); b: (n,); mask: x.shape[:-1].

    The bias and the mask are applied in place in the product's buffer, so
    the graph keeps one output array where matmul, add and mul keep three.
    The values and gradients are those of mul(add(matmul(x, W), b), mask):
    the backward masks g once and makes the same products and bias sum.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.data.ndim < 2 or W.data.ndim != 2 or x.data.shape[-1] != W.data.shape[0] \
            or b.data.shape != W.data.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {W.shape} + {b.shape}")
    out_data = x.data @ W.data
    out_data += b.data
    if mask is not None:
        mask = np.asarray(mask, dtype=out_data.dtype)
        if mask.shape != x.data.shape[:-1]:
            raise ShapeError(f"linear: mask {mask.shape} vs rows {x.shape[:-1]}")
        mask = mask[..., None]
        out_data *= mask

    def bw(g, acc):
        if mask is not None:
            g = g * mask
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            acc(x, g @ W.data.T)
        if W.requires_grad:
            acc(W, x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _node(out_data, (x, W, b), bw)


def exp(a):
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g, acc):
        acc(a, g * out_data)

    return _node(out_data, (a,), bw)


def _sigmoid(x):
    """1 / (1 + e^-x) in one buffer of x's dtype, 0-d input included. e^-x
    overflows to inf below about -709 (float64) and gives exactly 0; it
    underflows to 0 above about 745 and gives exactly 1."""
    x = np.asarray(x)
    out = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore", under="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
        # g s (1 + a (1 - s)), built in one buffer
        buf = np.subtract(1.0, s)
        buf *= a.data
        buf += 1.0
        buf *= s
        buf *= g
        acc(a, buf)

    return _node(out_data, (a,), bw)


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bw(g, acc):
        acc(a, g * (a.data > 0.0))

    return _node(out_data, (a,), bw)


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
# indexing: the engine's one gather and, in its backward, its one scatter-add


_SCATTER_BLOCK = 1 << 13


def _scatter_rows(full, rows, g):
    """full[rows[i]] += g[i] for every i in order, for an integer array of
    row ids into a table of rank >= 2, as a 1-D np.add.at on the flat view.

    The flat index rows[i] * w + arange(w), w being a row's size, is built
    for about _SCATTER_BLOCK elements at a time, so the index never grows to
    the size of g. Each element receives the same adds in the same order as
    from np.add.at(full, rows, g), so the result is bitwise the same, and
    the 1-D scatter is 2-3 times faster than the 2-D one.
    """
    flat = full.reshape(-1)
    w = math.prod(full.shape[1:])
    rows = np.asarray(rows).reshape(-1)
    g = g.reshape(len(rows), w)
    cols = np.arange(w)
    step = max(1, _SCATTER_BLOCK // max(1, w))
    for i in range(0, len(rows), step):
        index = rows[i:i + step, None] * w + cols
        np.add.at(flat, index.reshape(-1), g[i:i + step].reshape(-1))


def _getitem(a, key):
    """a[key]. A basic slice returns a view (no op writes into a Tensor's
    data) and its backward adds into that region of a's gradient."""
    a = _as_tensor(a)
    out_data = a.data[key]
    # an integer index array may repeat an entry, whose gradients must add
    # up; np.add.at does that but is several times slower on plain slices
    parts = key if isinstance(key, tuple) else (key,)
    scatter = any(isinstance(p, (list, np.ndarray)) and np.asarray(p).dtype.kind in "iu"
                  for p in parts)
    by_rows = scatter and not isinstance(key, tuple) and a.data.ndim > 1

    def bw(g, acc):
        if scatter:
            # scattered into a fresh buffer first, so prev + (0 + g1 + g2)
            # keeps its association; scattering into prev would round apart
            full = np.zeros_like(a.data)
            if by_rows:
                _scatter_rows(full, key, g)
            else:
                np.add.at(full, key, g)
            acc(a, full)
        else:
            acc(a, g, key)

    return _node(out_data, (a,), bw)


def embedding(table, indices):
    """Row lookup into a (V, d) table: indexing with a range check."""
    table = _as_tensor(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DomainError(
            f"embedding: index out of range for table with {table.data.shape[0]} rows")
    return _getitem(table, idx)


# ---------------------------------------------------------------------------
# structured primitives


_BLOCK_BYTES = 1 << 18


def _block_rows(row_bytes):
    """How many leading-axis rows of row_bytes each fit one _BLOCK_BYTES
    block: small enough that a block and its scratch stay in cache."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


def causal_conv1d(x, kernel, bias):
    """Depthwise causal 1-D convolution over the time axis.

    x: (m, L, C); kernel: (w, C); bias: (C,). The input is implicitly
    left-padded with w-1 zeros so position t sees x[t-w+1 .. t].

    Forward and backward take sequences in blocks of about _BLOCK_BYTES and
    write each tap's product into one block-sized scratch buffer, so no
    full-size temporary is made per tap. The product is formed over the
    whole block, one contiguous buffer, and its shifted part is added: the
    shift rows no output reads cost less than walking a sliced buffer
    sequence by sequence. Each output element adds the bias and then the
    taps in order k = 0 .. w-1; the kernel gradient is summed block by
    block.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3 or kernel.data.ndim != 2 or x.data.shape[2] != kernel.data.shape[1]:
        raise ShapeError(
            f"causal_conv1d: incompatible shapes {x.shape} vs kernel {kernel.shape}")
    m, L, C = x.data.shape
    w = kernel.data.shape[0]
    out_data = np.empty((m, L, C), dtype=x.data.dtype)
    out_data[...] = bias.data
    rows = _block_rows(L * C * x.data.itemsize)
    scratch = np.empty((min(rows, m), L, C), dtype=x.data.dtype)
    for i in range(0, m, rows):
        xb, ob = x.data[i:i + rows], out_data[i:i + rows]
        tap = scratch[:len(xb)]
        for k in range(w):
            shift = w - 1 - k  # how far back in time tap k looks
            if shift < L:
                np.multiply(kernel.data[k], xb, out=tap)
                ob[:, shift:] += tap[:, :L - shift]

    def bw(g, acc):
        gx = np.zeros_like(x.data)
        gk = np.zeros_like(kernel.data)
        scratch = np.empty((min(rows, m), L, C), dtype=x.data.dtype)
        for i in range(0, m, rows):
            gb, xb, gxb = g[i:i + rows], x.data[i:i + rows], gx[i:i + rows]
            tap = scratch[:len(xb)]
            for k in range(w):
                shift = w - 1 - k
                if shift < L:
                    np.multiply(kernel.data[k], gb, out=tap)
                    gxb[:, :L - shift] += tap[:, shift:]
                    gk[k] += np.einsum("mlc,mlc->c", gb[:, shift:], xb[:, :L - shift])
        acc(x, gx)
        acc(kernel, gk)
        acc(bias, np.sum(g, axis=(0, 1)))

    return _node(out_data, (x, kernel, bias), bw)


def causal_conv1d_last(x, kernel, bias):
    """The last row of causal_conv1d(x, kernel, bias), as an (m, 1, C)
    sequence of one step, for a reader of that row only.

    x: (m, n, C); kernel: (w, C); bias: (C,). The row is the bias plus tap
    k's product with x[:, n-w+k], added in order k = 0 .. w-1; a tap before
    x's first row reads the zero history and is skipped. These are the float
    operations causal_conv1d makes for that row, in the same order, so the
    bits are the same. Only the last min(n, w) rows of x are read, and only
    they receive a gradient.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3 or kernel.data.ndim != 2 or x.data.shape[2] != kernel.data.shape[1]:
        raise ShapeError(
            f"causal_conv1d_last: incompatible shapes {x.shape} vs kernel {kernel.shape}")
    m, n, C = x.data.shape
    w = kernel.data.shape[0]
    t = min(n, w)   # rows read: x[:, n-t:] meets kernel[w-t:]
    out_data = np.empty((m, 1, C), dtype=x.data.dtype)
    out_data[...] = bias.data
    row = out_data[:, 0]
    tap = np.empty((m, C), dtype=x.data.dtype)
    for k in range(w - t, w):
        np.multiply(kernel.data[k], x.data[:, n - w + k], out=tap)
        row += tap

    def bw(g, acc):
        g = g[:, 0]
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.multiply(g[:, None], kernel.data[w - t:], out=gx[:, n - t:])
            acc(x, gx)
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.data)
            gk[w - t:] = np.einsum("mc,mtc->tc", g, x.data[:, n - t:])
            acc(kernel, gk)
        acc(bias, np.sum(g, axis=0))

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
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep /= 1.0 - rate

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
        # in the input's dtype: a bare 1.0 / 0.0 selector would be float64
        pos = out_data > 0.0
        gg = np.where(pos, g / np.where(pos, out_data, 1.0), 0.0)
        acc(a, np.expand_dims(gg, ax) * a.data)

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# the selective-scan recurrence


def last_decay(abar, mask):
    """w[..., k] = mask[..., k] * prod_{k<j<L} abar'[..., j], abar' being abar
    with masked steps set to 1: the weight with which step k's injection
    reaches the state after the last step L-1. A reverse cumulative product
    along the last axis, O(L) per row.

    abar broadcasts against mask, which may add leading axes: with abar of
    shape (m, 1, L) and mask[m, t, k] = (k <= t) and step k valid, row t is
    the weight of each step in the state after step t, i.e. the decay kernel
    of the quadratic scan. The gradient is summed back to abar's shape.

    The backward sweeps forward once and divides by nothing, so an abar of
    exactly 0 still gets its finite gradient. With R[j] = prod_{j<i<L}
    abar'_i (so w = mask R) and S[j] = sum_{k<j} mask_k g_k
    prod_{k<i<j} abar'_i:

        S[j+1] = abar'_j S[j] + mask_j g_j,    grad_j = mask_j R[j] S[j]

    Only w and mask are kept for it: w equals R wherever mask holds, and
    abar' is formed again one step at a time.
    """
    abar = _as_tensor(abar)
    mask = np.asarray(mask, dtype=bool)
    try:
        shape = np.broadcast_shapes(abar.data.shape, mask.shape)
    except ValueError:
        shape = None
    if mask.ndim == 0 or shape != mask.shape:
        raise ShapeError(f"last_decay: abar {abar.shape} must broadcast to "
                         f"mask {mask.shape}")
    a = np.where(mask, abar.data, 1.0).astype(abar.data.dtype, copy=False)
    w = np.ones_like(a)
    w[..., :-1] = np.cumprod(a[..., :0:-1], axis=-1)[..., ::-1]
    w *= mask

    def bw(g, acc):
        ab = np.broadcast_to(abar.data, mask.shape)
        ga = np.zeros_like(w)
        S = np.zeros(mask.shape[:-1], dtype=w.dtype)
        for j in range(mask.shape[-1]):
            on = mask[..., j]
            ga[..., j] = np.where(on, w[..., j] * S, 0.0)
            S = np.where(on, ab[..., j], 1.0) * S + np.where(on, g[..., j], 0.0)
        acc(abar, _unbroadcast(ga, abar.data.shape))

    return _node(w, (abar,), bw)


def sequential_scan(abar, bbar, x, C, mask):
    """The masked recurrence h_t = abar_t h_{t-1} + bbar_t (x) x_t with
    readout y_t = h_t^T c_t, in its quadratic (state-space-dual) form.

    abar: (m, L); bbar: (m, L, s); x: (m, L, d); C: (m, L, s);
    mask: (m, L) bool. A masked step leaves the state unchanged: its decay
    counts as 1 and it injects nothing, though y_t still reads the carried
    state. The decay kernel W[t, k] = prod_{k<j<=t} abar_j (lower triangle,
    masked columns zero) is last_decay with row t's mask ending at step t:

        Y       = (W o C bbar^T) x                      (m, L, d)
        h_final = (W[L-1] o bbar)^T x                   (m, s, d)

    with o broadcasting over the last axis of bbar. Both are batched matmuls
    over m, as in Mamba-2's state-space duality. Returns (Y, h_final). Memory
    is O(m L^2) beside the inputs: no (m, L, s, d) state stack is formed, and
    the gradient is composed from those of last_decay, mul and matmul, O(m L^2)
    for the kernel.
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

    W = last_decay(reshape(abar, (m, 1, L)), np.tri(L, dtype=bool) & mask[:, None, :])
    scores = mul(W, matmul(C, transpose(bbar)))
    Y = matmul(scores, x)
    h_final = matmul(transpose(mul(bbar, reshape(W[:, -1], (m, L, 1)))), x)
    return Y, h_final


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


def grad(loss, params):
    """Gradients of a scalar loss for a dict of named parameter tensors.

    The gradients are held in a table local to this call and stored on no
    tensor, so a graph can be differentiated more than once. A node's entry
    is dropped once its closure has passed it on, unless the node is one of
    `params`. A parameter the loss does not reach gets no entry: its
    gradient is zero, and no buffer is made for it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"grad: loss must be scalar, got shape {loss.shape}")
    keep = {id(p) for p in params.values()}
    grads = {id(loss): np.ones_like(loss.data)}
    owned = set()   # ids whose buffer this call allocated and may write into

    def acc(node, g, key=...):
        """Add g into node's gradient; with a basic-slice key, into that
        region only. A closure may hand one g to several parents, so an
        array this call did not allocate is copied before it is written."""
        if not node.requires_grad:
            return
        g = np.asarray(g, dtype=node.data.dtype)
        i = id(node)
        prev = grads.get(i)
        if i in owned:
            prev[key] += g
        elif prev is None and key is ...:
            grads[i] = g
        else:
            if key is ...:
                # out=: a 0-d sum would come back as a scalar, not a buffer
                buf = np.add(prev, g, out=np.empty(prev.shape, prev.dtype))
            else:
                buf = np.zeros_like(node.data) if prev is None else prev.copy()
                buf[key] += g
            grads[i] = buf
            owned.add(i)

    for node in reversed(_toposort(loss)):
        g = grads.get(id(node))
        if node._backward is not None and g is not None:
            node._backward(g, acc)
            if id(node) not in keep:
                del grads[id(node)]
    return {name: grads[id(p)] for name, p in params.items() if id(p) in grads}


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
    +/- eps; a parameter with no analytic entry has gradient 0. A
    coordinate fails when |analytic - numeric| / max(|analytic|, eps) > tol.
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
        a = float(analytic[name][idx]) if name in analytic else 0.0
        rel = abs(a - numeric) / max(abs(a), eps)
        entry = (name, idx, a, numeric, rel)
        report.checked.append(entry)
        if rel > tol:
            report.failures.append(entry)
    return report
