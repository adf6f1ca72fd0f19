"""The selective state-space recommendation model.

One block = input-dependent transform (linear -> causal conv -> SiLU for the
scan inputs, softplus for the step sizes), zero-order-hold discretization
with a learnable negative scalar decay, the masked sequential scan, and a
residual/LayerNorm-wrapped feed-forward stage. The prediction head ties the
item embedding table. A forward pass returns a trace carrying every
intermediate the alignment losses need, plus the one-step extension obtained
by re-feeding the final output embedding through the same transform.
"""

from __future__ import annotations

import copy
import hashlib
import json
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    d: int = 64
    d_s: int = 32
    conv_width: int = 4
    d_ff: int = 0          # 0 -> 4 * d
    dropout: float = 0.2
    n_blocks: int = 1
    detach_extension: bool = True
    extension_history: str = "batch"   # "batch" | "zeros" conv context for the re-fed step
    dtype: str = "float64"

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 4 * self.d
        if self.vocab_size < 2:
            raise ModelError("vocab_size must be at least 2 (padding + one item)")
        if self.conv_width < 1:
            raise ModelError("conv_width must be >= 1")
        if self.extension_history not in ("batch", "zeros"):
            raise ModelError(f"unknown extension_history {self.extension_history!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self):
        return dict(self.__dict__)


class ModelParams:
    """Every learnable tensor, addressable by name for grads and snapshots."""

    def __init__(self, config, rng=None):
        self.config = config
        rng = rng or np.random.default_rng(0)
        d, ds, w, dff = config.d, config.d_s, config.conv_width, config.d_ff
        dt = config.np_dtype
        inner = d + 2 * ds

        def mat(nin, nout, scale=None):
            scale = scale if scale is not None else 1.0 / np.sqrt(nin)
            return rng.normal(0.0, scale, (nin, nout)).astype(dt)

        self.tensors = {}

        def p(name, arr):
            t = ag.parameter(np.asarray(arr, dtype=dt), name=name)
            self.tensors[name] = t
            return t

        p("E", rng.normal(0.0, 0.1, (config.vocab_size, d)).astype(dt))
        for b in range(config.n_blocks):
            pre = f"block{b}."
            p(pre + "W1", mat(d, inner + 1))
            p(pre + "b1", np.zeros(inner + 1, dtype=dt))
            p(pre + "conv_kernel", rng.normal(0.0, 1.0 / np.sqrt(w), (w, inner)).astype(dt))
            p(pre + "conv_bias", np.zeros(inner, dtype=dt))
            # decay A = -exp(a_raw) stays negative by construction
            p(pre + "a_raw", np.zeros((), dtype=dt))
            p(pre + "W2", mat(d, ds))
            p(pre + "b2", np.zeros(ds, dtype=dt))
            p(pre + "Wf1", mat(d, dff))
            p(pre + "bf1", np.zeros(dff, dtype=dt))
            p(pre + "Wf2", mat(dff, d))
            p(pre + "bf2", np.zeros(d, dtype=dt))
            p(pre + "ln_block_g", np.ones(d, dtype=dt))
            p(pre + "ln_block_b", np.zeros(d, dtype=dt))
            p(pre + "ln_ffn_g", np.ones(d, dtype=dt))
            p(pre + "ln_ffn_b", np.zeros(d, dtype=dt))

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors)

    def as_dict(self):
        return self.tensors

    def n_parameters(self):
        return sum(t.data.size for t in self.tensors.values())

    def overlay(self):
        """Same config, fresh differentiable tensors over read-only views of
        these arrays (no copy). Updates that rebind `.data` on the overlay
        leave this object untouched; an in-place write through it raises."""
        over = copy.copy(self)
        over.tensors = {}
        for name, t in self.tensors.items():
            # np.asarray: after Adam a 0-d parameter holds a numpy scalar
            view = np.asarray(t.data).view()
            view.flags.writeable = False
            over.tensors[name] = ag.Tensor(view, requires_grad=True, name=name)
        return over

    def decay(self, block=0):
        """The negative scalar A for a block."""
        return ag.neg(ag.exp(self.tensors[f"block{block}.a_raw"]))


@dataclass
class StepExtension:
    """The transform of the re-fed output embedding, one step past the end."""
    x_next: Tensor        # (m, d)
    B_next: Tensor        # (m, d_s)
    C_next: Tensor        # (m, d_s)
    delta_next: Tensor    # (m,)


@dataclass
class ForwardTrace:
    """Intermediates retained for the losses and for verification."""
    X: Tensor             # (m, L, d) scan input (masked)
    B: Tensor             # (m, L, d_s)
    C: Tensor             # (m, L, d_s)
    delta: Tensor         # (m, L)
    abar: Tensor          # (m, L)
    bbar: Tensor          # (m, L, d_s)
    h_final: Tensor       # (m, d_s, d)
    Y: Tensor             # (m, L, d)
    O: Tensor             # (m, L, d)
    o_last: Tensor        # (m, d)
    x_last: Tensor        # (m, d) last valid scan input
    logits: Tensor        # (m, |V|)
    A: Tensor             # scalar decay of the alignment block
    extension: StepExtension


def embed(params, items, rng=None, training=False, block=None):
    """Look up item embeddings and apply train-mode dropout."""
    e = ag.embedding(params["E"], np.asarray(items))
    return ag.dropout(e, params.config.dropout, rng=rng, training=training)


def transform(params, seq, mask=None, block=0):
    """Map a (m, L, d) sequence to scan inputs (X, B, C, delta).

    The linear projection output is zeroed at masked positions before the
    causal convolution so padding behaves exactly like the conv's own zero
    history.
    """
    cfg = params.config
    pre = f"block{block}."
    proj = ag.add(ag.matmul(seq, params[pre + "W1"]), params[pre + "b1"])
    if mask is not None:
        proj = ag.mul(proj, ag.constant(
            np.asarray(mask, dtype=cfg.np_dtype)[..., None]))
    inner = cfg.d + 2 * cfg.d_s
    chan = proj[..., :inner]
    dpre = proj[..., inner]
    conv = ag.causal_conv1d(chan, params[pre + "conv_kernel"], params[pre + "conv_bias"])
    act = ag.silu(conv)
    X = act[..., :cfg.d]
    B = act[..., cfg.d:cfg.d + cfg.d_s]
    C = act[..., cfg.d + cfg.d_s:]
    delta = ag.softplus(dpre)
    return X, B, C, delta, chan


def discretize(delta, A, B):
    """Zero-order hold: abar = exp(delta * A), bbar = delta * B rowwise."""
    if float(A.data) >= 0.0:
        raise ModelError("stability violated: decay A must be negative")
    abar = ag.exp(ag.mul(delta, A))
    bbar = ag.mul(B, ag.reshape(delta, delta.shape + (1,)))
    return abar, bbar


def scan(abar, bbar, X, C, mask):
    """Run the recurrence in its quadratic (state-space-dual) form; returns
    per-step outputs Y, the non-differentiable (m, L, L) decay kernel, and
    the final state. Masked steps carry the state unchanged. Memory is
    O(m L^2); no per-step state stack is built."""
    Y, h_final, W = ag.sequential_scan(abar, bbar, X, C, mask)
    return Y, W, h_final


def ffn_and_norm(params, Y, rng=None, training=False, block=0):
    """LayerNorm(Y + Dropout(FFN(Y))) with a SiLU inner activation."""
    cfg = params.config
    pre = f"block{block}."
    h = ag.silu(ag.add(ag.matmul(Y, params[pre + "Wf1"]), params[pre + "bf1"]))
    h = ag.add(ag.matmul(h, params[pre + "Wf2"]), params[pre + "bf2"])
    h = ag.dropout(h, cfg.dropout, rng=rng, training=training)
    return ag.layer_norm(ag.add(Y, h), params[pre + "ln_ffn_g"], params[pre + "ln_ffn_b"])


def predict(params, o_last):
    """Raw logits over the catalog: o_last against the embedding table.

    Softmax is deferred to the loss; ranking on raw logits is equivalent
    because softmax is monotone.
    """
    E = params["E"]
    Et = ag.Tensor(E.data.T, requires_grad=E.requires_grad, _parents=(E,),
                   _backward=lambda g, acc: acc(E, g.T))
    return ag.matmul(o_last, Et)


def extend_step(params, o_last, conv_history=None, detach=None, block=0):
    """Re-feed the final output embedding through the transform as a single
    extra timestep.

    conv_history: (m, w-1, d+2d_s) trailing pre-activation channels used as
    the convolution context; zeros when absent. Gradient flow into o_last is
    stopped when detach is true (the default from the model config).
    """
    cfg = params.config
    pre = f"block{block}."
    detach = cfg.detach_extension if detach is None else detach
    o_in = ag.stop_gradient(o_last) if detach else o_last
    proj = ag.add(ag.matmul(o_in, params[pre + "W1"]), params[pre + "b1"])
    inner = cfg.d + 2 * cfg.d_s
    chan = proj[..., :inner]      # (m, inner)
    dpre = proj[..., inner]       # (m,)
    m = chan.data.shape[0]
    w = cfg.conv_width

    if conv_history is None:
        hist = ag.constant(np.zeros((m, max(w - 1, 0), inner), dtype=cfg.np_dtype))
    else:
        hist = conv_history
    window = ag.concat([hist, ag.reshape(chan, (m, 1, inner))], axis=1)
    conv = ag.causal_conv1d(window, params[pre + "conv_kernel"], params[pre + "conv_bias"])
    act = ag.silu(conv[:, -1, :])
    x_next = act[..., :cfg.d]
    B_next = act[..., cfg.d:cfg.d + cfg.d_s]
    C_next = act[..., cfg.d + cfg.d_s:]
    delta_next = ag.softplus(dpre)
    return StepExtension(x_next=x_next, B_next=B_next, C_next=C_next,
                         delta_next=delta_next)


def forward_full(params, batch, rng=None, training=False, need_logits=True,
                 need_extension=True):
    """Full pass over a batch; returns the trace (with extension attached).

    need_logits=False skips the prediction head (the adaptation steps only
    need the alignment intermediates); need_extension=False skips the
    re-fed transform (prediction-only passes never read it).
    """
    cfg = params.config
    mask = batch.mask
    maskf = ag.constant(np.asarray(mask, dtype=cfg.np_dtype))

    seq = embed(params, batch.items, rng=rng, training=training)
    last = None
    for b in range(cfg.n_blocks):
        X, B, C, delta, chan = transform(params, seq, mask=mask, block=b)
        A = params.decay(b)
        abar, bbar = discretize(delta, A, B)
        Xz = ag.mul(X, ag.reshape(maskf, maskf.shape + (1,)))
        Y, _, h_final = scan(abar, bbar, Xz, C, mask)
        wrapped = ag.layer_norm(ag.add(seq, Y), params[f"block{b}.ln_block_g"],
                                params[f"block{b}.ln_block_b"])
        O = ffn_and_norm(params, wrapped, rng=rng, training=training, block=b)
        last = (X, B, C, delta, abar, bbar, h_final, Y, O, A, Xz, chan)
        seq = O

    X, B, C, delta, abar, bbar, h_final, Y, O, A, Xz, chan = last
    align_block = cfg.n_blocks - 1
    o_last = ag.gather_time(O, batch.last_index)
    x_last = ag.gather_time(Xz, batch.last_index)
    logits = predict(params, o_last) if need_logits else None

    if need_extension:
        w = cfg.conv_width
        if cfg.extension_history == "batch" and w > 1:
            hist = _trailing_window(chan, batch.last_index, w - 1, cfg.np_dtype)
        else:
            hist = None
        ext = extend_step(params, o_last, conv_history=hist, block=align_block)
    else:
        ext = None

    return ForwardTrace(X=X, B=B, C=C, delta=delta, abar=abar, bbar=bbar,
                        h_final=h_final, Y=Y, O=O, o_last=o_last,
                        x_last=x_last, logits=logits, A=A, extension=ext)


def _trailing_window(chan, last_index, width, dtype):
    """Gather the `width` pre-activation steps preceding each row's extension
    position; steps falling before the sequence start contribute zeros."""
    cols = []
    last = np.asarray(last_index)
    for k in range(width):
        idx = last - (width - 1 - k)
        valid = idx >= 0
        col = ag.gather_time(chan, np.where(valid, idx, 0))
        col = ag.mul(col, ag.constant(valid.astype(dtype)[:, None]))
        cols.append(ag.reshape(col, (col.data.shape[0], 1, col.data.shape[1])))
    return ag.concat(cols, axis=1)


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"T2AR"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, extra=None):
    """Write magic, version, a JSON manifest and raw little-endian arrays."""
    entries = []
    payload = bytearray()
    for name in params.names():
        orig = params[name].data
        arr = np.ascontiguousarray(orig)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append({"name": name, "dtype": str(orig.dtype),
                        "shape": list(orig.shape), "offset": len(payload)})
        payload.extend(le.tobytes())
    manifest = {
        "tensors": entries,
        "config": params.config.to_dict(),
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, extra dict)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ModelError(f"{path}: bad magic bytes")
        header = fh.read(12)
        if len(header) < 12:
            raise ModelError(f"{path}: truncated checkpoint header")
        version, mlen = struct.unpack("<IQ", header)
        if version != CHECKPOINT_VERSION:
            raise ModelError(f"{path}: unsupported checkpoint version {version}")
        if 16 + mlen > size:
            raise ModelError(f"{path}: truncated checkpoint manifest")
        blob = fh.read(mlen)
        payload = fh.read()
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except ValueError as e:   # UnicodeDecodeError and JSONDecodeError
        raise ModelError(f"{path}: unreadable checkpoint manifest ({e})") from None

    try:
        cfg = ModelConfig(**manifest["config"])
        entries = [(ent["name"], np.dtype(ent["dtype"]),
                    tuple(operator.index(n) for n in ent["shape"]),
                    operator.index(ent["offset"])) for ent in manifest["tensors"]]
        extra = manifest.get("extra", {})
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(f"{path}: malformed checkpoint manifest "
                         f"({type(e).__name__}: {e})") from None

    params = ModelParams(cfg, rng=np.random.default_rng(0))
    seen = set()
    for name, dtype, shape, offset in entries:
        if name not in params.tensors:
            raise ModelError(f"{path}: unknown tensor {name!r} (architecture mismatch)")
        if shape != params[name].data.shape:
            raise ModelError(f"{path}: shape mismatch for {name!r} "
                             f"{shape} vs {params[name].data.shape}")
        count = int(np.prod(shape)) if shape else 1
        if offset < 0 or offset + count * dtype.itemsize > len(payload):
            raise ModelError(f"{path}: tensor {name!r} runs past the end of the "
                             f"payload (truncated checkpoint)")
        arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), count=count,
                            offset=offset).reshape(shape)
        params[name].data = arr.astype(dtype.newbyteorder("=")).copy()
        seen.add(name)
    missing = set(params.names()) - seen
    if missing:
        raise ModelError(f"{path}: missing tensors {sorted(missing)} (architecture mismatch)")
    return params, extra


def checkpoint_digest(params):
    """Content hash over names, shapes, dtypes and raw bytes."""
    h = hashlib.sha256()
    for name in sorted(params.names()):
        arr = np.ascontiguousarray(params[name].data)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()
