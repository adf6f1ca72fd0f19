"""The selective state-space recommendation model.

One block = input-dependent transform (linear -> causal conv -> SiLU for the
scan inputs, softplus for the step sizes), zero-order-hold discretization
with a learnable negative scalar decay, the masked sequential scan, and a
residual/LayerNorm-wrapped feed-forward stage. The prediction head ties the
item embedding table. A forward pass returns a trace carrying every
intermediate the alignment losses need, plus the one-step extension: the
alignment block's own transform run one position further, on the final
output embedding after the sequence's trailing convolution window. The
last block's output is read only at each row's last position, the one output
the head, the losses and the extension read: its scan computes just the
final state in linear time, and its LayerNorm and FFN run on that one row.
Its readout channels C are read only at that position too, so its transform
convolves and activates C there only, one row computed by itself, and the
X|B channels at every position; the extension convolves one row of X|B
channels. Earlier blocks convolve every channel and scan in the quadratic
form, because the next block reads every position. Both forms take their
decay weights from autograd.last_decay: the last block its final-state
weights, an earlier block one row of weights per step.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import operator
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checks import type_problems


class ModelError(ValueError):
    pass


DTYPES = ("float64", "float32")


@dataclass
class Architecture:
    """The model section of a run config: every ModelConfig field that does
    not depend on the data."""
    d: int = 64
    d_s: int = 32
    conv_width: int = 4
    d_ff: int = 0          # 0 -> 4 * d, resolved by ModelConfig
    dropout: float = 0.2
    n_blocks: int = 1
    detach_extension: bool = True

    def __post_init__(self):
        p = type_problems(type(self), vars(self)) or self._range_problems()
        if p:
            raise ModelError("; ".join(p))

    def _range_problems(self):
        p = [f"{n} must be >= 1, got {getattr(self, n)}"
             for n in ("d", "d_s", "conv_width", "n_blocks") if getattr(self, n) < 1]
        if self.d_ff < 0:
            p.append(f"d_ff must be >= 0 (0 means 4 * d), got {self.d_ff}")
        if not 0.0 <= self.dropout < 1.0:
            p.append(f"dropout must be in [0, 1), got {self.dropout}")
        return p


@dataclass(kw_only=True)
class ModelConfig(Architecture):
    vocab_size: int
    dtype: str = "float64"

    def _range_problems(self):
        p = super()._range_problems()
        if self.vocab_size < 2:
            p.append(f"vocab_size must be >= 2 (padding + one item), got {self.vocab_size}")
        if self.dtype not in DTYPES:
            p.append(f"dtype must be {'|'.join(DTYPES)}, got {self.dtype!r}")
        return p

    def __post_init__(self):
        super().__post_init__()
        if self.d_ff == 0:
            self.d_ff = 4 * self.d

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def parameter_layout(config):
    """(name, shape, init) of every learnable tensor, in creation order. init
    is "zeros", "ones", or the std of a zero-mean normal draw."""
    d, ds, w, dff = config.d, config.d_s, config.conv_width, config.d_ff
    inner = d + 2 * ds
    layout = [("E", (config.vocab_size, d), 0.1)]
    for b in range(config.n_blocks):
        pre = f"block{b}."
        layout += [
            (pre + "W1", (d, inner + 1), 1.0 / np.sqrt(d)),
            (pre + "b1", (inner + 1,), "zeros"),
            (pre + "conv_kernel", (w, inner), 1.0 / np.sqrt(w)),
            (pre + "conv_bias", (inner,), "zeros"),
            # decay A = -exp(a_raw) stays negative by construction
            (pre + "a_raw", (), "zeros"),
            (pre + "W2", (d, ds), 1.0 / np.sqrt(d)),
            (pre + "b2", (ds,), "zeros"),
            (pre + "Wf1", (d, dff), 1.0 / np.sqrt(d)),
            (pre + "bf1", (dff,), "zeros"),
            (pre + "Wf2", (dff, d), 1.0 / np.sqrt(dff)),
            (pre + "bf2", (d,), "zeros"),
            (pre + "ln_block_g", (d,), "ones"),
            (pre + "ln_block_b", (d,), "zeros"),
            (pre + "ln_ffn_g", (d,), "ones"),
            (pre + "ln_ffn_b", (d,), "zeros"),
        ]
    return layout


class ModelParams:
    """Every learnable tensor, addressable by name for grads and snapshots.

    Built from `arrays` (name -> array, in any order) when given; otherwise
    each tensor of `parameter_layout` is drawn from `rng` in layout order.
    The tensors hold these arrays themselves, not copies: the caller hands
    over arrays nothing else writes."""

    def __init__(self, config, rng=None, arrays=None):
        self.config = config
        layout = parameter_layout(config)
        if arrays is None:
            rng = rng or np.random.default_rng(0)
            dt = config.np_dtype
            arrays = {name: (np.zeros(shape, dt) if init == "zeros" else
                             np.ones(shape, dt) if init == "ones" else
                             rng.normal(0.0, init, shape).astype(dt))
                      for name, shape, init in layout}
        self.tensors = {name: ag.Tensor(arrays[name], requires_grad=True)
                        for name, _, _ in layout}

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
        these arrays; making one copies nothing. Updates that rebind `.data`
        on the overlay leave this object untouched; an in-place write through
        it raises. Test-time adaptation swaps the overlay's `E` for a
        writable copy of the rows one request touches."""
        over = copy.copy(self)
        over.tensors = {}
        for name, t in self.tensors.items():
            # np.asarray: after Adam a 0-d parameter holds a numpy scalar
            view = np.asarray(t.data).view()
            view.flags.writeable = False
            over.tensors[name] = ag.Tensor(view, requires_grad=True)
        return over

    def decay(self, block=0):
        """The negative scalar A for a block."""
        return ag.neg(ag.exp(self.tensors[f"block{block}.a_raw"]))


@dataclass
class StepExtension:
    """The transform of the re-fed output embedding, one step past the end."""
    x_next: Tensor        # (m, d)
    B_next: Tensor        # (m, d_s)
    delta_next: Tensor    # (m,)


@dataclass
class ForwardTrace:
    """Intermediates retained for the losses and for verification."""
    X: Tensor             # (m, L, d) scan input; padded steps get zero scan weight
    C: Tensor             # (m, 1, d_s) readout at the last position, the only one read
    delta: Tensor         # (m, L)
    abar: Tensor          # (m, L)
    bbar: Tensor          # (m, L, d_s)
    h_final: Tensor       # (m, d_s, d)
    o_last: Tensor        # (m, d)
    x_last: Tensor        # (m, d) last valid scan input
    logits: Tensor        # (m, |V|)
    A: Tensor             # scalar decay of the alignment block
    extension: StepExtension


def embed(params, items, rng=None, training=False):
    """Look up item embeddings and apply train-mode dropout."""
    e = ag.embedding(params["E"], np.asarray(items))
    return ag.dropout(e, params.config.dropout, rng=rng, training=training)


def transform(params, seq, mask=None, block=0, history=None):
    """Map a (m, L, d) sequence to scan inputs (X, B, C, delta) and the
    extension's convolution context.

    The linear projection output is zeroed at masked positions before the
    causal convolution so padding behaves exactly like the conv's own zero
    history; `ag.linear` does both in one output buffer. Each input below is
    one slice of that projection.

    The channels are X|B|C: d, d_s and d_s wide. An earlier block
    (block < n_blocks - 1) convolves and activates all of them: its scan
    reads C at every position. The last block reads C only at the last
    position, so it convolves and activates the X|B channels at every
    position and gets C, (m, 1, d_s), as the convolution's last row alone
    (`ag.causal_conv1d_last` over the projection's last w rows of C
    channels): the bias plus the w taps in the whole convolution's order,
    so the same bits as its last row. It also returns the extension's
    context, the projection's last w-1 rows of the d + d_s X|B channels
    (fewer when L < w-1); an earlier block returns None there.

    With `history`, such a (m, <= w-1, d+d_s) context, seq is the one (m, d)
    step after it, and X, B and delta are that step's rows. Nothing reads the
    step's C, so only the X|B channels of the step are convolved, as the one
    row over the window of context and step, and C and the context are None.
    """
    cfg = params.config
    pre = f"block{block}."
    d, xb, w = cfg.d, cfg.d + cfg.d_s, cfg.conv_width
    inner = xb + cfg.d_s
    proj = ag.linear(seq, params[pre + "W1"], params[pre + "b1"], mask=mask)
    kernel, bias = params[pre + "conv_kernel"], params[pre + "conv_bias"]
    delta = ag.softplus(proj[..., inner])
    if history is not None:
        window = ag.concat([history, proj[:, None, :xb]], axis=1)
        act = ag.silu(ag.causal_conv1d_last(window, kernel[:, :xb], bias[:xb]))
        return act[:, 0, :d], act[:, 0, d:], None, delta, None
    if block < cfg.n_blocks - 1:
        act = ag.silu(ag.causal_conv1d(proj[..., :inner], kernel, bias))
        return act[..., :d], act[..., d:xb], act[..., xb:], delta, None
    L = proj.shape[1]
    act = ag.silu(ag.causal_conv1d(proj[..., :xb], kernel[:, :xb], bias[:xb]))
    C = ag.silu(ag.causal_conv1d_last(proj[:, max(0, L - w):, xb:inner],
                                      kernel[:, xb:], bias[xb:]))
    # not [:, -(w-1):], which at conv_width 1 is the whole sequence
    context = proj[:, max(0, L - (w - 1)):, :xb]
    return act[..., :d], act[..., d:], C, delta, context


def discretize(delta, A, B):
    """Zero-order hold: abar = exp(delta * A), bbar = delta * B rowwise."""
    if float(A.data) >= 0.0:
        raise ModelError("stability violated: decay A must be negative")
    abar = ag.exp(ag.mul(delta, A))
    bbar = ag.mul(B, ag.reshape(delta, delta.shape + (1,)))
    return abar, bbar


def scan(abar, bbar, X, C, mask):
    """Run the recurrence in its quadratic (state-space-dual) form; returns
    per-step outputs Y and the final state. Masked steps carry the state
    unchanged. The decay kernel is last_decay's weights for every prefix;
    time and memory are O(m L^2), and no per-step state stack is built.
    forward_full runs it for every block but the last, whose outputs the
    next block reads at every position."""
    return ag.sequential_scan(abar, bbar, X, C, mask)


def ffn_and_norm(params, Y, rng=None, training=False, block=0):
    """LayerNorm(Y + Dropout(FFN(Y))) with a SiLU inner activation.

    Position-wise, so Y may be (m, L, d) or the (m, d) rows one position per
    sequence; dropout draws its mask over Y's shape.
    """
    cfg = params.config
    pre = f"block{block}."
    h = ag.silu(ag.linear(Y, params[pre + "Wf1"], params[pre + "bf1"]))
    h = ag.linear(h, params[pre + "Wf2"], params[pre + "bf2"])
    h = ag.dropout(h, cfg.dropout, rng=rng, training=training)
    return ag.layer_norm(ag.add(Y, h), params[pre + "ln_ffn_g"], params[pre + "ln_ffn_b"])


def predict(params, o_last):
    """Raw logits over the catalog: o_last against the embedding table.

    Softmax is deferred to the loss; ranking on raw logits is equivalent
    because softmax is monotone.
    """
    return ag.matmul(o_last, ag.transpose(params["E"]))


def extend_step(params, o_last, history, block=0):
    """The alignment block's transform one position past the end: the final
    output embedding o_last (m, d) re-fed as the step after `history`, the
    (m, <= w-1, d+d_s) trailing pre-activation X|B channels; a shorter
    history is preceded by the convolution's zero history. The step's X|B
    channels are convolved at its own row only, over that window; its C
    channels are not convolved, since nothing reads them. The gradient into
    o_last stops when the config's detach_extension is set.
    """
    o_in = ag.stop_gradient(o_last) if params.config.detach_extension else o_last
    x_next, B_next, _, delta_next, _ = transform(params, o_in, block=block,
                                                 history=history)
    return StepExtension(x_next=x_next, B_next=B_next, delta_next=delta_next)


def forward_full(params, batch, rng=None, training=False, need_logits=True,
                 need_extension=True):
    """Full pass over a left-padded batch; returns the trace (with extension
    attached).

    Only each row's last output is read downstream (head, losses, extension),
    and everything after the last block's scan is position-wise. So the last
    block computes only the final state, h_final = (w o bbar)^T X, one
    batched matmul, with w = autograd.last_decay (O(m L), no (m, L, L)
    kernel), and reads its output at the last position, L-1 in every row, as
    y_last = C h_final, C being the (m, 1, d_s) readout that the transform
    convolves at that position only, as one row. Its LayerNorm and FFN then
    run on (m, d) and give o_last, so its dropout draws an (m, d) mask. Earlier
    blocks convolve C at every position and run the quadratic-form scan and
    the tail on full sequences because the next block's transform reads
    every position.

    The extension re-feeds o_last through the last block's transform after
    the trailing w-1 rows of its projection's X|B convolution channels,
    which the transform returns (empty at conv_width 1), and convolves the
    step's one row. Padded positions of those channels are zero, and a batch
    shorter than w-1 gets the convolution's own zero history, so a short
    row's window is zeros before its start.

    need_logits=False skips the prediction head (the adaptation steps only
    need the alignment intermediates); need_extension=False skips the
    re-fed transform (prediction-only passes never read it).
    """
    cfg = params.config
    mask = batch.mask
    align_block = cfg.n_blocks - 1

    seq = embed(params, batch.items, rng=rng, training=training)
    for b in range(cfg.n_blocks):   # n_blocks >= 1: the last block's values stay bound
        X, B, C, delta, context = transform(params, seq, mask=mask, block=b)
        A = params.decay(b)
        abar, bbar = discretize(delta, A, B)
        if b < align_block:
            Y, _ = scan(abar, bbar, X, C, mask)
            resid = ag.add(seq, Y)
        else:
            # masked steps carry the state, so the last output reads h_final
            m, L = mask.shape
            w = ag.reshape(ag.last_decay(abar, mask), (m, L, 1))
            h_final = ag.matmul(ag.transpose(ag.mul(bbar, w)), X)
            y_last = ag.matmul(C, h_final)                        # (m, 1, d)
            resid = ag.add(seq[:, -1], ag.reshape(y_last, (m, -1)))
        wrapped = ag.layer_norm(resid, params[f"block{b}.ln_block_g"],
                                params[f"block{b}.ln_block_b"])
        seq = ffn_and_norm(params, wrapped, rng=rng, training=training, block=b)

    o_last = seq
    x_last = X[:, -1]
    logits = predict(params, o_last) if need_logits else None

    ext = None
    if need_extension:
        ext = extend_step(params, o_last, context, block=align_block)

    return ForwardTrace(X=X, C=C, delta=delta, abar=abar, bbar=bbar,
                        h_final=h_final, o_last=o_last,
                        x_last=x_last, logits=logits, A=A, extension=ext)


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"T2AR"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, extra=None):
    """Write magic, version, a JSON manifest and raw little-endian arrays.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one step: a write that fails partway leaves any
    checkpoint already at `path` as it was, and no temporary file behind.
    """
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
        "config": asdict(params.config),
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(bytes(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, extra dict)."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise ModelError(f"{path}: cannot read checkpoint ({e.strerror})") from None
    with fh:
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
        # one writable buffer: the tensors are views into it, not copies
        payload = bytearray(size - fh.tell())
        del payload[fh.readinto(payload):]
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except ValueError as e:   # UnicodeDecodeError and JSONDecodeError
        raise ModelError(f"{path}: unreadable checkpoint manifest ({e})") from None

    try:
        saved = dict(manifest["config"])
        # earlier checkpoints name the extension's convolution context;
        # "batch", the trailing window, is the one context this model has
        history = saved.pop("extension_history", "batch")
        cfg = ModelConfig(**saved)
        entries = [(ent["name"], np.dtype(ent["dtype"]),
                    tuple(operator.index(n) for n in ent["shape"]),
                    operator.index(ent["offset"])) for ent in manifest["tensors"]]
        extra = manifest.get("extra", {})
        if not isinstance(extra, dict):
            raise TypeError(f"extra must be an object, got {type(extra).__name__}")
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(f"{path}: malformed checkpoint manifest "
                         f"({type(e).__name__}: {e})") from None
    if history != "batch":
        raise ModelError(f"{path}: checkpoint extension_history={history!r} is not "
                         f"supported; the extension always reads the batch's context")

    shapes = {name: shape for name, shape, _ in parameter_layout(cfg)}
    arrays = {}
    spans = []
    for name, dtype, shape, offset in entries:
        if not isinstance(name, str) or name not in shapes:
            raise ModelError(f"{path}: unknown tensor {name!r} (architecture mismatch)")
        if name in arrays:
            raise ModelError(f"{path}: tensor {name!r} is stored twice")
        if dtype != cfg.np_dtype:
            raise ModelError(f"{path}: tensor {name!r} has dtype {dtype}, "
                             f"the config's dtype is {cfg.dtype}")
        if shape != shapes[name]:
            raise ModelError(f"{path}: shape mismatch for {name!r} "
                             f"{shape} vs {shapes[name]}")
        count = int(np.prod(shape)) if shape else 1
        if offset < 0 or offset + count * dtype.itemsize > len(payload):
            raise ModelError(f"{path}: tensor {name!r} runs past the end of the "
                             f"payload (truncated checkpoint)")
        arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), count=count,
                            offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ModelError(f"{path}: tensor {name!r} holds a non-finite value")
        # a view on little-endian hosts, a copy elsewhere; writable either way
        arrays[name] = arr.astype(dtype.newbyteorder("="), copy=False)
        spans.append((offset, offset + count * dtype.itemsize, name))
    missing = set(shapes) - set(arrays)
    if missing:
        raise ModelError(f"{path}: missing tensors {sorted(missing)} (architecture mismatch)")
    # views into one buffer must not overlap, or an update to one tensor
    # would write into another
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ModelError(f"{path}: tensors {first!r} and {second!r} overlap "
                             f"in the payload")
    params = ModelParams(cfg, arrays=arrays)
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
