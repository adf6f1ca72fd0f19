"""Training and adaptation objectives.

Three losses: next-item cross-entropy, a blocked pairwise hinge over a band
of pairs aligning the learned step sizes with observed time gaps, and a
state-reconstruction loss (the final scan state against its forward-then-
backward estimate) with an independent numeric ceiling from the bound. The
state loss computes its reconstruction gap as the expansion state_loss_bound
starts from, a scaled copy of the final state less a rank-2 product, and
never forms the stepped or the reconstructed state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .checks import Checked, NumericError, is_number, non_negative, positive


class LossError(NumericError):
    pass


@dataclass
class LossWeights(Checked):
    mu1_train: float = 0.1
    mu2_train: float = 1.0
    # seconds; scale for time-gap differences. A run config may hold "median",
    # which pipeline.resolve_weights turns into the median positive gap.
    lam: object = 1.0
    block_size: int = 10

    error = LossError

    def _range_problems(self):
        p = [f"{n} must be a non-negative finite number, got {getattr(self, n)}"
             for n in ("mu1_train", "mu2_train") if not non_negative(getattr(self, n))]
        if self.block_size < 2:
            p.append(f"block_size must be >= 2, got {self.block_size}")
        return p

    def _untyped_problems(self):
        if self.lam == "median" or (is_number(self.lam) and positive(self.lam)):
            return []
        return [f'lam must be "median" or a positive finite number, got {self.lam!r}']


@dataclass
class StateAlignIntermediates:
    """Values produced on the way to the state loss, kept for the bound."""
    P: np.ndarray            # (m,) log(-1/A) / delta_next
    P_bar: float             # -1/A, exact
    h_final: np.ndarray      # (m, d_s, d) final scan state
    gap: np.ndarray          # (m, d_s, d) h_final - h_back, the reconstruction gap
    eps_n: np.ndarray        # (m, d_s) Q - B_next / A, the projection residual
    per_row: np.ndarray      # (m,) per-sequence loss values
    clamp_warnings: int      # rows where delta_next hit the division guard

    @property
    def h_back(self):
        """(m, d_s, d) reconstructed final state, formed when read."""
        return self.h_final - self.gap


# mean cross-entropy of the true next item; perfbench/tracing.py wraps losses.rec_loss
rec_loss = ag.softmax_cross_entropy


@dataclass(frozen=True)
class TimePairs:
    """The pairs the time loss compares in one batch, fixed by its gaps, its
    padding, lam and block_size: flat indices into the (m, L+1) step-size
    matrix and each pair's time difference over lam, in (row, i, j) order."""
    shape: tuple             # (m, L+1)
    flat_i: np.ndarray       # (n_pairs,) int64
    flat_j: np.ndarray       # (n_pairs,) int64
    t_diff: np.ndarray       # (n_pairs,) (T_i - T_j) / lam, in the step sizes' dtype

    @property
    def n_pairs(self):
        return self.flat_i.size


def time_pairs(T, elig, lam, block_size, dtype):
    """The band of pairs time_alignment_loss compares, built once per batch.

    T: (m, L+1) gap matrix. elig: boolean matrix marking the positions that
    carry a real gap (the first valid position and padding are excluded).
    Within each row the eligible positions are chunked, in order, into
    consecutive blocks of block_size; pairs never cross blocks. Each
    eligible entry is compared with the next min(block_size, L+1) - 1 only,
    not through an (m, L+1, L+1) mask, so time and memory are
    O(m (L+1) block_size). The time differences are formed in float64 and
    stored in `dtype`, the dtype of the step sizes they will multiply.
    """
    elig = np.asarray(elig, dtype=bool)
    T = np.asarray(T, dtype=np.float64)
    m, n_cols = elig.shape
    if T.shape != (m, n_cols):
        raise LossError(f"time_pairs: shapes T {T.shape}, elig {elig.shape} do not agree")

    # in row-major order the entries of one (row, block) key are consecutive,
    # so entry a pairs with those of the next `width` entries sharing its key
    entries = np.flatnonzero(elig)
    width = min(block_size, n_cols) - 1
    ordinal = np.cumsum(elig, axis=1).reshape(-1)[entries] - 1
    key = entries // n_cols * n_cols + ordinal // block_size
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([key, np.full(width + 1, -1)]), width + 1)[:-1, 1:]
    a, k = np.nonzero(ahead == key[:, None])
    flat_i = entries[a]
    flat_j = entries[a + k + 1]
    t_diff = (T.reshape(-1)[flat_i] - T.reshape(-1)[flat_j]) / lam
    return TimePairs((m, n_cols), flat_i, flat_j, t_diff.astype(dtype))


def _pair_hinge(delta_full, pairs):
    """Sum of hinge terms over the pairs over their number; with no pairs an
    exact zero with no gradient. Returns (loss, n_pairs)."""
    if delta_full.data.shape != pairs.shape:
        raise LossError(
            f"time_alignment_loss: step sizes {delta_full.data.shape} do not "
            f"match the pairs' shape {pairs.shape}")
    n_pairs = pairs.n_pairs
    if n_pairs == 0:
        return ag.constant(np.zeros((), dtype=delta_full.data.dtype)), 0

    flat = ag.reshape(delta_full, (-1,))
    d_i = flat[pairs.flat_i]
    d_j = flat[pairs.flat_j]
    margin = ag.sub(1.0, ag.mul(ag.sub(d_i, d_j), ag.constant(
        pairs.t_diff.astype(delta_full.data.dtype, copy=False))))
    loss = ag.div(ag.reduce_sum(ag.relu(margin)), float(n_pairs))
    return loss, n_pairs


def time_alignment_loss(delta_full, T, elig, lam, block_size):
    """Blocked pairwise hinge between predicted step sizes and time gaps.

    delta_full: (m, L+1) tensor, the per-position step sizes with the
    extension step in the final column; T, elig, lam and block_size choose
    the pairs as time_pairs does. The result is the sum of hinge terms over
    the total number of valid pairs; with no valid pairs the loss is an
    exact zero with no gradient. Returns (loss, n_pairs).
    """
    return _pair_hinge(delta_full, time_pairs(T, elig, lam, block_size,
                                              delta_full.data.dtype))


def backward_projection(params, x_last):
    """Q = W2 x_n + b2 (purely linear, no activation), with the alignment
    block's W2 and b2."""
    pre = f"block{params.config.n_blocks - 1}."
    return ag.linear(x_last, params[pre + "W2"], params[pre + "b2"])


DELTA_GUARD = 1e-8


def state_alignment_loss(params, trace):
    """Reconstruct the final state through one forward step and one backward
    step, and penalize the Frobenius distance, diluted by delta_next**2 (the
    power state_loss_bound holds for).

    The forward step is h_next = abar_n h_n + delta_n B_next (x) x_next and
    the backward step h_back = p_bar h_next + delta_n Q (x) x_n, with the
    exact backward decay p_bar = exp(delta * log(-1/A) / delta) = -1/A.
    Neither state is formed: the gap is computed as the expansion
    state_loss_bound starts from (p_bar abar_n = -A^-1 e^{dA}),

        h_n - h_back = (1 - p_bar abar_n) h_n - U V,
        U = delta_n [p_bar B_next | Q]  (m, d_s, 2),  V = [x_next; x_n]  (m, 2, d),

    a scaled copy of h_n less a rank-2 product, so the graph holds two
    (m, d_s, d) arrays. The intermediates' h_back is h_n - gap, formed only
    when read. Returns (scalar loss tensor, StateAlignIntermediates).
    """
    ext = trace.extension
    A = trace.A
    a_val = float(A.data)
    if a_val >= 0:
        raise LossError("state_alignment_loss: decay A must be negative")
    m = ext.delta_next.shape[0]

    clamp_warnings = int(np.sum(ext.delta_next.data < DELTA_GUARD))
    delta_n = ag.clip_min(ext.delta_next, DELTA_GUARD)           # (m,)

    Q = backward_projection(params, trace.x_last)                # (m, d_s)
    p_bar = ag.neg(ag.div(1.0, A))                               # scalar, -1/A exactly
    coef = ag.sub(1.0, ag.mul(p_bar, ag.exp(ag.mul(delta_n, A))))  # (m,)
    U = ag.mul(ag.concat([ag.reshape(ag.mul(ext.B_next, p_bar), (m, -1, 1)),
                          ag.reshape(Q, (m, -1, 1))], axis=2),
               ag.reshape(delta_n, (m, 1, 1)))
    V = ag.concat([ag.reshape(ext.x_next, (m, 1, -1)),
                   ag.reshape(trace.x_last, (m, 1, -1))], axis=1)
    gap = ag.sub_matmul(ag.mul(ag.reshape(coef, (m, 1, 1)), trace.h_final), U, V)

    dist = ag.frobenius_norm(gap, axis=(1, 2))                   # (m,)
    per_row = ag.div(ag.div(dist, delta_n), delta_n)
    loss = ag.div(ag.reduce_sum(per_row), m)

    dval = delta_n.data
    inter = StateAlignIntermediates(
        P=np.log(-1.0 / a_val) / dval,
        P_bar=-1.0 / a_val,
        h_final=trace.h_final.data,
        gap=gap.data,
        eps_n=Q.data - ext.B_next.data / a_val,
        per_row=per_row.data,
        clamp_warnings=clamp_warnings,
    )
    return loss, inter


def state_loss_bound(trace, ext, inter):
    """Per-row numeric upper bound for the state alignment loss.

    Valid for A <= -1 (the backward decay -1/A must not exceed one); the
    final coefficient is |A|^-1, the norm of the negative backward decay.

    The residual term uses eps_n = Q - A^-1 B_next. Expanding the
    reconstruction gap exactly gives
        h_n - h_back = (1 + A^-1 e^{dA}) h_n
                       - d (Q - A^-1 B_next) (x) x_n
                       + d A^-1 B_next (x) (x_n - x_next),
    so the bound is that expansion under the triangle inequality, divided
    by d^2 as the loss is (the loss computes the gap from the same
    expansion, its last two terms grouped as one rank-2 product); the first
    coefficient satisfies
    |1 + A^-1 e^{dA}| <= 1 whenever A <= -1.
    """
    a_val = float(trace.A.data)
    if a_val > -1.0:
        raise LossError("state_loss_bound: bound precondition violated (need A <= -1)")
    d = np.maximum(ext.delta_next.data, DELTA_GUARD)
    h_norm = np.linalg.norm(trace.h_final.data.reshape(len(d), -1), axis=1)
    x_norm = np.linalg.norm(trace.x_last.data, axis=1)
    eps_norm = np.linalg.norm(inter.eps_n, axis=1)
    b_norm = np.linalg.norm(ext.B_next.data, axis=1)
    xdiff = np.linalg.norm(trace.x_last.data - ext.x_next.data, axis=1) / d
    return h_norm / d**2 + x_norm * eps_norm / d + b_norm * xdiff / abs(a_val)


def total_loss(rec, time, state, weights, phase):
    """Combine the objectives for a phase; the test phase drops rec.

    `weights` carries mu1_train/mu2_train for "train" (LossWeights) and
    mu1_test/mu2_test for "test" (AdaptConfig). A term with weight zero or
    value None is left out.
    """
    if phase == "train":
        out, mu1, mu2 = rec, weights.mu1_train, weights.mu2_train
    elif phase == "test":
        out, mu1, mu2 = None, weights.mu1_test, weights.mu2_test
    else:
        raise LossError(f"total_loss: unknown phase {phase!r}")
    for term, mu in ((time, mu1), (state, mu2)):
        if mu != 0.0 and term is not None:
            term = ag.mul(term, mu)
            out = term if out is None else ag.add(out, term)
    if out is None:
        raise LossError("total_loss: test phase needs at least one alignment loss")
    return out


def alignment_losses(params, trace, batch, weights, mu_time, mu_state, pairs=None):
    """The time and state alignment losses whose weight is non-zero.

    Returns (time loss or None, state loss or None, clamp warnings); a term
    with weight zero is not computed. `pairs`, the batch's time_pairs, is
    built here when not given.
    """
    t_loss = s_loss = None
    clamp_warnings = 0
    if mu_time:
        t_loss, _ = batch_time_loss(params, trace, batch, weights, pairs)
    if mu_state:
        s_loss, inter = state_alignment_loss(params, trace)
        clamp_warnings = inter.clamp_warnings
    return t_loss, s_loss, clamp_warnings


def batch_time_loss(params, trace, batch, weights, pairs=None):
    """The time loss of a trace over its batch: delta_full from the trace,
    the pairs from `pairs` or, when not given, from the batch's gaps.
    Returns (loss, n_pairs)."""
    m = batch.size
    delta_full = ag.concat(
        [trace.delta, ag.reshape(trace.extension.delta_next, (m, 1))], axis=1)
    if pairs is None:
        pairs = time_pairs(batch.T, batch.t_elig, weights.lam, weights.block_size,
                           delta_full.data.dtype)
    return _pair_hinge(delta_full, pairs)
