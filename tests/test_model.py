import tracemalloc

import numpy as np
import pytest

from alignrec import autograd as ag
from alignrec import ingest, losses, model
from conftest import random_batch, random_examples, rewrite_manifest, tiny_params


def silu_np(x):
    return x / (1.0 + np.exp(-x))


def layer_norm_np(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    v = x.var(-1, keepdims=True)
    return g * (x - mu) / np.sqrt(v + eps) + b


def zero_history(params, m):
    """An all-zero (m, w-1, d+d_s) convolution context for extend_step."""
    cfg = params.config
    return ag.constant(np.zeros((m, cfg.conv_width - 1, cfg.d + cfg.d_s)))


def whole_channel_transform(params, seq, mask=None, block=0):
    """(X, B, C, delta, chan) with all d + 2d_s channels convolved and
    activated at every position, as model.transform does for an earlier
    block: C is (m, L, d_s) and chan the (m, L, d + 2d_s) pre-activation
    channels. The reference for the last block, which convolves C at its
    last position only."""
    cfg = params.config
    pre = f"block{block}."
    xb = cfg.d + cfg.d_s
    inner = xb + cfg.d_s
    proj = ag.linear(seq, params[pre + "W1"], params[pre + "b1"], mask=mask)
    chan = proj[..., :inner]
    act = ag.silu(ag.causal_conv1d(chan, params[pre + "conv_kernel"],
                                   params[pre + "conv_bias"]))
    return (act[..., :cfg.d], act[..., cfg.d:xb], act[..., xb:],
            ag.softplus(proj[..., inner]), chan)


def straight_line_row(params, items):
    """Independent single-row recomputation of the whole forward pass."""
    cfg = params.config
    E = params["E"].data
    W1, b1 = params["block0.W1"].data, params["block0.b1"].data
    K, cb = params["block0.conv_kernel"].data, params["block0.conv_bias"].data
    A = -np.exp(params["block0.a_raw"].data)
    n = len(items)
    inner = cfg.d + 2 * cfg.d_s
    w = cfg.conv_width

    emb = E[np.asarray(items)]
    proj = emb @ W1 + b1
    chan, dpre = proj[:, :inner], proj[:, inner]
    conv = np.zeros_like(chan)
    for t in range(n):
        for k in range(w):
            src = t - (w - 1) + k
            if src >= 0:
                conv[t] += K[k] * chan[src]
    conv += cb
    act = silu_np(conv)
    X = act[:, :cfg.d]
    B = act[:, cfg.d:cfg.d + cfg.d_s]
    C = act[:, cfg.d + cfg.d_s:]
    delta = np.logaddexp(0.0, dpre)
    abar = np.exp(delta * A)
    h = np.zeros((cfg.d_s, cfg.d))
    Y = np.zeros((n, cfg.d))
    for t in range(n):
        h = abar[t] * h + np.outer(delta[t] * B[t], X[t])
        Y[t] = h.T @ C[t]
    wrapped = layer_norm_np(emb + Y, params["block0.ln_block_g"].data,
                            params["block0.ln_block_b"].data)
    ffn = silu_np(wrapped @ params["block0.Wf1"].data + params["block0.bf1"].data) \
        @ params["block0.Wf2"].data + params["block0.bf2"].data
    O = layer_norm_np(wrapped + ffn, params["block0.ln_ffn_g"].data,
                      params["block0.ln_ffn_b"].data)
    logits = O[-1] @ E.T
    return {"emb": emb, "chan": chan, "X": X, "B": B, "C": C, "delta": delta,
            "abar": abar, "h": h, "Y": Y, "O": O, "logits": logits, "A": float(A)}


class TestEmbed:
    def test_single_lookup_is_table_row(self):
        params = tiny_params()
        out = model.embed(params, np.array([[5]]))
        assert np.array_equal(out.data[0, 0], params["E"].data[5])

    def test_padding_rows_use_index_zero(self):
        params = tiny_params()
        out = model.embed(params, np.array([[0, 0]]))
        assert np.array_equal(out.data[0, 1], params["E"].data[0])

    def test_eval_mode_deterministic(self):
        params = tiny_params(dropout=0.5)
        a = model.embed(params, np.array([[3, 4]]), training=False)
        b = model.embed(params, np.array([[3, 4]]), training=False)
        assert np.array_equal(a.data, b.data)

    def test_out_of_range_rejected(self):
        params = tiny_params(vocab_size=5)
        with pytest.raises(ag.DomainError):
            model.embed(params, np.array([[7]]))


class TestTransform:
    def test_zero_weights_give_log_two_steps(self):
        params = tiny_params()
        for name in ("block0.W1", "block0.b1"):
            params[name].data = np.zeros_like(params[name].data)
        seq = ag.constant(np.random.default_rng(0).normal(size=(2, 3, 8)))
        _, _, _, delta, _ = model.transform(params, seq)
        assert np.allclose(delta.data, np.log(2.0), atol=1e-12)

    def test_single_step_sees_zero_history(self, rng):
        params = tiny_params(seed=3)
        row = rng.normal(size=(1, 1, 8))
        X, B, C, delta, chan = model.transform(params, ag.constant(row))
        K = params["block0.conv_kernel"].data
        cb = params["block0.conv_bias"].data
        xb = params.config.d + params.config.d_s
        ref = silu_np(K[-1, :xb] * chan.data[0, 0] + cb[:xb])
        assert np.allclose(X.data[0, 0], ref[:8], atol=1e-12)

    def test_matches_straight_line_oracle(self, rng):
        params = tiny_params(seed=7)
        items = rng.integers(1, 21, 5)
        ref = straight_line_row(params, items)
        seq = model.embed(params, items[None, :])
        X, B, C, delta, _ = model.transform(params, seq)
        assert np.allclose(X.data[0], ref["X"], atol=1e-12)
        assert np.allclose(B.data[0], ref["B"], atol=1e-12)
        # the last block reads C at the last position only
        assert C.shape == (1, 1, params.config.d_s)
        assert np.allclose(C.data[0], ref["C"][-1:], atol=1e-12)
        assert np.allclose(delta.data[0], ref["delta"], atol=1e-12)
        C_all = whole_channel_transform(params, seq)[2]
        assert np.allclose(C_all.data[0], ref["C"], atol=1e-12)


class TestDiscretize:
    def test_log_two_step_halves(self):
        delta = ag.constant(np.full((1, 3), np.log(2.0)))
        B = ag.constant(np.ones((1, 3, 2)))
        abar, bbar = model.discretize(delta, ag.constant(np.array(-1.0)), B)
        assert np.allclose(abar.data, 0.5, atol=1e-14)

    def test_vanishing_step_is_identity(self):
        delta = ag.constant(np.full((1, 1), 1e-12))
        B = ag.constant(np.ones((1, 1, 2)))
        abar, bbar = model.discretize(delta, ag.constant(np.array(-1.0)), B)
        assert abs(abar.data[0, 0] - 1.0) < 1e-9
        assert np.all(np.abs(bbar.data) < 1e-9)

    def test_input_scaling(self):
        delta = ag.constant(np.array([[0.5]]))
        B = ag.constant(np.array([[[1.0, 2.0]]]))
        _, bbar = model.discretize(delta, ag.constant(np.array(-2.0)), B)
        assert np.allclose(bbar.data[0, 0], [0.5, 1.0])

    def test_non_negative_decay_rejected(self):
        with pytest.raises(model.ModelError, match="stability"):
            model.discretize(ag.constant(np.ones((1, 1))),
                             ag.constant(np.array(0.5)),
                             ag.constant(np.ones((1, 1, 2))))


def prefix_states(abar, bbar, X, C, mask):
    """(m, L, s, d) state after every step: h_final of the scan over each
    prefix [:, :t+1]."""
    L = mask.shape[1]
    return np.stack([model.scan(abar[:, :t + 1], bbar[:, :t + 1], X[:, :t + 1],
                                C[:, :t + 1], mask[:, :t + 1])[1].data
                     for t in range(L)], axis=1)


class TestScan:
    def test_hand_case_one_dimensional(self):
        abar = ag.constant(np.array([[0.5, 0.5]]))
        bbar = ag.constant(np.ones((1, 2, 1)))
        X = ag.constant(np.array([[[2.0], [3.0]]]))
        C = ag.constant(np.ones((1, 2, 1)))
        mask = np.ones((1, 2), bool)
        Y, hf = model.scan(abar, bbar, X, C, mask)
        H = prefix_states(abar, bbar, X, C, mask)
        assert np.allclose(H[0, :, 0, 0], [2.0, 4.0])
        assert np.allclose(Y.data[0, :, 0], [2.0, 4.0])

    def test_fully_masked_rows_stay_zero(self):
        m, L, s, d = 2, 4, 3, 5
        rng = np.random.default_rng(0)
        Y, hf = model.scan(ag.constant(rng.uniform(0.1, 0.9, (m, L))),
                              ag.constant(rng.normal(size=(m, L, s))),
                              ag.constant(rng.normal(size=(m, L, d))),
                              ag.constant(rng.normal(size=(m, L, s))),
                              np.zeros((m, L), bool))
        assert np.all(hf.data == 0.0) and np.all(Y.data == 0.0)

    def test_single_unmasked_step_with_unit_decay(self, rng):
        bbar = rng.normal(size=(1, 1, 3))
        x = rng.normal(size=(1, 1, 4))
        _, hf = model.scan(ag.constant(np.ones((1, 1))), ag.constant(bbar),
                              ag.constant(x), ag.constant(np.ones((1, 1, 3))),
                              np.ones((1, 1), bool))
        assert np.allclose(hf.data[0], np.outer(bbar[0, 0], x[0, 0]), atol=1e-14)


class TestFfnAndPredict:
    def test_zero_ffn_weights_reduce_to_layer_norm(self, rng):
        params = tiny_params()
        for name in ("block0.Wf1", "block0.bf1", "block0.Wf2", "block0.bf2"):
            params[name].data = np.zeros_like(params[name].data)
        Y = ag.constant(rng.normal(size=(2, 3, 8)))
        out = model.ffn_and_norm(params, Y)
        ref = layer_norm_np(Y.data, params["block0.ln_ffn_g"].data,
                            params["block0.ln_ffn_b"].data)
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_residual_gradient_alive_with_zero_ffn(self, rng):
        params = tiny_params()
        for name in ("block0.Wf1", "block0.Wf2"):
            params[name].data = np.zeros_like(params[name].data)
        Y = ag.parameter(rng.normal(size=(1, 2, 8)))
        out = model.ffn_and_norm(params, Y)
        g = ag.grad(ag.reduce_sum(out), {"Y": Y})
        assert np.any(g["Y"] != 0.0)

    def test_predict_recovers_embedding_row(self):
        params = tiny_params(vocab_size=9, d=8)
        params["E"].data = np.eye(9, 8)
        logits = model.predict(params, ag.constant(params["E"].data[4][None, :]))
        assert int(np.argmax(logits.data[0])) == 4

    def test_predict_zero_vector_ties_broken_by_low_index(self):
        from alignrec.evaluation import ranked_items
        params = tiny_params()
        logits = model.predict(params, ag.constant(np.zeros((1, 8))))
        assert np.allclose(logits.data, 0.0)
        ranked = ranked_items(logits.data, top_k=5)
        assert ranked[0].tolist() == [1, 2, 3, 4, 5]  # padding index excluded

    def test_predict_ranking_equals_brute_force_sort(self, rng):
        params = tiny_params(seed=11)
        o = rng.normal(size=(3, 8))
        logits = model.predict(params, ag.constant(o)).data
        for i in range(3):
            brute = sorted(range(21), key=lambda j: (-logits[i, j], j))
            mine = np.argsort(-logits[i], kind="stable")
            assert brute == mine.tolist()


TRANSFORM = model.transform

# (n_blocks, conv_width, max_len): left-padded rows of mixed length, a batch
# shorter than the extension's w-1 context, conv_width 1, and two blocks
READOUT_CASES = [(1, 4, 7), (1, 4, 2), (1, 1, 6), (2, 3, 7)]
READOUT_IDS = ["left-padded", "shorter-than-context", "width-1", "two-blocks"]


def readout_batch(rng, max_len):
    """A batch with one full-length row and one row of length 1."""
    exs = (random_examples(rng, n_examples=1, min_len=max_len, max_len=max_len)
           + random_examples(rng, n_examples=1, min_len=1, max_len=1)
           + random_examples(rng, n_examples=4, min_len=1, max_len=max_len))
    return ingest.make_batches(exs, max_len=max_len, batch_size=8)[0]


def whole_channel_last_block(params, seq, mask=None, block=0, history=None):
    """model.transform with the last block's outputs taken from the
    whole-channel transform: C sliced at the last position and the
    extension's context sliced from the pre-activation X|B channels; with
    `history`, the extension's row is the whole-channel convolution's last
    row over the window."""
    cfg = params.config
    xb = cfg.d + cfg.d_s
    if history is not None:
        pre = f"block{block}."
        proj = ag.linear(seq, params[pre + "W1"], params[pre + "b1"])
        window = ag.concat([history, proj[:, None, :xb]], axis=1)
        act = ag.silu(ag.causal_conv1d(window, params[pre + "conv_kernel"][:, :xb],
                                       params[pre + "conv_bias"][:xb])[:, -1])
        return act[:, :cfg.d], act[:, cfg.d:], None, ag.softplus(proj[:, -1]), None
    if block < cfg.n_blocks - 1:
        return TRANSFORM(params, seq, mask=mask, block=block)
    X, B, C, delta, chan = whole_channel_transform(params, seq, mask=mask, block=block)
    L = chan.shape[1]
    return X, B, C[:, -1:], delta, chan[:, max(0, L - (cfg.conv_width - 1)):, :xb]


def graph_nodes(*roots):
    seen, stack, nodes = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def made_by(node, op):
    return node._backward is not None and node._backward.__qualname__.startswith(op + ".")


class TestLastBlockReadout:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_blocks, conv_width, max_len", READOUT_CASES, ids=READOUT_IDS)
    def test_equals_whole_channel_transform_bitwise(self, rng, dtype, n_blocks, conv_width,
                                                    max_len):
        params = tiny_params(seed=41, n_blocks=n_blocks, conv_width=conv_width, dtype=dtype)
        batch = readout_batch(rng, max_len)
        L = batch.seq_len
        seq = model.embed(params, batch.items)
        last = n_blocks - 1
        X, B, C, delta, context = model.transform(params, seq, mask=batch.mask, block=last)
        Xr, Br, Cr, dr, chan = whole_channel_transform(params, seq, mask=batch.mask, block=last)
        assert C.shape == (batch.size, 1, params.config.d_s)
        xb = params.config.d + params.config.d_s
        pairs = [(X, Xr), (B, Br), (C, Cr[:, -1:]), (delta, dr),
                 (context, chan[:, max(0, L - (conv_width - 1)):, :xb])]
        for got, want in pairs:
            assert got.dtype == np.dtype(dtype) and got.shape == want.shape
            assert np.array_equal(got.data, want.data)
        if n_blocks > 1:
            # an earlier block's scan reads C at every position
            got = model.transform(params, seq, mask=batch.mask, block=0)
            want = whole_channel_transform(params, seq, mask=batch.mask, block=0)
            for a, b in zip(got[:4], want[:4]):
                assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_blocks, conv_width, max_len", READOUT_CASES, ids=READOUT_IDS)
    def test_forward_equals_whole_channel_forward_bitwise(self, rng, monkeypatch, dtype,
                                                          n_blocks, conv_width, max_len):
        params = tiny_params(seed=42, n_blocks=n_blocks, conv_width=conv_width, dtype=dtype)
        batch = readout_batch(rng, max_len)
        tr = model.forward_full(params, batch, training=False)
        monkeypatch.setattr(model, "transform", whole_channel_last_block)
        ref = model.forward_full(params, batch, training=False)
        for name in ("X", "C", "delta", "h_final", "o_last", "logits"):
            assert np.array_equal(getattr(tr, name).data, getattr(ref, name).data), name
        for name in ("x_next", "B_next", "delta_next"):
            assert np.array_equal(getattr(tr.extension, name).data,
                                  getattr(ref.extension, name).data), name

    @pytest.mark.parametrize("n_blocks, conv_width, max_len", READOUT_CASES, ids=READOUT_IDS)
    def test_adaptation_gradients_match_whole_channel_forward(self, rng, monkeypatch,
                                                              small_weights, n_blocks,
                                                              conv_width, max_len):
        # float64; the kernel's gradient sums over other rows, so it may
        # differ in the last bits
        params = tiny_params(seed=43, n_blocks=n_blocks, conv_width=conv_width)
        batch = readout_batch(rng, max_len)

        def adaptation_grads():
            tr = model.forward_full(params, batch, training=False, need_logits=False)
            t_loss, s_loss, _ = losses.alignment_losses(params, tr, batch, small_weights,
                                                        1e-2, 1e-1)
            total = ag.add(ag.mul(t_loss, 1e-2), ag.mul(s_loss, 1e-1))
            return total.data, ag.grad(total, params.as_dict())

        loss, got = adaptation_grads()
        monkeypatch.setattr(model, "transform", whole_channel_last_block)
        loss_ref, want = adaptation_grads()
        assert np.array_equal(loss, loss_ref)
        assert sorted(got) == sorted(want)
        assert {"E", f"block{n_blocks - 1}.conv_kernel", f"block{n_blocks - 1}.W1"} <= set(want)
        for name in want:
            scale = max(np.abs(want[name]).max(), 1e-300)
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_last_block_convolves_no_whole_channel_array(self, rng, small_weights, n_blocks):
        params = tiny_params(seed=44, n_blocks=n_blocks)
        cfg = params.config
        batch = readout_batch(rng, 7)
        m, L = batch.mask.shape
        assert L > cfg.conv_width
        tr = model.forward_full(params, batch, training=False)
        t_loss, s_loss, _ = losses.alignment_losses(params, tr, batch, small_weights, 1.0, 1.0)
        nodes = graph_nodes(tr.logits, t_loss, s_loss)
        whole = (m, L, cfg.d + 2 * cfg.d_s)
        # only an earlier block convolves and activates every channel at
        # every position
        for op in ("causal_conv1d", "silu"):
            shapes = [n.shape for n in nodes if made_by(n, op)]
            assert shapes.count(whole) == n_blocks - 1, (op, shapes)
        assert tr.C.shape == (m, 1, cfg.d_s)
        assert not any(made_by(n, "silu") and n.shape == (m, L, cfg.d_s) for n in nodes)

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_readout_and_extension_convolve_one_row(self, rng, small_weights, n_blocks):
        params = tiny_params(seed=45, n_blocks=n_blocks)
        cfg = params.config
        batch = readout_batch(rng, 7)
        m, L = batch.mask.shape
        tr = model.forward_full(params, batch, training=False)
        t_loss, s_loss, _ = losses.alignment_losses(params, tr, batch, small_weights, 1.0, 1.0)
        nodes = graph_nodes(tr.logits, t_loss, s_loss)
        convs = [n.shape for n in nodes
                 if made_by(n, "causal_conv1d") or made_by(n, "causal_conv1d_last")]
        # a convolution output of more than one row is the last block's X|B
        # channels or an earlier block's every channel, at every position
        xb = cfg.d + cfg.d_s
        assert sorted(s for s in convs if s[1] > 1) == sorted(
            [(m, L, xb)] + [(m, L, xb + cfg.d_s)] * (n_blocks - 1)), convs
        assert sorted(s for s in convs if s[1] == 1) == [(m, 1, cfg.d_s), (m, 1, xb)], convs


class TestExtension:
    def test_detach_blocks_gradient_into_o(self, rng):
        o = ag.parameter(rng.normal(size=(2, 8)))
        grads = {}
        for detach in (True, False):
            params = tiny_params(detach_extension=detach)
            ext = model.extend_step(params, o, zero_history(params, 2))
            grads[detach] = ag.grad(ag.reduce_sum(ext.delta_next), {"o": o})
        assert "o" not in grads[True]
        assert np.any(grads[False]["o"] != 0.0)

    def test_zero_transform_gives_log_two_step(self, rng):
        params = tiny_params()
        for name in ("block0.W1", "block0.b1"):
            params[name].data = np.zeros_like(params[name].data)
        ext = model.extend_step(params, ag.constant(rng.normal(size=(2, 8))),
                                zero_history(params, 2))
        assert np.allclose(ext.delta_next.data, np.log(2.0), atol=1e-12)

    def test_matches_concatenated_history_oracle(self, rng):
        params = tiny_params(seed=5)
        cfg = params.config
        items = rng.integers(1, 21, 6)
        exs = [ingest.Example("u", items.tolist(), list(range(0, 60, 10)), 1, 99)]
        batch = ingest.make_batches(exs, max_len=6, batch_size=1)[0]
        trace = model.forward_full(params, batch, training=False)
        ref = straight_line_row(params, items)
        on = trace.o_last.data[0]
        W1, b1 = params["block0.W1"].data, params["block0.b1"].data
        K, cb = params["block0.conv_kernel"].data, params["block0.conv_bias"].data
        inner = cfg.d + 2 * cfg.d_s
        proj = on @ W1 + b1
        window = np.zeros((cfg.conv_width, inner))
        for k in range(cfg.conv_width - 1):
            src = 6 - 1 - (cfg.conv_width - 2 - k)
            if src >= 0:
                window[k] = ref["chan"][src]
        window[-1] = proj[:inner]
        conv = sum(K[k] * window[k] for k in range(cfg.conv_width)) + cb
        act = silu_np(conv)
        assert np.allclose(trace.extension.x_next.data[0], act[:cfg.d], atol=1e-11)
        assert np.allclose(trace.extension.B_next.data[0],
                           act[cfg.d:cfg.d + cfg.d_s], atol=1e-11)
        assert np.allclose(trace.extension.delta_next.data[0],
                           np.logaddexp(0.0, proj[inner]), atol=1e-11)
        # the step size reads no convolution context; the scan input does
        zeros = model.extend_step(params, trace.o_last, zero_history(params, 1))
        assert np.array_equal(zeros.delta_next.data, trace.extension.delta_next.data)
        assert not np.array_equal(zeros.x_next.data, trace.extension.x_next.data)

    def test_trailing_window_zero_fills_before_start(self, rng):
        # L < w-1: the extension reads the batch's channels behind zeros
        params = tiny_params(seed=7, conv_width=4)
        cfg = params.config
        for max_len in (1, 2):
            exs = random_examples(rng, n_examples=3, min_len=1, max_len=max_len)
            batch = ingest.make_batches(exs, max_len=max_len, batch_size=4)[0]
            trace = model.forward_full(params, batch, training=False)
            *_, chan = model.transform(params, model.embed(params, batch.items),
                                       mask=batch.mask)
            pad = np.zeros((batch.size, cfg.conv_width - 1 - batch.seq_len,
                            chan.shape[-1]))
            history = ag.constant(np.concatenate([pad, chan.data], axis=1))
            ref = model.extend_step(params, trace.o_last, history)
            for name in ("x_next", "B_next", "delta_next"):
                assert np.array_equal(getattr(trace.extension, name).data,
                                      getattr(ref, name).data), (max_len, name)


def full_tail_reference(params, batch):
    """forward_full's blocks with the last block's LayerNorm and FFN run at
    every position and the last position sliced afterwards; returns
    (o_last, logits). The last block's Y at those positions is read through
    the final state, written as numpy's optimized einsum over the arrays;
    TestFinalStateReadout checks that readout against the recurrence."""
    maskf = ag.constant(batch.mask.astype(params.config.np_dtype))
    n_blocks = params.config.n_blocks
    seq = model.embed(params, batch.items)
    for b in range(n_blocks):
        X, B, C, delta, _ = whole_channel_transform(params, seq, mask=batch.mask, block=b)
        abar, bbar = model.discretize(delta, params.decay(b), B)
        Xz = ag.mul(X, ag.reshape(maskf, maskf.shape + (1,)))
        Y, _ = model.scan(abar, bbar, Xz, C, batch.mask)
        if b == n_blocks - 1:
            w = ag.last_decay(abar, batch.mask).data
            h = np.einsum("mk,mks,mkd->msd", w, bbar.data, Xz.data, optimize=True)
            Yd = Y.data.copy()
            Yd[:, -1] = np.einsum("ms,msd->md", C.data[:, -1], h, optimize=True)
            Y = ag.constant(Yd)
        wrapped = ag.layer_norm(ag.add(seq, Y), params[f"block{b}.ln_block_g"],
                                params[f"block{b}.ln_block_b"])
        seq = model.ffn_and_norm(params, wrapped, block=b)
    o_last = seq[:, -1]
    return o_last.data, model.predict(params, o_last).data


class TestLastPositionTail:
    @pytest.mark.parametrize("n_blocks", [1, 2])
    @pytest.mark.parametrize("pad_side", ["left"])
    def test_equals_full_sequence_tail(self, rng, n_blocks, pad_side):
        params = tiny_params(seed=31, n_blocks=n_blocks)
        exs = random_examples(rng, n_examples=6, min_len=1, max_len=7)
        batch = ingest.make_batches(exs, max_len=7, batch_size=8, pad_side=pad_side)[0]
        tr = model.forward_full(params, batch, training=False)
        o_ref, logits_ref = full_tail_reference(params, batch)
        assert np.array_equal(tr.o_last.data, o_ref)
        assert np.array_equal(tr.logits.data, logits_ref)

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_dropout_draws_over_the_rows_each_block_runs_on(self, rng, n_blocks):
        # the embedding and every earlier block draw over (m, L, d); the last
        # block's FFN runs on one row per sequence and draws over (m, d)
        params = tiny_params(seed=32, dropout=0.3, n_blocks=n_blocks)
        batch = random_batch(rng, n_examples=5, max_len=7)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        model.forward_full(params, batch, rng=ours, training=True)
        m, L, d = batch.size, batch.seq_len, params.config.d
        for _ in range(n_blocks):
            theirs.random((m, L, d))
        theirs.random((m, d))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_last_block_ffn_sees_one_row_per_sequence(self, rng, monkeypatch, n_blocks):
        params = tiny_params(seed=33, n_blocks=n_blocks)
        batch = random_batch(rng, n_examples=5, max_len=7)
        seen = []
        ffn = model.ffn_and_norm

        def recording(params, Y, *args, **kw):
            seen.append(Y.shape)
            return ffn(params, Y, *args, **kw)

        monkeypatch.setattr(model, "ffn_and_norm", recording)
        model.forward_full(params, batch, training=False)
        m, L, d = batch.size, batch.seq_len, params.config.d
        assert seen == [(m, L, d)] * (n_blocks - 1) + [(m, d)]


def naive_last_readout(abar, bbar, X, C, mask):
    """The recurrence step by step: the final state, and y = h^T c read at
    each row's last position, L-1 in a left-padded batch."""
    m, L = mask.shape
    h = np.zeros((m, bbar.shape[-1], X.shape[-1]))
    for i in range(m):
        for t in range(L):
            if mask[i, t]:
                h[i] = abar[i, t] * h[i] + np.outer(bbar[i, t], X[i, t])
    return h, np.einsum("msd,ms->md", h, C[:, -1])


class TestFinalStateReadout:
    @pytest.mark.parametrize("n_blocks", [1, 2])
    @pytest.mark.parametrize("pad_side", ["left"])
    def test_matches_the_recurrence(self, rng, monkeypatch, n_blocks, pad_side):
        params = tiny_params(seed=34, n_blocks=n_blocks)
        exs = random_examples(rng, n_examples=6, min_len=1, max_len=9)
        batch = ingest.make_batches(exs, max_len=9, batch_size=8, pad_side=pad_side)[0]
        calls = []
        layer_norm = ag.layer_norm

        def recording(x, *args, **kw):
            out = layer_norm(x, *args, **kw)
            calls.append((x.data, out.data))
            return out

        monkeypatch.setattr(ag, "layer_norm", recording)
        tr = model.forward_full(params, batch, training=False)
        h, y = naive_last_readout(tr.abar.data, tr.bbar.data, tr.X.data, tr.C.data,
                                  batch.mask)
        assert np.allclose(tr.h_final.data, h, atol=1e-12, rtol=0)
        # the alignment block's LayerNorm reads seq[:, -1] + y_last
        seq = params["E"].data[batch.items] if n_blocks == 1 else calls[-3][1]
        resid = calls[-2][0]
        y_last = resid - seq[:, -1]
        assert np.allclose(y_last, y, atol=1e-12, rtol=0)

    def test_contractions_equal_their_einsum_formulas(self, rng, monkeypatch):
        # float64: the final state, the last readout and the state loss's
        # two outer products, each a batched matmul or a broadcast mul
        params = tiny_params(seed=36)
        batch = random_batch(rng, n_examples=6, max_len=9)
        calls = []
        layer_norm = ag.layer_norm

        def recording(x, *args, **kw):
            calls.append(x.data)
            return layer_norm(x, *args, **kw)

        monkeypatch.setattr(ag, "layer_norm", recording)
        tr = model.forward_full(params, batch, training=False)
        w = ag.last_decay(tr.abar, batch.mask).data
        h = np.einsum("mk,mks,mkd->msd", w, tr.bbar.data, tr.X.data)
        assert np.allclose(tr.h_final.data, h, atol=1e-12, rtol=0)
        y_last = calls[0] - params["E"].data[batch.items][:, -1]
        assert np.allclose(y_last, np.einsum("ms,msd->md", tr.C.data[:, -1], h),
                           atol=1e-12, rtol=0)

        _, inter = losses.state_alignment_loss(params, tr)
        ext, A = tr.extension, float(tr.A.data)
        dn = np.maximum(ext.delta_next.data, losses.DELTA_GUARD)[:, None]
        Q = losses.backward_projection(params, tr.x_last).data
        h_next = (np.exp(dn * A)[:, :, None] * tr.h_final.data
                  + np.einsum("ms,md->msd", ext.B_next.data * dn, ext.x_next.data))
        h_back = -1.0 / A * h_next + np.einsum("ms,md->msd", Q * dn, tr.x_last.data)
        assert np.allclose(inter.h_back, h_back, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_only_earlier_blocks_run_the_quadratic_scan(self, rng, monkeypatch, n_blocks):
        params = tiny_params(seed=35, n_blocks=n_blocks)
        batch = random_batch(rng, n_examples=4, max_len=6)
        counts = {"scan": 0, "last_decay": 0}

        def counting(name, fn):
            def run(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return run

        monkeypatch.setattr(model, "scan", counting("scan", model.scan))
        monkeypatch.setattr(ag, "last_decay", counting("last_decay", ag.last_decay))
        tr = model.forward_full(params, batch, training=False)
        ag.grad(ag.reduce_sum(tr.logits), params.as_dict())
        # one decay primitive: each earlier block's kernel and the last
        # block's final-state weights
        assert counts == {"scan": n_blocks - 1, "last_decay": n_blocks}


class TestForwardFull:
    def test_eval_mode_deterministic(self, rng):
        params = tiny_params(dropout=0.3)
        batch = random_batch(rng)
        a = model.forward_full(params, batch, training=False)
        b = model.forward_full(params, batch, training=False)
        assert np.array_equal(a.logits.data, b.logits.data)

    def test_shapes(self, rng):
        params = tiny_params()
        batch = random_batch(rng, n_examples=3, max_len=5)
        tr = model.forward_full(params, batch, training=False)
        L = batch.seq_len
        assert tr.delta.shape == (3, L)
        assert tr.extension.delta_next.shape == (3,)
        assert tr.h_final.shape == (3, 4, 8)
        assert tr.logits.shape == (3, 21)

    def test_matches_straight_line_oracle_end_to_end(self, rng):
        params = tiny_params(seed=13)
        batch = random_batch(rng, n_examples=4, max_len=6)
        tr = model.forward_full(params, batch, training=False)
        for i in range(batch.size):
            lo = batch.seq_len - int(batch.mask[i].sum())
            ref = straight_line_row(params, batch.items[i, lo:])
            assert np.allclose(tr.delta.data[i, lo:], ref["delta"], atol=1e-11)
            assert np.allclose(tr.h_final.data[i], ref["h"], atol=1e-11)
            assert np.allclose(tr.logits.data[i], ref["logits"], atol=1e-10)

    def test_extra_left_padding_changes_nothing(self, rng):
        params = tiny_params(seed=2)
        exs = random_examples(rng, n_examples=4, max_len=4)
        narrow = ingest.make_batches(exs, max_len=4, batch_size=8)[0]
        longer = random_examples(rng, n_examples=1, min_len=7, max_len=7)
        wide = ingest.make_batches(exs + longer, max_len=7, batch_size=8)[0]
        assert wide.seq_len > narrow.seq_len
        tn = model.forward_full(params, narrow, training=False)
        tw = model.forward_full(params, wide, training=False)
        assert np.abs(tn.logits.data - tw.logits.data[:4]).max() < 1e-10
        off = wide.seq_len - narrow.seq_len
        for i in range(4):
            lo = narrow.seq_len - int(narrow.mask[i].sum())
            assert np.allclose(tn.delta.data[i, lo:],
                               tw.delta.data[i, off + lo:], atol=1e-12)

    def test_step_sizes_and_decay_bounded(self, rng):
        # parameterization keeps delta positive and the decay inside (0, 1)
        params = tiny_params(seed=6)
        for _ in range(10):
            batch = random_batch(rng, n_examples=100, max_len=6)
            tr = model.forward_full(params, batch, training=False)
            assert np.all(tr.delta.data > 0.0)
            assert np.all(tr.abar.data > 0.0) and np.all(tr.abar.data < 1.0)
            assert np.all(tr.extension.delta_next.data > 0.0)

    def test_decay_negative_for_any_raw_value(self):
        params = tiny_params()
        for v in (-50.0, -1.0, 0.0, 3.0, 40.0):
            params["block0.a_raw"].data = np.array(v)
            assert float(params.decay().data) < 0.0

    def test_ranking_invariant_under_softmax(self, rng):
        params = tiny_params(seed=8)
        batch = random_batch(rng)
        logits = model.forward_full(params, batch, training=False).logits.data
        for row in logits:
            p = np.exp(row - row.max())
            p /= p.sum()
            assert np.array_equal(np.argsort(-row, kind="stable"),
                                  np.argsort(-p, kind="stable"))

    def test_state_norm_growth_bounded(self, rng):
        params = tiny_params(seed=9)
        batch = random_batch(rng, n_examples=3, max_len=6)
        tr = model.forward_full(params, batch, training=False)
        Xz = ag.constant(tr.X.data * batch.mask[..., None])
        # the states do not read C; the scan only wants one of full length
        C = ag.constant(np.zeros_like(tr.bbar.data))
        H = prefix_states(tr.abar, tr.bbar, Xz, C, batch.mask)
        for i in range(batch.size):
            prev = 0.0
            for t in range(batch.seq_len):
                cur = np.linalg.norm(H[i, t])
                if batch.mask[i, t]:
                    lim = prev * tr.abar.data[i, t] + \
                        np.linalg.norm(tr.bbar.data[i, t]) * \
                        np.linalg.norm(tr.X.data[i, t] * batch.mask[i, t])
                    assert cur <= lim + 1e-12
                else:
                    assert cur == prev
                prev = cur

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_graph_keeps_one_projection_buffer_per_block(self, rng, n_blocks):
        # bias and padding mask are applied in the projection's own buffer:
        # a matmul -> add -> mul chain would keep three per block
        params = tiny_params(seed=4, n_blocks=n_blocks)
        batch = random_batch(rng, n_examples=4, max_len=6)
        assert not batch.mask.all()     # some rows are left-padded
        tr = model.forward_full(params, batch, training=False)
        roots = [*vars(tr).values(), *vars(tr.extension).values()]
        seen, stack = set(), [t for t in roots if isinstance(t, ag.Tensor)]
        bases = {}
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.extend(t._parents)
            arr = t.data
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            bases[id(arr)] = arr.shape
        cfg = params.config
        proj_shape = (batch.size, batch.seq_len, cfg.d + 2 * cfg.d_s + 1)
        assert sum(shape == proj_shape for shape in bases.values()) == n_blocks

    def test_multi_block_forward_runs(self, rng):
        params = tiny_params(seed=10, n_blocks=2)
        batch = random_batch(rng)
        tr = model.forward_full(params, batch, training=False)
        assert tr.logits.shape == (batch.size, 21)
        assert float(params.decay(1).data) < 0.0

    def test_float32_mode(self, rng):
        params = tiny_params(seed=1, dtype="float32")
        batch = random_batch(rng)
        tr = model.forward_full(params, batch, training=False)
        assert tr.logits.dtype == np.float32

    def test_float32_train_step_keeps_every_node_and_gradient_float32(self, rng):
        # dropout active: its mask must not promote the graph to float64
        params = tiny_params(seed=2, dtype="float32", dropout=0.2)
        batch = random_batch(rng)
        tr = model.forward_full(params, batch, rng=np.random.default_rng(0), training=True)
        w = losses.LossWeights(lam=500.0, block_size=4)
        total = losses.total_loss(
            losses.rec_loss(tr.logits, batch.target_item),
            losses.batch_time_loss(params, tr, batch, w)[0],
            losses.state_alignment_loss(params, tr)[0], w, "train")
        nodes = ag._toposort(total)
        assert len(nodes) > 50
        assert sorted({str(n.data.dtype) for n in nodes}) == ["float32"]
        grads = ag.grad(total, params.as_dict())
        assert {n: g.dtype for n, g in grads.items() if g.dtype != np.float32} == {}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = tiny_params(seed=21)
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params, extra={"lam": 42.0})
        loaded, extra = model.load_checkpoint(path)
        assert extra == {"lam": 42.0}
        assert model.checkpoint_digest(loaded) == model.checkpoint_digest(params)
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.shape == params[name].data.shape

    def test_magic_bytes(self, tmp_path):
        params = tiny_params()
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params)
        with open(path, "rb") as fh:
            assert fh.read(4) == b"T2AR"

    @pytest.mark.parametrize("field", [
        {"d": 0}, {"d_s": 0}, {"d_ff": -1}, {"n_blocks": 0},
        {"dropout": 1.0}, {"dropout": -0.1}, {"dropout": float("nan")},
    ], ids=["d", "d_s", "d_ff", "n_blocks", "dropout-one", "dropout-negative",
            "dropout-nan"])
    def test_out_of_range_config_rejected(self, field):
        with pytest.raises(model.ModelError, match=next(iter(field))):
            model.ModelConfig(vocab_size=9, **field)

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.bin"
        old = tiny_params(seed=24)
        model.save_checkpoint(str(path), old)
        # same architecture, so the new file would be as long: fail halfway,
        # past the header and manifest, inside the payload
        limit = path.stat().st_size // 2

        class FailsHalfway:
            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                room = limit - self.written
                self.written += self.fh.write(data[:room])
                if len(data) > room:
                    raise OSError(28, "No space left on device")

        monkeypatch.setattr(model, "open", lambda p, mode: FailsHalfway(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            model.save_checkpoint(str(path), tiny_params(seed=25))
        monkeypatch.undo()
        loaded, _ = model.load_checkpoint(str(path))
        assert model.checkpoint_digest(loaded) == model.checkpoint_digest(old)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(model.ModelError, match="magic"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["tensors"].append(dict(m["tensors"][0], name="extra")),
         "unknown tensor 'extra'"),
        (lambda m: m["tensors"][1].update(shape=[2, 3]), "shape mismatch for 'block0.W1'"),
        (lambda m: m["tensors"].pop(), "missing tensors"),
        (lambda m: m["tensors"][0].update(offset=10 ** 9), "runs past the end"),
        (lambda m: m["tensors"][0].update(offset=-8), "runs past the end"),
        (lambda m: m["tensors"][1].update(offset=m["tensors"][0]["offset"] + 8),
         "'E' and 'block0.W1' overlap"),
    ], ids=["unknown", "shape", "missing", "offset-past-end", "offset-negative",
            "overlap"])
    def test_tensor_list_must_match_the_architecture(self, tmp_path, edit, message):
        path = tmp_path / "ck.bin"
        model.save_checkpoint(str(path), tiny_params(seed=26))
        path.write_bytes(rewrite_manifest(path.read_bytes(), edit))
        with pytest.raises(model.ModelError, match=message):
            model.load_checkpoint(str(path))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        params = tiny_params(seed=27, n_blocks=2)
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _ = model.load_checkpoint(path)
        assert loaded.names() == params.names()
        assert model.checkpoint_digest(loaded) == model.checkpoint_digest(params)
        assert all(loaded[n].data.flags.writeable for n in loaded.names())

    def test_load_holds_the_payload_once_in_writable_tensors(self, tmp_path):
        # a table large beside the manifest, in the float32 runs serve in
        params = tiny_params(seed=29, vocab_size=20_000, dtype="float32")
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params)
        nbytes = sum(params[n].data.nbytes for n in params.names())
        tracemalloc.start()
        try:
            loaded, _ = model.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.checkpoint_digest(loaded) == model.checkpoint_digest(params)
        for name in loaded.names():
            loaded[name].data[...] = 0.0    # raises on a read-only tensor
        # the payload and a copy of every tensor would be 2x; the finiteness
        # check's boolean mask of the largest tensor is a quarter of it
        assert peak < 1.3 * nbytes, peak / nbytes

    def test_layout_names_the_initialised_tensors(self):
        params = tiny_params(seed=28, n_blocks=2)
        assert [(n, s) for n, s, _ in model.parameter_layout(params.config)] == [
            (n, params[n].data.shape) for n in params.names()]

    def test_only_the_alignment_block_holds_W2_and_b2(self):
        names = [n for n, _, _ in model.parameter_layout(tiny_params(n_blocks=3).config)]
        assert [n for n in names if n.endswith((".W2", ".b2"))] == ["block2.W2", "block2.b2"]

    def test_checkpoint_with_an_earlier_blocks_W2_is_refused(self, tmp_path):
        # two-block checkpoints written while every block held W2 and b2
        params = tiny_params(seed=30, n_blocks=2)
        cfg = params.config
        params.tensors["block0.W2"] = ag.Tensor(np.zeros((cfg.d, cfg.d_s), cfg.np_dtype))
        params.tensors["block0.b2"] = ag.Tensor(np.zeros(cfg.d_s, cfg.np_dtype))
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params)
        with pytest.raises(model.ModelError, match="unknown tensor 'block0.W2'"):
            model.load_checkpoint(path)

    def test_forward_identical_after_reload(self, tmp_path, rng):
        params = tiny_params(seed=22)
        batch = random_batch(rng)
        path = str(tmp_path / "ck.bin")
        model.save_checkpoint(path, params)
        loaded, _ = model.load_checkpoint(path)
        a = model.forward_full(params, batch, training=False).logits.data
        b = model.forward_full(loaded, batch, training=False).logits.data
        assert np.array_equal(a, b)


class TestOverlay:
    def test_views_share_memory_and_reject_writes(self):
        params = tiny_params(seed=23)
        over = params.overlay()
        assert over.config is params.config and over.names() == params.names()
        for name in params.names():
            t = over[name]
            assert t.requires_grad and t is not params[name]
            assert np.shares_memory(t.data, params[name].data)
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = 0.0
        # an update rebinds the overlay's array and leaves the base alone
        base = params["E"].data.copy()
        over["E"].data = over["E"].data - 1.0
        assert np.array_equal(params["E"].data, base)

    def test_scalar_parameter_after_adam(self):
        # Adam leaves a 0-d parameter holding a numpy scalar
        params = tiny_params(seed=24)
        params["block0.a_raw"].data = np.float64(0.25)
        t = params.overlay()["block0.a_raw"]
        assert t.data.shape == () and float(t.data) == 0.25
        with pytest.raises(ValueError, match="read-only"):
            t.data[...] = 0.0
