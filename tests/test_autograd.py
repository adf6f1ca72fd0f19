import numpy as np
import pytest

from alignrec import autograd as ag


def test_softplus_at_zero():
    x = ag.parameter(np.array(0.0))
    y = ag.softplus(x)
    ag.backward(y)
    assert abs(y.item() - np.log(2.0)) < 1e-12
    assert abs(float(x.grad) - 0.5) < 1e-12


def test_outer_product_example():
    out = ag.outer(ag.constant([1.0, 2.0]), ag.constant([3.0, 4.0, 5.0]))
    assert np.array_equal(out.data, [[3, 4, 5], [6, 8, 10]])


def test_scan_telescopes_with_unit_decay():
    # abar=1 and a constant injection accumulate linearly
    m, L, s, d = 1, 3, 2, 2
    abar = np.ones((m, L))
    bbar = np.ones((m, L, s))
    x = np.ones((m, L, d))
    C = np.zeros((m, L, s))
    mask = np.ones((m, L), bool)
    _, hf, _ = ag.sequential_scan(ag.constant(abar), ag.constant(bbar),
                                  ag.constant(x), ag.constant(C), mask)
    assert np.allclose(hf.data, 3.0)


def test_grad_of_half_sum_of_squares_is_identity():
    p = ag.parameter(np.array([1.0, -2.0, 3.0]))
    loss = ag.mul(ag.reduce_sum(ag.mul(p, p)), 0.5)
    g = ag.grad(loss, {"p": p})
    assert np.allclose(g["p"], p.data)


def test_stop_gradient_blocks_flow():
    p = ag.parameter(np.array([2.0, 3.0]))
    loss = ag.reduce_sum(ag.mul(ag.stop_gradient(p), ag.constant([1.0, 1.0])))
    g = ag.grad(loss, {"p": p})
    assert np.all(g["p"] == 0.0)


def test_no_grad_records_no_graph_and_restores():
    p = ag.parameter(np.array([2.0, 3.0]))
    with ag.no_grad():
        y = ag.mul(p, p)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, ag.mul(p, p).data)
    with pytest.raises(ag.ShapeError), ag.no_grad():
        ag.add(p, ag.constant(np.ones(3)))
    assert ag.mul(p, p).requires_grad   # recording resumes after an error


def test_unreachable_parameter_gets_zero_gradient():
    p = ag.parameter(np.array([1.0]))
    q = ag.parameter(np.array([5.0]))
    loss = ag.reduce_sum(ag.mul(p, p))
    g = ag.grad(loss, {"p": p, "q": q})
    assert np.all(g["q"] == 0.0)


def test_grad_rejects_non_scalar_loss():
    p = ag.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ag.ShapeError):
        ag.grad(ag.mul(p, p), {"p": p})


def test_shape_errors_name_the_primitive():
    a = ag.constant(np.ones((2, 3)))
    b = ag.constant(np.ones((4, 5)))
    with pytest.raises(ag.ShapeError, match="add"):
        ag.add(a, b)
    with pytest.raises(ag.ShapeError, match="matmul"):
        ag.matmul(a, b)


def test_domain_errors():
    with pytest.raises(ag.DomainError):
        ag.log(ag.constant([-1.0]))
    with pytest.raises(ag.DomainError):
        ag.div(ag.constant([1.0]), ag.constant([0.0]))


def test_finite_diff_exact_for_linear_function(rng):
    p = ag.parameter(rng.normal(size=5))
    w = rng.normal(size=5)

    def f():
        return ag.reduce_sum(ag.mul(p, ag.constant(w)))

    rep = ag.finite_diff_check(f, {"p": p}, eps=1e-5, tol=1e-9, n_samples=10, rng=rng)
    assert rep.ok


def test_finite_diff_rejects_bad_eps(rng):
    p = ag.parameter(np.array([1.0]))
    with pytest.raises(ValueError):
        ag.finite_diff_check(lambda: ag.reduce_sum(p), {"p": p}, eps=0.5)


def test_determinism_bitwise(rng):
    data = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def run():
        p = ag.parameter(data.copy())
        wt = ag.parameter(w.copy())
        loss = ag.reduce_sum(ag.silu(ag.matmul(p, wt)))
        g = ag.grad(loss, {"p": p, "w": wt})
        return loss.data.copy(), g["p"].copy(), g["w"].copy()

    a, b = run(), run()
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def naive_scan(abar, bbar, x, C, mask):
    m, L = abar.shape
    s, d = bbar.shape[-1], x.shape[-1]
    h = np.zeros((m, s, d))
    Y = np.zeros((m, L, d))
    for t in range(L):
        for i in range(m):
            if mask[i, t]:
                h[i] = abar[i, t] * h[i] + np.outer(bbar[i, t], x[i, t])
            Y[i, t] = h[i].T @ C[i, t]
    return Y, h


def test_sequential_scan_matches_naive_oracle(rng):
    cases = []
    for _ in range(20):
        m = int(rng.integers(1, 5))
        L = int(rng.integers(1, 65))
        cases.append((rng.uniform(0.0, 1.0, (m, L)), rng.random((m, L)) > 0.3))
    zeros = rng.uniform(0.0, 1.0, (3, 40))
    zeros[rng.random((3, 40)) < 0.25] = 0.0
    zeros[:, 0] = 0.0
    masked_rows = rng.random((4, 30)) > 0.3
    masked_rows[[0, 2]] = False
    cases += [
        (zeros, rng.random((3, 40)) > 0.3),                     # exact zeros
        (np.ones((2, 50)), rng.random((2, 50)) > 0.2),          # no decay
        (rng.uniform(0.0, 1.0, (4, 30)), masked_rows),          # fully masked rows
        (rng.uniform(0.0, 1.0, (3, 1)), np.array([[True], [False], [True]])),  # L = 1
        (rng.uniform(1e-4, 1e-2, (3, 64)), rng.random((3, 64)) > 0.1),  # strong decay
    ]
    for abar, mask in cases:
        m, L = abar.shape
        s = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        bbar = rng.normal(size=(m, L, s))
        x = rng.normal(size=(m, L, d))
        C = rng.normal(size=(m, L, s))
        Y, hf, _ = ag.sequential_scan(ag.constant(abar), ag.constant(bbar),
                                      ag.constant(x), ag.constant(C), mask)
        Yn, hn = naive_scan(abar, bbar, x, C, mask)
        assert np.allclose(Y.data, Yn, atol=1e-12, rtol=0)
        assert np.allclose(hf.data, hn, atol=1e-12, rtol=0)


def test_scan_gradients_all_paths(rng):
    m, L, s, d = 2, 7, 3, 4
    abar = ag.parameter(rng.uniform(0.1, 0.9, (m, L)))
    bbar = ag.parameter(rng.normal(size=(m, L, s)))
    x = ag.parameter(rng.normal(size=(m, L, d)))
    C = ag.parameter(rng.normal(size=(m, L, s)))
    mask = rng.random((m, L)) > 0.3
    wY = rng.normal(size=(m, L, d))
    wh = rng.normal(size=(m, s, d))
    combos = [
        lambda Y, hf: ag.add(ag.reduce_sum(ag.mul(Y, ag.constant(wY))),
                             ag.reduce_sum(ag.mul(hf, ag.constant(wh)))),
        lambda Y, hf: ag.reduce_sum(ag.mul(Y, ag.constant(wY))),
        lambda Y, hf: ag.reduce_sum(ag.mul(hf, ag.constant(wh))),
    ]
    for combine in combos:
        def f():
            Y, hf, _ = ag.sequential_scan(abar, bbar, x, C, mask)
            return combine(Y, hf)

        rep = ag.finite_diff_check(f, {"a": abar, "b": bbar, "x": x, "C": C},
                                   eps=1e-6, tol=1e-6, n_samples=32, rng=rng)
        assert rep.ok, rep.failures[:3]


def test_scan_gradient_exact_at_zero_decay(rng):
    # the kernel's gradient uses no logarithm or division, so an abar that
    # underflowed to 0 still gets the recurrence's finite gradient
    m, L, s, d = 2, 6, 3, 2
    a0 = rng.uniform(0.1, 0.9, (m, L))
    a0[:, [1, 4]] = 0.0
    abar = ag.parameter(a0)
    bbar = ag.parameter(rng.normal(size=(m, L, s)))
    x = ag.constant(rng.normal(size=(m, L, d)))
    C = ag.constant(rng.normal(size=(m, L, s)))
    mask = np.ones((m, L), bool)
    wY = ag.constant(rng.normal(size=(m, L, d)))

    def f():
        Y, hf, _ = ag.sequential_scan(abar, bbar, x, C, mask)
        return ag.add(ag.reduce_sum(ag.mul(Y, wY)), ag.reduce_sum(hf))

    g = ag.grad(f(), {"a": abar})["a"]
    assert np.all(np.isfinite(g)) and np.all(g[:, [1, 4]] != 0.0)
    rep = ag.finite_diff_check(f, {"a": abar, "b": bbar}, eps=1e-6, tol=1e-6,
                               n_samples=24, rng=rng)
    assert rep.ok, rep.failures[:3]


def test_einsum_gradients_with_batch_index(rng):
    a = ag.parameter(rng.normal(size=(2, 3, 4)))    # m t s
    b = ag.parameter(rng.normal(size=(2, 5, 4)))    # m k s
    c = ag.parameter(rng.normal(size=(2, 5)))       # m k
    w2 = ag.constant(rng.normal(size=(2, 3, 5)))
    w3 = ag.constant(rng.normal(size=(2, 3)))
    out2 = ag.einsum("mts,mks->mtk", a, b)
    assert np.allclose(out2.data, a.data @ b.data.transpose(0, 2, 1), atol=1e-14)
    cases = [
        lambda: ag.reduce_sum(ag.mul(ag.einsum("mts,mks->mtk", a, b), w2)),
        lambda: ag.reduce_sum(ag.mul(ag.einsum("mk,mks,mts->mt", c, b, a), w3)),
    ]
    for f in cases:
        rep = ag.finite_diff_check(f, {"a": a, "b": b, "c": c}, eps=1e-6,
                                   tol=1e-6, n_samples=24, rng=rng)
        assert rep.ok, rep.failures[:3]


def test_einsum_rejects_specs_without_an_einsum_gradient():
    x = ag.parameter(np.ones((2, 3)))
    y = ag.parameter(np.ones((3, 4)))
    bad = [
        ("ij->i", (x,)),             # j is summed inside one operand
        ("ij,jk->i", (x, y)),        # so is k
        ("ii->i", (ag.constant(np.ones((3, 3))),)),   # repeated index
        ("ij,jk", (x, y)),           # implicit output
        ("ij,jk->ik", (x, x)),       # j is 3 in one operand, 2 in the other
        ("ij,jk->ik", (x,)),         # operand count
        ("ijk->ik", (x,)),           # rank
        ("ij,jk->ikk", (x, y)),      # repeated output index
        ("ij,jk->iz", (x, y)),       # output index from nowhere
    ]
    for spec, ops in bad:
        with pytest.raises(ag.ShapeError, match="einsum"):
            ag.einsum(spec, *ops)


def test_grad_zeroes_parameters_an_earlier_loss_reached():
    p = ag.parameter(np.array([1.0, 2.0]))
    q = ag.parameter(np.array([3.0]))
    ag.grad(ag.reduce_sum(ag.mul(p, q)), {"p": p, "q": q})
    assert np.all(q.grad != 0.0)
    g = ag.grad(ag.reduce_sum(ag.mul(p, p)), {"p": p, "q": q})
    assert np.array_equal(g["q"], [0.0])
    assert np.allclose(g["p"], 2.0 * p.data)


def test_scan_step_matches_recurrence(rng):
    h0 = ag.constant(rng.normal(size=(2, 3, 4)))
    abar = ag.constant(np.array([0.5, 2.0]))
    bbar = ag.constant(rng.normal(size=(2, 3)))
    x = ag.constant(rng.normal(size=(2, 4)))
    out = ag.scan_step(h0, abar, bbar, x)
    for i in range(2):
        ref = float(abar.data[i]) * h0.data[i] + np.outer(bbar.data[i], x.data[i])
        assert np.allclose(out.data[i], ref, atol=1e-14)


def test_causal_conv_matches_direct_sum(rng):
    m, L, C, w = 2, 6, 3, 4
    x = rng.normal(size=(m, L, C))
    k = rng.normal(size=(w, C))
    b = rng.normal(size=C)
    out = ag.causal_conv1d(ag.constant(x), ag.constant(k), ag.constant(b))
    ref = np.zeros((m, L, C))
    for t in range(L):
        for kk in range(w):
            src = t - (w - 1) + kk
            if src >= 0:
                ref[:, t] += k[kk] * x[:, src]
    ref += b
    assert np.allclose(out.data, ref, atol=1e-14)


def test_structured_primitive_gradients(rng):
    # conv, layer_norm, embedding, gather_time, take_flat under one scalar head
    m, L, C, w = 2, 5, 3, 3
    k = ag.parameter(rng.normal(size=(w, C)))
    b = ag.parameter(rng.normal(size=C))
    x = ag.parameter(rng.normal(size=(m, L, C)))
    gma = ag.parameter(rng.normal(size=C))
    bta = ag.parameter(rng.normal(size=C))
    E = ag.parameter(rng.normal(size=(7, C)))
    idx = rng.integers(0, 7, (m, L))
    tidx = rng.integers(0, L, m)
    flat = rng.integers(0, m * L * C, 11)
    wts = [rng.normal(size=(m, L, C)), rng.normal(size=(m, C)), rng.normal(size=11)]

    def f():
        conv = ag.causal_conv1d(ag.add(x, ag.embedding(E, idx)), k, b)
        ln = ag.layer_norm(conv, gma, bta)
        a = ag.reduce_sum(ag.mul(ln, ag.constant(wts[0])))
        g = ag.reduce_sum(ag.mul(ag.gather_time(ln, tidx), ag.constant(wts[1])))
        t = ag.reduce_sum(ag.mul(ag.take_flat(ln, flat), ag.constant(wts[2])))
        return ag.add(ag.add(a, g), t)

    params = {"k": k, "b": b, "x": x, "g": gma, "bt": bta, "E": E}
    rep = ag.finite_diff_check(f, params, eps=1e-6, tol=1e-5, n_samples=36, rng=rng)
    assert rep.ok, rep.failures[:3]


def test_layer_norm_statistics(rng):
    x = ag.constant(rng.normal(2.0, 3.0, (4, 6)))
    out = ag.layer_norm(x, ag.constant(np.ones(6)), ag.constant(np.zeros(6)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


def test_dropout_modes(rng):
    x = ag.constant(np.ones((100, 10)))
    assert ag.dropout(x, 0.5, training=False) is x
    out = ag.dropout(x, 0.5, rng=np.random.default_rng(0), training=True)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, 2.0}
    with pytest.raises(ValueError):
        ag.dropout(x, 0.5, training=True)


def test_masked_select_and_errors(rng):
    x = ag.constant(np.arange(6.0).reshape(2, 3))
    mask = np.array([[True, False, True], [False, False, True]])
    out = ag.masked_select(x, mask)
    assert np.array_equal(out.data, [0.0, 2.0, 5.0])
    with pytest.raises(ag.ShapeError):
        ag.masked_select(x, np.array([True, False]))


def test_softmax_cross_entropy_uniform_and_bruteforce(rng):
    ce = ag.softmax_cross_entropy(ag.constant(np.zeros((1, 20))), np.array([3]))
    assert abs(ce.item() - np.log(20.0)) < 1e-12
    z = rng.normal(size=(5, 11))
    t = rng.integers(0, 11, 5)
    ce2 = ag.softmax_cross_entropy(ag.constant(z), t)
    ref = np.mean([-np.log(np.exp(z[i, t[i]]) / np.exp(z[i]).sum()) for i in range(5)])
    assert abs(ce2.item() - ref) < 1e-12


def test_frobenius_norm_zero_input_zero_gradient():
    z = ag.parameter(np.zeros((2, 3)))
    n = ag.reduce_sum(ag.frobenius_norm(z, axis=(0, 1)))
    g = ag.grad(n, {"z": z})
    assert float(n.data) == 0.0
    assert np.all(g["z"] == 0.0)


def test_elementwise_gradients(rng):
    p = ag.parameter(rng.uniform(0.5, 2.0, 8))

    def f():
        a = ag.exp(ag.mul(p, 0.3))
        b = ag.log(ag.add(p, 1.0))
        c = ag.silu(p)
        d = ag.relu(ag.sub(p, 1.0))
        e = ag.sigmoid(p)
        s = ag.sqrt(p)
        return ag.reduce_sum(ag.add(ag.add(ag.add(a, b), ag.add(c, d)),
                                    ag.add(e, s)))

    rep = ag.finite_diff_check(f, {"p": p}, eps=1e-6, tol=1e-6, n_samples=16, rng=rng)
    assert rep.ok, rep.failures


def test_scalar_operand_keeps_float32_dtype():
    x = ag.constant(np.ones(3, dtype=np.float32))
    assert ag.mul(x, 2.0).dtype == np.float32
    assert ag.add(x, 1).dtype == np.float32
