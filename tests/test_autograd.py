import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from alignrec import autograd as ag


def test_softplus_at_zero():
    x = ag.parameter(np.array(0.0))
    y = ag.softplus(x)
    g = ag.grad(y, {"x": x})
    assert abs(y.item() - np.log(2.0)) < 1e-12
    assert abs(float(g["x"]) - 0.5) < 1e-12


def exact_sigmoid(v):
    """1 / (1 + e^-v) to 50 digits, rounded once to float64."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(1 / (1 + (-Decimal(float(v))).exp()))


def test_sigmoid_is_within_two_ulp_of_the_exact_value(rng):
    # exp is rounded, and 1 + e^-x and the division round again: 2 ulp is
    # also what the scalar 1 / (1 + math.exp(-x)) needs
    x = np.concatenate([rng.normal(size=2000), rng.normal(scale=20.0, size=2000)])
    ref = np.array([exact_sigmoid(v) for v in x])
    assert np.all(np.abs(ag._sigmoid(x) - ref) <= 2 * np.spacing(ref))


@pytest.mark.parametrize("dtype, big", [(np.float64, 800.0), (np.float32, 100.0)])
def test_sigmoid_saturates_exactly_and_quietly(dtype, big):
    x = np.array([-np.inf, -big, 0.0, big, np.inf, np.nan], dtype=dtype)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        s = ag._sigmoid(x)
        s0 = ag._sigmoid(np.asarray(big, dtype=dtype))
    assert s.dtype == dtype and s0.dtype == dtype and s0.shape == ()
    assert np.array_equal(s, np.array([0.0, 0.0, 0.5, 1.0, 1.0, np.nan], dtype=dtype),
                          equal_nan=True)
    assert s0 == 1.0


def test_scan_telescopes_with_unit_decay():
    # abar=1 and a constant injection accumulate linearly
    m, L, s, d = 1, 3, 2, 2
    abar = np.ones((m, L))
    bbar = np.ones((m, L, s))
    x = np.ones((m, L, d))
    C = np.zeros((m, L, s))
    mask = np.ones((m, L), bool)
    _, hf = ag.sequential_scan(ag.constant(abar), ag.constant(bbar),
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
    assert "p" not in g


def test_no_grad_records_no_graph_and_restores():
    p = ag.parameter(np.array([2.0, 3.0]))
    with ag.no_grad():
        y = ag.mul(p, p)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, ag.mul(p, p).data)
    with pytest.raises(ag.ShapeError), ag.no_grad():
        ag.add(p, ag.constant(np.ones(3)))
    assert ag.mul(p, p).requires_grad   # recording resumes after an error


def test_unreachable_parameter_gets_no_gradient_entry():
    p = ag.parameter(np.array([1.0]))
    q = ag.parameter(np.array([5.0]))
    loss = ag.reduce_sum(ag.mul(p, p))
    g = ag.grad(loss, {"p": p, "q": q})
    assert set(g) == {"p"}


def test_getitem_gradient_adds_repeated_indices():
    x = ag.parameter(np.array([1.0, 2.0, 3.0]))
    g = ag.grad(ag.reduce_sum(x[[0, 0, 2]]), {"x": x})
    assert np.array_equal(g["x"], [2.0, 0.0, 1.0])
    y = ag.parameter(np.ones((3, 4)))
    g = ag.grad(ag.reduce_sum(y[np.array([1, 1, 0]), 1:3]), {"y": y})
    assert np.array_equal(g["y"], [[0, 1, 1, 0], [0, 2, 2, 0], [0, 0, 0, 0]])
    g = ag.grad(ag.reduce_sum(y[..., 1:3]), {"y": y})   # basic slice
    assert np.array_equal(g["y"], np.tile([0.0, 1.0, 1.0, 0.0], (3, 1)))


@pytest.mark.parametrize("slice_first", [False, True])
def test_slice_gradient_does_not_write_into_a_shared_gradient(rng, slice_first):
    # add hands one g object to both of its parents; the slice's backward
    # must not add into that object, or q's gradient changes with p's
    p = ag.parameter(rng.normal(size=(4, 6)))
    q = ag.parameter(rng.normal(size=(4, 6)))
    w = rng.normal(size=(4, 6))
    v = rng.normal(size=(4, 3))
    whole = ag.reduce_sum(ag.mul(ag.add(p, q), ag.constant(w)))
    part = ag.reduce_sum(ag.mul(p[:, 1:4], ag.constant(v)))
    loss = ag.add(part, whole) if slice_first else ag.add(whole, part)
    g = ag.grad(loss, {"p": p, "q": q})
    ref_p = w.copy()
    ref_p[:, 1:4] += v
    assert np.array_equal(g["p"], ref_p)
    assert np.array_equal(g["q"], w)


def test_slice_gradients_add_into_one_buffer(rng):
    p = ag.parameter(rng.normal(size=(1000, 1000)))
    loss = ag.reduce_sum(p[:, :100])
    for k in range(1, 10):
        loss = ag.add(loss, ag.reduce_sum(p[:, 100 * k:100 * (k + 1)]))
    tracemalloc.start()
    try:
        g = ag.grad(loss, {"p": p})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(g["p"], np.ones((1000, 1000)))
    # a full-size zero array per slice, added to the running sum, needs three
    assert peak < 2 * p.data.nbytes, peak / p.data.nbytes


@pytest.mark.parametrize("op", ["mul", "div"])
def test_constant_operand_gets_no_gradient_product(rng, op):
    x = ag.parameter(rng.normal(size=(1000, 1000)))
    c = ag.constant(1.0 + rng.random((1000, 1)))
    loss = ag.reduce_sum(getattr(ag, op)(x, c))
    tracemalloc.start()
    try:
        g = ag.grad(loss, {"x": x})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ref = c.data if op == "mul" else 1.0 / c.data
    assert np.array_equal(g["x"], np.broadcast_to(ref, x.data.shape))
    # x's gradient is one full array; a product for the constant is a second
    assert peak < 2 * x.data.nbytes, peak / x.data.nbytes


def test_matmul_constant_operand_gets_no_gradient_product(rng):
    c = ag.constant(rng.normal(size=(1000, 1000)))
    w = ag.parameter(rng.normal(size=(1000, 1)))
    loss = ag.reduce_sum(ag.matmul(c, w))
    tracemalloc.start()
    try:
        g = ag.grad(loss, {"w": w})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.allclose(g["w"], c.data.sum(axis=0)[:, None])
    # w's gradient is one column; a product for the constant is a full matrix
    assert peak < c.data.nbytes / 4, peak / c.data.nbytes


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
        ag.embedding(ag.constant(np.ones((3, 2))), np.array([0, 3]))
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
        Y, hf = ag.sequential_scan(ag.constant(abar), ag.constant(bbar),
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
            Y, hf = ag.sequential_scan(abar, bbar, x, C, mask)
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
        Y, hf = ag.sequential_scan(abar, bbar, x, C, mask)
        return ag.add(ag.reduce_sum(ag.mul(Y, wY)), ag.reduce_sum(hf))

    g = ag.grad(f(), {"a": abar})["a"]
    assert np.all(np.isfinite(g)) and np.all(g[:, [1, 4]] != 0.0)
    rep = ag.finite_diff_check(f, {"a": abar, "b": bbar}, eps=1e-6, tol=1e-6,
                               n_samples=24, rng=rng)
    assert rep.ok, rep.failures[:3]


def last_decay_cases(rng):
    """(abar, mask) pairs: random masks, exact zeros, L = 1, masked rows."""
    cases = []
    for _ in range(6):
        m, L = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        cases.append((rng.uniform(0.0, 1.0, (m, L)), rng.random((m, L)) > 0.3))
    zeros = rng.uniform(0.1, 1.0, (3, 8))
    zeros[:, [0, 3, 7]] = 0.0
    zeros[1, 5] = 0.0
    masked_rows = rng.random((4, 6)) > 0.3
    masked_rows[[0, 2]] = False
    cases += [
        (zeros, rng.random((3, 8)) > 0.2),
        (zeros, np.ones((3, 8), bool)),
        (rng.uniform(0.0, 1.0, (3, 1)), np.array([[True], [False], [True]])),
        (rng.uniform(0.0, 1.0, (4, 6)), masked_rows),
    ]
    return cases


def test_last_decay_is_the_suffix_product(rng):
    for abar, mask in last_decay_cases(rng):
        m, L = abar.shape
        ref = np.zeros((m, L))
        for i in range(m):
            for k in range(L):
                if mask[i, k]:
                    ref[i, k] = np.prod([abar[i, j] for j in range(k + 1, L) if mask[i, j]])
        w = ag.last_decay(ag.constant(abar), mask)
        assert np.allclose(w.data, ref, atol=1e-15, rtol=0)


def test_last_decay_gradient_is_the_product_rule(rng):
    for abar, mask in last_decay_cases(rng):
        m, L = abar.shape
        G = rng.normal(size=(m, L))
        a = ag.parameter(abar)

        def f():
            return ag.reduce_sum(ag.mul(ag.last_decay(a, mask), ag.constant(G)))

        # d w_k / d abar_j is the product over k < i < L with step j left out
        ref = np.zeros((m, L))
        for i in range(m):
            for j in range(L):
                if mask[i, j]:
                    ref[i, j] = sum(G[i, k] * np.prod([abar[i, n] for n in range(k + 1, L)
                                                       if mask[i, n] and n != j])
                                    for k in range(j) if mask[i, k])
        g = ag.grad(f(), {"a": a})["a"]
        assert np.all(np.isfinite(g))
        assert np.allclose(g, ref, atol=1e-14, rtol=0)
        rep = ag.finite_diff_check(f, {"a": a}, eps=1e-6, tol=1e-6,
                                   n_samples=2 * abar.size, rng=rng)
        assert rep.ok, rep.failures[:3]


def test_last_decay_broadcasts_against_leading_mask_axes(rng):
    # abar (m, 1, L) against a mask (m, T, L): each leading row t is the 2-D
    # last_decay under row t's mask, and the gradient sums over the rows
    for abar, mask in last_decay_cases(rng):
        m, L = abar.shape
        rows = np.stack([mask & (rng.random((m, L)) > 0.2) for _ in range(3)], axis=1)
        G = rng.normal(size=rows.shape)
        a = ag.parameter(abar)
        w = ag.last_decay(ag.reshape(a, (m, 1, L)), rows)
        g = ag.grad(ag.reduce_sum(ag.mul(w, ag.constant(G))), {"a": a})["a"]
        ref_g = np.zeros((m, L))
        for t in range(rows.shape[1]):
            a_t = ag.parameter(abar)
            w_t = ag.last_decay(a_t, rows[:, t])
            assert np.array_equal(w.data[:, t], w_t.data)
            ref_g += ag.grad(ag.reduce_sum(ag.mul(w_t, ag.constant(G[:, t]))),
                             {"a": a_t})["a"]
        assert np.allclose(g, ref_g, atol=1e-14, rtol=0)
    with pytest.raises(ag.ShapeError):
        ag.last_decay(ag.constant(np.ones((2, 3, 4))), np.ones((2, 4), bool))


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
    first = ag.grad(ag.reduce_sum(ag.mul(p, q)), {"p": p, "q": q})
    assert np.all(first["q"] != 0.0)
    g = ag.grad(ag.reduce_sum(ag.mul(p, p)), {"p": p, "q": q})
    assert "q" not in g
    assert np.allclose(g["p"], 2.0 * p.data)


def test_grad_frees_each_interior_gradient_once_used(rng):
    p = ag.parameter(rng.normal(size=(100, 100)))
    w = ag.constant(np.full((100, 100), 0.99))
    x = p
    for _ in range(100):
        x = ag.mul(x, w)
    loss = ag.reduce_sum(x)
    tracemalloc.start()
    try:
        g = ag.grad(loss, {"p": p})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.allclose(g["p"], 0.99 ** 100)
    # held until the graph died, the chain's gradients would be 100 arrays
    assert peak < 10 * p.data.nbytes, peak / p.data.nbytes


def test_grad_twice_on_one_loss_gives_equal_gradients(rng):
    p = ag.parameter(rng.normal(size=(3, 4)))
    q = ag.parameter(rng.normal(size=(4,)))
    h = ag.exp(ag.mul(p, q))
    loss = ag.reduce_sum(ag.mul(h, h))
    first = ag.grad(loss, {"p": p, "q": q})
    second = ag.grad(loss, {"p": p, "q": q})
    assert first.keys() == second.keys()
    for name in first:
        assert np.array_equal(first[name], second[name]), name


def test_grad_for_an_interior_node_is_kept(rng):
    p = ag.parameter(rng.normal(size=(2, 3)))
    h = ag.mul(p, p)
    g = ag.grad(ag.reduce_sum(ag.mul(h, 3.0)), {"h": h, "p": p})
    assert np.array_equal(g["h"], np.full((2, 3), 3.0))
    assert np.allclose(g["p"], 6.0 * p.data)


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


def conv_reference(x, k, b):
    """The unblocked causal convolution: one full-size product per tap."""
    L, w = x.shape[1], k.shape[0]
    out = np.broadcast_to(b, x.shape).astype(x.dtype).copy()
    for kk in range(w):
        shift = w - 1 - kk
        if shift < L:
            out[:, shift:] += k[kk] * x[:, :L - shift]
    return out


def conv_reference_grads(x, k, g):
    """Gradients of sum(g * conv(x, k, b)) for x, k and b, tap by tap."""
    L, w = x.shape[1], k.shape[0]
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for kk in range(w):
        shift = w - 1 - kk
        if shift < L:
            gx[:, :L - shift] += k[kk] * g[:, shift:]
            gk[kk] = np.sum(g[:, shift:] * x[:, :L - shift], axis=(0, 1))
    return gx, gk, g.sum(axis=(0, 1))


# (m, L, C, w, dtype): L > w, L < w, L = 1, w = 1, float32, and the
# extension's (m, w, C) window
CONV_CASES = [(7, 5, 3, 4, np.float64), (7, 2, 3, 4, np.float64),
              (7, 1, 3, 4, np.float64), (7, 5, 3, 1, np.float64),
              (7, 5, 3, 4, np.float32), (7, 4, 3, 4, np.float64)]


def _conv_inputs(rng, m, L, C, w, dtype):
    return (rng.normal(size=(m, L, C)).astype(dtype), rng.normal(size=(w, C)).astype(dtype),
            rng.normal(size=C).astype(dtype))


@pytest.mark.parametrize("block_bytes", [64, 256, None])
@pytest.mark.parametrize("m, L, C, w, dtype", CONV_CASES)
def test_blocked_conv_equals_the_unblocked_formula(rng, monkeypatch, block_bytes,
                                                   m, L, C, w, dtype):
    # 64 bytes puts one sequence in each block, 256 a few with a partial last
    if block_bytes is not None:
        monkeypatch.setattr(ag, "_BLOCK_BYTES", block_bytes)
    x, k, b = _conv_inputs(rng, m, L, C, w, dtype)
    out = ag.causal_conv1d(ag.constant(x), ag.constant(k), ag.constant(b))
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, conv_reference(x, k, b))


@pytest.mark.parametrize("block_bytes", [64, 256, None])
@pytest.mark.parametrize("m, L, C, w, dtype",
                         [c for c in CONV_CASES if c[4] == np.float64])
def test_blocked_conv_gradients_match_the_unblocked_formula(rng, monkeypatch, block_bytes,
                                                            m, L, C, w, dtype):
    if block_bytes is not None:
        monkeypatch.setattr(ag, "_BLOCK_BYTES", block_bytes)
    x, k, b = (ag.parameter(v) for v in _conv_inputs(rng, m, L, C, w, dtype))
    G = rng.normal(size=(m, L, C))

    def f():
        return ag.reduce_sum(ag.mul(ag.causal_conv1d(x, k, b), ag.constant(G)))

    params = {"x": x, "k": k, "b": b}
    got = ag.grad(f(), params)
    for name, ref in zip(("x", "k", "b"), conv_reference_grads(x.data, k.data, G)):
        np.testing.assert_allclose(got[name], ref, rtol=1e-12, atol=1e-12)
    rep = ag.finite_diff_check(f, params, eps=1e-6, tol=1e-6, n_samples=30, rng=rng)
    assert rep.ok, rep.failures[:3]


def test_structured_primitive_gradients(rng):
    # conv, layer_norm, embedding and integer-array indexing (one step per
    # row, repeated flat indices) under one scalar head
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
        g = ag.reduce_sum(ag.mul(ln[np.arange(m), tidx], ag.constant(wts[1])))
        t = ag.reduce_sum(ag.mul(ag.reshape(ln, (-1,))[flat], ag.constant(wts[2])))
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
        b = ag.softplus(p)
        c = ag.silu(p)
        d = ag.relu(ag.sub(p, 1.0))
        return ag.reduce_sum(ag.add(ag.add(a, b), ag.add(c, d)))

    rep = ag.finite_diff_check(f, {"p": p}, eps=1e-6, tol=1e-6, n_samples=16, rng=rng)
    assert rep.ok, rep.failures


def test_scalar_operand_keeps_float32_dtype():
    x = ag.constant(np.ones(3, dtype=np.float32))
    assert ag.mul(x, 2.0).dtype == np.float32
    assert ag.add(x, 1).dtype == np.float32
