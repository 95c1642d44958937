"""Tensor engine tests: forward values against naive references, gradients
against central differences."""

import numpy as np
import pytest

from mrparse import autograd as ag
from mrparse.autograd import Tensor


def test_softmax_symmetry():
    y = ag.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(y.data, [0.5, 0.5], atol=1e-15)


def test_softmax_no_overflow():
    # log-space evaluation: exp(1000) would overflow a direct softmax
    y = ag.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data[0], 1.0, atol=1e-12)
    assert y.data[1] < 1e-300


def test_softmax_matches_logspace_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=rng.uniform(0.1, 300.0), size=7)
        y = ag.softmax(Tensor(x)).data
        ref = np.exp(x - (np.max(x. real) + np.log(np.exp(x - np.max(x)).sum())))
        np.testing.assert_allclose(y, ref, atol=1e-12)
        assert abs(y.sum() - 1.0) < 1e-9


def test_matmul_identity():
    a = np.arange(12, dtype=float).reshape(3, 4)
    out = ag.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    ag.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sigmoid_closed_form():
    w = Tensor(0.3, requires_grad=True)
    c = 2.5
    (ag.sigmoid(w) * c).backward()
    s = 1.0 / (1.0 + np.exp(-0.3))
    np.testing.assert_allclose(w.grad, c * s * (1 - s), rtol=1e-12)


def test_three_layer_composition_matches_fd():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w3 = Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = Tensor(rng.normal(size=(4,)))

    def f():
        h = ag.tanh(ag.matmul(x, w1))
        h = ag.sigmoid(ag.matmul(h, w2))
        return ag.tsum(ag.matmul(h, w3))

    assert ag.grad_check(f, [w1, w2, w3]) <= 1e-6


def test_grad_check_linear_is_tight():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

    def f():
        return ag.tsum(w * 4.0)

    assert ag.grad_check(f, [w]) <= 1e-10


def test_triple_product_reduce_matches_loop():
    rng = np.random.default_rng(7)
    a, b, c = rng.normal(size=(3, 6))
    got = ag.triple_product_reduce(Tensor(a), Tensor(b), Tensor(c)).item()
    want = sum(a[d] * b[d] * c[d] for d in range(6))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_einsum_forward_matches_numpy():
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=(3, 4))
    g2 = rng.normal(size=(5, 4))
    g3 = rng.normal(size=(2, 4))
    out = ag.einsum("id,jd,kd->ijk", Tensor(g1), Tensor(g2), Tensor(g3))
    np.testing.assert_allclose(out.data, np.einsum("id,jd,kd->ijk", g1, g2, g3), rtol=1e-12)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ag.ShapeError) as ei:
        ag.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(ei.value) and "(4, 5)" in str(ei.value)
    with pytest.raises(ag.ShapeError) as ei:
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(ei.value) and "(4, 5)" in str(ei.value)


def test_forward_independent_of_grad_tracking():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def run(track):
        xt = Tensor(x, requires_grad=track)
        wt = Tensor(w, requires_grad=track)
        return ag.softmax(ag.tanh(ag.matmul(xt, wt)), axis=-1).data

    np.testing.assert_array_equal(run(True), run(False))
    with ag.no_grad():
        tracked = Tensor(x, requires_grad=True)
        out = ag.tanh(tracked)
    assert out._backward is None


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ag.ShapeError):
        ag.tanh(x).backward()


def _op_cases(rng):
    a2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    row = Tensor(rng.normal(size=(4,)), requires_grad=True)
    m1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=(4,)), requires_grad=True)
    t3 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 1])
    return [
        ("add", [a2, b2], lambda: ag.tsum(ag.add(a2, b2))),
        ("add_bias_broadcast", [a2, row], lambda: ag.tsum(ag.add(a2, row))),
        ("neg", [a2], lambda: ag.tsum(ag.neg(a2))),
        ("mul", [a2, b2], lambda: ag.tsum(ag.mul(a2, b2))),
        ("mul_scalar", [a2], lambda: ag.tsum(ag.mul(a2, 1.7))),
        ("matmul_22", [a2, m1], lambda: ag.tsum(ag.matmul(a2, m1))),
        ("matmul_12", [v, m1], lambda: ag.tsum(ag.matmul(v, m1))),
        ("matmul_21", [m1, v], lambda: ag.tsum(ag.matmul(ag.transpose(m1, (1, 0)), v))),
        ("matmul_11", [v, row], lambda: ag.matmul(v, row)),
        ("einsum_attn", [v, m1], lambda: ag.tsum(ag.einsum("i,ij->j", v, m1))),
        ("einsum_tri", [a2, b2], lambda: ag.tsum(ag.einsum("id,jd->ij", a2, b2))),
        ("take_slice", [t3], lambda: ag.tsum(ag.take(t3, (slice(None), 1)))),
        ("take_rows", [a2], lambda: ag.tsum(ag.take(a2, idx))),
        ("reshape", [t3], lambda: ag.tsum(ag.reshape(t3, (6, 4)))),
        ("transpose", [t3], lambda: ag.tsum(ag.mul(ag.transpose(t3, (2, 0, 1)), ag.transpose(t3, (2, 0, 1))))),
        ("concat", [a2, b2], lambda: ag.tsum(ag.mul(ag.concat([a2, b2], axis=1), ag.concat([b2, a2], axis=1)))),
        ("stack", [v, row], lambda: ag.tsum(ag.mul(ag.stack([v, row]), ag.stack([row, v])))),
        ("sum_axis", [t3], lambda: ag.tsum(ag.mul(ag.tsum(t3, axis=1), ag.tsum(t3, axis=1)))),
        ("tanh", [a2], lambda: ag.tsum(ag.tanh(a2))),
        ("sigmoid", [a2], lambda: ag.tsum(ag.sigmoid(a2))),
        ("relu", [a2], lambda: ag.tsum(ag.relu(a2))),
        ("exp", [a2], lambda: ag.tsum(ag.exp(a2))),
        ("log", [a2], lambda: ag.tsum(ag.log(ag.add(ag.mul(a2, 0.1), Tensor(np.full((3, 4), 3.0)))))),
        ("clamp_min", [a2], lambda: ag.tsum(ag.clamp_min(a2, 0.25))),
        ("softmax", [a2], lambda: ag.tsum(ag.mul(ag.softmax(a2, axis=1), b2))),
        ("log_softmax", [a2], lambda: ag.tsum(ag.mul(ag.log_softmax(a2, axis=1), b2))),
        ("triple", [v, row], lambda: ag.triple_product_reduce(v, row, ag.mul(v, 0.5))),
    ]


@pytest.mark.parametrize("seed", range(100))
def test_every_op_passes_grad_check(seed):
    rng = np.random.default_rng(seed)
    name, params, f = _op_cases(rng)[seed % len(_op_cases(rng))]
    err = ag.grad_check(f, params, rng=np.random.default_rng(seed))
    assert err <= 1e-4, f"op {name} grad error {err}"


def test_all_ops_each_get_checked():
    # every case above at least once, independent of the seed rotation
    rng = np.random.default_rng(1234)
    for name, params, f in _op_cases(rng):
        err = ag.grad_check(f, params, rng=rng)
        assert err <= 1e-4, f"op {name} grad error {err}"


def test_grad_accumulates_over_shared_use():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ag.add(ag.mul(x, x), ag.mul(x, 3.0))  # x^2 + 3x
    ag.tsum(y).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 3.0)


def test_second_backward_on_same_graph_accumulates_once_more():
    w = Tensor(np.array(1.0), requires_grad=True)
    z = ag.add(ag.mul(w, 2.0), 0.0)
    z.backward()
    z.backward()
    assert w.grad == 4.0
