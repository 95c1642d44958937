"""Tensor engine tests: forward values against naive references, gradients
against central differences."""

import numpy as np
import pytest

from helpers import sentence
from mrparse import autograd as ag
from mrparse.autograd import Tensor
from mrparse.nn.encoder import EncoderConfig, SentenceEncoder, build_token_vocabs


def test_matmul_identity():
    a = np.arange(12, dtype=float).reshape(3, 4)
    out = ag.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    assert repr(x) == "Tensor(shape=(2, 3), requires_grad=True)"
    ag.backward(ag.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sigmoid_closed_form():
    w = Tensor(0.3, requires_grad=True)
    c = 2.5
    ag.backward(ag.mul(ag.sigmoid(w), Tensor(c)))
    s = 1.0 / (1.0 + np.exp(-0.3))
    np.testing.assert_allclose(w.grad, c * s * (1 - s), rtol=1e-12)


def test_three_layer_composition_matches_fd():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w3 = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 4)))

    def f():
        h = ag.tanh(ag.matmul(x, w1))
        h = ag.sigmoid(ag.matmul(h, w2))
        return ag.tsum(ag.matmul(h, w3))

    assert ag.grad_check(f, [w1, w2, w3]) <= 1e-6


def test_grad_check_linear_is_tight():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

    def f():
        return ag.tsum(ag.mul(w, Tensor(np.full(3, 4.0))))

    assert ag.grad_check(f, [w]) <= 1e-10


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ag.ShapeError) as ei:
        ag.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(ei.value) and "(4, 5)" in str(ei.value)
    with pytest.raises(ag.ShapeError) as ei:
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(ei.value) and "(4, 5)" in str(ei.value)


def test_mul_refuses_operands_of_different_shapes():
    # mul does not broadcast: (3,) against (2, 3) is refused, not spread
    with pytest.raises(ag.ShapeError, match=r"^mul shapes \(2, 3\) vs \(3,\)$"):
        ag.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("a, b", [((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 3))])
def test_matmul_rejects_operands_that_are_not_2d(a, b):
    with pytest.raises(ag.ShapeError, match="2-D"):
        ag.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def test_forward_independent_of_grad_tracking():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def run(track):
        xt = Tensor(x, requires_grad=track)
        wt = Tensor(w, requires_grad=track)
        return ag.sigmoid(ag.tanh(ag.matmul(xt, wt))).data

    np.testing.assert_array_equal(run(True), run(False))
    with ag.no_grad():
        tracked = Tensor(x, requires_grad=True)
        out = ag.tanh(tracked)
    assert out._backward is None


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ag.ShapeError):
        ag.backward(ag.tanh(x))


def _op_cases(rng):
    a2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    row = Tensor(rng.normal(size=(4,)), requires_grad=True)
    m1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    t3 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 1])
    return [
        ("add", [a2, b2], lambda: ag.tsum(ag.add(a2, b2))),
        ("add_bias_broadcast", [a2, row], lambda: ag.tsum(ag.add(a2, row))),
        ("mul", [a2, b2], lambda: ag.tsum(ag.mul(a2, b2))),
        ("matmul_22", [a2, m1], lambda: ag.tsum(ag.matmul(a2, m1))),
        ("take_slice", [t3], lambda: ag.tsum(ag.take(t3, (slice(None), 1)))),
        ("take_rows", [a2], lambda: ag.tsum(ag.take(a2, idx))),
        ("reshape", [t3], lambda: ag.tsum(ag.reshape(t3, (6, 4)))),
        ("concat", [a2, b2], lambda: ag.tsum(ag.mul(ag.concat([a2, b2], axis=1), ag.concat([b2, a2], axis=1)))),
        ("tanh", [a2], lambda: ag.tsum(ag.tanh(a2))),
        ("sigmoid", [a2], lambda: ag.tsum(ag.sigmoid(a2))),
    ]


@pytest.mark.parametrize("seed", range(100))
def test_every_op_passes_grad_check(seed):
    rng = np.random.default_rng(seed)
    name, params, f = _op_cases(rng)[seed % len(_op_cases(rng))]
    err = ag.grad_check(f, params)
    assert err <= 1e-4, f"op {name} grad error {err}"


def test_all_ops_each_get_checked():
    # every case above at least once, independent of the seed rotation
    rng = np.random.default_rng(1234)
    for name, params, f in _op_cases(rng):
        err = ag.grad_check(f, params)
        assert err <= 1e-4, f"op {name} grad error {err}"


def test_grad_accumulates_over_shared_use():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ag.add(ag.mul(x, x), ag.mul(x, Tensor(np.full(2, 3.0))))  # x^2 + 3x
    ag.backward(ag.tsum(y))
    np.testing.assert_allclose(x.grad, 2 * x.data + 3.0)


def test_second_backward_on_same_graph_accumulates_once_more():
    w = Tensor(np.array(1.0), requires_grad=True)
    z = ag.add(ag.mul(w, Tensor(2.0)), Tensor(0.0))
    ag.backward(z)
    ag.backward(z)
    assert w.grad == 4.0


def test_item_of_a_size_one_tensor_of_any_shape():
    assert Tensor(np.ones((1, 1))).item() == 1.0
    assert Tensor([2.5]).item() == 2.5
    assert isinstance(Tensor(3.0).item(), float)


def test_grad_check_of_a_loss_shaped_1_by_1():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 3)))
    assert ag.grad_check(lambda: ag.tanh(ag.matmul(x, w)), [w]) <= 1e-6


def _graph(loss):
    """Every tensor `loss` was computed from, itself included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def _assert_gradients_owned(loss):
    """After `backward`, no leaf's gradient shares memory with another
    tensor's gradient or with any tensor's data, and writing into one leaf's
    gradient leaves every other gradient as it was."""
    tensors = _graph(loss)
    leaves = [t for t in tensors if not t._parents and t.grad is not None]
    assert leaves
    for leaf in leaves:
        for t in tensors:
            assert not np.shares_memory(leaf.grad, t.data)
            if t is not leaf and t.grad is not None:
                assert not np.shares_memory(leaf.grad, t.grad)
    for leaf in leaves:
        before = {id(t): t.grad.copy() for t in tensors if t.grad is not None}
        leaf.grad += 1.0
        for t in tensors:
            if t is not leaf and t.grad is not None:
                np.testing.assert_array_equal(t.grad, before[id(t)])
        leaf.grad[...] = before[id(leaf)]


def test_backward_gives_every_leaf_its_own_gradient():
    for name, params, f in _op_cases(np.random.default_rng(21)):
        for p in params:
            p.zero_grad()
        loss = f()
        ag.backward(loss)
        _assert_gradients_owned(loss)


def test_lstm_sequence_gives_every_leaf_its_own_gradient():
    rng = np.random.default_rng(22)
    X = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    W1, W2 = (Tensor(rng.normal(size=(5, 12)), requires_grad=True) for _ in range(2))
    b1, b2 = (Tensor(rng.normal(size=(12,)), requires_grad=True) for _ in range(2))
    for directions in ([(W1, b1, False)], [(W1, b1, True)], [(W1, b1, False), (W2, b2, True)]):
        for t in (X, W1, b1, W2, b2):
            t.zero_grad()
        out = ag.lstm_sequence(X, directions)
        loss = ag.tsum(ag.mul(out, Tensor(rng.normal(size=out.shape))))
        ag.backward(loss)
        _assert_gradients_owned(loss)
    # the two directions' weight gradients are separate arrays
    assert W1.grad is not None and W2.grad is not None
    assert not np.shares_memory(W1.grad, W2.grad)


def test_zero_grad_hands_the_gradient_back_for_the_next_backward():
    """Every encoder parameter is an LSTM weight or bias or an embedding
    table: after `zero_grad`, the next backward writes its first gradient
    into the array it held, with the values that fresh parameters get. A
    gradient that `zero_grad` did not drop is accumulated into."""
    cfg = EncoderConfig(word_dim=4, pos_dim=2, lemma_dim=3, char_dim=2, char_hidden=3, ner_dim=2,
                        hidden=3, layers=2)
    sents = [sentence("the dogs barked"), sentence("a cat sat on it", tags="O O O O DATE"),
             sentence("Dogs bark")]
    vocabs = build_token_vocabs(sents[:2])

    def encoder():
        return SentenceEncoder(cfg, vocabs, np.random.default_rng(24))

    enc = encoder()
    params = enc.parameters()
    held = None
    for sent in sents:
        for p in params:
            p.zero_grad()
        loss = ag.tsum(enc.encode(sent)[0])
        ag.backward(loss)
        if held is not None:
            assert all(p.grad is g for p, g in zip(params, held))
        held = [p.grad for p in params]
        fresh = encoder()
        ag.backward(ag.tsum(fresh.encode(sent)[0]))
        for (name, p), q in zip(enc.named_parameters(), fresh.parameters()):
            assert np.array_equal(p.grad, q.grad), name
        _assert_gradients_owned(loss)
    ag.backward(loss)
    ag.backward(ag.tsum(fresh.encode(sent)[0]))
    for (name, p), g, q in zip(enc.named_parameters(), held, fresh.parameters()):
        assert p.grad is g and np.array_equal(p.grad, q.grad), name


def test_a_spare_of_another_shape_is_not_written_into():
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    ag.backward(ag.tsum(ag.take(table, np.array([0, 0]))))
    table.zero_grad()
    table.data = np.ones((4, 2))
    ag.backward(ag.tsum(ag.take(table, np.array([3]))))
    np.testing.assert_array_equal(table.grad, [[0, 0], [0, 0], [0, 0], [1, 1]])


def test_take_scatters_into_the_table_gradient():
    rng = np.random.default_rng(23)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    rows1, rows2 = np.array([0, 2, 2, 5, 0]), np.array([2, 1, 2])
    w1, w2, w3 = rng.normal(size=(5, 3)), rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
    loss = ag.add(ag.add(ag.tsum(ag.mul(ag.take(table, rows1), Tensor(w1))),
                         ag.tsum(ag.mul(ag.take(table, rows2), Tensor(w2)))),
                  ag.tsum(ag.mul(ag.take(table, slice(3, 5)), Tensor(w3))))
    ref = np.zeros((6, 3))
    np.add.at(ref, rows1, w1)
    np.add.at(ref, rows2, w2)
    np.add.at(ref, slice(3, 5), w3)
    ag.backward(loss)
    np.testing.assert_allclose(table.grad, ref, rtol=0, atol=1e-15)
    # a second backward scatters into the gradient the table already holds
    ag.backward(loss)
    np.testing.assert_allclose(table.grad, 2 * ref, rtol=0, atol=1e-15)
    _assert_gradients_owned(loss)
