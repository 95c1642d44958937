import numpy as np

from mrparse import autograd as ag
from mrparse.autograd import Tensor
from mrparse.nn import BiLSTM, LSTMCell
from mrparse.vocab import PAD, UNK, Vocab


def test_state_arrays_names_every_parameter():
    model = BiLSTM(3, 4, 2, np.random.default_rng(0))
    state = model.state_arrays()
    assert sorted(state) == [name for name, _ in model.named_parameters()]
    assert all(state[name] is p.data for name, p in model.named_parameters())


def test_lstm_step_passes_float64_grad_check():
    rng = np.random.default_rng(0)
    cell = LSTMCell(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    mix = Tensor(rng.normal(size=(2, 4)))

    def loss():
        h2, c2 = cell.step(x, h, c)
        return ag.tsum(ag.add(ag.mul(h2, mix), ag.mul(c2, c2)))

    assert cell.w.data.dtype == np.float64
    assert ag.grad_check(loss, [cell.w, cell.b, x, h, c]) <= 1e-6


def test_vocab_build_orders_by_count_then_string():
    v = Vocab.build(["b", "c", "a", "c", "b", "d", "c"])
    assert v.entries == [PAD, UNK, "c", "b", "a", "d"]
    assert [v.index(e) for e in ("c", "b", "a", "d")] == [2, 3, 4, 5]
    assert v.index("unseen") == v.index(UNK)
