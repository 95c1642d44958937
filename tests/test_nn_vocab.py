import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_vocab_lines_roundtrip_keeps_entries_counts_and_reserved():
    words = ["x", "y", "x", "z z"]
    # ordinary entries spelled like special names stay ordinary, and an
    # empty form's entry survives
    for items, reserved in [(words, (PAD, UNK)), (words, (PAD, UNK, "<s>", "</s>")), (words, ()),
                            (["<s>", "<s>", "x"], ()), ([UNK, "x"], (PAD,)), (["", "x", " "], (PAD, UNK))]:
        v = Vocab.build(items, reserved=reserved)
        back = Vocab.from_lines(v.to_lines())
        assert back.entries == v.entries
        assert back.reserved == v.reserved
        assert {e: back.counts.get(e, 0) for e in back.entries} == \
            {e: v.counts.get(e, 0) for e in v.entries}
        assert [back.index(e) for e in v.entries] == list(range(len(v)))


@given(st.lists(st.text(max_size=4), max_size=8), st.lists(st.text(max_size=4), max_size=3, unique=True))
def test_vocab_lines_roundtrip_property(items, reserved):
    v = Vocab.build(items, reserved=reserved)
    back = Vocab.from_lines(v.to_lines())
    assert (back.entries, back.reserved) == (v.entries, v.reserved)
    assert back.counts == {e: v.counts.get(e, 0) for e in v.entries}


@pytest.mark.parametrize("lines, want", [
    ([], "^Vocab: line 1: no number"),
    (["", "two"], "^Vocab: line 2: invalid literal"),
    (["0", "a\t1", "b1"], "^Vocab: line 3: not enough values"),
    (["0", "a\tx"], "^Vocab: line 2: invalid literal"),
    (["3", "a\t1"], "^Vocab: line 1: 3 reserved of 1 entries"),
    (["-1", "a\t1"], "^Vocab: line 1: -1 reserved"),
])
def test_vocab_malformed_line_names_class_and_line(lines, want):
    with pytest.raises(ValueError, match=want):
        Vocab.from_lines(lines)
