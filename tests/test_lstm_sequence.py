"""The fused LSTM op and the encoders built on it, against the per-step
tape: `LSTMCell.step` called once per position, each call recording its
matmul, gate slices, sigmoids and products as separate tape nodes."""

import numpy as np
import pytest

from mrparse import autograd as ag
from mrparse.autograd import Tensor
from mrparse.companion import read_companion
from mrparse.nn.core import CharEncoder, LSTMCell
from mrparse.nn.encoder import EncoderConfig, SentenceEncoder, build_token_vocabs

# The per-step `LSTMCell.run` that `lstm_sequence` replaced, kept as the
# reference: rows of xs (n, n_in) one at a time from a zero state.


def tape_run(cell, xs, reverse=False):
    n = xs.shape[0]
    h = Tensor(np.zeros((1, cell.n_hidden)))
    c = Tensor(np.zeros((1, cell.n_hidden)))
    outs = [None] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        h, c = cell.step(xs[t:t + 1], h, c)
        outs[t] = h
    return ag.concat(outs, axis=0), (h, c)


def _setup(seed=0):
    """A cell with 3 inputs and 4 hidden units, a (4, 5, 3) batch and loss
    weights for its output."""
    rng = np.random.default_rng(seed)
    cell = LSTMCell(3, 4, rng)
    xs = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
    mix = Tensor(rng.normal(size=(4, 5, 4)))
    return cell, xs, mix


def _one(cell, xs, reverse):
    return ag.lstm_sequence(xs, [(cell.w, cell.b, reverse)])


def _tape_loss(terms):
    loss = terms[0]
    for term in terms[1:]:
        loss = ag.add(loss, term)
    return loss


@pytest.mark.parametrize("reverse", [False, True])
def test_forward_matches_tape_reference(reverse):
    cell, xs, _ = _setup()
    hs = _one(cell, xs, reverse).data
    assert hs.shape == (4, 5, 4)
    for k in range(4):
        ref, _ = tape_run(cell, xs[k], reverse)
        np.testing.assert_allclose(hs[k], ref.data, rtol=0, atol=1e-12)
    if not reverse:
        np.testing.assert_array_equal(cell.run(xs).data, hs)


@pytest.mark.parametrize("reverse", [False, True])
def test_gradients_pass_float64_grad_check(reverse):
    cell, xs, mix = _setup(1)

    def loss():
        return ag.tsum(ag.mul(_one(cell, xs, reverse), mix))

    assert ag.grad_check(loss, [cell.w, cell.b, xs]) <= 1e-6


@pytest.mark.parametrize("reverse", [False, True])
def test_gradients_match_tape_reference(reverse):
    cell, xs, mix = _setup(2)
    params = [cell.w, cell.b, xs]
    ag.backward(ag.tsum(ag.mul(_one(cell, xs, reverse), mix)))
    fused = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    ag.backward(_tape_loss([ag.tsum(ag.mul(tape_run(cell, xs[k], reverse)[0], mix[k]))
                            for k in range(4)]))
    for p, g in zip(params, fused):
        np.testing.assert_allclose(g, p.grad, rtol=1e-12, atol=1e-14)


def test_no_grad_records_nothing_and_matches_taped_forward():
    cell, xs, _ = _setup()
    taped = _one(cell, xs, True)
    assert taped._backward is not None
    with ag.no_grad():
        out = _one(cell, xs, True)
    assert out._parents == () and out._backward is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, taped.data)


def test_rejects_unbatched_input():
    cell, xs, _ = _setup()
    with pytest.raises(ag.ShapeError, match=r"\(B, T, n_in\)"):
        cell.run(xs[0])


def test_rejects_directions_whose_weights_disagree():
    rng = np.random.default_rng(0)
    cell, xs, _ = _setup()
    other = LSTMCell(3, 5, rng)
    with pytest.raises(ag.ShapeError, match=r"W \[\(7, 16\), \(8, 20\)\]"):
        ag.lstm_sequence(xs, [(cell.w, cell.b, False), (other.w, other.b, True)])


ORDERS = [(False, True), (True, False)]


def _setup_pair(seed=0):
    """Two cells with 3 inputs and 4 hidden units, a (4, 5, 3) batch and
    loss weights for their (4, 5, 8) output."""
    cell, xs, _ = _setup(seed)
    rng = np.random.default_rng(seed + 100)
    other = LSTMCell(3, 4, rng)
    mix = Tensor(rng.normal(size=(4, 5, 8)))
    return (cell, other), xs, mix


def _both(cells, xs, order):
    return ag.lstm_sequence(xs, [(c.w, c.b, r) for c, r in zip(cells, order)])


@pytest.mark.parametrize("order", ORDERS)
def test_two_directions_match_two_tape_runs(order):
    cells, xs, mix = _setup_pair(3)
    params = [cells[0].w, cells[0].b, cells[1].w, cells[1].b, xs]
    out = _both(cells, xs, order)
    assert out.shape == (4, 5, 8)
    ag.backward(ag.tsum(ag.mul(out, mix)))
    fused = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    terms = []
    for k in range(4):
        ref = ag.concat([tape_run(c, xs[k], r)[0] for c, r in zip(cells, order)], axis=1)
        np.testing.assert_allclose(out.data[k], ref.data, rtol=0, atol=1e-12)
        terms.append(ag.tsum(ag.mul(ref, mix[k])))
    ag.backward(_tape_loss(terms))
    for p, g in zip(params, fused):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ORDERS)
def test_two_directions_pass_float64_grad_check(order):
    cells, xs, mix = _setup_pair(5)
    params = [cells[0].w, cells[0].b, cells[1].w, cells[1].b, xs]
    assert ag.grad_check(lambda: ag.tsum(ag.mul(_both(cells, xs, order), mix)), params) <= 1e-6


def test_two_directions_under_no_grad_keep_no_backward_cache():
    cells, xs, _ = _setup_pair()
    taped = _both(cells, xs, ORDERS[0])
    assert taped._backward is not None and len(taped._parents) == 5
    with ag.no_grad():
        out = _both(cells, xs, ORDERS[0])
    assert out._parents == () and out._backward is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, taped.data)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_saturated_gates_stay_finite(sign):
    """Pre-activations of +-1e3: every gate saturates to exactly 0 or 1 (and
    the candidate to +-1) with no overflow, and every gradient is finite and,
    the slopes being 0, exactly 0."""
    rng = np.random.default_rng(6)
    nh = 4
    xs = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    W1, W2 = (Tensor(np.zeros((3 + nh, 4 * nh)), requires_grad=True) for _ in range(2))
    # input, candidate and output gates open; forget gate shut
    b1 = Tensor(np.repeat([1e3, -1e3, 1e3, 1e3], nh) * sign, requires_grad=True)
    b2 = Tensor(np.full(4 * nh, -1e3 * sign), requires_grad=True)
    out = ag.lstm_sequence(xs, [(W1, b1, False), (W2, b2, True)])
    # forwards c = i * cand = sign, so h = o * tanh(c); backwards every gate
    # reads -sign: with sign 1 all are shut, with -1 open and c grows by 1
    h1 = np.tanh(1.0) if sign > 0 else 0.0
    h2 = 0.0 if sign > 0 else np.tanh(np.array([3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(out.data[:, :, :nh], np.broadcast_to(h1, (2, 3, nh)))
    np.testing.assert_array_equal(out.data[:, :, nh:], np.broadcast_to(np.asarray(h2)[..., None], (2, 3, nh)))
    ag.backward(ag.tsum(out))
    for t in (xs, W1, b1, W2, b2):
        assert np.isfinite(t.grad).all()
        np.testing.assert_array_equal(t.grad, 0.0)


CHAR_WORDS = [[1, 2, 3], [4], [], [5, 6, 7, 8, 9], [2, 2]]


def _char_setup(seed):
    """A character encoder over 10 characters (index 0 pads) and loss
    weights for its output on `CHAR_WORDS`."""
    rng = np.random.default_rng(seed)
    enc = CharEncoder(10, 3, 4, rng)
    return enc, Tensor(rng.normal(size=(len(CHAR_WORDS), 4)))


def test_char_encoder_batch_matches_one_tape_run_per_word():
    enc, mix = _char_setup(3)
    out = enc(CHAR_WORDS)
    assert out.shape == (5, 4)
    np.testing.assert_array_equal(out.data[2], np.zeros(4))
    ag.backward(ag.tsum(ag.mul(out, mix)))
    fused = {name: p.grad.copy() for name, p in enc.named_parameters()}
    assert not fused["emb.table"][0].any()  # the padding gets nothing
    for p in enc.parameters():
        p.zero_grad()
    ref = _tape_chars(enc, CHAR_WORDS)
    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
    ag.backward(ag.tsum(ag.mul(ref, mix)))
    for name, p in enc.named_parameters():
        np.testing.assert_allclose(fused[name], p.grad, rtol=0, atol=1e-12, err_msg=name)


def test_char_encoder_passes_float64_grad_check():
    """A ragged batch with an empty word, every parameter coordinate."""
    enc, mix = _char_setup(4)
    assert ag.grad_check(lambda: ag.tsum(ag.mul(enc(CHAR_WORDS), mix)), enc.parameters()) <= 1e-6


def _encoder(doc):
    sents = read_companion(doc)
    cfg = EncoderConfig(word_dim=4, pos_dim=2, lemma_dim=2, char_dim=3, char_hidden=5,
                        ner_dim=2, hidden=3, layers=1)
    return SentenceEncoder(cfg, build_token_vocabs(sents), np.random.default_rng(0)), sents


@pytest.mark.parametrize("doc, empty", [
    ("1\tDogs\tdog\tNNS\t_\n2\t\t\tXX\t_\n3\tbark\tbark\tVBP\t_\n", [1]),
    ("1\t\t\tXX\t_\n2\t\t\tXX\t_\n", [0, 1]),
])
def test_token_with_empty_form_gets_zero_character_state(doc, empty):
    enc, [sent] = _encoder(doc)
    r, _ = enc.encode(sent)
    assert r.shape == (len(sent.tokens), 6) and np.isfinite(r.data).all()
    chars = enc.embed_sentence(sent).data[:, 8:13]
    for k in range(len(sent.tokens)):
        assert (not chars[k].any()) == (k in empty)


class _Tape:
    """Stands in for an encoder sub-module, computing its output from the
    same parameters on the per-step tape."""

    def __init__(self, fn, module):
        self.fn, self.module = fn, module

    def __call__(self, x):
        return self.fn(self.module, x)


def _tape_chars(char_enc, words):
    rows = [tape_run(char_enc.cell, char_enc.emb(w))[1][0] if w
            else Tensor(np.zeros((1, char_enc.cell.n_hidden))) for w in words]
    return ag.concat(rows, axis=0)


def _tape_bilstm(bilstm, xs):
    for fwd, bwd in bilstm.cells:
        xs = ag.concat([tape_run(fwd, xs)[0], tape_run(bwd, xs, reverse=True)[0]], axis=1)
    return xs


def test_sentence_encoder_matches_one_tape_run_per_word_and_direction(monkeypatch):
    doc = ("1\tThe\tthe\tDT\t_\n2\tbig\tbig\tJJ\t_\n3\t\t\tXX\t_\n"
           "4\tdogs\tdog\tNNS\t_\n5\tbarked\tbark\tVBD\t_\n")
    [sent] = read_companion(doc)
    cfg = EncoderConfig(word_dim=4, pos_dim=2, lemma_dim=2, char_dim=3, char_hidden=5,
                        ner_dim=2, hidden=3, layers=2)
    enc = SentenceEncoder(cfg, build_token_vocabs([sent]), np.random.default_rng(7))
    params = enc.parameters()
    mix = Tensor(np.random.default_rng(8).normal(size=(len(sent.tokens), cfg.output_width)))
    r, _ = enc.encode(sent)
    ag.backward(ag.tsum(ag.mul(r, mix)))
    fused = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    named = list(enc.named_parameters())  # before the stand-ins, which are no Module
    monkeypatch.setattr(enc, "char", _Tape(_tape_chars, enc.char))
    monkeypatch.setattr(enc, "bilstm", _Tape(_tape_bilstm, enc.bilstm))
    ref, _ = enc.encode(sent)
    np.testing.assert_allclose(r.data, ref.data, rtol=0, atol=1e-12)
    ag.backward(ag.tsum(ag.mul(ref, mix)))
    for (name, p), g in zip(named, fused):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12, err_msg=name)
