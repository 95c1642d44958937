"""The fused LSTM op and the encoders built on it, against the per-step
tape: `LSTMCell.step` called once per position, each call recording its
matmul, gate slices, sigmoids and products as separate tape nodes."""

import numpy as np
import pytest

from mrparse import autograd as ag
from mrparse.autograd import Tensor
from mrparse.companion import read_companion
from mrparse.nn import CharEncoder, LSTMCell
from mrparse.nn.encoder import EncoderConfig, SentenceEncoder, build_token_vocabs

LENGTHS = [5, 2, 0, 4]


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
    xs = Tensor(rng.normal(size=(len(LENGTHS), max(LENGTHS), 3)), requires_grad=True)
    mix = Tensor(rng.normal(size=(len(LENGTHS), max(LENGTHS), 4)))
    return cell, xs, mix


@pytest.mark.parametrize("reverse", [False, True])
def test_forward_matches_tape_reference(reverse):
    cell, xs, _ = _setup()
    hs = cell.run(xs, lengths=LENGTHS, reverse=reverse).data
    assert hs.shape == (4, 5, 4)
    for k, n in enumerate(LENGTHS):
        if n:
            ref, _ = tape_run(cell, xs[k, :n], reverse)
            np.testing.assert_allclose(hs[k, :n], ref.data, rtol=0, atol=1e-12)
        # padding carries the state: the last valid one going forwards,
        # the zero state going backwards
        carried = hs[k, n - 1] if n and not reverse else np.zeros(4)
        np.testing.assert_array_equal(hs[k, n:], np.broadcast_to(carried, hs[k, n:].shape))
    full = cell.run(xs, reverse=reverse).data
    np.testing.assert_allclose(full[0], cell.run(xs[0:1], reverse=reverse).data[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(full[1], tape_run(cell, xs[1], reverse)[0].data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_gradients_pass_float64_grad_check(reverse):
    cell, xs, mix = _setup(1)

    def loss():
        return ag.tsum(ag.mul(cell.run(xs, lengths=LENGTHS, reverse=reverse), mix))

    assert ag.grad_check(loss, [cell.w, cell.b, xs]) <= 1e-6


@pytest.mark.parametrize("reverse", [False, True])
def test_gradients_match_tape_reference(reverse):
    cell, xs, mix = _setup(2)
    # the tape sees valid positions only, so the loss weighs no padding
    mix = Tensor(mix.data * (np.arange(5) < np.array(LENGTHS)[:, None])[:, :, None])
    params = [cell.w, cell.b, xs]
    ag.backward(ag.tsum(ag.mul(cell.run(xs, lengths=LENGTHS, reverse=reverse), mix)))
    fused = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    terms = [ag.tsum(ag.mul(tape_run(cell, xs[k, :n], reverse)[0], mix[k, :n]))
             for k, n in enumerate(LENGTHS) if n]
    loss = terms[0]
    for term in terms[1:]:
        loss = ag.add(loss, term)
    ag.backward(loss)
    for p, g in zip(params, fused):
        np.testing.assert_allclose(g, p.grad, rtol=1e-12, atol=1e-14)
    assert not xs.grad[2].any() and not xs.grad[1, 2:].any()  # padding gets nothing


def test_no_grad_records_nothing_and_matches_taped_forward():
    cell, xs, _ = _setup()
    taped = cell.run(xs, lengths=LENGTHS, reverse=True)
    assert taped._backward is not None
    with ag.no_grad():
        out = cell.run(xs, lengths=LENGTHS, reverse=True)
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
    mix = Tensor(rng.normal(size=(len(LENGTHS), max(LENGTHS), 8)))
    return (cell, other), xs, mix


def _both(cells, xs, order, lengths=LENGTHS):
    return ag.lstm_sequence(xs, [(c.w, c.b, r) for c, r in zip(cells, order)], lengths=lengths)


@pytest.mark.parametrize("order", ORDERS)
def test_two_directions_match_two_tape_runs(order):
    cells, xs, mix = _setup_pair(3)
    # the tape sees valid positions only, so the loss weighs no padding
    mix = Tensor(mix.data * (np.arange(5) < np.array(LENGTHS)[:, None])[:, :, None])
    params = [cells[0].w, cells[0].b, cells[1].w, cells[1].b, xs]
    out = _both(cells, xs, order)
    assert out.shape == (4, 5, 8)
    ag.backward(ag.tsum(ag.mul(out, mix)))
    fused = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    terms = []
    for k, n in enumerate(LENGTHS):
        if n:
            ref = ag.concat([tape_run(c, xs[k, :n], r)[0] for c, r in zip(cells, order)], axis=1)
            np.testing.assert_allclose(out.data[k, :n], ref.data, rtol=0, atol=1e-12)
            terms.append(ag.tsum(ag.mul(ref, mix[k, :n])))
    loss = terms[0]
    for term in terms[1:]:
        loss = ag.add(loss, term)
    ag.backward(loss)
    for p, g in zip(params, fused):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ORDERS)
def test_each_direction_pads_by_its_own_rule(order):
    """Within one call, a row keeps its last valid state going forwards and
    the zero state going backwards."""
    cells, xs, _ = _setup_pair(4)
    hs = _both(cells, xs, order).data.reshape(4, 5, 2, 4)
    for d, reverse in enumerate(order):
        alone = cells[d].run(xs, lengths=LENGTHS, reverse=reverse).data
        np.testing.assert_allclose(hs[:, :, d], alone, rtol=0, atol=1e-15)
        for k, n in enumerate(LENGTHS):
            carried = hs[k, n - 1, d] if n and not reverse else np.zeros(4)
            np.testing.assert_array_equal(hs[k, n:, d], np.broadcast_to(carried, hs[k, n:, d].shape))


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
    out = ag.lstm_sequence(xs, [(W1, b1, False), (W2, b2, True)], lengths=[3, 2])
    # forwards c = i * cand = sign, so h = o * tanh(c); backwards every gate
    # reads -sign: with sign 1 all are shut, with -1 open and c grows by 1
    h1 = np.tanh(1.0) if sign > 0 else 0.0
    h2 = 0.0 if sign > 0 else np.tanh(np.array([[3.0, 2.0, 1.0], [2.0, 1.0, 0.0]]))
    np.testing.assert_array_equal(out.data[:, :, :nh], np.broadcast_to(h1, (2, 3, nh)))
    np.testing.assert_array_equal(out.data[:, :, nh:], np.broadcast_to(np.asarray(h2)[..., None], (2, 3, nh)))
    ag.backward(ag.tsum(out))
    for t in (xs, W1, b1, W2, b2):
        assert np.isfinite(t.grad).all()
        np.testing.assert_array_equal(t.grad, 0.0)


def test_char_encoder_batch_matches_one_tape_run_per_word():
    rng = np.random.default_rng(3)
    enc = CharEncoder(10, 3, 4, rng)
    words = [[1, 2, 3], [4], [], [5, 6, 7, 8, 9], [2, 2]]
    out = enc(words)
    assert out.shape == (5, 4)
    for k, w in enumerate(words):
        if w:
            _, (h, _) = tape_run(enc.cell, enc.emb(w))
            np.testing.assert_allclose(out.data[k], h.data[0], rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(out.data[k], np.zeros(4))


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
    monkeypatch.setattr(enc, "char_enc", _Tape(_tape_chars, enc.char_enc))
    monkeypatch.setattr(enc, "bilstm", _Tape(_tape_bilstm, enc.bilstm))
    ref, _ = enc.encode(sent)
    np.testing.assert_allclose(r.data, ref.data, rtol=0, atol=1e-12)
    ag.backward(ag.tsum(ag.mul(ref, mix)))
    for (name, p), g in zip(enc.named_parameters(), fused):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12, err_msg=name)
