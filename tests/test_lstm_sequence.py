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
