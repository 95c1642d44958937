"""Parameter containers and recurrent building blocks."""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor


class Module:
    """Every `Tensor` attribute is a parameter and every `Module` attribute
    a child, each named by its attribute: `named_parameters` gives the
    parameters in name order, then each child's under `name.`."""

    def named_parameters(self, prefix=""):
        attributes = sorted(vars(self).items())
        for name, value in attributes:
            if isinstance(value, Tensor):
                yield prefix + name, value
        for name, value in attributes:
            if isinstance(value, Module):
                yield from value.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_arrays(self):
        return {name: p.data for name, p in self.named_parameters()}


class Embedding(Module):
    def __init__(self, n, dim, rng):
        self.table = Tensor(rng.uniform(-0.1, 0.1, size=(n, dim)), requires_grad=True)

    def __call__(self, indices):
        return ag.take(self.table, np.asarray(indices, dtype=np.intp))


class LSTMCell(Module):
    """Fused-gate cell: gates = [x; h] @ w + b, order (input, forget,
    candidate, output); forget bias starts at 1. A cell is one direction of
    `autograd.lstm_sequence`: `run` calls it with this cell alone, front to
    back, and `BiLSTM` with both cells of a layer."""

    def __init__(self, n_in, n_hidden, rng):
        self.n_hidden = n_hidden
        scale = 1.0 / np.sqrt(n_in + n_hidden)
        self.w = Tensor(rng.normal(scale=scale, size=(n_in + n_hidden, 4 * n_hidden)), requires_grad=True)
        b = np.zeros(4 * n_hidden)
        b[n_hidden:2 * n_hidden] = 1.0
        self.b = Tensor(b, requires_grad=True)

    def step(self, x, h, c):
        """x (B, n_in), h/c (B, n_hidden) -> new (h, c), recorded op by op
        on the tape; `run` computes the same recurrence as one op, equal
        up to rounding (it computes the sigmoid gates through tanh)."""
        nh = self.n_hidden
        z = ag.add(ag.matmul(ag.concat([x, h], axis=1), self.w), self.b)
        i = ag.sigmoid(z[:, 0 * nh:1 * nh])
        f = ag.sigmoid(z[:, 1 * nh:2 * nh])
        g = ag.tanh(z[:, 2 * nh:3 * nh])
        o = ag.sigmoid(z[:, 3 * nh:4 * nh])
        c2 = ag.add(ag.mul(f, c), ag.mul(i, g))
        h2 = ag.mul(o, ag.tanh(c2))
        return h2, c2

    def run(self, xs):
        """xs (B, T, n_in) -> hidden states (B, T, n_hidden), front to back
        from a zero state."""
        return ag.lstm_sequence(xs, [(self.w, self.b, False)])


class BiLSTM(Module):
    """Stacked bidirectional LSTM. Each layer is one
    `autograd.lstm_sequence` call that runs its forward and backward cells
    in the same time loop and returns their states side by side."""

    def __init__(self, n_in, n_hidden, n_layers, rng):
        self.cells = []  # (forward, backward) per layer, for iteration; named l{k}f, l{k}b
        for layer in range(n_layers):
            width = n_in if layer == 0 else 2 * n_hidden
            fwd, bwd = LSTMCell(width, n_hidden, rng), LSTMCell(width, n_hidden, rng)
            setattr(self, f"l{layer}f", fwd)
            setattr(self, f"l{layer}b", bwd)
            self.cells.append((fwd, bwd))

    def __call__(self, xs):
        """xs (n, n_in) -> (n, 2*n_hidden): per-position [forward; backward]."""
        h = ag.reshape(xs, (1,) + xs.shape)
        for fwd, bwd in self.cells:
            h = ag.lstm_sequence(h, [(fwd.w, fwd.b, False), (bwd.w, bwd.b, True)])
        return h[0]


class CharEncoder(Module):
    """Single-layer character LSTM; a word's representation is the final
    hidden state, and that of a word without characters the zero state.
    All words run as one padded batch through one forward
    `autograd.lstm_sequence` direction (`LSTMCell.run`). The padding after
    a word comes after its last state, so it cannot change that state and
    needs no mask."""

    def __init__(self, n_chars, char_dim, n_hidden, rng):
        self.emb = Embedding(n_chars, char_dim, rng)
        self.cell = LSTMCell(char_dim, n_hidden, rng)

    def __call__(self, words):
        """words: one list of character indices per word -> (n_words,
        n_hidden)."""
        lengths = np.array([len(w) for w in words], dtype=np.intp)
        # at least one step, so that a batch of empty words has a state to
        # read; an empty word reads position 0 and the mask zeroes it
        padded = np.zeros((len(words), max(lengths.max(initial=0), 1)), dtype=np.intp)
        for k, w in enumerate(words):
            padded[k, :len(w)] = w
        hs = self.cell.run(self.emb(padded))
        last = hs[np.arange(len(words)), np.maximum(lengths, 1) - 1]
        return ag.mul(last, Tensor(np.repeat((lengths > 0)[:, None], self.cell.n_hidden, axis=1)))
