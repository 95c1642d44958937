"""Dense float64 tensors with reverse-mode differentiation.

A deliberately small dynamic-tape engine: every op stores a backward
closure on its output, `backward()` walks the tape in reverse topological
order. All data is 64-bit; broadcasting is restricted to a trailing-shape
operand against leading batch axes (anything else needs an explicit
reshape), which keeps shape bugs loud.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


def grad_enabled():
    return _GRAD_ENABLED[-1]


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division unsupported; use reciprocal ops explicitly")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape)

    def backward(self):
        backward(self)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _accum(t, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss):
    """Accumulate into .grad of every leaf the scalar `loss` depends on.
    Intermediate gradients restart from zero, so a second call on the same
    graph adds each leaf's gradient once more."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            if node._backward is not None:
                node.grad = None
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# -- primitive ops --------------------------------------------------------


def _unbroadcast(g, shape):
    # reduce gradient g back to `shape` after leading-axis broadcast
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def add(a, b):
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa[len(sa) - len(sb):] != sb and sb[len(sb) - len(sa):] != sa:
        raise ShapeError(f"add shapes {sa} vs {sb}")
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, sa))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, sb))

    return _make(out_data, (a, b), bw)


def neg(a):
    a = _lift(a)

    def bw(g):
        if a.requires_grad:
            _accum(a, -g)

    return _make(-a.data, (a,), bw)


def mul(a, b):
    a = _lift(a)
    if not isinstance(b, Tensor):
        c = float(b)

        def bw_scalar(g):
            if a.requires_grad:
                _accum(a, g * c)

        return _make(a.data * c, (a,), bw_scalar)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes {a.data.shape} vs {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1D/2D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 2:
            if a.requires_grad:
                _accum(a, g @ bd.T)
            if b.requires_grad:
                _accum(b, np.outer(ad, g))
        elif ad.ndim == 2 and bd.ndim == 1:
            if a.requires_grad:
                _accum(a, np.outer(g, bd))
            if b.requires_grad:
                _accum(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 1:
            if a.requires_grad:
                _accum(a, g * bd)
            if b.requires_grad:
                _accum(b, g * ad)
        else:
            if a.requires_grad:
                _accum(a, g @ bd.T)
            if b.requires_grad:
                _accum(b, ad.T @ g)

    return _make(out_data, (a, b), bw)


def einsum(spec, *tensors):
    """Autograd einsum, restricted: explicit output, no ellipsis, and no
    repeated index within a single operand.

    Under those restrictions the gradient w.r.t. operand k is the einsum of
    the output gradient with the remaining operands, mapped onto operand
    k's index string.
    """
    tensors = tuple(_lift(t) for t in tensors)
    lhs, out_spec = spec.split("->")
    in_specs = lhs.split(",")
    if len(in_specs) != len(tensors):
        raise ShapeError(f"einsum spec {spec} expects {len(in_specs)} operands, got {len(tensors)}")
    arrays = [t.data for t in tensors]
    out_data = np.einsum(spec, *arrays)

    def bw(g):
        for k, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            others = [arrays[j] for j in range(len(tensors)) if j != k]
            other_specs = [in_specs[j] for j in range(len(tensors)) if j != k]
            sub = ",".join([out_spec] + other_specs) + "->" + in_specs[k]
            _accum(t, np.einsum(sub, g, *others))

    return _make(out_data, tensors, bw)


def take(a, idx):
    """Indexing/gather: basic slices or integer-array row selection."""
    a = _lift(a)
    out_data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accum(a, buf)

    return _make(np.array(out_data, dtype=np.float64), (a,), bw)


def reshape(a, shape):
    a = _lift(a)
    orig = a.data.shape
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(orig))

    return _make(out_data, (a,), bw)


def transpose(a, axes):
    a = _lift(a)
    inv = np.argsort(axes)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bw)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(t, g[tuple(sl)])

    return _make(out_data, tuple(tensors), bw)


def stack(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                _accum(t, np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), bw)


def tsum(a, axis=None):
    a = _lift(a)
    out_data = a.data.sum(axis=axis)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accum(a, np.full_like(a.data, g))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(out_data, (a,), bw)


def tanh(a):
    a = _lift(a)
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * (1.0 - y * y))

    return _make(y, (a,), bw)


def _sigmoid(x):
    # stable in both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    a = _lift(a)
    y = _sigmoid(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * y * (1.0 - y))

    return _make(y, (a,), bw)


def relu(a):
    a = _lift(a)
    y = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * (a.data > 0))

    return _make(y, (a,), bw)


def exp(a):
    a = _lift(a)
    y = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * y)

    return _make(y, (a,), bw)


def log(a):
    a = _lift(a)

    def bw(g):
        if a.requires_grad:
            _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), bw)


def clamp_min(a, lo):
    a = _lift(a)
    mask = a.data >= lo

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask)

    return _make(np.maximum(a.data, lo), (a,), bw)


def softmax(a, axis=-1):
    """Softmax computed in log space: exp(x - logsumexp(x))."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            _accum(a, y * (g - dot))

    return _make(y, (a,), bw)


def log_softmax(a, axis=-1):
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    y = np.exp(out_data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g - y * g.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), bw)


def triple_product_reduce(a, b, c):
    """Sum_d a[d]*b[d]*c[d] — the elementwise-product contraction used by
    trilinear scoring."""
    return einsum("d,d,d->", a, b, c)


def lstm_sequence(X, W, b, lengths=None, reverse=False):
    """A whole LSTM layer over a batch of sequences, as one tape node.

    X is (B, T, n_in); W is (n_in + n_hidden, 4 * n_hidden) and b is
    (4 * n_hidden,), with gates [x; h] @ W + b in the order input, forget,
    candidate, output, from a zero state. Returns H (B, T, n_hidden), the
    hidden state after each step. Steps run from T - 1 down to 0 with
    `reverse`. Row k's steps at or past `lengths[k]` (default T) leave its
    state unchanged, so H[:, T - 1] is each row's last valid state going
    forwards, and H[:, 0] going backwards.

    The input projection X @ W[:n_in] + b is computed for all steps at
    once, so only h @ W[n_in:] recurs. Backward is backpropagation through
    time, with the weight and input gradients taken over all steps at once.
    """
    X, W, b = _lift(X), _lift(W), _lift(b)
    if X.data.ndim != 3:
        raise ShapeError(f"lstm_sequence needs X of shape (B, T, n_in), got {X.data.shape}")
    B, T, n_in = X.data.shape
    nh = W.data.shape[1] // 4
    if W.data.shape != (n_in + nh, 4 * nh) or b.data.shape != (4 * nh,):
        raise ShapeError(f"lstm_sequence shapes X {X.data.shape}, W {W.data.shape}, b {b.data.shape}")
    w_x, w_h = W.data[:n_in], W.data[n_in:]
    # time-major from here on: step t reads and writes row t
    x = X.data.transpose(1, 0, 2).reshape(T * B, n_in)
    zx = (x @ w_x + b.data).reshape(T, B, 4 * nh)
    active = None
    if lengths is not None:
        active = (np.arange(T)[:, None] < np.asarray(lengths))[:, :, None]  # (T, B, 1)
    order = range(T - 1, -1, -1) if reverse else range(T)
    keep = grad_enabled() and (X.requires_grad or W.requires_grad or b.requires_grad)
    hs = np.empty((T, B, nh))
    if keep:
        gates, cs, tcs = np.empty((T, B, 4 * nh)), np.empty((T, B, nh)), np.empty((T, B, nh))
    h = np.zeros((B, nh))
    c = np.zeros((B, nh))
    for t in order:
        z = zx[t] + h @ w_h
        a = _sigmoid(z)
        a[:, 2 * nh:3 * nh] = np.tanh(z[:, 2 * nh:3 * nh])
        c_new = a[:, nh:2 * nh] * c + a[:, :nh] * a[:, 2 * nh:3 * nh]
        tc = np.tanh(c_new)
        h_new = a[:, 3 * nh:] * tc
        if active is None:
            h, c = h_new, c_new
        else:
            h, c = np.where(active[t], h_new, h), np.where(active[t], c_new, c)
        hs[t] = h
        if keep:
            gates[t], cs[t], tcs[t] = a, c, tc

    def bw(g):
        g = g.transpose(1, 0, 2)
        # the state before each step is the state after the one before it
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cs)
        if reverse:
            h_prev[:-1], c_prev[:-1] = hs[1:], cs[1:]
        else:
            h_prev[1:], c_prev[1:] = hs[:-1], cs[:-1]
        i, f, cand, o = np.split(gates, 4, axis=2)
        slope = gates * (1.0 - gates)  # of each sigmoid gate at its pre-activation
        # dz = [dc * cand, dc * c_prev, dc * i, dh * tanh(c)] * the gates' slopes
        by_dc = np.stack([cand * slope[..., :nh], c_prev * slope[..., nh:2 * nh],
                          i * (1.0 - cand * cand)], axis=2)
        by_dh = tcs * slope[..., 3 * nh:]
        dc_by_dh = o * (1.0 - tcs * tcs)
        dz = np.empty((T, B, 4, nh))
        dh = np.zeros((B, nh))
        dc = np.zeros((B, nh))
        for t in reversed(order):
            dh = dh + g[t]
            dc_new = dc + dh * dc_by_dh[t]
            dz[t, :, :3] = dc_new[:, None] * by_dc[t]
            dz[t, :, 3] = dh * by_dh[t]
            dzt = dz[t].reshape(B, 4 * nh)
            if active is None:
                dh, dc = dzt @ w_h.T, dc_new * f[t]
            else:
                m = active[t]
                dzt *= m
                dh, dc = dzt @ w_h.T + np.where(m, 0.0, dh), np.where(m, dc_new * f[t], dc)
        dz = dz.reshape(T * B, 4 * nh)
        if X.requires_grad:
            _accum(X, (dz @ w_x.T).reshape(T, B, n_in).transpose(1, 0, 2))
        if W.requires_grad:
            inputs = np.concatenate([x, h_prev.reshape(T * B, nh)], axis=1)
            _accum(W, inputs.T @ dz)
        if b.requires_grad:
            _accum(b, dz.sum(axis=0))

    return _make(hs.transpose(1, 0, 2), (X, W, b), bw)


# -- numerical gradient checking ------------------------------------------


def grad_check(f, params, step=1e-5, sample=None, rng=None):
    """Compare analytic gradients of the scalar `f()` against central
    differences over `params`.

    `f` must rebuild its computation from the live parameter values each
    call. With `sample`, only that many coordinates per parameter are
    probed (chosen by `rng`), which keeps large checks affordable without
    changing what is being verified. Returns the max relative error
    |a - n| / max(|a|, |n|, 1e-8).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        n_entries = flat.size
        if sample is not None and sample < n_entries:
            coords = rng.choice(n_entries, size=sample, replace=False)
        else:
            coords = range(n_entries)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            up = f().item()
            flat[i] = orig - step
            down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            ana = a.reshape(-1)[i]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
