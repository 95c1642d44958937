"""Dense float64 tensors with reverse-mode differentiation.

A deliberately small dynamic-tape engine: every op stores a backward
closure on its output, `backward()` walks the tape in reverse topological
order. All data is 64-bit; broadcasting is restricted to a trailing-shape
operand against leading batch axes (anything else needs an explicit
reshape), which keeps shape bugs loud.

A gradient that reaches a tensor first becomes its `.grad` without a copy
when the backward has just made it and holds it nowhere else: the
products of `mul`, `matmul`, `tanh` and `sigmoid`, the filled array of
`tsum` over all axes, the sum of a broadcast `add` operand, and `dX` and
each direction's `dW` and `db` of `lstm_sequence`. `take` scatters straight
into the table's `.grad`, which it starts from `np.zeros` (allocated zero
pages, not a written fill) when there is none. Every other backward hands
on its incoming gradient or a view of it (`add` without broadcast gives the
same array to both operands, `reshape`, `concat`'s slices, `tsum` along an
axis), and that is copied, so no two tensors' gradients share memory.
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
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

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


def _accum(t, g, fresh=False):
    """Add `g` into `t.grad`. `fresh` says that the caller has just made
    `g` and holds it nowhere else, so a first gradient is kept as it is."""
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64) if fresh else np.array(g, dtype=np.float64)
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
        # an operand of the output's shape gets g itself; a broadcast one a new sum
        if a.requires_grad:
            _accum(a, _unbroadcast(g, sa), fresh=sa != g.shape)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, sb), fresh=sb != g.shape)

    return _make(out_data, (a, b), bw)


def mul(a, b):
    a = _lift(a)
    if not isinstance(b, Tensor):
        c = float(b)

        def bw_scalar(g):
            if a.requires_grad:
                _accum(a, g * c, fresh=True)

        return _make(a.data * c, (a,), bw_scalar)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes {a.data.shape} vs {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accum(b, g * a.data, fresh=True)

    return _make(a.data * b.data, (a, b), bw)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul needs 2-D operands (m, k) @ (k, n), got {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, fresh=True)

    return _make(out_data, (a, b), bw)


def take(a, idx):
    """Indexing/gather: basic slices or integer-array row selection."""
    a = _lift(a)
    out_data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros(a.data.shape)
            np.add.at(a.grad, idx, g)

    return _make(np.array(out_data, dtype=np.float64), (a,), bw)


def reshape(a, shape):
    a = _lift(a)
    orig = a.data.shape
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(orig))

    return _make(out_data, (a,), bw)


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


def tsum(a, axis=None):
    a = _lift(a)
    out_data = a.data.sum(axis=axis)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accum(a, np.full_like(a.data, g), fresh=True)
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(out_data, (a,), bw)


def tanh(a):
    a = _lift(a)
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * (1.0 - y * y), fresh=True)

    return _make(y, (a,), bw)


def sigmoid(a):
    a = _lift(a)
    # stable in both tails
    e = np.exp(-np.abs(a.data))
    y = np.where(a.data >= 0, 1.0, e) / (1.0 + e)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * y * (1.0 - y), fresh=True)

    return _make(y, (a,), bw)


def lstm_sequence(X, directions):
    """LSTM layers over the same batch of sequences, as one tape node.

    X is (B, T, n_in). Each direction is (W, b, reverse), W of shape
    (n_in + n_hidden, 4 * n_hidden) and b of shape (4 * n_hidden,), with
    gates [x; h] @ W + b in the order input, forget, candidate, output,
    from a zero state; every W has the same shape. Returns (B, T, D *
    n_hidden) for D directions, direction d's hidden state after each step
    in columns d * n_hidden up to (d + 1) * n_hidden. Step s of a reversed
    direction reads position T - 1 - s. Every row runs all T steps; a
    forward direction's state at position t depends on positions up to t
    only, so a row padded at its end holds its own last state at its last
    valid position.

    All directions run in one time loop on (D, B, .) arrays. The input
    projection X @ W[:n_in] + b is computed for all steps at once, so only
    h @ W[n_in:] recurs. The four gates come from one tanh, as sigmoid(z) =
    (1 + tanh(z / 2)) / 2: the sigmoid gates' pre-activations are halved
    (exactly, a power of two) before it, and their tanh is then scaled by
    1/2 and shifted by 1/2. Backward is backpropagation through time, with
    the weight and input gradients taken over all steps at once.
    """
    X = _lift(X)
    directions = [(_lift(W), _lift(b), reverse) for W, b, reverse in directions]
    if X.data.ndim != 3:
        raise ShapeError(f"lstm_sequence needs X of shape (B, T, n_in), got {X.data.shape}")
    B, T, n_in = X.data.shape
    D = len(directions)
    nh = directions[0][0].data.shape[1] // 4
    for W, b, _ in directions:
        if W.data.shape != (n_in + nh, 4 * nh) or b.data.shape != (4 * nh,):
            raise ShapeError(f"lstm_sequence shapes X {X.data.shape}, W "
                             f"{[W.data.shape for W, _, _ in directions]}, b {b.data.shape}")
    # Step s of direction d reads position s, or T - 1 - s when reversed:
    # `flips[d]` maps between the two orders along the time axis.
    flips = [slice(None, None, -1 if reverse else None) for _, _, reverse in directions]
    x = X.data.transpose(1, 0, 2)  # (T, B, n_in)
    x_steps = [x[f].reshape(T * B, n_in) for f in flips]
    w_x = [W.data[:n_in] for W, _, _ in directions]
    w_h = [W.data[n_in:] for W, _, _ in directions]
    # zs[d, s]: direction d's input projection at step s, then halved where
    # a sigmoid gate's tanh reads it
    scale = np.full(4 * nh, 0.5)
    scale[2 * nh:3 * nh] = 1.0
    shift = 1.0 - scale
    zs = np.empty((D, T, B, 4 * nh))
    for d, (_, b, _) in enumerate(directions):
        np.matmul(x_steps[d], w_x[d], out=zs[d].reshape(T * B, 4 * nh))
        zs[d] += b.data
    zs *= scale
    gates = np.empty((T, D, B, 4 * nh))
    hs, cs, tcs = np.empty((T, D, B, nh)), np.empty((T, D, B, nh)), np.empty((T, D, B, nh))
    ig = np.empty((D, B, nh))
    h = c = np.zeros((D, B, nh))
    for s in range(T):
        a = gates[s]
        for d in range(D):
            np.matmul(h[d], w_h[d], out=a[d])
        a *= scale
        a += zs[:, s]
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(a[..., nh:2 * nh], c, out=cs[s])
        np.multiply(a[..., :nh], a[..., 2 * nh:3 * nh], out=ig)
        cs[s] += ig
        np.tanh(cs[s], out=tcs[s])
        np.multiply(a[..., 3 * nh:], tcs[s], out=hs[s])
        h, c = hs[s], cs[s]
    out = np.empty((B, T, D, nh))
    for d in range(D):
        out[:, :, d] = hs[flips[d], d].transpose(1, 0, 2)

    def bw(g):
        g = g.reshape(B, T, D, nh)
        g_steps = np.empty((T, D, B, nh))
        for d in range(D):
            g_steps[:, d] = g[:, flips[d], d].transpose(1, 0, 2)
        # dz = [dc * cand, dc * c_prev, dc * i, dh * tanh(c)] * the gates'
        # slopes; dz holds the factors of dc and dh until step s fills it in
        a = gates.reshape(T, D, B, 4, nh).transpose(1, 0, 2, 3, 4)
        dz = np.empty((D, T, B, 4, nh))
        np.subtract(1.0, a, out=dz)
        dz *= a  # the slope of each sigmoid gate at its pre-activation
        dz[:, :, :, 0] *= a[:, :, :, 2]
        dz[:, :1, :, 1] = 0.0
        dz[:, 1:, :, 1] *= cs[:-1].transpose(1, 0, 2, 3)
        cand_slope = dz[:, :, :, 2]
        np.multiply(a[:, :, :, 2], a[:, :, :, 2], out=cand_slope)
        np.subtract(1.0, cand_slope, out=cand_slope)
        cand_slope *= a[:, :, :, 0]
        dz[:, :, :, 3] *= tcs.transpose(1, 0, 2, 3)
        dc_by_dh = gates[..., 3 * nh:] * (1.0 - tcs * tcs)
        dh, dc = np.zeros((D, B, nh)), np.zeros((D, B, nh))
        dh_step, dc_by_step = np.empty((D, B, nh)), np.empty((D, B, nh))
        for s in range(T - 1, -1, -1):
            dh += g_steps[s]
            np.multiply(dh, dc_by_dh[s], out=dc_by_step)
            dc += dc_by_step
            dz[:, s, :, :3] *= dc[:, :, None]
            dz[:, s, :, 3] *= dh
            dzs = dz[:, s].reshape(D, B, 4 * nh)
            for d in range(D):
                np.matmul(dzs[d], w_h[d].T, out=dh_step[d])
            dh, dh_step = dh_step, dh
            dc *= gates[s, :, :, nh:2 * nh]
        dz = dz.reshape(D, T * B, 4 * nh)
        dx = np.zeros((T, B, n_in)) if X.requires_grad else None
        for d, (W, b, _) in enumerate(directions):
            if dx is not None:
                dx[flips[d]] += (dz[d] @ w_x[d].T).reshape(T, B, n_in)
            if W.requires_grad:
                # the state before step s is the state after step s - 1
                dW = np.empty(W.data.shape)
                np.matmul(x_steps[d].T, dz[d], out=dW[:n_in])
                np.matmul(hs[:-1, d].reshape(-1, nh).T, dz[d, B:], out=dW[n_in:])
                _accum(W, dW, fresh=True)
            if b.requires_grad:
                _accum(b, dz[d].sum(axis=0), fresh=True)
        if dx is not None:
            _accum(X, dx.transpose(1, 0, 2), fresh=True)

    parents = (X,) + tuple(t for W, b, _ in directions for t in (W, b))
    return _make(out.reshape(B, T, D * nh), parents, bw)


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
