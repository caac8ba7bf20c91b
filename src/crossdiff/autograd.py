"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Everything downstream (encoders, denoiser, losses) is built from the handful
of primitives here, so each primitive carries its own exact backward rule and
is covered by finite-difference tests. All math runs in float64; there is no
device or dtype dispatch.

Gradient hand-over: a node keeps the first gradient it receives as given
and adds later ones out of place. A strided view is copied to C order first,
because BLAS rounds differently on strided operands. No backward rule writes
into a gradient array, so a stored gradient may share memory with another
node's. A gradient whose shape is not the node's is an error, never broadcast.
Once an interior node has handed its gradient to its inputs, `backward` drops
it, so after the pass only leaves keep `.grad`; the rules, and the
activations they hold, live until the graph is dropped. A bias is part of its
product's node (`matmul(a, W, bias)`), not a separate addition.

Given a pool (a one-worker executor), `backward` walks inside a `_Worker`
and hands it every gradient into a leaf, which the worker computes and folds
into the leaf; nothing in the walk reads a leaf's gradient, and no rule
writes into the arrays another rule reads. Each leaf sums the same arrays in
the walk's order, so the bits are those of the walk without a pool, in which
every gradient goes straight into its input.

Each primitive is one `_op(value, (parent, rule), ...)` call: its forward
value, and for each input a rule from the output's gradient to that input's.
`_op` alone skips inputs that need no gradient, sums each gradient down to its
input's shape and accumulates it, and builds the output Tensor. The rules
exist before the output does, so they can hold arrays but never the output
Tensor, which would make every graph a reference cycle that only the cycle
collector frees.

Products with one matrix: a stack times a weight matrix runs, forward and
backward, as one GEMM over the stack's flattened rows. The forward pads a
call with too few rows with zero rows, so that a row's bits do not depend on
how many rows share the call; evaluation's batch-composition invariance
rests on this, and a guard test pins it for the BLAS in use.
"""

from __future__ import annotations

import contextlib
import functools
from concurrent.futures import wait

import numpy as np
from scipy.special import erf

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus the closure needed to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = _grad_enabled and bool(requires_grad)
        self._parents = ()     # (parent, rule) edges, set by _op
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if g.shape != self.data.shape:
            raise ValueError("gradient of shape %r for a tensor of shape %r"
                             % (g.shape, self.data.shape))
        if self.grad is None:
            self.grad = g if g.flags.c_contiguous else g.copy()
        else:
            self.grad = self.grad + g

    def backward(self, pool=None):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor, got shape %r" % (self.shape,))
        # iterative postorder; training graphs get deep enough to trip the
        # recursion limit
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if not node.requires_grad:
                continue
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, _ in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        with _Worker(pool) as worker:
            for node in reversed(topo):
                if node._backward is not None:
                    node._backward(node.grad, worker)
                    node.grad = None

    # operator sugar; constants are promoted on the fly
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _NEG_ONE))

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_NEG_ONE = Tensor(-1.0)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _WeightGrad:
    """matmul's rule for a 2-D right operand: a's rows, transposed, times g's
    rows as one GEMM."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __call__(self, g):
        a = self.a.data
        return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _fold(p, rule, g):
    """Add rule(g), summed down to p's shape, into p's gradient."""
    p._accumulate(_unbroadcast(rule(g), p.data.shape))


class _Worker:
    """Calls handed to a one-worker executor, `pool`, and waited for together.

    start(fn, *args, **kwargs) returns a function that gives fn's result.
    Given a pool, fn is queued at once and the worker runs its queue in
    order; without one, fn runs where its result is taken, so the order of
    work and of errors is that of the inline code. Leaving a `with` block
    over the worker waits for every call it queued, so none outlives the
    block (nor runs while `no_grad` flips the grad switch every op reads);
    then the block's own error is raised if it raised, else the first error
    of a queued call.
    """

    def __init__(self, pool=None):
        self.pool = pool
        self._futures = []

    def start(self, fn, *args, **kwargs):
        if self.pool is None:
            return functools.partial(fn, *args, **kwargs)
        self._futures.append(self.pool.submit(fn, *args, **kwargs))
        return self._futures[-1].result

    def __enter__(self):
        return self

    def __exit__(self, kind, error, tb):
        wait(self._futures)
        if kind is None:
            # exception(), not result(): a result the block took is not taken again
            for f in self._futures:
                if f.exception() is not None:
                    raise f.exception()


def _op(value, *edges):
    """The output Tensor of one primitive call.

    Each edge is a (parent, rule) pair; rule maps the output's gradient to
    that parent's gradient, before the sum over broadcast axes. Backward hands
    the edges over in order, skipping parents that need no gradient; given a
    pool, a leaf's gradient goes to the worker.
    """
    out = Tensor(value)
    if _grad_enabled:
        for p, _ in edges:
            if p.requires_grad:
                break
        else:
            return out

        def backward(g, worker):
            for p, rule in edges:
                if p.requires_grad:
                    if worker.pool is not None and p._backward is None:
                        worker.start(_fold, p, rule, g)   # a leaf's gradient
                    else:
                        _fold(p, rule, g)

        out.requires_grad = True
        out._parents = edges
        out._backward = backward
    return out


def add(a, b):
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def mul(a, b):
    return _op(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b):
    return _op(a.data / b.data, (a, lambda g: g / b.data),
               (b, lambda g: -g * a.data / (b.data * b.data)))


def _rows_times_matrix(a, b):
    """a's rows, under any leading axes, times the matrix b as one GEMM.

    A row's bits must not depend on how many rows share the call. OpenBLAS
    sends a single row to gemv, and for K > 256 a product under about 2**20
    multiply-adds to a small-matrix kernel; both sum in another order. So a
    call with fewer rows than that is padded with zero rows, then sliced back.
    """
    k, n = b.shape
    rows = a.reshape(-1, k)
    m = rows.shape[0]
    floor = 2 if k <= 256 else max(2, -(-2 ** 20 // (n * k)))
    if m < floor:
        rows = np.concatenate([rows, np.zeros((floor - m, k))])
    return (rows @ b)[:m].reshape(a.shape[:-1] + (n,))


def matmul(a, b, bias=None):
    """Batched matrix product, numpy broadcasting rules on leading axes.

    bias, when given, is added to every output row inside the same node; b
    must then be a matrix.
    """
    if b.data.ndim == 2:
        # a matrix or a stack times one matrix: the forward and each gradient
        # are one GEMM over a's flattened rows, not per-example products. The
        # forward's padding keeps a row's bits independent of the row count.
        m = b.data.shape[1]
        out = _rows_times_matrix(a.data, b.data)
        edges = [(a, lambda g: (g.reshape(-1, m) @ b.data.T).reshape(a.data.shape)),
                 (b, _WeightGrad(a))]
        if bias is not None:
            out += bias.data
            edges.append((bias, lambda g: g))
        return _op(out, *edges)
    if bias is not None:
        raise ValueError("a bias needs a 2-D right operand, got shape %r" % (b.data.shape,))
    return _op(np.matmul(a.data, b.data),
               (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))),
               (b, lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))


def exp(a):
    e = np.exp(a.data)
    return _op(e, (a, lambda g: g * e))


def log(a):
    return _op(np.log(a.data), (a, lambda g: g / a.data))


def sqrt(a):
    r = np.sqrt(a.data)
    return _op(r, (a, lambda g: g * 0.5 / r))


def gelu(a):
    """Gaussian-error linear unit, exact erf form."""
    x = a.data
    cdf = erf(x / np.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5

    def rule(g):
        # an array even for a 0-d x, so that every later step works in place
        w = np.multiply(x, -0.5, out=np.empty_like(x))
        w *= x
        np.exp(w, out=w)
        w /= np.sqrt(2.0 * np.pi)
        w *= x
        w += cdf
        w *= g
        return w

    return _op(x * cdf, (a, rule))


def sum_(a, axis=None, keepdims=False):
    def rule(g):
        if axis is not None and not keepdims:
            for ax in sorted(np.atleast_1d(axis) % a.data.ndim):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, a.data.shape)

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a, rule))


def mean(a):
    """The mean of every element, as a scalar."""
    return mul(sum_(a), Tensor(1.0 / a.data.size))


def reshape(a, shape):
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def swapaxes(a, ax1, ax2):
    return _op(np.swapaxes(a.data, ax1, ax2), (a, lambda g: np.swapaxes(g, ax1, ax2)))


def concat(tensors, axis=0):
    lead = (slice(None),) * (axis % tensors[0].data.ndim)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return _op(np.concatenate([t.data for t in tensors], axis=axis),
               *[(t, lambda g, key=lead + (slice(lo, hi),): g[key])
                 for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])])


def slice_rows(a, start, stop):
    """Rows [start, stop) along axis 0; gradient zero-pads the complement."""
    def rule(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return full

    return _op(a.data[start:stop], (a, rule))


def _scatter_add(shape, key, g):
    """Zeros of `shape` with `g` added at `key`; repeated indices accumulate."""
    full = np.zeros(shape)
    np.add.at(full, key, g)
    return full


def _gather(src, key):
    """src.data[key] for an integer-array key; backward scatter-adds into src."""
    return _op(src.data[key], (src, lambda g: _scatter_add(src.data.shape, key, g)))


def gather_rows(table, idx):
    """table: (N, d); idx: int array of any shape -> (idx.shape, d)."""
    return _gather(table, np.asarray(idx))


def gather_concat(table_a, table_b, idx):
    """Gather from the virtual concatenation [table_a; table_b] without copying it.

    Indices < len(table_a) hit table_a, the rest hit table_b shifted down.
    """
    idx = np.asarray(idx)
    split = table_a.data.shape[0]
    in_a = idx < split
    local = np.where(in_a, idx, idx - split)
    data = np.where(in_a[..., None], table_a.data[np.where(in_a, local, 0)],
                    table_b.data[np.where(in_a, 0, local)])
    return _op(data,
               (table_a, lambda g: _scatter_add(table_a.data.shape, local[in_a], g[in_a])),
               (table_b, lambda g: _scatter_add(table_b.data.shape, local[~in_a], g[~in_a])))


def take_rows(src, idx):
    """src: (B, L, d); idx: (B, M) -> out[b, m] = src[b, idx[b, m]]."""
    return _gather(src, (np.arange(src.data.shape[0])[:, None], np.asarray(idx)))


def take_last_axis(src, idx):
    """src: (..., V); idx: int array matching src's leading shape -> (...,)."""
    idx = np.asarray(idx)
    return _gather(src, (*np.indices(idx.shape), idx))


def pack_rows(a, rows):
    """The rows `rows` of a, counted over its leading axes, as one (len(rows), d) stack.

    rows must be distinct, so the backward places each gradient row once
    and adds nothing.
    """
    d = a.data.shape[-1]

    def rule(g):
        full = np.zeros((a.data.size // d, d))
        full[rows] = g
        return full.reshape(a.data.shape)

    return _op(a.data.reshape(-1, d)[rows], (a, rule))


def unpack_rows(a, rows, shape):
    """The inverse of pack_rows: a's rows at the rows `rows` of zeros of `shape`."""
    d = shape[-1]
    out = np.zeros((int(np.prod(shape[:-1])), d))
    out[rows] = a.data
    return _op(out.reshape(shape), (a, lambda g: g.reshape(-1, d)[rows]))


def masked_softmax(x, mask):
    """Softmax over the last axis restricted to mask==1; fully-masked rows yield zeros.

    `mask` is a constant 0/1 ndarray broadcastable to x. The zero-row fallback
    keeps attention over all-padding sequences finite.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    neg = np.where(mask, x.data, -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(mask, np.exp(neg - m), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    p = e / np.where(s == 0.0, 1.0, s)
    return _op(p, (x, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))))


def layer_norm(x, gain, bias):
    """Normalize over the last axis (eps 1e-8), then scale and shift. gain/bias: (d,)."""
    d = x.data.shape[-1]
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-8)
    xhat *= inv

    def x_rule(g):
        # gx*inv - xhat*sum(gx*xhat)*inv/d - inv*sum(gx)/d, gx = g*gain, in
        # that order of operations
        gx = g * gain.data
        t3 = inv * gx.sum(axis=-1, keepdims=True) / d
        w = gx * xhat
        s = w.sum(axis=-1, keepdims=True)
        np.multiply(xhat, s, out=w)
        w *= inv
        w /= d
        gx *= inv
        gx -= w
        gx -= t3
        return gx

    out = gain.data * xhat
    out += bias.data
    return _op(out, (x, x_rule), (gain, lambda g: g * xhat), (bias, lambda g: g))


def l2_normalize(x):
    """x / sqrt(||x||^2 + 1e-12) along the last axis, from primitives so gradients flow."""
    nrm = sqrt(sum_(mul(x, x), axis=-1, keepdims=True) + Tensor(1e-12))
    return div(x, nrm)
