"""Finite-difference verification of every differentiable operation.

Each op is wrapped into a scalar via a fixed random projection; central
differences with step 1e-6 give roughly 1e-10 accuracy on these scales, so a
5e-7 relative tolerance catches any wrong gradient formula.
"""

import gc
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erf

from crossdiff import autograd as ag
from crossdiff.autograd import Tensor

H = 1e-6
TOL = 5e-7


def scalarize(out, w):
    return ag.sum_(out * w)


def check_grads(build, arrays, seed=0, requires_grad=None):
    """build(tensors) -> output Tensor; arrays are the leaf values.

    requires_grad (one flag per leaf, default all True) marks the leaves to
    check; the others are constants and must receive no gradient.
    """
    rng = np.random.default_rng(seed)
    if requires_grad is None:
        requires_grad = [True] * len(arrays)
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, requires_grad)]
    out = build(*leaves)
    w = rng.standard_normal(out.data.shape)
    loss = scalarize(out, w)
    loss.backward()

    def f(vals):
        ts = [Tensor(v) for v in vals]
        return float(scalarize(build(*ts), w).data)

    for li, base in enumerate(arrays):
        an = leaves[li].grad
        if not requires_grad[li]:
            assert an is None, "constant leaf %d received a gradient" % li
            continue
        assert an is not None, "no gradient reached leaf %d" % li
        assert an.shape == base.shape
        flat = base.ravel()
        for j in range(flat.size):
            vals = [a.copy() for a in arrays]
            vals[li].ravel()[j] = flat[j] + H
            up = f(vals)
            vals[li].ravel()[j] = flat[j] - H
            dn = f(vals)
            fd = (up - dn) / (2 * H)
            a = an.ravel()[j]
            scale = max(1.0, abs(a), abs(fd))
            assert abs(a - fd) / scale <= TOL, (
                "leaf %d elem %d: analytic %.8e vs fd %.8e" % (li, j, a, fd))


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def test_add_broadcast():
    check_grads(lambda a, b: a + b, [rand(3, 4, seed=1), rand(4, seed=2)])


def test_mul_broadcast():
    check_grads(lambda a, b: a * b, [rand(2, 3, 4, seed=3), rand(3, 1, seed=4)])


def test_sub_neg_div():
    check_grads(lambda a, b: ag.div(a - b, b * b + 2.0),
                [rand(3, 3, seed=5), rand(3, 3, seed=6, lo=0.5, hi=1.5)])


@pytest.mark.parametrize("expr", [lambda t: np.ones(3) * t, lambda t: 2.0 * t,
                                  lambda t: np.ones(3) + t],
                         ids=["ndarray_times", "float_times", "ndarray_plus"])
def test_constant_on_the_left_is_a_type_error(expr):
    # a reflected operator would let numpy build an object array of Tensors
    with pytest.raises(TypeError):
        expr(Tensor(np.arange(3.0), requires_grad=True))


def test_matmul_2d():
    check_grads(lambda a, b: ag.matmul(a, b), [rand(3, 4, seed=7), rand(4, 2, seed=8)])


def test_matmul_batched_broadcast():
    # (B,H,L,dh) @ (B,H,dh,L) with a broadcast left operand
    check_grads(lambda a, b: ag.matmul(a, b),
                [rand(1, 2, 3, 2, seed=9), rand(2, 2, 2, 3, seed=10)])


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4)])
def test_matmul_stack_times_matrix(a_shape):
    # the q/k/v/o projections, MLP layers and fuse.w: a stack times one matrix
    check_grads(lambda a, b: ag.matmul(a, b), [rand(*a_shape, seed=11), rand(4, 3, seed=12)])


@pytest.mark.parametrize("a_shape,axes", [((2, 4, 3), (1, 2)), ((2, 3, 2, 4), (1, 2))])
def test_matmul_stack_times_matrix_noncontiguous(a_shape, axes):
    check_grads(lambda a, b: ag.matmul(ag.swapaxes(a, *axes), b),
                [rand(*a_shape, seed=13), rand(4, 3, seed=14)])


@pytest.mark.parametrize("requires_grad", [(True, False), (False, True)])
def test_matmul_stack_times_matrix_one_operand(requires_grad):
    check_grads(lambda a, b: ag.matmul(a, b), [rand(2, 3, 4, seed=15), rand(4, 3, seed=16)],
                requires_grad=requires_grad)


@pytest.mark.parametrize("a_shape,b_shape", [((1, 1, 4), (4, 3)), ((2, 1, 320), (320, 4))])
def test_matmul_padded_rows(a_shape, b_shape):
    # one row, and a K > 256 product padded to hundreds of rows
    check_grads(lambda a, b: ag.matmul(a, b), [rand(*a_shape, seed=23), rand(*b_shape, seed=24)])


@pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (4, 3)), ((3, 4), (4, 2)),
                                             ((2, 1, 320), (320, 4))])
def test_matmul_bias(a_shape, b_shape):
    # a stack, a matrix, and a K > 256 product padded to hundreds of rows
    check_grads(lambda a, b, bias: ag.matmul(a, b, bias),
                [rand(*a_shape, seed=25), rand(*b_shape, seed=26),
                 rand(b_shape[1], seed=27)])


@pytest.mark.parametrize("a_shape,b_shape", [((128, 12, 32), (32, 128)),
                                             ((64, 1, 1024), (1024, 256)), ((5, 32), (32, 32))])
def test_matmul_bias_matches_add_bits(a_shape, b_shape):
    """The bias inside the product's node gives the bits of a separate add."""
    arrays = [rand(*a_shape, seed=28), rand(*b_shape, seed=29), rand(b_shape[1], seed=30)]
    g = rand(*a_shape[:-1], b_shape[1], seed=31)

    def run(build):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        out = build(*leaves)
        ag.sum_(out * Tensor(g)).backward()
        return [out.data] + [leaf.grad for leaf in leaves]

    got = run(lambda a, b, bias: ag.matmul(a, b, bias))
    want = run(lambda a, b, bias: ag.add(ag.matmul(a, b), bias))
    for x, y in zip(got, want):
        _assert_same_bits(x, y)


def test_matmul_bias_needs_a_matrix():
    with pytest.raises(ValueError, match="2-D"):
        ag.matmul(Tensor(rand(2, 3, 4, seed=32)), Tensor(rand(2, 4, 5, seed=33)),
                  Tensor(rand(5, seed=34)))


@pytest.mark.parametrize("B", [1, 8])
def test_matmul_stack_forward_is_per_example(B):
    """Each example's rows of a stack's product equal that example's own
    product, bit for bit: the batch beside it does not change them.
    """
    a = rand(B, 10, 64, seed=17)
    w = rand(64, 256, seed=18)
    out = ag.matmul(Tensor(a), Tensor(w)).data
    for i in range(B):
        assert np.array_equal(out[i], a[i] @ w)


# every (K, N) weight shape of the model at these widths: the attention
# projections and fuse.w are (d, d), the MLP layers (d, 4d) and (4d, d)
MODEL_GEMM_SHAPES = sorted({s for d in (8, 12, 16, 32, 64, 128, 256)
                            for s in ((d, d), (d, 4 * d), (4 * d, d))})


@pytest.mark.parametrize("k,n", MODEL_GEMM_SHAPES)
def test_matmul_row_bits_do_not_depend_on_row_count(k, n):
    """A row of a stack times a matrix has the same bits whatever the row count.

    Batch-composition invariance of evaluation rests on this: a denoiser token
    goes through the same GEMM alone as in a batch of 130. It holds only for a
    BLAS whose row results, past the padding in `_rows_times_matrix`, do not
    depend on the row count; another BLAS fails here by name.
    """
    x = rand(130, k, seed=21)
    w = rand(k, n, seed=22)
    want = x @ w
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for m in range(1, 131):
        for off in sorted({0, (130 - m) // 2, 130 - m}):
            got = ag.matmul(Tensor(x[off:off + m].reshape(m, 1, k)), Tensor(w)).data
            assert np.array_equal(got.reshape(m, n), want[off:off + m]), (
                "rows %d:%d of a (%d, %d) @ (%d, %d) product differ from the same rows "
                "of a 130-row product under BLAS %s %s"
                % (off, off + m, m, k, k, n, blas.get("name"), blas.get("version")))


def test_matmul_stack_backward_memory():
    """The weight gradient never materializes a (B, k, m) stack (134 MB here)."""
    a = Tensor(rand(64, 10, 256, seed=19), requires_grad=True)
    w = Tensor(rand(256, 1024, seed=20), requires_grad=True)
    loss = ag.sum_(ag.matmul(a, w))
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.allclose(w.grad, a.data.sum(axis=(0, 1))[:, None] * np.ones(1024))


def test_exp_log_sqrt():
    check_grads(lambda a: ag.log(ag.exp(a) + 1.0), [rand(3, 3, seed=11)])
    check_grads(lambda a: ag.sqrt(a), [rand(4, seed=12, lo=0.5, hi=2.0)])


def test_gelu():
    check_grads(lambda a: ag.gelu(a), [rand(3, 5, seed=13, lo=-2.0, hi=2.0)])


# the rules as written before they worked in place; the primitives must
# match them bit for bit

def _ref_gelu(a):
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return ag._op(x * cdf, (a, lambda g: g * (cdf + x * (np.exp(-0.5 * x * x)
                                                         / np.sqrt(2.0 * np.pi)))))


def _ref_layer_norm(x, gain, bias):
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-8)
    xhat = xc * inv

    def x_rule(g):
        gx = g * gain.data
        t1 = gx * inv
        t2 = xhat * (gx * xhat).sum(axis=-1, keepdims=True) * inv / d
        t3 = inv * gx.sum(axis=-1, keepdims=True) / d
        return t1 - t2 - t3

    return ag._op(gain.data * xhat + bias.data, (x, x_rule), (gain, lambda g: g * xhat),
                  (bias, lambda g: g))


@pytest.mark.parametrize("op,ref,shapes", [
    (ag.gelu, _ref_gelu, [(128, 12, 128)]),
    (ag.gelu, _ref_gelu, [()]),
    (ag.layer_norm, _ref_layer_norm, [(128, 12, 32), (32,), (32,)]),
    (ag.layer_norm, _ref_layer_norm, [(7, 256), (256,), (256,)]),
], ids=["gelu", "gelu_0d", "layer_norm", "layer_norm_2d"])
def test_rules_match_reference_bits(op, ref, shapes):
    rng = np.random.default_rng(46)
    arrays = [rng.standard_normal(s) * 3.0 for s in shapes]
    g = rng.standard_normal(shapes[0])

    def run(build):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        out = build(*leaves)
        ag.sum_(out * Tensor(g)).backward()
        return [out.data] + [leaf.grad for leaf in leaves]

    for got, want in zip(run(op), run(ref)):
        _assert_same_bits(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("axis", [None, 0, 1, -1, (0, 1), (1, 2)])
def test_sum_axes(axis):
    check_grads(lambda a: ag.sum_(a, axis=axis), [rand(2, 3, 4, seed=14)])


@pytest.mark.parametrize("axis", [None, -1, (0, 2)])
def test_mean_axes(axis):
    # the mean of a partial sum, the shape diffusion_loss reduces in
    check_grads(lambda a: ag.mean(ag.sum_(a, axis=axis)), [rand(2, 3, 4, seed=15)])


def test_reshape_swapaxes():
    check_grads(lambda a: ag.swapaxes(ag.reshape(a, (2, 3, 2, 2)), 1, 2),
                [rand(2, 12, seed=16)])


def test_concat_axis0_and_axis1():
    check_grads(lambda a, b: ag.concat([a, b], axis=0),
                [rand(2, 3, seed=17), rand(4, 3, seed=18)])
    check_grads(lambda a, b: ag.concat([a, b], axis=1),
                [rand(2, 3, 4, seed=19), rand(2, 2, 4, seed=20)])


def test_slice_rows():
    check_grads(lambda a: ag.slice_rows(a, 1, 4), [rand(6, 3, seed=21)])


def test_gather_rows_repeated_indices():
    idx = np.array([[0, 2, 2], [4, 0, 1]])
    check_grads(lambda a: ag.gather_rows(a, idx), [rand(5, 3, seed=22)])


def test_gather_concat_across_boundary():
    idx = np.array([0, 3, 4, 6, 3])   # rows from both tables, one repeated
    check_grads(lambda a, b: ag.gather_concat(a, b, idx),
                [rand(4, 3, seed=23), rand(4, 3, seed=24)])


def test_take_rows_repeated():
    idx = np.array([[0, 0, 2], [1, 3, 3]])
    check_grads(lambda a: ag.take_rows(a, idx), [rand(2, 4, 3, seed=25)])


def test_take_last_axis():
    idx = np.array([1, 0, 3])
    check_grads(lambda a: ag.take_last_axis(a, idx), [rand(3, 4, seed=26)])


# Reference gathers, each with its own scatter-add backward. Each returns
# the forward value and the gradient every leaf holds after one backward
# pass of upstream gradient g (None: no gradient); the primitives must match
# them bit for bit.

def _ref_accumulate(full):
    grad = np.zeros_like(full)
    grad += full
    return grad


def _ref_gather_rows(table, idx, g):
    full = np.zeros_like(table)
    np.add.at(full, idx, g)
    return table[idx], [_ref_accumulate(full)]


def _ref_take_rows(src, idx, g):
    batch = np.arange(src.shape[0])[:, None]
    full = np.zeros_like(src)
    np.add.at(full, (batch, idx), g)
    return src[batch, idx], [_ref_accumulate(full)]


def _ref_take_last_axis(src, idx, g):
    lead = np.indices(idx.shape)
    full = np.zeros_like(src)
    np.add.at(full, (*lead, idx), g)
    return src[(*lead, idx)], [_ref_accumulate(full)]


def _ref_gather_concat(table_a, table_b, idx, g, grad_a, grad_b):
    split = table_a.shape[0]
    in_a = idx < split
    local = np.where(in_a, idx, idx - split)
    data = np.where(in_a[..., None], table_a[np.where(in_a, local, 0)],
                    table_b[np.where(in_a, 0, local)])
    grads = [None, None]
    if grad_a:
        full = np.zeros_like(table_a)
        np.add.at(full, local[in_a], g[in_a])
        grads[0] = _ref_accumulate(full)
    if grad_b:
        full = np.zeros_like(table_b)
        np.add.at(full, local[~in_a], g[~in_a])
        grads[1] = _ref_accumulate(full)
    return data, grads


def _run_gather(op, arrays, requires_grad, g, *args):
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, requires_grad)]
    out = op(*leaves, *args)
    ag.sum_(out * Tensor(g)).backward()
    return out.data, [leaf.grad for leaf in leaves]


def _assert_same_bits(got, want):
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


GATHER_CASES = {
    # name -> (op, reference, leaf shapes, index builder)
    "gather_rows": (ag.gather_rows, _ref_gather_rows, [(7, 5)],
                    lambda rng: rng.integers(0, 7, size=(6, 9))),
    "take_rows": (ag.take_rows, _ref_take_rows, [(4, 6, 5)],
                  lambda rng: rng.integers(0, 6, size=(4, 15))),
    "take_last_axis": (ag.take_last_axis, _ref_take_last_axis, [(3, 4, 5)],
                       lambda rng: rng.integers(0, 5, size=(3, 4))),
}


@pytest.mark.parametrize("name", sorted(GATHER_CASES))
def test_gather_matches_reference_bits(name):
    op, ref, shapes, make_idx = GATHER_CASES[name]
    rng = np.random.default_rng(41)
    arrays = [rng.standard_normal(s) for s in shapes]
    idx = make_idx(rng)
    assert len(np.unique(idx)) < idx.size            # repeated index values
    g = rng.standard_normal(op(Tensor(arrays[0]), idx).data.shape)
    want_out, want_grads = ref(*arrays, idx, g)
    out, grads = _run_gather(op, arrays, [True], g, idx)
    _assert_same_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        _assert_same_bits(got, want)


@pytest.mark.parametrize("requires_grad", [(True, True), (True, False), (False, True)])
def test_gather_concat_matches_reference_bits(requires_grad):
    rng = np.random.default_rng(43)
    arrays = [rng.standard_normal((6, 5)), rng.standard_normal((4, 5))]
    idx = rng.integers(0, 10, size=(5, 8))
    g = rng.standard_normal((5, 8, 5))
    want_out, want_grads = _ref_gather_concat(*arrays, idx, g, *requires_grad)
    out, grads = _run_gather(ag.gather_concat, arrays, requires_grad, g, idx)
    _assert_same_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        _assert_same_bits(got, want)


def test_pack_and_unpack_rows():
    rows = np.array([4, 0, 3])
    check_grads(lambda a: ag.pack_rows(a, rows), [rand(2, 3, 4)])
    check_grads(lambda a: ag.unpack_rows(a, rows, (2, 3, 4)), [rand(3, 4)])
    x = rand(2, 3, 4, seed=1)
    back = ag.unpack_rows(ag.pack_rows(Tensor(x), rows), rows, x.shape).data.reshape(6, 4)
    assert np.array_equal(back[rows], x.reshape(6, 4)[rows])
    assert not np.any(np.delete(back, rows, axis=0))


def test_masked_softmax_grad():
    mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1]], dtype=float)
    check_grads(lambda a: ag.masked_softmax(a, mask), [rand(2, 4, seed=27)])


def test_masked_softmax_fully_masked_row_is_zero_and_finite():
    x = Tensor(rand(2, 3, seed=28), requires_grad=True)
    mask = np.array([[1, 1, 1], [0, 0, 0]], dtype=float)
    p = ag.masked_softmax(x, mask)
    assert np.all(np.isfinite(p.data))
    assert np.allclose(p.data[1], 0.0)
    assert abs(p.data[0].sum() - 1.0) < 1e-12
    ag.sum_(p * rand(2, 3, seed=29)).backward()
    assert np.all(np.isfinite(x.grad))
    assert np.allclose(x.grad[1], 0.0)


def test_layer_norm_grads():
    check_grads(lambda x, g, b: ag.layer_norm(x, g, b),
                [rand(2, 3, 5, seed=30), rand(5, seed=31, lo=0.5, hi=1.5),
                 rand(5, seed=32)])


def test_l2_normalize():
    check_grads(lambda a: ag.l2_normalize(a), [rand(3, 4, seed=33, lo=0.3, hi=1.0)])


def test_composite_expression():
    def build(a, b, g, bias):
        h = ag.layer_norm(ag.matmul(a, b), g, bias)
        p = ag.masked_softmax(h, np.ones(h.data.shape))
        return ag.l2_normalize(ag.gelu(p + h))
    check_grads(build, [rand(3, 4, seed=34), rand(4, 5, seed=35),
                        rand(5, seed=36, lo=0.5, hi=1.5), rand(5, seed=37)])


def test_backward_requires_scalar():
    t = Tensor(rand(2, 2, seed=38), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_no_grad_suppresses_tracking():
    t = Tensor(rand(2, 2, seed=39), requires_grad=True)
    with ag.no_grad():
        out = ag.gelu(ag.matmul(t, t))
    assert not out.requires_grad
    assert out._backward is None


def test_deep_chain_no_recursion_limit():
    t = Tensor(np.ones(3), requires_grad=True)
    h = t
    for _ in range(3000):
        h = h + 1.0
    ag.sum_(h).backward()
    assert np.allclose(t.grad, 1.0)


def test_grad_accumulates_over_reuse():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ag.sum_(t * 3.0) + ag.sum_(t * t)
    out.backward()
    assert np.allclose(t.grad, 3.0 + 2.0 * t.data)


class RecordingPool:
    """A real one-worker executor that keeps every future it hands out and the
    arguments of each call; wrap may replace each submitted call."""

    def __init__(self, executor, wrap=lambda fn: fn):
        self.executor, self.wrap, self.futures, self.args = executor, wrap, [], []

    def submit(self, fn, *args):
        self.args.append(args)
        self.futures.append(self.executor.submit(self.wrap(fn), *args))
        return self.futures[-1]


@pytest.fixture
def worker():
    executor = ThreadPoolExecutor(1)
    yield executor
    executor.shutdown()


def _weight_graph(rule=None):
    """Leaves x, s, W, bias, E and a scalar loss in which W is the right
    operand of three products, x @ W, a stack s' @ W and h @ W + bias, which
    backward walks in reverse order, and between the first and second also
    gets the synchronous gradient of mul(W, c). swapaxes(E) is a right
    operand that is not a leaf. rule, when given, is the rule of a node
    between the second and third product."""
    x = Tensor(rand(12, 8, seed=60), requires_grad=True)
    s = Tensor(rand(2, 3, 8, seed=61), requires_grad=True)
    w = Tensor(rand(8, 8, seed=62), requires_grad=True)
    bias = Tensor(rand(8, seed=63), requires_grad=True)
    e = Tensor(rand(5, 8, seed=64), requires_grad=True)
    p1 = ag.matmul(x, w)                                     # (12, 8)
    c = ag.sum_(p1, axis=0)                                  # depends on p1
    h = ag.gelu(ag.mul(w, c))                                # W's synchronous gradient
    stack = ag.concat([ag.reshape(h, (2, 4, 8)), s], axis=1)   # (2, 7, 8)
    p2 = ag.matmul(stack, w)                                 # (2, 7, 8)
    if rule is not None:
        p2 = ag._op(p2.data.copy(), (p2, rule))
    p3 = ag.matmul(ag.reshape(p2, (14, 8)), w, bias)         # (14, 8)
    out = ag.matmul(p3, ag.swapaxes(e, 0, 1))                # (14, 5)
    loss = ag.sum_(out * rand(14, 5, seed=65)) + ag.sum_(w * rand(8, 8, seed=66))
    return loss, {"x": x, "s": s, "w": w, "bias": bias, "e": e}


# the leaf edges of _weight_graph: W's three products, mul(W, c) and the
# w * rand term, and one each into x, s, bias and E (through swapaxes)
WEIGHT_GRAPH_LEAF_EDGES = {"x": 1, "s": 1, "w": 5, "bias": 1, "e": 1}


def test_backward_with_a_pool_matches_the_walk_without_one(worker):
    loss, leaves = _weight_graph()
    loss.backward()
    want = {n: t.grad.tobytes() for n, t in leaves.items()}
    interval = sys.getswitchinterval()
    for switch in (interval, 1e-6):
        sys.setswitchinterval(switch)
        try:
            loss, leaves = _weight_graph()
            pool = RecordingPool(worker)
            loss.backward(pool=pool)
        finally:
            sys.setswitchinterval(interval)
        # every gradient into a leaf goes to the worker, W's three GEMMs too
        names = {id(t): n for n, t in leaves.items()}
        handed = [names[id(args[0])] for args in pool.args]
        assert {n: handed.count(n) for n in leaves} == WEIGHT_GRAPH_LEAF_EDGES
        assert sum(type(args[1]) is ag._WeightGrad for args in pool.args) == 3
        assert {n: t.grad.tobytes() for n, t in leaves.items()} == want


def _fails_on_gemm(calls, error, which):
    """A RecordingPool wrap: each handed-over call runs after 0.05 s, and
    raises error where it is a weight-gradient GEMM whose index, counted over
    the GEMMs as the worker reaches them, is in which."""
    def wrap(fn):
        def call(*args):
            time.sleep(0.05)
            if type(args[1]) is ag._WeightGrad:
                calls.append(1)
                if len(calls) - 1 in which:
                    raise error
            return fn(*args)
        return call
    return wrap


@pytest.mark.parametrize("gemm_fails", [False, True])
def test_backward_waits_for_the_worker_when_a_rule_raises(worker, gemm_fails):
    def boom(g):
        raise RuntimeError("rule failed")

    loss, leaves = _weight_graph(boom)
    pool = RecordingPool(worker, _fails_on_gemm([], FloatingPointError("gemm failed"),
                                                {0} if gemm_fails else ()))
    # the rule's error, not the GEMM's, as in the walk without a pool
    with pytest.raises(RuntimeError, match="rule failed"):
        loss.backward(pool=pool)
    # the product after the failing node handed over W's GEMM and the bias,
    # and each was folded into its leaf unless it raised
    assert [args[0] for args in pool.args] == [leaves["w"], leaves["bias"]]
    assert all(f.done() for f in pool.futures)
    assert (leaves["w"].grad is None) == gemm_fails
    assert leaves["bias"].grad is not None
    assert all(leaves[n].grad is None for n in ("x", "s", "e"))


def test_backward_raises_the_error_of_a_deferred_gemm(worker):
    loss, leaves = _weight_graph()
    loss.backward()
    want = {n: t.grad.tobytes() for n, t in leaves.items()}
    loss, leaves = _weight_graph()
    pool = RecordingPool(worker, _fails_on_gemm([], FloatingPointError("gemm failed"), {1}))
    with pytest.raises(FloatingPointError, match="gemm failed"):
        loss.backward(pool=pool)
    assert len(pool.futures) == sum(WEIGHT_GRAPH_LEAF_EDGES.values())
    assert all(f.done() for f in pool.futures)
    # the walk went on, and every leaf but W got all of its gradient
    for n in ("x", "s", "bias", "e"):
        assert leaves[n].grad.tobytes() == want[n], n


def test_backward_with_a_pool_interleaves_one_leafs_gradients_in_walk_order(worker):
    """One leaf L gets, interleaved in the walk, deferred GEMMs (as the right
    operand of two products), gather_concat scatter-adds and a bias edge; the
    worker folds them in the walk's order, so L gets the inline bits."""
    def build():
        rng = np.random.default_rng(70)
        leaf = Tensor(rng.uniform(-1, 1, (8, 8)), requires_grad=True)
        other = Tensor(rng.uniform(-1, 1, (5, 8)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (8, 8)), requires_grad=True)
        p1 = ag.matmul(ag.gather_concat(leaf, other, np.array([0, 9, 3, 3, 12, 7, 1, 8])), leaf)
        p2 = ag.matmul(ag.gelu(p1), w, leaf)
        g2 = ag.gather_concat(leaf, other, np.array([4, 4, 10, 2, 6, 0, 11, 5]))
        p3 = ag.matmul(p2 * g2, leaf)
        return ag.sum_(p3 * rng.uniform(-1, 1, (8, 8))), (leaf, other, w)

    loss, tensors = build()
    loss.backward()
    want = [t.grad.tobytes() for t in tensors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            loss, tensors = build()
            pool = RecordingPool(worker)
            loss.backward(pool=pool)
            assert [t.grad.tobytes() for t in tensors] == want
    finally:
        sys.setswitchinterval(interval)
    kinds = ["gemm" if type(rule) is ag._WeightGrad else "other"
             for p, rule, _ in pool.args if p is tensors[0]]
    # two GEMMs, two scatter-adds and the bias, with GEMMs between the others
    assert len(kinds) == 5 and kinds.count("gemm") == 2
    assert kinds != sorted(kinds) and kinds != sorted(kinds, reverse=True)


def test_worker_waits_for_every_queued_call_and_raises_one_error(worker):
    """_Worker: without a pool a call runs only when its result is taken;
    leaving the block waits for every queued call, then raises the block's
    error if it raised, else the first error of a queued call."""
    ran = []

    def call(name, delay=0.0, error=None):
        time.sleep(delay)
        ran.append(name)
        if error is not None:
            raise error
        return name

    with ag._Worker() as inline:
        take = inline.start(call, "taken")
        inline.start(call, "never taken")
        assert ran == []
        assert take() == "taken"
    assert ran == ["taken"]
    ran.clear()
    with pytest.raises(ValueError, match="block"), ag._Worker(worker) as queued:
        queued.start(call, "slow", 0.1, KeyError("queued"))
        queued.start(call, "after")
        raise ValueError("block")
    assert ran == ["slow", "after"]
    ran.clear()
    with pytest.raises(KeyError, match="first"), ag._Worker(worker) as queued:
        assert queued.start(call, "taken")() == "taken"
        queued.start(call, "failing", 0.05, KeyError("first"))
        queued.start(call, "failing too", 0.0, KeyError("second"))
    assert ran == ["taken", "failing", "failing too"]


# one call of every public primitive and composite, on leaves x (2, 3) and
# y (3, 2) that both require grad
CALLS = {
    "add": lambda x, y: ag.add(x, x),
    "mul": lambda x, y: ag.mul(x, x),
    "div": lambda x, y: ag.div(x, x + 1.0),
    "matmul": lambda x, y: ag.matmul(x, y),
    "matmul:bias": lambda x, y: ag.matmul(x, y, ag.sum_(y, axis=0)),
    "exp": lambda x, y: ag.exp(x),
    "log": lambda x, y: ag.log(x),
    "sqrt": lambda x, y: ag.sqrt(x),
    "gelu": lambda x, y: ag.gelu(x),
    "sum_": lambda x, y: ag.sum_(x, axis=0),
    "mean": lambda x, y: ag.mean(ag.sum_(x, axis=1)),
    "reshape": lambda x, y: ag.reshape(x, (3, 2)),
    "swapaxes": lambda x, y: ag.swapaxes(x, 0, 1),
    "concat": lambda x, y: ag.concat([x, ag.swapaxes(y, 0, 1)], axis=1),
    "slice_rows": lambda x, y: ag.slice_rows(x, 1, 2),
    "gather_rows": lambda x, y: ag.gather_rows(x, np.array([1, 0, 1])),
    "gather_concat": lambda x, y: ag.gather_concat(x, ag.reshape(y, (2, 3)),
                                                   np.array([0, 3, 1])),
    "take_rows": lambda x, y: ag.take_rows(ag.reshape(x, (2, 3, 1)), np.array([[2], [0]])),
    "take_last_axis": lambda x, y: ag.take_last_axis(x, np.array([2, 0])),
    "pack_rows": lambda x, y: ag.pack_rows(x, np.array([1, 0])),
    "unpack_rows": lambda x, y: ag.unpack_rows(x, np.array([3, 0]), (2, 2, 3)),
    "masked_softmax": lambda x, y: ag.masked_softmax(x, np.array([1, 0, 1])),
    "layer_norm": lambda x, y: ag.layer_norm(x, ag.sum_(y, axis=1), ag.sum_(y * y, axis=1)),
    "l2_normalize": lambda x, y: ag.l2_normalize(x),
}


def test_every_public_function_is_in_calls():
    public = {name for name, fn in vars(ag).items()
              if callable(fn) and getattr(fn, "__module__", None) == ag.__name__
              and not name.startswith("_") and name not in ("Tensor", "no_grad")}
    assert public == {op.split(":")[0] for op in CALLS}


@pytest.mark.parametrize("op", sorted(CALLS))
def test_dropped_graph_leaves_no_cycle(op):
    """Reference counting alone frees a graph once its tensors are dropped."""
    gc.collect()
    gc.disable()
    try:
        x = Tensor(np.array([[0.5, 1.5, 1.0], [2.0, 0.7, 1.2]]), requires_grad=True)
        y = Tensor(np.array([[0.3, 1.1], [0.9, 1.4], [0.6, 0.8]]), requires_grad=True)
        ag.sum_(CALLS[op](x, y)).backward()
        assert x.grad is not None
        del x, y
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("g_shape", [(), (2,), (1, 2), (3, 1), (2, 3), (1, 3, 2)])
@pytest.mark.parametrize("first", [True, False])
def test_accumulate_rejects_wrong_shape(g_shape, first):
    """A gradient must have the tensor's shape; a broadcastable one is not spread."""
    t = Tensor(rand(3, 2, seed=42), requires_grad=True)
    if not first:
        t._accumulate(np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        t._accumulate(np.ones(g_shape))
    assert first == (t.grad is None)


@pytest.mark.parametrize("op", [
    lambda x: ag.swapaxes(x, 1, 2),
    lambda x: ag.concat([x, Tensor(rand(2, 3, 4, seed=43))], axis=1),
    lambda x: ag.sum_(x, axis=1),
], ids=["swapaxes", "concat_axis1", "sum_"])
def test_stored_grad_is_c_contiguous(op):
    """Strided views of the upstream gradient are copied before they are kept."""
    x = Tensor(rand(2, 3, 4, seed=44), requires_grad=True)
    out = op(x)
    scalarize(out, rand(*out.shape, seed=45)).backward()
    assert x.grad.flags.c_contiguous
