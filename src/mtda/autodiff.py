"""Dense-tensor reverse-mode automatic differentiation.

A tape of `Tensor` nodes built eagerly by the op functions below. The op set
is deliberately small: dense layers, 3x3 stride-1 conv, relu, 2x2 average
pooling, global average pooling, softmax, (weighted) softmax cross-entropy,
MSE, elementwise arithmetic on scalars, and a gradient-reversal node whose
backward pass multiplies the incoming adjoint by ``-lambda``.

The conv is a shifted-slice GEMM: the 9 shifted slices of the zero-padded
input form a column matrix that one matmul with the flattened kernel turns
into the output. Backward rebuilds the columns (they are not kept in the
graph) for dK and scatters ``k.T @ g`` back through the same 9 slices for dx.
Pooling sums four strided slices in place. `conv2d` is the whole-batch
reference: one column matrix for the batch, 9x the input, built again in
backward and once more as the dx columns. `conv_relu_pool`, the model's block
(conv, relu, pool) as one node, is the only op that runs in batch chunks, each
with a column matrix of about CHUNK_BYTES: only the pooled value and the relu
mask, one bit per conv output (`np.packbits`, 8 columns to a byte), are kept
for the whole batch, the mask only by a node that keeps a backward, and that
backward unpacks, unpools, masks and scatters one chunk at a time. A relu
followed by a pool needs only the sign of each input in backward (the
"Binarize" encoding of Jain et al., Gist, ISCA 2018), so one bit holds all a
decision needs. Chunking and packing keep every bit: numpy's stacked matmul
already runs one GEMM per sample, dK is still the sum of the whole per-sample
stack, col2im adds the 9 offsets in the same order, and an unpacked 0/1 byte
viewed as bool multiplies as the bool did. Its relu is two branch-free
passes, ``act *= mask`` then ``act += 0.0``: a masked write branches on every
element, and adding ``+0.0`` turns the ``-0.0`` a cut negative leaves into
relu's ``+0.0``.

All values are numpy arrays; float64 is used in tests (finite-difference
tolerances require it), float32 is fine for training. The GEMMs run in BLAS,
which may be threaded, and each BLAS kernel rounds them its own way: identical
graph + values give bit-identical gradients on one kernel, so training is
deterministic per (config, seed, data bytes, BLAS kernel). No array is written
once it is handed on: adjoints sum out of place, may be views or read-only
broadcasts, and callers only read ``.grad``.
"""

from __future__ import annotations

import numpy as np

from mtda.errors import ContractError, NumericError, ShapeError


class Tensor:
    """One node of the computation graph.

    `value` is a numpy array (scalars are 0-d arrays). Leaf tensors carry
    parameters or inputs; an interior node that needs a gradient (one of its
    parents does) remembers its parents and a closure that scatters the node's
    adjoint back to them, and any other keeps neither.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, name=""):
        self.value = np.asarray(value)
        if not np.all(np.isfinite(self.value)):
            raise NumericError(f"non-finite values in tensor {name or '<anon>'}")
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(name={self.name!r}, shape={self.value.shape})"

    # Scalar arithmetic, enough to combine losses (e.g. L_y - lambda * L_d).
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rmul__(self, other):
        return scale(self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents, backward, name=""):
    t = Tensor(value, requires_grad=any(p.requires_grad for p in parents), name=name)
    if t.requires_grad:
        t._parents = tuple(parents)
        t._backward = backward
    return t


def _accum(parent, delta):
    """Sum `delta` into `parent`'s adjoint out of place, so no adjoint is written once it is set."""
    if parent.requires_grad:
        total = delta if parent.grad is None else parent.grad + delta
        parent.grad = np.asarray(total).astype(parent.value.dtype, copy=False)


# ---------------------------------------------------------------------------
# ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("add operand shapes differ", a.shape, b.shape)
    out_val = a.value + b.value

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _node(out_val, (a, b), backward, name="add")


def sub(a, b):
    """``a + (-1 * b)``: bit for bit ``a - b``, as ``-1.0 * g`` is ``-g``."""
    return add(a, scale(b, -1.0))


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        _accum(a, c * g)

    return _node(c * a.value, (a,), backward, name="scale")


def dense(x, w, b):
    """x[n,a] @ w[a,b] + bias[b]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError("dense inner dims disagree", x.shape, w.shape)
    if b.value.shape != (w.shape[1],):
        raise ShapeError("dense bias width mismatch", b.shape, w.shape)
    out_val = x.value @ w.value + b.value

    def backward(g):
        _accum(x, g @ w.value.T)
        _accum(w, x.value.T @ g)
        _accum(b, g.sum(axis=0))

    return _node(out_val, (x, w, b), backward, name="dense")


# A batch chunk's column matrix takes about this many bytes; a chunk holds at least one sample.
CHUNK_BYTES = 1 << 20


def _chunks(x):
    """Slices of x's batch, in order, each holding as many samples as fit a
    CHUNK_BYTES column matrix (at least one)."""
    n, c, h, w = x.shape
    step = max(1, CHUNK_BYTES // (c * 9 * h * w * x.dtype.itemsize))
    return [slice(i, i + step) for i in range(0, n, step)]


def _columns(x):
    """(n,c,h,w) -> (n, c*9, h*w): the 9 shifted slices of the zero-padded
    input, ordered (channel, row offset, col offset) like ``k.reshape(f, c*9)``."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)  # np.pad costs more than a chunk's copies
    xp[:, :, 1:-1, 1:-1] = x
    cols = np.empty((n, c, 3, 3, h, w), dtype=x.dtype)
    for p in range(3):
        for q in range(3):
            cols[:, :, p, q] = xp[:, :, p : p + h, q : q + w]
    return cols.reshape(n, c * 9, h * w)


def _check_conv(x, k, op):
    """Shape-check a 3x3 conv of Tensors x, k and return the dtype of its value."""
    if x.value.ndim != 4 or k.value.ndim != 4:
        raise ShapeError(f"{op} expects rank-4 input and kernel", x.shape, k.shape)
    if k.shape[2:] != (3, 3):
        raise ShapeError(f"{op} kernel must be 3x3", k.shape)
    if x.shape[1] != k.shape[1]:
        raise ShapeError(f"{op} channel mismatch", x.shape, k.shape)
    return np.result_type(x.value.dtype, k.value.dtype)


def _conv(x, k):
    """The (m, f, h, w) conv of m samples x with kernel k (arrays): one GEMM per sample."""
    (m, c, h, w), f = x.shape, k.shape[0]
    return (k.reshape(f, c * 9) @ _columns(x)).reshape(m, f, h, w)


def _conv_backward(x, k, g, slices, adjoint):
    """Accumulate dK (every kernel is a parameter) and dx, if x needs it, of the
    conv of x and k over the batch `slices` in order: `[slice(None)]` for the
    whole batch, or `_chunks` of it; ``adjoint(s)`` is the conv output's adjoint
    on slice s, with the dtype of g. Each slice's columns are rebuilt: kept from
    forward they would cost 9x the input per conv until the sweep ends. dK is the
    sum over the whole per-sample stack, as a sum of per-slice sums would round
    differently."""
    (n, c, h, w), f = x.shape, k.shape[0]
    kt = k.value.reshape(f, c * 9).T
    dk = np.empty((n, f, c * 9), dtype=np.result_type(g.dtype, x.value.dtype))
    if x.requires_grad:
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=np.result_type(kt.dtype, g.dtype))
    for s in slices:
        g2 = adjoint(s).reshape(-1, f, h * w)
        dk[s] = g2 @ _columns(x.value[s]).transpose(0, 2, 1)
        if x.requires_grad:
            # col2im: each column row adds back onto the slice it came from.
            dcols = (kt @ g2).reshape(-1, c, 3, 3, h, w)
            for p in range(3):
                for q in range(3):
                    dxp[s, :, p : p + h, q : q + w] += dcols[:, :, p, q]
    _accum(k, dk.sum(axis=0).reshape(k.shape))
    if x.requires_grad:
        _accum(x, dxp[:, :, 1:-1, 1:-1])


def conv2d(x, k):
    """3x3 cross-correlation, stride 1, zero padding 1; same spatial dims. Whole batch at once."""
    x, k = _as_tensor(x), _as_tensor(k)
    _check_conv(x, k, "conv2d")
    return _node(
        _conv(x.value, k.value), (x, k), lambda g: _conv_backward(x, k, g, [slice(None)], lambda s: g[s]), name="conv2d"
    )


def relu(x):
    x = _as_tensor(x)
    mask = x.value > 0

    def backward(g):
        _accum(x, g * mask)

    return _node(np.where(mask, x.value, 0.0), (x,), backward, name="relu")


def _quadrants(shape):
    """The four strided (rows, cols) slices of 2x2 pooling of an input of `shape`;
    odd trailing rows/cols are dropped."""
    h, w = shape[2:]
    return [(slice(i, 2 * (h // 2), 2), slice(j, 2 * (w // 2), 2)) for i in (0, 1) for j in (0, 1)]


def _pool(v):
    """``0.25 * (q00 + q01 + q10 + q11)``, summed in place in that order: the same bits, one temporary."""
    q00, q01, q10, q11 = (v[:, :, r, q] for r, q in _quadrants(v.shape))
    out = q00 + q01
    out += q10
    out += q11
    out *= 0.25
    return out


def _unpool(g, shape):
    """The adjoint of `_pool` on an input of `shape`: a quarter of g in each quadrant. The
    quadrants cover every element unless h or w is odd, and only then is the rest zeroed."""
    h, w = shape[2:]
    dx = (np.zeros if h % 2 or w % 2 else np.empty)(shape, dtype=g.dtype)
    quarter = 0.25 * g
    for r, q in _quadrants(shape):
        dx[:, :, r, q] = quarter
    return dx


def avg_pool2(x):
    """2x2 average pooling, stride 2; odd trailing rows/cols are dropped."""
    x = _as_tensor(x)
    if x.value.ndim != 4:
        raise ShapeError("avg_pool2 expects rank-4 input", x.shape)
    return _node(_pool(x.value), (x,), lambda g: _accum(x, _unpool(g, x.value.shape)), name="avg_pool2")


def conv_relu_pool(x, k):
    """``avg_pool2(relu(conv2d(x, k)))`` as one node, bit for bit. Backward keeps only the relu
    mask, packed 8 columns to a byte. A node that needs no gradient keeps no backward (`_node`),
    so it packs no mask either."""
    x, k = _as_tensor(x), _as_tensor(k)
    dtype = _check_conv(x, k, "conv_relu_pool")
    (n, _, h, w), f = x.shape, k.shape[0]
    out = np.empty((n, f, h // 2, w // 2), dtype=dtype)
    packed = np.empty((n, f, h, -(-w // 8)), dtype=np.uint8) if x.requires_grad or k.requires_grad else None
    for s in _chunks(x.value):
        act = _conv(x.value[s], k.value)
        if not np.isfinite(act.min(initial=0.0)):  # NaN or -inf, which relu would hide
            raise NumericError("non-finite values in tensor conv_relu_pool")
        mask = act > 0
        if packed is not None:
            packed[s] = np.packbits(mask, axis=-1)
        act *= mask  # branch-free, unlike a masked write; a cut negative becomes -0.0 ...
        act += 0.0  # ... and -0.0 + 0.0 is +0.0, exactly what relu's np.where writes
        out[s] = _pool(act)

    def backward(g):
        def adjoint(s):
            gs = g[s]
            dact = _unpool(gs, (*gs.shape[:2], h, w))
            dact *= np.unpackbits(packed[s], axis=-1, count=w).view(bool)  # 0/1 bytes multiply as the bools did
            return dact

        _conv_backward(x, k, g, _chunks(x.value), adjoint)

    return _node(out, (x, k), backward, name="conv_relu_pool")


def global_avg_pool(x):
    """(n,c,h,w) -> (n,c) spatial mean."""
    x = _as_tensor(x)
    if x.value.ndim != 4:
        raise ShapeError("global_avg_pool expects rank-4 input", x.shape)
    n, c, h, w = x.shape
    out_val = x.value.mean(axis=(2, 3))

    def backward(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.value.shape))

    return _node(out_val, (x,), backward, name="global_avg_pool")


def softmax(x):
    x = _as_tensor(x)
    if x.value.ndim != 2:
        raise ShapeError("softmax expects rank-2 input", x.shape)
    e = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        _accum(x, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _node(s, (x,), backward, name="softmax")


def _check_onehot(onehot):
    v = np.asarray(onehot)
    if v.ndim != 2:
        raise ContractError("one-hot matrix must be rank 2")
    if not (((v == 0) | (v == 1)).all() and (v.sum(axis=1) == 1).all()):
        raise ContractError("rows must be one-hot (single 1, rest 0)")
    return v


def softmax_cross_entropy(logits, onehot, weights):
    """sum_i weights[i] * (-log softmax(logits)[i, label_i]).

    Gradient flows to `logits` only; `onehot` and `weights` are data.
    """
    logits = _as_tensor(logits)
    y = _check_onehot(onehot)
    w = np.asarray(weights, dtype=float)
    if logits.value.ndim != 2 or y.shape != logits.value.shape:
        raise ShapeError("logits/onehot shape mismatch", logits.shape, y.shape)
    if w.shape != (logits.shape[0],):
        raise ShapeError("weights must be one per row", w.shape, logits.shape)
    if np.any(w < 0):
        raise ContractError("weights must be non-negative")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    per_row = -(y * log_probs).sum(axis=1)
    out_val = float((w * per_row).sum())
    probs = np.exp(log_probs)

    def backward(g):
        _accum(logits, g * w[:, None] * (probs - y))

    return _node(out_val, (logits,), backward, name="softmax_cross_entropy")


def mse_loss(pred, target):
    """Sum of squared differences per sample; rank>=2 inputs mean over axis 0."""
    pred = _as_tensor(pred)
    t = np.asarray(target, dtype=float)
    if pred.value.shape != t.shape:
        raise ShapeError("mse operand shapes differ", pred.shape, t.shape)
    diff = pred.value - t
    if diff.ndim <= 1:
        out_val = float((diff**2).sum())
        coeff = 2.0
    else:
        n = diff.shape[0]
        out_val = float((diff**2).reshape(n, -1).sum(axis=1).mean())
        coeff = 2.0 / n

    def backward(g):
        _accum(pred, g * coeff * diff)

    return _node(out_val, (pred,), backward, name="mse_loss")


def gradient_reversal(x, lam):
    """Identity forward; backward multiplies the incoming adjoint by -lam."""
    x = _as_tensor(x)
    lam = float(lam)
    if lam < 0:
        raise ContractError("gradient_reversal lambda must be >= 0")

    def backward(g):
        _accum(x, -lam * g)

    return _node(x.value, (x,), backward, name="gradient_reversal")


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Reverse-mode sweep from a scalar loss; fills `.grad` on reachable leaves."""
    if np.asarray(loss.value).ndim != 0:
        raise ContractError("backprop root must be scalar")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        if not np.all(np.isfinite(node.grad)):
            raise NumericError(f"non-finite adjoint at node {node.name!r}")
        node._backward(node.grad)
