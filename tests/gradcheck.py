"""Central finite-difference gradient checking, traced memory peaks and a disk that fills
mid-write, shared by the test modules."""

import errno
import tracemalloc
from pathlib import Path

import numpy as np

from mtda import autodiff as ad


def numerical_grad(loss_fn, arr, step=1e-5):
    """Central differences of a scalar-valued function of one array."""
    arr = np.asarray(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(loss_fn(arr))
        flat[i] = orig - step
        lo = float(loss_fn(arr))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def assert_grads_close(analytic, numeric, rtol=1e-4):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(numeric).max(), 1e-8)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=rtol * scale)


def check_op(build_loss, arrs, step=1e-5, rtol=1e-4):
    """`build_loss` maps a list of plain arrays (as leaf Tensors) to a scalar node.

    Verifies the backward-pass gradient of every input against central
    finite differences.
    """
    arrs = [np.asarray(a, dtype=np.float64) for a in arrs]
    leaves = [ad.Tensor(a.copy(), requires_grad=True) for a in arrs]
    loss = build_loss(*leaves)
    ad.backward(loss)
    for idx, leaf in enumerate(leaves):
        def loss_at(a, idx=idx):
            probe = [x.copy() for x in arrs]
            probe[idx] = a
            return build_loss(*[ad.Tensor(p) for p in probe]).value

        num = numerical_grad(loss_at, arrs[idx].copy(), step=step)
        analytic = np.zeros_like(arrs[idx]) if leaf.grad is None else leaf.grad
        assert_grads_close(analytic, num, rtol=rtol)


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def full_disk_after_half(monkeypatch):
    """Make every `Path.write_bytes` write half its bytes, then fail as a full disk does."""
    write = Path.write_bytes

    def half_then_full(path, data):
        write(path, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_then_full)
