"""Exact O(n^2) t-SNE.

Serves two purposes: computing the joint 2-D embedding used for
domain-distance estimation, and exporting embeddings of learned features for
visualization. Gradient descent on KL(P || Q) with a Student-t (df=1) Q,
following the reference algorithm on a fixed schedule: learning rate 200,
momentum 0.5 for the first 250 iterations and 0.8 after, and early
exaggeration over those same 250 iterations; short runs cap that early
phase at a quarter of `iters`. Everything is seeded and deterministic.

Every matrix in the gradient is symmetric, so the descent forms each point
pair i <= j once, over the upper triangle's row blocks in one buffer of
about n^2/2 float64 allocated once per run. The traced peak is in
`affinities`, which calibrates its rows in blocks of about BLOCK_BYTES from
their own distances: P and numpy's buffer for `cond += cond.T`, about 2.0 n^2
float64 at 600-960 points, or at a few hundred points P and one block's
calibration temporaries, about 1.6 MB (3.3 n^2 at 300). The descent holds P
and the triangle, and the early phase scales P one row block at a time
instead of keeping an exaggerated copy. Row blocks keep every bit in
`affinities`; in the descent they change the order of the sums, which stay
within 1e-13 of the dense formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mtda.errors import ContractError, NumericError

_BETA_FLOOR = 1e-12  # precision floor; handles duplicate points
_CALIBRATE_STEPS = 64  # bisection steps per row
_CALIBRATE_TOL = 1e-4  # on |2^H - perplexity|
_LEARNING_RATE = 200.0
_MOMENTUM_EARLY, _MOMENTUM_LATE = 0.5, 0.8
_EARLY_ITERS = 250  # momentum switch and end of exaggeration

# A row block's float64 rows take about this many bytes; a block holds at least one row.
BLOCK_BYTES = 1 << 18


@dataclass
class TsneConfig:
    perplexity: float | None = None  # None -> min(30, n/4)
    iters: int = 1000
    exaggeration: float = 12.0
    seed: int = 0


@dataclass
class Embedding:
    points: np.ndarray  # n x 2
    kl_initial: float = float("nan")
    kl_final: float = float("nan")


def _calibrate(sq, perplexity):
    """Bisect the Gaussian precision of every row of `sq` at once.

    `sq` is (m, n-1): each row holds one point's squared distances to the
    other points. Each row stops once 2^H(p) is within tolerance of
    `perplexity`; only rows still searching are recomputed. Returns
    (sigma, probabilities, gaps): rows that never converge keep the last
    bandwidth tried, and `gaps` holds their |2^H - perplexity|.
    """
    sq = np.asarray(sq, dtype=np.float64)
    if np.any(sq < 0):
        raise ContractError("squared distances must be non-negative")
    m, n_other = sq.shape
    if not 2 <= perplexity <= n_other + 1:
        raise ContractError(f"perplexity {perplexity} outside [2, {n_other + 1}]")
    target = np.log2(perplexity)
    beta, beta_lo, beta_hi = np.ones(m), np.zeros(m), np.full(m, np.inf)
    probs, h = np.empty_like(sq), np.empty(m)
    rows = np.arange(m)
    for step in range(_CALIBRATE_STEPS + 1):
        q = sq[rows]
        q *= -beta[rows, None]
        q -= q.max(axis=1, keepdims=True)
        np.exp(q, out=q)
        q /= q.sum(axis=1, keepdims=True)
        plogp = np.log2(q, out=np.zeros_like(q), where=q > 0)
        plogp *= q
        probs[rows], h[rows] = q, -plogp.sum(axis=1)
        rows = rows[~(np.abs(2.0 ** h[rows] - perplexity) <= _CALIBRATE_TOL)]  # NaN keeps searching
        if not rows.size or step == _CALIBRATE_STEPS:
            break
        b, flat = beta[rows], h[rows] > target  # too flat: raise precision
        lo = beta_lo[rows] = np.where(flat, b, beta_lo[rows])
        hi = beta_hi[rows] = np.where(flat, beta_hi[rows], b)
        beta[rows] = np.maximum(np.where(np.isinf(hi), b * 2.0, (lo + hi) / 2.0), _BETA_FLOOR)
    return np.sqrt(1.0 / (2.0 * beta)), probs, np.abs(2.0 ** h[rows] - perplexity)


def _warn_unconverged(gaps, m):
    """One warning for the rows of a call whose calibration did not converge."""
    if gaps.size:
        warnings.warn(
            f"perplexity calibration did not converge for {gaps.size} of {m} rows "
            f"(max |2^H - perp| = {gaps.max():.3g})",
            RuntimeWarning,
        )


def perplexity_calibrate(sq_distances_row, perplexity):
    """Binary-search the Gaussian bandwidth for one point's neighbor row.

    `sq_distances_row` holds squared distances to the other n-1 points. The
    search targets 2^H(p) == perplexity. Returns (sigma, probabilities). On
    non-convergence the best bandwidth found is returned with a warning.
    """
    sigma, p, gaps = _calibrate(np.asarray(sq_distances_row)[None], perplexity)
    _warn_unconverged(gaps, 1)
    return float(sigma[0]), p[0]


def _sq_distances(a, b, out=None):
    """|a_i - b_j|^2 as exact differences, (a_i - b_j)^2 summed over the
    coordinates in order, each entry on its own: a row block's rows are the
    whole matrix's bit for bit. With no BLAS product the bytes do not depend on
    the BLAS kernel or its thread count; on the 2-D embedding the Gram form
    would also cost 4x as much, and its cancellation reaches 1e-11 of a
    distance where exact differences round at about 1e-16."""
    from scipy.spatial.distance import cdist  # ~0.4 s to import; only t-SNE needs it

    return cdist(a, b, "sqeuclidean", out=out)


def pairwise_sq_distances(x):
    """The n x n `_sq_distances` of x: the reference for `affinities`' and the descent's row blocks."""
    x = np.asarray(x, dtype=np.float64)
    return _sq_distances(x, x)


def _row_blocks(n):
    """Slices of n rows, in order, each as many rows of n float64 as fit
    BLOCK_BYTES (at least one)."""
    step = max(1, BLOCK_BYTES // (8 * n))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def affinities(x, perplexity):
    """Symmetrized joint affinity matrix P (sums to 1, zero diagonal).

    Each row block is calibrated from its squared distances to all n points
    and written into `cond` off its diagonal; `cond` then becomes P in place,
    as (cond + cond.T) / (2n).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ContractError("need at least 3 points")
    cond = np.zeros((n, n))
    gaps = []
    for b in _row_blocks(n):
        off = np.arange(b.start, b.stop)[:, None] != np.arange(n)
        _, probs, gap = _calibrate(_sq_distances(x[b], x)[off].reshape(-1, n - 1), perplexity)
        cond[b][off] = probs.ravel()
        gaps.append(gap)
    _warn_unconverged(np.concatenate(gaps), n)
    cond += cond.T  # numpy buffers the overlapping transpose
    cond /= 2.0 * n
    np.fill_diagonal(cond, 0.0)
    return cond


def _triangle_size(n):
    """Floats in the upper-triangle row blocks of n points' kernel."""
    return sum((b.stop - b.start) * (n - b.start) for b in _row_blocks(n))


def _student_t_blocks(y, buf=None):
    """The Student-t kernel num_ij = 1 / (1 + |y_i - y_j|^2) over the upper
    triangle, and its normalizer sum_ij num_ij.

    Each row block b is held against columns b.start: only, in consecutive
    views of `buf` (a flat float64 array of `_triangle_size(n)`, allocated
    when not given): its first len(b) columns are the diagonal square, zero
    on its diagonal, and the rest is the rectangle of b against the later
    rows. num is symmetric, so the normalizer counts each square once and
    each rectangle twice. Returns [(b, block view)] and the normalizer.
    """
    n = len(y)
    if buf is None:
        buf = np.empty(_triangle_size(n))
    blocks, at, total = [], 0, 0.0
    for b in _row_blocks(n):
        m, k = b.stop - b.start, n - b.start
        num = buf[at : at + m * k].reshape(m, k)
        at += m * k
        _sq_distances(y[b], y[b.start :], out=num)
        num += 1.0
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        total += num[:, :m].sum() + 2.0 * num[:, m:].sum()
        blocks.append((b, num))
    return blocks, total


def kl_divergence(p, y):
    """KL(P || Q), summed over the pairs where p > 0.

    Each upper-triangle block of the kernel becomes q = max(num / S, 1e-12)
    and then the block's p log(p / q) terms in place; P and Q are symmetric,
    so a block's diagonal square counts once and its rectangle twice.
    """
    blocks, total = _student_t_blocks(np.asarray(y, dtype=np.float64))
    kl = 0.0
    for b, q in blocks:
        m, pb = b.stop - b.start, p[b, b.start :]
        q *= 1.0 / total
        np.maximum(q, 1e-12, out=q)
        nz = pb > 0
        np.divide(pb, q, out=q, where=nz)
        np.log(q, out=q, where=nz)
        q *= pb  # zero where p is
        kl += q[:, :m].sum() + 2.0 * q[:, m:].sum()
    return float(kl)


def kl_gradient(p, y, exaggeration=1.0, buf=None):
    """dKL/dY for fixed P scaled by `exaggeration`; the standard
    4 * sum_j (e*p_ij - q_ij) num_ij (y_i - y_j) form.

    Every matrix in it is symmetric, so each pair i <= j is formed once, in
    the upper-triangle row blocks of `_student_t_blocks` (`buf`, its one
    buffer of about n^2/2 floats, may be passed in to be reused). A second
    sweep turns each block into w = (e*p - q) * num in place, reading only
    p's matching block, so no scaled copy of P exists. Block b adds its row
    sums and w_b @ y[b.start:] to rows b; its rectangle's transpose adds the
    column sums and rect.T @ y[b] to the rows below. The gradient is then
    4 * (rowsum(w) * y - w @ y).
    """
    y = np.asarray(y, dtype=np.float64)
    blocks, total = _student_t_blocks(y, buf)
    rows, wy = np.zeros(len(y)), np.zeros_like(y)
    for b, w in blocks:
        m = b.stop - b.start
        q = np.multiply(w, 1.0 / total)  # a product is about 2.5x quicker than a division
        np.maximum(q, 1e-12, out=q)
        weight = p[b, b.start :] * exaggeration
        weight -= q
        w *= weight
        rows[b] += w.sum(axis=1)
        wy[b] += w @ y[b.start :]
        rect = w[:, m:]
        rows[b.stop :] += rect.sum(axis=0)
        wy[b.stop :] += rect.T @ y[b]
    grad = rows[:, None] * y
    grad -= wy
    grad *= 4.0
    return grad


def run_tsne(x, cfg: TsneConfig | None = None, init=None):
    """Embed rows of x into 2-D by momentum gradient descent on KL(P || Q).

    `init` overrides the seeded N(0, 1e-4) starting layout (initialization is
    keyed by row index, so callers wanting permutation equivariance must
    permute the initial layout along with the inputs).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 5:
        raise ContractError("need at least 5 points for t-SNE")
    cfg = cfg or TsneConfig()
    if cfg.iters < 1:
        raise ContractError(f"t-SNE needs at least 1 iteration, got {cfg.iters}")
    perplexity = cfg.perplexity if cfg.perplexity is not None else min(30.0, n / 4.0)
    perplexity = max(2.0, min(perplexity, n - 1))

    p = affinities(x, perplexity)
    if init is not None:
        y = np.array(init, dtype=np.float64)
    else:
        rng = np.random.default_rng(cfg.seed)
        y = rng.normal(scale=1e-4, size=(n, 2))
    kl_initial = kl_divergence(p, y)

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    # Short runs shrink the early phase proportionally; exaggeration must
    # end well before the run does or the final KL reflects the wrong target.
    early = min(_EARLY_ITERS, cfg.iters // 4)
    buf = np.empty(_triangle_size(n))
    for it in range(cfg.iters):
        grad = kl_gradient(p, y, cfg.exaggeration if it < early else 1.0, buf)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        momentum = _MOMENTUM_EARLY if it < early else _MOMENTUM_LATE
        gains = np.where(np.sign(grad) != np.sign(velocity), gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - _LEARNING_RATE * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    del buf
    kl_final = kl_divergence(p, y)
    return Embedding(points=y, kl_initial=kl_initial, kl_final=kl_final)
