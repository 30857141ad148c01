"""Exact O(n^2) t-SNE.

Serves two purposes: computing the joint 2-D embedding used for
domain-distance estimation, and exporting embeddings of learned features for
visualization. Gradient descent on KL(P || Q) with a Student-t (df=1) Q,
following the reference algorithm on a fixed schedule: learning rate 200,
momentum 0.5 for the first 250 iterations and 0.8 after, and early
exaggeration over those same 250 iterations; short runs cap that early
phase at a quarter of `iters`. Everything is seeded and deterministic.

Every matrix in the gradient is symmetric, so the descent forms each point
pair i <= j once, over the upper triangle cut into blocks of about
BLOCK_BYTES, and holds P and one block: a gradient sweeps the blocks once and
stores no kernel, and e*p is formed a block at a time. `affinities`
calibrates its rows in blocks of about BLOCK_BYTES and symmetrizes P in place
over the triangle's blocks. The traced peak is P and one row block's
calibration temporaries. Blocks keep every bit in `affinities`; in the
descent they change the order of the sums, which stay within 1e-13 of the
dense formula.
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

    `sq` is (m, n-1) float64, each row one point's squared distances to the
    other points until its search ends and its probabilities after. A row stops
    once 2^H(p) is within tolerance of `perplexity`; only rows still searching
    are recomputed, in two work arrays. Returns (sigma, sq, gaps): rows that
    never converge keep the last bandwidth tried, and `gaps` their |2^H - perplexity|.
    """
    if np.any(sq < 0):
        raise ContractError("squared distances must be non-negative")
    m, n_other = sq.shape
    if not 2 <= perplexity <= n_other + 1:
        raise ContractError(f"perplexity {perplexity} outside [2, {n_other + 1}]")
    target = np.log2(perplexity)
    beta, beta_lo, beta_hi = np.ones(m), np.zeros(m), np.full(m, np.inf)
    work, logs, h = np.empty_like(sq), np.zeros_like(sq), np.empty(m)
    rows = np.arange(m)
    for step in range(_CALIBRATE_STEPS + 1):
        q = np.take(sq, rows, axis=0, out=work[: rows.size], mode="clip")  # "clip" writes out unbuffered
        q *= -beta[rows, None]
        q -= q.max(axis=1, keepdims=True)
        np.exp(q, out=q)
        q /= q.sum(axis=1, keepdims=True)
        plogp = np.log2(q, out=logs[: rows.size], where=q > 0)  # q = 0 keeps a finite old log: times 0, it adds 0
        plogp *= q
        h[rows] = -plogp.sum(axis=1)
        # NaN keeps searching; the last step ends every search
        searching = ~(np.abs(2.0 ** h[rows] - perplexity) <= _CALIBRATE_TOL) & (step < _CALIBRATE_STEPS)
        sq[rows[~searching]] = q[~searching]
        rows = rows[searching]
        if not rows.size:
            break
        b, flat = beta[rows], h[rows] > target  # too flat: raise precision
        lo = beta_lo[rows] = np.where(flat, b, beta_lo[rows])
        hi = beta_hi[rows] = np.where(flat, beta_hi[rows], b)
        beta[rows] = np.maximum(np.where(np.isinf(hi), b * 2.0, (lo + hi) / 2.0), _BETA_FLOOR)
    gaps = np.abs(2.0 ** h - perplexity)
    return np.sqrt(1.0 / (2.0 * beta)), sq, gaps[~(gaps <= _CALIBRATE_TOL)]


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
    sigma, p, gaps = _calibrate(np.array(sq_distances_row, dtype=np.float64)[None], perplexity)
    _warn_unconverged(gaps, 1)
    return float(sigma[0]), p[0]


def _sq_distances(a, b):
    """|a_i - b_j|^2 as exact differences, (a_i - b_j)^2 summed over the
    coordinates in order, each entry on its own: a row block's rows are the
    whole matrix's bit for bit. With no BLAS product the bytes do not depend on
    the BLAS kernel or its thread count; on the 2-D embedding the Gram form
    would also cost 4x as much, and its cancellation reaches 1e-11 of a
    distance where exact differences round at about 1e-16."""
    from scipy.spatial.distance import cdist  # ~0.4 s to import; only t-SNE needs it

    return cdist(a, b, "sqeuclidean")


def pairwise_sq_distances(x):
    """The n x n `_sq_distances` of x: the reference for `affinities`' and the descent's row blocks."""
    x = np.asarray(x, dtype=np.float64)
    return _sq_distances(x, x)


def _row_blocks(n, triangle=False):
    """Slices of n rows, in order, each as many rows as fit BLOCK_BYTES of
    float64 (at least one): rows of n, or with `triangle` rows from the block's
    first column on, which cuts the upper triangle into blocks of equal area."""
    blocks, start = [], 0
    while start < n:
        stop = min(n, start + max(1, BLOCK_BYTES // (8 * (n - start if triangle else n))))
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def _pair_sum(a, b):
    """The sum over a symmetric matrix of block b's upper-triangle rows `a`
    (b against columns b.start:): the diagonal square once, the rectangle twice."""
    m = b.stop - b.start
    return a[:, :m].sum() + 2.0 * a[:, m:].sum()


def affinities(x, perplexity):
    """Symmetrized joint affinity matrix P (sums to 1, zero diagonal).

    Each row block is calibrated from its squared distances to all n points
    and written into `cond` off its diagonal; `cond` then becomes P,
    (cond + cond.T) / (2n), in place one upper-triangle block at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ContractError("need at least 3 points")
    cond = np.zeros((n, n))
    gaps = []
    for b in _row_blocks(n):
        off = np.arange(b.start, b.stop)[:, None] != np.arange(n)
        probs = _sq_distances(x[b], x)[off].reshape(-1, n - 1)
        gaps.append(_calibrate(probs, perplexity)[2])  # turns the distances into probabilities in place
        cond[b][off] = probs.ravel()
    _warn_unconverged(np.concatenate(gaps), n)
    for b in _row_blocks(n, triangle=True):
        upper = cond[b, b.start :]
        upper += cond[b.start :, b].T  # numpy buffers the overlapping transpose: one block
        upper /= 2.0 * n
        cond[b.start :, b] = upper.T
    return cond


def _student_t_blocks(y):
    """Yield each upper-triangle block (b, num) of the Student-t kernel num_ij =
    1 / (1 + |y_i - y_j|^2), rows b against columns b.start: with a zero
    diagonal, formed when it is reached so that one is alive at a time."""
    for b in _row_blocks(len(y), triangle=True):
        num = _sq_distances(y[b], y[b.start :])
        num += 1.0
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        yield b, num


def kl_divergence(p, y):
    """KL(P || Q), summed over the pairs where p > 0.

    One sweep over the kernel's blocks sums the normalizer S; a second forms
    each block's q = max(num / S, 1e-12) and its p log(p / q) terms in place.
    """
    y = np.asarray(y, dtype=np.float64)
    total = sum(_pair_sum(num, b) for b, num in _student_t_blocks(y))
    kl = 0.0
    for b, q in _student_t_blocks(y):
        pb = p[b, b.start :]
        q *= 1.0 / total
        np.maximum(q, 1e-12, out=q)
        nz = pb > 0
        np.divide(pb, q, out=q, where=nz)
        np.log(q, out=q, where=nz)
        q *= pb  # zero where p is
        kl += _pair_sum(q, b)
    return float(kl)


def _add_forces(acc, w, b, y1):
    """Add block w's pairs to acc: w @ [y | 1] gives rows b their weighted positions
    and row sums in one product, and the rectangle's transpose the rows below."""
    acc[b] += w @ y1[b.start :]
    acc[b.stop :] += w[:, b.stop - b.start :].T @ y1[b]


def kl_gradient(p, y, exaggeration=1.0):
    """dKL/dY for fixed P scaled by `exaggeration`: 4 sum_j (e*p_ij - q_ij) num_ij (y_i - y_j),
    q_ij = max(num_ij / S, 1e-12). With q = num / S it is an attraction with weights
    a = (e*p) num less a repulsion with weights r = num^2 divided by S once (van der
    Maaten, JMLR 2014), so one sweep over the kernel's upper-triangle blocks sums S and
    both forces: 4 [(rowsum(a) y - a @ y) - (rowsum(r) y - r @ y) / S]. The clamp binds
    nowhere while the bounding box's farthest pair, num >= 1 / (1 + |span|^2), keeps
    num / S >= 1e-12; otherwise a second sweep adds the clamped pairs'
    (1e-12 S - num) num to the repulsion weights."""
    y = np.asarray(y, dtype=np.float64)
    y1 = np.column_stack([y, np.ones(len(y))])
    attract, repel = np.zeros_like(y1), np.zeros_like(y1)
    total = 0.0
    for b, num in _student_t_blocks(y):
        total += _pair_sum(num, b)
        a = p[b, b.start :] * exaggeration
        a *= num
        _add_forces(attract, a, b, y1)
        num *= num
        _add_forces(repel, num, b, y1)
    span = y.max(axis=0) - y.min(axis=0)
    if 1.0 / (1.0 + (span**2).sum()) * (1.0 / total) < 1e-12:
        for b, num in _student_t_blocks(y):
            _add_forces(repel, np.maximum(1e-12 * total - num, 0.0) * num, b, y1)
    return 4.0 * ((attract[:, 2:] * y - attract[:, :2]) - (repel[:, 2:] * y - repel[:, :2]) / total)


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
    for b in _row_blocks(n):  # far pairs' subnormal entries slow every product and add nothing
        block = p[b]
        block[block < np.finfo(np.float64).tiny] = 0.0
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
    for it in range(cfg.iters):
        grad = kl_gradient(p, y, cfg.exaggeration if it < early else 1.0)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        momentum = _MOMENTUM_EARLY if it < early else _MOMENTUM_LATE
        gains = np.where(np.sign(grad) != np.sign(velocity), gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - _LEARNING_RATE * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    kl_final = kl_divergence(p, y)
    return Embedding(points=y, kl_initial=kl_initial, kl_final=kl_final)
