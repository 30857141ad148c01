"""Exact O(n^2) t-SNE.

Serves two purposes: computing the joint 2-D embedding used for
domain-distance estimation, and exporting embeddings of learned features for
visualization. Gradient descent on KL(P || Q) with a Student-t (df=1) Q,
momentum 0.5 -> 0.8 and x12 early exaggeration, following the reference
algorithm. Everything is seeded and deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mtda.errors import ContractError, NumericError

_BETA_FLOOR = 1e-12  # precision floor; handles duplicate points


@dataclass
class TsneConfig:
    perplexity: float | None = None  # None -> min(30, n/4)
    iters: int = 1000
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch_iter: int = 250
    exaggeration: float = 12.0
    exaggeration_iters: int = 250
    seed: int = 0


@dataclass
class Embedding:
    points: np.ndarray  # n x 2
    kl_initial: float = float("nan")
    kl_final: float = float("nan")


def _entropy_and_probs(sq_row, beta):
    """Shannon entropy (bits) and conditional probabilities at precision beta."""
    logits = -sq_row * beta
    logits -= logits.max()
    p = np.exp(logits)
    s = p.sum()
    if s <= 0:
        p = np.full_like(sq_row, 1.0 / len(sq_row))
        return np.log2(len(sq_row)), p
    p /= s
    nz = p > 0
    h = float(-(p[nz] * np.log2(p[nz])).sum())
    return h, p


def perplexity_calibrate(sq_distances_row, perplexity, max_iters=64, tol=1e-4):
    """Binary-search the Gaussian bandwidth for one point's neighbor row.

    `sq_distances_row` holds squared distances to the other n-1 points. The
    search targets 2^H(p) == perplexity. Returns (sigma, probabilities). On
    non-convergence the best bandwidth found is returned with a warning.
    """
    sq_row = np.asarray(sq_distances_row, dtype=np.float64)
    if np.any(sq_row < 0):
        raise ContractError("squared distances must be non-negative")
    n_other = len(sq_row)
    if not 2 <= perplexity <= n_other + 1:
        raise ContractError(f"perplexity {perplexity} outside [2, {n_other + 1}]")
    target = np.log2(perplexity)
    beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
    h, p = _entropy_and_probs(sq_row, beta)
    for _ in range(max_iters):
        if abs(2.0**h - perplexity) <= tol:
            break
        if h > target:  # distribution too flat: raise precision
            beta_lo = beta
            beta = beta * 2.0 if np.isinf(beta_hi) else (beta_lo + beta_hi) / 2.0
        else:
            beta_hi = beta
            beta = (beta_lo + beta_hi) / 2.0
        beta = max(beta, _BETA_FLOOR)
        h, p = _entropy_and_probs(sq_row, beta)
    else:
        warnings.warn(
            f"perplexity calibration did not converge (|2^H - perp| = {abs(2**h - perplexity):.3g})",
            RuntimeWarning,
        )
    sigma = float(np.sqrt(1.0 / (2.0 * beta)))
    return sigma, p


def pairwise_sq_distances(x):
    x = np.asarray(x, dtype=np.float64)
    sq = (x**2).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def affinities(x, perplexity):
    """Symmetrized joint affinity matrix P (sums to 1, zero diagonal)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ContractError("need at least 3 points")
    d = pairwise_sq_distances(x)
    cond = np.zeros((n, n))
    mask = ~np.eye(n, dtype=bool)
    for i in range(n):
        _, p = perplexity_calibrate(d[i][mask[i]], perplexity)
        cond[i][mask[i]] = p
    p_joint = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(p_joint, 0.0)
    return p_joint


def _student_t_q(y):
    """Normalized Student-t similarities and the unnormalized kernel."""
    d = pairwise_sq_distances(y)
    num = 1.0 / (1.0 + d)
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, 1e-12), num


def kl_divergence(p, y):
    q, _ = _student_t_q(np.asarray(y, dtype=np.float64))
    nz = p > 0
    return float((p[nz] * np.log(p[nz] / q[nz])).sum())


def kl_gradient(p, y):
    """dKL/dY for fixed P; the standard 4 * sum (p-q) num (y_i - y_j) form."""
    y = np.asarray(y, dtype=np.float64)
    q, num = _student_t_q(y)
    w = (p - q) * num
    grad = 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)
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
    # Short runs shrink the early phases proportionally; exaggeration must
    # end well before the run does or the final KL reflects the wrong target.
    exaggeration_iters = min(cfg.exaggeration_iters, cfg.iters // 4)
    momentum_switch = min(cfg.momentum_switch_iter, cfg.iters // 4)
    for it in range(cfg.iters):
        p_eff = p * cfg.exaggeration if it < exaggeration_iters else p
        grad = kl_gradient(p_eff, y)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        momentum = cfg.momentum_early if it < momentum_switch else cfg.momentum_late
        gains = np.where(np.sign(grad) != np.sign(velocity), gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - cfg.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    kl_final = kl_divergence(p, y)
    return Embedding(points=y, kl_initial=kl_initial, kl_final=kl_final)
