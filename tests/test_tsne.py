"""Tests for the exact t-SNE implementation."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mtda import tsne
from mtda.errors import ContractError
from mtda.tsne import (
    TsneConfig,
    affinities,
    kl_divergence,
    kl_gradient,
    pairwise_sq_distances,
    perplexity_calibrate,
    run_tsne,
)

from gradcheck import numerical_grad, assert_grads_close, traced_peak


class TestPerplexityCalibrate:
    def test_equidistant_neighbors_uniform(self):
        sigma, p = perplexity_calibrate(np.array([4.0, 4.0, 4.0]), 3.0)
        np.testing.assert_allclose(p, [1 / 3] * 3, rtol=1e-9)
        assert sigma > 0

    def test_entropy_hits_perplexity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            row = rng.uniform(0.1, 5.0, size=12)
            perp = rng.uniform(2.0, 10.0)
            _, p = perplexity_calibrate(row, perp)
            h = -(p * np.log2(p)).sum()
            assert abs(2**h - perp) <= 1e-4 * max(perp, 1)

    def test_hand_row_matches_independent_bisection(self):
        row = np.array([1.0, 4.0, 9.0])
        perp = 2.0
        sigma, _ = perplexity_calibrate(row, perp)

        # Independent scalar bisection on sigma directly.
        def perp_of(s):
            p = np.exp(-row / (2 * s * s))
            p /= p.sum()
            return 2 ** (-(p * np.log2(p)).sum())

        lo, hi = 1e-3, 1e3
        for _ in range(200):
            mid = (lo + hi) / 2
            if perp_of(mid) > perp:
                hi = mid
            else:
                lo = mid
        assert sigma == pytest.approx((lo + hi) / 2, rel=1e-3)

    def test_out_of_range_perplexity(self):
        with pytest.raises(ContractError):
            perplexity_calibrate(np.array([1.0, 2.0]), 50.0)


class TestAffinities:
    def test_symmetric_and_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(8, 3))
        p = affinities(x, 4.0)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diag(p) == 0)
        assert np.all(p >= 0)

    def test_closer_pairs_get_more_mass(self):
        x = np.array([[0.0], [1.0], [2.0]])
        p = affinities(x, 2.0)
        assert p[0, 1] > p[0, 2]
        assert p[1, 0] > p[2, 0]

    def test_five_points_vs_direct_formula(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 2))
        perp = 3.0
        p = affinities(x, perp)

        # Direct evaluation: calibrate each row independently, then symmetrize.
        n = 5
        d = ((x[:, None] - x[None, :]) ** 2).sum(-1)
        cond = np.zeros((n, n))
        for i in range(n):
            others = [j for j in range(n) if j != i]
            sigma, _ = perplexity_calibrate(d[i, others], perp)
            w = np.exp(-d[i, others] / (2 * sigma**2))
            cond[i, others] = w / w.sum()
        expected = (cond + cond.T) / (2 * n)
        np.testing.assert_allclose(p, expected, rtol=1e-3, atol=1e-9)

    @pytest.mark.parametrize("perp", [2.0, 8.0, 30.0])
    def test_matches_row_by_row_calibration_bitwise(self, perp):
        sizes = [b.stop - b.start for b in tsne._row_blocks(300)]
        assert len(sizes) >= 3 and sizes[-1] < sizes[0]  # 300 rows: three row blocks, the last one short
        for n, dim in ((40, 5), (300, 5), (300, 64)):
            x = np.random.default_rng(21).normal(size=(n, dim))
            assert affinities(x, perp).tobytes() == _dense_affinities(x, perp).tobytes()

    def test_unconverged_rows_in_two_blocks_warn_once(self, monkeypatch):
        # rows 2 and 7 cannot reach perplexity 2 (each has two nearest
        # neighbours at one distance); blocks of two rows put them apart
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [5.0, 5.0], [5.0, 5.0], [3.0, 7.0], [6.0, 1.0]])
        monkeypatch.setattr(tsne, "BLOCK_BYTES", 2 * 8 * len(x))
        assert [(b.start, b.stop) for b in tsne._row_blocks(len(x))] == [(0, 2), (2, 4), (4, 6), (6, 8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = affinities(x, 2.0)
        assert [str(w.message).split(" (")[0] for w in caught] == [
            "perplexity calibration did not converge for 2 of 8 rows"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert p.tobytes() == _dense_affinities(x, 2.0).tobytes()

    def test_duplicate_points_allowed(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = affinities(x, 2.0)
        assert np.all(np.isfinite(p))
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert "did not converge for 1 of 4 rows" in messages[0]

    def test_same_bytes_under_one_and_two_blas_threads(self):
        # at (300, 64) the Gram form's BLAS product split differently on one thread than on two
        code = """
import hashlib, numpy as np
from mtda.tsne import affinities
x = np.random.default_rng(0).normal(size=(300, 64))
print(hashlib.sha256(affinities(x, 30.0).tobytes()).hexdigest())
"""
        hashes = {_run_with_blas_threads(code, threads) for threads in (1, 2)}
        x = np.random.default_rng(0).normal(size=(300, 64))
        assert hashes == {hashlib.sha256(affinities(x, 30.0).tobytes()).hexdigest()}


class TestGradient:
    def test_kl_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        p = affinities(x, 2.5)
        y = rng.normal(size=(6, 2))
        analytic = kl_gradient(p, y)
        numeric = numerical_grad(lambda yy: kl_divergence(p, yy), y.copy())
        assert_grads_close(analytic, numeric, rtol=1e-4)


def _dense_affinities(x, perp):
    """Each row calibrated on its own, then (cond + cond.T) / (2n)."""
    n = len(x)
    d = pairwise_sq_distances(x)
    cond = np.zeros((n, n))
    for i in range(n):
        others = np.arange(n) != i
        cond[i, others] = perplexity_calibrate(d[i, others], perp)[1]
    expected = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(expected, 0.0)
    return expected


def _dense_sq_distances(x):
    """The Gram form |x_i|^2 + |x_j|^2 - 2 x_i.x_j, the foil for the exact differences' accuracy."""
    sq = (x**2).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _dense_exact_sq_distances(y):
    """The square of each coordinate's difference, summed in coordinate order."""
    return sum(np.subtract.outer(c, c) ** 2 for c in y.T)


def _dense_q(y):
    num = 1.0 / (1.0 + _dense_exact_sq_distances(y))
    np.fill_diagonal(num, 0.0)
    return np.maximum(num / num.sum(), 1e-12), num


def _dense_kl_divergence(p, y):
    q, _ = _dense_q(y)
    nz = p > 0
    return (p[nz] * np.log(p[nz] / q[nz])).sum()


def _dense_kl_gradient(p, y):
    q, num = _dense_q(y)
    w = (p - q) * num
    return 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)


def _relative_error(got, reference):
    """|got - reference| / |reference| in the 2-norm, the reference in long double."""
    return float(np.linalg.norm(np.ravel(got - reference).astype(np.float64))
                 / np.linalg.norm(np.ravel(reference).astype(np.float64)))


def _kernel_case(n, scale):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 5))
    p = affinities(x, max(2.0, min(30.0, n / 4.0)))
    return p, rng.normal(scale=scale, size=(n, 2))


class TestKernelsMatchDenseReference:
    """The kernels form each point pair once, in upper-triangle row blocks, so
    they sum in another order than the dense expressions and are pinned to
    them by a tolerance. The dense reference is evaluated in long double: in
    float64 it errs by up to 3e-13 of the gradient at n=800, scale 1e2, more
    than the blocked kernels do. The byte-level contracts are determinism:
    a rerun, and exaggeration applied in the call or to P beforehand."""

    @pytest.mark.parametrize("n", [7, 50, 300])  # n=300 makes three upper-triangle blocks, the last one short
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e2])
    @pytest.mark.parametrize("exaggeration", [1.0, 4.0, 12.0])
    def test_bitwise(self, n, scale, exaggeration):
        p, y = _kernel_case(n, scale)
        assert pairwise_sq_distances(y).tobytes() == _dense_exact_sq_distances(y).tobytes()
        expected = kl_gradient(p, y, exaggeration).tobytes()
        assert kl_gradient(exaggeration * p, y).tobytes() == expected
        assert kl_gradient(p, y, exaggeration).tobytes() == expected  # a rerun gives the same bytes

    @pytest.mark.parametrize("n", [7, 50, 300, 800])  # n=800 makes 12 upper-triangle blocks
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e2])
    @pytest.mark.parametrize("exaggeration", [1.0, 4.0, 12.0])
    def test_within_1e13_of_dense(self, n, scale, exaggeration):
        p, y = _kernel_case(n, scale)
        pl, yl = p.astype(np.longdouble), y.astype(np.longdouble)
        for p_in in (p, exaggeration * p):
            expected = _dense_kl_divergence(p_in.astype(np.longdouble), yl)
            assert _relative_error(np.longdouble(kl_divergence(p_in, y)), expected) <= 1e-13
        expected = _dense_kl_gradient(exaggeration * pl, yl)
        assert _relative_error(kl_gradient(p, y, exaggeration), expected) <= 1e-13

    @pytest.mark.parametrize("n", [300, 800])
    @pytest.mark.parametrize("exaggeration", [1.0, 12.0])
    def test_clamped_pairs_within_1e13_of_dense(self, n, exaggeration):
        # one point 1e4 from the rest: its pairs' num / S falls below 1e-12, so the clamp
        # binds there, and the clamped q moves the gradient by 3e-12 (n=300) to 2e-11 (n=800)
        # of its norm, so only the kernel's correction sweep keeps it within 1e-13
        p, y = _kernel_case(n, 1.0)
        y[0, 0] += 1e4
        pl, yl = p.astype(np.longdouble), y.astype(np.longdouble)
        _, num = _dense_q(y)
        assert (num[0, 1:] / num.sum() < 1e-12).all()  # every pair of the far point is clamped
        for p_in in (p, exaggeration * p):
            expected = _dense_kl_divergence(p_in.astype(np.longdouble), yl)
            assert _relative_error(np.longdouble(kl_divergence(p_in, y)), expected) <= 1e-13
        expected = _dense_kl_gradient(exaggeration * pl, yl)
        assert _relative_error(kl_gradient(p, y, exaggeration), expected) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e2])
    def test_distances_of_feature_vectors_bitwise(self, scale):
        x = np.random.default_rng(8).normal(scale=scale, size=(120, 64))  # the affinities input
        assert pairwise_sq_distances(x).tobytes() == _dense_exact_sq_distances(x).tobytes()

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e2])
    def test_embedding_distances_closer_to_longdouble_than_gram(self, scale):
        y = np.random.default_rng(9).normal(scale=scale, size=(300, 2))
        yl = y.astype(np.longdouble)
        oracle = ((yl[:, None, :] - yl[None, :, :]) ** 2).sum(axis=-1)
        off = ~np.eye(len(y), dtype=bool)

        def worst(d):
            return (np.abs(d.astype(np.longdouble) - oracle)[off] / oracle[off]).max()

        # test_bitwise pins the kernels' distances to this reference
        exact = worst(_dense_exact_sq_distances(y))
        assert exact <= worst(_dense_sq_distances(y))
        assert exact <= 3 * np.finfo(np.float64).eps  # a difference, a square and a sum, each rounded once


def _dense_run_tsne(x, cfg):
    """`run_tsne`'s schedule on the dense kernels, with P scaled by a product
    during the early phase."""
    n = len(x)
    p = _dense_affinities(x, max(2.0, min(30.0, n / 4.0, n - 1)))  # the default perplexity
    y = np.random.default_rng(cfg.seed).normal(scale=1e-4, size=(n, 2))
    kl_initial = _dense_kl_divergence(p, y)
    velocity, gains = np.zeros_like(y), np.ones_like(y)
    early = min(250, cfg.iters // 4)
    for it in range(cfg.iters):
        grad = _dense_kl_gradient((cfg.exaggeration if it < early else 1.0) * p, y)
        gains = np.maximum(np.where(np.sign(grad) != np.sign(velocity), gains + 0.2, gains * 0.8), 0.01)
        velocity = (0.5 if it < early else 0.8) * velocity - 200.0 * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, kl_initial, _dense_kl_divergence(p, y)


class TestRunTsne:
    @pytest.mark.parametrize("exaggeration", [4.0, 12.0])
    def test_matches_dense_descent(self, monkeypatch, exaggeration):
        # 27-row calibration blocks, 7 whole and one of 11, and 5 upper-triangle blocks of 27 to 53 rows
        monkeypatch.setattr(tsne, "BLOCK_BYTES", 27 * 8 * 200)
        x = np.random.default_rng(12).normal(size=(200, 16))
        cfg = TsneConfig(iters=40, exaggeration=exaggeration, seed=5)  # early phase ends at 10
        emb = run_tsne(x, cfg)
        again = run_tsne(x, cfg)
        assert emb.points.tobytes() == again.points.tobytes()
        assert np.float64(emb.kl_final).tobytes() == np.float64(again.kl_final).tobytes()
        # the descent amplifies the kernels' rounding (1e-10 of the layout here, 3e-2 by
        # 100 iterations), so the blocked and the dense descent are compared over 40
        points, kl_initial, kl_final = _dense_run_tsne(x, cfg)
        assert np.abs(emb.points - points).max() <= 1e-8 * np.abs(points).max()
        assert emb.kl_initial == pytest.approx(kl_initial, rel=1e-13)
        assert emb.kl_final == pytest.approx(kl_final, rel=1e-8)

    def test_same_bytes_under_one_and_two_blas_threads(self):
        code = """
import hashlib, numpy as np
from mtda.tsne import TsneConfig, run_tsne
emb = run_tsne(np.random.default_rng(1).normal(size=(800, 64)), TsneConfig(iters=60, seed=3))
print(hashlib.sha256(emb.points.tobytes() + np.float64(emb.kl_final).tobytes()).hexdigest())
"""
        assert _run_with_blas_threads(code, 1) == _run_with_blas_threads(code, 2)

    @pytest.mark.parametrize("n, bound", [(300, 2.4), (600, 1.4), (800, 1.25)])
    def test_peak_is_p_and_row_blocks(self, n, bound):
        # P and one row block's calibration temporaries, about 0.93 MB, set the peak
        # (2.29 n^2 at 300 points, 1.33 at 600, 1.19 at 800); symmetrizing P and the
        # descent hold P and one or two upper-triangle blocks of about BLOCK_BYTES, and
        # no n x n buffer. scipy is imported first so its modules are not counted
        import scipy.spatial.distance  # noqa: F401

        x = np.random.default_rng(n).normal(size=(n, 64))
        _, peak = traced_peak(lambda: run_tsne(x, TsneConfig(iters=20, seed=0)))
        assert peak <= bound * n * n * 8, f"peak {peak / (n * n * 8):.3f} n^2 float64"

    def test_kl_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 5))
        emb = run_tsne(x, TsneConfig(iters=300, seed=4))
        assert emb.kl_final < emb.kl_initial

    def test_deterministic_for_fixed_seed(self):
        x = np.random.default_rng(2).normal(size=(12, 4))
        cfg = TsneConfig(iters=120, seed=9)
        a = run_tsne(x, cfg)
        b = run_tsne(x, cfg)
        np.testing.assert_array_equal(a.points, b.points)

    def test_output_centered(self):
        x = np.random.default_rng(7).normal(size=(15, 3)) + 10.0
        emb = run_tsne(x, TsneConfig(iters=200, seed=0))
        scale = np.abs(emb.points).max()
        assert np.abs(emb.points.mean(axis=0)).max() <= 1e-6 * max(scale, 1.0)

    def test_three_clusters_knn_agreement(self):
        rng = np.random.default_rng(42)
        centers = np.array([[0, 0, 0, 0], [20, 0, 0, 0], [0, 20, 0, 0]], dtype=float)
        labels = np.repeat([0, 1, 2], 20)
        x = centers[labels] + rng.normal(scale=0.5, size=(60, 4))
        emb = run_tsne(x, TsneConfig(seed=3))
        agree = _knn_agreement(emb.points, labels, k=10)
        assert agree >= 0.9

    def test_permuted_inputs_with_permuted_init_permute_outputs(self):
        # Short horizon: summation order differs under permutation, and the
        # descent dynamics amplify that rounding noise exponentially, so the
        # equivariance is float-exact only over a bounded number of steps.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 3))
        init = rng.normal(scale=1e-4, size=(10, 2))
        perm = rng.permutation(10)
        cfg = TsneConfig(iters=50, seed=0)
        base = run_tsne(x, cfg, init=init)
        permuted = run_tsne(x[perm], cfg, init=init[perm])
        scale = np.abs(base.points).max()
        np.testing.assert_allclose(permuted.points, base.points[perm], atol=1e-9 * scale)

    def test_exaggeration_ends_with_the_early_phase(self):
        x = np.random.default_rng(4).normal(size=(12, 4))

        def points(iters, exaggeration):
            return run_tsne(x, TsneConfig(iters=iters, exaggeration=exaggeration, seed=1)).points.tobytes()

        # iters // 4 is 0 at 3 iterations, so no step sees the exaggerated P
        assert points(3, 12.0) == points(3, 1.0)
        assert points(8, 12.0) != points(8, 1.0)

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            run_tsne(np.zeros((4, 2)))

    @pytest.mark.parametrize("iters", [0, -3])
    def test_needs_an_iteration(self, iters):
        # with no step the result would be the random initial layout
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ContractError, match=f"at least 1 iteration, got {iters}"):
            run_tsne(x, TsneConfig(iters=iters))


def _run_with_blas_threads(code, threads):
    """What `code` prints, run in a fresh interpreter with OpenBLAS held to `threads` threads."""
    src = str(Path(tsne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _knn_agreement(points, labels, k):
    d = ((points[:, None] - points[None, :]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    hits = 0
    for i in range(len(points)):
        nn = np.argsort(d[i])[:k]
        hits += (labels[nn] == labels[i]).mean()
    return hits / len(points)
