"""Unit and gradient tests for the autodiff op set."""

import numpy as np
import pytest

from mtda import autodiff as ad
from mtda.errors import ContractError, NumericError, ShapeError

from gradcheck import check_op, numerical_grad, assert_grads_close, traced_peak

RNG = np.random.default_rng(20240817)


def scalar(x):
    return float(np.asarray(x.value))


class TestDense:
    def test_identity_weights(self):
        out = ad.dense(ad.Tensor([[1.0, 2.0]]), ad.Tensor(np.eye(2)), ad.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_zero_weights_bias_passthrough(self):
        out = ad.dense(ad.Tensor([[1.0, 2.0]]), ad.Tensor(np.zeros((2, 2))), ad.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.value, [[3.0, 4.0]])

    def test_matches_triple_loop_matmul(self):
        x = RNG.normal(size=(2, 3))
        w = RNG.normal(size=(3, 2))
        b = RNG.normal(size=2)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += x[i, k] * w[k, j]
                expected[i, j] += b[j]
        out = ad.dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_shape_error_lists_both_dims(self):
        with pytest.raises(ShapeError, match=r"\[2, 3\].*\[2, 2\]"):
            ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros(2)))


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        x = RNG.normal(size=(1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_allclose(out.value, x, rtol=1e-14)

    def test_zero_kernel(self):
        out = ad.conv2d(ad.Tensor(RNG.normal(size=(1, 2, 4, 4))), ad.Tensor(np.zeros((3, 2, 3, 3))))
        np.testing.assert_array_equal(out.value, np.zeros((1, 3, 4, 4)))

    def test_matches_nested_loop_oracle(self):
        x = RNG.normal(size=(1, 1, 4, 4))
        k = RNG.normal(size=(1, 1, 3, 3))
        expected = np.zeros((1, 1, 4, 4))
        for n in range(1):
            for f in range(1):
                for i in range(4):
                    for j in range(4):
                        for p in range(3):
                            for q in range(3):
                                ii, jj = i + p - 1, j + q - 1
                                if 0 <= ii < 4 and 0 <= jj < 4:
                                    expected[n, f, i, j] += x[n, 0, ii, jj] * k[f, 0, p, q]
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 3, 3))))


class TestConvPoolAtModelGeometry:
    """Rectangular, multi-channel shapes like the model's 638x64 input."""

    def test_conv_relu_pool_gradcheck_odd_height(self):
        # h=7 is odd, so avg_pool2 drops the last row and its gradient is 0.
        target = RNG.normal(size=(2, 2, 3, 2))
        check_op(
            lambda x, k: ad.mse_loss(ad.avg_pool2(ad.relu(ad.conv2d(x, k))), target),
            [RNG.normal(size=(2, 3, 7, 4)), RNG.normal(size=(2, 3, 3, 3))],
        )

    def test_matches_nested_loop_oracle_multichannel_rectangular(self):
        n, c, f, h, w = 2, 2, 3, 5, 4
        x = RNG.normal(size=(n, c, h, w))
        k = RNG.normal(size=(f, c, 3, 3))
        expected = np.zeros((n, f, h, w))
        for b in range(n):
            for o in range(f):
                for i in range(h):
                    for j in range(w):
                        for ch in range(c):
                            for p in range(3):
                                for q in range(3):
                                    ii, jj = i + p - 1, j + q - 1
                                    if 0 <= ii < h and 0 <= jj < w:
                                        expected[b, o, i, j] += x[b, ch, ii, jj] * k[o, ch, p, q]
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)

    def test_data_input_gets_no_gradient(self):
        x = RNG.normal(size=(2, 2, 5, 4))
        k = RNG.normal(size=(3, 2, 3, 3))
        target = RNG.normal(size=(2, 3))

        def loss_of(kt, xt):
            return ad.mse_loss(ad.global_avg_pool(ad.conv2d(xt, kt)), target)

        xt = ad.Tensor(x)
        kt = ad.Tensor(k.copy(), requires_grad=True)
        ad.backward(loss_of(kt, xt))
        assert xt.grad is None
        num = numerical_grad(lambda a: loss_of(ad.Tensor(a), ad.Tensor(x)).value, k.copy())
        assert_grads_close(kt.grad, num)


class TestConvReluPool:
    """The fused block is avg_pool2(relu(conv2d(x, k))) as one node."""

    # A local generator, so the module RNG's draws for the other tests stay as they were.
    rng = np.random.default_rng(9)

    def test_gradcheck_odd_height_and_width(self):
        target = self.rng.normal(size=(2, 2, 3, 2))
        check_op(
            lambda x, k: ad.mse_loss(ad.conv_relu_pool(x, k), target),
            [self.rng.normal(size=(2, 3, 7, 5)), self.rng.normal(size=(2, 3, 3, 3))],
        )

    def test_data_input_gets_no_gradient(self):
        x = self.rng.normal(size=(2, 2, 6, 5))
        k = self.rng.normal(size=(3, 2, 3, 3))
        target = self.rng.normal(size=(2, 3, 3, 2))

        def loss_of(kt, xt):
            return ad.mse_loss(ad.conv_relu_pool(xt, kt), target)

        xt = ad.Tensor(x)
        kt = ad.Tensor(k.copy(), requires_grad=True)
        ad.backward(loss_of(kt, xt))
        assert xt.grad is None
        num = numerical_grad(lambda a: loss_of(ad.Tensor(a), ad.Tensor(x)).value, k.copy())
        assert_grads_close(kt.grad, num)

    def test_negative_overflow_is_reported(self):
        # Each output sums four or more products of -1e38: -inf, which relu must not turn into 0.
        x = np.full((1, 1, 4, 4), -1.0, dtype=np.float32)
        k = np.full((1, 1, 3, 3), 1e38, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="conv_relu_pool"):
            ad.conv_relu_pool(x, k)

    def test_positive_overflow_is_reported(self):
        # +inf passes the NaN/-inf check and relu's mask multiply; the pooled output must still be rejected.
        x = np.full((1, 1, 4, 4), 1.0, dtype=np.float32)
        k = np.full((1, 1, 3, 3), 1e38, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="conv_relu_pool"):
            ad.conv_relu_pool(x, k)

    @pytest.mark.parametrize(
        "shape, f", [((32, 1, 64, 64), 4), ((32, 4, 32, 32), 8), ((3, 2, 7, 5), 3), ((2, 4, 319, 32), 8)]
    )
    def test_float32_bits_equal_three_node_chain(self, shape, f):
        rng = np.random.default_rng(5)
        n, c, h, w = shape
        x = rng.normal(size=shape).astype(np.float32)
        x[:, :, : h // 2] = 0.0  # a zero band, so relu also cuts conv outputs that are exactly 0
        x[rng.random(shape) < 0.1] = 0.0
        k = rng.normal(size=(f, c, 3, 3)).astype(np.float32)
        target = rng.normal(size=(n, f, h // 2, w // 2))
        conv = ad.conv2d(ad.Tensor(x), ad.Tensor(k)).value
        assert (conv == 0).any() and (conv < 0).any()

        def run(block):
            xt = ad.Tensor(x.copy(), requires_grad=True)
            kt = ad.Tensor(k.copy(), requires_grad=True)
            out = block(xt, kt)
            ad.backward(ad.mse_loss(out, target))
            assert out.value.dtype == xt.grad.dtype == kt.grad.dtype == np.float32
            return out.value.tobytes(), xt.grad.tobytes(), kt.grad.tobytes()

        assert run(ad.conv_relu_pool) == run(lambda xt, kt: ad.avg_pool2(ad.relu(ad.conv2d(xt, kt))))


class TestBatchChunks:
    """Only the fused block runs over batch chunks of about ad.CHUNK_BYTES of
    columns each; conv2d is its whole-batch reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # dK is formed whether or not the kernel asked for it; a constant kernel must still get no gradient
    @pytest.mark.parametrize(
        "x_grad, k_grad", [(False, True), (True, True), (True, False)], ids=["x-const", "x-grad", "k-const"]
    )
    @pytest.mark.parametrize(
        "chunked, reference",
        [(ad.conv_relu_pool, lambda xt, kt: ad.avg_pool2(ad.relu(ad.conv2d(xt, kt))))],
        ids=["conv_relu_pool"],
    )
    # chunks of 7 (float32) and 3 (float64) samples leave a ragged last chunk at n=34 and n=10; at
    # 37x67 chunks of 5 and 2 samples leave one at n=11, the odd height and width leave pooling a
    # trailing row and column, and 67 columns pack into 9 bytes, the last one holding 3
    @pytest.mark.parametrize(
        "shape, f",
        [((34, 1, 64, 64), 4), ((10, 4, 32, 32), 8), ((3, 1, 638, 64), 4), ((11, 2, 37, 67), 3)],
        ids=["desk-1", "desk-2", "audio-1", "odd-ragged"],
    )
    def test_bits_equal_one_shot_reference(self, shape, f, chunked, reference, x_grad, k_grad, dtype):
        rng = np.random.default_rng(17)
        x = rng.normal(size=shape).astype(dtype)
        k = rng.normal(size=(f, shape[1], 3, 3)).astype(dtype)
        sizes = [len(x[s]) for s in ad._chunks(x)]
        assert len(sizes) > 1 and sum(sizes) == shape[0]

        def run(block):
            xt = ad.Tensor(x.copy(), requires_grad=x_grad)
            kt = ad.Tensor(k.copy(), requires_grad=k_grad)
            out = block(xt, kt)
            target = np.random.default_rng(18).normal(size=out.shape).astype(dtype)
            ad.backward(ad.mse_loss(out, target))
            grads = [kt.grad, xt.grad]
            assert out.value.dtype == dtype and all(g.dtype == dtype for g in grads if g is not None)
            return out.value.tobytes(), *(None if g is None else g.tobytes() for g in grads)

        got, want = run(chunked), run(reference)
        assert (got[1] is None, got[2] is None) == (not k_grad, not x_grad)
        assert got == want

    def test_audio_block_never_holds_a_whole_batch_column_matrix(self):
        # The model's first block at the 10 s log-mel shape: the data batch needs no gradient.
        (n, c, h, w), f = (32, 1, 638, 64), 4
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32))
        k = ad.Tensor(rng.normal(size=(f, c, 3, 3)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(n, f, h // 2, w // 2)).astype(np.float32)
        whole_batch_columns = n * c * 9 * h * w * 4  # 47 MB
        _, peak = traced_peak(lambda: ad.conv_relu_pool(x, k)._backward(g))
        assert k.grad is not None
        assert peak < whole_batch_columns / 2, f"traced peak {peak / 1e6:.1f} MB"

    def test_block_two_backward_holds_one_input_sized_buffer(self):
        # The model's second block at the audio shape, with an input that needs a gradient: x's
        # adjoint is the interior of the padded col2im buffer, not a copy of it.
        (n, c, h, w), f = (32, 4, 319, 32), 8
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(f, c, 3, 3)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(n, f, h // 2, w // 2)).astype(np.float32)
        node = ad.conv_relu_pool(x, k)
        _, peak = traced_peak(lambda: node._backward(g))
        assert x.grad.shape == x.shape and k.grad is not None
        assert peak < 2 * x.value.nbytes, f"traced peak {peak / 1e6:.1f} MB"


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_gives_log_k(self):
        logits = np.zeros((3, 10))
        onehot = np.eye(10)[:3]
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), onehot, np.ones(3))
        assert scalar(loss) == pytest.approx(3 * np.log(10), rel=1e-12)

    def test_confident_correct_logit(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 30.0
        onehot = np.zeros((1, 5))
        onehot[0, 2] = 1.0
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), onehot, np.ones(1))
        assert scalar(loss) < 1e-9

    def test_weighted_two_rows_vs_hand_arithmetic(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        onehot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        weights = np.array([0.1, 1.0])
        expected = 0.0
        for i, w in enumerate(weights):
            e = np.exp(logits[i])
            expected += w * -np.log(e[np.argmax(onehot[i])] / e.sum())
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), onehot, weights)
        assert scalar(loss) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("onehot", [[[0.5, 0.5, 0.0]], [[1 - 1e-9, 1e-9, 0.0]]], ids=["halves", "near-onehot"])
    def test_rejects_non_onehot(self, onehot):
        with pytest.raises(ContractError, match="rows must be one-hot"):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros((1, 3))), np.array(onehot), np.ones(1))

    def test_weighted_equals_weight_times_unweighted_per_sample(self):
        logits = RNG.normal(size=(6, 4))
        labels = RNG.integers(0, 4, size=6)
        onehot = np.eye(4)[labels]
        weights = RNG.uniform(0.1, 2.0, size=6)
        total = scalar(ad.softmax_cross_entropy(ad.Tensor(logits), onehot, weights))
        per_sample = [
            scalar(ad.softmax_cross_entropy(ad.Tensor(logits[i : i + 1]), onehot[i : i + 1], np.ones(1)))
            for i in range(6)
        ]
        assert total == pytest.approx(float(np.dot(weights, per_sample)), rel=1e-12)
        unit = scalar(ad.softmax_cross_entropy(ad.Tensor(logits), onehot, np.ones(6)))
        assert unit == pytest.approx(sum(per_sample), rel=1e-12)


class TestMse:
    def test_equal_is_zero(self):
        assert scalar(ad.mse_loss(ad.Tensor([1.0, 2.0]), np.array([1.0, 2.0]))) == 0.0

    def test_unit_offsets(self):
        assert scalar(ad.mse_loss(ad.Tensor([1.0, 0.0]), np.array([0.0, 1.0]))) == 2.0

    def test_scalar_regression_case(self):
        assert scalar(ad.mse_loss(ad.Tensor(2.5), np.asarray(1.0))) == pytest.approx(2.25)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse_loss(ad.Tensor([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestGradientReversal:
    def test_forward_is_bit_identical(self):
        x = np.array([3.0, -1.0])
        for lam in (0.0, 0.5, 1.0, 7.0):
            out = ad.gradient_reversal(ad.Tensor(x), lam)
            assert np.array_equal(out.value, x)

    @pytest.mark.parametrize("lam,expected", [(1.0, [-2.0, 4.0]), (0.5, [-1.0, 2.0])])
    def test_backward_scales_and_flips(self, lam, expected):
        leaf = ad.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        out = ad.gradient_reversal(leaf, lam)
        out._backward(np.array([2.0, -4.0]))
        np.testing.assert_array_equal(leaf.grad, expected)

    def test_lambda_zero_blocks_upstream_gradient(self):
        leaf = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        w = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        loss = ad.mse_loss(ad.dense(ad.gradient_reversal(leaf, 0.0), w, ad.Tensor(np.zeros(2))), np.zeros((2, 2)))
        ad.backward(loss)
        np.testing.assert_array_equal(leaf.grad, np.zeros_like(leaf.value))
        assert np.any(w.grad != 0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            ad.gradient_reversal(ad.Tensor([1.0]), -0.5)


class TestBackprop:
    def test_sum_of_squares(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.mse_loss(x, np.zeros(2))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    @pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "shared-last"])
    def test_shared_adjoint_is_never_written(self, shared_first):
        # add hands both leaves one array; a's second delta must not write into it. The operand
        # order of the last add decides which of a's two deltas arrives first.
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
        shared, scaled = ad.add(a, b), 3.0 * a
        total = ad.add(shared, scaled) if shared_first else ad.add(scaled, shared)
        ad.backward(ad.mse_loss(total, np.zeros(2)))  # total = 4a + b = [4.5, 7]; dL/dtotal = [9, 14]
        np.testing.assert_array_equal(a.grad, [36.0, 56.0])
        np.testing.assert_array_equal(b.grad, [9.0, 14.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sub_is_bitwise_a_minus_b(self, dtype):
        # sub is add of a scaled-by-minus-one operand; a - b is a + (-b) in IEEE arithmetic, and -1.0 * g is -g
        rng = np.random.default_rng(23)
        a, b, g = (rng.normal(size=(4, 5)).astype(dtype) for _ in range(3))
        at, bt = ad.Tensor(a.copy(), requires_grad=True), ad.Tensor(b.copy(), requires_grad=True)
        out = ad.sub(at, bt)
        ad.backward(ad._node(np.array(0.0), (out,), lambda _: ad._accum(out, g), name="root"))
        assert out.value.dtype == at.grad.dtype == bt.grad.dtype == dtype
        assert out.value.tobytes() == (a - b).tobytes()
        assert at.grad.tobytes() == g.tobytes() and bt.grad.tobytes() == (-g).tobytes()

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.relu(x))

    def test_composite_dense_relu_ce_vs_finite_differences(self):
        x = RNG.normal(size=(3, 4))
        onehot = np.eye(5)[[0, 2, 4]]

        def build(xt, wt, bt, w2t, b2t):
            h = ad.relu(ad.dense(xt, wt, bt))
            logits = ad.dense(h, w2t, b2t)
            return ad.softmax_cross_entropy(logits, onehot, np.ones(3))

        check_op(
            build,
            [x, RNG.normal(size=(4, 6)), RNG.normal(size=6), RNG.normal(size=(6, 5)), RNG.normal(size=5)],
        )

    def test_reversal_segment_equals_minus_lambda_times_plain(self):
        # Paired graphs: grads upstream of a reversal node are -lambda times
        # the grads of the identical graph without the reversal.
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 2))

        grads = {}
        for lam in (None, 2.0):
            xt = ad.Tensor(x, requires_grad=True)
            wt = ad.Tensor(w, requires_grad=True)
            h = xt if lam is None else ad.gradient_reversal(xt, lam)
            loss = ad.mse_loss(ad.dense(h, wt, ad.Tensor(np.zeros(2))), np.zeros((3, 2)))
            ad.backward(loss)
            grads[lam] = xt.grad
        np.testing.assert_allclose(grads[2.0], -2.0 * grads[None], rtol=1e-12)

    def test_deterministic_bit_identical(self):
        x = RNG.normal(size=(4, 3))
        w = RNG.normal(size=(3, 3))

        def run():
            xt = ad.Tensor(x.copy(), requires_grad=True)
            wt = ad.Tensor(w.copy(), requires_grad=True)
            loss = ad.mse_loss(ad.relu(ad.dense(xt, wt, ad.Tensor(np.zeros(3)))), np.zeros((4, 3)))
            ad.backward(loss)
            return xt.grad.tobytes(), wt.grad.tobytes()

        assert run() == run()

    def test_overflow_surfaces_as_numeric_error(self):
        x = ad.Tensor(np.array([[1e308, 1e308]]), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            loss = ad.mse_loss(
                ad.dense(x, ad.Tensor(np.full((2, 1), 1e308)), ad.Tensor(np.zeros(1))),
                np.zeros((1, 1)),
            )
            ad.backward(loss)

    def test_nan_adjoint_names_node(self):
        # A node whose backward injects NaN into its parent's adjoint; the
        # sweep must stop at the parent and name it.
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = ad.relu(x)
        poisoned = ad._node(h.value.copy(), (h,), lambda g: ad._accum(h, g * np.nan), name="poison")
        loss = ad.mse_loss(poisoned, np.zeros(2))
        with pytest.raises(NumericError, match="relu"):
            ad.backward(loss)


class TestRandomizedGradientSuite:
    """100 randomized finite-difference trials over the whole op set."""

    def test_randomized_gradcheck_all_ops(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            kind = trial % 5
            if kind == 0:
                n, a, b = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5)
                check_op(
                    lambda x, w, bias: ad.mse_loss(ad.dense(x, w, bias), np.zeros((n, b))),
                    [rng.normal(size=(n, a)), rng.normal(size=(a, b)), rng.normal(size=b)],
                )
            elif kind == 1:
                n, c, f = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 3)
                h = int(rng.integers(3, 6))
                check_op(
                    lambda x, k: ad.mse_loss(ad.global_avg_pool(ad.conv2d(x, k)), np.zeros((n, f))),
                    [rng.normal(size=(n, c, h, h)), rng.normal(size=(f, c, 3, 3))],
                )
            elif kind == 2:
                n, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
                onehot = np.eye(k)[rng.integers(0, k, size=n)]
                weights = rng.uniform(0.0, 2.0, size=n)
                check_op(
                    lambda logits: ad.softmax_cross_entropy(logits, onehot, weights),
                    [rng.normal(size=(n, k))],
                )
            elif kind == 3:
                n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                h = int(rng.integers(4, 7))
                target = rng.normal(size=(n, c, h // 2, h // 2))

                def pool_loss(x, target=target):
                    return ad.mse_loss(ad.avg_pool2(ad.relu(x)), target)

                check_op(pool_loss, [rng.normal(size=(n, c, h, h))])
            else:
                # gradient_reversal is excluded here by design: its backward
                # pass intentionally disagrees with its forward function.
                n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                target = rng.normal(size=(n, k))
                check_op(
                    lambda x, target=target: ad.mse_loss(ad.softmax(x), target),
                    [rng.normal(size=(n, k))],
                )
