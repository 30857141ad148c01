"""Tests for the adversarial model, its losses, and the discriminator oracles."""

import re
from dataclasses import replace

import numpy as np
import pytest

from mtda import autodiff as ad
from mtda.checkpoint import load_tensors, save_tensors
from mtda.errors import ContractError, ShapeError
from mtda.models import (
    AdversarialModel,
    Batch,
    Mode,
    ModelConfig,
    conditional_mean_oracle,
    dann_domain_loss,
    domain_loss_for_mode,
    feature_objective,
    forward,
    head_width,
    plain_domain_ce,
    regression_domain_loss,
    scene_loss,
    weighted_domain_ce,
)
from mtda.training import predict

RNG = np.random.default_rng(99)


def make_model(mode, n_classes=5, n_domains=4, seed=0, dtype=np.float64):
    cfg = ModelConfig(n_classes=n_classes, n_domains=n_domains, mode=mode)
    return AdversarialModel.initialize(cfg, seed=seed, dtype=dtype)


def make_batch(n=6, n_classes=5, n_domains=4, seed=0):
    rng = np.random.default_rng(seed)
    u = np.array([0, 0, 1, 2, 3, 1])[:n]
    x = rng.normal(size=(n, 1, 16, 16))
    y = np.eye(n_classes)[rng.integers(0, n_classes, n)]
    d = np.eye(n_domains)[u]
    return Batch(x=x, y_onehot=y, d_onehot=d, u=u, source_mask=u == 0)


class TestForward:
    def test_shapes(self):
        model = make_model(Mode.MTDA_C1)
        fwd = forward(model, RNG.normal(size=(3, 1, 16, 16)))
        assert fwd.z.shape == (3, 64)
        assert fwd.y_logits.shape == (3, 5)
        assert fwd.d_out.shape == (3, 4)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_computes_in_the_model_dtype(self, mode):
        x = RNG.normal(size=(3, 1, 16, 16))
        fwd = forward(make_model(mode, dtype=np.float32), x)
        assert {t.value.dtype for t in (fwd.z, fwd.y_logits, fwd.d_out)} == {np.dtype(np.float32)}
        # a float64 model widens float32 input exactly, so it computes as on float64 input
        model = make_model(mode)
        narrow, wide = forward(model, x.astype(np.float32)), forward(model, x.astype(np.float32).astype(np.float64))
        for a, b in ((narrow.z, wide.z), (narrow.y_logits, wide.y_logits), (narrow.d_out, wide.d_out)):
            assert a.value.dtype == np.float64 and a.value.tobytes() == b.value.tobytes()

    def test_regression_head_is_raw_scalar(self):
        model = make_model(Mode.MTDA_R)
        fwd = forward(model, RNG.normal(size=(4, 1, 16, 16)))
        assert fwd.d_out.shape == (4, 1)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_builds_no_softmax(self, monkeypatch, mode):
        def no_softmax(*_):
            raise AssertionError("forward built a softmax node")

        monkeypatch.setattr(ad, "softmax", no_softmax)
        batch = make_batch()
        fwd = forward(make_model(mode), batch.x)
        if mode is not Mode.DANN:  # only the dann loss reads probabilities
            domain_loss_for_mode(mode, fwd, batch)

    def test_predict_and_dann_loss_read_the_logits(self):
        model = make_model(Mode.DANN)
        batch = make_batch()
        # Class 3's logit is one ulp above the others: the softmax rounds the
        # row to equal probabilities, and only the logits rank class 3 first.
        tied = np.full(5, 0.1)
        tied[3] = np.nextafter(0.1, 1.0)
        tie = AdversarialModel(model.config, dict(model.params, **{"c/w": np.zeros((64, 5)), "c/b": tied}))
        for m in (model, tie):
            np.testing.assert_array_equal(predict(m, batch.x), np.argmax(forward(m, batch.x).y_logits.value, axis=1))
        np.testing.assert_array_equal(predict(tie, batch.x), 3)

        def f_grads(loss_of):
            fwd = forward(model, batch.x)
            loss = loss_of(fwd)
            ad.backward(loss)
            return loss.value, {k: fwd.leaves[k].grad for k in model.params if k.startswith("f/")}

        value, grads = f_grads(lambda fwd: domain_loss_for_mode(Mode.DANN, fwd, batch))
        value2, grads2 = f_grads(lambda fwd: dann_domain_loss(ad.softmax(fwd.d_out), batch.d_binary))
        np.testing.assert_array_equal(value, value2)
        for k, g in grads.items():
            np.testing.assert_array_equal(g, grads2[k])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_inference_pass_records_no_graph(self, monkeypatch, mode, dtype):
        """A grad=False pass builds the same nodes with the same bits, and none keeps parents or a closure."""
        model = make_model(mode, dtype=dtype)
        x = np.random.default_rng(3).normal(size=(5, 1, 16, 20))  # 20 columns pack into 3 mask bytes
        make_node = ad._node

        def recorded(grad):
            nodes = []
            monkeypatch.setattr(ad, "_node", lambda *args, **kw: nodes.append(make_node(*args, **kw)) or nodes[-1])
            fwd = forward(model, x, grad=grad)
            monkeypatch.setattr(ad, "_node", make_node)
            return fwd, nodes

        (graph, graph_nodes), (values, nodes) = recorded(True), recorded(False)
        assert len(nodes) == len(graph_nodes) and all(n._parents and n._backward for n in graph_nodes)
        for node in (*nodes, *values.leaves.values()):
            assert not node.requires_grad and node._parents == () and node._backward is None
        for name in ("z", "y_logits", "d_out"):
            a, b = getattr(values, name).value, getattr(graph, name).value
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()

    def test_duplicated_inputs_give_identical_rows(self):
        model = make_model(Mode.MTDA_C2)
        x0 = RNG.normal(size=(1, 1, 16, 16))
        fwd = forward(model, np.concatenate([x0, x0]))
        for t in (fwd.z, fwd.y_logits, fwd.d_out):
            np.testing.assert_array_equal(t.value[0], t.value[1])

    @pytest.mark.parametrize(
        "mode,width", [(Mode.DANN, 2), (Mode.MTDA_C1, 4), (Mode.MTDA_C2, 4), (Mode.MTDA_R, 1)]
    )
    def test_head_width_per_mode(self, mode, width):
        assert head_width(mode, 4) == width
        model = make_model(mode)
        assert model.params["d/w2"].shape[1] == width

    @pytest.mark.parametrize("hw", [(3, 64), (64, 3), (1, 1)])
    def test_feature_too_small_for_two_pools(self, hw):
        # Two 2x2 pools of a side below 4 leave no cell for the global average.
        model = make_model(Mode.MTDA_C2)
        with pytest.raises(ShapeError, match=rf"at least 4 .*\[2, 1, {hw[0]}, {hw[1]}\]"):
            forward(model, np.ones((2, 1, *hw)))

    def test_smallest_feature_for_two_pools(self):
        fwd = forward(make_model(Mode.MTDA_C2), np.ones((2, 1, 4, 4)))
        assert fwd.z.shape == (2, 64)

    def test_mismatched_mode_and_head_rejected(self):
        model = make_model(Mode.MTDA_C1)
        cfg = ModelConfig(n_classes=5, n_domains=4, mode=Mode.MTDA_R)
        with pytest.raises(ContractError, match="inconsistent with mode"):
            AdversarialModel(cfg, model.params)


class TestModelConfig:
    def test_class_names_are_kept_as_a_tuple(self):
        assert ModelConfig(3, 2, "dann", classes=["b", "a", "c"]).classes == ("b", "a", "c")
        assert ModelConfig(3, 2, "dann").classes is None

    @pytest.mark.parametrize(
        "classes, expect",
        [
            (("a", "b"), "classes must hold 3 values, got ('a', 'b')"),
            (("a", "b", "a"), "classes must be distinct, got ('a', 'b', 'a')"),
            (("a", "b", 3), "classes[2] must be a string, got 3"),
            ("abc", "classes must be a list of str, got 'abc'"),
        ],
        ids=["too-few", "repeated", "not-a-string", "one-string"],
    )
    def test_class_names_must_be_n_classes_distinct_strings(self, classes, expect):
        with pytest.raises(ContractError, match=re.escape(expect)):
            ModelConfig(3, 2, "dann", classes=classes)


class TestSceneLoss:
    def test_perfect_predictions_near_zero(self):
        logits = np.eye(4)[[0, 1]] * 40.0
        loss = scene_loss(ad.Tensor(logits), np.eye(4)[[0, 1]], np.array([True, True]))
        assert float(loss.value) < 1e-9

    def test_uniform_predictions_log_k(self):
        loss = scene_loss(ad.Tensor(np.zeros((2, 10))), np.eye(10)[[3, 7]], np.array([True, True]))
        assert float(loss.value) == pytest.approx(np.log(10), rel=1e-12)

    def test_mixed_batch_equals_source_only(self):
        logits = RNG.normal(size=(5, 4))
        y = np.eye(4)[[0, 1, 2, 3, 0]]
        mask = np.array([True, False, True, False, True])
        mixed = scene_loss(ad.Tensor(logits), y, mask)
        src_only = scene_loss(ad.Tensor(logits[mask]), y[mask], np.ones(3, dtype=bool))
        assert float(mixed.value) == pytest.approx(float(src_only.value), rel=1e-12)

    def test_unlabeled_rows_get_zero_gradient(self):
        logits = ad.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        mask = np.array([True, False, False, True])
        loss = scene_loss(logits, np.eye(3)[[0, 1, 2, 0]], mask)
        ad.backward(loss)
        np.testing.assert_array_equal(logits.grad[~mask], 0.0)
        assert np.any(logits.grad[mask] != 0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError, match="no source rows"):
            scene_loss(ad.Tensor(np.zeros((2, 3))), np.eye(3)[[0, 1]], np.zeros(2, dtype=bool))


class TestDomainLosses:
    def test_dann_zero_at_exact_prediction(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert float(dann_domain_loss(ad.Tensor(d), d).value) == 0.0

    def test_dann_half_half(self):
        loss = dann_domain_loss(ad.Tensor(np.array([[0.5, 0.5]])), np.array([[0.0, 1.0]]))
        assert float(loss.value) == pytest.approx(0.5)

    def test_dann_batch_mean_vs_hand_rows(self):
        pred = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        labels = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        expected = np.mean([((p - l) ** 2).sum() for p, l in zip(pred, labels)])
        assert float(dann_domain_loss(ad.Tensor(pred), labels).value) == pytest.approx(expected, rel=1e-12)

    def test_weighted_ce_zero_at_perfect(self):
        logits = np.eye(4)[[1, 3]] * 50.0
        u = np.array([0, 3])
        loss = weighted_domain_ce(ad.Tensor(logits), np.eye(4)[[1, 3]], u)
        assert float(loss.value) < 1e-9

    def test_weighted_ce_with_u_equal_t_minus_one_is_plain_ce(self):
        logits = RNG.normal(size=(5, 4))
        d = np.eye(4)[[0, 1, 2, 3, 1]]
        u = np.full(5, 9)
        weighted = weighted_domain_ce(ad.Tensor(logits), d, u, t=10.0)
        plain = plain_domain_ce(ad.Tensor(logits), d)
        assert float(weighted.value) == float(plain.value)  # exact

    def test_weighted_ce_hand_probability(self):
        # u=4, T=10, predicted prob of true domain e^-1 -> (5/10) * 1 = 0.5;
        # craft logits whose softmax puts exactly e^-1 on the true domain
        p_true = np.exp(-1.0)
        rest = (1 - p_true) / 3
        logits = np.log(np.array([[p_true, rest, rest, rest]]))
        loss = weighted_domain_ce(ad.Tensor(logits), np.eye(4)[[0]], np.array([4]), t=10.0)
        assert float(loss.value) == pytest.approx(0.5, rel=1e-12)

    def test_weighted_gradient_scaling_exact(self):
        # per-sample logit gradients scale by exactly (u+1)/T vs plain CE
        logits_val = RNG.normal(size=(1, 4))
        d = np.eye(4)[[2]]
        for u in (0, 3, 7):
            lt = ad.Tensor(logits_val.copy(), requires_grad=True)
            ad.backward(weighted_domain_ce(lt, d, np.array([u]), t=10.0))
            weighted_grad = lt.grad
            lt2 = ad.Tensor(logits_val.copy(), requires_grad=True)
            ad.backward(plain_domain_ce(lt2, d))
            np.testing.assert_array_equal(weighted_grad, (u + 1) / 10.0 * lt2.grad)

    def test_same_gradient_pathology_under_binary_loss(self):
        # Equal output + equal label -> identical dL/dd_pred rows, regardless
        # of how different the samples' true shifts are.
        pred = ad.Tensor(np.array([[0.3, 0.7], [0.3, 0.7], [0.9, 0.1]]), requires_grad=True)
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ad.backward(dann_domain_loss(pred, labels))
        np.testing.assert_array_equal(pred.grad[0], pred.grad[1])
        assert np.any(pred.grad[2] != pred.grad[0])

    def test_regression_loss_values(self):
        assert float(regression_domain_loss(ad.Tensor(np.array([[1.0], [3.0]])), np.array([1, 3])).value) == 0.0
        assert float(regression_domain_loss(ad.Tensor(np.array([[2.5]])), np.array([1])).value) == pytest.approx(2.25)
        batch = regression_domain_loss(ad.Tensor(np.array([[0.0], [1.0]])), np.array([0, 3]))
        assert float(batch.value) == pytest.approx(2.0)

    def test_normalize_index_rescales_regression_targets(self):
        model = make_model(Mode.MTDA_R)
        batch = make_batch()
        fwd = forward(model, batch.x)
        raw = domain_loss_for_mode(Mode.MTDA_R, fwd, batch)
        norm = domain_loss_for_mode(Mode.MTDA_R, fwd, batch, normalize_index=True)
        scaled = regression_domain_loss(fwd.d_out, batch.u / 3.0)
        assert float(norm.value) == float(scaled.value)
        assert float(raw.value) != float(norm.value)

    def test_non_onehot_domain_rejected(self):
        with pytest.raises(ContractError):
            weighted_domain_ce(ad.Tensor(np.zeros((1, 3))), np.array([[0.4, 0.6, 0.0]]), np.array([0]))

    def test_losses_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(size=(4, 3))
            d = np.eye(3)[rng.integers(0, 3, 4)]
            u = rng.integers(0, 5, 4)
            assert float(weighted_domain_ce(ad.Tensor(logits), d, u).value) >= 0
            assert float(plain_domain_ce(ad.Tensor(logits), d).value) >= 0
            pred = rng.uniform(size=(4, 1))
            assert float(regression_domain_loss(ad.Tensor(pred), rng.integers(0, 4, 4)).value) >= 0


class TestFeatureObjective:
    def test_arithmetic(self):
        ly = ad.Tensor(np.asarray(2.0))
        ld = ad.Tensor(np.asarray(0.5))
        assert float(feature_objective(ly, ld, 1.0).value) == pytest.approx(1.5)
        assert float(feature_objective(ly, ld, 0.0).value) == pytest.approx(2.0)

    def test_reversal_grads_match_explicit_objective(self):
        # Paired graphs: training graph (reversal, loss = L_y + L_d) must give
        # the same F gradients as the explicit L_y - lambda * L_d graph
        # without reversal.
        lam = 2.0
        model = make_model(Mode.MTDA_C1, dtype=np.float64)
        batch = make_batch()

        fwd = forward(model, batch.x, lambda_d=lam)
        l_y = scene_loss(fwd.y_logits, batch.y_onehot, batch.source_mask)
        l_d = domain_loss_for_mode(Mode.MTDA_C1, fwd, batch)
        ad.backward(l_y + l_d)
        rev_grads = {k: fwd.leaves[k].grad.copy() for k in model.params if k.startswith("f/")}

        fwd2 = forward(model, batch.x, lambda_d=0.0)
        # bypass the reversal: rebuild the D path directly on z
        d_hidden = ad.relu(ad.dense(fwd2.z, fwd2.leaves["d/w1"], fwd2.leaves["d/b1"]))
        d_out = ad.dense(d_hidden, fwd2.leaves["d/w2"], fwd2.leaves["d/b2"])
        l_y2 = scene_loss(fwd2.y_logits, batch.y_onehot, batch.source_mask)
        l_d2 = plain_domain_ce(d_out, batch.d_onehot)
        ad.backward(feature_objective(l_y2, l_d2, lam))
        for k, g in rev_grads.items():
            np.testing.assert_allclose(fwd2.leaves[k].grad, g, rtol=1e-12, atol=1e-15)


class TestConditionalMeanOracle:
    def test_all_equal(self):
        table = conditional_mean_oracle([(0, [0.0, 1.0]), (0, [0.0, 1.0])])
        np.testing.assert_array_equal(table[0], [0.0, 1.0])

    def test_counting_example(self):
        samples = [(0, [0.0, 1.0]), (0, [0.0, 1.0]), (0, [1.0, 0.0])]
        np.testing.assert_allclose(conditional_mean_oracle(samples)[0], [1 / 3, 2 / 3])

    def test_mse_descent_converges_to_conditional_mean(self):
        # Table discriminator (one free vector per discrete z) trained by
        # gradient descent on the squared error must match the closed form.
        rng = np.random.default_rng(8)
        z_vals = [0, 1, 2, 3]
        samples = []
        for z in z_vals:
            p = rng.uniform(0.1, 0.9)
            for _ in range(50):
                d = [1.0, 0.0] if rng.uniform() < p else [0.0, 1.0]
                samples.append((z, d))
        oracle = conditional_mean_oracle(samples)

        table = {z: np.zeros(2) for z in z_vals}
        lr = 0.05
        for _ in range(2000):
            grads = {z: np.zeros(2) for z in z_vals}
            counts = {z: 0 for z in z_vals}
            for z, d in samples:
                grads[z] += 2 * (table[z] - np.asarray(d))
                counts[z] += 1
            for z in z_vals:
                table[z] -= lr * grads[z] / counts[z]
        for z in z_vals:
            np.testing.assert_allclose(table[z], oracle[z], atol=1e-3)


class TestSerialization:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_round_trip_preserves_mode_and_params(self, tmp_path, mode):
        model = make_model(mode, dtype=np.float32)
        model = AdversarialModel(replace(model.config, classes=("e", "d", "c", "b", "a")), model.params)
        path = tmp_path / "model.mtda"
        model.save(path)
        loaded = AdversarialModel.load(path)
        assert loaded.config == model.config
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_loaded_model_forward_identical(self, tmp_path):
        model = make_model(Mode.MTDA_C2, dtype=np.float64)
        model.save(tmp_path / "m.mtda")
        loaded = AdversarialModel.load(tmp_path / "m.mtda")
        x = RNG.normal(size=(2, 1, 16, 16))
        np.testing.assert_array_equal(forward(model, x).y_logits.value, forward(loaded, x).y_logits.value)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_mutated_record_fails_cleanly_or_loads_the_same(self, tmp_path, mode):
        """Every truncation and single-bit flip of the meta/model record ends in a ContractError
        naming the file, or loads the saved config and param shapes."""
        model = AdversarialModel.initialize(ModelConfig(3, 4, mode, (2, 4)), seed=0)
        path, bad = tmp_path / "m.mtda", tmp_path / "bad.mtda"
        model.save(path)
        tensors = load_tensors(path)
        record = tensors["meta/model"].tobytes()
        flips = [record[:i] + bytes([record[i] ^ 1 << bit]) + record[i + 1 :]
                 for i in range(len(record)) for bit in range(8)]
        shapes = {k: v.shape for k, v in model.params.items()}
        for mutant in [record[:n] for n in range(len(record))] + flips:
            save_tensors(bad, {**tensors, "meta/model": np.frombuffer(mutant, dtype=np.uint8)})
            try:
                loaded = AdversarialModel.load(bad)
            except ContractError as exc:
                assert str(exc).startswith(f"{bad}: ")
                continue
            config = loaded.config
            if head_width(mode, 2) == head_width(mode, 3):
                # the dann and mtda-r heads' width ignores n_domains, so a flipped digit of it loads as
                # another count >= 2; every parameter and every output stays the same
                config = replace(config, n_domains=model.config.n_domains)
            assert config == model.config
            assert {k: v.shape for k, v in loaded.params.items()} == shapes


class TestBatch:
    def test_mask_u_consistency_enforced(self):
        with pytest.raises(ContractError):
            Batch(
                x=np.zeros((2, 1, 4, 4)),
                y_onehot=np.eye(3)[[0, 1]],
                d_onehot=np.eye(2)[[0, 1]],
                u=np.array([0, 1]),
                source_mask=np.array([True, True]),
            )

    def test_dann_binary_labels(self):
        b = make_batch()
        assert np.all(b.d_binary[b.source_mask] == [0.0, 1.0])
        assert np.all(b.d_binary[~b.source_mask] == [1.0, 0.0])
