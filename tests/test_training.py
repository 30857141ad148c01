"""Tests for the training harness, evaluation, sweeps, and exports."""

import re
from dataclasses import replace

import numpy as np
import pytest

from mtda import autodiff as ad
from mtda import checkpoint
from mtda.errors import ContractError
from mtda.geometry import DomainEntry
from mtda.manifest import ManifestRow
from mtda.models import AdversarialModel, Batch, Mode, ModelConfig, domain_loss_for_mode, forward, scene_loss
from mtda.synth import make_dataset
from mtda.training import (
    Adam,
    TrainConfig,
    _step,
    compute_index_table,
    evaluate,
    export_embeddings,
    load_dataset,
    predict,
    sweep,
    train,
)

from gradcheck import traced_peak

INDEX_TABLE = {
    "A": DomainEntry(distance=0.0, index=0),
    "B": DomainEntry(distance=0.5, index=1),
    "C": DomainEntry(distance=1.5, index=2),
}

FAST = dict(epochs=2, batch_size=8, holdout_fraction=0.2, conv_channels=(2, 4))


class TestTrainConfig:
    def test_defaults_follow_experiment_setting(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.002
        assert cfg.batch_size == 32
        assert cfg.epochs == 200
        assert cfg.t == 10.0
        assert cfg.lambda_grid == (0.2, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0)

    @pytest.mark.parametrize("key", ["learning_rat", "beta1", "source_fraction"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ContractError, match="unknown keys"):
            TrainConfig.from_dict({key: 0.1})

    def test_batch_needs_a_source_and_a_target_row(self):
        with pytest.raises(ContractError, match="batch_size must be >= 2"):
            TrainConfig(batch_size=1)

    def test_override_typing(self):
        cfg = TrainConfig.from_dict({"mode": "dann"}, overrides={"lambda_d": "2.0", "epochs": "5"})
        assert cfg.lambda_d == 2.0 and cfg.epochs == 5 and cfg.mode == "dann"

    def test_override_parsed_by_field_type(self):
        cfg = TrainConfig.from_dict(
            {"normalize_index": True},
            overrides={"conv_channels": "2,4", "lambda_grid": "0.5,1", "normalize_index": "0",
                       "device_groups": '{"t": ["B", "C"]}'},
        )
        assert cfg.conv_channels == (2, 4) and all(type(c) is int for c in cfg.conv_channels)
        assert cfg.lambda_grid == (0.5, 1.0) and cfg.normalize_index is False
        assert cfg.device_groups == {"t": ["B", "C"]}

    def test_unknown_override_rejected(self):
        with pytest.raises(ContractError, match="unknown override"):
            TrainConfig.from_dict({}, overrides={"lambda": "1"})


class TestLoadDataset:
    def test_rows_encoded_against_the_classes_given(self, small_dataset):
        _, rows = small_dataset
        data = load_dataset(rows)
        assert data.classes == ["scene0", "scene1", "scene2"]
        assert data.row_devices.tolist() == [r.device for r in data.rows]
        for row, label in zip(data.rows, data.labels):
            if row.device == "A":
                assert label == data.classes.index(row.scene)
            else:  # unlabeled target row
                assert row.scene == "" and label == -1
        # test labels are keyed on the classes given (a model's names), not on the
        # split's own scenes: with scene0 renamed, those would move scene1 to 0
        renamed = [replace(r, scene="sceneZ") if r.split == "test" and r.scene == "scene0" else r for r in rows]
        assert load_dataset(renamed, "test").classes == ["scene1", "scene2", "sceneZ"]
        test = load_dataset([r for r in renamed if r.split == "test"], "test", data.classes)  # needs no train row
        assert test.classes == data.classes
        assert test.labels.tolist() == [{"scene1": 1, "scene2": 2}.get(r.scene, -1) for r in test.rows]
        assert {r.scene for r, label in zip(test.rows, test.labels) if label == -1} == {"sceneZ"}
        assert test.row_devices.tolist() == [r.device for r in test.rows]


class TestAdam:
    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step({"w": 2 * params["w"]})
        assert np.abs(params["w"]).max() < 1e-3

    def test_step_rebinds_and_never_writes_a_parameter(self):
        # An array handed on, such as the best epoch's parameters that train keeps, stays as it was.
        w = np.array([1.0, 2.0])
        params = {"w": w}
        Adam(params, lr=0.1).step({"w": np.array([0.5, -0.5])})
        np.testing.assert_array_equal(w, [1.0, 2.0])
        assert params["w"] is not w
        np.testing.assert_allclose(params["w"], [0.9, 2.1])

    def test_deterministic(self):
        def run():
            params = {"w": np.array([1.0, 2.0])}
            opt = Adam(params, lr=0.01)
            for i in range(10):
                opt.step({"w": params["w"] * (i + 1)})
            return params["w"].tobytes()

        assert run() == run()


class TestTrain:
    def test_deterministic_final_parameters(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="mtda-c2", lambda_d=1.0, seed=3, **FAST)
        a = train(cfg, rows, INDEX_TABLE)
        b = train(cfg, rows, INDEX_TABLE)
        assert a.model.config.classes == ("scene0", "scene1", "scene2")  # the sorted labeled train scenes
        for k in a.model.params:
            assert a.model.params[k].tobytes() == b.model.params[k].tobytes()

    def test_float32_files_train_like_the_float64_files_they_round(self, small_dataset, tmp_path, monkeypatch):
        """Feature files load as float32 whatever they store, so storing the rounded values changes no output byte."""
        synth_config, rows = small_dataset

        def save_float64(path, frames):  # what synth wrote before features were stored float32
            checkpoint.save_tensors(path, {"features": frames})

        monkeypatch.setattr(checkpoint, "save_features", save_float64)
        wide = make_dataset(synth_config, tmp_path / "float64")
        monkeypatch.undo()
        assert checkpoint.load_tensors(wide[0].feature_path)["features"].dtype == np.float64
        assert load_dataset(rows).features.tobytes() == load_dataset(wide).features.tobytes()
        cfg = TrainConfig(mode="mtda-c2", lambda_d=1.0, seed=3, **FAST)
        reports = []
        for name, manifest in (("float32", rows), ("float64", wide)):
            model = train(cfg, manifest, INDEX_TABLE).model
            model.save(tmp_path / f"{name}.mtda")
            reports.append(evaluate(model, manifest))
        assert (tmp_path / "float32.mtda").read_bytes() == (tmp_path / "float64.mtda").read_bytes()
        assert reports[0] == reports[1]

    def test_lambda_zero_matches_supervised_gradients(self, small_dataset):
        # At lambda_d = 0 the F and C gradients of the full graph must be
        # bit-identical to a supervised-only graph (D still receives grads).
        _, rows = small_dataset
        data = load_dataset([r for r in rows if r.split == "train"])
        model = AdversarialModel.initialize(
            ModelConfig(n_classes=3, n_domains=3, mode=Mode.MTDA_C1, conv_channels=(2, 4)),
            seed=0,
            dtype=np.float64,
        )
        idx = [i for i, r in enumerate(data.rows) if r.device == "A"][:4] + [
            i for i, r in enumerate(data.rows) if r.device == "B"
        ][:4]
        x = data.features[idx]
        u = np.array([INDEX_TABLE[data.rows[i].device].index for i in idx])
        y = np.zeros((8, 3))
        for pos, i in enumerate(idx):
            if u[pos] == 0:
                y[pos] = np.eye(3)[data.labels[i]]
            else:
                y[pos, 0] = 1.0
        mask = u == 0

        fwd = forward(model, x, lambda_d=0.0)
        from mtda.models import Batch, plain_domain_ce

        batch = Batch(x=x, y_onehot=y, d_onehot=np.eye(3)[u], u=u, source_mask=mask)
        total = scene_loss(fwd.y_logits, y, mask) + plain_domain_ce(fwd.d_out, batch.d_onehot)
        ad.backward(total)

        fwd2 = forward(model, x, lambda_d=0.0)
        ad.backward(scene_loss(fwd2.y_logits, y, mask))
        for k in model.params:
            if k.startswith("d/"):
                assert fwd.leaves[k].grad is not None
            else:
                assert fwd.leaves[k].grad.tobytes() == fwd2.leaves[k].grad.tobytes()

    def test_unlabeled_rows_never_reach_classifier_params(self, small_dataset):
        _, rows = small_dataset
        data = load_dataset([r for r in rows if r.split == "train"])
        model = AdversarialModel.initialize(
            ModelConfig(n_classes=3, n_domains=3, mode=Mode.MTDA_C2, conv_channels=(2, 4)),
            seed=1,
            dtype=np.float64,
        )
        tgt = [i for i, r in enumerate(data.rows) if r.device != "A"][:4]
        src = [i for i, r in enumerate(data.rows) if r.device == "A"][:2]
        idx = src + tgt
        u = np.array([INDEX_TABLE[data.rows[i].device].index for i in idx])
        y = np.zeros((6, 3))
        for pos, i in enumerate(idx):
            y[pos] = np.eye(3)[data.labels[i]] if u[pos] == 0 else np.eye(3)[0]
        fwd = forward(model, data.features[idx], lambda_d=1.0)
        ad.backward(scene_loss(fwd.y_logits, y, u == 0))
        grads_full = {k: fwd.leaves[k].grad.copy() for k in ("c/w", "c/b")}

        fwd_src = forward(model, data.features[src], lambda_d=1.0)
        ad.backward(scene_loss(fwd_src.y_logits, y[: len(src)], np.ones(len(src), dtype=bool)))
        for k in ("c/w", "c/b"):
            np.testing.assert_allclose(grads_full[k], fwd_src.leaves[k].grad, rtol=1e-12)

    def test_loss_accounting_recomputable(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="dann", lambda_d=0.5, seed=5, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        for step, l_y, l_d, l_total in result.report.loss_curve:
            assert l_total == pytest.approx(l_y + l_d, rel=1e-6)
        assert len(result.report.loss_curve) > 0

    def test_missing_index_table_device(self, small_dataset):
        _, rows = small_dataset
        with pytest.raises(ContractError, match="index table missing"):
            train(TrainConfig(**FAST), rows, {"A": DomainEntry(0.0, 0)})

    def test_unlabeled_source_rows_rejected(self, small_dataset):
        _, rows = small_dataset
        first = next(i for i, r in enumerate(rows) if r.device == "A" and r.split == "train")
        blanked = [replace(r, scene="") if i == first else r for i, r in enumerate(rows)]
        with pytest.raises(ContractError, match=rf"1 source train rows have no scene label: \['{rows[first].id}'\]"):
            train(TrainConfig(**FAST), blanked, INDEX_TABLE)

    def test_no_source_rows_rejected(self, small_dataset):
        _, rows = small_dataset
        targets_only = [r for r in rows if r.device != "A"]
        with pytest.raises(ContractError):
            train(TrainConfig(**FAST), targets_only, INDEX_TABLE)

    @pytest.mark.parametrize(
        "members, message",
        [
            (["B", "Z"], "device group targets names devices with no test rows: ['Z']"),
            (["B", "C", "B"], "device group targets names devices more than once: ['B']"),
        ],
        ids=["unknown", "repeated"],
    )
    def test_bad_group_rejected_before_training(self, members, message, small_dataset, monkeypatch):
        _, rows = small_dataset
        monkeypatch.setattr("mtda.training.forward", lambda *a, **k: pytest.fail("a step ran"))
        cfg = TrainConfig(device_groups={"targets": members}, lambda_grid=(0.5, 1.0), **FAST)
        with pytest.raises(ContractError, match=re.escape(message)):
            train(cfg, rows, INDEX_TABLE)
        results, best = sweep(cfg, rows, INDEX_TABLE)
        assert best is None and [r["error"] for r in results] == [message, message]


class TestOneBatchGraph:
    """Memory at the 10 s log-mel height (638 frames): a batch's graph outweighs the features."""

    def test_train_holds_one_step_graph(self, tmp_path):
        # 10 labeled source rows, 2 held out: 8 train rows make one step per epoch at batch 16
        rng = np.random.default_rng(0)
        rows = []
        for device, n in (("A", 10), ("B", 4), ("C", 4)):
            for j in range(n):
                path = tmp_path / f"{device}{j}.mtt"
                checkpoint.save_features(path, rng.normal(size=(638, 64)))
                scene = f"scene{j % 2}" if device == "A" else ""
                rows.append(ManifestRow(id=f"{device}{j}", scene=scene, device=device, feature_path=str(path)))
        (one, one_peak), (three, three_peak) = (
            traced_peak(lambda: train(TrainConfig(epochs=e, batch_size=16, seed=0), rows, INDEX_TABLE)) for e in (1, 3)
        )
        assert (len(one.report.loss_curve), len(three.report.loss_curve)) == (1, 3)
        # a step that builds its graph while the last one's is alive peaks near 1.45x
        assert three_peak <= 1.05 * one_peak, f"3 steps {three_peak / 1e6:.1f} MB, 1 step {one_peak / 1e6:.1f} MB"

    def test_predict_holds_one_batch_graph(self):
        model = AdversarialModel.initialize(ModelConfig(n_classes=3, n_domains=3, mode=Mode.MTDA_C2), seed=0)
        x = np.random.default_rng(1).normal(size=(3 * 64, 160, 64)).astype(np.float32)
        (one, one_peak), (three, three_peak) = (traced_peak(lambda: predict(model, x[:n])) for n in (64, 3 * 64))
        np.testing.assert_array_equal(three[:64], one)
        # a batch built while the last batch's pass is alive peaks near 1.9x
        assert three_peak <= 1.05 * one_peak, f"3 batches {three_peak / 1e6:.1f} MB, 1 batch {one_peak / 1e6:.1f} MB"

    def test_step_holds_under_055_mb_per_sample(self):
        # one bool per relu decision held 0.245 of the 0.667 MB a sample took; one bit holds 0.031
        model = AdversarialModel.initialize(ModelConfig(n_classes=10, n_domains=3, mode=Mode.MTDA_C2), seed=0)
        x = np.random.default_rng(1).normal(size=(64, 638, 64)).astype(np.float32)
        config = TrainConfig(seed=0)

        def step_peak(n):
            u = np.arange(n) % 3
            batch = Batch(x[:n], np.eye(10)[np.arange(n) % 10], np.eye(3)[u], u, source_mask=u == 0)
            optimizer = Adam(dict(model.params), config.learning_rate)
            fresh = AdversarialModel(model.config, optimizer.params)
            return traced_peak(lambda: _step(fresh, optimizer, batch, config))[1]

        step_peak(2)  # numpy's and the allocator's first-use costs fall outside the traced steps
        small, large = step_peak(8), step_peak(64)
        per_sample = (large - small) / (64 - 8)
        assert per_sample < 0.55e6, f"{per_sample / 1e6:.3f} MB a sample, {small / 1e6:.1f} at 8, {large / 1e6:.1f} at 64"

    def test_predict_of_192_rows_peaks_below_18_5_mb(self):
        # three 64-row passes, one alive at a time, each recording no graph; one that kept every
        # node's parents, closure and packed relu mask peaked at 19.8 MB, with a bool mask at 33.5 MB
        model = AdversarialModel.initialize(ModelConfig(n_classes=10, n_domains=3, mode=Mode.MTDA_C2), seed=0)
        x = np.random.default_rng(1).normal(size=(3 * 64, 638, 64)).astype(np.float32)
        _, peak = traced_peak(lambda: predict(model, x))
        assert peak < 18.5e6, f"traced peak {peak / 1e6:.2f} MB"


class TestEvaluate:
    def test_perfect_and_prevalence_predictors(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="mtda-c1", seed=1, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        report = evaluate(result.model, rows, device_groups={"B&C": ["B", "C"]})
        assert set(report.per_device) == {"A", "B", "C"}
        for stats in report.per_device.values():
            assert 0.0 <= stats["accuracy"] <= 1.0

    def test_grouped_accuracy_is_count_weighted_mean(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="mtda-c2", seed=4, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        report = evaluate(result.model, rows, device_groups={"B&C": ["B", "C"]})
        b, c = report.per_device["B"], report.per_device["C"]
        expected = (b["accuracy"] * b["count"] + c["accuracy"] * c["count"]) / (b["count"] + c["count"])
        assert report.groups["B&C"] == pytest.approx(expected, rel=1e-12)


def _constant_predictor(n_classes, label, classes=None):
    """A model whose classifier outputs `label` for every input; its classes are
    scene0, scene1, ... unless named."""
    classes = classes or tuple(f"scene{k}" for k in range(n_classes))
    model = AdversarialModel.initialize(
        ModelConfig(n_classes=n_classes, n_domains=3, mode=Mode.MTDA_C2, conv_channels=(2, 4), classes=classes), seed=0
    )
    bias = np.zeros_like(model.params["c/b"])
    bias[label] = 10.0
    model.params.update({"c/w": np.zeros_like(model.params["c/w"]), "c/b": bias})
    return model


class TestEvaluateClasses:
    def test_missing_test_class_keeps_train_labels(self, small_dataset):
        # Always predicts scene0; with scene0 absent from the test split the
        # true accuracy is 0 on every device, not the share of some other scene.
        _, rows = small_dataset
        rows = [r for r in rows if not (r.split == "test" and r.scene == "scene0")]
        report = evaluate(_constant_predictor(3, 0), rows)
        assert set(report.per_device) == {"A", "B", "C"}
        for stats in report.per_device.values():
            assert stats["accuracy"] == 0.0

    def test_unknown_test_scene_rejected(self, small_dataset):
        _, rows = small_dataset
        rows = [
            replace(r, scene="sceneZ") if r.split == "test" and r.scene == "scene0" else r
            for r in rows
        ]
        with pytest.raises(ContractError, match=r"not among the train classes: \['sceneZ'\]"):
            evaluate(_constant_predictor(3, 1), rows)

    def test_unknown_group_device_rejected(self, small_dataset):
        _, rows = small_dataset
        with pytest.raises(ContractError, match=r"device group targets names devices with no test rows: \['Z'\]"):
            evaluate(_constant_predictor(3, 0), rows, device_groups={"targets": ["B", "Z"]})

    def test_repeated_group_device_rejected(self, small_dataset):
        _, rows = small_dataset
        with pytest.raises(ContractError, match=re.escape("device group g names devices more than once: ['A']")):
            evaluate(_constant_predictor(3, 0), rows, device_groups={"g": ["A", "A", "B"]})

    def test_labels_keyed_on_the_model_names(self, small_dataset):
        # 4 outputs named in another order than the manifest's 3 sorted scenes; output 1 is scene0,
        # so each device scores the share of scene0 among its test rows
        _, rows = small_dataset
        report = evaluate(_constant_predictor(4, 1, ("scene2", "scene0", "sceneX", "scene1")), rows)
        for device, stats in report.per_device.items():
            scenes = [r.scene for r in rows if r.split == "test" and r.device == device]
            assert stats == {"accuracy": scenes.count("scene0") / len(scenes), "count": len(scenes)}

    def test_model_without_class_names_rejected(self, small_dataset):
        _, rows = small_dataset
        model = _constant_predictor(3, 0)
        nameless = AdversarialModel(replace(model.config, classes=None), model.params)
        with pytest.raises(ContractError, match="records no class names to key test labels on: retrain it"):
            evaluate(nameless, rows)


class TestExportEmbeddings:
    def test_one_point_per_chosen_row(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="mtda-c2", seed=6, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        emb, chosen = export_embeddings(result.model, rows, n_per_device=6, tsne_iters=60)
        assert len(chosen) == 3 * 6
        assert emb.points.shape == (3 * 6, 2)

    def test_scarce_device_uses_all_and_warns(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="dann", seed=6, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        few = [r for r in rows if r.device != "C"] + [r for r in rows if r.device == "C"][:5]
        with pytest.warns(RuntimeWarning, match="only 5 rows"):
            export_embeddings(result.model, few, n_per_device=6, tsne_iters=60)

    def test_n_per_device_minimum(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="dann", seed=6, **FAST)
        result = train(cfg, rows, INDEX_TABLE)
        with pytest.raises(ContractError):
            export_embeddings(result.model, rows, n_per_device=4)

    def test_no_extracted_features_is_named(self, small_dataset):
        _, rows = small_dataset
        model = AdversarialModel.initialize(ModelConfig(n_classes=3, n_domains=3, mode="dann"), seed=0)
        bare = [replace(r, feature_path="") for r in rows]
        with pytest.raises(ContractError, match=re.escape("manifest has no rows with extracted features")):
            export_embeddings(model, bare, n_per_device=6)


class TestSweep:
    def test_grid_of_one_matches_single_train(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="mtda-c2", seed=8, lambda_grid=(1.0,), **FAST)
        results, best = sweep(cfg, rows, INDEX_TABLE)
        assert len(results) == 1 and best is results[0]
        single = train(TrainConfig(mode="mtda-c2", seed=8, lambda_d=1.0, lambda_grid=(1.0,), **FAST), rows, INDEX_TABLE)
        single_report = evaluate(single.model, rows)
        assert best["report"].per_device == single_report.per_device

    def test_one_row_per_grid_value_and_tie_rule(self, small_dataset):
        _, rows = small_dataset
        cfg = TrainConfig(mode="dann", seed=8, lambda_grid=(0.5, 1.0), **FAST)
        results, best = sweep(cfg, rows, INDEX_TABLE)
        assert [r["lambda_d"] for r in results] == [0.5, 1.0]
        scores = [r["holdout_accuracy"] for r in results]
        if scores[0] == scores[1]:
            assert best["lambda_d"] == 0.5
        else:
            assert best["holdout_accuracy"] == max(scores)

    def test_selection_reads_no_test_label(self, small_dataset):
        """Rotating the test rows' scene labels moves the target test scores, not the chosen lambda."""
        _, rows = small_dataset
        rotated = [replace(r, scene=f"scene{(int(r.scene[5:]) + 2) % 3}") if r.split == "test" else r for r in rows]
        cfg = TrainConfig(mode="mtda-c2", seed=1, lambda_grid=(0.5, 2.0, 8.0), **{**FAST, "epochs": 4})
        (results, best), (moved, best_moved) = sweep(cfg, rows, INDEX_TABLE), sweep(cfg, rotated, INDEX_TABLE)
        assert [r["target_test_accuracy"] for r in results] != [r["target_test_accuracy"] for r in moved]
        assert [r["holdout_accuracy"] for r in results] == [r["holdout_accuracy"] for r in moved]
        assert best["lambda_d"] == best_moved["lambda_d"]


class TestIndexPipeline:
    def test_recovered_order_matches_shift_magnitudes(self, small_dataset):
        # Pinned seed: with only 3 classes the embedding is small and noisy;
        # the full-scale recovery property is covered by the acceptance suite.
        _, rows = small_dataset
        table = compute_index_table(rows, seed=1, tsne_iters=300)
        assert table["A"].index == 0
        assert table["B"].index == 1  # magnitude 0.4
        assert table["C"].index == 2  # magnitude 1.0
        assert table["B"].distance < table["C"].distance

    @pytest.mark.parametrize(
        "devices, per_device, parallel, frames, bound",
        [
            # 60 clips of 10 s log-mel frames (638x64 float32) take 9.8 MB stacked
            ("ABC", 20, 20, (638, 64), lambda stacked, p_bytes: stacked / 10 + p_bytes),
            # the pipeline's 240 train rows of 64x64 per device, half of them parallel, 200 kept
            ("ABCD", 240, 120, (64, 64), lambda stacked, p_bytes: 1.35 * p_bytes),
        ],
        ids=["audio-clips", "pipeline"],
    )
    def test_holds_one_file_not_the_stacked_frames(self, devices, per_device, parallel, frames, bound, tmp_path):
        # the index needs the kept rows' 64-d time averages, taken as each file is read, then P and one block
        import scipy.spatial.distance  # noqa: F401  imported before tracing starts

        rng = np.random.default_rng(4)
        rows, paths = [], []  # the paths stay alive so that reading them interns no new name
        for d, device in enumerate(devices):
            for k in range(per_device):
                paths.append(tmp_path / f"{device}{k}.mtt")
                checkpoint.save_features(paths[-1], rng.normal(loc=d, size=frames))
                rows.append(ManifestRow(id=paths[-1].stem, scene="s0" if device == "A" else "", device=device,
                                        parallel_group=f"g{k}" if k < parallel else "", feature_path=str(paths[-1])))
        max_rows = 200
        table, peak = traced_peak(lambda: compute_index_table(rows, seed=0, tsne_iters=20, max_rows_per_device=max_rows))
        kept = len(devices) * min(per_device, max_rows)
        stacked, p_bytes = kept * frames[0] * frames[1] * 4, kept**2 * 8
        assert sorted(table) == list(devices)
        assert peak <= bound(stacked, p_bytes), f"peak {peak} B ({peak / p_bytes:.3f} P), stacked frames {stacked} B"

    def test_reads_only_the_kept_rows(self, small_dataset, monkeypatch):
        # each device has 9 parallel and 9 other train rows: a budget of 12 keeps
        # all 9 parallel rows and 3 others, so 36 of the 54 train files are read
        _, rows = small_dataset
        read = []
        load = checkpoint.load_tensors
        monkeypatch.setattr(checkpoint, "load_tensors", lambda path: read.append(str(path)) or load(path))
        compute_index_table(rows, seed=1, tsne_iters=60, max_rows_per_device=12)
        train_rows = {r.feature_path: r for r in rows if r.split == "train"}
        assert len(train_rows) == 54 and len(read) == len(set(read)) == 36
        assert [sum(train_rows[p].device == d for p in read) for d in "ABC"] == [12, 12, 12]
        assert {p for p, r in train_rows.items() if r.parallel_group} <= set(read)
