"""Tests for the synthetic multi-device dataset generator."""

import numpy as np
import pytest

from mtda.checkpoint import load_features, load_tensors
from mtda.errors import ContractError
from mtda.manifest import read_manifest
from mtda.synth import (
    BANDS,
    DeviceProfile,
    SynthConfig,
    apply_device,
    class_pattern,
    make_clean,
    make_dataset,
)


class TestMakeClean:
    def test_deterministic_for_same_rng_state(self):
        a = make_clean(3, 10, np.random.default_rng(5))
        b = make_clean(3, 10, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    def test_class_patterns_distinct(self):
        for i in range(10):
            for j in range(i + 1, 10):
                d = np.linalg.norm(class_pattern(i, 10) - class_pattern(j, 10))
                assert d > 1.0

    def test_out_of_range_class(self):
        with pytest.raises(ContractError):
            make_clean(10, 10, np.random.default_rng(0))

    def test_linear_probe_accuracy(self):
        # Independent oracle: least-squares probe to one-hot targets on
        # flattened clean samples, holdout accuracy must reach 0.95.
        rng = np.random.default_rng(123)
        k = 10
        xs, ys = [], []
        for i in range(1000):
            c = i % k
            xs.append(make_clean(c, k, rng).reshape(-1))
            ys.append(c)
        x = np.array(xs)
        y = np.array(ys)
        x = np.hstack([x, np.ones((len(x), 1))])
        train, test = slice(0, 800), slice(800, 1000)
        w, *_ = np.linalg.lstsq(x[train], np.eye(k)[y[train]], rcond=None)
        acc = (np.argmax(x[test] @ w, axis=1) == y[test]).mean()
        assert acc >= 0.95


class TestApplyDevice:
    def test_zero_magnitude_is_identity(self):
        clean = make_clean(0, 10, np.random.default_rng(0))
        profile = DeviceProfile.from_magnitude("src", 0.0)
        out = apply_device(clean, profile, np.random.default_rng(1))
        np.testing.assert_array_equal(out, clean)

    def test_deviation_increases_with_magnitude(self):
        rng = np.random.default_rng(7)
        magnitudes = [0.2, 0.6, 1.2]
        deviations = []
        for mag in magnitudes:
            profile = DeviceProfile.from_magnitude("dev", mag)
            total = 0.0
            for i in range(200):
                clean = make_clean(i % 10, 10, np.random.default_rng([9, i]))
                shifted = apply_device(clean, profile, np.random.default_rng([10, i]))
                total += np.linalg.norm(shifted - clean)
            deviations.append(total / 200)
        assert deviations[0] < deviations[1] < deviations[2]

    def test_parallel_pair_construction(self):
        clean = make_clean(2, 10, np.random.default_rng(3))
        a = apply_device(clean, DeviceProfile.from_magnitude("d1", 0.4), np.random.default_rng(4))
        b = apply_device(clean, DeviceProfile.from_magnitude("d2", 0.9), np.random.default_rng(5))
        assert a.shape == b.shape == clean.shape

    def test_parallel_pair_band_means_recover_gain_curve(self):
        profile = DeviceProfile.from_magnitude("d", 0.8)
        diffs = []
        for i in range(50):
            clean = make_clean(i % 10, 10, np.random.default_rng([20, i]))
            shifted = apply_device(clean, profile, np.random.default_rng([21, i]))
            diffs.append((shifted - clean).mean(axis=0))
        band_means = np.mean(diffs, axis=0)
        tol = 3 * profile.noise_std / np.sqrt(64 * 50)
        assert np.abs(band_means - profile.band_gain_curve).max() <= 3 * tol

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractError):
            apply_device(np.zeros((32, 64)), DeviceProfile.from_magnitude("d", 0.1), np.random.default_rng(0))


class TestDeviceProfile:
    def test_zero_magnitude_invariant_enforced(self):
        with pytest.raises(ContractError):
            DeviceProfile("d", 0.0, np.ones(BANDS), 0.0)

    def test_curve_length_enforced(self):
        with pytest.raises(ContractError):
            DeviceProfile("d", 0.5, np.ones(10), 0.1)


class TestMakeDataset:
    CONFIG = dict(
        n_classes=4,
        devices=[("A", 0.0), ("B", 0.3), ("C", 0.8)],
        samples_per_device_per_class=8,
        parallel_fraction=0.5,
        seed=11,
    )

    def test_byte_identical_across_runs(self, tmp_path):
        rows1 = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "run1")
        rows2 = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "run2")
        m1 = (tmp_path / "run1" / "manifest.csv").read_text()
        m2 = (tmp_path / "run2" / "manifest.csv").read_text()
        assert m1.replace("run1", "X") == m2.replace("run2", "X")
        for r1, r2 in zip(rows1, rows2):
            f1 = load_features([r1.feature_path])[0]
            f2 = load_features([r2.feature_path])[0]
            assert f1.tobytes() == f2.tobytes()

    def test_feature_files_hold_the_float32_rounding(self, tmp_path):
        rows = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "f32")
        # load_features returns float32 whatever a file holds, so read what is stored
        assert all(load_tensors(r.feature_path)["features"].dtype == np.float32 for r in rows)
        # the first row is source device A, class 0, sample 0
        seed = self.CONFIG["seed"]
        clean = make_clean(0, self.CONFIG["n_classes"], np.random.default_rng([seed, 0, 0, 0]))
        feat = apply_device(clean, DeviceProfile.from_magnitude("A", 0.0), np.random.default_rng([seed, 1000, 0, 0]))
        assert rows[0].id == "A_c0_s0"
        assert load_tensors(rows[0].feature_path)["features"].tobytes() == feat.astype(np.float32).tobytes()

    def test_each_class_pattern_is_built_once(self, tmp_path):
        class_pattern.cache_clear()
        make_dataset(SynthConfig(**self.CONFIG), tmp_path / "once")
        assert class_pattern.cache_info().misses == self.CONFIG["n_classes"]
        assert not class_pattern(0, self.CONFIG["n_classes"]).flags.writeable

    def test_row_count_arithmetic(self, tmp_path):
        cfg = SynthConfig(
            n_classes=10,
            devices=[("A", 0.0), ("B", 0.2), ("C", 0.6), ("D", 1.2)],
            samples_per_device_per_class=30,
            seed=0,
        )
        rows = make_dataset(cfg, tmp_path / "big")
        assert len(rows) == 4 * 10 * 30

    def test_zero_parallel_fraction(self, tmp_path):
        cfg = SynthConfig(**{**self.CONFIG, "parallel_fraction": 0.0})
        rows = make_dataset(cfg, tmp_path / "nopar")
        assert all(r.parallel_group == "" for r in rows)

    def test_labels_and_splits(self, tmp_path):
        rows = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "lab")
        for r in rows:
            if r.device == "A" or r.split == "test":
                assert r.scene != ""
            else:
                assert r.scene == ""
        # stratified: every (device, class) cell has both splits
        assert {(r.device, r.split) for r in rows} == {
            (d, s) for d in ["A", "B", "C"] for s in ["train", "test"]
        }

    def test_parallel_groups_pair_with_source(self, tmp_path):
        rows = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "par")
        by_group = {}
        for r in rows:
            if r.parallel_group:
                by_group.setdefault(r.parallel_group, []).append(r)
        assert by_group
        for group, members in by_group.items():
            assert any(m.device == "A" for m in members)
            # parallel members share the clean tensor: their difference is
            # the gain curve plus bounded noise
            src = next(m for m in members if m.device == "A")
            src_feat = load_features([src.feature_path])[0]
            for m in members:
                if m.device == "A":
                    continue
                diff = load_features([m.feature_path])[0] - src_feat
                assert np.abs(diff).max() < 5.0

    def test_manifest_round_trip(self, tmp_path):
        rows = make_dataset(SynthConfig(**self.CONFIG), tmp_path / "rt")
        loaded = read_manifest(tmp_path / "rt" / "manifest.csv")
        assert [r.id for r in loaded] == [r.id for r in rows]
