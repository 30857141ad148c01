"""Seeded synthetic multi-device datasets in log-mel space.

Clean class content is a smooth 2-D pattern (a small sum of separable
sinusoidal modes, drawn once per class from a class-keyed generator) plus
i.i.d. noise. A device applies an additive per-band gain curve in the log
domain (about a multiplicative frequency response) plus extra noise; both
scale with the device's shift magnitude. Parallel pairs are built by running
the same clean tensor through the source device and a target device.

Waveform synthesis is skipped on purpose: the algorithms under test consume
mel features, so realism below that interface buys nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mtda import checkpoint
from mtda.errors import Checked, ContractError, check, check_file_name, fits, rule
from mtda.manifest import ManifestRow, write_manifest

FRAMES = 64
BANDS = 64
CLEAN_NOISE_STD = 0.1
_CLASS_KEY = 0x5C1A55  # namespaces the per-class pattern generators
_DEVICE_KEY = 0xDE71CE


@dataclass
class DeviceProfile:
    device_id: str
    shift_magnitude: float
    band_gain_curve: np.ndarray  # 64 log-domain additive offsets
    noise_std: float

    def __post_init__(self):
        self.band_gain_curve = np.asarray(self.band_gain_curve, dtype=np.float64)
        if self.band_gain_curve.shape != (BANDS,):
            raise ContractError("band gain curve must have 64 entries")
        if self.shift_magnitude < 0 or self.noise_std < 0:
            raise ContractError("shift magnitude and noise std must be non-negative")
        if self.shift_magnitude == 0 and (np.any(self.band_gain_curve != 0) or self.noise_std != 0):
            raise ContractError("zero-magnitude device must have zero gain curve and noise")

    @classmethod
    def from_magnitude(cls, device_id: str, magnitude: float) -> "DeviceProfile":
        """Smooth device response drawn from a device-keyed generator, scaled by magnitude."""
        if magnitude == 0:
            return cls(device_id, 0.0, np.zeros(BANDS), 0.0)
        rng = np.random.default_rng([_DEVICE_KEY, _stable_key(device_id)])
        bands = np.arange(BANDS) / BANDS
        curve = np.zeros(BANDS)
        for k in range(1, 4):
            curve += rng.normal() * np.sin(2 * np.pi * k * bands + rng.uniform(0, 2 * np.pi)) / k
        curve += rng.normal() * bands  # tilt
        curve *= magnitude / max(np.abs(curve).max(), 1e-9)
        return cls(device_id, magnitude, curve, noise_std=0.25 * magnitude)


@dataclass
class SynthConfig(Checked):
    n_classes: int = rule(int, ge=2)
    devices: list  # [device_id, magnitude] pairs; the first is the source
    samples_per_device_per_class: int = rule(int, ge=1)
    parallel_fraction: float = rule(float, 0.5, ge=0, le=1)
    test_fraction: float = rule(float, 0.25, ge=0, lt=1)
    seed: int = rule(int, 0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.devices, (list, tuple)) or len(self.devices) < 2:
            raise ContractError("need a source and at least one target device")
        n = self.samples_per_device_per_class
        if math.ceil(self.test_fraction * n) >= n:  # make_dataset's split
            raise ContractError(
                f"test fraction {self.test_fraction} of {n} samples per device and class leaves no train sample"
            )
        for pair in self.devices:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                    and fits(pair[1], float)):
                raise ContractError(f"each synth device must be an [id, magnitude] pair, got {pair!r}")
            check_file_name("synth device id", pair[0])  # it starts each row id, which names a feature file
            check(f"device {pair[0]} magnitude", pair[1], float, ge=0)
        ids = [device_id for device_id, _ in self.devices]
        if len(set(ids)) != len(ids):
            raise ContractError(f"device ids must be unique (they key row ids and feature files), got {ids}")


def _stable_key(text: str) -> int:
    key = 0
    for ch in text.encode("utf-8"):
        key = (key * 131 + ch) % (2**31 - 1)
    return key


@functools.cache
def class_pattern(class_id: int, n_classes: int) -> np.ndarray:
    """Deterministic smooth 64x64 basis pattern for one class, built once and shared, so read-only."""
    if class_id >= n_classes:
        raise ContractError(f"class id {class_id} out of range (K={n_classes})")
    rng = np.random.default_rng([_CLASS_KEY, class_id])
    t = np.arange(FRAMES) / FRAMES
    m = np.arange(BANDS) / BANDS
    pattern = np.zeros((FRAMES, BANDS))
    for _ in range(4):
        ft, fm = rng.integers(1, 5, size=2)
        amp = rng.uniform(0.5, 1.0)
        pattern += amp * np.outer(
            np.sin(2 * np.pi * ft * t + rng.uniform(0, 2 * np.pi)),
            np.sin(2 * np.pi * fm * m + rng.uniform(0, 2 * np.pi)),
        )
    # Stationary per-class band profile. Without it the oscillatory modes
    # time-average to ~0 and device offsets dominate the averaged vectors,
    # which collapses the embedding into artificial per-device clusters.
    profile = np.zeros(BANDS)
    for k in range(1, 4):
        profile += rng.normal() * np.sin(2 * np.pi * k * m + rng.uniform(0, 2 * np.pi)) / k
    pattern += 1.5 * profile[None, :]
    pattern.flags.writeable = False
    return pattern


def make_clean(class_id: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Class pattern plus i.i.d. N(0, 0.1) noise; 64x64."""
    return class_pattern(class_id, n_classes) + rng.normal(scale=CLEAN_NOISE_STD, size=(FRAMES, BANDS))


def apply_device(clean: np.ndarray, profile: DeviceProfile, rng: np.random.Generator) -> np.ndarray:
    """Additive per-band gain plus device noise in the log domain."""
    clean = np.asarray(clean, dtype=np.float64)
    if clean.shape != (FRAMES, BANDS):
        raise ContractError(f"expected {FRAMES}x{BANDS} feature tensor, got {clean.shape}")
    out = clean + profile.band_gain_curve[None, :]
    if profile.noise_std > 0:
        out = out + rng.normal(scale=profile.noise_std, size=clean.shape)
    return out


def make_dataset(config: SynthConfig, out_dir) -> list[ManifestRow]:
    """Generate features + manifest, fully determined by the config seed.

    Source rows carry scene labels. Target train rows are unlabeled; target
    test rows keep labels as evaluation-only ground truth. The first
    `parallel_fraction` of each target device's per-class train samples share
    a clean tensor (and a parallel group) with the matching source sample.
    Split is stratified per (device, class).
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    profiles = [DeviceProfile.from_magnitude(*pair) for pair in config.devices]
    n_samples = config.samples_per_device_per_class
    n_test = int(math.ceil(config.test_fraction * n_samples))
    n_train = n_samples - n_test
    n_parallel = int(round(config.parallel_fraction * n_train))

    rows = []
    for device_pos, profile in enumerate(profiles):
        for class_id in range(config.n_classes):
            for sample_idx in range(n_samples):
                split = "train" if sample_idx < n_train else "test"
                parallel = split == "train" and sample_idx < n_parallel
                # Parallel rows reuse the source sample's clean tensor: key the
                # clean stream by the *source* coordinates in that case.
                clean_rng = np.random.default_rng([config.seed, 0 if parallel else device_pos, class_id, sample_idx])
                device_rng = np.random.default_rng([config.seed, 1000 + device_pos, class_id, sample_idx])
                clean = make_clean(class_id, config.n_classes, clean_rng)
                feat = apply_device(clean, profile, device_rng)

                row_id = f"{profile.device_id}_c{class_id}_s{sample_idx}"
                feature_path = feat_dir / f"{row_id}.mtt"
                checkpoint.save_features(feature_path, feat)

                labeled = device_pos == 0 or split == "test"
                rows.append(
                    ManifestRow(
                        id=row_id,
                        path="",
                        scene=f"scene{class_id}" if labeled else "",
                        device=profile.device_id,
                        parallel_group=f"pg_c{class_id}_s{sample_idx}" if parallel else "",
                        split=split,
                        feature_path=str(feature_path),
                    )
                )
    write_manifest(rows, out_dir / "manifest.csv")
    return rows
