"""The benchmark's workloads: inputs made from the seed, one operation, its check.

Every workload makes all of its inputs from the seed it is given; the program
under test only receives them. `run_op` times the calls into mtda, then
checks their results; a non-empty problem list marks the operation failed.
"""

from __future__ import annotations

import contextlib
import shutil
import time
import wave
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from mtda import audio, checkpoint, synth, training
from mtda.geometry import DomainEntry
from mtda.manifest import ManifestRow

MODES = ("dann", "mtda-c2", "mtda-r")
# The criterion-7 desk dataset: source A, targets B/C/D by growing shift.
DESK_DEVICES = [("A", 0.0), ("B", 0.2), ("C", 0.6), ("D", 1.2)]
DESK_TABLE = {d: DomainEntry(mag, i) for i, (d, mag) in enumerate(DESK_DEVICES)}
# Device id, native sample rate, channels, shift magnitude. Each device
# records at its own rate, so ingest resamples 2 of 3 clips.
AUDIO_DEVICES = [("A", 32000, 1, 0.0), ("B", 44100, 2, 0.5), ("C", 48000, 1, 1.0)]
AUDIO_TABLE = {d: DomainEntry(mag, i) for i, (d, _, _, mag) in enumerate(AUDIO_DEVICES)}


@dataclass
class OpResult:
    op_s: float  # seconds spent in calls into mtda
    values: dict  # end-to-end measurements of this operation
    problems: list = field(default_factory=list)


def _op_seed(seed, i):
    return 1000 * seed + i


def _mode(seed, i):
    return MODES[(seed + i) % len(MODES)]


def check_trained(result, report, rows):
    """Problems with one train() + evaluate() outcome on `rows`."""
    problems = []
    curve = np.asarray(result.report.loss_curve, dtype=float)
    if curve.size == 0 or not np.all(np.isfinite(curve)):
        problems.append("loss curve is empty or not finite")
    expected = Counter(r.device for r in rows if r.split == "test" and r.feature_path)
    counts = {d: v["count"] for d, v in report.per_device.items()}
    if counts != dict(expected):
        problems.append(f"per-device test counts {counts} != manifest {dict(expected)}")
    if not all(0.0 <= v["accuracy"] <= 1.0 for v in report.per_device.values()):
        problems.append("accuracy outside [0, 1]")
    return problems


def train_and_evaluate(rows, table, hardest, mode, seed, epochs):
    """Time one train() and evaluate(); returns (seconds, values, problems)."""
    cfg = training.TrainConfig(mode=mode, lambda_d=1.0, epochs=epochs, seed=seed, normalize_index=True)
    start = time.perf_counter()
    result = training.train(cfg, rows, table)
    trained = time.perf_counter()
    report = training.evaluate(result.model, rows)
    done = time.perf_counter()
    steps = len(result.report.loss_curve)
    clips = sum(v["count"] for v in report.per_device.values())
    values = {
        "train_s": trained - start,
        "train_steps_per_s": steps / (trained - start),
        "eval_clips_per_s": clips / (done - trained),
        "acc_hardest": report.per_device[hardest]["accuracy"],
    }
    return done - start, values, check_trained(result, report, rows)


class _Desk:
    """Shared set-up of the desk workloads: the criterion-7 dataset."""

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.rows = None

    def generate(self, dest):
        cfg = synth.SynthConfig(
            n_classes=3 if self.tiny else 10,
            devices=DESK_DEVICES,
            samples_per_device_per_class=8 if self.tiny else 32,
            parallel_fraction=0.5,
            seed=1234 + self.seed,  # seed 0 is the acceptance suite's dataset
        )
        self.rows = synth.make_dataset(cfg, dest)


class DeskTrain(_Desk):
    """20-epoch train() (240 steps at batch 32, 1x64x64) then evaluate()."""

    def warm_up(self, work):
        train_and_evaluate(self.rows, DESK_TABLE, "D", MODES[0], 0, epochs=1)

    def run_op(self, i, work, untraced=contextlib.nullcontext):
        seconds, values, problems = train_and_evaluate(
            self.rows, DESK_TABLE, "D", _mode(self.seed, i), _op_seed(self.seed, i),
            epochs=2 if self.tiny else 20,
        )
        return OpResult(seconds, values, problems)


class DeskIndex(_Desk):
    """compute_index_table(): 800 points, 500 t-SNE iterations."""

    @property
    def iters(self):
        return 50 if self.tiny else 500

    def warm_up(self, work):
        training.compute_index_table(self.rows, seed=0, tsne_iters=10, max_rows_per_device=200)

    def run_op(self, i, work, untraced=contextlib.nullcontext):
        start = time.perf_counter()
        table = training.compute_index_table(
            self.rows, seed=_op_seed(self.seed, i), tsne_iters=self.iters, max_rows_per_device=200
        )
        seconds = time.perf_counter() - start
        order = sorted(table, key=lambda d: table[d].index)
        values = {
            "index_s": seconds,
            # Not a failure when 0: the ranking itself is what is measured.
            "index_order_recovered": float(order == [d for d, _ in DESK_DEVICES]),
        }
        return OpResult(seconds, values, check_index(table, source="A"))


def check_index(table, source):
    problems = []
    if table.get(source) is None or table[source].index != 0:
        problems.append("source device does not have index 0")
    targets = sorted(e.index for d, e in table.items() if d != source)
    if targets != list(range(1, len(table))):
        problems.append(f"target indices {targets} are not a permutation of 1..{len(table) - 1}")
    distances = [table[d].distance for d in sorted(table, key=lambda d: table[d].index)]
    if not np.all(np.isfinite(distances)) or np.any(np.diff(distances) < 0):
        problems.append(f"distances {distances} not finite and non-decreasing with the index")
    return problems


def write_wavs(dest, seed, n_classes, n_clips, clip_seconds):
    """Seeded 16-bit WAVs: class tones plus noise, through a per-device low-pass.

    Returns manifest rows; the last quarter of each (device, class) is test.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xA0D1])
    n_test = max(1, n_clips // 4)
    rows = []
    for device, rate, channels, magnitude in AUDIO_DEVICES:
        t = np.arange(int(rate * clip_seconds)) / rate
        pole = 0.9 * magnitude  # larger shift, lower cut-off
        for c in range(n_classes):
            tones = sum(0.2 * np.sin(2 * np.pi * f * t) for f in (220.0 * (c + 1), 1300.0 + 700.0 * c, 5000.0 + 1500.0 * c))
            for j in range(n_clips):
                x = rng.uniform(0.5, 1.0) * tones + 0.05 * rng.standard_normal(len(t))
                if pole:
                    x = lfilter([1.0 - pole], [1.0, -pole], x) + 0.05 * magnitude * rng.standard_normal(len(t))
                pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
                path = dest / f"{device}_c{c}_s{j}.wav"
                with wave.open(str(path), "wb") as wf:
                    wf.setnchannels(channels)
                    wf.setsampwidth(2)
                    wf.setframerate(rate)
                    wf.writeframes(np.repeat(pcm, channels).tobytes())
                split = "test" if j >= n_clips - n_test else "train"
                labeled = device == AUDIO_DEVICES[0][0] or split == "test"
                rows.append(ManifestRow(
                    id=f"{device}_c{c}_s{j}", path=str(path), scene=f"scene{c}" if labeled else "",
                    device=device, split=split,
                ))
    return rows


def _listing(directory):
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}


class AudioIngestTrain:
    """ingest() into a fresh directory, ingest() again, then a short train()
    at 1x638x64 and evaluate(). 3 devices x 3 classes x 8 clips of 10 s."""

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.rows = None

    def generate(self, dest):
        self.rows = write_wavs(
            dest, self.seed, n_classes=2 if self.tiny else 3, n_clips=4 if self.tiny else 8,
            clip_seconds=1.0 if self.tiny else 10.0,
        )

    def warm_up(self, work):
        # One clip per (device, label, split): every resample path and both
        # splits, at a fifth of an operation's ingest.
        firsts = {}
        for row in self.rows:
            firsts.setdefault((row.device, row.scene, row.split), row)
        ingested = audio.ingest(list(firsts.values()), work / "warm-up").rows
        train_and_evaluate(ingested, AUDIO_TABLE, "C", MODES[0], 0, epochs=1)
        shutil.rmtree(work / "warm-up")

    def run_op(self, i, work, untraced=contextlib.nullcontext):
        out = work / f"features-{i}"
        start = time.perf_counter()
        first = audio.ingest(self.rows, out)
        ingested = time.perf_counter()
        before = _listing(out)
        again = audio.ingest(self.rows, out)
        reingested = time.perf_counter()
        problems = [f"ingest error {e}" for e in first.errors + again.errors]
        if _listing(out) != before:
            problems.append("re-ingest wrote files")
        if [r.feature_path for r in again.rows] != [r.feature_path for r in first.rows]:
            problems.append("re-ingest returned other feature paths")
        with untraced():
            for row in first.rows:
                feats = checkpoint.load_tensors(row.feature_path)["features"]
                if feats.shape != (638, 64) or not np.all(np.isfinite(feats)):
                    problems.append(f"{row.id}: feature {feats.shape} not finite 638x64")
        train_eval_s, values, train_problems = train_and_evaluate(
            first.rows, AUDIO_TABLE, "C", _mode(self.seed, i), _op_seed(self.seed, i), epochs=1 if self.tiny else 4
        )
        shutil.rmtree(out)
        clips = len(self.rows)
        values["ingest_clips_per_s"] = clips / (ingested - start)
        values["reingest_clips_per_s"] = clips / (reingested - ingested)
        return OpResult(reingested - start + train_eval_s, values, problems + train_problems)


WORKLOADS = {"desk-train": DeskTrain, "desk-index": DeskIndex, "audio-ingest-train": AudioIngestTrain}
