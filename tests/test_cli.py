"""End-to-end tests for the ``mtda`` command line."""

import codecs
import csv
import json
import os
import struct
import subprocess
import sys
import warnings
import wave
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mtda
from mtda.checkpoint import MAGIC, load_tensors, save_features, save_tensors
from mtda.cli import build_parser, main
from mtda.geometry import DomainEntry, index_table_payload, save_index_table
from mtda.manifest import HEADER, ManifestRow, write_manifest
from mtda.synth import SynthConfig
from mtda.training import TrainConfig, train

FAST_TRAIN = {
    "mode": "mtda-c2",
    "epochs": 1,
    "batch_size": 8,
    "conv_channels": [2, 4],
    "seed": 3,
    "device_groups": {"targets": ["B", "C"]},
}


@pytest.fixture()
def synth_config(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(
        json.dumps(
            {
                "n_classes": 2,
                "devices": [["A", 0.0], ["B", 0.5]],
                "samples_per_device_per_class": 4,
                "seed": 11,
            }
        )
    )
    return path


INDEX_TABLE = {"A": DomainEntry(0.0, 0), "B": DomainEntry(0.5, 1), "C": DomainEntry(1.5, 2)}


@pytest.fixture()
def train_inputs(small_dataset, tmp_path):
    _, rows = small_dataset
    manifest = tmp_path / "manifest.csv"
    write_manifest(rows, manifest)
    index = tmp_path / "index.json"
    save_index_table(INDEX_TABLE, index)
    config = tmp_path / "train.json"
    config.write_text(json.dumps(FAST_TRAIN))
    return manifest, index, config


class TestDispatch:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_import_leaves_scipy_unloaded(self):
        # scipy takes ~0.4 s to import; only ingest (scipy.signal) and t-SNE (scipy.spatial) load it, lazily
        src = str(Path(mtda.__file__).resolve().parents[1])
        code = "import sys, mtda.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_missing_required_argument_exits_one(self, capsys):
        assert main(["synth", "--out", "x"]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_contract_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_classes": 1, "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 2}))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, expect",
        [
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 2, "colour": 1},
                "unknown keys ['colour']",
            ),
            ({"n_classes": 2, "samples_per_device_per_class": 2}, "missing keys ['devices']"),
            (5, "must be a JSON object, got int"),
            (
                {"n_classes": 2, "devices": ["A", "B"], "samples_per_device_per_class": 2},
                "each synth device must be an [id, magnitude] pair, got 'A'",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", "x"]], "samples_per_device_per_class": 2},
                "each synth device must be an [id, magnitude] pair, got ['B', 'x']",
            ),
            (
                {"n_classes": "2", "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 2},
                "n_classes must be an integer, got '2'",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 4,
                 "test_fraction": 1.5},
                "test_fraction must be < 1, got 1.5",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["A", 1.0]], "samples_per_device_per_class": 2},
                "device ids must be unique (they key row ids and feature files), got ['A', 'A']",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 0},
                "samples_per_device_per_class must be >= 1",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", 1.0]], "samples_per_device_per_class": 1},
                "test fraction 0.25 of 1 samples per device and class leaves no train sample",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["B", -1.0]], "samples_per_device_per_class": 2},
                "device B magnitude must be >= 0, got -1.0",
            ),
            # a device id starts each row id, which names a feature file
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["../escaped", 1.0]], "samples_per_device_per_class": 2},
                "synth device id must be a plain file name (not empty, '.' or '..'; no '/', '\\' or NUL),"
                " got '../escaped'",
            ),
            (
                {"n_classes": 2, "devices": [["A", 0.0], ["sub/x", 1.0]], "samples_per_device_per_class": 2},
                "synth device id must be a plain file name (not empty, '.' or '..'; no '/', '\\' or NUL),"
                " got 'sub/x'",
            ),
        ],
        ids=[
            "unknown-key", "missing-devices", "not-an-object", "device-not-pair", "magnitude-str", "classes-str",
            "test-fraction", "duplicate-device", "no-samples", "no-train-sample", "negative-magnitude",
            "device-id-escapes", "device-id-has-slash",
        ],
    )
    def test_malformed_synth_config_exits_one(self, payload, expect, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert expect in err and "Traceback" not in err
        assert list((tmp_path / "o").iterdir()) == []  # rejected before make_dataset writes a file


class TestFlagDefaults:
    """A flag left off the command line takes its default from the flag table."""

    @pytest.mark.parametrize(
        "argv, expect",
        [
            (["index", "--manifest", "m.csv"], {"tsne_iters": 500, "seed": 0}),
            (["export-embeddings", "--checkpoint", "c.mtda", "--manifest", "m.csv"],
             {"n_per_device": 50, "tsne_iters": 500, "seed": 0}),
            (["train", "--config", "t.json", "--manifest", "m.csv", "--index", "i.json"], {"seed": None}),
        ],
    )
    def test_default(self, argv, expect):
        args = build_parser().parse_args([*argv, "--out", "out"])
        assert {k: getattr(args, k) for k in expect} == expect


class TestSynth:
    def test_writes_dataset_and_run_echo(self, synth_config, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--config", str(synth_config), "--out", str(out)]) == 0
        assert (out / "manifest.csv").exists()
        echo = json.loads((out / "run.json").read_text())
        assert echo["command"] == "synth"
        assert echo["config"]["seed"] == 11
        assert capsys.readouterr().out == ""  # machine outputs go to files

    def test_rerun_is_byte_identical(self, synth_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", str(synth_config), "--out", str(a)])
        main(["synth", "--config", str(synth_config), "--out", str(b)])
        feats = sorted(p.name for p in (a / "features").iterdir())
        assert feats == sorted(p.name for p in (b / "features").iterdir())
        for name in feats:
            assert (a / "features" / name).read_bytes() == (b / "features" / name).read_bytes()

    def test_seed_flag_overrides_config(self, synth_config, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", str(synth_config), "--out", str(out), "--seed", "99"]) == 0
        assert json.loads((out / "run.json").read_text())["config"]["seed"] == 99

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("synth", ["--config", "synth.json"]),
            ("index", ["--manifest", "manifest.csv"]),
            ("train", ["--config", "train.json", "--manifest", "manifest.csv", "--index", "index.json"]),
            ("sweep", ["--config", "train.json", "--manifest", "manifest.csv", "--index", "index.json"]),
            ("export-embeddings", ["--checkpoint", "checkpoint.mtda", "--manifest", "manifest.csv"]),
        ],
        ids=["synth", "index", "train", "sweep", "export-embeddings"],
    )
    def test_negative_seed_exits_one(self, command, flags, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, *flags, "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer, got '-1'" in err and "Traceback" not in err
        assert not out.exists()

    def test_recorded_config_parses_back(self, synth_config, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", str(synth_config), "--out", str(out), "--seed", "5"]) == 0
        recorded = SynthConfig.from_dict(json.loads((out / "run.json").read_text())["config"])
        used = SynthConfig.from_dict(json.loads(synth_config.read_text()), {"seed": "5"})
        assert recorded == used


class TestTrainEval:
    def test_train_produces_artifacts(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--config", str(config),
                "--manifest", str(manifest),
                "--index", str(index),
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("checkpoint.mtda", "report.json", "train_log.csv", "accuracy.csv", "run.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["per_device"]) == {"A", "B", "C"}
        assert "targets" in report["groups"]

    def test_override_is_applied_and_echoed(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--config", str(config),
                "--manifest", str(manifest),
                "--index", str(index),
                "--out", str(out),
                "--override", "lambda_d=2.5",
                "--seed", "7",
            ]
        )
        assert code == 0
        echo = json.loads((out / "run.json").read_text())
        assert echo["config"]["lambda_d"] == 2.5
        assert echo["config"]["seed"] == 7

    def test_recorded_config_parses_back(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        config.write_text(json.dumps({**FAST_TRAIN, "lambda_d": 1, "lambda_grid": [0.5, 2]}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(out), "--override", "t=2.5", "--seed", "7"]) == 0
        recorded = json.loads((out / "run.json").read_text())["config"]
        assert recorded["lambda_d"] == 1 and type(recorded["lambda_d"]) is int  # an int stays an int
        used = TrainConfig.from_dict(json.loads(config.read_text()), {"t": "2.5", "seed": "7"})
        assert TrainConfig.from_dict(recorded) == used

    def test_unknown_override_exits_one(self, train_inputs, tmp_path, capsys):
        manifest, index, config = train_inputs
        code = main(
            [
                "train",
                "--config", str(config),
                "--manifest", str(manifest),
                "--index", str(index),
                "--out", str(tmp_path / "run"),
                "--override", "lambda=1",
            ]
        )
        assert code == 1
        assert "unknown override" in capsys.readouterr().err

    def test_malformed_override_exits_one(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        code = main(
            [
                "train",
                "--config", str(config),
                "--manifest", str(manifest),
                "--index", str(index),
                "--out", str(tmp_path / "run"),
                "--override", "epochs",
            ]
        )
        assert code == 1

    def test_eval_roundtrip_and_export(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        run = tmp_path / "run"
        main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index), "--out", str(run)])

        ev = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--checkpoint", str(run / "checkpoint.mtda"),
                "--manifest", str(manifest),
                "--config", str(config),
                "--out", str(ev),
            ]
        )
        assert code == 0
        assert json.loads((ev / "report.json").read_text())["per_device"].keys() == {"A", "B", "C"}

        ex = tmp_path / "emb"
        code = main(
            [
                "export-embeddings",
                "--checkpoint", str(run / "checkpoint.mtda"),
                "--manifest", str(manifest),
                "--n-per-device", "6",
                "--tsne-iters", "60",
                "--out", str(ex),
            ]
        )
        assert code == 0
        lines = (ex / "embeddings.csv").read_text().splitlines()
        assert lines[0] == "id,device,scene,y0,y1"
        assert len(lines) - 1 == 3 * 6

    def test_library_warning_prints_as_one_line(self, train_inputs, checkpoint_path, tmp_path, capsys):
        # every device has 24 rows, so asking for 30 warns once per device
        manifest, _, _ = train_inputs
        assert main(["export-embeddings", "--checkpoint", str(checkpoint_path), "--manifest", str(manifest),
                     "--n-per-device", "30", "--tsne-iters", "60", "--out", str(tmp_path / "emb")]) == 0
        err = capsys.readouterr().err
        short = [line for line in err.splitlines() if "rows available" in line]
        assert short == [f"warning: device {d}: only 24 rows available" for d in "ABC"]
        assert ".py:" not in err and "RuntimeWarning" not in err

    def test_train_log_has_one_row_per_step(self, small_dataset, train_inputs, tmp_path):
        _, rows = small_dataset
        manifest, index, config = train_inputs
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(run)]) == 0
        with open(run / "train_log.csv", newline="") as fh:
            log = list(csv.reader(fh))
        assert log[0] == ["step", "L_y", "L_d", "L_total"]
        curve = train(TrainConfig.from_dict(FAST_TRAIN), rows, INDEX_TABLE).report.loss_curve
        assert [[int(r[0]), *map(float, r[1:])] for r in log[1:]] == [list(step) for step in curve]

    def test_train_report_is_the_eval_report(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        run, ev = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mtda"), "--manifest", str(manifest),
                     "--config", str(config), "--out", str(ev)]) == 0
        report = (run / "report.json").read_bytes()
        assert report == (ev / "report.json").read_bytes()
        assert json.loads(report).keys() == {"groups", "per_device"}

    def test_index_table_recorded_in_run_json_not_reports(self, train_inputs, tmp_path):
        manifest, index, config = train_inputs
        run, ev = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(run)]) == 0
        assert json.loads((run / "run.json").read_text())["index_table"] == json.loads(index.read_text())
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mtda"), "--manifest", str(manifest),
                     "--out", str(ev)]) == 0
        for report in (run / "report.json", ev / "report.json"):
            assert "index_table" not in json.loads(report.read_text())


class TestIndexCommand:
    def test_writes_index_table(self, train_inputs, tmp_path):
        manifest, _, _ = train_inputs
        out = tmp_path / "idx"
        code = main(["index", "--manifest", str(manifest), "--out", str(out), "--seed", "1", "--tsne-iters", "200"])
        assert code == 0
        table = json.loads((out / "index.json").read_text())
        assert table["A"]["index"] == 0
        assert set(table) == {"A", "B", "C"}

    def test_zero_tsne_iters_exits_one(self, train_inputs, tmp_path, capsys):
        # zero steps would report distances read off the random initial layout
        manifest, _, _ = train_inputs
        out = tmp_path / "idx"
        assert main(["index", "--manifest", str(manifest), "--out", str(out), "--tsne-iters", "0"]) == 1
        err = capsys.readouterr().err
        assert "t-SNE needs at least 1 iteration, got 0" in err and "Traceback" not in err
        assert not (out / "index.json").exists()


class TestSweepCommand:
    def test_grid_of_two_writes_summary(self, train_inputs, tmp_path):
        manifest, index, _ = train_inputs
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**FAST_TRAIN, "lambda_grid": [0.5, 1.0]}))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(config),
                "--manifest", str(manifest),
                "--index", str(index),
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "sweep.json").read_text())
        assert [r["lambda_d"] for r in summary["results"]] == [0.5, 1.0]
        assert summary["best_lambda_d"] in (0.5, 1.0)
        assert (out / "sweep.csv").read_text().splitlines()[0] == "lambda_d,holdout_accuracy,target_test_accuracy,error"
        assert (out / "report_lambda_0.5.json").exists()

    def test_every_value_failing_exits_one(self, train_inputs, tmp_path, capsys):
        manifest, index, _ = train_inputs
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**FAST_TRAIN, "lambda_grid": [0.5, 1.0]}))
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps({**json.loads(index.read_text()), "A": {"distance": 0.0, "index": 1},
                                       "B": {"distance": 0.5, "index": 0}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--manifest", str(manifest), "--index", str(swapped),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no lambda_d value trained; at 0.5: index table must number" in err and "Traceback" not in err
        summary = json.loads((out / "sweep.json").read_text())
        assert summary["best_lambda_d"] is None and all(r["error"] for r in summary["results"])
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert not (out / "run.json").exists()


    def test_empty_grid_exits_one(self, train_inputs, tmp_path, capsys):
        manifest, index, _ = train_inputs
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**FAST_TRAIN, "lambda_grid": []}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "lambda_grid must not be empty, got []" in err and "Traceback" not in err
        assert not (out / "run.json").exists() and not (out / "sweep.json").exists()


def _test_only_device(rows, tmp_path):
    return rows + [replace(r, id=f"E-{r.id}", device="E") for r in rows if r.device == "C" and r.split == "test"]


def _no_parallel_target(rows, tmp_path):
    return [replace(r, parallel_group="") if r.device == "C" else r for r in rows]


def _single_class_source(rows, tmp_path):
    return [r for r in rows if not (r.device == "A" and r.split == "train" and r.scene != "scene0")]


def _unknown_test_scene(rows, tmp_path):
    return [replace(r, scene="sceneZ") if r.split == "test" and r.scene == "scene0" else r for r in rows]


def _odd_test_shape(rows, tmp_path):
    odd = tmp_path / "odd.mtt"
    save_features(odd, np.zeros((32, 64), dtype=np.float32))
    first_test = next(i for i, r in enumerate(rows) if r.split == "test")
    return [replace(r, feature_path=str(odd)) if i == first_test else r for i, r in enumerate(rows)]


def _checkpoint_as_features(rows, tmp_path):
    container = tmp_path / "checkpoint.mtda"
    save_tensors(container, {"f/w": np.zeros((4, 64), dtype=np.float32)})
    return [replace(r, feature_path=str(container)) for r in rows]


def _no_target_train_rows(rows, tmp_path):
    return [r for r in rows if r.device == "A" or r.split == "test"]


def _no_test_split(rows, tmp_path):
    return [r for r in rows if r.split != "test"]


def _non_finite_features(rows, tmp_path):
    """The first train row and the first test row read a feature file that holds one NaN."""
    frames = load_tensors(rows[0].feature_path)["features"]
    frames[0, 0] = np.nan
    save_features(tmp_path / "nan.mtt", frames)
    firsts = {next(i for i, r in enumerate(rows) if r.split == split) for split in ("train", "test")}
    return [replace(r, feature_path=str(tmp_path / "nan.mtt")) if i in firsts else r for i, r in enumerate(rows)]


def _shared_source_group(rows, tmp_path):
    """A second source row joins parallel group pg_c0_s0, which already has one."""
    return [replace(r, parallel_group="pg_c0_s0") if r.id == "A_c0_s1" else r for r in rows]


def _repeated_config_key(rows, tmp_path):
    """The train config names epochs twice; a plain JSON parse would keep the last silently."""
    (tmp_path / "train.json").write_text(json.dumps(FAST_TRAIN)[:-1] + ', "epochs": 2}')
    return rows


def _repeated_index_key(rows, tmp_path):
    """Device A's entry in the index table names its index twice."""
    text = json.dumps(index_table_payload(INDEX_TABLE))
    (tmp_path / "index.json").write_text(text.replace('"index": 0}', '"index": 0, "index": 1}', 1))
    return rows


def _no_feature_rows(rows, tmp_path):
    """No row has had its features extracted."""
    return [replace(r, feature_path="") for r in rows]


def _one_source_train_row(rows, tmp_path):
    """Device A keeps one labelled train row, which the source holdout takes."""
    source_train = [r for r in rows if r.device == "A" and r.split == "train"]
    return [r for r in rows if r not in source_train[1:]]


def _unlabelled_test_row(rows, tmp_path):
    """The first test row has no scene to evaluate against."""
    first_test = next(i for i, r in enumerate(rows) if r.split == "test")
    return [replace(r, scene="") if i == first_test else r for i, r in enumerate(rows)]


def _no_train_features(rows, tmp_path):
    """Only the test rows have had their features extracted."""
    return [replace(r, feature_path="") if r.split == "train" else r for r in rows]


def _index_as_list(rows, tmp_path):
    """The index table is a JSON list, not an object keyed by device."""
    (tmp_path / "index.json").write_text("[]")
    return rows


def _eight_bit_wav(rows, tmp_path):
    """One row, whose WAV holds 8-bit samples."""
    wav = tmp_path / "u8.wav"
    with wave.open(str(wav), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(bytes(160))
    return [replace(rows[0], path=str(wav), feature_path="")]


def _tiny_features(rows, tmp_path):
    tiny = tmp_path / "tiny.mtt"
    save_features(tiny, np.zeros((3, 64), dtype=np.float32))
    return [replace(r, feature_path=str(tiny)) for r in rows]


_HEAD = ",".join(HEADER).encode()


@pytest.fixture(scope="module")
def checkpoint_path(small_dataset, tmp_path_factory):
    _, rows = small_dataset
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.mtda"
    train(TrainConfig.from_dict(FAST_TRAIN), rows, INDEX_TABLE).model.save(path)
    return path


class TestMalformedManifests:
    """Bad manifests end in a clean exit code and message, never a traceback.
    A successful run must report the device that has only test rows."""

    @pytest.mark.parametrize(
        "mutate, command, code, expect",
        [
            (_test_only_device, "train", 0, "E"),
            (_test_only_device, "eval", 0, "E"),
            (_no_parallel_target, "index", 1, "device C has no parallel data"),
            (_single_class_source, "train", 1, "n_classes must be >= 2, got 1"),
            (_no_target_train_rows, "train", 1, "n_domains must be >= 2, got 1"),
            (_unknown_test_scene, "eval", 1, "not among the train classes"),
            (_odd_test_shape, "eval", 1, "inconsistent feature shapes"),
            (_odd_test_shape, "export-embeddings", 1, "inconsistent feature shapes"),
            (_no_feature_rows, "export-embeddings", 1, "manifest has no rows with extracted features"),
            (_no_test_split, "eval", 1, "no test rows"),
            (_checkpoint_as_features, "train", 1, "checkpoint.mtda: not a feature file (no 'features' tensor)"),
            (_checkpoint_as_features, "eval", 1, "checkpoint.mtda: not a feature file (no 'features' tensor)"),
            (_non_finite_features, "index", 1, "nan.mtt: non-finite feature values"),
            (_non_finite_features, "train", 1, "nan.mtt: non-finite feature values"),
            (_non_finite_features, "eval", 1, "nan.mtt: non-finite feature values"),
            (_non_finite_features, "export-embeddings", 1, "nan.mtt: non-finite feature values"),
            (_shared_source_group, "index", 1,
             "parallel group 'pg_c0_s0' has more than one source row: ['A_c0_s0', 'A_c0_s1']"),
            (_repeated_config_key, "train", 1, "train.json: repeats keys ['epochs']"),
            (_repeated_index_key, "train", 1, "index.json: repeats keys ['index']"),
            (_index_as_list, "train", 1, "index.json must be a JSON object keyed by device"),
            (_one_source_train_row, "train", 1, "no source rows left after holdout split"),
            (_unlabelled_test_row, "eval", 1, "1 test rows missing evaluation labels: ['A_c0_s6']\n"),
            (_no_train_features, "index", 1, "manifest has no train rows with extracted features"),
            (_eight_bit_wav, "ingest", 1,
             "u8.wav: only 16-bit PCM WAV is supported\nerror: 1 rows failed feature extraction"),
        ],
        ids=[
            "test-only-device-train",
            "test-only-device-eval",
            "no-parallel-target-index",
            "single-class-source-train",
            "no-target-train-rows-train",
            "unknown-test-scene-eval",
            "odd-test-shape-eval",
            "odd-test-shape-export",
            "no-feature-rows-export",
            "no-test-split-eval",
            "checkpoint-as-features-train",
            "checkpoint-as-features-eval",
            "non-finite-features-index",
            "non-finite-features-train",
            "non-finite-features-eval",
            "non-finite-features-export",
            "shared-source-group-index",
            "repeated-config-key-train",
            "repeated-index-key-train",
            "index-as-list-train",
            "one-source-train-row-train",
            "unlabelled-test-row-eval",
            "no-train-features-index",
            "eight-bit-wav-ingest",
        ],
    )
    def test_exit_code_and_message(
        self, mutate, command, code, expect, small_dataset, train_inputs, checkpoint_path, tmp_path, capsys
    ):
        _, rows = small_dataset
        _, index, config = train_inputs
        manifest = tmp_path / "bad.csv"
        write_manifest(mutate(rows, tmp_path), manifest)
        out = tmp_path / "out"
        args = {
            "ingest": [],
            "train": ["--config", str(config), "--index", str(index)],
            "eval": ["--checkpoint", str(checkpoint_path)],
            "index": ["--tsne-iters", "60"],
            # each device's whole pool of 24 rows, so the odd row is exported
            "export-embeddings": ["--checkpoint", str(checkpoint_path), "--n-per-device", "24"],
        }[command]
        assert main([command, "--manifest", str(manifest), "--out", str(out), *args]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            assert expect in json.loads((out / "report.json").read_text())["per_device"]
        else:
            assert expect in err
            assert not (out / "run.json").exists()

    @pytest.mark.parametrize("row_id", ["../escaped", "sub/x"], ids=["escapes", "has-slash"])
    def test_row_id_that_is_no_plain_name_writes_no_feature_file(self, row_id, tmp_path, capsys):
        # the id names the row's feature file, so '../escaped' would write into the parent of features/
        wav = tmp_path / "a.wav"
        with wave.open(str(wav), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(32000)
            wf.writeframes(bytes(2 * 32000))
        manifest = tmp_path / "wav.csv"
        write_manifest([ManifestRow(id=row_id, path=str(wav), scene="park", device="A")], manifest)
        out = tmp_path / "out"
        assert main(["ingest", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"row {row_id}: row id must be a plain file name" in err
        assert list(tmp_path.rglob("*.mtt")) == [] and list((out / "features").iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "out", "wav.csv"]

    @pytest.mark.parametrize("command", ["ingest", "index", "train", "eval"])
    @pytest.mark.parametrize(
        "raw, expect",
        [
            # line 2 is blank, which is skipped; line 3 cannot be read
            (_HEAD + b"\n\nr1\n", "line 3 has 1 fields, the header 7"),
            (_HEAD + b"\n\nr1,a,b.wav,scene0,A,,train,f.mtt\n", "line 3 has 8 fields, the header 7"),
            (_HEAD + b"\n\nr1,,scene0,A,,Test,f.mtt\n", "line 3 has split 'Test', not train or test"),
            (_HEAD + b"\n\nr1,,sc\xffene0,A,,train,f.mtt\n", "line 3 is not UTF-8"),
            (codecs.BOM_UTF8 + _HEAD + b"\nr1,,sc\xffene0,A,,train,f.mtt\n", "line 2 is not UTF-8"),
            (_HEAD + b",split\nr1,,scene0,A,,train,f.mtt,test\n", "header repeats columns ['split']"),
            (b"id,path,scene,device\nr1,,scene0,A\n", "missing columns ['feature_path', 'parallel_group', 'split']"),
        ],
        ids=["short-row", "unquoted-comma", "bad-split", "not-utf8", "not-utf8-after-bom", "repeated-column",
             "missing-columns"],
    )
    def test_unreadable_row(self, raw, expect, command, train_inputs, checkpoint_path, tmp_path, capsys):
        _, index, config = train_inputs
        manifest = tmp_path / "raw.csv"
        manifest.write_bytes(raw)
        out = tmp_path / "out"
        args = {
            "ingest": [],
            "index": [],
            "train": ["--config", str(config), "--index", str(index)],
            "eval": ["--checkpoint", str(checkpoint_path)],
        }[command]
        assert main([command, "--manifest", str(manifest), "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}: {expect}" in err and "Traceback" not in err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
    def test_feature_too_small_for_the_model(self, command, small_dataset, train_inputs, checkpoint_path, tmp_path, capsys):
        # Two 2x2 pools of a 3-row feature leave no cell: a shape error, not a numeric one.
        _, rows = small_dataset
        _, index, config = train_inputs
        manifest = tmp_path / "tiny.csv"
        write_manifest(_tiny_features(rows, tmp_path), manifest)
        args = {
            "train": ["--config", str(config), "--index", str(index)],
            "eval": ["--checkpoint", str(checkpoint_path)],
            "export-embeddings": ["--checkpoint", str(checkpoint_path), "--n-per-device", "24"],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"), *args]) == 1
        err = capsys.readouterr().err
        assert "feature height and width must be at least 4 (two 2x2 pools)" in err
        assert ", 1, 3, 64]" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err and "warning:" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _with_bom(path, tmp_path):
    """A copy of file `path` that starts with a UTF-8 byte-order mark."""
    copy = tmp_path / f"bom-{path.name}"
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A text input saved with a UTF-8 byte-order mark reads as the same file without one."""

    @pytest.mark.parametrize("flag", ["--manifest", "--config", "--index"])
    def test_train_input(self, flag, train_inputs, checkpoint_path, tmp_path):
        manifest, index, config = train_inputs
        inputs = {"--manifest": manifest, "--config": config, "--index": index}
        inputs[flag] = _with_bom(inputs[flag], tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), *(arg for pair in inputs.items() for arg in map(str, pair))]) == 0
        assert (out / "checkpoint.mtda").read_bytes() == checkpoint_path.read_bytes()

    def test_manifest_through_index_and_eval(self, train_inputs, checkpoint_path, tmp_path):
        manifest, _, _ = train_inputs
        for name, path in [("plain", manifest), ("bom", _with_bom(manifest, tmp_path))]:
            assert main(["index", "--manifest", str(path), "--out", str(tmp_path / name), "--tsne-iters", "60"]) == 0
            assert main(["eval", "--checkpoint", str(checkpoint_path), "--manifest", str(path),
                         "--out", str(tmp_path / name)]) == 0
        for output in ("index.json", "report.json", "accuracy.csv"):
            assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()

    def test_synth_config(self, synth_config, tmp_path):
        for name, path in [("plain", synth_config), ("bom", _with_bom(synth_config, tmp_path))]:
            assert main(["synth", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        recorded = [json.loads((tmp_path / name / "run.json").read_text())["config"] for name in ("plain", "bom")]
        assert recorded[0] == recorded[1]


def test_csv_outputs_are_utf8_in_an_ascii_locale(train_inputs, tmp_path):
    """A device group named outside ASCII is written to accuracy.csv as UTF-8 whatever the locale."""
    manifest, index, _ = train_inputs
    config = tmp_path / "groups.json"
    config.write_text(json.dumps({**FAST_TRAIN, "device_groups": {"Zielgeräte": ["B", "C"]}}, ensure_ascii=False),
                      encoding="utf-8")
    src = str(Path(mtda.__file__).resolve().parents[1])
    for name, locale in [("utf8", {"PYTHONUTF8": "1"}), ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                                                                   "PYTHONUTF8": "0"})]:
        env = {**os.environ, "PYTHONPATH": src, **locale}
        done = subprocess.run([sys.executable, "-m", "mtda.cli", "train", "--config", str(config), "--manifest",
                               str(manifest), "--index", str(index), "--out", str(tmp_path / name)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    accuracy = (tmp_path / "ascii" / "accuracy.csv").read_bytes()
    assert accuracy == (tmp_path / "utf8" / "accuracy.csv").read_bytes()
    assert "Zielgeräte,group,".encode() in accuracy
    assert accuracy.startswith(b"name,kind,accuracy,count\r\n") and accuracy.count(b"\n") == accuracy.count(b"\r\n")


def test_manifest_csv_bytes(tmp_path):
    """write_manifest writes the header and rows as UTF-8 with CRLF line ends, quoting a field that holds a comma."""
    rows = [ManifestRow("a1", path="wav/a1.wav", scene="Straße, nachts", device="A"),
            ManifestRow("b2", device="B", split="test")]
    write_manifest(rows, tmp_path / "manifest.csv")
    assert (tmp_path / "manifest.csv").read_bytes() == (
        b"id,path,scene,device,parallel_group,split,feature_path\r\n"
        b'a1,wav/a1.wav,"Stra\xc3\x9fe, nachts",A,,train,\r\n'
        b"b2,,,B,,test,\r\n"
    )


class TestRunRecord:
    """main owns run.json: every parsed flag, written only when the command succeeds."""

    @pytest.mark.parametrize("command", ["eval", "ingest"])
    def test_seed_rejected_where_unused(self, command, train_inputs, checkpoint_path, tmp_path, capsys):
        manifest, _, _ = train_inputs
        out = tmp_path / "out"
        extra = ["--checkpoint", str(checkpoint_path)] if command == "eval" else []
        assert main([command, "--manifest", str(manifest), "--out", str(out), "--seed", "5", *extra]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_records_every_flag(self, train_inputs, checkpoint_path, tmp_path):
        manifest, _, config = train_inputs
        ex, ev = tmp_path / "emb", tmp_path / "eval"
        assert main(["export-embeddings", "--checkpoint", str(checkpoint_path), "--manifest", str(manifest),
                     "--n-per-device", "6", "--tsne-iters", "60", "--out", str(ex)]) == 0
        assert json.loads((ex / "run.json").read_text()) == {
            "command": "export-embeddings", "checkpoint": str(checkpoint_path), "manifest": str(manifest),
            "n_per_device": 6, "tsne_iters": 60, "seed": 0, "out": str(ex),
        }
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--manifest", str(manifest),
                     "--config", str(config), "--out", str(ev)]) == 0
        assert json.loads((ev / "run.json").read_text())["config"] == str(config)

    def test_failed_command_writes_no_run_json(self, small_dataset, train_inputs, tmp_path, capsys):
        _, rows = small_dataset
        _, index, config = train_inputs
        manifest = tmp_path / "bad.csv"
        write_manifest(_unknown_test_scene(rows, tmp_path), manifest)
        run, ing = tmp_path / "run", tmp_path / "ingest"
        # train fails in evaluate, after the checkpoint is written
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(run)]) == 1
        assert (run / "checkpoint.mtda").exists() and not (run / "run.json").exists()
        # ingest fails on rows without a WAV path
        assert main(["ingest", "--manifest", str(manifest), "--out", str(ing)]) == 1
        assert ing.is_dir() and not (ing / "run.json").exists()
        assert f"row {rows[0].id}: no WAV path" in capsys.readouterr().err


class TestMalformedTrainInputs:
    """Mistyped config values and malformed index tables exit 1 before training."""

    @pytest.mark.parametrize(
        "payload, overrides, expect",
        [
            ({}, ["normalize_index=yes"], "override normalize_index='yes' is not bool"),
            ({}, ["device_groups=B"], "override device_groups='B' is not an object of string lists"),
            ({}, ['device_groups={"t": "B"}'], "device_groups must be an object of string lists"),
            ({}, ["conv_channels=2.5,4"], "override conv_channels='2.5,4' is not a list of int"),
            ({"lambda_d": "1.0"}, [], "lambda_d must be a finite number, got '1.0'"),
            ({"epochs": "1"}, [], "epochs must be an integer, got '1'"),
            ({"epochs": 0}, [], "epochs must be >= 1"),
            ({}, ["learning_rate=-0.01"], "learning_rate must be > 0, got -0.01"),
            ({}, ["learning_rate=0"], "learning_rate must be > 0, got 0.0"),
            ({}, ["t=nan"], "t must be a finite number, got nan"),
            ({}, ["lambda_d=nan"], "lambda_d must be a finite number, got nan"),
            ({}, ["lambda_d=inf"], "lambda_d must be a finite number, got inf"),
            ({}, ["holdout_fraction=nan"], "holdout_fraction must be a finite number, got nan"),
            ({}, ["holdout_fraction=-1"], "holdout_fraction must be >= 0, got -1.0"),
            ({}, ["conv_channels=0,8"], "conv_channels[0] must be >= 1, got 0"),
            ({}, ["conv_channels=4"], "conv_channels must hold 2 values, got (4,)"),
            ({}, ["seed=-1"], "seed must be >= 0, got -1"),
            ({}, ["mode=x"], "mode must be one of ('dann', 'mtda-c1', 'mtda-c2', 'mtda-r'), got 'x'"),
            ({"mode": "x"}, [], "mode must be one of ('dann', 'mtda-c1', 'mtda-c2', 'mtda-r'), got 'x'"),
            ({}, ['device_groups={"t": []}'], "device_groups must be an object of string lists"),
        ],
        ids=[
            "bool-yes", "groups-string", "groups-not-lists", "channels-float", "file-lambda-str", "file-epochs-str",
            "epochs-zero", "learning_rate=-0.01", "learning_rate=0", "t=nan", "lambda_d=nan", "lambda_d=inf",
            "holdout_fraction=nan", "holdout_fraction=-1", "conv_channels=0,8", "conv_channels=4", "seed=-1",
            "mode-override", "mode-file", "groups-empty",
        ],
    )
    def test_mistyped_config(self, payload, overrides, expect, train_inputs, tmp_path, capsys):
        manifest, index, _ = train_inputs
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**FAST_TRAIN, **payload}))
        out = tmp_path / "run"
        args = [arg for o in overrides for arg in ("--override", o)]
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert expect in err and "Traceback" not in err
        assert not (out / "checkpoint.mtda").exists()
        assert not (out / "run.json").exists()

    def test_unknown_group_device_exits_one(self, train_inputs, tmp_path, capsys):
        manifest, index, _ = train_inputs
        config = tmp_path / "groups.json"
        config.write_text(json.dumps({**FAST_TRAIN, "device_groups": {"targets": ["B", "Z"]}}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "device group targets names devices with no test rows: ['Z']" in err and "Traceback" not in err
        # rejected before the first step: nothing trained, nothing written
        for name in ("run.json", "checkpoint.mtda", "train_log.csv"):
            assert not (out / name).exists()

    def test_diverging_training_exits_one(self, train_inputs, tmp_path, capsys):
        manifest, index, config = train_inputs
        out = tmp_path / "run"
        # numpy's overflow warnings would reach stderr through the warnings module, which capsys does not see
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(index),
                         "--out", str(out), "--override", "learning_rate=1e30"]) == 1
        err = capsys.readouterr().err
        assert "non-finite values in tensor conv_relu_pool" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err and "warning:" not in err
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize(
        "patch, expect",
        [
            ({"B": {"distance": 0.5}}, "device B needs a numeric distance and index"),
            ({"C": {"distance": 1.5, "index": 7}}, "must number the train devices 0..2 with source A at 0"),
            ({"C": {"distance": 1.5, "index": 1}}, "must number the train devices 0..2 with source A at 0"),
            (
                {"A": {"distance": 0.0, "index": 1}, "B": {"distance": 0.5, "index": 0}},
                "must number the train devices 0..2 with source A at 0",
            ),
            ({"B": {"distance": 0.5, "index": 1.7}}, "device B index must be an integer, got 1.7"),
            ({"B": {"distance": 0.5, "index": True}}, "device B index must be an integer, got True"),
            ({"B": {"distance": float("nan"), "index": 1}}, "device B distance must be a finite number, got nan"),
        ],
        ids=["no-index", "out-of-range", "duplicate", "swapped-source", "fraction-index", "bool-index", "nan-distance"],
    )
    def test_malformed_index_table(self, patch, expect, train_inputs, tmp_path, capsys):
        manifest, index, config = train_inputs
        bad = tmp_path / "bad_index.json"
        bad.write_text(json.dumps({**json.loads(index.read_text()), **patch}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--manifest", str(manifest), "--index", str(bad),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert expect in err and "Traceback" not in err
        assert not (out / "checkpoint.mtda").exists()
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("flag", ["--config", "--index"])
    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe"], ids=["not-json", "not-utf8"])
    def test_unparsable_file_is_named(self, flag, content, train_inputs, tmp_path, capsys):
        manifest, index, config = train_inputs
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        inputs = {"--config": config, "--index": index, flag: bad}
        out = tmp_path / "run"
        assert main(["train", "--manifest", str(manifest), "--out", str(out),
                     *(arg for pair in inputs.items() for arg in map(str, pair))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not a UTF-8 JSON file: ") and "Traceback" not in err
        assert not (out / "run.json").exists()



def _with_record(tensors, record: bytes):
    return {**tensors, "meta/model": np.frombuffer(record, dtype=np.uint8)}


def _with_fields(tensors, **fields):
    """`tensors` with the given fields of its meta/model config record replaced or added."""
    return _with_record(tensors, json.dumps({**json.loads(tensors["meta/model"].tobytes()), **fields}).encode())


def _container_head(version, name: bytes):
    """A container's first bytes: the magic, `version`, a count of one tensor and its raw `name`."""
    return MAGIC + struct.pack("<HIH", version, 1, len(name)) + name


def _old_layout(tensors):
    """The float64 meta/config vector that checkpoints held before the config record: mode code 2 is mtda-c2."""
    params = {k: v for k, v in tensors.items() if k != "meta/model"}
    return {"meta/config": np.array([2, 3, 3, 1, 2, 4], dtype=np.float64), **params}


class TestMalformedCheckpoints:
    """A file that is not a checkpoint of the model its meta/model record describes exits 1, naming the file."""

    @pytest.mark.parametrize(
        "mutate, expect",
        [
            (None, "not a model checkpoint"),  # a feature file
            (_old_layout, "not a model checkpoint: no uint8 meta/model config record (retrain a checkpoint from"
                          " before the record from its run.json)"),
            (lambda t: _with_record(t, b"\xff\xfe"), "'utf-8' codec can't decode byte 0xff in position 0"),
            (lambda t: _with_record(t, b"5"), "ModelConfig must be a JSON object, got int"),
            (lambda t: _with_fields(t, colour=1), "ModelConfig: unknown keys ['colour'], missing keys []"),
            (lambda t: _with_fields(t, mode="dbnn"),
             "mode must be one of ('dann', 'mtda-c1', 'mtda-c2', 'mtda-r'), got 'dbnn'"),
            (lambda t: _with_fields(t, n_classes=1), "n_classes must be >= 2, got 1"),
            (lambda t: {**t, "f/w": np.zeros_like(t["f/w"], dtype=np.uint8)},
             "parameter f/w must be float32 or float64, got uint8"),
            (lambda t: {k: v for k, v in t.items() if k != "c/w"}, "parameters ['c/w'] are missing"),
            (lambda t: {**t, "f/w": np.full_like(t["f/w"], np.nan)}, "non-finite parameter f/w"),
            (lambda t: _container_head(2, b"f/w"), "unsupported container version 2 at byte 4"),
            (lambda t: _container_head(1, b"f/\xff"), "tensor name is not UTF-8 at byte 12"),
        ],
        ids=["feature-file", "old-float64-layout", "non-utf8-record", "record-5", "unknown-key", "mode-dbnn",
             "one-class", "uint8-weights", "no-classifier-weights", "nan-weights", "version-2", "non-utf8-name"],
    )
    def test_eval_exits_one(self, mutate, expect, small_dataset, train_inputs, checkpoint_path, tmp_path, capsys):
        _, rows = small_dataset
        manifest, _, _ = train_inputs
        bad = rows[0].feature_path
        if mutate is not None:
            bad = tmp_path / "bad.mtda"
            mutated = mutate(load_tensors(checkpoint_path))  # tensors, or the raw bytes of a broken container
            if isinstance(mutated, bytes):
                bad.write_bytes(mutated)
            else:
                save_tensors(bad, mutated)
        assert main(["eval", "--checkpoint", str(bad), "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: {expect}" in err and "Traceback" not in err
