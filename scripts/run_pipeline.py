#!/usr/bin/env python3
"""End-to-end demo: synthesize a dataset, compute domain indices, train one
model per mode, evaluate, re-evaluate one saved checkpoint, run a two-value
lambda sweep, and export the checkpoint's t-SNE embedding.
Everything goes through the `mtda` CLI so this doubles as a smoke test of
the command surface.

Usage: python scripts/run_pipeline.py [workdir]
"""

import json
import subprocess
import sys
from pathlib import Path

WORK = Path(sys.argv[1] if len(sys.argv) > 1 else "runs/pipeline")


def cli(*args):
    cmd = [sys.executable, "-m", "mtda.cli", *args]
    print("+", " ".join(cmd[2:]), flush=True)
    subprocess.run(cmd, check=True)


def main():
    WORK.mkdir(parents=True, exist_ok=True)
    synth_cfg = WORK / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "n_classes": 10,
                "devices": [["A", 0.0], ["B", 0.2], ["C", 0.6], ["D", 1.2]],
                "samples_per_device_per_class": 32,
                "parallel_fraction": 0.5,
                "seed": 1234,
            },
            indent=2,
        )
    )
    data = WORK / "data"
    cli("synth", "--config", str(synth_cfg), "--out", str(data))
    cli("index", "--manifest", str(data / "manifest.csv"), "--out", str(WORK / "index"), "--seed", "0")

    train_cfg = WORK / "train.json"
    train_cfg.write_text(
        json.dumps(
            {
                "lambda_d": 1.0,
                "epochs": 20,
                "seed": 0,
                "normalize_index": True,
                "device_groups": {"targets": ["B", "C", "D"]},
            },
            indent=2,
        )
    )
    for mode in ("dann", "mtda-c1", "mtda-c2", "mtda-r"):
        cli(
            "train",
            "--config", str(train_cfg),
            "--manifest", str(data / "manifest.csv"),
            "--index", str(WORK / "index" / "index.json"),
            "--out", str(WORK / mode),
            "--override", f"mode={mode}",
        )
        report = json.loads((WORK / mode / "report.json").read_text())
        accs = {d: round(v["accuracy"], 3) for d, v in report["per_device"].items()}
        print(f"{mode}: {accs}")

    # eval of a trained checkpoint must reproduce the accuracy.csv train wrote
    cli(
        "eval",
        "--checkpoint", str(WORK / "mtda-c2" / "checkpoint.mtda"),
        "--manifest", str(data / "manifest.csv"),
        "--config", str(train_cfg),
        "--out", str(WORK / "eval"),
    )
    cli(
        "sweep",
        "--config", str(train_cfg),
        "--manifest", str(data / "manifest.csv"),
        "--index", str(WORK / "index" / "index.json"),
        "--out", str(WORK / "sweep"),
        "--override", "lambda_grid=0.2,2",
    )
    cli(
        "export-embeddings",
        "--checkpoint", str(WORK / "mtda-c2" / "checkpoint.mtda"),
        "--manifest", str(data / "manifest.csv"),
        "--n-per-device", "40",
        "--out", str(WORK / "embeddings"),
    )
    print(f"done; artifacts under {WORK}")


if __name__ == "__main__":
    main()
