"""The ``mtda`` command.

Subcommands cover the full pipeline: ``synth``, ``ingest``, ``index``,
``train``, ``eval``, ``sweep``, ``export-embeddings``. Configs are JSON
files with flat ``--override key=value`` flags; every run writes a
``run.json`` into the output directory that is sufficient to re-execute it.
Machine outputs go to files only; diagnostics go to stderr. Exit codes:
0 success, 1 contract violation, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from mtda.errors import ContractError, NumericError, ShapeError


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.handler(args)
        return 0
    except (ContractError, ShapeError, NumericError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtda", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        return p

    p = add("synth", cmd_synth, help="generate a synthetic multi-device dataset")
    p.add_argument("--config", required=True, help="SynthConfig JSON")

    p = add("ingest", cmd_ingest, help="extract log-mel features for a WAV manifest")
    p.add_argument("--manifest", required=True)

    p = add("index", cmd_index, help="compute domain distances and indices")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tsne-iters", type=int, default=500)

    p = add("train", cmd_train, help="adversarial training run")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--manifest", required=True)
    p.add_argument("--index", required=True, help="domain index table JSON")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")

    p = add("eval", cmd_eval, help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON (for device groups)")

    p = add("sweep", cmd_sweep, help="train+evaluate across the lambda grid")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")

    p = add("export-embeddings", cmd_export, help="t-SNE CSV of learned features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--n-per-device", type=int, default=50)
    p.add_argument("--tsne-iters", type=int, default=500)
    return parser


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ContractError(f"override must be KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key] = value
    return overrides


def _write_run_echo(out_dir, command, payload):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(
        json.dumps({"command": command, **payload}, indent=2, sort_keys=True) + "\n"
    )


def cmd_synth(args):
    from mtda.synth import SynthConfig, make_dataset

    cfg = SynthConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    make_dataset(cfg, args.out)
    _write_run_echo(
        args.out,
        "synth",
        {
            "config": {
                "n_classes": cfg.n_classes,
                "devices": [[d.device_id, d.shift_magnitude] for d in cfg.devices],
                "samples_per_device_per_class": cfg.samples_per_device_per_class,
                "parallel_fraction": cfg.parallel_fraction,
                "test_fraction": cfg.test_fraction,
                "seed": cfg.seed,
            }
        },
    )
    print(f"wrote dataset to {args.out}", file=sys.stderr)


def cmd_ingest(args):
    from mtda.audio import ingest
    from mtda.manifest import read_manifest

    rows = read_manifest(args.manifest)
    result = ingest(rows, Path(args.out) / "features", manifest_out=Path(args.out) / "manifest.csv")
    _write_run_echo(args.out, "ingest", {"manifest": str(args.manifest), "errors": result.errors})
    for row_id, message in result.errors:
        print(f"row {row_id}: {message}", file=sys.stderr)
    if not result.ok:
        raise ContractError(f"{len(result.errors)} rows failed feature extraction")
    print(f"ingested {len(result.rows)} rows", file=sys.stderr)


def cmd_index(args):
    from mtda.geometry import save_index_table
    from mtda.manifest import read_manifest
    from mtda.training import compute_index_table

    seed = args.seed if args.seed is not None else 0
    rows = read_manifest(args.manifest)
    table = compute_index_table(rows, seed=seed, tsne_iters=args.tsne_iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_index_table(table, out / "index.json")
    _write_run_echo(args.out, "index", {"manifest": str(args.manifest), "seed": seed, "tsne_iters": args.tsne_iters})
    print(f"wrote {out / 'index.json'}", file=sys.stderr)


def _load_train_config(args):
    from mtda.training import TrainConfig

    overrides = _parse_overrides(args.override)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return TrainConfig.from_json(args.config, overrides)


def _train_echo(args, cfg, table):
    """The run.json fields of train and sweep: the resolved config and its inputs."""
    from mtda.geometry import index_table_payload

    return {
        "config": asdict(cfg),
        "manifest": str(args.manifest),
        "index": str(args.index),
        "index_table": index_table_payload(table),
    }


def cmd_train(args):
    from mtda.geometry import load_index_table
    from mtda.manifest import read_manifest
    from mtda.training import evaluate, train

    cfg = _load_train_config(args)
    rows = read_manifest(args.manifest)
    table = load_index_table(args.index)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(cfg, rows, table, log_path=out / "train_log.csv")
    result.model.save(out / "checkpoint.mtda")
    report = evaluate(result.model, rows, device_groups=cfg.device_groups)
    report.loss_curve = result.report.loss_curve
    report.wall_time_s = result.report.wall_time_s
    report.to_json(out / "report.json")
    _write_accuracy_csv(report, out / "accuracy.csv")
    _write_run_echo(args.out, "train", _train_echo(args, cfg, table))
    print(f"best holdout accuracy {result.best_holdout_accuracy:.3f}", file=sys.stderr)


def cmd_eval(args):
    from mtda.manifest import read_manifest
    from mtda.models import AdversarialModel
    from mtda.training import TrainConfig, evaluate

    model = AdversarialModel.load(args.checkpoint)
    rows = read_manifest(args.manifest)
    groups = TrainConfig.from_json(args.config).device_groups if args.config else {}
    report = evaluate(model, rows, device_groups=groups)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "report.json")
    _write_accuracy_csv(report, out / "accuracy.csv")
    _write_run_echo(args.out, "eval", {"checkpoint": str(args.checkpoint), "manifest": str(args.manifest)})


def cmd_sweep(args):
    from mtda.geometry import load_index_table
    from mtda.manifest import read_manifest
    from mtda.training import sweep

    cfg = _load_train_config(args)
    rows = read_manifest(args.manifest)
    table = load_index_table(args.index)
    results, best = sweep(cfg, rows, table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_d", "score", "error"])
        for r in results:
            writer.writerow([r["lambda_d"], "" if r["score"] is None else f"{r['score']:.6f}", r["error"] or ""])
    summary = {
        "best_lambda_d": best["lambda_d"] if best else None,
        "results": [{"lambda_d": r["lambda_d"], "score": r["score"], "error": r["error"]} for r in results],
    }
    (out / "sweep.json").write_text(json.dumps(summary, indent=2) + "\n")
    for r in results:
        if r["report"] is not None:
            r["report"].to_json(out / f"report_lambda_{r['lambda_d']:g}.json")
    _write_run_echo(args.out, "sweep", _train_echo(args, cfg, table))
    if best:
        print(f"best lambda_d = {best['lambda_d']:g} (score {best['score']:.3f})", file=sys.stderr)


def cmd_export(args):
    from mtda.manifest import read_manifest
    from mtda.models import AdversarialModel
    from mtda.training import export_embeddings

    model = AdversarialModel.load(args.checkpoint)
    rows = read_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    export_embeddings(
        model,
        rows,
        n_per_device=args.n_per_device,
        out_csv=out / "embeddings.csv",
        seed=seed,
        tsne_iters=args.tsne_iters,
    )
    _write_run_echo(
        args.out,
        "export-embeddings",
        {"checkpoint": str(args.checkpoint), "n_per_device": args.n_per_device, "seed": seed},
    )


def _write_accuracy_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kind", "accuracy", "count"])
        for device, stats in sorted(report.per_device.items()):
            writer.writerow([device, "device", f"{stats['accuracy']:.6f}", stats["count"]])
        for group, acc in sorted(report.groups.items()):
            writer.writerow([group, "group", f"{acc:.6f}", ""])


if __name__ == "__main__":
    sys.exit(main())
