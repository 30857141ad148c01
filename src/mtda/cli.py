"""The ``mtda`` command.

Subcommands cover the full pipeline: ``synth``, ``ingest``, ``index``,
``train``, ``eval``, ``sweep``, ``export-embeddings``. Configs are JSON
files with flat ``--override key=value`` flags. ``--seed`` is taken by
``synth``, ``train`` and ``sweep`` (where it replaces the config's seed) and
by ``index`` and ``export-embeddings`` (default 0).

``main`` creates ``--out`` before the command runs. When the command
succeeds it writes ``run.json`` there: every parsed flag, plus what the
command resolved from them (the config of ``synth``, ``train`` and
``sweep``, which takes the place of the ``--config`` path, and the index
table of ``train`` and ``sweep``), enough to re-execute the run. Machine
outputs go to files only; diagnostics go to stderr. Exit codes: 0 success,
1 contract violation, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from mtda.errors import ContractError, NumericError
from mtda.geometry import index_table_payload, load_index_table, save_index_table
from mtda.manifest import read_manifest
from mtda.models import AdversarialModel
from mtda.synth import SynthConfig, make_dataset
from mtda.training import TrainConfig, compute_index_table, evaluate, export_embeddings, sweep, train

_FLAGS = {
    "manifest": {"help": "dataset manifest CSV"},
    "config": {"help": "config JSON"},
    "index": {"help": "domain index table JSON"},
    "checkpoint": {"help": "model checkpoint"},
    "override": {"action": "append", "default": [], "metavar": "KEY=VALUE", "help": "set one config field"},
    "seed": {"type": int, "help": "random seed (replaces the config's, if any)"},
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        resolved = args.handler(args, out) or {}
        flags = {k: v for k, v in vars(args).items() if k != "handler"}
        (out / "run.json").write_text(json.dumps({**flags, **resolved}, indent=2, sort_keys=True) + "\n")
        return 0
    except (ValueError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtda", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, summary, required, optional=(), **defaults):
        """A subcommand with ``--out`` and the named ``_FLAGS``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", required=True, help="output directory")
        for flag in (*required, *optional):
            p.add_argument(f"--{flag}", required=flag in required, **_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
        return p

    add("synth", cmd_synth, "generate a synthetic multi-device dataset", ["config"], ["seed"])
    add("ingest", cmd_ingest, "extract log-mel features for a WAV manifest", ["manifest"])
    p = add("index", cmd_index, "compute domain distances and indices", ["manifest"], ["seed"], seed=0)
    p.add_argument("--tsne-iters", type=int, default=500)
    add("train", cmd_train, "adversarial training run", ["config", "manifest", "index"], ["override", "seed"])
    add("eval", cmd_eval, "evaluate a checkpoint on the test split", ["checkpoint", "manifest"], ["config"])
    add("sweep", cmd_sweep, "train+evaluate across the lambda grid", ["config", "manifest", "index"],
        ["override", "seed"])
    p = add("export-embeddings", cmd_export, "t-SNE CSV of learned features", ["checkpoint", "manifest"],
            ["seed"], seed=0)
    p.add_argument("--n-per-device", type=int, default=50)
    p.add_argument("--tsne-iters", type=int, default=500)
    return parser


def cmd_synth(args, out):
    cfg = SynthConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    make_dataset(cfg, out)
    print(f"wrote dataset to {out}", file=sys.stderr)
    return {"config": {**vars(cfg), "devices": [[d.device_id, d.shift_magnitude] for d in cfg.devices]}}


def cmd_ingest(args, out):
    from mtda.audio import ingest  # imports scipy.signal (~1 s), which no other command needs

    result = ingest(read_manifest(args.manifest), out / "features", manifest_out=out / "manifest.csv")
    for row_id, message in result.errors:
        print(f"row {row_id}: {message}", file=sys.stderr)
    if not result.ok:
        raise ContractError(f"{len(result.errors)} rows failed feature extraction")
    print(f"ingested {len(result.rows)} rows", file=sys.stderr)


def cmd_index(args, out):
    table = compute_index_table(read_manifest(args.manifest), seed=args.seed, tsne_iters=args.tsne_iters)
    save_index_table(table, out / "index.json")
    print(f"wrote {out / 'index.json'}", file=sys.stderr)


def _train_inputs(args):
    """The resolved config, the manifest rows and the index table of train and sweep."""
    overrides = {}
    for pair in args.override:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ContractError(f"override must be KEY=VALUE, got {pair!r}")
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    cfg = TrainConfig.from_json(args.config, overrides)
    return cfg, read_manifest(args.manifest), load_index_table(args.index)


def cmd_train(args, out):
    cfg, rows, table = _train_inputs(args)
    result = train(cfg, rows, table, log_path=out / "train_log.csv")
    result.model.save(out / "checkpoint.mtda")
    report = evaluate(result.model, rows, device_groups=cfg.device_groups)
    report.loss_curve = result.report.loss_curve
    report.wall_time_s = result.report.wall_time_s
    _write_report(report, out)
    print(f"best holdout accuracy {result.best_holdout_accuracy:.3f}", file=sys.stderr)
    return {"config": asdict(cfg), "index_table": index_table_payload(table)}


def cmd_eval(args, out):
    model = AdversarialModel.load(args.checkpoint)
    rows = read_manifest(args.manifest)
    groups = TrainConfig.from_json(args.config).device_groups if args.config else {}
    _write_report(evaluate(model, rows, device_groups=groups), out)


def cmd_sweep(args, out):
    cfg, rows, table = _train_inputs(args)
    results, best = sweep(cfg, rows, table)
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
    if best:
        print(f"best lambda_d = {best['lambda_d']:g} (score {best['score']:.3f})", file=sys.stderr)
    return {"config": asdict(cfg), "index_table": index_table_payload(table)}


def cmd_export(args, out):
    export_embeddings(
        AdversarialModel.load(args.checkpoint),
        read_manifest(args.manifest),
        n_per_device=args.n_per_device,
        out_csv=out / "embeddings.csv",
        seed=args.seed,
        tsne_iters=args.tsne_iters,
    )


def _write_report(report, out):
    """report.json and its per-device/per-group accuracy.csv."""
    report.to_json(out / "report.json")
    with open(out / "accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kind", "accuracy", "count"])
        for device, stats in sorted(report.per_device.items()):
            writer.writerow([device, "device", f"{stats['accuracy']:.6f}", stats["count"]])
        for group, acc in sorted(report.groups.items()):
            writer.writerow([group, "group", f"{acc:.6f}", ""])


if __name__ == "__main__":
    sys.exit(main())
