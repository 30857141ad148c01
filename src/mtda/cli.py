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

Files that are only outputs (``run.json``, reports, logs, accuracy, sweep and
embedding tables) are written here alone, by ``write_json`` and
``write_csv``. Files the library reads back (``index.json``, checkpoints,
features, manifests) keep their save/load pair in the module that owns them.
A report is ``evaluate``'s record, the same from ``train``, ``eval`` and
``sweep``; the loss curve goes only to ``train_log.csv``.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from mtda.errors import ContractError, NumericError, read_json, write_csv, write_json
from mtda.geometry import index_table_payload, load_index_table, save_index_table
from mtda.manifest import read_manifest, write_manifest
from mtda.models import AdversarialModel
from mtda.synth import SynthConfig, make_dataset
from mtda.training import TrainConfig, compute_index_table, evaluate, export_embeddings, sweep, train


def _seed(text) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


_FLAGS = {
    "manifest": {"help": "dataset manifest CSV"},
    "config": {"help": "config JSON"},
    "index": {"help": "domain index table JSON"},
    "checkpoint": {"help": "model checkpoint"},
    "override": {"action": "append", "default": [], "metavar": "KEY=VALUE", "help": "set one config field"},
    "seed": {"type": _seed, "help": "random seed (replaces the config's, if any)"},
    "tsne-iters": {"type": int, "default": 500, "help": "t-SNE gradient descent iterations"},
    "n-per-device": {"type": int, "default": 50, "help": "rows embedded per device"},
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
        with np.errstate(all="ignore"), warnings.catch_warnings():  # Tensor and run_tsne reject non-finite values
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            resolved = args.handler(args, out) or {}
        flags = {k: v for k, v in vars(args).items() if k != "handler"}
        write_json(out / "run.json", {**flags, **resolved})
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

    add("synth", cmd_synth, "generate a synthetic multi-device dataset", ["config"], ["seed"])
    add("ingest", cmd_ingest, "extract log-mel features for a WAV manifest", ["manifest"])
    add("index", cmd_index, "compute domain distances and indices", ["manifest"], ["seed", "tsne-iters"], seed=0)
    add("train", cmd_train, "adversarial training run", ["config", "manifest", "index"], ["override", "seed"])
    add("eval", cmd_eval, "evaluate a checkpoint on the test split", ["checkpoint", "manifest"], ["config"])
    add("sweep", cmd_sweep, "train+evaluate across the lambda grid", ["config", "manifest", "index"],
        ["override", "seed"])
    add("export-embeddings", cmd_export, "t-SNE CSV of learned features", ["checkpoint", "manifest"],
        ["seed", "n-per-device", "tsne-iters"], seed=0)
    return parser


def cmd_synth(args, out):
    cfg = _config(SynthConfig, args)
    make_dataset(cfg, out)
    print(f"wrote dataset to {out}", file=sys.stderr)
    return {"config": asdict(cfg)}


def cmd_ingest(args, out):
    from mtda.audio import ingest  # imports scipy.signal (~1 s), which no other command needs

    result = ingest(read_manifest(args.manifest), out / "features")
    write_manifest(result.rows, out / "manifest.csv")
    for row_id, message in result.errors:
        print(f"row {row_id}: {message}", file=sys.stderr)
    if not result.ok:
        raise ContractError(f"{len(result.errors)} rows failed feature extraction")
    print(f"ingested {len(result.rows)} rows", file=sys.stderr)


def cmd_index(args, out):
    table = compute_index_table(read_manifest(args.manifest), seed=args.seed, tsne_iters=args.tsne_iters)
    save_index_table(table, out / "index.json")
    print(f"wrote {out / 'index.json'}", file=sys.stderr)


def _config(cls, args):
    """The `cls` config of `--config`, with each `--override` and `--seed` applied."""
    payload = read_json(args.config)
    overrides = {}
    for pair in getattr(args, "override", ()):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ContractError(f"override must be KEY=VALUE, got {pair!r}")
        overrides[key] = value
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return cls.from_dict(payload, overrides)


def _train_inputs(args):
    """The resolved config, the manifest rows and the index table of train and sweep."""
    return _config(TrainConfig, args), read_manifest(args.manifest), load_index_table(args.index)


def cmd_train(args, out):
    cfg, rows, table = _train_inputs(args)
    start = time.monotonic()
    result = train(cfg, rows, table)
    seconds, holdout = time.monotonic() - start, result.report.best_holdout_accuracy
    print(f"trained in {seconds:.1f} s, best holdout accuracy {holdout:.3f}", file=sys.stderr)
    write_csv(out / "train_log.csv", ["step", "L_y", "L_d", "L_total"], result.report.loss_curve)
    result.model.save(out / "checkpoint.mtda")
    _write_report(evaluate(result.model, rows, device_groups=cfg.device_groups), out)
    return {"config": asdict(cfg), "index_table": index_table_payload(table)}


def cmd_eval(args, out):
    model = AdversarialModel.load(args.checkpoint)
    rows = read_manifest(args.manifest)
    groups = _config(TrainConfig, args).device_groups if args.config else {}
    _write_report(evaluate(model, rows, device_groups=groups), out)


def cmd_sweep(args, out):
    cfg, rows, table = _train_inputs(args)
    results, best = sweep(cfg, rows, table)
    scores = ("holdout_accuracy", "target_test_accuracy")
    table_rows = [[r["lambda_d"], *("" if r[k] is None else f"{r[k]:.6f}" for k in scores), r["error"] or ""]
                  for r in results]
    write_csv(out / "sweep.csv", ["lambda_d", *scores, "error"], table_rows)
    summary = {
        "best_lambda_d": best["lambda_d"] if best else None,
        "results": [{k: r[k] for k in ("lambda_d", *scores, "error")} for r in results],
    }
    write_json(out / "sweep.json", summary)
    for r in results:
        if r["report"] is not None:
            write_json(out / f"report_lambda_{r['lambda_d']:g}.json", asdict(r["report"]))
    if not best:
        raise ContractError(f"no lambda_d value trained; at {results[0]['lambda_d']:g}: {results[0]['error']}")
    print(f"best lambda_d = {best['lambda_d']:g} (holdout accuracy {best['holdout_accuracy']:.3f})", file=sys.stderr)
    return {"config": asdict(cfg), "index_table": index_table_payload(table)}


def cmd_export(args, out):
    emb, chosen = export_embeddings(
        AdversarialModel.load(args.checkpoint),
        read_manifest(args.manifest),
        n_per_device=args.n_per_device,
        seed=args.seed,
        tsne_iters=args.tsne_iters,
    )
    points = [[r.id, r.device, r.scene, f"{y0:.6f}", f"{y1:.6f}"] for r, (y0, y1) in zip(chosen, emb.points)]
    write_csv(out / "embeddings.csv", ["id", "device", "scene", "y0", "y1"], points)


def _write_report(report, out):
    """report.json and its per-device/per-group accuracy.csv."""
    write_json(out / "report.json", asdict(report))
    devices = [[d, "device", f"{s['accuracy']:.6f}", s["count"]] for d, s in sorted(report.per_device.items())]
    groups = [[g, "group", f"{acc:.6f}", ""] for g, acc in sorted(report.groups.items())]
    write_csv(out / "accuracy.csv", ["name", "kind", "accuracy", "count"], devices + groups)


if __name__ == "__main__":
    sys.exit(main())
