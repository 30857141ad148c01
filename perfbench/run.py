#!/usr/bin/env python3
"""Benchmark of the mtda pipeline: t-SNE domain indexing, index-weighted
adversarial training and log-mel ingest.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0

Run it from the repository root: it imports mtda from ./src and works in a
temporary directory there that it removes on exit. It makes the workload's
inputs from --seed, repeats the workload's operation for about --seconds
seconds (starting another only while the typical operation still fits),
checks every result, prints one line per metric, and last one JSON object.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each operation twice, untraced and then traced, and reports the per-layer
metrics of BENCHMARK.json and the tracing overhead. --tiny shrinks every
input; the smoke tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# name -> unit of every end-to-end measurement an operation can report.
# Means, not medians, for the two quality fractions.
UNITS = {
    "train_s": "s", "train_steps_per_s": "1/s", "eval_clips_per_s": "1/s", "index_s": "s",
    "ingest_clips_per_s": "1/s", "reingest_clips_per_s": "1/s",
    "acc_hardest": "fraction", "index_order_recovered": "fraction",
}
MEANS = ("acc_hardest", "index_order_recovered")


def tail_percentile(samples):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, by nearest rank; None when there are fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def describe(samples):
    text = f"median of {len(samples)}"
    tail = tail_percentile(samples)
    return text + (f", p{tail[0]} {tail[1]:.6g}" if tail else "")


def machine_stamp():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def attempt(workload, i, work, untraced):
    """One operation; None if it raised or failed its check."""
    try:
        result = workload.run_op(i, work, untraced)
    except Exception:  # an operation that raises is counted, not fatal
        print(f"# op {i} raised:", file=sys.stderr)
        traceback.print_exc()
        return None
    if result.problems:
        print(f"# op {i} failed its check: {'; '.join(result.problems)}")
        return None
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk-train", "desk-index", "audio-ingest-train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "mtda" / "__init__.py").is_file():
        print(f"perfbench: no mtda package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    import_s = time.perf_counter() - start
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine {json.dumps(machine_stamp())}")
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, workloads, tracing, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workloads, tracing, work, import_s):
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        setups = []
        for r in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.generate(work / f"data-{r}")
            setups.append(time.perf_counter() - begin)
            if r:
                shutil.rmtree(work / f"data-{r - 1}")
        begin = time.perf_counter()
        workload.warm_up(work)
        warm_s = time.perf_counter() - begin
    setup_s = import_s + statistics.median(setups) + warm_s
    synth_stats = (tracer.calls["synth.make_dataset"], tracer.total["synth.make_dataset"]) if tracer else None
    if tracer:
        tracer.reset()

    plain, traced, nonconverged = [], [], 0

    def run_traced(i):
        nonlocal nonconverged
        with tracer.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced.append(attempt(workload, i, work, tracer.pause))
        nonconverged += sum("did not converge" in str(w.message) for w in caught)

    walls = []
    begin = time.perf_counter()
    i = 0
    while True:
        op_start = time.perf_counter()
        # With tracing, the same operation runs untraced and traced, in
        # alternating order so that drift in machine speed cancels out of
        # the overhead.
        if tracer and i % 2:
            run_traced(i)
        plain.append(attempt(workload, i, work, contextlib.nullcontext))
        if tracer and not i % 2:
            run_traced(i)
        walls.append(time.perf_counter() - op_start)
        i += 1
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break

    attempted = len(plain) + len(traced)
    failed = sum(r is None for r in plain + traced)
    ok = [r for r in plain if r is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = statistics.median(r.op_s for r in ok) if ok else 0.0

    print(f"{'setup_s':<24} {setup_s:.6g} s  (imports {import_s:.3g} + median of {SETUP_REPEATS} set-ups "
          f"{statistics.median(setups):.3g} + warm-up {warm_s:.3g})")
    print(f"{'op_s':<24} {op_s:.6g} s  ({describe([r.op_s for r in ok])})")
    for name, unit in UNITS.items():
        samples = [r.values[name] for r in ok if name in r.values]
        if samples and name in MEANS:
            print(f"{name:<24} {statistics.fmean(samples):.6g} {unit}  (mean of {len(samples)})")
        elif samples:
            print(f"{name:<24} {statistics.median(samples):.6g} {unit}  ({describe(samples)})")
    print(f"{'peak_rss_mb':<24} {peak_rss_mb:.6g} MB")
    print(f"{'op_failure_rate':<24} {failed / attempted:.6g} fraction  ({failed} of {attempted})")

    if tracer:
        pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
        overhead = 100.0 * (statistics.median(t.op_s / p.op_s for p, t in pairs) - 1.0) if pairs else 0.0
        timed = [t for t in traced if t is not None]
        for name in ("train_s", "index_s"):
            samples = [(p.values[name], t.values[name]) for p, t in pairs if name in p.values]
            if samples:
                print(f"# traced {name} {statistics.median(t for _, t in samples):.6g} s against untraced "
                      f"{statistics.median(p for p, _ in samples):.6g} s")
        layers = tracing.layer_metrics(tracer, max(len(timed), 1), nonconverged, synth_stats, overhead)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layers.items()}
        for name, (value, unit, _) in layers.items():
            print(f"{name:<40} {value:.6g} {unit}")
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
