"""Span tracing of mtda's layers, installed from outside the package.

Each public function is wrapped where its callers look it up: functions that
`mtda.training` imports by name (`forward`, `run_tsne`, the geometry helpers)
are replaced in `mtda.training`, and everything reached through a module
attribute (`mtda.autodiff.*`, `mtda.tsne.*`, `mtda.audio.*`,
`mtda.checkpoint.*`) is replaced on that module. Autodiff ops are wrapped
twice: the forward call, and the backward closure the op leaves on its output
node, so that backward time lands on the op and not on the tape sweep.

A span's self time is its duration minus the time covered by the spans it
encloses. Spans are aggregated in memory per label (calls, inclusive and self
seconds) and turned into metrics once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

AUTODIFF_OPS = (
    "conv2d", "avg_pool2", "relu", "dense", "global_avg_pool", "softmax",
    "softmax_cross_entropy", "mse_loss", "gradient_reversal", "add", "sub", "scale",
)
# (in channels, out channels, height, width) of every conv2d input the model
# sees: the 64x64 desk features, the 638x64 audio features, and each after
# one 2x2 pooling, with the default conv_channels (4, 8).
CONV_SHAPES = {
    "64x64": (1, 4, 64, 64),
    "32x32": (4, 8, 32, 32),
    "638x64": (1, 4, 638, 64),
    "319x32": (4, 8, 319, 32),
}
TRAIN_BATCH = 32
TSNE_POINTS = 800  # desk-index: 4 devices x 200 rows kept per device


def conv2d_flop(n, c, f, h, w):
    """Multiply-adds of one forward 3x3 conv, counted as 2 FLOPs each.
    The backward pass (kernel gradient plus input gradient) costs twice this."""
    return 2 * n * f * c * 9 * h * w


def conv2d_bytes(n, c, f, h, w, itemsize=4):
    """Input, kernel and output of one forward conv, each moved once."""
    return (n * c * h * w + f * c * 9 + n * f * h * w) * itemsize


def kl_gradient_flop(n):
    """Element operations of one `tsne.kl_gradient` call on n 2-D points:
    pairwise distances 8n^2 (4n^2 of it the Gram matmul), Student-t kernel and
    normalisation 5n^2, the (p - q) * num weights and row sums 3n^2, and the
    final (diag - w) @ y 5n^2 (4n^2 of it the matmul)."""
    return 21 * n * n


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # seconds, child spans included
        self.own = defaultdict(float)  # seconds, child spans excluded
        self.counts = defaultdict(float)  # work done: flop, bytes, steps, clips
        self.paused = False
        self._open = []  # child seconds accumulated by each open span
        self._undo = []

    def timed(self, label, fn, *args, **kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        self._open.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            child = self._open.pop()
            self.calls[label] += 1
            self.total[label] += elapsed
            self.own[label] += elapsed - child
            if self._open:
                self._open[-1] += elapsed

    def reset(self):
        for table in (self.calls, self.total, self.own, self.counts):
            table.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, functools.wraps(getattr(owner, attr))(wrapper))

    def wrap(self, owner, attr, label, count=None):
        """Time `owner.attr` as span `label`; `count(counts, args, result)`
        may add the work the call did to `self.counts`."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = self.timed(label, fn, *args, **kwargs)
            if count is not None and not self.paused:
                count(self.counts, args, out)
            return out

        self._replace(owner, attr, wrapper)

    def wrap_op(self, module, name):
        """Time an autodiff op's forward call and the backward closure on its output."""
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            label = f"autodiff.{name}"
            flop = 0
            if name == "conv2d":
                x, k = (getattr(a, "value", a) for a in args[:2])
                label += f".{x.shape[-2]}x{x.shape[-1]}"
                flop = conv2d_flop(x.shape[0], x.shape[1], k.shape[0], x.shape[-2], x.shape[-1])
            out = self.timed(label + ".fwd", fn, *args, **kwargs)
            if self.paused:
                return out
            if flop:
                self.counts["autodiff.conv2d.flop"] += flop
            closure = out._backward
            if closure is not None:

                def backward(g):
                    self.timed(label + ".bwd", closure, g)
                    self.counts["autodiff.conv2d.flop"] += 2 * flop

                out._backward = backward
            return out

        self._replace(module, name, wrapper)

    def install(self):
        from mtda import audio, autodiff, checkpoint, synth, training, tsne

        for name in AUTODIFF_OPS:
            self.wrap_op(autodiff, name)
        self.wrap(autodiff, "backward", "autodiff.backward")
        self.wrap(training, "forward", "models.forward")
        self.wrap(training, "load_dataset", "training.load_dataset")
        self.wrap(training.Adam, "step", "training.Adam.step")
        self.wrap(training, "predict", "training.predict")
        self.wrap(training, "train", "training.train", _count_steps)
        self.wrap(training, "evaluate", "training.evaluate")
        self.wrap(training, "compute_index_table", "training.compute_index_table")
        self.wrap(training, "run_tsne", "tsne.run_tsne")
        for name in ("pairs_from_embedding", "domain_distance", "assign_indices"):
            self.wrap(training, name, f"geometry.{name}")
        for name in ("affinities", "perplexity_calibrate", "kl_divergence"):
            self.wrap(tsne, name, f"tsne.{name}")
        self.wrap(tsne, "kl_gradient", "tsne.kl_gradient", _count_kl_flop)
        self.wrap(checkpoint, "load_tensors", "checkpoint.load_tensors", _count_file("checkpoint.load_tensors"))
        self.wrap(checkpoint, "save_tensors", "checkpoint.save_tensors", _count_file("checkpoint.save_tensors"))
        for name in ("load_wav", "resample", "logmel"):
            self.wrap(audio, name, f"audio.{name}")
        self.wrap(audio, "ingest", "audio.ingest", _count_clips)
        self.wrap(synth, "make_dataset", "synth.make_dataset")

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


def _count_steps(counts, args, result):
    counts["training.train.steps"] += len(result.report.loss_curve)


def _count_kl_flop(counts, args, result):
    counts["tsne.kl_gradient.flop"] += kl_gradient_flop(len(result))


def _count_clips(counts, args, result):
    counts["audio.ingest.clips"] += len(result.rows)


def _count_file(label):
    def count(counts, args, result):
        counts[label + ".bytes"] += os.path.getsize(args[0])

    return count


def layer_metrics(tracer, n_ops, nonconverged, setup_stats, overhead_pct):
    """Per-layer metrics of a traced run of `n_ops` operations, in report
    order, as name -> (value, unit, better).

    Times are per call, `.calls` and megabytes per operation, and
    `setup_stats` holds the (calls, seconds) of `synth.make_dataset` spans
    recorded during set-up.
    """
    calls, total, own, counts = tracer.calls, tracer.total, tracer.own, tracer.counts
    out = {}

    def put(name, value, unit, better="lower"):
        out[name] = (value, unit, better)

    def ms(label, table=total):
        return 1000.0 * table[label] / calls[label] if calls[label] else 0.0

    def per_op(label):
        return calls[label] / n_ops

    def ratio(part, whole, scale=1.0):
        return scale * part / whole if whole else 0.0

    conv_s = 0.0
    for shape, (c, f, h, w) in CONV_SHAPES.items():
        base = f"autodiff.conv2d.{shape}"
        put(f"{base}.fwd_ms", ms(base + ".fwd"), "ms")
        put(f"{base}.bwd_ms", ms(base + ".bwd"), "ms")
        put(f"{base}.calls", per_op(base + ".fwd"), "count")
        put(f"{base}.mflop", conv2d_flop(TRAIN_BATCH, c, f, h, w) / 1e6, "MFLOP")
        put(f"{base}.mb", conv2d_bytes(TRAIN_BATCH, c, f, h, w) / 1e6, "MB")
        conv_s += total[base + ".fwd"] + total[base + ".bwd"]
    put("autodiff.conv2d.gflop_per_s", ratio(counts["autodiff.conv2d.flop"], conv_s, 1e-9), "GFLOP/s", "higher")
    for name in AUTODIFF_OPS[1:]:
        put(f"autodiff.{name}.fwd_ms", ms(f"autodiff.{name}.fwd"), "ms")
        put(f"autodiff.{name}.bwd_ms", ms(f"autodiff.{name}.bwd"), "ms")
        put(f"autodiff.{name}.calls", per_op(f"autodiff.{name}.fwd"), "count")
    swept = sum(n for label, n in calls.items() if label.startswith("autodiff.") and label.endswith(".bwd"))
    put("autodiff.backward.self_ms", ms("autodiff.backward", own), "ms")
    put("autodiff.backward.calls", per_op("autodiff.backward"), "count")
    put("autodiff.nodes_per_step", ratio(swept, calls["autodiff.backward"]), "count")
    put("models.forward.self_ms", ms("models.forward", own), "ms")
    put("models.forward.calls", per_op("models.forward"), "count")
    for name in ("training.load_dataset", "training.Adam.step", "training.predict"):
        put(f"{name}.ms", ms(name), "ms")
        put(f"{name}.calls", per_op(name), "count")
    steps = counts["training.train.steps"]
    put("training.train.self_ms_per_step", ratio(own["training.train"], steps, 1e3), "ms")
    put("training.train.steps", steps / n_ops, "count", "higher")
    for name in ("checkpoint.load_tensors", "checkpoint.save_tensors"):
        put(f"{name}.ms", ms(name), "ms")
        put(f"{name}.calls", per_op(name), "count")
        put(f"{name}.mb", counts[name + ".bytes"] / 1e6 / n_ops, "MB")
    for name in ("tsne.affinities", "tsne.perplexity_calibrate"):
        put(f"{name}.ms", ms(name), "ms")
        put(f"{name}.calls", per_op(name), "count")
    put("tsne.calibrate_nonconverged", nonconverged / n_ops, "count")
    put("tsne.kl_gradient.ms", ms("tsne.kl_gradient"), "ms")
    put("tsne.kl_gradient.calls", per_op("tsne.kl_gradient"), "count")
    put("tsne.kl_gradient.mflop", kl_gradient_flop(TSNE_POINTS) / 1e6, "MFLOP")
    put("tsne.kl_gradient.gflop_per_s", ratio(counts["tsne.kl_gradient.flop"], total["tsne.kl_gradient"], 1e-9),
        "GFLOP/s", "higher")
    put("tsne.kl_divergence.ms", ms("tsne.kl_divergence"), "ms")
    put("tsne.kl_divergence.calls", per_op("tsne.kl_divergence"), "count")
    put("tsne.run_tsne.self_ms", ms("tsne.run_tsne", own), "ms")
    for name in ("geometry.pairs_from_embedding", "geometry.domain_distance", "geometry.assign_indices",
                 "audio.load_wav", "audio.resample", "audio.logmel"):
        put(f"{name}.ms", ms(name), "ms")
        put(f"{name}.calls", per_op(name), "count")
    put("audio.ingest.self_ms_per_clip", ratio(own["audio.ingest"], counts["audio.ingest.clips"], 1e3), "ms")
    put("audio.ingest.calls", per_op("audio.ingest"), "count")
    put("synth.make_dataset_s", ratio(setup_stats[1], setup_stats[0]), "s")
    put("trace.overhead_pct", overhead_pct, "%")
    pool_s = total["autodiff.avg_pool2.fwd"] + total["autodiff.avg_pool2.bwd"]
    frontend_s = sum(total[f"audio.{name}"] for name in ("load_wav", "resample", "logmel"))
    put("share.conv_pool_of_train_pct", ratio(conv_s + pool_s, total["training.train"], 100.0), "%")
    put("share.kl_gradient_of_index_pct", ratio(total["tsne.kl_gradient"], total["training.compute_index_table"], 100.0), "%")
    put("share.audio_of_ingest_pct", ratio(frontend_s, total["audio.ingest"], 100.0), "%")
    return out


# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
LAYER_METRICS = [(name, unit, better) for name, (_, unit, better) in layer_metrics(Tracer(), 1, 0, (0, 0.0), 0.0).items()]
