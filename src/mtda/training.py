"""Config-driven adversarial training, evaluation, sweeps, and exports.

Batches are half labeled source rows, half target rows drawn uniformly over
target domains, so every domain appears in expectation each step. One Adam
instance updates F, C and D jointly; the reversal node inside the model
carries -lambda_d into F. Model selection uses held-out *source* accuracy
(target labels are unavailable by the problem setting). Everything is
deterministic given (config, seed, data bytes, BLAS kernel).

This module names no dtype: `checkpoint` decides the precision features are
stored and loaded in (`FEATURE_DTYPE`), and `models.forward` the precision the
model computes in (its parameters' dtype). The one exception is the float64
accumulator of `compute_index_table`'s time average.

At most one batch graph is alive at once. `train` holds the loaded features
plus one step's batch, graph and gradients: they die when `_step` returns,
before the next step or the per-epoch holdout `predict` builds another.
`evaluate` and `export_embeddings` hold the features plus one inference pass
of INFERENCE_ROWS rows: `_inference` reads what its caller needs from each
pass before it builds the next. An inference pass records no graph (no
parents, backward closures or relu masks), since nothing differentiates it.

`train` returns the kept model and its `TrainReport` (loss curve, holdout
accuracy); `evaluate` returns the `ExperimentReport` of test accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from mtda import autodiff as ad
from mtda.checkpoint import load_features
from mtda.errors import Checked, ContractError, NumericError, check, rule
from mtda.geometry import (
    DomainIndexTable,
    assign_indices,
    domain_distance,
    pairs_from_embedding,
)
from mtda.models import (
    DEFAULT_T,
    AdversarialModel,
    Batch,
    Mode,
    ModelConfig,
    domain_loss_for_mode,
    forward,
    scene_loss,
)
from mtda.tsne import TsneConfig, run_tsne

LAMBDA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig(Checked):
    mode: str = rule(str, "mtda-c2", among=tuple(m.value for m in Mode))
    lambda_d: float = rule(float, 1.0, ge=0)
    t: float = rule(float, DEFAULT_T, gt=0)
    learning_rate: float = rule(float, 0.002, gt=0)
    batch_size: int = rule(int, 32, ge=2)
    epochs: int = rule(int, 200, ge=1)
    seed: int = rule(int, 0, ge=0)
    holdout_fraction: float = rule(float, 0.2, ge=0, lt=1)
    lambda_grid: tuple = rule(tuple, LAMBDA_GRID, item=float, ge=0)
    conv_channels: tuple = rule(tuple, (4, 8), item=int, size=2, ge=1)
    device_groups: dict = rule(dict, factory=dict)  # e.g. {"B&C": ["B", "C"]}
    normalize_index: bool = rule(bool, False)  # rescale mtda-r regression targets to [0, 1]

    @property
    def n_source(self) -> int:
        """Source rows per batch: half, rounded half to even."""
        return int(round(self.batch_size / 2))


@dataclass
class ExperimentReport:
    per_device: dict  # device -> {"accuracy", "count"}
    groups: dict  # group name -> count-weighted mean accuracy of its devices


class Adam:
    def __init__(self, params: dict, lr):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1**self.t)
            v_hat = self.v[k] / (1 - b2**self.t)
            self.params[k] = self.params[k] - self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# data access


@dataclass
class LoadedDataset:
    rows: list
    features: np.ndarray  # aligned with rows, (n, h, w)
    classes: list  # the scene of each model output, in order
    devices: list
    labels: np.ndarray  # each row's position in classes; -1 for no scene or one outside them
    row_devices: np.ndarray  # each row's device


def load_dataset(rows, split="train", classes=None) -> LoadedDataset:
    """Load the features of the `split` rows that have them, labeled by their
    positions in `classes`: by default the sorted scenes of those rows, the
    outputs `train` gives a model; `evaluate` passes the model's own."""
    rows = [r for r in rows if r.split == split and r.feature_path]
    if not rows:
        raise ContractError(f"manifest has no {split} rows with extracted features")
    classes = sorted({r.scene for r in rows if r.scene}) if classes is None else list(classes)
    position = {scene: k for k, scene in enumerate(classes)}
    return LoadedDataset(
        rows=rows,
        features=load_features([r.feature_path for r in rows]),
        classes=classes,
        devices=sorted({r.device for r in rows}),
        labels=np.array([position.get(r.scene, -1) for r in rows]),
        row_devices=np.array([r.device for r in rows]),
    )


def _source_device(rows):
    labeled_train = {r.device for r in rows if r.split == "train" and r.scene}
    if len(labeled_train) != 1:
        raise ContractError(f"expected exactly one labeled source device, got {sorted(labeled_train)}")
    return labeled_train.pop()


# ---------------------------------------------------------------------------
# domain indexing pipeline


def compute_index_table(rows, seed=0, tsne_iters=500, max_rows_per_device=200) -> DomainIndexTable:
    """Joint t-SNE over time-averaged features, mean parallel-pair distances,
    then rank-based indices. Recomputed per experiment (the embedding is
    stochastic); persist the result next to the run for reproducibility."""
    rows = [r for r in rows if r.split == "train" and r.feature_path]
    if not rows:
        raise ContractError("manifest has no train rows with extracted features")
    source_device = _source_device(rows)
    sources: dict = {}
    for r in rows:
        if r.device == source_device and r.parallel_group:
            sources.setdefault(r.parallel_group, []).append(r.id)
    for group, ids in sorted(sources.items()):
        if len(ids) > 1:
            raise ContractError(f"parallel group {group!r} has more than one source row: {ids}")
    devices = sorted({r.device for r in rows})
    rng = np.random.default_rng(seed)
    keep = []
    for device in devices:
        idx = [i for i, r in enumerate(rows) if r.device == device]
        # parallel rows must survive subsampling; they carry the signal
        parallel = [i for i in idx if rows[i].parallel_group]
        rest = [i for i in idx if not rows[i].parallel_group]
        budget = max(0, max_rows_per_device - len(parallel))
        if len(rest) > budget:
            rest = list(rng.choice(rest, size=budget, replace=False))
        keep.extend(parallel + rest)
    rows_kept = [rows[i] for i in sorted(keep)]
    # time-average each file to 64-d as it is read, summing its frames in float64
    vectors = load_features([r.feature_path for r in rows_kept], lambda f: f.mean(axis=0, dtype=np.float64))

    # Large perplexity + mild exaggeration keep inter-cluster distances more
    # faithful, which is what the pair distances measure.
    emb = run_tsne(
        vectors,
        TsneConfig(iters=tsne_iters, seed=seed, perplexity=min(30.0, len(vectors) / 2.0), exaggeration=4.0),
    )
    distances = {}
    for device in devices:
        if device == source_device:
            continue
        pairs = pairs_from_embedding(emb.points, rows_kept, device, source_device)
        if not pairs:
            raise ContractError(f"device {device} has no parallel data")
        distances[device] = domain_distance(pairs)
    return assign_indices(distances, source_device=source_device)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainReport:
    loss_curve: list  # (step, l_y, l_d, l_total)
    best_holdout_accuracy: float


@dataclass
class TrainResult:
    model: AdversarialModel
    report: TrainReport


def _make_batch(data, config, u_row, src_idx, tgt_pools, rng):
    """`u_row` is each row's domain index; `tgt_pools` holds each target device's rows."""
    n_src = config.n_source
    chosen_src = rng.choice(src_idx, size=n_src, replace=len(src_idx) < n_src)
    chosen_tgt = []
    for _ in range(config.batch_size - n_src):
        pool = tgt_pools[rng.integers(len(tgt_pools))]
        chosen_tgt.append(pool[rng.integers(len(pool))])
    idx = np.concatenate([chosen_src, np.asarray(chosen_tgt, dtype=int)])
    u = u_row[idx]
    return Batch(
        x=data.features[idx],
        y_onehot=np.eye(len(data.classes))[np.where(u == 0, data.labels[idx], 0)],  # scene_loss masks target rows
        d_onehot=np.eye(len(data.devices))[u],
        u=u,
        source_mask=u == 0,
    )


def train(config: TrainConfig, rows, index_table: DomainIndexTable) -> TrainResult:
    data = load_dataset(rows)
    source_device = _source_device(data.rows)
    missing = set(data.devices) - set(index_table)
    if missing:
        raise ContractError(f"index table missing devices: {sorted(missing)}")
    n_domains = len(data.devices)
    indices = {d: index_table[d].index for d in data.devices}
    if sorted(indices.values()) != list(range(n_domains)) or indices[source_device] != 0:
        raise ContractError(
            f"index table must number the train devices 0..{n_domains - 1} with source {source_device} at 0,"
            f" got {indices}"
        )
    unlabeled = [r.id for r in data.rows if r.device == source_device and not r.scene]
    if unlabeled:
        raise ContractError(f"{len(unlabeled)} source train rows have no scene label: {unlabeled[:3]}")
    _check_device_groups(config.device_groups, rows)  # before training, not after it

    u_row = np.array([indices[r.device] for r in data.rows])
    src_all = np.flatnonzero(u_row == 0)
    tgt_pools = [np.flatnonzero(data.row_devices == d) for d in data.devices if d != source_device]
    rng = np.random.default_rng(config.seed)
    rng.shuffle(src_all)
    n_holdout = max(1, int(round(config.holdout_fraction * len(src_all))))
    holdout_idx, src_train = src_all[:n_holdout], src_all[n_holdout:]
    if len(src_train) == 0:
        raise ContractError("no source rows left after holdout split")

    # ModelConfig rejects a single class or domain
    model_config = ModelConfig(len(data.classes), n_domains, config.mode, config.conv_channels, tuple(data.classes))
    model = AdversarialModel.initialize(model_config, seed=config.seed)
    optimizer = Adam(model.params, config.learning_rate)

    steps_per_epoch = max(1, len(src_train) // config.n_source)
    curve = []
    best_acc, best_params = -1.0, None
    for _epoch in range(config.epochs):
        for _ in range(steps_per_epoch):
            losses = _step(model, optimizer, _make_batch(data, config, u_row, src_train, tgt_pools, rng), config)
            curve.append((len(curve), *losses))
        acc = float((predict(model, data.features[holdout_idx]) == data.labels[holdout_idx]).mean())
        if acc > best_acc:
            best_acc, best_params = acc, dict(model.params)

    return TrainResult(AdversarialModel(model.config, best_params), TrainReport(curve, best_acc))


def _step(model, optimizer, batch, config):
    """One Adam step on `batch`; returns its (l_y, l_d, l_total). The batch, its graph and
    their gradients die on return, before the next step or the holdout predict builds one."""
    fwd = forward(model, batch.x, lambda_d=config.lambda_d)
    l_y = scene_loss(fwd.y_logits, batch.y_onehot, batch.source_mask)
    l_d = domain_loss_for_mode(model.config.mode, fwd, batch, t=config.t, normalize_index=config.normalize_index)
    total = l_y + l_d
    ad.backward(total)
    optimizer.step({k: leaf.grad for k, leaf in fwd.leaves.items()})
    return float(l_y.value), float(l_d.value), float(total.value)


INFERENCE_ROWS = 64  # rows per inference pass, the one batch of values alive at a time


def _inference(model, x, read):
    """`read(fwd)` of the gradient-free forward pass of each INFERENCE_ROWS batch of `x`,
    concatenated. A pass records no graph, and each is read and dropped before the next
    batch's is built, so only one batch's values are alive at a time."""
    starts = range(0, len(x), INFERENCE_ROWS)
    return np.concatenate([read(forward(model, x[lo : lo + INFERENCE_ROWS], grad=False)) for lo in starts])


def predict(model, x):
    return _inference(model, x, lambda fwd: np.argmax(fwd.y_logits.value, axis=1))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model: AdversarialModel, rows, device_groups=None) -> ExperimentReport:
    """Test accuracy per device and per group. Test labels are keyed on the class names the model
    records (`train` names its outputs by the sorted labeled train scenes), not on the manifest's."""
    if model.config.classes is None:
        raise ContractError("the model records no class names to key test labels on: retrain it")
    data = load_dataset(rows, "test", model.config.classes)
    unlabeled = [r.id for r in data.rows if not r.scene]
    if unlabeled:
        raise ContractError(f"{len(unlabeled)} test rows missing evaluation labels: {unlabeled[:3]}")
    unknown = sorted({r.scene for r in data.rows} - set(data.classes))
    if unknown:
        raise ContractError(f"test scenes not among the train classes: {unknown}")
    _check_device_groups(device_groups, rows)
    preds = predict(model, data.features)

    per_device = {}
    for device in data.devices:
        sel = data.row_devices == device
        per_device[device] = {
            "accuracy": float((preds[sel] == data.labels[sel]).mean()),
            "count": int(sel.sum()),
        }
    groups = {}
    for name, members in (device_groups or {}).items():
        accs = [per_device[d]["accuracy"] for d in members]
        groups[name] = float(np.average(accs, weights=[per_device[d]["count"] for d in members]))
    return ExperimentReport(per_device=per_device, groups=groups)


def _check_device_groups(device_groups, rows):
    """Each group member must be a device with test rows that `evaluate` can score, named once."""
    tested = {r.device for r in rows if r.split == "test" and r.feature_path}
    for name, members in (device_groups or {}).items():
        repeated = sorted({d for d in members if members.count(d) > 1})
        if repeated:
            raise ContractError(f"device group {name} names devices more than once: {repeated}")
        unknown = sorted(set(members) - tested)
        if unknown:
            raise ContractError(f"device group {name} names devices with no test rows: {unknown}")


# ---------------------------------------------------------------------------
# embedding export


def export_embeddings(model: AdversarialModel, rows, n_per_device, seed=0, tsne_iters=500):
    """The t-SNE embedding of the features z of up to `n_per_device` rows per device, and those rows."""
    import warnings

    check("n_per_device", n_per_device, int, ge=5)
    usable = [r for r in rows if r.feature_path]
    if not usable:
        raise ContractError("manifest has no rows with extracted features")
    rng = np.random.default_rng(seed)
    chosen = []
    for device in sorted({r.device for r in usable}):
        pool = [r for r in usable if r.device == device]
        if len(pool) < n_per_device:
            warnings.warn(f"device {device}: only {len(pool)} rows available", RuntimeWarning)
            chosen.extend(pool)
        else:
            picks = rng.choice(len(pool), size=n_per_device, replace=False)
            chosen.extend(pool[i] for i in picks)
    z = _inference(model, load_features([r.feature_path for r in chosen]), lambda fwd: fwd.z.value)
    emb = run_tsne(z, TsneConfig(iters=tsne_iters, seed=seed))
    return emb, chosen


# ---------------------------------------------------------------------------
# lambda sweep


def sweep(config: TrainConfig, rows, index_table):
    """One train+evaluate per grid value; failures are recorded, not fatal.

    Best lambda maximizes held-out *source* accuracy, the rule `train` keeps
    its epoch by, ties to the smaller lambda. Each value's mean target-device
    test accuracy is reported beside it and selects nothing. Targets are the
    devices the index table does not put at 0.
    """
    sources = {d for d, entry in index_table.items() if entry.index == 0}
    results = []
    for lam in config.lambda_grid:
        run_cfg = replace(config, lambda_d=float(lam))
        try:
            outcome = train(run_cfg, rows, index_table)
            report = evaluate(outcome.model, rows, device_groups=config.device_groups)
            target_accs = [v["accuracy"] for d, v in report.per_device.items() if d not in sources]
            results.append({"lambda_d": float(lam), "holdout_accuracy": outcome.report.best_holdout_accuracy,
                            "target_test_accuracy": float(np.mean(target_accs)) if target_accs else 0.0,
                            "report": report, "error": None})
        except (ContractError, NumericError) as exc:
            results.append({"lambda_d": float(lam), "holdout_accuracy": None, "target_test_accuracy": None,
                            "report": None, "error": str(exc)})
    trained = [r for r in results if r["error"] is None]
    best = min(trained, key=lambda r: (-r["holdout_accuracy"], r["lambda_d"])) if trained else None
    return results, best
