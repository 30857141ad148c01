"""Three-head adversarial model and its loss variants.

The feature extractor F (two 3x3 conv/relu/avg-pool blocks, global average
pooling, dense to a 64-d feature z) feeds a scene classifier C (dense to
class logits) and a domain discriminator D (dense 64->32, relu, dense
32->out) through a gradient-reversal node. `forward` builds this one graph,
with no softmax, in every mode; the mode sets only D's width and its loss:

- ``dann``    binary source/target, squared-error loss on the softmax of the
              logits (all targets collapsed to one domain label);
- ``mtda-c1`` plain multi-class domain cross-entropy over M domains;
- ``mtda-c2`` domain cross-entropy weighted per sample by (u+1)/T, so
              harder-to-adapt domains (larger index u) receive larger
              discriminator gradients;
- ``mtda-r``  scalar regression of the domain index with squared error.

F's update direction is the classification loss minus lambda_d times the
domain loss; the reversal node realizes the sign flip in one backward pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from mtda import autodiff as ad
from mtda import checkpoint
from mtda.errors import Checked, ContractError, ShapeError, rule

FEATURE_DIM = 64
DISC_HIDDEN = 32
DEFAULT_T = 10.0


class Mode(str, Enum):
    DANN = "dann"
    MTDA_C1 = "mtda-c1"
    MTDA_C2 = "mtda-c2"
    MTDA_R = "mtda-r"


def head_width(mode: Mode, n_domains: int) -> int:
    if mode is Mode.DANN:
        return 2
    if mode is Mode.MTDA_R:
        return 1
    return n_domains


@dataclass
class ModelConfig(Checked):
    n_classes: int = rule(int, ge=2)
    n_domains: int = rule(int, ge=2)
    mode: Mode = rule(str, among=tuple(m.value for m in Mode))
    conv_channels: tuple = rule(tuple, (4, 8), item=int, size=2, ge=1)

    def __post_init__(self):
        super().__post_init__()
        self.mode = Mode(self.mode)


class AdversarialModel:
    """Parameter store plus mode tag; construction checks every name and shape against the config."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        expected, shapes = param_shapes(config), {k: v.shape for k, v in params.items()}
        wrong = sorted(k for k in expected.keys() | shapes.keys() if expected.get(k) != shapes.get(k))
        if wrong:
            raise ContractError(
                f"parameters {wrong} are missing, extra or misshapen: inconsistent with mode {config.mode.value}"
            )
        for name, arr in params.items():
            if arr.dtype not in (np.float32, np.float64):
                raise ContractError(f"parameter {name} must be float32 or float64, got {arr.dtype}")
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"non-finite parameter {name}")

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "AdversarialModel":
        """Glorot-normal weights, drawn in `param_shapes` order, and zero biases."""
        rng = np.random.default_rng(seed)

        def glorot(*shape):
            fan_in = int(np.prod(shape[1:])) if len(shape) > 2 else shape[0]
            fan_out = shape[0] if len(shape) > 2 else shape[1]
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            return rng.normal(scale=scale, size=shape).astype(dtype)

        shapes = param_shapes(config)
        return cls(config, {k: np.zeros(s, dtype=dtype) if "/b" in k else glorot(*s) for k, s in shapes.items()})

    def save(self, path):
        record = json.dumps(asdict(self.config), sort_keys=True).encode("utf-8")
        checkpoint.save_tensors(path, {"meta/model": np.frombuffer(record, dtype=np.uint8), **self.params})

    @classmethod
    def load(cls, path) -> "AdversarialModel":
        tensors = checkpoint.load_tensors(path)
        record = tensors.pop("meta/model", None)
        if record is None or record.dtype != np.uint8:
            raise ContractError(f"{path}: not a model checkpoint: no uint8 meta/model config record"
                                " (retrain a checkpoint from before the record from its run.json)")
        try:  # bad UTF-8, bad JSON and a config or param the checker rejects are all ValueErrors
            return cls(ModelConfig.from_dict(json.loads(record.tobytes().decode("utf-8"))), tensors)
        except ValueError as exc:
            raise ContractError(f"{path}: {exc}") from None


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter of a model with `config`."""
    c1, c2 = config.conv_channels
    out = head_width(config.mode, config.n_domains)
    return {
        "f/conv1": (c1, 1, 3, 3),
        "f/conv2": (c2, c1, 3, 3),
        "f/w": (c2, FEATURE_DIM),
        "f/b": (FEATURE_DIM,),
        "c/w": (FEATURE_DIM, config.n_classes),
        "c/b": (config.n_classes,),
        "d/w1": (FEATURE_DIM, DISC_HIDDEN),
        "d/b1": (DISC_HIDDEN,),
        "d/w2": (DISC_HIDDEN, out),
        "d/b2": (out,),
    }


@dataclass
class ForwardPass:
    z: ad.Tensor
    y_logits: ad.Tensor  # (n, n_classes) scene logits
    d_out: ad.Tensor  # (n, head_width): domain logits, or the raw (n, 1) index for mtda-r
    leaves: dict = field(default_factory=dict)  # param name -> leaf Tensor


def forward(model: AdversarialModel, x: np.ndarray, lambda_d: float = 1.0) -> ForwardPass:
    """Build the computation graph, in the model's dtype, for a batch x of shape (n, h, w) or (n, 1, h, w)."""
    x = np.asarray(x, dtype=model.params["f/w"].dtype)
    if x.ndim == 3:
        x = x[:, None, :, :]
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError("input must be (n, h, w) or (n, 1, h, w)", x.shape)
    if min(x.shape[2:]) < 4:
        raise ShapeError("feature height and width must be at least 4 (two 2x2 pools)", x.shape)
    leaves = {name: ad.Tensor(arr, requires_grad=True, name=name) for name, arr in model.params.items()}

    h = ad.conv_relu_pool(ad.Tensor(x, name="x"), leaves["f/conv1"])
    h = ad.conv_relu_pool(h, leaves["f/conv2"])
    z = ad.dense(ad.global_avg_pool(h), leaves["f/w"], leaves["f/b"])

    y_logits = ad.dense(z, leaves["c/w"], leaves["c/b"])

    rev = ad.gradient_reversal(z, lambda_d)
    d_hidden = ad.relu(ad.dense(rev, leaves["d/w1"], leaves["d/b1"]))
    d_out = ad.dense(d_hidden, leaves["d/w2"], leaves["d/b2"])
    return ForwardPass(z=z, y_logits=y_logits, d_out=d_out, leaves=leaves)


# ---------------------------------------------------------------------------
# losses


def scene_loss(y_logits: ad.Tensor, y_onehot: np.ndarray, mask_source: np.ndarray) -> ad.Tensor:
    """Mean cross-entropy over labeled (source) rows; unlabeled rows contribute 0."""
    mask = np.asarray(mask_source, dtype=bool)
    n_labeled = int(mask.sum())
    if n_labeled == 0:
        raise ContractError("batch has no source rows")
    # Weight-0 rows contribute neither loss nor gradient, so unlabeled rows
    # just need any valid one-hot placeholder.
    y = np.array(y_onehot, dtype=np.float64)
    y[~mask] = 0.0
    y[~mask, 0] = 1.0
    weights = mask.astype(np.float64) / n_labeled
    return ad.softmax_cross_entropy(y_logits, y, weights)


def dann_domain_loss(d_pred: ad.Tensor, d_binary: np.ndarray) -> ad.Tensor:
    """Squared-error domain loss against the 2-class one-hots (source=[0,1])."""
    d_binary = np.asarray(d_binary, dtype=np.float64)
    if d_binary.ndim != 2 or d_binary.shape[1] != 2 or d_pred.shape != d_binary.shape:
        raise ShapeError("binary domain labels must be (n, 2)", d_pred.shape, d_binary.shape)
    return ad.mse_loss(d_pred, d_binary)


def weighted_domain_ce(d_logits: ad.Tensor, d_onehot: np.ndarray, u: np.ndarray, t: float = DEFAULT_T) -> ad.Tensor:
    """Domain CE with per-sample weight (u+1)/T, mean-reduced over the batch."""
    u = np.asarray(u)
    if np.any(u < 0) or not np.issubdtype(u.dtype, np.integer):
        raise ContractError("domain indices must be non-negative integers")
    if t <= 0:
        raise ContractError("T must be positive")
    n = d_logits.shape[0]
    weights = (u + 1.0) / t / n
    return ad.softmax_cross_entropy(d_logits, np.asarray(d_onehot, dtype=np.float64), weights)


def plain_domain_ce(d_logits: ad.Tensor, d_onehot: np.ndarray) -> ad.Tensor:
    n = d_logits.shape[0]
    return ad.softmax_cross_entropy(d_logits, np.asarray(d_onehot, dtype=np.float64), np.full(n, 1.0 / n))


def regression_domain_loss(d_raw: ad.Tensor, u: np.ndarray) -> ad.Tensor:
    """Mean squared error of the scalar head against real-valued indices."""
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
    if d_raw.shape != u.shape:
        raise ShapeError("regression head must be (n, 1)", d_raw.shape, u.shape)
    return ad.mse_loss(d_raw, u)


def feature_objective(l_y: ad.Tensor, l_d: ad.Tensor, lambda_d: float) -> ad.Tensor:
    """L_y - lambda_d * L_d; in training this is realized by the reversal node."""
    if lambda_d < 0:
        raise ContractError("lambda_d must be >= 0")
    return l_y - lambda_d * l_d


def domain_loss_for_mode(
    mode: Mode, fwd: ForwardPass, batch, t: float = DEFAULT_T, normalize_index: bool = False
) -> ad.Tensor:
    """Dispatch the mode's discriminator loss for a Batch.

    `normalize_index` rescales MTDA-R regression targets to [0, 1]; it keeps
    the regression gradient magnitude comparable to the CE variants so one
    lambda_d works across modes. Off by default: the index is regressed raw.
    """
    if mode is Mode.DANN:
        return dann_domain_loss(ad.softmax(fwd.d_out), batch.d_binary)
    if mode is Mode.MTDA_C1:
        return plain_domain_ce(fwd.d_out, batch.d_onehot)
    if mode is Mode.MTDA_C2:
        return weighted_domain_ce(fwd.d_out, batch.d_onehot, batch.u, t=t)
    targets = batch.u.astype(np.float64)
    if normalize_index:
        targets = targets / max(batch.d_onehot.shape[1] - 1, 1)
    return regression_domain_loss(fwd.d_out, targets)


@dataclass
class Batch:
    """One training minibatch. `y_onehot` rows are meaningful only where
    `source_mask` is set; `u` follows the domain index table (source = 0)."""

    x: np.ndarray
    y_onehot: np.ndarray
    d_onehot: np.ndarray
    u: np.ndarray
    source_mask: np.ndarray

    def __post_init__(self):
        if not np.array_equal(self.source_mask, self.u == 0):
            raise ContractError("source mask must match u == 0")

    @property
    def d_binary(self):
        # DANN collapses all targets to one label: source=[0,1], target=[1,0]
        return np.eye(2)[self.source_mask.astype(int)]


def conditional_mean_oracle(samples) -> dict:
    """Empirical conditional mean of d per discrete z value.

    The squared-error-optimal constant predictor per z; MSE-trained
    discriminators must converge to this table.
    """
    sums: dict = {}
    counts: dict = {}
    for z, d in samples:
        d = np.asarray(d, dtype=np.float64)
        if z in sums:
            sums[z] = sums[z] + d
            counts[z] += 1
        else:
            sums[z] = d.copy()
            counts[z] = 1
    return {z: sums[z] / counts[z] for z in sums}
