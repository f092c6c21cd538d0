"""Self-contained multilayer-perceptron engine.

Dense feed-forward networks on numpy with exactly the pieces needed
here: z-score scalers, a handful of activations, MSE training with the
Adam optimizer and per-epoch learning-rate decay, successive-halving
hyperparameter search, and a portable single-file model format.

Determinism and reproducibility drive several choices:

* inference (``forward_batch``; ``forward`` is its one-row case) keeps
  activations feature-major, (features, n), with n zero-padded to a
  multiple of 8, and takes each affine through ``einsum`` with
  optimization disabled: the batch is the inner loop and every output
  sums its inputs in one fixed order, so a batched pass equals a loop
  of single-sample passes to the last bit (BLAS matmul does not);
* training takes all three contractions (the forward affine, the weight
  gradient and the delta passed down a layer) through BLAS ``matmul``,
  and runs Adam on scaled moments, within 1e-12 relative of the textbook.
  No bit-exact contract applies to them: nothing compares training
  activations or gradients across batch sizes.  The tests check that
  one and two OpenBLAS threads train the same model bytes;
* every random draw (init, shuffling, hyperparameter sampling) comes
  from an explicitly seeded generator;
* the model file stores scalers as shortest round-trip decimal text and
  weights as raw little-endian float64, so save/load is bit-exact.

Networks operate in standardized space internally.  ``forward`` and
``forward_batch`` take raw physical inputs, apply the stored input
scaler, run the layers, and undo the output scaler; ``train`` expects
data that has already been standardized with the model's scalers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "Scaler",
    "DenseLayer",
    "Mlp",
    "TrainConfig",
    "SearchSpace",
    "CandidateConfig",
    "TuneResult",
    "TrainingDivergedError",
    "ModelFormatError",
    "ModelValidationError",
    "init_mlp",
    "forward",
    "forward_batch",
    "train",
    "sample_configs",
    "tune",
    "save_model",
    "load_model",
    "MODEL_FORMAT_ID",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_ID = "CHFKIT-MLP"
MODEL_FORMAT_VERSION = 1

MODES = ("direct", "residual")
BASE_MODELS = ("none", "biasi", "bowring")


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _elu(z: np.ndarray) -> np.ndarray:
    out = z.copy()
    neg = z <= 0.0
    out[neg] = np.expm1(z[neg])
    return out


def _elu_prime(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    neg = z <= 0.0
    out[neg] = np.exp(z[neg])
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow for large z
    return np.logaddexp(0.0, z)


# name -> (f(z), df(z, a)), both elementwise; the derivative gets the
# pre-activation z and the activation a = f(z) the forward pass kept, and
# tanh and sigmoid take it from a instead of evaluating f again
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(z.dtype)),
    "elu": (_elu, _elu_prime),
    "softplus": (_softplus, lambda z, a: _sigmoid(z)),
    "sigmoid": (_sigmoid, lambda z, a: a * (1.0 - a)),
    "tanh": (np.tanh, lambda z, a: 1.0 - a**2),
}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class TrainingDivergedError(RuntimeError):
    """Loss, or Adam's second moment, became non-finite during training."""

    def __init__(self, epoch: int, batch: int, lr: float,
                 what: str = "training loss became non-finite"):
        super().__init__(f"{what} at epoch {epoch}, batch {batch}, lr {lr:g}")
        self.epoch = epoch
        self.batch = batch
        self.lr = lr


class ModelFormatError(ValueError):
    """Model file cannot be parsed; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ModelValidationError(ValueError):
    """Parsed model violates a structural invariant."""


@dataclass
class Scaler:
    """Per-feature z-score transform with population (1/N) statistics."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError(
                f"scaler mean/std must be matching 1-D arrays, got "
                f"{self.mean.shape} and {self.std.shape}"
            )
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ModelValidationError("scaler mean and std entries must be finite")
        if np.any(self.std <= 0.0):
            raise ValueError("scaler std entries must be positive")

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, n_features: int) -> "Scaler":
        return cls(np.zeros(n_features), np.ones(n_features))

    @staticmethod
    def constant_columns(x: np.ndarray) -> np.ndarray:
        """Mask of the columns of x that ``fit`` gives std 1.

        These hold a single value, or spread so little that their std
        underflows to 0.  The extremes are compared because the computed
        std of a single-valued column is rounding noise (1.4e-17 for
        three rows of 0.1) unless its mean rounds back to the value.
        """
        return (x.min(axis=0) == x.max(axis=0)) | (x.std(axis=0) == 0.0)

    @classmethod
    def fit(cls, x: np.ndarray) -> "Scaler":
        """Fit to the rows of x; constant columns get std 1 and a warning."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"need a nonempty 2-D array to fit a scaler, got shape {x.shape}")
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population convention
        flat = cls.constant_columns(x)
        if np.any(flat):
            warnings.warn(
                f"constant feature column(s) {np.flatnonzero(flat).tolist()}: "
                "std set to 1",
                stacklevel=2,
            )
            std = np.where(flat, 1.0, std)
        return cls(mean, std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


@dataclass
class DenseLayer:
    """Fully connected layer: out = activation(weights @ x + bias)."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias length {self.bias.shape} does not match output dim "
                f"{self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of "
                f"{sorted(ACTIVATIONS)}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    """A dense network plus the scalers and metadata it was trained with.

    ``mode`` is "direct" (the output is the physical target itself) or
    "residual" (the output is a correction added to ``base_model``, one
    of "biasi"/"bowring").
    """

    layers: list[DenseLayer]
    input_scaler: Scaler
    output_scaler: Scaler
    mode: str = "direct"
    base_model: str = "none"
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelValidationError("network needs at least one layer")
        for k, layer in enumerate(self.layers):
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
                raise ModelValidationError(f"layer {k} has a non-finite weight or bias")
        for k, (a, b) in enumerate(zip(self.layers, self.layers[1:])):
            if b.in_dim != a.out_dim:
                raise ModelValidationError(
                    f"layer {k + 1} expects {b.in_dim} inputs but layer {k} "
                    f"produces {a.out_dim}"
                )
        last = self.layers[-1]
        if last.out_dim != 1:
            raise ModelValidationError(
                f"layer {len(self.layers) - 1} must have a single output, "
                f"got {last.out_dim}"
            )
        if last.activation != "identity":
            raise ModelValidationError(
                f"layer {len(self.layers) - 1} must use the identity "
                f"activation, got {last.activation!r}"
            )
        if self.input_scaler.n_features != self.layers[0].in_dim:
            raise ModelValidationError(
                f"input scaler covers {self.input_scaler.n_features} features "
                f"but layer 0 expects {self.layers[0].in_dim}"
            )
        if self.output_scaler.n_features != 1:
            raise ModelValidationError("output scaler must cover exactly one value")
        if self.mode not in MODES:
            raise ModelValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.base_model not in BASE_MODELS:
            raise ModelValidationError(
                f"base_model must be one of {BASE_MODELS}, got {self.base_model!r}"
            )
        if (self.mode == "residual") != (self.base_model != "none"):
            raise ModelValidationError(
                f"mode {self.mode!r} is inconsistent with base_model {self.base_model!r}"
            )
        if self.feature_names and len(self.feature_names) != self.layers[0].in_dim:
            raise ModelValidationError(
                f"{len(self.feature_names)} feature names for "
                f"{self.layers[0].in_dim} inputs"
            )

    @property
    def n_inputs(self) -> int:
        return self.layers[0].in_dim

    def copy(self) -> "Mlp":
        return Mlp(
            layers=[
                DenseLayer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers
            ],
            input_scaler=Scaler(self.input_scaler.mean.copy(), self.input_scaler.std.copy()),
            output_scaler=Scaler(self.output_scaler.mean.copy(), self.output_scaler.std.copy()),
            mode=self.mode,
            base_model=self.base_model,
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class TrainConfig:
    """MSE/Adam training schedule.

    The learning rate for epoch e is ``lr0 * decay_rate**e``; batches
    are drawn in a freshly shuffled order every epoch from a generator
    seeded with ``seed``.
    """

    epochs: int = 500
    batch_size: int = 32
    lr0: float = 1e-3
    decay_rate: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.epochs <= 100_000:
            raise ValueError(f"epochs must be in [1, 100000], got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0.0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError(f"decay_rate must be in (0, 1], got {self.decay_rate}")


# ---------------------------------------------------------------------------
# Construction and forward passes
# ---------------------------------------------------------------------------

def init_mlp(
    n_inputs: int,
    hidden_widths: Sequence[int],
    activation: str,
    seed: int,
    input_scaler: Scaler | None = None,
    output_scaler: Scaler | None = None,
    mode: str = "direct",
    base_model: str = "none",
    feature_names: Sequence[str] = (),
) -> Mlp:
    """Fresh network with Glorot-uniform weights and zero biases.

    Hidden layers all use ``activation``; the single-output final layer
    is linear.  Weights for a (fan_in, fan_out) layer are drawn
    uniformly from +-sqrt(6 / (fan_in + fan_out)).
    """
    rng = np.random.default_rng(seed)
    widths = [n_inputs, *hidden_widths, 1]
    acts = [activation] * len(hidden_widths) + ["identity"]
    layers = []
    for fan_in, fan_out, act in zip(widths[:-1], widths[1:], acts):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return Mlp(
        layers=layers,
        input_scaler=input_scaler or Scaler.identity(n_inputs),
        output_scaler=output_scaler or Scaler.identity(1),
        mode=mode,
        base_model=base_model,
        feature_names=tuple(feature_names),
    )


def _forward_std(layers: Sequence[DenseLayer], z: np.ndarray) -> np.ndarray:
    # feature-major (features, n) with n zero-padded to a multiple of 8:
    # einsum then runs the batch as its inner loop and sums each output
    # over the inputs in a fixed order, whatever n is
    n = z.shape[0]
    h = np.zeros((z.shape[1], n + -n % 8))
    h[:, :n] = z.T
    for layer in layers:
        s = np.einsum("oi,in->on", layer.weights, h, optimize=False)
        s += layer.bias[:, None]
        h = ACTIVATIONS[layer.activation][0](s)
    return h[0, :n]


def forward_batch(m: Mlp, x: np.ndarray) -> np.ndarray:
    """Physical-unit predictions for a batch of raw inputs, shape (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.n_inputs:
        raise ValueError(f"expected shape (n, {m.n_inputs}), got {x.shape}")
    z = m.input_scaler.transform(x)
    out = _forward_std(m.layers, z)
    return out * m.output_scaler.std[0] + m.output_scaler.mean[0]


def forward(m: Mlp, x: Sequence[float]) -> float:
    """Physical-unit prediction for one raw input vector."""
    return float(forward_batch(m, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _loss_and_grads(
    layers: Sequence[DenseLayer], z: np.ndarray, y: np.ndarray,
    grads: Sequence[tuple[np.ndarray, np.ndarray]],
) -> float:
    """MSE over the batch in standardized space; writes its gradient for
    every layer into that layer's (weights, bias) pair of ``grads``."""
    n = z.shape[0]
    pre = []
    post = [z]
    for layer in layers:
        s = np.matmul(post[-1], layer.weights.T)
        s += layer.bias
        pre.append(s)
        post.append(ACTIVATIONS[layer.activation][0](s))
    err = post[-1][:, 0] - y
    loss = float(np.add.reduce(np.square(err))) / n  # np.mean's bits

    delta = (2.0 / n) * err.reshape(-1, 1)  # the output layer is linear (Mlp checks)
    for k in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[k]
        np.matmul(delta.T, post[k], out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if k > 0:
            delta = delta @ layers[k].weights
            delta *= ACTIVATIONS[layers[k - 1].activation][1](pre[k - 1], post[k])
    return loss


def _views(flat: np.ndarray, layers: Sequence[DenseLayer]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) views into ``flat``, laid out layer after layer."""
    out, at = [], 0
    for layer in layers:
        n_w = layer.weights.size
        out.append((flat[at : at + n_w].reshape(layer.weights.shape),
                    flat[at + n_w : at + n_w + layer.out_dim]))
        at += n_w + layer.out_dim
    return out


def _adam_step(theta: np.ndarray, grad: np.ndarray, mom: np.ndarray, vel: np.ndarray,
               tmp: np.ndarray, step: int, lr: float) -> None:
    """Adam step ``step`` (from 1) on ``theta`` in place in 10 passes; ``tmp`` is scratch.

    ``mom``/``vel`` hold m/(1-beta1) and v/(1-beta2); with r = sqrt((1-beta2)/c2),
    lr*(m/c1)/(sqrt(v/c2)+eps) = lr*(1-beta1)/(c1*r) * mom/(sqrt(vel)+eps/r).
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    r = math.sqrt((1.0 - beta2) / (1.0 - beta2**step))
    mom *= beta1
    mom += grad
    vel *= beta2
    vel += np.square(grad, out=tmp)
    np.sqrt(vel, out=tmp)
    tmp += eps / r
    np.divide(mom, tmp, out=tmp)
    tmp *= lr * (1.0 - beta1) / ((1.0 - beta1**step) * r)
    theta -= tmp


def train(
    m: Mlp, x_std: np.ndarray, y_std: np.ndarray, cfg: TrainConfig
) -> tuple[Mlp, list[float]]:
    """Adam/MSE training on pre-standardized data.

    ``x_std``/``y_std`` must already be in the model's standardized
    space (transform raw data with ``m.input_scaler``/``m.output_scaler``
    first).  Works on a private copy; the input network is untouched.
    Returns the trained network and the per-epoch mean batch loss.

    Raises TrainingDivergedError the moment a batch loss stops being
    finite, reporting epoch, batch and current learning rate, and at the
    end of an epoch in which Adam's second moment overflowed (an infinite
    entry freezes its weight for good).  Adam keeps scaled moments
    (``_adam_step``): within 1e-12 of the textbook update.
    """
    x_std = np.asarray(x_std, dtype=np.float64)
    y_std = np.asarray(y_std, dtype=np.float64).reshape(-1)
    if x_std.ndim != 2 or x_std.shape[0] != y_std.shape[0]:
        raise ValueError(
            f"inconsistent training data shapes {x_std.shape} and {y_std.shape}"
        )
    if x_std.shape[1] != m.n_inputs:
        raise ValueError(f"expected {m.n_inputs} features, got {x_std.shape[1]}")

    # every weight and bias lives in one flat vector (the layers hold
    # views into it), so one Adam update per step covers the network
    out = m.copy()
    layers = out.layers
    theta = np.concatenate([a.ravel() for l in layers for a in (l.weights, l.bias)])
    for layer, (w, b) in zip(layers, _views(theta, layers)):
        layer.weights, layer.bias = w, b
    grad = np.empty_like(theta)
    grads = _views(grad, layers)
    rng = np.random.default_rng(cfg.seed)
    mom, vel, tmp = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)
    step = 0
    n, bs = x_std.shape[0], cfg.batch_size
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr0 * cfg.decay_rate**epoch
        order = rng.permutation(n)
        xs, ys = x_std[order], y_std[order]  # batches are contiguous slices
        batch_losses = []
        for b0 in range(0, n, bs):
            loss = _loss_and_grads(layers, xs[b0 : b0 + bs], ys[b0 : b0 + bs], grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, b0 // bs, lr)
            batch_losses.append(loss)
            step += 1
            _adam_step(theta, grad, mom, vel, tmp, step, lr)
        if not math.isfinite(vel.max()):  # vel >= 0, and max propagates NaN
            raise TrainingDivergedError(epoch, b0 // bs, lr, "Adam's second moment overflowed")
        trace.append(float(np.mean(batch_losses)))
    for layer in layers:  # the returned layers own their arrays
        layer.weights, layer.bias = layer.weights.copy(), layer.bias.copy()
    return out, trace


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for the successive-halving search."""

    depths: tuple[int, ...] = (4, 5, 6, 7, 8)
    width_range: tuple[int, int] = (10, 70)
    batch_sizes: tuple[int, ...] = (8, 16, 32, 64)
    lr_range: tuple[float, float] = (1e-4, 1e-2)
    activations: tuple[str, ...] = ("elu", "relu", "softplus", "sigmoid", "tanh")


@dataclass(frozen=True)
class CandidateConfig:
    hidden_widths: tuple[int, ...]
    activation: str
    batch_size: int
    lr0: float


@dataclass(frozen=True)
class TuneResult:
    candidate: CandidateConfig
    score: float
    epochs_trained: int
    rungs: tuple[tuple[int, tuple[float, ...]], ...]


def sample_configs(space: SearchSpace, n: int, seed: int) -> list[CandidateConfig]:
    """Draw n candidates from the space, log-uniform in learning rate."""
    rng = np.random.default_rng(seed)
    out = []
    lo, hi = math.log10(space.lr_range[0]), math.log10(space.lr_range[1])
    for _ in range(n):
        depth = int(rng.choice(space.depths))
        widths = tuple(
            int(w) for w in rng.integers(space.width_range[0], space.width_range[1] + 1, depth)
        )
        act = str(rng.choice(space.activations))
        batch = int(rng.choice(space.batch_sizes))
        lr0 = float(10.0 ** rng.uniform(lo, hi))
        out.append(CandidateConfig(widths, act, batch, lr0))
    return out


def candidate_seed(seed: int, index: int) -> int:
    """Stable per-candidate seed used for both init and shuffling."""
    return seed * 100_003 + index


def _fit_and_score(
    cand: CandidateConfig,
    cseed: int,
    epochs: int,
    decay_rate: float,
    x_fit: np.ndarray,
    y_fit: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
) -> float:
    net = init_mlp(x_fit.shape[1], cand.hidden_widths, cand.activation, seed=cseed)
    cfg = TrainConfig(
        epochs=epochs, batch_size=cand.batch_size, lr0=cand.lr0,
        decay_rate=decay_rate, seed=cseed,
    )
    try:
        fitted, _ = train(net, x_fit, y_fit, cfg)
    except TrainingDivergedError:
        return float("inf")
    pred = _forward_std(fitted.layers, x_val)
    return float(np.mean((pred - y_val) ** 2))


# each rung keeps the best 1/_REDUCTION of its candidates and trains them
# _REDUCTION times longer; _VAL_FRACTION of the rows is held out to score
_REDUCTION = 3
_VAL_FRACTION = 0.2


def tune(
    space: SearchSpace,
    x_std: np.ndarray,
    y_std: np.ndarray,
    budget: int,
    n_configs: int = 16,
    rung0_epochs: int = 10,
    decay_rate: float = 0.99,
    seed: int = 0,
) -> TuneResult:
    """Successive-halving search over sampled candidates.

    ``budget`` is a total-epochs allowance.  Rung k trains every
    surviving candidate from scratch for ``rung0_epochs * _REDUCTION**k``
    epochs and keeps the top third by validation MSE on an internal split
    (``_VAL_FRACTION`` of the rows) carved from the supplied
    (standardized) training data.  The search stops when one survivor
    remains or the next rung no longer fits the budget; the winner is the
    best scorer of the last rung.
    """
    x_std = np.asarray(x_std, dtype=np.float64)
    y_std = np.asarray(y_std, dtype=np.float64).reshape(-1)
    if n_configs < 1:
        raise ValueError(f"n_configs must be >= 1, got {n_configs}")
    if budget < n_configs * rung0_epochs:
        raise ValueError(
            f"budget {budget} cannot cover one {rung0_epochs}-epoch rung of "
            f"{n_configs} candidates"
        )
    n = x_std.shape[0]
    n_val = max(1, int(n * _VAL_FRACTION))
    if n_val >= n:
        raise ValueError(f"{n} samples are too few to carve a validation split")
    order = np.random.default_rng(seed).permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    x_fit, y_fit = x_std[fit_idx], y_std[fit_idx]
    x_val, y_val = x_std[val_idx], y_std[val_idx]

    candidates = sample_configs(space, n_configs, seed)
    survivors = list(range(n_configs))
    remaining = budget
    rung = 0
    rung_trace: list[tuple[int, tuple[float, ...]]] = []
    last_scores: dict[int, float] = {}
    epochs_last = 0
    while True:
        epochs_k = rung0_epochs * _REDUCTION**rung
        cost = len(survivors) * epochs_k
        if cost > remaining:
            break
        scores = {
            i: _fit_and_score(
                candidates[i], candidate_seed(seed, i), epochs_k, decay_rate,
                x_fit, y_fit, x_val, y_val,
            )
            for i in survivors
        }
        remaining -= cost
        rung_trace.append((epochs_k, tuple(scores[i] for i in survivors)))
        last_scores = scores
        epochs_last = epochs_k
        if len(survivors) == 1:
            break
        ranked = sorted(survivors, key=lambda i: (scores[i], i))
        survivors = ranked[: max(1, math.ceil(len(survivors) / _REDUCTION))]
        rung += 1

    winner = min(last_scores, key=lambda i: (last_scores[i], i))
    return TuneResult(
        candidate=candidates[winner],
        score=last_scores[winner],
        epochs_trained=epochs_last,
        rungs=tuple(rung_trace),
    )


# ---------------------------------------------------------------------------
# Portable model format
# ---------------------------------------------------------------------------
#
# Text header terminated by an "end_header" line, then one little-endian
# float64 block per layer (row-major weights, then bias).  Scalar values
# in the header use shortest round-trip decimal text, so a save/load
# cycle is bit-exact.

_HEADER_END = b"end_header\n"


def _fmt_floats(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_model(m: Mlp, path: str) -> None:
    """Write the network to ``path`` in the portable single-file format."""
    for name in m.feature_names:
        if "," in name or "\n" in name:
            raise ValueError(f"feature name {name!r} may not contain commas or newlines")
    lines = [
        f"{MODEL_FORMAT_ID} {MODEL_FORMAT_VERSION}",
        f"mode: {m.mode}",
        f"base_model: {m.base_model}",
        "features: " + ",".join(m.feature_names),
        "input_mean: " + _fmt_floats(m.input_scaler.mean),
        "input_std: " + _fmt_floats(m.input_scaler.std),
        "output_mean: " + _fmt_floats(m.output_scaler.mean),
        "output_std: " + _fmt_floats(m.output_scaler.std),
        "layers: " + ", ".join(
            f"{l.in_dim}->{l.out_dim} {l.activation}" for l in m.layers
        ),
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(_HEADER_END)
        for layer in m.layers:
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _parse_floats(text: str, what: str, offset: int) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ModelFormatError(f"unparseable float list in {what!r}", offset) from None


def load_model(path: str) -> Mlp:
    """Read a model written by save_model.

    Raises ModelFormatError (with a byte offset) for malformed files or
    unknown format versions, and ModelValidationError when the parsed
    network violates a structural invariant or holds a non-finite weight,
    bias or scaler entry.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(_HEADER_END)
    if cut < 0:
        raise ModelFormatError("missing end_header line", 0)
    body = blob[cut + len(_HEADER_END):]
    try:
        header = blob[:cut].decode("ascii")
    except UnicodeDecodeError as e:
        raise ModelFormatError("header is not ASCII text", e.start) from None

    lines = header.split("\n")
    offsets = []
    pos = 0
    for line in lines:
        offsets.append(pos)
        pos += len(line) + 1

    first = lines[0].split()
    if len(first) != 2 or first[0] != MODEL_FORMAT_ID:
        raise ModelFormatError(f"not a {MODEL_FORMAT_ID} file", 0)
    if first[1] != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(
            f"unsupported format version {first[1]!r} (supported: {MODEL_FORMAT_VERSION})", 0
        )

    fields: dict[str, str] = {}
    field_offsets: dict[str, int] = {}
    for line, off in zip(lines[1:], offsets[1:]):
        if not line:
            continue
        if ": " not in line and not line.endswith(":"):
            raise ModelFormatError(f"malformed header line {line!r}", off)
        key, _, value = line.partition(":")
        key = key.strip()
        if key in fields:
            raise ModelFormatError(f"duplicate header field {key!r}", off)
        fields[key] = value.strip()
        field_offsets[key] = off

    required = (
        "mode", "base_model", "features", "input_mean", "input_std",
        "output_mean", "output_std", "layers",
    )
    for key in required:
        if key not in fields:
            raise ModelFormatError(f"missing header field {key!r}", cut)
    unknown = set(fields) - set(required)
    if unknown:
        key = sorted(unknown)[0]
        raise ModelFormatError(f"unknown header field {key!r}", field_offsets[key])

    layer_specs = []
    for part in fields["layers"].split(","):
        bits = part.split()
        if len(bits) != 2 or "->" not in bits[0]:
            raise ModelFormatError(
                f"malformed layer spec {part.strip()!r}", field_offsets["layers"]
            )
        dims, act = bits
        try:
            in_dim, out_dim = (int(v) for v in dims.split("->"))
        except ValueError:
            raise ModelFormatError(
                f"malformed layer dims {dims!r}", field_offsets["layers"]
            ) from None
        layer_specs.append((in_dim, out_dim, act))

    layers = []
    cursor = 0
    for k, (in_dim, out_dim, act) in enumerate(layer_specs):
        need = (in_dim * out_dim + out_dim) * 8
        if cursor + need > len(body):
            raise ModelFormatError(
                f"weight block for layer {k} is truncated "
                f"(need {need} bytes, have {len(body) - cursor})",
                cut + len(_HEADER_END) + cursor,
            )
        w = np.frombuffer(
            body, dtype="<f8", count=in_dim * out_dim, offset=cursor
        ).reshape(out_dim, in_dim).copy()
        cursor += in_dim * out_dim * 8
        b = np.frombuffer(body, dtype="<f8", count=out_dim, offset=cursor).copy()
        cursor += out_dim * 8
        if act not in ACTIVATIONS:
            raise ModelValidationError(
                f"layer {k} uses unknown activation {act!r}"
            )
        layers.append(DenseLayer(w, b, act))
    if cursor != len(body):
        raise ModelFormatError(
            f"{len(body) - cursor} trailing bytes after the last layer",
            cut + len(_HEADER_END) + cursor,
        )

    features = tuple(v for v in fields["features"].split(",") if v)
    try:
        net = Mlp(
            layers=layers,
            input_scaler=Scaler(
                _parse_floats(fields["input_mean"], "input_mean", field_offsets["input_mean"]),
                _parse_floats(fields["input_std"], "input_std", field_offsets["input_std"]),
            ),
            output_scaler=Scaler(
                _parse_floats(fields["output_mean"], "output_mean", field_offsets["output_mean"]),
                _parse_floats(fields["output_std"], "output_std", field_offsets["output_std"]),
            ),
            mode=fields["mode"],
            base_model=fields["base_model"],
            feature_names=features,
        )
    except ModelValidationError:
        raise
    except ValueError as e:
        raise ModelValidationError(str(e)) from None
    return net
