"""Minimal feed-forward network: dense layers, batch norm, SGD and Adam.

Enough machinery to train the point-to-center membership head and the
per-point feature MLP, with exact reverse-mode gradients that are verified
against finite differences in the test suite.

Parameters live in one flat float64 vector, ``MlpModel.params.flat``: layer
by layer, the row-major weights, then the bias and, for a batch-norm layer,
gamma and beta. Every layer's ``weights`` and ``bias`` and its batch norm's
``gamma`` and ``beta`` are views into that vector, so they must be updated in
place, never rebound. Gradients (``backward``) and Adam's two moments use the
same layout, which lets ``optimizer_step`` check and update every parameter
with one elementwise pass. Batch-norm running statistics are not trained and
stay separate arrays.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .losses import bce_loss

BN_EPS = 1e-8  # keeps normalized batch variance within 1e-6 of 1
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
OPTIMIZERS = ("sgd", "adam")
FINAL_ACTIVATION = "sigmoid"  # the output layer emits membership probabilities
RECALIBRATION_CHUNK = 4096  # rows per forward pass when recalibrating batch norm

_ACTIVATIONS = ("none", "relu", "sigmoid")

_MAGIC = b"MPMLP\x00"
_VERSION = 1


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = BN_MOMENTUM


@dataclass
class Layer:
    weights: np.ndarray           # (out, in)
    bias: np.ndarray              # (out,)
    batchnorm: BatchNorm | None = None
    activation: str = "none"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def _param_items(layer: Layer) -> list[tuple[str, np.ndarray]]:
    items = [("weights", layer.weights), ("bias", layer.bias)]
    if layer.batchnorm is not None:
        items += [("gamma", layer.batchnorm.gamma), ("beta", layer.batchnorm.beta)]
    return items


class ParamVector:
    """One flat float64 vector in a model's parameter layout, with per-layer views.

    ``flat`` is the vector; ``self[i]`` maps layer i's parameter names
    (weights, bias, and gamma and beta for a batch-norm layer) to views into
    it, shaped like that layer's arrays.
    """

    def __init__(self, flat: np.ndarray, layout: list[list[tuple[str, int, int, tuple]]]):
        self.flat = flat
        self.layout = layout
        self.layers = [{name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in entries}
                       for entries in layout]

    def like(self, flat: np.ndarray) -> "ParamVector":
        """Views into ``flat``, a vector of the same size, in this layout."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector must be {self.flat.shape}, got {flat.shape}")
        return ParamVector(flat, self.layout)

    def __getitem__(self, i: int) -> dict[str, np.ndarray]:
        return self.layers[i]

    def __iter__(self):
        return iter(self.layers)


@dataclass
class MlpModel:
    """Layers whose trainable arrays are packed into ``params`` on creation."""

    layers: list[Layer]
    mode: str = "eval"
    params: ParamVector = field(init=False, repr=False, compare=False)
    grads: ParamVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        layout, arrays, offset = [], [], 0
        for layer in self.layers:
            entries = []
            for name, arr in _param_items(layer):
                entries.append((name, offset, offset + arr.size, arr.shape))
                arrays.append(np.ravel(arr))
                offset += arr.size
            layout.append(entries)
        self.params = ParamVector(np.concatenate(arrays, dtype=np.float64), layout)
        self.grads = self.params.like(np.zeros_like(self.params.flat))
        for layer, views in zip(self.layers, self.params):
            layer.weights, layer.bias = views["weights"], views["bias"]
            if layer.batchnorm is not None:
                layer.batchnorm.gamma, layer.batchnorm.beta = views["gamma"], views["beta"]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def set_train(self) -> "MlpModel":
        self.mode = "train"
        return self

    def set_eval(self) -> "MlpModel":
        self.mode = "eval"
        return self


def build_mlp(
    dims: list[int],
    batchnorm: bool = True,
    hidden_activation: str = "relu",
    seed: int = 0,
) -> MlpModel:
    """Glorot-uniform initialized MLP; the final layer carries no batch norm."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        limit = np.sqrt(6.0 / (din + dout))
        bn = None
        if batchnorm and not last:
            bn = BatchNorm(np.ones(dout), np.zeros(dout), np.zeros(dout), np.ones(dout))
        layers.append(Layer(
            rng.uniform(-limit, limit, size=(dout, din)),
            np.zeros(dout),
            bn,
            FINAL_ACTIVATION if last else hidden_activation,
        ))
    return MlpModel(layers)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def forward(
    model: MlpModel,
    batch: np.ndarray,
    update_running: bool = True,
) -> tuple[np.ndarray, list[tuple] | None]:
    """Run the network on a (N, in_dim) batch.

    Train mode normalizes with batch statistics (batch size >= 2 required) and
    returns the cache backward() needs, one (input, pre-activation,
    activation, xhat, inv_std) tuple per layer; eval mode uses running
    statistics and returns no cache.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"batch must be (N, {model.in_dim}), got {x.shape}")
    train = model.mode == "train"
    if train and x.shape[0] < 2:
        raise ValueError("train-mode batch needs >= 2 rows for batch statistics")
    cache: list[tuple] | None = [] if train else None
    n = x.shape[0]
    for layer in model.layers:
        z = x @ layer.weights.T + layer.bias
        h = z
        xhat = inv_std = None
        bn = layer.batchnorm
        if bn is not None:
            if train:
                # The steps np.mean and np.var take, with z - mean formed once;
                # the variance is biased, matching the normalization.
                mean = np.add.reduce(z, axis=0) / n
                d = z - mean
                var = np.add.reduce(d * d, axis=0) / n
                if update_running:
                    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
            else:
                d = z - bn.running_mean
                var = bn.running_var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = d * inv_std
            h = bn.gamma * xhat + bn.beta
        a = _activate(layer.activation, h)
        if train:
            cache.append((x, h, a, xhat, inv_std))
        x = a
    return x, cache


def backward(
    model: MlpModel,
    cache: list[tuple],
    dout: np.ndarray,
) -> tuple[ParamVector, np.ndarray]:
    """Exact reverse-mode gradients for every parameter plus the input.

    The parameter gradients are written into ``model.grads``, which is
    returned and which the next call overwrites: ``grads[i]`` holds the
    weights/bias (and gamma/beta for batch-norm layers) gradients of
    ``model.layers[i]``.
    """
    if cache is None or len(cache) != len(model.layers):
        raise ValueError("stale or missing forward cache")
    grads = model.grads
    da = np.asarray(dout, dtype=np.float64)
    for layer, (x, h, a, xhat, inv_std), g in zip(reversed(model.layers), reversed(cache),
                                                  reversed(grads.layers)):
        if layer.activation == "relu":
            dh = da * (h > 0)
        elif layer.activation == "sigmoid":
            dh = da * a * (1.0 - a)
        else:
            dh = da
        bn = layer.batchnorm
        if bn is not None:
            n = dh.shape[0]
            np.add.reduce(dh * xhat, axis=0, out=g["gamma"])
            np.add.reduce(dh, axis=0, out=g["beta"])
            dxhat = dh * bn.gamma
            # Batch statistics feed back into every row of the batch.
            dz = (inv_std / n) * (n * dxhat
                                  - np.add.reduce(dxhat, axis=0)
                                  - xhat * np.add.reduce(dxhat * xhat, axis=0))
        else:
            dz = dh
        np.matmul(dz.T, x, out=g["weights"])
        np.add.reduce(dz, axis=0, out=g["bias"])
        da = dz @ layer.weights
    return grads, da


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    # Adam's first and second moments, (2, P) in the layout of model.params.flat.
    moments: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")


def optimizer_step(model: MlpModel, grads: ParamVector,
                   state: OptimizerState) -> tuple[MlpModel, OptimizerState]:
    """One SGD or bias-corrected Adam update of every parameter, in place."""
    g, param = grads.flat, model.params.flat
    if g.shape != param.shape:
        raise ValueError(f"gradient vector must be {param.shape}, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("gradient contains NaN or inf")
    state.step += 1
    if state.kind == "sgd":
        param -= state.learning_rate * g
        return model, state
    if state.moments is None:
        state.moments = np.zeros((2, param.size))
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    # In place, yet the same products and sums as b1 * m + (1 - b1) * g.
    m, v = state.moments
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g ** 2
    param -= state.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return model, state


def recalibrate_batchnorm(model: MlpModel, features: np.ndarray) -> None:
    """Set running statistics to the full-dataset activation moments.

    The EMA gathered during training reflects batch-level statistics; after
    the weights settle, one calibration pass makes eval-mode normalization
    match the population the network was actually trained on.
    """
    x = np.asarray(features, dtype=np.float64)
    if not any(layer.batchnorm is not None for layer in model.layers) or x.shape[0] < 2:
        return
    # Refresh front to back so deeper layers see inputs normalized with the
    # already-updated statistics of the layers before them.
    n = x.shape[0]
    for i, layer in enumerate(model.layers):
        bn = layer.batchnorm
        if bn is None:
            continue
        mean = np.zeros(layer.out_dim)
        sq = np.zeros(layer.out_dim)
        for start in range(0, n, RECALIBRATION_CHUNK):
            h = x[start:start + RECALIBRATION_CHUNK]
            for j in range(i + 1):
                inner = model.layers[j]
                z = h @ inner.weights.T + inner.bias
                if j == i:
                    mean += z.sum(axis=0)
                    sq += (z * z).sum(axis=0)
                    break
                ib = inner.batchnorm
                if ib is not None:
                    z = ib.gamma * (z - ib.running_mean) / np.sqrt(ib.running_var + BN_EPS) + ib.beta
                h = _activate(inner.activation, z)
        bn.running_mean = mean / n
        bn.running_var = np.maximum(sq / n - (mean / n) ** 2, BN_EPS)


def train_epochs(
    model: MlpModel,
    features: np.ndarray,
    labels: np.ndarray,
    optimizer: OptimizerState,
    epochs: int,
    seed: int = 0,
    batch_size: int = 64,
) -> tuple[MlpModel, list[float]]:
    """BCE training loop, deterministic given the seed.

    One shuffle is drawn from the seed and the resulting batch order is reused
    every epoch, so a zero learning rate yields a perfectly flat loss trace
    even with batch-statistics normalization. After the last epoch the
    batch-norm running statistics are recalibrated over the whole training
    set. Returns the model in eval mode plus the mean per-batch loss of each
    epoch. Batches of fewer than 2 rows are skipped (batch norm needs a
    variance).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature/label count mismatch")
    if np.unique(y).size < 2:
        warnings.warn("training labels contain a single class", RuntimeWarning, stacklevel=2)
    order = np.random.default_rng(seed).permutation(x.shape[0])
    trace: list[float] = []
    model.set_train()
    for _ in range(epochs):
        losses = []
        for start in range(0, order.size, batch_size):
            sel = order[start:start + batch_size]
            if sel.size < 2:
                continue
            out, cache = forward(model, x[sel])
            loss = bce_loss(out.reshape(-1), y[sel])
            losses.append(loss.value)
            grads, _ = backward(model, cache, loss.gradient.reshape(-1, 1))
            optimizer_step(model, grads, optimizer)
        trace.append(float(np.mean(losses)) if losses else 0.0)
    recalibrate_batchnorm(model, x)
    model.set_eval()
    return model, trace


_ACT_CODE = {name: i for i, name in enumerate(_ACTIVATIONS)}


def save_model(model: MlpModel, path) -> None:
    """Versioned little-endian checkpoint; round-trips bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(model.layers)))
        for layer in model.layers:
            fh.write(struct.pack("<IIBB", layer.in_dim, layer.out_dim,
                                 1 if layer.batchnorm else 0, _ACT_CODE[layer.activation]))
        for layer in model.layers:
            for chunk in (layer.weights, layer.bias):
                fh.write(np.ascontiguousarray(chunk, dtype="<f8").tobytes())
            bn = layer.batchnorm
            if bn is not None:
                for chunk in (bn.gamma, bn.beta, bn.running_mean, bn.running_var):
                    fh.write(np.ascontiguousarray(chunk, dtype="<f8").tobytes())
                fh.write(struct.pack("<d", bn.momentum))


def load_model(path) -> MlpModel:
    """Read a ``save_model`` checkpoint; a truncated or corrupt one raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    off = len(_MAGIC)

    def take(size: int) -> int:
        nonlocal off
        if off + size > len(blob):
            raise ValueError(f"truncated checkpoint: {len(blob)} bytes")
        off += size
        return off - size

    version, nlayers = struct.unpack_from("<II", blob, take(8))
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    shapes = []
    for _ in range(nlayers):
        din, dout, has_bn, act = struct.unpack_from("<IIBB", blob, take(10))
        if act >= len(_ACTIVATIONS):
            raise ValueError(f"unknown activation code {act} in checkpoint")
        shapes.append((din, dout, bool(has_bn), _ACTIVATIONS[act]))

    def floats(count: int) -> np.ndarray:
        return np.frombuffer(blob, dtype="<f8", count=count,
                             offset=take(count * 8)).astype(np.float64)

    layers = []
    for din, dout, has_bn, act in shapes:
        w = floats(din * dout).reshape(dout, din)
        b = floats(dout)
        bn = None
        if has_bn:
            gamma, beta, rmean, rvar = (floats(dout) for _ in range(4))
            (momentum,) = struct.unpack_from("<d", blob, take(8))
            bn = BatchNorm(gamma, beta, rmean, rvar, momentum)
        layers.append(Layer(w, b, bn, act))
    if off != len(blob):
        raise ValueError("trailing bytes in checkpoint")
    if not layers:
        raise ValueError("checkpoint holds no layers")
    return MlpModel(layers)
