"""Minimal feed-forward network: dense layers, batch norm, SGD and Adam.

Enough machinery to train the point-to-center membership head and the
per-point feature MLP, with exact reverse-mode gradients that are verified
against finite differences in the test suite.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .losses import bce_loss

BN_EPS = 1e-8  # keeps normalized batch variance within 1e-6 of 1
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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


@dataclass
class MlpModel:
    layers: list[Layer]
    mode: str = "eval"

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

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
    final_activation: str = "sigmoid",
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
            final_activation if last else hidden_activation,
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
) -> tuple[np.ndarray, list[dict] | None]:
    """Run the network on a (N, in_dim) batch.

    Train mode normalizes with batch statistics (batch size >= 2 required) and
    returns the cache backward() needs; eval mode uses running statistics and
    returns no cache.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"batch must be (N, {model.in_dim}), got {x.shape}")
    train = model.mode == "train"
    if train and x.shape[0] < 2:
        raise ValueError("train-mode batch needs >= 2 rows for batch statistics")
    cache: list[dict] | None = [] if train else None
    for layer in model.layers:
        z = x @ layer.weights.T + layer.bias
        entry = {"x": x, "z": z}
        h = z
        bn = layer.batchnorm
        if bn is not None:
            if train:
                mean = z.mean(axis=0)
                var = z.var(axis=0)  # biased, matching the normalization
                if update_running:
                    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
            else:
                mean, var = bn.running_mean, bn.running_var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mean) * inv_std
            h = bn.gamma * xhat + bn.beta
            entry.update(xhat=xhat, inv_std=inv_std)
        a = _activate(layer.activation, h)
        entry.update(h=h, a=a)
        if train:
            cache.append(entry)
        x = a
    return x, cache


def backward(
    model: MlpModel,
    cache: list[dict],
    dout: np.ndarray,
) -> tuple[list[dict], np.ndarray]:
    """Exact reverse-mode gradients for every parameter plus the input.

    Returns one dict per layer with keys weights/bias (and gamma/beta for
    batch-norm layers), aligned with model.layers.
    """
    if cache is None or len(cache) != len(model.layers):
        raise ValueError("stale or missing forward cache")
    grads: list[dict] = [None] * len(model.layers)
    da = np.asarray(dout, dtype=np.float64)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        ent = cache[i]
        if layer.activation == "relu":
            dh = da * (ent["h"] > 0)
        elif layer.activation == "sigmoid":
            dh = da * ent["a"] * (1.0 - ent["a"])
        else:
            dh = da
        g = {}
        bn = layer.batchnorm
        if bn is not None:
            n = dh.shape[0]
            xhat, inv_std = ent["xhat"], ent["inv_std"]
            g["gamma"] = (dh * xhat).sum(axis=0)
            g["beta"] = dh.sum(axis=0)
            dxhat = dh * bn.gamma
            # Batch statistics feed back into every row of the batch.
            dz = (inv_std / n) * (n * dxhat
                                  - dxhat.sum(axis=0)
                                  - xhat * (dxhat * xhat).sum(axis=0))
        else:
            dz = dh
        g["weights"] = dz.T @ ent["x"]
        g["bias"] = dz.sum(axis=0)
        grads[i] = g
        da = dz @ layer.weights
    return grads, da


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    moments: list[dict] | None = None  # adam first/second moments per layer

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")


def _param_items(layer: Layer) -> list[tuple[str, np.ndarray]]:
    items = [("weights", layer.weights), ("bias", layer.bias)]
    if layer.batchnorm is not None:
        items += [("gamma", layer.batchnorm.gamma), ("beta", layer.batchnorm.beta)]
    return items


def optimizer_step(model: MlpModel, grads: list[dict], state: OptimizerState) -> tuple[MlpModel, OptimizerState]:
    """One SGD or bias-corrected Adam update, in place."""
    for g in grads:
        for arr in g.values():
            if not np.all(np.isfinite(arr)):
                raise ValueError("gradient contains NaN or inf")
    state.step += 1
    if state.kind == "sgd":
        for layer, g in zip(model.layers, grads):
            for name, param in _param_items(layer):
                param -= state.learning_rate * g[name]
        return model, state
    if state.moments is None:
        state.moments = [
            {name: {"m": np.zeros_like(p), "v": np.zeros_like(p)} for name, p in _param_items(layer)}
            for layer in model.layers
        ]
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    for layer, g, mom in zip(model.layers, grads, state.moments):
        for name, param in _param_items(layer):
            m = mom[name]["m"] = ADAM_BETA1 * mom[name]["m"] + (1 - ADAM_BETA1) * g[name]
            v = mom[name]["v"] = ADAM_BETA2 * mom[name]["v"] + (1 - ADAM_BETA2) * g[name] ** 2
            param -= state.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return model, state


def recalibrate_batchnorm(model: MlpModel, features: np.ndarray,
                          chunk: int = 4096) -> None:
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
        for start in range(0, n, chunk):
            h = x[start:start + chunk]
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
