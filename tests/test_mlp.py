import struct

import numpy as np
import pytest

from modalpanoptic.losses import bce_loss
from modalpanoptic.mlp import (
    BatchNorm,
    Layer,
    MlpModel,
    OptimizerState,
    backward,
    build_mlp,
    forward,
    load_model,
    optimizer_step,
    save_model,
    train_epochs,
)

from oracles import fd_gradient, rel_err, train_epochs_reference


def linear_model(weights, bias=None, activation="none"):
    w = np.asarray(weights, dtype=float)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=float)
    return MlpModel([Layer(w, b, None, activation)])


def forward_oracle(model, x):
    """Independent eval-mode forward using explicit loops over layers."""
    h = np.asarray(x, dtype=float)
    for layer in model.layers:
        z = np.empty((h.shape[0], layer.out_dim))
        for i in range(h.shape[0]):
            for j in range(layer.out_dim):
                z[i, j] = float(np.dot(layer.weights[j], h[i]) + layer.bias[j])
        if layer.batchnorm is not None:
            bn = layer.batchnorm
            z = bn.gamma * (z - bn.running_mean) / np.sqrt(bn.running_var + 1e-8) + bn.beta
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            z = 1.0 / (1.0 + np.exp(-z))
        h = z
    return h


class TestForward:
    def test_identity_layer(self):
        model = linear_model(np.eye(3))
        x = np.random.default_rng(0).normal(size=(4, 3))
        out, cache = forward(model, x)
        np.testing.assert_array_equal(out, x)
        assert cache is None  # eval mode by default

    def test_relu(self):
        model = linear_model(np.eye(2), activation="relu")
        out, _ = forward(model, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_matches_matrix_oracle(self):
        model = build_mlp([5, 7, 6, 4, 2], seed=1)
        # Give the running stats some structure so eval mode is nontrivial.
        for layer in model.layers:
            if layer.batchnorm is not None:
                rng = np.random.default_rng(layer.out_dim)
                layer.batchnorm.running_mean = rng.normal(size=layer.out_dim)
                layer.batchnorm.running_var = rng.uniform(0.5, 2.0, size=layer.out_dim)
        x = np.random.default_rng(2).normal(size=(6, 5))
        out, _ = forward(model, x)
        np.testing.assert_allclose(out, forward_oracle(model, x), atol=1e-10)

    def test_train_mode_needs_two_rows(self):
        model = build_mlp([3, 4, 1], seed=0).set_train()
        with pytest.raises(ValueError):
            forward(model, np.zeros((1, 3)))

    def test_dimension_mismatch(self):
        model = build_mlp([3, 4, 1], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 5)))

    def test_eval_forward_is_pure(self):
        model = build_mlp([4, 8, 1], seed=3)
        x = np.random.default_rng(4).normal(size=(5, 4))
        a, _ = forward(model, x)
        b, _ = forward(model, x)
        np.testing.assert_array_equal(a, b)


class TestBatchNormBehavior:
    def test_normalized_statistics(self):
        model = MlpModel([Layer(np.eye(6), np.zeros(6),
                                BatchNorm(np.ones(6), np.zeros(6), np.zeros(6), np.ones(6)),
                                "none")]).set_train()
        x = np.random.default_rng(5).normal(loc=3.0, scale=2.5, size=(64, 6))
        out, _ = forward(model, x)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6


def model_param_arrays(model):
    for layer in model.layers:
        yield layer, "weights", layer.weights
        yield layer, "bias", layer.bias
        if layer.batchnorm is not None:
            yield layer, "gamma", layer.batchnorm.gamma
            yield layer, "beta", layer.batchnorm.beta


class TestBackward:
    def loss_of(self, model, x, y):
        model.set_train()
        out, cache = forward(model, x, update_running=False)
        return bce_loss(out.reshape(-1), y), cache, out

    def test_zero_output_gradient(self):
        model = build_mlp([3, 5, 1], seed=6).set_train()
        x = np.random.default_rng(7).normal(size=(4, 3))
        _, cache = forward(model, x)
        grads, dx = backward(model, cache, np.zeros((4, 1)))
        for g in grads:
            assert all(np.all(v == 0) for v in g.values())
        assert np.all(dx == 0)

    def test_linear_weight_gradient_closed_form(self):
        model = linear_model(np.random.default_rng(8).normal(size=(3, 4)))
        model.set_train()
        x = np.random.default_rng(9).normal(size=(5, 4))
        _, cache = forward(model, x)
        dout = np.random.default_rng(10).normal(size=(5, 3))
        grads, _ = backward(model, cache, dout)
        np.testing.assert_allclose(grads[0]["weights"], dout.T @ x, atol=1e-12)
        np.testing.assert_allclose(grads[0]["bias"], dout.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("dims,bn,act", [
        ([4, 3, 1], False, "none"),
        ([4, 6, 1], True, "none"),
        ([4, 6, 5, 1], True, "relu"),
    ])
    def test_all_parameters_match_finite_differences(self, dims, bn, act):
        rng = np.random.default_rng(11)
        model = build_mlp(dims, batchnorm=bn, hidden_activation=act, seed=12)
        x = rng.normal(size=(8, dims[0]))
        y = rng.integers(0, 2, size=8).astype(float)
        loss, cache, out = self.loss_of(model, x, y)
        grads, _ = backward(model, cache, loss.gradient.reshape(-1, 1))
        for li, layer in enumerate(model.layers):
            for _, name, param in [t for t in model_param_arrays(model) if t[0] is layer]:
                def scalar_loss(arr, name=name, param=param):
                    saved = param.copy()
                    param[...] = arr
                    value = self.loss_of(model, x, y)[0].value
                    param[...] = saved
                    return value
                fd = fd_gradient(scalar_loss, param.copy())
                assert rel_err(grads[li][name], fd, floor=1e-7) < 1e-4, (li, name)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        model = build_mlp([3, 5, 1], seed=14)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        loss, cache, _ = self.loss_of(model, x, y)
        _, dx = backward(model, cache, loss.gradient.reshape(-1, 1))

        def loss_of_x(arr):
            model.set_train()
            out, _ = forward(model, arr, update_running=False)
            return bce_loss(out.reshape(-1), y).value

        fd = fd_gradient(loss_of_x, x.copy())
        assert rel_err(dx, fd, floor=1e-7) < 1e-4

    def test_stale_cache_rejected(self):
        model = build_mlp([3, 4, 1], seed=15)
        with pytest.raises(ValueError):
            backward(model, None, np.zeros((2, 1)))


class TestOptimizer:
    def scalar_model(self, theta=0.0):
        return MlpModel([Layer(np.array([[theta]]), np.zeros(1), None, "none")])

    def test_sgd_step(self):
        model = self.scalar_model(0.0)
        state = OptimizerState("sgd", learning_rate=0.1)
        optimizer_step(model, model.params.like(np.array([1.0, 0.0])), state)
        np.testing.assert_allclose(model.layers[0].weights, [[-0.1]])

    def test_adam_first_step_is_about_lr(self):
        model = self.scalar_model(0.0)
        state = OptimizerState("adam", learning_rate=1e-3)
        optimizer_step(model, model.params.like(np.array([1.0, 0.0])), state)
        assert abs(model.layers[0].weights[0, 0] + 1e-3) < 1e-6

    def test_zero_gradient_no_motion(self):
        for kind in ("sgd", "adam"):
            model = self.scalar_model(0.7)
            state = OptimizerState(kind, learning_rate=0.1)
            optimizer_step(model, model.params.like(np.zeros(2)), state)
            assert abs(model.layers[0].weights[0, 0] - 0.7) < 1e-9

    def test_nan_gradient_rejected(self):
        model = self.scalar_model()
        state = OptimizerState("sgd", learning_rate=0.1)
        with pytest.raises(ValueError):
            optimizer_step(model, model.params.like(np.array([float("nan"), 0.0])), state)


class TestFlatStepAgainstReference:
    """The flat-buffer step against the loop that keeps one dict per layer."""

    @pytest.mark.parametrize("kind,lr", [("sgd", 5e-2), ("adam", 1e-2)])
    @pytest.mark.parametrize("batchnorm", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "none"])
    def test_byte_equal(self, kind, lr, batchnorm, activation):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(3 * 16 + 1, 5))  # batches of 16 leave a 1-row remainder
        y = (x[:, 0] + 0.5 * rng.normal(size=len(x)) > 0).astype(float)
        got_model, got = train_epochs(
            build_mlp([5, 7, 6, 1], batchnorm, activation, seed=41), x, y,
            OptimizerState(kind, lr), epochs=3, seed=42, batch_size=16)
        want_model, want = train_epochs_reference(
            build_mlp([5, 7, 6, 1], batchnorm, activation, seed=41), x, y,
            kind, lr, epochs=3, seed=42, batch_size=16)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got[0] != got[-1]
        for a, b in zip(got_model.layers, want_model.layers):
            assert (a.batchnorm is None) == (b.batchnorm is None)
            pairs = [(a.weights, b.weights), (a.bias, b.bias)]
            if a.batchnorm is not None:
                pairs += [(getattr(a.batchnorm, k), getattr(b.batchnorm, k))
                          for k in ("gamma", "beta", "running_mean", "running_var")]
            for u, v in pairs:
                assert u.shape == v.shape and u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_in_any_layer_segment_rejected(self, bad):
        model = build_mlp([3, 4, 5, 1], seed=43)
        for entries in model.params.layout:
            for pos in (entries[0][1], entries[-1][2] - 1):  # first and last of the layer
                flat = np.zeros_like(model.params.flat)
                flat[pos] = bad
                before = model.params.flat.copy()
                state = OptimizerState("adam", learning_rate=1e-3)
                with pytest.raises(ValueError, match="NaN or inf"):
                    optimizer_step(model, model.params.like(flat), state)
                assert state.step == 0 and state.moments is None
                assert model.params.flat.tobytes() == before.tobytes()

    def test_layer_arrays_view_the_flat_vector(self):
        model = build_mlp([3, 4, 1], seed=44)
        model.params.flat[:] = np.arange(model.params.flat.size)
        layer = model.layers[0]
        assert layer.weights[1, 0] == 3 and layer.bias[0] == 12
        assert layer.batchnorm.gamma[0] == 16 and layer.batchnorm.beta[-1] == 23
        with pytest.raises(ValueError):
            model.params.like(np.zeros(model.params.flat.size + 1))


class TestTraining:
    def blobs(self, seed=16, n=200):
        rng = np.random.default_rng(seed)
        a = rng.normal(loc=[-2.0, 0.0], scale=0.4, size=(n, 2))
        b = rng.normal(loc=[2.0, 0.0], scale=0.4, size=(n, 2))
        x = np.vstack([a, b])
        y = np.concatenate([np.zeros(n), np.ones(n)])
        return x, y

    def test_separable_blobs_converge(self):
        x, y = self.blobs()
        model = build_mlp([2, 16, 16, 1], seed=17)
        state = OptimizerState("adam", learning_rate=1e-3)
        model, trace = train_epochs(model, x, y, state, epochs=20, seed=18)
        assert trace[-1] < 0.1
        out, _ = forward(model, x)
        acc = np.mean((out.reshape(-1) > 0.5) == (y > 0.5))
        assert acc > 0.99

    def test_zero_learning_rate_flat_trace(self):
        x, y = self.blobs(seed=19, n=40)
        model = build_mlp([2, 8, 1], seed=20)
        state = OptimizerState("sgd", learning_rate=0.0)
        _, trace = train_epochs(model, x, y, state, epochs=4, seed=21)
        assert max(trace) == min(trace)

    def test_seed_determinism(self):
        x, y = self.blobs(seed=22, n=60)
        traces = []
        for _ in range(2):
            model = build_mlp([2, 8, 1], seed=23)
            state = OptimizerState("sgd", learning_rate=5e-4)
            _, trace = train_epochs(model, x, y, state, epochs=5, seed=24)
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_single_class_warns(self):
        x = np.random.default_rng(25).normal(size=(20, 2))
        y = np.ones(20)
        model = build_mlp([2, 4, 1], seed=26)
        with pytest.warns(RuntimeWarning):
            train_epochs(model, x, y, OptimizerState("sgd", learning_rate=1e-3),
                         epochs=1, seed=27)

    def test_empty_dataset_rejected(self):
        model = build_mlp([2, 4, 1], seed=28)
        with pytest.raises(ValueError):
            train_epochs(model, np.zeros((0, 2)), np.zeros(0),
                         OptimizerState("sgd", learning_rate=1e-3), epochs=1)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        model = build_mlp([5, 8, 8, 1], seed=29)
        x, y = np.random.default_rng(30).normal(size=(32, 5)), np.random.default_rng(31).integers(0, 2, 32).astype(float)
        train_epochs(model, x, y, OptimizerState("adam", learning_rate=1e-3), epochs=2, seed=32)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.activation == b.activation
            if a.batchnorm is not None:
                np.testing.assert_array_equal(a.batchnorm.gamma, b.batchnorm.gamma)
                np.testing.assert_array_equal(a.batchnorm.beta, b.batchnorm.beta)
                np.testing.assert_array_equal(a.batchnorm.running_mean, b.batchnorm.running_mean)
                np.testing.assert_array_equal(a.batchnorm.running_var, b.batchnorm.running_var)
                assert a.batchnorm.momentum == b.batchnorm.momentum
        # Same bytes when saved again.
        path2 = tmp_path / "model2.bin"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            load_model(path)

    def test_every_truncation_rejected(self, tmp_path):
        # Cuts at each header field and payload array boundary, and one byte in.
        model = build_mlp([3, 4, 1], batchnorm=True, seed=35)
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = path.read_bytes()
        header = 6 + 8 + 10 * len(model.layers)
        cuts = [6, 7, 10, 14] + [14 + 10 * i + k for i in range(len(model.layers))
                                 for k in (4, 8, 9, 10)]
        off = header
        for layer in model.layers:
            for size in (layer.weights.size, layer.bias.size) + (
                    (layer.out_dim,) * 4 + (1,) if layer.batchnorm else ()):
                cuts += [off + 1, off + 8 * size]
                off += 8 * size
        assert off == len(blob)
        for cut in sorted(set(cuts) - {len(blob)}):
            (tmp_path / "cut.bin").write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_model(tmp_path / "cut.bin")

    def test_bad_activation_code_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(build_mlp([3, 4, 1], seed=36), path)
        blob = bytearray(path.read_bytes())
        blob[6 + 8 + 9] = len(("none", "relu", "sigmoid"))  # first layer's activation byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="activation"):
            load_model(path)

    def test_checkpoint_without_layers_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"MPMLP\x00" + struct.pack("<II", 1, 0))
        with pytest.raises(ValueError, match="no layers"):
            load_model(path)

    def test_outputs_identical_after_roundtrip(self, tmp_path):
        model = build_mlp([4, 6, 1], seed=33)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        x = np.random.default_rng(34).normal(size=(7, 4))
        np.testing.assert_array_equal(forward(model, x)[0], forward(loaded, x)[0])
