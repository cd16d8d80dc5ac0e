import copy
import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from g2i import cnn
from g2i.cnn import (
    ConvNetConfig,
    classification_metrics,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train,
    write_report,
)
from g2i.errors import DegenerateData, EmptySplit, ShapeMismatch
from g2i.graph import split_dataset
from g2i.imaging import ImageSet, read_named_tensors, write_named_tensors


def _tiny_config(**kw):
    defaults = dict(input_side=6, input_channels=2, classes=3, conv_layers=2,
                    kernel=3, filters=4, fc_sizes=(8, 8), seed=0)
    defaults.update(kw)
    return ConvNetConfig(**defaults)


def _image_fixture(n=200, side=8, noise=0.5, seed=42):
    """Two classes with disjoint high-signal patches; linearly separable."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    pat = np.zeros((2, side, side, 2))
    pat[0, 1:4, 1:4, 0] = 2.0
    pat[0, 4:7, 4:7, 1] = -2.0
    pat[1, 1:4, 4:7, 0] = 2.0
    pat[1, 4:7, 1:4, 1] = -2.0
    imgs = []
    for i in range(n):
        t = pat[labels[i]] + rng.normal(0, noise, (side, side, 2))
        imgs.append(t.astype(np.float32).transpose(2, 0, 1))
    return ImageSet(node_ids=tuple(f"n{i}" for i in range(n)), tensors=np.stack(imgs),
                    labels=labels, channel_names=("a", "b"))


def _einsum_conv_same(x, w, b):
    """Reference: the per-tap einsum convolution on (B, C, H, W) images."""
    B, C, H, W = x.shape
    F, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((B, F, H, W), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            out += np.einsum("fc,bcij->bfij", w[:, :, di, dj], xp[:, :, di : di + H, dj : dj + W], optimize=True)
    return out + b[None, :, None, None]


def _einsum_conv_same_backward(x, w, dout):
    """Reference: (dW, db, dX) of _einsum_conv_same, one einsum per tap."""
    B, C, H, W = x.shape
    F, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, :, di : di + H, dj : dj + W]
            dw[:, :, di, dj] = np.einsum("bfij,bcij->fc", dout, patch, optimize=True)
            dxp[:, :, di : di + H, dj : dj + W] += np.einsum(
                "fc,bfij->bcij", w[:, :, di, dj], dout, optimize=True
            )
    db = dout.sum(axis=(0, 2, 3))
    dx = dxp[:, :, p : p + H, p : p + W]
    return dw, db, dx


def _nchw(a):
    return a.transpose(0, 3, 1, 2)


def _nhwc(a):
    return a.transpose(0, 2, 3, 1)


def _reference_im2col(x, k):
    """(start, stop, cols) over the same chunks as cnn._im2col, each column
    matrix built tap by tap from a zero-padded copy of the channel-last ``x``."""
    B, H, W, C = x.shape
    p = k // 2
    n = min(B, cnn._chunk_images(H, W, k, C, x.itemsize))
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    for start in range(0, B, n):
        stop = min(B, start + n)
        cols = np.empty((stop - start, H, W, k * k * C), dtype=x.dtype)
        for di in range(k):
            for dj in range(k):
                tap = (di * k + dj) * C
                cols[..., tap : tap + C] = xp[start:stop, di : di + H, dj : dj + W]
        yield start, stop, cols.reshape(-1, k * k * C)


def _reference_w_cols(w):
    """The (k*k*C, F) GEMM operand of the weights ``w`` (F, C, k, k): row
    (di, dj, c) holds w[:, c, di, dj]."""
    F, C, k, _ = w.shape
    out = np.empty((k * k * C, F), dtype=w.dtype)
    for di in range(k):
        for dj in range(k):
            tap = (di * k + dj) * C
            out[tap : tap + C] = w[:, :, di, dj].T
    return out


def _reference_conv(x, w_cols, k):
    B, H, W, _ = x.shape
    out = np.empty((B * H * W, w_cols.shape[1]), dtype=x.dtype)
    for start, stop, cols in _reference_im2col(x, k):
        out[start * H * W : stop * H * W] = np.matmul(cols, w_cols)
    return out.reshape(B, H, W, -1)


def _reference_conv_forward(x, w, b):
    """Reference: the channel-last conv as chunked im2col GEMMs."""
    return _reference_conv(x, _reference_w_cols(w), w.shape[2]) + b


def _reference_conv_weight_grad(x, w, dout):
    """Reference: dW and db of _reference_conv_forward, summed in chunk order."""
    B, H, W, C = x.shape
    F, k = w.shape[0], w.shape[2]
    d = np.ascontiguousarray(dout).reshape(-1, F)
    dw = np.zeros((k * k * C, F), dtype=x.dtype)
    for start, stop, cols in _reference_im2col(x, k):
        dw += cols.T @ d[start * H * W : stop * H * W]
    out = np.empty_like(w)
    for di in range(k):
        for dj in range(k):
            tap = (di * k + dj) * C
            out[:, :, di, dj] = dw[tap : tap + C].T
    return out, d.sum(axis=0)


def _reference_conv_input_grad(w, dout):
    """Reference: dX of _reference_conv_forward, the conv of ``dout`` with the
    spatially flipped kernel whose F and C axes are swapped."""
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _reference_conv(dout, _reference_w_cols(flipped), w.shape[2])


def _use_conv(monkeypatch, forward, weight_grad, input_grad):
    """Run the network on the given channel-last conv kernels."""
    monkeypatch.setattr(cnn, "_conv_forward", forward)
    monkeypatch.setattr(cnn, "_conv_weight_grad", weight_grad)
    monkeypatch.setattr(cnn, "_conv_input_grad", input_grad)


def _use_reference_conv(monkeypatch):
    _use_conv(monkeypatch, _reference_conv_forward, _reference_conv_weight_grad,
              _reference_conv_input_grad)


def _use_whole_layer_fc_grads(monkeypatch):
    """Compute each FC weight gradient as one product, in one block."""
    monkeypatch.setattr(cnn, "_GRAD_BLOCK_BYTES", 1 << 62)


def _most_fc_blocks(params):
    """The most gradient blocks any FC layer of ``params`` is split into."""
    return max(-(-len(w) // cnn._grad_block_rows(w.shape[1], w.itemsize)) for w in params.fc_w)


def _use_einsum_conv(monkeypatch):
    """Run the network on the per-tap einsum kernels, through channel-last views."""
    def input_grad(w, dout):
        x = np.zeros((dout.shape[0], w.shape[1], *dout.shape[1:3]), dtype=dout.dtype)
        return _nhwc(_einsum_conv_same_backward(x, w, _nchw(dout))[2])

    _use_conv(monkeypatch,
              lambda x, w, b: _nhwc(_einsum_conv_same(_nchw(x), w, b)),
              lambda x, w, dout: _einsum_conv_same_backward(_nchw(x), w, _nchw(dout))[:2],
              input_grad)


def _maybe_transposed(a, transposed):
    """``a`` itself, or an equal array that is a transposed (non-contiguous) view."""
    if not transposed:
        return a
    return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def _assert_close_to_einsum(got, want, case):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=str(case))


class TestConvEqualsEinsum:
    """The conv kernels sum each output in the order of one im2col GEMM per
    chunk of images, so they must be bit-equal to a reference that builds the
    same column matrices tap by tap and makes the same GEMM calls, and, in
    float64, close to the per-tap einsum convolution."""

    @pytest.mark.parametrize("C", [1, 2, 16])
    @pytest.mark.parametrize("B", [1, 8, 32, 65, 256])
    def test_bit_equal(self, B, C):
        F, k = 16, 5
        rng = np.random.default_rng(1000 * B + C)
        for side, transposed in itertools.product([1, 4, 5, 8, 11], [False, True]):
            x = _maybe_transposed(rng.normal(size=(B, side, side, C)), transposed)
            w = rng.normal(size=(F, C, k, k))
            b = rng.normal(size=F)
            dout = _maybe_transposed(rng.normal(size=(B, side, side, F)), transposed)
            case = (B, C, side, transposed)

            out = cnn._conv_forward(x, w, b)
            assert np.array_equal(out, _reference_conv_forward(x, w, b)), case
            dw, db = cnn._conv_weight_grad(x, w, dout)
            ref_dw, ref_db = _reference_conv_weight_grad(x, w, dout)
            assert np.array_equal(dw, ref_dw), case
            assert np.array_equal(db, ref_db), case
            dx = cnn._conv_input_grad(w, dout)
            assert dx.flags.c_contiguous, case
            assert np.array_equal(dx, _reference_conv_input_grad(w, dout)), case

            _assert_close_to_einsum(_nchw(out), _einsum_conv_same(_nchw(x), w, b), case)
            ein_dw, ein_db, ein_dx = _einsum_conv_same_backward(_nchw(x), w, _nchw(dout))
            _assert_close_to_einsum(dw, ein_dw, case)
            _assert_close_to_einsum(db, ein_db, case)
            _assert_close_to_einsum(_nchw(dx), ein_dx, case)

    @pytest.mark.parametrize("width", [2, 4])
    def test_hidden_layer_dx_bit_equal_at_other_widths(self, width):
        # layers after the first have C = F = filters
        rng = np.random.default_rng(width)
        for B, side in itertools.product([1, 8, 65], [1, 4, 5, 8]):
            x = rng.normal(size=(B, side, side, width))
            w = rng.normal(size=(width, width, 5, 5))
            dout = rng.normal(size=(B, side, side, width))
            dx = cnn._conv_input_grad(w, dout)
            assert np.array_equal(dx, _reference_conv_input_grad(w, dout)), (B, side)
            ein_dx = _einsum_conv_same_backward(_nchw(x), w, _nchw(dout))[2]
            _assert_close_to_einsum(_nchw(dx), ein_dx, (B, side))

    def test_chunks_bound_the_memory(self):
        # one forward, dW and dX pass allocates its output and column matrices
        # of about 1 MB, not a column matrix of the whole batch (48 MB)
        B, C, side, k = 256, 16, 11, 5
        rng = np.random.default_rng(21)
        x = rng.normal(size=(B, side, side, C)).astype(np.float32)
        w = rng.normal(size=(C, C, k, k)).astype(np.float32)
        b = rng.normal(size=C).astype(np.float32)
        dout = rng.normal(size=(B, side, side, C)).astype(np.float32)
        for name, call in (("forward", lambda: cnn._conv_forward(x, w, b)),
                           ("dW", lambda: cnn._conv_weight_grad(x, w, dout)),
                           ("dX", lambda: cnn._conv_input_grad(w, dout))):
            tracemalloc.start()
            try:
                result = call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out_bytes = sum(a.nbytes for a in (result if isinstance(result, tuple) else (result,)))
            assert peak <= out_bytes + 3 * 2**20, (name, peak, out_bytes)

    def test_loss_and_grad_bit_equal(self, monkeypatch):
        # FC0's weight gradient in 2 blocks, and in 32
        for fc_sizes, blocks in [((64, 32), 2), ((1024, 96), 32)]:
            cfg = ConvNetConfig(input_side=8, input_channels=2, classes=3, fc_sizes=fc_sizes,
                                seed=4)
            params = init_params(cfg)
            assert _most_fc_blocks(params) == blocks
            rng = np.random.default_rng(4)
            X = rng.normal(size=(32, 2, 8, 8)).astype(np.float32)
            y = rng.integers(0, 3, 32)
            loss, grads = loss_and_grad(params, X, y)
            with monkeypatch.context() as patch:
                _use_reference_conv(patch)
                _use_whole_layer_fc_grads(patch)
                ref_loss, ref_grads = loss_and_grad(params, X, y)
                assert loss == ref_loss
                for (name, g), (_, ref) in zip(grads.arrays(), ref_grads.arrays()):
                    assert np.array_equal(g, ref), (fc_sizes, name)
                _use_einsum_conv(patch)
                ein_loss, ein_grads = loss_and_grad(params, X, y)
            assert loss == pytest.approx(ein_loss, rel=1e-12, abs=1e-12)
            for (name, g), (_, ein) in zip(grads.arrays(), ein_grads.arrays()):
                _assert_close_to_einsum(g, ein, (fc_sizes, name))

    def test_train_bit_equal(self, monkeypatch, tmp_path):
        images = _image_fixture(n=80)
        split = split_dataset(images.labels, seed=3)
        # FC0's weight gradient in 1 block, and in 8
        for fc_sizes, blocks in [((32,), 1), ((512,), 8)]:
            cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2, conv_layers=2,
                                fc_sizes=fc_sizes, learning_rate=1e-3, max_epochs=2, seed=5)
            params, report = train(images, split, cfg, tmp_path / "new.g2t")
            assert _most_fc_blocks(params) == blocks
            with monkeypatch.context() as patch:
                _use_reference_conv(patch)
                _use_whole_layer_fc_grads(patch)
                ref_params, ref_report = train(images, split, cfg, tmp_path / "ref.g2t")
            for (name, a), (_, ref) in zip(params.arrays(), ref_params.arrays()):
                assert np.array_equal(a, ref), (fc_sizes, name)
            assert (tmp_path / "new.g2t").read_bytes() == (tmp_path / "ref.g2t").read_bytes()
            assert report.train_loss == ref_report.train_loss
            assert report.val_loss == ref_report.val_loss
            assert report.val_acc == ref_report.val_acc
            assert report.best_epoch == ref_report.best_epoch
            assert np.array_equal(report.test_metrics["confusion"],
                                  ref_report.test_metrics["confusion"])


class TestFloat32Inference:
    """A network computes in the dtype of its parameters: eval and explain
    score the float32 network the checkpoint stores, and the gradient checks
    stay float64."""

    def test_conv_keeps_float32(self):
        rng = np.random.default_rng(11)
        for B, side in [(1, 1), (1, 4), (8, 1), (32, 8)]:
            x = rng.normal(size=(B, side, side, 2))
            w = rng.normal(size=(16, 2, 5, 5))
            b = rng.normal(size=16)
            out = cnn._conv_forward(x.astype(np.float32), w.astype(np.float32), b.astype(np.float32))
            assert out.dtype == np.float32 and out.flags.c_contiguous, (B, side)
            np.testing.assert_allclose(_nchw(out), _einsum_conv_same(_nchw(x), w, b),
                                       rtol=1e-4, atol=1e-4)

    def test_forward_follows_params_dtype(self):
        params = init_params(_tiny_config())
        X = np.random.default_rng(12).normal(size=(5, 2, 6, 6))
        assert forward(params.astype(np.float32), X.astype(np.float32)).dtype == np.float32
        assert forward(params.astype(np.float32), X).dtype == np.float32
        assert forward(params, X.astype(np.float32)).dtype == np.float64

    def test_astype_copies_every_array(self):
        params = init_params(_tiny_config())
        low = params.astype(np.float32)
        for (name, a), (low_name, b) in zip(params.arrays(), low.arrays()):
            assert name == low_name and b.dtype == np.float32 and b.shape == a.shape
            assert np.array_equal(b, a.astype(np.float32)) and a.dtype == np.float64

    def test_predict_proba_close_to_float64(self):
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=4, seed=13)
        params = init_params(cfg)
        X = np.random.default_rng(13).normal(size=(65, 2, 8, 8)).astype(np.float32)
        low = cnn.predict_proba(params.astype(np.float32), X)
        assert low.dtype == np.float32
        np.testing.assert_allclose(low, cnn.predict_proba(params, X), rtol=0, atol=1e-5)


def _checkpoint_order(config):
    """conv0_w, conv0_b, ..., fc{n}_w, fc{n}_b of ``config``'s network."""
    layers = [f"conv{i}" for i in range(config.conv_layers)]
    layers += [f"fc{i}" for i in range(len(config.fc_sizes) + 1)]
    return [f"{layer}_{part}" for layer in layers for part in "wb"]


class TestFlatLayout:
    """Every ConvNetParams is one 1-D buffer, ``flat``, whose arrays view it
    back to back in checkpoint order."""

    def _assert_flat(self, params, dtype):
        flat = params.flat
        assert flat.ndim == 1 and flat.dtype == dtype and flat.flags.c_contiguous
        assert [name for name, _ in params.arrays()] == _checkpoint_order(params.config)
        by_name = dict(params.arrays())
        for i, (w, b) in enumerate(zip(params.conv_w, params.conv_b)):
            assert w is by_name[f"conv{i}_w"] and b is by_name[f"conv{i}_b"]
        for i, (w, b) in enumerate(zip(params.fc_w, params.fc_b)):
            assert w is by_name[f"fc{i}_w"] and b is by_name[f"fc{i}_b"]
        # writing the buffer shows through every array in order, with no gap
        flat[...] = np.arange(flat.size)
        joined = np.concatenate([a.reshape(-1) for _, a in params.arrays()])
        assert joined.size == flat.size and np.array_equal(joined, np.arange(flat.size))

    def test_every_set_is_one_buffer(self, tmp_path):
        cfg = _tiny_config(conv_layers=3)
        params = init_params(cfg)
        save_checkpoint(params, tmp_path / "ckpt.g2t")
        X = np.random.default_rng(15).normal(size=(4, 2, 6, 6))
        grads = loss_and_grad(params, X, np.array([0, 1, 2, 0]))[1]
        low = params.astype(np.float32)
        loaded = load_checkpoint(tmp_path / "ckpt.g2t", cfg)
        zeros = cnn.ConvNetParams.zeros(cfg, np.float32)
        assert not zeros.flat.any()
        for case, dtype in [(params, np.float64), (grads, np.float64), (low, np.float32),
                            (loaded, np.float32), (zeros, np.float32)]:
            self._assert_flat(case, dtype)

    def test_train_returns_one_buffer(self, tmp_path):
        images = _image_fixture(n=40)
        split = split_dataset(images.labels, seed=0)
        params, _ = train(images, split, _tiny_config(input_side=8, classes=2, max_epochs=1),
                          tmp_path / "checkpoint.g2t")
        self._assert_flat(params, np.float32)

    def test_checkpoint_entries_in_checkpoint_order(self, tmp_path):
        cfg = _tiny_config(conv_layers=3)
        params = init_params(cfg)
        save_checkpoint(params, tmp_path / "ckpt.g2t")
        entries, channels = read_named_tensors(tmp_path / "ckpt.g2t")
        assert [name for name, _, _ in entries] == _checkpoint_order(cfg)
        assert channels == () and all(label == -1 for _, label, _ in entries)
        for (name, _, stored), (_, a) in zip(entries, params.arrays()):
            assert np.array_equal(stored, a.astype(np.float32)), name


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvNetConfig(input_side=8, input_channels=2, classes=2, kernel=4)

    def test_defaults_match_reference_architecture(self):
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2)
        assert (cfg.conv_layers, cfg.kernel, cfg.filters) == (4, 5, 16)
        assert cfg.fc_sizes == (768, 512)
        assert cfg.learning_rate == 3e-4
        assert (cfg.momentum, cfg.batch_size, cfg.max_epochs) == (0.9, 32, 20)


class TestInit:
    def test_deterministic(self):
        cfg = _tiny_config()
        a = init_params(cfg)
        b = init_params(cfg)
        for (n1, x), (n2, y) in zip(a.arrays(), b.arrays()):
            assert n1 == n2 and np.array_equal(x, y)

    def test_shapes(self):
        cfg = ConvNetConfig(input_side=8, input_channels=3, classes=5)
        params = init_params(cfg)
        assert params.conv_w[0].shape == (16, 3, 5, 5)
        assert params.conv_w[1].shape == (16, 16, 5, 5)
        assert params.fc_w[0].shape == (768, 8 * 8 * 16)
        assert params.fc_w[1].shape == (512, 768)
        assert params.fc_w[2].shape == (5, 512)
        for b in params.conv_b + params.fc_b:
            assert np.all(b == 0)

    def test_uniform_moment(self):
        cfg = ConvNetConfig(input_side=16, input_channels=8, classes=2,
                            conv_layers=1, filters=64)
        params = init_params(cfg)
        w = params.conv_w[0]
        fan_in = 8 * 25
        expected_std = np.sqrt(2.0 / fan_in)
        assert w.std() == pytest.approx(expected_std, rel=0.1)

    @pytest.mark.parametrize("side", [8, 11])
    def test_float32_draw_is_the_float64_one_cast(self, side):
        # FC0 spans 12 and 23 draw chunks
        cfg = ConvNetConfig(input_side=side, input_channels=2, classes=4, seed=side)
        low = init_params(cfg, dtype=np.float32)
        assert low.flat.dtype == np.float32
        assert low.flat.tobytes() == init_params(cfg).astype(np.float32).flat.tobytes()


class TestForward:
    def test_zero_weights_give_uniform(self):
        cfg = _tiny_config()
        params = init_params(cfg)
        for _, arr in params.arrays():
            arr[...] = 0.0
        X = np.zeros((3, 2, 6, 6))
        probs = forward(params, X)
        assert np.allclose(probs, 1.0 / 3, atol=1e-12)

    def test_rows_sum_to_one(self):
        cfg = _tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        probs = forward(params, rng.normal(size=(50, 2, 6, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_hand_computed_head(self):
        # 1x1 spatial input, 1 conv layer with 1 filter and zero weights so the
        # conv output is the bias; hand-set the FC stack to an affine map
        cfg = ConvNetConfig(input_side=1, input_channels=1, classes=2,
                            conv_layers=1, kernel=1, filters=1, fc_sizes=(2,), seed=0)
        params = init_params(cfg)
        params.conv_w[0][...] = 1.0     # identity on the single pixel
        params.conv_b[0][...] = 0.0
        params.fc_w[0][...] = np.array([[1.0], [-1.0]])
        params.fc_b[0][...] = 0.0
        params.fc_w[1][...] = np.array([[2.0, 0.0], [0.0, 3.0]])
        params.fc_b[1][...] = np.array([0.5, -0.5])
        x = np.array([[[[2.0]]]])
        # conv -> 2; fc1 -> relu([2, -2]) = [2, 0]; logits = [4.5, -0.5]
        logits = np.array([4.5, -0.5])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(forward(params, x)[0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        params = init_params(_tiny_config())
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 2, 5, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [4, 8, 11])
    def test_equals_cached_forward_bit_for_bit(self, side, dtype):
        cfg = ConvNetConfig(input_side=side, input_channels=2, classes=4, seed=side)
        params = init_params(cfg, dtype=dtype)
        X = np.random.default_rng(side).normal(size=(195, 2, side, side)).astype(np.float32)
        probs = forward(params, X)
        assert probs.dtype == dtype
        assert probs.tobytes() == cnn._forward_cached(params, X)[0].tobytes()


class TestLossAndGrad:
    def test_uniform_loss_is_log_classes(self):
        cfg = _tiny_config()
        params = init_params(cfg)
        for _, arr in params.arrays():
            arr[...] = 0.0
        loss, _ = loss_and_grad(params, np.zeros((4, 2, 6, 6)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_head_gradient_identity(self):
        # gradient w.r.t. the last FC bias equals mean(probs - onehot)
        cfg = _tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2, 6, 6))
        y = np.array([0, 2, 1, 1, 0])
        probs = forward(params, X)
        _, grads = loss_and_grad(params, X, y)
        onehot = np.eye(3)[y]
        expected = (probs - onehot).mean(axis=0)
        assert np.allclose(grads.fc_b[-1], expected, atol=1e-12)

    def test_finite_differences(self):
        cfg = _tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 2, 6, 6))
        y = np.array([0, 1, 2])
        _, grads = loss_and_grad(params, X, y)
        eps = 1e-4
        worst = 0.0
        for (name, arr), (_, g) in zip(params.arrays(), grads.arrays()):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = loss_and_grad(params, X, y)
                flat[i] = orig - eps
                lm, _ = loss_and_grad(params, X, y)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-3


class TestFloat32Loss:
    """exp(-200) underflows to 0 in float32, and so does the 1e-300 floor of
    the cross-entropy; the loss takes the picked probabilities as float64."""

    def test_underflowed_probability_gives_finite_loss(self):
        params = init_params(_tiny_config()).astype(np.float32)
        params.fc_b[-1][...] = [0.0, 200.0, 0.0]    # exp(-200) is 0 in float32
        X = np.random.default_rng(14).normal(size=(4, 2, 6, 6)).astype(np.float32)
        y = np.array([0, 1, 2, 1])
        probs = forward(params, X)
        picked = probs[np.arange(len(y)), y]
        assert probs.dtype == np.float32 and np.count_nonzero(picked == 0) == 2
        want = float(-np.log(np.clip(picked.astype(np.float64), 1e-300, None)).mean())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, _ = loss_and_grad(params, X, y)
            val_loss, _ = cnn._mean_ce(params, X, y)
        assert np.isfinite(want) and loss == want and val_loss == want


class TestTrain:
    def test_zero_lr_keeps_params(self, tmp_path):
        images = _image_fixture(n=40)
        split = split_dataset(images.labels, seed=0)
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2,
                            conv_layers=2, kernel=3, filters=4, fc_sizes=(8,),
                            learning_rate=0.0, max_epochs=3, seed=1)
        params, report = train(images, split, cfg, tmp_path / "checkpoint.g2t")
        fresh = init_params(cfg).astype(np.float32)
        for (_, a), (_, b) in zip(params.arrays(), fresh.arrays()):
            assert a.dtype == np.float32 and np.array_equal(a, b)
        assert len(set(report.val_loss)) == 1

    def test_best_epoch_attains_min_val_loss(self, tmp_path):
        images = _image_fixture(n=60)
        split = split_dataset(images.labels, seed=1)
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2,
                            conv_layers=2, kernel=3, filters=4, fc_sizes=(16,),
                            max_epochs=5, learning_rate=1e-3, seed=2)
        _, report = train(images, split, cfg, tmp_path / "checkpoint.g2t")
        assert report.val_loss[report.best_epoch] == min(report.val_loss)

    def test_deterministic(self, tmp_path):
        images = _image_fixture(n=40)
        split = split_dataset(images.labels, seed=2)
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2,
                            conv_layers=1, kernel=3, filters=4, fc_sizes=(8,),
                            max_epochs=3, seed=3)
        _, r1 = train(images, split, cfg, tmp_path / "r1.g2t")
        _, r2 = train(images, split, cfg, tmp_path / "r2.g2t")
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss
        assert r1.test_metrics["accuracy"] == r2.test_metrics["accuracy"]
        assert np.array_equal(r1.test_metrics["confusion"], r2.test_metrics["confusion"])

    def test_epoch_s_times_every_epoch_outside_report_csv(self, tmp_path):
        images = _image_fixture(n=40)
        split = split_dataset(images.labels, seed=2)
        cfg = _tiny_config(input_side=8, classes=2, max_epochs=3)
        _, report = train(images, split, cfg, tmp_path / "checkpoint.g2t")
        assert len(report.epoch_s) == cfg.max_epochs
        assert all(t >= 0 for t in report.epoch_s)
        write_report(report, tmp_path / "timed.csv")
        report.epoch_s = []
        write_report(report, tmp_path / "untimed.csv")
        assert (tmp_path / "timed.csv").read_bytes() == (tmp_path / "untimed.csv").read_bytes()

    def test_report_scores_the_checkpointed_weights(self, tmp_path):
        # train returns the float32 weights that its checkpoint stores, and its
        # test metrics are those g2i eval computes from the checkpoint
        images = _image_fixture(n=60, noise=2.5)
        split = split_dataset(images.labels, seed=1)
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2, conv_layers=2,
                            kernel=3, filters=4, fc_sizes=(16,), learning_rate=1e-3,
                            max_epochs=3, seed=2)
        path = tmp_path / "checkpoint.g2t"
        params, report = train(images, split, cfg, path)
        loaded = load_checkpoint(path, cfg)
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert a.dtype == np.float32 and np.array_equal(a, b), name
        result = evaluate(loaded, images, split.test)
        assert np.array_equal(report.test_metrics["confusion"], result["confusion"])
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            assert report.test_metrics[key] == result[key], key

    def test_checkpoint_holds_the_returned_params(self, tmp_path):
        # the file train leaves is the one save_checkpoint writes of what it
        # returns, and its temporary file is gone
        images = _image_fixture(n=60, noise=2.5)
        split = split_dataset(images.labels, seed=1)
        cfg = _tiny_config(input_side=8, classes=2, learning_rate=1e-3, max_epochs=3)
        params, _ = train(images, split, cfg, tmp_path / "checkpoint.g2t")
        save_checkpoint(params, tmp_path / "saved.g2t")
        assert (tmp_path / "checkpoint.g2t").read_bytes() == (tmp_path / "saved.g2t").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.g2t", "saved.g2t"]

    def test_empty_split(self, tmp_path):
        images = _image_fixture(n=20)
        from g2i.graph import DatasetSplit

        bad = DatasetSplit(train=np.arange(10), val=np.array([], dtype=int),
                           test=np.arange(10, 20), seed=0)
        with pytest.raises(EmptySplit):
            train(images, bad, _tiny_config(input_side=8, classes=2), tmp_path / "checkpoint.g2t")


def _copying_train(images, split, config):
    """cnn.train as it was with `v -= lr * g` and a deepcopy of the weights at
    each better epoch, as the reference of the in-place update, in float32."""
    X = images.tensors.astype(np.float32)
    y = np.asarray(images.labels)
    params = init_params(config).astype(np.float32)
    velocity = cnn.ConvNetParams.zeros(config, np.float32)
    shuffle_rng = np.random.default_rng((config.seed, 0x5B1E))
    report = cnn.TrainReport()
    best_val = np.inf
    best_params = copy.deepcopy(params)
    lr, mom = config.learning_rate, config.momentum
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(split.train)
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss, grads = loss_and_grad(params, X[batch_idx], y[batch_idx])
            epoch_losses.append(loss)
            for (_, v), (_, g), (_, p) in zip(velocity.arrays(), grads.arrays(), params.arrays()):
                v *= mom
                v -= lr * g
                p += v
        val_loss, val_probs = cnn._mean_ce(params, X[split.val], y[split.val])
        report.train_loss.append(float(np.mean(epoch_losses)))
        report.val_loss.append(val_loss)
        report.val_acc.append(float((val_probs.argmax(axis=1) == y[split.val]).mean()))
        if val_loss < best_val:
            best_val = val_loss
            best_params = copy.deepcopy(params)
            report.best_epoch = epoch
    report.test_metrics = evaluate(best_params, images, split.test)
    return best_params, report


class TestTrainInPlace:
    """A network whose weights are mostly one 256 x 1024 FC layer, four
    gradient blocks, trained for 4 epochs; the second is the best."""

    def _setup(self):
        images = _image_fixture(n=60, noise=2.5)
        split = split_dataset(images.labels, seed=1)
        cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2, conv_layers=1, kernel=3,
                            filters=4, fc_sizes=(1024,), learning_rate=1e-3, max_epochs=4,
                            batch_size=8, seed=1)
        return images, split, cfg

    def test_equals_copying_loop(self, monkeypatch, tmp_path):
        images, split, cfg = self._setup()
        params, report = train(images, split, cfg, tmp_path / "checkpoint.g2t")
        assert _most_fc_blocks(params) == 4
        _use_whole_layer_fc_grads(monkeypatch)
        ref_params, ref_report = _copying_train(images, split, cfg)
        assert 0 < report.best_epoch < cfg.max_epochs - 1
        for (name, a), (_, ref) in zip(params.arrays(), ref_params.arrays()):
            assert a.tobytes() == ref.tobytes(), name
        assert report.train_loss == ref_report.train_loss
        assert report.val_loss == ref_report.val_loss
        assert report.val_acc == ref_report.val_acc
        assert report.best_epoch == ref_report.best_epoch
        assert np.array_equal(report.test_metrics["confusion"], ref_report.test_metrics["confusion"])

    def test_peak_memory_is_two_model_sized_sets(self, tmp_path):
        # weights and velocity, the best weights being on disk; numpy reports
        # its buffers to tracemalloc, and one gradient block (a quarter model
        # here), the images and the activations take less than half a model.
        # The untouched block of raise_heap_thresholds, two models, is freed
        # before the weights are drawn.
        images, split, cfg = self._setup()
        model_bytes = sum(a.nbytes for _, a in init_params(cfg).astype(np.float32).arrays())
        tracemalloc.start()
        try:
            train(images, split, cfg, tmp_path / "checkpoint.g2t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * model_bytes, f"peak {peak / model_bytes:.2f} models"


def _loop_classification_metrics(y_true, y_pred, n_classes):
    """The per-class loop that classification_metrics replaced."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        tp = confusion[c, c]
        pred_c = confusion[:, c].sum()
        true_c = confusion[c, :].sum()
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / true_c if true_c else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return {
        "accuracy": accuracy,
        "macro_precision": float(np.mean(precisions)),
        "macro_recall": float(np.mean(recalls)),
        "macro_f1": float(np.mean(f1s)),
        "confusion": confusion,
    }


class TestMetrics:
    def test_perfect(self):
        m = classification_metrics([0, 1, 1, 0], [0, 1, 1, 0], 2)
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            assert m[key] == 1.0

    def test_hand_confusion(self):
        # confusion [[3,1],[2,4]]: 3 of class 0 right, 1 wrong, etc.
        y_true = [0] * 4 + [1] * 6
        y_pred = [0, 0, 0, 1] + [0, 0, 1, 1, 1, 1]
        m = classification_metrics(y_true, y_pred, 2)
        assert m["accuracy"] == pytest.approx(0.7)
        assert m["macro_precision"] == pytest.approx((3 / 5 + 4 / 5) / 2)
        assert m["macro_recall"] == pytest.approx((3 / 4 + 4 / 6) / 2)
        f0 = 2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4)
        f1 = 2 * (4 / 5) * (4 / 6) / (4 / 5 + 4 / 6)
        assert m["macro_f1"] == pytest.approx((f0 + f1) / 2)

    def test_one_class_predictor(self):
        y_true = [0] * 5 + [1] * 5
        y_pred = [0] * 10
        m = classification_metrics(y_true, y_pred, 2)
        assert m["accuracy"] == 0.5
        # class 0: p=0.5, r=1, f1=2/3; class 1 empty prediction -> 0
        assert m["macro_f1"] == pytest.approx((2 / 3) / 2)

    def test_equals_loop_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n_classes = int(rng.integers(1, 7))
            # drawing from a subset leaves some true and some predicted classes empty
            true_classes = rng.choice(n_classes, int(rng.integers(1, n_classes + 1)), replace=False)
            pred_classes = rng.choice(n_classes, int(rng.integers(1, n_classes + 1)), replace=False)
            n = int(rng.integers(1, 40))
            y_true, y_pred = rng.choice(true_classes, n), rng.choice(pred_classes, n)
            got = classification_metrics(y_true, y_pred, n_classes)
            want = _loop_classification_metrics(y_true, y_pred, n_classes)
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
                assert got[key] == want[key], key
            assert np.array_equal(got["confusion"], want["confusion"])

    def test_evaluate_empty(self):
        images = _image_fixture(n=20)
        params = init_params(ConvNetConfig(input_side=8, input_channels=2, classes=2))
        with pytest.raises(EmptySplit):
            evaluate(params, images, [])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = _tiny_config()
        params = init_params(cfg)
        path = tmp_path / "ckpt.g2t"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path, cfg)
        for (n1, a), (n2, b) in zip(params.arrays(), loaded.arrays()):
            assert n1 == n2
            assert np.allclose(a, b, atol=1e-6)   # stored as float32

    def test_wrong_or_missing_array_names_file(self, tmp_path):
        path = tmp_path / "ckpt.g2t"
        save_checkpoint(init_params(_tiny_config(input_side=4)), path)
        with pytest.raises(ShapeMismatch, match=r"ckpt.g2t: fc0_w has shape \(8, 64\), "
                                                r"the model expects \(8, 36\)"):
            load_checkpoint(path, _tiny_config(input_side=3))
        with pytest.raises(ShapeMismatch, match="ckpt.g2t: no array 'conv2_w'"):
            load_checkpoint(path, _tiny_config(input_side=4, conv_layers=3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_names_file_and_array(self, tmp_path, value):
        images = _image_fixture(n=40)
        split = split_dataset(images.labels, seed=0)
        cfg = _tiny_config(input_side=8, classes=2, max_epochs=1)
        path = tmp_path / "checkpoint.g2t"
        train(images, split, cfg, path)
        entries, channels = read_named_tensors(path)
        write_named_tensors([(name, label, np.full_like(arr, value) if name == "fc0_w" else arr)
                             for name, label, arr in entries], channels, path)
        with pytest.raises(DegenerateData,
                           match=re.escape(f"{path}: fc0_w holds NaN or infinite values")):
            load_checkpoint(path, cfg)

    def test_load_returns_the_trained_float32_alone(self, tmp_path):
        # the arrays train saved, bit for bit, in one float32 buffer; loading
        # and scoring hold little more than that buffer
        images, split, cfg = TestTrainInPlace()._setup()
        path = tmp_path / "checkpoint.g2t"
        params, report = train(images, split, dataclasses.replace(cfg, max_epochs=1), path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path, cfg)
            result = evaluate(loaded, images, split.test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.flat.dtype == np.float32
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert b.dtype == np.float32 and a.tobytes() == b.tobytes(), name
        assert np.array_equal(result["confusion"], report.test_metrics["confusion"])
        assert peak < 1.5 * params.flat.nbytes, f"peak {peak / params.flat.nbytes:.2f} models"

    def test_arrays_out_of_checkpoint_order_name_file(self, tmp_path):
        cfg = _tiny_config()
        path = tmp_path / "ckpt.g2t"
        save_checkpoint(init_params(cfg), path)
        entries, channels = read_named_tensors(path)
        write_named_tensors(entries[::-1], channels, path)
        with pytest.raises(ShapeMismatch, match="ckpt.g2t: holds .* not the network's arrays "
                                                "in checkpoint order"):
            load_checkpoint(path, cfg)

    def test_report_csv(self, tmp_path):
        from g2i.cnn import TrainReport

        report = TrainReport(train_loss=[0.5, 0.25], val_loss=[0.6, 0.3],
                             val_acc=[0.7, 0.9], best_epoch=1)
        path = tmp_path / "report.csv"
        write_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert lines[1] == "0,0.5,0.6,0.7"
        assert lines[2] == "1,0.25,0.3,0.9"
