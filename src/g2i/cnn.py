"""Small CNN classifier over node images, trained with SGD + momentum.

Architecture: a stack of same-padded conv+ReLU layers, flatten, two
fully-connected ReLU layers, then a softmax head. A network computes in the
dtype of its parameters. A trained network lives in float32, the precision
the checkpoint stores: init_params draws in float64 straight into train's
float32 buffer, train trains in it, and load_checkpoint returns the best
weights in the one buffer the file is read into, which train's report,
``g2i eval`` and ``g2i explain``'s coalitions all score. Only the gradient
checks run in float64, so that their finite differences mean something.
forward, which inference calls, holds one activation at a time and runs
each ReLU and bias add in place; loss_and_grad's forward pass runs the same
layer loop and keeps the activations its backward walk reads.

The conv stack keeps its activations channel-last, (B, H, W, C): the input
batch is transposed once on the way in, and the last conv output once before
the flatten, so FC0 and the checkpoint keep their (F, H, W) order. Every conv
pass is an im2col GEMM (Chellapilla, Puri & Simard, 2006). The column matrix
of a chunk of images, one row per output pixel and one column per (tap,
channel), is one strided copy of the zero-padded chunk. The forward pass
multiplies it with the weights as a (k*k*C, F) matrix; the weight gradient
sums cols.T @ dout over the chunks, in chunk order; the input gradient is the
forward conv of dout with the flipped, transposed kernel. A chunk holds as
many images as keep its column matrix near 1 MB, so that it stays in a
core's L2 cache for its GEMM and the memory a pass takes stays near its
output's size. The chunk depends only on the image shape and dtype, so the
sums, and the bits, are the same on every machine. loss_and_grad does not
compute the gradient of the input images, which nothing reads.

A network's parameters are one flat buffer that its per-layer arrays view,
in checkpoint order (ConvNetParams). train holds two float32 buffers of that
size: the weights and their velocity. The best weights so far live in a
file beside the checkpoint: train rewrites it in place with the start, then
with the weights of each epoch that lowers the validation loss, renames it
over the checkpoint at the end and reads the best weights back from it.
It holds no gradient set. The backward walk that loss_and_grad also runs
hands each layer's gradient over once the layer's weights have served the
input gradient, an FC weight gradient in row blocks of at most
_GRAD_BLOCK_BYTES, and train applies the momentum update to the matching
slices of the weights and velocity: four in-place ufunc calls per block,
with the rounding of four calls on the whole buffers.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BadArgument, EmptySplit, ShapeMismatch
from .graph import write_rows

# images per forward call in predict_proba; the batch size can change BLAS sums
PREDICT_CHUNK = 256
# bytes of one im2col column matrix. About 1 MB keeps it in a core's 2 MB L2
# cache beside the GEMM's other operands. A whole-batch column matrix (6 MB at
# 11x11, B=32) made loss_and_grad about 10 % slower, and at predict_proba's
# 256 images it would take 48 MB.
_COL_BYTES = 1 << 20
# bytes of one row block of an FC weight gradient, which train applies before
# the next is computed. Beside train's model-sized buffers, at 512 KB the
# two blocks of a 1 MB FC layer took half a model more at its peak.
_GRAD_BLOCK_BYTES = 1 << 18
# bytes of the float64 chunk that init_params draws through
_DRAW_BYTES = 1 << 19


@dataclass(frozen=True)
class ConvNetConfig:
    input_side: int
    input_channels: int
    classes: int
    conv_layers: int = 4
    kernel: int = 5
    filters: int = 16
    fc_sizes: tuple = (768, 512)
    learning_rate: float = 3e-4
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.kernel % 2 == 0:
            raise BadArgument(f"kernel must be odd for same padding, got {self.kernel}")
        for name in ("input_side", "input_channels", "classes", "conv_layers", "kernel",
                     "filters", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise BadArgument(f"{name} must be positive, got {getattr(self, name)}")
        # written so that NaN fails them; a rate of 0 trains nothing, which tests use
        if not 0.0 <= self.learning_rate < math.inf:
            raise BadArgument(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise BadArgument(f"momentum must lie in [0, 1), got {self.momentum}")


def _param_table(config):
    """(name, shape) of every parameter array of ``config``'s network, in
    checkpoint order: conv0_w, conv0_b, ..., fc{n}_w, fc{n}_b."""
    f, k = config.filters, config.kernel
    table = []
    for i in range(config.conv_layers):
        table += [(f"conv{i}_w", (f, config.input_channels if i == 0 else f, k, k)),
                  (f"conv{i}_b", (f,))]
    sizes = [config.input_side * config.input_side * f, *config.fc_sizes, config.classes]
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        table += [(f"fc{i}_w", (fan_out, fan_in)), (f"fc{i}_b", (fan_out,))]
    return table


def _param_count(config):
    return sum(math.prod(shape) for _, shape in _param_table(config))


def raise_heap_thresholds(config):
    """Allocate and free an untouched float64 block of ``config``'s parameter
    count, twice a float32 network; no page of it is touched. glibc maps
    blocks above a size threshold straight from the OS and keeps freed heap
    space up to twice that size, raising both to the largest mapped block
    freed so far. After this block, the activations of every later batch
    reuse heap space instead of being mapped, and faulted in, anew on each
    call: without it, a reference explain made 990,000 minor page faults
    against 2,600, and train on the 11x11 images of wide_features 25,600
    against about 2,000."""
    np.empty(_param_count(config), dtype=np.float64)


class ConvNetParams:
    """``config``'s network as one 1-D buffer, ``flat``, and per-layer arrays
    that view consecutive slices of it in _param_table's order. Every set of
    one config shares that layout, so one ufunc call on ``flat`` updates every
    array."""

    def __init__(self, config, flat):
        self.config, self.flat = config, flat
        self._arrays, starts, offset = [], [], 0
        for name, shape in _param_table(config):
            size = math.prod(shape)
            self._arrays.append((name, flat[offset : offset + size].reshape(shape)))
            starts.append(offset)
            offset += size
        views = [a for _, a in self._arrays]
        n = 2 * config.conv_layers
        self.conv_w, self.conv_b = views[0:n:2], views[1:n:2]
        self.fc_w, self.fc_b = views[n::2], views[n + 1 :: 2]
        # where each layer's weights start in ``flat``; its bias follows them
        self.conv_at, self.fc_at = starts[0:n:2], starts[n::2]

    @classmethod
    def zeros(cls, config, dtype):
        """A set of ``config``'s network holding zeros of ``dtype``."""
        return cls(config, np.zeros(_param_count(config), dtype=dtype))

    def arrays(self):
        """(name, array) pairs in checkpoint order."""
        return self._arrays

    def astype(self, dtype):
        """A copy of the network with every array cast to ``dtype``."""
        return ConvNetParams(self.config, self.flat.astype(dtype))


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    best_epoch: int = -1
    test_metrics: dict | None = None
    epoch_s: list = field(default_factory=list)     # wall time; not in report.csv


def init_params(config, seed=None, dtype=np.float64):
    """Fan-in uniform weights in +/- sqrt(6/fan_in), drawn in float64 in
    checkpoint order and stored as ``dtype``; zero biases, which draw
    nothing. The draw passes through one float64 chunk of _DRAW_BYTES, the
    same stream in the same order, so a float32 network equals the float64
    one cast, bit for bit, and takes no float64 copy of itself."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params = ConvNetParams.zeros(config, dtype)
    chunk = np.empty(_DRAW_BYTES // 8, dtype=np.float64)
    for name, w in params.arrays():
        if name.endswith("_w"):
            bound = np.sqrt(6.0 / np.prod(w.shape[1:]))
            w = w.reshape(-1)
            for start in range(0, w.size, chunk.size):
                part = chunk[: w.size - start]
                # rng.uniform(-bound, bound)'s -bound + 2 * bound * U
                rng.random(out=part)
                part *= 2 * bound
                part -= bound
                w[start : start + part.size] = part
    return params


def _grad_block_rows(fan_in, itemsize):
    """Rows per block of an FC weight gradient: as many as keep the block
    within _GRAD_BLOCK_BYTES, and at least one. Like _chunk_images, it
    depends on the shape and dtype alone."""
    return max(1, _GRAD_BLOCK_BYTES // (fan_in * itemsize))


def _chunk_images(H, W, k, C, itemsize):
    """Images per im2col chunk: as many as keep the column matrix within
    _COL_BYTES, and at least one. It depends on the image shape and dtype
    alone, so every machine sums the same chunks."""
    return max(1, _COL_BYTES // (H * W * k * k * C * itemsize))


def _im2col(x, k):
    """Yield ``(start, stop, cols)`` for consecutive chunks of the channel-last
    batch ``x`` (B, H, W, C). ``cols`` is the (n*H*W, k*k*C) column matrix of
    images ``start:stop``, same-padded: row (b, i, j), column (di, dj, c) holds
    x[b, i + di - k//2, j + dj - k//2, c]. Its buffer is refilled for the next
    chunk. A padded window row is k*C consecutive values, so each column
    matrix is one strided copy."""
    B, H, W, C = x.shape
    p = k // 2
    n = min(B, _chunk_images(H, W, k, C, x.itemsize))
    xp = np.zeros((n, H + 2 * p, W + 2 * p, C), dtype=x.dtype)
    s_b, s_i, s_j, s_c = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, H, W, k, k * C), (s_b, s_i, s_j, s_i, s_c), writeable=False)
    cols = np.empty((n, H, W, k, k * C), dtype=x.dtype)
    for start in range(0, B, n):
        m = min(n, B - start)
        xp[:m, p : p + H, p : p + W] = x[start : start + m]
        np.copyto(cols[:m], windows[:m])
        yield start, start + m, cols[:m].reshape(m * H * W, k * k * C)


def _conv(x, w_cols, k):
    """Same-padded convolution of the channel-last batch ``x`` (B, H, W, C)
    with the weights ``w_cols`` (k*k*C, F), rows in the column order of
    _im2col: (B, H, W, F), one GEMM per chunk."""
    B, H, W, _ = x.shape
    out = np.empty((B * H * W, w_cols.shape[1]), dtype=x.dtype)
    for start, stop, cols in _im2col(x, k):
        np.matmul(cols, w_cols, out=out[start * H * W : stop * H * W])
    return out.reshape(B, H, W, -1)


def _conv_forward(x, w, b):
    """Conv layer on the channel-last batch ``x`` (B, H, W, C) with the weights
    ``w`` (F, C, k, k) and bias ``b``: (B, H, W, F), before the ReLU."""
    F, C, k, _ = w.shape
    out = _conv(x, w.transpose(2, 3, 1, 0).reshape(k * k * C, F), k)
    out += b
    return out


def _conv_weight_grad(x, w, dout):
    """dW (F, C, k, k) and db of _conv_forward for the channel-last output
    gradient ``dout`` (B, H, W, F): dW sums cols.T @ dout over the chunks of
    ``x``, in chunk order."""
    B, H, W, C = x.shape
    F, k = w.shape[0], w.shape[2]
    d = dout.reshape(B * H * W, F)
    dw = np.zeros((k * k * C, F), dtype=x.dtype)
    for start, stop, cols in _im2col(x, k):
        dw += cols.T @ d[start * H * W : stop * H * W]
    return dw.reshape(k, k, C, F).transpose(3, 2, 0, 1), d.sum(axis=0)


def _conv_input_grad(w, dout):
    """dX (B, H, W, C) of _conv_forward: the same-padded convolution of
    ``dout`` (B, H, W, F) with the kernel flipped in both spatial axes and
    its F and C axes swapped."""
    F, C, k, _ = w.shape
    return _conv(dout, w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * F, C), k)


def _activations(params, batch):
    """Yield the activations of ``batch`` (B, C, H, W) layer by layer: the
    batch channel-last, each conv layer's ReLU output, FC0's input, then
    each FC layer's output, the last one the logits. Each ReLU and bias add
    runs in place, so a consumer that drops each activation for the next
    holds one at a time. A ReLU output is positive exactly where its input
    is, so it doubles as the backward pass's mask."""
    cfg = params.config
    x = np.asarray(batch, dtype=params.flat.dtype)
    if x.ndim != 4 or x.shape[1:] != (cfg.input_channels, cfg.input_side, cfg.input_side):
        raise ShapeMismatch(
            f"batch shape {x.shape} does not match (B, {cfg.input_channels}, "
            f"{cfg.input_side}, {cfg.input_side})"
        )
    h = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    yield h
    for w, b in zip(params.conv_w, params.conv_b):
        h = _conv_forward(h, w, b)
        np.maximum(h, 0.0, out=h)
        yield h
    # FC0 reads its input in (F, H, W) order, as the checkpoint stores it
    h = h.transpose(0, 3, 1, 2).reshape(h.shape[0], -1)
    yield h
    last = len(params.fc_w) - 1
    for i, (w, b) in enumerate(zip(params.fc_w, params.fc_b)):
        h = h @ w.T
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        yield h


def _softmax(logits):
    """The rows of ``logits`` as class probabilities, computed in place."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _forward_cached(params, batch):
    """Class probabilities of ``batch``, and the activations that
    loss_and_grad reads: (conv_acts, fc_acts), the conv layers' channel-last
    inputs and ReLU outputs, and the FC layers' inputs and outputs, as
    _activations yields them (the logits became the probabilities)."""
    acts = list(_activations(params, batch))
    n_conv = len(params.conv_w) + 1
    return _softmax(acts[-1]), (acts[:n_conv], acts[n_conv:])


def forward(params, batch):
    """Class probabilities for a batch of images, holding one activation at
    a time."""
    for h in _activations(params, batch):
        pass
    return _softmax(h)


def _loss_and_blocks(params, batch, labels):
    """(loss, blocks) of one batch: its mean cross-entropy, and a generator of
    the gradient in (start, g) blocks, g holding the gradient of
    ``params.flat[start : start + g.size]`` in C order. The generator walks the
    layers backward and yields a layer's blocks only once its weights have
    served the input gradient, so its consumer may update them in place. An
    FC weight gradient comes in row blocks of at most _GRAD_BLOCK_BYTES, so no
    whole-network gradient set exists."""
    labels = np.asarray(labels)
    probs, acts = _forward_cached(params, batch)
    if labels.shape != (probs.shape[0],):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match batch {probs.shape[0]}")
    return _cross_entropy(probs, labels), _gradient_blocks(params, probs, labels, *acts)


def _gradient_blocks(params, probs, labels, conv_acts, fc_acts):
    """The generator of _loss_and_blocks, from the forward pass's results."""
    B = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(B), labels] -= 1.0
    grad /= B

    n_fc = len(params.fc_w)
    for i in range(n_fc - 1, -1, -1):
        w, at = params.fc_w[i], params.fc_at[i]
        if i != n_fc - 1:
            grad = grad * (fc_acts[i + 1] > 0)
        grad_in = grad @ w      # before the consumer may update w
        fan_out, fan_in = w.shape
        rows = _grad_block_rows(fan_in, w.itemsize)
        for r in range(0, fan_out, rows):
            yield at + r * fan_in, grad.T[r : r + rows] @ fc_acts[i]
        yield at + w.size, grad.sum(axis=0)
        grad = grad_in

    _, H, W, F = conv_acts[-1].shape
    grad = np.ascontiguousarray(grad.reshape(B, F, H, W).transpose(0, 2, 3, 1))
    for i in range(len(params.conv_w) - 1, -1, -1):
        w, at = params.conv_w[i], params.conv_at[i]
        grad *= conv_acts[i + 1] > 0
        dw, db = _conv_weight_grad(conv_acts[i], w, grad)
        if i:   # nothing reads the gradient of the input images
            grad = _conv_input_grad(w, grad)
        yield at, dw
        yield at + w.size, db


def loss_and_grad(params, batch, labels):
    """Mean cross-entropy and a new set of gradients for every parameter array."""
    loss, blocks = _loss_and_blocks(params, batch, labels)
    out = ConvNetParams.zeros(params.config, params.flat.dtype)
    for start, g in blocks:
        out.flat[start : start + g.size] = g.reshape(-1)
    return loss, out


def _sgdm_step(params, velocity, batch, labels, lr, mom):
    """One SGDM batch of train, in place on the flat ``params`` and
    ``velocity``: each gradient block updates its slice of both as soon as
    the backward walk hands it over. Returns the batch's loss."""
    loss, blocks = _loss_and_blocks(params, batch, labels)
    for start, g in blocks:
        g = g.reshape(-1)
        v = velocity[start : start + g.size]
        # v = mom * v - lr * g in place, rounded as `v -= lr * g` rounds it
        g *= lr
        v *= mom
        v -= g
        params.flat[start : start + g.size] += v
        del g, v    # before the walk computes the next block
    return loss


def predict_proba(params, X):
    out = []
    for start in range(0, len(X), PREDICT_CHUNK):
        out.append(forward(params, X[start : start + PREDICT_CHUNK]))
    return np.concatenate(out, axis=0)


def _cross_entropy(probs, labels):
    """Mean -log of each row's probability of its label, in float64: the
    1e-300 floor is 0 in float32, where a confidently wrong row would score
    -log(0) = inf."""
    picked = probs[np.arange(len(labels)), labels].astype(np.float64)
    return float(-np.log(np.clip(picked, 1e-300, None)).mean())


def _mean_ce(params, X, y):
    probs = predict_proba(params, X)
    return _cross_entropy(probs, y), probs


def train(images, split, config, checkpoint):
    """SGDM training in float32 with best-validation-loss checkpointing.

    The best weights so far live in the file ``checkpoint`` + ``.tmp``, which
    save_checkpoint rewrites in place: the start, then the weights of each
    epoch that lowers the validation loss. When training ends it is renamed
    over ``checkpoint``. Returns (best params, TrainReport), the params read
    back from that file; deterministic for a fixed config seed. The report's
    test metrics score them as ``g2i eval`` does.
    """
    for name, idx in (("train", split.train), ("val", split.val), ("test", split.test)):
        if len(idx) == 0:
            raise EmptySplit(f"{name} split is empty")
    dtype = np.float32      # the precision of the checkpoint
    X = np.asarray(images.tensors, dtype=dtype)
    y = np.asarray(images.labels)
    raise_heap_thresholds(config)
    params = init_params(config, dtype=dtype)
    velocity = np.zeros_like(params.flat)
    best_path = f"{os.fspath(checkpoint)}.tmp"
    save_checkpoint(params, best_path)
    shuffle_rng = np.random.default_rng((config.seed, 0x5B1E))
    report = TrainReport()
    best_val = np.inf
    lr, mom = dtype(config.learning_rate), dtype(config.momentum)
    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(split.train)
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            epoch_losses.append(
                _sgdm_step(params, velocity, X[batch_idx], y[batch_idx], lr, mom))
        val_loss, val_probs = _mean_ce(params, X[split.val], y[split.val])
        val_acc = float((val_probs.argmax(axis=1) == y[split.val]).mean())
        report.train_loss.append(float(np.mean(epoch_losses)))
        report.val_loss.append(val_loss)
        report.val_acc.append(val_acc)
        if val_loss < best_val:
            best_val = val_loss
            save_checkpoint(params, best_path)
            report.best_epoch = epoch
        report.epoch_s.append(time.perf_counter() - started)
    del params, velocity    # before the best weights are read back
    os.replace(best_path, checkpoint)
    best = load_checkpoint(checkpoint, config)
    report.test_metrics = evaluate(best, images, split.test)
    return best, report


def classification_metrics(y_true, y_pred, n_classes):
    """Accuracy plus macro-averaged precision/recall/F1.

    Per-class scores with an empty denominator count as 0 in the macro mean.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    tp, pred, true = np.diagonal(confusion), confusion.sum(axis=0), confusion.sum(axis=1)
    precision = np.divide(tp, pred, out=np.zeros(n_classes), where=pred > 0)
    recall = np.divide(tp, true, out=np.zeros(n_classes), where=true > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(n_classes), where=both > 0)
    return {
        "accuracy": accuracy,
        "macro_precision": float(np.mean(precision)),
        "macro_recall": float(np.mean(recall)),
        "macro_f1": float(np.mean(f1)),
        "confusion": confusion,
    }


def evaluate(params, images, indices):
    """Test-set metrics for the given image indices."""
    indices = np.asarray(indices)
    if len(indices) == 0:
        raise EmptySplit("no indices to evaluate")
    X = images.tensors[indices]     # forward casts each chunk to the network's dtype
    y = np.asarray(images.labels)[indices]
    preds = predict_proba(params, X).argmax(axis=1)
    return classification_metrics(y, preds, params.config.classes)


# --- checkpoint / report I/O ---

def save_checkpoint(params, path):
    from .imaging import write_named_tensors

    entries = [(name, -1, arr) for name, arr in params.arrays()]
    write_named_tensors(entries, (), path)


def load_checkpoint(path, config):
    """``config``'s network from a checkpoint file, as one float32 set that
    views the buffer the file was read into. The file must hold every array
    with the shape the config gives it, in checkpoint order, as
    save_checkpoint writes them. read_named_buffer rejects a NaN or infinite
    weight, with which a diverged network would score every input NaN."""
    from .imaging import read_named_buffer

    heads, flat, _ = read_named_buffer(path)
    stored = {name: shape for name, _, shape in heads}
    table = _param_table(config)
    for name, shape in table:
        if name not in stored:
            raise ShapeMismatch(f"{path}: no array {name!r}")
        if stored[name] != shape:
            raise ShapeMismatch(f"{path}: {name} has shape {stored[name]}, "
                                f"the model expects {shape}")
    if [name for name, _, _ in heads] != [name for name, _ in table]:
        raise ShapeMismatch(f"{path}: holds {[name for name, _, _ in heads]}, not the "
                            f"network's arrays in checkpoint order")
    return ConvNetParams(config, flat)


def write_report(report, path):
    write_rows(path, ("epoch", "train_loss", "val_loss", "val_acc"),
               ([e, repr(float(tl)), repr(float(vl)), repr(float(va))] for e, (tl, vl, va)
                in enumerate(zip(report.train_loss, report.val_loss, report.val_acc))))
