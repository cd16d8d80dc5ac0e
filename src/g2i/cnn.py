"""Small CNN classifier over node images, trained with SGD + momentum.

Architecture: a stack of same-padded conv+ReLU layers, flatten, two
fully-connected ReLU layers, then a softmax head. A network computes in the
dtype of its parameters. Training runs in float32, the precision the
checkpoint stores, so the weights it returns are the ones every later stage
loads. Evaluation and the gradient checks run in double precision, so the
finite-difference checks are meaningful; explain scores coalitions with a
float32 copy (``ConvNetParams.astype``).

A convolution is k*k tap products, summed in a fixed tap order, each one a
BLAS gemm on contiguous operands. The forward pass and the input gradient
compute each tap as one stacked matmul over a channel-last padded copy; the
weight gradient multiplies each tap's input patch with the output gradient,
laid out once per layer. Every sum and its order are those of the per-tap
einsum convolution, so float64 outputs and parameter gradients are bit-equal
to it; tests/test_cnn.py keeps that einsum as the reference. loss_and_grad
does not compute the gradient of the input images, which nothing reads.

train holds four float32 network-sized sets of arrays: the weights, their
velocity, the best weights so far and one set of gradients, which every batch
refills; the momentum update runs in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import BadArgument, DegenerateData, EmptySplit, ShapeMismatch

# images per forward call in predict_proba; the batch size can change BLAS sums
_CHUNK = 256


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


@dataclass
class ConvNetParams:
    config: ConvNetConfig
    conv_w: list
    conv_b: list
    fc_w: list
    fc_b: list

    def arrays(self):
        """(name, array) pairs in a fixed order."""
        out = []
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out.append((f"conv{i}_w", w))
            out.append((f"conv{i}_b", b))
        for i, (w, b) in enumerate(zip(self.fc_w, self.fc_b)):
            out.append((f"fc{i}_w", w))
            out.append((f"fc{i}_b", b))
        return out

    def astype(self, dtype):
        """A copy of the network with every array cast to ``dtype``."""
        arrays = dict(self.arrays())
        return _build_params(self.config, lambda name, shape: arrays[name].astype(dtype))


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    best_epoch: int = -1
    test_metrics: dict | None = None


def _build_params(config, array):
    """ConvNetParams holding ``array(name, shape)`` for each parameter of
    ``config``'s network, asked for as conv weights, conv biases, FC weights,
    FC biases, each in layer order."""
    f, k = config.filters, config.kernel
    conv_w = [array(f"conv{i}_w", (f, config.input_channels if i == 0 else f, k, k))
              for i in range(config.conv_layers)]
    conv_b = [array(f"conv{i}_b", (f,)) for i in range(config.conv_layers)]
    sizes = [config.input_side * config.input_side * f, *config.fc_sizes, config.classes]
    fc_w = [array(f"fc{i}_w", shape) for i, shape in enumerate(zip(sizes[1:], sizes))]
    fc_b = [array(f"fc{i}_b", (d,)) for i, d in enumerate(sizes[1:])]
    return ConvNetParams(config=config, conv_w=conv_w, conv_b=conv_b, fc_w=fc_w, fc_b=fc_b)


def init_params(config, seed=None):
    """Fan-in uniform weights in +/- sqrt(6/fan_in); zero biases."""
    rng = np.random.default_rng(config.seed if seed is None else seed)

    def draw(name, shape):
        if name.endswith("_b"):
            return np.zeros(shape)
        bound = np.sqrt(6.0 / np.prod(shape[1:]))
        return rng.uniform(-bound, bound, size=shape)

    return _build_params(config, draw)


def _taps(w, order, rows):
    """Every tap of the weights ``w`` (F, C, k, k), as ``w.transpose(*order)``
    so that ``[di, dj]`` is one (C, F) or (F, C) tap. Copied to a contiguous
    array, which BLAS gemm takes as it is, when a tap product has more than
    one row. A one-row product would go to BLAS gemv, which sums over C in
    another order than the einsum reference; the strided taps keep numpy's
    own matmul loop there."""
    taps = w.transpose(*order)
    return np.ascontiguousarray(taps) if rows > 1 else taps


def _conv_same(x, w, b):
    # x (B, C, H, W), w (F, C, k, k) -> (B, F, H, W) with same padding, one
    # (H, W*B, C) @ (C, F) product per tap on a channel-last padded copy, in
    # the input's dtype.
    B, C, H, W = x.shape
    F, _, k, _ = w.shape
    p = k // 2
    xp = np.zeros((H + 2 * p, W + 2 * p, B, C), dtype=x.dtype)
    xp[p : p + H, p : p + W] = x.transpose(2, 3, 0, 1)
    taps = _taps(w, (2, 3, 1, 0), W * B)
    out = np.zeros((H, W * B, F), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            out += xp[di : di + H, dj : dj + W].reshape(H, W * B, C) @ taps[di, dj]
    out += b
    return np.ascontiguousarray(out.reshape(H, W, B, F).transpose(2, 3, 0, 1))


def _conv_same_param_grads(x, w, dout):
    """dW and db of _conv_same. Each dW tap is one (C, B*H*W) @ (B*H*W, F)
    gemm against ``dout`` laid out once as (B*H*W, F): the product, operand
    order and layout that einsum("bfij,bcij->fc", optimize=True) hands BLAS
    on its own, without its copy of ``dout`` per tap."""
    B, C, H, W = x.shape
    F, k = w.shape[0], w.shape[2]
    p = k // 2
    xp = np.zeros((C, B, H + 2 * p, W + 2 * p), dtype=x.dtype)
    xp[:, :, p : p + H, p : p + W] = x.transpose(1, 0, 2, 3)
    d = dout.transpose(0, 2, 3, 1).reshape(-1, F)
    dw = np.zeros_like(w)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, :, di : di + H, dj : dj + W].reshape(C, -1)
            dw[:, :, di, dj] = np.dot(patch, d).T
    return dw, dout.sum(axis=(0, 2, 3))


def _conv_same_input_grad(w, dout):
    """dX of _conv_same: the forward's taps run backwards on channel-last
    buffers, (H, W*B, F) @ (F, C) per tap; returned C-contiguous. Bit-equal
    to the einsum's dX when C = F, as in every layer after the first."""
    B, F, H, W = dout.shape
    C, k = w.shape[1], w.shape[2]
    p = k // 2
    d = np.ascontiguousarray(dout.transpose(2, 3, 0, 1)).reshape(H, W * B, F)
    taps = _taps(w, (2, 3, 0, 1), W * B)
    dxp = np.zeros((H + 2 * p, W + 2 * p, B, C), dtype=dout.dtype)
    for di in range(k):
        for dj in range(k):
            dxp[di : di + H, dj : dj + W].reshape(H, W * B, C)[...] += d @ taps[di, dj]
    return np.ascontiguousarray(dxp[p : p + H, p : p + W].transpose(2, 3, 0, 1))


def _forward_cached(params, batch):
    cfg = params.config
    x = np.asarray(batch, dtype=params.conv_w[0].dtype)
    if x.ndim != 4 or x.shape[1:] != (cfg.input_channels, cfg.input_side, cfg.input_side):
        raise ShapeMismatch(
            f"batch shape {x.shape} does not match (B, {cfg.input_channels}, "
            f"{cfg.input_side}, {cfg.input_side})"
        )
    conv_in, conv_pre = [], []
    h = x
    for w, b in zip(params.conv_w, params.conv_b):
        conv_in.append(h)
        z = _conv_same(h, w, b)
        conv_pre.append(z)
        h = np.maximum(z, 0.0)
    flat = h.reshape(h.shape[0], -1)
    fc_in, fc_pre = [], []
    a = flat
    n_fc = len(params.fc_w)
    for i, (w, b) in enumerate(zip(params.fc_w, params.fc_b)):
        fc_in.append(a)
        z = a @ w.T + b
        fc_pre.append(z)
        a = z if i == n_fc - 1 else np.maximum(z, 0.0)
    logits = a
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    cache = (conv_in, conv_pre, fc_in, fc_pre, h.shape)
    return probs, cache


def forward(params, batch):
    """Class probabilities for a batch of images."""
    probs, _ = _forward_cached(params, batch)
    return probs


def loss_and_grad(params, batch, labels, out=None):
    """Mean cross-entropy and gradients for every parameter array. The
    gradients are written into ``out``, a ConvNetParams with the same shapes,
    when it is given: train fills one such set for every batch, where fresh
    arrays would be freed and faulted in again each time."""
    labels = np.asarray(labels)
    probs, cache = _forward_cached(params, batch)
    conv_in, conv_pre, fc_in, fc_pre, conv_out_shape = cache
    B = probs.shape[0]
    if labels.shape != (B,):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match batch {B}")
    loss = _cross_entropy(probs, labels)
    if out is None:
        dtype = params.conv_w[0].dtype
        out = _build_params(params.config, lambda name, shape: np.empty(shape, dtype=dtype))

    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    grad = dlogits
    for i in range(len(params.fc_w) - 1, -1, -1):
        if i != len(params.fc_w) - 1:
            grad = grad * (fc_pre[i] > 0)
        np.matmul(grad.T, fc_in[i], out=out.fc_w[i])
        np.sum(grad, axis=0, out=out.fc_b[i])
        grad = grad @ params.fc_w[i]

    grad = grad.reshape(conv_out_shape)
    for i in range(len(params.conv_w) - 1, -1, -1):
        grad = grad * (conv_pre[i] > 0)
        dw, db = _conv_same_param_grads(conv_in[i], params.conv_w[i], grad)
        np.copyto(out.conv_w[i], dw)
        np.copyto(out.conv_b[i], db)
        if i:   # nothing reads the gradient of the input images
            grad = _conv_same_input_grad(params.conv_w[i], grad)
    return loss, out


def predict_proba(params, X):
    out = []
    for start in range(0, len(X), _CHUNK):
        out.append(forward(params, X[start : start + _CHUNK]))
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


def train(images, split, config):
    """SGDM training in float32 with best-validation-loss checkpointing.

    Returns (best params, TrainReport); deterministic for a fixed config seed.
    The best params are float32, and the report's test metrics score them in
    float64, as ``g2i eval`` scores them after a checkpoint round trip.
    """
    for name, idx in (("train", split.train), ("val", split.val), ("test", split.test)):
        if len(idx) == 0:
            raise EmptySplit(f"{name} split is empty")
    dtype = np.float32      # the precision of the checkpoint
    X = np.asarray(images.tensors, dtype=dtype)
    y = np.asarray(images.labels)
    params = init_params(config).astype(dtype)
    velocity = _build_params(config, lambda name, shape: np.zeros(shape, dtype=dtype))
    grads = _build_params(config, lambda name, shape: np.empty(shape, dtype=dtype))
    # glibc maps blocks above a size threshold straight from the OS and keeps
    # freed heap space up to twice that size, raising both to the largest
    # mapped block freed so far. Training frees nothing that large, so without
    # this block, freed at once, every batch's temporaries went back to the OS
    # and were faulted in again: in float64, 136,000 minor page faults per
    # train on the sbm_ref workload against 8,000 with it.
    np.empty(max(a.size for _, a in params.arrays()), dtype=dtype)
    shuffle_rng = np.random.default_rng((config.seed, 0x5B1E))
    report = TrainReport()
    best_val = np.inf
    best_params = params.astype(dtype)      # a copy, refilled in place
    lr, mom = dtype(config.learning_rate), dtype(config.momentum)
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(split.train)
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss, _ = loss_and_grad(params, X[batch_idx], y[batch_idx], out=grads)
            epoch_losses.append(loss)
            # v = mom * v - lr * g in place, rounded as `v -= lr * g` rounds it
            for (_, v), (_, g), (_, p) in zip(velocity.arrays(), grads.arrays(), params.arrays()):
                g *= lr
                v *= mom
                v -= g
                p += v
        val_loss, val_probs = _mean_ce(params, X[split.val], y[split.val])
        val_acc = float((val_probs.argmax(axis=1) == y[split.val]).mean())
        report.train_loss.append(float(np.mean(epoch_losses)))
        report.val_loss.append(val_loss)
        report.val_acc.append(val_acc)
        if val_loss < best_val:
            best_val = val_loss
            for (_, best), (_, p) in zip(best_params.arrays(), params.arrays()):
                np.copyto(best, p)
            report.best_epoch = epoch
    del params, velocity, grads     # the float64 copy below takes two of their size
    report.test_metrics = evaluate(best_params.astype(np.float64), images, split.test)
    return best_params, report


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
    X = images.tensors[indices].astype(np.float64)
    y = np.asarray(images.labels)[indices]
    preds = predict_proba(params, X).argmax(axis=1)
    return classification_metrics(y, preds, params.config.classes)


# --- checkpoint / report I/O ---

def save_checkpoint(params, path):
    from .imaging import write_named_tensors

    entries = [(name, -1, arr) for name, arr in params.arrays()]
    write_named_tensors(entries, (), path)


def load_checkpoint(path, config):
    """Parameters of ``config``'s network from a checkpoint file; every array
    must be present with the shape the config gives it, and finite: a diverged
    network would score every input NaN."""
    from .imaging import read_named_tensors

    entries, _ = read_named_tensors(path)
    stored = {name: arr for name, _, arr in entries}

    def take(name, shape):
        if name not in stored:
            raise ShapeMismatch(f"{path}: no array {name!r}")
        if stored[name].shape != shape:
            raise ShapeMismatch(f"{path}: {name} has shape {stored[name].shape}, "
                                f"the model expects {shape}")
        if not np.isfinite(stored[name]).all():
            raise DegenerateData(f"{path}: {name} holds NaN or infinite values")
        return stored[name].astype(np.float64)

    return _build_params(config, take)


def write_report(report, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_acc"])
        for e, (tl, vl, va) in enumerate(zip(report.train_loss, report.val_loss, report.val_acc)):
            writer.writerow([e, repr(float(tl)), repr(float(vl)), repr(float(va))])
