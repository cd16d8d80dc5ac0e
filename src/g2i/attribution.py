"""Sampled Shapley attribution over node-image cells and SHAP-profile clustering.

Players are image cells, held as one (n_players, 3) int64 array of
(channel, row, col) rows; a coalition's prediction is the model's softmax
score for the target class with absent cells held at a background baseline
(the mean of every image). The permutation-sampling estimator walks random
player orderings and averages marginal score changes; an exhaustive
subset-enumeration mode (<= 8 players) serves as the verification oracle.
Class means are one (n_classes, n_players) array, reported per feature as a
(n_features, n_classes) table. Test images are sampled on every CPU this
process may run on (``taskset`` limits them), with the same bytes for any
count. The classes' profiles are clustered into a dendrogram by average
linkage, a port of scipy's nearest-neighbour-chain algorithm that gives
``scipy.cluster.hierarchy.linkage``'s bits without importing scipy.cluster and
scipy.spatial.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cnn import PREDICT_CHUNK
from .errors import BadArgument, DegenerateData, LayoutMismatch
from .graph import write_rows


@dataclass(frozen=True)
class FeatureImportanceTable:
    features: tuple              # feature name of each row
    modalities: tuple            # modality name of each row
    class_names: tuple
    raw: np.ndarray              # (n_features, n_classes) class-mean Shapley values

    @property
    def normalized(self):
        """``raw`` over each class's max |raw|; 0 where that max is 0."""
        peak = np.abs(self.raw).max(axis=0, initial=0.0)
        return np.divide(self.raw, peak, out=np.zeros_like(self.raw), where=peak > 0)

    def to_csv(self, path):
        rows = zip(self.features, self.modalities, self.raw.tolist(), self.normalized.tolist())
        write_rows(path, ("feature", "modality", "class", "shap_raw", "shap_normalized"),
                   ([feature, modality, cname, repr(r), repr(n)]
                    for feature, modality, raw, normalized in rows
                    for cname, r, n in zip(self.class_names, raw, normalized)))


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple                # ((left, right, height, size), ...)
    leaf_labels: tuple


def select_hvf(F, m):
    """Indices of the m most variable features after mean-variance detrending.

    Columns are shifted to a zero minimum and log(1+x) transformed; a linear
    trend of variance on mean is removed and features are ranked by residual,
    ties going to the lower index.
    """
    F = np.asarray(F, dtype=np.float64)
    if m < 1:
        raise BadArgument(f"n_hvf must be >= 1, got {m}")
    X = np.log1p(F - F.min(axis=0))
    means = X.mean(axis=0)
    variances = X.var(axis=0)
    if len(means) > 1 and np.ptp(means) > 0:
        slope, intercept = np.polyfit(means, variances, 1)
        residual = variances - (slope * means + intercept)
    else:
        residual = variances
    order = np.argsort(-residual, kind="stable")
    return order[: min(m, F.shape[1])]


def shapley_sample(predict, image, class_idx, background_mean, players, M, seed):
    """Permutation-sampling Shapley estimates for the given cells.

    ``predict`` maps a (B, C, P, P) batch to (B, classes) probabilities;
    ``image`` and ``background_mean`` are (C, P, P) tensors; ``players`` holds
    distinct (channel, row, col) cells, one per row. Each predict batch holds
    the coalitions of as many whole permutations as fit in one of
    predict_proba's chunks, and at least one; the permutations are drawn, and
    their differences added, in the order of one permutation per batch.
    """
    players = np.asarray(players, dtype=np.int64).reshape(-1, 3)
    n = len(players)
    if n == 0:
        raise ValueError("players must be non-empty")
    rng = np.random.default_rng(seed)
    image = np.asarray(image, dtype=np.float64)
    background = np.asarray(background_mean, dtype=np.float64)
    ch, r, c = players.T
    values = np.zeros(n)
    per_batch = max(1, PREDICT_CHUNK // (n + 1))
    for first in range(0, M, per_batch):
        orders = [rng.permutation(n) for _ in range(min(per_batch, M - first))]
        # coalition t of a permutation holds the players ranked below t in it
        played = np.argsort(orders, axis=1)[:, None, :] < np.arange(n + 1)[:, None]
        batch = np.repeat(background[None], len(orders) * (n + 1), axis=0)
        batch[:, ch, r, c] = np.where(played.reshape(-1, n), image[ch, r, c],
                                      background[ch, r, c])
        scores = predict(batch)[:, class_idx].reshape(len(orders), n + 1)
        for order, row in zip(orders, scores):
            values[order] += np.diff(row)
    return values / M


def class_global_importance(predict, images, test_indices, n_classes, players,
                            n_permutations, seed):
    """(values, counts): each player's Shapley value averaged over each
    class's test images, as an (n_classes, n_players) array, and the test
    images per class. Every image forms the background mean.

    Each test image is sampled on its own from a seed drawn in test order, so
    the images can run on separate workers; their values are added in test
    order, which keeps the result's bytes for any worker count.
    """
    if n_permutations < 1:
        raise BadArgument(f"n_permutations must be >= 1, got {n_permutations}")
    labels = np.asarray(images.labels)
    values = np.zeros((n_classes, len(players)))
    counts = np.zeros(n_classes, dtype=np.int64)
    background = images.tensors.astype(np.float64).mean(axis=0)
    rng = np.random.default_rng(seed)
    jobs = [(int(idx), int(labels[idx]), int(rng.integers(2**32)))
            for idx in np.asarray(test_indices)]

    def sample(idx, cls, image_seed):
        return shapley_sample(predict, images.tensors[idx], cls, background, players,
                              n_permutations, image_seed)

    for (_, cls, _), local in zip(jobs, _map_jobs(sample, jobs)):
        values[cls] += local
        counts[cls] += 1
    for cls in np.flatnonzero(counts == 0):
        warnings.warn(f"class {cls} has no test samples; attribution skipped", stacklevel=2)
    seen = counts > 0
    values[seen] /= counts[seen, None]
    return values, counts


def _map_jobs(fn, jobs):
    """``[fn(*job) for job in jobs]``, on one forked worker per usable CPU
    (at most one per job). Workers inherit ``fn`` through fork, so it need not
    pickle; only the job tuples and results cross between processes. A
    worker's error is raised here, and a worker that dies raises
    BrokenProcessPool, once every worker has stopped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    # each task is a chunk of consecutive jobs, about eight per worker: with one
    # job per task, the workers sat idle about half the time waiting for the
    # next when each job took about 1 ms
    chunksize = math.ceil(len(jobs) / (8 * workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn,)) as pool:
        try:
            return list(pool.map(_run_job, jobs, chunksize=chunksize))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


_worker_fn = None        # set in each pool worker, never in the parent


def _start_worker(fn):
    global _worker_fn
    _worker_fn = fn
    # the workers fill the CPUs already; a BLAS thread pool in each makes them
    # contend for the same cores (with OpenBLAS's default of one thread per
    # CPU, explain took 2.6x as long on a 2-CPU machine)
    one_blas_thread()


def _run_job(job):
    return _worker_fn(*job)


def one_blas_thread():
    """Run every OpenBLAS loaded in this process on one thread. A product
    split over threads can sum in another order, so the thread count would
    change the bits of the results."""
    for set_num_threads in _openblas("set_num_threads", [ctypes.c_int], None):
        set_num_threads(1)


def _openblas(name, argtypes, restype):
    """OpenBLAS's function ``name`` in each OpenBLAS library loaded in this
    process, under the prefix and suffix its builds export it with; none
    where the process has no /proc/self/maps or no OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}"
                       for prefix in ("", "scipy_") for suffix in ("", "64_")):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                found.append(fn)
                break
    return found


def hvf_players(f_layouts, feature_sets):
    """(n_players, 3) int64 (channel, row, col) cells of the selected features,
    modality by modality, each in ``feature_sets`` order; ``f_layouts`` holds
    each modality's (k, 2) feature cells."""
    blocks = []
    for ch, (cells, selected) in enumerate(zip(f_layouts, feature_sets), start=1):
        picked = cells[np.asarray(selected, dtype=np.int64)]
        blocks.append(np.column_stack([np.full(len(picked), ch), picked]))
    return np.concatenate(blocks).astype(np.int64)


def map_to_features(values, feature_sets, feature_names_per_modality, class_names,
                    modality_names=None):
    """The (n_classes, n_players) ``values`` of ``hvf_players``' players as a
    table with one row per played feature, ordered by modality, then by
    feature index."""
    if len(feature_sets) != len(feature_names_per_modality):
        raise LayoutMismatch("feature sets and name lists disagree")
    if modality_names is None:
        modality_names = [f"modality{i}" for i in range(len(feature_sets))]
    modality = np.repeat(np.arange(len(feature_sets)), [len(s) for s in feature_sets])
    feature = np.concatenate([np.asarray(s, dtype=np.int64) for s in feature_sets])
    order = np.lexsort((feature, modality))
    return FeatureImportanceTable(
        features=tuple(feature_names_per_modality[m][j]
                       for m, j in zip(modality[order].tolist(), feature[order].tolist())),
        modalities=tuple(modality_names[m] for m in modality[order].tolist()),
        class_names=tuple(class_names),
        raw=values[:, order].T,
    )


def cluster_profiles(profiles, labels=None):
    """Agglomerative clustering with unweighted average linkage on Euclidean
    distances. Each merge is (left, right, height, size) with left < right,
    and the cluster it makes takes the next id after the n leaves. The merges
    equal ``scipy.cluster.hierarchy.linkage(pdist(profiles), "average")``,
    equal distances merging in its order. A profile with a NaN or infinite
    value raises ``DegenerateData``."""
    X = np.asarray(profiles, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 items to cluster")
    if labels is None:
        labels = [f"item{i}" for i in range(n)]
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise DegenerateData("cannot cluster profiles with NaN or infinite values: "
                             + ", ".join(str(labels[i]) for i in bad))
    left, right = np.triu_indices(n, 1)
    squares = np.zeros(len(left))
    with np.errstate(over="ignore"):         # an overflow is caught below
        for column in (X[left] - X[right]).T:    # summed in column order, as pdist does
            squares += column * column
    D = np.zeros((n, n))
    D[left, right] = D[right, left] = np.sqrt(squares)
    if not np.isfinite(D).all():
        raise DegenerateData("cannot cluster profiles whose distances exceed float64's range")
    return Dendrogram(merges=_average_linkage(D.tolist()), leaf_labels=tuple(labels))


def _average_linkage(D):
    """The merges of scipy's ``nn_chain`` average linkage over the full
    distance matrix ``D`` (nested lists, updated in place): follow nearest
    neighbours from the first live cluster until two are each other's, the
    chain's previous cluster winning a tie; merge them into the slot of the
    larger index; then sort the merges stably by height and renumber their
    clusters by union-find, as scipy does."""
    n = len(D)
    size = [1] * n           # 0 once a slot's cluster has merged away
    chain, merges = [], []
    for _ in range(n - 1):
        if not chain:
            chain = [next(i for i in range(n) if size[i])]
        while True:
            x = chain[-1]
            y, best = (chain[-2], D[x][chain[-2]]) if len(chain) > 1 else (None, math.inf)
            for i in range(n):
                if size[i] and i != x and D[x][i] < best:
                    y, best = i, D[x][i]
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((x, y, best))
        size[x], size[y] = 0, nx + ny
        for i in range(n):
            if size[i] and i != y:
                D[i][y] = D[y][i] = (nx * D[i][x] + ny * D[i][y]) / (nx + ny)
    parent = list(range(2 * n - 1))
    count = [1] * (2 * n - 1)
    out = []
    for new, (x, y, height) in enumerate(sorted(merges, key=lambda m: m[2]), start=n):
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        parent[x] = parent[y] = new
        count[new] = count[x] + count[y]
        out.append((min(x, y), max(x, y), height, count[new]))
    return tuple(out)


def dendrogram_to_newick(dendrogram):
    """Newick text with branch lengths from merge heights."""
    n = len(dendrogram.leaf_labels)
    nodes = {i: (dendrogram.leaf_labels[i], 0.0) for i in range(n)}
    for idx, (left, right, height, _) in enumerate(dendrogram.merges):
        ltext, lh = nodes.pop(left)
        rtext, rh = nodes.pop(right)
        text = f"({ltext}:{height - lh:g},{rtext}:{height - rh:g})"
        nodes[n + idx] = (text, height)
    (text, _), = nodes.values()
    return text + ";"
