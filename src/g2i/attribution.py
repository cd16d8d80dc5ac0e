"""Sampled Shapley attribution over node-image cells and SHAP-profile clustering.

Players are image cells; a coalition's prediction is the model's softmax score
for the target class with absent cells held at a background baseline (the mean
image over a background index set). The permutation-sampling estimator walks
random player orderings and averages marginal score changes; an exhaustive
subset-enumeration mode (<= 8 players) serves as the verification oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadArgument, LayoutMismatch, TooLarge


@dataclass(frozen=True)
class ShapConfig:
    n_permutations: int = 64
    background: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 1:
            raise BadArgument(f"n_permutations must be >= 1, got {self.n_permutations}")


@dataclass
class AttributionMap:
    values: np.ndarray           # (classes, channels, P, P) class-averaged Shapley values
    counts: np.ndarray           # (classes,) test samples per class
    players: tuple               # ((channel, row, col), ...) cells that were played


@dataclass
class FeatureImportanceTable:
    rows: list = field(default_factory=list)  # dicts: feature, modality, class, raw, normalized

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "modality", "class", "shap_raw", "shap_normalized"])
            for r in self.rows:
                writer.writerow(
                    [r["feature"], r["modality"], r["class"], repr(float(r["raw"])), repr(float(r["normalized"]))]
                )


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


def _cells(players):
    """(channels, rows, cols) index arrays of a player list."""
    return tuple(np.asarray(players, dtype=np.int64).reshape(-1, 3).T)


def shapley_sample(predict, image, class_idx, background_mean, players, M, seed):
    """Permutation-sampling Shapley estimates for the given cells.

    ``predict`` maps a (B, C, P, P) batch to (B, classes) probabilities;
    ``image`` and ``background_mean`` are (C, P, P) tensors; ``players`` are
    distinct (channel, row, col) cells. Each permutation is one predict batch.
    """
    players = list(players)
    if not players:
        raise ValueError("players must be non-empty")
    rng = np.random.default_rng(seed)
    image = np.asarray(image, dtype=np.float64)
    background = np.asarray(background_mean, dtype=np.float64)
    ch, r, c = _cells(players)
    n = len(players)
    values = np.zeros(n)
    for _ in range(M):
        order = rng.permutation(n)
        # coalition t holds the players ranked below t in this permutation
        played = np.argsort(order) < np.arange(n + 1)[:, None]
        batch = np.repeat(background[None], n + 1, axis=0)
        batch[:, ch, r, c] = np.where(played, image[ch, r, c], background[ch, r, c])
        scores = predict(batch)[:, class_idx]
        values[order] += np.diff(scores)
    return values / M


def shapley_exact(predict, image, class_idx, background_mean, players):
    """Exact Shapley values by subset enumeration (<= 8 players); ``image``
    and ``background_mean`` are (C, P, P) tensors."""
    players = list(players)
    P = len(players)
    if P > 8:
        raise TooLarge(f"exhaustive Shapley limited to 8 players, got {P}")
    image = np.asarray(image, dtype=np.float64)
    background = np.asarray(background_mean, dtype=np.float64)
    tensors = []
    for mask in range(1 << P):
        t = background.copy()
        for pi in range(P):
            if mask >> pi & 1:
                ch, r, c = players[pi]
                t[ch, r, c] = image[ch, r, c]
        tensors.append(t)
    scores = predict(np.stack(tensors))[:, class_idx]
    fact = [math.factorial(i) for i in range(P + 1)]
    values = np.zeros(P)
    for pi in range(P):
        for mask in range(1 << P):
            if mask >> pi & 1:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[P - s - 1] / fact[P]
            values[pi] += weight * (scores[mask | (1 << pi)] - scores[mask])
    return values


def class_global_importance(predict, images, test_indices, n_classes, players, config):
    """Average per-sample Shapley values over each class's test images."""
    test_indices = np.asarray(test_indices)
    labels = np.asarray(images.labels)
    values = np.zeros((n_classes, *images.tensors.shape[1:]))
    counts = np.zeros(n_classes, dtype=np.int64)
    background_idx = np.asarray(config.background, dtype=np.int64)
    if background_idx.size == 0:
        raise ValueError("background index set must be non-empty")
    background_mean = images.tensors[background_idx].astype(np.float64).mean(axis=0)
    ch, r, c = _cells(players)
    rng = np.random.default_rng(config.seed)
    for idx in test_indices:
        cls = int(labels[idx])
        local = shapley_sample(
            predict,
            images.tensors[idx],
            cls,
            background_mean,
            players,
            config.n_permutations,
            int(rng.integers(2**32)),
        )
        np.add.at(values, (cls, ch, r, c), local)
        counts[cls] += 1
    for cls in range(n_classes):
        if counts[cls] == 0:
            import warnings

            warnings.warn(f"class {cls} has no test samples; attribution skipped",
                          stacklevel=2)
        else:
            values[cls] /= counts[cls]
    return AttributionMap(values=values, counts=counts, players=tuple(players))


def hvf_players(f_layouts, feature_sets):
    """Cells (channel, row, col) for the selected features of each modality."""
    players = []
    for ch, (fl, selected) in enumerate(zip(f_layouts, feature_sets), start=1):
        for j in selected:
            r, c = fl.layout.item_to_cell[int(j)]
            players.append((ch, int(r), int(c)))
    return players


def map_to_features(attr, f_layouts, feature_names_per_modality, class_names,
                    modality_names=None):
    """Invert the layout permutations back to named features; dummy cells are
    dropped."""
    if len(f_layouts) != len(feature_names_per_modality):
        raise LayoutMismatch("feature layouts and name lists disagree")
    if modality_names is None:
        modality_names = [f"modality{i}" for i in range(len(f_layouts))]
    played = set(attr.players)
    table = FeatureImportanceTable()
    raw_rows = []
    for ch, (fl, names, mname) in enumerate(
        zip(f_layouts, feature_names_per_modality, modality_names), start=1
    ):
        if len(names) != len(fl.layout.item_to_cell):
            raise LayoutMismatch(f"modality {mname}: {len(names)} names for "
                                 f"{len(fl.layout.item_to_cell)} laid-out features")
        for j, (r, c) in enumerate(fl.layout.item_to_cell):
            if (ch, r, c) not in played:
                continue
            for cls, cname in enumerate(class_names):
                raw_rows.append(
                    {"feature": names[j], "modality": mname, "class": cname,
                     "raw": float(attr.values[cls, ch, r, c])}
                )
    # per-class max-|value| normalization for reporting; raw values retained
    for cname in class_names:
        cls_rows = [r for r in raw_rows if r["class"] == cname]
        peak = max((abs(r["raw"]) for r in cls_rows), default=0.0)
        for r in cls_rows:
            r["normalized"] = r["raw"] / peak if peak > 0 else 0.0
    table.rows = raw_rows
    return table


def cluster_profiles(profiles, labels=None):
    """Agglomerative clustering with unweighted average linkage on Euclidean
    distances; ties break on the lowest (i, j) pair."""
    X = np.asarray(profiles, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 items to cluster")
    if labels is None:
        labels = [f"item{i}" for i in range(n)]
    diff = X[:, None, :] - X[None, :, :]
    dist = {(i, j): float(np.sqrt(np.sum(diff[i, j] ** 2))) for i in range(n) for j in range(i + 1, n)}
    sizes = {i: 1 for i in range(n)}
    active = list(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                d = dist[(min(i, j), max(i, j))]
                if best is None or d < best[0] - 1e-15:
                    best = (d, i, j)
        d, i, j = best
        merges.append((i, j, d, sizes[i] + sizes[j]))
        for other in active:
            if other in (i, j):
                continue
            di = dist[(min(i, other), max(i, other))]
            dj = dist[(min(j, other), max(j, other))]
            dn = (sizes[i] * di + sizes[j] * dj) / (sizes[i] + sizes[j])
            dist[(min(next_id, other), max(next_id, other))] = dn
        sizes[next_id] = sizes[i] + sizes[j]
        active = [a for a in active if a not in (i, j)] + [next_id]
        next_id += 1
    return Dendrogram(merges=tuple(merges), leaf_labels=tuple(labels))


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
