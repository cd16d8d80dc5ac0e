"""Partition-agreement and geometric-separation scores for embeddings.

All entropies use the natural logarithm with the 0*log(0) = 0 convention;
degenerate zero-entropy cases follow the conventions stated on each function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingleCluster
from .graph import write_rows


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray           # (R, C) n_ij
    row_sums: np.ndarray         # a_i
    col_sums: np.ndarray         # b_j
    total: int

    @classmethod
    def from_labels(cls, u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        _, ui = np.unique(u, return_inverse=True)
        _, vi = np.unique(v, return_inverse=True)
        counts = np.zeros((ui.max() + 1, vi.max() + 1), dtype=np.int64)
        np.add.at(counts, (ui, vi), 1)
        return cls(
            counts=counts,
            row_sums=counts.sum(axis=1),
            col_sums=counts.sum(axis=0),
            total=int(counts.sum()),
        )


@dataclass(frozen=True)
class ClusteringScores:
    ari: float
    nmi: float
    homogeneity: float
    completeness: float
    v_measure: float
    silhouette: float


def _comb2(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def ari(table):
    """Adjusted Rand index; degenerate chance==max cases give 1 for identical
    partitions, else 0."""
    if table.total < 2:
        raise ValueError("need at least 2 samples")
    sum_nij = _comb2(table.counts).sum()
    sum_a = _comb2(table.row_sums).sum()
    sum_b = _comb2(table.col_sums).sum()
    n2 = _comb2(np.array([table.total]))[0]
    expected = sum_a * sum_b / n2
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        identical = sum_nij == sum_a == sum_b
        return 1.0 if identical else 0.0
    return float((sum_nij - expected) / (maximum - expected))


def _entropy(counts, total):
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def _mutual_information(table):
    N = table.total
    I = 0.0
    for i in range(table.counts.shape[0]):
        for j in range(table.counts.shape[1]):
            nij = table.counts[i, j]
            if nij:
                I += (nij / N) * math.log(
                    (nij / N) / ((table.row_sums[i] / N) * (table.col_sums[j] / N))
                )
    return I


def nmi(table):
    """Arithmetic-mean normalized mutual information, 2I/(H(U)+H(V))."""
    hu = _entropy(table.row_sums, table.total)
    hv = _entropy(table.col_sums, table.total)
    if hu == 0.0 and hv == 0.0:
        return 1.0
    if hu == 0.0 or hv == 0.0:
        return 0.0
    return 2.0 * _mutual_information(table) / (hu + hv)


def homogeneity_completeness_v(table):
    """h = 1 - H(U|V)/H(U), c = 1 - H(V|U)/H(V), v = their harmonic mean."""
    N = table.total
    hu = _entropy(table.row_sums, N)
    hv = _entropy(table.col_sums, N)
    h_u_given_v = 0.0
    h_v_given_u = 0.0
    for i in range(table.counts.shape[0]):
        for j in range(table.counts.shape[1]):
            nij = table.counts[i, j]
            if nij:
                h_u_given_v -= (nij / N) * math.log(nij / table.col_sums[j])
                h_v_given_u -= (nij / N) * math.log(nij / table.row_sums[i])
    h = 1.0 if hu == 0.0 else 1.0 - h_u_given_v / hu
    c = 1.0 if hv == 0.0 else 1.0 - h_v_given_u / hv
    v = 2.0 * h * c / (h + c) if h + c > 0 else 0.0
    return h, c, v


def silhouette(points, assignment):
    """Mean silhouette (b - a)/max(a, b) with Euclidean distances; singleton
    clusters, and points with a = b (a = b = 0 included), contribute 0."""
    X = np.asarray(points, dtype=np.float64)
    labels = np.asarray(assignment)
    clusters = np.unique(labels)
    if len(clusters) < 2:
        raise SingleCluster("silhouette requires at least 2 clusters")
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            continue
        dist = np.sqrt(np.sum((X - X[i]) ** 2, axis=1))
        a = dist[own].sum() / (n_own - 1)
        b = min(dist[labels == c].mean() for c in clusters if c != labels[i])
        if a != b:
            scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def score_embedding(embedding, true_labels, seed=0):
    """Cluster the embedding with k-means at the true class count and score it."""
    from .community import kmeans

    true_labels = np.asarray(true_labels)
    n_classes = len(np.unique(true_labels))
    _, pred, _ = kmeans(np.asarray(embedding, dtype=np.float64), n_classes, seed)
    table = ContingencyTable.from_labels(true_labels, pred)
    h, c, v = homogeneity_completeness_v(table)
    return ClusteringScores(
        ari=ari(table),
        nmi=nmi(table),
        homogeneity=h,
        completeness=c,
        v_measure=v,
        silhouette=silhouette(embedding, pred),
    )


def write_scores(scores_by_model, path):
    columns = ("ari", "nmi", "homogeneity", "completeness", "v_measure", "silhouette")
    write_rows(path, ("model", *columns),
               ([model, *(repr(float(getattr(s, c))) for c in columns)]
                for model, s in scores_by_model.items()))
