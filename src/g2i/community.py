"""Community detection over adjacency-row connectivity profiles.

Each node is represented by its adjacency row; nodes are partitioned with
k-means++ seeding followed by Lloyd iterations, and the fitted centroids yield
a z-scored inter-community distance matrix used for the structural layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadArgument, DegenerateData, MalformedLine, UnknownNodeId
from .graph import read_int_rows


_HEADER = ("node_id", "community")


@dataclass(frozen=True)
class CommunityModel:
    P: int
    centroids: np.ndarray        # (P, n)
    assignment: np.ndarray       # (n,) community indices
    inertia_history: tuple
    seed: int


@dataclass(frozen=True)
class AssociationMatrix:
    values: np.ndarray           # (P, P) z-scored distances
    raw_distances: np.ndarray    # (P, P)
    mu: float
    sigma: float

    @property
    def P(self):
        return self.values.shape[0]


def community_count(k):
    """ceil(sqrt(k)): the number of communities for k features, and the side
    of the smallest square grid with k cells."""
    if k < 1:
        raise BadArgument(f"k must be >= 1, got {k}")
    s = math.isqrt(k)
    return s if s * s == k else s + 1


def _sq_dists(rows, centroids):
    # (n, P) squared Euclidean distances
    return (
        np.sum(rows**2, axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )


def kmeanspp_init(rows, P, seed):
    """k-means++ seeding: first centroid uniform, then proportional to D(a_i)^2."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if P > n:
        raise DegenerateData(f"P={P} exceeds number of rows {n}")
    if np.unique(rows, axis=0).shape[0] < P:
        raise DegenerateData(f"fewer than P={P} distinct rows")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((rows - rows[chosen[0]]) ** 2, axis=1)
    for _ in range(1, P):
        total = d2.sum()
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((rows - rows[idx]) ** 2, axis=1))
    return rows[chosen].copy()


def kmeans(rows, P, seed, max_iter=300, init_centroids=None):
    """Lloyd's algorithm on arbitrary row vectors.

    Returns (centroids, assignment, inertia_history). Ties in the assignment
    step go to the lowest community index; a cluster emptied by an update is
    reseeded at the row farthest from its stale centroid.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if P < 1:
        raise BadArgument(f"community count P must be >= 1, got {P}")
    if max_iter < 1:
        raise BadArgument(f"max_iter must be >= 1, got {max_iter}")
    centroids = kmeanspp_init(rows, P, seed) if init_centroids is None else np.array(init_centroids, dtype=np.float64)
    assignment = None
    history = []
    for _ in range(max_iter):
        d2 = _sq_dists(rows, centroids)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(np.take_along_axis(d2, new_assignment[:, None], axis=1).sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(P):
            members = rows[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = int(np.argmax(np.sum((rows - centroids[c]) ** 2, axis=1)))
                centroids[c] = rows[far]
    return centroids, assignment, history


def fit_communities(graph, P, seed):
    """Cluster the graph's connectivity profiles into P communities."""
    centroids, assignment, history = kmeans(graph.adjacency, P, seed)
    return CommunityModel(
        P=P,
        centroids=centroids,
        assignment=assignment,
        inertia_history=tuple(history),
        seed=seed,
    )


def association_matrix(model):
    """Pairwise centroid distances, z-scored over all P^2 entries.

    Uses the population standard deviation; when all distances are equal
    (sigma 0) the z-scored matrix is all zeros.
    """
    C = model.centroids
    D = np.sqrt(np.maximum(_sq_dists(C, C), 0.0))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    mu = float(D.mean())
    sigma = float(D.std())
    if sigma == 0.0:
        Z = np.zeros_like(D)
    else:
        Z = (D - mu) / sigma
    return AssociationMatrix(values=Z, raw_distances=D, mu=mu, sigma=sigma)


def write_communities(model, graph, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for nid, c in zip(graph.node_ids, model.assignment):
            writer.writerow([nid, int(c)])


def read_assignment(path, node_ids, P):
    """Community index in [0, P) of each of ``node_ids``, from a
    ``node_id,community`` file with one line per node."""
    by_id, line_of = {}, {}       # node id -> community, line number
    for lineno, nid, (c,) in read_int_rows(path, _HEADER):
        if not 0 <= c < P:
            raise MalformedLine(path, lineno, f"community {c} outside [0, {P})")
        if nid in line_of:
            raise MalformedLine(path, lineno, f"duplicate node id {nid!r}, "
                                              f"first on line {line_of[nid]}")
        by_id[nid], line_of[nid] = c, lineno
    missing = [nid for nid in node_ids if nid not in by_id]
    if missing:
        raise UnknownNodeId(f"{path}: no community for {len(missing)} node id(s), first "
                            f"{', '.join(map(repr, missing[:5]))}")
    return np.array([by_id[nid] for nid in node_ids], dtype=np.int64)
