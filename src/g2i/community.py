"""Community detection over adjacency-row connectivity profiles.

Each node is represented by its adjacency row; nodes are partitioned with
k-means++ seeding followed by Lloyd iterations, and the fitted centroids yield
a z-scored inter-community distance matrix used for the structural layout.
The rows are a graph's sparse ``CSRMatrix`` or any dense array, such as the
metrics stage's image embedding. Every squared distance (k-means++ seeding,
the reseed of an emptied community, Lloyd's assignment and the distances
between centroids) is ``|a|^2 - a.(2c) + |c|^2``, from the rows' squared
norms and one product ``rows @ C.T``. The two paths differ only in how those
norms and that product are formed and how each community's rows are added
up. A CSRMatrix row is made dense only as a seed or a reseeded centroid, or
while the rows are scanned for P distinct ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadArgument, DegenerateData, MalformedLine, ShapeMismatch
from .formats import node_rows, read_named_tensors, read_rows, write_named_tensors, write_rows
from .graph import CSRMatrix


_HEADER = ("node_id", "community")


@dataclass(frozen=True)
class CommunityModel:
    P: int
    centroids: np.ndarray        # (P, n)
    assignment: np.ndarray       # (n,) community indices
    inertia_history: tuple


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


# Lloyd iterations at most; k-means stops earlier when the assignment repeats
_MAX_ITER = 300

# bytes of adjacency rows that each blocked pass over the rows takes at a time,
# so that its temporaries stay O(block * n) instead of n x n
_BLOCK_BYTES = 1 << 20


def _blocks(rows):
    """Slices of consecutive rows of ``rows``, about _BLOCK_BYTES each."""
    n, width = rows.shape
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(start, start + step) for start in range(0, n, step)]


def _dense(rows, index):
    """``rows[index]`` as dense float64 rows: a view of a dense array, or a
    CSRMatrix's rows made dense."""
    return rows.dense_rows(index) if isinstance(rows, CSRMatrix) else rows[index]


def _row_norms(rows):
    """Each row's squared norm: a CSRMatrix row's stored weights squared and
    added in column order, a dense row's ``np.sum(row ** 2)``, block by block
    (each row sums on its own, so the bits do not depend on the blocks)."""
    if isinstance(rows, CSRMatrix):
        row, _, w = rows.entries()
        return np.bincount(row, weights=w * w, minlength=rows.n)
    out = np.empty(len(rows))
    for blk in _blocks(rows):
        out[blk] = np.sum(rows[blk] ** 2, axis=1)
    return out


def _sq_dists(rows, centroids, row_norms):
    """(n, P) squared Euclidean distances, given ``row_norms``, the rows'
    squared norms. The factor 2 scales the small centroids, not the rows, which
    is exact: the product has the bits of (2 * rows) @ centroids.T without an
    n x n copy, and numpy does not switch to syrk when ``rows`` is
    ``centroids``. The product takes all rows at once: OpenBLAS sums a row
    block below its small-matrix size in another order."""
    return (
        row_norms[:, None]
        - rows @ (2.0 * centroids).T
        + np.sum(centroids**2, axis=1)[None, :]
    )


def _has_distinct_rows(rows, P):
    """Whether ``rows`` holds at least P distinct rows, counted as
    np.unique(rows, axis=0) counts finite rows (0.0 equal to -0.0), one row at
    a time and stopping at the P-th."""
    seen = set()
    for blk in _blocks(rows):
        for row in _dense(rows, blk):
            seen.add((row + 0.0).tobytes())     # + 0.0 turns -0.0 into 0.0
            if len(seen) >= P:
                return True
    return False


def kmeanspp_init(rows, P, seed):
    """k-means++ seeding: first centroid uniform, then proportional to D(a_i)^2.
    ``rows`` is a CSRMatrix or a dense array."""
    rows = _as_rows(rows)
    n = rows.shape[0]
    if P > n:
        raise DegenerateData(f"P={P} exceeds number of rows {n}")
    if not _has_distinct_rows(rows, P):
        raise DegenerateData(f"fewer than P={P} distinct rows")
    rng = np.random.default_rng(seed)
    row_norms = _row_norms(rows)
    chosen = [int(rng.integers(n))]
    d2 = np.inf
    for _ in range(1, P):
        # clamped at 0: rounding can leave a row's distance to its copy below 0
        to_last = _sq_dists(rows, _dense(rows, chosen[-1:]), row_norms)[:, 0]
        d2 = np.minimum(d2, np.maximum(to_last, 0.0))
        total = d2.sum()
        if not 0.0 < total < math.inf:
            # P distinct rows make the exact sum positive: it cancelled or overflowed
            peak = np.abs(rows.weights if isinstance(rows, CSRMatrix) else rows).max(initial=0.0)
            raise DegenerateData(f"k-means++ distances to {len(chosen)} seed(s) cancel or "
                                 f"overflow: the rows' largest |value| is {peak:.6g}")
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return _dense(rows, np.array(chosen))


def _as_rows(rows):
    return rows if isinstance(rows, CSRMatrix) else np.asarray(rows, dtype=np.float64)


def kmeans(rows, P, seed, init_centroids=None):
    """Lloyd's algorithm on arbitrary row vectors: a CSRMatrix or a dense array.

    Returns (centroids, assignment, inertia_history). Ties in the assignment
    step go to the lowest community index; a cluster emptied by an update is
    reseeded at the row farthest from its stale centroid. Beyond the rows, it
    holds O(P * n) arrays, O(nnz) ones for a CSRMatrix, and one block of rows
    at a time.

    A CSRMatrix and the same matrix dense give the same centroids and
    assignment, bit for bit, whenever no distance is within rounding of a
    tie, and the centroid sums have the same bits on both paths. On integer
    weights, as on every unweighted graph, the seeding is exact on both
    paths. On other weights the squared norms and ``rows @ C.T`` add in
    another order on the two paths, so the seeds agree unless a k-means++
    draw falls within rounding of a cumulative-probability boundary. The
    inertia history may differ in the last bits.
    """
    rows = _as_rows(rows)
    if P < 1:
        raise BadArgument(f"community count P must be >= 1, got {P}")
    centroids = kmeanspp_init(rows, P, seed) if init_centroids is None else np.array(init_centroids, dtype=np.float64)
    row_norms = _row_norms(rows)
    assignment = None
    history = []
    for _ in range(_MAX_ITER):
        d2 = _sq_dists(rows, centroids, row_norms)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(np.take_along_axis(d2, new_assignment[:, None], axis=1).sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=P)
        # each community's rows added in row order to 0.0, as
        # rows[assignment == c].mean(axis=0) sums them, without a copy of them
        # (numpy sums a single column pairwise, so rows one column wide can
        # differ from that mean in the last bit; no g2i stage clusters such rows)
        if isinstance(rows, CSRMatrix):
            sums = rows.group_sums(assignment, P)
        else:
            sums = np.zeros((P, rows.shape[1]))
            for row, c in zip(rows, assignment.tolist()):
                sums[c] += row
        for c in range(P):
            if counts[c]:
                centroids[c] = sums[c] / counts[c]
            else:
                centroids[c] = _dense(rows, int(np.argmax(np.maximum(d2[:, c], 0.0))))
    return centroids, assignment, history


def fit_communities(graph, P, seed):
    """Cluster the graph's connectivity profiles into P communities."""
    centroids, assignment, history = kmeans(graph.csr, P, seed)
    return CommunityModel(P=P, centroids=centroids, assignment=assignment,
                          inertia_history=tuple(history))


def association_matrix(model):
    """Pairwise centroid distances, z-scored over all P^2 entries.

    Uses the population standard deviation; when all distances are equal
    (sigma 0) the z-scored matrix is all zeros.
    """
    C = model.centroids
    D = np.sqrt(np.maximum(_sq_dists(C, C, _row_norms(C)), 0.0))
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
    write_rows(path, _HEADER, zip(graph.node_ids, model.assignment.tolist()))


def write_centroids(model, path):
    write_named_tensors([("centroids", -1, model.centroids)], (), path)


def read_centroids(path, n):
    """The (P, n) centroids of a centroids.g2t file: one 2-D array with P >= 1
    rows and one column per node. read_named_tensors rejects NaN or infinite
    values."""
    entries, _ = read_named_tensors(path)
    shapes = [arr.shape for _, _, arr in entries]
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] < 1 or shapes[0][1] != n:
        raise ShapeMismatch(f"{path}: expected one (P, {n}) array of centroids with P >= 1, "
                            f"found shape(s) {shapes}")
    return entries[0][2].astype(np.float64)


def read_assignment(path, node_ids, P):
    """Community index in [0, P) of each of ``node_ids``, from a
    ``node_id,community`` file with one line per node."""
    rows = read_rows(path, _HEADER, int)
    for line, c in zip(rows.lines, rows.values):
        if not 0 <= c < P:
            raise MalformedLine(path, line, f"community {c} outside [0, {P})")
    return np.array(rows.values, dtype=np.int64)[node_rows(path, rows, node_ids, "community")]
