"""Community detection over adjacency-row connectivity profiles.

Each node is represented by its adjacency row; nodes are partitioned with
k-means++ seeding followed by Lloyd iterations, and the fitted centroids yield
a z-scored inter-community distance matrix used for the structural layout.
The rows are a graph's sparse ``CSRMatrix`` or any dense array, such as the
metrics stage's image embedding. The two paths differ only in how a block of
rows is made dense, how ``rows @ C.T`` is formed and how each community's
rows are added up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadArgument, DegenerateData, MalformedLine, ShapeMismatch
from .graph import CSRMatrix, node_rows, read_rows, write_rows


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


def _sq_dists_to(rows, point):
    # np.sum((rows - point) ** 2, axis=1), block by block; each row sums on its
    # own, so the bits do not depend on the blocks. Squared norms at point 0.0.
    if isinstance(rows, CSRMatrix):
        return _sparse_sq_dists_to(rows, point)
    out = np.empty(len(rows))
    for blk in _blocks(rows):
        out[blk] = _sum_squares(rows[blk] - point)
    return out


def _sparse_sq_dists_to(A, point):
    # each block of (row - point) ** 2 is made dense in one reused buffer: a
    # zero entry's term (0.0 - p) ** 2 has the bits of p * p, and each
    # nonzero's term is computed as the dense rows compute it
    point = np.broadcast_to(np.asarray(point, dtype=np.float64), (A.n,))
    zero_terms = point * point
    blocks = _blocks(A)
    buf = np.empty((min(blocks[0].stop, A.n), A.n)) if blocks else None
    out = np.empty(A.n)
    for blk in blocks:
        start, stop, _ = blk.indices(A.n)
        block = buf[: stop - start]
        block[...] = zero_terms
        row, col, w = A.entries(blk)
        terms = w - point[col]
        terms *= terms
        block[row - start, col] = terms
        out[blk] = np.sum(block, axis=1)
    return out


def _sum_squares(x):
    # np.sum(x**2, axis=1), squaring x in place; a temporary passed in is
    # freed on return, before the next block's is made
    x *= x
    return np.sum(x, axis=1)


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
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists_to(rows, _dense(rows, chosen[0]))
    for _ in range(1, P):
        total = d2.sum()
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists_to(rows, _dense(rows, idx)))
    return _dense(rows, np.array(chosen))


def _as_rows(rows):
    return rows if isinstance(rows, CSRMatrix) else np.asarray(rows, dtype=np.float64)


def kmeans(rows, P, seed, max_iter=300, init_centroids=None):
    """Lloyd's algorithm on arbitrary row vectors: a CSRMatrix or a dense array.

    Returns (centroids, assignment, inertia_history). Ties in the assignment
    step go to the lowest community index; a cluster emptied by an update is
    reseeded at the row farthest from its stale centroid. Beyond the rows, it
    holds O(P * n) arrays, O(nnz) ones for a CSRMatrix, and one block of rows
    at a time.

    A CSRMatrix and the same matrix dense give the same centroids and
    assignment, bit for bit, whenever no distance is within rounding of a
    tie: the seeding, the squared norms and the centroid sums have the same
    bits on both paths. Only ``rows @ C.T`` adds its products in another
    order, so the inertia history may differ in the last bits.
    """
    rows = _as_rows(rows)
    if P < 1:
        raise BadArgument(f"community count P must be >= 1, got {P}")
    if max_iter < 1:
        raise BadArgument(f"max_iter must be >= 1, got {max_iter}")
    centroids = kmeanspp_init(rows, P, seed) if init_centroids is None else np.array(init_centroids, dtype=np.float64)
    row_norms = _sq_dists_to(rows, 0.0)
    assignment = None
    history = []
    for _ in range(max_iter):
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
                centroids[c] = _dense(rows, int(np.argmax(_sq_dists_to(rows, centroids[c]))))
    return centroids, assignment, history


def fit_communities(graph, P, seed):
    """Cluster the graph's connectivity profiles into P communities."""
    centroids, assignment, history = kmeans(graph.csr, P, seed)
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
    D = np.sqrt(np.maximum(_sq_dists(C, C, _sq_dists_to(C, 0.0)), 0.0))
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


def read_centroids(path, n):
    """The (P, n) centroids of a centroids.g2t file: one 2-D array with P >= 1
    rows and one column per node. read_named_tensors rejects NaN or infinite
    values."""
    from .imaging import read_named_tensors

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
