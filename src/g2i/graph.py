"""Graph, feature and label ingestion, dataset splitting, and synthetic fixtures.

File formats:
  edge list   -- one edge per line, ``src dst weight`` (tab or space separated),
                 ``#`` comment lines ignored
  features    -- CSV with header ``node_id,<feat_1>,...,<feat_k>``, no column
                 named twice
  labels      -- CSV with header ``node_id,label``; label strings are mapped to
                 class indices in the order of the lines that first name them

Every text input is UTF-8, read through ``read_text``. ``write_rows`` writes
every CSV table but ``eval.csv``, and ``read_rows`` reads each one that a
stage reads back. A table keyed by node id (features, labels, a modality's
features, communities) lists each node on exactly one line, in any order:
``node_rows`` rejects an id listed twice, an id the graph lacks, a node
without a line and an id that starts with ``#``, which the edge list reserves
for comments. The feature file read first defines the nodes and their
order.

The adjacency is never an n x n array. ``AttributedGraph.csr`` is a
``CSRMatrix``: both triangles' nonzero weights, row by row in increasing
column order, in three numpy arrays (``indptr``, ``indices``, ``weights``).
``load_graph`` parses the edge list into compact int64/float64 arrays,
finds an edge listed twice (in either orientation, zero weights included)
from the sorted pair codes ``min(i, j) * n + max(i, j)``, and names the first
line that repeats an earlier pair with both weights. When a file holds
several faults, the one on the earliest line is reported. Zero weights are
then dropped, and the matrix holds the rest in both triangles.
"""

from __future__ import annotations

import contextlib
import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricDuplicate,
    BadArgument,
    ClassTooSmall,
    G2IError,
    MalformedLine,
    SelfLoop,
    UnknownNodeId,
)


# every number read from a text input must fit the float32 that images.g2t
# and centroids.g2t store
_F32_MAX = float(np.finfo(np.float32).max)


# the header of a feature file, and of a label file
FEATURE_HEADER = ("node_id", "...")        # then one column per feature
LABEL_HEADER = ("node_id", "label")

# what read_rows' ``convert`` makes of the values after a row's name
_VALUES = {int: "integers", float: "numbers"}


# bytes that one block of rows takes: generate_sbm's uniform draws, and the
# products of CSRMatrix @ a dense array
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CSRMatrix:
    """A square float64 matrix in compressed sparse row form: row i holds
    ``weights[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in increasing column order, and no
    stored weight is zero."""

    indptr: np.ndarray           # (n + 1,) int64
    indices: np.ndarray          # (nnz,) int64
    weights: np.ndarray          # (nnz,) float64

    def __post_init__(self):
        ptr, idx, w = self.indptr, self.indices, self.weights
        if not (ptr.ndim == idx.ndim == w.ndim == 1 and len(ptr) >= 1 and ptr[0] == 0
                and ptr[-1] == len(idx) == len(w) and np.all(np.diff(ptr) >= 0)):
            raise ValueError("indptr, indices and weights do not describe a CSR matrix")
        if len(idx):
            keys = self._keys()
            if not (0 <= idx.min() and idx.max() < self.n and np.all(keys[1:] > keys[:-1])):
                raise ValueError("column indices must lie in [0, n) and increase within each row")
        if np.any(w == 0):
            raise ValueError("a stored weight is zero")
        for arr in (ptr, idx, w):
            arr.setflags(write=False)

    @classmethod
    def symmetric(cls, n, lo, hi, weights):
        """Both triangles of the n x n symmetric matrix whose upper-triangle
        entries ``(lo[e], hi[e]) = weights[e]``, lo < hi, are each given once,
        in any order."""
        E = len(lo)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
        keys = np.concatenate([lo, hi]).astype(np.int64, copy=False)  # row * n + column
        keys *= n
        cols = np.concatenate([hi, lo]).astype(np.int64, copy=False)
        keys += cols
        order = np.argsort(keys)                     # the keys are distinct
        del keys
        indices = cols[order]
        del cols
        order[order >= E] -= E                       # entries e and E + e hold weights[e]
        return cls(indptr, indices, np.asarray(weights, dtype=np.float64)[order])

    @classmethod
    def from_dense(cls, A):
        """The nonzeros of the square array ``A``."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        rows, cols = np.nonzero(A)                   # row-major
        indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=A.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), A[rows, cols])

    @property
    def n(self):
        return len(self.indptr) - 1

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def nnz(self):
        return len(self.indices)

    def entries(self, rows=slice(None)):
        """(row, column, weight) of each stored entry of a slice of rows, in
        storage order."""
        start, stop, _ = rows.indices(self.n)
        stop = max(start, stop)
        lo, hi = self.indptr[start], self.indptr[stop]
        row = np.repeat(np.arange(start, stop), np.diff(self.indptr[start : stop + 1]))
        return row, self.indices[lo:hi], self.weights[lo:hi]

    def row_blocks(self, max_entries):
        """Slices of consecutive rows that cover the matrix, each holding
        about ``max_entries`` stored entries: a block starts at the row of
        every max_entries-th entry."""
        cuts = np.searchsorted(self.indptr, np.arange(0, self.nnz, max_entries), side="right") - 1
        cuts = np.unique(np.append(cuts, [0, self.n])).tolist()
        return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    def _keys(self):
        # row * n + column of each entry: increasing exactly when the entries
        # are sorted by row and then by column, with no pair twice
        keys = self.entries()[0]
        keys *= self.n
        keys += self.indices
        return keys

    def is_symmetric(self):
        """Whether the matrix equals its transpose (NaN equals nothing)."""
        transposed = self.indices * self.n
        transposed += self.entries()[0]
        order = np.argsort(transposed)
        transposed = transposed[order]
        return (np.array_equal(transposed, self._keys())
                and np.array_equal(self.weights[order], self.weights))

    def diagonal_is_zero(self):
        return not np.any(self.indices == self.entries()[0])

    def dense_rows(self, index):
        """``self.toarray()[index]`` for a row number, a slice of step 1 or an
        array of row numbers, without the whole matrix."""
        if isinstance(index, slice):
            start, stop, step = index.indices(self.n)
            if step != 1:
                raise ValueError("dense_rows takes slices of step 1")
            row, col, w = self.entries(index)
            out = np.zeros((max(stop - start, 0), self.n))
            out[row - start, col] = w
            return out
        rows = np.asarray(index)
        out = np.zeros((rows.size, self.n))
        for r, i in enumerate(rows.ravel().tolist()):
            _, col, w = self.entries(slice(i, i + 1))
            out[r, col] = w
        return out.reshape(*rows.shape, self.n)

    def toarray(self):
        return self.dense_rows(slice(None))

    def __matmul__(self, other):
        """``self @ other`` for a dense (n, m) array. Each output entry is one
        ``np.add.reduceat`` over its row's products in column order, so it
        does not depend on the blocks, and it can differ from a dense
        product's sum in the last bits. The products are formed about
        _BLOCK_BYTES at a time."""
        other_t = np.ascontiguousarray(np.asarray(other, dtype=np.float64).T)   # (m, n)
        m = other_t.shape[0]
        out = np.zeros((self.n, m))
        for blk in self.row_blocks(max(1, _BLOCK_BYTES // (8 * max(m, 1)))):
            starts = self.indptr[blk.start : blk.stop]
            nonempty = starts < self.indptr[blk.start + 1 : blk.stop + 1]
            lo, hi = starts[0], self.indptr[blk.stop]
            products = np.take(other_t, self.indices[lo:hi], axis=1)
            products *= self.weights[lo:hi]
            out[blk][nonempty] = np.add.reduceat(products, starts[nonempty] - lo, axis=1).T
        return out

    def group_sums(self, groups, n_groups):
        """(n_groups, n): the sum of the rows of each group, ``groups[i]`` being
        row i's group. Each entry adds its rows in row order to 0.0, as the
        dense loop ``sums[groups[i]] += row_i`` does: no weight is zero, so
        no partial sum is -0.0, and the zeros that loop adds change none."""
        flat = np.asarray(groups, dtype=np.int64)[self.entries()[0]]
        flat *= self.n
        flat += self.indices
        sums = np.bincount(flat, weights=self.weights, minlength=n_groups * self.n)
        return sums.reshape(n_groups, self.n)


@dataclass(frozen=True)
class Rows:
    """A CSV table as read_rows reads it."""

    columns: tuple               # the fields of its header
    lines: list                  # the line number of each row
    names: list                  # the first field of each row
    values: list                 # the later fields of each row, converted, row after row


@dataclass(frozen=True)
class NodeTable:
    """The nodes of a graph without its edges: ids, features and optional
    labels, as load_nodes reads them."""

    node_ids: tuple
    features: np.ndarray         # (n, k) float64
    feature_names: tuple
    labels: np.ndarray | None = None      # (n,) int class indices
    class_names: tuple | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.n:
            raise ValueError("feature row count does not match node count")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature name count does not match feature columns")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("label count does not match node count")
            if self.class_names is not None and len(self.class_names) > 0:
                if self.labels.max(initial=-1) >= len(self.class_names):
                    raise ValueError("label index out of range")
        # Node tables are immutable after construction; freeze the arrays.
        self.features.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    @property
    def n(self):
        return len(self.node_ids)

    @property
    def k(self):
        return self.features.shape[1]


@dataclass(frozen=True, kw_only=True)
class AttributedGraph(NodeTable):
    """Symmetric weighted graph with per-node features and optional labels."""

    csr: CSRMatrix               # (n, n), symmetric, zero diagonal, weights > 0

    def __post_init__(self):
        A = self.csr
        if A.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {A.shape} != ({self.n}, {self.n})")
        if not A.is_symmetric():
            raise ValueError("adjacency is not symmetric")
        if not A.diagonal_is_zero():
            raise SelfLoop("adjacency has nonzero diagonal")
        if A.weights.min(initial=0.0) < 0:
            raise ValueError("negative edge weight")
        super().__post_init__()

    def degrees(self):
        """Each node's weighted degree, its row's weights added in column order."""
        return np.bincount(self.csr.entries()[0], weights=self.csr.weights, minlength=self.n)


@dataclass(frozen=True)
class DatasetSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        all_idx = np.concatenate([self.train, self.val, self.test])
        if len(np.unique(all_idx)) != len(all_idx):
            raise ValueError("split sets overlap")


def load_graph(edge_path, feature_path, label_path=None):
    """Read edge list + feature CSV (+ optional label CSV) into an AttributedGraph."""
    nodes = load_nodes(feature_path, label_path)
    return AttributedGraph(**vars(nodes), csr=_read_edges(edge_path, nodes.node_ids))


def _read_edges(edge_path, node_ids):
    """The CSRMatrix of the edge list at ``edge_path`` over ``node_ids``."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    pairs, weights, linenos = array("q"), array("d"), array("q")   # per edge, in file order
    try:
        with read_text(edge_path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t") if "\t" in line else line.split()
                if len(parts) != 3:
                    raise MalformedLine(edge_path, lineno, f"expected 3 fields, got {len(parts)}")
                src, dst, wtext = parts
                try:
                    w = float(wtext)
                except ValueError:
                    raise MalformedLine(edge_path, lineno, f"bad weight {wtext!r}") from None
                if not math.isfinite(w):
                    raise MalformedLine(edge_path, lineno, f"non-finite weight {wtext!r}")
                if abs(w) > _F32_MAX:
                    raise MalformedLine(edge_path, lineno, f"weight {wtext!r} exceeds float32's "
                                                           f"largest finite value")
                if w < 0:
                    raise MalformedLine(edge_path, lineno, f"negative weight {w}")
                if src == dst:
                    raise SelfLoop(f"{edge_path}:{lineno}: self loop on {src!r}")
                i, j = index.get(src), index.get(dst)
                if i is None or j is None:
                    raise UnknownNodeId(f"{edge_path}:{lineno}: unknown node id "
                                        f"{src if i is None else dst!r}")
                pairs.extend((i, j) if i < j else (j, i))
                weights.append(w)
                linenos.append(lineno)
    except G2IError:
        # a pair that repeats before the faulty line comes first in the file
        _check_pairs_once(edge_path, node_ids, pairs, weights, linenos)
        raise
    _check_pairs_once(edge_path, node_ids, pairs, weights, linenos)
    lo_hi = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi, w = lo_hi[:, 0], lo_hi[:, 1], np.frombuffer(weights, dtype=np.float64)
    if not w.all():                # zero-weight edges are dropped
        kept = w != 0
        lo, hi, w = lo[kept], hi[kept], w[kept]
    return CSRMatrix.symmetric(len(node_ids), lo, hi, w)


def _check_pairs_once(edge_path, node_ids, pairs, weights, linenos):
    """Raise AsymmetricDuplicate if a line lists a pair of nodes that an
    earlier line lists too, naming the first such line and both weights.
    ``pairs`` holds each edge's (lo, hi) node numbers, lo < hi."""
    lo_hi = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
    codes = lo_hi[:, 0] * len(node_ids)
    codes += lo_hi[:, 1]
    order = np.argsort(codes, kind="stable")       # each pair's lines in file order
    codes = codes[order]
    repeats = np.flatnonzero(codes[1:] == codes[:-1])
    if len(repeats):
        # the first line that repeats a pair has one earlier line with that pair
        pos = repeats[np.argmin(order[1:][repeats])]
        first, second = order[pos], order[pos + 1]
        pair = tuple(sorted(node_ids[v] for v in lo_hi[second]))
        raise AsymmetricDuplicate(
            f"{edge_path}:{linenos[second]}: edge {pair} listed twice "
            f"(weights {weights[first]} and {weights[second]})"
        )


def load_nodes(feature_path, label_path=None):
    """Read the feature CSV (+ optional label CSV) into a NodeTable; no edge
    list is read."""
    node_ids, features, feature_names = read_features(feature_path)
    labels = class_names = None
    if label_path is not None:
        rows = read_rows(label_path, LABEL_HEADER, str)
        # class indices in the order of the lines that first name each class
        class_index = {name: i for i, name in enumerate(dict.fromkeys(rows.values))}
        labels = np.array([class_index[name] for name in rows.values], dtype=np.int64)
        labels = labels[node_rows(label_path, rows, node_ids, "label")]
        class_names = tuple(class_index)
    return NodeTable(node_ids=node_ids, features=features, feature_names=feature_names,
                     labels=labels, class_names=class_names)


def read_features(path, node_ids=None):
    """(node ids, (n, k) float64 features, feature names) of a feature file,
    its rows in the order of ``node_ids``, or in file order when that is None.
    Every value must fit a float32."""
    rows = read_rows(path, FEATURE_HEADER, float)
    order = node_rows(path, rows, rows.names if node_ids is None else node_ids, "row")
    names = rows.columns[1:]
    features = np.array(rows.values, dtype=np.float64).reshape(len(rows.names), len(names))
    # min and max take no temporary, and NaN fails the test
    if not -_F32_MAX <= features.min(initial=0.0) <= features.max(initial=0.0) <= _F32_MAX:
        r, c = np.argwhere(~(np.abs(features) <= _F32_MAX))[0]
        value, where = float(features[r, c]), f"in column {names[c]!r}"
        raise MalformedLine(path, rows.lines[r],
                            f"value {value!r} {where} exceeds float32's largest finite value"
                            if math.isfinite(value) else f"non-finite value {value} {where}")
    if node_ids is None:         # the file's order is the nodes' order
        return tuple(rows.names), features, names
    return node_ids, features[order], names


@contextlib.contextmanager
def read_text(path, newline=None):
    """``open(path, newline=newline)`` on a UTF-8 text file; a byte that is
    not UTF-8 raises MalformedLine naming the line of the first one."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder reads ahead in blocks, so find the byte in the file
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, data.count(b"\n", 0, exc.start) + 1,
                                    f"not UTF-8 text: {exc.reason} "
                                    f"0x{data[exc.start]:02x}") from None
            raise


def read_rows(path, header, convert):
    """The Rows of a CSV file whose first line is ``header``, in which a
    trailing "..." stands for any further columns; no column may be named
    twice. Each later line holds one field per column, and ``convert`` turns
    every field after its first into a value; blank lines are skipped."""
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            columns = tuple(next(reader, ()))
            open_ended = header[-1] == "..."
            fixed = header[:-1] if open_ended else header
            if columns[: len(fixed)] != fixed or (not open_ended and len(columns) != len(fixed)):
                raise MalformedLine(path, 1, f"expected header {','.join(header)!r}, "
                                             f"got {','.join(columns)!r}")
            if len(set(columns)) != len(columns):
                repeated = next(c for i, c in enumerate(columns) if c in columns[:i])
                raise MalformedLine(path, 1, f"column {repeated!r} named twice")
            lines, names, values = [], [], []
            for row in reader:
                if len(row) != len(columns):
                    if not row:
                        continue
                    raise MalformedLine(path, reader.line_num,
                                        f"expected {len(columns)} fields, got {len(row)}")
                try:
                    values += map(convert, row[1:])
                except ValueError:
                    raise MalformedLine(path, reader.line_num,
                                        f"expected {_VALUES[convert]} after the name, "
                                        f"got {row[1:]}") from None
                lines.append(reader.line_num)
                names.append(row[0])
        except csv.Error as exc:
            raise MalformedLine(path, reader.line_num, f"not a CSV line: {exc}") from None
    return Rows(columns, lines, names, values)


def node_rows(path, rows, node_ids, what):
    """The index in ``rows`` of the line of each of ``node_ids``, in that
    order, for a table that lists each node on one line, named by its id. An
    id that starts with "#" (after blanks), which the edge list would read as
    a comment, an id listed twice, an id not in ``node_ids`` and a node
    without a line each raise an error that names the file."""
    found = dict.fromkeys(node_ids)      # node id -> index of its line
    for i, (line, nid) in enumerate(zip(rows.lines, rows.names)):
        if nid.lstrip().startswith("#"):
            raise MalformedLine(path, line, f"node id {nid!r} starts with '#', which "
                                            f"begins a comment in the edge list")
        if nid not in found:
            raise UnknownNodeId(f"{path}:{line}: unknown node id {nid!r}")
        if found[nid] is not None:
            raise MalformedLine(path, line, f"duplicate node id {nid!r}, "
                                            f"first on line {rows.lines[found[nid]]}")
        found[nid] = i
    if len(rows.names) < len(found):
        missing = [nid for nid, i in found.items() if i is None]
        raise UnknownNodeId(f"{path}: no {what} for {len(missing)} node id(s), first "
                            f"{', '.join(map(repr, missing[:5]))}")
    return list(found.values())


def write_rows(path, header, rows):
    """Write a CSV file: the ``header`` line, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_graph(graph, edge_path, feature_path, label_path=None):
    """Serialize a graph back to the text formats accepted by load_graph."""
    A, ids = graph.csr, graph.node_ids
    with open(edge_path, "w", encoding="utf-8") as fh:
        # the upper triangle, row-major, about 64K entries at a time
        for blk in A.row_blocks(1 << 16):
            rows, cols, weights = A.entries(blk)
            upper = rows < cols
            fh.writelines(f"{ids[i]}\t{ids[j]}\t{w!r}\n" for i, j, w in
                          zip(rows[upper].tolist(), cols[upper].tolist(), weights[upper].tolist()))
    write_rows(feature_path, (*FEATURE_HEADER[:-1], *graph.feature_names),
               ([nid, *map(repr, row.tolist())] for nid, row in zip(ids, graph.features)))
    if label_path is not None and graph.labels is not None:
        write_rows(label_path, LABEL_HEADER,
                   zip(ids, (graph.class_names[c] for c in graph.labels.tolist())))


def split_dataset(labels, ratios=(0.70, 0.15, 0.15), seed=0):
    """Stratified train/val/test split, deterministic per seed.

    Per-class counts use largest-remainder rounding with ties going to train
    first; a val/test remainder tie alternates with class position so the two
    holdout sets stay balanced overall.
    """
    labels = np.asarray(labels)
    if not (len(ratios) == 3 and all(math.isfinite(r) and r >= 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise BadArgument(f"ratios must be three finite, non-negative values summing to 1, "
                          f"got {tuple(ratios)}")
    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    parts = {0: [], 1: [], 2: []}
    for pos, cls in enumerate(classes):
        members = np.flatnonzero(labels == cls)
        s = len(members)
        if s < 3:
            raise ClassTooSmall(f"class {cls} has only {s} members")
        exact = [s * r for r in ratios]
        counts = [int(np.floor(e)) for e in exact]
        remainders = [e - c for e, c in zip(exact, counts)]
        # preference order for remainder ties: train first, then alternate val/test
        order = [0, 1, 2] if pos % 2 == 0 else [0, 2, 1]
        while sum(counts) < s:
            best = max(order, key=lambda i: (remainders[i], -order.index(i)))
            counts[best] += 1
            remainders[best] = -1.0
        members = rng.permutation(members)
        parts[0].append(members[: counts[0]])
        parts[1].append(members[counts[0] : counts[0] + counts[1]])
        parts[2].append(members[counts[0] + counts[1] :])
    cat = lambda chunks: np.sort(np.concatenate(chunks)) if chunks else np.array([], dtype=np.int64)
    return DatasetSplit(train=cat(parts[0]), val=cat(parts[1]), test=cat(parts[2]), seed=seed)


def sbm_signal_coords(n_blocks, feature_dim):
    """Feature coordinate subsets that carry each block's planted signal."""
    return [np.asarray(chunk) for chunk in np.array_split(np.arange(feature_dim), n_blocks)]


def generate_sbm(blocks, p_in, p_out, feature_dim, signal, seed):
    """Stochastic block model fixture with planted block-specific feature signal.

    Unit edge weights; node features are standard normal noise with ``signal``
    added on the block's coordinate subset; labels are block indices.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise BadArgument(f"p_in and p_out must lie in [0, 1], got {p_in} and {p_out}")
    if not 0.0 <= signal < math.inf:
        raise BadArgument(f"signal must be finite and non-negative, got {signal}")
    if feature_dim < 1:
        raise BadArgument(f"feature_dim must be >= 1, got {feature_dim}")
    blocks = list(blocks)
    if min(blocks, default=0) < 1:
        raise BadArgument(f"blocks must be positive sizes, got {blocks}")
    rng = np.random.default_rng(seed)
    n = sum(blocks)
    labels = np.repeat(np.arange(len(blocks)), blocks)

    # an edge i < j where the uniform draw u[i, j] < p; the n x n draw is
    # taken in blocks of rows from the same stream, which gives the same
    # doubles, and a block's columns left of its first row are not compared
    lo, hi = [], []
    step = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        drawn = rng.random((len(rows), n))[:, start:]
        edge = drawn < np.where(labels[rows, None] == labels[start:], p_in, p_out)
        edge &= rows[:, None] < np.arange(start, n)
        i, j = np.nonzero(edge)
        lo.append(rows[i])
        hi.append(j + start)
    lo, hi = np.concatenate(lo), np.concatenate(hi)

    features = rng.standard_normal((n, feature_dim))
    for b, coords in enumerate(sbm_signal_coords(len(blocks), feature_dim)):
        features[np.ix_(labels == b, coords)] += signal

    return AttributedGraph(
        node_ids=tuple(f"n{i:04d}" for i in range(n)),
        csr=CSRMatrix.symmetric(n, lo, hi, np.ones(len(lo))),
        features=features,
        feature_names=tuple(f"f{j:03d}" for j in range(feature_dim)),
        labels=labels,
        class_names=tuple(f"block{b}" for b in range(len(blocks))),
    )
