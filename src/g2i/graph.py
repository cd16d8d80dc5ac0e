"""Graph, feature and label ingestion, dataset splitting, and synthetic fixtures.

File formats:
  edge list   -- one edge per line, ``src dst weight`` (tab or space separated),
                 ``#`` comment lines ignored
  features    -- CSV with header ``node_id,<feat_1>,...,<feat_k>``
  labels      -- CSV with header ``node_id,label``; label strings are mapped to
                 class indices in first-seen order

Every text input is UTF-8, read through ``read_text``.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricDuplicate,
    BadArgument,
    ClassTooSmall,
    MalformedLine,
    SelfLoop,
    UnknownNodeId,
)


# every number read from a text input must fit the float32 that images.g2t
# and centroids.g2t store
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class AttributedGraph:
    """Symmetric weighted graph with per-node features and optional labels."""

    n: int
    node_ids: tuple
    adjacency: np.ndarray        # (n, n) float64, symmetric, zero diagonal
    features: np.ndarray         # (n, k) float64
    feature_names: tuple
    labels: np.ndarray | None = None      # (n,) int class indices
    class_names: tuple | None = None

    def __post_init__(self):
        A = self.adjacency
        if A.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {A.shape} != ({self.n}, {self.n})")
        # a band of about 1 MB of rows at a time, with no n x n temporary
        step = max(1, (1 << 20) // (8 * max(self.n, 1)))
        for start in range(0, self.n, step):
            if not np.array_equal(A[start : start + step], A[:, start : start + step].T):
                raise ValueError("adjacency is not symmetric")
        if np.any(np.diagonal(A) != 0):
            raise SelfLoop("adjacency has nonzero diagonal")
        if A.min(initial=0.0) < 0:
            raise ValueError("negative edge weight")
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
        # Graphs are immutable after construction; freeze the arrays.
        self.adjacency.setflags(write=False)
        self.features.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    @property
    def k(self):
        return self.features.shape[1]

    def degrees(self):
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class NodeTable:
    """The nodes of a graph without its edges: ids, features and optional
    labels, as load_nodes reads them."""

    node_ids: tuple
    features: np.ndarray         # (n, k) float64
    feature_names: tuple
    labels: np.ndarray | None = None      # (n,) int class indices
    class_names: tuple | None = None

    @property
    def n(self):
        return len(self.node_ids)


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
    index = {nid: i for i, nid in enumerate(nodes.node_ids)}
    adjacency = np.zeros((nodes.n, nodes.n), dtype=np.float64)
    # an edge listed before is nonzero in the matrix, or one of these
    zero_weight = {}        # (i, j), i < j -> the weight, 0.0 or -0.0
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
            for nid in (src, dst):
                if nid not in index:
                    raise UnknownNodeId(f"{edge_path}:{lineno}: unknown node id {nid!r}")
            i, j = index[src], index[dst]
            pair = (min(i, j), max(i, j))
            first = float(adjacency[i, j]) or zero_weight.get(pair)
            if first is not None:
                raise AsymmetricDuplicate(
                    f"{edge_path}:{lineno}: edge {(min(src, dst), max(src, dst))} listed "
                    f"twice (weights {first} and {w})"
                )
            if w == 0:
                zero_weight[pair] = w
                continue  # zero-weight edges are dropped
            adjacency[i, j] = w
            adjacency[j, i] = w

    return AttributedGraph(
        n=nodes.n,
        node_ids=nodes.node_ids,
        adjacency=adjacency,
        features=nodes.features,
        feature_names=nodes.feature_names,
        labels=nodes.labels,
        class_names=nodes.class_names,
    )


def load_nodes(feature_path, label_path=None):
    """Read the feature CSV (+ optional label CSV) into a NodeTable; no edge
    list is read."""
    node_ids, features, feature_names = _read_features(feature_path)
    labels = class_names = None
    if label_path is not None:
        labels, class_names = _read_labels(label_path, {nid: i for i, nid in enumerate(node_ids)})
    return NodeTable(node_ids=tuple(node_ids), features=features,
                     feature_names=tuple(feature_names), labels=labels, class_names=class_names)


def _read_features(path):
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedLine(path, 1, "empty feature file") from None
        if not header or header[0] != "node_id":
            raise MalformedLine(path, 1, "feature header must start with 'node_id'")
        feature_names = header[1:]
        line_of, rows = {}, []       # node id -> line number, in file order
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedLine(path, lineno, f"expected {len(header)} fields, got {len(row)}")
            if row[0] in line_of:
                raise MalformedLine(path, lineno, f"duplicate node id {row[0]!r}, "
                                                  f"first on line {line_of[row[0]]}")
            line_of[row[0]] = lineno
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise MalformedLine(path, lineno, "non-numeric feature value") from None
    node_ids = list(line_of)
    features = np.asarray(rows, dtype=np.float64).reshape(len(node_ids), len(feature_names))
    # min and max take no temporary, and NaN fails the test
    if not -_F32_MAX <= features.min(initial=0.0) <= features.max(initial=0.0) <= _F32_MAX:
        r, c = np.argwhere(~(np.abs(features) <= _F32_MAX))[0]
        value, where = float(features[r, c]), f"in column {feature_names[c]!r}"
        raise MalformedLine(path, line_of[node_ids[r]],
                            f"value {value!r} {where} exceeds float32's largest finite value"
                            if math.isfinite(value) else f"non-finite value {value} {where}")
    return node_ids, features, feature_names


def _read_labels(path, index):
    labels = np.full(len(index), -1, dtype=np.int64)
    class_names = []
    class_index = {}
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node_id", "label"]:
            raise MalformedLine(path, 1, "label header must be 'node_id,label'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise MalformedLine(path, lineno, "expected 2 fields")
            nid, name = row
            if nid not in index:
                raise UnknownNodeId(f"{path}:{lineno}: unknown node id {nid!r}")
            if name not in class_index:
                class_index[name] = len(class_names)
                class_names.append(name)
            labels[index[nid]] = class_index[name]
    if np.any(labels < 0):
        missing = [nid for nid, i in index.items() if labels[i] < 0]
        raise UnknownNodeId(f"{path}: no label for {len(missing)} node id(s), first "
                            f"{', '.join(map(repr, missing[:5]))}")
    return labels, tuple(class_names)


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


def read_int_rows(path, header):
    """(line number, name, ints) of each line after the ``header`` line of a
    CSV file whose lines hold a name and ``len(header) - 1`` integers; blank
    lines are skipped."""
    n_fields = len(header)
    rows = []
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        if first != list(header):
            raise MalformedLine(path, 1, f"expected header {','.join(header)!r}, "
                                         f"got {','.join(first)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise MalformedLine(path, lineno, f"expected {n_fields} fields, got {len(row)}")
            try:
                rows.append((lineno, row[0], tuple(int(v) for v in row[1:])))
            except ValueError:
                raise MalformedLine(path, lineno, f"expected integers after the name, "
                                                  f"got {row[1:]}") from None
    return rows


def write_graph(graph, edge_path, feature_path, label_path=None):
    """Serialize a graph back to the text formats accepted by load_graph."""
    A, ids = graph.adjacency, graph.node_ids
    rows, cols = np.nonzero(A)          # row-major, with no n x n temporary
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    weights = A[rows, cols].astype(np.float64).tolist()
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ids[i]}\t{ids[j]}\t{w!r}\n"
                      for i, j, w in zip(rows.tolist(), cols.tolist(), weights))
    with open(feature_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", *graph.feature_names])
        for i in range(graph.n):
            writer.writerow([graph.node_ids[i], *(repr(float(v)) for v in graph.features[i])])
    if label_path is not None and graph.labels is not None:
        with open(label_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "label"])
            for i in range(graph.n):
                writer.writerow([graph.node_ids[i], graph.class_names[graph.labels[i]]])


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

    probs = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    adjacency = (upper | upper.T).astype(np.float64)

    features = rng.standard_normal((n, feature_dim))
    for b, coords in enumerate(sbm_signal_coords(len(blocks), feature_dim)):
        features[np.ix_(labels == b, coords)] += signal

    return AttributedGraph(
        n=n,
        node_ids=tuple(f"n{i:04d}" for i in range(n)),
        adjacency=adjacency,
        features=features,
        feature_names=tuple(f"f{j:03d}" for j in range(feature_dim)),
        labels=labels,
        class_names=tuple(f"block{b}" for b in range(len(blocks))),
    )
