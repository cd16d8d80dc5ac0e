"""Layout construction, per-node image rendering, and tensor serialization.

Each node becomes a C x P x P image: channel 0 carries the node's community's
z-scored distances to every community, placed on the master structural layout
and center-padded; each further channel carries one modality's raw feature
values at the cells chosen by that modality's feature layout.

Binary tensor container (little-endian):
  magic 'G2IM', version u16 = 1, image count u32, then per image:
  node-id length u16 + UTF-8 bytes, label i32 (-1 if absent), dim count u8,
  that many u32 dims, then float32 payload (channel-major, row-major for
  3-D image tensors). A channel-name table follows all images:
  count u16, then u16-length-prefixed UTF-8 strings.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .community import community_count
from .errors import BadMagic, LayoutMismatch, ShapeMismatch, ShapeOverflow, TruncatedFile
from .transport import (
    GridTemplate,
    LayoutPermutation,
    pad_to_square,
    resolve_assignment,
    solve_gw,
)

MAGIC = b"G2IM"
VERSION = 1


@dataclass(frozen=True)
class FeatureLayout:
    layout: LayoutPermutation
    grid_side: int


@dataclass(frozen=True)
class StructuralLayout:
    layout: LayoutPermutation
    grid_side: int               # P_s
    association: object          # community.AssociationMatrix


@dataclass(frozen=True)
class ImageSet:
    node_ids: tuple
    tensors: np.ndarray          # (n, C, P, P) float32
    labels: np.ndarray | None
    channel_names: tuple


def feature_association(F):
    """Pearson correlation of feature columns; constant columns correlate 0,
    with the diagonal pinned to 1."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape[0] < 2:
        raise ValueError("need at least 2 rows for correlation")
    centered = F - F.mean(axis=0)
    norms = np.sqrt(np.sum(centered**2, axis=0))
    safe = np.where(norms == 0, 1.0, norms)
    C = (centered.T @ centered) / np.outer(safe, safe)
    C[norms == 0, :] = 0.0
    C[:, norms == 0] = 0.0
    np.fill_diagonal(C, 1.0)
    return np.clip(C, -1.0, 1.0)


def build_feature_layout(F, seed, epsilon=0.0, restarts=20, grid_side=None):
    """Lay out the k features on a P x P grid (P = ceil(sqrt(k)) by default)."""
    assoc = feature_association(F)
    k = assoc.shape[0]
    P = grid_side if grid_side is not None else community_count(k)
    # GW aligns two distance matrices, so the correlation matrix enters as the
    # dissimilarity 1 - r: perfectly correlated features are at distance 0 and
    # land on nearby grid cells.
    dissim = 1.0 - assoc
    np.fill_diagonal(dissim, 0.0)
    padded, _ = pad_to_square(dissim, P)
    grid = GridTemplate.square(P)
    plan = solve_gw(padded, grid.cost, epsilon=epsilon, seed=seed, restarts=restarts)
    layout = resolve_assignment(plan, n_items=k, grid_side=P)
    return FeatureLayout(layout=layout, grid_side=P)


def build_structural_layout(assoc, seed, epsilon=0.0, restarts=20):
    """Master community layout on a P_s x P_s grid, P_s = ceil(sqrt(P))."""
    Z = assoc.values
    P = Z.shape[0]
    P_s = community_count(P)
    padded, _ = pad_to_square(Z, P_s)
    grid = GridTemplate.square(P_s)
    plan = solve_gw(padded, grid.cost, epsilon=epsilon, seed=seed, restarts=restarts)
    layout = resolve_assignment(plan, n_items=P, grid_side=P_s)
    return StructuralLayout(layout=layout, grid_side=P_s, association=assoc)


def render_all(graph, model, s_layout, f_layouts, modalities=None, channel_names=None):
    """Render one image per node, in node order.

    Channel 0: the node's community row of Z on the structural grid, centered
    into the P x P frame (top-left bias on odd margins). Channels 1..M: each
    modality's raw feature values at their layout cells, zeros elsewhere.
    """
    if modalities is None:
        modalities = [graph.features]
    if len(f_layouts) != len(modalities):
        raise LayoutMismatch("one feature layout required per modality")
    sides = {fl.grid_side for fl in f_layouts}
    if len(sides) != 1:
        raise LayoutMismatch(f"feature layouts disagree on grid side: {sorted(sides)}")
    P = sides.pop()
    P_s = s_layout.grid_side
    if P_s > P:
        raise LayoutMismatch(f"structural grid {P_s} exceeds image side {P}")
    Z = s_layout.association.values
    if model.P != Z.shape[0] or len(s_layout.layout.item_to_cell) != model.P:
        raise LayoutMismatch("structural layout was built for a different community count")

    tensors = np.zeros((graph.n, len(modalities) + 1, P, P), dtype=np.float32)
    rows, cols = np.array(s_layout.layout.item_to_cell).T
    off = (P - P_s) // 2
    tensors[:, 0, rows + off, cols + off] = Z[model.assignment]
    for ch, (fl, Fm) in enumerate(zip(f_layouts, modalities), start=1):
        if Fm.shape[1] != len(fl.layout.item_to_cell):
            raise LayoutMismatch(
                f"modality {ch-1} has {Fm.shape[1]} features, layout has "
                f"{len(fl.layout.item_to_cell)}"
            )
        rows, cols = np.array(fl.layout.item_to_cell).T
        tensors[:, ch, rows, cols] = Fm

    if channel_names is None:
        channel_names = ["structure"] + [f"modality{m}" for m in range(len(modalities))]
    labels = None if graph.labels is None else np.asarray(graph.labels)
    return ImageSet(node_ids=tuple(graph.node_ids), tensors=tensors, labels=labels,
                    channel_names=tuple(channel_names))


# --- serialization ---

_MAX_DIM = 2**32 - 1


def write_named_tensors(entries, channel_names, path):
    """Write (name, label, array) entries into the binary tensor container."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(entries)))
        for name, label, arr in entries:
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            if arr.ndim > 255 or any(d > _MAX_DIM for d in arr.shape):
                raise ShapeOverflow(f"tensor {name!r} shape {arr.shape} exceeds format limits")
            nid = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nid)))
            fh.write(nid)
            fh.write(struct.pack("<iB", int(label), arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
        fh.write(struct.pack("<H", len(channel_names)))
        for cname in channel_names:
            data = cname.encode("utf-8")
            fh.write(struct.pack("<H", len(data)))
            fh.write(data)


def read_named_tensors(path):
    """Inverse of write_named_tensors; returns (entries, channel_names)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {data[:4]!r}")
    pos = 4

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise TruncatedFile(f"{path}: truncated at byte {pos}")
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    version, count = take("<HI")
    if version != VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    entries = []
    for _ in range(count):
        (nlen,) = take("<H")
        if pos + nlen > len(data):
            raise TruncatedFile(f"{path}: truncated name at byte {pos}")
        name = data[pos : pos + nlen].decode("utf-8")
        pos += nlen
        label, ndim = take("<iB")
        shape = take(f"<{ndim}I")
        n_values = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        if n_values < 0 or n_values * 4 > len(data):
            raise ShapeOverflow(f"{path}: tensor {name!r} shape {shape} too large")
        nbytes = n_values * 4
        if pos + nbytes > len(data):
            raise TruncatedFile(f"{path}: truncated payload for {name!r}")
        arr = np.frombuffer(data, dtype="<f4", count=n_values, offset=pos).reshape(shape)
        pos += nbytes
        entries.append((name, label, arr.copy()))
    (ncn,) = take("<H")
    channel_names = []
    for _ in range(ncn):
        (clen,) = take("<H")
        if pos + clen > len(data):
            raise TruncatedFile(f"{path}: truncated channel name")
        channel_names.append(data[pos : pos + clen].decode("utf-8"))
        pos += clen
    return entries, tuple(channel_names)


def write_tensor(image_set, path):
    """Serialize an ImageSet bit-exactly."""
    labels = image_set.labels if image_set.labels is not None else [-1] * len(image_set.node_ids)
    entries = zip(image_set.node_ids, labels, image_set.tensors)
    write_named_tensors(list(entries), image_set.channel_names, path)


def read_tensor(path):
    entries, channel_names = read_named_tensors(path)
    shapes = sorted({arr.shape for _, _, arr in entries})
    if len(shapes) != 1 or len(shapes[0]) != 3:
        raise ShapeMismatch(f"{path}: expected images of one 3-D shape, found "
                            f"{len(shapes)} shape(s), e.g. {shapes[:3]}")
    node_ids, labels, tensors = zip(*entries)
    labels = np.asarray(labels, dtype=np.int64)
    return ImageSet(node_ids=node_ids, tensors=np.stack(tensors),
                    labels=None if np.all(labels == -1) else labels,
                    channel_names=channel_names)


# --- layout CSV I/O ---

def write_layout(layout, item_names, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_name", "row", "col"])
        for name, (r, c) in zip(item_names, layout.item_to_cell):
            writer.writerow([name, r, c])


def read_layout(path, grid_side):
    cells = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        names = []
        for name, r, c in reader:
            names.append(name)
            cells.append((int(r), int(c)))
    n_items = len(cells)
    layout = LayoutPermutation(
        item_to_cell=tuple(cells), n_items=n_items, n_dummy=grid_side * grid_side - n_items
    )
    return layout, names
