"""Layout construction, per-node image rendering, and tensor serialization.

A layout is an (n_items, 2) int64 array of (row, col) grid cells. Each node
becomes a C x P x P image: channel 0 carries the node's community's z-scored
distances to every community, placed on the master structural layout and
center-padded; each further channel carries one modality's raw feature values
at the cells chosen by that modality's feature layout.

Binary tensor container (little-endian):
  magic 'G2IM', version u16 = 1, image count u32, then per image:
  node-id length u16 + UTF-8 bytes, label i32 (-1 if absent), dim count u8,
  that many u32 dims, then float32 payload (channel-major, row-major for
  3-D image tensors). A channel-name table follows all images:
  count u16, then u16-length-prefixed UTF-8 strings.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .community import association_matrix, community_count
from .errors import (BadMagic, DegenerateData, G2IError, LayoutMismatch, MalformedLine,
                     ShapeMismatch, ShapeOverflow, TruncatedFile)
from .graph import read_rows, write_rows
from .transport import grid_cost, pad_to_square, resolve_assignment, solve_gw

MAGIC = b"G2IM"
VERSION = 1
_LAYOUT_HEADER = ("item_name", "row", "col")


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
        raise DegenerateData(f"feature correlation needs at least 2 nodes, got {F.shape[0]}")
    centered = F - F.mean(axis=0)
    norms = np.sqrt(np.sum(centered**2, axis=0))
    safe = np.where(norms == 0, 1.0, norms)
    C = (centered.T @ centered) / np.outer(safe, safe)
    C[norms == 0, :] = 0.0
    C[:, norms == 0] = 0.0
    np.fill_diagonal(C, 1.0)
    return np.clip(C, -1.0, 1.0)


def _grid_layout(dissim, side, seed, epsilon, restarts):
    """Cells of a side x side grid for the items of ``dissim``, found by GW
    alignment of the dummy-padded dissimilarities with the grid's distances."""
    plan = solve_gw(pad_to_square(dissim, side), grid_cost(side), epsilon=epsilon,
                    seed=seed, restarts=restarts)
    return resolve_assignment(plan, n_items=dissim.shape[0], grid_side=side)


def build_feature_layout(F, seed, epsilon=0.0, restarts=20, grid_side=None):
    """Cells of the k features on a P x P grid (P = ceil(sqrt(k)) by default)."""
    assoc = feature_association(F)
    P = grid_side if grid_side is not None else community_count(assoc.shape[0])
    # GW aligns two distance matrices, so the correlation matrix enters as the
    # dissimilarity 1 - r: perfectly correlated features are at distance 0 and
    # land on nearby grid cells.
    dissim = 1.0 - assoc
    np.fill_diagonal(dissim, 0.0)
    return _grid_layout(dissim, P, seed, epsilon, restarts)


def build_structural_layout(assoc, seed, epsilon=0.0, restarts=20):
    """Cells of the P communities on a P_s x P_s grid, P_s = ceil(sqrt(P))."""
    return _grid_layout(assoc.values, community_count(assoc.P), seed, epsilon, restarts)


def render_all(graph, model, s_layout, f_layouts, modalities=None, channel_names=None):
    """Render one image per node, in node order, P = ceil(sqrt(k)) of the
    widest modality.

    Channel 0: the node's community row of the model's association matrix on
    the structural grid, side ceil(sqrt(model.P)), centered into the P x P
    frame (top-left bias on odd margins). Channels 1..M: each
    modality's raw feature values at their layout cells, zeros elsewhere.
    """
    if modalities is None:
        modalities = [graph.features]
    if len(f_layouts) != len(modalities):
        raise LayoutMismatch("one feature layout required per modality")
    P = max(community_count(Fm.shape[1]) for Fm in modalities)
    P_s = community_count(model.P)
    if P_s > P:
        raise LayoutMismatch(f"structural grid {P_s} exceeds image side {P}")
    if len(s_layout) != model.P:
        raise LayoutMismatch("structural layout was built for a different community count")
    Z = association_matrix(model).values

    tensors = np.zeros((graph.n, len(modalities) + 1, P, P), dtype=np.float32)
    off = (P - P_s) // 2
    tensors[:, 0, s_layout[:, 0] + off, s_layout[:, 1] + off] = Z[model.assignment]
    for ch, (cells, Fm) in enumerate(zip(f_layouts, modalities), start=1):
        if Fm.shape[1] != len(cells):
            raise LayoutMismatch(
                f"modality {ch-1} has {Fm.shape[1]} features, layout has {len(cells)}"
            )
        tensors[:, ch, cells[:, 0], cells[:, 1]] = Fm

    if channel_names is None:
        channel_names = ["structure"] + [f"modality{m}" for m in range(len(modalities))]
    labels = None if graph.labels is None else np.asarray(graph.labels)
    return ImageSet(node_ids=tuple(graph.node_ids), tensors=tensors, labels=labels,
                    channel_names=tuple(channel_names))


# --- serialization ---

_MAX_DIM = 2**32 - 1
# numpy (2.0 and later) makes arrays of at most 64 dimensions, whose nonzero
# dimensions take at most intp-max bytes
_MAX_NDIM = 64
_MAX_BYTES = np.iinfo(np.intp).max


def write_named_tensors(entries, channel_names, path):
    """Write (name, label, array) entries into the binary tensor container.
    A C-contiguous little-endian float32 array is written from its own
    buffer; any other array is converted to one first. An existing file is
    rewritten in place, which reuses its pages: on ext4, train rewrote the
    reference run's 4.8 MB checkpoint in about 1 ms, against about 5.5 ms
    for a new file each time."""
    # no O_TRUNC; the truncate at the end drops what a longer file held
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(entries)))
        for name, label, arr in entries:
            arr = np.ascontiguousarray(arr, dtype="<f4")
            if arr.ndim > 255 or any(d > _MAX_DIM for d in arr.shape):
                raise ShapeOverflow(f"tensor {name!r} shape {arr.shape} exceeds format limits")
            nid = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nid)))
            fh.write(nid)
            fh.write(struct.pack("<iB", int(label), arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)
        fh.write(struct.pack("<H", len(channel_names)))
        for cname in channel_names:
            data = cname.encode("utf-8")
            fh.write(struct.pack("<H", len(data)))
            fh.write(data)
        fh.truncate()


def read_named_buffer(path):
    """(heads, flat, channel_names) of a file write_named_tensors wrote:
    ``(name, label, shape)`` of each tensor, and every tensor's values back
    to back in ``flat``, one float32 buffer that each payload is read into
    straight from the file, in file order. A file it cannot read raises a
    G2IError that names the file and the byte, and a NaN or infinite value
    one that names the file and the tensor."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagic(f"{path}: bad magic {magic!r}")
        pos = 4

        def take(fmt):
            nonlocal pos
            n = struct.calcsize(fmt)
            if pos + n > size:
                raise TruncatedFile(f"{path}: truncated at byte {pos}")
            pos += n
            return struct.unpack(fmt, fh.read(n))

        def text(what):
            nonlocal pos
            (length,) = take("<H")
            if pos + length > size:
                raise TruncatedFile(f"{path}: truncated {what} at byte {pos}")
            try:
                out = fh.read(length).decode("utf-8")
            except UnicodeDecodeError:
                raise BadMagic(f"{path}: {what} at byte {pos} is not UTF-8") from None
            pos += length
            return out

        version, count = take("<HI")
        if version != VERSION:
            raise BadMagic(f"{path}: unsupported version {version}")
        # the payloads fit in the file; pages past the last are never touched
        flat = np.empty(size // 4, dtype="<f4")
        heads, filled = [], 0      # (name, label, shape) of each tensor; values read
        for _ in range(count):
            start = pos
            name = text("tensor name")
            label, ndim = take("<iB")
            if ndim > _MAX_NDIM:
                raise ShapeOverflow(f"{path}: tensor {name!r} at byte {start} has {ndim} "
                                    f"dimensions, more than numpy's {_MAX_NDIM}")
            shape = take(f"<{ndim}I")
            # exact products: an int64 one can wrap past the size check
            n_values = math.prod(shape)
            if n_values * 4 > size or math.prod(filter(None, shape)) * 4 > _MAX_BYTES:
                raise ShapeOverflow(f"{path}: tensor {name!r} at byte {start} has shape "
                                    f"{shape}, too large")
            if pos + n_values * 4 > size or \
                    fh.readinto(flat[filled : filled + n_values]) != n_values * 4:
                raise TruncatedFile(f"{path}: truncated payload for {name!r} at byte {pos}")
            heads.append((name, label, shape))
            pos += n_values * 4
            filled += n_values
        (ncn,) = take("<H")
        channel_names = tuple(text("channel name") for _ in range(ncn))
    flat = flat[:filled]
    # its min and max take no temporary, and are finite exactly when every value is
    if not (math.isfinite(flat.min(initial=0.0)) and math.isfinite(flat.max(initial=0.0))):
        ends = np.cumsum([math.prod(shape) for _, _, shape in heads])
        name = heads[np.searchsorted(ends, np.argmin(np.isfinite(flat)), side="right")][0]
        raise DegenerateData(f"{path}: {name} holds NaN or infinite values")
    return heads, flat, channel_names


def read_named_tensors(path):
    """Inverse of write_named_tensors; returns (entries, channel_names), each
    entry's array a view of read_named_buffer's one buffer."""
    heads, flat, channel_names = read_named_buffer(path)
    entries, start = [], 0
    for name, label, shape in heads:
        stop = start + math.prod(shape)
        entries.append((name, label, flat[start:stop].reshape(shape)))
        start = stop
    return entries, channel_names


def write_tensor(image_set, path):
    """Serialize an ImageSet bit-exactly."""
    labels = image_set.labels if image_set.labels is not None else [-1] * len(image_set.node_ids)
    entries = zip(image_set.node_ids, labels, image_set.tensors)
    write_named_tensors(list(entries), image_set.channel_names, path)


def read_tensor(path):
    """The ImageSet that write_tensor wrote: its labels are all -1, read as
    None, or all class indices; a mix of the two is an error."""
    entries, channel_names = read_named_tensors(path)
    shapes = sorted({arr.shape for _, _, arr in entries})
    if len(shapes) != 1 or len(shapes[0]) != 3:
        raise ShapeMismatch(f"{path}: expected images of one 3-D shape, found "
                            f"{len(shapes)} shape(s), e.g. {shapes[:3]}")
    node_ids, labels, tensors = zip(*entries)
    labels = np.asarray(labels, dtype=np.int64)
    if np.all(labels == -1):
        labels = None
    elif labels.min() < 0:
        # -1 offends among class indices, and a label below -1 anywhere
        i = int(np.argmax(labels < (0 if labels.max() >= 0 else -1)))
        raise G2IError(f"{path}: node {node_ids[i]!r} has label {labels[i]}; the labels must "
                       f"be all -1 (unlabeled) or all class indices >= 0")
    return ImageSet(node_ids=node_ids, tensors=np.stack(tensors), labels=labels,
                    channel_names=channel_names)


# --- layout CSV I/O ---

def write_layout(cells, item_names, path):
    """Write one ``item_name,row,col`` line per item of an (n, 2) cell array."""
    write_rows(path, _LAYOUT_HEADER, 
               ([name, *cell] for name, cell in zip(item_names, cells.tolist())))


def read_layout(path, grid_side, item_names):
    """(n, 2) cells of a layout file that places each of ``item_names``, in
    order, on its own cell of a grid_side x grid_side grid."""
    rows = read_rows(path, _LAYOUT_HEADER, int)
    cells = list(zip(rows.values[0::2], rows.values[1::2]))
    line_of = {}                  # cell -> line number
    for lineno, name, cell, expected in zip(rows.lines, rows.names, cells, item_names):
        if name != expected:
            raise MalformedLine(path, lineno, f"item {name!r} where {expected!r} belongs")
        if not (0 <= min(cell) and max(cell) < grid_side):
            raise MalformedLine(path, lineno, f"cell {cell} lies outside the "
                                              f"{grid_side} x {grid_side} grid")
        if cell in line_of:
            raise MalformedLine(path, lineno, f"cell {cell} already taken on line {line_of[cell]}")
        line_of[cell] = lineno
    if len(cells) != len(item_names):
        raise LayoutMismatch(f"{path}: {len(cells)} items, expected {len(item_names)}")
    return np.array(cells, dtype=np.int64).reshape(-1, 2)
