"""The file formats that the pipeline's stages hand each other: CSV tables
and the ``.g2t`` binary tensor container. This module imports nothing of
g2i but its errors, so every stage can read and write any of these files.

Every text input is UTF-8, read through ``read_text``. ``write_rows`` writes
every CSV table but ``eval.csv``, and ``read_rows`` reads each one that a
stage reads back; a record is named by the line it starts on. A table keyed
by node id (features, labels, a modality's features, communities) lists
each node on exactly one line, in any order: ``node_rows`` rejects an id
listed twice, an id the graph lacks, a node without a line and an id that
no edge line can name: an empty id, one that starts or ends with whitespace
(the edge list strips each line), one that starts with ``#`` (a comment
line) and one that holds a tab, CR or LF. The feature file read first
defines the nodes and their order.

Binary tensor container (little-endian):
  magic 'G2IM', version u16 = 1, image count u32, then per image:
  node-id length u16 + UTF-8 bytes, label i32 (-1 if absent), dim count u8,
  that many u32 dims, then float32 payload (channel-major, row-major for
  3-D image tensors). A channel-name table follows all images:
  count u16, then u16-length-prefixed UTF-8 strings.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagic, DegenerateData, MalformedLine, ShapeOverflow, TruncatedFile,
                     UnknownNodeId)


# --- CSV tables ---

# what read_rows' ``convert`` makes of the values after a row's name
_VALUES = {int: "integers", float: "numbers"}


@dataclass(frozen=True)
class Rows:
    """A CSV table as read_rows reads it."""

    columns: tuple               # the fields of its header
    lines: list                  # the line each row starts on
    names: list                  # the first field of each row
    values: list                 # the later fields of each row, converted, row after row


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
    every field after its first into a value; blank lines are skipped. A
    record, which a quoted line break can spread over several lines, is
    named by the line it starts on."""
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        lineno = 1                   # the line the record being read starts on
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
            while True:
                lineno = reader.line_num + 1
                row = next(reader, None)
                if row is None:
                    break
                if len(row) != len(columns):
                    if not row:
                        continue
                    raise MalformedLine(path, lineno,
                                        f"expected {len(columns)} fields, got {len(row)}")
                try:
                    values += map(convert, row[1:])
                except ValueError:
                    raise MalformedLine(path, lineno,
                                        f"expected {_VALUES[convert]} after the name, "
                                        f"got {row[1:]}") from None
                lines.append(lineno)
                names.append(row[0])
        except csv.Error as exc:
            raise MalformedLine(path, lineno, f"not a CSV line: {exc}") from None
    return Rows(columns, lines, names, values)


def _unnameable(nid):
    """Why an edge line cannot name the node id ``nid``, or None if it can."""
    if not nid:
        return "is empty"
    if nid != nid.strip():
        return "starts or ends with whitespace, which the edge list strips"
    if nid.startswith("#"):
        return "starts with '#', which begins a comment in the edge list"
    if any(c in nid for c in "\t\r\n"):
        return "holds a tab, CR or LF, which end a field or a line in the edge list"
    return None


def node_rows(path, rows, node_ids, what):
    """The index in ``rows`` of the line of each of ``node_ids``, in that
    order, for a table that lists each node on one line, named by its id. An
    id that no edge line can name (empty, with whitespace at either end,
    starting with "#" or holding a tab, CR or LF), an id listed twice, an id
    not in ``node_ids`` and a node without a line each raise an error that
    names the file."""
    found = dict.fromkeys(node_ids)      # node id -> index of its line
    for i, (line, nid) in enumerate(zip(rows.lines, rows.names)):
        fault = _unnameable(nid)
        if fault:
            raise MalformedLine(path, line, f"node id {nid!r} {fault}")
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


# --- the .g2t tensor container ---

MAGIC = b"G2IM"
VERSION = 1
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
