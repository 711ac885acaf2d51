"""Flat named-tensor checkpoint files.

Layout (all integers little-endian, documented in the README):
  magic  b"BVNT"
  version  uint32
  count    uint64
  then per tensor, sorted order as written:
    name_len uint32 | name utf-8 | ndim uint32 | shape int64 x ndim |
    payload float64 little-endian, C order
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import InvalidDataError

MAGIC = b"BVNT"
VERSION = 1


def save_tensors(path, tree: dict) -> None:
    """Write ``tree`` to ``path`` atomically.

    The bytes go to a temporary file beside the target, are synced to disk,
    and the file then replaces the target in one rename: a writer that fails
    part way, or a crash before the rename, leaves any previous file at
    ``path`` as it was, and no partial file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(tree)))
            for name, arr in tree.items():
                arr = np.asarray(arr, dtype=float)
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                for s in arr.shape:
                    fh.write(struct.pack("<q", s))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())  # the data reaches the disk before the rename
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_tensors(path) -> dict:
    """Read a file written by save_tensors.

    A bad magic or version, a short read at any field, a negative or
    unindexable shape, a name that is not UTF-8 and bytes left after the
    last tensor raise InvalidDataError naming the file and the byte offset.
    """
    tree = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(n, what):
            off = fh.tell()
            if size - off < n:
                raise InvalidDataError(
                    f"{path}: truncated at byte {size}: {what} at byte {off} needs {n} bytes")
            return off

        def unpack(fmt, what):
            n = struct.calcsize(fmt)
            return need(n, what), struct.unpack(fmt, fh.read(n))

        need(4, "magic")
        if fh.read(4) != MAGIC:
            raise InvalidDataError(f"{path}: not a named-tensor file (no {MAGIC!r} at byte 0)")
        off, (version,) = unpack("<I", "version")
        if version != VERSION:
            raise InvalidDataError(f"{path}: unsupported version {version} at byte {off}")
        _, (count,) = unpack("<Q", "tensor count")
        for j in range(count):
            _, (name_len,) = unpack("<I", f"tensor {j}'s name length")
            off = need(name_len, f"tensor {j}'s name")
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise InvalidDataError(
                    f"{path}: tensor {j}'s name at byte {off} is not UTF-8") from None
            _, (ndim,) = unpack("<I", f"tensor {name!r}'s ndim")
            off, shape = unpack(f"<{ndim}q", f"tensor {name!r}'s shape")
            if min(shape, default=0) < 0:
                raise InvalidDataError(
                    f"{path}: negative dimension in shape {shape} of {name!r} at byte {off}")
            n_vals = math.prod(shape)
            need(8 * n_vals, f"tensor {name!r}'s {n_vals} values")
            try:
                tree[name] = np.fromfile(fh, dtype="<f8", count=n_vals).reshape(shape)
            except ValueError:  # numpy rejects e.g. (0, 2**62): too big to index
                raise InvalidDataError(
                    f"{path}: shape {shape} of {name!r} at byte {off} is too large") from None
        if fh.tell() != size:
            raise InvalidDataError(
                f"{path}: {size - fh.tell()} trailing bytes after the last tensor, "
                f"at byte {fh.tell()}")
    return tree
