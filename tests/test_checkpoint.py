import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from branchvi.checkpoint import load_tensors, save_tensors
from branchvi.errors import InvalidDataError
from branchvi.rng import RngStream

REAL = Path(__file__).parent / "fixtures" / "v1_branch_dense" / "checkpoint.nt"


def test_roundtrip_bitwise(tmp_path):
    gen = RngStream(600).generator()
    tree = {
        "v.mean": gen.standard_normal(4),
        "w.000001.A": gen.standard_normal((3, 2)),
        "net.feat.0.W": gen.standard_normal((5, 7)),
        "scalarish": np.array([3.25]),
    }
    path = tmp_path / "ckpt.nt"
    save_tensors(path, tree)
    back = load_tensors(path)
    assert set(back) == set(tree)
    for k in tree:
        assert back[k].shape == np.asarray(tree[k]).shape
        assert np.array_equal(back[k], tree[k])


def test_file_level_determinism(tmp_path):
    tree = {"a": np.arange(6, dtype=float).reshape(2, 3), "b": np.zeros(1)}
    save_tensors(tmp_path / "x1.nt", tree)
    save_tensors(tmp_path / "x2.nt", tree)
    assert (tmp_path / "x1.nt").read_bytes() == (tmp_path / "x2.nt").read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_tensors(path)


def _field_starts(buf):
    """(field, byte offset) of every field of a named-tensor file, in file order."""
    fields = [("magic", 0), ("version", 4), ("count", 8)]
    (count,) = struct.unpack_from("<Q", buf, 8)
    off = 16
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, off)
        fields += [("name_len", off), ("name", off + 4)]
        off += 4 + name_len
        (ndim,) = struct.unpack_from("<I", buf, off)
        fields.append(("ndim", off))
        off += 4
        shape = struct.unpack_from(f"<{ndim}q", buf, off)
        fields += [("shape", off + 8 * k) for k in range(ndim)]
        off += 8 * ndim
        fields.append(("payload", off))
        off += 8 * math.prod(shape)
    assert off == len(buf)
    return fields


def _rejects(path, *needles):
    with pytest.raises(InvalidDataError) as info:
        load_tensors(path)
    msg = str(info.value)
    assert str(path) in msg
    for needle in needles:
        assert re.search(needle, msg), msg


@pytest.mark.parametrize("field", ["magic", "version", "count", "name_len", "name",
                                   "ndim", "shape", "payload"])
def test_truncation_at_each_field_is_rejected(field, tmp_path):
    buf = REAL.read_bytes()
    starts = [off for name, off in _field_starts(buf) if name == field]
    assert starts
    path = tmp_path / "cut.nt"
    for off in starts:
        for cut in (off, off + 1):
            path.write_bytes(buf[:cut])
            _rejects(path, rf"truncated at byte {cut}\b", r"at byte \d+ needs \d+ bytes")


def test_invalid_headers_are_rejected(tmp_path):
    buf = REAL.read_bytes()
    path = tmp_path / "bad.nt"
    path.write_bytes(b"NOPE" + buf[4:])
    _rejects(path, "not a named-tensor file", "byte 0")
    path.write_bytes(buf[:4] + struct.pack("<I", 7) + buf[8:])
    _rejects(path, "unsupported version 7 at byte 4")


def test_trailing_bytes_are_rejected(tmp_path):
    buf = REAL.read_bytes()
    path = tmp_path / "long.nt"
    path.write_bytes(buf + b"\x00" * 3)
    _rejects(path, f"3 trailing bytes after the last tensor, at byte {len(buf)}")


def test_negative_dimension_and_bad_name_are_rejected(tmp_path):
    buf = bytearray(REAL.read_bytes())
    fields = _field_starts(bytes(buf))
    shape_off = next(off for name, off in fields if name == "shape")
    path = tmp_path / "neg.nt"
    neg = buf.copy()
    neg[shape_off:shape_off + 8] = struct.pack("<q", -2)
    path.write_bytes(bytes(neg))
    _rejects(path, rf"negative dimension in shape \(-2,.* at byte {shape_off}")
    name_off = next(off for name, off in fields if name == "name")
    bad = buf.copy()
    bad[name_off] = 0xFF
    path.write_bytes(bytes(bad))
    _rejects(path, f"name at byte {name_off} is not UTF-8")


def test_empty_tree(tmp_path):
    save_tensors(tmp_path / "e.nt", {})
    assert load_tensors(tmp_path / "e.nt") == {}


class _FailsOnWrite:
    """An array-like whose conversion raises: save_tensors fails part way."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk went away")


def test_failed_save_leaves_the_previous_file_intact(tmp_path):
    path = tmp_path / "ckpt.nt"
    good = {"a": np.arange(4.0), "b": np.ones((2, 3))}
    save_tensors(path, good)
    before = path.read_bytes()
    # the first tensor is written before the second one fails
    with pytest.raises(RuntimeError, match="disk went away"):
        save_tensors(path, {"a": np.zeros(50), "b": _FailsOnWrite()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.nt"]  # no temp file left
    with pytest.raises(RuntimeError):
        save_tensors(tmp_path / "new.nt", {"b": _FailsOnWrite()})
    assert not (tmp_path / "new.nt").exists()


def test_save_syncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    # a crash after the rename must not find the new name on unsynced data
    calls = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1])
    monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"), real_replace(a, b))[1])
    save_tensors(tmp_path / "s.nt", {"a": np.arange(3.0)})
    assert calls == ["fsync", "replace"]
    assert np.array_equal(load_tensors(tmp_path / "s.nt")["a"], np.arange(3.0))


def test_zero_size_tensor_with_an_unindexable_shape_is_rejected(tmp_path):
    path = tmp_path / "big.nt"
    with open(path, "wb") as fh:
        fh.write(b"BVNT" + struct.pack("<IQ", 1, 1) + struct.pack("<I", 1) + b"x"
                 + struct.pack("<I", 2) + struct.pack("<2q", 0, 2 ** 62))
    with pytest.raises(InvalidDataError, match=r"shape \(0, 4611686018427387904\) of 'x'"):
        load_tensors(path)
