"""Binary tensor file format.

Layout (little-endian, no padding, no compression):

    magic   4 bytes   b"HOT1"
    order   u32       number of modes k
    dims    k * u64
    data    prod(dims) * f64, row-major (last index fastest)

Nothing follows the data; trailing bytes are a malformed file.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import MAX_ELEMENTS, check_shape

MAGIC = b"HOT1"
_HEADER = struct.Struct("<4sI")


class TensorFileError(Exception):
    """Base error for tensor file problems."""


class MalformedHeaderError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


class DimOverflowError(TensorFileError):
    pass


def write_tensor(path, t: np.ndarray) -> None:
    """Write tensor ``t`` to ``path`` in the HOT1 binary format.

    Every float64 value is stored as it is, NaN and infinities included.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    check_shape(t.shape)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(t.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`, round-tripping bit-exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedHeaderError(f"{path}: file too short for header")
    magic, order = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedHeaderError(f"{path}: bad magic {magic!r}")
    if order < 1:
        raise MalformedHeaderError(f"{path}: order must be >= 1, got {order}")
    dims_end = _HEADER.size + 8 * order
    if len(raw) < dims_end:
        raise MalformedHeaderError(f"{path}: header truncated before dims")
    dims = struct.unpack_from(f"<{order}Q", raw, _HEADER.size)
    if any(d < 1 for d in dims):
        raise MalformedHeaderError(f"{path}: zero-sized dim in {dims}")
    count = math.prod(dims)
    if count > MAX_ELEMENTS:
        raise DimOverflowError(f"{path}: {count} elements exceed the supported maximum")
    if len(raw) - dims_end < 8 * count:
        raise TruncatedPayloadError(
            f"{path}: payload holds {(len(raw) - dims_end) // 8} of {count} elements"
        )
    if len(raw) - dims_end > 8 * count:
        raise MalformedHeaderError(
            f"{path}: {len(raw) - dims_end - 8 * count} trailing bytes after {count} elements"
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=dims_end)
    return data.astype(np.float64).reshape(dims)
