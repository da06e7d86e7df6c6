"""Binary tensor file round-trips and malformed-input handling."""

import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hot.io import (
    DimOverflowError,
    MalformedHeaderError,
    TensorFileError,
    TruncatedPayloadError,
    read_tensor,
    write_tensor,
)

# each example writes its file into the test's own tmp_path, and the time file
# I/O takes on a busy host is no property of the format, so no deadline
FILE_EXAMPLES = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                         deadline=None)

# byte strings that get past the magic: an order, some u64 dims (small or any), a payload
HOT1_LIKE = st.builds(
    lambda order, dims, payload: (b"HOT1" + struct.pack("<I", order)
                                  + struct.pack(f"<{len(dims)}Q", *dims) + payload),
    st.integers(0, 6),
    st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=6),
    st.binary(max_size=160),
)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.hot"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)
    assert back.tobytes() == t.tobytes()


def test_round_trip_order1(tmp_path):
    t = np.array([1.5, -2.25, 1e-300])
    path = tmp_path / "v.hot"
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.hot"
    path.write_bytes(b"")
    with pytest.raises(MalformedHeaderError):
        read_tensor(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hot"
    path.write_bytes(b"NOPE" + struct.pack("<I", 1) + struct.pack("<Q", 1) + struct.pack("<d", 0.0))
    with pytest.raises(MalformedHeaderError):
        read_tensor(path)


def test_truncated_dims(tmp_path):
    path = tmp_path / "short.hot"
    path.write_bytes(b"HOT1" + struct.pack("<I", 3) + struct.pack("<Q", 2))
    with pytest.raises(MalformedHeaderError):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.hot"
    # header declares 2^40 elements, file holds almost nothing
    path.write_bytes(b"HOT1" + struct.pack("<I", 1) + struct.pack("<Q", 2**40) + b"\x00" * 16)
    with pytest.raises(TruncatedPayloadError):
        read_tensor(path)


def test_dim_overflow(tmp_path):
    path = tmp_path / "huge.hot"
    path.write_bytes(b"HOT1" + struct.pack("<I", 2) + struct.pack("<QQ", 2**62, 2**62))
    with pytest.raises(DimOverflowError):
        read_tensor(path)


def test_zero_dim_rejected(tmp_path):
    path = tmp_path / "zero.hot"
    path.write_bytes(b"HOT1" + struct.pack("<I", 2) + struct.pack("<QQ", 2, 0))
    with pytest.raises(MalformedHeaderError):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.hot"
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(MalformedHeaderError, match="trailing"):
        read_tensor(path)


@FILE_EXAMPLES
@given(raw=st.binary(max_size=64) | HOT1_LIKE)
def test_arbitrary_bytes_read_or_raise_tensor_file_error(tmp_path, raw):
    path = tmp_path / "any.hot"
    path.write_bytes(raw)
    try:
        out = read_tensor(path)
    except TensorFileError:
        return
    assert isinstance(out, np.ndarray) and out.dtype == np.float64


@FILE_EXAMPLES
@given(t=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
                    elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(t=np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]))
def test_round_trip_bit_exact_for_any_float64(tmp_path, t):
    path = tmp_path / "t.hot"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()
