"""Tensor container file format.

One JSON header line, ``{"dtype": "f64"|"f32", "shape": [...], "order":
"row-major"}``, terminated by a newline, then the raw little-endian element
bytes. Round-trips are bitwise exact for f64.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ContainerError

__all__ = ["read_tensor", "read_finite_tensor", "write_tensor"]

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}


def write_tensor(path, array: np.ndarray, dtype: str = "f64") -> None:
    """Write ``array`` to ``path`` in container format (f32 writes are lossy)."""
    if dtype not in _DTYPES:
        raise ContainerError(f"unsupported dtype {dtype!r}; expected 'f64' or 'f32'")
    arr = np.ascontiguousarray(array, dtype=_DTYPES[dtype])
    header = json.dumps(
        {"dtype": dtype, "shape": list(arr.shape), "order": "row-major"}
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(memoryview(arr))


def read_tensor(path) -> np.ndarray:
    """Read a container file; returns float64 data regardless of stored dtype.

    The header line is parsed first, and the file size checked against the
    shape it declares before anything is allocated. An f64 payload is then
    read straight into a fresh read-only array, without an intermediate
    copy of the file's bytes; an f32 payload is read the same way and
    converted into a new array. Raises :class:`ContainerError` for a
    malformed header or a payload whose length does not match the header's
    shape.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ContainerError(f"{path}: missing header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ContainerError(f"{path}: malformed JSON header: {exc}") from exc
        if not isinstance(header, dict):
            raise ContainerError(f"{path}: header must be a JSON object")
        dtype = header.get("dtype")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ContainerError(f"{path}: unsupported dtype {dtype!r}")
        if header.get("order") != "row-major":
            raise ContainerError(f"{path}: unsupported order {header.get('order')!r}")
        shape = header.get("shape")
        if (
            not isinstance(shape, list)
            or not shape
            or not all(type(e) is int and e >= 1 for e in shape)
        ):
            raise ContainerError(f"{path}: invalid shape {shape!r}")

        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = _DTYPES[dtype].itemsize * math.prod(shape)
        if size != expected:
            raise ContainerError(f"{path}: payload holds {size} bytes, header implies {expected}")
        data = np.empty(shape, dtype=_DTYPES[dtype])
        got = fh.readinto(memoryview(data).cast("B"))
        if got != expected:  # the file shrank while being read
            raise ContainerError(f"{path}: payload holds {got} bytes, header implies {expected}")
    if data.dtype == np.float64:
        data.flags.writeable = False
        return data
    # Casting an f32 signalling NaN warns; NaN is the reader's to reject.
    with np.errstate(invalid="ignore"):
        return data.astype(np.float64)


def read_finite_tensor(path) -> np.ndarray:
    """:func:`read_tensor`, raising :class:`ContainerError` if the payload holds
    NaN or infinite values.

    The format itself round-trips any f64 value bitwise; kernels, activations
    and plan factors are read with this check.
    """
    data = read_tensor(path)
    # min and max propagate NaN and expose +-inf without a full-size mask.
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ContainerError(f"{path}: payload holds NaN or infinite values")
    return data
