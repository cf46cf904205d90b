"""Tensor container file format.

One JSON header line, ``{"dtype": "f64"|"f32", "shape": [...], "order":
"row-major"}``, terminated by a newline, then the raw little-endian element
bytes. Round-trips are bitwise exact for f64.

Every file the program writes (a container, a plan's ``plan.json``, the
``sweep`` CSV) is opened after :func:`_remove_file`, so an existing regular
file at the path is replaced by a new one, not written through: a hard
link to it keeps the old bytes. Anything else at the path (a symlink, a
FIFO, a device) is left in place and written through.
"""

from __future__ import annotations

import json
import math
import os
import stat

import numpy as np

from .errors import ContainerError

__all__ = ["read_tensor", "read_finite_tensor", "write_tensor"]

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}

# The most bytes read looking for the header's newline. The longest header
# write_tensor writes, for numpy's 64 axes, is under 2 KB; a file with no
# newline this early is refused without reading the rest of it.
_HEADER_LIMIT = 64 * 1024


def _remove_file(path) -> None:
    """Remove ``path`` if it is a regular file; every writer calls this first.

    On ext4 (its default ``auto_da_alloc``), closing a file that was
    truncated to zero starts its writeback, and a rewrite soon after must
    free the blocks that writeback allocated; a new file costs neither.
    Renaming a temporary file over the old one forces the same writeback.
    A hard link to the old file keeps the old bytes. A symlink, a FIFO or a
    device at ``path`` is not removed, so opening the path afterwards
    writes through it.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass


def write_tensor(path, array: np.ndarray, dtype: str = "f64") -> None:
    """Write ``array`` to ``path`` in container format (f32 writes are lossy).

    A shape that :func:`read_tensor` refuses (no axes, or an extent of 0)
    raises :class:`ContainerError`, as does an unknown ``dtype``; both are
    checked before anything at ``path`` is touched. An existing regular file
    at ``path`` is replaced, not written through; a symlink, a FIFO or a
    device there is written through (see :func:`_remove_file`).
    """
    if dtype not in _DTYPES:
        raise ContainerError(f"unsupported dtype {dtype!r}; expected 'f64' or 'f32'")
    arr = np.asarray(array, dtype=_DTYPES[dtype], order="C")
    if arr.ndim == 0 or 0 in arr.shape:
        raise ContainerError(
            f"{path}: invalid shape {list(arr.shape)}; a container has one or more axes, each of extent >= 1"
        )
    header = json.dumps(
        {"dtype": dtype, "shape": list(arr.shape), "order": "row-major"}
    )
    _remove_file(path)
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
    malformed header, one not ended within ``_HEADER_LIMIT`` bytes, or a
    payload whose length does not match the header's shape.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ContainerError(f"{path}: missing header line in the first {_HEADER_LIMIT} bytes")
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
