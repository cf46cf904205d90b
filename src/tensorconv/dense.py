"""Dense N-dimensional tensor primitives.

Dense tensors are plain ``numpy.ndarray`` values in row-major (C) order with
64-bit float elements; :func:`as_tensor` is the single validation/coercion
point. Inputs are never mutated, and outputs are freshly allocated unless
the caller passes its own ``out`` (or asks :func:`band_diagonals` for views
into its band workspace), so values can be shared freely across threads.

Conventions, fixed once for the whole package:

* indexing is 0-based everywhere;
* 1-D convolutions are cross-correlations (no kernel flip);
* :func:`unfold` puts the selected mode on the rows and the remaining modes
  on the columns in increasing mode order, row-major (last one fastest);
  :func:`fold` is its exact inverse;
* :func:`khatri_rao` orders rows with the first factor slowest, matching the
  unfold column order, so CP normal equations line up without permutations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError

__all__ = [
    "as_tensor",
    "as_matrix",
    "n_mode_product",
    "depthwise_conv",
    "band_matrices",
    "band_diagonals",
    "banded_mode_conv",
    "conv_output_extent",
    "unfold",
    "fold",
    "khatri_rao",
]


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a float64 C-order array of order >= 1.

    Raises
    ------
    DimensionError
        If the value is 0-dimensional or has an empty mode.
    """
    t = np.asarray(values, dtype=np.float64)
    if t.ndim < 1:
        raise DimensionError("tensor order must be >= 1, got a scalar")
    if any(e < 1 for e in t.shape):
        raise DimensionError(f"tensor extents must all be >= 1, got shape {t.shape}")
    return np.ascontiguousarray(t)


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array."""
    m = as_tensor(values)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D tensor, got order {m.ndim}")
    return m


def n_mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Contract tensor ``t`` with matrix ``m`` along ``mode``.

    ``m`` has shape (J, I_mode); the result replaces extent I_mode with J:
    ``out[..., j, ...] = sum_k m[j, k] * t[..., k, ...]``.
    """
    t = as_tensor(t)
    m = as_matrix(m)
    if not 0 <= mode < t.ndim:
        raise DimensionError(f"mode {mode} out of range for order-{t.ndim} tensor")
    if m.shape[1] != t.shape[mode]:
        raise DimensionError(
            f"n_mode_product at mode {mode}: matrix has {m.shape[1]} columns "
            f"but tensor extent is {t.shape[mode]}"
        )
    out = np.tensordot(t, m, axes=([mode], [1]))
    return np.ascontiguousarray(np.moveaxis(out, -1, mode))


def conv_output_extent(extent: int, kernel: int, stride: int = 1, padding: int = 0) -> int:
    """Output extent of a 1-D convolution: floor((D + 2p - K)/s) + 1."""
    padded = extent + 2 * padding
    if kernel > padded:
        raise DimensionError(
            f"kernel of length {kernel} longer than padded extent {padded}"
        )
    if kernel < 1:
        raise DimensionError(f"kernel length must be >= 1, got {kernel}")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")
    return (padded - kernel) // stride + 1


def depthwise_conv(
    z: np.ndarray,
    taps: np.ndarray,
    strides: Sequence[int],
    paddings: Sequence[int],
    out=None,
) -> np.ndarray:
    """Per-channel N-D cross-correlation with zero padding.

    ``z`` is (R x D_0 x ... x D_{N-1}) and ``taps`` is (K_0 x ... x K_{N-1} x R):
    channel r is filtered with ``taps[..., r]``. The output accumulates one
    shifted window per kernel offset, in row-major offset order, so results
    are bit-reproducible. Nothing is padded; one of two paths leaves out
    exactly the zero terms a padded input would add:

    * flat shifts, when every stride is 1 and the output keeps the input
      extents past mode 0 (K odd and padding (K - 1)/2 on modes 1 to N-1:
      every stage of a CP or MobileNet layer with stride 1 and same
      padding, also on a window of mode-0 planes with its padding made
      explicit). Planes are whole, so each offset is one constant shift of
      the (R x D_0*...*D_{N-1}) view whatever mode 0's padding: one
      contiguous multiply, then zeroing the products whose window left the
      input along some mode, then one contiguous add;
    * boxes, for every other geometry: each offset adds its products only to
      the output box whose window lies inside ``z``.

    Every output element sums ``0 + a0 + a1 + ...`` over its in-window offsets
    in row-major order on both paths. The flat path also adds +0.0 for the
    others, which leaves the bits of a sum that starts at +0.0 unchanged, so
    the paths agree bitwise.

    ``out``, when given, receives the result; each of its channel rows must
    be one contiguous run.
    """
    kernel_sizes = taps.shape[:-1]
    extents = z.shape[1:]
    out_extents = tuple(map(conv_output_extent, extents, kernel_sizes, strides, paddings))
    if out is None:
        out = np.zeros((taps.shape[-1],) + out_extents)
    else:
        out[...] = 0.0
    product = np.empty(out.shape)
    if out_extents[1:] == extents[1:] and all(s == 1 for s in strides):
        _add_flat_shifts(out, product, z, taps, paddings)
        return out
    gain_shape = (taps.shape[-1],) + (1,) * len(kernel_sizes)
    for offs in np.ndindex(*kernel_sizes):
        boxes = [_valid_box(*a) for a in zip(offs, strides, paddings, extents, out_extents)]
        if None in boxes:
            continue
        dst = (slice(None),) + tuple(d for d, _ in boxes)
        np.multiply(taps[offs].reshape(gain_shape), z[(slice(None),) + tuple(s for _, s in boxes)],
                    out=product[dst])
        out[dst] += product[dst]
    return out


def _add_flat_shifts(out, product, z, taps, paddings) -> None:
    """The stride-1 path of :func:`depthwise_conv` for outputs that keep the
    extents past mode 0: adds every offset's products to ``out`` (zeros),
    through the buffer ``product`` of the same shape."""
    rank, extents, out_extents = z.shape[0], z.shape[1:], out.shape[1:]
    volume, out_volume = math.prod(extents), math.prod(out_extents)
    steps = [math.prod(extents[i + 1:]) for i in range(len(extents))]
    flat_z, flat_out = z.reshape(rank, -1), out.reshape(rank, -1)
    flat_product = product.reshape(rank, -1)
    for offs in np.ndindex(*taps.shape[:-1]):
        shifts = [o - p for o, p in zip(offs, paddings)]
        # Along each mode, the outputs y whose input y + d lies in [0, e).
        inside = [(max(0, -d), min(f, e - d)) for d, e, f in zip(shifts, extents, out_extents)]
        if any(a >= b for a, b in inside):
            continue
        s = sum(d * step for d, step in zip(shifts, steps))
        lo, hi = max(0, -s), min(out_volume, volume - s)
        np.multiply(taps[offs].reshape(rank, 1), flat_z[:, lo + s:hi + s], out=flat_product[:, lo:hi])
        # Outputs whose window leaves the input along some mode; this covers
        # [0, lo) and [hi, out_volume) too, whose products were not written.
        for i, ((a, b), f) in enumerate(zip(inside, out_extents)):
            mode = (slice(None),) * (i + 1)
            if a:
                product[mode + (slice(None, a),)] = 0.0
            if b < f:
                product[mode + (slice(b, None),)] = 0.0
        flat_out += flat_product


def band_matrices(taps: np.ndarray, extent: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Per-channel 1-D cross-correlations as (R x D_out x D) band matrices.

    ``taps`` is (K x R). Row y of channel r's matrix holds ``taps[k, r]`` at
    column ``y*stride + k - padding`` for every k that lands inside
    ``[0, extent)`` and zeros elsewhere, so stride and zero padding live in
    the matrix and nothing is padded.
    """
    kernel, rank = taps.shape
    bands = np.zeros((rank, conv_output_extent(extent, kernel, stride, padding), extent))
    for k, diagonal in band_diagonals(bands, kernel, stride, padding):
        diagonal[...] = taps[k][:, None]
    return bands


def band_diagonals(bands: np.ndarray, kernel: int, stride: int, padding: int) -> list:
    """(k, view) for each tap k of a K-tap band that lands in some row of
    ``bands`` (R x D_out x D, any strides): the writable (R x rows) view of
    the entries that hold tap k, one strided diagonal. Since these positions
    depend on the geometry alone, a band workspace holding zeros elsewhere
    takes new taps in K writes."""
    out_extent, extent = bands.shape[1:]
    r_step, y_step, d_step = bands.strides
    diagonals = []
    for k in range(kernel):
        box = _valid_box(k, stride, padding, extent, out_extent)
        if box is not None:
            ys, cols = box
            shape, strides = (len(bands), ys.stop - ys.start), (r_step, y_step + stride * d_step)
            diagonals.append((k, as_strided(bands[:, ys.start, cols.start], shape, strides)))
    return diagonals


def banded_mode_conv(z: np.ndarray, bands: np.ndarray, mode: int, out=None) -> np.ndarray:
    """Apply channel r's band matrix ``bands[r]`` along ``mode`` of ``z[r]``.

    ``z`` is (R x D_0 x ... x D_{N-1}) and ``bands`` (R x D_out x D_mode),
    as :func:`band_matrices` builds them: one batched matrix product over
    the channels, and over the modes before ``mode`` unless it is the last.
    Along the last mode the product takes the bands transposed, as a
    contiguous (R x D_mode x D_out) array: OpenBLAS runs such products about
    twice as fast as on the transposed view, and can round them differently
    in the last bits, so every layout is multiplied in this one. Bands kept
    as the transpose of a contiguous array cost no copy here.
    Each output sums over the whole band row, zeros included, so it is the
    loop nest's sum up to rounding, not bitwise; a non-finite input spreads
    NaN (0 x inf) along its whole row instead of K outputs.

    ``out``, when given, receives the result; each of its channel rows must
    be one contiguous run.
    """
    rank, extents = z.shape[0], z.shape[1:]
    before, after = math.prod(extents[:mode]), math.prod(extents[mode + 1:])
    shape = (rank,) + extents[:mode] + bands.shape[1:2] + extents[mode + 1:]
    if out is None:
        out = np.empty(shape)
    if after == 1:
        np.matmul(z.reshape(rank, before, extents[mode]), np.ascontiguousarray(bands.transpose(0, 2, 1)),
                  out=out.reshape(rank, before, bands.shape[1]))
    else:
        np.matmul(bands[:, None], z.reshape(rank, before, extents[mode], after),
                  out=out.reshape(rank, before, bands.shape[1], after))
    return out


def _valid_box(offset: int, stride: int, padding: int, extent: int, out_extent: int):
    """(output slice, input slice) along one mode for kernel ``offset``: the
    outputs y whose input y*stride + offset - padding lies in [0, extent),
    or None when there are none."""
    lo = max(0, -((offset - padding) // stride))
    hi = min(out_extent, (extent - 1 + padding - offset) // stride + 1)
    if lo >= hi:
        return None
    start = lo * stride + offset - padding
    return slice(lo, hi), slice(start, start + stride * (hi - lo - 1) + 1, stride)


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t``: ``mode`` on the rows, remaining modes on the columns.

    Columns run over the remaining modes in increasing index order, row-major
    (the last remaining mode varies fastest).
    """
    t = as_tensor(t)
    if not 0 <= mode < t.ndim:
        raise DimensionError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.ascontiguousarray(np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1))


def fold(m: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Exact inverse of :func:`unfold`: ``fold(unfold(t, mode), mode, t.shape) == t``."""
    m = as_matrix(m)
    shape = tuple(int(e) for e in shape)
    if not 0 <= mode < len(shape):
        raise DimensionError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if m.shape[0] != shape[mode] or m.size != int(np.prod(shape)):
        raise DimensionError(
            f"fold at mode {mode}: matrix shape {m.shape} inconsistent with "
            f"target shape {shape}"
        )
    return np.ascontiguousarray(np.moveaxis(m.reshape((shape[mode],) + rest), 0, mode))


def khatri_rao(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of 2-D factors sharing a column count.

    Rows are ordered with the first factor slowest, so
    ``khatri_rao(factors).sum(axis=1).reshape(extents)`` reconstructs a
    Kruskal tensor in row-major order.
    """
    if len(factors) == 0:
        raise DimensionError("khatri_rao requires at least one factor")
    mats = [as_matrix(f) for f in factors]
    r = mats[0].shape[1]
    for i, f in enumerate(mats):
        if f.shape[1] != r:
            raise DimensionError(
                f"khatri_rao: factor 0 has {r} columns but factor {i} has {f.shape[1]}"
            )
    out = mats[0]
    for f in mats[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, r)
    return np.ascontiguousarray(out)
