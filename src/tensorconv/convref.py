"""Direct (unfactorized) N-D convolution: the correctness oracle.

Two implementations of the same contract live here on purpose:

* :func:`conv_nd_direct` is the vectorized path used everywhere by default:
  an unrolled convolution (im2col) that copies the windows of about 512
  output positions at a time into a column buffer, of at most
  (C + T) * V_out doubles and, in groups of input channels, at most
  ``_COLUMN_BYTES``, and runs one GEMM per slab and group straight into the
  output. Zero padding never takes a padded copy of the whole input: the
  windows come from a small staging buffer of the zero-padded input planes
  the current slab reads. Each output sums its C * prod(K) terms in BLAS
  order, group by group, so results agree with the loop nest to rounding
  and are bit-reproducible, as slabs and groups depend on the shapes alone;
* :func:`conv_nd_naive` is plain Python loops, the oracle of record. It is slow
  but unambiguous, and optionally tallies multiply-adds into an
  :class:`OpCounter` so the analytic FLOP formulas can be checked against an
  actually-executed operation count.

Both compute cross-correlation (no kernel flip), "valid" by default with
explicit per-mode stride and zero padding.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, as_tensor, conv_output_extent
from .errors import DimensionError

__all__ = ["ConvSpec", "OpCounter", "conv_nd_direct", "conv_nd_naive", "conv_1x1"]


def _integer(value, name: str) -> int:
    """``value`` as an int: a Python or numpy integer, no bool or float
    (``TypeError`` naming the argument ``name``)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _tolerance(value, name: str) -> float:
    """``value`` as a float: ``TypeError`` for a bool, a str, ``None`` or any
    other non-number, ``ValueError`` for NaN or below 0; ``inf`` stays allowed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return float(value)


def _per_mode(value, n: int, name: str) -> tuple[int, ...]:
    """Broadcast a scalar to ``n`` modes, or validate a length-``n`` sequence."""
    if np.isscalar(value):
        return (_integer(value, name),) * n
    out = tuple(_integer(v, name) for v in value)
    if len(out) != n:
        raise DimensionError(f"{name} must have one entry per spatial mode ({n}), got {len(out)}")
    return out


@dataclass(frozen=True)
class ConvSpec:
    """Channel counts, kernel extents and per-mode stride/padding of an N-D convolution.

    No bias term. ``strides``/``paddings`` accept a scalar (applied to every
    spatial mode) or one value per mode. Every field takes integers only: a
    float or a bool raises ``TypeError``.
    """

    in_channels: int
    out_channels: int
    kernel_sizes: tuple[int, ...]
    strides: tuple[int, ...] = 1
    paddings: tuple[int, ...] = 0

    def __post_init__(self):
        object.__setattr__(self, "in_channels", _integer(self.in_channels, "in_channels"))
        object.__setattr__(self, "out_channels", _integer(self.out_channels, "out_channels"))
        ks = tuple(_integer(k, "kernel_sizes") for k in self.kernel_sizes)
        if len(ks) < 1:
            raise DimensionError("ConvSpec needs at least one spatial mode")
        if self.in_channels < 1 or self.out_channels < 1 or any(k < 1 for k in ks):
            raise DimensionError(
                f"ConvSpec extents must all be >= 1: C={self.in_channels}, "
                f"T={self.out_channels}, kernels={ks}"
            )
        object.__setattr__(self, "kernel_sizes", ks)
        object.__setattr__(self, "strides", _per_mode(self.strides, len(ks), "strides"))
        object.__setattr__(self, "paddings", _per_mode(self.paddings, len(ks), "paddings"))
        if any(s < 1 for s in self.strides):
            raise DimensionError(f"strides must all be >= 1, got {self.strides}")
        if any(p < 0 for p in self.paddings):
            raise DimensionError(f"paddings must all be >= 0, got {self.paddings}")

    @property
    def n_spatial(self) -> int:
        return len(self.kernel_sizes)

    @classmethod
    def from_kernel(cls, w: np.ndarray, stride=1, padding=0) -> "ConvSpec":
        """Build a spec from a (T x C x K_0 x ... x K_{N-1}) kernel."""
        w = as_tensor(w)
        if w.ndim < 3:
            raise DimensionError(
                f"conv kernel needs order >= 3 (T, C, spatial...), got {w.ndim}"
            )
        return cls(w.shape[1], w.shape[0], w.shape[2:], stride, padding)

    def output_extents(self, input_extents) -> tuple[int, ...]:
        """Per-mode output extents: floor((D + 2p - K)/s) + 1. Each extent
        must be an integer (``TypeError`` for a float or a bool)."""
        ins = tuple(_integer(d, "input_extents") for d in input_extents)
        if len(ins) != self.n_spatial:
            raise DimensionError(
                f"expected {self.n_spatial} spatial extents, got {len(ins)}"
            )
        return tuple(
            conv_output_extent(d, k, s, p)
            for d, k, s, p in zip(ins, self.kernel_sizes, self.strides, self.paddings)
        )


@dataclass
class OpCounter:
    """Multiply-add tally for instrumented naive loops. 1 multiply-add = 2 FLOPs."""

    madds: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.madds


def _check_input(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """``x`` as a float64 array; :class:`DimensionError` unless it fits the spec's input."""
    x = as_tensor(x)
    if x.ndim != 1 + spec.n_spatial:
        raise DimensionError(
            f"activation order {x.ndim} does not match {spec.n_spatial} spatial modes"
        )
    if x.shape[0] != spec.in_channels:
        raise DimensionError(
            f"channel mismatch: activation has {x.shape[0]} channels, "
            f"the convolution expects {spec.in_channels}"
        )
    return x


def _check_conv_operands(x: np.ndarray, w: np.ndarray, spec: ConvSpec | None):
    x = as_tensor(x)
    w = as_tensor(w)
    if spec is None:
        spec = ConvSpec.from_kernel(w)
    if w.ndim != 2 + spec.n_spatial or w.shape[:2] != (spec.out_channels, spec.in_channels) \
            or w.shape[2:] != spec.kernel_sizes:
        raise DimensionError(
            f"kernel shape {w.shape} does not match spec "
            f"(T={spec.out_channels}, C={spec.in_channels}, K={spec.kernel_sizes})"
        )
    return _check_input(x, spec), w, spec


def _pad_spatial(x: np.ndarray, paddings: tuple[int, ...]) -> np.ndarray:
    if not any(paddings):
        return x
    return np.pad(x, [(0, 0)] + [(p, p) for p in paddings])


# Output positions per slab of the unrolled convolution. On a 256 -> 256,
# 3x3x3 layer at 32x32x16 (2 vCPUs, OpenBLAS 0.3.31) slabs of 512-2048
# positions took 0.80-0.87 s and slabs of 64 positions 1.04 s; 512 holds the
# smallest column buffer of the fast sizes.
_SLAB_POSITIONS = 512


def _slabs(out_spatial: tuple[int, ...], budget: int):
    """Yield ``(key, start, stop)`` per slab of at most ``budget`` output positions.

    A slab is a run of whole trailing-mode rows: a fixed index on the modes
    before the split mode ``m``, a range of mode ``m``, and all of every later
    mode. ``m`` is the first mode whose trailing rows hold at most ``budget``
    positions. ``key`` indexes the slab on the output modes, and its outputs
    are the row-major positions ``start:stop``.
    """
    m = 0
    while m < len(out_spatial) - 1 and math.prod(out_spatial[m + 1:]) > budget:
        m += 1
    row = math.prod(out_spatial[m + 1:])
    step = max(1, budget // row)
    extent = out_spatial[m]
    for i, index in enumerate(np.ndindex(*out_spatial[:m])):
        for a in range(0, extent, step):
            b = min(a + step, extent)
            yield index + (slice(a, b),), (i * extent + a) * row, (i * extent + b) * row


def _windows(a: np.ndarray, spec: ConvSpec, out_spatial: tuple[int, ...]) -> np.ndarray:
    """The windows of ``a`` (C x zero-padded D_0 x ...) at the spec's strides,
    as a read-only (C, K_0..K_{N-1}, O_0..O_{N-1}) view, for ``out_spatial``
    output positions."""
    n = spec.n_spatial
    windows = np.lib.stride_tricks.sliding_window_view(
        a, spec.kernel_sizes, axis=tuple(range(1, n + 1))
    )[(slice(None),) + tuple(slice(0, o * s, s) for o, s in zip(out_spatial, spec.strides))]
    return np.moveaxis(windows, tuple(range(n + 1, 2 * n + 1)), tuple(range(1, n + 1)))


def _mode_0_outputs(index) -> tuple[int, int]:
    """The output planes ``[y0, y1)`` along mode 0 of a slab key's first entry."""
    if isinstance(index, slice):
        return index.start, index.stop
    return index, index + 1


def _slab_windows(x: np.ndarray, spec: ConvSpec, out_spatial: tuple[int, ...], slabs):
    """Yield ``(view, start, stop)`` per slab: its windows as a (C, K..., slab
    O...) view, and its output positions ``start:stop``.

    Without padding the views are of ``x``. With padding they are of a
    zero-bordered staging buffer that holds only the input planes (along
    mode 0) one slab reads, each plane zero-padded on the other modes: the
    border strips are zeroed once, planes in the mode-0 padding are written
    as zeros, and the planes a slab shares with the previous one are carried
    to the front of the buffer, so each input plane is copied from ``x``
    once. The
    buffer is plane-major, so carrying a plane is one contiguous copy with
    no temporary. Its window view is built once.
    """
    n = spec.n_spatial
    if not any(spec.paddings):
        windows = _windows(x, spec, out_spatial)
        for key, start, stop in slabs:
            yield windows[(slice(None),) * (n + 1) + key], start, stop
        return
    k, s, p = spec.kernel_sizes[0], spec.strides[0], spec.paddings[0]
    d_in, trailing = x.shape[1], tuple(zip(x.shape[2:], spec.paddings[1:]))
    y0, y1 = _mode_0_outputs(slabs[0][0][0])  # the first slab is a largest one
    g = y1 - y0
    buf = np.zeros(((g - 1) * s + k, x.shape[0]) + tuple(d + 2 * q for d, q in trailing))
    interior = buf[(slice(None), slice(None)) + tuple(slice(q, q + d) for d, q in trailing)]
    windows = _windows(buf.swapaxes(0, 1), spec, (g,) + out_spatial[1:])
    a = b = 0  # the buffer holds input planes [a, b), plane a first
    for key, start, stop in slabs:
        y0, y1 = _mode_0_outputs(key[0])
        lo, hi = y0 * s - p, (y1 - 1) * s + k - p
        if (lo, hi) != (a, b):
            kept = min(b, hi) - lo if a <= lo < b else 0
            for j in range(kept):
                buf[j] = buf[lo - a + j]
            r0 = min(max(lo + kept, 0), hi)
            r1 = max(min(hi, d_in), r0)
            buf[kept:r0 - lo] = 0.0
            interior[r0 - lo:r1 - lo] = x[:, r0:r1].swapaxes(0, 1)
            buf[r1 - lo:hi - lo] = 0.0
            a, b = lo, hi
        yield windows[(slice(None),) * (n + 1) + (slice(0, y1 - y0),) + key[1:]], start, stop


# Bytes of one slab's column buffer, with one group's partial output when
# the input channels run in groups. On the column's 256 -> 256, 3x3x3 layer
# at 32x32x16 the 6912-row columns of 512 positions take 28.3 MB and the
# call peaked at 65.6 MB (tracemalloc); in 4 groups of 64 channels the
# columns take 7.1 MB and the call 45.6 MB, and blocks 2-4 ran within noise
# of one buffer (2 vCPUs, OpenBLAS 0.3.31: 1.457 -> 1.415 s, medians of 10
# benchmark pairs).
_COLUMN_BYTES = 8 * 2**20


def _group_width(spec: ConvSpec, positions: int) -> int:
    """Input channels per column group for slabs of ``positions`` output
    positions: as many as fit ``_COLUMN_BYTES`` with one group's partial
    output (T x positions), at least one, in groups of equal width but the
    last."""
    taps = math.prod(spec.kernel_sizes)
    fit = (_COLUMN_BYTES // 8 - spec.out_channels * positions) // (taps * positions)
    groups = -(-spec.in_channels // max(1, fit))
    return -(-spec.in_channels // groups)


def conv_nd_direct(x: np.ndarray, w: np.ndarray, spec: ConvSpec | None = None) -> np.ndarray:
    """N-D convolution of ``x`` (C x D_0 x ... ) with kernel ``w`` (T x C x K_0 x ...).

    ``out[t, y...] = sum_c sum_k w[t, c, k...] x[c, y*s + k - p, ...]``
    (cross-correlation, zero padding). ``spec`` defaults to stride 1, padding 0
    with extents taken from ``w``.

    Runs as an unrolled convolution (im2col), one slab of about
    ``_SLAB_POSITIONS`` consecutive output positions at a time (see
    :func:`_slabs`). Each slab's windows are copied from a strided view into
    a column buffer with rows in (channel, offset) order, so the kernel is
    its own free (T x C*prod(K)) reshape, and a GEMM writes the slab's
    output columns in place. The input channels go in groups
    (:func:`_group_width`): a group's rows are a strided column block of the
    kernel matrix, so no kernel is copied, and each group after the first
    adds its GEMM into the slab's columns. The view is of ``x`` itself when
    there is no padding; with padding it is of a staging buffer of the
    zero-padded input planes along mode 0 that the slab reads
    (:func:`_slab_windows`), never a padded copy of the whole input. The
    column buffer holds at most (C + T) * V_out doubles for V_out output
    positions (and never less than one column), and a group's columns and
    its partial output at most ``_COLUMN_BYTES`` (or one channel's columns),
    so the call needs no more than the output, that, and with padding
    C * ((g - 1) * s_0 + K_0) padded planes for slabs of g output planes
    along mode 0 (g = 1 when a slab is part of one plane). With one group
    each output is one BLAS dot product over all C*prod(K) terms, with
    several the sum of one per group, in group order: its rounding is
    BLAS's, not a fixed offset-by-offset order, but the slabs and groups are
    a fixed function of the shapes, so results are bit-reproducible.
    """
    x, w, spec = _check_conv_operands(x, w, spec)
    out = np.empty((spec.out_channels,) + spec.output_extents(x.shape[1:]))
    _direct_into(x, w, spec, out)
    return out


def _direct_into(x: np.ndarray, w: np.ndarray, spec: ConvSpec, out: np.ndarray) -> None:
    """:func:`conv_nd_direct` of operands it has checked, written into
    ``out``, a C-order float64 array of shape (T, output extents...)."""
    out_spatial = out.shape[1:]
    taps = math.prod(spec.kernel_sizes)
    rows = spec.in_channels * taps
    kernel = w.reshape(spec.out_channels, rows)
    out2d = out.reshape(spec.out_channels, -1)
    volume = out2d.shape[1]
    budget = max(1, min(_SLAB_POSITIONS, (spec.in_channels + spec.out_channels) * volume // rows))
    slabs = list(_slabs(out_spatial, budget))
    positions = slabs[0][2]  # the first slab is a largest one
    width = _group_width(spec, positions)
    flat = np.empty(width * taps * positions)
    for view, start, stop in _slab_windows(x, spec, out_spatial, slabs):
        for c in range(0, spec.in_channels, width):
            group = view[c:c + width]
            cols = flat[: len(group) * taps * (stop - start)].reshape(len(group) * taps, stop - start)
            np.copyto(cols.reshape(group.shape), group)
            lhs, dst = kernel[:, c * taps:(c + len(group)) * taps], out2d[:, start:stop]
            if c:
                dst += np.matmul(lhs, cols)
            else:
                np.matmul(lhs, cols, out=dst)


def conv_nd_naive(
    x: np.ndarray,
    w: np.ndarray,
    spec: ConvSpec | None = None,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Loop-nest reference for :func:`conv_nd_direct`; the oracle of record.

    Every multiply-add is executed (and counted) explicitly, including those
    that touch zero padding, so the tally equals the analytic formula
    C * prod(K) per output element exactly.
    """
    x, w, spec = _check_conv_operands(x, w, spec)
    out_spatial = spec.output_extents(x.shape[1:])
    xp = _pad_spatial(x, spec.paddings)
    out = np.zeros((spec.out_channels,) + out_spatial)
    for t in range(spec.out_channels):
        for pos in np.ndindex(*out_spatial):
            acc = 0.0
            for c in range(spec.in_channels):
                for offs in np.ndindex(*spec.kernel_sizes):
                    coord = tuple(
                        y * s + k for y, s, k in zip(pos, spec.strides, offs)
                    )
                    acc += w[(t, c) + offs] * xp[(c,) + coord]
                    if counter is not None:
                        counter.madds += 1
            out[(t,) + pos] = acc
    return out


def conv_1x1(x: np.ndarray, w2d: np.ndarray) -> np.ndarray:
    """Pointwise (1x1) convolution: contraction of the channel mode with ``w2d`` (T x C).

    One GEMM on the (C x prod(D)) reshape of ``x``; the result is written in
    (T x D_0 x ...) order directly, without a transposed copy.
    """
    x = as_tensor(x)
    w2d = as_matrix(w2d)
    if x.shape[0] != w2d.shape[1]:
        raise DimensionError(
            f"channel mismatch: activation has {x.shape[0]} channels, "
            f"1x1 kernel expects {w2d.shape[1]}"
        )
    return (w2d @ x.reshape(x.shape[0], -1)).reshape(w2d.shape[:1] + x.shape[1:])
