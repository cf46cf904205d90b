"""Executable factorized convolution layers, each a short tuple of typed stages.

A layer's ``stages`` run in order on a (channels x spatial...) array:
:class:`Contract` (1x1 convolution), :class:`Depthwise` (per-channel N-D
convolution; a CP ``conv_mode_i`` stage has taps of extent K on mode i and 1
elsewhere, a MobileNet ``depthwise`` stage full N-D taps),
:class:`DenseConv` (the Tucker core), :class:`Activate` and :class:`Skip`.
Each stage has a vectorized ``apply``, a ``naive`` that runs the loop nest
:func:`~tensorconv.convref.conv_nd_naive` (a contraction as a 1x1 kernel, a
depthwise stage once per channel) and can tally multiply-adds into an
:class:`~tensorconv.convref.OpCounter`, its ``out_extents`` and its weight
count ``params``. :func:`forward`,
:func:`forward_naive` and the cost reports are folds over the stage list;
:func:`forward` streams the channel-local stages over slabs of output planes
along mode 0, the per-channel ones in cache-sized channel blocks.

Each layer class holds what is particular to its scheme: its stage builder
(``stages_for``, which the cost model also calls on shape-only factors) and
its factors' roles in a plan manifest (``_roles``, which ``factors`` and
``from_factors`` follow). :class:`_Layer` coerces the factors its roles name to
float64 arrays, and its kernel ``dense_kernel()``, its shape checks and its
``rank`` (the width of the last contraction) are read off the stages, so
every forward is checkable against
``conv_nd_direct(x, layer.dense_kernel(), layer.spec)``. CP and HO-CP are
one class: an HO-CP layer is a :class:`CpConvLayer` with activations or a skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .convref import ConvSpec, OpCounter, _check_input, conv_1x1, conv_nd_direct, conv_nd_naive
from .decomp import KruskalTensor, TuckerTensor, absorb_spatial
from .dense import (
    as_tensor,
    band_diagonals,
    banded_mode_conv,
    depthwise_conv,
)
from .errors import DimensionError, RankError

__all__ = [
    "Activation",
    "ReLU",
    "PReLU",
    "FrozenBatchNorm",
    "Contract",
    "Depthwise",
    "DenseConv",
    "Activate",
    "Skip",
    "CpConvLayer",
    "TuckerConvLayer",
    "HoCpConvLayer",
    "MobileNetV1Block",
    "MobileNetV2Block",
    "forward",
    "forward_naive",
    "build_mobilenet_v2",
]


# ---------------------------------------------------------------------------
# Activations (forward-only, fixed parameters)
# ---------------------------------------------------------------------------

class Activation:
    """Base class; subclasses implement ``apply`` on (channels x spatial...) arrays.

    ``apply(z, out)`` writes the result into ``out`` when given, which may be
    ``z`` itself. ``check(rank)`` rejects parameters that do not fit ``rank``
    channels or are not finite; ``channels(sl)`` is the activation of
    channels ``sl`` alone.
    """

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def check(self, rank: int) -> None:
        pass

    def channels(self, sl: slice) -> "Activation":
        return self


def _check_numeric(name: str, value) -> None:
    """``TypeError`` if ``value`` holds a str or a bool, which numpy would read as a number."""
    if any(isinstance(v, (str, bool, np.bool_)) for v in np.ravel(np.asarray(value, dtype=object))):
        raise TypeError(f"{name} must be numeric, got {value!r}")


@dataclass(frozen=True)
class ReLU(Activation):
    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)


@dataclass(frozen=True)
class PReLU(Activation):
    """max(z, 0) + slope * min(z, 0) with a fixed slope."""

    slope: float = 0.25

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if 0.0 < self.slope <= 1.0:
            # Then slope * z <= z exactly where z >= 0, so this is bitwise the
            # np.where below, for +-0, +-inf, NaN and subnormals too, without
            # the mask. Slope 0 (0 * inf), > 1 and < 0 break that.
            product = np.multiply(z, self.slope)
            return np.maximum(z, product, out=product if out is None else out)
        result = np.where(z >= 0.0, z, self.slope * z)
        if out is None:
            return result
        out[...] = result
        return out

    def check(self, rank: int) -> None:
        _check_numeric("PReLU slope", self.slope)
        if not math.isfinite(self.slope):
            raise DimensionError(f"PReLU slope must be finite, got {self.slope}")


@dataclass(frozen=True)
class FrozenBatchNorm(Activation):
    """Batch norm with frozen statistics: scale*(z - mean)/sqrt(var + eps) + shift.

    Parameters are scalars, length 1 (the same as the scalar) or one value
    per channel (channel axis 0).
    """

    mean: tuple | float = 0.0
    var: tuple | float = 1.0
    scale: tuple | float = 1.0
    shift: tuple | float = 0.0
    eps: float = 1e-5

    _PARAMS = ("mean", "var", "scale", "shift")

    def check(self, rank: int) -> None:
        for name in self._PARAMS + ("eps",):
            _check_numeric(f"batch-norm {name}", getattr(self, name))
        for name in self._PARAMS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim > 1 or arr.size not in (1, rank):
                raise DimensionError(
                    f"batch-norm {name} has shape {arr.shape}; expected a scalar, "
                    f"length 1 or length {rank} (the rank)"
                )
            if not np.isfinite(arr).all():
                raise DimensionError(f"batch-norm {name} must be finite")
        if not math.isfinite(self.eps):
            raise DimensionError(f"batch-norm eps must be finite, got {self.eps}")
        if not (np.asarray(self.var, dtype=np.float64) + self.eps > 0.0).all():
            raise DimensionError("batch-norm var + eps must be > 0")

    def _affine(self) -> "_Affine":
        """The batch norm as ``z * a + b``, a = scale / sqrt(var + eps) and
        b = shift - mean * a. Not bitwise the formula above: it rounds
        differently, by about one ulp of each term."""
        mean, var, scale, shift = (np.asarray(getattr(self, n), dtype=np.float64) for n in self._PARAMS)
        a = scale / np.sqrt(var + self.eps)
        return _Affine(a, shift - mean * a)

    def channels(self, sl: slice) -> "_Affine":
        return self._affine().channels(sl)

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._affine().apply(z, out)


@dataclass(frozen=True, eq=False)
class _Affine(Activation):
    """``z * a + b`` with ``a``, ``b`` scalars, length 1 or one per channel:
    a frozen batch norm with its parameters folded, built once and then
    restricted to channel blocks."""

    a: np.ndarray
    b: np.ndarray

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        a, b = (p.reshape(p.shape + (1,) * (z.ndim - 1)) if p.ndim else p for p in (self.a, self.b))
        out = np.multiply(z, a, out=out)
        out += b
        return out

    def channels(self, sl: slice) -> "_Affine":
        return _Affine(*(p[sl] if p.size > 1 else p for p in (self.a, self.b)))


# ---------------------------------------------------------------------------
# Stage types
# ---------------------------------------------------------------------------

class _Stage:
    """Defaults for a stage that keeps the spatial extents and has no weights."""

    params = 0

    def out_extents(self, extents) -> tuple[int, ...]:
        return tuple(extents)

    def at(self, extents, width: Optional[int] = None) -> "_Stage":
        """The stage as it runs on inputs of spatial ``extents``, in blocks of
        at most ``width`` channels (the whole rank by default)."""
        return self


@dataclass(frozen=True, eq=False)
class Contract(_Stage):
    """1x1 convolution: ``out[t] = sum_c matrix[t, c] * z[c]`` at every position."""

    label: str
    matrix: np.ndarray  # (out_channels x in_channels)

    @property
    def params(self) -> int:
        return self.matrix.size

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        return conv_1x1(z, self.matrix)

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        kernel = self.matrix.reshape(self.matrix.shape + (1,) * (z.ndim - 1))
        return conv_nd_naive(z, kernel, counter=counter)


class Skip(Contract):
    """Adds the block input contracted with ``matrix`` (T x C); needs preserved extents."""

    def _check(self, z: np.ndarray, x: np.ndarray) -> None:
        if z.shape[1:] != x.shape[1:]:
            raise DimensionError(
                f"skip connection requires preserved spatial extents, got "
                f"{x.shape[1:]} in and {z.shape[1:]} out"
            )

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._check(z, x)
        # Added into the fresh GEMM result: bitwise z + s, one T x V array less.
        s = super().apply(x, x)
        s += z
        return s

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        self._check(z, x)
        return z + super().naive(x, x, counter)


# The longest mode along which a 1-D depthwise stage runs as band matrices.
# A band row spans the whole mode, D/K times the taps, so the band's wasted
# multiply-adds grow with D. On 0.5 MiB channel blocks of 3-tap stages
# (2 vCPUs, OpenBLAS 0.3.31) the band took 0.07-0.74x the time of flat
# shifts at D = 8-48, 0.18-1.17x at D = 64, 0.48-3.2x at D = 96-128 and
# 1.2-5.4x at D = 192-512 (the 2-D images of the CLI benchmark).
_BAND_EXTENT = 48


@dataclass(frozen=True, eq=False)
class Depthwise(_Stage):
    """Per-channel N-D convolution: channel r filtered with ``taps[..., r]``.

    ``taps`` is (K_0 x ... x K_{N-1} x R), channels last. A stage whose taps,
    stride and padding are those of the identity on every mode but one (each
    CP ``conv_mode_i`` stage) runs, when that mode's extent is at most
    ``_BAND_EXTENT``, as one batched product of per-channel band matrices
    (:func:`banded_mode_conv`), which carry its stride and padding. Every
    other stage (long modes, N-D MobileNet taps) runs
    :func:`depthwise_conv`.
    """

    label: str
    taps: np.ndarray
    strides: tuple[int, ...]
    paddings: tuple[int, ...]

    @property
    def params(self) -> int:
        return self.taps.size

    def _spec(self) -> ConvSpec:
        return ConvSpec(1, 1, self.taps.shape[:-1], self.strides, self.paddings)

    def out_extents(self, extents) -> tuple[int, ...]:
        return self._spec().output_extents(extents)

    def band_mode(self, extents) -> Optional[int]:
        """The mode this stage runs along as band matrices on inputs of
        spatial ``extents``, or None when it takes :func:`depthwise_conv`."""
        moving = [
            i for i, g in enumerate(zip(self.taps.shape[:-1], self.strides, self.paddings))
            if g != (1, 1, 0)
        ]
        if len(moving) == 1 and extents[moving[0]] <= _BAND_EXTENT:
            return moving[0]
        return None

    def at(self, extents, width: Optional[int] = None) -> "Depthwise | _Banded":
        """When :meth:`band_mode` names a mode on inputs of ``extents``, the
        stage bound to them with a band workspace of ``width`` channels (the
        whole rank by default); else itself."""
        mode = self.band_mode(extents)
        if mode is None:
            return self
        kernel, rank = self.taps.shape[mode], self.taps.shape[-1]
        stride, padding = self.strides[mode], self.paddings[mode]
        d, rows = extents[mode], width or rank
        d_out = self.out_extents(extents)[mode]
        if mode == len(extents) - 1:  # kept transposed, as banded_mode_conv multiplies it
            bands = np.zeros((rows, d, d_out)).transpose(0, 2, 1)
        else:
            bands = np.zeros((rows, d_out, d))
        diagonals = band_diagonals(bands, kernel, stride, padding)
        return _Banded(self.label, self.taps.reshape(kernel, rank), bands, diagonals, mode)

    def apply(self, z: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        stage = self.at(z.shape[1:])
        if stage is not self:
            return stage.apply(z, x, out)
        return depthwise_conv(z, self.taps, self.strides, self.paddings, out)

    def channels(self, sl: slice) -> "Depthwise":
        """The stage restricted to channels ``sl``."""
        return replace(self, taps=self.taps[..., sl])

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        spec = self._spec()
        return np.concatenate([conv_nd_naive(z[r:r + 1], self.taps[..., r][None, None], spec, counter)
                               for r in range(len(z))])


@dataclass(frozen=True, eq=False)
class _Banded:
    """A 1-D :class:`Depthwise` stage bound to its input extents along
    ``mode``: its taps (K x R) and a band workspace of at least R channels
    (:func:`band_matrices` layout, zeros off the band) with the diagonals
    that hold each tap (:func:`band_diagonals`). Each ``apply`` writes the
    taps into the workspace, K strided writes, then runs
    :func:`banded_mode_conv`. The channel blocks of :func:`forward` share
    one workspace of block width, so no band matrices outlive their block."""

    label: str
    taps: np.ndarray
    bands: np.ndarray
    diagonals: list
    mode: int

    def apply(self, z: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        n = self.taps.shape[1]
        for k, diagonal in self.diagonals:
            diagonal[:n] = self.taps[k][:, None]
        return banded_mode_conv(z, self.bands[:n], self.mode, out)

    def channels(self, sl: slice) -> "_Banded":
        return replace(self, taps=self.taps[:, sl])


@dataclass(frozen=True, eq=False)
class DenseConv(_Stage):
    """Dense convolution with ``core`` (R_out x R_in x K_0 x ...): the Tucker core."""

    label: str
    core: np.ndarray
    strides: tuple[int, ...]
    paddings: tuple[int, ...]

    @property
    def params(self) -> int:
        return self.core.size

    def out_extents(self, extents) -> tuple[int, ...]:
        # One channel in and out: a rank-0 core has none, which ``ConvSpec`` rejects.
        return ConvSpec(1, 1, self.core.shape[2:], self.strides, self.paddings).output_extents(extents)

    def _spec(self) -> ConvSpec:
        return ConvSpec.from_kernel(self.core, self.strides, self.paddings)

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        return conv_nd_direct(z, self.core, self._spec())

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        return conv_nd_naive(z, self.core, self._spec(), counter)


@dataclass(frozen=True, eq=False)
class Activate(_Stage):
    """A fixed activation after spatial stage ``mode``; no weights, no counted FLOPs."""

    mode: int
    activation: Activation

    @property
    def label(self) -> str:
        return f"activation_{self.mode}"

    def apply(self, z: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.activation.apply(z, out)

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        return self.activation.apply(z)

    def channels(self, sl: slice) -> "Activate":
        """The stage restricted to channels ``sl``."""
        return replace(self, activation=self.activation.channels(sl))


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------

class _Layer:
    """Defaults for a layer whose factor fields are named by their manifest roles:
    each is coerced with ``as_tensor``, and its stage list is its class's
    ``stages_for`` applied to those factors in role order."""

    _ROLES: tuple[str, ...] = ()

    @property
    def stages(self) -> tuple:
        return self.stages_for(*(f for _, f in self.factors), self.spec)

    @classmethod
    def _roles(cls, spec: ConvSpec) -> tuple[str, ...]:
        """The roles of the factors of a layer on ``spec``, in ``factors`` order."""
        return cls._ROLES

    @property
    def factors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(role, factor) pairs in plan-manifest order."""
        return tuple((role, getattr(self, role)) for role in self._roles(self.spec))

    @classmethod
    def from_factors(cls, get, spec: ConvSpec):
        """The layer whose factor of each role in ``factors`` is ``get(role)``."""
        return cls(*map(get, cls._roles(spec)), spec)

    def __post_init__(self):
        for role in self._ROLES:
            object.__setattr__(self, role, as_tensor(getattr(self, role)))
        self._check_stages()

    def _check_stages(self) -> None:
        """Raise :class:`DimensionError`, naming the stage, unless the stages
        chain: each takes the channels the one before gives, from the spec's
        C to its T, a skip is (T x C) on a geometry that keeps every extent
        (stride 1, 2 * padding = K - 1), and the taps compose to the spec's
        kernel sizes. Each activation checks its parameters against the
        channels it receives."""
        spec = self.spec
        skip, end = (spec.out_channels, spec.in_channels), (spec.out_channels, spec.kernel_sizes)
        channels, sizes = spec.in_channels, (1,) * spec.n_spatial
        for stage in self.stages:
            if isinstance(stage, Activate):
                stage.activation.check(channels)
                continue
            # ``dims``: the stage as a dense kernel's extents (out x in x K_0 x ...)
            if isinstance(stage, Contract):  # a skip too
                shape, dims = stage.matrix.shape, stage.matrix.shape + (1,) * len(sizes)
            elif isinstance(stage, Depthwise):
                shape, dims = stage.taps.shape, stage.taps.shape[-1:] * 2 + stage.taps.shape[:-1]
            else:
                shape = dims = stage.core.shape
            name = f"stage {stage.label} of shape {shape}"
            if isinstance(stage, Skip):
                if shape != skip:
                    raise DimensionError(f"{name} is not (T, C) = {skip}")
                if any((s, 2 * p) != (1, k - 1) for k, s, p in zip(spec.kernel_sizes, spec.strides, spec.paddings)):
                    raise DimensionError(f"{name} requires preserved spatial extents (stride 1, padding (K - 1)/2): {spec}")
                continue
            if len(dims) != len(sizes) + 2 or dims[1] != channels:
                raise DimensionError(f"{name} does not take {channels} channels, {len(sizes)} spatial modes")
            channels, sizes = dims[0], tuple(s + k - 1 for s, k in zip(sizes, dims[2:]))
        if (channels, sizes) != end:
            raise DimensionError(f"the stages give (channels, taps) {(channels, sizes)}, the spec {end}")

    @property
    def rank(self) -> int:
        """The width of the last :class:`Contract`, not a skip: R, or Tucker's R_out."""
        return next(s for s in reversed(self.stages) if type(s) is Contract).matrix.shape[1]

    def dense_kernel(self) -> np.ndarray:
        """The kernel (T x C x K_0 x ...) the stages compose to: they fold from
        last to first onto the identity on the T output channels, kept
        channels last. A :class:`Contract` is one ``tensordot`` on the channel
        axis, a :class:`Depthwise` multiplies its taps in by broadcasting,
        onto modes no later stage moves, and a :class:`DenseConv` is one
        ``tensordot`` with the core, when no later stage moves a mode.
        :class:`Activate` and :class:`Skip` leave the kernel unchanged, so an
        HO-CP layer's kernel is its CP kernel."""
        t = self.spec.out_channels
        w = np.eye(t).reshape((t,) + (1,) * self.spec.n_spatial + (t,))
        for stage in reversed(self.stages):
            if type(stage) is Contract:
                w = np.tensordot(w, stage.matrix, axes=(-1, 0))
            elif isinstance(stage, (Depthwise, DenseConv)):
                dense, moved = isinstance(stage, DenseConv), w.shape[1:-1]
                taps = stage.core.shape[2:] if dense else stage.taps.shape[:-1]
                if any(m > 1 and (dense or k > 1) for m, k in zip(moved, taps)):
                    raise DimensionError(f"stage {stage.label} taps {taps} fold onto moved modes {moved}")
                if dense:  # the core's product, (R_in x K... x R_out), turned channels last
                    w = np.tensordot(stage.core, w.reshape(t, -1), axes=(0, 1)).swapaxes(0, -1)
                else:
                    w = w * stage.taps
        return np.ascontiguousarray(np.moveaxis(w, -1, 1))


@dataclass(frozen=True, eq=False)
class CpConvLayer(_Layer):
    """Separable convolution defined by a Kruskal kernel; with ``activations``
    or a ``skip``, the higher-order CP (HO-CP) layer.

    Factor order is (U_out, U_in, U_k0, ..., U_k{N-1}) matching the kernel
    modes (T, C, K_0, ..., K_{N-1}). ``activations`` holds one optional
    activation per spatial stage (applied after that stage's depthwise 1-D
    convolution). ``skip`` is a (T x C) matrix; when present the forward adds
    the channel-contracted input, which requires the convolution to preserve
    the spatial extents.
    """

    kruskal: KruskalTensor
    spec: ConvSpec
    activations: Optional[tuple[Optional[Activation], ...]] = None
    skip: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.activations is not None:  # their count is checked with the stages
            object.__setattr__(self, "activations", tuple(self.activations))
        if self.skip is not None:
            object.__setattr__(self, "skip", as_tensor(self.skip))
        super().__post_init__()

    @staticmethod
    def stages_for(
        factors: Sequence[np.ndarray],
        spec: ConvSpec,
        activations: Optional[Sequence[Optional[Activation]]] = None,
        skip: Optional[np.ndarray] = None,
    ) -> tuple:
        """Contract the input channels, one depthwise stage per spatial mode in
        increasing mode order (each optionally followed by its activation),
        contract to the output channels, then the optional skip."""
        n = spec.n_spatial
        if len(factors) != 2 + n:
            raise DimensionError(f"a CP kernel needs 2 + {n} factors (T, C, K_0, ...), got {len(factors)}")
        u_out, u_in, *u_spatial = factors
        if activations is not None and len(activations) != n:
            raise DimensionError(
                f"expected one activation slot per spatial mode ({n}), got {len(activations)}"
            )
        stages = [Contract("contract_in", u_in.T)]
        for i, u in enumerate(u_spatial):
            stages.append(
                Depthwise(
                    f"conv_mode_{i}",
                    u.reshape((1,) * i + u.shape[:1] + (1,) * (n - 1 - i) + u.shape[1:]),
                    tuple(s if j == i else 1 for j, s in enumerate(spec.strides)),
                    tuple(p if j == i else 0 for j, p in enumerate(spec.paddings)),
                )
            )
            if activations is not None and activations[i] is not None:
                stages.append(Activate(i, activations[i]))
        stages.append(Contract("contract_out", u_out))
        if skip is not None:
            stages.append(Skip("skip", skip))
        return tuple(stages)

    @property
    def stages(self) -> tuple:
        return self.stages_for(self.kruskal.factors, self.spec, self.activations, self.skip)

    @staticmethod
    def _roles(spec: ConvSpec) -> tuple[str, ...]:
        return ("output_channels", "input_channels") + tuple(f"spatial_mode_{i}" for i in range(spec.n_spatial))

    @property
    def factors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """The Kruskal factors; a manifest stores ``activations`` and ``skip`` apart."""
        return tuple(zip(self._roles(self.spec), self.kruskal.factors))

    @staticmethod
    def from_factors(get, spec: ConvSpec, activations=None, skip=None) -> "CpConvLayer":
        factors = tuple(map(get, CpConvLayer._roles(spec)))
        return CpConvLayer(KruskalTensor(factors), spec, activations, skip)


@dataclass(frozen=True, eq=False)
class TuckerConvLayer(_Layer):
    """Bottleneck convolution: 1x1 reduce, small dense conv with the absorbed
    core, 1x1 expand.

    ``down`` is (R_in x C), ``core`` is (R_out x R_in x K_0 x ...), ``up`` is
    (T x R_out).
    """

    down: np.ndarray
    core: np.ndarray
    up: np.ndarray
    spec: ConvSpec

    _ROLES = ("down", "core", "up")

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.core.shape[0], self.core.shape[1])

    @classmethod
    def from_tucker(cls, t: TuckerTensor, spec: ConvSpec) -> "TuckerConvLayer":
        """Build from a Tucker-decomposed kernel by absorbing the spatial factors."""
        absorbed = absorb_spatial(t)
        return cls(absorbed.factors[1].T, absorbed.core, absorbed.factors[0], spec)

    @staticmethod
    def stages_for(down: np.ndarray, core: np.ndarray, up: np.ndarray, spec: ConvSpec) -> tuple:
        return (
            Contract("contract_in", down),
            DenseConv("core_conv", core, spec.strides, spec.paddings),
            Contract("contract_out", up),
        )


class HoCpConvLayer(CpConvLayer):
    """A constructor only: ``cp`` with ``activations`` and ``skip``, as one
    :class:`CpConvLayer`; without ``activations``, one empty slot per mode."""

    def __init__(self, cp: CpConvLayer, activations=None, skip=None):
        slots = (None,) * cp.spec.n_spatial if activations is None else activations
        super().__init__(cp.kruskal, cp.spec, slots, skip)


@dataclass(frozen=True, eq=False)
class MobileNetV1Block(_Layer):
    """Depthwise conv with one N-D spatial kernel per channel, then a
    pointwise conv. Channel count equals the depthwise multiplicity (R == C).
    """

    spatial: np.ndarray  # (K_0, ..., K_{N-1}, R)
    pointwise: np.ndarray  # (T, C)
    spec: ConvSpec

    _ROLES = ("spatial", "pointwise")

    def _check_stages(self) -> None:
        if self.spatial.shape[-1] != self.spec.in_channels:
            raise RankError(
                f"depthwise block needs rank == input channels, got rank "
                f"{self.spatial.shape[-1]} with {self.spec.in_channels} channels"
            )
        super()._check_stages()

    @staticmethod
    def stages_for(spatial: np.ndarray, pointwise: np.ndarray, spec: ConvSpec) -> tuple:
        return (
            Depthwise("depthwise", spatial, spec.strides, spec.paddings),
            Contract("pointwise", pointwise),
        )


@dataclass(frozen=True, eq=False)
class MobileNetV2Block(_Layer):
    """Inverted bottleneck: 1x1 down to the rank, depthwise conv with the
    merged spatial factor, 1x1 up to the output channels.
    """

    down: np.ndarray  # (R, C)
    spatial: np.ndarray  # (K_0, ..., K_{N-1}, R)
    up: np.ndarray  # (T, R)
    spec: ConvSpec

    _ROLES = ("down", "spatial", "up")

    @staticmethod
    def stages_for(
        down: np.ndarray, spatial: np.ndarray, up: np.ndarray, spec: ConvSpec
    ) -> tuple:
        return (
            Contract("contract_in", down),
            Depthwise("depthwise", spatial, spec.strides, spec.paddings),
            Contract("contract_out", up),
        )


# ---------------------------------------------------------------------------
# MobileNet constructions
# ---------------------------------------------------------------------------

def build_mobilenet_v2(k: KruskalTensor, stride=1, padding=0) -> MobileNetV2Block:
    """Inverted-bottleneck block from a Kruskal conv kernel (any rank).

    Only the spatial factors are merged: the taps are the product of the CP
    stages' ``conv_mode_i`` taps, which broadcast. Both channel factors are
    kept, so the block is exactly equivalent to the source CP convolution.
    """
    if k.order < 3:
        raise DimensionError(
            f"a Kruskal conv kernel needs order >= 3 (T, C, spatial...), got {k.order}"
        )
    u_t, u_c = k.factors[:2]
    spec = ConvSpec(u_c.shape[0], u_t.shape[0], k.shape[2:], stride, padding)
    taps = [s.taps for s in CpConvLayer.stages_for(k.factors, spec) if isinstance(s, Depthwise)]
    return MobileNetV2Block(u_c.T, math.prod(taps), u_t, spec)


# ---------------------------------------------------------------------------
# Forward passes: folds over the stage list
# ---------------------------------------------------------------------------

# Bytes, float64, counted on the largest plane volume of the per-channel
# chain, of two things: one slab's per-channel intermediate at full rank
# (rank x g planes), which bounds the slab height g, and one rank tile's
# line buffer (tile width x the window's planes, K - s more than the
# slab's), which bounds the tile width. Tiles are the outer loop, so no
# buffer holds the whole rank. At 20 MiB the column's blocks 2-4 (32x32x16
# inputs, rank 6C) take slabs of 13, 6 and 3 planes in 2 tiles each (192,
# 384 and 768 channels wide), and their cp and hocp forwards peak at 36,
# 53 and 53 MB (tracemalloc), mostly the output and one tile's line
# buffer. With one line buffer for the whole rank they peaked at 41-47,
# 60-65 and 66-69 MB. 16 MiB gave 32, 50 and 49 MB in shorter slabs (10, 5
# and 2 planes) and no clear change in time.
_TILE_BYTES = 20 * 2**20

# Bytes of one channel block of the per-channel stages inside a slab, on the
# same measure. A depthwise stage holds its block's input, product buffer and
# output at once, so 0.5 MiB blocks keep all three within a 2 MiB per-core L2.
_BLOCK_BYTES = 2**19

# The most columns (g x the largest plane volume) a slab holds per channel,
# whatever the rank: 8192, a 64 KiB channel row, so a block holds about 8
# channels of it. Without it a small rank fits the whole image in one slab,
# and the forward holds a rank x image intermediate: 19.7 MB for rank 32 on
# 320x240, on top of the output. On the CLI benchmark's 2-D layers (ranks
# 12-32, 320x240 and 192x384; 2 vCPUs, OpenBLAS 0.3.31) caps of 2048 to
# 32768 columns ran the forwards within noise of each other and of one slab
# (rank 32 at 320x240: 30-38 ms), while the memory above the output grew
# from 1.4 MiB (2048) over 3.0 (8192) and 9.0 (32768) to 19.9 MiB (one
# slab). The column's slabs of 13, 6 and 3 planes of 512 stay below it.
_SLAB_COLUMNS = _BLOCK_BYTES // 64


def _mode_0(stage) -> tuple[int, int, int]:
    """(kernel, stride, padding) of ``stage`` along spatial mode 0."""
    if isinstance(stage, Depthwise):
        return stage.taps.shape[0], stage.strides[0], stage.paddings[0]
    return 1, 1, 0


def _channel_local(stages):
    """Split ``stages`` into (leading :class:`Contract` or None, the
    :class:`Depthwise`/:class:`Activate` stages after it, trailing
    :class:`Contract`, the stages after that); None when the list does not
    start with such a channel-local run, or when a per-channel stage other
    than the first moves spatial mode 0."""
    lead = stages[0] if type(stages[0]) is Contract else None
    lo = hi = int(lead is not None)
    while hi < len(stages) and isinstance(stages[hi], (Depthwise, Activate)):
        hi += 1
    if (
        lo < hi < len(stages)
        and type(stages[hi]) is Contract
        and all(_mode_0(s) == (1, 1, 0) for s in stages[lo + 1:hi])
    ):
        return lead, stages[lo:hi], stages[hi], stages[hi + 1:]
    return None


def forward(layer, x: np.ndarray) -> np.ndarray:
    """Run ``layer.stages`` in order on ``x`` (C x D_0 x ...).

    Equals ``conv_nd_direct(x, layer.dense_kernel(), layer.spec)``.

    The channel-local head of the list (optional leading contraction,
    per-channel depthwise and activation stages, trailing contraction)
    streams over slabs of g output planes along spatial mode 0, in rank
    tiles. g is the largest that keeps rank x g planes within
    ``_TILE_BYTES`` and g planes within ``_SLAB_COLUMNS`` columns per
    channel, both counted on the largest plane volume the per-channel
    stages hold (padding can make it larger than the input's): slabs of a
    few dozen planes on a small-rank 2-D image, so no intermediate of the
    whole image is held. The tiles are the outer loop: each streams every
    slab with its own line buffer and carried planes. A tile is as wide as
    keeps its line buffer (the window's planes, or the carried planes and
    the result if more) within ``_TILE_BYTES``, and the tiles are of equal
    width but the last: one tile on small ranks, two on each block of the
    3-D column. For each tile, and in it for each slab in increasing plane
    order:

    * the leading contraction writes the tile's channels of the input
      planes the slab's window needs into the line buffer, one GEMM for the
      planes the previous slab did not hold; planes in the mode-0 zero
      padding are zeros. Without a leading contraction the planes are
      copied from ``x``: the window always lives in the line buffer;
    * the per-channel stages run on the window in channel blocks of
      ``_BLOCK_BYTES``, sized for the L2 cache, so a block's data stays in
      cache through the chain. The first stage, the only one that may move
      mode 0, runs with mode-0 padding 0 on the explicitly padded window
      (its own padding when one slab is the whole input). Each stage runs
      as the window's extents select (:meth:`Depthwise.at`): a CP
      ``conv_mode_i`` stage along a mode of at most ``_BAND_EXTENT`` as
      band matrices (:func:`banded_mode_conv`), ``conv_mode_0`` as a
      (g x window) band per channel; longer modes, and N-D MobileNet taps
      always, as :func:`depthwise_conv`, whose flat shifts take a mode 0
      that shrinks; a frozen batch norm as ``z * a + b``, in place on the
      chain's own intermediates. The chain is
      bound once per window shape (two at most: the last slab may be
      shorter), for all rank tiles: a banded stage keeps one band workspace
      of block width that every block shares, writing its taps into it
      before the product, so band matrices are held for one block at a
      time, never for the rank. While the block is in cache, the window
      planes the next slab shares move to the front of its buffer rows,
      and the last stage writes its result straight behind them;
    * one GEMM with the trailing contraction, its K the tile's width,
      reads those results; tile 0 writes the slab's output columns in
      place, every later tile adds into them. When the head keeps the
      extents, a trailing skip's GEMM then reads x's columns in place and,
      in tile 0, adds into those output columns while they are in cache;
      only skips run per slab.

    So each tile contracts each input plane once, and the memory above the
    output is one tile's line buffer, one slab's partial output and one
    block's intermediates and band workspaces, none of which grows with
    the rank.

    A per-channel stage computes each channel from that channel alone, so
    blocks change no bit. Slabs and tiles depend on the shapes alone, so
    results are bit-reproducible. With several tiles each output sums one
    GEMM per tile, in tile order and with the skip added after tile 0's,
    which rounds differently from one GEMM over the rank. With one tile the
    output is bitwise that of the plain fold over the stages with one slab,
    whose window is the whole input with the first stage's own padding, and
    with many slabs when no stage takes bands, on the windows or the whole
    input (N-D MobileNet taps never do; CP stages when every mode they move,
    and every window along mode 0, is longer than ``_BAND_EXTENT``): each
    window then takes the flat shifts or boxes the whole input takes, every
    depthwise sum adds the same terms in the same order (a padding plane
    adds products of finite taps and zeros, which change no bit), and each
    GEMM column is one dot product over the rank, as in one slab (tests
    compare the bits). A band sums whole rows, so a (g x window) band on
    windows cut from a mode 0 too long for bands, or one batched over fewer
    planes, can round differently in the last bits.
    The remaining stages (Tucker's whole list, whose core conv mixes
    positions and channels, or an activation after the trailing
    contraction) run once on the full output.
    """
    x = _check_input(x, layer.spec)
    z, rest = x, layer.stages
    head = _channel_local(rest)
    if head is not None:
        lead, per_channel, tail, rest = head
        # Per-channel batch-norm parameters broadcast along rows shorter than
        # numpy's ufunc buffer (8192 elements by default) go through buffered
        # copies, 3-4x slower per element; a slab's channel rows can be 1536
        # long. A buffer of 16 elements avoids the copies and, every operation
        # of the slab loop being elementwise or a GEMM, changes no bit.
        default = np.setbufsize(16)
        try:
            z, rest = _stream(x, lead, per_channel, tail, rest)
        finally:
            np.setbufsize(default)
    for stage in rest:
        z = stage.apply(z, x)
    return z


def _stream(x, lead, per_channel, tail, rest):
    """The tile and slab loops of :func:`forward`: the output of the
    channel-local head (and of ``rest`` when it runs per slab) and the
    stages still to run. Every window is written into the line buffer, and
    each stage on it runs as the window's extents select."""
    rank = tail.matrix.shape[1]
    extents = [x.shape[1:]]
    for stage in per_channel:
        extents.append(stage.out_extents(extents[-1]))
    out_extents, d_out = extents[-1], extents[-1][0]
    widest = max(math.prod(e[1:]) for e in extents)
    fit = _TILE_BYTES // (8 * rank * widest)  # full-rank planes in the budget
    g = min(max(1, min(fit, _SLAB_COLUMNS // widest)), d_out)
    first = per_channel[0]
    kernel, stride, padding = _mode_0(first)
    d_in, plane, out_plane = x.shape[1], math.prod(x.shape[2:]), math.prod(out_extents[1:])
    if g == d_out:  # one slab: the whole input, the first stage's own padding
        span, carried = d_in, 0
    else:  # the window holds mode 0's padding
        span = (g - 1) * stride + kernel
        carried = max(0, span - g * stride)
        if isinstance(first, Depthwise):
            per_channel = (replace(first, paddings=(0,) + first.paddings[1:]),) + per_channel[1:]
    # Each buffer row holds the window's planes, then the planes carried to
    # the next slab followed by the block's result.
    row = max(span * plane, carried * plane + g * out_plane)
    count = -(-rank // max(1, _TILE_BYTES // (8 * row)))  # tiles of equal width but the last
    step = -(-rank // count)
    tiles = [slice(lo, min(lo + step, rank)) for lo in range(0, rank, step)]
    buf = np.empty((step, row))
    out = np.empty(tail.matrix.shape[:1] + out_extents)
    flat_x, flat_out = x.reshape(x.shape[0], -1), out.reshape(out.shape[0], -1)
    per_slab = all(isinstance(s, Skip) for s in rest) and out_extents == x.shape[1:]
    bindings = {}  # window extents -> the chain bound to them for every tile
    for i, tile in enumerate(tiles):
        lines, kept = buf[:tile.stop - tile.start], 0
        for y0 in range(0, d_out, g):
            y1 = min(y0 + g, d_out)
            a, b = (0, d_in) if g == d_out else (y0 * stride - padding, (y1 - 1) * stride + kernel - padding)
            shift = g * stride  # the next window starts at plane a + shift
            moved = max(0, b - a - shift) if y1 < d_out else 0
            cols = slice(y0 * out_plane, y1 * out_plane)
            shape = (b - a,) + x.shape[2:]  # the window's extents
            if shape not in bindings:
                width = max(1, _BLOCK_BYTES // (8 * max(math.prod(shape), (y1 - y0) * widest)))
                bindings[shape] = _bind(per_channel, tiles, shape, width)
            chains, chain_extents = bindings[shape]
            _fill(lines, flat_x, lead, tile, a + kept, b, a, d_in, plane)
            window = lines[:, :(b - a) * plane].reshape((len(lines),) + shape)
            _run_blocks(chains[i], chain_extents, window, lines, moved, shift, plane, x)
            res = lines[:, moved * plane:moved * plane + cols.stop - cols.start]
            kept, dst = moved, flat_out[:, cols]
            if tile.start:
                dst += np.matmul(tail.matrix[:, tile], res)
                continue
            np.matmul(tail.matrix[:, tile], res, out=dst)
            if per_slab:
                for skip in rest:  # reads x's columns in place, adds into the output's
                    np.add(np.matmul(skip.matrix, flat_x[:, cols]), dst, out=dst)
    return out, () if per_slab else rest


def _bind(per_channel, tiles, extents, width: int):
    """The per-channel stages bound once to window ``extents`` for all rank
    ``tiles`` (:meth:`Depthwise.at`; a banded stage's one workspace serves
    every block of every tile), as per-tile lists of (block, its stages)
    pairs for blocks of ``width`` channels; and the chain's result extents."""
    stages = []
    for stage in per_channel:  # all channels, so a batch norm folds once; tile 0 is the widest
        stages.append(stage.channels(slice(None)).at(extents, min(width, tiles[0].stop)))
        extents = stage.out_extents(extents)
    return [
        [(slice(c - t.start, c - t.start + width), [s.channels(slice(c, min(c + width, t.stop))) for s in stages])
         for c in range(t.start, t.stop, width)] for t in tiles
    ], extents


def _run_blocks(blocks, extents, window, lines, moved: int, shift: int, plane: int, x) -> None:
    """Run each block's stages on its channels of ``window``, move its planes
    ``[shift, shift + moved)`` to the front of its ``lines`` rows, and write
    its result, of spatial ``extents``, behind them.

    Every stage after the first reads an intermediate of the chain's own, so
    activations there run in place, and the last stage writes straight into
    ``lines`` once the planes have moved: the window is dead by then. Only a
    chain of one stage, whose input is the window, has its result copied in.
    """
    size = math.prod(extents)
    for blk, stages in blocks:
        u = window[blk]
        for i, stage in enumerate(stages[:-1]):
            u = stage.apply(u, x, u if i and isinstance(stage, Activate) else None)
        if len(stages) == 1:
            u = stages[0].apply(u, x)
        _carry(lines[blk], moved, shift, plane)
        res = lines[blk, moved * plane:moved * plane + size].reshape((len(u),) + extents)
        if len(stages) == 1:
            res[...] = u
        else:
            stages[-1].apply(u, x, res)


def _carry(rows: np.ndarray, moved: int, shift: int, plane: int) -> None:
    """Move planes ``[shift, shift + moved)`` of each of the C-contiguous
    ``rows`` to its front, one memmove per row through a byte view. numpy
    would copy the block through a temporary: the rows of source and target
    interleave in memory, whether or not their planes overlap."""
    if moved:
        view, size, src = memoryview(rows).cast("B"), moved * plane * 8, shift * plane * 8
        for row in range(0, rows.nbytes, rows.strides[0]):
            view[row:row + size] = view[row + src:row + src + size]


def _fill(lines, flat_x, lead, tile: slice, start, b, a, d_in, plane) -> None:
    """Write input planes ``[start, b)`` of a window that begins at plane
    ``a`` into ``lines``: planes outside ``[0, d_in)`` as zeros, the others
    contracted to channels ``tile`` by ``lead``, or copied without it."""
    r0 = min(max(start, 0), b)
    r1 = max(min(b, d_in), r0)
    lines[:, (start - a) * plane:(r0 - a) * plane] = 0.0
    if r0 < r1:
        src, dst = flat_x[:, r0 * plane:r1 * plane], lines[:, (r0 - a) * plane:(r1 - a) * plane]
        if lead is None:
            dst[...] = src[tile]
        else:
            np.matmul(lead.matrix[tile], src, out=dst)
    lines[:, (r1 - a) * plane:(b - a) * plane] = 0.0


def forward_naive(layer, x: np.ndarray, counter: Optional[OpCounter] = None) -> np.ndarray:
    """Loop-nest re-execution of :func:`forward`, independent of the vectorized stages.

    Optionally tallies one multiply-add per executed multiply-accumulate
    (activations are not counted), so the tally checks the cost model.
    """
    x = _check_input(x, layer.spec)
    z = x
    for stage in layer.stages:
        z = stage.naive(z, x, counter)
    return z


# benchmarks/tracing.py wraps every binding of these objects, so they stay ``forward`` itself.
cp_conv_forward = forward
ho_cp_conv_forward = forward
tucker_conv_forward = forward
mobilenet_v1_forward = forward
mobilenet_v2_forward = forward
