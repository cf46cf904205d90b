"""Executable factorized convolution layers, each a short tuple of typed stages.

A layer's ``stages`` run in order on a (channels x spatial...) array:
:class:`Contract` (1x1 convolution), :class:`Depthwise` (per-channel N-D
convolution; a CP ``conv_mode_i`` stage has taps of extent K on mode i and 1
elsewhere, a MobileNet ``depthwise`` stage the merged spatial kernel),
:class:`DenseConv` (the Tucker core), :class:`Activate` and :class:`Skip`.
Each stage has a vectorized ``apply``, a loop-nest ``naive`` that can tally
multiply-adds into an :class:`~tensorconv.convref.OpCounter`, its
``out_extents`` and its weight count ``params``. :func:`forward`,
:func:`forward_naive` and the cost reports are folds over the stage list;
:func:`forward` streams the channel-local stages over slabs of output planes
along mode 0, the per-channel ones in cache-sized channel blocks.

Each layer class holds what is particular to its scheme: validation, its
stage list (``stages_for``, which the cost model also calls on shape-only
factors), its named factors for a plan manifest (``factors``, inverted by
``from_factors``) and ``dense_kernel()``, so every forward is checkable
against ``conv_nd_direct(x, layer.dense_kernel(), layer.spec)``. CP and HO-CP
share one stage builder, so with no activations and no skip the two are
bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .convref import ConvSpec, OpCounter, conv_1x1, conv_nd_direct, conv_nd_naive
from .decomp import (
    KruskalTensor,
    TuckerTensor,
    _merge_spatial,
    absorb_spatial,
    kruskal_to_dense,
    merge_spatial_factors,
)
from .dense import (
    as_matrix,
    as_tensor,
    band_matrices,
    banded_mode_conv,
    conv_output_extent,
    depthwise_conv,
    n_mode_product,
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
    "build_mobilenet_v1",
    "build_mobilenet_v2",
]


# ---------------------------------------------------------------------------
# Activations (forward-only, fixed parameters)
# ---------------------------------------------------------------------------

class Activation:
    """Base class; subclasses implement ``apply`` on (channels x spatial...) arrays.

    ``check(rank)`` rejects parameters that do not fit ``rank`` channels or are
    not finite; ``channels(sl)`` is the activation of channels ``sl`` alone.
    """

    def apply(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check(self, rank: int) -> None:
        pass

    def channels(self, sl: slice) -> "Activation":
        return self


@dataclass(frozen=True)
class ReLU(Activation):
    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)


@dataclass(frozen=True)
class PReLU(Activation):
    """max(z, 0) + slope * min(z, 0) with a fixed slope."""

    slope: float = 0.25

    def apply(self, z: np.ndarray) -> np.ndarray:
        if 0.0 < self.slope <= 1.0:
            # Then slope * z <= z exactly where z >= 0, so this is bitwise the
            # np.where below, for +-0, +-inf, NaN and subnormals too, without
            # the mask. Slope 0 (0 * inf), > 1 and < 0 break that.
            out = np.multiply(z, self.slope)
            return np.maximum(z, out, out=out)
        return np.where(z >= 0.0, z, self.slope * z)

    def check(self, rank: int) -> None:
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

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self._affine().apply(z)


@dataclass(frozen=True, eq=False)
class _Affine(Activation):
    """``z * a + b`` with ``a``, ``b`` scalars, length 1 or one per channel:
    a frozen batch norm with its parameters folded, built once and then
    restricted to channel blocks."""

    a: np.ndarray
    b: np.ndarray

    def apply(self, z: np.ndarray) -> np.ndarray:
        a, b = (p.reshape(p.shape + (1,) * (z.ndim - 1)) if p.ndim else p for p in (self.a, self.b))
        # Per-channel a and b broadcast along rows shorter than numpy's ufunc
        # buffer (8192 elements by default) go through buffered copies, 3-4x
        # slower per element; a slab's channel rows can be 1536 long. A
        # buffer no longer than a row avoids the copies and, the operation
        # being elementwise, changes no bit.
        old = np.setbufsize(max(16, min(np.getbufsize(), z[0].size // 16 * 16)))
        try:
            out = np.multiply(z, a)
            out += b
        finally:
            np.setbufsize(old)
        return out

    def channels(self, sl: slice) -> "_Affine":
        return _Affine(*(p[sl] if p.size > 1 else p for p in (self.a, self.b)))


def _normalize_activations(
    activations: Optional[Sequence[Optional[Activation]]], n_spatial: int
) -> Optional[tuple[Optional[Activation], ...]]:
    if activations is None:
        return None
    acts = tuple(activations)
    if len(acts) != n_spatial:
        raise DimensionError(
            f"expected one activation slot per spatial mode ({n_spatial}), got {len(acts)}"
        )
    return acts


# ---------------------------------------------------------------------------
# Stage types
# ---------------------------------------------------------------------------

class _Stage:
    """Defaults for a stage that keeps the spatial extents and has no weights."""

    params = 0

    def out_extents(self, extents) -> tuple[int, ...]:
        return tuple(extents)

    def at(self, extents) -> "_Stage":
        """The stage as it runs on inputs of spatial ``extents``."""
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
        out = np.zeros((self.matrix.shape[0],) + z.shape[1:])
        for idx in np.ndindex(*out.shape):
            acc = 0.0
            for c in range(self.matrix.shape[1]):
                acc += self.matrix[idx[0], c] * z[(c,) + idx[1:]]
                if counter is not None:
                    counter.madds += 1
            out[idx] = acc
        return out


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
    other stage (long modes, merged MobileNet taps) runs
    :func:`depthwise_conv`.
    """

    label: str
    taps: np.ndarray
    strides: tuple[int, ...]
    paddings: tuple[int, ...]

    @property
    def params(self) -> int:
        return self.taps.size

    def out_extents(self, extents) -> tuple[int, ...]:
        kernel_sizes = self.taps.shape[:-1]
        return tuple(map(conv_output_extent, extents, kernel_sizes, self.strides, self.paddings))

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

    def at(self, extents) -> "Depthwise | _Banded":
        """The stage with its band matrices built for inputs of ``extents``
        when :meth:`band_mode` names a mode, else itself."""
        mode = self.band_mode(extents)
        if mode is None:
            return self
        taps = self.taps.reshape(-1, self.taps.shape[-1])
        bands = band_matrices(taps, extents[mode], self.strides[mode], self.paddings[mode])
        return _Banded(self.label, bands, mode)

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        stage = self.at(z.shape[1:])
        if stage is not self:
            return stage.apply(z, x)
        return depthwise_conv(z, self.taps, self.strides, self.paddings)

    def channels(self, sl: slice) -> "Depthwise":
        """The stage restricted to channels ``sl``."""
        return replace(self, taps=self.taps[..., sl])

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        zp = np.pad(z, [(0, 0)] + [(p, p) for p in self.paddings])
        out = np.zeros(z.shape[:1] + self.out_extents(z.shape[1:]))
        for idx in np.ndindex(*out.shape):
            acc = 0.0
            for offs in np.ndindex(*self.taps.shape[:-1]):
                src = tuple(y * s + o for y, s, o in zip(idx[1:], self.strides, offs))
                acc += self.taps[offs + idx[:1]] * zp[idx[:1] + src]
                if counter is not None:
                    counter.madds += 1
            out[idx] = acc
        return out


@dataclass(frozen=True, eq=False)
class _Banded:
    """A 1-D :class:`Depthwise` stage bound to its input extents: per-channel
    band matrices (R x D_out x D) along ``mode``. Only :func:`forward`'s
    channel blocks run it."""

    label: str
    bands: np.ndarray
    mode: int

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        return banded_mode_conv(z, self.bands, self.mode)

    def channels(self, sl: slice) -> "_Banded":
        return replace(self, bands=self.bands[sl])


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
        kernel_sizes = self.core.shape[2:]
        return tuple(map(conv_output_extent, extents, kernel_sizes, self.strides, self.paddings))

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

    def apply(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.activation.apply(z)

    def naive(self, z: np.ndarray, x: np.ndarray, counter: Optional[OpCounter]) -> np.ndarray:
        return self.activation.apply(z)

    def channels(self, sl: slice) -> "Activate":
        """The stage restricted to channels ``sl``."""
        return replace(self, activation=self.activation.channels(sl))


def _merged_spatial(spatial, spec: ConvSpec) -> np.ndarray:
    """Validate a MobileNet merged spatial factor (K_0, ..., K_{N-1}, R)."""
    spatial = as_tensor(spatial)
    if spatial.ndim != spec.n_spatial + 1:
        raise DimensionError(
            f"merged spatial factor must have order {spec.n_spatial + 1} "
            f"(K_0, ..., K_{spec.n_spatial - 1}, R), got order {spatial.ndim}"
        )
    if spatial.shape[:-1] != spec.kernel_sizes:
        raise DimensionError(
            f"spatial factor extents {spatial.shape[:-1]} do not match "
            f"kernel sizes {spec.kernel_sizes}"
        )
    return spatial


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------

class _Layer:
    """Defaults for a layer whose factor fields are named by their manifest roles:
    its stage list is its class's ``stages_for`` applied to those factors in
    role order."""

    _ROLES: tuple[str, ...] = ()

    @property
    def stages(self) -> tuple:
        return self.stages_for(*(f for _, f in self.factors), self.spec)

    @property
    def factors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(role, factor) pairs in plan-manifest order."""
        return tuple((role, getattr(self, role)) for role in self._ROLES)

    @classmethod
    def from_factors(cls, get, spec: ConvSpec):
        """The layer whose factor of each role in ``factors`` is ``get(role)``."""
        return cls(*map(get, cls._ROLES), spec)

    def with_spec(self, spec: ConvSpec):
        """The same factors under another geometry (stride, padding)."""
        return replace(self, spec=spec)


@dataclass(frozen=True)
class CpConvLayer(_Layer):
    """Separable convolution defined by a Kruskal kernel.

    Factor order is (U_out, U_in, U_k0, ..., U_k{N-1}) matching the kernel
    modes (T, C, K_0, ..., K_{N-1}).
    """

    kruskal: KruskalTensor
    spec: ConvSpec

    def __post_init__(self):
        expected = (self.spec.out_channels, self.spec.in_channels) + self.spec.kernel_sizes
        if self.kruskal.shape != expected:
            raise DimensionError(
                f"Kruskal factor rows {self.kruskal.shape} do not match conv "
                f"spec extents {expected}"
            )

    @property
    def rank(self) -> int:
        return self.kruskal.rank

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
        u_out, u_in, *u_spatial = factors
        n = spec.n_spatial
        activations = _normalize_activations(activations, n)
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
        return self.stages_for(self.kruskal.factors, self.spec)

    @staticmethod
    def _roles(n: int) -> tuple[str, ...]:
        return ("output_channels", "input_channels") + tuple(f"spatial_mode_{i}" for i in range(n))

    @property
    def factors(self) -> tuple[tuple[str, np.ndarray], ...]:
        return tuple(zip(self._roles(self.spec.n_spatial), self.kruskal.factors))

    @classmethod
    def from_factors(cls, get, spec: ConvSpec) -> "CpConvLayer":
        return cls(KruskalTensor(tuple(map(get, cls._roles(spec.n_spatial)))), spec)

    def dense_kernel(self) -> np.ndarray:
        return kruskal_to_dense(self.kruskal)


@dataclass(frozen=True)
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

    def __post_init__(self):
        down = as_matrix(self.down)
        core = as_tensor(self.core)
        up = as_matrix(self.up)
        if core.ndim != 2 + self.spec.n_spatial:
            raise DimensionError(
                f"core order {core.ndim} does not match spec with "
                f"{self.spec.n_spatial} spatial modes"
            )
        if core.shape[2:] != self.spec.kernel_sizes:
            raise DimensionError(
                f"core spatial extents {core.shape[2:]} do not match kernel "
                f"sizes {self.spec.kernel_sizes}"
            )
        if down.shape != (core.shape[1], self.spec.in_channels):
            raise DimensionError(
                f"down factor shape {down.shape} inconsistent with core "
                f"rank {core.shape[1]} and {self.spec.in_channels} input channels"
            )
        if up.shape != (self.spec.out_channels, core.shape[0]):
            raise DimensionError(
                f"up factor shape {up.shape} inconsistent with core rank "
                f"{core.shape[0]} and {self.spec.out_channels} output channels"
            )
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "up", up)

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.core.shape[0], self.core.shape[1])

    @classmethod
    def from_tucker(cls, t: TuckerTensor, spec: ConvSpec) -> "TuckerConvLayer":
        """Build from a Tucker-decomposed kernel by absorbing the spatial factors."""
        if t.core.ndim != 2 + spec.n_spatial:
            raise DimensionError(
                f"Tucker kernel order {t.core.ndim} does not match spec with "
                f"{spec.n_spatial} spatial modes"
            )
        absorbed = absorb_spatial(t)
        return cls(absorbed.factors[1].T, absorbed.core, absorbed.factors[0], spec)

    @staticmethod
    def stages_for(down: np.ndarray, core: np.ndarray, up: np.ndarray, spec: ConvSpec) -> tuple:
        return (
            Contract("contract_in", down),
            DenseConv("core_conv", core, spec.strides, spec.paddings),
            Contract("contract_out", up),
        )

    def dense_kernel(self) -> np.ndarray:
        w = n_mode_product(self.core, self.up, 0)
        return n_mode_product(w, self.down.T, 1)


@dataclass(frozen=True)
class HoCpConvLayer(_Layer):
    """Higher-order CP convolution: the CP stages plus optional per-stage
    activations and an optional skip factor.

    ``activations`` holds one optional activation per spatial stage (applied
    after that stage's depthwise 1-D convolution). ``skip`` is a (T x C) matrix;
    when present the forward adds the channel-contracted input, which requires
    the convolution to preserve the spatial extents.
    """

    cp: CpConvLayer
    activations: Optional[tuple[Optional[Activation], ...]] = None
    skip: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "activations",
            _normalize_activations(self.activations, self.cp.spec.n_spatial),
        )
        for act in self.activations or ():
            if act is not None:
                act.check(self.rank)
        if self.skip is not None:
            skip = as_matrix(self.skip)
            expected = (self.cp.spec.out_channels, self.cp.spec.in_channels)
            if skip.shape != expected:
                raise DimensionError(
                    f"skip factor shape {skip.shape} must be (out_channels, "
                    f"in_channels) = {expected}"
                )
            object.__setattr__(self, "skip", skip)

    @property
    def spec(self) -> ConvSpec:
        return self.cp.spec

    @property
    def rank(self) -> int:
        return self.cp.rank

    @property
    def stages(self) -> tuple:
        return CpConvLayer.stages_for(self.cp.kruskal.factors, self.spec, self.activations, self.skip)

    @property
    def factors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """The Kruskal factors; a manifest stores ``activations`` and ``skip`` apart."""
        return self.cp.factors

    @classmethod
    def from_factors(cls, get, spec: ConvSpec, activations=None, skip=None) -> "HoCpConvLayer":
        return cls(CpConvLayer.from_factors(get, spec), activations, skip)

    def with_spec(self, spec: ConvSpec) -> "HoCpConvLayer":
        return replace(self, cp=self.cp.with_spec(spec))

    def dense_kernel(self) -> np.ndarray:
        return self.cp.dense_kernel()


@dataclass(frozen=True)
class MobileNetV1Block(_Layer):
    """Depthwise conv with one merged N-D spatial kernel per channel, then a
    pointwise conv. Channel count equals the depthwise multiplicity (R == C).
    """

    spatial: np.ndarray  # (K_0, ..., K_{N-1}, R)
    pointwise: np.ndarray  # (T, C)
    spec: ConvSpec

    _ROLES = ("spatial", "pointwise")

    def __post_init__(self):
        spatial = _merged_spatial(self.spatial, self.spec)
        pointwise = as_matrix(self.pointwise)
        if spatial.shape[-1] != self.spec.in_channels:
            raise RankError(
                f"depthwise block needs rank == input channels, got rank "
                f"{spatial.shape[-1]} with {self.spec.in_channels} channels"
            )
        if pointwise.shape != (self.spec.out_channels, self.spec.in_channels):
            raise DimensionError(
                f"pointwise shape {pointwise.shape} must be "
                f"({self.spec.out_channels}, {self.spec.in_channels})"
            )
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "pointwise", pointwise)

    @property
    def rank(self) -> int:
        return self.spatial.shape[-1]

    @staticmethod
    def stages_for(spatial: np.ndarray, pointwise: np.ndarray, spec: ConvSpec) -> tuple:
        return (
            Depthwise("depthwise", spatial, spec.strides, spec.paddings),
            Contract("pointwise", pointwise),
        )

    def dense_kernel(self) -> np.ndarray:
        return np.einsum("tc,...c->tc...", self.pointwise, self.spatial)


@dataclass(frozen=True)
class MobileNetV2Block(_Layer):
    """Inverted bottleneck: 1x1 down to the rank, depthwise conv with the
    merged spatial factor, 1x1 up to the output channels.
    """

    down: np.ndarray  # (R, C)
    spatial: np.ndarray  # (K_0, ..., K_{N-1}, R)
    up: np.ndarray  # (T, R)
    spec: ConvSpec

    _ROLES = ("down", "spatial", "up")

    def __post_init__(self):
        down = as_matrix(self.down)
        spatial = _merged_spatial(self.spatial, self.spec)
        up = as_matrix(self.up)
        r = spatial.shape[-1]
        if down.shape != (r, self.spec.in_channels):
            raise DimensionError(
                f"down factor shape {down.shape} must be ({r}, {self.spec.in_channels})"
            )
        if up.shape != (self.spec.out_channels, r):
            raise DimensionError(
                f"up factor shape {up.shape} must be ({self.spec.out_channels}, {r})"
            )
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "up", up)

    @property
    def rank(self) -> int:
        return self.spatial.shape[-1]

    @staticmethod
    def stages_for(
        down: np.ndarray, spatial: np.ndarray, up: np.ndarray, spec: ConvSpec
    ) -> tuple:
        return (
            Contract("contract_in", down),
            Depthwise("depthwise", spatial, spec.strides, spec.paddings),
            Contract("contract_out", up),
        )

    def dense_kernel(self) -> np.ndarray:
        return np.einsum("tr,rc,...r->tc...", self.up, self.down, self.spatial)


# ---------------------------------------------------------------------------
# MobileNet constructions
# ---------------------------------------------------------------------------

def build_mobilenet_v1(k: KruskalTensor, stride=1, padding=0) -> MobileNetV1Block:
    """Depthwise-separable block from a Kruskal conv kernel with R == C.

    The merged spatial factor pairs rank components with input channels, so
    the block reproduces the source CP convolution exactly when the
    input-channel factor is the identity (the "first 1x1 is dropped" reading);
    for a general channel factor the block implements its own Kruskal kernel
    (pointwise, identity, spatial columns), available via ``dense_kernel``.
    """
    pointwise, spatial = merge_spatial_factors(k)
    u_t, u_c = k.factors[0], k.factors[1]
    spec = ConvSpec(u_c.shape[0], u_t.shape[0], k.shape[2:], stride, padding)
    return MobileNetV1Block(spatial, pointwise, spec)


def build_mobilenet_v2(k: KruskalTensor, stride=1, padding=0) -> MobileNetV2Block:
    """Inverted-bottleneck block from a Kruskal conv kernel (any rank).

    Only the spatial factors are merged; both channel factors are kept, so the
    block is exactly equivalent to the source CP convolution.
    """
    spatial = _merge_spatial(k)
    u_t, u_c = k.factors[:2]
    spec = ConvSpec(u_c.shape[0], u_t.shape[0], k.shape[2:], stride, padding)
    return MobileNetV2Block(u_c.T, spatial, u_t, spec)


# ---------------------------------------------------------------------------
# Forward passes: folds over the stage list
# ---------------------------------------------------------------------------

def _check_activation(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    x = as_tensor(x)
    if x.ndim != 1 + spec.n_spatial:
        raise DimensionError(
            f"activation order {x.ndim} does not match {spec.n_spatial} spatial modes"
        )
    if x.shape[0] != spec.in_channels:
        raise DimensionError(
            f"channel mismatch: activation has {x.shape[0]} channels, "
            f"layer expects {spec.in_channels}"
        )
    return x


# Bytes of one slab's largest per-channel intermediate at full rank (rank x
# g planes x the largest plane volume of the per-channel chain, float64),
# which sets the slab height g. The line buffer holds K - s planes more than
# the slab. At 20 MiB the column's blocks 2-4 (32x32x16 inputs, rank 6C)
# take slabs of 13, 6 and 3 planes, and their cp and hocp forwards peak at
# 46-55, 68-76 and 82-87 MB (tracemalloc; 30 MiB put block 4's hocp forward
# at 104 MB for no clear gain). Rank 32 on a 320x240 image fits one slab, so
# small-rank 2-D layers run as the plain fold.
_TILE_BYTES = 20 * 2**20

# Bytes of one channel block of the per-channel stages inside a slab, on the
# same measure. A depthwise stage holds its block's input, product buffer and
# output at once, so 0.5 MiB blocks keep all three within a 2 MiB per-core L2.
_BLOCK_BYTES = 2**19


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
    streams over slabs of g output planes along spatial mode 0, g set by
    ``_TILE_BYTES`` from the rank and the largest plane volume the
    per-channel stages hold (padding can make it larger than the input's).
    For each slab, in increasing plane order:

    * the leading contraction writes the input planes the slab's window
      needs into a line buffer, one GEMM for the planes the previous slab
      did not hold; planes in the mode-0 zero padding are zeros. Without a
      leading contraction the planes are copied from ``x``;
    * the per-channel stages run on the window in channel blocks of
      ``_BLOCK_BYTES``, sized for the L2 cache, so a block's data stays in
      cache through the chain. The first stage, the only one that may move
      mode 0, runs with mode-0 padding 0 on the explicitly padded window:
      a CP ``conv_mode_0`` stage as a (g x window) band per channel, merged
      MobileNet taps as :func:`depthwise_conv`. Each other stage runs as it
      does on the whole input (:meth:`Depthwise.at`): a ``conv_mode_i``
      stage along a mode of at most ``_BAND_EXTENT`` as band matrices
      (:func:`banded_mode_conv`), longer ones as :func:`depthwise_conv`; a
      frozen batch norm as ``z * a + b``. While the block is in cache, the
      window planes the next slab shares move to the front of its buffer
      rows, and its result is written behind them;
    * one GEMM with the trailing contraction, its K the full rank, reads
      those results and writes the slab's output columns in place. A
      trailing skip (and any activation after it) then runs on those
      columns while they are in cache, when the head keeps the extents.

    So each input plane is contracted once, and the per-slab memory is the
    line buffer. Only when one full-rank plane exceeds ``_TILE_BYTES`` does
    a slab (then one plane) run in rank tiles, each contracting its whole
    window and adding its GEMM into the slab's columns; memory stays
    bounded whatever the rank.

    A per-channel stage computes each channel from that channel alone, so
    blocks change no bit. Slabs depend on the shapes alone, so results are
    bit-reproducible. When one slab covers every plane, the window is the
    whole input with the first stage's own padding (a view of ``x`` when
    there is no leading contraction), and the output is bitwise that of
    the plain fold over the stages. The remaining stages (Tucker's whole
    list, whose core conv mixes positions and channels) run once on the
    full output.
    """
    x = _check_activation(x, layer.spec)
    z, rest = x, layer.stages
    head = _channel_local(rest)
    if head is not None:
        lead, per_channel, tail, rest = head
        z, rest = _stream(x, lead, per_channel, tail, rest)
    for stage in rest:
        z = stage.apply(z, x)
    return z


def _stream(x, lead, per_channel, tail, rest):
    """The slab loop of :func:`forward`: the output of the channel-local head
    (and of ``rest`` when it runs per slab) and the stages still to run."""
    rank = tail.matrix.shape[1]
    extents = [x.shape[1:]]
    for stage in per_channel:
        extents.append(stage.out_extents(extents[-1]))
    out_extents, d_out = extents[-1], extents[-1][0]
    widest = max(math.prod(e[1:]) for e in extents)
    g = _TILE_BYTES // (8 * rank * widest)
    step = rank if g else max(1, _TILE_BYTES // (8 * widest))
    g = min(max(g, 1), d_out)
    kernel, stride, padding = _mode_0(per_channel[0])
    d_in, plane, out_plane = x.shape[1], math.prod(x.shape[2:]), math.prod(out_extents[1:])
    if g == d_out:  # one slab: the whole input, the first stage's own padding
        span, carry = d_in, False
    else:
        span, carry = (g - 1) * stride + kernel, step == rank
        if padding:
            per_channel = (replace(per_channel[0], paddings=(0,) + per_channel[0].paddings[1:]),) + per_channel[1:]
    view = g == d_out and lead is None
    # Each buffer row holds the window's planes, then the planes carried to
    # the next slab followed by the block's result.
    carried = max(0, span - g * stride) if carry else 0
    buf = np.empty((step, max(0 if view else span * plane, carried * plane + g * out_plane)))
    out = np.empty(tail.matrix.shape[:1] + out_extents)
    flat_x, flat_out = x.reshape(x.shape[0], -1), out.reshape(out.shape[0], -1)
    per_slab = all(isinstance(s, (Skip, Activate)) for s in rest) and out_extents == x.shape[1:]
    blocks, bound, kept = None, None, 0  # bound: (channels, window extents) of ``blocks``
    for y0 in range(0, d_out, g):
        y1 = min(y0 + g, d_out)
        a, b = (0, d_in) if g == d_out else (y0 * stride - padding, (y1 - 1) * stride + kernel - padding)
        shift = g * stride  # the next window starts at plane a + shift
        moved = max(0, b - a - shift) if carry and y1 < d_out else 0
        cols = slice(y0 * out_plane, y1 * out_plane)
        for lo in range(0, rank, step):
            hi = min(lo + step, rank)
            lines = buf[:hi - lo]
            if view:
                window = x[lo:hi]
            else:
                _fill(lines, flat_x, lead, lo, hi, a + kept, b, a, d_in, plane)
                window = lines[:, :(b - a) * plane].reshape((hi - lo, b - a) + x.shape[2:])
            if bound != (lo, hi, window.shape[1:]):
                blocks = None  # free the old band matrices before building new ones
                width = max(1, _BLOCK_BYTES // (8 * max(window[0].size, (y1 - y0) * widest)))
                blocks = _bind(per_channel, slice(lo, hi), window.shape[1:], width)
                bound = (lo, hi, window.shape[1:])
            _run_blocks(blocks, window, lines, moved, shift, plane, x)
            res = lines[:, moved * plane:moved * plane + cols.stop - cols.start]
            if lo:
                flat_out[:, cols] += np.matmul(tail.matrix[:, lo:hi], res)
            else:
                np.matmul(tail.matrix[:, lo:hi], res, out=flat_out[:, cols])
        kept = moved
        if per_slab and rest:
            z = out[:, y0:y1]
            for stage in rest:
                z = stage.apply(z, x[:, y0:y1])
            out[:, y0:y1] = z
    return out, () if per_slab else rest


def _bind(per_channel, sl: slice, extents, width: int) -> list:
    """The per-channel stages restricted to channels ``sl`` and bound to
    input ``extents`` (:meth:`Depthwise.at`), as (block, the stages on that
    block) pairs for blocks of ``width`` channels."""
    stages = []
    for stage in per_channel:
        stages.append(stage.channels(sl).at(extents))
        extents = stage.out_extents(extents)
    blocks = [slice(c, c + width) for c in range(0, sl.stop - sl.start, width)]
    return [(blk, [stage.channels(blk) for stage in stages]) for blk in blocks]


def _run_blocks(blocks, window, lines, moved: int, shift: int, plane: int, x) -> None:
    """Run each block's stages on its channels of ``window``, then move its
    planes ``[shift, shift + moved)`` to the front of its ``lines`` and write
    its result behind them."""
    for blk, stages in blocks:
        u = window[blk]
        for stage in stages:
            u = stage.apply(u, x)
        for j in range(moved):  # plane by plane: source and target may overlap
            lines[blk, j * plane:(j + 1) * plane] = lines[blk, (shift + j) * plane:(shift + j + 1) * plane]
        lines[blk, moved * plane:moved * plane + u[0].size] = u.reshape(len(u), -1)


def _fill(lines, flat_x, lead, lo, hi, start, b, a, d_in, plane) -> None:
    """Write input planes ``[start, b)`` of a window that begins at plane
    ``a`` into ``lines``: planes outside ``[0, d_in)`` as zeros, the others
    contracted to channels ``[lo, hi)`` by ``lead``, or copied without it."""
    r0 = min(max(start, 0), b)
    r1 = max(min(b, d_in), r0)
    lines[:, (start - a) * plane:(r0 - a) * plane] = 0.0
    if r0 < r1:
        src, dst = flat_x[:, r0 * plane:r1 * plane], lines[:, (r0 - a) * plane:(r1 - a) * plane]
        if lead is None:
            dst[...] = src[lo:hi]
        else:
            np.matmul(lead.matrix[lo:hi], src, out=dst)
    lines[:, (r1 - a) * plane:(b - a) * plane] = 0.0


def forward_naive(layer, x: np.ndarray, counter: Optional[OpCounter] = None) -> np.ndarray:
    """Loop-nest re-execution of :func:`forward`, independent of the vectorized stages.

    Optionally tallies one multiply-add per executed multiply-accumulate
    (activations are not counted), so the tally checks the cost model.
    """
    x = _check_activation(x, layer.spec)
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
