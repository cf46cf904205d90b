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
:func:`forward` runs the channel-local stages one rank tile at a time, and
the per-channel ones inside a tile in cache-sized channel blocks.

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
from .decomp import KruskalTensor, TuckerTensor, kruskal_to_dense, merge_spatial_factors
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
    "cp_conv_forward",
    "tucker_conv_forward",
    "ho_cp_conv_forward",
    "ho_cp_forward_naive",
    "build_mobilenet_v1",
    "build_mobilenet_v2",
    "mobilenet_v1_forward",
    "mobilenet_v2_forward",
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
        out = np.multiply(z, a)
        out += b
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
    """Validate a MobileNet merged spatial factor (K_h, K_w, R)."""
    spatial = as_tensor(spatial)
    if spatial.ndim != 3:
        raise DimensionError(
            f"merged spatial factor must be 3-D (K_h, K_w, R), got order {spatial.ndim}"
        )
    if spec.n_spatial != 2:
        raise DimensionError("MobileNet blocks are defined for 2 spatial modes")
    if spatial.shape[:2] != spec.kernel_sizes:
        raise DimensionError(
            f"spatial factor extents {spatial.shape[:2]} do not match "
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
        from .decomp import absorb_spatial

        if t.core.ndim != 2 + spec.n_spatial:
            raise DimensionError(
                f"Tucker kernel order {t.core.ndim} does not match spec with "
                f"{spec.n_spatial} spatial modes"
            )
        absorbed = absorb_spatial(t, tuple(range(2, t.core.ndim)))
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
    """Depthwise conv with one merged 2-D spatial kernel per channel, then a
    pointwise conv. Channel count equals the depthwise multiplicity (R == C).
    """

    spatial: np.ndarray  # (K_h, K_w, R)
    pointwise: np.ndarray  # (T, C)
    spec: ConvSpec

    _ROLES = ("spatial", "pointwise")

    def __post_init__(self):
        spatial = _merged_spatial(self.spatial, self.spec)
        pointwise = as_matrix(self.pointwise)
        if spatial.shape[2] != self.spec.in_channels:
            raise RankError(
                f"depthwise block needs rank == input channels, got rank "
                f"{spatial.shape[2]} with {self.spec.in_channels} channels"
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
        return self.spatial.shape[2]

    @staticmethod
    def stages_for(spatial: np.ndarray, pointwise: np.ndarray, spec: ConvSpec) -> tuple:
        return (
            Depthwise("depthwise", spatial, spec.strides, spec.paddings),
            Contract("pointwise", pointwise),
        )

    def dense_kernel(self) -> np.ndarray:
        return np.einsum("tc,jic->tcji", self.pointwise, self.spatial)


@dataclass(frozen=True)
class MobileNetV2Block(_Layer):
    """Inverted bottleneck: 1x1 down to the rank, depthwise conv with the
    merged spatial factor, 1x1 up to the output channels.
    """

    down: np.ndarray  # (R, C)
    spatial: np.ndarray  # (K_h, K_w, R)
    up: np.ndarray  # (T, R)
    spec: ConvSpec

    _ROLES = ("down", "spatial", "up")

    def __post_init__(self):
        down = as_matrix(self.down)
        spatial = _merged_spatial(self.spatial, self.spec)
        up = as_matrix(self.up)
        r = spatial.shape[2]
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
        return self.spatial.shape[2]

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
        return np.einsum("tr,rc,jir->tcji", self.up, self.down, self.spatial)


# ---------------------------------------------------------------------------
# MobileNet constructions
# ---------------------------------------------------------------------------

def build_mobilenet_v1(k: KruskalTensor, stride=1, padding=0) -> MobileNetV1Block:
    """Depthwise-separable block from a 4-mode Kruskal kernel with R == C.

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
    """Inverted-bottleneck block from a 4-mode Kruskal kernel (any rank).

    Only the spatial factors are merged; both channel factors are kept, so the
    block is exactly equivalent to the source CP convolution.
    """
    if k.order != 4:
        raise DimensionError(
            f"build_mobilenet_v2 expects a 4-mode Kruskal tensor, got order {k.order}"
        )
    u_t, u_c, u_h, u_w = k.factors
    spatial = u_h[:, None, :] * u_w[None, :, :]
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


# Bytes of one rank tile's largest per-channel intermediate (tile channels x
# the largest spatial volume of the per-channel chain, float64). On the 3-D
# column (32x32x16 inputs) 8-16 MiB tiles ran fastest and 20 MiB about 5-10%
# slower, mostly from re-faulting freed pages, not cache misses. 20 MiB is
# kept because rank 32 on a 320x240 image then fits one tile, so small-rank
# 2-D layers run as the plain fold. Shrinking the tiles toward cache size
# instead of blocking inside them made the column's contractions 4x (2 MiB
# tiles) to 12x (0.5 MiB) slower.
_TILE_BYTES = 20 * 2**20

# Bytes of one channel block of the per-channel stages inside a tile, on the
# same measure. A depthwise stage holds its block's input, product buffer and
# output at once, so 0.5 MiB blocks keep all three within a 2 MiB per-core L2.
_BLOCK_BYTES = 2**19


def _channel_local(stages):
    """Split ``stages`` into (leading :class:`Contract` or None, the
    :class:`Depthwise`/:class:`Activate` stages after it, trailing
    :class:`Contract`, the stages after that); None when the list does not
    start with such a channel-local run."""
    lead = stages[0] if type(stages[0]) is Contract else None
    lo = hi = int(lead is not None)
    while hi < len(stages) and isinstance(stages[hi], (Depthwise, Activate)):
        hi += 1
    if lo < hi < len(stages) and type(stages[hi]) is Contract:
        return lead, stages[lo:hi], stages[hi], stages[hi + 1:]
    return None


def forward(layer, x: np.ndarray) -> np.ndarray:
    """Run ``layer.stages`` in order on ``x`` (C x D_0 x ...).

    Equals ``conv_nd_direct(x, layer.dense_kernel(), layer.spec)``.

    The channel-local head of the list (optional leading contraction,
    per-channel depthwise and activation stages, trailing contraction) runs
    on two levels of blocking, both sized by the largest spatial volume the
    per-channel stages hold (padding can make it larger than the input's):

    * rank tiles of ``_TILE_BYTES``, sized for the GEMMs: tile ``sl``
      contracts ``x`` to the channels ``sl`` (or takes ``x[sl]`` when there
      is no leading contraction) and, at the end, adds its contraction to
      the output; memory stays bounded whatever the rank;
    * inside a tile, channel blocks of ``_BLOCK_BYTES``, sized for the L2
      cache: each block runs all the per-channel stages while its data stays
      in cache, and writes its result into one tile-shaped array that the
      trailing contraction reads.

    Each tile restricts the per-channel stages to its channels once, for
    the input extents each stage sees (:meth:`Depthwise.at`): a CP or HO-CP
    ``conv_mode_i`` stage along a mode of at most ``_BAND_EXTENT`` gets its
    band matrices and runs on each block as one batched matrix product
    (:func:`banded_mode_conv`); a frozen batch norm becomes ``z * a + b``.
    Any other depthwise stage (a longer mode, merged MobileNet taps) runs
    :func:`depthwise_conv`, as flat shifts of the block when it has stride
    1 and keeps the extents.

    Tiles run in increasing channel order, so results are bit-reproducible.
    A per-channel stage computes each channel from that channel alone, so
    blocks change no bit, and when the rank fits one tile the output is
    bitwise that of the plain fold over the stages. The remaining stages (a
    skip, or Tucker's whole list, whose core conv mixes channels) then run
    once on the full output.
    """
    x = _check_activation(x, layer.spec)
    z, rest = x, layer.stages
    head = _channel_local(rest)
    if head is not None:
        lead, per_channel, tail, rest = head
        rank = tail.matrix.shape[1]
        extents = [x.shape[1:]]
        for stage in per_channel:
            extents.append(stage.out_extents(extents[-1]))
        volume = max(map(math.prod, extents))
        step = max(1, _TILE_BYTES // (8 * volume))
        width = max(1, _BLOCK_BYTES // (8 * volume))
        for lo in range(0, rank, step):
            hi = min(lo + step, rank)
            t = x[lo:hi] if lead is None else conv_1x1(x, lead.matrix[lo:hi])
            stages = [stage.channels(slice(lo, hi)).at(e) for stage, e in zip(per_channel, extents)]
            tile = np.empty((hi - lo,) + extents[-1])
            for b in range(0, hi - lo, width):
                blk = slice(b, b + width)
                u = t[blk]
                for stage in stages:
                    u = stage.channels(blk).apply(u, x)
                tile[blk] = u
            del t  # the tile's input is not held through the trailing contraction
            if lo == 0:
                z = conv_1x1(tile, tail.matrix[:, lo:hi])
            else:
                z += conv_1x1(tile, tail.matrix[:, lo:hi])
    for stage in rest:
        z = stage.apply(z, x)
    return z


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


# Per-scheme names of the one fold, kept for callers that name the scheme.
cp_conv_forward = forward
ho_cp_conv_forward = forward
tucker_conv_forward = forward
mobilenet_v1_forward = forward
mobilenet_v2_forward = forward
ho_cp_forward_naive = forward_naive
