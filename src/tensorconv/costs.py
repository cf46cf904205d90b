"""Analytic parameter and FLOP accounting for regular vs factorized convolutions.

Convention, stated on every report: one multiply-add counts as 2 FLOPs. Bias
terms do not exist in this package; activation and batch-norm stages carry
zero parameters and are excluded from FLOP totals (they appear as
zero-cost stage lines so breakdowns stay aligned with execution plans).

A factorized layer's report is a fold over its stage list
(``layer.stages``, see :mod:`tensorconv.layers`): one :func:`stage_cost`
line per stage, evaluated at the extents that stage produces. The
per-scheme ``report_*`` functions are wrappers that cost the stage list a
layer of the given geometry and ranks would have, built from shape-only
factors.

All counts are exact integers; they are validated against the multiply-adds
tallied by the layers' naive stage loops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .convref import ConvSpec, _integer
from .errors import RankError
from .layers import CpConvLayer, MobileNetV1Block, MobileNetV2Block, ReLU, TuckerConvLayer

__all__ = [
    "FLOP_CONVENTION",
    "StageCost",
    "CostReport",
    "params_regular",
    "params_hocp",
    "flops_regular",
    "flops_hocp",
    "stage_cost",
    "report",
    "report_regular",
    "report_hocp",
    "report_tucker",
    "report_mobilenet_v1",
    "report_mobilenet_v2",
    "SweepRow",
    "figure6_sweep",
    "write_sweep_csv",
    "DEFAULT_SWEEP_PAIRS",
    "example_3d_architecture",
]

FLOP_CONVENTION = "multiply-add counted as 2 FLOPs"


@dataclass(frozen=True)
class StageCost:
    label: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    """Totals plus a per-stage breakdown; totals always equal the stage sums."""

    params: int
    flops: int
    stages: tuple[StageCost, ...]
    convention: str = FLOP_CONVENTION

    def __post_init__(self):
        if any(s.params < 0 or s.flops < 0 for s in self.stages):
            raise ValueError("stage costs must be non-negative")

    @classmethod
    def from_stages(cls, stages: Iterable[StageCost]) -> "CostReport":
        stages = tuple(stages)
        return cls(
            params=sum(s.params for s in stages),
            flops=sum(s.flops for s in stages),
            stages=stages,
        )

    def lines(self) -> list[str]:
        out = [f"# {self.convention}", f"params={self.params}", f"flops={self.flops}"]
        for s in self.stages:
            out.append(f"stage.{s.label}.params={s.params}")
            out.append(f"stage.{s.label}.flops={s.flops}")
        return out


def _check_rank(rank: int, name: str = "rank") -> int:
    """``rank`` as an int >= 1, as every fit takes it: a rank-0 stage would
    have an empty mode, which no layer holds."""
    rank = _integer(rank, name)
    if rank < 1:
        raise RankError(f"{name} must be >= 1, got {rank}")
    return rank


def params_regular(spec: ConvSpec) -> int:
    """C * T * prod(K), no bias."""
    return spec.in_channels * spec.out_channels * prod(spec.kernel_sizes)


def params_hocp(spec: ConvSpec, rank: int) -> int:
    """R * (C + T + sum(K))."""
    rank = _check_rank(rank)
    return rank * (spec.in_channels + spec.out_channels + sum(spec.kernel_sizes))


def stage_cost(label: str, params: int, out_extents: Sequence[int]) -> StageCost:
    """Cost of one stage with ``params`` weights and output extents ``out_extents``.

    The one formula for every stage type: a contraction, a depthwise or dense
    convolution and a skip each use every weight in exactly one multiply-add
    per output position, so FLOPs = 2 * params * prod(out_extents).
    Activations have no weights and cost nothing.
    """
    return StageCost(label, params, 2 * params * prod(out_extents))


def report(stages: Iterable, input_extents: Sequence[int]) -> CostReport:
    """Fold :func:`stage_cost` over a layer's stage list, starting at ``input_extents``.

    A stage's parameters are the entries of its operand (``stage.params``).
    """
    extents = tuple(_integer(d, "input_extents") for d in input_extents)
    lines = []
    for stage in stages:
        extents = stage.out_extents(extents)
        lines.append(stage_cost(stage.label, stage.params, extents))
    return CostReport.from_stages(lines)


def report_regular(spec: ConvSpec, input_extents: Sequence[int]) -> CostReport:
    return CostReport.from_stages(
        [stage_cost("dense_conv", params_regular(spec), spec.output_extents(input_extents))]
    )


def flops_regular(spec: ConvSpec, input_extents: Sequence[int]) -> int:
    """2 * C * prod(K) multiply-adds per output element, times T and the output volume."""
    return report_regular(spec, input_extents).flops


# The per-scheme reports below cost the stage list a layer of the given
# geometry and ranks would have. Costs depend on factor shapes only, so the
# factors are broadcast zeros, which allocate nothing.

def _zeros(*shape) -> np.ndarray:
    return np.broadcast_to(0.0, shape)


def report_hocp(
    spec: ConvSpec,
    rank: int,
    input_extents: Sequence[int],
    include_skip: bool = False,
    activation_stages: Sequence[bool] | None = None,
) -> CostReport:
    """Staged breakdown of the higher-order CP convolution.

    ``activation_stages`` flags which spatial stages carry an activation;
    those appear as zero-parameter, zero-FLOP lines right after their
    convolution stage. The skip factor (C*T parameters) is reported on its
    own line when present, since architecture-level totals may or may not
    include it.
    """
    rank = _check_rank(rank)
    t, c = spec.out_channels, spec.in_channels
    factors = [_zeros(e, rank) for e in (t, c) + spec.kernel_sizes]
    acts = None
    if activation_stages is not None:
        acts = [ReLU() if flag else None for flag in activation_stages]
    skip = _zeros(t, c) if include_skip else None
    return report(CpConvLayer.stages_for(factors, spec, acts, skip), input_extents)


def flops_hocp(spec: ConvSpec, rank: int, input_extents: Sequence[int]) -> int:
    """Per-stage sum: channel contraction + N depthwise 1-D convolutions + output contraction."""
    return report_hocp(spec, rank, input_extents).flops


def report_tucker(spec: ConvSpec, ranks: tuple[int, int], input_extents: Sequence[int]) -> CostReport:
    """Bottleneck accounting: 1x1 down, dense core conv, 1x1 up."""
    r_out, r_in = (_check_rank(r) for r in ranks)
    c, t = spec.in_channels, spec.out_channels
    stages = TuckerConvLayer.stages_for(
        _zeros(r_in, c), _zeros(r_out, r_in, *spec.kernel_sizes), _zeros(t, r_out), spec
    )
    return report(stages, input_extents)


def report_mobilenet_v1(spec: ConvSpec, input_extents: Sequence[int]) -> CostReport:
    """Depthwise (merged spatial kernel) + pointwise accounting; R == C."""
    c, t = spec.in_channels, spec.out_channels
    stages = MobileNetV1Block.stages_for(_zeros(*spec.kernel_sizes, c), _zeros(t, c), spec)
    return report(stages, input_extents)


def report_mobilenet_v2(spec: ConvSpec, rank: int, input_extents: Sequence[int]) -> CostReport:
    """Inverted bottleneck accounting: 1x1 down, depthwise, 1x1 up."""
    rank = _check_rank(rank)
    c, t = spec.in_channels, spec.out_channels
    stages = MobileNetV2Block.stages_for(
        _zeros(rank, c), _zeros(*spec.kernel_sizes, rank), _zeros(t, rank), spec
    )
    return report(stages, input_extents)


# ---------------------------------------------------------------------------
# Channel sweep (regular vs HO-CP GFLOPs)
# ---------------------------------------------------------------------------

# Channel pairs swept by default: small-to-large feature widths typical of
# 3-D conv columns. Very small channel counts (C < 4) are excluded: there the
# per-rank spatial stages dominate and the factorized form stops paying off.
DEFAULT_SWEEP_PAIRS: tuple[tuple[int, int], ...] = (
    (4, 8),
    (8, 16),
    (16, 32),
    (32, 64),
    (64, 64),
    (64, 128),
    (128, 128),
    (128, 256),
    (256, 256),
    (256, 512),
    (512, 512),
)


@dataclass(frozen=True)
class SweepRow:
    in_channels: int
    out_channels: int
    flops_regular: int
    flops_hocp: tuple[int, ...]  # aligned with the sweep's rank multipliers


def figure6_sweep(
    channel_pairs: Sequence[tuple[int, int]] = DEFAULT_SWEEP_PAIRS,
    input_extents: Sequence[int] = (32, 32, 16),
    kernel_sizes: Sequence[int] = (3, 3, 3),
    multipliers: Sequence[int] = (3, 6),
) -> list[SweepRow]:
    """FLOP comparison rows for regular vs HO-CP convolution.

    For each (C, T) pair the HO-CP rank is ``multiplier * C``, one column per
    multiplier. Channel counts, kernel sizes, multipliers and extents are
    integers: a float or a bool raises ``TypeError``, and a multiplier below
    1 :class:`RankError`, before any row is costed.
    """
    multipliers = [_check_rank(m, "multipliers") for m in multipliers]
    rows = []
    for c, t in channel_pairs:
        spec = ConvSpec(c, t, tuple(kernel_sizes))
        rows.append(
            SweepRow(
                spec.in_channels,
                spec.out_channels,
                flops_regular(spec, input_extents),
                tuple(
                    flops_hocp(spec, m * spec.in_channels, input_extents)
                    for m in multipliers
                ),
            )
        )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], multipliers: Sequence[int], fp) -> None:
    """Emit sweep rows as CSV (values in GFLOPs), header row first."""
    writer = csv.writer(fp)
    writer.writerow(
        ["in_channels", "out_channels", "gflops_regular"]
        + [f"gflops_hocp_x{m}" for m in multipliers]
    )
    for row in rows:
        writer.writerow(
            [row.in_channels, row.out_channels, row.flops_regular / 1e9]
            + [f / 1e9 for f in row.flops_hocp]
        )


def example_3d_architecture() -> list[ConvSpec]:
    """Four-block 3-D convolutional column with cubic size-3 kernels.

    Channel progression 3 -> 64 -> 128 -> 256 -> 256; the standard rank choice
    for the factorized variant is 6x the input channels of each block.
    """
    pairs = [(3, 64), (64, 128), (128, 256), (256, 256)]
    return [ConvSpec(c, t, (3, 3, 3)) for c, t in pairs]
