import io

import numpy as np
import pytest

from tensorconv import ConvSpec, OpCounter, conv_nd_naive
from tensorconv.costs import (
    CostReport,
    DEFAULT_SWEEP_PAIRS,
    StageCost,
    figure6_sweep,
    flops_hocp,
    flops_regular,
    params_hocp,
    params_regular,
    report,
    report_hocp,
    report_mobilenet_v1,
    report_mobilenet_v2,
    report_regular,
    report_tucker,
    write_sweep_csv,
)
from tensorconv.errors import DimensionError, RankError
from tensorconv.layers import HoCpConvLayer
from tensorconv.layers import forward_naive
from tensorconv.pipeline import FactorizedPlan, execute_plan, with_conv_params

from tensorconv import (
    CpConvLayer,
    ReLU,
    TuckerConvLayer,
    build_mobilenet_v2,
)

from helpers import random_kruskal, random_mobilenet_v1, rel_error


class TestParams:
    def test_regular_examples(self):
        assert params_regular(ConvSpec(3, 64, (3, 3, 3))) == 5184
        assert params_regular(ConvSpec(1, 1, (1,))) == 1

    def test_hocp_examples(self):
        assert params_hocp(ConvSpec(3, 64, (3, 3, 3)), 18) == 1368
        with pytest.raises(RankError, match="rank must be >= 1, got 0"):
            params_hocp(ConvSpec(3, 64, (3, 3, 3)), 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(RankError):
            params_hocp(ConvSpec(3, 64, (3, 3, 3)), -1)

    @pytest.mark.parametrize("rank", [1.7, True, 2.0])
    def test_non_integer_rank_rejected(self, rank):
        """A rank is read as an integer, not truncated: 1.7 and True were rank 1."""
        spec, extents = ConvSpec(3, 8, (3, 3)), (6, 6)
        for cost in (
            lambda: params_hocp(spec, rank),
            lambda: report_hocp(spec, rank, extents),
            lambda: report_tucker(spec, (rank, 2), extents),
            lambda: report_mobilenet_v2(spec, rank, extents),
        ):
            with pytest.raises(TypeError):
                cost()

    def test_architecture_totals(self):
        blocks = [ConvSpec(c, t, (3, 3, 3)) for c, t in ((3, 64), (64, 128), (128, 256), (256, 256))]
        regular = sum(params_regular(s) for s in blocks)
        hocp = sum(params_hocp(s, 6 * s.in_channels) for s in blocks)
        assert regular == 2_880_576
        assert hocp == 1_180_632
        assert regular - hocp == 1_699_944

    def test_break_even_boundary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c, t = rng.integers(1, 40, 2)
            kernels = tuple(rng.integers(1, 6, int(rng.integers(1, 4))))
            spec = ConvSpec(int(c), int(t), kernels)
            threshold = params_regular(spec) / (c + t + sum(kernels))
            for rank in {1, int(threshold), int(threshold) + 1, int(threshold * 2) + 1}:
                if rank < 1:
                    continue
                cheaper = params_hocp(spec, rank) < params_regular(spec)
                assert cheaper == (rank < threshold)


class TestFlops:
    def test_single_output_element_pointwise(self):
        assert flops_regular(ConvSpec(1, 1, (1,)), (1,)) == 2

    def test_regular_formula_vs_counter(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            c, t = rng.integers(1, 4, 2)
            n = int(rng.integers(1, 3))
            kernels = tuple(int(k) for k in rng.integers(1, 4, n))
            strides = tuple(int(s) for s in rng.integers(1, 3, n))
            pads = tuple(int(p) for p in rng.integers(0, 2, n))
            spec = ConvSpec(int(c), int(t), kernels, strides, pads)
            extents = tuple(k + int(rng.integers(0, 3)) for k in kernels)
            x = rng.standard_normal((c,) + extents)
            w = rng.standard_normal((t, c) + kernels)
            counter = OpCounter()
            conv_nd_naive(x, w, spec, counter)
            assert counter.flops == flops_regular(spec, extents)

    def test_hocp_formula_vs_counter(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            c, t = (int(v) for v in rng.integers(1, 4, 2))
            n = int(rng.integers(1, 3))
            kernels = tuple(int(k) for k in rng.integers(1, 4, n))
            rank = int(rng.integers(1, 5))
            spec = ConvSpec(c, t, kernels, 1, 1)
            layer = HoCpConvLayer(
                CpConvLayer(random_kruskal(rng, (t, c) + kernels, rank), spec)
            )
            extents = tuple(k + 1 for k in kernels)
            x = rng.standard_normal((c,) + extents)
            counter = OpCounter()
            forward_naive(layer, x, counter)
            assert counter.flops == flops_hocp(spec, rank, extents)

    @pytest.mark.parametrize("scheme,stride,padding", [
        ("cp", (2, 1), (1, 0)),
        ("hocp", 1, 1),  # the skip needs preserved extents
        ("tucker", (2, 1), (1, 0)),
        ("mobilenet-v1", (1, 2), (0, 1)),
        ("mobilenet-v2", (2, 1), (1, 0)),
    ])
    def test_plan_cost_equals_naive_tally(self, scheme, stride, padding):
        rng = np.random.default_rng(3)
        spec = ConvSpec(3, 2, (3, 3))
        k = random_kruskal(rng, (2, 3, 3, 3), 4)
        layer = {
            "cp": lambda: CpConvLayer(k, spec),
            "hocp": lambda: HoCpConvLayer(  # built on the geometry its skip keeps
                CpConvLayer(k, ConvSpec(3, 2, (3, 3), 1, 1)), (ReLU(), None), rng.standard_normal((2, 3))
            ),
            "tucker": lambda: TuckerConvLayer(
                rng.standard_normal((2, 3)), rng.standard_normal((3, 2, 3, 3)),
                rng.standard_normal((2, 3)), spec,
            ),
            "mobilenet-v1": lambda: random_mobilenet_v1(rng, 2, 3, (3, 3)),
            "mobilenet-v2": lambda: build_mobilenet_v2(k),
        }[scheme]()
        extents = (5, 6)
        plan = with_conv_params(
            FactorizedPlan(scheme, layer, report(layer.stages, extents), extents), stride, padding
        )
        x = rng.standard_normal((3,) + extents)
        counter = OpCounter()
        out = forward_naive(plan.layer, x, counter)
        assert counter.flops == plan.cost.flops
        assert rel_error(out, execute_plan(plan, x)) < 1e-12

    def test_hocp_linear_in_rank(self):
        spec = ConvSpec(16, 32, (3, 3, 3))
        extents = (32, 32, 16)
        base = flops_hocp(spec, 16 * 3, extents)
        assert flops_hocp(spec, 16 * 6, extents) == 2 * base


class TestCostReport:
    def test_totals_equal_stage_sums(self):
        report = CostReport.from_stages(
            [StageCost("a", 3, 10), StageCost("b", 4, 20)]
        )
        assert report.params == 7
        assert report.flops == 30
        assert "multiply-add" in report.convention

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError):
            CostReport.from_stages([StageCost("a", -1, 0)])

    def test_hocp_report_breakdown(self):
        spec = ConvSpec(3, 4, (3, 3))
        report = report_hocp(
            spec, 5, (8, 8), include_skip=True, activation_stages=(True, True)
        )
        labels = [s.label for s in report.stages]
        assert labels == [
            "contract_in", "conv_mode_0", "activation_0", "conv_mode_1",
            "activation_1", "contract_out", "skip",
        ]
        skip = report.stages[-1]
        assert skip.params == 12
        activations = [s for s in report.stages if s.label.startswith("activation")]
        assert all(s.params == 0 and s.flops == 0 for s in activations)
        no_extras = report_hocp(spec, 5, (8, 8))
        assert no_extras.params == params_hocp(spec, 5)
        assert no_extras.flops == flops_hocp(spec, 5, (8, 8))

    def test_tucker_report_params(self):
        spec = ConvSpec(8, 16, (3, 3))
        report = report_tucker(spec, (4, 5), (10, 10))
        assert report.params == 5 * 8 + 4 * 5 * 9 + 16 * 4

    def test_mobilenet_reports(self):
        spec = ConvSpec(8, 16, (3, 3))
        v1 = report_mobilenet_v1(spec, (10, 10))
        assert v1.params == 9 * 8 + 16 * 8
        v2 = report_mobilenet_v2(spec, 48, (10, 10))
        assert v2.params == 48 * 8 + 9 * 48 + 16 * 48

    def test_rank_zero_and_3d_geometry(self):
        # A rank-0 stage has an empty mode, which no layer holds, so reports
        # refuse rank 0 as the fits do; the MobileNet formulas apply to any
        # number of spatial modes.
        spec = ConvSpec(8, 16, (3, 3, 3))
        extents = (9, 9, 9)
        for cost in (
            lambda: report_hocp(spec, 0, extents, include_skip=True),
            lambda: report_tucker(spec, (0, 2), extents),
            lambda: report_mobilenet_v2(spec, 0, extents),
        ):
            with pytest.raises(RankError, match="rank must be >= 1, got 0"):
                cost()
        assert report_mobilenet_v1(spec, extents).params == 27 * 8 + 16 * 8
        assert report_mobilenet_v2(spec, 5, extents).params == 5 * 8 + 27 * 5 + 16 * 5

    @pytest.mark.parametrize("extents", [(5, 4), (5, 4, 6, 7)])
    def test_extents_of_another_order_rejected(self, extents):
        """A rank-3 report on a (4, 3, 3, 3, 3) kernel cost 936 FLOPs at (5, 4)
        and 18,072 at (5, 4, 6, 7): the extents were cut to the kernel's order
        or the kernel to theirs."""
        spec = ConvSpec(3, 4, (3, 3, 3))
        assert report_hocp(spec, 3, (5, 4, 6)).flops == 5112
        for cost in (
            lambda: report_hocp(spec, 3, extents),
            lambda: report_hocp(spec, 1, extents),
            lambda: report_tucker(spec, (2, 2), extents),
            lambda: report_tucker(spec, (1, 1), extents),
            lambda: report_mobilenet_v1(spec, extents),
            lambda: report_mobilenet_v2(spec, 3, extents),
        ):
            with pytest.raises(DimensionError, match="expected 3 spatial extents"):
                cost()

    def test_float_extents_rejected(self):
        """``int()`` read an extent of 5.7 as 5 and costed a 5-plane input."""
        spec = ConvSpec(3, 4, (3, 3, 3))
        with pytest.raises(TypeError):
            report_hocp(spec, 3, (5.7, 4, 6))
        with pytest.raises(TypeError):
            spec.output_extents((5.9, 4, 6))
        with pytest.raises(TypeError):
            report_regular(spec, (True, 4, 6))
        numpy_extents = (np.int64(5), np.int32(4), np.uint8(6))
        assert report_hocp(spec, 3, numpy_extents).flops == 5112
        assert spec.output_extents(numpy_extents) == (3, 2, 4)

    def test_regular_report(self):
        spec = ConvSpec(2, 3, (3,))
        report = report_regular(spec, (5,))
        assert report.params == params_regular(spec)
        assert report.flops == flops_regular(spec, (5,))


class TestSweep:
    def test_empty_pairs(self):
        rows = figure6_sweep(())
        assert rows == []
        buf = io.StringIO()
        write_sweep_csv(rows, (3, 6), buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("in_channels,out_channels,gflops_regular")

    def test_default_sweep_hocp_below_regular(self):
        rows = figure6_sweep()
        assert len(rows) == len(DEFAULT_SWEEP_PAIRS)
        for row in rows:
            for hocp in row.flops_hocp:
                assert hocp < row.flops_regular

    def test_monotone_in_channel_product(self):
        rows = figure6_sweep()
        products = [r.in_channels * r.out_channels for r in rows]
        order = np.argsort(products, kind="stable")
        regular = [rows[i].flops_regular for i in order]
        assert all(a <= b for a, b in zip(regular, regular[1:]))
        for col in range(2):
            hocp = [rows[i].flops_hocp[col] for i in order]
            assert all(a <= b for a, b in zip(hocp, hocp[1:]))

    def test_multiplier_three_below_six(self):
        for row in figure6_sweep(multipliers=(3, 6)):
            assert row.flops_hocp[0] < row.flops_hocp[1]

    def test_non_integer_arguments_rejected(self):
        """``int()`` read (2.5, 4.9), kernel 3.7 and multiplier 3.5 as the
        (2, 4), (3, 3, 3), x3 row."""
        with pytest.raises(TypeError):
            figure6_sweep(((2.5, 4.9),), (8, 8, 8), (3.7, 3, 3), (3.5,))
        for args in [(((2, 4.9),), (8, 8, 8), (3, 3, 3), (3,)), (((2, 4),), (8, 8, 8), (3.7, 3, 3), (3,)),
                     (((2, 4),), (8, 8, 8), (3, 3, 3), (3.5,)), (((2, 4),), (8, 8, 8), (3, 3, 3), (True,)),
                     (((2, 4),), (8.0, 8, 8), (3, 3, 3), (3,))]:
            with pytest.raises(TypeError):
                figure6_sweep(*args)
        ints = (np.int64(2), np.int32(4)), (np.int64(8),) * 3, (np.int16(3),) * 3, (np.uint8(3),)
        expected = figure6_sweep(((2, 4),), (8, 8, 8), (3, 3, 3), (3,))
        assert [(r.flops_regular, r.flops_hocp) for r in expected] == [(93312, (54624,))]
        assert figure6_sweep((ints[0],), *ints[1:]) == expected

    def test_csv_row_count(self):
        rows = figure6_sweep(((8, 8), (16, 16)))
        buf = io.StringIO()
        write_sweep_csv(rows, (3, 6), buf)
        assert len(buf.getvalue().strip().splitlines()) == 3
