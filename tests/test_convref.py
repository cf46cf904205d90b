import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorconv import convref
from tensorconv import (
    ConvSpec,
    DimensionError,
    OpCounter,
    conv_1x1,
    conv_nd_direct,
    conv_nd_naive,
    n_mode_product,
)
from tensorconv.costs import flops_regular
from tensorconv.dense import depthwise_conv

from helpers import rel_error


class TestConvSpec:
    def test_scalar_stride_padding_broadcast(self):
        spec = ConvSpec(2, 3, (3, 5), strides=2, paddings=1)
        assert spec.strides == (2, 2)
        assert spec.paddings == (1, 1)

    def test_per_mode_values(self):
        spec = ConvSpec(2, 3, (3, 5), strides=(1, 2), paddings=(0, 2))
        assert spec.output_extents((8, 9)) == (6, 5)

    def test_invalid_extents(self):
        with pytest.raises(DimensionError):
            ConvSpec(0, 1, (3,))
        with pytest.raises(DimensionError):
            ConvSpec(1, 1, ())
        with pytest.raises(DimensionError):
            ConvSpec(1, 1, (3,), strides=0)
        with pytest.raises(DimensionError):
            ConvSpec(1, 1, (3,), paddings=-1)

    def test_from_kernel(self):
        spec = ConvSpec.from_kernel(np.zeros((4, 2, 3, 3)))
        assert (spec.out_channels, spec.in_channels) == (4, 2)
        assert spec.kernel_sizes == (3, 3)
        with pytest.raises(DimensionError):
            ConvSpec.from_kernel(np.zeros((4, 2)))


class TestConvNdDirect:
    def test_unit_pointwise_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 5))
        w = np.ones((1, 1, 1, 1))
        assert np.array_equal(conv_nd_direct(x, w), x)

    def test_hand_sum_2x2(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # C=1
        w = np.ones((1, 1, 2, 2))
        out = conv_nd_direct(x, w)
        assert np.array_equal(out, np.array([[[10.0]]]))

    def test_zero_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4))
        out = conv_nd_direct(x, np.zeros((3, 2, 2, 2)))
        assert np.all(out == 0.0)
        assert out.shape == (3, 3, 3)

    def test_channel_mismatch_names_extents(self):
        with pytest.raises(DimensionError, match="3 channels.*expects 2"):
            conv_nd_direct(np.zeros((3, 4, 4)), np.zeros((1, 2, 2, 2)))

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError, match="longer than padded extent"):
            conv_nd_direct(np.zeros((1, 2)), np.zeros((1, 1, 5)))

    def test_matches_naive_randomized(self):
        rng = np.random.default_rng(2)
        configs = [
            dict(c=1, t=1, d=(6,), k=(3,), s=1, p=0),
            dict(c=2, t=3, d=(5, 6), k=(2, 3), s=(2, 1), p=(1, 0)),
            dict(c=3, t=2, d=(4, 4, 5), k=(3, 1, 2), s=1, p=1),
            dict(c=2, t=2, d=(3, 3, 3, 3), k=(2, 2, 2, 2), s=1, p=0),
        ]
        for cfg in configs:
            spec = ConvSpec(cfg["c"], cfg["t"], cfg["k"], cfg["s"], cfg["p"])
            x = rng.standard_normal((cfg["c"],) + cfg["d"])
            w = rng.standard_normal((cfg["t"], cfg["c"]) + cfg["k"])
            np.testing.assert_allclose(
                conv_nd_direct(x, w, spec), conv_nd_naive(x, w, spec), rtol=1e-12
            )

    def test_linear_in_activation_and_kernel(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(2, 2, (2, 2))
        x, y = rng.standard_normal((2, 2, 4, 4))
        w, v = rng.standard_normal((2, 2, 2, 2, 2))
        lhs = conv_nd_direct(0.5 * x - 2.0 * y, w, spec)
        rhs = 0.5 * conv_nd_direct(x, w, spec) - 2.0 * conv_nd_direct(y, w, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        lhs = conv_nd_direct(x, 0.5 * w - 2.0 * v, spec)
        rhs = 0.5 * conv_nd_direct(x, w, spec) - 2.0 * conv_nd_direct(x, v, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_single_mode_single_channel_reduces_to_mode_conv(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(9)
        v = rng.standard_normal(3)
        direct = conv_nd_direct(x[None, :], v[None, None, :])
        np.testing.assert_allclose(direct[0], depthwise_conv(x[None], v[:, None], (1,), (0,))[0], rtol=1e-14)

    def test_counter_matches_formula(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 3, (2, 3), strides=(1, 2), paddings=(1, 0))
        x = rng.standard_normal((2, 4, 7))
        w = rng.standard_normal((3, 2, 2, 3))
        counter = OpCounter()
        conv_nd_naive(x, w, spec, counter)
        assert counter.flops == flops_regular(spec, (4, 7))


@st.composite
def conv_cases(draw):
    """Small N-D convolutions, 1-3 modes, with extents down to the smallest valid one."""
    n = draw(st.integers(1, 3))
    c, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kernel = tuple(draw(st.integers(1, 4)) for _ in range(n))
    strides = tuple(draw(st.integers(1, 3)) for _ in range(n))
    paddings = tuple(draw(st.integers(0, 2)) for _ in range(n))
    extra = {1: 12, 2: 6, 3: 3}[n]
    extents = tuple(
        draw(st.integers(max(1, k - 2 * p), max(1, k - 2 * p) + extra))
        for k, p in zip(kernel, paddings)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((c,) + extents)
    w = rng.standard_normal((t, c) + kernel)
    return x, w, ConvSpec(c, t, kernel, strides, paddings)


def slab_positions(x, spec) -> int:
    """The output positions of ``conv_nd_direct``'s largest slab on ``x``."""
    out_spatial = spec.output_extents(x.shape[1:])
    rows = spec.in_channels * math.prod(spec.kernel_sizes)
    budget = (spec.in_channels + spec.out_channels) * math.prod(out_spatial) // rows
    return next(convref._slabs(out_spatial, max(1, min(convref._SLAB_POSITIONS, budget))))[2]


def column_budget(x, spec, channels: int) -> int:
    """A ``_COLUMN_BYTES`` that holds the columns of ``channels`` input
    channels and one group's partial output, at the current slab budget."""
    positions = slab_positions(x, spec)
    return 8 * positions * (channels * math.prod(spec.kernel_sizes) + spec.out_channels)


class TestSlabs:
    """``conv_nd_direct`` runs one GEMM per slab of output positions and
    group of input channels."""

    # Slab budgets of 1 and 7 split modes mid-row, leave remainder slabs and
    # loop over leading indices; 512 is the default. Column budgets of one
    # and three channels split the input channels into groups, each adding
    # its GEMM into the slab's columns; the default holds every channel here.
    @pytest.mark.parametrize(
        "slab, group",
        [(1, None), (7, None), (512, None), (7, 1), (512, 3)],
        ids=["1", "7", "512", "7-groups-of-1", "512-groups-of-3"],
    )
    @settings(max_examples=150, deadline=None)
    @given(case=conv_cases())
    def test_matches_naive(self, slab, group, case):
        x, w, spec = case
        x_before = x.copy()
        with mock.patch.object(convref, "_SLAB_POSITIONS", slab):
            budget = convref._COLUMN_BYTES if group is None else column_budget(x, spec, group)
            with mock.patch.object(convref, "_COLUMN_BYTES", budget):
                out = conv_nd_direct(x, w, spec)
                again = conv_nd_direct(x, w, spec)
        # The dot-product rounding bound: relative to the sum of |terms|, so an
        # output whose terms nearly cancel is not held to its own tiny size.
        scale = conv_nd_naive(np.abs(x), np.abs(w), spec)
        assert np.all(np.abs(out - conv_nd_naive(x, w, spec)) <= 1e-12 * scale)
        assert np.array_equal(out, again)
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize(
        "shape, kernel, stride, padding",
        [
            # Column-like: 64 -> 64 at 8x8x4, whose 1728-row columns would
            # take 3.5 MB for 256 positions against 0.26 MB for (C + T) V_out.
            ((64, 8, 8, 4), (64, 64, 3, 3, 3), 1, 1),
            # A thin leading mode: 200-row columns for 512 positions would
            # take 0.8 MB against 0.33 MB for (C + T) V_out.
            ((8, 1, 256, 256), (2, 8, 1, 5, 5), (1, 4, 4), (0, 2, 2)),
        ],
    )
    def test_peak_memory_capped(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(kernel)
        spec = ConvSpec.from_kernel(w, stride, padding)
        out_volume = math.prod(spec.output_extents(shape[1:]))
        padded = shape[0] * math.prod(
            d + 2 * p for d, p in zip(shape[1:], spec.paddings)
        )
        # Padded input, output, and the column buffer's cap of (C + T) V_out.
        cap = (spec.in_channels + spec.out_channels) * out_volume
        bound = 8 * (padded + spec.out_channels * out_volume + cap)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv_nd_direct(x, w, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.size == spec.out_channels * out_volume
        # 16 KiB for Python objects: views, index tuples, the slab generator.
        assert peak <= bound + 2**14

    @pytest.mark.parametrize("slab", [1, 7, 512])
    @settings(max_examples=150, deadline=None)
    @given(case=conv_cases())
    def test_padding_is_zeros_in_the_columns(self, slab, case):
        x, w, spec = case
        padded = np.pad(x, [(0, 0)] + [(p, p) for p in spec.paddings])
        unpadded = ConvSpec(spec.in_channels, spec.out_channels, spec.kernel_sizes, spec.strides, 0)
        with mock.patch.object(convref, "_SLAB_POSITIONS", slab):
            out = conv_nd_direct(x, w, spec)
            expected = conv_nd_direct(padded, w, unpadded)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "shape, kernel, stride, padding",
        [
            # 64 -> 8 at 16x16x8: the padded input (1.66 MB) outweighs the
            # column buffer's cap (1.18 MB) and the output (0.13 MB).
            ((64, 16, 16, 8), (8, 64, 3, 3, 3), 1, 1),
            # 2-D 16 -> 4 at 128x96, stride 2: a padded input of 1.69 MB
            # against a cap of 0.49 MB.
            ((16, 128, 96), (4, 16, 5, 5), 2, 2),
            # Padding on the trailing modes only, and none at all.
            ((64, 16, 16, 8), (8, 64, 3, 3, 3), 1, (0, 1, 1)),
            ((64, 16, 16, 8), (8, 64, 3, 3, 3), 1, 0),
        ],
    )
    def test_peak_memory_has_no_padded_input_term(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(kernel)
        spec = ConvSpec.from_kernel(w, stride, padding)
        out_spatial = spec.output_extents(shape[1:])
        out_volume = math.prod(out_spatial)
        cap = (spec.in_channels + spec.out_channels) * out_volume
        # A slab holds at most _SLAB_POSITIONS positions, so at most g output
        # planes along mode 0, whose windows read (g - 1) s_0 + K_0 padded
        # input planes; with no padding the windows are read from x itself.
        window = 0
        if any(spec.paddings):
            g = max(1, min(out_spatial[0], convref._SLAB_POSITIONS // math.prod(out_spatial[1:])))
            window = shape[0] * ((g - 1) * spec.strides[0] + spec.kernel_sizes[0]) * math.prod(
                d + 2 * p for d, p in zip(shape[2:], spec.paddings[1:])
            )
        bound = 8 * (spec.out_channels * out_volume + cap + window)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv_nd_direct(x, w, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.size == spec.out_channels * out_volume
        # 16 KiB for Python objects: views, index tuples, the slab generator.
        assert peak <= bound + 2**14

    @pytest.mark.parametrize(
        "shape, kernel, stride, padding",
        [
            # Columns of 1728 rows for 80 positions (1.1 MB): 13-channel
            # groups with their partial outputs fit 256 KiB.
            ((64, 16, 16, 8), (8, 64, 3, 3, 3), 1, 1),
            ((64, 16, 16, 8), (8, 64, 3, 3, 3), 1, 0),
            # 2-D, stride 2: 800 rows for 144 positions (0.9 MB).
            ((32, 128, 96), (16, 32, 5, 5), 2, 2),
        ],
    )
    def test_peak_memory_within_the_column_budget(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(33)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(kernel)
        spec = ConvSpec.from_kernel(w, stride, padding)
        budget = 2**18
        positions = slab_positions(x, spec)
        with mock.patch.object(convref, "_COLUMN_BYTES", budget):
            assert convref._group_width(spec, positions) < spec.in_channels
        out_spatial = spec.output_extents(shape[1:])
        window = 0  # the staging buffer, as in the test above
        if any(spec.paddings):
            g = max(1, min(out_spatial[0], positions // math.prod(out_spatial[1:])))
            window = shape[0] * ((g - 1) * spec.strides[0] + spec.kernel_sizes[0]) * math.prod(
                d + 2 * p for d, p in zip(shape[2:], spec.paddings[1:])
            )
        with mock.patch.object(convref, "_COLUMN_BYTES", budget):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = conv_nd_direct(x, w, spec)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        # 16 KiB for Python objects: views, index tuples, the slab generator;
        # and the ufunc buffers (two operands) of a group's add into the
        # slab's strided output columns.
        assert peak - out.nbytes - 8 * window <= budget + 2 * 8 * np.getbufsize() + 2**14
        assert rel_error(out, conv_nd_direct(x, w, spec)) <= 1e-13

    @pytest.mark.parametrize("slab", [7, 512])
    @pytest.mark.parametrize(
        "shape, kernel, stride, padding",
        [
            ((3, 9), (2, 3, 3), 1, 1),
            ((2, 6, 7), (3, 2, 3, 2), (1, 2), (1, 0)),
            ((2, 5, 6, 4), (2, 2, 3, 3, 3), (2, 1, 1), 1),
        ],
    )
    def test_nan_stays_local(self, slab, shape, kernel, stride, padding):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(shape)
        x[(shape[0] - 1,) + tuple(d // 2 for d in shape[1:])] = np.nan
        w = rng.standard_normal(kernel)
        spec = ConvSpec.from_kernel(w, stride, padding)
        with mock.patch.object(convref, "_SLAB_POSITIONS", slab):
            out = conv_nd_direct(x, w, spec)
        naive = conv_nd_naive(x, w, spec)
        assert np.isnan(naive).any() and not np.isnan(naive).all()
        assert np.array_equal(np.isnan(out), np.isnan(naive))
        finite = ~np.isnan(naive)
        np.testing.assert_allclose(out[finite], naive[finite], rtol=1e-12)


class TestConv1x1:
    def test_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 4))
        assert np.array_equal(conv_1x1(x, np.eye(3)), x)

    def test_hand_sum(self):
        x = np.array([1.0, 2.0]).reshape(2, 1, 1)
        out = conv_1x1(x, np.array([[1.0, 1.0]]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 3.0

    def test_three_way_equivalence(self):
        rng = np.random.default_rng(7)
        for spatial in [(5,), (4, 5), (3, 4, 2)]:
            x = rng.standard_normal((3,) + spatial)
            w2d = rng.standard_normal((4, 3))
            via_1x1 = conv_1x1(x, w2d)
            via_nmode = n_mode_product(x, w2d, 0)
            w_full = w2d.reshape((4, 3) + (1,) * len(spatial))
            via_direct = conv_nd_direct(x, w_full)
            assert rel_error(via_1x1, via_nmode) < 1e-12
            assert rel_error(via_1x1, via_direct) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="2 channels.*expects 3"):
            conv_1x1(np.zeros((2, 4)), np.zeros((5, 3)))
