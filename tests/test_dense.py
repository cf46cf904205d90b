from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorconv import DimensionError, dense, fold, khatri_rao, n_mode_product, unfold
from tensorconv.dense import (
    as_tensor, band_diagonals, band_matrices, banded_mode_conv, conv_output_extent, depthwise_conv,
)
from tensorconv.layers import Depthwise

small_tensors = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4),
    elements=st.floats(-10, 10, allow_nan=False, width=64),
)


class TestAsTensor:
    def test_rejects_scalar(self):
        with pytest.raises(DimensionError):
            as_tensor(3.0)

    def test_rejects_empty_extent(self):
        with pytest.raises(DimensionError):
            as_tensor(np.zeros((2, 0)))

    def test_row_major_float64(self):
        t = as_tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64
        assert t.flags["C_CONTIGUOUS"]


class TestNModeProduct:
    def test_identity_matrix_is_identity(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(n_mode_product(t, np.eye(2), 0), t)

    def test_hand_sum_mode0(self):
        # P[0, j] = sum_k T[k, j]
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = n_mode_product(t, np.array([[1.0, 1.0]]), 0)
        assert np.array_equal(out, np.array([[4.0, 6.0]]))

    def test_zero_matrix_annihilates(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 3, 4))
        out = n_mode_product(t, np.zeros((5, 3)), 1)
        assert out.shape == (2, 5, 4)
        assert np.all(out == 0.0)

    def test_shape_mismatch_names_mode_and_extents(self):
        with pytest.raises(DimensionError, match=r"mode 1.*4 columns.*extent is 3"):
            n_mode_product(np.zeros((2, 3)), np.zeros((5, 4)), 1)

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionError):
            n_mode_product(np.zeros((2, 3)), np.zeros((5, 3)), 2)

    @settings(max_examples=30, deadline=None)
    @given(small_tensors)
    def test_identity_on_any_mode(self, t):
        for mode in range(t.ndim):
            out = n_mode_product(t, np.eye(t.shape[mode]), mode)
            np.testing.assert_allclose(out, t, rtol=0, atol=0)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = rng.standard_normal((3, 4, 2, 5))
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((2, 2))
            ab = n_mode_product(n_mode_product(t, a, 0), b, 2)
            ba = n_mode_product(n_mode_product(t, b, 2), a, 0)
            np.testing.assert_allclose(ab, ba, rtol=1e-12)


def conv_along(t, v, mode, stride=1, padding=0):
    """``t`` cross-correlated with the vector ``v`` along ``mode``:
    :func:`depthwise_conv` with one channel and taps of extent 1 on the
    other modes."""
    n = t.ndim
    taps = v.reshape((1,) * mode + v.shape + (1,) * (n - mode - 1) + (1,))
    strides = tuple(stride if i == mode else 1 for i in range(n))
    paddings = tuple(padding if i == mode else 0 for i in range(n))
    return depthwise_conv(t[None], taps, strides, paddings)[0]


class TestModeConv1d:
    def test_unit_kernel_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(conv_along(x, np.array([1.0]), 0), x)

    def test_hand_sum(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = conv_along(x, np.array([1.0, 1.0]), 0)
        assert np.array_equal(out, np.array([3.0, 5.0, 7.0]))

    def test_zero_kernel(self):
        out = conv_along(np.array([1.0, 2.0, 3.0]), np.zeros(2), 0)
        assert np.array_equal(out, np.zeros(2))

    def test_stride_and_padding_extent(self):
        x = np.arange(5, dtype=np.float64)
        out = conv_along(x, np.array([1.0, 1.0, 1.0]), 0, stride=2, padding=1)
        # padded [0,0,1,2,3,4,0]: windows at 0,2,4 -> extent (5+2-3)//2+1 = 3
        assert np.array_equal(out, np.array([1.0, 6.0, 7.0]))

    def test_applies_along_requested_mode(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 3))
        v = rng.standard_normal(2)
        out = conv_along(x, v, 1)
        assert out.shape == (2, 4, 3)
        expected = v[0] * x[:, :-1, :] + v[1] * x[:, 1:, :]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_kernel_longer_than_padded_extent(self):
        with pytest.raises(DimensionError, match="longer than padded extent"):
            conv_along(np.zeros(3), np.ones(5), 0)

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 4, 6))
        v, w = rng.standard_normal((2, 3))
        a, b = 0.7, -1.3
        lhs = conv_along(a * x + b * y, v, 1)
        rhs = a * conv_along(x, v, 1) + b * conv_along(y, v, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        lhs = conv_along(x, a * v + b * w, 1)
        rhs = a * conv_along(x, v, 1) + b * conv_along(x, w, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_output_extent_formula(self):
        assert conv_output_extent(7, 3, 2, 1) == (7 + 2 - 3) // 2 + 1


@st.composite
def depthwise_cases(draw):
    """(z, taps, strides, paddings): N = 1-3 modes, kernel 1-3, stride 1-3,
    padding 0-2, inputs with exact zeros of both signs."""
    n = draw(st.integers(1, 3))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(n))
    strides = tuple(draw(st.integers(1, 3)) for _ in range(n))
    paddings = tuple(draw(st.integers(0, 2)) for _ in range(n))
    extents = tuple(draw(st.integers(max(1, k - 2 * p), k + 4)) for k, p in zip(kernel, paddings))
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rank,) + extents)
    z[rng.random(z.shape) < 0.2] = 0.0
    z[rng.random(z.shape) < 0.1] = -0.0
    taps = rng.standard_normal(kernel + (rank,))
    return z, taps, strides, paddings


@st.composite
def same_padded_cases(draw):
    """(z, taps, strides, paddings) that keep the extents at stride 1: N = 1-3
    modes, K in {1, 3, 5} with padding (K - 1)/2, extents down to 1, inputs
    with exact zeros of both signs."""
    n = draw(st.integers(1, 3))
    kernel = tuple(draw(st.sampled_from((1, 3, 5))) for _ in range(n))
    paddings = tuple((k - 1) // 2 for k in kernel)
    extents = tuple(draw(st.integers(1, 7)) for _ in range(n))
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rank,) + extents)
    z[rng.random(z.shape) < 0.2] = 0.0
    z[rng.random(z.shape) < 0.1] = -0.0
    taps = rng.standard_normal(kernel + (rank,))
    return z, taps, (1,) * n, paddings


@st.composite
def mode_0_resized_cases(draw):
    """(z, taps, strides, paddings) at stride 1 that keep every extent past
    mode 0 (K in {1, 3, 5}, padding (K - 1)/2) while mode 0 has K in
    {1, 2, 3, 5} and any padding 0..K - 1: padding 0 shrinks it, as on a
    slab's window whose padding planes are explicit zeros, more padding than
    (K - 1)/2 grows it. Inputs hold exact zeros of both signs."""
    z, taps, strides, paddings = draw(same_padded_cases())
    k = draw(st.sampled_from((1, 2, 3, 5)))
    p = draw(st.integers(0, k - 1))
    d = draw(st.integers(max(1, k - 2 * p), 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((z.shape[0], d) + z.shape[2:])
    z[rng.random(z.shape) < 0.2] = 0.0
    z[rng.random(z.shape) < 0.1] = -0.0
    taps = rng.standard_normal((k,) + taps.shape[1:])
    return z, taps, strides, (p,) + paddings[1:]


class TestDepthwiseConv:
    @settings(max_examples=60, deadline=None)
    @given(depthwise_cases())
    def test_bitwise_equal_to_loop_nest(self, case):
        # Both sum 0 + a0 + a1 + ... over the kernel offsets in row-major order.
        z, taps, strides, paddings = case
        expected = Depthwise("depthwise", taps, strides, paddings).naive(z, z, None)
        got = depthwise_conv(z, taps, strides, paddings)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=160, deadline=None)
    @given(st.one_of(same_padded_cases(), mode_0_resized_cases()))
    def test_flat_shifts_bitwise_equal_to_loop_nest(self, case):
        # Stride 1 with the extents past mode 0 kept: each offset is one shift
        # of the flat view, whatever mode 0's padding. The box path is not used.
        z, taps, strides, paddings = case
        expected = Depthwise("depthwise", taps, strides, paddings).naive(z, z, None)
        with mock.patch.object(dense, "_valid_box", side_effect=AssertionError("box path")):
            got = depthwise_conv(z, taps, strides, paddings)
        assert got.shape == expected.shape and got.shape[2:] == z.shape[2:]
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(same_padded_cases(), st.data())
    def test_same_padded_mode_conv_bitwise_equal_to_loop_nest(self, case, data):
        t, n = case[0][0], case[0].ndim - 1
        mode = data.draw(st.integers(0, n - 1))
        k = data.draw(st.sampled_from((1, 3, 5)))
        v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(k)
        shape = (1,) * mode + (k,) + (1,) * (n - mode - 1) + (1,)
        paddings = tuple((k - 1) // 2 if i == mode else 0 for i in range(n))
        expected = Depthwise("mode", v.reshape(shape), (1,) * n, paddings).naive(t[None], t[None], None)[0]
        got = conv_along(t, v, mode, 1, (k - 1) // 2)
        assert got.tobytes() == expected.tobytes()


class TestBandedModeConv:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("rank,before,extent", [(25, 96, 16), (8, 3, 48)])
    def test_pretransposed_last_mode_bands_bitwise(self, rank, before, extent, stride, padding):
        # The streamed forward keeps last-mode bands as the transpose of a
        # contiguous (R x D x D_out) array. OpenBLAS rounds the product with
        # the transposed view of band_matrices' layout differently in the last
        # bits on some of these shapes, so banded_mode_conv always multiplies
        # the contiguous transpose, and the layouts give the same bits.
        rng = np.random.default_rng(40 + 3 * stride + padding)
        z = rng.standard_normal((rank, before, extent))
        bands = band_matrices(rng.standard_normal((3, rank)), extent, stride, padding)
        kept = np.ascontiguousarray(bands.transpose(0, 2, 1)).transpose(0, 2, 1)
        expected = banded_mode_conv(z, bands, 1)
        assert banded_mode_conv(z, kept, 1).tobytes() == expected.tobytes()
        # Written into rows of a wider buffer, as into a line buffer.
        rows = np.full((rank, 7 + expected[0].size), np.nan)
        banded_mode_conv(z, kept, 1, rows[:, 7:].reshape(expected.shape))
        assert rows[:, 7:].tobytes() == expected.reshape(rank, -1).tobytes()
        loops = np.einsum("ryd,rbd->rby", bands, z)
        assert np.abs(expected - loops).max() <= 1e-12 * np.abs(z).max() * np.abs(bands).sum(axis=2).max()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_diagonals_refill_a_workspace(self, stride, padding, transposed):
        rng = np.random.default_rng(45)
        extent = 11
        out_extent = conv_output_extent(extent, 3, stride, padding)
        if transposed:
            workspace = np.zeros((6, extent, out_extent)).transpose(0, 2, 1)
        else:
            workspace = np.zeros((6, out_extent, extent))
        diagonals = band_diagonals(workspace, 3, stride, padding)
        for _ in range(2):  # the second taps overwrite the first's entries
            taps = rng.standard_normal((3, 4))
            for k, diagonal in diagonals:
                diagonal[:4] = taps[k][:, None]
            assert np.array_equal(workspace[:4], band_matrices(taps, extent, stride, padding))
        assert not workspace[4:].any()


class TestUnfoldFold:
    def test_unfold_matrix_mode0_is_itself(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(unfold(m, 0), m)

    def test_unfold_ones(self):
        assert np.array_equal(unfold(np.ones((2, 3, 4)), 0), np.ones((2, 12)))

    def test_unfold_column_order_is_row_major_increasing(self):
        t = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        u = unfold(t, 1)
        # row j holds T[i0, j, i2] with (i0, i2) in row-major order, i2 fastest
        expected = np.stack([t[:, j, :].ravel() for j in range(3)])
        assert np.array_equal(u, expected)

    @settings(max_examples=30, deadline=None)
    @given(small_tensors)
    def test_fold_unfold_roundtrip_bitwise(self, t):
        for mode in range(t.ndim):
            back = fold(unfold(t, mode), mode, t.shape)
            assert back.tobytes() == t.tobytes()

    def test_fold_inconsistent_shape(self):
        with pytest.raises(DimensionError):
            fold(np.zeros((2, 6)), 0, (2, 2, 2))


class TestKhatriRao:
    def test_single_factor(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(khatri_rao([a]), a)

    def test_hand_kronecker(self):
        out = khatri_rao([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
        assert np.array_equal(out, np.array([[3.0], [4.0], [6.0], [8.0]]))

    def test_zero_factor_annihilates(self):
        rng = np.random.default_rng(4)
        out = khatri_rao([rng.standard_normal((3, 2)), np.zeros((4, 2))])
        assert np.all(out == 0.0)
        assert out.shape == (12, 2)

    def test_column_mismatch(self):
        with pytest.raises(DimensionError, match="columns"):
            khatri_rao([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_empty_list(self):
        with pytest.raises(DimensionError):
            khatri_rao([])

    def test_row_ordering_first_factor_slowest(self):
        a = np.array([[1.0], [10.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        out = khatri_rao([a, b])
        assert np.array_equal(out[:, 0], np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0]))
