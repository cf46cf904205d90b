import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorconv import layers
from tensorconv import (
    ConvSpec,
    CpConvLayer,
    DimensionError,
    FrozenBatchNorm,
    HoCpConvLayer,
    KruskalTensor,
    MobileNetV1Block,
    MobileNetV2Block,
    OpCounter,
    PReLU,
    RankError,
    ReLU,
    TuckerConvLayer,
    build_mobilenet_v1,
    build_mobilenet_v2,
    conv_1x1,
    conv_nd_direct,
    cp_als,
    forward,
    forward_naive,
    n_mode_product,
    tucker_hooi,
)
from tensorconv.costs import flops_hocp

from helpers import random_kruskal, rel_error


def make_cp_layer(rng, t, c, kernels, rank, stride=1, padding=0):
    k = random_kruskal(rng, (t, c) + tuple(kernels), rank)
    return CpConvLayer(k, ConvSpec(c, t, kernels, stride, padding))


class TestCpConvForward:
    def test_rank1_all_ones_matches_direct(self):
        k = KruskalTensor(tuple(np.ones((e, 1)) for e in (2, 3, 2, 2)))
        spec = ConvSpec(3, 2, (2, 2))
        layer = CpConvLayer(k, spec)
        x = np.ones((3, 4, 4))
        out = forward(layer, x)
        from tensorconv import kruskal_to_dense

        expected = conv_nd_direct(x, kruskal_to_dense(k), spec)
        assert rel_error(out, expected) < 1e-12

    def test_full_rank_als_matches_original_direct(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 3, 2, 2))
        res = cp_als(w, 12, max_iters=2000, tol=1e-14, seed=5)
        assert res.rel_error < 1e-8
        spec = ConvSpec(3, 2, (2, 2))
        layer = CpConvLayer(res.kruskal, spec)
        x = rng.standard_normal((3, 5, 5))
        assert rel_error(forward(layer, x), conv_nd_direct(x, w, spec)) < 1e-6

    def test_zero_output_factor(self):
        rng = np.random.default_rng(1)
        layer = make_cp_layer(rng, 2, 3, (2,), 4)
        k = KruskalTensor((np.zeros((2, 4)),) + layer.kruskal.factors[1:])
        layer = CpConvLayer(k, layer.spec)
        out = forward(layer, rng.standard_normal((3, 6)))
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_oracle_equivalence_across_orders(self, n_modes):
        rng = np.random.default_rng(10 + n_modes)
        for _ in range(5):
            c, t = rng.integers(1, 5, 2)
            kernels = tuple(rng.integers(1, 4, n_modes))
            rank = int(rng.integers(1, 4))
            layer = make_cp_layer(rng, t, c, kernels, rank)
            spatial = tuple(k + int(rng.integers(0, 3)) for k in kernels)
            x = rng.standard_normal((c,) + spatial)
            direct = conv_nd_direct(x, layer.dense_kernel(), layer.spec)
            assert rel_error(forward(layer, x), direct) < 1e-10

    def test_stride_padding_equivalence(self):
        rng = np.random.default_rng(2)
        layer = make_cp_layer(rng, 2, 3, (3, 2), 3, stride=(2, 1), padding=(1, 1))
        x = rng.standard_normal((3, 6, 5))
        direct = conv_nd_direct(x, layer.dense_kernel(), layer.spec)
        assert rel_error(forward(layer, x), direct) < 1e-10

    def test_factor_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        k = random_kruskal(rng, (2, 3, 2), 2)
        with pytest.raises(DimensionError):
            CpConvLayer(k, ConvSpec(3, 2, (3,)))

    def test_input_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        layer = make_cp_layer(rng, 2, 3, (2,), 2)
        with pytest.raises(DimensionError, match="channel"):
            forward(layer, rng.standard_normal((4, 6)))

    def test_spatial_mode_order_invariance(self):
        rng = np.random.default_rng(5)
        layer = make_cp_layer(rng, 2, 3, (2, 3, 2), 3)
        x = rng.standard_normal((3, 4, 5, 4))
        contract_in, *modes, contract_out = layer.stages
        assert [s.label for s in modes] == ["conv_mode_0", "conv_mode_1", "conv_mode_2"]
        base = forward(layer, x)
        for order in [(2, 1, 0), (1, 0, 2), (2, 0, 1)]:
            z = x
            for stage in [contract_in] + [modes[i] for i in order] + [contract_out]:
                z = stage.apply(z, x)
            assert rel_error(z, base) < 1e-12

    def test_linear_in_input(self):
        rng = np.random.default_rng(6)
        layer = make_cp_layer(rng, 2, 2, (2, 2), 2)
        x, y = rng.standard_normal((2, 2, 4, 4))
        lhs = forward(layer, 1.5 * x - 0.5 * y)
        rhs = 1.5 * forward(layer, x) - 0.5 * forward(layer, y)
        assert rel_error(lhs, rhs) < 1e-12


class TestTuckerConvForward:
    def test_hooi_full_ranks_matches_original(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 4, 2, 2))
        spec = ConvSpec(4, 3, (2, 2))
        res = tucker_hooi(w, w.shape)
        layer = TuckerConvLayer.from_tucker(res.tucker, spec)
        x = rng.standard_normal((4, 5, 5))
        assert rel_error(forward(layer, x), conv_nd_direct(x, w, spec)) < 1e-6

    def test_identity_bottleneck_is_direct_conv(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 4, 2, 2))
        spec = ConvSpec(4, 3, (2, 2))
        layer = TuckerConvLayer(np.eye(4), w, np.eye(3), spec)
        x = rng.standard_normal((4, 5, 5))
        assert np.array_equal(forward(layer, x), conv_nd_direct(x, w, spec))

    def test_zero_core(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(3, 2, (2,))
        layer = TuckerConvLayer(
            rng.standard_normal((2, 3)), np.zeros((2, 2, 2)), rng.standard_normal((2, 2)), spec
        )
        assert np.all(forward(layer, rng.standard_normal((3, 5))) == 0.0)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_oracle_equivalence(self, n_modes):
        rng = np.random.default_rng(20 + n_modes)
        c, t, r0, r1 = 4, 3, 2, 3
        kernels = tuple(rng.integers(1, 4, n_modes))
        spec = ConvSpec(c, t, kernels, strides=1, paddings=1)
        layer = TuckerConvLayer(
            rng.standard_normal((r1, c)),
            rng.standard_normal((r0, r1) + kernels),
            rng.standard_normal((t, r0)),
            spec,
        )
        x = rng.standard_normal((c,) + tuple(k + 2 for k in kernels))
        direct = conv_nd_direct(x, layer.dense_kernel(), spec)
        assert rel_error(forward(layer, x), direct) < 1e-10

    def test_linear_in_input(self):
        rng = np.random.default_rng(31)
        spec = ConvSpec(3, 2, (2, 2))
        layer = TuckerConvLayer(
            rng.standard_normal((2, 3)),
            rng.standard_normal((2, 2, 2, 2)),
            rng.standard_normal((2, 2)),
            spec,
        )
        x, y = rng.standard_normal((2, 3, 4, 4))
        lhs = forward(layer, 2.0 * x + 3.0 * y)
        rhs = 2.0 * forward(layer, x) + 3.0 * forward(layer, y)
        assert rel_error(lhs, rhs) < 1e-12

    def test_extent_validation(self):
        spec = ConvSpec(3, 2, (2,))
        with pytest.raises(DimensionError, match="down factor"):
            TuckerConvLayer(np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros((2, 2)), spec)
        with pytest.raises(DimensionError, match="up factor"):
            TuckerConvLayer(np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros((2, 3)), spec)
        with pytest.raises(DimensionError, match="core spatial"):
            TuckerConvLayer(np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2)), spec)


class TestHoCpConvForward:
    def test_bitwise_equal_to_cp_without_extras(self):
        rng = np.random.default_rng(10)
        cp_layer = make_cp_layer(rng, 3, 4, (3, 2, 2), 5)
        ho = HoCpConvLayer(cp_layer)
        x = rng.standard_normal((4, 5, 4, 4))
        a = forward(ho, x)
        b = forward(cp_layer, x)
        assert a.tobytes() == b.tobytes()

    def test_zero_factors_with_skip_reduce_to_skip(self):
        rng = np.random.default_rng(11)
        c = 3
        k = KruskalTensor(tuple(np.zeros((e, 2)) for e in (c, c, 3, 3)))
        spec = ConvSpec(c, c, (3, 3), strides=1, paddings=1)
        skip = rng.standard_normal((c, c))
        ho = HoCpConvLayer(CpConvLayer(k, spec), skip=skip)
        x = rng.standard_normal((c, 6, 6))
        out = forward(ho, x)
        assert rel_error(out, n_mode_product(x, skip, 0)) < 1e-15

    def test_3d_random_matches_direct(self):
        rng = np.random.default_rng(12)
        layer = make_cp_layer(rng, 3, 2, (3, 3, 3), 4)
        ho = HoCpConvLayer(layer)
        x = rng.standard_normal((2, 5, 5, 5))
        direct = conv_nd_direct(x, ho.dense_kernel(), ho.spec)
        assert rel_error(forward(ho, x), direct) < 1e-10

    def test_relu_transparent_on_nonnegative_data(self):
        rng = np.random.default_rng(13)
        k = KruskalTensor(tuple(rng.uniform(0.0, 1.0, (e, 3)) for e in (2, 3, 2, 2)))
        spec = ConvSpec(3, 2, (2, 2))
        cp_layer = CpConvLayer(k, spec)
        ho = HoCpConvLayer(cp_layer, activations=(ReLU(), ReLU()))
        x = rng.uniform(0.0, 1.0, (3, 5, 5))
        assert np.array_equal(forward(ho, x), forward(cp_layer, x))

    def test_relu_and_prelu_change_generic_output(self):
        rng = np.random.default_rng(14)
        cp_layer = make_cp_layer(rng, 2, 3, (2, 2), 3)
        x = rng.standard_normal((3, 5, 5))
        plain = forward(cp_layer, x)
        relu_out = forward(HoCpConvLayer(cp_layer, (ReLU(), None)), x)
        prelu_out = forward(HoCpConvLayer(cp_layer, (PReLU(0.1), None)), x)
        assert not np.allclose(relu_out, plain)
        assert not np.allclose(prelu_out, plain)
        assert not np.allclose(prelu_out, relu_out)

    def test_batchnorm_stage_matches_manual_computation(self):
        rng = np.random.default_rng(15)
        cp_layer = make_cp_layer(rng, 2, 2, (2,), 3)
        u_out, u_in, u_k = cp_layer.kruskal.factors
        bn = FrozenBatchNorm(mean=(0.1, -0.2, 0.3), var=(1.5, 0.7, 2.0),
                             scale=(1.0, 2.0, 0.5), shift=(0.0, 0.1, -0.1))
        ho = HoCpConvLayer(cp_layer, activations=(bn,))
        x = rng.standard_normal((2, 6))
        z = n_mode_product(x, u_in.T, 0)
        stage = np.stack([np.convolve(z[r], u_k[::-1, r], mode="valid") for r in range(3)])
        normed = np.stack([
            bn.scale[r] * (stage[r] - bn.mean[r]) / np.sqrt(bn.var[r] + bn.eps) + bn.shift[r]
            for r in range(3)
        ])
        expected = n_mode_product(normed, u_out, 0)
        assert rel_error(forward(ho, x), expected) < 1e-12

    def test_skip_requires_preserved_extents(self):
        rng = np.random.default_rng(16)
        cp_layer = make_cp_layer(rng, 3, 3, (3, 3), 2)  # valid conv shrinks extents
        ho = HoCpConvLayer(cp_layer, skip=np.eye(3))
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            forward(ho, rng.standard_normal((3, 6, 6)))

    def test_skip_shape_validated(self):
        rng = np.random.default_rng(17)
        cp_layer = make_cp_layer(rng, 2, 3, (3,), 2, padding=1)
        with pytest.raises(DimensionError, match="skip factor"):
            HoCpConvLayer(cp_layer, skip=np.zeros((3, 3)))

    def test_activation_count_validated(self):
        rng = np.random.default_rng(18)
        cp_layer = make_cp_layer(rng, 2, 3, (3, 3), 2)
        with pytest.raises(DimensionError, match="activation slot"):
            HoCpConvLayer(cp_layer, activations=(ReLU(),))

    def test_skip_adds_contracted_input(self):
        rng = np.random.default_rng(19)
        cp_layer = make_cp_layer(rng, 4, 3, (3, 3), 2, padding=1)
        skip = rng.standard_normal((4, 3))
        ho = HoCpConvLayer(cp_layer, skip=skip)
        x = rng.standard_normal((3, 5, 5))
        expected = forward(cp_layer, x) + n_mode_product(x, skip, 0)
        assert rel_error(forward(ho, x), expected) < 1e-14


class TestHoCpNaive:
    def test_matches_vectorized_with_extras(self):
        rng = np.random.default_rng(20)
        cp_layer = make_cp_layer(rng, 2, 3, (3, 2), 3, padding=1)
        skip = rng.standard_normal((2, 3))
        ho = HoCpConvLayer(cp_layer, activations=(ReLU(), PReLU(0.2)), skip=None)
        x = rng.standard_normal((3, 4, 4))
        assert rel_error(forward_naive(ho, x), forward(ho, x)) < 1e-12

        ho_skip = HoCpConvLayer(make_cp_layer(rng, 3, 3, (3, 3), 2, padding=1), skip=np.eye(3))
        xs = rng.standard_normal((3, 4, 4))
        assert rel_error(forward_naive(ho_skip, xs), forward(ho_skip, xs)) < 1e-12

    def test_counter_matches_formula(self):
        rng = np.random.default_rng(21)
        cp_layer = make_cp_layer(rng, 2, 3, (2, 3), 4, stride=(1, 2), padding=(1, 0))
        ho = HoCpConvLayer(cp_layer)
        x = rng.standard_normal((3, 4, 7))
        counter = OpCounter()
        forward_naive(ho, x, counter)
        assert counter.flops == flops_hocp(cp_layer.spec, 4, (4, 7))


class TestMobileNetV1:
    def test_matches_cp_forward_for_identity_channel_factor(self):
        # The depthwise rewrite drops the first 1x1 stage, so it reproduces
        # the CP convolution exactly when the channel factor is the identity.
        rng = np.random.default_rng(22)
        c, t = 4, 3
        k = KruskalTensor(
            (
                rng.uniform(-1, 1, (t, c)),
                np.eye(c),
                rng.uniform(-1, 1, (3, c)),
                rng.uniform(-1, 1, (3, c)),
            )
        )
        block = build_mobilenet_v1(k)
        cp_layer = CpConvLayer(k, block.spec)
        x = rng.standard_normal((c, 6, 6))
        assert rel_error(forward(block, x), forward(cp_layer, x)) < 1e-10

    def test_forward_matches_direct_with_block_kernel(self):
        rng = np.random.default_rng(23)
        c = 5
        k = random_kruskal(rng, (3, c, 2, 3), c)
        block = build_mobilenet_v1(k, stride=(2, 1), padding=(0, 1))
        x = rng.standard_normal((c, 6, 7))
        direct = conv_nd_direct(x, block.dense_kernel(), block.spec)
        assert rel_error(forward(block, x), direct) < 1e-10

    def test_unit_spatial_extent_degenerates_to_pointwise(self):
        rng = np.random.default_rng(24)
        c = 3
        k = random_kruskal(rng, (2, c, 1, 1), c)
        block = build_mobilenet_v1(k)
        x = rng.standard_normal((c, 4, 4))
        gains = block.spatial[0, 0, :]
        expected = conv_1x1(x, block.pointwise @ np.diag(gains))
        assert rel_error(forward(block, x), expected) < 1e-12

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        with pytest.raises(RankError, match="rank == input channels"):
            build_mobilenet_v1(random_kruskal(rng, (2, 3, 3, 3), 4))

    def test_direct_block_construction_validates(self):
        with pytest.raises(RankError):
            MobileNetV1Block(np.zeros((3, 3, 4)), np.zeros((2, 5)), ConvSpec(5, 2, (3, 3)))


class TestMobileNetV2:
    def test_matches_cp_forward_random_instance(self):
        rng = np.random.default_rng(26)
        c, t = 3, 4
        k = random_kruskal(rng, (t, c, 3, 3), 6 * c)
        block = build_mobilenet_v2(k, padding=1)
        cp_layer = CpConvLayer(k, block.spec)
        x = rng.standard_normal((c, 6, 6))
        assert rel_error(forward(block, x), forward(cp_layer, x)) < 1e-10

    def test_rank_one_path(self):
        rng = np.random.default_rng(27)
        k = random_kruskal(rng, (3, 4, 2, 2), 1)
        block = build_mobilenet_v2(k)
        cp_layer = CpConvLayer(k, block.spec)
        x = rng.standard_normal((4, 5, 5))
        assert rel_error(forward(block, x), forward(cp_layer, x)) < 1e-10

    def test_zero_down_gives_zero(self):
        rng = np.random.default_rng(28)
        k = KruskalTensor(
            (
                rng.standard_normal((3, 2)),
                np.zeros((4, 2)),
                rng.standard_normal((2, 2)),
                rng.standard_normal((2, 2)),
            )
        )
        block = build_mobilenet_v2(k)
        out = forward(block, rng.standard_normal((4, 5, 5)))
        assert np.all(out == 0.0)

    def test_forward_matches_direct_with_block_kernel(self):
        rng = np.random.default_rng(29)
        k = random_kruskal(rng, (2, 3, 3, 2), 5)
        block = build_mobilenet_v2(k, stride=(1, 2), padding=(1, 0))
        x = rng.standard_normal((3, 5, 6))
        direct = conv_nd_direct(x, block.dense_kernel(), block.spec)
        assert rel_error(forward(block, x), direct) < 1e-10

    def test_3d_matches_cp_forward(self):
        rng = np.random.default_rng(30)
        k = random_kruskal(rng, (2, 3, 3, 2, 3), 5)
        block = build_mobilenet_v2(k, stride=(1, 2, 1), padding=1)
        assert block.spatial.shape == (3, 2, 3, 5)
        x = rng.standard_normal((3, 6, 5, 4))
        assert rel_error(forward(block, x), forward(CpConvLayer(k, block.spec), x)) < 1e-10

    def test_requires_a_spatial_mode(self):
        rng = np.random.default_rng(30)
        for build in (build_mobilenet_v1, build_mobilenet_v2):
            with pytest.raises(DimensionError, match="order >= 3"):
                build(random_kruskal(rng, (3, 3), 3))
        with pytest.raises(DimensionError, match="merged spatial factor"):
            MobileNetV2Block(np.eye(2), np.zeros((3, 3, 2)), np.eye(2), ConvSpec(2, 2, (3, 3, 3)))


def untiled_fold(layer, x):
    """Every stage's ``apply`` on the whole rank, in list order."""
    return functools.reduce(lambda z, stage: stage.apply(z, x), layer.stages, x)


class TestRankTiling:
    """``forward`` runs the channel-local stages in rank tiles; a small budget
    forces several tiles on small layers."""

    EXTENTS = (6, 5, 4)
    RANK = 11  # tiles of 3 channels: 3 + 3 + 3 + 2

    @pytest.fixture
    def three_channel_tiles(self, monkeypatch):
        monkeypatch.setattr(layers, "_TILE_BYTES", 8 * math.prod(self.EXTENTS) * 3)

    def make(self, rng, stride, padding, extras=False):
        cp = make_cp_layer(rng, 4, 3, (3, 3, 3), self.RANK, stride, padding)
        x = rng.standard_normal((3,) + self.EXTENTS)
        if not extras:
            return cp, x
        r = self.RANK
        bn = FrozenBatchNorm(
            mean=tuple(rng.uniform(-0.1, 0.1, r)), var=tuple(rng.uniform(0.5, 2.0, r)),
            scale=(1.5,), shift=(0.2,),
        )
        preserved = cp.spec.output_extents(self.EXTENTS) == self.EXTENTS
        skip = rng.standard_normal((4, 3)) if preserved else None
        return HoCpConvLayer(cp, (ReLU(), PReLU(0.1), bn), skip), x

    GEOMETRIES = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2)]

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_cp_matches_direct(self, three_channel_tiles, stride, padding):
        rng = np.random.default_rng(70 + 10 * stride + padding)
        cp, x = self.make(rng, stride, padding)
        direct = conv_nd_direct(x, cp.dense_kernel(), cp.spec)
        assert rel_error(forward(cp, x), direct) <= 1e-10

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_hocp_matches_untiled_fold(self, three_channel_tiles, stride, padding):
        rng = np.random.default_rng(80 + 10 * stride + padding)
        ho, x = self.make(rng, stride, padding, extras=True)
        out = forward(ho, x)
        assert rel_error(out, untiled_fold(ho, x)) <= 1e-10
        assert out.tobytes() == forward(ho, x).tobytes()
        assert (ho.skip is not None) == ((stride, padding) == (1, 1))

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_cp_bitwise_equal_to_plain_hocp(self, three_channel_tiles, stride, padding):
        rng = np.random.default_rng(90 + 10 * stride + padding)
        cp, x = self.make(rng, stride, padding)
        assert forward(cp, x).tobytes() == forward(HoCpConvLayer(cp), x).tobytes()

    def test_single_tile_is_bitwise_the_plain_fold(self):
        rng = np.random.default_rng(100)
        cp, x3 = self.make(rng, 1, 1)
        ho, _ = self.make(rng, 1, 1, extras=True)
        k4 = random_kruskal(rng, (5, 3, 3, 3), 3)
        x2 = rng.standard_normal((3, 7, 6))
        tucker = TuckerConvLayer(
            rng.standard_normal((2, 3)), rng.standard_normal((3, 2, 3, 3, 3)),
            rng.standard_normal((4, 3)), ConvSpec(3, 4, (3, 3, 3), 1, 1),
        )
        for layer, x in [
            (cp, x3), (ho, x3), (tucker, x3),
            (build_mobilenet_v1(k4, 2, 1), x2), (build_mobilenet_v2(k4, 1, 1), x2),
        ]:
            assert layers.forward(layer, x).tobytes() == untiled_fold(layer, x).tobytes()

    def test_peak_memory_bounded_by_tile(self, monkeypatch):
        # Rank 512 at 16^3: one full-rank intermediate is 512 * 4096 * 8 B = 16.8 MB,
        # and an untiled stage holds its input and output at once. 1 MiB tiles
        # (32 channels) keep the whole forward under 8 MB.
        monkeypatch.setattr(layers, "_TILE_BYTES", 2**20)
        rng = np.random.default_rng(110)
        cp = make_cp_layer(rng, 4, 4, (3, 3, 3), 512, 1, 1)
        x = rng.standard_normal((4, 16, 16, 16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(cp, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert rel_error(out, untiled_fold(cp, x)) <= 1e-10

    def test_peak_memory_bounded_by_chain_volume(self, monkeypatch):
        # Padding 2 with K = 3 grows every mode by 2, so at 4^3 the last
        # depthwise output is 6^3 = 3.4x the input volume. Tiles and blocks
        # are sized by that largest volume, so with 1 MiB tiles (606 channels)
        # the forward holds one tile's contraction, one tile-shaped result and
        # a block stage's input, product and output (3 x 0.5 MiB): 2.8 MiB.
        # Sized by the input volume, one tile would hold all 2048 channels and
        # 3.5 MB per depthwise output, 9.2 MiB in all.
        monkeypatch.setattr(layers, "_TILE_BYTES", 2**20)
        rng = np.random.default_rng(120)
        cp = make_cp_layer(rng, 4, 4, (3, 3, 3), 2048, 1, 2)
        x = rng.standard_normal((4, 4, 4, 4))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(cp, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 6, 6, 6)
        assert peak < 2 * 2**20 + 3 * 2**19
        assert rel_error(out, untiled_fold(cp, x)) <= 1e-10


def chain_volume(layer, extents) -> int:
    """The largest spatial volume the layer's depthwise stages hold."""
    volumes = [math.prod(extents)]
    for stage in layer.stages:
        if isinstance(stage, layers.Depthwise):
            extents = stage.out_extents(extents)
            volumes.append(math.prod(extents))
    return max(volumes)


class TestChannelBlocks:
    """Inside a rank tile, the per-channel stages run in channel blocks; a
    small block budget splits rank 11 into blocks of 2 or 3 channels, while
    the rank stays in one tile."""

    RANK = 11
    GEOMETRIES = TestRankTiling.GEOMETRIES

    def layers_for(self, rng, stride, padding):
        """cp, hocp (activations and, when extents are kept, a skip),
        MobileNet-v1/v2 and Tucker at rank 11, each with its input."""
        r = self.RANK
        cp, x3 = TestRankTiling().make(rng, stride, padding)
        ho, _ = TestRankTiling().make(rng, stride, padding, extras=True)
        x2 = rng.standard_normal((r, 6, 5))
        tucker = TuckerConvLayer(
            rng.standard_normal((2, 3)), rng.standard_normal((3, 2, 3, 3, 3)),
            rng.standard_normal((4, 3)), ConvSpec(3, 4, (3, 3, 3), stride, padding),
        )
        return {
            "cp": (cp, x3),
            "hocp": (ho, x3),
            "mobilenet-v1": (build_mobilenet_v1(random_kruskal(rng, (5, r, 3, 3), r), stride, padding), x2),
            "mobilenet-v2": (build_mobilenet_v2(random_kruskal(rng, (5, 3, 3, 3), r), stride, padding), x2[:3]),
            "tucker": (tucker, x3),
        }

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_blocks_are_bitwise_the_untiled_fold(self, monkeypatch, width, stride, padding):
        rng = np.random.default_rng(130 + 10 * stride + padding)
        cases = self.layers_for(rng, stride, padding)
        for scheme, (layer, x) in cases.items():
            monkeypatch.setattr(layers, "_BLOCK_BYTES", 8 * chain_volume(layer, x.shape[1:]) * width)
            before = x.copy()
            out = layers.forward(layer, x)
            assert out.tobytes() == untiled_fold(layer, x).tobytes(), scheme
            assert x.tobytes() == before.tobytes(), scheme
        cp, x = cases["cp"]
        assert layers.forward(cp, x).tobytes() == layers.forward(HoCpConvLayer(cp), x).tobytes()
        assert (cases["hocp"][0].skip is not None) == ((stride, padding) == (1, 1))


def trailing_rank(layer) -> int:
    """The K of the layer's trailing contraction: its rank (C for MobileNet-v1)."""
    return [s for s in layer.stages if type(s) is layers.Contract][-1].matrix.shape[1]


def widest_plane(layer, extents) -> int:
    """The largest plane volume (the extents past mode 0) the layer's
    depthwise stages hold."""
    planes = [math.prod(extents[1:])]
    for stage in layer.stages:
        if isinstance(stage, layers.Depthwise):
            extents = stage.out_extents(extents)
            planes.append(math.prod(extents[1:]))
    return max(planes)


def slab_budget(layer, x, budget: str) -> int:
    """``_TILE_BYTES`` giving slabs of one or two output planes, or slabs of
    one plane in rank tiles of two channels."""
    plane = 8 * widest_plane(layer, x.shape[1:])
    return {"one plane": 1, "two planes": 2}.get(budget, 0) * trailing_rank(layer) * plane or 2 * plane


@st.composite
def streamed_cases(draw):
    """(layer, x): a cp, hocp (activations after any mode, and a skip when
    the extents are kept) or MobileNet-v1/v2 layer of 1-3 spatial modes. Mode 0 has K 1-5,
    stride 1-3 and padding 0-2 and is up to 9 long, so windows cross slab
    and border edges; other modes are short."""
    scheme = draw(st.sampled_from(["cp", "hocp", "mobilenet-v1", "mobilenet-v2"]))
    n = draw(st.integers(1, 3))
    same = draw(st.booleans())  # stride 1 and (K - 1)/2 padding: extents kept
    kernels, strides, paddings, extents = [], [], [], []
    for i in range(n):
        if same:
            k = draw(st.sampled_from((1, 3, 5) if i == 0 else (1, 3)))
            s, p = 1, (k - 1) // 2
        else:
            k = draw(st.integers(1, 5 if i == 0 else 3))
            s, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        kernels.append(k)
        strides.append(s)
        paddings.append(p)
        extents.append(draw(st.integers(max(1, k - 2 * p), 9 if i == 0 else max(1, k - 2 * p) + 2)))
    c, t, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((c,) + tuple(extents))
    spec = ConvSpec(c, t, tuple(kernels), tuple(strides), tuple(paddings))
    if scheme == "mobilenet-v1":
        k = random_kruskal(rng, (t, c) + spec.kernel_sizes, c)
        return build_mobilenet_v1(k, spec.strides, spec.paddings), x
    if scheme == "mobilenet-v2":
        k = random_kruskal(rng, (t, c) + spec.kernel_sizes, rank)
        return build_mobilenet_v2(k, spec.strides, spec.paddings), x
    cp = CpConvLayer(random_kruskal(rng, (t, c) + spec.kernel_sizes, rank), spec)
    if scheme == "cp":
        return cp, x
    bn = FrozenBatchNorm(
        mean=tuple(rng.uniform(-0.1, 0.1, rank)), var=tuple(rng.uniform(0.5, 2.0, rank)),
        scale=(1.5,), shift=(0.2,),
    )
    acts = draw(st.lists(st.sampled_from([None, ReLU(), PReLU(0.1), bn]), min_size=n, max_size=n))
    skip = rng.standard_normal((t, c)) if same else None
    return HoCpConvLayer(cp, tuple(acts), skip), x


class TestSlabs:
    """``forward`` streams slabs of output planes along mode 0; small budgets
    force slabs of one or two planes, or rank tiles inside one-plane slabs."""

    @settings(max_examples=200, deadline=None)
    @given(streamed_cases(), st.sampled_from(["one plane", "two planes", "rank tiles"]))
    def test_matches_naive_and_direct(self, case, budget):
        layer, x = case
        before = x.copy()
        with mock.patch.object(layers, "_TILE_BYTES", slab_budget(layer, x, budget)):
            out = layers.forward(layer, x)
            again = layers.forward(layer, x)
        assert out.tobytes() == again.tobytes()
        assert x.tobytes() == before.tobytes()
        assert rel_error(out, layers.forward_naive(layer, x)) <= 1e-10
        if not any(isinstance(s, (layers.Activate, layers.Skip)) for s in layer.stages):
            assert rel_error(out, conv_nd_direct(x, layer.dense_kernel(), layer.spec)) <= 1e-10

    def test_each_input_plane_contracted_once(self):
        # Slabs of two output planes of ten, each window four input planes
        # (K = 3, padding 1): the leading contraction must see every input
        # column exactly once, never a padding plane or a shared plane again.
        rng = np.random.default_rng(160)
        cp = make_cp_layer(rng, 3, 5, (3, 3, 3), 7, 1, 1)
        x = rng.standard_normal((5, 10, 4, 3))
        lead = cp.stages[0].matrix
        spans, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            if a.shape == lead.shape:
                start = (b.ctypes.data - x.ctypes.data) // x.itemsize
                spans.append((start, start + b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(layers, "_TILE_BYTES", slab_budget(cp, x, "two planes")), \
                mock.patch.object(np, "matmul", spy):
            out = layers.forward(cp, x)
        assert len(spans) == 5  # one GEMM per slab
        assert [col for lo, hi in sorted(spans) for col in range(lo, hi)] == list(range(x[0].size))
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

    def test_column_block_peak_memory(self):
        # Block 3 of the 3-D column (128 -> 256 channels, rank 768, 32x32x16,
        # padding 1). With 20 MiB rank tiles, its forward peaked at 100 MB.
        rng = np.random.default_rng(161)
        cp = make_cp_layer(rng, 256, 128, (3, 3, 3), 768, 1, 1)
        x = rng.standard_normal((128, 32, 32, 16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = layers.forward(cp, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (256, 32, 32, 16)
        assert peak < 100e6


@st.composite
def one_mode_cases(draw):
    """(stage, z): a 1-D depthwise stage on mode i of a 1-D to 3-D input,
    K in {1, 2, 3, 5}, stride 1-3, padding 0-2, extents up to 9, inputs with
    exact zeros of both signs."""
    n = draw(st.integers(1, 3))
    mode = draw(st.integers(0, n - 1))
    k = draw(st.sampled_from((1, 2, 3, 5)))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    extents = [draw(st.integers(1, 5)) for _ in range(n)]
    extents[mode] = draw(st.integers(max(1, k - 2 * padding), 9))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rank,) + tuple(extents))
    z[rng.random(z.shape) < 0.2] = 0.0
    z[rng.random(z.shape) < 0.1] = -0.0
    shape = tuple(k if i == mode else 1 for i in range(n)) + (rank,)
    stage = layers.Depthwise(
        f"conv_mode_{mode}", rng.standard_normal(shape),
        tuple(stride if i == mode else 1 for i in range(n)),
        tuple(padding if i == mode else 0 for i in range(n)),
    )
    return stage, z


class TestBandedDepthwise:
    @settings(max_examples=120, deadline=None)
    @given(one_mode_cases())
    def test_matches_loop_nest(self, case):
        stage, z = case
        identity = all(g == (1, 1, 0) for g in zip(stage.taps.shape, stage.strides, stage.paddings))
        assert (stage.band_mode(z.shape[1:]) is None) == identity  # a plain scale otherwise
        expected = stage.naive(z, z, None)
        got = stage.apply(z, z)
        assert got.shape == expected.shape
        assert rel_error(got, expected) <= 1e-12

    def test_extent_rule(self):
        stage = CpConvLayer.stages_for(
            [np.ones((2, 1)), np.ones((2, 1)), np.ones((3, 1)), np.ones((3, 1))],
            ConvSpec(2, 2, (3, 3), 1, 1),
        )[2]  # conv_mode_1
        limit = layers._BAND_EXTENT
        assert stage.band_mode((500, limit)) == 1
        assert stage.band_mode((2, limit + 1)) is None

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the two depthwise kernels' calls during a forward."""
        counts = {"depthwise_conv": 0, "banded_mode_conv": 0}
        for name in counts:
            def spy(*args, _name=name, _fn=getattr(layers, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(layers, name, spy)
        return counts

    @pytest.mark.parametrize("extents", [(320, 240), (192, 384)])
    def test_long_modes_keep_depthwise_conv(self, calls, extents):
        rng = np.random.default_rng(140)
        cp = make_cp_layer(rng, 2, 2, (3, 3), 2, 1, 1)
        x = rng.standard_normal((2,) + extents)
        out = layers.forward(cp, x)
        assert calls["depthwise_conv"] > 0 and calls["banded_mode_conv"] == 0
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

    def test_merged_mobilenet_taps_keep_depthwise_conv(self, calls):
        rng = np.random.default_rng(141)
        k = random_kruskal(rng, (3, 4, 3, 3), 4)
        x = rng.standard_normal((4, 8, 8))
        for block in (build_mobilenet_v1(k, 1, 1), build_mobilenet_v2(k, 2, 0)):
            layers.forward(block, x)
        assert calls == {"depthwise_conv": 2, "banded_mode_conv": 0}

    def test_short_modes_take_bands(self, calls):
        rng = np.random.default_rng(142)
        cp = make_cp_layer(rng, 3, 2, (3, 3, 3), 4, 1, 1)
        x = rng.standard_normal((2, 32, 32, 16))
        out = layers.forward(cp, x)
        assert calls == {"depthwise_conv": 0, "banded_mode_conv": 3}
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10


def exponent_range_values(rng, count):
    """``count`` values of random sign, mantissa and binary exponent from the
    subnormals up to the largest finite, plus +-0, +-inf and NaN."""
    mantissa = rng.uniform(0.5, 1.0, count) * rng.choice((-1.0, 1.0), count)
    values = np.ldexp(mantissa, rng.integers(-1074, 1025, count))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
    return np.concatenate([values, specials])


class TestActivations:
    def test_prelu_maximum_is_bitwise_where(self):
        z = exponent_range_values(np.random.default_rng(150), 10**5).reshape(-1, 10)
        for slope in (5e-324, 1e-300, 0.1, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0):
            expected = np.where(z >= 0.0, z, slope * z)
            assert PReLU(slope).apply(z).tobytes() == expected.tobytes(), slope

    @pytest.mark.parametrize("slope", [0.0, 1.5, 2.0, -0.5, -1.0])
    def test_other_slopes_keep_where(self, slope):
        z = exponent_range_values(np.random.default_rng(151), 10**4)
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, 2 * 1e308
            expected = np.where(z >= 0.0, z, slope * z)
            assert PReLU(slope).apply(z).tobytes() == expected.tobytes()
            # The maximum form would differ for such a slope.
            assert np.maximum(z, slope * z).tobytes() != expected.tobytes()

    @pytest.mark.parametrize("per_channel", [(), ("mean", "var"), ("mean", "var", "scale", "shift")])
    @pytest.mark.parametrize("length_one", [False, True])
    def test_batch_norm_affine_matches_formula(self, per_channel, length_one):
        rng = np.random.default_rng(152)
        r = 7
        draws = {
            "mean": lambda n: rng.uniform(-0.5, 0.5, n), "var": lambda n: rng.uniform(0.1, 3.0, n),
            "scale": lambda n: rng.uniform(0.5, 1.5, n), "shift": lambda n: rng.uniform(-0.5, 0.5, n),
        }
        params = {}
        for name, draw in draws.items():
            if name in per_channel:
                params[name] = tuple(draw(r))
            else:
                params[name] = (float(draw(1)[0]),) if length_one else float(draw(1)[0])
        bn = FrozenBatchNorm(**params, eps=1e-3)
        bn.check(r)
        z = rng.standard_normal((r, 5, 4)) * 3.0
        shaped = {
            n: np.asarray(p).reshape(-1, 1, 1) if np.ndim(p) else p for n, p in params.items()
        }
        expected = shaped["scale"] * (z - shaped["mean"]) / np.sqrt(shaped["var"] + bn.eps) + shaped["shift"]
        assert rel_error(bn.apply(z), expected) <= 1e-12
        blocks = np.concatenate([bn.channels(slice(lo, lo + 3)).apply(z[lo:lo + 3]) for lo in range(0, r, 3)])
        assert blocks.tobytes() == bn.apply(z).tobytes()
