import functools
import math
import tracemalloc

import numpy as np
import pytest

from tensorconv import layers
from tensorconv import (
    ConvSpec,
    CpConvLayer,
    DimensionError,
    FrozenBatchNorm,
    HoCpConvLayer,
    KruskalTensor,
    MobileNetV1Block,
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
    cp_conv_forward,
    ho_cp_conv_forward,
    ho_cp_forward_naive,
    mobilenet_v1_forward,
    mobilenet_v2_forward,
    n_mode_product,
    tucker_conv_forward,
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
        out = cp_conv_forward(layer, x)
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
        assert rel_error(cp_conv_forward(layer, x), conv_nd_direct(x, w, spec)) < 1e-6

    def test_zero_output_factor(self):
        rng = np.random.default_rng(1)
        layer = make_cp_layer(rng, 2, 3, (2,), 4)
        k = KruskalTensor((np.zeros((2, 4)),) + layer.kruskal.factors[1:])
        layer = CpConvLayer(k, layer.spec)
        out = cp_conv_forward(layer, rng.standard_normal((3, 6)))
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
            assert rel_error(cp_conv_forward(layer, x), direct) < 1e-10

    def test_stride_padding_equivalence(self):
        rng = np.random.default_rng(2)
        layer = make_cp_layer(rng, 2, 3, (3, 2), 3, stride=(2, 1), padding=(1, 1))
        x = rng.standard_normal((3, 6, 5))
        direct = conv_nd_direct(x, layer.dense_kernel(), layer.spec)
        assert rel_error(cp_conv_forward(layer, x), direct) < 1e-10

    def test_factor_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        k = random_kruskal(rng, (2, 3, 2), 2)
        with pytest.raises(DimensionError):
            CpConvLayer(k, ConvSpec(3, 2, (3,)))

    def test_input_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        layer = make_cp_layer(rng, 2, 3, (2,), 2)
        with pytest.raises(DimensionError, match="channel"):
            cp_conv_forward(layer, rng.standard_normal((4, 6)))

    def test_spatial_mode_order_invariance(self):
        rng = np.random.default_rng(5)
        layer = make_cp_layer(rng, 2, 3, (2, 3, 2), 3)
        x = rng.standard_normal((3, 4, 5, 4))
        contract_in, *modes, contract_out = layer.stages
        assert [s.label for s in modes] == ["conv_mode_0", "conv_mode_1", "conv_mode_2"]
        base = cp_conv_forward(layer, x)
        for order in [(2, 1, 0), (1, 0, 2), (2, 0, 1)]:
            z = x
            for stage in [contract_in] + [modes[i] for i in order] + [contract_out]:
                z = stage.apply(z, x)
            assert rel_error(z, base) < 1e-12

    def test_linear_in_input(self):
        rng = np.random.default_rng(6)
        layer = make_cp_layer(rng, 2, 2, (2, 2), 2)
        x, y = rng.standard_normal((2, 2, 4, 4))
        lhs = cp_conv_forward(layer, 1.5 * x - 0.5 * y)
        rhs = 1.5 * cp_conv_forward(layer, x) - 0.5 * cp_conv_forward(layer, y)
        assert rel_error(lhs, rhs) < 1e-12


class TestTuckerConvForward:
    def test_hooi_full_ranks_matches_original(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 4, 2, 2))
        spec = ConvSpec(4, 3, (2, 2))
        res = tucker_hooi(w, w.shape)
        layer = TuckerConvLayer.from_tucker(res.tucker, spec)
        x = rng.standard_normal((4, 5, 5))
        assert rel_error(tucker_conv_forward(layer, x), conv_nd_direct(x, w, spec)) < 1e-6

    def test_identity_bottleneck_is_direct_conv(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 4, 2, 2))
        spec = ConvSpec(4, 3, (2, 2))
        layer = TuckerConvLayer(np.eye(4), w, np.eye(3), spec)
        x = rng.standard_normal((4, 5, 5))
        assert np.array_equal(tucker_conv_forward(layer, x), conv_nd_direct(x, w, spec))

    def test_zero_core(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(3, 2, (2,))
        layer = TuckerConvLayer(
            rng.standard_normal((2, 3)), np.zeros((2, 2, 2)), rng.standard_normal((2, 2)), spec
        )
        assert np.all(tucker_conv_forward(layer, rng.standard_normal((3, 5))) == 0.0)

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
        assert rel_error(tucker_conv_forward(layer, x), direct) < 1e-10

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
        lhs = tucker_conv_forward(layer, 2.0 * x + 3.0 * y)
        rhs = 2.0 * tucker_conv_forward(layer, x) + 3.0 * tucker_conv_forward(layer, y)
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
        a = ho_cp_conv_forward(ho, x)
        b = cp_conv_forward(cp_layer, x)
        assert a.tobytes() == b.tobytes()

    def test_zero_factors_with_skip_reduce_to_skip(self):
        rng = np.random.default_rng(11)
        c = 3
        k = KruskalTensor(tuple(np.zeros((e, 2)) for e in (c, c, 3, 3)))
        spec = ConvSpec(c, c, (3, 3), strides=1, paddings=1)
        skip = rng.standard_normal((c, c))
        ho = HoCpConvLayer(CpConvLayer(k, spec), skip=skip)
        x = rng.standard_normal((c, 6, 6))
        out = ho_cp_conv_forward(ho, x)
        assert rel_error(out, n_mode_product(x, skip, 0)) < 1e-15

    def test_3d_random_matches_direct(self):
        rng = np.random.default_rng(12)
        layer = make_cp_layer(rng, 3, 2, (3, 3, 3), 4)
        ho = HoCpConvLayer(layer)
        x = rng.standard_normal((2, 5, 5, 5))
        direct = conv_nd_direct(x, ho.dense_kernel(), ho.spec)
        assert rel_error(ho_cp_conv_forward(ho, x), direct) < 1e-10

    def test_relu_transparent_on_nonnegative_data(self):
        rng = np.random.default_rng(13)
        k = KruskalTensor(tuple(rng.uniform(0.0, 1.0, (e, 3)) for e in (2, 3, 2, 2)))
        spec = ConvSpec(3, 2, (2, 2))
        cp_layer = CpConvLayer(k, spec)
        ho = HoCpConvLayer(cp_layer, activations=(ReLU(), ReLU()))
        x = rng.uniform(0.0, 1.0, (3, 5, 5))
        assert np.array_equal(ho_cp_conv_forward(ho, x), cp_conv_forward(cp_layer, x))

    def test_relu_and_prelu_change_generic_output(self):
        rng = np.random.default_rng(14)
        cp_layer = make_cp_layer(rng, 2, 3, (2, 2), 3)
        x = rng.standard_normal((3, 5, 5))
        plain = cp_conv_forward(cp_layer, x)
        relu_out = ho_cp_conv_forward(HoCpConvLayer(cp_layer, (ReLU(), None)), x)
        prelu_out = ho_cp_conv_forward(HoCpConvLayer(cp_layer, (PReLU(0.1), None)), x)
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
        assert rel_error(ho_cp_conv_forward(ho, x), expected) < 1e-12

    def test_skip_requires_preserved_extents(self):
        rng = np.random.default_rng(16)
        cp_layer = make_cp_layer(rng, 3, 3, (3, 3), 2)  # valid conv shrinks extents
        ho = HoCpConvLayer(cp_layer, skip=np.eye(3))
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            ho_cp_conv_forward(ho, rng.standard_normal((3, 6, 6)))

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
        expected = cp_conv_forward(cp_layer, x) + n_mode_product(x, skip, 0)
        assert rel_error(ho_cp_conv_forward(ho, x), expected) < 1e-14


class TestHoCpNaive:
    def test_matches_vectorized_with_extras(self):
        rng = np.random.default_rng(20)
        cp_layer = make_cp_layer(rng, 2, 3, (3, 2), 3, padding=1)
        skip = rng.standard_normal((2, 3))
        ho = HoCpConvLayer(cp_layer, activations=(ReLU(), PReLU(0.2)), skip=None)
        x = rng.standard_normal((3, 4, 4))
        assert rel_error(ho_cp_forward_naive(ho, x), ho_cp_conv_forward(ho, x)) < 1e-12

        ho_skip = HoCpConvLayer(make_cp_layer(rng, 3, 3, (3, 3), 2, padding=1), skip=np.eye(3))
        xs = rng.standard_normal((3, 4, 4))
        assert rel_error(ho_cp_forward_naive(ho_skip, xs), ho_cp_conv_forward(ho_skip, xs)) < 1e-12

    def test_counter_matches_formula(self):
        rng = np.random.default_rng(21)
        cp_layer = make_cp_layer(rng, 2, 3, (2, 3), 4, stride=(1, 2), padding=(1, 0))
        ho = HoCpConvLayer(cp_layer)
        x = rng.standard_normal((3, 4, 7))
        counter = OpCounter()
        ho_cp_forward_naive(ho, x, counter)
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
        assert rel_error(mobilenet_v1_forward(block, x), cp_conv_forward(cp_layer, x)) < 1e-10

    def test_forward_matches_direct_with_block_kernel(self):
        rng = np.random.default_rng(23)
        c = 5
        k = random_kruskal(rng, (3, c, 2, 3), c)
        block = build_mobilenet_v1(k, stride=(2, 1), padding=(0, 1))
        x = rng.standard_normal((c, 6, 7))
        direct = conv_nd_direct(x, block.dense_kernel(), block.spec)
        assert rel_error(mobilenet_v1_forward(block, x), direct) < 1e-10

    def test_unit_spatial_extent_degenerates_to_pointwise(self):
        rng = np.random.default_rng(24)
        c = 3
        k = random_kruskal(rng, (2, c, 1, 1), c)
        block = build_mobilenet_v1(k)
        x = rng.standard_normal((c, 4, 4))
        gains = block.spatial[0, 0, :]
        expected = conv_1x1(x, block.pointwise @ np.diag(gains))
        assert rel_error(mobilenet_v1_forward(block, x), expected) < 1e-12

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
        assert rel_error(mobilenet_v2_forward(block, x), cp_conv_forward(cp_layer, x)) < 1e-10

    def test_rank_one_path(self):
        rng = np.random.default_rng(27)
        k = random_kruskal(rng, (3, 4, 2, 2), 1)
        block = build_mobilenet_v2(k)
        cp_layer = CpConvLayer(k, block.spec)
        x = rng.standard_normal((4, 5, 5))
        assert rel_error(mobilenet_v2_forward(block, x), cp_conv_forward(cp_layer, x)) < 1e-10

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
        out = mobilenet_v2_forward(block, rng.standard_normal((4, 5, 5)))
        assert np.all(out == 0.0)

    def test_forward_matches_direct_with_block_kernel(self):
        rng = np.random.default_rng(29)
        k = random_kruskal(rng, (2, 3, 3, 2), 5)
        block = build_mobilenet_v2(k, stride=(1, 2), padding=(1, 0))
        x = rng.standard_normal((3, 5, 6))
        direct = conv_nd_direct(x, block.dense_kernel(), block.spec)
        assert rel_error(mobilenet_v2_forward(block, x), direct) < 1e-10

    def test_requires_two_spatial_modes(self):
        rng = np.random.default_rng(30)
        with pytest.raises(DimensionError):
            build_mobilenet_v2(random_kruskal(rng, (2, 3, 3), 2))


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
        assert rel_error(cp_conv_forward(cp, x), direct) <= 1e-10

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_hocp_matches_untiled_fold(self, three_channel_tiles, stride, padding):
        rng = np.random.default_rng(80 + 10 * stride + padding)
        ho, x = self.make(rng, stride, padding, extras=True)
        out = ho_cp_conv_forward(ho, x)
        assert rel_error(out, untiled_fold(ho, x)) <= 1e-10
        assert out.tobytes() == ho_cp_conv_forward(ho, x).tobytes()
        assert (ho.skip is not None) == ((stride, padding) == (1, 1))

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_cp_bitwise_equal_to_plain_hocp(self, three_channel_tiles, stride, padding):
        rng = np.random.default_rng(90 + 10 * stride + padding)
        cp, x = self.make(rng, stride, padding)
        assert cp_conv_forward(cp, x).tobytes() == ho_cp_conv_forward(HoCpConvLayer(cp), x).tobytes()

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
            out = cp_conv_forward(cp, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert rel_error(out, untiled_fold(cp, x)) <= 1e-10
