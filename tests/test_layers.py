import copy
import functools
import math
import tracemalloc
import types
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
    TuckerTensor,
    build_mobilenet_v2,
    conv_1x1,
    conv_nd_direct,
    cp_als,
    depthwise_separable,
    forward,
    forward_naive,
    kruskal_to_dense,
    n_mode_product,
    tucker_hooi,
)
from tensorconv.costs import flops_hocp, report
from tensorconv.dense import khatri_rao
from tensorconv.pipeline import FactorizedPlan, save_plan

from helpers import random_kruskal, random_mobilenet_v1, random_tucker, rel_error


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
        with pytest.raises(DimensionError, match=r"core_conv of shape \(2, 2, 2\) does not take 4 channels"):
            TuckerConvLayer(np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros((2, 2)), spec)
        with pytest.raises(DimensionError, match=r"contract_out of shape \(2, 3\) does not take 2 channels"):
            TuckerConvLayer(np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros((2, 3)), spec)
        with pytest.raises(DimensionError, match=r"\(channels, taps\) \(2, \(3,\)\), the spec \(2, \(2,\)\)"):
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
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            HoCpConvLayer(cp_layer, skip=np.eye(3))

    def test_skip_shape_validated(self):
        rng = np.random.default_rng(17)
        cp_layer = make_cp_layer(rng, 2, 3, (3,), 2, padding=1)
        with pytest.raises(DimensionError, match=r"skip of shape \(3, 3\) is not \(T, C\) = \(2, 3\)"):
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


class TestHoCpIsCpLayer:
    """An HO-CP layer is a :class:`CpConvLayer` with activations or a skip:
    ``CpConvLayer(k, spec, acts, skip)`` and ``HoCpConvLayer(CpConvLayer(k,
    spec), acts, skip)`` are the same layer, bit for bit."""

    # (strides, paddings, skip); per-mode values are cut to the layer's modes.
    # A skip needs extents the convolution preserves.
    CASES = [(1, 0, False), (2, 1, False), ((1, 2, 1), (2, 0, 1), False), (1, 1, True)]

    @pytest.mark.parametrize("strides,paddings,skip", CASES, ids=["1-0", "2-1", "mixed", "1-1-skip"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_constructors_agree(self, tmp_path, n, strides, paddings, skip):
        rng = np.random.default_rng(25 + n)
        r, extents = 4, (6, 5, 4)[:n]
        strides, paddings = (v if np.isscalar(v) else v[:n] for v in (strides, paddings))
        spec = ConvSpec(3, 4, (3,) * n, strides, paddings)
        k = random_kruskal(rng, (4, 3) + (3,) * n, r)
        bn = FrozenBatchNorm(
            mean=tuple(rng.uniform(-0.1, 0.1, r)), var=tuple(rng.uniform(0.5, 2.0, r)),
            scale=(1.5,), shift=(0.2,),
        )
        acts = (ReLU(), PReLU(0.1), bn)[-n:]
        s = rng.standard_normal((4, 3)) if skip else None
        folded, wrapped = CpConvLayer(k, spec, acts, s), HoCpConvLayer(CpConvLayer(k, spec), acts, s)
        assert type(folded) is CpConvLayer and isinstance(wrapped, CpConvLayer)
        assert (folded.skip is not None) == skip

        assert [st.label for st in folded.stages] == [st.label for st in wrapped.stages]
        assert report(folded.stages, extents) == report(wrapped.stages, extents)
        assert folded.dense_kernel().tobytes() == wrapped.dense_kernel().tobytes()
        x = rng.standard_normal((3,) + extents)
        assert forward(folded, x).tobytes() == forward(wrapped, x).tobytes()
        tallies, naive = [], []
        for layer in (folded, wrapped):
            counter = OpCounter()
            naive.append(forward_naive(layer, x, counter).tobytes())
            tallies.append(counter.madds)
        assert naive[0] == naive[1] and tallies[0] == tallies[1] > 0

        files = []
        for name, layer in (("folded", folded), ("wrapped", wrapped)):
            save_plan(FactorizedPlan("hocp", layer, report(layer.stages, extents), extents), tmp_path / name)
            files.append({f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())})
        assert files[0] == files[1]
        assert ("skip.tensor" in files[0]) == skip


class TestSkipGeometry:
    """A skip is refused when the layer is built unless every mode has stride
    1 and 2 * padding = K - 1, the geometries that keep every extent."""

    @pytest.mark.parametrize("kernels,stride,padding", [
        ((3, 3), 2, 1), ((3, 3), 1, 0), ((3, 3), 1, 2), ((3, 3), (1, 2), 1), ((2, 3), 1, 1), ((3, 1), 1, 1),
    ], ids=["stride-2", "padding-0", "padding-2", "one-mode-stride-2", "even-kernel", "unit-kernel-padding-1"])
    def test_refused_when_built(self, kernels, stride, padding):
        """Each used to build, and raised only inside the forward."""
        rng = np.random.default_rng(30)
        cp = make_cp_layer(rng, 4, 3, kernels, 2, stride, padding)
        skip = rng.standard_normal((4, 3))
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            CpConvLayer(cp.kruskal, cp.spec, (ReLU(), None), skip)
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            HoCpConvLayer(cp, skip=skip)

    @pytest.mark.parametrize("kernels,padding", [((3, 3), 1), ((1, 5), (0, 2)), ((3, 1, 5), (1, 0, 2))])
    def test_built_where_the_extents_are_kept(self, kernels, padding):
        rng = np.random.default_rng(31)
        cp = make_cp_layer(rng, 4, 3, kernels, 2, 1, padding)
        skip = rng.standard_normal((4, 3))
        x = rng.standard_normal((3,) + tuple(range(6, 6 + len(kernels))))
        out = forward(CpConvLayer(cp.kruskal, cp.spec, None, skip), x)
        assert rel_error(out, forward(cp, x) + n_mode_product(x, skip, 0)) < 1e-14

    def test_hand_built_chain_is_refused_when_run(self):
        """No layer reaches ``Skip._check``, but a stage chain built by hand
        does: without it the skip would broadcast the (2, 1, 1) output of a
        5x5 padding-0 depthwise into a (2, 5, 5) result."""
        rng = np.random.default_rng(33)
        chain = types.SimpleNamespace(spec=ConvSpec(3, 2, (5, 5)), stages=(
            layers.Contract("contract_in", rng.standard_normal((4, 3))),
            layers.Depthwise("depthwise", rng.standard_normal((5, 5, 4)), (1, 1), (0, 0)),
            layers.Contract("contract_out", rng.standard_normal((2, 4))),
            layers.Skip("skip", rng.standard_normal((2, 3))),
        ))
        x = rng.standard_normal((3, 5, 5))
        for run in (forward, forward_naive):
            with pytest.raises(DimensionError, match=r"preserved spatial extents, got \(5, 5\) in and \(1, 1\) out"):
                run(chain, x)


class TestLayersCompareByIdentity:
    """Layers and the Kruskal and Tucker tensors are hashable, and ``==`` is
    identity: it used to raise on equal but distinct factor arrays."""

    def test_sets_and_copied_factors(self):
        rng = np.random.default_rng(32)
        built = list(five_schemes(rng, 4, 6, (3, 3), 5).values())
        built += [random_kruskal(rng, (4, 3, 2), 2), random_tucker(rng, (4, 3, 2), (2, 2, 2))]
        copies = [copy.deepcopy(obj) for obj in built]
        assert len({*built, *built}) == len(built)
        assert len({*built, *copies}) == 2 * len(built)
        for obj, twin in zip(built, copies):
            assert obj == obj and obj != twin and not (obj == twin)
        k = built[0].kruskal
        twin = CpConvLayer(KruskalTensor(tuple(f.copy() for f in k.factors)), built[0].spec)
        assert built[0] != twin and twin.dense_kernel().tobytes() == built[0].dense_kernel().tobytes()


class TestMobileNetV1:
    def test_matches_cp_forward_for_identity_channel_factor(self):
        # A CP kernel whose channel factor is the identity is depthwise
        # separable, so the closed-form v1 fit reproduces its convolution.
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
        spec = ConvSpec(c, t, (3, 3))
        pointwise, spatial = depthwise_separable(kruskal_to_dense(k))
        block = MobileNetV1Block(spatial, pointwise, spec)
        cp_layer = CpConvLayer(k, spec)
        x = rng.standard_normal((c, 6, 6))
        assert rel_error(forward(block, x), forward(cp_layer, x)) < 1e-10

    def test_forward_matches_direct_with_block_kernel(self):
        rng = np.random.default_rng(23)
        c = 5
        block = random_mobilenet_v1(rng, 3, c, (2, 3), stride=(2, 1), padding=(0, 1))
        x = rng.standard_normal((c, 6, 7))
        direct = conv_nd_direct(x, block.dense_kernel(), block.spec)
        assert rel_error(forward(block, x), direct) < 1e-10

    def test_unit_spatial_extent_degenerates_to_pointwise(self):
        rng = np.random.default_rng(24)
        c = 3
        block = random_mobilenet_v1(rng, 2, c, (1, 1))
        x = rng.standard_normal((c, 4, 4))
        gains = block.spatial[0, 0, :]
        expected = conv_1x1(x, block.pointwise @ np.diag(gains))
        assert rel_error(forward(block, x), expected) < 1e-12

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        with pytest.raises(RankError, match="rank == input channels"):
            MobileNetV1Block(
                rng.uniform(-1, 1, (3, 3, 4)), rng.uniform(-1, 1, (2, 3)), ConvSpec(3, 2, (3, 3))
            )

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
        with pytest.raises(DimensionError, match="order >= 3"):
            depthwise_separable(rng.standard_normal((3, 3)))
        with pytest.raises(DimensionError, match="order >= 3"):
            build_mobilenet_v2(random_kruskal(rng, (3, 3), 3))
        message = r"depthwise of shape \(3, 3, 2\) does not take 2 channels, 3 spatial modes"
        with pytest.raises(DimensionError, match=message):
            MobileNetV2Block(np.eye(2), np.zeros((3, 3, 2)), np.eye(2), ConvSpec(2, 2, (3, 3, 3)))


def per_scheme_kernel(layer):
    """Each scheme's kernel by its own closed form, as each class wrote it
    before the stage fold: the reference the fold is checked against."""
    if isinstance(layer, CpConvLayer):
        return kruskal_to_dense(layer.kruskal)
    if isinstance(layer, TuckerConvLayer):
        return n_mode_product(n_mode_product(layer.core, layer.up, 0), layer.down.T, 1)
    if isinstance(layer, MobileNetV1Block):
        return np.einsum("tc,...c->tc...", layer.pointwise, layer.spatial)
    return np.einsum("tr,rc,...r->tc...", layer.up, layer.down, layer.spatial)


def five_schemes(rng, c, t, kernels, rank):
    """One layer of each scheme on (c, t, kernels), the CP ones at ``rank``."""
    spec = ConvSpec(c, t, kernels, 1, 1)
    k = random_kruskal(rng, (t, c) + kernels, rank)
    n = len(kernels)
    bn = FrozenBatchNorm(mean=tuple(rng.uniform(-0.1, 0.1, rank)), var=(1.5,), scale=(0.5,))
    r_in, r_out = max(1, c // 2), max(1, t // 2)
    skip = rng.standard_normal((t, c))
    return {
        "cp": CpConvLayer(k, spec),
        "hocp": HoCpConvLayer(  # a skip only where stride 1, padding 1 keeps the extents
            CpConvLayer(k, spec), (PReLU(0.1), bn) + (None,) * (n - 2), skip if set(kernels) == {3} else None
        ),
        "tucker": TuckerConvLayer(
            rng.standard_normal((r_in, c)), rng.standard_normal((r_out, r_in) + kernels),
            rng.standard_normal((t, r_out)), spec,
        ),
        "mobilenet-v1": random_mobilenet_v1(rng, t, c, kernels, 1, 1),
        "mobilenet-v2": build_mobilenet_v2(k, 1, 1),
    }


def loop_nest_contract(matrix, z, counter):
    """``Contract.naive`` as its own loop nest, before it ran ``conv_nd_naive``."""
    out = np.zeros((matrix.shape[0],) + z.shape[1:])
    for idx in np.ndindex(*out.shape):
        acc = 0.0
        for c in range(matrix.shape[1]):
            acc += matrix[idx[0], c] * z[(c,) + idx[1:]]
            counter.madds += 1
        out[idx] = acc
    return out


def loop_nest_depthwise(stage, z, counter):
    """``Depthwise.naive`` as its own loop nest, before it ran ``conv_nd_naive``."""
    zp = np.pad(z, [(0, 0)] + [(p, p) for p in stage.paddings])
    out = np.zeros(z.shape[:1] + stage.out_extents(z.shape[1:]))
    for idx in np.ndindex(*out.shape):
        acc = 0.0
        for offs in np.ndindex(*stage.taps.shape[:-1]):
            src = tuple(y * s + o for y, s, o in zip(idx[1:], stage.strides, offs))
            acc += stage.taps[offs + idx[:1]] * zp[idx[:1] + src]
            counter.madds += 1
        out[idx] = acc
    return out


def per_class_rank(layer) -> int:
    """A layer's rank as each class stored it before ``rank`` was read off the stages."""
    if isinstance(layer, CpConvLayer):
        return layer.kruskal.rank
    if isinstance(layer, TuckerConvLayer):
        return layer.core.shape[0]
    return layer.spatial.shape[-1]


class TestStageListDerivations:
    """A layer's rank, MobileNet-v2's taps and the naive stages are derived
    from the stage list and ``conv_nd_naive``; each is bitwise what the
    per-class code gave."""

    @pytest.mark.parametrize("scheme", ["cp", "hocp", "hocp-skip", "tucker", "mobilenet-v1", "mobilenet-v2"])
    def test_rank_is_the_per_class_rank(self, scheme):
        # T=6, C=4, CP rank 5, Tucker (R_out, R_in) = (3, 2): a skip's or
        # R_in's width would differ from the rank.
        built = five_schemes(np.random.default_rng(71), 4, 6, (3, 3), 5)
        built["hocp-skip"], built["hocp"] = built["hocp"], HoCpConvLayer(built["cp"])
        layer = built[scheme]
        assert layer.rank == per_class_rank(layer)
        if scheme == "tucker":
            assert layer.ranks == (3, 2)

    @pytest.mark.parametrize("kernels", [(3,), (3, 2), (2, 3, 3)])
    def test_mobilenet_v2_taps_are_the_spatial_khatri_rao(self, kernels):
        k = random_kruskal(np.random.default_rng(72), (4, 3) + kernels, 5)
        expected = khatri_rao(k.factors[2:]).reshape(kernels + (5,))
        spatial = build_mobilenet_v2(k, 2, 1).spatial
        assert spatial.shape == expected.shape and spatial.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scheme", ["cp", "mobilenet-v2"])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((1, 2), (2, 0))])
    def test_naive_stages_match_the_loop_nests(self, scheme, stride, padding):
        rng = np.random.default_rng(73)
        k = random_kruskal(rng, (4, 3, 3, 2), 5)
        spec = ConvSpec(3, 4, (3, 2), stride, padding)
        layer = CpConvLayer(k, spec) if scheme == "cp" else build_mobilenet_v2(k, stride, padding)
        z = rng.standard_normal((3, 7, 6))
        for stage in layer.stages:
            ours, reference = OpCounter(), OpCounter()
            if isinstance(stage, layers.Contract):
                expected = loop_nest_contract(stage.matrix, z, reference)
            else:
                expected = loop_nest_depthwise(stage, z, reference)
            z = stage.naive(z, z, ours)
            assert z.shape == expected.shape and z.tobytes() == expected.tobytes()
            assert ours.madds == reference.madds


def zeros_kruskal(shape, rank=2) -> KruskalTensor:
    return KruskalTensor(tuple(np.zeros((e, rank)) for e in shape))


class TestDenseKernelFold:
    """``dense_kernel`` folds the stage list; each scheme's own formula is the reference."""

    SHAPES = [(6, 4, (3, 3), 5), (32, 48, (3, 3), 12), (16, 32, (3, 3, 3), 96), (3, 5, (2, 3, 1), 7)]

    @pytest.mark.parametrize("c,t,kernels,rank", SHAPES)
    def test_matches_each_schemes_formula(self, c, t, kernels, rank):
        rng = np.random.default_rng(c * t + rank)
        for scheme, layer in five_schemes(rng, c, t, kernels, rank).items():
            fold, reference = layer.dense_kernel(), per_scheme_kernel(layer)
            assert fold.shape == reference.shape == (t, c) + kernels
            if scheme in ("tucker", "mobilenet-v1"):
                assert fold.tobytes() == reference.tobytes(), scheme
            else:
                assert rel_error(fold, reference) <= 1e-14, scheme

    def test_hocp_extras_leave_the_cp_kernel(self):
        rng = np.random.default_rng(40)
        ho = five_schemes(rng, 4, 4, (3, 3), 6)["hocp"]
        assert ho.activations[0] is not None and ho.activations[1] is not None
        assert ho.skip is not None
        assert ho.dense_kernel().tobytes() == CpConvLayer(ho.kruskal, ho.spec).dense_kernel().tobytes()

    def test_depthwise_onto_a_moved_mode_rejected(self):
        rng = np.random.default_rng(41)
        spec = ConvSpec(2, 2, (3,))
        # Two 2-tap stages on mode 0 compose to 3 taps, which no broadcast expresses.
        chain = types.SimpleNamespace(spec=spec, stages=(
            layers.Depthwise("first", rng.standard_normal((2, 2)), (1,), (0,)),
            layers.Depthwise("second", rng.standard_normal((2, 2)), (1,), (0,)),
            layers.Contract("out", np.eye(2)),
        ))
        layers._Layer._check_stages(chain)
        with pytest.raises(DimensionError, match=r"first taps \(2,\) fold onto moved modes \(2,\)"):
            layers._Layer.dense_kernel(chain)

    MISMATCHES = {
        "cp kernel size": lambda: CpConvLayer(zeros_kruskal((2, 3, 2), 2), ConvSpec(3, 2, (3,))),
        "cp in channels": lambda: CpConvLayer(zeros_kruskal((2, 4, 3), 2), ConvSpec(3, 2, (3,))),
        "cp out channels": lambda: CpConvLayer(zeros_kruskal((3, 3, 3), 2), ConvSpec(3, 2, (3,))),
        "cp extra mode": lambda: CpConvLayer(zeros_kruskal((2, 3, 3, 3), 2), ConvSpec(3, 2, (3,))),
        "cp missing unit mode": lambda: CpConvLayer(zeros_kruskal((2, 3, 3), 2), ConvSpec(3, 2, (3, 1))),
        "cp order 1": lambda: CpConvLayer(zeros_kruskal((2,), 2), ConvSpec(3, 2, (3,))),
        "tucker down": lambda: TuckerConvLayer(
            np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros((2, 2)), ConvSpec(3, 2, (2,))),
        "tucker up": lambda: TuckerConvLayer(
            np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros((2, 3)), ConvSpec(3, 2, (2,))),
        "tucker core size": lambda: TuckerConvLayer(
            np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2)), ConvSpec(3, 2, (2,))),
        "tucker core order": lambda: TuckerConvLayer(
            np.zeros((2, 3)), np.zeros((2, 2, 2, 2)), np.zeros((2, 2)), ConvSpec(3, 2, (2,))),
        "tucker from_tucker order": lambda: TuckerConvLayer.from_tucker(
            TuckerTensor(np.zeros((2, 2, 2, 2)), (np.eye(2),) * 4), ConvSpec(2, 2, (2,))),
        "hocp skip": lambda: HoCpConvLayer(
            CpConvLayer(zeros_kruskal((2, 3, 3), 2), ConvSpec(3, 2, (3,), 1, 1)),
            skip=np.zeros((3, 3))),
        "hocp batch norm": lambda: HoCpConvLayer(
            CpConvLayer(zeros_kruskal((2, 3, 3), 2), ConvSpec(3, 2, (3,))),
            (FrozenBatchNorm(mean=(0.0, 0.0, 0.0)),)),
        "v1 rank": lambda: MobileNetV1Block(
            np.zeros((3, 3, 4)), np.zeros((2, 3)), ConvSpec(3, 2, (3, 3))),
        "v1 pointwise": lambda: MobileNetV1Block(
            np.zeros((3, 3, 3)), np.zeros((2, 4)), ConvSpec(3, 2, (3, 3))),
        "v1 kernel size": lambda: MobileNetV1Block(
            np.zeros((3, 2, 3)), np.zeros((2, 3)), ConvSpec(3, 2, (3, 3))),
        "v1 order": lambda: MobileNetV1Block(np.zeros((3, 3)), np.zeros((2, 3)), ConvSpec(3, 2, (3, 3))),
        "v2 down": lambda: MobileNetV2Block(
            np.zeros((4, 3)), np.zeros((3, 3, 5)), np.zeros((2, 5)), ConvSpec(3, 2, (3, 3))),
        "v2 up": lambda: MobileNetV2Block(
            np.zeros((5, 3)), np.zeros((3, 3, 5)), np.zeros((2, 4)), ConvSpec(3, 2, (3, 3))),
        "v2 kernel size": lambda: MobileNetV2Block(
            np.zeros((5, 3)), np.zeros((3, 2, 5)), np.zeros((2, 5)), ConvSpec(3, 2, (3, 3))),
        "v2 order": lambda: MobileNetV2Block(
            np.zeros((5, 3)), np.zeros((3, 5)), np.zeros((2, 5)), ConvSpec(3, 2, (3, 3))),
    }

    @pytest.mark.parametrize("case", MISMATCHES)
    def test_mismatch_raises_its_class(self, case):
        expected = RankError if case == "v1 rank" else DimensionError
        with pytest.raises(expected) as info:
            self.MISMATCHES[case]()
        assert type(info.value) is expected


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
        assert len(rank_tiles(cp, x)) >= 2
        assert forward(cp, x).tobytes() == forward(HoCpConvLayer(cp), x).tobytes()

    @pytest.mark.parametrize("stride,padding", GEOMETRIES)
    def test_each_input_plane_contracted_once_per_tile(self, three_channel_tiles, stride, padding):
        # Tiles are the outer loop and each carries its window's shared
        # planes from slab to slab, so every tile contracts each input plane
        # once (every plane of these geometries is read by some window).
        rng = np.random.default_rng(95 + 10 * stride + padding)
        cp, x = self.make(rng, stride, padding)
        fill, planes = layers._fill, []

        def spy(lines, flat_x, lead, tile, start, b, a, d_in, plane):
            planes.extend((tile.start, p) for p in range(max(start, 0), min(b, d_in)))
            return fill(lines, flat_x, lead, tile, start, b, a, d_in, plane)

        with mock.patch.object(layers, "_fill", spy):
            out = forward(cp, x)
        tiles = rank_tiles(cp, x)
        assert len(tiles) >= 2
        assert sorted(planes) == [(t.start, p) for t in tiles for p in range(x.shape[1])]
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

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
            (random_mobilenet_v1(rng, 5, 3, (3, 3), 2, 1), x2), (build_mobilenet_v2(k4, 1, 1), x2),
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

    @pytest.mark.parametrize("rank,extents,tile", [(512, (16, 16, 16), 2**20), (1536, (32, 32, 16), 4 * 2**20)])
    def test_peak_memory_bounded_by_one_tile_window(self, monkeypatch, rank, extents, tile):
        # Above the output, a forward in rank tiles holds one tile's line
        # buffer (its window and the carried planes and result behind them,
        # within _TILE_BYTES) and a block's stages; one line buffer for the
        # whole rank takes 3 and 18 MiB.
        monkeypatch.setattr(layers, "_TILE_BYTES", tile)
        rng = np.random.default_rng(112)
        cp = make_cp_layer(rng, 8, 8, (3, 3, 3), rank, 1, 1)
        x = rng.standard_normal((8,) + extents)
        assert len(rank_tiles(cp, x)) >= 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(cp, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= tile + 3 * layers._BLOCK_BYTES
        assert rel_error(out, untiled_fold(cp, x)) <= 1e-10

    def test_one_binding_for_all_rank_tiles(self, monkeypatch):
        # Rank 512 on (8, 16, 32, 32) with 3 MiB tiles: 16 one-plane slabs
        # of 4 rank tiles, each tile's window 128 channels of 3 planes. All
        # share one window shape, so the chain is bound once; binding per
        # tile and slab made 64 bindings.
        monkeypatch.setattr(layers, "_TILE_BYTES", 3 * 2**20)
        rng = np.random.default_rng(111)
        cp = make_cp_layer(rng, 8, 8, (3, 3, 3), 512, 1, 1)
        x = rng.standard_normal((8, 16, 32, 32))
        bind, calls = layers._bind, []
        monkeypatch.setattr(layers, "_bind", lambda *args: calls.append(args[1]) or bind(*args))
        out = forward(cp, x)
        assert len(calls) == 1 and len(calls[0]) == 4
        assert rel_error(out, untiled_fold(cp, x)) <= 1e-10
        assert out.tobytes() == forward(cp, x).tobytes()

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


def rank_tiles(layer, x) -> list:
    """The rank tiles ``forward`` runs ``layer`` on ``x`` in."""
    bind, tiles = layers._bind, []
    with mock.patch.object(layers, "_bind", lambda *args: tiles.append(args[1]) or bind(*args)):
        layers.forward(layer, x)
    return tiles[0]


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
            "mobilenet-v1": (random_mobilenet_v1(rng, 5, r, (3, 3), stride, padding), x2),
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
        return random_mobilenet_v1(rng, t, c, spec.kernel_sizes, spec.strides, spec.paddings), x
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

    @pytest.mark.parametrize("budget", ["one slab", "two planes"])
    def test_activation_after_the_trailing_contraction(self, budget):
        # No builder puts one there; a custom list runs it on the whole
        # output after the stream, which changes no bit.
        rng = np.random.default_rng(162)
        cp = make_cp_layer(rng, 3, 4, (3, 3), 5, 1, 1)
        x = rng.standard_normal((4, 9, 7))
        relu = types.SimpleNamespace(stages=cp.stages + (layers.Activate(1, ReLU()),), spec=cp.spec)
        tile = layers._TILE_BYTES if budget == "one slab" else slab_budget(cp, x, budget)
        with mock.patch.object(layers, "_TILE_BYTES", tile):
            out = layers.forward(relu, x)
            expected = np.maximum(layers.forward(cp, x), 0)
        assert out.tobytes() == expected.tobytes()

    def test_each_input_plane_contracted_once(self):
        # Slabs of two output planes of ten (the column cap; the rank is one
        # tile), each window four input planes (K = 3, padding 1): the
        # leading contraction must see every input column exactly once,
        # never a padding plane or a shared plane again.
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

        with mock.patch.object(layers, "_SLAB_COLUMNS", 2 * widest_plane(cp, x.shape[1:])), \
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


class TestSmallRankSlabs:
    """Small-rank layers on large 2-D images stream in slabs of at most
    ``_SLAB_COLUMNS`` columns, so no full-image intermediate is held, and
    each stage on a window runs as the window's own extents select."""

    def peak_over_output(self, layer, x) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = layers.forward(layer, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rel_error(out, conv_nd_direct(x, layer.dense_kernel(), layer.spec)) <= 1e-10
        return peak - out.nbytes

    @pytest.mark.parametrize("scheme", ["mobilenet-v1", "mobilenet-v2"])
    def test_peak_stays_near_the_output(self, scheme):
        # Rank 32 (v1) and 16 (v2) on 200 x 240 planes. One slab held the
        # rank x 200 x 240 intermediate, 12.3 and 6.1 MB; slabs of 34 planes
        # hold a line buffer of 36 planes and one block's chain.
        rng = np.random.default_rng(180)
        if scheme == "mobilenet-v1":
            layer = random_mobilenet_v1(rng, 8, 32, (3, 3), 1, 1)
        else:
            layer = build_mobilenet_v2(random_kruskal(rng, (8, 8, 3, 3), 16), 1, 1)
        x = rng.standard_normal((layer.spec.in_channels, 200, 240))
        assert self.peak_over_output(layer, x) < 4 * 2**20

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_slabs_are_bitwise_one_slab(self, stride, padding):
        # Modes 0 (150) and 1 (240) are longer than _BAND_EXTENT, so the
        # whole input takes flat shifts (or boxes) along both. N-D MobileNet
        # taps never take bands, so their slabs are bitwise one slab. A CP
        # conv_mode_0 stage takes bands on windows of at most _BAND_EXTENT
        # planes (36 at stride 1), which round differently; on slabs of 50
        # planes every window is longer, no stage takes bands, and cp and
        # hocp are bitwise one slab too.
        rng = np.random.default_rng(181 + 10 * stride + padding)
        x = rng.standard_normal((4, 150, 240))
        assert x.shape[1] > layers._BAND_EXTENT and x[0].size > 2 * layers._SLAB_COLUMNS
        cp = CpConvLayer(random_kruskal(rng, (3, 4, 3, 3), 5), ConvSpec(4, 3, (3, 3), stride, padding))
        bn = FrozenBatchNorm(mean=tuple(rng.uniform(-0.1, 0.1, 5)), var=tuple(rng.uniform(0.5, 2.0, 5)))
        skip = rng.standard_normal((3, 4)) if (stride, padding) == (1, 1) else None
        cases = {
            "cp": cp,
            "hocp": HoCpConvLayer(cp, (PReLU(0.1), bn), skip),
            "mobilenet-v1": random_mobilenet_v1(rng, 3, 4, (3, 3), stride, padding),
            "mobilenet-v2": build_mobilenet_v2(random_kruskal(rng, (3, 4, 3, 3), 6), stride, padding),
        }
        spy = lambda: mock.patch.object(layers, "banded_mode_conv", wraps=layers.banded_mode_conv)
        for scheme, layer in cases.items():
            before = x.copy()
            with spy() as bands:
                out = layers.forward(layer, x)
            with mock.patch.object(layers, "_SLAB_COLUMNS", 2**62):
                whole = layers.forward(layer, x)
            assert x.tobytes() == before.tobytes(), scheme
            if scheme.startswith("mobilenet"):
                assert bands.call_count == 0 and out.tobytes() == whole.tobytes(), scheme
                continue
            assert bands.call_count > 0, scheme  # conv_mode_0 on each window
            assert rel_error(out, whole) <= 1e-12, scheme
            # Mode 1 moves in conv_mode_1 alone, so the output columns that
            # input columns [0, 12) determine are the loop nest's on them.
            m = (12 - 3 + padding) // stride + 1
            assert rel_error(out[..., :m], forward_naive(layer, x[..., :12])[..., :m]) <= 1e-10, scheme
            with mock.patch.object(layers, "_SLAB_COLUMNS", 50 * widest_plane(layer, x.shape[1:])), \
                    spy() as bands:
                assert layers.forward(layer, x).tobytes() == whole.tobytes(), scheme
            assert bands.call_count == 0, scheme
        out = layers.forward(cp, x)
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

    def test_column_block_keeps_its_slabs(self):
        # Block 2 of the 3-D column (64 -> 128, rank 384, 32x32x16): the
        # rank sets slabs of 13 planes of 512 columns, under the column cap,
        # so each of the forward's 2 rank tiles (15-plane windows of 192
        # channels) still runs 3 trailing GEMMs (13 + 13 + 6 planes).
        rng = np.random.default_rng(182)
        cp = make_cp_layer(rng, 128, 64, (3, 3, 3), 384, 1, 1)
        x = rng.standard_normal((64, 32, 32, 16))
        tail = cp.stages[-1].matrix
        columns, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            if np.shares_memory(a, tail):
                columns.append((a.shape[1], b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(np, "matmul", spy):
            out = layers.forward(cp, x)
        assert columns == [(192, 13 * 512), (192, 13 * 512), (192, 6 * 512)] * 2
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

    def test_ufunc_buffer_set_once_per_forward(self):
        # A per-channel batch norm on one block of one slab, then on blocks of
        # one channel in slabs of two planes (6 x 20 block runs): numpy's
        # ufunc buffer is set once per forward and restored, and its size
        # changes no bit.
        rng = np.random.default_rng(183)
        cp = make_cp_layer(rng, 3, 4, (3, 3), 6, 1, 1)
        bn = FrozenBatchNorm(mean=tuple(rng.uniform(-0.1, 0.1, 6)), var=tuple(rng.uniform(0.5, 2.0, 6)))
        layer = HoCpConvLayer(cp, (ReLU(), bn), rng.standard_normal((3, 4)))
        x = rng.standard_normal((4, 40, 32))
        default, setbufsize = np.getbufsize(), np.setbufsize
        for columns, block in [(2**62, 2**62), (64, 8)]:
            calls = []
            with mock.patch.object(layers, "_SLAB_COLUMNS", columns), \
                    mock.patch.object(layers, "_BLOCK_BYTES", block), \
                    mock.patch.object(np, "setbufsize", lambda size: calls.append(size) or setbufsize(size)):
                out = layers.forward(layer, x)
            assert calls[1:] == [default] and len(calls) == 2  # set, then restore
            assert np.getbufsize() == default
            with mock.patch.object(layers, "_SLAB_COLUMNS", columns), \
                    mock.patch.object(layers, "_BLOCK_BYTES", block), \
                    mock.patch.object(np, "setbufsize", lambda size: default):
                assert layers.forward(layer, x).tobytes() == out.tobytes()  # numpy's default buffer
            assert rel_error(out, untiled_fold(layer, x)) <= 1e-10


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
    def test_long_modes_keep_depthwise_conv(self, monkeypatch, extents):
        # Both modes are longer than _BAND_EXTENT. Slabs of _SLAB_COLUMNS
        # columns cut mode 0 into windows of 36 or 23 planes (the last one
        # shorter), which conv_mode_0 takes as bands, one call per window;
        # conv_mode_1 runs along the whole of mode 1 and keeps flat shifts.
        rng = np.random.default_rng(140)
        cp = make_cp_layer(rng, 2, 2, (3, 3), 2, 1, 1)
        x = rng.standard_normal((2,) + extents)
        calls, banded, flat = {}, layers.banded_mode_conv, layers.depthwise_conv

        def count(name, mode):
            calls[name, mode] = calls.get((name, mode), 0) + 1

        def spy_banded(z, bands, mode, out=None):
            count("banded_mode_conv", mode)
            return banded(z, bands, mode, out)

        def spy_flat(z, taps, strides, paddings, out=None):
            count("depthwise_conv", int(np.argmax(taps.shape[:-1])))  # the mode its taps move
            return flat(z, taps, strides, paddings, out)

        monkeypatch.setattr(layers, "banded_mode_conv", spy_banded)
        monkeypatch.setattr(layers, "depthwise_conv", spy_flat)
        out = layers.forward(cp, x)
        slabs = -(-extents[0] // (layers._SLAB_COLUMNS // extents[1]))
        assert calls == {("banded_mode_conv", 0): slabs, ("depthwise_conv", 1): slabs}
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10

    def test_merged_mobilenet_taps_keep_depthwise_conv(self, calls):
        rng = np.random.default_rng(141)
        k = random_kruskal(rng, (3, 4, 3, 3), 4)
        x = rng.standard_normal((4, 8, 8))
        for block in (random_mobilenet_v1(rng, 3, 4, (3, 3), 1, 1), build_mobilenet_v2(k, 2, 0)):
            layers.forward(block, x)
        assert calls == {"depthwise_conv": 2, "banded_mode_conv": 0}

    def test_short_modes_take_bands(self, calls):
        rng = np.random.default_rng(142)
        cp = make_cp_layer(rng, 3, 2, (3, 3, 3), 4, 1, 1)
        x = rng.standard_normal((2, 32, 32, 16))
        out = layers.forward(cp, x)
        # Two slabs of 16 planes of 32 x 16 (8192 columns), three banded stages each.
        assert calls == {"depthwise_conv": 0, "banded_mode_conv": 6}
        assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10


class TestBandWorkspace:
    """The streamed forward holds band matrices for one channel block at a time."""

    def test_peak_does_not_grow_with_band_storage(self):
        # One full-rank slab of a (8, 4, 32, 32) input, with modes 1 and 2
        # banded. Bands for the whole rank would hold rank x 2 x 32 x 32
        # doubles: 4 MiB at rank 256, 8 MiB at 512. Besides the line buffer
        # (the rank's contracted input planes) and the output, the forward
        # holds one block's chain: a stage's input and output, each at most
        # _BLOCK_BYTES at this geometry, and the block's band workspaces
        # (0.25 MiB). That excess must not grow with the rank.
        excess = {}
        for rank in (256, 512):
            rng = np.random.default_rng(170)
            cp = make_cp_layer(rng, 8, 8, (3, 3, 3), rank, 1, 1)
            x = rng.standard_normal((8, 4, 32, 32))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = layers.forward(cp, x)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            excess[rank] = peak - 8 * rank * x[0].size - out.nbytes
            assert rel_error(out, conv_nd_direct(x, cp.dense_kernel(), cp.spec)) <= 1e-10
        assert excess[256] < 3 * layers._BLOCK_BYTES
        assert excess[512] < excess[256] + 2**16

    @pytest.mark.parametrize("moved,shift", [(2, 3), (2, 2), (3, 1)])
    def test_carry_allocates_nothing(self, moved, shift):
        # 32 rows of 5 planes of 612: the plane-by-plane 2-D self-assignment
        # copied each moved plane (32 x 612 doubles, 157 kB) through a
        # temporary, since source and target rows interleave in memory.
        plane = 612
        rows = np.random.default_rng(171).standard_normal((32, 5 * plane))
        expected = rows.copy()
        expected[:, :moved * plane] = rows[:, shift * plane:(shift + moved) * plane]
        tracemalloc.start()
        try:
            layers._carry(rows, moved, shift, plane)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.tobytes() == expected.tobytes()
        assert peak < 8 * plane  # a byte view, not one row's plane

    def test_activations_never_write_into_x_or_the_window(self):
        # Without a leading contraction the window holds copies of x's
        # planes, which a next slab may read again, so a ReLU first in the
        # chain must not run in place, on them or on x.
        rng = np.random.default_rng(172)
        stages = (
            layers.Activate(0, ReLU()),
            layers.Depthwise("conv_mode_1", rng.standard_normal((1, 3, 4)), (1, 1), (0, 1)),
            layers.Contract("contract_out", rng.standard_normal((3, 4))),
        )
        layer = types.SimpleNamespace(stages=stages, spec=ConvSpec(4, 3, (1, 3), 1, (0, 1)))
        x = rng.standard_normal((4, 9, 8))
        before = x.copy()
        out = layers.forward(layer, x)
        assert x.tobytes() == before.tobytes()
        assert out.tobytes() == untiled_fold(layer, x).tobytes()


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

    @pytest.mark.parametrize("slope", [1.5, -0.5, 0.0])
    @pytest.mark.parametrize("slot", [0, 1], ids=["mid-chain", "last-per-channel"])
    def test_other_slopes_in_streamed_forward(self, slope, slot):
        """The streamed forward runs a PReLU with ``out``: these slopes write
        the np.where result into the chain's buffers."""
        rng = np.random.default_rng(152)
        cp = make_cp_layer(rng, 4, 3, (3, 3), 5, 1, 1)
        acts = [None, None]
        acts[slot] = PReLU(slope)
        layer = CpConvLayer(cp.kruskal, cp.spec, tuple(acts))
        x = rng.standard_normal((3, 9, 8))
        out = forward(layer, x)
        assert out.tobytes() == untiled_fold(layer, x).tobytes()
        assert rel_error(out, forward_naive(layer, x)) <= 1e-10

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
