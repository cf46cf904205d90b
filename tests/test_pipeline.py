import json

import numpy as np
import pytest

from tensorconv import (
    ConvSpec,
    CpConvLayer,
    DimensionError,
    FrozenBatchNorm,
    HoCpConvLayer,
    KruskalTensor,
    PReLU,
    RankError,
    ReLU,
    compress,
    conv_nd_direct,
    execute_plan,
    forward,
    kruskal_to_dense,
    load_plan,
    save_plan,
    verify_equivalence,
)
from tensorconv.costs import params_hocp, report_hocp
from tensorconv.pipeline import FactorizedPlan, with_conv_params

from helpers import random_kruskal, rel_error


class TestCompress:
    def test_full_rank_cp_small_kernel(self):
        rng = np.random.default_rng(100)
        w = rng.standard_normal((2, 2, 2, 2))
        res = compress(w, "cp", 8, seed=3, tol=1e-14, max_iters=3000)
        assert res.kernel_rel_error < 1e-6
        assert res.output_rel_error < 1e-6

    def test_rank1_kernel_cp_rank1(self):
        rng = np.random.default_rng(101)
        w = kruskal_to_dense(random_kruskal(rng, (3, 4, 3, 3), 1))
        res = compress(w, "cp", 1, seed=0, tol=1e-14)
        assert res.kernel_rel_error < 1e-8
        assert res.output_rel_error < 1e-8

    def test_zero_kernel(self):
        res = compress(np.zeros((2, 3, 2, 2)), "cp", 2, seed=0)
        assert res.kernel_rel_error == 0.0
        assert res.output_rel_error == 0.0
        out = execute_plan(res.plan, np.ones((3, 5, 5)))
        assert np.all(out == 0.0)

    def test_telemetry_of_winning_cp_restart(self):
        rng = np.random.default_rng(103)
        w = rng.standard_normal((3, 2, 2, 2))
        res = compress(w, "cp", 2, seed=4, max_iters=7, tol=0.0, restarts=3)
        assert res.n_iters == 7 and not res.converged
        assert len(res.error_history) == 7
        assert min(res.error_history) == pytest.approx(res.kernel_rel_error, rel=1e-9)
        assert res.warnings == ()

    def test_restart_errors_and_winner(self):
        rng = np.random.default_rng(105)
        w = rng.standard_normal((4, 3, 3, 3))
        res = compress(w, "cp", 3, seed=2, max_iters=6, tol=0.0, restarts=4)
        assert len(res.restart_errors) == 4
        assert len(set(res.restart_errors)) > 1
        assert res.restart_errors[res.winning_restart] == min(res.restart_errors)
        assert res.restart_errors.index(min(res.restart_errors)) == res.winning_restart
        # The cp plan is the winner's Kruskal tensor, so its error is the same float.
        assert res.restart_errors[res.winning_restart] == res.kernel_rel_error
        tucker = compress(w, "tucker", (2, 2), max_iters=5)
        assert tucker.restart_errors == () and tucker.winning_restart is None

    def test_tucker_rank_cap_is_reported(self):
        rng = np.random.default_rng(104)
        res = compress(rng.standard_normal((4, 3, 2, 2)), "tucker", (6, 2), max_iters=50)
        assert res.warnings == ("rank 6 at mode 0 capped at extent 4",)
        assert res.n_iters == len(res.error_history)
        assert res.converged

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(102)
        w = rng.standard_normal((2, 3, 2, 2))
        a = compress(w, "cp", 3, seed=9, max_iters=50)
        b = compress(w, "cp", 3, seed=9, max_iters=50)
        assert a.kernel_rel_error == b.kernel_rel_error
        assert a.output_rel_error == b.output_rel_error

    def test_cp_rank_monotonicity_fixed_seed(self):
        w = np.random.default_rng(42).standard_normal((3, 3, 3, 3))
        errors = [
            compress(w, "cp", r, seed=7, tol=1e-12, max_iters=800).kernel_rel_error
            for r in range(1, 6)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_cost_after_matches_analytic_formula(self):
        rng = np.random.default_rng(103)
        w = rng.standard_normal((3, 4, 3, 3))
        res = compress(w, "cp", 5, seed=0, max_iters=30)
        assert res.cost_after.params == params_hocp(res.plan.spec, 5)
        res_tk = compress(w, "tucker", (2, 3), seed=0)
        r0, r1 = res_tk.plan.layer.ranks
        kernel_vol = 9
        assert res_tk.cost_after.params == r1 * 4 + r0 * r1 * kernel_vol + 3 * r0
        assert (r0, r1) == (2, 3)

    def test_tucker_full_ranks_exact(self):
        rng = np.random.default_rng(104)
        w = rng.standard_normal((3, 4, 2, 2))
        res = compress(w, "tucker", w.shape, seed=0)
        assert res.kernel_rel_error < 1e-12
        assert res.output_rel_error < 1e-12

    def test_tucker_two_rank_shorthand_keeps_spatial_full(self):
        rng = np.random.default_rng(105)
        w = rng.standard_normal((4, 3, 3, 3))
        res = compress(w, "tucker", (2, 2), seed=0)
        assert res.plan.layer.core.shape == (2, 2, 3, 3)

    def test_mobilenet_v2_matches_cp_error(self):
        rng = np.random.default_rng(106)
        w = kruskal_to_dense(random_kruskal(rng, (4, 2, 3, 3), 2))
        res_cp = compress(w, "cp", 2, seed=1, tol=1e-14)
        res_v2 = compress(w, "mobilenet-v2", 2, seed=1, tol=1e-14)
        # v2 merges only the spatial stages, so it carries the same kernel
        assert res_v2.kernel_rel_error < 1e-8
        assert abs(res_v2.kernel_rel_error - res_cp.kernel_rel_error) < 1e-10

    def test_mobilenet_v1_defaults_to_channel_rank(self):
        rng = np.random.default_rng(107)
        w = rng.standard_normal((3, 4, 2, 2))
        res = compress(w, "mobilenet-v1", None, seed=0, max_iters=30)
        assert res.plan.layer.rank == 4

    def test_hocp_plan_runs_like_cp(self):
        rng = np.random.default_rng(108)
        w = rng.standard_normal((2, 3, 2, 2))
        res_cp = compress(w, "cp", 2, seed=4, max_iters=40)
        res_ho = compress(w, "hocp", 2, seed=4, max_iters=40)
        x = rng.standard_normal((3, 6, 6))
        assert np.array_equal(execute_plan(res_cp.plan, x), execute_plan(res_ho.plan, x))

    def test_validation_errors(self):
        rng = np.random.default_rng(109)
        w = rng.standard_normal((3, 4, 2, 2))
        with pytest.raises(RankError, match="mobilenet-v1 requires rank == input channels"):
            compress(w, "mobilenet-v1", 3)
        with pytest.raises(ValueError, match="unknown scheme"):
            compress(w, "svd", 2)
        with pytest.raises(RankError):
            compress(w, "cp", (2, 3))
        with pytest.raises(RankError):
            compress(w, "tucker", (2, 2, 2))
        with pytest.raises(DimensionError):
            compress(rng.standard_normal((3, 4)), "cp", 2)
        with pytest.raises(DimensionError, match="order >= 3"):
            compress(rng.standard_normal((3, 4)), "mobilenet-v2", 2)

    @pytest.mark.parametrize("scheme", ["mobilenet-v1", "mobilenet-v2"])
    def test_mobilenet_on_3d_kernel(self, tmp_path, scheme):
        rng = np.random.default_rng(111)
        w = rng.standard_normal((3, 4, 3, 2, 3))
        res = compress(w, scheme, 4, seed=0, max_iters=30, padding=1)
        plan = res.plan
        x = rng.standard_normal((4, 7, 5, 6))
        out = execute_plan(plan, x)
        assert rel_error(out, conv_nd_direct(x, plan.layer.dense_kernel(), plan.spec)) <= 1e-10
        loaded = load_plan(save_plan(plan, tmp_path))
        assert execute_plan(loaded, x).tobytes() == out.tobytes()
        for (role, a), (_, b) in zip(loaded.layer.factors, plan.layer.factors):
            assert a.tobytes() == b.tobytes(), role

    def test_plan_stage_labels_match_scheme(self):
        rng = np.random.default_rng(110)
        w = rng.standard_normal((2, 3, 2, 2))
        labels = [s.label for s in compress(w, "cp", 2, seed=0, max_iters=20).plan.stages]
        assert labels == ["contract_in", "conv_mode_0", "conv_mode_1", "contract_out"]
        labels = [s.label for s in compress(w, "tucker", (2, 2), seed=0).plan.stages]
        assert labels == ["contract_in", "core_conv", "contract_out"]
        labels = [
            s.label
            for s in compress(w, "mobilenet-v2", 3, seed=0, max_iters=20).plan.stages
        ]
        assert labels == ["contract_in", "depthwise", "contract_out"]


class TestVerifyEquivalence:
    def _exact_plan_and_kernel(self, seed=200, rank=2):
        rng = np.random.default_rng(seed)
        k = random_kruskal(rng, (3, 4, 3, 3), rank)
        spec = ConvSpec(4, 3, (3, 3))
        layer = CpConvLayer(k, spec)
        extents = (8, 8)
        plan = FactorizedPlan("cp", layer, report_hocp(spec, rank, extents), extents)
        return plan, kruskal_to_dense(k)

    def test_exact_plan_passes(self):
        plan, kernel = self._exact_plan_and_kernel()
        report = verify_equivalence(plan, kernel, tolerance=1e-10, seed=1)
        assert report.passed
        assert report.max_rel_deviation < 1e-12

    def test_perturbed_factor_fails_with_reported_probe(self):
        plan, kernel = self._exact_plan_and_kernel()
        factors = list(plan.layer.kruskal.factors)
        factors[0] = factors[0] + 1e-2
        bad_layer = CpConvLayer(KruskalTensor(tuple(factors)), plan.spec)
        bad_plan = FactorizedPlan("cp", bad_layer, plan.cost, plan.reference_input_extents)
        report = verify_equivalence(bad_plan, kernel, tolerance=1e-8, seed=1)
        assert not report.passed
        assert report.max_rel_deviation > 1e-4
        assert 0 <= report.worst_probe_index < report.n_probes
        assert report.probe_seed == 1
        assert "fail" in report.summary()

    def test_infinite_tolerance_always_passes(self):
        plan, kernel = self._exact_plan_and_kernel()
        factors = list(plan.layer.kruskal.factors)
        factors[0] = factors[0] + 10.0
        bad_layer = CpConvLayer(KruskalTensor(tuple(factors)), plan.spec)
        bad_plan = FactorizedPlan("cp", bad_layer, plan.cost, plan.reference_input_extents)
        report = verify_equivalence(bad_plan, kernel, tolerance=float("inf"), seed=0)
        assert report.passed

    def test_nan_factor_fails(self):
        plan, kernel = self._exact_plan_and_kernel()
        factors = list(plan.layer.kruskal.factors)
        factors[2] = factors[2].copy()
        factors[2][0, 0] = np.nan
        bad_layer = CpConvLayer(KruskalTensor(tuple(factors)), plan.spec)
        bad_plan = FactorizedPlan("cp", bad_layer, plan.cost, plan.reference_input_extents)
        for tolerance in (1e-8, float("inf")):
            report = verify_equivalence(bad_plan, kernel, tolerance=tolerance, seed=0)
            assert not report.passed
            assert np.isnan(report.max_rel_deviation)
            assert report.worst_probe_index == 0

    def test_kernel_shape_must_match_plan(self):
        plan, _ = self._exact_plan_and_kernel()
        with pytest.raises(DimensionError):
            verify_equivalence(plan, np.zeros((3, 4, 2, 2)), tolerance=1.0)


class TestPlanSerialization:
    @pytest.mark.parametrize("scheme,ranks", [
        ("cp", 2),
        ("tucker", (2, 3)),
        ("mobilenet-v1", None),
        ("mobilenet-v2", 3),
        ("hocp", 2),
    ])
    def test_round_trip_preserves_outputs(self, tmp_path, scheme, ranks):
        rng = np.random.default_rng(300)
        w = rng.standard_normal((3, 4, 3, 3))
        res = compress(w, scheme, ranks, seed=2, max_iters=40)
        manifest = save_plan(res.plan, tmp_path / scheme)
        loaded = load_plan(manifest)
        assert loaded.scheme == scheme
        x = rng.standard_normal((4, 6, 6))
        assert np.array_equal(execute_plan(loaded, x), execute_plan(res.plan, x))
        assert loaded.cost == res.plan.cost

    def test_manifest_lists_factor_roles(self, tmp_path):
        rng = np.random.default_rng(301)
        w = rng.standard_normal((2, 3, 2, 2))
        res = compress(w, "cp", 2, seed=0, max_iters=20)
        manifest_path = save_plan(res.plan, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        roles = {f["role"] for f in manifest["factors"]}
        assert roles == {"output_channels", "input_channels", "spatial_mode_0", "spatial_mode_1"}
        for entry in manifest["factors"]:
            assert (tmp_path / entry["file"]).exists()
        assert manifest["scheme"] == "cp"
        assert manifest["cost"]["params"] == res.cost_after.params

    def test_hocp_with_activations_and_skip_round_trip(self, tmp_path):
        rng = np.random.default_rng(302)
        spec = ConvSpec(3, 3, (3, 3), strides=1, paddings=1)
        k = random_kruskal(rng, (3, 3, 3, 3), 4)
        layer = HoCpConvLayer(
            CpConvLayer(k, spec),
            activations=(ReLU(), FrozenBatchNorm(mean=(0.1, 0.0, -0.1, 0.2), var=(1.0, 2.0, 0.5, 1.5))),
            skip=rng.standard_normal((3, 3)),
        )
        plan = FactorizedPlan("hocp", layer, report_hocp(spec, 4, (6, 6), include_skip=True), (6, 6))
        loaded = load_plan(save_plan(plan, tmp_path))
        x = rng.standard_normal((3, 6, 6))
        assert np.array_equal(forward(loaded.layer, x), forward(layer, x))
        assert isinstance(loaded.layer.activations[0], ReLU)
        assert isinstance(loaded.layer.activations[1], FrozenBatchNorm)

    def test_prelu_round_trip(self, tmp_path):
        rng = np.random.default_rng(303)
        spec = ConvSpec(2, 2, (3,), paddings=1)
        layer = HoCpConvLayer(
            CpConvLayer(random_kruskal(rng, (2, 2, 3), 2), spec),
            activations=(PReLU(0.125),),
        )
        plan = FactorizedPlan("hocp", layer, report_hocp(spec, 2, (5,)), (5,))
        loaded = load_plan(save_plan(plan, tmp_path))
        assert loaded.layer.activations == (PReLU(0.125),)

    def test_load_rejects_non_manifest(self, tmp_path):
        from tensorconv import ContainerError

        bad = tmp_path / "plan.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(ContainerError, match="not a plan manifest"):
            load_plan(bad)


class TestWithConvParams:
    def test_override_changes_execution_geometry(self):
        rng = np.random.default_rng(400)
        w = rng.standard_normal((2, 3, 3, 3))
        res = compress(w, "cp", 2, seed=0, max_iters=20)
        plan_same = with_conv_params(res.plan, 1, 1)
        x = rng.standard_normal((3, 6, 6))
        out = execute_plan(plan_same, x)
        assert out.shape == (2, 6, 6)
        direct = conv_nd_direct(x, plan_same.layer.dense_kernel(), plan_same.spec)
        assert rel_error(out, direct) < 1e-10
