import hashlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tensorconv import (
    ContainerError,
    ConvSpec,
    CpConvLayer,
    DimensionError,
    FrozenBatchNorm,
    HoCpConvLayer,
    KruskalTensor,
    MobileNetV1Block,
    MobileNetV2Block,
    PReLU,
    RankError,
    ReLU,
    TuckerConvLayer,
    compress,
    costs,
    conv_nd_direct,
    execute_plan,
    forward,
    kruskal_to_dense,
    load_plan,
    save_plan,
    verify_equivalence,
    write_tensor,
)
from tensorconv.cli import main as cli_main
from tensorconv.costs import params_hocp, report_hocp
from tensorconv import pipeline
from tensorconv.pipeline import FactorizedPlan, with_conv_params

from helpers import BAD_SWEEP_CONTROLS, random_kruskal, rel_error


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

    def test_restart_sweeps_and_convergence(self):
        # Each restart stops at its own tol; the winner's are the result's own.
        w = np.random.default_rng(54).standard_normal((4, 3, 3, 3))
        res = compress(w, "cp", 3, seed=0, max_iters=300, tol=1e-6, restarts=3)
        assert len(set(res.restart_iters)) == 3
        assert res.restart_converged == (True, True, True)
        assert res.restart_iters[res.winning_restart] == res.n_iters
        assert len(res.error_history) == res.n_iters
        capped = compress(w, "cp", 3, seed=0, max_iters=5, tol=1e-6, restarts=2)
        assert capped.restart_iters == (5, 5) and capped.restart_converged == (False, False)
        tucker = compress(w, "tucker", (2, 2), max_iters=5)
        assert tucker.restart_iters == () and tucker.restart_converged == ()

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
        res = compress(w, "tucker", w.shape[:2], seed=0)
        assert res.kernel_rel_error < 1e-12
        assert res.output_rel_error < 1e-12

    def test_tucker_full_rank_plan_is_the_kernel(self):
        """Full channel ranks leave nothing to fit: ``down`` and ``up`` are
        identities and the core is the kernel, bit for bit."""
        w = np.random.default_rng(110).standard_normal((5, 4, 3, 2, 3))
        res = compress(w, "tucker", (5, 4), seed=0)
        layer = res.plan.layer
        assert np.array_equal(layer.down, np.eye(4)) and np.array_equal(layer.up, np.eye(5))
        assert layer.core.tobytes() == w.tobytes() and layer.core is not w
        assert res.kernel_rel_error == 0.0

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

    def test_mobilenet_v1_is_closed_form(self):
        # No ALS: the plan is the same whatever the seed, restarts and sweep
        # cap, and the telemetry says no iteration and no restart ran.
        w = np.random.default_rng(112).standard_normal((3, 4, 3, 3))
        runs = [
            compress(w, "mobilenet-v1", 4, seed=seed, restarts=restarts, max_iters=max_iters)
            for seed, restarts, max_iters in ((0, 3, 500), (9, 1, 1), (5, 7, 30))
        ]
        for res in runs:
            assert (res.n_iters, res.converged, res.error_history) == (0, True, ())
            assert res.restart_errors == () and res.winning_restart is None
            for (role, a), (_, b) in zip(res.plan.layer.factors, runs[0].plan.layer.factors):
                assert a.tobytes() == b.tobytes(), role

    @pytest.mark.parametrize("seed,als_error", [(11, 1.602), (21, 1.539), (22, 1.567), (23, 1.673)])
    def test_mobilenet_v1_beats_als_on_a_random_2d_kernel(self, seed, als_error):
        # The benchmark's (48, 32, 3, 3) kernel draw. CP-ALS paired with
        # channels by index (15 sweeps, 1 restart) ended at ``als_error``,
        # worse than the zero kernel.
        w = np.random.default_rng(seed).standard_normal((48, 32, 3, 3)) / math.sqrt(32 * 9)
        err = compress(w, "mobilenet-v1", 32, seed=seed, padding=1).kernel_rel_error
        assert err < 1.0 and err <= als_error

    @pytest.mark.parametrize("scheme,ranks", [
        ("cp", 2), ("tucker", (2, 2)), ("mobilenet-v1", None), ("mobilenet-v2", 2), ("hocp", 2),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_raises(self, scheme, ranks, bad):
        w = np.random.default_rng(113).standard_normal((3, 4, 3, 3))
        w[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match="holds NaN or infinite values"):
            compress(w, scheme, ranks)

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
        with pytest.raises(RankError, match="integers"):
            compress(w, "cp", 1.7)
        with pytest.raises(DimensionError):
            compress(rng.standard_normal((3, 4)), "cp", 2)
        with pytest.raises(DimensionError, match="order >= 3"):
            compress(rng.standard_normal((3, 4)), "mobilenet-v2", 2)

    @pytest.mark.parametrize("restarts,error", [(0, ValueError), (-2, ValueError), (2.7, TypeError)])
    def test_restarts_read_as_integer(self, restarts, error):
        """restarts 0 and -2 used to run one restart, and 2.7 two."""
        w = np.random.default_rng(110).standard_normal((3, 4, 2, 2))
        with pytest.raises(error):
            compress(w, "cp", 2, max_iters=3, restarts=restarts)

    SCHEMES = [("cp", 2), ("hocp", 2), ("tucker", (2, 2)), ("mobilenet-v1", None), ("mobilenet-v2", 2)]

    @staticmethod
    def record_fits_and_probes(monkeypatch) -> list:
        """Replace every fit and ``_worst_probe`` by a recorder of its calls."""
        calls = []
        for name in ("_cp_als_lockstep", "tucker_hooi", "depthwise_separable", "_worst_probe"):
            monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: calls.append(args))
        return calls

    @pytest.mark.parametrize("name,value,error", BAD_SWEEP_CONTROLS)
    @pytest.mark.parametrize("scheme,ranks", SCHEMES)
    def test_sweep_controls_fail_closed(self, monkeypatch, scheme, ranks, name, value, error):
        """Every scheme rejects them, mobilenet-v1 too, though it never sweeps.
        A bool tol ran as 1.0, and a str one raised from a comparison."""
        calls = self.record_fits_and_probes(monkeypatch)
        w = np.random.default_rng(112).standard_normal((3, 4, 2, 2))
        with pytest.raises(error):
            compress(w, scheme, ranks, **{"max_iters": 3, name: value})
        assert calls == []  # raised before any decomposition or probe

    @pytest.mark.parametrize("seed,error", [
        (True, TypeError), (1.5, TypeError), (None, TypeError), (-1, ValueError),
    ])
    @pytest.mark.parametrize("scheme,ranks", SCHEMES)
    def test_bad_seed_raises_before_any_fit_or_probe(self, monkeypatch, scheme, ranks, seed, error):
        """True ran as seed 1; for tucker and mobilenet-v1, -1 and 1.5 were
        refused only by the probes, after the fit."""
        calls = self.record_fits_and_probes(monkeypatch)
        w = np.random.default_rng(112).standard_normal((3, 4, 2, 2))
        with pytest.raises(error):
            compress(w, scheme, ranks, seed=seed, max_iters=3)
        assert calls == []

    @pytest.mark.parametrize("ranks", [(2, 2, 3, 3), (2, 2, 2, 2), (2,), (2, 2, 2)])
    def test_tucker_takes_only_channel_ranks(self, monkeypatch, ranks):
        """The per-mode form (R_out, R_in, K_0, ...) gave the layer a full-size
        core all the same, and a truncated spatial rank only a worse fit."""
        calls = self.record_fits_and_probes(monkeypatch)
        w = np.random.default_rng(114).standard_normal((4, 3, 3, 3))
        with pytest.raises(RankError, match=r"\(R_out, R_in\)"):
            compress(w, "tucker", ranks)
        assert calls == []

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_seed_is_the_int(self, seed):
        w = np.random.default_rng(115).standard_normal((3, 4, 2, 2))
        res, expected = compress(w, "cp", 2, seed=seed, max_iters=5), compress(w, "cp", 2, seed=3, max_iters=5)
        assert res.restart_errors == expected.restart_errors
        assert res.output_rel_error == expected.output_rel_error

    def test_mobilenet_v1_rank_defaults_to_in_channels(self):
        w = np.random.default_rng(116).standard_normal((3, 4, 3, 3))
        res, expected = compress(w, "mobilenet-v1", None), compress(w, "mobilenet-v1", 4)
        for (role, a), (_, b) in zip(res.plan.layer.factors, expected.plan.layer.factors):
            assert a.tobytes() == b.tobytes(), role
        assert res.output_rel_error == expected.output_rel_error
        for scheme, ranks in self.SCHEMES:
            if ranks is not None:
                with pytest.raises(RankError, match="requires an explicit rank"):
                    compress(w, scheme, None)

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
        labels = [s.label for s in compress(w, "cp", 2, seed=0, max_iters=20).plan.cost.stages]
        assert labels == ["contract_in", "conv_mode_0", "conv_mode_1", "contract_out"]
        labels = [s.label for s in compress(w, "tucker", (2, 2), seed=0).plan.cost.stages]
        assert labels == ["contract_in", "core_conv", "contract_out"]
        labels = [
            s.label
            for s in compress(w, "mobilenet-v2", 3, seed=0, max_iters=20).plan.cost.stages
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

    def test_one_probe_at_a_time(self, monkeypatch):
        # The plan's output of one probe is freed before the next probe runs.
        plan, kernel = self._exact_plan_and_kernel()
        monkeypatch.setattr(pipeline, "_PROBE_EXTENT", 64)
        peaks = []
        for count in (1, 4):
            monkeypatch.setattr(pipeline, "_PROBE_COUNT", count)
            tracemalloc.start()
            try:
                verify_equivalence(plan, kernel, tolerance=1e-10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 1024  # one (4, 64, 64) probe is 128 KiB

    def test_probe_protocol(self):
        """Both entry points run 8 probes from ``SeedSequence(seed)``, each
        ``max(16, K_i)`` long on mode i: here (17, 16) for a (17, 3) kernel."""
        seed = 7
        w = np.random.default_rng(206).standard_normal((3, 2, 17, 3))
        res = compress(w, "cp", 2, seed=seed, max_iters=5)
        assert res.plan.reference_input_extents == (17, 16)

        def by_hand(plan):
            devs = []
            for s in np.random.SeedSequence(seed).spawn(8):
                x = np.random.default_rng(s).standard_normal((2, 17, 16))
                direct = conv_nd_direct(x, w, plan.spec)
                devs.append(np.linalg.norm((execute_plan(plan, x) - direct).ravel())
                            / np.linalg.norm(direct.ravel()))
            return max(devs), devs.index(max(devs))

        assert res.output_rel_error == by_hand(res.plan)[0]
        shifted = KruskalTensor(tuple(f + 0.1 for f in res.plan.layer.kruskal.factors))
        bad = FactorizedPlan("cp", CpConvLayer(shifted, res.plan.spec), res.plan.cost, (17, 16))
        for plan in (res.plan, bad):
            report = verify_equivalence(plan, w, tolerance=1.0, seed=seed)
            assert report.n_probes == 8
            assert (report.max_rel_deviation, report.worst_probe_index) == by_hand(plan)

    @pytest.mark.parametrize("tolerance,error", [
        (float("nan"), ValueError), (-1.0, ValueError), (-1, ValueError), (float("-inf"), ValueError),
        (True, TypeError), (np.bool_(False), TypeError), ("1e-3", TypeError), (None, TypeError),
    ])
    def test_bad_tolerance_raises_before_any_probe(self, monkeypatch, tolerance, error):
        """NaN and -1 failed the plan as if it deviated, True passed as 1.0,
        and "1e-3" and None raised from the comparison after all 8 probes."""
        plan, kernel = self._exact_plan_and_kernel()
        probes = []
        monkeypatch.setattr(pipeline, "_worst_probe", lambda *args: probes.append(args))
        with pytest.raises(error, match="tolerance"):
            verify_equivalence(plan, kernel, tolerance=tolerance)
        assert probes == []

    @pytest.mark.parametrize("seed,error", [
        (True, TypeError), (1.5, TypeError), (None, TypeError), (-1, ValueError),
    ])
    def test_bad_seed_raises_before_any_probe(self, monkeypatch, seed, error):
        """True was reported as probe_seed=True."""
        plan, kernel = self._exact_plan_and_kernel()
        probes = []
        monkeypatch.setattr(pipeline, "_worst_probe", lambda *args: probes.append(args))
        with pytest.raises(error):
            verify_equivalence(plan, kernel, tolerance=1.0, seed=seed)
        assert probes == []

    @pytest.mark.parametrize("tolerance", [0, 0.0, np.float32(1e-8), np.int64(1)])
    def test_numeric_tolerance_is_a_float(self, tolerance):
        plan, kernel = self._exact_plan_and_kernel()
        report = verify_equivalence(plan, kernel, tolerance=tolerance)
        assert type(report.tolerance) is float and report.tolerance == float(tolerance)

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
        assert "cost" not in manifest  # load_plan derives it from the layer

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

    def test_interrupted_resave_leaves_no_manifest(self, tmp_path):
        """The old plan.json used to stay, naming a mix of new and old parts."""
        plan = _fixed_plans()["cp"]
        path = save_plan(plan, tmp_path / "plan")
        calls = []

        def second_write_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return write_tensor(*args, **kwargs)

        with mock.patch.object(pipeline, "write_tensor", second_write_fails):
            with pytest.raises(OSError, match="no space"):
                save_plan(plan, tmp_path / "plan")
        with pytest.raises(ContainerError, match="cannot read plan manifest"):
            load_plan(path)

    def test_load_rejects_non_manifest(self, tmp_path):
        from tensorconv import ContainerError

        bad = tmp_path / "plan.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(ContainerError, match="not a plan manifest"):
            load_plan(bad)

    @pytest.mark.parametrize("extents", [[5.7, 4, 6], [0, 4, 6], [5, True, 6], ["5", 4, 6], [5, 4], [5, 4, 6, 7]])
    def test_malformed_reference_extents_fail_closed(self, tmp_path, extents):
        """[5.7, 4, 6] used to load, costed as [5, 4, 6]; [5, 4] and
        [5, 4, 6, 7] loaded too, costed on two and three modes."""
        path = save_plan(_fixed_plans()["cp"], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        manifest["reference_input_extents"] = extents
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)
        x = tmp_path / "x.tensor"
        write_tensor(x, np.zeros((3, 5, 4, 6)))
        argv = ["conv", "--input", x, "--plan", path, "--out", tmp_path / "y.tensor"]
        assert cli_main([str(a) for a in argv]) == 2

    # (the factor moved, the name the manifest gives it, where it now lies under
    # tmp_path); ``None`` names it by its absolute path.
    OUTSIDE = [
        ("spatial_mode_0.tensor", "../x.tensor", "x.tensor"),
        ("spatial_mode_0.tensor", None, "x.tensor"),
        ("spatial_mode_0.tensor", "sub/x.tensor", "plan/sub/x.tensor"),
        ("skip.tensor", "../skip.tensor", "skip.tensor"),
    ]

    @pytest.mark.parametrize("moved,named,location", OUTSIDE,
                             ids=["parent-dir", "absolute", "subdirectory", "skip-parent-dir"])
    def test_file_outside_the_plan_directory_fails_closed(self, tmp_path, moved, named, location):
        """Each file lies where the manifest says and holds a valid factor:
        all four used to load."""
        path = save_plan(_fixed_plans()["hocp-extras"], tmp_path / "plan")
        target = tmp_path / location
        target.parent.mkdir(exist_ok=True)
        (path.parent / moved).rename(target)
        named = named or str(target)
        manifest = json.loads(path.read_text())
        if moved == "skip.tensor":
            manifest["skip"] = named
        else:
            next(e for e in manifest["factors"] if e["file"] == moved)["file"] = named
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(f"{path}: the manifest names its parts") + ".*" + re.escape(repr(named))):
            load_plan(path)

    @pytest.mark.parametrize("version", [2, "1", True, None, 1.0, "missing"],
                             ids=["int-2", "string-1", "true", "null", "float-1.0", "missing"])
    def test_version_other_than_1_fails_closed(self, tmp_path, version):
        """Every one of these used to load as version 1."""
        path = save_plan(_fixed_plans()["cp"], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        if version == "missing":
            del manifest["version"]
        else:
            manifest["version"] = version
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)


class TestHoCpPlans:
    """``compress`` and ``load_plan`` build an HO-CP layer as a :class:`CpConvLayer`."""

    def test_compress_and_load_give_cp_layers(self, tmp_path):
        w = np.random.default_rng(305).standard_normal((3, 4, 3, 3))
        res = compress(w, "hocp", 2, seed=2, max_iters=20)
        assert type(res.plan.layer) is CpConvLayer
        assert res.plan.layer.activations == (None,) * 2 and res.plan.layer.skip is None
        assert type(load_plan(save_plan(res.plan, tmp_path / "compressed")).layer) is CpConvLayer
        for name in ("hocp", "hocp-extras"):
            loaded = load_plan(save_plan(_fixed_plans()[name], tmp_path / name)).layer
            assert type(loaded) is CpConvLayer
            assert (loaded.skip is not None) == (name == "hocp-extras")

    def test_cp_layer_with_extras_writes_the_recorded_hocp_bytes(self, tmp_path):
        plan = _fixed_plans()["hocp-extras"]
        ho = plan.layer
        layer = CpConvLayer(ho.kruskal, ho.spec, ho.activations, ho.skip)
        save_plan(FactorizedPlan("hocp", layer, plan.cost, plan.reference_input_extents), tmp_path)
        assert _digests(tmp_path) == TestPlanBytes.DIGESTS["hocp-extras"]


class TestPlanCarriesItsLayer:
    """A plan file holds what its layer holds: ``save_plan`` writes a CP
    layer's activations and skip whatever its scheme label, and ``load_plan``
    reads exactly the keys the manifest holds."""

    EXTRAS = {"none": (False, False), "activations": (True, False), "skip": (False, True), "both": (True, True)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("extras", list(EXTRAS))
    @pytest.mark.parametrize("label", ["cp", "hocp"])
    def test_round_trip_is_bitwise(self, tmp_path, label, extras, n):
        """The ``cp``-labelled cases with extras used to reload without them."""
        rng = np.random.default_rng(306 + n)
        rank, with_acts, with_skip = 4, *self.EXTRAS[extras]
        spec, extents = ConvSpec(3, 5, (3,) * n, 1, 1), (7, 6, 5)[:n]
        bn = FrozenBatchNorm(mean=tuple(rng.uniform(-0.1, 0.1, rank)), var=tuple(rng.uniform(0.5, 2.0, rank)))
        acts = (ReLU(), PReLU(0.1), bn)[:n] if with_acts else None
        skip = rng.standard_normal((5, 3)) if with_skip else None
        layer = CpConvLayer(random_kruskal(rng, (5, 3) + (3,) * n, rank), spec, acts, skip)
        save_plan(FactorizedPlan(label, layer, costs.report(layer.stages, extents), extents), tmp_path / "a")
        loaded = load_plan(tmp_path / "a" / "plan.json")
        assert loaded.scheme == label and loaded.layer.activations == acts
        assert (loaded.layer.skip is None) == (skip is None)
        x = rng.standard_normal((3,) + extents)
        assert forward(loaded.layer, x).tobytes() == forward(layer, x).tobytes()
        save_plan(loaded, tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert ("skip.tensor" in files) == with_skip
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("key", ["activations", "skip"])
    @pytest.mark.parametrize("scheme", ["tucker", "mobilenet-v1", "mobilenet-v2"])
    def test_other_schemes_refuse_cp_extras(self, tmp_path, scheme, key):
        path = save_plan(_fixed_plans()[scheme], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        if key == "skip":  # a valid (T x C) matrix beside the factors
            write_tensor(path.parent / "skip.tensor", np.zeros((4, 3)))
            manifest["skip"] = "skip.tensor"
        else:
            manifest["activations"] = [None, None, None]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)
        x = tmp_path / "x.tensor"
        write_tensor(x, np.zeros((3, 5, 4, 6)))
        argv = ["conv", "--input", x, "--plan", path, "--out", tmp_path / "y.tensor"]
        assert cli_main([str(a) for a in argv]) == 2

    @pytest.mark.parametrize("extents", ["missing", []])
    def test_reference_extents_are_required(self, tmp_path, extents):
        """Both used to load with 16-wide extents the manifest never held."""
        path = save_plan(_fixed_plans()["cp"], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        if extents == "missing":
            del manifest["reference_input_extents"]
        else:
            manifest["reference_input_extents"] = extents
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)

    @pytest.mark.parametrize("scheme,name", [
        ("tucker", "cp"), ("cp", "tucker"), ("hocp", "mobilenet-v1"), ("mobilenet-v1", "mobilenet-v2"),
        ("mobilenet-v2", "hocp-extras"), ("bogus", "cp"),
    ])
    def test_scheme_must_name_the_layer_class(self, tmp_path, scheme, name):
        """``tucker`` over a CP layer used to write a plan that load_plan refused."""
        plan = _fixed_plans()[name]
        with pytest.raises(ValueError, match="does not name a"):
            save_plan(FactorizedPlan(scheme, plan.layer, plan.cost, plan.reference_input_extents), tmp_path / "p")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("stride,padding", [(2, 1), (1, 0), (1, 2), ((1, 2), 1)],
                             ids=["stride-2", "padding-0", "padding-2", "one-mode-stride-2"])
    def test_skip_plan_on_a_geometry_that_moves_extents_fails_to_load(self, tmp_path, stride, padding):
        """Such a plan used to load, and raised only inside the forward."""
        path = save_plan(_fixed_plans()["hocp-extras"], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        modes = len(manifest["kernel_sizes"])
        manifest["strides"] = list(stride) + [1] if isinstance(stride, tuple) else [stride] * modes
        manifest["paddings"] = [padding, 0, padding]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match="preserved spatial extents"):
            load_plan(path)


class TestPartsAreNamedAsSaved:
    """``load_plan`` reads each part only under the name ``save_plan`` gives
    it, and checks ``ranks`` against the loaded layer. Every case below but
    ``missing-role`` used to load; the factor-less ones are refused before
    any file is opened."""

    @staticmethod
    def edit(path, case):
        manifest = json.loads(path.read_text())
        factors = manifest["factors"]
        if case == "duplicated-role":  # mode 2 used to take mode 0's factor
            factors.append({"role": "spatial_mode_2", "file": "spatial_mode_0.tensor"})
        elif case == "unknown-role":
            factors.append({"role": "bias", "file": "spatial_mode_0.tensor"})
        elif case == "missing-role":
            del factors[-1]
        elif case == "reordered-roles":
            factors[0], factors[1] = factors[1], factors[0]
        elif case == "file-of-another-role":
            factors[4]["file"] = "spatial_mode_0.tensor"
        elif case == "renamed-factor-file":
            (path.parent / "input_copy.tensor").write_bytes((path.parent / "input_channels.tensor").read_bytes())
            factors[1]["file"] = "input_copy.tensor"
        elif case == "renamed-skip-file":
            (path.parent / "skip_copy.tensor").write_bytes((path.parent / "skip.tensor").read_bytes())
            manifest["skip"] = "skip_copy.tensor"
        elif case == "unknown-key":
            manifest["comment"] = "written by hand"
        elif case == "edited-cost":  # an older manifest's cost block, tampered with
            manifest = _with_cost_block(manifest, load_plan(path))
            manifest["cost"]["flops"] = 1
        elif case == "extra-entry-field":
            factors[0]["note"] = "ignored"
        elif case == "ranks-99":
            manifest["ranks"] = [99]
        elif case == "ranks-reversed":  # Tucker's (R_out, R_in) as (R_in, R_out)
            manifest["ranks"] = manifest["ranks"][::-1]
        elif case == "ranks-float":
            manifest["ranks"] = [float(r) for r in manifest["ranks"]]
        else:
            assert case == "no-ranks"
            del manifest["ranks"]
        path.write_text(json.dumps(manifest))

    @staticmethod
    def exit_codes(path):
        x, kernel = path.parent / "x.tensor", path.parent / "kernel.tensor"
        write_tensor(x, np.zeros((3, 5, 4, 6)))
        write_tensor(kernel, np.zeros((4, 3, 3, 1, 3)))
        return (cli_main(["conv", "--input", str(x), "--plan", str(path), "--out", str(path.parent / "y.tensor")]),
                cli_main(["verify", "--plan", str(path), "--kernel", str(kernel), "--tolerance", "1"]))

    @pytest.mark.parametrize("name,case", [
        ("cp", "duplicated-role"), ("cp", "unknown-role"), ("cp", "missing-role"), ("cp", "reordered-roles"),
        ("cp", "file-of-another-role"), ("cp", "renamed-factor-file"), ("hocp-extras", "renamed-skip-file"),
    ])
    def test_parts_named_otherwise_fail_before_any_file_is_opened(self, tmp_path, monkeypatch, name, case):
        path = save_plan(_fixed_plans()[name], tmp_path / "plan")
        self.edit(path, case)
        monkeypatch.setattr(pipeline, "read_finite_tensor", mock.Mock(side_effect=AssertionError("a file was opened")))
        with pytest.raises(ContainerError, match=re.escape(f"{path}: the manifest names its parts")):
            load_plan(path)
        assert self.exit_codes(path) == (2, 2)
        assert not pipeline.read_finite_tensor.called

    @pytest.mark.parametrize("name,case", [
        ("cp", "ranks-99"), ("hocp-extras", "ranks-99"), ("mobilenet-v1", "ranks-99"),
        ("tucker", "ranks-reversed"), ("mobilenet-v2", "ranks-float"), ("cp", "no-ranks"),
    ])
    def test_ranks_must_be_the_layers(self, tmp_path, name, case):
        path = save_plan(_fixed_plans()[name], tmp_path / "plan")
        self.edit(path, case)
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)
        assert self.exit_codes(path) == (2, 2)

    def test_v1_part_of_another_rank_exits_2(self, tmp_path):
        """A v1 depthwise part whose taps have R != C channels breaks the stage chain."""
        path = save_plan(_fixed_plans()["mobilenet-v1"], tmp_path / "plan")
        write_tensor(path.parent / "spatial.tensor", np.ones((3, 1, 3, 4)))
        with pytest.raises(ContainerError, match=r"stage depthwise of shape \(3, 1, 3, 4\) does not take 3 channels"):
            load_plan(path)
        assert self.exit_codes(path) == (2, 2)

    @pytest.mark.parametrize("case", ["unknown-key", "edited-cost", "extra-entry-field"])
    @pytest.mark.parametrize("name", ["cp", "tucker", "hocp-extras"])
    def test_other_keys_are_ignored_and_only_the_parts_are_opened(self, tmp_path, name, case):
        plan = _fixed_plans()[name]
        path = save_plan(plan, tmp_path / "plan")
        self.edit(path, case)
        with mock.patch.object(pipeline, "read_finite_tensor", side_effect=pipeline.read_finite_tensor) as read:
            loaded = load_plan(path)
        parts = [role for role, _ in plan.layer.factors] + ["skip"] * (name == "hocp-extras")
        assert sorted(c.args[0].name for c in read.call_args_list) == sorted(f"{p}.tensor" for p in parts)
        assert all(c.args[0].parent == path.parent for c in read.call_args_list)
        assert loaded.cost == plan.cost
        x = np.random.default_rng(309).standard_normal((3, 5, 4, 6))
        assert forward(loaded.layer, x).tobytes() == forward(plan.layer, x).tobytes()


def _fixed_plans() -> dict:
    """One plan per scheme, and an HO-CP plan with ReLU, PReLU, a batch norm
    and a skip, all from seeded factors; nothing is fitted."""
    rng = np.random.default_rng(304)
    spec, extents, r = ConvSpec(3, 4, (3, 1, 3), 1, (1, 0, 1)), (5, 4, 6), 5

    def f(*shape):
        return rng.standard_normal(shape)

    kruskal = KruskalTensor((f(4, r), f(3, r), f(3, r), f(1, r), f(3, r)))
    bn = FrozenBatchNorm(mean=tuple(f(r)), var=2.0, scale=(0.5,), shift=0.25, eps=1e-3)
    layers = {
        "cp": CpConvLayer(kruskal, spec),
        "tucker": TuckerConvLayer(f(2, 3), f(3, 2, 3, 1, 3), f(4, 3), spec),
        "mobilenet-v1": MobileNetV1Block(f(3, 1, 3, 3), f(4, 3), spec),
        "mobilenet-v2": MobileNetV2Block(f(r, 3), f(3, 1, 3, r), f(4, r), spec),
        "hocp": HoCpConvLayer(CpConvLayer(kruskal, spec)),
        "hocp-extras": HoCpConvLayer(CpConvLayer(kruskal, spec), (ReLU(), PReLU(0.125), bn), f(4, 3)),
    }
    return {
        name: FactorizedPlan(name.split("-extras")[0], layer, costs.report(layer.stages, extents), extents)
        for name, layer in layers.items()
    }


def _with_cost_block(manifest: dict, plan: FactorizedPlan) -> dict:
    """``manifest`` with the ``cost`` block save_plan wrote before it was
    dropped, in its place after ``reference_input_extents``."""
    items = list(manifest.items())
    at = [key for key, _ in items].index("reference_input_extents") + 1
    cost = {
        "convention": plan.cost.convention,
        "params": plan.cost.params,
        "flops": plan.cost.flops,
        "stages": [{"label": s.label, "params": s.params, "flops": s.flops} for s in plan.cost.stages],
    }
    return dict(items[:at] + [("cost", cost)] + items[at:])


def _digests(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(directory.iterdir())}


class TestPlanBytes:
    """Plan files are byte-stable: the same layer writes the same bytes, and a
    loaded plan writes back the bytes it was read from."""

    # sha256 prefixes of the files save_plan wrote for _fixed_plans() when this
    # test was added; a change to the plan format must update them on purpose.
    CP_FACTORS = {
        "output_channels.tensor": "d52dc1c4cd9e07df",
        "input_channels.tensor": "b8a6474fef73890c",
        "spatial_mode_0.tensor": "330b0cfb5758d400",
        "spatial_mode_1.tensor": "1fba148c8123294c",
        "spatial_mode_2.tensor": "99786bc1ed48f1c1",
    }
    DIGESTS = {
        "cp": dict(CP_FACTORS, **{"plan.json": "7e7d8158e155e397"}),
        "tucker": {
            "down.tensor": "be9db0c69970a06e",
            "core.tensor": "841f6bab69c305ef",
            "up.tensor": "122956cb16d0a0d9",
            "plan.json": "eda6cccb09bb353b",
        },
        "mobilenet-v1": {
            "spatial.tensor": "8416519b9f9ea554",
            "pointwise.tensor": "fb14431ad4f288d5",
            "plan.json": "1cf16355fe82fbcb",
        },
        "mobilenet-v2": {
            "down.tensor": "3f16e0675be6628a",
            "spatial.tensor": "61d58fdc2b702e3e",
            "up.tensor": "085f35b829384836",
            "plan.json": "e39a57b6b017d5c5",
        },
        "hocp": dict(CP_FACTORS, **{"plan.json": "39ca1fd012be6f8c"}),
        "hocp-extras": dict(
            CP_FACTORS, **{"skip.tensor": "26be4ccd69ab0996", "plan.json": "45bd1dc05616756d"}
        ),
    }
    # The plan.json digests of the same plans as save_plan wrote them with a
    # cost block, before it was dropped.
    WITH_COST_BLOCK = {
        "cp": "55e836e16ef63835",
        "tucker": "db339e7c7167aac0",
        "mobilenet-v1": "ba905f14333e8c6d",
        "mobilenet-v2": "3331bf418997f27d",
        "hocp": "76045bb8f3043498",
        "hocp-extras": "8754867d604d9a48",
    }

    @pytest.mark.parametrize("name", list(_fixed_plans()))
    def test_save_writes_recorded_bytes(self, tmp_path, name):
        plan = _fixed_plans()[name]
        save_plan(plan, tmp_path / "saved")
        assert _digests(tmp_path / "saved") == self.DIGESTS[name]
        save_plan(load_plan(tmp_path / "saved" / "plan.json"), tmp_path / "again")
        for path in sorted((tmp_path / "saved").iterdir()):
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("name", list(_fixed_plans()))
    def test_manifest_with_a_cost_block_loads_to_the_same_plan(self, tmp_path, name):
        """A plan directory written when manifests held a cost block, byte for
        byte, loads to a bitwise-equal forward and the same cost."""
        plan = _fixed_plans()[name]
        path = save_plan(plan, tmp_path)
        manifest = _with_cost_block(json.loads(path.read_text()), plan)
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        assert _digests(tmp_path)["plan.json"] == self.WITH_COST_BLOCK[name]
        loaded = load_plan(path)
        assert loaded.cost == plan.cost
        x = np.random.default_rng(310).standard_normal((3, 5, 4, 6))
        assert forward(loaded.layer, x).tobytes() == forward(plan.layer, x).tobytes()


class TestActivationCodec:
    """An HO-CP manifest's activation entries fail closed: load_plan raises
    ContainerError naming the manifest, and ``conv --plan`` exits 2."""

    @pytest.mark.parametrize("slot,field,value", [
        (0, "kind", "gelu"),
        (0, "kind", 3),
        (1, "slope", None),
        (2, "mean", None),
        (2, "var", None),
        (2, "scale", None),
        (2, "shift", None),
        (2, "eps", None),
        (1, "slope", "0.125"),
        (1, "slope", [0.125]),
        (2, "mean", {"a": 1}),
        (2, "var", "x"),
        (2, "scale", [[0.5]]),
        (2, "eps", [1e-3]),
        (2, "mean", "0.5"),
        (2, "var", True),
        (1, "slope", True),
    ], ids=[
        "unknown-kind", "int-kind", "no-slope", "no-mean", "no-var", "no-scale", "no-shift",
        "no-eps", "string-slope", "list-slope", "dict-mean", "string-var", "nested-scale",
        "list-eps", "numeric-string-mean", "bool-var", "bool-slope",
    ])
    def test_malformed_entry_fails_closed(self, tmp_path, slot, field, value):
        """``None`` deletes the field."""
        path = save_plan(_fixed_plans()["hocp-extras"], tmp_path / "plan")
        manifest = json.loads(path.read_text())
        entry = manifest["activations"][slot]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            load_plan(path)
        x = tmp_path / "x.tensor"
        write_tensor(x, np.zeros((3, 5, 4, 6)))
        argv = ["conv", "--input", x, "--plan", path, "--out", tmp_path / "y.tensor"]
        assert cli_main([str(a) for a in argv]) == 2


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

    def test_keeps_the_extras(self):
        """The layer is rebuilt by its class's ``from_factors``, as ``load_plan``
        builds it: the same factors, activations and skip, in a CpConvLayer."""
        rng = np.random.default_rng(29)
        spec = ConvSpec(3, 3, (3, 3), 1, 1)
        cp = CpConvLayer(random_kruskal(rng, (3, 3, 3, 3), 4), spec)
        ho = HoCpConvLayer(cp, (ReLU(), PReLU(0.1)), rng.standard_normal((3, 3)))
        plan = FactorizedPlan("hocp", ho, costs.report(ho.stages, (5, 5)), (5, 5))
        kept = with_conv_params(plan, 1, 1).layer
        assert type(kept) is CpConvLayer and kept.spec == spec
        assert kept.activations == ho.activations and kept.skip is ho.skip
        with pytest.raises(DimensionError, match="preserved spatial extents"):
            with_conv_params(plan, 1, (1, 2))  # a skip keeps only a geometry that keeps the extents
        acts_only = FactorizedPlan("hocp", HoCpConvLayer(cp, ho.activations), plan.cost, (5, 5))
        moved = with_conv_params(acts_only, 1, (1, 2)).layer
        assert type(moved) is CpConvLayer and moved.spec == ConvSpec(3, 3, (3, 3), 1, (1, 2))
        assert moved.activations == ho.activations and moved.skip is None
        assert all(a is b for a, b in zip(moved.kruskal.factors, cp.kruskal.factors))
