import math
import tracemalloc

import numpy as np
import pytest

from tensorconv import (
    DimensionError,
    KruskalTensor,
    RankError,
    TuckerTensor,
    compress,
    cp_als,
    depthwise_separable,
    kruskal_to_dense,
    tucker_hooi,
    tucker_to_dense,
)
from tensorconv import decomp
from tensorconv.dense import fold, khatri_rao, unfold

from helpers import BAD_SWEEP_CONTROLS, orthonormal_factor, random_kruskal, random_tucker, rel_error


class TestKruskalToDense:
    def test_rank1_outer_product(self):
        k = KruskalTensor((np.array([[1.0], [2.0]]), np.array([[1.0], [1.0]])))
        assert np.array_equal(kruskal_to_dense(k), np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_zero_factor_gives_zero_tensor(self):
        rng = np.random.default_rng(0)
        k = KruskalTensor(
            (rng.standard_normal((3, 2)), np.zeros((4, 2)), rng.standard_normal((2, 2)))
        )
        assert np.all(kruskal_to_dense(k) == 0.0)

    def test_single_mode_is_row_sums(self):
        u = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(kruskal_to_dense(KruskalTensor((u,))), u.sum(axis=1))

    def test_multilinear_in_each_factor(self):
        rng = np.random.default_rng(1)
        shape, rank = (3, 4, 2), 3
        base = [rng.standard_normal((e, rank)) for e in shape]
        for mode in range(3):
            a = rng.standard_normal(base[mode].shape)
            b = rng.standard_normal(base[mode].shape)
            fa = list(base); fa[mode] = a
            fb = list(base); fb[mode] = b
            fab = list(base); fab[mode] = 2.0 * a - 0.5 * b
            lhs = kruskal_to_dense(KruskalTensor(tuple(fab)))
            rhs = 2.0 * kruskal_to_dense(KruskalTensor(tuple(fa))) - 0.5 * kruskal_to_dense(
                KruskalTensor(tuple(fb))
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_bitwise_the_largest_mode_unfolding(self, order):
        """Bitwise one GEMM of the largest mode's factor with the Khatri-Rao
        product of the others, folded back to the tensor."""
        rng = np.random.default_rng(order)
        for shape in [(4, 3, 5, 2, 3)[:order], (2, 5, 3, 5, 4)[:order], (3,) * order]:
            k = random_kruskal(rng, shape, 4)
            m = int(np.argmax(shape))
            rest = [f for i, f in enumerate(k.factors) if i != m]
            expected = fold(k.factors[m] @ khatri_rao(rest).T, m, shape)
            assert kruskal_to_dense(k).tobytes() == expected.tobytes(), shape

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankError):
            KruskalTensor((np.zeros((2, 2)), np.zeros((2, 3))))

    @pytest.mark.parametrize("shape,subscripts", [
        ((3, 5, 2, 4), "ar,br,cr,dr->abcd"),
        ((4, 2, 6, 3, 2), "ar,br,cr,dr,er->abcde"),
    ])
    def test_matches_einsum(self, shape, subscripts):
        # The largest mode is not mode 0 in either shape.
        rng = np.random.default_rng(21)
        factors = [rng.standard_normal((e, 7)) for e in shape]
        expected = np.einsum(subscripts, *factors)
        assert rel_error(kruskal_to_dense(KruskalTensor(tuple(factors))), expected) <= 1e-14


@pytest.mark.parametrize("shape", [(4, 5, 3), (2, 7), (6, 2, 3, 4), (3, 4, 2, 5, 2)])
def test_mttkrp_matches_khatri_rao_product(shape):
    rng = np.random.default_rng(22)
    t = rng.standard_normal(shape)
    factors = [rng.standard_normal((e, 3)) for e in shape]
    for n in range(len(shape)):
        others = [factors[k] for k in range(len(shape)) if k != n]
        expected = unfold(t, n) @ khatri_rao(others)
        assert rel_error(decomp._mttkrp(t, factors, n), expected) <= 1e-14


class TestTuckerToDense:
    def test_hand_case(self):
        t = TuckerTensor(
            np.array([[2.0]]), (np.array([[1.0]]), np.array([[3.0], [1.0]]))
        )
        assert np.array_equal(tucker_to_dense(t), np.array([[6.0, 2.0]]))

    def test_identity_factors_give_core(self):
        rng = np.random.default_rng(2)
        core = rng.standard_normal((2, 3, 4))
        t = TuckerTensor(core, (np.eye(2), np.eye(3), np.eye(4)))
        assert np.array_equal(tucker_to_dense(t), core)

    def test_zero_core(self):
        t = TuckerTensor(np.zeros((1, 1)), (np.ones((3, 1)), np.ones((4, 1))))
        assert np.all(tucker_to_dense(t) == 0.0)

    def test_core_factor_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            TuckerTensor(np.zeros((2, 2)), (np.zeros((3, 2)),))
        with pytest.raises(DimensionError):
            TuckerTensor(np.zeros((2, 2)), (np.zeros((3, 2)), np.zeros((3, 3))))


class TestCpAls:
    def test_recovers_rank1(self):
        rng = np.random.default_rng(3)
        target = kruskal_to_dense(random_kruskal(rng, (4, 5, 3), 1))
        res = cp_als(target, 1, seed=0)
        assert res.rel_error < 1e-8

    def test_recovers_rank3_well_conditioned(self):
        rng = np.random.default_rng(4)
        factors = tuple(orthonormal_factor(rng, e, 3) for e in (6, 7, 5))
        target = kruskal_to_dense(KruskalTensor(factors))
        res = cp_als(target, 3, seed=1)
        assert res.rel_error < 1e-6

    @pytest.mark.parametrize("name,value,error", BAD_SWEEP_CONTROLS)
    def test_sweep_controls_fail_closed(self, name, value, error):
        t = np.random.default_rng(5).standard_normal((4, 3, 3))
        with pytest.raises(error):
            cp_als(t, 2, **{"max_iters": 3, name: value})

    def test_tol_zero_runs_every_sweep(self):
        t = np.random.default_rng(5).standard_normal((4, 3, 3))
        res = cp_als(t, 2, max_iters=np.int64(4), tol=0.0)
        assert res.n_iters == 4 and len(res.error_history) == 4 and np.isfinite(res.rel_error)

    def test_zero_tensor(self):
        res = cp_als(np.zeros((3, 4)), 2, seed=0)
        assert res.rel_error == 0.0
        assert np.all(kruskal_to_dense(res.kruskal) == 0.0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal((4, 4, 4))
        a = cp_als(target, 2, max_iters=20, seed=42)
        b = cp_als(target, 2, max_iters=20, seed=42)
        for fa, fb in zip(a.kruskal.factors, b.kruskal.factors):
            assert np.array_equal(fa, fb)
        assert a.rel_error == b.rel_error

    def test_error_history_non_increasing(self):
        rng = np.random.default_rng(6)
        target = kruskal_to_dense(random_kruskal(rng, (5, 6, 4), 3))
        res = cp_als(target, 3, max_iters=60, tol=0.0, seed=2)
        hist = np.array(res.error_history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-12)

    def test_overcomplete_rank_allowed(self):
        rng = np.random.default_rng(7)
        target = rng.standard_normal((2, 3, 2))
        res = cp_als(target, 10, max_iters=200, seed=3)
        assert res.rel_error < 1e-6  # overcomplete fits an arbitrary small tensor

    def test_hosvd_init(self):
        rng = np.random.default_rng(8)
        target = kruskal_to_dense(random_kruskal(rng, (4, 5, 3), 2))
        res = cp_als(target, 2, seed=0, init="hosvd", tol=1e-12)
        assert res.rel_error < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(RankError):
            cp_als(np.zeros((2, 2)), 0)
        with pytest.raises(DimensionError):
            cp_als(np.zeros(4), 1)
        with pytest.raises(ValueError):
            cp_als(np.zeros((2, 2)), 1, init="nope")

    def test_returns_best_iterate(self):
        rng = np.random.default_rng(9)
        target = rng.standard_normal((4, 4, 4))
        res = cp_als(target, 2, max_iters=30, tol=0.0, seed=4)
        assert res.rel_error == min(res.error_history)


class TestNormalEquations:
    """ALS updates solve ``X @ gram = rhs`` through Cholesky and solve, or
    through the pseudo-inverse when the Hadamard Gram is rank-deficient."""

    @pytest.fixture
    def pinv_calls(self, monkeypatch):
        calls = []
        pinv = np.linalg.pinv

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        return calls

    def test_duplicated_columns_fall_back_to_pinv(self, pinv_calls):
        rng = np.random.default_rng(30)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
        a, b = np.hstack([a, a[:, :1]]), np.hstack([b, b[:, :1]])  # column 3 repeats column 0
        gram = (a.T @ a) * (b.T @ b)
        rhs = rng.standard_normal((4, 4))
        x = decomp._solve_normal_stack(rhs, gram[None])
        assert pinv_calls == [(4, 4)]
        assert np.array_equal(x, rhs @ np.linalg.pinv(gram, rcond=decomp.PINV_RCOND))

    def test_positive_definite_gram_is_solved(self, pinv_calls):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        gram = (a.T @ a) * (b.T @ b)
        rhs = rng.standard_normal((7, 4))
        x = decomp._solve_normal_stack(rhs, gram[None])
        assert pinv_calls == []
        assert rel_error(x @ gram, rhs) < 1e-12

    @staticmethod
    def solve_normal(rhs, gram):
        """One restart's solve on its own Gram: the batched solver's reference."""
        try:
            pivots = np.diag(np.linalg.cholesky(gram)) ** 2
        except np.linalg.LinAlgError:
            pivots = None
        if pivots is None or pivots.min() < decomp.PINV_RCOND * pivots.max():
            return rhs @ np.linalg.pinv(gram, rcond=decomp.PINV_RCOND)
        return np.linalg.solve(gram, rhs.T).T

    @pytest.mark.parametrize("singular", [(True,), (False,), (False, True, False)])
    def test_stack_is_bitwise_the_per_restart_solve(self, singular):
        rng = np.random.default_rng(33)
        grams = []
        for dup in singular:
            a, b = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
            if dup:
                a[:, 3], b[:, 3] = a[:, 0], b[:, 0]
            grams.append((a.T @ a) * (b.T @ b))
        rhs = rng.standard_normal((7, 4 * len(grams)))
        expected = np.hstack([self.solve_normal(rhs[:, 4 * i:4 * i + 4], g) for i, g in enumerate(grams)])
        assert decomp._solve_normal_stack(rhs, np.stack(grams)).tobytes() == expected.tobytes()

    def test_duplicated_factor_columns_fit_with_fallback(self, monkeypatch, pinv_calls):
        # A rank-2 target fitted at rank 3 from factors whose third column
        # repeats the first: every Gram of the first sweep is singular.
        rng = np.random.default_rng(32)
        target = kruskal_to_dense(random_kruskal(rng, (4, 5, 3), 2))
        cp_als(target, 3, max_iters=1, seed=0)
        assert pinv_calls == []  # distinct random columns
        default_rng = np.random.default_rng

        class DuplicatingRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def uniform(self, low, high, size):
                f = self._rng.uniform(low, high, size)
                f[:, 2] = f[:, 0]
                return f

        monkeypatch.setattr(np.random, "default_rng", DuplicatingRng)
        res = cp_als(target, 3, max_iters=200, seed=0)
        assert pinv_calls[:3] == [(3, 3)] * 3
        assert np.isfinite(res.rel_error) and res.rel_error < 1e-6


class TestLockstep:
    """``_cp_als_lockstep`` fits J seeded restarts in one ALS loop; each
    restart's result is its solo ``cp_als`` run up to rounding."""

    @staticmethod
    def assert_matches_solo(t, rank, seeds, runs, max_iters, tol):
        assert len(runs) == len(seeds)
        for seed, run in zip(seeds, runs):
            solo = cp_als(t, rank, max_iters=max_iters, tol=tol, seed=seed)
            assert run.n_iters == solo.n_iters
            assert run.converged == solo.converged
            assert len(run.error_history) == len(solo.error_history)
            np.testing.assert_allclose(run.error_history, solo.error_history, rtol=0, atol=1e-12)
            assert rel_error(kruskal_to_dense(run.kruskal), kruskal_to_dense(solo.kruskal)) <= 1e-10

    @pytest.mark.parametrize(
        "shape, rank, max_iters, tol",
        [((32, 16, 3, 3, 3), 4, 30, 0.0), ((3, 9, 4), 4, 25, 0.0), ((8, 4, 3, 3), 2, 200, 1e-10)],
        ids=["compress-shape", "largest-mode-1", "tol-stops"],
    )
    def test_every_restart_matches_its_solo_run(self, shape, rank, max_iters, tol):
        t = np.random.default_rng(40).standard_normal(shape)
        seeds = np.random.SeedSequence(7).spawn(4)
        runs = decomp._cp_als_lockstep(t, rank, seeds, max_iters, tol, "random")
        if tol > 0:  # restarts stop at different sweeps, one runs to the cap
            assert len({run.n_iters for run in runs}) == 4
            assert max(run.n_iters for run in runs) == max_iters
            assert all(run.converged == (run.n_iters < max_iters) for run in runs)
        self.assert_matches_solo(t, rank, seeds, runs, max_iters, tol)

    @pytest.mark.parametrize("shape", [(6, 4, 3), (3, 9, 4), (3, 4, 7)])
    def test_restart_error_is_the_exact_residual_of_its_factors(self, shape):
        # Bitwise, whichever mode is largest: compress reports the winner's
        # restart error and recomputes the plan's kernel error from its factors.
        t = np.random.default_rng(41).standard_normal(shape)
        norm_t = float(np.linalg.norm(t.ravel()))
        runs = decomp._cp_als_lockstep(t, 3, np.random.SeedSequence(3).spawn(3), 12, 0.0, "random")
        for run in runs:
            assert run.rel_error == decomp._rel_error(t, kruskal_to_dense(run.kruskal), norm_t)
            assert run.rel_error == min(run.error_history)

    def test_one_restart_takes_the_pinv_fallback(self, monkeypatch):
        t = np.random.default_rng(42).standard_normal((4, 5, 3))
        seeds = np.random.SeedSequence(8).spawn(3)
        default_rng = np.random.default_rng

        class DuplicatingRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def uniform(self, low, high, size):
                f = self._rng.uniform(low, high, size)
                f[:, 2] = f[:, 0]
                return f

        def rng_for(seed):  # restart 1 starts with column 2 equal to column 0
            return DuplicatingRng(seed) if seed is seeds[1] else default_rng(seed)

        pinv_calls = []
        pinv = np.linalg.pinv

        def spy(*args, **kwargs):
            pinv_calls.append(args[0].shape)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setattr(np.linalg, "pinv", spy)
        runs = decomp._cp_als_lockstep(t, 3, seeds, 20, 0.0, "random")
        assert pinv_calls[:3] == [(3, 3)] * 3
        for seed in seeds:
            del pinv_calls[:]
            cp_als(t, 3, max_iters=20, tol=0.0, seed=seed)
            assert bool(pinv_calls) == (seed is seeds[1])
        self.assert_matches_solo(t, 3, seeds, runs, 20, 0.0)

    def test_zero_tensor_gives_a_zero_result_per_restart(self):
        runs = decomp._cp_als_lockstep(np.zeros((3, 4, 2)), 2, [0, 1, 2], 10, 1e-8, "random")
        assert len(runs) == 3
        for run in runs:
            assert run.rel_error == 0.0 and run.n_iters == 0 and run.converged
            assert np.all(kruskal_to_dense(run.kruskal) == 0.0)

    def test_three_restarts_peak_at_most_three_times_one(self):
        t = np.random.default_rng(25).standard_normal((64, 32, 3, 3, 3))
        seeds = np.random.SeedSequence(0).spawn(3)
        peaks = []
        for j in (1, 3):
            tracemalloc.start()
            try:
                decomp._cp_als_lockstep(t, 192, seeds[:j], 1, 0.0, "random")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 3 * peaks[0] + 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "fit",
    [
        lambda t: cp_als(t, 2, max_iters=3),
        lambda t: cp_als(t, 2, max_iters=3, init="hosvd"),
        lambda t: tucker_hooi(t, (2, 2, 2, 2), max_iters=3),
        depthwise_separable,
    ],
    ids=["cp-random", "cp-hosvd", "tucker", "mobilenet-v1"],
)
def test_non_finite_tensor_raises(fit, bad):
    t = np.random.default_rng(43).standard_normal((3, 4, 3, 3))
    t[1, 2, 0, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        fit(t)


class TestTuckerHooi:
    @pytest.mark.parametrize("rank", [2.7, True, 2.0])
    def test_non_integer_rank_raises(self, rank):
        """A rank is read as an integer, not truncated: 2.7 was rank 2."""
        t = np.random.default_rng(44).standard_normal((3, 4, 3, 3))
        with pytest.raises(TypeError):
            tucker_hooi(t, (rank, 2, 3, 3), max_iters=3)

    @pytest.mark.parametrize("name,value,error", BAD_SWEEP_CONTROLS)
    def test_sweep_controls_fail_closed(self, name, value, error):
        t = np.random.default_rng(45).standard_normal((3, 4, 3, 3))
        with pytest.raises(error):
            tucker_hooi(t, (2, 2, 3, 3), **{"max_iters": 3, name: value})

    def test_full_ranks_exact(self):
        rng = np.random.default_rng(10)
        target = rng.standard_normal((3, 4, 5))
        res = tucker_hooi(target, (3, 4, 5))
        assert res.rel_error < 1e-10
        assert not res.warnings

    def test_construct_then_decompose(self):
        rng = np.random.default_rng(11)
        target = tucker_to_dense(random_tucker(rng, (6, 5, 4), (2, 3, 2)))
        res = tucker_hooi(target, (2, 3, 2))
        assert res.rel_error < 1e-8

    def test_rank_deficient_target(self):
        rng = np.random.default_rng(12)
        target = tucker_to_dense(random_tucker(rng, (6, 5, 4), (2, 2, 2)))
        res = tucker_hooi(target, (3, 3, 3))
        assert res.rel_error < 1e-8

    def test_orthonormal_factor_columns(self):
        rng = np.random.default_rng(13)
        target = rng.standard_normal((5, 6, 4))
        res = tucker_hooi(target, (2, 3, 2))
        for f in res.tucker.factors:
            gram = f.T @ f
            assert np.linalg.norm(gram - np.eye(f.shape[1])) < 1e-10

    def test_rank_capped_with_warning(self):
        rng = np.random.default_rng(14)
        res = tucker_hooi(rng.standard_normal((3, 4)), (5, 2))
        assert res.tucker.ranks == (3, 2)
        assert any("capped" in w for w in res.warnings)

    def test_wrong_rank_count(self):
        with pytest.raises(RankError):
            tucker_hooi(np.zeros((2, 2, 2)), (2, 2))

    def test_zero_tensor(self):
        res = tucker_hooi(np.zeros((3, 4)), (2, 2))
        assert res.rel_error == 0.0

    def test_projected_unfolding_narrower_than_rank(self):
        # Projected on ranks 1 and 1, mode 0's unfolding is 6 x 1, yet mode 0
        # keeps 4 orthonormal columns.
        rng = np.random.default_rng(23)
        res = tucker_hooi(rng.standard_normal((6, 2, 2)), (4, 1, 1), max_iters=3)
        u = res.tucker.factors[0]
        assert u.shape == (6, 4)
        assert np.linalg.norm(u.T @ u - np.eye(4)) < 1e-12

    def test_full_rank_modes_keep_hosvd_factor(self):
        # A mode at full rank takes the identity, not an HOSVD basis of it.
        rng = np.random.default_rng(24)
        target = rng.standard_normal((5, 4, 3, 3))
        res = tucker_hooi(target, (2, 2, 3, 3), max_iters=4, tol=0.0)
        for mode in (2, 3):
            assert np.array_equal(res.tucker.factors[mode], np.eye(3))
        assert res.tucker.core.shape == (2, 2, 3, 3)
        assert rel_error(tucker_to_dense(res.tucker), target) == pytest.approx(res.rel_error, rel=1e-12)

    def test_hosvd_factor_only_on_truncated_modes(self, monkeypatch):
        """Modes 2 and 4 are at full rank, mode 3 is capped to it: only modes
        0 and 1 get an SVD, once at initialization and once per sweep."""
        t = np.random.default_rng(25).standard_normal((6, 5, 3, 2, 3))
        modes = []
        hosvd = decomp._hosvd_factor

        def spy(m, mode, rank):
            modes.append(mode)
            return hosvd(m, mode, rank)

        monkeypatch.setattr(decomp, "_hosvd_factor", spy)
        res = tucker_hooi(t, (3, 2, 3, 5, 3), max_iters=3, tol=0.0)
        assert modes == [0, 1] * 4
        assert res.n_iters == 3 and res.warnings == ["rank 5 at mode 3 capped at extent 2"]

    def test_all_modes_at_full_rank_give_the_tensor(self, monkeypatch):
        t = np.random.default_rng(26).standard_normal((4, 3, 3, 2))
        monkeypatch.setattr(decomp, "_hosvd_factor", None)  # no SVD at all
        res = tucker_hooi(t, t.shape)
        assert res.tucker.core.tobytes() == t.tobytes() and res.tucker.core is not t
        assert all(np.array_equal(f, np.eye(e)) for f, e in zip(res.tucker.factors, t.shape))
        assert (res.rel_error, res.n_iters, res.converged) == (0.0, 2, True)


    def test_sweep_error_reuses_the_last_partial_projection(self, monkeypatch):
        # With s truncated modes a sweep makes s*(s-1) products for the
        # partial projections and s + 1 for the reconstruction; the error is
        # bitwise that of projecting every truncated mode afresh.
        t = np.random.default_rng(44).standard_normal((12, 8, 3, 3))
        calls = []
        product = decomp.n_mode_product

        def spy(*args):
            calls.append(args[2])
            return product(*args)

        monkeypatch.setattr(decomp, "n_mode_product", spy)
        res = tucker_hooi(t, (4, 3, 3, 3), max_iters=3, tol=0.0)
        assert len(calls) == 3 * (2 + 3) + 2  # three sweeps, then the core on the truncated modes
        core = t
        for mode in (0, 1):
            core = product(core, res.tucker.factors[mode].T, mode)
        approx = core
        for mode in (0, 1):
            approx = product(approx, res.tucker.factors[mode], mode)
        norm_t = float(np.linalg.norm(t.ravel()))
        assert res.error_history[-1] == decomp._rel_error(t, approx, norm_t)


class TestDepthwiseSeparable:
    @pytest.mark.parametrize("kernels", [(3,), (3, 2), (3, 2, 4)])
    def test_any_number_of_spatial_modes(self, kernels):
        # A CP kernel whose input-channel factor is the identity, a
        # permutation or diagonal is depthwise separable: recovered exactly.
        rng = np.random.default_rng(20)
        c = 3
        for u_c in (np.eye(c), np.eye(c)[[2, 0, 1]], np.diag([2.5, -0.5, 1e-3])):
            k = KruskalTensor(
                (rng.standard_normal((4, c)), u_c)
                + tuple(rng.standard_normal((e, c)) for e in kernels)
            )
            w = kruskal_to_dense(k)
            pointwise, spatial = depthwise_separable(w)
            assert pointwise.shape == (4, c) and spatial.shape == kernels + (c,)
            assert rel_error(np.einsum("tc,...c->tc...", pointwise, spatial), w) <= 1e-14

    def test_taps_have_unit_norm_and_pointwise_the_singular_value(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((5, 4, 3, 2))
        pointwise, spatial = depthwise_separable(w)
        assert np.abs(np.linalg.norm(spatial.reshape(-1, 4), axis=0) - 1.0).max() <= 1e-14
        for c in range(4):
            s = np.linalg.svd(w[:, c].reshape(5, -1), compute_uv=False)
            assert abs(np.linalg.norm(pointwise[:, c]) - s[0]) <= 1e-12 * s[0]

    @pytest.mark.parametrize("shape", [(5, 4, 3), (6, 3, 3, 3), (3, 4, 2, 3, 2)])
    def test_error_is_the_eckart_young_residual(self, shape):
        # No v1 block is closer: the residual is every channel's singular
        # values past the first.
        w = np.random.default_rng(22).standard_normal(shape)
        tail = sum(
            np.sum(np.linalg.svd(w[:, c].reshape(shape[0], -1), compute_uv=False)[1:] ** 2)
            for c in range(shape[1])
        )
        residual = math.sqrt(tail) / np.linalg.norm(w)
        assert abs(compress(w, "mobilenet-v1", None).kernel_rel_error - residual) <= 1e-12

    def test_zero_channel_gives_zero_pointwise_and_finite_taps(self):
        w = np.random.default_rng(23).standard_normal((4, 3, 3, 3))
        w[:, 1] = 0.0
        pointwise, spatial = depthwise_separable(w)
        assert np.all(pointwise[:, 1] == 0.0)
        assert np.all(np.isfinite(spatial))

    def test_requires_a_spatial_mode(self):
        with pytest.raises(DimensionError, match="order >= 3"):
            depthwise_separable(np.ones((3, 3)))


def test_block4_sweeps_in_bounded_memory():
    """Column block 4, (256, 256, 3, 3, 3): one CP-ALS sweep at rank 1536 and
    two HOOI sweeps at ranks (128, 128, 3, 3, 3) each peak below 1 GB. A full
    Khatri-Rao product at this size would take 21.7 GB."""
    t = np.random.default_rng(25).standard_normal((256, 256, 3, 3, 3))
    runs = (
        lambda: cp_als(t, 1536, max_iters=1, seed=0),
        lambda: tucker_hooi(t, (128, 128, 3, 3, 3), max_iters=2),
    )
    for run in runs:
        tracemalloc.start()
        try:
            res = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e9
        assert np.isfinite(res.rel_error) and res.rel_error < 1.0
