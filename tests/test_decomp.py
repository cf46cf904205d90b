import tracemalloc

import numpy as np
import pytest

from tensorconv import (
    DimensionError,
    KruskalTensor,
    RankError,
    TuckerTensor,
    absorb_spatial,
    cp_als,
    kruskal_to_dense,
    merge_spatial_factors,
    n_mode_product,
    tucker_hooi,
    tucker_to_dense,
)
from tensorconv import decomp
from tensorconv.dense import khatri_rao, unfold

from helpers import orthonormal_factor, random_kruskal, random_tucker, rel_error


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
        x = decomp._solve_normal(rhs, gram)
        assert pinv_calls == [(4, 4)]
        assert np.array_equal(x, rhs @ np.linalg.pinv(gram, rcond=decomp.PINV_RCOND))

    def test_positive_definite_gram_is_solved(self, pinv_calls):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        gram = (a.T @ a) * (b.T @ b)
        rhs = rng.standard_normal((7, 4))
        x = decomp._solve_normal(rhs, gram)
        assert pinv_calls == []
        assert rel_error(x @ gram, rhs) < 1e-12

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


class TestTuckerHooi:
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
        rng = np.random.default_rng(24)
        target = rng.standard_normal((5, 4, 3, 3))
        res = tucker_hooi(target, (2, 2, 3, 3), max_iters=4, tol=0.0)
        for mode in (2, 3):
            assert np.array_equal(res.tucker.factors[mode], decomp._hosvd_factor(target, mode, 3))


class TestAbsorbSpatial:
    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(15)
        t = random_tucker(rng, (4, 5, 3, 3), (2, 3, 2, 2))
        merged = absorb_spatial(t)
        assert rel_error(tucker_to_dense(merged), tucker_to_dense(t)) < 1e-12

    def test_identity_spatial_factors_leave_core(self):
        rng = np.random.default_rng(16)
        core = rng.standard_normal((2, 2, 3, 3))
        t = TuckerTensor(
            core,
            (
                orthonormal_factor(rng, 4, 2),
                orthonormal_factor(rng, 4, 2),
                np.eye(3),
                np.eye(3),
            ),
        )
        merged = absorb_spatial(t)
        assert np.array_equal(merged.core, core)

    def test_matches_n_mode_product_oracle(self):
        rng = np.random.default_rng(17)
        t = random_tucker(rng, (3, 3, 2, 2), (2, 2, 2, 2))
        merged = absorb_spatial(t, (2, 3))
        expected = n_mode_product(
            n_mode_product(t.core, t.factors[2], 2), t.factors[3], 3
        )
        np.testing.assert_allclose(merged.core, expected, rtol=1e-14)
        assert np.array_equal(merged.factors[2], np.eye(2))
        assert np.array_equal(merged.factors[3], np.eye(2))

    def test_default_is_every_spatial_mode(self):
        rng = np.random.default_rng(21)
        t = random_tucker(rng, (4, 5, 3, 2, 3), (2, 3, 2, 2, 3))
        merged = absorb_spatial(t)
        assert merged.core.tobytes() == absorb_spatial(t, (2, 3, 4)).core.tobytes()
        assert merged.core.shape == (2, 3, 3, 2, 3)

    def test_bad_modes_rejected(self):
        rng = np.random.default_rng(18)
        t = random_tucker(rng, (3, 3), (2, 2))
        with pytest.raises(DimensionError):
            absorb_spatial(t, (0, 5))
        with pytest.raises(DimensionError):
            absorb_spatial(t, (1, 1))


class TestMergeSpatialFactors:
    def test_all_ones_factors(self):
        c = 3
        k = KruskalTensor(tuple(np.ones((e, c)) for e in (4, c, 3, 3)))
        pointwise, spatial = merge_spatial_factors(k)
        assert np.array_equal(spatial, np.ones((3, 3, c)))
        assert np.array_equal(pointwise, c * np.ones((4, c)))

    def test_hand_2x2_case(self):
        u_t = np.array([[1.0, 0.0], [0.0, 1.0]])
        u_c = np.array([[1.0, 2.0], [3.0, 4.0]])
        u_h = np.array([[1.0, -1.0], [2.0, 1.0]])
        u_w = np.array([[0.5, 1.0], [1.0, 3.0]])
        pointwise, spatial = merge_spatial_factors(KruskalTensor((u_t, u_c, u_h, u_w)))
        assert np.array_equal(pointwise, u_t @ u_c.T)
        for j in range(2):
            for i in range(2):
                for r in range(2):
                    assert spatial[j, i, r] == u_h[j, r] * u_w[i, r]

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        k = random_kruskal(rng, (4, 3, 3, 3), 5)
        with pytest.raises(RankError, match="rank == input channels"):
            merge_spatial_factors(k)

    @pytest.mark.parametrize("kernels", [(3,), (3, 2), (3, 2, 4)])
    def test_any_number_of_spatial_modes(self, kernels):
        rng = np.random.default_rng(20)
        k = random_kruskal(rng, (4, 3) + kernels, 3)
        pointwise, spatial = merge_spatial_factors(k)
        assert np.array_equal(pointwise, k.factors[0] @ k.factors[1].T)
        assert spatial.shape == kernels + (3,)
        for idx in np.ndindex(*spatial.shape):
            *offs, r = idx
            assert spatial[idx] == np.prod([u[i, r] for u, i in zip(k.factors[2:], offs)])

    def test_requires_a_spatial_mode(self):
        rng = np.random.default_rng(20)
        with pytest.raises(DimensionError, match="order >= 3"):
            merge_spatial_factors(random_kruskal(rng, (3, 3), 3))


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
