"""CP (Kruskal) and Tucker decompositions of dense tensors.

CP fitting uses alternating least squares with seeded uniform random
initialization (HOSVD-based init available as an option); Tucker fitting uses
HOSVD initialization followed by HOOI sweeps. Non-convergence is not an
error: both return the best iterate found together with its relative
reconstruction error and the full error history.

Memory is bounded by the factors, not by their Khatri-Rao product: no step
allocates much more than ``|X| * R / max_extent`` elements for a tensor X
fitted at rank R. The MTTKRP of an ALS sweep contracts X with the factor of
its largest other mode in one GEMM, then folds in the remaining factors one
at a time over the shared rank index; :func:`kruskal_to_dense` is one GEMM of
the largest mode's factor with the Khatri-Rao product of the others. HOSVD
factors come from thin SVDs (left singular vectors only). HOOI neither
solves again nor projects onto a mode kept at full rank, whose HOSVD factor
is already an orthonormal basis of the whole mode (typically the spatial
modes of a conv kernel); its sweeps touch the truncated modes only.

Normal equations in the ALS sweep are solved by ``np.linalg.solve`` once a
Cholesky factorization has shown the R x R Hadamard Gram positive definite
and no worse conditioned than ``1 / PINV_RCOND``. A rank-deficient Gram
(duplicated or collinear factor columns, overcomplete ranks) goes through a
pseudo-inverse with singular values below ``PINV_RCOND`` (relative to the
largest) treated as zero instead, so such problems degrade gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dense import as_matrix, as_tensor, fold, khatri_rao, n_mode_product, unfold
from .errors import DimensionError, RankError

__all__ = [
    "KruskalTensor",
    "TuckerTensor",
    "CpResult",
    "TuckerResult",
    "kruskal_to_dense",
    "tucker_to_dense",
    "cp_als",
    "tucker_hooi",
    "absorb_spatial",
    "merge_spatial_factors",
    "PINV_RCOND",
]

# Relative singular-value cutoff for pseudo-inverse solves of ALS normal equations.
PINV_RCOND = 1e-12


def _solve_normal(rhs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``rhs @ inv(gram)``: the ALS update ``X`` with ``X @ gram = rhs``.

    Solved directly when the Cholesky factor L of the symmetric Gram exists
    and its diagonal keeps ``min(L_ii)**2 >= PINV_RCOND * max(L_ii)**2``
    (the squared diagonal lies inside the Gram's eigenvalue range, so a
    smaller ratio means a condition number above ``1 / PINV_RCOND``).
    Otherwise through the pseudo-inverse, as a singular Gram needs.
    """
    try:
        pivots = np.diag(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is None or pivots.min() < PINV_RCOND * pivots.max():
        return rhs @ np.linalg.pinv(gram, rcond=PINV_RCOND)
    return np.linalg.solve(gram, rhs.T).T


@dataclass(frozen=True)
class KruskalTensor:
    """Sum of R rank-1 outer products, stored as per-mode factor matrices.

    Factor k has shape (extent_k, R). Unit-weight convention: there is no
    separate weight vector, scale lives in the factors themselves.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(f) for f in self.factors)
        if not mats:
            raise DimensionError("KruskalTensor needs at least one factor")
        r = mats[0].shape[1]
        for i, f in enumerate(mats):
            if f.shape[1] != r:
                raise RankError(
                    f"factor 0 has rank {r} but factor {i} has {f.shape[1]} columns"
                )
        object.__setattr__(self, "factors", mats)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class TuckerTensor:
    """Core tensor contracted with one factor matrix per mode.

    Factor k has shape (extent_k, core.shape[k]).
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        core = as_tensor(self.core)
        mats = tuple(as_matrix(f) for f in self.factors)
        if len(mats) != core.ndim:
            raise DimensionError(
                f"core order {core.ndim} does not match {len(mats)} factors"
            )
        for k, f in enumerate(mats):
            if f.shape[1] != core.shape[k]:
                raise DimensionError(
                    f"factor {k} has {f.shape[1]} columns but core extent is "
                    f"{core.shape[k]}"
                )
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", mats)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def kruskal_to_dense(k: KruskalTensor) -> np.ndarray:
    """Dense tensor: ``W[i_0,...,i_{N-1}] = sum_r prod_k factors[k][i_k, r]``.

    Computed as the mode-m unfolding ``U_m @ khatri_rao(U_k, k != m).T`` for
    the largest mode m, so the largest temporary is ``|W| * R / extent_m``.
    """
    if k.order == 1:
        return k.factors[0].sum(axis=1)
    m = int(np.argmax(k.shape))
    rest = [f for i, f in enumerate(k.factors) if i != m]
    return fold(k.factors[m] @ khatri_rao(rest).T, m, k.shape)


def tucker_to_dense(t: TuckerTensor) -> np.ndarray:
    """Dense tensor: core contracted with every factor, one n-mode product per mode."""
    out = t.core
    for mode, f in enumerate(t.factors):
        out = n_mode_product(out, f, mode)
    return out


@dataclass
class CpResult:
    """Best iterate of a CP-ALS run with its relative reconstruction error."""

    kruskal: KruskalTensor
    rel_error: float
    n_iters: int
    converged: bool
    error_history: list[float] = field(default_factory=list)


@dataclass
class TuckerResult:
    """HOSVD+HOOI output; ``warnings`` records rank caps applied along the way."""

    tucker: TuckerTensor
    rel_error: float
    n_iters: int
    converged: bool
    error_history: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _rel_error(t: np.ndarray, approx: np.ndarray, norm_t: float) -> float:
    if norm_t == 0.0:
        return 0.0
    return float(np.linalg.norm((t - approx).ravel()) / norm_t)


def _hosvd_factor(t: np.ndarray, mode: int, rank: int) -> np.ndarray:
    # A thin SVD: U has min(rows, columns) columns and V is never larger than
    # the unfolding. Only an unfolding with fewer columns than `rank` (a
    # HOOI-projected partial) takes full matrices, so the mode still gets
    # `rank` orthonormal columns; its V is then smaller than `rank` squared.
    m = unfold(t, mode)
    u, _, _ = np.linalg.svd(m, full_matrices=m.shape[1] < rank)
    return u[:, :rank]


def _mttkrp(t: np.ndarray, factors, n: int) -> np.ndarray:
    """``unfold(t, n) @ khatri_rao(factors[k] for k != n)`` without the product.

    One GEMM contracts ``t`` with the factor of its largest other mode; the
    other factors are then folded in one at a time, largest first, over the
    shared rank index. The largest temporary is ``|t| * R / that extent``.
    """
    first, *rest = sorted((k for k in range(t.ndim) if k != n), key=lambda k: -t.shape[k])
    y = np.tensordot(t, factors[first], axes=(first, 0))  # (other modes..., R)
    modes = [k for k in range(t.ndim) if k != first]
    for k in rest:
        p = modes.index(k)
        shape = y.shape
        y = np.einsum("aibr,ir->abr", y.reshape(math.prod(shape[:p]), shape[p], -1, shape[-1]),
                      factors[k]).reshape(shape[:p] + shape[p + 1 :])
        del modes[p]
    return y


def cp_als(
    t: np.ndarray,
    rank: int,
    max_iters: int = 500,
    tol: float = 1e-8,
    seed: int | np.random.SeedSequence | None = 0,
    init: str = "random",
) -> CpResult:
    """Fit a rank-``rank`` Kruskal tensor to ``t`` by alternating least squares.

    Deterministic for a fixed ``seed``. Stops when the reconstruction error
    changes by less than ``tol`` between sweeps or after ``max_iters`` sweeps,
    whichever comes first, and always returns the best iterate seen.

    ``init`` is ``"random"`` (uniform in [-1, 1], seeded) or ``"hosvd"``
    (leading left singular vectors per mode, padded with random columns when
    the rank exceeds a mode extent). Ranks larger than the extents are allowed
    (overcomplete CP).
    """
    t = as_tensor(t)
    if t.ndim < 2:
        raise DimensionError(f"cp_als needs a tensor of order >= 2, got {t.ndim}")
    if rank < 1:
        raise RankError(f"CP rank must be >= 1, got {rank}")
    if init not in ("random", "hosvd"):
        raise ValueError(f"unknown init {init!r}; expected 'random' or 'hosvd'")

    rng = np.random.default_rng(seed)
    norm_t = float(np.linalg.norm(t.ravel()))
    if norm_t == 0.0:
        zeros = tuple(np.zeros((e, rank)) for e in t.shape)
        return CpResult(KruskalTensor(zeros), 0.0, 0, True, [0.0])

    factors = []
    for mode, extent in enumerate(t.shape):
        if init == "hosvd":
            f = _hosvd_factor(t, mode, min(rank, extent))
            if f.shape[1] < rank:
                f = np.hstack([f, rng.uniform(-1.0, 1.0, (extent, rank - f.shape[1]))])
        else:
            f = rng.uniform(-1.0, 1.0, (extent, rank))
        factors.append(f)

    grams = [f.T @ f for f in factors]

    history: list[float] = []
    best_err = np.inf
    best_factors = [f.copy() for f in factors]
    prev_err = np.inf
    converged = False
    n_iters = 0

    for it in range(max_iters):
        n_iters = it + 1
        for n in range(t.ndim):
            gram = np.ones((rank, rank))
            for k in range(t.ndim):
                if k != n:
                    gram *= grams[k]
            rhs = _mttkrp(t, factors, n)
            factors[n] = _solve_normal(rhs, gram)
            grams[n] = factors[n].T @ factors[n]

        err = _rel_error(t, kruskal_to_dense(KruskalTensor(tuple(factors))), norm_t)
        history.append(err)
        if err < best_err:
            best_err = err
            best_factors = [f.copy() for f in factors]
        if abs(prev_err - err) < tol:
            converged = True
            break
        prev_err = err

    return CpResult(
        KruskalTensor(tuple(best_factors)), best_err, n_iters, converged, history
    )


def tucker_hooi(
    t: np.ndarray,
    ranks,
    max_iters: int = 500,
    tol: float = 1e-8,
) -> TuckerResult:
    """Fit a Tucker tensor to ``t``: HOSVD initialization, then HOOI sweeps.

    Factor columns are orthonormal throughout. Requested ranks larger than a
    mode extent are capped at the extent, with a note in ``result.warnings``.
    A mode whose rank equals its extent keeps its HOSVD factor, an
    orthonormal basis of the whole mode, and sweeps leave it out.
    """
    t = as_tensor(t)
    req = tuple(int(r) for r in ranks)
    if len(req) != t.ndim:
        raise RankError(
            f"expected {t.ndim} Tucker ranks for an order-{t.ndim} tensor, got {len(req)}"
        )
    if any(r < 1 for r in req):
        raise RankError(f"Tucker ranks must all be >= 1, got {req}")

    warnings: list[str] = []
    eff = []
    for mode, (r, extent) in enumerate(zip(req, t.shape)):
        if r > extent:
            warnings.append(f"rank {r} at mode {mode} capped at extent {extent}")
            r = extent
        eff.append(r)

    norm_t = float(np.linalg.norm(t.ravel()))
    factors = [_hosvd_factor(t, mode, r) for mode, r in enumerate(eff)]
    # A full-rank factor is square and orthogonal, a change of basis that
    # alters neither the other modes' left singular vectors nor the fit, so
    # sweeps project onto the truncated modes only.
    solved = [n for n in range(t.ndim) if eff[n] < t.shape[n]]

    def project(modes):
        out = t
        for mode in modes:
            out = n_mode_product(out, factors[mode].T, mode)
        return out

    history: list[float] = []
    prev_err = np.inf
    converged = False
    n_iters = 0
    for it in range(max_iters):
        n_iters = it + 1
        for n in solved:
            factors[n] = _hosvd_factor(project(m for m in solved if m != n), n, eff[n])

        approx = project(solved)
        for mode in solved:
            approx = n_mode_product(approx, factors[mode], mode)
        err = _rel_error(t, approx, norm_t)
        history.append(err)
        if abs(prev_err - err) < tol:
            converged = True
            break
        prev_err = err

    tucker = TuckerTensor(project(range(t.ndim)), tuple(factors))
    final = history[-1] if history else _rel_error(t, tucker_to_dense(tucker), norm_t)
    return TuckerResult(tucker, final, n_iters, converged, history, warnings)


def absorb_spatial(t: TuckerTensor, spatial_modes: tuple[int, ...] | None = None) -> TuckerTensor:
    """Contract the given factors into the core, replacing them by identities.

    ``spatial_modes`` defaults to every mode after the two channel modes.
    The dense reconstruction is unchanged; the returned core is the
    absorbed kernel used by bottleneck-style execution.
    """
    if spatial_modes is None:
        spatial_modes = range(2, t.core.ndim)
    modes = tuple(int(m) for m in spatial_modes)
    if len(set(modes)) != len(modes):
        raise DimensionError(f"spatial modes must be distinct, got {modes}")
    for m in modes:
        if not 0 <= m < t.core.ndim:
            raise DimensionError(
                f"spatial mode {m} out of range for order-{t.core.ndim} Tucker core"
            )
    core = t.core
    factors = list(t.factors)
    for m in modes:
        core = n_mode_product(core, factors[m], m)
        factors[m] = np.eye(factors[m].shape[0])
    return TuckerTensor(core, tuple(factors))


def _merge_spatial(k: KruskalTensor) -> np.ndarray:
    """The spatial factors of a Kruskal conv kernel (T, C, K_0, ..., K_{N-1})
    merged into taps ``spatial[i_0, ..., i_{N-1}, r] = prod_n U_{K_n}[i_n, r]``."""
    if k.order < 3:
        raise DimensionError(
            f"a Kruskal conv kernel needs order >= 3 (T, C, spatial...), got {k.order}"
        )
    return khatri_rao(k.factors[2:]).reshape(k.shape[2:] + (k.rank,))


def merge_spatial_factors(k: KruskalTensor) -> tuple[np.ndarray, np.ndarray]:
    """Merge a Kruskal conv kernel (T, C, K_0, ..., K_{N-1}) into MobileNet-style pieces.

    Returns ``(pointwise, spatial)`` where ``pointwise[t, c]`` is the product
    of the channel factors (U_out @ U_in.T) and
    ``spatial[i_0, ..., i_{N-1}, r] = prod_n U_{K_n}[i_n, r]``. Requires the
    rank to equal the input-channel extent (the depthwise condition).
    """
    spatial = _merge_spatial(k)
    u_t, u_c = k.factors[:2]
    if k.rank != u_c.shape[0]:
        raise RankError(
            f"depthwise merge requires rank == input channels, got rank {k.rank} "
            f"with {u_c.shape[0]} channels"
        )
    return u_t @ u_c.T, spatial
