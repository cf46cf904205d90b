"""CP (Kruskal) and Tucker decompositions of dense tensors.

CP fitting uses alternating least squares with seeded uniform random
initialization (HOSVD-based init available as an option); Tucker fitting uses
HOSVD initialization followed by HOOI sweeps. Non-convergence is not an
error: both return the best iterate found together with its relative
reconstruction error and the full error history. The MobileNet-v1 fit
(:func:`depthwise_separable`) is closed form: one batched SVD.

Seeded CP restarts run in lockstep: the J restarts' factors sit side by side,
mode n as one I_n x (J*R) matrix, so each mode update is one MTTKRP, one
batched Gram and one batched normal-equation solve for all of them, and each
sweep's exact residuals come from one Khatri-Rao product and one stacked
GEMM, written once for every J. Every restart stops at its own ``tol``;
:func:`cp_als` and :func:`kruskal_to_dense` are the case J = 1.

Memory is bounded by the factors, not by their Khatri-Rao product: no step
allocates much more than ``|X| * J * R / max_extent`` elements for a tensor X
fitted at rank R by J restarts in lockstep (J = 1 for :func:`cp_als`). The
MTTKRP of an ALS sweep contracts X with the factor of its largest other mode
in one GEMM, then folds in the remaining factors one at a time over the
shared rank index; :func:`kruskal_to_dense` is one GEMM of the largest mode's
factor with the Khatri-Rao product of the others. HOSVD factors come from
thin SVDs (left singular vectors only). A mode kept at full rank (typically
a spatial mode of a conv kernel) takes the identity as its factor: HOOI
neither computes a basis of it nor projects onto it, so its sweeps and the
core touch the truncated modes only.

Normal equations in the ALS sweep are solved by ``np.linalg.solve`` once a
Cholesky factorization has shown the R x R Hadamard Gram positive definite
and no worse conditioned than ``1 / PINV_RCOND``. A rank-deficient Gram
(duplicated or collinear factor columns, overcomplete ranks) goes through a
pseudo-inverse with singular values below ``PINV_RCOND`` (relative to the
largest) treated as zero instead, so such problems degrade gracefully. A
restart whose Gram needs it takes that path alone; the others keep theirs.

Tensors holding NaN or infinite values are rejected with ``ValueError``
before any SVD, which may not return on an infinite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convref import _integer, _tolerance
from .dense import as_matrix, as_tensor, khatri_rao, n_mode_product, unfold
from .errors import DimensionError, RankError

__all__ = [
    "KruskalTensor",
    "TuckerTensor",
    "CpResult",
    "TuckerResult",
    "kruskal_to_dense",
    "cp_als",
    "tucker_hooi",
    "depthwise_separable",
    "PINV_RCOND",
]

# Relative singular-value cutoff for pseudo-inverse solves of ALS normal equations.
PINV_RCOND = 1e-12


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    The case J = 1 of :func:`_dense_stack`: ``U_m @ khatri_rao(U_k, k != m).T``
    for the largest mode m, so the largest temporary is ``|W| * R / extent_m``.
    """
    if k.order == 1:
        return k.factors[0].sum(axis=1)
    return np.ascontiguousarray(_dense_stack(k.factors, k.rank)[0])


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


def _require_finite(t: np.ndarray) -> None:
    # min and max propagate NaN and expose +-inf without a full-size mask; an
    # SVD of a matrix holding an inf may never return.
    if not (np.isfinite(t.min()) and np.isfinite(t.max())):
        raise ValueError("tensor holds NaN or infinite values")


def _sweep_controls(max_iters, tol) -> int:
    """``max_iters`` as an int after checking both sweep controls:
    ``TypeError`` for a float, str or bool count, ``ValueError`` for a count
    below 1; ``tol`` by :func:`~tensorconv.convref._tolerance`, and used as
    given. No sweep would leave the random start with an infinite error,
    and a NaN ``tol`` would never stop."""
    max_iters = _integer(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    _tolerance(tol, "tol")
    return max_iters


def _solve_normal_stack(rhs: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The ALS update ``rhs @ inv(gram)`` for J restarts: ``rhs`` is I x (J*R),
    restart j in columns j*R to (j+1)*R - 1, and ``grams`` the (J, R, R) stack.

    One batched solve when every Gram's Cholesky factor L exists and keeps
    ``min(L_ii)**2 >= PINV_RCOND * max(L_ii)**2`` (the squared diagonal lies
    inside the Gram's eigenvalue range, so a smaller ratio means a condition
    number above ``1 / PINV_RCOND``). Otherwise a lone restart takes the
    pseudo-inverse, as a singular Gram needs, and a batch solves each restart
    as a batch of one.
    """
    j, r, _ = grams.shape
    rhs3 = rhs.reshape(rhs.shape[0], j, r)
    try:
        pivots = np.diagonal(np.linalg.cholesky(grams), axis1=1, axis2=2) ** 2
        passed = bool(np.all(pivots.min(axis=1) >= PINV_RCOND * pivots.max(axis=1)))
    except np.linalg.LinAlgError:
        passed = False
    if not passed:
        if j == 1:
            return rhs @ np.linalg.pinv(grams[0], rcond=PINV_RCOND)
        return np.hstack([_solve_normal_stack(rhs3[:, i], grams[i:i + 1]) for i in range(j)])
    out = np.linalg.solve(grams, rhs3.transpose(1, 2, 0))  # (J, R, I)
    return out.transpose(2, 0, 1).reshape(rhs.shape)


def _stacked_grams(f: np.ndarray, rank: int) -> np.ndarray:
    """The (J, R, R) stack of ``U_j.T @ U_j`` for the restarts side by side in ``f``."""
    f3 = f.reshape(f.shape[0], -1, rank)
    return np.matmul(f3.transpose(1, 2, 0), f3.transpose(1, 0, 2))


def _dense_stack(factors, rank: int) -> np.ndarray:
    """The (J, I_0, ..., I_{N-1}) dense tensors of the J restarts side by side
    in ``factors``: one Khatri-Rao product of the non-largest modes for all
    restarts and one stacked GEMM with the largest mode's factor."""
    shape = tuple(f.shape[0] for f in factors)
    m = int(np.argmax(shape))
    kr = khatri_rao([f for i, f in enumerate(factors) if i != m])
    j = kr.shape[1] // rank
    dense = np.matmul(factors[m].reshape(-1, j, rank).transpose(1, 0, 2),
                      kr.reshape(-1, j, rank).transpose(1, 2, 0))
    return np.moveaxis(dense.reshape((j, shape[m]) + shape[:m] + shape[m + 1 :]), 1, m + 1)


def _restart_errors(t: np.ndarray, factors, rank: int, norm_t: float) -> list[float]:
    """Each restart's exact relative residual, bitwise :func:`_rel_error` of its
    :func:`kruskal_to_dense` as both reconstruct through :func:`_dense_stack`,
    written over the J reconstructions and summed in row-major order."""
    diff = _dense_stack(factors, rank)
    np.subtract(t, diff, out=diff)
    return [float(np.linalg.norm(d.ravel()) / norm_t) for d in diff]


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
    (overcomplete CP). A tensor holding NaN or infinite values, ``max_iters``
    below 1 or a NaN or negative ``tol`` raises ``ValueError``, a float or
    bool ``rank`` or ``max_iters`` or a non-number ``tol`` (bool, str,
    ``None``) ``TypeError``.
    """
    return _cp_als_lockstep(t, rank, [seed], max_iters, tol, init)[0]


def _cp_als_lockstep(t, rank, seeds, max_iters, tol, init) -> list[CpResult]:
    """:func:`cp_als` from each of ``seeds``, all J restarts in one ALS loop.

    Mode n's factors sit side by side as one I_n x (J*R) matrix, restart j in
    columns j*R to (j+1)*R - 1. MTTKRP works column by column, so one
    :func:`_mttkrp` serves every restart; the Hadamard Grams form a (J, R, R)
    stack for one batched solve; one stacked GEMM makes the reconstructions
    for the exact residuals. Each restart stops at its own ``tol`` and then
    leaves the loop, so its result is that of a solo run up to rounding.
    """
    t = as_tensor(t)
    if t.ndim < 2:
        raise DimensionError(f"cp_als needs a tensor of order >= 2, got {t.ndim}")
    rank = _integer(rank, "rank")
    if rank < 1:
        raise RankError(f"CP rank must be >= 1, got {rank}")
    if init not in ("random", "hosvd"):
        raise ValueError(f"unknown init {init!r}; expected 'random' or 'hosvd'")
    max_iters = _sweep_controls(max_iters, tol)
    _require_finite(t)

    norm_t = float(np.linalg.norm(t.ravel()))
    if norm_t == 0.0:
        return [
            CpResult(KruskalTensor(tuple(np.zeros((e, rank)) for e in t.shape)), 0.0, 0, True, [0.0])
            for _ in seeds
        ]

    hosvd = [_hosvd_factor(t, mode, min(rank, extent)) if init == "hosvd" else None
             for mode, extent in enumerate(t.shape)]
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        start = []
        for f, extent in zip(hosvd, t.shape):
            if f is None:
                f = rng.uniform(-1.0, 1.0, (extent, rank))
            elif f.shape[1] < rank:
                f = np.hstack([f, rng.uniform(-1.0, 1.0, (extent, rank - f.shape[1]))])
            start.append(f)
        starts.append(start)
    factors = [np.hstack(fs) for fs in zip(*starts)]
    grams = [_stacked_grams(f, rank) for f in factors]

    runs = [CpResult(KruskalTensor(tuple(fs)), np.inf, 0, False) for fs in starts]
    active = list(range(len(runs)))  # restart at each column block of `factors`
    for it in range(max_iters):
        for n in range(t.ndim):
            others = [k for k in range(t.ndim) if k != n]
            gram = grams[others[0]].copy()
            for k in others[1:]:
                gram *= grams[k]
            factors[n] = _solve_normal_stack(_mttkrp(t, factors, n), gram)
            grams[n] = _stacked_grams(factors[n], rank)

        keep = []
        for p, err in enumerate(_restart_errors(t, factors, rank, norm_t)):
            run = runs[active[p]]
            prev_err = run.error_history[-1] if run.error_history else np.inf
            run.n_iters = it + 1
            run.error_history.append(err)
            if err < run.rel_error:
                run.rel_error = err
                run.kruskal = KruskalTensor(
                    tuple(f[:, p * rank : (p + 1) * rank].copy() for f in factors)
                )
            if abs(prev_err - err) < tol:
                run.converged = True
            else:
                keep.append(p)
        if not keep:
            break
        if len(keep) < len(active):
            active = [active[p] for p in keep]
            factors = [f.reshape(f.shape[0], -1, rank)[:, keep].reshape(f.shape[0], -1)
                       for f in factors]
            grams = [g[keep] for g in grams]
    return runs


def tucker_hooi(
    t: np.ndarray,
    ranks,
    max_iters: int = 500,
    tol: float = 1e-8,
) -> TuckerResult:
    """Fit a Tucker tensor to ``t``: HOSVD initialization, then HOOI sweeps.

    Factor columns are orthonormal throughout. Requested ranks larger than a
    mode extent are capped at the extent, with a note in ``result.warnings``.
    A mode whose rank equals its extent takes the identity as its factor,
    and neither the sweeps nor the core project onto it. A tensor
    holding NaN or infinite values, ``max_iters`` below 1 or a NaN or
    negative ``tol`` raises ``ValueError``, a float rank or ``max_iters``, or
    a non-number ``tol`` (bool, str, ``None``), ``TypeError``.
    """
    t = as_tensor(t)
    req = tuple(_integer(r, "ranks") for r in ranks)
    if len(req) != t.ndim:
        raise RankError(
            f"expected {t.ndim} Tucker ranks for an order-{t.ndim} tensor, got {len(req)}"
        )
    if any(r < 1 for r in req):
        raise RankError(f"Tucker ranks must all be >= 1, got {req}")
    max_iters = _sweep_controls(max_iters, tol)
    _require_finite(t)

    warnings: list[str] = []
    eff = []
    for mode, (r, extent) in enumerate(zip(req, t.shape)):
        if r > extent:
            warnings.append(f"rank {r} at mode {mode} capped at extent {extent}")
            r = extent
        eff.append(r)

    norm_t = float(np.linalg.norm(t.ravel()))
    # Any orthogonal factor of a full-rank mode is a change of basis that
    # alters neither the other modes' left singular vectors nor the fit, so
    # it is the identity, and only the truncated modes are solved or projected.
    solved = [n for n in range(t.ndim) if eff[n] < t.shape[n]]
    factors = [_hosvd_factor(t, n, r) if n in solved else np.eye(r) for n, r in enumerate(eff)]

    def project(modes):
        out = t
        for mode in modes:
            out = n_mode_product(out, factors[mode].T, mode)
        return out

    history: list[float] = []
    prev_err = np.inf
    converged = False
    for _ in range(max_iters):
        for n in solved:
            partial = project(m for m in solved if m != n)
            factors[n] = _hosvd_factor(partial, n, eff[n])
        # The last partial left out only mode n, so projecting it there gives
        # project(solved) in the same order of products.
        approx = n_mode_product(partial, factors[n].T, n) if solved else t
        for mode in solved:
            approx = n_mode_product(approx, factors[mode], mode)
        err = _rel_error(t, approx, norm_t)
        history.append(err)
        if abs(prev_err - err) < tol:
            converged = True
            break
        prev_err = err

    # With every mode at full rank the core is t, copied so as not to share the caller's array.
    tucker = TuckerTensor(project(solved) if solved else t.copy(), tuple(factors))
    return TuckerResult(tucker, history[-1], len(history), converged, history, warnings)


def depthwise_separable(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closest MobileNet-v1 ``(pointwise, spatial)`` to a conv kernel (T, C, K...).

    A v1 block's kernel ``pointwise[t, c] * spatial[..., c]`` is CP with the
    identity as input-channel factor, so the fit splits into one rank-1 fit
    per channel of ``W[:, c]`` as a T x prod(K) matrix, solved by its leading
    singular pair (Eckart-Young); one batched SVD makes all C. ``pointwise``
    carries the singular values, and each channel's taps have unit norm.
    """
    w = as_tensor(kernel)
    if w.ndim < 3:
        raise DimensionError(
            f"a conv kernel needs order >= 3 (T, C, spatial...), got {w.ndim}"
        )
    _require_finite(w)
    t, c = w.shape[:2]
    u, s, vt = np.linalg.svd(np.moveaxis(w.reshape(t, c, -1), 1, 0), full_matrices=False)
    pointwise = np.ascontiguousarray((u[:, :, 0] * s[:, :1]).T)
    spatial = np.ascontiguousarray(vt[:, 0].T).reshape(w.shape[2:] + (c,))
    return pointwise, spatial
