"""Shared helpers for the test suite."""

import numpy as np

from tensorconv import ConvSpec, KruskalTensor, MobileNetV1Block, TuckerTensor


def rel_error(actual, expected) -> float:
    """Frobenius relative error; 0/0 counts as 0, x/0 as inf."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    num = np.linalg.norm((actual - expected).ravel())
    den = np.linalg.norm(expected.ravel())
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def random_kruskal(rng, shape, rank, low=-1.0, high=1.0) -> KruskalTensor:
    return KruskalTensor(tuple(rng.uniform(low, high, (e, rank)) for e in shape))


def random_mobilenet_v1(rng, t, c, kernels, stride=1, padding=0) -> MobileNetV1Block:
    """A MobileNet-v1 block with uniform random taps (K..., C) and pointwise (T, C)."""
    spatial = rng.uniform(-1.0, 1.0, tuple(kernels) + (c,))
    pointwise = rng.uniform(-1.0, 1.0, (t, c))
    return MobileNetV1Block(spatial, pointwise, ConvSpec(c, t, tuple(kernels), stride, padding))


def orthonormal_factor(rng, rows, cols) -> np.ndarray:
    """Random matrix with orthonormal columns (requires rows >= cols)."""
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def random_tucker(rng, shape, ranks) -> TuckerTensor:
    core = rng.standard_normal(ranks)
    factors = tuple(
        orthonormal_factor(rng, e, r) for e, r in zip(shape, ranks)
    )
    return TuckerTensor(core, factors)


def spec_for_kernel(w, stride=1, padding=0) -> ConvSpec:
    return ConvSpec.from_kernel(np.asarray(w, dtype=np.float64), stride, padding)


# Sweep controls that cp_als, tucker_hooi and compress reject before any
# decomposition, as (keyword, value, exception). With no sweep ALS returned
# its random start at an infinite error; a NaN tol never stopped a sweep; a
# bool tol ran as 1.0, and a str or None one raised from a comparison.
BAD_SWEEP_CONTROLS = [
    ("max_iters", 0, ValueError),
    ("max_iters", -1, ValueError),
    ("max_iters", 2.5, TypeError),
    ("max_iters", True, TypeError),
    ("tol", float("nan"), ValueError),
    ("tol", -1.0, ValueError),
    ("tol", True, TypeError),
    ("tol", "1e-3", TypeError),
    ("tol", None, TypeError),
]
