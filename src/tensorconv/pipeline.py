"""End-to-end kernel compression and plan (de)serialization.

``compress`` decomposes a dense kernel under a chosen scheme, builds the
executable factorized layer, measures both the kernel approximation error and
the forward-output deviation on seeded random probes, and packages everything
as a :class:`FactorizedPlan` with per-stage cost annotations.

Execution and a plan's cost are folds over ``layer.stages``. Plans serialize
to a directory of tensor containers (one per named factor, ``layer.factors``)
plus a JSON manifest; ``load_plan`` restores an executable plan from the
manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import costs
from .container import read_finite_tensor, write_tensor
from .convref import ConvSpec, conv_nd_direct
from .decomp import cp_als, tucker_hooi
from .dense import as_tensor
from .errors import ContainerError, DimensionError, RankError
from .layers import (
    Activation,
    CpConvLayer,
    FrozenBatchNorm,
    HoCpConvLayer,
    MobileNetV1Block,
    MobileNetV2Block,
    PReLU,
    ReLU,
    TuckerConvLayer,
    build_mobilenet_v1,
    build_mobilenet_v2,
    forward,
)

__all__ = [
    "SCHEMES",
    "FactorizedPlan",
    "CompressionResult",
    "EquivalenceReport",
    "compress",
    "verify_equivalence",
    "execute_plan",
    "save_plan",
    "load_plan",
    "with_conv_params",
]

# Layer type of each scheme; a plan manifest names the scheme.
_LAYER_TYPES = {
    "cp": CpConvLayer,
    "tucker": TuckerConvLayer,
    "mobilenet-v1": MobileNetV1Block,
    "mobilenet-v2": MobileNetV2Block,
    "hocp": HoCpConvLayer,
}
SCHEMES = tuple(_LAYER_TYPES)

AnyLayer = Union[CpConvLayer, TuckerConvLayer, HoCpConvLayer, MobileNetV1Block, MobileNetV2Block]

MANIFEST_NAME = "plan.json"
_MANIFEST_FORMAT = "tensorconv-plan"


@dataclass(frozen=True)
class FactorizedPlan:
    """An executable factorized layer plus its staged cost annotations.

    ``cost.stages`` has one line per stage of ``layer.stages`` (channel
    contractions, per-mode 1-D convolutions, dense core conv, depthwise,
    activations, skip), each with its parameter and FLOP count for
    ``reference_input_extents``.
    """

    scheme: str
    layer: AnyLayer
    cost: costs.CostReport
    reference_input_extents: tuple[int, ...]

    @property
    def spec(self) -> ConvSpec:
        return self.layer.spec

    @property
    def stages(self) -> tuple[costs.StageCost, ...]:
        return self.cost.stages


@dataclass(frozen=True)
class CompressionResult:
    """A compressed plan, its errors and costs, and how its decomposition ran.

    ``n_iters``, ``converged`` and ``error_history`` are those of the ALS run
    that won among the CP restarts, or of the HOOI run; ``warnings`` holds
    the Tucker rank caps. For the CP-based schemes ``restart_errors`` holds
    each restart's final relative kernel error, in restart order, and
    ``winning_restart`` the index of the one the plan was built from (the
    first with the smallest error); Tucker has none.
    """

    plan: FactorizedPlan
    kernel_rel_error: float
    output_rel_error: float
    cost_before: costs.CostReport
    cost_after: costs.CostReport
    n_iters: int
    converged: bool
    error_history: tuple[float, ...]
    warnings: tuple[str, ...]
    restart_errors: tuple[float, ...]
    winning_restart: Optional[int]


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_rel_deviation: float
    tolerance: float
    worst_probe_index: int
    probe_seed: int
    n_probes: int

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"{status}: max_rel_deviation={self.max_rel_deviation:.6e} over "
            f"{self.n_probes} probes (tolerance {self.tolerance:g}, worst probe "
            f"index {self.worst_probe_index}, probe seed {self.probe_seed})"
        )


def execute_plan(plan: FactorizedPlan, x: np.ndarray) -> np.ndarray:
    return forward(plan.layer, x)


def _rel(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _probe_extents(spec: ConvSpec, probe_extent: int) -> tuple[int, ...]:
    return tuple(max(int(probe_extent), k) for k in spec.kernel_sizes)


def _worst_probe(
    plan: FactorizedPlan, kernel: np.ndarray, extents, probe_count: int, seed: int
) -> tuple[float, int]:
    """Worst relative forward deviation of the plan from the direct convolution
    over seeded probes, and its first probe index. A NaN deviation counts as
    the worst."""
    spec = plan.spec
    devs = []
    for s in np.random.SeedSequence(seed).spawn(probe_count):
        x = np.random.default_rng(s).standard_normal((spec.in_channels,) + tuple(extents))
        direct = conv_nd_direct(x, kernel, spec)
        factorized = execute_plan(plan, x)
        devs.append(_rel(
            float(np.linalg.norm((factorized - direct).ravel())),
            float(np.linalg.norm(direct.ravel())),
        ))
    i = int(np.argmax(devs))
    return devs[i], i


def _plan_for(scheme: str, layer: AnyLayer, extents) -> FactorizedPlan:
    return FactorizedPlan(scheme, layer, costs.report(layer.stages, extents), tuple(extents))


def _normalize_ranks(scheme: str, ranks, kernel_shape) -> tuple[int, ...]:
    t_out, c_in = kernel_shape[0], kernel_shape[1]
    if ranks is None:
        ranks = (c_in,) if scheme == "mobilenet-v1" else None
    if ranks is None:
        raise RankError(f"scheme {scheme!r} requires an explicit rank")
    if np.isscalar(ranks):
        ranks = (int(ranks),)
    else:
        ranks = tuple(int(r) for r in ranks)
    if any(r < 1 for r in ranks):
        raise RankError(f"ranks must all be >= 1, got {ranks}")

    if scheme in ("cp", "hocp", "mobilenet-v2"):
        if len(ranks) != 1:
            raise RankError(f"scheme {scheme!r} takes a single rank, got {ranks}")
    elif scheme == "mobilenet-v1":
        if len(ranks) != 1 or ranks[0] != c_in:
            raise RankError(
                f"mobilenet-v1 requires rank == input channels ({c_in}), got "
                f"{ranks}; pass rank {c_in}, or use mobilenet-v2 for unconstrained ranks"
            )
    elif scheme == "tucker":
        spatial = tuple(kernel_shape[2:])
        if len(ranks) == 2:
            ranks = ranks + spatial  # channel ranks only: keep spatial full
        elif len(ranks) != len(kernel_shape):
            raise RankError(
                f"tucker takes 2 channel ranks or {len(kernel_shape)} per-mode "
                f"ranks, got {len(ranks)}"
            )
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return ranks


def _best_cp(kernel, rank, max_iters, tol, seed, restarts):
    """The ALS run with the smallest error over the seeded restarts, every
    restart's error, and the winner's index."""
    best, errors, winner = None, [], 0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(max(1, int(restarts)))):
        res = cp_als(kernel, rank, max_iters=max_iters, tol=tol, seed=child)
        errors.append(res.rel_error)
        if best is None or res.rel_error < best.rel_error:
            best, winner = res, i
    return best, tuple(errors), winner


def compress(
    kernel: np.ndarray,
    scheme: str,
    ranks,
    probe_count: int = 8,
    probe_extent: int = 16,
    seed: int = 0,
    tol: float = 1e-8,
    max_iters: int = 500,
    restarts: int = 3,
    stride=1,
    padding=0,
) -> CompressionResult:
    """Decompose ``kernel`` under ``scheme`` and quantify the rewriting.

    Deterministic for a fixed ``seed``: the decomposition restarts and the
    probe activations are all derived from it. ``kernel_rel_error`` is the
    Frobenius error of the dense kernel the plan implements;
    ``output_rel_error`` is the worst relative forward deviation against the
    direct convolution over ``probe_count`` seeded standard-normal probes.
    """
    kernel = as_tensor(kernel)
    if kernel.ndim < 3:
        raise DimensionError(
            f"conv kernel needs order >= 3 (T, C, spatial...), got {kernel.ndim}"
        )
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count}")
    ranks = _normalize_ranks(scheme, ranks, kernel.shape)
    spec = ConvSpec.from_kernel(kernel, stride, padding)

    if scheme == "tucker":
        res = tucker_hooi(kernel, ranks, max_iters=max_iters, tol=tol)
        layer: AnyLayer = TuckerConvLayer.from_tucker(res.tucker, spec)
        warnings = tuple(res.warnings)
        restart_errors, winning_restart = (), None
    else:
        res, restart_errors, winning_restart = _best_cp(
            kernel, ranks[0], max_iters, tol, seed, restarts
        )
        warnings = ()
        if scheme == "cp":
            layer = CpConvLayer(res.kruskal, spec)
        elif scheme == "hocp":
            layer = HoCpConvLayer(CpConvLayer(res.kruskal, spec))
        elif scheme == "mobilenet-v1":
            layer = build_mobilenet_v1(res.kruskal, spec.strides, spec.paddings)
        else:
            layer = build_mobilenet_v2(res.kruskal, spec.strides, spec.paddings)

    norm_kernel = float(np.linalg.norm(kernel.ravel()))
    kernel_rel_error = _rel(
        float(np.linalg.norm((kernel - layer.dense_kernel()).ravel())), norm_kernel
    )

    extents = _probe_extents(spec, probe_extent)
    plan = _plan_for(scheme, layer, extents)
    worst, _ = _worst_probe(plan, kernel, extents, probe_count, seed)

    return CompressionResult(
        plan=plan,
        kernel_rel_error=kernel_rel_error,
        output_rel_error=worst,
        cost_before=costs.report_regular(spec, extents),
        cost_after=plan.cost,
        n_iters=res.n_iters,
        converged=res.converged,
        error_history=tuple(res.error_history),
        warnings=warnings,
        restart_errors=restart_errors,
        winning_restart=winning_restart,
    )


def verify_equivalence(
    plan: FactorizedPlan,
    kernel: np.ndarray,
    tolerance: float,
    probe_count: int = 8,
    probe_extent: int = 16,
    seed: int = 0,
) -> EquivalenceReport:
    """Run the plan and the direct convolution on identical probes.

    Fails when the worst-case relative deviation exceeds ``tolerance`` or is
    NaN; the report carries the deviation, the offending probe index and the
    probe seed so the failure is reproducible.
    """
    kernel = as_tensor(kernel)
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count}")
    spec = plan.spec
    if kernel.shape != (spec.out_channels, spec.in_channels) + spec.kernel_sizes:
        raise DimensionError(
            f"kernel shape {kernel.shape} does not match plan spec "
            f"({spec.out_channels}, {spec.in_channels}, *{spec.kernel_sizes})"
        )
    extents = _probe_extents(spec, probe_extent)
    worst, worst_idx = _worst_probe(plan, kernel, extents, probe_count, seed)
    return EquivalenceReport(
        passed=bool(worst <= tolerance),
        max_rel_deviation=worst,
        tolerance=float(tolerance),
        worst_probe_index=worst_idx,
        probe_seed=seed,
        n_probes=probe_count,
    )


def with_conv_params(plan: FactorizedPlan, stride, padding) -> FactorizedPlan:
    """Same factors, new stride/padding; cost annotations are recomputed."""
    spec = plan.spec
    new_spec = ConvSpec(
        spec.in_channels, spec.out_channels, spec.kernel_sizes, stride, padding
    )
    return _plan_for(plan.scheme, plan.layer.with_spec(new_spec), plan.reference_input_extents)


# ---------------------------------------------------------------------------
# Serialization: one container per factor, JSON manifest listing roles
# ---------------------------------------------------------------------------

def _encode_activation(act: Optional[Activation]):
    if act is None:
        return None
    if isinstance(act, ReLU):
        return {"kind": "relu"}
    if isinstance(act, PReLU):
        return {"kind": "prelu", "slope": act.slope}
    if isinstance(act, FrozenBatchNorm):
        return {
            "kind": "batchnorm",
            "mean": np.asarray(act.mean).tolist(),
            "var": np.asarray(act.var).tolist(),
            "scale": np.asarray(act.scale).tolist(),
            "shift": np.asarray(act.shift).tolist(),
            "eps": act.eps,
        }
    raise TypeError(f"cannot serialize activation {type(act).__name__}")


def _decode_activation(obj) -> Optional[Activation]:
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "relu":
        return ReLU()
    if kind == "prelu":
        return PReLU(float(obj["slope"]))
    if kind == "batchnorm":
        def undo(v):
            return tuple(v) if isinstance(v, list) else float(v)

        return FrozenBatchNorm(
            undo(obj["mean"]), undo(obj["var"]), undo(obj["scale"]),
            undo(obj["shift"]), float(obj.get("eps", 1e-5)),
        )
    raise ContainerError(f"unknown activation kind {kind!r}")


def save_plan(plan: FactorizedPlan, out_dir) -> Path:
    """Write factor containers plus ``plan.json`` into ``out_dir``; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    factor_entries = []
    for role, factor in plan.layer.factors:
        fname = f"{role}.tensor"
        write_tensor(out / fname, factor)
        factor_entries.append({"role": role, "file": fname})

    spec = plan.spec
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": 1,
        "scheme": plan.scheme,
        "in_channels": spec.in_channels,
        "out_channels": spec.out_channels,
        "kernel_sizes": list(spec.kernel_sizes),
        "strides": list(spec.strides),
        "paddings": list(spec.paddings),
        "ranks": list(getattr(plan.layer, "ranks", None) or [plan.layer.rank]),
        "factors": factor_entries,
        "reference_input_extents": list(plan.reference_input_extents),
        "cost": {
            "convention": plan.cost.convention,
            "params": plan.cost.params,
            "flops": plan.cost.flops,
            "stages": [
                {"label": s.label, "params": s.params, "flops": s.flops}
                for s in plan.cost.stages
            ],
        },
    }
    if plan.scheme == "hocp":  # the only scheme with activations and a skip
        layer = plan.layer
        manifest["activations"] = [
            _encode_activation(a) for a in (layer.activations or [None] * spec.n_spatial)
        ]
        if layer.skip is not None:
            write_tensor(out / "skip.tensor", layer.skip)
            manifest["skip"] = "skip.tensor"

    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def load_plan(manifest_path) -> FactorizedPlan:
    """Restore an executable plan from a manifest written by :func:`save_plan`.

    The manifest and the files it names are untrusted input: whatever keeps
    them from making a plan (a missing key, a value of the wrong type or
    range, a factor that does not fit the spec, an unreadable file) raises
    :class:`ContainerError` naming the manifest.
    """
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ContainerError(f"{path}: cannot read plan manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise ContainerError(f"{path}: not a plan manifest")
    try:
        return _plan_from_manifest(manifest, path)
    except ContainerError:
        raise
    # DimensionError and RankError are ValueErrors.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, OSError) as exc:
        raise ContainerError(f"{path}: malformed plan manifest: {exc}") from exc


def _plan_from_manifest(manifest: dict, path: Path) -> FactorizedPlan:
    scheme = manifest.get("scheme")
    if scheme not in SCHEMES:
        raise ContainerError(f"{path}: unknown scheme {scheme!r}")

    base = path.parent
    spec = ConvSpec(
        manifest["in_channels"],
        manifest["out_channels"],
        tuple(manifest["kernel_sizes"]),
        tuple(manifest["strides"]),
        tuple(manifest["paddings"]),
    )
    factors = {
        entry["role"]: read_finite_tensor(base / entry["file"])
        for entry in manifest["factors"]
    }

    def need(role: str) -> np.ndarray:
        if role not in factors:
            raise ContainerError(f"{path}: manifest is missing factor role {role!r}")
        return factors[role]

    extras = {}
    if scheme == "hocp":
        acts = manifest.get("activations")
        extras["activations"] = (
            tuple(_decode_activation(a) for a in acts) if acts is not None else None
        )
        skip = manifest.get("skip")
        extras["skip"] = read_finite_tensor(base / skip) if skip else None
    layer = _LAYER_TYPES[scheme].from_factors(need, spec, **extras)

    extents = tuple(manifest.get("reference_input_extents", ()))
    if not extents:
        extents = _probe_extents(spec, 16)
    return _plan_for(scheme, layer, extents)
