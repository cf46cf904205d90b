"""End-to-end kernel compression and plan (de)serialization.

``compress`` decomposes a dense kernel under a chosen scheme, builds the
executable factorized layer, measures both the kernel approximation error and
the forward-output deviation on seeded random probes, and packages everything
as a :class:`FactorizedPlan` with per-stage cost annotations.

Execution and a plan's cost are folds over ``layer.stages``. Plans serialize
to a directory of tensor containers (one per named factor, ``layer.factors``,
and a CP layer's skip) plus a JSON manifest; ``load_plan`` restores an
executable plan from the manifest alone. A CP layer's activations, whatever
its scheme label, are one manifest entry per spatial mode: null, or
``{"kind": k, **fields}``, every field of the activation's dataclass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import costs
from .container import read_finite_tensor, write_tensor
from .convref import ConvSpec, _check_conv_operands, _direct_into, _integer, _tolerance
from .decomp import _cp_als_lockstep, _sweep_controls, depthwise_separable, tucker_hooi
from .dense import as_tensor
from .errors import ContainerError, RankError
from .layers import (
    Activation,
    CpConvLayer,
    FrozenBatchNorm,
    MobileNetV1Block,
    MobileNetV2Block,
    PReLU,
    ReLU,
    TuckerConvLayer,
    _Layer,
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
    "hocp": CpConvLayer,
}
SCHEMES = tuple(_LAYER_TYPES)

# Activation class of each kind a manifest names.
_ACTIVATION_TYPES = {"relu": ReLU, "prelu": PReLU, "batchnorm": FrozenBatchNorm}

# The verification protocol of compress and verify_equivalence: this many
# seeded probes, each at least this long on every mode (and the kernel's
# extent where that is longer).
_PROBE_COUNT = 8
_PROBE_EXTENT = 16

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
    layer: _Layer
    cost: costs.CostReport
    reference_input_extents: tuple[int, ...]

    @property
    def spec(self) -> ConvSpec:
        return self.layer.spec


@dataclass(frozen=True)
class CompressionResult:
    """A compressed plan, its errors and costs, and how its decomposition ran.

    ``n_iters``, ``converged`` and ``error_history`` are those of the ALS run
    that won among the CP restarts, or of the HOOI run; ``warnings`` holds
    the Tucker rank caps. For the CP-based schemes ``restart_errors``,
    ``restart_iters`` and ``restart_converged`` hold each restart's final
    relative kernel error, sweep count and convergence, in restart order, and
    ``winning_restart`` the index of the one the plan was built from (the
    first with the smallest error); Tucker has none. ``mobilenet-v1`` is closed
    form: ``n_iters=0``, ``converged=True``, no error history, no restarts.
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
    restart_iters: tuple[int, ...]
    restart_converged: tuple[bool, ...]
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


def _probe_extents(spec: ConvSpec) -> tuple[int, ...]:
    return tuple(max(_PROBE_EXTENT, k) for k in spec.kernel_sizes)


def _seed(seed) -> int:
    """``seed`` as an int: ``TypeError`` for a non-integer, ``ValueError`` below 0."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _worst_probe(plan: FactorizedPlan, kernel: np.ndarray, seed: int) -> tuple[float, int]:
    """Worst relative forward deviation of the plan from the direct convolution
    over the ``_PROBE_COUNT`` seeded probes, and its first probe index. A NaN
    deviation counts as the worst.

    One probe is held at a time: each is drawn into the same buffer, and its
    direct convolution is written over the previous probe's
    (``convref._direct_into``). Freeing those arrays and allocating them
    anew per probe lets the allocator hand their pages back and fault them
    in again: with glibc's default thresholds that slowed the ``compress``
    benchmark's ``verify`` by 4-8% (2 vCPUs)."""
    spec = plan.spec
    extents = _probe_extents(spec)
    x = np.empty((spec.in_channels,) + extents)
    kernel = _check_conv_operands(x, kernel, spec)[1]
    direct = np.empty((spec.out_channels,) + spec.output_extents(extents))
    devs = []
    for s in np.random.SeedSequence(seed).spawn(_PROBE_COUNT):
        np.random.default_rng(s).standard_normal(out=x)
        _direct_into(x, kernel, spec, direct)
        deviation = execute_plan(plan, x)
        deviation -= direct
        devs.append(_rel(
            float(np.linalg.norm(deviation.ravel())), float(np.linalg.norm(direct.ravel()))
        ))
        del deviation  # not held while the next probe's direct output is computed
    i = int(np.argmax(devs))
    return devs[i], i


def _plan_for(scheme: str, layer: _Layer, extents) -> FactorizedPlan:
    return FactorizedPlan(scheme, layer, costs.report(layer.stages, extents), tuple(extents))


def _normalize_ranks(scheme: str, ranks, kernel_shape) -> tuple[int, ...]:
    """The rank rule of :func:`compress`: ``tucker``'s channel ranks (R_out, R_in), or one rank R,
    each an integer >= 1; ``mobilenet-v1`` has one depthwise filter per input channel, so its rank is
    C, and ``None`` means C. Any other ranks raise :class:`RankError`."""
    c_in = kernel_shape[1]
    if ranks is None and scheme == "mobilenet-v1":
        ranks = c_in
    if ranks is None:
        raise RankError(f"scheme {scheme!r} requires an explicit rank")
    try:
        ranks = tuple(_integer(r, "ranks") for r in ((ranks,) if np.isscalar(ranks) else ranks))
    except TypeError as exc:
        raise RankError(f"ranks must be integers, got {ranks!r}") from exc
    if any(r < 1 for r in ranks):
        raise RankError(f"ranks must all be >= 1, got {ranks}")
    if len(ranks) != (2 if scheme == "tucker" else 1):
        form = "the channel ranks (R_out, R_in)" if scheme == "tucker" else "a single rank"
        raise RankError(f"scheme {scheme!r} takes {form}, got {ranks}")
    if scheme == "mobilenet-v1" and ranks != (c_in,):
        raise RankError(
            f"mobilenet-v1 requires rank == input channels ({c_in}), got "
            f"{ranks}; pass rank {c_in} or none, or use mobilenet-v2 for unconstrained ranks"
        )
    return ranks


def _best_cp(kernel, rank, max_iters, tol, seed, restarts):
    """Every seeded restart's ALS run, fitted in lockstep, and the index of
    the winner: the first with the smallest error."""
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    runs = _cp_als_lockstep(kernel, rank, seeds, max_iters, tol, "random")
    return runs, min(range(len(runs)), key=lambda i: runs[i].rel_error)


def compress(
    kernel: np.ndarray,
    scheme: str,
    ranks,
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
    direct convolution over the probes :func:`verify_equivalence` draws.
    ``tol``, ``max_iters`` and ``restarts`` drive ALS and HOOI; ``mobilenet-v1``
    is closed form (:func:`~tensorconv.decomp.depthwise_separable`) and uses
    ``seed`` for the probes only. ``ranks`` is one rank R, or ``tucker``'s
    channel ranks (R_out, R_in); ``mobilenet-v1``'s is C, also when ``None``.
    Each argument is checked before any fit or probe, for every scheme: bad
    ranks raise :class:`RankError`; ``restarts`` or ``max_iters`` < 1, a
    negative ``seed`` or a NaN or negative ``tol`` ``ValueError``; a float,
    str or bool count or ``seed``, a ``None`` ``seed`` or a bool, str or
    ``None`` ``tol`` ``TypeError``. A kernel holding NaN or infinite values
    raises ``ValueError`` before any decomposition, as every fit checks it first.
    """
    kernel = as_tensor(kernel)
    spec = ConvSpec.from_kernel(kernel, stride, padding)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if _integer(restarts, "restarts") < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    max_iters = _sweep_controls(max_iters, tol)
    seed = _seed(seed)
    ranks = _normalize_ranks(scheme, ranks, kernel.shape)

    res = None  # the ALS or HOOI run; mobilenet-v1 is closed form
    warnings, runs, winning_restart = (), [], None
    if scheme == "mobilenet-v1":
        pointwise, spatial = depthwise_separable(kernel)
        layer: _Layer = MobileNetV1Block(spatial, pointwise, spec)
    elif scheme == "tucker":
        res = tucker_hooi(kernel, ranks + kernel.shape[2:], max_iters=max_iters, tol=tol)
        u_out, u_in = res.tucker.factors[:2]  # the spatial factors are identities
        layer = TuckerConvLayer(u_in.T, res.tucker.core, u_out, spec)
        warnings = tuple(res.warnings)
    else:
        runs, winning_restart = _best_cp(kernel, ranks[0], max_iters, tol, seed, restarts)
        res = runs[winning_restart]
        if scheme in ("cp", "hocp"):  # HO-CP: one empty activation slot per mode
            layer = CpConvLayer(res.kruskal, spec, (None,) * spec.n_spatial if scheme == "hocp" else None)
        else:
            layer = build_mobilenet_v2(res.kruskal, spec.strides, spec.paddings)

    norm_kernel = float(np.linalg.norm(kernel.ravel()))
    kernel_rel_error = _rel(
        float(np.linalg.norm((kernel - layer.dense_kernel()).ravel())), norm_kernel
    )

    extents = _probe_extents(spec)
    plan = _plan_for(scheme, layer, extents)
    worst, _ = _worst_probe(plan, kernel, seed)

    return CompressionResult(
        plan=plan,
        kernel_rel_error=kernel_rel_error,
        output_rel_error=worst,
        cost_before=costs.report_regular(spec, extents),
        cost_after=plan.cost,
        n_iters=0 if res is None else res.n_iters,
        converged=True if res is None else res.converged,
        error_history=() if res is None else tuple(res.error_history),
        warnings=warnings,
        restart_errors=tuple(r.rel_error for r in runs),
        restart_iters=tuple(r.n_iters for r in runs),
        restart_converged=tuple(r.converged for r in runs),
        winning_restart=winning_restart,
    )


def verify_equivalence(
    plan: FactorizedPlan,
    kernel: np.ndarray,
    tolerance: float,
    seed: int = 0,
) -> EquivalenceReport:
    """Run the plan and the direct convolution on identical probes: 8
    (``_PROBE_COUNT``) seeded standard-normal inputs, ``max(16, K_i)``
    (``_PROBE_EXTENT``) long on mode i.

    Fails when the worst-case relative deviation exceeds ``tolerance`` or is
    NaN; the report carries the deviation, the offending probe index and the
    probe seed so the failure is reproducible. ``tolerance`` and ``seed``
    take the rules of :func:`compress`'s ``tol`` and ``seed``, checked
    before any probe runs.
    """
    kernel = as_tensor(kernel)
    tolerance = _tolerance(tolerance, "tolerance")
    seed = _seed(seed)
    worst, worst_idx = _worst_probe(plan, kernel, seed)
    return EquivalenceReport(
        passed=bool(worst <= tolerance),
        max_rel_deviation=worst,
        tolerance=tolerance,
        worst_probe_index=worst_idx,
        probe_seed=seed,
        n_probes=_PROBE_COUNT,
    )


def with_conv_params(plan: FactorizedPlan, stride, padding) -> FactorizedPlan:
    """The layer's factors and a CP layer's activations and skip, rebuilt on a new stride and
    padding by its class's ``from_factors`` as :func:`load_plan` builds it; cost is recomputed."""
    layer, spec = plan.layer, replace(plan.spec, strides=stride, paddings=padding)
    extras = {k: getattr(layer, k) for k in ("activations", "skip") if getattr(layer, k, None) is not None}
    rebuilt = type(layer).from_factors(dict(layer.factors).__getitem__, spec, **extras)
    return _plan_for(plan.scheme, rebuilt, plan.reference_input_extents)


# ---------------------------------------------------------------------------
# Serialization: one container per factor, JSON manifest listing roles
# ---------------------------------------------------------------------------

def _encode_activation(act: Optional[Activation]):
    """``{"kind": k, **fields}``, each field of the activation's dataclass as JSON."""
    if act is None:
        return None
    for kind, cls in _ACTIVATION_TYPES.items():
        if isinstance(act, cls):
            return {"kind": kind, **{f.name: np.asarray(getattr(act, f.name)).tolist() for f in fields(cls)}}
    raise TypeError(f"cannot serialize activation {type(act).__name__}")


def _decode_activation(obj) -> Optional[Activation]:
    """The activation an entry of :func:`_encode_activation` describes; every
    field is required, and a list becomes a tuple."""
    if obj is None:
        return None
    cls = _ACTIVATION_TYPES.get(obj["kind"])
    if cls is None:
        raise ValueError(f"unknown activation kind {obj['kind']!r}")
    values = {f.name: obj[f.name] for f in fields(cls)}
    return cls(**{name: tuple(v) if isinstance(v, list) else v for name, v in values.items()})


def save_plan(plan: FactorizedPlan, out_dir) -> Path:
    """Write factor containers plus ``plan.json`` into ``out_dir``; returns the manifest path.
    A scheme that does not name the layer's class raises ``ValueError`` first."""
    if not isinstance(plan.layer, _LAYER_TYPES.get(plan.scheme, ())):
        raise ValueError(f"scheme {plan.scheme!r} does not name a {type(plan.layer).__name__}")
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
        "ranks": _ranks(plan.layer),
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
    if getattr(plan.layer, "activations", None) is not None:
        manifest["activations"] = [_encode_activation(a) for a in plan.layer.activations]
    if getattr(plan.layer, "skip", None) is not None:
        write_tensor(out / "skip.tensor", plan.layer.skip)
        manifest["skip"] = "skip.tensor"

    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _ranks(layer: _Layer) -> list[int]:
    return list(getattr(layer, "ranks", None) or [layer.rank])  # Tucker's are (R_out, R_in)


def load_plan(manifest_path) -> FactorizedPlan:
    """Restore an executable plan from a manifest written by :func:`save_plan`.

    Every key it writes is required but ``activations`` and ``skip``, read
    exactly when present, which only a CP layer takes; other keys are
    ignored. Before any file is opened, each part must be named as
    ``save_plan`` names it: ``factors`` lists each role the layer class
    takes once, in ``layer.factors`` order, as ``{role}.tensor``, and a
    skip is ``skip.tensor``. ``ranks`` must be the loaded layer's; ``cost``
    is derived again and not compared, as filling an hocp plan's empty
    activation slots by hand adds lines to it. The manifest and the files
    it names are untrusted input: whatever keeps them from making a plan
    (a missing key, a value of the wrong type or range, a version other
    than the integer 1, a part under another name, a factor or skip that
    does not fit the spec, an unreadable file) raises
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
    version = manifest["version"]
    if _integer(version, "version") != 1:
        raise ContainerError(f"{path}: unsupported plan manifest version {version!r}")
    scheme = manifest.get("scheme")
    if scheme not in SCHEMES:
        raise ContainerError(f"{path}: unknown scheme {scheme!r}")

    spec = ConvSpec(
        manifest["in_channels"],
        manifest["out_channels"],
        tuple(manifest["kernel_sizes"]),
        tuple(manifest["strides"]),
        tuple(manifest["paddings"]),
    )
    cls = _LAYER_TYPES[scheme]
    # Each part under the name save_plan gives it, so no other file is opened.
    named = [(entry["role"], entry["file"]) for entry in manifest["factors"]]
    expected = [(role, f"{role}.tensor") for role in cls._roles(spec)]
    if "skip" in manifest:
        named.append(("skip", manifest["skip"]))
        expected.append(("skip", "skip.tensor"))
    if named != expected:
        raise ContainerError(f"{path}: the manifest names its parts {named}, not {expected} as save_plan does")

    def read(part: str) -> np.ndarray:
        return read_finite_tensor(path.parent / f"{part}.tensor")

    extras = {}  # a CP layer's; every other class's ``from_factors`` refuses them
    if "activations" in manifest:
        extras["activations"] = tuple(map(_decode_activation, manifest["activations"]))
    if "skip" in manifest:
        extras["skip"] = read("skip")
    layer = cls.from_factors(read, spec, **extras)
    if [_integer(r, "ranks") for r in manifest["ranks"]] != _ranks(layer):
        raise ContainerError(f"{path}: ranks {manifest['ranks']!r} are not the factors' {_ranks(layer)}")

    extents = tuple(_integer(d, "reference_input_extents") for d in manifest["reference_input_extents"])
    if any(d < 1 for d in extents):
        raise ValueError(f"reference_input_extents must all be >= 1, got {extents}")
    return _plan_for(scheme, layer, extents)
