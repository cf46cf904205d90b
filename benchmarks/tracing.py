"""Span tracing of tensorconv from outside, and the per-layer metrics derived from it.

``Tracer.install`` replaces every module-level binding of the functions in
``TARGETS`` (for example ``tensorconv.pipeline.cp_als`` or
``tensorconv.layers.n_mode_product``) with a wrapper that records a span:
the callee's name, the module whose binding was called (its *site*), start,
end, the index of the enclosing span, and a few counts taken from the
arguments or the result. Callers look these names up at call time, so the
program itself is unchanged. ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

import numpy as np

import tensorconv
from tensorconv import cli, container, convref, costs, decomp, dense, layers, pipeline

MODULES = {
    "tensorconv": tensorconv,
    "cli": cli,
    "container": container,
    "convref": convref,
    "decomp": decomp,
    "dense": dense,
    "layers": layers,
    "pipeline": pipeline,
}

LAYER_FORWARDS = (
    "layers.cp_conv_forward",
    "layers.ho_cp_conv_forward",
    "layers.tucker_conv_forward",
    "layers.mobilenet_v1_forward",
    "layers.mobilenet_v2_forward",
)

# Spans whose tracemalloc peak is recorded when tracemalloc is running.
PEAK_SPANS = LAYER_FORWARDS + ("decomp.cp_als", "decomp.tucker_hooi")

MB = 1e6


def _nbytes_n_mode_product(args, kwargs, out):
    t, m = args[0], args[1]
    return {"bytes": 8 * (np.size(t) + np.size(m) + out.size)}


def _direct_call(args, kwargs, out):
    x, w = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    if spec is None:
        spec = convref.ConvSpec(w.shape[1], w.shape[0], w.shape[2:])
    return {"spec": spec, "extents": tuple(np.shape(x)[1:])}


def _layer_call(args, kwargs, out):
    return {"layer": args[0], "extents": tuple(np.shape(args[1])[1:])}


def _cp_result(args, kwargs, out):
    return {"sweeps": out.n_iters, "rel_error": out.rel_error}


def _hooi_result(args, kwargs, out):
    return {"sweeps": out.n_iters}


def _read_result(args, kwargs, out):
    return {"bytes": out.nbytes}


def _write_call(args, kwargs, out):
    dtype = args[2] if len(args) > 2 else kwargs.get("dtype", "f64")
    return {"bytes": np.size(args[1]) * (4 if dtype == "f32" else 8)}


# callee (home module, function) -> function extracting counts from a call
TARGETS = {
    ("dense", "n_mode_product"): _nbytes_n_mode_product,
    ("dense", "khatri_rao"): None,
    ("dense", "unfold"): None,
    ("convref", "conv_nd_direct"): _direct_call,
    ("convref", "conv_1x1"): None,
    ("decomp", "cp_als"): _cp_result,
    ("decomp", "tucker_hooi"): _hooi_result,
    ("decomp", "kruskal_to_dense"): None,
    ("layers", "cp_conv_forward"): _layer_call,
    ("layers", "ho_cp_conv_forward"): _layer_call,
    ("layers", "tucker_conv_forward"): _layer_call,
    ("layers", "mobilenet_v1_forward"): _layer_call,
    ("layers", "mobilenet_v2_forward"): _layer_call,
    ("pipeline", "compress"): None,
    ("pipeline", "verify_equivalence"): None,
    ("pipeline", "execute_plan"): None,
    ("pipeline", "save_plan"): None,
    ("pipeline", "load_plan"): None,
    ("container", "read_tensor"): _read_result,
    ("container", "write_tensor"): _write_call,
    ("cli", "main"): None,
}


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "attrs")

    def __init__(self, name, site, parent):
        self.name, self.site, self.parent = name, site, parent
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans in memory while installed; ``spans`` is never trimmed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []
        self._peak_open = 0
        self.enabled = True

    def _wrap(self, fn, name, site, extract):
        track_peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, site, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            peak = track_peak and self._peak_open == 0 and tracemalloc.is_tracing()
            if peak:
                self._peak_open += 1
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if peak:
                    self._peak_open -= 1
                    peak_bytes = tracemalloc.get_traced_memory()[1] - base
            if extract is not None:
                span.attrs = extract(args, kwargs, out)
            if peak:
                span.attrs = dict(span.attrs or {}, peak_bytes=peak_bytes)
            return out

        return traced

    def install(self):
        wanted = {
            id(getattr(MODULES[home], fn)): (f"{home}.{fn}", extract)
            for (home, fn), extract in TARGETS.items()
        }
        for site, module in MODULES.items():
            for attr, value in list(vars(module).items()):
                hit = wanted.get(id(value))
                if hit is not None and callable(value):
                    name, extract = hit
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, name, site, extract))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                attrs = {
                    k: v for k, v in (s.attrs or {}).items()
                    if isinstance(v, (int, float, str))
                }
                fh.write(json.dumps({
                    "name": s.name, "site": s.site, "start": s.start, "end": s.end,
                    "parent": s.parent, **attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CONTRACT_STAGES = ("contract_in", "contract_out", "skip", "pointwise")


def analytic_report(layer, extents) -> costs.CostReport:
    """The costs module's staged FLOP report for one forward of ``layer`` on ``extents``."""
    spec = layer.spec
    if isinstance(layer, layers.HoCpConvLayer):
        acts = layer.activations or (None,) * spec.n_spatial
        return costs.report_hocp(
            spec, layer.rank, extents, include_skip=layer.skip is not None,
            activation_stages=tuple(a is not None for a in acts),
        )
    if isinstance(layer, layers.CpConvLayer):
        return costs.report_hocp(spec, layer.rank, extents)
    if isinstance(layer, layers.TuckerConvLayer):
        return costs.report_tucker(spec, layer.ranks, extents)
    if isinstance(layer, layers.MobileNetV1Block):
        return costs.report_mobilenet_v1(spec, extents)
    if isinstance(layer, layers.MobileNetV2Block):
        return costs.report_mobilenet_v2(spec, layer.rank, extents)
    raise TypeError(f"no cost report for {type(layer).__name__}")


PER_LAYER_UNITS = {
    "layers.contract_s": "s",
    "layers.contract_gflops": "GFLOP/s",
    "layers.spatial_s": "s",
    "layers.spatial_gflops": "GFLOP/s",
    "layers.core_conv_s": "s",
    "layers.peak_mb": "MB",
    "convref.direct_s": "s",
    "convref.direct_gflops": "GFLOP/s",
    "convref.conv_1x1_s": "s",
    "decomp.cp_als_s": "s",
    "decomp.cp_sweeps": "count",
    "decomp.cp_sweep_s": "s",
    "decomp.cp_winner_sweep_share": "ratio",
    "decomp.kruskal_to_dense_s": "s",
    "decomp.tucker_hooi_s": "s",
    "decomp.hooi_sweeps": "count",
    "decomp.peak_mb": "MB",
    "dense.khatri_rao_s": "s",
    "dense.unfold_s": "s",
    "dense.n_mode_product_s": "s",
    "dense.n_mode_product_mb": "MB",
    "pipeline.compress_s": "s",
    "pipeline.verify_equivalence_s": "s",
    "pipeline.execute_plan_s": "s",
    "pipeline.save_plan_s": "s",
    "pipeline.load_plan_s": "s",
    "container.read_s": "s",
    "container.write_s": "s",
    "container.read_mb": "MB",
    "container.write_mb": "MB",
    "cli.self_s": "s",
    "costs.fwd_flops": "FLOP",
    "costs.flop_ratio": "ratio",
    "trace.overhead_pct": "%",
}

# span name -> metric holding the summed duration of its spans
_DURATIONS = {
    "convref.conv_nd_direct": "convref.direct_s",
    "convref.conv_1x1": "convref.conv_1x1_s",
    "decomp.cp_als": "decomp.cp_als_s",
    "decomp.kruskal_to_dense": "decomp.kruskal_to_dense_s",
    "decomp.tucker_hooi": "decomp.tucker_hooi_s",
    "dense.khatri_rao": "dense.khatri_rao_s",
    "dense.unfold": "dense.unfold_s",
    "dense.n_mode_product": "dense.n_mode_product_s",
    "pipeline.compress": "pipeline.compress_s",
    "pipeline.verify_equivalence": "pipeline.verify_equivalence_s",
    "pipeline.execute_plan": "pipeline.execute_plan_s",
    "pipeline.save_plan": "pipeline.save_plan_s",
    "pipeline.load_plan": "pipeline.load_plan_s",
    "container.read_tensor": "container.read_s",
    "container.write_tensor": "container.write_s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def range_metrics(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures of the spans ``spans[lo:hi]``, which form whole operations.

    A layer that the spans never enter reads 0, and so does a rate or share
    whose base is 0.
    """
    child = {}
    for i in range(lo, hi):
        s = spans[i]
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)

    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    flops = {"contract": 0, "spatial": 0, "direct": 0, "forward": 0, "regular": 0}
    restarts: dict[int, list[tuple[float, int]]] = {}
    for i in range(lo, hi):
        s = spans[i]
        dur = s.end - s.start
        attrs = s.attrs or {}
        in_forward = s.parent >= 0 and spans[s.parent].name in LAYER_FORWARDS
        if s.name in _DURATIONS:
            m[_DURATIONS[s.name]] += dur
        if s.name in LAYER_FORWARDS:
            m["layers.spatial_s"] += dur - child.get(i, 0.0)
            layer, extents = attrs["layer"], attrs["extents"]
            report = analytic_report(layer, extents)
            for stage in report.stages:
                if stage.label in CONTRACT_STAGES:
                    flops["contract"] += stage.flops
                elif stage.label.startswith("conv_mode_") or stage.label == "depthwise":
                    flops["spatial"] += stage.flops
            flops["forward"] += report.flops
            flops["regular"] += costs.flops_regular(layer.spec, extents)
            m["layers.peak_mb"] = max(m["layers.peak_mb"], attrs.get("peak_bytes", 0) / MB)
        if in_forward and s.name in ("dense.n_mode_product", "convref.conv_1x1"):
            m["layers.contract_s"] += dur
        if s.name == "convref.conv_nd_direct":
            flops["direct"] += costs.flops_regular(attrs["spec"], attrs["extents"])
            if in_forward:
                m["layers.core_conv_s"] += dur
        if s.name == "dense.n_mode_product":
            m["dense.n_mode_product_mb"] += attrs["bytes"] / MB
        if s.name == "decomp.cp_als":
            m["decomp.cp_sweeps"] += attrs["sweeps"]
            restarts.setdefault(s.parent, []).append((attrs["rel_error"], attrs["sweeps"]))
        if s.name == "decomp.tucker_hooi":
            m["decomp.hooi_sweeps"] += attrs["sweeps"]
        if s.name in ("decomp.cp_als", "decomp.tucker_hooi"):
            m["decomp.peak_mb"] = max(m["decomp.peak_mb"], attrs.get("peak_bytes", 0) / MB)
        if s.name == "container.read_tensor":
            m["container.read_mb"] += attrs["bytes"] / MB
        if s.name == "container.write_tensor":
            m["container.write_mb"] += attrs["bytes"] / MB
        if s.name == "cli.main":
            m["cli.self_s"] += dur - child.get(i, 0.0)

    # The compress call keeps the first restart with the lowest error.
    winner_sweeps = sum(min(runs, key=lambda r: r[0])[1] for runs in restarts.values())
    m["decomp.cp_winner_sweep_share"] = _ratio(winner_sweeps, m["decomp.cp_sweeps"])
    m["decomp.cp_sweep_s"] = _ratio(m["decomp.cp_als_s"], m["decomp.cp_sweeps"])
    m["layers.contract_gflops"] = _ratio(flops["contract"], m["layers.contract_s"]) / 1e9
    m["layers.spatial_gflops"] = _ratio(flops["spatial"], m["layers.spatial_s"]) / 1e9
    m["convref.direct_gflops"] = _ratio(flops["direct"], m["convref.direct_s"]) / 1e9
    m["costs.fwd_flops"] = flops["forward"]
    m["costs.flop_ratio"] = _ratio(flops["regular"], flops["forward"])
    return m


def per_layer_metrics(tracer: Tracer, round_ranges, peak_range, base_round_s, traced_round_s):
    """Medians over the traced rounds; peaks from the tracemalloc pass; tracing overhead."""
    rounds = [range_metrics(tracer.spans, lo, hi) for lo, hi in round_ranges]
    out = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER_UNITS}
    peak = range_metrics(tracer.spans, *peak_range)
    out["layers.peak_mb"] = peak["layers.peak_mb"]
    out["decomp.peak_mb"] = peak["decomp.peak_mb"]
    out["trace.overhead_pct"] = 100.0 * (traced_round_s / base_round_s - 1.0)
    return out
