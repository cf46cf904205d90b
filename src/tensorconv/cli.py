"""Command-line surface: decompose, conv, cost, sweep, verify.

Standard output is machine-parseable ``key=value`` lines (comment lines start
with ``#``). Exit codes: 0 success, 1 failed verification, 2 malformed input
(files, shapes), 3 invalid parameters (ranks, schemes, usage).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import costs
from .container import _remove_file, read_finite_tensor, write_tensor
from .convref import ConvSpec, _integer, conv_nd_direct
from .errors import ContainerError, DimensionError, RankError
from .pipeline import (
    compress,
    execute_plan,
    load_plan,
    save_plan,
    verify_equivalence,
    with_conv_params,
    SCHEMES,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PARAM_ERROR = 3


class _UsageError(ValueError):
    """Bad flag combination or unparseable flag value (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors return exit code 3 from :func:`main`
    rather than leave through ``SystemExit(2)``, the code for malformed input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"{name} expects comma-separated integers, got {text!r}") from exc


def _parse_geometry(text, name: str, least: int):
    """A ``--stride`` or ``--padding`` value: None if not given, else one integer or one per mode.
    An empty list, or a value below ``least``, is a usage error, raised before any file is read."""
    if text is None:
        return None
    values = _parse_int_list(text, name)
    if not values or min(values) < least:
        raise _UsageError(f"{name} expects integers >= {least}, got {text!r}")
    return values[0] if len(values) == 1 else values


def _parse_stride_padding(args) -> tuple:
    return _parse_geometry(args.stride, "--stride", 1), _parse_geometry(args.padding, "--padding", 0)


def _load_plan(path, stride, padding):
    """The plan at ``path``, with the ``--stride``/``--padding`` given (not None) in place of its own."""
    plan = load_plan(path)
    if stride is None and padding is None:
        return plan
    return with_conv_params(
        plan,
        plan.spec.strides if stride is None else stride,
        plan.spec.paddings if padding is None else padding,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    ranks = None if args.rank is None else _parse_int_list(args.rank, "--rank")
    stride, padding = _parse_stride_padding(args)
    kernel = read_finite_tensor(args.input)
    result = compress(
        kernel,
        args.scheme,
        ranks,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
        restarts=args.restarts,
        stride=1 if stride is None else stride,
        padding=0 if padding is None else padding,
    )
    manifest = save_plan(result.plan, args.out)
    print(f"rel_error={_fmt(result.kernel_rel_error)}")
    print(f"output_rel_error={_fmt(result.output_rel_error)}")
    print(f"manifest={manifest}")
    print(f"params_regular={result.cost_before.params}")
    print(f"params_factorized={result.cost_after.params}")
    print(f"n_iters={result.n_iters}")
    print(f"converged={'true' if result.converged else 'false'}")
    restarts = zip(result.restart_errors, result.restart_iters, result.restart_converged)
    for i, (error, iters, converged) in enumerate(restarts):
        print(f"restart.{i}.rel_error={_fmt(error)}")
        print(f"restart.{i}.n_iters={iters}")
        print(f"restart.{i}.converged={'true' if converged else 'false'}")
    if result.winning_restart is not None:
        print(f"winning_restart={result.winning_restart}")
    for warning in result.warnings:
        print(f"warning={warning}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# conv
# ---------------------------------------------------------------------------

def _cmd_conv(args) -> int:
    stride, padding = _parse_stride_padding(args)
    x = read_finite_tensor(args.input)
    cost_lines = []
    if args.plan:
        plan = _load_plan(args.plan, stride, padding)
        y = execute_plan(plan, x)
        # The plan's analytic cost on this input's extents, stage by stage.
        cost_lines = costs.report(plan.layer.stages, x.shape[1:]).lines()
    else:
        w = read_finite_tensor(args.kernel)
        spec = ConvSpec.from_kernel(
            w, 1 if stride is None else stride, 0 if padding is None else padding
        )
        y = conv_nd_direct(x, w, spec)
    write_tensor(args.out, y)
    print(f"output_shape={','.join(str(e) for e in y.shape)}")
    print(f"output_file={args.out}")
    for line in cost_lines:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def _load_cost_layers(path) -> list[dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ContainerError(f"{path}: cannot read cost spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContainerError(f"{path}: cost spec must be a layer object or {{'layers': [...]}}")
    layers = doc["layers"] if "layers" in doc else [doc]
    if not isinstance(layers, list) or any(not isinstance(l, dict) for l in layers):
        raise ContainerError(f"{path}: 'layers' must be a list of objects")
    return layers


def _cmd_cost(args) -> int:
    layers = _load_cost_layers(args.spec)
    extents = (
        _parse_int_list(args.input_extents, "--input-extents")
        if args.input_extents
        else None
    )
    # Every layer is read and costed before any line is printed, so a bad
    # layer leaves nothing on stdout.
    lines = [f"# {costs.FLOP_CONVENTION}"]
    totals = {"params_regular": 0, "params_hocp": 0, "skip_params": 0,
              "flops_regular": 0, "flops_hocp": 0}
    for i, entry in enumerate(layers):
        try:
            spec = ConvSpec(
                entry["in_channels"],
                entry["out_channels"],
                tuple(entry["kernel_sizes"]),
                entry.get("stride", 1),
                entry.get("padding", 0),
            )
            rank = _integer(entry["rank"], "rank") if "rank" in entry else None
        except KeyError as exc:
            raise ContainerError(f"cost spec layer {i} is missing {exc}") from exc
        # DimensionError is a ValueError.
        except (TypeError, ValueError) as exc:
            raise ContainerError(f"cost spec layer {i} is malformed: {exc}") from exc
        if rank is None:
            rank = args.rank_multiplier * spec.in_channels

        p_reg = costs.params_regular(spec)
        try:
            p_hocp = costs.params_hocp(spec, rank)
        except RankError as exc:  # costs keeps the rank rule; the message names the layer
            raise RankError(f"cost spec layer {i}: {exc}") from exc
        p_skip = spec.in_channels * spec.out_channels
        lines += [f"layer{i}.params_regular={p_reg}", f"layer{i}.params_hocp={p_hocp}", f"layer{i}.rank={rank}"]
        totals["params_regular"] += p_reg
        totals["params_hocp"] += p_hocp
        totals["skip_params"] += p_skip
        if extents:
            f_reg = costs.flops_regular(spec, extents)
            f_hocp = costs.flops_hocp(spec, rank, extents)
            lines += [f"layer{i}.flops_regular={f_reg}", f"layer{i}.flops_hocp={f_hocp}"]
            totals["flops_regular"] += f_reg
            totals["flops_hocp"] += f_hocp

    lines += [
        f"params_regular={totals['params_regular']}",
        f"params_hocp={totals['params_hocp']}",
        f"params_saved={totals['params_regular'] - totals['params_hocp']}",
        # Skip factors are accounted separately: totals with and without are both printed.
        f"skip_params={totals['skip_params']}",
        f"params_hocp_with_skip={totals['params_hocp'] + totals['skip_params']}",
    ]
    if extents:
        lines += [f"flops_regular={totals['flops_regular']}", f"flops_hocp={totals['flops_hocp']}"]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_pairs(text: str) -> list[tuple[int, int]]:
    text = text.strip()
    if not text:
        return []
    pairs = []
    for token in text.split(","):
        c, sep, t = token.partition(":")
        if not sep:
            raise _UsageError(f"--pairs expects C:T entries, got {token!r}")
        try:
            pairs.append((int(c), int(t)))
        except ValueError as exc:
            raise _UsageError(f"--pairs expects integers, got {token!r}") from exc
    return pairs


def _cmd_sweep(args) -> int:
    multipliers = _parse_int_list(args.multipliers, "--multipliers")
    if not multipliers:
        raise _UsageError(f"--multipliers must be positive integers, got {args.multipliers!r}")
    pairs = costs.DEFAULT_SWEEP_PAIRS if args.pairs is None else _parse_pairs(args.pairs)
    extents = _parse_int_list(args.input_extents, "--input-extents")
    kernel = _parse_int_list(args.kernel, "--kernel")
    rows = costs.figure6_sweep(pairs, extents, kernel, multipliers)
    _remove_file(args.out)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        costs.write_sweep_csv(rows, multipliers, fh)
    print(f"rows={len(rows)}")
    print(f"output_file={args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    plan = _load_plan(args.plan, *_parse_stride_padding(args))
    kernel = read_finite_tensor(args.kernel)
    report = verify_equivalence(
        plan,
        kernel,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    print(f"max_rel_deviation={_fmt(report.max_rel_deviation)}")
    print(f"tolerance={_fmt(report.tolerance)}")
    print(f"worst_probe_index={report.worst_probe_index}")
    print(f"probe_seed={report.probe_seed}")
    print(f"pass={'true' if report.passed else 'false'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tensorconv",
        description="Tensor-factorized N-D convolutions: decomposition, "
        "execution, equivalence checks and cost reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a kernel container into a factorized plan")
    p.add_argument("--input", required=True, help="kernel tensor container (T x C x K...)")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--rank", default=None,
                   help="rank R, or R_out,R_in for tucker; mobilenet-v1's is C, its default")
    p.add_argument("--out", required=True, help="output directory for factors + plan.json")
    p.add_argument("--seed", type=int, default=0, help="seeds probes and ALS (cp, hocp, mobilenet-v2)")
    p.add_argument("--tol", type=float, default=1e-8, help="sweep tolerance (all but mobilenet-v1)")
    p.add_argument("--max-iters", type=int, default=500, help="sweep cap (all but mobilenet-v1)")
    p.add_argument("--restarts", type=int, default=3, help="ALS restarts (cp, hocp, mobilenet-v2)")
    p.add_argument("--stride", default=None)
    p.add_argument("--padding", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("conv", help="run a direct or factorized convolution on containers")
    p.add_argument("--input", required=True, help="activation tensor container (C x D...)")
    source = p.add_mutually_exclusive_group(required=True)  # a usage error (exit 3) for both or neither
    source.add_argument("--kernel", default=None, help="kernel container (direct execution)")
    source.add_argument("--plan", default=None, help="plan manifest (factorized execution)")
    p.add_argument("--stride", default=None)
    p.add_argument("--padding", default=None)
    p.add_argument("--out", required=True, help="output container path")
    p.set_defaults(func=_cmd_conv)

    # No abbreviations: a bare --rank would be read as --rank-multiplier.
    p = sub.add_parser("cost", help="analytic parameter/FLOP report for an architecture spec",
                       allow_abbrev=False)
    p.add_argument("--spec", required=True, help="JSON file: layer object or {'layers': [...]}")
    p.add_argument(
        "--rank-multiplier", type=int, default=6,
        help="rank = multiplier * in_channels for a layer that gives no rank",
    )
    p.add_argument("--input-extents", default=None, help="e.g. 32,32,16 to add FLOP lines")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("sweep", help="regular vs HO-CP GFLOP sweep, CSV output")
    p.add_argument("--multipliers", default="3,6")
    p.add_argument("--pairs", default=None, help="C:T pairs, e.g. 16:32,64:64 (default: the Fig. 6 pairs)")
    p.add_argument("--input-extents", default="32,32,16")
    p.add_argument("--kernel", default="3,3,3")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="check a plan against a dense kernel on random probes")
    p.add_argument("--plan", required=True, help="plan manifest path")
    p.add_argument("--kernel", required=True, help="kernel tensor container")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", default=None)
    p.add_argument("--padding", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARAM_ERROR
    try:
        return args.func(args)
    except (RankError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM_ERROR
    except (ContainerError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM_ERROR


if __name__ == "__main__":
    sys.exit(main())
