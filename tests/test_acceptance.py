"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
``-s`` or read captured output) and enforces its stated tolerance:

1. oracle equivalence of every factorized forward on 200 random configs, 1e-10
2. exact parameter counts for the four-block 3-D column (regular vs rank-6x)
3. channel sweep: factorized FLOPs below regular, exactly linear in the rank
4. decomposition recovery (CP-ALS restarts, Tucker-HOOI at full ranks)
5. analytic FLOP formulas equal instrumented multiply-add counts exactly
6. CLI round trip through container files: decompose -> conv --plan -> verify
"""

import time

import numpy as np

from tensorconv import (
    ConvSpec,
    CpConvLayer,
    HoCpConvLayer,
    KruskalTensor,
    OpCounter,
    TuckerConvLayer,
    build_mobilenet_v1,
    build_mobilenet_v2,
    conv_nd_direct,
    conv_nd_naive,
    cp_als,
    forward,
    forward_naive,
    kruskal_to_dense,
    read_tensor,
    tucker_hooi,
    write_tensor,
)
from tensorconv.cli import main as cli_main
from tensorconv.costs import (
    example_3d_architecture,
    figure6_sweep,
    flops_hocp,
    flops_regular,
    params_hocp,
    params_regular,
    report_hocp,
)

from helpers import orthonormal_factor, random_kruskal, rel_error


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_oracle_equivalence_suite():
    started = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    checks = 0
    for i in range(200):
        n_modes = 1 + i % 4
        c, t = (int(v) for v in rng.integers(1, 9, 2))
        kernels = tuple(int(k) for k in rng.integers(1, 6, n_modes))
        rank = int(rng.integers(1, 5))
        spec = ConvSpec(c, t, kernels)
        spatial = tuple(k + int(rng.integers(0, 3)) for k in kernels)
        x = rng.standard_normal((c,) + spatial)

        cp_layer = CpConvLayer(random_kruskal(rng, (t, c) + kernels, rank), spec)
        direct = conv_nd_direct(x, cp_layer.dense_kernel(), spec)
        worst = max(worst, rel_error(forward(cp_layer, x), direct))
        ho = HoCpConvLayer(cp_layer)
        worst = max(worst, rel_error(forward(ho, x), direct))
        checks += 2

        r0, r1 = (int(v) for v in rng.integers(1, 5, 2))
        tucker_layer = TuckerConvLayer(
            rng.standard_normal((r1, c)),
            rng.standard_normal((r0, r1) + kernels),
            rng.standard_normal((t, r0)),
            spec,
        )
        direct_tk = conv_nd_direct(x, tucker_layer.dense_kernel(), spec)
        worst = max(worst, rel_error(forward(tucker_layer, x), direct_tk))
        checks += 1

        v1 = build_mobilenet_v1(random_kruskal(rng, (t, c) + kernels, c))
        direct_v1 = conv_nd_direct(x, v1.dense_kernel(), spec)
        worst = max(worst, rel_error(forward(v1, x), direct_v1))
        v2 = build_mobilenet_v2(random_kruskal(rng, (t, c) + kernels, rank))
        direct_v2 = conv_nd_direct(x, v2.dense_kernel(), spec)
        worst = max(worst, rel_error(forward(v2, x), direct_v2))
        checks += 2

    elapsed = time.monotonic() - started
    ok = worst < 1e-10 and elapsed < 120.0
    _report(
        "1 oracle-equivalence (200 configs)",
        ok,
        f"{checks} forward checks, max rel deviation {worst:.3e}, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert elapsed < 120.0


def test_criterion_2_parameter_count_reproduction():
    blocks = example_3d_architecture()
    regular = sum(params_regular(s) for s in blocks)
    hocp = sum(params_hocp(s, 6 * s.in_channels) for s in blocks)
    diff = regular - hocp
    ok = (regular, hocp, diff) == (2_880_576, 1_180_632, 1_699_944)
    _report(
        "2 parameter-count reproduction",
        ok,
        f"regular={regular} hocp={hocp} saved={diff}",
    )
    assert regular == 2_880_576
    assert hocp == 1_180_632
    assert diff == 1_699_944


def test_criterion_3_flop_sweep():
    started = time.monotonic()
    extents = (32, 32, 16)
    kernels = (3, 3, 3)
    rows = figure6_sweep(input_extents=extents, kernel_sizes=kernels, multipliers=(3, 6))
    all_below = all(
        hocp < row.flops_regular for row in rows for hocp in row.flops_hocp
    )
    ratio_ok = True
    max_ratio_err = 0.0
    for row in rows:
        ratio = row.flops_hocp[1] / row.flops_hocp[0]
        max_ratio_err = max(max_ratio_err, abs(ratio - 2.0))
        spec = ConvSpec(row.in_channels, row.out_channels, kernels)
        low = report_hocp(spec, 3 * row.in_channels, extents)
        high = report_hocp(spec, 6 * row.in_channels, extents)
        for s3, s6 in zip(low.stages, high.stages):
            stage_ratio = s6.flops / s3.flops
            max_ratio_err = max(max_ratio_err, abs(stage_ratio - 2.0))
    ratio_ok = max_ratio_err <= 1e-9
    elapsed = time.monotonic() - started
    ok = all_below and ratio_ok and elapsed < 1.0
    _report(
        "3 FLOP sweep (32x32x16, 3^3 kernel)",
        ok,
        f"{len(rows)} channel pairs, hocp<regular={all_below}, "
        f"max |ratio-2| = {max_ratio_err:.2e}, {elapsed:.3f}s",
    )
    assert all_below
    assert ratio_ok
    assert elapsed < 1.0


def test_criterion_4_decomposition_recovery():
    started = time.monotonic()
    shape = (6, 7, 8)
    successes = {}
    for rank in (1, 2, 3):
        wins = 0
        factor_rng = np.random.default_rng(1000 + rank)
        target = kruskal_to_dense(
            KruskalTensor(tuple(orthonormal_factor(factor_rng, e, rank) for e in shape))
        )
        for restart in range(3):
            res = cp_als(target, rank, max_iters=500, tol=1e-12, seed=restart)
            if res.rel_error < 1e-6 and res.n_iters <= 500:
                wins += 1
        successes[rank] = wins

    hooi_rng = np.random.default_rng(2000)
    target = hooi_rng.standard_normal((5, 6, 4))
    hooi = tucker_hooi(target, (5, 6, 4))
    elapsed = time.monotonic() - started
    cp_ok = all(w >= 2 for w in successes.values())
    ok = cp_ok and hooi.rel_error < 1e-10 and elapsed < 30.0
    _report(
        "4 decomposition recovery",
        ok,
        f"CP restarts under 1e-6: {successes}, HOOI full-rank error "
        f"{hooi.rel_error:.2e}, {elapsed:.1f}s",
    )
    for rank, wins in successes.items():
        assert wins >= 2, f"rank {rank}: only {wins}/3 restarts converged"
    assert hooi.rel_error < 1e-10
    assert elapsed < 30.0


def test_criterion_5_flop_formula_fidelity():
    rng = np.random.default_rng(77)
    mismatches = []
    instances = 0
    for _ in range(10):
        c, t = (int(v) for v in rng.integers(1, 4, 2))
        n = int(rng.integers(1, 4))
        kernels = tuple(int(k) for k in rng.integers(1, 4, n))
        strides = tuple(int(s) for s in rng.integers(1, 3, n))
        pads = tuple(int(p) for p in rng.integers(0, 2, n))
        spec = ConvSpec(c, t, kernels, strides, pads)
        extents = tuple(k + int(rng.integers(0, 3)) for k in kernels)
        x = rng.standard_normal((c,) + extents)
        w = rng.standard_normal((t, c) + kernels)
        counter = OpCounter()
        conv_nd_naive(x, w, spec, counter)
        instances += 1
        if counter.flops != flops_regular(spec, extents):
            mismatches.append(("regular", spec, counter.flops))

        rank = int(rng.integers(1, 4))
        layer = HoCpConvLayer(
            CpConvLayer(random_kruskal(rng, (t, c) + kernels, rank), spec)
        )
        counter = OpCounter()
        forward_naive(layer, x, counter)
        instances += 1
        if counter.flops != flops_hocp(spec, rank, extents):
            mismatches.append(("hocp", spec, counter.flops))

    ok = instances == 20 and not mismatches
    _report(
        "5 FLOP-formula fidelity",
        ok,
        f"{instances} instrumented instances, {len(mismatches)} mismatches",
    )
    assert instances == 20
    assert not mismatches


def test_criterion_6_cli_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(606)
    kernel = rng.standard_normal((3, 4, 3, 3))
    kernel_path = tmp_path / "kernel.tensor"
    write_tensor(kernel_path, kernel)
    x = rng.standard_normal((4, 9, 9))
    x_path = tmp_path / "x.tensor"
    write_tensor(x_path, x)

    plan_dir = tmp_path / "plan"
    code_decompose = cli_main([
        "decompose", "--input", str(kernel_path), "--scheme", "tucker",
        "--rank", "3,4,3,3", "--out", str(plan_dir),
    ])
    manifest = plan_dir / "plan.json"

    y_plan = tmp_path / "y_plan.tensor"
    y_direct = tmp_path / "y_direct.tensor"
    code_conv_plan = cli_main([
        "conv", "--input", str(x_path), "--plan", str(manifest), "--out", str(y_plan),
    ])
    code_conv_direct = cli_main([
        "conv", "--input", str(x_path), "--kernel", str(kernel_path),
        "--out", str(y_direct),
    ])
    deviation = rel_error(read_tensor(y_plan), read_tensor(y_direct))

    code_verify = cli_main([
        "verify", "--plan", str(manifest), "--kernel", str(kernel_path),
        "--tolerance", "1e-8",
    ])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = (
            (code_decompose, code_conv_plan, code_conv_direct, code_verify)
            == (0, 0, 0, 0)
            and deviation < 1e-8
            and "pass=true" in out
        )
        _report(
            "6 CLI round trip",
            ok,
            f"exit codes {code_decompose}/{code_conv_plan}/{code_conv_direct}/"
            f"{code_verify}, plan-vs-direct deviation {deviation:.3e}",
        )
    assert code_decompose == 0
    assert code_conv_plan == 0
    assert code_conv_direct == 0
    assert deviation < 1e-8
    assert "pass=true" in out
    assert code_verify == 0
