import csv
import json
import os
import stat
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from tensorconv import cli, layers
from tensorconv import (
    ConvSpec, CpConvLayer, FrozenBatchNorm, HoCpConvLayer, PReLU, costs, kruskal_to_dense, load_plan,
    read_tensor, write_tensor,
)
from tensorconv.cli import main
from tensorconv.costs import report_hocp
from tensorconv.pipeline import FactorizedPlan, save_plan

from helpers import random_kruskal, rel_error


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synthetic_kernel(tmp_path):
    rng = np.random.default_rng(50)
    w = kruskal_to_dense(random_kruskal(rng, (3, 4, 3, 3), 2))
    path = tmp_path / "kernel.tensor"
    write_tensor(path, w)
    return path, w


class TestDecompose:
    def test_cp_synthetic_rank1(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        w = kruskal_to_dense(random_kruskal(rng, (2, 3, 3, 3), 1))
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, w)
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "1",
            "--out", tmp_path / "plan", "--tol", "1e-14",
        )
        assert code == 0
        out = capsys.readouterr().out
        rel = float(dict(l.split("=", 1) for l in out.strip().splitlines())["rel_error"])
        assert rel < 1e-8
        assert (tmp_path / "plan" / "plan.json").exists()

    def test_tucker_full_rank(self, tmp_path, capsys):
        rng = np.random.default_rng(52)
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, rng.standard_normal((3, 4, 2, 2)))
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "tucker",
            "--rank", "3,4", "--out", tmp_path / "plan",
        )
        assert code == 0
        out = capsys.readouterr().out
        rel = float(dict(l.split("=", 1) for l in out.strip().splitlines())["rel_error"])
        assert rel < 1e-10

    def test_prints_decomposition_telemetry(self, tmp_path, capsys):
        rng = np.random.default_rng(53)
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, rng.standard_normal((4, 3, 2, 2)))
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "tucker", "--rank", "6,2",
            "--out", tmp_path / "plan",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = dict(l.split("=", 1) for l in lines)
        assert int(keys["n_iters"]) >= 1
        assert keys["converged"] == "true"
        assert [l for l in lines if l.startswith("warning=")] == [
            "warning=rank 6 at mode 0 capped at extent 4"
        ]
        # Tucker has no restarts.
        assert not [l for l in lines if l.startswith(("restart.", "winning_restart="))]
        # Telemetry goes to stdout only; the manifest keeps its keys.
        manifest = json.loads((tmp_path / "plan" / "plan.json").read_text())
        assert not {"n_iters", "converged", "warnings", "error_history"} & set(manifest)

    def test_prints_restart_errors_and_winner(self, tmp_path, capsys):
        rng = np.random.default_rng(54)
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, rng.standard_normal((4, 3, 3, 3)))
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "3",
            "--out", tmp_path / "plan", "--restarts", "4", "--max-iters", "6",
            "--tol", "0", "--seed", "2",
        )
        assert code == 0
        keys = dict(l.split("=", 1) for l in capsys.readouterr().out.strip().splitlines())
        errors = [float(keys[f"restart.{i}.rel_error"]) for i in range(4)]
        assert "restart.4.rel_error" not in keys
        winner = int(keys["winning_restart"])
        assert errors[winner] == min(errors)
        assert errors[winner] == float(keys["rel_error"])

    def test_prints_each_restarts_sweeps_and_convergence(self, tmp_path, capsys):
        rng = np.random.default_rng(54)
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, rng.standard_normal((4, 3, 3, 3)))
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "3",
            "--out", tmp_path / "plan", "--restarts", "3", "--max-iters", "300",
            "--tol", "1e-6", "--seed", "0",
        )
        assert code == 0
        keys = dict(l.split("=", 1) for l in capsys.readouterr().out.strip().splitlines())
        iters = [int(keys[f"restart.{i}.n_iters"]) for i in range(3)]
        converged = [keys[f"restart.{i}.converged"] for i in range(3)]
        assert len(set(iters)) == 3  # each restart stopped at its own sweep
        assert all(n < 300 for n in iters) and converged == ["true"] * 3
        winner = int(keys["winning_restart"])
        assert iters[winner] == int(keys["n_iters"])
        assert converged[winner] == keys["converged"]

    def test_rank_zero_exits_3(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "0",
            "--out", tmp_path / "plan",
        )
        assert code == 3

    @pytest.mark.parametrize("flag,value", [
        ("--max-iters", "0"), ("--max-iters", "-1"), ("--max-iters", "2.5"), ("--max-iters", "True"),
        ("--tol", "nan"), ("--tol", "-1"),
    ])
    def test_sweep_controls_exit_3(self, synthetic_kernel, tmp_path, flag, value):
        """``--max-iters 0`` exited 0 with every restart at an infinite error."""
        kernel, _ = synthetic_kernel
        for scheme, rank in [("cp", "2"), ("tucker", "2,2")]:
            code = run_cli(
                "decompose", "--input", kernel, "--scheme", scheme, "--rank", rank,
                flag, value, "--out", tmp_path / scheme,
            )
            assert code == 3, scheme
            assert not (tmp_path / scheme).exists()

    def test_restarts_zero_exits_3(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
            "--restarts", "0", "--out", tmp_path / "plan",
        )
        assert code == 3
        assert not (tmp_path / "plan").exists()

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tensor"
        bad.write_bytes(b"garbage\x00\x01")
        code = run_cli(
            "decompose", "--input", bad, "--scheme", "cp", "--rank", "1",
            "--out", tmp_path / "plan",
        )
        assert code == 2

    def test_missing_input_exits_2(self, tmp_path):
        code = run_cli(
            "decompose", "--input", tmp_path / "nope.tensor", "--scheme", "cp",
            "--rank", "1", "--out", tmp_path / "plan",
        )
        assert code == 2

    def test_mobilenet_v1_wrong_rank_exits_3(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "mobilenet-v1",
            "--rank", "3", "--out", tmp_path / "plan",
        )
        assert code == 3

    def test_mobilenet_v1_rank_defaults_to_in_channels(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        outputs = []
        for name, rank in (("plan_default", ()), ("plan_c", ("--rank", "4"))):
            assert run_cli("decompose", "--input", kernel, "--scheme", "mobilenet-v1", *rank,
                           "--out", tmp_path / name) == 0
            outputs.append(capsys.readouterr().out.replace(str(tmp_path / name), "PLAN"))
        assert outputs[0] == outputs[1]
        for part in ("plan.json", "pointwise.tensor", "spatial.tensor"):
            assert (tmp_path / "plan_default" / part).read_bytes() == (tmp_path / "plan_c" / part).read_bytes()

    @pytest.mark.parametrize("scheme,rank", [
        ("cp", None), ("hocp", None), ("tucker", None), ("mobilenet-v2", None),
        ("tucker", "2,2,3,3"), ("tucker", "2"), ("cp", "2,2"), ("cp", ""),
    ])
    def test_ranks_outside_the_rule_exit_3(self, synthetic_kernel, tmp_path, capsys, scheme, rank):
        """Only mobilenet-v1 has a rank without --rank, and tucker takes R_out,R_in."""
        kernel, _ = synthetic_kernel
        rank_args = () if rank is None else ("--rank", rank)
        assert run_cli("decompose", "--input", kernel, "--scheme", scheme, *rank_args,
                       "--out", tmp_path / "plan") == 3
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "plan").exists()

    def test_into_a_plan_directory_of_another_scheme(self, synthetic_kernel, tmp_path):
        """mobilenet-v2 and tucker both name parts down.tensor and up.tensor,
        of other shapes; the second decompose writes what a fresh one writes."""
        kernel, _ = synthetic_kernel
        tucker = ["decompose", "--input", kernel, "--scheme", "tucker", "--rank", "2,3"]
        assert run_cli("decompose", "--input", kernel, "--scheme", "mobilenet-v2", "--rank", "2",
                       "--out", tmp_path / "plan") == 0
        assert run_cli(*tucker, "--out", tmp_path / "plan") == 0
        assert run_cli(*tucker, "--out", tmp_path / "fresh") == 0
        fresh = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert fresh == ["core.tensor", "down.tensor", "plan.json", "up.tensor"]
        for name in fresh:
            assert (tmp_path / "plan" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
        assert load_plan(tmp_path / "plan" / "plan.json").scheme == "tucker"

    def test_mobilenet_v1_planted_kernel(self, tmp_path, capsys):
        # A depthwise-separable kernel: v1's closed-form fit is exact, with
        # no iteration and no restart to report.
        rng = np.random.default_rng(55)
        w = np.einsum("tc,hwc->tchw", rng.standard_normal((3, 4)), rng.standard_normal((3, 3, 4)))
        kernel = tmp_path / "k.tensor"
        write_tensor(kernel, w)
        code = run_cli(
            "decompose", "--input", kernel, "--scheme", "mobilenet-v1", "--rank", "4",
            "--out", tmp_path / "plan", "--padding", "1",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = dict(l.split("=", 1) for l in lines)
        assert float(keys["rel_error"]) <= 1e-14
        assert (keys["n_iters"], keys["converged"]) == ("0", "true")
        assert not [l for l in lines if l.startswith(("restart.", "winning_restart="))]
        code = run_cli(
            "verify", "--plan", tmp_path / "plan" / "plan.json", "--kernel", kernel,
            "--tolerance", "1e-10",
        )
        assert code == 0
        assert "pass=true" in capsys.readouterr().out.splitlines()


class TestConv:
    def test_unit_pointwise_kernel_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((1, 5, 5))
        xp = tmp_path / "x.tensor"
        wp = tmp_path / "w.tensor"
        write_tensor(xp, x)
        write_tensor(wp, np.ones((1, 1, 1, 1)))
        out = tmp_path / "y.tensor"
        assert run_cli("conv", "--input", xp, "--kernel", wp, "--out", out) == 0
        assert np.array_equal(read_tensor(out), x)

    def test_plan_vs_direct(self, synthetic_kernel, tmp_path, capsys):
        kernel, w = synthetic_kernel
        rng = np.random.default_rng(54)
        x = rng.standard_normal((4, 7, 7))
        xp = tmp_path / "x.tensor"
        write_tensor(xp, x)
        assert run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
            "--out", tmp_path / "plan", "--tol", "1e-14", "--max-iters", "2000",
        ) == 0
        y_plan = tmp_path / "y_plan.tensor"
        y_direct = tmp_path / "y_direct.tensor"
        assert run_cli(
            "conv", "--input", xp, "--plan", tmp_path / "plan" / "plan.json",
            "--out", y_plan,
        ) == 0
        assert run_cli("conv", "--input", xp, "--kernel", kernel, "--out", y_direct) == 0
        a, b = read_tensor(y_plan), read_tensor(y_direct)
        assert a.shape == b.shape
        assert rel_error(a, b) < 1e-10

    def test_symlink_at_out_is_written_through(self, synthetic_kernel, tmp_path):
        """Only a regular file at --out is replaced; a symlink stays, and its
        target gets the bytes a fresh --out gets."""
        kernel, _ = synthetic_kernel
        x = tmp_path / "x.tensor"
        write_tensor(x, np.random.default_rng(57).standard_normal((4, 6, 5)))
        target, link = tmp_path / "target.tensor", tmp_path / "y.tensor"
        write_tensor(target, np.ones((2, 2)))
        link.symlink_to(target)
        assert run_cli("conv", "--input", x, "--kernel", kernel, "--out", link) == 0
        assert run_cli("conv", "--input", x, "--kernel", kernel, "--out", tmp_path / "fresh.tensor") == 0
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.tensor").read_bytes()

    def test_fifo_at_out_is_written_through(self, synthetic_kernel, tmp_path):
        kernel, _ = synthetic_kernel
        x = tmp_path / "x.tensor"
        write_tensor(x, np.random.default_rng(58).standard_normal((4, 6, 5)))
        fifo = tmp_path / "y.fifo"
        os.mkfifo(fifo)
        # Opened for reading and writing, the FIFO has a writer until `held`
        # is closed, so both opens return at once and the reader sees the
        # end of the data only after that, whether or not conv opened it.
        held = os.open(fifo, os.O_RDWR)
        with open(fifo, "rb") as fh:
            got = []
            reader = threading.Thread(target=lambda: got.append(fh.read()), daemon=True)
            reader.start()
            try:
                code = run_cli("conv", "--input", x, "--kernel", kernel, "--out", fifo)
            finally:
                os.close(held)
                reader.join(timeout=30)
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert run_cli("conv", "--input", x, "--kernel", kernel, "--out", tmp_path / "fresh.tensor") == 0
        assert got == [(tmp_path / "fresh.tensor").read_bytes()]

    def test_plan_prints_its_cost_on_the_input(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        x = np.random.default_rng(56).standard_normal((4, 11, 6))
        xp = tmp_path / "x.tensor"
        write_tensor(xp, x)
        manifest = tmp_path / "plan" / "plan.json"
        assert run_cli(
            "decompose", "--input", kernel, "--scheme", "hocp", "--rank", "2", "--out", tmp_path / "plan",
        ) == 0
        capsys.readouterr()
        assert run_cli("conv", "--input", xp, "--plan", manifest, "--out", tmp_path / "y.tensor") == 0
        lines = capsys.readouterr().out.splitlines()
        keys = dict(line.split("=", 1) for line in lines if "=" in line and not line.startswith("#"))
        plan = load_plan(manifest)
        expected = costs.report(plan.layer.stages, x.shape[1:])
        assert int(keys["flops"]) == expected.flops
        assert expected.flops != plan.cost.flops  # the input's extents, not the plan's reference
        assert lines[2:] == expected.lines()

    def test_channel_mismatch_exits_2_naming_extents(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        xp = tmp_path / "x.tensor"
        write_tensor(xp, np.zeros((5, 6, 6)))
        code = run_cli("conv", "--input", xp, "--kernel", kernel, "--out", tmp_path / "y.tensor")
        assert code == 2
        err = capsys.readouterr().err
        assert "5" in err and "4" in err

    def test_requires_kernel_or_plan(self, tmp_path, capsys):
        xp = tmp_path / "x.tensor"
        write_tensor(xp, np.zeros((2, 4)))
        assert run_cli("conv", "--input", xp, "--out", tmp_path / "y.tensor") == 3

    def test_plan_and_kernel_together_exit_3(self, synthetic_kernel, tmp_path, capsys):
        """It used to exit 0: the plan ran at --padding 1, and --kernel was ignored."""
        kernel, _ = synthetic_kernel
        assert run_cli("decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
                       "--out", tmp_path / "plan", "--max-iters", "5") == 0
        xp = tmp_path / "x.tensor"
        write_tensor(xp, np.zeros((4, 9, 8)))
        capsys.readouterr()
        assert run_cli("conv", "--input", xp, "--plan", tmp_path / "plan" / "plan.json", "--kernel", kernel,
                       "--padding", "1", "--out", tmp_path / "y.tensor") == 3
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()

    def test_stride_padding_flags(self, synthetic_kernel, tmp_path):
        kernel, w = synthetic_kernel
        rng = np.random.default_rng(55)
        x = rng.standard_normal((4, 8, 8))
        xp = tmp_path / "x.tensor"
        write_tensor(xp, x)
        out = tmp_path / "y.tensor"
        assert run_cli(
            "conv", "--input", xp, "--kernel", kernel, "--stride", "2",
            "--padding", "1", "--out", out,
        ) == 0
        from tensorconv import ConvSpec, conv_nd_direct

        expected = conv_nd_direct(x, w, ConvSpec.from_kernel(w, 2, 1))
        assert np.array_equal(read_tensor(out), expected)


class TestCost:
    def test_architecture_totals(self, tmp_path, capsys):
        layers = [
            {"in_channels": c, "out_channels": t, "kernel_sizes": [3, 3, 3]}
            for c, t in [(3, 64), (64, 128), (128, 256), (256, 256)]
        ]
        spec = tmp_path / "arch.json"
        spec.write_text(json.dumps({"layers": layers}))
        assert run_cli("cost", "--spec", spec, "--rank-multiplier", "6") == 0
        values = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        )
        assert int(values["params_regular"]) == 2_880_576
        assert int(values["params_hocp"]) == 1_180_632
        assert int(values["params_saved"]) == 1_699_944

    def test_single_layer_with_flops(self, tmp_path, capsys):
        spec = tmp_path / "layer.json"
        spec.write_text(json.dumps({"in_channels": 1, "out_channels": 1, "kernel_sizes": [1], "rank": 1}))
        assert run_cli("cost", "--spec", spec, "--input-extents", "1") == 0
        values = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        )
        assert int(values["flops_regular"]) == 2
        assert int(values["params_regular"]) == 1

    def test_malformed_spec_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        assert run_cli("cost", "--spec", spec) == 2

    def test_missing_field_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"in_channels": 2}))
        assert run_cli("cost", "--spec", spec) == 2

    LAYER = {"in_channels": 2, "out_channels": 3, "kernel_sizes": [3]}

    @pytest.mark.parametrize("content", [
        json.dumps(dict(LAYER, kernel_sizes=3)).encode(),
        json.dumps(dict(LAYER, in_channels="x")).encode(),
        json.dumps(dict(LAYER, rank=[1])).encode(),
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
        json.dumps(dict(LAYER, in_channels=2.5)).encode(),
        json.dumps(dict(LAYER, out_channels=2.5)).encode(),
        json.dumps(dict(LAYER, kernel_sizes=[3.5])).encode(),
        json.dumps(dict(LAYER, stride=1.5)).encode(),
        json.dumps(dict(LAYER, padding=0.5)).encode(),
        json.dumps(dict(LAYER, rank=1.7)).encode(),
        json.dumps(dict(LAYER, in_channels=True)).encode(),
    ], ids=["scalar-kernel-sizes", "string-channels", "list-rank", "deep-nesting", "not-utf8",
            "float-in-channels", "float-out-channels", "float-kernel-size", "float-stride",
            "float-padding", "float-rank", "bool-in-channels"])
    def test_malformed_layer_exits_2(self, tmp_path, content):
        spec = tmp_path / "bad.json"
        spec.write_bytes(content)
        assert run_cli("cost", "--spec", spec) == 2

    def test_bare_list_exits_2(self, tmp_path, capsys):
        """A spec is a layer object or {"layers": [...]}, not a bare list."""
        spec = tmp_path / "list.json"
        spec.write_text(json.dumps([self.LAYER]))
        assert run_cli("cost", "--spec", spec) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("layers,extents", [
        ([LAYER, {"in_channels": 2, "out_channels": 3}], ()),
        ([dict(LAYER, kernel_sizes=[3, 3])], ("--input-extents", "8,8,8")),
    ], ids=["later-layer-lacks-kernel-sizes", "extents-of-another-order"])
    def test_bad_layer_prints_nothing(self, tmp_path, capsys, layers, extents):
        """Every layer is costed before any line is printed."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"layers": layers}))
        assert run_cli("cost", "--spec", spec, *extents) == 2
        assert capsys.readouterr().out == ""

    def test_rank_below_one_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "layer.json"
        spec.write_text(json.dumps(dict(self.LAYER, rank=0)))
        assert run_cli("cost", "--spec", spec) == 3
        out, err = capsys.readouterr()
        assert out == "" and "error: cost spec layer 0: rank must be >= 1, got 0" in err


class TestSweep:
    def test_default_rows_beat_regular(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["in_channels"]), int(r["out_channels"])) for r in rows] == list(costs.DEFAULT_SWEEP_PAIRS)
        for row in rows:
            assert float(row["gflops_hocp_x3"]) < float(row["gflops_regular"])
            assert float(row["gflops_hocp_x6"]) < float(row["gflops_regular"])

    def test_empty_pairs_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--pairs", "", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("in_channels,")

    def test_bad_pairs_exit_3(self, tmp_path):
        assert run_cli("sweep", "--pairs", "4x8", "--out", tmp_path / "s.csv") == 3

    def test_pairs_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--pairs", "16:32,64:64", "--out", out) == 0
        with open(out, newline="") as fh:
            got = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        assert got == [
            [r.in_channels, r.out_channels, r.flops_regular / 1e9, *(f / 1e9 for f in r.flops_hocp)]
            for r in costs.figure6_sweep(((16, 32), (64, 64)))
        ]

    def test_rewrite_gives_the_same_file_anew(self, tmp_path):
        out, kept = tmp_path / "sweep.csv", tmp_path / "kept.csv"
        assert run_cli("sweep", "--out", out) == 0
        os.link(out, kept)
        assert run_cli("sweep", "--out", out) == 0
        assert out.read_bytes() == kept.read_bytes()
        assert out.stat().st_ino != kept.stat().st_ino

    def test_multiplier_zero_exits_3(self, tmp_path):
        assert run_cli("sweep", "--multipliers", "0", "--out", tmp_path / "s.csv") == 3
        assert not (tmp_path / "s.csv").exists()

    def test_multiplier_zero_without_pairs_exits_3(self, tmp_path):
        """Multipliers are checked before any row is costed, so also with no rows."""
        assert run_cli("sweep", "--pairs", "", "--multipliers", "2,0", "--out", tmp_path / "s.csv") == 3
        assert not (tmp_path / "s.csv").exists()


class TestVerify:
    def test_pass_and_fail_paths(self, synthetic_kernel, tmp_path, capsys):
        kernel, w = synthetic_kernel
        assert run_cli(
            "decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
            "--out", tmp_path / "plan", "--tol", "1e-14", "--max-iters", "2000",
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "verify", "--plan", tmp_path / "plan" / "plan.json",
            "--kernel", kernel, "--tolerance", "1e-8",
        )
        assert code == 0
        assert "pass=true" in capsys.readouterr().out

        # verify against a different kernel must fail with exit 1
        other = tmp_path / "other.tensor"
        write_tensor(other, w + 0.05)
        code = run_cli(
            "verify", "--plan", tmp_path / "plan" / "plan.json",
            "--kernel", other, "--tolerance", "1e-8",
        )
        assert code == 1
        assert "pass=false" in capsys.readouterr().out


    def test_nan_factor_plan_exits_nonzero(self, synthetic_kernel, tmp_path, capsys):
        kernel, _ = synthetic_kernel
        assert run_cli("decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
                       "--out", tmp_path / "plan", "--max-iters", "20") == 0
        factor_path = tmp_path / "plan" / "spatial_mode_0.tensor"
        factor = read_tensor(factor_path).copy()
        factor[0, 0] = np.nan
        write_tensor(factor_path, factor)
        capsys.readouterr()
        code = run_cli("verify", "--plan", tmp_path / "plan" / "plan.json",
                       "--kernel", kernel, "--tolerance", "1e-8")
        assert code != 0
        captured = capsys.readouterr()
        assert "pass=true" not in captured.out
        assert str(factor_path) in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "-inf"])
    def test_bad_tolerance_exits_3(self, synthetic_kernel, tmp_path, capsys, tolerance):
        """NaN and -1 used to exit 1 with pass=false, as a failed verification."""
        kernel, _ = synthetic_kernel
        assert run_cli("decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
                       "--out", tmp_path / "plan", "--max-iters", "5") == 0
        capsys.readouterr()
        assert run_cli("verify", "--plan", tmp_path / "plan" / "plan.json", "--kernel", kernel,
                       "--tolerance", tolerance) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance" in captured.err


class TestPlanManifest:
    """``conv --plan`` and ``verify`` exit 2 on a manifest that names a file
    outside the plan's directory, says a version other than 1 or holds no
    reference extents."""

    @pytest.mark.parametrize("edit", ["absolute-factor-path", "version-2", "no-reference-extents",
                                      "empty-reference-extents"])
    def test_exits_2(self, synthetic_kernel, tmp_path, capsys, edit):
        kernel, _ = synthetic_kernel
        assert run_cli("decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
                       "--out", tmp_path / "plan", "--max-iters", "5") == 0
        manifest = tmp_path / "plan" / "plan.json"
        doc = json.loads(manifest.read_text())
        if edit == "version-2":
            doc["version"] = 2
        elif edit == "no-reference-extents":
            del doc["reference_input_extents"]
        elif edit == "empty-reference-extents":
            doc["reference_input_extents"] = []
        else:  # the same file, named by its absolute path
            doc["factors"][0]["file"] = str(tmp_path / "plan" / doc["factors"][0]["file"])
        manifest.write_text(json.dumps(doc))
        x = tmp_path / "x.tensor"
        write_tensor(x, np.zeros((4, 6, 6)))
        capsys.readouterr()
        assert run_cli("conv", "--input", x, "--plan", manifest, "--out", tmp_path / "y.tensor") == 2
        assert not (tmp_path / "y.tensor").exists()
        assert run_cli("verify", "--plan", manifest, "--kernel", kernel, "--tolerance", "1") == 2
        assert str(manifest) in capsys.readouterr().err

    def test_skip_plan_at_stride_2_exits_2_before_any_forward(self, tmp_path, capsys, monkeypatch):
        """It used to run, and raised inside the forward after one window."""
        rng = np.random.default_rng(61)
        spec = ConvSpec(3, 4, (3, 3), 1, 1)
        layer = CpConvLayer(random_kruskal(rng, (4, 3, 3, 3), 2), spec, None, rng.standard_normal((4, 3)))
        manifest = save_plan(FactorizedPlan("cp", layer, costs.report(layer.stages, (6, 6)), (6, 6)),
                             tmp_path / "plan")
        x = tmp_path / "x.tensor"
        write_tensor(x, rng.standard_normal((3, 6, 6)))
        monkeypatch.setattr(layers, "_fill", mock.Mock(side_effect=AssertionError("a forward ran")))
        assert run_cli("conv", "--input", x, "--plan", manifest, "--stride", "2", "--out", tmp_path / "y.tensor") == 2
        assert "preserved spatial extents" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()
        assert not layers._fill.called


class TestActivationParameters:
    """Batch-norm and PReLU parameters of a hocp plan fail closed at load (exit 2)."""

    RANK = 5

    @pytest.fixture
    def hocp_plan(self, tmp_path):
        rng = np.random.default_rng(60)
        r = self.RANK
        spec = ConvSpec(3, 4, (3, 3), 1, 1)
        layer = HoCpConvLayer(
            CpConvLayer(random_kruskal(rng, (4, 3, 3, 3), r), spec),
            activations=(PReLU(0.2), FrozenBatchNorm(
                tuple(rng.uniform(-0.1, 0.1, r)), tuple(rng.uniform(0.5, 2.0, r)), 1.5, 0.25,
            )),
        )
        plan = FactorizedPlan("hocp", layer, report_hocp(spec, r, (6, 6)), (6, 6))
        manifest = save_plan(plan, tmp_path / "plan")
        x = tmp_path / "x.tensor"
        write_tensor(x, rng.standard_normal((3, 6, 6)))
        return manifest, x

    @staticmethod
    def edit(manifest, mode, **params):
        doc = json.loads(manifest.read_text())
        doc["activations"][mode].update(params)
        manifest.write_text(json.dumps(doc))

    def run_conv(self, manifest, x, tmp_path):
        return run_cli("conv", "--input", x, "--plan", manifest, "--out", tmp_path / "y.tensor")

    def test_mean_longer_than_rank_exits_2(self, hocp_plan, tmp_path, capsys):
        manifest, x = hocp_plan
        self.edit(manifest, 1, mean=[0.0] * (self.RANK + 1))
        assert self.run_conv(manifest, x, tmp_path) == 2
        assert "mean" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()

    def test_negative_var_exits_2(self, hocp_plan, tmp_path, capsys):
        manifest, x = hocp_plan
        self.edit(manifest, 1, var=[-2.0] * self.RANK)
        assert self.run_conv(manifest, x, tmp_path) == 2
        assert "var + eps" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()

    def test_nan_mean_exits_2(self, hocp_plan, tmp_path, capsys):
        manifest, x = hocp_plan
        doc = json.loads(manifest.read_text())
        doc["activations"][1]["mean"][2] = float("nan")
        manifest.write_text(json.dumps(doc))  # json writes the literal NaN
        assert "NaN" in manifest.read_text()
        assert self.run_conv(manifest, x, tmp_path) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()

    def test_non_finite_prelu_slope_exits_2(self, hocp_plan, tmp_path, capsys):
        manifest, x = hocp_plan
        self.edit(manifest, 0, slope=float("inf"))
        assert self.run_conv(manifest, x, tmp_path) == 2
        assert "slope" in capsys.readouterr().err

    def test_length_one_parameter_equals_scalar(self, hocp_plan, tmp_path):
        manifest, x = hocp_plan
        assert self.run_conv(manifest, x, tmp_path) == 0
        scalar = read_tensor(tmp_path / "y.tensor").copy()
        self.edit(manifest, 1, scale=[1.5], shift=[0.25])
        assert self.run_conv(manifest, x, tmp_path) == 0
        assert np.array_equal(read_tensor(tmp_path / "y.tensor"), scalar)


class TestUsageErrors:
    """argparse's usage errors exit 3 (invalid parameters), not its own 2."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--scheme", "bogus", "--out", "plan"], "invalid choice: 'bogus'"),
            (["--scheme", "cp"], "required: --out"),
            (["--scheme", "cp", "--out", "plan", "--seed", "notint"], "invalid int value: 'notint'"),
        ],
    )
    def test_exits_3_with_argparse_message(self, synthetic_kernel, extra, message, capsys):
        kernel, _ = synthetic_kernel
        code = run_cli("decompose", "--input", kernel, "--rank", "2", *extra)
        assert code == 3
        err = capsys.readouterr().err
        assert "usage: tensorconv decompose" in err
        assert "tensorconv decompose: error: " in err
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--input", "k", "--scheme", "cp", "--rank", "2", "--out", "p", "--probes", "8"],
        ["decompose", "--input", "k", "--scheme", "cp", "--rank", "2", "--out", "p", "--probe-extent", "16"],
        ["verify", "--plan", "p", "--kernel", "k", "--probes", "8"],
        ["verify", "--plan", "p", "--kernel", "k", "--probe-extent", "16"],
        ["cost", "--spec", "s", "--rank", "4"],
        ["sweep", "--fig6", "--out", "s.csv"],
    ], ids=["decompose-probes", "decompose-probe-extent", "verify-probes", "verify-probe-extent",
            "cost-rank", "sweep-fig6"])
    def test_removed_flags_exit_3(self, argv, capsys):
        """The probe protocol is fixed, a cost rank comes from the layer or
        --rank-multiplier, and sweep writes the Fig. 6 rows without --pairs.
        cost --rank is refused, not read as an abbreviated --rank-multiplier."""
        assert run_cli(*argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--stride", "0", "--stride must be >= 1, got 0"),
        ("--stride", "1,0", "--stride must be >= 1, got 0"),
        ("--stride", "", "--stride expects integers >= 1, got ''"),
        ("--padding", "-1", "--padding must be >= 0, got -1"),
    ], ids=["stride-0", "stride-1,0", "stride-empty", "padding-negative"])
    @pytest.mark.parametrize("command", ["decompose", "conv-kernel", "conv-plan", "verify"])
    def test_bad_geometry_exits_3_before_any_file_is_read(
        self, synthetic_kernel, tmp_path, capsys, monkeypatch, command, flag, value, message,
    ):
        """They used to exit 2: ConvSpec refused them after the input files were read."""
        kernel, _ = synthetic_kernel
        assert run_cli("decompose", "--input", kernel, "--scheme", "cp", "--rank", "2",
                       "--out", tmp_path / "plan", "--max-iters", "5") == 0
        plan, x, out = tmp_path / "plan" / "plan.json", tmp_path / "x.tensor", tmp_path / "out"
        write_tensor(x, np.zeros((4, 6, 6)))
        argv = {
            "decompose": ["decompose", "--input", kernel, "--scheme", "cp", "--rank", "2", "--out", out],
            "conv-kernel": ["conv", "--input", x, "--kernel", kernel, "--out", out],
            "conv-plan": ["conv", "--input", x, "--plan", plan, "--out", out],
            "verify": ["verify", "--plan", plan, "--kernel", kernel],
        }[command]
        for name in ("read_finite_tensor", "load_plan"):
            monkeypatch.setattr(cli, name, mock.Mock(wraps=getattr(cli, name)))
        capsys.readouterr()
        assert run_cli(*argv, flag, value) == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert not cli.read_finite_tensor.called and not cli.load_plan.called

    @pytest.mark.parametrize("flags,named", [
        (["--kernel", "0"], "error: --kernel must be >= 1, got 0"),
        (["--kernel", ""], "error: --input-extents '32,32,16' and --kernel '': "),
        (["--pairs", "0:4"], "error: --pairs must be >= 1, got 0"),
        (["--pairs", "4:-1"], "error: --pairs must be >= 1, got -1"),
        (["--input-extents", ""], "error: --input-extents '' and --kernel '3,3,3': "),
        (["--input-extents", "0,0,0"], "error: --input-extents must be >= 1, got 0"),
        (["--kernel", "3,3"], "error: --input-extents '32,32,16' and --kernel '3,3': "),
        (["--input-extents", "1,1,1", "--kernel", "3,3,3"], "error: --input-extents '1,1,1' and --kernel '3,3,3': "),
    ], ids=["kernel-0", "kernel-empty", "pairs-0:4", "pairs-4:-1", "extents-empty", "extents-0,0,0",
            "kernel-of-another-order", "extents-below-kernel"])
    def test_bad_sweep_flag_exits_3_before_any_file_is_written(self, tmp_path, capsys, flags, named):
        """sweep reads no file, so a bad shape is always its flags': each used to exit 2."""
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"kept,bytes\n")
        assert run_cli("sweep", "--out", out, *flags) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and named in err
        assert out.read_bytes() == b"kept,bytes\n"

    @pytest.mark.parametrize("flags,message", [
        (["--input-extents", "0"], "--input-extents must be >= 1, got 0"),
        (["--input-extents", "-4"], "--input-extents must be >= 1, got -4"),
        (["--rank-multiplier", "0"], "--rank-multiplier must be >= 1, got 0"),
    ], ids=["extents-0", "extents-negative", "rank-multiplier-0"])
    def test_bad_cost_flag_exits_3_before_the_spec_is_read(self, tmp_path, capsys, monkeypatch, flags, message):
        """The layer gives its rank: extents 0 and -4 used to exit 2 after the
        spec was read, and --rank-multiplier 0 exited 0."""
        spec = tmp_path / "layer.json"
        spec.write_text(json.dumps({"in_channels": 2, "out_channels": 3, "kernel_sizes": [3], "rank": 4}))
        monkeypatch.setattr(cli, "_load_cost_layers", mock.Mock(wraps=cli._load_cost_layers))
        assert run_cli("cost", "--spec", spec, *flags) == 3
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"error: {message}" in err
        assert not cli._load_cost_layers.called

    def test_out_of_process(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorconv", "decompose", "--input", str(tmp_path / "k"),
             "--scheme", "bogus", "--rank", "2", "--out", str(tmp_path / "plan")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert "invalid choice: 'bogus'" in proc.stderr
        assert proc.stdout == ""


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tensorconv", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "decompose" in proc.stdout
