"""The benchmark's workloads: inputs made from a seed, one round of operations, checks.

A workload builds its inputs in ``setup``, computes what the checks compare
against in ``references`` (untimed), and returns one round of operations from
``round_ops``. Every round runs the same operations in the same order. An
operation calls the program through a module attribute looked up at call
time (``pipeline.execute_plan``, ``cli.main``, ...), so the tracer can wrap it.

Each operation's check returns None when the output is right, a description
when it is wrong, and raises ``OpFailed`` when the program failed the
operation: it raised, or its exit code says the opposite of what it must.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import refs
from tensorconv import cli, container, convref, costs, layers, pipeline
from tensorconv.decomp import KruskalTensor

# Relative deviation allowed between a program output and its reference.
ORACLE_TOL = 1e-10
# Relative agreement between a reported error and the benchmark's recomputation.
REPORT_TOL = 1e-9


class OpFailed(Exception):
    """The program failed an operation (as opposed to returning a wrong output)."""


@dataclass
class Op:
    kind: str  # the per-operation metric the time is reported under
    path: Optional[str]  # "factorized", "dense" or None: which end-to-end sum it joins
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    label: str = ""  # also reported on its own, as kind[label]


def _within(dev: float, tol: float, what: str) -> Optional[str]:
    return None if dev <= tol else f"{what}: deviation {dev:.3e} exceeds {tol:.0e}"


# ---------------------------------------------------------------------------
# column3d: blocks 2-4 of the paper's 3-D column, forward only
# ---------------------------------------------------------------------------

@dataclass
class Block:
    spec: convref.ConvSpec
    x: np.ndarray
    plans: dict
    cp_factors: tuple
    activations: tuple
    skip: np.ndarray
    w_cp: np.ndarray
    w_tucker: np.ndarray
    points: list
    ref_hocp: Optional[np.ndarray] = None
    ref_tucker: Optional[np.ndarray] = None


def _program_activation(desc):
    kind = desc[0]
    if kind == "relu":
        return layers.ReLU()
    if kind == "prelu":
        return layers.PReLU(desc[1])
    _, mean, var, scale, shift, eps = desc
    return layers.FrozenBatchNorm(tuple(mean), tuple(var), tuple(scale), tuple(shift), eps)


class Column3d:
    """Forwards of blocks 2-4 (64->128, 128->256, 256->256) as cp, hocp, tucker and direct.

    3x3x3 kernels, padding 1, input 32x32x16, CP rank 6C, Tucker ranks
    (T/2, C/2). Factors are drawn from the seed; nothing is decomposed.
    """

    name = "column3d"
    per_call = False

    def __init__(self, smoke: bool):
        self.blocks = ((4, 8), (8, 8)) if smoke else ((64, 128), (128, 256), (256, 256))
        self.extents = (6, 6, 4) if smoke else (32, 32, 16)

    def setup(self, seed: int, workdir: Path) -> list[Block]:
        rng = np.random.default_rng(seed)
        return [self._block(rng, c, t) for c, t in self.blocks]

    def _block(self, rng, c: int, t: int) -> Block:
        ext = self.extents
        rank, r_in, r_out = 6 * c, c // 2, t // 2
        spec = convref.ConvSpec(c, t, (3, 3, 3), 1, 1)
        cp_factors = (
            rng.standard_normal((t, rank)) / math.sqrt(rank),
            rng.standard_normal((c, rank)) / math.sqrt(c),
            *(rng.standard_normal((3, rank)) / math.sqrt(3) for _ in range(3)),
        )
        activations = (
            ("relu",),
            ("prelu", 0.1),
            (
                "batchnorm",
                rng.uniform(-0.1, 0.1, rank).tolist(),
                rng.uniform(0.5, 2.0, rank).tolist(),
                rng.uniform(0.5, 1.5, rank).tolist(),
                rng.uniform(-0.1, 0.1, rank).tolist(),
                1e-5,
            ),
        )
        skip = rng.standard_normal((t, c)) / math.sqrt(c)
        down = rng.standard_normal((r_in, c)) / math.sqrt(c)
        core = rng.standard_normal((r_out, r_in, 3, 3, 3)) / math.sqrt(27 * r_in)
        up = rng.standard_normal((t, r_out)) / math.sqrt(r_out)
        x = rng.standard_normal((c,) + ext)

        cp = layers.CpConvLayer(KruskalTensor(cp_factors), spec)
        hocp = layers.HoCpConvLayer(cp, tuple(_program_activation(a) for a in activations), skip)
        tucker = layers.TuckerConvLayer(down, core, up, spec)
        plans = {
            "cp": pipeline.FactorizedPlan("cp", cp, costs.report_hocp(spec, rank, ext), ext),
            "hocp": pipeline.FactorizedPlan(
                "hocp", hocp,
                costs.report_hocp(spec, rank, ext, include_skip=True,
                                  activation_stages=(True, True, True)),
                ext,
            ),
            "tucker": pipeline.FactorizedPlan(
                "tucker", tucker, costs.report_tucker(spec, (r_out, r_in), ext), ext
            ),
        }
        return Block(
            spec, x, plans, cp_factors, activations, skip,
            w_cp=refs.cp_kernel(cp_factors),
            w_tucker=refs.tucker_kernel(down, core, up),
            points=refs.sample_points(rng, (t,) + ext, 48),
        )

    def references(self, state: list[Block]) -> None:
        for blk in state:
            blk.ref_hocp = refs.hocp_chain(
                blk.x, blk.cp_factors, blk.spec.paddings, blk.activations, blk.skip
            )
            blk.ref_tucker = convref.conv_nd_direct(blk.x, blk.w_tucker, blk.spec)

    def round_ops(self, state: list[Block]) -> list[Op]:
        ops = []
        for blk in state:
            ops += self._block_ops(blk)
        return ops

    @staticmethod
    def _block_ops(blk: Block) -> list[Op]:
        seen = {}

        def check_direct(y):
            seen["direct"] = y
            err = refs.direct_sample_error(blk.x, blk.w_cp, blk.spec.paddings, y, blk.points)
            return _within(err, ORACLE_TOL, "direct vs explicit sums")

        def forward(scheme):
            return lambda: pipeline.execute_plan(blk.plans[scheme], blk.x)

        label = f"{blk.spec.in_channels}->{blk.spec.out_channels}"
        ops = [
            Op("fwd_direct_s", "dense",
               lambda: convref.conv_nd_direct(blk.x, blk.w_cp, blk.spec), check_direct),
            Op("fwd_cp_s", "factorized", forward("cp"),
               lambda y: _within(refs.rel_dev(y, seen["direct"]), ORACLE_TOL, "cp vs direct")),
            Op("fwd_hocp_s", "factorized", forward("hocp"),
               lambda y: _within(refs.rel_dev(y, blk.ref_hocp), ORACLE_TOL, "hocp vs chain")),
            Op("fwd_tucker_s", "factorized", forward("tucker"),
               lambda y: _within(refs.rel_dev(y, blk.ref_tucker), ORACLE_TOL, "tucker vs direct")),
        ]
        for op in ops:
            op.label = label
        return ops


# ---------------------------------------------------------------------------
# compress: decomposition of kernels with a planted low rank plus noise
# ---------------------------------------------------------------------------

# Vertices of a regular tetrahedron: four unit vectors in R^3 with pairwise
# cosine -1/3, the best-conditioned spatial factor a rank-4 CP term set can have.
_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
).T / math.sqrt(3)


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def _noisy(rng, clean: np.ndarray, level: float) -> tuple[np.ndarray, float]:
    """``clean`` plus Gaussian noise of norm ``level * |clean|``; returns it and |noise|/|kernel|."""
    noise = rng.standard_normal(clean.shape)
    noise *= level * np.linalg.norm(clean) / np.linalg.norm(noise)
    kernel = clean + noise
    return kernel, float(np.linalg.norm(noise) / np.linalg.norm(kernel))


@dataclass
class CompressState:
    seed: int
    workdir: Path
    cp_kernel: np.ndarray
    cp_noise: float
    tucker_kernel: np.ndarray
    tucker_noise: float
    probe: np.ndarray


class Compress:
    """``pipeline.compress`` under cp and tucker, then ``verify_equivalence`` and a save/load round trip.

    The CP kernel is a rank-4 Kruskal tensor (orthonormal channel factors,
    rotated-tetrahedron spatial factors, weights 0.7^r) plus noise; the
    Tucker kernel has channel ranks (8, 4) and full spatial ranks plus noise.
    Both decompositions run a fixed number of sweeps (``tol=0``), so every
    seed does the same work.
    """

    name = "compress"
    per_call = False
    noise = 1e-2

    def __init__(self, smoke: bool):
        self.shape = (6, 4, 3, 3, 3) if smoke else (32, 16, 3, 3, 3)
        self.cp_rank = 2 if smoke else 4
        self.tucker_ranks = (3, 2) if smoke else (8, 4)
        self.cp_sweeps = 30 if smoke else 60
        self.hooi_sweeps = 5 if smoke else 25
        self.restarts = 3

    def setup(self, seed: int, workdir: Path) -> CompressState:
        rng = np.random.default_rng(seed)
        t, c, *spatial = self.shape
        r = self.cp_rank
        factors = [_orthonormal(rng, t, r) * 0.7 ** np.arange(r), _orthonormal(rng, c, r)]
        factors += [_orthonormal(rng, k, k) @ _TETRAHEDRON[:, :r] for k in spatial]
        cp_kernel, cp_noise = _noisy(rng, refs.cp_kernel(factors), self.noise)

        r_out, r_in = self.tucker_ranks
        core = rng.standard_normal((r_out, r_in, *spatial))
        clean = refs.tucker_kernel(_orthonormal(rng, c, r_in).T, core, _orthonormal(rng, t, r_out))
        tucker_kernel, tucker_noise = _noisy(rng, clean, self.noise)

        probe = rng.standard_normal((c, 16, 16, 16))
        workdir.mkdir(parents=True, exist_ok=True)
        return CompressState(seed, workdir, cp_kernel, cp_noise, tucker_kernel, tucker_noise, probe)

    def references(self, state: CompressState) -> None:
        pass

    def round_ops(self, s: CompressState) -> list[Op]:
        seen = {}

        def check_compress(kind, kernel, bound, rebuild):
            def check(res):
                w = rebuild(res.plan.layer)
                seen[kind] = (res.plan, w)
                mine = refs.rel_dev(w, kernel)
                problems = [
                    _within(abs(res.kernel_rel_error - mine), REPORT_TOL * mine,
                            f"{kind} reported kernel_rel_error {res.kernel_rel_error!r} vs {mine!r}"),
                    _within(mine, bound, f"{kind} kernel error above its noise bound"),
                ]
                return "; ".join(p for p in problems if p) or None
            return check

        def verify():
            plan, w = seen["cp"]
            return pipeline.verify_equivalence(plan, w, tolerance=ORACLE_TOL)

        def check_verify(report):
            # The plan is checked against its own dense kernel, so it must pass.
            if not report.passed:
                return f"verify_equivalence of a plan against its own kernel: {report.summary()}"
            return _within(report.max_rel_deviation, ORACLE_TOL, "verify max_rel_deviation")

        def round_trip(kind):
            def run():
                plan = seen[kind][0]
                return plan, pipeline.load_plan(pipeline.save_plan(plan, s.workdir / kind))
            return run

        def check_round_trip(pair):
            plan, loaded = pair
            same = all(np.array_equal(a, b)
                       for a, b in zip(_factors(plan.layer), _factors(loaded.layer)))
            same = same and np.array_equal(
                pipeline.execute_plan(plan, s.probe), pipeline.execute_plan(loaded, s.probe)
            )
            return None if same else f"{plan.scheme} plan changed in a save/load round trip"

        # The planted rank-R tensor is itself a rank-R candidate whose error is
        # the noise, so the best fit's error is at most |E|/|K|. Truncated HOSVD
        # is within sqrt(N) of the best Tucker fit (N = truncated modes: 2), and
        # HOOI sweeps do not raise the error.
        cp_bound = s.cp_noise
        tucker_bound = math.sqrt(2) * s.tucker_noise
        return [
            Op("decompose_cp_s", "factorized",
               lambda: pipeline.compress(s.cp_kernel, "cp", self.cp_rank, seed=s.seed, tol=0.0,
                                         max_iters=self.cp_sweeps, restarts=self.restarts),
               check_compress("cp", s.cp_kernel, cp_bound,
                              lambda layer: refs.cp_kernel(layer.kruskal.factors))),
            Op("decompose_tucker_s", "factorized",
               lambda: pipeline.compress(s.tucker_kernel, "tucker", self.tucker_ranks,
                                         seed=s.seed, tol=0.0, max_iters=self.hooi_sweeps),
               check_compress("tucker", s.tucker_kernel, tucker_bound,
                              lambda layer: refs.tucker_kernel(layer.down, layer.core, layer.up))),
            Op("verify_s", "dense", verify, check_verify),
            Op("roundtrip_s", None, round_trip("cp"), check_round_trip),
            Op("roundtrip_s", None, round_trip("tucker"), check_round_trip),
        ]


def _factors(layer) -> list[np.ndarray]:
    if isinstance(layer, layers.CpConvLayer):
        return list(layer.kruskal.factors)
    return [layer.down, layer.core, layer.up]


# ---------------------------------------------------------------------------
# cli2d: 2-D decompose -> conv --plan / conv --kernel -> verify through the CLI
# ---------------------------------------------------------------------------

# The NaN plan is made from this fixed seed, so the failing operation does not
# depend on the run's seed.
NAN_PLAN_SEED = 20190614


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``tensorconv.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _keys(stdout: str) -> dict[str, str]:
    return dict(
        line.split("=", 1) for line in stdout.splitlines()
        if "=" in line and not line.startswith("#")
    )


def plan_kernel(manifest_path: Path) -> np.ndarray:
    """Dense kernel of a saved plan, rebuilt from its factor files by the benchmark."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    f = {e["role"]: refs.read_container(manifest_path.parent / e["file"])
         for e in manifest["factors"]}
    scheme = manifest["scheme"]
    if scheme == "mobilenet-v1":
        return refs.mobilenet_v1_kernel(f["spatial"], f["pointwise"])
    if scheme == "mobilenet-v2":
        return refs.mobilenet_v2_kernel(f["down"], f["spatial"], f["up"])
    if scheme == "cp":
        n = len(manifest["kernel_sizes"])
        return refs.cp_kernel([f["output_channels"], f["input_channels"]]
                              + [f[f"spatial_mode_{i}"] for i in range(n)])
    raise ValueError(f"no rebuild for scheme {scheme!r}")


@dataclass
class CliState:
    seed: int
    workdir: Path
    kernel: np.ndarray
    images: list
    points: list
    references: dict


class Cli2d:
    """The CLI round trip on 2-D 3x3 kernels and a stream of large-image activations.

    A (48, 32, 3, 3) kernel is decomposed with ``mobilenet-v1`` (rank 32),
    ``mobilenet-v2`` (rank 16) and ``cp`` (rank 12) for 15 ALS sweeps; each
    plan then convolves two images (32x320x240 and 32x192x384) with padding
    1, next to the direct ``conv --kernel``, and ``verify`` checks each plan.
    One more ``verify`` runs a plan whose factor holds a NaN; it must exit
    non-zero and is counted as failed until it does.
    """

    name = "cli2d"
    per_call = True

    def __init__(self, smoke: bool):
        self.kernel_shape = (6, 4, 3, 3) if smoke else (48, 32, 3, 3)
        self.image_shapes = ((4, 12, 10), (4, 9, 14)) if smoke else ((32, 320, 240), (32, 192, 384))
        c = self.kernel_shape[1]
        self.schemes = (("mobilenet-v1", c), ("mobilenet-v2", 3 if smoke else 16),
                        ("cp", 3 if smoke else 12))
        self.sweeps = 5 if smoke else 15

    def setup(self, seed: int, workdir: Path) -> CliState:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        t, c, kh, kw = self.kernel_shape
        kernel = rng.standard_normal(self.kernel_shape) / math.sqrt(c * kh * kw)
        container.write_tensor(workdir / "kernel.tensor", kernel)
        images, points = [], []
        for i, shape in enumerate(self.image_shapes):
            x = rng.standard_normal(shape)
            container.write_tensor(workdir / f"image{i}.tensor", x)
            images.append(x)
            points.append(refs.sample_points(rng, (t,) + shape[1:], 32))

        nan_dir = workdir / "nan_plan"
        nan_rng = np.random.default_rng(NAN_PLAN_SEED)
        nan_kernel = nan_rng.standard_normal((8, 4, 3, 3))
        container.write_tensor(workdir / "nan_kernel.tensor", nan_kernel)
        res = pipeline.compress(nan_kernel, "cp", 2, max_iters=5, tol=0.0, restarts=1)
        pipeline.save_plan(res.plan, nan_dir)
        factor = refs.read_container(nan_dir / "spatial_mode_0.tensor").copy()
        factor[0, 0] = math.nan
        refs.write_container(nan_dir / "spatial_mode_0.tensor", factor)
        return CliState(seed, workdir, kernel, images, points, {})

    def references(self, state: CliState) -> None:
        pass

    def _outputs_of(self, s: CliState, w: np.ndarray) -> list[np.ndarray]:
        """Direct convolutions of every image with ``w``, cached by the kernel's bytes."""
        key = hashlib.sha256(w.tobytes()).hexdigest()
        if key not in s.references:
            spec = convref.ConvSpec.from_kernel(w, 1, 1)
            s.references[key] = [convref.conv_nd_direct(x, w, spec) for x in s.images]
        return s.references[key]

    def round_ops(self, s: CliState) -> list[Op]:
        d = s.workdir
        seen = {}
        ops = []

        def exited_ok(code):
            if code != 0:
                raise OpFailed(f"exit code {code}")

        def check_decompose(scheme):
            def check(result):
                code, stdout = result
                exited_ok(code)
                plan_dir = d / f"plan_{scheme}"
                w = plan_kernel(plan_dir / "plan.json")
                refs.write_container(plan_dir / "rebuilt.tensor", w)
                seen[scheme] = self._outputs_of(s, w)
                mine = refs.rel_dev(w, s.kernel)
                reported = float(_keys(stdout)["rel_error"])
                return _within(abs(reported - mine), REPORT_TOL * mine,
                               f"{scheme} rel_error {reported!r} vs {mine!r}")
            return check

        def check_conv_plan(scheme, i):
            def check(result):
                exited_ok(result[0])
                y = refs.read_container(d / f"out_{scheme}_{i}.tensor")
                return _within(refs.rel_dev(y, seen[scheme][i]), ORACLE_TOL,
                               f"conv --plan {scheme} image {i} vs direct")
            return check

        def check_conv_direct(i):
            def check(result):
                exited_ok(result[0])
                y = refs.read_container(d / f"direct_{i}.tensor")
                err = refs.direct_sample_error(s.images[i], s.kernel, (1, 1), y, s.points[i])
                return _within(err, ORACLE_TOL, f"conv --kernel image {i} vs explicit sums")
            return check

        def check_verify(result):
            code, stdout = result
            exited_ok(code)
            keys = _keys(stdout)
            if keys.get("pass") != "true":
                return f"verify printed pass={keys.get('pass')}"
            return _within(float(keys["max_rel_deviation"]), ORACLE_TOL, "verify deviation")

        def check_nan_verify(result):
            if result[0] == 0:
                raise OpFailed("verify of a plan holding a NaN exits 0: " + result[1].strip().replace("\n", " "))
            return None

        def cli_op(kind, path, argv, check):
            ops.append(Op(kind, path, lambda: run_cli(argv), check))

        for scheme, rank in self.schemes:
            cli_op("cli_decompose_s", "factorized",
                   ["decompose", "--input", str(d / "kernel.tensor"), "--scheme", scheme,
                    "--rank", str(rank), "--out", str(d / f"plan_{scheme}"), "--seed", str(s.seed),
                    "--tol", "0", "--max-iters", str(self.sweeps), "--restarts", "1",
                    "--padding", "1"],
                   check_decompose(scheme))
        for scheme, _ in self.schemes:
            for i in range(len(s.images)):
                cli_op("cli_conv_s", "factorized",
                       ["conv", "--input", str(d / f"image{i}.tensor"),
                        "--plan", str(d / f"plan_{scheme}" / "plan.json"),
                        "--out", str(d / f"out_{scheme}_{i}.tensor")],
                       check_conv_plan(scheme, i))
        for i in range(len(s.images)):
            cli_op("cli_direct_s", "dense",
                   ["conv", "--input", str(d / f"image{i}.tensor"),
                    "--kernel", str(d / "kernel.tensor"), "--padding", "1",
                    "--out", str(d / f"direct_{i}.tensor")],
                   check_conv_direct(i))
        for scheme, _ in self.schemes:
            cli_op("cli_verify_s", "dense",
                   ["verify", "--plan", str(d / f"plan_{scheme}" / "plan.json"),
                    "--kernel", str(d / f"plan_{scheme}" / "rebuilt.tensor"),
                    "--tolerance", repr(ORACLE_TOL), "--seed", str(s.seed)],
                   check_verify)
        cli_op("cli_verify_nan_s", None,
               ["verify", "--plan", str(d / "nan_plan" / "plan.json"),
                "--kernel", str(d / "nan_kernel.tensor"), "--tolerance", "1e-8"],
               check_nan_verify)
        return ops


WORKLOADS = {w.name: w for w in (Column3d, Compress, Cli2d)}
