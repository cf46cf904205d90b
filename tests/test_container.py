import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorconv import (
    ConvSpec, CpConvLayer, ContainerError, FrozenBatchNorm, HoCpConvLayer, PReLU, ReLU,
    load_plan, read_tensor, write_tensor,
)
from tensorconv.cli import main as cli_main
from tensorconv.container import read_finite_tensor
from tensorconv.costs import report_hocp
from tensorconv.pipeline import FactorizedPlan, save_plan

from helpers import random_kruskal


class TestRoundTrip:
    def test_f64_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 2))
        path = tmp_path / "t.tensor"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert back.tobytes() == t.tobytes()

    def test_read_only_view(self, tmp_path):
        path = tmp_path / "t.tensor"
        write_tensor(path, np.arange(4.0))
        assert not read_tensor(path).flags.writeable

    def test_f32_reads_back_as_float64(self, tmp_path):
        t = np.array([1.5, 2.25, -3.0])
        path = tmp_path / "t.tensor"
        write_tensor(path, t, dtype="f32")
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, t)  # exactly representable values

    def test_header_is_single_json_line(self, tmp_path):
        path = tmp_path / "t.tensor"
        write_tensor(path, np.zeros((2, 2)))
        header_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(header_line)
        assert header == {"dtype": "f64", "shape": [2, 2], "order": "row-major"}


class TestMalformed:
    def test_missing_newline(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b'{"dtype": "f64"}')
        with pytest.raises(ContainerError, match="missing header"):
            read_tensor(path)

    def test_headerless_file_is_refused_in_bounded_memory(self, tmp_path, capsys):
        """A file with no newline used to be read whole looking for one: 136 MB
        at the peak for 64 MiB of zero bytes."""
        path = tmp_path / "zeros.tensor"
        with open(path, "wb") as fh:
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="missing header"):
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        kernel = tmp_path / "kernel.tensor"
        write_tensor(kernel, np.ones((2, 1, 3)))
        assert cli_main(["conv", "--input", str(path), "--kernel", str(kernel), "--out", str(tmp_path / "y.tensor")]) == 2
        assert "missing header" in capsys.readouterr().err
        assert not (tmp_path / "y.tensor").exists()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b"not json\n1234")
        with pytest.raises(ContainerError, match="malformed JSON"):
            read_tensor(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b'{"dtype": "i8", "shape": [1], "order": "row-major"}\nx')
        with pytest.raises(ContainerError, match="dtype"):
            read_tensor(path)

    def test_bad_order(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b'{"dtype": "f64", "shape": [1], "order": "col-major"}\n' + b"\0" * 8)
        with pytest.raises(ContainerError, match="order"):
            read_tensor(path)

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b'{"dtype": "f64", "shape": [0], "order": "row-major"}\n')
        with pytest.raises(ContainerError, match="shape"):
            read_tensor(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b'{"dtype": "f64", "shape": [2], "order": "row-major"}\n' + b"\0" * 8)
        with pytest.raises(ContainerError, match="payload"):
            read_tensor(path)

    @pytest.mark.parametrize("array,dtype", [
        (np.zeros(2), "f16"), (np.zeros((0, 3)), "f64"), (np.zeros((2, 0)), "f32"), (np.float64(1.0), "f64"),
    ], ids=["dtype-f16", "extent-0", "extent-0-f32", "no-axes"])
    def test_refused_write_leaves_the_old_file(self, tmp_path, array, dtype):
        """A shape read_tensor refuses ([0, 3] used to be written) or an
        unknown dtype raises before the file at the path is touched."""
        path = tmp_path / "t.tensor"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        before, inode = path.read_bytes(), path.stat().st_ino
        with pytest.raises(ContainerError):
            write_tensor(path, array, dtype=dtype)
        assert path.read_bytes() == before
        assert path.stat().st_ino == inode
        with pytest.raises(ContainerError):
            write_tensor(tmp_path / "new.tensor", array, dtype=dtype)
        assert not (tmp_path / "new.tensor").exists()

    def test_shape_product_overflow(self, tmp_path, capsys):
        # 2**32 * 2**32 wraps to 0 in int64, which an empty payload would match.
        path = tmp_path / "huge.tensor"
        path.write_bytes(b'{"dtype": "f64", "shape": [4294967296, 4294967296], "order": "row-major"}\n')
        with pytest.raises(ContainerError, match="payload"):
            read_tensor(path)
        code = cli_main(["conv", "--input", str(path), "--kernel", str(path),
                         "--out", str(tmp_path / "y.tensor")])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, capsys, bad):
        path = tmp_path / "kernel.tensor"
        kernel = np.ones((2, 2, 3, 3))
        kernel[1, 0, 2, 1] = bad
        write_tensor(path, kernel)
        # The format round-trips any f64; readers of kernels and factors reject it.
        assert read_tensor(path).tobytes() == kernel.tobytes()
        with pytest.raises(ContainerError, match="NaN or infinite"):
            read_finite_tensor(path)
        code = cli_main(["decompose", "--input", str(path), "--scheme", "cp", "--rank", "2",
                         "--out", str(tmp_path / "plan")])
        assert code == 2
        assert str(path) in capsys.readouterr().err


class TestRewrite:
    """An existing file is replaced by a new one, not written through."""

    def test_rewrite_is_a_fresh_write_under_a_new_inode(self, tmp_path):
        rng = np.random.default_rng(2)
        old, new = rng.standard_normal((4, 5, 3)), rng.standard_normal((2, 3))
        path, kept = tmp_path / "t.tensor", tmp_path / "kept.tensor"
        write_tensor(path, old)
        old_bytes = path.read_bytes()
        os.link(path, kept)
        write_tensor(path, new)
        write_tensor(tmp_path / "fresh.tensor", new)
        assert path.read_bytes() == (tmp_path / "fresh.tensor").read_bytes()
        assert path.stat().st_ino != kept.stat().st_ino
        # The hard link still holds the old file, which is whole and readable.
        assert kept.read_bytes() == old_bytes
        assert read_tensor(kept).tobytes() == old.tobytes()


# Arbitrary JSON values, for header and manifest fields.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def well_formed_containers(draw):
    """A valid header and a payload of exactly the right length, of any bytes."""
    dtype = draw(st.sampled_from(["f64", "f32"]))
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = math.prod(shape) * (8 if dtype == "f64" else 4)
    header = json.dumps({"dtype": dtype, "shape": shape, "order": "row-major"}).encode()
    return header + b"\n" + draw(st.binary(min_size=size, max_size=size))


headers = st.fixed_dictionaries({}, optional={
    "dtype": st.sampled_from(["f64", "f32"]) | json_values,
    "shape": st.lists(st.integers(-1, 3), max_size=3) | json_values,
    "order": st.just("row-major") | json_values,
})

container_bytes = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda h, payload: json.dumps(h).encode() + b"\n" + payload,
              headers | json_values, st.binary(max_size=80)),
    well_formed_containers(),
)

fuzz_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _hocp_plan():
    """A hocp plan with every activation kind and a skip: the most manifest keys."""
    rng = np.random.default_rng(60)
    spec = ConvSpec(2, 2, (3, 3), paddings=1)  # a skip needs extents kept
    layer = HoCpConvLayer(
        CpConvLayer(random_kruskal(rng, (2, 2, 3, 3), 3), spec),
        activations=(PReLU(0.25), FrozenBatchNorm(mean=(0.1, 0.0, -0.1), var=2.0)),
        skip=rng.standard_normal((2, 2)),
    )
    return FactorizedPlan("hocp", layer, report_hocp(spec, 3, (4, 4), include_skip=True), (4, 4))


class TestFuzz:
    """Any bytes either read back or fail with ContainerError, never another exception."""

    @fuzz_settings
    @given(raw=container_bytes)
    def test_read_tensor(self, tmp_path, raw):
        path = tmp_path / "t.tensor"
        path.write_bytes(raw)
        try:
            data = read_tensor(path)
        except ContainerError:
            return
        assert data.dtype == np.float64

    @fuzz_settings
    @given(raw=container_bytes)
    def test_cli_conv_input_exits_2(self, tmp_path, raw, capsys):
        kernel = tmp_path / "kernel.tensor"
        write_tensor(kernel, np.ones((2, 1, 2)))
        path = tmp_path / "x.tensor"
        path.write_bytes(raw)
        try:
            x = read_finite_tensor(path)
            runs = x.ndim == 2 and x.shape[0] == 1 and x.shape[1] >= 2
        except ContainerError:
            runs = False
        code = cli_main(["conv", "--input", str(path), "--kernel", str(kernel),
                         "--out", str(tmp_path / "y.tensor")])
        err = capsys.readouterr().err
        assert code == (0 if runs else 2)
        if not runs:
            assert err.startswith("error: ")

    @fuzz_settings
    @given(data=st.data())
    def test_load_plan(self, tmp_path, data):
        manifest_path = save_plan(_hocp_plan(), tmp_path / "plan")
        manifest = json.loads(manifest_path.read_text())
        kind = data.draw(st.sampled_from(["bytes", "replace", "delete", "nested"]))
        if kind == "bytes":
            manifest_path.write_bytes(data.draw(st.binary(max_size=120)))
        else:
            key = data.draw(st.sampled_from(sorted(manifest)))
            if kind == "replace":
                manifest[key] = data.draw(json_values)
            elif kind == "delete":
                del manifest[key]
            else:
                # Replace one entry inside a list-valued field (factors, activations, extents...).
                items = manifest[key] if isinstance(manifest[key], list) else [manifest[key]]
                if items:
                    i = data.draw(st.integers(0, len(items) - 1))
                    if isinstance(items[i], dict) and items[i]:
                        field = data.draw(st.sampled_from(sorted(items[i])))
                        items[i][field] = data.draw(json_values)
                    else:
                        items[i] = data.draw(json_values)
                manifest[key] = items
            manifest_path.write_text(json.dumps(manifest))
        try:
            load_plan(manifest_path)
        except ContainerError:
            pass

    def test_deep_json_header(self, tmp_path):
        """Nested far past the recursion limit, within the header bound."""
        path = tmp_path / "deep.tensor"
        path.write_bytes(b"[" * 60_000 + b"\n")
        with pytest.raises(ContainerError, match="malformed JSON"):
            read_tensor(path)

    @pytest.mark.parametrize("header", [
        b'{"dtype": ["f64"], "shape": [1], "order": "row-major"}',
        b'{"dtype": "f64", "shape": [true], "order": "row-major"}',
    ])
    def test_header_field_types(self, tmp_path, header):
        path = tmp_path / "bad.tensor"
        path.write_bytes(header + b"\n" + b"\0" * 8)
        with pytest.raises(ContainerError):
            read_tensor(path)
