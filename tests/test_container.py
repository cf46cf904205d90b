import json

import numpy as np
import pytest

from tensorconv import ContainerError, read_tensor, write_tensor
from tensorconv.cli import main as cli_main
from tensorconv.container import read_finite_tensor


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

    def test_write_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ContainerError):
            write_tensor(tmp_path / "t.tensor", np.zeros(2), dtype="f16")

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
