"""Computations made apart from tensorconv, used to check its outputs.

Nothing here imports tensorconv. Dense kernels are rebuilt from plan factors
in bounded memory (a CP kernel as ``U_out @ KR(rest).T``, never the
prod(shape) x R Khatri-Rao product of every mode), containers are parsed
from their documented byte layout, the higher-order CP chain is re-run with
its own GEMMs, tiled over the rank, and direct convolutions are checked by
exactly rounded sums at sampled output points.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}


def read_container(path) -> np.ndarray:
    """Parse a tensor container: one JSON header line, then raw little-endian elements."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("utf-8"))
    if header.get("order") != "row-major":
        raise ValueError(f"{path}: unexpected element order {header.get('order')!r}")
    dtype = _DTYPES[header["dtype"]]
    shape = tuple(int(e) for e in header["shape"])
    payload = raw[newline + 1 :]
    if len(payload) != dtype.itemsize * math.prod(shape):
        raise ValueError(f"{path}: payload size does not match shape {shape}")
    return np.frombuffer(payload, dtype=dtype).astype(np.float64).reshape(shape)


def write_container(path, array) -> None:
    """Write ``array`` as an f64 container in the same byte layout."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    header = json.dumps({"dtype": "f64", "shape": list(arr.shape), "order": "row-major"})
    Path(path).write_bytes(header.encode("utf-8") + b"\n" + arr.tobytes())


def khatri_rao(mats) -> np.ndarray:
    """Column-wise Kronecker product, first matrix slowest."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def cp_kernel(factors) -> np.ndarray:
    """Dense kernel of CP factors (U_out, U_in, U_k0, ...): ``U_out @ KR(rest).T``."""
    u_out, rest = factors[0], list(factors[1:])
    shape = (u_out.shape[0],) + tuple(f.shape[0] for f in rest)
    return (u_out @ khatri_rao(rest).T).reshape(shape)


def tucker_kernel(down, core, up) -> np.ndarray:
    """Dense kernel of a bottleneck: ``up`` (T x Ro), ``core`` (Ro x Ri x K...), ``down`` (Ri x C)."""
    w = np.tensordot(up, core, axes=(1, 0))  # T x Ri x K...
    w = np.tensordot(w, down, axes=(1, 0))  # T x K... x C
    return np.moveaxis(w, -1, 1)


def mobilenet_v1_kernel(spatial, pointwise) -> np.ndarray:
    """``W[t, c, j, i] = pointwise[t, c] * spatial[j, i, c]``."""
    return np.einsum("tc,jic->tcji", pointwise, spatial)


def mobilenet_v2_kernel(down, spatial, up) -> np.ndarray:
    """``W[t, c, j, i] = sum_r up[t, r] * down[r, c] * spatial[j, i, r]``."""
    return np.einsum("tr,rc,jir->tcji", up, down, spatial)


def rel_dev(actual, expected) -> float:
    """Frobenius relative deviation; NaN anywhere gives inf, so it can never pass."""
    num = float(np.linalg.norm((np.asarray(actual) - expected).ravel()))
    den = float(np.linalg.norm(np.asarray(expected).ravel()))
    if math.isnan(num) or math.isnan(den):
        return math.inf
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def apply_activation(desc, z: np.ndarray, channels: slice) -> np.ndarray:
    """Apply an activation descriptor to ``z`` whose axis 0 holds rank channels ``channels``."""
    if desc is None:
        return z
    kind = desc[0]
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "prelu":
        return np.where(z >= 0.0, z, desc[1] * z)
    if kind == "batchnorm":
        _, mean, var, scale, shift, eps = desc
        shape = (-1,) + (1,) * (z.ndim - 1)

        def per_channel(p):
            return np.asarray(p, dtype=np.float64)[channels].reshape(shape)

        return (
            per_channel(scale) * (z - per_channel(mean)) / np.sqrt(per_channel(var) + eps)
            + per_channel(shift)
        )
    raise ValueError(f"unknown activation {kind!r}")


def hocp_chain(x, factors, paddings, activations, skip, tile: int = 256) -> np.ndarray:
    """Higher-order CP forward (stride 1): contract, per-mode 1-D convs with activations, contract.

    Runs rank tiles of ``tile`` channels independently and sums their output
    contractions, which is exact because every stage is per rank channel.
    """
    u_out, u_in, *spatial = factors
    c = x.shape[0]
    flat_x = x.reshape(c, -1)
    y = np.zeros((u_out.shape[0], flat_x.shape[1]))
    for lo in range(0, u_in.shape[1], tile):
        cols = slice(lo, min(lo + tile, u_in.shape[1]))
        z = (u_in[:, cols].T @ flat_x).reshape((-1,) + x.shape[1:])
        for i, (kern, pad) in enumerate(zip(spatial, paddings)):
            axis = i + 1
            widths = [(0, 0)] * z.ndim
            widths[axis] = (pad, pad)
            zp = np.pad(z, widths)
            n_out = zp.shape[axis] - kern.shape[0] + 1
            shape = (-1,) + (1,) * (z.ndim - 1)
            acc = np.zeros(z.shape[:axis] + (n_out,) + z.shape[axis + 1 :])
            for j in range(kern.shape[0]):
                index = [slice(None)] * z.ndim
                index[axis] = slice(j, j + n_out)
                acc += kern[j, cols].reshape(shape) * zp[tuple(index)]
            z = apply_activation(activations[i], acc, cols)
        y += u_out[:, cols] @ z.reshape(z.shape[0], -1)
    if skip is not None:
        y += skip @ flat_x
    return y.reshape((u_out.shape[0],) + x.shape[1:])


def sample_points(rng, out_shape, count: int) -> list[tuple[int, ...]]:
    """``count`` output positions: the two extreme corners plus seeded random ones."""
    points = [tuple(0 for _ in out_shape), tuple(e - 1 for e in out_shape)]
    while len(points) < count:
        points.append(tuple(int(rng.integers(e)) for e in out_shape))
    return points


def direct_sample_error(x, w, paddings, out, points) -> float:
    """Worst ``|out - exact| / sum|terms|`` over ``points`` for a stride-1 convolution.

    ``exact`` is ``math.fsum`` of the explicit products ``w[t, c, k] * x_pad[c, y + k]``.
    """
    xp = np.pad(x, [(0, 0)] + [(p, p) for p in paddings])
    worst = 0.0
    for t, *pos in points:
        window = xp[(slice(None),) + tuple(slice(q, q + k) for q, k in zip(pos, w.shape[2:]))]
        terms = (w[t] * window).ravel()
        scale = float(np.abs(terms).sum()) or 1.0
        err = abs(float(out[(t, *pos)]) - math.fsum(terms.tolist())) / scale
        if not err <= worst:
            worst = err if not math.isnan(err) else math.inf
    return worst
