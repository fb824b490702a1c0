"""Binary checkpoint files.

Layout: an ASCII header (magic line, counts line, metadata lines, one
manifest line per parameter with its shape), then the raw little-endian
float64 values in manifest order. A fusion checkpoint's metadata records
the content hash of each member checkpoint, which names the member run
whose saved outputs the fusion heads trained on. A file whose header is
cut, or whose data is short or followed by more bytes, does not load.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Tensor

MAGIC = b"GFCKPT1"


def _as_arrays(params: dict) -> dict[str, np.ndarray]:
    return {k: (v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64))
            for k, v in params.items()}


def save_checkpoint(path: str, params: dict,
                    meta: dict[str, str] | None = None) -> None:
    arrays = _as_arrays(params)
    meta = meta or {}
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(f"{len(meta)} {len(arrays)}\n".encode())
        for key in sorted(meta):
            fh.write(f"{key}\t{meta[key]}\n".encode())
        for name in sorted(arrays):
            shape = ",".join(str(d) for d in arrays[name].shape)
            fh.write(f"{name}\t{shape}\n".encode())
        for name in sorted(arrays):
            fh.write(arrays[name].astype("<f8").tobytes())


def _header_line(fh) -> str:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ValueError("header ends early")
    return line[:-1].decode()


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parameters and metadata; a cut or padded file is a ValueError."""
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\n") != MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        try:
            n_meta, n_params = map(int, _header_line(fh).split())
            meta = dict(_header_line(fh).split("\t", 1)
                        for _ in range(n_meta))
            manifest = []
            for _ in range(n_params):
                name, shape = _header_line(fh).split("\t")
                manifest.append(
                    (name, tuple(int(d) for d in shape.split(",") if d)))
        except ValueError as exc:
            raise ValueError(f"malformed checkpoint header in {path}: "
                             f"{exc}") from exc
        params = {}
        for name, dims in manifest:
            size = 8 * int(np.prod(dims))
            buf = fh.read(size)
            if len(buf) < size:
                raise ValueError(f"checkpoint {path} ends inside parameter "
                                 f"{name}: {len(buf)} of {size} bytes")
            params[name] = np.frombuffer(buf, dtype="<f8").reshape(dims).copy()
        if fh.read(1):
            raise ValueError(f"checkpoint {path} has trailing bytes after "
                             f"its last parameter")
    return params, meta


def file_hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def average_checkpoints(first: dict[str, np.ndarray],
                        second: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Elementwise mean of two parameter sets with identical manifests."""
    a, b = _as_arrays(first), _as_arrays(second)
    if set(a) != set(b) or any(a[k].shape != b[k].shape for k in a):
        raise ValueError("checkpoint manifests do not match")
    return {k: (a[k] + b[k]) / 2.0 for k in a}
