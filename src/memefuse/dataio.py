"""Dataset files, PPM images, and the line-based run configuration format."""

from __future__ import annotations

import io
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .preprocess import DataError, LabelVector, RawSample

TSV_HEADER = ["id", "ocr_text", "captions", "mis", "shm", "ste", "obj", "vio"]

MODEL_MEMBERS: dict[str, list[str] | None] = {
    "bertc": None,
    "gcan": None,
    "vit": None,
    "bertc-vit": ["bertc", "vit"],
    "gcan-vit": ["gcan", "vit"],
    "bertc-gcan": ["bertc", "gcan"],
    "bertc-gcan-vit": ["bertc", "gcan", "vit"],
}


@contextmanager
def open_text(path: str):
    """`path` opened to read UTF-8 text; bytes that do not decode are a
    DataError naming `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def write_ppm(path: str, image: np.ndarray) -> None:
    """Binary P6, 8 bits per channel."""
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(image.astype(np.uint8).tobytes())


class PpmRaster(NamedTuple):
    """Where a checked PPM file keeps its pixels: `shape` (H, W, 3) uint8
    bytes at `offset`."""
    path: str
    offset: int
    shape: tuple[int, int, int]


# the four header fields (magic, width, height, maxval), each after any
# whitespace (bytes.isspace's set) and `#` comments up to a newline
_PPM_HEADER = re.compile(rb"(?:\s+|#[^\n]*)*(\S*)" * 4)


def check_ppm(path: str) -> PpmRaster:
    """Check the header and size of the binary P6 PPM at `path`, with
    maxval 255, reading its header only (of any length): any other or
    malformed file, or one shorter than its raster, is a DataError naming
    `path`."""
    head = b""
    with open(path, "rb", buffering=0) as fh:
        while True:  # until a whitespace byte ends the maxval, or the file
            more = fh.read(max(len(head), 64))
            head += more
            header = _PPM_HEADER.match(head)
            if header.end() < len(head) or not more:
                break
        size = os.fstat(fh.fileno()).st_size
    magic, width, height, maxval = header.groups()
    if magic != b"P6" or maxval != b"255":
        raise DataError(f"unsupported PPM header in {path}")
    if not (width.isdigit() and height.isdigit()):
        raise DataError(f"PPM size {width!r} x {height!r} is not "
                        f"two numbers in {path}")
    w, h = int(width), int(height)
    if w < 1 or h < 1:
        raise DataError(f"empty {w} x {h} PPM image in {path}")
    offset = header.end() + 1  # single whitespace byte after maxval
    if size - offset < w * h * 3:
        raise DataError(f"PPM raster of {path} has {max(size - offset, 0)} "
                        f"bytes; a {w} x {h} image needs {w * h * 3}")
    return PpmRaster(path, offset, (h, w, 3))


def read_raster(raster: PpmRaster) -> np.ndarray:
    """The checked raster's read-only pixels, read with one pread at its
    offset; a file cut since its check is a DataError naming it."""
    n = raster.shape[0] * raster.shape[1] * 3
    fd = os.open(raster.path, os.O_RDONLY)
    try:
        data = os.pread(fd, n, raster.offset)
    finally:
        os.close(fd)
    if len(data) < n:
        raise DataError(f"PPM raster of {raster.path} has {len(data)} bytes "
                        f"since it was checked; its image needs {n}")
    return np.frombuffer(data, dtype=np.uint8).reshape(raster.shape)


def read_ppm(path: str) -> np.ndarray:
    """The read-only pixels of the binary P6 PPM at `path` (`check_ppm`)."""
    return read_raster(check_ppm(path))


def sample_pixels(sample: RawSample) -> np.ndarray:
    """A sample's (H, W, 3) uint8 pixels: the array it holds, or its
    ingested raster read from disk, which nothing keeps."""
    image = sample.image
    return image if isinstance(image, np.ndarray) else read_raster(image)


def write_dataset(path: str, samples: list[RawSample], image_dir: str) -> None:
    os.makedirs(image_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_HEADER) + "\n")
        for s in samples:
            captions = "|".join(s.captions)
            lab = s.labels
            fh.write(f"{s.id}\t{s.ocr_text}\t{captions}\t{lab.mis}\t"
                     f"{lab.shm}\t{lab.ste}\t{lab.obj}\t{lab.vio}\n")
            write_ppm(os.path.join(image_dir, f"{s.id}.ppm"), s.image)


def ingest(dataset_path: str, image_dir: str | None = None) -> list[RawSample]:
    """Parse and validate a dataset TSV; returns samples in id order.
    Images are checked in `image_dir`, if unset or empty in `images/`
    next to the TSV: each file's header and size (`check_ppm`), not its
    pixels. A sample holds where its raster is, for `sample_pixels`."""
    if not image_dir:
        image_dir = os.path.join(os.path.dirname(dataset_path), "images")
    samples = []
    seen = set()
    with open_text(dataset_path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != TSV_HEADER:
            raise DataError(f"{dataset_path}:1: bad or missing header {header}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(TSV_HEADER):
                raise DataError(f"{dataset_path}:{lineno}: expected "
                                f"{len(TSV_HEADER)} columns, got {len(parts)}")
            sid, ocr, captions = parts[0], parts[1], parts[2]
            if sid in seen:
                raise DataError(f"{dataset_path}:{lineno}: duplicate id {sid}")
            seen.add(sid)
            image_path = os.path.join(image_dir, f"{sid}.ppm")
            try:  # a DataError is a ValueError
                labels = LabelVector(*(int(v) for v in parts[3:8]))
                labels.validate()
                try:
                    image = check_ppm(image_path)
                except (OSError, ValueError) as exc:
                    if isinstance(exc, DataError) or \
                            os.path.exists(image_path):  # not missing
                        raise
                    raise DataError(f"missing image for sample {sid}: "
                                    f"{image_path}") from None
            except ValueError as exc:
                raise DataError(f"{dataset_path}:{lineno}: {exc}") from exc
            samples.append(RawSample(
                id=sid, ocr_text=ocr,
                captions=[c for c in captions.split("|") if c],
                image=image, labels=labels))
    samples.sort(key=lambda s: s.id)
    return samples


@dataclass
class RunConfig:
    """Every knob of the pipeline; round-trips through `key = value` files."""
    dataset: str = ""
    image_dir: str = ""
    out_dir: str = ""
    model: str = "gcan"
    setup: str = "B"
    folds: int = 10
    epochs: int = 50
    batch_size: int = 16
    fusion_batch_size: int = 32
    base_lr: float = 2e-5
    fusion_lr: float = 5e-6
    warmup_epochs: int = 4
    dropout: float = 0.5
    patience: int = 4
    seed: int = 0
    window_len: int = 10
    seq_len: int = 16
    resize: int = 36
    crop: int = 32
    patch: int = 8
    d_att: int = 32
    n_heads: int = 4
    n_layers: int = 3
    min_freq: int = 1
    max_vocab: int = 5000
    jobs: int = 1

    def validate(self) -> None:
        if self.model not in MODEL_MEMBERS:
            raise ValueError(f"unknown model {self.model!r}; choose from "
                             f"{sorted(MODEL_MEMBERS)}")
        if self.setup not in ("A", "B"):
            raise ValueError(f"setup must be A or B, got {self.setup!r}")
        for name in ("jobs", "batch_size", "fusion_batch_size", "d_att",
                     "n_layers", "window_len", "crop", "max_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        for name in ("base_lr", "fusion_lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be above 0, got "
                                 f"{getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.warmup_epochs < self.epochs:
            raise ValueError(f"warmup_epochs must be above 0 and below "
                             f"epochs {self.epochs}, got "
                             f"{self.warmup_epochs}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be at least 2 (CLS and one "
                             f"token), got {self.seq_len}")
        if self.crop > self.resize:
            raise ValueError(f"crop {self.crop} exceeds resize {self.resize}")
        if self.patch < 1 or self.crop % self.patch:
            raise ValueError(f"patch {self.patch} does not divide crop "
                             f"{self.crop}")
        if self.n_heads < 1 or self.d_att % self.n_heads:
            raise ValueError(f"n_heads {self.n_heads} does not divide d_att "
                             f"{self.d_att}")


def emit_config(config: RunConfig) -> str:
    lines = ["# memefuse run configuration"]
    for f in fields(config):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, cls=RunConfig, source: str = "config"):
    """Build a `cls` dataclass from `key = value` lines; `#` comments.

    Keys are the dataclass's field names and values convert to the
    field's type; any other line is a DataError naming its line, counted
    as a text file read with universal newlines counts them.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source} line {lineno}"
        if "=" not in line:
            raise DataError(f"{where}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise DataError(f"{where}: unknown key {key!r}")
        try:
            kwargs[key] = {"str": str, "int": int, "float": float}[
                types[key]](value)
        except ValueError as exc:
            raise DataError(f"{where}: {key}: {exc}") from exc
    return cls(**kwargs)


def load_config(path: str, cls=RunConfig):
    with open_text(path) as fh:
        return parse_config(fh.read(), cls, source=path)
