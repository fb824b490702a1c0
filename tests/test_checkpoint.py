"""Checkpoint file round-trips, hashing, averaging."""

import os

import numpy as np
import pytest

from memefuse.autodiff import Tensor
from memefuse.checkpoint import (MAGIC, average_checkpoints, file_hash,
                                 load_checkpoint, save_checkpoint)
from memefuse.training import AdamW, restore


def test_roundtrip(tmp_path):
    params = {"w": np.arange(6.0).reshape(2, 3),
              "b": np.array(1.5),
              "t": np.ones((2, 2))}
    meta = {"model": "gcan", "fold": "3"}
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, params, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert set(loaded) == {"w", "b", "t"}
    assert np.array_equal(loaded["w"], params["w"])
    assert loaded["b"].shape == ()
    assert float(loaded["b"]) == 1.5
    assert np.array_equal(loaded["t"], np.ones((2, 2)))
    with open(path, "rb") as fh:
        assert fh.readline().rstrip(b"\n") == MAGIC


def test_float32_parameters_widen_and_restore_exactly(tmp_path):
    # float32 values are saved as <f8, and restore narrows them back to
    # the same bits in the optimizer's float32 views
    rng = np.random.default_rng(3)
    trained = {"w": rng.standard_normal((3, 4)).astype(np.float32),
               "b": np.float32([1e-30, -0.0, 3.4e38])}
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, trained)
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(MAGIC + b"\n0 2\nb\t3\nw\t3,4\n")
    assert data.endswith(trained["b"].astype("<f8").tobytes()
                         + trained["w"].astype("<f8").tobytes())
    loaded, _ = load_checkpoint(path)
    params = {k: Tensor(np.zeros_like(v)) for k, v in trained.items()}
    AdamW(params)  # the parameters' data become float32 buffer views
    restore(params, loaded)
    for k, v in trained.items():
        assert params[k].data.dtype == np.float32
        assert params[k].data.tobytes() == v.tobytes()


def test_deterministic_bytes(tmp_path):
    params = {"b": np.zeros(3), "a": np.ones(2)}
    p1 = os.path.join(tmp_path, "a.ckpt")
    p2 = os.path.join(tmp_path, "b.ckpt")
    save_checkpoint(p1, params, {"k": "v"})
    save_checkpoint(p2, dict(reversed(params.items())), {"k": "v"})
    assert file_hash(p1) == file_hash(p2)


def test_rejects_non_checkpoint(tmp_path):
    path = os.path.join(tmp_path, "x")
    with open(path, "wb") as fh:
        fh.write(b"nope\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_average_identity_and_mean():
    c = {"w": np.array([1.0, 3.0])}
    assert np.array_equal(average_checkpoints(c, c)["w"], c["w"])
    other = {"w": np.array([3.0, 1.0])}
    assert np.array_equal(average_checkpoints(c, other)["w"], [2.0, 2.0])


def test_average_scalars():
    avg = average_checkpoints({"s": np.array(1.0)}, {"s": np.array(3.0)})
    assert float(avg["s"]) == 2.0


def test_average_manifest_mismatch():
    with pytest.raises(ValueError):
        average_checkpoints({"a": np.zeros(2)}, {"b": np.zeros(2)})
    with pytest.raises(ValueError):
        average_checkpoints({"a": np.zeros(2)}, {"a": np.zeros(3)})


def _saved_bytes(tmp_path):
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)}, {"k": "v"})
    with open(path, "rb") as fh:
        return path, fh.read()


@pytest.mark.parametrize("cut, cause", [
    (lambda data: data[:data.index(b"w\t")], "header"),
    (lambda data: data[:-5], "ends inside parameter w"),
    (lambda data: data + b"\0", "trailing bytes")],
    ids=["cut-header", "short-data", "trailing-bytes"])
def test_rejects_cut_or_padded_file(tmp_path, cut, cause):
    path, data = _saved_bytes(tmp_path)
    with open(path, "wb") as fh:
        fh.write(cut(data))
    with pytest.raises(ValueError, match=cause) as info:
        load_checkpoint(path)
    assert path in str(info.value)
