import numpy as np
import pytest

from memefuse.preprocess import LabelVector, RawSample


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_sample(sid, ocr, captions, labels, image=None, side=8,
                seed=0) -> RawSample:
    if image is None:
        image = np.random.default_rng(seed).integers(
            0, 256, size=(side, side, 3), dtype=np.int64).astype(np.uint8)
    return RawSample(id=sid, ocr_text=ocr, captions=captions, image=image,
                     labels=LabelVector(*labels))


def tape_nodes(loss):
    """Distinct tensors reachable from `loss` through the tape."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)
