"""Synthetic meme dataset with complementary text and image label signals.

Each of the four sub-category labels fires only when its trigger keyword
appears in the text AND its color motif appears in the image, so either
modality alone carries partial information while both together determine
the labels exactly. This makes the generated corpus a controlled
testbed for the claim that bi-modal fusion beats uni-modal models.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import dataio
from .preprocess import LabelVector, RawSample

KEYWORDS = ("shamecue", "stereocue", "objectcue", "violencecue")

# bright quadrant fill per class: top-left red, top-right green,
# bottom-left blue, bottom-right yellow
MOTIF_COLORS = ((220, 40, 40), (40, 220, 40), (40, 40, 220), (220, 220, 40))

FILLER = ("the a this that meme when you me we they look just really so "
          "very funny day time good new old now here there says said who "
          "what about with from over under").split()

CAPTION_TEMPLATES = (
    "a person standing in a room",
    "a group of people outside",
    "a picture with text on it",
    "two people next to each other",
    "",
)


@dataclass
class SynthSpec:
    n_train: int = 1000
    n_test: int = 200
    seed: int = 0
    keyword_prob: float = 0.5    # per class, text trigger present
    motif_prob: float = 0.5      # per class, image motif present
    image_side: int = 48
    n_filler: int = 6

    def validate(self) -> None:
        for name, low in (("n_train", 1), ("n_test", 1), ("seed", 0),
                          ("n_filler", 0), ("image_side", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got "
                                 f"{getattr(self, name)}")
        for name in ("keyword_prob", "motif_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got "
                                 f"{getattr(self, name)}")


def _make_image(rng: np.random.Generator, spec: SynthSpec,
                motifs: np.ndarray) -> np.ndarray:
    side = spec.image_side
    img = rng.integers(0, 60, size=(side, side, 3), dtype=np.int64)
    half = side // 2
    quads = ((0, 0), (0, half), (half, 0), (half, half))
    for c in range(4):
        if motifs[c]:
            (r0, c0) = quads[c]
            color = np.array(MOTIF_COLORS[c])
            jitter = rng.integers(-20, 21, size=(half, half, 3))
            img[r0:r0 + half, c0:c0 + half] = np.clip(
                color + jitter, 0, 255)
    return img.astype(np.uint8)


def _make_text(rng: np.random.Generator, spec: SynthSpec,
               triggers: np.ndarray) -> str:
    words = list(rng.choice(FILLER, size=spec.n_filler))
    for c in range(4):
        if triggers[c]:
            words.append(KEYWORDS[c])
    rng.shuffle(words)
    return " ".join(words)


def generate(spec: SynthSpec) -> tuple[list[RawSample], list[RawSample]]:
    """Train and test sample lists, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    splits = []
    for split, count in (("train", spec.n_train), ("test", spec.n_test)):
        samples = []
        for i in range(count):
            triggers = rng.random(4) < spec.keyword_prob
            motifs = rng.random(4) < spec.motif_prob
            sub = (triggers & motifs).astype(int)
            labels = LabelVector(mis=int(sub.max()), shm=sub[0], ste=sub[1],
                                 obj=sub[2], vio=sub[3])
            caption = CAPTION_TEMPLATES[rng.integers(len(CAPTION_TEMPLATES))]
            samples.append(RawSample(
                id=f"{split}{i:05d}",
                ocr_text=_make_text(rng, spec, triggers),
                captions=[caption] if caption else [],
                image=_make_image(rng, spec, motifs),
                labels=labels))
        splits.append(samples)
    return splits[0], splits[1]


def gen_synth(spec: SynthSpec, out_dir: str) -> tuple[str, str]:
    """Write train.tsv, test.tsv, and the shared images directory."""
    os.makedirs(out_dir, exist_ok=True)
    image_dir = os.path.join(out_dir, "images")
    train, test = generate(spec)
    train_path = os.path.join(out_dir, "train.tsv")
    test_path = os.path.join(out_dir, "test.tsv")
    dataio.write_dataset(train_path, train, image_dir)
    dataio.write_dataset(test_path, test, image_dir)
    return train_path, test_path


def bayes_accuracies(spec: SynthSpec) -> tuple[float, float, float]:
    """Bayes-optimal binary-task accuracy per modality, by enumeration.

    Enumerates the joint distribution of the 8 trigger/motif bits of the
    generator rule table. With one modality observed the other is
    marginalized; with both, the label is deterministic (accuracy 1).
    """
    pt, pv = spec.keyword_prob, spec.motif_prob

    def side_accuracy(p_seen: float, p_hidden: float) -> float:
        total = 0.0
        for seen in itertools.product((0, 1), repeat=4):
            prob_seen = np.prod([p_seen if s else 1 - p_seen for s in seen])
            # P(no class fires | seen bits): every seen trigger must miss
            # its hidden counterpart
            p_y0 = np.prod([(1 - p_hidden) if s else 1.0 for s in seen])
            total += prob_seen * max(p_y0, 1 - p_y0)
        return float(total)

    return side_accuracy(pt, pv), side_accuracy(pv, pt), 1.0
