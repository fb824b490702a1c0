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


def _samples(rng: np.random.Generator, spec: SynthSpec, split: str, n: int):
    """`n` samples of `split`, each drawn from `rng` as it is read."""
    for i in range(n):
        triggers = rng.random(4) < spec.keyword_prob
        motifs = rng.random(4) < spec.motif_prob
        sub = (triggers & motifs).astype(int)
        caption = CAPTION_TEMPLATES[rng.integers(len(CAPTION_TEMPLATES))]
        yield RawSample(id=f"{split}{i:05d}",
                        ocr_text=_make_text(rng, spec, triggers),
                        captions=[caption] if caption else [],
                        image=_make_image(rng, spec, motifs),
                        labels=LabelVector(int(sub.max()), *sub))


def _draw(spec: SynthSpec):
    """The train and the test samples of one RNG; read the train first."""
    rng = np.random.default_rng(spec.seed)
    return (_samples(rng, spec, "train", spec.n_train),
            _samples(rng, spec, "test", spec.n_test))


def generate(spec: SynthSpec) -> tuple[list[RawSample], list[RawSample]]:
    """Train and test sample lists, deterministic per seed."""
    return tuple(map(list, _draw(spec)))


def gen_synth(spec: SynthSpec, out_dir: str) -> tuple[str, str]:
    """Write train.tsv, test.tsv and images/, each sample as it is drawn."""
    paths = tuple(os.path.join(out_dir, f"{s}.tsv") for s in ("train", "test"))
    for path, samples in zip(paths, _draw(spec)):
        dataio.write_dataset(path, samples, os.path.join(out_dir, "images"))
    return paths


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
