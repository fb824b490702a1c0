"""Deterministic text cleaning, tokenization, vocabulary, and image prep.

Turns raw dataset rows (OCR text + caption list + RGB image + labels) into
model-ready token-id sequences and standardized image tensors. Every
function here is a pure function of its inputs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAD_ID = 0
CLS_ID = 1
UNK_ID = 2
RESERVED_TOKENS = ("<pad>", "<cls>", "<unk>")

_KEPT_PUNCT = set(".,!?'")
_URL_PREFIXES = ("http://", "https://", "www.")
_TOKEN_RE = re.compile(r"[a-z0-9]+|[.,!?']")


class DataError(ValueError):
    """Malformed or invariant-violating input data."""


@dataclass
class LabelVector:
    mis: int
    shm: int
    ste: int
    obj: int
    vio: int

    def validate(self) -> None:
        vals = (self.mis, self.shm, self.ste, self.obj, self.vio)
        if any(v not in (0, 1) for v in vals):
            raise DataError(f"labels must be 0/1, got {vals}")
        if self.mis == 0 and any((self.shm, self.ste, self.obj, self.vio)):
            raise DataError(
                "invariant violated: mis=0 requires shm=ste=obj=vio=0")

    def sub_labels(self) -> np.ndarray:
        """The four sub-category labels [shm, ste, obj, vio]."""
        return np.array([self.shm, self.ste, self.obj, self.vio], dtype=float)


@dataclass
class RawSample:
    id: str
    ocr_text: str
    captions: list[str]
    image: np.ndarray  # (H, W, 3) uint8, or ingest's dataio.PpmRaster
    labels: LabelVector


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    n_W: int

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass
class TokenIdSequence:
    ids: np.ndarray  # int64, fixed length L_S
    true_length: int


def clean_text(raw: str) -> str:
    """Normalize raw meme text to a restricted lowercase-ASCII alphabet.

    Whitespace-delimited tokens that are web addresses (``http://``,
    ``https://``, ``www.`` prefixes) or user/tag mentions (leading ``@`` or
    ``#``) are dropped whole. Everything else is lowercased and filtered to
    letters, digits, spaces, and ``. , ! ? '``; remaining ``@``/``#`` and
    non-ASCII characters are removed, whitespace runs are collapsed.
    """
    kept_tokens = []
    for token in raw.split():
        low = token.lower()
        if low.startswith(_URL_PREFIXES) or low.startswith(("@", "#")):
            continue
        filtered = "".join(
            ch for ch in low
            if ch.isascii() and (ch.isalnum() or ch in _KEPT_PUNCT))
        # re-check: character filtering may expose a web-address prefix
        if not filtered or filtered.startswith(_URL_PREFIXES):
            continue
        kept_tokens.append(filtered)
    return " ".join(kept_tokens)


def combine_texts(ocr: str, captions: list[str]) -> str:
    """Merge cleaned OCR text with cleaned captions into one document."""
    if not captions:
        return ocr
    return ocr + ". " + " and ".join(captions) + "."


def tokenize(text: str) -> list[str]:
    """Whitespace split with punctuation broken out as separate tokens."""
    return _TOKEN_RE.findall(text)


def build_vocabulary(corpus: list[list[str]], min_freq: int = 1,
                     max_size: int | None = None) -> Vocabulary:
    """Frequency-ranked vocabulary with PAD/CLS/UNK reserved at ids 0/1/2.

    Ties in frequency are broken lexicographically so the result is a pure
    function of the corpus.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = Counter(tok for doc in corpus for tok in doc)
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    if max_size is not None:
        kept = kept[:max_size]
    id_to_token = list(RESERVED_TOKENS) + kept
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token,
                      n_W=len(kept))


def encode_document(tokens: list[str], vocab: Vocabulary,
                    seq_len: int) -> TokenIdSequence:
    """Fixed-length id sequence: [cls] first, then tokens, PAD-filled."""
    if seq_len < 2:
        raise ValueError(f"sequence length must be >= 2, got {seq_len}")
    body = [vocab.lookup(t) for t in tokens[: seq_len - 1]]
    ids = np.full(seq_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1: 1 + len(body)] = body
    return TokenIdSequence(ids=ids, true_length=1 + len(body))


@lru_cache(maxsize=256)
def _crop_coords(n_in: int, resize: int, crop: int):
    """Bilinear sampling coordinates, along an axis of `n_in` pixels, of
    the centered `crop` pixels of a resize to `resize`: each output
    pixel's lower and upper source pixel and the upper one's weight.

    Sample centers are aligned: the source coordinate of resized pixel i
    is (i + 0.5) * n_in/resize - 0.5, clamped to the valid range. With
    n_in == resize this is the identity. Cached: do not write to them.
    """
    start = (resize - crop) // 2
    src = (np.arange(start, start + crop) + 0.5) * (n_in / resize) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), src - lo


def normalize_image(image: np.ndarray, resize: int = 36,
                    crop: int = 32) -> np.ndarray:
    """Resize, center-crop, and standardize an 8-bit RGB image.

    Returns a (3, crop, crop) float64 tensor with zero mean and unit
    variance over all values, which the pipeline narrows into its float32
    image pool; a constant image is mapped to all zeros (variance-0
    fallback divides by 1). Only the crop window is interpolated, from
    the gathered pixels.
    """
    if image.ndim != 3 or image.shape[2] != 3 or min(image.shape[:2]) < 1:
        raise DataError(f"expected (H, W, 3) image, got shape {image.shape}")
    if crop > resize:
        raise ValueError(f"crop {crop} exceeds resize {resize}")
    ylo, yhi, yf = _crop_coords(image.shape[0], resize, crop)
    xlo, xhi, xf = _crop_coords(image.shape[1], resize, crop)
    yf, xf = yf[:, None, None], xf[None, :, None]

    def row_mix(ys):  # uint8 pixels, promoted to float64 by the weights
        rows = image[ys]
        return rows[:, xlo] * (1 - xf) + rows[:, xhi] * xf

    cropped = row_mix(ylo) * (1 - yf) + row_mix(yhi) * yf  # (crop, crop, 3)
    # the reductions run in the memory order of the HWC crop; a
    # channel-first copy would change their low bits
    tensor = np.transpose(cropped, (2, 0, 1)) / 255.0
    mean = tensor.mean()
    std = tensor.std()  # population std over all 3*C*C values
    if std == 0.0:
        std = 1.0
    return (tensor - mean) / std
