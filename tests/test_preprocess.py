"""Text cleaning, tokenization, vocabulary, encoding, image standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memefuse.preprocess import (CLS_ID, PAD_ID, RESERVED_TOKENS, UNK_ID,
                                 DataError, LabelVector, Vocabulary,
                                 build_vocabulary, clean_text, combine_texts,
                                 encode_document, normalize_image, tokenize)
from oracles import normalize_image_full_resize


# ---------------------------------------------------------------- clean_text

def test_clean_text_lowercases():
    assert clean_text("Make ME a sandwich!!") == "make me a sandwich!!"


def test_clean_text_drops_urls_and_mentions():
    assert clean_text("see www.example.com @user #tag") == "see"
    assert clean_text("go http://a.b now") == "go now"
    assert clean_text("go https://a.b now") == "go now"


def test_clean_text_drops_non_ascii():
    assert clean_text("à¶´abc") == "abc"


def test_clean_text_collapses_whitespace():
    assert clean_text("a   b\t c") == "a b c"


def test_clean_text_keeps_allowed_punctuation():
    assert clean_text("hey! what's up, ok?") == "hey! what's up, ok?"


def test_clean_text_empty():
    assert clean_text("") == ""
    assert clean_text("@only #mentions www.x.y") == ""


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_clean_text_idempotent(raw):
    once = clean_text(raw)
    assert clean_text(once) == once


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_clean_text_alphabet(raw):
    allowed = set("abcdefghijklmnopqrstuvwxyz0123456789 .,!?'")
    assert set(clean_text(raw)) <= allowed


# ------------------------------------------------------------- combine_texts

def test_combine_empty_captions_returns_ocr_verbatim():
    assert combine_texts("a", []) == "a"


def test_combine_two_captions():
    assert combine_texts("x", ["c1", "c2"]) == "x. c1 and c2."


def test_combine_worked_example():
    ocr = ("when jorge masvidal tells you to make me sandwich!! "
           "you make me sandwich!!")
    captions = ["a couple of baseball players standing next to each other",
                "a woman holding a sign in front of a sign",
                "a woman standing next to a group of people"]
    out = combine_texts(ocr, captions)
    assert out.endswith(
        "make me sandwich!!. a couple of baseball players standing next to "
        "each other and a woman holding a sign in front of a sign and a "
        "woman standing next to a group of people.")


@given(st.text(alphabet="abc !?", max_size=20),
       st.lists(st.text(alphabet="abc ", min_size=1, max_size=10),
                max_size=3))
@settings(max_examples=100, deadline=None)
def test_combine_single_separator(ocr, captions):
    # one ". " separator between the streams, one trailing period; no
    # doubled separators as long as the ocr side does not end in "."
    out = combine_texts(ocr, captions)
    if not captions:
        assert out == ocr
    else:
        assert out == ocr + ". " + " and ".join(captions) + "."
        assert ".." not in out


# ------------------------------------------------------------------ tokenize

def test_tokenize_splits_punctuation():
    assert tokenize("make me a sandwich!!") == \
        ["make", "me", "a", "sandwich", "!", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_inner_punctuation():
    assert tokenize("a.b") == ["a", ".", "b"]


# ---------------------------------------------------------------- vocabulary

def test_vocabulary_order_and_reserved_ids():
    vocab = build_vocabulary([["a", "b"], ["a"]])
    assert vocab.id_to_token == list(RESERVED_TOKENS) + ["a", "b"]
    assert vocab.n_W == 2
    assert (vocab.token_to_id["<pad>"], vocab.token_to_id["<cls>"],
            vocab.token_to_id["<unk>"]) == (PAD_ID, CLS_ID, UNK_ID)


def test_vocabulary_min_freq():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_freq=2)
    assert vocab.n_W == 1
    assert vocab.lookup("b") == UNK_ID


def test_vocabulary_empty_document_ok():
    assert build_vocabulary([[]]).n_W == 0


def test_vocabulary_empty_corpus_error():
    with pytest.raises(DataError):
        build_vocabulary([])


def test_vocabulary_max_size_truncates_by_rank():
    corpus = [["a"] * 3 + ["b"] * 2 + ["c"]]
    vocab = build_vocabulary(corpus, max_size=2)
    assert vocab.id_to_token[3:] == ["a", "b"]


def test_vocabulary_ties_lexicographic():
    vocab = build_vocabulary([["z", "a"]])
    assert vocab.id_to_token[3:] == ["a", "z"]


@given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=6),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_vocabulary_deterministic_and_bijective(corpus):
    v1 = build_vocabulary(corpus)
    v2 = build_vocabulary(corpus)
    assert v1.token_to_id == v2.token_to_id
    # bijective over non-reserved ids
    for i, tok in enumerate(v1.id_to_token):
        assert v1.token_to_id[tok] == i


# ----------------------------------------------------------- encode_document

def test_encode_basic():
    vocab = build_vocabulary([["a"]])
    seq = encode_document(["a"], vocab, 4)
    assert seq.ids.tolist() == [CLS_ID, vocab.lookup("a"), PAD_ID, PAD_ID]
    assert seq.true_length == 2


def test_encode_empty():
    vocab = build_vocabulary([["a"]])
    seq = encode_document([], vocab, 4)
    assert seq.ids.tolist() == [CLS_ID, PAD_ID, PAD_ID, PAD_ID]
    assert seq.true_length == 1


def test_encode_truncation():
    vocab = build_vocabulary([[f"t{i}" for i in range(10)]])
    seq = encode_document([f"t{i}" for i in range(10)], vocab, 4)
    assert seq.ids[0] == CLS_ID
    assert seq.true_length == 4
    assert seq.ids.tolist()[1:] == [vocab.lookup(f"t{i}") for i in range(3)]


def test_encode_short_seq_len_error():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(ValueError):
        encode_document(["a"], vocab, 1)


@given(st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=10),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(tokens, seq_len):
    vocab = build_vocabulary([["a", "b", "c"]])
    seq = encode_document(tokens, vocab, seq_len)
    assert seq.ids[0] == CLS_ID
    assert np.all(seq.ids[seq.true_length:] == PAD_ID)
    decoded = [vocab.id_to_token[i] for i in seq.ids[1:seq.true_length]]
    expected = [t if t in vocab.token_to_id else "<unk>"
                for t in tokens[:seq_len - 1]]
    assert decoded == expected


# ------------------------------------------------------------- label vectors

def test_label_invariant():
    with pytest.raises(DataError):
        LabelVector(0, 1, 0, 0, 0).validate()
    LabelVector(1, 1, 0, 0, 0).validate()
    LabelVector(0, 0, 0, 0, 0).validate()
    with pytest.raises(DataError):
        LabelVector(2, 0, 0, 0, 0).validate()


# ------------------------------------------------------------ image pipeline

def test_normalize_constant_image_is_zero():
    img = np.full((40, 40, 3), 128, dtype=np.uint8)
    out = normalize_image(img, resize=36, crop=32)
    assert out.shape == (3, 32, 32)
    assert np.all(out == 0.0)


def test_normalize_two_by_two_plus_minus_one():
    # values {0, 255} per channel -> exactly +-1 after standardization
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 1] = 255
    img[1, 1] = 255
    out = normalize_image(img, resize=2, crop=2)
    assert np.allclose(np.sort(np.unique(out)), [-1.0, 1.0])


def test_normalize_statistics_random_images():
    gen = np.random.default_rng(3)
    for _ in range(10):
        img = gen.integers(0, 256, size=(48, 40, 3)).astype(np.uint8)
        out = normalize_image(img, resize=36, crop=32)
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-5


def test_normalize_identity_resize():
    # with in == out the bilinear kernel is the identity
    gen = np.random.default_rng(4)
    img = gen.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
    out = normalize_image(img, resize=8, crop=8)
    ref = np.transpose(img, (2, 0, 1)) / 255.0
    ref = (ref - ref.mean()) / ref.std()
    assert np.allclose(out, ref, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(height=st.integers(1, 90), width=st.integers(1, 90),
       sizes=st.sampled_from([(36, 32), (12, 8), (8, 8), (2, 2), (2, 1),
                              (48, 40), (33, 7), (90, 90), (17, 16)]),
       constant=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_normalize_equals_full_resize_reference(height, width, sizes,
                                                constant, seed):
    # interpolating only the crop window changes no bit of the result
    gen = np.random.default_rng(seed)
    img = gen.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    if constant:
        img[:] = img[0, 0]
    resize, crop = sizes
    out = normalize_image(img, resize, crop)
    assert out.shape == (3, crop, crop) and out.dtype == np.float64
    assert np.array_equal(out, normalize_image_full_resize(img, resize, crop))


def test_normalize_rejects_bad_shapes():
    with pytest.raises(DataError):
        normalize_image(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        normalize_image(np.zeros((4, 4, 3), dtype=np.uint8),
                        resize=8, crop=16)
