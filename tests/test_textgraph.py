"""Window statistics, PMI/TF-IDF, adjacency assembly, block extraction."""

import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memefuse import textgraph
from memefuse.preprocess import build_vocabulary, encode_document
from memefuse.textgraph import (NEG_INF, Csr, WindowStats,
                                build_adjacency, count_windows,
                                extract_document_adjacency,
                                extract_unseen_adjacency, pmi, tfidf)
from oracles import (count_windows_loop, dense_graph, document_block,
                     extracted, graph_loop, unseen_block)

token_lists = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
             min_size=0, max_size=12),
    min_size=1, max_size=8)


def make_graph(corpus_tokens, window_len=3, min_freq=1):
    vocab = build_vocabulary(corpus_tokens, min_freq=min_freq)
    id_corpus = [[vocab.lookup(t) for t in doc] for doc in corpus_tokens]
    stats = count_windows(id_corpus, window_len)
    return vocab, id_corpus, stats, build_adjacency(id_corpus, stats, vocab)


def batch(seqs):
    """(ids, true lengths) of a list of TokenIdSequence."""
    return (np.stack([seq.ids for seq in seqs]),
            np.array([seq.true_length for seq in seqs]))


def doc_blocks(graph, seqs):
    return extracted(extract_document_adjacency, graph, *batch(seqs))


def unseen_blocks(graph, seqs, doc_ids):
    return extracted(extract_unseen_adjacency, graph, *batch(seqs), doc_ids)


def traced_peak(fn, *args):
    """tracemalloc's peak over `fn(*args)`, called once before to warm it
    up (lazy imports and caches are no part of the call)."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -------------------------------------------------------------- window stats

def test_count_windows_hand_case():
    stats = count_windows([[10, 11, 12]], 2)
    assert stats.total == 2
    assert stats.per_token[10] == 1
    assert stats.per_token[11] == 2
    assert stats.per_pair[(10, 11)] == 1


def test_count_windows_short_document():
    stats = count_windows([[10]], 10)
    assert stats.total == 1
    assert stats.per_token[10] == 1


def test_count_windows_two_documents():
    stats = count_windows([[10, 11], [10, 11]], 2)
    assert stats.total == 2
    assert stats.per_pair[(10, 11)] == 2


def test_count_windows_membership_not_occurrences():
    # the repeated token counts each window once
    stats = count_windows([[10, 10, 10]], 3)
    assert stats.total == 1
    assert stats.per_token[10] == 1


def test_count_windows_rejects_bad_length():
    with pytest.raises(ValueError):
        count_windows([[1]], 0)


def assert_counts_equal(stats, per_token, per_pair):
    """`stats` holds the loop's counts as Python ints, each counter keyed
    in ascending order."""
    for got, want in ((stats.per_token, per_token),
                      (stats.per_pair, per_pair)):
        assert list(got.items()) == sorted(want.items())
        assert all(type(n) is int for n in got.values())


@given(token_lists, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_count_windows_matches_pair_loop_in_order(corpus_tokens, window_len,
                                                  chunk):
    # windows counted 1-3 at a time must merge into the same counts as
    # windows counted all at once, both in ascending key order
    vocab = build_vocabulary(corpus_tokens)
    ids = [[vocab.lookup(t) for t in doc] for doc in corpus_tokens]
    per_token, per_pair = count_windows_loop(ids, window_len)
    whole = count_windows(ids, window_len)
    with mock.patch.object(textgraph, "_WINDOW_CHUNK", chunk):
        chunked = count_windows(ids, window_len)
    for stats in (whole, chunked):
        assert_counts_equal(stats, per_token, per_pair)
    assert chunked.total == whole.total


def test_count_windows_memory_is_bounded_by_its_chunk():
    # 1,237 windows of 10 over 200 documents, then the corpus repeated 8
    # times: 8 times the windows and the same distinct pairs. Counting it
    # may take more memory for its token ids, but not for 8 times the
    # (window, slot pair) arrays
    gen = np.random.default_rng(5)
    corpus = [(3 + gen.zipf(1.5, size=n) % 300).tolist()
              for n in gen.integers(5, 25, size=200)]
    once = traced_peak(count_windows, corpus, 10)
    assert traced_peak(count_windows, corpus * 8, 10) <= 2 * once


def assert_same_entries(got, want):
    """A `Csr` holds a SciPy CSR matrix's values in its order, at the
    row-major keys of its (row, column) pairs."""
    rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
    keys = rows * want.shape[1] + want.indices
    assert got.shape == want.shape
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    assert got.keys.tobytes() == keys.astype(np.int64).tobytes()


@given(token_lists, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=2))
@settings(max_examples=150, deadline=None)
def test_graph_equals_loop_reference_bitwise(corpus_tokens, window_len,
                                             min_freq):
    vocab, ids, stats, graph = make_graph(corpus_tokens, window_len, min_freq)
    per_token, per_pair = count_windows_loop(ids, window_len)
    raw, normalized, degree, idf = graph_loop(ids, per_token, per_pair,
                                              stats.total, vocab.n_W)
    for got, want in ((graph.raw, raw), (graph.normalized, normalized)):
        assert_same_entries(got, want)
    assert graph.degree.tobytes() == degree.tobytes()
    assert graph.idf.tobytes() == idf.tobytes()


@given(token_lists, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=2), st.randoms())
@settings(max_examples=100, deadline=None)
def test_graph_bytes_do_not_depend_on_count_order(corpus_tokens, window_len,
                                                  min_freq, random):
    # the graph's entries and degree sums follow the keys of the pairs,
    # not the order the counters list them in
    vocab, ids, stats, graph = make_graph(corpus_tokens, window_len, min_freq)
    shuffled = []
    for counter in (stats.per_token, stats.per_pair):
        items = list(counter.items())
        random.shuffle(items)
        shuffled.append(Counter(dict(items)))
    other = build_adjacency(ids, WindowStats(stats.total, *shuffled,
                                             window_len), vocab)
    for got, want in ((other.raw, graph.raw),
                      (other.normalized, graph.normalized)):
        assert got.data.tobytes() == want.data.tobytes()
        assert got.keys.tobytes() == want.keys.tobytes()
    assert other.degree.tobytes() == graph.degree.tobytes()
    assert other.idf.tobytes() == graph.idf.tobytes()


@pytest.mark.parametrize("offset", [0, 50_000, 2 ** 31])
def test_count_windows_wide_ids_match_pair_loop(offset):
    # ids past 46,338 need 64-bit pair keys, and ids past 2**31 - 2 64-bit
    # window slots; counted at once and 2 windows at a time
    gen = np.random.default_rng(offset % 97)
    ids = [(gen.integers(3, 12, size=n) + np.where(
        gen.random(n) < 0.5, offset, 0)).tolist() for n in (9, 1, 14, 4)]
    per_token, per_pair = count_windows_loop(ids, 4)
    for chunk in (textgraph._WINDOW_CHUNK, 2):
        with mock.patch.object(textgraph, "_WINDOW_CHUNK", chunk):
            stats = count_windows(ids, 4)
        assert_counts_equal(stats, per_token, per_pair)


@given(token_lists, st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_count_windows_invariants(corpus_tokens, window_len):
    vocab = build_vocabulary(corpus_tokens)
    ids = [[vocab.lookup(t) for t in doc] for doc in corpus_tokens]
    stats = count_windows(ids, window_len)
    assert stats.total == sum(max(1, len(d) - window_len + 1) for d in ids)
    for (i, j), n_ij in stats.per_pair.items():
        assert i < j
        assert n_ij <= min(stats.per_token[i], stats.per_token[j])
    for t, n_i in stats.per_token.items():
        assert n_i <= stats.total


# ----------------------------------------------------------------- pmi/tfidf

def test_pmi_ln2_case():
    stats = WindowStats(total=8, per_token=Counter({1: 2, 2: 4}),
                        per_pair=Counter({(1, 2): 2}), window_len=3)
    assert abs(pmi(stats, 1, 2) - math.log(2)) < 1e-12


def test_pmi_independence_is_zero():
    stats = WindowStats(total=8, per_token=Counter({1: 2, 2: 4}),
                        per_pair=Counter({(1, 2): 1}), window_len=3)
    assert abs(pmi(stats, 1, 2)) < 1e-12


def test_pmi_sentinel_on_no_cooccurrence():
    stats = WindowStats(total=4, per_token=Counter({1: 2, 2: 1}),
                        per_pair=Counter(), window_len=3)
    assert pmi(stats, 1, 2) == NEG_INF
    assert pmi(stats, 1, 99) == NEG_INF  # unknown token: zero-count path


def test_tfidf_two_docs():
    corpus = [[5, 5, 6], [6]]
    assert abs(tfidf(corpus, 0, 5) - 2 * math.log(2)) < 1e-12
    assert tfidf(corpus, 0, 6) == 0.0  # in every document
    assert tfidf(corpus, 1, 5) == 0.0  # absent from the document
    assert tfidf(corpus, 0, 99) == 0.0  # df = 0


# ---------------------------------------------------------------- adjacency

def test_single_doc_identity_graph():
    vocab, _, _, graph = make_graph([["a"]], window_len=3)
    dense = graph.raw.toarray()
    assert np.allclose(dense, np.eye(2))  # tfidf = ln 1 = 0
    assert np.allclose(graph.normalized.toarray(), np.eye(2))


def test_normalization_closed_form():
    from memefuse.textgraph import _normalize
    raw = Csr.from_coords(np.ones(4), [0, 0, 1, 1], [0, 1, 0, 1], (2, 2))
    norm = _normalize(raw, np.array([2.0, 2.0])).toarray()
    assert np.allclose(norm, 0.5)


@st.composite
def sparse_coords(draw):
    """(values, rows, cols, shape): distinct coordinates in any order."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    flat = draw(st.lists(st.integers(0, shape[0] * shape[1] - 1),
                         unique=True, max_size=shape[0] * shape[1]))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(flat), max_size=len(flat)))
    rows, cols = np.divmod(np.array(flat, dtype=np.int64), shape[1])
    return np.array(values, dtype=np.float64), rows, cols, shape


@given(sparse_coords())
@settings(max_examples=200, deadline=None)
def test_csr_equals_scipy_bitwise(coords):
    # SciPy is the oracle only: the entries in order, the row sums, every
    # element gathered (absent ones included) and the dense form
    sp = pytest.importorskip("scipy.sparse")
    values, rows, cols, shape = coords
    got = Csr.from_coords(values, rows, cols, shape)
    want = sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()
    assert_same_entries(got, want)
    with np.errstate(over="ignore", invalid="ignore"):  # huge values
        sums = got.row_sums(), np.asarray(want.sum(axis=1)).ravel()
    assert sums[0].tobytes() == sums[1].tobytes()
    r = np.repeat(np.arange(shape[0]), shape[1])
    c = np.tile(np.arange(shape[1]), shape[0])
    assert got[r, c].tobytes() == np.asarray(want[r, c]).ravel().tobytes()
    assert got.toarray().tobytes() == want.toarray().tobytes()
    assert got[shape[0] - 1, 0] == want[shape[0] - 1, 0]


def test_csr_refuses_duplicate_entries():
    with pytest.raises(ValueError, match="duplicate"):
        Csr.from_coords([1.0, 2.0], [0, 0], [1, 1], (2, 2))


def test_adjacency_structure():
    corpus = [["a", "b", "a"], ["b", "c"], ["c", "a", "c"]]
    vocab, ids, stats, graph = make_graph(corpus, window_len=2)
    dense = graph.raw.toarray()
    n_d = graph.n_D
    assert np.array_equal(dense, dense.T)
    assert np.allclose(np.diag(dense), 1.0)
    # word-word block strictly positive off the diagonal where present
    ww = dense[n_d:, n_d:] - np.eye(graph.n_W)
    assert np.all(ww[ww != 0] > 0)
    # no document-document edges
    dd = dense[:n_d, :n_d] - np.eye(n_d)
    assert np.all(dd == 0)


@given(token_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_adjacency_matches_dense_oracle(corpus_tokens, window_len):
    vocab, ids, stats, graph = make_graph(corpus_tokens, window_len)
    a_ref, norm_ref = dense_graph(ids, window_len, vocab.n_W)
    assert np.max(np.abs(graph.raw.toarray() - a_ref)) < 1e-12
    assert np.max(np.abs(graph.normalized.toarray() - norm_ref)) < 1e-12


def test_adjacency_bitwise_symmetric():
    corpus = [["a", "b", "c", "a"], ["b", "d"], ["d", "a", "c"]]
    _, _, _, graph = make_graph(corpus, window_len=2)
    for mat in (graph.raw, graph.normalized):
        dense = mat.toarray()
        assert np.array_equal(dense, dense.T)  # exact, not approximate


def test_normalized_entries_in_unit_interval():
    corpus = [["a", "b"], ["b", "c"], ["a", "c"]]
    _, _, _, graph = make_graph(corpus, window_len=2)
    data = graph.normalized.toarray()
    nz = data[data != 0]
    assert np.all(nz > 0) and np.all(nz <= 1.0)


# ----------------------------------------------------------- block extraction

def test_extract_pad_only_sequence():
    vocab, _, _, graph = make_graph([["a", "b"]], window_len=2)
    seq = encode_document([], vocab, 3)
    m = doc_blocks(graph, [seq])[0]
    expected = np.eye(3)
    expected[0, 0] = graph.normalized[0, 0]
    assert np.allclose(m, expected)


def test_extract_repeated_token_identical_rows():
    vocab, _, _, graph = make_graph([["a", "b", "a"]], window_len=2)
    seq = encode_document(["a", "b", "a"], vocab, 4)
    m = doc_blocks(graph, [seq])[0]
    assert np.array_equal(m[1], m[3])
    assert np.array_equal(m[:, 1], m[:, 3])


def test_extract_matches_dense_submatrix():
    corpus = [["a", "b", "c"], ["b", "c", "d"]]
    vocab, ids, stats, graph = make_graph(corpus, window_len=2)
    a_ref, norm_ref = dense_graph(ids, 2, vocab.n_W)
    seqs = [encode_document(tokens, vocab, len(tokens) + 1)
            for tokens in corpus]
    blocks = doc_blocks(graph, seqs)
    for doc, tokens in enumerate(corpus):
        nodes = [doc] + [graph.n_D + vocab.lookup(t) - 3 for t in tokens]
        ref = norm_ref[np.ix_(nodes, nodes)]
        assert np.max(np.abs(blocks[doc] - ref)) < 1e-12


def test_extract_symmetry_and_pad_rows():
    corpus = [["a", "b"], ["b", "c", "c"]]
    vocab, _, _, graph = make_graph(corpus, window_len=2)
    seqs = [encode_document(["a", "zz"], vocab, 5),  # zz is out of vocabulary
            encode_document(corpus[1], vocab, 5)]
    m = doc_blocks(graph, seqs)[0]
    assert np.array_equal(m, m.T)
    # UNK position 2 and PAD positions 3, 4: unit self-loop only
    for p in (2, 3, 4):
        row = m[p].copy()
        row[p] = 0.0
        assert np.all(row == 0) and m[p, p] == 1.0


def test_extract_refuses_batch_that_is_not_the_graph_documents():
    vocab, _, _, graph = make_graph([["a"]])
    seq = encode_document(["a"], vocab, 3)
    for seqs in ([seq, seq], []):
        ids = np.zeros((len(seqs), 3), dtype=np.int64)
        with pytest.raises(ValueError, match="graph of 1"):
            extract_document_adjacency(graph, ids, np.ones(len(seqs)),
                                       np.empty((len(seqs), 3, 3)),
                                       np.arange(len(seqs)))


def test_extract_commutes_with_vocab_permutation():
    # same corpus presented with different token spellings so that the
    # frequency-ranked ids come out permuted; extracted blocks must agree
    corpus_a = [["aa", "b", "aa", "c"], ["b", "c", "c"]]
    rename = {"aa": "zz", "b": "mm", "c": "aa"}
    corpus_b = [[rename[t] for t in doc] for doc in corpus_a]
    va, _, _, ga = make_graph(corpus_a, window_len=2)
    vb, _, _, gb = make_graph(corpus_b, window_len=2)
    ma = doc_blocks(ga, [encode_document(doc, va, 6) for doc in corpus_a])
    mb = doc_blocks(gb, [encode_document(doc, vb, 6) for doc in corpus_b])
    assert np.max(np.abs(ma - mb)) < 1e-12


def test_extract_unseen_document():
    corpus = [["a", "b"], ["b", "c"], ["a", "c", "c"]]
    vocab, ids, _, graph = make_graph(corpus, window_len=2)
    tokens = ["a", "c", "q"]
    doc_ids = [vocab.lookup(t) for t in tokens]
    seq = encode_document(tokens, vocab, 5)
    m = unseen_blocks(graph, [seq], [doc_ids])[0]
    assert np.array_equal(m, m.T)
    # document row from the stated pseudo-degree formula
    row = {t: doc_ids.count(t) * graph.idf[t - 3]
           for t in set(doc_ids) if t >= 3}
    pseudo = 1.0 + sum(row.values())
    assert abs(m[0, 0] - 1.0 / pseudo) < 1e-15
    node_a = graph.n_D + vocab.lookup("a") - 3
    expected = row[vocab.lookup("a")] / math.sqrt(pseudo * graph.degree[node_a])
    assert abs(m[0, 1] - expected) < 1e-15
    # word-word entries reuse the training graph
    node_c = graph.n_D + vocab.lookup("c") - 3
    assert m[1, 2] == graph.normalized[node_a, node_c]


# training words, and words that never reach the graph
words = st.sampled_from(["a", "b", "c", "d", "e", "f"])
unseen_words = st.sampled_from(["a", "b", "c", "x", "y"])


def assert_written_as(extract, graph, seqs, *args, ref):
    """`extract` writes float64 blocks equal to `ref`, and into float32
    rows given in reverse, with a row left between, `ref` rounded once."""
    ids, lengths = batch(seqs)
    assert extracted(extract, graph, ids, lengths, *args).tobytes() \
        == ref.tobytes()
    out = np.zeros((2 * len(seqs),) + ref.shape[1:], np.float32)
    rows = 2 * np.arange(len(seqs))[::-1]
    extract(graph, ids, lengths, *args, out, rows)
    assert out[rows].tobytes() == ref.astype(np.float32).tobytes()
    assert not out[1::2].any()


@given(st.lists(st.lists(words, max_size=14), min_size=1, max_size=6),
       st.lists(st.lists(unseen_words, max_size=14), min_size=1, max_size=4),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_batched_blocks_equal_per_document_reference(corpus, unseen, seq_len,
                                                     min_freq, chunk):
    # PAD and truncation (documents up to 14 tokens against seq_len 2..9),
    # UNK (min_freq 2, words x/y), repeated tokens, empty and all-OOV
    # documents, for the graph's own documents and for unseen ones,
    # gathered 1-3 documents at a time
    vocab, id_corpus, _, graph = make_graph(corpus, 2, min_freq)
    seqs = [encode_document(doc, vocab, seq_len) for doc in corpus]
    ref = np.stack([document_block(graph, k, seq.ids, seq.true_length)
                    for k, seq in enumerate(seqs)])
    with mock.patch.object(textgraph, "_DOC_CHUNK", chunk):
        assert_written_as(extract_document_adjacency, graph, seqs, ref=ref)

    seqs = [encode_document(doc, vocab, seq_len) for doc in unseen]
    doc_ids = [[vocab.lookup(t) for t in doc] for doc in unseen]
    ref = np.stack([unseen_block(graph, ids, seq.ids, seq.true_length)
                    for ids, seq in zip(doc_ids, seqs)])
    with mock.patch.object(textgraph, "_DOC_CHUNK", chunk):
        assert_written_as(extract_unseen_adjacency, graph, seqs, doc_ids,
                          ref=ref)


def test_unseen_blocks_with_long_rows_equal_per_document_reference():
    # rows of 8 and more distinct words: the pseudo-degree must still be
    # the first-occurrence sequential sum, which a pairwise sum is not
    gen = np.random.default_rng(4)
    words = [f"w{i}" for i in range(60)]
    corpus = [list(gen.choice(words, size=gen.integers(5, 40)))
              for _ in range(30)]
    vocab, _, _, graph = make_graph(corpus, window_len=5)
    unseen = [list(gen.choice(words + ["oov"], size=n))
              for n in (0, 3, 25, 60, 90)]
    seqs = [encode_document(doc, vocab, 16) for doc in unseen]
    doc_ids = [[vocab.lookup(t) for t in doc] for doc in unseen]
    blocks = unseen_blocks(graph, seqs, doc_ids)
    ref = np.stack([unseen_block(graph, ids, seq.ids, seq.true_length)
                    for ids, seq in zip(doc_ids, seqs)])
    assert blocks.tobytes() == ref.tobytes()
