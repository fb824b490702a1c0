"""Corpus graph over document and word nodes.

Word-word edges carry positive pointwise mutual information gathered with
a sliding window, counted over chunks of windows merged in key order;
document-word edges carry TF-IDF; the diagonal is 1. The adjacency
matrix is symmetrically normalized by inverse square-root degrees. Both
matrices are `Csr`, a NumPy-only sparse matrix that keeps its entries in
row-major order. The graph-attention encoder reads one L_S x L_S
adjacency block per document, gathered a chunk of documents at a time
into the caller's array: sequence position 0 maps to the document node,
the remaining positions map to their word nodes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .preprocess import Vocabulary

NEG_INF = float("-inf")
_FIRST_WORD_ID = 3  # ids 0..2 are PAD/CLS/UNK and never become word nodes
_WINDOW_CHUNK = 512  # windows counted at once by `count_windows`
_DOC_CHUNK = 128  # documents whose adjacency blocks are gathered at once


@dataclass
class WindowStats:
    total: int                       # N: number of sliding windows
    per_token: Counter               # N_i: windows containing token i
    per_pair: Counter                # N_ij: windows containing both i and j
    window_len: int


@dataclass
class Csr:
    """A float64 sparse matrix as its entries in row-major order: entry k
    holds `data[k]` at row `keys[k] // shape[1]`, column `keys[k] %
    shape[1]`, and the int64 `keys` ascend. Rows and columns given to it
    must be in range."""
    data: np.ndarray
    keys: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_coords(cls, values, rows, cols, shape: tuple[int, int]) -> Csr:
        """`values[k]` at (`rows[k]`, `cols[k]`), each (row, col) once."""
        key = np.asarray(rows, dtype=np.int64) * shape[1] + cols
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate (row, col) entries")
        return cls(np.asarray(values, dtype=np.float64)[order], key, shape)

    def row_sums(self) -> np.ndarray:
        """Row sums as SciPy's `sum(axis=1)` adds them: `np.add.reduceat`
        over the nonempty rows, onto zeros (a -0.0 sum reads 0.0)."""
        n_rows, n_cols = self.shape
        starts = np.searchsorted(self.keys, np.arange(n_rows + 1) * n_cols)
        nonempty = np.flatnonzero(np.diff(starts))
        sums = np.zeros(n_rows)
        sums[nonempty] += np.add.reduceat(self.data, starts[nonempty])
        return sums

    def __getitem__(self, index) -> np.ndarray:
        """The entries at `[rows, cols]`, broadcast (a float for scalar
        indices); 0.0 where no entry is stored."""
        rows, cols = index
        wanted = np.asarray(rows, dtype=np.int64) * self.shape[1] + cols
        if not len(self.keys):
            return np.zeros(wanted.shape)[()]
        # past the last key, the last entry stands in and does not match
        at = np.minimum(np.searchsorted(self.keys, wanted), len(self.keys) - 1)
        return np.where(self.keys[at] == wanted, self.data[at], 0.0)[()]

    def toarray(self) -> np.ndarray:
        """The dense matrix, entries added onto zeros as SciPy adds them."""
        dense = np.zeros(self.shape)
        dense.reshape(-1)[self.keys] += self.data
        return dense


@dataclass
class CorpusGraph:
    """Nodes [documents..., words...]; the adjacency and its normalization
    are `Csr` matrices, symmetric bit for bit."""
    n_D: int
    n_W: int
    raw: Csr         # A, symmetric, unit diagonal
    normalized: Csr  # D^{-1/2} A D^{-1/2}
    degree: np.ndarray
    idf: np.ndarray            # per word id (offset by reserved ids), ln(n_D/df)


def count_windows(corpus: list[list[int]], window_len: int) -> WindowStats:
    """Sliding-window co-occurrence counts with step size 1.

    A document shorter than the window contributes one whole-document
    window. Counts are window membership, not occurrences. Windows are
    counted a chunk at a time, so the per-window arrays are bounded by
    the chunk, not the corpus. Both counters are keyed in ascending order.
    """
    if window_len < 1:
        raise ValueError("window length must be >= 1")
    flat, lengths = _flatten(corpus)
    n_windows = np.maximum(1, lengths - window_len + 1)
    total = int(n_windows.sum())
    ends, doc_end = np.cumsum(n_windows), np.cumsum(lengths)
    # window w of document d starts at token first_token[d] + w
    first_token = doc_end - lengths - (ends - n_windows)
    # every id is below the span, which fills the slots past a document's
    # end and sorts last; int32 slots and keys while every key fits
    span = int(flat.max(initial=0)) + 1
    key_type = np.int32 if (span + 1) ** 2 <= 2 ** 31 else np.int64
    # a window's member pairs i <= j as keys i * span + j; (i, i) is i
    a, b = np.triu_indices(window_len)
    keys, counts = np.empty(0, key_type), np.empty(0)
    for start in range(0, total, _WINDOW_CHUNK):
        window = np.arange(start, min(start + _WINDOW_CHUNK, total))
        doc = np.searchsorted(ends, window, "right")
        pos = (first_token[doc] + window)[:, None] + np.arange(window_len)
        inside = pos < doc_end[doc][:, None]
        members = np.full(pos.shape, span, dtype=key_type)
        members[inside] = flat[pos[inside]]
        members.sort(axis=1)
        distinct = members != span
        distinct[:, 1:] &= members[:, 1:] != members[:, :-1]
        both = distinct[:, a] & distinct[:, b]
        new, n_new = np.unique((members[:, a] * span + members[:, b])[both],
                               return_counts=True)
        # float64 counts are exact below 2**53
        keys, merged = np.unique(np.concatenate([keys, new]),
                                 return_inverse=True)
        counts = np.bincount(merged, weights=np.concatenate([counts, n_new]),
                             minlength=len(keys))
    counts = counts.astype(np.int64)
    low, high = np.divmod(keys, span)
    alone = low == high
    per_token = Counter(dict(zip(low[alone].tolist(), counts[alone].tolist())))
    per_pair = Counter(dict(zip(zip(low[~alone].tolist(),
                                    high[~alone].tolist()),
                                counts[~alone].tolist())))
    return WindowStats(total=total, per_token=per_token, per_pair=per_pair,
                       window_len=window_len)


def _flatten(corpus: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Every token id of the corpus in order, and each document's length."""
    lengths = np.array([len(doc) for doc in corpus], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(corpus), dtype=np.int64,
                       count=int(lengths.sum()))
    return flat, lengths


def pmi(stats: WindowStats, i: int, j: int) -> float:
    """ln( p(i,j) / (p(i) p(j)) ) over window probabilities.

    Returns -inf when the pair never co-occurs; such edges are omitted
    from the adjacency matrix.
    """
    if stats.total <= 0:
        raise ValueError("window statistics are empty")
    key = (i, j) if i <= j else (j, i)
    n_ij = stats.per_pair.get(key, 0)
    if i == j:
        n_ij = stats.per_token.get(i, 0)
    n_i = stats.per_token.get(i, 0)
    n_j = stats.per_token.get(j, 0)
    if n_ij == 0 or n_i == 0 or n_j == 0:
        return NEG_INF
    return math.log(n_ij * stats.total / (n_i * n_j))


def tfidf(corpus: list[list[int]], doc: int, token: int) -> float:
    """Raw term count times ln(n_D / document frequency)."""
    df = sum(1 for d in corpus if token in d)
    if df == 0:
        return 0.0
    tf = corpus[doc].count(token)
    return tf * math.log(len(corpus) / df)


def build_adjacency(corpus: list[list[int]], stats: WindowStats,
                    vocab: Vocabulary) -> CorpusGraph:
    """Assemble the sparse symmetric adjacency and its normalization.

    Node order is [documents..., words...]. Only strictly positive PMI
    pairs become word-word edges; document-word entries are TF-IDF with
    IDF computed over this corpus.
    """
    n_D, n_W = len(corpus), vocab.n_W
    if n_D == 0 or n_W + n_D == 0:
        raise ValueError("empty corpus or vocabulary")
    n = n_D + n_W

    pairs = np.array(list(stats.per_pair), dtype=np.int64).reshape(-1, 2)
    n_ij = np.fromiter(stats.per_pair.values(), dtype=np.int64,
                       count=len(pairs))
    n_i, n_j = (np.fromiter(map(stats.per_token.__getitem__,
                                pairs[:, k].tolist()),
                            dtype=np.int64, count=len(pairs))
                for k in (0, 1))
    edge = (pairs >= _FIRST_WORD_ID).all(axis=1) & (n_ij > 0) \
        & (n_i > 0) & (n_j > 0)
    # `pmi` of every pair: Python's int division rounds as it does there
    value = np.array([math.log(a / b) for a, b in zip(
        (n_ij[edge] * stats.total).tolist(),
        (n_i[edge] * n_j[edge]).tolist())], dtype=np.float64)
    positive = value > 0.0
    word_nodes = n_D + pairs[edge][positive] - _FIRST_WORD_ID

    flat, lengths = _flatten(corpus)
    is_word = flat >= _FIRST_WORD_ID
    doc = np.repeat(np.arange(n_D), lengths)[is_word]
    word = flat[is_word] - _FIRST_WORD_ID
    pair, tf = np.unique(doc * n_W + word, return_counts=True)
    doc, word = np.divmod(pair, n_W)
    df = np.bincount(word, minlength=n_W)
    idf = np.where(df > 0, np.log(n_D / np.maximum(df, 1)), 0.0)
    tfidf_value = tf * idf[word]
    nonzero = tfidf_value != 0.0

    # each edge as (r, c) and (c, r), then the unit diagonal. No (r, c)
    # repeats: word pairs are distinct with i < j (per_pair's keys),
    # document-word pairs distinct (np.unique), and no edge joins
    # a node to itself or a document to a document
    edges = np.concatenate([word_nodes,
                            np.stack([doc, n_D + word], axis=1)[nonzero]])
    values = np.concatenate([value[positive], tfidf_value[nonzero]])
    diagonal = np.arange(n)
    raw = Csr.from_coords(
        np.concatenate([np.repeat(values, 2), np.ones(n)]),
        np.concatenate([edges.ravel(), diagonal]),
        np.concatenate([edges[:, ::-1].ravel(), diagonal]), (n, n))
    degree = raw.row_sums()
    return CorpusGraph(n_D=n_D, n_W=n_W, raw=raw,
                       normalized=_normalize(raw, degree),
                       degree=degree, idf=idf)


def _normalize(raw: Csr, degree: np.ndarray) -> Csr:
    """D^{-1/2} A D^{-1/2}, computed entrywise as v / sqrt(d_i * d_j),
    on A's own keys.

    sqrt(d_i * d_j) is symmetric in (i, j), so the result is bitwise
    symmetric whenever A is.
    """
    rows, cols = np.divmod(raw.keys, raw.shape[1])
    return Csr(raw.data / np.sqrt(degree[rows] * degree[cols]), raw.keys,
               raw.shape)


def _position_nodes(graph: CorpusGraph, seqs: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """(N, L) word node of every position; -1 at position 0, PAD, UNK,
    reserved ids, words outside the graph and past the true length."""
    seqs = np.asarray(seqs)
    pos = np.arange(seqs.shape[1])
    nodes = graph.n_D + seqs - _FIRST_WORD_ID
    valid = ((pos >= 1) & (pos < np.asarray(lengths)[:, None])
             & (seqs >= _FIRST_WORD_ID) & (nodes < graph.n_D + graph.n_W))
    return np.where(valid, nodes, -1)


def _gather_blocks(graph: CorpusGraph, nodes: np.ndarray, out: np.ndarray,
                   rows: np.ndarray) -> None:
    """Writes to `out[rows[k]]` the (L, L) normalized entries between every
    pair of document k's positions with a node, rounded once to `out`'s
    dtype; a position without a node keeps a unit self-loop only. Each
    chunk of documents is one sparse gather of the lower triangles,
    mirrored (the normalized matrix is bitwise symmetric)."""
    seq_len = nodes.shape[1]
    p, q = np.tril_indices(seq_len)
    diag = np.arange(seq_len)
    for start in range(0, len(nodes), _DOC_CHUNK):
        chunk = nodes[start:start + _DOC_CHUNK]
        has_node = chunk >= 0
        values = np.where(has_node[:, p] & has_node[:, q], graph.normalized[
            np.maximum(chunk[:, p], 0), np.maximum(chunk[:, q], 0)], 0.0)
        blocks = np.empty((len(chunk), seq_len, seq_len))
        blocks[:, p, q] = values
        blocks[:, q, p] = values
        blocks[:, diag, diag] = np.where(has_node, blocks[:, diag, diag], 1.0)
        out[rows[start:start + _DOC_CHUNK]] = blocks


def extract_document_adjacency(graph: CorpusGraph, seqs: np.ndarray,
                               lengths: np.ndarray, out: np.ndarray,
                               rows: np.ndarray) -> None:
    """Dense (L_S, L_S) blocks of the normalized adjacency for the graph's
    own documents, given in graph order: document k's goes to
    `out[rows[k]]`.

    Row/column 0 is the document node (its edges carry normalized TF-IDF),
    the other positions are word nodes; PAD and out-of-vocabulary
    positions keep only a unit self-loop.
    """
    if len(seqs) != graph.n_D:
        raise ValueError(f"got {len(seqs)} documents for a graph of "
                         f"{graph.n_D}")
    nodes = _position_nodes(graph, seqs, lengths)
    nodes[:, 0] = np.arange(graph.n_D)
    _gather_blocks(graph, nodes, out, rows)


def extract_unseen_adjacency(graph: CorpusGraph, seqs: np.ndarray,
                             lengths: np.ndarray, doc_ids: list[list[int]],
                             out: np.ndarray, rows: np.ndarray) -> None:
    """Adjacency blocks for documents that are not nodes of the graph:
    document k's goes to `out[rows[k]]`.

    `doc_ids` holds each document's full token-id list. The document row
    is synthesized: TF-IDF against the training IDF values, pseudo-degree
    1 + sum of those entries, and the symmetric normalization applied
    with the stored word degrees. Word-word entries are reused from the
    training graph.
    """
    nodes = _position_nodes(graph, seqs, lengths)
    _gather_blocks(graph, nodes, out, rows)
    n_docs, n_w = len(doc_ids), graph.n_W
    flat, doc_lengths = _flatten(doc_ids)
    word = flat - _FIRST_WORD_ID
    in_graph = (word >= 0) & (word < n_w)
    doc = np.repeat(np.arange(n_docs), doc_lengths)[in_graph]
    word = word[in_graph]
    key = doc * n_w + word
    # pseudo-degree: 1 + each document's TF-IDF entries added one by one
    # in first-occurrence order, as Python's sum over a Counter of the
    # document adds them (bincount adds sequentially; a pairwise sum
    # would round otherwise, and the blocks' bytes depend on it)
    _, firsts, tf = np.unique(key, return_index=True, return_counts=True)
    seen = np.argsort(firsts)
    firsts, tf = firsts[seen], tf[seen]
    pseudo_degree = 1.0 + np.bincount(
        doc[firsts], weights=tf * graph.idf[word[firsts]], minlength=n_docs)
    # each position's entry: its token's count in its own document times
    # the token's IDF, and 0 for a position without a graph word
    key.sort()
    word_at = np.asarray(seqs) - _FIRST_WORD_ID
    valid = (word_at >= 0) & (word_at < n_w)
    wanted = np.where(valid, np.arange(n_docs)[:, None] * n_w + word_at, -1)
    count = (np.searchsorted(key, wanted, "right")
             - np.searchsorted(key, wanted))
    tfidf_at = count * np.append(graph.idf, 0.0)[np.where(valid, word_at, n_w)]
    # tfidf_at is 0 wherever a position has no node
    row0 = tfidf_at / np.sqrt(pseudo_degree[:, None]
                              * graph.degree[np.maximum(nodes, 0)])
    out[rows, 0, :] = row0
    out[rows, :, 0] = row0
    out[rows, 0, 0] = 1.0 / pseudo_degree
