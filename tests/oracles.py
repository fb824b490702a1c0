"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the stated formulas only (no imports
from memefuse internals beyond plain data and the autodiff tape), so
that agreement with the package is a genuine cross-check rather than a
tautology. Some exceptions keep earlier package code as references: the
`unfused_*` layers, text and image embeddings, head, loss and fusion
network compose the autodiff tape node by node as the package did
before each became one node, `member_outputs_by_inference` keeps the
path fusion training used before members saved their outputs, which
the saved outputs must reproduce bit for bit, `per_split_inputs` builds
a fold's model inputs split by split, as folds did before they became
partitions of the pool's rows, and `normalize_image_full_resize`
resizes the whole image before it crops, as `normalize_image` did
before it interpolated only the crop window. `concat`, `layer_norm` and
`weighted_bce` are package nodes kept here because only tests call
them, and the operator algebra (`add` to `rows`) holds the autodiff
Tensor's former operators, which only the tests and the `unfused_*`
references compose.
"""

import math
from collections import Counter

import numpy as np

from memefuse.autodiff import Tensor, _unbroadcast, fused

FIRST_WORD_ID = 3


def dense_graph(id_corpus, window_len, n_word_ids):
    """Dense adjacency A and D^{-1/2} A D^{-1/2} from first principles.

    id_corpus: list of token-id lists (reserved ids 0..2 are not words).
    n_word_ids: number of word ids, so nodes are [docs..., words 3..3+n_W).
    """
    n_d = len(id_corpus)
    n = n_d + n_word_ids

    # window statistics by direct enumeration
    windows = []
    for doc in id_corpus:
        n_windows = max(1, len(doc) - window_len + 1)
        for start in range(n_windows):
            windows.append(set(doc[start:start + window_len]))
    total = len(windows)

    def n_i(t):
        return sum(1 for w in windows if t in w)

    def n_ij(a, b):
        return sum(1 for w in windows if a in w and b in w)

    a_mat = np.zeros((n, n))
    word_ids = sorted({t for doc in id_corpus for t in doc
                       if t >= FIRST_WORD_ID})
    for ai in range(len(word_ids)):
        for bi in range(ai + 1, len(word_ids)):
            wa, wb = word_ids[ai], word_ids[bi]
            joint = n_ij(wa, wb)
            if joint == 0:
                continue
            value = math.log(joint * total / (n_i(wa) * n_i(wb)))
            if value > 0.0:
                ra = n_d + wa - FIRST_WORD_ID
                rb = n_d + wb - FIRST_WORD_ID
                a_mat[ra, rb] = a_mat[rb, ra] = value

    for k, doc in enumerate(id_corpus):
        for t in set(doc):
            if t < FIRST_WORD_ID:
                continue
            df = sum(1 for d in id_corpus if t in d)
            value = doc.count(t) * math.log(n_d / df)
            col = n_d + t - FIRST_WORD_ID
            a_mat[k, col] = a_mat[col, k] = value

    np.fill_diagonal(a_mat, 1.0)
    degree = a_mat.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(degree))
    return a_mat, inv_sqrt @ a_mat @ inv_sqrt


def _word_block(graph, ids, true_length, matrix):
    """Word-word entries of one document's block; returns per-position
    graph nodes (None for position 0, PAD, UNK and words off the graph)."""
    nodes = [None]
    for p in range(1, len(ids)):
        token = int(ids[p])
        node = graph.n_D + token - FIRST_WORD_ID
        if p >= true_length or token < FIRST_WORD_ID \
                or node >= graph.n_D + graph.n_W:
            nodes.append(None)
        else:
            nodes.append(node)
    positions = [p for p in range(1, len(ids)) if nodes[p] is not None]
    if positions:
        node_arr = np.array([nodes[p] for p in positions])
        block = graph.normalized.toarray()[np.ix_(node_arr, node_arr)]
        matrix[np.ix_(positions, positions)] = block
    for p in range(1, len(ids)):
        if nodes[p] is None:
            matrix[p, p] = 1.0
    return nodes


def document_block(graph, doc, ids, true_length):
    """One in-graph document's (L, L) block, scalar index by index."""
    matrix = np.zeros((len(ids), len(ids)))
    nodes = _word_block(graph, ids, true_length, matrix)
    norm = graph.normalized
    matrix[0, 0] = norm[doc, doc]
    for p in range(1, len(ids)):
        if nodes[p] is not None:
            value = norm[doc, nodes[p]]
            matrix[0, p] = value
            matrix[p, 0] = value
    return matrix


def unseen_block(graph, doc_tokens, ids, true_length):
    """One unseen document's (L, L) block: TF-IDF row against the graph's
    IDF, pseudo-degree 1 + sum of that row in first-occurrence order."""
    matrix = np.zeros((len(ids), len(ids)))
    nodes = _word_block(graph, ids, true_length, matrix)
    row = {}
    for t in doc_tokens:
        if FIRST_WORD_ID <= t < FIRST_WORD_ID + graph.n_W and t not in row:
            row[t] = doc_tokens.count(t) * graph.idf[t - FIRST_WORD_ID]
    pseudo_degree = 1.0 + sum(row.values())
    matrix[0, 0] = 1.0 / pseudo_degree
    for p in range(1, len(ids)):
        if nodes[p] is None:
            continue
        value = row.get(int(ids[p]), 0.0)
        value /= math.sqrt(pseudo_degree * graph.degree[nodes[p]])
        matrix[0, p] = value
        matrix[p, 0] = value
    return matrix


def count_windows_loop(corpus, window_len):
    """(per_token, per_pair) window counts with the nested pair loop."""
    per_token, per_pair = Counter(), Counter()
    for doc in corpus:
        for start in range(max(1, len(doc) - window_len + 1)):
            members = sorted(set(doc[start: start + window_len]))
            per_token.update(members)
            for a_idx in range(len(members)):
                for b_idx in range(a_idx + 1, len(members)):
                    per_pair[(members[a_idx], members[b_idx])] += 1
    return per_token, per_pair


def rows_gradient_add_at(table_shape, ids, g):
    """Gradient of an embedding lookup: a dense table scattered into with
    np.add.at."""
    acc = np.zeros(table_shape)
    np.add.at(acc, ids, g)
    return acc


def graph_loop(id_corpus, per_token, per_pair, total, n_w):
    """(raw, normalized, degree, idf) of the sparse corpus graph, one
    Python step per window pair, document and word, entries added in
    per_pair order and then document by document."""
    import scipy.sparse as sp
    n_d = len(id_corpus)
    n = n_d + n_w
    rows, cols, vals = [], [], []

    def add_sym(r, c, v):
        rows.extend((r, c))
        cols.extend((c, r))
        vals.extend((v, v))

    for (i, j), n_ij in per_pair.items():
        if i < FIRST_WORD_ID or j < FIRST_WORD_ID:
            continue
        value = math.log(n_ij * total / (per_token[i] * per_token[j]))
        if value > 0.0:
            add_sym(n_d + i - FIRST_WORD_ID, n_d + j - FIRST_WORD_ID, value)
    df = np.zeros(n_w, dtype=np.int64)
    for doc in id_corpus:
        for t in set(doc):
            if t >= FIRST_WORD_ID:
                df[t - FIRST_WORD_ID] += 1
    idf = np.where(df > 0, np.log(n_d / np.maximum(df, 1)), 0.0)
    for k, doc in enumerate(id_corpus):
        for t, tf in Counter(t for t in doc if t >= FIRST_WORD_ID).items():
            value = tf * idf[t - FIRST_WORD_ID]
            if value != 0.0:
                add_sym(k, n_d + t - FIRST_WORD_ID, value)
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend([1.0] * n)
    raw = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    degree = np.asarray(raw.sum(axis=1)).ravel()
    coo = raw.tocoo()
    normalized = sp.coo_matrix(
        (coo.data / np.sqrt(degree[coo.row] * degree[coo.col]),
         (coo.row, coo.col)), shape=raw.shape).tocsr()
    return raw, normalized, degree, idf


def numeric_gradient(fn, arr, eps=1e-5):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def naive_attention_layer(x, adj, p, d_att, n_heads, is_last):
    """One graph-attention layer written loop-by-loop from the formulas.

    x: (L, d_att); adj: (L, L) or None; p: dict of plain arrays with the
    layer's parameter names (wq, wk, wv, wo, bo, ln_g, ln_b).
    """
    seq_len = x.shape[0]
    d_k = d_att // n_heads
    heads = []
    for j in range(n_heads):
        rows = slice(j * d_k, (j + 1) * d_k)
        q = x @ p["wq"].T[:, rows]
        k = x @ p["wk"].T[:, rows]
        v = x @ p["wv"].T[:, rows]
        logits = q @ k.T / math.sqrt(d_k)
        alpha = np.zeros((seq_len, seq_len))
        for r in range(seq_len):
            e = np.exp(logits[r] - logits[r].max())
            alpha[r] = e / e.sum()
        out = alpha @ v
        if adj is not None:
            out = adj @ out
        heads.append(out)
    if is_last:
        fused = np.mean(heads, axis=0)
    else:
        fused = np.concatenate(heads, axis=1)
    branch = fused @ p["wo"].T + p["bo"]
    pre = x + branch
    mean = pre.mean(axis=1, keepdims=True)
    var = ((pre - mean) ** 2).mean(axis=1, keepdims=True)
    return (pre - mean) / np.sqrt(var + 1e-5) * p["ln_g"] + p["ln_b"]


def column_weighted_bce(p, y, w, eps=1e-12):
    """sum_c w_c * BCE(p[:, c], y[:, c]), one class column at a time.

    Each column's BCE is the batch mean of -(y log p + (1 - y) log(1 - p))
    with p clamped to [eps, 1 - eps].
    """
    total = 0.0
    for c in range(p.shape[1]):
        pc = np.clip(p[:, c], eps, 1.0 - eps)
        terms = y[:, c] * np.log(pc) + (1.0 - y[:, c]) * np.log(1.0 - pc)
        total += w[c] * -terms.mean()
    return total


def adamw_reference_step(theta, g, m, v, t, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8, weight_decay=0.01):
    """One AdamW step on one tensor; returns (theta, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps)
                          + weight_decay * theta)
    return theta, m, v


def f1_oracle(pred, true):
    """Positive-class F1 from an explicit confusion matrix."""
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    tp = fp = fn = 0
    for p_, t_ in zip(pred, true):
        if p_ == 1 and t_ == 1:
            tp += 1
        elif p_ == 1 and t_ == 0:
            fp += 1
        elif p_ == 0 and t_ == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def confusion_matrix(pred, true):
    """counts[t][p]: the samples of true label t predicted p, for 0/1
    labels, by enumeration."""
    counts = [[0, 0], [0, 0]]
    for p_, t_ in zip(np.asarray(pred).ravel(), np.asarray(true).ravel()):
        counts[int(t_)][int(p_)] += 1
    return counts


def class_f1(counts, c):
    """F1 of class c from a confusion matrix, 2 TP / (2 TP + FP + FN);
    0.0 for a class that is neither predicted nor true."""
    tp, fp, fn = counts[c][c], counts[1 - c][c], counts[c][1 - c]
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def macro_f1_reference(pred, true):
    """Mean F1 of the positive and the negative class."""
    counts = confusion_matrix(pred, true)
    return 0.5 * (class_f1(counts, 1) + class_f1(counts, 0))


def weighted_f1_reference(pred, true):
    """Each label column's positive-class F1, weighted by the column's
    support (its true positives plus false negatives); 0.0 when no column
    has support."""
    columns = [confusion_matrix(np.asarray(pred)[:, c], np.asarray(true)[:, c])
               for c in range(np.shape(true)[1])]
    support = [counts[1][0] + counts[1][1] for counts in columns]
    if sum(support) == 0:
        return 0.0
    return sum(s * class_f1(counts, 1)
               for s, counts in zip(support, columns)) / sum(support)


def member_outputs_by_inference(ctx, member, fold, checkpoint_path):
    """A member's eval-mode (p, f) over a fold's train, val and test splits,
    from its checkpoint: load the parameters, rebuild the member model and
    run it over the fold's encoded splits, each parameter narrowed to the
    model's dtype."""
    from memefuse.checkpoint import load_checkpoint
    from memefuse.pipeline import UnimodalTrainable, make_unimodal
    data = ctx._build_fold(fold, member)
    params, _ = load_checkpoint(checkpoint_path)
    n_classes = 1 if ctx.cfg.setup == "A" else 4
    model = make_unimodal(member, ctx.cfg, data.vocab_size, n_classes, seed=0)
    for name, tensor in model.params.items():
        tensor.data = params[name].astype(tensor.data.dtype)
        tensor.requires_grad = False
    trainable = UnimodalTrainable(model, data)
    return {split: trainable.eval_split(getattr(data, split))
            for split in ("train", "val", "test")}


def per_split_inputs(ctx, fold, model_name, out_root=None):
    """Each split's model inputs of a fold, split by split: image rows for
    vit; token ids under the fold's vocabulary for bertc, and for gcan
    their adjacency blocks, the validation and test blocks extracted
    apart; a fusion model's members' saved outputs, read from
    `out_root`."""
    import os

    from memefuse.dataio import MODEL_MEMBERS
    from memefuse.preprocess import build_vocabulary, encode_document
    from memefuse.rundir import fold_file, read_outputs
    from memefuse.textgraph import build_adjacency, count_windows, \
        extract_document_adjacency, extract_unseen_adjacency
    cfg = ctx.cfg
    indices = ctx.split_indices(fold)
    members = MODEL_MEMBERS[model_name]
    if members is not None:
        saved = [read_outputs(fold_file("outputs", fold,
                                        os.path.join(out_root, member)))
                 for member in members]
        return {split: tuple(a for out in saved
                             for a in (out[split].p, out[split].f))
                for split in indices}
    if model_name == "vit":
        return {split: (ctx.images[idx],) for split, idx in indices.items()}
    vocab = build_vocabulary([ctx.tokens[i] for i in indices["train"]],
                             cfg.min_freq, cfg.max_vocab)
    inputs, lengths, id_docs = {}, {}, {}
    for split, idx in indices.items():
        encoded = [encode_document(ctx.tokens[i], vocab, cfg.seq_len)
                   for i in idx]
        inputs[split] = (np.stack([seq.ids for seq in encoded]),)
        lengths[split] = np.array([seq.true_length for seq in encoded])
        id_docs[split] = [[vocab.lookup(t) for t in ctx.tokens[i]]
                          for i in idx]
    if model_name == "gcan":
        stats = count_windows(id_docs["train"], cfg.window_len)
        graph = build_adjacency(id_docs["train"], stats, vocab)
        inputs["train"] += (extracted(
            extract_document_adjacency, graph, inputs["train"][0],
            lengths["train"]),)
        for split in ("val", "test"):
            inputs[split] += (extracted(
                extract_unseen_adjacency, graph, inputs[split][0],
                lengths[split], id_docs[split]),)
    return inputs


def extracted(extract, graph, seqs, *args):
    """The adjacency blocks that `extract` (`extract_document_adjacency`
    or `extract_unseen_adjacency`) writes for `seqs`, as a new float64
    array in their order."""
    out = np.empty((len(seqs),) + 2 * seqs.shape[1:])
    extract(graph, seqs, *args, out, np.arange(len(seqs)))
    return out


def normalize_image_full_resize(image, resize=36, crop=32):
    """`normalize_image` by way of the whole resized image: resize to
    resize x resize, then take the centered crop, then standardize."""
    img = image.astype(np.float64)
    h, w = img.shape[:2]

    def axis_coords(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    ylo, yhi, yf = axis_coords(h, resize)
    xlo, xhi, xf = axis_coords(w, resize)
    yf = yf[:, None, None]
    xf = xf[None, :, None]
    top = img[ylo][:, xlo] * (1 - xf) + img[ylo][:, xhi] * xf
    bot = img[yhi][:, xlo] * (1 - xf) + img[yhi][:, xhi] * xf
    resized = top * (1 - yf) + bot * yf
    start = (resize - crop) // 2
    cropped = resized[start: start + crop, start: start + crop, :]
    tensor = np.transpose(cropped, (2, 0, 1)) / 255.0
    mean = tensor.mean()
    std = tensor.std()
    if std == 0.0:
        std = 1.0
    return (tensor - mean) / std


# ------------------------------------------------ the tape's operator algebra
# The package's Tensor keeps only `*` and `.sum`. These are the rest of its
# operators, as free functions over `fused` with the arithmetic they had as
# methods; each lifts an array or number operand to a constant Tensor.

def lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b):
    a, b = lift(a), lift(b)
    return fused(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape),
                            _unbroadcast(g, b.shape)))


def neg(a):
    return fused(-a.data, (a,), lambda g: (-g,))


def sub(a, b):
    return add(a, neg(lift(b)))


def div(a, b):
    a, b = lift(a), lift(b)
    return fused(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / b.data ** 2,
                                         b.shape)))


def matmul(a, b):
    a, b = lift(a), lift(b)
    ad, bd = a.data, b.data
    return fused(ad @ bd, (a, b),
                 lambda g: (_unbroadcast(g @ np.swapaxes(bd, -1, -2),
                                         a.shape),
                            _unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                         b.shape)))


def reshape(a, *shape):
    old = a.shape
    return fused(a.data.reshape(*shape), (a,), lambda g: (g.reshape(old),))


def getitem(a, idx):
    """a[idx]; the gradient scatters back with np.add.at."""
    def backward(g):
        out = np.zeros(a.shape)
        np.add.at(out, idx, g)
        return (out,)

    return fused(a.data[idx], (a,), backward)


def mean(a, axis=None, keepdims=False):
    count = a.data.size if axis is None else a.shape[axis]
    return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def amax(a, axis):
    """Max along one axis; gradient flows to the first argmax on ties."""
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)

    def backward(g):
        out = np.zeros(a.shape)
        np.put_along_axis(out, idx, np.expand_dims(g, axis), axis=axis)
        return (out,)

    return fused(np.take_along_axis(a.data, idx, axis=axis).squeeze(axis),
                 (a,), backward)


def relu(a):
    mask = a.data > 0
    return fused(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a):
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))  # stable logistic
    return fused(s, (a,), lambda g: (g * s * (1.0 - s),))


def rows(table, ids):
    """Embedding lookup: gather rows of `table` by an integer id array."""
    def backward(g):
        # one bincount over flat (row, column) slots adds each slot's
        # terms in the order np.add.at would, so the sums are bitwise equal
        width = table.data.size // table.shape[0]
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
        acc = np.bincount(flat, weights=g.ravel(), minlength=table.data.size)
        return (acc.astype(table.data.dtype, copy=False).reshape(table.shape),)

    return fused(table.data[ids], (table,), backward)


# ------------------------------------------------ one-node package kernels

def concat(tensors, axis=-1):
    """Tensors joined along `axis` as one tape node, which splits the
    gradient back into their widths."""
    datas = [t.data for t in tensors]
    cuts = np.cumsum([d.shape[axis] for d in datas[:-1]])
    return fused(np.concatenate(datas, axis=axis), tuple(tensors),
                 lambda g: np.split(g, cuts, axis=axis))


def layer_norm(x, gain, bias):
    """The package's layer-norm kernel as one tape node."""
    from memefuse.nn import _layer_norm, _node
    return _node(_layer_norm, x, (gain, bias))


def weighted_bce(p, y, weights):
    """Sum over the four classes of w_c * BCE on that class column, with
    the package's BCE kernel as one tape node."""
    from memefuse.training import _bce, _loss_node
    return _loss_node(p, _bce, y, weights.w / p.shape[0])


# ------------------------------------------------ unfused tape compositions

def unfused_linear(x, weight, bias):
    """y = x W^T + b as one node over an input of any rank."""
    xd, w = x.data, weight.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g @ w, g2.T @ xd.reshape(-1, xd.shape[-1]),
                g2.sum(axis=0))

    return fused(xd @ w.T + bias.data, (x, weight, bias), backward)


def unfused_layer_norm(x, gain, bias, eps=1e-5):
    xd, gd = x.data, gain.data
    centered = xd - xd.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / std

    def backward(g):
        gn = g * gd
        gx = (gn - gn.mean(axis=-1, keepdims=True)
              - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
        width = g.shape[-1]
        return (gx, (g * normed).reshape(-1, width).sum(axis=0),
                g.reshape(-1, width).sum(axis=0))

    return fused(normed * gd + bias.data, (x, gain, bias), backward)


def unfused_attention(x, params, prefix, n_heads, adj=None, is_last=False):
    """Multi-head attention on (B, L, d) with per-head adjacency products,
    heads merged after them, as one node."""
    b, seq_len, d = x.shape
    h = n_heads
    d_k = d // h
    weights = [params[f"{prefix}.{name}"] for name in ("wq", "wk", "wv")]
    w = np.concatenate([t.data for t in weights])
    xd = x.data
    qkv = (xd @ w.T).reshape(b, seq_len, 3, h, d_k)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(d_k)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    heads = attn @ v
    if adj is not None:
        heads = adj[:, None] @ heads
    if is_last:
        out = heads.mean(axis=1)
    else:
        out = heads.transpose(0, 2, 1, 3).reshape(b, seq_len, d)

    def backward(g):
        if is_last:
            g_heads = np.broadcast_to((g / h)[:, None], heads.shape)
        else:
            g_heads = g.reshape(b, seq_len, h, d_k).transpose(0, 2, 1, 3)
        if adj is not None:
            g_heads = adj.swapaxes(-1, -2)[:, None] @ g_heads
        g_attn = g_heads @ v.swapaxes(-1, -2)
        g_v = attn.swapaxes(-1, -2) @ g_heads
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=-1,
                                                        keepdims=True))
        g_logits *= scale
        g_q = g_logits @ k
        g_k = g_logits.swapaxes(-1, -2) @ q
        g_qkv = np.stack((g_q, g_k, g_v)).transpose(1, 3, 0, 2, 4) \
            .reshape(b * seq_len, 3 * d)
        g_w = g_qkv.T @ xd.reshape(b * seq_len, d)
        return ((g_qkv @ w).reshape(xd.shape),
                g_w[:d], g_w[d:2 * d], g_w[2 * d:])

    return fused(out, (x, *weights), backward)


def unfused_gcan_layer(x, adj, params, prefix, n_heads, is_last):
    """Attention, output projection, residual add and layer norm: four
    nodes."""
    merged = unfused_attention(x, params, prefix, n_heads, adj, is_last)
    branch = unfused_linear(merged, params[f"{prefix}.wo"],
                            params[f"{prefix}.bo"])
    return unfused_layer_norm(add(x, branch), params[f"{prefix}.ln_g"],
                              params[f"{prefix}.ln_b"])


def unfused_text_embedding(encoder, ids):
    """The row gather, then the positions, cast to the rows' dtype, added:
    two nodes."""
    x = rows(encoder.params["embed"], ids)
    return add(x, encoder.positions.astype(x.data.dtype, copy=False))


def unfused_image_embedding(encoder, images):
    """Patch projection, a zeros-plus-[cls] row, the concat and the
    positions add: five nodes with the [cls] reshape."""
    b, d = images.shape[0], encoder.cfg.d_att
    emb = unfused_linear(Tensor(encoder.patchify(images)),
                         encoder.params["proj_w"], encoder.params["proj_b"])
    cls_row = add(Tensor(np.zeros((b, 1, d))),
                  reshape(encoder.params["cls"], 1, 1, d))
    return add(concat([cls_row, emb], axis=1), Tensor(encoder.positions))


def unfused_classifier_head(f, params, prefix, drop_rate, rng):
    """Linear, ReLU, inverted dropout, linear and sigmoid: five nodes."""
    hidden = relu(unfused_linear(f, params[f"{prefix}.w1"],
                                 params[f"{prefix}.b1"]))
    if rng is not None and drop_rate > 0.0:
        mask = (rng.random(hidden.shape) >= drop_rate) / (1.0 - drop_rate)
        hidden = hidden * Tensor(mask)
    return sigmoid(unfused_linear(hidden, params[f"{prefix}.w2"],
                                  params[f"{prefix}.b2"]))


def unfused_setup_b_loss(p, y_mis, y_sub, w, mix, eps=1e-12):
    """mix[0] * support-weighted BCE + mix[1] * teacher forcing, built as
    the BCE node, a max, a difference, its square, a mean and the mix."""
    pd = p.data
    weights = w / pd.shape[0]
    pc = np.clip(pd, eps, 1.0 - eps)
    value = -(weights * (y_sub * np.log(pc)
                         + (1.0 - y_sub) * np.log(1.0 - pc))).sum()

    def backward(g):
        inside = (pd >= eps) & (pd <= 1.0 - eps)
        return (-g * weights * (y_sub / pc - (1.0 - y_sub) / (1.0 - pc))
                * inside,)

    l1 = fused(np.asarray(value), (p,), backward)
    diff = sub(amax(p, axis=-1),
               Tensor(np.asarray(y_mis, dtype=np.float64)))
    l2 = mean(diff * diff)
    return add(l1 * mix[0], l2 * mix[1])


def unfused_fusion(outputs, params, drop_rate, rng):
    """The fusion network as tape algebra: the joint concat, the `wp` head
    normalized by its row sums, the stream-weighted member probabilities,
    the `rf` head and the branch average; 20 nodes for two members."""
    from memefuse.nn import classifier_head
    if len(outputs) < 2:
        raise ValueError("fusion needs at least two member models")
    joint = concat([t for out in outputs for t in (out.p, out.f)], axis=-1)
    s = classifier_head(joint, params, "wp", drop_rate, rng)
    weights = div(s, s.sum(axis=-1, keepdims=True))
    p_list = [out.p for out in outputs]
    if any(p.shape[-1] != p_list[0].shape[-1] for p in p_list):
        raise ValueError("member probability vectors differ in length")
    p_sw = p_list[0] * getitem(weights, np.s_[:, 0:1])
    for i in range(1, len(p_list)):
        p_sw = add(p_sw, p_list[i] * getitem(weights, np.s_[:, i:i + 1]))
    p_rf = classifier_head(joint, params, "rf", drop_rate, rng)
    if p_sw.shape != p_rf.shape:
        raise ValueError("branch probability shapes differ")
    return add(p_sw, p_rf) * 0.5
