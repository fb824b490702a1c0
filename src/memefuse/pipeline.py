"""Cross-validated training runs over a dataset.

A CvContext holds one pool of rows for a dataset, the training samples
then the test samples: their ids and labels, and the fold splits as row
indices into the pool. Each model reads at most one modality of the
pool: the tokenized documents for `bertc` and `gcan`, the normalized
images for `vit`, neither for a fusion model. The context computes a
modality when it is first read and keeps it; it reads its own model's
modality when it is built, and `train_model_cv` reads the trained
model's before any fold worker forks, so no worker redoes it. The
images are one shared mapping that the parent and, with `jobs` > 1,
forked fill workers normalize into, each its own block of rows, whose
pixels it reads there (`dataio.sample_pixels`): an ingested sample holds
where its raster is, not its pixels, so no other model reads a raster.
A fold partitions the pool's rows into its train, val and test splits.
Its FoldData holds the model inputs of every pool row, and each split
its ids, labels and rows, through which one train and eval loop gathers
the batches of every model. `train_fold` builds a uni-modal fold with
only what its model reads, and drops it once trained: the context's own
images for `vit`, token ids under the fold's vocabulary for `bertc`,
those and their adjacency blocks for `gcan`. A `gcan` fold's corpus
graph comes from its training rows only, whose blocks are gathered a
chunk of rows at a time into the fold's array; the other rows' blocks
are synthesized likewise, against the training statistics. After
training, a uni-modal fold saves its eval-mode outputs over its splits.
A fusion fold's inputs are those saved outputs of its members, (p_1,
f_1, ..., p_m, f_m), in pool order: fusion trains only its two heads,
one tape node over those constant outputs, and runs no member model.
`rundir` writes and reads run directories.

Models train in float32, which DTYPE picks here alone: the kernels
compute in their inputs' dtype, and every model's parameters and inputs
(the images, gcan's adjacency blocks, fusion's member outputs) are kept
in DTYPE. `nn._head` widens its logits, as a float32 logistic is exactly
1.0 above a logit of about 17, where the losses divide by 1 - p; so
probabilities, losses and prediction files stay float64.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .autodiff import Tensor, frozen
from .dataio import MODEL_MEMBERS, RunConfig, sample_pixels
from .ensemble import FoldRun, kfold_split, task_scores
from .fusion import FusionModel
from .nn import AttentionConfig, GcanEncoder, ImageEncoder, ModelOutput, \
    TextEncoder
from .preprocess import DataError, RawSample, clean_text, combine_texts, \
    encode_document, build_vocabulary, normalize_image, tokenize
from .rundir import SPLITS, DependencyError, SplitOutputs, member_outputs, \
    write_run
from .textgraph import build_adjacency, count_windows, \
    extract_document_adjacency, extract_unseen_adjacency
from .training import EpochRecord, train_model

EVAL_BATCH = 64
DTYPE = np.float32  # models' parameters and inputs


def document_tokens(sample: RawSample) -> list[str]:
    ocr = clean_text(sample.ocr_text)
    captions = [clean_text(c) for c in sample.captions]
    return tokenize(combine_texts(ocr, [c for c in captions if c]))


@dataclass
class Split:
    ids: list[str]
    y_mis: np.ndarray
    y_sub: np.ndarray
    rows: np.ndarray    # the split's rows of the pool and of FoldData.inputs


@dataclass
class FoldData:
    train: Split
    val: Split
    test: Split
    inputs: tuple[np.ndarray, ...]  # forward arguments, by pool row
    vocab_size: int | None      # None unless the model reads tokens

    def splits(self) -> dict[str, Split]:
        return {"train": self.train, "val": self.val, "test": self.test}


class CvContext:
    """One dataset's pool of rows, the training samples then the test
    samples, and its fold splits as row indices into the pool. A fold's
    inputs are an encoder's (`_build_fold`) or, for a fusion model, its
    members' saved outputs.

    `tokens` and `images` are computed on first read and then kept; the
    context reads the modality of `cfg.model` when it is built. The
    images are a shared mapping filled by `cfg.jobs` processes, each
    row once; the fill workers are joined before `images` returns.
    """

    def __init__(self, train_samples: list[RawSample],
                 test_samples: list[RawSample], cfg: RunConfig):
        if cfg.folds > len(train_samples):
            raise DataError(f"cannot split {len(train_samples)} training "
                            f"samples into {cfg.folds} folds")
        self.cfg = cfg
        self.train_samples = train_samples
        self._samples = train_samples + test_samples
        self.ids = [s.id for s in self._samples]
        self.y_mis = np.array([s.labels.mis for s in self._samples],
                              dtype=float)
        self.y_sub = np.stack([s.labels.sub_labels() for s in self._samples])
        # the test rows' labels; perfbench reads them by this name
        self.test_y_mis = self.y_mis[len(train_samples):]
        self.folds = kfold_split(len(train_samples), cfg.folds, cfg.seed)
        self.prepare(cfg.model)

    @cached_property
    def tokens(self) -> list[list[str]]:
        return [document_tokens(s) for s in self._samples]

    @cached_property
    def images(self) -> np.ndarray:
        cfg, samples = self.cfg, self._samples
        shape = (len(samples), 3, cfg.crop, cfg.crop)
        # a mapping of its own, unmapped when freed: the heap of a process
        # that builds one context after another would keep it resident;
        # shared, so that forked fill workers write into it
        buf = mmap.mmap(-1, DTYPE().itemsize * int(np.prod(shape)),
                        flags=mmap.MAP_SHARED)
        images = np.frombuffer(buf, DTYPE).reshape(shape)
        job = (images, samples, cfg)
        own, *rest = np.array_split(np.arange(len(samples)),
                                    min(cfg.jobs, len(samples)))
        if rest:  # fork: the workers inherit the mapping and the samples
            with ProcessPoolExecutor(
                    max_workers=len(rest),
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker, initargs=job) as pool:
                filled = pool.map(_normalize_rows, rest)
                _normalize_rows(own, job)
                list(filled)  # raises a worker's error, first block first
        else:
            _normalize_rows(own, job)
        return images

    def prepare(self, model_name: str) -> None:
        """Compute the modality `model_name` reads, if it is not yet: the
        tokens for a text encoder, the images for vit, neither for a
        fusion model, which reads its members' saved outputs."""
        if MODEL_MEMBERS[model_name] is None:
            getattr(self, "images" if model_name == "vit" else "tokens")

    def split_indices(self, fold: int) -> dict[str, np.ndarray]:
        """Pool rows of a fold's train, val and test splits."""
        n_train, val = len(self.train_samples), self.folds[fold]
        return {"train": np.setdiff1d(np.arange(n_train), val), "val": val,
                "test": np.arange(n_train, len(self.ids))}

    def fold_data(self, fold: int, inputs: tuple[np.ndarray, ...],
                  vocab_size: int | None = None) -> FoldData:
        """A fold's splits, the ids, labels and pool rows of each, over
        `inputs`, the model inputs of every pool row."""
        return FoldData(**{
            split: Split([self.ids[i] for i in idx], self.y_mis[idx],
                         self.y_sub[idx], idx)
            for split, idx in self.split_indices(fold).items()},
            inputs=inputs, vocab_size=vocab_size)

    def _build_fold(self, fold: int, model_name: str) -> FoldData:
        """A fold over the inputs of `model_name`'s encoder only, for every
        pool row: the images themselves for vit; token ids under the
        fold's vocabulary for bertc, and their adjacency blocks for gcan."""
        cfg = self.cfg
        if model_name == "vit":
            return self.fold_data(fold, (self.images,))
        train = self.split_indices(fold)["train"]  # sorted: the graph's order
        vocab = build_vocabulary([self.tokens[i] for i in train],
                                 cfg.min_freq, cfg.max_vocab)
        encoded = [encode_document(doc, vocab, cfg.seq_len)
                   for doc in self.tokens]
        seqs = np.stack([seq.ids for seq in encoded])
        if model_name == "bertc":
            return self.fold_data(fold, (seqs,), len(vocab.id_to_token))
        lengths = np.array([seq.true_length for seq in encoded])
        del encoded  # not held through the graph build's memory peak
        id_docs = [[vocab.lookup(t) for t in doc] for doc in self.tokens]
        unseen = np.setdiff1d(np.arange(len(seqs)), train)  # val, test
        train_docs = [id_docs[i] for i in train]
        graph = build_adjacency(
            train_docs, count_windows(train_docs, cfg.window_len), vocab)
        # each block written into the fold's array as it is gathered
        adj = np.empty((len(seqs), cfg.seq_len, cfg.seq_len), DTYPE)
        extract_document_adjacency(graph, seqs[train], lengths[train], adj,
                                   train)
        extract_unseen_adjacency(graph, seqs[unseen], lengths[unseen],
                                 [id_docs[i] for i in unseen], adj, unseen)
        return self.fold_data(fold, (seqs, adj), len(vocab.id_to_token))


def _narrowed(model):
    for p in model.params.values():  # every model trains in DTYPE
        p.data = p.data.astype(DTYPE)
    return model


def make_unimodal(kind: str, cfg: RunConfig, vocab_size: int, n_classes: int,
                  seed: int):
    att = AttentionConfig(d_att=cfg.d_att, n_heads=cfg.n_heads,
                          n_layers=cfg.n_layers, dropout=cfg.dropout)
    if kind == "vit":
        return _narrowed(ImageEncoder(cfg.crop, cfg.patch, n_classes, att,
                                      seed))
    if kind not in ("bertc", "gcan"):
        raise ValueError(f"unknown uni-modal model {kind!r}")
    text = TextEncoder if kind == "bertc" else GcanEncoder
    return _narrowed(text(vocab_size, cfg.seq_len, n_classes, att, seed))


class UnimodalTrainable:
    """Adapts an encoder and a fold's splits to the training loop."""

    def __init__(self, model, data: FoldData):
        self.model = model
        self.data = data
        self.params = model.params

    def _forward(self, inputs: list[np.ndarray], rng) -> ModelOutput:
        return self.model.forward(*inputs, rng=rng)

    def _forward_rows(self, rows: np.ndarray, rng) -> ModelOutput:
        return self._forward([a[rows] for a in self.data.inputs], rng)

    def forward_batch(self, idx, rng) -> ModelOutput:
        return self._forward_rows(self.data.train.rows[idx], rng)

    def eval_split(self, split: Split) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode probabilities and features, EVAL_BATCH rows at a time."""
        probs, feats = [], []
        with frozen(self.params):
            for start in range(0, len(split.rows), EVAL_BATCH):
                out = self._forward_rows(split.rows[start:start + EVAL_BATCH],
                                         None)
                probs.append(out.p.data)
                feats.append(out.f.data)
        return np.concatenate(probs), np.concatenate(feats)

    def eval_val(self) -> np.ndarray:
        return self.eval_split(self.data.val)[0]


class FusionTrainable(UnimodalTrainable):
    """Trains the fusion heads; the inputs are the members' saved outputs
    (p_1, f_1, ..., p_m, f_m) by pool row."""

    def _forward(self, inputs: list[np.ndarray], rng) -> ModelOutput:
        return self.model.forward(
            [ModelOutput(p=Tensor(p), f=Tensor(f))
             for p, f in zip(inputs[::2], inputs[1::2])], rng)

    def eval_val(self) -> np.ndarray:  # own method: perfbench wraps it here
        return self.eval_split(self.data.val)[0]


@dataclass
class FoldArtifacts:
    run: FoldRun
    records: list[EpochRecord]
    params: dict[str, np.ndarray]
    meta: dict[str, str]
    outputs: dict[str, SplitOutputs] | None  # per split; uni-modal only
    test_taskA_f1: float
    test_weighted_f1: float | None
    pid: int            # process that trained the fold
    start: float        # time.perf_counter() when the fold started
    wall_s: float
    cpu_s: float        # CPU time of the training process


def train_fold(ctx: CvContext, model_name: str, fold: int,
               out_root: str | None = None) -> FoldArtifacts:
    """Train one model on one fold; fusion members are read from out_root."""
    start, cpu_start = time.perf_counter(), time.process_time()
    cfg = ctx.cfg
    members = MODEL_MEMBERS[model_name]
    fusion = members is not None  # fusion heads: their own batch and rate
    fold_cfg = replace(
        cfg, seed=cfg.seed + fold,
        batch_size=cfg.fusion_batch_size if fusion else cfg.batch_size,
        base_lr=cfg.fusion_lr if fusion else cfg.base_lr)
    meta = {"model": model_name, "fold": str(fold), "setup": cfg.setup}

    if members is None:
        data = ctx._build_fold(fold, model_name)
        model = make_unimodal(model_name, cfg, data.vocab_size,
                              cfg.n_outputs, seed=fold_cfg.seed)
        trainable = UnimodalTrainable(model, data)
    else:
        if out_root is None:
            raise DependencyError("fusion training needs a run directory "
                                  "with trained member models")
        saved = []
        for member in members:
            digest, outputs = member_outputs(ctx, out_root, member,
                                             model_name, fold, cfg.n_outputs)
            meta[f"member_hash:{member}"] = digest
            saved.append(outputs)
        # each part's split rows in split order, put back in pool order
        pool_order = np.argsort(np.concatenate(
            list(ctx.split_indices(fold).values())))
        data = ctx.fold_data(fold, tuple(
            np.concatenate([getattr(out[split], part) for split in SPLITS],
                           dtype=DTYPE)[pool_order]
            for out in saved for part in ("p", "f")))
        model = _narrowed(FusionModel(
            [(out["train"].p.shape[1], out["train"].f.shape[1])
             for out in saved], cfg.n_outputs, cfg.dropout, seed=fold_cfg.seed))
        trainable = FusionTrainable(model, data)
    best_f1, params, records = train_model(
        trainable, data.train.y_mis, data.train.y_sub, data.val.y_mis,
        data.val.y_sub, fold_cfg)
    evaluated = data.splits() if members is None else {"test": data.test}
    outputs = {name: SplitOutputs(split.ids, *trainable.eval_split(split))
               for name, split in evaluated.items()}
    test_probs = outputs["test"].p

    task_a, weighted = task_scores(test_probs, data.test.y_mis,
                                   data.test.y_sub)
    meta["best_val_f1"] = f"{best_f1:.17g}"
    run = FoldRun(model_name=model_name, fold=fold, best_f1=best_f1,
                  test_probs=test_probs, test_ids=data.test.ids)
    return FoldArtifacts(run=run, records=records, params=params, meta=meta,
                         outputs=outputs if members is None else None,
                         test_taskA_f1=task_a, test_weighted_f1=weighted,
                         pid=os.getpid(), start=start,
                         wall_s=time.perf_counter() - start,
                         cpu_s=time.process_time() - cpu_start)


_worker_job: tuple = ()  # what a forked worker was started with


def _init_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _normalize_rows(rows: np.ndarray, job: tuple = ()) -> None:
    """Normalize the pixels of pool rows `rows`, read here, into the pool;
    `job` is (images, samples, cfg), in a fill worker the one it was
    started with."""
    images, samples, cfg = job or _worker_job
    for row in rows:
        images[row] = normalize_image(sample_pixels(samples[row]),
                                      cfg.resize, cfg.crop)


def _train_worker_fold(fold: int) -> FoldArtifacts:
    ctx, model_name, out_root = _worker_job
    return train_fold(ctx, model_name, fold, out_root)


def train_model_cv(ctx: CvContext, model_name: str, out_root: str,
                   jobs: int = 1, log=print) -> list[FoldArtifacts]:
    """Train all folds of one model and persist the run directory.

    The model's modality is computed here if the context has not yet,
    before any worker forks. With jobs > 1 the folds train in up to
    `jobs` worker processes, which are joined before this returns. The
    parent writes the run directory (`rundir.write_run`), so each file
    in the manifest is byte-identical to a jobs=1 run. A model directory
    made here is removed again if training fails before writing to it.
    """
    cfg = ctx.cfg
    model_dir = os.path.join(out_root, model_name)
    made = not os.path.isdir(model_dir)
    os.makedirs(model_dir, exist_ok=True)

    def logged(art: FoldArtifacts) -> FoldArtifacts:
        if log is not None:
            log(f"{model_name} fold {art.run.fold}: best val F1 "
                f"{art.run.best_f1:.4f}, test task-A F1 "
                f"{art.test_taskA_f1:.4f}")
        return art

    try:
        ctx.prepare(model_name)  # here, so forked workers inherit it
        start = time.perf_counter()
        if jobs > 1:
            # fork: workers inherit the context instead of unpickling a copy
            with ProcessPoolExecutor(
                    max_workers=min(jobs, cfg.folds),
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(ctx, model_name, out_root)) as pool:
                artifacts = [logged(art) for art in
                             pool.map(_train_worker_fold, range(cfg.folds))]
        else:
            artifacts = [logged(train_fold(ctx, model_name, fold, out_root))
                         for fold in range(cfg.folds)]
        write_run(model_dir, artifacts, start)
    except BaseException:
        if made and not os.listdir(model_dir):
            os.rmdir(model_dir)
        raise
    return artifacts
