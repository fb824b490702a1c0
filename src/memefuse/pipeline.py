"""Cross-validated training runs over a dataset, plus run-directory I/O.

A CvContext holds one pool of rows for a dataset, the training samples
then the test samples: their ids, tokenized documents, normalized images
and labels, and the fold splits as row indices into the pool. Every
model trains on a FoldData of the same shape, each split's ids, labels
and model inputs, and one train and eval loop serves them all.
`train_fold` builds a uni-modal fold with only what its model reads, and
drops it once trained: token ids for `bertc`, those and their adjacency
blocks for `gcan`, image rows for `vit`. A `gcan` fold's corpus graph
comes from its training documents only, and each split's adjacency
blocks are extracted in one batch; validation and test documents get
their blocks synthesized against the training statistics. After
training, a uni-modal fold saves its eval-mode outputs over the train,
val and test splits. A fusion fold's inputs are those saved outputs of
its members, (p_1, f_1, ..., p_m, f_m): fusion trains only its heads and
runs no member model.

A run directory holds per-fold checkpoints, member outputs and
predictions, runs.tsv, train_log.tsv and a manifest.tsv of their
SHA-256 hashes. Readers verify what they read against the manifest:
`load_fold_runs` the scores and predictions, fusion training each
member's checkpoint and outputs, whose sample ids must be the fusion
fold's. A predictions file records its own setup: setup A leaves the
sub-category columns empty.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .autodiff import Tensor, frozen
from .dataio import MODEL_MEMBERS, RunConfig
from .ensemble import FoldRun, derive_taskA_labels, derive_taskA_probs, \
    kfold_split, task_scores
from .fusion import FusionModel
from .nn import AttentionConfig, GcanEncoder, ImageEncoder, ModelOutput, \
    TextEncoder
from .preprocess import DataError, RawSample, clean_text, combine_texts, \
    encode_document, build_vocabulary, normalize_image, tokenize
from .textgraph import build_adjacency, count_windows, \
    extract_document_adjacency, extract_unseen_adjacency
from .training import EpochRecord, TrainConfig, train_model

EVAL_BATCH = 64


class DependencyError(RuntimeError):
    """A fusion model was requested before its members were trained."""


def document_tokens(sample: RawSample) -> list[str]:
    ocr = clean_text(sample.ocr_text)
    captions = [clean_text(c) for c in sample.captions]
    return tokenize(combine_texts(ocr, [c for c in captions if c]))


SPLITS = ("train", "val", "test")


@dataclass
class Split:
    ids: list[str]
    y_mis: np.ndarray
    y_sub: np.ndarray
    inputs: tuple[np.ndarray, ...]  # the model's forward arguments, by row


@dataclass
class FoldData:
    train: Split
    val: Split
    test: Split
    vocab_size: int | None      # None unless the model reads tokens

    def splits(self) -> dict[str, Split]:
        return {"train": self.train, "val": self.val, "test": self.test}


class CvContext:
    """One dataset's pool of rows, the training samples then the test
    samples, and its fold splits as row indices into the pool. A fold's
    inputs are an encoder's (`_build_fold`) or, for a fusion model, its
    members' saved outputs."""

    def __init__(self, train_samples: list[RawSample],
                 test_samples: list[RawSample], cfg: RunConfig):
        if cfg.folds > len(train_samples):
            raise DataError(f"cannot split {len(train_samples)} training "
                            f"samples into {cfg.folds} folds")
        self.cfg = cfg
        self.train_samples = train_samples
        samples = train_samples + test_samples
        self.ids = [s.id for s in samples]
        self.tokens = [document_tokens(s) for s in samples]
        self.images = np.empty((len(samples), 3, cfg.crop, cfg.crop))
        for row, s in enumerate(samples):
            self.images[row] = normalize_image(s.image, cfg.resize, cfg.crop)
        self.y_mis = np.array([s.labels.mis for s in samples], dtype=float)
        self.y_sub = np.stack([s.labels.sub_labels() for s in samples])
        # the test rows' labels; perfbench reads them by this name
        self.test_y_mis = self.y_mis[len(train_samples):]
        self.folds = kfold_split(len(train_samples), cfg.folds, cfg.seed)

    def split_indices(self, fold: int) -> dict[str, np.ndarray]:
        """Pool rows of a fold's train, val and test splits."""
        n_train = len(self.train_samples)
        mask = np.ones(n_train, dtype=bool)
        mask[self.folds[fold]] = False
        return {"train": np.flatnonzero(mask), "val": self.folds[fold],
                "test": np.arange(n_train, len(self.ids))}

    def fold_data(self, fold: int, inputs: dict[str, tuple[np.ndarray, ...]],
                  vocab_size: int | None = None) -> FoldData:
        """A fold's splits: the ids and labels of their rows, with
        `inputs[split]` as the split's model inputs."""
        return FoldData(**{
            split: Split([self.ids[i] for i in idx], self.y_mis[idx],
                         self.y_sub[idx], inputs[split])
            for split, idx in self.split_indices(fold).items()},
            vocab_size=vocab_size)

    def _build_fold(self, fold: int, model_name: str) -> FoldData:
        """A fold's splits with the inputs of `model_name`'s encoder only:
        token ids for bertc, token ids and adjacency blocks for gcan,
        images for vit."""
        cfg = self.cfg
        indices = self.split_indices(fold)
        if model_name == "vit":
            return self.fold_data(fold, {split: (self.images[idx],)
                                         for split, idx in indices.items()})
        vocab = build_vocabulary([self.tokens[i] for i in indices["train"]],
                                 cfg.min_freq, cfg.max_vocab)
        inputs, lengths, id_docs = {}, {}, {}
        for split, idx in indices.items():
            encoded = [encode_document(self.tokens[i], vocab, cfg.seq_len)
                       for i in idx]
            inputs[split] = (np.stack([seq.ids for seq in encoded]),)
            if model_name == "gcan":
                lengths[split] = np.array([seq.true_length
                                           for seq in encoded])
                id_docs[split] = [[vocab.lookup(t) for t in self.tokens[i]]
                                  for i in idx]
        if model_name == "gcan":
            stats = count_windows(id_docs["train"], cfg.window_len)
            graph = build_adjacency(id_docs["train"], stats, vocab)
            inputs["train"] += (extract_document_adjacency(
                graph, inputs["train"][0], lengths["train"]),)
            for split in ("val", "test"):
                inputs[split] += (extract_unseen_adjacency(
                    graph, inputs[split][0], lengths[split],
                    id_docs[split]),)
        return self.fold_data(fold, inputs, len(vocab.id_to_token))


def _attention_config(cfg: RunConfig) -> AttentionConfig:
    return AttentionConfig(d_att=cfg.d_att, n_heads=cfg.n_heads,
                           n_layers=cfg.n_layers, dropout=cfg.dropout)


def make_unimodal(kind: str, cfg: RunConfig, vocab_size: int, n_classes: int,
                  seed: int):
    att = _attention_config(cfg)
    if kind == "bertc":
        return TextEncoder(vocab_size, cfg.seq_len, n_classes, att, seed)
    if kind == "gcan":
        return GcanEncoder(vocab_size, cfg.seq_len, n_classes, att, seed)
    if kind == "vit":
        return ImageEncoder(cfg.crop, cfg.patch, n_classes, att, seed)
    raise ValueError(f"unknown uni-modal model {kind!r}")


class UnimodalTrainable:
    """Adapts an encoder and a fold's splits to the training loop."""

    def __init__(self, model, data: FoldData):
        self.model = model
        self.data = data
        self.params = model.params

    def _forward(self, inputs: list[np.ndarray], rng) -> ModelOutput:
        return self.model.forward(*inputs, rng=rng)

    def forward_batch(self, idx, rng) -> ModelOutput:
        return self._forward([a[idx] for a in self.data.train.inputs], rng)

    def eval_split(self, split: Split) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode probabilities and features, EVAL_BATCH rows at a time."""
        probs, feats = [], []
        n = len(split.ids)
        with frozen(self.params):
            for start in range(0, n, EVAL_BATCH):
                idx = np.arange(start, min(start + EVAL_BATCH, n))
                out = self._forward([a[idx] for a in split.inputs], None)
                probs.append(out.p.data)
                feats.append(out.f.data)
        return np.concatenate(probs), np.concatenate(feats)

    def eval_val(self) -> np.ndarray:
        return self.eval_split(self.data.val)[0]


class FusionTrainable(UnimodalTrainable):
    """Trains the fusion heads; a split's inputs are the members' saved
    outputs (p_1, f_1, ..., p_m, f_m)."""

    def _forward(self, inputs: list[np.ndarray], rng) -> ModelOutput:
        return self.model.forward(
            [ModelOutput(p=Tensor(p), f=Tensor(f))
             for p, f in zip(inputs[::2], inputs[1::2])], rng)

    def eval_val(self) -> np.ndarray:  # own method: perfbench wraps it here
        return self.eval_split(self.data.val)[0]


def _train_config(cfg: RunConfig, fold: int, fusion: bool) -> TrainConfig:
    return TrainConfig(
        setup=cfg.setup, epochs=cfg.epochs,
        batch_size=cfg.fusion_batch_size if fusion else cfg.batch_size,
        base_lr=cfg.fusion_lr if fusion else cfg.base_lr,
        warmup_epochs=cfg.warmup_epochs, patience=cfg.patience,
        mix=(cfg.loss_mix_l1, cfg.loss_mix_l2), seed=cfg.seed + fold)


@dataclass
class SplitOutputs:
    """A uni-modal model's eval-mode outputs over one split."""
    ids: list[str]
    p: np.ndarray               # (N, n_outputs) probabilities
    f: np.ndarray               # (N, d_att) features


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


def setup_of(width: int) -> str:
    """The setup whose models have `width` outputs per sample."""
    return {1: "A", 4: "B"}.get(width, f"with {width} outputs")


def write_outputs(path: str, outputs: dict[str, SplitOutputs]) -> None:
    """A checkpoint file with arrays `<split>.p` and `<split>.f`; the
    metadata `<split>.ids` holds the split's sample ids joined by tabs."""
    arrays, meta = {}, {}
    for split, out in outputs.items():
        arrays[f"{split}.p"], arrays[f"{split}.f"] = out.p, out.f
        meta[f"{split}.ids"] = "\t".join(out.ids)
    ckpt.save_checkpoint(path, arrays, meta)


def read_outputs(path: str) -> dict[str, SplitOutputs]:
    arrays, meta = ckpt.load_checkpoint(path)
    try:
        return {split: SplitOutputs(ids=meta[f"{split}.ids"].split("\t"),
                                    p=arrays[f"{split}.p"],
                                    f=arrays[f"{split}.f"])
                for split in SPLITS}
    except KeyError as exc:
        raise DataError(f"{path} has no {exc.args[0]} entry") from exc


def member_outputs(ctx: CvContext, out_root: str, member: str, fusion: str,
                   fold: int, n_outputs: int
                   ) -> tuple[str, dict[str, SplitOutputs]]:
    """A member's checkpoint hash and saved outputs for `fold`.

    Both files are verified against the member's manifest; the outputs
    must cover the fold's pool rows in order and have `n_outputs`
    columns.
    """
    member_dir = os.path.join(out_root, member)
    name = f"fold{fold}.ckpt"
    if not os.path.exists(os.path.join(member_dir, name)):
        raise DependencyError(
            f"member model {member!r} has no checkpoint for fold "
            f"{fold}; train it before {fusion!r}")
    manifest = read_manifest(member_dir)
    _verified(member_dir, name, manifest)
    outputs_name = f"fold{fold}_outputs.ckpt"
    if outputs_name not in manifest:
        raise DependencyError(
            f"member model {member!r} lists no {outputs_name} in "
            f"{os.path.join(member_dir, 'manifest.tsv')}: it was trained "
            f"before members saved their outputs; retrain {member!r}")
    outputs_path = _verified(member_dir, outputs_name, manifest)
    outputs = read_outputs(outputs_path)
    for split, idx in ctx.split_indices(fold).items():
        if outputs[split].ids != [ctx.ids[i] for i in idx]:
            raise DependencyError(
                f"member model {member!r} was trained on another fold "
                f"split: the {split} ids of {outputs_path} are not fold "
                f"{fold}'s; retrain {member!r} with this seed and folds")
    width = outputs["train"].p.shape[1]
    if width != n_outputs:
        raise DependencyError(
            f"member model {member!r} was trained in setup "
            f"{setup_of(width)} ({outputs_path}), but {fusion!r} trains "
            f"in setup {setup_of(n_outputs)}; retrain {member!r}")
    return manifest[name], outputs


def train_fold(ctx: CvContext, model_name: str, fold: int,
               out_root: str | None = None) -> FoldArtifacts:
    """Train one model on one fold; fusion members are read from out_root."""
    start, cpu_start = time.perf_counter(), time.process_time()
    cfg = ctx.cfg
    members = MODEL_MEMBERS[model_name]
    tconf = _train_config(cfg, fold, fusion=members is not None)
    meta = {"model": model_name, "fold": str(fold), "setup": cfg.setup}

    if members is None:
        data = ctx._build_fold(fold, model_name)
        model = make_unimodal(model_name, cfg, data.vocab_size,
                              tconf.n_outputs, seed=tconf.seed)
        trainable = UnimodalTrainable(model, data)
    else:
        if out_root is None:
            raise DependencyError("fusion training needs a run directory "
                                  "with trained member models")
        saved = []
        for member in members:
            digest, outputs = member_outputs(ctx, out_root, member,
                                             model_name, fold, tconf.n_outputs)
            meta[f"member_hash:{member}"] = digest
            saved.append(outputs)
        data = ctx.fold_data(fold, {
            split: tuple(a for out in saved
                         for a in (out[split].p, out[split].f))
            for split in SPLITS})
        model = FusionModel([(out["train"].p.shape[1], out["train"].f.shape[1])
                             for out in saved],
                            tconf.n_outputs, cfg.dropout, seed=tconf.seed)
        trainable = FusionTrainable(model, data)
    best_f1, params, records = train_model(
        trainable, data.train.y_mis, data.train.y_sub, data.val.y_mis,
        data.val.y_sub, tconf)
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


def write_predictions(path: str, ids: list[str], probs: np.ndarray) -> None:
    """TSV with per-class probabilities and thresholded labels.

    Four probability columns are setup B: mis is their max, its label the
    OR of the sub-labels. One column is setup A: it fills only p_mis and
    label_mis, and the sub-category columns stay empty.
    """
    labels = (probs >= 0.5).astype(int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tp_shm\tp_ste\tp_obj\tp_vio\tp_mis\t"
                 "label_shm\tlabel_ste\tlabel_obj\tlabel_vio\tlabel_mis\n")
        for sid, p, lab in zip(ids, probs, labels, strict=True):
            if len(p) == 1:
                sub_p, sub_l, p_mis, l_mis = [""] * 4, [""] * 4, p[0], lab[0]
            else:
                sub_p, sub_l = [f"{v:.17g}" for v in p], [str(v) for v in lab]
                p_mis, l_mis = derive_taskA_probs(p), derive_taskA_labels(lab)
            fh.write("\t".join([sid, *sub_p, f"{p_mis:.17g}", *sub_l,
                                str(l_mis)]) + "\n")


def read_predictions(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (ids, probabilities, labels).

    Setup B gives the sub-category probabilities (N, 4) and the labels
    (N, 5) including mis; setup A gives p_mis (N, 1) and label_mis (N, 1).
    """
    ids, probs, labels = [], [], []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            setup_b = parts[1] != ""
            ids.append(parts[0])
            probs.append([float(v) for v in
                          (parts[1:5] if setup_b else parts[5:6])])
            labels.append([int(v) for v in
                           (parts[6:11] if setup_b else parts[10:11])])
    return ids, np.array(probs), np.array(labels, dtype=int)


def write_manifest(directory: str, files) -> None:
    """manifest.tsv: name, role and SHA-256 of each (name, role) in order."""
    with open(os.path.join(directory, "manifest.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("file\trole\tsha256\n")
        for name, role in files:
            digest = ckpt.file_hash(os.path.join(directory, name))
            fh.write(f"{name}\t{role}\t{digest}\n")


def read_manifest(directory: str) -> dict[str, str]:
    """File name -> SHA-256 recorded in the directory's manifest.tsv."""
    path = os.path.join(directory, "manifest.tsv")
    if not os.path.exists(path):
        raise DataError(f"{path} is missing, so {directory} cannot be "
                        f"verified")
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {name: digest for name, _, digest in
                (line.rstrip("\n").split("\t") for line in fh)}


def _verified(directory: str, name: str, manifest: dict[str, str]) -> str:
    """The file's path, once its hash matches its manifest entry."""
    path = os.path.join(directory, name)
    if name not in manifest:
        raise DataError(f"{path} has no entry in manifest.tsv")
    if ckpt.file_hash(path) != manifest[name]:
        raise DataError(f"{path} does not match its SHA-256 in manifest.tsv")
    return path


_worker_job: tuple = ()  # (ctx, model_name, out_root) in a fold worker


def _init_fold_worker(ctx: CvContext, model_name: str, out_root: str):
    global _worker_job
    _worker_job = (ctx, model_name, out_root)


def _train_worker_fold(fold: int) -> FoldArtifacts:
    ctx, model_name, out_root = _worker_job
    return train_fold(ctx, model_name, fold, out_root)


def train_model_cv(ctx: CvContext, model_name: str, out_root: str,
                   jobs: int = 1, log=print) -> list[FoldArtifacts]:
    """Train all folds of one model and persist the run directory.

    With jobs > 1 the folds train in up to `jobs` worker processes, which
    are joined before this returns. The parent writes every file, so each
    file in the manifest is byte-identical to a jobs=1 run; fold timings
    go to events.jsonl, outside the manifest.
    """
    cfg = ctx.cfg
    model_dir = os.path.join(out_root, model_name)
    os.makedirs(model_dir, exist_ok=True)
    start = time.perf_counter()

    def logged(art: FoldArtifacts) -> FoldArtifacts:
        if log is not None:
            log(f"{model_name} fold {art.run.fold}: best val F1 "
                f"{art.run.best_f1:.4f}, test task-A F1 "
                f"{art.test_taskA_f1:.4f}")
        return art

    if jobs > 1:
        # fork: workers inherit the context instead of unpickling a copy
        with ProcessPoolExecutor(
                max_workers=min(jobs, cfg.folds),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_fold_worker,
                initargs=(ctx, model_name, out_root)) as pool:
            artifacts = [logged(art) for art in
                         pool.map(_train_worker_fold, range(cfg.folds))]
    else:
        artifacts = [logged(train_fold(ctx, model_name, fold, out_root))
                     for fold in range(cfg.folds)]

    files = {}
    log_path = os.path.join(model_dir, "train_log.tsv")
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("fold\tepoch\ttrain_loss\tval_f1\tlr\n")
        for fold, art in enumerate(artifacts):
            for r in art.records:
                fh.write(f"{fold}\t{r.epoch}\t{r.train_loss:.17g}\t"
                         f"{r.val_f1:.17g}\t{r.lr:.17g}\n")
    files["train_log.tsv"] = "log"

    runs_path = os.path.join(model_dir, "runs.tsv")
    with open(runs_path, "w", encoding="utf-8") as fh:
        fh.write("fold\tbest_val_f1\ttest_taskA_f1\ttest_weighted_f1\n")
        for fold, art in enumerate(artifacts):
            weighted = "" if art.test_weighted_f1 is None \
                else f"{art.test_weighted_f1:.17g}"
            fh.write(f"{fold}\t{art.run.best_f1:.17g}\t"
                     f"{art.test_taskA_f1:.17g}\t{weighted}\n")
    files["runs.tsv"] = "scores"

    for fold, art in enumerate(artifacts):
        name = f"fold{fold}.ckpt"
        ckpt.save_checkpoint(os.path.join(model_dir, name), art.params,
                             art.meta)
        files[name] = "checkpoint"
        if art.outputs is not None:
            out_name = f"fold{fold}_outputs.ckpt"
            write_outputs(os.path.join(model_dir, out_name), art.outputs)
            files[out_name] = "outputs"
        pred_name = f"fold{fold}_preds.tsv"
        write_predictions(os.path.join(model_dir, pred_name),
                          art.run.test_ids, art.run.test_probs)
        files[pred_name] = "predictions"
    write_manifest(model_dir, sorted(files.items()))

    with open(os.path.join(model_dir, "events.jsonl"), "w",
              encoding="utf-8") as fh:
        for fold, art in enumerate(artifacts):
            fh.write(json.dumps({
                "event": "fold", "fold": fold, "pid": art.pid,
                "start_s": art.start - start, "wall_s": art.wall_s,
                "cpu_s": art.cpu_s}) + "\n")
    return artifacts


def load_fold_runs(out_root: str, model_name: str) -> list[FoldRun]:
    """Reassemble FoldRuns (validation F1, test ids and probabilities).

    runs.tsv and each fold's predictions are verified against the
    manifest before they are read; the predictions carry the setup.
    """
    model_dir = os.path.join(out_root, model_name)
    if not os.path.exists(os.path.join(model_dir, "runs.tsv")):
        raise DependencyError(f"no trained runs for {model_name!r} under "
                              f"{out_root}")
    manifest = read_manifest(model_dir)
    runs = []
    with open(_verified(model_dir, "runs.tsv", manifest),
              encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.split("\t")
            fold, best = int(parts[0]), float(parts[1])
            ids, probs, _ = read_predictions(_verified(
                model_dir, f"fold{fold}_preds.tsv", manifest))
            runs.append(FoldRun(model_name=model_name, fold=fold,
                                best_f1=best, test_probs=probs, test_ids=ids))
    return runs
