"""A model's run directory, whose files only this module names and reads.

A run directory holds per-fold checkpoints, member outputs and
predictions, runs.tsv, train_log.tsv and a manifest.tsv of their
SHA-256 hashes. Readers refuse a directory that holds a file its
manifest does not list, and verify what they read against the manifest:
`load_fold_runs` the scores and predictions, and a fusion run's member
hashes against the manifest of each member in the same tree; fusion
training each member's checkpoint and outputs, whose sample ids must be
the fusion fold's. A predictions file records its own setup: setup A
leaves the sub-category columns empty.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import checkpoint as ckpt
from .dataio import MODEL_MEMBERS, open_text
from .ensemble import FoldRun, derive_taskA_labels, derive_taskA_probs
from .preprocess import DataError

if TYPE_CHECKING:
    from .pipeline import CvContext, FoldArtifacts

SPLITS = ("train", "val", "test")
UNLISTED = {"manifest.tsv", "events.jsonl"}  # the files no manifest lists
FOLD_FILES = {"checkpoint": "fold{}.ckpt", "outputs": "fold{}_outputs.ckpt",
              "predictions": "fold{}_preds.tsv"}  # by manifest role


class DependencyError(RuntimeError):
    """A fusion model was requested before its members were trained."""


@dataclass
class SplitOutputs:
    """A uni-modal model's eval-mode outputs over one split."""
    ids: list[str]
    p: np.ndarray               # (N, n_outputs) probabilities
    f: np.ndarray               # (N, d_att) features


def setup_of(width: int) -> str:
    """The setup whose models have `width` outputs per sample."""
    return {1: "A", 4: "B"}.get(width, f"with {width} outputs")


def fold_file(role: str, fold: int, directory: str = "") -> str:
    """Fold `fold`'s file of manifest role `role`, in `directory` if given."""
    return os.path.join(directory, FOLD_FILES[role].format(fold))


def _write_tsv(path: str, header, rows) -> None:
    """Tab-separated header and rows: a string as it is, None empty and a
    number to 17 significant digits, which read back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join("" if v is None else v if isinstance(v, str)
                               else f"{v:.17g}" for v in row) + "\n")


def _read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the rows' fields; a row with another field count
    than the header is a DataError naming `path:line`."""
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: {len(row)} tab-separated "
                            f"fields where the header has {len(header)}")
    return header, rows


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
    name = fold_file("checkpoint", fold)
    if not os.path.exists(os.path.join(member_dir, name)):
        raise DependencyError(
            f"member model {member!r} has no checkpoint for fold "
            f"{fold}; train it before {fusion!r}")
    manifest = read_manifest(member_dir)
    _verified(member_dir, name, manifest)
    outputs_name = fold_file("outputs", fold)
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


def write_predictions(path: str, ids: list[str], probs: np.ndarray) -> None:
    """TSV with per-class probabilities and thresholded labels.

    Four probability columns are setup B: mis is their max, its label the
    OR of the sub-labels. One column is setup A: it fills only p_mis and
    label_mis, and the sub-category columns stay empty.
    """
    labels = (probs >= 0.5).astype(int)
    p_mis, l_mis = derive_taskA_probs(probs), derive_taskA_labels(labels)
    if probs.shape[1] == 1:  # setup A
        probs = labels = [[None] * 4] * len(probs)
    _write_tsv(path, "id p_shm p_ste p_obj p_vio p_mis label_shm label_ste "
                     "label_obj label_vio label_mis".split(),
               ([sid, *p, pm, *lab, lm] for sid, p, pm, lab, lm
                in zip(ids, probs, p_mis, labels, l_mis, strict=True)))


def read_predictions(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (ids, probabilities, labels).

    Setup B gives the sub-category probabilities (N, 4) and the labels
    (N, 5) including mis; setup A gives p_mis (N, 1) and label_mis (N, 1).
    """
    ids, probs, labels = [], [], []
    for parts in _read_tsv(path)[1]:
        setup_b = parts[1] != ""
        ids.append(parts[0])
        probs.append([float(v) for v in
                      (parts[1:5] if setup_b else parts[5:6])])
        labels.append([int(v) for v in
                       (parts[6:11] if setup_b else parts[10:11])])
    return ids, np.array(probs), np.array(labels, dtype=int)


def write_manifest(directory: str, files) -> None:
    """manifest.tsv: name, role and SHA-256 of each (name, role) in order."""
    _write_tsv(os.path.join(directory, "manifest.tsv"),
               ("file", "role", "sha256"),
               ([name, role, ckpt.file_hash(os.path.join(directory, name))]
                for name, role in files))


def read_manifest(directory: str) -> dict[str, str]:
    """File name -> SHA-256 recorded in the directory's manifest.tsv; a
    file there that it does not list (but UNLISTED), such as a fold that
    an earlier run of more folds left, is a DataError naming it."""
    path = os.path.join(directory, "manifest.tsv")
    if not os.path.exists(path):
        raise DataError(f"{path} is missing, so {directory} cannot be "
                        f"verified")
    manifest = {name: digest for name, _, digest in _read_tsv(path)[1]}
    unlisted = sorted(set(os.listdir(directory)) - set(manifest) - UNLISTED)
    if unlisted:
        raise DataError(f"{os.path.join(directory, unlisted[0])} has no entry "
                        f"in manifest.tsv; remove it or train into a new "
                        f"directory")
    return manifest


def _verified(directory: str, name: str, manifest: dict[str, str]) -> str:
    """The file's path, once its hash matches its manifest entry."""
    path = os.path.join(directory, name)
    if name not in manifest:
        raise DataError(f"{path} has no entry in manifest.tsv")
    if ckpt.file_hash(path) != manifest[name]:
        raise DataError(f"{path} does not match its SHA-256 in manifest.tsv")
    return path


def read_scores(path: str, column: str) -> list[float]:
    """A runs.tsv column, one score per fold in fold order; a row whose
    score is not a number in [0, 1] is a DataError naming `path:line`, and
    a file that lists no fold one naming `path`."""
    header, rows = _read_tsv(path)
    if column not in header:
        raise DataError(f"{path} has no {column} column")
    if not rows:
        raise DataError(f"{path} lists no fold")
    at = header.index(column)
    for lineno, row in enumerate(rows, start=2):
        try:
            if 0 <= float(row[at]) <= 1:
                continue
        except ValueError:
            pass
        raise DataError(f"{path}:{lineno}: no {column} score in [0, 1] in "
                        f"{row[at]!r}")
    return [float(row[at]) for row in rows]


def write_run(model_dir: str, artifacts: list[FoldArtifacts],
              start: float) -> None:
    """Persist a model's folds in `model_dir`, hashing each file once, and
    their timings from the time.perf_counter() `start` in events.jsonl."""
    _write_tsv(os.path.join(model_dir, "train_log.tsv"),
               ("fold", "epoch", "train_loss", "val_f1", "lr"),
               ([fold, r.epoch, r.train_loss, r.val_f1, r.lr]
                for fold, art in enumerate(artifacts) for r in art.records))
    _write_tsv(os.path.join(model_dir, "runs.tsv"),
               ("fold", "best_val_f1", "test_taskA_f1", "test_weighted_f1"),
               ([fold, art.run.best_f1, art.test_taskA_f1,
                 art.test_weighted_f1] for fold, art in enumerate(artifacts)))
    files = [("train_log.tsv", "log"), ("runs.tsv", "scores")]
    for fold, art in enumerate(artifacts):
        ckpt.save_checkpoint(fold_file("checkpoint", fold, model_dir),
                             art.params, art.meta)
        if art.outputs is not None:
            write_outputs(fold_file("outputs", fold, model_dir), art.outputs)
        write_predictions(fold_file("predictions", fold, model_dir),
                          art.run.test_ids, art.run.test_probs)
        files += [(fold_file(role, fold), role) for role in FOLD_FILES
                  if role != "outputs" or art.outputs is not None]
    write_manifest(model_dir, sorted(files))

    with open(os.path.join(model_dir, "events.jsonl"), "w",
              encoding="utf-8") as fh:
        for fold, art in enumerate(artifacts):
            fh.write(json.dumps({
                "event": "fold", "fold": fold, "pid": art.pid,
                "start_s": art.start - start, "wall_s": art.wall_s,
                "cpu_s": art.cpu_s}) + "\n")


def load_fold_runs(out_root: str, model_name: str) -> list[FoldRun]:
    """Reassemble FoldRuns (validation F1, test ids and probabilities).

    runs.tsv and each fold's predictions are verified against the
    manifest before they are read; the predictions carry the setup. A
    fusion run whose members in `out_root` were retrained since is
    refused.
    """
    model_dir = os.path.join(out_root, model_name)
    runs_tsv = os.path.join(model_dir, "runs.tsv")
    if not os.path.exists(runs_tsv):
        raise DependencyError(f"no trained runs for {model_name!r}: "
                              f"{runs_tsv} does not exist")
    manifest = read_manifest(model_dir)
    scores = read_scores(_verified(model_dir, "runs.tsv", manifest),
                         "best_val_f1")
    runs = []
    for fold, best in enumerate(scores):
        if MODEL_MEMBERS[model_name] is not None:
            _check_member_hashes(out_root, model_name, fold, manifest)
        ids, probs, _ = read_predictions(_verified(
            model_dir, fold_file("predictions", fold), manifest))
        runs.append(FoldRun(model_name=model_name, fold=fold, best_f1=best,
                            test_probs=probs, test_ids=ids))
    return runs


def _check_member_hashes(out_root: str, fusion: str, fold: int,
                         manifest: dict[str, str]) -> None:
    """Refuses a fusion fold whose recorded hash of a member's checkpoint
    differs from the one in that member's manifest, for each member whose
    directory is in `out_root`: a member retrained since leaves the
    fusion run stale."""
    name = fold_file("checkpoint", fold)
    fusion_dir = os.path.join(out_root, fusion)
    _, meta = ckpt.load_checkpoint(_verified(fusion_dir, name, manifest))
    for member in MODEL_MEMBERS[fusion]:
        member_dir = os.path.join(out_root, member)
        if not os.path.isdir(member_dir):
            continue
        recorded = meta.get(f"member_hash:{member}")
        current = read_manifest(member_dir).get(name)
        if recorded != current:
            raise DependencyError(
                f"{fusion_dir} fold {fold} was trained on member {member!r} "
                f"with {name} SHA-256 {recorded}, but {member_dir} now "
                f"lists {current}; retrain {fusion!r}")
