"""Spans and exact counters recorded from outside the memefuse package.

The tracer wraps the public functions and methods each memefuse module
exposes, at the place where their caller looks them up: `pipeline`
imports `build_adjacency`, `train_model` and the preprocessing helpers by
name, so those wrappers go into `memefuse.pipeline`'s namespace; methods
are wrapped on their class; `checkpoint` functions are reached as module
attributes. Nothing under `src/` changes.

Two modes share the same wrappers. In counting mode a wrapper only
counts calls and records the exact counters. In timing mode it also
records a span per call: name, start, end, parent span, fold (the
request id) and thread. Spans stay in memory and are written out by the
caller when the run ends. Stacks of open spans are per thread, so the
fold threads of `jobs > 1` nest correctly; a worker thread's outermost
span takes the span open on the main thread as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dataio", "preprocess", "pipeline", "textgraph", "nn", "autodiff",
          "training", "fusion", "checkpoint")

# per-layer metric -> span whose summed duration it reports
TIME_METRICS = {
    "dataio.ingest_s": "dataio.ingest",
    "pipeline.context_s": "pipeline.context",
    "pipeline.fold_build_s": "pipeline.fold_build",
    "textgraph.count_windows_s": "textgraph.count_windows",
    "textgraph.build_adjacency_s": "textgraph.build_adjacency",
    "textgraph.doc_block_s": "textgraph.doc_block",
    "textgraph.unseen_block_s": "textgraph.unseen_block",
    "nn.train_forward_s": "nn.train_forward",
    "nn.eval_forward_s": "nn.eval_forward",
    "autodiff.backward_s": "autodiff.backward",
    "training.loss_s": "training.loss",
    "training.adamw_s": "training.adamw",
    "training.val_eval_s": "training.val_eval",
    "fusion.forward_s": "fusion.forward",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.hash_s": "checkpoint.hash",
}

# per-layer metric -> span whose number of calls it reports
COUNT_METRICS = {
    "pipeline.fold_builds": "pipeline.fold_build",
    "textgraph.doc_blocks": "textgraph.doc_block",
    "textgraph.unseen_blocks": "textgraph.unseen_block",
    "nn.train_forwards": "nn.train_forward",
    "nn.eval_forwards": "nn.eval_forward",
    "autodiff.backwards": "autodiff.backward",
    "training.adamw_steps": "training.adamw",
    "fusion.forwards": "fusion.forward",
}

# counters that must repeat exactly across repetitions and modes
EXACT_COUNTERS = ("autodiff.tape_nodes_per_step", "training.epochs_run",
                  "textgraph.doc_blocks", "textgraph.unseen_blocks",
                  "pipeline.fold_builds", "training.adamw_steps",
                  "checkpoint.bytes_written")

PREPROCESS_NAMES = ("clean_text", "combine_texts", "tokenize",
                    "normalize_image", "build_vocabulary", "encode_document")


def tape_nodes(loss) -> int:
    """Distinct tensors reachable from `loss` through its parent links."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "_parents", ()))
    return len(seen)


def covered_length(start: float, end: float,
                   intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    def __init__(self, memefuse_modules, timing: bool):
        self.mods = memefuse_modules
        self.timing = timing
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.reset()

    # -- per-repetition state ------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._counts: dict[str, int] = defaultdict(int)
        self._tape: dict = {}            # fold -> tape size of its first loss
        self._graph_folds: list = []     # fold of each corpus graph built
        self._adj_folds: set = set()     # folds whose encoder read adjacency
        self._epochs: list[tuple[int, int]] = []  # (epochs run, best epoch)
        self._bytes = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        self._local.stack = self._main_stack
        for owner, attr, name, before, after in self._targets():
            # a class is patched only where it defines the method itself,
            # so an inherited method is never wrapped twice
            if owner is None or (attr not in owner.__dict__
                                 if isinstance(owner, type)
                                 else not hasattr(owner, attr)):
                self.missing.append(f"{getattr(owner, '__name__', '?')}."
                                    f"{attr}")
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _targets(self):
        m = self.mods
        pipe = m.pipeline
        out = [(m.dataio, "ingest", "dataio.ingest", None, None)]
        out += [(pipe, fn, f"preprocess.{fn}", None, None)
                for fn in PREPROCESS_NAMES]
        cv = getattr(pipe, "CvContext", None)
        out += [
            (cv, "__init__", "pipeline.context", None, None),
            (cv, "_build_fold", "pipeline.fold_build", None, None),
            (pipe, "train_model_cv", "pipeline.train_model_cv", None, None),
            (pipe, "train_fold", "pipeline.train_fold", self._enter_fold,
             self._leave_fold),
            (pipe, "count_windows", "textgraph.count_windows", None, None),
            (pipe, "build_adjacency", "textgraph.build_adjacency", None,
             self._graph_built),
            (pipe, "extract_document_adjacency", "textgraph.doc_block",
             None, None),
            (pipe, "extract_unseen_adjacency", "textgraph.unseen_block",
             None, None),
        ]
        for cls_name in ("TextEncoder", "GcanEncoder", "ImageEncoder"):
            out.append((getattr(m.nn, cls_name, None), "forward",
                        self._forward_name, self._encoder_forward, None))
        out += [
            (m.autodiff.Tensor, "backward", "autodiff.backward",
             self._count_tape, None),
            (pipe, "train_model", "training.train_model", None,
             self._trained),
            (m.training, "setup_loss", "training.loss", None, None),
            (getattr(m.training, "AdamW", None), "step", "training.adamw",
             None, None),
            (getattr(pipe, "UnimodalTrainable", None), "eval_val",
             "training.val_eval", None, None),
            (getattr(pipe, "FusionTrainable", None), "eval_val",
             "training.val_eval", None, None),
            (getattr(m.fusion, "FusionModel", None), "forward",
             "fusion.forward", None, None),
            (m.checkpoint, "save_checkpoint", "checkpoint.save", None,
             self._saved),
            (m.checkpoint, "load_checkpoint", "checkpoint.load", None, None),
            (m.checkpoint, "file_hash", "checkpoint.hash", None, None),
            (m.checkpoint, "average_checkpoints", "checkpoint.average", None,
             None),
        ]
        return out

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            if tracer.timing:
                result = tracer._timed(span, fn, args, kwargs)
            else:
                with tracer._lock:
                    tracer._counts[span] += 1
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _timed(self, span, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, span, start, end, parent, self._fold(),
                               threading.get_ident()))

    # -- hooks -------------------------------------------------------------

    def _fold(self):
        return getattr(self._local, "fold", None)

    def _enter_fold(self, args, kwargs):
        self._local.fold = kwargs.get("fold", args[2] if len(args) > 2
                                      else None)

    def _leave_fold(self, args, kwargs, result):
        self._local.fold = None

    @staticmethod
    def _forward_name(args, kwargs) -> str:
        values = list(args[1:]) + list(kwargs.values())
        train = any(isinstance(v, np.random.Generator) for v in values)
        return "nn.train_forward" if train else "nn.eval_forward"

    def _encoder_forward(self, args, kwargs):
        adj = kwargs.get("adj", args[2] if len(args) > 2 else None)
        if isinstance(adj, np.ndarray):
            with self._lock:
                self._adj_folds.add(self._fold())

    def _graph_built(self, args, kwargs, result):
        with self._lock:
            self._graph_folds.append(self._fold())

    def _count_tape(self, args, kwargs):
        fold = self._fold()
        if fold not in self._tape:
            nodes = tape_nodes(args[0])
            with self._lock:
                self._tape.setdefault(fold, nodes)

    def _trained(self, args, kwargs, result):
        records = result[2]
        if not records:
            return
        scores = [r.val_f1 for r in records]
        best = scores.index(max(scores)) + 1
        with self._lock:
            self._epochs.append((len(records), best))

    def _saved(self, args, kwargs, result):
        size = os.path.getsize(args[0] if args else kwargs["path"])
        with self._lock:
            self._bytes += size

    # -- metrics -----------------------------------------------------------

    def rep_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of the repetition since the last reset.

        Times are None in counting mode; a metric whose layer did no work
        in this repetition is None (not applicable).
        """
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        if self.timing:
            for _, name, start, end, *_ in self.spans:
                calls[name] += 1
                busy[name] += end - start
        else:
            calls.update(self._counts)
        out: dict[str, float | None] = {}
        for metric, span in TIME_METRICS.items():
            out[metric] = busy[span] if self.timing and calls[span] else None
        for metric, span in COUNT_METRICS.items():
            out[metric] = calls[span] if calls[span] else None
        out["autodiff.tape_nodes_per_step"] = (
            sum(self._tape.values()) / len(self._tape) if self._tape else None)
        epochs = sum(e for e, _ in self._epochs)
        out["training.epochs_run"] = epochs or None
        out["training.wasted_epoch_ratio"] = (
            sum(e - b for e, b in self._epochs) / epochs if epochs else None)
        graphs = len(self._graph_folds)
        out["textgraph.unread_graph_ratio"] = (
            sum(f not in self._adj_folds for f in self._graph_folds) / graphs
            if graphs else None)
        out["checkpoint.bytes_written"] = self._bytes or None
        for layer, value in self.self_times().items():
            out[f"{layer}.self_s"] = value
        return out

    def self_times(self) -> dict[str, float | None]:
        """Per layer: span durations minus the part their children cover."""
        if not self.timing:
            return {layer: None for layer in LAYERS}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = {}
        for sid, name, start, end, *_ in self.spans:
            own = end - start - covered_length(start, end, children[sid])
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return {layer: totals.get(layer) for layer in LAYERS}
