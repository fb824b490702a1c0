#!/usr/bin/env python3
"""Benchmark of memefuse's k-fold cross-validated training.

    python3 perfbench/run.py --workload gcan-b --seed 1 --seconds 25 --trace 0

A workload is a batch job in a closed loop. One process generates a
seeded synthetic corpus and sets up; then, until --seconds have passed,
it repeats what `memefuse train` does: ingest the corpus, build a fresh
CvContext and train every fold with `train_model_cv`. Only the
`train_model_cv` call is timed. The outputs of every repetition are
checked; a fold whose checks fail counts as failed, and a repetition with
a failed fold is reported but not timed.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics. With --trace 1 the run splits its time between plain
repetitions, one repetition with counting wrappers and traced
repetitions, checks that the exact counters and output bytes agree
between them, and reports the per-layer metrics. README.md lists the
workloads and metrics. Results, machine facts and spans are written
under --out (default `.perfbench_out/` at the repository root).
"""

from __future__ import annotations

import os

# One BLAS thread per worker: with `jobs` fold threads the process then
# never runs more compute threads than the machine has cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

from tracer import EXACT_COUNTERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# model, training setup, fold threads, keyword and motif probabilities.
# The modality a model reads gets cue probability 0.5 and the other one
# 0.8: a sample without any cue in the read modality (6.25%) is then a
# sure negative and a cue a label with probability 0.8, so an encoder
# can beat the majority class within the benchmark's 8 epochs. With
# E2E_SPEC's 0.65 only 0.35**4 = 1.5% of samples lack every cue; on 5% of
# seeds the test set holds none, and then no single-modality setup-A
# model can beat the majority-class F1 that the output check requires.
WORKLOADS = {
    "gcan-b": ("gcan", "B", 1, 0.5, 0.8),
    "vit-a-j2": ("vit", "A", 2, 0.8, 0.5),
    "fusion-b": ("gcan-vit", "B", 1, 0.5, 0.5),
}

# Otherwise the acceptance shape of E2E_SPEC / E2E_CFG in
# tests/test_acceptance.py.
BASE_CFG = dict(base_lr=3e-3, fusion_lr=1e-2, batch_size=16,
                fusion_batch_size=32, patience=8, dropout=0.1, seq_len=12,
                resize=36, crop=32, patch=8, d_att=32, n_heads=4, n_layers=3,
                window_len=10)


@dataclass(frozen=True)
class Scale:
    n_train: int
    n_test: int
    folds: int
    epochs: int
    warmup: int
    member_epochs: int   # fusion members, trained once during set-up
    member_warmup: int


SCALES = {
    "full": Scale(n_train=1000, n_test=200, folds=4, epochs=8, warmup=2,
                  member_epochs=4, member_warmup=1),
    # only for the smoke test: every code path, no meaningful quality
    "smoke": Scale(n_train=40, n_test=12, folds=2, epochs=2, warmup=1,
                   member_epochs=2, member_warmup=1),
}

END_TO_END_UNITS = {"setup_s": "s", "cv_wall_s": "s",
                    "train_samples_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "taskA_f1": "ratio"}


def load_memefuse():
    if not os.path.isfile(os.path.join(SRC, "memefuse", "__init__.py")):
        raise SystemExit(f"perfbench: no memefuse sources under {SRC}; run "
                         "from a checkout of the repository")
    sys.path.insert(0, SRC)
    from memefuse import (autodiff, checkpoint, dataio, ensemble, fusion, nn,
                          pipeline, synth, training)
    return SimpleNamespace(autodiff=autodiff, checkpoint=checkpoint,
                           dataio=dataio, ensemble=ensemble, fusion=fusion,
                           nn=nn, pipeline=pipeline, synth=synth,
                           training=training)


# -- measurement helpers -----------------------------------------------------

def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def macro_f1(pred, true) -> float:
    """Mean F1 of the positive and the negative class."""
    scores = []
    for c in (1, 0):
        tp = int(((pred == c) & (true == c)).sum())
        fp = int(((pred == c) & (true != c)).sum())
        fn = int(((pred != c) & (true == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / 2


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "seed": seed,
        "src_lines": src_lines,
    }


# -- output checks -------------------------------------------------------------

def check_outputs(model_dir, folds, arts, y_test, setup, mf):
    """Returns (failed folds, reasons, taskA_f1, output digests)."""
    import numpy as np
    failed: set[int] = set()
    reasons: list[str] = []
    everyone = set(range(folds))

    def fail(which, why):
        failed.update(which)
        reasons.append(why)

    owners = {"train_log.tsv": everyone, "runs.tsv": everyone}
    for k in range(folds):
        owners[f"fold{k}.ckpt"] = {k}
        owners[f"fold{k}_preds.tsv"] = {k}
    manifest = {}
    manifest_path = os.path.join(model_dir, "manifest.tsv")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3:
                    manifest[parts[0]] = parts[2]
    else:
        fail(everyone, "manifest.tsv is missing")
    digests = {}
    for name, which in owners.items():
        path = os.path.join(model_dir, name)
        if not os.path.exists(path):
            fail(which, f"{name} is missing")
            continue
        digests[name] = sha256(path)
        if manifest and manifest.get(name) != digests[name]:
            fail(which, f"{name}: SHA-256 does not match manifest.tsv")

    n_out = 1 if setup == "A" else 4
    for k, art in enumerate(arts):
        probs = np.asarray(art.run.test_probs)
        if probs.shape != (len(y_test), n_out) \
                or not np.all(np.isfinite(probs)) \
                or probs.min() < 0.0 or probs.max() > 1.0:
            fail({k}, f"fold {k}: test probabilities not finite in [0, 1] "
                      f"with shape ({len(y_test)}, {n_out})")

    vote = mf.ensemble.soft_vote([a.run for a in arts])
    labels = vote.labels.max(axis=-1)    # task A: OR over the sub-labels
    task_a = macro_f1(labels, y_test)
    majority = int(y_test.mean() >= 0.5)
    baseline = macro_f1(np.full(len(y_test), majority), y_test)
    if not task_a > baseline:
        fail(everyone, f"taskA_f1 {task_a:.4f} does not exceed the "
                       f"majority-class F1 {baseline:.4f}")
    return failed, reasons, task_a, digests


# -- one workload --------------------------------------------------------------

class WorkloadRun:
    def __init__(self, mf, name: str, seed: int, scale: Scale, work: str):
        self.mf = mf
        self.model, self.setup, jobs, keyword_prob, motif_prob = \
            WORKLOADS[name]
        self.jobs = min(jobs, len(os.sched_getaffinity(0)))
        self.scale = scale
        self.cfg = mf.dataio.RunConfig(
            **BASE_CFG, setup=self.setup, folds=scale.folds,
            epochs=scale.epochs, warmup_epochs=scale.warmup, seed=seed,
            model=self.model, jobs=self.jobs)
        self.data_dir = os.path.join(work, "data")
        self.runs_dir = os.path.join(work, "runs")
        mf.synth.gen_synth(mf.synth.SynthSpec(
            n_train=scale.n_train, n_test=scale.n_test, seed=seed,
            keyword_prob=keyword_prob, motif_prob=motif_prob),
            self.data_dir)
        self.member_s = 0.0

    def _context(self, cfg):
        dataio = self.mf.dataio
        train = dataio.ingest(os.path.join(self.data_dir, "train.tsv"))
        test = dataio.ingest(os.path.join(self.data_dir, "test.tsv"))
        return self.mf.pipeline.CvContext(train, test, cfg)

    def train_members(self) -> None:
        """Set-up of fusion workloads: train each member model once."""
        members = self.mf.dataio.MODEL_MEMBERS[self.model] or []
        start = time.perf_counter()
        for member in members:
            cfg = self.mf.dataio.RunConfig(**{
                **vars(self.cfg), "model": member, "jobs": 1,
                "epochs": self.scale.member_epochs,
                "warmup_epochs": self.scale.member_warmup})
            self.mf.pipeline.train_model_cv(self._context(cfg), member,
                                            self.runs_dir, jobs=1, log=None)
        self.member_s = time.perf_counter() - start

    def repetition(self, mode: str, tracer) -> dict:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        ctx = self._context(self.cfg)
        setup_s = time.perf_counter() - start
        gc.collect()  # every timed call starts from the same heap state
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            arts = self.mf.pipeline.train_model_cv(
                ctx, self.model, self.runs_dir, jobs=self.jobs, log=None)
            error = None
        except Exception:  # a fold that raises is reported, not timed
            arts, error = None, traceback.format_exc()
        cv_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu0
        layers = tracer.rep_metrics() if tracer is not None else None

        folds = self.cfg.folds
        rep = {"mode": mode, "setup_s": setup_s, "cv_wall_s": cv_s,
               "cpu_s": cpu_s, "layers": layers}
        if error is not None:
            rep.update(failed=set(range(folds)), reasons=[error],
                       taskA_f1=None, digests={}, samples=0)
            return rep
        failed, reasons, task_a, digests = check_outputs(
            os.path.join(self.runs_dir, self.model), folds, arts,
            ctx.test_y_mis, self.setup, self.mf)
        n = len(ctx.train_samples)
        samples = sum(len(art.records) * (n - len(ctx.folds[k]))
                      for k, art in enumerate(arts))
        rep.update(failed=failed, reasons=reasons, taskA_f1=task_a,
                   digests=digests, samples=samples)
        return rep


def run_phase(run: WorkloadRun, mode: str, budget: float, tracer,
              reps: list) -> None:
    """Repetitions until `budget` seconds have passed; at least one."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            reps.append(run.repetition(mode, tracer))
            if mode == "trace":
                reps[-1]["spans"] = tracer.spans
            if time.perf_counter() - start >= budget:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()


def cross_checks(reps: list, folds: int, counters: tuple) -> None:
    """Output bytes and exact counters must repeat in every repetition."""
    first = next((r for r in reps if r["digests"]), None)
    counted = [r for r in reps if r["layers"] is not None]
    for rep in reps:
        if first is not None and rep["digests"] \
                and rep["digests"] != first["digests"]:
            rep["failed"] = set(range(folds))
            rep["reasons"].append(f"{rep['mode']} repetition wrote other "
                                  "bytes than the first repetition")
    if counted:
        ref = {k: counted[0]["layers"][k] for k in counters}
        for rep in counted[1:]:
            got = {k: rep["layers"][k] for k in counters}
            if got != ref:
                rep["failed"] = set(range(folds))
                rep["reasons"].append(
                    f"exact counters of the {rep['mode']} repetition differ: "
                    f"{got} != {ref}")


def median(values):
    """Median of the known values; a value that repeats is kept as is."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def run_workload(mf, name, seed, seconds, trace, scale, out_dir) -> dict:
    work = os.path.join(out_dir, "work", f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    reps: list[dict] = []
    try:
        run = WorkloadRun(mf, name, seed, SCALES[scale], work)
        run.train_members()
        if trace:
            run_phase(run, "pure", seconds / 2, None, reps)
            run_phase(run, "count", 0.0, Tracer(mf, timing=False), reps)
            tracer = Tracer(mf, timing=True)
            run_phase(run, "trace", seconds / 2, tracer, reps)
            missing = tracer.missing
        else:
            run_phase(run, "pure", seconds, None, reps)
            missing = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    folds = run.cfg.folds
    cross_checks(reps, folds, EXACT_COUNTERS)
    attempted = folds * len(reps)
    failed = sum(len(r["failed"]) for r in reps)
    ok = [r for r in reps if not r["failed"]]
    pure = [r for r in ok if r["mode"] == "pure"] \
        or [r for r in reps if r["mode"] == "pure"]
    metrics: dict[str, float | None] = {}
    if trace:
        traced = [r for r in ok if r["mode"] == "trace"] \
            or [r for r in reps if r["mode"] == "trace"]
        for key in traced[0]["layers"]:
            metrics[key] = median(r["layers"][key] for r in traced)
        metrics["trace.overhead_s"] = (
            median(r["cv_wall_s"] for r in traced)
            - median(r["cv_wall_s"] for r in pure))
        units = None
    else:
        metrics = {
            "setup_s": run.member_s + median(r["setup_s"] for r in reps),
            "cv_wall_s": median(r["cv_wall_s"] for r in pure),
            "train_samples_per_s": median(r["samples"] / r["cv_wall_s"]
                                          for r in pure),
            "cpu_s": median(r["cpu_s"] for r in pure),
            "peak_rss_mb": peak_rss_mb(),
            "taskA_f1": next((r["taskA_f1"] for r in reps
                              if r["taskA_f1"] is not None), None),
        }
        units = END_TO_END_UNITS
    not_applicable = sorted(k for k, v in metrics.items() if v is None)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0 if v is None else v,
                        "unit": units[k] if units else layer_unit(k)}
                    for k, v in metrics.items()},
    }
    report = {
        "workload": name, "seed": seed, "trace": trace, "scale": scale,
        "seconds": seconds, "config": vars(run.cfg), "jobs": run.jobs,
        "facts": machine_facts(seed),
        "fold_fail_ratio": failed / attempted,
        "member_training_s": run.member_s,
        "not_applicable": not_applicable, "unpatched": missing,
        "repetitions": [{k: (sorted(v) if isinstance(v, set) else v)
                         for k, v in r.items() if k != "spans"}
                        for r in reps],
        "result": result,
    }
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    with open(os.path.join(out_dir, "results", stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if trace:
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        with open(os.path.join(out_dir, "spans", stem + ".jsonl"), "w",
                  encoding="utf-8") as fh:
            for index, rep in enumerate(reps):
                for sid, span, start, end, parent, fold, thread in \
                        rep.get("spans", ()):
                    fh.write(json.dumps({
                        "rep": index, "id": sid, "name": span,
                        "start": start, "end": end, "parent": parent,
                        "fold": fold, "thread": thread}, default=int) + "\n")
    print_report(report)
    return result


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']} seed {report['seed']} trace "
          f"{report['trace']}: {len(report['repetitions'])} repetitions, "
          f"{result['attempted']} folds attempted, {result['failed']} "
          f"failed (fold_fail_ratio {report['fold_fail_ratio']:g})")
    for rep in report["repetitions"]:
        for reason in rep["reasons"]:
            print(f"  FAILED ({rep['mode']}): {reason.strip()}")
    for name, metric in result["metrics"].items():
        mark = "  n/a" if name in report["not_applicable"] else ""
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}{mark}")
    print("facts: " + json.dumps(report["facts"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="corpus and fold sizes; 'smoke' is for tests")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                        help="directory for results, spans and scratch data")
    args = parser.parse_args(argv)
    mf = load_memefuse()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(mf, name, args.seed, args.seconds,
                                  args.trace, args.scale, args.out)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
