"""Cross-validation pipeline: fold encoding, determinism, predictions I/O."""

import dataclasses
import gc
import json
import multiprocessing
import os
import re
import weakref

import numpy as np
import pytest

from memefuse import autodiff, checkpoint, dataio, fusion, nn, pipeline, \
    training
from memefuse.autodiff import Tensor
from memefuse.checkpoint import file_hash
from memefuse.cli import _test_labels
from memefuse.dataio import MODEL_MEMBERS, RunConfig, ingest, sample_pixels
from memefuse.ensemble import FoldRun
from memefuse.fusion import FusionModel
from memefuse.nn import GcanEncoder, ImageEncoder, ModelOutput, TextEncoder
from memefuse.pipeline import (CvContext, FoldData, FusionTrainable, Split,
                               UnimodalTrainable, make_unimodal, train_fold,
                               train_model_cv)
from memefuse.rundir import (DependencyError, SplitOutputs, load_fold_runs,
                             read_manifest, read_predictions, write_manifest,
                             write_predictions, write_run)
from memefuse.preprocess import DataError, build_vocabulary, \
    encode_document, normalize_image
from memefuse.textgraph import Csr, build_adjacency, count_windows
from memefuse.training import AdamW, EpochRecord, class_weights, setup_loss
from memefuse.synth import SynthSpec, gen_synth
from oracles import document_block, member_outputs_by_inference, \
    per_split_inputs, unseen_block

CFG_KW = dict(folds=3, epochs=3, warmup_epochs=1, base_lr=3e-3,
              fusion_lr=1e-2, seq_len=10, resize=12, crop=8, patch=4,
              d_att=8, n_heads=2, n_layers=2, dropout=0.1, seed=4)


def ingest_dir(root):
    return (ingest(os.path.join(root, "train.tsv")),
            ingest(os.path.join(root, "test.tsv")))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pipe"))
    gen_synth(SynthSpec(n_train=24, n_test=6, seed=2, image_side=16), root)
    return root


@pytest.fixture(scope="module")
def dataset(dataset_dir):
    return ingest_dir(dataset_dir)


def make_ctx(dataset, **overrides):
    train, test = dataset
    return CvContext(train, test, RunConfig(**{**CFG_KW, **overrides}))


def rows_of(data, split):
    """A split's rows of each of the fold's model inputs."""
    return [a[split.rows] for a in data.inputs]


def narrowed(a):
    """A float64 reference array as the float32 that models read."""
    return a.astype(np.float32) if a.dtype == np.float64 else a


def test_fold_encoding_shapes_and_leakage(dataset):
    ctx = make_ctx(dataset)
    data = ctx._build_fold(0, "gcan")
    n_val = len(ctx.folds[0])
    seqs, adjs = rows_of(data, data.train)
    assert seqs.shape == (24 - n_val, 10)
    assert adjs.shape == (24 - n_val, 10, 10)
    assert rows_of(data, data.val)[0].shape[0] == n_val
    assert rows_of(data, data.test)[0].shape[0] == 6
    # fold splits partition the training ids
    all_val = np.concatenate(ctx.folds)
    assert sorted(all_val.tolist()) == list(range(24))
    # every adjacency block is symmetric with ones on PAD diagonals
    for split in (data.train, data.val, data.test):
        adjs = rows_of(data, split)[1]
        assert np.allclose(adjs, np.swapaxes(adjs, 1, 2), atol=0)


def test_fold_blocks_equal_per_document_reference(dataset):
    ctx = make_ctx(dataset)
    data = ctx._build_fold(1, "gcan")
    val_idx = ctx.folds[1]
    train_idx = np.setdiff1d(np.arange(24), val_idx)
    vocab = build_vocabulary([ctx.tokens[i] for i in train_idx],
                             ctx.cfg.min_freq, ctx.cfg.max_vocab)
    id_corpus = [[vocab.lookup(t) for t in ctx.tokens[i]]
                 for i in train_idx]
    graph = build_adjacency(id_corpus,
                            count_windows(id_corpus, ctx.cfg.window_len),
                            vocab)
    # the pool holds the 24 training rows, then the 6 test rows
    splits = ((data.train, [ctx.tokens[i] for i in train_idx], True),
              (data.val, [ctx.tokens[i] for i in val_idx], False),
              (data.test, ctx.tokens[24:], False))
    for split, tokens, in_graph in splits:
        for k, doc in enumerate(tokens):
            seq = encode_document(doc, vocab, ctx.cfg.seq_len)
            if in_graph:
                ref = document_block(graph, k, seq.ids, seq.true_length)
            else:
                ref = unseen_block(graph, [vocab.lookup(t) for t in doc],
                                   seq.ids, seq.true_length)
            assert data.inputs[1][split.rows[k]].tobytes() == \
                narrowed(ref).tobytes()


class CountingCsr(Csr):
    calls = 0

    def __getitem__(self, key):
        CountingCsr.calls += 1
        return super().__getitem__(key)


def test_fold_build_indexes_graph_a_few_times_per_split(dataset,
                                                         monkeypatch):
    # a per-document (or per-position) loop over the sparse matrix would
    # index it hundreds of times on this 24-document fixture
    build = pipeline.build_adjacency

    def counting_graph(*args):
        graph = build(*args)
        graph.normalized = CountingCsr(**vars(graph.normalized))
        return graph

    monkeypatch.setattr(pipeline, "build_adjacency", counting_graph)
    CountingCsr.calls = 0
    make_ctx(dataset)._build_fold(0, "gcan")
    assert 1 <= CountingCsr.calls <= 2 * 3


def refusing(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


@pytest.mark.parametrize("model", ["bertc", "gcan", "vit"])
def test_fold_holds_only_what_its_model_reads(dataset, monkeypatch, model):
    if model != "gcan":
        monkeypatch.setattr(pipeline, "build_adjacency",
                            refusing("built a corpus graph nothing reads"))
    if model == "vit":
        for name in ("build_vocabulary", "encode_document"):
            monkeypatch.setattr(pipeline, name,
                                refusing(f"ran {name} for an image model"))
    ctx = make_ctx(dataset)
    data = ctx._build_fold(0, model)
    encoder = make_unimodal(model, ctx.cfg, data.vocab_size, 4, seed=0)
    n = len(ctx.ids)
    assert [a.shape for a in data.inputs] == {
        "bertc": [(n, 10)],
        "gcan": [(n, 10), (n, 10, 10)],
        "vit": [(n, 3, 8, 8)]}[model]
    if model != "vit":
        assert all(a.ndim < 4 for a in data.inputs)  # no image rows
    for split in data.splits().values():
        out = encoder.forward(*(a[split.rows[:2]] for a in data.inputs))
        assert out.p.shape == (2, 4)
    train_fold(ctx, model, 0)
    with pytest.raises(DependencyError):  # no member outputs to read
        train_fold(ctx, "bertc-vit", 1, None)


@pytest.mark.parametrize("model", ["bertc", "gcan", "vit", "gcan-vit"])
def test_fold_rows_equal_per_split_reference(dataset, tmp_path, monkeypatch,
                                             model):
    # the same rows reach the encoders as when each split held its own
    # arrays, and the splits partition the pool
    members = MODEL_MEMBERS[model]
    for member in members or []:
        train_model_cv(make_ctx(dataset), member, str(tmp_path), log=None)
    folds = []
    fold_data = CvContext.fold_data

    def recorded_fold(self, *args, **kwargs):
        folds.append(fold_data(self, *args, **kwargs))
        return folds[-1]

    monkeypatch.setattr(CvContext, "fold_data", recorded_fold)
    ctx = make_ctx(dataset)
    for fold in range(3):
        if members is None:
            ctx._build_fold(fold, model)
        else:
            train_fold(ctx, model, fold, str(tmp_path))
        data = folds[-1]
        assert all(len(a) == len(ctx.ids) for a in data.inputs)
        assert sorted(np.concatenate([split.rows for split in
                                      data.splits().values()]).tolist()) == \
            list(range(len(ctx.ids)))
        ref = per_split_inputs(ctx, fold, model, str(tmp_path))
        for name, split in data.splits().items():
            assert [(a.dtype, a.shape, a.tobytes())
                    for a in rows_of(data, split)] == \
                [(a.dtype, a.shape, a.tobytes())
                 for a in map(narrowed, ref[name])], \
                (fold, name)


def test_vit_fold_holds_no_copy_of_the_image_pool(dataset):
    import tracemalloc
    # images large enough that a copy of them would dwarf the fold's ids
    ctx = make_ctx(dataset, model="vit", resize=32, crop=32)
    # the first np.setdiff1d in a process imports numpy.ma, a 1.2 MB peak
    # that is no part of the fold: make it before the window opens
    ctx.split_indices(0)
    tracemalloc.start()
    try:
        data = ctx._build_fold(0, "vit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(data.inputs[0], ctx.images)
    assert peak < ctx.images.nbytes / 10


def test_gcan_fold_build_memory_beyond_its_outputs_is_bounded(tmp_path):
    import tracemalloc
    # the same samples 4 times over: 4 times the windows and the blocks.
    # The corpus graph and the token lists grow with the rows, about as
    # fast as the fold's own arrays; the windows' pair arrays (at 45 slot
    # pairs a window) and float64 blocks beside the fold's float32 ones
    # would grow several times faster, but they are bounded by chunks
    gen_synth(SynthSpec(n_train=250, n_test=50, seed=3, image_side=8),
              str(tmp_path))
    train, test = ingest_dir(str(tmp_path))
    cfg = RunConfig(**{**CFG_KW, "seq_len": 12, "window_len": 10})
    outputs, beyond = [], []
    for times in (1, 4):
        ctx = CvContext(train * times, test * times, cfg)
        ctx._build_fold(0, "gcan")  # lazy imports are no part of a build
        tracemalloc.start()
        try:
            data = ctx._build_fold(0, "gcan")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs.append(sum(a.nbytes for a in data.inputs))
        beyond.append(peak - outputs[-1])
    assert beyond[1] - beyond[0] <= 2 * (outputs[1] - outputs[0])


def resident_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmRSS:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the resident set size from /proc")
def test_image_pool_is_returned_when_its_context_is_freed(dataset):
    # the pool is a mapping of its own: once a block of its size has been
    # freed, the allocator would keep the next one on a heap that stays
    # resident in a process that builds contexts in turn
    for _ in range(2):
        ctx = make_ctx(dataset, model="vit", resize=128, crop=128)
        nbytes = ctx.images.nbytes
        gc.collect()
        before = resident_kib()
        del ctx
        gc.collect()
        assert (before - resident_kib()) * 1024 >= 0.9 * nbytes


@pytest.mark.parametrize("model", ["gcan", "bertc", "vit", "gcan-vit",
                                   "bertc-gcan-vit"])
def test_context_prepares_only_what_its_model_reads(dataset, tmp_path,
                                                     monkeypatch, model):
    members = MODEL_MEMBERS[model]
    for member in members or []:
        train_model_cv(make_ctx(dataset, model=member), member,
                       str(tmp_path), log=None)
    if model != "vit":
        monkeypatch.setattr(pipeline, "normalize_image",
                            refusing(f"normalized an image for {model}"))
    if model == "vit" or members is not None:
        monkeypatch.setattr(pipeline, "document_tokens",
                            refusing(f"tokenized a document for {model}"))
    ctx = make_ctx(dataset, model=model)
    train_model_cv(ctx, model, str(tmp_path), log=None)


def test_images_normalized_once_by_the_parent(dataset, tmp_path,
                                              monkeypatch):
    calls = os.path.join(tmp_path, "calls")
    normalize = pipeline.normalize_image

    def logged(*args):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return normalize(*args)

    monkeypatch.setattr(pipeline, "normalize_image", logged)
    # built for vit, the context normalizes; built for gcan, the parent
    # does when it trains vit, before the workers fork
    for built_for in ("vit", "gcan"):
        if os.path.exists(calls):
            os.remove(calls)
        ctx = make_ctx(dataset, model=built_for)
        train_model_cv(ctx, "vit", os.path.join(tmp_path, built_for),
                       jobs=2, log=None)
        with open(calls) as fh:
            pids = fh.read().split()
        assert pids == [str(os.getpid())] * len(ctx.ids), built_for


@pytest.mark.parametrize("n_train, n_test, jobs", [(24, 6, 2), (24, 6, 3),
                                                   (4, 2, 8)])
def test_image_pool_same_bytes_whatever_the_fill_jobs(dataset, n_train,
                                                      n_test, jobs):
    # 8 jobs over 6 rows: one block of one row per process
    train, test = dataset[0][:n_train], dataset[1][:n_test]
    serial = make_ctx((train, test), model="vit", folds=2).images
    assert serial.tobytes() == narrowed(np.stack([
        normalize_image(sample_pixels(s), CFG_KW["resize"], CFG_KW["crop"])
        for s in train + test])).tobytes()
    ctx = make_ctx((train, test), model="vit", folds=2, jobs=jobs)
    assert multiprocessing.active_children() == []
    assert ctx.images.tobytes() == serial.tobytes()


def test_image_pool_filled_once_by_parent_and_workers(dataset, tmp_path,
                                                      monkeypatch):
    # each row once, by the parent and one fill worker, none of which
    # trains a fold; each process reads the pixels of its own rows
    train, test = dataset
    row_of = {s.id: row for row, s in enumerate(train + test)}
    calls = os.path.join(tmp_path, "calls")
    pixels = pipeline.sample_pixels

    def logged(sample):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {row_of[sample.id]}\n")
        return pixels(sample)

    monkeypatch.setattr(pipeline, "sample_pixels", logged)
    ctx = make_ctx(dataset, model="vit", jobs=2)
    out = os.path.join(tmp_path, "runs")
    train_model_cv(ctx, "vit", out, jobs=2, log=None)
    with open(calls) as fh:
        pid_rows = [line.split() for line in fh]
    assert sorted(int(row) for _, row in pid_rows) == list(range(len(ctx.ids)))
    pids = {int(pid) for pid, _ in pid_rows}
    with open(os.path.join(out, "vit", "events.jsonl")) as fh:
        fold_pids = {json.loads(line)["pid"] for line in fh}
    assert os.getpid() in pids and len(pids) == 2
    assert not pids & fold_pids


def test_only_the_vit_pool_reads_rasters(dataset_dir, monkeypatch):
    # ingest checks each image's header and size and keeps no pixels;
    # the vit pool's fill reads each raster once, and nothing else does
    raster_reads, read = [], dataio.read_raster

    def counted(raster):
        raster_reads.append(raster.path)
        return read(raster)

    monkeypatch.setattr(dataio, "read_raster", counted)
    train, test = ingest_dir(dataset_dir)
    assert raster_reads == []
    assert not any(isinstance(s.image, np.ndarray) for s in train + test)
    for model in ("bertc", "gcan", "gcan-vit"):
        CvContext(train, test, RunConfig(**{**CFG_KW, "model": model}))
    _test_labels(dataset_dir)  # evaluate's read of the test set
    assert raster_reads == []
    CvContext(train, test, RunConfig(**{**CFG_KW, "model": "vit"}))
    assert sorted(raster_reads) == sorted(
        os.path.join(dataset_dir, "images", f"{s.id}.ppm")
        for s in train + test)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raster_cut_after_ingest_names_the_file(tmp_path, jobs):
    gen_synth(SynthSpec(n_train=6, n_test=2, seed=3, image_side=8), tmp_path)
    train, test = ingest_dir(tmp_path)
    cut = os.path.join(tmp_path, "images", f"{test[1].id}.ppm")
    with open(cut, "r+b") as fh:
        fh.truncate(os.path.getsize(cut) - 1)
    with pytest.raises(DataError, match=re.escape(cut)):
        CvContext(train, test, RunConfig(**{**CFG_KW, "model": "vit",
                                            "folds": 2, "jobs": jobs}))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bad_rows", [(25,), (3, 25), (12, 25), (20, 25)])
def test_image_pool_refuses_like_the_serial_fill(dataset, bad_rows):
    # the first refused row's error, whichever process normalized it;
    # every fill worker is joined on success and on error
    train, test = dataset
    samples = list(train + test)
    for row in bad_rows:
        samples[row] = dataclasses.replace(
            samples[row], image=np.zeros((row, 4), dtype=np.uint8))
    errors = []
    for jobs in (1, 2, 3):
        with pytest.raises(DataError) as err:
            CvContext(samples[:len(train)], samples[len(train):],
                      RunConfig(**{**CFG_KW, "model": "vit", "jobs": jobs}))
        errors.append(str(err.value))
        assert multiprocessing.active_children() == []
    assert errors == [f"expected (H, W, 3) image, got shape "
                      f"({bad_rows[0]}, 4)"] * 3


def test_context_built_for_another_model_writes_same_bytes(dataset,
                                                           tmp_path):
    for model, other in (("vit", "gcan"), ("gcan", "vit"), ("bertc", "vit")):
        own = os.path.join(tmp_path, f"{model}-own")
        borrowed = os.path.join(tmp_path, f"{model}-from-{other}")
        train_model_cv(make_ctx(dataset, model=model), model, own, log=None)
        train_model_cv(make_ctx(dataset, model=other), model, borrowed,
                       log=None)
        names = manifest_names(os.path.join(own, model))
        for name in names + ["manifest.tsv"]:
            assert file_hash(os.path.join(own, model, name)) == \
                file_hash(os.path.join(borrowed, model, name)), (model, name)


def test_folds_dropped_after_training(dataset, tmp_path, monkeypatch):
    built = []
    build = CvContext._build_fold

    def tracked(self, *args):
        data = build(self, *args)
        built.append(weakref.ref(data))
        return data

    monkeypatch.setattr(CvContext, "_build_fold", tracked)
    ctx = make_ctx(dataset)
    train_model_cv(ctx, "gcan", str(tmp_path), jobs=1, log=None)
    gc.collect()
    assert len(built) == 3
    assert [fold for fold, ref in enumerate(built) if ref()] == []


def test_fusion_runs_no_member_model(dataset, tmp_path, monkeypatch):
    for member in ("gcan", "vit"):
        train_model_cv(make_ctx(dataset), member, str(tmp_path), log=None)
    monkeypatch.setattr(CvContext, "_build_fold",
                        refusing("built fold data"))
    for encoder in (TextEncoder, GcanEncoder, ImageEncoder):
        monkeypatch.setattr(encoder, "forward", refusing("ran a member"))
    load = checkpoint.load_checkpoint

    def outputs_only(path):
        if re.search(r"fold\d+\.ckpt$", path):
            raise AssertionError(f"loaded member checkpoint {path}")
        return load(path)

    monkeypatch.setattr(checkpoint, "load_checkpoint", outputs_only)
    art = train_fold(make_ctx(dataset), "gcan-vit", 0, str(tmp_path))
    assert art.records and art.outputs is None
    assert art.run.test_probs.shape == (6, 4)
    assert art.run.test_ids == [s.id for s in dataset[1]]
    for member in ("gcan", "vit"):
        assert art.meta[f"member_hash:{member}"] == file_hash(
            os.path.join(tmp_path, member, "fold0.ckpt"))


def test_fusion_fold_inputs_are_member_outputs(dataset, tmp_path,
                                               monkeypatch):
    members = MODEL_MEMBERS["bertc-gcan-vit"]
    for member in members:
        train_model_cv(make_ctx(dataset), member, str(tmp_path), log=None)
    folds, sizes = [], []
    fold_data, fusion_model = CvContext.fold_data, pipeline.FusionModel

    def recorded_fold(self, *args, **kwargs):
        folds.append(fold_data(self, *args, **kwargs))
        return folds[-1]

    def recorded_model(member_dims, *args, **kwargs):
        sizes.append(member_dims)
        return fusion_model(member_dims, *args, **kwargs)

    monkeypatch.setattr(CvContext, "fold_data", recorded_fold)
    monkeypatch.setattr(pipeline, "FusionModel", recorded_model)
    train_fold(make_ctx(dataset), "bertc-gcan-vit", 1, str(tmp_path))
    saved = [checkpoint.load_checkpoint(
        os.path.join(tmp_path, member, "fold1_outputs.ckpt"))[0]
        for member in members]
    [data] = folds
    for split, fold_split in data.splits().items():
        expected = [narrowed(arrays[f"{split}.{part}"]) for arrays in saved
                    for part in ("p", "f")]
        assert [a.tobytes() for a in rows_of(data, fold_split)] == \
            [a.tobytes() for a in expected], split
    assert sizes == [[(arrays["train.p"].shape[1],
                       arrays["train.f"].shape[1]) for arrays in saved]]


@pytest.mark.parametrize("setup", ["A", "B"])
def test_saved_outputs_equal_member_inference(dataset, tmp_path, setup):
    ctx = make_ctx(dataset, setup=setup)
    train_ids = [s.id for s in dataset[0]]
    for member in ("gcan", "vit"):
        train_model_cv(ctx, member, str(tmp_path), log=None)
        member_dir = os.path.join(tmp_path, member)
        with open(os.path.join(member_dir, "manifest.tsv")) as fh:
            roles = dict(line.split("\t")[:2] for line in fh)
        for fold in range(3):
            name = f"fold{fold}_outputs.ckpt"
            assert roles[name] == "outputs"
            arrays, meta = checkpoint.load_checkpoint(
                os.path.join(member_dir, name))
            ref = member_outputs_by_inference(
                ctx, member, fold, os.path.join(member_dir, f"fold{fold}.ckpt"))
            assert len(arrays) == 6
            for split, (p, f) in ref.items():  # the file widens exactly
                assert arrays[f"{split}.p"].tobytes() == \
                    p.astype(np.float64).tobytes()
                assert arrays[f"{split}.f"].tobytes() == \
                    f.astype(np.float64).tobytes()
            val = set(ctx.folds[fold].tolist())
            assert meta == {
                "train.ids": "\t".join(sid for i, sid in enumerate(train_ids)
                                       if i not in val),
                "val.ids": "\t".join(train_ids[i] for i in ctx.folds[fold]),
                "test.ids": "\t".join(s.id for s in dataset[1])}


def test_eval_forwards_record_no_tape(dataset):
    ctx = make_ctx(dataset)
    data = ctx._build_fold(0, "gcan")
    model = make_unimodal("gcan", ctx.cfg, data.vocab_size, 4, seed=1)
    outputs = []
    forward = model.forward

    def recording_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    model.forward = recording_forward
    probs, feats = UnimodalTrainable(model, data).eval_split(data.val)
    assert outputs and all(out.p._parents == () and out.f._parents == ()
                           for out in outputs)
    taped = forward(*rows_of(data, data.val))
    assert taped.p._parents  # outside eval the same forward is on the tape
    assert probs.tobytes() == taped.p.data.tobytes()
    assert feats.tobytes() == taped.f.data.tobytes()
    assert all(p.requires_grad for p in model.params.values())

    fmodel = FusionModel([(4, 8)] * 2, 4, 0.1, seed=0)
    saved = Split(data.val.ids, data.val.y_mis, data.val.y_sub,
                  np.arange(len(probs)))
    trainable = FusionTrainable(fmodel, FoldData(saved, saved, saved,
                                                 (probs, feats) * 2, None))
    fused = trainable.eval_val()
    ref = fmodel.forward([ModelOutput(p=Tensor(probs), f=Tensor(feats))] * 2)
    assert ref.p._parents
    assert fused.tobytes() == ref.p.data.tobytes()


@pytest.mark.parametrize("setup", ["A", "B"])
@pytest.mark.parametrize("model", ["bertc", "gcan", "vit", "gcan-vit"])
def test_training_step_reaches_every_parameter(dataset, model, setup):
    # AdamW gathers every parameter's gradient into one buffer, so one
    # training forward with dropout and its loss must reach them all
    ctx = make_ctx(dataset, setup=setup)
    n_out = 1 if setup == "A" else 4
    if MODEL_MEMBERS[model] is None:
        data = ctx._build_fold(0, model)
        trainable = UnimodalTrainable(make_unimodal(
            model, ctx.cfg, data.vocab_size, n_out, seed=0), data)
    else:
        gen = np.random.default_rng(0)
        n, d = len(ctx.ids), ctx.cfg.d_att
        outputs = (gen.random((n, n_out)), gen.standard_normal((n, d))) * 2
        rows = Split([], ctx.y_mis, ctx.y_sub, np.arange(n))
        trainable = FusionTrainable(
            FusionModel([(n_out, d)] * 2, n_out, ctx.cfg.dropout, seed=0),
            FoldData(rows, rows, rows, outputs, None))
    idx = np.arange(8)
    rows = trainable.data.train.rows[idx]
    out = trainable.forward_batch(idx, np.random.default_rng(1))
    weights = class_weights([3, 1, 2, 5], 8) if setup == "B" else None
    setup_loss(out.p, ctx.y_mis[rows], ctx.y_sub[rows],
               RunConfig(setup=setup, epochs=5, warmup_epochs=1),
               weights).backward()
    for name, p in trainable.params.items():
        assert isinstance(p.grad, np.ndarray), name
        assert p.grad.shape == p.data.shape, name


def test_context_refuses_more_folds_than_samples(dataset):
    make_ctx(dataset, folds=24)
    with pytest.raises(DataError, match="25 folds"):
        make_ctx(dataset, folds=25)


def test_vocabulary_built_per_fold_without_validation_docs(dataset):
    from memefuse.pipeline import document_tokens
    from memefuse.preprocess import build_vocabulary
    train, _ = dataset
    ctx = make_ctx(dataset)
    data = ctx._build_fold(1, "bertc")
    val_idx = set(ctx.folds[1].tolist())
    fold_tokens = [document_tokens(s) for i, s in enumerate(train)
                   if i not in val_idx]
    expected = build_vocabulary(fold_tokens, ctx.cfg.min_freq,
                                ctx.cfg.max_vocab)
    assert data.vocab_size == len(expected.id_to_token)


def test_train_fold_artifacts(dataset, tmp_path):
    ctx = make_ctx(dataset)
    art = train_fold(ctx, "gcan", 0)
    assert 0.0 <= art.run.best_f1 <= 1.0
    assert art.run.test_probs.shape == (6, 4)
    assert np.all((art.run.test_probs > 0) & (art.run.test_probs < 1))
    assert art.meta["model"] == "gcan"
    assert len(art.records) >= 1
    assert art.test_weighted_f1 is not None


def test_setup_a_single_output(dataset):
    ctx = make_ctx(dataset, setup="A")
    art = train_fold(ctx, "vit", 0)
    assert art.run.test_probs.shape == (6, 1)
    assert art.test_weighted_f1 is None


def test_fusion_requires_members(dataset, tmp_path):
    ctx = make_ctx(dataset)
    with pytest.raises(DependencyError):
        train_fold(ctx, "gcan-vit", 0, str(tmp_path))
    with pytest.raises(DependencyError):
        train_fold(ctx, "gcan-vit", 0, None)


def test_each_fold_trains_with_the_runs_settings(dataset, tmp_path,
                                                 monkeypatch):
    # a fold's seed is the run's plus the fold; a fusion fold takes the
    # fusion batch size and learning rate, a uni-modal fold the others
    overrides = dict(batch_size=8, fusion_batch_size=12, patience=2)
    for member in ("gcan", "vit"):
        train_model_cv(make_ctx(dataset, **overrides), member, str(tmp_path),
                       log=None)
    received = []

    class Received(Exception):
        pass

    def spy(*args, **kwargs):
        received.append(kwargs.get("config", args[5] if len(args) > 5
                                   else None))
        raise Received

    monkeypatch.setattr(pipeline, "train_model", spy)
    ctx = make_ctx(dataset, **overrides)
    cfg = ctx.cfg
    for model, fold, batch_size, base_lr in (
            ("vit", 2, cfg.batch_size, cfg.base_lr),
            ("gcan-vit", 1, cfg.fusion_batch_size, cfg.fusion_lr)):
        with pytest.raises(Received):
            train_fold(ctx, model, fold, str(tmp_path))
        got = received.pop()
        assert (got.batch_size, got.base_lr, got.seed) == \
            (batch_size, base_lr, cfg.seed + fold), model
        assert (got.setup, got.epochs, got.warmup_epochs, got.patience) == \
            (cfg.setup, cfg.epochs, cfg.warmup_epochs, cfg.patience), model
        assert got.n_outputs == 4, model


def manifest_names(model_dir):
    with open(os.path.join(model_dir, "manifest.tsv")) as fh:
        fh.readline()
        return [line.split("\t")[0] for line in fh]


def test_cv_deterministic_and_parallel_equivalent(dataset, tmp_path):
    # every model at jobs 1 and 2, each fusion after its members in the
    # same root; gcan carries the adjacency blocks, and vit at jobs=5 asks
    # for more workers than the 3 folds
    runs = [(model, 2) for model in MODEL_MEMBERS] + [("vit", 5)]
    serial = os.path.join(tmp_path, "serial")
    for model in MODEL_MEMBERS:
        train_model_cv(make_ctx(dataset), model, serial, jobs=1, log=None)
    for model, jobs in runs:
        parallel = os.path.join(tmp_path, f"jobs{jobs}")
        train_model_cv(make_ctx(dataset), model, parallel, jobs=jobs,
                       log=None)
        assert multiprocessing.active_children() == []
        names = manifest_names(os.path.join(serial, model))
        assert names == manifest_names(os.path.join(parallel, model))
        assert {"train_log.tsv", "runs.tsv", "fold2.ckpt",
                "fold2_preds.tsv"} <= set(names)
        assert "events.jsonl" not in names
        for name in names + ["manifest.tsv"]:
            assert file_hash(os.path.join(serial, model, name)) == \
                file_hash(os.path.join(parallel, model, name)), \
                (model, jobs, name)


def test_events_and_log_one_line_per_fold(dataset, tmp_path):
    for jobs in (1, 2):
        out = os.path.join(tmp_path, str(jobs))
        lines = []
        arts = train_model_cv(make_ctx(dataset), "vit", out, jobs=jobs,
                              log=lines.append)
        assert [line.split()[2] for line in lines] == ["0:", "1:", "2:"]
        with open(os.path.join(out, "vit", "events.jsonl")) as fh:
            events = [json.loads(line) for line in fh]
        assert [e["fold"] for e in events] == [0, 1, 2]
        assert all(e["event"] == "fold" and e["start_s"] >= 0
                   and e["wall_s"] > 0 and e["cpu_s"] > 0 for e in events)
        assert [e["pid"] for e in events] == [a.pid for a in arts]
        if jobs == 1:
            assert {e["pid"] for e in events} == {os.getpid()}
        else:
            assert os.getpid() not in {e["pid"] for e in events}


def test_load_fold_runs_roundtrip(dataset, tmp_path):
    ctx = make_ctx(dataset)
    arts = train_model_cv(ctx, "gcan", str(tmp_path), log=None)
    runs = load_fold_runs(str(tmp_path), "gcan")
    assert len(runs) == 3
    for art, run in zip(arts, runs):
        assert run.fold == art.run.fold
        assert abs(run.best_f1 - art.run.best_f1) < 1e-15
        assert np.max(np.abs(run.test_probs - art.run.test_probs)) < 1e-15
    with pytest.raises(DependencyError):
        load_fold_runs(str(tmp_path), "vit")


def test_predictions_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "p.tsv")
    probs = np.array([[0.9, 0.2, 0.4, 0.6], [0.1, 0.2, 0.3, 0.4]])
    write_predictions(path, ["a", "b"], probs)
    ids, loaded, labels = read_predictions(path)
    assert ids == ["a", "b"]
    assert np.max(np.abs(loaded - probs)) < 1e-15
    # mis label is the OR of the sub-labels, mis prob the max
    assert labels[0].tolist() == [1, 0, 0, 1, 1]
    assert labels[1].tolist() == [0, 0, 0, 0, 0]
    with open(path) as fh:
        fh.readline()
        first = fh.readline().split("\t")
    assert float(first[5]) == 0.9


def test_setup_a_predictions_leave_sub_columns_empty(tmp_path):
    path = os.path.join(tmp_path, "p.tsv")
    probs = np.array([[0.75], [0.25]])
    write_predictions(path, ["a", "b"], probs)
    with open(path) as fh:
        fh.readline()
        assert fh.readline() == "a\t\t\t\t\t0.75\t\t\t\t\t1\n"
    ids, loaded, labels = read_predictions(path)
    assert ids == ["a", "b"]
    assert loaded.tolist() == [[0.75], [0.25]]
    assert labels.tolist() == [[1], [0]]


def test_write_run_writes_exact_tables(tmp_path):
    # fold 0 in setup A (no weighted F1), fold 1 in setup B with outputs;
    # floats are written to 17 significant digits
    def fold(k, probs, records, best, task_a, weighted, outputs=None):
        run = FoldRun(model_name="m", fold=k, best_f1=best, test_probs=probs,
                      test_ids=["a", "b"])
        return pipeline.FoldArtifacts(
            run=run, records=records, params={"w": np.ones(2)},
            meta={"fold": str(k)}, outputs=outputs, test_taskA_f1=task_a,
            test_weighted_f1=weighted, pid=7, start=1.0, wall_s=2.0,
            cpu_s=1.5)

    outputs = {split: SplitOutputs(["a"], np.ones((1, 4)), np.zeros((1, 2)))
               for split in ("train", "val", "test")}
    arts = [fold(0, np.array([[0.1], [0.75]]),
                 [EpochRecord(1, 0.1, 0.5, 1e-17),
                  EpochRecord(2, 0.25, 0.75, 0.003)], 0.75, 1e-17, None),
            fold(1, np.array([[0.1, 1e-17, 0.5, 0.25]] * 2),
                 [EpochRecord(1, 1.0, 0.2, 0.001)], 0.2, 1.0,
                 0.1 + 0.2, outputs)]
    write_run(str(tmp_path), arts, start=0.5)
    with open(tmp_path / "train_log.tsv") as fh:
        assert fh.read() == (
            "fold\tepoch\ttrain_loss\tval_f1\tlr\n"
            "0\t1\t0.10000000000000001\t0.5\t1.0000000000000001e-17\n"
            "0\t2\t0.25\t0.75\t0.0030000000000000001\n"
            "1\t1\t1\t0.20000000000000001\t0.001\n")
    with open(tmp_path / "runs.tsv") as fh:
        assert fh.read() == (
            "fold\tbest_val_f1\ttest_taskA_f1\ttest_weighted_f1\n"
            "0\t0.75\t1.0000000000000001e-17\t\n"
            "1\t0.20000000000000001\t1\t0.30000000000000004\n")
    with open(tmp_path / "manifest.tsv") as fh:
        assert fh.readline() == "file\trole\tsha256\n"
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert [row[:2] for row in rows] == [
        ["fold0.ckpt", "checkpoint"], ["fold0_preds.tsv", "predictions"],
        ["fold1.ckpt", "checkpoint"], ["fold1_outputs.ckpt", "outputs"],
        ["fold1_preds.tsv", "predictions"], ["runs.tsv", "scores"],
        ["train_log.tsv", "log"]]
    for name, _, digest in rows:
        assert file_hash(str(tmp_path / name)) == digest


def test_load_fold_runs_reads_no_checkpoint(dataset, tmp_path, monkeypatch):
    arts = {setup: train_model_cv(make_ctx(dataset, setup=setup), "vit",
                                  os.path.join(tmp_path, setup), log=None)
            for setup in ("A", "B")}

    def no_checkpoint(*args):
        raise AssertionError("opened a checkpoint")

    monkeypatch.setattr(checkpoint, "load_checkpoint", no_checkpoint)
    for setup, width in (("A", 1), ("B", 4)):
        runs = load_fold_runs(os.path.join(tmp_path, setup), "vit")
        assert [r.fold for r in runs] == [0, 1, 2]
        for art, run in zip(arts[setup], runs):
            assert run.test_probs.shape == (6, width)
            assert run.test_probs.tobytes() == art.run.test_probs.tobytes()


def test_load_fold_runs_verifies_manifest(dataset, tmp_path):
    train_model_cv(make_ctx(dataset), "vit", str(tmp_path), log=None)
    model_dir = os.path.join(tmp_path, "vit")
    preds = os.path.join(model_dir, "fold1_preds.tsv")
    with open(preds, "a") as fh:
        fh.write("extra\n")
    with pytest.raises(DataError, match="fold1_preds.tsv"):
        load_fold_runs(str(tmp_path), "vit")
    manifest = read_manifest(model_dir)
    del manifest["runs.tsv"]
    write_manifest(model_dir, [(name, "x") for name in manifest])
    with pytest.raises(DataError, match="runs.tsv has no entry"):
        load_fold_runs(str(tmp_path), "vit")
    os.remove(os.path.join(model_dir, "manifest.tsv"))
    with pytest.raises(DataError, match="manifest.tsv is missing"):
        load_fold_runs(str(tmp_path), "vit")


def test_manifest_row_without_three_fields_names_the_line(dataset, tmp_path):
    train_model_cv(make_ctx(dataset), "vit", str(tmp_path), log=None)
    path = os.path.join(tmp_path, "vit", "manifest.tsv")
    with open(path) as fh:
        lines = fh.readlines()
    lines[2] = lines[2].rsplit("\t", 1)[0] + "\n"  # cut the sha256 column
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(DataError, match=re.escape(f"{path}:3")):
        load_fold_runs(str(tmp_path), "vit")


@pytest.mark.parametrize("model", ["bertc", "gcan", "vit", "gcan-vit"])
def test_models_compute_in_float32(dataset, tmp_path, monkeypatch, model):
    # a silent upcast anywhere would compute in float64, lose the speed
    # and memory of float32 and fail nothing else: every tape node's
    # output and every gradient its backward returns is float32, but for
    # the probabilities (the head's and fusion's) and the loss
    for member in MODEL_MEMBERS[model] or []:
        train_model_cv(make_ctx(dataset), member, str(tmp_path), log=None)
    nodes, grads, probs, losses, optimizers = [], [], set(), set(), []
    fused = autodiff.fused

    def recorded(data, parents, backward):
        def checked(g):
            out = backward(g)
            grads.append((node, [a.dtype for a in out]))
            return out

        node = fused(data, parents, checked)
        nodes.append(node)
        return node

    def marking(fn, marks):
        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            marks.add(id(out.p if isinstance(out, ModelOutput) else out))
            return out
        return marked

    class RecordedAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    for module in (autodiff, nn, training, fusion):
        monkeypatch.setattr(module, "fused", recorded)
    monkeypatch.setattr(nn, "classifier_head",
                        marking(nn.classifier_head, probs))
    monkeypatch.setattr(FusionModel, "forward",
                        marking(FusionModel.forward, probs))
    monkeypatch.setattr(training, "setup_loss",
                        marking(training.setup_loss, losses))
    monkeypatch.setattr(training, "AdamW", RecordedAdamW)
    ctx = make_ctx(dataset, model=model, epochs=2)
    train_fold(ctx, model, 0, str(tmp_path))  # training steps, then evals
    assert probs and losses and grads
    for node in nodes:
        wide = id(node) in probs or id(node) in losses
        assert node.data.dtype == (np.float64 if wide else np.float32), \
            node.shape
    for node, dtypes in grads:
        assert dtypes == [np.float64 if id(node) in losses
                          else np.float32] * len(dtypes), node.shape
    [optimizer] = optimizers
    assert {buf.dtype for buf in (optimizer._theta, optimizer._m,
                                  optimizer._v, optimizer._g, optimizer._s1,
                                  optimizer._s2)} == {np.dtype(np.float32)}
    if model == "vit":
        assert ctx.images.dtype == np.float32


@pytest.mark.parametrize("setup", ["A", "B"])
def test_saturated_float32_head_keeps_gradients_finite(dataset, setup):
    # a float32 logistic is exactly 1.0 above a logit of about 17, where
    # both losses divide by 1 - p; the head's logistic runs in float64
    ctx = make_ctx(dataset, setup=setup)
    data = ctx._build_fold(0, "gcan")
    n_out = 1 if setup == "A" else 4
    model = make_unimodal("gcan", ctx.cfg, data.vocab_size, n_out, seed=0)
    optimizer = AdamW(model.params)
    ids, adj = (a[data.train.rows[:4]] for a in data.inputs)
    head = {k: model.params[f"head.{k}"].data.astype(np.float64)
            for k in ("w1", "b1", "w2", "b2")}
    f = model.stack(ids, adj).sum(axis=1).data.astype(np.float64)
    logits = np.maximum(f @ head["w1"].T + head["b1"], 0.0) @ head["w2"].T \
        + head["b2"]
    column = np.argmax(np.abs(logits[0]))
    model.params["head.w2"].data *= 32.0 / logits[0, column]  # b2 is 0
    out = model.forward(ids, adj)
    assert float(out.p.data[0, column]) > 1.0 - 1e-13  # a logit above 30
    # label 0 for every sample, so sample 0's p needs 1 - p
    y_mis, y_sub = np.zeros(4), np.zeros((4, 4))
    setup_loss(out.p, y_mis, y_sub,
               RunConfig(setup=setup, epochs=5, warmup_epochs=1),
               class_weights([1, 1, 1, 1], 4)).backward()
    for name, p in model.params.items():
        assert np.isfinite(p.grad).all(), name
    optimizer.step(1e-3)
