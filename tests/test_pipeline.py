"""Cross-validation pipeline: fold encoding, determinism, predictions I/O."""

import gc
import json
import multiprocessing
import os
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from memefuse import pipeline
from memefuse import checkpoint
from memefuse.autodiff import Tensor
from memefuse.checkpoint import file_hash
from memefuse.dataio import MODEL_MEMBERS, RunConfig, ingest
from memefuse.fusion import FusionModel
from memefuse.nn import GcanEncoder, ImageEncoder, ModelOutput, TextEncoder
from memefuse.pipeline import (CvContext, DependencyError, FoldData,
                               FusionTrainable, Split, UnimodalTrainable,
                               load_fold_runs, make_unimodal, read_manifest,
                               read_predictions, train_fold, train_model_cv,
                               write_manifest, write_predictions)
from memefuse.preprocess import DataError, build_vocabulary, encode_document
from memefuse.textgraph import build_adjacency, count_windows
from memefuse.synth import SynthSpec, gen_synth
from oracles import document_block, member_outputs_by_inference, \
    unseen_block

CFG_KW = dict(folds=3, epochs=3, warmup_epochs=1, base_lr=3e-3,
              fusion_lr=1e-2, seq_len=10, resize=12, crop=8, patch=4,
              d_att=8, n_heads=2, n_layers=2, dropout=0.1, seed=4)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    gen_synth(SynthSpec(n_train=24, n_test=6, seed=2, image_side=16), root)
    train = ingest(os.path.join(root, "train.tsv"))
    test = ingest(os.path.join(root, "test.tsv"))
    return train, test


def make_ctx(dataset, **overrides):
    train, test = dataset
    return CvContext(train, test, RunConfig(**{**CFG_KW, **overrides}))


def test_fold_encoding_shapes_and_leakage(dataset):
    ctx = make_ctx(dataset)
    data = ctx._build_fold(0, "gcan")
    n_val = len(ctx.folds[0])
    seqs, adjs = data.train.inputs
    assert seqs.shape == (24 - n_val, 10)
    assert adjs.shape == (24 - n_val, 10, 10)
    assert data.val.inputs[0].shape[0] == n_val
    assert data.test.inputs[0].shape[0] == 6
    # fold splits partition the training ids
    all_val = np.concatenate(ctx.folds)
    assert sorted(all_val.tolist()) == list(range(24))
    # every adjacency block is symmetric with ones on PAD diagonals
    for split in (data.train, data.val, data.test):
        adjs = split.inputs[1]
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
            assert split.inputs[1][k].tobytes() == ref.tobytes()


class CountingCsr(sp.csr_matrix):
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
        graph.normalized = CountingCsr(graph.normalized)
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
    for split in data.splits().values():
        n = len(split.ids)
        assert [a.shape for a in split.inputs] == {
            "bertc": [(n, 10)],
            "gcan": [(n, 10), (n, 10, 10)],
            "vit": [(n, 3, 8, 8)]}[model]
        if model != "vit":
            assert all(a.ndim < 4 for a in split.inputs)  # no image rows
        out = encoder.forward(*(a[:2] for a in split.inputs))
        assert out.p.shape == (2, 4)
    train_fold(ctx, model, 0)
    with pytest.raises(DependencyError):  # no member outputs to read
        train_fold(ctx, "bertc-vit", 1, None)


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
        expected = [arrays[f"{split}.{part}"] for arrays in saved
                    for part in ("p", "f")]
        assert [a.tobytes() for a in fold_split.inputs] == \
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
            for split, (p, f) in ref.items():
                assert arrays[f"{split}.p"].tobytes() == p.tobytes()
                assert arrays[f"{split}.f"].tobytes() == f.tobytes()
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
    taped = forward(*data.val.inputs)
    assert taped.p._parents  # outside eval the same forward is on the tape
    assert probs.tobytes() == taped.p.data.tobytes()
    assert feats.tobytes() == taped.f.data.tobytes()
    assert all(p.requires_grad for p in model.params.values())

    fmodel = FusionModel([(4, 8)] * 2, 4, 0.1, seed=0)
    saved = Split(data.val.ids, data.val.y_mis, data.val.y_sub,
                  (probs, feats) * 2)
    trainable = FusionTrainable(fmodel, FoldData(saved, saved, saved, None))
    fused = trainable.eval_val()
    ref = fmodel.forward([ModelOutput(p=Tensor(probs), f=Tensor(feats))] * 2)
    assert ref.p._parents
    assert fused.tobytes() == ref.p.data.tobytes()


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


def manifest_names(model_dir):
    with open(os.path.join(model_dir, "manifest.tsv")) as fh:
        fh.readline()
        return [line.split("\t")[0] for line in fh]


def test_cv_deterministic_and_parallel_equivalent(dataset, tmp_path):
    # gcan carries the adjacency blocks; jobs=5 asks for more workers
    # than the 3 folds
    for model, jobs in (("vit", 2), ("gcan", 2), ("vit", 5)):
        serial = os.path.join(tmp_path, f"{model}-{jobs}-serial")
        parallel = os.path.join(tmp_path, f"{model}-{jobs}-parallel")
        train_model_cv(make_ctx(dataset), model, serial, jobs=1, log=None)
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

