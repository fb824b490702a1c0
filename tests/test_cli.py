"""Dataset I/O, synthetic generator, configuration, and the CLI surface."""

import os
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample
from memefuse.checkpoint import file_hash
from memefuse.cli import main
from memefuse.dataio import (TSV_HEADER, RunConfig, check_ppm, emit_config,
                             ingest, load_config, parse_config, read_raster,
                             sample_pixels, write_dataset, write_ppm)
from memefuse.preprocess import DataError
from memefuse.synth import SynthSpec, bayes_accuracies, gen_synth, generate


# ----------------------------------------------------------------------- ppm

def test_ppm_roundtrip(tmp_path):
    img = np.random.default_rng(0).integers(
        0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = os.path.join(tmp_path, "x.ppm")
    write_ppm(path, img)
    assert np.array_equal(read_raster(check_ppm(path)), img)


def test_ppm_rejects_other_formats(tmp_path):
    path = os.path.join(tmp_path, "x.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n255\n....")
    with pytest.raises(DataError):
        read_raster(check_ppm(path))


MALFORMED_PPM = {
    "truncated-raster": b"P6\n2 2\n255\n" + bytes(11),
    "no-raster": b"P6\n2 2\n255",
    "non-numeric-size": b"P6\n2 x\n255\n" + bytes(12),
    "negative-size": b"P6\n-1 2\n255\n" + bytes(12),
    "zero-width": b"P6\n0 4\n255\n",
}


@pytest.mark.parametrize("content, via", [
    *(pytest.param(content, "check_ppm", id=name)
      for name, content in MALFORMED_PPM.items()),
    *(pytest.param(content, "ingest", id=f"ingest-{name}")
      for name, content in MALFORMED_PPM.items())])
def test_ppm_malformed_names_the_file(tmp_path, content, via):
    # ingest refuses by the header and the file's size alone, with
    # check_ppm's message after the TSV's `path:line`
    os.makedirs(os.path.join(tmp_path, "images"))
    path = os.path.join(tmp_path, "images", "x.ppm")
    with open(path, "wb") as fh:
        fh.write(content)
    if via == "check_ppm":
        with pytest.raises(DataError, match="x.ppm"):
            read_raster(check_ppm(path))
    else:
        tsv = write_rows(tmp_path, ["x\ta\t\t0\t0\t0\t0\t0"])
        with pytest.raises(DataError, match=re.escape(f"{tsv}:2: ") +
                           ".*" + re.escape(path)):
            ingest(tsv)


def test_ppm_header_of_any_length(tmp_path):
    # a comment runs past any fixed prefix that ingest might read
    img = np.random.default_rng(1).integers(
        0, 256, size=(3, 5, 3)).astype(np.uint8)
    os.makedirs(os.path.join(tmp_path, "images"))
    path = os.path.join(tmp_path, "images", "x.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n# " + b"c" * 5000 + b"\n5 3\n255\n" + img.tobytes())
    sample, = ingest(write_rows(tmp_path, ["x\ta\t\t0\t0\t0\t0\t0"]))
    pixels = read_raster(check_ppm(path))
    assert np.array_equal(sample_pixels(sample), pixels)
    assert np.array_equal(pixels, img)


# -------------------------------------------------------------------- ingest

def write_rows(tmp_path, rows, header="id\tocr_text\tcaptions\tmis\tshm\t"
               "ste\tobj\tvio"):
    path = os.path.join(tmp_path, "train.tsv")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


def test_ingest_roundtrip(tmp_path):
    samples = [make_sample("b1", "hello there", ["a cat"], (1, 1, 0, 0, 0)),
               make_sample("a2", "more text", [], (0, 0, 0, 0, 0))]
    path = os.path.join(tmp_path, "train.tsv")
    write_dataset(path, samples, os.path.join(tmp_path, "images"))
    loaded = ingest(path)
    assert [s.id for s in loaded] == ["a2", "b1"]  # sorted by id
    by_id = {s.id: s for s in loaded}
    assert by_id["b1"].captions == ["a cat"]
    assert by_id["a2"].captions == []
    assert np.array_equal(sample_pixels(by_id["b1"]), samples[0].image)
    assert by_id["b1"].labels.mis == 1


def test_ingest_rejects_bad_header(tmp_path):
    path = write_rows(tmp_path, [], header="id\tbad")
    with pytest.raises(DataError, match=":1:"):
        ingest(path, tmp_path)


def test_ingest_rejects_label_invariant(tmp_path):
    os.makedirs(os.path.join(tmp_path, "images"), exist_ok=True)
    write_ppm(os.path.join(tmp_path, "images", "x.ppm"),
              np.zeros((2, 2, 3), dtype=np.uint8))
    path = write_rows(tmp_path, ["x\tt\t\t0\t1\t0\t0\t0"])
    with pytest.raises(DataError, match="mis=0"):
        ingest(path)


def test_ingest_rejects_column_count_with_line_number(tmp_path):
    path = write_rows(tmp_path, ["x\tonly three\tcols"])
    with pytest.raises(DataError, match=":2:"):
        ingest(path, tmp_path)


def test_ingest_rejects_duplicate_ids(tmp_path):
    os.makedirs(os.path.join(tmp_path, "images"), exist_ok=True)
    write_ppm(os.path.join(tmp_path, "images", "x.ppm"),
              np.zeros((2, 2, 3), dtype=np.uint8))
    path = write_rows(tmp_path, ["x\ta\t\t0\t0\t0\t0\t0",
                                 "x\tb\t\t0\t0\t0\t0\t0"])
    with pytest.raises(DataError, match="duplicate"):
        ingest(path)


def test_ingest_missing_image(tmp_path):
    path = write_rows(tmp_path, ["x\ta\t\t0\t0\t0\t0\t0"])
    with pytest.raises(DataError, match="missing image"):
        ingest(path, os.path.join(tmp_path, "images"))


def test_ingest_missing_image_names_the_line(tmp_path):
    # found by test_ingest_gives_samples_or_names_the_line
    path = write_rows(tmp_path, ["\t\t\t0\t0\t0\t0\t0"])
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: missing image for sample : ")):
        ingest(path, os.path.join(tmp_path, "images"))


def test_ingest_malformed_image_names_the_line(tmp_path):
    os.makedirs(os.path.join(tmp_path, "images"))
    with open(os.path.join(tmp_path, "images", "x.ppm"), "wb") as fh:
        fh.write(b"P6\n2 2\n255\n")
    path = write_rows(tmp_path, ["x\ta\t\t0\t0\t0\t0\t0"])
    with pytest.raises(DataError, match=re.escape(f"{path}:2: PPM raster")):
        ingest(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Images for ids a, b and c, and a PPM without its raster for `bad`."""
    root = tmp_path_factory.mktemp("fuzz")
    os.makedirs(os.path.join(root, "images"))
    for sid in ("a", "b", "c"):
        write_ppm(os.path.join(root, "images", f"{sid}.ppm"),
                  np.zeros((2, 2, 3), dtype=np.uint8))
    with open(os.path.join(root, "images", "bad.ppm"), "wb") as fh:
        fh.write(b"P6\n2 2\n255\n")
    return str(root)


SIDS = st.sampled_from(["a", "b", "c", "bad", "zz"])
LABELS = st.sampled_from([["0"] * 5, ["1", "1", "0", "0", "0"],
                          ["1", "0", "0", "1", "1"]])


def tsv_row(sid, ocr, captions, labels):
    return "\t".join([sid, ocr, captions, *labels])


# well-formed rows (of a missing, malformed or good image), rows with
# any id or labels, and any text
TSV_ROWS = st.one_of(
    st.builds(tsv_row, SIDS, st.text(max_size=10), st.text(max_size=10),
              LABELS),
    st.builds(tsv_row, SIDS | st.text(max_size=4), st.text(max_size=10),
              st.text(max_size=10),
              LABELS | st.lists(st.sampled_from(["0", "1", "2", " 1", "x",
                                                 ""]), min_size=4,
                                max_size=6)),
    st.text(max_size=40))


@settings(max_examples=400, deadline=None)
@given(header=st.sampled_from(["\t".join(TSV_HEADER)] * 3 + ["id\tbad", ""]),
       rows=st.lists(TSV_ROWS, max_size=6))
def test_ingest_gives_samples_or_names_the_line(fuzz_dir, header, rows):
    # a DataError names `path:line`, and every line before that one
    # ingests; never any other exception
    path = os.path.join(fuzz_dir, "train.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
    try:
        samples = ingest(path)
    except DataError as exc:
        where = re.match(re.escape(path) + r":(\d+): ", str(exc))
        assert where, str(exc)
        with open(path, encoding="utf-8") as fh:
            lineno, lines = int(where[1]), fh.readlines()
        assert 1 <= lineno <= len(lines)
        if lineno > 1:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:lineno - 1])
            ingest(path)
    else:
        ids = [s.id for s in samples]
        assert ids == sorted(set(ids)) and set(ids) <= {"a", "b", "c"}


# -------------------------------------------------------------------- config

def test_config_roundtrip():
    cfg = RunConfig(dataset="d.tsv", model="bertc-vit", setup="A", folds=3,
                    base_lr=1e-3, seed=42)
    assert parse_config(emit_config(cfg)) == cfg


def test_config_parsing_details():
    cfg = parse_config("# comment\nfolds = 5\n\nbase_lr = 0.01 # inline\n")
    assert cfg.folds == 5
    assert cfg.base_lr == 0.01
    with pytest.raises(DataError, match="unknown key"):
        parse_config("nope = 1")
    with pytest.raises(DataError, match="key = value"):
        parse_config("just words")
    with pytest.raises(DataError, match="line 2: folds"):
        parse_config("seed = 1\nfolds = x\n")


def test_config_lines_counted_as_in_a_text_file():
    # found by test_parse_config_gives_a_config_or_names_the_line:
    # str.splitlines also ends a line at \x1e, \x0c, \x85 or \u2028
    for text in ("\x1e=", "\x1e=\r"):
        with pytest.raises(DataError,
                           match="^config line 1: unknown key ''$"):
            parse_config(text)
    with pytest.raises(DataError, match="^config line 1: seed"):
        parse_config("seed = 1\x0cfolds = 3")
    assert parse_config("folds = 3\rseed = 4\r\nn_heads = 2") == \
        RunConfig(folds=3, seed=4, n_heads=2)


def test_config_parser_builds_other_dataclasses():
    spec = parse_config("n_train = 7\nkeyword_prob = 0.25\n", SynthSpec)
    assert spec == SynthSpec(n_train=7, keyword_prob=0.25)
    with pytest.raises(DataError, match="line 1: unknown key 'folds'"):
        parse_config("folds = 3", SynthSpec)


CONFIG_LINES = st.one_of(st.text(max_size=30), st.builds(
    "{}{}{}".format,
    st.sampled_from([f.name for f in fields(RunConfig)])
    | st.text(max_size=8),
    st.sampled_from(["=", " = ", "==", " "]),
    st.text(max_size=12) | st.integers().map(str)
    | st.floats().map(repr)))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_parse_config_gives_a_config_or_names_the_line(lines, newline):
    # a DataError names the line, counted as a text file's lines are, and
    # every line before it parses; never any other exception
    text = newline.join(lines)
    try:
        cfg = parse_config(text, source="run.cfg")
    except DataError as exc:
        where = re.match(r"run\.cfg line (\d+): ", str(exc))
        assert where, str(exc)
        lineno = int(where[1])
        file_lines = re.split(r"\r\n|\r|\n", text)
        assert 1 <= lineno <= len(file_lines)
        parse_config("\n".join(file_lines[:lineno - 1]))
        with pytest.raises(DataError):
            parse_config(file_lines[lineno - 1])
    else:
        kinds = {"str": str, "int": int, "float": float}
        assert all(type(getattr(cfg, f.name)) is kinds[f.type]
                   for f in fields(RunConfig))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(model="resnet").validate()
    with pytest.raises(ValueError):
        RunConfig(setup="C").validate()


@pytest.mark.parametrize("field, value", [
    ("jobs", 0), ("jobs", -3), ("folds", 1), ("seq_len", 1), ("crop", 40),
    ("patch", 5), ("patch", 0), ("n_heads", 3), ("n_heads", 0),
    ("batch_size", 0), ("fusion_batch_size", 0), ("d_att", 0),
    ("window_len", 0), ("warmup_epochs", 0), ("warmup_epochs", -1),
    ("warmup_epochs", 50), ("warmup_epochs", 60), ("dropout", 1.0),
    ("dropout", -0.5), ("crop", 0), ("seed", -1), ("max_vocab", -1),
    ("max_vocab", 0), ("n_layers", 0), ("n_layers", -1), ("base_lr", 0.0),
    ("base_lr", -1.0), ("fusion_lr", 0.0), ("fusion_lr", -1e-3),
    ("patience", 0), ("patience", -1), ("min_freq", 0)])
def test_config_validation_numeric_fields(field, value):
    # defaults: resize 36, crop 32, patch 8, d_att 32, n_heads 4, epochs 50
    RunConfig().validate()
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value}).validate()


# ----------------------------------------------------------------- generator

def test_generate_deterministic_and_valid():
    spec = SynthSpec(n_train=30, n_test=10, seed=5)
    train1, test1 = generate(spec)
    train2, test2 = generate(spec)
    assert len(train1) == 30 and len(test1) == 10
    for a, b in zip(train1 + test1, train2 + test2):
        assert a.id == b.id
        assert a.ocr_text == b.ocr_text
        assert np.array_equal(a.image, b.image)
    for s in train1:
        s.labels.validate()


def test_gen_synth_byte_identical(tmp_path):
    spec = SynthSpec(n_train=12, n_test=4, seed=9)
    dir1, dir2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    gen_synth(spec, dir1)
    gen_synth(spec, dir2)
    for name in ("train.tsv", "test.tsv"):
        assert file_hash(os.path.join(dir1, name)) == \
            file_hash(os.path.join(dir2, name))
    images = sorted(os.listdir(os.path.join(dir1, "images")))
    assert len(images) == 16
    for name in images:
        assert file_hash(os.path.join(dir1, "images", name)) == \
            file_hash(os.path.join(dir2, "images", name))


def test_gen_synth_ingestable(tmp_path):
    gen_synth(SynthSpec(n_train=10, n_test=3, seed=0), tmp_path)
    train = ingest(os.path.join(tmp_path, "train.tsv"))
    assert len(train) == 10


def test_bayes_accuracies_ordering():
    for p in (0.3, 0.5, 0.65):
        a_t, a_v, a_tv = bayes_accuracies(SynthSpec(keyword_prob=p,
                                                    motif_prob=p))
        assert a_tv == 1.0
        assert a_t < a_tv and a_v < a_tv
        assert 0.0 < a_t < 1.0


def test_bayes_accuracy_by_simulation():
    # the enumerated text-only Bayes accuracy matches a Monte-Carlo
    # evaluation of the optimal text-only decision rule
    spec = SynthSpec(keyword_prob=0.6, motif_prob=0.4)
    a_t, _, _ = bayes_accuracies(spec)
    rng = np.random.default_rng(0)
    n = 200_000
    triggers = rng.random((n, 4)) < spec.keyword_prob
    motifs = rng.random((n, 4)) < spec.motif_prob
    y = (triggers & motifs).any(axis=1)
    # optimal rule: predict the more likely label given the trigger bits
    p_y0 = (1 - spec.motif_prob) ** triggers.sum(axis=1)
    pred = p_y0 < 0.5
    acc = np.mean(pred == y)
    assert abs(acc - a_t) < 5e-3


# ----------------------------------------------------------------------- cli

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small end-to-end CLI run shared by the CLI surface tests."""
    root = tmp_path_factory.mktemp("cli")
    data = os.path.join(root, "data")
    out = os.path.join(root, "runs")
    spec_path = os.path.join(root, "synth.spec")
    with open(spec_path, "w") as fh:
        fh.write("n_train = 30\nn_test = 8\nseed = 3\nimage_side = 16\n")
    assert main(["gen-synth", "--spec", spec_path, "--out", data]) == 0
    cfg = RunConfig(folds=3, epochs=3, warmup_epochs=1, base_lr=3e-3,
                    fusion_lr=1e-2, seq_len=10, resize=12, crop=8, patch=4,
                    d_att=8, n_heads=2, n_layers=2, dropout=0.1, seed=1)
    cfg_path = os.path.join(root, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(emit_config(cfg))
    return {"root": root, "data": data, "out": out, "cfg": cfg_path}


def test_cli_train_config_without_image_dir(tiny_run, tmp_path,
                                            monkeypatch):
    # image_dir left empty: the images sit next to the dataset, as with
    # --data, wherever the command runs from
    cfg = load_config(tiny_run["cfg"])
    cfg.dataset = os.path.join(tiny_run["data"], "train.tsv")
    cfg.model, cfg.folds = "vit", 2
    assert cfg.image_dir == ""
    path = os.path.join(tmp_path, "no_images.cfg")
    with open(path, "w") as fh:
        fh.write(emit_config(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", path, "--out", "runs"]) == 0
    assert os.path.exists(os.path.join(tmp_path, "runs", "vit", "runs.tsv"))


def test_cli_train_dependency_error(tiny_run, tmp_path, capsys):
    for jobs in ("1", "2"):
        code = main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", "gcan-vit", "--jobs", jobs,
                     "--out", str(tmp_path)])
        assert code == 2, jobs
        assert "member model 'gcan'" in capsys.readouterr().err, jobs


def test_cli_worker_errors_keep_exit_codes(tiny_run, tmp_path, capsys,
                                          monkeypatch):
    from memefuse import pipeline
    from memefuse.nn import NumericError
    for error, expected in ((DataError("bad sample"), 2),
                            (pipeline.DependencyError("no member"), 2),
                            (NumericError("non-finite values in loss"), 3)):
        def failing(*args, **kwargs):
            raise error
        monkeypatch.setattr(pipeline, "train_fold", failing)
        code = main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", "vit", "--jobs", "2",
                     "--out", str(tmp_path)])
        assert code == expected, type(error)
        assert str(error) in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--jobs", "0"], ["--jobs", "-3"],
                                  ["--folds", "1"], ["--folds", "31"]])
def test_cli_train_refuses_bad_config_before_work(tiny_run, tmp_path, capsys,
                                                  args):
    out = os.path.join(tmp_path, "runs")
    code = main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan", "--out", out] + args)
    assert code == 2
    assert args[0][2:] in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_full_flow(tiny_run, capsys):
    for model in ("gcan", "vit", "gcan-vit"):
        code = main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", model,
                     "--out", tiny_run["out"]])
        assert code == 0, model
    capsys.readouterr()

    assert main(["evaluate", "--runs", tiny_run["out"], "--test",
                 tiny_run["data"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("model\tfold")
    votes = [l for l in lines if "\tsoft-vote\t" in l]
    assert len(votes) == 3

    preds = os.path.join(tiny_run["root"], "soft.tsv")
    assert main(["ensemble", "--runs", os.path.join(tiny_run["out"], "gcan"),
                 "--mode", "soft", "--out", preds]) == 0
    with open(preds) as fh:
        header = fh.readline().strip().split("\t")
        assert header[:6] == ["id", "p_shm", "p_ste", "p_obj", "p_vio",
                              "p_mis"]
        assert len(fh.readlines()) == 8

    hard = os.path.join(tiny_run["root"], "hard.tsv")
    assert main(["ensemble", "--mode", "hard", "--out", hard, "--runs"]
                + [os.path.join(tiny_run["out"], m)
                   for m in ("gcan", "vit", "gcan-vit")]) == 0
    assert os.path.exists(hard)

    assert main(["significance",
                 "--a", os.path.join(tiny_run["out"], "gcan", "runs.tsv"),
                 "--b", os.path.join(tiny_run["out"], "vit", "runs.tsv")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("U\t")
    stars = out[-1].split("\t")[2]
    assert stars in ("****", "***", "**", "*", "ns")


def test_cli_evaluate_and_ensemble_setup_a(tiny_run, capsys):
    out = os.path.join(tiny_run["root"], "runs_a")
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "vit", "--setup", "A",
                 "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "vit", "runs.tsv")) as fh:
        fh.readline()
        trained = [f"{float(line.split(chr(9))[2]):.4f}" for line in fh]

    assert main(["evaluate", "--runs", out, "--test", tiny_run["data"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    evaluated = [l.split("\t")[2] for l in lines if "soft-vote" not in l]
    assert evaluated == trained  # same F1 that training printed per fold

    preds = os.path.join(tiny_run["root"], "soft_a.tsv")
    assert main(["ensemble", "--runs", os.path.join(out, "vit"),
                 "--mode", "soft", "--out", preds]) == 0
    with open(preds) as fh:
        fh.readline()
        p_mis = [float(line.split("\t")[5]) for line in fh]
    assert len(p_mis) == 8
    assert all(0.0 < p < 1.0 for p in p_mis)


def test_cli_significance_needs_test_f1_column(tmp_path, capsys):
    path = os.path.join(tmp_path, "runs.tsv")
    with open(path, "w") as fh:
        fh.write("fold\tbest_val_f1\n0\t0.5\n1\t0.6\n")
    assert main(["significance", "--a", path, "--b", path]) == 2
    assert "test_taskA_f1" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "0\t0.5\t0.4\n1\t0.6\n", "0\t0.5\t0.4\n\n",
    "0\t0.5\t0.4\n1\t0.6\tn/a\n", "0\t0.5\t0.4\n1\t0.6\tnan\n",
    "0\t0.5\t0.4\n1\t0.6\t1.5\n"],
    ids=["short-row", "blank-line", "not-a-number", "nan", "above-one"])
def test_cli_significance_names_bad_row(tmp_path, capsys, body):
    path = os.path.join(tmp_path, "runs.tsv")
    with open(path, "w") as fh:
        fh.write("fold\tbest_val_f1\ttest_taskA_f1\n" + body)
    assert main(["significance", "--a", path, "--b", path]) == 2
    assert f"{path}:3" in capsys.readouterr().err


def test_cli_run_artifacts(tiny_run):
    gcan_dir = os.path.join(tiny_run["out"], "gcan")
    names = set(os.listdir(gcan_dir))
    assert {"runs.tsv", "train_log.tsv", "manifest.tsv"} <= names
    assert {"fold0.ckpt", "fold0_preds.tsv"} <= names
    with open(os.path.join(gcan_dir, "manifest.tsv")) as fh:
        header = fh.readline().strip().split("\t")
        assert header == ["file", "role", "sha256"]
        for line in fh:
            name, role, digest = line.strip().split("\t")
            assert file_hash(os.path.join(gcan_dir, name)) == digest


def test_cli_fusion_preserves_member_checkpoints(tiny_run):
    # the fusion checkpoints record the member hashes they were built on;
    # those hashes still match the files on disk (members never mutated)
    from memefuse.checkpoint import load_checkpoint
    fusion_dir = os.path.join(tiny_run["out"], "gcan-vit")
    _, meta = load_checkpoint(os.path.join(fusion_dir, "fold0.ckpt"))
    for member in ("gcan", "vit"):
        recorded = meta[f"member_hash:{member}"]
        current = file_hash(os.path.join(tiny_run["out"], member,
                                         "fold0.ckpt"))
        assert recorded == current


def test_cli_usage_errors(capsys):
    assert main(["train", "--model", "resnet"]) == 1  # argparse choice
    assert main([]) == 1
    assert main(["--help"]) == 0


def test_cli_data_errors(tmp_path, capsys):
    assert main(["train", "--model", "gcan",
                 "--data", os.path.join(tmp_path, "missing"),
                 "--out", os.path.join(tmp_path, "out")]) == 2
    assert main(["train", "--model", "gcan"]) == 2  # no dataset given


@pytest.mark.parametrize("model", ["gcan", "bertc", "vit"])
def test_cli_train_refuses_malformed_image(tiny_run, tmp_path, capsys, model):
    # a text model reads no image, but ingest checks every one
    data = os.path.join(tmp_path, "data")
    shutil.copytree(tiny_run["data"], data)
    image = sorted(os.listdir(os.path.join(data, "images")))[0]
    image_path = os.path.join(data, "images", image)
    with open(image_path, "wb") as fh:
        fh.write(MALFORMED_PPM["zero-width"])
    out = os.path.join(tmp_path, "runs")
    assert main(["train", "--config", tiny_run["cfg"], "--data", data,
                 "--model", model, "--out", out]) == 2
    assert image_path in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, model, "runs.tsv"))


@pytest.mark.parametrize("text, lineno", [
    ("n_train = 5\n__init__ = 3\n", 2),
    ("n_train = 5\n# note\nn_test 3\n", 3),
    ("seed = 1\nimage_side = big\n", 2)],
    ids=["dunder-key", "no-equals", "bad-value"])
def test_cli_gen_synth_spec_errors_name_the_line(tmp_path, capsys, text,
                                                 lineno):
    spec = os.path.join(tmp_path, "bad.spec")
    with open(spec, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "data")
    assert main(["gen-synth", "--spec", spec, "--out", out]) == 2
    assert f"line {lineno}:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("spec, field", [
    ("n_train = -3", "n_train"), ("n_test = 0", "n_test"),
    ("keyword_prob = 1.5", "keyword_prob"),
    ("motif_prob = -0.1", "motif_prob"), ("image_side = 0", "image_side"),
    ("image_side = 1", "image_side"), ("n_filler = -1", "n_filler"),
    ("seed = 5", "seed")],
    ids=["n_train", "n_test", "keyword_prob", "motif_prob", "image_side-0",
         "image_side-1", "n_filler", "seed-flag"])
def test_cli_gen_synth_refuses_spec_it_cannot_honour(tmp_path, capsys, spec,
                                                     field):
    # exit 2 naming the field before anything is written; --seed
    # overrides the spec's seed and is checked too
    path = os.path.join(tmp_path, "bad.spec")
    with open(path, "w") as fh:
        fh.write(spec + "\n")
    out = os.path.join(tmp_path, "data")
    seed = ["--seed", "-1"] if field == "seed" else []
    assert main(["gen-synth", "--spec", path, "--out", out, *seed]) == 2
    assert f"error: {field} " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_config_value_error_names_the_line(tiny_run, tmp_path, capsys):
    cfg = os.path.join(tmp_path, "bad.cfg")
    with open(cfg, "w") as fh:
        fh.write("# run\nseed = 1\nfolds = x\n")
    assert main(["train", "--config", cfg, "--data", tiny_run["data"],
                 "--model", "gcan", "--out", str(tmp_path)]) == 2
    assert "line 3: folds" in capsys.readouterr().err


@pytest.fixture(scope="module")
def member_runs(tiny_run, tmp_path_factory):
    """gcan and vit trained into a run directory of their own."""
    out = str(tmp_path_factory.mktemp("members"))
    for model in ("gcan", "vit"):
        assert main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", model, "--out", out]) == 0
    return out


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset, os.SEEK_END)
        byte = fh.read(1)[0]
        fh.seek(offset, os.SEEK_END)
        fh.write(bytes([byte ^ 1]))


def test_cli_refused_train_leaves_no_model_directory(tiny_run, member_runs,
                                                     tmp_path, capsys):
    # bertc is missing: the fusion run is refused and removes the model
    # directory it made, so evaluate still reads the run tree
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    for jobs in ("1", "2"):
        assert main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", "bertc-vit", "--jobs", jobs,
                     "--out", runs]) == 2, jobs
        assert "member model 'bertc'" in capsys.readouterr().err
        assert sorted(os.listdir(runs)) == ["gcan", "vit"], jobs
    assert main(["evaluate", "--runs", runs, "--test", tiny_run["data"]]) == 0
    # a model directory that was there before stays
    os.mkdir(os.path.join(runs, "bertc-vit"))
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "bertc-vit", "--out", runs]) == 2
    assert os.path.isdir(os.path.join(runs, "bertc-vit"))


def test_cli_evaluate_refuses_tampered_predictions(tiny_run, member_runs,
                                                   tmp_path, capsys):
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    assert main(["evaluate", "--runs", runs, "--test", tiny_run["data"]]) == 0
    preds = os.path.join(runs, "gcan", "fold0_preds.tsv")
    flip_byte(preds, -2)  # the last label_mis
    capsys.readouterr()
    assert main(["evaluate", "--runs", runs, "--test", tiny_run["data"]]) == 2
    assert preds in capsys.readouterr().err


def test_cli_readers_refuse_runs_tsv_without_a_fold(tiny_run, member_runs,
                                                    tmp_path, capsys):
    # a runs.tsv cut to its header, with its hash re-recorded: each reader
    # exits 2 naming it, before it writes any output
    from memefuse.rundir import write_manifest
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    vit = os.path.join(runs, "vit")
    runs_tsv = os.path.join(vit, "runs.tsv")
    with open(runs_tsv) as fh:
        header = fh.readline()
    with open(runs_tsv, "w") as fh:
        fh.write(header)
    with open(os.path.join(vit, "manifest.tsv")) as fh:
        fh.readline()
        roles = [tuple(line.split("\t")[:2]) for line in fh]
    write_manifest(vit, roles)
    gcan = os.path.join(runs, "gcan")
    out = os.path.join(tmp_path, "votes.tsv")
    for argv in (["evaluate", "--runs", runs, "--test", tiny_run["data"]],
                 ["ensemble", "--mode", "soft", "--runs", vit, "--out", out],
                 ["ensemble", "--mode", "hard", "--runs", gcan, vit,
                  "--out", out],
                 ["significance", "--a", runs_tsv,
                  "--b", os.path.join(gcan, "runs.tsv")]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert runs_tsv in captured.err, argv
        assert "Traceback" not in captured.err, argv
    assert not os.path.exists(out)


def rename_ids(text: str) -> str:
    return text.replace("test0", "zz0")


def test_cli_evaluate_refuses_other_test_ids(tiny_run, member_runs, tmp_path,
                                             capsys):
    # the same test samples under other ids: the labels line up by row,
    # but the predictions are not about these samples
    data = os.path.join(tmp_path, "renamed")
    shutil.copytree(tiny_run["data"], data)
    images = os.path.join(data, "images")
    for name in os.listdir(images):
        os.rename(os.path.join(images, name),
                  os.path.join(images, rename_ids(name)))
    test_tsv = os.path.join(data, "test.tsv")
    with open(test_tsv) as fh:
        text = fh.read()
    with open(test_tsv, "w") as fh:
        fh.write(rename_ids(text))
    capsys.readouterr()
    assert main(["evaluate", "--runs", member_runs, "--test", data]) == 2
    err = capsys.readouterr().err
    assert os.path.join(member_runs, "gcan", "fold0_preds.tsv") in err
    assert main(["evaluate", "--runs", member_runs,
                 "--test", tiny_run["data"]]) == 0


def test_cli_hard_ensemble_refuses_directories_over_other_samples(
        tiny_run, member_runs, tmp_path, capsys):
    # a run directory that is verified against its own manifest but
    # predicted other samples than the first directory
    from memefuse.rundir import write_manifest
    other = os.path.join(tmp_path, "vit")
    shutil.copytree(os.path.join(member_runs, "vit"), other)
    with open(os.path.join(other, "manifest.tsv")) as fh:
        fh.readline()
        roles = [tuple(line.split("\t")[:2]) for line in fh]
    for name, role in roles:
        if role == "predictions":
            path = os.path.join(other, name)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(rename_ids(text))
    write_manifest(other, roles)
    gcan = os.path.join(member_runs, "gcan")
    out = os.path.join(tmp_path, "hard.tsv")
    capsys.readouterr()
    assert main(["ensemble", "--mode", "hard", "--out", out,
                 "--runs", gcan, other]) == 2
    assert other in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["ensemble", "--mode", "hard", "--out", out, "--runs", gcan,
                 os.path.join(member_runs, "vit")]) == 0


def test_cli_readers_refuse_fusion_run_over_retrained_member(
        tiny_run, member_runs, tmp_path, capsys):
    # gcan retrained (2 epochs instead of 3) under an existing gcan-vit:
    # the fusion run's checkpoints record the hash of a gcan checkpoint
    # that is gone, so evaluate and ensemble refuse to read it
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--out", runs]) == 0
    gcan, fusion = (os.path.join(runs, m) for m in ("gcan", "gcan-vit"))
    recorded = file_hash(os.path.join(gcan, "fold0.ckpt"))
    cfg = load_config(tiny_run["cfg"])
    cfg.epochs = 2
    cfg_path = os.path.join(tmp_path, "two_epochs.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(emit_config(cfg))
    assert main(["train", "--config", cfg_path, "--data", tiny_run["data"],
                 "--model", "gcan", "--out", runs]) == 0
    retrained = file_hash(os.path.join(gcan, "fold0.ckpt"))
    assert retrained != recorded
    capsys.readouterr()
    out = os.path.join(tmp_path, "hard.tsv")
    for args in (["evaluate", "--runs", runs, "--test", tiny_run["data"]],
                 ["ensemble", "--mode", "hard", "--out", out, "--runs", gcan,
                  fusion]):
        assert main(args) == 2, args[0]
        err = capsys.readouterr().err
        for part in (fusion, "'gcan'", "fold 0", recorded, retrained):
            assert part in err, (args[0], part)
    assert not os.path.exists(out)


def test_cli_fusion_refuses_tampered_member(tiny_run, member_runs, tmp_path,
                                            capsys):
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    member = os.path.join(runs, "gcan", "fold0.ckpt")
    flip_byte(member, -8)  # low mantissa byte of the last float
    code = main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--out", runs])
    assert code == 2
    assert member in capsys.readouterr().err


def test_cli_fusion_refuses_tampered_member_outputs(tiny_run, member_runs,
                                                    tmp_path, capsys):
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    outputs = os.path.join(runs, "vit", "fold1_outputs.ckpt")
    flip_byte(outputs, -8)  # low mantissa byte of the last test feature
    capsys.readouterr()
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--out", runs]) == 2
    assert outputs in capsys.readouterr().err
    assert not os.path.exists(os.path.join(runs, "gcan-vit", "runs.tsv"))


def test_cli_fusion_refuses_members_of_another_split(tiny_run, tmp_path,
                                                     capsys):
    # the vocabulary cap gives every fold the same vocabulary size, so the
    # members' parameter shapes fit whatever the split
    cfg = os.path.join(tmp_path, "capped.cfg")
    with open(tiny_run["cfg"]) as fh:
        text = fh.read()
    with open(cfg, "w") as fh:
        fh.write(text + "max_vocab = 30\n")
    runs = os.path.join(tmp_path, "runs")
    for model in ("gcan", "vit"):
        assert main(["train", "--config", cfg, "--data", tiny_run["data"],
                     "--model", model, "--seed", "1", "--out", runs]) == 0
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--data", tiny_run["data"],
                 "--model", "gcan-vit", "--seed", "2", "--out", runs]) == 2
    err = capsys.readouterr().err
    assert "member model 'gcan'" in err
    assert os.path.join(runs, "gcan", "fold0_outputs.ckpt") in err
    assert "the train ids" in err
    assert not os.path.exists(os.path.join(runs, "gcan-vit", "runs.tsv"))


@pytest.fixture(scope="module")
def setup_a_runs(tiny_run, tmp_path_factory):
    """gcan and vit trained in setup A into a run directory of their own."""
    out = str(tmp_path_factory.mktemp("setup_a"))
    for model in ("gcan", "vit"):
        assert main(["train", "--config", tiny_run["cfg"], "--data",
                     tiny_run["data"], "--model", model, "--setup", "A",
                     "--out", out]) == 0
    return out


def test_cli_fusion_refuses_member_of_another_setup(tiny_run, member_runs,
                                                    setup_a_runs, tmp_path,
                                                    capsys):
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    shutil.rmtree(os.path.join(runs, "vit"))
    shutil.copytree(os.path.join(setup_a_runs, "vit"),
                    os.path.join(runs, "vit"))
    capsys.readouterr()
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--setup", "B",
                 "--out", runs]) == 2
    err = capsys.readouterr().err
    assert "member model 'vit'" in err
    assert "setup A" in err and "setup B" in err


def test_cli_fusion_names_member_from_before_saved_outputs(
        tiny_run, member_runs, tmp_path, capsys):
    # a member directory as written before members saved their outputs:
    # no outputs files and no manifest lines for them
    from memefuse.rundir import write_manifest
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    gcan = os.path.join(runs, "gcan")
    with open(os.path.join(gcan, "manifest.tsv")) as fh:
        fh.readline()
        roles = [tuple(line.split("\t")[:2]) for line in fh]
    for name, role in roles:
        if role == "outputs":
            os.remove(os.path.join(gcan, name))
    write_manifest(gcan, [(n, r) for n, r in roles if r != "outputs"])
    capsys.readouterr()
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--out", runs]) == 2
    err = capsys.readouterr().err
    assert "retrain 'gcan'" in err
    assert os.path.join(gcan, "manifest.tsv") in err
    assert "No such file" not in err


def test_cli_names_manifest_line_without_three_fields(tiny_run, member_runs,
                                                     tmp_path, capsys):
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    manifest = os.path.join(runs, "vit", "manifest.tsv")
    with open(manifest) as fh:
        lines = fh.readlines()
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\n"  # cut the sha256 column
    with open(manifest, "w") as fh:
        fh.writelines(lines)
    for argv in (["evaluate", "--runs", runs, "--test", tiny_run["data"]],
                 ["ensemble", "--mode", "soft", "--runs",
                  os.path.join(runs, "vit"),
                  "--out", os.path.join(tmp_path, "soft.tsv")],
                 ["train", "--config", tiny_run["cfg"], "--data",
                  tiny_run["data"], "--model", "gcan-vit", "--out", runs]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        assert f"{manifest}:2" in capsys.readouterr().err, argv[0]


def test_cli_fusion_names_outputs_file_without_an_entry(tiny_run, member_runs,
                                                       tmp_path, capsys):
    # an outputs file that matches its manifest line but lacks val.f
    from memefuse import checkpoint
    from memefuse.rundir import write_manifest
    runs = os.path.join(tmp_path, "runs")
    shutil.copytree(member_runs, runs)
    gcan = os.path.join(runs, "gcan")
    outputs = os.path.join(gcan, "fold0_outputs.ckpt")
    arrays, meta = checkpoint.load_checkpoint(outputs)
    del arrays["val.f"]
    checkpoint.save_checkpoint(outputs, arrays, meta)
    with open(os.path.join(gcan, "manifest.tsv")) as fh:
        fh.readline()
        roles = [tuple(line.split("\t")[:2]) for line in fh]
    write_manifest(gcan, roles)
    capsys.readouterr()
    assert main(["train", "--config", tiny_run["cfg"], "--data",
                 tiny_run["data"], "--model", "gcan-vit", "--out", runs]) == 2
    assert f"{outputs} has no val.f entry" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(runs, "gcan-vit", "runs.tsv"))


def test_cli_hard_ensemble_refuses_mixed_setups(member_runs, setup_a_runs,
                                                tmp_path, capsys):
    gcan_b = os.path.join(member_runs, "gcan")
    vit_a = os.path.join(setup_a_runs, "vit")
    out = os.path.join(tmp_path, "hard.tsv")
    capsys.readouterr()
    assert main(["ensemble", "--mode", "hard", "--out", out,
                 "--runs", gcan_b, vit_a]) == 2
    err = capsys.readouterr().err
    assert vit_a in err and gcan_b in err
    assert "setup A" in err and "setup B" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, named", [
    ("gen-synth --spec {dir} --out {out}", "{dir}"),
    ("train --config {dir} --data {data} --model gcan --out {out}", "{dir}"),
    ("train --config {cfg} --data {file} --model gcan --out {out}", "{file}"),
    ("evaluate --runs {file} --test {data}", "{file}"),
    ("significance --a {members}/gcan --b {members}/vit/runs.tsv",
     "{members}/gcan"),
    ("ensemble --mode soft --runs {members}/gcan --out {dir}", "{dir}"),
    ("gen-synth --spec {binary} --out {out}", "{binary}"),
    ("train --config {binary} --data {data} --model gcan --out {out}",
     "{binary}"),
    ("significance --a {binary} --b {members}/vit/runs.tsv", "{binary}"),
    ("evaluate --runs {members} --test {binary_data}",
     "{binary_data}/test.tsv"),
    ("ensemble --mode soft --runs {file} --out {out}", "{file}/runs.tsv"),
    ("ensemble --mode hard --runs {dir} --out {out}", "{dir}/runs.tsv"),
    ("train --config {cfg} --data {data} --model gcan --out {file}",
     "{file}"),
    ("train --config {cfg} --data {data} --model gcan --out {taken}",
     "{taken}")],
    ids=["gen-synth-spec-dir", "train-config-dir", "train-data-file",
         "evaluate-runs-file", "significance-a-dir", "ensemble-out-dir",
         "gen-synth-spec-not-utf8", "train-config-not-utf8",
         "significance-a-not-utf8", "evaluate-test-not-utf8",
         "ensemble-runs-file", "ensemble-runs-dir", "train-out-file",
         "train-out-model-file"])
def test_cli_refuses_path_of_the_wrong_kind(tiny_run, member_runs, tmp_path,
                                           capsys, monkeypatch, argv, named):
    # a directory where a file is read or written, a file where a
    # directory is read or written, or a file that is not UTF-8 text:
    # exit 2 naming the path, before any output is written and before
    # train reads a sample
    from memefuse import cli

    def no_ingest(*args):
        raise AssertionError("train read samples before refusing")

    if argv.startswith("train"):
        monkeypatch.setattr(cli, "ingest", no_ingest)
    paths = {name: os.path.join(tmp_path, name) for name in
             ("dir", "file", "binary", "binary_data", "taken", "out")}
    paths.update(data=tiny_run["data"], cfg=tiny_run["cfg"],
                 members=member_runs)
    for name in ("dir", "binary_data", "taken"):
        os.mkdir(paths[name])
    for path, content in ((paths["file"], b"x\n"),
                          (paths["binary"], b"seed = 1\n\xff\xfe\n"),
                          (os.path.join(paths["binary_data"], "test.tsv"),
                           b"\xff\xfeid\n"),
                          (os.path.join(paths["taken"], "gcan"), b"x\n")):
        with open(path, "wb") as fh:
            fh.write(content)
    capsys.readouterr()
    assert main(argv.format(**paths).split()) == 2
    err = capsys.readouterr().err
    assert named.format(**paths) in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["binary", "binary_data", "dir",
                                            "file", "taken"]
    assert os.listdir(paths["dir"]) == []
    assert os.listdir(paths["taken"]) == ["gcan"]


def test_cli_imports_no_scipy():
    # memefuse depends on NumPy alone; SciPy is a test-only oracle
    import subprocess
    import sys

    import memefuse
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(memefuse.__file__)))
    code = ("import sys, memefuse.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_defaults_blas_to_one_thread(preset):
    # fold workers run side by side, so each gets one BLAS thread unless
    # the environment already chose a count
    import subprocess
    import sys

    import memefuse
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(memefuse.__file__))
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    code = ("import os, memefuse; print(' '.join(os.environ[v] for v in "
            f"{BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [preset or "1"] * 3
