import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdosr import cli, models, openset
from rdosr.data import (
    Cube,
    FormatError,
    LabelMap,
    SplitSpec,
    load_cube,
    load_labels,
    pair,
    split,
    write_cube,
    write_labels,
)
from rdosr.diffcore import DomainError
from rdosr.models import _CKPT_HEADER, load_checkpoint


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = cli.main(
        [
            "synth",
            "--out", str(out),
            "--classes", "4",
            "--bands", "24",
            "--per-class", "150",
            "--seed", "2",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(
        "# quick training profile\n"
        "epochs_stage1=80\n"
        "epochs_stage2=100\n"
        "batch_size=64\n"
        "seed=30\n"
    )
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir, config_file):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(
        [
            "train",
            "--cube", str(synth_dir / "cube.hsid"),
            "--labels", str(synth_dir / "labels.hsil"),
            "--unknown", "4",
            "--config", str(config_file),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_dataset(synth_dir, capsys):
    ds = pair(load_cube(synth_dir / "cube.hsid"), load_labels(synth_dir / "labels.hsil"))
    assert ds.pixel_count == 600
    assert ds.class_count == 4
    assert ds.band_count == 24


def test_synth_repeat_same_seed_identical_files(synth_dir, tmp_path):
    rc = cli.main(
        ["synth", "--out", str(tmp_path), "--classes", "4", "--bands", "24",
         "--per-class", "150", "--seed", "2"]
    )
    assert rc == 0
    assert (tmp_path / "cube.hsid").read_bytes() == (synth_dir / "cube.hsid").read_bytes()
    assert (tmp_path / "labels.hsil").read_bytes() == (synth_dir / "labels.hsil").read_bytes()


def test_synth_rejects_single_class(tmp_path, capsys):
    rc = cli.main(
        ["synth", "--out", str(tmp_path), "--classes", "1", "--bands", "8", "--per-class", "5"]
    )
    assert rc == 2
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                         ("--noise-sigma", "inf"), ("--noise-sigma", "nan")])
def test_synth_non_finite_parameter_exit_2_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    rc = cli.main(["synth", "--out", str(out), "--classes", "3", "--bands", "12",
                   "--per-class", "5", flag, value])
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "must be finite" in line
    assert not out.exists()


def test_synth_unwritable_path(capsys):
    rc = cli.main(
        ["synth", "--out", "/proc/nope/dir", "--classes", "3", "--bands", "12", "--per-class", "5"]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# train


def test_train_outputs_checkpoint_and_manifest(trained_dir):
    assert (trained_dir / "model.rdck").is_file()
    manifest = (trained_dir / "manifest.txt").read_text()
    entries = dict(line.split("=", 1) for line in manifest.strip().split("\n"))
    # defaults for keys missing from the config file are echoed
    assert entries["lambda_r"] == "0.5"
    assert entries["lambda_s"] == "0.001"
    assert entries["unknown_classes"] == "4"
    assert entries["known_class_ids"] == "1,2,3"
    assert len(entries["cube_sha256"]) == 64
    assert float(entries["stage1_final_accuracy"]) >= 0.9988
    model = load_checkpoint(trained_dir / "model.rdck")
    assert model.known_class_ids == (1, 2, 3)
    assert model.n_known == 3


def test_train_manifest_numbers_are_plain_literals(trained_dir):
    manifest = (trained_dir / "manifest.txt").read_text()
    entries = dict(line.split("=", 1) for line in manifest.strip().split("\n"))
    finals = [k for k in entries if k.startswith("stage") and "_final_" in k]
    runs = [k for k in entries if k.endswith("_epochs_run")]
    assert len(finals) == 4 and len(runs) == 2
    for key in finals:
        float(entries[key])
    for key in runs:
        int(entries[key])


def test_train_missing_inputs_exit_2(tmp_path, capsys):
    # the unknown classes are checked first, then the cube
    for extra, missing in (([], "unknown"), (["--unknown", "1"], "cube")):
        rc = cli.main(["train", "--out", str(tmp_path), *extra])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: missing required input: {missing} (flag or config key)"
        ]


def test_train_negative_seed_exit_2(synth_dir, tmp_path, capsys):
    rc = cli.main(
        ["train", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--unknown", "4", "--seed", "-1", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"]


def test_train_rejects_unknown_config_key(synth_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate=0.1\n")
    rc = cli.main(
        ["train", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--unknown", "4", "--config", str(bad),
         "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "flag, setting, message",
    [
        ("--config", "train_fraction=abc",
         "config key train_fraction: could not convert string to float: 'abc'"),
        ("--set", "train_fraction=abc",
         "config key train_fraction: could not convert string to float: 'abc'"),
        ("--set", "lr=nan", "lr must be finite"),
        ("--set", "embedding_scale=inf", "embedding_scale must be finite"),
        ("--config", "lambda_r=-inf", "lambda_r must be finite"),
        ("--set", "lr=1e999", "lr must be finite"),
    ],
    ids=["train-fraction-file", "train-fraction-set", "nan-lr", "inf-embedding-scale",
         "minus-inf-lambda", "overflowing-lr"],
)
def test_bad_config_value_exit_2(synth_dir, tmp_path, capsys, command, flag, setting, message):
    if flag == "--config":
        (tmp_path / "bad.cfg").write_text(setting + "\n")
        setting = str(tmp_path / "bad.cfg")
    target = ["--unknown", "4", "--out", str(tmp_path / "run")] if command == "train" else [
        "--report", str(tmp_path / "report.csv")]
    # one epoch per stage keeps a run that wrongly starts short
    rc = cli.main(
        [command, "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), flag, setting, *target,
         "--set", "epochs_stage1=1", "--set", "epochs_stage2=1"]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "run").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_file_not_utf8_exit_2(synth_dir, tmp_path, capsys, command):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n\xff\xfe bad\n")
    target = ["--unknown", "4", "--out", str(tmp_path / "run")] if command == "train" else [
        "--report", str(tmp_path / "report.csv")]
    rc = cli.main(
        [command, "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--config", str(bad), *target]
    )
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config file {bad} is not UTF-8: ")
    assert not (tmp_path / "run").exists() and not (tmp_path / "report.csv").exists()


def test_train_huge_class_id_exit_2_in_small_memory(synth_dir, tmp_path):
    labels = load_labels(synth_dir / "labels.hsil")
    ids = labels.labels.copy()
    ids[0] = 2**31 - 1
    write_labels(tmp_path / "huge.hsil", LabelMap(labels.height, labels.width, ids))
    args = ["--cube", str(synth_dir / "cube.hsid"), "--labels", str(tmp_path / "huge.hsil")]
    # capped at 2 GiB of address space: a check that builds 1..2**31-1 cannot run
    cap = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "rdosr", "train", *args, "--unknown", "4",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"error: class 5 of 1..{2**31 - 1} has no pixel"]
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            pair(load_cube(args[1]), load_labels(args[3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_train_flag_overrides_config(synth_dir, config_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(
        ["train", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--unknown", "4", "--config", str(config_file),
         "--out", str(out), "--seed", "77", "--set", "epochs_stage2=3"]
    )
    assert rc == 0
    entries = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().strip().split("\n")
    )
    assert entries["seed"] == "77"
    assert entries["epochs_stage2"] == "3"
    assert entries["stage2_epochs_run"] == "3"


def test_train_six_class_holdout_yields_five_known(tmp_path):
    data_dir = tmp_path / "d"
    assert cli.main(
        ["synth", "--out", str(data_dir), "--classes", "6", "--bands", "30",
         "--per-class", "40", "--seed", "5"]
    ) == 0
    out = tmp_path / "run"
    rc = cli.main(
        ["train", "--cube", str(data_dir / "cube.hsid"), "--labels",
         str(data_dir / "labels.hsil"), "--unknown", "3", "--out", str(out),
         "--set", "epochs_stage1=2", "--set", "epochs_stage2=2"]
    )
    assert rc == 0
    model = load_checkpoint(out / "model.rdck")
    assert model.n_known == 5
    assert model.known_class_ids == (1, 2, 4, 5, 6)
    assert model.f.layers[-1].w.shape[1] == 5


def _refuse_to_run(monkeypatch, module, name):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail(f"{name} ran"))


@pytest.mark.parametrize("out", ["afile/sub", "afile"])
def test_train_unwritable_out_exit_2_before_training(synth_dir, tmp_path, capsys, monkeypatch, out):
    (tmp_path / "afile").write_text("keep\n")
    _refuse_to_run(monkeypatch, models, "train_pipeline")
    rc = cli.main(
        ["train", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--unknown", "4", "--out", str(tmp_path / out)]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / 'afile'} is not a directory"]
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_train_bad_cube_path_exit_2(tmp_path, capsys):
    rc = cli.main(
        ["train", "--cube", "/does/not/exist.hsid", "--labels", "/x.hsil",
         "--unknown", "1", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_train_zero_band_cube_exit_2(synth_dir, tmp_path, capsys):
    # the synthetic labels are a 1x600 map; a cube of the same size with no
    # bands would train a model on nothing
    cube = tmp_path / "empty.hsid"
    write_cube(cube, Cube(height=1, width=600, band_count=0, values=np.empty((600, 0))))
    with pytest.raises(FormatError, match="no bands"):
        load_cube(cube)
    rc = cli.main(
        ["train", "--cube", str(cube), "--labels", str(synth_dir / "labels.hsil"),
         "--unknown", "4", "--set", "epochs_stage1=2", "--set", "epochs_stage2=2",
         "--out", str(tmp_path / "run")]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {cube}: cube has no bands"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value, labelled", [(np.nan, True), (np.inf, False)],
                         ids=["nan-labelled", "inf-unlabelled"])
def test_non_finite_cube_exit_2(synth_dir, trained_dir, tmp_path, capsys, value, labelled):
    scene = load_cube(synth_dir / "cube.hsid")
    scene.values[7, 3] = value
    cube, labels = tmp_path / "bad.hsid", tmp_path / "labels.hsil"
    write_cube(cube, scene)
    labelmap = load_labels(synth_dir / "labels.hsil")
    if not labelled:  # pair() drops an unlabeled pixel before any check sees it
        labelmap.labels[7] = 0
    write_labels(labels, labelmap)
    with pytest.raises(FormatError, match="non-finite"):
        load_cube(cube)
    common = ["--cube", str(cube), "--labels", str(labels)]
    for argv in (["train", *common, "--unknown", "4", "--set", "epochs_stage1=2",
                  "--set", "epochs_stage2=2", "--out", str(tmp_path / "run")],
                 ["eval", "--model", str(trained_dir), *common]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {cube}: cube contains non-finite values"]


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_metrics_and_exports(synth_dir, trained_dir, tmp_path, capsys):
    roc_path = tmp_path / "roc.csv"
    hist_path = tmp_path / "hist.csv"
    rc = cli.main(
        ["eval", "--model", str(trained_dir), "--cube", str(synth_dir / "cube.hsid"),
         "--labels", str(synth_dir / "labels.hsil"), "--roc-out", str(roc_path),
         "--hist-out", str(hist_path), "--bins", "20"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in out.strip().split("\n"))
    # four-decimal contract
    assert len(lines["auc"].split(".")[1]) == 4
    assert 0.0 <= float(lines["auc"]) <= 1.0
    assert float(lines["closed_set_accuracy"]) > 0.9
    assert abs(float(lines["openness"]) - 0.0742) < 1e-3  # openness(3, 4, 3)

    roc_lines = roc_path.read_text().strip().split("\n")
    assert roc_lines[0] == "fpr,tpr"
    assert roc_lines[1] == "0.000000,0.000000"
    assert roc_lines[-1] == "1.000000,1.000000"
    assert roc_lines[-2].startswith("# auc=")

    hist_lines = hist_path.read_text().strip().split("\n")
    assert hist_lines[0] == "bin_lo,bin_hi,count_known,count_unknown"
    assert len(hist_lines) == 21



def test_eval_bins_below_one_exit_2_before_any_output(synth_dir, trained_dir, tmp_path, capsys,
                                                     monkeypatch):
    _refuse_to_run(monkeypatch, models, "load_checkpoint")
    roc_path = tmp_path / "roc.csv"
    for hist in ([], ["--hist-out", str(tmp_path / "hist.csv")]):
        rc = cli.main(
            ["eval", "--model", str(trained_dir), "--cube", str(synth_dir / "cube.hsid"),
             "--labels", str(synth_dir / "labels.hsil"), "--roc-out", str(roc_path),
             "--bins", "0", *hist]
        )
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == ["error: --bins must be >= 1"]
    assert sorted(tmp_path.iterdir()) == []


def test_eval_unwritable_hist_out_exit_2_before_any_output(synth_dir, trained_dir, tmp_path,
                                                          capsys, monkeypatch):
    # both output paths are checked before the checkpoint loads, so no roc.csv is left
    (tmp_path / "afile").write_text("keep\n")
    _refuse_to_run(monkeypatch, models, "load_checkpoint")
    rc = cli.main(
        ["eval", "--model", str(trained_dir), "--cube", str(synth_dir / "cube.hsid"),
         "--labels", str(synth_dir / "labels.hsil"), "--roc-out", str(tmp_path / "roc.csv"),
         "--hist-out", str(tmp_path / "afile" / "h.csv")]
    )
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: {tmp_path / 'afile'} is not a directory"]
    assert (tmp_path / "afile").read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_eval_runs_f_once_per_scored_pixel(synth_dir, trained_dir, monkeypatch, capsys):
    # the known pixels' scores and closed-set labels come from one F pass
    rows = []
    load = models.load_checkpoint

    def load_counting(path):
        model = load(path)
        forward = model.f.forward

        def counted(x, *args, **kwargs):
            rows.append(len(x))
            return forward(x, *args, **kwargs)

        monkeypatch.setattr(model.f, "forward", counted)
        return model

    monkeypatch.setattr(models, "load_checkpoint", load_counting)
    cube, labels = synth_dir / "cube.hsid", synth_dir / "labels.hsil"
    rc = cli.main(["eval", "--model", str(trained_dir), "--cube", str(cube), "--labels", str(labels)])
    assert rc == 0
    model = load(trained_dir / "model.rdck")
    parts = split(
        pair(load_cube(cube), load_labels(labels)),
        SplitSpec(frozenset(model.unknown_class_ids), model.train_fraction, model.config.seed),
    )
    assert rows == [parts.test_known.pixel_count, parts.unknown_pool.pixel_count]

def test_eval_class_mismatch_exit_2(trained_dir, tmp_path, capsys):
    rc = cli.main(
        ["synth", "--out", str(tmp_path), "--classes", "6", "--bands", "24",
         "--per-class", "30", "--seed", "3"]
    )
    assert rc == 0
    rc = cli.main(
        ["eval", "--model", str(trained_dir), "--cube", str(tmp_path / "cube.hsid"),
         "--labels", str(tmp_path / "labels.hsil")]
    )
    assert rc == 2
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ids, classes",
    # the union of the ids is 1..classes in both, but split would not choose them
    [({"unknown_class_ids": [3]}, 3), ({"known_class_ids": [2, 1, 3]}, 4)],
    ids=["unknown-overlaps-known", "permuted-known"],
)
def test_eval_class_ids_not_from_split_exit_2(trained_dir, tmp_path, capsys, ids, classes):
    scene = tmp_path / "scene"
    assert cli.main(
        ["synth", "--out", str(scene), "--classes", str(classes), "--bands", "24",
         "--per-class", "30", "--seed", "3"]
    ) == 0
    model = _edited_checkpoint(trained_dir, tmp_path, lambda h, values: h.update(ids))
    capsys.readouterr()
    rc = cli.main(
        ["eval", "--model", str(model), "--cube", str(scene / "cube.hsid"),
         "--labels", str(scene / "labels.hsil")]
    )
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: model knows classes ")


def test_eval_missing_model_exit_2(synth_dir, tmp_path, capsys):
    rc = cli.main(
        ["eval", "--model", str(tmp_path), "--cube", str(synth_dir / "cube.hsid"),
         "--labels", str(synth_dir / "labels.hsil")]
    )
    assert rc == 2


def _drop_band_count(h, values):
    del h["band_count"]


def _negate_dims(h, values):
    # the byte count 8 * rows * cols stays what the file holds
    entry = h["arrays"][0]
    entry[1], entry[2] = -entry[1], -entry[2]


def _rename_norm_mean(h, values):
    h["arrays"][0][0] = "norm.avg"


def _fold_norm_mean(h, values):
    # the same number of values, as 2 rows of half the bands
    entry = h["arrays"][0]
    entry[1], entry[2] = 2, entry[2] // 2


def _swap_norm_arrays(h, values):
    # the table entries trade places with their data: each name keeps its values
    h["arrays"][0], h["arrays"][1] = h["arrays"][1], h["arrays"][0]
    mean = values["norm.mean"].copy()
    values["norm.mean"][:] = values["norm.std"]
    values["norm.std"][:] = mean


def _huge_band_count(h, values):
    # the normalizer arrays match the claimed bands; F's first weight for
    # them would take 3.8 GiB
    bands = 10**6
    h["band_count"] = h["arrays"][0][2] = h["arrays"][1][2] = bands
    values["norm.mean"], values["norm.std"] = np.zeros(bands), np.ones(bands)


def _set_value(name, value):
    def edit(h, values):
        values[name][0] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda h, values: h["config"].update(extra=1),
        _drop_band_count,
        _negate_dims,
        lambda h, values: h["arrays"].__setitem__(0, h["arrays"][0][:2]),
        lambda h, values: h["config"].update(lr="fast"),
        _rename_norm_mean,
        _fold_norm_mean,
        _set_value("f.0.w", np.nan),
        _set_value("d.1.b", np.inf),
        _set_value("norm.std", 0.0),
        _set_value("norm.mean", np.nan),
        lambda h, values: h["config"].update(seed=-1),
        lambda h, values: h.update(train_fraction=10**400),
        lambda h, values: h["config"].update(embedding_scale=10**400),
        # JSON reads NaN and Infinity
        lambda h, values: h["config"].update(lr=float("nan")),
        lambda h, values: h["config"].update(embedding_scale=float("inf")),
        lambda h, values: h.update(train_fraction=float("nan")),
        _swap_norm_arrays,
        lambda h, values: h["arrays"][1].__setitem__(0, "norm.mean"),
        _huge_band_count,
    ],
    ids=["extra-config-key", "no-band-count", "negative-dim", "not-a-triple", "lr-type",
         "no-norm-mean", "norm-mean-shape", "nan-weight", "inf-bias", "zero-std", "nan-mean",
         "negative-seed", "huge-train-fraction", "huge-embedding-scale", "nan-lr",
         "inf-embedding-scale", "nan-train-fraction", "reordered-arrays", "duplicate-array",
         "huge-band-count"],
)
def test_eval_malformed_checkpoint_header_exit_2(synth_dir, trained_dir, tmp_path, edit):
    proc = _eval_in_subprocess(synth_dir, _edited_checkpoint(trained_dir, tmp_path, edit))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_eval_overflow_exit_3_with_one_line(synth_dir, trained_dir, tmp_path):
    proc = _eval_in_subprocess(
        synth_dir, _edited_checkpoint(trained_dir, tmp_path, _set_value("f.0.w", 1e300))
    )
    assert proc.returncode == 3
    # reported at the operation that overflows, not at a later finiteness check
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure: overflow encountered in ")


def test_train_overflow_exit_3_with_one_line(synth_dir, config_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rdosr", "train", "--cube", str(synth_dir / "cube.hsid"),
         "--labels", str(synth_dir / "labels.hsil"), "--unknown", "4", "--config",
         str(config_file), "--set", "lr=1e300", "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure: overflow encountered in ")


def _eval_in_subprocess(synth_dir, model):
    # capped at 2 GiB of address space: a model a header only claims cannot be built
    cap = 2 << 30
    return subprocess.run(
        [sys.executable, "-m", "rdosr", "eval", "--model", str(model),
         "--cube", str(synth_dir / "cube.hsid"), "--labels", str(synth_dir / "labels.hsil")],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def _edited_checkpoint(trained_dir, tmp_path, edit):
    """The trained checkpoint, re-packed after `edit(header, values)`; the
    payload is `values` in their original order, so an edit may replace one."""
    raw = (trained_dir / "model.rdck").read_bytes()
    magic, version, blob_len = _CKPT_HEADER.unpack_from(raw)
    start = _CKPT_HEADER.size
    header = json.loads(raw[start : start + blob_len])
    # writable views of each stored array, in file order
    payload = np.frombuffer(raw, dtype="<f8", offset=start + blob_len).copy()
    values, offset = {}, 0
    for name, rows, cols in header["arrays"]:
        values[name] = payload[offset : offset + rows * cols]
        offset += rows * cols
    edit(header, values)
    payload = np.concatenate(list(values.values()))
    blob = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.rdck"
    bad.write_bytes(_CKPT_HEADER.pack(magic, version, len(blob)) + blob + payload.tobytes())
    return bad


# ---------------------------------------------------------------------------
# fuzzed checkpoints: loading raises only the format and domain errors, and
# eval then exits 2 with one stderr line, never a traceback


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-(2**70), 2**70),
    st.just(10**400), st.floats(), st.text(max_size=6), st.lists(st.integers(-2, 9), max_size=4),
)
_DELETE = object()


def _set_path(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    if value is _DELETE:
        del tree[path[-1]]
    else:
        tree[path[-1]] = value


@st.composite
def _mutated_checkpoint(draw, raw):
    """`raw` truncated, with one byte flipped, with one header field edited
    (or dropped), or with one field of the fixed-size prefix replaced."""
    magic, version, blob_len = _CKPT_HEADER.unpack_from(raw)
    header_end = _CKPT_HEADER.size + blob_len
    kind = draw(st.sampled_from(["truncate", "flip", "header", "prefix"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        # mostly in the header and the first stored arrays, else anywhere
        at = draw(st.integers(0, header_end + 800) | st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    payload = raw[header_end:]
    if kind == "prefix":
        fields = [magic, version, blob_len]
        i = draw(st.integers(0, 2))
        fields[i] = draw(st.binary(min_size=4, max_size=4) if i == 0 else st.integers(0, 2**32 - 1))
        return _CKPT_HEADER.pack(*fields) + raw[_CKPT_HEADER.size : header_end] + payload
    header = json.loads(raw[_CKPT_HEADER.size : header_end])
    paths = [(k,) for k in header] + [("config", k) for k in header["config"]]
    paths += [("arrays", i, j) for i in range(len(header["arrays"])) for j in range(3)]
    _set_path(header, draw(st.sampled_from(paths)), draw(_JSON_VALUES | st.just(_DELETE)))
    blob = json.dumps(header, sort_keys=True).encode()
    return _CKPT_HEADER.pack(magic, version, len(blob)) + blob + payload


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.rdck"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_checkpoint_raises_format_errors_and_eval_exits_2(
    synth_dir, trained_dir, fuzz_path, data
):
    fuzz_path.write_bytes(data.draw(_mutated_checkpoint((trained_dir / "model.rdck").read_bytes())))
    try:
        load_checkpoint(fuzz_path)
        loads = True
    except (FormatError, DomainError):
        loads = False
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(["eval", "--model", str(fuzz_path), "--cube", str(synth_dir / "cube.hsid"),
                       "--labels", str(synth_dir / "labels.hsil")])
    lines = err.getvalue().splitlines()
    # a file that loads may still name other classes (2) or overflow (3)
    assert rc in ((0, 2, 3) if loads else (2,)), (rc, lines)
    assert len(lines) == (rc != 0), lines


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_report(synth_dir, config_file, tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = cli.main(
        ["sweep", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--config", str(config_file),
         "--report", str(report), "--set", "epochs_stage2=40"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("average_auc=")
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "unknown_class,auc"
    assert len(lines) == 6  # 4 classes + header + average
    assert lines[-1].startswith("average,")


def test_sweep_jobs_deterministic(synth_dir, config_file, tmp_path):
    reports = []
    for jobs in ("1", "2"):
        path = tmp_path / f"report{jobs}.csv"
        rc = cli.main(
            ["sweep", "--cube", str(synth_dir / "cube.hsid"), "--labels",
             str(synth_dir / "labels.hsil"), "--config", str(config_file),
             "--report", str(path), "--jobs", jobs, "--set", "epochs_stage2=30"]
        )
        assert rc == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_checkpoint_bytes_do_not_depend_on_blas_threads(synth_dir, config_file, tmp_path):
    # sweep workers train with a share of the BLAS threads of a serial run
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "rdosr", "train", "--cube", str(synth_dir / "cube.hsid"),
             "--labels", str(synth_dir / "labels.hsil"), "--unknown", "4",
             "--config", str(config_file), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        checkpoints.append((out / "model.rdck").read_bytes())
    assert checkpoints[0] == checkpoints[1]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_exit_2(synth_dir, config_file, tmp_path, capsys, jobs):
    rc = cli.main(
        ["sweep", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--config", str(config_file),
         "--report", str(tmp_path / "report.csv"), "--jobs", jobs]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "jobs" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("parent", ["afile", "nodir"])
def test_sweep_unwritable_report_exit_2_before_the_sweep(synth_dir, tmp_path, capsys,
                                                         monkeypatch, parent):
    # a report is written into a directory that must exist
    (tmp_path / "afile").write_text("keep\n")
    _refuse_to_run(monkeypatch, openset, "sweep")
    rc = cli.main(
        ["sweep", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--report", str(tmp_path / parent / "report.csv")]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / parent} is not a directory"]
    assert (tmp_path / "afile").read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_sweep_report_naming_a_directory_exit_2_before_the_sweep(synth_dir, tmp_path, capsys,
                                                                  monkeypatch):
    (tmp_path / "adir").mkdir()
    _refuse_to_run(monkeypatch, openset, "sweep")
    rc = cli.main(
        ["sweep", "--cube", str(synth_dir / "cube.hsid"), "--labels",
         str(synth_dir / "labels.hsil"), "--report", str(tmp_path / "adir")]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / 'adir'} is a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


_EVAL = ["eval", "--model", "run", "--cube", "cube.hsid", "--labels", "labels.hsil"]
_SWEEP = ["sweep", "--cube", "cube.hsid", "--labels", "labels.hsil", "--config", "run.cfg"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_EVAL + ["--roc-out", "x.csv", "--hist-out", "./x.csv"],
         "--hist-out x.csv names the same file as --roc-out"),
        (_EVAL + ["--roc-out", "run/../cube.hsid"],
         "--roc-out run/../cube.hsid names the same file as the cube"),
        (_EVAL + ["--hist-out", "labels.hsil"],
         "--hist-out labels.hsil names the same file as the labels"),
        (_EVAL + ["--roc-out", "run/model.rdck"],
         "--roc-out run/model.rdck names the same file as the checkpoint"),
        (_SWEEP + ["--report", "./cube.hsid"],
         "--report cube.hsid names the same file as the cube"),
    ],
    ids=["roc_is_hist", "roc_is_cube", "hist_is_labels", "roc_is_checkpoint", "report_is_cube"],
)
def test_output_naming_an_input_or_the_other_output_exit_2_and_writes_nothing(
        synth_dir, trained_dir, config_file, tmp_path, capsys, monkeypatch, argv, message):
    # copies, so that a write over an input cannot reach the shared fixtures
    (tmp_path / "run").mkdir()
    for source, name in [(synth_dir / "cube.hsid", "cube.hsid"), (config_file, "run.cfg"),
                         (synth_dir / "labels.hsil", "labels.hsil"),
                         (trained_dir / "model.rdck", "run/model.rdck"), (config_file, "x.csv")]:
        (tmp_path / name).write_bytes(source.read_bytes())
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    _refuse_to_run(monkeypatch, models, "load_checkpoint")
    _refuse_to_run(monkeypatch, openset, "sweep")
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines() == [f"error: {message}"]
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# a worker that dies without raising: the pool breaks under the sweep
DYING_WORKER = """
import os

from rdosr import openset

_sweep_one = openset._sweep_one


def sweep_one(dataset, config, train_fraction, unknown_class):
    if unknown_class == 2:
        os._exit(1)
    return _sweep_one(dataset, config, train_fraction, unknown_class)
"""


def test_sweep_dead_worker_gives_annotated_rows_exit_4(tmp_path):
    assert cli.main(
        ["synth", "--out", str(tmp_path), "--classes", "2", "--bands", "8",
         "--per-class", "30", "--seed", "1"]
    ) == 0
    (tmp_path / "dying.py").write_text(DYING_WORKER)
    (tmp_path / "run.cfg").write_text("epochs_stage1=5\nepochs_stage2=5\nbatch_size=16\n")
    report = tmp_path / "report.csv"
    run = (
        "import sys, dying\n"
        "from rdosr import cli, openset\n"
        "openset._sweep_one = dying.sweep_one\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), *sys.path])}
    proc = subprocess.run(
        [sys.executable, "-c", run, "sweep", "--cube", str(tmp_path / "cube.hsid"),
         "--labels", str(tmp_path / "labels.hsil"), "--config", str(tmp_path / "run.cfg"),
         "--report", str(report), "--jobs", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    rows = report.read_text().splitlines()[1:-1]
    assert [r.split(",")[0] for r in rows] == ["1", "2"]
    failed = [line for line in proc.stderr.splitlines() if line.startswith("failed: ")]
    assert any(line.startswith("failed: class 2: ") for line in failed)
    for row in rows:
        cls, auc = row.split(",")
        if auc == "failed":
            assert any(line.startswith(f"failed: class {cls}: ") for line in failed)
        else:
            assert 0.0 <= float(auc) <= 1.0


def test_sweep_ctrl_c_exits_130_with_one_line_and_no_worker_left(tmp_path):
    assert cli.main(
        ["synth", "--out", str(tmp_path), "--classes", "4", "--bands", "16",
         "--per-class", "200", "--seed", "1"]
    ) == 0
    # each run takes tens of seconds uninterrupted: far past the bound below
    (tmp_path / "run.cfg").write_text("epochs_stage1=50\nepochs_stage2=20000\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for jobs in ("1", "2"):
        report = tmp_path / f"report{jobs}.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "rdosr", "sweep", "--cube", str(tmp_path / "cube.hsid"),
             "--labels", str(tmp_path / "labels.hsil"), "--config", str(tmp_path / "run.cfg"),
             "--report", str(report), "--jobs", jobs],
            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
        )
        try:
            time.sleep(3.0)
            # what a terminal's Ctrl-C sends: SIGINT to the whole process group
            os.killpg(proc.pid, signal.SIGINT)
            start = time.monotonic()
            _, err = proc.communicate(timeout=60)
            stopped_in = time.monotonic() - start
        finally:
            proc.kill()
            leftover = _process_group_alive(proc.pid)
            if leftover:
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130, err
        assert err.splitlines() == ["interrupted"]
        assert stopped_in < 10.0
        assert not report.exists()
        assert not leftover


def _process_group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("command, required", [("train", ["--out", "o"]),
                                               ("sweep", ["--report", "r"])])
def test_train_and_sweep_parse_the_shared_flags_alike(command, required):
    args = cli.make_parser().parse_args(
        [command, *required, "--cube", "c", "--labels", "l", "--config", "f", "--seed", "3",
         "--train-fraction", "0.25", "--set", "lr=0.1", "--set", "seed=2"]
    )
    assert (args.cube, args.labels, args.config, args.seed, args.train_fraction, args.set) == (
        "c", "l", "f", 3, 0.25, ["lr=0.1", "seed=2"])


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "rdosr", "synth", "--classes", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


_CONFIG_KEYS = sorted(cli._KEYS)
_CONFIG_VALUES = st.one_of(
    st.text(max_size=8), st.integers(-(2**70), 2**70).map(str), st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0x10", "1_000", " 7 ", "True", "rdosr", "image"]),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = ", "=="]), _CONFIG_VALUES)
    .map("".join),
    st.text(max_size=12),
    st.builds("{} # {}".format, st.text(max_size=12), st.text(max_size=6)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
def test_fuzzed_config_text_raises_only_cli_errors(text):
    # the path cmd_train and cmd_sweep take before loading any file
    try:
        values = cli.parse_config_text(text)
        config = cli.build_train_config(values)
        train_fraction = cli._coerce("train_fraction", values.get("train_fraction", "0.5"), float)
    except cli.CliError as exc:
        assert len(str(exc).splitlines()) == 1
        return
    assert isinstance(config, models.TrainConfig) and isinstance(train_fraction, float)


def test_parse_config_text_rejects_malformed():
    with pytest.raises(cli.CliError):
        cli.parse_config_text("just words\n")
    values = cli.parse_config_text("lr = 0.01  # comment\n\n# full comment\nmode=rdosr\n")
    assert values == {"lr": "0.01", "mode": "rdosr"}
