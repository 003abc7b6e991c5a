import json
import subprocess
import sys

import numpy as np
import pytest

from rdosr import cli
from rdosr.data import load_cube, load_labels, pair
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


def test_train_missing_inputs_exit_2(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path)])
    assert rc == 2
    assert "cube" in capsys.readouterr().err or True


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


def test_train_bad_cube_path_exit_2(tmp_path, capsys):
    rc = cli.main(
        ["train", "--cube", "/does/not/exist.hsid", "--labels", "/x.hsil",
         "--unknown", "1", "--out", str(tmp_path)]
    )
    assert rc == 2


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


def test_eval_missing_model_exit_2(synth_dir, tmp_path, capsys):
    rc = cli.main(
        ["eval", "--model", str(tmp_path), "--cube", str(synth_dir / "cube.hsid"),
         "--labels", str(synth_dir / "labels.hsil")]
    )
    assert rc == 2


def _drop_band_count(h):
    del h["band_count"]


def _negate_dims(h):
    # the byte count 8 * rows * cols stays what the file holds
    entry = h["arrays"][0]
    entry[1], entry[2] = -entry[1], -entry[2]


def _rename_norm_mean(h):
    h["arrays"][0][0] = "norm.avg"


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["config"].update(extra=1),
        _drop_band_count,
        _negate_dims,
        lambda h: h["arrays"].__setitem__(0, h["arrays"][0][:2]),
        lambda h: h["config"].update(lr="fast"),
        _rename_norm_mean,
    ],
    ids=["extra-config-key", "no-band-count", "negative-dim", "not-a-triple", "lr-type",
         "no-norm-mean"],
)
def test_eval_malformed_checkpoint_header_exit_2(synth_dir, trained_dir, tmp_path, edit):
    raw = (trained_dir / "model.rdck").read_bytes()
    magic, version, blob_len = _CKPT_HEADER.unpack_from(raw)
    start = _CKPT_HEADER.size
    header = json.loads(raw[start : start + blob_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.rdck"
    bad.write_bytes(_CKPT_HEADER.pack(magic, version, len(blob)) + blob + raw[start + blob_len :])
    proc = subprocess.run(
        [sys.executable, "-m", "rdosr", "eval", "--model", str(bad),
         "--cube", str(synth_dir / "cube.hsid"), "--labels", str(synth_dir / "labels.hsil")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


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


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "rdosr", "synth", "--classes", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_parse_config_text_rejects_malformed():
    with pytest.raises(cli.CliError):
        cli.parse_config_text("just words\n")
    values = cli.parse_config_text("lr = 0.01  # comment\n\n# full comment\nmode=rdosr\n")
    assert values == {"lr": "0.01", "mode": "rdosr"}
