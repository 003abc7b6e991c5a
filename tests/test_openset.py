import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdosr.data import synth_generate
from rdosr.diffcore import DomainError, ShapeError
from rdosr.models import TrainConfig
from rdosr.openset import (
    RocCurve,
    export_histogram,
    export_roc,
    export_sweep,
    histogram,
    openness,
    roc,
    sweep,
)
from util import auc_bruteforce


# ---------------------------------------------------------------------------
# openness


@pytest.mark.parametrize(
    "counts,expected",
    [
        ((8, 9, 8), 0.0299),
        ((7, 9, 7), 0.0646),
        ((15, 16, 15), 0.0163),
        ((20, 200, 20), 0.5735),
    ],
)
def test_openness_reference_values(counts, expected):
    assert abs(openness(*counts) - expected) < 1e-4


def test_openness_closed_world_is_zero():
    assert openness(5, 5, 5) == 0.0


def test_openness_domain_errors():
    with pytest.raises(DomainError):
        openness(0, 5, 5)
    with pytest.raises(DomainError):
        openness(6, 5, 5)


# ---------------------------------------------------------------------------
# roc


def test_roc_perfect_separation():
    curve = roc([0.1, 0.2], [0.8, 0.9])
    assert curve.auc == 1.0


def test_roc_indistinguishable_scores():
    curve = roc([0.5, 0.5], [0.5, 0.5])
    assert curve.auc == 0.5


def test_roc_mixed_scores_pair_counting():
    known = [0.1, 0.5]
    unknown = [0.3, 0.7]
    curve = roc(known, unknown)
    assert curve.auc == auc_bruteforce(known, unknown) == 0.75


def test_roc_curve_shape_invariants():
    rng = np.random.default_rng(0)
    curve = roc(rng.random(137), rng.random(61) + 0.2)
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
    assert (np.diff(curve.fpr) >= 0.0).all()
    assert (np.diff(curve.tpr) >= 0.0).all()
    assert 0.0 <= curve.auc <= 1.0
    assert curve.points.shape == (curve.fpr.size, 2)


def test_roc_matches_bruteforce_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(50):
        # quantized scores force plenty of ties
        k = np.round(rng.random(rng.integers(1, 60)), 1)
        u = np.round(rng.random(rng.integers(1, 60)), 1)
        curve = roc(k, u)
        assert abs(curve.auc - auc_bruteforce(k, u)) < 1e-12


@pytest.mark.skipif(not hasattr(np, "trapezoid"), reason="np.trapezoid needs NumPy 2.0")
def test_roc_auc_bit_equal_to_numpy_trapezoid_with_ties():
    rng = np.random.default_rng(4)
    for trial in range(50):
        k = np.round(rng.random(rng.integers(1, 300)), 1)
        u = np.round(rng.random(rng.integers(1, 300)) + 0.1, 1)
        curve = roc(k, u)
        expected = np.float64(np.trapezoid(curve.tpr, curve.fpr))
        assert np.float64(curve.auc).view(np.int64) == expected.view(np.int64)


def test_roc_empty_inputs():
    with pytest.raises(ShapeError):
        roc([], [0.5])
    with pytest.raises(ShapeError):
        roc([0.5], [])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_roc_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=30)
    u = rng.normal(size=20) + 0.5
    base = roc(k, u).auc
    transformed = roc(np.exp(k * 0.7), np.exp(u * 0.7)).auc
    assert abs(base - transformed) < 1e-12


def test_roc_swap_maps_auc_to_complement():
    rng = np.random.default_rng(2)
    k = rng.random(40)
    u = rng.random(25) + 0.3
    assert abs(roc(k, u).auc - (1.0 - roc(u, k).auc)) < 1e-12


# ---------------------------------------------------------------------------
# histogram


def test_histogram_basic():
    assert np.array_equal(histogram([0.0, 1.0], 2, 0.0, 1.0), [1, 1])


def test_histogram_all_equal_single_bin():
    counts = histogram(np.full(17, 0.42), 10, 0.0, 1.0)
    assert counts.sum() == 17
    assert (counts > 0).sum() == 1


def test_histogram_clamps_outliers_into_end_bins():
    counts = histogram([-5.0, 0.5, 99.0], 4, 0.0, 1.0)
    assert counts[0] == 1 and counts[-1] == 1
    assert counts.sum() == 3


def test_histogram_uniform_counts_balanced():
    rng = np.random.default_rng(123)
    counts = histogram(rng.random(10000), 10, 0.0, 1.0)
    assert counts.sum() == 10000
    assert (np.abs(counts - 1000) <= 150).all()


def test_histogram_invalid_arguments():
    with pytest.raises(DomainError):
        histogram([0.1], 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        histogram([0.1], 4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# sweep


def tiny_sweep_setup():
    ds = synth_generate(l_total=4, bands=24, per_class=150, seed=2)
    cfg = TrainConfig(seed=30, epochs_stage1=80, epochs_stage2=120, batch_size=64)
    return ds, cfg


def test_sweep_report_layout_and_determinism():
    ds, cfg = tiny_sweep_setup()
    report = sweep(ds, cfg, train_fraction=0.5, jobs=1)
    assert [row.unknown_class for row in report.rows] == [1, 2, 3, 4]
    assert all(row.auc is not None for row in report.rows)
    assert np.isclose(report.average_auc, np.mean([row.auc for row in report.rows]))
    assert abs(report.openness - openness(3, 4, 3)) < 1e-12
    again = sweep(ds, cfg, train_fraction=0.5, jobs=1)
    assert [r.auc for r in again.rows] == [r.auc for r in report.rows]


def test_sweep_parallel_matches_sequential():
    ds, cfg = tiny_sweep_setup()
    seq = sweep(ds, cfg, train_fraction=0.5, jobs=1)
    par = sweep(ds, cfg, train_fraction=0.5, jobs=2)
    assert [r.auc for r in par.rows] == [r.auc for r in seq.rows]


def test_sweep_propagates_class_annotation_on_failure(monkeypatch):
    import rdosr.openset as om

    def boom(dataset, config, fraction, cls):
        if cls == 2:
            raise ValueError("synthetic failure")
        return 0.9

    monkeypatch.setattr(om, "_sweep_one", boom)
    ds, cfg = tiny_sweep_setup()
    report = om.sweep(ds, cfg, jobs=1)
    failed = report.failed
    assert len(failed) == 1
    assert failed[0].unknown_class == 2
    assert "class 2" in failed[0].error
    assert np.isclose(report.average_auc, 0.9)


def test_sweep_pool_is_sized_by_class_count(monkeypatch):
    import rdosr.openset as om

    sizes = []
    budgets = []

    class RecordingPool(om._InlineExecutor):
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            assert initializer is om._set_blas_threads
            budgets.append(initargs)

    monkeypatch.setattr(om, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(om, "_usable_cpus", lambda: 6)
    monkeypatch.setattr(om, "_sweep_one", lambda dataset, config, fraction, cls: cls / 8)
    ds = synth_generate(l_total=4, bands=8, per_class=5, seed=2)
    for jobs in (1, 2, 4, 32):
        report = om.sweep(ds, TrainConfig(), jobs=jobs)
        assert [r.auc for r in report.rows] == [0.125, 0.25, 0.375, 0.5]
    # jobs=1 runs inline; no pool gets more workers than there are classes
    assert sizes == [2, 4, 4]
    # each worker gets its share of the CPUs for BLAS, at least one thread
    assert budgets == [(3,), (1,), (1,)]


def test_set_blas_threads_sets_the_bundled_openblas_count():
    import ctypes
    import glob
    import os

    import rdosr.openset as om

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))
    lib = ctypes.CDLL(paths[0]) if paths else None
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("NumPy here does not bundle scipy-openblas")
    get = lib.scipy_openblas_get_num_threads64_
    before = get()
    try:
        om._set_blas_threads(1)
        assert get() == 1
    finally:
        om._set_blas_threads(before)
    assert get() == before


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_one(monkeypatch, jobs):
    import rdosr.openset as om

    runs = []
    monkeypatch.setattr(om, "_sweep_one", lambda *args: runs.append(args))
    ds = synth_generate(l_total=4, bands=8, per_class=5, seed=2)
    with pytest.raises(DomainError, match="jobs"):
        om.sweep(ds, TrainConfig(), jobs=jobs)
    assert runs == []


def test_sweep_requires_two_classes():
    ds = synth_generate(l_total=4, bands=24, per_class=20, seed=2)
    single = type(ds)(
        pixels=ds.pixels[ds.labels == 1],
        labels=ds.labels[ds.labels == 1],
        band_count=ds.band_count,
        class_count=1,
    )
    with pytest.raises(DomainError):
        sweep(single, TrainConfig())


# ---------------------------------------------------------------------------
# exports


def test_export_roc_layout(tmp_path):
    curve = roc([0.1, 0.2, 0.4], [0.3, 0.8])
    path = tmp_path / "roc.csv"
    export_roc(path, curve)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0.000000,0.000000"
    assert lines[-2] == f"# auc={curve.auc:.6f}"
    assert lines[-1] == "1.000000,1.000000"
    data_lines = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_lines) == curve.fpr.size


def test_export_histogram_layout(tmp_path):
    path = tmp_path / "hist.csv"
    export_histogram(path, [0.1, 0.2], [0.8, 0.9, 0.95], bins=4, lo=0.0, hi=1.0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count_known,count_unknown"
    assert len(lines) == 5
    known_total = sum(int(l.split(",")[2]) for l in lines[1:])
    unknown_total = sum(int(l.split(",")[3]) for l in lines[1:])
    assert (known_total, unknown_total) == (2, 3)


def test_export_sweep_layout(tmp_path):
    from rdosr.openset import SweepReport, SweepRow

    report = SweepReport(
        rows=(SweepRow(1, 0.9), SweepRow(2, None, "class 2: boom"), SweepRow(3, 0.7)),
        average_auc=0.8,
        openness=0.03,
    )
    path = tmp_path / "sweep.csv"
    export_sweep(path, report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "unknown_class,auc"
    assert lines[1] == "1,0.900000"
    assert lines[2] == "2,failed"
    assert lines[3] == "3,0.700000"
    assert lines[4] == "average,0.800000"
