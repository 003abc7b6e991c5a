"""Evaluation harness: openness, ROC/AUC over unknownness scores, score
histograms, the leave-one-class-out sweep, and the text export formats.

Unknown is the positive class everywhere: a true positive is an unknown
pixel whose score clears the threshold.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import signal
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import HsiDataset
from .diffcore import DomainError, ShapeError, require_finite
from .models import TrainConfig, train_pipeline

__all__ = [
    "openness",
    "RocCurve",
    "roc",
    "histogram",
    "SweepRow",
    "SweepReport",
    "sweep",
    "export_roc",
    "export_histogram",
    "export_sweep",
]


def openness(n_train: int, n_test: int, n_target: int) -> float:
    """Openness of an evaluation: 1 - sqrt(2*n_train / (n_test + n_target))."""
    if min(n_train, n_test, n_target) < 1:
        raise DomainError("openness: all class counts must be >= 1")
    if 2 * n_train > n_test + n_target:
        raise DomainError(
            f"openness: 2*{n_train} exceeds {n_test} + {n_target}; result would be negative"
        )
    return 1.0 - math.sqrt(2.0 * n_train / (n_test + n_target))


@dataclass(frozen=True)
class RocCurve:
    """Threshold-ordered (FPR, TPR) points from (0,0) to (1,1), plus AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.fpr, self.tpr])


def roc(scores_known, scores_unknown) -> RocCurve:
    """ROC of unknown-vs-known detection as the threshold sweeps the observed
    scores from maximum to minimum.

    At threshold t the detection rule is score > t, so tied scores enter the
    curve together and the trapezoid AUC matches the Mann-Whitney statistic
    (ties counting one half).
    """
    k = np.asarray(scores_known, dtype=np.float64).ravel()
    u = np.asarray(scores_unknown, dtype=np.float64).ravel()
    if k.size == 0 or u.size == 0:
        raise ShapeError("roc: both score vectors must be non-empty")
    require_finite(k, "scores_known")
    require_finite(u, "scores_unknown")

    scores = np.concatenate([k, u])
    is_unknown = np.zeros(scores.size, dtype=bool)
    is_unknown[k.size :] = True
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    u_sorted = is_unknown[order]

    # last index of each tied group; the final group closes the curve at (1,1)
    ends = np.append(np.flatnonzero(np.diff(s_sorted)), scores.size - 1)
    cum_u = np.cumsum(u_sorted)
    cum_k = np.cumsum(~u_sorted)
    tpr = np.concatenate([[0.0], cum_u[ends] / u.size])
    fpr = np.concatenate([[0.0], cum_k[ends] / k.size])
    # the trapezoid rule, in the order np.trapezoid sums it
    auc = float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def histogram(scores, bins: int, lo: float, hi: float) -> np.ndarray:
    """Equal-width counts over [lo, hi]; out-of-range values are clamped into
    the end bins, so the counts always sum to the input length."""
    if bins < 1:
        raise DomainError("histogram: bins must be >= 1")
    if not lo < hi:
        raise DomainError(f"histogram: invalid range ({lo}, {hi})")
    s = np.clip(np.asarray(scores, dtype=np.float64).ravel(), lo, hi)
    counts, _ = np.histogram(s, bins=bins, range=(lo, hi))
    return counts


# ---------------------------------------------------------------------------
# leave-one-class-out sweep


@dataclass(frozen=True)
class SweepRow:
    unknown_class: int
    auc: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    average_auc: float
    openness: float

    @property
    def failed(self) -> tuple:
        return tuple(r for r in self.rows if r.auc is None)


def _sweep_one(dataset: HsiDataset, config: TrainConfig, train_fraction: float, unknown_class: int) -> float:
    # per-run seed depends only on the held-out class, not scheduling order
    run_config = replace(config, seed=config.seed + unknown_class)
    model, _, parts = train_pipeline(dataset, {unknown_class}, run_config, train_fraction)
    known_scores = model.open_score(parts.test_known.pixels)
    unknown_scores = model.open_score(parts.unknown_pool.pixels)
    return roc(known_scores, unknown_scores).auc


def sweep(
    dataset: HsiDataset,
    config: TrainConfig,
    train_fraction: float = 0.5,
    jobs: int = 1,
) -> SweepReport:
    """Hold out each class in turn, retrain both stages on the rest, and score
    the held-out pixels against the known test pixels.

    Runs are independent; with jobs > 1 they execute in separate processes,
    at most one per class. A failed run becomes a row with auc=None annotated
    with the class and message; the average is over the successful rows.
    """
    if jobs < 1:
        raise DomainError(f"sweep: jobs must be >= 1, got {jobs}")
    if dataset.class_count < 2:
        raise DomainError("sweep needs at least 2 classes")
    classes = range(1, dataset.class_count + 1)
    # a process pool may start all of its workers at the first submit, so it
    # is sized by the work as well as by the request
    workers = min(jobs, dataset.class_count)
    # workers that each kept the full BLAS pool would oversubscribe the CPUs,
    # so each gets its share; a serial run keeps them all
    pool = _InlineExecutor() if workers == 1 else ProcessPoolExecutor(
        max_workers=workers,
        initializer=_set_blas_threads,
        initargs=(max(1, _usable_cpus() // workers),),
    )
    # workers fork with SIGINT blocked: Ctrl-C reaches this process alone, which ends them
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT] if workers > 1 else [])
    with pool:
        try:
            futures = [pool.submit(_sweep_one, dataset, config, train_fraction, c) for c in classes]
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            rows = tuple(_row(cls, fut) for cls, fut in zip(classes, futures))
        except BaseException:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
            raise
    aucs = [r.auc for r in rows if r.auc is not None]
    average = float(np.mean(aucs)) if aucs else float("nan")
    l_total = dataset.class_count
    return SweepReport(
        rows=rows,
        average_auc=average,
        openness=openness(l_total - 1, l_total, l_total - 1),
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_blas_threads(n: int) -> None:
    """Cap this process's OpenBLAS threads at n, through the setter that
    NumPy's bundled OpenBLAS exports; without that library or symbol, do
    nothing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(n)


class _InlineExecutor(Executor):
    """Runs each submitted call at once, in this process: the serial sweep
    goes through the same futures as the parallel one."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        fut = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered through the future
            fut.set_exception(exc)
        return fut


def _row(cls: int, fut: Future) -> SweepRow:
    """A run's row; a failed run is annotated with its class and message."""
    try:
        return SweepRow(cls, float(fut.result()))
    except Exception as exc:  # noqa: BLE001 - annotate and continue
        return SweepRow(cls, None, f"class {cls}: {exc}")


# ---------------------------------------------------------------------------
# text exports


def export_roc(path, curve: RocCurve) -> None:
    """Comma-separated curve points with the AUC comment ahead of the final
    point, which is always (1,1)."""
    # fpr, tpr, fpr, ...: one % call formats each point but the last as f"{f:.6f},{t:.6f}"
    xy = curve.points.ravel().tolist()
    body = ("%.6f,%.6f\n" * (len(xy) // 2 - 1)) % tuple(xy[:-2])
    _write_lines(path, ["fpr,tpr", f"{body}# auc={curve.auc:.6f}", "%.6f,%.6f" % tuple(xy[-2:])])


def export_histogram(path, scores_known, scores_unknown, bins: int, lo: float, hi: float) -> None:
    """Shared-bin counts for the known and unknown score distributions."""
    counts_k = histogram(scores_known, bins, lo, hi)
    counts_u = histogram(scores_unknown, bins, lo, hi)
    edges = np.linspace(lo, hi, bins + 1)
    lines = ["bin_lo,bin_hi,count_known,count_unknown"]
    lines += [
        f"{edges[i]:.6g},{edges[i + 1]:.6g},{counts_k[i]},{counts_u[i]}"
        for i in range(bins)
    ]
    _write_lines(path, lines)


def export_sweep(path, report: SweepReport) -> None:
    lines = ["unknown_class,auc"]
    for row in report.rows:
        lines.append(f"{row.unknown_class},failed" if row.auc is None else f"{row.unknown_class},{row.auc:.6f}")
    lines.append(f"average,{report.average_auc:.6f}")
    _write_lines(path, lines)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
