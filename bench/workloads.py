"""The two closed-loop workloads: one caller that waits for each call.

Every workload builds its scene with `synth_generate` from the benchmark
seed and hands it to the program only as files written by
`dataset_to_files`. `setup` is timed and repeated; `op` is one operation of
the loop and returns its wall time, the pixels it processed, the AUC it
produced and the correctness checks it failed.
"""

from __future__ import annotations

import hashlib
import io
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import span


@dataclass
class OpResult:
    wall_s: float
    px: int
    auc: float
    errors: list[str] = field(default_factory=list)
    stage1_epochs: int = 0


@dataclass(frozen=True)
class Scene:
    l_total: int
    bands: int
    per_class: int


# Sizes, picked so that each operation takes a few seconds on 2 CPUs and
# several of them fit in one run; see ROADMAP aim 1 for the shapes.
FULL = {
    # stage 1 stops after 2 epochs at accuracy 1.0 (which still runs F,
    # 64-512-1024-512-32-5, and Adam over its 1.1 M parameters); stage 2
    # runs 1000 steps of matrices 3-10 wide: per-call overhead dominates
    "train_stage2": dict(
        scene=Scene(6, 64, 500),
        config=dict(mode="rdosr", epochs_stage1=10, epochs_stage2=200, batch_size=256),
    ),
    # the checkpoint comes from a smaller scene of the same generator seed
    # (bases are drawn before abundances, so the classes match); the eval
    # scene stays far below the RSS that open_score's layer caches reach
    "eval_scene": dict(
        scene=Scene(6, 64, 3000),
        train_scene=Scene(6, 64, 500),
        config=dict(mode="rdosr", epochs_stage1=10, epochs_stage2=80, batch_size=256),
    ),
}

SMOKE = {
    "train_stage2": dict(
        scene=Scene(3, 16, 40),
        config=dict(mode="rdosr", epochs_stage1=30, epochs_stage2=2, batch_size=32),
    ),
    "eval_scene": dict(
        scene=Scene(3, 16, 60),
        train_scene=Scene(3, 16, 40),
        config=dict(mode="rdosr", epochs_stage1=5, epochs_stage2=2, batch_size=32),
    ),
}

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _held_out_auc(rdosr, model, parts) -> float:
    known = model.open_score(parts.test_known.pixels)
    unknown = model.open_score(parts.unknown_pool.pixels)
    return rdosr.openset.roc(known, unknown).auc


class Workload:
    setup_reps = 15

    def __init__(self, rdosr, sizes: dict, seed: int, workdir: Path) -> None:
        self.rdosr = rdosr
        self.sizes = sizes
        self.seed = seed
        self.dir = workdir
        self.config = rdosr.models.TrainConfig(seed=seed, **sizes["config"])
        self.cube = workdir / "cube.hsid"
        self.labels = workdir / "labels.hsil"
        self.digests: dict[str, str] = {}
        # the single-partition workloads hold out the last class
        self.unknown = sizes["scene"].l_total

    def _write_scene(self, scene: Scene, cube: Path, labels: Path):
        data = self.rdosr.data
        dataset = data.synth_generate(
            l_total=scene.l_total,
            bands=scene.bands,
            per_class=scene.per_class,
            seed=self.seed,
        )
        data.dataset_to_files(cube, labels, dataset)
        return dataset

    def _load(self):
        data = self.rdosr.data
        return data.pair(data.load_cube(self.cube), data.load_labels(self.labels))

    def setup(self) -> list[str]:
        self._write_scene(self.sizes["scene"], self.cube, self.labels)
        return self._same("scene", _sha256(self.cube))

    def _same(self, key: str, digest: str) -> list[str]:
        """Record a digest, or report that it differs from the first one."""
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"{key} digest {digest[:12]} != {first[:12]}"]

    def prepare(self) -> None:
        """Untimed work after the set-ups (references for the checks)."""

    def warm_up(self) -> None:
        """One unmeasured operation with one epoch per stage on the same
        inputs: the first operation in a process is slower than the ones
        after it (3.4 s against 2.6 s on train_stage2, 2 CPUs)."""
        config, digests = self.config, dict(self.digests)
        self.config = replace(config, epochs_stage1=1, epochs_stage2=1)
        try:
            self.op()
        finally:
            self.config, self.digests = config, digests

    def op(self, tracer=None) -> OpResult:
        raise NotImplementedError

    def trace_pair(self, tracer, traced_first: bool) -> tuple[OpResult, OpResult]:
        """An untraced and a traced operation, run in the given order;
        returns (untraced, traced)."""
        results = {}
        for traced in (True, False) if traced_first else (False, True):
            if traced:
                with tracer.installed():
                    results[traced] = self.op(tracer)
            else:
                results[traced] = self.op()
        return results[False], results[True]


class TrainStage2(Workload):
    """Load the scene files, run `train_pipeline` with one class held out."""

    def op(self, tracer=None) -> OpResult:
        models = self.rdosr.models
        with span(tracer, "bench.op"):
            t0 = perf_counter()
            dataset = self._load()
            model, logs, parts = models.train_pipeline(dataset, {self.unknown}, self.config)
            wall = perf_counter() - t0
        stage1, stage2 = logs["stage1"], logs["stage2"]
        n = parts.train_known.pixel_count
        result = OpResult(
            wall_s=wall,
            px=n * (len(stage1) + len(stage2)),
            auc=float("nan"),
            stage1_epochs=len(stage1),
        )
        with span(tracer, "bench.check"):
            ckpt = self.dir / "model.rdck"
            models.save_checkpoint(ckpt, model)
            result.errors += self._same("checkpoint", _sha256(ckpt))
            result.auc = _held_out_auc(self.rdosr, model, parts)
        losses = [r.loss for r in stage1] + [
            v for r in stage2 for v in (r.loss, r.recon, r.entropy, r.xent)
        ]
        if not np.isfinite(losses).all():
            result.errors.append("non-finite loss")
        if stage1[-1].accuracy < 0.99:
            result.errors.append(f"stage-1 accuracy {stage1[-1].accuracy:.4f} < 0.99")
        if len(stage2) != self.config.epochs_stage2:
            result.errors.append(f"stage 2 ran {len(stage2)} of {self.config.epochs_stage2} epochs")
        return result


class EvalScene(Workload):
    """In-process `rdosr eval` of a checkpoint trained during set-up."""

    setup_reps = 5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ckpt = self.dir / "model.rdck"
        self.roc_csv = self.dir / "roc.csv"
        self.hist_csv = self.dir / "hist.csv"

    def setup(self) -> list[str]:
        train_cube, train_labels = self.dir / "train.hsid", self.dir / "train.hsil"
        train = self._write_scene(self.sizes["train_scene"], train_cube, train_labels)
        model, _, _ = self.rdosr.models.train_pipeline(train, {self.unknown}, self.config)
        self.rdosr.models.save_checkpoint(self.ckpt, model)
        errors = self._same("checkpoint", _sha256(self.ckpt))
        return errors + super().setup()

    def prepare(self) -> None:
        data = self.rdosr.data
        model = self.rdosr.models.load_checkpoint(self.ckpt)
        parts = data.split(
            self._load(),
            data.SplitSpec(frozenset(model.unknown_class_ids), model.train_fraction, model.config.seed),
        )
        self.ref_auc = _held_out_auc(self.rdosr, model, parts)
        self.scored = parts.test_known.pixel_count + parts.unknown_pool.pixel_count

    def op(self, tracer=None) -> OpResult:
        argv = ["eval", "--model", str(self.ckpt), "--cube", str(self.cube),
                "--labels", str(self.labels), "--roc-out", str(self.roc_csv),
                "--hist-out", str(self.hist_csv)]
        out = io.StringIO()
        with span(tracer, "bench.op"):
            t0 = perf_counter()
            with redirect_stdout(out):
                code = self.rdosr.cli.main(argv)
            wall = perf_counter() - t0
        result = OpResult(wall_s=wall, px=self.scored, auc=self.ref_auc)
        if code != 0:
            result.errors.append(f"eval exit code {code}")
            return result
        printed = dict(line.split("=", 1) for line in out.getvalue().split())
        if printed.get("auc") != f"{self.ref_auc:.4f}":
            result.errors.append(f"printed auc {printed.get('auc')} != roc() {self.ref_auc:.4f}")
        roc_lines = self.roc_csv.read_text().splitlines()
        if roc_lines[-1] != "1.000000,1.000000":
            result.errors.append(f"roc ends at {roc_lines[-1]}")
        if roc_lines[-2] != f"# auc={self.ref_auc:.6f}":
            result.errors.append(f"roc file {roc_lines[-2]} != roc() {self.ref_auc:.6f}")
        hist = np.loadtxt(self.hist_csv, delimiter=",", skiprows=1, ndmin=2)
        if int(hist[:, 2:].sum()) != self.scored:
            result.errors.append(f"histogram counts {int(hist[:, 2:].sum())} != {self.scored} scored")
        return result


WORKLOADS = {
    "train_stage2": TrainStage2,
    "eval_scene": EvalScene,
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
