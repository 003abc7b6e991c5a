"""Per-layer metrics from a traced run.

Per-call figures (`*_us`, `*.ms`, `*.s`) average every traced call of the
run, set-up included. Counts per operation (`stage1.steps`, ...) are taken
inside the workload's operations only. A step is one optimizer step
(`Adam.step`); activation time is spread over steps and scoring calls. A
layer the workload never calls reads 0. FLOPs and Adam bytes are computed
from the operand shapes, not measured. `auc` is the held-out AUC the traced
operations produced: it depends on the seed's scene too much to be an
end-to-end metric with a bound, and the checkpoint digest guards it.
"""

from __future__ import annotations

import os

# spans that do numeric work; stage-2 time outside all of them is glue
KERNELS = (
    "diffcore.affine",
    "diffcore.affine_backward",
    "diffcore.ActivationLayer.forward",
    "diffcore.ActivationLayer.backward",
    "diffcore.sigmoid",
    "diffcore.softplus",
    "diffcore.softmax",
    "diffcore.softmax_xent",
    "diffcore.l1_mean",
    "diffcore.l2_recon_mean",
    "diffcore.Adam.step",
    "diffcore.Adam.zero_grad",
    "dirichletnet.kuma_v",
    "dirichletnet.kuma_v_backward",
    "dirichletnet.stick_break",
    "dirichletnet.stick_break_backward",
    "dirichletnet.entropy_sparsity",
)
LOSSES = ("diffcore.softmax_xent", "diffcore.l1_mean", "diffcore.l2_recon_mean")
STAGES = ("models.train_stage1", "models.train_stage2")
SCORING = ("models.RdosrModel.open_score", "models.RdosrModel.closed_predict")

# bytes one Adam step must move per parameter: read value, grad and both
# moments, write value, both moments and the zeroed grad (float64 each)
ADAM_BYTES_PER_PARAM = 8 * 8

NAMES = (
    ("affine.fwd_us", "us"),
    ("affine.bwd_us", "us"),
    ("affine.gflops", "GFLOP/s"),
    ("activation.us_per_step", "us"),
    ("adam.step_ms", "ms"),
    ("adam.zero_grad_ms", "ms"),
    ("adam.gb_per_s", "GB/s"),
    ("losses.us_per_step", "us"),
    ("as_matrix.calls_per_step", "count"),
    ("stick_head.fwd_us", "us"),
    ("stick_head.bwd_us", "us"),
    ("kuma_v.us", "us"),
    ("stick_break_backward.us", "us"),
    ("entropy_sparsity.us", "us"),
    ("train_stage1.s", "s"),
    ("train_stage2.s", "s"),
    ("stage1.step_ms", "ms"),
    ("stage2.step_ms", "ms"),
    ("stage1.steps", "count"),
    ("stage2.steps", "count"),
    ("stage1.epochs_run", "count"),
    ("stage2.glue_share", "ratio"),
    ("embed.s", "s"),
    ("open_score.px_per_s", "px/s"),
    ("closed_predict.s", "s"),
    ("f_rows_per_scored_px", "ratio"),
    ("save_checkpoint.ms", "ms"),
    ("load_checkpoint.ms", "ms"),
    ("load_cube.ms", "ms"),
    ("load_cube.mb_per_s", "MB/s"),
    ("split.ms", "ms"),
    ("normalizer_apply.ms", "ms"),
    ("synth_generate.s", "s"),
    ("roc.ms", "ms"),
    ("histogram.ms", "ms"),
    ("auc", "ratio"),
    ("eval.s", "s"),
    ("eval.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_per_op", "count"),
)

# how a figure is obtained, printed beside it
LABELS = {
    "affine.gflops": "computed from shapes",
    "adam.gb_per_s": "computed from shapes",
    **{name: "exact count" for name, unit in NAMES if unit == "count"},
}


def install_hooks(tracer, rdosr) -> None:
    """Counters read from call arguments when a span opens."""
    f_depth = 2 * len(rdosr.models.F_HIDDEN) + 1
    f_width = rdosr.models.F_HIDDEN[0]

    def affine_fwd(t, i, args):
        layer, x = args[0], args[1]
        fan_in, fan_out = layer.w.shape
        t.note("flops", i, (2 * fan_in + 1) * fan_out * len(x))

    def affine_bwd(t, i, args):
        layer, d_out = args[0], args[1]
        fan_in, fan_out = layer.w.shape
        t.note("flops", i, (4 * fan_in + 1) * fan_out * len(d_out))

    def adam_step(t, i, args):
        size = sum(p.value.size for p, _ in args[0].pairs)
        t.note("bytes", i, ADAM_BYTES_PER_PARAM * size)

    def rows(t, i, args):
        t.note("rows", i, len(args[1]))

    def stack_forward(t, i, args):
        stack, x = args[0], args[1]
        layers = stack.layers
        if len(layers) == f_depth and layers[0].w.shape[1] == f_width:
            t.note("f_rows", i, len(x))

    def file_bytes(t, i, args):
        t.note("bytes", i, os.path.getsize(args[0]))

    tracer.hook("diffcore.AffineLayer.forward", affine_fwd)
    tracer.hook("diffcore.AffineLayer.backward", affine_bwd)
    tracer.hook("diffcore.Adam.step", adam_step)
    tracer.hook("models.RdosrModel.open_score", rows)
    tracer.hook("diffcore.Stack.forward", stack_forward)
    tracer.hook("data.load_cube", file_bytes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp, n_ops: int, stage1_epochs: float, extra: dict) -> dict[str, float]:
    """`sp` is a tracing.Spans; `extra` carries the figures measured by the
    harness itself (AUC, tracing overhead)."""
    steps1 = sp.count("diffcore.Adam.step", "models.train_stage1")
    steps2 = sp.count("diffcore.Adam.step", "models.train_stage2")
    steps = steps1 + steps2
    scoring_calls = sum(sp.count(n) for n in SCORING)
    fwd, bwd = "diffcore.AffineLayer.forward", "diffcore.AffineLayer.backward"
    act = sp.total_s("diffcore.ActivationLayer.forward") + sp.total_s("diffcore.ActivationLayer.backward")
    stage2_s = sp.total_s("models.train_stage2")
    glue = stage2_s - sp.covered_s(KERNELS, ("models.train_stage2",))
    scored = sp.extra_sum("rows", "models.RdosrModel.open_score")
    f_rows = sp.extra_sum("f_rows", "diffcore.Stack.forward", SCORING)
    m = {
        "affine.fwd_us": 1e6 * sp.mean_s(fwd),
        "affine.bwd_us": 1e6 * sp.mean_s(bwd),
        "affine.gflops": 1e-9 * _ratio(
            sp.extra_sum("flops", fwd) + sp.extra_sum("flops", bwd),
            sp.total_s(fwd) + sp.total_s(bwd),
        ),
        "activation.us_per_step": 1e6 * _ratio(act, steps + scoring_calls),
        "adam.step_ms": 1e3 * sp.mean_s("diffcore.Adam.step"),
        "adam.zero_grad_ms": 1e3 * sp.mean_s("diffcore.Adam.zero_grad"),
        "adam.gb_per_s": 1e-9 * _ratio(
            sp.extra_sum("bytes", "diffcore.Adam.step"), sp.total_s("diffcore.Adam.step")
        ),
        "losses.us_per_step": 1e6 * _ratio(sum(sp.total_s(n, STAGES) for n in LOSSES), steps),
        "as_matrix.calls_per_step": _ratio(sp.count("diffcore.as_matrix", STAGES), steps),
        "stick_head.fwd_us": 1e6 * sp.mean_s("dirichletnet.StickHead.forward"),
        "stick_head.bwd_us": 1e6 * sp.mean_s("dirichletnet.StickHead.backward"),
        "kuma_v.us": 1e6 * sp.mean_s("dirichletnet.kuma_v"),
        "stick_break_backward.us": 1e6 * sp.mean_s("dirichletnet.stick_break_backward"),
        "entropy_sparsity.us": 1e6 * sp.mean_s("dirichletnet.entropy_sparsity"),
        "train_stage1.s": sp.mean_s("models.train_stage1"),
        "train_stage2.s": sp.mean_s("models.train_stage2"),
        "stage1.step_ms": 1e3 * _ratio(sp.total_s("models.train_stage1"), steps1),
        "stage2.step_ms": 1e3 * _ratio(stage2_s, steps2),
        "stage1.steps": _ratio(sp.count("diffcore.Adam.step", "models.train_stage1", "bench.op"), n_ops),
        "stage2.steps": _ratio(sp.count("diffcore.Adam.step", "models.train_stage2", "bench.op"), n_ops),
        "stage1.epochs_run": stage1_epochs,
        "stage2.glue_share": _ratio(glue, stage2_s),
        "embed.s": sp.mean_s("models.embed"),
        "open_score.px_per_s": _ratio(scored, sp.total_s("models.RdosrModel.open_score")),
        "closed_predict.s": sp.mean_s("models.RdosrModel.closed_predict"),
        "f_rows_per_scored_px": _ratio(f_rows, scored),
        "save_checkpoint.ms": 1e3 * sp.mean_s("models.save_checkpoint"),
        "load_checkpoint.ms": 1e3 * sp.mean_s("models.load_checkpoint"),
        "load_cube.ms": 1e3 * sp.mean_s("data.load_cube"),
        "load_cube.mb_per_s": 1e-6 * _ratio(
            sp.extra_sum("bytes", "data.load_cube"), sp.total_s("data.load_cube")
        ),
        "split.ms": 1e3 * sp.mean_s("data.split"),
        "normalizer_apply.ms": 1e3 * sp.mean_s("data.Normalizer.apply"),
        "synth_generate.s": sp.mean_s("data.synth_generate"),
        "roc.ms": 1e3 * sp.mean_s("openset.roc"),
        "histogram.ms": 1e3 * sp.mean_s("openset.histogram"),
        "eval.s": sp.mean_s("cli.cmd_eval"),
        "eval.self_s": sp.mean_s("cli.cmd_eval", self_time=True),
        "trace.spans_per_op": _ratio(sp.count(None, "bench.op"), n_ops),
    }
    m.update(extra)
    return m
