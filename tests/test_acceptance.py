"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured numbers.

Criterion 6 needs the real Pavia University scene in the container format;
it skips (not fails) when the files are absent. Everything else runs on
synthetic data and finishes on a small CPU box.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from rdosr import cli
from rdosr.data import synth_generate
from rdosr.diffcore import (
    ActivationLayer,
    ParamBlock,
    grad_check,
    l1_mean,
    l2_recon_mean,
    softmax_xent,
)
from rdosr.dirichletnet import StickHead, entropy_sparsity, kuma_v, kuma_v_backward, stick_break, stick_break_backward
from rdosr.models import (
    TrainConfig,
    build_classifier_c,
    build_classifier_f,
    build_decoder_d,
    build_encoder_e,
    one_hot,
    stage1_loss,
    stage2_loss,
    train_pipeline,
)
from rdosr.openset import roc, sweep
from util import (
    KINK_MARGIN,
    auc_bruteforce,
    encoder_margin,
    pack,
    param_loss_fn,
    randomize,
    stack_relu_margin,
)

N_GRAD_INSTANCES = 100
GRAD_TOL = 1e-4
FD_STEP = 1e-5


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def _run_instances(name, build, budget=50_000):
    """Check `N_GRAD_INSTANCES` margin-clean instances of one operation.

    `build(seed)` returns (f, x0) for grad_check, or None when the draw sits
    too close to a kink (the checker requires a twice-differentiable loss).
    """
    worst = 0.0
    checked = 0
    seed = 0
    while checked < N_GRAD_INSTANCES:
        seed += 1
        assert seed < budget, f"{name}: instance generator starved"
        built = build(seed)
        if built is None:
            continue
        f, x0 = built
        worst = max(worst, grad_check(f, x0, step=FD_STEP))
        checked += 1
    return worst


def _affine_instance(seed):
    rng = np.random.default_rng(seed)
    from rdosr.diffcore import affine, affine_backward

    w, b, x = (ParamBlock(rng.normal(size=s)) for s in ((4, 3), (1, 3), (6, 4)))
    weight = rng.normal(size=(6, 3))
    params = [w, b, x]

    def compute():
        y = affine(w.value, b.value, x.value)
        d_w, d_b, d_x = affine_backward(weight, w.value, x.value)
        w.grad += d_w
        b.grad += d_b
        x.grad += d_x
        return float((y * weight).sum())

    return param_loss_fn(params, compute), pack(params)


def _relu_instance(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 5))
    if np.abs(x).min() < KINK_MARGIN:
        return None
    p = ParamBlock(x)
    weight = rng.normal(size=x.shape)
    layer = ActivationLayer()

    def compute():
        y = layer.forward(p.value)
        p.grad += layer.backward(weight)
        return float((y * weight).sum())

    return param_loss_fn([p], compute), pack([p])


def _xent_instance(seed):
    rng = np.random.default_rng(seed)
    logits = ParamBlock(rng.normal(size=(16, 5)))
    y = np.zeros((16, 5))
    y[np.arange(16), rng.integers(0, 5, size=16)] = 1.0

    def compute():
        loss, d = softmax_xent(logits.value, y)
        logits.grad += d
        return loss

    return param_loss_fn([logits], compute), pack([logits])


def _l1_instance(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 5))
    if np.abs(x).min() < KINK_MARGIN:
        return None
    p = ParamBlock(x)

    def compute():
        value, d = l1_mean(p.value)
        p.grad += d
        return value

    return param_loss_fn([p], compute), pack([p])


def _l2_instance(seed):
    rng = np.random.default_rng(seed)
    z = ParamBlock(rng.normal(size=(7, 4)))
    zh = ParamBlock(rng.normal(size=(7, 4)))
    if np.sqrt(((z.value - zh.value) ** 2).sum(axis=1)).min() < KINK_MARGIN:
        return None
    params = [z, zh]

    def compute():
        value, d_z, d_zh = l2_recon_mean(z.value, zh.value)
        z.grad += d_z
        zh.grad += d_zh
        return value

    return param_loss_fn(params, compute), pack(params)


def _kuma_instance(seed):
    rng = np.random.default_rng(seed)
    u = ParamBlock(rng.uniform(0.05, 0.95, size=(4, 6)))
    beta = ParamBlock(rng.uniform(0.4, 3.0, size=(4, 6)))
    weight = rng.normal(size=(4, 6))
    params = [u, beta]

    def compute():
        v = kuma_v(u.value, beta.value)
        d_u, d_b = kuma_v_backward(weight, u.value, beta.value, v)
        u.grad += d_u
        beta.grad += d_b
        return float((v * weight).sum())

    return param_loss_fn(params, compute), pack(params)


def _stick_instance(seed):
    rng = np.random.default_rng(seed)
    v = ParamBlock(rng.uniform(0.05, 0.95, size=(4, 8)))
    weight = rng.normal(size=(4, 8))

    def compute():
        s = stick_break(v.value)
        v.grad += stick_break_backward(weight, v.value)
        return float((s * weight).sum())

    return param_loss_fn([v], compute), pack([v])


def _entropy_instance(seed):
    rng = np.random.default_rng(seed)
    s = ParamBlock(rng.uniform(0.05, 1.0, size=(5, 7)))

    def compute():
        value, d = entropy_sparsity(s.value)
        s.grad += d
        return value

    return param_loss_fn([s], compute), pack([s])


def _stickhead_instance(seed):
    rng = np.random.default_rng(seed)
    head = StickHead.create(3, 10, rng)
    hidden = ParamBlock(rng.normal(size=(5, 3)))
    params = head.params() + [hidden]
    randomize(head.params(), rng)

    def compute():
        s = head.forward(hidden.value)
        hidden.grad += head.backward(np.ones_like(s) / s.size)
        return float(s.mean())

    return param_loss_fn(params, compute), pack(params)


def _stage1_instance(seed):
    # reduced hidden widths keep the probe count tractable; the layer code is
    # width-independent
    rng = np.random.default_rng(seed)
    f = build_classifier_f(6, 3, rng, hidden=(5, 4))
    params = f.params()
    randomize(params, rng)
    x = rng.normal(size=(8, 6))
    y = one_hot(rng.integers(1, 4, size=8), 3)
    margin, logits = stack_relu_margin(f, x)
    if min(margin, float(np.abs(logits).min())) < KINK_MARGIN:
        return None

    def compute():
        loss, _ = stage1_loss(f, x, y, 1.0, 0.1, backward=True)
        return loss

    return param_loss_fn(params, compute), pack(params)


def _stage2_instance(seed):
    rng = np.random.default_rng(seed)
    l_known = 5
    e = build_encoder_e(l_known, rng, dirichlet=True)
    d = build_decoder_d(l_known, rng)
    c = build_classifier_c(l_known, rng)
    params = e.params() + d.params() + c.params()
    randomize(params, rng)
    z = rng.normal(size=(10, l_known)) * 0.5
    y = one_hot(rng.integers(1, l_known + 1, size=10), l_known)
    margin, s = encoder_margin(e, z)
    d_margin, zhat = stack_relu_margin(d, s)
    margin = min(margin, d_margin, float(np.sqrt(((z - zhat) ** 2).sum(axis=1)).min()))
    if margin < KINK_MARGIN:
        return None

    def compute():
        loss, _ = stage2_loss(e, d, c, z, y, 0.5, 1e-3, 0.5, backward=True)
        return loss

    return param_loss_fn(params, compute), pack(params)


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    cases = {
        "affine": _affine_instance,
        "relu": _relu_instance,
        "softmax_xent": _xent_instance,
        "l1_mean": _l1_instance,
        "l2_recon_mean": _l2_instance,
        "kuma_v": _kuma_instance,
        "stick_break": _stick_instance,
        "entropy_sparsity": _entropy_instance,
        "stick_head": _stickhead_instance,
        "stage1_objective": _stage1_instance,
        "stage2_objective": _stage2_instance,
    }
    worst = {name: _run_instances(name, build) for name, build in cases.items()}
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    ok = overall < GRAD_TOL and elapsed < 60.0
    report(
        "criterion 1 gradient integrity",
        ok,
        f"max rel err {overall:.3e} over {N_GRAD_INSTANCES} instances x {len(cases)} ops "
        f"in {elapsed:.1f}s (worst op: {max(worst, key=worst.get)})",
    )


# ---------------------------------------------------------------------------
# criterion 2: stick-breaking oracle at scale


def test_criterion_2_stick_breaking_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    rows, c = 100_000, 10  # one million (u, beta) draws
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=(rows, c))
    beta = np.exp(rng.normal(0.0, 2.0, size=(rows, c)))
    v = kuma_v(u, beta)
    s = stick_break(v)
    nonneg = bool((s >= 0.0).all())
    identity_gap = float(np.abs(s.sum(axis=1) - (1.0 - np.prod(1.0 - v, axis=1))).max())

    h_onehot, _ = entropy_sparsity(np.eye(c)[:1])
    h_uniform, _ = entropy_sparsity(np.full((1, c), 0.2))
    h_random, _ = entropy_sparsity(np.abs(rng.normal(size=(5000, c))))
    bounds_ok = (
        h_onehot == 0.0
        and abs(h_uniform - np.log(c)) < 1e-12
        and 0.0 <= h_random <= np.log(c) + 1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = nonneg and identity_gap < 1e-12 and bounds_ok and elapsed < 30.0
    report(
        "criterion 2 stick-breaking oracle",
        ok,
        f"1e6 draws, s>=0 {nonneg}, |sum s - (1-prod(1-v))| max {identity_gap:.2e}, "
        f"entropy bounds exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: AUC oracle equivalence


def test_criterion_3_auc_matches_pairwise_statistic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        nk = int(rng.integers(1, 201))
        nu = int(rng.integers(1, 201))
        if trial % 2 == 0:  # heavy ties half the time
            k = np.round(rng.random(nk), 1)
            u = np.round(rng.random(nu), 1)
        else:
            k = rng.normal(size=nk)
            u = rng.normal(size=nu) + rng.normal() * 0.5
        worst = max(worst, abs(roc(k, u).auc - auc_bruteforce(k, u)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    report(
        "criterion 3 AUC oracle equivalence",
        ok,
        f"max |curve - pairwise| = {worst:.2e} over 1000 score sets, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: openness reproduction


def test_criterion_4_openness_reproduction():
    from rdosr.openset import openness

    targets = [
        ((8, 9, 8), 0.0299),
        ((7, 9, 7), 0.0646),
        ((15, 16, 15), 0.0163),
        ((20, 200, 20), 0.5735),
    ]
    gaps = [abs(openness(*counts) - expected) for counts, expected in targets]
    ok = max(gaps) < 1e-4  # +- 0.01 percentage points
    report(
        "criterion 4 openness reproduction",
        ok,
        "; ".join(
            f"openness{c}={openness(*c):.6f} (target {e:.4f})" for c, e in targets
        ),
    )


# ---------------------------------------------------------------------------
# criteria 5 + 8: synthetic end-to-end separability and the error gap

ACCEPT_SEEDS = (11, 12, 13)


def _acceptance_config(mode, seed):
    return TrainConfig(
        seed=seed,
        epochs_stage1=300,
        epochs_stage2=600,
        batch_size=256,
        mode=mode,
    )


@pytest.fixture(scope="module")
def default_synthetic_dataset():
    return synth_generate(l_total=6, bands=64, per_class=2000, seed=1)


@pytest.fixture(scope="module")
def acceptance_sweeps(default_synthetic_dataset):
    jobs = min(4, os.cpu_count() or 1)
    results = {}
    for seed in ACCEPT_SEEDS:
        for mode in ("rdosr", "ae_cls"):
            cfg = _acceptance_config(mode, seed)
            results[(mode, seed)] = sweep(default_synthetic_dataset, cfg, jobs=jobs)
    return results


def test_criterion_5_synthetic_separability(acceptance_sweeps):
    t0 = time.perf_counter()
    rdosr_avgs = {s: acceptance_sweeps[("rdosr", s)].average_auc for s in ACCEPT_SEEDS}
    ae_avgs = {s: acceptance_sweeps[("ae_cls", s)].average_auc for s in ACCEPT_SEEDS}
    floor_ok = all(a >= 0.85 for a in rdosr_avgs.values())
    order_ok = all(rdosr_avgs[s] >= ae_avgs[s] - 0.02 for s in ACCEPT_SEEDS)
    ok = floor_ok and order_ok
    detail = ", ".join(
        f"seed {s}: rdosr {rdosr_avgs[s]:.4f} vs ae_cls {ae_avgs[s]:.4f}" for s in ACCEPT_SEEDS
    )
    report("criterion 5 synthetic end-to-end separability", ok, detail)
    assert time.perf_counter() - t0 < 1800.0


@pytest.fixture(scope="module")
def trained_synthetic_model(default_synthetic_dataset):
    cfg = _acceptance_config("rdosr", ACCEPT_SEEDS[0])
    t0 = time.perf_counter()
    model, logs, parts = train_pipeline(default_synthetic_dataset, {6}, cfg, 0.5)
    # a single default-scale training run stays inside a laptop-class budget,
    # and the closed-set classifier separates the default mixture dataset
    assert time.perf_counter() - t0 < 300.0
    assert logs["stage1"][-1].accuracy >= 0.99
    return model, parts


def test_criterion_8_known_unknown_error_gap(trained_synthetic_model):
    model, parts = trained_synthetic_model
    known = model.open_score(parts.test_known.pixels)
    unknown = model.open_score(parts.unknown_pool.pixels)
    unknown_median = float(np.median(unknown))
    known_p90 = float(np.percentile(known, 90))
    ok = unknown_median > known_p90
    report(
        "criterion 8 known/unknown error gap",
        ok,
        f"median unknown {unknown_median:.4f} > p90 known {known_p90:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 6: Pavia University reproduction (dataset-gated)

PU_CUBE = Path(os.environ.get("RDOSR_PU_CUBE", "data/pu_cube.hsid"))
PU_LABELS = Path(os.environ.get("RDOSR_PU_LABELS", "data/pu_labels.hsil"))


@pytest.mark.skipif(
    not (PU_CUBE.is_file() and PU_LABELS.is_file()),
    reason="Pavia University container files not present",
)
def test_criterion_6_pavia_university_reproduction():
    from rdosr.data import load_cube, load_labels, pair

    dataset = pair(load_cube(PU_CUBE), load_labels(PU_LABELS))
    assert dataset.band_count == 103
    assert dataset.class_count == 9
    jobs = min(4, os.cpu_count() or 1)

    rdosr_cfg = TrainConfig(seed=0, mode="rdosr")  # published scale: 7.5K + 7.5K epochs
    rdosr_rep = sweep(dataset, rdosr_cfg, jobs=jobs)
    ae_cfg = TrainConfig(seed=0, mode="ae_cls", space="embedding")
    ae_rep = sweep(dataset, ae_cfg, jobs=jobs)

    ok = abs(rdosr_rep.average_auc - 0.773) <= 0.08 and abs(ae_rep.average_auc - 0.74) <= 0.08
    report(
        "criterion 6 Pavia University reproduction",
        ok,
        f"rdosr avg {rdosr_rep.average_auc:.4f} (target 0.773 +- 0.08), "
        f"ae_cls avg {ae_rep.average_auc:.4f} (target 0.74 +- 0.08)",
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism through the CLI


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    rc = cli.main(
        ["synth", "--out", str(data_dir), "--classes", "4", "--bands", "24",
         "--per-class", "150", "--seed", "3"]
    )
    assert rc == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs_stage1=80\nepochs_stage2=100\nbatch_size=64\nseed=21\n")
    common = ["--cube", str(data_dir / "cube.hsid"), "--labels", str(data_dir / "labels.hsil"),
              "--config", str(cfg)]

    checkpoints, manifests = [], []
    for run in ("a", "b"):
        out = tmp_path / f"train_{run}"
        assert cli.main(["train", *common, "--unknown", "4", "--out", str(out)]) == 0
        checkpoints.append((out / "model.rdck").read_bytes())
        manifests.append((out / "manifest.txt").read_bytes())
    train_ok = checkpoints[0] == checkpoints[1] and manifests[0] == manifests[1]

    reports = []
    for tag, jobs in (("r1", "1"), ("r4", "4"), ("r4b", "4")):
        path = tmp_path / f"report_{tag}.csv"
        assert cli.main(["sweep", *common, "--report", str(path), "--jobs", jobs]) == 0
        reports.append(path.read_bytes())
    sweep_ok = reports[0] == reports[1] == reports[2]

    elapsed = time.perf_counter() - t0
    ok = train_ok and sweep_ok and elapsed < 600.0
    report(
        "criterion 7 determinism",
        ok,
        f"checkpoints identical {train_ok}, reports identical across --jobs 1/4 {sweep_ok}, "
        f"{elapsed:.0f}s",
    )
