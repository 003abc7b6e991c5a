import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rdosr.data import Normalizer, synth_generate
from rdosr.diffcore import (
    ActivationLayer,
    Adam,
    DomainError,
    NumericError,
    ShapeError,
    Stack,
    affine,
    bind,
    glorot_uniform,
    grad_check,
)
from rdosr.dirichletnet import StickHead
from rdosr.models import (
    F_HIDDEN,
    MODES,
    SCORE_BLOCK,
    SPACES,
    TrainConfig,
    _build_model,
    _row_blocks,
    _stage1_loss,
    build_classifier_c,
    build_classifier_f,
    build_decoder_d,
    build_encoder_e,
    effective_lambda_z,
    embed,
    load_checkpoint,
    one_hot,
    save_checkpoint,
    sparsity_weight,
    stage1_loss,
    stage2_loss,
    train_pipeline,
    train_stage1,
    train_stage2,
)
from util import (
    KINK_MARGIN,
    ReferenceAdam,
    ReferenceStickHead,
    bits,
    entropy_sparsity_reference,
    encoder_margin,
    grads,
    pack,
    param_loss_fn,
    randomize,
    reference_train_stage1,
    reference_train_stage2,
    stack_relu_margin,
    unpack,
    whole_batch_closed_predict,
    whole_batch_embed,
    whole_batch_open_score,
)


def small_dataset(classes=4, per_class=60, seed=0):
    return synth_generate(l_total=classes, bands=16, per_class=per_class, seed=seed)


def quick_config(**kw):
    base = dict(seed=5, epochs_stage1=120, epochs_stage2=60, batch_size=64)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_follow_published_settings():
    cfg = TrainConfig()
    assert (cfg.lambda_f, cfg.lambda_z) == (1.0, 0.1)
    assert (cfg.lambda_r, cfg.lambda_s, cfg.lambda_c) == (0.5, 1e-3, 0.5)
    assert cfg.lambda_s_decay == 0.9977
    assert cfg.lr == 1e-3
    assert cfg.epochs_stage1 + cfg.epochs_stage2 == 15000
    assert cfg.stage1_target_accuracy == 0.9988
    assert cfg.embedding_scale == 10.0


def test_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(lambda_r=-0.1)
    with pytest.raises(DomainError):
        TrainConfig(lambda_s_decay=0.0)
    with pytest.raises(DomainError):
        TrainConfig(mode="nope")
    with pytest.raises(DomainError):
        TrainConfig(space="latent")
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):  # NumPy's generators take no negative seed
        TrainConfig(seed=-1)
    # every float field is finite; an integer too large for a float is not
    for bad in (dict(lr=float("nan")), dict(embedding_scale=float("inf")),
                dict(lambda_r=-float("inf")), dict(stage1_target_accuracy=float("nan")),
                dict(lambda_s=10**400)):
        with pytest.raises(DomainError, match=f"^{next(iter(bad))} must be finite$"):
            TrainConfig(**bad)
    # each field takes the type of its default; a bool is no number
    for bad in (dict(lr="fast"), dict(epochs_stage1=2.0), dict(batch_size=True),
                dict(lr=True), dict(mode=1), dict(seed=None)):
        with pytest.raises(DomainError, match=f"^{next(iter(bad))} must be of type "):
            TrainConfig(**bad)
    assert TrainConfig(lr=1, embedding_scale=10).lr == 1  # a float field takes an int


def test_sparsity_decay_schedule_vanishes():
    cfg = TrainConfig()
    assert sparsity_weight(cfg, 0) == 1e-3
    ratio = sparsity_weight(cfg, 15000) / sparsity_weight(cfg, 0)
    assert ratio == 0.9977**15000
    assert ratio < 1e-14


def test_lambda_z_applies_to_full_method_only():
    assert effective_lambda_z(TrainConfig(mode="rdosr")) == 0.1
    for mode in ("ae_cls", "ae_cls_dirichlet", "softmax"):
        assert effective_lambda_z(TrainConfig(mode=mode)) == 0.0


# ---------------------------------------------------------------------------
# architecture wiring


def test_classifier_f_node_counts():
    f = build_classifier_f(103, 9)
    widths = [layer.w.shape for layer in f.layers[::2]]
    assert widths == [(103, 512), (512, 1024), (1024, 512), (512, 32), (32, 9)]


def test_encoder_decoder_classifier_node_counts():
    e = build_encoder_e(9, dirichlet=True)
    trunk_widths = [layer.w.shape for layer in e.layers[0].layers[::2]]
    assert trunk_widths == [(9, 3), (3, 3), (3, 3), (3, 3)]
    assert e.layers[1].u.w.shape == (3, 10)
    assert e.layers[1].beta.w.shape == (3, 10)
    d = build_decoder_d(9)
    assert [l.w.shape for l in d.layers if hasattr(l, "w")] == [(10, 10), (10, 9)]
    c = build_classifier_c(9)
    assert c.layers[0].w.shape == (10, 9)


_BUILDERS = {
    "f": lambda: build_classifier_f(6, 3, hidden=(5, 4)),
    "e-stick": lambda: build_encoder_e(4, dirichlet=True),
    "e-plain": lambda: build_encoder_e(4, dirichlet=False),
    "d": lambda: build_decoder_d(4),
    "c": lambda: build_classifier_c(4),
    "stick-head": lambda: StickHead(3, 10),
}


@pytest.mark.parametrize("net", _BUILDERS)
def test_builders_draw_glorot_weights_in_param_order_into_one_buffer(net):
    net = _BUILDERS[net]()
    bind(net.params(), np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for name, p in net.named_params(""):
        if name.endswith(".w"):  # successive draws; a bias keeps its constant
            assert np.array_equal(p.value, glorot_uniform(*p.shape, rng)), name
    blocks = net.params()
    _one_buffer([p.value for p in blocks])
    assert not _one_buffer([p.grad for p in blocks]).any()


def test_train_stage2_refuses_networks_bound_apart():
    rng = np.random.default_rng(5)
    e, d, c = build_encoder_e(3, dirichlet=True), build_decoder_d(3), build_classifier_c(3)
    for net in (e, d, c):
        bind(net.params(), rng)  # three buffers
    with pytest.raises(ShapeError, match="bind the blocks first"):
        train_stage2(e, d, c, rng.normal(size=(9, 3)), rng.integers(1, 4, size=9), TrainConfig(), rng)


def _refuses_unbound(run) -> None:
    with pytest.raises(ShapeError, match=r"unset weights: bind\(net.params\(\), rng\)") as err:
        run()
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("entry", ["embed", "stage1_loss", "train_stage1"])
def test_stage1_entries_refuse_an_unbound_classifier(monkeypatch, entry):
    # unbound, F would compute with zero weights (and backward could not write)
    monkeypatch.setattr(Adam, "step", lambda self: pytest.fail("a step ran"))
    rng = np.random.default_rng(3)
    f = build_classifier_f(4, 2, hidden=(3,))
    x, labels = rng.normal(size=(6, 4)), np.array([1, 2] * 3)
    _refuses_unbound({
        "embed": lambda: embed(f, x, 10.0),
        "stage1_loss": lambda: stage1_loss(f, x, one_hot(labels, 2), 1.0, 0.1, backward=True),
        "train_stage1": lambda: train_stage1(f, x, labels, quick_config(epochs_stage1=1), rng),
    }[entry])


@pytest.mark.parametrize("entry", ["stage2_loss", "train_stage2"])
def test_stage2_entries_refuse_any_unbound_network(monkeypatch, entry):
    monkeypatch.setattr(Adam, "step", lambda self: pytest.fail("a step ran"))
    rng = np.random.default_rng(4)
    e, d, c = build_encoder_e(3, dirichlet=True), build_decoder_d(3), build_classifier_c(3)
    bind(e.params() + c.params(), rng)  # the decoder alone is left unset
    z, labels = rng.normal(size=(6, 3)), np.array([1, 2, 3] * 2)
    _refuses_unbound({
        "stage2_loss": lambda: stage2_loss(e, d, c, z, one_hot(labels, 3), 0.5, 1e-3, 0.5, True),
        "train_stage2": lambda: train_stage2(e, d, c, z, labels, quick_config(epochs_stage2=1), rng),
    }[entry])


def test_plain_head_for_ae_cls():
    e = build_encoder_e(5, dirichlet=False)
    bind(e.params(), np.random.default_rng(1))
    assert not isinstance(e.layers[1], StickHead)
    s = e.forward(np.random.default_rng(2).normal(size=(7, 5)))
    assert s.shape == (7, 10)
    assert (s >= 0.0).all()  # relu representation


def test_one_hot():
    y = one_hot(np.array([1, 3, 2]), 3)
    assert np.array_equal(y, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(DomainError):
        one_hot(np.array([0]), 3)
    # labels that are not whole numbers are rejected, never truncated
    for labels in ([1.5, 2.9], [1.0, np.nan], [2.0, 1e30]):
        with pytest.raises(DomainError):
            one_hot(np.array(labels), 3)
    assert np.array_equal(one_hot(np.array([1.0, 3.0, 2.0]), 3), y)


def test_train_stage1_rejects_fractional_labels_before_a_step(monkeypatch):
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    rng = np.random.default_rng(8)
    f = build_classifier_f(4, 3, hidden=(5,))
    bind(f.params(), rng)
    with pytest.raises(DomainError):
        train_stage1(f, rng.normal(size=(6, 4)), np.array([1.0, 2.0, 3.0, 1.5, 2.0, 2.9]),
                     quick_config(epochs_stage1=2), rng)
    assert steps == []


# ---------------------------------------------------------------------------
# stage objectives


def test_stage1_loss_perfect_confident_logits():
    rng = np.random.default_rng(3)
    f = build_classifier_f(4, 2, hidden=(3,))
    bind(f.params(), rng)
    f.layers[-1].b.value[...] = 0.0
    x = rng.normal(size=(5, 4))
    y = np.zeros((5, 2))
    y[np.arange(5), np.argmax(f.forward(x), axis=1)] = 1.0
    # inflate the winning margin so the cross-entropy term collapses
    f.layers[-1].w.value *= 200.0
    loss, _ = stage1_loss(f, x, y, lambda_f=1.0, lambda_z=0.0)
    assert loss < 1e-6


def test_stage1_loss_zero_embedding():
    rng = np.random.default_rng(4)
    f = build_classifier_f(4, 3, hidden=(3,))
    bind(f.params(), rng)
    f.layers[-1].w.value[...] = 0.0
    f.layers[-1].b.value[...] = 0.0
    loss, logits = stage1_loss(f, rng.normal(size=(6, 4)), one_hot(np.ones(6, dtype=int), 3), 0.0, 1.0)
    assert loss == 0.0
    assert np.array_equal(logits, np.zeros((6, 3)))


def _fresh_stage1_instance(seed):
    rng = np.random.default_rng(seed)
    f = build_classifier_f(6, 3, hidden=(5, 4))
    bind(f.params(), rng)
    params = f.params()
    randomize(params, rng)
    x = rng.normal(size=(8, 6))
    y = one_hot(rng.integers(1, 4, size=8), 3)
    margin, logits = stack_relu_margin(f, x)
    margin = min(margin, float(np.abs(logits).min()))
    return f, params, x, y, margin


def test_stage1_gradients_match_finite_differences():
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        f, params, x, y, margin = _fresh_stage1_instance(seed)
        if margin < KINK_MARGIN:
            continue

        def compute():
            loss, _ = stage1_loss(f, x, y, 1.0, 0.1, backward=True)
            return loss

        assert grad_check(param_loss_fn(params, compute), pack(params), step=1e-5) < 1e-4
        checked += 1


def _fresh_stage2_instance(seed, dirichlet=True, l_known=5):
    rng = np.random.default_rng(seed)
    e = build_encoder_e(l_known, dirichlet=dirichlet)
    d = build_decoder_d(l_known)
    c = build_classifier_c(l_known)
    params = e.params() + d.params() + c.params()
    bind(params, rng)  # one buffer, drawn in that order
    randomize(params, rng)
    z = rng.normal(size=(10, l_known)) * 0.5
    y = one_hot(rng.integers(1, l_known + 1, size=10), l_known)
    margin, s = encoder_margin(e, z)
    d_margin, zhat = stack_relu_margin(d, s)
    margin = min(margin, d_margin, float(np.sqrt(((z - zhat) ** 2).sum(axis=1)).min()))
    return (e, d, c), params, z, y, margin


def test_stage2_gradients_match_finite_differences():
    checked = 0
    seed = 100
    while checked < 5:
        seed += 1
        (e, d, c), params, z, y, margin = _fresh_stage2_instance(seed)
        if margin < KINK_MARGIN:
            continue

        def compute():
            loss, _ = stage2_loss(e, d, c, z, y, 0.5, 1e-3, 0.5, backward=True)
            return loss

        assert grad_check(param_loss_fn(params, compute), pack(params), step=1e-5) < 1e-4
        checked += 1


def test_stage2_loss_perfect_reconstruction_one_hot_s():
    rng = np.random.default_rng(8)
    e = build_encoder_e(2, dirichlet=False)
    d = build_decoder_d(2)
    c = build_classifier_c(2)
    bind(e.params() + d.params() + c.params(), rng)
    # constant one-hot representation via biases, decoder emits exactly z
    for p in e.params():
        p.value[...] = 0.0
    e.layers[1].layers[0].b.value[...] = 0.0
    e.layers[1].layers[0].b.value[0, 0] = 1.0
    for p in d.params():
        p.value[...] = 0.0
    z_const = np.array([[0.7, -0.2], [0.7, -0.2]])
    d.layers[-1].b.value[...] = z_const[:1]
    y = one_hot(np.array([1, 1]), 2)
    loss, (recon, ent, xent) = stage2_loss(e, d, c, z_const, y, 0.5, 1e-3, 0.0)
    assert recon == 0.0
    assert ent == 0.0
    assert loss == 0.0


def test_stage2_loss_uniform_s_entropy_bound():
    rng = np.random.default_rng(9)
    e = build_encoder_e(3, dirichlet=False)
    d = build_decoder_d(3)
    c = build_classifier_c(3)
    bind(e.params() + d.params() + c.params(), rng)
    for p in e.params():
        p.value[...] = 0.0
    e.layers[1].layers[0].b.value[...] = 0.25  # uniform positive representation
    z = rng.normal(size=(4, 3))
    y = one_hot(np.ones(4, dtype=int), 3)
    lam_s = 7e-4
    loss, (recon, ent, xent) = stage2_loss(e, d, c, z, y, 0.0, lam_s, 0.0)
    assert abs(ent - np.log(10.0)) < 1e-12
    assert np.isclose(loss, lam_s * np.log(10.0))


# ---------------------------------------------------------------------------
# training loops


def test_train_stage1_linearly_separable_two_classes():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(-2.0, 0.3, size=(100, 8)), rng.normal(2.0, 0.3, size=(100, 8))])
    labels = np.concatenate([np.ones(100, dtype=np.int64), np.full(100, 2, dtype=np.int64)])
    f = build_classifier_f(8, 2)
    bind(f.params(), np.random.default_rng(0))
    cfg = TrainConfig(seed=0, epochs_stage1=500, batch_size=64, stage1_target_accuracy=1.0)
    log = train_stage1(f, x, labels, cfg, np.random.default_rng(cfg.seed))
    assert log[-1].accuracy == 1.0
    assert len(log) <= 500


def test_train_stage1_loss_trend_is_downward():
    # noisy overlapping classes keep the run going; the per-epoch loss log
    # must trend down statistically even if not monotonically
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(-0.5, 1.0, size=(150, 10)), rng.normal(0.5, 1.0, size=(150, 10))])
    labels = np.concatenate([np.ones(150, dtype=np.int64), np.full(150, 2, dtype=np.int64)])
    f = build_classifier_f(10, 2)
    bind(f.params(), np.random.default_rng(3))
    cfg = TrainConfig(seed=3, epochs_stage1=40, batch_size=64, stage1_target_accuracy=1.0)
    log = train_stage1(f, x, labels, cfg, np.random.default_rng(cfg.seed))
    losses = [rec.loss for rec in log]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_stage1_zero_epochs_is_identity():
    rng = np.random.default_rng(1)
    f = build_classifier_f(6, 2, hidden=(4,))
    bind(f.params(), rng)
    before = pack(f.params()).copy()
    cfg = TrainConfig(epochs_stage1=0)
    log = train_stage1(f, rng.normal(size=(10, 6)), np.ones(10, dtype=np.int64) + np.arange(10) % 2, cfg, rng)
    assert log == []
    assert np.array_equal(pack(f.params()), before)


def test_train_stage1_deterministic_trajectories():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 6))
    labels = rng.integers(1, 3, size=50)
    runs = []
    for _ in range(2):
        f = build_classifier_f(6, 2, hidden=(8,))
        bind(f.params(), np.random.default_rng(9))
        cfg = TrainConfig(seed=9, epochs_stage1=20, batch_size=16, stage1_target_accuracy=1.0)
        train_stage1(f, x, labels, cfg, np.random.default_rng(cfg.seed))
        runs.append(pack(f.params()))
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # it diverges on purpose
def test_train_stage1_aborts_on_divergence():
    rng = np.random.default_rng(3)
    f = build_classifier_f(4, 2, hidden=(4,))
    bind(f.params(), rng)
    x = rng.normal(size=(8, 4))
    x[0, 0] = np.inf  # inf - inf inside the stack turns the loss into nan
    with pytest.raises(NumericError, match="stage 1"):
        train_stage1(f, x, np.ones(8, dtype=np.int64), TrainConfig(epochs_stage1=3), rng)


def test_train_pipeline_rejects_non_finite_pixels_before_stage_1(monkeypatch):
    # a dataset built in memory is checked where it enters training
    ds = small_dataset()
    pixels = ds.pixels.copy()
    pixels[7, 3] = np.nan
    monkeypatch.setattr("rdosr.models.train_stage1", lambda *args: pytest.fail("stage 1 ran"))
    with pytest.raises(NumericError, match="dataset pixels contains non-finite entries"):
        train_pipeline(replace(ds, pixels=pixels), {4}, quick_config())


def test_train_stage2_reduces_reconstruction_tenfold():
    ds = synth_generate(l_total=5, bands=32, per_class=200, seed=0)
    cfg = quick_config(epochs_stage1=150, epochs_stage2=600)
    model, logs, parts = train_pipeline(ds, {5}, cfg, 0.5)
    xn = model.normalizer.apply(parts.train_known.pixels)
    z = embed(model.f, xn, cfg.embedding_scale)
    y = one_hot(parts.train_known.labels, model.n_known)
    _, (recon_after, _, _) = stage2_loss(model.e, model.d, model.c, z, y, 0.5, 0.0, 0.5)
    fresh = _build_model(cfg, ds.band_count, model.known_class_ids, model.unknown_class_ids,
                         0.5, model.normalizer, np.random.default_rng(cfg.seed))
    _, (recon_before, _, _) = stage2_loss(fresh.e, fresh.d, fresh.c, z, y, 0.5, 0.0, 0.5)
    assert recon_after * 10.0 <= recon_before


def test_train_stage2_zero_epochs_is_identity():
    rng = np.random.default_rng(5)
    e = build_encoder_e(3, dirichlet=True)
    d = build_decoder_d(3)
    c = build_classifier_c(3)
    params = e.params() + d.params() + c.params()
    bind(params, rng)  # one buffer, drawn in that order
    before = pack(params).copy()
    cfg = TrainConfig(epochs_stage2=0)
    log = train_stage2(e, d, c, rng.normal(size=(9, 3)), rng.integers(1, 4, size=9), cfg, rng)
    assert log == []
    assert np.array_equal(pack(params), before)


def _stage2_nets():
    rng = np.random.default_rng(5)
    e = build_encoder_e(3, dirichlet=True)
    d, c = build_decoder_d(3), build_classifier_c(3)
    bind(e.params() + d.params() + c.params(), rng)  # stage 2 steps one buffer
    return e, d, c, rng


def test_train_stage2_validates_once_per_run(monkeypatch):
    import rdosr.diffcore
    import rdosr.dirichletnet
    import rdosr.models

    counts = []
    for name in ("as_matrix", "_check_onehot"):
        for module in (rdosr.diffcore, rdosr.dirichletnet, rdosr.models):
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    counts.append(_fn)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    calls = {}
    for epochs in (1, 4):
        e, d, c, rng = _stage2_nets()
        z, labels = rng.normal(size=(40, 3)), rng.integers(1, 4, size=40)
        counts.clear()
        train_stage2(e, d, c, z, labels, TrainConfig(epochs_stage2=epochs, batch_size=8), rng)
        calls[epochs] = len(counts)
    # 5 steps per epoch: validation that ran per step would grow fourfold
    assert calls[1] == calls[4]


@pytest.mark.parametrize(
    "case", ["z-width", "label-zero", "label-above-range", "label-count"]
)
def test_train_stage2_rejects_bad_inputs_before_the_first_step(monkeypatch, case):
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    e, d, c, rng = _stage2_nets()
    z, labels = rng.normal(size=(12, 3)), rng.integers(1, 4, size=12)
    if case == "z-width":
        z = rng.normal(size=(12, 4))
    elif case == "label-zero":
        labels[5] = 0
    elif case == "label-above-range":
        labels[5] = 4
    else:
        labels = labels[:-1]
    with pytest.raises((DomainError, ShapeError)):
        train_stage2(e, d, c, z, labels, TrainConfig(epochs_stage2=2, batch_size=4), rng)
    assert steps == []


@pytest.mark.parametrize("mode", ["rdosr", "ae_cls", "ae_cls_dirichlet"])
def test_stage2_checkpoint_matches_reference_head_and_entropy(tmp_path, monkeypatch, mode):
    ds = small_dataset(classes=3, per_class=40)
    cfg = quick_config(mode=mode, epochs_stage1=3, epochs_stage2=6, batch_size=32)
    blobs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr("rdosr.models.StickHead", ReferenceStickHead)
            monkeypatch.setattr("rdosr.models._entropy_sparsity", entropy_sparsity_reference)
        model, logs, _ = train_pipeline(ds, {3}, cfg, 0.5)
        assert len(logs["stage2"]) == 6
        path = tmp_path / f"model{len(blobs)}.rdck"
        save_checkpoint(path, model)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_stage2_never_modifies_classifier_f():
    ds = small_dataset()
    cfg = quick_config(epochs_stage2=5)
    parts_seed = np.random.default_rng(cfg.seed)
    model, logs, parts = train_pipeline(ds, {4}, cfg, 0.5)
    f_after_pipeline = pack(model.f.params()).copy()
    # retrain stage 2 in isolation; f must stay untouched
    xn = model.normalizer.apply(parts.train_known.pixels)
    z = embed(model.f, xn, cfg.embedding_scale)
    train_stage2(model.e, model.d, model.c, z, parts.train_known.labels, cfg, parts_seed)
    assert np.array_equal(pack(model.f.params()), f_after_pipeline)


# ---------------------------------------------------------------------------
# embedding and scoring


def test_embed_identity_scale_returns_logits():
    rng = np.random.default_rng(6)
    f = build_classifier_f(4, 3, hidden=(4,))
    bind(f.params(), rng)
    x = rng.normal(size=(5, 4))
    assert np.array_equal(embed(f, x, 1.0), f.forward(x))


def test_embed_divides_by_scale():
    rng = np.random.default_rng(7)
    f = build_classifier_f(2, 2, hidden=(2,))
    bind(f.params(), rng)
    f.layers[-1].w.value[...] = 0.0
    f.layers[-1].b.value[...] = [[10.0, -10.0]]
    out = embed(f, np.zeros((1, 2)), 10.0)
    assert np.allclose(out, [[1.0, -1.0]])
    with pytest.raises(DomainError):
        embed(f, np.zeros((1, 2)), 0.0)


def test_open_score_zero_for_exact_reconstruction():
    ds = small_dataset()
    cfg = quick_config(epochs_stage1=1, epochs_stage2=1)
    model, _, parts = train_pipeline(ds, {4}, cfg, 0.5)
    # force D(E(z)) == z for a constant probe by rewiring the decoder tail
    xn = model.normalizer.apply(parts.test_known.pixels[:1])
    z = embed(model.f, xn, cfg.embedding_scale)
    for p in model.e.params():
        p.value[...] = 0.0
    for p in model.d.params():
        p.value[...] = 0.0
    model.d.layers[-1].b.value[...] = z
    assert model.open_score(parts.test_known.pixels[:1])[0] == 0.0
    # unit embedding against zero reconstruction scores exactly 1
    model.d.layers[-1].b.value[...] = 0.0
    target = np.zeros_like(z)
    target[0, 0] = 1.0
    model.f.layers[-1].w.value[...] = 0.0
    model.f.layers[-1].b.value[...] = target * cfg.embedding_scale
    assert np.isclose(model.open_score(parts.test_known.pixels[:1])[0], 1.0)


def test_open_score_separates_unknown_on_trained_model():
    ds = synth_generate(l_total=5, bands=32, per_class=200, seed=0)
    cfg = quick_config(epochs_stage1=150, epochs_stage2=600)
    model, _, parts = train_pipeline(ds, {5}, cfg, 0.5)
    known = model.open_score(parts.test_known.pixels)
    unknown = model.open_score(parts.unknown_pool.pixels)
    assert unknown.mean() > known.mean()


def test_softmax_mode_scores_are_one_minus_confidence():
    ds = small_dataset()
    cfg = quick_config(mode="softmax")
    model, logs, parts = train_pipeline(ds, {4}, cfg, 0.5)
    assert model.e is None and logs["stage2"] == []
    scores = model.open_score(parts.test_known.pixels)
    assert ((0.0 <= scores) & (scores <= 1.0)).all()
    # trained known pixels are classified confidently
    assert np.median(scores) < 0.2


def test_closed_predict_accuracy_and_tie_break():
    ds = small_dataset(per_class=120)
    cfg = quick_config()
    model, logs, parts = train_pipeline(ds, {4}, cfg, 0.5)
    _, labels = model.open_score(parts.train_known.pixels, with_labels=True)
    assert np.array_equal(labels, whole_batch_closed_predict(model, parts.train_known.pixels))
    assert float(np.mean(labels == parts.train_known.labels)) >= 0.9988
    # tied logits resolve to the lowest class index
    model.f.layers[-1].w.value[...] = 0.0
    model.f.layers[-1].b.value[...] = 0.0
    assert (model.open_score(parts.test_known.pixels[:3], with_labels=True)[1] == 1).all()



@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_open_score_with_labels_matches_separate_calls(mode, space):
    ds = small_dataset()
    cfg = quick_config(mode=mode, space=space, epochs_stage1=3, epochs_stage2=2)
    model, _, _ = train_pipeline(ds, {4}, cfg, 0.5)
    scores, labels = model.open_score(ds.pixels, with_labels=True)
    assert np.array_equal(scores, model.open_score(ds.pixels))
    assert np.array_equal(labels, whole_batch_closed_predict(model, ds.pixels))


def _caches(*networks):
    """Every backward cache held by the layers of the given stacks, nested
    stacks included."""
    caches = []
    for l in (l for net in networks for l in net.layers):
        if isinstance(l, Stack):
            caches += _caches(l)
        else:
            caches += [getattr(l, a) for a in ("_x", "_mask", "_cache") if hasattr(l, a)]
            if isinstance(l, StickHead):  # its two affine layers cache their input
                caches += _caches(Stack([l.u, l.beta]))
    return caches


def test_scoring_keeps_no_backward_cache():
    ds = small_dataset()
    cfg = quick_config(epochs_stage1=2, epochs_stage2=2)
    model, _, parts = train_pipeline(ds, {4}, cfg, 0.5)
    f, e, d = model.f, model.e, model.d
    probe = parts.test_known.pixels
    xn = model.normalizer.apply(probe)
    z = xn if cfg.space == "image" else embed(f, xn, cfg.embedding_scale)
    # each scorer with the networks it runs, and so must clear
    scorers = (
        (lambda: embed(f, xn, cfg.embedding_scale), (f,)),
        (lambda: model.open_score(probe), (f, e, d)),
        (lambda: model.open_score(probe, with_labels=True), (f, e, d)),
    )
    # each backward pass drops the caches it read, so training leaves none
    assert all(c is None for c in _caches(f, e, d, model.c))
    for score, networks in scorers:
        f.forward(xn)  # training passes fill the caches
        d.forward(e.forward(z))
        assert all(c is not None for c in _caches(f, e, d))
        score()
        assert all(c is None for c in _caches(*networks))
    assert all(c is None for c in _caches(f, e, d))


def _untrained_model(mode="rdosr", space="embedding", bands=64, n_known=5, seed=0):
    config = TrainConfig(mode=mode, space=space)
    rng = np.random.default_rng(seed)
    normalizer = Normalizer(mean=rng.normal(size=bands), std=rng.uniform(0.5, 2.0, size=bands))
    return _build_model(
        config, bands, tuple(range(1, n_known + 1)), (n_known + 1,), 0.5, normalizer, rng
    )


# sizes just past a multiple of SCORE_BLOCK: cut into full blocks plus the rest,
# they end in a short block, where a product can take another BLAS path. One
# pass over many thousands of rows can itself take another path, so the
# references stay at a few thousand rows
_BLOCK_SIZES = (1, 2, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, SCORE_BLOCK + 2,
                SCORE_BLOCK + 33, SCORE_BLOCK + 61, 2 * SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 2,
                3 * SCORE_BLOCK + 1)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_block_scoring_bit_equal_to_one_whole_batch(mode, space):
    model = _untrained_model(mode, space)
    pixels = np.random.default_rng(1).normal(size=(max(_BLOCK_SIZES), model.band_count))
    for n in _BLOCK_SIZES:
        x = pixels[:n]
        ref_scores, ref_labels = whole_batch_open_score(model, x, with_labels=True)
        scores, labels = model.open_score(x, with_labels=True)
        assert np.array_equal(scores, ref_scores) and np.array_equal(labels, ref_labels), n
        assert np.array_equal(model.open_score(x), whole_batch_open_score(model, x)), n
        assert np.array_equal(labels, whole_batch_closed_predict(model, x)), n


def test_forward_only_f_bit_equal_to_allocating_relu():
    f = _untrained_model().f
    x = np.random.default_rng(3).normal(size=(700, 64))
    ref = x
    for layer in f.layers:
        is_relu = isinstance(layer, ActivationLayer)
        ref = np.maximum(ref, 0.0) if is_relu else affine(layer.w.value, layer.b.value, ref)
    assert np.array_equal(bits(f.forward(x, keep=False)), bits(ref))
    assert np.array_equal(bits(f.forward(x)), bits(ref))


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_scoring_leaves_the_callers_pixels_unchanged(mode, space):
    model = _untrained_model(mode, space)
    pixels = np.random.default_rng(4).normal(size=(SCORE_BLOCK + 300, model.band_count))
    before = pixels.copy()
    model.open_score(pixels, with_labels=True)
    model.open_score(pixels)
    embed(model.f, pixels, 10.0)
    assert np.array_equal(bits(pixels), bits(before))


def test_block_embedding_bit_equal_to_one_whole_batch():
    f = _untrained_model().f
    x = np.random.default_rng(2).normal(size=(max(_BLOCK_SIZES), 64))
    for n in _BLOCK_SIZES:
        assert np.array_equal(embed(f, x[:n], 10.0), whole_batch_embed(f, x[:n], 10.0)), n


@pytest.mark.parametrize(
    "n", [0, 1, 2, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, SCORE_BLOCK + 2,
          SCORE_BLOCK + 33, 2 * SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 2, 5 * SCORE_BLOCK, 400_000]
)
def test_row_blocks_cover_rows_in_order_without_a_one_row_block(n):
    blocks = _row_blocks(n)
    sizes = [b.stop - b.start for b in blocks]
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert len(blocks) == max(1, -(-n // SCORE_BLOCK))
    assert all(size <= SCORE_BLOCK for size in sizes)
    assert all(size % 8 == 0 for size in sizes[:-1])
    if n > SCORE_BLOCK:
        assert min(sizes) >= SCORE_BLOCK // 2
    if n > 1:
        assert min(sizes) > 1


def test_scoring_no_rows_gives_empty_outputs_of_the_whole_batch_types():
    model = _untrained_model()
    x = np.zeros((0, model.band_count))
    scores, labels = model.open_score(x, with_labels=True)
    z = embed(model.f, x, 10.0)
    for got, ref in [
        (scores, whole_batch_open_score(model, x)),
        (labels, whole_batch_closed_predict(model, x)),
        (z, whole_batch_embed(model.f, x, 10.0)),
    ]:
        assert got.shape == ref.shape and got.dtype == ref.dtype
    assert scores.dtype == np.float64 and labels.dtype == np.int64
    assert z.shape == (0, model.n_known)
    with pytest.raises(ShapeError):
        model.open_score(np.zeros((0, model.band_count + 1)))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# F's widest activation for one block is SCORE_BLOCK x 1024 float64 (8.4 MB).
# Forward only, a layer holds its input and its output, and a relu writes
# over the affine output it follows: 1.5 of them at the widest layer. A relu
# that allocates, keeping every layer's input for a backward pass, or running
# F over every row at once would reach two of them
_PEAK_BOUND = 2 * SCORE_BLOCK * max(F_HIDDEN) * 8


# A stage-1 step on a batch needs each affine layer's input for backward, a
# bool mask per relu and the gradient flowing back: under twice the batch's
# activations (8.1 MiB at batch 256). Caching each relu's float input, which
# keeps every affine output alive, and writing the weight gradients through
# temporaries peaked at 15.9 MB
_STEP_BOUND = 2 * 256 * sum(F_HIDDEN) * 8


def test_stage1_step_peak_memory_stays_below_twice_the_activations():
    rng = np.random.default_rng(0)
    f = build_classifier_f(64, 5)
    bind(f.params(), rng)
    Adam(f.params()).zero_grad()  # gradients live in the flat buffer, as in training
    x = rng.normal(size=(256, 64))
    y = one_hot(rng.integers(1, 6, size=256), 5)
    stage1_loss(f, x, y, 1.0, 0.1, backward=True)  # a warm-up step
    assert _traced_peak(lambda: _stage1_loss(f, x, y, 1.0, 0.1, True)) < _STEP_BOUND


def test_open_score_peak_memory_stays_below_three_widest_activations():
    model = _untrained_model()
    for rows in (4000, 16000):
        pixels = np.random.default_rng(0).normal(size=(rows, model.band_count))
        assert _traced_peak(lambda: model.open_score(pixels)) < _PEAK_BOUND, rows


@pytest.mark.parametrize("scorer", ["labels", "embed"])
def test_closed_predict_and_embed_peak_memory_stay_below_three_widest_activations(scorer):
    model = _untrained_model()
    for rows in (4000, 16000):
        pixels = np.random.default_rng(0).normal(size=(rows, model.band_count))
        run = {
            "labels": lambda: model.open_score(pixels, with_labels=True),
            "embed": lambda: embed(model.f, pixels, 10.0),
        }[scorer]
        assert _traced_peak(run) < _PEAK_BOUND, rows


def test_normalizer_fitted_on_known_training_pixels_only():
    ds = small_dataset()
    cfg = quick_config(epochs_stage1=1, epochs_stage2=1)
    model, _, parts = train_pipeline(ds, {4}, cfg, 0.5)
    assert np.array_equal(model.normalizer.mean, parts.train_known.pixels.mean(axis=0))
    # unknown pixels go through the same transform, never their own statistics
    xn = model.normalizer.apply(parts.unknown_pool.pixels)
    assert np.allclose(
        xn, (parts.unknown_pool.pixels - model.normalizer.mean) / model.normalizer.std
    )


def test_full_pipeline_determinism():
    ds = small_dataset()
    cfg = quick_config(epochs_stage2=30)
    a, _, parts = train_pipeline(ds, {2}, cfg, 0.5)
    b, _, _ = train_pipeline(ds, {2}, cfg, 0.5)
    probe = ds.pixels[:50]
    assert np.array_equal(a.open_score(probe), b.open_score(probe))
    names_a = dict(a.named_params())
    names_b = dict(b.named_params())
    assert all(np.array_equal(names_a[k].value, names_b[k].value) for k in names_a)


def test_image_space_mode_wires_band_width():
    ds = small_dataset()
    cfg = quick_config(mode="ae_cls_dirichlet", space="image", epochs_stage2=20)
    model, _, parts = train_pipeline(ds, {4}, cfg, 0.5)
    assert model.e.layers[0].layers[0].w.shape[0] == ds.band_count
    assert model.d.layers[-1].w.shape[1] == ds.band_count
    scores = model.open_score(parts.test_known.pixels)
    assert np.isfinite(scores).all()


def test_embedding_keeps_stage2_finite_at_scale():
    # raw-magnitude spectra stress the divide-by-scale guard: 100 epochs, no NaN
    ds = synth_generate(l_total=3, bands=24, per_class=80, seed=3)
    big = type(ds)(
        pixels=(ds.pixels * 40.0).astype(np.float32).astype(np.float64),
        labels=ds.labels,
        band_count=ds.band_count,
        class_count=ds.class_count,
    )
    cfg = quick_config(epochs_stage1=100, epochs_stage2=100)
    model, logs, _ = train_pipeline(big, {3}, cfg, 0.5)
    assert all(np.isfinite(rec.loss) for rec in logs["stage2"])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ds = small_dataset()
    cfg = quick_config(epochs_stage2=10)
    model, _, parts = train_pipeline(ds, {3}, cfg, 0.5)
    path = tmp_path / "model.rdck"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.known_class_ids == model.known_class_ids
    assert loaded.unknown_class_ids == model.unknown_class_ids
    assert loaded.train_fraction == model.train_fraction
    assert np.array_equal(loaded.normalizer.mean, model.normalizer.mean)
    assert np.array_equal(loaded.normalizer.std, model.normalizer.std)
    orig = dict(model.named_params())
    back = dict(loaded.named_params())
    assert set(orig) == set(back)
    for name in orig:
        assert np.array_equal(orig[name].value, back[name].value), name
    # behavioral identity
    probe = ds.pixels[:20]
    assert np.array_equal(model.open_score(probe), loaded.open_score(probe))
    # second save is byte-identical
    path2 = tmp_path / "again.rdck"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def _memory_owner(a: np.ndarray):
    # the object at the end of an array's chain of bases: None when an
    # array owns its memory, the bytes object for a view of a file read
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_load_checkpoint_draws_nothing_and_copies_into_owned_arrays(
    tmp_path, monkeypatch, mode, space
):
    model = _untrained_model(mode, space, bands=8)
    path = tmp_path / "model.rdck"
    save_checkpoint(path, model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    arrays = [p.value for _, p in loaded.named_params()]
    arrays += [p.grad for _, p in loaded.named_params()]
    arrays += [loaded.normalizer.mean, loaded.normalizer.std]
    for a in arrays:
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
        assert _memory_owner(a) is None
    probe = np.random.Generator(np.random.PCG64(1)).normal(size=(50, 8))
    scores, labels = loaded.open_score(probe, with_labels=True)
    ref_scores, ref_labels = model.open_score(probe, with_labels=True)
    assert np.array_equal(bits(scores), bits(ref_scores)) and np.array_equal(labels, ref_labels)
    save_checkpoint(tmp_path / "again.rdck", loaded)
    assert (tmp_path / "again.rdck").read_bytes() == path.read_bytes()


def _one_buffer(arrays) -> np.ndarray:
    """The flat float64 buffer `arrays` are consecutive C-order views of, in
    order and without gaps, from its first element to its last."""
    base = arrays[0].base
    assert isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == np.float64
    assert base.flags.c_contiguous and base.base is None
    at = 0
    for a in arrays:
        assert a.base is base and a.flags.c_contiguous
        assert a.ctypes.data == base.ctypes.data + 8 * at
        at += a.size
    assert at == base.size
    return base


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_trained_and_loaded_parameters_are_views_of_one_buffer(tmp_path, mode, space):
    ds = small_dataset(classes=3, per_class=40)
    cfg = quick_config(mode=mode, space=space, epochs_stage1=2, epochs_stage2=2, batch_size=32)
    model, _, _ = train_pipeline(ds, {3}, cfg, 0.5)
    save_checkpoint(tmp_path / "model.rdck", model)
    for m in (model, load_checkpoint(tmp_path / "model.rdck")):
        blocks = [p for _, p in m.named_params()]  # F, E, D and C
        values = _one_buffer([p.value for p in blocks])
        grads = _one_buffer([p.grad for p in blocks])
        assert not np.shares_memory(values, grads)


def test_adam_over_a_built_f_keeps_its_arrays():
    params = _untrained_model().f.params()
    arrays = [(p.value, p.grad) for p in params]
    Adam(params)
    assert all(p.value is v and p.grad is g for p, (v, g) in zip(params, arrays))


def test_adam_over_a_built_f_allocates_only_its_moments():
    # the two moments and a chunk of scratch: copies of F's values or
    # gradients would take 8 bytes per parameter more each
    params = _untrained_model().f.params()
    size = sum(p.value.size for p in params)
    assert _traced_peak(lambda: Adam(params)) < 2.5 * 8 * size


def test_flat_adam_checkpoint_matches_per_block_reference(tmp_path, monkeypatch):
    # F's 1.1 M parameters span many Adam chunks; stage 2 fits in one
    ds = small_dataset(classes=3, per_class=40)
    cfg = quick_config(epochs_stage1=3, epochs_stage2=4, batch_size=32)
    blobs = []
    for optimizer in (None, ReferenceAdam):
        if optimizer is not None:
            monkeypatch.setattr("rdosr.models.Adam", optimizer)
        model, logs, _ = train_pipeline(ds, {3}, cfg, 0.5)
        assert len(logs["stage2"]) == 4
        path = tmp_path / f"model{len(blobs)}.rdck"
        save_checkpoint(path, model)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# the checkpoint's array names, as the container wrote them before layers
# named their own parameters
_F_ARRAYS = [
    "norm.mean", "norm.std",
    "f.0.w", "f.0.b", "f.1.w", "f.1.b", "f.2.w", "f.2.b", "f.3.w", "f.3.b", "f.4.w", "f.4.b",
]
_STICK_ARRAYS = _F_ARRAYS + [
    "e.trunk.0.w", "e.trunk.0.b", "e.trunk.1.w", "e.trunk.1.b",
    "e.trunk.2.w", "e.trunk.2.b", "e.trunk.3.w", "e.trunk.3.b",
    "e.head.u.w", "e.head.u.b", "e.head.beta.w", "e.head.beta.b",
    "d.0.w", "d.0.b", "d.1.w", "d.1.b", "c.0.w", "c.0.b",
]
_PLAIN_ARRAYS = _F_ARRAYS + [
    "e.trunk.0.w", "e.trunk.0.b", "e.trunk.1.w", "e.trunk.1.b",
    "e.trunk.2.w", "e.trunk.2.b", "e.trunk.3.w", "e.trunk.3.b",
    "e.head.0.w", "e.head.0.b",
    "d.0.w", "d.0.b", "d.1.w", "d.1.b", "c.0.w", "c.0.b",
]
_ARRAYS = {"rdosr": _STICK_ARRAYS, "ae_cls_dirichlet": _STICK_ARRAYS,
           "ae_cls": _PLAIN_ARRAYS, "softmax": _F_ARRAYS}


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_array_names_are_pinned(tmp_path, mode, space):
    import json

    from rdosr.models import _CKPT_HEADER

    cfg = quick_config(mode=mode, space=space, epochs_stage1=0, epochs_stage2=0)
    model, _, _ = train_pipeline(small_dataset(), {4}, cfg, 0.5)
    path = tmp_path / "model.rdck"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    _, _, blob_len = _CKPT_HEADER.unpack_from(raw)
    header = json.loads(raw[_CKPT_HEADER.size : _CKPT_HEADER.size + blob_len])
    assert [name for name, _, _ in header["arrays"]] == _ARRAYS[mode]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("mode", MODES)
def test_shared_training_loop_matches_reference_loops(tmp_path, monkeypatch, mode, space):
    # noisy spectra, a slow rate and a batch size that does not divide the
    # 90 training rows: stage 1 logs accuracies below 1 from uneven batches
    ds = synth_generate(l_total=4, bands=16, per_class=60, seed=0, noise_sigma=0.5)
    cfg = quick_config(mode=mode, space=space, epochs_stage1=3, epochs_stage2=4,
                       batch_size=37, lr=1e-5, stage1_target_accuracy=1.0)
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr("rdosr.models.train_stage1", reference_train_stage1)
            monkeypatch.setattr("rdosr.models.train_stage2", reference_train_stage2)
        model, logs, _ = train_pipeline(ds, {4}, cfg, 0.5)
        path = tmp_path / f"model{len(runs)}.rdck"
        save_checkpoint(path, model)
        values = [[r.epoch, *bits([getattr(r, k) for k in vars(r) if k != "epoch"])]
                  for stage in ("stage1", "stage2") for r in logs[stage]]
        runs.append((path.read_bytes(), values))
    assert any(r.accuracy < 1.0 for r in logs["stage1"])
    assert len(runs[0][1]) == 3 + (0 if mode == "softmax" else 4)
    assert runs[0] == runs[1]


def test_checkpoint_format_errors(tmp_path):
    from rdosr.data import BadMagicError, BadVersionError, TruncatedError

    ds = small_dataset()
    model, _, _ = train_pipeline(ds, {3}, quick_config(epochs_stage1=1, epochs_stage2=1), 0.5)
    path = tmp_path / "model.rdck"
    save_checkpoint(path, model)
    raw = path.read_bytes()

    bad = tmp_path / "bad.rdck"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        load_checkpoint(bad)
    bad.write_bytes(raw[:4] + b"\x63" + raw[5:])
    with pytest.raises(BadVersionError):
        load_checkpoint(bad)
    bad.write_bytes(raw[:-9])
    with pytest.raises(TruncatedError):
        load_checkpoint(bad)
