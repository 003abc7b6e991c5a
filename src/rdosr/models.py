"""Model wiring, the two stage objectives, training loops, open-set scoring,
and the checkpoint container.

Stage 1 trains the embedding classifier on raw normalized spectra until its
train accuracy reaches the configured target. Stage 2 freezes it, feeds the
scaled logits (or, in image space, the normalized pixels themselves) into the
encoder-decoder-classifier trio, and trains the three jointly. The open-set
score of a pixel is the Euclidean reconstruction error of its embedding.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import (
    FormatError,
    TruncatedError,
    HsiDataset,
    Normalizer,
    SplitSpec,
    _read_container,
    _write_container,
    split,
)
from .diffcore import (
    ActivationLayer,
    Adam,
    AffineLayer,
    DomainError,
    NumericError,
    ParamBlock,
    ShapeError,
    Stack,
    _check_onehot,
    _l1_mean,
    _l2_recon_mean,
    _softmax_xent,
    as_matrix,
    bind,
    require_finite,
    softmax,
)
from .dirichletnet import StickHead, _entropy_sparsity

__all__ = [
    "MODES",
    "SPACES",
    "F_HIDDEN",
    "E_HIDDEN",
    "REPR_WIDTH",
    "TrainConfig",
    "Stage1Record",
    "Stage2Record",
    "build_classifier_f",
    "build_encoder_e",
    "build_decoder_d",
    "build_classifier_c",
    "one_hot",
    "sparsity_weight",
    "effective_lambda_z",
    "stage1_loss",
    "stage2_loss",
    "train_stage1",
    "train_stage2",
    "embed",
    "SCORE_BLOCK",
    "RdosrModel",
    "train_pipeline",
    "save_checkpoint",
    "load_checkpoint",
]

MODES = ("rdosr", "ae_cls", "ae_cls_dirichlet", "softmax")
SPACES = ("image", "embedding")

# bias init for relu-preceding layers; zero-bias narrow trunks can die at
# initialization (every unit negative for every input leaves no gradient)
RELU_BIAS = 0.1

# node counts of the four networks
F_HIDDEN = (512, 1024, 512, 32)
E_HIDDEN = (3, 3, 3, 3)
REPR_WIDTH = 10
D_HIDDEN = 10


@dataclass
class TrainConfig:
    """All tunables of a training run; defaults are the published settings.

    Each field takes the type of its default (a float field also an int),
    and every float field is finite; DomainError otherwise."""

    lambda_f: float = 1.0
    lambda_z: float = 0.1
    lambda_r: float = 0.5
    lambda_s: float = 1e-3
    lambda_c: float = 0.5
    lambda_s_decay: float = 0.9977  # applied per epoch
    lr: float = 1e-3
    epochs_stage1: int = 7500
    epochs_stage2: int = 7500
    stage1_target_accuracy: float = 0.9988
    batch_size: int = 256
    seed: int = 0
    embedding_scale: float = 10.0
    mode: str = "rdosr"
    space: str = "embedding"

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            # a bool is an int to Python; a float field also takes an int
            kinds = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DomainError(f"{f.name} must be of type {kind.__name__}")
            if kind is float and not abs(value) <= sys.float_info.max:
                raise DomainError(f"{f.name} must be finite")
        for name in ("lambda_f", "lambda_z", "lambda_r", "lambda_s", "lambda_c"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0")
        if not (0.0 < self.lambda_s_decay <= 1.0):
            raise DomainError("lambda_s_decay must lie in (0, 1]")
        if self.lr <= 0.0:
            raise DomainError("lr must be > 0")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise DomainError("epoch counts must be >= 0")
        if not (0.0 < self.stage1_target_accuracy <= 1.0):
            raise DomainError("stage1_target_accuracy must lie in (0, 1]")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.embedding_scale <= 0.0:
            raise DomainError("embedding_scale must be > 0")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.space not in SPACES:
            raise DomainError(f"space must be one of {SPACES}, got {self.space!r}")


def sparsity_weight(config: TrainConfig, epoch: int) -> float:
    """Decayed entropy weight for the given (0-based) stage-2 epoch."""
    return config.lambda_s * config.lambda_s_decay**epoch


def effective_lambda_z(config: TrainConfig) -> float:
    # the embedding sparsity constraint is the full method's addition; the
    # baseline modes train the classifier without it
    return config.lambda_z if config.mode == "rdosr" else 0.0


@dataclass
class Stage1Record:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class Stage2Record:
    epoch: int
    loss: float
    recon: float
    entropy: float
    xent: float


# ---------------------------------------------------------------------------
# network builders


def _relu_stack(width: int, hidden, out_width=None) -> Stack:
    """Affine+relu layers of the given widths, then a linear map to
    `out_width` if one is given; every weight is unset."""
    layers = []
    for h in hidden:
        layers += [AffineLayer(width, h, bias=RELU_BIAS), ActivationLayer()]
        width = h
    if out_width is not None:
        layers.append(AffineLayer(width, out_width))
    return Stack(layers)


def build_classifier_f(band_count: int, class_count: int, hidden=F_HIDDEN) -> Stack:
    """Embedding classifier: relu stack ending in linear logits of width L."""
    return _relu_stack(band_count, hidden, class_count)


def build_encoder_e(in_width: int, dirichlet: bool) -> Stack:
    """Encoder `Stack([trunk, head])`: a small relu trunk feeding either a
    stick-breaking head (Dirichlet modes) or a plain affine+relu
    representation layer of the same width."""
    trunk = _relu_stack(in_width, E_HIDDEN)
    head = StickHead(E_HIDDEN[-1], REPR_WIDTH) if dirichlet else _relu_stack(E_HIDDEN[-1], (REPR_WIDTH,))
    return Stack([trunk, head])


def build_decoder_d(out_width: int) -> Stack:
    """Decoder: relu layer then a linear map whose weights are the shared
    bases the representations mix."""
    return _relu_stack(REPR_WIDTH, (D_HIDDEN,), out_width)


def build_classifier_c(class_count: int) -> Stack:
    """Single affine map from the representation to known-class logits."""
    return _relu_stack(REPR_WIDTH, (), class_count)


def one_hot(labels_dense: np.ndarray, class_count: int) -> np.ndarray:
    raw = np.asarray(labels_dense)
    with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary integer
        labels = raw.astype(np.int64)
    if not np.array_equal(labels, raw):
        raise DomainError("dense labels must be whole numbers")
    if labels.size and (labels.min() < 1 or labels.max() > class_count):
        raise DomainError(f"dense labels must lie in 1..{class_count}")
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


# ---------------------------------------------------------------------------
# input validation: the public entry points check what they are given, and
# the layers and training steps behind them run on the checked arrays


def _as_input(x, nets: tuple, name: str) -> np.ndarray:
    """`x` as a matrix as wide as the first network's input; every network must be bound."""
    if any(not p.value.flags.writeable for net in nets for p in net.params()):
        raise ShapeError("network has unset weights: bind(net.params(), rng) draws them")
    x = as_matrix(x, name)
    # every network here lists its input-facing weight matrix first
    width = nets[0].params()[0].shape[0]
    if x.shape[1] != width:
        raise ShapeError(f"{name} has {x.shape[1]} columns, the network takes {width}")
    return x


def _batch(nets: tuple, x, y_onehot) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty batch of the first network's inputs and the last one's one-hot labels."""
    x = _as_input(x, nets, "x")
    y = as_matrix(y_onehot, "onehot")
    expected = (x.shape[0], nets[-1].layers[-1].w.shape[1])
    if x.shape[0] == 0 or y.shape != expected:
        raise ShapeError(f"one-hot labels have shape {y.shape}, expected non-empty {expected}")
    _check_onehot(y)
    return x, y


def _training_set(nets: tuple, x, labels_dense, stage: str):
    """Checked once per run: returns (x, labels, onehot). The one-hot is
    valid by construction, so the steps need not check it again."""
    x = _as_input(x, nets, f"{stage} inputs")
    if x.shape[0] == 0:
        raise DomainError(f"{stage}: empty training set")
    labels = np.asarray(labels_dense)
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{stage}: labels have shape {labels.shape}, expected ({x.shape[0]},)")
    return x, labels, one_hot(labels, nets[-1].layers[-1].w.shape[1])


# ---------------------------------------------------------------------------
# objectives


def stage1_loss(f: Stack, x, y_onehot, lambda_f: float, lambda_z: float, backward: bool = False):
    """Closed-set objective: lambda_f * cross-entropy + lambda_z * mean L1 of
    the embedding logits. Returns (loss, logits); with backward=True each
    parameter's gradient is written and F drops its backward caches."""
    x, y = _batch((f,), x, y_onehot)
    return _stage1_loss(f, x, y, lambda_f, lambda_z, backward)


def _stage1_loss(f: Stack, x, y, lambda_f: float, lambda_z: float, backward: bool):
    logits = f.forward(x)
    xent, d_xent = _softmax_xent(logits, y)
    l1, d_l1 = _l1_mean(logits)
    loss = lambda_f * xent + lambda_z * l1
    if backward:
        f.backward(lambda_f * d_xent + lambda_z * d_l1)
    return loss, logits


def stage2_loss(
    e: Stack,
    d: Stack,
    c: Stack,
    z,
    y_onehot,
    lambda_r: float,
    lambda_s_eff: float,
    lambda_c: float,
    backward: bool = False,
):
    """Joint objective on frozen embeddings: reconstruction + decayed entropy
    sparsity + classification through the representation.

    Returns (loss, (recon, entropy, xent)). Gradients flow to the encoder,
    decoder, and classifier parameters only; z is treated as a constant.
    """
    z, y = _batch((e, d, c), z, y_onehot)
    return _stage2_loss(e, d, c, z, y, lambda_r, lambda_s_eff, lambda_c, backward)


def _stage2_loss(e, d, c, z, y, lambda_r, lambda_s_eff, lambda_c, backward):
    s = e.forward(z)
    zhat = d.forward(s)
    recon, _, d_zhat = _l2_recon_mean(z, zhat)
    ent, d_s_ent = _entropy_sparsity(s)
    logits = c.forward(s)
    xent, d_logits = _softmax_xent(logits, y)
    loss = lambda_r * recon + lambda_s_eff * ent + lambda_c * xent
    if backward:
        d_s = d.backward(lambda_r * d_zhat)
        d_s += c.backward(lambda_c * d_logits)
        if lambda_s_eff != 0.0:
            d_s += lambda_s_eff * d_s_ent
        e.backward(d_s)
    return loss, (recon, ent, xent)


# ---------------------------------------------------------------------------
# training loops


def _train_epochs(params, n: int, epochs: int, config: TrainConfig, rng, step, stage: str):
    """Adam over shuffled minibatches of n rows. `step(rows, epoch)` trains on
    a batch and returns (mean loss, row totals); yields (epoch, totals / n)."""
    opt = Adam(params, lr=config.lr)
    opt.zero_grad()  # a guard, like Adam.step's zeroing: backward writes every gradient
    for epoch in range(epochs):
        sums = 0.0
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = perm[start : start + config.batch_size]
            loss, totals = step(rows, epoch)
            if not np.isfinite(loss):
                raise NumericError(f"{stage} loss became non-finite at epoch {epoch}")
            sums = sums + totals
            opt.step()
        yield epoch, sums / n


def train_stage1(
    f: Stack,
    pixels: np.ndarray,
    labels_dense: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[Stage1Record]:
    """Minibatch Adam on the closed-set objective until the accuracy target or
    the epoch cap. Accuracy is aggregated from the training forward passes.
    Returns the per-epoch log; the classifier is trained in place."""
    pixels, labels, y = _training_set((f,), pixels, labels_dense, "stage 1")
    lam_z = effective_lambda_z(config)

    def step(rows, epoch):
        loss, logits = _stage1_loss(f, pixels[rows], y[rows], config.lambda_f, lam_z, True)
        hits = (np.argmax(logits, axis=1) + 1 == labels[rows]).sum()
        # a hit count, not a batch accuracy: size * (hits / size) can miss hits by an ulp
        return loss, np.array([rows.size * loss, hits])

    log: list[Stage1Record] = []
    epochs = _train_epochs(f.params(), len(y), config.epochs_stage1, config, rng, step, "stage 1")
    for epoch, (loss, acc) in epochs:
        log.append(Stage1Record(epoch, float(loss), float(acc)))
        if acc >= config.stage1_target_accuracy:
            break
    return log


def train_stage2(
    e: Stack,
    d: Stack,
    c: Stack,
    z: np.ndarray,
    labels_dense: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[Stage2Record]:
    """Joint Adam training of encoder, decoder, and classifier on frozen
    embeddings, with the entropy weight decayed once per epoch. E, D and C
    must tile one buffer in that order, as a model's do: built networks are
    drawn into one by `bind(e.params() + d.params() + c.params(), rng)`."""
    z, _, y = _training_set((e, d, c), z, labels_dense, "stage 2")
    dirichlet = isinstance(e.layers[-1], StickHead)

    def step(rows, epoch):
        lam_s = sparsity_weight(config, epoch) if dirichlet else 0.0
        loss, parts = _stage2_loss(
            e, d, c, z[rows], y[rows], config.lambda_r, lam_s, config.lambda_c, True
        )
        return loss, rows.size * np.array([loss, *parts])

    params = e.params() + d.params() + c.params()
    epochs = _train_epochs(params, len(y), config.epochs_stage2, config, rng, step, "stage 2")
    return [Stage2Record(epoch, *map(float, means)) for epoch, means in epochs]


# ---------------------------------------------------------------------------
# forward-only passes in fixed row blocks: peak memory is one block's
# activations, whatever the number of rows

SCORE_BLOCK = 1024


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most SCORE_BLOCK rows covering 0..n in
    order. A 1-row remainder joins the block before it: BLAS runs a 1-row
    product as a matrix-vector product, whose bits differ from a block's."""
    starts = list(range(0, n, SCORE_BLOCK))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _by_blocks(x: np.ndarray, block, *outs: np.ndarray) -> tuple:
    """Run `block` over the row blocks of `x`; its i-th result fills the
    same rows of the i-th preallocated output. Returns the outputs."""
    for rows in _row_blocks(x.shape[0]):
        for out, part in zip(outs, block(x[rows])):
            out[rows] = part
    return outs


def embed(f: Stack, x: np.ndarray, scale: float) -> np.ndarray:
    """Frozen embedding of normalized pixels: classifier logits / scale.
    Forward only, in row blocks: F keeps no backward cache."""
    if scale <= 0.0:
        raise DomainError("embedding scale must be > 0")
    x = _as_input(x, (f,), "x")

    def block(xb):
        z = f.forward(xb, keep=False)
        z /= scale
        return (z,)

    (out,) = _by_blocks(x, block, np.empty((x.shape[0], f.layers[-1].w.shape[1])))
    return out


# ---------------------------------------------------------------------------
# the assembled model


@dataclass
class RdosrModel:
    """Everything a trained run needs at inference time."""

    config: TrainConfig
    band_count: int
    known_class_ids: tuple
    unknown_class_ids: tuple
    train_fraction: float
    normalizer: Normalizer
    f: Stack
    e: Stack | None
    d: Stack | None
    c: Stack | None

    @property
    def n_known(self) -> int:
        return len(self.known_class_ids)

    def open_score(self, pixels: np.ndarray, with_labels: bool = False):
        """Unknownness score per pixel; higher means more likely unknown.

        Reconstruction-error modes return ||z - D(E(z))||_2 per row; the
        softmax baseline returns 1 - max class probability. With
        with_labels=True returns (scores, labels): the dense known-class
        labels 1..L of F's largest logit (ties break to the lowest index). F
        runs at most once either way. Scoring is forward only, in row blocks:
        no layer keeps a backward cache.
        """
        x = as_matrix(pixels, "pixels")
        self.normalizer.apply(x[:0])  # checks the band count; blocks are normalized as scored
        if self.config.mode != "softmax" and (self.e is None or self.d is None):
            raise DomainError("model has no trained reconstruction branch")
        n = x.shape[0]
        outs = (np.empty(n), np.empty(n, dtype=np.int64)) if with_labels else (np.empty(n),)
        outs = _by_blocks(x, lambda xb: self._score_block(xb, with_labels), *outs)
        return outs if with_labels else outs[0]

    def _score_block(self, xb: np.ndarray, with_labels: bool) -> tuple:
        xn = self.normalizer.apply(xb)
        cfg = self.config
        logits = None
        if cfg.mode == "softmax" or cfg.space == "embedding" or with_labels:
            logits = self.f.forward(xn, keep=False)
        # labels first: the embedding below scales the logits in place
        labels = (np.argmax(logits, axis=1) + 1,) if with_labels else ()
        if cfg.mode == "softmax":
            return (1.0 - softmax(logits).max(axis=1), *labels)
        z = xn
        if cfg.space == "embedding":
            z = logits
            z /= cfg.embedding_scale  # the same bits as embed()
        diff = z - self.d.forward(self.e.forward(z, keep=False), keep=False)
        return (np.sqrt((diff * diff).sum(axis=1)), *labels)

    def named_params(self) -> list[tuple[str, ParamBlock]]:
        trunk, head = self.e.layers if self.e is not None else (None, None)
        nets = [("f", self.f), ("e.trunk", trunk), ("e.head", head), ("d", self.d), ("c", self.c)]
        return [pair for name, net in nets if net is not None for pair in net.named_params(name)]


def _build_model(config: TrainConfig, band_count: int, known: tuple, unknown: tuple,
                 train_fraction: float, normalizer: Normalizer, rng=None) -> RdosrModel:
    """The model with fresh networks, bound by one `bind` in `named_params()`
    order: one value and one gradient buffer for F, E, D and C together.
    Weights are drawn from `rng` in that order, or with no `rng` left for a checkpoint."""
    f = build_classifier_f(band_count, len(known))
    e = d = c = None
    if config.mode != "softmax":
        e_width = band_count if config.space == "image" else len(known)
        e = build_encoder_e(e_width, dirichlet=config.mode in ("rdosr", "ae_cls_dirichlet"))
        d = build_decoder_d(e_width)
        c = build_classifier_c(len(known))
    model = RdosrModel(config, band_count, known, unknown, train_fraction, normalizer, f, e, d, c)
    bind([p for _, p in model.named_params()], rng)
    return model


def train_pipeline(
    dataset: HsiDataset,
    unknown_classes,
    config: TrainConfig,
    train_fraction: float = 0.5,
):
    """Full protocol on one known/unknown partition.

    Checks the pixels are finite, splits, fits normalization on the known
    training pixels only, trains stage 1, freezes it, embeds, trains stage 2.
    Returns (model, logs, parts) where logs is {"stage1": [...], "stage2": [...]}.
    """
    require_finite(dataset.pixels, "dataset pixels")
    parts = split(dataset, SplitSpec(frozenset(unknown_classes), train_fraction, config.seed))
    normalizer = Normalizer.fit(parts.train_known.pixels)
    x_train = normalizer.apply(parts.train_known.pixels)
    labels = parts.train_known.labels
    rng = np.random.default_rng(config.seed)
    unknown = tuple(sorted(int(u) for u in unknown_classes))
    model = _build_model(config, dataset.band_count, parts.known_class_ids, unknown,
                         train_fraction, normalizer, rng)
    log1 = train_stage1(model.f, x_train, labels, config, rng)
    log2: list[Stage2Record] = []
    if config.mode != "softmax":
        z = x_train if config.space == "image" else embed(model.f, x_train, config.embedding_scale)
        log2 = train_stage2(model.e, model.d, model.c, z, labels, config, rng)
    return model, {"stage1": log1, "stage2": log2}, parts


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"RDCK"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sII")


def _checkpoint_arrays(model: RdosrModel) -> list[tuple[str, np.ndarray]]:
    """The arrays a checkpoint holds, in file order: the normalizer's mean
    and std as (1, B) views, then every parameter."""
    arrays = [("norm.mean", model.normalizer.mean.reshape(1, -1)),
              ("norm.std", model.normalizer.std.reshape(1, -1))]
    return arrays + [(name, p.value) for name, p in model.named_params()]


def save_checkpoint(path, model: RdosrModel) -> None:
    """Write the model as a versioned binary container (bit-exact round trip)."""
    arrays = _checkpoint_arrays(model)
    header = {
        "config": asdict(model.config),
        "band_count": model.band_count,
        "known_class_ids": list(model.known_class_ids),
        "unknown_class_ids": list(model.unknown_class_ids),
        "train_fraction": model.train_fraction,
        "arrays": [[name, *a.shape] for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    _write_container(path, _CKPT_HEADER, CHECKPOINT_MAGIC, (len(blob),), blob,
                     *(np.ascontiguousarray(a, dtype="<f8") for _, a in arrays),
                     version=CHECKPOINT_VERSION)


_HEADER_KEYS = {"config", "band_count", "known_class_ids", "unknown_class_ids",
                "train_fraction", "arrays"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def _is(x, *kinds: type) -> bool:
    # JSON true/false load as bool, a subclass of int; JSON also reads NaN
    # and Infinity, and a number for a float must be a finite float
    ok = isinstance(x, kinds) and not isinstance(x, bool)
    return ok and (float not in kinds or abs(x) <= sys.float_info.max)


def _check_header(path, header) -> None:
    """Raise FormatError unless the header has the keys and types that
    save_checkpoint writes; TrainConfig checks the config values, and
    load_checkpoint the array table."""
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise FormatError(f"{path}: checkpoint header keys must be {sorted(_HEADER_KEYS)}")
    config = header["config"]
    if not isinstance(config, dict) or set(config) != _CONFIG_KEYS:
        raise FormatError(f"{path}: checkpoint config keys must be {sorted(_CONFIG_KEYS)}")
    if not _is(header["band_count"], int) or header["band_count"] < 1:
        raise FormatError(f"{path}: band_count must be a positive integer")
    for key in ("known_class_ids", "unknown_class_ids"):
        if not isinstance(header[key], list) or not all(_is(c, int) for c in header[key]):
            raise FormatError(f"{path}: {key} must be a list of integers")
    if not _is(header["train_fraction"], int, float):
        raise FormatError(f"{path}: train_fraction must be a number")


def load_checkpoint(path) -> RdosrModel:
    raw, (blob_len,) = _read_container(path, _CKPT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    offset = _CKPT_HEADER.size
    try:
        header = json.loads(raw[offset : offset + blob_len].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    offset += blob_len
    _check_header(path, header)

    config = TrainConfig(**header["config"])
    bands, known = header["band_count"], tuple(header["known_class_ids"])
    # F's input and output weights outgrow every other array that scales with
    # the header's counts: a header claiming more than the file holds is
    # refused before the model is built
    if 8 * (bands * F_HIDDEN[0] + len(known) * F_HIDDEN[-1]) > len(raw) - offset:
        raise TruncatedError(f"{path}: payload too small for {bands} bands, {len(known)} classes")
    normalizer = Normalizer(mean=np.empty(bands), std=np.empty(bands))
    model = _build_model(config, bands, known, tuple(header["unknown_class_ids"]),
                         float(header["train_fraction"]), normalizer)
    arrays = _checkpoint_arrays(model)
    if header["arrays"] != [[name, *a.shape] for name, a in arrays]:
        raise FormatError(f"{path}: array table does not match the architecture")
    if offset + 8 * sum(a.size for _, a in arrays) != len(raw):
        raise TruncatedError(f"{path}: payload size does not match the array table")
    for name, a in arrays:
        a[...] = np.frombuffer(raw, "<f8", a.size, offset).reshape(a.shape)
        if not np.isfinite(a).all():
            raise FormatError(f"{path}: array {name} holds a non-finite value")
        offset += 8 * a.size
    if not (model.normalizer.std > 0.0).all():
        raise FormatError(f"{path}: norm.std must be positive")
    return model
