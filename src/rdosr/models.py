"""Model wiring, the two stage objectives, training loops, open-set scoring,
and the checkpoint container.

Stage 1 trains the embedding classifier on raw normalized spectra until its
train accuracy reaches the configured target. Stage 2 freezes it, feeds the
scaled logits (or, in image space, the normalized pixels themselves) into the
encoder-decoder-classifier trio, and trains the three jointly. The open-set
score of a pixel is the Euclidean reconstruction error of its embedding.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    FormatError,
    BadMagicError,
    BadVersionError,
    TruncatedError,
    HsiDataset,
    Normalizer,
    SplitResult,
    SplitSpec,
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
    as_matrix,
    l1_mean,
    l2_recon_mean,
    softmax,
    softmax_xent,
)
from .dirichletnet import StickHead, entropy_sparsity

__all__ = [
    "MODES",
    "SPACES",
    "F_HIDDEN",
    "E_HIDDEN",
    "REPR_WIDTH",
    "TrainConfig",
    "Stage1Record",
    "Stage2Record",
    "EncoderE",
    "build_classifier_f",
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
    """All tunables of a training run; defaults are the published settings."""

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


def build_classifier_f(
    band_count: int,
    class_count: int,
    rng: np.random.Generator,
    hidden=F_HIDDEN,
) -> Stack:
    """Embedding classifier: relu stack ending in linear logits of width L."""
    layers = []
    width = band_count
    for h in hidden:
        layers.append(AffineLayer.create(width, h, rng, bias=RELU_BIAS))
        layers.append(ActivationLayer("relu"))
        width = h
    layers.append(AffineLayer.create(width, class_count, rng))
    return Stack(layers)


class EncoderE:
    """Small relu trunk feeding either a stick-breaking head (Dirichlet
    modes) or a plain affine+relu representation layer of the same width."""

    def __init__(self, trunk: Stack, head, dirichlet: bool) -> None:
        self.trunk = trunk
        self.head = head
        self.dirichlet = dirichlet

    @classmethod
    def create(
        cls,
        in_width: int,
        rng: np.random.Generator,
        dirichlet: bool,
        hidden=E_HIDDEN,
        repr_width: int = REPR_WIDTH,
    ) -> "EncoderE":
        layers = []
        width = in_width
        for h in hidden:
            layers.append(AffineLayer.create(width, h, rng, bias=RELU_BIAS))
            layers.append(ActivationLayer("relu"))
            width = h
        trunk = Stack(layers)
        if dirichlet:
            head = StickHead.create(width, repr_width, rng)
        else:
            head = Stack(
                [
                    AffineLayer.create(width, repr_width, rng, bias=RELU_BIAS),
                    ActivationLayer("relu"),
                ]
            )
        return cls(trunk, head, dirichlet)

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self.head.forward(self.trunk.forward(z))

    def backward(self, d_s: np.ndarray) -> np.ndarray:
        return self.trunk.backward(self.head.backward(d_s))

    def params(self) -> list[ParamBlock]:
        return self.trunk.params() + self.head.params()


def build_decoder_d(out_width: int, rng: np.random.Generator) -> Stack:
    """Decoder: relu layer then a linear map whose weights are the shared
    bases the representations mix."""
    return Stack(
        [
            AffineLayer.create(REPR_WIDTH, D_HIDDEN, rng, bias=RELU_BIAS),
            ActivationLayer("relu"),
            AffineLayer.create(D_HIDDEN, out_width, rng),
        ]
    )


def build_classifier_c(class_count: int, rng: np.random.Generator) -> Stack:
    """Single affine map from the representation to known-class logits."""
    return Stack([AffineLayer.create(REPR_WIDTH, class_count, rng)])


def one_hot(labels_dense: np.ndarray, class_count: int) -> np.ndarray:
    labels = np.asarray(labels_dense, dtype=np.int64)
    if labels.size and (labels.min() < 1 or labels.max() > class_count):
        raise DomainError(f"dense labels must lie in 1..{class_count}")
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


# ---------------------------------------------------------------------------
# objectives


def stage1_loss(f: Stack, x, y_onehot, lambda_f: float, lambda_z: float, backward: bool = False):
    """Closed-set objective: lambda_f * cross-entropy + lambda_z * mean L1 of
    the embedding logits. Returns (loss, logits); with backward=True the
    parameter gradients are accumulated."""
    logits = f.forward(as_matrix(x, "x"))
    xent, d_xent = softmax_xent(logits, y_onehot)
    l1, d_l1 = l1_mean(logits)
    loss = lambda_f * xent + lambda_z * l1
    if backward:
        f.backward(lambda_f * d_xent + lambda_z * d_l1)
    return loss, logits


def stage2_loss(
    e: EncoderE,
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
    z = as_matrix(z, "z")
    s = e.forward(z)
    zhat = d.forward(s)
    recon, _, d_zhat = l2_recon_mean(z, zhat)
    ent, d_s_ent = entropy_sparsity(s)
    logits = c.forward(s)
    xent, d_logits = softmax_xent(logits, y_onehot)
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


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


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
    n = pixels.shape[0]
    if n == 0:
        raise DomainError("stage 1: empty training set")
    class_count = f.layers[-1].w.shape[1]
    y = one_hot(labels_dense, class_count)
    lam_z = effective_lambda_z(config)
    opt = Adam(f.params(), lr=config.lr)
    log: list[Stage1Record] = []
    for epoch in range(config.epochs_stage1):
        loss_sum = 0.0
        correct = 0
        for idx in _epoch_batches(n, config.batch_size, rng):
            opt.zero_grad()
            loss, logits = stage1_loss(f, pixels[idx], y[idx], config.lambda_f, lam_z, backward=True)
            if not np.isfinite(loss):
                raise NumericError(f"stage 1 loss became non-finite at epoch {epoch}")
            loss_sum += loss * idx.size
            correct += int((np.argmax(logits, axis=1) + 1 == labels_dense[idx]).sum())
            opt.step()
        acc = correct / n
        log.append(Stage1Record(epoch=epoch, loss=loss_sum / n, accuracy=acc))
        if acc >= config.stage1_target_accuracy:
            break
    return log


def train_stage2(
    e: EncoderE,
    d: Stack,
    c: Stack,
    z: np.ndarray,
    labels_dense: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[Stage2Record]:
    """Joint Adam training of encoder, decoder, and classifier on frozen
    embeddings, with the entropy weight decayed once per epoch."""
    n = z.shape[0]
    if n == 0:
        raise DomainError("stage 2: empty training set")
    class_count = c.layers[-1].w.shape[1]
    y = one_hot(labels_dense, class_count)
    opt = Adam(e.params() + d.params() + c.params(), lr=config.lr)
    log: list[Stage2Record] = []
    for epoch in range(config.epochs_stage2):
        lam_s = sparsity_weight(config, epoch) if e.dirichlet else 0.0
        sums = np.zeros(4)
        for idx in _epoch_batches(n, config.batch_size, rng):
            opt.zero_grad()
            loss, parts = stage2_loss(
                e, d, c, z[idx], y[idx], config.lambda_r, lam_s, config.lambda_c, backward=True
            )
            if not np.isfinite(loss):
                raise NumericError(f"stage 2 loss became non-finite at epoch {epoch}")
            sums += idx.size * np.array([loss, *parts])
            opt.step()
        log.append(Stage2Record(epoch, *(sums / n)))
    return log


def embed(f: Stack, x: np.ndarray, scale: float) -> np.ndarray:
    """Frozen embedding of normalized pixels: classifier logits / scale."""
    if scale <= 0.0:
        raise DomainError("embedding scale must be > 0")
    return f.forward(as_matrix(x, "x")) / scale


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
    e: EncoderE | None
    d: Stack | None
    c: Stack | None

    @property
    def n_known(self) -> int:
        return len(self.known_class_ids)

    def _encoder_input(self, normalized: np.ndarray) -> np.ndarray:
        if self.config.space == "image":
            return normalized
        return embed(self.f, normalized, self.config.embedding_scale)

    def open_score(self, pixels: np.ndarray) -> np.ndarray:
        """Unknownness score per pixel; higher means more likely unknown.

        Reconstruction-error modes return ||z - D(E(z))||_2 per row; the
        softmax baseline returns 1 - max class probability.
        """
        xn = self.normalizer.apply(as_matrix(pixels, "pixels"))
        if self.config.mode == "softmax":
            return 1.0 - softmax(self.f.forward(xn)).max(axis=1)
        if self.e is None or self.d is None:
            raise DomainError("model has no trained reconstruction branch")
        z = self._encoder_input(xn)
        zhat = self.d.forward(self.e.forward(z))
        diff = z - zhat
        return np.sqrt((diff * diff).sum(axis=1))

    def closed_predict(self, pixels: np.ndarray) -> np.ndarray:
        """Dense known-class labels 1..L (ties break to the lowest index)."""
        xn = self.normalizer.apply(as_matrix(pixels, "pixels"))
        return np.argmax(self.f.forward(xn), axis=1) + 1

    def named_params(self) -> list[tuple[str, ParamBlock]]:
        out = _stack_named("f", self.f)
        if self.e is not None:
            out += _stack_named("e.trunk", self.e.trunk)
            if self.e.dirichlet:
                head = self.e.head
                out += [
                    ("e.head.u.w", head.u_w),
                    ("e.head.u.b", head.u_b),
                    ("e.head.beta.w", head.beta_w),
                    ("e.head.beta.b", head.beta_b),
                ]
            else:
                out += _stack_named("e.head", self.e.head)
        if self.d is not None:
            out += _stack_named("d", self.d)
        if self.c is not None:
            out += _stack_named("c", self.c)
        return out


def _stack_named(prefix: str, stack: Stack) -> list[tuple[str, ParamBlock]]:
    out = []
    i = 0
    for layer in stack.layers:
        if isinstance(layer, AffineLayer):
            out.append((f"{prefix}.{i}.w", layer.w))
            out.append((f"{prefix}.{i}.b", layer.b))
            i += 1
    return out


def _build_networks(config: TrainConfig, band_count: int, n_known: int, rng: np.random.Generator):
    f = build_classifier_f(band_count, n_known, rng)
    if config.mode == "softmax":
        return f, None, None, None
    e_width = band_count if config.space == "image" else n_known
    e = EncoderE.create(e_width, rng, dirichlet=config.mode in ("rdosr", "ae_cls_dirichlet"))
    d = build_decoder_d(e_width, rng)
    c = build_classifier_c(n_known, rng)
    return f, e, d, c


def train_pipeline(
    dataset: HsiDataset,
    unknown_classes,
    config: TrainConfig,
    train_fraction: float = 0.5,
):
    """Full protocol on one known/unknown partition.

    Splits, fits normalization on the known training pixels only, trains
    stage 1, freezes it, embeds, trains stage 2. Returns (model, logs, parts)
    where logs is {"stage1": [...], "stage2": [...]}.
    """
    parts = split(dataset, SplitSpec(frozenset(unknown_classes), train_fraction, config.seed))
    normalizer = Normalizer.fit(parts.train_known.pixels)
    x_train = normalizer.apply(parts.train_known.pixels)
    labels = parts.train_known.labels
    rng = np.random.default_rng(config.seed)
    f, e, d, c = _build_networks(config, dataset.band_count, len(parts.known_class_ids), rng)
    log1 = train_stage1(f, x_train, labels, config, rng)
    log2: list[Stage2Record] = []
    if config.mode != "softmax":
        z = x_train if config.space == "image" else embed(f, x_train, config.embedding_scale)
        log2 = train_stage2(e, d, c, z, labels, config, rng)
    model = RdosrModel(
        config=config,
        band_count=dataset.band_count,
        known_class_ids=parts.known_class_ids,
        unknown_class_ids=tuple(sorted(int(u) for u in unknown_classes)),
        train_fraction=train_fraction,
        normalizer=normalizer,
        f=f,
        e=e,
        d=d,
        c=c,
    )
    return model, {"stage1": log1, "stage2": log2}, parts


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"RDCK"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sII")


def save_checkpoint(path, model: RdosrModel) -> None:
    """Write the model as a versioned binary container (bit-exact round trip)."""
    named = model.named_params()
    arrays = [("norm.mean", model.normalizer.mean.reshape(1, -1)),
              ("norm.std", model.normalizer.std.reshape(1, -1))]
    arrays += [(name, p.value) for name, p in named]
    header = {
        "config": asdict(model.config),
        "band_count": model.band_count,
        "known_class_ids": list(model.known_class_ids),
        "unknown_class_ids": list(model.unknown_class_ids),
        "train_fraction": model.train_fraction,
        "arrays": [[name, int(a.shape[0]), int(a.shape[1])] for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
    buf.write(blob)
    for _, a in arrays:
        buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


_HEADER_KEYS = {"config", "band_count", "known_class_ids", "unknown_class_ids",
                "train_fraction", "arrays"}
# JSON types a config field accepts: its default's type; a float field also
# takes an integer, which JSON writes without a point
_CONFIG_TYPES = {
    f.name: (int, float) if type(f.default) is float else (type(f.default),)
    for f in fields(TrainConfig)
}


def _is(x, *kinds: type) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, kinds) and not isinstance(x, bool)


def _check_header(path, header) -> None:
    """Raise FormatError unless the header has the keys, types and
    non-negative dimensions that save_checkpoint writes."""
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise FormatError(f"{path}: checkpoint header keys must be {sorted(_HEADER_KEYS)}")
    config = header["config"]
    if not isinstance(config, dict) or set(config) != set(_CONFIG_TYPES):
        raise FormatError(f"{path}: checkpoint config keys must be {sorted(_CONFIG_TYPES)}")
    for key, kinds in _CONFIG_TYPES.items():
        if not _is(config[key], *kinds):
            raise FormatError(f"{path}: config {key} must be of type {kinds[-1].__name__}")
    if not _is(header["band_count"], int) or header["band_count"] < 1:
        raise FormatError(f"{path}: band_count must be a positive integer")
    for key in ("known_class_ids", "unknown_class_ids"):
        if not isinstance(header[key], list) or not all(_is(c, int) for c in header[key]):
            raise FormatError(f"{path}: {key} must be a list of integers")
    if not _is(header["train_fraction"], int, float):
        raise FormatError(f"{path}: train_fraction must be a number")
    arrays = header["arrays"]
    if not isinstance(arrays, list) or not all(
        isinstance(a, list) and len(a) == 3 and isinstance(a[0], str)
        and _is(a[1], int) and _is(a[2], int) and a[1] >= 0 and a[2] >= 0
        for a in arrays
    ):
        raise FormatError(f"{path}: arrays must be [name, rows, cols] with rows, cols >= 0")


def load_checkpoint(path) -> RdosrModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CKPT_HEADER.size:
        raise TruncatedError(f"{path}: file shorter than its header")
    magic, version, blob_len = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise BadVersionError(f"{path}: unsupported checkpoint version {version}")
    offset = _CKPT_HEADER.size
    try:
        header = json.loads(raw[offset : offset + blob_len].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    offset += blob_len
    _check_header(path, header)

    config = TrainConfig(**header["config"])
    values: dict[str, np.ndarray] = {}
    for name, rows, cols in header["arrays"]:
        nbytes = 8 * rows * cols
        if offset + nbytes > len(raw):
            raise TruncatedError(f"{path}: array {name} extends past end of file")
        values[name] = (
            np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
            .reshape(rows, cols)
            .astype(np.float64)
        )
        offset += nbytes
    if offset != len(raw):
        raise TruncatedError(f"{path}: {len(raw) - offset} trailing bytes")
    if len(values) != len(header["arrays"]) or not {"norm.mean", "norm.std"} <= values.keys():
        raise FormatError(f"{path}: repeated array names or missing normalizer arrays")

    known = tuple(int(c) for c in header["known_class_ids"])
    rng = np.random.default_rng(0)  # placeholder init, every block is overwritten
    f, e, d, c = _build_networks(config, int(header["band_count"]), len(known), rng)
    model = RdosrModel(
        config=config,
        band_count=int(header["band_count"]),
        known_class_ids=known,
        unknown_class_ids=tuple(int(u) for u in header["unknown_class_ids"]),
        train_fraction=float(header["train_fraction"]),
        normalizer=Normalizer(
            mean=values["norm.mean"].ravel(), std=values["norm.std"].ravel()
        ),
        f=f,
        e=e,
        d=d,
        c=c,
    )
    named = dict(model.named_params())
    stored = {name for name, _, _ in header["arrays"]} - {"norm.mean", "norm.std"}
    if stored != set(named):
        raise FormatError(f"{path}: parameter names do not match the architecture")
    for name, block in named.items():
        if values[name].shape != block.shape:
            raise FormatError(
                f"{path}: array {name} has shape {values[name].shape}, expected {block.shape}"
            )
        block.value[...] = values[name]
    return model
