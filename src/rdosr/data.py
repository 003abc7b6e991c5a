"""Dataset containers, normalization, split bookkeeping, and the synthetic
linear-mixing generator.

On disk a scene is two little-endian files. Cube: magic ``HSID``, u32
version=1, u32 H, u32 W, u32 B, then H*W*B float32 values pixel-major (for
each pixel in raster order, its B band values). Labels: magic ``HSIL``, u32
version=1, u32 H, u32 W, then H*W int32 labels with 0 meaning unlabeled.
Synthetic datasets are written with H=1, W=N.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .diffcore import DomainError, ShapeError

__all__ = [
    "CUBE_MAGIC",
    "LABEL_MAGIC",
    "FORMAT_VERSION",
    "FormatError",
    "BadMagicError",
    "BadVersionError",
    "TruncatedError",
    "PairingError",
    "Cube",
    "LabelMap",
    "HsiDataset",
    "SplitSpec",
    "SplitResult",
    "Normalizer",
    "load_cube",
    "write_cube",
    "load_labels",
    "write_labels",
    "pair",
    "dataset_to_files",
    "split",
    "synth_generate",
]

CUBE_MAGIC = b"HSID"
LABEL_MAGIC = b"HSIL"
FORMAT_VERSION = 1

_CUBE_HEADER = struct.Struct("<4sIIII")
_LABEL_HEADER = struct.Struct("<4sIII")


class FormatError(ValueError):
    """A container file violates the on-disk format."""


class BadMagicError(FormatError):
    pass


class BadVersionError(FormatError):
    pass


class TruncatedError(FormatError):
    pass


class PairingError(FormatError):
    """Cube and label map disagree on scene dimensions."""


@dataclass(frozen=True)
class Cube:
    """Pixel spectra of one scene: values has shape (H*W, B)."""

    height: int
    width: int
    band_count: int
    values: np.ndarray


@dataclass(frozen=True)
class LabelMap:
    height: int
    width: int
    labels: np.ndarray  # (H*W,) int64, 0 = unlabeled


@dataclass(frozen=True)
class HsiDataset:
    """Labeled pixels only: spectra, integer labels 1..class_count. Checks
    shapes and labels; load_cube and train_pipeline check the pixels."""

    pixels: np.ndarray  # (N, B) float64
    labels: np.ndarray  # (N,) int64
    band_count: int
    class_count: int

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.shape[1] != self.band_count:
            raise ShapeError(
                f"pixels shape {self.pixels.shape} does not match band count {self.band_count}"
            )
        if self.labels.shape != (self.pixels.shape[0],):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match pixel count {self.pixels.shape[0]}"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() > self.class_count
        ):
            raise DomainError(
                f"labels must lie in 0..{self.class_count}, "
                f"got range {self.labels.min()}..{self.labels.max()}"
            )

    @property
    def pixel_count(self) -> int:
        return self.pixels.shape[0]

    def class_indices(self, cls: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cls)


# ---------------------------------------------------------------------------
# container io


def _read_container(path, header: struct.Struct, magic: bytes,
                    version: int = FORMAT_VERSION) -> tuple[bytes, tuple]:
    """A container file's bytes and the fields of its prefix after the
    magic and the version, both of which it checks."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size:
        raise TruncatedError(f"{path}: file shorter than its header")
    fields = header.unpack_from(raw)
    if fields[0] != magic:
        raise BadMagicError(f"{path}: bad magic {fields[0]!r}, expected {magic!r}")
    if fields[1] != version:
        raise BadVersionError(f"{path}: unsupported version {fields[1]}")
    return raw, fields[2:]


def _write_container(path, header: struct.Struct, magic: bytes, fields: tuple, *payload,
                     version: int = FORMAT_VERSION) -> None:
    """Write the prefix (magic, version, fields), then each payload buffer."""
    with open(path, "wb") as fh:
        fh.write(header.pack(magic, version, *fields))
        for part in payload:
            fh.write(part)


def load_cube(path) -> Cube:
    """Read a cube file; raises a distinct error per format violation."""
    raw, (h, w, b) = _read_container(path, _CUBE_HEADER, CUBE_MAGIC)
    if b == 0:
        raise FormatError(f"{path}: cube has no bands")
    expected = _CUBE_HEADER.size + 4 * h * w * b
    if len(raw) != expected:
        raise TruncatedError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=_CUBE_HEADER.size)
    values = values.astype(np.float64).reshape(h * w, b)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: cube contains non-finite values")
    return Cube(height=h, width=w, band_count=b, values=values)


def write_cube(path, cube: Cube) -> None:
    values = np.ascontiguousarray(cube.values, dtype="<f4")
    if values.shape != (cube.height * cube.width, cube.band_count):
        raise ShapeError(
            f"cube values shape {values.shape} does not match "
            f"{cube.height}x{cube.width}x{cube.band_count}"
        )
    _write_container(path, _CUBE_HEADER, CUBE_MAGIC,
                     (cube.height, cube.width, cube.band_count), values)


def load_labels(path) -> LabelMap:
    raw, (h, w) = _read_container(path, _LABEL_HEADER, LABEL_MAGIC)
    expected = _LABEL_HEADER.size + 4 * h * w
    if len(raw) != expected:
        raise TruncatedError(f"{path}: expected {expected} bytes, found {len(raw)}")
    labels = np.frombuffer(raw, dtype="<i4", offset=_LABEL_HEADER.size)
    return LabelMap(height=h, width=w, labels=labels.astype(np.int64))


def write_labels(path, labelmap: LabelMap) -> None:
    labels = np.ascontiguousarray(labelmap.labels, dtype="<i4")
    if labels.shape != (labelmap.height * labelmap.width,):
        raise ShapeError(
            f"label count {labels.shape} does not match "
            f"{labelmap.height}x{labelmap.width}"
        )
    _write_container(path, _LABEL_HEADER, LABEL_MAGIC, (labelmap.height, labelmap.width), labels)


def pair(cube: Cube, labelmap: LabelMap) -> HsiDataset:
    """Join a cube with its label map, keeping labeled pixels only."""
    if (cube.height, cube.width) != (labelmap.height, labelmap.width):
        raise PairingError(
            f"cube is {cube.height}x{cube.width} but labels are "
            f"{labelmap.height}x{labelmap.width}"
        )
    if labelmap.labels.min(initial=0) < 0:
        raise DomainError("labels must be non-negative")
    mask = labelmap.labels > 0
    if not mask.any():
        raise DomainError("label map has no labeled pixels")
    labels = labelmap.labels[mask]  # boolean indexing copies, as cube.values[mask] does
    class_count = int(labels.max())
    present = np.unique(labels)
    # the labels lie in 1..class_count, so a class is missing exactly when
    # fewer distinct ones are present; the first gap in the sorted ids names it
    if present.size != class_count:
        missing = int((present == np.arange(1, present.size + 1)).sum()) + 1
        raise DomainError(f"class {missing} of 1..{class_count} has no pixel")
    return HsiDataset(
        pixels=cube.values[mask],
        labels=labels,
        band_count=cube.band_count,
        class_count=class_count,
    )


def dataset_to_files(cube_path, label_path, dataset: HsiDataset) -> None:
    """Write a pixel-list dataset as an H=1, W=N scene pair."""
    n = dataset.pixel_count
    write_cube(
        cube_path,
        Cube(height=1, width=n, band_count=dataset.band_count, values=dataset.pixels),
    )
    write_labels(label_path, LabelMap(height=1, width=n, labels=dataset.labels))


# ---------------------------------------------------------------------------
# normalization and splitting


@dataclass(frozen=True)
class Normalizer:
    """Per-band standardization statistics, fitted on known training pixels."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, pixels: np.ndarray) -> "Normalizer":
        if pixels.shape[0] == 0:
            raise DomainError("cannot fit a normalizer on an empty pixel set")
        mean = pixels.mean(axis=0)
        std = pixels.std(axis=0)
        # a constant band maps to exact zeros: pin its mean to the constant
        # (the accumulated mean can be off by an ulp) and its sigma to 1
        constant = pixels.max(axis=0) == pixels.min(axis=0)
        mean = np.where(constant, pixels[0], mean)
        std = np.where(constant | (std == 0.0), 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        if pixels.shape[1] != self.mean.shape[0]:
            raise ShapeError(
                f"pixels have {pixels.shape[1]} bands, normalizer expects {self.mean.shape[0]}"
            )
        out = pixels - self.mean
        out /= self.std  # in place: the same bits as `(pixels - mean) / std`
        return out


@dataclass(frozen=True)
class SplitSpec:
    unknown_classes: frozenset
    train_fraction: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class SplitResult:
    train_known: HsiDataset  # labels densely re-indexed 1..L
    test_known: HsiDataset
    unknown_pool: HsiDataset  # original labels
    known_class_ids: tuple  # dense label i+1 <-> known_class_ids[i]
    train_indices: np.ndarray
    test_indices: np.ndarray
    unknown_indices: np.ndarray


def split(dataset: HsiDataset, spec: SplitSpec) -> SplitResult:
    """Partition pixels into known train/test and an unknown pool.

    Unknown classes go entirely to the pool. Each known class is shuffled
    with the seeded RNG and cut at train_fraction (at least one pixel per
    side unless train_fraction is exactly 1). Known class ids are re-indexed
    densely to 1..L in ascending original order.
    """
    unknown = frozenset(int(c) for c in spec.unknown_classes)
    all_classes = set(range(1, dataset.class_count + 1))
    if not unknown:
        raise DomainError("unknown class set must be non-empty")
    if not unknown < all_classes:
        raise DomainError(
            f"unknown classes {sorted(unknown)} must be a proper subset of 1..{dataset.class_count}"
        )
    if not (0.0 < spec.train_fraction <= 1.0):
        raise DomainError(f"train_fraction {spec.train_fraction} outside (0, 1]")

    rng = np.random.default_rng(spec.seed)
    known_ids = tuple(sorted(all_classes - unknown))
    train_parts, test_parts = [], []
    for cls in known_ids:
        idx = dataset.class_indices(cls)
        if idx.size < 2:
            raise DomainError(f"known class {cls} has {idx.size} pixel(s); cannot split")
        perm = idx[rng.permutation(idx.size)]
        n_train = int(round(spec.train_fraction * idx.size))
        if spec.train_fraction < 1.0:
            n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    # original label -> dense known label 1..L (0 for every other id)
    dense = np.zeros(dataset.class_count + 1, dtype=np.int64)
    dense[list(known_ids)] = np.arange(1, len(known_ids) + 1)

    def subset(idx: np.ndarray, known: bool) -> HsiDataset:
        labels = dataset.labels[idx]
        return HsiDataset(
            pixels=dataset.pixels[idx],
            labels=dense[labels] if known else labels,
            band_count=dataset.band_count,
            class_count=len(known_ids) if known else dataset.class_count,
        )

    train_idx, test_idx = np.concatenate(train_parts), np.concatenate(test_parts)
    unknown_idx = np.flatnonzero(np.isin(dataset.labels, sorted(unknown)))
    return SplitResult(
        train_known=subset(train_idx, True),
        test_known=subset(test_idx, True),
        unknown_pool=subset(unknown_idx, False),
        known_class_ids=known_ids,
        train_indices=train_idx,
        test_indices=test_idx,
        unknown_indices=unknown_idx,
    )


# ---------------------------------------------------------------------------
# synthetic generator


def synth_generate(
    l_total: int,
    bands: int,
    per_class: int,
    bases_per_class: int = 2,
    dirichlet_alpha: float = 1.0,
    noise_sigma: float = 0.01,
    seed: int = 0,
) -> HsiDataset:
    """Generate a linear-mixing dataset with pairwise-distinguishable classes.

    A global pool of smooth non-negative basis spectra is drawn, each with a
    dominant bump in its own slot of the band axis; every class owns a
    disjoint subset of bases_per_class bases. Each pixel mixes its class's
    bases with symmetric-Dirichlet abundances (non-negative, sum-to-one) and
    adds iid Gaussian noise. Pixels are rounded to float32 precision so the
    in-memory dataset round-trips through the container format bit-exactly.
    """
    if l_total < 1:
        raise DomainError("l_total must be >= 1")
    if per_class < 1:
        raise DomainError("per_class must be >= 1")
    if bases_per_class < 1:
        raise DomainError("bases_per_class must be >= 1")
    n_bases = l_total * bases_per_class
    if bands < n_bases:
        raise DomainError(f"bands ({bands}) must be >= total bases ({n_bases})")
    if not 0.0 < dirichlet_alpha < np.inf:
        raise DomainError("dirichlet_alpha must be finite and > 0")
    if not 0.0 <= noise_sigma < np.inf:
        raise DomainError("noise_sigma must be finite and >= 0")

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, bands)
    bases = np.empty((n_bases, bands))
    for i in range(n_bases):
        center = (i + 0.5) / n_bases + rng.uniform(-0.2, 0.2) / n_bases
        width = rng.uniform(0.03, 0.08)
        spectrum = np.exp(-0.5 * ((grid - center) / width) ** 2)
        for _ in range(2):
            spectrum += rng.uniform(0.1, 0.4) * np.exp(
                -0.5 * ((grid - rng.uniform(0.0, 1.0)) / rng.uniform(0.05, 0.3)) ** 2
            )
        bases[i] = spectrum + 0.05

    pixels = np.empty((l_total * per_class, bands))
    labels = np.empty(l_total * per_class, dtype=np.int64)
    for cls in range(1, l_total + 1):
        own = bases[(cls - 1) * bases_per_class : cls * bases_per_class]
        abundances = rng.dirichlet(np.full(bases_per_class, dirichlet_alpha), size=per_class)
        block = abundances @ own
        if noise_sigma > 0.0:
            block = block + rng.normal(0.0, noise_sigma, size=block.shape)
        lo = (cls - 1) * per_class
        pixels[lo : lo + per_class] = block
        labels[lo : lo + per_class] = cls

    pixels = pixels.astype(np.float32).astype(np.float64)
    return HsiDataset(
        pixels=pixels, labels=labels, band_count=bands, class_count=l_total
    )
