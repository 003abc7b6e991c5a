import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdosr.data import (
    _CUBE_HEADER,
    _LABEL_HEADER,
    BadMagicError,
    BadVersionError,
    Cube,
    FormatError,
    HsiDataset,
    LabelMap,
    Normalizer,
    PairingError,
    SplitSpec,
    TruncatedError,
    dataset_to_files,
    load_cube,
    load_labels,
    pair,
    split,
    synth_generate,
    write_cube,
    write_labels,
)
from rdosr.diffcore import DomainError, NumericError


def random_cube(rng, h=4, w=5, b=3):
    values = rng.random((h * w, b)).astype(np.float32).astype(np.float64)
    return Cube(height=h, width=w, band_count=b, values=values)


# ---------------------------------------------------------------------------
# container round trips and format errors


def test_cube_round_trip_bit_identical(tmp_path):
    cube = random_cube(np.random.default_rng(1))
    path = tmp_path / "a.hsid"
    write_cube(path, cube)
    first = path.read_bytes()
    loaded = load_cube(path)
    assert np.array_equal(loaded.values, cube.values)
    write_cube(path, loaded)
    assert path.read_bytes() == first


def test_labels_round_trip(tmp_path):
    labels = LabelMap(height=2, width=3, labels=np.array([0, 1, 2, 2, 1, 3]))
    path = tmp_path / "a.hsil"
    write_labels(path, labels)
    loaded = load_labels(path)
    assert np.array_equal(loaded.labels, labels.labels)
    assert (loaded.height, loaded.width) == (2, 3)


def test_cube_bad_magic(tmp_path):
    path = tmp_path / "bad.hsid"
    cube = random_cube(np.random.default_rng(2))
    write_cube(path, cube)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_cube(path)


def test_cube_bad_version(tmp_path):
    path = tmp_path / "bad.hsid"
    write_cube(path, random_cube(np.random.default_rng(3)))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        load_cube(path)


def test_cube_truncated_and_trailing(tmp_path):
    path = tmp_path / "bad.hsid"
    write_cube(path, random_cube(np.random.default_rng(4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedError):
        load_cube(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(TruncatedError):
        load_cube(path)


def test_labels_format_errors(tmp_path):
    path = tmp_path / "bad.hsil"
    write_labels(path, LabelMap(height=1, width=4, labels=np.array([1, 0, 2, 1])))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"HSID"  # cube magic in a label file is still wrong
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_labels(path)


def test_pairing_dimension_mismatch():
    cube = random_cube(np.random.default_rng(5), h=4, w=5)
    labels = LabelMap(height=4, width=6, labels=np.zeros(24, dtype=np.int64))
    with pytest.raises(PairingError):
        pair(cube, labels)


def test_pair_keeps_labeled_pixels_only():
    rng = np.random.default_rng(6)
    cube = random_cube(rng, h=1, w=6, b=2)
    labels = LabelMap(height=1, width=6, labels=np.array([0, 1, 0, 2, 2, 1]))
    ds = pair(cube, labels)
    assert ds.pixel_count == 4
    assert ds.class_count == 2
    assert set(ds.labels.tolist()) == {1, 2}


def test_pair_shares_no_memory_with_the_scene():
    rng = np.random.default_rng(8)
    cube = random_cube(rng, h=3, w=5, b=4)
    labels = LabelMap(height=3, width=5, labels=rng.integers(0, 3, 15))
    labels.labels[:2] = [1, 2]
    ds = pair(cube, labels)
    assert not np.shares_memory(ds.pixels, cube.values)
    assert not np.shares_memory(ds.labels, labels.labels)
    assert np.array_equal(ds.pixels, cube.values[labels.labels > 0])


def test_pair_rejects_missing_class():
    rng = np.random.default_rng(7)
    cube = random_cube(rng, h=1, w=4, b=2)
    # the first gap in the present ids is named
    for ids, missing in (([1, 1, 3, 3], 2), ([2, 4, 4, 0], 1), ([1, 2, 5, 5], 3)):
        labels = LabelMap(height=1, width=4, labels=np.array(ids))
        with pytest.raises(DomainError, match=rf"^class {missing} of 1\.\.{max(ids)} has no pixel$"):
            pair(cube, labels)


# ---------------------------------------------------------------------------
# fuzzed scene files: loading and pairing raise only the format, domain and
# numeric errors, and what loads is a consistent dataset


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """A clean 3x4 scene of 5 bands and 3 classes, and a scratch directory."""
    out = tmp_path_factory.mktemp("fuzz")
    write_cube(out / "clean.hsid", random_cube(np.random.default_rng(8), h=3, w=4, b=5))
    ids = np.array([1, 2, 3, 0, 1, 2, 3, 0, 3, 2, 1, 1])
    write_labels(out / "clean.hsil", LabelMap(height=3, width=4, labels=ids))
    return out


@st.composite
def _mutated_container(draw, raw: bytes, header: struct.Struct):
    """`raw` truncated, with one byte flipped, or with one prefix field
    (magic, version or a dimension) replaced."""
    kind = draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    fields = list(header.unpack_from(raw))
    i = draw(st.integers(0, len(fields) - 1))
    if i == 0:
        fields[0] = draw(st.binary(min_size=4, max_size=4))
    else:
        fields[i] = draw(st.integers(0, 16) | st.integers(0, 2**32 - 1))
    return header.pack(*fields) + raw[header.size :]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_scene_files_raise_only_documented_errors(scene_files, data):
    paths = {"cube": scene_files / "clean.hsid", "labels": scene_files / "clean.hsil"}
    target = data.draw(st.sampled_from(sorted(paths)))
    header = _CUBE_HEADER if target == "cube" else _LABEL_HEADER
    clean = paths[target].read_bytes()
    paths[target] = scene_files / f"fuzzed{paths[target].suffix}"
    paths[target].write_bytes(data.draw(_mutated_container(clean, header)))
    try:
        ds = pair(load_cube(paths["cube"]), load_labels(paths["labels"]))
    except (FormatError, DomainError, NumericError):
        return
    assert np.isfinite(ds.pixels).all()
    assert np.array_equal(np.unique(ds.labels), np.arange(1, ds.class_count + 1))


def test_dataset_file_round_trip(tmp_path):
    ds = synth_generate(l_total=3, bands=12, per_class=20, seed=9)
    dataset_to_files(tmp_path / "c.hsid", tmp_path / "l.hsil", ds)
    back = pair(load_cube(tmp_path / "c.hsid"), load_labels(tmp_path / "l.hsil"))
    assert np.array_equal(back.pixels, ds.pixels)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# normalization


def test_normalizer_zero_mean_unit_variance():
    rng = np.random.default_rng(10)
    pixels = rng.random((500, 8)) * 7 + 3
    norm = Normalizer.fit(pixels)
    out = norm.apply(pixels)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-9


def test_normalizer_constant_band_guard():
    pixels = np.column_stack([np.full(20, 4.2), np.arange(20.0)])
    norm = Normalizer.fit(pixels)
    out = norm.apply(pixels)
    assert np.array_equal(out[:, 0], np.zeros(20))


def test_normalizer_identity_on_standardized_data():
    rng = np.random.default_rng(11)
    pixels = rng.standard_normal((4000, 3))
    pixels -= pixels.mean(axis=0)
    pixels /= pixels.std(axis=0)
    out = Normalizer.fit(pixels).apply(pixels)
    assert np.abs(out - pixels).max() < 1e-9


def test_normalizer_applies_fit_statistics_to_other_pixels():
    rng = np.random.default_rng(12)
    fit_set = rng.random((100, 4))
    other = rng.random((50, 4)) + 10.0
    norm = Normalizer.fit(fit_set)
    out = norm.apply(other)
    assert np.allclose(out, (other - norm.mean) / norm.std)
    # far-shifted pixels stay far after the shared transform
    assert out.mean() > 5.0


def test_normalizer_apply_bit_equal_to_subtract_then_divide():
    rng = np.random.default_rng(14)
    pixels = rng.normal(3.0, 5.0, size=(300, 7))
    norm = Normalizer.fit(pixels[:100])
    before = pixels.copy()
    out = norm.apply(pixels)
    ref = (pixels - norm.mean) / norm.std
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    assert np.array_equal(pixels, before) and not np.shares_memory(out, pixels)


def test_normalizer_empty_fit_set():
    with pytest.raises(DomainError):
        Normalizer.fit(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# splitting


def make_dataset(classes=6, per_class=40, bands=5, seed=0):
    return synth_generate(l_total=classes, bands=bands * classes, per_class=per_class, seed=seed)


def test_split_partitions_are_disjoint_and_exhaustive():
    ds = make_dataset()
    parts = split(ds, SplitSpec(frozenset({3}), 0.5, seed=1))
    all_idx = np.concatenate([parts.train_indices, parts.test_indices, parts.unknown_indices])
    assert len(all_idx) == ds.pixel_count
    assert len(np.unique(all_idx)) == ds.pixel_count


def test_split_dense_reindex():
    ds = make_dataset(classes=9)
    parts = split(ds, SplitSpec(frozenset({4}), 0.5, seed=2))
    assert parts.known_class_ids == (1, 2, 3, 5, 6, 7, 8, 9)
    assert parts.train_known.class_count == 8
    assert set(np.unique(parts.train_known.labels)) == set(range(1, 9))
    assert set(np.unique(parts.unknown_pool.labels)) == {4}


def test_split_full_train_fraction_leaves_empty_test():
    ds = make_dataset()
    parts = split(ds, SplitSpec(frozenset({1}), 1.0, seed=3))
    assert parts.test_known.pixel_count == 0
    assert parts.train_known.pixel_count == ds.class_indices(1).size * 0 + 5 * 40


def test_split_determinism():
    ds = make_dataset()
    a = split(ds, SplitSpec(frozenset({2}), 0.5, seed=7))
    b = split(ds, SplitSpec(frozenset({2}), 0.5, seed=7))
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    c = split(ds, SplitSpec(frozenset({2}), 0.5, seed=8))
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_validation_errors():
    ds = make_dataset(classes=3)
    with pytest.raises(DomainError):
        split(ds, SplitSpec(frozenset(), 0.5, 0))
    with pytest.raises(DomainError):
        split(ds, SplitSpec(frozenset({1, 2, 3}), 0.5, 0))
    with pytest.raises(DomainError):
        split(ds, SplitSpec(frozenset({9}), 0.5, 0))
    with pytest.raises(DomainError):
        split(ds, SplitSpec(frozenset({1}), 0.0, 0))


def test_split_rejects_tiny_class():
    pixels = np.random.default_rng(0).random((5, 3))
    ds = HsiDataset(
        pixels=pixels,
        labels=np.array([1, 1, 2, 2, 3]),
        band_count=3,
        class_count=3,
    )
    with pytest.raises(DomainError, match="class 3"):
        split(ds, SplitSpec(frozenset({1}), 0.5, 0))


def test_split_stratified_fractions():
    ds = make_dataset(classes=4, per_class=100)
    parts = split(ds, SplitSpec(frozenset({4}), 0.25, seed=5))
    for dense in range(1, 4):
        assert (parts.train_known.labels == dense).sum() == 25
        assert (parts.test_known.labels == dense).sum() == 75


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_pure_endmember_case():
    ds = synth_generate(l_total=3, bands=16, per_class=10, bases_per_class=1, noise_sigma=0.0, seed=4)
    for cls in range(1, 4):
        block = ds.pixels[ds.labels == cls]
        assert np.array_equal(block, np.repeat(block[:1], 10, axis=0))
    # distinct classes use distinct bases
    assert not np.array_equal(ds.pixels[0], ds.pixels[10])


def test_synth_reproducible_and_float32_exact():
    a = synth_generate(l_total=4, bands=24, per_class=15, seed=42)
    b = synth_generate(l_total=4, bands=24, per_class=15, seed=42)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.pixels, a.pixels.astype(np.float32).astype(np.float64))


def test_synth_shapes_and_labels():
    ds = synth_generate(l_total=6, bands=64, per_class=50, seed=0)
    assert ds.pixels.shape == (300, 64)
    assert ds.class_count == 6
    assert all((ds.labels == cls).sum() == 50 for cls in range(1, 7))


def test_synth_parameter_validation():
    with pytest.raises(DomainError):
        synth_generate(l_total=0, bands=8, per_class=5)
    with pytest.raises(DomainError):
        synth_generate(l_total=3, bands=2, per_class=5)  # bands < total bases
    with pytest.raises(DomainError):
        synth_generate(l_total=3, bands=12, per_class=0)
    with pytest.raises(DomainError):
        synth_generate(l_total=3, bands=12, per_class=5, dirichlet_alpha=0.0)
    with pytest.raises(DomainError):
        synth_generate(l_total=3, bands=12, per_class=5, noise_sigma=-0.1)
    # a NaN or an infinity would make every value non-finite, or (a NaN
    # sigma) silently add no noise
    for alpha in (np.nan, np.inf):
        with pytest.raises(DomainError, match="dirichlet_alpha must be finite"):
            synth_generate(l_total=3, bands=12, per_class=5, dirichlet_alpha=alpha)
    for sigma in (np.nan, np.inf):
        with pytest.raises(DomainError, match="noise_sigma must be finite"):
            synth_generate(l_total=3, bands=12, per_class=5, noise_sigma=sigma)
