"""Synthetic generator, dataset splits, IDX loading, constant coding, event
binning."""

import hashlib
import itertools
from collections import Counter
from dataclasses import replace
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsnn
from etcsnn.data import (
    ConfigError,
    DataError,
    DataSpec,
    Split,
    bin_events,
    held_out,
    load_event_dir,
    load_idx,
    parse_event_csv,
    synth_generate,
)
from etcsnn.data import (
    _STREAM_NOISE,
    _class_bases,
    _noise_words,
    _nuisance_directions,
    _seeded_by,
)
from etcsnn.train import build_run_config, load_dataset, load_test_split

SMALL = DataSpec(classes=3, dim=8, drift_strength=0.0, noise_sigma=0.0, samples_per_class=10,
                 seed=7)
SMALL_STEPS = 4


# -- synthetic generator --------------------------------------------------------


def samples(*splits):
    """(input sequence, label) of every sample of ``splits``, in order."""
    return [(x, int(y)) for s in splits for x, y in zip(s.inputs, s.labels)]


def fifth_of_each_class(labels) -> list[bool]:
    """The hold-out rule counted out item by item: the 5th, 10th, ... item of
    each class is held out."""
    seen = Counter()
    held = []
    for label in labels:
        seen[label] += 1
        held.append(seen[label] % 5 == 0)
    return held


def test_degenerate_spec_gives_identical_slices_and_samples():
    train, test = synth_generate(SMALL, SMALL_STEPS)  # drift 0, sigma 0
    by_class = {}
    for seq, label in samples(train, test):
        for t in range(1, SMALL_STEPS):
            assert np.array_equal(seq[t], seq[0])
        if label in by_class:
            assert np.array_equal(seq, by_class[label])
        else:
            by_class[label] = seq
    # distinct classes get distinct patterns
    assert not np.array_equal(by_class[0], by_class[1])


def test_zero_drift_noise_is_independent_per_slice():
    spec = DataSpec(classes=2, dim=8, drift_strength=0.0, noise_sigma=0.5,
                    samples_per_class=5, seed=1)
    train, _ = synth_generate(spec, 3)
    seq = train.inputs[0]
    assert not np.array_equal(seq[0], seq[1])
    assert not np.array_equal(seq[1], seq[2])


def test_same_seed_twice_is_byte_identical():
    spec = DataSpec(classes=2, dim=8, drift_strength=0.5,
                    noise_sigma=0.3, samples_per_class=6, seed=11)
    a_train, a_test = synth_generate(spec, 3)
    b_train, b_test = synth_generate(spec, 3)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.inputs.tobytes() == b.inputs.tobytes()


def test_different_seed_differs():
    a, _ = synth_generate(SMALL, SMALL_STEPS)
    b, _ = synth_generate(replace(SMALL, seed=8), SMALL_STEPS)
    assert not np.array_equal(a.inputs[0], b.inputs[0])


def test_default_split_is_2000_500_and_balanced():
    train, test = synth_generate(DataSpec(), 10)
    assert len(train) == 2000 and len(test) == 500
    for split, per_class in ((train, 500), (test, 125)):
        counts = np.bincount(split.labels, minlength=4)
        assert (counts == per_class).all()


def test_shapes_match_spec():
    train, test = synth_generate(SMALL, SMALL_STEPS)
    for split in (train, test):
        assert split.inputs.shape[1:] == (SMALL_STEPS, SMALL.dim)
        assert split.inputs.dtype == np.float64 and split.labels.dtype == np.int64
        assert ((0 <= split.labels) & (split.labels < SMALL.classes)).all()


def test_full_drift_makes_last_slice_class_independent():
    spec = DataSpec(classes=3, dim=8, drift_strength=1.0, noise_sigma=0.0,
                    samples_per_class=5, seed=3)
    train, _ = synth_generate(spec, 4)
    last = train.inputs[:3, -1]  # one per class
    assert np.array_equal(last[0], last[1]) and np.array_equal(last[1], last[2])
    firsts = train.inputs[:3, 0]
    assert not np.array_equal(firsts[0], firsts[1])


def test_noisy_set_still_nearest_mean_separable():
    spec = DataSpec(classes=4, dim=16, drift_strength=0.0, noise_sigma=0.05,
                    samples_per_class=25, seed=5)
    train, test = synth_generate(spec, 3)
    means = np.stack([
        np.mean([seq.mean(axis=0) for seq, label in samples(train) if label == c], axis=0)
        for c in range(spec.classes)
    ])
    hits = sum(
        int(np.argmin(((seq.mean(axis=0) - means) ** 2).sum(axis=1)) == label)
        for seq, label in samples(test)
    )
    assert hits == len(test)


def reference_sample(spec, steps, idx):
    """Sample ``idx`` built one timestep at a time from the formula."""
    bases = _class_bases(spec)
    u = _nuisance_directions(spec, steps)
    noise = np.random.default_rng([spec.seed, _STREAM_NOISE, idx]).normal(
        size=(steps, spec.dim)
    )
    seq = np.empty((steps, spec.dim))
    for t in range(steps):
        w = 0.0 if steps == 1 else spec.drift_strength * t / (steps - 1)
        seq[t] = (1.0 - w) * bases[idx % spec.classes] + w * u[t] + spec.noise_sigma * noise[t]
    return seq


# one-word seeds and seeds numpy splits into two and three 32-bit words
SEEDS = (0, 2, 2**32 + 3, 2**64 + 7)


@pytest.mark.parametrize("timesteps", [1, 4, 10])
@pytest.mark.parametrize("drift", [0.0, 1.0, 4.0])
def test_generator_matches_per_step_formula_bitwise(timesteps, drift):
    """The in-place ``standard_normal`` draws against ``normal``'s, bit for
    bit; at ``noise_sigma=0`` every noise term is a signed zero."""
    test = fifth_of_each_class([i % 3 for i in range(18)])
    order = [i for i in range(18) if not test[i]] + [i for i in range(18) if test[i]]
    for seed, sigma in itertools.product(SEEDS, (0.0, 0.3)):
        spec = DataSpec(classes=3, dim=8, drift_strength=drift,
                        noise_sigma=sigma, samples_per_class=6, seed=seed)
        got = samples(*synth_generate(spec, timesteps))
        assert [label for _, label in got] == [i % 3 for i in order]
        for (seq, _), idx in zip(got, order):
            want = reference_sample(spec, timesteps, idx)
            assert seq.tobytes() == want.tobytes(), (seed, sigma, idx)


def test_generator_peak_memory_is_the_splits_alone():
    """Noise is drawn in place into each split row: nothing split-sized is
    built beside the two splits (a gather of every sample's clean blend
    would double the peak)."""
    spec = DataSpec(dim=256, drift_strength=0.0, noise_sigma=0.2, samples_per_class=125, seed=3)
    tracemalloc.start()
    try:
        splits = synth_generate(spec, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(s.inputs.nbytes + s.labels.nbytes for s in splits)
    assert nbytes <= peak <= 1.05 * nbytes


@pytest.mark.parametrize("seed", [*SEEDS, 7, 2**70 + 3])
def test_noise_states_match_default_rng(seed):
    """Every row is SeedSequence's four words, and numpy seeds PCG64 from a
    row into the state ``default_rng`` starts from."""
    indices = np.array([0, 1, 4, 2**31, 2**32 - 1])
    words = _noise_words(seed, indices)
    assert words.shape == (indices.size, 4)
    for idx, row in zip(indices.tolist(), words):
        key = [seed, _STREAM_NOISE, idx]
        want = np.random.SeedSequence(key).generate_state(4, np.uint64)
        assert row.dtype == want.dtype and row.tobytes() == want.tobytes(), (seed, idx)
        state = np.random.PCG64(_seeded_by()(row)).state
        assert state == np.random.default_rng(key).bit_generator.state, (seed, idx)


def test_noise_states_refuse_an_index_past_32_bits():
    # numpy would key index 2**32 by two words; it must not wrap to index 0
    with pytest.raises(ValueError, match="4294967296"):
        _noise_words(0, np.array([0, 2**32]))
    assert _noise_words(0, np.array([], dtype=np.int64)).shape == (0, 4)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_seed_words_refuse_any_other_request(n_words, dtype):
    """The words answer the one request PCG64 makes; a numpy that asked for
    another would otherwise be seeded silently wrong."""
    seeded = _seeded_by()(_noise_words(0, np.array([5]))[0])
    with pytest.raises(ValueError, match="only generate_state"):
        seeded.generate_state(n_words, dtype)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """The seed-sequence class is defined on first use: in a fresh
    interpreter, importing the CLI (and with it the generator) does not
    import ``numpy.random``."""
    env = {**os.environ, "PYTHONPATH": str(Path(etcsnn.__file__).parents[1])}
    code = "import sys, etcsnn.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


# The sha256 of the training then the test split's inputs then labels, the
# data the retired dataset dump held for this spec (x86-64, numpy 2.4):
# any change to the generated data fails here.
GOLDEN_SPEC = DataSpec(classes=3, dim=6, drift_strength=1.5,
                       noise_sigma=0.25, samples_per_class=5, seed=2)
GOLDEN_STEPS = 4
GOLDEN_SHA256 = "a63a64d0325ce7a154b43dcb7245a82d84eaa34fee3a04f861c9513de1150193"


def test_synth_splits_match_golden_hash():
    digest = hashlib.sha256()
    for split in synth_generate(GOLDEN_SPEC, GOLDEN_STEPS):
        digest.update(split.inputs.tobytes() + split.labels.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256


# every DataSpec check, in its order: the fields that break it, the one error line
SPEC_CHECKS = [
    pytest.param({"kind": "file"},
                 "data.kind: must be one of ('synth', 'idx', 'events')", id="kind"),
    pytest.param({"classes": 1}, "data.classes: must be >= 2", id="classes"),
    pytest.param({"classes": 4, "dim": 3}, "data.dim: must be >= data.classes",
                 id="dim-below-classes"),
    pytest.param({"dim": 2**32}, "data.dim: must be < 2**32", id="dim-past-u32"),
    pytest.param({"drift_strength": -0.1}, "data.drift_strength: must be >= 0",
                 id="drift_strength"),
    pytest.param({"noise_sigma": -0.1}, "data.noise_sigma: must be >= 0", id="noise_sigma"),
    pytest.param({"samples_per_class": 0}, "data.samples_per_class: must be >= 1",
                 id="samples_per_class"),
    pytest.param({"classes": 2, "samples_per_class": 2**31 + 1},
                 "data.samples_per_class: times data.classes must be <= 2**32",
                 id="samples-past-u32"),
    pytest.param({"seed": -3}, "data.seed: must be >= 0", id="seed"),
    pytest.param({"width": -1}, "data.width: must be >= 0", id="width"),
    pytest.param({"height": -1}, "data.height: must be >= 0", id="height"),
    pytest.param({"width": 65536, "height": 32768},
                 "data.width: times data.height, times 2 polarities, must be < 2**32",
                 id="frame-past-u32"),
]


@pytest.mark.parametrize("fields, message", SPEC_CHECKS)
def test_data_spec_checks_each_key_once(fields, message):
    """A DataSpec built directly and a config that sets the same keys raise
    one and the same error line, naming the key."""
    with pytest.raises(ConfigError) as direct:
        DataSpec(**fields)
    with pytest.raises(ConfigError) as configured:
        build_run_config({f"data.{name}": str(value) for name, value in fields.items()})
    assert str(direct.value) == str(configured.value) == f"config key {message}"


def test_data_spec_takes_class_counts_held_out_alike():
    # every class is held out alike, so a multiple of 5 is a class count too
    for classes in (5, 10, 15):
        assert DataSpec(classes=classes, dim=16).classes == classes


@pytest.mark.parametrize("knob", ["drift_strength", "noise_sigma"])
def test_generator_refuses_a_knob_that_overflows_the_inputs(knob):
    spec = replace(SMALL, **{knob: 1e308})
    message = rf"^config key data\.{knob}: 1e\+308 overflows the inputs$"
    with pytest.raises(ConfigError, match=message):
        synth_generate(spec, SMALL_STEPS)


@pytest.mark.parametrize("classes", [2, 3, 5, 10])
@pytest.mark.parametrize("per_class", [1, 4, 5, 12])
def test_every_class_holds_out_a_fifth_of_its_samples(classes, per_class):
    """Each split is whole blocks of ``classes`` consecutive samples, so
    ``labels[c::classes] == c`` in both, and the test split holds
    ``per_class // 5`` samples of every class."""
    spec = DataSpec(classes=classes, dim=10, drift_strength=0.0, noise_sigma=0.0,
                    samples_per_class=per_class)
    train, test = synth_generate(spec, 2)
    assert np.bincount(test.labels, minlength=classes).tolist() == [per_class // 5] * classes
    assert len(train) == classes * (per_class - per_class // 5)
    for split in (train, test):
        assert len(split) % classes == 0
        for c in range(classes):
            assert (split.labels[c::classes] == c).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 6), max_size=80))
def test_held_out_is_every_fifth_item_of_each_class(labels):
    assert held_out(np.array(labels, dtype=np.int64)).tolist() == fifth_of_each_class(labels)


def test_held_out_ranks_interleaved_labels_within_their_class():
    labels = np.array([3, 0, 3, 1, 0, 0, 3, 3, 0, 1, 3, 0, 1, 1, 1, 0, 3])
    assert np.flatnonzero(held_out(labels)).tolist() == [10, 11, 14]
    assert np.flatnonzero(held_out(np.zeros(11, dtype=np.int64))).tolist() == [4, 9]
    assert held_out(np.array([], dtype=np.int64)).tolist() == []


# -- splits ------------------------------------------------------------------------


def test_split_converts_and_slices():
    split = Split([[[1, 2]], [[3, 4]], [[5, 6]]], np.array([0, 2, 1], dtype=np.uint8))
    assert split.inputs.dtype == np.float64 and split.labels.dtype == np.int64
    assert len(split) == 3
    head = split[:2]
    assert isinstance(head, Split) and len(head) == 2
    assert head.inputs.tolist() == [[[1.0, 2.0]], [[3.0, 4.0]]]
    assert head.labels.tolist() == [0, 2]
    assert len(Split(np.full((2, 3, 4), 1e308), [0, 1])) == 2  # huge is still finite
    assert len(split[:0]) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_rejects_non_finite_inputs(bad):
    inputs = np.zeros((3, 2, 4))
    inputs[1, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Split(inputs, [0, 1, 0])


def test_split_rejects_bad_shapes_and_labels():
    with pytest.raises(ValueError, match="N, T, dim"):
        Split(np.zeros((2, 4)), [0, 1])
    with pytest.raises(ValueError, match="labels for 2 samples"):
        Split(np.zeros((2, 3, 4)), [0, 1, 1])
    with pytest.raises(ValueError, match="labels for 2 samples"):
        Split(np.zeros((2, 3, 4)), [[0, 1]])
    with pytest.raises(ValueError, match="negative label -1"):
        Split(np.zeros((2, 3, 4)), [0, -1])


# -- IDX loading -------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, rows, cols,
                   image_magic=0x803, label_magic=0x801, label_count=None):
    n = len(labels) if label_count is None else label_count
    img = tmp_path / "imgs.idx"
    lbl = tmp_path / "lbls.idx"
    img.write_bytes(
        struct.pack(">IIII", image_magic, len(pixels) // (rows * cols), rows, cols)
        + bytes(pixels)
    )
    lbl.write_bytes(struct.pack(">II", label_magic, n) + bytes(labels))
    return img, lbl


def test_idx_single_pixel_scaling(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [255], [3], rows=1, cols=1)
    pixels, labels = load_idx(img, lbl)
    assert pixels.shape == (1, 1) and labels.shape == (1,)
    assert pixels[0, 0] == 1.0
    assert labels[0] == 3


def test_idx_pairing_and_range(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [0, 51, 102, 153, 204, 255, 0, 128],
                              [1, 0], rows=2, cols=2)
    pixels, labels = load_idx(img, lbl)
    assert labels.tolist() == [1, 0]
    np.testing.assert_allclose(pixels[0], np.array([0, 51, 102, 153]) / 255.0)
    assert ((0.0 <= pixels) & (pixels <= 1.0)).all()


def test_idx_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [255], [3], 1, 1, image_magic=0x804)
    with pytest.raises(DataError, match="0x00000804"):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, [255], [3], 1, 1, label_magic=0x802)
    with pytest.raises(DataError, match="lbls"):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [1, 2, 3, 4], [0], rows=2, cols=2)
    blob = img.read_bytes()
    img.write_bytes(blob[:-2])
    with pytest.raises(DataError, match="expected"):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [10, 20], [0, 1, 2], rows=1, cols=1,
                              label_count=3)
    with pytest.raises(DataError, match="2 images vs 3 labels"):
        load_idx(img, lbl)


# -- constant coding ----------------------------------------------------------------


def load_idx_dataset(tmp_path, pixels, labels, rows, cols, timesteps):
    """The trainer's view of one IDX pair used as both train and test split."""
    img, lbl = write_idx_pair(tmp_path, pixels, labels, rows=rows, cols=cols)
    cfg = build_run_config({
        "data.kind": "idx", "data.images": str(img), "data.labels": str(lbl),
        "data.test_images": str(img), "data.test_labels": str(lbl),
        "network.timesteps": str(timesteps),
    })
    return load_dataset(cfg)


def test_constant_code_tiles_vector(tmp_path):
    data = load_idx_dataset(tmp_path, [51], [2], rows=1, cols=1, timesteps=3)
    for split in (data.train, data.test):
        assert np.array_equal(split.inputs, [[[0.2], [0.2], [0.2]]])
        assert split.labels.tolist() == [2]
    assert data.input_dim == 1 and data.classes == 3


def test_constant_code_is_a_read_only_view_equal_to_repeat(tmp_path):
    pixels = list(range(0, 240, 10))
    data = load_idx_dataset(tmp_path, pixels, [0, 1, 2, 1, 0, 2], rows=2, cols=2, timesteps=5)
    flat = np.array(pixels, dtype=np.float64).reshape(6, 4) / 255.0
    for split in (data.train, data.test):
        assert split.inputs.tobytes() == np.repeat(flat[:, None, :], 5, axis=1).tobytes()
        assert split.inputs.strides[1] == 0 and not split.inputs.flags.writeable


def test_constant_code_t1_and_validation(tmp_path):
    data = load_idx_dataset(tmp_path, [0, 255], [0], rows=1, cols=2, timesteps=1)
    assert data.train.inputs.shape == (1, 1, 2)
    assert data.classes == 2
    with pytest.raises(ConfigError, match="network.timesteps"):
        load_idx_dataset(tmp_path, [0], [0], rows=1, cols=1, timesteps=0)


def test_idx_without_test_files_holds_out_every_fifth_image(tmp_path):
    """Every fifth image of each class, in file order, is held out."""
    labels = [0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 3]
    img, lbl = write_idx_pair(tmp_path, [10 * i for i in range(13)], labels, rows=1, cols=1)
    cfg = build_run_config({"data.kind": "idx", "data.images": str(img),
                            "data.labels": str(lbl), "network.timesteps": "2"})
    data = load_dataset(cfg)
    assert data.train.labels.tolist() == [0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 3]
    assert data.test.labels.tolist() == [1, 0]  # images 8 and 10
    assert data.test.inputs.tolist() == [[[80 / 255]] * 2, [[100 / 255]] * 2]
    assert data.classes == 4


# -- event parsing and binning ---------------------------------------------------------


def write_events(path, rows, header="t_us,x,y,polarity"):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")


def events(*rows):
    """An (n, 4) int64 ``(t_us, x, y, polarity)`` event array."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def test_parse_event_csv_happy(tmp_path):
    p = tmp_path / "ev.csv"
    write_events(p, [(0, 0, 0, 0), (10, 1, 0, 1), (10, 1, 1, 1)])
    got = parse_event_csv(p)
    assert got.dtype == np.int64 and got.shape == (3, 4)
    assert got.tolist() == [[0, 0, 0, 0], [10, 1, 0, 1], [10, 1, 1, 1]]
    write_events(p, [])
    assert parse_event_csv(p).shape == (0, 4)
    # order and polarity are left to bin_events, which sees the whole array
    write_events(p, [(5, 0, 0, 2), (3, 0, 0, 0)])
    assert parse_event_csv(p).tolist() == [[5, 0, 0, 2], [3, 0, 0, 0]]


def test_parse_event_csv_errors(tmp_path, monkeypatch):
    p = tmp_path / "ev.csv"
    write_events(p, [(0, 0, 0, 0)], header="time,x,y,p")
    with pytest.raises(DataError, match="first line"):
        parse_event_csv(p)
    p.write_text("t_us,x,y,polarity\n1,2,xx,0\n")
    with pytest.raises(DataError, match="non-integer"):
        parse_event_csv(p)
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        parse_event_csv(p)
    for row in [(2**63, 0, 0, 0), (0, -(2**63) - 1, 0, 0), (0, 0, 10**30, 1)]:
        write_events(p, [(0, 0, 0, 0), row])
        with pytest.raises(DataError, match=r"ev\.csv:3: field does not fit int64"):
            parse_event_csv(p)
    write_events(p, [(0, 0, 0, 0), (2**63 - 1, -(2**63), 0, 1)])  # the extremes fit
    assert parse_event_csv(p)[1].tolist() == [2**63 - 1, -(2**63), 0, 1]
    # the first bad line is named, whatever numpy's whole-file read refused
    for body, message in [
        ("0,0,0,0\n1_000,0,0,1\n", r"ev\.csv:3: non-integer field in '1_000,0,0,1'"),
        ("0,0,0,0\n\u0661,0,0,1\n", r"ev\.csv:3: non-integer field"),  # an Arabic-Indic 1
        ("0,0,0\n1,0,0\n", r"ev\.csv:2: expected 4 fields, got 3"),
        ("0,0,0,0\n \n1,0,0,1,\n", r"ev\.csv:3: expected 4 fields, got 1"),
        ("0,0,0,0\n0,0,0,0 # note\n", r"ev\.csv:3: non-integer field"),
        ("0,0,0,0\n1.5,0,0,1\n", r"ev\.csv:3: non-integer field in '1\.5,0,0,1'"),
        ("0,0,0,0\n1e3,0,0,1\n", r"ev\.csv:3: non-integer field in '1e3,0,0,1'"),
    ]:
        p.write_text("t_us,x,y,polarity\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            parse_event_csv(p)
    # a header with no data is an empty table, with no numpy warning
    p.write_text("t_us,x,y,polarity\n\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = parse_event_csv(p)
    assert got.shape == (0, 4) and got.dtype == np.int64 and not caught

    # numpy 1.23-1.x reads "1.5", "1e3" or 2**63 as a float and truncates it, with only a
    # DeprecationWarning; the warning must send the file to the per-line checks
    def loadtxt_with_fallback(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.zeros((len(lines), 4), dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_fallback)
    for row, message in [
        ("1.5,0,0,1", r"ev\.csv:3: non-integer field in '1\.5,0,0,1'"),
        ("1e3,0,0,1", r"ev\.csv:3: non-integer field"),
        ("9223372036854775808,0,0,1", r"ev\.csv:3: field does not fit int64"),
    ]:
        p.write_text(f"t_us,x,y,polarity\n0,0,0,0\n{row}\n")
        with pytest.raises(DataError, match=message):
            parse_event_csv(p)


def bin_reference(events, width, height, timesteps):
    """Independent re-derivation in exact rationals: raw counts, then
    per-window max division."""
    counts = np.zeros((timesteps, 2, height, width))
    t0, t1 = int(events[0, 0]), int(events[-1, 0])
    for t, x, y, pol in events.tolist():
        if t1 == t0:
            w = 0
        else:
            w = min(math.floor(Fraction(t - t0, t1 - t0) * timesteps), timesteps - 1)
        counts[w, pol, y, x] += 1
    out = counts.copy()
    for w in range(timesteps):
        if counts[w].max() > 0:
            out[w] = counts[w] / counts[w].max()
    return counts, out.reshape(timesteps, 2 * height * width)


def test_bin_single_event_is_one_hot():
    frames = bin_events(events((5, 1, 0, 1)), width=2, height=2, timesteps=3)
    assert frames.shape == (3, 8)
    assert frames.sum() == 1.0
    # plane 1 (polarity), row 0, col 1 of window 0
    assert frames[0].reshape(2, 2, 2)[1, 0, 1] == 1.0


def test_bin_two_events_same_cell_normalize_to_one():
    frames = bin_events(events((0, 0, 0, 0), (0, 0, 0, 0)), width=1, height=1, timesteps=2)
    assert frames[0, 0] == 1.0 and frames.sum() == 1.0


def test_bin_even_spread_one_per_window():
    frames = bin_events(events(*[(10 * t, t % 2, 0, t % 2) for t in range(4)]),
                        width=2, height=1, timesteps=4)
    assert np.count_nonzero(frames) == 4
    assert (frames[frames > 0] == 1.0).all()


def random_events(rng, n, width, height, times):
    """``n`` sorted events drawn from ``times`` over a width x height frame."""
    return np.stack([np.sort(rng.choice(times, size=n)), rng.integers(0, width, n),
                     rng.integers(0, height, n), rng.integers(0, 2, n)], axis=1)


def test_bin_matches_bruteforce_oracle():
    rng = np.random.default_rng(13)
    cases = []
    for _ in range(20):  # small frames, spread timestamps
        cases.append((random_events(rng, int(rng.integers(1, 40)), 3, 2, np.arange(1000)),
                      3, 2, int(rng.integers(1, 6))))
    for _ in range(40):  # span 0, a few repeated timestamps, T up to 12, larger frames
        width, height = (int(v) for v in rng.integers(1, 17, size=2))
        times = [np.array([int(rng.integers(0, 10**9))]), np.arange(4),
                 np.arange(0, 10**6, 7), np.arange(10**12, 10**12 + 13)][int(rng.integers(0, 4))]
        cases.append((random_events(rng, int(rng.integers(1, 300)), width, height, times),
                      width, height, int(rng.integers(1, 13))))
    for steps in (1, 2, 3):  # timestamps near 2**62, span * T just inside int64
        times = 2**62 + np.array([0, 1, 2**61 // 3, 2**61 // 3 + 1, 2**61 - 1, 2**61 + 12345])
        cases.append((random_events(rng, 50, 2, 2, times), 2, 2, steps))
    for ev, width, height, steps in cases:
        got = bin_events(ev, width=width, height=height, timesteps=steps)
        raw, want = bin_reference(ev, width, height, steps)
        assert raw.sum() == len(ev)  # conservation before normalization
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_bin_last_window_right_closed():
    frames = bin_events(events((0, 0, 0, 0), (100, 1, 0, 0)), width=2, height=1, timesteps=4)
    assert frames[3].reshape(2, 1, 2)[0, 0, 1] == 1.0


def test_bin_errors():
    with pytest.raises(DataError, match="empty"):
        bin_events(events(), 2, 2, 3)
    with pytest.raises(DataError, match="order"):
        bin_events(events((5, 0, 0, 0), (1, 0, 0, 0)), 2, 2, 3)
    with pytest.raises(DataError, match="outside"):
        bin_events(events((0, 5, 0, 0)), 2, 2, 3)
    # the lowest offending index is named, whichever check it fails
    with pytest.raises(DataError, match=r"^event 1 out of order \(t=3 < 5\)$"):
        bin_events(events((5, 0, 0, 0), (3, 0, 0, 0), (6, 0, 9, 0)), 2, 2, 3)
    with pytest.raises(DataError, match=r"^event 1 at \(0, 9\) outside 2x2 frame$"):
        bin_events(events((5, 0, 0, 0), (6, 0, 9, 0), (3, 0, 0, 0)), 2, 2, 3)
    # at one index, order is checked before the frame, the frame before polarity
    with pytest.raises(DataError, match=r"^event 1 out of order \(t=3 < 5\)$"):
        bin_events(events((5, 0, 0, 0), (3, 7, 0, 2)), 2, 2, 3)
    with pytest.raises(DataError, match=r"^event 1 at \(7, 0\) outside 2x2 frame$"):
        bin_events(events((5, 0, 0, 0), (6, 7, 0, 2)), 2, 2, 3)
    # a span, or span * T, past int64 is refused
    near = events((2**62, 0, 0, 0), (2**62 + 2**61 + 12345, 0, 0, 1))
    with pytest.raises(DataError, match=r"^event span \d+ us times 4 overflows int64$"):
        bin_events(near, 1, 1, 4)
    with pytest.raises(DataError, match="overflows int64"):
        bin_events(events((-(2**62) - 5, 0, 0, 0), (2**62 + 5, 0, 0, 1)), 1, 1, 1)
    for pol in (2, -1):
        message = rf"^event 2 polarity must be 0 or 1, got {pol}$"
        with pytest.raises(DataError, match=message):
            bin_events(events((0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 0, pol), (1, 9, 0, 0)), 2, 2, 3)


def test_load_event_dir_layout(tmp_path):
    for cname in ("b_class", "a_class"):
        d = tmp_path / cname
        d.mkdir()
        for i in range(6):
            write_events(d / f"s{i}.csv", [(0, 0, 0, 0), (9, 1, 1, 1)])
    train, test = load_event_dir(tmp_path, width=2, height=2, timesteps=2)
    # sorted dirs: a_class -> 0, b_class -> 1; file index 4 of each -> test
    assert len(train) == 10 and len(test) == 2
    assert sorted(test.labels.tolist()) == [0, 1]
    assert train.inputs.shape[1:] == test.inputs.shape[1:] == (2, 8)
    assert train.labels.tolist() == [0] * 5 + [1] * 5


def test_load_event_dir_errors(tmp_path):
    with pytest.raises(DataError, match="no class"):
        load_event_dir(tmp_path, 2, 2, 2)
    (tmp_path / "empty_class").mkdir()
    with pytest.raises(DataError, match="no .csv"):
        load_event_dir(tmp_path, 2, 2, 2)


@pytest.mark.parametrize("rows, message", [
    ([], "empty event list"),
    ([(0, 0, 0, 0), (1, 3, 1, 0)], r"event 1 at \(3, 1\) outside 2x2 frame"),
    ([(-(2**62), 0, 0, 0), (2**62, 0, 0, 0)],
     "event span 9223372036854775808 us times 2 overflows int64"),
    # order and polarity are binning checks, not per-line parser checks
    ([(5, 0, 0, 0), (3, 0, 0, 0)], r"event 1 out of order \(t=3 < 5\)"),
    ([(0, 0, 0, 2)], "event 0 polarity must be 0 or 1, got 2"),
])
def test_load_event_dir_binning_errors_name_the_file(tmp_path, rows, message):
    write_event_classes(tmp_path, files_per_class=1)
    bad = tmp_path / "b_class" / "s0.csv"
    write_events(bad, rows)
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: {message}$"):
        load_event_dir(tmp_path, 2, 2, 2)


# -- the held-out split alone --------------------------------------------------------


def assert_test_split_alone(cfg):
    """``load_test_split`` returns ``load_dataset(cfg).test`` bit for bit."""
    want = load_dataset(cfg).test
    got = load_test_split(cfg)
    assert np.array_equal(got.inputs, want.inputs)
    assert np.array_equal(got.labels, want.labels)
    assert got.inputs.tobytes() == want.inputs.tobytes()
    assert got.inputs.shape == want.inputs.shape and got.labels.dtype == want.labels.dtype
    return got


@pytest.mark.parametrize("overrides", [
    {"network.timesteps": "1", "data.samples_per_class": "4"},
    {"data.samples_per_class": "2"},
    {"data.samples_per_class": "1"},  # four samples, none held out
    {"data.dim": "6", "data.classes": "3", "data.samples_per_class": "7"},
    {"data.dim": "64", "data.samples_per_class": "7", "data.noise_sigma": "0.5"},
])
def test_synth_test_split_alone_matches_load_dataset(overrides):
    assert_test_split_alone(build_run_config(overrides))


def test_idx_test_split_alone_matches_load_dataset(tmp_path):
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    img, lbl = write_idx_pair(tmp_path / "train", list(range(0, 240, 10)),
                              [0, 0, 2, 0, 0, 0], rows=2, cols=2)
    test_img, test_lbl = write_idx_pair(tmp_path / "test", list(range(7, 87, 10)),
                                        [2, 1], rows=2, cols=2)
    held_out = {"data.kind": "idx", "data.images": str(img), "data.labels": str(lbl),
                "network.timesteps": "3"}
    assert assert_test_split_alone(build_run_config(held_out)).labels.tolist() == [0]
    given = dict(held_out, **{"data.test_images": str(test_img),
                              "data.test_labels": str(test_lbl)})
    assert assert_test_split_alone(build_run_config(given)).labels.tolist() == [2, 1]
    # with test files given, the training files are not read
    given["data.images"] = str(tmp_path / "missing.idx")
    assert len(load_test_split(build_run_config(given))) == 2


def write_event_classes(root, files_per_class):
    for c, cname in enumerate(("a_class", "b_class")):
        (root / cname).mkdir()
        for i in range(files_per_class):
            write_events(root / cname / f"s{i}.csv",
                         [(0, i % 2, c, 0), (5 + i % 4, 1, 1 - c, 1), (9, 0, 0, i % 2)])


def test_event_test_split_alone_matches_load_dataset(tmp_path):
    write_event_classes(tmp_path, files_per_class=11)
    cfg = build_run_config({"data.kind": "events", "data.events_dir": str(tmp_path),
                            "data.width": "2", "data.height": "2", "network.timesteps": "3"})
    assert assert_test_split_alone(cfg).labels.tolist() == [0, 0, 1, 1]


def test_event_test_split_bins_only_held_out_files(tmp_path):
    write_event_classes(tmp_path, files_per_class=5)
    (tmp_path / "a_class" / "s0.csv").write_text("not an event file\n")
    cfg = build_run_config({"data.kind": "events", "data.events_dir": str(tmp_path),
                            "data.width": "2", "data.height": "2", "network.timesteps": "2"})
    with pytest.raises(DataError, match="s0.csv"):
        load_dataset(cfg)
    assert load_test_split(cfg).labels.tolist() == [0, 1]


def test_loaders_build_exactly_the_asked_splits(tmp_path):
    """The split loaders return the splits asked for, in the order asked,
    each equal to its two-split twin."""
    spec = DataSpec(classes=3, dim=6, drift_strength=0.0, noise_sigma=0.3,
                    samples_per_class=5)
    write_event_classes(tmp_path, files_per_class=6)
    for load in (lambda splits: synth_generate(spec, 2, splits),
                 lambda splits: load_event_dir(tmp_path, 2, 2, 2, splits)):
        train, test = load((False, True))
        for splits, want in (((True,), [test]), ((True, False), [test, train]), ((), [])):
            got = load(splits)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.inputs.tobytes() == w.inputs.tobytes()
                assert np.array_equal(g.labels, w.labels)
