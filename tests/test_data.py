"""Synthetic generator, dataset splits, IDX loading, constant coding, event
binning."""

import hashlib
import struct

import numpy as np
import pytest

from etcsnn.data import (
    DatasetDumpError,
    EventFormatError,
    EventRecord,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    Split,
    SynthSpec,
    bin_events,
    load_event_dir,
    load_idx,
    load_synth_dataset,
    parse_event_csv,
    save_synth_dataset,
    synth_generate,
)
from etcsnn.cli import run_cli
from etcsnn.data import _STREAM_NOISE, _class_bases, _nuisance_directions
from etcsnn.train import ConfigError, build_run_config, load_dataset

SMALL = SynthSpec(classes=3, input_dim=8, timesteps=4, samples_per_class=10, seed=7)


# -- synthetic generator --------------------------------------------------------


def samples(*splits):
    """(input sequence, label) of every sample of ``splits``, in order."""
    return [(x, int(y)) for s in splits for x, y in zip(s.inputs, s.labels)]


def test_degenerate_spec_gives_identical_slices_and_samples():
    train, test = synth_generate(SMALL)  # drift 0, sigma 0
    by_class = {}
    for seq, label in samples(train, test):
        for t in range(1, SMALL.timesteps):
            assert np.array_equal(seq[t], seq[0])
        if label in by_class:
            assert np.array_equal(seq, by_class[label])
        else:
            by_class[label] = seq
    # distinct classes get distinct patterns
    assert not np.array_equal(by_class[0], by_class[1])


def test_zero_drift_noise_is_independent_per_slice():
    spec = SynthSpec(classes=2, input_dim=8, timesteps=3, noise_sigma=0.5,
                     samples_per_class=5, seed=1)
    train, _ = synth_generate(spec)
    seq = train.inputs[0]
    assert not np.array_equal(seq[0], seq[1])
    assert not np.array_equal(seq[1], seq[2])


def test_same_seed_twice_is_byte_identical():
    spec = SynthSpec(classes=2, input_dim=8, timesteps=3, drift_strength=0.5,
                     noise_sigma=0.3, samples_per_class=6, seed=11)
    a_train, a_test = synth_generate(spec)
    b_train, b_test = synth_generate(spec)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.inputs.tobytes() == b.inputs.tobytes()


def test_different_seed_differs():
    a, _ = synth_generate(SMALL)
    b, _ = synth_generate(SynthSpec(classes=3, input_dim=8, timesteps=4,
                                    samples_per_class=10, seed=8))
    assert not np.array_equal(a.inputs[0], b.inputs[0])


def test_default_split_is_2000_500_and_balanced():
    train, test = synth_generate(SynthSpec())
    assert len(train) == 2000 and len(test) == 500
    for split, per_class in ((train, 500), (test, 125)):
        counts = np.bincount(split.labels, minlength=4)
        assert (counts == per_class).all()


def test_shapes_match_spec():
    train, test = synth_generate(SMALL)
    for split in (train, test):
        assert split.inputs.shape[1:] == (SMALL.timesteps, SMALL.input_dim)
        assert split.inputs.dtype == np.float64 and split.labels.dtype == np.int64
        assert ((0 <= split.labels) & (split.labels < SMALL.classes)).all()


def test_full_drift_makes_last_slice_class_independent():
    spec = SynthSpec(classes=3, input_dim=8, timesteps=4, drift_strength=1.0,
                     samples_per_class=5, seed=3)
    train, _ = synth_generate(spec)
    last = train.inputs[:3, -1]  # one per class
    assert np.array_equal(last[0], last[1]) and np.array_equal(last[1], last[2])
    firsts = train.inputs[:3, 0]
    assert not np.array_equal(firsts[0], firsts[1])


def test_noisy_set_still_nearest_mean_separable():
    spec = SynthSpec(classes=4, input_dim=16, timesteps=3, noise_sigma=0.05,
                     samples_per_class=25, seed=5)
    train, test = synth_generate(spec)
    means = np.stack([
        np.mean([seq.mean(axis=0) for seq, label in samples(train) if label == c], axis=0)
        for c in range(spec.classes)
    ])
    hits = sum(
        int(np.argmin(((seq.mean(axis=0) - means) ** 2).sum(axis=1)) == label)
        for seq, label in samples(test)
    )
    assert hits == len(test)


def reference_sample(spec, idx):
    """Sample ``idx`` built one timestep at a time from the formula."""
    bases = _class_bases(spec)
    u = _nuisance_directions(spec)
    noise = np.random.default_rng([spec.seed, _STREAM_NOISE, idx]).normal(
        size=(spec.timesteps, spec.input_dim)
    )
    seq = np.empty((spec.timesteps, spec.input_dim))
    for t in range(spec.timesteps):
        w = 0.0 if spec.timesteps == 1 else spec.drift_strength * t / (spec.timesteps - 1)
        seq[t] = (1.0 - w) * bases[idx % spec.classes] + w * u[t] + spec.noise_sigma * noise[t]
    return seq


@pytest.mark.parametrize("timesteps", [1, 4, 10])
@pytest.mark.parametrize("drift", [0.0, 1.0, 4.0])
def test_generator_matches_per_step_formula_bitwise(timesteps, drift):
    spec = SynthSpec(classes=3, input_dim=8, timesteps=timesteps, drift_strength=drift,
                     noise_sigma=0.3, samples_per_class=4, seed=2)
    train, test = synth_generate(spec)
    got = samples(train, test)
    order = [i for i in range(12) if i % 5 != 4] + [i for i in range(12) if i % 5 == 4]
    assert [label for _, label in got] == [i % 3 for i in order]
    for (seq, _), idx in zip(got, order):
        assert seq.tobytes() == reference_sample(spec, idx).tobytes()


# The sha256 of an ``etcsnn synth`` dump, pinned from the generator that built
# one sample and one timestep at a time: any change to the bytes fails here.
GOLDEN_SPEC = ("classes=3", "dim=6", "timesteps=4", "drift_strength=1.5",
               "noise_sigma=0.25", "samples_per_class=5", "seed=2")
GOLDEN_SHA256 = "da371f6f1634d7eb05adf0caa630556a9a72c2d9c360856711a3cadd4daf9ac3"


def test_synth_dump_matches_golden_hash(tmp_path):
    out = tmp_path / "golden.bin"
    argv = ["synth", "--out", str(out)]
    for item in GOLDEN_SPEC:
        argv += ["--spec", item]
    assert run_cli(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256


def test_spec_validation():
    with pytest.raises(ValueError, match="classes"):
        SynthSpec(classes=1)
    with pytest.raises(ValueError, match="input_dim"):
        SynthSpec(classes=4, input_dim=3)
    with pytest.raises(ValueError, match="drift"):
        SynthSpec(drift_strength=-0.1)
    with pytest.raises(ValueError, match="timesteps"):
        SynthSpec(timesteps=0)


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


# -- dataset dump ----------------------------------------------------------------


def test_dump_round_trip_and_stability(tmp_path):
    spec = SynthSpec(classes=2, input_dim=4, timesteps=3, drift_strength=0.25,
                     noise_sigma=0.125, samples_per_class=5, seed=9)
    train, test = synth_generate(spec)
    p1 = tmp_path / "d.bin"
    save_synth_dataset(p1, spec, train, test)
    spec2, train2, test2 = load_synth_dataset(p1)
    assert spec2 == spec
    for a, b in ((train, train2), (test, test2)):
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.inputs.tobytes() == b.inputs.tobytes()
    p2 = tmp_path / "again.bin"
    save_synth_dataset(p2, spec2, train2, test2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dump_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTADUMP" + b"\x00" * 64)
    with pytest.raises(DatasetDumpError, match="magic"):
        load_synth_dataset(p)


def test_dump_truncated(tmp_path):
    spec = SynthSpec(classes=2, input_dim=4, timesteps=2, samples_per_class=5)
    train, test = synth_generate(spec)
    p = tmp_path / "d.bin"
    save_synth_dataset(p, spec, train, test)
    blob = p.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[: len(blob) - 7])
    with pytest.raises(DatasetDumpError, match="truncated"):
        load_synth_dataset(tmp_path / "cut.bin")
    (tmp_path / "fat.bin").write_bytes(blob + b"\x00")
    with pytest.raises(DatasetDumpError, match="trailing"):
        load_synth_dataset(tmp_path / "fat.bin")


@pytest.mark.parametrize("old,new", [(b"c", b"\xff"), (b"classes=2", b"classes=x"),
                                     (b"classes=2", b"classes=1")])
def test_dump_bad_spec_text(tmp_path, old, new):
    """Non-UTF-8, unparsable or invalid spec text makes a corrupt dump."""
    spec = SynthSpec(classes=2, input_dim=4, timesteps=2, samples_per_class=5)
    p = tmp_path / "d.bin"
    save_synth_dataset(p, spec, *synth_generate(spec))
    p.write_bytes(p.read_bytes().replace(old, new, 1))
    with pytest.raises(DatasetDumpError, match=r"d\.bin: bad spec text"):
        load_synth_dataset(p)


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
    with pytest.raises(IdxMagicError, match="0x00000804"):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, [255], [3], 1, 1, label_magic=0x802)
    with pytest.raises(IdxMagicError, match="lbls"):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [1, 2, 3, 4], [0], rows=2, cols=2)
    blob = img.read_bytes()
    img.write_bytes(blob[:-2])
    with pytest.raises(IdxTruncatedError, match="expected"):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [10, 20], [0, 1, 2], rows=1, cols=1,
                              label_count=3)
    with pytest.raises(IdxCountMismatchError, match="2 images vs 3 labels"):
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


def test_constant_code_t1_and_validation(tmp_path):
    data = load_idx_dataset(tmp_path, [0, 255], [0], rows=1, cols=2, timesteps=1)
    assert data.train.inputs.shape == (1, 1, 2)
    assert data.classes == 2
    with pytest.raises(ConfigError, match="network.timesteps"):
        load_idx_dataset(tmp_path, [0], [0], rows=1, cols=1, timesteps=0)


def test_idx_without_test_files_holds_out_every_fifth_image(tmp_path):
    img, lbl = write_idx_pair(tmp_path, [0, 10, 20, 30, 40, 50], [0, 1, 0, 1, 3, 1],
                              rows=1, cols=1)
    cfg = build_run_config({"data.kind": "idx", "data.images": str(img),
                            "data.labels": str(lbl), "network.timesteps": "2"})
    data = load_dataset(cfg)
    assert data.train.labels.tolist() == [0, 1, 0, 1, 1]
    assert data.test.labels.tolist() == [3]
    assert data.test.inputs.tolist() == [[[40 / 255], [40 / 255]]]
    assert data.classes == 4


# -- event parsing and binning ---------------------------------------------------------


def write_events(path, rows, header="t_us,x,y,polarity"):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")


def test_parse_event_csv_happy(tmp_path):
    p = tmp_path / "ev.csv"
    write_events(p, [(0, 0, 0, 0), (10, 1, 0, 1), (10, 1, 1, 1)])
    events = parse_event_csv(p)
    assert events == [
        EventRecord(0, 0, 0, 0),
        EventRecord(10, 1, 0, 1),
        EventRecord(10, 1, 1, 1),
    ]


def test_parse_event_csv_errors(tmp_path):
    p = tmp_path / "ev.csv"
    write_events(p, [(0, 0, 0, 0)], header="time,x,y,p")
    with pytest.raises(EventFormatError, match="first line"):
        parse_event_csv(p)
    write_events(p, [(5, 0, 0, 0), (3, 0, 0, 0)])
    with pytest.raises(EventFormatError, match="sorted"):
        parse_event_csv(p)
    write_events(p, [(0, 0, 0, 2)])
    with pytest.raises(EventFormatError, match="polarity"):
        parse_event_csv(p)
    p.write_text("t_us,x,y,polarity\n1,2,xx,0\n")
    with pytest.raises(EventFormatError, match="non-integer"):
        parse_event_csv(p)
    p.write_text("")
    with pytest.raises(EventFormatError, match="empty"):
        parse_event_csv(p)


def bin_reference(events, width, height, timesteps):
    """Independent re-derivation: raw counts, then per-window max division."""
    counts = np.zeros((timesteps, 2, height, width))
    t0, t1 = events[0].t_us, events[-1].t_us
    for ev in events:
        if t1 == t0:
            w = 0
        else:
            frac = (ev.t_us - t0) / (t1 - t0)
            w = min(int(frac * timesteps), timesteps - 1)
        counts[w, ev.polarity, ev.y, ev.x] += 1
    out = counts.copy()
    for w in range(timesteps):
        if counts[w].max() > 0:
            out[w] = counts[w] / counts[w].max()
    return counts, out.reshape(timesteps, 2 * height * width)


def test_bin_single_event_is_one_hot():
    frames = bin_events([EventRecord(5, 1, 0, 1)], width=2, height=2, timesteps=3)
    assert frames.shape == (3, 8)
    assert frames.sum() == 1.0
    # plane 1 (polarity), row 0, col 1 of window 0
    assert frames[0].reshape(2, 2, 2)[1, 0, 1] == 1.0


def test_bin_two_events_same_cell_normalize_to_one():
    events = [EventRecord(0, 0, 0, 0), EventRecord(0, 0, 0, 0)]
    frames = bin_events(events, width=1, height=1, timesteps=2)
    assert frames[0, 0] == 1.0 and frames.sum() == 1.0


def test_bin_even_spread_one_per_window():
    events = [EventRecord(10 * t, t % 2, 0, t % 2) for t in range(4)]
    frames = bin_events(events, width=2, height=1, timesteps=4)
    assert np.count_nonzero(frames) == 4
    assert (frames[frames > 0] == 1.0).all()


def test_bin_matches_bruteforce_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        ts = np.sort(rng.integers(0, 1000, size=n))
        events = [
            EventRecord(int(t), int(rng.integers(0, 3)), int(rng.integers(0, 2)),
                        int(rng.integers(0, 2)))
            for t in ts
        ]
        T = int(rng.integers(1, 6))
        got = bin_events(events, width=3, height=2, timesteps=T)
        raw, want = bin_reference(events, 3, 2, T)
        assert raw.sum() == n  # conservation before normalization
        np.testing.assert_array_equal(got, want)


def test_bin_last_window_right_closed():
    events = [EventRecord(0, 0, 0, 0), EventRecord(100, 1, 0, 0)]
    frames = bin_events(events, width=2, height=1, timesteps=4)
    assert frames[3].reshape(2, 1, 2)[0, 0, 1] == 1.0


def test_bin_errors():
    with pytest.raises(EventFormatError, match="empty"):
        bin_events([], 2, 2, 3)
    with pytest.raises(EventFormatError, match="order"):
        bin_events([EventRecord(5, 0, 0, 0), EventRecord(1, 0, 0, 0)], 2, 2, 3)
    with pytest.raises(EventFormatError, match="outside"):
        bin_events([EventRecord(0, 5, 0, 0)], 2, 2, 3)


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
    with pytest.raises(EventFormatError, match="no class"):
        load_event_dir(tmp_path, 2, 2, 2)
    (tmp_path / "empty_class").mkdir()
    with pytest.raises(EventFormatError, match="no .csv"):
        load_event_dir(tmp_path, 2, 2, 2)
