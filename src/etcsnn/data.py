"""Dataset plumbing: the dataset record, drifting synthetic generator, IDX
ingestion, and event-stream CSV binning.

``DataSpec`` is the one record of the ``data.*`` config keys and their one
range check: a value out of range is a ``ConfigError`` naming its key.  The
synthetic generator reads that record and refuses a knob that overflows its
inputs with a ``ConfigError`` of its own.

One format runs from every loader to the forward: a ``Split`` holds a
split's input currents as one (N, T, dim) float64 array and its labels as
one (N,) int64 array, checked once when it is built.  ``load_idx`` returns
static pixels, its two files read by one header reader; the trainer
broadcasts them over the time axis.  An event file is one (n, 4) int64
array: ``parse_event_csv`` checks each line's fields, and ``bin_events``
checks order, frame bounds and polarity over the whole array and bins it at
once.  Every kind holds out its test split by the one rule ``held_out``, and
the split loaders build only the splits they are asked for.  Whatever a
loader rejects in a file, from its magic or length to a non-UTF-8 line or an
event outside its frame, is one ``DataError`` whose message names the file.

The synthetic task is the desk-scale stand-in for neuromorphic data: every
class has a fixed unit-norm base pattern, and timestep t blends that pattern
toward a timestep-dependent nuisance direction shared by all classes, so late
slices carry less class information and the per-timestep corruption differs
from step to step.  All randomness is keyed off ``(seed, stream, sample
index)`` so generation is order-independent and bit-reproducible: sample
``idx``'s noise is exactly what ``np.random.default_rng([seed, 3, idx])``
draws.  No SeedSequence is built per sample: etcsnn computes a split's
SeedSequence words in one vectorised pass, and numpy seeds each sample's
PCG64 from its row of them.  numpy's own ``SeedSequence`` and ``default_rng``
are the tests' oracles for those words and the state they seed.  Each
sample's noise is drawn in place, straight into its row of the split, and
scaled and shifted there: ``standard_normal`` yields the draws ``normal``
would, and no split-sized temporary is built.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "DATA_KINDS",
    "DataSpec",
    "Split",
    "DataError",
    "held_out",
    "synth_generate",
    "load_idx",
    "parse_event_csv",
    "bin_events",
    "load_event_dir",
]


class ConfigError(ValueError):
    """Bad key, unparsable value, or constraint violation; names the key."""


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config key {key}: {message}")


DATA_KINDS = ("synth", "idx", "events")


@dataclass(frozen=True)
class DataSpec:
    """Which dataset to use and how to build/load it: one field per
    ``data.*`` key, each range-checked here, in key order."""

    kind: str = "synth"
    classes: int = 4
    dim: int = 64
    # Defaults put the task in the regime where late timesteps are strongly
    # corrupted by time-varying nuisance, so per-timestep consistency has
    # something real to repair: a plain mean-CE baseline loses >10 points of
    # single-step accuracy here while the full-length accuracy saturates.
    drift_strength: float = 4.0
    noise_sigma: float = 0.2
    samples_per_class: int = 625
    seed: int = 0
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    events_dir: str = ""
    width: int = 0
    height: int = 0

    def __post_init__(self):
        _require(self.kind in DATA_KINDS, "data.kind", f"must be one of {DATA_KINDS}")
        _require(self.classes >= 2, "data.classes", "must be >= 2")
        _require(self.dim >= self.classes, "data.dim", "must be >= data.classes")
        # the input width is a u32 shape field in every checkpoint
        _require(self.dim < 2**32, "data.dim", "must be < 2**32")
        _require(self.drift_strength >= 0, "data.drift_strength", "must be >= 0")
        _require(self.noise_sigma >= 0, "data.noise_sigma", "must be >= 0")
        _require(self.samples_per_class >= 1, "data.samples_per_class", "must be >= 1")
        # a sample's index is one 32-bit word of its noise seed
        _require(self.classes * self.samples_per_class <= 2**32,
                 "data.samples_per_class", "times data.classes must be <= 2**32")
        _require(self.seed >= 0, "data.seed", "must be >= 0")
        _require(self.width >= 0, "data.width", "must be >= 0")
        _require(self.height >= 0, "data.height", "must be >= 0")
        # 2 * width * height is an event frame's input width: data.dim's u32 bound
        _require(2 * self.width * self.height < 2**32,
                 "data.width", "times data.height, times 2 polarities, must be < 2**32")


class DataError(Exception):
    """A dataset the loaders reject.  Raised by a loader, the message names
    the file (both files of an IDX pair); ``bin_events`` alone, which takes
    an array, names the event."""


@dataclass(frozen=True, eq=False)
class Split:
    """One dataset split: input currents ``inputs`` (N, T, dim) and labels
    ``labels`` (N,), checked once for the whole split."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 3:
            raise ValueError(f"inputs must be (N, T, dim), got {inputs.shape}")
        if labels.shape != inputs.shape[:1]:
            raise ValueError(f"{labels.shape} labels for {inputs.shape[0]} samples")
        # min/max propagate NaN and reach any infinity without a full-size mask
        if inputs.size and not np.isfinite([inputs.min(), inputs.max()]).all():
            raise ValueError("non-finite values in inputs")
        if labels.size and labels.min() < 0:
            raise ValueError(f"negative label {labels.min()}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, index: slice) -> Split:
        return Split(self.inputs[index], self.labels[index])


# -- synthetic drifting task ---------------------------------------------------

_STREAM_BASES = 1
_STREAM_NUISANCE = 2
_STREAM_NOISE = 3


def _class_bases(spec: DataSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, _STREAM_BASES])
    bases = rng.normal(size=(spec.classes, spec.dim))
    return bases / np.linalg.norm(bases, axis=1, keepdims=True)


def _nuisance_directions(spec: DataSpec, steps: int) -> np.ndarray:
    """One unit-norm nuisance direction per timestep, identical for all classes."""
    rng = np.random.default_rng([spec.seed, _STREAM_NUISANCE])
    u = rng.normal(size=(steps, spec.dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


# numpy's SeedSequence constants (O'Neill's seed_seq_fe, a pool of four uint32 words)
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _seed_words(n: int) -> list[int]:
    """A non-negative integer as numpy splits a seed: little-endian uint32
    words, at least one."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's multiplicative hash over uint32 lanes; every call steps
    the shared constant, as numpy does within one seed sequence."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(_SEED_MIX_L) - y * np.uint32(_SEED_MIX_R)
    return mixed ^ mixed >> 16


def _noise_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence([seed, _STREAM_NOISE, idx]).generate_state(4,
    np.uint64)`` for every ``idx`` in ``indices``, as the rows of one (N, 4)
    uint64 array, without building one.

    One lane per index: SeedSequence's entropy pool and its output hash run
    in uint32 lanes.  An index takes one entropy word, so indices must stay
    below 2**32 rather than wrap.
    """
    if indices.size and int(indices.max()) > _MASK32:
        raise ValueError(f"sample index {int(indices.max())} does not fit 32 bits")
    entropy = [np.full(indices.size, w, np.uint32) for w in _seed_words(seed)]
    entropy += [np.full(indices.size, _STREAM_NOISE, np.uint32), indices.astype(np.uint32)]
    # a pool larger than the entropy hashes zeros into its remaining words
    entropy += [np.zeros(indices.size, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_SEED_INIT_A, _SEED_MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _hasher(_SEED_INIT_B, _SEED_MULT_B)
    words = np.stack([hash_out(pool[i % 4]) for i in range(8)], axis=1, dtype="<u4")
    # generate_state(4, uint64) pairs the words little-endian; PCG64 reads
    # native uint64, which only a big-endian host must byte-swap to
    return words.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seeded_by():
    """The seed-sequence class that hands numpy one row of ``_noise_words``:
    ``np.random.PCG64(_seeded_by()(row))`` seeds as ``PCG64(SeedSequence(
    [seed, _STREAM_NOISE, idx]))`` does.  Defined on first use, because
    importing ``numpy.random`` at module level would load it with etcsnn."""
    from numpy.random.bit_generator import ISeedSequence

    class SeededBy(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly this; anything else would seed silently wrong
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"only generate_state(4, uint64), not ({n_words}, {dtype})")
            return self.words

    return SeededBy


def held_out(labels: np.ndarray) -> np.ndarray:
    """The hold-out rule of every data kind: an item belongs to the test split
    when it is the 5th, 10th, ... item of its own class in ``labels``' order."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    test = np.empty(ranked.size, dtype=bool)
    # an item's rank within its class: its sorted position less its class's first
    test[order] = (np.arange(ranked.size) - np.searchsorted(ranked, ranked)) % 5 == 4
    return test


@np.errstate(over="ignore", invalid="ignore")  # the inputs are checked below
def synth_generate(spec: DataSpec, steps: int, splits=(False, True)) -> tuple[Split, ...]:
    """The drifting-class dataset of ``spec``'s synthetic-task keys over
    ``steps`` timesteps: the splits named by ``splits`` (False: the training
    split, True: the held-out test split), and only those.

    Sample ``idx`` has label ``idx % classes``; ``held_out`` picks the test
    samples.  Timestep t (0-based) of a class-c sample is

        (1 - w_t) * base_c + w_t * nuisance_t + sigma * noise,

    with w_t = drift_strength * t / (T - 1)  (w_t = 0 when T = 1).  Each
    timestep blends toward its own nuisance direction, so the corruption a
    fixed network sees is different at every step — time-varying junk that
    shared weights cannot subtract per-step.  Inputs that overflow are a
    ConfigError naming the key to blame, data.drift_strength or data.noise_sigma.
    """
    w = spec.drift_strength * np.arange(steps) / max(steps - 1, 1)
    # the noise-free (classes, T, dim) blend, shared by every sample of a class
    clean = (1.0 - w)[None, :, None] * _class_bases(spec)[:, None, :] + (
        w[:, None] * _nuisance_directions(spec, steps)
    )
    indices = np.arange(spec.classes * spec.samples_per_class)
    test = held_out(indices % spec.classes)
    seeded_by = _seeded_by()
    built = []
    for want in splits:
        members = indices[test == want]
        inputs = np.empty((members.size, steps, spec.dim))
        labels = members % spec.classes
        for row, words in zip(inputs, _noise_words(spec.seed, members)):
            rng = np.random.Generator(np.random.PCG64(seeded_by(words)))
            # normal(size=...) draws these same standard normals, as 0 + 1 * z
            rng.standard_normal(out=row)
        inputs *= spec.noise_sigma
        # held_out keeps or drops the k-th sample of every class alike, so a split is
        # whole blocks of `classes` consecutive samples, labelled 0..classes-1
        inputs.reshape(-1, spec.classes, steps, spec.dim)[...] += clean
        try:
            built.append(Split(inputs, labels))
        except ValueError:  # non-finite inputs: the blend or the noise overflowed
            knob = "noise_sigma" if np.isfinite(clean).all() else "drift_strength"
            raise ConfigError(
                f"config key data.{knob}: {getattr(spec, knob)!r} overflows the inputs"
            ) from None
    return tuple(built)


def read_utf8(path, error) -> str:
    """The text of ``path``; one ``error`` naming it if that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# -- IDX static images ----------------------------------------------------------

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path, magic: int, what: str, dims: int) -> np.ndarray:
    """The uint8 body of a big-endian IDX file with ``dims`` sizes in its
    header, shaped by them; ``what`` names one item in the messages."""
    blob = Path(path).read_bytes()
    header = 4 * (1 + dims)
    if len(blob) < header:
        raise DataError(f"{path}: too short for an IDX {what} header")
    found, *shape = struct.unpack(f">{1 + dims}I", blob[:header])
    if found != magic:
        raise DataError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    expected = header + math.prod(shape)
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {shape[0]} {what}s, found {len(blob)}"
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Standard big-endian IDX pair -> flattened [0,1] pixels (N, rows*cols)
    and labels (N,)."""
    images = _read_idx(images_path, _IDX_IMAGE_MAGIC, "image", dims=3)
    labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, "label", dims=1)
    n_images, rows, cols = images.shape
    if n_images != labels.size:
        raise DataError(f"{images_path}, {labels_path}: {n_images} images vs {labels.size} labels")
    pixels = images.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    return pixels, labels.astype(np.int64)


# -- event streams ---------------------------------------------------------------

_EVENT_HEADER = "t_us,x,y,polarity"
_INT64 = np.iinfo(np.int64)
# an integer field as np.loadtxt reads one: int() alone also takes "1_000" and non-ASCII digits
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_event_csv(path) -> np.ndarray:
    """Event CSV with exact header ``t_us,x,y,polarity`` -> an (n, 4) int64 array
    of rows, read by one ``np.loadtxt`` call; a per-line pass names the first line
    of a file numpy refuses that is not four int64 fields.  Order and values are
    ``bin_events``' checks."""
    lines = read_utf8(path, DataError).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    if lines[0] != _EVENT_HEADER:
        raise DataError(f"{path}: first line must be {_EVENT_HEADER!r}, got {lines[0]!r}")
    try:  # as errors: numpy 1.x's warning as it truncates "1.5" or 2**63, and "no data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = np.loadtxt(lines[1:], dtype=np.int64, delimiter=",", ndmin=2, comments=None)
        if events.shape[1] == 4:
            return events
    except (ValueError, Warning):
        pass
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"{path}:{ln}: expected 4 fields, got {len(parts)}")
        if not all(map(_INT_FIELD.fullmatch, parts)):
            raise DataError(f"{path}:{ln}: non-integer field in {line!r}")
        row = [int(p) for p in parts]
        if min(row) < _INT64.min or max(row) > _INT64.max:
            raise DataError(f"{path}:{ln}: field does not fit int64 in {line!r}")
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def bin_events(events: np.ndarray, width: int, height: int, timesteps: int) -> np.ndarray:
    """Bin a sorted (n, 4) ``(t_us, x, y, polarity)`` event array into T
    frames, flattened to (T, 2*H*W).

    The span [t_min, t_max] is cut into T equal windows (last right-closed):
    event i falls in ``min((t_i - t_min) * T // span, T - 1)``.  Counts are
    divided by each window's max count, zero windows left alone.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    events = np.asarray(events, dtype=np.int64)
    if not events.size:
        raise DataError("empty event list")
    t, x, y, pol = events.T
    # the lowest offending index is named; at one index, order is checked first
    disorder = np.concatenate(([False], t[1:] < t[:-1]))
    outside = (x < 0) | (x >= width) | (y < 0) | (y >= height)
    bad = np.flatnonzero(disorder | outside | (pol != 0) & (pol != 1))
    if bad.size:
        i = bad[0]
        if disorder[i]:
            raise DataError(f"event {i} out of order (t={t[i]} < {t[i - 1]})")
        if outside[i]:
            raise DataError(f"event {i} at ({x[i]}, {y[i]}) outside {width}x{height} frame")
        raise DataError(f"event {i} polarity must be 0 or 1, got {pol[i]}")
    span = int(t[-1]) - int(t[0])
    if span * timesteps > _INT64.max:
        raise DataError(f"event span {span} us times {timesteps} overflows int64")
    window = np.minimum((t - t[0]) * timesteps // max(span, 1), timesteps - 1)
    cell = ((window * 2 + pol) * height + y) * width + x
    counts = np.bincount(cell, minlength=timesteps * 2 * height * width).reshape(timesteps, -1)
    peak = counts.max(axis=1, keepdims=True)
    return np.divide(counts, peak, out=np.zeros(counts.shape), where=peak > 0)


def load_event_dir(
    dir_path, width: int, height: int, timesteps: int, splits=(False, True)
) -> tuple[Split, ...]:
    """The splits named by ``splits`` (False: train, True: test) of an event
    directory: one subdirectory per class (sorted name order = label order),
    CSV files inside; ``held_out`` picks each class's test files (sorted), and
    only the files of the asked-for splits are binned; errors name the file."""
    root = Path(dir_path)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DataError(f"{dir_path}: no class subdirectories")
    files = []  # (label, path) of every file, class by class
    for label, cdir in enumerate(class_dirs):
        paths = sorted(cdir.glob("*.csv"))
        if not paths:
            raise DataError(f"{cdir}: class directory has no .csv files")
        files += zip([label] * len(paths), paths)
    test = held_out(np.array([label for label, _ in files])).tolist()
    built = []
    for want in splits:
        members = [file for file, held in zip(files, test) if held == want]
        inputs = np.empty((len(members), timesteps, 2 * height * width))
        for row, (_, path) in enumerate(members):
            events = parse_event_csv(path)
            try:
                inputs[row] = bin_events(events, width, height, timesteps)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
        built.append(Split(inputs, [label for label, _ in members]))
    return tuple(built)
