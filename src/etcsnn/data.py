"""Dataset plumbing: drifting synthetic generator and its binary dump, IDX
ingestion, and event-stream CSV binning.

One format runs from every loader to the forward: a ``Split`` holds a
split's input currents as one (N, T, dim) float64 array and its labels as
one (N,) int64 array, checked once when it is built.  ``load_idx`` returns
static pixels; the trainer repeats them over the time axis.

The synthetic task is the desk-scale stand-in for neuromorphic data: every
class has a fixed unit-norm base pattern, and timestep t blends that pattern
toward a timestep-dependent nuisance direction shared by all classes, so late
slices carry less class information and the per-timestep corruption differs
from step to step.  All randomness is keyed off ``(seed, stream, sample
index)`` so generation is order-independent and bit-reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Split",
    "SynthSpec",
    "EventRecord",
    "DataError",
    "IdxError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "EventFormatError",
    "DatasetDumpError",
    "synth_generate",
    "save_synth_dataset",
    "load_synth_dataset",
    "load_idx",
    "parse_event_csv",
    "bin_events",
    "load_event_dir",
]


class DataError(Exception):
    """Base for everything the loaders can reject."""


class IdxError(DataError):
    pass


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


class EventFormatError(DataError):
    pass


class DatasetDumpError(DataError):
    pass


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


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 4
    input_dim: int = 64
    timesteps: int = 10
    drift_strength: float = 0.0
    noise_sigma: float = 0.0
    samples_per_class: int = 625
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        if self.input_dim < self.classes:
            raise ValueError(
                f"input_dim {self.input_dim} must be >= classes {self.classes}"
            )
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.drift_strength < 0:
            raise ValueError("drift_strength must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")


def _class_bases(spec: SynthSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, _STREAM_BASES])
    bases = rng.normal(size=(spec.classes, spec.input_dim))
    return bases / np.linalg.norm(bases, axis=1, keepdims=True)


def _nuisance_directions(spec: SynthSpec) -> np.ndarray:
    """One unit-norm nuisance direction per timestep, identical for all classes."""
    rng = np.random.default_rng([spec.seed, _STREAM_NUISANCE])
    u = rng.normal(size=(spec.timesteps, spec.input_dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def synth_generate(spec: SynthSpec) -> tuple[Split, Split]:
    """Generate the drifting-class dataset, 80/20 train/test split.

    Sample ``idx`` has label ``idx % classes``; every 5th index goes to the
    test split, so both splits stay class-balanced whenever the total count
    divides evenly.  Timestep t (0-based) of a class-c sample is

        (1 - w_t) * base_c + w_t * nuisance_t + sigma * noise,

    with w_t = drift_strength * t / (T - 1)  (w_t = 0 when T = 1).  Each
    timestep blends toward its own nuisance direction, so the corruption a
    fixed network sees is different at every step — time-varying junk that
    shared weights cannot subtract per-step.
    """
    steps = spec.timesteps
    w = spec.drift_strength * np.arange(steps) / max(steps - 1, 1)
    # the noise-free (classes, T, dim) blend, shared by every sample of a class
    clean = (1.0 - w)[None, :, None] * _class_bases(spec)[:, None, :] + (
        w[:, None] * _nuisance_directions(spec)
    )
    indices = np.arange(spec.classes * spec.samples_per_class)
    splits = []
    for members in (indices[indices % 5 != 4], indices[indices % 5 == 4]):
        inputs = np.empty((members.size, steps, spec.input_dim))
        labels = members % spec.classes
        for row, idx in enumerate(members.tolist()):
            rng = np.random.default_rng([spec.seed, _STREAM_NOISE, idx])
            noise = rng.normal(size=(steps, spec.input_dim))
            inputs[row] = clean[labels[row]] + spec.noise_sigma * noise
        splits.append(Split(inputs, labels))
    return splits[0], splits[1]


# -- synthetic dataset dump ----------------------------------------------------

_DUMP_MAGIC = b"ETCSYND1"

_SPEC_FIELDS = (
    "classes",
    "input_dim",
    "timesteps",
    "drift_strength",
    "noise_sigma",
    "samples_per_class",
    "seed",
)


def _spec_text(spec: SynthSpec) -> str:
    return "".join(f"{k}={getattr(spec, k)!r}\n" for k in _SPEC_FIELDS)


def _spec_from_text(text: str) -> SynthSpec:
    fields = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        if key not in _SPEC_FIELDS:
            raise DatasetDumpError(f"unknown spec field {key!r} in dump")
        caster = float if key in ("drift_strength", "noise_sigma") else int
        fields[key] = caster(raw)
    missing = [k for k in _SPEC_FIELDS if k not in fields]
    if missing:
        raise DatasetDumpError(f"dump spec missing fields {missing}")
    return SynthSpec(**fields)


def _record_dtype(spec: SynthSpec) -> np.dtype:
    """One dumped sample: its label, then its (T, dim) currents, little-endian."""
    return np.dtype([("label", "<u8"), ("x", "<f8", (spec.timesteps, spec.input_dim))])


def save_synth_dataset(path, spec: SynthSpec, train: Split, test: Split) -> None:
    """Binary dump: magic, spec echo, counts, then one record per sample."""
    text = _spec_text(spec).encode()
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<Q", len(text)))
        fh.write(text)
        fh.write(struct.pack("<QQ", len(train), len(test)))
        for split in (train, test):
            records = np.empty(len(split), dtype=_record_dtype(spec))
            records["label"] = split.labels
            records["x"] = split.inputs
            fh.write(records)


def load_synth_dataset(path) -> tuple[SynthSpec, Split, Split]:
    blob = memoryview(Path(path).read_bytes())  # slices share the file's bytes
    if blob[:8] != _DUMP_MAGIC:
        raise DatasetDumpError(f"bad magic in {path}: not a dataset dump")
    off = 8

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(blob):
            raise DatasetDumpError(f"truncated dataset dump {path}")
        chunk = blob[off : off + n]
        off += n
        return chunk

    (text_len,) = struct.unpack("<Q", take(8))
    try:  # UnicodeDecodeError is a ValueError
        spec = _spec_from_text(bytes(take(text_len)).decode())
    except ValueError as exc:
        raise DatasetDumpError(f"{path}: bad spec text in dataset dump: {exc}") from None
    n_train, n_test = struct.unpack("<QQ", take(16))
    dtype = _record_dtype(spec)
    records = np.frombuffer(take((n_train + n_test) * dtype.itemsize), dtype=dtype)
    if off != len(blob):
        raise DatasetDumpError(f"trailing bytes in dataset dump {path}")
    train, test = (
        Split(part["x"], part["label"]) for part in (records[:n_train], records[n_train:])
    )
    return spec, train, test


# -- IDX static images ----------------------------------------------------------

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Standard big-endian IDX pair -> flattened [0,1] pixels (N, rows*cols)
    and labels (N,)."""
    img_blob = Path(images_path).read_bytes()
    if len(img_blob) < 16:
        raise IdxTruncatedError(f"{images_path}: too short for an IDX image header")
    magic, n_images, rows, cols = struct.unpack(">IIII", img_blob[:16])
    if magic != _IDX_IMAGE_MAGIC:
        raise IdxMagicError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGE_MAGIC:08x}"
        )
    expected = 16 + n_images * rows * cols
    if len(img_blob) != expected:
        raise IdxTruncatedError(
            f"{images_path}: expected {expected} bytes for {n_images} images, "
            f"found {len(img_blob)}"
        )

    lbl_blob = Path(labels_path).read_bytes()
    if len(lbl_blob) < 8:
        raise IdxTruncatedError(f"{labels_path}: too short for an IDX label header")
    magic, n_labels = struct.unpack(">II", lbl_blob[:8])
    if magic != _IDX_LABEL_MAGIC:
        raise IdxMagicError(
            f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_LABEL_MAGIC:08x}"
        )
    if len(lbl_blob) != 8 + n_labels:
        raise IdxTruncatedError(
            f"{labels_path}: expected {8 + n_labels} bytes for {n_labels} labels, "
            f"found {len(lbl_blob)}"
        )
    if n_images != n_labels:
        raise IdxCountMismatchError(f"{n_images} images vs {n_labels} labels")

    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16)
    pixels = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8).astype(np.int64)
    return pixels, labels


# -- event streams ---------------------------------------------------------------

_EVENT_HEADER = "t_us,x,y,polarity"


@dataclass(frozen=True)
class EventRecord:
    t_us: int
    x: int
    y: int
    polarity: int


def parse_event_csv(path) -> list[EventRecord]:
    """Sorted event CSV with exact header ``t_us,x,y,polarity``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise EventFormatError(f"{path}: empty file")
    if lines[0] != _EVENT_HEADER:
        raise EventFormatError(
            f"{path}: first line must be {_EVENT_HEADER!r}, got {lines[0]!r}"
        )
    events = []
    prev_t = None
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise EventFormatError(f"{path}:{ln}: expected 4 fields, got {len(parts)}")
        try:
            t_us, x, y, pol = (int(p) for p in parts)
        except ValueError:
            raise EventFormatError(f"{path}:{ln}: non-integer field in {line!r}") from None
        if pol not in (0, 1):
            raise EventFormatError(f"{path}:{ln}: polarity must be 0 or 1, got {pol}")
        if prev_t is not None and t_us < prev_t:
            raise EventFormatError(f"{path}:{ln}: timestamps not sorted")
        prev_t = t_us
        events.append(EventRecord(t_us=t_us, x=x, y=y, polarity=pol))
    return events


def bin_events(
    events: list[EventRecord], width: int, height: int, timesteps: int
) -> np.ndarray:
    """Bin a sorted event stream into T frames, flattened to (T, 2*H*W).

    The span [t_min, t_max] is cut into T equal windows (last right-closed);
    counts are divided by each window's max count, zero windows left alone.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if not events:
        raise EventFormatError("empty event list")
    t0 = events[0].t_us
    span = events[-1].t_us - t0
    counts = np.zeros((timesteps, 2, height, width))
    prev_t = t0
    for i, ev in enumerate(events):
        if ev.t_us < prev_t:
            raise EventFormatError(f"event {i} out of order (t={ev.t_us} < {prev_t})")
        prev_t = ev.t_us
        if not (0 <= ev.x < width and 0 <= ev.y < height):
            raise EventFormatError(
                f"event {i} at ({ev.x}, {ev.y}) outside {width}x{height} frame"
            )
        if span == 0:
            window = 0
        else:
            window = min((ev.t_us - t0) * timesteps // span, timesteps - 1)
        counts[window, ev.polarity, ev.y, ev.x] += 1.0
    for w in range(timesteps):
        peak = counts[w].max()
        if peak > 0:
            counts[w] /= peak
    return counts.reshape(timesteps, 2 * height * width)


def load_event_dir(dir_path, width: int, height: int, timesteps: int) -> tuple[Split, Split]:
    """One subdirectory per class (sorted name order = label order), CSV files
    inside; every 5th file of a class (sorted) lands in the test split."""
    root = Path(dir_path)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise EventFormatError(f"{dir_path}: no class subdirectories")
    members: tuple[list, list] = ([], [])  # (label, file) of the train and test split
    for label, cdir in enumerate(class_dirs):
        files = sorted(cdir.glob("*.csv"))
        if not files:
            raise EventFormatError(f"{cdir}: class directory has no .csv files")
        for fidx, fpath in enumerate(files):
            members[fidx % 5 == 4].append((label, fpath))
    splits = []
    for part in members:
        inputs = np.empty((len(part), timesteps, 2 * height * width))
        for row, (_, fpath) in enumerate(part):
            inputs[row] = bin_events(parse_event_csv(fpath), width, height, timesteps)
        splits.append(Split(inputs, [label for label, _ in part]))
    return splits[0], splits[1]
