"""Run orchestration: flat dotted-key configs, the training loop, JSONL
metrics, binary checkpoints, truncated-T evaluation, consistency reports,
and per-timestep output-distribution dumps.

A config's ``data.*`` keys are the fields of ``data.DataSpec``, which checks
their ranges as it is built; ``build_run_config`` parses every key and checks
the rest.  ``ConfigError``, ``DataSpec`` and ``DATA_KINDS`` live in
``etcsnn.data`` and are re-exported here.

A dataset is a pair of ``data.Split``s; training indexes its batches out of
them, and every evaluation is one forward over a split, in groups of whole
batches, through ``_ckpt_forward``, the one place a split is checked against
a checkpoint.  The forward reads every width from the weights and T from
the inputs.  ``load_test_split`` builds the test split alone, for analysis
that scores nothing else.  A checkpoint stores each value once: its embedded
config holds the layer count and the optimizer settings, and its body the
epoch, the weights, the optimizer step and the moments.

Determinism contract: every random draw comes from a generator seeded by
``(train.seed, stream, index)``, so the complete RNG state of a run is the
pair (seed, epochs completed) and checkpoint resume is exact by construction.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .data import (DATA_KINDS, ConfigError, DataSpec, Split, _require, held_out, load_event_dir,
                   load_idx, read_utf8, synth_generate)
from .losses import LOSS_MODES, EtcConfig, kl_metric_values, objective, _softmax_np
from .optim import OptimState, adamw_step, cosine_lr
from .snn import LifParams, NetworkSpec, NonFiniteError, init_weights, lif_backward, lif_unroll

__all__ = [
    "ConfigError",
    "TrainingError",
    "DataSpec",
    "RunConfig",
    "EpochMetrics",
    "Checkpoint",
    "CheckpointError",
    "TrainResult",
    "default_config",
    "config_to_items",
    "config_to_text",
    "build_run_config",
    "parse_config_lines",
    "split_assignment",
    "run_config_from_text",
    "load_dataset",
    "load_test_split",
    "train",
    "train_many",
    "eval_per_timestep",
    "consistency_report",
    "dump_distributions",
    "save_checkpoint",
    "load_checkpoint",
]


class TrainingError(RuntimeError):
    """Run-time failure inside a training run, with epoch/batch context."""


_STREAM_SHUFFLE = 101


@dataclass(frozen=True)
class RunConfig:
    """Complete experiment description; round-trips through flat key=value
    text with bit-exact float echo."""

    data: DataSpec = field(default_factory=DataSpec)
    hidden_sizes: tuple[int, ...] = (64,)
    timesteps: int = 10
    lif: LifParams = field(default_factory=LifParams)
    etc: EtcConfig = field(default_factory=EtcConfig)
    lr_base: float = 0.001
    weight_decay: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    loss_mode: str = "ce_plus_etc"
    save_interval: int = 0
    eval_timesteps: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.eval_timesteps:
            object.__setattr__(
                self, "eval_timesteps", tuple(range(1, self.timesteps + 1))
            )


def default_config() -> RunConfig:
    return RunConfig()


# -- flat config serialization ---------------------------------------------------

_INT, _FLOAT, _STR, _INTS = "int", "float", "str", "ints"

# (dotted key, text type, getter path) -- one row per effective parameter
_CONFIG_TABLE = (
    ("data.kind", _STR, ("data", "kind")),
    ("data.classes", _INT, ("data", "classes")),
    ("data.dim", _INT, ("data", "dim")),
    ("data.drift_strength", _FLOAT, ("data", "drift_strength")),
    ("data.noise_sigma", _FLOAT, ("data", "noise_sigma")),
    ("data.samples_per_class", _INT, ("data", "samples_per_class")),
    ("data.seed", _INT, ("data", "seed")),
    ("data.images", _STR, ("data", "images")),
    ("data.labels", _STR, ("data", "labels")),
    ("data.test_images", _STR, ("data", "test_images")),
    ("data.test_labels", _STR, ("data", "test_labels")),
    ("data.events_dir", _STR, ("data", "events_dir")),
    ("data.width", _INT, ("data", "width")),
    ("data.height", _INT, ("data", "height")),
    ("network.hidden_sizes", _INTS, ("hidden_sizes",)),
    ("network.timesteps", _INT, ("timesteps",)),
    ("lif.tau_m", _FLOAT, ("lif", "tau_m")),
    ("lif.v_th", _FLOAT, ("lif", "v_th")),
    ("lif.v_reset", _FLOAT, ("lif", "v_reset")),
    ("lif.surrogate_a", _FLOAT, ("lif", "surrogate_a")),
    ("etc.tau", _FLOAT, ("etc", "tau")),
    ("etc.lambda", _FLOAT, ("etc", "lam")),
    ("opt.lr", _FLOAT, ("lr_base",)),
    ("opt.weight_decay", _FLOAT, ("weight_decay",)),
    ("opt.beta1", _FLOAT, ("beta1",)),
    ("opt.beta2", _FLOAT, ("beta2",)),
    ("opt.eps", _FLOAT, ("eps",)),
    ("train.epochs", _INT, ("epochs",)),
    ("train.batch_size", _INT, ("batch_size",)),
    ("train.seed", _INT, ("seed",)),
    ("train.loss_mode", _STR, ("loss_mode",)),
    ("train.save_interval", _INT, ("save_interval",)),
    ("eval.timesteps", _INTS, ("eval_timesteps",)),
)

_KNOWN_KEYS = {row[0] for row in _CONFIG_TABLE}


def _fetch(cfg: RunConfig, path: tuple[str, ...]):
    obj = cfg
    for name in path:
        obj = getattr(obj, name)
    return obj


def _to_text(kind: str, value) -> str:
    if kind == _FLOAT:
        return repr(float(value))
    if kind == _INTS:
        return ",".join(str(int(v)) for v in value)
    return str(value)


def config_to_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Every effective parameter as (dotted key, exact text value)."""
    return [(key, _to_text(kind, _fetch(cfg, path))) for key, kind, path in _CONFIG_TABLE]


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{k}={v}\n" for k, v in config_to_items(cfg))


def _parse_value(key: str, kind: str, text: str):
    try:
        if kind == _INT:
            return int(text)
        if kind == _INTS:
            return tuple(int(p) for p in text.split(",")) if text.strip() else ()
        if kind != _FLOAT:
            return text
        value = float(text)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"config key {key}: {text!r} is not a finite number")
    return value


def _overlay(obj, values: dict, prefix: tuple[str, ...] = ()):
    """``obj`` with the field at each attribute path in ``values`` replaced;
    nested dataclasses are rebuilt, so every ``__post_init__`` runs again."""
    changes = {}
    for f in fields(obj):
        path = (*prefix, f.name)
        if path in values:
            changes[f.name] = values[path]
        elif is_dataclass(sub := getattr(obj, f.name)):
            changes[f.name] = _overlay(sub, values, path)
    return replace(obj, **changes)


def build_run_config(mapping: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """``base`` (the defaults when None) overlaid with ``mapping``; every
    violation names its key.  A base eval list that is its default 1..T
    follows the effective ``network.timesteps``; any other is kept."""
    unknown = [k for k in mapping if k not in _KNOWN_KEYS]
    if unknown:  # a key with a line break in it is quoted, so the message stays one line
        key = unknown[0] if unknown[0].isprintable() else repr(unknown[0])
        raise ConfigError(f"config key {key}: unknown key")
    base = default_config() if base is None else base
    items = dict(config_to_items(base))
    budgets = base.eval_timesteps
    if len(budgets) == base.timesteps and budgets == tuple(range(1, len(budgets) + 1)):
        items["eval.timesteps"] = ""  # RunConfig resolves it to 1..T at the effective T
    items.update(mapping)
    val = {
        key: _parse_value(key, kind, items[key]) for key, kind, _ in _CONFIG_TABLE
    }

    hidden = val["network.hidden_sizes"]
    _require(len(hidden) >= 1, "network.hidden_sizes", "need at least one hidden layer")
    _require(all(1 <= h < 2**32 for h in hidden), "network.hidden_sizes",
             "sizes must be >= 1 and < 2**32")
    _require(val["network.timesteps"] >= 1, "network.timesteps", "must be >= 1")
    # a 1..T list past 32 bits never fits in memory: no explicit list may carry such a T
    _require(val["network.timesteps"] < 2**32, "network.timesteps", "must be < 2**32")
    _require(val["lif.tau_m"] >= 1, "lif.tau_m", "must be >= 1")
    _require(0 < val["lif.surrogate_a"] <= 1e154, "lif.surrogate_a",
             "must be > 0 and <= 1e154 (a finite a**2)")
    _require(0 < val["etc.tau"] <= 1e154, "etc.tau", "must be > 0 and <= 1e154 (a finite tau**2)")
    _require(val["etc.lambda"] >= 0, "etc.lambda", "must be >= 0")
    _require(val["opt.lr"] > 0, "opt.lr", "must be > 0")
    _require(val["opt.weight_decay"] >= 0, "opt.weight_decay", "must be >= 0")
    _require(0 <= val["opt.beta1"] < 1, "opt.beta1", "must be in [0, 1)")
    _require(0 <= val["opt.beta2"] < 1, "opt.beta2", "must be in [0, 1)")
    _require(val["opt.eps"] > 0, "opt.eps", "must be > 0")
    _require(val["train.epochs"] >= 0, "train.epochs", "must be >= 0")
    _require(val["train.batch_size"] >= 1, "train.batch_size", "must be >= 1")
    _require(val["train.seed"] >= 0, "train.seed", "must be >= 0")
    _require(val["train.loss_mode"] in LOSS_MODES, "train.loss_mode",
             f"must be one of {LOSS_MODES}")
    _require(val["train.save_interval"] >= 0, "train.save_interval", "must be >= 0")
    try:
        cfg = _overlay(default_config(), {path: val[key] for key, _, path in _CONFIG_TABLE})
    except MemoryError:  # too long a default eval list, 1..T
        raise ConfigError(
            f"config key network.timesteps: {val['network.timesteps']} steps do not fit in memory"
        ) from None
    _require(
        all(1 <= t <= cfg.timesteps for t in cfg.eval_timesteps),
        "eval.timesteps",
        f"entries must lie in [1, {cfg.timesteps}]",
    )
    return cfg


def split_assignment(text: str) -> tuple[str, str]:
    """One ``key=value`` item, a config line or an override, as its stripped
    key and value."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"expected key=value, got {text!r}")
    return key.strip(), value.strip()


def parse_config_lines(text: str) -> dict[str, str]:
    """``key=value`` lines (blank lines and # comments allowed) as a mapping."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                pairs.append(split_assignment(stripped))
            except ConfigError as exc:
                raise ConfigError(f"line {ln}: {exc}") from None
    return dict(pairs)


def run_config_from_text(text: str) -> RunConfig:
    return build_run_config(parse_config_lines(text))


# -- dataset loading ---------------------------------------------------------------


@dataclass
class LoadedData:
    train: Split
    test: Split
    input_dim: int
    classes: int


# the data.* inputs each kind reads; one left at its default (an empty path,
# a 0 frame size) is a ConfigError naming it
_INPUT_KEYS = {
    "idx": ("images", "labels"),
    "events": ("events_dir", "width", "height"),
}


def _load_splits(cfg: RunConfig, splits: tuple[bool, ...]) -> tuple[tuple[Split, ...], int]:
    """The configured dataset's splits named by ``splits`` (False: train,
    True: test), encoded to T timesteps and built alone, and its class count.
    A ConfigError names a synthetic-task knob that overflows the splits."""
    d = cfg.data
    needed = _INPUT_KEYS.get(d.kind, ())
    if d.kind == "idx" and (d.test_images or d.test_labels):
        needed += ("test_images", "test_labels")  # a test pair or none
    for name in needed:
        _require(getattr(d, name) not in ("", 0), f"data.{name}",
                 f"must be set for data.kind={d.kind}")
    if d.kind == "synth":
        return synth_generate(d, cfg.timesteps, splits), d.classes
    if d.kind == "idx":
        if d.test_images:
            files = ((d.images, d.labels), (d.test_images, d.test_labels))
            pairs = [load_idx(*files[want]) for want in splits]
        else:
            pixels, labels = load_idx(d.images, d.labels)
            test = held_out(labels)
            pairs = [(pixels[test == want], labels[test == want]) for want in splits]
        # constant coding: the same pixels as input current at every step, as
        # a read-only view whose time axis has stride 0
        built = tuple(Split(np.broadcast_to(x[:, None], (len(x), cfg.timesteps, x.shape[1])), y)
                      for x, y in pairs)
    else:  # DataSpec admits no other kind
        built = load_event_dir(d.events_dir, d.width, d.height, cfg.timesteps, splits)
    # the labels name the classes: the largest one plus one, at least 2
    return built, max(2, *(int(s.labels.max(initial=0)) + 1 for s in built))


def load_dataset(cfg: RunConfig) -> LoadedData:
    """Materialize the configured dataset, already encoded to T timesteps."""
    (train, test), classes = _load_splits(cfg, (False, True))
    return LoadedData(train, test, train.inputs.shape[2], classes)


def load_test_split(cfg: RunConfig) -> Split:
    """``load_dataset(cfg).test``, bit for bit, without building the
    training split: what the analysis commands score."""
    return _load_splits(cfg, (True,))[0][0]


def _check_split(split: Split, input_dim: int, classes: int, steps: int) -> None:
    """Raise ValueError unless ``split`` fits a network with these input and
    output sizes run over its first ``steps`` slices."""
    _, provided, dim = split.inputs.shape
    if not len(split):
        raise ValueError("the split holds no samples")
    if provided < steps:
        raise ValueError(f"samples provide {provided} timesteps, eval_t is {steps}")
    if dim != input_dim:
        raise ValueError(f"samples have input dim {dim}, the network takes {input_dim}")
    top = int(split.labels.max())
    if top >= classes:
        raise ValueError(f"label {top} out of range for {classes} classes")


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.size, classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


# -- metrics ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    lr: float
    loss_ce: float
    loss_etc: float
    loss_total: float
    test_acc_full_T: float
    test_acc_per_eval_T: dict[str, float]
    mean_pairwise_kl: float
    argmax_flip_rate: float

    def json_line(self) -> str:
        return json.dumps(asdict(self))


def config_header_line(cfg: RunConfig) -> str:
    return json.dumps({"config": dict(config_to_items(cfg))})


# -- checkpoints --------------------------------------------------------------------

# A checkpoint is one frame: 8-byte magic, u32 version 3 (1 was unframed, and
# 2 stored the weight count and the optimizer settings beside the config's),
# u64 header length, the UTF-8 config text as header, the body, then a u32
# crc32 of every byte before it.
_CKPT_MAGIC = b"ETCCKPT1"
_CKPT_VERSION = 3
# the optimizer settings: fields of both RunConfig and OptimState
_OPT_HYPERS = ("lr_base", "weight_decay", "beta1", "beta2", "eps")


class CheckpointError(Exception):
    """A checkpoint ``load_checkpoint`` rejects; the message names the file."""


class _Crc32Writer:
    """A binary file that keeps the crc32 of every byte written to it."""

    def __init__(self, fh):
        self.fh, self.crc = fh, 0

    def write(self, data) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.fh.write(data)


@contextmanager
def write_frame(path, header: str):
    """Write one frame, its body written to the yielded file, to a file beside
    ``path`` renamed over it once complete: a failed write changes nothing."""
    tmp = Path(f"{path}.tmp")
    text = header.encode()
    try:
        with open(tmp, "wb") as raw:
            fh = _Crc32Writer(raw)
            fh.write(_CKPT_MAGIC + struct.pack("<IQ", _CKPT_VERSION, len(text)) + text)
            yield fh
            raw.write(struct.pack("<I", fh.crc))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class FrameReader:
    """One frame read whole: construction checks its magic and version and
    decodes its header, ``end`` takes the crc32 and refuses trailing bytes,
    and ``check_crc`` follows the caller's own checks.  Each refusal is one
    ``CheckpointError`` naming the file."""

    def __init__(self, path):
        self.path, self.off = path, 8
        self.blob = Path(path).read_bytes()
        if self.blob[:8] != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (found,) = self.unpack("<I")
        if found != _CKPT_VERSION:
            raise CheckpointError(f"{path}: checkpoint version {found}, expected {_CKPT_VERSION}")
        self.header = self.text(self.unpack("<Q")[0], "the embedded config")

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.off += n
        return self.blob[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8") from None

    def end(self) -> None:
        (self.crc,) = self.unpack("<I")
        if self.off != len(self.blob):
            raise CheckpointError(f"{self.path}: trailing bytes after checkpoint")

    def check_crc(self) -> None:
        if zlib.crc32(self.blob[: self.off - 4]) != self.crc:
            raise CheckpointError(f"{self.path}: checksum mismatch, the checkpoint is corrupt")


@dataclass
class Checkpoint:
    config: RunConfig
    epoch: int  # epochs completed so far
    params: list[np.ndarray]
    opt: OptimState


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    blob = name.encode()
    fh.write(struct.pack(f"<I{len(blob)}sI{arr.ndim}I", len(blob), blob, arr.ndim, *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """One frame (``write_frame``): the config text as header, then the
    epoch, the weights, the optimizer step and the moments; written
    atomically.  The config holds the layer count and the optimizer settings,
    so the body stores neither."""
    with write_frame(path, config_to_text(ckpt.config)) as fh:
        fh.write(struct.pack("<Q", ckpt.epoch))
        for i, p in enumerate(ckpt.params):
            _write_tensor(fh, f"w{i}", p)
        opt = ckpt.opt
        fh.write(struct.pack("<Q", opt.step))
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            _write_tensor(fh, f"m{i}", m)
            _write_tensor(fh, f"v{i}", v)


def load_checkpoint(path) -> Checkpoint:
    frame = FrameReader(path)

    def read_tensor(expect_name: str) -> np.ndarray:
        (name_len,) = frame.unpack("<I")
        name = frame.text(name_len, "a tensor name")
        if name != expect_name:
            raise CheckpointError(f"{path}: expected tensor {expect_name!r}, found {name!r}")
        (rank,) = frame.unpack("<I")
        dims = frame.unpack(f"<{rank}I")
        count = math.prod(dims)  # a Python int: a corrupt shape cannot wrap
        data = np.frombuffer(frame.take(8 * count), dtype="<f8")
        return data.reshape(dims).copy()

    try:
        config = run_config_from_text(frame.header)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config invalid: {exc}") from exc
    layers = len(config.hidden_sizes) + 1
    (epoch,) = frame.unpack("<Q")
    params = [read_tensor(f"w{i}") for i in range(layers)]
    (step,) = frame.unpack("<Q")
    moments = [read_tensor(f"{kind}{i}") for i in range(layers) for kind in "mv"]
    m, v = moments[::2], moments[1::2]
    frame.end()

    sizes = params[0].shape[:1] + tuple(config.hidden_sizes) + params[-1].shape[-1:]
    for i, p in enumerate(params):
        want = sizes[i : i + 2]  # sliced: an end weight of rank < 2 leaves sizes short
        if p.shape != want:
            raise CheckpointError(f"{path}: weight w{i} has shape {p.shape}, expected {want}")
        if m[i].shape != want or v[i].shape != want:
            raise CheckpointError(f"{path}: moment shapes for w{i} do not match")
    if config.data.kind == "synth":
        for side, size, key in (("input", sizes[0], "dim"), ("output", sizes[-1], "classes")):
            if size != (want := getattr(config.data, key)):
                raise CheckpointError(f"{path}: {side} dim {size} != data.{key} {want}")
    frame.check_crc()  # last, so every check above keeps its own message

    hypers = {name: getattr(config, name) for name in _OPT_HYPERS}
    return Checkpoint(config, epoch, params, OptimState(step=step, m=m, v=v, **hypers))


# -- the training loop ---------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    ckpt_path: Path
    metrics_path: Path
    records: list[EpochMetrics]


def _log_history(path: Path, header: str, start_epoch: int) -> list[str]:
    """Header and epoch records a run resumed at ``start_epoch`` keeps of
    the log at ``path``; refuses a log this run cannot continue."""
    if not path.exists():
        return [header]
    lines = read_utf8(path, TrainingError).splitlines(keepends=True)
    if (
        lines[:1] != [header]
        or len(lines) <= start_epoch
        or not lines[start_epoch].endswith("\n")
    ):
        raise TrainingError(
            f"{path} does not start with this config's first {start_epoch} "
            "epoch records; resume into the run's own directory or a fresh one"
        )
    return lines[: 1 + start_epoch]


def train(cfg: RunConfig, out_dir, resume_from=None) -> TrainResult:
    """Run (or resume) a full training job, writing metrics + checkpoints.
    ``out_dir`` is made only once the dataset has loaded and fits the network,
    a resumed checkpoint's input and output widths too (else ValueError);
    only a resume may continue the ``metrics.jsonl`` a directory holds, and
    the log is written with the first epoch record, so a run that fails
    before it leaves any log as it was (a fresh run, none)."""
    out_dir = Path(out_dir)
    data = load_dataset(cfg)
    for split in (data.train, data.test):
        _check_split(split, data.input_dim, data.classes, cfg.timesteps)
    x_train = data.train.inputs
    labels_1h = _one_hot(data.train.labels, data.classes)
    metrics_path = out_dir / "metrics.jsonl"
    history = [config_header_line(cfg) + "\n"]

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if config_to_text(ck.config) != config_to_text(cfg):
            raise TrainingError(
                f"checkpoint {resume_from} was written with a different config; "
                "resume requires an exact match"
            )
        widths = ck.params[0].shape[0], ck.params[-1].shape[1]
        if widths != (data.input_dim, data.classes):
            raise ValueError(
                f"checkpoint {resume_from} maps {widths[0]} inputs to {widths[1]} classes; "
                f"the dataset has {data.input_dim} inputs and {data.classes} classes"
            )
        params, opt, start_epoch = ck.params, ck.opt, ck.epoch
        history = _log_history(metrics_path, history[0], start_epoch)
    elif metrics_path.exists():
        raise TrainingError(
            f"{metrics_path} already holds a run; resume it or train into a fresh directory"
        )
    else:
        sizes = (data.input_dim, *cfg.hidden_sizes, data.classes)
        params = init_weights(NetworkSpec(sizes, cfg.timesteps, cfg.lif), cfg.seed)
        opt = OptimState.fresh(params, **{name: getattr(cfg, name) for name in _OPT_HYPERS})
        start_epoch = 0
    out_dir.mkdir(parents=True, exist_ok=True)

    n_train = x_train.shape[0]
    records: list[EpochMetrics] = []
    with ExitStack() as stack:
        log = None
        for epoch in range(start_epoch, cfg.epochs):
            lr_now = cosine_lr(epoch, cfg.epochs, cfg.lr_base)
            order = np.random.default_rng(
                [cfg.seed, _STREAM_SHUFFLE, epoch]
            ).permutation(n_train)
            ce_sum = etc_sum = total_sum = 0.0
            for batch_no, b0 in enumerate(range(0, n_train, cfg.batch_size)):
                sel = order[b0 : b0 + cfg.batch_size]
                try:
                    values, cache = lif_unroll(cfg.lif, params, x_train[sel])
                    dv, total, ce_val, etc_val = objective(
                        values, labels_1h[sel], cfg.loss_mode, cfg.etc
                    )
                    # no local holds the gradients: they die as the update returns
                    params = adamw_step(
                        params, lif_backward(cfg.lif, params, cache, dv), opt, lr_now
                    )
                except (NonFiniteError, ValueError) as exc:
                    raise TrainingError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
                ce_sum += ce_val * len(sel)
                etc_sum += etc_val * len(sel)
                total_sum += total * len(sel)
            done = epoch + 1
            ckpt = Checkpoint(cfg, done, params, opt)
            try:
                values = _ckpt_forward(ckpt, data.test, cfg.timesteps)
            except (NonFiniteError, ValueError) as exc:
                raise TrainingError(f"epoch {epoch}, evaluation: {exc}") from exc
            scores = _budget_accuracies(
                values, data.test.labels, (*cfg.eval_timesteps, cfg.timesteps)
            )
            acc_full = scores[str(cfg.timesteps)]
            per_eval = {k: scores[k] for k in map(str, cfg.eval_timesteps)}
            kl, flip = _consistency_metrics(values, cfg.etc.tau)
            rec = EpochMetrics(
                epoch=epoch,
                lr=lr_now,
                loss_ce=ce_sum / n_train,
                loss_etc=etc_sum / n_train,
                loss_total=total_sum / n_train,
                test_acc_full_T=acc_full,
                test_acc_per_eval_T=per_eval,
                mean_pairwise_kl=kl,
                argmax_flip_rate=flip,
            )
            if log is None:
                log = stack.enter_context(open(metrics_path, "w"))
                log.writelines(history)
            log.write(rec.json_line() + "\n")
            records.append(rec)
            if cfg.save_interval and done % cfg.save_interval == 0 and done < cfg.epochs:
                save_checkpoint(ckpt, out_dir / f"ckpt_epoch{done:04d}.bin")

    if log is None:  # no epoch left to run
        metrics_path.write_text("".join(history))
    final = Checkpoint(cfg, cfg.epochs, params, opt)
    ckpt_path = out_dir / "ckpt_final.bin"
    save_checkpoint(final, ckpt_path)
    return TrainResult(
        checkpoint=final, ckpt_path=ckpt_path, metrics_path=metrics_path,
        records=records,
    )


def train_many(jobs) -> list[TrainResult]:
    """``train(cfg, out_dir)`` for each ``(cfg, out_dir)`` in the list ``jobs``,
    each a solo run in a pool of spawned processes, one per core at most, with
    one BLAS thread each (more oversubscribe the cores); results in job order.
    The first job in order that fails raises its own error, and the jobs not
    yet started are cancelled, at best effort: those already handed to the
    pool's call queue (up to workers + 1) still run and write their
    directories.  ``os.environ`` is left as it was.  An empty ``jobs`` is
    ``[]``, and starts no pool.  Each job needs a directory of its own: two
    jobs whose ``out_dir`` resolve to one path are a ValueError naming it,
    raised before any pool, environment change or directory.

    ``spawn`` re-imports the caller's ``__main__`` in every worker, so a
    calling script needs an ``if __name__ == "__main__":`` guard (without
    one, the call fails with ``BrokenProcessPool``) and cannot be read from
    stdin (RuntimeError, before any worker starts); a ``python -c`` caller
    works."""
    if not jobs:
        return []
    seen = set()
    for _, out_dir in jobs:
        if (where := Path(out_dir).resolve()) in seen:
            raise ValueError(f"train_many: two jobs share the output directory {where}")
        seen.add(where)
    import __main__
    import multiprocessing  # the pool loads only here, not with the CLI
    from concurrent.futures import ProcessPoolExecutor

    if getattr(__main__, "__file__", None) == "<stdin>":
        raise RuntimeError(
            "train_many: spawned workers re-import the calling script, and one read "
            "from stdin cannot be re-imported; save it to a file or pass it with -c"
        )
    pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {var: os.environ.get(var) for var in pinned}
    os.environ.update(dict.fromkeys(pinned, "1"))
    try:
        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
            runs = [pool.submit(train, cfg, out_dir) for cfg, out_dir in jobs]
            try:
                return [run.result() for run in runs]
            finally:  # a no-op once every run is done
                pool.shutdown(cancel_futures=True)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


# -- evaluation / analysis ops ---------------------------------------------------------
# Every evaluation is one batched forward over a prefix of the input slices.
# The network is causal, so its first k potentials are those of a k-step run
# up to rounding, not bit for bit: BLAS picks its kernel by row count, and a
# k-step run's matmuls have fewer rows.

# Most bytes of a group's float64 (steps, rows, widest layer) array: 6 batches
# at the default net, where 1 MiB timed fastest of 0.5, 1, 2 MiB and the
# whole split.  A batch larger than this is a group of its own.
_GROUP_BYTES = 1 << 20


def _ckpt_forward(ckpt: Checkpoint, split: Split, steps: int) -> np.ndarray:
    """Output potentials (N, steps, C) over the first ``steps`` input slices
    of ``split``: the one forward every evaluation runs, and the one place a
    split is checked against a checkpoint (ValueError).

    Each group of whole batches of ``train.batch_size`` samples that fits
    ``_GROUP_BYTES`` (at least one batch) is one ``lif_unroll`` call with
    one matmul per batch: BLAS picks its kernel by shape, so that keeps the
    bits of one call per batch."""
    dims = ckpt.params[0].shape[0], ckpt.params[-1].shape[-1]
    _check_split(split, *dims, steps)
    cfg, inputs = ckpt.config, split.inputs[:, :steps]
    batch_bytes = steps * cfg.batch_size * max(w.shape[1] for w in ckpt.params) * 8
    group = cfg.batch_size * max(1, _GROUP_BYTES // batch_bytes)
    return np.concatenate([
        lif_unroll(cfg.lif, ckpt.params, inputs[g : g + group], batch=cfg.batch_size)[0]
        for g in range(0, len(split), group)
    ])


def _budget_accuracies(values: np.ndarray, labels: np.ndarray, budgets) -> dict[str, float]:
    """Accuracy of argmax of the mean of the first k potentials at every
    budget k, keyed ``str(k)`` in ``budgets`` order (a repeated budget keeps
    its first place).  One cumulative sum over the time axis gives every
    prefix sum: numpy sums a non-inner axis in sequence, so each equals
    ``values[:, :k].sum(axis=1)`` bit for bit."""
    ks = np.array(budgets)
    means = np.cumsum(values[:, : ks.max()], axis=1)[:, ks - 1] / ks[:, None]
    hits = np.argmax(means, axis=2) == labels[:, None]  # ties -> lowest class index
    return dict(zip(map(str, budgets), hits.mean(axis=0).tolist()))


def _consistency_metrics(values: np.ndarray, tau: float) -> tuple[float, float]:
    """Mean pairwise KL (0 for a single step) and argmax flip rate: the
    share of samples whose per-step prediction ever leaves its first one."""
    kl = kl_metric_values(values, tau) if values.shape[1] >= 2 else 0.0
    preds = np.argmax(values, axis=2)
    return kl, float(np.mean((preds != preds[:, :1]).any(axis=1)))


def eval_per_timestep(ckpt: Checkpoint, split: Split, budgets) -> dict[str, float]:
    """Accuracy at each budget ``k`` from the first ``k`` input slices only,
    keyed ``str(k)``; one forward over the first ``max(budgets)`` slices."""
    trained_t = ckpt.config.timesteps
    for k in budgets:
        if not 1 <= k <= trained_t:
            raise ValueError(f"eval_t {k} outside [1, {trained_t}]")
    values = _ckpt_forward(ckpt, split, max(budgets))
    return _budget_accuracies(values, split.labels, budgets)


_GRAD_BATCH = 64  # samples in the gradient-direction probe


def _output_weight_grads(ckpt: Checkpoint, split: Split, coeff: np.ndarray) -> np.ndarray:
    """Gradients (T, hidden, classes) of ``sum(coeff * v_t)``, with ``v_t``
    the step-t output potentials of ``split``, by the output weights.

    The output layer leak-integrates ``s_t @ W_out``, so ``v_t = trace_t @
    W_out`` with ``trace`` the last hidden layer's spikes integrated by the
    same rule: a forward with an identity readout, whose zero column keeps
    two outputs when that layer has one unit.  ``split`` is a prefix of one
    ``_ckpt_forward`` has checked, and is run as it runs it: one matmul per
    ``train.batch_size`` samples."""
    cfg, hidden = ckpt.config, ckpt.params[-1].shape[0]
    params = [*ckpt.params[:-1], np.eye(hidden, hidden + 1)]
    inputs = split.inputs[:, : cfg.timesteps]
    trace = lif_unroll(cfg.lif, params, inputs, batch=cfg.batch_size)[0]
    return np.einsum("nth,nc->thc", trace[..., :hidden], coeff)


def consistency_report(ckpt: Checkpoint, split: Split) -> dict:
    """Temporal-consistency metrics plus the per-timestep gradient-direction
    probe: cosine similarity between the output-weight gradients contributed
    by each timestep's share of the mean-potential CE loss, over the first
    ``_GRAD_BATCH`` samples; the dict ``etcsnn consistency`` prints, in order."""
    cfg = ckpt.config
    if cfg.timesteps < 2:
        raise ValueError("consistency metrics need at least 2 timesteps")
    values = _ckpt_forward(ckpt, split, cfg.timesteps)
    kl, flip = _consistency_metrics(values, cfg.etc.tau)

    n = min(_GRAD_BATCH, len(split))
    y = _one_hot(split.labels[:n], values.shape[2])
    coeff = (_softmax_np(values[:n].mean(axis=1)) - y) / (n * cfg.timesteps)
    grads = _output_weight_grads(ckpt, split[:n], coeff).reshape(cfg.timesteps, -1)
    gram = grads @ grads.T
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms)
    cosines = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0)
    pairs = np.triu_indices(cfg.timesteps, k=1)
    return {
        "mean_pairwise_kl": kl,
        "argmax_flip_rate": flip,
        "grad_cosine_mean": float(np.mean(np.clip(cosines[pairs], -1.0, 1.0))),
        "samples": len(split),
    }


def _distribution_csv(values: np.ndarray, labels: np.ndarray) -> Iterator[str]:
    """The distribution dump of output potentials ``values`` (N, T, C) as
    text chunks: the header line, then per sample one chunk of its rows,
    each step's temperature-1 softmax row and then its mean row.  Only one
    sample's probabilities are Python floats and text at a time."""
    # (N, T + 1, C)
    probs = np.concatenate(
        [_softmax_np(values), _softmax_np(values.mean(axis=1))[:, None]], axis=1
    )
    picks = np.argmax(probs, axis=2).tolist()  # ties go to the lowest class
    yield "sample_id,label,t,argmax," + ",".join(f"p_{c}" for c in range(values.shape[2])) + "\n"
    steps = [*range(1, values.shape[1] + 1), "mean"]
    for i, (label, sample, sample_picks) in enumerate(zip(labels.tolist(), probs, picks)):
        yield "".join([f"{i},{label},{t},{pick},{','.join(map(repr, row))}\n"
                       for t, row, pick in zip(steps, sample.tolist(), sample_picks)])


def dump_distributions(ckpt: Checkpoint, split: Split, out_path) -> None:
    """Per-timestep temperature-1 softmax rows per sample, plus a mean row,
    written one sample at a time.  The forward runs first, so a split it
    refuses leaves no file."""
    values = _ckpt_forward(ckpt, split, ckpt.config.timesteps)
    with open(out_path, "w") as fh:
        fh.writelines(_distribution_csv(values, split.labels))
