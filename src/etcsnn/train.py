"""Run orchestration: flat dotted-key configs, the training loop, JSONL
metrics, binary checkpoints, truncated-T evaluation, consistency reports,
and per-timestep output-distribution dumps.

A dataset is a pair of ``data.Split``s; training indexes its batches out of
them, and every evaluation is one batched forward over a split through
``_ckpt_forward``, the one place a split is checked against a checkpoint.

Determinism contract: every random draw comes from a generator seeded by
``(train.seed, stream, index)``, so the complete RNG state of a run is the
pair (seed, epochs completed) and checkpoint resume is exact by construction.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .data import (
    Split,
    SynthSpec,
    load_event_dir,
    load_idx,
    load_synth_dataset,
    synth_generate,
)
from .losses import LOSS_MODES, EtcConfig, kl_metric_values, objective, _softmax_np
from .optim import OptimState, adamw_step, cosine_lr
from .snn import LifParams, NetworkSpec, init_weights, lif_backward, lif_unroll

__all__ = [
    "ConfigError",
    "TrainingError",
    "DataSpec",
    "RunConfig",
    "EpochMetrics",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMagicError",
    "CheckpointVersionError",
    "CheckpointTruncatedError",
    "CheckpointShapeError",
    "TrainResult",
    "ConsistencyReport",
    "default_config",
    "config_to_items",
    "config_to_text",
    "build_run_config",
    "parse_config_lines",
    "run_config_from_text",
    "synth_spec",
    "load_dataset",
    "train",
    "eval_per_timestep",
    "consistency_report",
    "dump_distributions",
    "save_checkpoint",
    "load_checkpoint",
]


class ConfigError(ValueError):
    """Bad key, unparsable value, or constraint violation; names the key."""


class TrainingError(RuntimeError):
    """Run-time failure inside a training run, with epoch/batch context."""


DATA_KINDS = ("synth", "file", "idx", "events")

_STREAM_SHUFFLE = 101


@dataclass(frozen=True)
class DataSpec:
    """Which dataset to use and how to build/load it."""

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
    file: str = ""
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    events_dir: str = ""
    width: int = 0
    height: int = 0


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
    ("data.file", _STR, ("data", "file")),
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
        if kind == _FLOAT:
            return float(text)
        if kind == _INTS:
            if text.strip() == "":
                return ()
            return tuple(int(p) for p in text.split(","))
        return text
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {kind}") from None


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config key {key}: {message}")


def build_run_config(mapping: dict[str, str]) -> RunConfig:
    """Defaults overlaid with ``mapping``; every violation names its key."""
    unknown = [k for k in mapping if k not in _KNOWN_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    base = dict(config_to_items(default_config()))
    # the eval list defaults to "all of 1..T", which must track whatever
    # timesteps value this mapping settles on -- keep the sentinel unresolved
    base["eval.timesteps"] = ""
    base.update(mapping)
    val = {
        key: _parse_value(key, kind, base[key]) for key, kind, _ in _CONFIG_TABLE
    }

    _require(val["data.kind"] in DATA_KINDS, "data.kind", f"must be one of {DATA_KINDS}")
    _require(val["data.classes"] >= 2, "data.classes", "must be >= 2")
    _require(val["data.dim"] >= val["data.classes"], "data.dim", "must be >= data.classes")
    _require(val["data.drift_strength"] >= 0, "data.drift_strength", "must be >= 0")
    _require(val["data.noise_sigma"] >= 0, "data.noise_sigma", "must be >= 0")
    _require(val["data.samples_per_class"] >= 1, "data.samples_per_class", "must be >= 1")
    _require(val["data.width"] >= 0, "data.width", "must be >= 0")
    _require(val["data.height"] >= 0, "data.height", "must be >= 0")
    hidden = val["network.hidden_sizes"]
    _require(len(hidden) >= 1, "network.hidden_sizes", "need at least one hidden layer")
    _require(all(h >= 1 for h in hidden), "network.hidden_sizes", "sizes must be >= 1")
    _require(val["network.timesteps"] >= 1, "network.timesteps", "must be >= 1")
    _require(val["lif.tau_m"] >= 1, "lif.tau_m", "must be >= 1")
    _require(val["lif.surrogate_a"] > 0, "lif.surrogate_a", "must be > 0")
    _require(val["etc.tau"] > 0, "etc.tau", "must be > 0")
    _require(val["etc.lambda"] >= 0, "etc.lambda", "must be >= 0")
    _require(val["opt.lr"] > 0, "opt.lr", "must be > 0")
    _require(val["opt.weight_decay"] >= 0, "opt.weight_decay", "must be >= 0")
    _require(0 <= val["opt.beta1"] < 1, "opt.beta1", "must be in [0, 1)")
    _require(0 <= val["opt.beta2"] < 1, "opt.beta2", "must be in [0, 1)")
    _require(val["opt.eps"] > 0, "opt.eps", "must be > 0")
    _require(val["train.epochs"] >= 0, "train.epochs", "must be >= 0")
    _require(val["train.batch_size"] >= 1, "train.batch_size", "must be >= 1")
    _require(val["train.loss_mode"] in LOSS_MODES, "train.loss_mode",
             f"must be one of {LOSS_MODES}")
    _require(val["train.save_interval"] >= 0, "train.save_interval", "must be >= 0")
    evals = val["eval.timesteps"]
    if not evals:
        evals = tuple(range(1, val["network.timesteps"] + 1))
    _require(
        all(1 <= t <= val["network.timesteps"] for t in evals),
        "eval.timesteps",
        f"entries must lie in [1, {val['network.timesteps']}]",
    )

    return RunConfig(
        data=DataSpec(
            kind=val["data.kind"],
            classes=val["data.classes"],
            dim=val["data.dim"],
            drift_strength=val["data.drift_strength"],
            noise_sigma=val["data.noise_sigma"],
            samples_per_class=val["data.samples_per_class"],
            seed=val["data.seed"],
            file=val["data.file"],
            images=val["data.images"],
            labels=val["data.labels"],
            test_images=val["data.test_images"],
            test_labels=val["data.test_labels"],
            events_dir=val["data.events_dir"],
            width=val["data.width"],
            height=val["data.height"],
        ),
        hidden_sizes=hidden,
        timesteps=val["network.timesteps"],
        lif=LifParams(
            tau_m=val["lif.tau_m"],
            v_th=val["lif.v_th"],
            v_reset=val["lif.v_reset"],
            surrogate_a=val["lif.surrogate_a"],
        ),
        etc=EtcConfig(tau=val["etc.tau"], lam=val["etc.lambda"]),
        lr_base=val["opt.lr"],
        weight_decay=val["opt.weight_decay"],
        beta1=val["opt.beta1"],
        beta2=val["opt.beta2"],
        eps=val["opt.eps"],
        epochs=val["train.epochs"],
        batch_size=val["train.batch_size"],
        seed=val["train.seed"],
        loss_mode=val["train.loss_mode"],
        save_interval=val["train.save_interval"],
        eval_timesteps=evals,
    )


def parse_config_lines(text: str) -> dict[str, str]:
    """``key=value`` lines (blank lines and # comments allowed) as a mapping."""
    mapping = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def run_config_from_text(text: str) -> RunConfig:
    return build_run_config(parse_config_lines(text))


# -- dataset loading ---------------------------------------------------------------


@dataclass
class LoadedData:
    train: Split
    test: Split
    input_dim: int
    classes: int


def synth_spec(cfg: RunConfig) -> SynthSpec:
    """The synthetic task the ``data.*`` keys and the run's T describe."""
    d = cfg.data
    return SynthSpec(
        classes=d.classes,
        input_dim=d.dim,
        timesteps=cfg.timesteps,
        drift_strength=d.drift_strength,
        noise_sigma=d.noise_sigma,
        samples_per_class=d.samples_per_class,
        seed=d.seed,
    )


def load_dataset(cfg: RunConfig) -> LoadedData:
    """Materialize the configured dataset, already encoded to T timesteps."""
    d = cfg.data
    if d.kind == "synth":
        train, test = synth_generate(synth_spec(cfg))
        return LoadedData(train, test, d.dim, d.classes)
    if d.kind == "file":
        spec, train, test = load_synth_dataset(d.file)
        if spec.timesteps != cfg.timesteps:
            raise ConfigError(
                f"config key network.timesteps: dataset {d.file} was generated "
                f"with {spec.timesteps} timesteps, config wants {cfg.timesteps}"
            )
        return LoadedData(train, test, spec.input_dim, spec.classes)
    if d.kind == "idx":
        pixels, labels = load_idx(d.images, d.labels)
        if d.test_images:
            parts = [(pixels, labels), load_idx(d.test_images, d.test_labels)]
        else:
            held = np.arange(labels.size) % 5 == 4
            parts = [(pixels[~held], labels[~held]), (pixels[held], labels[held])]
        # constant coding: the same pixels as input current at every step
        train, test = (
            Split(np.repeat(x[:, None, :], cfg.timesteps, axis=1), y) for x, y in parts
        )
        input_dim = pixels.shape[1]
    elif d.kind == "events":
        train, test = load_event_dir(d.events_dir, d.width, d.height, cfg.timesteps)
        input_dim = 2 * d.width * d.height
    else:
        raise ConfigError(f"config key data.kind: unsupported kind {d.kind!r}")
    # the labels name the classes: the largest one plus one, at least 2
    classes = max(2, *(int(s.labels.max(initial=0)) + 1 for s in (train, test)))
    return LoadedData(train, test, input_dim, classes)


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


def _network_spec(cfg: RunConfig, input_dim: int, classes: int) -> NetworkSpec:
    return NetworkSpec(
        layer_sizes=(input_dim, *cfg.hidden_sizes, classes),
        timesteps=cfg.timesteps,
        lif=cfg.lif,
    )


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
        return json.dumps(
            {
                "epoch": self.epoch,
                "lr": float(self.lr),
                "loss_ce": float(self.loss_ce),
                "loss_etc": float(self.loss_etc),
                "loss_total": float(self.loss_total),
                "test_acc_full_T": float(self.test_acc_full_T),
                "test_acc_per_eval_T": {
                    k: float(v) for k, v in self.test_acc_per_eval_T.items()
                },
                "mean_pairwise_kl": float(self.mean_pairwise_kl),
                "argmax_flip_rate": float(self.argmax_flip_rate),
            }
        )


def config_header_line(cfg: RunConfig) -> str:
    return json.dumps({"config": dict(config_to_items(cfg))})


# -- checkpoints --------------------------------------------------------------------

_CKPT_MAGIC = b"ETCCKPT1"
_CKPT_VERSION = 1


class CheckpointError(Exception):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    config: RunConfig
    config_text: str
    epoch: int  # epochs completed so far
    params: list[np.ndarray]
    opt: OptimState


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    blob = name.encode()
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to a temporary file beside ``path``, then rename it
    over ``path``: a crash mid-write leaves any earlier file untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<I", _CKPT_VERSION))
            text = ckpt.config_text.encode()
            fh.write(struct.pack("<Q", len(text)))
            fh.write(text)
            fh.write(struct.pack("<QQ", ckpt.epoch, ckpt.epoch))  # epoch + rng cursor
            fh.write(struct.pack("<I", len(ckpt.params)))
            for i, p in enumerate(ckpt.params):
                _write_tensor(fh, f"w{i}", p)
            opt = ckpt.opt
            hyper = opt.lr_base, opt.weight_decay, opt.beta1, opt.beta2, opt.eps
            fh.write(struct.pack("<Q5d", opt.step, *hyper))
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                _write_tensor(fh, f"m{i}", m)
                _write_tensor(fh, f"v{i}", v)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if blob[:8] != _CKPT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic, not a checkpoint")
    off = 8

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointTruncatedError(f"{path}: truncated checkpoint")
        chunk = blob[off : off + n]
        off += n
        return chunk

    def take_text(n: int, what: str) -> str:
        try:
            return take(n).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not UTF-8") from None

    def read_tensor(expect_name: str) -> np.ndarray:
        (name_len,) = struct.unpack("<I", take(4))
        name = take_text(name_len, "a tensor name")
        if name != expect_name:
            raise CheckpointShapeError(
                f"{path}: expected tensor {expect_name!r}, found {name!r}"
            )
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(8 * count), dtype="<f8")
        return data.reshape(dims).copy()

    (version,) = struct.unpack("<I", take(4))
    if version != _CKPT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, expected {_CKPT_VERSION}"
        )
    (text_len,) = struct.unpack("<Q", take(8))
    config_text = take_text(text_len, "the embedded config")
    try:
        config = run_config_from_text(config_text)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config invalid: {exc}") from exc
    epoch, _rng_cursor = struct.unpack("<QQ", take(16))
    (n_params,) = struct.unpack("<I", take(4))
    params = [read_tensor(f"w{i}") for i in range(n_params)]
    (step,) = struct.unpack("<Q", take(8))
    lr_base, wd, beta1, beta2, eps = struct.unpack("<5d", take(40))
    m, v = [], []
    for i in range(n_params):
        m.append(read_tensor(f"m{i}"))
        v.append(read_tensor(f"v{i}"))
    if off != len(blob):
        raise CheckpointTruncatedError(f"{path}: trailing bytes after checkpoint")

    expected_layers = len(config.hidden_sizes) + 1
    if n_params != expected_layers:
        raise CheckpointShapeError(
            f"{path}: {n_params} weight tensors for {expected_layers} layers"
        )
    sizes = params[0].shape[:1] + tuple(config.hidden_sizes) + params[-1].shape[-1:]
    for i, p in enumerate(params):
        want = (sizes[i], sizes[i + 1])
        if p.shape != want:
            raise CheckpointShapeError(
                f"{path}: weight w{i} has shape {p.shape}, expected {want}"
            )
        if m[i].shape != want or v[i].shape != want:
            raise CheckpointShapeError(f"{path}: moment shapes for w{i} do not match")
    if config.data.kind == "synth":
        if params[0].shape[0] != config.data.dim:
            raise CheckpointShapeError(
                f"{path}: input dim {params[0].shape[0]} != data.dim {config.data.dim}"
            )
        if params[-1].shape[-1] != config.data.classes:
            raise CheckpointShapeError(
                f"{path}: output dim {params[-1].shape[-1]} != data.classes "
                f"{config.data.classes}"
            )

    opt = OptimState(
        step=step, m=m, v=v, lr_base=lr_base, weight_decay=wd,
        beta1=beta1, beta2=beta2, eps=eps,
    )
    return Checkpoint(
        config=config, config_text=config_text, epoch=epoch, params=params, opt=opt
    )


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
    lines = path.read_text().splitlines(keepends=True)
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
    ``out_dir`` is made only once the dataset has loaded and fits the network;
    only a resume may continue the ``metrics.jsonl`` a directory holds."""
    out_dir = Path(out_dir)
    data = load_dataset(cfg)
    for split in (data.train, data.test):
        try:
            _check_split(split, data.input_dim, data.classes, cfg.timesteps)
        except ValueError as exc:
            raise TrainingError(f"dataset: {exc}") from exc
    x_train = data.train.inputs
    labels_1h = _one_hot(data.train.labels, data.classes)
    spec = _network_spec(cfg, data.input_dim, data.classes)
    config_text = config_to_text(cfg)
    metrics_path = out_dir / "metrics.jsonl"
    history = [config_header_line(cfg) + "\n"]

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck.config_text != config_text:
            raise TrainingError(
                f"checkpoint {resume_from} was written with a different config; "
                "resume requires an exact match"
            )
        params = ck.params
        opt = ck.opt
        start_epoch = ck.epoch
        history = _log_history(metrics_path, history[0], start_epoch)
    elif metrics_path.exists():
        raise TrainingError(
            f"{metrics_path} already holds a run; resume it or train into a fresh directory"
        )
    else:
        params = [w.data for w in init_weights(spec, cfg.seed)]
        opt = OptimState.fresh(
            params,
            lr_base=cfg.lr_base,
            weight_decay=cfg.weight_decay,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.eps,
        )
        start_epoch = 0
    out_dir.mkdir(parents=True, exist_ok=True)

    names = [f"w{i}" for i in range(len(params))]
    n_train = x_train.shape[0]
    records: list[EpochMetrics] = []
    with open(metrics_path, "w") as log:
        log.writelines(history)
        for epoch in range(start_epoch, cfg.epochs):
            lr_now = cosine_lr(epoch, cfg.epochs, cfg.lr_base)
            order = np.random.default_rng(
                [cfg.seed, _STREAM_SHUFFLE, epoch]
            ).permutation(n_train)
            ce_sum = etc_sum = total_sum = 0.0
            for batch_no, b0 in enumerate(range(0, n_train, cfg.batch_size)):
                sel = order[b0 : b0 + cfg.batch_size]
                try:
                    values, cache = lif_unroll(spec, params, x_train[sel])
                    dv, total, ce_val, etc_val = objective(
                        values, labels_1h[sel], cfg.loss_mode, cfg.etc
                    )
                    grads = lif_backward(spec, params, cache, dv)
                    params = adamw_step(params, grads, opt, lr_now, names=names)
                except (NonFiniteError, ValueError) as exc:
                    raise TrainingError(
                        f"epoch {epoch}, batch {batch_no}: {exc}"
                    ) from exc
                ce_sum += ce_val * len(sel)
                etc_sum += etc_val * len(sel)
                total_sum += total * len(sel)
            done = epoch + 1
            ckpt = Checkpoint(cfg, config_text, done, params, opt)
            try:
                values = _ckpt_forward(ckpt, data.test, cfg.timesteps)
            except (NonFiniteError, ValueError) as exc:
                raise TrainingError(f"epoch {epoch}, evaluation: {exc}") from exc
            acc_full = _prefix_accuracy(values, data.test.labels, cfg.timesteps)
            per_eval = _budget_accuracies(values, data.test.labels, cfg.eval_timesteps)
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
            log.write(rec.json_line() + "\n")
            records.append(rec)
            if cfg.save_interval and done % cfg.save_interval == 0 and done < cfg.epochs:
                save_checkpoint(ckpt, out_dir / f"ckpt_epoch{done:04d}.bin")

    final = Checkpoint(cfg, config_text, cfg.epochs, params, opt)
    ckpt_path = out_dir / "ckpt_final.bin"
    save_checkpoint(final, ckpt_path)
    return TrainResult(
        checkpoint=final, ckpt_path=ckpt_path, metrics_path=metrics_path,
        records=records,
    )


# -- evaluation / analysis ops ---------------------------------------------------------
# Every evaluation is one batched forward over a prefix of the input slices.
# The network is causal, so its first k potentials are those of a k-step run.


def _ckpt_forward(
    ckpt: Checkpoint, split: Split, steps: int, readout: np.ndarray | None = None
) -> np.ndarray:
    """Output potentials (N, steps, C) over the first ``steps`` input slices
    of ``split``, batched, with the output weights replaced by ``readout`` if
    given.  The one place a split is checked against a checkpoint (ValueError)."""
    dims = ckpt.params[0].shape[0], ckpt.params[-1].shape[-1]
    _check_split(split, *dims, steps)
    params = ckpt.params if readout is None else [*ckpt.params[:-1], readout]
    spec = replace(_network_spec(ckpt.config, dims[0], params[-1].shape[-1]), timesteps=steps)
    inputs, size = split.inputs[:, :steps], ckpt.config.batch_size
    starts = range(0, len(split), size)
    return np.concatenate([lif_unroll(spec, params, inputs[b : b + size])[0] for b in starts])


def _prefix_accuracy(values: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Accuracy of argmax of the mean of the first k potentials."""
    mean_k = values[:, :k, :].sum(axis=1) / k
    pred = np.argmax(mean_k, axis=1)  # ties -> lowest class index
    return float(np.mean(pred == labels))


def _budget_accuracies(values: np.ndarray, labels: np.ndarray, budgets) -> dict[str, float]:
    return {str(k): _prefix_accuracy(values, labels, k) for k in budgets}


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


@dataclass(frozen=True)
class ConsistencyReport:
    mean_pairwise_kl: float
    argmax_flip_rate: float
    grad_cosine_mean: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "mean_pairwise_kl": float(self.mean_pairwise_kl),
            "argmax_flip_rate": float(self.argmax_flip_rate),
            "grad_cosine_mean": float(self.grad_cosine_mean),
            "samples": self.samples,
        }


_GRAD_BATCH = 64  # samples in the gradient-direction probe


def _output_weight_grads(ckpt: Checkpoint, split: Split, coeff: np.ndarray) -> np.ndarray:
    """Gradients (T, hidden, classes) of ``sum(coeff * v_t)``, with ``v_t``
    the step-t output potentials of ``split``, by the output weights.

    The output layer leak-integrates ``s_t @ W_out``, so ``v_t = trace_t @
    W_out`` with ``trace`` the last hidden layer's spikes integrated by the
    same rule: a forward with an identity readout, whose zero column keeps
    two outputs when that layer has one unit."""
    hidden = ckpt.params[-1].shape[0]
    trace = _ckpt_forward(ckpt, split, ckpt.config.timesteps, np.eye(hidden, hidden + 1))
    return np.einsum("nth,nc->thc", trace[..., :hidden], coeff)


def consistency_report(ckpt: Checkpoint, split: Split) -> ConsistencyReport:
    """Temporal-consistency metrics plus the per-timestep gradient-direction
    probe: cosine similarity between the output-weight gradients contributed
    by each timestep's share of the mean-potential CE loss, over the first
    ``_GRAD_BATCH`` samples."""
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
    return ConsistencyReport(
        mean_pairwise_kl=kl,
        argmax_flip_rate=flip,
        grad_cosine_mean=float(np.mean(np.clip(cosines[pairs], -1.0, 1.0))),
        samples=len(split),
    )


def dump_distributions(ckpt: Checkpoint, split: Split, out_path) -> None:
    """Per-timestep temperature-1 softmax rows per sample, plus a mean row."""
    values = _ckpt_forward(ckpt, split, ckpt.config.timesteps)
    probs = _softmax_np(values)  # (N, T, C)
    mean_probs = _softmax_np(values.mean(axis=1))
    lines = ["sample_id,label,t,argmax," + ",".join(f"p_{c}" for c in range(values.shape[2]))]
    rows = zip(split.labels.tolist(), probs.tolist(), mean_probs.tolist())
    for i, (label, steps, mean) in enumerate(rows):
        for t, row in [*enumerate(steps, start=1), ("mean", mean)]:
            # index of the first maximum, as np.argmax: ties go to the lowest class
            lines.append(f"{i},{label},{t},{row.index(max(row))}," + ",".join(map(repr, row)))
    Path(out_path).write_text("\n".join(lines) + "\n")
