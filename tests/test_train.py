"""Trainer, config round-trip, checkpointing, and analysis-op tests.

Every training test runs a deliberately tiny synthetic job (two or three
classes, eight input dims, a handful of epochs) so the whole file stays in
the sub-minute range while still exercising the full loop: shuffling,
AdamW updates, metric logging, checkpoint writes, and resume.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from etcsnn import train as train_module
from etcsnn.autodiff import Tensor, mul, sum_all
from etcsnn.data import Split, SynthSpec, save_synth_dataset, synth_generate
from etcsnn.optim import OptimState
from etcsnn.snn import NetworkSpec, lif_unroll, lif_unroll_reference
from etcsnn.train import (
    Checkpoint,
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    TrainingError,
    build_run_config,
    config_to_items,
    config_to_text,
    consistency_report,
    default_config,
    dump_distributions,
    eval_per_timestep,
    load_checkpoint,
    load_dataset,
    run_config_from_text,
    save_checkpoint,
    train,
)
from etcsnn.train import _output_weight_grads, _prefix_accuracy
from oracles import norm_rel_err


def tiny(**overrides) -> dict:
    """Small-but-real training mapping; overrides win."""
    base = {
        "data.classes": "2",
        "data.dim": "8",
        "data.drift_strength": "0.5",
        "data.noise_sigma": "0.1",
        "data.samples_per_class": "15",
        "network.hidden_sizes": "8",
        "network.timesteps": "3",
        "train.epochs": "3",
        "train.batch_size": "8",
        "opt.lr": "0.01",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    return base


# -- config round-trip ----------------------------------------------------------


def test_config_roundtrip_default():
    text = config_to_text(default_config())
    assert run_config_from_text(text) == default_config()


def test_config_text_is_fixed_point():
    cfg = build_run_config(tiny(**{"opt.lr": "0.1", "opt.eps": "1e-8"}))
    text = config_to_text(cfg)
    assert config_to_text(run_config_from_text(text)) == text


def test_config_float_echo_is_exact():
    cfg = build_run_config({"data.noise_sigma": "0.1"})
    items = dict(config_to_items(cfg))
    # repr round-trip: the echoed text parses back to the identical double
    assert float(items["data.noise_sigma"]) == 0.1
    assert items["data.noise_sigma"] == repr(0.1)


def test_hidden_sizes_list_roundtrip():
    cfg = build_run_config(tiny(**{"network.hidden_sizes": "16,8,4"}))
    assert cfg.hidden_sizes == (16, 8, 4)
    assert dict(config_to_items(cfg))["network.hidden_sizes"] == "16,8,4"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key 'train.lr'"):
        build_run_config({"train.lr": "0.1"})


def test_unparsable_value_names_key():
    with pytest.raises(ConfigError, match="network.timesteps"):
        build_run_config({"network.timesteps": "ten"})


@pytest.mark.parametrize(
    "key,value",
    [
        ("data.classes", "1"),
        ("data.dim", "1"),  # dim < classes with default classes=4
        ("data.drift_strength", "-0.5"),
        ("network.hidden_sizes", ""),
        ("network.timesteps", "0"),
        ("lif.tau_m", "0.5"),
        ("etc.tau", "0"),
        ("etc.lambda", "-1"),
        ("opt.lr", "0"),
        ("opt.beta1", "1.0"),
        ("train.epochs", "-1"),
        ("train.batch_size", "0"),
        ("train.loss_mode", "hinge"),
        ("data.kind", "tfrecord"),
    ],
)
def test_constraint_violation_names_its_key(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        build_run_config({key: value})


def test_eval_timesteps_default_tracks_timesteps_override():
    cfg = build_run_config({"network.timesteps": "4"})
    assert cfg.eval_timesteps == (1, 2, 3, 4)


def test_eval_timesteps_explicit_and_bounded():
    cfg = build_run_config({"network.timesteps": "6", "eval.timesteps": "1,3,6"})
    assert cfg.eval_timesteps == (1, 3, 6)
    with pytest.raises(ConfigError, match=r"eval\.timesteps"):
        build_run_config({"network.timesteps": "4", "eval.timesteps": "5"})


def test_config_text_comments_and_blanks():
    cfg = run_config_from_text(
        "# temporal settings\n\nnetwork.timesteps = 5\n  \ntrain.seed=3\n"
    )
    assert cfg.timesteps == 5 and cfg.seed == 3


def test_config_text_bad_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        run_config_from_text("train.seed=1\nnot a key value line\n")


# -- dataset loading through the trainer ------------------------------------------


def test_load_dataset_synth_shapes():
    cfg = build_run_config(tiny())
    data = load_dataset(cfg)
    assert data.input_dim == 8 and data.classes == 2
    assert len(data.train) == 24 and len(data.test) == 6
    assert data.train.inputs.shape == (24, 3, 8) and data.test.labels.shape == (6,)


def test_file_dataset_timestep_mismatch_rejected(tmp_path):
    spec = SynthSpec(classes=2, input_dim=8, timesteps=3, samples_per_class=5)
    tr, te = synth_generate(spec)
    path = tmp_path / "d.bin"
    save_synth_dataset(path, spec, tr, te)
    mapping = tiny(**{"data.kind": "file", "data.file": str(path),
                      "network.timesteps": "4"})
    with pytest.raises(ConfigError, match="timesteps"):
        load_dataset(build_run_config(mapping))


# -- the training loop -------------------------------------------------------------


def test_epochs_zero_writes_header_and_initial_checkpoint(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "0"}))
    result = train(cfg, tmp_path / "run")
    assert result.records == []
    lines = result.metrics_path.read_text().splitlines()
    assert len(lines) == 1
    header = json.loads(lines[0])
    assert header["config"] == dict(config_to_items(cfg))
    ck = load_checkpoint(result.ckpt_path)
    assert ck.epoch == 0


def test_metrics_lines_match_records(tmp_path):
    cfg = build_run_config(tiny())
    result = train(cfg, tmp_path / "run")
    lines = result.metrics_path.read_text().splitlines()
    assert len(lines) == 1 + len(result.records) == 1 + 3
    for line, rec in zip(lines[1:], result.records):
        assert line == rec.json_line()
        parsed = json.loads(line)
        assert parsed["epoch"] == rec.epoch


def test_loss_total_is_ce_plus_weighted_consistency(tmp_path):
    cfg = build_run_config(tiny(**{"etc.lambda": "1.5", "etc.tau": "2.0"}))
    result = train(cfg, tmp_path / "run")
    for rec in result.records:
        weighted = rec.loss_ce + 1.5 * 2.0**2 * rec.loss_etc
        assert abs(rec.loss_total - weighted) <= 1e-12
        assert rec.loss_etc >= 0.0


def test_lambda_zero_records_bitwise_equal_ce_only(tmp_path):
    """Turning the consistency weight to zero must reproduce the plain-CE
    run exactly -- same floats in every epoch record, not just close."""
    runs = {}
    for name, mapping in (
        ("lam0", tiny(**{"train.loss_mode": "ce_plus_etc", "etc.lambda": "0"})),
        ("ce", tiny(**{"train.loss_mode": "ce_only"})),
    ):
        result = train(build_run_config(mapping), tmp_path / name)
        runs[name] = result.metrics_path.read_text().splitlines()
    # headers echo different configs; every per-epoch record must be identical
    assert runs["lam0"][1:] == runs["ce"][1:]


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = build_run_config(tiny())
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    assert r1.ckpt_path.read_bytes() == r2.ckpt_path.read_bytes()


def test_different_train_seed_changes_results(tmp_path):
    r1 = train(build_run_config(tiny(**{"train.seed": "0"})), tmp_path / "a")
    r2 = train(build_run_config(tiny(**{"train.seed": "1"})), tmp_path / "b")
    assert r1.ckpt_path.read_bytes() != r2.ckpt_path.read_bytes()


def test_per_timestep_ce_mode_trains(tmp_path):
    cfg = build_run_config(tiny(**{"train.loss_mode": "per_timestep_ce"}))
    result = train(cfg, tmp_path / "run")
    assert all(np.isfinite(rec.loss_total) for rec in result.records)
    assert all(rec.loss_etc == 0.0 for rec in result.records)


# sha256 of metrics.jsonl and ckpt_final.bin of a 2-epoch default-network run
# on 10 samples per class (x86-64, numpy 2.4).  The tape-built training step
# wrote these bytes; the numpy step reproduces them bit for bit.
GOLDEN_RUNS = {
    "ce_only": (
        "8e414b0c6ffc555eefeeae5fe376dfb5ccb7fd0d2a0faf01e4fa7c4b2410f25f",
        "b568890549d810cc3afef7f768354089159b9fa650a4d6046578d864266af07d",
    ),
    "ce_plus_etc": (
        "ec0f153244c6dd9f1cf4dbe828a4eba225b072d8bfadcc6fd7e40c72feaf2e82",
        "96d3f94ff617d6632bbc1c47219951f4579d8a7f6ec266d7ee0aca9f2a046529",
    ),
    "per_timestep_ce": (
        "23dfe4541f2ffe91b951bfde3e7f3d8bc3b1841e598b9d2fd23763d3aa5267b0",
        "da9d22533b5973c1edc99d43f4a3ddb3bfe8f88c0e0a10b0d23be014637bdbb8",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_RUNS))
def test_training_outputs_match_golden_hashes(tmp_path, mode):
    cfg = build_run_config({
        "train.loss_mode": mode, "train.epochs": "2", "data.samples_per_class": "10",
    })
    result = train(cfg, tmp_path / "run")
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (result.metrics_path, result.ckpt_path)
    )
    assert got == GOLDEN_RUNS[mode]


def test_overflowing_potential_is_a_training_error(tmp_path, monkeypatch):
    """Inputs of 1e308 through all-positive weights overflow the first
    layer's charged potential while its spikes stay 0/1; the run must stop
    with the epoch and batch named instead of training on."""
    spec = SynthSpec(classes=2, input_dim=8, timesteps=3, samples_per_class=5)
    tr, te = synth_generate(spec)
    huge = Split(np.full(tr.inputs.shape, 1e308), tr.labels)
    path = tmp_path / "huge.bin"
    save_synth_dataset(path, spec, huge, te)
    monkeypatch.setattr(
        train_module, "init_weights",
        lambda net, seed: [Tensor(np.ones((a, b))) for a, b in
                           zip(net.layer_sizes, net.layer_sizes[1:])],
    )
    cfg = build_run_config(tiny(**{"data.kind": "file", "data.file": str(path)}))
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0: .*membrane"):
        train(cfg, tmp_path / "run")


def test_mid_checkpoints_written_at_interval(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "4", "train.save_interval": "2"}))
    out = tmp_path / "run"
    train(cfg, out)
    assert (out / "ckpt_epoch0002.bin").exists()
    # the final epoch is covered by ckpt_final.bin, not a duplicate mid-save
    assert not (out / "ckpt_epoch0004.bin").exists()
    assert (out / "ckpt_final.bin").exists()


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "4", "train.save_interval": "2"}))
    full = train(cfg, tmp_path / "full")
    resumed = train(
        cfg, tmp_path / "resumed", resume_from=tmp_path / "full" / "ckpt_epoch0002.bin"
    )
    assert resumed.ckpt_path.read_bytes() == full.ckpt_path.read_bytes()
    full_tail = full.metrics_path.read_text().splitlines()[1:][2:]
    resumed_lines = resumed.metrics_path.read_text().splitlines()[1:]
    assert resumed_lines == full_tail


def test_resume_into_own_directory_keeps_history(tmp_path):
    """Resuming a run in its own directory keeps the epoch records before
    the checkpoint and rewrites the rest: the log ends up byte-identical to
    an uninterrupted run's."""
    cfg = build_run_config(tiny(**{"train.epochs": "5", "train.save_interval": "2"}))
    full = train(cfg, tmp_path / "full")
    run = tmp_path / "run"
    train(cfg, run)
    log = run / "metrics.jsonl"
    # an interruption during epoch 3: its record and everything after are lost
    log.write_text("".join(log.read_text().splitlines(keepends=True)[:4]))
    resumed = train(cfg, run, resume_from=run / "ckpt_epoch0002.bin")
    assert log.read_bytes() == full.metrics_path.read_bytes()
    assert resumed.ckpt_path.read_bytes() == full.ckpt_path.read_bytes()


def test_resume_refuses_a_log_it_cannot_continue(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "4", "train.save_interval": "2"}))
    train(cfg, tmp_path / "full")
    ckpt = tmp_path / "full" / "ckpt_epoch0002.bin"
    other = tmp_path / "other"
    train(build_run_config(tiny(**{"train.epochs": "1"})), other)
    before = (other / "metrics.jsonl").read_bytes()
    with pytest.raises(TrainingError, match="epoch records"):
        train(cfg, other, resume_from=ckpt)
    assert (other / "metrics.jsonl").read_bytes() == before
    short = tmp_path / "short"
    short.mkdir()
    header = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()[0]
    (short / "metrics.jsonl").write_text(header + "\n")  # no epoch records
    with pytest.raises(TrainingError, match="epoch records"):
        train(cfg, short, resume_from=ckpt)


def test_fresh_run_refuses_a_directory_with_a_log(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "2"}))
    train(cfg, tmp_path / "run")
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    again = build_run_config(tiny(**{"train.epochs": "0"}))
    with pytest.raises(TrainingError, match="already holds a run"):
        train(again, tmp_path / "run")
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before


def test_failed_dataset_leaves_no_directory(tmp_path):
    missing = tiny(**{"data.kind": "events", "data.events_dir": str(tmp_path / "none"),
                      "data.width": "2", "data.height": "2"})
    with pytest.raises(OSError):
        train(build_run_config(missing), tmp_path / "a")
    # a dump whose labels the network's output layer cannot hold
    spec = SynthSpec(classes=2, input_dim=8, timesteps=3, samples_per_class=5)
    tr, te = synth_generate(spec)
    path = tmp_path / "bad_labels.bin"
    save_synth_dataset(path, spec, tr, Split(te.inputs, te.labels + 4))
    cfg = build_run_config(tiny(**{"data.kind": "file", "data.file": str(path)}))
    with pytest.raises(TrainingError, match="label 5 out of range for 2 classes"):
        train(cfg, tmp_path / "b")
    # one event file per class: every file lands in the train split
    for name in ("x", "y"):
        (tmp_path / "events" / name).mkdir(parents=True)
        (tmp_path / "events" / name / "s0.csv").write_text("t_us,x,y,polarity\n0,0,0,0\n")
    events = tiny(**{"data.kind": "events", "data.events_dir": str(tmp_path / "events"),
                     "data.width": "2", "data.height": "2"})
    with pytest.raises(TrainingError, match="no samples"):
        train(build_run_config(events), tmp_path / "c")
    assert not any((tmp_path / run).exists() for run in "abc")


def test_resume_rejects_different_config(tmp_path):
    cfg = build_run_config(tiny(**{"train.epochs": "4", "train.save_interval": "2"}))
    train(cfg, tmp_path / "full")
    other = build_run_config(
        tiny(**{"train.epochs": "4", "train.save_interval": "2", "opt.lr": "0.02"})
    )
    with pytest.raises(TrainingError, match="different config"):
        train(other, tmp_path / "again",
              resume_from=tmp_path / "full" / "ckpt_epoch0002.bin")


# -- checkpoint format -------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = build_run_config(tiny())
    result = train(cfg, out)
    return result


def test_checkpoint_roundtrip_byte_identical(trained, tmp_path):
    ck = load_checkpoint(trained.ckpt_path)
    again = tmp_path / "again.bin"
    save_checkpoint(ck, again)
    assert again.read_bytes() == trained.ckpt_path.read_bytes()


def test_checkpoint_restores_config_and_state(trained):
    ck = load_checkpoint(trained.ckpt_path)
    assert ck.config == trained.checkpoint.config
    assert ck.epoch == 3
    assert ck.opt.step == trained.checkpoint.opt.step
    for a, b in zip(ck.params, trained.checkpoint.params):
        assert np.array_equal(a, b)


def test_checkpoint_bad_magic(trained, tmp_path):
    blob = trained.ckpt_path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(CheckpointMagicError, match="bad magic"):
        load_checkpoint(bad)


def test_checkpoint_bad_version(trained, tmp_path):
    blob = bytearray(trained.ckpt_path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="version 99"):
        load_checkpoint(bad)


def test_checkpoint_truncated(trained, tmp_path):
    blob = trained.ckpt_path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:-10])
    with pytest.raises(CheckpointTruncatedError, match="truncated"):
        load_checkpoint(bad)


def test_checkpoint_trailing_bytes(trained, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(trained.ckpt_path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointTruncatedError, match="trailing"):
        load_checkpoint(bad)


# the config text's first key; the length prefix and name of tensor w0
@pytest.mark.parametrize("marker,skip", [(b"data.kind=", 0), (b"\x02\x00\x00\x00w0", 4)])
def test_checkpoint_non_utf8_text_is_a_checkpoint_error(trained, tmp_path, marker, skip):
    """A bad byte in the embedded config or in a tensor name names the file."""
    blob = bytearray(trained.ckpt_path.read_bytes())
    blob[blob.index(marker) + skip] = 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"bad\.bin: .*not UTF-8"):
        load_checkpoint(bad)


def test_checkpoint_layer_count_mismatch(trained, tmp_path):
    from etcsnn.optim import OptimState

    ck = load_checkpoint(trained.ckpt_path)
    opt = ck.opt
    hacked = Checkpoint(
        config=ck.config,
        config_text=ck.config_text,
        epoch=ck.epoch,
        params=ck.params[:1],
        opt=OptimState(
            step=opt.step, m=opt.m[:1], v=opt.v[:1], lr_base=opt.lr_base,
            weight_decay=opt.weight_decay, beta1=opt.beta1, beta2=opt.beta2,
            eps=opt.eps,
        ),
    )
    # the file self-consistently claims one layer while the embedded config
    # wants hidden + output = two
    bad = tmp_path / "bad.bin"
    save_checkpoint(hacked, bad)
    with pytest.raises(CheckpointShapeError, match="1 weight tensors for 2 layers"):
        load_checkpoint(bad)


def test_checkpoint_save_is_atomic(trained, tmp_path, monkeypatch):
    """A write that fails half way leaves the earlier checkpoint at that path
    byte-identical and no temporary file behind."""
    path = tmp_path / "ck.bin"
    save_checkpoint(trained.checkpoint, path)
    before = path.read_bytes()
    write_tensor = train_module._write_tensor

    def fail_on_moments(fh, name, arr):
        if name == "m0":
            raise OSError("disk full")
        write_tensor(fh, name, arr)

    monkeypatch.setattr(train_module, "_write_tensor", fail_on_moments)
    hacked = Checkpoint(trained.checkpoint.config, trained.checkpoint.config_text, 7,
                        trained.checkpoint.params, trained.checkpoint.opt)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(hacked, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]


def test_checkpoint_dim_mismatch_with_config(trained, tmp_path):
    ck = load_checkpoint(trained.ckpt_path)
    hacked = Checkpoint(
        config=ck.config,
        config_text=ck.config_text,
        epoch=ck.epoch,
        params=[p.T.copy() for p in ck.params],
        opt=ck.opt,
    )
    bad = tmp_path / "bad.bin"
    save_checkpoint(hacked, bad)
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(bad)


# -- evaluation / analysis ops -----------------------------------------------------


def test_eval_per_timestep_range_errors(trained):
    data = load_dataset(trained.checkpoint.config)
    ck = trained.checkpoint
    with pytest.raises(ValueError, match="eval_t"):
        eval_per_timestep(ck, data.test, [0])
    with pytest.raises(ValueError, match="eval_t"):
        eval_per_timestep(ck, data.test, [1, 4])
    short = Split(data.test.inputs[:, :2], data.test.labels)
    with pytest.raises(ValueError, match="eval_t is 3"):
        eval_per_timestep(ck, short, [3])


@pytest.mark.parametrize("op", ["eval", "consistency", "dump"])
def test_split_is_checked_against_the_checkpoint(trained, tmp_path, op):
    """Every analysis op refuses a split of another input dim or with a label
    the checkpoint's output layer does not have, with one ValueError."""
    ck, test = trained.checkpoint, load_dataset(trained.checkpoint.config).test
    run = {
        "eval": lambda split: eval_per_timestep(ck, split, [1, 3]),
        "consistency": lambda split: consistency_report(ck, split),
        "dump": lambda split: dump_distributions(ck, split, tmp_path / "d.csv"),
    }[op]
    with pytest.raises(ValueError, match="label 2 out of range for 2 classes"):
        run(Split(test.inputs, np.where(np.arange(len(test)) == 3, 2, test.labels)))
    with pytest.raises(ValueError, match="input dim 9, the network takes 8"):
        run(Split(np.zeros((len(test), 3, 9)), test.labels))
    with pytest.raises(ValueError, match="no samples"):
        run(test[:0])
    assert not (tmp_path / "d.csv").exists()


def test_eval_truncation_ignores_later_slices(trained):
    """Accuracy at eval_t=1 must depend only on the first input slice."""
    data = load_dataset(trained.checkpoint.config)
    ck = trained.checkpoint
    base = eval_per_timestep(ck, data.test, [1])
    inputs = data.test.inputs.copy()
    inputs[:, 1:] = 1e6  # absurd values in every later slice
    assert eval_per_timestep(ck, Split(inputs, data.test.labels), [1]) == base


def test_eval_matches_logged_full_T(trained):
    data = load_dataset(trained.checkpoint.config)
    acc = eval_per_timestep(trained.checkpoint, data.test, [3])["3"]
    assert acc == trained.records[-1].test_acc_full_T


def test_eval_matches_logged_budgets(trained):
    data = load_dataset(trained.checkpoint.config)
    accs = eval_per_timestep(trained.checkpoint, data.test, [1, 2, 3])
    assert accs == trained.records[-1].test_acc_per_eval_T


def _ckpt_spec(ckpt, steps):
    p = ckpt.params
    sizes = (p[0].shape[0], *ckpt.config.hidden_sizes, p[-1].shape[-1])
    return NetworkSpec(sizes, timesteps=steps, lif=ckpt.config.lif)


def resimulated_accuracy(ckpt, samples, k):
    """Reference truncated evaluation: a k-step network run on the first k
    input slices, batched as the checkpoint's config says."""
    inputs, labels = samples.inputs[:, :k], samples.labels
    spec, size = _ckpt_spec(ckpt, k), ckpt.config.batch_size
    values = np.concatenate([
        lif_unroll(spec, ckpt.params, inputs[b0 : b0 + size])[0]
        for b0 in range(0, len(samples), size)
    ])
    pred = np.argmax(values.sum(axis=1) / k, axis=1)
    return float(np.mean(pred == labels))


@pytest.mark.parametrize("hidden,steps", [("8", 3), ("8,5", 6)])
def test_single_forward_eval_equals_resimulation(tmp_path, hidden, steps):
    cfg = build_run_config(tiny(**{
        "network.hidden_sizes": hidden, "network.timesteps": steps,
        "data.samples_per_class": "40", "train.epochs": "2",
    }))
    ck = train(cfg, tmp_path / "run").checkpoint
    test = load_dataset(cfg).test
    budgets = list(range(1, steps + 1))
    together = eval_per_timestep(ck, test, budgets)
    for k in budgets:
        want = resimulated_accuracy(ck, test, k)
        assert together[str(k)] == want
        assert eval_per_timestep(ck, test, [k]) == {str(k): want}


# -- the closed-form gradient-direction probe ---------------------------------------


def tape_output_weight_grads(ckpt, samples, coeff):
    """Reference probe: one backward of sum(coeff * v_t) per step t through
    the per-op tape network, reading the output-weight gradient."""
    steps = ckpt.config.timesteps
    inputs = [Tensor(samples.inputs[:, t]) for t in range(steps)]
    grads = []
    for t in range(steps):
        weights = [Tensor(p) for p in ckpt.params]
        outs = lif_unroll_reference(_ckpt_spec(ckpt, steps), weights, inputs)
        grad_map = sum_all(mul(Tensor(coeff), outs[t])).backward()
        grads.append(grad_map.get(weights[-1], np.zeros_like(ckpt.params[-1])))
    return np.stack(grads)


def _checkpoint(cfg, params):
    return Checkpoint(cfg, config_to_text(cfg), 0, params, OptimState.fresh(params))


def _probe_case(hidden: str, scale_last_hidden: float = 1.0):
    """Checkpoint, 12 samples and a random coefficient; positive-mean inputs
    and weights keep every hidden layer firing some of the time."""
    cfg = build_run_config(tiny(**{"network.hidden_sizes": hidden, "network.timesteps": 5}))
    rng = np.random.default_rng(len(hidden))
    sizes = (8, *cfg.hidden_sizes, 2)
    params = [
        rng.normal(0.5, 1.0, size=(a, b)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])
    ]
    params[-2] = params[-2] * scale_last_hidden
    samples = Split(rng.uniform(0.0, 2.0, size=(12, 5, 8)), np.arange(12) % 2)
    return _checkpoint(cfg, params), samples, rng.normal(size=(12, 2))


@pytest.mark.parametrize("hidden", ["8", "6,1", "1"])
def test_closed_form_probe_matches_tape(hidden):
    ck, samples, coeff = _probe_case(hidden)
    got = _output_weight_grads(ck, samples, coeff)
    want = tape_output_weight_grads(ck, samples, coeff)
    assert got.shape == want.shape == (5, ck.config.hidden_sizes[-1], 2)
    assert np.any(want != 0.0)  # the last hidden layer spikes
    assert norm_rel_err(got, want) <= 1e-12


def test_closed_form_probe_zero_gradient():
    ck, samples, coeff = _probe_case("8", scale_last_hidden=0.0)  # a silent layer
    assert not np.any(_output_weight_grads(ck, samples, coeff))
    assert not np.any(tape_output_weight_grads(ck, samples, coeff))
    assert consistency_report(ck, samples).grad_cosine_mean == 0.0


def test_parallel_step_gradients_give_cosine_one():
    """One sample through a one-unit layer: every step's gradient is a
    multiple of the same coefficient row, so each cosine is 1 (up to the
    rounding the report clips)."""
    ck, samples, _ = _probe_case("1")
    assert consistency_report(ck, samples[:1]).grad_cosine_mean == 1.0


def test_consistency_cosine_matches_tape_probe(trained):
    """grad_cosine_mean equals the pairwise cosines of the tape gradients."""
    ck = trained.checkpoint
    samples = load_dataset(ck.config).test
    steps = ck.config.timesteps
    values, _ = lif_unroll(_ckpt_spec(ck, steps), ck.params, samples.inputs)
    y = np.eye(2)[samples.labels]
    p = np.exp(values.mean(axis=1))
    coeff = (p / p.sum(axis=1, keepdims=True) - y) / (len(samples) * steps)
    grads = tape_output_weight_grads(ck, samples, coeff).reshape(steps, -1)
    cosines = []
    for a in range(steps):
        for b in range(a + 1, steps):
            na, nb = np.linalg.norm(grads[a]), np.linalg.norm(grads[b])
            cosines.append(0.0 if na == 0 or nb == 0 else grads[a] @ grads[b] / (na * nb))
    got = consistency_report(ck, samples).grad_cosine_mean
    assert abs(got - np.mean(cosines)) <= 1e-12


def test_prefix_accuracy_ties_break_to_lowest_class():
    values = np.zeros((2, 2, 3))
    assert _prefix_accuracy(values, np.array([0, 0]), 2) == 1.0
    assert _prefix_accuracy(values, np.array([1, 2]), 2) == 0.0


def test_consistency_report_fields(trained):
    data = load_dataset(trained.checkpoint.config)
    rep = consistency_report(trained.checkpoint, data.test)
    d = rep.to_dict()
    assert d["samples"] == len(data.test)
    assert d["mean_pairwise_kl"] >= 0.0
    assert 0.0 <= d["argmax_flip_rate"] <= 1.0
    assert -1.0 <= d["grad_cosine_mean"] <= 1.0


def test_consistency_report_needs_two_timesteps(tmp_path):
    cfg = build_run_config(tiny(**{"network.timesteps": "1", "train.epochs": "1"}))
    result = train(cfg, tmp_path / "run")
    data = load_dataset(cfg)
    with pytest.raises(ValueError, match="2 timesteps"):
        consistency_report(result.checkpoint, data.test)


def test_dump_distributions_format(trained, tmp_path):
    data = load_dataset(trained.checkpoint.config)
    out = tmp_path / "dist.csv"
    dump_distributions(trained.checkpoint, data.test[:3], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,label,t,argmax,p_0,p_1"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 3 * (3 + 1)  # T rows plus one mean row per sample
    for i in range(3):
        rows = body[i * 4 : (i + 1) * 4]
        assert [r[2] for r in rows] == ["1", "2", "3", "mean"]
        for r in rows:
            probs = [float(p) for p in r[4:]]
            assert abs(sum(probs) - 1.0) <= 1e-9
            assert int(r[3]) == int(np.argmax(probs))
            assert r[1] == str(data.test.labels[i])


def reference_dump(ckpt, split):
    """The distribution CSV built one ``repr(float(p))`` at a time."""
    values = train_module._ckpt_forward(ckpt, split, ckpt.config.timesteps)
    probs = train_module._softmax_np(values)
    mean_probs = train_module._softmax_np(values.mean(axis=1))
    lines = ["sample_id,label,t,argmax," + ",".join(f"p_{c}" for c in range(values.shape[2]))]
    for i, label in enumerate(split.labels):
        for t in range(values.shape[1]):
            row = probs[i, t]
            lines.append(f"{i},{label},{t + 1},{int(np.argmax(row))},"
                         + ",".join(repr(float(p)) for p in row))
        lines.append(f"{i},{label},mean,{int(np.argmax(mean_probs[i]))},"
                     + ",".join(repr(float(p)) for p in mean_probs[i]))
    return ("\n".join(lines) + "\n").encode()


def test_dump_distributions_bytes_match_per_element_format(trained, tmp_path):
    ck, samples, _ = _probe_case("8")  # fixed random weights: varied probabilities
    out = tmp_path / "probe.csv"
    dump_distributions(ck, samples, out)
    assert out.read_bytes() == reference_dump(ck, samples)
    cells = {p for line in out.read_text().splitlines()[1:] for p in line.split(",")[4:]}
    assert len(cells) > 100
    test = load_dataset(trained.checkpoint.config).test
    dump_distributions(trained.checkpoint, test, out)
    assert out.read_bytes() == reference_dump(trained.checkpoint, test)


def test_dump_distributions_deterministic(trained, tmp_path):
    data = load_dataset(trained.checkpoint.config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_distributions(trained.checkpoint, data.test[:2], a)
    dump_distributions(trained.checkpoint, data.test[:2], b)
    assert a.read_bytes() == b.read_bytes()
