"""Trainer, config round-trip, checkpointing, and analysis-op tests.

Every training test runs a deliberately tiny synthetic job (two or three
classes, eight input dims, a handful of epochs) so the whole file stays in
the sub-minute range while still exercising the full loop: shuffling,
AdamW updates, metric logging, checkpoint writes, and resume.
"""

import concurrent.futures
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import types
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsnn import train as train_module
from etcsnn.autodiff import Tensor, lif_unroll_reference, mul, sum_all
from etcsnn.cli import run_cli
from etcsnn.data import DataError, Split
from etcsnn.optim import OptimState
from etcsnn.snn import NetworkSpec, NonFiniteError, init_weights, lif_unroll
from etcsnn.train import (
    Checkpoint,
    CheckpointError,
    ConfigError,
    TrainingError,
    build_run_config,
    config_to_items,
    config_to_text,
    consistency_report,
    default_config,
    dump_distributions,
    parse_config_lines,
    eval_per_timestep,
    load_checkpoint,
    load_dataset,
    run_config_from_text,
    save_checkpoint,
    train,
    train_many,
)
from etcsnn.train import _output_weight_grads
from oracles import (
    budget_accuracies_frozen,
    distribution_csv_frozen,
    eval_forward_frozen,
    norm_rel_err,
)


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
    with pytest.raises(ConfigError, match="^config key train.lr: unknown key$"):
        build_run_config({"train.lr": "0.1"})
    with pytest.raises(ConfigError, match=r"^config key '0\\r0': unknown key$"):
        build_run_config({"0\r0": "1"})


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
        ("data.seed", "-1"),
        ("train.seed", "-1"),
    ],
)
def test_constraint_violation_names_its_key(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        build_run_config({key: value})


def test_class_count_divisible_by_five_is_allowed_for_other_kinds():
    # idx and events take their classes from the labels, not from data.classes
    assert build_run_config({"data.classes": "5", "data.kind": "idx"}).data.classes == 5


@pytest.mark.parametrize("classes", [5, 10])
def test_synth_class_count_divisible_by_five_trains(tmp_path, classes):
    """Every class is held out alike, so any class count trains; the test
    split holds samples_per_class // 5 samples of every class."""
    cfg = build_run_config(tiny(**{"data.classes": str(classes), "data.dim": "12",
                                   "data.samples_per_class": "12"}))
    data = load_dataset(cfg)
    assert np.bincount(data.test.labels).tolist() == [12 // 5] * classes
    assert np.bincount(data.train.labels).tolist() == [12 - 12 // 5] * classes
    result = train(cfg, tmp_path / "run")
    assert len(result.records) == 3 and result.ckpt_path.exists()


def test_eval_timesteps_default_tracks_timesteps_override():
    cfg = build_run_config({"network.timesteps": "4"})
    assert cfg.eval_timesteps == (1, 2, 3, 4)


def test_eval_timesteps_explicit_and_bounded():
    cfg = build_run_config({"network.timesteps": "6", "eval.timesteps": "1,3,6"})
    assert cfg.eval_timesteps == (1, 3, 6)
    with pytest.raises(ConfigError, match=r"eval\.timesteps"):
        build_run_config({"network.timesteps": "4", "eval.timesteps": "5"})


def test_build_run_config_without_a_base_builds_on_the_defaults():
    assert build_run_config({}) == build_run_config({}, base=None) == default_config()
    base = build_run_config(tiny())
    assert build_run_config({}, base=base) == base


def test_base_default_eval_list_follows_timesteps():
    base = build_run_config(tiny())
    assert base.eval_timesteps == (1, 2, 3)
    for steps in (5, 2):
        cfg = build_run_config({"network.timesteps": str(steps)}, base=base)
        assert cfg.eval_timesteps == tuple(range(1, steps + 1))


def test_base_custom_eval_list_is_kept_and_range_checked():
    base = build_run_config(tiny(**{"eval.timesteps": "3,1"}))
    assert build_run_config({"network.timesteps": "5"}, base=base).eval_timesteps == (3, 1)
    with pytest.raises(ConfigError, match=r"config key eval\.timesteps: entries must lie in \[1, 2\]"):
        build_run_config({"network.timesteps": "2"}, base=base)


def test_override_wins_over_the_base():
    base = build_run_config(tiny())
    cfg = build_run_config({"etc.tau": "4", "eval.timesteps": "2"}, base=base)
    assert (cfg.etc.tau, cfg.eval_timesteps) == (4.0, (2,))
    assert replace(cfg, etc=base.etc, eval_timesteps=base.eval_timesteps) == base


_FLOAT_KEYS = [key for key, kind, _ in train_module._CONFIG_TABLE
               if kind == train_module._FLOAT]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_names_its_key(key, text):
    with pytest.raises(ConfigError, match=rf"config key {re.escape(key)}: .*not a finite"):
        build_run_config({key: text})


# a valid value other than the default for every row of the config table,
# written as config_to_items echoes it
NON_DEFAULT = {
    "data.kind": "idx",
    "data.classes": "3",
    "data.dim": "65",
    "data.drift_strength": "2.5",
    "data.noise_sigma": "0.25",
    "data.samples_per_class": "7",
    "data.seed": "9",
    "data.images": "img.idx",
    "data.labels": "lbl.idx",
    "data.test_images": "timg.idx",
    "data.test_labels": "tlbl.idx",
    "data.events_dir": "events",
    "data.width": "5",
    "data.height": "6",
    "network.hidden_sizes": "16,8",
    "network.timesteps": "4",
    "lif.tau_m": "3.5",
    "lif.v_th": "0.75",
    "lif.v_reset": "0.125",
    "lif.surrogate_a": "1.5",
    "etc.tau": "2.0",
    "etc.lambda": "0.5",
    "opt.lr": "0.02",
    "opt.weight_decay": "0.001",
    "opt.beta1": "0.8",
    "opt.beta2": "0.99",
    "opt.eps": "1e-06",
    "train.epochs": "7",
    "train.batch_size": "16",
    "train.seed": "11",
    "train.loss_mode": "ce_only",
    "train.save_interval": "2",
    "eval.timesteps": "1,5",
}


def test_non_default_values_cover_the_table():
    assert list(NON_DEFAULT) == [key for key, _, _ in train_module._CONFIG_TABLE]


@pytest.mark.parametrize(
    "key,kind,path", train_module._CONFIG_TABLE, ids=[r[0] for r in train_module._CONFIG_TABLE]
)
def test_each_table_row_lands_at_its_path_and_echoes(key, kind, path):
    """A value set under one key reaches that row's attribute and no other."""
    cfg = build_run_config({key: NON_DEFAULT[key]})
    landed, default = cfg, default_config()
    for name in path:
        landed, default = getattr(landed, name), getattr(default, name)
    assert landed == train_module._parse_value(key, kind, NON_DEFAULT[key]) != default
    items = dict(config_to_items(cfg))
    assert items[key] == NON_DEFAULT[key]
    defaults = dict(config_to_items(default_config()))
    changed = {k for k, v in items.items() if v != defaults[k]}
    # the default eval list is every step, so it follows network.timesteps
    assert changed == ({key, "eval.timesteps"} if key == "network.timesteps" else {key})


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = run_config_from_text(block)
    assert cfg.loss_mode == "ce_plus_etc" and cfg.epochs == 40 and cfg.lr_base == 0.01
    items = dict(config_to_items(cfg))
    assert all(items[k] == v for k, v in parse_config_lines(block).items())


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
# on 10 samples per class (x86-64, numpy 2.4), pinned when the hold-out rule
# became every fifth sample of each class.  The numpy step reproduced the
# tape-built step's bytes bit for bit on the earlier split.  The checkpoint
# hashes are of format version 3: each is the version-2 file's with its
# weight count and optimizer block cut, the version set to 3 and the crc32
# recomputed.  Re-pinned when the data.file key left the config echo: with
# its line put back (``with_data_file``) the files hash to ``WITH_DATA_FILE``.
GOLDEN_RUNS = {
    "ce_only": (
        "d1f97cbfbf2973825834a607010721e34201c2272aa8b7ed7b2a9dc069be655a",
        "7f1209800133037663466be5bc78950f312dd547db1690d7aa95f739b764cc73",
    ),
    "ce_plus_etc": (
        "10c9f19c8b4c13122c87100f45a2e589f1707dbd8baf24062b19019088382a44",
        "de16855728711ed12daae9130c3abb74978c806e96345bfe6f28aaae9643b9ae",
    ),
    "per_timestep_ce": (
        "4e4dd22ae7c0c0b9cc8f716cc70e392dce06fb0affd52417438db16882cb6e1e",
        "c23ae187be61657ab173a5c0111f1bc3f4b764da333522b59ee10fa3703c1949",
    ),
    "per_timestep_ce-reset-16-8": (
        "cc26ec86709c31374ca3df7eb0568fb05dc898f6b7fd843882425cca8c8214ce",
        "4fb18e21abe723f5c47444c7b828eebdd17cac460a18003c25e7da419362dd9f",
    ),
}
WITH_DATA_FILE = {
    "ce_only": (
        "b7449decc95ad13849d1e20470be3b41d8bcf55c8b91bf99897f499884388dbe",
        "f78b6047d988600f4243fb20dee65d7bde84f531201b4a2a272bf1fd7b77038b",
    ),
    "ce_plus_etc": (
        "1e9165024341a44bc9c52d40d97287f053b2c72fc15deceab54396f2c14f272c",
        "01277e0308d642b2f339f380cb2e44682c5008fb0fdcadccf840a586887a2452",
    ),
    "per_timestep_ce": (
        "1797142964810145fefcd4e08b6190dfc9092d3f003c92b814a389a188257b45",
        "3a95a97d26d2f990108638fa2889e4abd30d06e2bbf30762b70b9ef6e0708869",
    ),
    "per_timestep_ce-reset-16-8": (
        "ff4bf64e3973cd23837b471714d2b37fc161a9fd4ecd4aac213cd550f8a02c44",
        "8255799dfcca1e82856ad230eec208e0d8655ec4f0bf1f03bd2e94fd0867ab73",
    ),
}
# the keys each row sets; a row not named here sets only its loss mode
GOLDEN_OVERRIDES = {
    "per_timestep_ce-reset-16-8": {
        "train.loss_mode": "per_timestep_ce", "lif.v_reset": "0.1",
        "network.hidden_sizes": "16,8",
    },
}


def with_data_file(metrics: bytes, ckpt: bytes) -> tuple[bytes, bytes]:
    """A run's metrics.jsonl and checkpoint as written while the config echoed
    an empty data.file after data.seed: the key put back in the log's header
    and in the checkpoint's config text, whose u64 length and crc32 trailer
    are recomputed."""
    metrics = re.sub(rb'("data\.seed": "\d+", )', rb'\1"data.file": "", ', metrics, count=1)
    (text_len,) = struct.unpack("<Q", ckpt[12:20])
    text = re.sub(rb"(data\.seed=\d+\n)", rb"\1data.file=\n", ckpt[20 : 20 + text_len], count=1)
    framed = ckpt[:12] + struct.pack("<Q", len(text)) + text + ckpt[20 + text_len : -4]
    return metrics, framed + struct.pack("<I", zlib.crc32(framed))


@pytest.mark.parametrize("row", sorted(GOLDEN_RUNS))
def test_training_outputs_match_golden_hashes(tmp_path, row):
    cfg = build_run_config({
        "train.loss_mode": row, "train.epochs": "2", "data.samples_per_class": "10",
        **GOLDEN_OVERRIDES.get(row, {}),
    })
    result = train(cfg, tmp_path / "run")
    files = [path.read_bytes() for path in (result.metrics_path, result.ckpt_path)]
    got = tuple(hashlib.sha256(blob).hexdigest() for blob in files)
    assert got == GOLDEN_RUNS[row]
    was = tuple(hashlib.sha256(blob).hexdigest() for blob in with_data_file(*files))
    assert was == WITH_DATA_FILE[row]


def test_checkpoint_echoing_data_file_is_refused_naming_it(trained, tmp_path, capsys):
    """A checkpoint written while the config held data.file must be retrained:
    loading it is one ``error:`` line naming the file and the key, exit 2."""
    files = (trained.metrics_path.read_bytes(), trained.ckpt_path.read_bytes())
    old = tmp_path / "old.bin"
    old.write_bytes(with_data_file(*files)[1])
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(old)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {old}: embedded config invalid: config key data.file: unknown key\n"
    )
    assert captured.out == ""


def test_overflowing_potential_is_a_training_error(tmp_path, monkeypatch):
    """Synthetic inputs through weights of 1e308 overflow the first layer's
    charged potential while its spikes stay 0/1; the run must stop with the
    epoch and batch named instead of training on."""
    monkeypatch.setattr(
        train_module, "init_weights",
        lambda net, seed: [np.full((a, b), 1e308) for a, b in
                           zip(net.layer_sizes, net.layer_sizes[1:])],
    )
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0: .*membrane"):
        train(build_run_config(tiny()), tmp_path / "run")


def test_step_gradients_die_before_the_next_forward(tmp_path, monkeypatch):
    """No local keeps a step's gradient list: every array ``adamw_step``
    received is freed before the next ``lif_unroll`` starts, so a step's
    gradients do not live through the next step's peak."""
    refs, checked = [], []
    update, unroll = train_module.adamw_step, train_module.lif_unroll

    def spy_update(params, grads, state, lr_now):
        refs[:] = [weakref.ref(g) for g in grads]
        return update(params, grads, state, lr_now)

    def checked_unroll(*args, **kwargs):
        if refs:
            assert all(ref() is None for ref in refs), "a gradient outlived its step"
            checked.append(len(refs))
        return unroll(*args, **kwargs)

    monkeypatch.setattr(train_module, "adamw_step", spy_update)
    monkeypatch.setattr(train_module, "lif_unroll", checked_unroll)
    train(build_run_config(tiny(**{"train.epochs": "2"})), tmp_path / "run")
    assert len(checked) >= 4 and set(checked) == {2}


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


def test_resume_failing_before_its_first_record_keeps_the_log(tmp_path, monkeypatch):
    """A resumed run that fails before its first new epoch record leaves the
    log it resumed, records after the checkpoint's epoch included, as it was."""
    cfg = build_run_config(tiny(**{"train.epochs": "4", "train.save_interval": "2"}))
    run = tmp_path / "run"
    train(cfg, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}

    def overflow(lif, params, inputs):
        raise NonFiniteError("non-finite membrane potentials in a LIF layer")

    monkeypatch.setattr(train_module, "lif_unroll", overflow)
    with pytest.raises(TrainingError, match="epoch 2, batch 0: non-finite"):
        train(cfg, run, resume_from=run / "ckpt_epoch0002.bin")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


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
    # an IDX image file that is not one
    (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", 0x801, 0, 2, 2))
    idx = tiny(**{"data.kind": "idx", "data.images": str(tmp_path / "img.idx"),
                  "data.labels": str(tmp_path / "lbl.idx")})
    with pytest.raises(DataError, match=r"img\.idx: bad magic 0x00000801"):
        train(build_run_config(idx), tmp_path / "b")
    # one event file per class: every file lands in the train split
    for name in ("x", "y"):
        (tmp_path / "events" / name).mkdir(parents=True)
        (tmp_path / "events" / name / "s0.csv").write_text("t_us,x,y,polarity\n0,0,0,0\n")
    events = tiny(**{"data.kind": "events", "data.events_dir": str(tmp_path / "events"),
                     "data.width": "2", "data.height": "2"})
    with pytest.raises(ValueError, match="no samples"):
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


# -- many runs ---------------------------------------------------------------------


def _pinned_environment(monkeypatch) -> dict:
    """``os.environ`` with one BLAS variable set to another count and one
    unset, as ``train_many`` must leave it."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    return dict(os.environ)


def test_train_many_writes_the_bytes_of_solo_runs(tmp_path, monkeypatch):
    """Pooled runs come back in job order and write the bytes in-process
    ``train()`` calls write; the environment is as it was."""
    before = _pinned_environment(monkeypatch)
    modes = ("ce_only", "ce_plus_etc")
    configs = [build_run_config(tiny(**{"train.loss_mode": mode})) for mode in modes]
    pooled = train_many([(cfg, tmp_path / "pooled" / mode) for cfg, mode in zip(configs, modes)])
    assert dict(os.environ) == before
    for result, cfg, mode in zip(pooled, configs, modes, strict=True):
        solo = train(cfg, tmp_path / "solo" / mode)
        assert result.ckpt_path == tmp_path / "pooled" / mode / "ckpt_final.bin"
        assert result.records == solo.records
        assert result.metrics_path.read_bytes() == solo.metrics_path.read_bytes()
        assert result.ckpt_path.read_bytes() == solo.ckpt_path.read_bytes()


def test_train_many_failing_job_raises_its_own_error(tmp_path, monkeypatch):
    """A job that fails in its worker raises its own error in the caller,
    here a missing IDX file before its run directory is made; the
    environment is as it was."""
    before = _pinned_environment(monkeypatch)
    missing = str(tmp_path / "missing.idx")
    idx = {"data.kind": "idx", "data.images": missing, "data.labels": missing}
    jobs = [(build_run_config(tiny()), tmp_path / "good"),
            (build_run_config(tiny(**idx)), tmp_path / "bad")]
    with pytest.raises(FileNotFoundError, match=r"missing\.idx"):
        train_many(jobs)
    assert dict(os.environ) == before
    assert not (tmp_path / "bad").exists()


def test_train_many_of_no_jobs_starts_no_pool(monkeypatch):
    """No jobs are ``[]``: no pool is built and ``os.environ`` is never
    written, here a read-only view that would raise on a write."""

    def no_pool(*args, **kwargs):
        raise AssertionError("train_many built a pool for no jobs")

    # undone before pytest's own teardown writes the environment
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        patch.setattr(os, "environ", types.MappingProxyType(dict(os.environ)))
        assert train_many([]) == []


def test_train_many_refuses_two_jobs_in_one_directory(tmp_path, monkeypatch):
    """Two jobs whose directories resolve to one path are one ValueError
    naming it, before any pool, environment write or directory."""

    def no_pool(*args, **kwargs):
        raise AssertionError("train_many built a pool for clashing jobs")

    monkeypatch.chdir(tmp_path)
    cfg = build_run_config(tiny())
    jobs = [(cfg, tmp_path / "a"), (cfg, "b"), (cfg, Path("c", "..", "a"))]
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        patch.setattr(os, "environ", types.MappingProxyType(dict(os.environ)))
        with pytest.raises(ValueError, match=re.escape(f"output directory {tmp_path / 'a'}")):
            train_many(jobs)
    assert list(tmp_path.iterdir()) == []


def test_train_many_from_stdin_is_one_clear_error(tmp_path):
    """Spawned workers cannot re-import a script piped to ``python -``: the
    call raises one RuntimeError that says so before any worker starts,
    not ``BrokenProcessPool`` after one traceback per worker."""
    script = (
        "from etcsnn.train import build_run_config, train_many\n"
        f"train_many([(build_run_config({tiny()!r}), {str(tmp_path / 'run')!r})])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(train_module.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 1
    assert proc.stderr.count("Traceback") == 1, proc.stderr
    assert re.match(r"RuntimeError: train_many: .* from stdin ", proc.stderr.splitlines()[-1])
    assert not (tmp_path / "run").exists()


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
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)


def test_checkpoint_bad_version(trained, tmp_path):
    blob = bytearray(trained.ckpt_path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(bad)


def test_checkpoint_layout_has_one_epoch_and_ends_in_a_crc32(trained):
    """Version 3: the epoch, then w0 at once; no weight count."""
    blob = trained.ckpt_path.read_bytes()
    (version, text_len) = struct.unpack("<IQ", blob[8:20])
    (epoch,) = struct.unpack("<Q", blob[20 + text_len : 28 + text_len])
    assert (version, epoch) == (3, 3)
    assert blob[28 + text_len : 34 + text_len] == struct.pack("<I", 2) + b"w0"
    assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))


@pytest.mark.parametrize("tensor", ["w0", "w1", "m0", "v1", "crc"])
def test_checkpoint_altered_byte_fails_the_checksum(trained, tmp_path, tensor):
    blob = bytearray(trained.ckpt_path.read_bytes())
    if tensor == "crc":
        blob[-1] ^= 0x01
    else:
        # past the name's length prefix, the name, the rank and two dims
        first = blob.index(struct.pack("<I", 2) + tensor.encode()) + 4 + 2 + 4 + 8
        blob[first + 7] ^= 0x40  # top byte of the tensor's first element
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"bad\.bin: checksum mismatch"):
        load_checkpoint(bad)


def test_checkpoint_truncated(trained, tmp_path):
    blob = trained.ckpt_path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_checkpoint_trailing_bytes(trained, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(trained.ckpt_path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
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
        epoch=ck.epoch,
        params=ck.params[:1],
        opt=OptimState(
            step=opt.step, m=opt.m[:1], v=opt.v[:1], lr_base=opt.lr_base,
            weight_decay=opt.weight_decay, beta1=opt.beta1, beta2=opt.beta2,
            eps=opt.eps,
        ),
    )
    # the file holds one layer while the embedded config wants hidden + output
    # = two, so the reader meets the step counter where it expects w1
    bad = tmp_path / "bad.bin"
    save_checkpoint(hacked, bad)
    with pytest.raises(CheckpointError, match=r"bad\.bin: expected tensor 'w1', found "):
        load_checkpoint(bad)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    lr=_POSITIVE,
    weight_decay=st.floats(min_value=0.0, allow_infinity=False),
    beta1=st.floats(0.0, 1.0, exclude_max=True),
    beta2=st.floats(0.0, 1.0, exclude_max=True),
    eps=_POSITIVE,
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    step=st.integers(0, 2**64 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_takes_its_optimizer_settings_from_its_config(
    tmp_path_factory, lr, weight_decay, beta1, beta2, eps, hidden, step, seed
):
    """The optimizer settings are stored once, in the embedded config: a
    loaded state's fields are the config's, and a re-save is byte-identical.
    The weight count is the config's too: a file with one weight record too
    few or too many is one CheckpointError naming it."""
    cfg = build_run_config(tiny(**{
        "opt.lr": repr(lr), "opt.weight_decay": repr(weight_decay), "opt.beta1": repr(beta1),
        "opt.beta2": repr(beta2), "opt.eps": repr(eps),
        "network.hidden_sizes": ",".join(map(str, hidden)),
    }))
    rng = np.random.default_rng(seed)
    sizes = (cfg.data.dim, *hidden, cfg.data.classes)
    params, m, v = ([rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])] for _ in "pmv")
    hypers = {name: getattr(cfg, name) for name in train_module._OPT_HYPERS}
    ck = Checkpoint(cfg, 5, params, OptimState(step=step, m=m, v=v, **hypers))
    root = tmp_path_factory.getbasetemp() / "opt-settings"
    root.mkdir(exist_ok=True)
    path, again = root / "ck.bin", root / "again.bin"
    save_checkpoint(ck, path)
    got = load_checkpoint(path)
    for name in train_module._OPT_HYPERS:
        assert repr(getattr(got.opt, name)) == repr(getattr(cfg, name)), name
    assert (got.epoch, got.opt.step) == (5, step)
    for a, b in zip([*got.params, *got.opt.m, *got.opt.v], [*params, *m, *v]):
        assert np.array_equal(a, b)
    save_checkpoint(got, again)
    assert again.read_bytes() == path.read_bytes()

    extra = [rng.normal(size=(cfg.data.classes, 3))]
    for count, arrays in (("few", [params[:-1], m[:-1], v[:-1]]),
                          ("many", [params + extra, m + extra, v + extra])):
        bad = root / f"too-{count}.bin"
        p, m_bad, v_bad = arrays
        save_checkpoint(Checkpoint(cfg, 5, p, OptimState(step=step, m=m_bad, v=v_bad)), bad)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert str(err.value).startswith(f"{bad}: "), (count, str(err.value))


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
    hacked = Checkpoint(trained.checkpoint.config, 7, trained.checkpoint.params,
                        trained.checkpoint.opt)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(hacked, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]


def test_checkpoint_dim_mismatch_with_config(trained, tmp_path):
    ck = load_checkpoint(trained.ckpt_path)
    hacked = Checkpoint(
        config=ck.config,
        epoch=ck.epoch,
        params=[p.T.copy() for p in ck.params],
        opt=ck.opt,
    )
    bad = tmp_path / "bad.bin"
    save_checkpoint(hacked, bad)
    with pytest.raises(CheckpointError, match=r"bad\.bin: weight w1 has shape \(2, 8\), expected"):
        load_checkpoint(bad)


def test_checkpoint_output_weight_of_rank_0_is_refused(trained, tmp_path):
    """The output width is read from the last weight; one of rank 0 has none,
    and is refused, not an IndexError."""
    ck = load_checkpoint(trained.ckpt_path)
    scalar = [np.array(1.0)]
    opt = replace(ck.opt, m=ck.opt.m[:1] + scalar, v=ck.opt.v[:1] + scalar)
    bad = tmp_path / "bad.bin"
    save_checkpoint(replace(ck, params=ck.params[:1] + scalar, opt=opt), bad)
    with pytest.raises(CheckpointError, match=r"bad\.bin: weight w1 has shape \(\), expected"):
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
    size = ckpt.config.batch_size
    values = np.concatenate([
        lif_unroll(ckpt.config.lif, ckpt.params, inputs[b0 : b0 + size])[0]
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


@st.composite
def grouped_forward_cases(draw):
    """``(checkpoint, split, steps)`` for ``_ckpt_forward``.  In
    three of four cases one hidden layer is sized against the group budget:
    0.3, 0.6 or 1.5 times the width at which one batch fills it, so a group
    holds three batches, one batch, or one batch over the budget; narrow
    layers put every batch of the split in one group."""
    wide = draw(st.sampled_from([None, 0.3, 0.6, 1.5]))
    batch = draw(st.integers(1, 40) if wide is None else st.integers(24, 40))
    timesteps = draw(st.integers(1, 12) if wide is None else st.integers(10, 12))
    steps = draw(st.integers(1 if wide is None else 10, timesteps))  # < T: a strided input view
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    if wide is not None:
        fill = train_module._GROUP_BYTES // (8 * steps * batch)
        hidden[draw(st.integers(0, len(hidden) - 1))] = int(wide * fill)
    n = draw(st.integers(1, 4 * batch + 1))
    sizes = (draw(st.integers(1, 8)), *hidden, draw(st.integers(2, 5)))
    cfg = build_run_config(tiny(**{
        "network.hidden_sizes": ",".join(map(str, hidden)),
        "network.timesteps": timesteps,
        "train.batch_size": batch,
        "lif.v_reset": draw(st.sampled_from([0.0, 0.1])),
    }))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = [rng.normal(0.3, 1.0, size=(a, b)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    split = Split(rng.uniform(-0.5, 1.5, size=(n, timesteps, sizes[0])),
                  rng.integers(0, sizes[-1], size=n))
    return _checkpoint(cfg, params), split, steps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=grouped_forward_cases())
def test_grouped_forward_matches_frozen_per_batch_forward_bitwise(case):
    """Whole batches grouped into one unroll, one matmul per batch, give the
    raw bits of one frozen unroll per batch: BLAS picks its kernel by shape,
    so a larger matmul could move the last bits of every potential."""
    ck, split, steps = case
    lif = ck.config.lif
    got = train_module._ckpt_forward(ck, split, steps)
    want = eval_forward_frozen(
        ck.params, split.inputs, steps, ck.config.batch_size, lif.tau_m, lif.v_th, lif.v_reset
    )
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _forward_case(hidden, batch, n, dim):
    cfg = build_run_config(tiny(**{
        "network.hidden_sizes": hidden, "network.timesteps": 10, "train.batch_size": batch,
    }))
    spec = NetworkSpec((dim, *cfg.hidden_sizes, 4), timesteps=10, lif=cfg.lif)
    params = init_weights(spec, seed=3)
    rng = np.random.default_rng(5)
    split = Split(rng.uniform(0.0, 1.5, size=(n, 10, dim)), rng.integers(0, 4, size=n))
    return _checkpoint(cfg, params), spec, split


def test_grouped_forward_peak_is_the_per_batch_peak_when_a_batch_fills_the_budget():
    """At 256 hidden units, B=128 and T=10 one batch exceeds the group
    budget, so each group is one batch and allocates the arrays one unroll
    per batch does; 4 KiB covers the Python objects (views, lists) of the
    grouping."""
    ck, spec, split = _forward_case("256", 128, 300, 16)
    assert 10 * 128 * 256 * 8 > train_module._GROUP_BYTES
    x = split.inputs

    def per_batch():
        return np.concatenate([lif_unroll(spec.lif, ck.params, x[b : b + 128])[0]
                               for b in range(0, len(x), 128)])

    grouped = _traced_peak(lambda: train_module._ckpt_forward(ck, split, 10))
    assert grouped <= _traced_peak(per_batch) + 4096


def test_grouped_forward_peak_is_bounded_by_the_budget():
    """At the default net a group holds six batches.  Until its output is
    done, a group keeps each hidden layer's charged potentials and spikes:
    two arrays within the budget per layer, plus one budget for the drive
    being built; the split's output potentials are held twice (the groups'
    list and its concatenation).  One array per split would not fit."""
    ck, _, split = _forward_case("64", 32, 500, 64)
    bound = (2 * 1 + 1) * train_module._GROUP_BYTES + 2 * (500 * 10 * 4 * 8)
    assert _traced_peak(lambda: train_module._ckpt_forward(ck, split, 10)) <= bound
    assert 2 * (10 * 500 * 64 * 8) > bound


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
    return Checkpoint(cfg, 0, params, OptimState.fresh(params))


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
    assert consistency_report(ck, samples)["grad_cosine_mean"] == 0.0


@pytest.mark.parametrize("hidden", ["1", "8", "6,5"])
@pytest.mark.parametrize("batches", [1, 2, 3])
def test_probe_matches_frozen_identity_readout_forward_bitwise(hidden, batches):
    """The probe's gradients are the einsum over the frozen per-batch forward
    with an identity readout for the output weights, bit for bit: one matmul
    per ``train.batch_size`` samples, here sized so the 64-sample probe spans
    1, 2 or 3 batches.  A one-unit layer's readout carries the zero column."""
    n, steps = train_module._GRAD_BATCH, 5
    batch = -(-n // batches)
    cfg = build_run_config(tiny(**{
        "network.hidden_sizes": hidden, "network.timesteps": steps,
        "train.batch_size": batch, "lif.v_reset": 0.1,
    }))
    rng = np.random.default_rng(batches)
    sizes = (8, *cfg.hidden_sizes, 2)
    params = [rng.normal(0.5, 1.0, size=(a, b)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    samples = Split(rng.uniform(0.0, 2.0, size=(n, steps, 8)), np.arange(n) % 2)
    coeff = rng.normal(size=(n, 2))
    h, lif = sizes[-2], cfg.lif
    trace = eval_forward_frozen([*params[:-1], np.eye(h, h + 1)], samples.inputs, steps, batch,
                                lif.tau_m, lif.v_th, lif.v_reset)
    want = np.einsum("nth,nc->thc", trace[..., :h], coeff)
    got = _output_weight_grads(_checkpoint(cfg, params), samples, coeff)
    assert np.any(want != 0.0)  # the last hidden layer spikes
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_parallel_step_gradients_give_cosine_one():
    """One sample through a one-unit layer: every step's gradient is a
    multiple of the same coefficient row, so each cosine is 1 (up to the
    rounding the report clips)."""
    ck, samples, _ = _probe_case("1")
    assert consistency_report(ck, samples[:1])["grad_cosine_mean"] == 1.0


def test_consistency_cosine_matches_tape_probe(trained):
    """grad_cosine_mean equals the pairwise cosines of the tape gradients."""
    ck = trained.checkpoint
    samples = load_dataset(ck.config).test
    steps = ck.config.timesteps
    values, _ = lif_unroll(ck.config.lif, ck.params, samples.inputs)
    y = np.eye(2)[samples.labels]
    p = np.exp(values.mean(axis=1))
    coeff = (p / p.sum(axis=1, keepdims=True) - y) / (len(samples) * steps)
    grads = tape_output_weight_grads(ck, samples, coeff).reshape(steps, -1)
    cosines = []
    for a in range(steps):
        for b in range(a + 1, steps):
            na, nb = np.linalg.norm(grads[a]), np.linalg.norm(grads[b])
            cosines.append(0.0 if na == 0 or nb == 0 else grads[a] @ grads[b] / (na * nb))
    got = consistency_report(ck, samples)["grad_cosine_mean"]
    assert abs(got - np.mean(cosines)) <= 1e-12


def test_prefix_accuracy_ties_break_to_lowest_class():
    """Where every class ties, the lowest one is the prediction at every budget."""
    ties = np.zeros((2, 2, 3))
    for labels, want in (([0, 0], 1.0), ([1, 2], 0.0)):
        got = train_module._budget_accuracies(ties, np.array(labels), [2, 1])
        assert got == {"2": want, "1": want}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    steps=st.integers(1, 12),
    classes=st.sampled_from([2, 3, 4, 7, 9, 16]),
    budget_draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
    grid=st.sampled_from([None, 1.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluation_matches_frozen_per_budget_code(n, steps, classes, budget_draws, grid, seed):
    """One cumulative sum and one argmax against a frozen copy of the pass
    per budget and the per-row ``max``/``index``: equal accuracies in the
    same key order (budgets repeated and out of order) and equal CSV bytes.
    Values on a coarse grid tie prefix sums and probabilities across
    classes, so the lowest-class tie rule is exercised."""
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=2.0, size=(n, steps, classes))
    if grid is not None:
        values = np.round(values / grid) * grid
    labels = rng.integers(0, classes, size=n)
    budgets = [1 + int(d * steps) for d in budget_draws]

    got = train_module._budget_accuracies(values, labels, budgets)
    want = budget_accuracies_frozen(values, labels, budgets)
    assert list(got.items()) == list(want.items())

    probs = train_module._softmax_np(values)
    mean_probs = train_module._softmax_np(values.mean(axis=1))
    csv = "".join(train_module._distribution_csv(values, labels))
    assert csv.encode() == distribution_csv_frozen(labels, probs, mean_probs).encode()


def test_consistency_report_fields(trained):
    data = load_dataset(trained.checkpoint.config)
    d = consistency_report(trained.checkpoint, data.test)
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


def test_dump_holds_no_more_than_the_forward(tmp_path):
    """Over the default config's 500-sample test split the dump's traced
    peak is at most 64 KiB above the forward's own: the CSV is written one
    sample at a time, never held whole, as lines or as Python floats."""
    cfg = default_config()
    split = train_module.load_test_split(cfg)
    sizes = (split.inputs.shape[2], *cfg.hidden_sizes, cfg.data.classes)
    ck = _checkpoint(cfg, init_weights(NetworkSpec(sizes, cfg.timesteps, cfg.lif), cfg.seed))
    out = tmp_path / "dist.csv"
    dump_distributions(ck, split, out)  # first calls: imports and caches
    forward = _traced_peak(lambda: train_module._ckpt_forward(ck, split, cfg.timesteps))
    dump = _traced_peak(lambda: dump_distributions(ck, split, out))
    assert len(split) == 500 and out.stat().st_size > 400_000
    assert dump <= forward + 64 * 1024, (dump, forward)


def test_dump_distributions_deterministic(trained, tmp_path):
    data = load_dataset(trained.checkpoint.config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_distributions(trained.checkpoint, data.test[:2], a)
    dump_distributions(trained.checkpoint, data.test[:2], b)
    assert a.read_bytes() == b.read_bytes()
