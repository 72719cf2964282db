"""CLI contract tests: subcommand behavior, exit codes, and the `error:`
prefix on every failure path.

Commands run in-process through run_cli() so the suite stays fast; one test
drives the installed console script end to end as a smoke check.
"""

import io
import json
import math
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsnn.train
from compare_baseline_etc import main as compare_main
from etcsnn.cli import run_cli
from etcsnn.data import Split
from etcsnn.train import (
    build_run_config,
    consistency_report,
    dump_distributions,
    eval_per_timestep,
    load_checkpoint,
    load_dataset,
    load_test_split,
)

TINY = """
# tiny but real training setup
data.classes=2
data.dim=8
data.drift_strength=0.5
data.noise_sigma=0.1
data.samples_per_class=10
network.hidden_sizes=8
network.timesteps=3
train.epochs=2
train.batch_size=8
opt.lr=0.01
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture()
def trained_run(tmp_path, tiny_cfg):
    out = tmp_path / "run"
    code = run_cli(["train", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    return out


# -- exit codes and error prefix -----------------------------------------------


def test_missing_config_exits_1(tmp_path, capsys):
    code = run_cli(["train", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config not found")


def test_unknown_config_key_exits_1_and_names_key(capsys):
    code = run_cli(["train", "--set", "train.lr=0.1", "--set", "train.epochs=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train.lr" in err


def test_constraint_violation_exits_1(capsys):
    code = run_cli(["train", "--set", "etc.tau=-1", "--set", "train.epochs=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "etc.tau" in err


def test_malformed_set_exits_1(capsys):
    code = run_cli(["train", "--set", "no_equals_sign"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("item", ["x", "=1", " = 1"])
def test_malformed_item_is_one_message_from_file_and_set(tmp_path, capsys, item):
    """A config-file line and a --set item go through one key=value
    splitter; the file's message adds its path and line."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"train.epochs=0\n{item}\n")
    message = f"expected key=value, got {item.strip()!r}"
    for argv, prefix in (
        (["train", "--config", str(path)], f"{path} line 2: "),
        (["train", "--set", item.strip()], ""),
    ):
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"


def test_unknown_subcommand_exits_1(capsys):
    code = run_cli(["frobnicate"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_retired_synth_command_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["synth", "--out", str(tmp_path / "d.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'synth'")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "d.bin").exists()


def test_missing_checkpoint_exits_1(tmp_path, capsys):
    code = run_cli(["eval", "--ckpt", str(tmp_path / "none.bin")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: checkpoint not found")


def test_non_utf8_config_file_is_one_error_line_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"train.epochs=0\n# caf\xe9\n")
    assert run_cli(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text (") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_non_utf8_log_refuses_a_resume_naming_it(trained_run, tiny_cfg, capsys):
    log = trained_run / "metrics.jsonl"
    log.write_bytes(log.read_bytes() + b"\xff\n")
    before = log.read_bytes()
    capsys.readouterr()
    resume = ["--resume", str(trained_run / "ckpt_final.bin")]
    assert run_cli(["train", "--config", str(tiny_cfg), "--out", str(trained_run), *resume]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: not UTF-8 text (") and len(err.splitlines()) == 1
    assert log.read_bytes() == before


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"definitely not a checkpoint")
    code = run_cli(["eval", "--ckpt", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_checkpoint_with_non_utf8_config_exits_2(trained_run, tmp_path, capsys):
    blob = bytearray((trained_run / "ckpt_final.bin").read_bytes())
    blob[20] = 0xFF  # first byte of the embedded config text
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run_cli(["eval", "--ckpt", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and len(err.splitlines()) == 1


def _idx(path: Path, magic: int, shape: tuple[int, ...]) -> None:
    path.write_bytes(struct.pack(f">{1 + len(shape)}I", magic, *shape) + bytes(math.prod(shape)))


@pytest.mark.parametrize("case", ["csv-not-utf8", "idx-count-mismatch"])
def test_rejected_file_is_one_error_line_naming_it(trained_run, tmp_path, capsys, case):
    """A non-UTF-8 event file and an IDX pair whose counts differ are each
    one ``error:`` line naming the file (both files of the pair), exit 2,
    from every command that reads them."""
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    if case == "csv-not-utf8":
        for cname in ("a", "b"):
            (tmp_path / "ev" / cname).mkdir(parents=True)
            for i in range(5):  # the fifth file of each class is held out
                (tmp_path / "ev" / cname / f"s{i}.csv").write_text("t_us,x,y,polarity\n0,1,1,1\n")
        named = [tmp_path / "ev" / "b" / "s4.csv"]
        named[0].write_bytes(b"t_us,x,y,polarity\n0,1,\xff,1\n")
        flags = ["--set", "data.kind=events", "--set", f"data.events_dir={tmp_path / 'ev'}",
                 "--set", "data.width=2", "--set", "data.height=2"]
    else:
        named = [tmp_path / "i.idx", tmp_path / "l.idx"]
        _idx(named[0], 0x803, (3, 2, 2))
        _idx(named[1], 0x801, (2,))
        flags = ["--set", "data.kind=idx", "--set", f"data.images={named[0]}",
                 "--set", f"data.labels={named[1]}"]
    for argv in (["train", *flags, "--out", str(tmp_path / "new-run")], ["eval", *ckpt, *flags]):
        capsys.readouterr()
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(str(path) in err[0] for path in named)
    assert not (tmp_path / "new-run").exists()


def test_valid_dataset_with_more_classes_than_the_checkpoint_exits_1(trained_run, capsys):
    capsys.readouterr()
    ckpt = str(trained_run / "ckpt_final.bin")
    assert run_cli(["eval", "--ckpt", ckpt, "--set", "data.classes=3"]) == 1
    assert capsys.readouterr().err == "error: label 2 out of range for 2 classes\n"


def test_dataset_with_an_empty_split_exits_1_for_train_as_for_eval(trained_run, tmp_path, capsys):
    """A valid dataset whose test split is empty does not fit: train refuses
    it as eval does, with exit 1 and one line, before making its directory."""
    capsys.readouterr()
    out = tmp_path / "empty"
    assert run_cli(["train", "--set", "data.samples_per_class=4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the split holds no samples\n"
    assert not out.exists()
    ckpt = str(trained_run / "ckpt_final.bin")
    assert run_cli(["eval", "--ckpt", ckpt, "--set", "data.samples_per_class=4"]) == 1
    assert capsys.readouterr().err == "error: the split holds no samples\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergent_training_exits_2(tmp_path, tiny_cfg, capsys):
    code = run_cli([
        "train", "--config", str(tiny_cfg), "--out", str(tmp_path / "boom"),
        "--set", "opt.lr=1e300",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch 0" in err


@pytest.mark.parametrize("command", ["eval", "consistency", "dump-dist"])
def test_analysis_overflow_on_finite_inputs_exits_1(
    trained_run, tmp_path, capsys, monkeypatch, command
):
    """A test split of finite inputs so large that the forward overflows
    loads, and scoring it is one ``error:`` line, exit 1 as for any valid
    dataset that does not fit the checkpoint, not a traceback."""

    def huge_split(cfg):
        test = load_test_split(cfg)
        inputs = test.inputs.copy()
        inputs[-1] = 1.7e308  # the last test sample's (T, dim)
        return Split(inputs, test.labels)

    monkeypatch.setattr(etcsnn.cli, "load_test_split", huge_split)
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin")]
    argv += ["--out", str(tmp_path / "dist.csv")] if command == "dump-dist" else []
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite membrane potentials in a LIF layer\n"
    assert not (tmp_path / "dist.csv").exists()


@pytest.mark.parametrize("item", ["opt.lr=inf", "data.noise_sigma=inf", "lif.tau_m=nan"])
def test_non_finite_config_float_is_one_error_line(tmp_path, capsys, item):
    code = run_cli(["train", "--set", item, "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    key = item.partition("=")[0]
    assert err.startswith(f"error: config key {key}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "item", ["etc.tau=1e308", "data.drift_strength=1e308", "data.noise_sigma=1e308",
             "lif.surrogate_a=1e308"]
)
def test_finite_float_that_overflows_names_its_key(request, tmp_path, capsys, command, item):
    """A finite value whose square or generated inputs overflow is a config
    error naming its key, before anything is written, in training and in
    analysis alike."""
    out = tmp_path / "out"
    flags = ["--set", item, "--set", "data.samples_per_class=5"]
    if command == "train":
        flags += ["--out", str(out)]
    else:
        flags += ["--ckpt", str(request.getfixturevalue("trained_run") / "ckpt_final.bin")]
    capsys.readouterr()
    code = run_cli([command, *flags])
    assert code == 1
    err = capsys.readouterr().err
    key = item.partition("=")[0]
    assert err.startswith(f"error: config key {key}: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", ["consistency", "dump-dist"])
def test_samples_below_one_is_a_usage_error(trained_run, tmp_path, capsys, command, samples):
    out = tmp_path / "dist.csv"
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin"), "--samples", samples]
    if command == "dump-dist":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --samples: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


def test_resume_from_checkpoint_with_altered_optimizer_block_exits_2(
    trained_run, tiny_cfg, tmp_path, capsys
):
    ckpt = trained_run / "ckpt_final.bin"
    blob = bytearray(ckpt.read_bytes())
    # the top byte of beta1 in the optimizer block (step, lr, wd, beta1, ...)
    beta1 = blob.index(struct.pack("<3d", 0.01, 0.0001, 0.9)) + 2 * 8
    blob[beta1 + 7] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run_cli([
        "train", "--config", str(tiny_cfg), "--out", str(trained_run), "--resume", str(bad),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: optimizer beta1 ") and len(err.splitlines()) == 1


def test_eval_on_checkpoint_with_altered_weight_exits_2(trained_run, tmp_path, capsys):
    blob = bytearray((trained_run / "ckpt_final.bin").read_bytes())
    # the top byte of w0's first element: past its name, rank and two dims
    first = blob.index(b"\x02\x00\x00\x00w0") + 4 + 2 + 4 + 8
    blob[first + 7] ^= 0x40
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(bad), "--timesteps", "1,3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: checksum mismatch")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_checkpoint_with_overflowing_shape_is_truncated_and_exits_2(
    trained_run, tmp_path, capsys
):
    """w0's dims set to (2**32 - 1, 2**32 - 1): their element count overflows
    int64 to 0, so it must be counted exactly and fail as truncated."""
    blob = bytearray((trained_run / "ckpt_final.bin").read_bytes())
    dims = blob.index(b"\x02\x00\x00\x00w0") + 4 + 2 + 4  # past name and rank
    blob[dims : dims + 8] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
    bad = tmp_path / "huge.bin"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: truncated checkpoint\n" and captured.out == ""


def test_eval_on_version_1_checkpoint_exits_2(trained_run, tmp_path, capsys):
    blob = (trained_run / "ckpt_final.bin").read_bytes()
    (text_len,) = struct.unpack("<Q", blob[12:20])
    epoch_end = 28 + text_len
    # the version-1 layout: the epoch written twice, no trailing crc32
    v1 = (blob[:8] + struct.pack("<I", 1) + blob[12:epoch_end]
          + blob[epoch_end - 8 : epoch_end] + blob[epoch_end:-4])
    old = tmp_path / "v1.bin"
    old.write_bytes(v1)
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(old)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {old}: checkpoint version 1, expected 2\n"


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    """A tiny trained checkpoint and a scratch directory."""
    root = tmp_path_factory.mktemp("artifacts")
    (root / "tiny.cfg").write_text(TINY)
    run = root / "run"
    with redirect_stdout(io.StringIO()):
        assert run_cli(["train", "--config", str(root / "tiny.cfg"), "--out", str(run)]) == 0
    return run / "ckpt_final.bin", root


def run_quiet(argv, main=run_cli) -> tuple[int, list[str]]:
    """``main(argv)``'s exit code and stderr lines, stdout discarded."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def corrupt(blob: bytes, data) -> bytes:
    """``blob`` cut to its first k bytes or with its bit k flipped, as drawn."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="kept bytes")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="flipped bit")
    out = bytearray(blob)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_corrupt_checkpoint_is_one_error_line_naming_it(tiny_artifacts, data):
    """A truncated or bit-flipped checkpoint is one ``error:`` line naming
    it, exit 2, from every command that loads one; a resume from it leaves
    the run's log as it was."""
    ckpt, root = tiny_artifacts
    bad = root / "bad.bin"
    bad.write_bytes(corrupt(ckpt.read_bytes(), data))
    log = ckpt.parent / "metrics.jsonl"
    before = log.read_bytes()
    resume = ["train", "--config", str(root / "tiny.cfg"), "--out", str(ckpt.parent), "--resume"]
    for argv in ([*resume, str(bad)], *([*cmd, "--ckpt", str(bad)] for cmd in (
        ["eval"], ["consistency"], ["dump-dist", "--out", str(root / "dist.csv")]
    ))):
        code, err = run_quiet(argv)
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error: ") and str(bad) in err[0]
    assert not (root / "dist.csv").exists()
    assert log.read_bytes() == before


_FLOAT_KEYS = [key for key, kind, _ in etcsnn.train._CONFIG_TABLE if kind == "float"]


@settings(max_examples=100, deadline=None, derandomize=True)  # tries every pair
@given(
    key=st.sampled_from(_FLOAT_KEYS),
    value=st.sampled_from(["1e308", "-1e308", "5e-324", "-5e-324", "1e154"]),
)
def test_extreme_finite_float_is_a_clean_run_or_one_error_line(tmp_path_factory, key, value):
    """A fresh ``train`` with one float key at an extreme finite value either
    runs or prints one ``error:`` line, exit 1 or 2: no traceback, and no
    numpy warning before the line."""
    root = tmp_path_factory.mktemp("extreme")
    argv = ["train", "--set", f"{key}={value}", "--set", "data.samples_per_class=5",
            "--set", "train.epochs=1", "--out", str(root / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quiet(argv)
    assert code in (0, 1, 2) and len(err) <= 1, err
    assert not caught, [str(w.message) for w in caught]
    assert code == 0 or err[0].startswith("error: "), err


@pytest.mark.parametrize("override", ["etc.lambda=1e308", "etc.tau=5e-324"])
def test_run_failing_before_its_first_record_can_be_rerun(tmp_path, override):
    """A fresh run that fails at its first batch leaves nothing that blocks
    a rerun: the same command into the same ``--out`` fails the same way."""
    argv = ["train", "--set", override, "--set", "data.samples_per_class=5",
            "--set", "train.epochs=1", "--out", str(tmp_path / "run")]
    first = run_quiet(argv)
    assert first[0] == 2 and len(first[1]) == 1, first
    assert first[1][0].startswith("error: epoch 0, batch 0: non-finite"), first
    assert run_quiet(argv) == first
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def _idx_pair(images: Path, labels: Path, n: int, rows: int, cols: int, classes: int) -> None:
    """An IDX pair of ``n`` rows x cols images, labelled 0..classes-1 in turn."""
    pixels = bytes((i * 37 + c * 11) % 256 for i in range(n) for c in range(rows * cols))
    images.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels)
    labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % classes for i in range(n)))


@pytest.mark.parametrize("shape,fits", [
    ((2, 3, 2), "6 inputs and 2 classes"), ((2, 4, 3), "8 inputs and 3 classes"),
], ids=["input-width", "class-count"])
def test_resume_onto_an_unfitting_dataset_is_refused_before_the_log(tmp_path, tiny_cfg, shape, fits):
    """A checkpoint resumed onto a valid IDX pair, rewritten at its path with
    another input width or class count, is one ``error:`` line naming it
    and both widths, exit 1; the run's log and checkpoints stay as they were."""
    images, labels, run = tmp_path / "i.idx", tmp_path / "l.idx", tmp_path / "run"
    _idx_pair(images, labels, 20, 2, 4, 2)
    flags = ["--config", str(tiny_cfg), "--set", "data.kind=idx", "--set", f"data.images={images}",
             "--set", f"data.labels={labels}", "--set", "train.epochs=4",
             "--set", "train.save_interval=2", "--out", str(run)]
    assert run_quiet(["train", *flags]) == (0, [])
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    _idx_pair(images, labels, 20, *shape)
    ckpt = run / "ckpt_epoch0002.bin"
    assert run_quiet(["train", *flags, "--resume", str(ckpt)]) == (1, [
        f"error: checkpoint {ckpt} maps 8 inputs to 2 classes; the dataset has {fits}"
    ])
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("classes", [5, 10])
def test_synth_class_count_divisible_by_five_trains_and_evaluates(tmp_path, capsys, classes):
    """Every class is held out alike, so 5 and 10 classes train and evaluate,
    and the test split holds a fifth of every class."""
    mapping = {"data.classes": str(classes), "data.samples_per_class": "10"}
    labels = load_test_split(build_run_config(mapping)).labels.tolist()
    assert [labels.count(c) for c in range(classes)] == [2] * classes
    sets = [arg for item in mapping.items() for arg in ("--set", "=".join(item))]
    run = tmp_path / "run"
    assert run_cli(["train", *sets, "--set", "train.epochs=1", "--out", str(run)]) == 0
    assert run_cli(["eval", "--ckpt", str(run / "ckpt_final.bin")]) == 0
    assert capsys.readouterr().err == ""


# -- train + eval happy paths -----------------------------------------------------


def test_precedence_is_file_then_set(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.classes=3\ndata.dim=8\ndata.samples_per_class=5\n"
                   "network.timesteps=2\ndata.seed=1\ntrain.epochs=0\n")
    out = tmp_path / "run"
    assert run_cli(["train", "--config", str(cfg), "--set", "data.seed=3",
                    "--set", "data.seed=4", "--out", str(out)]) == 0
    echo = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])["config"]
    assert echo["data.seed"] == "4"  # --set beats the file, the last --set the others
    assert (echo["data.classes"], echo["data.dim"], echo["network.timesteps"]) == ("3", "8", "2")


def test_train_writes_artifacts(trained_run, capsys):
    assert (trained_run / "metrics.jsonl").exists()
    assert (trained_run / "ckpt_final.bin").exists()
    ck = load_checkpoint(trained_run / "ckpt_final.bin")
    assert ck.epoch == 2


def test_eval_reports_accuracy_per_timestep(trained_run, capsys):
    code = run_cli([
        "eval", "--ckpt", str(trained_run / "ckpt_final.bin"), "--timesteps", "1,3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["accuracy"]) == {"1", "3"}
    for acc in payload["accuracy"].values():
        assert 0.0 <= acc <= 1.0


def test_eval_defaults_to_config_eval_list(trained_run, capsys):
    code = run_cli(["eval", "--ckpt", str(trained_run / "ckpt_final.bin")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["accuracy"]) == {"1", "2", "3"}


def eval_budgets(argv, capsys) -> list[str]:
    """The budget keys ``eval`` prints, in order."""
    capsys.readouterr()
    assert run_cli(["eval", *argv]) == 0
    return list(json.loads(capsys.readouterr().out)["accuracy"])


def test_eval_scores_the_eval_timesteps_override(trained_run, capsys):
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    assert eval_budgets([*ckpt, "--set", "eval.timesteps=1,2"], capsys) == ["1", "2"]
    # --timesteps is eval.timesteps, applied after --set
    assert eval_budgets(
        [*ckpt, "--set", "eval.timesteps=1,2", "--timesteps", "3,1"], capsys
    ) == ["3", "1"]
    # an empty --set value is every step up to T, as in any config
    assert eval_budgets([*ckpt, "--set", "eval.timesteps="], capsys) == ["1", "2", "3"]


def test_empty_timesteps_flag_keeps_the_checkpoint_list(tmp_path, tiny_cfg, capsys):
    run = tmp_path / "run"
    argv = ["train", "--config", str(tiny_cfg), "--set", "eval.timesteps=3,1", "--out", str(run)]
    assert run_cli(argv) == 0
    ckpt = ["--ckpt", str(run / "ckpt_final.bin")]
    assert eval_budgets([*ckpt, "--timesteps", ""], capsys) == ["3", "1"]
    assert eval_budgets(
        [*ckpt, "--set", "eval.timesteps=2", "--timesteps", ""], capsys
    ) == ["2"]
    # a list other than 1..T is kept under an unchanged T and checked against a new one
    assert eval_budgets([*ckpt, "--set", "network.timesteps=3"], capsys) == ["3", "1"]
    assert run_cli(["eval", *ckpt, "--set", "network.timesteps=2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config key eval.timesteps: entries must lie in [1, 2]\n"


def test_unscored_eval_list_follows_a_shrunk_timesteps(tmp_path, tiny_cfg, capsys):
    """``consistency`` and ``dump-dist`` do not score ``eval.timesteps``, so a
    trained list they are not given resolves to 1..T at any T; the training
    config, list included, is still no change.  ``eval`` keeps and checks it."""
    run, cfg = tmp_path / "run", tmp_path / "listed.cfg"
    cfg.write_text(TINY + "eval.timesteps=3,1\n")
    assert run_cli(["train", "--config", str(cfg), "--out", str(run)]) == 0
    ckpt, shrink = ["--ckpt", str(run / "ckpt_final.bin")], ["--set", "network.timesteps=2"]
    assert run_cli(["consistency", *ckpt, *shrink]) == 0
    assert run_cli(["dump-dist", *ckpt, *shrink, "--out", str(tmp_path / "d.csv")]) == 0
    assert run_cli(["consistency", *ckpt, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert run_cli(["eval", *ckpt, *shrink]) == 1
    assert capsys.readouterr().err == (
        "error: config key eval.timesteps: entries must lie in [1, 2]\n"
    )


_REFUSED = [
    "network.hidden_sizes=3", "lif.tau_m=3.0", "lif.v_th=0.1", "lif.v_reset=0.25",
    "lif.surrogate_a=3.0", "etc.tau=1.0", "etc.lambda=0.5", "opt.lr=0.5",
    "opt.weight_decay=0.5", "opt.beta1=0.5", "opt.beta2=0.5", "opt.eps=0.5",
    "train.epochs=7", "train.batch_size=7", "train.seed=7", "train.loss_mode=ce_only",
    "train.save_interval=7",
]


@pytest.mark.parametrize("item", _REFUSED)
def test_analysis_refuses_a_key_that_describes_the_trained_run(
    trained_run, tmp_path, capsys, item
):
    """``eval``, ``consistency`` and ``dump-dist`` score the trained network:
    an override that changes any key but data.*, network.timesteps and eval's
    eval.timesteps is one ``config key`` line, exit 1, with nothing printed."""
    key = item.partition("=")[0]
    out = tmp_path / "dist.csv"
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    capsys.readouterr()
    dump = ["dump-dist", *ckpt, "--out", str(out)]
    for argv in (["eval", *ckpt], ["consistency", *ckpt], dump):
        assert run_cli([*argv, "--set", item]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config key {key}: the checkpoint was trained")
        assert f"{argv[0]} may change only data.*, network.timesteps" in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["consistency", "dump-dist"])
def test_eval_timesteps_override_is_eval_only(trained_run, tmp_path, capsys, command):
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin")]
    if command == "dump-dist":
        argv += ["--out", str(tmp_path / "dist.csv")]
    # a given list that differs from the checkpoint's is refused, even the
    # 1..5 that its default list follows at T=5
    for sets in (["eval.timesteps=1,2"], ["network.timesteps=5", "eval.timesteps=1,2,3,4,5"]):
        capsys.readouterr()
        assert run_cli([*argv, *(a for item in sets for a in ("--set", item))]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: config key eval.timesteps: the checkpoint was trained with '1,2,3', not "
            f"'{sets[-1].partition('=')[2]}'; {command} may change only data.*, network.timesteps\n"
        )


def test_unscored_list_equal_to_the_checkpoint_is_accepted_at_a_new_t(trained_run, capsys):
    """An override is checked against the checkpoint's own value, not
    against the 1..T its default list would follow at the new T."""
    argv = ["consistency", "--ckpt", str(trained_run / "ckpt_final.bin"),
            "--set", "network.timesteps=5"]
    capsys.readouterr()
    assert run_cli(argv) == 0
    want = capsys.readouterr().out
    assert run_cli([*argv, "--set", "eval.timesteps=1,2,3"]) == 0
    assert capsys.readouterr().out == want


def test_analysis_accepts_overrides_equal_to_the_checkpoint(trained_run, tiny_cfg, capsys):
    """The training config file, or a value written another way, changes
    nothing and is accepted."""
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    for command in ("eval", "consistency"):
        capsys.readouterr()
        assert run_cli([command, *ckpt]) == 0
        want = capsys.readouterr().out
        for flags in (["--config", str(tiny_cfg)], ["--set", "etc.tau=4"],
                      ["--set", "train.batch_size=8", "--set", "network.hidden_sizes= 8"]):
            assert run_cli([command, *ckpt, *flags]) == 0
            assert capsys.readouterr().out == want


def test_dump_dist_runs_the_overridden_timesteps(trained_run, tmp_path):
    out = tmp_path / "dist.csv"
    assert run_cli([
        "dump-dist", "--ckpt", str(trained_run / "ckpt_final.bin"), "--out", str(out),
        "--samples", "2", "--set", "network.timesteps=4",
    ]) == 0
    steps = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert steps == ["1", "2", "3", "4", "mean"] * 2


@pytest.mark.parametrize("command", ["eval", "consistency", "dump-dist"])
def test_analysis_runs_fewer_timesteps_than_trained(trained_run, tmp_path, capsys, command):
    """A default eval list follows a shrunk network.timesteps: no command
    refuses it, and eval scores budgets 1..T for the new T."""
    out = tmp_path / "dist.csv"
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin"), "--set", "network.timesteps=2"]
    argv += ["--out", str(out), "--samples", "2"] if command == "dump-dist" else []
    capsys.readouterr()
    assert run_cli(argv) == 0
    printed = capsys.readouterr().out
    if command == "eval":
        assert list(json.loads(printed)["accuracy"]) == ["1", "2"]
    elif command == "consistency":
        assert json.loads(printed)["samples"] > 0
    else:
        steps = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert steps == ["1", "2", "mean"] * 2


def test_eval_budgets_follow_a_raised_timesteps(trained_run, capsys):
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    assert eval_budgets([*ckpt, "--set", "network.timesteps=5"], capsys) == list("12345")


def test_eval_rejects_out_of_range_timestep(trained_run, capsys):
    """The flag and the override are one rule, checked by the config layer."""
    ckpt = ["--ckpt", str(trained_run / "ckpt_final.bin")]
    for budgets, message in (("9", "entries must lie in [1, 3]"),
                             ("0,1", "entries must lie in [1, 3]"),
                             ("1,x", "cannot parse '1,x' as ints")):
        for flags in (["--timesteps", budgets], ["--set", f"eval.timesteps={budgets}"]):
            capsys.readouterr()
            assert run_cli(["eval", *ckpt, *flags]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: config key eval.timesteps: {message}\n"
            assert captured.out == ""


def test_missing_input_dir_is_one_error_line(tmp_path, capsys):
    code = run_cli([
        "train", "--set", "data.kind=events", "--set", "data.width=2", "--set", "data.height=2",
        "--set", f"data.events_dir={tmp_path / 'missing'}", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("rows", [
    [], ["0,0,0,0", "1,3,1,0"], ["5,0,0,0", "3,0,0,0"], ["0,0,0,2"],
])
def test_event_binning_error_names_its_file(tmp_path, capsys, rows):
    """A header-only event file, or one with an event outside the frame, out
    of order or of polarity 2, is one ``error:`` line naming that file, exit 2."""
    for cname in ("a", "b"):
        (tmp_path / "ev" / cname).mkdir(parents=True)
        (tmp_path / "ev" / cname / "s0.csv").write_text("t_us,x,y,polarity\n0,1,1,1\n")
    bad = tmp_path / "ev" / "b" / "bad.csv"
    bad.write_text("\n".join(["t_us,x,y,polarity", *rows]) + "\n")
    code = run_cli([
        "train", "--set", "data.kind=events", "--set", f"data.events_dir={tmp_path / 'ev'}",
        "--set", "data.width=2", "--set", "data.height=2", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")


_IDX_PAIR = ["data.kind=idx", "data.images=i.idx", "data.labels=l.idx"]


@pytest.mark.parametrize("sets, key", [
    (["data.kind=events", "data.width=2", "data.height=2"], "data.events_dir"),
    (["data.kind=idx"], "data.images"),
    (["data.kind=idx", "data.images=i.idx"], "data.labels"),
    ([*_IDX_PAIR, "data.test_labels=t.idx"], "data.test_images"),
    ([*_IDX_PAIR, "data.test_images=t.idx"], "data.test_labels"),
    (["data.kind=events"], "data.events_dir"),
    (["data.kind=events", "data.events_dir=ev"], "data.width"),
    (["data.kind=events", "data.events_dir=ev", "data.width=2"], "data.height"),
])
def test_missing_data_input_names_its_key(trained_run, tmp_path, capsys, sets, key):
    """A data kind whose input key is left unset is one ``config key`` line,
    exit 1, for training (which then makes no run directory) and analysis."""
    flags = [arg for item in sets for arg in ("--set", item)]
    out = tmp_path / "new-run"
    capsys.readouterr()
    for argv in (["train", *flags, "--out", str(out)],
                 ["eval", "--ckpt", str(trained_run / "ckpt_final.bin"), *flags]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: must be set")
        assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["train", "--set", "data.seed=-1"], "data.seed"),
    (["train", "--set", "train.seed=-1"], "train.seed"),
])
def test_negative_seed_names_its_key(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config key {key}: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("item", [
    "network.timesteps=100000000000000000000",
    # a 1..T eval list of 80 GB: the host refuses that one allocation at once
    "network.timesteps=10000000000",
    "data.dim=100000000000000000000",
    "network.hidden_sizes=100000000000000000000",
    # sample indices past 32 bits: petabytes, and past numpy's largest size
    "data.samples_per_class=100000000000000",
    "data.samples_per_class=100000000000000000000",
    # an explicit eval list (eval's --timesteps) beside a T too long to list
    "network.timesteps=10000000000 eval.timesteps=1",
    "network.timesteps=100000000000000000000 eval.timesteps=1,2",
])
def test_huge_int_is_one_error_line_naming_its_key(request, tmp_path, capsys, command, item):
    """An int too large to list or to store in a checkpoint is one ``config
    key`` line naming it, exit 1, for training and analysis alike."""
    out = tmp_path / "out"
    sets = [a for part in item.split() for a in ("--set", part)]
    if command == "train":
        argv = ["train", *sets, "--out", str(out)]
    else:
        ckpt = request.getfixturevalue("trained_run") / "ckpt_final.bin"
        argv = ["eval", "--ckpt", str(ckpt), *sets]
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {item.partition('=')[0]}: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_retired_data_keys_are_one_config_key_line(tmp_path, capsys):
    for item in ("data.kind=file", "data.file=x"):
        assert run_cli(["train", "--set", item, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {item.partition('=')[0]}: ")
        assert len(err.splitlines()) == 1


def test_dataset_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # the widest input a checkpoint can store: each class's 128 GiB blend
    # base is beyond the host, which refuses the first allocation at once
    out = tmp_path / "run"
    argv = ["train", "--set", f"data.dim={2**32 - 1}", "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not err.startswith("error: config key")
    assert not out.exists()


def test_config_file_bad_line_names_path_and_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("train.epochs=0\nnot a key value line\n")
    code = run_cli(["train", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} line 2: expected key=value")


def test_resume_keeps_history_or_refuses(tmp_path, tiny_cfg, capsys):
    run = tmp_path / "run"
    argv = ["train", "--config", str(tiny_cfg), "--set", "train.save_interval=1"]
    assert run_cli(argv + ["--out", str(run)]) == 0
    log = (run / "metrics.jsonl").read_bytes()
    resume = ["--resume", str(run / "ckpt_epoch0001.bin")]
    assert run_cli(argv + ["--out", str(run)] + resume) == 0
    assert (run / "metrics.jsonl").read_bytes() == log
    capsys.readouterr()
    other = tmp_path / "other"
    assert run_cli(["train", "--config", str(tiny_cfg), "--out", str(other)]) == 0
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(other)] + resume) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_train_refuses_to_overwrite_a_run(tmp_path, tiny_cfg, capsys):
    run = tmp_path / "run"
    argv = ["train", "--config", str(tiny_cfg), "--out", str(run)]
    assert run_cli(argv) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert run_cli(argv + ["--set", "train.epochs=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "already holds a run" in err
    assert len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resume_missing_checkpoint_exits_1(tiny_cfg, tmp_path, capsys):
    code = run_cli([
        "train", "--config", str(tiny_cfg), "--out", str(tmp_path / "x"),
        "--resume", str(tmp_path / "nope.bin"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: checkpoint not found")


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_passes_and_prints_errors(capsys):
    code = run_cli(["gradcheck", "--seed", "7", "--cases", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ce_mean max_rel_err=" in out
    assert "consistency max_rel_err=" in out
    assert "fd_max_rel_err=" in out
    assert "per_timestep_ce max_rel_err=" in out
    assert "objective max_rel_err=" in out
    assert "lif max_rel_err=" in out and "tol=1e-12" in out
    assert "PASS" in out
    prefixes = [
        "cases=", "ce_mean max_rel_err=", "consistency max_rel_err=",
        "consistency fd_max_rel_err=", "per_timestep_ce max_rel_err=",
        "objective max_rel_err=", "lif max_rel_err=", "PASS",
    ]
    lines = out.splitlines()
    assert len(lines) == len(prefixes)
    assert all(line.startswith(p) for line, p in zip(lines, prefixes)), lines


@pytest.mark.parametrize("argv, flag", [
    (["--cases", "0"], "--cases"),
    (["--cases", "-3"], "--cases"),
    (["--seed", "-1", "--cases", "1"], "--seed"),
])
def test_gradcheck_bad_count_or_seed_names_its_flag(capsys, argv, flag):
    assert run_cli(["gradcheck", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: argument {flag}: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


# -- analysis commands ---------------------------------------------------------------


def test_dump_dist_writes_csv(trained_run, tmp_path, capsys):
    out = tmp_path / "dist.csv"
    code = run_cli([
        "dump-dist", "--ckpt", str(trained_run / "ckpt_final.bin"),
        "--out", str(out), "--samples", "2",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sample_id,label,t,argmax,")
    assert len(lines) == 1 + 2 * 4  # header + (T rows + mean row) per sample


@pytest.mark.parametrize("link", ["itself", "symlink", "hardlink"])
def test_dump_dist_refuses_to_overwrite_its_checkpoint(trained_run, tmp_path, capsys, link):
    """``--out`` naming the checkpoint, by its own path or by a link to it,
    is one ``error:`` line, exit 1, and the checkpoint keeps its bytes."""
    ckpt = trained_run / "ckpt_final.bin"
    before = ckpt.read_bytes()
    out = {"itself": ckpt, "symlink": tmp_path / "sym.bin", "hardlink": tmp_path / "hard.bin"}[link]
    if link == "symlink":
        out.symlink_to(ckpt)
    elif link == "hardlink":
        out.hardlink_to(ckpt)
    code = run_cli(["dump-dist", "--ckpt", str(ckpt), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and len(err.splitlines()) == 1
    assert ckpt.read_bytes() == before
    assert run_cli(["eval", "--ckpt", str(ckpt)]) == 0


@pytest.mark.parametrize("command", ["dump-dist", "eval", "consistency"])
def test_analysis_dim_mismatch_is_one_error_line(trained_run, tmp_path, capsys, command):
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin"), "--set", "data.dim=12"]
    if command == "dump-dist":
        argv += ["--out", str(tmp_path / "dist.csv")]
    code = run_cli(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["dump-dist", "eval", "consistency"])
def test_analysis_label_out_of_range_is_one_error_line(
    trained_run, tmp_path, capsys, command
):
    """A dataset with more classes than the checkpoint's output layer."""
    out = tmp_path / "dist.csv"
    argv = [command, "--ckpt", str(trained_run / "ckpt_final.bin"), "--set", "data.classes=6"]
    if command == "dump-dist":
        argv += ["--out", str(out)]
    code = run_cli(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of range for 2 classes" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_consistency_prints_report(trained_run, capsys):
    code = run_cli([
        "consistency", "--ckpt", str(trained_run / "ckpt_final.bin"),
        "--samples", "4",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # the line's keys, in order: a reordered report would change every line printed
    assert list(payload) == ["mean_pairwise_kl", "argmax_flip_rate", "grad_cosine_mean", "samples"]
    assert payload["samples"] == 4
    assert payload["mean_pairwise_kl"] >= 0.0
    assert -1.0 <= payload["grad_cosine_mean"] <= 1.0


@pytest.mark.parametrize("samples", [None, 3])
def test_analysis_commands_build_only_the_test_split(
    trained_run, tmp_path, capsys, monkeypatch, samples
):
    """``eval``, ``consistency`` and ``dump-dist`` ask the generator for the
    test split alone, and print (and write) the bytes of the library calls
    on ``load_dataset(cfg).test``; ``train()`` asks the same name once for
    both splits."""
    path = str(trained_run / "ckpt_final.bin")
    ckpt = load_checkpoint(path)
    test = load_dataset(ckpt.config).test[:samples]
    want_eval = json.dumps({
        "checkpoint": path, "accuracy": eval_per_timestep(ckpt, test, [1, 2, 3]),
    })
    want_report = json.dumps(consistency_report(ckpt, test))
    want_csv = tmp_path / "want.csv"
    dump_distributions(ckpt, test, want_csv)

    generate = etcsnn.train.synth_generate
    asked = []

    def recording_generate(spec, steps, splits=(False, True)):
        asked.append(tuple(splits))
        return generate(spec, steps, splits)

    monkeypatch.setattr(etcsnn.train, "synth_generate", recording_generate)
    limit = [] if samples is None else ["--samples", str(samples)]
    got_csv = tmp_path / "got.csv"
    capsys.readouterr()
    if samples is None:
        assert run_cli(["eval", "--ckpt", path, "--timesteps", "1,2,3"]) == 0
        assert capsys.readouterr().out == want_eval + "\n"
    assert run_cli(["consistency", "--ckpt", path, *limit]) == 0
    assert capsys.readouterr().out == want_report + "\n"
    assert run_cli(["dump-dist", "--ckpt", path, "--out", str(got_csv), *limit]) == 0
    assert capsys.readouterr().out == f"wrote {got_csv} ({len(test)} samples)\n"
    assert got_csv.read_bytes() == want_csv.read_bytes()
    assert asked == [(True,)] * (3 if samples is None else 2)

    asked.clear()
    etcsnn.train.train(ckpt.config, tmp_path / "again")
    assert asked == [(False, True)]


# -- scripts ---------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--set", "x"], ["--set", "foo=1"], ["--epochs", "0"], ["--seeds", "a"], ["--seeds", "0,0"],
    ["--set", "eval.timesteps=5,10"],
    ["--set", "data.kind=idx", "--set", "data.images=missing.idx", "--set", "data.labels=missing.idx"],
    ["--set", "train.loss_mode=ce_only"], ["--set", "train.seed=3"], ["--set", "data.seed=3"],
    ["--set", "train.epochs=5"],
], ids=["malformed-set", "unknown-key", "zero-epochs", "bad-seed", "repeated-seed", "no-budget-1",
        "missing-idx", "set-loss-mode", "set-train-seed", "set-data-seed", "set-epochs"])
def test_compare_script_bad_input_is_one_error_line(tmp_path, flags):
    """A bad flag is one ``error:`` line, exit 1, and no run directory: every
    arm's config is checked before the first run, and a dataset file that
    is missing fails in its worker before the run makes its directory.  A
    ``--set`` of a key the experiment sets per run (loss mode, seeds,
    epochs) is refused by name: it would run every arm alike."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_baseline_etc.py"
    out = tmp_path / "compare"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(out), *flags],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    if flags[-1].endswith("missing.idx"):
        assert "missing.idx" in proc.stderr  # the worker's error names the file
    key = flags[-1].partition("=")[0]
    if key in ("train.loss_mode", "train.seed", "data.seed", "train.epochs"):
        assert proc.stderr.startswith(f"error: config key {key}: ")
    assert not out.exists()


def test_compare_script_summary_holds_each_runs_last_record(tmp_path, capsys):
    """Each ``summary.json`` row is its seed's two runs' last epoch records,
    and every median, the T=1 lift's too, is ``np.median`` over the rows."""
    out = tmp_path / "compare"
    argv = ["--seeds", "0,1", "--epochs", "2", "--set", "data.samples_per_class=20"]
    assert compare_main([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["seeds"], summary["epochs"]) == ([0, 1], 2)
    assert summary["overrides"] == {"data.samples_per_class": "20"}
    rows = summary["rows"]
    assert [row["seed"] for row in rows] == [0, 1]
    for row in rows:
        want = {"seed": row["seed"]}
        for mode, tag in [("ce_only", "base"), ("ce_plus_etc", "etc")]:
            log = out / f"seed{row['seed']}-{mode}" / "metrics.jsonl"
            header, *_, last = log.read_text().splitlines()
            config, last = json.loads(header)["config"], json.loads(last)
            arm_keys = ("train.loss_mode", "train.seed", "data.seed", "train.epochs")
            assert [config[key] for key in arm_keys] == [mode, str(row["seed"]), str(row["seed"]), "2"]
            assert last["epoch"] == 1
            want |= {
                f"{tag}_acc_t1": last["test_acc_per_eval_T"]["1"],
                f"{tag}_acc_full": last["test_acc_full_T"],
                f"{tag}_kl": last["mean_pairwise_kl"],
                f"{tag}_flip": last["argmax_flip_rate"],
            }
        assert row == want
    want = {key: np.median([row[key] for row in rows]) for key in rows[0] if key != "seed"}
    want["t1_lift"] = np.median([row["etc_acc_t1"] - row["base_acc_t1"] for row in rows])
    assert summary["median"] == want
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 1 + len(rows) + 4 and f"(lift {want['t1_lift']:+.3f})" in table[-3]


@pytest.mark.parametrize("override, code, first", [
    ("etc.lambda=1e308", 2, "error: epoch 0, batch 0: non-finite loss inf\n"),
    ("opt.lr=1e308", 2, "error: epoch 0, "),
    ("data.drift_strength=1e308", 1, "error: config key data.drift_strength: "),
    ("lif.tau_m=1e308", 0, ""),
], ids=["huge-lambda", "huge-lr", "huge-drift", "huge-tau-m"])
def test_compare_script_runtime_failure_is_one_error_line(tmp_path, capfd, override, code, first):
    """A run that fails in its worker is the script's one ``error:`` line,
    exit 1 or 2, and a run that does not fail leaves stderr empty: no
    traceback or numpy warning from the script or its workers (the workers
    write to the same stderr, which ``capfd`` holds).  The other arm may
    already be running, so a run directory may exist."""
    argv = ["--seeds", "0", "--epochs", "1", "--set", "data.samples_per_class=5"]
    assert compare_main([*argv, "--set", override, "--out", str(tmp_path / "compare")]) == code
    err = capfd.readouterr().err
    assert err.startswith(first) and len(err.splitlines()) == (code != 0)


# -- refused flag values ----------------------------------------------------------


def _reads_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _refused_int(low: int):
    """Values an integer flag of at least ``low`` refuses: smaller integers
    and any text ``int`` does not read.  Valid counts stay out, so no case
    runs an experiment or a long ``gradcheck``."""
    return st.one_of(
        st.integers(max_value=low - 1).map(str),
        st.text().filter(lambda text: not _reads_as_int(text)),
    )


_INT_KEYS = [key for key, kind, _ in etcsnn.train._CONFIG_TABLE if kind == "int"]
_KNOWN_KEYS = etcsnn.train._KNOWN_KEYS
_REFUSED = {  # (command, flag) -> values the flag refuses
    ("gradcheck", "--seed"): _refused_int(0),
    ("gradcheck", "--cases"): _refused_int(1),
    ("compare", "--epochs"): _refused_int(1),
    ("compare", "--seeds"): st.one_of(
        st.tuples(  # one refused seed among good ones
            st.lists(st.integers(0, 9).map(str), max_size=2),
            _refused_int(0).filter(lambda text: "," not in text).map(lambda text: [text]),
            st.lists(st.integers(0, 9).map(str), max_size=2),
        ).map(lambda parts: ",".join(sum(parts, []))),
        st.integers(0, 9).map(lambda seed: f"{seed},{seed}"),  # a repeat
    ),
    ("compare", "--set"): st.one_of(
        st.text().filter(lambda text: not text.partition("=")[0].strip()),  # no key
        st.tuples(  # an unknown key
            st.text().filter(lambda key: "=" not in key and key.strip() not in _KNOWN_KEYS),
            st.text(),
        ).map("=".join),
        st.tuples(  # a key the experiment sets per run
            st.sampled_from(["train.loss_mode", "train.seed", "data.seed", "train.epochs"]),
            st.text(),
        ).map("=".join),
        st.tuples(  # an integer key holding no integer
            st.sampled_from(_INT_KEYS), st.text().filter(lambda text: not _reads_as_int(text))
        ).map("=".join),
    ),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_REFUSED)), data=st.data())
def test_refused_flag_value_is_one_error_line(tmp_path_factory, case, data):
    """An invalid ``gradcheck --seed/--cases`` or compare-script
    ``--seeds/--epochs/--set`` value is one ``error:`` line, exit 1 or 2, no
    traceback, before any run starts or any file is written.  The other
    flags hold small valid values, so a value the strategies wrongly deem
    invalid runs briefly and fails the exit-code check."""
    command, flag = case
    value = data.draw(_REFUSED[case], label=flag)
    out = tmp_path_factory.getbasetemp() / "refused-compare"
    if command == "gradcheck":
        main, argv = run_cli, ["gradcheck", "--cases", "1"]
    else:
        main, argv = compare_main, ["--seeds", "0", "--epochs", "1", "--set",
                                    "data.samples_per_class=5", "--out", str(out)]
    code, err = run_quiet([*argv, flag, value], main)
    assert code in (1, 2) and len(err) == 1 and err[0].startswith("error: "), (code, err)
    assert not out.exists()


# -- installed console script ----------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "etcsnn.cli", "gradcheck", "--cases", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
