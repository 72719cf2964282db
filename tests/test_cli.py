"""CLI contract tests: subcommand behavior, exit codes, and the `error:`
prefix on every failure path.

Commands run in-process through run_cli() so the suite stays fast; one test
drives the installed console script end to end as a smoke check.
"""

import json
import struct
import subprocess
import sys

import pytest

from etcsnn.cli import run_cli
from etcsnn.train import load_checkpoint

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


def test_unknown_subcommand_exits_1(capsys):
    code = run_cli(["frobnicate"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_missing_checkpoint_exits_1(tmp_path, capsys):
    code = run_cli(["eval", "--ckpt", str(tmp_path / "none.bin")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: checkpoint not found")


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


def test_dump_with_non_utf8_spec_exits_2(tmp_path, capsys):
    dump = tmp_path / "d2.bin"
    assert run_cli(["synth", "--out", str(dump), "--spec", "samples_per_class=5"]) == 0
    blob = bytearray(dump.read_bytes())
    blob[18] = 0xFF  # inside the spec text
    dump.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run_cli(["train", "--data", str(dump), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(dump) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_dump_with_a_nan_is_one_error_line(tmp_path, capsys):
    dump = tmp_path / "d.bin"
    assert run_cli(["synth", "--out", str(dump), "--spec", "samples_per_class=5"]) == 0
    blob = bytearray(dump.read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))  # last value of the last test sample
    dump.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run_cli(["train", "--data", str(dump), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergent_training_exits_2(tmp_path, tiny_cfg, capsys):
    code = run_cli([
        "train", "--config", str(tiny_cfg), "--out", str(tmp_path / "boom"),
        "--set", "opt.lr=1e300",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch 0" in err


# -- synth + train + eval happy paths ---------------------------------------------


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "d.bin"
    code = run_cli([
        "synth", "--out", str(out),
        "--spec", "classes=2", "--spec", "dim=8", "--spec", "samples_per_class=10",
        "--spec", "timesteps=3", "--spec", "noise_sigma=0.1",
        "--spec", "drift_strength=0.5", "--spec", "seed=5",
    ])
    assert code == 0
    assert "16 train / 4 test" in capsys.readouterr().out

    from etcsnn.data import load_synth_dataset

    spec, train_split, test_split = load_synth_dataset(out)
    assert spec.classes == 2 and spec.seed == 5
    assert len(train_split) == 16 and len(test_split) == 4


def test_train_writes_artifacts(trained_run, capsys):
    assert (trained_run / "metrics.jsonl").exists()
    assert (trained_run / "ckpt_final.bin").exists()
    ck = load_checkpoint(trained_run / "ckpt_final.bin")
    assert ck.epoch == 2


def test_synth_then_train_data_shorthand_is_deterministic(tmp_path, tiny_cfg):
    data = tmp_path / "d.bin"
    assert run_cli([
        "synth", "--out", str(data),
        "--spec", "classes=2", "--spec", "dim=8", "--spec", "samples_per_class=10",
        "--spec", "timesteps=3", "--spec", "noise_sigma=0.1",
        "--spec", "drift_strength=0.5",
    ]) == 0
    logs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli([
            "train", "--config", str(tiny_cfg), "--data", str(data),
            "--out", str(out),
        ])
        assert code == 0
        logs.append((out / "metrics.jsonl").read_bytes())
    assert logs[0] == logs[1]


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


def test_eval_rejects_out_of_range_timestep(trained_run, capsys):
    code = run_cli([
        "eval", "--ckpt", str(trained_run / "ckpt_final.bin"), "--timesteps", "9",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_dir_is_one_error_line(tmp_path, capsys):
    code = run_cli([
        "train", "--set", "data.kind=events",
        "--set", f"data.events_dir={tmp_path / 'missing'}", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing" in err and len(err.splitlines()) == 1


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
    assert payload["samples"] == 4
    assert payload["mean_pairwise_kl"] >= 0.0
    assert -1.0 <= payload["grad_cosine_mean"] <= 1.0


# -- installed console script ----------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "etcsnn.cli", "gradcheck", "--cases", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
