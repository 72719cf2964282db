"""Smoke test of the benchmark itself, at a tiny data size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced; the emitted metric names
and units must match BENCHMARK.json exactly.  A corrupted checkpoint must
show up as failed operations, and a directory without the package source
must make the command fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(root: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    proc = _bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    r = run.Runner("analysis_cli", seed=3, tiny=True, work=tmp_path)
    assert r.train_once()
    return r


def _success_rate(r) -> float:
    return r.end_to_end()["success_rate"][0]


def test_truncated_checkpoint_counts_as_failure(runner):
    blob = runner.checkpoint.read_bytes()
    runner.checkpoint.write_bytes(blob[: len(blob) // 2])
    assert not runner.cli_round()
    assert runner.tally.failed == 1
    assert _success_rate(runner) < 1.0


def test_altered_weights_fail_the_output_checks(runner):
    # The file still loads; only the comparison with the training log catches it.
    blob = bytearray(runner.checkpoint.read_bytes())
    rows, cols = runner.cfg.data.dim, runner.cfg.hidden_sizes[0]
    # name length, name, rank and the two dims precede the float64 data of w0
    start = blob.index(b"\x02\x00\x00\x00w0") + 4 + 2 + 4 + 8
    blob[start : start + 8 * rows * cols] = bytes(8 * rows * cols)
    runner.checkpoint.write_bytes(bytes(blob))
    assert not runner.cli_round()
    assert runner.tally.failed >= 1
    assert _success_rate(runner) < 1.0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
