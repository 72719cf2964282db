"""Acceptance gate: ten checks, one per criterion, each printing a single
PASS/FAIL line (visible under ``pytest -s`` and in any failure report).

The exact-oracle checks (1-4) verify closed-form gradients and identities at
tight tolerances.  The mechanism checks (6-8) run the compare script's paired
experiment (``paired_rows``) on the drifting synthetic task: five seeds, one
plain mean-CE baseline and one consistency-regularized run per seed, then
compare truncated single-step accuracy, consistency metrics, and full-length
accuracy.  The remaining checks cover bitwise degeneracy, determinism/resume,
and a smoke training run.
"""

import time

import numpy as np
import pytest

from etcsnn.autodiff import Tensor, etc_loss, gradcheck_ce, gradcheck_etc, spike_fn, sum_all
from etcsnn.losses import EtcConfig, kl_metric_values
from etcsnn.snn import LifParams, surrogate_factor
from etcsnn.train import build_run_config, load_checkpoint, train

from compare_baseline_etc import paired_rows
from oracles import mean_entropy_reference


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} - {criterion}: {detail}")
    return ok


def _random_outputs(rng) -> tuple[Tensor, np.ndarray]:
    batch = int(rng.integers(1, 5))
    steps = int(rng.integers(2, 7))
    classes = int(rng.integers(2, 6))
    values = rng.normal(scale=2.0, size=(batch, steps, classes))
    labels = np.zeros((batch, classes))
    labels[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
    return Tensor(values), labels


# -- 1: surrogate exactness ---------------------------------------------------------


def test_criterion_1_surrogate_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    params = LifParams()
    v = rng.uniform(-2.0, 3.0, size=1000)
    vt = Tensor(v)
    grad = sum_all(spike_fn(vt, params)).backward()[vt]
    expected = surrogate_factor(v, params)
    err = float(np.max(np.abs(grad - expected)))
    wall = time.perf_counter() - t0
    ok = err <= 1e-15 and wall < 1.0
    assert _report(
        "criterion 1 (surrogate exactness)", ok,
        f"max abs err {err:.2e} over 1000 potentials (tol 1e-15), {wall:.2f}s (<1s)",
    )


# -- 2: mean-CE gradient oracle ------------------------------------------------------


def test_criterion_2_ce_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        outs, labels = _random_outputs(rng)
        worst = max(worst, gradcheck_ce(outs, labels, tol=1e-10).max_rel_err)
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 10.0
    assert _report(
        "criterion 2 (mean-CE gradient oracle)", ok,
        f"max rel err {worst:.2e} over 100 instances (tol 1e-10), {wall:.2f}s (<10s)",
    )


# -- 3: consistency-loss gradient oracle ---------------------------------------------


def test_criterion_3_consistency_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_closed = worst_fd = 0.0
    for _ in range(100):
        outs, _ = _random_outputs(rng)
        cfg = EtcConfig(
            tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.1, 4.0))
        )
        closed, fd = gradcheck_etc(outs, cfg, tol=1e-10, fd_tol=1e-5)
        worst_closed = max(worst_closed, closed.max_rel_err)
        worst_fd = max(worst_fd, fd.max_rel_err)
    wall = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_fd < 1e-5 and wall < 30.0
    assert _report(
        "criterion 3 (consistency gradient oracle)", ok,
        f"closed-form {worst_closed:.2e} (tol 1e-10), central FD {worst_fd:.2e} "
        f"(tol 1e-5), 100 instances, {wall:.2f}s (<30s)",
    )


# -- 4: loss identity and KL-zero ----------------------------------------------------


def test_criterion_4_loss_identity_and_kl_zero():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        outs, _ = _random_outputs(rng)
        tau = float(rng.uniform(0.5, 8.0))
        cfg = EtcConfig(tau=tau, lam=1.0)
        lhs = etc_loss(outs, cfg).item() - mean_entropy_reference(outs.data, tau)
        rhs = kl_metric_values(outs.data, tau)
        worst = max(worst, abs(lhs - rhs))

    # identical per-timestep distributions: shift each step by a constant
    base = rng.normal(size=(3, 1, 4))
    shifts = rng.normal(size=(1, 5, 1))
    same = np.broadcast_to(base, (3, 5, 4)) + shifts
    kl_same = kl_metric_values(np.ascontiguousarray(same), 2.0)
    diff = same.copy()
    diff[:, 0, 0] += 0.5
    kl_diff = kl_metric_values(diff, 2.0)

    ok = worst <= 1e-10 and kl_same <= 1e-12 and kl_diff > 1e-12
    assert _report(
        "criterion 4 (loss identity, KL zero iff identical)", ok,
        f"identity max abs err {worst:.2e} (tol 1e-10); KL identical "
        f"{kl_same:.2e} (<=1e-12), KL perturbed {kl_diff:.2e} (>1e-12)",
    )


# -- 5: lambda = 0 degeneracy --------------------------------------------------------


def _tiny_mapping(**overrides) -> dict:
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
    base.update(overrides)
    return base


def test_criterion_5_lambda_zero_bitwise(tmp_path):
    lam0 = train(
        build_run_config(_tiny_mapping(**{"etc.lambda": "0"})), tmp_path / "lam0"
    )
    ce = train(
        build_run_config(_tiny_mapping(**{"train.loss_mode": "ce_only"})),
        tmp_path / "ce",
    )
    # headers echo the differing loss_mode/lambda; the per-epoch records must
    # be bit-identical
    lam0_records = lam0.metrics_path.read_text().splitlines()[1:]
    ce_records = ce.metrics_path.read_text().splitlines()[1:]
    ok = lam0_records == ce_records and len(lam0_records) == 3
    assert _report(
        "criterion 5 (lambda=0 degeneracy)", ok,
        f"{len(lam0_records)} epoch records bit-identical between lambda=0 "
        "and ce_only runs",
    )


# -- 6-8: the paired mechanism experiment -------------------------------------------

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def paired_runs(tmp_path_factory):
    """The compare script's paired experiment at its default seeds and
    epochs: five pairs on the drifting synthetic task (default dataset
    regime: drift 4.0, noise 0.2), 40 epochs at lr 0.01, data seed following
    the train seed, so every pair sees its own dataset."""
    t0 = time.perf_counter()
    rows = paired_rows(SEEDS, 40, {}, tmp_path_factory.mktemp("paired"))
    return rows, time.perf_counter() - t0


def test_criterion_6_truncated_accuracy_lift(paired_runs):
    rows, wall = paired_runs
    gap = float(np.median([r["base_acc_full"] - r["base_acc_t1"] for r in rows]))
    lift = float(np.median([r["etc_acc_t1"] - r["base_acc_t1"] for r in rows]))
    ok = gap >= 0.10 and lift >= 0.05 and wall < 900.0
    assert _report(
        "criterion 6 (single-step accuracy lift)", ok,
        f"baseline eval-T=1 sits {gap * 100:.1f} points under its eval-T=10 "
        f"(precondition >=10); consistency training lifts eval-T=1 by "
        f"{lift * 100:.1f} points median over {len(rows)} seeds (need >=5); "
        f"experiment wall time {wall:.0f}s (<900s)",
    )


def test_criterion_7_consistency_metrics_drop(paired_runs):
    rows, _ = paired_runs
    kl_lower = sum(r["etc_kl"] < r["base_kl"] for r in rows)
    flip_lower = sum(r["etc_flip"] < r["base_flip"] for r in rows)
    ok = kl_lower >= 4 and flip_lower >= 4
    assert _report(
        "criterion 7 (consistency metrics drop)", ok,
        f"mean pairwise KL strictly lower in {kl_lower}/5 paired seeds, "
        f"argmax flip rate lower in {flip_lower}/5 (need >=4 each)",
    )


def test_criterion_8_no_harm_at_full_length(paired_runs):
    rows, _ = paired_runs
    delta = float(np.median([r["etc_acc_full"] - r["base_acc_full"] for r in rows]))
    ok = delta >= -0.02
    assert _report(
        "criterion 8 (no harm at full length)", ok,
        f"median eval-T=10 accuracy delta (consistency - baseline) "
        f"{delta * 100:+.1f} points (must be >= -2)",
    )


# -- 9: determinism and resume -------------------------------------------------------


def test_criterion_9_determinism_and_resume(tmp_path):
    mapping = _tiny_mapping(**{"train.epochs": "4", "train.save_interval": "2"})
    cfg = build_run_config(mapping)
    a = train(cfg, tmp_path / "a")
    b = train(cfg, tmp_path / "b")
    logs_identical = a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    ckpts_identical = a.ckpt_path.read_bytes() == b.ckpt_path.read_bytes()

    resumed = train(cfg, tmp_path / "c", resume_from=tmp_path / "a" / "ckpt_epoch0002.bin")
    resume_exact = resumed.ckpt_path.read_bytes() == a.ckpt_path.read_bytes()
    tail = a.metrics_path.read_text().splitlines()[3:]
    resumed_records = resumed.metrics_path.read_text().splitlines()[1:]
    resume_log_exact = resumed_records == tail

    ok = logs_identical and ckpts_identical and resume_exact and resume_log_exact
    assert _report(
        "criterion 9 (determinism and resume)", ok,
        f"same-seed logs byte-identical: {logs_identical}; checkpoints "
        f"byte-identical: {ckpts_identical}; resumed final checkpoint exact: "
        f"{resume_exact}; resumed epoch records exact: {resume_log_exact}",
    )


# -- 10: smoke training ---------------------------------------------------------------


def test_criterion_10_smoke_training(tmp_path):
    t0 = time.perf_counter()
    cfg = build_run_config({
        "data.classes": "2",
        "data.dim": "16",
        "data.drift_strength": "0.0",
        "data.noise_sigma": "0.05",
        "data.samples_per_class": "50",
        "network.hidden_sizes": "16",
        "network.timesteps": "5",
        "train.epochs": "50",
        "train.batch_size": "16",
        "opt.lr": "0.01",
    })
    result = train(cfg, tmp_path / "smoke")
    best = max(rec.test_acc_full_T for rec in result.records)
    first_hit = next(
        (rec.epoch + 1 for rec in result.records if rec.test_acc_full_T >= 0.95),
        None,
    )
    wall = time.perf_counter() - t0
    ok = best >= 0.95 and wall < 60.0
    assert _report(
        "criterion 10 (smoke training)", ok,
        f"separable 2-class task reaches {best * 100:.1f}% "
        f"(epoch {first_hit} of <=50, need >=95%), {wall:.1f}s (<60s)",
    )
