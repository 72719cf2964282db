"""Training objectives, their diagnostics, and gradient oracles.

Both objectives are a few tape ops over one (batch, T, classes) tensor of
output potentials.  ``ce_mean_loss`` is ordinary cross-entropy on the
softmax of the time-averaged output potential -- supervising only the
average leaves the individual timesteps free to disagree.  ``etc_loss``
closes that gap: each timestep's tempered distribution is trained against
frozen copies of every *other* timestep's, averaged over ordered pairs, so
all steps are pulled toward a common prediction without any extra labels.
``kl_metric_values`` is the matching read-only diagnostic (mean pairwise
KL); it differs from ``etc_loss`` by exactly the mean entropy of the frozen
targets.

``gradcheck_ce`` / ``gradcheck_etc`` compare the tape's gradients against
closed forms (and central finite differences): for the mean-CE loss the
per-step gradient is ``(P_mean - y) / (T * batch)``; for the weighted
consistency term ``lam * tau**2 * etc_loss`` it is

    lam * tau / (T * (T-1) * batch) * sum_{m != t} (P_t - P_m)

note the single power of tau: differentiating the tempered softmax
contributes a 1/tau that cancels one of the two in the weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax, mul, scale, sum_all, time_mean

__all__ = [
    "TimestepOutputs",
    "EtcConfig",
    "ce_mean_loss",
    "etc_loss",
    "kl_metric_values",
    "GradCheckReport",
    "gradcheck_ce",
    "gradcheck_etc",
    "GradCheckSuiteReport",
    "gradcheck_suite",
]


@dataclass
class TimestepOutputs:
    """Output-layer potentials at every timestep: one (batch, T, classes) tensor."""

    v: Tensor

    def __post_init__(self):
        if self.v.data.ndim != 3:
            raise ValueError(f"outputs must be (batch, T, classes), got {self.v.shape}")
        if self.v.shape[1] < 1:
            raise ValueError("need at least one timestep of outputs")
        if self.v.shape[2] < 2:
            raise ValueError("need at least 2 classes")

    @property
    def steps(self) -> int:
        return self.v.shape[1]

    @property
    def batch(self) -> int:
        return self.v.shape[0]

    @property
    def classes(self) -> int:
        return self.v.shape[2]

    def values(self) -> np.ndarray:
        """Raw potentials, (batch, T, classes)."""
        return self.v.data

    @classmethod
    def from_values(cls, values) -> "TimestepOutputs":
        """Wrap a (batch, T, classes) array as a fresh leaf tensor."""
        return cls(Tensor(values))


@dataclass(frozen=True)
class EtcConfig:
    """Consistency-loss knobs: softmax temperature and loss weight."""

    tau: float = 4.0
    lam: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


def _validate_one_hot(labels: np.ndarray, outputs: TimestepOutputs) -> None:
    if labels.shape != (outputs.batch, outputs.classes):
        raise ValueError(
            f"labels shape {labels.shape} does not match outputs "
            f"({outputs.batch}, {outputs.classes})"
        )
    if not np.all(np.isin(labels, (0.0, 1.0))) or not np.all(labels.sum(axis=1) == 1.0):
        raise ValueError("labels must be one-hot rows")


def ce_mean_loss(outputs: TimestepOutputs, labels) -> Tensor:
    """Cross-entropy of softmax(mean-over-time potential) vs one-hot labels.

    Scalar, averaged over the batch; softmax at temperature 1.
    """
    labels = np.asarray(labels, dtype=np.float64)
    _validate_one_hot(labels, outputs)
    picked = mul(Tensor(labels), log_softmax(time_mean(outputs.v), 1.0))
    return scale(sum_all(picked), -1.0 / outputs.batch)


def etc_loss(outputs: TimestepOutputs, cfg: EtcConfig) -> Tensor:
    """Pairwise temporal-consistency loss, averaged over pairs and batch.

    For every ordered pair (t, m != t), the cross-entropy of step t's
    tempered distribution under step m's, with step m's probabilities
    frozen -- they enter the tape as a constant leaf, so gradients flow
    only through the log-probability factor.  The sum over m != t of
    frozen targets is computed once as (total - own), which is
    algebraically identical to the pairwise double sum.
    """
    if outputs.steps < 2:
        raise ValueError("consistency loss needs at least 2 timesteps")
    p = _softmax_np(outputs.v.data / cfg.tau)
    others = Tensor(p.sum(axis=1, keepdims=True) - p)
    total = sum_all(mul(others, log_softmax(outputs.v, cfg.tau)))
    pairs = outputs.batch * outputs.steps * (outputs.steps - 1)
    return scale(total, -1.0 / pairs)


def kl_metric_values(values: np.ndarray, tau: float) -> float:
    """Mean pairwise KL(P_m || P_t) over ordered pairs, timesteps, and batch.

    Pure-value diagnostic (no gradients); ``values`` is (batch, T, classes)
    of raw potentials.  The diagonal terms of the pairwise sum cancel, so

        sum_{t, m != t} P_m (log P_m - log P_t)
            = T * sum_m P_m log P_m - (sum_m P_m)(sum_t log P_t)

    summed over batch and classes, which costs O(T) instead of O(T^2).
    Clamped at zero so rounding near identical distributions cannot report
    a negative divergence.
    """
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected (batch, T, classes), got {arr.shape}")
    batch, steps, _ = arr.shape
    if steps < 2:
        raise ValueError("pairwise KL needs at least 2 timesteps")
    z = arr / tau
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    total = steps * np.sum(p * logp) - np.sum(p.sum(axis=1) * logp.sum(axis=1))
    return max(float(total) / (batch * steps * (steps - 1)), 0.0)


# -- gradient oracles ---------------------------------------------------------


def _softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _norm_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(got))), float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want)) / denom)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    fd_max_rel_err: float | None = None
    fd_tol: float | None = None


def gradcheck_ce(outputs: TimestepOutputs, labels, tol: float = 1e-10) -> GradCheckReport:
    """Autodiff gradient of ce_mean_loss vs the closed form (P_mean - y)/(T*batch).

    The per-step values are treated as free variables (they are leaves in
    the instances this is meant for); the closed form is identical at
    every timestep.
    """
    labels = np.asarray(labels, dtype=np.float64)
    loss = ce_mean_loss(outputs, labels)
    loss.backward()
    p_mean = _softmax_np(outputs.values().mean(axis=1))
    expected = (p_mean - labels) / (outputs.steps * outputs.batch)
    err = max(_norm_rel_err(outputs.v.grad[:, t], expected) for t in range(outputs.steps))
    return GradCheckReport(max_rel_err=err, tol=tol, passed=err < tol)


def gradcheck_etc(
    outputs: TimestepOutputs,
    cfg: EtcConfig,
    tol: float = 1e-10,
    fd_tol: float = 1e-5,
    fd_step: float = 1e-6,
    with_fd: bool = True,
) -> GradCheckReport:
    """Autodiff gradient of lam*tau^2*etc_loss vs closed form and central FD.

    Closed form per step t:  lam*tau/(T*(T-1)*batch) * sum_{m != t}(P_t - P_m),
    with P at temperature tau.  The FD probe must see the same function the
    tape differentiates, so the target distributions stay pinned at the
    unperturbed values instead of being recomputed per probe.
    """
    weight = cfg.lam * cfg.tau**2
    loss = scale(etc_loss(outputs, cfg), weight)
    loss.backward()
    values = outputs.values()
    p = _softmax_np(values / cfg.tau)
    coeff = cfg.lam * cfg.tau / (outputs.steps * (outputs.steps - 1) * outputs.batch)
    # sum_{m != t}(P_t - P_m) == T * P_t - sum_m P_m
    expected = coeff * (outputs.steps * p - p.sum(axis=1, keepdims=True))
    err = max(
        _norm_rel_err(outputs.v.grad[:, t], expected[:, t]) for t in range(outputs.steps)
    )
    if not with_fd:
        return GradCheckReport(max_rel_err=err, tol=tol, passed=err < tol)

    frozen_others = p.sum(axis=1, keepdims=True) - p
    denom = outputs.batch * outputs.steps * (outputs.steps - 1)

    def objective(vals: np.ndarray) -> float:
        logp = _log_softmax_np(vals / cfg.tau)
        return -weight * float((frozen_others * logp).sum()) / denom

    auto = outputs.v.grad
    values = values.copy()  # the probes below perturb it in place
    fd = np.zeros_like(values)
    flat_vals = values.ravel()
    flat_fd = fd.ravel()
    for i in range(values.size):
        orig = flat_vals[i]
        flat_vals[i] = orig + fd_step
        hi = objective(values)
        flat_vals[i] = orig - fd_step
        lo = objective(values)
        flat_vals[i] = orig
        flat_fd[i] = (hi - lo) / (2.0 * fd_step)
    fd_err = _norm_rel_err(auto, fd)
    return GradCheckReport(
        max_rel_err=err,
        tol=tol,
        passed=err < tol and fd_err < fd_tol,
        fd_max_rel_err=fd_err,
        fd_tol=fd_tol,
    )


@dataclass(frozen=True)
class GradCheckSuiteReport:
    cases: int
    ce_max_rel_err: float
    etc_max_rel_err: float
    etc_fd_max_rel_err: float
    tol: float
    fd_tol: float
    passed: bool


def gradcheck_suite(
    seed: int = 0, cases: int = 100, tol: float = 1e-10, fd_tol: float = 1e-5
) -> GradCheckSuiteReport:
    """Run both gradient oracles on ``cases`` freshly sampled instances."""
    rng = np.random.default_rng(seed)
    ce_max = etc_max = fd_max = 0.0
    for _ in range(cases):
        batch = int(rng.integers(1, 5))
        steps = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 6))
        values = rng.normal(scale=2.0, size=(batch, steps, classes))
        labels = np.zeros((batch, classes))
        labels[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
        outs = TimestepOutputs.from_values(values)
        ce_max = max(ce_max, gradcheck_ce(outs, labels, tol=tol).max_rel_err)
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.1, 4.0)))
        report = gradcheck_etc(outs, cfg, tol=tol, fd_tol=fd_tol)
        etc_max = max(etc_max, report.max_rel_err)
        fd_max = max(fd_max, report.fd_max_rel_err)
    return GradCheckSuiteReport(
        cases=cases,
        ce_max_rel_err=ce_max,
        etc_max_rel_err=etc_max,
        etc_fd_max_rel_err=fd_max,
        tol=tol,
        fd_tol=fd_tol,
        passed=ce_max < tol and etc_max < tol and fd_max < fd_tol,
    )
