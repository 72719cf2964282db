"""Training objectives, their diagnostics, and gradient oracles.

``objective`` is the loss training runs, in plain numpy over a (batch, T,
classes) array of output potentials, for three modes.  ``ce_only`` is
cross-entropy on the softmax of the time-averaged potential, which leaves
the individual timesteps free to disagree.  ``ce_plus_etc`` adds the
consistency term that closes the gap: each step's tempered distribution is
trained against frozen copies of every *other* step's, averaged over
ordered pairs.  ``per_timestep_ce`` is cross-entropy at every step (TET).
``kl_metric_values`` is the read-only diagnostic (mean pairwise KL); it
differs from the consistency term by exactly the mean target entropy.

``ce_mean_loss``, ``etc_loss`` and ``per_timestep_ce_loss`` build the same
losses as tape ops: they are the oracles.  ``gradcheck_suite`` holds
``objective`` to them, and them to closed forms (and central finite
differences): per step, ``(P_mean - y) / (T * batch)`` for mean-CE,
``(P_t - y) / (T * batch)`` for per-timestep CE, and for the weighted
consistency term ``lam * tau**2 * etc_loss``

    lam * tau / (T * (T-1) * batch) * sum_{m != t} (P_t - P_m)

note the single power of tau: differentiating the tempered softmax
contributes a 1/tau that cancels one of the two in the weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, Tensor, add, log_softmax, mul, scale, sum_all, time_mean

__all__ = [
    "LOSS_MODES",
    "TimestepOutputs",
    "EtcConfig",
    "objective",
    "ce_mean_loss",
    "etc_loss",
    "per_timestep_ce_loss",
    "kl_metric_values",
    "GradCheckReport",
    "gradcheck_ce",
    "gradcheck_etc",
    "gradcheck_per_timestep_ce",
    "GradCheckSuiteReport",
    "gradcheck_suite",
]

LOSS_MODES = ("ce_only", "ce_plus_etc", "per_timestep_ce")


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


def _log_softmax_term(x, target, tau: float, c: float, upstream: float = 1.0):
    """``c * sum(target * log_softmax(x / tau))`` and its gradient by ``x``
    when ``upstream`` reaches the scaled sum: the tape's ops, same order."""
    ls = _log_softmax_np(x / tau)
    g = target * (c * upstream)
    return float(np.sum(target * ls) * c), (g - np.exp(ls) * g.sum(axis=-1, keepdims=True)) / tau


def objective(
    values: np.ndarray, labels_1h: np.ndarray, loss_mode: str, etc: EtcConfig
) -> tuple[np.ndarray, float, float, float]:
    """``(dv, total, ce, etc)`` of the (batch, T, classes) output potentials
    ``values`` against one-hot labels: the gradient of ``total`` by
    ``values``, the total and its logged components.  The consistency term
    is on in mode ``ce_plus_etc`` with lam > 0 and T >= 2, else ``etc`` is
    0.  Every result equals the tape losses' bit for bit: the same ops, and
    ``dv`` adds the consistency part before the cross-entropy one, as the
    tape's backward does.  Raises NonFiniteError on a non-finite loss.
    """
    batch, steps, _ = values.shape
    dv = np.zeros_like(values)
    etc_val = 0.0
    with_etc = loss_mode == "ce_plus_etc" and etc.lam != 0.0 and steps >= 2
    if loss_mode == "per_timestep_ce":
        y = np.repeat(labels_1h[:, None, :], steps, axis=1)
        ce, grad = _log_softmax_term(values, y, 1.0, -1.0 / (batch * steps))
        dv += grad
    else:
        if with_etc:
            weight = float(etc.lam * etc.tau**2)
            p = _softmax_np(values / etc.tau)  # the frozen targets
            others = p.sum(axis=1, keepdims=True) - p
            c = -1.0 / (batch * steps * (steps - 1))
            etc_val, grad = _log_softmax_term(values, others, etc.tau, c, weight)
            dv += grad
        mean = values.sum(axis=1) * (1.0 / steps)
        ce, grad = _log_softmax_term(mean, labels_1h, 1.0, -1.0 / batch)
        dv += ((1.0 / steps) * grad)[:, None, :]
    total = ce + etc_val * weight if with_etc else ce
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite loss {total}")
    return dv, total, ce, etc_val


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


def per_timestep_ce_loss(outputs: TimestepOutputs, labels) -> Tensor:
    """Cross-entropy of every step's softmax vs one-hot labels, averaged
    over steps and batch; softmax at temperature 1."""
    labels = np.asarray(labels, dtype=np.float64)
    _validate_one_hot(labels, outputs)
    y = Tensor(np.repeat(labels[:, None, :], outputs.steps, axis=1))
    picked = sum_all(mul(y, log_softmax(outputs.v, 1.0)))
    return scale(picked, -1.0 / (outputs.batch * outputs.steps))


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


def gradcheck_per_timestep_ce(
    outputs: TimestepOutputs, labels, tol: float = 1e-10
) -> GradCheckReport:
    """Autodiff gradient of per_timestep_ce_loss vs the closed form
    (P_t - y)/(T*batch), with P_t the temperature-1 softmax of step t."""
    labels = np.asarray(labels, dtype=np.float64)
    per_timestep_ce_loss(outputs, labels).backward()
    p = _softmax_np(outputs.values())
    err = _norm_rel_err(outputs.v.grad, (p - labels[:, None]) / (outputs.steps * outputs.batch))
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

    def probe(vals: np.ndarray) -> float:
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
        hi = probe(values)
        flat_vals[i] = orig - fd_step
        lo = probe(values)
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
    ptce_max_rel_err: float
    objective_max_rel_err: float  # numpy objective vs the tape losses, every mode
    tol: float
    fd_tol: float
    objective_tol: float
    passed: bool


def _tape_objective(outputs: TimestepOutputs, labels, loss_mode: str, cfg: EtcConfig):
    """``objective``'s total, ce and etc built from the tape losses."""
    if loss_mode == "per_timestep_ce":
        total = per_timestep_ce_loss(outputs, labels)
        return total, total.item(), 0.0
    ce = ce_mean_loss(outputs, labels)
    if loss_mode == "ce_only" or cfg.lam == 0.0 or outputs.steps < 2:
        return ce, ce.item(), 0.0
    etc = etc_loss(outputs, cfg)
    return add(ce, scale(etc, cfg.lam * cfg.tau**2)), ce.item(), etc.item()


_OBJECTIVE_TOL = 1e-12  # numpy objective vs tape: the same ops, so equal in practice


def gradcheck_suite(
    seed: int = 0, cases: int = 100, tol: float = 1e-10, fd_tol: float = 1e-5
) -> GradCheckSuiteReport:
    """Run the gradient oracles on ``cases`` freshly sampled instances, and
    hold ``objective``'s gradient and logged losses to the tape's in every
    loss mode."""
    rng = np.random.default_rng(seed)
    ce_max = etc_max = fd_max = ptce_max = obj_max = 0.0
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
        ptce_max = max(ptce_max, gradcheck_per_timestep_ce(outs, labels, tol=tol).max_rel_err)
        for mode in LOSS_MODES:
            total, ce, etc = _tape_objective(outs, labels, mode, cfg)
            total.backward()
            dv, *logged = objective(values, labels, mode, cfg)
            want = [total.item(), ce, etc]
            errs = _norm_rel_err(dv, outs.v.grad), _norm_rel_err(np.array(logged), np.array(want))
            obj_max = max(obj_max, *errs)
    return GradCheckSuiteReport(
        cases=cases,
        ce_max_rel_err=ce_max,
        etc_max_rel_err=etc_max,
        etc_fd_max_rel_err=fd_max,
        ptce_max_rel_err=ptce_max,
        objective_max_rel_err=obj_max,
        tol=tol,
        fd_tol=fd_tol,
        objective_tol=_OBJECTIVE_TOL,
        passed=max(ce_max, etc_max, ptce_max) < tol and fd_max < fd_tol
        and obj_max <= _OBJECTIVE_TOL,
    )
