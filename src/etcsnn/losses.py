"""Training objectives and their diagnostics.

``objective`` is the loss training runs, in plain numpy over a (batch, T,
classes) array of output potentials, for three modes.  ``ce_only`` is
cross-entropy on the softmax of the time-averaged potential, which leaves
the individual timesteps free to disagree.  ``ce_plus_etc`` adds the
consistency term that closes the gap: each step's tempered distribution is
trained against frozen copies of every *other* step's, averaged over
ordered pairs.  ``per_timestep_ce`` is cross-entropy at every step (TET).
``kl_metric_values`` is the read-only diagnostic (mean pairwise KL); it
differs from the consistency term by exactly the mean target entropy.

The same losses as tape ops, and the checks that hold ``objective`` to
them, live in the oracle module ``etcsnn.autodiff``; this module never
builds a tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snn import NonFiniteError

__all__ = ["LOSS_MODES", "EtcConfig", "objective", "kl_metric_values"]

LOSS_MODES = ("ce_only", "ce_plus_etc", "per_timestep_ce")


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


def _softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _log_softmax_term(ls, target, tau: float, c: float, upstream: float = 1.0):
    """``c * sum(target * ls)``, ``ls = log_softmax(x / tau)``, and its gradient by
    ``x`` when ``upstream`` reaches the scaled sum: the tape's ops, same order."""
    g = target * (c * upstream)
    return float(np.sum(target * ls) * c), (g - np.exp(ls) * g.sum(axis=-1, keepdims=True)) / tau


@np.errstate(over="ignore", invalid="ignore")  # the total is checked below
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
        ce, grad = _log_softmax_term(_log_softmax_np(values), y, 1.0, -1.0 / (batch * steps))
        dv += grad
    else:
        if with_etc:
            weight = float(etc.lam * etc.tau**2)
            z = values / etc.tau  # _softmax_np's and _log_softmax_np's ops, one exp for both
            z -= z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            norm = e.sum(axis=-1, keepdims=True)
            p = e / norm  # the frozen targets
            others = p.sum(axis=1, keepdims=True) - p
            c = -1.0 / (batch * steps * (steps - 1))
            etc_val, grad = _log_softmax_term(z - np.log(norm), others, etc.tau, c, weight)
            dv += grad
        mean = values.sum(axis=1) * (1.0 / steps)
        ce, grad = _log_softmax_term(_log_softmax_np(mean), labels_1h, 1.0, -1.0 / batch)
        dv += ((1.0 / steps) * grad)[:, None, :]
    total = ce + etc_val * weight if with_etc else ce
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite loss {total}")
    return dv, total, ce, etc_val


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
    logp = _log_softmax_np(arr / tau)
    p = np.exp(logp)
    total = steps * np.sum(p * logp) - np.sum(p.sum(axis=1) * logp.sum(axis=1))
    return max(float(total) / (batch * steps * (steps - 1)), 0.0)
