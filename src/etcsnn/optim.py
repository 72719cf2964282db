"""AdamW with decoupled weight decay and a cosine learning-rate schedule.

The trainer keeps raw parameter arrays; the optimizer is purely functional
over them (new arrays out, moment state mutated in place) so updates are
bit-reproducible and trivially checkpointable.  Shapes are the caller's
(``train.load_checkpoint`` checks a loaded state's); a step checks only that
its gradients are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptimState", "adamw_step", "cosine_lr"]


@dataclass
class OptimState:
    """Adam moment estimates plus the hyper-parameters that drive them."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    lr_base: float = 0.001
    weight_decay: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params: list[np.ndarray], **hypers) -> "OptimState":
        """Zero moments shaped like ``params``."""
        return cls(
            step=0,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **hypers,
        )


def adamw_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: OptimState, lr_now: float
) -> list[np.ndarray]:
    """One decoupled-decay Adam update.

    Mutates ``state`` (moments and step counter) and returns fresh parameter
    arrays; the inputs are never written to.  A non-finite gradient is a
    ValueError naming its weight, ``w{i}``.
    """
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for w{i}")

    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        out.append(
            p
            - lr_now * (m_hat / (np.sqrt(v_hat) + state.eps))
            - lr_now * state.weight_decay * p
        )
    return out


def cosine_lr(epoch: int, total_epochs: int, lr_base: float) -> float:
    """Half-cosine decay from ``lr_base`` at epoch 0 toward 0 at the end."""
    if total_epochs <= 0:
        raise ValueError(f"total_epochs must be positive, got {total_epochs}")
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return 0.5 * lr_base * (1.0 + math.cos(math.pi * epoch / total_epochs))
