"""AdamW with decoupled weight decay and a cosine learning-rate schedule.

Weights, their gradients and both Adam moments are plain lists of one
float64 array per weight.  An update returns fresh weights, never writes its
inputs and updates the moments in place, so updates are bit-reproducible and
trivially checkpointable.  Shapes are the caller's (``train.load_checkpoint``
checks a loaded state's); a step checks only that its gradients are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptimState", "adamw_step", "cosine_lr"]


@dataclass
class OptimState:
    """Adam moments, one float64 array per weight, and the hyper-parameters."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    lr_base: float = 0.001
    weight_decay: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params, **hypers) -> "OptimState":
        """Zero moments shaped like ``params``."""
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **hypers,
        )


def adamw_step(params, grads, state: OptimState, lr_now: float) -> list[np.ndarray]:
    """One decoupled-decay Adam update, weight by weight: per element
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p - lr*((m/bc1) / (sqrt(v/bc2) + eps)) - lr*wd*p``, op for op, in one
    scratch array beside each fresh new weight.  Updates ``state`` (moments
    in place, and the step counter) and returns the new weights; the inputs
    are never written to.  A non-finite gradient is a ValueError naming its
    weight, ``w{i}``, and leaves ``state`` as it was."""
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for w{i}")

    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    out = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        new = np.empty(np.shape(p))  # the new weight's buffer is scratch first
        scratch = np.empty_like(new)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=new)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=new), 1.0 - b2, out=new)
        denom = np.add(np.sqrt(np.divide(v, bc2, out=new), out=new), state.eps, out=new)
        update = np.divide(np.divide(m, bc1, out=scratch), denom, out=scratch)
        update *= lr_now
        np.subtract(p, update, out=scratch)
        np.subtract(scratch, np.multiply(p, lr_now * state.weight_decay, out=new), out=new)
        out.append(new)
    return out


def cosine_lr(epoch: int, total_epochs: int, lr_base: float) -> float:
    """Half-cosine decay from ``lr_base`` at epoch 0 toward 0 at the end."""
    if total_epochs <= 0:
        raise ValueError(f"total_epochs must be positive, got {total_epochs}")
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return 0.5 * lr_base * (1.0 + math.cos(math.pi * epoch / total_epochs))
