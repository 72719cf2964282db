"""AdamW with decoupled weight decay and a cosine learning-rate schedule.

Weights, their gradients and the two Adam moments are each ``Packed``: the
per-layer arrays are views of one contiguous float64 buffer, so an update is
a few whole-model ops however many layers there are.  The update is
functional in the weights (new packed weights out, the inputs never
written) and updates the moment buffers in place, so updates are
bit-reproducible and trivially checkpointable.  Shapes are the caller's
(``train.load_checkpoint`` checks a loaded state's); a step checks only that
its gradients are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Packed", "pack", "OptimState", "adamw_step", "cosine_lr"]


class Packed(list):
    """Float64 arrays of ``shapes``, held back to back in one contiguous
    buffer, ``flat`` (fresh and uninitialised unless given): the list's
    items are views of it, so whole-model ops run on ``flat``."""

    def __init__(self, shapes, flat: np.ndarray | None = None):
        shapes = [tuple(s) for s in shapes]
        sizes = [math.prod(s) for s in shapes]
        self.flat = np.empty(sum(sizes)) if flat is None else flat
        start = 0
        for shape, size in zip(shapes, sizes):
            self.append(self.flat[start : start + size].reshape(shape))
            start += size

    def __reduce__(self):  # unpickled views must stay views of the unpickled buffer
        return Packed, ([a.shape for a in self], self.flat)


def pack(arrays) -> Packed:
    """``arrays`` itself if already packed, else a packed float64 copy."""
    if isinstance(arrays, Packed):
        return arrays
    out = Packed(map(np.shape, arrays))
    for dst, src in zip(out, arrays):
        dst[...] = src
    return out


@dataclass
class OptimState:
    """Adam moment estimates plus the hyper-parameters that drive them;
    ``m`` and ``v`` are packed (``pack``) on construction."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    lr_base: float = 0.001
    weight_decay: float = 0.0001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.m, self.v = pack(self.m), pack(self.v)

    @classmethod
    def fresh(cls, params, **hypers) -> "OptimState":
        """Zero moments shaped like ``params``."""
        return cls(
            step=0,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **hypers,
        )


def adamw_step(params, grads, state: OptimState, lr_now: float) -> Packed:
    """One decoupled-decay Adam update, as whole-model ops over the packed
    weights and gradients (lists that are not ``Packed`` are packed first).

    Updates ``state`` (moments in place, and the step counter) and returns
    the new weights, packed fresh; the inputs are never written to.  Per
    element it runs ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p - lr*((m/bc1) / (sqrt(v/bc2) + eps)) - lr*wd*p``, op for op.  A
    non-finite gradient is a ValueError naming its weight, ``w{i}``, and
    leaves ``state`` as it was.
    """
    p, g = pack(params), pack(grads)
    if not np.isfinite(g.flat).all():
        bad = next(i for i, gi in enumerate(g) if not np.isfinite(gi).all())
        raise ValueError(f"non-finite gradient for w{bad}")

    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    m, v = state.m.flat, state.v.flat
    out = Packed(a.shape for a in p)
    new, scratch = out.flat, np.empty_like(out.flat)  # the new weights' buffer is scratch first
    m *= b1
    m += np.multiply(g.flat, 1.0 - b1, out=new)
    v *= b2
    v += np.multiply(np.multiply(g.flat, g.flat, out=new), 1.0 - b2, out=new)
    denom = np.add(np.sqrt(np.divide(v, bc2, out=new), out=new), state.eps, out=new)
    update = np.divide(np.divide(m, bc1, out=scratch), denom, out=scratch)
    update *= lr_now
    np.subtract(p.flat, update, out=scratch)
    np.subtract(scratch, np.multiply(p.flat, lr_now * state.weight_decay, out=new), out=new)
    return out


def cosine_lr(epoch: int, total_epochs: int, lr_base: float) -> float:
    """Half-cosine decay from ``lr_base`` at epoch 0 toward 0 at the end."""
    if total_epochs <= 0:
        raise ValueError(f"total_epochs must be positive, got {total_epochs}")
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return 0.5 * lr_base * (1.0 + math.cos(math.pi * epoch / total_epochs))
