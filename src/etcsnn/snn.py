"""Leaky integrate-and-fire layers unrolled through time.

Each layer keeps a membrane potential ``v`` per neuron.  One step charges
the stored (post-reset) potential toward the input current,

    v_charged = (1 - 1/tau_m) * v + (1/tau_m) * i

then emits a spike wherever ``v_charged >= v_th`` and hard-resets spiked
entries to ``v_reset``.  The spike step function carries a triangular
pseudo-derivative of half-width ``1/surrogate_a`` peaking at the
threshold; the reset multiplier ``(1 - s)`` carries no gradient, so that
pseudo-derivative is the only path gradients take through a spike.

Networks here are plain feedforward stacks of fully connected LIF layers
(no biases), finished by a non-spiking layer that leak-integrates its
input current with the same time constant.  That output layer's per-step
potentials are the network's logits.

``lif_unroll`` runs the network in plain numpy.  Both passes take the neuron
constants and read T, the batch and every width from their arrays; a
``NetworkSpec`` shapes ``init_weights`` and the tape oracle only.  The
layers are feedforward, so one (batch*T, fan_in) matmul gives every step's
input current; a loop over the steps then charges, fires and resets in
place, on time-major (T, batch, width) drives and potentials whose per-step
slices are contiguous.  The rows are taken in blocks of ``batch``: one
matmul per block, of the shape one call per block would run (BLAS picks its
kernel, and so the last bits, by shape), and one time loop over all of them.
Evaluation passes several batches at once this way; training's one batch is
one block.  The output layer integrates in place on its own time-major drive
too.
Spikes, inputs and gradients by input currents stay batch-major: their
(batch*T, width) rows feed the matmuls, and that row order fixes the float
summation order.  So do the returned output potentials, as one fresh copy
of the time-major ones: the loss's whole-array sums over them follow memory
order, and a transposed view would change their bits.  ``lif_backward``
walks the cache from the output layer down, running BPTT in reverse time by
hand, time-major too, in the cache's own buffers: it overwrites the charged
potentials and spikes and clears every entry (read them before), leaves
``dv`` as given, and returns a plain list of one fresh gradient array per
weight.  Its elementwise work runs over blocks of batch rows whose
(T, rows, width) float64 slab is at most ``_BLOCK_BYTES``, so its temporaries
are a block's, not a layer's; each layer's two matmuls run over every row.
The oracle module ``etcsnn.autodiff`` builds the same dynamics one tape op
per node and holds this pass to it; this module never builds a tape.
Shapes are the caller's: neither pass checks them, as ``etcsnn.train`` checks
each split and each checkpoint once, where data and weights enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NonFiniteError",
    "LifParams",
    "NetworkSpec",
    "surrogate_factor",
    "lif_unroll",
    "lif_backward",
    "init_weights",
]


class NonFiniteError(ArithmeticError):
    """A potential, a loss or a tape node came out NaN or Inf."""


@dataclass(frozen=True)
class LifParams:
    """Neuron constants, shared by every layer of a network."""

    tau_m: float = 2.0
    v_th: float = 0.5
    v_reset: float = 0.0
    surrogate_a: float = 2.0

    def __post_init__(self):
        if not self.tau_m >= 1.0:
            raise ValueError(f"tau_m must be >= 1, got {self.tau_m}")
        if not self.surrogate_a > 0.0:
            raise ValueError(f"surrogate_a must be > 0, got {self.surrogate_a}")

    @property
    def leak(self) -> float:
        return 1.0 - 1.0 / self.tau_m


def surrogate_factor(v: np.ndarray, params: LifParams) -> np.ndarray:
    """Triangular pseudo-derivative of the spike step, evaluated at ``v``.

    Zero outside ``|v - v_th| > 1/a``, rising linearly to ``a`` at the
    threshold.
    """
    return _surrogate(np.subtract(v, params.v_th, out=np.empty(np.shape(v))), params)


def _surrogate(dist: np.ndarray, params: LifParams) -> np.ndarray:
    """``surrogate_factor`` from ``dist = v - v_th``, in ``dist``'s buffer."""
    a = params.surrogate_a
    np.abs(dist, out=dist)
    # Same values, bit for bit, as np.where(dist > 1/a, 0, a - a*a*dist),
    # but masked by a multiply: np.where branches on every element and is
    # several times slower on the random masks of a fused layer.  The
    # clamp keeps masked terms finite (inf * 0 would be NaN) and + 0.0
    # turns their -0.0 into 0.0.  In place, as fresh temporaries cost more.
    in_band = dist <= 1.0 / a
    out = np.multiply(np.minimum(dist, 2.0 / a, out=dist), a * a, out=dist)
    np.subtract(a, out, out=out)
    out *= in_band
    return np.add(out, 0.0, out=out)


@dataclass(frozen=True)
class NetworkSpec:
    """Shape of a feedforward LIF classifier.

    ``layer_sizes`` runs input -> hidden... -> classes; there must be at
    least one hidden layer.  The final layer is always the non-spiking
    integrator.
    """

    layer_sizes: tuple[int, ...]
    timesteps: int
    lif: LifParams = LifParams()

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need input, at least one hidden layer, and classes")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.layer_sizes[-1] < 2:
            raise ValueError("need at least 2 classes")
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")

    @property
    def classes(self) -> int:
        return self.layer_sizes[-1]


def init_weights(spec: NetworkSpec, seed: int) -> list[np.ndarray]:
    """Uniform(+-sqrt(6/fan_in)) weights for each consecutive layer pair."""
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return weights


# -- the numpy network pass ------------------------------------------------------


def _drive(x: np.ndarray, w: np.ndarray, params: LifParams, batch: int) -> np.ndarray:
    """``(1/tau_m) * input current`` of every step, time-major: (T, rows, fan_out),
    from one matmul per ``batch`` rows of ``x``."""
    rows, steps, fan_in = x.shape
    out = np.empty((steps, rows, w.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        for b in range(0, rows, batch):
            xb, ob = x[b : b + batch], out[:, b : b + batch]
            current = (xb.reshape(-1, fan_in) @ w).reshape(len(xb), steps, -1)
            np.multiply(current, 1.0 / params.tau_m, out=ob.transpose(1, 0, 2))
    return out


def _charge_fire(drive: np.ndarray, params: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """Time-major charged potentials and batch-major spikes of one LIF layer;
    the spikes overwrite ``drive``, one array less at the memory peak.

    Same arithmetic as ``autodiff.lif_step`` from the reset potential, with
    ``c * (c < v_th)`` for ``c * (1 - s)``.  Raises NonFiniteError on an
    overflowed potential, which the 0/1 spikes would otherwise hide.
    """
    charged = np.empty_like(drive)
    keep, v = np.empty(drive.shape[1:]), np.full(drive.shape[1:], params.v_reset)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, d in zip(charged, drive):
            np.multiply(v, params.leak, out=c)
            c += d
            np.less(c, params.v_th, out=keep)
            np.multiply(c, keep, out=v)
            if params.v_reset != 0.0:
                v += (c >= params.v_th) * params.v_reset
    if not np.all(np.isfinite(charged)):
        raise NonFiniteError("non-finite membrane potentials in a LIF layer")
    spikes = drive.reshape(drive.shape[1], drive.shape[0], -1)
    np.copyto(spikes, (charged >= params.v_th).transpose(1, 0, 2))
    return charged, spikes


def lif_unroll(
    lif: LifParams, params: Sequence[np.ndarray], inputs: np.ndarray, batch: int | None = None,
) -> tuple[np.ndarray, list[tuple]]:
    """Run the whole network, of neuron constants ``lif``, over all timesteps.

    ``params`` holds one (fan_in, fan_out) weight array per layer and
    ``inputs`` is (batch, T, input_dim) of per-step input currents; T, the
    batch and every width are read from these arrays.  Hidden layers start
    from the reset potential; the output layer leak-integrates its current
    from zero with no threshold, spike, or reset, in place on its time-major
    drive.  Returns the output layer's potentials as a C-contiguous (batch,
    T, classes) copy that owns its memory, since sums over the whole array
    follow memory order, and the cache ``lif_backward`` needs: per layer, its
    input, (T, batch, width) charged potentials and (batch, T, width) spikes
    (None for the output layer).  Raises NonFiniteError on a non-finite
    potential; the shapes must fit one another and are not checked.

    Every layer's input current comes from one matmul per ``batch`` samples
    (all of them when None), so the potentials are bit for bit those of one
    call per ``batch`` samples, concatenated, while the time loops run once.
    """
    x = np.asarray(inputs, dtype=np.float64)
    batch = batch or max(1, len(x))
    cache = []
    for w in params[:-1]:
        charged, spikes = _charge_fire(_drive(x, w, lif, batch), lif)
        cache.append((x, charged, spikes))
        x = spikes
    cache.append((x, None, None))
    v = _drive(x, params[-1], lif, batch)  # integrated in place, step by step
    leaked = np.empty(v.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        v[0] += 0.0  # 0 * leak + drive: a -0.0 drive charges to +0.0
        for t in range(1, len(v)):
            v[t] += np.multiply(v[t - 1], lif.leak, out=leaked)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("non-finite membrane potentials in the output layer")
    return v.transpose(1, 0, 2).copy(), cache  # a copy, not a view: see above


# Most bytes of one row block's float64 (T, rows, width) slab in ``lif_backward``:
# 32 rows of the wide 256-unit layers at T=10, where 640 KiB timed fastest of
# 8, 16, 32, 64 rows and the whole layer.  A row larger than this is a block.
_BLOCK_BYTES = 640 << 10


def _current_grad(g: np.ndarray, charged: np.ndarray | None, lif: LifParams) -> np.ndarray:
    """One layer's gradient by its input currents, (batch, T, width), from ``g``,
    the gradient by its spikes, over ``g``; or for the output layer (``charged``
    None), by its potentials, in a fresh array.  BPTT runs block by block in
    the charged potentials' own rows, and one decay slab serves every block."""
    (batch, steps, width), output = g.shape, charged is None
    block = max(1, _BLOCK_BYTES // (steps * width * 8))
    slab = np.empty((steps, min(block, batch), width))
    if output:  # dv's block, time-major, in a buffer of its own; dv stays as given
        charged, g_current = np.empty_like(slab), np.empty(g.shape)
    else:  # over spent spike grads
        g_current = g
    for b in range(0, batch, block):
        g_block = g[b : b + block].transpose(1, 0, 2)
        n = g_block.shape[1]
        # d(loss)/d(charged potential), latest step first, in place; the stored potential
        # carries decay = leak * (1 - s) times it a step back: (leak*g)*k == g*(leak*k),
        # k in {0, 1}.  Each step's product overwrites the decay it used.
        decay = slab[:, :n]
        if output:
            g_charged = charged[:, :n]
            np.copyto(g_charged, g_block)
            decay.fill(lif.leak)
        else:
            g_charged = charged[:, b : b + n]
            np.multiply(np.less(g_charged, lif.v_th, out=decay), lif.leak, out=decay)
            _surrogate(np.subtract(g_charged, lif.v_th, out=g_charged), lif)
            g_charged *= g_block
        g_charged[-1] += 0.0  # the latest step's carry, 0 * decay: -0.0 turns +0.0
        for t in reversed(range(steps - 1)):
            g_charged[t] += np.multiply(g_charged[t + 1], decay[t], out=decay[t])
        np.multiply(g_charged.transpose(1, 0, 2), 1.0 / lif.tau_m, out=g_current[b : b + n])
    return g_current


@np.errstate(over="ignore", invalid="ignore")  # adamw_step checks the gradients
def lif_backward(lif: LifParams, params, cache, dv: np.ndarray) -> list[np.ndarray]:
    """Gradient of a loss by every weight, from ``dv``, the loss's gradient
    by the (batch, T, classes) output potentials of the ``lif_unroll`` call
    that returned ``cache``, run with the same ``lif``.  Consumes ``cache``,
    overwriting its arrays and clearing every entry (read charged potentials
    or spikes first); leaves ``dv`` as given.  The gradients come back as one
    fresh float64 array per weight, in the order of ``params``.

    Each layer's elementwise BPTT runs over blocks of batch rows whose
    (T, rows, width) float64 slab is at most ``_BLOCK_BYTES`` (one row at
    least); every op there is elementwise per row, so the bits are the
    whole layer's.  Its two matmuls run over every row at once, so BLAS sees
    the layer's shapes.  Beside the cache and the gradients, the backward
    allocates one block's decay slab and surrogate band mask, and for the
    output layer a time-major block of ``dv`` and its (batch, T, classes)
    gradient by the input currents."""
    grads = []  # output layer first
    g = dv  # gradient by the current layer's value: spikes, or potentials
    for i in reversed(range(len(params))):
        x, charged, _ = cache[i]
        cache[i] = g_current = None  # drop the layer above's arrays
        rows = x.reshape(-1, x.shape[2])  # (batch*T, fan_in)
        g_current = _current_grad(g, charged, lif).reshape(len(rows), -1)
        grads.append(rows.T @ g_current)
        if i:  # by the layer below's spikes, over them: this layer's input is spent
            g = np.matmul(g_current, params[i].T, out=rows).reshape(x.shape)
    return grads[::-1]
