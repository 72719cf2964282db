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

``lif_unroll`` puts one fused node per layer on the tape, each running all
T steps.  The layers are feedforward, so the input current of every step
comes from one (batch*T, fan_in) matmul; a numpy loop over the steps then
charges, fires and resets, and the node's backward runs BPTT in reverse
time by hand.  ``lif_step`` builds the same dynamics one op per node.
Chained over the steps by ``lif_unroll_reference`` it is the oracle that
``gradcheck_lif`` holds the fused nodes to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    CustomGradSpec,
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    add,
    custom_grad,
    matmul,
    mul,
    scale,
    stop_gradient,
    sub,
    sum_all,
)
from .losses import TimestepOutputs, _norm_rel_err

__all__ = [
    "LifParams",
    "LifState",
    "NetworkSpec",
    "surrogate_factor",
    "spike_fn",
    "lif_step",
    "lif_unroll",
    "lif_unroll_reference",
    "init_weights",
    "initial_state",
    "LifGradCheckReport",
    "gradcheck_lif",
]


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
    a = params.surrogate_a
    dist = np.abs(v - params.v_th)
    # Same values, bit for bit, as np.where(dist > 1/a, 0, a - a*a*dist),
    # but masked by a multiply: np.where branches on every element and is
    # several times slower on the random masks of a fused layer.  The
    # clamp keeps masked terms finite (inf * 0 would be NaN) and + 0.0
    # turns their -0.0 into 0.0.
    return (a - a * a * np.minimum(dist, 2.0 / a)) * (dist <= 1.0 / a) + 0.0


def spike_fn(v: Tensor, params: LifParams) -> Tensor:
    """Heaviside spike (1.0 where v >= v_th) with the triangular surrogate."""
    spec = CustomGradSpec(
        forward=lambda x: (x >= params.v_th).astype(np.float64),
        backward=lambda x: surrogate_factor(x, params),
    )
    return custom_grad(v, spec, name="spike")


@dataclass
class LifState:
    """Post-step layer state: stored potential and the spikes just emitted."""

    v: Tensor
    s: Tensor


def initial_state(batch: int, neurons: int, params: LifParams) -> LifState:
    v0 = Tensor(np.full((batch, neurons), params.v_reset))
    s0 = Tensor(np.zeros((batch, neurons)))
    return LifState(v=v0, s=s0)


def lif_step(
    state: LifState,
    input_current: Tensor,
    params: LifParams,
    spike: Callable[[Tensor], Tensor] | None = None,
) -> LifState:
    """Advance one timestep: charge, fire, hard-reset.

    ``spike`` overrides the nonlinearity (a test hook -- identity turns the
    layer into a plain leaky integrator).  With an override the reset is
    skipped, since the override's output need not be binary.
    """
    charged = add(scale(state.v, params.leak), scale(input_current, 1.0 / params.tau_m))
    if spike is not None:
        return LifState(v=charged, s=spike(charged))
    spiked = spike_fn(charged, params)
    # Hard reset: v -> v * (1 - s) + v_reset * s, with the spike factor
    # behind stop_gradient so the reset adds no second gradient path.
    keep = stop_gradient(sub(Tensor(np.ones_like(charged.data)), spiked))
    v_next = mul(charged, keep)
    if params.v_reset != 0.0:
        v_next = add(v_next, scale(stop_gradient(spiked), params.v_reset))
    return LifState(v=v_next, s=spiked)


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


def init_weights(spec: NetworkSpec, seed: int) -> list[Tensor]:
    """Uniform(+-sqrt(6/fan_in)) weights for each consecutive layer pair."""
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
    return weights


# -- fused multi-step layers ---------------------------------------------------


def _drive(x: np.ndarray, w: np.ndarray, params: LifParams) -> np.ndarray:
    """``(1/tau_m) * input current`` of every step: (batch, T, fan_out)."""
    batch, steps, fan_in = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        current = x.reshape(batch * steps, fan_in) @ w
        return current.reshape(batch, steps, -1) * (1.0 / params.tau_m)


def _charge_fire(drive: np.ndarray, params: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """Charged potentials and spikes of one LIF layer over all steps.

    Same arithmetic as ``lif_step``, starting from the reset potential.
    Raises NonFiniteError on an overflowed potential, which the 0/1 spikes
    would otherwise hide.
    """
    charged = np.empty_like(drive)
    spikes = np.empty_like(drive)
    v = np.full(drive[:, 0].shape, params.v_reset)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(drive.shape[1]):
            c = charged[:, t] = v * params.leak + drive[:, t]
            s = spikes[:, t] = c >= params.v_th
            v = c * (1.0 - s)
            if params.v_reset != 0.0:
                v = v + s * params.v_reset
    if not np.all(np.isfinite(charged)):
        raise NonFiniteError("non-finite membrane potentials in 'lif-layer' node")
    return charged, spikes


def _fused_layer(x: Tensor | np.ndarray, w: Tensor, params: LifParams, spiking: bool) -> Tensor:
    """One layer over all T steps as a single tape node.

    ``x`` is the (batch, T, fan_in) input: the spikes of the layer below,
    or the network input as a constant array (or as a tensor when its
    gradient is wanted).  A spiking layer's value is its spikes; the
    output integrator's value is its potentials, integrated from zero.
    """
    x_data = x.data if isinstance(x, Tensor) else x
    batch, steps, fan_in = x_data.shape
    leak = params.leak
    drive = _drive(x_data, w.data, params)
    if spiking:
        charged, value = _charge_fire(drive, params)
    else:
        value = np.empty_like(drive)
        v = np.zeros_like(drive[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):  # Tensor checks the value
            for t in range(steps):
                v = value[:, t] = v * leak + drive[:, t]

    def rule(g):
        # d(loss)/d(charged potential), latest step first; the stored
        # potential carries leak * that back into the step before, through
        # the (1 - s) reset factor of a spiking layer.
        if spiking:
            direct = surrogate_factor(charged, params) * g
            keep = 1.0 - value
        else:
            direct = g
        g_charged = np.empty_like(direct)
        carry = np.zeros_like(direct[:, 0])
        for t in reversed(range(steps)):
            gc = direct[:, t] + (carry * keep[:, t] if spiking else carry)
            g_charged[:, t] = gc
            carry = leak * gc
        g_current = (g_charged * (1.0 / params.tau_m)).reshape(batch * steps, -1)
        w.grad += x_data.reshape(batch * steps, fan_in).T @ g_current
        if isinstance(x, Tensor):
            x.grad += (g_current @ w.data.T).reshape(x_data.shape)

    parents = (x, w) if isinstance(x, Tensor) else (w,)
    return Tensor(value, "lif-layer" if spiking else "lif-integrator", parents, rule)


def _check_unroll_shapes(spec: NetworkSpec, weights: Sequence[Tensor], shape) -> None:
    if len(shape) != 3:
        raise ShapeMismatchError(f"inputs must be (batch, T, dim), got {shape}")
    _, steps, dim = shape
    if steps != spec.timesteps:
        raise ShapeMismatchError(f"inputs provide {steps} timesteps, spec wants {spec.timesteps}")
    if dim != spec.layer_sizes[0]:
        raise ShapeMismatchError(f"inputs have dim {dim}, spec wants {spec.layer_sizes[0]}")
    if len(weights) != len(spec.layer_sizes) - 1:
        raise ShapeMismatchError(
            f"got {len(weights)} weight matrices for {len(spec.layer_sizes)} layers"
        )
    for i, (w, fan_in, fan_out) in enumerate(
        zip(weights, spec.layer_sizes, spec.layer_sizes[1:])
    ):
        if w.shape != (fan_in, fan_out):
            raise ShapeMismatchError(
                f"weight {i} has shape {w.shape}, expected {(fan_in, fan_out)}"
            )


def lif_unroll(
    spec: NetworkSpec, weights: Sequence[Tensor], inputs: np.ndarray | Tensor
) -> TimestepOutputs:
    """Run the whole network over all timesteps, one tape node per layer.

    ``inputs`` is (batch, timesteps, input_dim) of per-step input currents:
    an array, or a tensor when the gradient with respect to the inputs is
    wanted.  Hidden layers start from the reset potential; the output
    layer leak-integrates its current from zero with no threshold, spike,
    or reset.  Returns the output layer's potential at every step.
    """
    if not isinstance(inputs, Tensor):
        inputs = np.asarray(inputs, dtype=np.float64)
    _check_unroll_shapes(spec, weights, inputs.shape)
    signal = inputs
    for w in weights[:-1]:
        signal = _fused_layer(signal, w, spec.lif, spiking=True)
    return TimestepOutputs(_fused_layer(signal, weights[-1], spec.lif, spiking=False))


# -- per-op reference and its gradient check ---------------------------------------


def lif_unroll_reference(
    spec: NetworkSpec,
    weights: Sequence[Tensor],
    inputs: Sequence[Tensor],
    spike: Callable[[Tensor], Tensor] | None = None,
) -> list[Tensor]:
    """``lif_unroll`` built one op per node from ``lif_step``.

    ``inputs`` holds one (batch, input_dim) tensor per timestep; returns
    the output layer's (batch, classes) potential at each step.  ``spike``
    overrides the hidden nonlinearity as in ``lif_step``.
    """
    lif = spec.lif
    batch = inputs[0].shape[0]
    states = [initial_state(batch, n, lif) for n in spec.layer_sizes[1:-1]]
    v_out = Tensor(np.zeros((batch, spec.classes)))
    outputs = []
    for signal in inputs:
        for i, state in enumerate(states):
            states[i] = lif_step(state, matmul(signal, weights[i]), lif, spike=spike)
            signal = states[i].s
        out_current = matmul(signal, weights[-1])
        v_out = add(scale(v_out, lif.leak), scale(out_current, 1.0 / lif.tau_m))
        outputs.append(v_out)
    return outputs


@dataclass(frozen=True)
class LifGradCheckReport:
    cases: int
    max_rel_err: float
    band_fraction: float  # share of all hidden charged potentials inside the surrogate band
    tol: float
    passed: bool


def _random_lif_case(rng: np.random.Generator):
    """Network, weights, inputs and a linear readout of the outputs."""
    hidden = [int(n) for n in rng.integers(2, 9, size=int(rng.integers(1, 4)))]
    sizes = (int(rng.integers(2, 7)), *hidden, int(rng.integers(2, 5)))
    lif = LifParams(
        tau_m=float(rng.choice([1.0, 1.5, 2.0, 4.0])),
        v_reset=float(rng.uniform(-0.3, 0.3)) if rng.random() < 0.5 else 0.0,
        surrogate_a=float(rng.uniform(1.0, 3.0)),
    )
    spec = NetworkSpec(sizes, timesteps=int(rng.choice([1, 2, 10])), lif=lif)
    # Positive-mean weights and inputs keep the charged potentials near
    # v_th, inside the surrogate band where gradients flow.
    weights = [
        rng.normal(0.5, 1.0, size=(fan_in, fan_out)) / math.sqrt(fan_in)
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ]
    batch = int(rng.integers(1, 5))
    inputs = rng.uniform(0.0, 2.0, size=(batch, spec.timesteps, sizes[0]))
    readout = rng.normal(size=(batch, spec.timesteps, spec.classes))
    return spec, weights, inputs, readout


def gradcheck_lif(seed: int = 0, cases: int = 100, tol: float = 1e-12) -> LifGradCheckReport:
    """Fused ``lif_unroll`` against ``lif_unroll_reference`` on random networks.

    Each case draws 1-3 hidden layers, T in {1, 2, 10}, a zero or nonzero
    reset potential and a membrane time constant, then compares the output
    potentials, every weight gradient and the input gradient of a random
    linear readout of the outputs.
    """
    rng = np.random.default_rng(seed)
    worst, in_band, count = 0.0, 0, 0
    for _ in range(cases):
        spec, w_vals, inputs, readout = _random_lif_case(rng)

        weights = [Tensor(w) for w in w_vals]
        x = Tensor(inputs)
        outs = lif_unroll(spec, weights, x)
        sum_all(mul(Tensor(readout), outs.v)).backward()

        ref_weights = [Tensor(w) for w in w_vals]
        ref_x = [Tensor(inputs[:, t]) for t in range(spec.timesteps)]
        ref_out = lif_unroll_reference(spec, ref_weights, ref_x)
        total = sum_all(mul(Tensor(readout[:, 0]), ref_out[0]))
        for t in range(1, spec.timesteps):
            total = add(total, sum_all(mul(Tensor(readout[:, t]), ref_out[t])))
        total.backward()

        pairs = [(outs.values(), np.stack([v.data for v in ref_out], axis=1))]
        pairs += [(w.grad, r.grad) for w, r in zip(weights, ref_weights)]
        pairs.append((x.grad, np.stack([r.grad for r in ref_x], axis=1)))
        worst = max([worst] + [_norm_rel_err(got, want) for got, want in pairs])

        signal = inputs
        for w in w_vals[:-1]:
            charged, signal = _charge_fire(_drive(signal, w, spec.lif), spec.lif)
            in_band += np.count_nonzero(surrogate_factor(charged, spec.lif))
            count += charged.size
    return LifGradCheckReport(
        cases=cases,
        max_rel_err=worst,
        band_fraction=float(in_band / max(count, 1)),
        tol=tol,
        passed=worst <= tol,
    )
