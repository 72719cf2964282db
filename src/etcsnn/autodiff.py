"""The gradient oracles, and the reverse-mode tape that the LIF one runs on.

The tape is eager: every operation computes its value at construction time
and records its parent nodes plus a backward rule, so building an
expression *is* the forward pass.  ``Tensor.backward()`` then walks the
recorded nodes once in reverse creation order -- a reverse topological
order that is fixed by construction -- which makes gradient accumulation
happen in a deterministic order, so repeated runs are bitwise identical.

Scope is deliberately narrow: float64 only, no broadcasting (elementwise
operands must match shapes exactly) and matmul on rank-2 operands.  Every
node's value is checked to be finite at creation, so a NaN or overflow
fails loudly at the op that produced it instead of surfacing later as a
corrupted update.

``stop_gradient`` blocks all flow along an edge; ``custom_grad`` attaches
a caller-supplied elementwise pseudo-derivative, which is how the spike
nonlinearity gets a usable backward rule.

This is the one oracle module.  Training does not run on the tape:
``etcsnn.snn`` and ``etcsnn.losses`` compute the network pass and the
objective in plain numpy and never import this module.  Here the tape
builds the same network one op per node (``lif_step``, chained over the
steps by ``lif_unroll_reference``), and ``gradcheck_lif`` holds the numpy
pass to it.  The losses have no tape form: ``complex_loss`` is their value
written from the formulas in complex-safe numpy, and ``gradcheck_complex_step``
holds ``objective``'s gradient to its complex step,

    d total / d v_i = Im total(v + i h e_i) / h,  h = 1e-30,

which has no subtractive cancellation, so it is exact to rounding (Squire
and Trapp, SIAM Review 1998; Martins, Sturdza and Alonso, ACM TOMS 2003).
The other loss oracles hold the engine's own gradients to closed forms
(and central finite differences): per step, ``(P_mean - y) / (T * batch)``
for mean-CE, ``(P_t - y) / (T * batch)`` for per-timestep CE, and for the
weighted consistency term ``lam * tau**2 * etc``

    lam * tau / (T * (T-1) * batch) * sum_{m != t} (P_t - P_m)

note the single power of tau: differentiating the tempered softmax
contributes a 1/tau that cancels one of the two in the weight.  A new loss
rule in the engine lands with its complex-safe form here, a new LIF rule
with its tape form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import losses  # objective and _consistency are read off the module, where tests swap them
from .losses import LOSS_MODES, EtcConfig, _log_softmax_np, _softmax_np
from .snn import (
    LifParams,
    NetworkSpec,
    NonFiniteError,
    lif_backward,
    lif_unroll,
    surrogate_factor,
)


class GraphError(RuntimeError):
    """backward() was asked to do something the graph cannot support."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the attempted operation."""


_node_ids = itertools.count()


class Tensor:
    """One node of the computation graph.

    Holds a float64 value, the parents it was computed from, the op kind,
    and the gradient accumulator that ``backward()`` fills with
    d(root)/d(this node), always shaped like ``data``.
    """

    __slots__ = ("data", "grad", "op", "parents", "_rule", "_node_id")

    def __init__(self, data, op: str = "leaf", parents: tuple = (), rule=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"non-finite values in '{op}' node")
        self.data = arr
        self.op = op
        self.parents = parents
        self._rule = rule
        self.grad = None
        self._node_id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def backward(self) -> dict["Tensor", np.ndarray]:
        """Populate ``grad`` on every node reachable from this scalar root.

        Gradients of reachable nodes are reset to zero first, so calling
        backward a second time (or after another root touched the same
        subgraph) gives the same answer.  Returns a map from reachable
        leaf nodes to their gradient arrays for convenience; the same
        arrays stay available as ``node.grad``.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar root, got shape {self.shape}")
        nodes = self._reachable()
        for node in nodes:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        # Reverse creation order is a reverse topological order: every op's
        # parents exist before the op itself.  Sorting on the id makes the
        # visit order independent of hash seeds and dict internals.
        for node in sorted(nodes, key=lambda n: n._node_id, reverse=True):
            if node._rule is not None:
                node._rule(node.grad)
        return {node: node.grad for node in nodes if node.op == "leaf"}

    def _reachable(self) -> list["Tensor"]:
        seen = {self._node_id: self}
        stack = [self]
        while stack:
            for parent in stack.pop().parents:
                if parent._node_id not in seen:
                    seen[parent._node_id] = parent
                    stack.append(parent)
        return list(seen.values())

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def rule(g):
        a.grad += g
        b.grad += g

    return Tensor(a.data + b.data, "add", (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def rule(g):
        a.grad += g
        b.grad -= g

    return Tensor(a.data - b.data, "sub", (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; operands must match shapes exactly."""
    _check_same_shape(a, b, "mul")

    def rule(g):
        a.grad += b.data * g
        b.grad += a.data * g

    return Tensor(a.data * b.data, "mul", (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (no gradient w.r.t. ``c``)."""
    c = float(c)

    def rule(g):
        a.grad += c * g

    return Tensor(a.data * c, "scale", (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(
            f"matmul: needs rank-2 operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def rule(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return Tensor(a.data @ b.data, "matmul", (a, b), rule)


def sum_all(a: Tensor) -> Tensor:
    """Sum every entry down to a scalar."""

    def rule(g):
        a.grad += g

    return Tensor(a.data.sum(), "sum", (a,), rule)


def stop_gradient(a: Tensor) -> Tensor:
    """Forward identity that blocks all gradient flow into ``a``.

    Downstream gradients arriving at this node are discarded; gradients
    reaching ``a`` along other paths are untouched.
    """
    return Tensor(a.data, "stop-gradient", (a,), None)


@dataclass(frozen=True)
class CustomGradSpec:
    """An elementwise forward paired with an elementwise pseudo-derivative.

    ``backward`` is evaluated at the forward *input* and must return an
    array of the same shape; it stands in for the true derivative during
    the backward pass.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    backward: Callable[[np.ndarray], np.ndarray]


def custom_grad(a: Tensor, spec: CustomGradSpec, name: str = "custom") -> Tensor:
    value = np.asarray(spec.forward(a.data), dtype=np.float64)
    if value.shape != a.shape:
        raise ShapeMismatchError(f"{name}: forward changed shape {a.shape} -> {value.shape}")

    def rule(g):
        pseudo = np.asarray(spec.backward(a.data), dtype=np.float64)
        if pseudo.shape != a.shape:
            raise ShapeMismatchError(
                f"{name}: pseudo-derivative shape {pseudo.shape} != input shape {a.shape}"
            )
        a.grad += pseudo * g

    return Tensor(value, name, (a,), rule)


# -- the per-op LIF network -------------------------------------------------------


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


def lif_unroll_reference(
    spec: NetworkSpec,
    weights: Sequence[Tensor],
    inputs: Sequence[Tensor],
    spike: Callable[[Tensor], Tensor] | None = None,
) -> list[Tensor]:
    """``snn.lif_unroll`` built one op per node from ``lif_step``.

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


# -- the complex-safe losses ------------------------------------------------------


def _log_softmax_complex(z: np.ndarray) -> np.ndarray:
    """log-softmax over the last axis of real or complex ``z``; the shift
    is the real part's maximum, so it moves a row by one real number."""
    z = z - z.real.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def complex_loss(values: np.ndarray, labels: np.ndarray, loss_mode: str, cfg: EtcConfig):
    """``(total, ce, etc)`` of the (..., batch, T, classes) potentials
    ``values``, real or complex, against one-hot (batch, classes) ``labels``:
    one value per leading index, written from the loss formulas

        ce_mean = -1/B sum_b y_b . log softmax(mean_t v_bt)
        ce_step = -1/(B T) sum_{b,t} y_b . log softmax(v_bt)
        etc     = -1/(B T (T-1)) sum_b sum_{t != m} P_bm . log softmax(v_bt / tau)
        total   = ce + lam tau^2 etc

    where P_bm = softmax(v_bm / tau) is a frozen target: it is taken from the
    real part, so no derivative flows through it.  ``ce`` is ce_step in mode
    ``per_timestep_ce``, else ce_mean; ``etc`` is on in mode ``ce_plus_etc``
    with lam != 0 and T >= 2, and 0 otherwise.
    """
    batch, steps, _ = values.shape[-3:]
    if loss_mode == "per_timestep_ce":
        logp = _log_softmax_complex(values)
        ce = -(labels[:, None] * logp).sum(axis=(-3, -2, -1)) / (batch * steps)
        return ce, ce, 0.0 * ce
    ce = -(labels * _log_softmax_complex(values.mean(axis=-2))).sum(axis=(-2, -1)) / batch
    if loss_mode == "ce_only" or cfg.lam == 0.0 or steps < 2:
        return ce, ce, 0.0 * ce
    logp = _log_softmax_complex(values / cfg.tau)
    targets = np.exp(logp.real)
    others = targets.sum(axis=-2, keepdims=True) - targets  # sum over m != t of P_m
    etc = -(others * logp).sum(axis=(-3, -2, -1)) / (batch * steps * (steps - 1))
    return ce + cfg.lam * cfg.tau**2 * etc, ce, etc


# -- gradient oracles -------------------------------------------------------------


def _norm_rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-300) -> float:
    denom = max(float(np.max(np.abs(got))), float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want)) / denom)


@dataclass(frozen=True)
class GradCheckReport:
    """One oracle's worst relative error over ``cases`` instances, its
    tolerance, and whether it passed that oracle's rule (``<`` for the
    closed forms and finite differences, ``<=`` for the complex step and
    the LIF pass against the tape)."""

    name: str
    max_rel_err: float
    tol: float
    passed: bool
    cases: int = 1
    fd: bool = False  # against central finite differences, not a closed form
    band_fraction: float | None = None  # lif: share of hidden potentials in the surrogate band

    def line(self) -> str:
        pre = "fd_" if self.fd else ""
        return f"{self.name} {pre}max_rel_err={self.max_rel_err:.3e} {pre}tol={self.tol:.0e}"


def _check_cases(cases: int) -> None:
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")


def gradcheck_ce(values: np.ndarray, labels, tol: float = 1e-10) -> GradCheckReport:
    """``objective``'s mean-CE gradient vs the closed form (P_mean - y)/(T*batch),
    which is identical at every timestep."""
    dv = losses.objective(values, labels, "ce_only", EtcConfig())[0]
    batch, steps, _ = values.shape
    expected = (_softmax_np(values.mean(axis=1)) - labels) / (steps * batch)
    err = max(_norm_rel_err(dv[:, t], expected) for t in range(steps))
    return GradCheckReport("ce_mean", err, tol, passed=err < tol)


def gradcheck_per_timestep_ce(values: np.ndarray, labels, tol: float = 1e-10) -> GradCheckReport:
    """``objective``'s per-timestep CE gradient vs the closed form
    (P_t - y)/(T*batch), with P_t the temperature-1 softmax of step t."""
    dv = losses.objective(values, labels, "per_timestep_ce", EtcConfig())[0]
    batch, steps, _ = values.shape
    err = _norm_rel_err(dv, (_softmax_np(values) - labels[:, None]) / (steps * batch))
    return GradCheckReport("per_timestep_ce", err, tol, passed=err < tol)


_FD_STEP = 1e-6  # the central-difference step of the consistency FD probe


def gradcheck_etc(
    values: np.ndarray, cfg: EtcConfig, tol: float = 1e-10, fd_tol: float = 1e-5
) -> list[GradCheckReport]:
    """The engine's gradient of lam*tau^2*etc, the consistency part of
    ``objective``'s ``dv``, vs closed form and central FD.

    Closed form per step t:  lam*tau/(T*(T-1)*batch) * sum_{m != t}(P_t - P_m),
    with P at temperature tau.  The FD probe must see the function the engine
    differentiates, so the target distributions stay pinned at the
    unperturbed values instead of being recomputed per probe.  Returns the
    closed-form report, then the FD one.
    """
    weight = cfg.lam * cfg.tau**2
    grad = losses._consistency(values, cfg.tau, weight)[1]
    batch, steps, _ = values.shape
    p = _softmax_np(values / cfg.tau)
    coeff = cfg.lam * cfg.tau / (steps * (steps - 1) * batch)
    # sum_{m != t}(P_t - P_m) == T * P_t - sum_m P_m
    expected = coeff * (steps * p - p.sum(axis=1, keepdims=True))
    err = max(_norm_rel_err(grad[:, t], expected[:, t]) for t in range(steps))
    closed = GradCheckReport("consistency", err, tol, passed=err < tol)

    frozen_others = p.sum(axis=1, keepdims=True) - p
    denom = batch * steps * (steps - 1)

    def probe(vals: np.ndarray) -> float:
        logp = _log_softmax_np(vals / cfg.tau)
        return -weight * float((frozen_others * logp).sum()) / denom

    values = values.copy()  # the probes below perturb it in place
    fd = np.zeros_like(values)
    for i in np.ndindex(values.shape):
        orig = values[i]
        values[i] = orig + _FD_STEP
        hi = probe(values)
        values[i] = orig - _FD_STEP
        lo = probe(values)
        values[i] = orig
        fd[i] = (hi - lo) / (2.0 * _FD_STEP)
    fd_err = _norm_rel_err(grad, fd)
    fd_report = GradCheckReport("consistency", fd_err, fd_tol, passed=fd_err < fd_tol, fd=True)
    return [closed, fd_report]


_CS_STEP = 1e-30  # the complex step: its square vanishes beside any real part
_CS_TOL = 1e-12


def gradcheck_complex_step(values: np.ndarray, labels, cfg: EtcConfig) -> GradCheckReport:
    """``objective``'s ``dv`` vs the complex step of ``complex_loss``, and its
    logged total, ce and etc vs the complex loss's real part, in every loss
    mode.  Each entry of ``values`` is one case; its perturbation is one
    slice of one stacked evaluation.

    Both sides round ``P - y`` and log-sum-exp, whose errors are absolute:
    about eps times the largest term summed into a ``dv`` entry,
    (1 + lam*tau) / (batch*T) at most, and eps for a loss.  So the errors are
    relative to at least those scales, or a confident prediction, whose
    ``dv`` and loss vanish, would fail on rounding alone.
    """
    n = values.size
    _check_cases(n)
    batch, steps, _ = values.shape
    probes = (values.reshape(1, n) + 1j * _CS_STEP * np.eye(n)).reshape(n, *values.shape)
    err = 0.0
    for mode in LOSS_MODES:
        dv, *logged = losses.objective(values, labels, mode, cfg)
        total, ce, etc = complex_loss(probes, labels, mode, cfg)
        want = [total[0].real, ce[0].real, etc[0].real]
        dv_scale = (1.0 + (cfg.lam * cfg.tau if mode == "ce_plus_etc" else 0.0)) / (batch * steps)
        err = max(
            err,
            _norm_rel_err(dv, total.imag.reshape(values.shape) / _CS_STEP, dv_scale),
            _norm_rel_err(np.array(logged), np.array(want), 1.0),
        )
    return GradCheckReport("complex_step", err, _CS_TOL, passed=err <= _CS_TOL)


def _worst(reports: Sequence[GradCheckReport]) -> GradCheckReport:
    """One oracle's reports over many cases folded into one."""
    worst = max(reports, key=lambda r: r.max_rel_err)
    return replace(worst, passed=all(r.passed for r in reports), cases=len(reports))


def gradcheck_suite(seed: int = 0, cases: int = 100) -> list[GradCheckReport]:
    """The loss oracles on ``cases`` freshly sampled instances: the engine's
    gradients against their closed forms and central FD, and ``objective``
    against the complex step in every loss mode.  One report per oracle."""
    _check_cases(cases)
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(cases):
        batch = int(rng.integers(1, 5))
        steps = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 6))
        values = rng.normal(scale=2.0, size=(batch, steps, classes))
        labels = np.zeros((batch, classes))
        labels[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
        cfg = EtcConfig(tau=float(rng.uniform(0.5, 8.0)), lam=float(rng.uniform(0.1, 4.0)))
        runs.append([
            gradcheck_ce(values, labels),
            *gradcheck_etc(values, cfg),
            gradcheck_per_timestep_ce(values, labels),
            gradcheck_complex_step(values, labels, cfg),
        ])
    return [_worst(column) for column in zip(*runs)]


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


def gradcheck_lif(seed: int = 0, cases: int = 100, tol: float = 1e-12) -> GradCheckReport:
    """``snn.lif_unroll``/``snn.lif_backward`` vs ``lif_unroll_reference`` on
    random networks.

    Each case draws 1-3 hidden layers, T in {1, 2, 10}, a zero or nonzero
    reset potential and a membrane time constant, then compares the output
    potentials and every weight gradient of a random linear readout of the
    outputs, which is the ``dv`` handed to ``lif_backward``.
    """
    _check_cases(cases)
    rng = np.random.default_rng(seed)
    worst, in_band, count = 0.0, 0, 0
    for _ in range(cases):
        spec, w_vals, inputs, readout = _random_lif_case(rng)

        values, cache = lif_unroll(spec.lif, w_vals, inputs)
        for _, charged, _ in cache[:-1]:  # before the backward, which consumes the cache
            in_band += np.count_nonzero(surrogate_factor(charged, spec.lif))
            count += charged.size
        grads = lif_backward(spec.lif, w_vals, cache, readout)

        ref_weights = [Tensor(w) for w in w_vals]
        ref_x = [Tensor(inputs[:, t]) for t in range(spec.timesteps)]
        ref_out = lif_unroll_reference(spec, ref_weights, ref_x)
        total = sum_all(mul(Tensor(readout[:, 0]), ref_out[0]))
        for t in range(1, spec.timesteps):
            total = add(total, sum_all(mul(Tensor(readout[:, t]), ref_out[t])))
        total.backward()

        pairs = [(values, np.stack([v.data for v in ref_out], axis=1))]
        pairs += [(g, r.grad) for g, r in zip(grads, ref_weights)]
        worst = max([worst] + [_norm_rel_err(got, want) for got, want in pairs])
    return GradCheckReport(
        "lif",
        worst,
        tol,
        passed=worst <= tol,
        cases=cases,
        band_fraction=float(in_band / count),
    )
