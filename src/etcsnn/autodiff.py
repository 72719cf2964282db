"""Reverse-mode automatic differentiation over dense float64 arrays.

The tape is eager: every operation computes its value at construction time
and records its parent nodes plus a backward rule, so building an
expression *is* the forward pass.  ``Tensor.backward()`` then walks the
recorded nodes once in reverse creation order -- a reverse topological
order that is fixed by construction -- which makes gradient accumulation
happen in a deterministic order, so repeated runs are bitwise identical.

Scope is deliberately narrow: float64 only, no broadcasting (elementwise
operands must match shapes exactly), matmul on rank-2 operands, softmax on
the last axis of rank-1 to rank-3 values, and ``time_mean`` to average a
(batch, T, classes) stack over its time axis.  Every node's value is
checked to be finite at creation, so a NaN or overflow fails loudly at the
op that produced it instead of surfacing later as a corrupted update.

``stop_gradient`` blocks all flow along an edge; ``custom_grad`` attaches
a caller-supplied elementwise pseudo-derivative, which is how the spike
nonlinearity gets a usable backward rule.  Callers may also build a node
directly from a value, its parents and a backward rule; ``etcsnn.snn``
does so for its fused multi-step layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "CustomGradSpec",
    "ShapeMismatchError",
    "NonFiniteError",
    "GraphError",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "sum_all",
    "mean_all",
    "time_mean",
    "log",
    "exp",
    "temp_softmax",
    "log_softmax",
    "stop_gradient",
    "custom_grad",
]


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the attempted operation."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf (or a leaf was built from one)."""


class GraphError(RuntimeError):
    """backward() was asked to do something the graph cannot support."""


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

    # Operator sugar: numbers scale, tensors combine elementwise.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    def __rmul__(self, other) -> "Tensor":
        return scale(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

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


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def rule(g):
        a.grad += g / n

    return Tensor(a.data.mean(), "mean", (a,), rule)


def time_mean(a: Tensor) -> Tensor:
    """Average a (batch, T, classes) stack over T, giving (batch, classes)."""
    if a.data.ndim != 3 or a.shape[1] < 1:
        raise ShapeMismatchError(f"time-mean: needs (batch, T>=1, classes), got {a.shape}")
    c = 1.0 / a.shape[1]

    def rule(g):
        a.grad += (c * g)[:, None, :]

    return Tensor(a.data.sum(axis=1) * c, "time-mean", (a,), rule)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.log(a.data)

    def rule(g):
        a.grad += g / a.data

    return Tensor(value, "log", (a,), rule)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        value = np.exp(a.data)

    def rule(g):
        a.grad += value * g

    return Tensor(value, "exp", (a,), rule)


def _check_softmax_operand(a: Tensor, tau: float, op: str) -> None:
    if not tau > 0:
        raise ValueError(f"{op}: tau must be positive, got {tau}")
    if a.data.ndim not in (1, 2, 3):
        raise ShapeMismatchError(f"{op}: needs rank-1 to rank-3 input, got {a.shape}")


def temp_softmax(a: Tensor, tau: float = 1.0) -> Tensor:
    """Tempered softmax over the last axis, with max-subtraction for stability."""
    _check_softmax_operand(a, tau, "softmax-temp")
    z = a.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        inner = np.sum(g * p, axis=-1, keepdims=True)
        a.grad += (p * (g - inner)) / tau

    return Tensor(p, "softmax-temp", (a,), rule)


def log_softmax(a: Tensor, tau: float = 1.0) -> Tensor:
    """log of the tempered softmax, computed directly from the logits.

    Going through the logits instead of ``log(temp_softmax(...))`` keeps
    tiny probabilities from rounding to zero before the log sees them.
    """
    _check_softmax_operand(a, tau, "log-softmax-temp")
    z = a.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(ls)

    def rule(g):
        a.grad += (g - p * g.sum(axis=-1, keepdims=True)) / tau

    return Tensor(ls, "log-softmax-temp", (a,), rule)


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
