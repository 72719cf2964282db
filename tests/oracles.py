"""Independent reference computations the suite checks the library against.

Everything in here is deliberately written in the dumbest way that could
possibly be right: python loops, math.log/math.exp per scalar, central
finite differences.  No imports from the package under test.
"""

from __future__ import annotations

import math

import numpy as np


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def norm_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max abs difference scaled by the larger of the two max-norms."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.max(np.abs(got), initial=0.0), np.max(np.abs(want), initial=0.0), 1e-300)
    return float(np.max(np.abs(got - want), initial=0.0) / denom)


def softmax_row(z, tau: float = 1.0) -> list[float]:
    """Scalar-loop tempered softmax of one row."""
    scaled = [v / tau for v in z]
    m = max(scaled)
    e = [math.exp(v - m) for v in scaled]
    s = sum(e)
    return [v / s for v in e]


def ce_mean_reference(values: np.ndarray, onehot: np.ndarray) -> float:
    """Cross-entropy of softmax(mean-over-time potentials), batch mean."""
    batch, steps, _ = values.shape
    total = 0.0
    for b in range(batch):
        mean_row = [sum(values[b, t, i] for t in range(steps)) / steps for i in range(values.shape[2])]
        probs = softmax_row(mean_row)
        for i, y in enumerate(onehot[b]):
            if y:
                total += -math.log(probs[i])
    return total / batch


def etc_loss_reference(values: np.ndarray, tau: float) -> float:
    """Brute-force pairwise consistency loss: triple loop, scalar math."""
    batch, steps, classes = values.shape
    total = 0.0
    for b in range(batch):
        probs = [softmax_row(values[b, t], tau) for t in range(steps)]
        for t in range(steps):
            for m in range(steps):
                if m == t:
                    continue
                for i in range(classes):
                    total += -probs[m][i] * math.log(probs[t][i])
    return total / (batch * steps * (steps - 1))


def kl_metric_reference(values: np.ndarray, tau: float) -> float:
    """Brute-force mean pairwise KL(P_m || P_t) over ordered pairs and batch."""
    batch, steps, classes = values.shape
    total = 0.0
    for b in range(batch):
        probs = [softmax_row(values[b, t], tau) for t in range(steps)]
        for t in range(steps):
            for m in range(steps):
                if m == t:
                    continue
                for i in range(classes):
                    total += probs[m][i] * (math.log(probs[m][i]) - math.log(probs[t][i]))
    return total / (batch * steps * (steps - 1))


def mean_entropy_reference(values: np.ndarray, tau: float) -> float:
    """Mean entropy of the tempered per-timestep distributions."""
    batch, steps, classes = values.shape
    total = 0.0
    for b in range(batch):
        for t in range(steps):
            probs = softmax_row(values[b, t], tau)
            total += -sum(p * math.log(p) for p in probs)
    return total / (batch * steps)


def random_loss_instance(rng: np.random.Generator):
    """A random (values, onehot) pair for loss/gradient checks."""
    batch = int(rng.integers(1, 5))
    steps = int(rng.integers(2, 7))
    classes = int(rng.integers(2, 6))
    values = rng.normal(scale=2.0, size=(batch, steps, classes))
    onehot = np.zeros((batch, classes))
    onehot[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
    return values, onehot


# -- the batch-major LIF kernels, frozen ---------------------------------------------
#
# The numpy network pass as it stood before its time loops went time-major
# and in place, kept verbatim apart from taking the neuron constants as
# plain floats.  The live kernels must match it bit for bit.


def _surrogate_frozen(v, v_th, a):
    dist = np.abs(v - v_th)
    return (a - a * a * np.minimum(dist, 2.0 / a)) * (dist <= 1.0 / a) + 0.0


def _drive_frozen(x, w, tau_m):
    batch, steps, fan_in = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        current = x.reshape(batch * steps, fan_in) @ w
        return current.reshape(batch, steps, -1) * (1.0 / tau_m)


def lif_unroll_frozen(weights, inputs, tau_m, v_th, v_reset):
    """``(values, cache)``: (batch, T, classes) output potentials and, per
    layer, its input, its (batch, T, width) charged potentials and spikes
    (None for the output layer)."""
    leak = 1.0 - 1.0 / tau_m
    x = np.asarray(inputs, dtype=np.float64)
    cache = []
    for w in weights[:-1]:
        drive = _drive_frozen(x, w, tau_m)
        charged = np.empty_like(drive)
        spikes = np.empty_like(drive)
        v = np.full(drive[:, 0].shape, v_reset)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(drive.shape[1]):
                c = charged[:, t] = v * leak + drive[:, t]
                s = spikes[:, t] = c >= v_th
                v = c * (1.0 - s)
                if v_reset != 0.0:
                    v = v + s * v_reset
        cache.append((x, charged, spikes))
        x = spikes
    cache.append((x, None, None))
    drive = _drive_frozen(x, weights[-1], tau_m)
    values = np.empty_like(drive)
    v = np.zeros_like(drive[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(drive.shape[1]):
            v = values[:, t] = v * leak + drive[:, t]
    return values, cache


def eval_forward_frozen(weights, inputs, steps, batch_size, tau_m, v_th, v_reset):
    """(N, steps, classes) potentials over the first ``steps`` slices of
    ``inputs``: the evaluation forward as it stood before whole batches were
    grouped, one ``lif_unroll_frozen`` call per ``batch_size`` samples."""
    x = inputs[:, :steps]
    return np.concatenate([
        lif_unroll_frozen(weights, x[b : b + batch_size], tau_m, v_th, v_reset)[0]
        for b in range(0, len(x), batch_size)
    ])


def lif_backward_frozen(weights, cache, dv, tau_m, v_th, surrogate_a):
    """Every weight's gradient from ``dv`` and a ``lif_unroll_frozen`` cache."""
    leak = 1.0 - 1.0 / tau_m
    grads = []
    g = dv
    for i in reversed(range(len(weights))):
        x, charged, spikes = cache[i]
        batch, steps, fan_in = x.shape
        if spikes is None:
            direct, keep = g, None
        else:
            direct, keep = _surrogate_frozen(charged, v_th, surrogate_a) * g, 1.0 - spikes
        g_charged = np.empty_like(direct)
        carry = np.zeros_like(direct[:, 0])
        for t in reversed(range(steps)):
            gc = direct[:, t] + (carry if keep is None else carry * keep[:, t])
            g_charged[:, t] = gc
            carry = leak * gc
        g_current = (g_charged * (1.0 / tau_m)).reshape(batch * steps, -1)
        grads.append(x.reshape(batch * steps, fan_in).T @ g_current)
        if i:
            g = (g_current @ weights[i].T).reshape(x.shape)
    return grads[::-1]


# -- the per-budget evaluation, frozen ---------------------------------------------
#
# Budget accuracies and the distribution dump's rows as they stood before
# every budget came from one cumulative sum and every argmax from one call,
# kept verbatim apart from their names.  The live code must match them
# exactly: the same accuracies in the same key order, the same CSV bytes.


def _prefix_accuracy_frozen(values, labels, k):
    mean_k = values[:, :k, :].sum(axis=1) / k
    pred = np.argmax(mean_k, axis=1)  # ties -> lowest class index
    return float(np.mean(pred == labels))


def budget_accuracies_frozen(values, labels, budgets):
    """Accuracy at each budget ``k``, keyed ``str(k)``, one pass per budget."""
    return {str(k): _prefix_accuracy_frozen(values, labels, k) for k in budgets}


def distribution_csv_frozen(labels, probs, mean_probs):
    """The distribution CSV text of per-step softmax rows ``probs`` (N, T, C)
    and mean rows ``mean_probs`` (N, C), one ``max``/``index`` per row."""
    lines = ["sample_id,label,t,argmax," + ",".join(f"p_{c}" for c in range(probs.shape[2]))]
    rows = zip(labels.tolist(), probs.tolist(), mean_probs.tolist())
    for i, (label, steps, mean) in enumerate(rows):
        for t, row in [*enumerate(steps, start=1), ("mean", mean)]:
            # index of the first maximum, as np.argmax: ties go to the lowest class
            lines.append(f"{i},{label},{t},{row.index(max(row))}," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


# -- the per-layer AdamW update, frozen -------------------------------------------
#
# The update as first written, a fresh temporary per op, kept verbatim apart
# from taking the moments and the hyper-parameters as plain arguments.  The
# live update, which runs the same ops in place, must match it bit for bit,
# in the weights and in both moments.


def adamw_step_frozen(params, grads, m, v, step, lr_now, *, weight_decay, beta1, beta2, eps):
    """``(new_params, m, v)`` after update number ``step`` (1-based): fresh
    arrays, one weight at a time; the inputs are never written to."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    out, m_new, v_new = [], [], []
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i = beta1 * m_i + (1.0 - beta1) * g
        v_i = beta2 * v_i + (1.0 - beta2) * (g * g)
        m_hat = m_i / bc1
        v_hat = v_i / bc2
        out.append(p - lr_now * (m_hat / (np.sqrt(v_hat) + eps)) - lr_now * weight_decay * p)
        m_new.append(m_i)
        v_new.append(v_i)
    return out, m_new, v_new
