"""In-memory span tracing for the benchmark's traced run.

The wrappers are installed by rebinding the public names that
``etcsnn.train`` and ``etcsnn.cli`` call through, plus ``Tensor.backward``.
The package's own code runs unchanged: ``train()`` looks those names up in
its module globals at call time and so reaches the wrappers.

A span records its name, layer (the ``etcsnn`` module that defines the
function), start, end, parent span and the time its child spans cover, so
its self time is ``duration - child_time``.  Spans stay in memory until the
run ends; ``summarize`` then turns them into the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Public names the training loop and the CLI call through.  ``run_cli`` is
# the benchmark's own entry into the CLI, ``synth_generate`` the data layer
# under ``load_dataset``.
TRACED_NAMES = (
    "train",
    "run_cli",
    "load_dataset",
    "synth_generate",
    "save_checkpoint",
    "load_checkpoint",
    "eval_per_timestep",
    "consistency_report",
    "dump_distributions",
    "lif_unroll",
    "ce_mean_loss",
    "etc_loss",
    "kl_metric_values",
    "adamw_step",
    "cosine_lr",
)

LAYERS = ("autodiff", "snn", "losses", "optim", "data", "train", "cli")


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index into Tracer.spans; -1 for a span the benchmark opened
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, layer, fn, before=None, after=None):
        """``fn`` inside a span; ``before(span, args)`` runs outside the
        timed interval, ``after(span, result)`` once it has closed."""

        def traced(*args, **kwargs):
            span = Span(name, layer, self._open[-1] if self._open else -1)
            if before is not None:
                before(span, args)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_time += span.duration
            if after is not None:
                after(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path, origin: float) -> None:
        """One line per span, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                    "self": s.self_time, "error": s.error, **s.attrs,
                }) + "\n")


def _count_nodes(span: Span, args) -> None:
    """Tape nodes reachable from the backward root through ``.parents``."""
    seen = {id(args[0])}
    stack = [args[0]]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    span.attrs["nodes"] = len(seen)


def _count_samples(span: Span, result) -> None:
    span.attrs["samples"] = sum(len(split) for split in result)


def _note_command(span: Span, args) -> None:
    span.attrs["command"] = args[0][0]


def _flag_exit_code(span: Span, code) -> None:
    span.error = code != 0


_HOOKS = {
    "synth_generate": (None, _count_samples),
    "run_cli": (_note_command, _flag_exit_code),
}


def install(tracer: Tracer, modules, tensor_cls) -> None:
    """Rebind every traced name found in ``modules`` to one shared wrapper."""
    wrappers = {}
    for module in modules:
        for name in TRACED_NAMES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            if fn not in wrappers:
                layer = fn.__module__.rpartition(".")[2]
                wrappers[fn] = tracer.wrap(name, layer, fn, *_HOOKS.get(name, (None, None)))
            setattr(module, name, wrappers[fn])
    tensor_cls.backward = tracer.wrap(
        "Tensor.backward", "autodiff", tensor_cls.backward, before=_count_nodes
    )


# -- per-layer metrics -------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p95(values) -> float:
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=20, method="inclusive")[-1])


def _training_steps(spans, children):
    """Split each ``train`` span's children into optimizer steps and
    per-epoch evaluations.

    A step is an unroll followed by a loss (or a backward) and runs through
    the next ``adamw_step``; any other run of unrolls is the epoch's test
    evaluation, which ends with its ``kl_metric_values``.
    """
    steps, epoch_evals = [], []
    for top in children[-1]:
        if spans[top].name != "train":
            continue
        kids = [spans[i] for i in children[top]]
        i = 0
        while i < len(kids):
            first = kids[i]
            following = kids[i + 1].name if i + 1 < len(kids) else ""
            if first.name != "lif_unroll":
                i += 1
            elif following in ("ce_mean_loss", "etc_loss", "Tensor.backward"):
                j = i
                while j + 1 < len(kids) and kids[j].name != "adamw_step":
                    j += 1
                block = kids[i : j + 1]
                nodes = [s.attrs["nodes"] for s in block if s.name == "Tensor.backward"]
                steps.append({
                    "ms": (kids[j].end - first.start) * 1e3,
                    "unroll": sum(s.duration for s in block if s.name == "lif_unroll"),
                    "ce": sum(s.duration for s in block if s.name == "ce_mean_loss"),
                    "etc": sum(s.duration for s in block if s.name == "etc_loss"),
                    "backward": sum(s.self_time for s in block if s.name == "Tensor.backward"),
                    "adamw": sum(s.duration for s in block if s.name == "adamw_step"),
                    "nodes": nodes[0] if nodes else 0,
                })
                i = j + 1
            else:
                j = i
                while j + 1 < len(kids) and kids[j + 1].name == "lif_unroll":
                    j += 1
                if j + 1 < len(kids) and kids[j + 1].name == "kl_metric_values":
                    j += 1
                epoch_evals.append((kids[j].end - first.start) * 1e3)
                i = j + 1
    return steps, epoch_evals


def summarize(spans: list[Span], window_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``window_s`` is the traced wall time; the share of it that no span below
    the benchmark's own ``train``/``run_cli`` spans covers is reported as
    ``trace.uncovered_share``.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)

    def descendants(i):
        for c in children[i]:
            yield spans[c]
            yield from descendants(c)

    def durations(name, scale=1e3):
        return [s.duration * scale for s in spans if s.name == name]

    steps, epoch_evals = _training_steps(spans, children)

    def per_step(key):
        return _median([st[key] * 1e3 for st in steps])

    sweeps = []
    commands = []
    for i in children[-1]:
        s = spans[i]
        if s.name != "run_cli":
            continue
        commands.append(s.self_time * 1e3)
        if s.attrs.get("command") == "eval":
            below = list(descendants(i))
            unrolls = [d.duration for d in below if d.name == "lif_unroll"]
            evals = [d.duration for d in below if d.name == "eval_per_timestep"]
            sweeps.append((sum(unrolls) * 1e3, len(unrolls), sum(evals) * 1e3))

    top_level = [spans[i] for i in children[-1]]
    generated = sum(s.attrs.get("samples", 0) for s in spans if s.name == "synth_generate")
    covered = sum(s.duration - s.self_time for s in top_level)

    errors = dict.fromkeys(LAYERS, 0)
    for i, s in enumerate(spans):
        # count a failure once, in the innermost span that saw it
        if s.error and not any(spans[c].error for c in children[i]):
            errors[s.layer] = errors.get(s.layer, 0) + 1

    metrics = {
        "autodiff.nodes_per_step": (_median([st["nodes"] for st in steps]), "count"),
        "autodiff.backward_ms": (per_step("backward"), "ms"),
        "snn.train_unroll_ms": (per_step("unroll"), "ms"),
        "snn.eval_unroll_ms": (_median([sw[0] for sw in sweeps]), "ms"),
        "snn.eval_unroll_calls": (_median([sw[1] for sw in sweeps]), "count"),
        "losses.ce_ms": (per_step("ce"), "ms"),
        "losses.etc_ms": (per_step("etc"), "ms"),
        "losses.kl_metric_ms": (_median(durations("kl_metric_values")), "ms"),
        "optim.adamw_ms": (per_step("adamw"), "ms"),
        "data.synth_generate_s": (_median(durations("synth_generate", 1.0)), "s"),
        "data.samples_generated": (generated / max(len(top_level), 1), "count"),
        "train.steps": (len(steps), "count"),
        "train.step_ms.p50": (_median([st["ms"] for st in steps]), "ms"),
        "train.step_ms.p95": (_p95([st["ms"] for st in steps]), "ms"),
        "train.epoch_eval_ms": (_median(epoch_evals), "ms"),
        "train.eval_per_timestep_ms": (_median([sw[2] for sw in sweeps]), "ms"),
        "train.consistency_report_ms": (_median(durations("consistency_report")), "ms"),
        "train.dump_distributions_ms": (_median(durations("dump_distributions")), "ms"),
        "train.checkpoint_save_ms": (_median(durations("save_checkpoint")), "ms"),
        "train.checkpoint_load_ms": (_median(durations("load_checkpoint")), "ms"),
        "cli.overhead_ms": (_median(commands), "ms"),
        "trace.uncovered_share": ((window_s - covered) / window_s, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    return metrics
