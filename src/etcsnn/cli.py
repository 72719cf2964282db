"""Command-line surface: dataset synthesis, training, evaluation, gradient
checking, and analysis dumps, all driven by flat ``key=value`` configs.

Exit codes: 0 success, 1 usage error (bad flags, bad config, missing or
unreadable inputs, a dataset that does not fit the checkpoint), 2 runtime
error (training blow-up, corrupt artifacts, failed checks).
Every error is printed to stderr as a single line starting with ``error:``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .data import DataError, save_synth_dataset, synth_generate
from .losses import gradcheck_suite
from .snn import gradcheck_lif
from .train import (
    CheckpointError,
    ConfigError,
    TrainingError,
    build_run_config,
    config_to_items,
    consistency_report,
    dump_distributions,
    eval_per_timestep,
    load_checkpoint,
    load_dataset,
    parse_config_lines,
    synth_spec,
    train,
)

__all__ = ["main", "run_cli"]


class _UsageError(Exception):
    """Anything the user can fix by changing flags or config -> exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


# synth accepts bare spec keys as a convenience; everything else is dotted
_SYNTH_KEY_ALIASES = {
    "classes": "data.classes",
    "dim": "data.dim",
    "drift_strength": "data.drift_strength",
    "noise_sigma": "data.noise_sigma",
    "samples_per_class": "data.samples_per_class",
    "seed": "data.seed",
    "timesteps": "network.timesteps",
}


def _parse_assignment(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise _UsageError(f"expected KEY=VALUE, got {text!r}")
    return key.strip(), value.strip()


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"config not found: {path}")
    try:
        return parse_config_lines(p.read_text())
    except ConfigError as exc:
        raise ConfigError(f"{path} {exc}") from None


def _gather_mapping(args) -> dict[str, str]:
    """Config file, then --data shorthand, then --set overrides (last wins)."""
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        mapping.update(_read_config_file(args.config))
    if getattr(args, "data", None):
        data_path = Path(args.data)
        if not data_path.is_file():
            raise _UsageError(f"dataset not found: {args.data}")
        mapping["data.kind"] = "file"
        mapping["data.file"] = str(data_path)
    for item in getattr(args, "set", None) or []:
        key, value = _parse_assignment(item)
        mapping[key] = value
    return mapping


def _default_out_dir(seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return Path("runs") / f"{stamp}-seed{seed}"


def _load_checkpoint_arg(path: str):
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"checkpoint not found: {path}")
    return load_checkpoint(p)


def _eval_dataset(ckpt, args):
    """Dataset for analysis commands: the checkpoint's own config, with any
    --data/--set overrides layered on top."""
    base = dict(config_to_items(ckpt.config))
    base.update(_gather_mapping(args))
    cfg = build_run_config(base)
    return load_dataset(cfg)


# -- subcommands -----------------------------------------------------------------


def _cmd_synth(args) -> int:
    mapping = {}
    for item in args.spec or []:
        key, value = _parse_assignment(item)
        mapping[_SYNTH_KEY_ALIASES.get(key, key)] = value
    for item in args.set or []:
        key, value = _parse_assignment(item)
        mapping[key] = value
    if getattr(args, "config", None):
        file_map = _read_config_file(args.config)
        file_map.update(mapping)
        mapping = file_map
    cfg = build_run_config(mapping)

    spec = synth_spec(cfg)
    train_split, test_split = synth_generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_synth_dataset(out, spec, train_split, test_split)
    print(f"wrote {out}: {len(train_split)} train / {len(test_split)} test samples")
    return 0


def _cmd_train(args) -> int:
    cfg = build_run_config(_gather_mapping(args))
    out_dir = Path(args.out) if args.out else _default_out_dir(cfg.seed)
    resume = None
    if args.resume:
        resume = Path(args.resume)
        if not resume.is_file():
            raise _UsageError(f"checkpoint not found: {args.resume}")
    result = train(cfg, out_dir, resume_from=resume)
    print(f"wrote {result.metrics_path}")
    print(f"wrote {result.ckpt_path}")
    if result.records:
        last = result.records[-1]
        print(
            f"final epoch {last.epoch}: loss_total={last.loss_total:.6f} "
            f"test_acc_full_T={last.test_acc_full_T:.4f}"
        )
    return 0


def _cmd_eval(args) -> int:
    ckpt = _load_checkpoint_arg(args.ckpt)
    data = _eval_dataset(ckpt, args)
    if args.timesteps:
        try:
            ks = [int(p) for p in args.timesteps.split(",")]
        except ValueError:
            raise _UsageError(f"cannot parse --timesteps {args.timesteps!r}") from None
    else:
        ks = list(ckpt.config.eval_timesteps)
    accuracy = eval_per_timestep(ckpt, data.test, ks)
    print(json.dumps({"checkpoint": args.ckpt, "accuracy": accuracy}))
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck_suite(seed=args.seed, cases=args.cases)
    lif = gradcheck_lif(seed=args.seed, cases=args.cases)
    print(f"cases={report.cases}")
    print(f"ce_mean max_rel_err={report.ce_max_rel_err:.3e} tol={report.tol:.0e}")
    print(
        f"consistency max_rel_err={report.etc_max_rel_err:.3e} tol={report.tol:.0e}"
    )
    print(
        f"consistency fd_max_rel_err={report.etc_fd_max_rel_err:.3e} "
        f"fd_tol={report.fd_tol:.0e}"
    )
    print(f"per_timestep_ce max_rel_err={report.ptce_max_rel_err:.3e} tol={report.tol:.0e}")
    obj_err, obj_tol = report.objective_max_rel_err, report.objective_tol
    print(f"objective max_rel_err={obj_err:.3e} tol={obj_tol:.0e}")
    print(f"lif max_rel_err={lif.max_rel_err:.3e} tol={lif.tol:.0e}")
    if not (report.passed and lif.passed):
        print("error: gradient check failed", file=sys.stderr)
        return 2
    print("PASS")
    return 0


def _cmd_dump_dist(args) -> int:
    ckpt = _load_checkpoint_arg(args.ckpt)
    data = _eval_dataset(ckpt, args)
    samples = data.test[: args.samples]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_distributions(ckpt, samples, out)
    print(f"wrote {out} ({len(samples)} samples)")
    return 0


def _cmd_consistency(args) -> int:
    ckpt = _load_checkpoint_arg(args.ckpt)
    data = _eval_dataset(ckpt, args)
    samples = data.test[: args.samples]
    print(json.dumps(consistency_report(ckpt, samples).to_dict()))
    return 0


# -- top level -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="etcsnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_data=True):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="config override, repeatable, applied last",
        )
        if with_data:
            p.add_argument(
                "--data", help="dataset dump to train/evaluate on "
                "(shorthand for data.kind=file data.file=PATH)",
            )

    p = sub.add_parser("synth", help="generate and save a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument(
        "--spec", action="append", metavar="KEY=VALUE",
        help="dataset field, e.g. classes=4 or data.noise_sigma=0.2",
    )
    add_config_flags(p, with_data=False)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="run a training job")
    add_config_flags(p)
    p.add_argument("--out", help="output directory (default runs/<stamp>-seed<k>)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="accuracy at truncated timestep budgets")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--timesteps", help="comma list, default: checkpoint's eval list")
    add_config_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the loss and LIF gradient oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("dump-dist", help="per-timestep distribution CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, help="limit to first N test samples")
    add_config_flags(p)
    p.set_defaults(fn=_cmd_dump_dist)

    p = sub.add_parser("consistency", help="temporal-consistency report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--samples", type=int, help="limit to first N test samples")
    add_config_flags(p)
    p.set_defaults(fn=_cmd_consistency)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    # ValueError: a config, a dataset or a budget that does not fit the run
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
