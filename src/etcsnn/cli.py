"""Command-line surface: training, evaluation, gradient checking, and
analysis dumps, all driven by flat ``key=value`` configs.

Every ``key=value`` item (a config-file line, ``--set``) goes through
``train.split_assignment``.  ``eval``, ``consistency`` and
``dump-dist`` score the checkpoint under its own config with the overrides on
top (``eval --timesteps LIST`` is ``eval.timesteps``).  An override is checked
against the checkpoint's own value: only ``data.*``, ``network.timesteps`` and
eval's ``eval.timesteps`` may differ from it.  A default 1..T eval list
follows the effective ``network.timesteps``, and so does every list under
``consistency`` and ``dump-dist``, which do not score it, unless one is given.
``eval`` is the one scorer of truncated inference: one JSON line per
checkpoint with every budget's accuracy.

Exit codes: 0 success, 1 usage error (bad flags, bad config, missing or
unreadable inputs, a valid dataset that does not fit the checkpoint or
overflows its forward), 2 runtime error (training blow-up, failed checks,
and every file the loaders reject: a ``DataError`` or ``CheckpointError``,
whose message names the file).
Every error is printed to stderr as a single line starting with ``error:``;
``run_parsed`` holds that mapping for any parser built on ``_Parser``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .data import DataError, read_utf8
from .snn import NonFiniteError
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
    load_test_split,
    parse_config_lines,
    split_assignment,
    train,
)

__all__ = ["main", "run_cli", "run_parsed"]


class _UsageError(Exception):
    """Anything the user can fix by changing flags or config -> exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _existing(path: str, what: str) -> Path:
    if not Path(path).is_file():
        raise _UsageError(f"{what} not found: {path}")
    return Path(path)


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _gather_mapping(args) -> dict[str, str]:
    """Config file, then --set overrides, then eval's --timesteps shorthand
    (last wins)."""
    mapping: dict[str, str] = {}
    if args.config:
        text = read_utf8(_existing(args.config, "config"), ConfigError)
        try:
            mapping.update(parse_config_lines(text))
        except ConfigError as exc:
            raise ConfigError(f"{args.config} {exc}") from None
    mapping.update(split_assignment(item) for item in args.set or [])
    if getattr(args, "timesteps", None):  # empty: the checkpoint's list
        mapping["eval.timesteps"] = args.timesteps
    return mapping


def _default_out_dir(seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return Path("runs") / f"{stamp}-seed{seed}"


def _eval_split(args, scores=()):
    """The checkpoint carrying the effective config of an analysis command,
    its own with the overrides on top, and the test split that config names.
    An override of a key other than data.*, network.timesteps and the keys in
    ``scores`` must equal the checkpoint's own value.  An eval list the
    command does not score follows the effective T unless one is given."""
    ckpt = load_checkpoint(_existing(args.ckpt, "checkpoint"))
    overrides = _gather_mapping(args)
    follow = {} if "eval.timesteps" in scores else {"eval.timesteps": ""}
    cfg = build_run_config({**follow, **overrides}, base=ckpt.config)
    keys = ("data.*", "network.timesteps", *scores)
    for (key, was), (_, now) in zip(config_to_items(ckpt.config), config_to_items(cfg)):
        if key in overrides and now != was and not key.startswith("data.") and key not in keys:
            raise ConfigError(
                f"config key {key}: the checkpoint was trained with {was!r}, not "
                f"{now!r}; {args.command} may change only {', '.join(keys)}"
            )
    return replace(ckpt, config=cfg), load_test_split(cfg)


# -- subcommands -----------------------------------------------------------------


def _cmd_train(args) -> int:
    cfg = build_run_config(_gather_mapping(args))
    out_dir = Path(args.out) if args.out else _default_out_dir(cfg.seed)
    resume = _existing(args.resume, "checkpoint") if args.resume else None
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
    ckpt, split = _eval_split(args, scores=("eval.timesteps",))
    accuracy = eval_per_timestep(ckpt, split, ckpt.config.eval_timesteps)
    print(json.dumps({"checkpoint": args.ckpt, "accuracy": accuracy}))
    return 0


def _cmd_gradcheck(args) -> int:
    from .autodiff import gradcheck_lif, gradcheck_suite  # the oracles load only here

    reports = gradcheck_suite(seed=args.seed, cases=args.cases)
    reports.append(gradcheck_lif(seed=args.seed, cases=args.cases))
    print(f"cases={args.cases}")
    for report in reports:
        print(report.line())
    if not all(report.passed for report in reports):
        print("error: gradient check failed", file=sys.stderr)
        return 2
    print("PASS")
    return 0


def _cmd_dump_dist(args) -> int:
    ckpt, split = _eval_split(args)
    samples = split[: args.samples]
    out = Path(args.out)
    if out.exists() and os.path.samefile(out, args.ckpt):  # a link to it counts too
        raise _UsageError(
            f"--out {out} is the checkpoint {args.ckpt}; writing it would destroy it"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_distributions(ckpt, samples, out)
    print(f"wrote {out} ({len(samples)} samples)")
    return 0


def _cmd_consistency(args) -> int:
    ckpt, split = _eval_split(args)
    print(json.dumps(consistency_report(ckpt, split[: args.samples])))
    return 0


# -- top level -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="etcsnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="config override, repeatable, applied last",
        )

    p = sub.add_parser("train", help="run a training job")
    add_config_flags(p)
    p.add_argument("--out", help="output directory (default runs/<stamp>-seed<k>)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="accuracy at truncated timestep budgets")
    p.add_argument("--ckpt", required=True)
    p.add_argument(
        "--timesteps", help="shorthand for --set eval.timesteps=LIST, applied last; "
        "default: the checkpoint's eval list",
    )
    add_config_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the loss and LIF gradient oracles")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--cases", type=_int_at_least(1), default=100)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("dump-dist", help="per-timestep distribution CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_int_at_least(1), help="limit to first N test samples")
    add_config_flags(p)
    p.set_defaults(fn=_cmd_dump_dist)

    p = sub.add_parser("consistency", help="temporal-consistency report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--samples", type=_int_at_least(1), help="limit to first N test samples")
    add_config_flags(p)
    p.set_defaults(fn=_cmd_consistency)

    return parser


def run_parsed(parser: argparse.ArgumentParser, argv, fn) -> int:
    """``fn(parser.parse_args(argv))``'s exit code; any error is one
    ``error:`` line on stderr and exit code 1 or 2 (see the module doc)."""
    try:
        return fn(parser.parse_args(argv))
    # ValueError: a config, a dataset or a budget that does not fit the run;
    # NonFiniteError: inputs that overflow an analysis command's forward;
    # MemoryError: a dataset too large for this machine
    except (_UsageError, ValueError, NonFiniteError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code


def run_cli(argv=None) -> int:
    return run_parsed(_build_parser(), argv, lambda args: args.fn(args))


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
