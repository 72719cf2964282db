#!/usr/bin/env python3
"""Accuracy as a function of the inference timestep budget for one or more
trained checkpoints — the latency/accuracy trade-off curve.

Writes a plot-ready CSV (one row per checkpoint per eval budget) and prints
the same table.

Usage:
    python3 scripts/accuracy_vs_timestep.py --ckpt runs/a/ckpt_final.bin \
        --ckpt runs/b/ckpt_final.bin --out curve.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etcsnn.train import ConfigError, build_run_config, config_to_items  # noqa: E402
from etcsnn.train import eval_per_timestep, load_checkpoint, load_test_split  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--ckpt", action="append", required=True,
        help="checkpoint path, repeatable for side-by-side curves",
    )
    ap.add_argument("--out", default="accuracy_vs_timestep.csv")
    ap.add_argument(
        "--timesteps", default="",
        help="comma list of eval budgets, read as eval.timesteps; default: "
        "every step up to the checkpoint's training T",
    )
    args = ap.parse_args()

    lines = ["checkpoint,eval_t,accuracy"]
    print(f"{'checkpoint':<40} {'eval_t':>6} {'accuracy':>9}")
    for path in args.ckpt:
        ckpt = load_checkpoint(path)
        try:  # the budgets follow the eval.timesteps rule: empty means 1..T
            cfg = build_run_config({**dict(config_to_items(ckpt.config)),
                                    "eval.timesteps": args.timesteps})
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        test = load_test_split(cfg)
        # one forward per checkpoint scores every budget
        for k, acc in eval_per_timestep(ckpt, test, cfg.eval_timesteps).items():
            lines.append(f"{path},{k},{acc!r}")
            print(f"{path:<40} {k:>6} {acc:>9.4f}")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
