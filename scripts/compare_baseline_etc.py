#!/usr/bin/env python3
"""Paired baseline-vs-consistency experiment over several seeds.

For each seed, trains one plain mean-CE run and one consistency-regularized
run on the same drifting synthetic dataset (data seed = train seed), then
reports per-seed and median: truncated single-step accuracy, full-length
accuracy, mean pairwise KL, and argmax flip rate.  Every run is a solo
``train()`` call in one pool of spawned processes (``train_many``).  Writes
a JSON summary next to the run directories.

Usage:
    python3 scripts/compare_baseline_etc.py --out runs/compare
    python3 scripts/compare_baseline_etc.py --seeds 0,1,2 --epochs 20 \
        --set data.noise_sigma=0.3
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etcsnn.cli import _int_at_least, _Parser, run_parsed  # noqa: E402
from etcsnn.train import ConfigError, build_run_config, split_assignment, train_many  # noqa: E402

MODES = ("ce_only", "ce_plus_etc")


def arm_config(seed: int, mode: str, epochs: int, extra: dict):
    mapping = {
        "train.epochs": str(epochs),
        "opt.lr": "0.01",
        "train.loss_mode": mode,
        "train.seed": str(seed),
        "data.seed": str(seed),
    }
    cfg = build_run_config({**mapping, **extra})
    # the comparison reads each arm's last epoch record at budget 1
    if cfg.epochs < 1:
        raise ConfigError(f"config key train.epochs: must be >= 1, got {cfg.epochs}")
    if 1 not in cfg.eval_timesteps:
        got = ",".join(map(str, cfg.eval_timesteps))
        raise ConfigError(f"config key eval.timesteps: must include 1, got {got}")
    return cfg


def seed_list(text: str) -> list[int]:
    seeds = [_int_at_least(0)(s) for s in text.split(",")]
    if len(set(seeds)) < len(seeds):  # a repeat would train into its first run's directory
        raise argparse.ArgumentTypeError(f"expected distinct seeds, got {text!r}")
    return seeds


def compare(args) -> int:
    extra = dict(map(split_assignment, args.set))
    out_root = Path(args.out)
    arms = [(seed, mode) for seed in args.seeds for mode in MODES]
    # every arm's config is checked before the first run starts
    jobs = [
        (arm_config(seed, mode, args.epochs, extra), out_root / f"seed{seed}-{mode}")
        for seed, mode in arms
    ]

    t0 = time.time()
    by_seed = {seed: {"seed": seed} for seed in args.seeds}
    for (seed, mode), result in zip(arms, train_many(jobs)):
        last = result.records[-1]
        tag = "base" if mode == "ce_only" else "etc"
        by_seed[seed][f"{tag}_acc_t1"] = float(last.test_acc_per_eval_T["1"])
        by_seed[seed][f"{tag}_acc_full"] = last.test_acc_full_T
        by_seed[seed][f"{tag}_kl"] = last.mean_pairwise_kl
        by_seed[seed][f"{tag}_flip"] = last.argmax_flip_rate
    rows = list(by_seed.values())

    def med(key: str) -> float:
        return float(np.median([r[key] for r in rows]))

    summary = {
        "seeds": args.seeds,
        "epochs": args.epochs,
        "overrides": extra,
        "rows": rows,
        "median": {
            "base_acc_t1": med("base_acc_t1"),
            "etc_acc_t1": med("etc_acc_t1"),
            "t1_lift": float(
                np.median([r["etc_acc_t1"] - r["base_acc_t1"] for r in rows])
            ),
            "base_acc_full": med("base_acc_full"),
            "etc_acc_full": med("etc_acc_full"),
            "base_kl": med("base_kl"),
            "etc_kl": med("etc_kl"),
            "base_flip": med("base_flip"),
            "etc_flip": med("etc_flip"),
        },
        "wall_seconds": round(time.time() - t0, 1),
    }
    out_root.mkdir(parents=True, exist_ok=True)
    summary_path = out_root / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    hdr = f"{'seed':>4} {'base T1':>8} {'etc T1':>8} {'base full':>9} {'etc full':>8} {'base KL':>8} {'etc KL':>8} {'base flip':>9} {'etc flip':>8}"
    print(hdr)
    for r in rows:
        print(
            f"{r['seed']:>4} {r['base_acc_t1']:>8.3f} {r['etc_acc_t1']:>8.3f} "
            f"{r['base_acc_full']:>9.3f} {r['etc_acc_full']:>8.3f} "
            f"{r['base_kl']:>8.3f} {r['etc_kl']:>8.3f} "
            f"{r['base_flip']:>9.3f} {r['etc_flip']:>8.3f}"
        )
    m = summary["median"]
    print(
        f"\nmedian single-step accuracy: baseline {m['base_acc_t1']:.3f} vs "
        f"consistency {m['etc_acc_t1']:.3f} (lift {m['t1_lift']:+.3f})"
    )
    print(
        f"median full-length accuracy: baseline {m['base_acc_full']:.3f} vs "
        f"consistency {m['etc_acc_full']:.3f}"
    )
    print(f"wrote {summary_path} ({summary['wall_seconds']}s)")
    return 0


def main(argv=None) -> int:
    ap = _Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default="0,1,2,3,4", help="comma list of seeds")
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--out", default="runs/compare")
    ap.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="extra config override applied to both runs, repeatable",
    )
    return run_parsed(ap, argv, compare)


if __name__ == "__main__":
    sys.exit(main())
