#!/usr/bin/env python3
"""Paired baseline-vs-consistency experiment over several seeds.

For each seed, trains one plain mean-CE run and one consistency-regularized
run on the same drifting synthetic dataset (data seed = train seed), then
reports per-seed and median: truncated single-step accuracy, full-length
accuracy, mean pairwise KL, and argmax flip rate.  Every run is a solo
``train()`` call in one pool of spawned processes (``train_many``).  Writes
a JSON summary next to the run directories.  ``paired_rows`` is the
experiment; the acceptance tests' criteria 6-8 run it too.

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

ARMS = {"ce_only": "base", "ce_plus_etc": "etc"}  # loss mode -> row-key prefix
METRICS = {  # row metric -> (table column, its value in an arm's last epoch record)
    "acc_t1": ("T1", lambda rec: rec.test_acc_per_eval_T["1"]),
    "acc_full": ("full", lambda rec: rec.test_acc_full_T),
    "kl": ("KL", lambda rec: rec.mean_pairwise_kl),
    "flip": ("flip", lambda rec: rec.argmax_flip_rate),
}


def arm_config(seed: int, mode: str, epochs: int, extra: dict):
    arm = {
        "train.loss_mode": mode,
        "train.seed": str(seed),
        "data.seed": str(seed),
        "train.epochs": str(epochs),
    }
    # a --set of these would train every arm otherwise than its row and summary say
    clash = [key for key in extra if key in arm]
    if clash:
        raise ConfigError(f"config key {clash[0]}: set per run by the experiment, not by --set")
    cfg = build_run_config({"opt.lr": "0.01", **arm, **extra})
    # the comparison reads each arm's last epoch record at budget 1
    if 1 not in cfg.eval_timesteps:
        got = ",".join(map(str, cfg.eval_timesteps))
        raise ConfigError(f"config key eval.timesteps: must include 1, got {got}")
    return cfg


def seed_list(text: str) -> list[int]:
    seeds = [_int_at_least(0)(s) for s in text.split(",")]
    if len(set(seeds)) < len(seeds):  # a repeat would train into its first run's directory
        raise argparse.ArgumentTypeError(f"expected distinct seeds, got {text!r}")
    return seeds


def paired_rows(seeds, epochs: int, extra: dict, out_root: Path) -> list[dict]:
    """One row per seed: every arm's ``METRICS`` from its last epoch record,
    keyed ``<prefix>_<metric>``.  Every arm's config is built and checked
    before one ``train_many`` call runs them all."""
    arms = [(seed, mode) for seed in seeds for mode in ARMS]
    jobs = [
        (arm_config(seed, mode, epochs, extra), out_root / f"seed{seed}-{mode}")
        for seed, mode in arms
    ]
    rows = {seed: {"seed": seed} for seed in seeds}
    for (seed, mode), result in zip(arms, train_many(jobs)):
        last = result.records[-1]
        rows[seed].update({f"{ARMS[mode]}_{m}": value(last) for m, (_, value) in METRICS.items()})
    return list(rows.values())


def medians(rows: list[dict]) -> dict[str, float]:
    """The median over ``rows`` of every row key but the seed, with the T=1
    lift (consistency minus baseline) after the T=1 pair."""

    def med(values) -> float:
        return float(np.median(list(values)))

    out = {}
    for metric in METRICS:
        for tag in ARMS.values():
            out[f"{tag}_{metric}"] = med(r[f"{tag}_{metric}"] for r in rows)
        if metric == "acc_t1":
            out["t1_lift"] = med(r["etc_acc_t1"] - r["base_acc_t1"] for r in rows)
    return out


def compare(args) -> int:
    extra = dict(map(split_assignment, args.set))
    out_root = Path(args.out)
    t0 = time.time()
    rows = paired_rows(args.seeds, args.epochs, extra, out_root)
    summary = {
        "seeds": args.seeds,
        "epochs": args.epochs,
        "overrides": extra,
        "rows": rows,
        "median": medians(rows),
        "wall_seconds": round(time.time() - t0, 1),
    }
    out_root.mkdir(parents=True, exist_ok=True)
    summary_path = out_root / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    titles = {  # row key -> table column, at least 8 wide
        f"{tag}_{metric}": f"{tag} {label}"
        for metric, (label, _) in METRICS.items()
        for tag in ARMS.values()
    }
    print(f"{'seed':>4}" + "".join(f" {title:>8}" for title in titles.values()))
    for r in rows:
        cells = (f" {r[key]:>{max(8, len(title))}.3f}" for key, title in titles.items())
        print(f"{r['seed']:>4}" + "".join(cells))
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
    ap.add_argument("--epochs", type=_int_at_least(1), default=40)
    ap.add_argument("--out", default="runs/compare")
    ap.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="extra config override applied to both runs, repeatable",
    )
    return run_parsed(ap, argv, compare)


if __name__ == "__main__":
    sys.exit(main())
