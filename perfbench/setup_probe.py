"""Time one cold set-up of the etcsnn package in a fresh interpreter.

Usage: setup_probe.py CONFIG_JSON [CHECKPOINT]

Set-up is the package import plus dataset materialisation, then either
weight and optimizer initialisation or, given a checkpoint, loading it.
numpy is imported before the clock starts: its import cost is not the
package's.  The set-up is bracketed by run.py's reference loop in this
process, so it is scaled by the speed of the core it ran on.  Prints
``{"wall_s": seconds, "setup_s": reference-speed seconds}``.  ``run.py``
starts this with ``PYTHONPATH`` pointing at the package source.
"""

import json
import sys

import numpy  # noqa: F401
from run import Calibrator


def main() -> None:
    mapping = json.loads(sys.argv[1])
    checkpoint = sys.argv[2] if len(sys.argv) > 2 else ""
    _, wall, scaled = Calibrator().timed(_set_up, mapping, checkpoint)
    print(json.dumps({"wall_s": wall, "setup_s": scaled}))


def _set_up(mapping: dict, checkpoint: str) -> None:
    import etcsnn.cli  # noqa: F401
    from etcsnn.optim import OptimState
    from etcsnn.snn import NetworkSpec, init_weights
    from etcsnn.train import build_run_config, load_checkpoint, load_dataset

    cfg = build_run_config(mapping)
    data = load_dataset(cfg)
    if checkpoint:
        load_checkpoint(checkpoint)
    else:
        spec = NetworkSpec(
            (data.input_dim, *cfg.hidden_sizes, data.classes), cfg.timesteps, cfg.lif
        )
        params = [w.data for w in init_weights(spec, cfg.seed)]
        OptimState.fresh(
            params, lr_base=cfg.lr_base, weight_decay=cfg.weight_decay,
            beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
        )


if __name__ == "__main__":
    main()
