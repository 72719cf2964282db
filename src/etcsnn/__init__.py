"""Spiking-network training with temporal-consistency regularization.

A small research engine over float64 numpy arrays: leaky integrate-and-fire
layers with a triangular surrogate gradient and hand-written BPTT, the
temporal-consistency loss and its diagnostics, AdamW with cosine annealing,
synthetic/IDX/event datasets and a deterministic trainer with binary
checkpoints behind a CLI.  The autodiff tape (``etcsnn.autodiff``) is only
the gradient oracle: ``etcsnn gradcheck`` loads it, training never does.
"""

__version__ = "0.1.0"
