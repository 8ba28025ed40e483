"""moplab: a desk-scale lab for meta-output prediction.

Trains a small decoder-only transformer to predict the outputs of unseen
dynamical systems purely from their observed trajectory, and benchmarks it
against model-aware filters (Kalman / extended Kalman) and an online
autoregressive baseline.

Importing moplab runs BLAS at one thread unless the environment sets its
thread count: a training step splits its batch across processes instead
(see `training`). This takes effect only if numpy is not imported yet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
