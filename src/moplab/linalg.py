"""Small-matrix routines used by the simulators and filters.

Everything here is deterministic: LAPACK solves, a fixed power-iteration
start vector and fixed iteration counts.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError", "solve_linear", "spectral_norm",
    "spectral_radius", "matrix_power_norms",
]

class SingularMatrixError(ValueError):
    """Raised when LAPACK finds an exactly zero pivot in any matrix of a
    stack. `singular` marks those matrices (a bool array over the stack's
    leading axes) and `solution` holds the solve of every other matrix, with
    NaN in the singular slots, so callers can keep the well-posed systems."""

    def __init__(self, singular, solution):
        super().__init__(f"{int(np.count_nonzero(singular))} of {singular.size} "
                         f"matrices are singular")
        self.singular = singular
        self.solution = solution


def _data(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b with LAPACK for one matrix or a stack of them.

    a is [..., k, k] and b is [..., k, r], or [..., k] for a single
    right-hand side, which is returned as a vector. Each matrix is checked
    on its own: any with an exactly zero pivot raises SingularMatrixError.
    """
    a = _data(a)
    b = _data(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    vector_rhs = b.ndim == a.ndim - 1
    if vector_rhs:
        b = b[..., None]
    if b.shape[-2] != a.shape[-1]:
        raise ValueError(f"rhs rows {b.shape[-2]} != matrix size {a.shape[-1]}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # slogdet factors with the same LU as the solve: sign 0 <=> zero pivot
        with np.errstate(invalid="ignore"):
            singular = np.linalg.slogdet(a)[0] == 0
        eye = np.eye(a.shape[-1])
        x = np.linalg.solve(np.where(singular[..., None, None], eye, a), b)
        x[singular] = np.nan
        raise SingularMatrixError(singular, x[..., 0] if vector_rhs else x) from None
    return x[..., 0] if vector_rhs else x


def spectral_norm(a, iters: int = 100) -> float:
    """Largest singular value via power iteration on A^T A."""
    a = _data(a)
    k = a.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    ata = a.T @ a
    for _ in range(iters):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(math.sqrt(v @ (ata @ v)))


def spectral_radius(a, squarings: int = 16, norm_iters: int = 100) -> float:
    """Spectral radius estimate via the repeated-squaring Gelfand sequence
    ||A^(2^s)||^(1/2^s), renormalizing each squaring (log-norm bookkeeping)
    so large powers never overflow. Returns 0 for nilpotent input.
    """
    a = _data(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got {a.shape}")
    cur = a
    log_scale = 0.0
    for _ in range(squarings):
        n = spectral_norm(cur, norm_iters)
        if n == 0.0:
            return 0.0
        cur = cur / n
        log_scale = 2.0 * (log_scale + math.log(n))
        cur = cur @ cur
    n = spectral_norm(cur, norm_iters)
    if n == 0.0:
        return 0.0
    return float(math.exp((log_scale + math.log(n)) / 2.0 ** squarings))


def matrix_power_norms(a, t_max: int) -> np.ndarray:
    """||A^t||_2 for t = 0..t_max (||A^0|| = 1 by convention)."""
    a = _data(a)
    norms = np.empty(t_max + 1)
    norms[0] = 1.0
    power = np.eye(a.shape[0])
    for t in range(1, t_max + 1):
        power = power @ a
        norms[t] = spectral_norm(power)
    return norms
