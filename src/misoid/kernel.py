"""Stable spline prior covariance for exponentially decaying impulse responses.

The kernel matrix is ``K[i, j] = alpha ** max(i, j)`` in 1-based index terms
(``K[a, b] = alpha ** (max(a, b) + 1)`` for 0-based storage).  A vector drawn
from ``N(0, K)`` is, read back-to-front, a Gaussian random walk whose step
variances shrink geometrically -- which is why the inverse of ``K`` is exactly
tridiagonal and can be written down in closed form:

    q_i        = alpha**i * (1 - alpha),           i = 1 .. p-1
    Kinv[i,i]  = 1/q_{i-1} + 1/q_i                 (1/q_0 := 0)
    Kinv[p,p]  = 1/q_{p-1} + alpha**(-p)
    Kinv[i,i+1] = Kinv[i+1,i] = -1/q_i

The closed form is O(p) to build and stays accurate for alpha near 1 and
large p, where dense inversion of ``K`` starts to lose digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class StableSplineKernel:
    """Prior covariance, its tridiagonal inverse and Cholesky factor.

    All arrays are marked read-only after construction.
    """

    alpha: float
    p: int
    K: np.ndarray
    Kinv: np.ndarray
    chol: np.ndarray
    inv_diag: np.ndarray = field(repr=False)
    inv_offdiag: np.ndarray = field(repr=False)


def check_kernel_settings(alpha: float, p: int) -> None:
    """Refuse a decay rate and order the kernel cannot be built from.

    Raises
    ------
    ValueError
        If ``alpha`` is outside (0, 1), ``p < 1``, or alpha**p (1 - alpha)
        is below the smallest normal double: every entry of the inverse
        is at most 3 / (alpha**p (1 - alpha)), which must stay finite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {alpha}")
    if p < 1:
        raise ValueError(f"FIR order must be a positive integer, got {p}")
    smallest = p * math.log(alpha) + math.log1p(-alpha)
    if smallest < math.log(np.finfo(float).tiny):
        raise ValueError(f"decay rate {alpha} at FIR order {p}: alpha**p "
                         "underflows double precision")


def build_kernel(alpha: float, p: int) -> StableSplineKernel:
    """Construct the stable spline kernel of decay ``alpha`` and order ``p``,
    once :func:`check_kernel_settings` accepts them (ValueError if not)."""
    check_kernel_settings(alpha, p)
    p = int(p)

    idx = np.arange(1, p + 1)
    K = alpha ** np.maximum.outer(idx, idx)

    inv_diag, inv_offdiag = _closed_form_inverse_bands(alpha, p)
    Kinv = np.diag(inv_diag)
    if p > 1:
        Kinv += np.diag(inv_offdiag, 1) + np.diag(inv_offdiag, -1)

    chol = np.linalg.cholesky(K)

    for arr in (K, Kinv, chol, inv_diag, inv_offdiag):
        arr.setflags(write=False)
    return StableSplineKernel(
        alpha=float(alpha), p=p, K=K, Kinv=Kinv, chol=chol,
        inv_diag=inv_diag, inv_offdiag=inv_offdiag,
    )


def _closed_form_inverse_bands(alpha: float, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and first off-diagonal of the tridiagonal inverse."""
    if p == 1:
        return np.array([1.0 / alpha]), np.empty(0)
    # q_i = alpha**i * (1 - alpha): step variances of the underlying walk
    q = alpha ** np.arange(1, p) * (1.0 - alpha)
    diag = np.empty(p)
    diag[0] = 1.0 / q[0]
    diag[1:-1] = 1.0 / q[:-1] + 1.0 / q[1:]
    diag[-1] = 1.0 / q[-1] + alpha ** (-p)
    offdiag = -1.0 / q
    return diag, offdiag


def quad_form(kernel: StableSplineKernel,
              v: np.ndarray) -> np.float64 | np.ndarray:
    """Quadratic form v' Kinv v over the last axis, evaluated in O(p) via the
    tridiagonal bands; the result has shape ``v.shape[:-1]`` (a NumPy scalar
    for one vector, one form per row of an (m, p) array).

    Each form is nonnegative; exactly zero only for the zero vector.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != kernel.p:
        raise ValueError(
            f"vectors of length {kernel.p} expected, got shape {v.shape}"
        )
    out = (v * v) @ kernel.inv_diag
    if kernel.p > 1:
        out += 2.0 * ((v[..., :-1] * v[..., 1:]) @ kernel.inv_offdiag)
    # analytically >= 0; guard against roundoff for near-null vectors
    return np.maximum(out, 0.0)
