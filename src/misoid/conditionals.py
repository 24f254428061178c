"""Exact draws from every full conditional of the hierarchical model.

The model places ``theta_k ~ N(0, lambda_k K)`` on each channel's FIR
coefficients, improper ``1/x`` priors on the scale factors and on the noise
variance, and Gaussian measurement noise.  All conditionals are conjugate:

* scale factors and noise variance are inverse gamma.  The shape/rate
  parameterization is fixed throughout as density ~ x**(-a-1) * exp(-b/x),
  so the posterior mean is b / (a - 1);
* coefficient blocks (single channel, or a channel pair updated jointly) are
  Gaussian with precision  lambda**-1 Kinv + sigma**-2 G'G.

A Gaussian block is held as the lower Cholesky factor L of its precision
and the whitened right-hand side w = L^-1 b; a draw is L^-T (w + z) for
standard normal z (Rue 2001): one factorization and two triangular solves.
The mean and covariance are computed only when read (oracle and tests).  A
failed factorization gets one jitter retry of 1e-10 times the mean diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import DegenerateRateError, FactorizationError
from .kernel import StableSplineKernel, quad_form
from .regression import RegressorBank, theta_block

RATE_FLOOR = 1e-300


@dataclass
class HyperState:
    """Scale factor(s) and noise variance of one chain state.

    ``mode`` is ``"common"`` (one scalar ``lam``) or ``"per-response"``
    (``lam`` holds m positive reals).
    """

    mode: str
    lam: float | np.ndarray
    sigma2: float

    def __post_init__(self):
        if self.mode not in ("common", "per-response"):
            raise ValueError(f"unknown scale mode {self.mode!r}")
        if self.mode == "common":
            self.lam = float(self.lam)
            if not self.lam > 0.0:
                raise ValueError("scale factor must be positive")
        else:
            self.lam = np.asarray(self.lam, dtype=float)
            if self.lam.ndim != 1 or not np.all(self.lam > 0.0):
                raise ValueError("per-response scale factors must be positive")
        self.sigma2 = float(self.sigma2)
        if not self.sigma2 > 0.0:
            raise ValueError("noise variance must be positive")

    def lambda_for(self, k: int) -> float:
        return self.lam if self.mode == "common" else float(self.lam[k])


@dataclass
class GaussianBlockPosterior:
    """Gaussian block N(Q^-1 b, Q^-1) as the lower Cholesky factor L of the
    precision Q and the whitened right-hand side L^-1 b."""

    factor: np.ndarray
    whitened: np.ndarray

    @classmethod
    def from_precision(cls, precision: np.ndarray,
                       rhs: np.ndarray) -> GaussianBlockPosterior:
        L = _chol_lower(precision, "posterior precision")
        return cls(factor=L, whitened=solve_triangular(
            L, rhs, lower=True, check_finite=False))

    @property
    def mean(self) -> np.ndarray:
        return solve_triangular(self.factor, self.whitened, lower=True,
                                trans="T", check_finite=False)

    @property
    def covariance(self) -> np.ndarray:
        cov = cho_solve((self.factor, True), np.eye(self.factor.shape[0]))
        return 0.5 * (cov + cov.T)


def _chol_lower(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor with one jitter retry (1e-10 x mean diagonal)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(np.trace(mat)) / mat.shape[0]
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise FactorizationError(
                f"{what}: factorization failed after jitter retry"
            ) from None


def sample_inverse_gamma(shape: float, rate: float,
                         rng: np.random.Generator) -> float:
    """One draw from InvGamma(shape, rate), density ~ x**(-a-1) exp(-b/x)."""
    if not rate > RATE_FLOOR:
        raise DegenerateRateError(
            f"inverse-gamma rate {rate} is numerically degenerate"
        )
    return rate / rng.gamma(shape)


def sample_lambda_k(theta_k: np.ndarray, kernel: StableSplineKernel,
                    rng: np.random.Generator) -> float:
    """Scale factor conditional for one channel: IG(p/2, theta'Kinv theta / 2)."""
    return sample_inverse_gamma(
        0.5 * kernel.p, 0.5 * quad_form(kernel, theta_k), rng)


def sample_lambda_common(theta: np.ndarray, kernel: StableSplineKernel,
                         rng: np.random.Generator,
                         shape: float | None = None) -> float:
    """Common scale factor conditional: IG(mp/2, sum_k theta_k'Kinv theta_k / 2).

    ``shape`` overrides the default m*p/2 (used to reproduce alternative
    shape conventions; the rate is unaffected).
    """
    p = kernel.p
    if theta.size % p:
        raise ValueError("stacked coefficient length must be a multiple of p")
    m = theta.size // p
    total = sum(quad_form(kernel, theta_block(theta, k, p)) for k in range(m))
    if shape is None:
        shape = 0.5 * m * p
    return sample_inverse_gamma(shape, 0.5 * total, rng)


def sample_sigma2(residual: np.ndarray, rng: np.random.Generator) -> float:
    """Noise variance conditional: IG(n/2, ||residual||^2 / 2)."""
    residual = np.asarray(residual, dtype=float)
    return sample_sigma2_from_sumsq(
        float(np.dot(residual, residual)), residual.size, rng)


def sample_sigma2_from_sumsq(rss: float, n: int,
                             rng: np.random.Generator) -> float:
    """Same conditional, from a precomputed residual sum of squares."""
    if n < 1:
        raise ValueError("need at least one residual sample")
    return sample_inverse_gamma(0.5 * n, 0.5 * rss, rng)


def theta_k_conditional(k: int, theta: np.ndarray, cross: np.ndarray,
                        hyper: HyperState, bank: RegressorBank,
                        kernel: StableSplineKernel) -> GaussianBlockPosterior:
    """Gaussian conditional of channel k's coefficients given everything else.

    Precision is ``lambda_k**-1 Kinv + sigma**-2 G_k'G_k``; the mean solves it
    against ``sigma**-2 G_k'(y - sum_{j != k} G_j theta_j)``.  ``cross`` is
    G'G theta for the current ``theta``.
    """
    lam = hyper.lambda_for(k)
    inv_s2 = 1.0 / hyper.sigma2
    precision = kernel.Kinv / lam + inv_s2 * bank.gram(k, k)
    rhs = inv_s2 * bank.partial_projection((k,), theta, cross)
    return GaussianBlockPosterior.from_precision(precision, rhs)


def theta_block_conditional(i: int, j: int, theta: np.ndarray,
                            cross: np.ndarray, hyper: HyperState,
                            bank: RegressorBank,
                            kernel: StableSplineKernel) -> GaussianBlockPosterior:
    """Joint Gaussian conditional of the (theta_i, theta_j) pair.

    The prior precision is block diagonal in the two channels; the data part
    couples them through the cached cross-product G_i'G_j.  Draws from this
    conditional are always accepted (it is an exact Gibbs block).
    """
    if i == j:
        raise ValueError("pair update needs two distinct channels")
    p = kernel.p
    inv_s2 = 1.0 / hyper.sigma2
    precision = np.zeros((2 * p, 2 * p))
    precision[:p, :p] = kernel.Kinv / hyper.lambda_for(i)
    precision[p:, p:] = kernel.Kinv / hyper.lambda_for(j)
    precision[:p, :p] += inv_s2 * bank.gram(i, i)
    precision[:p, p:] = inv_s2 * bank.gram(i, j)
    precision[p:, :p] = precision[:p, p:].T
    precision[p:, p:] += inv_s2 * bank.gram(j, j)
    rhs = inv_s2 * bank.partial_projection((i, j), theta, cross)
    return GaussianBlockPosterior.from_precision(precision, rhs)


def draw_gaussian(post: GaussianBlockPosterior,
                  rng: np.random.Generator) -> np.ndarray:
    """L^-T (w + z) = mean + L^-T z for standard normal z."""
    z = rng.standard_normal(post.whitened.size)
    return solve_triangular(post.factor, post.whitened + z, lower=True,
                            trans="T", check_finite=False)
