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
These call LAPACK's ``dpotrf`` and ``dtrtrs`` directly: at block sizes p
and 2p (p = 50: tens of microseconds per factor, a few per solve) the
argument checks and dispatch of the generic wrappers cost as much as the
arithmetic, and a sweep pays them for each of its m + n_ob blocks.  The mean and
covariance are computed only when read (oracle and tests).  A failed
factorization gets one jitter retry of 1e-10 times the mean diagonal; a
factor with a non-finite diagonal (a NaN or infinite precision) is a
failure too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtrs

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
        return cls(factor=L, whitened=_solve_lower(L, rhs))

    @property
    def mean(self) -> np.ndarray:
        return _solve_lower(self.factor, self.whitened, trans=1)

    @property
    def covariance(self) -> np.ndarray:
        cov = cho_solve((self.factor, True), np.eye(self.factor.shape[0]))
        return 0.5 * (cov + cov.T)


def _chol_lower(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor (upper part zero, ``mat`` left untouched) with
    one jitter retry (1e-10 x mean diagonal).

    ``dpotrf`` passes NaN through without complaint, so the factor's
    diagonal is also checked to be finite.
    """
    L, info = dpotrf(mat, lower=1, clean=1)
    if info != 0:
        jitter = 1e-10 * float(np.trace(mat)) / mat.shape[0]
        L, info = dpotrf(mat + jitter * np.eye(mat.shape[0]), lower=1,
                         clean=1)
        if info != 0:
            raise FactorizationError(
                f"{what}: factorization failed after jitter retry")
    if not np.isfinite(L.diagonal()).all():
        raise FactorizationError(f"{what}: non-finite Cholesky factor")
    return L


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 b, or L^-T b with ``trans=1``, for a lower factor L; ``b`` is
    copied, never overwritten."""
    x, info = dtrtrs(L, b, lower=1, trans=trans)
    if info != 0:
        raise FactorizationError(
            f"triangular solve failed (dtrtrs info {info})")
    return x


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
    precision = bank.block_gram((i, j))
    precision *= inv_s2
    precision[:p, :p] += kernel.Kinv / hyper.lambda_for(i)
    precision[p:, p:] += kernel.Kinv / hyper.lambda_for(j)
    rhs = inv_s2 * bank.partial_projection((i, j), theta, cross)
    return GaussianBlockPosterior.from_precision(precision, rhs)


def draw_gaussian(post: GaussianBlockPosterior,
                  rng: np.random.Generator) -> np.ndarray:
    """L^-T (w + z) = mean + L^-T z for standard normal z."""
    z = rng.standard_normal(post.whitened.size)
    return _solve_lower(post.factor, post.whitened + z, trans=1)
