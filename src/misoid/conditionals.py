"""Exact draws from every full conditional of the hierarchical model.

The model places ``theta_k ~ N(0, lambda_k K)`` on each channel's FIR
coefficients, improper ``1/x`` priors on the scale factors and on the noise
variance, and Gaussian measurement noise.  All conditionals are conjugate:

* scale factors and noise variance are inverse gamma.  The shape/rate
  parameterization is fixed throughout as density ~ x**(-a-1) * exp(-b/x),
  so the posterior mean is b / (a - 1);
* a coefficient block, any tuple of distinct channels, is Gaussian with
  precision sigma**-2 G'G + blkdiag(Kinv / lambda_c).

A Gaussian block is held as a square root T of its covariance, a
:class:`BlockRoot`, and the whitened right-hand side w = T'b: the mean is
T w and a draw T (w + z) for standard normal z.  T depends on the scale
factors and the noise variance only, w on the state too, so
:func:`block_conditional` builds the root with :func:`block_root`, then
whitens the block's right-hand side with it.  The root takes one of two
routes.

* Spectral, for a block with one scale factor for the whole block that
  its chain draws often.  With K = C C' (``kernel.chol``, repeated over
  the block's channels) and C'G'GC = V diag(e) V', the precision is
  C^-T V diag(s) V' C^-1 with s = 1/lambda + e/sigma**2, so
  T = W diag(s**-1/2) for W = C V.  Only lambda and sigma**2 change between
  sweeps, so one eigendecomposition per block (:class:`BlockSpectra`, built
  with the problem for a single channel and on first use for a wider
  block) serves every draw at two matrix-vector products, the way
  one decomposition serves every ridge parameter in generalized
  cross-validation (Golub, Heath & Wahba 1979).  The spectra keep the
  block's data gram beside its spectrum, for its right-hand side.  A
  scale vector s that is not finite and positive (lambda or sigma**2
  collapsed towards 0) is a failure.
* Factored, for every other block: channels with different scale
  factors, which no single spectrum covers, or a block drawn too rarely to
  repay a spectrum.  T = L^-T for the lower Cholesky factor L of the
  precision, applied by triangular solves (Rue 2001), with LAPACK's
  ``dpotrf`` and ``dtrtrs`` called directly.  A failed factorization gets
  one jitter retry of 1e-10 times the mean diagonal; a factor with a
  non-finite diagonal is a failure too.  The precision is a new array, so
  the block's gram stays for the right-hand side.

A block drawn again at the same scale factors and noise variance needs
only a new right-hand side: ``block_conditional`` takes a dict of the
roots built so far, which the sampler keeps for one coefficient step, so
a block factors or scales its spectrum once per sweep however often the
sweep draws it, with the very factor ``dpotrf`` would return again.

Every single channel has its spectrum, and beside it the channel's
whitening map: W_k'G_k'(y - sum_{j != k} G_j theta_j) is one product of
[theta_k, the chain's state rows k and m, 1] with it, so no single draw
forms its right-hand side.  :func:`single_conditional` is that one
formula, which the sweep's single-channel pass, the chain's initial fit
and :func:`block_conditional` share.

A single spectrum costs about 0.5 ms to build and a pair spectrum 1.7 ms
at p = 50, as much as 4 to 16 factored pair draws at p = 20, 50 and 100.
A pair therefore gets a spectrum, or under two scale factors a kept gram,
only if its chain is expected to draw it at least ``PAIR_SPECTRUM_DRAWS``
times, a margin over that break-even which also bounds the pair spectra
(8p**2 + 2p floats each, the pair's gram included) and the kept grams
(4p**2 floats each, 80 kB at p = 50) of a chain by
n_ob * n_mc / ``PAIR_SPECTRUM_DRAWS`` pairs.  README gives the measured
cost of each kind of draw.  The mean and covariance are computed only
when read (oracle and tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dsyevd, dtrtrs

from .errors import DegenerateRateError, FactorizationError
from .kernel import StableSplineKernel, quad_form
from .regression import RegressorBank

RATE_FLOOR = 1e-300

# expected draws of a pair, in one chain, that repay building its spectrum
PAIR_SPECTRUM_DRAWS = 20


@dataclass
class HyperState:
    """Scale factors and noise variance of one chain state.

    ``lam`` holds one positive scale factor per channel; a common scale
    factor (GS, GSOB) is m equal entries.
    """

    lam: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.ndim != 1 or not np.all(self.lam > 0.0):
            raise ValueError("scale factors must be a 1-d array of positive "
                             "reals, one per channel")
        self.sigma2 = float(self.sigma2)
        if not self.sigma2 > 0.0:
            raise ValueError("noise variance must be positive")


class BlockRoot(NamedTuple):
    """A square root T of a block's covariance at one setting of the scale
    factors and noise variance, beside the block's data gram, which every
    right-hand side needs.

    Spectral: T = ``factor`` diag(``scale``), ``factor`` = W = C V.
    Factored (``scale`` is None): T = L^-T for the lower Cholesky factor
    L = ``factor`` of the precision.
    """

    gram: np.ndarray
    factor: np.ndarray
    scale: np.ndarray | None

    def whiten(self, rhs: np.ndarray) -> np.ndarray:
        """T'rhs."""
        if self.scale is None:
            return _solve_lower(self.factor, rhs)
        return self.scale * np.dot(rhs, self.factor)

    def times(self, v: np.ndarray) -> np.ndarray:
        """T v."""
        if self.scale is None:
            return _solve_lower(self.factor, v, trans=1)
        return np.dot(self.factor, self.scale * v)


class GaussianBlockPosterior(NamedTuple):
    """Gaussian block N(T w, T T') as the square root T of its covariance,
    ``root``, and the whitened right-hand side w = T'b."""

    root: BlockRoot
    whitened: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return self.root.times(self.whitened)

    @property
    def covariance(self) -> np.ndarray:
        factor, scale = self.root.factor, self.root.scale
        if scale is None:
            cov = cho_solve((factor, True), np.eye(factor.shape[0]))
        else:
            cov = (factor * scale ** 2) @ factor.T
        return 0.5 * (cov + cov.T)


class BlockSpectrum(NamedTuple):
    """A block's spectrum, W = C V and e ascending, both read-only."""

    basis: np.ndarray
    evals: np.ndarray


def block_spectrum(gram: np.ndarray, chol: np.ndarray) -> BlockSpectrum:
    """(W, e) with B'(gram)B = V diag(e) V' and W = B V, where B is the
    block-diagonal repeat of the prior factor ``chol`` (K = C C') that
    matches ``gram``'s size; e ascends and is clipped at 0."""
    blocks = np.kron(np.eye(gram.shape[0] // chol.shape[0]), chol)
    evals, vecs, info = dsyevd(blocks.T @ gram @ blocks, lower=1)
    if info != 0:
        raise FactorizationError(f"block spectrum: dsyevd info {info}")
    basis = blocks @ vecs
    evals = np.maximum(evals, 0.0)
    for arr in (basis, evals):
        arr.setflags(write=False)
    return BlockSpectrum(basis, evals)


class BlockSpectra:
    """The spectra of one problem's blocks, keyed by the channel tuple;
    every chain of the problem shares them.  Every chain draws every
    channel, so the m single channels' are built here, and their
    eigenvalues stacked, (m, p) and read-only, as ``single_evals`` for one
    sweep to scale every channel at once.  A wider block's is built on
    its first use.  The data gram of every block asked for (:meth:`gram`)
    is kept too, read-only, so that a block drawn often under two scale
    factors, which no spectrum covers, builds its gram once.

    For each single channel k the bank's ``projection_map`` of W_k is
    kept too, (m, 5p+1, p) and read-only (10 MB at m = 100 and p = 50), so
    that :func:`single_conditional` whitens the channel's right-hand side
    from the chain's state in one product."""

    def __init__(self, bank: RegressorBank, kernel: StableSplineKernel):
        self.bank = bank
        self.kernel = kernel
        self._built: dict = {}
        self._grams: dict = {}
        m, p = bank.m, bank.p
        self.single_evals = np.empty((m, p))
        self.single_maps = np.empty((m, 5 * p + 1, p))
        for k in range(m):
            basis, self.single_evals[k] = self((k,))
            bank.projection_map(k, basis, self.single_maps[k])
        for arr in (self.single_evals, self.single_maps):
            arr.setflags(write=False)

    def __call__(self, channels: tuple[int, ...]) -> BlockSpectrum:
        found = self._built.get(channels)
        if found is None:
            found = block_spectrum(self.gram(channels), self.kernel.chol)
            self._built[channels] = found
        return found

    def gram(self, channels: tuple[int, ...]) -> np.ndarray:
        """The array ``bank.block_gram(channels)`` returns, built on the
        block's first use and kept read-only."""
        found = self._grams.get(channels)
        if found is None:
            found = self.bank.block_gram(channels)
            found.setflags(write=False)
            self._grams[channels] = found
        return found


def spectral_scales(lam: float | np.ndarray, inv_s2: float,
                    evals: np.ndarray) -> np.ndarray:
    """The scales s**-1/2, s = 1/lam + e inv_s2, of one block's spectrum e
    and scale factor, or of a stack of spectra and a column of factors.

    Each row of e ascends, so the ends of s are its extremes; a NaN (an
    infinite inv_s2 times e = 0) can only sit at the low end.
    """
    s = 1.0 / lam + inv_s2 * evals
    low, high = s.T[0], s.T[-1]
    if s.ndim > 1:
        low, high = low.min(), high.max()
    if not (low > 0.0 and high < np.inf):
        raise FactorizationError(
            "posterior precision: spectral scales not finite and "
            "positive (scale factor or noise variance collapsed)")
    return 1.0 / np.sqrt(s)


def factored_precision(gram: np.ndarray, inv_s2: float, lam: list,
                       kernel: StableSplineKernel) -> np.ndarray:
    """The precision inv_s2 gram + blkdiag(Kinv / lam_c), a new array, of a
    block whose channels have the scale factors ``lam``.  Kinv / lam_c
    enters through its three bands, as Kinv's other entries are exactly
    0."""
    precision = np.multiply(gram, inv_s2)
    n, p = precision.shape[0], kernel.p
    # a diagonal of a C-contiguous n-by-n matrix is every (n+1)-th entry
    flat = precision.reshape(-1)
    for r, lam_c in enumerate(lam):
        first = r * p * (n + 1)
        last = first + (p - 1) * (n + 1)
        flat[first:last + 1:n + 1] += kernel.inv_diag / lam_c
        band = kernel.inv_offdiag / lam_c
        flat[first + 1:last:n + 1] += band
        flat[first + n:last + n:n + 1] += band
    return precision


def _chol_lower(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor (upper part zero, ``mat`` left untouched) of
    an exactly symmetric ``mat``, with one jitter retry (1e-10 x mean
    diagonal).  ``dpotrf`` gets ``mat.T``, the same matrix in Fortran
    order, which it copies without transposing.

    ``dpotrf`` passes NaN through without complaint, so the factor's
    diagonal is also checked to be finite.
    """
    L, info = dpotrf(mat.T, lower=1, clean=1)
    if info != 0:
        jitter = 1e-10 * float(np.trace(mat)) / mat.shape[0]
        L, info = dpotrf((mat + jitter * np.eye(mat.shape[0])).T, lower=1,
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


def sample_inverse_gamma(shape: float, rate: float | np.ndarray,
                         rng: np.random.Generator) -> float | np.ndarray:
    """Draws from InvGamma(shape, rate), density ~ x**(-a-1) exp(-b/x), one
    per entry of ``rate`` (a float gives a float).  The gamma variates come
    from one call, the same stream as one draw per entry in order."""
    if not np.all(rate > RATE_FLOOR):
        raise DegenerateRateError(
            f"inverse-gamma rate {rate} is numerically degenerate"
        )
    return rate / rng.gamma(shape, size=np.shape(rate))


def sample_lambda_k(theta: np.ndarray, kernel: StableSplineKernel,
                    rng: np.random.Generator) -> np.ndarray:
    """Per-channel scale factor conditionals IG(p/2, theta_k'Kinv theta_k / 2),
    one draw per row of the (m, p) coefficient array, in channel order."""
    if np.ndim(theta) != 2:
        raise ValueError("per-channel scale factors need an (m, p) array")
    return sample_inverse_gamma(0.5 * kernel.p,
                                0.5 * quad_form(kernel, theta), rng)


def sample_lambda_common(theta: np.ndarray, kernel: StableSplineKernel,
                         rng: np.random.Generator) -> float:
    """Common scale factor conditional IG(mp/2, b), with b half the sum of
    theta_k'Kinv theta_k over the m channels."""
    p = kernel.p
    if theta.size % p:
        raise ValueError("stacked coefficient length must be a multiple of p")
    m = theta.size // p
    total = float(quad_form(kernel, theta.reshape(m, p)).sum())
    return sample_inverse_gamma(0.5 * m * p, 0.5 * total, rng)


def sample_sigma2_from_sumsq(rss: float, n: int,
                             rng: np.random.Generator) -> float:
    """Noise variance conditional IG(n/2, rss/2), from the residual sum of
    squares ``rss`` of ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one residual sample")
    return sample_inverse_gamma(0.5 * n, 0.5 * rss, rng)


def block_root(channels: tuple[int, ...], hyper: HyperState,
               spectra: BlockSpectra, often: bool) -> BlockRoot:
    """The covariance root of the block ``channels`` at ``hyper``, which
    does not depend on the coefficients: spectral for a block drawn
    ``often`` under one scale factor for the whole block, else factored.
    A block drawn ``often`` keeps its gram in ``spectra``; a rarer one
    builds it anew."""
    if len(channels) > 1 and len(set(channels)) < len(channels):
        raise ValueError(f"a block needs distinct channels, got {channels}")
    inv_s2 = 1.0 / hyper.sigma2
    # a list of scalars, not fancy indexing: this runs once per block draw
    lam = [hyper.lam[k] for k in channels]
    gram = (spectra.gram(channels) if often
            else spectra.bank.block_gram(channels))
    if often and lam.count(lam[0]) == len(lam):
        basis, evals = spectra(channels)
        return BlockRoot(gram, basis, spectral_scales(lam[0], inv_s2, evals))
    precision = factored_precision(gram, inv_s2, lam, spectra.kernel)
    return BlockRoot(gram, _chol_lower(precision, "posterior precision"),
                     None)


def single_conditional(spectra: BlockSpectra, k: int, scale: np.ndarray,
                       weight: np.ndarray, theta: np.ndarray,
                       cross: np.ndarray) -> GaussianBlockPosterior:
    """Channel k's conditional from its spectrum, at the spectral scales
    ``scale`` (:func:`spectral_scales`): the root T = W_k diag(scale) and
    w = T'b, b = inv_s2 G_k'(y - sum_{j != k} G_j theta_j), given the
    ``weight`` inv_s2 * scale and the chain's ``theta`` and running state
    ``cross``.  W_k'G_k'(y - ...) is one product of the state with the
    channel's kept map (:meth:`RegressorBank.single_projection`)."""
    root = BlockRoot(spectra.gram((k,)), spectra((k,)).basis, scale)
    projected = spectra.bank.single_projection(k, theta, cross,
                                               spectra.single_maps[k])
    return GaussianBlockPosterior(root, weight * projected)


def block_conditional(channels: tuple[int, ...], theta: np.ndarray,
                      cross: np.ndarray, hyper: HyperState,
                      spectra: BlockSpectra, often: bool,
                      roots: dict | None = None) -> GaussianBlockPosterior:
    """Gaussian conditional of the coefficients of ``channels``, a tuple of
    distinct channels, given everything else.

    Precision ``sigma**-2 G_c'G_c + blkdiag(Kinv / lambda_c)``; the mean
    solves it against ``sigma**-2 G_c'(y - sum_{j not in c} G_j theta_j)``,
    from ``cross``, the running state of ``theta``.  The precision's root
    is :func:`block_root`'s, by the route ``often`` picks; ``roots``, a
    dict the caller keeps for one ``hyper``, holds every root built so
    far, keyed by the channels, for a block drawn again to whiten its new
    right-hand side with.  It writes into nothing the bank keeps; the
    state update after its draw, ``bank.set_channel``, reuses the bank's
    buffers, so chains share a bank one at a time.
    """
    if roots is None:
        roots = {}
    root = roots.get(channels)
    if root is None:
        root = roots[channels] = block_root(channels, hyper, spectra, often)
    inv_s2 = 1.0 / hyper.sigma2
    if often and len(channels) == 1:
        return single_conditional(spectra, channels[0], root.scale,
                                  inv_s2 * root.scale, theta, cross)
    rhs = inv_s2 * spectra.bank.partial_projection(channels, theta, cross,
                                                   root.gram)
    return GaussianBlockPosterior(root, root.whiten(rhs))


def draw_gaussian(post: GaussianBlockPosterior,
                  rng: np.random.Generator) -> np.ndarray:
    """T (w + z) = mean + T z for standard normal z."""
    z = rng.standard_normal(post.whitened.size)
    return post.root.times(post.whitened + z)
