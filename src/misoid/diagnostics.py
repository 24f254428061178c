"""Analytic posterior oracle, chain diagnostics, and fit scoring.

For fixed scale factors and noise variance the coefficient posterior is one
big Gaussian; on small instances it is computed densely and used as an
independent check of every sampler code path (the conditional of a block of
channels is a Schur-complement extraction of it, and frozen-hyper chains
must reproduce its mean).  The guard on the dense path is deliberate: this
oracle is for test-sized problems only.

Chain quality is summarized by the integrated autocorrelation time (IACT),
estimated with Geyer's initial-positive-sequence rule on even-lag pair sums,
and the effective sample size length / IACT.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import cho_solve

from . import conditionals
from .conditionals import HyperState, _chol_lower
from .kernel import StableSplineKernel, build_kernel
from .regression import Dataset, RegressorBank
from .sampler import (Problem, SamplerConfig, VARIANTS, draw_coefficients,
                      init_chain)


@dataclass
class AnalyticPosterior:
    """Dense Gaussian posterior of all coefficients at fixed hyperparameters."""

    mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray = field(repr=False)


def analytic_posterior(bank: RegressorBank, kernel: StableSplineKernel,
                       lam: float | np.ndarray,
                       sigma2: float) -> AnalyticPosterior:
    """Exact posterior N(mean, covariance) of the stacked coefficients.

    ``lam`` may be a scalar (common scale) or one value per channel.
    Refuses, through :meth:`RegressorBank.dense_gram`, instances with more
    than ``regression.ORACLE_MAX_COEFFICIENTS`` unknowns.
    """
    m, p = bank.m, kernel.p
    precision = bank.dense_gram()
    lam_vec = np.broadcast_to(np.asarray(lam, dtype=float), (m,))
    if not np.all(lam_vec > 0.0) or not sigma2 > 0.0:
        raise ValueError("scale factors and noise variance must be positive")
    precision /= sigma2
    for k in range(m):
        sl = slice(k * p, (k + 1) * p)
        precision[sl, sl] += kernel.Kinv / lam_vec[k]
    L = _chol_lower(precision, "analytic posterior precision")
    covariance = cho_solve((L, True), np.eye(m * p))
    covariance = 0.5 * (covariance + covariance.T)
    mean = cho_solve((L, True), bank.gty / sigma2)
    return AnalyticPosterior(mean=mean, covariance=covariance,
                             precision=precision)


def joint_conditional(post: AnalyticPosterior, indices: np.ndarray,
                      theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional of the coefficients at ``indices`` given the rest of
    ``theta``, extracted from the joint posterior by Schur complement."""
    indices = np.asarray(indices, dtype=int)
    total = post.mean.size
    rest = np.setdiff1d(np.arange(total), indices)
    prec_bb = post.precision[np.ix_(indices, indices)]
    prec_br = post.precision[np.ix_(indices, rest)]
    L = _chol_lower(prec_bb, "conditional precision")
    cov = cho_solve((L, True), np.eye(indices.size))
    cov = 0.5 * (cov + cov.T)
    shift = cho_solve((L, True), prec_br @ (theta[rest] - post.mean[rest]))
    mean = post.mean[indices] - shift
    return mean, cov


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    return acov / acov[0]


def iact(trace: np.ndarray) -> float:
    """Integrated autocorrelation time, Geyer initial positive sequence.

    Pair sums rho[2k] + rho[2k+1] are accumulated while positive; the result
    is clamped to [1, len(trace)].  A constant trace counts as fully
    correlated (IACT = trace length) and raises a warning.
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 50:
        raise ValueError("need a 1-d trace of at least 50 samples")
    if np.all(x == x[0]):
        warnings.warn("constant trace: treating as fully correlated",
                      stacklevel=2)
        return float(x.size)
    rho = _autocorrelation(x)
    tau = -1.0
    for k in range(x.size // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(min(max(tau, 1.0), x.size))


def effective_sample_size(trace: np.ndarray) -> float:
    return np.asarray(trace).size / iact(trace)


def fit_metric(estimate: np.ndarray, truth: np.ndarray, p: int) -> np.ndarray:
    """Per-channel relative L2 error of stacked coefficient vectors."""
    est = np.asarray(estimate, dtype=float).reshape(-1, p)
    tru = np.asarray(truth, dtype=float).reshape(-1, p)
    if est.shape != tru.shape:
        raise ValueError(f"layout mismatch: {est.shape} vs {tru.shape}")
    norms = np.linalg.norm(tru, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("true response with zero norm cannot be scored")
    return np.linalg.norm(est - tru, axis=1) / norms


def pair_sum_error(estimate: np.ndarray, truth: np.ndarray, p: int,
                   i: int, j: int) -> float:
    """Relative L2 error of the summed responses of channels i and j."""
    est = np.asarray(estimate, dtype=float).reshape(-1, p)
    tru = np.asarray(truth, dtype=float).reshape(-1, p)
    target = tru[i] + tru[j]
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError("summed true response has zero norm")
    return float(np.linalg.norm((est[i] + est[j]) - target) / norm)


@dataclass
class DiagnosticsReport:
    """Mixing and fit summary of one recorded chain."""

    iact: dict
    ess: dict
    degenerate_traces: list
    posterior_sd: np.ndarray
    fit_errors: np.ndarray | None = None

    def to_json(self, path) -> None:
        doc = {
            "iact": self.iact,
            "ess": self.ess,
            "degenerate_traces": self.degenerate_traces,
            "posterior_sd": np.asarray(self.posterior_sd).tolist(),
            "fit_errors": (None if self.fit_errors is None
                           else np.asarray(self.fit_errors).tolist()),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")


def build_report(record, truth_responses: np.ndarray | None = None
                 ) -> DiagnosticsReport:
    """Diagnostics for a chain record: per-trace IACT/ESS on the post-burn-in
    segment, per-coefficient posterior sd, and fit errors when truth is given."""
    taus: dict = {}
    esses: dict = {}
    degenerate: list = []

    def add(name: str, trace: np.ndarray):
        trace = np.asarray(trace, dtype=float)
        if trace.size < 50:
            return
        constant = bool(np.all(trace == trace[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tau = iact(trace)
        taus[name] = tau
        esses[name] = trace.size / tau
        if constant:
            degenerate.append(name)

    for name, trace in zip(record.scale_names,
                           record.lambda_trace[record.burn_in:].T):
        add(name, trace)
    add("sigma2", record.sigma2_trace[record.burn_in:])

    fit = None
    if truth_responses is not None:
        fit = fit_metric(record.summary.mean,
                         np.asarray(truth_responses).ravel(), record.p)
    return DiagnosticsReport(iact=taus, ess=esses,
                             degenerate_traces=degenerate,
                             posterior_sd=record.summary.sd, fit_errors=fit)


# --------------------------------------------------------------------------
# Fixed-hyperparameter equivalence suite
# --------------------------------------------------------------------------

@dataclass
class OracleCheck:
    name: str
    statistic: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(self.statistic < self.limit)


@dataclass
class OracleCheckReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_oracle_checks(seed: int = 0, n_sweeps: int = 10_000,
                      m: int = 2, p: int = 3, n: int = 50,
                      corrupt_mean: bool = False) -> OracleCheckReport:
    """Check the sampler against the dense posterior on a small instance.

    Freezes the hyperparameters twice, at one common scale factor and at m
    distinct ones, verifies the conditional of every single channel and
    every pair, by both routes, against Schur extractions of each joint
    posterior, then runs each sampler variant (GSd and GSOBd at the
    distinct scales) and compares chain means against the analytic means
    coordinatewise, with Monte Carlo standard errors widened by each
    coordinate's IACT.  At the end of each chain, and at
    the anchor state, the running state must still read back as the dense
    product G'G theta.

    ``corrupt_mean`` runs the chains on the negated output, so their means
    converge to minus the analytic ones -- a mutation proving the chain
    checks can fail.

    Settings the suite cannot run raise ValueError before any chain runs,
    a :class:`SizeGuardError` for an instance too large for the oracle.
    """
    if m < 2 or n < 1 or n_sweeps < 50 or seed < 0:
        raise ValueError(
            "oracle needs channels >= 2 (for pairs), samples >= 1, sweeps "
            ">= 50 (for the IACT) and seed >= 0; "
            f"got {m}, {n}, {n_sweeps}, {seed}")
    kernel = build_kernel(0.9, p)       # the prior's decay rate
    rng = np.random.default_rng(seed)
    lam_true, sigma2_true = 0.8, 0.3
    inputs = rng.standard_normal((m, n))
    theta_true = np.concatenate([
        np.sqrt(lam_true) * kernel.chol @ rng.standard_normal(p)
        for _ in range(m)
    ])
    data0 = Dataset(y=np.zeros(n), inputs=inputs)
    bank0 = RegressorBank(data0, p)
    y = bank0.predict(theta_true) + np.sqrt(sigma2_true) * rng.standard_normal(n)
    data = Dataset(y=y, inputs=inputs)
    bank = RegressorBank(data, p)
    chain_data = Dataset(y=-y, inputs=inputs) if corrupt_mean else data
    problem = Problem(data=chain_data, bank=RegressorBank(chain_data, p),
                      kernel=kernel)

    # GS/GSOB freeze one common scale factor, GSd/GSOBd m distinct ones,
    # so that a channel read with another channel's scale shows
    frozen = {}
    for common in (True, False):
        lam = lam_true * (np.ones(m) if common else np.linspace(0.5, 1.5, m))
        frozen[common] = (HyperState(lam=lam, sigma2=sigma2_true),
                          analytic_posterior(bank, kernel, lam, sigma2_true))
    checks: list = []

    # conditionals against Schur extractions at a random anchor state;
    # every bank here has the same inputs, so one dense grid serves all
    anchor = frozen[True][1].mean + 0.3 * rng.standard_normal(m * p)
    cross = bank.cross_state(anchor)
    dense = bank.dense_gram()
    exact = dense @ anchor
    drift = float(np.max(np.abs(bank.gram_product(cross) - exact))
                  / np.max(np.abs(exact)))
    # every single channel and pair by both routes: drawn often, by its
    # spectrum (at one scale factor for the whole block only), and drawn
    # rarely, by a factor of its precision
    spectra = conditionals.BlockSpectra(bank, kernel)
    blocks = [*combinations(range(m), 1), *combinations(range(m), 2)]
    worst = {1: 0.0, 2: 0.0}
    for hyper, joint in frozen.values():
        for channels in blocks:
            idx = (p * np.array(channels)[:, None] + np.arange(p)).ravel()
            mean_ref, cov_ref = joint_conditional(joint, idx, anchor)
            for often in (True, False):
                cond = conditionals.block_conditional(
                    channels, anchor, cross, hyper, spectra, often)
                worst[len(channels)] = max(
                    worst[len(channels)],
                    float(np.max(np.abs(cond.mean - mean_ref))),
                    float(np.max(np.abs(cond.covariance - cov_ref))))
    for size, kind in ((1, "single"), (2, "pair")):
        checks.append(OracleCheck(
            f"{kind}-block conditional vs joint posterior", worst[size], 1e-8))

    schedule = problem.block_schedule(20.0)
    for variant in VARIANTS:
        config = SamplerConfig(variant=variant, n_mc=n_sweeps, beta=20.0,
                               n_ob=2, burn_in=0, seed=seed + 1)
        hyper, joint = frozen[config.common_scale]
        sd = np.sqrt(np.diag(joint.covariance))
        chain_rng = np.random.default_rng(config.seed)
        state = init_chain(problem)
        draws = np.empty((n_sweeps, m * p))
        for t in range(n_sweeps):
            draw_coefficients(state.theta, state.cross, hyper, problem,
                              schedule, config, chain_rng)
            draws[t] = state.theta
        zmax = 0.0
        for c in range(m * p):
            tau = iact(draws[:, c])
            se = sd[c] * np.sqrt(tau / n_sweeps)
            zmax = max(zmax, abs(draws[:, c].mean() - joint.mean[c]) / se)
        checks.append(OracleCheck(
            f"{variant} frozen-hyper chain mean vs analytic", zmax, 3.0))
        exact = dense @ state.theta
        drift = max(drift, float(np.max(np.abs(
            problem.bank.gram_product(state.cross) - exact))
            / np.max(np.abs(exact))))
    checks.append(OracleCheck("running cross-product vs G'G theta", drift,
                              1e-9))
    return OracleCheckReport(checks=checks)
