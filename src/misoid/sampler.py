"""Gibbs chain runner: plain and overlapping-block variants.

Four variants share one sweep structure:

    GS     common scale factor, single-channel updates only
    GSd    per-channel scale factors, single-channel updates only
    GSOB   common scale factor plus n_ob block updates per iteration
    GSOBd  per-channel scale factors plus block updates

Each iteration samples, in order: the scale factor(s), the noise variance
(both conditioned on the previous iteration's coefficients), the m channel
blocks sequentially against the freshest values, and finally -- for the OB
variants -- ``n_ob`` jointly updated blocks of channels drawn from the
:class:`BlockSchedule`.  The coefficient sample recorded for an iteration
is the state after the block updates.

A sweep is :func:`draw_hyper` then :func:`draw_coefficients`; to sample
the coefficients at fixed hyperparameters, call :func:`draw_coefficients`
from an :func:`init_chain` state with a fixed :class:`HyperState`.  Its
single channels are one flat pass (:func:`draw_channels`), its scheduled
blocks come from :func:`block_conditional`, which builds a block's
covariance root once per call however often the call draws the block;
both draw exactly what that conditional, taken one block at a time, would.

A chain also carries a running state of G'G theta as spectra of the
bank's lag structure (:class:`ChainState`): a block draw moves it by the
changed channel's panel spectrum times the change's DFT, O(mp) per
channel, so no sweep reads an mp-by-mp grid and none exists.  A single
channel's conditional is one product of the state with the channel's
kept map (:func:`single_conditional`).

:func:`run` returns a chain's :class:`ChainRecord` whether the chain
finishes or ends in a numerical abort.

Chains are deterministic given (data, config, seed).  Replicates use seeds
derived from the master seed by a splitmix64-style mix of the replicate
index, so a replicate's chain does not depend on how many others run.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blocks import (BlockSchedule, compute_block_probabilities,
                     compute_correlations, select_block)
from .conditionals import (PAIR_SPECTRUM_DRAWS, BlockSpectra, HyperState,
                           block_conditional, draw_gaussian,
                           sample_lambda_common, sample_lambda_k,
                           sample_sigma2_from_sumsq, single_conditional,
                           spectral_scales)
from .errors import NUMERICAL_ERRORS, FactorizationError
from .kernel import StableSplineKernel, build_kernel
from .regression import Dataset, RegressorBank

VARIANTS = ("GS", "GSd", "GSOB", "GSOBd")


def scale_names(variant: str, m: int) -> list:
    """Scale-factor trace columns: one common scale, or one per channel."""
    return (["lambda"] if variant in ("GS", "GSOB")
            else [f"lambda_{k}" for k in range(m)])


@dataclass
class SamplerConfig:
    """How one chain explores the posterior that :func:`build_problem`
    defines; the prior's decay rate and FIR order belong to the problem."""

    variant: str = "GSOB"
    n_mc: int = 500
    beta: float | None = None
    n_ob: int = 1
    burn_in: int | None = None       # default: n_mc // 2
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {VARIANTS}")
        if self.n_mc < 1:
            raise ValueError("need at least one iteration")
        if self.thin < 1:
            raise ValueError("thinning factor must be >= 1")
        if self.burn_in is None:
            self.burn_in = self.n_mc // 2
        if not 0 <= self.burn_in < self.n_mc:
            raise ValueError(
                f"burn-in must lie in [0, n_mc), got {self.burn_in}")
        if (self.n_mc // self.thin) * self.thin <= self.burn_in:
            raise ValueError(
                f"thinning by {self.thin} stores no iteration after the "
                f"burn-in ({self.burn_in} of {self.n_mc})")
        if self.uses_blocks:
            if self.n_ob < 1:
                raise ValueError("overlapping-block variants need n_ob >= 1")
            if self.beta is None or not 0 < self.beta < np.inf:
                raise ValueError(
                    "overlapping-block variants need a positive, finite "
                    f"selection rate beta (no default), got {self.beta}")

    @property
    def common_scale(self) -> bool:
        return self.variant in ("GS", "GSOB")

    @property
    def uses_blocks(self) -> bool:
        return self.variant in ("GSOB", "GSOBd")


@dataclass
class Problem:
    """Dataset plus the immutable structures every sweep reads."""

    data: Dataset
    bank: RegressorBank
    kernel: StableSplineKernel
    # block spectra, shared by the problem's chains
    spectra: BlockSpectra = field(init=False, repr=False, compare=False)
    # block schedules by selection rate, shared likewise
    _schedules: dict = field(init=False, repr=False, compare=False,
                             default_factory=dict)

    def __post_init__(self):
        self.spectra = BlockSpectra(self.bank, self.kernel)

    @cached_property
    def correlations(self) -> np.ndarray:
        """Absolute input correlations (read-only), computed on first use
        and shared by every block-variant chain of the problem."""
        c = compute_correlations(self.data)
        c.setflags(write=False)
        return c

    def block_schedule(self, beta: float) -> BlockSchedule:
        """The pair schedule at selection rate ``beta`` (read-only arrays),
        built on first use and shared by every block-variant chain of the
        problem, and by the ``pmatrix.csv`` of each."""
        found = self._schedules.get(beta)
        if found is None:
            found = compute_block_probabilities(self.correlations, beta)
            for arr in (found.probs, found.cumulative):
                arr.setflags(write=False)
            self._schedules[beta] = found
        return found


def build_problem(data: Dataset, alpha: float, p: int) -> Problem:
    """The posterior of ``data`` under the stable spline prior of decay
    ``alpha`` on FIR responses of length ``p`` (ValueError if the kernel
    cannot be built from them), ready for any number of chains."""
    kernel = build_kernel(alpha, p)
    bank = RegressorBank(data, kernel.p)
    return Problem(data=data, bank=bank, kernel=kernel)


@dataclass
class ChainState:
    """One chain's current values.

    ``cross`` is the running state of theta
    (:meth:`RegressorBank.cross_state`), an (m+1)-by-p complex array: the
    size-N DFTs, N = 2p - 1, of m + 1 rows, which the bank reads back
    (:meth:`RegressorBank.state_rows`).  Row k < m holds
    sum_j Toep(lag_kj) theta_j and row m the tail sum s = sum_j T_j theta_j,
    so G_k'G theta is row k minus T_k' s, and theta'G'G theta is
    theta . rows - s . s.  Only the bank's ``set_channel`` changes it.
    """

    theta: np.ndarray
    cross: np.ndarray
    hyper: HyperState


@dataclass
class ChainRecord:
    """Stored traces of one chain, finished or ended by a numerical abort."""

    variant: str
    m: int
    p: int
    n_mc: int
    burn_in: int
    thin: int
    seed: int
    theta_samples: np.ndarray        # (n_stored, m*p)
    lambda_trace: np.ndarray         # (completed, len(scale_names))
    sigma2_trace: np.ndarray         # (completed,)
    selected_blocks: np.ndarray      # (n_selected, 3): iteration, i, j
    # wall seconds of the run that made it: "init" and "sweeps"
    seconds: dict = field(default_factory=dict)
    # the message of the numerical abort that ended the chain, or None
    error: str | None = None

    @property
    def scale_names(self) -> list:
        return scale_names(self.variant, self.m)

    @property
    def completed(self) -> int:
        """Iterations actually swept."""
        return self.lambda_trace.shape[0]

    @property
    def aborted(self) -> bool:
        return self.completed < self.n_mc

    @cached_property
    def summary(self) -> PosteriorSummary:
        """Posterior summaries over the stored post-burn-in samples."""
        keep = self.stored_iterations > self.burn_in
        samples = self.theta_samples[keep]
        if samples.shape[0] == 0:
            raise ValueError(
                "no retained samples: burn-in swallowed the chain")
        q = np.quantile(samples, [0.025, 0.975], axis=0)
        return PosteriorSummary(
            mean=samples.mean(axis=0),
            sd=samples.std(axis=0, ddof=1) if samples.shape[0] > 1
            else np.zeros(samples.shape[1]),
            q025=q[0], q975=q[1],
        )

    @property
    def stored_iterations(self) -> np.ndarray:
        """1-based iteration index of each stored draw."""
        return np.arange(1, self.theta_samples.shape[0] + 1) * self.thin


@dataclass
class PosteriorSummary:
    """Per-coefficient posterior mean, sd and central 95% band."""

    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q975: np.ndarray


def derive_seed(master: int, index: int) -> int:
    """Replicate seed: splitmix64 mix of the master seed and index."""
    mask = (1 << 64) - 1
    x = (int(master) + (index + 1) * 0x9E3779B97F4A7C15) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


INIT_RIDGE_EPSILON = 1e-8


def prior_scale(y: np.ndarray, kernel: StableSplineKernel) -> float:
    """var(y) tr(K^-1), whose inverse scales the ridge of the initial fit
    (:func:`init_chain`); inf when the product overflows, which leaves the
    fit no ridge at all."""
    return float(np.var(y)) * float(np.trace(kernel.Kinv))


def init_chain(problem: Problem) -> ChainState:
    """Starting state: unit scale factors, output-variance noise level, and
    sequential per-channel least-squares coefficients, each channel fitted
    to the residual its predecessors leave behind (with a vanishing
    prior-shaped regularization, relative weight 1e-8, for conditioning).

    The sequential fit guarantees nonzero quadratic forms for the first
    scale-factor draws, and it resolves duplicated inputs greedily: the
    first channel absorbs the shared signal, later near-copies start close
    to zero -- the regime in which the per-channel-scale samplers are known
    to pin them.  Each fit is the mean of the channel's spectral posterior
    at scale factor 1/eps and noise variance sigma2_0."""
    y = problem.data.y
    sigma2_0 = float(np.var(y))
    if not sigma2_0 > 0.0:
        raise ValueError("degenerate output: zero sample variance")
    bank, kernel = problem.bank, problem.kernel
    m, p = bank.m, kernel.p
    theta0 = np.zeros(m * p)
    cross = bank.cross_state(theta0)
    ridge = INIT_RIDGE_EPSILON / prior_scale(y, kernel)
    for k in range(m):
        gram = problem.spectra.gram((k,))
        eps = ridge * float(np.trace(gram))
        if not eps > 0.0:
            raise FactorizationError(
                f"initialization: channel {k} has no data"
                if not np.trace(gram) > 0.0 else
                "initialization: the prior scale var(y) * tr(K^-1) overflows "
                f"(var(y) = {sigma2_0:g}, alpha = {kernel.alpha:g}, "
                f"fir_order = {p})")
        scale = spectral_scales(1.0 / eps, 1.0 / sigma2_0,
                                problem.spectra.single_evals[k])
        fit = single_conditional(problem.spectra, k, scale, scale / sigma2_0,
                                 theta0, cross)
        bank.set_channel(theta0, cross, k, fit.mean)
    return ChainState(theta=theta0, cross=cross,
                      hyper=HyperState(lam=np.ones(m), sigma2=sigma2_0))


def draw_hyper(theta: np.ndarray, cross: np.ndarray, problem: Problem,
               config: SamplerConfig, rng: np.random.Generator) -> HyperState:
    """First Gibbs step: the scale factor(s), then the noise variance, each
    given the coefficients ``theta`` (with running state ``cross``).  A
    common scale factor fills all m entries of ``lam``."""
    bank, kernel = problem.bank, problem.kernel
    m, p, n = bank.m, kernel.p, problem.data.n
    if config.common_scale:
        lam = np.full(m, sample_lambda_common(theta, kernel, rng))
    else:
        lam = sample_lambda_k(theta.reshape(m, p), kernel, rng)
    sigma2 = sample_sigma2_from_sumsq(bank.residual_sumsq(theta, cross), n,
                                      rng)
    return HyperState(lam=lam, sigma2=sigma2)


def draw_coefficients(theta: np.ndarray, cross: np.ndarray,
                      hyper: HyperState, problem: Problem,
                      schedule: BlockSchedule | None, config: SamplerConfig,
                      rng: np.random.Generator) -> list:
    """Second Gibbs step, given ``hyper``: the m channel blocks in order,
    then ``n_ob`` blocks of channels from ``schedule`` for the block
    variants.  Updates ``theta`` and ``cross`` in place; returns the
    channel tuples drawn.  Every state update writes into the buffers of
    ``problem.bank`` (see :meth:`RegressorBank.set_channel`), so the
    chains of a problem take their steps one at a time."""
    bank = problem.bank
    if hyper.lam.shape != (bank.m,):
        raise ValueError(f"need {bank.m} scale factors, got an array of "
                         f"shape {hyper.lam.shape}")
    n_ob = config.n_ob if config.uses_blocks else 0
    p = bank.p
    draw_channels(theta, cross, hyper, problem, rng)

    selected: list = []
    # the root of each block drawn so far, at this call's fixed hyper
    roots: dict = {}
    for _ in range(n_ob):
        b = select_block(schedule, rng)
        channels = schedule.blocks[b]
        # a block spectrum, or a kept gram, repays its build only on a block
        # the chain is expected to draw often; a rarer block builds its
        # gram anew, and it or a block whose scale factors differ factors
        # its precision, once per call
        often = schedule.probs[b] * (n_ob * config.n_mc) >= PAIR_SPECTRUM_DRAWS
        post = block_conditional(channels, theta, cross, hyper,
                                 problem.spectra, often, roots)
        z = draw_gaussian(post, rng)
        for r, k in enumerate(channels):
            bank.set_channel(theta, cross, k, z[r * p:(r + 1) * p])
        selected.append(channels)
    return selected


def draw_channels(theta: np.ndarray, cross: np.ndarray, hyper: HyperState,
                  problem: Problem, rng: np.random.Generator) -> None:
    """The m single-channel blocks in channel order, each drawn from its
    spectrum against the freshest values.  The pass takes the channels'
    spectral scales as one (m, p) table and its m*p standard normals from
    one call, the same stream as m calls of p."""
    bank, spectra = problem.bank, problem.spectra
    m, p = bank.m, bank.p
    inv_s2 = 1.0 / hyper.sigma2
    scales = spectral_scales(hyper.lam[:, None], inv_s2, spectra.single_evals)
    weights = inv_s2 * scales
    noise = rng.standard_normal(m * p).reshape(m, p)
    for k in range(m):
        post = single_conditional(spectra, k, scales[k], weights[k], theta,
                                  cross)
        bank.set_channel(theta, cross, k,
                         post.root.times(post.whitened + noise[k]))


def sweep(state: ChainState, problem: Problem,
          schedule: BlockSchedule | None, config: SamplerConfig,
          rng: np.random.Generator) -> tuple[ChainState, list]:
    """One Gibbs iteration on a copy of ``state``: the new state and the
    blocks drawn."""
    theta, cross = state.theta.copy(), state.cross.copy()
    hyper = draw_hyper(theta, cross, problem, config, rng)
    selected = draw_coefficients(theta, cross, hyper, problem, schedule,
                                 config, rng)
    return ChainState(theta=theta, cross=cross, hyper=hyper), selected


def run(problem: Problem, config: SamplerConfig) -> ChainRecord:
    """Run one chain to completion or to a numerical abort.

    After an abort the record holds the sweeps before it and the abort's
    message in ``error``.  Either record times chain initialization and
    the sweeps.
    """
    rng = np.random.default_rng(config.seed)
    m, p = problem.bank.m, problem.kernel.p
    schedule = (problem.block_schedule(config.beta) if config.uses_blocks
                else None)

    theta_samples = np.empty((config.n_mc // config.thin, m * p))
    # a common scale fills all m entries of lam, so its first is the trace
    n_scales = len(scale_names(config.variant, m))
    lambda_trace = np.empty((config.n_mc, n_scales))
    sigma2_trace = np.empty(config.n_mc)
    block_log: list = []
    completed, error, seconds = 0, None, {}

    started = time.perf_counter()
    try:
        state = init_chain(problem)
        seconds["init"] = time.perf_counter() - started
        for t in range(1, config.n_mc + 1):
            state, selected = sweep(state, problem, schedule, config, rng)
            lambda_trace[t - 1] = state.hyper.lam[:n_scales]
            sigma2_trace[t - 1] = state.hyper.sigma2
            block_log.extend((t, i, j) for i, j in selected)
            if t % config.thin == 0:
                theta_samples[t // config.thin - 1] = state.theta
            completed = t
    except NUMERICAL_ERRORS as exc:
        error = str(exc)
    # an abort in the initial fit leaves all of the time to "init"
    elapsed = time.perf_counter() - started
    seconds["sweeps"] = elapsed - seconds.setdefault("init", elapsed)
    return ChainRecord(
        variant=config.variant, m=m, p=p, n_mc=config.n_mc,
        burn_in=config.burn_in, thin=config.thin, seed=config.seed,
        theta_samples=theta_samples[:completed // config.thin],
        lambda_trace=lambda_trace[:completed],
        sigma2_trace=sigma2_trace[:completed],
        selected_blocks=np.array(block_log, dtype=np.int64).reshape(-1, 3),
        seconds=seconds, error=error,
    )


# --------------------------------------------------------------------------
# Chain persistence
# --------------------------------------------------------------------------

def _write_table(outdir, name: str, columns: list, rows: np.ndarray,
                 int_columns: int) -> None:
    """Write ``rows`` as ``outdir/name`` under a header of ``columns``: the
    first ``int_columns`` as integers, the rest to 17 significant digits."""
    fmt = ["%d"] * int_columns + ["%.17g"] * (len(columns) - int_columns)
    np.savetxt(os.path.join(outdir, name), rows, fmt=fmt, delimiter=",",
               header=",".join(columns), comments="")


def _read_table(outdir, name: str, columns: list, dtype=float) -> np.ndarray:
    """The rows of a table :func:`_write_table` wrote, once its header is
    checked against ``columns``; a table without rows reads as empty."""
    with open(os.path.join(outdir, name)) as fh:
        header = fh.readline().strip()
        if header != ",".join(columns):
            raise ValueError(f"{name} has header {header!r}, expected "
                             f"{','.join(columns)!r}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            return np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2,
                              usecols=range(len(columns)))


def save_record(record: ChainRecord, outdir) -> None:
    """Write the chain artifacts into ``outdir``.

    lambda.csv / sigma2.csv   lambda and sigma2 traces, one row per iteration
    theta_samples.npy         stored coefficient draws, row per iteration
    blocks.csv                pair-update log (iteration, i, j), 0-based
    summary.csv               posterior summaries (a finished chain only)
    record.json               layout metadata (variant, sizes, burn-in, ...)
    """
    os.makedirs(outdir, exist_ok=True)
    iterations = np.arange(1, record.completed + 1)
    _write_table(outdir, "lambda.csv", ["iteration", *record.scale_names],
                 np.column_stack([iterations, record.lambda_trace]), 1)
    _write_table(outdir, "sigma2.csv", ["iteration", "sigma2"],
                 np.column_stack([iterations, record.sigma2_trace]), 1)
    np.save(os.path.join(outdir, "theta_samples.npy"), record.theta_samples)
    _write_table(outdir, "blocks.csv", ["iteration", "i", "j"],
                 record.selected_blocks, 3)
    if not record.aborted:
        summary = record.summary
        c = np.arange(summary.mean.size)
        rows = np.column_stack([c, *np.divmod(c, record.p), summary.mean,
                                summary.sd, summary.q025, summary.q975])
        _write_table(outdir, "summary.csv", ["coefficient", "channel", "lag",
                                             "mean", "sd", "q025", "q975"],
                     rows, 3)
    meta = {
        "variant": record.variant, "m": record.m, "p": record.p,
        "n_mc": record.n_mc, "burn_in": record.burn_in, "thin": record.thin,
        "seed": record.seed, "completed": record.completed,
        "aborted": record.aborted,
    }
    with open(os.path.join(outdir, "record.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_record(outdir) -> ChainRecord:
    """Reload a persisted chain (for diagnostics runs)."""
    with open(os.path.join(outdir, "record.json")) as fh:
        meta = json.load(fh)
    lam = _read_table(outdir, "lambda.csv",
                      ["iteration", *scale_names(meta["variant"], meta["m"])])
    sig = _read_table(outdir, "sigma2.csv", ["iteration", "sigma2"])
    for name, table in (("lambda.csv", lam), ("sigma2.csv", sig)):
        if table.shape[0] != meta["completed"]:
            raise ValueError(f"{name} has {table.shape[0]} rows for "
                             f"{meta['completed']} completed iterations")
    theta = np.load(os.path.join(outdir, "theta_samples.npy"))
    stored = (meta["completed"] // meta["thin"], meta["m"] * meta["p"])
    if theta.shape != stored:
        raise ValueError(f"theta_samples.npy has shape {theta.shape}, "
                         f"expected {stored}: {meta['completed']} completed "
                         f"iterations thinned by {meta['thin']}, "
                         f"{meta['m']} x {meta['p']} coefficients")
    return ChainRecord(
        variant=meta["variant"], m=meta["m"], p=meta["p"], n_mc=meta["n_mc"],
        burn_in=meta["burn_in"], thin=meta["thin"], seed=meta["seed"],
        theta_samples=theta,
        lambda_trace=lam[:, 1:], sigma2_trace=sig[:, 1],
        selected_blocks=_read_table(outdir, "blocks.csv",
                                    ["iteration", "i", "j"], np.int64),
    )
