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
single channels are one flat pass (:func:`draw_channels`) over the
problem's tables of maps, bases and panel spectra, its scheduled blocks
come from :func:`block_conditional`, which builds a block's covariance
root once per call however often the call draws the block; both draw
exactly from that conditional, taken one block at a time.  The flat pass
is the one single-channel formula: the chain's start is that pass too,
without noise.

A chain also carries a running state of G'G theta as spectra of the
bank's lag structure (:class:`ChainState`): a block draw moves it by the
changed channel's panel spectrum times the change's DFT, O(mp) per
channel, so no sweep reads an mp-by-mp grid and none exists.  A single
channel's conditional is one product of the state with the channel's
kept map.  A chain writes into its own arrays only, so the chains of a
problem share its bank and tables.

Work that does not depend on the chain is done once per problem and
shared by its chains, as the :class:`Problem` holds it: the single
channels' tables with the problem, and on first use the start
(:attr:`Problem.start`, the greedy fit of :func:`init_chain`), the input
correlations, read from the bank's lag-0 sums, each selection rate's
block schedule, and the spectrum and gram of each block drawn often.
A chain pays only for its sweeps.

:func:`run` returns a chain's :class:`ChainRecord` whether the chain
finishes or ends in a numerical abort.

Chains are deterministic given (data, config, seed).  Replicates use seeds
derived from the master seed by a splitmix64-style mix of the replicate
index, so a replicate's chain does not depend on how many others run.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blocks import (BlockSchedule, compute_block_probabilities,
                     compute_correlations, select_block)
from .conditionals import (PAIR_SPECTRUM_DRAWS, BlockSpectrum, HyperState,
                           block_conditional, block_spectrum, draw_gaussian,
                           sample_lambda_common, sample_lambda_k,
                           sample_sigma2_from_sumsq, spectral_scales)
from .errors import NUMERICAL_ERRORS, FactorizationError
from .kernel import StableSplineKernel, build_kernel
from .regression import (Dataset, RegressorBank, read_table, write_json,
                         write_table)

VARIANTS = ("GS", "GSd", "GSOB", "GSOBd")


def scale_names(variant: str, m: int) -> list:
    """Scale-factor trace columns: one common scale, or one per channel."""
    return (["lambda"] if variant in ("GS", "GSOB")
            else [f"lambda_{k}" for k in range(m)])


def check_integers(**values) -> None:
    """Refuse, by a ValueError, any value that is not an integer (a bool
    is not one)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_layout(variant: str, n_mc: int, burn_in: int, thin: int,
                 m: int = 1, p: int = 1, completed: int = 0,
                 seed: int = 0) -> None:
    """Refuse, by a ValueError, a chain layout that cannot exist: the one
    rule for every :class:`SamplerConfig` and every record
    :func:`load_record` reads."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choose from {VARIANTS}")
    check_integers(n_mc=n_mc, burn_in=burn_in, thin=thin, m=m, p=p,
                   completed=completed, seed=seed)
    if n_mc < 1:
        raise ValueError("need at least one iteration")
    if min(m, p) < 1:
        raise ValueError(f"need a channel and a lag, got m = {m}, p = {p}")
    if thin < 1:
        raise ValueError("thinning factor must be >= 1")
    if not 0 <= burn_in < n_mc:
        raise ValueError(f"burn-in must lie in [0, n_mc), got {burn_in}")
    if (n_mc // thin) * thin <= burn_in:
        raise ValueError(
            f"thinning by {thin} stores no iteration after the "
            f"burn-in ({burn_in} of {n_mc})")
    if not 0 <= completed <= n_mc:
        raise ValueError(f"{completed} iterations completed of {n_mc}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


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
        # the default burn-in reads n_mc, so n_mc is checked before it
        check_integers(n_mc=self.n_mc)
        if self.burn_in is None:
            self.burn_in = self.n_mc // 2
        check_layout(self.variant, self.n_mc, self.burn_in, self.thin,
                     seed=self.seed)
        if self.uses_blocks:
            check_integers(n_ob=self.n_ob)
            if self.n_ob < 1:
                raise ValueError("overlapping-block variants need n_ob >= 1")
            if not (isinstance(self.beta, numbers.Real)
                    and 0 < self.beta < np.inf):
                raise ValueError(
                    "overlapping-block variants need a positive, finite "
                    f"selection rate beta (no default), got {self.beta!r}")

    @property
    def common_scale(self) -> bool:
        return self.variant in ("GS", "GSOB")

    @property
    def uses_blocks(self) -> bool:
        return self.variant in ("GSOB", "GSOBd")


@dataclass
class Problem:
    """Dataset plus the immutable structures every sweep reads, and the
    one cache of what every chain of the posterior shares.

    Every chain draws every channel, so the problem is built with the m
    single channels' spectra, as stacked read-only tables that one sweep
    reads to draw every channel: bases ``single_bases`` (m, p, p),
    eigenvalues ``single_evals`` (m, p) and the bank's ``projection_map``
    of each basis, ``single_maps`` (m, 5p+1, p; 10 MB at m = 100 and
    p = 50), which whitens a channel's right-hand side from the chain's
    state in one product.  The rest is built on first use and kept: the
    start, the input correlations, each selection rate's block schedule,
    a wider block's spectrum (:meth:`spectrum`) and the gram of every
    block asked for (:meth:`gram`), so that a block drawn often under two
    scale factors, which no spectrum covers, builds its gram once."""

    data: Dataset
    bank: RegressorBank
    kernel: StableSplineKernel

    def __post_init__(self):
        # spectra and grams by channel tuple, block schedules by rate
        self._spectra, self._grams, self._schedules = {}, {}, {}
        m, p = self.bank.m, self.bank.p
        self.single_bases = np.empty((m, p, p))
        self.single_evals = np.empty((m, p))
        self.single_maps = np.empty((m, 5 * p + 1, p))
        for k in range(m):
            basis, self.single_evals[k] = block_spectrum(self.gram((k,)),
                                                         self.kernel.chol)
            self.single_bases[k] = basis
            self.bank.projection_map(k, basis, self.single_maps[k])
        for arr in (self.single_bases, self.single_evals, self.single_maps):
            arr.setflags(write=False)
        self._spectra.update(
            ((k,), BlockSpectrum(self.single_bases[k], self.single_evals[k]))
            for k in range(m))

    def spectrum(self, channels: tuple[int, ...]) -> BlockSpectrum:
        """The spectrum of the block ``channels``: a view of the tables
        for a single channel, built on a wider block's first use and
        kept."""
        found = self._spectra.get(channels)
        if found is None:
            found = block_spectrum(self.gram(channels), self.kernel.chol)
            self._spectra[channels] = found
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

    @cached_property
    def correlations(self) -> np.ndarray:
        """Absolute input correlations (read-only), computed on first use
        and shared by every block-variant chain of the problem.  They come
        from the lag-0 sums the bank already holds
        (:meth:`RegressorBank.zero_lag_sums`) and the input means: O(m^2 p)
        after one O(mn) pass for the means, with no O(m^2 n) pass over the
        inputs."""
        c = compute_correlations(self.data, self.bank.zero_lag_sums())
        c.setflags(write=False)
        return c

    @cached_property
    def start(self) -> ChainState:
        """:func:`init_chain`'s state, its arrays read-only, built on first
        use and shared by every chain of the problem: the start does not
        depend on the chain.  A sweep copies the state it starts from.  A
        fit that aborts is not kept, so each chain that asks for it
        aborts alike."""
        state = init_chain(self)
        for arr in (state.theta, state.cross, state.hyper.lam):
            arr.setflags(write=False)
        return state

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
    """One chain's current values: the coefficients, their running state
    ``cross`` (:meth:`RegressorBank.cross_state`), which only a channel's
    update changes (the bank's ``set_channel``, or the same move in
    :func:`draw_channels`), and the hyperparameters."""

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
                f"no retained samples: a burn-in of {self.burn_in} swallowed "
                f"the {self.completed} completed iterations")
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
    """Starting state, a new one on each call: unit scale factors,
    output-variance noise level, and sequential per-channel least-squares
    coefficients, each channel fitted to the residual its predecessors
    leave behind (with a vanishing prior-shaped regularization, relative
    weight 1e-8, for conditioning).  :func:`run` starts every chain of a
    problem from one such state, :attr:`Problem.start`.

    The sequential fit guarantees nonzero quadratic forms for the first
    scale-factor draws, and it resolves duplicated inputs greedily: the
    first channel absorbs the shared signal, later near-copies start close
    to zero -- the regime in which the per-channel-scale samplers are known
    to pin them.  Each fit is the mean of the channel's spectral posterior
    at scale factor 1/eps_k and noise variance sigma2_0: one
    :func:`draw_channels` pass from zero without noise."""
    y = problem.data.y
    sigma2_0 = float(np.var(y))
    if not sigma2_0 > 0.0:
        raise ValueError("degenerate output: zero sample variance")
    bank, kernel = problem.bank, problem.kernel
    m, p = bank.m, kernel.p
    traces = np.array([np.trace(bank.gram(k, k)) for k in range(m)])
    eps = (INIT_RIDGE_EPSILON / prior_scale(y, kernel)) * traces
    bad = np.flatnonzero(~(eps > 0.0))
    if bad.size:
        raise FactorizationError(
            f"initialization: channel {bad[0]} has no data"
            if not traces[bad[0]] > 0.0 else
            "initialization: the prior scale var(y) * tr(K^-1) overflows "
            f"(var(y) = {sigma2_0:g}, alpha = {kernel.alpha:g}, "
            f"fir_order = {p})")
    # 1/eps overflows to inf for a subnormal eps: that channel's fit has no
    # ridge
    with np.errstate(over="ignore"):
        hyper = HyperState(lam=1.0 / eps, sigma2=sigma2_0)
    theta0 = np.zeros(m * p)
    # the running state of theta0, as bank.cross_state(theta0) builds it
    cross = np.zeros((m + 1, p), dtype=complex)
    draw_channels(theta0, cross, hyper, problem, np.zeros((m, p)))
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
    channel tuples drawn.  The single channels' m*p standard normals come
    from one call, the same stream as m calls of p."""
    bank = problem.bank
    if hyper.lam.shape != (bank.m,):
        raise ValueError(f"need {bank.m} scale factors, got an array of "
                         f"shape {hyper.lam.shape}")
    n_ob = config.n_ob if config.uses_blocks else 0
    m, p = bank.m, bank.p
    draw_channels(theta, cross, hyper, problem,
                  rng.standard_normal(m * p).reshape(m, p))

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
        post = block_conditional(channels, theta, cross, hyper, problem,
                                 often, roots)
        z = draw_gaussian(post, rng)
        for r, k in enumerate(channels):
            bank.set_channel(theta, cross, k, z[r * p:(r + 1) * p])
        selected.append(channels)
    return selected


def draw_channels(theta: np.ndarray, cross: np.ndarray, hyper: HyperState,
                  problem: Problem, noise: np.ndarray) -> None:
    """The m single-channel blocks in channel order, each drawn from its
    spectrum against the freshest values, in one flat pass over the
    problem's tables: each channel's map and basis (``single_maps``,
    ``single_bases``) and panel spectrum (``problem.bank``), with buffers
    made once per pass.  The pass takes the channels' spectral scales as one (m, p)
    table and its standard normals as the (m, p) array ``noise``; zero
    noise gives each channel's conditional mean.

    Channel k's step whitens its right-hand side,
    w = inv_s2 scale * ([theta_k, state row k, tail row, 1] map_k), draws
    W_k (scale * (w + z)), as :func:`draw_gaussian` would from the
    channel's spectral root, and moves the state as ``bank.set_channel``
    does.  The move is written out here, with the pass's buffers, rather
    than called: a call of ``bank.set_channel`` per channel, which makes
    its change and move anew, made the GS coefficient step at m = 20,
    p = 50 about 5 % slower (median of 8 alternating in-process runs of
    3000 steps, 2-vCPU x86, BLAS on one thread)."""
    bank = problem.bank
    m, p = bank.m, bank.p
    inv_s2 = 1.0 / hyper.sigma2
    scales = spectral_scales(hyper.lam[:, None], inv_s2, problem.single_evals)
    weights = inv_s2 * scales
    maps, bases = problem.single_maps, problem.single_bases
    panels, forward = bank.panel_spectra, bank.forward_dft
    stacked = np.empty(5 * p + 1)
    stacked[-1] = 1.0
    whitened, value, change = np.empty(p), np.empty(p), np.empty(p)
    change_dft = np.empty(2 * p)
    change_bins = change_dft.view(complex)
    move = np.empty_like(cross)
    state = cross.view(float)
    tail = state[m]
    for k in range(m):
        current = theta[k * p:(k + 1) * p]
        stacked[:p] = current
        stacked[p:3 * p] = state[k]
        stacked[3 * p:5 * p] = tail
        np.dot(stacked, maps[k], out=whitened)
        np.multiply(weights[k], whitened, out=whitened)
        whitened += noise[k]
        whitened *= scales[k]
        np.dot(bases[k], whitened, out=value)
        np.subtract(value, current, out=change)
        np.dot(change, forward, out=change_dft)
        cross += np.multiply(panels[k], change_bins, out=move)
        current[...] = value


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
    """Run one chain to completion or to a numerical abort, from the
    problem's shared start (:attr:`Problem.start`; the first chain of a
    problem builds it, and a sweep copies the state it starts from).

    After an abort the record holds the sweeps before it and the abort's
    message in ``error``.  Either record times chain initialization, the
    start's build or nothing, and the sweeps.
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
        state = problem.start
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

def save_record(record: ChainRecord, outdir) -> None:
    """Write the chain artifacts into ``outdir`` (regression's formats).

    lambda.csv / sigma2.csv   lambda and sigma2 traces, one row per iteration
    theta_samples.npy         stored coefficient draws, row per iteration
    blocks.csv                pair-update log (iteration, i, j), 0-based
    summary.csv               posterior summaries (a finished chain only)
    record.json               layout metadata (variant, sizes, burn-in, ...)
    """
    os.makedirs(outdir, exist_ok=True)
    iterations = np.arange(1, record.completed + 1)
    write_table(os.path.join(outdir, "lambda.csv"),
                ["iteration", *record.scale_names],
                np.column_stack([iterations, record.lambda_trace]), 1)
    write_table(os.path.join(outdir, "sigma2.csv"), ["iteration", "sigma2"],
                np.column_stack([iterations, record.sigma2_trace]), 1)
    np.save(os.path.join(outdir, "theta_samples.npy"), record.theta_samples)
    write_table(os.path.join(outdir, "blocks.csv"), ["iteration", "i", "j"],
                record.selected_blocks, 3)
    if not record.aborted:
        summary = record.summary
        c = np.arange(summary.mean.size)
        rows = np.column_stack([c, *np.divmod(c, record.p), summary.mean,
                                summary.sd, summary.q025, summary.q975])
        write_table(os.path.join(outdir, "summary.csv"),
                    ["coefficient", "channel", "lag", "mean", "sd", "q025",
                     "q975"], rows, 3)
    write_json(os.path.join(outdir, "record.json"), {
        "variant": record.variant, "m": record.m, "p": record.p,
        "n_mc": record.n_mc, "burn_in": record.burn_in, "thin": record.thin,
        "seed": record.seed, "completed": record.completed,
        "aborted": record.aborted,
    })


def load_record(outdir) -> ChainRecord:
    """Reload a persisted chain (for diagnostics runs).  A ``record.json``
    whose layout no chain can have (:func:`check_layout`), or a file that
    does not match it, is refused by a ValueError naming its path."""
    path = os.path.join(outdir, "record.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
        layout = {name: meta[name] for name in (
            "variant", "m", "p", "n_mc", "burn_in", "thin", "seed")}
        completed = meta["completed"]
        check_layout(**layout, completed=completed)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a chain record ({exc})") from None

    def trace(name: str, columns: list) -> np.ndarray:
        path = os.path.join(outdir, name)
        _, table = read_table(path, ["iteration", *columns])
        if table.shape[0] != completed:
            raise ValueError(f"{path}: {table.shape[0]} rows for "
                             f"{completed} completed iterations")
        return table[:, 1:]

    lam = trace("lambda.csv", scale_names(layout["variant"], layout["m"]))
    sigma2 = trace("sigma2.csv", ["sigma2"])[:, 0]
    path = os.path.join(outdir, "theta_samples.npy")
    try:
        theta = np.load(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    stored = (completed // layout["thin"], layout["m"] * layout["p"])
    if theta.shape != stored:
        raise ValueError(f"{path}: shape {theta.shape}, expected {stored}: "
                         f"{completed} iterations thinned by {layout['thin']}")
    _, blocks = read_table(os.path.join(outdir, "blocks.csv"),
                           ["iteration", "i", "j"], np.int64)
    return ChainRecord(**layout, theta_samples=theta, lambda_trace=lam,
                       sigma2_trace=sigma2, selected_blocks=blocks)
