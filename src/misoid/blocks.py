"""Input collinearity and the overlapping-block selection distribution.

A block is a tuple of distinct channels drawn jointly.  The schedule
weights the unordered channel pairs (i, j), i < j, by the absolute sample
correlation c_ij of their inputs, computed once up front, with the
exponential rule

    P_ij  proportional to  exp(beta * c_ij) - 1,

which concentrates mass on correlations close to one as the rate ``beta``
grows.  Probabilities are evaluated in a shifted, factored form that stays
finite for large ``beta * c`` and keeps its digits for small ``beta * c``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .regression import Dataset


@dataclass
class BlockSchedule:
    """Selection distribution over blocks of channels.

    ``blocks`` lists tuples of distinct channels; ``probs`` the matching
    selection probabilities, finite, nonnegative and summing to 1 (the
    sampler reads ``probs[b]`` times its block draws as block b's expected
    draws).  ``cumulative``, their running sum scaled to end at exactly 1,
    is derived from them and backs the draw in :func:`select_block`.
    """

    blocks: list                       # tuples of distinct channels
    probs: np.ndarray                  # (K,)
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if not self.blocks or self.probs.shape != (len(self.blocks),):
            raise ValueError(
                f"one probability per block expected: {len(self.blocks)} "
                f"blocks, probabilities of shape {self.probs.shape}")
        if not (np.isfinite(self.probs).all() and self.probs.min() >= 0.0
                and abs(self.probs.sum() - 1.0) <= 1e-9):
            raise ValueError("block probabilities must be finite, "
                             "nonnegative and sum to 1")
        cumulative = np.cumsum(self.probs)
        self.cumulative = cumulative / cumulative[-1]


def compute_correlations(data: Dataset) -> np.ndarray:
    """Absolute sample correlation of every input pair.

    Raises
    ------
    ValueError
        If any input has zero sample variance.
    """
    u = data.inputs
    stds = u.std(axis=1)
    if np.any(stds == 0.0):
        dead = int(np.flatnonzero(stds == 0.0)[0])
        raise ValueError(f"input channel {dead} has zero sample variance")
    if data.m == 1:
        return np.ones((1, 1))
    return np.abs(np.corrcoef(u))


def compute_block_probabilities(c: np.ndarray, beta: float) -> BlockSchedule:
    """The schedule over the channel pairs (i, j), i < j, in row order."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"square correlation matrix expected, got {c.shape}")
    if not 0.0 < beta < np.inf:
        raise ValueError(
            f"selection rate must be positive and finite, got {beta}")
    m = c.shape[0]
    if m < 2:
        raise ValueError("need at least two channels to form pairs")

    iu, ju = np.triu_indices(m, k=1)
    cvals = c[iu, ju]
    cmax = float(cvals.max())
    # exp(beta c) - 1 times exp(-beta cmax): no overflow, and no cancellation
    weights = np.exp(beta * (cvals - cmax)) * -np.expm1(-beta * cvals)
    total = weights.sum()
    if cmax <= 0.0 or total <= 0.0:
        warnings.warn(
            "all pairwise correlations are zero; falling back to uniform "
            "pair selection", stacklevel=2,
        )
        probs = np.full(iu.size, 1.0 / iu.size)
    else:
        probs = weights / total
    return BlockSchedule(blocks=list(zip(iu.tolist(), ju.tolist())),
                         probs=probs)


def select_block(schedule: BlockSchedule, rng: np.random.Generator) -> int:
    """Draw one block; returns its position in ``schedule.blocks``.  A
    block of probability 0 has an empty interval of ``cumulative``, which
    ``side="right"`` steps over; u < 1 = cumulative[-1] stays in range."""
    return int(np.searchsorted(schedule.cumulative, rng.random(),
                               side="right"))


def export_correlations_csv(c: np.ndarray, path) -> None:
    """Write the full correlation matrix as (i, j, value) triplets."""
    rows, cols = np.indices(c.shape)
    np.savetxt(path, np.column_stack([rows.ravel(), cols.ravel(), c.ravel()]),
               fmt=["%d", "%d", "%.17g"], delimiter=",", header="i,j,value",
               comments="")


def export_probabilities_csv(schedule: BlockSchedule, path) -> None:
    """Write a pair schedule's probabilities as (i, j, value) triplets."""
    np.savetxt(path, np.column_stack([schedule.blocks, schedule.probs]),
               fmt=["%d", "%d", "%.17g"], delimiter=",", header="i,j,value",
               comments="")
