"""Input collinearity and the overlapping-block selection distribution.

Pairwise collinearity is the absolute sample correlation of the input
realizations, computed once up front.  It is mapped to selection
probabilities over unordered channel pairs (i, j), i < j, by the exponential
rule

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

PRUNE_THRESHOLD = 1e-12


@dataclass
class BlockSchedule:
    """Selection distribution over unordered channel pairs.

    ``pairs`` lists all (i, j) with i < j; ``probs`` the matching
    probabilities.  ``cumulative`` spans only the active (unpruned) pairs and
    backs the categorical draw in :func:`select_block`.
    """

    c: np.ndarray                      # (m, m) absolute correlations
    beta: float
    pairs: np.ndarray                  # (K, 2) int, i < j
    probs: np.ndarray                  # (K,)
    active: np.ndarray = field(repr=False)      # indices into pairs
    cumulative: np.ndarray = field(repr=False)  # cumsum over active pairs

    def prob(self, i: int, j: int) -> float:
        """Selection probability of the pair (i, j), i < j."""
        m = self.c.shape[0]
        return float(self.probs[i * (2 * m - i - 1) // 2 + j - i - 1])


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
    """Build the pair-selection distribution from a correlation matrix."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"square correlation matrix expected, got {c.shape}")
    if not beta > 0.0:
        raise ValueError(f"selection rate must be positive, got {beta}")
    m = c.shape[0]
    if m < 2:
        raise ValueError("need at least two channels to form pairs")

    iu, ju = np.triu_indices(m, k=1)
    pairs = np.column_stack([iu, ju])
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
        probs = np.full(pairs.shape[0], 1.0 / pairs.shape[0])
    else:
        probs = weights / total

    active = np.flatnonzero(probs >= PRUNE_THRESHOLD)
    cumulative = np.cumsum(probs[active])
    cumulative /= cumulative[-1]
    return BlockSchedule(c=c, beta=float(beta), pairs=pairs, probs=probs,
                         active=active, cumulative=cumulative)


def select_block(schedule: BlockSchedule,
                 rng: np.random.Generator) -> tuple[int, int]:
    """Draw one pair (i, j), i < j, from the selection distribution."""
    pos = int(np.searchsorted(schedule.cumulative, rng.random(), side="right"))
    pos = min(pos, schedule.active.size - 1)
    i, j = schedule.pairs[schedule.active[pos]]
    return int(i), int(j)


def export_correlations_csv(c: np.ndarray, path) -> None:
    """Write the full correlation matrix as (i, j, value) triplets."""
    rows, cols = np.indices(c.shape)
    np.savetxt(path, np.column_stack([rows.ravel(), cols.ravel(), c.ravel()]),
               fmt=["%d", "%d", "%.17g"], delimiter=",", header="i,j,value",
               comments="")


def export_probabilities_csv(schedule: BlockSchedule, path) -> None:
    """Write pair probabilities as (i, j, value) triplets over i < j."""
    np.savetxt(path, np.column_stack([schedule.pairs, schedule.probs]),
               fmt=["%d", "%d", "%.17g"], delimiter=",", header="i,j,value",
               comments="")
