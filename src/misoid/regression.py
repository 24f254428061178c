"""Identification data and the FIR regression form y = G theta + e.

Each input channel contributes an n-by-p Toeplitz block ``G_k`` whose column
``j`` (0-based) holds the input delayed by ``j`` samples, with zeros before
the first sample (systems start at rest).  The stacked coefficient vector
``theta`` concatenates the per-channel blocks in channel order.

A :class:`RegressorBank` caches, once per run, everything the conditional
samplers touch repeatedly: the full cross-product grid ``{G_i' G_j}``, the
projections ``{G_k' y}`` and ``y'y``.  Every Gibbs update is then a small
dense-matrix operation that never rescans the n samples.  The blocks
themselves are never formed.  The grid comes from the lag correlations of
all channel pairs, p BLAS products of the m-by-n inputs with their shifted
transposes, plus an O(m^2 p^2) correction for the samples that fall past
the end of the record; the projections are p matrix-vector products.

A chain also keeps the running product ``cross = G'G theta`` of its current
coefficients (the sampler updates it by one p-row slab of the grid per
changed channel).  Given it, a block's projection is slice arithmetic plus
the block's own p-by-p grams, and the residual sum of squares is O(mp).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Output samples plus the m input sequences driving them.

    Both are stored as C-contiguous float arrays (copied if need be), so
    every input row is one contiguous run of samples.
    """

    y: np.ndarray        # (n,)
    inputs: np.ndarray   # (m, n)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        u = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if y.ndim != 1 or y.size < 1:
            raise ValueError("output must be a nonempty 1-d array")
        if u.ndim != 2 or u.shape[0] < 1:
            raise ValueError("inputs must form a nonempty (m, n) array")
        if u.shape[1] != y.size:
            raise ValueError(
                f"inputs of length {y.size} expected, got {u.shape[1]}"
            )
        object.__setattr__(self, "y", np.ascontiguousarray(y))
        object.__setattr__(self, "inputs", np.ascontiguousarray(u))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def m(self) -> int:
        return self.inputs.shape[0]


def save_dataset_csv(data: Dataset, path) -> None:
    """Write ``y,u1..um`` rows, one line per sample, 17 significant digits."""
    header = ",".join(["y"] + [f"u{k + 1}" for k in range(data.m)])
    table = np.column_stack([data.y, data.inputs.T])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header,
               comments="")


def load_dataset_csv(path) -> Dataset:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    if not names or names[0] != "y":
        raise ValueError(f"{path}: first column must be 'y', got {names[:1]}")
    expected = ["y"] + [f"u{k + 1}" for k in range(len(names) - 1)]
    if names != expected:
        raise ValueError(f"{path}: columns must be y,u1..um, got {names}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Dataset(y=table[:, 0], inputs=table[:, 1:].T)


def theta_block(theta: np.ndarray, k: int, p: int) -> np.ndarray:
    """View of channel k's p coefficients inside the stacked layout."""
    return theta[k * p:(k + 1) * p]


class RegressorBank:
    """Cached cross-products of the regressor blocks of one dataset.

    Immutable after construction: ``gtg`` and ``gty`` are read-only, and
    ``gtg`` is exactly symmetric.
    """

    def __init__(self, data: Dataset, p: int):
        if p < 1:
            raise ValueError(f"FIR order must be positive, got {p}")
        if p > data.n:
            warnings.warn(
                f"FIR order {p} exceeds the sample count {data.n}; "
                "the regression is rank deficient", stacklevel=2,
            )
        self.data = data
        self.p = int(p)
        self.n = data.n
        self.m = data.m
        self.yty = float(np.dot(data.y, data.y))
        self.gtg = _lagged_cross_products(data.inputs, self.p)
        self.gty = _lagged_projections(data.inputs, data.y, self.p)
        self.gtg.setflags(write=False)
        self.gty.setflags(write=False)

    def gram(self, i: int, j: int) -> np.ndarray:
        """Cached p-by-p cross-product G_i' G_j."""
        p = self.p
        return self.gtg[i * p:(i + 1) * p, j * p:(j + 1) * p]

    def block_gram(self, channels: tuple[int, ...]) -> np.ndarray:
        """The grams G_a' G_b of every a, b in ``channels``, stacked in
        channel order into one new C-contiguous matrix."""
        p, c = self.p, len(channels)
        out = np.empty((c * p, c * p))
        for r, a in enumerate(channels):
            for s, b in enumerate(channels):
                out[r * p:(r + 1) * p, s * p:(s + 1) * p] = self.gram(a, b)
        return out

    def xty(self, k: int) -> np.ndarray:
        """Cached projection G_k' y."""
        return self.gty[k * self.p:(k + 1) * self.p]

    def predict(self, theta: np.ndarray) -> np.ndarray:
        """G theta: summed truncated convolutions of inputs with coefficients."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.m * self.p,):
            raise ValueError(
                f"coefficient vector of length {self.m * self.p} expected, "
                f"got shape {theta.shape}"
            )
        out = np.zeros(self.n)
        for k in range(self.m):
            out += np.convolve(
                self.data.inputs[k], theta_block(theta, k, self.p))[:self.n]
        return out

    def residual_sumsq(self, theta: np.ndarray, cross: np.ndarray) -> float:
        """||y - G theta||^2 given ``cross = G'G theta`` (no data pass)."""
        val = self.yty - 2.0 * float(self.gty @ theta) + float(theta @ cross)
        return max(val, 0.0)

    def partial_projection(self, channels: tuple[int, ...], theta: np.ndarray,
                           cross: np.ndarray) -> np.ndarray:
        """Stacked G_k'(y - sum_{j not in channels} G_j theta_j) for k in
        channels, given ``cross = G'G theta``."""
        p = self.p
        if len(channels) == 1:
            rows = slice(channels[0] * p, (channels[0] + 1) * p)
            return (self.gty[rows] - cross[rows]
                    + self.gtg[rows, rows] @ theta[rows])
        out = []
        for k in channels:
            part = self.xty(k) - theta_block(cross, k, p)
            for j in channels:
                part += self.gram(k, j) @ theta_block(theta, j, p)
            out.append(part)
        return np.concatenate(out)


def _lagged_cross_products(inputs: np.ndarray, p: int) -> np.ndarray:
    """The mp-by-mp grid {G_i' G_j} from p lagged products of the inputs.

    Entry (a, b) of G_i' G_j is sum_t u_i[t - a] u_j[t - b] over the n
    rows t.  The lag-(b - a) correlation of the pair over the whole record,
    found for every pair at once by one matrix product per lag, also counts
    the rows t >= n; their sum obeys the diagonal recurrence
    past[a, b] = past[a-1, b-1] + u_i[n-a] u_j[n-b] and is subtracted.
    Samples before the first one are zeros, so p >= n stays exact.  Both
    terms are formed the same way for (i, a, j, b) and (j, b, i, a), which
    keeps the grid exactly symmetric.
    """
    m, n = inputs.shape
    # lags[i, j, p - 1 + tau] = sum_t u_i[t] u_j[t - tau], for |tau| < p
    lags = np.zeros((m, m, 2 * p - 1))
    for tau in range(min(p, n)):
        corr = inputs[:, tau:] @ inputs[:, :n - tau].T
        if tau == 0:
            corr = np.triu(corr) + np.triu(corr, 1).T
        lags[:, :, p - 1 + tau] = corr
        lags[:, :, p - 1 - tau] = corr.T
    # last[:, r] = u[n - r] for r = 1 .. p - 1, zero before the record
    last = np.zeros((m, p))
    k = min(p - 1, n)
    last[:, 1:k + 1] = inputs[:, n - k:][:, ::-1]
    gtg = np.empty((m * p, m * p))
    grid = gtg.reshape(m, p, m, p)          # grid[i, a, j, b] = G_i'G_j[a, b]
    past_end = np.zeros((m, m, p))
    for a in range(p):
        if a:
            past_end[:, :, 1:] = (past_end[:, :, :-1]
                                  + last[:, a, None, None] * last[:, 1:])
        np.subtract(lags[:, :, p - 1 - a:2 * p - 1 - a], past_end,
                    out=grid[:, a])
    return gtg


def _lagged_projections(inputs: np.ndarray, y: np.ndarray,
                        p: int) -> np.ndarray:
    """Stacked {G_k' y}: entry k*p + a is sum_s u_k[s] y[s + a]."""
    m, n = inputs.shape
    gty = np.zeros((m, p))
    for a in range(min(p, n)):
        gty[:, a] = inputs[:, :n - a] @ y[a:]
    return gty.reshape(-1)
