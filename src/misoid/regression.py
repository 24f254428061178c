"""Identification data and the FIR regression form y = G theta + e.

Each input channel contributes an n-by-p Toeplitz block ``G_k`` whose column
``j`` (0-based) holds the input delayed by ``j`` samples, with zeros before
the first sample (systems start at rest).  The stacked coefficient vector
``theta`` concatenates the per-channel blocks in channel order.

A :class:`RegressorBank` caches, once per run, everything the conditional
samplers touch repeatedly, without ever forming the blocks or rescanning
the n samples.  It keeps the structure of the cross-products rather than
the mp-by-mp grid ``{G_i' G_j}``:

    G_i' G_j = Toep(lag_ij) - T_i' T_j,

where lag_ij holds the 2p - 1 lag correlations of the pair over the whole
record (p BLAS products of the m-by-n inputs with their shifted
transposes) and T_i is the p-by-p upper-triangular Toeplitz matrix of
u_i's last p - 1 samples, which corrects for the products that fall past
the end of the record.  Per channel k it stores an (m+1)-by-(2p-1) panel
(the lags of every channel against k, plus a row holding T_k), T_k, and
the diagonal gram G_k'G_k, besides the projections ``{G_k' y}`` and
``y'y``: m(m+1)(2p-1) + 2mp^2 floats, 12 MB at m = 100 and p = 50,
where the grid takes 200 MB.  Off-diagonal grams are built on demand;
only the dense oracle and tests build the whole grid
(:meth:`RegressorBank.dense_gram`).

A chain keeps the running state of its coefficients in the same
structure, an (m+1)-by-p array: row k < m holds sum_j Toep(lag_kj)
theta_j and row m the tail sum s = sum_j T_j theta_j, so that
G_k'G theta = row k - T_k' s and theta'G'G theta = theta . rows - s . s.
Changing channel k by d moves the state by channel k's panel times the
(2p-1)-by-p Hankel matrix of d, one small product into buffers the bank
keeps (:meth:`RegressorBank.set_channel`), so chains share a bank one at
a time.  Given the state, a block's projection is one product with the
block's gram plus O(p^2) per channel, and the residual sum of squares is
O(mp).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError

# unknowns up to which the dense grid, and the oracle on it, may be built
ORACLE_MAX_COEFFICIENTS = 2000


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
        if not np.isfinite(y).all():
            raise ValueError("output y has a nan or an inf entry")
        bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
        if bad.size:
            raise ValueError(f"input u{bad[0] + 1} has a nan or an inf entry")
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

    Every cached array is read-only, so every chain of a problem shares
    one bank.  :meth:`set_channel` writes its update into buffers the bank
    made once, so chains share a bank one at a time, never from two
    threads at once.  Nothing here is m*p by m*p: a gram G_i'G_j is built
    on demand from the stored lag correlations and tails (``gram``,
    ``block_gram``), and only the dense oracle asks for the whole grid
    (``dense_gram``).
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
        self._panels, self._tails = _lag_panels(data.inputs, self.p)
        self.gty = _lagged_projections(data.inputs, data.y, self.p)
        self._diagonal = np.stack([self._pair_gram(k, k)
                                   for k in range(self.m)])
        for arr in (self._panels, self._tails, self.gty, self._diagonal):
            arr.setflags(write=False)
        # set_channel's buffers: the change d sits between p - 1 zeros on
        # each side, so the Hankel matrix H[l, a] = padded[l + a] is a
        # strided view of it
        padded = np.zeros(3 * self.p - 2)
        self._change = padded[self.p - 1:2 * self.p - 1]
        self._shifts = np.ndarray((2 * self.p - 1, self.p), buffer=padded,
                                  strides=(padded.itemsize,) * 2)
        self._hankel = np.empty((2 * self.p - 1, self.p))
        self._product = np.empty((self.m + 1, self.p))

    def _pair_gram(self, i: int, j: int) -> np.ndarray:
        """Toep(lag_ij) - T_i'T_j, a new array; exactly symmetric for
        i == j.  Toep(lag_ij)[a, b] = lag_ij[p - 1 + b - a] is a strided
        view of lag_ij, row i of channel j's panel."""
        p, panels, tails = self.p, self._panels, self._tails
        s0, s1, s2 = panels.strides
        toeplitz = np.ndarray((p, p), buffer=panels,
                              offset=j * s0 + i * s1 + (p - 1) * s2,
                              strides=(-s2, s2))
        product = tails[i].T @ tails[j]
        return np.subtract(toeplitz, product, out=product)

    def gram(self, i: int, j: int) -> np.ndarray:
        """The p-by-p cross-product G_i' G_j (the cached read-only one for
        i == j).  Built from the pair's lag correlations taken with
        i < j, so that ``gram(j, i)`` is exactly ``gram(i, j).T``."""
        if i == j:
            return self._diagonal[i]
        if i > j:
            return self._pair_gram(j, i).T
        return self._pair_gram(i, j)

    def block_gram(self, channels: tuple[int, ...]) -> np.ndarray:
        """The grams G_a' G_b of every a, b in ``channels``, stacked in
        channel order: one channel's is its cached read-only gram, more
        channels' a new, exactly symmetric C-contiguous matrix."""
        if len(channels) == 1:
            return self._diagonal[channels[0]]
        p, c = self.p, len(channels)
        out = np.empty((c * p, c * p))
        for r, a in enumerate(channels):
            out[r * p:(r + 1) * p, r * p:(r + 1) * p] = self._diagonal[a]
            for q in range(r + 1, c):
                block = self.gram(a, channels[q])
                out[r * p:(r + 1) * p, q * p:(q + 1) * p] = block
                out[q * p:(q + 1) * p, r * p:(r + 1) * p] = block.T
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

    def set_channel(self, theta: np.ndarray, cross: np.ndarray, k: int,
                    value: np.ndarray) -> None:
        """Write channel k's coefficients into ``theta`` and move the
        running state ``cross`` (see :meth:`cross_state`) by the change.

        The change d enters every lag product as the Hankel matrix
        H[l, a] = d[l - p + 1 + a] (zero outside 0..p-1), one strided copy
        of d padded by p - 1 zeros on each side; channel k's panel times H
        is the whole update, a single (m+1)-by-(2p-1)-by-p product.  Every
        call reuses the bank's buffers for d, H and the product, so it
        allocates nothing.
        """
        rows = theta_block(theta, k, self.p)
        np.subtract(value, rows, out=self._change)
        np.copyto(self._hankel, self._shifts)
        cross += np.dot(self._panels[k], self._hankel, out=self._product)
        rows[...] = value

    def cross_state(self, theta: np.ndarray) -> np.ndarray:
        """The running state of ``theta``, built from zero one channel at a
        time: an (m+1)-by-p array whose row k < m is
        sum_j Toep(lag_kj) theta_j and whose row m is the tail sum
        s = sum_j T_j theta_j."""
        cross = np.zeros((self.m + 1, self.p))
        start = np.zeros(self.m * self.p)
        for k in range(self.m):
            self.set_channel(start, cross, k, theta_block(theta, k, self.p))
        return cross

    def gram_product(self, cross: np.ndarray) -> np.ndarray:
        """G'G theta read back from the running state of theta: block k is
        row k minus T_k' s."""
        return (cross[:-1] - cross[-1] @ self._tails).reshape(-1)

    def residual_sumsq(self, theta: np.ndarray, cross: np.ndarray) -> float:
        """||y - G theta||^2 from the running state of theta (no data
        pass): theta'G'G theta is theta . rows - s . s."""
        tail = cross[-1]
        val = (self.yty - 2.0 * float(self.gty @ theta)
               + float(np.vdot(theta, cross[:-1])) - float(tail @ tail))
        return max(val, 0.0)

    def partial_projection(self, channels: tuple[int, ...],
                           theta: np.ndarray, cross: np.ndarray,
                           gram: np.ndarray) -> np.ndarray:
        """Stacked G_k'(y - sum_{j not in channels} G_j theta_j) for k in
        channels, from the running state of theta: G_k'y - G_k'G theta
        plus the block's gram (``block_gram(channels)``) times the block's
        coefficients, which a wider block stacks into a new array."""
        p = self.p
        if len(channels) == 1:
            coefficients = theta_block(theta, channels[0], p)
        else:
            coefficients = np.concatenate([theta_block(theta, k, p)
                                           for k in channels])
        out = np.dot(gram, coefficients)
        tail = cross[-1]
        for r, k in enumerate(channels):
            out[r * p:(r + 1) * p] += (self.gty[k * p:(k + 1) * p] - cross[k]
                                       + np.dot(tail, self._tails[k]))
        return out

    def dense_gram(self) -> np.ndarray:
        """The whole mp-by-mp grid {G_i' G_j}, exactly symmetric, for the
        dense oracle and tests; refused above ``ORACLE_MAX_COEFFICIENTS``
        unknowns.  No sweep uses it."""
        m, p = self.m, self.p
        if m * p > ORACLE_MAX_COEFFICIENTS:
            raise SizeGuardError(
                f"dense oracle refused: {m * p} coefficients exceed the "
                f"{ORACLE_MAX_COEFFICIENTS} guard")
        grid = self.block_gram(tuple(range(m)))
        # one channel's block gram is the cached read-only diagonal
        return grid if grid.flags.writeable else grid.copy()


def _lag_panels(inputs: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel lag panels and end-of-record tail matrices.

    Entry (a, b) of G_i' G_j is sum_t u_i[t - a] u_j[t - b] over the n
    rows t.  Over the whole record, rows t >= n included, that sum is
    lag_ij[p - 1 + b - a], where lag_ij[p - 1 + tau] = sum_t u_i[t]
    u_j[t - tau] for |tau| < p; one matrix product per lag finds it for
    every pair at once.  The rows t >= n add (T_i' T_j)[a, b], where T_k
    is the p-by-p upper-triangular Toeplitz matrix with T_k[s, a] =
    u_k[n - a + s] for a > s (its last p - 1 samples), so
    G_i' G_j = Toep(lag_ij) - T_i' T_j.  Samples before the first one are
    zeros, so p >= n stays exact.

    ``panels[k]`` is (m+1)-by-(2p-1): row j < m is lag_jk, and row m is
    p - 1 zeros followed by T_k's first row.  ``tails[k]`` is T_k.  Pairs
    (i, j) and (j, i) read the same products, transposed exactly.
    """
    m, n = inputs.shape
    panels = np.zeros((m, m + 1, 2 * p - 1))
    for tau in range(min(p, n)):
        # corr[i, j] = sum_t u_i[t] u_j[t - tau] = lag_ij[p - 1 + tau]
        corr = inputs[:, tau:] @ inputs[:, :n - tau].T
        if tau == 0:
            corr = np.triu(corr) + np.triu(corr, 1).T
        panels[:, :m, p - 1 + tau] = corr.T
        panels[:, :m, p - 1 - tau] = corr
    # last[:, r] = u[n - r] for r = 1 .. p - 1, zero before the record
    last = np.zeros((m, p))
    k = min(p - 1, n)
    last[:, 1:k + 1] = inputs[:, n - k:][:, ::-1]
    panels[:, m, p - 1:] = last
    tails = np.zeros((m, p, p))
    for s in range(p):
        tails[:, s, s:] = last[:, :p - s]
    return panels, tails


def _lagged_projections(inputs: np.ndarray, y: np.ndarray,
                        p: int) -> np.ndarray:
    """Stacked {G_k' y}: entry k*p + a is sum_s u_k[s] y[s + a]."""
    m, n = inputs.shape
    gty = np.zeros((m, p))
    for a in range(min(p, n)):
        gty[:, a] = inputs[:, :n - a] @ y[a:]
    return gty.reshape(-1)
