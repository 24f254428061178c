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
record and T_i is the p-by-p upper-triangular Toeplitz matrix of u_i's
last p - 1 samples, which corrects for the products that fall past the
end of the record.  One overlap-save FFT pass over the record finds the
lags of every pair, in about 5m^2 n flops and a working memory that does
not grow with n; the projections ``{G_k' y}`` are one product per segment
of the record with the Hankel matrix of y.  Channel k's lags against every
channel, plus a row holding T_k, form an (m+1)-by-(2p-1) panel, and the
bank keeps the panel's size-N DFT, N = 2p - 1, row by row: an
(m+1)-by-p complex panel spectrum (p bins of a real sequence).  With T_k,
the diagonal gram G_k'G_k, the projections ``{G_k' y}`` and ``y'y`` that
is 2m(m+1)p + 2mp^2 floats, 12 MB at m = 100 and p = 50, where the grid
takes 200 MB.  Off-diagonal grams are built on demand, a pair's lags read
back by one inverse transform; only the dense oracle and tests build the
whole grid (:meth:`RegressorBank.dense_gram`).

A chain keeps the running state of its coefficients as spectra too, an
(m+1)-by-p complex array (:meth:`RegressorBank.cross_state`): the
spectrum of row k < m holds sum_j Toep(lag_kj) theta_j and that of row m
the tail sum s = sum_j T_j theta_j, so that G_k'G theta = row k - T_k' s
and theta'G'G theta = theta . rows - s . s.  Each row is a correlation
of a panel row with theta's channels, which the size-N DFT turns into a
product per bin without wrap-around: changing channel k by d moves the
state by channel k's panel spectrum times d's DFT, one p-by-2p real
product and (m+1)p complex products, O(mp) where a product of the
time-domain panel with the change's Hankel matrix is O(mp^2)
(:meth:`RegressorBank.set_channel`).  The rows are read back through one
real product with a fixed 2p-by-p inverse-DFT matrix, so a block's
projection is that product for its rows and the tail plus O(p^2) per
channel, and the residual sum of squares is one product of the whole
state.  A single channel's projection, times any matrix, is one product
of [theta_k, state row k, tail row, 1] with a (5p+1)-column map built
once (:meth:`RegressorBank.projection_map`).  Updates write into buffers
the bank keeps, so chains share a bank one at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import zgemm

from .errors import SizeGuardError

# unknowns up to which the dense grid, and the oracle on it, may be built
ORACLE_MAX_COEFFICIENTS = 2000

# the constant entry of RegressorBank.single_projection's stacked vector
_ONE = np.ones(1)
_ONE.setflags(write=False)


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
    """The dataset in ``path``: a header ``y,u1..um``, then one row of
    m + 1 numbers per sample.  Any other file is refused with a
    ValueError whose message starts with the path."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    if not names or names[0] != "y":
        raise ValueError(f"{path}: first column must be 'y', got {names[:1]}")
    expected = ["y"] + [f"u{k + 1}" for k in range(len(names) - 1)]
    if names != expected:
        raise ValueError(f"{path}: columns must be y,u1..um, got {names}")
    try:
        with warnings.catch_warnings():
            # a file without data rows is refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        raise ValueError(f"{path}: {_first_bad_row(path, names)}") from None
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != len(names):
        raise ValueError(
            f"{path}: every data row has {table.shape[1]} values, but the "
            f"header names {len(names)} columns")
    try:
        return Dataset(y=table[:, 0], inputs=table[:, 1:].T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _first_bad_row(path, names: list[str]) -> str:
    """Why ``np.loadtxt`` refused ``path``: its first data line whose
    width differs from the header's, or that holds a cell that is not a
    number, read again line by line (only a refused file is)."""
    with open(path) as fh:
        next(fh)
        for number, line in enumerate(fh, start=2):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            cells = text.split(",")
            if len(cells) != len(names):
                return (f"line {number} has {len(cells)} values, but the "
                        f"header names {len(names)} columns")
            for name, cell in zip(names, cells):
                try:
                    float(cell)
                except ValueError:
                    return (f"line {number}: {name} value {cell.strip()!r} "
                            "is not a number")
    return "the data rows cannot be read as numbers"


def theta_block(theta: np.ndarray, k: int, p: int) -> np.ndarray:
    """View of channel k's p coefficients inside the stacked layout."""
    return theta[k * p:(k + 1) * p]


class RegressorBank:
    """Cached cross-products of the regressor blocks of one dataset.

    Every cached array is read-only, so every chain of a problem shares
    one bank.  :meth:`set_channel` writes its update into buffers the bank
    made once, so chains share a bank one at a time, never from two
    threads at once.  Nothing here is m*p by m*p: a gram G_i'G_j is built
    on demand from the stored panel spectra and tails (``gram``,
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
        panels, self._tails = _lag_panels(data.inputs, self.p)
        self.gty = _projections(data.inputs, data.y, self.p)
        self._diagonal = np.stack([
            _toeplitz_gram(panels[k, k], self._tails[k], self._tails[k])
            for k in range(self.m)])
        # the panels' spectra replace them, one channel at a time
        self._spectra = np.empty((self.m, self.m + 1, self.p), dtype=complex)
        for k in range(self.m):
            np.fft.rfft(panels[k], axis=-1, out=self._spectra[k])
        del panels
        self._forward, self._to_lags = _dft_matrices(self.p)
        # a state row's p entries are the inverse DFT's entries 0, -1, ..
        self._inverse = np.ascontiguousarray(
            self._to_lags[:, -np.arange(self.p) % (2 * self.p - 1)])
        for arr in (self._spectra, self.gty, self._diagonal, self._forward,
                    self._to_lags, self._inverse):
            arr.setflags(write=False)
        # set_channel's buffers: the change, its DFT (2p reals, p bins)
        # and the state's move
        self._change = np.empty(self.p)
        self._change_dft = np.empty(2 * self.p)
        self._change_bins = self._change_dft.view(complex)
        self._move = np.empty((self.m + 1, self.p), dtype=complex)

    def _pair_gram(self, i: int, j: int) -> np.ndarray:
        """Toep(lag_ij) - T_i'T_j, a new array, lag_ij read back by one
        inverse transform of row i of channel j's panel spectrum: one real
        product with the bank's inverse-DFT matrix."""
        lags = np.dot(self._spectra[j, i].view(float), self._to_lags)
        return _toeplitz_gram(lags, self._tails[i], self._tails[j])

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

        The change d enters every row as its DFT, one real product of d
        with the bank's p-by-2p forward matrix; channel k's panel spectrum
        times that DFT, bin by bin, is the whole update.  Every call
        reuses the bank's buffers for d, its DFT and the move, so it
        allocates nothing.
        """
        rows = theta_block(theta, k, self.p)
        np.subtract(value, rows, out=self._change)
        np.dot(self._change, self._forward, out=self._change_dft)
        cross += np.multiply(self._spectra[k], self._change_bins,
                             out=self._move)
        rows[...] = value

    def cross_state(self, theta: np.ndarray) -> np.ndarray:
        """The running state of ``theta``, built from zero one channel at a
        time: an (m+1)-by-p complex array, the size-N DFTs (N = 2p - 1)
        whose inverse, read by :meth:`state_rows`, gives row k < m as
        sum_j Toep(lag_kj) theta_j and row m as the tail sum
        s = sum_j T_j theta_j."""
        cross = np.zeros((self.m + 1, self.p), dtype=complex)
        start = np.zeros(self.m * self.p)
        for k in range(self.m):
            self.set_channel(start, cross, k, theta_block(theta, k, self.p))
        return cross

    def state_rows(self, cross: np.ndarray) -> np.ndarray:
        """The running state's rows read back in the time domain: one
        product of its spectra, as 2p reals per row, with the bank's
        2p-by-p inverse-DFT matrix."""
        return np.dot(cross.view(float), self._inverse)

    def gram_product(self, cross: np.ndarray) -> np.ndarray:
        """G'G theta read back from the running state of theta: block k is
        row k minus T_k' s."""
        rows = self.state_rows(cross)
        return (rows[:-1] - rows[-1] @ self._tails).reshape(-1)

    def residual_sumsq(self, theta: np.ndarray, cross: np.ndarray) -> float:
        """||y - G theta||^2 from the running state of theta (no data
        pass): theta'G'G theta is theta . rows - s . s."""
        rows = self.state_rows(cross)
        tail = rows[-1]
        val = (self.yty - 2.0 * float(self.gty @ theta)
               + float(np.vdot(theta, rows[:-1])) - float(tail @ tail))
        return max(val, 0.0)

    def partial_projection(self, channels: tuple[int, ...],
                           theta: np.ndarray, cross: np.ndarray,
                           gram: np.ndarray) -> np.ndarray:
        """Stacked G_k'(y - sum_{j not in channels} G_j theta_j) for k in
        channels, from the running state of theta: G_k'y - G_k'G theta
        plus the block's gram (``block_gram(channels)``) times the block's
        coefficients, stacked into a new array.  The block's state rows
        and the tail are read back in one product."""
        p = self.p
        coefficients = np.concatenate([theta_block(theta, k, p)
                                       for k in channels])
        out = np.dot(gram, coefficients)
        rows = self.state_rows(cross[[*channels, self.m]])
        tail = rows[-1]
        for r, k in enumerate(channels):
            out[r * p:(r + 1) * p] += (self.gty[k * p:(k + 1) * p] - rows[r]
                                       + np.dot(tail, self._tails[k]))
        return out

    def projection_map(self, k: int, right: np.ndarray,
                       out: np.ndarray) -> None:
        """Fill ``out``, (5p+1)-by-q, with the matrix M for which
        :meth:`single_projection`'s [theta_k, state row k, tail row, 1] M
        is G_k'(y - sum_{j != k} G_j theta_j)' ``right``.  The state rows
        enter as their spectra, 2p reals each, so M stacks G_k'G_k right,
        minus the inverse-DFT matrix times ``right``, the inverse-DFT
        matrix times T_k right, and (G_k'y)' right."""
        p = self.p
        np.dot(self._diagonal[k], right, out=out[:p])
        np.dot(self._inverse, -right, out=out[p:3 * p])
        np.dot(self._inverse, self._tails[k] @ right, out=out[3 * p:5 * p])
        np.dot(self.xty(k), right, out=out[5 * p])

    def single_projection(self, k: int, theta: np.ndarray,
                          cross: np.ndarray, mapped: np.ndarray) -> np.ndarray:
        """G_k'(y - sum_{j != k} G_j theta_j)' right, from the running state
        of theta, for a matrix ``mapped`` that :meth:`projection_map` filled
        with ``right``: one product of [theta_k, state row k, tail row, 1]
        with it."""
        stacked = np.concatenate((theta_block(theta, k, self.p),
                                  cross[k].view(float),
                                  cross[-1].view(float), _ONE))
        return np.dot(stacked, mapped)

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


def _toeplitz_gram(lags: np.ndarray, tail_i: np.ndarray,
                   tail_j: np.ndarray) -> np.ndarray:
    """Toep(lags) - T_i'T_j, a new array, where Toep(lags)[a, b] =
    lags[p - 1 + b - a] is a strided view of the 2p - 1 lags; exactly
    symmetric for the symmetric lags of a diagonal panel row and
    T_i = T_j."""
    p = tail_i.shape[0]
    step = lags.strides[0]
    toeplitz = np.ndarray((p, p), buffer=lags, offset=(p - 1) * step,
                          strides=(-step, step))
    product = tail_i.T @ tail_j
    return np.subtract(toeplitz, product, out=product)


def _dft_matrices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-N DFT, N = 2p - 1, of the running state, as real products.

    A state row is a correlation out[a] = sum_b h[p - 1 + b - a] d[b],
    a < p, of a panel row h (2p - 1 entries) with a channel's change d,
    and h's index never leaves 0..N-1, so with H = DFT(h) and
    w = exp(2 pi i / N),

        out[a] = (1/N) sum_f H_f D_f w^(-f a),
        D_f = sum_b d[b] w^(f (p - 1 + b)),

    over all N bins: out[a] is entry -a (mod N) of the inverse DFT of
    H D.  Both sides are real, so bins N - f are the conjugates of bins f
    and only f < p are kept.  ``forward`` (p-by-2p) maps d to the p bins
    of D, and ``inverse`` (2p-by-N) maps p bins of a real sequence to the
    sequence, bin 0 once and every other bin twice by its real part; bins
    are interleaved real and imaginary parts, a complex array's float
    view.
    """
    n = 2 * p - 1
    bins = np.arange(p)
    angle = 2.0 * np.pi / n
    # the phases reduced modulo N before scaling, for accuracy
    forward = np.empty((p, 2 * p))
    phase = angle * ((bins[None, :] * (p - 1 + bins[:, None])) % n)
    forward[:, 0::2] = np.cos(phase)
    forward[:, 1::2] = np.sin(phase)
    inverse = np.empty((2 * p, n))
    phase = angle * ((bins[:, None] * np.arange(n)[None, :]) % n)
    weight = np.where(bins == 0, 1.0, 2.0)[:, None] / n
    inverse[0::2] = weight * np.cos(phase)
    inverse[1::2] = -weight * np.sin(phase)
    return forward, inverse


def _lag_panels(inputs: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel lag panels and end-of-record tail matrices.

    Entry (a, b) of G_i' G_j is sum_t u_i[t - a] u_j[t - b] over the n
    rows t.  Over the whole record, rows t >= n included, that sum is
    lag_ij[p - 1 + b - a], where lag_ij[p - 1 + tau] = sum_t u_i[t]
    u_j[t - tau] for |tau| < p.  The rows t >= n add (T_i' T_j)[a, b],
    where T_k is the p-by-p upper-triangular Toeplitz matrix with T_k[s, a]
    = u_k[n - a + s] for a > s (its last p - 1 samples), so
    G_i' G_j = Toep(lag_ij) - T_i' T_j.  Samples before the first one are
    zeros, so p >= n stays exact.

    :func:`_lag_sums` finds the p lags tau >= 0 of every pair in one FFT
    pass; lags tau < 0 are those of the transposed pair, and lag 0 is
    symmetrized, so Toep(lag_kk) is exactly symmetric.

    ``panels[k]`` is (m+1)-by-(2p-1): row j < m is lag_jk, and row m is
    p - 1 zeros followed by T_k's first row.  ``tails[k]`` is T_k.  Pairs
    (i, j) and (j, i) read the same sums, transposed exactly.  Both arrays
    are returned read-only.
    """
    m, n = inputs.shape
    panels = np.zeros((m, m + 1, 2 * p - 1))
    for first, lags in _lag_sums(inputs, p):
        # lags[i, j, p - 1 - tau] = lag_jk[p - 1 - tau], k = first + i
        panels[first:first + len(lags), :m, :p] = lags
    centre = panels[:, :m, p - 1]
    centre[...] = np.triu(centre) + np.triu(centre, 1).T
    # lag_jk[p - 1 + tau] = lag_kj[p - 1 - tau]
    panels[:, :m, p:] = panels[:, :m, :p - 1][..., ::-1].transpose(1, 0, 2)
    # last[:, r] = u[n - r] for r = 1 .. p - 1, zero before the record
    last = np.zeros((m, p))
    k = min(p - 1, n)
    last[:, 1:k + 1] = inputs[:, n - k:][:, ::-1]
    panels[:, m, p - 1:] = last
    tails = np.zeros((m, p, p))
    for s in range(p):
        tails[:, s, s:] = last[:, :p - s]
    for arr in (panels, tails):
        arr.setflags(write=False)
    return panels, tails


# Working memory of the lag pass, in bytes: the spectra of one group of
# chunks, and the cross-spectral sums of one block of rows.  Neither grows
# with the record's length.
_GROUP_BYTES = 4 << 20
_SUMS_BYTES = 32 << 20


def _lag_sums(inputs: np.ndarray, p: int):
    """Yield (first, lags) for blocks of rows i of ``inputs``, where
    lags[i - first, j, d] = sum_t u_i[t] u_j[t - (p - 1 - d)] for d < p,
    with zeros outside the record.

    Overlap-save block correlation (Stockham 1966): the record is cut into
    chunks of L = N - (p - 1) samples, N = ``_transform_size(p)``.  For
    inputs i and j, the conjugate size-N DFT of u_i's chunk (zero-padded)
    times the DFT of u_j's window (the p - 1 samples before the chunk,
    then the chunk) is the DFT of a circular correlation whose first p
    entries are the chunk's share of the lags tau = p - 1 .. 0, with no
    wrap-around.  A group of chunks adds these cross-spectra to a
    rows-by-m complex matrix per frequency bin, one BLAS product per bin,
    and the inverse FFT of the sums holds the lags.  Each group is
    transformed straight from ``inputs``, so nothing the size of the
    record is copied; blocks of rows keep the sums within ``_SUMS_BYTES``
    when m is large.
    """
    m, n = inputs.shape
    size = _transform_size(p)
    step = size - (p - 1)
    bins = size // 2 + 1
    chunks = -(-n // step)
    rows = min(m, max(1, _SUMS_BYTES // (16 * bins * m)))
    group = min(chunks, max(1, _GROUP_BYTES // (16 * bins * (m + rows))))
    windows = np.empty((bins, group, m), dtype=complex)
    for first in range(0, m, rows):
        count = min(rows, m - first)
        sums = np.zeros((bins, count, m), dtype=complex)
        chunked = np.empty((bins, group, count), dtype=complex)
        for start in range(0, chunks, group):
            block = range(start, min(start + group, chunks))
            _spectra(inputs, block, step, p - 1, size, size, windows)
            _spectra(inputs[first:first + count], block, step, 0, step,
                     size, chunked)
            k = len(block)
            for f in range(bins):
                # sums[f] += conj(chunked[f])' windows[f], written in
                # place as its Fortran-ordered transpose
                zgemm(1.0, windows[f, :k].T, chunked[f, :k].T, beta=1.0,
                      c=sums[f].T, trans_b=2, overwrite_c=1)
        # the inverse FFT a few rows at a time, keeping only the p lags
        part = max(1, _GROUP_BYTES // (8 * size * m))
        for r in range(0, count, part):
            lags = np.fft.irfft(sums[:, r:r + part], n=size, axis=0)[:p]
            yield first + r, lags.transpose(1, 2, 0)


def _transform_size(p: int) -> int:
    """The lag pass's DFT size N: the least power of two that is at least
    4p and at least 64 (fewer, longer transforms for short responses)."""
    return 1 << (max(4 * p, 64) - 1).bit_length()


def _spectra(rows: np.ndarray, block: range, step: int, back: int,
             length: int, size: int, out: np.ndarray) -> None:
    """out[:, i, :] = the size-N real DFT of rows[:, s:s + length], zeros
    outside the record and after the segment, for the i-th chunk c of
    ``block``, where s = c * step - back."""
    n = rows.shape[1]
    # chunks whose segment lies inside the record: one strided view
    lo = max(block.start, -(-back // step))
    hi = min(block.stop, (n - length + back) // step + 1)
    if lo < hi:
        segments = sliding_window_view(rows, length, axis=1)[
            :, lo * step - back:(hi - 1) * step - back + 1:step]
        np.fft.rfft(segments.transpose(1, 0, 2), n=size, axis=-1,
                    out=out[:, lo - block.start:hi - block.start]
                    .transpose(1, 2, 0))
    else:
        lo = hi = block.start
    # at most the first and the last chunk of the record reach past it
    for c in (*range(block.start, lo), *range(hi, block.stop)):
        s = c * step - back
        a, b = max(s, 0), min(s + length, n)
        padded = np.zeros((rows.shape[0], size))
        padded[:, a - s:b - s] = rows[:, a:b]
        np.fft.rfft(padded, axis=-1, out=out[:, c - block.start].T)


def _projections(inputs: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Stacked {G_k' y}: entry k*p + a is sum_s u_k[s] y[s + a].

    One product per segment of the record, of the inputs' samples with
    the Hankel matrix H[s, a] = y[s + a] (zero past the record), copied
    into a buffer of ``_GROUP_BYTES``.  Every entry stays a plain sum of
    products over the samples, exact when one input is a unit impulse.
    """
    m, n = inputs.shape
    gty = np.zeros((m, p))
    hankel = np.empty((min(n, max(1, _GROUP_BYTES // (8 * p))), p))
    for start in range(0, n, len(hankel)):
        stop = min(start + len(hankel), n)
        h = hankel[:stop - start]
        # rows whose p samples all lie in the record, then the last p - 1
        inside = min(stop, max(start, n - p + 1))
        if inside > start:
            h[:inside - start] = sliding_window_view(y, p)[start:inside]
        for s in range(inside, stop):
            h[s - start, :n - s] = y[s:]
            h[s - start, n - s:] = 0.0
        gty += inputs[:, start:stop] @ h
    return gty.reshape(-1)
