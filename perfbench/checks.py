"""Output checks made apart from the program.

Nothing here imports misoid: the chain directories are read as files, and
the cross-products are checked against Toeplitz products computed here.
"""

from __future__ import annotations

import json
import os

import numpy as np

GRAM_TOLERANCE = 1e-9
VARIANTS = ("GS", "GSd", "GSOB", "GSOBd")
COMMON_SCALE = ("GS", "GSOB")


def check_pairs(m: int) -> list:
    """Channel pairs whose G_i'G_j is checked: a diagonal block, the first
    chained pair, its transpose, and pairs reaching the last channel."""
    return [(0, 0), (0, 1), (1, 0), (m - 2, m - 1), (0, m - 1)]


def check_channels(m: int) -> list:
    return [0, 1, m - 1]


def dump_cross_products(bank) -> dict:
    """The program's cached G_i'G_j and G_k'y for the checked channels."""
    try:
        return {
            "gram": {f"{i},{j}": np.asarray(bank.gram(i, j)).tolist()
                     for i, j in check_pairs(bank.m)},
            "xty": {str(k): np.asarray(bank.xty(k)).tolist()
                    for k in check_channels(bank.m)},
        }
    except AttributeError as exc:
        return {"absent": str(exc)}


def toeplitz_block(u: np.ndarray, p: int) -> np.ndarray:
    """n-by-p regressor: column ``lag`` is ``u`` delayed by ``lag`` samples,
    zero before the first sample."""
    out = np.zeros((u.size, p))
    for lag in range(p):
        out[lag:, lag] = u[:u.size - lag]
    return out


def _relative_gap(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def check_cross_products(dumped: dict, inputs: np.ndarray, y: np.ndarray,
                         p: int) -> list:
    """Problems found comparing the dumped products with Toeplitz products.

    Every entry of a block is held to ``GRAM_TOLERANCE`` times the block's
    largest entry, so the end-of-record lags (the last rows and columns,
    which miss up to p - 1 products) are checked as strictly as the rest.
    """
    if "absent" in dumped:
        return [f"cross-products not readable: {dumped['absent']}"]
    m = inputs.shape[0]
    blocks: dict = {}

    def block(k):
        if k not in blocks:
            blocks[k] = toeplitz_block(inputs[k], p)
        return blocks[k]

    problems = []
    for i, j in check_pairs(m):
        gap = _relative_gap(dumped["gram"].get(f"{i},{j}", []),
                            block(i).T @ block(j))
        if not gap <= GRAM_TOLERANCE:
            problems.append(f"gram({i},{j}) off by {gap:.3g} relative")
    for k in check_channels(m):
        gap = _relative_gap(dumped["xty"].get(str(k), []), block(k).T @ y)
        if not gap <= GRAM_TOLERANCE:
            problems.append(f"xty({k}) off by {gap:.3g} relative")
    return problems


def _read_table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _relative_l2(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def check_chain(chain_dir: str, variant: str, truth: np.ndarray, chain: int,
                n_mc: int, bound: float) -> list:
    """Problems in one chain directory written by ``identify``.

    The chain must hold all ``n_mc`` iterations with finite traces and an
    m*p-row summary.  Its posterior mean must lie within ``bound``
    (relative L2) of the truth on every channel outside the correlated
    prefix, and -- for the common-scale variants -- on the summed response
    of the prefix, the combination the data identify.
    """
    m, p = truth.shape
    try:
        with open(os.path.join(chain_dir, "record.json")) as fh:
            record = json.load(fh)
        lam = _read_table(os.path.join(chain_dir, "lambda.csv"))
        sigma2 = _read_table(os.path.join(chain_dir, "sigma2.csv"))
        theta = np.load(os.path.join(chain_dir, "theta_samples.npy"))
        summary = _read_table(os.path.join(chain_dir, "summary.csv"))
    except (OSError, ValueError) as exc:
        return [f"{chain_dir}: unreadable ({exc})"]

    problems = []
    if record.get("completed") != n_mc or record.get("aborted"):
        problems.append(f"record says {record.get('completed')} of {n_mc} "
                        f"iterations, aborted={record.get('aborted')}")
    lam_columns = 1 if variant in COMMON_SCALE else m
    if lam.shape != (n_mc, 1 + lam_columns):
        problems.append(f"lambda.csv has shape {lam.shape}")
    if sigma2.shape != (n_mc, 2):
        problems.append(f"sigma2.csv has shape {sigma2.shape}")
    if theta.shape != (n_mc, m * p):
        problems.append(f"theta_samples.npy has shape {theta.shape}")
    if summary.shape != (m * p, 7):
        problems.append(f"summary.csv has shape {summary.shape}")
    for name, values in (("lambda", lam[:, 1:]), ("sigma2", sigma2[:, 1:]),
                         ("theta", theta), ("summary", summary)):
        if not np.all(np.isfinite(values)):
            problems.append(f"{name} holds non-finite values")
    if not (np.all(lam[:, 1:] > 0) and np.all(sigma2[:, 1:] > 0)):
        problems.append("non-positive scale factor or noise variance")
    if problems:
        return [f"{chain_dir}: {text}" for text in problems]

    mean = summary[:, 3].reshape(m, p)
    for k in range(chain, m):
        err = _relative_l2(mean[k], truth[k])
        if not err <= bound:
            problems.append(f"channel {k} off truth by {err:.3f} > {bound}")
    if variant in COMMON_SCALE and chain > 1:
        err = _relative_l2(mean[:chain].sum(axis=0), truth[:chain].sum(axis=0))
        if not err <= bound:
            problems.append(f"summed chained response off truth by {err:.3f}"
                            f" > {bound}")
    return [f"{chain_dir}: {text}" for text in problems]


def check_identify(outdir: str, exit_code: int, truth: np.ndarray,
                   chain: int, n_mc: int, bound: float) -> tuple:
    """(chains attempted, chains failed, problems) of one identify process.

    A chain counts as failed when the process exited non-zero and the chain
    is missing or marked aborted: the program reported that failure.  Any
    other problem is an incorrect output.
    """
    failed, problems = 0, []
    for variant in VARIANTS:
        chain_dir = os.path.join(outdir, variant, "rep000")
        if exit_code != 0 and _reported_failed(chain_dir):
            failed += 1
            continue
        problems += check_chain(chain_dir, variant, truth, chain, n_mc, bound)
    if exit_code != 0 and not failed:
        problems.append(f"{outdir}: exit {exit_code} with every chain complete")
    return len(VARIANTS), failed, problems


def _reported_failed(chain_dir: str) -> bool:
    try:
        with open(os.path.join(chain_dir, "record.json")) as fh:
            return bool(json.load(fh).get("aborted"))
    except (OSError, ValueError):
        return True
