import os

# The suite's p x p factorizations run faster on one BLAS thread than on
# many; a caller's own setting still wins.  Set before numpy loads BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import misoid as mi  # noqa: E402
from misoid.kernel import build_kernel
from misoid.regression import RegressorBank


def toeplitz_block(u, p):
    """Reference n-by-p regressor block, built explicitly: column ``lag``
    is ``u`` delayed by ``lag`` samples, zero before the first sample."""
    out = np.zeros((u.size, p))
    for lag in range(min(p, u.size)):
        out[lag:, lag] = u[:u.size - lag]
    return out


def stacked_regressors(inputs, p):
    """Reference n-by-mp regressor [G_1 ... G_m]."""
    return np.hstack([toeplitz_block(u, p) for u in inputs])


def make_example1(data_seed=11, n=500, p=50, noise=0.3):
    """Duplicate-input instance: two channels driven by the same white input."""
    rng = np.random.default_rng(data_seed)
    system = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=p), rng)
    inputs = mi.generate_inputs(
        mi.CollinearInputSpec(m=2, n=n, duplicate=True), rng)
    data = mi.synthesize_dataset(system, inputs, noise, rng)
    return data, system


def make_small_problem(seed=0, m=2, p=3, n=50, lam=0.8, sigma2=0.3):
    """Tiny random instance with known prior draw, for oracle comparisons."""
    rng = np.random.default_rng(seed)
    kernel = build_kernel(0.9, p)
    inputs = rng.standard_normal((m, n))
    theta_true = np.concatenate(
        [np.sqrt(lam) * kernel.chol @ rng.standard_normal(p) for _ in range(m)])
    shell = RegressorBank(mi.Dataset(y=np.zeros(n), inputs=inputs), p)
    y = shell.predict(theta_true) + np.sqrt(sigma2) * rng.standard_normal(n)
    data = mi.Dataset(y=y, inputs=inputs)
    bank = RegressorBank(data, p)
    return data, bank, kernel, theta_true


@pytest.fixture(scope="session")
def example1_problem():
    data, system = make_example1()
    problem = mi.build_problem(data, alpha=0.9, p=50)
    return problem, system
