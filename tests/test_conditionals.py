import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_triangular

import misoid as mi
from misoid.conditionals import (BlockRoot, BlockSpectra,
                                 GaussianBlockPosterior, _chol_lower,
                                 block_root, block_spectrum,
                                 sample_inverse_gamma,
                                 sample_sigma2_from_sumsq, spectral_scales)
from misoid.errors import DegenerateRateError, FactorizationError

from conftest import make_small_problem, toeplitz_block


# -- inverse-gamma conditionals ---------------------------------------------

def test_lambda_k_shape_is_half_p():
    # shape p/2 = 25 for p = 50: mean of draws must follow b/(a-1) with a=25
    rng = np.random.default_rng(0)
    kernel = mi.build_kernel(0.9, 50)
    theta = kernel.chol @ rng.standard_normal(50)
    q = mi.quad_form(kernel, theta)
    a, b = 25.0, q / 2.0
    draws = np.array([mi.sample_lambda_k(theta[None], kernel, rng)[0]
                      for _ in range(100_000)])
    se = (b / ((a - 1) * np.sqrt(a - 2))) / np.sqrt(draws.size)
    assert abs(draws.mean() - b / (a - 1)) < 3 * se


def test_lambda_k_scale_family():
    kernel = mi.build_kernel(0.9, 50)
    rng = np.random.default_rng(1)
    theta = kernel.chol @ rng.standard_normal(50)
    c = 3.7
    d1 = np.array([mi.sample_lambda_k(theta[None], kernel,
                                      np.random.default_rng(s))[0]
                   for s in range(500)])
    d2 = np.array([mi.sample_lambda_k(c * theta[None], kernel,
                                      np.random.default_rng(s))[0]
                   for s in range(500)])
    np.testing.assert_allclose(d2, c ** 2 * d1, rtol=1e-10)


def test_lambda_k_equals_sequential_inverse_gamma_draws():
    # one vectorised gamma call gives the stream of m sequential draws, and
    # leaves the generator where they would
    kernel = mi.build_kernel(0.9, 6)
    theta = np.random.default_rng(12).standard_normal((5, 6))
    rates = 0.5 * mi.quad_form(kernel, theta)
    rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
    got = mi.sample_lambda_k(theta, kernel, rng_a)
    want = np.array([sample_inverse_gamma(3.0, rate, rng_b)
                     for rate in rates])
    np.testing.assert_array_equal(got, want)
    assert rng_a.random() == rng_b.random()


def test_lambda_common_reduces_to_lambda_k_for_one_channel():
    kernel = mi.build_kernel(0.8, 7)
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(7)
    a, = mi.sample_lambda_k(theta[None], kernel, np.random.default_rng(11))
    b = mi.sample_lambda_common(theta, kernel, np.random.default_rng(11))
    assert a == pytest.approx(b, rel=1e-14)


def test_lambda_common_mean_oracle():
    rng = np.random.default_rng(3)
    m, p = 2, 50
    kernel = mi.build_kernel(0.9, p)
    theta = rng.standard_normal(m * p)
    total = sum(mi.quad_form(kernel, theta[k * p:(k + 1) * p])
                for k in range(m))
    a, b = m * p / 2.0, total / 2.0
    draws = np.array([mi.sample_lambda_common(theta, kernel, rng)
                      for _ in range(100_000)])
    se = (b / ((a - 1) * np.sqrt(a - 2))) / np.sqrt(draws.size)
    assert abs(draws.mean() - b / (a - 1)) < 3 * se


def test_lambda_common_shape_by_quadrature():
    # m = 2, p = 1: the unnormalized conditional density 1/x * prod of two
    # Gaussian block densities must integrate to the IG(m*p/2, rate) law
    alpha = 0.9
    kernel = mi.build_kernel(alpha, 1)
    t1, t2 = 0.7, -1.3
    rate = 0.5 * (t1 ** 2 + t2 ** 2) / alpha

    def unnorm(x):
        return (1 / x) * np.prod([
            np.exp(-0.5 * t ** 2 / (x * alpha)) / np.sqrt(x * alpha)
            for t in (t1, t2)
        ])

    z, _ = quad(unnorm, 0, np.inf)
    # mean of the normalized density vs IG(shape=1, rate) having no finite
    # mean is awkward; compare the cdf at several points instead
    from scipy.stats import invgamma
    for x0 in (0.5, 1.0, 3.0):
        num, _ = quad(unnorm, 0, x0)
        assert num / z == pytest.approx(invgamma.cdf(x0, 1.0, scale=rate),
                                        abs=1e-8)


def test_lambda_degenerate_rate():
    kernel = mi.build_kernel(0.9, 4)
    rng = np.random.default_rng(4)
    with pytest.raises(DegenerateRateError):
        mi.sample_lambda_k(np.zeros((1, 4)), kernel, rng)
    with pytest.raises(DegenerateRateError):
        mi.sample_lambda_k(np.vstack([np.ones(4), np.zeros(4)]), kernel, rng)
    with pytest.raises(DegenerateRateError):
        mi.sample_lambda_common(np.zeros(8), kernel, rng)


def test_sigma2_shape_and_mean():
    # n = 500 gives shape 250; mean of draws follows b/(a-1)
    rng = np.random.default_rng(5)
    resid = rng.standard_normal(500)
    rss = float(resid @ resid)
    a, b = 250.0, rss / 2.0
    draws = np.array([sample_sigma2_from_sumsq(rss, resid.size, rng)
                      for _ in range(100_000)])
    se = (b / ((a - 1) * np.sqrt(a - 2))) / np.sqrt(draws.size)
    assert abs(draws.mean() - b / (a - 1)) < 3 * se


def test_sigma2_scale_family():
    rng = np.random.default_rng(6)
    resid = rng.standard_normal(100)
    c = 2.5
    rss = float(resid @ resid)
    d1 = np.array([sample_sigma2_from_sumsq(rss, resid.size,
                                            np.random.default_rng(s))
                   for s in range(300)])
    d2 = np.array([sample_sigma2_from_sumsq(c ** 2 * rss, resid.size,
                                            np.random.default_rng(s))
                   for s in range(300)])
    np.testing.assert_allclose(d2, c ** 2 * d1, rtol=1e-10)


def test_sigma2_zero_residual():
    with pytest.raises(DegenerateRateError):
        sample_sigma2_from_sumsq(0.0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_sigma2_from_sumsq(1.0, 0, np.random.default_rng(0))


def test_inverse_gamma_density_convention():
    # with density ~ x^(-a-1) e^(-b/x), p(x) at the mode b/(a+1) must beat
    # neighbours; verified through the scipy parameterization equivalence
    from scipy.stats import invgamma
    rng = np.random.default_rng(7)
    a, b = 3.0, 2.0
    draws = np.array([sample_inverse_gamma(a, b, rng) for _ in range(200_000)])
    grid = np.quantile(draws, [0.1, 0.3, 0.5, 0.7, 0.9])
    np.testing.assert_allclose(invgamma.cdf(grid, a, scale=b),
                               [0.1, 0.3, 0.5, 0.7, 0.9], atol=5e-3)


# -- Gaussian block conditionals --------------------------------------------

def test_theta_conditional_zero_input_recovers_prior():
    rng = np.random.default_rng(8)
    n, p = 40, 4
    inputs = np.vstack([rng.standard_normal(n), np.zeros(n)])
    data = mi.Dataset(y=rng.standard_normal(n), inputs=inputs)
    bank = mi.RegressorBank(data, p)
    kernel = mi.build_kernel(0.9, p)
    hyper = mi.HyperState(lam=np.array([1.0, 2.5]), sigma2=0.5)
    theta = rng.standard_normal(2 * p)
    post = mi.block_conditional((1,), theta, bank.cross_state(theta), hyper,
                                BlockSpectra(bank, kernel), True)
    np.testing.assert_allclose(post.mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(post.covariance, 2.5 * kernel.K, rtol=1e-10)


def test_theta_conditional_large_noise_recovers_prior():
    data, bank, kernel, _ = make_small_problem(seed=9)
    hyper = mi.HyperState(lam=np.full(bank.m, 1.7), sigma2=1e12)
    zero = np.zeros(bank.m * bank.p)
    post = mi.block_conditional((0,), zero, bank.cross_state(zero), hyper,
                                BlockSpectra(bank, kernel), True)
    np.testing.assert_allclose(post.covariance, 1.7 * kernel.K, rtol=1e-6)


def test_theta_conditional_generalized_ridge_oracle():
    rng = np.random.default_rng(10)
    n, p = 20, 3
    u = rng.standard_normal(n)
    data = mi.Dataset(y=rng.standard_normal(n), inputs=u[None, :])
    bank = mi.RegressorBank(data, p)
    kernel = mi.build_kernel(0.9, p)
    lam, sigma2 = 0.6, 0.4
    hyper = mi.HyperState(lam=np.array([lam]), sigma2=sigma2)
    zero = np.zeros(p)
    post = mi.block_conditional((0,), zero, bank.cross_state(zero), hyper,
                                BlockSpectra(bank, kernel), True)
    G = toeplitz_block(u, p)
    ridge = np.linalg.solve(kernel.Kinv * sigma2 / lam + G.T @ G, G.T @ data.y)
    np.testing.assert_allclose(post.mean, ridge, atol=1e-8)


def test_block_conditional_orthogonal_inputs_decouple():
    n, p = 30, 3
    u1 = np.zeros(n); u1[0] = 1.0
    u2 = np.zeros(n); u2[10] = 1.0
    data = mi.Dataset(y=np.arange(n, dtype=float),
                      inputs=np.vstack([u1, u2]))
    bank = mi.RegressorBank(data, p)
    kernel = mi.build_kernel(0.8, p)
    hyper = mi.HyperState(lam=np.array([1.0, 3.0]), sigma2=0.7)
    theta = np.zeros(2 * p)
    cross = bank.cross_state(theta)
    spectra = BlockSpectra(bank, kernel)
    pair = mi.block_conditional((0, 1), theta, cross, hyper, spectra, True)
    np.testing.assert_allclose(pair.covariance[:p, p:], 0.0, atol=1e-12)
    single0 = mi.block_conditional((0,), theta, cross, hyper, spectra, True)
    single1 = mi.block_conditional((1,), theta, cross, hyper, spectra, True)
    np.testing.assert_allclose(pair.mean[:p], single0.mean, atol=1e-12)
    np.testing.assert_allclose(pair.mean[p:], single1.mean, atol=1e-12)
    np.testing.assert_allclose(pair.covariance[:p, :p], single0.covariance,
                               atol=1e-12)
    np.testing.assert_allclose(pair.covariance[p:, p:], single1.covariance,
                               atol=1e-12)


@pytest.mark.parametrize("common", [True, False],
                         ids=["common", "distinct"])
@pytest.mark.parametrize("often", [True, False], ids=["spectra", "factor"])
@pytest.mark.parametrize("channels", [(1,), (0, 2), (2, 0, 1)],
                         ids=["single", "pair", "triple"])
def test_block_conditional_matches_joint_schur(channels, often, common):
    # any tuple of channels, in the order given, against the Schur
    # extraction of the joint posterior; the three-channel tuple is the
    # whole problem, the joint posterior itself.  The spectral route is
    # taken only for a block drawn often under one scale factor.
    data, bank, kernel, _ = make_small_problem(seed=11, m=3, p=2, n=30)
    lam = 0.8 * (np.ones(3) if common else np.array([0.5, 1.0, 1.5]))
    sigma2 = 0.3
    joint = mi.analytic_posterior(bank, kernel, lam, sigma2)
    hyper = mi.HyperState(lam=lam, sigma2=sigma2)
    rng = np.random.default_rng(12)
    anchor = joint.mean + 0.4 * rng.standard_normal(6)
    idx = np.concatenate([[2 * k, 2 * k + 1] for k in channels])
    mean_ref, cov_ref = mi.joint_conditional(joint, idx, anchor)
    post = mi.block_conditional(channels, anchor, bank.cross_state(anchor),
                                hyper, BlockSpectra(bank, kernel), often)
    spectral = often and (common or len(channels) == 1)
    assert (post.root.scale is not None) == spectral
    np.testing.assert_allclose(post.mean, mean_ref, atol=1e-8)
    np.testing.assert_allclose(post.covariance, cov_ref, atol=1e-8)


def test_block_conditional_identical_inputs_null_direction():
    rng = np.random.default_rng(13)
    n, p = 200, 5
    u = rng.standard_normal(n)
    data = mi.Dataset(y=rng.standard_normal(n), inputs=np.vstack([u, u]))
    bank = mi.RegressorBank(data, p)
    kernel = mi.build_kernel(0.9, p)
    lam = 1.3
    hyper = mi.HyperState(lam=np.full(2, lam), sigma2=0.3)
    zero = np.zeros(2 * p)
    evals, evecs = np.linalg.eigh(kernel.K)
    v = evecs[:, -1]
    w = np.concatenate([v, -v]) / np.sqrt(2.0)
    spectra = BlockSpectra(bank, kernel)
    for often in (True, False):
        pair = mi.block_conditional((0, 1), zero, bank.cross_state(zero),
                                    hyper, spectra, often)
        # (v, -v) is invisible to identical inputs: its variance is prior
        # scale
        np.testing.assert_allclose(pair.covariance @ w, lam * evals[-1] * w,
                                   atol=1e-8)
        assert w @ pair.covariance @ w == pytest.approx(lam * evals[-1],
                                                        rel=1e-8)


def test_block_conditional_rejects_same_channel():
    # a channel repeated in a tuple is refused on either route
    data, bank, kernel, _ = make_small_problem(seed=14, m=3)
    hyper = mi.HyperState(lam=np.ones(bank.m), sigma2=1.0)
    zero = np.zeros(bank.m * bank.p)
    spectra = BlockSpectra(bank, kernel)
    for channels in ((1, 1), (0, 2, 0)):
        for often in (True, False):
            with pytest.raises(ValueError, match="distinct"):
                mi.block_conditional(channels, zero, bank.cross_state(zero),
                                     hyper, spectra, often)


def test_scale_consistency():
    # scaling y, u by c and sigma2 by c^2 leaves the conditional mean alone
    rng = np.random.default_rng(15)
    n, p, c = 40, 3, 5.0
    u = rng.standard_normal((2, n))
    y = rng.standard_normal(n)
    kernel = mi.build_kernel(0.9, p)
    theta = rng.standard_normal(2 * p)
    base = mi.RegressorBank(mi.Dataset(y=y, inputs=u), p)
    scaled = mi.RegressorBank(mi.Dataset(y=c * y, inputs=c * u), p)
    h1 = mi.HyperState(lam=np.full(2, 0.8), sigma2=0.4)
    h2 = mi.HyperState(lam=np.full(2, 0.8), sigma2=c ** 2 * 0.4)
    p1 = mi.block_conditional((0,), theta, base.cross_state(theta), h1,
                              BlockSpectra(base, kernel), True)
    p2 = mi.block_conditional((0,), theta, scaled.cross_state(theta), h2,
                              BlockSpectra(scaled, kernel), True)
    np.testing.assert_allclose(p1.mean, p2.mean, atol=1e-10)


# -- drawing -----------------------------------------------------------------

def _posterior(precision, rhs):
    """The Gaussian of this precision and right-hand side, by its Cholesky
    root; no right-hand side is formed from a gram here."""
    root = BlockRoot(None, _chol_lower(precision, "test"), None)
    return GaussianBlockPosterior(root, root.whiten(rhs))


def test_draw_gaussian_collapsed_covariance():
    mean = np.array([1.0, -2.0])
    precision = 1e12 * np.eye(2)
    post = _posterior(precision, precision @ mean)
    rng = np.random.default_rng(0)
    draws = np.array([mi.draw_gaussian(post, rng) for _ in range(1000)])
    assert np.max(np.abs(draws - mean)) < 1e-5


def test_draw_gaussian_moments():
    rng = np.random.default_rng(16)
    p = 5
    A = rng.standard_normal((p, p))
    cov = A @ A.T + np.eye(p)
    post = _posterior(np.linalg.inv(cov), np.zeros(p))
    draws = np.array([mi.draw_gaussian(post, rng) for _ in range(100_000)])
    emp = np.cov(draws.T)
    err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert err < 0.05


def test_draw_gaussian_deterministic():
    post = _posterior(np.eye(3), np.zeros(3))
    a = mi.draw_gaussian(post, np.random.default_rng(99))
    b = mi.draw_gaussian(post, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_posterior_covariance_symmetric():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((6, 6))
    post = _posterior(A @ A.T + 0.1 * np.eye(6), rng.standard_normal(6))
    assert np.max(np.abs(post.covariance - post.covariance.T)) < 1e-12
    assert np.linalg.eigvalsh(post.covariance).min() > 0.0


@st.composite
def spd_systems(draw):
    """(precision, rhs, condition number): p in 1..12, condition number
    from 1 to 1e8, eigenvalues scaled by 1e-3, 1 or 1e3."""
    p = draw(st.integers(1, 12))
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    evals = (np.geomspace(1.0, cond, p)
             * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    precision = (basis * evals) @ basis.T
    precision = 0.5 * (precision + precision.T)
    return precision, rng.standard_normal(p), cond


@settings(max_examples=200, deadline=None)
@given(spd_systems(), st.integers(0, 2 ** 32 - 1))
@example((np.diag(np.geomspace(1.0, 1e8, 12)), np.ones(12), 1e8), 0)
@example((np.array([[1e-3]]), np.array([2.0]), 1.0), 1)
def test_posterior_from_precision_property(system, seed):
    precision, rhs, cond = system
    p = rhs.size
    post = _posterior(precision, rhs)
    mean = post.mean
    # normwise backward error of the solve Q mean = b
    assert (np.linalg.norm(precision @ mean - rhs)
            <= 1e-9 * (np.linalg.norm(precision) * np.linalg.norm(mean)
                       + np.linalg.norm(rhs)))
    # 1e-8, or the p eps cond(Q) that rounding alone leaves in any
    # computed inverse once cond(Q) passes about 1e6 (8x headroom)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(post.covariance @ precision, np.eye(p),
                               rtol=0, atol=max(1e-8, 8 * p * eps * cond))
    z = np.random.default_rng(seed).standard_normal(p)
    expected = mean + solve_triangular(post.root.factor, z, lower=True,
                                       trans="T")
    draw = mi.draw_gaussian(post, np.random.default_rng(seed))
    np.testing.assert_allclose(draw, expected, rtol=0,
                               atol=1e-10 * np.abs(expected).max())


# -- gibbs stationarity (one composed sweep of coefficient updates) ---------

def test_theta_updates_preserve_exact_posterior():
    data, bank, kernel, _ = make_small_problem(seed=18, m=2, p=3, n=50)
    lam, sigma2 = 0.8, 0.3
    joint = mi.analytic_posterior(bank, kernel, lam, sigma2)
    hyper = mi.HyperState(lam=np.full(2, lam), sigma2=sigma2)
    L = np.linalg.cholesky(joint.covariance)
    rng = np.random.default_rng(19)
    n_rep, dim = 10_000, 6
    out = np.empty((n_rep, dim))
    spectra = BlockSpectra(bank, kernel)
    for r in range(n_rep):
        theta = joint.mean + L @ rng.standard_normal(dim)
        for k in range(2):
            post = mi.block_conditional((k,), theta, bank.cross_state(theta),
                                        hyper, spectra, True)
            theta[k * 3:(k + 1) * 3] = mi.draw_gaussian(post, rng)
        out[r] = theta
    sd = np.sqrt(np.diag(joint.covariance))
    z = np.abs(out.mean(axis=0) - joint.mean) / (sd / np.sqrt(n_rep))
    assert np.max(z) < 3.5
    emp = np.cov(out.T)
    for i in range(dim):
        for j in range(dim):
            se = np.sqrt((joint.covariance[i, i] * joint.covariance[j, j]
                          + joint.covariance[i, j] ** 2) / n_rep)
            assert abs(emp[i, j] - joint.covariance[i, j]) < 4 * se


# -- factorization policy ----------------------------------------------------

def test_chol_jitter_retry_and_failure():
    fixed = _chol_lower(np.diag([1.0, 1.0, 0.0]), "test")
    assert fixed.shape == (3, 3)
    with pytest.raises(FactorizationError):
        _chol_lower(np.diag([1.0, 1.0, -1.0]), "test")
    # LAPACK factors NaN without an error code; the finite check catches it
    nan = np.nan
    for bad in (np.array([[1.0, nan], [nan, 1.0]]), np.array([[nan]]),
                np.diag([1.0, np.inf]),
                np.array([[np.inf, -np.inf], [-np.inf, np.inf]])):
        with pytest.raises(FactorizationError):
            _chol_lower(bad, "test")


def test_vanishing_scale_factor_raises_instead_of_nan():
    # lambda near the rate floor makes Kinv / lambda infinite
    _, bank, kernel, _ = make_small_problem(seed=20)
    hyper = mi.HyperState(lam=np.full(bank.m, 5e-324), sigma2=0.5)
    theta = np.ones(bank.m * bank.p)
    cross = bank.cross_state(theta)
    spectra = BlockSpectra(bank, kernel)
    for channels in ((0,), (0, 1)):
        for often in (True, False):
            with np.errstate(over="ignore"), \
                    pytest.raises(FactorizationError):
                mi.block_conditional(channels, theta, cross, hyper, spectra,
                                     often)


def test_lapack_factor_and_draw():
    _, bank, kernel, _ = make_small_problem(seed=21, m=3, p=6, n=60)
    p = bank.p
    gram = bank.dense_gram()[p:2 * p, p:2 * p]    # non-contiguous view
    gram.setflags(write=False)
    assert not gram.flags.writeable and not gram.flags.c_contiguous
    before = gram.copy()
    L = _chol_lower(gram, "test")
    np.testing.assert_array_equal(gram, before)
    np.testing.assert_array_equal(np.triu(L, 1), 0.0)
    ref = np.linalg.cholesky(before)
    assert np.max(np.abs(L - ref)) <= 1e-12 * np.max(np.abs(ref))

    hyper = mi.HyperState(lam=np.array([0.5, 1.5, 2.0]), sigma2=0.4)
    rng = np.random.default_rng(22)
    theta = rng.standard_normal(bank.m * bank.p)
    cross = bank.cross_state(theta)
    precision = 0.3 * np.eye(bank.p) + bank.gram(2, 2)
    saved = precision.copy()
    post = _posterior(precision, np.ones(bank.p))
    np.testing.assert_array_equal(precision, saved)
    # a plain posterior, a pair with two scale factors, and a single
    # channel and a common-scale pair drawn rarely: Cholesky form
    spectra = BlockSpectra(bank, kernel)
    common = mi.HyperState(lam=np.full(3, 0.7), sigma2=0.4)
    for post in (post,
                 mi.block_conditional((0, 2), theta, cross, hyper, spectra,
                                      True),
                 mi.block_conditional((2,), theta, cross, hyper, spectra,
                                      False),
                 mi.block_conditional((0, 2), theta, cross, common, spectra,
                                      False)):
        assert post.root.scale is None
        L = post.root.factor
        np.testing.assert_array_equal(np.triu(L, 1), 0.0)
        z = np.random.default_rng(23).standard_normal(L.shape[0])
        expected = post.mean + solve_triangular(L, z, lower=True, trans="T")
        draw = mi.draw_gaussian(post, np.random.default_rng(23))
        np.testing.assert_allclose(draw, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
    # a single channel and a common-scale pair: spectral form, whose root
    # T = W diag(scale) whitens the precision assembled here, T'QT = I
    pair_precision = bank.block_gram((0, 2)) / 0.4
    pair_precision[:p, :p] += kernel.Kinv / 0.7
    pair_precision[p:, p:] += kernel.Kinv / 0.7
    spectral = [
        (mi.block_conditional((2,), theta, cross, hyper, spectra, True),
         kernel.Kinv / 2.0 + bank.gram(2, 2) / 0.4),
        (mi.block_conditional((0, 2), theta, cross, common, spectra, True),
         pair_precision),
    ]
    for post, precision in spectral:
        root = post.root.factor * post.root.scale
        np.testing.assert_allclose(root.T @ precision @ root,
                                   np.eye(root.shape[0]), rtol=0, atol=1e-12)
        z = np.random.default_rng(23).standard_normal(root.shape[0])
        expected = post.mean + root @ z
        draw = mi.draw_gaussian(post, np.random.default_rng(23))
        np.testing.assert_allclose(draw, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
    np.testing.assert_array_equal(bank.cross_state(theta), cross)


@st.composite
def spectral_systems(draw):
    """(gram, chol, Kinv, lam, rhs): a data gram for a p-channel block,
    p in 1..12, with condition number 1 to 1e8 and scale 1e-3, 1 or 1e3;
    or the rank-deficient 2p gram of a duplicated channel.  The prior has
    decay alpha in [0.5, 0.99]."""
    p = draw(st.integers(1, 12))
    kernel = mi.build_kernel(draw(st.floats(0.5, 0.99)), p)
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    evals = (np.geomspace(1.0, cond, p)
             * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    gram = (basis * evals) @ basis.T
    gram = 0.5 * (gram + gram.T)
    kinv = kernel.Kinv
    if draw(st.booleans()):
        gram = np.block([[gram, gram], [gram, gram]])
        kinv = np.kron(np.eye(2), kinv)
    lam = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return gram, kernel.chol, kinv, lam, rng.standard_normal(gram.shape[0])


_EDGE = mi.build_kernel(0.99, 12)


@settings(max_examples=200, deadline=None)
@given(spectral_systems(), st.integers(0, 2 ** 32 - 1))
@example((np.diag(np.geomspace(1.0, 1e8, 12)), _EDGE.chol, _EDGE.Kinv, 0.1,
          np.ones(12)), 0)
@example((np.kron(np.ones((2, 2)), np.diag(np.geomspace(1e-3, 1e5, 12))),
          _EDGE.chol, np.kron(np.eye(2), _EDGE.Kinv), 10.0, np.ones(24)), 1)
def test_spectral_posterior_matches_cholesky(system, seed):
    gram, chol, kinv, lam, rhs = system
    size = rhs.size
    precision = kinv / lam + gram
    cond = np.linalg.cond(precision)
    bound = max(1e-8, 8 * size * np.finfo(float).eps * cond)
    basis, evals = block_spectrum(gram, chol)
    root = BlockRoot(gram, basis, spectral_scales(lam, 1.0, evals))
    spectral = GaussianBlockPosterior(root, root.whiten(rhs))
    ref = _posterior(precision, rhs)
    mean, ref_mean = spectral.mean, ref.mean
    assert (np.linalg.norm(precision @ mean - rhs)
            <= 1e-9 * (np.linalg.norm(precision) * np.linalg.norm(mean)
                       + np.linalg.norm(rhs)))
    np.testing.assert_allclose(mean, ref_mean, rtol=0,
                               atol=bound * np.abs(ref_mean).max())
    cov = spectral.covariance
    np.testing.assert_allclose(cov @ precision, np.eye(size), rtol=0,
                               atol=bound)
    np.testing.assert_allclose(cov, ref.covariance, rtol=0,
                               atol=bound * np.abs(ref.covariance).max())
    # fixed z: the draw is mean + T z, and the Cholesky factor of the
    # precision whitens T z back to a vector of the same length as z
    z = np.random.default_rng(seed).standard_normal(size)
    draw = mi.draw_gaussian(spectral, np.random.default_rng(seed))
    step = root.factor @ (root.scale * z)
    np.testing.assert_allclose(draw, mean + step, rtol=0,
                               atol=1e-12 * np.abs(draw).max())
    whitened = ref.root.factor.T @ step
    assert abs(np.linalg.norm(whitened) - np.linalg.norm(z)) <= (
        bound * np.linalg.norm(z))


def test_pair_route_follows_its_two_scale_factors():
    # a pair is spectral exactly when it is drawn often and its own two
    # scale factors are equal, whatever the other channels' scales
    _, bank, kernel, _ = make_small_problem(seed=24, m=3, p=4, n=60)
    hyper = mi.HyperState(lam=np.array([0.5, 0.5, 2.0]), sigma2=0.4)
    theta = np.random.default_rng(25).standard_normal(bank.m * bank.p)
    cross = bank.cross_state(theta)
    spectra = BlockSpectra(bank, kernel)
    spectral = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for often in (True, False):
            post = mi.block_conditional((i, j), theta, cross, hyper, spectra,
                                        often)
            spectral[i, j, often] = post.root.scale is not None
    assert spectral == {(0, 1, True): True, (0, 2, True): False,
                        (1, 2, True): False, (0, 1, False): False,
                        (0, 2, False): False, (1, 2, False): False}
    # both routes of the equal-scale pair are the same posterior
    routes = [mi.block_conditional((0, 1), theta, cross, hyper, spectra,
                                   often)
              for often in (True, False)]
    np.testing.assert_allclose(routes[0].mean, routes[1].mean, atol=1e-10)
    np.testing.assert_allclose(routes[0].covariance, routes[1].covariance,
                               atol=1e-10)


def test_spectra_built_once_and_shared(monkeypatch):
    # asked for the same blocks again and again, the spectra decompose each
    # block once and hand back that one result every time
    import misoid.conditionals as conditionals

    _, bank, kernel, _ = make_small_problem(seed=24, m=3, p=4, n=40)
    built = []
    real = conditionals.block_spectrum

    def counted(gram, chol):
        built.append(gram.shape[0])
        return real(gram, chol)

    monkeypatch.setattr(conditionals, "block_spectrum", counted)
    spectra = BlockSpectra(bank, kernel)
    keys = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    seen = [spectra(key) for _ in range(20) for key in keys]
    assert sorted(built) == [4, 4, 4, 8, 8, 8]
    assert all(got is spectra(key) for got, key in zip(seen, keys * 20))
    basis, evals = spectra((0, 2))
    gram = spectra.gram((0, 2))
    assert basis.shape == (8, 8) and not basis.flags.writeable
    assert not gram.flags.writeable
    np.testing.assert_array_equal(gram, bank.block_gram((0, 2)))
    assert evals.min() >= 0.0 and np.all(np.diff(evals) >= 0.0)


def test_spectra_keep_each_gram_once(monkeypatch):
    # a block's kept gram is the very array the bank builds for it, built
    # once whether its spectrum or its factored route asks first
    _, bank, kernel, _ = make_small_problem(seed=24, m=3, p=4, n=40)
    spectra = BlockSpectra(bank, kernel)
    asked = []
    real = bank.block_gram

    def counted(channels):
        asked.append(channels)
        return real(channels)

    monkeypatch.setattr(bank, "block_gram", counted)
    gram = spectra.gram((0, 2))
    spectra((0, 2))
    spectra((1, 2))
    assert spectra.gram((0, 2)) is gram
    spectra.gram((1, 2))
    assert asked == [(0, 2), (1, 2)]
    assert not gram.flags.writeable
    assert gram.tobytes() == real((0, 2)).tobytes()
    # under two scale factors the factored route reads the kept gram
    hyper = mi.HyperState(lam=np.array([0.5, 0.9, 2.0]), sigma2=0.4)
    theta = np.random.default_rng(27).standard_normal(bank.m * bank.p)
    cross = bank.cross_state(theta)
    root = block_root((0, 2), hyper, spectra, True)
    assert root.scale is None and root.gram is gram
    assert asked == [(0, 2), (1, 2)]


def test_block_root_whiten_and_times_are_one_root():
    # the spectral and the factored root of one block, a duplicated-input
    # pair among the blocks, each act as one square root T of the block's
    # covariance: whiten is T' and times is T, so u . T v = T'u . v and
    # T T'b = Sigma b
    rng = np.random.default_rng(30)
    n, p, lam, sigma2 = 80, 4, 0.7, 0.4
    u = rng.standard_normal((2, n))
    data = mi.Dataset(y=rng.standard_normal(n),
                      inputs=np.vstack([u[0], u[0], u[1]]))
    bank = mi.RegressorBank(data, p)
    kernel = mi.build_kernel(0.9, p)
    spectra = BlockSpectra(bank, kernel)
    hyper = mi.HyperState(lam=np.full(3, lam), sigma2=sigma2)
    for channels in ((1,), (0, 1), (1, 2)):
        size = p * len(channels)
        precision = (bank.block_gram(channels) / sigma2
                     + np.kron(np.eye(len(channels)), kernel.Kinv) / lam)
        for often in (True, False):
            root = block_root(channels, hyper, spectra, often)
            assert (root.scale is not None) == often
            dense = root.times(np.eye(size))
            left, right, b = rng.standard_normal((3, size))
            bound = 1e-12 * (np.abs(left) @ np.abs(dense) @ np.abs(right))
            assert abs(left @ root.times(right)
                       - root.whiten(left) @ right) <= bound
            expected = np.linalg.solve(precision, b)
            assert (np.linalg.norm(root.times(root.whiten(b)) - expected)
                    <= 1e-10 * np.linalg.norm(expected))


def test_block_roots_are_reused_for_one_hyper(monkeypatch):
    # a block drawn again at the same hyperparameters whitens its new
    # right-hand side with the root it already has: the same posterior,
    # byte for byte, as one built afresh, and no second factorization
    import misoid.conditionals as conditionals

    _, bank, kernel, _ = make_small_problem(seed=28, m=3, p=4, n=60)
    spectra = BlockSpectra(bank, kernel)
    rng = np.random.default_rng(29)
    factored = []
    real = conditionals._chol_lower

    def counted(mat, what):
        factored.append(mat.shape[0])
        return real(mat, what)

    monkeypatch.setattr(conditionals, "_chol_lower", counted)
    for lam in (np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.9, 2.0])):
        hyper = mi.HyperState(lam=lam, sigma2=0.4)
        for often in (True, False):
            roots: dict = {}
            factored.clear()
            for _ in range(3):
                theta = rng.standard_normal(bank.m * bank.p)
                cross = bank.cross_state(theta)
                kept = mi.block_conditional((0, 1), theta, cross, hyper,
                                            spectra, often, roots)
                fresh = mi.block_conditional((0, 1), theta, cross, hyper,
                                             spectra, often)
                for a, b in ((kept.root.factor, fresh.root.factor),
                             (kept.whitened, fresh.whitened)):
                    assert a.tobytes() == b.tobytes()
                assert kept.root.factor is roots[(0, 1)].factor
            spectral = often and lam[0] == lam[1]
            assert factored == ([] if spectral else [8] * 4)


def test_spectral_scales_must_be_finite_and_positive():
    # a pair of all-zero inputs gives e = 0; an infinite scale factor then
    # leaves s = 0, an infinite 1/sigma2 gives NaN, a vanishing scale
    # factor gives s = inf: each raises instead of returning zeros
    kernel = mi.build_kernel(0.9, 3)
    spectrum = block_spectrum(np.zeros((6, 6)), kernel.chol)
    np.testing.assert_array_equal(spectrum[1], 0.0)
    for lam, inv_s2 in ((np.inf, 1.0), (1.0, np.inf), (5e-324, 1.0)):
        with np.errstate(invalid="ignore"), \
                pytest.raises(FactorizationError):
            spectral_scales(lam, inv_s2, spectrum.evals)


def test_lambda_rates_are_banded_sums():
    rng = np.random.default_rng(25)
    kernel = mi.build_kernel(0.95, 50)
    theta = rng.standard_normal(20 * 50) * np.repeat(
        10.0 ** rng.uniform(-3, 3, 20), 50)
    theta[100:150] = 0.0                      # one all-zero channel
    blocks = theta.reshape(20, 50)
    forms = [mi.quad_form(kernel, row) for row in blocks]
    np.testing.assert_allclose(mi.quad_form(kernel, blocks), forms,
                               rtol=1e-12, atol=0)
    assert mi.quad_form(kernel, blocks)[2] == 0.0
    # the common rate: draw x gamma(shape) recovers it from the same stream
    shape = 0.5 * theta.size
    draw = mi.sample_lambda_common(theta, kernel, np.random.default_rng(3))
    rate = draw * np.random.default_rng(3).gamma(shape)
    assert rate == pytest.approx(0.5 * sum(forms), rel=1e-12)
    # per channel: m gamma draws in channel order, as m one-row calls make
    nonzero = np.delete(blocks, 2, axis=0)
    together = mi.sample_lambda_k(nonzero, kernel, np.random.default_rng(4))
    stream = np.random.default_rng(4)
    apart = [mi.sample_lambda_k(row[None], kernel, stream)[0]
             for row in nonzero]
    np.testing.assert_allclose(together, apart, rtol=1e-12)
    with pytest.raises(DegenerateRateError):
        mi.sample_lambda_k(blocks, kernel, np.random.default_rng(4))
    with pytest.raises(ValueError):
        mi.sample_lambda_k(theta, kernel, np.random.default_rng(4))


def test_hyper_state_validation():
    with pytest.raises(ValueError):
        mi.HyperState(lam=np.array([-1.0, 1.0]), sigma2=1.0)
    with pytest.raises(ValueError):
        mi.HyperState(lam=np.array([1.0, 0.0]), sigma2=1.0)
    with pytest.raises(ValueError):
        mi.HyperState(lam=np.ones(2), sigma2=0.0)
    # one scale factor per channel: a scalar or a 2-d array is refused
    with pytest.raises(ValueError):
        mi.HyperState(lam=1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        mi.HyperState(lam=np.ones((2, 1)), sigma2=1.0)
