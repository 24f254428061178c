import numpy as np
import pytest

import misoid as mi
from misoid.diagnostics import build_report, fit_metric, run_oracle_checks
from misoid.errors import SizeGuardError
from misoid.kernel import build_kernel
from misoid.regression import RegressorBank

from conftest import make_small_problem, stacked_regressors


# -- analytic posterior -------------------------------------------------------

def test_zero_inputs_recover_prior():
    p = 4
    data = mi.Dataset(y=np.ones(20), inputs=np.zeros((2, 20)))
    bank = RegressorBank(data, p)
    kernel = build_kernel(0.9, p)
    post = mi.analytic_posterior(bank, kernel, 2.0, 0.5)
    np.testing.assert_allclose(post.mean, 0.0, atol=1e-12)
    for k in range(2):
        sl = slice(k * p, (k + 1) * p)
        np.testing.assert_allclose(post.covariance[sl, sl], 2.0 * kernel.K,
                                   rtol=1e-9)


def test_mean_is_regularized_objective_minimum():
    data, bank, kernel, _ = make_small_problem(seed=1, m=2, p=4, n=60)
    lam, sigma2 = 0.7, 0.4
    post = mi.analytic_posterior(bank, kernel, lam, sigma2)
    # gradient of ||y - G t||^2 / s2 + t' blockdiag(Kinv/lam) t at the mean
    resid = bank.data.y - bank.predict(post.mean)
    G = stacked_regressors(bank.data.inputs, 4)
    prior = np.concatenate([
        2.0 * kernel.Kinv @ post.mean[:4] / lam,
        2.0 * kernel.Kinv @ post.mean[4:] / lam,
    ])
    grad = -2.0 * G.T @ resid / sigma2 + prior
    scale = np.linalg.norm(2.0 * G.T @ bank.data.y / sigma2)
    assert np.linalg.norm(grad) / scale < 1e-6


def test_per_channel_scales_accepted():
    data, bank, kernel, _ = make_small_problem(seed=2, m=2, p=3, n=40)
    post = mi.analytic_posterior(bank, kernel, np.array([0.5, 2.0]), 0.3)
    assert post.mean.shape == (6,)


def test_size_guard():
    rng = np.random.default_rng(3)
    data = mi.Dataset(y=rng.standard_normal(30),
                      inputs=rng.standard_normal((50, 30)))
    bank = RegressorBank(data, 41)
    kernel = build_kernel(0.9, 41)
    with pytest.raises(SizeGuardError):
        mi.analytic_posterior(bank, kernel, 1.0, 1.0)


# -- iact / ess ---------------------------------------------------------------

def test_iact_iid_near_one():
    rng = np.random.default_rng(4)
    tau = mi.iact(rng.standard_normal(10_000))
    assert 0.8 <= tau <= 1.3


def test_iact_ar1_matches_closed_form():
    rng = np.random.default_rng(5)
    n, phi = 20_000, 0.9
    x = np.empty(n)
    x[0] = rng.standard_normal()
    eps = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    target = (1 + phi) / (1 - phi)
    tau = mi.iact(x)
    assert abs(tau - target) / target < 0.3


def test_iact_constant_trace_flagged():
    with pytest.warns(UserWarning):
        tau = mi.iact(np.ones(100))
    assert tau == 100.0


def test_iact_needs_enough_samples():
    with pytest.raises(ValueError):
        mi.iact(np.arange(10.0))


def test_ess_bounded_by_length():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(5000)
    ess = x.size / mi.iact(x)
    assert ess <= 5000
    assert ess == pytest.approx(5000, rel=0.3)


# -- fit metrics --------------------------------------------------------------

def test_fit_metric_exact_and_zero():
    rng = np.random.default_rng(7)
    truth = rng.standard_normal(12)
    np.testing.assert_allclose(fit_metric(truth, truth, 4), 0.0)
    np.testing.assert_allclose(fit_metric(np.zeros(12), truth, 4), 1.0)


def test_fit_metric_homogeneity():
    rng = np.random.default_rng(8)
    truth = rng.standard_normal(10)
    pert = rng.standard_normal(10)
    pert = 0.1 * np.linalg.norm(truth[:5]) * pert[:5] / np.linalg.norm(pert[:5])
    est = truth.copy()
    est[:5] += pert
    errs = fit_metric(est, truth, 5)
    assert errs[0] == pytest.approx(0.1, rel=1e-10)
    assert errs[1] == 0.0


def test_fit_metric_zero_norm_truth():
    with pytest.raises(ValueError):
        fit_metric(np.ones(4), np.zeros(4), 2)


def test_pair_sum_error():
    rng = np.random.default_rng(9)
    truth = rng.standard_normal(8)
    est = truth.copy()
    est[:4] += 0.3   # shift channel 0 up...
    est[4:] -= 0.3   # ...and channel 1 down: the sum is unchanged
    # scored on the summed responses, as criterion 6 scores them
    summed = fit_metric(est[:4] + est[4:], truth[:4] + truth[4:], 4)[0]
    assert summed == pytest.approx(0.0, abs=1e-12)
    assert fit_metric(est, truth, 4)[0] > 0.0


# -- report -------------------------------------------------------------------

def test_build_report_and_json(tmp_path):
    data, bank, kernel, theta_true = make_small_problem(seed=10)
    problem = mi.Problem(data=data, bank=bank, kernel=kernel)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=200, beta=20.0, n_ob=1,
                           seed=0)
    record = mi.run(problem, cfg)
    report = build_report(record, truth_responses=theta_true)
    assert "lambda" in report.iact and "sigma2" in report.iact
    assert report.ess["lambda"] <= record.n_mc - record.burn_in
    assert report.fit_errors.shape == (2,)
    out = tmp_path / "diag.json"
    report.to_json(out)
    assert out.exists()


# -- oracle suite -------------------------------------------------------------

def test_oracle_checks_pass_and_mutation_fails():
    corrupted = run_oracle_checks(seed=0, n_sweeps=300, corrupt_mean=True)
    assert not corrupted.passed
    # the mutation must not leak into later calls
    report = run_oracle_checks(seed=0, n_sweeps=2000)
    assert report.passed


def test_oracle_catches_a_channel_read_with_another_channels_scale(
        monkeypatch):
    # the chains' single-channel draws read the scales in reverse order:
    # a no-op at a common scale, wrong at the oracle's distinct GSd scales
    from misoid import sampler as sp
    real = sp.draw_channels

    def reversed_scales(theta, cross, hyper, *args):
        hyper = mi.HyperState(lam=hyper.lam[::-1], sigma2=hyper.sigma2)
        return real(theta, cross, hyper, *args)

    monkeypatch.setattr(sp, "draw_channels", reversed_scales)
    report = run_oracle_checks(seed=0, n_sweeps=500)
    passed = {check.name.split()[0]: check.passed for check in report.checks}
    assert not passed["GSd"]
    assert passed["GS"]
