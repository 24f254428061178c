import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from misoid import build_kernel, quad_form
from misoid.kernel import check_kernel_settings


def test_single_entry():
    k = build_kernel(0.9, 1)
    assert k.K.shape == (1, 1)
    assert k.K[0, 0] == pytest.approx(0.9)


def test_direct_evaluation_p3():
    k = build_kernel(0.9, 3)
    expected = np.array([
        [0.9, 0.81, 0.729],
        [0.81, 0.81, 0.729],
        [0.729, 0.729, 0.729],
    ])
    np.testing.assert_allclose(k.K, expected, rtol=0, atol=1e-15)


def test_inverse_2x2_vs_solver():
    k = build_kernel(0.5, 2)
    dense = np.linalg.inv(np.array([[0.5, 0.25], [0.25, 0.25]]))
    np.testing.assert_allclose(k.Kinv, dense, rtol=1e-8)
    resid = k.Kinv @ k.K - np.eye(2)
    assert np.linalg.norm(resid) / np.sqrt(2) < 1e-8


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("p", [1, 5, 50])
def test_positive_definite(alpha, p):
    k = build_kernel(alpha, p)
    assert np.linalg.eigvalsh(k.K).min() > 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("p", [2, 5, 50])
def test_closed_form_inverse_matches_dense(alpha, p):
    k = build_kernel(alpha, p)
    dense = np.linalg.inv(k.K)
    err = np.linalg.norm(k.Kinv - dense) / np.linalg.norm(dense)
    assert err < 1e-8


def test_inverse_is_tridiagonal():
    k = build_kernel(0.9, 8)
    for i in range(8):
        for j in range(8):
            if abs(i - j) >= 2:
                assert k.Kinv[i, j] == 0.0


@pytest.mark.parametrize("alpha,p", [(0.5, 4), (0.9, 50), (0.99, 20)])
def test_cholesky_reconstructs(alpha, p):
    k = build_kernel(alpha, p)
    err = np.linalg.norm(k.chol @ k.chol.T - k.K) / np.linalg.norm(k.K)
    assert err < 1e-10


def _accepted(alpha, p):
    try:
        check_kernel_settings(alpha, p)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 0.99), st.integers(1, 200))
@example(0.05, 200)      # the widest dynamic range the domain allows
@example(0.99, 200)      # slowest decay: the largest |Kinv| |K|
@example(0.05, 1)
def test_kernel_inverse_and_factor_properties(alpha, p):
    # Kinv @ K = I entrywise within 16 eps (|Kinv| |K|): every entry of
    # both matrices carries a few ulps of error and each product entry sums
    # three nonzero terms.  The row sums of |Kinv| |K| are Skeel's condition
    # number of K, so the normwise form of this bound is 16 eps cond(K);
    # here |Kinv| |K| stays below 4 / (1 - alpha) while the normwise
    # cond(K) reaches alpha**-p.
    assume(_accepted(alpha, p))
    k = build_kernel(alpha, p)
    abs_product = np.abs(k.Kinv) @ np.abs(k.K)
    residual = np.abs(k.Kinv @ k.K - np.eye(p))
    eps = np.finfo(float).eps
    assert np.all(residual <= 16 * eps * abs_product)
    assert abs_product.max() <= 4.0 / (1.0 - alpha)
    # K and its factor have positive entries, so chol @ chol.T has no
    # cancellation and matches K entrywise
    np.testing.assert_allclose(k.chol @ k.chol.T, k.K, rtol=1e-12, atol=0)
    assert np.array_equal(k.Kinv, k.Kinv.T)
    assert not np.triu(k.Kinv, 2).any() and not np.tril(k.Kinv, -2).any()


def test_domain_errors():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            build_kernel(alpha, 3)
    with pytest.raises(ValueError):
        build_kernel(0.9, 0)


def test_underflowing_order_refused():
    # alpha**p (1 - alpha) bounds the inverse: at alpha = 0.01 it is a
    # normal double up to p = 153, and the inverse stays finite there
    assert np.isfinite(build_kernel(0.01, 153).Kinv).all()
    for alpha, p in ((0.01, 154), (0.01, 200), (0.9, 6720)):
        with pytest.raises(ValueError, match="underflows"):
            build_kernel(alpha, p)


def test_quad_form_zero_vector():
    k = build_kernel(0.7, 6)
    assert quad_form(k, np.zeros(6)) == 0.0


def test_quad_form_scalar():
    k = build_kernel(0.9, 1)
    assert quad_form(k, np.array([1.0])) == pytest.approx(1 / 0.9, rel=1e-12)


def test_quad_form_matches_dense_solve():
    rng = np.random.default_rng(3)
    k = build_kernel(0.9, 3)
    for _ in range(10):
        v = rng.standard_normal(3)
        direct = float(v @ np.linalg.solve(k.K, v))
        assert quad_form(k, v) == pytest.approx(direct, abs=1e-10)
    assert quad_form(k, rng.standard_normal(3)) >= 0.0


def test_quad_form_dimension_mismatch():
    k = build_kernel(0.9, 4)
    with pytest.raises(ValueError):
        quad_form(k, np.ones(5))


def test_arrays_read_only():
    k = build_kernel(0.9, 4)
    with pytest.raises(ValueError):
        k.K[0, 0] = 1.0
