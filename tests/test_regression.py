import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import misoid as mi

from conftest import make_example1, stacked_regressors, toeplitz_block


def test_unit_impulse_block():
    # G = [[1, 0], [0, 1], [0, 0]]: G'G = I and G'y = y[:2]
    y = np.array([0.7, -1.2, 3.0])
    d = mi.Dataset(y=y, inputs=np.array([[1.0, 0.0, 0.0]]))
    bank = mi.RegressorBank(d, 2)
    np.testing.assert_array_equal(bank.gram(0, 0), np.eye(2))
    np.testing.assert_array_equal(bank.xty(0), y[:2])


def test_toeplitz_layout():
    # G = [[a, 0], [b, a], [c, b]]
    a, b, c = 1.5, -2.0, 0.3
    y = np.array([0.5, 2.0, -1.0])
    d = mi.Dataset(y=y, inputs=np.array([[a, b, c]]))
    bank = mi.RegressorBank(d, 2)
    G = np.array([[a, 0], [b, a], [c, b]])
    np.testing.assert_allclose(bank.gram(0, 0), G.T @ G, rtol=1e-15)
    np.testing.assert_allclose(bank.xty(0), G.T @ y, rtol=1e-15)


def test_prediction_matches_direct_convolution():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(100)
    theta = rng.standard_normal(10)
    d = mi.Dataset(y=np.zeros(100), inputs=u[None, :])
    bank = mi.RegressorBank(d, 10)
    direct = np.array([
        sum(theta[j] * (u[i - j] if i - j >= 0 else 0.0) for j in range(10))
        for i in range(100)
    ])
    np.testing.assert_allclose(bank.predict(theta), direct, atol=1e-12)


def test_predict_zero_and_impulse():
    rng = np.random.default_rng(1)
    d = mi.Dataset(y=np.zeros(30),
                   inputs=np.r_[1.0, np.zeros(29)][None, :])
    bank = mi.RegressorBank(d, 5)
    assert np.all(bank.predict(np.zeros(5)) == 0.0)
    theta = rng.standard_normal(5)
    np.testing.assert_allclose(bank.predict(theta)[:5], theta, atol=1e-14)


def test_predict_linear():
    rng = np.random.default_rng(2)
    d = mi.Dataset(y=np.zeros(40), inputs=rng.standard_normal((2, 40)))
    bank = mi.RegressorBank(d, 4)
    t1, t2 = rng.standard_normal(8), rng.standard_normal(8)
    np.testing.assert_allclose(bank.predict(t1 + t2),
                               bank.predict(t1) + bank.predict(t2),
                               atol=1e-12)


def test_column_norms_match_truncated_input():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(25)
    d = mi.Dataset(y=np.zeros(25), inputs=u[None, :])
    bank = mi.RegressorBank(d, 6)
    norms = np.sqrt(np.diag(bank.gram(0, 0)))
    for j in range(6):
        assert norms[j] == pytest.approx(np.linalg.norm(u[:25 - j]))


def test_true_theta_residual_variance():
    data, system = make_example1(data_seed=11)
    bank = mi.RegressorBank(data, 50)
    resid = data.y - bank.predict(system.responses.ravel())
    assert np.var(resid) == pytest.approx(0.3, abs=0.06)


def test_lagged_path_matches_dense():
    # one channel too: its grid is the cached gram, returned as a fresh
    # writable copy because the dense oracle scales it in place
    rng = np.random.default_rng(4)
    n, p = 150, 6
    for m in (3, 1):
        d = mi.Dataset(y=rng.standard_normal(n),
                       inputs=rng.standard_normal((m, n)))
        bank = mi.RegressorBank(d, p)
        G = stacked_regressors(d.inputs, p)
        dense = bank.dense_gram()
        np.testing.assert_allclose(dense, G.T @ G, atol=1e-10)
        np.testing.assert_allclose(bank.gty, G.T @ d.y, atol=1e-10)
        assert dense.flags.writeable
        dense *= 2.0
        np.testing.assert_allclose(bank.dense_gram(), G.T @ G, atol=1e-10)


@st.composite
def lagged_instances(draw):
    """(inputs, y, p): m in 1..4, p in 1..12, n from 1 to about 3p."""
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 12))
    n = draw(st.integers(1, 3 * p + 2))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inputs = scale * rng.standard_normal((m, n))
    if m > 1 and draw(st.booleans()):
        inputs[-1] = inputs[0]          # duplicated input: collinear pair
    return inputs, rng.standard_normal(n), p


def _instance(m, p, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal(n), p


@settings(max_examples=200, deadline=None)
@given(lagged_instances())
@example(_instance(2, 6, 3, 0))        # p > n: rank deficient
@example(_instance(3, 6, 6, 1))        # p = n
@example(_instance(2, 7, 10, 2))       # p < n < 2p
@example(_instance(4, 12, 30, 3))
@example(_instance(1, 1, 1, 4))
def test_cross_products_match_toeplitz_products(instance):
    inputs, y, p = instance
    m, n = inputs.shape
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bank = mi.RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
    assert any(issubclass(w.category, UserWarning) for w in caught) == (p > n)

    G = stacked_regressors(inputs, p)
    gtg, gty = G.T @ G, G.T @ y
    dense = bank.dense_gram()
    np.testing.assert_allclose(dense, gtg, rtol=0,
                               atol=1e-10 * np.abs(gtg).max())
    np.testing.assert_allclose(bank.gty, gty, rtol=0,
                               atol=1e-10 * np.abs(gty).max())
    assert np.array_equal(dense, dense.T)
    assert dense.flags.c_contiguous
    assert not bank.gty.flags.writeable
    for i in range(m):
        assert not bank.gram(i, i).flags.writeable
        for j in range(m):
            np.testing.assert_array_equal(
                bank.gram(i, j),
                dense[i * p:(i + 1) * p, j * p:(j + 1) * p])
            np.testing.assert_array_equal(bank.gram(j, i),
                                          bank.gram(i, j).T)


def _duplicated(m, p, n, seed):
    inputs, y, p = _instance(m, p, n, seed)
    inputs[-1] = inputs[0]
    return inputs, y, p


@settings(max_examples=200, deadline=None)
@given(lagged_instances(), st.integers(0, 2 ** 32 - 1))
@example(_instance(2, 6, 3, 0), 0)     # p > n
@example(_instance(3, 6, 6, 1), 1)     # p = n
@example(_instance(3, 1, 20, 2), 2)    # p = 1
@example(_instance(1, 5, 30, 3), 3)    # m = 1
@example(_duplicated(3, 8, 40, 4), 4)  # a duplicated input
def test_structured_update_matches_dense_product(instance, seed):
    # random channel writes move the (m+1)-by-p running state; after each,
    # the G'G theta rows read back from it and the block projections match
    # the dense grid's, relative to the product's natural scale
    inputs, y, p = instance
    m = inputs.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = mi.RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
    dense = bank.dense_gram()
    rng = np.random.default_rng(seed)
    theta = np.zeros(m * p)
    cross = np.zeros((m + 1, p))
    for k in rng.integers(0, m, size=3 * m):
        bank.set_channel(theta, cross, int(k), rng.standard_normal(p))
        exact = dense @ theta
        bound = 1e-12 * max((np.abs(dense) @ np.abs(theta)).max(),
                            np.abs(bank.gty).max())
        assert np.max(np.abs(bank.gram_product(cross) - exact)) <= bound
        channels = tuple(int(c) for c in rng.choice(m, min(m, 2),
                                                    replace=False))
        idx = np.concatenate([np.arange(c * p, (c + 1) * p)
                              for c in channels])
        expected = (bank.gty[idx] - exact[idx]
                    + dense[np.ix_(idx, idx)] @ theta[idx])
        got = bank.partial_projection(channels, theta, cross,
                                      bank.block_gram(channels))
        assert np.max(np.abs(got - expected)) <= bound
    rebuilt = bank.cross_state(theta)
    assert np.max(np.abs(bank.gram_product(rebuilt) - dense @ theta)) <= bound
    G = stacked_regressors(inputs, p)
    direct = float(np.sum((y - G @ theta) ** 2))
    assert bank.residual_sumsq(theta, cross) == pytest.approx(
        direct, rel=1e-9, abs=1e-9 * float(y @ y))


def test_dense_gram_refused_above_oracle_limit():
    p = 50
    m = mi.regression.ORACLE_MAX_COEFFICIENTS // p + 1
    d = mi.Dataset(y=np.ones(60), inputs=np.ones((m, 60)))
    with pytest.raises(mi.SizeGuardError):
        mi.RegressorBank(d, p).dense_gram()


def test_partial_projection():
    rng = np.random.default_rng(6)
    n, m, p = 50, 3, 4
    d = mi.Dataset(y=rng.standard_normal(n),
                   inputs=rng.standard_normal((m, n)))
    bank = mi.RegressorBank(d, p)
    theta = rng.standard_normal(m * p)
    G0, G1, G2 = (toeplitz_block(u, p) for u in d.inputs)
    others = G0 @ theta[:p] + G2 @ theta[2 * p:]
    expected = G1.T @ (d.y - others)
    np.testing.assert_allclose(
        bank.partial_projection((1,), theta, bank.cross_state(theta),
                                bank.block_gram((1,))),
        expected,
        atol=1e-10)
    # a pair, in the order given: (G_2, G_0)'(y - G_1 theta_1)
    pair = np.hstack([G2, G0])
    expected = pair.T @ (d.y - G1 @ theta[p:2 * p])
    np.testing.assert_allclose(
        bank.partial_projection((2, 0), theta, bank.cross_state(theta),
                                bank.block_gram((2, 0))),
        expected,
        atol=1e-10)
    grams = bank.block_gram((2, 0))
    assert grams.flags.c_contiguous and grams.flags.writeable
    np.testing.assert_allclose(grams, pair.T @ pair, rtol=1e-12, atol=1e-10)
    np.testing.assert_array_equal(grams, grams.T)


def test_residual_sumsq_matches_direct():
    rng = np.random.default_rng(7)
    d = mi.Dataset(y=rng.standard_normal(80),
                   inputs=rng.standard_normal((2, 80)))
    bank = mi.RegressorBank(d, 5)
    theta = rng.standard_normal(10)
    direct = float(np.sum((d.y - bank.predict(theta)) ** 2))
    cross = bank.cross_state(theta)
    assert bank.residual_sumsq(theta, cross) == pytest.approx(
        direct, rel=1e-12)


def test_dataset_validation():
    with pytest.raises(ValueError):
        mi.Dataset(y=np.empty(0), inputs=np.empty((1, 0)))
    with pytest.raises(ValueError):
        mi.Dataset(y=np.ones(5), inputs=np.ones((2, 4)))


def test_order_exceeding_samples_warns():
    d = mi.Dataset(y=np.ones(3), inputs=np.ones((1, 3)))
    with pytest.warns(UserWarning):
        mi.RegressorBank(d, 4)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    d = mi.Dataset(y=rng.standard_normal(20),
                   inputs=rng.standard_normal((3, 20)))
    path = tmp_path / "data.csv"
    mi.save_dataset_csv(d, path)
    back = mi.load_dataset_csv(path)
    np.testing.assert_array_equal(back.y, d.y)
    np.testing.assert_array_equal(back.inputs, d.inputs)
    assert back.y.flags.c_contiguous and back.inputs.flags.c_contiguous
    assert back.y.base is None and back.inputs.base is None  # table freed


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        mi.load_dataset_csv(path)
