import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import misoid as mi
from misoid.errors import SizeGuardError
from misoid.regression import RegressorBank

from conftest import make_example1, stacked_regressors, toeplitz_block


def test_unit_impulse_block():
    # G = [[1, 0], [0, 1], [0, 0]]: G'G = I and G'y = y[:2]
    y = np.array([0.7, -1.2, 3.0])
    d = mi.Dataset(y=y, inputs=np.array([[1.0, 0.0, 0.0]]))
    bank = RegressorBank(d, 2)
    np.testing.assert_array_equal(bank.gram(0, 0), np.eye(2))
    np.testing.assert_array_equal(bank.xty(0), y[:2])


def test_toeplitz_layout():
    # G = [[a, 0], [b, a], [c, b]]
    a, b, c = 1.5, -2.0, 0.3
    y = np.array([0.5, 2.0, -1.0])
    d = mi.Dataset(y=y, inputs=np.array([[a, b, c]]))
    bank = RegressorBank(d, 2)
    G = np.array([[a, 0], [b, a], [c, b]])
    np.testing.assert_allclose(bank.gram(0, 0), G.T @ G, rtol=1e-15)
    np.testing.assert_allclose(bank.xty(0), G.T @ y, rtol=1e-15)


def test_prediction_matches_direct_convolution():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(100)
    theta = rng.standard_normal(10)
    d = mi.Dataset(y=np.zeros(100), inputs=u[None, :])
    bank = RegressorBank(d, 10)
    direct = np.array([
        sum(theta[j] * (u[i - j] if i - j >= 0 else 0.0) for j in range(10))
        for i in range(100)
    ])
    np.testing.assert_allclose(bank.predict(theta), direct, atol=1e-12)


def test_predict_zero_and_impulse():
    rng = np.random.default_rng(1)
    d = mi.Dataset(y=np.zeros(30),
                   inputs=np.r_[1.0, np.zeros(29)][None, :])
    bank = RegressorBank(d, 5)
    assert np.all(bank.predict(np.zeros(5)) == 0.0)
    theta = rng.standard_normal(5)
    np.testing.assert_allclose(bank.predict(theta)[:5], theta, atol=1e-14)


def test_predict_linear():
    rng = np.random.default_rng(2)
    d = mi.Dataset(y=np.zeros(40), inputs=rng.standard_normal((2, 40)))
    bank = RegressorBank(d, 4)
    t1, t2 = rng.standard_normal(8), rng.standard_normal(8)
    np.testing.assert_allclose(bank.predict(t1 + t2),
                               bank.predict(t1) + bank.predict(t2),
                               atol=1e-12)


def test_column_norms_match_truncated_input():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(25)
    d = mi.Dataset(y=np.zeros(25), inputs=u[None, :])
    bank = RegressorBank(d, 6)
    norms = np.sqrt(np.diag(bank.gram(0, 0)))
    for j in range(6):
        assert norms[j] == pytest.approx(np.linalg.norm(u[:25 - j]))


def test_true_theta_residual_variance():
    data, system = make_example1(data_seed=11)
    bank = RegressorBank(data, 50)
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
        bank = RegressorBank(d, p)
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
        bank = RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
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


@settings(max_examples=100, deadline=None)
@given(lagged_instances())
@example(_instance(2, 6, 3, 0))        # p > n
@example(_instance(3, 1, 20, 2))       # p = 1
@example(_instance(1, 1, 1, 4))
def test_zero_lag_sums_match_the_inputs_products(instance):
    # u u', read from the panel spectra and the diagonal grams
    inputs, y, p = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
    sums = bank.zero_lag_sums()
    direct = inputs @ inputs.T
    np.testing.assert_allclose(sums, direct, rtol=0,
                               atol=1e-12 * np.abs(direct).max())
    assert np.array_equal(sums, sums.T)
    np.testing.assert_array_equal(
        np.diag(sums), [bank.gram(k, k)[0, 0] for k in range(bank.m)])


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
        bank = RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
    dense = bank.dense_gram()
    rng = np.random.default_rng(seed)
    theta = np.zeros(m * p)
    cross = bank.cross_state(theta)
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
        # a single channel's projection through its map, here of the
        # identity, in one product of [theta_c, state row c, tail row, 1]
        c = channels[0]
        idx = np.arange(c * p, (c + 1) * p)
        expected = (bank.gty[idx] - exact[idx]
                    + dense[np.ix_(idx, idx)] @ theta[idx])
        mapped = np.empty((5 * p + 1, p))
        bank.projection_map(c, np.eye(p), mapped)
        got = np.concatenate((theta[idx], cross[c].view(float),
                              cross[-1].view(float), [1.0])) @ mapped
        assert np.max(np.abs(got - expected)) <= bound
    rebuilt = bank.cross_state(theta)
    assert np.max(np.abs(bank.gram_product(rebuilt) - dense @ theta)) <= bound
    G = stacked_regressors(inputs, p)
    direct = float(np.sum((y - G @ theta) ** 2))
    assert bank.residual_sumsq(theta, cross) == pytest.approx(
        direct, rel=1e-9, abs=1e-9 * float(y @ y))


def test_spectral_state_does_not_drift():
    # 50 m random channel writes at m = 20, p = 50: the running state,
    # kept as spectra, stays within 1e-12 of the dense product at the end
    rng = np.random.default_rng(23)
    m, p, n = 20, 50, 2000
    inputs = rng.standard_normal((m, n))
    inputs[1:] += 0.5 * inputs[0]
    bank = RegressorBank(
        mi.Dataset(y=rng.standard_normal(n), inputs=inputs), p)
    dense = bank.dense_gram()
    theta = np.zeros(m * p)
    cross = bank.cross_state(theta)
    for k in rng.integers(0, m, size=50 * m):
        bank.set_channel(theta, cross, int(k), rng.standard_normal(p))
    bound = 1e-12 * (np.abs(dense) @ np.abs(theta)).max()
    assert np.max(np.abs(bank.gram_product(cross) - dense @ theta)) <= bound
    rebuilt = bank.gram_product(bank.cross_state(theta))
    assert np.max(np.abs(bank.gram_product(cross) - rebuilt)) <= bound


def _loop_lags(inputs, p):
    """The retired builder, kept as the reference for the FFT pass: lags
    [k, j] = lag_jk, one product of the inputs with their shifted
    transposes per lag, lag 0 symmetrized."""
    m, n = inputs.shape
    lags = np.zeros((m, m, 2 * p - 1))
    for tau in range(min(p, n)):
        corr = inputs[:, tau:] @ inputs[:, :n - tau].T
        if tau == 0:
            corr = np.triu(corr) + np.triu(corr, 1).T
        lags[:, :, p - 1 + tau] = corr.T
        lags[:, :, p - 1 - tau] = corr
    return lags


def _loop_projections(inputs, y, p):
    """Stacked {G_k' y}, one matrix-vector product per lag."""
    m, n = inputs.shape
    gty = np.zeros((m, p))
    for a in range(min(p, n)):
        gty[:, a] = inputs[:, :n - a] @ y[a:]
    return gty.reshape(-1)


def _chunk(p):
    """The number of new samples in each chunk of the lag pass."""
    return mi.regression._transform_size(p) - (p - 1)


def _assert_matches_loop(inputs, y, p):
    m = inputs.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = RegressorBank(mi.Dataset(y=y, inputs=inputs), p)
    lags = _loop_lags(inputs, p)
    gty = _loop_projections(inputs, y, p)
    panels, _ = mi.regression._lag_panels(inputs, p)
    np.testing.assert_allclose(panels[:, :m], lags, rtol=0,
                               atol=1e-10 * np.abs(lags).max())
    np.testing.assert_allclose(bank.gty, gty, rtol=0,
                               atol=1e-10 * np.abs(gty).max())
    # the pairs (j, k) and (k, j) hold one set of lags, reversed exactly
    assert np.array_equal(panels[:, :m],
                          panels[:, :m, ::-1].transpose(1, 0, 2))
    assert panels.shape == (m, m + 1, 2 * p - 1)
    assert panels.flags.c_contiguous
    assert not panels.flags.writeable
    # the bank keeps the panels' size-(2p - 1) spectra in their place
    spectra = bank.panel_spectra
    assert spectra.shape == (m, m + 1, p) and spectra.dtype == complex
    assert spectra.flags.c_contiguous
    assert not spectra.flags.writeable
    np.testing.assert_allclose(np.fft.irfft(spectra, n=2 * p - 1), panels,
                               rtol=0, atol=1e-10 * np.abs(panels).max())
    for i in range(m):
        assert np.array_equal(bank.gram(i, i), bank.gram(i, i).T)
        for j in range(m):
            assert np.array_equal(bank.gram(j, i), bank.gram(i, j).T)


@pytest.mark.parametrize("m, p, n, duplicate", [
    (3, 50, _chunk(50) - 1, False),     # one chunk, one short of full
    (3, 50, _chunk(50), False),         # exactly one chunk
    (3, 50, _chunk(50) + 1, False),     # a second chunk of one sample
    (3, 50, 20_000, False),             # about a hundred chunks
    (3, 8, 100_000, False),             # several groups of chunks
    (3, 1, 50_000, False),              # p = 1: lag 0 only
    (2, 50, 30, False),                 # p > n: rank deficient
    (1, 12, 500, False),                # one channel
    (3, 50, 1000, True),                # a duplicated input
])
def test_lags_match_the_product_loop(m, p, n, duplicate):
    rng = np.random.default_rng(m * 1000 + p + n)
    inputs = rng.standard_normal((m, n))
    if duplicate:
        inputs[-1] = inputs[0]
    _assert_matches_loop(inputs, rng.standard_normal(n), p)


@pytest.mark.parametrize("group_bytes, sums_bytes", [
    (64 << 10, 8 << 10),        # chunks in groups of 5, one row at a time
    (4 << 10, 16 << 10),        # one chunk per group, two rows at a time
])
def test_lags_match_in_small_pieces(monkeypatch, group_bytes, sums_bytes):
    # working-memory bounds small enough that one record spans many groups,
    # several blocks of rows and several inverse transforms per block
    monkeypatch.setattr(mi.regression, "_GROUP_BYTES", group_bytes)
    monkeypatch.setattr(mi.regression, "_SUMS_BYTES", sums_bytes)
    rng = np.random.default_rng(5)
    inputs = rng.standard_normal((3, 20_000))
    inputs[2] = -inputs[0]
    _assert_matches_loop(inputs, rng.standard_normal(20_000), 50)


def test_build_memory_does_not_grow_with_the_record():
    # 12.8 MB of inputs: the build holds a few MB at a time, where a padded
    # or stacked copy of the record would not fit under the bound
    rng = np.random.default_rng(9)
    n = 400_000
    data = mi.Dataset(y=rng.standard_normal(n),
                      inputs=rng.standard_normal((4, n)))
    tracemalloc.start()
    try:
        RegressorBank(data, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20 < data.inputs.nbytes


def test_dense_gram_refused_above_oracle_limit():
    p = 50
    m = mi.regression.ORACLE_MAX_COEFFICIENTS // p + 1
    d = mi.Dataset(y=np.ones(60), inputs=np.ones((m, 60)))
    with pytest.raises(SizeGuardError):
        RegressorBank(d, p).dense_gram()


def test_partial_projection():
    rng = np.random.default_rng(6)
    n, m, p = 50, 3, 4
    d = mi.Dataset(y=rng.standard_normal(n),
                   inputs=rng.standard_normal((m, n)))
    bank = RegressorBank(d, p)
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
    bank = RegressorBank(d, 5)
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
        RegressorBank(d, 4)


def _awkward(rng, shape):
    """Values over many decades whose shortest exact form needs up to 17
    significant digits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)


# the extremes of the float range, each written and read back exactly
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]


def _dataset(rng):
    y = _awkward(rng, 20)
    y[:4] = EXTREMES
    return mi.Dataset(y=y, inputs=_awkward(rng, (3, 20)))


def _record(rng):
    """A finished GSOBd chain: three channel scales, two pair updates in
    one iteration, and traces holding the float range's extremes."""
    lam, sigma2 = np.abs(_awkward(rng, (12, 3))), np.abs(_awkward(rng, 12))
    lam[0], sigma2[:3] = EXTREMES[:3], EXTREMES[:3]
    return mi.ChainRecord(
        variant="GSOBd", m=3, p=2, n_mc=12, burn_in=4, thin=1, seed=5,
        theta_samples=_awkward(rng, (12, 6)), lambda_trace=lam,
        sigma2_trace=sigma2, selected_blocks=np.array(
            [[1, 0, 2], [1, 1, 2], [7, 0, 1]], dtype=np.int64))


def _iterations(record):
    return np.arange(1, record.completed + 1)


def _summary_rows(record):
    s, c = record.summary, np.arange(record.m * record.p)
    return np.column_stack([c, c // record.p, c % record.p, s.mean, s.sd,
                            s.q025, s.q975])


def _correlations(rng):
    c = np.abs(_awkward(rng, (3, 3)))
    c.flat[:3] = EXTREMES[:3]
    return c


def _read_correlations(path):
    _, rows = mi.regression.read_table(path, ["i", "j", "value"])
    c = np.zeros((3, 3))
    c[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    return c


def _schedule(rng):
    probs = np.abs(_awkward(rng, 3))
    return mi.BlockSchedule(blocks=[(0, 1), (0, 2), (1, 2)],
                            probs=probs / probs.sum())


def _read_schedule(path):
    _, rows = mi.regression.read_table(path, ["i", "j", "value"])
    return mi.BlockSchedule(
        blocks=[tuple(pair) for pair in rows[:, :2].astype(int).tolist()],
        probs=rows[:, 2])


def _in(name, write, read):
    """``write(obj, path)`` and ``read(path)`` of the file ``name`` as a
    write into, and a load from, a directory."""
    return (lambda obj, out: write(obj, out / name),
            lambda out: read(out / name))


def _correlation_rows(c):
    rows, cols = np.indices(c.shape)
    return np.column_stack([rows.ravel(), cols.ravel(), c.ravel()])


# Every table misoid writes: what it holds, how the program writes it into
# a directory and loads it back, and the rows the file must hold.
TABLES = {
    "dataset.csv": (_dataset,
                    *_in("dataset.csv", mi.save_dataset_csv,
                         mi.load_dataset_csv),
                    lambda d: np.column_stack([d.y, d.inputs.T])),
    "lambda.csv": (_record, mi.save_record, mi.load_record,
                   lambda r: np.column_stack([_iterations(r),
                                              r.lambda_trace])),
    "sigma2.csv": (_record, mi.save_record, mi.load_record,
                   lambda r: np.column_stack([_iterations(r),
                                              r.sigma2_trace])),
    "blocks.csv": (_record, mi.save_record, mi.load_record,
                   lambda r: r.selected_blocks),
    "summary.csv": (_record, mi.save_record, mi.load_record, _summary_rows),
    "cmatrix.csv": (_correlations,
                    *_in("cmatrix.csv", mi.blocks.export_correlations_csv,
                         _read_correlations),
                    _correlation_rows),
    "pmatrix.csv": (_schedule,
                    *_in("pmatrix.csv", mi.blocks.export_probabilities_csv,
                         _read_schedule),
                    lambda s: np.column_stack([s.blocks, s.probs])),
}


@pytest.mark.parametrize("name", TABLES)
def test_csv_round_trip(tmp_path, name):
    # a table reads back as the rows written, exactly, and what the program
    # loads from it writes the same bytes again
    make, write, load, rows = TABLES[name]
    written = make(np.random.default_rng(8))
    write(written, tmp_path)
    path = tmp_path / name
    dtype = np.int64 if name == "blocks.csv" else float
    _, table = mi.regression.read_table(path, dtype=dtype)
    assert table.dtype == dtype
    np.testing.assert_array_equal(table, rows(written))
    back = load(tmp_path)
    np.testing.assert_array_equal(rows(back), rows(written))
    again = tmp_path / "again"
    again.mkdir()
    write(back, again)
    assert (again / name).read_bytes() == path.read_bytes()


def test_loaded_dataset_is_contiguous(tmp_path):
    path = tmp_path / "data.csv"
    mi.save_dataset_csv(_dataset(np.random.default_rng(8)), path)
    back = mi.load_dataset_csv(path)
    assert back.y.flags.c_contiguous and back.inputs.flags.c_contiguous
    assert back.y.base is None and back.inputs.base is None  # table freed


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        mi.load_dataset_csv(path)
