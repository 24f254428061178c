import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import misoid as mi


def _dataset(inputs):
    inputs = np.asarray(inputs, dtype=float)
    return mi.Dataset(y=np.zeros(inputs.shape[1]), inputs=inputs)


def test_identical_inputs_give_unit_correlation():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(200)
    c = mi.compute_correlations(_dataset([u, u]))
    assert c[0, 1] == pytest.approx(1.0)


def test_sign_flip_gives_unit_correlation():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(200)
    c = mi.compute_correlations(_dataset([u, -u]))
    assert c[0, 1] == pytest.approx(1.0)


def test_zero_variance_input_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        mi.compute_correlations(_dataset([rng.standard_normal(50),
                                          np.ones(50)]))


def test_chain_construction_hits_target():
    rng = np.random.default_rng(3)
    inputs = mi.generate_inputs(
        mi.CollinearInputSpec(m=3, n=100_000, correlated_prefix=3,
                              target_c=0.99, ma_coefficient=0.8), rng)
    c = mi.compute_correlations(_dataset(inputs))
    assert abs(c[0, 1] - 0.99) < 0.005
    assert abs(c[1, 2] - 0.99) < 0.005


def test_two_channels_single_pair_probability_one():
    c = np.array([[1.0, 0.4], [0.4, 1.0]])
    sched = mi.compute_block_probabilities(c, 17.0)
    assert sched.probs.shape == (1,)
    assert sched.probs[0] == pytest.approx(1.0)


def test_equal_correlations_give_uniform_thirds():
    c = np.full((3, 3), 0.6)
    np.fill_diagonal(c, 1.0)
    sched = mi.compute_block_probabilities(c, 9.0)
    np.testing.assert_allclose(sched.probs, 1.0 / 3.0, rtol=1e-12)


def test_normalization_and_monotonicity():
    rng = np.random.default_rng(4)
    m = 8
    a = rng.uniform(0.1, 0.99, size=(m, m))
    c = np.abs((a + a.T) / 2)
    np.fill_diagonal(c, 1.0)
    sched = mi.compute_block_probabilities(c, 12.0)
    assert abs(sched.probs.sum() - 1.0) < 1e-12
    cvals = np.array([c[i, j] for i, j in sched.blocks])
    order = np.argsort(cvals)
    assert np.all(np.diff(sched.probs[order]) > 0.0)
    # the blocks are the pairs i < j in row order
    assert sched.blocks == [(i, j) for i in range(m) for j in range(i + 1, m)]


@st.composite
def correlation_problems(draw):
    """A symmetric (m, m) matrix of correlations in [0, 1] with a unit
    diagonal, a selection rate, one pair (i, j) and a larger c_ij."""
    m = draw(st.integers(2, 12))
    entries = draw(arrays(float, (m, m), elements=st.floats(0.0, 1.0)))
    c = np.triu(entries, 1)
    c = c + c.T
    np.fill_diagonal(c, 1.0)
    beta = draw(st.floats(1e-3, 1e6))
    i, j = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2,
                                max_size=2, unique=True)))
    raised = draw(st.floats(c[i, j], 1.0))
    return c, beta, i, j, raised


def _schedule(c, beta):
    with warnings.catch_warnings():
        # all-zero correlations fall back to uniform selection, with a warning
        warnings.simplefilter("ignore")
        return mi.compute_block_probabilities(c, beta)


# raising c(1, 2) by one ulp lowers the computed P(1, 2) by one ulp
_ONE_ULP_DOWN = np.array([[1.0, 0.06, 0.28],
                          [0.06, 1.0, 0.23],
                          [0.28, 0.23, 1.0]])
# at small beta c a weight formed as a difference of exponentials loses
# digits to cancellation: there, such an ulp raise lowered P(1, 2) by 7 eps
_CANCELLING = np.array([[1.0, 0.013, 0.101],
                        [0.013, 1.0, 0.683],
                        [0.101, 0.683, 1.0]])


@settings(max_examples=300, deadline=None)
@given(correlation_problems())
@example((_ONE_ULP_DOWN, 0.133, 1, 2, np.nextafter(0.23, 1.0)))
@example((_CANCELLING, 0.1918, 1, 2, np.nextafter(0.683, 1.0)))
@example((np.eye(3), 10.0, 0, 2, 0.0))     # uniform fallback, kept
@example((np.eye(3), 10.0, 0, 2, 0.5))     # uniform fallback, left
def test_pair_probability_properties(problem):
    c, beta, i, j, raised = problem
    sched = _schedule(c, beta)
    assert np.all(np.isfinite(sched.probs)) and np.all(sched.probs >= 0.0)
    assert abs(sched.probs.sum() - 1.0) <= 1e-12
    m = c.shape[0]
    assert sched.blocks == [(a, b) for a in range(m) for b in range(a + 1, m)]

    # raising c_ij alone at fixed beta does not lower P_ij beyond rounding:
    # each weight exp(beta (c - cmax)) * -expm1(-beta c) is a product with
    # no cancellation, good to a few ulps relative, and so is P_ij
    higher = c.copy()
    higher[i, j] = higher[j, i] = raised
    after = _schedule(higher, beta)
    eps = np.finfo(float).eps
    k = sched.blocks.index((i, j))
    assert after.probs[k] >= sched.probs[k] * (1.0 - 4 * eps)


def test_small_beta_limit_proportional_to_c():
    c = np.array([[1.0, 0.3, 0.8],
                  [0.3, 1.0, 0.5],
                  [0.8, 0.5, 1.0]])
    sched = mi.compute_block_probabilities(c, 1e-6)
    cvals = np.array([c[i, j] for i, j in sched.blocks])
    linear = cvals / cvals.sum()
    np.testing.assert_allclose(sched.probs, linear, rtol=1e-4)


def test_small_beta_keeps_every_digit():
    # at beta = 1e-3 no weight needs the overflow shift, so expm1(beta c)
    # is an exact-to-rounding reference for each one
    c = np.array([[1.0, 1e-6, 0.5],
                  [1e-6, 1.0, 0.3],
                  [0.5, 0.3, 1.0]])
    sched = mi.compute_block_probabilities(c, 1e-3)
    weights = np.expm1(1e-3 * c[tuple(np.transpose(sched.blocks))])
    np.testing.assert_allclose(sched.probs, weights / weights.sum(),
                               rtol=4 * np.finfo(float).eps, atol=0)


def test_large_beta_does_not_overflow():
    c = np.array([[1.0, 0.99, 0.5],
                  [0.99, 1.0, 0.5],
                  [0.5, 0.5, 1.0]])
    sched = mi.compute_block_probabilities(c, 5000.0)
    assert np.isfinite(sched.probs).all()
    assert sched.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_all_zero_correlations_fall_back_to_uniform():
    with pytest.warns(UserWarning):
        sched = mi.compute_block_probabilities(np.zeros((4, 4)), 10.0)
    np.testing.assert_allclose(sched.probs, 1.0 / 6.0)


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        mi.compute_block_probabilities(np.eye(3), 0.0)


def test_beta_must_be_finite():
    # an infinite rate would make every weight nan
    with pytest.raises(ValueError, match="finite"):
        mi.compute_block_probabilities(np.eye(3) + 0.5, np.inf)


def test_schedule_derives_cumulative():
    # the running sum of the probabilities, scaled to end at exactly 1
    sched = mi.BlockSchedule(blocks=[(0, 1), (0, 2), (1, 2)],
                             probs=np.array([0.5, 0.25, 0.25 - 1e-12]))
    np.testing.assert_allclose(sched.cumulative, [0.5, 0.75, 1.0],
                               rtol=1e-11)
    assert sched.cumulative[-1] == 1.0


@pytest.mark.parametrize("blocks,probs", [
    pytest.param([(0, 1), (1, 2)], [1.0], id="too-few-probabilities"),
    pytest.param([(0, 1)], [0.5, 0.5], id="too-many-probabilities"),
    pytest.param([], [], id="no-blocks"),
    pytest.param([(0, 1), (1, 2)], [1.5, -0.5], id="negative"),
    pytest.param([(0, 1), (1, 2)], [np.nan, 1.0], id="nan"),
    pytest.param([(0, 1), (1, 2)], [np.inf, 1.0], id="inf"),
    pytest.param([(0, 1), (1, 2)], [0.0, 0.0], id="all-zero"),
    pytest.param([(0, 1), (1, 2)], [2.0, 1.0], id="sum-not-one"),
])
def test_schedule_refuses_malformed_probabilities(blocks, probs):
    with pytest.raises(ValueError):
        mi.BlockSchedule(blocks=blocks, probs=np.array(probs))


def test_zero_probability_blocks_never_drawn():
    # a zero-probability block, first or last, has an empty interval
    sched = mi.BlockSchedule(blocks=[(0, 1), (1, 2), (0, 2)],
                             probs=np.array([0.0, 1.0, 0.0]))
    rng = np.random.default_rng(11)
    assert {mi.select_block(sched, rng) for _ in range(1000)} == {1}


def test_select_block_single_pair():
    c = np.array([[1.0, 0.9], [0.9, 1.0]])
    sched = mi.compute_block_probabilities(c, 20.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        assert sched.blocks[mi.select_block(sched, rng)] == (0, 1)


def test_select_block_deterministic_sequence():
    rng = np.random.default_rng(6)
    c = np.abs(np.corrcoef(rng.standard_normal((5, 400))))
    sched = mi.compute_block_probabilities(c, 30.0)
    g1, g2 = np.random.default_rng(7), np.random.default_rng(7)
    s1 = [mi.select_block(sched, g1) for _ in range(50)]
    s2 = [mi.select_block(sched, g2) for _ in range(50)]
    assert s1 == s2


def test_select_block_frequencies():
    c = np.array([[1.0, 0.9, 0.7],
                  [0.9, 1.0, 0.8],
                  [0.7, 0.8, 1.0]])
    sched = mi.compute_block_probabilities(c, 10.0)
    rng = np.random.default_rng(8)
    n = 50_000
    counts = np.zeros(len(sched.blocks))
    for _ in range(n):
        counts[mi.select_block(sched, rng)] += 1
    freqs = counts / n
    se = np.sqrt(sched.probs * (1 - sched.probs) / n)
    assert np.all(np.abs(freqs - sched.probs) <= 3 * se)


def test_pruning_keeps_negligible_pairs_out_of_draws():
    c = np.array([[1.0, 0.999, 1e-15],
                  [0.999, 1.0, 1e-15],
                  [1e-15, 1e-15, 1.0]])
    sched = mi.compute_block_probabilities(c, 100.0)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        assert sched.blocks[mi.select_block(sched, rng)] == (0, 1)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(10)
    c = np.abs(np.corrcoef(rng.standard_normal((3, 100))))
    sched = mi.compute_block_probabilities(c, 5.0)
    cpath, ppath = tmp_path / "c.csv", tmp_path / "p.csv"
    mi.blocks.export_correlations_csv(c, cpath)
    mi.blocks.export_probabilities_csv(sched, ppath)
    crows = cpath.read_text().strip().splitlines()
    assert crows[0] == "i,j,value"
    assert len(crows) == 1 + 9
    prows = ppath.read_text().strip().splitlines()
    assert len(prows) == 1 + 3
    total = sum(float(r.split(",")[2]) for r in prows[1:])
    assert total == pytest.approx(1.0, abs=1e-12)
