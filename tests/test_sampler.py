import copy
import dataclasses
import os

import numpy as np
import pytest

import misoid as mi
from misoid import sampler as sp
from misoid.conditionals import PAIR_SPECTRUM_DRAWS, sample_inverse_gamma
from misoid.errors import FactorizationError
from misoid.kernel import quad_form

from conftest import make_small_problem


def _problem(seed=0, m=2, p=3, n=50):
    data, bank, kernel, theta_true = make_small_problem(seed=seed, m=m, p=p,
                                                        n=n)
    return mi.Problem(data=data, bank=bank, kernel=kernel), theta_true


# -- configuration ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        mi.SamplerConfig(variant="bogus", n_mc=10)
    with pytest.raises(ValueError):
        mi.SamplerConfig(variant="GS", n_mc=0)
    with pytest.raises(ValueError):
        mi.SamplerConfig(variant="GS", n_mc=10, burn_in=10)
    with pytest.raises(ValueError):
        mi.SamplerConfig(variant="GSOB", n_mc=10, beta=None)
    with pytest.raises(ValueError):
        mi.SamplerConfig(variant="GSOB", n_mc=10, beta=20.0, n_ob=0)
    cfg = mi.SamplerConfig(variant="GS", n_mc=11)
    assert cfg.burn_in == 5
    assert not cfg.uses_blocks and cfg.common_scale


def test_derive_seed_spreads():
    seeds = {mi.derive_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mi.derive_seed(123, 5) == mi.derive_seed(123, 5)
    assert mi.derive_seed(123, 5) != mi.derive_seed(124, 5)


# -- initialization -----------------------------------------------------------

def test_init_degenerate_output():
    data = mi.Dataset(y=np.zeros(20), inputs=np.ones((1, 20)))
    problem = mi.build_problem(data, alpha=0.9, p=2)
    with pytest.raises(ValueError):
        mi.init_chain(problem)


def test_init_channel_without_data():
    rng = np.random.default_rng(4)
    inputs = np.vstack([rng.standard_normal(30), np.zeros(30)])
    data = mi.Dataset(y=inputs[0] + 0.1 * rng.standard_normal(30),
                      inputs=inputs)
    problem = mi.build_problem(data, alpha=0.9, p=3)
    with pytest.raises(FactorizationError,
                       match="initialization: channel 1 has no data"):
        mi.init_chain(problem)


def test_init_prior_scale_overflow():
    # var(y) * tr(K^-1) overflows: every channel has data, but the ridge
    # of the initial fit is 0
    rng = np.random.default_rng(5)
    inputs = rng.standard_normal((2, 60))
    data = mi.Dataset(y=1e150 * rng.standard_normal(60), inputs=inputs)
    problem = mi.build_problem(data, alpha=0.5, p=40)
    with pytest.raises(FactorizationError) as info:
        mi.init_chain(problem)
    message = str(info.value)
    assert "var(y) * tr(K^-1) overflows" in message
    assert "alpha = 0.5" in message and "fir_order = 40" in message
    assert "no data" not in message


def test_init_deterministic():
    problem, _ = _problem(seed=1)
    s1 = mi.init_chain(problem)
    s2 = mi.init_chain(problem)
    np.testing.assert_array_equal(s1.theta, s2.theta)
    assert s1.hyper.sigma2 == np.var(problem.data.y)
    np.testing.assert_array_equal(s1.hyper.lam, np.ones(2))


def test_init_recovers_strong_signal():
    rng = np.random.default_rng(2)
    system = mi.generate_system(mi.RandomSystemSpec(m=1, fir_order=40), rng)
    inputs = rng.standard_normal((1, 4000))
    data = mi.synthesize_dataset(system, inputs, 0.05, rng)
    problem = mi.build_problem(data, alpha=0.9, p=40)
    state = mi.init_chain(problem)
    truth = system.responses.ravel()
    err = np.linalg.norm(state.theta - truth) / np.linalg.norm(truth)
    assert err < 0.10


def test_init_nonzero_quadratic_forms():
    problem, _ = _problem(seed=3)
    state = mi.init_chain(problem)
    for k in range(2):
        assert mi.quad_form(problem.kernel, state.theta[k * 3:(k + 1) * 3]) > 0


# -- sweep --------------------------------------------------------------------

def test_sweep_composes_single_conditionals():
    problem, _ = _problem(seed=5)
    cfg = mi.SamplerConfig(variant="GS", n_mc=10)
    state = mi.init_chain(problem)

    # a sweep is draw_hyper then draw_coefficients on one generator
    rng_a = np.random.default_rng(7)
    new_state, selected = mi.sweep(state, problem, None, cfg, rng_a)
    assert selected == []
    rng_b = np.random.default_rng(7)
    theta, cross = state.theta.copy(), state.cross.copy()
    hyper = sp.draw_hyper(theta, cross, problem, cfg, rng_b)
    assert sp.draw_coefficients(theta, cross, hyper, problem, None, cfg,
                                rng_b) == []
    np.testing.assert_array_equal(hyper.lam, new_state.hyper.lam)
    assert hyper.sigma2 == new_state.hyper.sigma2
    np.testing.assert_array_equal(new_state.theta, theta)
    np.testing.assert_array_equal(new_state.cross, cross)
    assert rng_a.random() == rng_b.random()

    # at fixed hyperparameters the coefficient step is, byte for byte, the
    # loop of block conditionals, on every variant and both pair routes,
    # and on a hand-built schedule of a triple drawn often and a rare pair
    problem = _collinear_triple()
    wide = mi.BlockSchedule(blocks=[(0, 1, 2), (1, 2)],
                            probs=np.array([0.9, 0.1]))
    cases = [(variant, None) for variant in sp.VARIANTS]
    cases += [("GSOB", wide), ("GSOBd", wide)]
    routes_seen, wide_routes, redrawn = set(), set(), set()
    for variant, given in cases:
        cfg = mi.SamplerConfig(variant=variant, n_mc=30,
                               beta=2.0, n_ob=4, seed=0)
        schedule = given
        if schedule is None and cfg.uses_blocks:
            schedule = mi.compute_block_probabilities(problem.correlations,
                                                      cfg.beta)
        state = mi.init_chain(problem)
        theta_a, cross_a = state.theta.copy(), state.cross.copy()
        theta_b, cross_b = state.theta.copy(), state.cross.copy()
        rng_a = np.random.default_rng(8)
        rng_b = copy.deepcopy(rng_a)
        often = set()
        if schedule is not None:
            often = {block for block, prob in zip(schedule.blocks,
                                                   schedule.probs)
                     if prob * cfg.n_ob * cfg.n_mc >= PAIR_SPECTRUM_DRAWS}
        for t in range(6):
            lam = (np.full(3, 0.5 + 0.2 * t) if cfg.common_scale
                   else np.array([0.5, 0.9, 1.3]) + 0.1 * t)
            hyper = mi.HyperState(lam=lam, sigma2=0.3 + 0.05 * t)
            selected = sp.draw_coefficients(theta_a, cross_a, hyper, problem,
                                            schedule, cfg, rng_a)
            reference, routes = _reference_coefficients(
                theta_b, cross_b, hyper, problem, schedule, cfg, rng_b)
            assert selected == reference
            assert theta_a.tobytes() == theta_b.tobytes()
            assert cross_a.tobytes() == cross_b.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            if given is None:
                routes_seen |= {(variant, route) for route in routes}
                # a block drawn again in one call reuses its root there
                redrawn |= {(variant, block) for block in often
                            if reference.count(block) > 1}
            else:
                wide_routes |= {(variant, block, route)
                                for block, route in zip(reference, routes)}
    # GSOB draws its frequent pair from a spectrum and the others factored;
    # GSOBd's two scale factors always differ
    assert routes_seen == {("GSOB", "spectral"), ("GSOB", "factored"),
                           ("GSOBd", "factored")}
    # so too the triple: 108 expected draws earn it a spectrum under GSOB
    assert wide_routes == {("GSOB", (0, 1, 2), "spectral"),
                           ("GSOB", (1, 2), "factored"),
                           ("GSOBd", (0, 1, 2), "factored"),
                           ("GSOBd", (1, 2), "factored")}
    # and both block variants redrew their often pair within one call
    assert redrawn == {("GSOB", (0, 1)), ("GSOBd", (0, 1))}


def test_one_factor_per_block_per_call(monkeypatch):
    # under GSOBd a pair drawn n_ob = 5 times in one call is factored once
    # in that call, whether the chain draws it often (a kept gram) or not
    import misoid.conditionals as conditionals

    problem = _collinear_triple()
    only = mi.BlockSchedule(blocks=[(0, 1)], probs=np.array([1.0]))
    factored = []
    real = conditionals._chol_lower

    def counted(mat, what):
        factored.append(mat.shape[0])
        return real(mat, what)

    monkeypatch.setattr(conditionals, "_chol_lower", counted)
    for n_mc in (2, 30):
        cfg = mi.SamplerConfig(variant="GSOBd", n_mc=n_mc, beta=2.0, n_ob=5)
        state = mi.init_chain(problem)
        rng = np.random.default_rng(9)
        for t in range(3):
            hyper = mi.HyperState(lam=np.array([0.5, 0.9, 1.3]) + 0.1 * t,
                                  sigma2=0.3)
            factored.clear()
            drawn = sp.draw_coefficients(state.theta, state.cross, hyper,
                                         problem, only, cfg, rng)
            assert drawn == [(0, 1)] * 5
            assert factored == [8]


def test_often_pair_gram_built_once_per_problem(monkeypatch):
    # the gram of a pair drawn often under two scale factors, which has no
    # spectrum, is built once for every chain of the problem
    problem = _collinear_triple()
    asked = []
    real = problem.bank.block_gram

    def counted(channels):
        asked.append(channels)
        return real(channels)

    monkeypatch.setattr(problem.bank, "block_gram", counted)
    for seed in (0, 1):
        record = mi.run(problem, mi.SamplerConfig(
            variant="GSOBd", n_mc=30, beta=2.0, n_ob=4, seed=seed))
        assert not record.aborted
        drawn = [tuple(row) for row in record.selected_blocks[:, 1:]]
        assert drawn.count((0, 1)) > PAIR_SPECTRUM_DRAWS
    assert asked.count((0, 1)) == 1
    # the rarer pairs still build theirs on every call that draws them
    assert asked.count((1, 2)) > 1


def test_one_normal_call_is_many():
    # the single-channel pass draws its m*p normals in one call: the same
    # stream as one call of p per channel
    one, many = np.random.default_rng(3), np.random.default_rng(3)
    batch = one.standard_normal(7 * 5)
    parts = np.concatenate([many.standard_normal(5) for _ in range(7)])
    assert batch.tobytes() == parts.tobytes()
    assert one.bit_generator.state == many.bit_generator.state


def _collinear_triple():
    """Three channels whose pair (0, 1) takes most selection mass at
    beta = 2: about 84 of 120 pair draws against 17 and 19 for the others,
    so a 30-sweep, n_ob = 4 GSOB chain builds only the first's spectrum."""
    rng = np.random.default_rng(40)
    u = rng.standard_normal((3, 80))
    u[1] = u[0] + 0.3 * u[1]
    u[2] = u[1] + 1.5 * u[2]
    y = u.sum(axis=0) + 0.3 * rng.standard_normal(80)
    data = mi.Dataset(y=y, inputs=u)
    return mi.Problem(data=data, bank=mi.RegressorBank(data, 4),
                      kernel=mi.build_kernel(0.9, 4))


def _reference_coefficients(theta, cross, hyper, problem, schedule, config,
                            rng):
    """The coefficient step one block at a time, each block drawn from
    ``block_conditional``: the blocks drawn and the route of each."""
    bank, p = problem.bank, problem.bank.p

    def draw(channels, often):
        post = mi.block_conditional(channels, theta, cross, hyper,
                                    problem.spectra, often)
        value = mi.draw_gaussian(post, rng)
        for r, k in enumerate(channels):
            bank.set_channel(theta, cross, k, value[r * p:(r + 1) * p])
        return "factored" if post.root.scale is None else "spectral"

    for k in range(bank.m):
        assert draw((k,), True) == "spectral"
    selected, routes = [], []
    for _ in range(config.n_ob if config.uses_blocks else 0):
        b = mi.select_block(schedule, rng)
        often = (schedule.probs[b] * config.n_ob * config.n_mc
                 >= PAIR_SPECTRUM_DRAWS)
        routes.append(draw(schedule.blocks[b], often))
        selected.append(schedule.blocks[b])
    return selected, routes


def test_draw_coefficients_refuses_wrong_scale_count():
    # a fixed HyperState comes from the caller: a wrong length is refused
    # before any block is drawn
    problem, _ = _problem(seed=6)
    cfg = mi.SamplerConfig(variant="GSOBd", n_mc=10, beta=20.0)
    schedule = mi.compute_block_probabilities(problem.correlations, cfg.beta)
    state = mi.init_chain(problem)
    theta, cross = state.theta.copy(), state.cross.copy()
    for lam in (np.ones(1), np.ones(3)):
        hyper = mi.HyperState(lam=lam, sigma2=0.4)
        with pytest.raises(ValueError, match="2 scale factors"):
            sp.draw_coefficients(theta, cross, hyper, problem, schedule, cfg,
                                 np.random.default_rng(0))
        np.testing.assert_array_equal(theta, state.theta)
        np.testing.assert_array_equal(cross, state.cross)


def test_running_cross_product_stays_exact():
    # six collinear channels, 2000 GSOB sweeps with sampled hyperparameters:
    # the running G'G theta must not drift from the product
    rng = np.random.default_rng(20)
    m, p, n = 6, 10, 400
    common = rng.standard_normal(n)
    inputs = common + 0.05 * rng.standard_normal((m, n))
    y = inputs.sum(axis=0) + 0.3 * rng.standard_normal(n)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=2000, beta=20.0, n_ob=3,
                           seed=1)
    problem = mi.build_problem(mi.Dataset(y=y, inputs=inputs), alpha=0.9,
                               p=p)
    schedule = mi.compute_block_probabilities(
        mi.compute_correlations(problem.data), cfg.beta)
    chain_rng = np.random.default_rng(cfg.seed)
    state = mi.init_chain(problem)
    dense = problem.bank.dense_gram()
    exact = dense @ state.theta
    got = problem.bank.gram_product(state.cross)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
    for _ in range(cfg.n_mc):
        state, _ = mi.sweep(state, problem, schedule, cfg, chain_rng)
    exact = dense @ state.theta
    got = problem.bank.gram_product(state.cross)
    assert np.max(np.abs(got - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_gsob_above_oracle_limit_never_builds_dense_grid(monkeypatch):
    # 41 channels x 50 lags: more unknowns than the dense grid is allowed;
    # a GSOB chain runs without asking for it, and no array the bank holds
    # is as large as that grid
    from misoid.regression import ORACLE_MAX_COEFFICIENTS

    m, p, n = 41, 50, 200
    assert m * p > ORACLE_MAX_COEFFICIENTS
    rng = np.random.default_rng(30)
    inputs = rng.standard_normal((m, n))
    inputs[1] = inputs[0] + 0.05 * inputs[1]
    y = inputs[0] + 0.3 * rng.standard_normal(n)

    def refuse(bank):
        raise AssertionError("dense grid built during a chain")

    monkeypatch.setattr(mi.RegressorBank, "dense_gram", refuse)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=4, beta=20.0, n_ob=2, seed=2)
    problem = mi.build_problem(mi.Dataset(y=y, inputs=inputs), alpha=0.9,
                               p=p)
    record = mi.run(problem, cfg)
    assert record.completed == cfg.n_mc
    assert record.selected_blocks.shape == (cfg.n_mc * cfg.n_ob, 3)
    arrays = [v for v in vars(problem.bank).values()
              if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < (m * p) ** 2 for a in arrays)


def test_sweep_block_selections_logged():
    problem, _ = _problem(seed=6)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=10, beta=20.0, n_ob=2, seed=0)
    record = mi.run(problem, cfg)
    assert record.selected_blocks.shape == (20, 3)
    # two channels: every selected pair is (0, 1)
    assert np.all(record.selected_blocks[:, 1] == 0)
    assert np.all(record.selected_blocks[:, 2] == 1)
    counts = np.bincount(record.selected_blocks[:, 0])
    assert np.all(counts[1:] == 2)


def test_pair_spectra_only_for_pairs_drawn_often(monkeypatch):
    # two channels: the one pair is drawn n_ob * n_mc times, so it gets a
    # spectrum at PAIR_SPECTRUM_DRAWS draws and factors its precision
    # below; the single channels' spectra come with the problem
    from misoid import conditionals

    limit = conditionals.PAIR_SPECTRUM_DRAWS
    sizes = []
    real = conditionals.block_spectrum

    def counted(gram, chol):
        sizes.append(gram.shape[0] // chol.shape[0])
        return real(gram, chol)

    monkeypatch.setattr(conditionals, "block_spectrum", counted)
    for n_mc in (limit - 1, limit):
        sizes.clear()
        problem, _ = _problem(seed=8)
        assert sizes == [1, 1]
        cfg = mi.SamplerConfig(variant="GSOB", n_mc=n_mc,
                               beta=20.0, n_ob=1, seed=4)
        record = mi.run(problem, cfg)
        assert record.completed == n_mc
        assert sorted(sizes) == ([1, 1] if n_mc < limit else [1, 1, 2])


def test_hyper_updates_condition_on_previous_theta():
    # the scale/noise draws for iteration t are functions of theta^(t-1):
    # replaying them from the recorded previous state must reproduce traces
    problem, _ = _problem(seed=7)
    cfg = mi.SamplerConfig(variant="GSd", n_mc=5, seed=3)
    rng = np.random.default_rng(cfg.seed)
    state = mi.init_chain(problem)
    prev_theta = state.theta.copy()
    new_state, _ = mi.sweep(state, problem, None, cfg, rng)
    replay = np.random.default_rng(cfg.seed)
    lam = mi.sample_lambda_k(prev_theta.reshape(2, 3), problem.kernel,
                             replay)
    np.testing.assert_array_equal(new_state.hyper.lam, lam)


# -- run / record -------------------------------------------------------------

def test_run_deterministic():
    problem, _ = _problem(seed=8)
    cfg = mi.SamplerConfig(variant="GSOBd", n_mc=50,
                           beta=15.0, n_ob=1, seed=21)
    r1 = mi.run(problem, cfg)
    r2 = mi.run(problem, cfg)
    np.testing.assert_array_equal(r1.theta_samples, r2.theta_samples)
    np.testing.assert_array_equal(r1.lambda_trace, r2.lambda_trace)
    np.testing.assert_array_equal(r1.sigma2_trace, r2.sigma2_trace)
    np.testing.assert_array_equal(r1.selected_blocks, r2.selected_blocks)
    np.testing.assert_array_equal(r1.summary.mean, r2.summary.mean)


def test_trace_shapes_per_variant():
    # one lambda column for a common scale, one per channel otherwise
    problem, _ = _problem(seed=9)
    for variant, names in (("GS", ["lambda"]),
                           ("GSd", ["lambda_0", "lambda_1"]),
                           ("GSOB", ["lambda"]),
                           ("GSOBd", ["lambda_0", "lambda_1"])):
        cfg = mi.SamplerConfig(variant=variant, n_mc=30,
                               beta=10.0, n_ob=1, seed=0)
        record = mi.run(problem, cfg)
        assert record.scale_names == names
        assert record.completed == 30
        assert record.lambda_trace.shape == (30, len(names))
        assert record.sigma2_trace.shape == (30,)
        assert record.theta_samples.shape == (30, 6)
        assert np.all(record.lambda_trace > 0)
        assert np.all(record.sigma2_trace > 0)


def test_single_retained_sample():
    problem, _ = _problem(seed=10)
    cfg = mi.SamplerConfig(variant="GS", n_mc=6, burn_in=5, seed=0)
    record = mi.run(problem, cfg)
    np.testing.assert_array_equal(record.summary.mean,
                                  record.theta_samples[-1])
    np.testing.assert_array_equal(record.summary.sd, np.zeros(6))


def test_thinning():
    problem, _ = _problem(seed=11)
    cfg = mi.SamplerConfig(variant="GS", n_mc=30, thin=3, seed=0)
    record = mi.run(problem, cfg)
    assert record.theta_samples.shape == (10, 6)
    np.testing.assert_array_equal(record.stored_iterations,
                                  np.arange(3, 31, 3))
    # summaries use stored iterations past burn-in (15): iterations 18..30
    keep = record.stored_iterations > 15
    np.testing.assert_allclose(record.summary.mean,
                               record.theta_samples[keep].mean(axis=0))


def test_posterior_mean_matches_analytic_when_frozen():
    problem, theta_true = _problem(seed=12)
    frozen = mi.HyperState(lam=np.full(2, 0.8), sigma2=0.3)
    cfg = mi.SamplerConfig(variant="GS", n_mc=4000, burn_in=100, seed=5)
    rng = np.random.default_rng(cfg.seed)
    state = mi.init_chain(problem)
    draws = np.empty((cfg.n_mc, 6))
    for t in range(cfg.n_mc):
        sp.draw_coefficients(state.theta, state.cross, frozen, problem, None,
                             cfg, rng)
        draws[t] = state.theta
    post = mi.analytic_posterior(problem.bank, problem.kernel, 0.8, 0.3)
    sd = np.sqrt(np.diag(post.covariance))
    retained = draws[cfg.burn_in:]
    for c in range(6):
        tau = mi.iact(retained[:, c])
        se = sd[c] * np.sqrt(tau / retained.shape[0])
        assert abs(retained[:, c].mean() - post.mean[c]) < 3.5 * se


def test_partial_record_attached_on_abort(monkeypatch):
    problem, _ = _problem(seed=13)
    cfg = mi.SamplerConfig(variant="GS", n_mc=50, seed=0)
    calls = {"count": 0}
    real = sp.draw_channels

    def explode_later(theta, cross, hyper, problem, *args):
        # single channels only: the chain fails in its 11th sweep
        calls["count"] += problem.bank.m
        if calls["count"] > 20:
            raise FactorizationError("synthetic failure")
        return real(theta, cross, hyper, problem, *args)

    monkeypatch.setattr(sp, "draw_channels", explode_later)
    partial = mi.run(problem, cfg)
    assert partial.completed == 10
    assert partial.aborted and partial.error == "synthetic failure"
    assert set(partial.seconds) == {"init", "sweeps"}
    assert partial.theta_samples.shape == (10, 6)
    np.testing.assert_array_equal(partial.stored_iterations,
                                  np.arange(1, 11))
    assert partial.lambda_trace.shape == (10, 1)
    assert partial.sigma2_trace.shape == (10,)


@pytest.mark.parametrize("lam_1,sigma2", [(5e-324, 0.4), (0.9, 1e-308)],
                         ids=["scale factor", "noise variance"])
def test_collapsed_scale_aborts_cleanly(monkeypatch, lam_1, sigma2):
    # one scale factor, or the noise variance, collapsed towards 0 makes the
    # spectral scales non-finite: the coefficient step raises, and a chain
    # that reaches it keeps the sweeps before it
    problem, _ = _problem(seed=18)
    cfg = mi.SamplerConfig(variant="GSd", n_mc=30, seed=2)
    state = mi.init_chain(problem)
    collapsed = mi.HyperState(lam=np.array([0.7, lam_1]), sigma2=sigma2)
    with np.errstate(over="ignore"), pytest.raises(FactorizationError):
        sp.draw_coefficients(state.theta.copy(), state.cross.copy(),
                             collapsed, problem, None, cfg,
                             np.random.default_rng(0))
    # a huge noise variance is no collapse: the prior alone is left
    theta = state.theta.copy()
    sp.draw_coefficients(theta, state.cross.copy(),
                         mi.HyperState(lam=np.array([0.7, 0.9]), sigma2=1e308),
                         problem, None, cfg, np.random.default_rng(0))
    assert np.all(np.isfinite(theta))

    calls = {"count": 0}
    real = sp.draw_hyper

    def collapse_later(*args):
        calls["count"] += 1
        return collapsed if calls["count"] > 10 else real(*args)

    monkeypatch.setattr(sp, "draw_hyper", collapse_later)
    with np.errstate(over="ignore"):
        partial = mi.run(problem, cfg)
    assert partial.completed == 10
    assert partial.aborted and partial.error
    assert partial.theta_samples.shape == (10, 6)
    assert np.all(np.isfinite(partial.theta_samples))
    assert np.all(partial.lambda_trace > 0.0)


def _tables_row_by_row(record) -> dict:
    """The chain tables formatted one row at a time: the reference for
    save_record's layout."""
    iterations = range(1, record.completed + 1)
    summary = record.summary
    return {
        "lambda.csv": ",".join(["iteration", *record.scale_names]) + "\n"
        + "".join(f"{t}," + ",".join(f"{v:.17g}" for v in row) + "\n"
                  for t, row in zip(iterations, record.lambda_trace)),
        "sigma2.csv": "iteration,sigma2\n"
        + "".join(f"{t},{v:.17g}\n"
                  for t, v in zip(iterations, record.sigma2_trace)),
        "blocks.csv": "iteration,i,j\n"
        + "".join(f"{t},{i},{j}\n" for t, i, j in record.selected_blocks),
        "summary.csv": "coefficient,channel,lag,mean,sd,q025,q975\n"
        + "".join(f"{c},{c // record.p},{c % record.p},{summary.mean[c]:.17g},"
                  f"{summary.sd[c]:.17g},{summary.q025[c]:.17g},"
                  f"{summary.q975[c]:.17g}\n"
                  for c in range(summary.mean.size)),
    }


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("variant", sp.VARIANTS)
def test_save_and_load_record(tmp_path, variant, thin):
    problem, _ = _problem(seed=14)
    cfg = mi.SamplerConfig(variant=variant, n_mc=40,
                           beta=20.0, n_ob=2, seed=9, thin=thin)
    record = mi.run(problem, cfg)
    outdir = tmp_path / "chain"
    mi.save_record(record, outdir)
    for name, text in _tables_row_by_row(record).items():
        assert (outdir / name).read_text() == text, name
    back = mi.load_record(outdir)
    # every stored field, and every derived one; only timings stay behind
    for name in [f.name for f in dataclasses.fields(sp.ChainRecord)
                 if f.name != "seconds"] + ["scale_names", "completed",
                                            "stored_iterations"]:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(record, name), err_msg=name)
    assert back.lambda_trace.shape == (cfg.n_mc, len(back.scale_names))
    np.testing.assert_array_equal(back.summary.mean, record.summary.mean)
    # the reloaded record writes the same bytes
    again = tmp_path / "again"
    mi.save_record(back, again)
    assert sorted(os.listdir(again)) == sorted(os.listdir(outdir))
    for name in os.listdir(outdir):
        assert (again / name).read_bytes() == (outdir / name).read_bytes()


@pytest.mark.parametrize("variant,shape", [("GS", (30, 1)), ("GSd", (30, 1))])
def test_one_channel_record_keeps_trace_shape(tmp_path, variant, shape):
    # one channel gives one lambda column either way; the header says
    # whether it is the common scale or channel 0's own
    problem, _ = _problem(seed=17, m=1)
    cfg = mi.SamplerConfig(variant=variant, n_mc=30, seed=3)
    record = mi.run(problem, cfg)
    assert record.lambda_trace.shape == shape
    mi.save_record(record, tmp_path)
    header = (tmp_path / "lambda.csv").read_text().splitlines()[0]
    assert header == "iteration," + record.scale_names[0]
    back = mi.load_record(tmp_path)
    assert back.scale_names == record.scale_names
    assert back.lambda_trace.shape == shape
    np.testing.assert_array_equal(back.lambda_trace, record.lambda_trace)


def test_recorded_selection_frequencies_match_schedule():
    problem, _ = _problem(seed=16, m=3, p=2, n=60)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=2000, beta=5.0, n_ob=5, seed=2)
    record = mi.run(problem, cfg)
    sched = mi.compute_block_probabilities(
        mi.compute_correlations(problem.data), cfg.beta)
    n_sel = record.selected_blocks.shape[0]
    assert n_sel == 10_000
    for pair, prob in zip(sched.blocks, sched.probs):
        freq = np.mean((record.selected_blocks[:, 1] == pair[0])
                       & (record.selected_blocks[:, 2] == pair[1]))
        se = np.sqrt(prob * (1 - prob) / n_sel)
        assert abs(freq - prob) <= 3 * se


def _hyper_mean_z(problem, theta, variant, draws=20_000):
    """Largest z score of the sample means of draw_hyper's scale factor(s)
    and noise variance, at fixed ``theta``, against the inverse-gamma means
    b / (a - 1) computed here from K^-1 and ||y - G theta||^2."""
    bank, kernel = problem.bank, problem.kernel
    m, p, n = bank.m, kernel.p, problem.data.n
    cfg = mi.SamplerConfig(variant=variant, n_mc=10)
    cross = bank.cross_state(theta)
    rng = np.random.default_rng(8)
    hypers = [sp.draw_hyper(theta, cross, problem, cfg, rng)
              for _ in range(draws)]
    lam = np.array([h.lam for h in hypers])
    rates = 0.5 * np.array([t @ kernel.Kinv @ t for t in theta.reshape(m, p)])
    if cfg.common_scale:
        targets = [(lam[:, 0], 0.5 * m * p, rates.sum())]
    else:
        targets = [(lam[:, k], 0.5 * p, rates[k]) for k in range(m)]
    rss = float(np.sum((problem.data.y - bank.predict(theta)) ** 2))
    targets.append((np.array([h.sigma2 for h in hypers]), 0.5 * n, 0.5 * rss))
    z = []
    for sample, a, b in targets:
        sd = b / ((a - 1.0) * np.sqrt(a - 2.0))
        z.append(abs(sample.mean() - b / (a - 1.0)) * np.sqrt(draws) / sd)
    return max(z)


@pytest.mark.parametrize("variant", ["GS", "GSd"])
def test_draw_hyper_means_at_fixed_coefficients(monkeypatch, variant):
    # the hyperparameter step's moments at one fixed theta whose channels
    # differ in norm, then under a mutation: the retired n*p/2 shape for
    # the common scale, or the per-channel rates in reverse order; p = 8
    # keeps GSd's shape p/2 above 2, where the variance is finite
    problem, theta = _problem(seed=21, m=3, p=8, n=60)
    theta = theta * np.repeat([1.0, 3.0, 9.0], 8)
    assert _hyper_mean_z(problem, theta, variant) < 4
    if variant == "GS":
        n = problem.data.n

        def wrong_shape(theta, kernel, rng):
            rate = 0.5 * quad_form(kernel, theta.reshape(-1, kernel.p)).sum()
            return sample_inverse_gamma(0.5 * n * kernel.p, rate, rng)
        monkeypatch.setattr(sp, "sample_lambda_common", wrong_shape)
    else:
        real = sp.sample_lambda_k
        monkeypatch.setattr(sp, "sample_lambda_k",
                            lambda theta, kernel, rng:
                            real(theta[::-1], kernel, rng))
    assert _hyper_mean_z(problem, theta, variant) > 10
