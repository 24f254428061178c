import copy
import dataclasses
import json
import os

import numpy as np
import pytest

import misoid as mi
from misoid import sampler as sp
from misoid.blocks import (compute_block_probabilities, compute_correlations,
                           select_block)
from misoid.conditionals import (PAIR_SPECTRUM_DRAWS, block_conditional,
                                 sample_inverse_gamma, sample_lambda_k)
from misoid.errors import FactorizationError
from misoid.kernel import build_kernel, quad_form
from misoid.regression import RegressorBank

from conftest import make_small_problem, stacked_regressors


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
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=np.int64(10), beta=2.0,
                           n_ob=np.int32(2), seed=np.int64(3))
    assert cfg.burn_in == 5 and cfg.seed == 3


@pytest.mark.parametrize("settings", [
    dict(variant="GS", seed=1.5), dict(variant="GS", seed=-1),
    dict(variant="GS", seed=True), dict(variant="GS", seed="3"),
    dict(variant="GS", n_mc="10"),
    dict(variant="GSOB", beta=1.0, n_ob=1.5),
    dict(variant="GSOBd", beta=1.0, n_ob=True),
    dict(variant="GSOB", beta="1")])
def test_config_refuses_ill_typed_setting(settings):
    # a setting no chain can run with is refused by a ValueError when the
    # config is made, never by a TypeError then or an error inside run
    with pytest.raises(ValueError):
        mi.SamplerConfig(**settings)


def test_derive_seed_spreads():
    seeds = {sp.derive_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert sp.derive_seed(123, 5) == sp.derive_seed(123, 5)
    assert sp.derive_seed(123, 5) != sp.derive_seed(124, 5)


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


def test_init_subnormal_ridge_fits_without_ridge():
    # var(y) * tr(K^-1) = 1e306 is finite, but the ridge eps_k underflows
    # to a subnormal whose inverse overflows: the fit runs unregularized,
    # without a floating-point warning
    rng = np.random.default_rng(5)
    inputs = rng.standard_normal((2, 60))
    y = rng.standard_normal(60)
    kernel = build_kernel(0.5, 40)
    y *= np.sqrt(1e306 / (np.var(y) * np.trace(kernel.Kinv)))
    problem = mi.build_problem(mi.Dataset(y=y, inputs=inputs), alpha=0.5,
                               p=40)
    assert 0.0 < 1e-8 * np.trace(problem.bank.gram(0, 0)) / 1e306 < 2e-308
    assert np.all(np.isfinite(mi.init_chain(problem).theta))


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
        assert quad_form(problem.kernel, state.theta[k * 3:(k + 1) * 3]) > 0


def test_init_is_sequential_ridge_fit():
    # channel k's start is the ridge fit, at noise variance var(y) and
    # ridge eps_k K^-1, of the residual its predecessors leave, solved
    # densely
    rng = np.random.default_rng(27)
    m, p, n = 3, 4, 60
    inputs = rng.standard_normal((m, n))
    inputs[1] += 0.6 * inputs[0]
    y = inputs.sum(axis=0) + 0.3 * rng.standard_normal(n)
    problem = mi.build_problem(mi.Dataset(y=y, inputs=inputs), alpha=0.9,
                               p=p)
    theta = mi.init_chain(problem).theta.reshape(m, p)
    Kinv, sigma2_0 = problem.kernel.Kinv, np.var(y)
    residual = y.copy()
    for k in range(m):
        G = stacked_regressors(inputs[k:k + 1], p)
        eps = 1e-8 * np.trace(G.T @ G) / (sigma2_0 * np.trace(Kinv))
        expected = np.linalg.solve(G.T @ G / sigma2_0 + eps * Kinv,
                                   G.T @ residual / sigma2_0)
        np.testing.assert_allclose(theta[k], expected, rtol=1e-9, atol=0)
        residual -= G @ expected


def test_chains_leave_the_bank_untouched():
    # the bank is read-only once built, and every chain variant leaves each
    # of its arrays as it was
    problem = _collinear_triple()
    arrays = {name: value for name, value in vars(problem.bank).items()
              if isinstance(value, np.ndarray)}
    assert arrays
    assert not [name for name, arr in arrays.items()
                if arr.flags.writeable]
    before = {name: arr.tobytes() for name, arr in arrays.items()}
    for variant in ("GS", "GSOB", "GSOBd"):
        cfg = mi.SamplerConfig(variant=variant, n_mc=6, beta=2.0, n_ob=3,
                               seed=2)
        assert mi.run(problem, cfg).completed == 6
    assert {name: arr.tobytes() for name, arr in arrays.items()} == before


def test_chains_share_one_start(monkeypatch):
    # the start fit does not depend on the chain: a problem builds it once,
    # read-only, and every variant's chain starts from it
    problem = _collinear_triple()
    built = []
    real = sp.init_chain

    def counted(problem):
        built.append(problem)
        return real(problem)

    monkeypatch.setattr(sp, "init_chain", counted)
    for variant in sp.VARIANTS:
        cfg = mi.SamplerConfig(variant=variant, n_mc=4, beta=2.0, n_ob=2,
                               seed=1)
        assert mi.run(problem, cfg).completed == 4
    assert built == [problem]
    start, fresh = problem.start, real(problem)
    for arr in (start.theta, start.cross, start.hyper.lam):
        assert not arr.flags.writeable
    assert start.theta.tobytes() == fresh.theta.tobytes()
    assert start.cross.tobytes() == fresh.cross.tobytes()
    np.testing.assert_array_equal(start.hyper.lam, fresh.hyper.lam)
    assert start.hyper.sigma2 == fresh.hyper.sigma2


def test_chain_after_another_matches_chain_alone():
    # a chain copies the shared start and changes nothing of it, so a GSd
    # chain run after a GS chain of the same problem is the GSd chain alone
    gs = mi.SamplerConfig(variant="GS", n_mc=8, seed=3)
    gsd = mi.SamplerConfig(variant="GSd", n_mc=8, seed=4)
    shared = _collinear_triple()
    mi.run(shared, gs)
    after = mi.run(shared, gsd)
    alone = mi.run(_collinear_triple(), gsd)
    for field in ("theta_samples", "lambda_trace", "sigma2_trace"):
        assert (getattr(after, field).tobytes()
                == getattr(alone, field).tobytes())


# -- sweep --------------------------------------------------------------------

def test_sweep_composes_single_conditionals():
    problem, _ = _problem(seed=5)
    cfg = mi.SamplerConfig(variant="GS", n_mc=10)
    state = mi.init_chain(problem)

    # a sweep is draw_hyper then draw_coefficients on one generator
    rng_a = np.random.default_rng(7)
    new_state, selected = sp.sweep(state, problem, None, cfg, rng_a)
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

    # at fixed hyperparameters the coefficient step is the loop of block
    # conditionals: its single-channel pass within 1e-12, and its scheduled
    # blocks byte for byte from the state the pass leaves, on every variant
    # and both pair routes, and on a hand-built schedule of a triple drawn
    # often and a rare pair
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
            schedule = compute_block_probabilities(problem.correlations,
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
    return mi.Problem(data=data, bank=RegressorBank(data, 4),
                      kernel=build_kernel(0.9, 4))


def _reference_coefficients(theta, cross, hyper, problem, schedule, config,
                            rng):
    """The coefficient step one block at a time: the single-channel pass,
    checked within 1e-12 relative against each channel drawn from
    ``block_conditional`` at the pass's noise, then each scheduled block
    drawn from ``block_conditional``: the blocks drawn and the route of
    each."""
    bank, m, p = problem.bank, problem.bank.m, problem.bank.p

    def draw(channels, often, theta, cross, noise):
        post = block_conditional(channels, theta, cross, hyper, problem,
                                 often)
        value = post.root.times(post.whitened + noise)
        for r, k in enumerate(channels):
            bank.set_channel(theta, cross, k, value[r * p:(r + 1) * p])
        return "factored" if post.root.scale is None else "spectral"

    noise = rng.standard_normal(m * p).reshape(m, p)
    single, single_cross = theta.copy(), cross.copy()
    for k in range(m):
        assert draw((k,), True, single, single_cross, noise[k]) == "spectral"
    sp.draw_channels(theta, cross, hyper, problem, noise)
    for got, expected in ((theta, single), (cross, single_cross)):
        assert (np.max(np.abs(got - expected))
                <= 1e-12 * np.max(np.abs(expected)))
    selected, routes = [], []
    for _ in range(config.n_ob if config.uses_blocks else 0):
        b = select_block(schedule, rng)
        often = (schedule.probs[b] * config.n_ob * config.n_mc
                 >= PAIR_SPECTRUM_DRAWS)
        channels = schedule.blocks[b]
        routes.append(draw(channels, often, theta, cross,
                           rng.standard_normal(len(channels) * p)))
        selected.append(channels)
    return selected, routes


def test_draw_coefficients_refuses_wrong_scale_count():
    # a fixed HyperState comes from the caller: a wrong length is refused
    # before any block is drawn
    problem, _ = _problem(seed=6)
    cfg = mi.SamplerConfig(variant="GSOBd", n_mc=10, beta=20.0)
    schedule = compute_block_probabilities(problem.correlations, cfg.beta)
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
    schedule = compute_block_probabilities(
        compute_correlations(problem.data), cfg.beta)
    chain_rng = np.random.default_rng(cfg.seed)
    state = mi.init_chain(problem)
    dense = problem.bank.dense_gram()
    exact = dense @ state.theta
    got = problem.bank.gram_product(state.cross)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
    for _ in range(cfg.n_mc):
        state, _ = sp.sweep(state, problem, schedule, cfg, chain_rng)
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

    monkeypatch.setattr(RegressorBank, "dense_gram", refuse)
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
    limit = PAIR_SPECTRUM_DRAWS
    sizes = []
    real = sp.block_spectrum

    def counted(gram, chol):
        sizes.append(gram.shape[0] // chol.shape[0])
        return real(gram, chol)

    monkeypatch.setattr(sp, "block_spectrum", counted)
    for n_mc in (limit - 1, limit):
        sizes.clear()
        problem, _ = _problem(seed=8)
        assert sizes == [1, 1]
        cfg = mi.SamplerConfig(variant="GSOB", n_mc=n_mc,
                               beta=20.0, n_ob=1, seed=4)
        record = mi.run(problem, cfg)
        assert record.completed == n_mc
        assert sorted(sizes) == ([1, 1] if n_mc < limit else [1, 1, 2])


@pytest.mark.parametrize("variant", ["GSOB", "GSOBd"])
def test_pair_caches_bounded_on_many_pairs(variant, monkeypatch):
    # twelve channels with one shared component and a small selection rate:
    # a nearly uniform schedule over 66 pairs, 15 to 26 expected draws
    # each.  A chain keeps a pair's
    # spectrum or gram only if it expects PAIR_SPECTRUM_DRAWS draws of it,
    # so at most n_ob * n_mc / PAIR_SPECTRUM_DRAWS pairs, as README states
    rng = np.random.default_rng(41)
    inputs = rng.standard_normal((12, 200)) + rng.standard_normal(200)
    data = mi.Dataset(y=inputs.sum(axis=0) + rng.standard_normal(200),
                      inputs=inputs)
    problem = mi.build_problem(data, alpha=0.9, p=3)
    cfg = mi.SamplerConfig(variant=variant, n_mc=330, beta=0.5, n_ob=4,
                           seed=5)
    kept = set()
    for name in ("gram", "spectrum"):
        real = getattr(problem, name)

        def counted(channels, real=real):
            if len(channels) > 1:
                kept.add(channels)
            return real(channels)

        monkeypatch.setattr(problem, name, counted)
    record = mi.run(problem, cfg)
    assert record.completed == cfg.n_mc
    schedule = problem.block_schedule(cfg.beta)
    budget = cfg.n_ob * cfg.n_mc
    often = {block for block, prob in zip(schedule.blocks, schedule.probs)
             if prob * budget >= PAIR_SPECTRUM_DRAWS}
    drawn = {tuple(pair) for pair in record.selected_blocks[:, 1:].tolist()}
    assert len(schedule.blocks) == 66 and len(drawn) == 66
    # some pairs fall on each side of the rule
    assert kept and drawn - kept
    assert kept <= often
    assert len(kept) <= budget / PAIR_SPECTRUM_DRAWS


def test_hyper_updates_condition_on_previous_theta():
    # the scale/noise draws for iteration t are functions of theta^(t-1):
    # replaying them from the recorded previous state must reproduce traces
    problem, _ = _problem(seed=7)
    cfg = mi.SamplerConfig(variant="GSd", n_mc=5, seed=3)
    rng = np.random.default_rng(cfg.seed)
    state = mi.init_chain(problem)
    prev_theta = state.theta.copy()
    new_state, _ = sp.sweep(state, problem, None, cfg, rng)
    replay = np.random.default_rng(cfg.seed)
    lam = sample_lambda_k(prev_theta.reshape(2, 3), problem.kernel,
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
    # the start's pass runs before the count begins: only sweeps count
    problem.start
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
    # a chain without block updates has a header-only blocks.csv
    assert back.selected_blocks.dtype == np.int64
    assert back.selected_blocks.shape == (
        (0, 3) if not cfg.uses_blocks else (cfg.n_mc * cfg.n_ob, 3))
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


def test_record_with_numpy_seed_saves_and_reloads(tmp_path):
    # a numpy integer seed is written to record.json as the plain integer
    problem, _ = _problem(seed=14)
    record = mi.run(problem, mi.SamplerConfig(variant="GS", n_mc=20,
                                              seed=np.int64(3)))
    mi.save_record(record, tmp_path)
    assert json.loads((tmp_path / "record.json").read_text())["seed"] == 3
    back = mi.load_record(tmp_path)
    assert back.seed == 3
    np.testing.assert_array_equal(back.theta_samples, record.theta_samples)


def test_recorded_selection_frequencies_match_schedule():
    problem, _ = _problem(seed=16, m=3, p=2, n=60)
    cfg = mi.SamplerConfig(variant="GSOB", n_mc=2000, beta=5.0, n_ob=5, seed=2)
    record = mi.run(problem, cfg)
    sched = compute_block_probabilities(
        compute_correlations(problem.data), cfg.beta)
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
