"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline statistic and wall time.

Run with `pytest tests/test_acceptance.py -v -s`.  The large-scale benchmark
config (100 channels, 1e5 samples) is shipped but deliberately not exercised
here; the desk-scale variant covers the same comparison.
"""

import os
import time

import numpy as np
import pytest

import misoid as mi
from misoid.cli import main as cli_main
from misoid.conditionals import sample_sigma2_from_sumsq
from misoid.diagnostics import pair_sum_error

from conftest import make_example1


class Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(num, title, ok, detail, watch):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({title}): {detail} "
          f"[{watch.elapsed:.1f}s / {watch.budget_s:.0f}s budget]")


def test_criterion_1_kernel_closed_form():
    with Stopwatch(1.0) as watch:
        worst = 0.0
        for alpha in (0.5, 0.9):
            for p in (5, 50):
                k = mi.build_kernel(alpha, p)
                dense = np.linalg.inv(k.K)
                err = (np.linalg.norm(k.Kinv - dense)
                       / np.linalg.norm(dense))
                worst = max(worst, err)
                assert np.linalg.eigvalsh(k.K).min() > 0.0
    ok = worst < 1e-8 and watch.elapsed < watch.budget_s
    report(1, "kernel closed-form inverse", ok,
           f"max rel Frobenius err {worst:.2e} < 1e-8", watch)
    assert ok


def test_criterion_2_conditional_exactness():
    with Stopwatch(60.0) as watch:
        rep = mi.run_oracle_checks(seed=0, n_sweeps=10_000, m=2, p=3, n=50)
        algebra = max(rep.checks[0].statistic, rep.checks[1].statistic)
        zmax = max(c.statistic for c in rep.checks[2:6])
    ok = rep.passed and watch.elapsed < watch.budget_s
    report(2, "conditional exactness vs analytic posterior", ok,
           f"conditional-vs-Schur err {algebra:.2e} < 1e-8; "
           f"chain-mean max |z| {zmax:.2f} < 3 over 4 variants", watch)
    assert ok


def test_criterion_3_inverse_gamma_moments():
    with Stopwatch(10.0) as watch:
        rng = np.random.default_rng(123)
        n_draws = 100_000
        zs = {}

        p = 50
        kernel = mi.build_kernel(0.9, p)
        theta = kernel.chol @ rng.standard_normal(p)
        q = mi.quad_form(kernel, theta)
        draws = np.array([mi.sample_lambda_k(theta[None], kernel, rng)[0]
                          for _ in range(n_draws)])
        a, b = p / 2, q / 2
        se = b / ((a - 1) * np.sqrt(a - 2)) / np.sqrt(n_draws)
        zs["scale factor"] = abs(draws.mean() - b / (a - 1)) / se

        n = 500
        resid = rng.standard_normal(n)
        rss = float(resid @ resid)
        draws = np.array([sample_sigma2_from_sumsq(rss, n, rng)
                          for _ in range(n_draws)])
        a, b = n / 2, rss / 2
        se = b / ((a - 1) * np.sqrt(a - 2)) / np.sqrt(n_draws)
        zs["noise variance"] = abs(draws.mean() - b / (a - 1)) / se

        m = 2
        stacked = np.concatenate([theta, kernel.chol
                                  @ rng.standard_normal(p)])
        total = sum(mi.quad_form(kernel, stacked[k * p:(k + 1) * p])
                    for k in range(m))
        draws = np.array([mi.sample_lambda_common(stacked, kernel, rng)
                          for _ in range(n_draws)])
        a, b = m * p / 2, total / 2
        se = b / ((a - 1) * np.sqrt(a - 2)) / np.sqrt(n_draws)
        zs["common scale"] = abs(draws.mean() - b / (a - 1)) / se

    worst = max(zs.values())
    ok = worst < 3.0 and watch.elapsed < watch.budget_s
    report(3, "inverse-gamma conditional moments", ok,
           f"max |z| {worst:.2f} < 3 over {list(zs)}", watch)
    assert ok


def test_criterion_4_block_probability_reproduction():
    with Stopwatch(30.0) as watch:
        rng = np.random.default_rng(55)
        inputs = mi.generate_inputs(
            mi.CollinearInputSpec(m=12, n=100_000, correlated_prefix=10,
                                  target_c=0.99, ma_coefficient=0.8), rng)
        data = mi.Dataset(y=rng.standard_normal(100_000), inputs=inputs)
        c = mi.compute_correlations(data)
        sched = mi.compute_block_probabilities(c, 100.0)
        table = dict(zip(sched.blocks, sched.probs))
        adjacent = np.array([table[(i, i + 1)] for i in range(9)])
        distant = table[(0, 9)]
        bounds_ok = (np.all(adjacent > 0.06) and np.all(adjacent < 0.08)
                     and distant < 0.0005)

        draw_rng = np.random.default_rng(7)
        n_draws = 100_000
        counts = {}
        for _ in range(n_draws):
            ij = sched.blocks[mi.select_block(sched, draw_rng)]
            counts[ij] = counts.get(ij, 0) + 1
        violations = 0
        for pair, prob in table.items():
            freq = counts.get(pair, 0) / n_draws
            se = np.sqrt(prob * (1 - prob) / n_draws)
            if abs(freq - prob) > 3 * se:
                violations += 1
    ok = bounds_ok and violations == 0 and watch.elapsed < watch.budget_s
    report(4, "block probabilities, chained-input structure", ok,
           f"adjacent shares {adjacent.min()*100:.2f}-{adjacent.max()*100:.2f}% "
           f"in (6,8); far pair {distant*100:.4f}% < 0.05%; "
           f"{violations} frequency violations at 3 binomial se", watch)
    assert ok


def test_criterion_5_collinearity_calibration():
    with Stopwatch(5.0) as watch:
        gamma = mi.gamma_for_target_c(0.99, 0.8, 1.0)
        rng = np.random.default_rng(321)
        inputs = mi.generate_inputs(
            mi.CollinearInputSpec(m=2, n=100_000, correlated_prefix=2,
                                  target_c=0.99, ma_coefficient=0.8), rng)
        c12 = abs(np.corrcoef(inputs)[0, 1])
        delta = abs(c12 - 0.99)
    ok = delta < 0.005 and watch.elapsed < watch.budget_s
    report(5, "collinearity calibration", ok,
           f"gamma {gamma:.5f}; empirical link correlation {c12:.5f}, "
           f"|delta| {delta:.1e} < 5e-3", watch)
    assert ok


def test_criterion_6_duplicate_input_reproduction():
    with Stopwatch(120.0) as watch:
        data, system = make_example1(data_seed=11)
        truth = system.responses.ravel()
        p = 50
        base = dict(n_mc=500, alpha=0.9, p=p, beta=20.0, n_ob=2, seed=1)
        problem = mi.build_problem(
            data, mi.SamplerConfig(variant="GSOB", **base))
        summaries = {}
        for variant in ("GSOB", "GSOBd", "GSd"):
            _, summaries[variant] = mi.run(
                problem, mi.SamplerConfig(variant=variant, **base))

        sum_err = pair_sum_error(summaries["GSOB"].mean, truth, p, 0, 1)
        sd_ratio = (summaries["GSOB"].sd[p:].mean()
                    / summaries["GSOBd"].sd[p:].mean())
        collapse = {
            v: (np.linalg.norm(summaries[v].mean[p:])
                / np.linalg.norm(summaries[v].mean[:p]))
            for v in ("GSd", "GSOBd")
        }
    ok = (sum_err <= 0.15 and sd_ratio >= 5.0
          and all(r <= 0.1 for r in collapse.values())
          and watch.elapsed < watch.budget_s)
    report(6, "duplicate-input qualitative reproduction", ok,
           f"summed-response rel err {sum_err:.3f} <= 0.15; "
           f"sd ratio {sd_ratio:.1e} >= 5; collapse ratios "
           f"GSd {collapse['GSd']:.1e}, GSOBd {collapse['GSOBd']:.1e} <= 0.1",
           watch)
    assert ok


def test_criterion_7_mixing_ordering():
    with Stopwatch(300.0) as watch:
        data, _ = make_example1(data_seed=11)
        problem = mi.build_problem(
            data, mi.SamplerConfig(variant="GS", n_mc=10, alpha=0.9, p=50,
                                   seed=0))
        wins, pairs = 0, []
        for seed in range(5):
            taus = {}
            for variant in ("GSOB", "GS"):
                cfg = mi.SamplerConfig(variant=variant, n_mc=2000,
                                       burn_in=1000, alpha=0.9, p=50,
                                       beta=20.0, n_ob=2, seed=seed)
                record, _ = mi.run(problem, cfg)
                taus[variant] = mi.iact(record.lambda_trace[1000:, 0])
            pairs.append((taus["GSOB"], taus["GS"]))
            wins += taus["GSOB"] < taus["GS"]
    ok = wins >= 4 and watch.elapsed < watch.budget_s
    detail = " ".join(f"({a:.1f}<{b:.1f})" for a, b in pairs)
    report(7, "scale-factor mixing ordering", ok,
           f"IACT(GSOB) < IACT(GS) in {wins}/5 replicates: {detail}", watch)
    assert ok


def test_criterion_8_desk_scale_comparison():
    with Stopwatch(900.0) as watch:
        rng = np.random.default_rng(20260803)
        system = mi.generate_system(
            mi.RandomSystemSpec(m=20, fir_order=50), rng)
        inputs = mi.generate_inputs(
            mi.CollinearInputSpec(m=20, n=10_000, correlated_prefix=5,
                                  target_c=0.99, ma_coefficient=0.8), rng)
        data = mi.synthesize_dataset(system, inputs, 0.3, rng)
        truth = system.responses.ravel()
        p = 50
        problem = mi.build_problem(
            data, mi.SamplerConfig(variant="GS", n_mc=10, alpha=0.9, p=p,
                                   seed=0))
        prefix_wins = 0
        indep_ok = True
        details = []
        for seed in (0, 1, 2):
            errs = {}
            for variant in ("GSOB", "GS"):
                cfg = mi.SamplerConfig(variant=variant, n_mc=1000, alpha=0.9,
                                       p=p, beta=100.0, n_ob=10, seed=seed)
                _, summary = mi.run(problem, cfg)
                errs[variant] = mi.fit_metric(summary.mean, truth, p)
            pref = {v: errs[v][:5].mean() for v in errs}
            indep = {v: errs[v][5:].mean() for v in errs}
            prefix_wins += pref["GSOB"] < pref["GS"]
            rel = (abs(indep["GSOB"] - indep["GS"])
                   / (0.5 * (indep["GSOB"] + indep["GS"])))
            indep_ok = indep_ok and rel < 0.20
            details.append(f"seed{seed}: prefix {pref['GSOB']:.3f} vs "
                           f"{pref['GS']:.3f}, indep delta {rel:.1%}")
    ok = prefix_wins >= 2 and indep_ok and watch.elapsed < watch.budget_s
    report(8, "desk-scale chained-input comparison", ok,
           f"GSOB better on correlated prefix in {prefix_wins}/3 seeds; "
           + "; ".join(details), watch)
    assert ok


def test_criterion_9_determinism(tmp_path):
    with Stopwatch(60.0) as watch:
        out = tmp_path / "det"
        cfg_text = f"""
[generator]
channels = 2
samples = 200
mode = duplicate
noise_variance = 0.3
fir_order = 12
seed = 4

[data]
path = {out}/dataset.csv

[sampler]
variant = GSOB
iterations = 60
overlapping_blocks = 2
alpha = 0.9
beta = 20
fir_order = 12
seed = 77

[run]
output = {out}
"""
        cfg = tmp_path / "det.cfg"
        cfg.write_text(cfg_text)
        assert cli_main(["simulate", str(cfg)]) == 0
        assert cli_main(["identify", str(cfg),
                         "--output", str(out / "a")]) == 0
        assert cli_main(["identify", str(cfg),
                         "--output", str(out / "b")]) == 0
        identical = True
        for name in ("lambda.csv", "sigma2.csv", "theta_samples.npy",
                     "blocks.csv", "summary.csv"):
            fa = (out / "a" / "GSOB" / "rep000" / name).read_bytes()
            fb = (out / "b" / "GSOB" / "rep000" / name).read_bytes()
            identical = identical and fa == fb
    ok = identical and watch.elapsed < watch.budget_s
    report(9, "determinism", ok,
           "chain files byte-identical across reruns" if identical
           else "chain files differ", watch)
    assert ok
