import numpy as np
import pytest
from scipy.signal import lfilter

import misoid as mi
from misoid.blocks import compute_correlations
from misoid.simgen import gamma_for_target_c, load_truth_json


# -- gamma / target correlation ----------------------------------------------

def test_gamma_limit_perfect_correlation():
    assert gamma_for_target_c(0.999999, 0.8, 1.0) < 1e-2
    g = [gamma_for_target_c(c, 0.8, 1.0) for c in (0.9, 0.99, 0.999)]
    assert g[0] > g[1] > g[2]


def test_gamma_printed_value():
    g = gamma_for_target_c(0.99, 0.8, 1.0)
    assert g ** 2 == pytest.approx(0.36 * (1 / 0.9801 - 1), rel=1e-10)
    assert g == pytest.approx(0.08550, abs=5e-6)


def test_gamma_equal_power_case():
    assert gamma_for_target_c(1 / np.sqrt(2), 0.0, 1.0) == pytest.approx(1.0)


def test_gamma_domain():
    for bad in (0.0, 1.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            gamma_for_target_c(bad, 0.8, 1.0)
    with pytest.raises(ValueError):
        gamma_for_target_c(0.9, 1.0, 1.0)


def test_gamma_calibration_by_simulation():
    gamma = gamma_for_target_c(0.99, 0.8, 1.0)
    rng = np.random.default_rng(0)
    n = 1_000_000
    u = rng.standard_normal(n)
    sd_v = gamma / np.sqrt((1 - 0.8 ** 2) * (1 + 0.8 ** 2))
    v = sd_v * rng.standard_normal(n + 1)
    r = v[1:] - 0.8 * v[:-1]
    c = np.corrcoef(u, u + r)[0, 1]
    assert abs(c - 0.99) < 0.002


# -- random systems -----------------------------------------------------------

def test_degree_zero_gives_unit_impulse():
    rng = np.random.default_rng(1)
    system = mi.generate_system(
        mi.RandomSystemSpec(m=1, fir_order=8, denominator_degree=0), rng)
    np.testing.assert_allclose(system.denominator, [1.0])
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(system.responses[0], expected, atol=1e-14)


def test_poles_strictly_stable():
    rng = np.random.default_rng(2)
    for _ in range(5):
        system = mi.generate_system(mi.RandomSystemSpec(m=3, fir_order=50),
                                    rng)
        assert np.max(np.abs(system.poles)) < 1.0
        assert np.max(np.abs(np.roots(system.denominator))) < 1.0


def test_response_peak_is_unit():
    rng = np.random.default_rng(3)
    system = mi.generate_system(mi.RandomSystemSpec(m=4, fir_order=50), rng)
    horizon = np.zeros(200)
    horizon[0] = 1.0
    for k in range(4):
        full = lfilter(system.numerators[k], system.denominator, horizon)
        assert np.max(np.abs(full)) == pytest.approx(1.0, rel=1e-12)
        assert np.max(full) == pytest.approx(1.0, rel=1e-12)  # signed peak


def test_tail_energy_and_decay():
    rng = np.random.default_rng(4)
    system = mi.generate_system(mi.RandomSystemSpec(m=5, fir_order=50), rng)
    pulse = np.zeros(400)
    pulse[0] = 1.0
    for k in range(5):
        full = lfilter(system.numerators[k], system.denominator, pulse)
        total = full @ full
        tail = full[50:] @ full[50:]
        assert tail < 0.01 * total
        assert abs(full[50]) < 0.01 * np.max(np.abs(full))


def test_regeneration_limit():
    rng = np.random.default_rng(5)
    spec = mi.RandomSystemSpec(m=1, fir_order=2, denominator_degree=5,
                               pole_radius_min=0.97, pole_radius_max=0.99)
    with pytest.raises(RuntimeError):
        mi.generate_system(spec, rng, max_attempts=3)


def test_system_determinism():
    a = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=20),
                           np.random.default_rng(6))
    b = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=20),
                           np.random.default_rng(6))
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.denominator, b.denominator)


# -- inputs -------------------------------------------------------------------

def test_duplicate_mode_exact_copy():
    rng = np.random.default_rng(7)
    u = mi.generate_inputs(mi.CollinearInputSpec(m=2, n=300, duplicate=True),
                           rng)
    np.testing.assert_array_equal(u[0], u[1])
    c = compute_correlations(mi.Dataset(y=np.zeros(300), inputs=u))
    assert c[0, 1] == pytest.approx(1.0)


def test_chain_correlations_decay_with_distance():
    rng = np.random.default_rng(8)
    u = mi.generate_inputs(
        mi.CollinearInputSpec(m=10, n=100_000, correlated_prefix=10), rng)
    c = compute_correlations(mi.Dataset(y=np.zeros(100_000), inputs=u))
    first_row = [c[0, k] for k in range(1, 10)]
    assert np.all(np.diff(first_row) < 0.0)
    adjacent = [c[i, i + 1] for i in range(9)]
    assert min(adjacent) > 0.985 and max(adjacent) < 0.995
    assert c[0, 9] == pytest.approx(0.92, abs=0.01)


def test_channels_beyond_prefix_independent():
    rng = np.random.default_rng(9)
    u = mi.generate_inputs(
        mi.CollinearInputSpec(m=6, n=100_000, correlated_prefix=3), rng)
    c = compute_correlations(mi.Dataset(y=np.zeros(100_000), inputs=u))
    off = [c[i, j] for i in range(3, 6) for j in range(i + 1, 6)]
    assert max(off) < 0.02


def test_input_spec_validation():
    with pytest.raises(ValueError):
        mi.CollinearInputSpec(m=2, n=100, correlated_prefix=5)
    with pytest.raises(ValueError):
        mi.CollinearInputSpec(m=3, n=100, correlated_prefix=2, target_c=1.0)
    with pytest.raises(ValueError):
        mi.CollinearInputSpec(m=1, n=100, duplicate=True)


# -- dataset synthesis --------------------------------------------------------

def test_noise_free_output_matches_filter():
    rng = np.random.default_rng(10)
    system = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=20), rng)
    inputs = rng.standard_normal((2, 100))
    data = mi.synthesize_dataset(system, inputs, 0.0, rng)
    direct = sum(lfilter(system.numerators[k], system.denominator, inputs[k])
                 for k in range(2))
    np.testing.assert_allclose(data.y, direct, atol=1e-12)


def test_unit_impulse_reproduces_truncated_response():
    rng = np.random.default_rng(11)
    system = mi.generate_system(mi.RandomSystemSpec(m=1, fir_order=30), rng)
    pulse = np.zeros((1, 30))
    pulse[0, 0] = 1.0
    data = mi.synthesize_dataset(system, pulse, 0.0, rng)
    np.testing.assert_allclose(data.y, system.responses[0], atol=1e-12)


def test_noise_variance_realized():
    rng = np.random.default_rng(12)
    system = mi.generate_system(mi.RandomSystemSpec(m=1, fir_order=30), rng)
    inputs = rng.standard_normal((1, 100_000))
    clean = mi.synthesize_dataset(system, inputs.copy(),
                                  0.0, np.random.default_rng(0))
    noisy = mi.synthesize_dataset(system, inputs, 0.3,
                                  np.random.default_rng(13))
    assert np.var(noisy.y - clean.y) == pytest.approx(0.3, rel=0.05)


def test_synthesize_validation():
    rng = np.random.default_rng(14)
    system = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=5), rng)
    with pytest.raises(ValueError):
        mi.synthesize_dataset(system, np.zeros((3, 10)), 0.1, rng)
    with pytest.raises(ValueError):
        mi.synthesize_dataset(system, np.zeros((2, 10)), -0.1, rng)


def test_truth_json_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    system = mi.generate_system(mi.RandomSystemSpec(m=2, fir_order=10), rng)
    path = tmp_path / "truth.json"
    mi.write_truth_json(path, system, 0.3, gamma=0.085,
                        achieved_correlations=np.eye(2))
    doc = load_truth_json(path)
    np.testing.assert_allclose(doc["responses"], system.responses)
    assert doc["noise_variance"] == 0.3
    assert doc["gamma"] == 0.085
