import numpy as np
import pytest

from otfspn.oscillator import (PhaseNoiseModel, dpll_autocovariance,
                               expected_rotation, sample_path, sample_paths,
                               variogram)

TS = 1.0 / 7.68e6


def test_model_validation():
    with pytest.raises(ValueError):
        PhaseNoiseModel("XYZ", 1e3, TS)
    with pytest.raises(ValueError):
        PhaseNoiseModel("FRO", -1.0, TS)
    with pytest.raises(ValueError):
        PhaseNoiseModel("CPLL", 1e3, TS, f_pll=0.0)
    m = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    assert abs(m.a_pll) < 1
    assert m.nu2_pn == pytest.approx(4 * np.pi * 2e3 * TS)
    assert m.a_pll == pytest.approx((2 - TS * 1e6) / (2 + TS * 1e6))
    assert m.b_pll == pytest.approx(2 / (2 + TS * 1e6))


def test_zero_linewidth_paths_are_constant():
    for kind in ("FRO", "CPLL", "DPLL"):
        m = PhaseNoiseModel(kind, 0.0, TS, 1e6)
        p = sample_path(m, 256, 0)
        assert np.all(p.theta == p.theta[0])
        assert variogram(m, 100) == 0.0
        assert expected_rotation(m, 100) == 1.0


def test_path_unit_modulus_and_length_error():
    m = PhaseNoiseModel("FRO", 2e3, TS)
    p = sample_path(m, 64, 1)
    np.testing.assert_allclose(np.abs(p.psi), 1.0, atol=0)
    with pytest.raises(ValueError):
        sample_path(m, 0, 1)


def test_path_psi_is_evaluated_once_and_read_only():
    p = sample_path(PhaseNoiseModel("FRO", 2e3, TS), 64, 1)
    assert np.array_equal(p.psi, np.exp(1j * p.theta))
    assert p.psi is p.psi
    with pytest.raises(ValueError):
        p.psi[0] = 1.0


def test_variogram_values():
    m = PhaseNoiseModel("FRO", 2e3, TS)
    assert variogram(m, 0) == 0.0
    # direct evaluation: 4*pi*2000*128/7.68e6
    assert variogram(m, 128) == pytest.approx(0.41888, rel=1e-4)
    c = PhaseNoiseModel("CPLL", 2e3, TS, 1e6)
    assert variogram(c, 0) == 0.0
    assert variogram(c, 10**9) == pytest.approx(2 * np.pi * 2e3 / 1e6, rel=1e-9)
    with pytest.raises(ValueError):
        variogram(m, -1)


def test_variogram_monotone_and_bounded():
    lags = np.arange(0, 2000)
    for kind, bound in [("CPLL", 2 * np.pi * 2e3 / 1e6),
                        ("DPLL", 2 * (2 * np.pi * 2e3 / 1e6))]:
        m = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        v = variogram(m, lags)
        assert v[0] == 0.0
        assert np.all(np.diff(v) >= -1e-15)
        assert np.all(v <= bound + 1e-12)
    f = PhaseNoiseModel("FRO", 2e3, TS)
    vf = variogram(f, lags)
    assert np.all(np.diff(vf) > 0)


def test_expected_rotation_basics():
    m = PhaseNoiseModel("FRO", 2e3, TS)
    assert expected_rotation(m, 0) == 1.0
    # FRO rotation factor exp(-2*pi*beta*T_s*delta)
    d = np.array([1, 128, 1280])
    np.testing.assert_allclose(expected_rotation(m, d),
                               np.exp(-2 * np.pi * 2e3 * TS * d), rtol=1e-12)
    lags = np.arange(0, 3000)
    for kind in ("FRO", "CPLL", "DPLL"):
        r = expected_rotation(PhaseNoiseModel(kind, 2e3, TS, 1e6), lags)
        assert np.all(np.diff(r) <= 1e-15)
        assert np.all((r > 0) & (r <= 1))


def test_fro_increment_variance_monte_carlo():
    # Var(theta[n+128] - theta[n]) vs 4*pi*beta*T_s*128 over 1e5 paths
    m = PhaseNoiseModel("FRO", 2e3, TS)
    theta = sample_paths(m, 100_000, 129, 7)
    emp = np.var(theta[:, 128] - theta[:, 0])
    assert emp == pytest.approx(variogram(m, 128), rel=0.02)


def test_dpll_autocovariance_matches_ar1_form():
    # empirical autocovariance vs (b^2 nu2/(1-a^2)) a^(2|n|), lags <= 50
    m = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    theta = sample_paths(m, 30_000, 306, 11)
    k0 = dpll_autocovariance(m, 0)
    assert k0 == pytest.approx(m.b_pll**2 * m.nu2_pn / (1 - m.a_pll**2))
    for lag in (0, 1, 5, 20, 50):
        emp = np.mean(theta[:, :306 - lag] * theta[:, lag:])
        assert abs(emp - dpll_autocovariance(m, lag)) < 0.02 * k0


def test_cpll_is_exact_ou_discretization():
    # increment variance at several lags matches the saturating variogram
    m = PhaseNoiseModel("CPLL", 2e3, TS, 1e6)
    theta = sample_paths(m, 50_000, 200, 13)
    for lag in (1, 10, 100):
        emp = np.var(theta[:, lag] - theta[:, 0])
        assert emp == pytest.approx(variogram(m, lag), rel=0.03)


def test_rotation_monte_carlo_small():
    # sample-mean oracle for E[exp(j dTheta)] at a moderate path count
    for kind in ("FRO", "CPLL", "DPLL"):
        m = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        theta = sample_paths(m, 40_000, 129, 17)
        z = np.exp(1j * (theta[:, 128] - theta[:, 0]))
        se = np.std(z.real) / np.sqrt(z.size)
        assert abs(z.real.mean() - expected_rotation(m, 128)) < 3 * se


def test_dpll_variogram_fro_limit():
    # as F_pll -> 0 the loop stops filtering; the a^(2 delta) decay of the
    # adopted AR(1) autocovariance makes the increment variance approach
    # twice the Wiener-process value
    beta = 2e3
    dp = PhaseNoiseModel("DPLL", beta, TS, 1e-3)
    fro = PhaseNoiseModel("FRO", beta, TS)
    lags = np.arange(1, 1001)
    ratio = variogram(dp, lags) / (2.0 * variogram(fro, lags))
    assert np.all(np.abs(ratio - 1.0) < 0.01)


def test_counter_seeding_reproducible():
    m = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    a = sample_path(m, 100, 42).theta
    b = sample_path(m, 100, 42).theta
    assert np.array_equal(a, b)
    c = sample_path(m, 100, 43).theta
    assert not np.array_equal(a, c)
