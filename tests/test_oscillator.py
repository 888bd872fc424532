import numpy as np
import pytest

from otfspn.oscillator import (PhaseNoiseModel, dpll_autocovariance,
                               expected_rotation, path_blocks, sample_path,
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
        theta = next(path_blocks(m, 1, 256, 0, 1))[0]
        assert np.all(theta == theta[0])
        assert variogram(m, 100) == 0.0
        assert expected_rotation(m, 100) == 1.0


def test_path_unit_modulus_and_length_error():
    m = PhaseNoiseModel("FRO", 2e3, TS)
    np.testing.assert_allclose(np.abs(sample_path(m, 64, 1)), 1.0, atol=0)
    with pytest.raises(ValueError):
        sample_path(m, 0, 1)
    with pytest.raises(ValueError):
        next(path_blocks(m, 4, 64, 1, 0))


def test_path_is_exp_of_one_block_bitwise():
    for kind in ("FRO", "CPLL", "DPLL"):
        m = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        for make_seed in (lambda: 1, lambda: np.random.default_rng(1)):
            want = np.exp(1j * next(path_blocks(m, 1, 64, make_seed(), 1))[0])
            assert sample_path(m, 64, make_seed()).tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [1, 64])
@pytest.mark.parametrize("beta", [0.0, 2e3])
@pytest.mark.parametrize("kind", ["FRO", "CPLL", "DPLL"])
def test_blocks_stacked_equal_one_block(kind, beta, length):
    # 7 paths in blocks of 3, 3 and 1 give the bits of one 7-path block and
    # leave the generator at the same point of its stream
    m = PhaseNoiseModel(kind, beta, TS, 1e6)
    whole_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
    whole = next(path_blocks(m, 7, length, whole_rng, 7))
    blocks = list(path_blocks(m, 7, length, rng, 3))
    assert [b.shape for b in blocks] == [(3, length), (3, length), (1, length)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert rng.random() == whole_rng.random()


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
    theta = next(path_blocks(m, 100_000, 129, 7, 100_000))
    emp = np.var(theta[:, 128] - theta[:, 0])
    assert emp == pytest.approx(variogram(m, 128), rel=0.02)


def test_dpll_autocovariance_matches_ar1_form():
    # empirical autocovariance vs (b^2 nu2/(1-a^2)) a^(2|n|), lags <= 50
    m = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    theta = next(path_blocks(m, 30_000, 306, 11, 30_000))
    k0 = dpll_autocovariance(m, 0)
    assert k0 == pytest.approx(m.b_pll**2 * m.nu2_pn / (1 - m.a_pll**2))
    for lag in (0, 1, 5, 20, 50):
        emp = np.mean(theta[:, :306 - lag] * theta[:, lag:])
        assert abs(emp - dpll_autocovariance(m, lag)) < 0.02 * k0


def test_cpll_is_exact_ou_discretization():
    # increment variance at several lags matches the saturating variogram
    m = PhaseNoiseModel("CPLL", 2e3, TS, 1e6)
    theta = next(path_blocks(m, 50_000, 200, 13, 50_000))
    for lag in (1, 10, 100):
        emp = np.var(theta[:, lag] - theta[:, 0])
        assert emp == pytest.approx(variogram(m, lag), rel=0.03)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: CPLL's 1 - exp(-delta*F*T_s) "
                   "and its AR pole cancel to zero phase noise when F*T_s is tiny")
def test_cpll_keeps_its_phase_noise_at_a_tiny_loop_coefficient():
    """At f_pll = 1e-12 the loop barely acts, so CPLL's variogram at lag 63
    is the stable form (2*pi*beta/F)*(-expm1(-delta*F*T_s)) = 0.1031, and a
    path is not constant.  Today both cancel: the variogram reads 0.0 and
    every sample equals the first."""
    m = PhaseNoiseModel("CPLL", 2e3, TS, 1e-12)
    stable = (2 * np.pi * 2e3 / 1e-12) * -np.expm1(-63 * 1e-12 * TS)
    assert stable == pytest.approx(0.1031, abs=1e-4)
    assert variogram(m, 63) == pytest.approx(stable, rel=1e-6)
    psi = sample_path(m, 256, 0)
    assert not np.all(psi == psi[0])


def test_rotation_monte_carlo_small():
    # sample-mean oracle for E[exp(j dTheta)] at a moderate path count
    for kind in ("FRO", "CPLL", "DPLL"):
        m = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        theta = next(path_blocks(m, 40_000, 129, 17, 40_000))
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
    a = next(path_blocks(m, 1, 100, 42, 1))
    b = next(path_blocks(m, 1, 100, 42, 1))
    assert np.array_equal(a, b)
    c = next(path_blocks(m, 1, 100, 43, 1))
    assert not np.array_equal(a, c)
