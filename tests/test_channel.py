import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

from oracles import effective_dd_channel
from otfspn.channel import (ChannelProfile, ChannelRealization, SPEED_OF_LIGHT,
                            _jakes_factor, apply_channel, doppler_from_velocity,
                            effective_channel, realize_channel)
from otfspn.equalization import banded_circular
from otfspn.grid import GridConfig, ofdm_modulate, otfs_demodulate, otfs_modulate
from otfspn.oscillator import PhaseNoiseModel, sample_path

TS = 1.0 / 7.68e6


def test_profile_validation_and_quantization():
    with pytest.raises(ValueError):
        ChannelProfile((0.0,), (0.5,))       # powers must sum to 1
    p = ChannelProfile.tdl_c(100e-9, f_D=100.0)
    assert sum(p.powers) == pytest.approx(1.0, abs=1e-12)
    delays, powers = p.quantized(TS)
    assert delays[0] == 0
    assert powers.sum() == pytest.approx(1.0, abs=1e-12)
    # TDL-C at 100 ns spread and 7.68 MHz collapses to <= 8 sample taps
    assert delays.max() <= 7
    # coincident taps merge their powers
    p_lin = 10.0 ** (np.array([0.0, 0.0, -3.0]) / 10.0)
    q = ChannelProfile(tuple(np.array([0.0, 10.0, 200.0]) * 1e-9),
                       tuple(p_lin / p_lin.sum()))
    d2, p2 = q.quantized(TS)
    assert len(d2) == 2 and p2[0] > p2[1]


def test_doppler_from_velocity():
    f_D = doppler_from_velocity(500.0, 5.9e9)
    assert f_D == pytest.approx((500 / 3.6) * 5.9e9 / SPEED_OF_LIGHT)
    assert 2700 < f_D < 2760


def test_zero_doppler_taps_constant():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 0.0), cfg, 0)
    assert np.abs(chan.taps - chan.taps[0:1, :]).max() == 0.0


def test_tap_power_normalization():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(1)
    tot = 0.0
    trials = 4000
    for _ in range(trials):
        chan = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
        tot += np.mean(np.sum(np.abs(chan.taps) ** 2, axis=1))
    assert tot / trials == pytest.approx(1.0, rel=0.02)


def test_jakes_autocorrelation():
    # empirical lag autocorrelation of one tap vs J0(2 pi fD Ts lag)
    cfg = GridConfig(M=32, N=8, n_cp=8)
    f_D = 20e3  # fast channel so the Bessel factor actually moves
    prof = ChannelProfile((0.0,), (1.0,), f_D)
    rng = np.random.default_rng(2)
    n = cfg.frame_len
    acc = np.zeros(33, dtype=complex)
    trials = 10_000
    for _ in range(trials):
        chan = realize_channel(prof, cfg, rng)
        x = chan.taps[:, 0]
        for i, lag in enumerate(range(33)):
            acc[i] += np.mean(x[lag:] * np.conj(x[:n - lag]))
    emp = acc / trials
    theory = j0(2 * np.pi * f_D * TS * np.arange(33))
    assert np.abs(emp - theory).max() < 0.03


# (M, N, window): the desk and full grids, each as the M*N OTFS window and as
# the N*(M + n_cp) OFDM stream with n_cp = 16
JAKES_WINDOWS = [(32, 16, 512), (32, 16, 768), (128, 32, 4096), (128, 32, 4608)]


def _f_d_norms(M, N):
    """Per-sample Doppler at 500 km/h and at fig9's top point f_D_norm = 2."""
    cfg = GridConfig(M=M, N=N, n_cp=16)
    return [doppler_from_velocity(500.0, 5.9e9) * cfg.T_s,
            2.0 * cfg.doppler_spacing * cfg.T_s]


@pytest.mark.parametrize("M,N,n", JAKES_WINDOWS)
def test_jakes_factor_reproduces_bessel_covariance(M, N, n):
    lag = np.arange(n)
    for f in _f_d_norms(M, N):
        F = _jakes_factor(n, f)
        assert F.shape[0] == n and F.shape[1] < 40
        assert not F.flags.writeable
        c = j0(2 * np.pi * f * lag)
        for a in range(0, n, 512):      # row blocks: no n x n array here either
            rows = lag[a:a + 512]
            cov = c[np.abs(rows[:, None] - lag[None, :])]
            assert np.abs(F[a:a + 512] @ F.T - cov).max() <= 1e-10


def test_jakes_factor_deterministic():
    f = _f_d_norms(128, 32)[0]
    _jakes_factor.cache_clear()
    first = _jakes_factor(4096, f)
    _jakes_factor.cache_clear()
    assert np.array_equal(_jakes_factor(4096, f), first)


def test_jakes_factor_memory_is_low_rank():
    # a dense n x n covariance at n = 4608 alone takes 170 MB
    f = _f_d_norms(128, 32)[0]
    _jakes_factor.cache_clear()
    tracemalloc.start()
    try:
        _jakes_factor(4608, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_full_grid_tap_power():
    cfg = GridConfig(M=128, N=32, n_cp=16)
    prof = ChannelProfile.tdl_c(100e-9, doppler_from_velocity(500.0, 5.9e9))
    _, powers = prof.quantized(cfg.T_s)
    rng = np.random.default_rng(9)
    # per-trial sd of the total is 0.38, so SE = 0.006 and 0.025 is 4 SE
    per_tap = np.array([np.mean(np.abs(realize_channel(prof, cfg, rng).taps) ** 2,
                                axis=0) for _ in range(4000)])
    assert per_tap.sum(axis=1).mean() == pytest.approx(1.0, abs=0.025)
    np.testing.assert_allclose(per_tap.mean(axis=0), powers, rtol=0.05)


def test_cp_length_guard():
    cfg = GridConfig(M=16, N=8, n_cp=2)
    with pytest.raises(ValueError):
        realize_channel(ChannelProfile.tdl_c(100e-9, 0.0), cfg, 0)


def test_identity_channel_passthrough():
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    chan = ChannelRealization(np.ones((mn, 1), dtype=complex), np.array([0]))
    psi = np.ones(mn + cfg.n_cp, dtype=complex)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    s = otfs_modulate(X, cfg)
    r = apply_channel(s, chan, psi, 0.0, rng)
    np.testing.assert_allclose(r, s[cfg.n_cp:], atol=1e-14)


def test_constant_phase_is_cpe():
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    chan = ChannelRealization(np.ones((mn, 1), dtype=complex), np.array([0]))
    psi = np.exp(1j * np.full(mn + cfg.n_cp, 1.1))
    rng = np.random.default_rng(4)
    X = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    s = otfs_modulate(X, cfg)
    r = apply_channel(s, chan, psi, 0.0, rng)
    Y = otfs_demodulate(r, cfg)
    np.testing.assert_allclose(Y, np.exp(1.1j) * X, atol=1e-12)


def test_apply_channel_matches_dense_matrices():
    # r = Phi_DT H_DT s with dense matrices at M=8, N=4
    cfg = GridConfig(M=8, N=4, n_cp=8)
    mn = cfg.frame_len
    rng = np.random.default_rng(5)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    psi = sample_path(model, mn + cfg.n_cp, rng)
    X = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    s = otfs_modulate(X, cfg)
    r = apply_channel(s, chan, psi, 0.0, rng)
    H = banded_circular(chan.dense_taps()).toarray()
    Phi = np.diag(psi[cfg.n_cp:])
    ref = Phi @ H @ s[cfg.n_cp:]
    assert np.abs(r - ref).max() < 1e-10
    # receiver-side model: phase multiplies after the channel, not before
    swapped = H @ Phi @ s[cfg.n_cp:]
    assert np.abs(r - swapped).max() > 1e-3


def _noise(rng, n, noise_var):
    return np.sqrt(noise_var / 2.0) * (rng.standard_normal(n)
                                       + 1j * rng.standard_normal(n))


def _linear_stream_oracle(tx, chan, psi, noise_var, rng):
    """Linear LTV convolution of a whole stream, lag by lag."""
    n = tx.size
    acc = np.zeros(n, dtype=complex)
    for col, l in enumerate(chan.tap_delays):
        if l == 0:
            acc += chan.taps[:, col] * tx
        else:
            acc[l:] += chan.taps[l:, col] * tx[:-l]
    return psi[:n] * acc + _noise(rng, n, noise_var)


def _circular_block_oracle(s, chan, psi, noise_var, rng, cfg):
    """CP removal, then circular LTV convolution of the M*N block."""
    mn = cfg.frame_len
    s = s[cfg.n_cp:]
    acc = np.zeros(mn, dtype=complex)
    for col, l in enumerate(chan.tap_delays):
        acc += chan.taps[:, col] * np.roll(s, l)
    return psi[-mn:] * acc + _noise(rng, mn, noise_var)


def test_apply_channel_linear_on_ofdm_stream():
    # offset 0: the whole stream is the window, samples before it are zero
    cfg = GridConfig(M=16, N=4, n_cp=8)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    tx = ofdm_modulate(X, cfg)
    taps = rng.standard_normal((tx.size, 8)) + 1j * rng.standard_normal((tx.size, 8))
    taps[:, 5] = 0.0
    chan = ChannelRealization(taps, np.arange(8))
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), tx.size, rng)
    got = apply_channel(tx, chan, psi, 0.01, np.random.default_rng(1))
    ref = _linear_stream_oracle(tx, chan, psi, 0.01, np.random.default_rng(1))
    assert np.array_equal(got, ref)


def test_apply_channel_circular_on_cp_prefixed_block():
    # offset n_cp >= L - 1: the CP turns the window into a circular convolution
    cfg = GridConfig(M=16, N=4, n_cp=8)
    rng = np.random.default_rng(10)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), cfg.frame_len + cfg.n_cp, rng)
    X = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    s = otfs_modulate(X, cfg)
    got = apply_channel(s, chan, psi, 0.01, np.random.default_rng(2))
    ref = _circular_block_oracle(s, chan, psi, 0.01, np.random.default_rng(2), cfg)
    assert chan.L == 8
    assert np.array_equal(got, ref)
    with pytest.raises(ValueError):
        apply_channel(s[:cfg.frame_len - 1], chan, psi, 0.0, rng)


def test_banded_circular_builders_match_lag_loop():
    cfg = GridConfig(M=16, N=4, n_cp=8)
    mn = cfg.frame_len
    rng = np.random.default_rng(8)
    taps = rng.standard_normal((mn, 8)) + 1j * rng.standard_normal((mn, 8))
    taps[:, 5] = 0.0
    loop = np.zeros((mn, mn), dtype=complex)
    rows = np.arange(mn)
    for l in range(taps.shape[1]):
        loop[rows, (rows - l) % mn] += taps[:, l]
    assert np.array_equal(banded_circular(taps).toarray(), loop)


def test_effective_dd_channel_identity():
    cfg = GridConfig(M=8, N=4, n_cp=4)
    mn = cfg.frame_len
    chan = ChannelRealization(np.ones((mn, 1), dtype=complex), np.array([0]))
    psi = np.ones(mn + cfg.n_cp, dtype=complex)
    G = effective_dd_channel(chan, psi, cfg)
    np.testing.assert_allclose(G, np.eye(mn), atol=1e-12)


def test_effective_dd_channel_matches_pipeline():
    cfg = GridConfig(M=8, N=4, n_cp=8)
    mn = cfg.frame_len
    rng = np.random.default_rng(6)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), mn + cfg.n_cp, rng)
    G = effective_dd_channel(chan, psi, cfg)
    X = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    s = otfs_modulate(X, cfg)
    r = apply_channel(s, chan, psi, 0.0, rng)
    y = otfs_demodulate(r, cfg).reshape(-1, order="F")
    assert np.abs(y - G @ X.reshape(-1, order="F")).max() < 1e-10


def test_effective_dd_channel_energy():
    cfg = GridConfig(M=8, N=4, n_cp=8)
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(4000):
        chan = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
        psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), 40, rng)
        G = effective_dd_channel(chan, psi, cfg)
        vals.append(np.linalg.norm(G, "fro") ** 2 / cfg.frame_len)
    assert np.mean(vals) == pytest.approx(1.0, rel=0.05)


def test_effective_channel_alignment():
    cfg = GridConfig(M=8, N=4, n_cp=8)
    mn = cfg.frame_len
    rng = np.random.default_rng(8)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 0.0), cfg, rng)
    psi = sample_path(PhaseNoiseModel("FRO", 5e3, TS), mn + cfg.n_cp, rng)
    g = effective_channel(chan, psi)
    np.testing.assert_allclose(
        g, psi[cfg.n_cp:, None] * chan.dense_taps(), atol=1e-14)
