import numpy as np
import pytest

from otfspn.channel import ChannelProfile, apply_channel, \
    effective_channel, realize_channel
from otfspn.estimation import (PilotLayout, PtrpLayout, _ce_basis,
                               bem_estimate, bem_order,
                               build_pilot_frame, build_wiener,
                               effective_autocorr, extract_data, n_data,
                               ofdm_cpe_estimate, spline_estimate,
                               stage1_estimate, stage1_hold_estimate,
                               stage2_estimate)
from otfspn.equalization import nmse
from otfspn.grid import (GridConfig, QamConfig, ofdm_demodulate,
                         ofdm_modulate, otfs_modulate, qam_map)
from otfspn.oscillator import PhaseNoiseModel, sample_path

TS = 1.0 / 7.68e6
CFG = GridConfig(M=32, N=16, n_cp=16)


def _random_data(layout, cfg, rng, qam=QamConfig(4)):
    bits = rng.integers(0, 2, qam.bits_per_symbol * n_data(layout, cfg))
    return qam_map(bits, qam)


def test_layout_geometry():
    layout = PilotLayout(L=8).resolved(CFG)
    assert layout.m_p == 7
    idx = layout.pilot_indices(CFG)
    assert np.all(np.diff(idx) == CFG.M)
    assert layout.guard_rows(CFG).size == 2 * 8 - 1
    assert n_data(layout, CFG) == (32 - 15) * 16
    with pytest.raises(ValueError):
        PilotLayout(L=17).resolved(CFG)  # 2L-1 > M


def test_single_tap_layout_is_guard_free():
    layout = PilotLayout(L=1).resolved(CFG)
    assert layout.guard_rows(CFG).size == 1
    assert n_data(layout, CFG) == (32 - 1) * 16


def test_pilot_frame_structure():
    rng = np.random.default_rng(0)
    layout = PilotLayout(L=4).resolved(CFG)
    data = _random_data(layout, CFG, rng)
    frame = build_pilot_frame(layout, data, CFG)
    # pilot cell and silent guards
    assert frame[layout.m_p, 0] == pytest.approx(np.sqrt(layout.sigma2_p))
    guards = layout.guard_rows(CFG)
    masked = frame.copy()
    masked[layout.m_p, 0] = 0.0
    assert np.abs(masked[guards, :]).max() == 0.0
    # data cells are carried through untouched, in fill order
    assert np.array_equal(extract_data(frame, layout, CFG), data)


def test_pilot_delay_time_impulse_train():
    layout = PilotLayout(L=4).resolved(CFG)
    frame = build_pilot_frame(layout, np.zeros(n_data(layout, CFG)), CFG)
    s = otfs_modulate(frame, CFG, with_cp=False)
    train = s[layout.pilot_indices(CFG)]
    np.testing.assert_allclose(np.abs(train),
                               np.sqrt(layout.sigma2_p / CFG.N), atol=1e-12)
    off = np.delete(s, layout.pilot_indices(CFG))
    assert np.abs(off).max() < 1e-12


def test_stage1_identity_channel():
    layout = PilotLayout(L=1).resolved(CFG)
    mn = CFG.frame_len
    rng = np.random.default_rng(1)
    data = _random_data(layout, CFG, rng)
    frame = build_pilot_frame(layout, data, CFG)
    s = otfs_modulate(frame, CFG)
    taps = np.ones((mn, 1), dtype=complex)
    psi = np.ones(mn + CFG.n_cp, dtype=complex)
    r = apply_channel(s, taps, psi, 0.0, rng)
    g_hat = stage1_estimate(r, layout, CFG, 0.0)
    np.testing.assert_allclose(g_hat[0], np.ones(CFG.N), atol=1e-10)


def test_stage1_exact_recovery_with_guards():
    # with guards >= L-1 the pilot observations carry zero data leakage
    rng = np.random.default_rng(2)
    prof = ChannelProfile.tdl_c(100e-9, 1e3)
    taps = realize_channel(prof, CFG, rng)
    layout = PilotLayout(L=taps.shape[1]).resolved(CFG)
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), CFG.frame_len + CFG.n_cp, rng)
    data = _random_data(layout, CFG, rng)
    frame = build_pilot_frame(layout, data, CFG)
    r = apply_channel(otfs_modulate(frame, CFG), taps, psi, 0.0, rng)
    g_hat = stage1_estimate(r, layout, CFG, 0.0)
    g = effective_channel(taps, psi)
    k = np.arange(CFG.N)
    for l in range(layout.L):
        truth = g[layout.m_p + l + k * CFG.M, l]
        np.testing.assert_allclose(g_hat[l], truth, atol=1e-10)


@pytest.mark.parametrize("L", [1, 8])
def test_stage1_matches_per_tap_loop_bitwise(L):
    """Stage 1 gathers all taps in one product; the per-tap loop it replaced
    is the reference, bit for bit."""
    layout = PilotLayout(L=L).resolved(CFG)
    rng = np.random.default_rng(7)
    r = rng.standard_normal(CFG.frame_len) + 1j * rng.standard_normal(CFG.frame_len)
    k = np.arange(CFG.N)
    scale = np.sqrt(CFG.N / layout.sigma2_p)
    ref = np.empty((L, CFG.N), dtype=complex)
    for l in range(L):
        ref[l] = r[(layout.m_p + l + k * CFG.M) % CFG.frame_len] * scale
    assert stage1_estimate(r, layout, CFG, 0.0).tobytes() == ref.tobytes()


def test_stage1_noise_variance():
    # estimate MSE tracks N*noise_var/sigma2_p within 10%
    rng = np.random.default_rng(4)
    layout = PilotLayout(L=1).resolved(CFG)
    mn = CFG.frame_len
    noise_var = 0.01
    taps = np.ones((mn, 1), dtype=complex)
    psi = np.ones(mn + CFG.n_cp, dtype=complex)
    data = np.zeros(n_data(layout, CFG))
    tx = otfs_modulate(build_pilot_frame(layout, data, CFG), CFG)
    errs = []
    for _ in range(300):
        r = apply_channel(tx, taps, psi, noise_var, rng)
        g_hat = stage1_estimate(r, layout, CFG, noise_var)
        errs.append(np.mean(np.abs(g_hat[0] - 1.0) ** 2))
    expect = noise_var * CFG.N / layout.sigma2_p
    assert np.mean(errs) == pytest.approx(expect, rel=0.10)


def test_stage1_threshold_zeroes_empty_taps():
    rng = np.random.default_rng(5)
    prof = ChannelProfile((0.0, 3 * TS), (0.6, 0.4), 0.0)
    taps = realize_channel(prof, CFG, rng)
    layout = PilotLayout(L=4).resolved(CFG)
    psi = np.ones(CFG.frame_len + CFG.n_cp, dtype=complex)
    data = _random_data(layout, CFG, rng)
    r = apply_channel(otfs_modulate(build_pilot_frame(layout, data, CFG), CFG),
                      taps, psi, 1e-4, rng)
    g_hat = stage1_estimate(r, layout, CFG, 1e-4)
    assert list(g_hat.any(axis=1)) == [True, False, False, True]


def test_wiener_static_limit_is_mean():
    # beta=0, f_D=0, vanishing noise: the filter averages the snapshots
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("FRO", 0.0, TS)
    w = build_wiener(model, 0.0, 0.0, CFG, layout)
    rng = np.random.default_rng(6)
    ghat = rng.standard_normal(CFG.N) + 1j * rng.standard_normal(CFG.N)
    out = w.W @ ghat
    np.testing.assert_allclose(out, np.mean(ghat), rtol=1e-5)


def test_wiener_all_noise_limit():
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    w = build_wiener(model, 0.0, 1e9, CFG, layout)
    assert np.abs(w.W).max() < 1e-6


def test_wiener_pilot_rows_interpolate():
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    w = build_wiener(model, 0.0, 1e-9, CFG, layout)
    rows = w.W[layout.pilot_indices(CFG), :]
    np.testing.assert_allclose(rows, np.eye(CFG.N), atol=1e-3)


def test_wiener_is_data_independent():
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    w1 = build_wiener(model, 1e3, 1e-5, CFG, layout)
    w2 = build_wiener(model, 1e3, 1e-5, CFG, layout)
    assert np.array_equal(w1.W, w2.W)


def test_wiener_matches_gaussian_mmse():
    # draws from the exact covariance: empirical MSE == theoretical MMSE
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    noise_ratio = 1e-4
    w = build_wiener(model, 0.0, noise_ratio, CFG, layout)
    mn = CFG.frame_len
    k = effective_autocorr(model, 0.0, TS,
                           np.abs(np.subtract.outer(np.arange(mn), np.arange(mn))))
    ww, vv = np.linalg.eigh(k)
    fac = vv[:, ww > 1e-12] * np.sqrt(np.maximum(ww[ww > 1e-12], 0))
    rng = np.random.default_rng(7)
    n_draws = 4000
    z = (rng.standard_normal((fac.shape[1], n_draws))
         + 1j * rng.standard_normal((fac.shape[1], n_draws))) / np.sqrt(2)
    g = fac @ z
    pilots = layout.pilot_indices(CFG)
    obs = g[pilots, :] + np.sqrt(noise_ratio / 2) * (
        rng.standard_normal((CFG.N, n_draws))
        + 1j * rng.standard_normal((CFG.N, n_draws)))
    err = w.W @ obs - g
    emp = np.mean(np.abs(err) ** 2)
    theory = np.mean(w.mse_per_sample)
    assert emp == pytest.approx(theory, rel=0.05)


def test_stage2_shapes_and_static_columns():
    layout = PilotLayout(L=3).resolved(CFG)
    model = PhaseNoiseModel("FRO", 0.0, TS)
    w = build_wiener(model, 0.0, 1e-6, CFG, layout)
    g_hat = np.ones((3, CFG.N), dtype=complex) * [[1], [2], [3]]
    full = stage2_estimate(g_hat, w)
    assert full.shape == (CFG.frame_len, 3)
    # beta=0, f_D=0: constant down each column
    for l in range(3):
        np.testing.assert_allclose(full[:, l], l + 1.0, rtol=1e-5)


def test_stage2_beats_hold_under_phase_noise():
    rng = np.random.default_rng(8)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    prof = ChannelProfile.tdl_c(100e-9, 0.0)
    noise_var = 0.01  # SNR 20 dB
    taps0 = realize_channel(prof, CFG, rng)
    layout = PilotLayout(L=taps0.shape[1]).resolved(CFG)
    w = build_wiener(model, 0.0, noise_var * CFG.N / layout.sigma2_p, CFG, layout)
    n2, nh = [], []
    for _ in range(150):
        taps = realize_channel(prof, CFG, rng)
        psi = sample_path(model, CFG.frame_len + CFG.n_cp, rng)
        data = _random_data(layout, CFG, rng)
        r = apply_channel(otfs_modulate(build_pilot_frame(layout, data, CFG), CFG),
                          taps, psi, noise_var, rng)
        g_hat = stage1_estimate(r, layout, CFG, noise_var)
        g = effective_channel(taps, psi)
        n2.append(nmse(stage2_estimate(g_hat, w), g))
        nh.append(nmse(stage1_hold_estimate(g_hat, CFG), g))
    assert np.mean(n2) < np.mean(nh)


def test_bem_order_formulas():
    assert bem_order(CFG, 0.0) == 1
    mn_t = CFG.frame_len * CFG.T_s
    f_D = 2733.0
    assert bem_order(CFG, f_D) == int(np.ceil(2 * mn_t * f_D + 1))
    q = bem_order(CFG, 0.0, beta_pn=2e3, include_pn_bandwidth=True)
    assert q == int(np.ceil(2 * mn_t * 2e3)) + 1


def test_bem_constant_fit_is_mean():
    layout = PilotLayout(L=1).resolved(CFG)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(CFG.N) + 1j * rng.standard_normal(CFG.N)
    full = bem_estimate(vals[None, :], CFG, layout, f_D=0.0)
    np.testing.assert_allclose(full[:, 0], vals.mean(), rtol=1e-9)


def test_bem_reconstructs_spanned_tone():
    # a tone on one of the Q basis frequencies is recovered exactly
    layout = PilotLayout(L=1).resolved(CFG)
    mn = CFG.frame_len
    k_over = 2.0
    f_D = 2.0 * CFG.doppler_spacing
    q = bem_order(CFG, f_D, k_over=k_over)
    assert q >= 3
    f_tone = ((q - 1) - (q - 1) / 2.0) / (k_over * mn)   # edge basis tone
    tone = np.exp(2j * np.pi * f_tone * np.arange(mn))
    full = bem_estimate(tone[layout.pilot_indices(CFG)][None, :], CFG, layout,
                        f_D=f_D, k_over=k_over)
    assert np.abs(full[:, 0] - tone).max() < 1e-6


def test_bem_order_clamped_with_warning():
    layout = PilotLayout(L=1).resolved(CFG)
    with pytest.warns(UserWarning, match="clamp"):
        bem_estimate(np.ones((1, CFG.N), dtype=complex), CFG, layout, f_D=0.0,
                     beta_pn=1e6, include_pn_bandwidth=True)


def test_spline_constant_and_smooth():
    layout = PilotLayout(L=1).resolved(CFG)
    full = spline_estimate(np.full((1, CFG.N), 2.0 - 1.0j), CFG, layout)
    np.testing.assert_allclose(full[:, 0], 2.0 - 1.0j, rtol=1e-12)
    # slow sinusoid: fD*Ts*M << 1
    mn = CFG.frame_len
    f = 0.1 / mn
    wave = np.exp(2j * np.pi * f * np.arange(mn))
    out = spline_estimate(wave[layout.pilot_indices(CFG)][None, :], CFG,
                          layout)[:, 0]
    assert np.abs(out - wave).max() / np.abs(wave).max() < 0.01


@pytest.mark.parametrize("N", [2, 3, 4, 16, 32])
@pytest.mark.parametrize("L", [1, 8])
def test_spline_matches_cubic_spline_bitwise(N, L):
    # the in-house spline against the scipy formula it replaced, sign bits
    # included; m_p = 20 leaves 20 samples before the first pilot and 11
    # after the last, so both extrapolated ends are compared too
    from scipy.interpolate import CubicSpline
    cfg = GridConfig(M=32, N=N, n_cp=16)
    layout = PilotLayout(L=L, m_p=20).resolved(cfg)
    pilots = layout.pilot_indices(cfg)
    grid = np.arange(cfg.frame_len)
    rng = np.random.default_rng(100 * N + L)
    for scale in (1e-8, 1.0, 1e3):
        g_hat = scale * (rng.standard_normal((L, N))
                         + 1j * rng.standard_normal((L, N)))
        g_hat[0, :2] = complex(-0.0, -0.0)
        g_hat[-1, -1] = 0.0
        got = spline_estimate(g_hat, cfg, layout)
        vals = g_hat.T
        want = (CubicSpline(pilots, vals.real, axis=0, bc_type="not-a-knot")(grid)
                + 1j * CubicSpline(pilots, vals.imag, axis=0,
                                   bc_type="not-a-knot")(grid))
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_effective_autocorr_factors():
    model = PhaseNoiseModel("FRO", 2e3, TS)
    lags = np.arange(100)
    from scipy.special import j0 as bessel
    from otfspn.oscillator import expected_rotation
    np.testing.assert_allclose(
        effective_autocorr(model, 1e3, TS, lags),
        expected_rotation(model, lags) * bessel(2 * np.pi * 1e3 * TS * lags))


def test_wiener_statistics_are_toeplitz_psd():
    # K_psi, K_D and their product are symmetric Toeplitz PSD; the ridge
    # solve reproduces the cross-correlation on its numerical range
    from scipy.linalg import toeplitz
    lags = np.arange(CFG.frame_len)
    for kind in ("FRO", "CPLL", "DPLL"):
        model = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        k_seq = effective_autocorr(model, 1e3, TS, lags)
        K = toeplitz(k_seq)
        assert np.abs(K - K.T).max() == 0.0
        assert np.linalg.eigvalsh(K).min() > -1e-8
    layout = PilotLayout(L=1).resolved(CFG)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    ratio = 1e-5
    w = build_wiener(model, 0.0, ratio, CFG, layout)
    pil = layout.pilot_indices(CFG)
    k_pil = effective_autocorr(model, 0.0, TS,
                               np.abs(pil[:, None] - pil[None, :]))
    k_cross = effective_autocorr(model, 0.0, TS,
                                 np.abs(np.arange(CFG.frame_len)[:, None]
                                        - pil[None, :]))
    resid = w.W @ (k_pil + ratio * np.eye(CFG.N)) - k_cross
    assert np.abs(resid).max() < 1e-8


@pytest.mark.parametrize("q", [1, 2, 3, CFG.N])
def test_ce_basis_matches_ofdm_inline_basis_bitwise(q):
    """The shared CE basis at span N is the OFDM interpolator's former
    inline basis, bit for bit."""
    n = CFG.N
    freqs = (np.arange(q) - (q - 1) / 2.0) / n
    inline = np.exp(2j * np.pi * np.arange(n)[:, None] * freqs[None, :])
    basis = _ce_basis(n, q, n)
    assert basis.shape == inline.shape
    assert basis.tobytes() == inline.tobytes()


def test_ptrp_cpe_constant_phase():
    cfg = GridConfig(M=32, N=8, n_cp=8)
    layout = PtrpLayout(spacing=8)
    rng = np.random.default_rng(10)
    data = qam_map(rng.integers(0, 2, 2 * n_data(layout, cfg)), QamConfig(4))
    frame = build_pilot_frame(layout, data, cfg)
    theta0 = 0.6
    rx = np.exp(1j * theta0) * ofdm_modulate(frame, cfg)
    Y = ofdm_demodulate(rx, cfg)
    cpe, H = ofdm_cpe_estimate(Y, layout, cfg)
    # symbol-0 estimate soaks up the common rotation; later symbols add none
    np.testing.assert_allclose(cpe[1:], 0.0, atol=1e-9)
    X_hat = Y / H
    mask = layout.data_mask(cfg)
    np.testing.assert_allclose(X_hat.T[mask.T], data, atol=1e-9)


def test_ofdm_interpolator_order_clamped_with_warning():
    # at desk scale the order passes the N = 16 symbols above f_D = 75 kHz
    with pytest.warns(UserWarning, match="clamp"):
        ofdm_cpe_estimate(np.ones((CFG.M, CFG.N), dtype=complex), PtrpLayout(spacing=8),
                          CFG, f_D=1e5, interpolate=True)


def test_ptrp_cpe_tracks_per_symbol_rotation():
    cfg = GridConfig(M=32, N=8, n_cp=8)
    layout = PtrpLayout(spacing=8)
    rng = np.random.default_rng(11)
    data = qam_map(rng.integers(0, 2, 2 * n_data(layout, cfg)), QamConfig(4))
    frame = build_pilot_frame(layout, data, cfg)
    tx = ofdm_modulate(frame, cfg)
    # piecewise-constant phase per OFDM symbol: a pure CPE channel
    sym_len = cfg.M + cfg.n_cp
    angles = rng.uniform(-0.5, 0.5, cfg.N)
    angles[0] = 0.0
    phase = np.repeat(angles, sym_len)
    rx = np.exp(1j * phase) * tx
    Y = ofdm_demodulate(rx, cfg)
    cpe, H = ofdm_cpe_estimate(Y, layout, cfg)
    np.testing.assert_allclose(cpe, angles, atol=1e-9)
    X_hat = Y / H
    mask = layout.data_mask(cfg)
    np.testing.assert_allclose(X_hat.T[mask.T], data, atol=1e-8)
