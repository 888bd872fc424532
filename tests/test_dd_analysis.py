import tracemalloc

import numpy as np
import pytest

from oracles import as_dense, dd_apply, dd_transform, k_phi
from otfspn.dd_analysis import (_fro_alpha, _fro_closed_form, _rotation_diag,
                                dd_coefficients, measured_sinr, sinr_ofdm, sinr_otfs)
from otfspn.grid import GridConfig, otfs_demodulate, otfs_modulate
from otfspn.oscillator import PhaseNoiseModel, path_blocks

TS = 1.0 / 7.68e6


def _dense_reference(psi, M, N):
    F = np.fft.fft(np.eye(N)) / np.sqrt(N)
    A = np.kron(F, np.eye(M))
    return A @ np.diag(psi) @ A.conj().T


def test_constant_phase_gives_cpe_only():
    cfg = GridConfig(M=8, N=8, n_cp=0)
    theta0 = 0.7
    phi = dd_coefficients(np.exp(1j * np.full(64, theta0)), cfg)
    np.testing.assert_allclose(phi[:, 0], np.exp(1j * theta0), atol=1e-12)
    assert np.abs(phi[:, 1:]).max() < 1e-12
    x = np.arange(64) + 0.0j
    np.testing.assert_allclose(dd_apply(phi, x), np.exp(1j * theta0) * x, atol=1e-10)


def test_operator_matches_dense_triple_product():
    rng = np.random.default_rng(0)
    cfg = GridConfig(M=8, N=8, n_cp=0)
    theta = rng.standard_normal(64).cumsum() * 0.1
    phi = dd_coefficients(np.exp(1j * theta), cfg)
    dense = _dense_reference(np.exp(1j * theta), 8, 8)
    assert np.abs(as_dense(phi) - dense).max() < 1e-10
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.abs(dd_apply(phi, x) - dense @ x).max() < 1e-10


def test_operator_equals_mod_demod_pipeline():
    rng = np.random.default_rng(1)
    for M, N in [(8, 8), (16, 16)]:
        cfg = GridConfig(M=M, N=N, n_cp=0)
        theta = rng.standard_normal(M * N).cumsum() * 0.05
        psi = np.exp(1j * theta)
        phi = dd_coefficients(psi, cfg)
        x = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        s = otfs_modulate(x.reshape(M, N, order="F"), cfg, with_cp=False)
        y = otfs_demodulate(psi * s, cfg).reshape(-1, order="F")
        assert np.abs(dd_apply(phi, x) - y).max() < 1e-10


def test_parseval_per_delay_bin():
    rng = np.random.default_rng(2)
    cfg = GridConfig(M=8, N=8, n_cp=0)
    phi = dd_coefficients(np.exp(1j * rng.standard_normal(64).cumsum()), cfg)
    np.testing.assert_allclose((np.abs(phi) ** 2).sum(axis=1), 1.0, atol=1e-9)


def test_idi_row_decomposition():
    # y_n[m] = phi_0[m] x_n[m] + sum_i phi_i[m] x_{(n-i) mod N}[m], exactly
    rng = np.random.default_rng(3)
    cfg = GridConfig(M=8, N=8, n_cp=0)
    theta = rng.standard_normal(64).cumsum() * 0.2
    psi = np.exp(1j * theta)
    phi = dd_coefficients(psi, cfg)
    X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = otfs_modulate(X, cfg, with_cp=False)
    Y = otfs_demodulate(psi * s, cfg)
    for m in range(8):
        for n in range(8):
            val = sum(phi[m, i] * X[m, (n - i) % 8] for i in range(8))
            assert abs(val - Y[m, n]) < 1e-12


@pytest.mark.parametrize("M, N", [(32, 16), (128, 32)])
def test_batch_coefficients_equal_per_path_calls(M, N):
    # paths that carry a CP prefix: a batch drops it from every path, as a
    # call per path does, and gives the same bits
    cfg = GridConfig(M=M, N=N, n_cp=16)
    rng = np.random.default_rng(4)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    psi = np.exp(1j * next(path_blocks(model, 3, cfg.n_cp + cfg.frame_len, rng, 3)))
    batch = dd_coefficients(psi, cfg)
    assert batch.shape == (3, M, N)
    for path, phi in zip(psi, batch):
        assert np.array_equal(dd_coefficients(path, cfg), phi)


def test_short_path_rejected():
    cfg = GridConfig(M=8, N=8, n_cp=0)
    with pytest.raises(ValueError):
        dd_coefficients(np.ones(63, dtype=complex), cfg)
    with pytest.raises(ValueError):
        dd_coefficients(np.ones((3, 63), dtype=complex), cfg)


def test_k_phi_no_phase_noise():
    cfg = GridConfig(M=16, N=8, n_cp=0)
    K = k_phi(PhaseNoiseModel("FRO", 0.0, TS), cfg)
    expect = np.zeros((8, 8))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(K, expect, atol=1e-12)


def test_k_phi_structure():
    cfg = GridConfig(M=128, N=32, n_cp=0)
    for kind in ("FRO", "CPLL", "DPLL"):
        model = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        K = k_phi(model, cfg)
        assert np.abs(K - K.conj().T).max() < 1e-12
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-10
        assert np.trace(K).real == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(K.diagonal().real,
                                   _rotation_diag(model, cfg.N, cfg.M), atol=1e-12)


@pytest.mark.slow
def test_k_phi_diag_monte_carlo():
    # empirical E|phi_p|^2 over 1e5 paths, FRO beta=100 Hz, 128x32 grid
    cfg = GridConfig(M=128, N=32, n_cp=0)
    model = PhaseNoiseModel("FRO", 100.0, TS)
    rng = np.random.default_rng(5)
    acc = np.zeros(32)
    trials = 100_000
    chunk = 4000
    for start in range(0, trials, chunk):
        theta = next(path_blocks(model, chunk, cfg.frame_len, rng, chunk))
        grid = np.exp(1j * theta).reshape(chunk, 32, 128).transpose(0, 2, 1)
        acc += (np.abs(np.fft.fft(grid, axis=2) / 32) ** 2).mean(axis=1).sum(axis=0)
    emp = acc / trials
    diag = _rotation_diag(model, cfg.N, cfg.M)
    np.testing.assert_allclose(emp, diag, rtol=0.02)


def test_closed_form_limits():
    cfg = GridConfig(M=128, N=32, n_cp=0)
    zero = PhaseNoiseModel("FRO", 0.0, TS)
    assert _fro_closed_form(_fro_alpha(zero, cfg.M), cfg.N, 0) == 1.0
    assert _fro_closed_form(_fro_alpha(zero, cfg.M), cfg.N, 5) == 0.0
    # alpha -> 0: energy spread uniformly, K[p,p] -> 1/N
    hot = PhaseNoiseModel("FRO", 1e6, TS)
    for p in (0, 1, 17):
        assert (_fro_closed_form(_fro_alpha(hot, cfg.M), cfg.N, p)
                == pytest.approx(1 / 32, rel=1e-6))


def test_closed_form_vs_double_sum():
    cfg = GridConfig(M=128, N=32, n_cp=0)
    model = PhaseNoiseModel("FRO", 100.0, TS)
    alpha = np.exp(-2 * np.pi * 100.0 * TS * 128)
    k, l = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    for p in (0, 1, 7, 31):
        brute = np.real(np.sum(alpha ** np.abs(k - l)
                               * np.exp(-2j * np.pi * p * (k - l) / 32))) / 32**2
        assert (_fro_closed_form(_fro_alpha(model, cfg.M), cfg.N, p)
                == pytest.approx(brute, rel=1e-10))


def test_sinr_no_phase_noise_is_snr():
    cfg = GridConfig(M=128, N=32, n_cp=0)
    model = PhaseNoiseModel("FRO", 0.0, TS)
    assert sinr_otfs(model, cfg, 0.01).sinr_db == pytest.approx(20.0, abs=1e-9)
    assert sinr_ofdm(model, cfg, 0.01).sinr_db == pytest.approx(20.0, abs=1e-9)


def test_sinr_report_consistency():
    cfg = GridConfig(M=64, N=16, n_cp=0)
    model = PhaseNoiseModel("FRO", 500.0, TS)
    rep = sinr_otfs(model, cfg, 0.01)
    assert rep.signal_power + rep.idi_power <= 1 + 1e-9
    assert 0 <= rep.idi_power < 1
    assert 0 < rep.signal_power <= 1
    assert rep.sinr == pytest.approx(rep.signal_power / (rep.idi_power + 0.01))


def test_full_grid_degradation_signatures():
    # beta 0 -> 100 Hz on the reference grid: OTFS loses > 10 dB, OFDM ~ 1 dB
    cfg = GridConfig(M=128, N=32, n_cp=0)
    noisy = PhaseNoiseModel("FRO", 100.0, TS)
    d_otfs = 20.0 - sinr_otfs(noisy, cfg, 0.01).sinr_db
    d_ofdm = 20.0 - sinr_ofdm(noisy, cfg, 0.01).sinr_db
    assert d_otfs > 10.0
    assert 0.5 < d_ofdm < 1.5


def test_ofdm_never_below_otfs():
    cfg = GridConfig(M=64, N=16, n_cp=0)
    for beta in (10.0, 100.0, 1e3, 1e4):
        model = PhaseNoiseModel("FRO", beta, TS)
        assert (sinr_ofdm(model, cfg, 0.01).sinr
                >= sinr_otfs(model, cfg, 0.01).sinr)


def test_measured_sinr_matches_analytic():
    # Monte Carlo split per the operator rows, within 0.3 dB at 1e4 trials
    cfg = GridConfig(M=32, N=16, n_cp=0)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    meas = measured_sinr(model, cfg, 0.01, 10_000, 9)
    assert abs(meas["otfs"].sinr_db - sinr_otfs(model, cfg, 0.01).sinr_db) < 0.3
    assert abs(meas["ofdm"].sinr_db - sinr_ofdm(model, cfg, 0.01).sinr_db) < 0.3


def _per_waveform_measured_sinr(model, cfg, trials, seed, waveform):
    """The earlier measured_sinr, one waveform per call: 512-path chunks from
    one generator, each drawn whole, psi = exp(1j*theta), signal and IDI
    split of that waveform."""
    rng = np.random.default_rng(seed)
    sig = idi = 0.0
    done = 0
    while done < trials:
        n = min(512, trials - done)
        psi = np.exp(1j * next(path_blocks(model, n, cfg.frame_len, rng, n)))
        grid = psi.reshape(n, cfg.N, cfg.M).transpose(0, 2, 1)
        if waveform == "otfs":
            p2 = np.abs(np.fft.fft(grid, axis=2) / cfg.N) ** 2
            sig += p2[:, :, 0].mean(axis=1).sum()
            idi += p2[:, :, 1:].sum(axis=2).mean(axis=1).sum()
        else:
            p2 = np.abs(np.fft.fft(grid, axis=1) / cfg.M) ** 2
            sig += p2[:, 0, :].mean(axis=1).sum()
            idi += p2[:, 1:, :].sum(axis=1).mean(axis=1).sum()
        done += n
    return sig / trials, idi / trials


@pytest.mark.parametrize("M, N, trials", [(8, 4, 1100), (128, 32, 521)])
@pytest.mark.parametrize("kind", ["FRO", "CPLL", "DPLL"])
def test_measured_sinr_equals_per_waveform_reference(kind, M, N, trials):
    # 1100 paths = three chunks, the last of 76 paths in blocks of 8 and 4;
    # 521 = a chunk and 9 paths, the last block one path.  One shared draw,
    # scored block by block, must give each waveform exactly what a whole
    # draw of its own per chunk from the same seed gave
    cfg = GridConfig(M=M, N=N, n_cp=0)
    model = PhaseNoiseModel(kind, 2e4, TS)
    got = measured_sinr(model, cfg, 0.01, trials, 21)
    assert sorted(got) == ["ofdm", "otfs"]
    for wave, rep in got.items():
        ref = _per_waveform_measured_sinr(model, cfg, trials, 21, wave)
        assert (rep.signal_power, rep.idi_power) == ref
        assert rep.noise_power == 0.01


def test_measured_sinr_memory_does_not_grow_with_trials():
    # full-grid paths are drawn, transformed and scored a block at a time,
    # so a call's peak stays near one block's working set (78 MB at 500
    # paths when a whole chunk was held at once)
    cfg = GridConfig(M=128, N=32, n_cp=0)
    model = PhaseNoiseModel("FRO", 300.0, TS)
    measured_sinr(model, cfg, 0.01, 1, 0)      # first-call set-up
    peaks = {}
    for trials in (50, 500):
        tracemalloc.start()
        try:
            measured_sinr(model, cfg, 0.01, trials, 0)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[500] <= 8 * 2**20, peaks
    assert abs(peaks[500] - peaks[50]) < 2**20, peaks


def test_dd_transform_unitary():
    rng = np.random.default_rng(11)
    cfg = GridConfig(M=4, N=4, n_cp=0)
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    F = np.fft.fft(np.eye(4)) / 2.0
    T = np.kron(F, np.eye(4))
    np.testing.assert_allclose(dd_transform(A, cfg), T @ A @ T.conj().T,
                               atol=1e-12)
