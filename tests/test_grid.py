from dataclasses import fields

import numpy as np
import pytest

from otfspn.channel import _jakes_factor, doppler_from_velocity
from otfspn.estimation import PilotLayout, _ce_basis
from otfspn.grid import (QAM_ORDERS, GridConfig, QamConfig, _serial_matmul,
                         constellation, ofdm_demodulate, ofdm_modulate,
                         otfs_demodulate, otfs_modulate, qam_demap, qam_map)
from otfspn.harness import Scenario


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(M=1, N=8, n_cp=4)
    with pytest.raises(ValueError):
        GridConfig(M=8, N=8, n_cp=-1)
    cfg = GridConfig(M=128, N=32, n_cp=16)
    assert cfg.T_s * cfg.bandwidth == pytest.approx(1.0)
    assert cfg.doppler_spacing == pytest.approx(1.0 / (128 * 32 * cfg.T_s))


def test_qam_config_accepts_only_the_table_orders():
    """QamConfig checks its order itself, not only through Scenario, and
    Scenario's qam_order choices are the same table."""
    for order in (2, 6, 8, 64):
        with pytest.raises(ValueError, match="unsupported QAM order"):
            QamConfig(order)
    assert QAM_ORDERS == (4, 16)
    for order in QAM_ORDERS:
        QamConfig(order)
    row = next(f for f in fields(Scenario) if f.name == "qam_order").metadata
    assert row["choices"] == QAM_ORDERS


def test_qam_canonical_corner():
    sym = qam_map([0, 0], QamConfig(4))
    assert sym[0] == pytest.approx((1 + 1j) / np.sqrt(2))


def test_qam_unit_average_power():
    for order in (4, 16):
        pts = constellation(QamConfig(order))
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)


def test_qam_roundtrip_10k_bits():
    rng = np.random.default_rng(0)
    for order in (4, 16):
        cfg = QamConfig(order)
        bits = rng.integers(0, 2, 10_000 * cfg.bits_per_symbol)
        assert np.array_equal(qam_demap(qam_map(bits, cfg), cfg), bits)


def test_qam_gray_adjacency():
    # nearest horizontal/vertical neighbours differ in exactly one bit
    for order in (4, 16):
        cfg = QamConfig(order)
        pts = constellation(cfg)
        bps = cfg.bits_per_symbol
        labels = (np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
        gap = np.min(np.abs(pts[0] - np.delete(pts, 0)))
        for i in range(order):
            for j in range(order):
                if i != j and abs(pts[i] - pts[j]) < 1.01 * gap:
                    assert np.sum(labels[i] != labels[j]) == 1


def test_qam_length_mismatch():
    with pytest.raises(ValueError):
        qam_map([0, 1, 0], QamConfig(4))


def test_otfs_zero_frame():
    cfg = GridConfig(M=8, N=4, n_cp=4)
    s = otfs_modulate(np.zeros((8, 4), dtype=complex), cfg)
    assert np.all(s == 0)


def test_otfs_impulse_train():
    # single symbol at (m0, 0) spreads to a constant train at m0 + k*M
    cfg = GridConfig(M=8, N=4, n_cp=0)
    m0 = 5
    X = np.zeros((8, 4), dtype=complex)
    X[m0, 0] = 1.0
    s = otfs_modulate(X, cfg)
    expect = np.zeros(32, dtype=complex)
    expect[m0::8] = 1.0 / np.sqrt(4)
    np.testing.assert_allclose(s, expect, atol=1e-14)


def test_otfs_impulse_linear_phase():
    # at Doppler bin n0 the train carries a linear phase, constant magnitude
    cfg = GridConfig(M=8, N=4, n_cp=0)
    m0, n0 = 3, 2
    X = np.zeros((8, 4), dtype=complex)
    X[m0, n0] = 1.0
    s = otfs_modulate(X, cfg)
    train = s[m0::8]
    np.testing.assert_allclose(np.abs(train), 1.0 / np.sqrt(4), atol=1e-14)
    k = np.arange(4)
    np.testing.assert_allclose(train, np.exp(2j * np.pi * n0 * k / 4) / 2, atol=1e-14)


def test_otfs_unitarity_and_roundtrip():
    rng = np.random.default_rng(1)
    cfg = GridConfig(M=16, N=8, n_cp=8)
    X = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    s = otfs_modulate(X, cfg)
    assert s.size == 16 * 8 + 8
    core = s[cfg.n_cp:]
    assert np.linalg.norm(core) == pytest.approx(np.linalg.norm(X), rel=1e-12)
    Y = otfs_demodulate(core, cfg)
    assert np.abs(Y - X).max() < 1e-12


def test_otfs_demod_constant_input():
    cfg = GridConfig(M=8, N=4, n_cp=0)
    y = otfs_demodulate(np.full(32, 1.0 + 0.5j), cfg)
    assert np.abs(y[:, 1:]).max() < 1e-12
    assert np.abs(y[:, 0]).min() > 0


def test_otfs_demod_energy():
    rng = np.random.default_rng(2)
    cfg = GridConfig(M=8, N=4, n_cp=0)
    r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    y = otfs_demodulate(r, cfg).reshape(-1, order="F")
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(r), rel=1e-12)


def test_otfs_matches_naive_dft():
    # Kronecker-structured transform vs a literal double-loop evaluation
    rng = np.random.default_rng(3)
    for M, N in [(4, 4), (8, 8), (8, 5)]:
        cfg = GridConfig(M=M, N=N, n_cp=0)
        X = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        s = otfs_modulate(X, cfg)
        naive = np.zeros(M * N, dtype=complex)
        for m in range(M):
            for k in range(N):
                acc = 0.0
                for n in range(N):
                    acc += X[m, n] * np.exp(2j * np.pi * n * k / N)
                naive[m + k * M] = acc / np.sqrt(N)
        np.testing.assert_allclose(s, naive, atol=1e-12)
        r = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        Y = otfs_demodulate(r, cfg)
        naive_y = np.zeros((M, N), dtype=complex)
        for m in range(M):
            for p in range(N):
                acc = 0.0
                for k in range(N):
                    acc += r[m + k * M] * np.exp(-2j * np.pi * p * k / N)
                naive_y[m, p] = acc / np.sqrt(N)
        np.testing.assert_allclose(Y, naive_y, atol=1e-12)


def test_otfs_dimension_errors():
    cfg = GridConfig(M=8, N=4, n_cp=4)
    with pytest.raises(ValueError):
        otfs_modulate(np.zeros((4, 8), dtype=complex), cfg)
    with pytest.raises(ValueError):
        otfs_demodulate(np.zeros(31), cfg)


def test_frame_vec_roundtrip_column_major():
    rng = np.random.default_rng(4)
    cfg = GridConfig(M=8, N=4, n_cp=0)
    X = rng.standard_normal((8, 4))
    x = X.reshape(-1, order="F")
    assert x[3 + 2 * 8] == X[3, 2]
    assert np.array_equal(x.reshape(cfg.M, cfg.N, order="F"), X)


def test_ofdm_roundtrip():
    rng = np.random.default_rng(5)
    cfg = GridConfig(M=16, N=4, n_cp=4)
    X = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    tx = ofdm_modulate(X, cfg)
    assert tx.size == 4 * (16 + 4)  # per-symbol CP overhead is N * n_cp
    Y = ofdm_demodulate(tx, cfg)
    assert np.abs(Y - X).max() < 1e-12


def test_ofdm_single_subcarrier_is_tone():
    cfg = GridConfig(M=16, N=2, n_cp=0)
    X = np.zeros((16, 2), dtype=complex)
    X[3, 0] = 1.0
    tx = ofdm_modulate(X, cfg)
    sym0 = tx[:16]
    k = np.arange(16)
    np.testing.assert_allclose(sym0, np.exp(2j * np.pi * 3 * k / 16) / 4, atol=1e-14)
    assert np.abs(tx[16:]).max() < 1e-14


@pytest.mark.parametrize("M,N", [(32, 16), (128, 32)])
def test_serial_matmul_is_matmul_bit_for_bit(M, N):
    """The trial path's products, split below OpenBLAS's threading cut-off,
    give the bytes of ``a @ b`` in the operand layouts of their callers."""
    cfg, n_taps = GridConfig(M, N, 16), 8
    mn = cfg.frame_len
    rng = np.random.default_rng(0)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # Wiener stage 2: W @ g_hat.T, the snapshots (L, N) transposed; with one
    # tap (channel: awgn) a GEMV, split under OpenBLAS's GEMV cut-off
    products = [(cplx(mn, N), cplx(L, N).T) for L in (n_taps, 1)]
    # BEM: basis @ least-squares coefficients, every order up to N
    pilots = PilotLayout(n_taps).resolved(cfg).pilot_indices(cfg)
    for q in range(2, N + 1):
        basis = _ce_basis(mn, q, 1.0 * mn)
        for L in (n_taps, 1):
            coef = np.linalg.lstsq(basis[pilots], cplx(L, N).T, rcond=None)[0]
            products.append((basis, coef))
    # Jakes draw: complex weights @ the real factor transposed, at fig11's
    # 500 km/h and fig9's largest Doppler
    for f_d_norm in (doppler_from_velocity(500.0, 5.9e9) * cfg.T_s, 2.0 / mn):
        fac = _jakes_factor(mn, f_d_norm)
        products.append((cplx(7, fac.shape[1]), fac.T))
    # 65536 = 2 * 512 * 8 * 8: fixed blocks of the largest size under the
    # cut-off (1023 columns here, 511 rows for the desk Wiener product)
    # would leave a last block of one column or row
    products.append((cplx(8, 8), cplx(8, 1024)))
    # one row times a matrix, and a GEMV whose blocks would be single rows,
    # stay whole: column blocks of the first did not keep its bits
    products += [(cplx(1, N), cplx(N, mn)), (cplx(2, 4096), cplx(4096, 1))]
    for a, b in products:
        want = a @ b
        got = _serial_matmul(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (a.shape, b.shape)
