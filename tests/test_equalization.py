import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lsmr, spsolve

import oracles
from oracles import dd_transform
from otfspn.channel import ChannelProfile, apply_channel, \
    effective_channel, realize_channel
from otfspn.equalization import (CONV_K, _OUT, ChannelOp, _adjoint, _harden, _lsmr, _normal_band,
                                 _quantile, _solve_normal, _viterbi_forward, banded_circular,
                                 ber, conv_encode, evm, lsmr_ic_equalize, mmse_equalize, nmse,
                                 qam_llrs, viterbi_decode)
from otfspn.estimation import PilotLayout, _cancel_pilot, build_pilot_frame, n_data
from otfspn.grid import (GridConfig, QamConfig, constellation, otfs_demodulate,
                         otfs_modulate, qam_demap, qam_map)
from otfspn.oscillator import PhaseNoiseModel, sample_path

TS = 1.0 / 7.68e6


def _frame_through(cfg, layout, qam, taps, psi, noise_var, rng):
    bits = rng.integers(0, 2, qam.bits_per_symbol * n_data(layout, cfg))
    data = qam_map(bits, qam)
    tx = otfs_modulate(build_pilot_frame(layout, data, cfg), cfg)
    r = apply_channel(tx, taps, psi, noise_var, rng)
    return bits, data, r


def test_channel_op_adjoint():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    op = ChannelOp(g)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = np.vdot(y, op.matvec(x))
    rhs = np.vdot(op.rmatvec(y), x)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    dense = banded_circular(g).toarray()
    np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-12)


def _random_taps(rng, mn, n_taps, zero_tap=None):
    g = rng.standard_normal((mn, n_taps)) + 1j * rng.standard_normal((mn, n_taps))
    if zero_tap is not None:
        g[:, zero_tap] = 0.0
    return g


def _tap_gather(g, x, adjoint=False):
    """sum_l g[n, l] x[(n - l) mod MN], or the adjoint sum, by gathers."""
    mn, n_taps = g.shape
    lags = np.arange(n_taps)[:, None]
    pos = np.arange(mn)[None, :]
    if adjoint:
        idx = (pos + lags) % mn
        return np.einsum("lm,lm->m", np.conj(g[idx, lags]), x[idx])
    return np.einsum("ln,ln->n", g.T, x[(pos - lags) % mn])


@pytest.mark.parametrize("n_taps,zero_tap", [(1, None), (8, None), (8, 3)])
def test_channel_op_equals_tap_gather(n_taps, zero_tap):
    rng = np.random.default_rng(20)
    g = _random_taps(rng, 512, n_taps, zero_tap)
    op = ChannelOp(g)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    assert np.array_equal(op.matvec(x), _tap_gather(g, x))
    assert np.array_equal(op.rmatvec(x), _tap_gather(g, x, adjoint=True))


def _unfold(band, perm):
    """Dense Hermitian matrix from solveh_banded's upper band, in the
    original order of the unknowns."""
    u, mn = band.shape[0] - 1, band.shape[1]
    folded = np.zeros((mn, mn), dtype=complex)
    for k in range(u + 1):          # band row u - k holds folded diagonal k
        j = np.arange(k, mn)
        folded[j - k, j] = band[u - k, k:]
    folded += np.triu(folded, 1).conj().T
    out = np.empty_like(folded)
    out[np.ix_(perm, perm)] = folded
    return out


@pytest.mark.parametrize("mn,n_taps,zero_tap",
                         [(512, 1, None), (512, 8, None), (512, 8, 3), (7, 4, None)])
def test_folded_band_equals_dense_normal_matrix(mn, n_taps, zero_tap):
    # MN = 7 = 2L - 1 is the smallest grid whose wrap corners do not overlap
    g = _random_taps(np.random.default_rng(21), mn, n_taps, zero_tap)
    G = banded_circular(g).toarray()
    ref = G.conj().T @ G + 0.3 * np.eye(mn)
    got = _unfold(*_normal_band(g, 0.3))
    if n_taps > 1:                  # both wrap corners are populated
        assert ref[0, mn - 1] != 0 and ref[mn - 1, 0] != 0
    assert np.array_equal(got == 0, ref == 0)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_banded_solve_rejects_overlapping_corners():
    g = _random_taps(np.random.default_rng(25), 6, 4)        # MN < 2L - 1
    with pytest.raises(ValueError, match="2L-1"):
        _solve_normal(g, np.ones(6, dtype=complex), 0.1)


def _spsolve_normal(g, b, noise_var):
    G = banded_circular(g).tocsc()
    A = G.conj().T @ G + noise_var * sp.identity(g.shape[0], format="csc")
    return spsolve(A.tocsc(), b)


@pytest.mark.parametrize("channel", ["random", "notch"])
def test_banded_solve_matches_spsolve(channel):
    rng = np.random.default_rng(26)
    if channel == "random":
        g = _random_taps(rng, 512, 8)
    else:                           # test_mmse_beats_zf_on_notched_channel's
        g = np.ones((128, 2), dtype=complex)
        g[:, 1] = 0.999
    mn = g.shape[0]
    b = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    for noise_var in (0.01, 1.0):
        x, ref = _solve_normal(g, b, noise_var), _spsolve_normal(g, b, noise_var)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("mn,n_taps", [(15, 1), (15, 8), (512, 8), (4096, 8)])
def test_mmse_adjoint_matches_conj_transpose_bitwise(mn, n_taps):
    """mmse_equalize's G^H product gives the bits, sign bits included, of
    the conjugate transpose of banded_circular, which it replaced."""
    rng = np.random.default_rng(27 + mn + n_taps)
    g = _random_taps(rng, mn, n_taps)
    g[rng.random(g.shape) < 0.2] = 0.0
    y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    y[rng.random(mn) < 0.2] = 0.0
    y.real[rng.random(mn) < 0.2] = -0.0
    y.imag[rng.random(mn) < 0.2] = -0.0
    got = _adjoint(g) @ y
    ref = banded_circular(g).conj().T @ y
    assert got.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()


@pytest.mark.parametrize("M,N,L,n_taps", [(32, 16, 8, 8), (128, 32, 8, 8),
                                          (32, 16, 8, 5), (16, 89, 4, 4)])
def test_pilot_cancellation_matches_product_bitwise(M, N, L, n_taps):
    """Both equalizers subtract the pilot's echo from the L*N tap samples
    alone, with the bits of the product banded_circular(g) @ pilot samples
    it replaced: for fewer taps than the guard (a perfect estimate under a
    longer pilot_L) and for inactive and signed-zero taps.  At N = 89 the
    FFT (Bluestein's) gives a complex pilot train, whose products round
    otherwise than scipy's, so only the values are compared there."""
    cfg = GridConfig(M, N, 16)
    layout = PilotLayout(L).resolved(cfg)
    rng = np.random.default_rng(M + N + n_taps)
    g = _random_taps(rng, cfg.frame_len, n_taps)
    g[:, n_taps // 2] = 0.0
    g.real[rng.random(g.shape) < 0.1] = -0.0
    r = rng.standard_normal(cfg.frame_len) + 1j * rng.standard_normal(cfg.frame_len)
    ref = r - banded_circular(g) @ otfs_modulate(layout.pilot_frame(cfg), cfg,
                                                 with_cp=False)
    got = _cancel_pilot(r, g, cfg, layout)
    if N == 89:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
    else:
        assert got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="exceed the pilot guard"):
        _cancel_pilot(r, np.zeros((cfg.frame_len, L + 1)), cfg, layout)


def test_channel_op_leaves_taps_untouched():
    rng = np.random.default_rng(22)
    g = _random_taps(rng, 64, 8, zero_tap=2)
    before = g.copy()
    op = ChannelOp(g)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    op.matvec(x)
    op.rmatvec(x)
    _lsmr(op, x, 0.1, 20)
    assert g.tobytes() == before.tobytes()


def _as_linear_operator(op):
    return LinearOperator((op.mn, op.mn), matvec=op.matvec,
                          rmatvec=op.rmatvec, dtype=complex)


class _CountingOp(ChannelOp):
    def __init__(self, g):
        super().__init__(g)
        self.calls = 0

    def matvec(self, x):
        self.calls += 1
        return super().matvec(x)

    def rmatvec(self, y):
        self.calls += 1
        return super().rmatvec(y)


@pytest.mark.parametrize("damp", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("mn", [64, 512])
@pytest.mark.parametrize("n_taps", [1, 8])
def test_lsmr_bitwise_equal_to_scipy(n_taps, mn, damp):
    rng = np.random.default_rng(23 + n_taps + mn)
    op = _CountingOp(_random_taps(rng, mn, n_taps))
    b = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    for rhs in (b, np.zeros(mn, dtype=complex)):
        op.calls = 0
        ref, istop = lsmr(_as_linear_operator(op), rhs, damp=damp, maxiter=20)[:2]
        ref_calls, op.calls = op.calls, 0
        assert np.array_equal(_lsmr(op, rhs, damp, 20), ref)
        assert op.calls == ref_calls
    assert istop == 0          # b = 0 returns before the first iteration


def test_lsmr_bitwise_equal_to_scipy_on_early_stop():
    # a near-identity channel converges in a few iterations: scipy stops on
    # its tolerance tests (istop 1 or 2) long before maxiter
    rng = np.random.default_rng(24)
    g = np.ones((512, 2), dtype=complex)
    g[:, 1] = 0.01 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    op = ChannelOp(g)
    b = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for damp in (0.0, 0.1):
        ref, istop, itn = lsmr(_as_linear_operator(op), b, damp=damp, maxiter=200)[:3]
        assert istop < 7 and itn < 200
        assert np.array_equal(_lsmr(op, b, damp, 200), ref)


def test_mmse_identity_channel_low_noise():
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    rng = np.random.default_rng(1)
    qam = QamConfig(4)
    layout = PilotLayout(L=1).resolved(cfg)
    taps = np.ones((mn, 1), dtype=complex)
    psi = np.ones(mn + cfg.n_cp, dtype=complex)
    bits, data, r = _frame_through(cfg, layout, qam, taps, psi, 0.0, rng)
    det = mmse_equalize(r, effective_channel(taps, psi), 1e-12, cfg, layout)
    np.testing.assert_allclose(det.symbols, data, atol=1e-6)
    assert ber(qam_demap(det.symbols, qam), bits) == 0.0


def test_mmse_normal_equations_residual():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(2)
    taps = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), cfg.frame_len + cfg.n_cp, rng)
    g = effective_channel(taps, psi)
    layout = PilotLayout(L=taps.shape[1]).resolved(cfg)
    qam = QamConfig(4)
    noise_var = 0.01
    bits, data, r = _frame_through(cfg, layout, qam, taps, psi, noise_var, rng)
    det = mmse_equalize(r, g, noise_var, cfg, layout)
    op = ChannelOp(g)
    y = r - op.matvec(otfs_modulate(layout.pilot_frame(cfg), cfg,
                                    with_cp=False))
    x_dt = otfs_modulate(det.dd_grid, cfg, with_cp=False)
    lhs = op.rmatvec(op.matvec(x_dt)) + noise_var * x_dt
    rhs = op.rmatvec(y)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8


def test_mmse_high_snr_near_ml():
    # perfect CSI at 40 dB: essentially error-free 4-QAM detection
    cfg = GridConfig(M=32, N=16, n_cp=16)
    rng = np.random.default_rng(3)
    qam = QamConfig(4)
    noise_var = 1e-4
    n_err = 0
    n_sym = 0
    for _ in range(30):
        taps = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
        psi = sample_path(PhaseNoiseModel("FRO", 100.0, TS),
                          cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=taps.shape[1]).resolved(cfg)
        bits, data, r = _frame_through(cfg, layout, qam, taps, psi, noise_var, rng)
        det = mmse_equalize(r, effective_channel(taps, psi), noise_var,
                            cfg, layout)
        hard = qam_demap(det.symbols, qam)
        n_err += np.sum(hard != bits) // 1
        n_sym += data.size
    assert n_err / (2 * n_sym) < 1e-4


def test_mmse_beats_zf_on_notched_channel():
    # a deep in-band notch blows up the zero-forcing solution
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    rng = np.random.default_rng(4)
    taps = np.zeros((mn, 2), dtype=complex)
    taps[:, 0] = 1.0
    taps[:, 1] = 0.999  # near-cancelling second tap: near-singular circulant
    g = taps
    op = ChannelOp(g)
    noise_var = 0.01
    x = (rng.standard_normal(mn) + 1j * rng.standard_normal(mn)) / np.sqrt(2)
    y = op.matvec(x) + np.sqrt(noise_var / 2) * (
        rng.standard_normal(mn) + 1j * rng.standard_normal(mn))
    G = banded_circular(g).toarray()
    x_zf = np.linalg.lstsq(G, y, rcond=None)[0]
    x_mmse = np.linalg.solve(G.conj().T @ G + noise_var * np.eye(mn),
                             G.conj().T @ y)
    assert np.linalg.norm(x_mmse - x) < np.linalg.norm(x_zf - x)


def test_mmse_domains_agree():
    # the banded delay-time solve equals a dense delay-Doppler MMSE of the
    # same problem, because the delay-Doppler map is unitary
    cfg = GridConfig(M=8, N=4, n_cp=8)
    rng = np.random.default_rng(5)
    prof = ChannelProfile((0.0, 2 * TS), (0.7, 0.3), 2e3)
    taps = realize_channel(prof, cfg, rng)
    psi = sample_path(PhaseNoiseModel("FRO", 2e3, TS), cfg.frame_len + cfg.n_cp, rng)
    g = effective_channel(taps, psi)
    layout = PilotLayout(L=taps.shape[1]).resolved(cfg)
    qam = QamConfig(4)
    bits, data, r = _frame_through(cfg, layout, qam, taps, psi, 0.01, rng)
    det = mmse_equalize(r, g, 0.01, cfg, layout)
    mn = cfg.frame_len
    G = banded_circular(g).toarray()
    Gdd = dd_transform(G, cfg)
    y = r - G @ otfs_modulate(layout.pilot_frame(cfg), cfg, with_cp=False)
    x = np.linalg.solve(Gdd.conj().T @ Gdd + 0.01 * np.eye(mn),
                        Gdd.conj().T @ otfs_demodulate(y, cfg).reshape(-1, order="F"))
    np.testing.assert_allclose(det.dd_grid, x.reshape(cfg.M, cfg.N, order="F"),
                               atol=1e-8)


def test_lsmr_matches_direct_least_squares():
    # zero damping, run to convergence, random well-conditioned system
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    x = lsmr(A, b, atol=1e-14, btol=1e-14, maxiter=2000)[0]
    assert np.abs(x - x_ref).max() < 1e-6


def test_lsmr_ic_identity_channel():
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    rng = np.random.default_rng(7)
    qam = QamConfig(4)
    layout = PilotLayout(L=1).resolved(cfg)
    taps = np.ones((mn, 1), dtype=complex)
    psi = np.ones(mn + cfg.n_cp, dtype=complex)
    bits, data, r = _frame_through(cfg, layout, qam, taps, psi, 0.0, rng)
    det = lsmr_ic_equalize(r, effective_channel(taps, psi), 1e-12, cfg,
                           layout, qam, i_ic=1, i_lsmr=30)
    assert det.converged
    assert ber(qam_demap(det.symbols, qam), bits) == 0.0
    np.testing.assert_allclose(det.symbols, data, atol=1e-4)


def test_lsmr_ic_residual_nonincreasing():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(8)
    qam = QamConfig(4)
    for trial in range(5):
        taps = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
        psi = sample_path(PhaseNoiseModel("FRO", 5e3, TS),
                          cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=taps.shape[1]).resolved(cfg)
        g = effective_channel(taps, psi)
        bits, data, r = _frame_through(cfg, layout, qam, taps, psi, 0.05, rng)
        op = ChannelOp(g)
        y = r - op.matvec(otfs_modulate(layout.pilot_frame(cfg), cfg,
                                        with_cp=False))
        first = lsmr(_as_linear_operator(op), y, damp=np.sqrt(0.05), maxiter=20)[0]
        res0 = np.linalg.norm(y - op.matvec(first))
        det = lsmr_ic_equalize(r, g, 0.05, cfg, layout, qam)
        assert det.residual <= res0 + 1e-12


def test_lsmr_ic_matches_mmse_ber():
    # single IC pass on easy frames: decisions identical to linear MMSE
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(9)
    qam = QamConfig(4)
    total = {"mmse": 0, "lsmr": 0}
    nbits = 0
    for _ in range(40):
        taps = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
        psi = sample_path(PhaseNoiseModel("FRO", 100.0, TS),
                          cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=taps.shape[1]).resolved(cfg)
        g = effective_channel(taps, psi)
        bits, data, r = _frame_through(cfg, layout, qam, taps, psi, 0.01, rng)
        m = mmse_equalize(r, g, 0.01, cfg, layout)
        s = lsmr_ic_equalize(r, g, 0.01, cfg, layout, qam,
                             i_ic=1, i_lsmr=60)
        total["mmse"] += int(np.sum(qam_demap(m.symbols, qam) != bits))
        total["lsmr"] += int(np.sum(qam_demap(s.symbols, qam) != bits))
        nbits += bits.size
    # both operate in the same near-error-free regime
    assert abs(total["mmse"] - total["lsmr"]) <= max(4, 0.2 * max(total.values()))


def _data_mask(M, N):
    cfg = GridConfig(M=M, N=N, n_cp=16)
    return PilotLayout(L=8).resolved(cfg).data_mask(cfg)


@pytest.mark.parametrize("M,N", [(32, 16), (128, 32)])
@pytest.mark.parametrize("order", [4, 16])
def test_harden_matches_all_points_argmin(M, N, order):
    """LSMR-IC's per-axis decisions are the nearest constellation points,
    bit for bit, on symbols scattered near and far from the grid."""
    qam, mask = QamConfig(order), _data_mask(M, N)
    points = constellation(qam)
    rng = np.random.default_rng(31 + M + order)
    for spread in (0.05, 0.3, 2.0):
        x = points[rng.integers(0, order, (M, N))] + spread * (
            rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
        got, ref = _harden(x, mask, qam), oracles.harden(x, mask, points)
        assert got.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()


@pytest.mark.parametrize("order", [4, 16])
def test_harden_decides_edges_as_qam_demap(order):
    """On a decision edge, signed zero included, or one ulp from one,
    LSMR-IC's decisions carry qam_demap's bits: the two share one tie rule."""
    qam, mask = QamConfig(order), _data_mask(32, 16)
    levels = np.unique(constellation(qam).real)
    edges = 0.5 * (levels[1:] + levels[:-1])
    near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf), [-0.0]])
    rng = np.random.default_rng(37 + order)
    x = rng.choice(near, (32, 16)) + 1j * rng.choice(np.concatenate([near, levels]),
                                                      (32, 16))
    x[::2] = x[::2].imag + 1j * x[::2].real      # the edge on the other axis
    hard = _harden(x, mask, qam)
    assert np.array_equal(qam_demap(hard[mask], qam), qam_demap(x[mask], qam))


@pytest.mark.parametrize("M,N", [(32, 16), (128, 32)])
@pytest.mark.parametrize("order", [4, 16])
def test_quantile_matches_numpy_bitwise(M, N, order):
    """LSMR-IC's early-pass cut is np.quantile's value, bit for bit, at each
    pass fraction t / 10, over the data cells of each scale: on the
    distances of noisy symbols to their decisions, on tied and on repeated
    values, with an infinite or a NaN distance, and on 300 random draws (the
    two forms of numpy's interpolation differ in about 1 of 1000 cuts)."""
    qam, mask = QamConfig(order), _data_mask(M, N)
    points = constellation(qam)
    rng = np.random.default_rng(41 + M + order)
    x = points[rng.integers(0, order, (M, N))] + 0.3 * (
        rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
    err = np.abs(x - _harden(x, mask, qam))[mask]
    inf_nan = [err.copy(), err.copy()]
    inf_nan[0][::7], inf_nan[1][5] = np.inf, np.nan
    draws = [rng.random(err.size) for _ in range(300)]
    for values in (err, np.round(err, 1), np.full_like(err, err[0]), *inf_nan, *draws):
        for t in range(1, 10):
            with np.errstate(invalid="ignore"):     # inf - inf in both
                want = np.quantile(values, t / 10)
                got = _quantile(values, t / 10)
            assert type(got) is type(want) and got.tobytes() == want.tobytes(), t


def test_conv_code_roundtrip_many_blocks():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(10, 1200))
        b = rng.integers(0, 2, n)
        enc = conv_encode(b)
        assert enc.size == 2 * (n + 6)
        llr = 8.0 * (1.0 - 2.0 * enc)
        assert np.array_equal(viterbi_decode(llr, n), b)


def test_conv_impulse_response_matches_generators():
    imp = conv_encode(np.array([1, 0, 0, 0, 0, 0, 0]))[:14].reshape(-1, 2)
    g0 = np.array([int(c) for c in format(0o133, "07b")])
    g1 = np.array([int(c) for c in format(0o171, "07b")])
    assert np.array_equal(imp[:, 0], g0)
    assert np.array_equal(imp[:, 1], g1)


def _conv_encode_loop(bits):
    """The per-bit state-machine encoder, kept as conv_encode's oracle."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    padded = np.concatenate([bits, np.zeros(CONV_K - 1, dtype=np.int64)])
    out = np.empty(2 * padded.size, dtype=np.int64)
    s = 0
    for i, b in enumerate(padded):
        out[2 * i:2 * i + 2] = _OUT[s, b]
        s = ((b << (CONV_K - 1)) | s) >> 1
    return out


def test_conv_encode_matches_state_machine():
    rng = np.random.default_rng(12)
    # 438 and 3800 info bits: a desk and a full-grid coded frame
    lengths = [0, 1, 438, 3800, *rng.integers(2, 600, 20).tolist()]
    for n in lengths:
        for b in (rng.integers(0, 2, n), np.ones(n, dtype=int)):
            enc = conv_encode(b)
            assert enc.dtype == np.int64, n
            assert np.array_equal(enc, _conv_encode_loop(b)), n


def _viterbi_loop(llrs, n_info):
    """The per-step decoder, kept as viterbi_decode's oracle: final path
    metrics, traceback codes and decoded bits."""
    llrs = np.asarray(llrs, dtype=float).reshape(-1, 2)
    n_states = 1 << (CONV_K - 1)
    dst = np.arange(n_states)
    dst_bit = dst >> (CONV_K - 2)
    src0 = (dst & ((1 << (CONV_K - 2)) - 1)) << 1
    src1 = src0 + 1
    pm = np.full(n_states, 1e30)
    pm[0] = 0.0
    choice = np.empty((llrs.shape[0], n_states), dtype=np.int64)
    for t in range(llrs.shape[0]):
        bcost = _OUT[:, :, 0] * llrs[t, 0] + _OUT[:, :, 1] * llrs[t, 1]
        c0 = pm[src0] + bcost[src0, dst_bit]
        c1 = pm[src1] + bcost[src1, dst_bit]
        take0 = c0 <= c1
        pm = np.where(take0, c0, c1)
        choice[t] = (np.where(take0, src0, src1) << 1) | dst_bit
    s = 0
    bits = np.empty(llrs.shape[0], dtype=np.int64)
    for t in range(llrs.shape[0] - 1, -1, -1):
        bits[t] = choice[t, s] & 1
        s = choice[t, s] >> 1
    return pm, choice, bits[:n_info]


def test_viterbi_matches_per_step_decoder():
    rng = np.random.default_rng(13)
    # 438 and 3800 info bits: a desk and a full-grid coded frame
    for n in [438, 3800, *rng.integers(0, 300, 6).tolist()]:
        size = 2 * (n + CONV_K - 1)
        noisy = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        noisy[rng.random(size) < 0.2] = 0.0          # exact zeros force ties
        small = rng.integers(-2, 3, size).astype(float)   # tied sums everywhere
        for llr in (noisy, small, np.zeros(size)):
            pm, choice, bits = _viterbi_loop(llr, n)
            pm_new, take0 = _viterbi_forward(llr.reshape(-1, 2))
            assert pm_new.tobytes() == pm.tobytes(), n
            assert np.array_equal(take0, (choice >> 1) % 2 == 0), n
            assert np.array_equal(viterbi_decode(llr, n), bits), n


def test_coding_gain_on_awgn():
    # rate-1/2 K=7 code beats uncoded 4-QAM at Eb/N0 = 6 dB
    rng = np.random.default_rng(11)
    qam = QamConfig(4)
    ebn0 = 10 ** 0.6
    # uncoded: Es/N0 = 2 * Eb/N0 ; coded: Es/N0 = Eb/N0 (rate 1/2 halves it)
    n_info = 2000
    errs_u = errs_c = 0
    for _ in range(30):
        info = rng.integers(0, 2, n_info)
        # uncoded
        nv = 1.0 / (2 * ebn0)
        sym = qam_map(info, qam)
        rx = sym + np.sqrt(nv / 2) * (rng.standard_normal(sym.size)
                                      + 1j * rng.standard_normal(sym.size))
        errs_u += int(np.sum(qam_demap(rx, qam) != info))
        # coded
        nv = 1.0 / ebn0
        enc = conv_encode(info)
        sym = qam_map(enc, qam)
        rx = sym + np.sqrt(nv / 2) * (rng.standard_normal(sym.size)
                                      + 1j * rng.standard_normal(sym.size))
        llr = qam_llrs(rx, qam, nv)
        errs_c += int(np.sum(viterbi_decode(llr, n_info) != info))
    assert errs_c < errs_u


def test_qam_llr_signs():
    qam = QamConfig(4)
    sym = qam_map(np.array([0, 0]), qam)  # (1+j)/sqrt(2)
    llr = qam_llrs(sym, qam, 0.1)
    assert np.all(llr > 0)  # both bits are 0 -> positive LLRs
    sym = qam_map(np.array([1, 1]), qam)
    assert np.all(qam_llrs(sym, qam, 0.1) < 0)


def test_metric_identities():
    x = np.array([1 + 1j, -1 - 1j])
    assert evm(x, x) == 0.0
    assert ber([0, 1, 1], [0, 1, 1]) == 0.0
    assert ber([1, 0, 1], [0, 1, 0]) == 1.0
    g = np.ones((8, 2), dtype=complex)
    assert nmse(g, g) == 0.0
    with pytest.raises(ValueError):
        ber([0, 1], [0, 1, 1])
    with pytest.raises(ValueError):
        nmse(np.ones((4, 2)), np.ones((4, 3)))

