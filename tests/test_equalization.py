import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import lsmr

from otfspn.channel import ChannelProfile, ChannelRealization, apply_channel, \
    effective_channel, realize_channel
from otfspn.equalization import (ChannelOp, EqualizerConfig, _lsmr, ber,
                                 conv_encode, evm, lsmr_ic_equalize,
                                 mmse_equalize, nmse, qam_llrs, viterbi_decode)
from otfspn.estimation import PilotLayout, build_pilot_frame
from otfspn.grid import Frame, GridConfig, QamConfig, otfs_modulate, qam_demap, qam_map
from otfspn.oscillator import PhaseNoiseModel, PhasePath, sample_path

TS = 1.0 / 7.68e6


def _frame_through(cfg, layout, qam, chan, path, noise_var, rng):
    bits = rng.integers(0, 2, qam.bits_per_symbol * layout.n_data(cfg))
    data = qam_map(bits, qam)
    tx = otfs_modulate(build_pilot_frame(layout, data, cfg), cfg)
    r = apply_channel(tx, chan, path, noise_var, rng, cfg)
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
    dense = op.to_sparse().toarray()
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


def _sum_of_lag_matrices(g):
    """One COO-built CSR matrix per lag, summed."""
    mn = g.shape[0]
    rows = np.arange(mn)
    out = None
    for l in range(g.shape[1]):
        m = sp.csr_matrix((g[:, l], (rows, (rows - l) % mn)), shape=(mn, mn))
        out = m if out is None else out + m
    return out


@pytest.mark.parametrize("n_taps,zero_tap", [(1, None), (8, None), (8, 3)])
def test_to_sparse_matches_sum_of_lag_matrices(n_taps, zero_tap):
    g = _random_taps(np.random.default_rng(21), 512, n_taps, zero_tap)
    new, old = ChannelOp(g).to_sparse(), _sum_of_lag_matrices(g)
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.array_equal(new.data, old.data)


def test_channel_op_leaves_taps_untouched():
    rng = np.random.default_rng(22)
    g = _random_taps(rng, 64, 8, zero_tap=2)
    before = g.copy()
    op = ChannelOp(g)
    op.to_sparse()
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    op.matvec(x)
    op.rmatvec(x)
    _lsmr(op, x, 0.1, 20)
    assert g.tobytes() == before.tobytes()


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
        ref, istop = lsmr(op.as_linear_operator(), rhs, damp=damp, maxiter=20)[:2]
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
        ref, istop, itn = lsmr(op.as_linear_operator(), b, damp=damp, maxiter=200)[:3]
        assert istop < 7 and itn < 200
        assert np.array_equal(_lsmr(op, b, damp, 200), ref)


def test_mmse_identity_channel_low_noise():
    cfg = GridConfig(M=16, N=8, n_cp=4)
    mn = cfg.frame_len
    rng = np.random.default_rng(1)
    qam = QamConfig(4)
    layout = PilotLayout(L=1).resolved(cfg)
    chan = ChannelRealization(np.ones((mn, 1), dtype=complex), np.array([0]))
    path = PhasePath(np.zeros(mn + cfg.n_cp))
    bits, data, r = _frame_through(cfg, layout, qam, chan, path, 0.0, rng)
    det = mmse_equalize(r, effective_channel(chan, path), 1e-12, cfg, layout, qam)
    np.testing.assert_allclose(det.symbols, data, atol=1e-6)
    assert ber(det.bits, bits) == 0.0


def test_mmse_normal_equations_residual():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(2)
    chan = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
    path = sample_path(PhaseNoiseModel("FRO", 2e3, TS), cfg.frame_len + cfg.n_cp, rng)
    g = effective_channel(chan, path)
    layout = PilotLayout(L=chan.L).resolved(cfg)
    qam = QamConfig(4)
    noise_var = 0.01
    bits, data, r = _frame_through(cfg, layout, qam, chan, path, noise_var, rng)
    det = mmse_equalize(r, g, noise_var, cfg, layout, qam)
    op = ChannelOp(g)
    y = r - op.matvec(otfs_modulate(Frame(layout.pilot_frame(cfg).dd), cfg,
                                    with_cp=False))
    x_dt = otfs_modulate(Frame(det.dd_grid), cfg, with_cp=False)
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
        chan = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
        path = sample_path(PhaseNoiseModel("FRO", 100.0, TS),
                           cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=chan.L).resolved(cfg)
        bits, data, r = _frame_through(cfg, layout, qam, chan, path, noise_var, rng)
        det = mmse_equalize(r, effective_channel(chan, path), noise_var,
                            cfg, layout, qam)
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
    G = op.to_sparse().toarray()
    x_zf = np.linalg.lstsq(G, y, rcond=None)[0]
    x_mmse = np.linalg.solve(G.conj().T @ G + noise_var * np.eye(mn),
                             G.conj().T @ y)
    assert np.linalg.norm(x_mmse - x) < np.linalg.norm(x_zf - x)


def test_mmse_domains_agree():
    # delay-time and delay-Doppler solves of the same MMSE problem coincide
    cfg = GridConfig(M=8, N=4, n_cp=8)
    rng = np.random.default_rng(5)
    prof = ChannelProfile((0.0, 2 * TS), (0.7, 0.3), 2e3)
    chan = realize_channel(prof, cfg, rng)
    path = sample_path(PhaseNoiseModel("FRO", 2e3, TS), cfg.frame_len + cfg.n_cp, rng)
    g = effective_channel(chan, path)
    layout = PilotLayout(L=chan.L).resolved(cfg)
    qam = QamConfig(4)
    bits, data, r = _frame_through(cfg, layout, qam, chan, path, 0.01, rng)
    dt = mmse_equalize(r, g, 0.01, cfg, layout, qam, domain="delay_time")
    dd = mmse_equalize(r, g, 0.01, cfg, layout, qam, domain="delay_doppler")
    np.testing.assert_allclose(dt.dd_grid, dd.dd_grid, atol=1e-8)


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
    chan = ChannelRealization(np.ones((mn, 1), dtype=complex), np.array([0]))
    path = PhasePath(np.zeros(mn + cfg.n_cp))
    bits, data, r = _frame_through(cfg, layout, qam, chan, path, 0.0, rng)
    det = lsmr_ic_equalize(r, effective_channel(chan, path), 1e-12, cfg,
                           layout, qam, EqualizerConfig("lsmr_ic", 1, 30))
    assert det.converged
    assert ber(det.bits, bits) == 0.0
    np.testing.assert_allclose(det.symbols, data, atol=1e-4)


def test_lsmr_ic_residual_nonincreasing():
    cfg = GridConfig(M=16, N=8, n_cp=8)
    rng = np.random.default_rng(8)
    qam = QamConfig(4)
    for trial in range(5):
        chan = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
        path = sample_path(PhaseNoiseModel("FRO", 5e3, TS),
                           cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=chan.L).resolved(cfg)
        g = effective_channel(chan, path)
        bits, data, r = _frame_through(cfg, layout, qam, chan, path, 0.05, rng)
        op = ChannelOp(g)
        y = r - op.matvec(otfs_modulate(Frame(layout.pilot_frame(cfg).dd), cfg,
                                        with_cp=False))
        first = lsmr(op.as_linear_operator(), y, damp=np.sqrt(0.05), maxiter=20)[0]
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
        chan = realize_channel(ChannelProfile.tdl_c(100e-9, 1e3), cfg, rng)
        path = sample_path(PhaseNoiseModel("FRO", 100.0, TS),
                           cfg.frame_len + cfg.n_cp, rng)
        layout = PilotLayout(L=chan.L).resolved(cfg)
        g = effective_channel(chan, path)
        bits, data, r = _frame_through(cfg, layout, qam, chan, path, 0.01, rng)
        m = mmse_equalize(r, g, 0.01, cfg, layout, qam)
        s = lsmr_ic_equalize(r, g, 0.01, cfg, layout, qam,
                             EqualizerConfig("lsmr_ic", 1, 60))
        total["mmse"] += int(np.sum(m.bits != bits))
        total["lsmr"] += int(np.sum(s.bits != bits))
        nbits += bits.size
    # both operate in the same near-error-free regime
    assert abs(total["mmse"] - total["lsmr"]) <= max(4, 0.2 * max(total.values()))


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


def test_equalizer_config_validation():
    with pytest.raises(ValueError):
        EqualizerConfig("zf")
    with pytest.raises(ValueError):
        EqualizerConfig("mmse", i_ic=0)
    with pytest.raises(ValueError):
        EqualizerConfig("mmse", domain="time")
