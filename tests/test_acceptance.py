"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budget is roughly ten
minutes, dominated by the 5000-trial equalized BER ordering.  Every clause
is expected to pass.

Criterion 7 asserts, at every beta, proposed < BEM, proposed < spline and
proposed < stage-1, and BEM monotone in beta for beta >= 1 kHz.  It bounds
the spline against the stage-1 hold from both sides, on different samples.
From below, on the whole frame, spline >= 0.9 x stage-1: the spline offers
no material gain over the raw snapshots.  From above, between the first and
last pilot, spline < stage-1, so that a broken spline fails.  The whole
frame gets no upper bound because its spline/hold gap is set by how the
spline treats the frame ends, alike at every beta (2000 trials, the test's
seeds): +16..+21% for the program's not-a-knot spline, -31..-35% with
natural ends and -27..-29% with clamped ends.  Between the first and last
pilot all three are 36..42% below the hold.  The whole-frame lower bound
thus holds for the not-a-knot spline only.

Criterion 8 asserts proposed < BEM and proposed < stage-1 in equalized
BER, each with disjoint 95% CIs.  BEM < stage-1 is not asserted: no BEM
tried comes within a factor of 20 of stage-1.  CHANGES.md has the
measurements behind both criteria.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from oracles import as_dense, dd_apply, effective_dd_channel
from otfspn.channel import (ChannelProfile, apply_channel, doppler_from_velocity,
                            effective_channel, realize_channel)
from otfspn.dd_analysis import (_fro_alpha, _fro_closed_form, dd_coefficients,
                                measured_sinr, sinr_ofdm, sinr_otfs)
from otfspn.equalization import ber, lsmr_ic_equalize, nmse
from otfspn.estimation import (PilotLayout, bem_estimate,
                               build_pilot_frame, build_wiener,
                               effective_autocorr, n_data, spline_estimate,
                               stage1_estimate, stage1_hold_estimate,
                               stage2_estimate)
from otfspn.grid import GridConfig, QamConfig, otfs_demodulate, \
    otfs_modulate, qam_demap, qam_map
from otfspn.harness import Scenario, emit_csv, run_scenarios
from otfspn.oscillator import (PhaseNoiseModel, dpll_autocovariance,
                               expected_rotation, path_blocks, sample_path)

TS = 1.0 / 7.68e6
FULL = GridConfig(M=128, N=32, n_cp=16)
DESK = GridConfig(M=32, N=16, n_cp=16)
F_D_500 = doppler_from_velocity(500.0, 5.9e9)


def _line(num, ok, detail):
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def _csv_text(rows):
    import io
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


def test_criterion_01_closed_form_vs_brute_force():
    """Geometric closed form == double sum, 50 random configs, <1e-9, <10 s."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        beta = 10.0 ** rng.uniform(1.0, 4.0)
        M = int(rng.choice([16, 64, 128]))
        N = int(rng.choice([8, 32]))
        p = int(rng.integers(0, N))
        cfg = GridConfig(M=M, N=N, n_cp=0)
        model = PhaseNoiseModel("FRO", beta, TS)
        alpha = np.exp(-2.0 * np.pi * beta * TS * M)
        k, l = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        brute = float(np.real(np.sum(
            alpha ** np.abs(k - l) * np.exp(-2j * np.pi * p * (k - l) / N))) / N**2)
        closed = _fro_closed_form(_fro_alpha(model, cfg.M), cfg.N, p)
        worst = max(worst, abs(closed - brute) / abs(brute))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _line(1, ok, f"worst rel err {worst:.2e} over 50 configs in {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_02_rotation_factor_monte_carlo():
    """E[exp(j dTheta)] over 1e5 paths vs exp(-variogram/2), 3 SE, <1 min."""
    t0 = time.time()
    lags = (1, 128, 1280)
    n_paths, chunk = 100_000, 10_000
    ok_all = True
    details = []
    for kind, seed in (("FRO", 211), ("CPLL", 223), ("DPLL", 227)):
        model = PhaseNoiseModel(kind, 2e3, TS, 1e6)
        rng = np.random.default_rng(seed)
        zs = {d: [] for d in lags}
        for _ in range(n_paths // chunk):
            theta = next(path_blocks(model, chunk, 1281, rng, chunk))
            for d in lags:
                zs[d].append(np.exp(1j * (theta[:, d] - theta[:, 0])))
        for d in lags:
            z = np.concatenate(zs[d])
            theory = expected_rotation(model, d)
            se_re = np.std(z.real, ddof=1) / np.sqrt(n_paths)
            se_im = np.std(z.imag, ddof=1) / np.sqrt(n_paths)
            ok = (abs(z.real.mean() - theory) < 3 * se_re
                  and abs(z.imag.mean()) < 3 * se_im)
            ok_all &= ok
            details.append(f"{kind}@{d}:{(z.real.mean() - theory) / se_re:+.2f}se")
    elapsed = time.time() - t0
    ok_all &= elapsed < 60.0
    _line(2, ok_all, f"{' '.join(details)} in {elapsed:.1f}s")
    assert ok_all


def test_criterion_03_dpll_autocovariance():
    """Sampled DPLL chain autocovariance vs (b^2 nu2/(1-a^2)) a^(2|n|).

    Tolerance read as 2% of the lag-0 autocovariance (a relative error on
    the a^(2n) tail is not Monte Carlo measurable).
    """
    model = PhaseNoiseModel("DPLL", 2e3, TS, 1e6)
    rng = np.random.default_rng(303)
    length, lag_max = 562, 50
    theta = next(path_blocks(model, 20_000, length, rng, 20_000))
    k0 = float(dpll_autocovariance(model, 0))
    worst = 0.0
    for lag in range(lag_max + 1):
        emp = np.mean(theta[:, : length - lag] * theta[:, lag:])
        worst = max(worst, abs(emp - float(dpll_autocovariance(model, lag))))
    ok = worst < 0.02 * k0
    _line(3, ok, f"max |K_emp - K| = {worst:.2e} vs 2% of K(0) = {0.02 * k0:.2e}")
    assert ok


def test_criterion_04_fig5_trend_full_grid():
    """Analytic degradation signatures plus Monte Carlo within 0.5 dB."""
    t0 = time.time()
    base_db = sinr_otfs(PhaseNoiseModel("FRO", 0.0, TS), FULL, 0.01).sinr_db
    noisy = PhaseNoiseModel("FRO", 100.0, TS)
    d_otfs = base_db - sinr_otfs(noisy, FULL, 0.01).sinr_db
    d_ofdm = base_db - sinr_ofdm(noisy, FULL, 0.01).sinr_db
    ok = d_otfs > 10.0 and 0.5 < d_ofdm < 1.5
    gaps = []
    for beta in (30.0, 100.0, 300.0):
        model = PhaseNoiseModel("FRO", beta, TS)
        measured = measured_sinr(model, FULL, 0.01, 10_000, 404)
        for wave, ana_fn in (("otfs", sinr_otfs), ("ofdm", sinr_ofdm)):
            ana = ana_fn(model, FULL, 0.01).sinr_db
            gaps.append(abs(measured[wave].sinr_db - ana))
    ok &= max(gaps) < 0.5
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _line(4, ok, f"degr OTFS {d_otfs:.2f} dB / OFDM {d_ofdm:.2f} dB, "
                 f"max MC gap {max(gaps):.3f} dB in {elapsed:.0f}s")
    assert d_otfs > 10.0
    assert 0.5 < d_ofdm < 1.5
    assert max(gaps) < 0.5
    assert elapsed < 300.0


def test_criterion_05_operator_oracles():
    """Block-circulant application == dense Kronecker product; pipeline ==
    G_DD x; both to 1e-10 at M=N=8."""
    cfg = GridConfig(M=8, N=8, n_cp=8)
    mn = cfg.frame_len
    rng = np.random.default_rng(505)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    psi = sample_path(model, mn + cfg.n_cp, rng)
    phi = dd_coefficients(psi, cfg)
    F = np.fft.fft(np.eye(8)) / np.sqrt(8)
    A = np.kron(F, np.eye(8))
    dense = A @ np.diag(psi[-mn:]) @ A.conj().T
    e_op = np.abs(as_dense(phi) - dense).max()
    x = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    e_apply = np.abs(dd_apply(phi, x) - dense @ x).max()

    taps = realize_channel(ChannelProfile.tdl_c(100e-9, 2e3), cfg, rng)
    G = effective_dd_channel(taps, psi, cfg)
    X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    r = apply_channel(otfs_modulate(X, cfg), taps, psi, 0.0, rng)
    e_pipe = np.abs(otfs_demodulate(r, cfg).reshape(-1, order="F")
                    - G @ X.reshape(-1, order="F")).max()
    ok = max(e_op, e_apply, e_pipe) < 1e-10
    _line(5, ok, f"operator {e_op:.1e}, apply {e_apply:.1e}, pipeline {e_pipe:.1e}")
    assert e_op < 1e-10 and e_apply < 1e-10 and e_pipe < 1e-10


def test_criterion_06_wiener_optimality():
    """On draws from the exact statistics: stage-2 MSE matches the Gaussian
    MMSE within 5% and beats BEM/spline/hold with 95% confidence."""
    cfg = DESK
    mn = cfg.frame_len
    model = PhaseNoiseModel("FRO", 2e3, TS)
    layout = PilotLayout(L=1).resolved(cfg)
    noise_ratio = 0.01 * cfg.N / layout.sigma2_p
    rng = np.random.default_rng(606)
    n_draws = 10_000
    ok_all = True
    details = []
    for f_D in (0.0, F_D_500):
        k = effective_autocorr(model, f_D, TS,
                               np.abs(np.subtract.outer(np.arange(mn),
                                                        np.arange(mn))))
        w_eig, v = np.linalg.eigh(k)
        keep = w_eig > 1e-12 * w_eig[-1]
        fac = v[:, keep] * np.sqrt(w_eig[keep])
        z = (rng.standard_normal((fac.shape[1], n_draws))
             + 1j * rng.standard_normal((fac.shape[1], n_draws))) / np.sqrt(2)
        g = fac @ z
        pil = layout.pilot_indices(cfg)
        obs = g[pil, :] + np.sqrt(noise_ratio / 2) * (
            rng.standard_normal((cfg.N, n_draws))
            + 1j * rng.standard_normal((cfg.N, n_draws)))
        wf = build_wiener(model, f_D, noise_ratio, cfg, layout)
        g_hat = obs.T.copy()
        per_draw = {
            "wiener": np.mean(np.abs(wf.W @ obs - g) ** 2, axis=0),
            "bem": np.mean(np.abs(bem_estimate(
                g_hat, cfg, layout, f_D, 2e3,
                include_pn_bandwidth=(f_D == 0.0)) - g) ** 2, axis=0),
            "spline": np.mean(np.abs(
                spline_estimate(g_hat, cfg, layout) - g) ** 2, axis=0),
            "hold": np.mean(np.abs(
                stage1_hold_estimate(g_hat, cfg) - g) ** 2, axis=0),
        }
        theory = np.mean(wf.mse_per_sample)
        rel = abs(per_draw["wiener"].mean() - theory) / theory
        ok_all &= rel < 0.05
        details.append(f"fD={f_D:.0f}: dev {rel:.2%}")
        for name in ("bem", "spline", "hold"):
            diff = per_draw[name] - per_draw["wiener"]
            t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(n_draws))
            ok_all &= t_stat > 1.96
            details.append(f"{name} t={t_stat:.0f}")
    _line(6, ok_all, "; ".join(details))
    assert ok_all


def _shared_trial(point_seed, cfg, layout, prof, model, qam, noise_var):
    rng = np.random.default_rng(point_seed)
    taps = realize_channel(prof, cfg, rng)
    psi = sample_path(model, cfg.frame_len + cfg.n_cp, rng)
    bits = rng.integers(0, 2, qam.bits_per_symbol * n_data(layout, cfg))
    frame = build_pilot_frame(layout, qam_map(bits, qam), cfg)
    r = apply_channel(otfs_modulate(frame, cfg), taps, psi, noise_var, rng)
    g_hat = stage1_estimate(r, layout, cfg, noise_var)
    g = effective_channel(taps, psi)
    return rng, bits, r, g_hat, g


def test_criterion_07_nmse_ordering_vs_beta():
    """Estimator NMSE ordering vs bandwidth (fig6/fig7 settings), 2000 trials."""
    cfg = DESK
    noise_var = 0.01
    prof = ChannelProfile.tdl_c(100e-9, 0.0)
    delays, _ = prof.quantized(TS)
    layout = PilotLayout(L=int(delays.max()) + 1).resolved(cfg)
    qam = QamConfig(4)
    betas = (1e2, 1e3, 5e3, 1e4)
    trials = 2000
    pilots = layout.pilot_indices(cfg)
    inner = slice(pilots[0], pilots[-1] + 1)  # samples the spline interpolates
    means = {}
    for beta in betas:
        model = PhaseNoiseModel("FRO", beta, TS)
        w = build_wiener(model, 0.0, noise_var * cfg.N / layout.sigma2_p,
                         cfg, layout)
        acc = dict.fromkeys(("proposed", "bem", "spline", "stage1",
                             "spline_inner", "stage1_inner"), 0.0)
        for t in range(trials):
            _, _, _, g_hat, g = _shared_trial(700_000 + t, cfg, layout, prof,
                                              model, qam, noise_var)
            spline = spline_estimate(g_hat, cfg, layout)
            hold = stage1_hold_estimate(g_hat, cfg)
            acc["proposed"] += nmse(stage2_estimate(g_hat, w), g)
            acc["bem"] += nmse(bem_estimate(g_hat, cfg, layout, 0.0, beta,
                                            include_pn_bandwidth=True), g)
            acc["spline"] += nmse(spline, g)
            acc["stage1"] += nmse(hold, g)
            acc["spline_inner"] += nmse(spline[inner], g[inner])
            acc["stage1_inner"] += nmse(hold[inner], g[inner])
        means[beta] = {k: v / trials for k, v in acc.items()}

    prop_lt_bem = all(means[b]["proposed"] < means[b]["bem"] for b in betas)
    bem_monotone = (means[1e3]["bem"] < means[5e3]["bem"] < means[1e4]["bem"])
    prop_lt_spline = all(means[b]["proposed"] < means[b]["spline"] for b in betas)
    prop_lt_stage1 = all(means[b]["proposed"] < means[b]["stage1"] for b in betas)
    spline_rel = {b: (means[b]["spline"] - means[b]["stage1"]) / means[b]["stage1"]
                  for b in betas}
    spline_no_gain = all(means[b]["spline"] >= 0.9 * means[b]["stage1"]
                         for b in betas)
    spline_interpolates = all(means[b]["spline_inner"] < means[b]["stage1_inner"]
                              for b in betas)
    ok = (prop_lt_bem and bem_monotone and prop_lt_spline and prop_lt_stage1
          and spline_no_gain and spline_interpolates)
    _line(7, ok,
          f"proposed<BEM {prop_lt_bem}; BEM monotone(beta>=1e3) {bem_monotone}; "
          f"proposed<spline {prop_lt_spline}; proposed<stage1 {prop_lt_stage1}; "
          f"spline>=0.9*stage1 {spline_no_gain}; "
          f"spline<stage1 between first and last pilot {spline_interpolates} "
          f"(spline vs stage1: {', '.join(f'{b:.0f}Hz:{r:+.1%}' for b, r in spline_rel.items())})")
    assert prop_lt_bem
    assert bem_monotone
    assert prop_lt_spline, f"NMSE means {means}"
    assert prop_lt_stage1, f"NMSE means {means}"
    # whole frame: the spline must not beat the snapshot hold by a material
    # margin; this side depends on the end convention (see module docstring)
    assert spline_no_gain, f"spline vs stage1 relative gaps {spline_rel}"
    # between the first and last pilot, where the end convention matters
    # little, a cubic through the snapshots beats holding them
    assert spline_interpolates, f"NMSE means {means}"


@pytest.mark.slow
def test_criterion_08_ber_ordering_lsmr_ic():
    """Equalized BER ordering (fig11 settings, desk scale), 5000 trials."""
    cfg = DESK
    noise_var = 0.01
    prof = ChannelProfile.tdl_c(100e-9, F_D_500)
    delays, _ = prof.quantized(TS)
    layout = PilotLayout(L=int(delays.max()) + 1).resolved(cfg)
    qam = QamConfig(4)
    model = PhaseNoiseModel("FRO", 2e3, TS)
    w = build_wiener(model, F_D_500, noise_var * cfg.N / layout.sigma2_p,
                     cfg, layout)
    trials = 5000
    errs = {k: np.empty(trials) for k in ("proposed", "bem", "stage1")}
    for t in range(trials):
        _, bits, r, g_hat, g = _shared_trial(800_000 + t, cfg, layout, prof,
                                             model, qam, noise_var)
        ests = {
            "proposed": stage2_estimate(g_hat, w),
            "bem": bem_estimate(g_hat, cfg, layout, F_D_500),
            "stage1": stage1_hold_estimate(g_hat, cfg),
        }
        for k, gd in ests.items():
            det = lsmr_ic_equalize(r, gd, noise_var, cfg, layout, qam, 10, 20)
            errs[k][t] = ber(qam_demap(det.symbols, qam), bits)
    stats = {k: (v.mean(), 1.96 * v.std(ddof=1) / np.sqrt(trials))
             for k, v in errs.items()}
    lo = {k: m - c for k, (m, c) in stats.items()}
    hi = {k: m + c for k, (m, c) in stats.items()}
    link1 = hi["proposed"] < lo["bem"]      # proposed < bem, CIs disjoint
    link2 = hi["proposed"] < lo["stage1"]   # proposed < stage1, CIs disjoint
    ok = link1 and link2
    _line(8, ok, f"proposed<bem {link1}, proposed<stage1 {link2} ("
          + "; ".join(f"{k}: {m:.5f}+-{c:.5f}" for k, (m, c) in stats.items())
          + ")")
    assert link1, f"BER stats {stats}"
    assert link2, f"BER stats {stats}"


def test_criterion_09_awgn_q_function():
    """Perfect-CSI uncoded 4-QAM BER vs Q(sqrt(SNR)) within 3 SE."""
    s = Scenario(name="awgn-acceptance", channel="awgn", beta_pn=0.0,
                 estimator="perfect", equalizer="mmse", sweep="snr_db",
                 sweep_values=(0.0, 4.0, 8.0), trials=500, seed=909)
    rows = [r for r in run_scenarios([s]) if r.metric == "ber"]
    ok = True
    details = []
    for r in rows:
        theory = norm.sf(np.sqrt(10 ** (r.sweep_value / 10.0)))
        se = r.ci95 / 1.96
        dev = abs(r.value - theory) / se
        ok &= dev < 3.0
        details.append(f"{r.sweep_value:.0f}dB:{dev:.2f}se")
    _line(9, ok, " ".join(details))
    assert ok


def test_criterion_10_deterministic_csv():
    """Byte-identical CSV for identical seeds."""
    s = Scenario(name="det-acceptance", beta_pn=2e3, velocity=500.0,
                 estimator="proposed", equalizer="lsmr_ic", sweep="snr_db",
                 sweep_values=(10.0, 20.0), trials=10, seed=1010)
    a = _csv_text(run_scenarios([s]))
    b = _csv_text(run_scenarios([s]))
    ok = a == b
    _line(10, ok, f"rerun identical {ok}")
    assert ok
