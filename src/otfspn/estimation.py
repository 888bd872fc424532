"""Joint phase-noise/channel estimation and the interpolation baselines.

The effective channel seen by every delay tap is the tap gain times the
receiver phase rotation, so it fluctuates sample to sample even in a static
channel.  Estimation runs in two stages:

* Stage 1 places a strong impulse pilot on the delay-Doppler grid, guarded
  by 2L-2 empty delay rows.  In delay-time the pilot is an impulse train
  with period M, so dividing the received samples in the guarded rows by the
  known train yields N noisy snapshots of each tap, one per period; a
  threshold on the per-tap energy rejects empty delay bins.
* Stage 2 fills in the M*N - N missing samples per tap with the LMMSE
  interpolator ``W = K_{g,ghat} (K_{ghat,ghat})^+``.  The effective-channel
  autocorrelation factorizes into the phase-rotation factor times the Jakes
  Bessel factor (independent processes, entrywise product), so W is built
  entirely from statistics and is shared by all taps and all frames with the
  same configuration.

Baselines from the interpolation literature (complex-exponential BEM,
not-a-knot cubic splines, zero-order hold of the stage-1 snapshots) and the
OFDM phase-tracking-pilot estimator are provided for comparison.  BEM and
splines assume the tap trajectories are smooth between pilots, which holds
for Doppler spread but not for the wideband phase-noise component; the
Wiener filter instead weights each observation by the true correlation
structure, which is the entire point of the method.  The spline is computed
in house, bit for bit as ``scipy.interpolate.CubicSpline``, which the tests
keep as its oracle, so no run pays for importing ``scipy.interpolate``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridConfig, frozen_cache
from .oscillator import PhaseNoiseModel, expected_rotation


@dataclass(frozen=True)
class PilotLayout:
    """Impulse pilot delay row (at Doppler bin 0), guard width and pilot power.

    The guard spans delay rows m_p - (L-1) .. m_p + (L-1) (circularly) over
    all Doppler bins; sigma2_p is the power of the pilot symbol on the
    delay-Doppler grid.  The functions that take a layout expect
    ``resolved(cfg)``, which fills in the defaults and checks the guard.
    """

    L: int
    m_p: int | None = None   # default L-1 (guards sit at the grid edge)
    sigma2_p: float | None = None  # default: pilot-sample SNR = data SNR + 30 dB

    def resolved(self, cfg: GridConfig) -> "PilotLayout":
        m_p = self.L - 1 if self.m_p is None else self.m_p
        s2p = 1000.0 * cfg.N if self.sigma2_p is None else self.sigma2_p
        if 2 * self.L - 1 > cfg.M:
            raise ValueError(f"guard region (2L-1={2*self.L-1} rows) exceeds M={cfg.M}")
        return PilotLayout(self.L, m_p, s2p)

    def pilot_indices(self, cfg: GridConfig) -> np.ndarray:
        """Delay-time sample indices of the pilot impulse train."""
        return self.m_p + np.arange(cfg.N) * cfg.M

    def guard_rows(self, cfg: GridConfig) -> np.ndarray:
        return np.unique((self.m_p + np.arange(-(self.L - 1), self.L)) % cfg.M)

    @frozen_cache
    def data_mask(self, cfg: GridConfig) -> np.ndarray:
        """Boolean M x N mask of the data-bearing grid cells."""
        mask = np.ones((cfg.M, cfg.N), dtype=bool)
        mask[self.guard_rows(cfg), :] = False
        return mask

    def pilot_frame(self, cfg: GridConfig) -> np.ndarray:
        """Pilot-only M x N frame: the pilot at (m_p, 0), everything else zero."""
        X = np.zeros((cfg.M, cfg.N), dtype=complex)
        X[self.m_p, 0] = np.sqrt(self.sigma2_p)
        return X


def n_data(layout: PilotLayout | PtrpLayout, cfg: GridConfig) -> int:
    """Number of data cells the layout leaves on the grid."""
    return int(layout.data_mask(cfg).sum())


def build_pilot_frame(layout: PilotLayout | PtrpLayout, data_symbols,
                      cfg: GridConfig) -> np.ndarray:
    """Assemble an M x N frame: the layout's pilot frame (the OTFS impulse
    pilot and its guards, or the OFDM PTRPs), data symbols filling its data
    cells in column-major order."""
    data_symbols = np.asarray(data_symbols).ravel()
    count = n_data(layout, cfg)
    if data_symbols.size != count:
        raise ValueError(f"layout carries {count} data cells, got {data_symbols.size} symbols")
    X = layout.pilot_frame(cfg)
    X.T[layout.data_mask(cfg).T] = data_symbols  # column-major fill
    return X


def extract_data(frame_dd: np.ndarray, layout: PilotLayout | PtrpLayout,
                 cfg: GridConfig) -> np.ndarray:
    """Data-cell contents of a frame, in the build_pilot_frame fill order."""
    return frame_dd.T[layout.data_mask(cfg).T]


def stage1_estimate(r: np.ndarray, layout: PilotLayout, cfg: GridConfig,
                    noise_var: float) -> np.ndarray:
    """Threshold-based per-tap estimates from the pilot impulse train: the
    (L, N) stage-1 snapshots g_hat, rows taps, columns periods.

    Tap l is observed at samples m_p + l + k*M; dividing by the known train
    amplitude sigma_p/sqrt(N) gives ghat_l[k] = g[m_p + l + k*M, l] plus
    noise of variance N*noise_var/sigma2_p.  Taps whose mean energy stays
    below three times that noise floor are zeroed, so tap l is active
    exactly when ``g_hat[l].any()``.
    """
    r = np.asarray(r).ravel()
    if r.size != cfg.frame_len:
        raise ValueError(f"expected {cfg.frame_len} samples, got {r.size}")
    scale = np.sqrt(cfg.N / layout.sigma2_p)
    g_hat = r[_tap_samples(cfg, layout)] * scale
    floor = 3.0 * noise_var * cfg.N / layout.sigma2_p
    active = np.mean(np.abs(g_hat) ** 2, axis=1) > floor
    g_hat[~active] = 0.0
    return g_hat


@frozen_cache
def _tap_samples(cfg: GridConfig, layout: PilotLayout) -> np.ndarray:
    """(L, N) sample indices m_p + l + k*M (mod MN) at which stage 1 observes
    tap l."""
    k = np.arange(cfg.N)
    return (layout.m_p + np.arange(layout.L)[:, None] + k * cfg.M) % cfg.frame_len


def effective_autocorr(model: PhaseNoiseModel, f_D: float, T_s: float,
                       lags) -> np.ndarray:
    """k_g(lag): phase rotation factor times the Jakes Bessel factor."""
    from scipy.special import j0

    lags = np.abs(np.asarray(lags))
    return expected_rotation(model, lags) * j0(2.0 * np.pi * f_D * T_s * lags)


@dataclass
class WienerFilter:
    """LMMSE interpolator from N pilot-index snapshots to all M*N samples."""

    W: np.ndarray             # (MN, N)
    mse_per_sample: np.ndarray  # theoretical MMSE at each output sample


def build_wiener(model: PhaseNoiseModel, f_D: float, noise_ratio: float,
                 cfg: GridConfig, layout: PilotLayout) -> WienerFilter:
    """Solve the Wiener-Hopf system for the configured statistics.

    ``noise_ratio`` is the variance of the stage-1 observation noise
    relative to unit tap power, i.e. N*sigma2_eta/sigma2_p.  The pilot-index
    autocorrelation is ridge-regularized by max(noise_ratio, 1e-8*tr/N); it
    is near-singular when both the Doppler and the phase noise are small.
    """
    from scipy.linalg import solve

    if noise_ratio < 0:
        raise ValueError("noise_ratio must be >= 0")
    mn = cfg.frame_len
    pilots = layout.pilot_indices(cfg)
    k_cross = effective_autocorr(model, f_D, cfg.T_s, np.arange(mn)[:, None] - pilots)
    k_pil = effective_autocorr(model, f_D, cfg.T_s, pilots[:, None] - pilots)
    ridge = max(noise_ratio, 1e-8 * np.trace(k_pil).real / cfg.N)
    k_obs = k_pil + ridge * np.eye(cfg.N)
    # W = K_cross K_obs^-1 via a Hermitian solve on the transposed system
    W = solve(k_obs, k_cross.conj().T, assume_a="pos").conj().T
    k0 = float(effective_autocorr(model, f_D, cfg.T_s, 0))
    mse = k0 - np.einsum("mn,mn->m", W, k_cross.conj()).real
    return WienerFilter(W, mse)


def stage2_estimate(g_hat: np.ndarray, wiener: WienerFilter) -> np.ndarray:
    """Apply the shared Wiener filter to every tap row of the (L, N) stage-1
    snapshots: the per-sample effective channel estimate (MN x L)."""
    n_obs = wiener.W.shape[1]
    if g_hat.shape[1] != n_obs:
        raise ValueError(f"filter expects {n_obs} snapshots per tap, "
                         f"got {g_hat.shape[1]}")
    return wiener.W @ g_hat.T


def stage1_hold_estimate(g_hat: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Stage-1 only: hold each snapshot over its M-sample delay block."""
    blocks = np.arange(cfg.frame_len) // cfg.M
    return g_hat.T[blocks, :]


def bem_order(cfg: GridConfig, f_D: float, beta_pn: float = 0.0,
              k_over: float = 1.0, include_pn_bandwidth: bool = False) -> int:
    """Number of complex-exponential basis functions.

    Default sizes the basis to the Doppler spread only,
    Q = ceil(2*M*N*T_s*k_over*f_D + 1); with ``include_pn_bandwidth`` the
    phase-noise bandwidth is added to the spread (useful only when the
    phase noise is slow enough for a basis expansion to track).
    """
    mn_t = cfg.frame_len * cfg.T_s
    if include_pn_bandwidth:
        q = int(np.ceil(2.0 * k_over * mn_t * (f_D + beta_pn))) + 1
    else:
        q = int(np.ceil(2.0 * mn_t * k_over * f_D + 1.0))
    return max(q, 1)


def bem_estimate(g_hat: np.ndarray, cfg: GridConfig, layout: PilotLayout,
                 f_D: float, beta_pn: float = 0.0, k_over: float = 1.0,
                 include_pn_bandwidth: bool = False) -> np.ndarray:
    """Least-squares fit of an oversampled CE-BEM to the pilot snapshots.

    Q basis tones spaced 1/(k_over*M*N) in normalized frequency, centered on
    DC, fitted per tap at the pilot indices and evaluated on all samples.
    """
    q = bem_order(cfg, f_D, beta_pn, k_over, include_pn_bandwidth)
    if q > cfg.N:
        warnings.warn(f"BEM order {q} exceeds the {cfg.N} pilot snapshots; clamping")
        q = cfg.N
    basis = _ce_basis(cfg.frame_len, q, k_over * cfg.frame_len)
    coef, *_ = np.linalg.lstsq(basis[layout.pilot_indices(cfg), :],
                               g_hat.T, rcond=None)
    return basis @ coef


@frozen_cache
def _ce_basis(n: int, q: int, span: float) -> np.ndarray:
    """(n, Q) complex-exponential basis: Q tones spaced 1/span in normalized
    frequency, centred on DC, at samples 0..n-1."""
    freqs = (np.arange(q) - (q - 1) / 2.0) / span
    return np.exp(2j * np.pi * np.arange(n)[:, None] * freqs[None, :])


@frozen_cache
def _spline_grid(knots: tuple, n: int):
    """Knots as floats; for samples 0..n-1 the knot interval (clamped, so
    the ends extrapolate, as in ``PPoly``) and the offset powers s, s*s and
    s*s*s as (n, 1) columns."""
    x = np.asarray(knots, dtype=float)
    grid = np.arange(n, dtype=float)
    idx = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, x.size - 2)
    s = (grid - x[idx])[:, None]
    return x, idx, np.stack((s, s * s, s * s * s))


def _not_a_knot(x: np.ndarray, y: np.ndarray, parts: int) -> np.ndarray:
    """Cubic coefficients (4, N-1, K) of the not-a-knot spline through the
    columns of y (N, K) at knots x, highest power first.

    Restates ``scipy.interpolate.CubicSpline(x, y, bc_type="not-a-knot")``
    and ``CubicHermiteSpline``'s coefficient stack (scipy 1.17) with the same
    operations in the same order, so the coefficients are the same bits.
    Like scipy, N = 3 fits a parabola and N = 2 clamps both ends to the
    chord slope.  The columns form ``parts`` equal blocks, one CubicSpline
    call each; they share one slope solve, except at N = 3, where scipy's
    ``solve`` takes another LAPACK path for a single column.
    """
    from scipy.linalg import solve, solve_banded

    n = x.size
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    if n == 3:
        A = np.zeros((3, 3))
        A[0, 0] = A[0, 1] = A[2, 1] = A[2, 2] = 1
        A[1] = dx[1], 2 * (dx[0] + dx[1]), dx[0]
        b = np.empty_like(y)
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        s = np.concatenate([solve(A, blk, check_finite=False)
                            for blk in np.split(b, parts, axis=1)], axis=1)
    else:
        A = np.zeros((3, n))  # tridiagonal slope system in banded storage
        b = np.empty_like(y)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 2:
            A[1, 0] = A[1, -1] = 1
            b[0] = b[-1] = slope[0]
        else:
            d = x[2] - x[0]
            A[1, 0], A[0, 1] = dx[1], d
            b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0]
                    + dxr[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            A[1, -1], A[-1, -2] = dx[-2], d
            b[-1] = (dxr[-1] ** 2 * slope[-2]
                     + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def spline_estimate(g_hat: np.ndarray, cfg: GridConfig,
                    layout: PilotLayout) -> np.ndarray:
    """Not-a-knot cubic spline through the pilot snapshots, per tap,
    real and imaginary parts separately; extrapolates past the end pilots.

    Computed in house (``_not_a_knot``), bit for bit as scipy's
    ``CubicSpline``, the tests' oracle, evaluated in ``PPoly``'s order.
    """
    x, idx, pows = _spline_grid(tuple(layout.pilot_indices(cfg).tolist()),
                                cfg.frame_len)
    vals = g_hat.T  # (N, L)
    c = _not_a_knot(x, np.concatenate((vals.real, vals.imag), axis=1), 2)[:, idx]
    res = 0.0 + c[3]  # PPoly's order: ascending powers, no Horner nesting
    for k in (2, 1, 0):
        res += c[k] * pows[2 - k]
    L = vals.shape[1]
    return res[:, :L] + 1j * res[:, L:]


# --------------------------------------------------------------------------
# OFDM phase-tracking baseline
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PtrpLayout:
    """Comb phase-tracking pilots for the equivalent OFDM system.

    Subcarriers 0, spacing, 2*spacing, ... carry unit pilots in every OFDM
    symbol; symbol 0 is a full pilot symbol used for the one-shot channel
    estimate.  Remaining cells carry data.
    """

    spacing: int = 8

    def comb(self, cfg: GridConfig) -> np.ndarray:
        return np.arange(0, cfg.M, self.spacing)

    @frozen_cache
    def data_mask(self, cfg: GridConfig) -> np.ndarray:
        """Boolean M x N mask of the data cells."""
        mask = np.ones((cfg.M, cfg.N), dtype=bool)
        mask[:, 0] = False
        mask[self.comb(cfg), :] = False
        return mask

    def pilot_frame(self, cfg: GridConfig) -> np.ndarray:
        """Pilot-only M x N frame: symbol 0 and the comb, zeros elsewhere."""
        X = np.zeros((cfg.M, cfg.N), dtype=complex)
        X[:, 0] = 1.0
        X[self.comb(cfg), :] = 1.0
        return X


def ofdm_cpe_estimate(rx_freq: np.ndarray, layout: PtrpLayout, cfg: GridConfig,
                      f_D: float = 0.0, interpolate: bool = False):
    """Per-symbol common phase error from the PTRPs, plus a channel estimate.

    Returns (cpe, H_est): the CPE angle per OFDM symbol and the M x N
    effective channel used for one-tap equalization.  Without interpolation
    the channel is the symbol-0 snapshot rotated by the CPE; with it, each
    comb subcarrier's trajectory is BEM-fitted across symbols and linearly
    interpolated in frequency.
    """
    Y = np.asarray(rx_freq)
    if Y.shape != (cfg.M, cfg.N):
        raise ValueError(f"expected ({cfg.M}, {cfg.N}) frame, got {Y.shape}")
    comb = layout.comb(cfg)
    h0 = Y[:, 0]                                    # unit pilots: Y reads the channel
    corr = (Y[comb, :].conj().T @ h0[comb]).conj()  # per-symbol pilot correlation
    cpe = np.angle(corr)
    if not interpolate:
        H = h0[:, None] * np.exp(1j * cpe)[None, :]
        return cpe, H
    h_pil = Y[comb, :]                              # per-symbol comb estimates
    sym_T = (cfg.M + cfg.n_cp) * cfg.T_s
    q = max(int(np.ceil(2.0 * cfg.N * sym_T * f_D + 1.0)), 1)
    q = min(q, cfg.N)
    basis = _ce_basis(cfg.N, q, cfg.N)
    coef, *_ = np.linalg.lstsq(basis, h_pil.T, rcond=None)
    h_fit = (basis @ coef).T                        # (len(comb), N)
    H = np.empty((cfg.M, cfg.N), dtype=complex)
    rows = np.arange(cfg.M)
    for n in range(cfg.N):
        H[:, n] = (np.interp(rows, comb, h_fit[:, n].real)
                   + 1j * np.interp(rows, comb, h_fit[:, n].imag))
    return cpe, H
