"""Delay-Doppler phase-noise coefficients, their statistics, and SINR expressions.

A unit-modulus phase path psi multiplies the received samples in the
delay-time domain.  Seen from the delay-Doppler grid the multiplication
becomes a block-circulant operator with N diagonal M x M blocks; block n is
built from the coefficients

    phi_n[m] = (1/N) sum_k psi[m + k*M] exp(-j*2*pi*n*k/N),

the N-point DFT (scaled by 1/N) of the phase samples seen by delay bin m.
``dd_coefficients`` forms them for one path or a batch of paths; the
operator is never built here.  Doppler bin 0 carries the common rotation of
every symbol, the other bins leak energy between Doppler bins
(inter-Doppler interference).  Because the DFT samples the phase at a
spacing of M samples, the relevant phase decorrelation lag is M times larger
than in an OFDM system over the same bandwidth, which is why OTFS is the
more phase-noise-sensitive of the two.

All second-order quantities reduce to the mean rotation factor
``expected_rotation(model, lag)``; the interference power needs only the
diagonal of the coefficient autocorrelation matrix.  For a free-running
oscillator that diagonal has an exact closed form (a pair of finite
geometric sums), evaluated here in O(1) per entry.

``measured_sinr`` checks these expressions by Monte Carlo.  It draws each
phase path once and splits it for both waveforms with the DFT that
``dd_coefficients`` uses (``_dft``): OTFS over the M-spaced samples of each
delay bin, OFDM over the subcarriers of each M-sample symbol, so the two
measured curves come from the same paths (common random numbers).  Chunks
of ``_CHUNK`` paths set its random stream; it draws, transforms and scores
``_BLOCK`` paths at a time, so its memory does not grow with the number of
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridConfig
from .oscillator import PhaseNoiseModel, expected_rotation, path_blocks

# phase paths per chunk of measured_sinr's random stream; another value would
# reorder the draws of the CPLL and DPLL models, which take the first sample
# of every path in a chunk before the rest
_CHUNK = 512
# paths drawn, transformed and scored at a time: bounds the working set (8
# full-grid paths of complex samples take 512 KB) and moves no byte
_BLOCK = 8


def dd_coefficients(psi: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Coefficients phi_n[m] of a phase path, or of a batch of paths, as an
    (..., M, N) array: ``phi[..., m, n]`` is the coefficient of block n at
    delay m.

    The last axis of ``psi`` holds the samples; the trailing M*N are used,
    i.e. the post-CP-removal window of a full frame path.
    """
    mn = cfg.frame_len
    if psi.shape[-1] < mn:
        raise ValueError(f"path too short: {psi.shape[-1]} < {mn}")
    # (..., M, N): column k holds the k-th block of M samples
    return _dft(psi[..., -mn:].reshape(*psi.shape[:-1], cfg.N, cfg.M).swapaxes(-1, -2))


def _dft(view: np.ndarray) -> np.ndarray:
    """DFT along the last axis, divided by that axis's length."""
    phi = np.fft.fft(view, axis=-1)
    phi /= view.shape[-1]
    return phi


def _diag_from_rotation(r: np.ndarray, size: int, p: int) -> float:
    """K[p,p] = (1/size^2) sum_n (size-|n|) r(|n|) cos(2*pi*p*n/size).

    ``r`` holds the rotation factors at lags 0..size-1.  Compensated
    summation keeps the small off-peak entries accurate.
    """
    n = np.arange(1, size)
    terms = 2.0 * (size - n) * r[1:] * np.cos(2.0 * np.pi * p * n / size)
    return (math.fsum(terms) + size * r[0]) / size**2


def _rotation_diag(model: PhaseNoiseModel, size: int, lag_scale: int) -> np.ndarray:
    """size x size K_phi diagonal for phase samples ``lag_scale`` apart, any kind."""
    r = expected_rotation(model, np.arange(size) * lag_scale)
    return np.array([_diag_from_rotation(r, size, p) for p in range(size)])


def _fro_closed_form(alpha: float, size: int, p: int) -> float:
    """Closed form of the weighted Toeplitz sum for geometric rotation factors.

    Evaluates (1/size^2) sum_{n=-(size-1)}^{size-1} (size-|n|) alpha^|n|
    e^{-j 2 pi p n / size} through the two finite geometric-series identities
    sum z^n = (1-z^size)/(1-z) and
    sum n z^n = (z - size z^size + (size-1) z^(size+1)) / (1-z)^2,
    using z = alpha e^{-j 2 pi p / size} (note z^size = alpha^size).
    """
    if alpha >= 1.0:
        return 1.0 if p % size == 0 else 0.0
    if 1.0 - alpha < 1e-6:
        # geometric form loses digits to cancellation as alpha -> 1
        r = alpha ** np.arange(size, dtype=float)
        return _diag_from_rotation(r, size, p)
    z = alpha * np.exp(-2j * np.pi * p / size)
    zc = np.conj(z)
    a_sz = alpha**size
    s1 = ((1.0 - a_sz) / (1.0 - z) + (1.0 - a_sz) / (1.0 - zc)).real
    u = 1.0 + (size - 1) * a_sz
    s2 = ((z * u - size * a_sz) / (1.0 - z) ** 2
          + (zc * u - size * a_sz) / (1.0 - zc) ** 2).real
    return (s1 - 1.0) / size - s2 / size**2


def _fro_alpha(model: PhaseNoiseModel, lag_scale: int) -> float:
    """Rotation factor of a free-running oscillator over ``lag_scale`` samples."""
    return float(np.exp(-2.0 * np.pi * model.beta_pn * model.T_s * lag_scale))


@dataclass
class SinrReport:
    """Analytic signal/IDI/noise split and the resulting SINR."""

    signal_power: float
    idi_power: float
    noise_power: float

    @property
    def sinr(self) -> float:
        denom = self.idi_power + self.noise_power
        return float("inf") if denom <= 0 else self.signal_power / denom

    @property
    def sinr_db(self) -> float:
        return 10.0 * np.log10(self.sinr)


def _sinr(model: PhaseNoiseModel, noise_var: float, size: int,
          lag_scale: int) -> SinrReport:
    if noise_var < 0:
        raise ValueError("noise variance must be >= 0")
    if model.beta_pn == 0.0:
        diag = np.array([1.0])          # no phase noise: no leakage
    elif model.kind == "FRO":
        alpha = _fro_alpha(model, lag_scale)
        diag = np.array([_fro_closed_form(alpha, size, p) for p in range(size)])
    else:
        diag = _rotation_diag(model, size, lag_scale)
    return SinrReport(diag[0], float(diag[1:].sum()), noise_var)


def sinr_otfs(model: PhaseNoiseModel, cfg: GridConfig, noise_var: float) -> SinrReport:
    """Analytic OTFS SINR; phase statistics sampled at multiples of M."""
    return _sinr(model, noise_var, cfg.N, cfg.M)


def sinr_ofdm(model: PhaseNoiseModel, cfg: GridConfig, noise_var: float) -> SinrReport:
    """Analytic SINR for the equivalent M-subcarrier OFDM system (unit lags)."""
    return _sinr(model, noise_var, cfg.M, 1)


def measured_sinr(model: PhaseNoiseModel, cfg: GridConfig, noise_var: float,
                  trials: int, seed) -> dict:
    """Monte Carlo counterpart of the analytic SINR, for OTFS and for OFDM.

    Splits the coefficients of each phase path twice: over the Doppler DFT
    of each delay bin (OTFS) and over the subcarrier DFT of each M-sample
    block (OFDM).  Both waveforms see the same paths (common random
    numbers), so each path is drawn once.  The paths are drawn in chunks of
    ``_CHUNK``, which sets the random stream, and are drawn, transformed and
    scored ``_BLOCK`` at a time, which bounds the working set: memory does
    not grow with ``trials``.  Returns ``{"otfs": SinrReport, "ofdm":
    SinrReport}`` with the signal and interference powers averaged over the
    paths.
    """
    rng = np.random.default_rng(seed)
    totals = np.zeros(4)    # OTFS signal, OTFS IDI, OFDM signal, OFDM IDI
    done = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        per_path = np.empty((4, n))     # rows as in totals, summed per chunk
        lo = 0
        for theta in path_blocks(model, n, cfg.frame_len, rng, _BLOCK):
            hi = lo + len(theta)
            psi = np.empty(theta.shape, dtype=complex)   # exp(1j*theta), bit for bit
            np.cos(theta, out=psi.real)
            np.sin(theta, out=psi.imag)
            blocks = psi.reshape(hi - lo, cfg.N, cfg.M)
            # OTFS splits each delay bin's M-spaced samples over Doppler (the
            # (b, M, N) view), OFDM each M-sample symbol over its subcarriers
            # (the (b, N, M) blocks); the modulus and the square reuse one array
            for row, view in ((0, blocks.swapaxes(1, 2)), (2, blocks)):
                p2 = np.abs(_dft(view))
                p2 **= 2
                per_path[row, lo:hi] = p2[..., 0].mean(axis=1)
                per_path[row + 1, lo:hi] = p2[..., 1:].sum(axis=2).mean(axis=1)
            lo = hi
        totals += [row.sum() for row in per_path]
        done += n
    sig_otfs, idi_otfs, sig_ofdm, idi_ofdm = totals / trials
    return {"otfs": SinrReport(sig_otfs, idi_otfs, noise_var),
            "ofdm": SinrReport(sig_ofdm, idi_ofdm, noise_var)}
