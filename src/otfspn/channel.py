"""Doubly dispersive channel generation and application.

Tap delays come from a power-delay profile (3GPP TDL-C by default, scaled by
the configured delay spread) quantized to the sample grid; taps sharing a
sample point have their powers summed.  Each retained tap is an independent
stationary complex Gaussian process with Jakes autocorrelation
``J_0(2*pi*f_D*T_s*lag)``, drawn through a low-rank pivoted Cholesky factor
F of the Bessel covariance C.  The factorization stops when the residual
diagonal falls to 1e-12, so every entry of C - F F^T is at most 1e-12 and the
second-order statistics are exact to that level -- the Wiener-filter
estimator assumes exactly these statistics.  The rank is about
2*f_D*T_s*n + O(log n) for an n-sample window.

The receive model is

    r[n] = exp(j*theta[n]) * sum_l h[n, l] * s[n - l] + eta[n],

i.e. phase noise multiplies at the receiver after the channel.  With a cyclic
prefix at least as long as the channel memory, the retained OTFS window sees
a circular convolution, so its taps are generated for the M*N retained
samples only; an OFDM stream draws taps for every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridConfig, _serial_matmul, frozen_cache

SPEED_OF_LIGHT = 299_792_458.0

# TR 38.901 Table 7.7.2-3 (TDL-C): normalized delay, power in dB
TDL_C = [
    (0.0000, -4.4), (0.2099, -1.2), (0.2219, -3.5), (0.2329, -5.2),
    (0.2176, -2.5), (0.6366, 0.0), (0.6448, -2.2), (0.6560, -3.9),
    (0.6584, -7.4), (0.7935, -7.1), (0.8213, -10.7), (0.9336, -11.1),
    (1.2285, -5.1), (1.3083, -6.8), (2.1704, -8.7), (2.7105, -13.2),
    (4.2589, -13.9), (4.6003, -13.9), (5.4902, -15.8), (5.6077, -17.1),
    (6.3065, -16.0), (6.6374, -15.7), (7.0427, -21.6), (8.6523, -22.8),
]


def doppler_from_velocity(v_kmh: float, f_c: float) -> float:
    """Maximum Doppler shift for a relative velocity in km/h."""
    return (v_kmh / 3.6) * f_c / SPEED_OF_LIGHT


@dataclass(frozen=True)
class ChannelProfile:
    """Power-delay profile (delays in seconds, linear powers summing to 1)
    plus the maximum Doppler shift."""

    delays: tuple
    powers: tuple
    f_D: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        p = np.asarray(self.powers, dtype=float)
        if d.shape != p.shape or d.size == 0:
            raise ValueError("delays and powers must be equal-length, non-empty")
        if np.any(d < 0) or np.any(p < 0):
            raise ValueError("delays and powers must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("powers must sum to 1")
        if self.f_D < 0:
            raise ValueError("f_D must be >= 0")

    @classmethod
    def tdl_c(cls, delay_spread: float = 100e-9, f_D: float = 0.0) -> "ChannelProfile":
        d = np.array([row[0] for row in TDL_C]) * delay_spread
        p = 10.0 ** (np.array([row[1] for row in TDL_C]) / 10.0)
        return cls(tuple(d), tuple(p / p.sum()), f_D)

    @frozen_cache
    def quantized(self, T_s: float):
        """(tap sample indices, tap powers) on the T_s grid, coincident taps
        merged."""
        idx = np.rint(np.asarray(self.delays) / T_s).astype(int)
        keys, which = np.unique(idx, return_inverse=True)
        return keys, np.bincount(which, weights=self.powers)

    def length(self, cfg: GridConfig) -> int:
        """Channel length L (largest quantized delay + 1) on cfg's sample
        grid; raises unless the CP covers the channel memory, n_cp >= L - 1."""
        # in float: quantized()'s int cast overflows past 2**63 samples
        memory = np.rint(max(self.delays) / cfg.T_s)
        if memory > cfg.n_cp:
            raise ValueError(f"channel length {memory + 1:g} exceeds CP (n_cp = {cfg.n_cp})")
        return int(memory) + 1


@frozen_cache
def _jakes_factor(n_samples: int, f_d_norm: float) -> np.ndarray:
    """n x r factor F with F F^T equal to the Bessel covariance.

    Pivoted Cholesky of C[i, j] = c[|i - j|], c = J_0(2*pi*f_d_norm*lag),
    reading one column of C per step: pivot on the largest residual diagonal
    d[j], orthogonalize that column against the chosen ones and scale it by
    1/sqrt(d[j]).  It stops when the residual diagonal falls to 1e-12 * c[0];
    the residual C - F F^T is PSD, so every entry is then at most 1e-12.  The
    band-limited Jakes spectrum makes r about 2*f_d_norm*n + O(log n), so the
    cost is O(n r^2) and no n x n array is formed.  Cached because building
    it dominates drawing from it.
    """
    from scipy.special import j0

    lag = np.arange(n_samples)
    c = j0(2.0 * np.pi * f_d_norm * lag)
    d = np.full(n_samples, c[0])
    rows = np.empty((min(32, n_samples), n_samples))   # F^T, grown on demand
    r = 0
    while r < n_samples:
        j = int(np.argmax(d))
        if d[j] <= 1e-12 * c[0]:
            break
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])[:n_samples]
        col = c[np.abs(lag - j)] - rows[:r].T @ rows[:r, j]
        col /= np.sqrt(d[j])
        rows[r] = col
        d -= col * col
        d[j] = 0.0
        r += 1
    return np.ascontiguousarray(rows[:r].T)


def _jakes_process(n_samples: int, f_d_norm: float, rng: np.random.Generator,
                   n_procs: int) -> np.ndarray:
    """(n_procs, n_samples) unit-power complex Gaussians with exact Bessel
    autocorrelation."""
    # zero Doppler: one constant draw per process (r = 1) and no factor; the
    # factor's scipy.special import costs about 0.2 s and 25 MB of RSS (2-vCPU x86-64)
    fac = None if f_d_norm == 0.0 else _jakes_factor(n_samples, f_d_norm)
    shape = (n_procs, 1 if fac is None else fac.shape[1])
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return np.repeat(w, n_samples, axis=1) if fac is None else _serial_matmul(w, fac.T)


def realize_channel(profile: ChannelProfile, cfg: GridConfig, seed,
                    n_samples: int | None = None) -> np.ndarray:
    """Draw one channel realization over the frame window: the (n_samples, L)
    tap gains ``taps[n, l]``, zero in the columns of empty delays.

    Taps are mutually independent, zero-mean complex Gaussian and stationary
    with autocorrelation J_0(2*pi*f_D*T_s*lag); tap powers follow the
    sample-quantized profile.  Requires n_cp >= L - 1.
    """
    rng = np.random.default_rng(seed)
    if n_samples is None:
        n_samples = cfg.frame_len
    L = profile.length(cfg)
    delays, powers = profile.quantized(cfg.T_s)
    procs = _jakes_process(n_samples, profile.f_D * cfg.T_s, rng, len(delays))
    taps = np.zeros((n_samples, L), dtype=complex)
    taps[:, delays] = (np.sqrt(powers)[:, None] * procs).T
    return taps


def effective_channel(taps: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """True effective taps g[n, l] = psi[n] h[n, l].

    The trailing samples of the phase path psi align with the channel window
    (the path may include the CP, the channel does not)."""
    n = taps.shape[0]
    if psi.size < n:
        raise ValueError("phase path shorter than channel window")
    return psi[-n:, None] * taps


def apply_channel(s: np.ndarray, taps: np.ndarray, psi: np.ndarray,
                  noise_var: float, seed) -> np.ndarray:
    """Pass transmit samples through the LTV channel plus phase noise.

    The output covers the channel window, the last ``n = len(taps)`` samples
    of ``s``: with ``off = len(s) - n``,

        r[k] = psi[k] * sum_l h[k, l] * s[off + k - l] + eta[k],  k < n,

    where samples before ``s[0]`` are zero and psi is the trailing n samples
    of the path.  An OTFS block with its CP (off = n_cp >= L - 1) thus sees
    a circular convolution of the CP-free block; an OFDM stream with
    ``n = len(s)`` (off = 0) sees a linear one.
    """
    rng = np.random.default_rng(seed)
    s = np.asarray(s).ravel()
    n = taps.shape[0]
    off = s.size - n
    if off < 0:
        raise ValueError(f"{s.size} samples cannot fill a {n}-sample channel window")
    acc = np.zeros(n, dtype=complex)
    for l in range(taps.shape[1]):
        k = max(l - off, 0)             # outputs before k see no sample of s
        acc[k:] += taps[k:, l] * s[off + k - l:off + n - l]
    r = psi[-n:] * acc
    if noise_var > 0:
        r = r + np.sqrt(noise_var / 2.0) * (rng.standard_normal(n)
                                            + 1j * rng.standard_normal(n))
    return r

