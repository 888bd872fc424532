"""References the tests compare the library against.  The dense ones form an
MN x MN or N x N matrix, so they take small grids only."""

import numpy as np

from otfspn.channel import effective_channel
from otfspn.equalization import banded_circular
from otfspn.oscillator import expected_rotation


def dd_transform(mat, cfg):
    """(F_N kron I_M) @ mat @ (F_N^H kron I_M) without forming Kronecker factors."""
    T = mat.reshape(cfg.N, cfg.M, cfg.N, cfg.M)
    T = np.fft.fft(T, axis=0) / np.sqrt(cfg.N)
    T = np.fft.ifft(T, axis=2) * np.sqrt(cfg.N)
    return T.reshape(cfg.frame_len, cfg.frame_len)


def effective_dd_channel(taps, psi, cfg):
    """G_DD = (F_N kron I_M) diag(psi) H_DT (F_N^H kron I_M); the demodulated
    receive vector equals G_DD @ x plus noise."""
    return dd_transform(banded_circular(effective_channel(taps, psi)).toarray(), cfg)


def dd_apply(phi, x):
    """Multiply a vectorized delay-Doppler frame by the block-circulant
    phase-noise operator of the (M, N) coefficients ``phi``.

    Per delay bin this is a circular convolution along Doppler, done with
    FFTs; identical to demodulate(psi * modulate(x)).
    """
    X = np.asarray(x).reshape(phi.shape, order="F")
    Y = np.fft.ifft(np.fft.fft(X, axis=1) * np.fft.fft(phi, axis=1), axis=1)
    return Y.reshape(-1, order="F")


def as_dense(phi):
    """Dense phase-noise operator of the (M, N) coefficients ``phi``:
    block (p, q) is diag(phi[:, (p-q) mod N])."""
    M, N = phi.shape
    out = np.zeros((M * N, M * N), dtype=complex)
    for p in range(N):
        for q in range(N):
            blk = np.diag(phi[:, (p - q) % N])
            out[p * M:(p + 1) * M, q * M:(q + 1) * M] = blk
    return out


def k_phi(model, cfg):
    """Full N x N coefficient autocorrelation K = F R F^H / N, with R the
    Toeplitz matrix of rotation factors at lags |k-l|*M."""
    lags = np.abs(np.subtract.outer(np.arange(cfg.N), np.arange(cfg.N))) * cfg.M
    R = expected_rotation(model, lags)
    F = np.fft.fft(np.eye(cfg.N)) / np.sqrt(cfg.N)
    return F @ R @ F.conj().T / cfg.N


def harden(x_dd, mask, points):
    """Nearest-constellation decisions on the data cells, zeros elsewhere, by
    an argmin of |x - p| over every point: LSMR-IC's former decision rule."""
    hard = np.zeros_like(x_dd)
    data = x_dd[mask]
    idx = np.argmin(np.abs(data[:, None] - points[None, :]), axis=1)
    hard[mask] = points[idx]
    return hard


def merged_taps(profile, T_s):
    """``ChannelProfile.quantized`` as a dict merge: each tap's power added,
    in profile order, to its sample index's sum, which starts from 0.0."""
    idx = np.rint(np.asarray(profile.delays) / T_s).astype(int)
    out = {}
    for i, p in zip(idx, profile.powers):
        out[i] = out.get(i, 0.0) + p
    keys = sorted(out)
    return np.array(keys), np.array([out[k] for k in keys])
