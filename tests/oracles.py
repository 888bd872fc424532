"""Dense references the tests compare the library against (small grids only:
each forms an MN x MN or N x N matrix)."""

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


def effective_dd_channel(chan, psi, cfg):
    """G_DD = (F_N kron I_M) diag(psi) H_DT (F_N^H kron I_M); the demodulated
    receive vector equals G_DD @ x plus noise."""
    return dd_transform(banded_circular(effective_channel(chan, psi)).toarray(), cfg)


def as_dense(op):
    """Dense DdPhaseOperator: block (p, q) is diag(phi[:, (p-q) mod N])."""
    M, N = op.phi.shape
    out = np.zeros((M * N, M * N), dtype=complex)
    for p in range(N):
        for q in range(N):
            blk = np.diag(op.phi[:, (p - q) % N])
            out[p * M:(p + 1) * M, q * M:(q + 1) * M] = blk
    return out


def k_phi(model, cfg):
    """Full N x N coefficient autocorrelation K = F R F^H / N, with R the
    Toeplitz matrix of rotation factors at lags |k-l|*M."""
    lags = np.abs(np.subtract.outer(np.arange(cfg.N), np.arange(cfg.N))) * cfg.M
    R = expected_rotation(model, lags)
    F = np.fft.fft(np.eye(cfg.N)) / np.sqrt(cfg.N)
    return F @ R @ F.conj().T / cfg.N
