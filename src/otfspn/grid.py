"""OTFS/OFDM frame geometry, QAM mapping and the modem transforms.

Conventions fixed once for the whole package:

* the delay-Doppler grid ``X`` is an ``M x N`` complex matrix, delay index
  ``m`` along rows, Doppler index ``n`` along columns;
* vectorization is column-major, ``x[m + n*M] = X[m, n]``;
* all DFTs are unitary (``1/sqrt(N)`` both ways), so every transform here
  preserves energy.

OTFS modulation is the row-wise N-point unitary IDFT (Doppler -> time)
followed by vectorization; one cyclic prefix covers the whole frame.  The
equivalent OFDM system uses M subcarriers and N symbols with a per-symbol CP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridConfig:
    """Frame geometry: M delay bins, N Doppler bins, CP length in samples."""

    M: int
    N: int
    n_cp: int
    bandwidth: float = 7.68e6

    def __post_init__(self):
        if self.M < 2 or self.N < 2:
            raise ValueError(f"need M >= 2 and N >= 2, got M={self.M}, N={self.N}")
        if self.n_cp < 0:
            raise ValueError("n_cp must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def T_s(self) -> float:
        return 1.0 / self.bandwidth

    @property
    def doppler_spacing(self) -> float:
        return 1.0 / (self.M * self.N * self.T_s)

    @property
    def frame_len(self) -> int:
        return self.M * self.N


@dataclass(frozen=True)
class QamConfig:
    """Square QAM with unit average power and per-axis Gray labelling."""

    order: int = 4

    def __post_init__(self):
        if self.order not in (4, 16):
            raise ValueError(f"unsupported QAM order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def levels_per_axis(self) -> int:
        return int(np.sqrt(self.order))


def frozen_cache(fn):
    """``functools.lru_cache(maxsize=16)`` of ``fn`` that marks every ndarray
    in its result, returned alone or in a tuple, read-only: the one policy
    for the values that all trials of a sweep point share."""
    @functools.lru_cache(maxsize=16)
    @functools.wraps(fn)
    def frozen(*args):
        out = fn(*args)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return out
    return frozen


# OpenBLAS hands a GEMM to its thread pool once M*N*K reaches _POOL_MNK, and
# a complex GEMV (a product with one column) once its matrix holds _POOL_MV
# entries; waking the parked pool costs milliseconds, far more than a
# trial's small products
_POOL_MNK = 65536
_POOL_MV = 4096


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` bit for bit, as equal row blocks of ``a`` (column blocks of
    ``b`` if longer) under OpenBLAS's threading cut-off, on this thread.  A
    block of one row or column would change the kernel (GEMM to GEMV, GEMV
    to a dot product); then the product stays whole.  So does one row times
    a matrix: its column blocks did not keep the bits."""
    m, k = a.shape
    n = b.shape[1]
    size, other = (m, n) if m >= n else (n, m)
    if other > 1:
        cut = _POOL_MNK
    elif n == 1:
        cut = _POOL_MV
    else:
        return a @ b
    if m * n * k < cut:
        return a @ b
    parts = -(-size // max((cut - 1) // (other * k), 1))
    if size // parts < 2:
        return a @ b
    out = np.empty((m, n), dtype=np.result_type(a, b))
    cuts = [i * size // parts for i in range(parts + 1)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if m >= n:
            np.matmul(a[lo:hi], b, out=out[lo:hi])
        else:
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


# Gray-coded PAM levels per axis, indexed by the Gray label's value, before
# the unit-power scaling.  Label 0 maps to +1 so 4-QAM bits 00 land on
# (1+1j)/sqrt(2).
_PAM = {2: (1.0, -1.0), 4: (3.0, 1.0, -3.0, -1.0)}


@frozen_cache
def _axis_tables(cfg: QamConfig):
    """(bits per axis, unit-power levels indexed by Gray label value) for one
    axis."""
    levels = np.array(_PAM[cfg.levels_per_axis])
    # unit average symbol power: E|s|^2 = 2 * E[level^2] * scale^2 = 1
    scale = 1.0 / np.sqrt(2.0 * np.mean(levels**2))
    return cfg.bits_per_symbol // 2, levels * scale


def qam_map(bits, cfg: QamConfig) -> np.ndarray:
    """Map a bit sequence to unit-power Gray QAM symbols.

    Bits are consumed ``bits_per_symbol`` at a time; the first half labels
    the I axis, the second half the Q axis.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = cfg.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    k, levels = _axis_tables(cfg)
    b = bits.reshape(-1, bps)
    weights = 1 << np.arange(k - 1, -1, -1)
    return levels[b[:, :k] @ weights] + 1j * levels[b[:, k:] @ weights]


def _nearest_labels(symbols: np.ndarray, cfg: QamConfig) -> np.ndarray:
    """(n, 2) Gray labels of the level nearest to each symbol's I and Q
    value; a value on a decision edge takes the lower level."""
    levels = _axis_tables(cfg)[1]
    order = np.argsort(levels)          # level rank -> Gray label
    ranked = levels[order]
    edges = 0.5 * (ranked[1:] + ranked[:-1])
    iq = np.asarray(symbols, dtype=complex).ravel().view(np.float64)
    return order[np.searchsorted(edges, iq)].reshape(-1, 2)


def qam_demap(symbols, cfg: QamConfig) -> np.ndarray:
    """Hard-decision demapping (nearest level per axis), inverse of qam_map."""
    k = cfg.bits_per_symbol // 2
    labels = _nearest_labels(symbols, cfg)
    return ((labels[:, :, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()


@frozen_cache
def constellation(cfg: QamConfig) -> np.ndarray:
    """All constellation points, indexed by the integer formed by their bits."""
    bps = cfg.bits_per_symbol
    all_bits = ((np.arange(cfg.order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
    return qam_map(all_bits, cfg)


def _check_frame(X: np.ndarray, cfg: GridConfig):
    if X.shape != (cfg.M, cfg.N):
        raise ValueError(f"frame shape {X.shape} does not match grid ({cfg.M}, {cfg.N})")


def otfs_modulate(X: np.ndarray, cfg: GridConfig, with_cp: bool = True) -> np.ndarray:
    """M x N delay-Doppler frame -> delay-time samples, CP prepended.

    Row-wise N-point unitary IDFT then column-major vectorization, i.e.
    ``s = (F_N^H kron I_M) x``.  Output length is ``M*N + n_cp`` (or ``M*N``
    with ``with_cp=False``).
    """
    _check_frame(X, cfg)
    S = np.fft.ifft(X, axis=1) * np.sqrt(cfg.N)
    s = S.reshape(-1, order="F")
    if with_cp and cfg.n_cp:
        s = np.concatenate([s[-cfg.n_cp:], s])
    return s


def otfs_demodulate(r: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Delay-time samples (CP already removed) -> M x N delay-Doppler frame.

    Applies ``(F_N kron I_M)``; exact inverse of otfs_modulate.
    """
    r = np.asarray(r).ravel()
    if r.size != cfg.frame_len:
        raise ValueError(f"expected {cfg.frame_len} samples, got {r.size}")
    R = r.reshape(cfg.M, cfg.N, order="F")
    return np.fft.fft(R, axis=1) / np.sqrt(cfg.N)


def ofdm_modulate(X: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """M-subcarrier, N-symbol OFDM with per-symbol CP.

    Column n of the frame is one OFDM symbol: M-point unitary IDFT plus a
    CP of n_cp samples, symbols concatenated in time.  Output length is
    ``N * (M + n_cp)``.
    """
    _check_frame(X, cfg)
    T = np.fft.ifft(X, axis=0) * np.sqrt(cfg.M)
    if cfg.n_cp:
        T = np.vstack([T[-cfg.n_cp:, :], T])
    return T.reshape(-1, order="F")


def ofdm_demodulate(r: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Inverse of ofdm_modulate: strip per-symbol CP, M-point unitary DFT."""
    r = np.asarray(r).ravel()
    sym_len = cfg.M + cfg.n_cp
    if r.size != cfg.N * sym_len:
        raise ValueError(f"expected {cfg.N * sym_len} samples, got {r.size}")
    T = r.reshape(sym_len, cfg.N, order="F")[cfg.n_cp:, :]
    return np.fft.fft(T, axis=0) / np.sqrt(cfg.M)
