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
    f_c: float = 5.9e9
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
    def subcarrier_spacing(self) -> float:
        return self.bandwidth / self.M

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


# Gray-coded PAM levels per axis, before the unit-power scaling.  The single
# bit 0 maps to +1 so 4-QAM bits 00 land on (1+1j)/sqrt(2).
_PAM = {
    2: {(0,): 1.0, (1,): -1.0},
    4: {(0, 0): 3.0, (0, 1): 1.0, (1, 1): -1.0, (1, 0): -3.0},
}


@frozen_cache
def _axis_tables(cfg: QamConfig):
    """(bits per axis, levels indexed by Gray label value, scale) for one
    axis."""
    k = cfg.bits_per_symbol // 2
    table = _PAM[cfg.levels_per_axis]
    levels = np.empty(cfg.levels_per_axis)
    for bits, lv in table.items():
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        levels[idx] = lv
    # unit average symbol power: E|s|^2 = 2 * E[level^2] * scale^2 = 1
    scale = 1.0 / np.sqrt(2.0 * np.mean(levels**2))
    return k, levels, scale


def qam_map(bits, cfg: QamConfig) -> np.ndarray:
    """Map a bit sequence to unit-power Gray QAM symbols.

    Bits are consumed ``bits_per_symbol`` at a time; the first half labels
    the I axis, the second half the Q axis.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = cfg.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    k, levels, scale = _axis_tables(cfg)
    b = bits.reshape(-1, bps)
    weights = 1 << np.arange(k - 1, -1, -1)
    i_idx = b[:, :k] @ weights
    q_idx = b[:, k:] @ weights
    return scale * (levels[i_idx] + 1j * levels[q_idx])


def qam_demap(symbols, cfg: QamConfig) -> np.ndarray:
    """Hard-decision demapping (nearest level per axis), inverse of qam_map."""
    symbols = np.asarray(symbols).ravel()
    k, levels, scale = _axis_tables(cfg)
    order = np.argsort(levels)          # level value -> Gray label index
    sorted_levels = levels[order] * scale
    edges = 0.5 * (sorted_levels[1:] + sorted_levels[:-1])
    bits = np.empty((symbols.size, cfg.bits_per_symbol), dtype=np.int64)
    for axis, vals in enumerate((symbols.real, symbols.imag)):
        idx = order[np.searchsorted(edges, vals)]
        for j in range(k):
            bits[:, axis * k + j] = (idx >> (k - 1 - j)) & 1
    return bits.ravel()


@frozen_cache
def constellation(cfg: QamConfig) -> np.ndarray:
    """All constellation points, indexed by the integer formed by their bits."""
    bps = cfg.bits_per_symbol
    all_bits = ((np.arange(cfg.order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
    return qam_map(all_bits, cfg)


@dataclass
class Frame:
    """Delay-Doppler frame; ``dd`` is the M x N symbol matrix."""

    dd: np.ndarray

    @property
    def vec(self) -> np.ndarray:
        return self.dd.reshape(-1, order="F")

    @classmethod
    def from_vec(cls, x: np.ndarray, cfg: GridConfig) -> "Frame":
        return cls(np.asarray(x).reshape(cfg.M, cfg.N, order="F"))


def _check_frame(X: np.ndarray, cfg: GridConfig):
    if X.shape != (cfg.M, cfg.N):
        raise ValueError(f"frame shape {X.shape} does not match grid ({cfg.M}, {cfg.N})")


def otfs_modulate(frame: Frame, cfg: GridConfig, with_cp: bool = True) -> np.ndarray:
    """Delay-Doppler frame -> delay-time samples, CP prepended.

    Row-wise N-point unitary IDFT then column-major vectorization, i.e.
    ``s = (F_N^H kron I_M) x``.  Output length is ``M*N + n_cp`` (or ``M*N``
    with ``with_cp=False``).
    """
    _check_frame(frame.dd, cfg)
    S = np.fft.ifft(frame.dd, axis=1) * np.sqrt(cfg.N)
    s = S.reshape(-1, order="F")
    if with_cp and cfg.n_cp:
        s = np.concatenate([s[-cfg.n_cp:], s])
    return s


def otfs_demodulate(r: np.ndarray, cfg: GridConfig) -> Frame:
    """Delay-time samples (CP already removed) -> delay-Doppler frame.

    Applies ``(F_N kron I_M)``; exact inverse of otfs_modulate.
    """
    r = np.asarray(r).ravel()
    if r.size != cfg.frame_len:
        raise ValueError(f"expected {cfg.frame_len} samples, got {r.size}")
    R = r.reshape(cfg.M, cfg.N, order="F")
    Y = np.fft.fft(R, axis=1) / np.sqrt(cfg.N)
    return Frame(Y)


def ofdm_modulate(frame: Frame, cfg: GridConfig) -> np.ndarray:
    """M-subcarrier, N-symbol OFDM with per-symbol CP.

    Column n of the frame is one OFDM symbol: M-point unitary IDFT plus a
    CP of n_cp samples, symbols concatenated in time.  Output length is
    ``N * (M + n_cp)``.
    """
    _check_frame(frame.dd, cfg)
    T = np.fft.ifft(frame.dd, axis=0) * np.sqrt(cfg.M)
    if cfg.n_cp:
        T = np.vstack([T[-cfg.n_cp:, :], T])
    return T.reshape(-1, order="F")


def ofdm_demodulate(r: np.ndarray, cfg: GridConfig) -> Frame:
    """Inverse of ofdm_modulate: strip per-symbol CP, M-point unitary DFT."""
    r = np.asarray(r).ravel()
    sym_len = cfg.M + cfg.n_cp
    if r.size != cfg.N * sym_len:
        raise ValueError(f"expected {cfg.N * sym_len} samples, got {r.size}")
    T = r.reshape(sym_len, cfg.N, order="F")[cfg.n_cp:, :]
    return Frame(np.fft.fft(T, axis=0) / np.sqrt(cfg.M))
