"""Symbol recovery: linear MMSE, LSMR with interference cancellation,
rate-1/2 convolutional coding and the frame-level metrics.

The effective delay-time channel matrix G is banded circular (row n holds
the tap gains g[n, l] at columns (n - l) mod MN), so both equalizers solve
in that domain; the delay-Doppler map is unitary, so a delay-Doppler solve
would give the same estimate.  MMSE solves the normal equations
(G^H G + s I) x = G^H y.
G^H G is Hermitian and circularly banded with half-bandwidth L - 1: its L
diagonals are summed straight from the taps, and with the unknowns taken
in the folded order 0, MN-1, 1, MN-2, ... the circular band becomes an
ordinary band of half-width 2L - 2, which one banded Cholesky solves
(LAPACK zpbsv; Golub & Van Loan, Matrix Computations).  LSMR-IC runs an
in-house LSMR (Fong & Saunders, SIAM J. Sci. Comput. 2011) on
``ChannelOp``, which holds G and G^H as CSR matrices whose rows list the
taps in lag order, so every product sums exactly as the tap-gather formula
does and the iterates are bitwise equal to ``scipy.sparse.linalg.lsmr``'s.
The known pilot/guard content is reconstructed and cancelled before
detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, nan, sqrt

import numpy as np

from .estimation import PilotLayout, _cancel_pilot, extract_data
from .grid import (GridConfig, QamConfig, _axis_tables, _nearest_labels, constellation,
                   frozen_cache, otfs_demodulate, otfs_modulate)


@dataclass
class DetectionResult:
    symbols: np.ndarray          # equalized data-cell symbols, layout order
    dd_grid: np.ndarray          # full equalized delay-Doppler grid
    residual: float = nan        # data residual ||y - G x||; only LSMR-IC sets it
    converged: bool = True


@frozen_cache
def _banded_index(mn: int, n_taps: int):
    """CSR column indices and row pointers of ``banded_circular`` (read as
    CSC, ``_adjoint``'s row indices and column pointers), in the index dtype
    scipy would pick, so no matrix copies or rescans them."""
    import scipy.sparse as sp

    dtype = sp.get_index_dtype(maxval=mn * n_taps)
    cols = ((np.arange(mn)[:, None] - np.arange(n_taps)) % mn).astype(dtype).ravel()
    return cols, np.arange(0, mn * n_taps + 1, n_taps, dtype=dtype)


def banded_circular(taps: np.ndarray):
    """Banded circular delay-time matrix of (mn, L) tap gains, as CSR.

    Row n holds taps[n, l] at column (n - l) mod mn.  Every row lists its L
    entries in lag order l = 0..L-1 and keeps explicit zeros, so a product
    sums the taps in that order.  The data is a complex copy of ``taps``;
    the index arrays are shared by every matrix of the same shape and are
    read-only.
    """
    import scipy.sparse as sp

    taps = np.asarray(taps)
    mn, n_taps = taps.shape
    cols, indptr = _banded_index(mn, n_taps)
    return sp.csr_matrix((taps.astype(complex).ravel(), cols, indptr), shape=(mn, mn))


class ChannelOp:
    """Banded-circular delay-time channel G and its adjoint, as CSR, for LSMR.

    G is ``banded_circular(g_dt)``: row n holds g[n, l] at column
    (n - l) mod MN.  G^H row m holds conj(g[(m + l) mod MN, l]) at column
    (m + l) mod MN.  Both are built once per frame, list each row's entries
    in lag order l = 0..L-1 and keep explicit zeros, so ``matvec`` and
    ``rmatvec`` equal the tap-gather sums sum_l g[n, l] x[(n - l) mod MN]
    bit for bit.  ``g_dt`` is not modified.
    """

    def __init__(self, g_dt: np.ndarray):
        import scipy.sparse as sp

        g = np.asarray(g_dt)
        self.mn, n_taps = g.shape
        self._G = banded_circular(g)
        cols = (np.arange(self.mn)[:, None] + np.arange(n_taps)) % self.mn
        gh = g[cols, np.arange(n_taps)]
        np.conjugate(gh, out=gh)
        self._GH = sp.csr_matrix((gh.ravel(), cols.ravel(), self._G.indptr),
                                 shape=(self.mn, self.mn))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._G @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._GH @ y


def _norm(v: np.ndarray) -> float:
    """numpy.linalg.norm of a 1-D complex vector, by its own formula."""
    return sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _sym_ortho(a: float, b: float):
    """Stable Givens rotation (c, s, r) of (a, b), as in scipy's LSQR/LSMR."""
    if b == 0:
        return float(np.sign(a)), 0, abs(a)
    if a == 0:
        return 0, float(np.sign(b)), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = (1.0 if b > 0 else -1.0) / sqrt(1 + tau * tau)
        c = s * tau
        return c, s, b / s
    tau = b / a
    c = (1.0 if a > 0 else -1.0) / sqrt(1 + tau * tau)
    s = c * tau
    return c, s, a / c


def _lsmr(op: ChannelOp, b: np.ndarray, damp: float, maxiter: int) -> np.ndarray:
    """min ||G x - b||^2 + damp^2 ||x||^2 by LSMR from x0 = 0.

    ``scipy.sparse.linalg.lsmr`` with atol = btol = 1e-6 and conlim = 1e8,
    restated without its operator wrapper and numpy scalars: the same
    recurrences, the same in-place array operations in the same order, the
    same norms and all seven stopping tests, so the returned iterate is
    bitwise equal to scipy's.  Scalars are Python floats, which round as
    numpy's float64 scalars do.
    """
    atol = btol = 1e-6
    ctol = 1e-8                                  # 1 / conlim
    x = np.zeros(op.mn, dtype=complex)
    normb = beta = _norm(b)
    if beta == 0:
        return x
    u = (1 / beta) * b
    v = op.rmatvec(u)
    alpha = _norm(v)
    if alpha == 0:
        return x
    v = (1 / alpha) * v

    zetabar = alpha * beta
    alphabar = alpha
    rho = rhobar = cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros(op.mn, dtype=complex)
    # estimation of ||r||
    betadd = beta
    betad = tautildeold = thetatilde = zeta = d = 0.0
    rhodold = 1.0
    # estimation of ||A|| and cond(A)
    normA2 = alpha * alpha
    maxrbar = 0.0
    minrbar = 1e100

    for itn in range(1, maxiter + 1):
        # bidiagonalization: beta*u = A v - alpha*u, alpha*v = A^H u - beta*v
        u *= -alpha
        u += op.matvec(v)
        beta = _norm(u)
        if beta > 0:
            u *= (1 / beta)
            v *= -beta
            v += op.rmatvec(u)
            alpha = _norm(v)
            if alpha > 0:
                v *= (1 / alpha)

        # rotations Qhat (damping), Q (B to R) and Qbar (R^T to Rbar)
        chat, shat, alphahat = _sym_ortho(alphabar, damp)
        rhoold = rho
        c, s, rho = _sym_ortho(alphahat, beta)
        thetanew = s * alpha
        alphabar = c * alpha
        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        rhotemp = cbar * rho
        cbar, sbar, rhobar = _sym_ortho(cbar * rho, thetanew)
        zeta = cbar * zetabar
        zetabar = - sbar * zetabar

        hbar *= - (thetabar * rho / (rhoold * rhobarold))
        hbar += h
        x += (zeta / (rho * rhobar)) * hbar
        h *= - (thetanew / rho)
        h += v

        # estimate of ||r||
        betaacute = chat * betadd
        betacheck = -shat * betadd
        betahat = c * betaacute
        betadd = -s * betaacute
        thetatildeold = thetatilde
        ctildeold, stildeold, rhotildeold = _sym_ortho(rhodold, thetabar)
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = - stildeold * betad + ctildeold * betahat
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        d = d + betacheck * betacheck
        normr = sqrt(d + (betad - taud)**2 + betadd * betadd)

        # estimates of ||A|| and cond(A)
        normA2 = normA2 + beta * beta
        normA = sqrt(normA2)
        normA2 = normA2 + alpha * alpha
        maxrbar = max(maxrbar, rhobarold)
        if itn > 1:
            minrbar = min(minrbar, rhobarold)
        condA = max(maxrbar, rhotemp) / min(minrbar, rhotemp)

        # stopping tests (scipy's istop 1..7)
        normar = abs(zetabar)
        normx = _norm(x)
        test1 = normr / normb
        test2 = normar / (normA * normr) if (normA * normr) != 0 else inf
        test3 = 1 / condA
        t1 = test1 / (1 + normA * normx / normb)
        rtol = btol + atol * normA * normx / normb
        if (itn >= maxiter or 1 + test3 <= 1 or 1 + test2 <= 1 or 1 + t1 <= 1
                or test3 <= ctol or test2 <= atol or test1 <= rtol):
            break
    return x


@frozen_cache
def _fold(mn: int, n_taps: int):
    """Folded order of MN unknowns and where A's diagonals go in its band.

    In the order perm = (0, MN-1, 1, MN-2, ...) the circular band of
    A = G^H G (A[m, (m + d) mod MN], |d| <= L-1) lies within 2L-2 of the
    diagonal, wrap corners included.  Entry m of diagonal d goes to
    ``flat[d, m]`` of the (2L-1, MN) upper band that zpbsv reads, flattened
    in its Fortran order, conjugated where ``conj[d, m]`` (the entry lands
    below the folded diagonal).
    """
    if mn < 2 * n_taps - 1:
        raise ValueError(f"banded MMSE needs M*N >= 2L-1, got M*N={mn}, L={n_taps}")
    perm = np.empty(mn, dtype=np.intp)
    perm[0::2] = np.arange((mn + 1) // 2)
    perm[1::2] = np.arange(mn - 1, (mn - 1) // 2, -1)
    pos = np.empty(mn, dtype=np.intp)
    pos[perm] = np.arange(mn)
    col = pos[(np.arange(mn) + np.arange(n_taps)[:, None]) % mn]
    lo, hi = np.minimum(pos, col), np.maximum(pos, col)
    flat = hi * (2 * n_taps - 1) + 2 * n_taps - 2 + lo - hi
    return perm, flat, pos > col


def _normal_band(g_dt: np.ndarray, noise_var: float):
    """G^H G + noise_var I in folded order, as zpbsv's upper band.

    A[m, m+d] = sum_{l=d}^{L-1} conj(g[m+l, l]) g[m+l, l-d], indices mod MN;
    the taps are read with a wrap of L rows so every term is a contiguous
    slice.  Returns the (2L-1, MN) band and the folded order ``perm``.
    """
    g = np.asarray(g_dt)
    mn, n_taps = g.shape
    perm, flat, conj = _fold(mn, n_taps)
    gw = np.concatenate([g, g[:n_taps]]).T.astype(complex, order="C")
    diags = np.zeros((n_taps, mn), dtype=complex)
    for l in range(n_taps):
        rows = gw[:, l:l + mn]
        diags[:l + 1] += np.conj(rows[l]) * rows[l::-1]
    diags[0] += noise_var
    band = np.zeros((2 * n_taps - 1) * mn, dtype=complex)
    band[flat] = np.where(conj, np.conj(diags), diags)
    return band.reshape(2 * n_taps - 1, mn, order="F"), perm


def _solve_normal(g_dt: np.ndarray, b: np.ndarray, noise_var: float) -> np.ndarray:
    """(G^H G + noise_var I)^-1 b by one banded Cholesky (LAPACK zpbsv) in
    folded order, in place on the fresh band and right-hand side."""
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import zpbsv

    band, perm = _normal_band(g_dt, noise_var)
    _, sol, info = zpbsv(band, b[perm], overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise LinAlgError(f"zpbsv failed with info = {info}")
    x = np.empty(len(perm), dtype=complex)
    x[perm] = sol
    return x


def _adjoint(g_dt: np.ndarray):
    """G^H of ``banded_circular(g_dt)``, for one product G^H y: the conjugated
    taps in G's own index arrays, read as CSC, so column n holds
    conj(g[n, l]) at rows (n - l) mod MN.  That is the matrix
    ``G.conj().T``, so the product sums in its order and gives its bits."""
    import scipy.sparse as sp

    taps = np.conj(np.asarray(g_dt, dtype=complex))
    mn, n_taps = taps.shape
    rows, indptr = _banded_index(mn, n_taps)
    return sp.csc_matrix((taps.ravel(), rows, indptr), shape=(mn, mn))


def mmse_equalize(r: np.ndarray, g_dt: np.ndarray, noise_var: float,
                  cfg: GridConfig, layout: PilotLayout) -> DetectionResult:
    """Linear MMSE detection, x_hat = (G^H G + noise_var I)^-1 G^H y.

    The pilot contribution predicted by the channel estimate is subtracted
    from y first; the solve runs on the banded normal equations in
    delay-time.
    """
    y = _cancel_pilot(r, g_dt, cfg, layout)
    x_dt = _solve_normal(g_dt, _adjoint(g_dt) @ y, noise_var)
    x_dd = otfs_demodulate(x_dt, cfg)
    return DetectionResult(extract_data(x_dd, layout, cfg), x_dd)


def _harden(x_dd: np.ndarray, mask: np.ndarray, qam: QamConfig) -> np.ndarray:
    """Nearest-constellation decisions on the data cells, zeros elsewhere,
    decided per axis by ``qam_demap``'s rule."""
    hard = np.zeros_like(x_dd)
    iq = _axis_tables(qam)[1][_nearest_labels(x_dd[mask], qam)]    # (cells, 2)
    hard[mask] = iq.view(complex)[:, 0]
    return hard


def _quantile(values: np.ndarray, q: float) -> np.float64:
    """``np.quantile(values, q)`` bit for bit from two order statistics:
    numpy 2.4's 'linear' virtual index, partition points, NaN rule and
    ``_lerp``, without its general machinery."""
    n = values.size
    virtual = (n - 1) * q
    prev = floor(virtual)
    nxt = prev + 1
    if virtual >= n - 1:
        prev = nxt = -1
    part = np.partition(values, sorted({0, -1, prev, nxt}))
    if np.isnan(part[-1]):          # a NaN sorts last and makes the quantile NaN
        return np.float64(nan)
    a, b = part[prev], part[nxt]
    t = virtual - prev
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def lsmr_ic_equalize(r: np.ndarray, g_dt: np.ndarray, noise_var: float,
                     cfg: GridConfig, layout: PilotLayout, qam: QamConfig,
                     i_ic: int = 10, i_lsmr: int = 20) -> DetectionResult:
    """Iterative detection: damped LSMR solves with interference cancellation.

    Each outer pass hard-decides the data symbols, cancels the most reliable
    fraction (growing to all of them by the last pass, most reliable first)
    and re-solves the damped least-squares problem for the remainder with
    I_lsmr inner iterations.  An iterate is kept only if it does not
    increase the data residual, so the reported residual is non-increasing;
    if the final pass was rejected the result is flagged unconverged.
    """
    op = ChannelOp(g_dt)
    damp = float(np.sqrt(noise_var))
    mask = layout.data_mask(cfg)
    y = _cancel_pilot(r, g_dt, cfg, layout)

    x_dt = _lsmr(op, y, damp, i_lsmr)
    x_dd = otfs_demodulate(x_dt, cfg)
    best_res = float(np.linalg.norm(y - op.matvec(x_dt)))
    converged = True
    for t in range(1, i_ic + 1):
        hard = _harden(x_dd, mask, qam)
        frac = t / i_ic
        if frac < 1.0:
            # cancel only the most reliable decisions on early passes
            err = np.abs(x_dd - hard)[mask]
            hard[mask] = np.where(err <= _quantile(err, frac), hard[mask], 0.0)
        s_hard = otfs_modulate(hard, cfg, with_cp=False)
        cand_dt = s_hard + _lsmr(op, y - op.matvec(s_hard), damp, i_lsmr)
        cand_res = float(np.linalg.norm(y - op.matvec(cand_dt)))
        converged = cand_res <= best_res
        if converged:
            best_res, x_dd = cand_res, otfs_demodulate(cand_dt, cfg)
    return DetectionResult(extract_data(x_dd, layout, cfg), x_dd, best_res, converged)


# --------------------------------------------------------------------------
# Rate-1/2 convolutional code, constraint length 7, generators (133, 171)
# --------------------------------------------------------------------------

CONV_K = 7
CONV_GENS = (0o133, 0o171)
_N_STATES = 1 << (CONV_K - 1)


def _parity(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    while np.any(x):
        out ^= x & 1
        x = x >> 1
    return out


def _tables():
    """The two output bits out[s, b, 0:2] of input b in state s; the next
    state is ((b << (K-1)) | s) >> 1."""
    states = np.arange(_N_STATES)
    out = np.empty((_N_STATES, 2, 2), dtype=np.int64)
    for b in (0, 1):
        full = (b << (CONV_K - 1)) | states   # newest bit in the MSB
        for i, g in enumerate(CONV_GENS):
            out[:, b, i] = _parity(full & g)
    return out


_OUT = _tables()


def conv_encode(bits) -> np.ndarray:
    """Zero-terminated rate-1/2 encoding; output has 2*(len(bits)+6) bits.

    Output j of step i XORs inputs i-d over the set bits K-1-d of
    generator j, as shifted slices of the zero-padded input."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    zeros = np.zeros(CONV_K - 1, dtype=np.int64)
    reg = np.concatenate([zeros, bits, zeros])
    n = bits.size + CONV_K - 1
    out = np.zeros((n, 2), dtype=np.int64)
    for j, g in enumerate(CONV_GENS):
        for d in range(CONV_K):
            if g >> (CONV_K - 1 - d) & 1:
                out[:, j] ^= reg[CONV_K - 1 - d:CONV_K - 1 - d + n]
    return out.ravel()


# For destination state d the input bit is its MSB and the two candidate
# sources differ in their oldest bit: src in {2*(d & half-1), +1}, so each
# half of the destinations reads the even (odd) sources in order.
_DST = np.arange(_N_STATES)
_DST_BIT = _DST >> (CONV_K - 2)
_SRC0 = (_DST & ((1 << (CONV_K - 2)) - 1)) << 1
_SRC1 = _SRC0 + 1
_HALF = _N_STATES // 2
# traceback code of each choice: (source state << 1) | decoded bit
_CODE0 = (_SRC0 << 1) | _DST_BIT
_CODE1 = (_SRC1 << 1) | _DST_BIT


def _viterbi_forward(llrs: np.ndarray):
    """Add-compare-select over (n_steps, 2) LLRs: the final path metrics and
    the (n_steps, states) choices, True where the even source won."""
    n_steps = llrs.shape[0]
    # cost of sending bit value o against an LLR that favors 0: o * llr
    cost0, cost1 = ((_OUT[src, _DST_BIT, 0] * llrs[:, :1]
                     + _OUT[src, _DST_BIT, 1] * llrs[:, 1:]).reshape(n_steps, 2, _HALF)
                    for src in (_SRC0, _SRC1))
    pms = np.full((2, _N_STATES), 1e30)   # metrics before and after a step
    pms[0, 0] = 0.0
    c0 = np.empty((2, _HALF))
    take0 = np.empty((n_steps, 2, _HALF), dtype=bool)
    # step t reads buffer t & 1 and writes the other, in two halves
    views = [(pms[k, 0::2], pms[k, 1::2], pms[1 - k].reshape(2, _HALF)) for k in (0, 1)]
    for t in range(n_steps):
        even, odd, pm = views[t & 1]
        np.add(even, cost0[t], out=c0)
        np.add(odd, cost1[t], out=pm)
        np.less_equal(c0, pm, out=take0[t])
        np.copyto(pm, c0, where=take0[t])
    return pms[n_steps & 1], take0.reshape(n_steps, _N_STATES)


def viterbi_decode(llrs, n_info: int) -> np.ndarray:
    """Soft-input Viterbi decoding of a zero-terminated block.

    ``llrs`` holds one log-likelihood ratio per coded bit (positive favors
    bit 0), two per trellis step.
    """
    llrs = np.asarray(llrs, dtype=float).reshape(-1, 2)
    n_steps = llrs.shape[0]
    if n_steps != n_info + CONV_K - 1:
        raise ValueError(f"expected {2 * (n_info + CONV_K - 1)} LLRs, got {2 * n_steps}")
    choice = np.where(_viterbi_forward(llrs)[1], _CODE0, _CODE1)
    s = 0  # zero tail forces the final state
    bits = np.empty(n_steps, dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        bits[t] = choice[t, s] & 1
        s = choice[t, s] >> 1
    return bits[:n_info]


def qam_llrs(symbols, qam: QamConfig, noise_var: float) -> np.ndarray:
    """Max-log LLRs (positive favors bit 0) for each bit of each symbol."""
    symbols = np.asarray(symbols).ravel()
    points = constellation(qam)
    bps = qam.bits_per_symbol
    labels = ((np.arange(qam.order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1)
    d2 = np.abs(symbols[:, None] - points[None, :]) ** 2
    nv = max(noise_var, 1e-12)
    llr = np.empty((symbols.size, bps))
    for j in range(bps):
        d0 = d2[:, labels[:, j] == 0].min(axis=1)
        d1 = d2[:, labels[:, j] == 1].min(axis=1)
        llr[:, j] = (d1 - d0) / nv
    return llr.ravel()


# --------------------------------------------------------------------------
# Frame metrics
# --------------------------------------------------------------------------

def ber(bits_hat, bits_true) -> float:
    bits_hat = np.asarray(bits_hat).ravel()
    bits_true = np.asarray(bits_true).ravel()
    if bits_hat.size != bits_true.size:
        raise ValueError("bit payloads differ in length")
    return float(np.mean(bits_hat != bits_true))


def evm(x_hat, x_true) -> float:
    x_hat = np.asarray(x_hat).ravel()
    x_true = np.asarray(x_true).ravel()
    return float(np.sqrt(np.sum(np.abs(x_hat - x_true) ** 2)
                         / np.sum(np.abs(x_true) ** 2)))


def nmse(g_est: np.ndarray, g_true: np.ndarray) -> float:
    g_est = np.asarray(g_est)
    g_true = np.asarray(g_true)
    if g_est.shape != g_true.shape:
        raise ValueError(f"shape mismatch {g_est.shape} vs {g_true.shape}")
    return float(np.sum(np.abs(g_est - g_true) ** 2)
                 / np.sum(np.abs(g_true) ** 2))
