"""Oscillator phase-noise models: sample paths, variograms, rotation factors.

Three oscillator families are supported:

* ``FRO``  -- free-running oscillator.  The phase is a Wiener process with
  per-sample increment variance ``nu2 = 4*pi*beta*T_s``, so the increment
  variance over a lag of ``delta`` samples grows linearly.
* ``CPLL`` -- first-order continuous-time PLL with a noiseless reference and
  a noisy VCO.  The output phase is an Ornstein-Uhlenbeck process, sampled
  exactly (no Euler bias): an AR(1) with pole ``exp(-F_pll*T_s)``.
* ``DPLL`` -- the bilinear-transform discretization of the same loop.  The
  filter chain reduces to a first-order AR recursion whose autocovariance is
  ``K(delta) = (b^2 nu2 / (1-a^2)) * a^(2|delta|)`` with
  ``a = (2 - T_s F)/(2 + T_s F)`` and ``b = 2/(2 + T_s F)``.

For every family the variogram is the variance of the phase increment over a
lag, ``sigma2(delta) = Var(theta[n+delta] - theta[n])``, and for these
zero-mean Gaussian processes the mean rotation of a data symbol is
``E[exp(j*dtheta)] = exp(-sigma2(delta)/2)``.  Sample-path generation is
exact in second-order statistics, so Monte Carlo runs reproduce the
analytical interference expressions without discretization bias.

``path_blocks`` draws a batch of independent paths as angle matrices of a
chosen number of rows, in the same random stream whatever that number, so
a caller can hold a few paths at a time; ``sample_path`` gives one path as
the rotation ``exp(j*theta)``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

KINDS = ("FRO", "CPLL", "DPLL")


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Oscillator family plus its linewidth/loop parameters.

    beta_pn is the one-sided 3 dB linewidth of the Lorentzian oscillator
    spectrum in Hz; f_pll the loop filter coefficient in 1/s (ignored for
    FRO); T_s the sample period in seconds.
    """

    kind: str
    beta_pn: float
    T_s: float
    f_pll: float = 1e6

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown oscillator kind {self.kind!r}")
        if self.beta_pn < 0:
            raise ValueError("beta_pn must be >= 0")
        if self.T_s <= 0:
            raise ValueError("T_s must be positive")
        if self.kind != "FRO" and self.f_pll <= 0:
            raise ValueError("f_pll must be positive for PLL models")
        if self.kind == "DPLL" and abs(self.a_pll) >= 1:    # CPLL reads no a
            raise ValueError(f"unstable discrete PLL: |a| >= 1 at f_pll = {self.f_pll}"
                             f" (T_s*f_pll = {self.T_s * self.f_pll:g})")

    @property
    def nu2_pn(self) -> float:
        """Per-sample phase increment variance of the free-running VCO."""
        return 4.0 * np.pi * self.beta_pn * self.T_s

    @property
    def a_pll(self) -> float:
        return (2.0 - self.T_s * self.f_pll) / (2.0 + self.T_s * self.f_pll)

    @property
    def b_pll(self) -> float:
        return 2.0 / (2.0 + self.T_s * self.f_pll)


def dpll_autocovariance(model: PhaseNoiseModel, lags) -> np.ndarray:
    """Stationary autocovariance of the discrete PLL output phase.

    K(delta) = (b^2 nu2 / (1 - a^2)) * a^(2|delta|); the prefactor equals
    2*pi*beta/F_pll.
    """
    if model.kind != "DPLL":
        raise ValueError("dpll_autocovariance is only defined for DPLL models")
    lags = np.abs(np.asarray(lags, dtype=float))
    a, b = model.a_pll, model.b_pll
    k0 = b**2 * model.nu2_pn / (1.0 - a**2)
    return k0 * a ** (2.0 * lags)


def variogram(model: PhaseNoiseModel, delta) -> np.ndarray:
    """Variance of the phase increment over a lag of ``delta`` samples."""
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("lag must be >= 0")
    if model.kind == "FRO":
        out = model.nu2_pn * delta
    elif model.kind == "CPLL":
        f = model.f_pll
        out = (2.0 * np.pi * model.beta_pn / f) * (1.0 - np.exp(-delta * f * model.T_s))
    else:  # DPLL: increment variance of the stationary AR output, 2*(K(0)-K(d))
        k = dpll_autocovariance(model, delta)
        k0 = dpll_autocovariance(model, 0)
        out = 2.0 * (k0 - k)
    return out if out.ndim else float(out)


def expected_rotation(model: PhaseNoiseModel, delta) -> np.ndarray:
    """E[exp(j*(theta[n+delta]-theta[n]))] = exp(-variogram/2), real in (0, 1]."""
    v = variogram(model, delta)
    return np.exp(-0.5 * v)


def path_blocks(model: PhaseNoiseModel, n_paths: int, length: int, seed,
                rows: int) -> Iterator[np.ndarray]:
    """Phase angles of ``n_paths`` independent paths of ``length`` samples,
    exact stationary statistics, yielded in blocks of ``rows`` paths (the
    last block may hold fewer): (rows, length) matrices, one path per row.

    The blocks, stacked, are the same bits for every ``rows``; ``rows =
    n_paths`` yields the whole matrix at once.  The random stream is read
    in path order: CPLL and DPLL first draw every path's start, then the
    innovations block by block.  ``seed`` may be an integer (counter-style
    per-trial seeding) or an existing numpy Generator, drawn from as the
    blocks are read.
    """
    if length < 1:
        raise ValueError("path length must be >= 1")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    rng = np.random.default_rng(seed)
    pll = model.kind != "FRO" and model.beta_pn > 0.0
    if pll:
        if model.kind == "CPLL":
            rho = np.exp(-model.f_pll * model.T_s)
            var0 = np.pi * model.beta_pn / model.f_pll
        else:  # DPLL: AR(1) matching the a^(2|n|) autocovariance exactly
            rho = model.a_pll**2
            var0 = float(dpll_autocovariance(model, 0))
        theta0 = rng.normal(0.0, np.sqrt(var0), size=n_paths)
        if length > 1:
            # Imported here: scipy.signal also loads scipy.stats and scipy.optimize,
            # which would more than double the package's import time for FRO runs.
            from scipy.signal import lfilter
    for lo in range(0, n_paths, rows):
        hi = min(lo + rows, n_paths)
        theta = np.zeros((hi - lo, length))
        if pll:
            theta[:, 0] = theta0[lo:hi]
            if length > 1:
                innov = rng.normal(0.0, np.sqrt(var0 * (1.0 - rho**2)),
                                   size=(hi - lo, length - 1))
                theta[:, 1:], _ = lfilter([1.0], [1.0, -rho], innov, axis=1,
                                          zi=(rho * theta0[lo:hi])[:, None])
        elif length > 1 and model.beta_pn > 0.0:    # FRO: a Wiener walk from 0
            eps = rng.normal(0.0, np.sqrt(model.nu2_pn), size=(hi - lo, length - 1))
            np.cumsum(eps, axis=1, out=theta[:, 1:])
        yield theta


def sample_path(model: PhaseNoiseModel, length: int, seed) -> np.ndarray:
    """One phase path of ``length`` samples as the unit-modulus rotation
    psi = exp(j*theta) that multiplies the received samples."""
    return np.exp(1j * next(path_blocks(model, 1, length, seed, 1))[0])
