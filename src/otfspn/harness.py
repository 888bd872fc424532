"""Scenario configuration, Monte Carlo execution and CSV emission.

A scenario is a flat bag of parameters with exactly one sweep axis.  Every
sweep point runs ``trials`` independent frames; trial t draws all of its
randomness (bits, channel, phase path, noise) from one generator seeded with
``seed + t``, so the CSV bytes depend only on the scenario and the seed.
OTFS and OFDM trials share one runner; only the receiver differs.  Curves
that differ only in their receiver (estimator, equalizer and their
settings) draw the same frame in every trial, so they share one transmit per
trial: it is drawn once, up to the OTFS stage-1 estimate, and each receiver
reads it.

Metric rows carry the scenario hash (canonical JSON, SHA-256) so CSV output
is self-identifying; presets reproduce the reference experiments at desk
scale by default and at the full grid with ``full=True``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from . import channel as ch
from . import dd_analysis as dd
from . import equalization as eq
from . import estimation as est
from .grid import (QAM_ORDERS, GridConfig, QamConfig, ofdm_demodulate, ofdm_modulate,
                   otfs_modulate, qam_demap, qam_map)
from .oscillator import KINDS, PhaseNoiseModel, sample_path

# stage-2 interpolators of the OTFS estimators: (sweep point, g_hat) -> estimate
_INTERPOLATORS = {
    "proposed": lambda p, g_hat: est.stage2_estimate(g_hat, p.wiener),
    "bem": lambda p, g_hat: est.bem_estimate(
        g_hat, p.cfg, p.layout, p.profile.f_D, p.model.beta_pn,
        p.scenario.bem_k_over, p.scenario.bem_include_pn),
    "spline": lambda p, g_hat: est.spline_estimate(g_hat, p.cfg, p.layout),
    "stage1": lambda p, g_hat: est.stage1_hold_estimate(g_hat, p.cfg),
}
ESTIMATORS = (*_INTERPOLATORS, "perfect", "ofdm_ptrp", "ofdm_ptrp_interp")
SWEEPS = ("snr_db", "beta_pn", "f_pll", "f_D", "f_D_norm", "velocity")
# retired field -> the one value it had; hashed, so old scenario hashes stay put
_RETIRED = {"eq_domain": "delay_time"}
# Scenario field annotation -> accepted value type; a bool is no number here
_FIELD_TYPES = {"int": (Integral, "an integer"), "float": (Real, "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _f(default, choices=(), low=None, link=False, rx=False):
    """One row of the Scenario table: the default; the domain, a tuple of
    choices or a lower bound (">=", x) or (">", x); and whether only a link
    trial reads the field (link) or only its receiver does (rx)."""
    return field(default=default, metadata={"choices": choices, "low": low,
                                            "link": link, "rx": rx})


def _check_field(key: str, value, annotation: str, row) -> None:
    """Raise ValueError unless ``value`` fits the field's annotation and the
    domain of its table ``row``.

    Values are checked, never converted: 20 -> 20.0 would change the hash.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return
    want, what = _FIELD_TYPES[kind]
    if not isinstance(value, want) or (want is not bool and isinstance(value, bool)):
        hint = ""
        if kind == "float" and isinstance(value, str):
            hint = " (YAML reads 1.0e5 as text; write 1.0e+5)"
        raise ValueError(f"{key} must be {what}, got {value!r}{hint}")
    # not math.isfinite, which raises OverflowError for an int past the float range
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be finite, got {value!r}")
    if row["choices"] and value not in row["choices"]:
        raise ValueError(f"unknown {key} {value!r}, "
                         f"expected one of {', '.join(map(str, row['choices']))}")
    op, low = row["low"] or (None, None)
    if op and not (value > low if op == ">" else value >= low):
        raise ValueError(f"{key} must be {op} {low}, got {value}")


@dataclass(frozen=True)
class Scenario:
    """One simulation campaign: fixed parameters plus a single sweep axis.

    Each field is one row of the table of rules (see ``_f``): ``__post_init__``
    checks the fields against it, ``_resolve_point`` each sweep value."""

    name: str = _f("scenario", rx=True)
    kind: str = _f("link", ("link", "sinr"))  # link: BER/EVM/NMSE
    label: str = _f("", rx=True)        # metric-name prefix for multi-curve CSVs

    M: int = _f(32, low=(">=", 2))
    N: int = _f(16, low=(">=", 2))
    n_cp: int = _f(16, low=(">=", 0))
    f_c: float = _f(5.9e9, low=(">", 0))
    bandwidth: float = _f(7.68e6, low=(">", 0))
    qam_order: int = _f(4, QAM_ORDERS)

    oscillator: str = _f("FRO", KINDS)
    beta_pn: float = _f(2e3, low=(">=", 0))
    f_pll: float = _f(1e6, low=(">", 0))

    channel: str = _f("tdl_c", ("tdl_c", "awgn"), link=True)
    delay_spread: float = _f(100e-9, low=(">=", 0), link=True)
    velocity: float = _f(0.0, low=(">=", 0), link=True)     # km/h
    f_D: float | None = _f(None, low=(">=", 0), link=True)  # Hz; overrides velocity

    pilot_L: int | None = _f(None, low=(">=", 1), link=True)  # default: channel length
    pilot_boost_db: float = _f(30.0, link=True)

    estimator: str = _f("proposed", ESTIMATORS, link=True, rx=True)
    bem_k_over: float = _f(1.0, low=(">", 0), link=True, rx=True)
    bem_include_pn: bool = _f(False, link=True, rx=True)
    ptrp_spacing: int = _f(8, low=(">=", 1), link=True)

    equalizer: str = _f("mmse", ("mmse", "lsmr_ic"), link=True, rx=True)
    i_ic: int = _f(10, low=(">=", 1), link=True, rx=True)
    i_lsmr: int = _f(20, low=(">=", 1), link=True, rx=True)
    coded: bool = _f(False)
    snr_is_ebn0: bool = _f(False)

    snr_db: float = _f(20.0)
    sweep: str = _f("snr_db", SWEEPS)
    sweep_values: tuple = _f((0.0, 10.0, 20.0))
    trials: int = _f(100, low=(">=", 1))
    seed: int = _f(0, low=(">=", 0))

    def __post_init__(self):
        for f in fields(self):
            if f.name != "sweep_values":
                _check_field(f.name, getattr(self, f.name), f.type, f.metadata)
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ValueError(f"sweep_values must be a list, got {self.sweep_values!r}")
        for v in self.sweep_values:   # YAML reads 1.0e5 as text; float() takes it
            try:
                if isinstance(v, bool):     # a bool is no number here
                    raise TypeError
                finite = math.isfinite(float(v))
            except (TypeError, ValueError):
                raise ValueError(f"sweep_values entry {v!r} is not a number") from None
            except OverflowError:
                raise ValueError("a sweep_values entry is too large for a float") from None
            if not finite:
                raise ValueError(f"sweep_values entry {v!r} is not finite")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep_values must not be empty")
        top = np.iinfo(np.intp).max     # numpy indexes no array past this
        for key, n in (("M", self.M), ("N", self.N), ("M*N", self.M * self.N),
                       ("trials", self.trials)):
            if n > top:
                raise ValueError(f"{key} = {n} is past numpy's index range ({top})")
        # a sweep axis the scenario ignores would repeat one point
        if self.sweep == "f_pll" and self.oscillator == "FRO":
            raise ValueError("sweep f_pll has no effect on the FRO oscillator")
        if self.sweep == "velocity" and self.f_D is not None:
            raise ValueError("sweep velocity has no effect while f_D is set")
        if self.sweep == "f_D_norm":
            for key, unset in (("f_D", None), ("velocity", 0.0)):
                if getattr(self, key) != unset:
                    raise ValueError(f"{key} has no effect with sweep f_D_norm")
        if self.kind == "sinr":
            if self.sweep in ("velocity", "f_D", "f_D_norm"):
                raise ValueError(f"sweep {self.sweep} has no effect on kind 'sinr', "
                                 "which draws no channel")
            # a field the run ignores would give one experiment two hashes
            for f in fields(self):
                if f.metadata["link"] and getattr(self, f.name) != f.default:
                    raise ValueError(f"{f.name} has no effect on kind 'sinr', which "
                                     "draws no channel and runs no receiver")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sweep_values"] = list(self.sweep_values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)
        for key, frozen in _RETIRED.items():
            value = d.pop(key, frozen)
            if value != frozen:
                raise ValueError(f"{key} is retired: only {frozen!r} is accepted, "
                                 f"got {value!r}")
        if isinstance(d.get("sweep_values"), list):
            d["sweep_values"] = tuple(d["sweep_values"])
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown, key=str)}")
        return cls(**d)

    def _canonical(self, drop=()) -> str:
        d = {**self.to_dict(), **_RETIRED}
        # YAML reads 1.0e5 as text and 1.0e+5 as a number: one sweep, one hash
        d["sweep_values"] = [float(v) if isinstance(v, str) else v
                             for v in d["sweep_values"]]
        for key in drop:
            del d[key]
        return json.dumps(d, sort_keys=True, default=repr)

    def hash(self) -> str:
        return hashlib.sha256(self._canonical().encode()).hexdigest()[:16]


# f_D_norm, in multiples of the Doppler spacing, is a sweep axis only
_F_D_NORM = _f(None, low=(">=", 0))
# Scenario fields that only the receiver reads; link scenarios equal in every
# other field, and in waveform, share one transmit per trial
_RECEIVER_ONLY = tuple(f.name for f in fields(Scenario) if f.metadata["rx"])


@dataclass(frozen=True)
class ResultRow:
    sweep_name: str
    sweep_value: float
    metric: str
    value: float
    ci95: float
    trials: int
    scenario_hash: str
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
# each column's type, from its field's annotation (a string here)
_CSV_TYPES = tuple({"str": str, "float": float, "int": int}[f.type] for f in fields(ResultRow))


@contextmanager
def _open_out(path):
    """The CSV destination, which the CLI opens before the first trial:
    stdout if no path.  A regular file is written through a temporary file
    beside it that replaces it only if the write succeeds, so a failed run
    leaves an existing file as it was; any other path (a pipe, a device) is
    opened as given."""
    if path is None:
        yield sys.stdout
        return
    dest = os.path.realpath(path)
    direct = os.path.exists(dest) and not os.path.isfile(dest)
    tmp = dest if direct else f"{dest}.{os.getpid()}.tmp"
    try:
        f = open(tmp, "w" if direct else "x", encoding="utf-8", newline="")
    except OSError as e:
        raise OSError(f"cannot write CSV to {path}: {e}") from e
    try:
        with f:
            yield f
        if not direct:
            os.replace(tmp, dest)
    finally:
        if not direct and os.path.exists(tmp):
            os.remove(tmp)


def emit_csv(rows, path_or_file) -> None:
    """Write rows with the fixed column order to an open file or, through
    ``_open_out``, a path; floats use repr for exact round-tripping and
    platform-stable bytes."""
    if not hasattr(path_or_file, "write"):
        with _open_out(path_or_file) as f:
            emit_csv(rows, f)
        return
    w = csv.writer(path_or_file, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([repr(float(getattr(r, c))) if t is float else getattr(r, c)
                    for c, t in zip(CSV_COLUMNS, _CSV_TYPES)])


def parse_csv(path_or_file) -> list:
    """Inverse of emit_csv, from an open file or a path."""
    if not hasattr(path_or_file, "read"):
        with open(path_or_file, encoding="utf-8", newline="") as f:
            return parse_csv(f)
    rdr = csv.reader(path_or_file)
    header = next(rdr, [])           # an empty file has no header either
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for r in rdr:
        try:
            if len(r) != len(CSV_COLUMNS):
                raise ValueError(f"{len(r)} fields, expected {len(CSV_COLUMNS)}")
            rows.append(ResultRow(*(t(v) for t, v in zip(_CSV_TYPES, r))))
        except ValueError as e:
            raise ValueError(f"bad CSV row at line {rdr.line_num}: {e}") from None
    return rows


# --------------------------------------------------------------------------
# Scenario resolution
# --------------------------------------------------------------------------

@dataclass
class SweepPoint:
    """Everything a trial needs at one sweep value, built once and shared."""

    cfg: GridConfig
    qam: QamConfig
    model: PhaseNoiseModel
    profile: ch.ChannelProfile
    layout: est.PilotLayout | est.PtrpLayout | None   # OTFS pilot or OFDM PTRPs
    wiener: est.WienerFilter | None
    noise_var: float
    scenario: Scenario


def _power(key: str, db: float, scale: float = 1.0) -> float:
    """``scale * 10**(db/10)``; ValueError naming ``key`` unless finite and > 0."""
    try:
        power = scale * 10.0 ** (db / 10.0)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"{key} {db} dB is out of range: its power {power} is not "
                         "finite and positive")
    return power


def _channel_at(s: Scenario, v: dict):
    """Grid and channel profile (with its Doppler shift) at one sweep point;
    ``v`` maps each field to its value there."""
    cfg = GridConfig(s.M, s.N, s.n_cp, s.bandwidth)
    if s.sweep == "f_D_norm":
        key, f_D = "f_D_norm", v["f_D_norm"] * cfg.doppler_spacing
    elif v["f_D"] is not None:
        key, f_D = "f_D", v["f_D"]
    else:
        key, f_D = "velocity and f_c", ch.doppler_from_velocity(v["velocity"], s.f_c)
    if not f_D < cfg.bandwidth / 2:     # where the sampled Jakes process aliases
        raise ValueError(f"Doppler shift {f_D} Hz from {key} is not below bandwidth/2")
    if s.channel == "tdl_c":
        profile = ch.ChannelProfile.tdl_c(s.delay_spread, f_D)
    else:
        profile = ch.ChannelProfile((0.0,), (1.0,), f_D)
    return cfg, profile


def _resolve_point(s: Scenario, value: float) -> SweepPoint:
    """Build one sweep point, raising whatever its trials would raise: the
    sweep value against the table, then the checks that need the grid: the
    CP (n_cp >= L-1) of a link's channel, an OTFS guard (L <= pilot_L,
    2*pilot_L-1 <= M), an OFDM n_cp <= M, at least one data cell and, for a
    coded frame, at least one information bit past the code's tail."""
    v = {**vars(s), s.sweep: value}
    row = Scenario.__dataclass_fields__.get(s.sweep, _F_D_NORM)
    _check_field(s.sweep, value, "float", row.metadata)
    cfg, profile = _channel_at(s, v)
    model = PhaseNoiseModel(s.oscillator, v["beta_pn"], cfg.T_s, v["f_pll"])
    qam = QamConfig(s.qam_order)
    rate = qam.bits_per_symbol * (0.5 if s.coded else 1.0) if s.snr_is_ebn0 else 1.0
    noise_var = 1.0 / _power("snr_db", v["snr_db"], rate)

    layout = wiener = None
    if s.kind == "link":
        L = profile.length(cfg)
        if s.estimator.startswith("ofdm"):
            if s.n_cp > s.M:    # ofdm_modulate would cut the CP to M samples
                raise ValueError(f"n_cp {s.n_cp} exceeds the OFDM symbol, M = {s.M}")
            layout = est.PtrpLayout(spacing=s.ptrp_spacing)
        else:
            # a guard shorter than the channel would leave taps unestimated
            if s.pilot_L is not None and s.pilot_L < L:
                raise ValueError(f"pilot_L {s.pilot_L} is shorter than the "
                                 f"channel length {L}")
            sigma2_p = _power("pilot_boost_db", s.pilot_boost_db, cfg.N)
            layout = est.PilotLayout(L=L if s.pilot_L is None else s.pilot_L,
                                     sigma2_p=sigma2_p).resolved(cfg)
        n_bits = est.n_data(layout, cfg) * qam.bits_per_symbol
        if n_bits == 0:
            raise ValueError("the pilots (OTFS: 2*pilot_L-1 rows, OFDM: ptrp_spacing) "
                             f"leave no data cell on the M x N = {s.M} x {s.N} grid")
        if s.coded and n_bits // 2 <= eq.CONV_K - 1:   # no room past the tail
            raise ValueError(f"coded: true needs more than {2 * (eq.CONV_K - 1)} data bits "
                             f"for the code's tail; the pilots leave {n_bits} on "
                             f"the M x N = {s.M} x {s.N} grid")
        if s.estimator == "proposed":
            noise_ratio = noise_var * cfg.N / layout.sigma2_p
            wiener = est.build_wiener(model, profile.f_D, noise_ratio, cfg, layout)
    return SweepPoint(cfg, qam, model, profile, layout, wiener, noise_var, s)


# --------------------------------------------------------------------------
# Per-trial pipeline
# --------------------------------------------------------------------------

@dataclass
class _Transmit:
    """One trial's frame as every receiver of a group sees it; read-only."""

    bits: np.ndarray                # the mapped bits (code bits when coded)
    info: np.ndarray | None         # information bits of a coded frame
    data: np.ndarray                # data symbols
    r: np.ndarray                   # received samples
    g_true: np.ndarray | None       # OTFS: true effective taps (n, L)
    g_hat: np.ndarray | None        # OTFS: stage-1 snapshots (L, N)
    Y: np.ndarray | None            # OFDM: demodulated M x N grid


def _transmit(point: SweepPoint, trial_seed: int) -> _Transmit:
    """One frame: bits (coded or not), OTFS or OFDM modulation, channel and
    phase noise; then what every receiver of the waveform starts from: for
    OTFS the true taps and the stage-1 snapshots, for OFDM the demodulated
    grid.  All of the trial's randomness is drawn here; stage 1 draws none."""
    rng = np.random.default_rng(trial_seed)
    s, cfg, qam, layout = point.scenario, point.cfg, point.qam, point.layout
    ofdm = isinstance(layout, est.PtrpLayout)
    n_bits = est.n_data(layout, cfg) * qam.bits_per_symbol
    info = None
    if s.coded:
        info = rng.integers(0, 2, n_bits // 2 - (eq.CONV_K - 1))
        bits = eq.conv_encode(info)
    else:
        bits = rng.integers(0, 2, n_bits)
    data = qam_map(bits, qam)
    frame = est.build_pilot_frame(layout, data, cfg)
    if ofdm:
        sent = ofdm_modulate(frame, cfg)
        window = sent.size              # linear convolution over the stream
    else:
        sent = otfs_modulate(frame, cfg)
        window = cfg.frame_len          # the CP makes it circular

    if s.channel == "awgn":
        # deterministic unit tap: pure AWGN once noise is added
        taps = np.ones((window, 1), dtype=complex)
    else:
        taps = ch.realize_channel(point.profile, cfg, rng, window)
    psi = sample_path(point.model, sent.size, rng)
    r = ch.apply_channel(sent, taps, psi, point.noise_var, rng)
    g_true = g_hat = Y = None
    if ofdm:
        Y = ofdm_demodulate(r, cfg)
    else:
        g_true = ch.effective_channel(taps, psi)
        g_hat = est.stage1_estimate(r, layout, cfg, point.noise_var)
    shared = _Transmit(bits, info, data, r, g_true, g_hat, Y)
    # a receiver that wrote into its input would corrupt the next one's
    for a in vars(shared).values():
        if a is not None:
            a.flags.writeable = False
    return shared


def _receive_otfs(point: SweepPoint, tx: _Transmit):
    """Estimate the channel, equalize; data symbols and the estimate NMSE."""
    s, cfg = point.scenario, point.cfg
    if s.estimator == "perfect":
        g_dt, nmse = tx.g_true, 0.0
    else:
        g_dt = _INTERPOLATORS[s.estimator](point, tx.g_hat)
        # a guard longer than the channel estimates taps past L, whose truth is 0
        pad = point.layout.L - tx.g_true.shape[1]
        nmse = eq.nmse(g_dt, np.pad(tx.g_true, ((0, 0), (0, pad))) if pad
                       else tx.g_true)
    if s.equalizer == "lsmr_ic":
        det = eq.lsmr_ic_equalize(tx.r, g_dt, point.noise_var, cfg, point.layout,
                                  point.qam, s.i_ic, s.i_lsmr)
    else:
        det = eq.mmse_equalize(tx.r, g_dt, point.noise_var, cfg, point.layout)
    return det.symbols, (nmse,)


def _receive_ofdm(point: SweepPoint, tx: _Transmit):
    """CPE tracking from the PTRPs and one-tap equalization; data symbols."""
    cfg, ptrp = point.cfg, point.layout
    interp = point.scenario.estimator == "ofdm_ptrp_interp"
    _, H = est.ofdm_cpe_estimate(tx.Y, ptrp, cfg, point.profile.f_D, interp)
    return est.extract_data(tx.Y / H, ptrp, cfg), ()


# per-trial metrics, in CSV order; an OFDM trial has no channel NMSE
_METRICS = ("ber", "evm", "nmse")


def _receive(point: SweepPoint, tx: _Transmit) -> tuple:
    """The waveform's receiver on a shared transmit, then BER, EVM and (OTFS)
    NMSE, in ``_METRICS`` order."""
    s, qam = point.scenario, point.qam
    ofdm = isinstance(point.layout, est.PtrpLayout)
    symbols, nmse = (_receive_ofdm if ofdm else _receive_otfs)(point, tx)
    if s.coded:
        llrs = eq.qam_llrs(symbols, qam, point.noise_var)
        ber = eq.ber(eq.viterbi_decode(llrs, tx.info.size), tx.info)
    else:
        ber = eq.ber(qam_demap(symbols, qam), tx.bits)
    return (ber, eq.evm(symbols, tx.data), *nmse)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _ci95(vals) -> float:
    """Half-width of the normal 95 % interval of the mean; 0 for one value."""
    if len(vals) < 2:
        return 0.0
    return float(1.96 * np.std(vals, ddof=1) / np.sqrt(len(vals)))


def _run_link_points(points: list) -> list:
    """One sweep point of a group of receiver-only variants, every trial's
    transmit drawn once and shared: per member, the mean and 95 % interval
    of each per-trial metric as (metric, value, ci95)."""
    s = points[0].scenario
    keys = _METRICS[:2] if isinstance(points[0].layout, est.PtrpLayout) else _METRICS
    # (member, metric, trial): each metric's trials are one contiguous row
    results = np.empty((len(points), len(keys), s.trials))
    for t in range(s.trials):
        tx = _transmit(points[0], s.seed + t)
        for i, point in enumerate(points):
            results[i, :, t] = _receive(point, tx)
        del tx      # freed before the next trial's transmit is drawn
    return [[(key, float(np.mean(vals)), _ci95(vals)) for key, vals in zip(keys, res)]
            for res in results]


def _run_sinr_point(point: SweepPoint) -> list:
    """Analytic and Monte Carlo SINR for OTFS and the equivalent OFDM system,
    as (metric, value, ci95).

    The measured value is the ratio of powers pooled over all trials; its
    confidence interval comes from the spread of per-block SINRs.  Both
    waveforms are measured on the same phase paths.
    """
    s = point.scenario
    blocks = min(20, s.trials)
    sizes = [s.trials // blocks + (1 if b < s.trials % blocks else 0)
             for b in range(blocks)]
    measured = [dd.measured_sinr(point.model, point.cfg, point.noise_var,
                                 nb, s.seed + 7919 * b)
                for b, nb in enumerate(sizes)]
    rows = []
    for waveform in ("otfs", "ofdm"):
        ana = (dd.sinr_otfs if waveform == "otfs" else dd.sinr_ofdm)(
            point.model, point.cfg, point.noise_var)
        rows.append((f"sinr_{waveform}_analytic_db", ana.sinr_db, 0.0))
        sig = idi = 0.0
        block_db = []
        for nb, reports in zip(sizes, measured):
            rep = reports[waveform]
            sig += nb * rep.signal_power
            idi += nb * rep.idi_power
            block_db.append(rep.sinr_db)
        pooled = dd.SinrReport(sig / s.trials, idi / s.trials, point.noise_var)
        ci = _ci95(block_db) if np.all(np.isfinite(block_db)) else 0.0
        rows.append((f"sinr_{waveform}_measured_db", pooled.sinr_db, ci))
    return rows


def run_scenarios(scenarios, workers: int = 1) -> list:
    """Run every sweep point of every scenario; returns ResultRow list, in
    scenario order and then sweep order.  Every point is resolved before
    the first trial runs, so a configuration error is reported before any
    work is done.  Link scenarios that differ only in receiver fields run
    together, on one shared transmit per trial; the bytes do not depend on
    that grouping.  Trials run serially; ``workers`` must be 1."""
    if workers != 1:
        raise ValueError(f"workers must be 1 (trials run serially), got {workers}")
    points = [[_resolve_point(s, float(value)) for value in s.sweep_values]
              for s in scenarios]
    groups = {}     # link scenarios with one key draw the same transmits
    for i, s in enumerate(scenarios):
        key = i if s.kind == "sinr" else (s._canonical(drop=_RECEIVER_ONLY),
                                          s.estimator.startswith("ofdm"))
        groups.setdefault(key, []).append(i)
    out = [[] for _ in scenarios]   # per sweep point: (metric, value, ci95) rows
    for members in groups.values():
        for group in zip(*(points[i] for i in members)):
            done = (_run_link_points(group) if group[0].scenario.kind == "link"
                    else [_run_sinr_point(group[0])])
            for i, metrics in zip(members, done):
                out[i].append(metrics)
    rows = []
    for s, per_point in zip(scenarios, out):
        prefix = f"{s.label}_" if s.label else ""
        key = s.hash()
        rows.extend(ResultRow(s.sweep, float(value), prefix + metric, mean, ci,
                              s.trials, key, s.seed)
                    for value, metrics in zip(s.sweep_values, per_point)
                    for metric, mean, ci in metrics)
    return rows


def load_scenario(path: str) -> Scenario:
    """Read a scenario from a YAML key/value document."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        # safe_load keeps the last of two equal keys; a scenario must not
        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep)  # keys hashable
            seen = set()
            for key_node, _ in node.value:
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return mapping

    try:
        with open(path, encoding="utf-8") as f:
            doc = yaml.load(f, Loader=UniqueKeyLoader)
    except OSError as e:
        raise OSError(f"cannot read scenario file {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ValueError(f"cannot parse scenario file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"scenario file {path} must hold a key/value mapping")
    return Scenario.from_dict(doc)


def save_scenario(scenario: Scenario, path: str) -> None:
    import yaml
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(scenario.to_dict(), f, sort_keys=True)


# --------------------------------------------------------------------------
# Figure presets
# --------------------------------------------------------------------------

_BETAS = (1e2, 3e2, 1e3, 2e3, 5e3, 1e4)
_SNR_AXIS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_EBN0_AXIS = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
# fig6-8: EVM, NMSE, BER vs phase-noise bandwidth, no Doppler, MMSE
_PN_MMSE = dict(snr_db=20.0, velocity=0.0, equalizer="mmse", bem_include_pn=True,
                sweep="beta_pn", sweep_values=_BETAS)
# fig10-12: vs SNR at 500 km/h with LSMR-IC; fig13-14 coded, vs Eb/N0
_LSMR_500 = dict(velocity=500.0, equalizer="lsmr_ic", sweep="snr_db",
                 sweep_values=_SNR_AXIS)
_CODED = dict(_LSMR_500, coded=True, snr_is_ebn0=True, sweep_values=_EBN0_AXIS)
# figure -> (Scenario fields, curves after the OTFS ones of _INTERPOLATORS)
_PRESETS = {
    "fig6": (_PN_MMSE, ()),                  # EVM, and fig7's NMSE
    "fig8": (dict(_PN_MMSE, snr_db=24.0, sweep_values=(1e2, 1e3, 2e3, 5e3, 1e4, 2e4)),
             ("ofdm_ptrp",)),
    "fig9": (dict(snr_db=20.0, beta_pn=0.0, equalizer="lsmr_ic", sweep="f_D_norm",
                  sweep_values=(0.25, 0.5, 1.0, 1.5, 2.0)), ()),
    "fig10": (dict(_LSMR_500, beta_pn=1e3), ()),
    "fig11": (dict(_LSMR_500, beta_pn=2e3), ("ofdm_ptrp", "ofdm_ptrp_interp")),
    "fig12": (dict(_LSMR_500, beta_pn=5e3), ()),
    "fig13": (dict(_CODED, beta_pn=1e4, qam_order=4), ()),
    "fig14": (dict(_CODED, beta_pn=5e3, qam_order=16), ()),
}
PRESETS = tuple(f"fig{i}" for i in range(5, 15))


def preset(name: str, trials: int | None = None, seed: int = 0,
           full: bool = False) -> list:
    """Scenario list for one reference figure, desk scale unless ``full``:
    one curve per estimator, or for fig5 one SINR scenario.  fig7 is fig6's
    experiment: one simulation gives fig6's EVM and fig7's NMSE."""
    grid = {"M": 128, "N": 32} if full else {"M": 32, "N": 16}
    if name == "fig5":
        return [Scenario(name="fig5", kind="sinr", oscillator="FRO", snr_db=20.0,
                         sweep="beta_pn",
                         sweep_values=(0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3),
                         trials=trials if trials is not None else (10_000 if full else 2000),
                         seed=seed, **grid)]
    if name == "fig7":
        name = "fig6"
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    kw, extra = _PRESETS[name]
    if trials is None:
        trials = 100_000 if full else 2000
    base = Scenario(name=name, trials=trials, seed=seed, **grid, **kw)
    return [replace(base, name=f"{name}-{tag}", label=tag, estimator=tag)
            for tag in (*_INTERPOLATORS, *extra)]
