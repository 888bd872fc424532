"""Scenario configuration, Monte Carlo execution and CSV emission.

A scenario is a flat bag of parameters with exactly one sweep axis.  Every
sweep point runs ``trials`` independent frames; trial t draws all of its
randomness (bits, channel, phase path, noise) from one generator seeded with
``seed + t``, so the CSV bytes depend only on the scenario and the seed.
OTFS and OFDM trials share one runner; only the receiver differs.

Metric rows carry the scenario hash (canonical JSON, SHA-256) so CSV output
is self-identifying; presets reproduce the reference experiments at desk
scale by default and at the full grid with ``full=True``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import channel as ch
from . import dd_analysis as dd
from . import equalization as eq
from . import estimation as est
from .grid import (GridConfig, QamConfig, ofdm_demodulate, ofdm_modulate,
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
# Scenario field -> accepted names
_CHOICES = {"kind": ("link", "sinr"), "estimator": ESTIMATORS,
            "channel": ("tdl_c", "awgn"), "equalizer": ("mmse", "lsmr_ic"),
            "oscillator": KINDS, "sweep": SWEEPS}
# retired field -> the one value it had; hashed, so old scenario hashes stay put
_RETIRED = {"eq_domain": "delay_time"}
# Scenario field -> smallest accepted value
_MINIMA = {"i_ic": 1, "i_lsmr": 1, "ptrp_spacing": 1, "trials": 1, "seed": 0}
# Scenario fields that only a link trial reads; a kind 'sinr' run keeps the defaults
_LINK_ONLY = ("channel", "delay_spread", "velocity", "f_D", "pilot_L", "pilot_boost_db",
              "estimator", "bem_k_over", "bem_include_pn", "ptrp_spacing",
              "equalizer", "i_ic", "i_lsmr")
# Scenario field annotation -> accepted value type; a bool is no number here
_FIELD_TYPES = {"int": (Integral, "an integer"), "float": (Real, "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _check_type(key: str, value, annotation: str) -> None:
    """Raise ValueError unless ``value`` fits the field's annotation.

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
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One simulation campaign: fixed parameters plus a single sweep axis."""

    name: str = "scenario"
    kind: str = "link"                  # "link" (BER/EVM/NMSE) | "sinr"
    label: str = ""                     # metric-name prefix for multi-curve CSVs

    M: int = 32
    N: int = 16
    n_cp: int = 16
    f_c: float = 5.9e9
    bandwidth: float = 7.68e6
    qam_order: int = 4

    oscillator: str = "FRO"
    beta_pn: float = 2e3
    f_pll: float = 1e6

    channel: str = "tdl_c"              # "tdl_c" | "awgn"
    delay_spread: float = 100e-9
    velocity: float = 0.0               # km/h
    f_D: float | None = None            # Hz; overrides velocity when set

    pilot_L: int | None = None          # default: quantized channel length
    pilot_boost_db: float = 30.0

    estimator: str = "proposed"
    bem_k_over: float = 1.0
    bem_include_pn: bool = False
    ptrp_spacing: int = 8

    equalizer: str = "mmse"             # "mmse" | "lsmr_ic"
    i_ic: int = 10
    i_lsmr: int = 20
    coded: bool = False
    snr_is_ebn0: bool = False

    snr_db: float = 20.0
    sweep: str = "snr_db"
    sweep_values: tuple = (0.0, 10.0, 20.0)
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.name != "sweep_values":
                _check_type(f.name, getattr(self, f.name), f.type)
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ValueError(f"sweep_values must be a list, got {self.sweep_values!r}")
        for v in self.sweep_values:   # YAML reads 1.0e5 as text; float() takes it
            try:
                if isinstance(v, bool):     # a bool is no number here
                    raise TypeError
                finite = math.isfinite(float(v))
            except (TypeError, ValueError):
                raise ValueError(f"sweep_values entry {v!r} is not a number") from None
            if not finite:
                raise ValueError(f"sweep_values entry {v!r} is not finite")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep_values must not be empty")
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}, "
                                 f"expected one of {', '.join(allowed)}")
        for key, low in _MINIMA.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.bem_k_over <= 0:
            raise ValueError(f"bem_k_over must be > 0, got {self.bem_k_over}")
        # a sweep axis the scenario ignores would repeat one point
        if self.sweep == "f_pll" and self.oscillator == "FRO":
            raise ValueError("sweep f_pll has no effect on the FRO oscillator")
        if self.sweep == "velocity" and self.f_D is not None:
            raise ValueError("sweep velocity has no effect while f_D is set")
        if self.kind == "sinr":
            if self.sweep in ("velocity", "f_D", "f_D_norm"):
                raise ValueError(f"sweep {self.sweep} has no effect on kind 'sinr', "
                                 "which draws no channel")
            # a field the run ignores would give one experiment two hashes
            for key in _LINK_ONLY:
                if getattr(self, key) != self.__dataclass_fields__[key].default:
                    raise ValueError(f"{key} has no effect on kind 'sinr', which "
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

    def hash(self) -> str:
        d = {**self.to_dict(), **_RETIRED}
        # YAML reads 1.0e5 as text and 1.0e+5 as a number: one sweep, one hash
        d["sweep_values"] = [float(v) if isinstance(v, str) else v
                             for v in d["sweep_values"]]
        blob = json.dumps(d, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


CSV_COLUMNS = ("sweep_name", "sweep_value", "metric", "value", "ci95",
               "trials", "scenario_hash", "seed")


def emit_csv(rows, path_or_file) -> None:
    """Write rows with the fixed column order; floats use repr for exact
    round-tripping and platform-stable bytes."""
    def _write(f):
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([r.sweep_name, repr(float(r.sweep_value)), r.metric,
                        repr(float(r.value)), repr(float(r.ci95)),
                        r.trials, r.scenario_hash, r.seed])
    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        try:
            with open(path_or_file, "w", encoding="utf-8", newline="") as f:
                _write(f)
        except OSError as e:
            raise OSError(f"cannot write CSV to {path_or_file}: {e}") from e


def parse_csv(path_or_file) -> list:
    """Inverse of emit_csv."""
    if hasattr(path_or_file, "read"):
        f = path_or_file
        rows = _parse(f)
    else:
        with open(path_or_file, encoding="utf-8", newline="") as f:
            rows = _parse(f)
    return rows


def _parse(f) -> list:
    rdr = csv.reader(f)
    header = next(rdr, [])           # an empty file has no header either
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for r in rdr:
        try:
            if len(r) != len(CSV_COLUMNS):
                raise ValueError(f"{len(r)} fields, expected {len(CSV_COLUMNS)}")
            rows.append(ResultRow(r[0], float(r[1]), r[2], float(r[3]), float(r[4]),
                                  int(r[5]), r[6], int(r[7])))
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
    sweep_value: float


def _channel_at(s: Scenario, params: dict):
    """Grid and channel profile (with its Doppler shift) at one sweep point."""
    cfg = GridConfig(s.M, s.N, s.n_cp, s.bandwidth)
    vel = params.get("velocity", s.velocity)
    # checked here: ChannelProfile's own checks would name f_D or no key
    for key, value in (("delay_spread", s.delay_spread), ("velocity", vel),
                       ("f_D_norm", params.get("f_D_norm", 0.0))):
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    if "f_D_norm" in params:
        f_D = params["f_D_norm"] * cfg.doppler_spacing
    elif "f_D" in params:
        f_D = params["f_D"]
    elif s.f_D is not None:
        f_D = s.f_D
    else:
        f_D = ch.doppler_from_velocity(vel, s.f_c)

    if s.channel == "tdl_c":
        profile = ch.ChannelProfile.tdl_c(s.delay_spread, f_D)
    else:
        profile = ch.ChannelProfile((0.0,), (1.0,), f_D)
    return cfg, profile


def _pilot_length(s: Scenario, L: int) -> int:
    """Pilot guard length: pilot_L if set, else the channel length L.  A
    guard shorter than L would leave taps unestimated."""
    if s.pilot_L is None:
        return L
    if s.pilot_L < L:
        raise ValueError(f"pilot_L {s.pilot_L} is shorter than the channel "
                         f"length {L}")
    return s.pilot_L


def _resolve_point(s: Scenario, value: float) -> SweepPoint:
    """Build one sweep point, raising whatever its trials would raise: the
    QAM order, the oscillator parameters, the pilot guard (L <= pilot_L,
    2*pilot_L-1 <= M) of OTFS links and the CP (n_cp >= L-1) of every
    channel a link trial draws."""
    params = {s.sweep: value}
    cfg, profile = _channel_at(s, params)
    beta = params.get("beta_pn", s.beta_pn)
    f_pll = params.get("f_pll", s.f_pll)
    model = PhaseNoiseModel(s.oscillator, beta, cfg.T_s, f_pll)
    qam = QamConfig(s.qam_order)

    snr_db = params.get("snr_db", s.snr_db)
    snr = 10.0 ** (snr_db / 10.0)
    if s.snr_is_ebn0:
        rate = 0.5 if s.coded else 1.0
        snr = snr * qam.bits_per_symbol * rate
    noise_var = 1.0 / snr

    layout = wiener = None
    if s.kind == "link":
        L = profile.length(cfg)
        if s.estimator.startswith("ofdm"):
            layout = est.PtrpLayout(spacing=s.ptrp_spacing)
        else:
            sigma2_p = cfg.N * 10.0 ** (s.pilot_boost_db / 10.0)
            layout = est.PilotLayout(L=_pilot_length(s, L),
                                     sigma2_p=sigma2_p).resolved(cfg)
            if s.estimator == "proposed":
                noise_ratio = noise_var * cfg.N / layout.sigma2_p
                wiener = est.build_wiener(model, profile.f_D, noise_ratio, cfg, layout)
    return SweepPoint(cfg, qam, model, profile, layout, wiener, noise_var, s, value)


# --------------------------------------------------------------------------
# Per-trial pipeline
# --------------------------------------------------------------------------

def _realize(point: SweepPoint, rng, n_samples: int) -> ch.ChannelRealization:
    if point.scenario.channel == "awgn":
        # deterministic unit tap: pure AWGN once noise is added
        return ch.ChannelRealization(np.ones((n_samples, 1), dtype=complex),
                                     np.array([0]))
    return ch.realize_channel(point.profile, point.cfg, rng, n_samples)


def _receive_otfs(point: SweepPoint, r, chan, psi):
    """Estimate the channel, equalize; data symbols and the estimate NMSE."""
    s, cfg = point.scenario, point.cfg
    g_true = ch.effective_channel(chan, psi)
    if s.estimator == "perfect":
        g_dt, nmse = g_true, 0.0
    else:
        g_hat = est.stage1_estimate(r, point.layout, cfg, point.noise_var)
        g_dt = _INTERPOLATORS[s.estimator](point, g_hat)
        # a guard longer than the channel estimates taps past L, whose truth is 0
        pad = point.layout.L - g_true.shape[1]
        nmse = eq.nmse(g_dt, np.pad(g_true, ((0, 0), (0, pad))) if pad else g_true)
    if s.equalizer == "lsmr_ic":
        det = eq.lsmr_ic_equalize(r, g_dt, point.noise_var, cfg, point.layout,
                                  point.qam, s.i_ic, s.i_lsmr)
    else:
        det = eq.mmse_equalize(r, g_dt, point.noise_var, cfg, point.layout)
    return det.symbols, {"nmse": nmse}


def _receive_ofdm(point: SweepPoint, r, chan, psi):
    """CPE tracking from the PTRPs and one-tap equalization; data symbols."""
    cfg, ptrp = point.cfg, point.layout
    Y = ofdm_demodulate(r, cfg)
    interp = point.scenario.estimator == "ofdm_ptrp_interp"
    _, H = est.ofdm_cpe_estimate(Y, ptrp, cfg, point.profile.f_D, interp)
    return est.extract_data(Y / H, ptrp, cfg), {}


def _run_trial(point: SweepPoint, trial_seed: int) -> dict:
    """One frame: bits (coded or not), OTFS or OFDM modulation, channel and
    phase noise, the waveform's receiver, then EVM and BER."""
    rng = np.random.default_rng(trial_seed)
    s, cfg, qam, layout = point.scenario, point.cfg, point.qam, point.layout
    ofdm = isinstance(layout, est.PtrpLayout)
    n_bits = est.n_data(layout, cfg) * qam.bits_per_symbol
    if s.coded:
        n_info = n_bits // 2 - (eq.CONV_K - 1)
        info = rng.integers(0, 2, n_info)
        bits = eq.conv_encode(info)
    else:
        bits = rng.integers(0, 2, n_bits)
    data = qam_map(bits, qam)
    frame = est.build_pilot_frame(layout, data, cfg)
    if ofdm:
        tx = ofdm_modulate(frame, cfg)
        window = tx.size                # linear convolution over the stream
    else:
        tx = otfs_modulate(frame, cfg)
        window = cfg.frame_len          # the CP makes it circular

    chan = _realize(point, rng, window)
    psi = sample_path(point.model, tx.size, rng)
    r = ch.apply_channel(tx, chan, psi, point.noise_var, rng)
    symbols, out = (_receive_ofdm if ofdm else _receive_otfs)(point, r, chan, psi)

    out["evm"] = eq.evm(symbols, data)
    if s.coded:
        llrs = eq.qam_llrs(symbols, qam, point.noise_var)
        out["ber"] = eq.ber(eq.viterbi_decode(llrs, n_info), info)
    else:
        out["ber"] = eq.ber(qam_demap(symbols, qam), bits)
    return out


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _ci95(vals) -> float:
    """Half-width of the normal 95 % interval of the mean; 0 for one value."""
    if len(vals) < 2:
        return 0.0
    return float(1.96 * np.std(vals, ddof=1) / np.sqrt(len(vals)))


def _aggregate(per_trial: list, key: str):
    vals = np.array([t[key] for t in per_trial], dtype=float)
    return float(np.mean(vals)), _ci95(vals)


def _run_link_point(point: SweepPoint) -> list:
    """Mean and 95 % interval of each per-trial metric: (metric, value, ci95)."""
    s = point.scenario
    results = [_run_trial(point, s.seed + t) for t in range(s.trials)]
    return [(key, *_aggregate(results, key)) for key in sorted(results[0])]


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
    """Run every sweep point of every scenario, in order; returns ResultRow
    list.  Every point is resolved before the first trial runs, so a
    configuration error is reported before any work is done.  Trials run
    serially; ``workers`` must be 1."""
    if workers != 1:
        raise ValueError(f"workers must be 1 (trials run serially), got {workers}")
    points = [_resolve_point(s, float(value))
              for s in scenarios for value in s.sweep_values]
    rows = []
    for point in points:
        s = point.scenario
        run = _run_sinr_point if s.kind == "sinr" else _run_link_point
        prefix = f"{s.label}_" if s.label else ""
        key = s.hash()
        rows.extend(ResultRow(s.sweep, float(point.sweep_value), prefix + metric,
                              value, ci, s.trials, key, s.seed)
                    for metric, value, ci in run(point))
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

_OTFS_CURVES = ("proposed", "bem", "spline", "stage1")
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
# figure -> (Scenario fields, curves after the four OTFS estimators)
_PRESETS = {
    "fig6": (_PN_MMSE, ()),                  # EVM
    "fig7": (_PN_MMSE, ()),                  # NMSE
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
PRESETS = ("fig5", *_PRESETS)


def preset(name: str, trials: int | None = None, seed: int = 0,
           full: bool = False) -> list:
    """Scenario list for one reference figure, desk scale unless ``full``:
    one curve per estimator, or for fig5 one SINR scenario."""
    grid = {"M": 128, "N": 32} if full else {"M": 32, "N": 16}
    if name == "fig5":
        return [Scenario(name="fig5", kind="sinr", oscillator="FRO", snr_db=20.0,
                         sweep="beta_pn",
                         sweep_values=(0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3),
                         trials=trials if trials is not None else (10_000 if full else 2000),
                         seed=seed, **grid)]
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    kw, extra = _PRESETS[name]
    if trials is None:
        trials = 100_000 if full else 2000
    base = Scenario(name=name, trials=trials, seed=seed, **grid, **kw)
    return [replace(base, name=f"{name}-{tag}", label=tag, estimator=tag)
            for tag in (*_OTFS_CURVES, *extra)]
