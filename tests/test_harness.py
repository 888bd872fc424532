import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import otfspn
from otfspn import channel as ch
from otfspn import equalization as eq
from otfspn import estimation as est
from otfspn import grid
from otfspn.cli import main as cli_main
from otfspn.harness import (_F_D_NORM, ESTIMATORS, PRESETS, SWEEPS, ResultRow,
                            Scenario, emit_csv, load_scenario, parse_csv, preset,
                            run_scenarios, save_scenario)


def _csv_bytes(rows) -> str:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(estimator="genie")
    with pytest.raises(ValueError):
        Scenario(sweep="bandwidth")
    with pytest.raises(ValueError):
        Scenario(trials=0)
    with pytest.raises(ValueError):
        Scenario(channel="tdl_z")
    with pytest.raises(ValueError):
        Scenario(equalizer="zf")
    with pytest.raises(ValueError):
        Scenario.from_dict({"name": "x", "bogus_key": 1})
    # eq_domain is retired: a file may still give its one value, delay_time
    for kw in ({"equalizer": "lsmr_ic"}, {"estimator": "ofdm_ptrp"}, {}):
        with pytest.raises(ValueError, match="eq_domain"):
            Scenario.from_dict({"eq_domain": "delay_doppler", **kw})
    assert Scenario.from_dict({"eq_domain": "delay_time"}) == Scenario()
    # awgn is the one name of the unit-tap channel
    with pytest.raises(ValueError, match="unknown channel 'ideal'"):
        Scenario(channel="ideal")


@pytest.mark.parametrize("kw", [
    {"sweep": "f_pll", "oscillator": "FRO"},
    {"sweep": "velocity", "f_D": 1e3},
    {"sweep": "velocity", "kind": "sinr"},
    {"sweep": "f_D", "kind": "sinr"},
    {"sweep": "f_D_norm", "kind": "sinr"},
    {"sweep": "f_D_norm", "f_D": 3000.0},
    {"sweep": "f_D_norm", "f_D": 0.0},
    {"sweep": "f_D_norm", "velocity": 500.0},
    {"kind": "sinr", "estimator": "bem"},
    {"kind": "sinr", "velocity": 500.0},
])
def test_scenario_rejects_ineffective_sweep(kw):
    with pytest.raises(ValueError, match="no effect") as e:
        Scenario(**kw)
    # the message names the swept axis and every other key the row sets
    for name in (v if k == "sweep" else k for k, v in kw.items()):
        assert re.search(rf"\b{name}\b", str(e.value)), str(e.value)


def test_scenario_accepts_effective_sweeps():
    Scenario(sweep="f_pll", oscillator="CPLL")
    Scenario(sweep="velocity")
    Scenario(sweep="f_D", f_D=1e3)
    Scenario(sweep="beta_pn", kind="sinr")
    # the Wiener filter of the proposed estimator still sees the Doppler
    Scenario(sweep="f_D_norm", channel="awgn")


def test_scenario_roundtrip_and_hash(tmp_path):
    s = Scenario(name="demo", sweep_values=(1.0, 2.0), trials=5)
    p = tmp_path / "s.yaml"
    save_scenario(s, str(p))
    s2 = load_scenario(str(p))
    assert s2 == s
    assert s2.hash() == s.hash()
    assert s.hash() != Scenario(name="demo", sweep_values=(1.0, 3.0), trials=5).hash()


def test_scenario_hash_frozen_value(tmp_path):
    # canonical serialization: the hash must not drift across releases
    assert Scenario().hash() == "c302f8082c2aa1da"
    assert Scenario(channel="awgn").hash() == "b9f0ab1e0c822e71"
    assert Scenario(kind="sinr", sweep="beta_pn").hash() == "9a1aa833de28dbd4"
    # older scenario files spell out eq_domain, which has one value
    p = tmp_path / "s.yaml"
    p.write_text("eq_domain: delay_time\n")
    assert load_scenario(str(p)).hash() == "c302f8082c2aa1da"


def test_scenario_hash_reads_text_sweep_values_as_numbers(tmp_path):
    # PyYAML reads 1.0e5 as text and 1.0e+5 as a float; both run one sweep
    assert (Scenario(sweep_values=("1.0e5",)).hash()
            == Scenario(sweep_values=(1.0e5,)).hash())
    hashes = set()
    for text in ("1.0e5", "1.0e+5"):
        p = tmp_path / "s.yaml"
        p.write_text(f"sweep_values: [{text}]\n")
        hashes.add(load_scenario(str(p)).hash())
    assert len(hashes) == 1


@pytest.mark.parametrize("kw", [
    {"sweep_values": 5},
    {"sweep_values": "1.0"},
    {"sweep_values": [1.0, "x"]},
    {"trials": "3"},
    {"M": 32.5},
    {"seed": True},
    {"pilot_L": 2.0},
    {"snr_db": "20"},
    {"beta_pn": None},
    {"coded": 1},
    {"seed": -1},
    {"sweep_values": [True]},
    {"snr_db": float("nan")},
    {"f_D": float("inf")},
    {"sweep_values": [1.0, float("nan")]},
    {"sweep_values": ["nan"]},
])
def test_scenario_rejects_wrong_value_types(kw):
    key = next(iter(kw))
    with pytest.raises(ValueError, match=key):
        Scenario.from_dict(kw)


def test_scenario_keeps_valid_values_as_given():
    # an int for a float field is valid and is not converted (the hash sees it)
    s = Scenario.from_dict({"snr_db": 20, "f_D": None, "pilot_L": np.int64(3),
                            "sweep_values": [0, 1.5, "1.0e5"]})
    assert type(s.snr_db) is int and s.sweep_values == (0, 1.5, "1.0e5")


def test_emit_csv_empty_and_roundtrip(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv([], str(p))
    text = p.read_text()
    assert text.splitlines() == [
        "sweep_name,sweep_value,metric,value,ci95,trials,scenario_hash,seed"]
    rows = [ResultRow("snr_db", 1.5, "ber", 0.123456789012345, 0.01, 7, "abc", 3)]
    emit_csv(rows, str(p))
    assert parse_csv(str(p)) == rows
    good = p.read_text()
    for bad in ("snr_db,1.5,ber,0.1,0.01,7,abc",          # truncated
                "snr_db,1.5,ber,0.1,0.01,7,abc,3,extra",  # one field too many
                "snr_db,1.5,ber,high,0.01,7,abc,3"):      # value is no number
        p.write_text(good + bad + "\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(str(p))
    p.write_text("")
    with pytest.raises(ValueError, match="header"):
        parse_csv(str(p))


def test_emit_csv_failed_write_keeps_existing_file(tmp_path):
    """A path is written through a temporary file that replaces it only on
    success, as the CLI's --out is; a Path works as well as a str."""
    p = tmp_path / "out.csv"
    rows = [ResultRow("snr_db", 1.5, "ber", 0.25, 0.01, 7, "abc", 3)]
    emit_csv(rows, p)
    good = p.read_bytes()

    def broken():
        yield replace(rows[0], value=0.5)
        raise RuntimeError("run failed")
    with pytest.raises(RuntimeError, match="run failed"):
        emit_csv(broken(), p)
    assert p.read_bytes() == good and os.listdir(tmp_path) == ["out.csv"]
    with pytest.raises(OSError, match="cannot write CSV to"):
        emit_csv(rows, tmp_path / "missing" / "out.csv")


def test_determinism_same_seed_same_bytes():
    s = Scenario(name="det", channel="awgn", beta_pn=0.0, estimator="perfect",
                 sweep="snr_db", sweep_values=(4.0,), trials=8, seed=11)
    a = _csv_bytes(run_scenarios([s]))
    b = _csv_bytes(run_scenarios([s]))
    assert a == b


def test_trials_run_serially():
    with pytest.raises(ValueError, match="workers"):
        run_scenarios([Scenario(trials=1)], workers=2)


def _cached_arrays():
    """Every array the library caches per configuration, at desk scale."""
    cfg, qam = grid.GridConfig(32, 16, 16), grid.QamConfig(16)
    layout = est.PilotLayout(L=8).resolved(cfg)
    return [*ch.ChannelProfile.tdl_c(1e-7, 100.0).quantized(cfg.T_s),
            *eq._banded_index(cfg.frame_len, 8),
            ch._jakes_factor(cfg.frame_len, 1e-3),
            layout.data_mask(cfg), est.PtrpLayout().data_mask(cfg),
            est._tap_samples(cfg, layout),
            est._ce_basis(cfg.frame_len, 3, 1.0 * cfg.frame_len),
            *est._spline_grid(tuple(layout.pilot_indices(cfg).tolist()),
                              cfg.frame_len),
            est._pilot_train(cfg, layout),
            *eq._fold(cfg.frame_len, 8),
            grid._axis_tables(qam)[1], grid.constellation(qam)]


def test_cached_arrays_are_read_only():
    for a in _cached_arrays():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_every_cache_is_bounded():
    """Every function and method of the package that caches holds at most 16
    entries, so a long sweep over many geometries keeps its memory bounded."""
    caches = {}
    for info in pkgutil.iter_modules(otfspn.__path__):
        mod = importlib.import_module(f"otfspn.{info.name}")
        for obj in vars(mod).values():
            for fn in vars(obj).values() if inspect.isclass(obj) else (obj,):
                if hasattr(fn, "cache_info"):
                    caches[f"{fn.__module__}.{fn.__qualname__}"] = fn
    assert len(caches) >= 12, sorted(caches)
    sizes = {name: fn.cache_info().maxsize for name, fn in caches.items()}
    assert sizes == dict.fromkeys(caches, 16)


def test_caches_do_not_leak_between_geometries():
    """A desk point gives the same rows before and after a full-grid point
    has filled the per-configuration caches with other geometries."""
    desk, full = (replace([s for s in preset("fig6", trials=2, full=f)
                           if s.label == "bem"][0], sweep_values=(300.0,))
                  for f in (False, True))
    first = _csv_bytes(run_scenarios([desk]))
    run_scenarios([full])
    assert _csv_bytes(run_scenarios([desk])) == first


# sha256 of each preset's CSV at desk scale, trials=2, seed=0
GOLDEN_PRESET_SHA256 = {
    "fig5": "6113ebea3b6a0ac94e073eed0959b43b9dc68b6b94f6da68c130eb3742d80e26",
    "fig6": "f794674aa5f222209e5f493970dfb1663a659f5f64da3f0f0fbe51cbc0012be2",
    "fig7": "f794674aa5f222209e5f493970dfb1663a659f5f64da3f0f0fbe51cbc0012be2",
    "fig8": "37a544385deaf9fc22bf0bb5034379206e63e7ad8718ddc6ab95acdb30680371",
    "fig9": "8653a0dfdd6bda890d96cf341e30078c76f30f32f17cfb733b9f167b4e4f4000",
    "fig10": "8658f7de4bad1816e0a45d76bc07a9a038410f482026164590c17d601c0dc14e",
    "fig11": "6afe2921d77298eb8cb796e82d67cda40af6c4756335f98a772139b3fa2eb255",
    "fig12": "35f0853854fb8a45369dfd9a06640b1166ed8160cd82ad4ad8db8ab5030e92ee",
    "fig13": "7f36c1dd1e53a62cd568bb76cd16dc0e7457d997e551378417d2ddfbb86482f6",
    "fig14": "feb706e40e2921f109781326e92fba5d19c75ce923f0226548ab0e87da932620",
}


def test_presets_match_golden_csv_hashes():
    """Every preset at desk scale (trials=2, seed=0) reproduces its CSV bytes.

    This pins the numbers through refactors.  A change meant to move them
    (ROADMAP items 4 and 6) updates GOLDEN_PRESET_SHA256 in its own commit
    and states it in CHANGES.md; a refactor never touches the table.
    """
    assert set(GOLDEN_PRESET_SHA256) == set(PRESETS)
    got = {name: hashlib.sha256(_csv_bytes(run_scenarios(
        preset(name, trials=2, seed=0))).encode()).hexdigest()
        for name in PRESETS}
    assert got == GOLDEN_PRESET_SHA256


# sha256 of the CSV of one scenario per path that no preset reaches, seed=0,
# trials=2 unless given: name -> (Scenario fields, sha256)
PATH_PIN_SHA256 = {
    "cpll-f_pll": (
        dict(oscillator="CPLL", sweep="f_pll", sweep_values=(1e5, 1e6)),
        "c98afaefbaac862a78bf46c12accfe078467c6c7ba291deb79a28dc9b2cf0c84"),
    "dpll-spline-lsmr": (
        dict(oscillator="DPLL", estimator="spline", equalizer="lsmr_ic",
             sweep="beta_pn", sweep_values=(1e3, 5e3)),
        "68afc903d8b59ac09e2f34e3a81cb52cd254c380c58392d116f5a0cee3a03bd4"),
    "awgn-perfect-16qam": (
        dict(channel="awgn", estimator="perfect", qam_order=16,
             sweep_values=(10.0, 20.0)),
        "607b08b7de3306f5a5934d9e0fcd1562998877066a17840d9cdf390ba3763213"),
    "stage1-velocity": (
        dict(estimator="stage1", sweep="velocity", sweep_values=(0.0, 500.0)),
        "6097fda86a48c8704fe1884eb8c6e53bd1dc2fceaf3a102befeac36dd20b7de9"),
    "cpll-ofdm-interp": (
        dict(oscillator="CPLL", estimator="ofdm_ptrp_interp", velocity=300.0),
        "60154239353bfba1ac08c4703acecf5781bad89eccd2bde9c45f8c0b3dc82745"),
    "bem-f_D": (
        dict(estimator="bem", sweep="f_D", sweep_values=(0.0, 500.0)),
        "96d0b7a384facdcdf46d6e929d5fe0db0ac57c41b5e72ec561165e0859067db7"),
    "long-guard": (
        dict(pilot_L=10),
        "2dff689a19a464c5794f9351e4064f27a3d528a02bbaf11c00a38565c7987097"),
    "cpll-sinr": (
        dict(kind="sinr", oscillator="CPLL", sweep="beta_pn",
             sweep_values=(1e2, 1e3), trials=40),
        "c2f4d1b623b57400feaa238005f1105065cacf203514dfd9eb3054cdfb9e87de"),
    "dpll-sinr": (
        dict(kind="sinr", oscillator="DPLL", sweep="f_pll",
             sweep_values=(1e5, 1e6), trials=40),
        "3fa9beb682109dc3c14ff4793cc665eb63a0e50d61cddf4f8c7ee4746804c249"),
}


def test_unpreset_paths_match_pinned_csv_hashes():
    """PLL oscillators, the awgn channel, the f_D and velocity sweeps, a
    guard longer than the channel, OFDM interpolation and PLL SINR, which no
    preset runs, reproduce their CSV bytes.  Like the golden table, a
    refactor never touches this one."""
    got = {name: hashlib.sha256(_csv_bytes(run_scenarios(
        [Scenario(name=name, **{"trials": 2, **kw})])).encode()).hexdigest()
        for name, (kw, _) in PATH_PIN_SHA256.items()}
    assert got == {name: sha for name, (_, sha) in PATH_PIN_SHA256.items()}


def test_every_preset_scenario_is_pinned():
    """The 80 preset scenarios at both scales and default trial counts keep
    their hashes; the golden test above builds only desk scale at trials=2."""
    blob = "".join(s.hash() for name in PRESETS for full in (False, True)
                   for s in preset(name, full=full))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "09bb2e987e42bf8b06c7e12719f24f14e9db5b8caf8d287837e0e7b14ec796d6")


def test_awgn_matches_q_function():
    from scipy.stats import norm
    s = Scenario(name="awgn", channel="awgn", beta_pn=0.0, estimator="perfect",
                 sweep="snr_db", sweep_values=(4.0,), trials=150, seed=2)
    rows = [r for r in run_scenarios([s]) if r.metric == "ber"]
    theory = norm.sf(np.sqrt(10 ** 0.4))
    se = rows[0].ci95 / 1.96
    assert abs(rows[0].value - theory) < 3 * se


def test_measured_sinr_nonincreasing_in_beta():
    s = Scenario(name="s", kind="sinr", sweep="beta_pn",
                 sweep_values=(0.0, 100.0, 1000.0), trials=200, seed=1)
    rows = run_scenarios([s])
    meas = [r.value for r in rows if r.metric == "sinr_otfs_measured_db"]
    assert all(a >= b for a, b in zip(meas, meas[1:]))


def test_ber_nonincreasing_in_snr_within_ci():
    for estimator in ("proposed", "stage1"):
        s = Scenario(name="mono", beta_pn=1e3, estimator=estimator,
                     sweep="snr_db", sweep_values=(5.0, 15.0, 25.0),
                     trials=60, seed=3)
        rows = [r for r in run_scenarios([s]) if r.metric == "ber"]
        for lo, hi in zip(rows, rows[1:]):
            assert hi.value <= lo.value + lo.ci95 + hi.ci95


def test_otfs_beats_ofdm_ptrp_at_high_phase_noise():
    # reference comparison: proposed OTFS vs OFDM phase-tracking pilots
    common = dict(beta_pn=5e3, velocity=0.0, snr_db=24.0, sweep="snr_db",
                  sweep_values=(24.0,), trials=120, seed=7)
    otfs = run_scenarios([Scenario(name="o1", estimator="proposed", **common)])
    ofdm = run_scenarios([Scenario(name="o2", estimator="ofdm_ptrp", **common)])
    b_otfs = [r for r in otfs if r.metric == "ber"][0]
    b_ofdm = [r for r in ofdm if r.metric == "ber"][0]
    assert b_otfs.value < b_ofdm.value


def test_sweep_value_overrides_field():
    s = Scenario(name="x", sweep="beta_pn", sweep_values=(0.0,), beta_pn=5e3,
                 channel="awgn", estimator="perfect", trials=4, seed=1)
    rows = [r for r in run_scenarios([s]) if r.metric == "evm"]
    # beta swept to 0 -> pure AWGN EVM at 20 dB, ~0.1
    assert rows[0].value == pytest.approx(0.1, rel=0.15)


def test_label_prefixes_metrics():
    s = Scenario(name="lab", label="proposed", channel="awgn", beta_pn=0.0,
                 estimator="perfect", sweep="snr_db", sweep_values=(10.0,),
                 trials=3, seed=0)
    names = {r.metric for r in run_scenarios([s])}
    assert names == {"proposed_ber", "proposed_evm", "proposed_nmse"}


def test_label_prefixes_sinr_metrics():
    s = Scenario(name="lab", kind="sinr", label="x", sweep="beta_pn",
                 sweep_values=(100.0,), trials=4, seed=0)
    names = {r.metric for r in run_scenarios([s])}
    assert names == {f"x_sinr_{w}_{how}_db" for w in ("otfs", "ofdm")
                     for how in ("analytic", "measured")}


def test_presets_constructible():
    for name in PRESETS:
        for full in (False, True):
            scenarios = preset(name, trials=2, seed=1, full=full)
            assert len(scenarios) >= 1
            for s in scenarios:
                assert s.trials == 2
    with pytest.raises(ValueError):
        preset("fig99")


def test_fig7_is_fig6():
    """fig7 plots the NMSE of fig6's simulation, so both names give one
    experiment: the same scenarios under the same hashes, at both scales."""
    for full in (False, True):
        fig6, fig7 = (preset(name, trials=2, full=full) for name in ("fig6", "fig7"))
        assert fig7 == fig6
        assert [s.hash() for s in fig7] == [s.hash() for s in fig6]


def test_preset_full_flag_switches_grid():
    desk = preset("fig6", trials=2)[0]
    full = preset("fig6", trials=2, full=True)[0]
    assert (desk.M, desk.N) == (32, 16)
    assert (full.M, full.N) == (128, 32)


# Q of the bem curve at every sweep point of each preset that has one, desk
# and full grid; fig10-fig14 run Q = 2 (desk) and 4 (full) at every point.
# No CSV is pinned at the full grid, and fig9's 2*M*N*T_s*f_D are exactly
# 0.5, 1, 2, 3 and 4, on the integer edges of Q
_BEM_ORDERS = {
    False: {"fig6": [2, 2, 2, 2, 2, 3], "fig8": [2, 2, 2, 2, 3, 4], "fig9": [2, 2, 3, 4, 5]},
    True: {"fig6": [2, 2, 3, 4, 7, 12], "fig8": [2, 3, 4, 7, 12, 23], "fig9": [2, 2, 3, 4, 5]},
}


@pytest.mark.parametrize("full", [False, True], ids=["desk", "full"])
@pytest.mark.parametrize("name", [f"fig{i}" for i in (6, *range(8, 15))])   # fig7 is fig6
def test_bem_order_pinned_at_every_preset_point(name, full):
    from otfspn import harness
    s, = (s for s in preset(name, full=full) if s.estimator == "bem")
    points = [harness._resolve_point(s, float(v)) for v in s.sweep_values]
    orders = [est.bem_order(p.cfg, p.profile.f_D, p.model.beta_pn, s.bem_k_over,
                            s.bem_include_pn) for p in points]
    assert orders == _BEM_ORDERS[full].get(name, [4 if full else 2] * len(points))


def test_preset_fig9_smoke():
    scenarios = preset("fig9", trials=3, seed=2)
    rows = run_scenarios(scenarios[:2])
    assert any(r.metric.endswith("ber") for r in rows)


def test_cli_run_and_preset(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    save_scenario(Scenario(name="cli", channel="awgn", beta_pn=0.0,
                           estimator="perfect", sweep="snr_db",
                           sweep_values=(6.0,), trials=3, seed=0), str(cfg))
    out = tmp_path / "out.csv"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and len(parse_csv(str(out))) == 3

    # a run that fails after --out is opened leaves the old file as it was
    good = out.read_bytes()
    bad = tmp_path / "bad.yaml"
    bad.write_text("qam_order: 6\n")
    assert cli_main(["run", str(bad), "--out", str(out)]) == 1
    assert "unknown qam_order 6" in capsys.readouterr().err
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.yaml", "out.csv", "s.yaml"]

    assert cli_main(["preset", "fig5", "--trials", "16",
                     "--out", str(tmp_path / "fig5.csv")]) == 0
    rows = parse_csv(str(tmp_path / "fig5.csv"))
    assert any(r.metric == "sinr_otfs_analytic_db" for r in rows)

    assert cli_main(["run", str(tmp_path / "missing.yaml")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    for text, key in [("estimator: genie\n", "estimator"),
                      ("sweep_values: 5\n", "sweep_values"),
                      ('trials: "3"\n', "trials"),
                      ("M: 32.5\n", "M"),
                      ("name: [x\n", "cannot parse scenario file"),
                      ("a: 1\n3: 2\n", "unknown scenario keys: [3, 'a']"),
                      ("trials: 5\nname: a\ntrials: 50\n", "duplicate key 'trials'"),
                      ("? [a]\n: 1\n", "found unhashable key"),
                      ("estimator: ofdm_ptrp\nptrp_spacing: 0\n", "ptrp_spacing"),
                      ("velocity: -100.0\n", "velocity must be >= 0"),
                      ("sweep: velocity\nsweep_values: [-100.0]\n",
                       "velocity must be >= 0"),
                      ("sweep: f_D_norm\nsweep_values: [-0.5]\n",
                       "f_D_norm must be >= 0"),
                      ("delay_spread: -1.0e-9\n", "delay_spread must be >= 0"),
                      ("f_c: -5.9e+9\nvelocity: 100.0\n", "f_c must be > 0"),
                      ("f_c: -5.9e+9\nvelocity: 0.0\n", "f_c must be > 0"),
                      # the pilots leave no data cell, and an OFDM CP longer than M
                      ("estimator: ofdm_ptrp\nptrp_spacing: 1\n", "ptrp_spacing"),
                      ("M: 15\n", "M x N = 15 x 16"),
                      ("estimator: ofdm_ptrp\nM: 3\n",
                       "n_cp 16 exceeds the OFDM symbol, M = 3"),
                      # dB values whose power is not a finite positive float
                      ("sweep: beta_pn\nsnr_db: 1.0e+300\n", "snr_db 1e+300 dB"),
                      ("sweep_values: [1.0e+300]\n", "snr_db 1e+300 dB"),
                      ("sweep_values: [-1.0e+300]\n", "snr_db -1e+300 dB"),
                      ("pilot_boost_db: 1.0e+300\n", "pilot_boost_db 1e+300 dB"),
                      # past 2**63 samples of delay, and Doppler past bandwidth/2
                      ("bandwidth: 1.0e+300\n", "exceeds CP (n_cp = 16)"),
                      ("delay_spread: 1.0e+300\n", "exceeds CP (n_cp = 16)"),
                      ("velocity: 1.0e+300\n", "from velocity and f_c"),
                      ("oscillator: DPLL\nf_pll: 1.0e-300\n", "f_pll = 1e-300"),
                      ("oscillator: DPLL\nf_pll: 1.0e+300\n", "f_pll = 1e+300"),
                      # a coded frame with no information bit past the code's tail
                      ("coded: true\nM: 16\nN: 2\n", "coded: true needs more than 12 "
                       "data bits for the code's tail; the pilots leave 4 on the "
                       "M x N = 16 x 2 grid"),
                      # an integer past the float range
                      ("snr_db: 1" + "0" * 400 + "\n", "snr_db must be finite"),
                      ("sweep_values: [1" + "0" * 400 + "]\n", "sweep_values entry"),
                      # past numpy's index range (2**63 - 1 here)
                      ("M: 1" + "0" * 30 + "\n", "M = 1" + "0" * 30 + " is past"),
                      ("N: 1" + "0" * 30 + "\n", "N = 1" + "0" * 30 + " is past"),
                      ("M: 4294967296\nN: 4294967296\n",
                       "M*N = 18446744073709551616 is past"),
                      ("trials: 1" + "0" * 30 + "\n", "trials = 1" + "0" * 30 + " is past")]:
        bad.write_text(text)
        assert cli_main(["run", str(bad)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, err
        assert "Traceback" not in err


def test_cli_rejects_ineffective_sweep_before_any_trial(tmp_path, capsys,
                                                       monkeypatch):
    ran = []
    monkeypatch.setattr("otfspn.cli.run_scenarios",
                        lambda *a, **k: ran.append(a) or [])
    bad = tmp_path / "bad.yaml"
    bad.write_text("oscillator: FRO\nsweep: f_pll\nsweep_values: [1.0e5, 1.0e6]\n")
    assert cli_main(["run", str(bad)]) == 1
    assert ran == []
    assert "f_pll has no effect" in capsys.readouterr().err


def _count_trials(monkeypatch):
    import otfspn.harness as harness
    calls = []
    for name in ("_transmit", "_run_sinr_point"):
        fn = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, _fn=fn, **k: calls.append(a) or _fn(*a, **k))
    return calls


GOOD = Scenario(name="good", channel="awgn", n_cp=0, beta_pn=0.0,
                estimator="perfect", sweep="snr_db", sweep_values=(6.0,),
                trials=2)


@pytest.mark.parametrize("bad,message", [
    # TDL-C at 100 ns and 7.68 MHz spans L = 8 samples
    (dict(n_cp=4), "exceeds CP"),
    (dict(n_cp=4, estimator="ofdm_ptrp"), "exceeds CP"),
    (dict(M=8), "guard region"),
    (dict(pilot_L=20), "guard region"),
    (dict(qam_order=8), "qam_order 8"),
    (dict(beta_pn=-1.0), "beta_pn"),
    (dict(oscillator="CPLL", f_pll=-1.0), "f_pll"),
    (dict(i_ic=0), "i_ic"),
    (dict(i_lsmr=0), "i_lsmr"),
    (dict(beta_pn=float("nan")), "beta_pn"),
    (dict(pilot_L=4), "pilot_L"),
    (dict(estimator="ofdm_ptrp", ptrp_spacing=0), "ptrp_spacing"),
    (dict(estimator="bem", bem_k_over=0.0), "bem_k_over"),
])
def test_run_scenarios_checks_every_point_before_any_trial(monkeypatch, bad,
                                                           message):
    calls = _count_trials(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_scenarios([GOOD, Scenario(name="late", velocity=100.0,
                                      sweep="snr_db", sweep_values=(0.0, 10.0),
                                      trials=2, **bad)])
    assert calls == []


@pytest.mark.parametrize("estimator", ["bem", "proposed"])
def test_pilot_guard_longer_than_channel(estimator):
    # pilot_L = 10 > L = 8: the estimate has two more taps, whose truth is 0
    rows = run_scenarios([Scenario(name="long", pilot_L=10, estimator=estimator,
                                   velocity=100.0, sweep_values=(20.0,),
                                   trials=2)])
    nmse = [r.value for r in rows if r.metric == "nmse"]
    assert len(nmse) == 1 and np.isfinite(nmse[0])


def test_fail_fast_check_accepts_what_trials_accept(monkeypatch):
    # no channel is drawn for awgn links or sinr runs, so a short CP is fine
    calls = _count_trials(monkeypatch)
    sinr = Scenario(name="sinr", kind="sinr", n_cp=0, sweep="beta_pn",
                    sweep_values=(10.0,), trials=2)
    rows = run_scenarios([GOOD, sinr])
    assert len(calls) == 3 and len(rows) == 3 + 4


# Bases of the generated edge test, one sweep value and one trial each.  The
# link bases run every receiver of their waveform on one transmit, and between
# them they cover the two PLL oscillators; sinr tries the fields it reads.
_EDGE_BASES = {
    "otfs": Scenario(name="otfs", oscillator="CPLL", velocity=100.0,
                     equalizer="lsmr_ic", sweep_values=(10.0,), trials=1),
    "ofdm": Scenario(name="ofdm", oscillator="DPLL", velocity=100.0,
                     estimator="ofdm_ptrp", sweep_values=(10.0,), trials=1),
    "sinr": Scenario(name="sinr", kind="sinr", sweep="beta_pn",
                     sweep_values=(10.0,), trials=1),
}
# a check that relates several fields may name another of them
_RELATED = {"bandwidth": ("n_cp", "f_pll"), "delay_spread": ("n_cp",)}
# The generated cases whose value is inside its field's domain but that a rule
# relating fields, or one that needs the grid, rejects.  Every other in-domain
# case must run, so a new rule that rejects a running case fails the test
# until its cases are added here.
_REJECTED_INSIDE = frozenset("""
    otfs-kind=sinr otfs-M=2 otfs-n_cp=0 otfs-f_c=1e+300 otfs-bandwidth=1e-300
    otfs-bandwidth=1e+300 otfs-delay_spread=1e+300 otfs-velocity=1e+300
    otfs-f_D=1e+300 otfs-pilot_L=1 otfs-pilot_boost_db=-1e+300
    otfs-pilot_boost_db=1e+300 otfs-sweep=f_D_norm otfs-sweep-snr_db=-1e+300
    otfs-sweep-snr_db=1e+300 otfs-sweep-f_D=1e+300 otfs-sweep-f_D_norm=1e+300
    otfs-sweep-velocity=1e+300
    ofdm-kind=sinr ofdm-M=2 ofdm-n_cp=0 ofdm-f_c=1e+300 ofdm-bandwidth=1e-300
    ofdm-bandwidth=1e+300 ofdm-f_pll=1e-300 ofdm-f_pll=1e+300
    ofdm-delay_spread=1e+300 ofdm-velocity=1e+300 ofdm-f_D=1e+300
    ofdm-ptrp_spacing=1 ofdm-sweep=f_D_norm ofdm-sweep-snr_db=-1e+300
    ofdm-sweep-snr_db=1e+300 ofdm-sweep-f_pll=1e-300 ofdm-sweep-f_pll=1e+300
    ofdm-sweep-f_D=1e+300 ofdm-sweep-f_D_norm=1e+300 ofdm-sweep-velocity=1e+300
    sinr-snr_db=-1e+300 sinr-snr_db=1e+300 sinr-sweep=f_pll sinr-sweep=f_D
    sinr-sweep=f_D_norm sinr-sweep=velocity sinr-sweep-snr_db=-1e+300
    sinr-sweep-snr_db=1e+300 sinr-sweep-f_pll=1e-300 sinr-sweep-f_pll=1e+300
""".split())
# The generated cases that run but warn, with the warning's text.  The
# package's own warnings are errors under pytest (pyproject.toml), so a new
# warning fails the test until its case is added here.
_WARNS_INSIDE = {"otfs-bem_k_over=1e+300": "BEM order .* clamping"}


def _edges(annotation: str, row) -> list:
    """(value, inside the domain) at each edge of a table row's domain and one
    step outside it: every choice and one unknown, a lower bound, and +-1e300
    where the domain allows.  A huge integer would allocate or loop in
    proportion (M, N, trials, i_ic, i_lsmr), so integers stop at the bound."""
    kind = annotation.partition(" | ")[0]
    if row["choices"]:
        wrong = "unknown" if kind == "str" else max(row["choices"]) + 1
        return [(c, True) for c in row["choices"]] + [(wrong, False)]
    if kind == "bool":
        return [(True, True), (False, True)]
    if row["low"] is None:
        return [(-1e300, True), (1e300, True)] if kind == "float" else []
    op, low = row["low"]
    step = 1 if kind == "int" else 1e-300
    edge = low + step if op == ">" else low
    out = [(edge, True), (edge - step, False)]
    return out if kind == "int" else out + [(1e300, True)]


def _edge_cases():
    table = {f.name: f for f in fields(Scenario)}
    for name, base in _EDGE_BASES.items():
        for f in table.values():
            if base.kind == "link" or not f.metadata["link"]:
                for value, inside in _edges(f.type, f.metadata):
                    yield pytest.param(name, f.name, {f.name: value}, inside,
                                       id=f"{name}-{f.name}={value}")
        for axis in SWEEPS:
            if base.kind == "sinr" and axis in ("f_D", "f_D_norm", "velocity"):
                continue
            # sweeping f_D_norm rejects a base velocity, which it would ignore
            reset = {"velocity": 0.0} if axis == "f_D_norm" else {}
            for value, inside in _edges("float", table.get(axis, _F_D_NORM).metadata):
                yield pytest.param(name, axis, {"sweep": axis, "sweep_values": (value,),
                                                **reset},
                                   inside, id=f"{name}-sweep-{axis}={value}")


@pytest.mark.parametrize("base,key,kw,inside", list(_edge_cases()))
def test_every_field_edge_fails_before_any_trial_or_runs_finite(monkeypatch, request,
                                                                base, key, kw, inside):
    """Generated from the Scenario table: a value is rejected with a
    ValueError naming its key before the first trial, or it runs and writes
    a finite BER and EVM.  A value outside its domain is always rejected,
    and one inside it is rejected exactly when ``_REJECTED_INSIDE`` lists it."""
    case = request.node.callspec.id
    calls = _count_trials(monkeypatch)
    try:
        s = replace(_EDGE_BASES[base], **kw)
        family = [e for e in ESTIMATORS if e.startswith("ofdm") == (base == "ofdm")]
        curves = [s] if "estimator" in kw or s.kind == "sinr" else [
            replace(s, label=e, estimator=e) for e in family]
        with (pytest.warns(UserWarning, match=_WARNS_INSIDE[case])
              if case in _WARNS_INSIDE else nullcontext()):
            rows = run_scenarios(curves)
    except ValueError as e:
        assert calls == []
        names = "|".join((key, *_RELATED.get(key, ())))
        assert re.search(rf"\b({names})\b", str(e)), str(e)
        assert not inside or case in _REJECTED_INSIDE, f"{case} rejected: {e}"
        return
    assert inside, f"{kw} ran"
    assert case not in _REJECTED_INSIDE, f"{case} ran"
    assert all(np.isfinite(r.value) for r in rows
               if r.metric.endswith(("ber", "evm"))), rows


def _interleaved():
    fig6 = {s.label: s for s in preset("fig6", trials=2)}
    fig11 = {s.label: s for s in preset("fig11", trials=2)}
    return [replace(fig6["proposed"], sweep_values=(1e3, 5e3)),
            replace(fig11["proposed"], sweep_values=(20.0,)),
            replace(fig6["bem"], sweep_values=(1e3, 5e3))]


@pytest.mark.parametrize("scenarios", [
    lambda: preset("fig11", trials=2),      # an OTFS and an OFDM group
    lambda: preset("fig13", trials=2),      # coded
    _interleaved,                           # one group split by another curve
], ids=["fig11", "fig13", "interleaved"])
def test_bytes_do_not_depend_on_grouping(scenarios):
    """Curves that share one transmit per trial give the bytes of the same
    curves run one at a time, in list order."""
    curves = scenarios()
    assert _csv_bytes(run_scenarios(curves)) == _csv_bytes(
        [r for s in curves for r in run_scenarios([s])])


def test_curves_share_one_transmit_and_stage1_per_trial(monkeypatch):
    calls = _count_trials(monkeypatch)
    stage1 = []
    fn = est.stage1_estimate
    monkeypatch.setattr(est, "stage1_estimate",
                        lambda *a, **k: stage1.append(a) or fn(*a, **k))
    curves = [replace(s, sweep_values=(1e3, 5e3)) for s in preset("fig8", trials=3)]
    # a perfect-CSI curve on transmits of its own: a group no interpolator reads
    perfect = replace(curves[0], label="perfect", estimator="perfect",
                      seed=curves[0].seed + 1)
    run_scenarios([*curves, perfect])
    # four OTFS curves share one group, the OFDM curve and the perfect-CSI
    # curve are groups of their own, and every OTFS transmit runs stage 1
    assert len(calls) == 3 * 3 * 2 and len(stage1) == 2 * 3 * 2


def test_receivers_only_read_the_shared_transmit():
    """The shared transmit is read-only, so a receiver that wrote into it
    would raise here instead of changing the next curve's input."""
    from otfspn import harness
    base = Scenario(velocity=300.0, coded=True, sweep_values=(15.0,), trials=1)
    for waveform, estimators in (("otfs", ("proposed", "bem", "spline",
                                            "stage1", "perfect")),
                                 ("ofdm", ("ofdm_ptrp", "ofdm_ptrp_interp"))):
        points = [harness._resolve_point(replace(base, estimator=e, equalizer=q), 15.0)
                  for e in estimators for q in ("mmse", "lsmr_ic")]
        tx = harness._transmit(points[0], 4)
        shared = [v for v in vars(tx).values() if v is not None]
        assert len(shared) == (6 if waveform == "otfs" else 5)
        assert not any(a.flags.writeable for a in shared)
        for point in points:
            assert np.all(np.isfinite(harness._receive(point, tx)))


def test_lsmr_ic_reports_the_grid_it_returns_after_a_rejected_last_pass():
    """Desk fig11 ``proposed`` at 5 and 15 dB: some LSMR-IC calls reject
    their last pass and some accept it.  Either way the residual is that of
    the returned grid, and the symbols are its data cells."""
    from otfspn import harness
    s = next(c for c in preset("fig11", trials=30) if c.label == "proposed")
    flags = []
    for snr in (5.0, 15.0):
        p = harness._resolve_point(s, snr)
        for t in range(s.trials):
            tx = harness._transmit(p, s.seed + t)
            g_dt = est.stage2_estimate(tx.g_hat, p.wiener)
            det = eq.lsmr_ic_equalize(tx.r, g_dt, p.noise_var, p.cfg, p.layout,
                                      p.qam, s.i_ic, s.i_lsmr)
            y = est._cancel_pilot(tx.r, g_dt, p.cfg, p.layout)
            s_dt = grid.otfs_modulate(det.dd_grid, p.cfg, with_cp=False)
            res = np.linalg.norm(y - eq.ChannelOp(g_dt).matvec(s_dt))
            assert abs(det.residual - res) <= 1e-12 * res
            assert np.array_equal(det.symbols,
                                  est.extract_data(det.dd_grid, p.layout, p.cfg))
            flags.append(det.converged)
    assert any(flags) and not all(flags), f"{sum(flags)} of {len(flags)} converged"


def test_cli_rejects_unwritable_out_before_any_trial(tmp_path, capsys,
                                                    monkeypatch):
    calls = _count_trials(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["preset", "fig5", "--trials", "2", "--out", str(out)]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write CSV to {out}"), err
    assert "Traceback" not in err


def test_cli_rejects_short_cp_before_any_trial(tmp_path, capsys, monkeypatch):
    calls = _count_trials(monkeypatch)
    bad = tmp_path / "bad.yaml"
    save_scenario(Scenario(name="bad", n_cp=4, sweep="snr_db",
                           sweep_values=(0.0, 10.0), trials=2), str(bad))
    assert cli_main(["run", str(bad)]) == 1
    assert calls == []
    assert "exceeds CP" in capsys.readouterr().err


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports otfspn from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fro_runs_import_no_scipy_signal_or_interpolate():
    # scipy.signal (which loads scipy.stats, scipy.optimize and
    # scipy.interpolate) is imported only by the PLL path sampler, and the
    # spline estimator is computed in house; an FRO link, spline baseline
    # included, or an sinr run must not pay for them.  The CLI and an sinr
    # run load no scipy at all: it is imported where a link trial calls it.
    # The channel module does not load the phase-noise analysis.
    out = _fresh_python("""
import sys
import otfspn.channel
print("otfspn.dd_analysis" in sys.modules)
import otfspn.cli
from otfspn.harness import Scenario, run_scenarios
sinr = Scenario(name="sinr", kind="sinr", sweep="beta_pn",
                sweep_values=(100.0,), trials=1)
assert run_scenarios([sinr])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
link = Scenario(name="lsmr", M=32, N=16, velocity=500.0, equalizer="lsmr_ic",
                estimator="proposed", sweep_values=(15.0,), trials=1)
spline = Scenario(name="spline", M=32, N=16, equalizer="mmse",
                  estimator="spline", sweep_values=(15.0,), trials=1)
assert run_scenarios([link, spline])
print(sorted(m for m in ("scipy.signal", "scipy.interpolate", "scipy.stats",
                         "scipy.optimize") if m in sys.modules))
""")
    assert out.splitlines() == ["False", "[]", "[]"]


# CPLL and DPLL paths (scipy.signal) and a spline estimate; scipy.interpolate
# is loaded here too, but only because scipy.signal imports it
_LAZY_PATHS = """
import hashlib
import numpy as np
from otfspn.estimation import PilotLayout, spline_estimate
from otfspn.grid import GridConfig
from otfspn.oscillator import PhaseNoiseModel, path_blocks
cfg = GridConfig(M=32, N=16, n_cp=16)
thetas = [next(path_blocks(PhaseNoiseModel(kind, 1e3, 1e-7), 1, 512, 4, 1))[0]
          for kind in ("CPLL", "DPLL")]
layout = PilotLayout(L=2).resolved(cfg)
g_hat = np.random.default_rng(5).standard_normal((2, cfg.N)) + 0j
g_dt = spline_estimate(g_hat, cfg, layout)
digest = hashlib.sha256(b"".join(a.tobytes() for a in (*thetas, g_dt))).hexdigest()
"""


def test_lazy_scipy_imports_still_run():
    out = _fresh_python(_LAZY_PATHS + """
import sys
print(digest, "scipy.signal" in sys.modules, "scipy.interpolate" in sys.modules)
""")
    scope = {}
    exec(_LAZY_PATHS, scope)   # here every module is imported already
    assert out.split() == [scope["digest"], "True", "True"]


def _numpy_blas() -> str:
    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


# One fig11 trial per scale and channel after a warm-up: each shared transmit,
# then every OTFS estimator with MMSE and with LSMR-IC, over TDL-C and over
# AWGN, whose one tap makes the stage-2 and BEM products GEMVs.  Prints the
# CPU nanoseconds that threads other than the main one gained during the
# trials, and during one product on OpenBLAS's threading cut-off.  An idle
# pool thread spins for a while before it parks, so each reading starts and
# ends after 0.3 s idle.
_POOL_PROBE = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "2"    # before numpy loads OpenBLAS
import glob, json, time
from dataclasses import replace
import numpy as np
from otfspn import harness

def others():
    main = os.getpid()
    ns = {}
    for path in glob.glob("/proc/self/task/*/schedstat"):
        tid = int(path.split("/")[-2])
        if tid != main:
            with open(path) as f:
                ns[tid] = int(f.read().split()[0])
    return ns

def gained(before):
    time.sleep(0.3)         # a running thread's time is booked when it parks
    return {t: ns - before.get(t, 0) for t, ns in others().items()
            if ns > before.get(t, 0)}

groups = []
for full in (False, True):
    curves = [s for s in harness.preset("fig11", trials=1, full=full)
              if not s.estimator.startswith("ofdm")]
    curves.append(replace(curves[0], estimator="perfect"))
    for channel in ("tdl_c", "awgn"):
        groups.append([harness._resolve_point(replace(s, channel=channel, equalizer=e),
                                              20.0)
                       for s in curves for e in ("mmse", "lsmr_ic")])

def trial(seed):
    for points in groups:
        tx = harness._transmit(points[0], seed)
        for point in points:
            harness._receive(point, tx)

trial(0)                    # per-point caches and first-call set-up
time.sleep(0.3)             # the pool parks
before = others()
trial(1)
in_trial = gained(before)
before = others()
np.ones((512, 16), complex) @ np.ones((16, 8), complex)   # M*N*K = 65536
print(json.dumps([in_trial, gained(before)]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
                    or "openblas" not in _numpy_blas().lower(),
                    reason="needs Linux per-thread schedstat, 2 CPUs and OpenBLAS")
def test_trials_never_wake_the_blas_pool():
    """No product of a desk or full-grid trial reaches OpenBLAS's threading
    cut-off, so no thread but the main one runs during the trial, even with
    two BLAS threads.  The last product, on the cut-off, must wake the pool:
    if a newer OpenBLAS moved the cut-off, that fails here."""
    in_trial, canary = json.loads(_fresh_python(_POOL_PROBE))
    assert in_trial == {}
    assert canary, "a 512x16x8 complex product did not wake the BLAS pool"
