import hashlib
import importlib
import inspect
import io
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import otfspn
from otfspn import channel as ch
from otfspn import equalization as eq
from otfspn import estimation as est
from otfspn import grid
from otfspn.cli import main as cli_main
from otfspn.harness import (PRESETS, ResultRow, Scenario, emit_csv,
                            load_scenario, parse_csv, preset, run_scenarios,
                            save_scenario)


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
    {"kind": "sinr", "estimator": "bem"},
    {"kind": "sinr", "velocity": 500.0},
])
def test_scenario_rejects_ineffective_sweep(kw):
    with pytest.raises(ValueError, match="no effect"):
        Scenario(**kw)


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
            eq._pilot_samples(cfg, layout), *eq._adjoint_index(cfg.frame_len, 8),
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
    assert len(caches) >= 13, sorted(caches)
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
    "fig7": "5e5f8d5a7434d54ac9d145212425751be8a1ffc07523b57c09b03f89b6f9d838",
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
        "7a4b3de9ac215b2f23bb35d8e464774db6e52e389adf0f2800e794c73150fcdd")


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


def test_preset_full_flag_switches_grid():
    desk = preset("fig6", trials=2)[0]
    full = preset("fig6", trials=2, full=True)[0]
    assert (desk.M, desk.N) == (32, 16)
    assert (full.M, full.N) == (128, 32)


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
    assert "unsupported QAM order 6" in capsys.readouterr().err
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
                      ("delay_spread: -1.0e-9\n", "delay_spread must be >= 0")]:
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
    for name in ("_run_trial", "_run_sinr_point"):
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
    (dict(qam_order=8), "QAM order"),
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
from otfspn.oscillator import PhaseNoiseModel, sample_paths
cfg = GridConfig(M=32, N=16, n_cp=16)
thetas = [sample_paths(PhaseNoiseModel(kind, 1e3, 1e-7), 1, 512, 4)[0]
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
