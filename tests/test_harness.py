import io
import os

import numpy as np
import pytest

from otfspn.cli import main as cli_main
from otfspn.harness import (PRESETS, ResultRow, Scenario, emit_csv,
                            load_scenario, parse_csv, preset, run_scenario,
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
        Scenario.from_dict({"name": "x", "bogus_key": 1})


@pytest.mark.parametrize("kw", [
    {"sweep": "f_pll", "oscillator": "FRO"},
    {"sweep": "velocity", "f_D": 1e3},
    {"sweep": "velocity", "kind": "sinr"},
    {"sweep": "f_D", "kind": "sinr"},
    {"sweep": "f_D_norm", "kind": "sinr"},
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


def test_scenario_hash_frozen_value():
    # canonical serialization: the hash must not drift across releases
    s = Scenario()
    assert s.hash() == Scenario().hash()
    blob = s.hash()
    assert len(blob) == 16 and all(c in "0123456789abcdef" for c in blob)


def test_emit_csv_empty_and_roundtrip(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv([], str(p))
    text = p.read_text()
    assert text.splitlines() == [
        "sweep_name,sweep_value,metric,value,ci95,trials,scenario_hash,seed"]
    rows = [ResultRow("snr_db", 1.5, "ber", 0.123456789012345, 0.01, 7, "abc", 3)]
    emit_csv(rows, str(p))
    assert parse_csv(str(p)) == rows


def test_determinism_same_seed_same_bytes():
    s = Scenario(name="det", channel="awgn", beta_pn=0.0, estimator="perfect",
                 sweep="snr_db", sweep_values=(4.0,), trials=8, seed=11)
    a = _csv_bytes(run_scenario(s, workers=1))
    b = _csv_bytes(run_scenario(s, workers=1))
    assert a == b


def test_determinism_across_worker_counts():
    s = Scenario(name="det2", beta_pn=2e3, estimator="proposed",
                 sweep="snr_db", sweep_values=(10.0,), trials=12, seed=5)
    a = _csv_bytes(run_scenario(s, workers=1))
    b = _csv_bytes(run_scenario(s, workers=4))
    assert a == b


def test_awgn_matches_q_function():
    from scipy.stats import norm
    s = Scenario(name="awgn", channel="awgn", beta_pn=0.0, estimator="perfect",
                 sweep="snr_db", sweep_values=(4.0,), trials=150, seed=2)
    rows = [r for r in run_scenario(s) if r.metric == "ber"]
    theory = norm.sf(np.sqrt(10 ** 0.4))
    se = rows[0].ci95 / 1.96
    assert abs(rows[0].value - theory) < 3 * se


def test_measured_sinr_nonincreasing_in_beta():
    s = Scenario(name="s", kind="sinr", sweep="beta_pn",
                 sweep_values=(0.0, 100.0, 1000.0), trials=200, seed=1)
    rows = run_scenario(s)
    meas = [r.value for r in rows if r.metric == "sinr_otfs_measured_db"]
    assert all(a >= b for a, b in zip(meas, meas[1:]))


def test_ber_nonincreasing_in_snr_within_ci():
    for estimator in ("proposed", "stage1"):
        s = Scenario(name="mono", beta_pn=1e3, estimator=estimator,
                     sweep="snr_db", sweep_values=(5.0, 15.0, 25.0),
                     trials=60, seed=3)
        rows = [r for r in run_scenario(s) if r.metric == "ber"]
        for lo, hi in zip(rows, rows[1:]):
            assert hi.value <= lo.value + lo.ci95 + hi.ci95


def test_otfs_beats_ofdm_ptrp_at_high_phase_noise():
    # reference comparison: proposed OTFS vs OFDM phase-tracking pilots
    common = dict(beta_pn=5e3, velocity=0.0, snr_db=24.0, sweep="snr_db",
                  sweep_values=(24.0,), trials=120, seed=7)
    otfs = run_scenario(Scenario(name="o1", estimator="proposed", **common))
    ofdm = run_scenario(Scenario(name="o2", estimator="ofdm_ptrp", **common))
    b_otfs = [r for r in otfs if r.metric == "ber"][0]
    b_ofdm = [r for r in ofdm if r.metric == "ber"][0]
    assert b_otfs.value < b_ofdm.value


def test_sweep_value_overrides_field():
    s = Scenario(name="x", sweep="beta_pn", sweep_values=(0.0,), beta_pn=5e3,
                 channel="awgn", estimator="perfect", trials=4, seed=1)
    rows = [r for r in run_scenario(s) if r.metric == "evm"]
    # beta swept to 0 -> pure AWGN EVM at 20 dB, ~0.1
    assert rows[0].value == pytest.approx(0.1, rel=0.15)


def test_label_prefixes_metrics():
    s = Scenario(name="lab", label="proposed", channel="awgn", beta_pn=0.0,
                 estimator="perfect", sweep="snr_db", sweep_values=(10.0,),
                 trials=3, seed=0)
    names = {r.metric for r in run_scenario(s)}
    assert names == {"proposed_ber", "proposed_evm", "proposed_nmse"}


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
    rows = run_scenarios(scenarios[:2], workers=2)
    assert any(r.metric.endswith("ber") for r in rows)


def test_cli_run_and_preset(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    save_scenario(Scenario(name="cli", channel="awgn", beta_pn=0.0,
                           estimator="perfect", sweep="snr_db",
                           sweep_values=(6.0,), trials=3, seed=0), str(cfg))
    out = tmp_path / "out.csv"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and len(parse_csv(str(out))) == 3

    assert cli_main(["preset", "fig5", "--trials", "16",
                     "--out", str(tmp_path / "fig5.csv")]) == 0
    rows = parse_csv(str(tmp_path / "fig5.csv"))
    assert any(r.metric == "sinr_otfs_analytic_db" for r in rows)

    assert cli_main(["run", str(tmp_path / "missing.yaml")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("estimator: genie\n")
    assert cli_main(["run", str(bad)]) == 1
    assert "estimator" in capsys.readouterr().err


def test_cli_rejects_ineffective_sweep_before_any_trial(tmp_path, capsys,
                                                       monkeypatch):
    ran = []
    monkeypatch.setattr("otfspn.cli.run_scenario",
                        lambda *a, **k: ran.append(a) or [])
    bad = tmp_path / "bad.yaml"
    bad.write_text("oscillator: FRO\nsweep: f_pll\nsweep_values: [1.0e5, 1.0e6]\n")
    assert cli_main(["run", str(bad)]) == 1
    assert ran == []
    assert "f_pll has no effect" in capsys.readouterr().err
