"""Workload definitions: which preset curves run, at which sweep points and
with how many trials per point.

Every workload is a list of scenarios taken from an ``otfspn`` figure preset,
trimmed to a few curves and sweep points.  The benchmark seed becomes the
scenarios' base seed, so the same seed gives the same inputs.  Why each
workload was chosen is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Curve:
    preset: str                 # figure preset name
    estimator: str              # curve label within the preset
    sweep_values: tuple         # sweep points kept from the preset axis


@dataclass(frozen=True)
class Workload:
    name: str
    full: bool                  # full grid (M=128, N=32) instead of desk scale
    curves: tuple
    trials: int                 # trials per sweep point in a full run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-lsmr",
            full=False,
            curves=(Curve("fig11", "proposed", (5.0, 15.0)),
                    Curve("fig11", "bem", (5.0, 15.0)),
                    Curve("fig11", "ofdm_ptrp", (5.0, 15.0)),
                    Curve("fig13", "proposed", (3.0, 6.0))),
            trials=12),
        Workload(
            "desk-mmse",
            full=False,
            curves=tuple(Curve("fig6", tag, (3e2, 5e3))
                         for tag in ("proposed", "bem", "spline", "stage1")),
            trials=40),
        Workload(
            "full-lsmr",
            full=True,
            curves=(Curve("fig11", "proposed", (20.0,)),),
            trials=24),
        Workload(
            "full-sinr",
            full=True,
            curves=(Curve("fig5", "", (10.0, 100.0, 1000.0)),),
            trials=1000),
    )
}


def scenarios(workload: Workload, seed: int, trials: int | None = None) -> list:
    """The workload's scenario list with base seed ``seed``.

    ``trials`` overrides the per-point trial count (1 for a set-up run).
    """
    from otfspn.harness import preset

    n = workload.trials if trials is None else trials
    out = []
    for c in workload.curves:
        by_label = {s.label: s for s in preset(c.preset, trials=n, seed=seed,
                                               full=workload.full)}
        out.append(replace(by_label[c.estimator], sweep_values=c.sweep_values))
    return out


def trial_count(scens) -> int:
    """Trials in a run: per sweep point, summed over points and curves.

    For a ``sinr`` scenario a trial is one phase path per waveform.
    """
    return sum(s.trials * len(s.sweep_values) for s in scens)
