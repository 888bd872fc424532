"""Correctness of a workload's CSV against the reference captured at the
seed commit.

Rows are matched by position (the harness emits curves, then sweep points,
then sorted metric names) and grouped into sweep-point runs; a point fails
if any of its rows fails.  Checks per row:

* layout: same sweep name, sweep value and metric name as the reference,
  and the trial count, seed and scenario hash the run asked for;
* value: finite, and for a full run within ``Z`` combined CI95 widths of
  the reference value.  A run's own CI95 can collapse on few trials (a BER
  curve with no errors), so it is floored by the reference CI95 scaled to
  the run's trial count.  Rows with no spread in the reference (analytic
  SINR) must match to 1e-9 relative;
* measured SINR equals analytic SINR within the same tolerance.

Set-up runs (one trial per point) get the layout and finiteness checks only:
a single trial has no CI to derive a tolerance from.
"""

from __future__ import annotations

import io
import math
from itertools import groupby
from pathlib import Path

from otfspn.harness import parse_csv

REFERENCE = Path(__file__).resolve().parent / "reference"

Z = 4.0             # CI95 widths allowed, about 8 standard errors
EXACT_RTOL = 1e-9


def _run_ci(ref, row) -> float:
    """The run's CI95, floored by the reference CI95 scaled to its trials."""
    return max(row.ci95, ref.ci95 * math.sqrt(ref.trials / row.trials))


def _tol(ref, row) -> float:
    return Z * math.hypot(ref.ci95, _run_ci(ref, row))


def _row_errors(ref, row, expect, full: bool) -> list:
    errs = []
    if (row.sweep_name, row.sweep_value, row.metric) != (
            ref.sweep_name, ref.sweep_value, ref.metric):
        return [f"row {row.metric}@{row.sweep_value} where reference has "
                f"{ref.metric}@{ref.sweep_value}"]
    if (row.trials, row.seed, row.scenario_hash) != expect:
        errs.append(f"{row.metric}@{row.sweep_value}: trials/seed/hash "
                    f"{(row.trials, row.seed, row.scenario_hash)} != {expect}")
    if not (math.isfinite(row.value) and math.isfinite(row.ci95)):
        errs.append(f"{row.metric}@{row.sweep_value}: non-finite value")
    elif full:
        if ref.ci95 == 0.0:
            if abs(row.value - ref.value) > EXACT_RTOL * max(1.0, abs(ref.value)):
                errs.append(f"{row.metric}@{row.sweep_value}: {row.value!r} != "
                            f"reference {ref.value!r}")
        elif abs(row.value - ref.value) > _tol(ref, row):
            errs.append(f"{row.metric}@{row.sweep_value}: {row.value:.6g} vs "
                        f"reference {ref.value:.6g} +- {_tol(ref, row):.3g}")
    return errs


def _sinr_errors(refs, rows) -> list:
    """(row index, error) where measured SINR misses analytic SINR."""
    errs = []
    for i, row in enumerate(rows):
        if not (row.metric.startswith("sinr_") and row.metric.endswith("_measured_db")):
            continue
        ana = rows[i - 1]
        if ana.metric != row.metric.replace("_measured_", "_analytic_"):
            errs.append((i, f"{row.metric}@{row.sweep_value}: analytic row missing"))
            continue
        tol = Z * _run_ci(refs[i], row)
        if abs(row.value - ana.value) > tol:
            errs.append((i, f"{row.metric}@{row.sweep_value}: measured "
                            f"{row.value:.4f} dB vs analytic {ana.value:.4f} dB "
                            f"+- {tol:.4f}"))
    return errs


def load_reference(workload: str) -> list:
    return parse_csv(REFERENCE / f"{workload}.csv")


def check_csv(data: bytes, reference, scenarios, full: bool) -> list:
    """[(sweep point label, [errors])] for the points of ``data`` that fail."""
    expect = [(s.trials, s.seed, s.hash()) for s in scenarios for _ in s.sweep_values]
    labels = [f"{s.name}@{v}" for s in scenarios for v in s.sweep_values]
    # the reference rows of one sweep point are consecutive
    sizes = [len(list(g)) for _, g in
             groupby(reference, key=lambda r: (r.scenario_hash, r.sweep_value))]
    if len(sizes) != len(expect):
        raise ValueError(f"reference has {len(sizes)} sweep points, "
                         f"workload has {len(expect)}")
    point_of_row = [p for p, n in enumerate(sizes) for _ in range(n)]
    try:
        rows = parse_csv(io.StringIO(data.decode()))
    except (ValueError, IndexError) as e:
        rows = [None]
        msg = f"unreadable CSV: {e}"
    else:
        msg = f"{len(rows)} rows, reference has {len(reference)}"
    if len(rows) != len(reference):
        return [(label, [msg]) for label in labels]
    errors = [[] for _ in expect]
    for i, (ref, row) in enumerate(zip(reference, rows)):
        errors[point_of_row[i]] += _row_errors(ref, row, expect[point_of_row[i]], full)
    if full:
        for i, err in _sinr_errors(reference, rows):
            errors[point_of_row[i]].append(err)
    return [(label, errs) for label, errs in zip(labels, errors) if errs]
