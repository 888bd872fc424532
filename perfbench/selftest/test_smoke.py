"""Smoke self-test of the benchmark.

    python3 -m pytest perfbench/selftest -q      # from the repository root

Runs every workload untraced and traced at a tiny trial count and checks
that no sweep-point run fails, that traced CSV bytes equal untraced ones
(``run.py`` counts a mismatch as a failure) and that every metric named in
BENCHMARK.json is printed with its unit.  It takes a few minutes, most of
it in the full-grid Jakes factor.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> list:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--trials", "2"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout
    return out.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, "\n".join(lines)
    assert result["correct"] is True
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines), f"{m['name']} not printed with its unit"
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
