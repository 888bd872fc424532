"""Capture the reference CSVs that ``check.py`` compares runs against.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs each workload's scenarios with ``REFERENCE_TRIALS`` trials per sweep
point at seed ``REFERENCE_SEED`` (apart from any seed ``run.py`` uses) and
writes ``perfbench/reference/<workload>.csv``.  Run it only at a commit
whose outputs are known good; the committed files come from the commit
that introduced the benchmark.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from check import REFERENCE  # noqa: E402
from otfspn.harness import emit_csv, run_scenarios  # noqa: E402
from workloads import WORKLOADS, scenarios  # noqa: E402

REFERENCE_SEED = 987_654_321
REFERENCE_TRIALS = {"desk-lsmr": 400, "desk-mmse": 1000, "full-lsmr": 200,
                    "full-sinr": 20_000}


def main(names) -> int:
    for name in names or list(WORKLOADS):
        t0 = time.perf_counter()
        scens = scenarios(WORKLOADS[name], REFERENCE_SEED, REFERENCE_TRIALS[name])
        out = REFERENCE / f"{name}.csv"
        REFERENCE.mkdir(exist_ok=True)
        emit_csv(run_scenarios(scens, workers=1), out)
        print(f"{name}: {out} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
