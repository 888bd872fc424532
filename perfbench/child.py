"""One fresh benchmark process: a set-up pass, then a full pass.

    python3 child.py SETUP_JSON FULL_JSON OUT_DIR [--trace]

Each pass does what ``otfspn preset`` does (``run_scenarios`` with one
worker, then ``emit_csv``) on a scenario list written by ``run.py``: first
the set-up list (one trial per sweep point), then the full list.  The pass
CSVs go to OUT_DIR/setup.csv and OUT_DIR/full.csv; OUT_DIR/result.json
holds the ``time.monotonic()`` instant each CSV was written (the clock is
system-wide, so the parent subtracts its spawn instant), the peak resident
memory and, with ``--trace``, the tracer summary of each pass.
``otfspn`` is imported from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    setup_json, full_json, out_dir = argv[0], argv[1], Path(argv[2])
    import otfspn.harness as harness

    tracer = None
    if "--trace" in argv[3:]:
        from tracer import Tracer
        tracer = Tracer().install()
    done, traces = {}, {}
    try:
        for name, path in (("setup", setup_json), ("full", full_json)):
            with open(path, encoding="utf-8") as f:
                scenarios = [harness.Scenario.from_dict(d) for d in json.load(f)]
            harness.emit_csv(harness.run_scenarios(scenarios, workers=1),
                             out_dir / f"{name}.csv")
            done[name] = time.monotonic()
            if tracer is not None:
                traces[name] = tracer.take()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"done": done,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = traces
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
