"""otfspn benchmark: fresh-process timing of fixed preset workloads.

    python3 perfbench/run.py --workload desk-lsmr --seed 0 --seconds 14 --trace 0

Run from the root of a checkout; ``otfspn`` is imported from its ``src``.
Scenarios come from the figure presets (see ``workloads.py``) with base seed
``--seed * 1_000_000``.  Each sample is a fresh ``child.py`` process with one
worker and BLAS threads capped at the CPU count.  It runs the workload with
one trial per sweep point (the set-up pass) and then with the full trial
count (the full pass), writing a CSV after each.

``--trace 0`` starts children until ``--seconds`` have passed, at least
three, and prints the medians over them of:

* ``setup_s``: spawn to set-up CSV written: imports, scenario resolution,
  Wiener builds, the Jakes factor and first-call warm-up;
* ``wall_s``: spawn to full CSV written;
* ``trials_per_s``: full-pass trials / (``wall_s`` - ``setup_s``), per child;
* ``peak_rss_mb``: peak resident memory of the child;

and ``failed_frac``, failed / attempted sweep-point runs (exit status and the
checks in ``check.py``), which the JSON line gives as ``failed`` and
``attempted``.

``--trace 1`` alternates untraced and traced children (``tracer.py``) and
prints the per-layer metrics, medians over the traced children.  A traced
CSV whose bytes differ from the untraced one counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn, each ending with its own JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import EQUALIZERS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SEED_STRIDE = 1_000_000     # base seed = --seed * SEED_STRIDE
MIN_CHILDREN = 3             # set-up samples per --trace 0 run
DEADLINE_S = 170.0          # a run, all of its processes included, ends by this

INTERP = ("estimation.stage2_estimate", "estimation.bem_estimate",
          "estimation.spline_estimate", "estimation.stage1_hold_estimate",
          "estimation.ofdm_cpe_estimate")
EQUALIZE = tuple(f"equalization.{name}" for name in EQUALIZERS)
# trial stages, as called by the harness, for per-call p50/p90
STAGES = {
    "modulate": ("grid.otfs_modulate", "grid.ofdm_modulate"),
    "channel_draw": ("channel.realize_channel",),
    "phase_path": ("oscillator.sample_path",),
    "channel_apply": ("channel.apply_channel",),
    "stage1": ("estimation.stage1_estimate",),
    "interp": INTERP,
    "equalize": EQUALIZE,
    "viterbi": ("equalization.viterbi_decode",),
    "wiener_build": ("estimation.build_wiener",),
}
BUSY_LAYERS = tuple(layer for layer in LAYERS if layer != "harness")


def _blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    try:
        return max(1, min(nproc, int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))))
    except ValueError:
        return nproc


# ----------------------------------------------------------------------------
# One fresh process
# ----------------------------------------------------------------------------

@dataclass
class Child:
    """A finished child: seconds from spawn to each CSV written and to exit,
    peak RSS, the two CSVs' bytes and the trace summary."""

    ok: bool
    exit_s: float
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    csvs: dict = field(default_factory=dict)
    trace: dict | None = None
    error: str = ""

    def sha(self, kind: str) -> str:
        return hashlib.sha256(self.csvs.get(kind, b"")).hexdigest()


def run_child(workdir: Path, env: dict, trace: bool, timeout: float) -> Child:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    cmd = [sys.executable, str(BENCH / "child.py"), str(workdir / "setup.json"),
           str(workdir / "full.json"), str(out)] + (["--trace"] if trace else [])
    with open(workdir / "stderr.txt", "wb+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exit_s = time.monotonic() - spawned
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
    if code != 0:
        why = "timed out" if code is None else f"exit {code}"
        return Child(False, exit_s, error=f"{why}: {' | '.join(tail)}")
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return Child(True, exit_s, res["done"]["setup"] - spawned,
                 res["done"]["full"] - spawned, res["maxrss_kb"] / 1024.0,
                 {k: (out / f"{k}.csv").read_bytes() for k in ("setup", "full")},
                 res.get("trace"))


# ----------------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------------

def _pct(durs, q) -> float:
    import numpy as np
    return float(np.percentile(durs, q)) * 1e3 if durs else 0.0


def layer_metrics(traces: dict, trials: int) -> dict:
    """Per-layer metrics of one traced child, name -> (value, unit).

    ``channel.first_realize_s`` comes from the set-up pass, where the first
    channel draw builds the Jakes factor; the rest from the full pass of
    ``trials`` trials, so per-trial figures are steady-state.
    """
    tr = traces["full"]
    funcs = tr["funcs"]

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    def per_trial_ms(names, key="total_s"):
        return sum(f(n, key) for n in names) * 1e3 / trials

    m = {}
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_ms_per_trial"] = (tr["layer_busy_s"][layer] * 1e3 / trials, "ms")
        m[f"{layer}.calls_per_trial"] = (tr["layer_calls"][layer] / trials, "count")
    m["harness.self_ms_per_trial"] = (tr["layer_busy_s"]["harness"] * 1e3 / trials, "ms")
    first = traces["setup"]["funcs"].get("channel.realize_channel", {})
    m["channel.first_realize_s"] = (first.get("first_s", 0.0), "s")
    m["channel.realize_ms_per_trial"] = (per_trial_ms(["channel.realize_channel"]), "ms")
    m["channel.apply_ms_per_trial"] = (per_trial_ms(["channel.apply_channel"]), "ms")
    m["estimation.stage1_ms_per_trial"] = (per_trial_ms(["estimation.stage1_estimate"]), "ms")
    m["estimation.interp_ms_per_trial"] = (per_trial_ms(INTERP), "ms")
    n_wiener = f("estimation.build_wiener", "calls")
    m["estimation.build_wiener_ms"] = (
        f("estimation.build_wiener", "total_s") * 1e3 / n_wiener if n_wiener else 0.0, "ms")
    m["equalization.equalize_ms_per_trial"] = (per_trial_ms(EQUALIZE, "self_s"), "ms")
    m["equalization.lsmr_ic_ms_per_trial"] = (
        per_trial_ms(["equalization.lsmr_ic_equalize"], "self_s"), "ms")
    m["equalization.mmse_ms_per_trial"] = (
        per_trial_ms(["equalization.mmse_equalize"], "self_s"), "ms")
    m["equalization.matvecs_per_trial"] = (
        (f("equalization.ChannelOp.matvec", "calls")
         + f("equalization.ChannelOp.rmatvec", "calls")) / trials, "count")
    m["equalization.viterbi_ms_per_trial"] = (
        per_trial_ms(["equalization.viterbi_decode"]), "ms")
    n_eq = sum(f(n, "calls") for n in EQUALIZE)
    m["equalization.unconverged_frac"] = (tr["unconverged"] / n_eq if n_eq else 0.0,
                                          "fraction")
    m["dd_analysis.measured_ms_per_kpath"] = (
        f("dd_analysis.measured_sinr", "total_s") * 1e6 / tr["paths"]
        if tr["paths"] else 0.0, "ms")
    analytic = ("dd_analysis.sinr_otfs", "dd_analysis.sinr_ofdm")
    n_ana = sum(f(n, "calls") for n in analytic)
    m["dd_analysis.analytic_ms"] = (
        sum(f(n, "total_s") for n in analytic) * 1e3 / n_ana if n_ana else 0.0, "ms")
    for stage, names in STAGES.items():
        durs = [d for n in names for d in funcs.get(n, {}).get("stage_s", [])]
        m[f"stage.{stage}.p50_ms"] = (_pct(durs, 50), "ms")
        m[f"stage.{stage}.p90_ms"] = (_pct(durs, 90), "ms")
    return m


# ----------------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------------

class Tally:
    """Sweep-point runs attempted and failed, with the reasons."""

    def __init__(self, workload: str, scens: dict):
        from check import load_reference
        self.reference, self.scens = load_reference(workload), scens
        self.attempted = self.failed = 0
        self.errors = []

    def record(self, child: Child, mismatch: str = "") -> None:
        from check import check_csv

        for kind, scens in self.scens.items():
            n_points = sum(len(s.sweep_values) for s in scens)
            self.attempted += n_points
            if not child.ok or mismatch:
                self.failed += n_points
                self.errors.append(f"{kind}: {child.error or mismatch}")
                continue
            bad = check_csv(child.csvs[kind], self.reference, scens, full=kind == "full")
            self.failed += len(bad)
            self.errors += [f"{kind} {label}: {'; '.join(errs)}" for label, errs in bad]


def run_workload(wl, seed: int, seconds: float, trace: bool, trials, env: dict,
                 workdir: Path, started: float) -> dict:
    from workloads import scenarios, trial_count

    base = seed * SEED_STRIDE
    scens = {"setup": scenarios(wl, base, 1), "full": scenarios(wl, base, trials)}
    for kind, ss in scens.items():
        (workdir / f"{kind}.json").write_text(json.dumps([s.to_dict() for s in ss]))
    tally = Tally(wl.name, scens)
    n_setup, n_full = trial_count(scens["setup"]), trial_count(scens["full"])

    def child(traced: bool = False) -> Child:
        return run_child(workdir, env, traced,
                         DEADLINE_S - (time.perf_counter() - started))

    t0 = time.perf_counter()
    plain, traced = [], []
    if not trace:
        while time.perf_counter() - t0 < seconds or len(plain) < MIN_CHILDREN:
            plain.append(child())
        for c in plain:
            tally.record(c)
    else:
        while time.perf_counter() - t0 < seconds or not traced:
            plain.append(child())
            traced.append(child(traced=True))
        for c in plain:
            tally.record(c)
        ref = next((c for c in plain if c.ok), None)
        for c in traced:
            same = ref is None or all(c.sha(k) == ref.sha(k) for k in scens)
            tally.record(c, "" if same or not c.ok
                         else "traced CSV bytes differ from untraced")

    ok = [c for c in plain if c.ok]
    ok_traced = [c for c in traced if c.ok]
    metrics = {}
    if not trace and ok:
        wall = statistics.median([c.wall_s for c in ok])
        setup = statistics.median([c.setup_s for c in ok])
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (setup, "s")
        metrics["trials_per_s"] = (
            statistics.median([n_full / (c.wall_s - c.setup_s) for c in ok]), "1/s")
        metrics["peak_rss_mb"] = (statistics.median([c.rss_mb for c in ok]), "MB")
    elif trace and ok and ok_traced:
        per_run = [layer_metrics(c.trace, n_full) for c in ok_traced]
        for name, (_, unit) in per_run[0].items():
            metrics[name] = (statistics.median([m[name][0] for m in per_run]), unit)
        metrics["trace.overhead_frac"] = (
            statistics.median([c.exit_s for c in ok_traced])
            / statistics.median([c.exit_s for c in ok]) - 1.0, "fraction")

    return {
        "workload": wl.name, "seed": seed, "base_seed": base,
        "trials_per_point": scens["full"][0].trials, "trials_full": n_full,
        "trials_setup": n_setup, "trace": int(trace), "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
        "children": [{"traced": t, "ok": c.ok, "setup_s": round(c.setup_s, 4),
                      "wall_s": round(c.wall_s, 4), "exit_s": round(c.exit_s, 4),
                      "rss_mb": round(c.rss_mb, 1)}
                     for t, cs in ((False, plain), (True, traced)) for c in cs],
        "csv_sha256": {k: sorted({c.sha(k) for c in ok + ok_traced}) for k in scens},
        "scenario_hashes": {k: [s.hash() for s in ss] for k, ss in scens.items()},
    }


# ----------------------------------------------------------------------------
# Manifest and output
# ----------------------------------------------------------------------------

def manifest(threads: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "git_revision": rev,
            "machine": platform.machine()}


def report(res: dict, man: dict) -> None:
    correct = res["failed"] == 0 and res["attempted"] > 0 and bool(res["metrics"])
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"trials/point {res['trials_per_point']}  trials/run {res['trials_full']}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    frac = res["failed"] / max(res["attempted"], 1)
    print(f"  {'failed_frac':40s} {frac:14.6f} fraction "
          f"({res['failed']} of {res['attempted']} sweep-point runs)")
    for err in list(dict.fromkeys(res["errors"]))[:20]:
        print(f"  FAILED {err}")
    for kind, shas in res["csv_sha256"].items():
        print(f"  csv sha256 {kind}: {' '.join(s[:16] for s in shas)}")
    print("manifest " + json.dumps({**man, **{k: v for k, v in res.items()
                                             if k not in ("metrics", "errors")}}))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--trials", type=int, default=None,
                   help="override trials per sweep point of a full run (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0 or (args.trials is not None and args.trials < 2):
        p.error("--seed must be >= 0 and --trials >= 2")
    return args


def main(argv=None) -> int:
    if not (SRC / "otfspn" / "__init__.py").is_file():
        print(f"error: no otfspn sources under {SRC}", file=sys.stderr)
        return 2
    threads = _blas_threads()
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    # this process only schedules children; keep its own BLAS pool small
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    man = manifest(threads)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.trials, env, workdir, time.perf_counter())
            report(res, man)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
