"""Spans around the calls into each ``otfspn`` module, recorded from outside.

The library is not edited.  ``Tracer.install`` wraps every public function
of the traced modules (plus ``ChannelOp.matvec``/``rmatvec``) and rebinds
each wrapper under every name where a caller looks the function up: the
defining module, and every module that imported it by name (``harness`` and
``equalization`` import ``otfs_modulate``, ``sample_path`` and
``extract_data`` that way).  ``uninstall`` puts the originals back.

Spans nest on one stack (the benchmark runs with one worker).  For each
span the tracer keeps its duration and its *foreign* time, the part spent in
nested spans of other layers; duration minus foreign time is the span's
layer self time.  A layer's busy time is the self time of its outermost
spans, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from time import perf_counter

LAYERS = ("grid", "oscillator", "channel", "estimation", "equalization",
          "dd_analysis", "harness")
EQUALIZERS = ("lsmr_ic_equalize", "mmse_equalize")


class _Stats:
    __slots__ = ("calls", "total", "self", "first", "stage")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = 0.0        # inclusive seconds
        self.self = 0.0         # seconds not covered by other layers' spans
        self.first = None       # duration of the first call
        self.stage = []         # durations of calls made directly by harness


class Tracer:
    def __init__(self):
        self.funcs: dict[str, _Stats] = {}
        self._stack = []        # open spans: [layer, foreign seconds]
        self._undo = []         # (owner, attribute, original)
        self._reset()

    def _reset(self):
        for stats in self.funcs.values():
            stats.reset()
        self.layer_busy = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.unconverged = 0
        self.paths = 0          # phase paths drawn by measured_sinr

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, key: str, fn, after=None):
        stats = self.funcs.setdefault(key, _Stats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                own = dur - frame[1]
                parent = stack[-1] if stack else None
                stats.calls += 1
                stats.total += dur
                stats.self += own
                if stats.first is None:
                    stats.first = dur
                if parent is None or parent[0] != layer:
                    self.layer_busy[layer] += own
                    self.layer_calls[layer] += 1
                if parent is not None:
                    if parent[0] == layer:
                        parent[1] += frame[1]
                    else:
                        parent[1] += dur
                        if parent[0] == "harness":
                            stats.stage.append(dur)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _on_equalize(self, args, kwargs, out):
        if not out.converged:
            self.unconverged += 1

    def _paths_counter(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, out):
            self.paths += sig.bind(*args, **kwargs).arguments["trials"]
        return after

    def install(self) -> "Tracer":
        mods = {layer: importlib.import_module(f"otfspn.{layer}") for layer in LAYERS}
        # every module that may hold a by-name import of a traced function
        holders = list(mods.values()) + [importlib.import_module("otfspn.cli")]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                after = None
                if name in EQUALIZERS:
                    after = self._on_equalize
                elif name == "measured_sinr":
                    after = self._paths_counter(fn)
                wrapper = self._wrap(layer, f"{layer}.{name}", fn, after)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._undo.append((holder, attr, val))
                            setattr(holder, attr, wrapper)
        op = mods["equalization"].ChannelOp
        for meth in ("matvec", "rmatvec"):
            fn = vars(op)[meth]
            self._undo.append((op, meth, fn))
            key = f"equalization.ChannelOp.{meth}"
            setattr(op, meth, self._wrap("equalization", key, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # ------------------------------------------------------------------
    def take(self) -> dict:
        """Plain-data record of everything measured since the last ``take``,
        for the parent process; the counts then start again from zero."""
        out = {
            "funcs": {key: {"calls": s.calls, "total_s": s.total, "self_s": s.self,
                            "first_s": s.first or 0.0, "stage_s": s.stage}
                      for key, s in self.funcs.items() if s.calls},
            "layer_busy_s": self.layer_busy,
            "layer_calls": self.layer_calls,
            "unconverged": self.unconverged,
            "paths": self.paths,
        }
        self._reset()
        return out
