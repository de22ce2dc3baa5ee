"""Per-layer timing of mes, measured from outside the library.

``Tracer.install`` wraps, in place, every public function of the mes
modules, the public ``numpy.linalg`` functions (the kernel layer) and
``json.loads``/``dumps``/``dump``. A wrapper opens a span on entry and closes
it on exit; a layer's self time is its spans' time minus the part covered by
child spans. Aggregates are kept per op in memory: nothing is written while
an op runs. ``enable``/``disable`` swap the wrappers in and out, so an
untraced op runs the library's own functions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from collections import defaultdict

MES_LAYERS = ("core", "io", "slocc", "rank", "construct")
SELF_LAYERS = ("cli", "cli.parse", "cli.report", "io", "json", "core", "kernel",
               "slocc", "rank", "construct")


def _svd_flop(args, kwargs):
    """Real flops of one (stacked) complex SVD, from Golub & Van Loan's counts."""
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = 1
    for b in shape[:-2]:
        batch *= b
    if kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 4 * m * n * n - 4 * n ** 3 / 3
    return 4.0 * real * batch  # a complex multiply-add is four real ones


class Tracer:
    """Spans around every layer's public functions, aggregated per op."""

    def __init__(self):
        self._swaps = []  # (owner, name, original, wrapper)
        self._stack = []  # [layer, child seconds] per open span
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # only calls not made from the same layer
        self.calls = defaultdict(int)
        self.svd_flop = 0.0
        self.json_bytes = 0
        self._cuts = set()
        self._states = []  # keeps states alive so their ids stay unique

    @property
    def distinct_cuts(self):
        return len(self._cuts)

    def _wrap(self, fn, layer, key, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_layer = layer
            if layer == "json" and stack and stack[-1][0] == "cli":
                span_layer = "cli.report"  # stdlib json called by the CLI renders its report
            if before is not None:
                before(args, kwargs)
            outer = not stack or stack[-1][0] != span_layer
            frame = [span_layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[span_layer] += dt - frame[1]
                self.incl_s[key] += dt
                if outer:
                    self.outer_s[key] += dt
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _swap(self, owner, name, wrapper):
        self._swaps.append((owner, name, getattr(owner, name), wrapper))

    def install(self, cli=False):
        """Prepare wrappers for every layer; ``enable`` puts them in place."""
        import numpy.linalg

        wrappers = {}
        for short in MES_LAYERS:
            mod = sys.modules[f"mes.{short}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                before = self._record_cut if name == "schmidt_rank" else None
                wrappers[id(obj)] = self._wrap(obj, short, f"{short}.{name}", before)
        for mod in [m for n, m in sys.modules.items() if n == "mes" or n.startswith("mes.")]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._swap(mod, name, wrappers[id(obj)])

        for name in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, name)
            if callable(obj) and not isinstance(obj, type):
                before = self._record_svd if name == "svd" else None
                self._swap(numpy.linalg, name,
                           self._wrap(obj, "kernel", f"kernel.{name}", before))

        count_in = lambda args, kwargs: self._add_bytes(args[0])
        # json.load calls json.loads, which counts its bytes; json.dump's are not counted
        self._swap(json, "loads", self._wrap(json.loads, "json", "json.loads", count_in))
        self._swap(json, "dumps", self._wrap(json.dumps, "json", "json.dumps",
                                             after=self._add_bytes))
        self._swap(json, "dump", self._wrap(json.dump, "json", "json.dumps"))

        if cli:
            import mes.cli

            self._swap(mes.cli, "main", self._wrap(mes.cli.main, "cli", "cli.main"))
            if hasattr(mes.cli, "build_parser"):
                self._swap(mes.cli, "build_parser",
                           self._wrap(mes.cli.build_parser, "cli.parse", "cli.parse"))
            self._swap(argparse.ArgumentParser, "parse_args",
                       self._wrap(argparse.ArgumentParser.parse_args, "cli.parse", "cli.parse"))
            self._swap(sys, "stdout", _TimedStream(sys.stdout, self))

    def enable(self):
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in reversed(self._swaps):
            setattr(owner, name, original)

    def _record_cut(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        subset = args[1] if len(args) > 1 else kwargs["subset"]
        cut = frozenset(int(i) for i in subset)
        if 0 not in cut:
            cut = frozenset(range(state.n)) - cut
        self._states.append(state)
        self._cuts.add((id(state), cut))

    def _record_svd(self, args, kwargs):
        self.svd_flop += _svd_flop(args, kwargs)

    def _add_bytes(self, text):
        if isinstance(text, (str, bytes)):
            self.json_bytes += len(text)


class _TimedStream:
    """stdout whose writes are timed as the CLI's report layer."""

    def __init__(self, stream, tracer):
        self._stream = stream
        self.write = tracer._wrap(stream.write, "cli.report", "cli.write")

    def __getattr__(self, name):
        return getattr(self._stream, name)


def layer_totals(tracer):
    """Per-op numbers of one traced op: self times, inclusive times and counts (seconds)."""
    incl = tracer.incl_s

    def io_total(names):
        return sum(v for k, v in tracer.outer_s.items()
                   if k.startswith("io.") and any(n in k for n in names))

    unknown = set(tracer.self_s) - set(SELF_LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    svd_key = "kernel.svd"
    return {
        "self": {layer: tracer.self_s.get(layer, 0.0) for layer in SELF_LAYERS},
        "io.decode": io_total(("from_dict", "load")),
        "io.encode": io_total(("to_dict", "save")),
        "json.loads": incl.get("json.loads", 0.0),
        "json.dumps": incl.get("json.dumps", 0.0),
        "io.bytes": tracer.json_bytes,
        "core.schmidt_rank_calls": tracer.calls.get("core.schmidt_rank", 0),
        "core.distinct_cuts": tracer.distinct_cuts,
        "core.local_ranks": incl.get("core.local_ranks", 0.0),
        "core.apply_local": incl.get("core.apply_local", 0.0),
        "kernel.svd_calls": tracer.calls.get(svd_key, 0),
        "kernel.svd": incl.get(svd_key, 0.0),
        "kernel.svd_flop": tracer.svd_flop,
        "kernel.other": sum(v for k, v in incl.items()
                            if k.startswith("kernel.") and k != svd_key),
        "slocc.is_maximal": incl.get("slocc.is_maximal", 0.0),
        "slocc.classify": incl.get("slocc.classify_hyperplane", 0.0),
        "slocc.complement_map": incl.get("slocc.complement_map", 0.0),
        "slocc.witness": incl.get("slocc.incomparability_witness", 0.0),
        "rank.flattening_lb": incl.get("rank.flattening_lower_bound", 0.0),
        "rank.bounds_catalog": incl.get("rank.space_rank_bounds", 0.0)
        + incl.get("slocc.finite_class_catalog", 0.0),
    }
