"""Span recorder for the traced benchmark run.

The package stays untouched: every public function of the instrumented
modules is replaced by a recording wrapper in each ``decolab`` module that
binds it, because ``from .x import y`` gives each caller its own name to look
up.  ``_Propagated.__init__`` (the ``eigh`` of the total Hamiltonian) and
``_Propagated.advance`` (one dense propagation) are wrapped on the class, and
each suite task or sweep point becomes a row span whose id its child spans
share.

A span is ``(id, name, start, end, parent, row, thread)``.  Spans stay in
memory until :meth:`Recorder.write` dumps them as JSON lines.  A span's self
time is its duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "config", "suites", "oracle", "model", "fidelity", "operators", "spectral", "rng")
ROW_SPANS = ("suites.task", "cli.sweep_row")
# each suite builder's only caller is suite_tasks: building time stays its self time
FOLDED = ("suites.quick_tasks", "suites.full_tasks", "suites.inequality_tasks", "suites.encoding_tasks")
RNG_METHODS = ("uniform", "uniforms", "randint", "normals", "complex_normals")


class Recorder:
    """Collects spans, counters and distinct-input sets across threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.draws = 0      # Xoshiro256pp.next_u64 calls
        self.dim_max = 0    # largest H_total passed to eigh
        self.gflop = 0.0    # dense propagation work, 8 n^2 m per advance
        self._main_stack: list | None = None
        self._ids = itertools.count(1)
        self._rows = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, new_row: bool = False):
        stack = self._stack()
        if stack:
            parent, row = stack[-1]
        elif self._main_stack:
            # a pool thread: its caller is the span the submitting thread waits in
            parent, row = self._main_stack[-1]
        else:  # the pass's root span
            parent, row = 0, 0
            self._main_stack = stack
        sid = next(self._ids)
        if new_row:
            row = next(self._rows)
        stack.append((sid, row))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, row, threading.get_ident()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, row, thread in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "row": row, "thread": thread}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - _union_length(children.get(sid, []))
            for sid, _, start, end, _, _, _ in spans}


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "decolab" or name.startswith("decolab.")]


class Instrumentation:
    """Installs recording wrappers into the loaded ``decolab`` modules."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` wherever a decolab module binds it."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _spanned(self, name: str, fn, key=None, new_row: bool = False):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                rec.keys[name].add(key(*args, **kwargs))
            return rec.call(name, fn, args, kwargs, new_row)

        return wrapper

    def install(self) -> "Instrumentation":
        import decolab.cli  # noqa: F401  (loads every instrumented module)

        keys = {
            "model.build_hamiltonian": lambda lattice, modes, n_max: (lattice, modes, int(n_max)),
            "spectral.ohmic_correlation_quad": lambda bath, delta_r: (bath, float(delta_r)),
        }
        for layer in LAYERS:
            module = sys.modules[f"decolab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and f"{layer}.{attr}" not in FOLDED):
                    name = f"{layer}.{attr}"
                    if name == "suites.suite_tasks":
                        wrapper = self._suite_tasks(fn)
                    elif layer == "rng":
                        wrapper = self._rng_boundary(name, fn)
                    else:
                        wrapper = self._spanned(name, fn, keys.get(name))
                    self._rebind(fn, wrapper)
        self._install_oracle()
        self._install_rng()
        cli = sys.modules["decolab.cli"]
        self._set(cli, "_sweep_row", self._spanned("cli.sweep_row", cli._sweep_row, new_row=True))
        return self

    def _suite_tasks(self, fn):
        """suite_tasks whose returned task callables each run as one row span."""
        rec = self.rec
        spanned = self._spanned("suites.suite_tasks", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tasks = spanned(*args, **kwargs)
            return [(label, functools.partial(rec.call, "suites.task", run, (), {}, True))
                    for label, run in tasks]

        return wrapper

    def _install_oracle(self) -> None:
        rec = self.rec
        prop = sys.modules["decolab.oracle"]._Propagated
        init, advance = prop.__init__, prop.advance

        def eigh(self_, model):
            rec.dim_max = max(rec.dim_max, model.space.dim)
            rec.keys["oracle.eigh"].add((model.lattice, model.modes, model.n_max))
            return rec.call("oracle.eigh", init, (self_, model), {})

        def propagate(self_, coeffs, t):
            n = self_.vec.shape[0]
            rec.gflop += 8.0 * n * n * coeffs.shape[1] / 1e9
            return rec.call("oracle.advance", advance, (self_, coeffs, t), {})

        self._set(prop, "__init__", functools.wraps(init)(eigh))
        self._set(prop, "advance", functools.wraps(advance)(propagate))

    def _install_rng(self) -> None:
        """Count every draw; the generator's methods span like module functions."""
        rec = self.rec
        gen = sys.modules["decolab.rng"].Xoshiro256pp
        next_u64 = gen.next_u64

        def counted(self_):
            rec.draws += 1
            return next_u64(self_)

        self._set(gen, "next_u64", functools.wraps(next_u64)(counted))
        for attr in RNG_METHODS:
            method = getattr(gen, attr)
            self._set(gen, attr, self._rng_boundary(f"rng.{attr}", method))

    def _rng_boundary(self, name: str, fn):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(rec._local, "in_rng", False):
                return fn(*args, **kwargs)
            rec._local.in_rng = True
            try:
                return rec.call(name, fn, args, kwargs)
            finally:
                rec._local.in_rng = False

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(rec: Recorder, traced_wall: float, untraced_wall: float, cpu_s: float) -> dict:
    """The per-layer metrics of one traced pass, as ``{name: (value, unit)}``."""
    own = self_times(rec.spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    durations = defaultdict(list)
    for sid, name, start, end, _, _, _ in rec.spans:
        calls[name] += 1
        self_s[name] += own[sid]
        layer_s[name.split(".", 1)[0]] += own[sid]
        durations[name].append(end - start)

    out = {}

    def count_and_time(name):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (self_s[name], "s")

    def distinct(name, key_name=None):
        n = calls[name]
        out[f"{name}.distinct_ratio"] = (len(rec.keys[key_name or name]) / n if n else 0.0, "ratio")

    for name in ("oracle.verify_expansion", "oracle.estimate_c2", "oracle.eigh", "oracle.advance"):
        count_and_time(name)
    out["oracle.eigh.dim_max"] = (rec.dim_max, "count")
    distinct("oracle.eigh")
    out["oracle.advance.gflop"] = (rec.gflop, "GFLOP")
    adv_s = self_s["oracle.advance"]
    out["oracle.advance.gflops"] = (rec.gflop / adv_s if adv_s > 0 else 0.0, "GFLOP/s")

    count_and_time("model.build_hamiltonian")
    distinct("model.build_hamiltonian")
    count_and_time("model.rate_from_correlation")
    for fn in ("input_output_c2", "entanglement_c2", "average_c2", "check_rate_inequality"):
        count_and_time(f"fidelity.{fn}")
    count_and_time("operators.coupling_moments")

    out["rng.draws"] = (rec.draws, "count")
    out["suites.suite_tasks.s"] = (self_s["suites.suite_tasks"], "s")
    rows = sorted(durations["suites.task"])
    out["suites.task.calls"] = (len(rows), "count")
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        out[f"suites.task.{label}_ms"] = (_quantile(rows, q) * 1e3, "ms")
    out["suites.task.max_ms"] = ((rows[-1] if rows else 0.0) * 1e3, "ms")

    count_and_time("spectral.ohmic_correlation_quad")
    distinct("spectral.ohmic_correlation_quad")
    count_and_time("spectral.ohmic_spectrum_moments")
    count_and_time("config.parse_config")
    for fn in ("cmd_rates", "cmd_correlation", "cmd_regime"):
        count_and_time(f"cli.{fn}")

    for layer in LAYERS:
        out[f"{layer}.s"] = (layer_s[layer], "s")
    out["process.cpu_s"] = (cpu_s, "s")
    row_s = sum(sum(durations[name]) for name in ROW_SPANS)
    out["cli.parallel_ratio"] = (row_s / traced_wall if traced_wall > 0 else 0.0, "ratio")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(rec.spans), "count")
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
