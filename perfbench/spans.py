"""Spans around calls into ratbase's public functions, and per-layer metrics.

The tracer wraps, from outside the package, every public function each of
the six modules defines, and rebinds the wrapper under every name a ratbase
module imports it by, so that internal calls such as fourier's use of
adelic.char_exponent are caught too.  A span is (name, start, end, parent);
spans stay in compact arrays while the pass runs and are summarized (and
written out) once it ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("numeration", "patterns", "adelic", "fourier", "render", "cli")

# The functions whose call counts and inclusive times are reported; every
# other public function is traced too, so that self times stay per layer.
REPORTED = {
    "numeration": ("encode", "decode", "digit", "length", "sum_of_digits"),
    "patterns": ("count_pattern", "summatory_sod", "asymptotic_report",
                 "champernowne_digits", "champernowne_freq",
                 "champernowne_freq_bulk", "champernowne_prefix_array"),
    "adelic": ("locate_box", "reduce_mod_lattice", "cover_census",
               "boundary_tubes", "tile_corners", "fiber_interval",
               "corner_of_residues", "char_exponent", "frac_p"),
    "fourier": ("coeff_f", "coefficient_table", "eval_urysohn_series",
                "eval_urysohn_direct", "urysohn_pattern_estimate"),
    "render": ("render_tiles", "tiles_svg", "tiles_csv"),
    "cli": ("main",),
}

# Ratios measured where the work happens, each listed after its base.
SHARES = (
    ("adelic.digit_reads.points", "count", "higher"),
    ("adelic.digit_reads.resolved_share", "ratio", "higher"),
    ("fourier.series_cache.hit_share", "ratio", "higher"),
    ("fourier.coeff_f.exact_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_metrics() -> list[dict]:
    """The per-layer metric list, in the order BENCHMARK.json gives it."""
    out = []
    for layer in LAYERS:
        for fn in REPORTED[layer]:
            out.append({"name": f"{layer}.{fn}.calls", "unit": "count", "better": "lower"})
            out.append({"name": f"{layer}.{fn}.s", "unit": "s", "better": "lower"})
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in SHARES]
    return out


class Tracer:
    """Records one span per call of a wrapped function while active."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.active = False

    def wrap(self, name: str, fn, observe=None):
        """fn recording a span called name; observe(result) sees each result."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                ends[i] = clock()
                open_spans.pop()

        return traced

    def install(self, package, observers=None) -> int:
        """Wrap the public functions of each layer module of package.

        Returns the number of functions wrapped.  observers maps a span
        name such as "fourier.coeff_f" to a callback on each result.
        """
        observers = observers or {}
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        count = 0
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, observers.get(name))
                for m in modules:
                    for alias, obj in list(vars(m).items()):
                        if obj is fn:
                            setattr(m, alias, wrapper)
                count += 1
        return count

    def save(self, path) -> None:
        """Write the spans out as arrays (names, name ids, parents, times)."""
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self.name),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))

    def summary(self) -> dict[str, float]:
        return summarize(self.names, self.name, self.parent, self.start, self.end)


def summarize(names, name, parent, start, end) -> dict[str, float]:
    """Calls, inclusive seconds and per-layer self seconds from spans.

    A function's seconds count each span that has no ancestor of the same
    name, so recursion is not counted twice.  A layer's self time is the
    time during which one of its spans is the innermost open span: each
    span's duration minus what its children cover.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n, n_names = len(dur), len(names)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered
    repeated = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        repeated[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
    calls = np.bincount(name, minlength=n_names)
    outer = ~repeated
    incl = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
    self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
    out: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, full in enumerate(names):
        out[f"{full}.calls"] = int(calls[i])
        out[f"{full}.s"] = float(incl[i])
        layer = full.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(self_by_name[i])
    for layer, v in layer_self.items():
        out[f"{layer}.self_s"] = v
    return out
