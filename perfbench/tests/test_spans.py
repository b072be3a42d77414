"""Span bookkeeping: self time, recursion and parent links."""

import types

import pytest

from spans import Tracer, per_layer_metrics, summarize


def test_self_time_on_nested_tree():
    # cli.main [0, 10]
    #   patterns.count_pattern [1, 6]
    #     numeration.length [2, 3]
    #     numeration.length [4, 4.5]
    #   numeration.encode [7, 9]
    names = ["cli.main", "patterns.count_pattern", "numeration.length", "numeration.encode"]
    name = [0, 1, 2, 2, 3]
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 2.0, 4.0, 7.0]
    end = [10.0, 6.0, 3.0, 4.5, 9.0]
    out = summarize(names, name, parent, start, end)
    assert out["cli.self_s"] == pytest.approx(10 - 5 - 2)
    assert out["patterns.self_s"] == pytest.approx(5 - 1.5)
    assert out["numeration.self_s"] == pytest.approx(1.5 + 2)
    assert out["numeration.length.calls"] == 2
    assert out["numeration.length.s"] == pytest.approx(1.5)
    assert out["cli.main.s"] == pytest.approx(10)
    assert sum(out[f"{layer}.self_s"] for layer in ("cli", "patterns", "numeration")) \
        == pytest.approx(10)


def test_recursion_counted_once():
    names = ["adelic.frac_p"]
    out = summarize(names, [0, 0, 0], [-1, 0, 1], [0.0, 1.0, 2.0], [4.0, 3.0, 2.5])
    assert out["adelic.frac_p.calls"] == 3
    assert out["adelic.frac_p.s"] == pytest.approx(4.0)
    assert out["adelic.self_s"] == pytest.approx(4.0)


def test_wrappers_record_parents_under_every_alias():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = types.ModuleType("pkg.numeration")
    outer = types.ModuleType("pkg.patterns")

    def length(n):
        return n + 1
    length.__module__ = inner.__name__

    def count_pattern(n):
        return outer.length(n) * 2
    count_pattern.__module__ = outer.__name__
    inner.length, outer.length, outer.count_pattern = length, length, count_pattern
    pkg = types.SimpleNamespace(**{layer: types.ModuleType(layer) for layer in
                                   ("adelic", "fourier", "render", "cli")})
    pkg.numeration, pkg.patterns = inner, outer
    assert tracer.install(pkg) == 2
    assert outer.length is inner.length is not length

    assert outer.count_pattern(1) == 4  # inactive: no spans
    assert len(tracer.start) == 0
    tracer.active = True
    assert outer.count_pattern(1) == 4
    tracer.active = False
    assert [tracer.names[i] for i in tracer.name] == ["patterns.count_pattern",
                                                      "numeration.length"]
    assert list(tracer.parent) == [-1, 0]
    out = tracer.summary()
    assert out["patterns.count_pattern.s"] == 3.0
    assert out["numeration.self_s"] == 1.0
    assert out["patterns.self_s"] == 2.0


def test_metric_names_are_unique():
    names = [m["name"] for m in per_layer_metrics()]
    assert len(names) == len(set(names))
