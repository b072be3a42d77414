"""Every table and record the package prints goes through one CSV writer and
one JSON writer; each must write the bytes that its hand-built predecessor
in helpers.py wrote, for any cells: ints far beyond 64 bits and negative
ones, signed zeros, subnormal, huge and non-finite floats, Fractions with
100-digit denominators, and no rows at all."""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from ratbase import AdeleContext, Base, Pattern, PatternStats, ReportRow
from ratbase.cli import build_parser, cmd_patterns
from ratbase.fourier import coefficient_table
from ratbase.render import TileRect, tiles_csv
from ratbase.patterns import report_csv, report_json
from helpers import (coefficient_table_ref, patterns_record_ref, report_csv_ref,
                     report_json_ref, tiles_csv_ref)

INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**300),
                 st.integers(min_value=-2**300, max_value=-1))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
FRACTIONS = st.builds(Fraction, st.integers(-10**120, 10**120),
                      st.integers(10**99, 10**100 - 1))
CELLS = st.one_of(INTS, FLOATS, FRACTIONS)


def outcome(write, *args):
    """What write returns, or the type of what it raises (abs of a complex
    with two huge parts overflows, in both writers alike)."""
    try:
        return write(*args)
    except OverflowError as exc:
        return type(exc)


TILE_RECT = st.builds(TileRect, FRACTIONS | INTS, INTS, CELLS, CELLS, CELLS, CELLS)


@given(st.lists(TILE_RECT, max_size=8))
@example([])
def test_tiles_csv_writes_what_it_wrote(rects):
    assert tiles_csv(rects) == tiles_csv_ref(rects)


REPORT_ROW = st.builds(ReportRow, INTS, INTS, FLOATS, FLOATS, FLOATS)
REPORT_ROWS = st.lists(REPORT_ROW, max_size=8)


@given(REPORT_ROWS)
@example([])
def test_report_csv_writes_what_it_wrote(rows):
    assert report_csv(rows) == report_csv_ref(rows)


@given(REPORT_ROWS)
@example([])
def test_report_json_writes_what_it_wrote(rows):
    assert report_json(rows) == report_json_ref(rows)


@given(st.data(), st.lists(st.integers(0, 2), max_size=4), st.integers(0, 4),
       st.integers(0, 6))
def test_coefficient_table_writes_what_it_wrote(data, digits, r, max_m):
    ctx = AdeleContext(Base(3, 2))
    table = [(m, tuple(data.draw(st.builds(complex, FLOATS, FLOATS)) for _ in digits))
             for m in range(max_m + 1)]
    with mock.patch("ratbase.fourier._f_values", lambda *args: iter(table)):
        got = outcome(coefficient_table, ctx, digits, r, max_m)
    assert got == outcome(coefficient_table_ref, digits, r, table)


POSITIONS = st.dictionaries(st.integers(0, 400), INTS, max_size=12)
ABW = st.sampled_from([("3", "2", "21"), ("10", "1", "07"), ("7", "4", "1")])


@given(ABW, INTS, INTS, POSITIONS, POSITIONS)
@example(("3", "2", "21"), 0, 0, {}, {})
def test_patterns_record_writes_what_it_wrote(abw, N, total, exact, padded):
    a, b, w = abw
    args = build_parser().parse_args(["patterns", "--a", a, "--b", b, "--w", w,
                                      "--format", "json"])
    base = Base(int(a), int(b))
    pattern = Pattern.parse(base, w)
    stats = PatternStats(pattern, N, exact, padded, total)
    with mock.patch("ratbase.cli.count_pattern", lambda *args: stats):
        text, code = cmd_patterns(args)
    assert (text, code) == (patterns_record_ref(base, pattern, stats), 0)


# ---------------------------------------------------------------------------
# the records are their rows: immutable named tuples, each equal only to a
# record of its own type

PATTERN_STATS = st.builds(
    lambda abw, *fields: PatternStats(Pattern.parse(Base(int(abw[0]), int(abw[1])), abw[2]),
                                      *fields),
    ABW, INTS, POSITIONS, POSITIONS, INTS)
FIELDS = {
    TileRect: ("translate", "digit", "real_lo", "real_hi", "fiber_lo", "fiber_hi"),
    ReportRow: ("N", "s_w", "main_term", "residual", "residual_norm"),
    PatternStats: ("pattern", "N", "per_position", "padded_per_position", "total"),
}


@given(st.one_of(TILE_RECT, REPORT_ROW, PATTERN_STATS))
def test_a_record_is_a_tuple_of_its_fields(record):
    kind = type(record)
    names = FIELDS[kind]
    assert kind._fields == names
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    *head, last = record
    assert (*head, last) == tuple(record)
    assert record == kind(*record) == kind(**dict(zip(names, record)))
    assert not record != kind(*record)
    assert record != tuple(record) and tuple(record) != record
    assert all(record != other(*record) for other in FIELDS
               if other is not kind and len(FIELDS[other]) == len(names))
    if kind is PatternStats:  # its positions are dicts, as they always were
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(kind(*record))
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_record_reprs_are_pinned():
    base = Base(3, 2)
    assert repr(TileRect(Fraction(1, 3), 2, Fraction(0), Fraction(2, 3), Fraction(-1, 9),
                         Fraction(5))) == (
        "TileRect(translate=Fraction(1, 3), digit=2, real_lo=Fraction(0, 1), "
        "real_hi=Fraction(2, 3), fiber_lo=Fraction(-1, 9), fiber_hi=Fraction(5, 1))")
    assert repr(ReportRow(100, 5, 1.5, -0.25, float("nan"))) == (
        "ReportRow(N=100, s_w=5, main_term=1.5, residual=-0.25, residual_norm=nan)")
    assert repr(PatternStats(Pattern(base, (2, 1)), 10, {0: 1, 1: 2}, {0: 3}, 3)) == (
        "PatternStats(pattern=Pattern(base=Base(a=3, b=2), word=(2, 1)), N=10, "
        "per_position={0: 1, 1: 2}, padded_per_position={0: 3}, total=3)")
