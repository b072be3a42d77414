"""Every table and record the package prints goes through one CSV writer and
one JSON writer; each must write the bytes that its hand-built predecessor
in helpers.py wrote, for any cells: ints far beyond 64 bits and negative
ones, signed zeros, subnormal, huge and non-finite floats, Fractions with
100-digit denominators, and no rows at all."""
from fractions import Fraction
from unittest import mock

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


@given(st.lists(st.builds(TileRect, FRACTIONS | INTS, INTS, CELLS, CELLS, CELLS, CELLS),
                max_size=8))
@example([])
def test_tiles_csv_writes_what_it_wrote(rects):
    assert tiles_csv(rects) == tiles_csv_ref(rects)


REPORT_ROWS = st.lists(st.builds(ReportRow, INTS, INTS, FLOATS, FLOATS, FLOATS), max_size=8)


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


@given(st.sampled_from([("3", "2", "21"), ("10", "1", "07"), ("7", "4", "1")]),
       INTS, INTS, POSITIONS, POSITIONS)
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
