"""Tile rendering: rectangle geometry, CSV/SVG formats, golden image."""
from fractions import Fraction
from pathlib import Path

import pytest

from ratbase import AdeleContext, Base, TileRect, render, render_tiles, tiles_csv, tiles_svg
from helpers import interior_disjoint, tiles_svg_ref

GOLDEN = Path(__file__).parent / "golden" / "tiles_32_r8.svg"


class TestRenderTiles:
    def test_level_one_layout(self, ctx32):
        rects = render_tiles(ctx32, 1, [0])
        assert len(rects) == 3
        assert [rc.digit for rc in rects] == [0, 1, 2]
        assert [rc.real_lo for rc in rects] == [0, Fraction(2, 3), Fraction(4, 3)]
        for rc in rects:
            assert rc.real_hi - rc.real_lo == Fraction(2, 3)
            assert rc.fiber_hi - rc.fiber_lo == 1
            assert rc.translate == 0

    def test_rect_count_scales_with_level(self, ctx32):
        for r in (1, 2, 3):
            assert len(render_tiles(ctx32, r, [0])) == 3**r

    def test_fractional_translates_stack_in_fiber_bands(self, ctx32):
        rects = render_tiles(ctx32, 2, [Fraction(0), Fraction(1, 2), 1, Fraction(3, 2)])
        assert len(rects) == 36
        assert interior_disjoint(rects)

    def test_rejects_translates_outside_lattice(self, ctx32):
        with pytest.raises(ValueError):
            render_tiles(ctx32, 2, [Fraction(1, 3)])

    def test_deterministic_and_order_independent(self, ctx32):
        a = render_tiles(ctx32, 3, [0, 1])
        b = render_tiles(ctx32, 3, [1, 0])
        assert a == b

    def test_integer_base_single_band(self):
        ctx = AdeleContext(Base(10, 1))
        rects = render_tiles(ctx, 1, [0])
        assert len(rects) == 10
        assert all(rc.fiber_lo == 0 and rc.fiber_hi == 1 for rc in rects)
        assert interior_disjoint(rects)


class TestCsv:
    def test_header_and_fractions(self, ctx32):
        rects = render_tiles(ctx32, 2, [0])
        text = tiles_csv(rects)
        lines = text.strip().split("\n")
        assert lines[0] == "translate,digit,real_lo,real_hi,fiber_lo,fiber_hi"
        assert len(lines) == 10
        row = lines[1].split(",")
        assert row[0] == "0"
        assert Fraction(row[3]) - Fraction(row[2]) == Fraction(4, 9)


class TestSvg:
    def test_empty_input_yields_stub(self):
        text = tiles_svg([])
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_svg_is_deterministic(self, ctx32):
        rects = render_tiles(ctx32, 4, [0])
        assert tiles_svg(rects) == tiles_svg(rects)
        assert tiles_svg(rects).count("<rect") == len(rects)

    def test_golden_image(self, ctx32):
        rects = render_tiles(ctx32, 8, [0])
        assert interior_disjoint(rects)
        assert tiles_svg(rects).encode() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("a, b, r, translates, scheme", [
        (3, 2, 5, [0], "alpha-digits"),
        (3, 2, 3, range(-2, 3), "p-adic-digits"),
        (5, 3, 3, [0, Fraction(1, 3), Fraction(-7, 9)], "alpha-digits"),
        (7, 4, 2, [Fraction(-3, 4)], "p-adic-digits"),
        (10, 1, 3, [0, 5], "alpha-digits"),
    ])
    def test_matches_fraction_reference(self, a, b, r, translates, scheme, monkeypatch):
        rects = render_tiles(AdeleContext(Base(a, b)), r, translates, scheme)
        assert tiles_svg(rects) == tiles_svg_ref(rects)
        assert tiles_svg(rects[:1]) == tiles_svg_ref(rects[:1])
        # another scale, set through the module's constants
        monkeypatch.setattr(render, "_PX_PER_UNIT", 37)
        monkeypatch.setattr(render, "_FIBER_PX", 101)
        monkeypatch.setattr(render, "_PAD", 3)
        assert tiles_svg(rects) == tiles_svg_ref(rects, 37, 101, 3)

    def test_flat_fiber_span_matches_fraction_reference(self):
        rects = [TileRect(Fraction(0), 0, Fraction(1, 3), Fraction(2, 3),
                          Fraction(1, 2), Fraction(1, 2))]
        assert tiles_svg(rects) == tiles_svg_ref(rects)
