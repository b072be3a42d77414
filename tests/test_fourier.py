"""Fourier data: closed forms vs quadrature, exact vanishing, series sums."""
import functools
import itertools
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from ratbase import (
    AdeleContext,
    Base,
    DigitWord,
    FourierCoefficient,
    Pattern,
    ScaleExceeded,
    SeriesEval,
    SeriesTruncation,
    char_exponent,
    coeff_f,
    coeff_g,
    coefficient_table,
    corner_of_residues,
    count_pattern_at,
    eval_urysohn_direct,
    eval_urysohn_series,
    locate_box,
    parse_digits,
    series_tail_bound,
    tile_corners,
    urysohn_pattern_estimate,
)
from ratbase import fourier, numeration, patterns
from ratbase.fourier import (_TABLE_TOP, _SeriesCache, _fill_charge, _series_coeffs,
                             _tabled_factor)
from helpers import (ORACLE_BASES, bump_coefficient_decimal, coeff_f_ref, coeff_f_sum,
                     coeff_g_quadrature, coeff_g_ref, random_rational, urysohn_bruteforce,
                     urysohn_series_decimal, urysohn_series_ref)

DENS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27]


class TestBumpCoefficient:
    def test_zero_mode_is_exact(self, ctx32):
        for r in (0, 1, 2, 3):
            c = coeff_g(ctx32, 0, r, 0)
            assert c.exact == Fraction(1, 3**r)
            assert c.value == 1 / 3**r

    def test_frozen_value(self, ctx32):
        got = coeff_g(ctx32, 0, 1, Fraction(1, 2)).value
        assert abs(got - 9 / (4 * math.pi**2)) < 1e-13
        assert abs(got.imag) < 1e-13

    def test_vanishes_off_support(self, ctx32):
        rng = random.Random(1)
        hits = 0
        for _ in range(1000):
            num = rng.randint(-500, 500)
            den = rng.choice([3, 5, 7, 9, 11, 12, 21])
            xi = Fraction(num, den)
            if xi.denominator in (1, 2, 4):  # on the level-2 support
                continue
            hits += 1
            assert coeff_g(ctx32, 0, 2, xi).value == 0
        assert hits > 500

    def test_vanishes_on_integer_alpha_multiples(self, ctx32):
        # alpha^-r xi integral kills the oscillation factor
        for m in (1, -2, 5):
            assert coeff_g(ctx32, 0, 1, Fraction(3 * m, 2)).value == 0
        assert coeff_g(ctx32, 0, 2, Fraction(9, 4)).value == 0

    def test_against_quadrature(self, ctx32, ctx53):
        rng = random.Random(2)
        for ctx in (ctx32, ctx53):
            for _ in range(6):
                r = rng.choice([1, 2, 3])
                m = rng.choice([x for x in range(-30, 31) if x != 0])
                xi = Fraction(m, ctx.base.b**r)
                x = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 6]))
                lib = coeff_g(ctx, x, r, xi).value
                assert abs(lib - coeff_g_quadrature(ctx, x, r, xi)) < 1e-9

    def test_zero_frequency_at_level_zero(self, ctx32):
        assert coeff_g(ctx32, 0, 0, 1).value == 0


class TestCoefficientType:
    """FourierCoefficient: three named fields of an immutable 3-tuple that
    equals only another coefficient."""

    def test_fields_and_keyword_construction(self, ctx32):
        c = coeff_f(ctx32, 1, 3, Fraction(5, 8))
        xi, value, exact = c
        assert (c.frequency, c.value, c.exact) == (xi, value, exact)
        assert (xi, exact) == (Fraction(5, 8), None) and value != 0
        assert FourierCoefficient(frequency=xi, value=value, exact=exact) == c
        assert FourierCoefficient(xi, value, exact) == c

    def test_fields_cannot_be_assigned(self, ctx32):
        c = coeff_f(ctx32, 1, 3, Fraction(5, 8))
        for name in ("frequency", "value", "exact", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 0)

    def test_equals_only_a_coefficient(self, ctx32):
        c = coeff_f(ctx32, 1, 3, Fraction(3, 8))
        assert c != tuple(c) and tuple(c) != c
        assert not c == tuple(c)
        twin = FourierCoefficient(Fraction(3, 8), 0j, Fraction(0))
        assert c == twin and not c != twin
        assert hash(c) == hash(twin)
        assert len({c, twin, coeff_f(ctx32, 1, 3, Fraction(5, 8))}) == 2

    @pytest.mark.parametrize("xi", [0, Fraction(3, 8), Fraction(5, 8), Fraction(1, 3)])
    def test_repr(self, ctx32, xi):
        c = coeff_f(ctx32, 1, 3, xi)
        assert repr(c) == (f"FourierCoefficient(frequency={c.frequency!r}, "
                           f"value={c.value!r}, exact={c.exact!r})")

    def test_frozen_repr(self, ctx32):
        assert repr(coeff_f(ctx32, 1, 3, Fraction(3, 8))) == (
            "FourierCoefficient(frequency=Fraction(3, 8), value=0j, exact=Fraction(0, 1))")


class TestSeriesTypes:
    """SeriesEval and SeriesTruncation: named fields of immutable tuples that
    equal only a value of their own type."""

    def test_fields_and_keyword_construction(self, ctx32):
        sv = eval_urysohn_series(ctx32, 1, 3, Fraction(3, 5), 50)
        value, trunc = sv
        cutoff, terms, tail_bound = trunc
        assert (sv.value, sv.truncation) == (value, trunc)
        assert (trunc.cutoff, trunc.terms, trunc.tail_bound) == (cutoff, terms, tail_bound)
        assert (cutoff, terms, tail_bound) == (50, 101, series_tail_bound(ctx32, 3, 50))
        assert SeriesTruncation(cutoff=50, terms=101, tail_bound=tail_bound) == trunc
        assert SeriesEval(value=value, truncation=trunc) == sv == SeriesEval(value, trunc)

    def test_fields_cannot_be_assigned(self, ctx32):
        sv = eval_urysohn_series(ctx32, 1, 3, Fraction(3, 5), 50)
        for obj, names in ((sv, ("value", "truncation", "other")),
                           (sv.truncation, ("cutoff", "terms", "tail_bound", "other"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)

    def test_equal_only_their_own_type(self, ctx32):
        sv = eval_urysohn_series(ctx32, 1, 3, Fraction(3, 5), 50)
        for obj in (sv, sv.truncation):
            assert obj != tuple(obj) and tuple(obj) != obj
            assert not obj == tuple(obj)
        twin = SeriesEval(sv.value, SeriesTruncation(*sv.truncation))
        assert sv == twin and not sv != twin
        assert hash(sv) == hash(twin)
        assert len({sv, twin, SeriesEval(1.0, sv.truncation)}) == 2
        assert SeriesTruncation(1, 2, 3.0) != FourierCoefficient(1, 2, 3.0)

    def test_frozen_repr(self, ctx32):
        assert repr(eval_urysohn_series(ctx32, 1, 0, Fraction(1, 3), 10)) == (
            "SeriesEval(value=0.3333333333333333, truncation=SeriesTruncation("
            "cutoff=10, terms=21, tail_bound=0.006754745576155851))")


class TestTileCoefficient:
    @pytest.mark.parametrize("ctxname", ["ctx32", "ctx53", "ctx76"])
    def test_mean_is_exact(self, ctxname, request):
        ctx = request.getfixturevalue(ctxname)
        for d in range(ctx.base.a):
            for r in (1, 2, 3):
                c = coeff_f(ctx, d, r, 0)
                assert c.exact == Fraction(1, ctx.base.a)

    def test_frozen_exact_zero(self, ctx32):
        c = coeff_f(ctx32, 1, 3, Fraction(3, 8))
        assert c.exact == 0
        assert c.value == 0

    def test_vanishes_on_a_multiples(self, ctx32):
        for r in (1, 2, 3, 4):
            br = 2**r
            for m in range(3, 1001, 3):
                for d in range(3):
                    assert coeff_f(ctx32, d, r, Fraction(m, br)).value == 0

    def test_rejects_bad_digit(self, ctx32):
        with pytest.raises(ValueError):
            coeff_f(ctx32, 3, 2, 0)
        with pytest.raises(ValueError):
            coeff_f(ctx32, -1, 2, 0)

    def test_rejects_negative_level(self, ctx32):
        for xi in (0, Fraction(1, 3)):
            with pytest.raises(ValueError):
                coeff_f(ctx32, 1, -1, xi)
            with pytest.raises(ValueError):
                coeff_g(ctx32, 0, -1, xi)

    @pytest.mark.parametrize("ctxname", ["ctx32", "ctx53", "ctx76"])
    def test_factorized_matches_corner_sum(self, ctxname, request):
        ctx = request.getfixturevalue(ctxname)
        rng = random.Random(3)
        worst = 0.0
        for _ in range(40):
            d = rng.randrange(ctx.base.a)
            r = rng.choice([1, 2, 3])
            m = rng.randint(-50, 50)
            xi = Fraction(m, ctx.base.b**r)
            fast = coeff_f(ctx, d, r, xi).value
            slow = coeff_f_sum(ctx, d, r, xi)
            worst = max(worst, abs(fast - slow))
        assert worst < 1e-12

    def test_quadratic_decay_with_tail_bound(self, ctx32):
        r, d = 2, 1
        br = 2**r
        tail = sum(abs(coeff_f(ctx32, d, r, Fraction(m, br)).value)
                   for m in range(51, 501))
        assert 2 * tail <= series_tail_bound(ctx32, r, 50)

    def test_table_format(self, ctx32):
        text = coefficient_table(ctx32, [0, 1, 2], 1, 4)
        lines = text.strip().split("\n")
        assert lines[0] == "xi_numerator,r,digit,re,im,abs"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[:3] == ["0", "1", "0"]
        assert float(first[1 + 2]) == pytest.approx(1 / 3)


class TestDirectEvaluation:
    @pytest.mark.parametrize("ctxname", ["ctx32", "ctx53", "ctx76"])
    def test_matches_bruteforce(self, ctxname, request):
        ctx = request.getfixturevalue(ctxname)
        rng = random.Random(4)
        for _ in range(40):
            z = random_rational(rng, 400, DENS + [7, 10, 36])
            r = rng.choice([1, 2])
            d = rng.randrange(ctx.base.a)
            assert eval_urysohn_direct(ctx, d, r, z) == urysohn_bruteforce(ctx, d, r, z)

    def test_frozen_point_values(self, ctx32):
        # 14/9 = 4/3 + 2/9 looks like a real offset into the digit-2 box,
        # but v_2(2/9) = 1 < 2 puts it in a different 2-adic ball: it is
        # the digit-1 corner 2/3 + 4/9 + 8/9 and scores 0 for digit 2
        z = Fraction(4, 3) + Fraction(2, 9)
        assert eval_urysohn_direct(ctx32, 2, 2, z) == 0
        assert eval_urysohn_direct(ctx32, 1, 2, z) == 1
        assert eval_urysohn_direct(ctx32, 2, 2, z) == urysohn_bruteforce(ctx32, 2, 2, z)
        # a genuinely split point: 32/33 sits between the digit-0 corner 8/9
        # and the digit-2 corner 4/3, matching both balls
        w = Fraction(32, 33)
        f2 = eval_urysohn_direct(ctx32, 2, 2, w)
        f0 = eval_urysohn_direct(ctx32, 0, 2, w)
        assert isinstance(f2, Fraction)
        assert f2 == Fraction(2, 11)
        assert f0 == Fraction(9, 11)
        assert f2 + f0 == 1
        assert f2 == urysohn_bruteforce(ctx32, 2, 2, w)

    def test_partition_of_unity(self, ctx32, ctx76):
        rng = random.Random(5)
        for ctx in (ctx32, ctx76):
            for _ in range(25):
                z = random_rational(rng, 300, DENS)
                r = rng.choice([1, 2, 3])
                total = sum(eval_urysohn_direct(ctx, d, r, z)
                            for d in range(ctx.base.a))
                assert total == 1

    def test_peak_at_a_corner(self, ctx32):
        # the tent sum reaches 1 exactly on the corner itself
        assert eval_urysohn_direct(ctx32, 1, 1, Fraction(2, 3)) == 1
        assert eval_urysohn_direct(ctx32, 0, 1, Fraction(2, 3)) == 0

    @pytest.mark.parametrize("base", ORACLE_BASES, ids=str)
    def test_matches_bruteforce_to_level_four(self, base):
        ctx = AdeleContext(base)
        a, b = base.a, base.b
        rng = random.Random(f"direct {base}")
        for r in range(1, 5):
            # negative numerators, poles at p | b, denominators prime to b
            dens = [1, 7, 11 * 13, a**r, b, b ** (r + 2), 5 * b**3]
            points = [Fraction(rng.randint(-10**4, 10**4), rng.choice(dens))
                      for _ in range(4)]
            # box corners (theta = 0), also moved by lattice translates
            corner = corner_of_residues(ctx, [rng.randrange(a) for _ in range(r)])
            points += [corner + t for t in (0, -2, Fraction(1, b))]
            for z in points:
                for d in range(a):
                    assert eval_urysohn_direct(ctx, d, r, z) == \
                        urysohn_bruteforce(ctx, d, r, z), (d, r, z)

    def test_deep_level_under_a_small_cap(self, ctx32, monkeypatch):
        # O(r) work: the 3^11 corners of a level-12 tile are never visited
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        rng = random.Random(12)
        for _ in range(10):
            z = random_rational(rng, 10**6, DENS + [7, 11])
            assert sum(eval_urysohn_direct(ctx32, d, 12, z) for d in range(3)) == 1
        residues = [rng.randrange(3) for _ in range(12)]
        corner = corner_of_residues(ctx32, residues)
        assert eval_urysohn_direct(ctx32, residues[0], 12, corner) == 1

    def test_rejects_bad_level_and_digit(self, ctx32):
        for d, r in ((1, 0), (1, -1), (3, 2), (-1, 2)):
            with pytest.raises(ValueError):
                eval_urysohn_direct(ctx32, d, r, Fraction(1, 3))


class TestSeriesEvaluation:
    def test_rejects_empty_truncation(self, ctx32):
        with pytest.raises(ValueError):
            eval_urysohn_series(ctx32, 1, 1, Fraction(1, 3), cutoff=0)
        with pytest.raises(ValueError, match="cutoff"):
            series_tail_bound(ctx32, 1, 0)

    def test_rejects_negative_level(self, ctx32):
        with pytest.raises(ValueError):
            eval_urysohn_series(ctx32, 1, -1, Fraction(1, 3), 10)
        with pytest.raises(ValueError, match="level"):
            series_tail_bound(ctx32, -1, 10)
        assert eval_urysohn_series(ctx32, 1, 0, Fraction(1, 3), 10).value == 1 / 3

    def test_truncation_report(self, ctx32):
        sv = eval_urysohn_series(ctx32, 1, 1, Fraction(1, 3), cutoff=64)
        assert sv.truncation.cutoff == 64
        assert sv.truncation.terms == 129
        assert sv.truncation.tail_bound == series_tail_bound(ctx32, 1, 64)
        assert isinstance(sv.value, float)

    def test_within_tail_bound_of_direct(self, ctx32):
        rng = random.Random(6)
        for cutoff in (100, 1000):
            bound = series_tail_bound(ctx32, 2, cutoff)
            for _ in range(20):
                z = random_rational(rng, 200, DENS)
                direct = float(eval_urysohn_direct(ctx32, 1, 2, z))
                sv = eval_urysohn_series(ctx32, 1, 2, z, cutoff=cutoff)
                assert abs(sv.value - direct) <= bound + 1e-12

    def test_corner_value_converges_to_one(self, ctx32):
        sv = eval_urysohn_series(ctx32, 1, 1, Fraction(2, 3), cutoff=2000)
        assert abs(sv.value - 1.0) <= sv.truncation.tail_bound

    def test_tail_bound_formula(self, ctx32):
        assert series_tail_bound(ctx32, 2, 100) == pytest.approx(
            2 * 3**3 / (math.pi**2 * 100))


class TestPatternEstimate:
    def test_single_digit_estimates_tile_n(self, ctx32):
        for k in (0, 2):
            for r in (1, 2):
                total = sum(urysohn_pattern_estimate(ctx32, (d,), k, r, 60)
                            for d in range(3))
                assert total == 60

    def test_is_a_product_of_point_values(self, ctx32):
        from ratbase import membership_point
        est = urysohn_pattern_estimate(ctx32, (2, 1), 1, 2, 3)
        manual = Fraction(0)
        for n in (1, 2, 3):
            term = (eval_urysohn_direct(ctx32, 1, 2, membership_point(ctx32, n, 1))
                    * eval_urysohn_direct(ctx32, 2, 2, membership_point(ctx32, n, 2)))
            manual += term
        assert est == manual

    @pytest.mark.parametrize("a, b", [(3, 2), (5, 2), (5, 3), (7, 4), (10, 1), (2, 1),
                                      (7, 6)])
    def test_equals_the_padded_count_at_level_k_plus_length(self, a, b):
        # at r = k + |w| every point the window reads is a level-r box corner,
        # so each smoothing is a digit indicator and the estimate is exact;
        # one level lower, 126 of these cases at 3/2, 5/2, 7/4 and 2/1 differ
        base = Base(a, b)
        ctx = AdeleContext(base)
        for word in itertools.chain.from_iterable(
                itertools.product(range(a), repeat=n) for n in (1, 2)):
            for k in range(3):
                assert urysohn_pattern_estimate(ctx, word, k, k + len(word), 57) \
                    == count_pattern_at(base, Pattern(base, word), k, 57,
                                        padded=True), (word, k)

    def test_rejects_bad_word(self, ctx32):
        with pytest.raises(ValueError):
            urysohn_pattern_estimate(ctx32, (3,), 0, 2, 10)

    @pytest.mark.parametrize("N", [0, 1, 10])
    def test_rejects_bad_arguments_for_every_n(self, ctx32, N):
        for word, k, r in (((2,), 0, 0), ((2,), 0, -1), ((2,), -1, 2), ((), 0, 2)):
            with pytest.raises(ValueError):
                urysohn_pattern_estimate(ctx32, word, k, r, N)


@pytest.mark.parametrize("call", [
    lambda ctx: DigitWord(ctx.base, (1, 3)),
    lambda ctx: parse_digits(ctx.base, "13"),
    lambda ctx: Pattern(ctx.base, (3,)),
    lambda ctx: tile_corners(ctx, 3, 2),
    lambda ctx: coeff_f(ctx, 3, 2, Fraction(1, 4)),
    lambda ctx: coefficient_table(ctx, [0, 3], 2, 5),
    lambda ctx: eval_urysohn_direct(ctx, 3, 2, Fraction(1, 3)),
    lambda ctx: eval_urysohn_series(ctx, 3, 2, Fraction(1, 3), 10),
    lambda ctx: urysohn_pattern_estimate(ctx, (1, 3), 0, 2, 5),
], ids=["DigitWord", "parse_digits", "Pattern", "tile_corners", "coeff_f",
        "coefficient_table", "eval_urysohn_direct", "eval_urysohn_series",
        "urysohn_pattern_estimate"])
def test_every_digit_check_names_the_base(call, ctx32):
    # one alphabet check serves words, patterns, tiles and the Fourier layer
    with pytest.raises(ValueError, match=r"^digit 3 outside alphabet of base 3/2$"):
        call(ctx32)


@pytest.mark.parametrize("call", [
    lambda ctx: DigitWord.parse(ctx.base, "2102"),
    lambda ctx: parse_digits(ctx.base, "2102"),
    lambda ctx: Pattern.parse(ctx.base, "(2,1,0,2)"),
    lambda ctx: urysohn_pattern_estimate(ctx, (2, 1), 2, 3, 40),
], ids=["DigitWord.parse", "parse_digits", "Pattern.parse", "urysohn_pattern_estimate"])
def test_digits_are_checked_once(call, ctx32, monkeypatch):
    checks = []
    check = numeration._check_digits

    def counted(base, digits):
        checks.append(tuple(digits))
        check(base, digits)

    for module in (numeration, patterns, fourier):
        monkeypatch.setattr(module, "_check_digits", counted)
    call(ctx32)
    assert len(checks) == 1, checks


class TestBudget:
    def test_table_is_charged_before_work(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        with pytest.raises(ScaleExceeded):
            coefficient_table(ctx32, [0, 1, 2], 2, 5000)
        # two digits times 500 frequencies is exactly the cap
        assert coefficient_table(ctx32, [0, 1], 2, 499).count("\n") == 1 + 1000

    def test_table_checks_digits_before_its_charge(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "10")
        with pytest.raises(ValueError):
            coefficient_table(ctx32, [0, 3], 2, 5000)

    def test_series_checks_its_digit_before_its_charge(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "10")
        with pytest.raises(ValueError, match="outside alphabet"):
            eval_urysohn_series(ctx32, 7, 2, Fraction(1, 3), cutoff=100)

    def test_series_is_charged_its_cutoff(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        with pytest.raises(ScaleExceeded):
            eval_urysohn_series(ctx32, 1, 2, Fraction(1, 3), cutoff=20000)
        sv = eval_urysohn_series(ctx32, 2, 3, Fraction(1, 3), cutoff=1000)
        assert sv.truncation.terms == 2001

    def test_series_cache_holds_at_most_the_cap(self, ctx32, monkeypatch):
        # each list keeps the 60 of m = 1..90 that 3 does not divide
        monkeypatch.setenv("RATBASE_MAX_ENUM", "100")
        for d in range(3):
            eval_urysohn_series(ctx32, d, 2, Fraction(1, 3), cutoff=90)
            assert _series_coeffs.cache_info().pairs == 60
        misses = _series_coeffs.cache_info().misses
        eval_urysohn_series(ctx32, 0, 2, Fraction(1, 3), cutoff=90)
        assert _series_coeffs.cache_info().misses == misses + 1

    def test_roots_served_cold_and_warm_agree(self, ctx32, monkeypatch):
        # Q = 1..25 at 3/2 r = 3 cutoff 50: at most the 34 nonzero terms
        for den in (1, 3, 5, 9, 15, 25):
            for num in (1, 2, 7):
                cache = _SeriesCache()
                monkeypatch.setattr(fourier, "_series_coeffs", cache)
                z = Fraction(num, den)
                cold = eval_urysohn_series(ctx32, 1, 3, z, 50)
                [(key, (pairs, folds))] = cache.lists.items()
                assert key == (3, 2, 1, 3, 50) and list(folds) == [den]
                terms, roots = folds[den]
                assert len(roots) == den and len(terms) <= den
                assert cache.items == len(pairs) + len(terms) + den
                assert repr(eval_urysohn_series(ctx32, 1, 3, z, 50)) == repr(cold)
                assert cache.cache_info().hits == 1 and folds[den] == (terms, roots)

    def test_root_tables_stay_within_their_bounds(self, ctx32, monkeypatch):
        # the 3/2 r = 1 list of cutoff 400 keeps 267 pairs, so every odd
        # Q < 267 is served from a fold with its Q roots
        cache = _SeriesCache()
        monkeypatch.setattr(fourier, "_series_coeffs", cache)
        for Q in range(1, 200, 2):
            eval_urysohn_series(ctx32, 1, 1, Fraction(1, Q), 400)
        assert list(cache.lists[3, 2, 1, 1, 400][1]) == list(range(1, 200, 2))
        assert cache.items == _held_items(cache)
        cache = _SeriesCache()
        monkeypatch.setattr(fourier, "_series_coeffs", cache)
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        for Q in range(101, 200, 2):
            got = eval_urysohn_series(ctx32, 1, 1, Fraction(1, Q), 400)
            assert cache.items == _held_items(cache) <= 1000
            monkeypatch.setattr(fourier, "_series_coeffs", _SeriesCache())
            assert repr(eval_urysohn_series(ctx32, 1, 1, Fraction(1, Q), 400)) == repr(got)
            monkeypatch.setattr(fourier, "_series_coeffs", cache)
        # the folds that did not fit beside the list were served unkept,
        # and the list was never filled again
        assert list(cache.lists[3, 2, 1, 1, 400][1]) == [101, 103, 105]
        assert cache.cache_info() == (49, 1, 1, 267)

    @pytest.mark.parametrize("store", ["list", "roots", "fold"])
    def test_any_store_trims_every_table_to_the_cap(self, ctx32, monkeypatch, store):
        # "roots": a fold whose Q roots do not fit beside its list
        cache = _SeriesCache()
        monkeypatch.setattr(fourier, "_series_coeffs", cache)
        for Q in range(1, 120, 2):
            eval_urysohn_series(ctx32, Q % 3, 1, Fraction(1, Q), 400 + Q)
        assert cache.items == _held_items(cache) > 1000
        last = (3, 2, 2, 1, 519)
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        if store == "list":
            cache(ctx32, 1, 2, 30)
            assert (3, 2, 1, 2, 30) in cache.lists
        elif store == "roots":
            cache.fold(last, 263)
            assert 263 not in cache.lists[last][1]
        else:
            cache.fold(last, 2)
            assert 2 in cache.lists[last][1]
        assert cache.items == _held_items(cache) <= 1000
        # the last call's list and fold are still held, so it reads no cap
        monkeypatch.setenv("RATBASE_MAX_ENUM", "no cap")
        eval_urysohn_series(ctx32, 2, 1, Fraction(1, 119), 519)

    def test_fold_at_one_residue(self, ctx32, monkeypatch):
        # an integer z has Q = 1: every term shares e(0) = 1
        monkeypatch.setattr(fourier, "_series_coeffs", _SeriesCache())
        for z in (0, 5, Fraction(-7)):
            for r in (1, 2, 3):
                _check_series(ctx32, 1, r, z, 40)
                terms, roots = fourier._series_coeffs.lists[3, 2, 1, r, 40][1][1]
                assert len(terms) == 1 and roots == [1]

    def test_folds_outlive_their_lists(self, ctx32, monkeypatch):
        # 70 lists, so the first ones and their folds are evicted and
        # filled again while newer folds stay held
        cache = _SeriesCache()
        monkeypatch.setattr(fourier, "_series_coeffs", cache)
        points = [(cutoff, Fraction(num, den)) for cutoff in range(20, 90)
                  for num, den in ((1, 5), (2, 3))]
        first = [eval_urysohn_series(ctx32, 2, 2, z, cutoff) for cutoff, z in points]
        assert len(cache.lists) == 64 and cache.cache_info().misses == 70
        again = [eval_urysohn_series(ctx32, 2, 2, z, cutoff) for cutoff, z in points[::-1]]
        assert list(map(repr, again[::-1])) == list(map(repr, first))
        for cutoff, z in points[::7]:
            _check_series(ctx32, 2, 2, z, cutoff)

    def test_fills_are_charged_their_untabled_levels(self, ctx32, monkeypatch):
        # at 3/2 the levels with 3^k <= 4096 are k <= 7; r = 9 adds two, of
        # 3 exponentials each
        assert [_fill_charge(3, r, 10) for r in (0, 1, 2, 7, 8, 9, 322)] == \
            [10, 10, 10, 10, 40, 70, 9460]
        assert [_fill_charge(2, r, 10) for r in (12, 13)] == [10, 30]
        assert [_fill_charge(65, r, 10) for r in (1, 2, 3)] == [10, 660, 1310]
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        with pytest.raises(ScaleExceeded, match="^enumeration of 1001 objects"):
            coefficient_table(ctx32, [0], 9, 142)
        assert coefficient_table(ctx32, [0], 9, 141).count("\n") == 1 + 142
        monkeypatch.setattr(fourier, "_series_coeffs", _SeriesCache())
        with pytest.raises(ScaleExceeded, match="^enumeration of 1001 objects"):
            eval_urysohn_series(ctx32, 1, 9, Fraction(1, 3), cutoff=143)
        assert eval_urysohn_series(ctx32, 1, 9, Fraction(1, 3), cutoff=142).truncation.terms == 285

    def test_a_coefficient_is_charged_its_untabled_levels(self, ctx32, monkeypatch):
        # 2 levels of 3 exponentials at 3/2 r = 9; a coefficient that sums
        # none reads no budget, so an invalid cap goes unread
        monkeypatch.setenv("RATBASE_MAX_ENUM", "5")
        with pytest.raises(ScaleExceeded, match="^enumeration of 6 objects exceeds cap 5$"):
            coeff_f(ctx32, 1, 9, Fraction(1, 2**9))
        monkeypatch.setenv("RATBASE_MAX_ENUM", "6")
        assert repr(coeff_f(ctx32, 1, 9, Fraction(1, 2**9))) == \
            repr(coeff_f_ref(ctx32, 1, 9, Fraction(1, 2**9)))
        monkeypatch.setenv("RATBASE_MAX_ENUM", "no cap")
        for r, m in ((7, 1), (2, 5), (9, 3), (9, 0)):
            assert repr(coeff_f(ctx32, 1, r, Fraction(m, 2**r))) == \
                repr(coeff_f_ref(ctx32, 1, r, Fraction(m, 2**r)))
        with pytest.raises(ValueError, match="^RATBASE_MAX_ENUM"):
            coeff_f(ctx32, 1, 8, Fraction(1, 2**8))
        ctx = AdeleContext(Base(4099, 2))
        assert coeff_f(ctx, 7, 1, Fraction(5, 2)).value != 0
        with pytest.raises(ValueError, match="^RATBASE_MAX_ENUM"):
            coeff_f(ctx, 7, 2, Fraction(5, 4))

    def test_estimate_is_charged_its_point_values(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        with pytest.raises(ScaleExceeded):
            urysohn_pattern_estimate(ctx32, (2, 1), 0, 8, 501)
        # 500 points times two window offsets is exactly the cap
        assert urysohn_pattern_estimate(ctx32, (2, 1), 0, 8, 500) >= 0


def _oracle_frequencies(base, r, rng):
    """xi = 0, xi = m / b^r for small, large, negative and a-divisible m,
    and xi off (1/b^r) Z."""
    a, b = base.a, base.b
    br = b**r
    ms = list(range(-2 * a, 2 * a + 1)) + [rng.randint(-10**9, 10**9) for _ in range(6)]
    ms += [a**r, -(a ** (r + 1)) * 7, a ** max(r - 1, 0) * 5]
    yield from (Fraction(m, br) for m in ms)
    for den in (7 * br, 11 * 13, b ** (r + 1) if b > 1 else 9):
        yield Fraction(rng.randint(-10**5, 10**5), den)


class TestStableAmplitude:
    """|1 - e(m / a^r)|^2 against a high-precision series at every level
    the gate accepts, with m near 0 and near a^r, where 2 - 2 cos cancels."""

    @pytest.mark.parametrize("r", [14, 19, 40, 322])
    def test_bump_coefficient_against_a_decimal_series(self, ctx32, r):
        ar = 3**r
        for m in (1, 2, 5, ar - 2, ar - 1, ar + 1):
            want = bump_coefficient_decimal(3, r, m)
            got = coeff_g(ctx32, 0, r, Fraction(m, 2**r)).value
            assert got.imag == 0
            if want < sys.float_info.min:
                # below the doubles (3^-966 at r = 322, m near a^r): reads 0
                assert got.real == 0, (r, m)
            else:
                assert abs(Decimal(got.real) - want) <= Decimal("1e-12") * want, (r, m)

    def test_tile_coefficient_at_level_nineteen(self, ctx32):
        # where 2 - 2 cos(2 pi / 3^19) rounds to 0.0
        c = coeff_f(ctx32, 1, 19, Fraction(1, 2**19))
        assert c.exact is None and abs(c.value) > 0


@pytest.mark.parametrize("base", ORACLE_BASES, ids=str)
class TestIntegerFourierOracles:
    """Integer residues of m = xi b^r against the Fraction references."""

    def test_coeff_f_is_bit_equal(self, base):
        ctx = AdeleContext(base)
        rng = random.Random(f"coeff {base}")
        for r in range(7):
            for d in range(base.a):
                for xi in _oracle_frequencies(base, r, rng):
                    got, want = coeff_f(ctx, d, r, xi), coeff_f_ref(ctx, d, r, xi)
                    assert repr(got.value) == repr(want.value), (d, r, xi)
                    assert got.exact == want.exact, (d, r, xi)

    def test_coeff_g_is_bit_equal(self, base):
        ctx = AdeleContext(base)
        b = base.b
        rng = random.Random(f"coeff_g {base}")
        dens = [1, 7, 11 * 13, base.a, b, b**3, 5 * b**2]
        for r in range(6):
            for xi in _oracle_frequencies(base, r, rng):
                for _ in range(3):
                    x = Fraction(rng.randint(-10**4, 10**4), rng.choice(dens))
                    got, want = coeff_g(ctx, x, r, xi), coeff_g_ref(ctx, x, r, xi)
                    assert repr(got.value) == repr(want.value), (x, r, xi)
                    assert got.exact == want.exact, (x, r, xi)

    def test_exact_zero_iff_a_divides_m(self, base):
        ctx = AdeleContext(base)
        a, b = base.a, base.b
        for r in range(1, 6):
            for m in range(-3 * a * a, 3 * a * a + 1):
                if m == 0:
                    continue
                c = coeff_f(ctx, 1, r, Fraction(m, b**r))
                assert (c.exact == 0) == (m % a == 0), (r, m)
                assert (c.value == 0) == (m % a == 0), (r, m)
        assert all(coeff_f(ctx, 1, 0, m).exact == 0 for m in range(1, 20))

    def test_series_is_bit_equal(self, base):
        ctx = AdeleContext(base)
        a, b = base.a, base.b
        rng = random.Random(f"series {base}")
        dens = [1, 7, 11 * 13, a, a**3, b, b**4, 5 * b**3]
        for i in range(24):
            z = Fraction(rng.randint(-10**4, 10**4), rng.choice(dens))
            r, d, cutoff = i % 4, rng.randrange(a), rng.choice([1, 9, 40])
            got = _check_series(ctx, d, r, z, cutoff)
            assert got.truncation.terms == 2 * cutoff + 1
        # at cutoff 400 both sides of the series' choice run: a fold by
        # residue where Q <= the nonzero terms, one root of unity per term
        # where a large prime in the denominator puts Q above them
        sides = set()
        for i, den in enumerate([1, 7, 11 * 13, a * b**4, 1000003, 999983 * b**2]):
            z = Fraction(rng.randint(-10**6, 10**6), den)
            r, d = 1 + i % 3, rng.randrange(a)
            Q = (char_exponent(ctx, z / b**r) % 1).denominator
            sides.add(Q <= len(_series_coeffs(ctx, d, r, 400)))
            _check_series(ctx, d, r, z, 400)
        assert sides == {True, False}


def _held_items(cache: _SeriesCache) -> int:
    """The pairs, fold terms and roots a series cache holds, counted afresh."""
    return sum(len(pairs) + sum(len(terms) + len(roots) for terms, roots in folds.values())
               for pairs, folds in cache.lists.values())


def _check_series(ctx, d, r, z, cutoff) -> SeriesEval:
    """eval_urysohn_series, bit-equal to urysohn_series_ref where it sums
    term by term (Q above the nonzero terms); where it folds, which
    reorders the additions, it and the reference each lie within 1e-13 of
    the series' mass of the Decimal sum."""
    got = eval_urysohn_series(ctx, d, r, z, cutoff)
    ref = urysohn_series_ref(ctx, d, r, z, cutoff)
    Q = (char_exponent(ctx, Fraction(z) / ctx.base.b**r) % 1).denominator
    if Q > len(fourier._series_coeffs(ctx, d, r, cutoff)):
        assert repr(got.value) == repr(ref), (z, r)
    else:
        want, mass = urysohn_series_decimal(ctx, d, r, z, cutoff)
        for value in (got.value, ref):
            assert abs(Decimal(value) - want) <= Decimal("1e-13") * mass, (z, r, value)
    return got


def _table_ref(ctx, digits, r, max_m):
    lines = ["xi_numerator,r,digit,re,im,abs"]
    for d in digits:
        for m in range(max_m + 1):
            v = coeff_f_ref(ctx, d, r, Fraction(m, ctx.base.b**r)).value
            lines.append(f"{m},{r},{d},{v.real!r},{v.imag!r},{abs(v)!r}")
    return "\n".join(lines) + "\n"


class TestIntegerFourierTables:
    # every ORACLE_BASES base; max_m >= a^r, so every level's sums repeat
    @pytest.mark.parametrize("a, b, r", [(3, 2, 4), (5, 2, 3), (5, 3, 3), (7, 4, 3),
                                         (10, 1, 3), (7, 6, 3)])
    def test_table_is_byte_identical(self, a, b, r):
        ctx = AdeleContext(Base(a, b))
        digits = list(range(a))
        max_m = max(300, a**r + a)
        assert coefficient_table(ctx, digits, r, max_m) == _table_ref(ctx, digits, r, max_m)

    def test_table_above_the_bound_is_byte_identical(self, ctx32):
        # 3^8 = 6561 < 6600 modes: the residues of level 8 repeat in one table
        assert coefficient_table(ctx32, [1], 9, 6599) == _table_ref(ctx32, [1], 9, 6599)

    def test_integer_base_level_eight_allocates_nothing_of_size_a_r(self):
        # a^r = 10^8: a table over the residues mod a^r would need that many slots
        ctx = AdeleContext(Base(10, 1))
        xi = Fraction(123456789)
        tracemalloc.start()
        try:
            value = coeff_f(ctx, 3, 8, xi).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert repr(value) == repr(coeff_f_ref(ctx, 3, 8, xi).value)
        # a table or a series fill adds to the shared table only the sums of
        # levels with a^k <= 4096, and keeps none of the levels above
        for call in (lambda: coefficient_table(ctx, [3], 8, 200),
                     lambda: eval_urysohn_series(ctx, 3, 8, Fraction(1, 7), 200)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 256 * 1024


class SeriesCacheMachine(RuleBasedStateMachine):
    """Series, table and coeff_f calls on one series cache and one
    level-factor table, with the cap raised, lowered and made invalid."""

    BASES = (Base(3, 2), Base(5, 2), Base(5, 3), Base(7, 4))
    # 5, 6 and 8 lie above the tabled levels somewhere: 7^5, 5^6, 3^8 > 2^12
    LEVELS = (0, 1, 2, 3, 5, 6, 8)
    # Q = 1009 exceeds the pairs of every list (cutoff <= 150), so the
    # term-by-term path runs; the smaller Q fold
    DENS = (1, 2, 3, 7, 9, 11 * 13, 1009)

    def __init__(self):
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.cache = _SeriesCache()
        self.calls: list[tuple] = []
        self.patch.setattr(fourier, "_series_coeffs", self.cache)
        _tabled_factor.cache_clear()
        self.patch.delenv("RATBASE_MAX_ENUM", raising=False)

    def teardown(self):
        self.patch.undo()

    @staticmethod
    def _cold(call, *args):
        """call(*args) on cold tables at the default cap: a fresh cache of
        level factors stands in for the shared one, which stays warm."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fourier, "_series_coeffs", _SeriesCache())
            mp.setattr(fourier, "_tabled_factor", functools.lru_cache(
                maxsize=fourier._TABLE_FACTORS)(_tabled_factor.__wrapped__))
            mp.delenv("RATBASE_MAX_ENUM", raising=False)
            return call(*args)

    def _held(self) -> set:
        return {(key, Q) for key, (_, folds) in self.cache.lists.items()
                for Q in (0, *folds)}

    @rule(cap=st.sampled_from([None, "40", "300", "2000", "no cap"]))
    def set_cap(self, cap):
        if cap is None:
            self.patch.delenv("RATBASE_MAX_ENUM", raising=False)
        else:
            self.patch.setenv("RATBASE_MAX_ENUM", cap)

    def _series(self, base, d, r, z, cutoff):
        self.calls.append((base, d, r, z, cutoff))
        ctx = AdeleContext(base)
        Q = (char_exponent(ctx, z / base.b**r) % 1).denominator
        entry = self.cache.lists.get((base.a, base.b, d, r, cutoff))
        warm = entry is not None and (Q > len(entry[0]) or Q in entry[1])
        held, info, items = self._held(), self.cache.cache_info(), self.cache.items
        try:
            got = eval_urysohn_series(ctx, d, r, z, cutoff)
        except (ScaleExceeded, ValueError):
            # refused by the cap, or by an invalid one; a warm call reads none
            assert not warm and self._held() <= held
            return
        assert repr(got) == repr(self._cold(eval_urysohn_series, ctx, d, r, z, cutoff))
        if warm:
            assert self.cache.items == items and self.cache.cache_info().hits == info.hits + 1
        elif self.cache.cache_info().misses > info.misses or self._held() - held:
            assert self.cache.items <= fourier.max_enum()

    @rule(base=st.sampled_from(BASES), data=st.data(), r=st.sampled_from(LEVELS),
          num=st.integers(-50, 50), den=st.sampled_from(DENS), cutoff=st.integers(1, 150))
    def series(self, base, data, r, num, den, cutoff):
        d = data.draw(st.integers(0, base.a - 1))
        self._series(base, d, r, Fraction(num, den), cutoff)

    @rule(base=st.sampled_from(BASES), r=st.sampled_from(LEVELS[1:4]),
          den=st.sampled_from(DENS[:5]), first=st.integers(1, 40))
    def many_series(self, base, r, den, first):
        # 30 lists at once, so the bound of 64 lists is reached
        for cutoff in range(first, first + 30):
            self._series(base, 1, r, Fraction(1, den), cutoff)

    @precondition(lambda self: self.calls)
    @rule(data=st.data(), den=st.sampled_from(DENS))
    def series_again(self, data, den):
        # a recent list, at its own point or at a new one
        base, d, r, z, cutoff = data.draw(st.sampled_from(self.calls[-8:]))
        self._series(base, d, r, data.draw(st.sampled_from([z, Fraction(1, den)])), cutoff)

    @rule(base=st.sampled_from(BASES), r=st.sampled_from(LEVELS), max_m=st.integers(0, 60))
    def table(self, base, r, max_m):
        ctx, digits = AdeleContext(base), list(range(base.a))
        held, items = self._held(), self.cache.items
        try:
            got = coefficient_table(ctx, digits, r, max_m)
        except (ScaleExceeded, ValueError):
            return
        assert got == self._cold(coefficient_table, ctx, digits, r, max_m)
        assert self._held() == held and self.cache.items == items

    @rule(base=st.sampled_from(BASES), data=st.data(), r=st.sampled_from(LEVELS),
          m=st.integers(-10**6, 10**6))
    def coefficient(self, base, data, r, m):
        ctx, d = AdeleContext(base), data.draw(st.integers(0, base.a - 1))
        xi = Fraction(m, base.b**r)
        try:
            got = coeff_f(ctx, d, r, xi)
        except (ScaleExceeded, ValueError):
            # refused by the cap, or by an invalid one: only a coefficient
            # that sums levels above the shared table reads it
            assert base.a**r > _TABLE_TOP
            return
        assert repr(got) == repr(self._cold(coeff_f, ctx, d, r, xi))

    @invariant()
    def one_count_under_one_bound(self):
        assert len(self.cache.lists) <= 64
        assert self.cache.items == _held_items(self.cache)


def test_series_cache_keeps_one_rule():
    run_state_machine_as_test(SeriesCacheMachine, settings=settings(
        derandomize=True, database=None, max_examples=40, stateful_step_count=30))


def _fill_every_tabled_residue(a: int, b: int) -> None:
    """The level factor of every w prime to a at a's deepest tabled level,
    which fills every tabled level below it."""
    ak, bk = a, b
    while ak * a <= _TABLE_TOP:
        ak, bk = ak * a, bk * b
    for w in range(ak):
        if w % a:
            fourier._level_factor(a, b, ak, bk, w)


class TestLevelSumTable:
    """The products of the tabled level sums that every call shares, by
    (a, b, a^k, b^k, w mod a^k), in one bounded lru_cache."""

    @staticmethod
    def _held(key) -> bool:
        """Whether the shared table holds key: a read of it is a hit."""
        hits = _tabled_factor.cache_info().hits
        _tabled_factor(*key)
        return _tabled_factor.cache_info().hits == hits + 1

    def test_levels_of_equal_size_in_two_bases(self):
        # a^k = 81 is level 2 at 9/b and level 4 at 3/b, and the same m gives
        # both the residue w mod 81; the key keeps the two products apart.
        # At b = 1 both levels also have b^k = 1, so only a tells them apart
        for b in (1, 2):
            ctx9, ctx3 = AdeleContext(Base(9, b)), AdeleContext(Base(3, b))
            calls = [(ctx, d, r, Fraction(m, b**r)) for ctx, r in ((ctx9, 2), (ctx3, 4))
                     for m in range(1, 81) if m % 3 for d in (0, 1, 2)]
            for order in (calls, calls[::-1]):
                _tabled_factor.cache_clear()
                for call in order:
                    assert repr(coeff_f(*call).value) == repr(coeff_f_ref(*call).value), call
                # m = 1 at each base
                assert self._held((9, b, 81, b**2, -pow(b, -2, 81) % 81))
                assert self._held((3, b, 81, b**4, -pow(b, -4, 81) % 81))

    def test_cold_and_warm_calls_agree(self, ctx32, monkeypatch):
        def outputs():
            monkeypatch.setattr(fourier, "_series_coeffs", _SeriesCache())
            return (repr(coeff_f(ctx32, 1, 6, Fraction(7, 2**6)).value),
                    coefficient_table(ctx32, [0, 1, 2], 5, 300),
                    repr(eval_urysohn_series(ctx32, 2, 4, Fraction(5, 7), 200).value))

        _tabled_factor.cache_clear()
        cold = outputs()
        assert _tabled_factor.cache_info().currsize
        assert outputs() == cold

    def test_holds_no_level_above_its_bound(self, ctx32):
        _tabled_factor.cache_clear()
        coefficient_table(ctx32, [1], 12, 3000)
        # the table holds exactly these keys: as many, and each is read back
        ws = {-m * pow(2, -12, 3**12) % 3**12 for m in range(3001) if m % 3}
        keys = {(3, 2, 3**k, 2**k, w % 3**k) for w in ws for k in range(2, 8)}
        assert _tabled_factor.cache_info().currsize == len(keys)
        assert all(self._held(key) for key in keys)
        sizes = {ak for _, _, ak, _, _ in keys}
        assert sizes == {3**k for k in range(2, 8)}
        assert max(sizes) <= _TABLE_TOP < 3**8
        # only residues prime to 3 occur: at most 3^7 - 3 products at 3/2
        assert all(u % 3 for *_, u in keys)
        assert len(keys) <= 3**7 - 3

    def test_first_level_of_a_large_alphabet(self):
        # 4099 > 2^12: no level is tabled, and level 1 is complex(1.0) all
        # the same, never a table read
        ctx = AdeleContext(Base(4099, 2))
        for r in (1, 2, 3):
            for m in (1, 2, 4098, 4100, 10**6 + 1):
                for d in (0, 1, 4098):
                    call = (ctx, d, r, Fraction(m, 2**r))
                    assert repr(coeff_f(*call)) == repr(coeff_f_ref(*call)), call

    def test_deepest_levels_under_the_default_recursion_limit(self):
        # one frame a level above the table: 510 - 12 levels at 2/1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for (a, b), r in (((2, 1), 510), ((3, 2), 322)):
                ctx = AdeleContext(Base(a, b))
                for m in (1, 5, 2**31 - 1):
                    call = (ctx, 1, r, Fraction(m, b**r))
                    assert repr(coeff_f(*call)) == repr(coeff_f_ref(*call)), call
        finally:
            sys.setrecursionlimit(limit)

    def test_evicted_factors_come_back_bit_identical(self, ctx32, monkeypatch):
        # the first 60 coprime pairs (a <= 14) have about 125,000 tabled
        # factors, more than the bound holds
        def outputs():
            monkeypatch.setattr(fourier, "_series_coeffs", _SeriesCache())
            return (coefficient_table(ctx32, [0, 2], 9, 400),
                    coefficient_table(AdeleContext(Base(7, 4)), [3], 4, 400),
                    repr(eval_urysohn_series(ctx32, 2, 7, Fraction(5, 7), 300).value))

        _tabled_factor.cache_clear()
        cold = outputs()
        pairs = [(a, b) for a in range(2, 15) for b in range(1, a) if math.gcd(a, b) == 1]
        for a, b in pairs[:60]:
            _fill_every_tabled_residue(a, b)
        info = _tabled_factor.cache_info()
        assert info.currsize == info.maxsize == fourier._TABLE_FACTORS < info.misses
        assert outputs() == cold


class TestLevelBound:
    """A level is accepted while a^r < 2^511: up to 322 at 3/2, 153 at 10/1."""

    @pytest.mark.parametrize("call", [
        lambda ctx, r: locate_box(ctx, Fraction(7, 5), r),
        lambda ctx, r: coeff_f(ctx, 1, r, Fraction(1, 2**r)),
        lambda ctx, r: eval_urysohn_series(ctx, 1, r, Fraction(1, 3), 5),
        lambda ctx, r: math.isfinite(series_tail_bound(ctx, r, 1)),
    ], ids=["locate_box", "coeff_f", "series", "tail_bound"])
    def test_largest_level_and_the_next(self, ctx32, call):
        assert call(ctx32, 322)
        with pytest.raises(ScaleExceeded, match=r"^level 323 is too large: 3\^323 >= 2\^511$"):
            call(ctx32, 323)

    def test_largest_level_at_base_ten(self):
        ctx = AdeleContext(Base(10, 1))
        assert locate_box(ctx, Fraction(7, 5), 153).level == 153
        with pytest.raises(ScaleExceeded):
            locate_box(ctx, Fraction(7, 5), 154)

    def test_series_is_refused_before_its_charge(self, ctx32):
        before = _series_coeffs.cache_info()
        with pytest.raises(ScaleExceeded, match="^level 400 "):
            eval_urysohn_series(ctx32, 1, 400, 0, 5)
        assert _series_coeffs.cache_info() == before

    def test_huge_level_is_refused_at_once(self, ctx32):
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded):
            locate_box(ctx32, Fraction(7, 5), 10**5)
        with pytest.raises(ScaleExceeded):
            coefficient_table(ctx32, [0, 1, 2], 10**5, 2)
        assert time.perf_counter() - start < 1.0
