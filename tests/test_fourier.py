"""Fourier data: closed forms vs quadrature, exact vanishing, series sums."""
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from ratbase import (
    AdeleContext,
    Base,
    ScaleExceeded,
    coeff_f,
    coeff_g,
    coefficient_table,
    corner_of_residues,
    eval_urysohn_direct,
    eval_urysohn_series,
    series_tail_bound,
    urysohn_pattern_estimate,
)
from ratbase.fourier import _series_coeffs
from helpers import (ORACLE_BASES, coeff_f_ref, coeff_f_sum, coeff_g_quadrature,
                     coeff_g_ref, random_rational, urysohn_bruteforce,
                     urysohn_series_ref)

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

    def test_rejects_bad_word(self, ctx32):
        with pytest.raises(ValueError):
            urysohn_pattern_estimate(ctx32, (3,), 0, 2, 10)

    @pytest.mark.parametrize("N", [0, 1, 10])
    def test_rejects_bad_arguments_for_every_n(self, ctx32, N):
        for word, k, r in (((2,), 0, 0), ((2,), 0, -1), ((2,), -1, 2), ((), 0, 2)):
            with pytest.raises(ValueError):
                urysohn_pattern_estimate(ctx32, word, k, r, N)


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
            got = eval_urysohn_series(ctx, d, r, z, cutoff)
            assert repr(got.value) == repr(urysohn_series_ref(ctx, d, r, z, cutoff)), (z, r)
            assert got.truncation.terms == 2 * cutoff + 1


def _table_ref(ctx, digits, r, max_m):
    lines = ["xi_numerator,r,digit,re,im,abs"]
    for d in digits:
        for m in range(max_m + 1):
            v = coeff_f_ref(ctx, d, r, Fraction(m, ctx.base.b**r)).value
            lines.append(f"{m},{r},{d},{v.real!r},{v.imag!r},{abs(v)!r}")
    return "\n".join(lines) + "\n"


class TestIntegerFourierTables:
    @pytest.mark.parametrize("a, b, r", [(3, 2, 4), (5, 2, 3)])
    def test_table_is_byte_identical(self, a, b, r):
        ctx = AdeleContext(Base(a, b))
        digits = list(range(a))
        assert coefficient_table(ctx, digits, r, 300) == _table_ref(ctx, digits, r, 300)

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
