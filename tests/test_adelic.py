"""Adelic machinery: fractional parts, characters, reduction, tiles, tubes."""
import dataclasses
import math
import random
from fractions import Fraction

import pytest

from ratbase import (
    AdeleContext,
    AdelePoint,
    Base,
    BoundaryAmbiguous,
    BoundaryTube,
    BoxLocation,
    FourierCoefficient,
    NotIntegral,
    ScaleExceeded,
    boundary_tubes,
    char_exponent,
    char_tilde,
    character,
    classify_digit,
    coefficient_table,
    corner_of_residues,
    count_boundary_hits,
    cover_census,
    digit,
    fiber_coordinate,
    fiber_interval,
    frac_p,
    in_z_alpha,
    length,
    locate_box,
    membership_point,
    reduce_mod_lattice,
    render_tiles,
    tile_corners,
    urysohn_pattern_estimate,
    verify_residue_system,
)
from ratbase.adelic import _tube_charge, max_enum
from helpers import (
    ORACLE_BASES,
    boundary_tubes_ref,
    corner_set,
    cover_census_ref,
    denominator_in_b,
    fiber_interval_ref,
    fiber_value_ref,
    frac_p_bruteforce,
    locate_box_ref,
    random_rational,
    reduce_mod_lattice_ref,
    tile_corners_ref,
    vp,
)

DENS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27, 36, 100]


class TestFracP:
    def test_frozen_values(self):
        assert frac_p(2, Fraction(5, 12)) == Fraction(3, 4)
        assert frac_p(3, Fraction(5, 9)) == Fraction(5, 9)
        assert frac_p(2, Fraction(7)) == 0
        assert frac_p(5, Fraction(3, 10)) == Fraction(4, 5)

    def test_integral_inputs_map_to_zero(self):
        rng = random.Random(1)
        for _ in range(200):
            x = Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 3, 7, 11]))
            assert frac_p(2, x) == 0

    def test_contract(self):
        rng = random.Random(2)
        for p in (2, 3, 5):
            for _ in range(2000):
                x = random_rational(rng, 10**4, DENS)
                t = frac_p(p, x)
                assert 0 <= t < 1
                assert denominator_in_b(p, t)
                assert x == t or vp(p, x - t) >= 0

    def test_against_bruteforce(self):
        rng = random.Random(3)
        for p in (2, 3):
            for _ in range(300):
                x = random_rational(rng, 500, DENS)
                assert frac_p(p, x) == frac_p_bruteforce(p, x)

    def test_additive_mod_one(self):
        rng = random.Random(4)
        for _ in range(300):
            x = random_rational(rng, 100, DENS)
            y = random_rational(rng, 100, DENS)
            s = frac_p(2, x) + frac_p(2, y) - frac_p(2, x + y)
            assert s.denominator == 1


class TestContext:
    def test_primes_come_from_the_base(self):
        assert AdeleContext(Base(3, 2)).primes == ((2, 1),)
        assert AdeleContext(Base(7, 6)).primes == ((2, 1), (3, 1))
        assert AdeleContext(Base(10, 1)).primes == ()

    def test_rejects_given_primes(self):
        with pytest.raises(TypeError):
            AdeleContext(Base(3, 2), primes=((5, 1),))


class TestCharacters:
    def test_kernel_is_the_lattice(self, ctx32):
        rng = random.Random(5)
        inside = outside = 0
        for _ in range(1000):
            xi = random_rational(rng, 200, DENS)
            expected = denominator_in_b(2, xi)
            assert in_z_alpha(ctx32, xi) == expected
            val = char_tilde(ctx32, xi)
            if expected:
                inside += 1
                assert abs(val - 1) < 1e-9
            else:
                outside += 1
                assert abs(val - 1) > 1e-9
        assert inside > 100 and outside > 100

    def test_multi_prime_lattice(self, ctx76):
        assert in_z_alpha(ctx76, Fraction(5, 12))
        assert in_z_alpha(ctx76, Fraction(7, 108))
        assert not in_z_alpha(ctx76, Fraction(1, 5))
        assert not in_z_alpha(ctx76, Fraction(1, 14))

    def test_char_exponent_integer_on_lattice(self, ctx32):
        rng = random.Random(6)
        for _ in range(300):
            xi = Fraction(rng.randint(-400, 400), 2 ** rng.randint(0, 6))
            assert char_exponent(ctx32, xi).denominator == 1

    def test_character_is_a_group_hom(self, ctx32):
        rng = random.Random(7)
        for _ in range(100):
            x = random_rational(rng, 50, DENS)
            y = random_rational(rng, 50, DENS)
            lhs = character(ctx32, x + y)
            rhs = character(ctx32, x) * character(ctx32, y)
            assert abs(lhs - rhs) < 1e-9

    def test_unit_modulus(self, ctx32):
        rng = random.Random(8)
        for _ in range(100):
            z = random_rational(rng, 50, DENS)
            assert abs(abs(character(ctx32, z)) - 1) < 1e-12


class TestReduction:
    def test_frozen_diagonal(self, ctx32):
        y, pt = reduce_mod_lattice(ctx32, Fraction(27, 10))
        assert y == Fraction(5, 2)
        assert pt.real == Fraction(1, 5)
        assert pt.padic[2] == Fraction(1, 5)

        y, pt = reduce_mod_lattice(ctx32, Fraction(1, 2))
        assert y == Fraction(1, 2)
        assert pt.real == 0 and pt.padic[2] == 0

    def test_frozen_nondiagonal(self, ctx32):
        z = AdelePoint(real=Fraction(27, 10), padic={2: Fraction(5)})
        y, pt = reduce_mod_lattice(ctx32, z)
        assert y == 2
        assert pt.real == Fraction(7, 10)
        assert pt.padic[2] == 3

    def test_contract(self, ctx32):
        rng = random.Random(9)
        for _ in range(500):
            if rng.random() < 0.5:
                z = AdelePoint.diagonal(ctx32, random_rational(rng, 300, DENS))
            else:
                z = AdelePoint(real=random_rational(rng, 300, DENS),
                               padic={2: random_rational(rng, 300, DENS)})
            y, pt = reduce_mod_lattice(ctx32, z)
            assert denominator_in_b(2, y)
            assert 0 <= pt.real < 1
            assert pt.real == z.real - y
            diff = z.padic[2] - y
            assert pt.padic[2] == diff
            assert diff == 0 or vp(2, diff) >= 0

    def test_reduction_is_idempotent(self, ctx32):
        rng = random.Random(10)
        for _ in range(100):
            z = AdelePoint.diagonal(ctx32, random_rational(rng, 100, DENS))
            y, pt = reduce_mod_lattice(ctx32, z)
            y2, pt2 = reduce_mod_lattice(ctx32, pt)
            assert y2 == 0 and pt2 == pt


class TestTiles:
    def test_frozen_corners(self, ctx32):
        assert tile_corners(ctx32, 2, 1) == (Fraction(4, 3),)
        assert set(tile_corners(ctx32, 1, 2)) == {
            Fraction(2, 3), Fraction(10, 9), Fraction(14, 9)}

    @pytest.mark.parametrize("ctxname", ["ctx32", "ctx53", "ctx76"])
    def test_corners_match_reference(self, ctxname, request):
        ctx = request.getfixturevalue(ctxname)
        for d in range(ctx.base.a):
            for r in (1, 2, 3):
                got = tile_corners(ctx, d, r)
                assert len(got) == len(set(got)) == ctx.base.a ** (r - 1)
                assert set(got) == corner_set(ctx, d, r)

    def test_measure(self, ctx32):
        for d in range(3):
            for r in (1, 2, 4):
                assert Fraction(len(tile_corners(ctx32, d, r)), 3**r) == Fraction(1, 3)

    def test_corner_of_residues_inverts_peeling(self, ctx32):
        for d in range(3):
            for r in (1, 3):
                for c in tile_corners(ctx32, d, r):
                    loc = locate_box(ctx32, c, r)
                    assert loc.translate == 0
                    assert loc.corner == c
                    assert loc.digit == d
                    assert corner_of_residues(ctx32, loc.residues) == c

    @pytest.mark.parametrize("base,rmax", [
        (Base(3, 2), 8), (Base(5, 2), 6), (Base(5, 3), 6), (Base(7, 4), 4),
        (Base(10, 1), 4), (Base(7, 6), 4),
    ], ids=lambda v: str(v))
    def test_residue_system(self, base, rmax):
        ctx = AdeleContext(base)
        for r in range(0, rmax + 1):
            assert verify_residue_system(ctx, r)

    def test_residue_budget_guard(self, ctx32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "100")
        with pytest.raises(ScaleExceeded):
            verify_residue_system(ctx32, 8)

    @pytest.mark.parametrize("call", [
        lambda ctx: tile_corners(ctx, 0, 10**7),
        lambda ctx: verify_residue_system(ctx, 10**7),
        lambda ctx: boundary_tubes(ctx, 10**7, 10**7 + 1),
        lambda ctx: boundary_tubes(ctx, 3, 10**7),
        lambda ctx: render_tiles(ctx, 10**7, [0]),
    ], ids=["tile_corners", "residue_system", "tubes_level", "tubes_resolution", "render"])
    def test_huge_levels_are_refused_before_the_power(self, ctx32, call):
        # 3^(10^7) takes seconds to compute and cannot be printed
        with pytest.raises(ScaleExceeded, match=r"^enumeration of at least 3\^\d+ objects"):
            call(ctx32)


class TestLocateAndMembership:
    def test_membership_point_values(self, ctx32):
        assert membership_point(ctx32, 1, 0) == Fraction(4, 3)
        assert membership_point(ctx32, 4, 1) == Fraction(32, 9)
        with pytest.raises(ValueError):
            membership_point(ctx32, 0, 0)

    def test_locate_reads_the_arithmetic_digit(self, ctx32):
        # at level r >= k+1 the membership point is exactly a grid corner,
        # so the half-open box read recovers eps_k; below that the digit
        # tail can overflow the box width and the read may land one box over
        for n in range(1, 301):
            for k in range(length(ctx32.base, n)):
                q = membership_point(ctx32, n, k)
                for r in (1, 2, 4):
                    if r >= k + 1:
                        assert locate_box(ctx32, q, r).digit == digit(ctx32.base, n, k)

    def test_locate_can_misread_below_the_digit_level(self, ctx32):
        # n=4 has word 212; the k=1 point 32/9 spills past the level-1 box
        # of its truncation corner 2/3 (tail 8/9 > width 2/3)
        assert digit(ctx32.base, 4, 1) == 1
        loc = locate_box(ctx32, membership_point(ctx32, 4, 1), 1)
        assert loc.digit == 2

    def test_locate_contract(self, ctx32):
        rng = random.Random(11)
        h2 = Fraction(4, 9)
        for _ in range(200):
            z = random_rational(rng, 500, DENS)
            loc = locate_box(ctx32, z, 2)
            assert loc.level == 2
            assert loc.canonical_corner == loc.corner - loc.translate
            assert loc.canonical_corner in corner_set(ctx32, loc.digit, 2)
            off = z - loc.corner
            assert 0 <= off < h2
            assert denominator_in_b(2, loc.translate)
            assert off == 0 or vp(2, off) >= 2

    def test_cover_census(self, ctx32):
        rng = random.Random(12)
        generic = 0
        for _ in range(2000):
            if rng.random() < 0.7:
                den = rng.choice([5, 7, 11, 13])
                num = rng.randint(-2000, 2000)
                if num % den == 0:
                    num += 1
                generic += 1
                count, flagged = cover_census(ctx32, Fraction(num, den), 4)
                assert count == 1 and not flagged
            else:
                z = random_rational(rng, 2000, DENS)
                count, flagged = cover_census(ctx32, z, 4)
                assert count == 1 or flagged
        assert generic > 1000


class TestBoxLocationType:
    """BoxLocation: named fields of an immutable 4-tuple that equals only
    another BoxLocation."""

    def test_fields_and_construction(self, ctx32):
        loc = locate_box(ctx32, Fraction(7, 3), 2)
        level, corner, residues, translate = loc
        assert (loc.level, loc.corner, loc.residues, loc.translate) == (
            level, corner, residues, translate) == (2, Fraction(7, 3), (2, 0), 1)
        assert BoxLocation(level=2, corner=corner, residues=residues,
                           translate=translate) == loc == BoxLocation(*loc)

    def test_fields_cannot_be_assigned(self, ctx32):
        loc = locate_box(ctx32, Fraction(7, 3), 2)
        for name in ("level", "corner", "residues", "translate", "digit", "other"):
            with pytest.raises(AttributeError):
                setattr(loc, name, 0)

    def test_equal_only_its_own_type(self, ctx32):
        loc = locate_box(ctx32, Fraction(7, 3), 2)
        assert loc != tuple(loc) and tuple(loc) != loc
        assert not loc == tuple(loc)
        twin = BoxLocation(*loc)
        assert loc == twin and not loc != twin
        assert hash(loc) == hash(twin)
        assert len({loc, twin, tuple(loc)}) == 2
        assert BoxLocation(1, 2, 3, 4) != FourierCoefficient(1, 2, 3) + (4,)

    def test_frozen_repr(self, ctx32, ctx76):
        # the bytes the dataclass printed
        assert repr(locate_box(ctx32, Fraction(-101, 12), 5)) == (
            "BoxLocation(level=5, corner=Fraction(-101, 12), residues=(2, 0, 0, 0, 0), "
            "translate=Fraction(-39, 4))")
        z = AdelePoint(Fraction(-5, 9), {2: Fraction(3, 4), 3: Fraction(1, 7)})
        assert repr(locate_box(ctx76, z, 3)) == (
            "BoxLocation(level=3, corner=Fraction(-1019, 1372), residues=(6, 1, 1), "
            "translate=Fraction(-29, 4))")

    def test_digit_and_canonical_corner(self, ctx32, ctx76):
        for ctx, z, r in ((ctx32, Fraction(-101, 12), 5), (ctx76, Fraction(41, 18), 4)):
            loc = locate_box(ctx, z, r)
            assert loc.digit == loc.residues[0]
            assert loc.canonical_corner == loc.corner - loc.translate == corner_of_residues(
                ctx, loc.residues)

    def test_dataclass_interface(self, ctx32):
        loc = locate_box(ctx32, Fraction(7, 3), 2)
        assert dataclasses.is_dataclass(loc)
        assert [(f.name, f.default, f.default_factory) for f in dataclasses.fields(loc)] == [
            (name, dataclasses.MISSING, dataclasses.MISSING) for name in loc._fields]
        assert dataclasses.asdict(loc) == loc._asdict()
        moved = dataclasses.replace(loc, corner=loc.corner + 1, translate=loc.translate + 1)
        assert type(moved) is BoxLocation and moved == (
            BoxLocation(2, Fraction(10, 3), (2, 0), Fraction(2)))


class TestClassification:
    def test_matches_arithmetic_at_sufficient_level(self, ctx32):
        # uncertified reads are exact once the level covers the position
        for n in range(1, 201):
            for k in range(length(ctx32.base, n)):
                for r in (1, 3):
                    if r >= k + 1:
                        assert classify_digit(ctx32, n, k, r) == digit(ctx32.base, n, k)
        # below the position the read can differ; the tube is what flags it
        assert classify_digit(ctx32, 4, 1, 1) == 2 != digit(ctx32.base, 4, 1)

    def test_tube_blocks_the_all_zero_tail_point(self, ctx32):
        # 4/3 lies in the closure of two tiles, so every level keeps it flagged
        for r in (2, 3, 4):
            tubes = boundary_tubes(ctx32, r, r + 3)
            with pytest.raises(BoundaryAmbiguous):
                classify_digit(ctx32, 1, 0, r, tubes)

    def test_a_wrong_read_in_its_own_digits_tube_is_ambiguous(self, ctx32):
        # eps_2(7) = 1, but the level-2 box of its point carries digit 0;
        # that box lies in the digit-0 tube, so the read is refused
        assert classify_digit(ctx32, 7, 2, 2) == 0 != digit(ctx32.base, 7, 2)
        with pytest.raises(BoundaryAmbiguous):
            classify_digit(ctx32, 7, 2, 2, boundary_tubes(ctx32, 2, 5))

    def test_tubes_of_another_level_are_refused(self, ctx32):
        with pytest.raises(ValueError, match="level-3 tubes for a level-2 read"):
            classify_digit(ctx32, 7, 2, 2, boundary_tubes(ctx32, 3, 4))

    def test_resolved_reads_are_sound(self, ctx32):
        tubes = boundary_tubes(ctx32, 5, 8)
        resolved = ambiguous = 0
        for n in range(1, 201):
            for k in range(length(ctx32.base, n)):
                try:
                    d = classify_digit(ctx32, n, k, 5, tubes)
                except BoundaryAmbiguous:
                    ambiguous += 1
                    continue
                resolved += 1
                assert d == digit(ctx32.base, n, k)
        assert resolved >= 700
        assert resolved + ambiguous == sum(
            length(ctx32.base, n) for n in range(1, 201))


class TestBoundaryTubes:
    def test_frozen_sizes(self, ctx32):
        per_digit, union = [], []
        for r in range(1, 7):
            tubes = boundary_tubes(ctx32, r, r + 3)
            sizes = {len(tubes[d].members) for d in range(3)}
            assert len(sizes) == 1
            per_digit.append(sizes.pop())
            union.append(len(set().union(*(tubes[d].members for d in range(3)))))
        assert per_digit == [3, 8, 18, 38, 78, 158]
        assert union == [3, 9, 24, 54, 114, 234]

    def test_members_shrink_with_resolution(self, ctx32):
        prev = None
        for resolution in (3, 4, 5, 6):
            members = boundary_tubes(ctx32, 2, resolution)[2].members
            if prev is not None:
                assert members <= prev
            prev = members

    def test_level_one_tube_stabilizes(self, ctx32):
        t8 = boundary_tubes(ctx32, 1, 8)
        t9 = boundary_tubes(ctx32, 1, 9)
        for d in range(3):
            assert t8[d].members == t9[d].members == frozenset(
                tile_corners(ctx32, dd, 1)[0] for dd in range(3))

    def test_certified_boxes_read_correctly(self, ctx32):
        # outside the tube the geometric digit equals the arithmetic one
        tubes = boundary_tubes(ctx32, 5, 8)
        checked = 0
        for n in range(1, 501):
            for k in (0, 1, 2, 3):
                loc = locate_box(ctx32, membership_point(ctx32, n, k), 5)
                if loc.canonical_corner not in tubes[loc.digit].members:
                    checked += 1
                    assert loc.digit == digit(ctx32.base, n, k)
        assert checked > 100

    def test_count_boundary_hits(self, ctx32):
        tube = boundary_tubes(ctx32, 2, 5)[2]
        manual = 0
        for n in range(1, 101):
            loc = locate_box(ctx32, membership_point(ctx32, n, 0), 2)
            if loc.canonical_corner in tube.members:
                manual += 1
        assert count_boundary_hits(ctx32, 0, 2, 100, tube) == manual

    def test_count_boundary_hits_is_charged_its_points(self, ctx32, monkeypatch):
        tube = boundary_tubes(ctx32, 2, 5)[2]
        monkeypatch.setenv("RATBASE_MAX_ENUM", "10")
        with pytest.raises(ScaleExceeded):
            count_boundary_hits(ctx32, 0, 2, 5000, tube)
        assert count_boundary_hits(ctx32, 0, 2, 10, tube) <= 10

    def test_tube_charge_is_what_boundary_tubes_is_charged(self, ctx32, monkeypatch):
        charge = _tube_charge(ctx32, 2, 5)
        assert charge == 9 * ((3 + 8 + 2) + (9 + 16 + 2) + (27 + 32 + 2))
        monkeypatch.setenv("RATBASE_MAX_ENUM", str(charge))
        assert len(boundary_tubes(ctx32, 2, 5)) == 3
        monkeypatch.setenv("RATBASE_MAX_ENUM", str(charge - 1))
        with pytest.raises(ScaleExceeded, match=f"enumeration of {charge} objects"):
            boundary_tubes(ctx32, 2, 5)

    def test_count_boundary_hits_refuses_a_tube_of_another_level(self, ctx32):
        with pytest.raises(ValueError, match="level-3 tubes for a level-2 read"):
            count_boundary_hits(ctx32, 0, 2, 300, boundary_tubes(ctx32, 3, 5)[1])

    def test_classify_digit_needs_a_box_level(self, ctx32):
        # a level-0 box carries no residue to read
        with pytest.raises(ValueError, match="level must be >= 1"):
            classify_digit(ctx32, 17, 1, 0)


class TestFibers:
    def test_alpha_digit_range(self, ctx32):
        rng = random.Random(13)
        for _ in range(100):
            x = Fraction(rng.randint(0, 10**6), rng.choice([1, 3, 5, 9]))
            f = fiber_coordinate(ctx32, x)
            assert 0 <= f < 2
            if x % 2 == 0:
                assert f <= 1

    def test_padic_digit_range(self, ctx32):
        rng = random.Random(14)
        for _ in range(100):
            x = Fraction(rng.randint(0, 10**6), rng.choice([1, 3, 5, 9]))
            f = fiber_coordinate(ctx32, x, scheme="p-adic-digits")
            assert 0 <= f < 1

    def test_rejects_poles(self, ctx32):
        with pytest.raises(NotIntegral):
            fiber_coordinate(ctx32, Fraction(7, 4))

    def test_rejects_unknown_scheme(self, ctx32):
        with pytest.raises(ValueError):
            fiber_coordinate(ctx32, Fraction(1), scheme="decimal")
        with pytest.raises(ValueError):
            fiber_interval(ctx32, Fraction(1), 2, scheme="decimal")
        with pytest.raises(ValueError):
            fiber_coordinate(ctx32, Fraction(1), depth=-1)

    def test_interval_widths(self, ctx32):
        for r in (1, 2, 3):
            c = tile_corners(ctx32, 1, r)[0]
            lo, hi = fiber_interval(ctx32, c, r)
            assert hi - lo == Fraction(1, 2 ** (r - 1))
            lo, hi = fiber_interval(ctx32, c, r, scheme="p-adic-digits")
            assert hi - lo == Fraction(1, 2**r)

    def test_interval_of_int_str_and_fraction_corners(self, ctx32):
        for scheme in ("alpha-digits", "p-adic-digits"):
            for r in (1, 3):
                for n in (0, 7, -5):
                    want = fiber_interval(ctx32, Fraction(n), r, scheme)
                    assert fiber_interval(ctx32, n, r, scheme) == want
                    assert fiber_interval(ctx32, str(n), r, scheme) == want
                want = fiber_interval(ctx32, Fraction(-7, 9), r, scheme)
                assert fiber_interval(ctx32, "-7/9", r, scheme) == want
                assert want == fiber_interval_ref(ctx32, Fraction(-7, 9), r, scheme)

    def test_ball_images_tile_the_fiber_axis(self, ctx32):
        # every level-r corner is b times an a-power fraction, so the first
        # 2-adic digit is 0 and the corner balls tile exactly [0, 1/2)
        r = 3
        buckets: dict[tuple[Fraction, Fraction], list[Fraction]] = {}
        for d in range(3):
            for c in tile_corners(ctx32, d, r):
                iv = fiber_interval(ctx32, c, r, scheme="p-adic-digits")
                buckets.setdefault(iv, []).append(c)
        ivals = sorted(buckets)
        assert len(ivals) == 2 ** (r - 1)
        assert ivals[0][0] == 0 and ivals[-1][1] == Fraction(1, 2)
        for (lo, hi), (lo2, _) in zip(ivals, ivals[1:]):
            assert hi - lo == Fraction(1, 2**r)
            assert lo2 == hi
        assert sum(len(cs) for cs in buckets.values()) == 3**r
        for cs in buckets.values():
            for c1 in cs:
                for c2 in cs:
                    assert c1 == c2 or vp(2, c1 - c2) >= r
        reps = [cs[0] for cs in buckets.values()]
        for i, c1 in enumerate(reps):
            for c2 in reps[i + 1:]:
                assert vp(2, c1 - c2) < r

    def test_zero_maps_to_zero(self, ctx32):
        assert fiber_coordinate(ctx32, 0) == 0


def _oracle_points(ctx, rng, count):
    """Negative points, poles at p | b, denominators prime to b, and
    non-diagonal adeles."""
    a, b = ctx.base.a, ctx.base.b
    dens = [1, 7, 11 * 13, a, a**5, a**9, b, b**4, a**3 * b**2, 5 * b**3]
    for i in range(count):
        z = Fraction(rng.randint(-10**6, 10**6), rng.choice(dens))
        if i % 4 == 3 and ctx.primes:
            z = AdelePoint(real=z, padic={
                p: Fraction(rng.randint(-10**4, 10**4), rng.choice([1, 7, p, p**3, 5 * p**2]))
                for p, _ in ctx.primes})
        yield z


@pytest.mark.parametrize("base", ORACLE_BASES, ids=str)
class TestIntegerGeometryOracles:
    """The integer geometry against the Fraction references in helpers, by repr."""

    def test_locate_box(self, base):
        ctx = AdeleContext(base)
        rng = random.Random(f"locate {base}")
        for i, z in enumerate(_oracle_points(ctx, rng, 600)):
            r = i % 9
            assert repr(locate_box(ctx, z, r)) == repr(locate_box_ref(ctx, z, r))

    def test_locate_box_on_faces(self, base):
        # level-r corners shifted by the lattice lie on a shared face
        ctx = AdeleContext(base)
        a, b = base.a, base.b
        rng = random.Random(f"faces {base}")
        for i in range(200):
            r = 1 + i % 8
            e_vec = [rng.randrange(a) for _ in range(r)]
            z = corner_of_residues(ctx, e_vec) + Fraction(rng.randint(-50, 50),
                                                          b ** rng.randint(0, 3))
            assert cover_census(ctx, z, r) == cover_census_ref(ctx, z, r) == (2, True)
            loc = locate_box(ctx, z, r)
            assert loc.corner == z and list(loc.residues) == e_vec
            assert repr(loc) == repr(locate_box_ref(ctx, z, r))

    def test_cover_census(self, base):
        ctx = AdeleContext(base)
        rng = random.Random(f"census {base}")
        for z in _oracle_points(ctx, rng, 300):
            for r in range(9):
                assert cover_census(ctx, z, r) == cover_census_ref(ctx, z, r)

    def test_input_types_agree(self, base):
        # an int, a Fraction, a numeric string and the diagonal AdelePoint
        # of one value are the same point
        ctx = AdeleContext(base)
        rng = random.Random(f"types {base}")
        for i in range(120):
            q = Fraction(rng.randint(-10**5, 10**5), rng.choice([1, 1, 7, base.a**2, base.b**3]))
            forms = [q, str(q), AdelePoint.diagonal(ctx, q)]
            if q.denominator == 1:
                forms.append(q.numerator)
            r = i % 9
            want = repr(locate_box_ref(ctx, q, r)), cover_census_ref(ctx, q, r)
            for z in forms:
                assert (repr(locate_box(ctx, z, r)), cover_census(ctx, z, r)) == want

    def test_reduce_mod_lattice(self, base):
        ctx = AdeleContext(base)
        rng = random.Random(f"reduce {base}")
        dens = [1, 7, 11 * 13, base.a, base.b, base.b**4, 5 * base.b**3]
        for z in _oracle_points(ctx, rng, 300):
            assert repr(reduce_mod_lattice(ctx, z)) == repr(reduce_mod_lattice_ref(ctx, z))
            z = AdelePoint(real=random_rational(rng, 10**6, dens), padic={
                p: random_rational(rng, 10**4, [1, 7, p, p**3, 5 * p**2, base.a])
                for p, _ in ctx.primes})
            assert repr(reduce_mod_lattice(ctx, z)) == repr(reduce_mod_lattice_ref(ctx, z))

    def test_fiber_interval(self, base):
        ctx = AdeleContext(base)
        rng = random.Random(f"fiber {base}")
        for i, z in enumerate(_oracle_points(ctx, rng, 400)):
            x = z.real if isinstance(z, AdelePoint) else z
            r = i % 9
            for scheme in ("alpha-digits", "p-adic-digits"):
                assert repr(fiber_interval(ctx, x, r, scheme)) == repr(
                    fiber_interval_ref(ctx, x, r, scheme))

    def test_fiber_poles_one_prime_at_a_time(self, base):
        # a pole at only one p | b sets the rescaling K from that prime
        # alone; canonical box corners have no pole, and K = 0
        ctx = AdeleContext(base)
        rng = random.Random(f"fiber poles {base}")
        dens = [p**j * rest for p, _ in ctx.primes for j in (1, 2, 3, 7)
                for rest in (1, 7, base.a**2)] or [1, 7]
        for i in range(300):
            r = i % 9
            x = Fraction(rng.randint(-10**6, 10**6), rng.choice(dens))
            loc = locate_box(ctx, x, r)
            c = loc.canonical_corner
            for scheme in ("alpha-digits", "p-adic-digits"):
                for y in (x, loc.corner, c):
                    assert repr(fiber_interval(ctx, y, r, scheme)) == repr(
                        fiber_interval_ref(ctx, y, r, scheme))
                depth = rng.randint(0, 20)
                assert fiber_coordinate(ctx, c, depth, scheme) == fiber_value_ref(
                    ctx, c, depth, scheme)

    def test_tile_corners(self, base):
        ctx = AdeleContext(base)
        for d in range(base.a):
            for r in range(1, 5 if base.a < 7 else 4):
                assert repr(tile_corners(ctx, d, r)) == repr(tile_corners_ref(ctx, d, r))

    def test_boundary_tubes(self, base):
        ctx = AdeleContext(base)
        for r, resolution in ((1, 2), (1, 4), (2, 3), (3, 4), (4, 6)):
            if base.a ** resolution * base.b ** (resolution - r) > 5000:
                continue  # the Fraction reference is slow there
            assert repr(boundary_tubes(ctx, r, resolution)) == repr(
                boundary_tubes_ref(ctx, r, resolution))


def test_non_rational_coordinates_are_type_errors(ctx32):
    with pytest.raises(TypeError, match="coordinate at p = 2 is not rational: 0.5"):
        cover_census(ctx32, AdelePoint(Fraction(1, 3), {2: 0.5}), 2)
    with pytest.raises(TypeError, match="real coordinate is not rational"):
        locate_box(ctx32, AdelePoint(0.25, {2: Fraction(1, 3)}), 2)
    with pytest.raises(TypeError, match="coordinate at p = 2"):
        reduce_mod_lattice(ctx32, AdelePoint(Fraction(1, 3), {2: "1/2"}))
    # the characters read points as point location does
    for call in (char_exponent, character):
        with pytest.raises(TypeError, match="real coordinate is not rational"):
            call(ctx32, AdelePoint(0.25, {2: Fraction(1, 3)}))
        with pytest.raises(TypeError, match="coordinate at p = 2 is not rational"):
            call(ctx32, AdelePoint(Fraction(1, 3), {2: 0.5}))


class TestBudgetCap:
    def test_exact_forms(self, monkeypatch):
        for raw, cap in [("1e8", 10**8), ("2.5E3", 2500), ("0", 0), (" 12 ", 12),
                         ("", 10**7)]:
            monkeypatch.setenv("RATBASE_MAX_ENUM", raw)
            assert max_enum() == cap, raw
        monkeypatch.delenv("RATBASE_MAX_ENUM")
        assert max_enum() == 10**7

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", "1e-3", "inf"])
    def test_bad_values_name_the_variable(self, raw, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", raw)
        with pytest.raises(ValueError, match="^RATBASE_MAX_ENUM: "):
            max_enum()


class TestFrozenDownstreamValues:
    """Digit reads, tube hits and a pattern estimate, as computed before
    point location moved onto one integer core."""

    @staticmethod
    def _cases(ctx):
        rng = random.Random(f"frozen reads {ctx.base}")
        return [(rng.randrange(1, 10**5), rng.randrange(5), rng.choice((3, 4, 5)))
                for _ in range(60)]

    def test_classify_digit(self, ctx32):
        reads = {
            Base(3, 2): "020102122211212102111110222022012021001022202011110020200102",
            Base(7, 6): "311156063661203050143154020024056211055152511510353526453633",
        }
        for base, want in reads.items():
            ctx = AdeleContext(base)
            assert "".join(str(classify_digit(ctx, n, k, r))
                           for n, k, r in self._cases(ctx)) == want
        tubes = {r: boundary_tubes(ctx32, r, r + 3) for r in (3, 4, 5)}

        def certified(n, k, r):
            try:
                return str(classify_digit(ctx32, n, k, r, tubes[r]))
            except BoundaryAmbiguous:
                return "?"

        assert "".join(certified(*c) for c in self._cases(ctx32)) == (
            "??0?0?122???????0?????????????????????????2?????11?0??2?????")

    def test_count_boundary_hits(self, ctx32):
        tubes = boundary_tubes(ctx32, 3, 5)
        assert [count_boundary_hits(ctx32, 2, 3, 3000, tubes[d]) for d in range(3)] == [
            2000, 1999, 1999]

    def test_urysohn_pattern_estimate(self, ctx32):
        got = urysohn_pattern_estimate(ctx32, (2, 1), 2, 3, 300)
        assert type(got) is Fraction and got == Fraction(101, 3)


# every entry point that takes a box level, called at level -1
NEGATIVE_LEVEL_CALLS = {
    "locate_box": lambda ctx: locate_box(ctx, Fraction(1, 3), -1),
    "cover_census": lambda ctx: cover_census(ctx, Fraction(1, 3), -1),
    "verify_residue_system": lambda ctx: verify_residue_system(ctx, -1),
    "boundary_tubes": lambda ctx: boundary_tubes(ctx, -1, 1),
    "fiber_interval": lambda ctx: fiber_interval(ctx, Fraction(0), -1),
    "fiber_interval_p_adic": lambda ctx: fiber_interval(ctx, Fraction(0), -1,
                                                        "p-adic-digits"),
    "coefficient_table": lambda ctx: coefficient_table(ctx, [0], -1, 3),
}


@pytest.mark.parametrize("call", NEGATIVE_LEVEL_CALLS.values(), ids=NEGATIVE_LEVEL_CALLS)
def test_negative_level_is_a_value_error(call, ctx32, monkeypatch):
    # a zero cap shows that the level is checked before any budget charge
    monkeypatch.setenv("RATBASE_MAX_ENUM", "0")
    with pytest.raises(ValueError, match="level"):
        call(ctx32)


# every entry point that takes a count of points or rows, called at -1 or -5
NEGATIVE_COUNT_CALLS = {
    "urysohn_pattern_estimate": lambda ctx: urysohn_pattern_estimate(ctx, (1,), 0, 1, -1),
    "coefficient_table": lambda ctx: coefficient_table(ctx, [0], 1, -1),
    "count_boundary_hits": lambda ctx: count_boundary_hits(
        ctx, 0, 2, -5, BoundaryTube(0, 2, 3, frozenset({Fraction(0)}))),
}


@pytest.mark.parametrize("call", NEGATIVE_COUNT_CALLS.values(), ids=NEGATIVE_COUNT_CALLS)
def test_negative_count_is_a_value_error(call, ctx32, monkeypatch):
    # a zero cap shows that the count is checked before any budget charge
    monkeypatch.setenv("RATBASE_MAX_ENUM", "0")
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(ctx32)


def test_zero_counts_are_valid(ctx32):
    tube = boundary_tubes(ctx32, 2, 3)[0]
    assert urysohn_pattern_estimate(ctx32, (1,), 0, 1, 0) == 0
    assert coefficient_table(ctx32, [0], 1, 0).count("\n") == 2
    assert count_boundary_hits(ctx32, 0, 2, 0, tube) == 0


def test_level_zero_is_valid(ctx32):
    tubes = boundary_tubes(ctx32, 0, 1)
    assert all(tubes[d].members == {0} for d in range(3))
    loc = locate_box(ctx32, Fraction(7, 3), 0)
    assert (loc.corner, loc.residues) == (2, ())
    assert cover_census(ctx32, Fraction(7, 3), 0) == (1, False)
    assert verify_residue_system(ctx32, 0)
    # the level-0 ball c + Z_2 holds the level-1 balls of its points
    assert fiber_interval(ctx32, Fraction(1, 2), 0) == (2, 4)
    assert fiber_interval(ctx32, Fraction(1, 2), 1) == (3, 4)
    assert fiber_interval(ctx32, Fraction(1, 2), 0, "p-adic-digits") == (1, 2)


# argument checks that no other test reaches
BAD_ARGUMENT_CALLS = {
    "tile_corners_digit": (lambda ctx: tile_corners(ctx, 3, 2), "outside alphabet"),
    "tile_corners_level": (lambda ctx: tile_corners(ctx, 0, 0), "level must be >= 1"),
    "boundary_tubes_resolution": (lambda ctx: boundary_tubes(ctx, 3, 3),
                                  "resolution must exceed"),
    "point_missing_a_prime": (lambda ctx: locate_box(ctx, AdelePoint(Fraction(1), {}), 2),
                              "missing component at p = 2"),
    "character_point_missing_a_prime": (
        lambda ctx: char_exponent(ctx, AdelePoint(Fraction(1), {})),
        "missing component at p = 2"),
}


@pytest.mark.parametrize("call,message", BAD_ARGUMENT_CALLS.values(), ids=BAD_ARGUMENT_CALLS)
def test_bad_arguments_are_value_errors(call, message, ctx32):
    with pytest.raises(ValueError, match=message):
        call(ctx32)
