"""Adelic geometry underlying rational-base digit expansions.

For base alpha = a/b the relevant completions of Q are the real line and Q_p
for each prime p dividing b.  Points live in K = R x prod_{p|b} Q_p; a
rational q embeds diagonally as Phi(q) = (q, q, ...).  The ring Z[alpha] =
Z[1/b] sits in K as a cocompact lattice, with fundamental domain
D_0 = [0,1] x prod Z_p of measure 1 (each Z_p has measure 1).

Everything here is exact.  Fraction is only the input and output type: the
p-adic fractional part lambda_p is computed with a modular inverse, and the
box geometry runs on integers.  The level-r corner with residues e_1..e_r
is X / a^r, X = b H(e_1..e_r) = sum_k e_k b^k a^(r-k) (H from numeration),
and its class mod Z[1/b] is X b^(-r) mod a^r, from which the residues peel
off again (see _peel).  Point location (lattice reduction is its level 0),
tile corners, boundary tubes and fiber intervals work on such numerators
over a^r and b-powers and build one Fraction per returned value.  One
integer core, _box, locates every point from what _coordinates reads (a
scalar's numerator and denominator directly, an AdelePoint's coordinates
place by place) as a scaled corner y / q, and serves locate_box, the
cross-multiplied containment check of cover_census, the digit reads and
the smoothed tile values in fourier; the class u = y q^(-1) mod a^r is
taken only where residues are peeled off it.  The character reads its
points through _coordinates too.  Every entry point that takes
a level checks it, and takes a^r and b^r, in _level.

Level-r boxes are translates of D_r = alpha^(-r) D_0: a box with corner c in
alpha^(-r) Z[1/b] is the product of the real interval [c, c + alpha^(-r)]
and, for each p, the ball c + p^(r v_p(b)) Z_p.  The a^r sums
e_1 alpha^(-1) + ... + e_r alpha^(-r) form a complete residue system of
alpha^(-r) Z[1/b] modulo Z[1/b], so each box has a canonical corner and a
well-defined digit e_1; the union of the boxes with first residue d is the
level-r approximation of the self-affine tile attached to digit d.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .numeration import Base, _check_digits, _horner

DEFAULT_MAX_ENUM = 10**7
_COUNT_BOUND = 10**4300  # a count has at most 4300 digits, int()'s default limit


class ScaleExceeded(RuntimeError):
    """Requested enumeration exceeds the RATBASE_MAX_ENUM budget."""


class BoundaryAmbiguous(RuntimeError):
    """A reduced point fell into a boundary-tube box; retry at higher level."""


class NotIntegral(ValueError):
    """Input has a negative valuation at some p | b where integrality is required."""


def _parse_count(text: str) -> int:
    """Nonnegative integer, also accepted exactly in scientific notation (1e23)."""
    try:
        n = int(text)
        if abs(n) >= _COUNT_BOUND:  # where int()'s limit is lifted, as the CLI does
            raise ValueError
    except ValueError:
        from decimal import Decimal, InvalidOperation
        try:
            v = Decimal(text)
        except InvalidOperation:
            raise ValueError(f"not a count: {text!r}") from None
        # int() refuses decimal strings over 4300 digits; so does this, before
        # a huge exponent can stall the conversion
        if not v.is_finite() or v.adjusted() >= 4300 or v != v.to_integral_value():
            raise ValueError(f"not an integer count: {text!r}")
        n = int(v)
    if n < 0:
        raise ValueError("count must be nonnegative")
    return n


def max_enum() -> int:
    """The budget cap: RATBASE_MAX_ENUM, read as a count, or 10^7."""
    raw = os.environ.get("RATBASE_MAX_ENUM")
    try:
        return _parse_count(raw) if raw else DEFAULT_MAX_ENUM
    except ValueError as exc:
        raise ValueError(f"RATBASE_MAX_ENUM: {exc}") from None


def _check_budget(work: int) -> None:
    cap = max_enum()
    if work > cap:
        # str() refuses integers of over 4300 digits: name a huge charge by
        # a power of ten below it
        amount = (work if work.bit_length() <= 256 else
                  f"more than 10^{(work.bit_length() - 1) * 30102999 // 10**8}")
        raise ScaleExceeded(f"enumeration of {amount} objects exceeds cap {cap}")


@dataclass(frozen=True)
class AdeleContext:
    """A base together with its finite places (p, v_p(b)) for p | b."""

    base: Base
    primes: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", self.base.primes_of_b())

    def alpha_pow(self, k: int) -> Fraction:
        return Fraction(self.base.a, self.base.b) ** k


# Every entry point accepts a level r only while a^r < 2^_LEVEL_BITS.  Below
# it every float the Fourier layer derives from a^r stays finite: a^r/(4m^2)
# in its closed form and 2 a^(2r-1) in series_tail_bound.  The largest level
# is 322 at a = 3 and 153 at a = 10.
_LEVEL_BITS = 511


def _level(ctx: AdeleContext, r: int, least: int = 0,
           charged: int | None = None) -> tuple[int, int]:
    """(a^r, b^r) for a level r that an entry point accepts, checked before
    any power is taken.

    r < least is a ValueError.  An entry point charged at least a^charged
    objects is refused next, while charged exceeds the cap's bit length
    (a >= 2, so a^charged > cap).  Last, a^r >= 2^_LEVEL_BITS is refused,
    for r >= _LEVEL_BITS without computing a^r.
    """
    if r < least:
        raise ValueError(f"level must be >= {least}")
    base = ctx.base
    if charged is not None and charged > max_enum().bit_length():
        raise ScaleExceeded(
            f"enumeration of at least {base.a}^{charged} objects exceeds cap {max_enum()}")
    if r < _LEVEL_BITS:
        ar = base.a**r
        if ar.bit_length() <= _LEVEL_BITS:
            return ar, base.b**r
    raise ScaleExceeded(f"level {r} is too large: {base.a}^{r} >= 2^{_LEVEL_BITS}")


@dataclass(frozen=True, eq=True)
class AdelePoint:
    """A point of R x prod Q_p with rational coordinates.

    padic maps each prime p | b to a rational viewed as an element of Q_p.
    Diagonal points repeat the same rational at every place.
    """

    real: Fraction
    padic: Mapping[int, Fraction]

    @classmethod
    def diagonal(cls, ctx: AdeleContext, q) -> "AdelePoint":
        q = Fraction(q)
        return cls(real=q, padic={p: q for p, _ in ctx.primes})


def _vp(p: int, x: Fraction) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def frac_p(p: int, x) -> Fraction:
    """p-adic fractional part: the unique t in [0,1) with denominator a power
    of p such that x - t is p-integral.  Zero iff v_p(x) >= 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    den = x.denominator
    m = 0
    while den % p == 0:
        den //= p
        m += 1
    if m == 0:
        return Fraction(0)
    pm = p**m
    t = (x.numerator * pow(den, -1, pm)) % pm
    return Fraction(t, pm)


def char_exponent(ctx: AdeleContext, z) -> Fraction:
    """Exact exponent sum_p lambda_p(z_p) - z_oo of the adele character."""
    x, xs = _coordinates(ctx, z)
    return sum((frac_p(p, x_p) for (p, _), x_p in zip(ctx.primes, xs)), Fraction(0)) - x


def character(ctx: AdeleContext, z) -> complex:
    """chi(z) = e(sum_p lambda_p(z_p) - z_oo) on the unit circle."""
    t = char_exponent(ctx, z)
    t -= math.floor(t)
    return complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))


def char_tilde(ctx: AdeleContext, xi) -> complex:
    """chi on the diagonal: trivial exactly on Z[alpha] = Z[1/b]."""
    return character(ctx, xi)


def _split_b(ctx: AdeleContext, n: int) -> tuple[int, int]:
    """(B, n / B) for B the largest divisor of n made of primes of b."""
    n_b = 1
    for p, _ in ctx.primes:
        while n % p == 0:
            n //= p
            n_b *= p
    return n_b, n


def in_z_alpha(ctx: AdeleContext, xi) -> bool:
    """Membership in Z[alpha]: the reduced denominator involves only p | b."""
    return _split_b(ctx, Fraction(xi).denominator)[1] == 1


def reduce_mod_lattice(ctx: AdeleContext, z) -> tuple[Fraction, AdelePoint]:
    """Translate z by y in Z[alpha] into D_0 = [0,1) x prod Z_p.

    y is the corner of the level-0 box holding z: the one y in Z[1/b] with
    z_oo - y in [0,1) and z_p - y p-integral for each p | b.
    """
    x, xs = coords = _coordinates(ctx, z)
    y = Fraction(*_box(ctx, coords, 0, 1, 1))
    res = AdelePoint(
        real=x - y,
        padic={p: xp - y for (p, _), xp in zip(ctx.primes, xs)},
    )
    return y, res


# ---------------------------------------------------------------------------
# level-r boxes and their canonical residues


def _peel(a: int, b: int, u: int, r: int, br: int) -> tuple[tuple[int, ...], int]:
    """Residues (e_1, ..., e_r) of the level-r class u mod a^r, and the
    numerator c = b H(e_1..e_r) = sum_k e_k b^k a^(r-k) of their corner
    c / a^r; br = b^r.

    u = sum_k e_k a^(r-k) b^(k-r) mod a^r, so e_r = u mod a and
    b * floor(u / a) is the class of e_1 .. e_(r-1) one level down.  Each
    step reads only u mod a, so the reductions mod a^j can be skipped.  The
    weight b^k a^(r-k) of e_k is kept as a running product from b^r down.
    """
    digs = []
    c, w = 0, br
    for _ in range(r):
        e = u % a
        digs.append(e)
        c += e * w
        u = u // a * b
        w = w // b * a
    digs.reverse()
    return tuple(digs), c


def _corner_numerators(a: int, b: int, r: int, d: int) -> list[int]:
    """Numerators X = sum_k e_k b^k a^(r-k) over a^r of the a^(r-1) level-r
    corners with e_1 = d, built level by level.

    At r = 0 the one corner 0 counts as e_1 = 0, as _first_residue reads it.
    """
    if r == 0:
        return [0] if d == 0 else []
    nums = [d * b * a ** (r - 1)]
    for k in range(2, r + 1):
        step = b**k * a ** (r - k)
        nums = [c + s for c in nums for s in range(0, a * step, step)]
    return nums


def corner_of_residues(ctx: AdeleContext, residues: Sequence[int]) -> Fraction:
    """The canonical corner sum_k e_k alpha^(-k) = b H(e_1..e_r) / a^r."""
    residues = tuple(residues)
    return Fraction(ctx.base.b * _horner(ctx.base.a, ctx.base.b, residues),
                    ctx.base.a ** len(residues))


class _Strict(tuple):
    """A tuple equal only to a tuple of its own type, with a hash that agrees."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """The header line, then one line per row; a cell is str() of its value."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([line % row for row in rows])


def _json(value) -> str:
    """value as indented JSON text; json is loaded only by the first record."""
    import json
    return json.dumps(value, indent=2) + "\n"


# a dataclass only in name, so that dataclasses.replace, fields and asdict
# still serve it: the tuple keeps its own constructor, repr and equality
@dataclass(frozen=True, init=False, repr=False, eq=False)
class BoxLocation(_Strict, namedtuple("_Fields", "level corner residues translate")):
    """Result of point location: the level, actual corner, canonical residues
    and translate, an immutable 4-tuple equal only to another BoxLocation."""

    __slots__ = ()
    # field() gives each a MISSING default, not the tuple's getter
    level: int = field()
    corner: Fraction = field()
    residues: tuple[int, ...] = field()
    translate: Fraction = field()

    @property
    def digit(self) -> int:
        return self.residues[0]

    @property
    def canonical_corner(self) -> Fraction:
        return self.corner - self.translate


def _coordinates(ctx: AdeleContext, z) -> tuple:
    """z's real coordinate and its p-adic ones in the order of ctx.primes.

    A scalar is read once, as a rational, and serves every place; an
    AdelePoint's coordinates must be rationals, one for each p | b.
    """
    if not isinstance(z, AdelePoint):
        x = z if isinstance(z, (int, Fraction)) else Fraction(z)
        return x, (x,) * len(ctx.primes)
    padic = z.padic
    for p, _ in ctx.primes:
        if p not in padic:
            raise ValueError(f"point missing component at p = {p}")
        if not isinstance(padic[p], numbers.Rational):
            raise TypeError(f"coordinate at p = {p} is not rational: {padic[p]!r}")
    if not isinstance(z.real, numbers.Rational):
        raise TypeError(f"real coordinate is not rational: {z.real!r}")
    return z.real, tuple(padic[p] for p, _ in ctx.primes)


def _box(ctx: AdeleContext, coords: tuple, r: int, ar: int, br: int) -> tuple[int, int]:
    """(y, q) for the level-r box holding the point read as `coords` by
    _coordinates, under the half-open convention; ar, br = a^r, b^r.

    The box's corner is y b^r / (q a^r), for a b-power q, and u = y q^(-1)
    mod a^r is its class, from which _peel reads the residues.

    With z scaled by alpha^r, the sum of the p-adic fractional parts is
    t / q; the scaled corner is y / q with y = t + q floor(alpha^r z_oo - t / q).
    """
    x, xs = coords
    t, q = 0, 1
    for (p, e), x_p in zip(ctx.primes, xs):
        # lambda_p(alpha^r z_p) = tp / pm, pm the p-part of its denominator
        den, pe = x_p.denominator, p ** (e * r)
        pm = pe
        while den % p == 0:
            den //= p
            pm *= p
        tp = x_p.numerator * ar * pow(den * (br // pe), -1, pm) % pm
        t, q = t * pm + tp * q, q * pm
    yd = x.denominator * br
    return t + (x.numerator * ar * q - t * yd) // (yd * q) * q, q


def locate_box(ctx: AdeleContext, z, r: int) -> BoxLocation:
    """The level-r box containing z under the half-open convention.

    The corner c satisfies z_oo - c in [0, alpha^(-r)) and
    v_p(z_p - c) >= r v_p(b) for each p; points on a shared face belong to
    the box on their right.
    """
    ar, br = _level(ctx, r)
    y, q = _box(ctx, _coordinates(ctx, z), r, ar, br)
    residues, c = _peel(ctx.base.a, ctx.base.b, y * pow(q, -1, ar) % ar, r, br)
    yb = y * br
    return tuple.__new__(BoxLocation, (r, Fraction(yb, q * ar), residues,
                                       Fraction((yb - c * q) // ar, q)))


# ---------------------------------------------------------------------------
# tile approximations


def tile_corners(ctx: AdeleContext, d: int, r: int) -> tuple[Fraction, ...]:
    """Corners d alpha^(-1) + sum_{k=2..r} e_k alpha^(-k), sorted by value.

    Enumerated as their numerators over a^r.
    """
    a, b = ctx.base.a, ctx.base.b
    _check_digits(ctx.base, (d,))
    ar, _ = _level(ctx, r, 1, charged=r - 1)
    _check_budget(ar // a)
    return tuple(Fraction(n, ar) for n in sorted(_corner_numerators(a, b, r, d)))


def verify_residue_system(ctx: AdeleContext, r: int) -> bool:
    """Check that the a^r canonical corners are pairwise non-congruent mod
    Z[alpha].

    Two corners X / a^r and X' / a^r are congruent iff a^r divides X - X'
    (their difference is in Z[1/b]), so the a^r corners, marked one digit
    at a time by X mod a^r, are pairwise non-congruent iff they mark every
    class.
    """
    a, b = ctx.base.a, ctx.base.b
    mod, _ = _level(ctx, r, charged=r)
    _check_budget(mod)
    seen = bytearray(mod)
    for d in range(a):
        for c in _corner_numerators(a, b, r, d):
            seen[c % mod] = 1
    return 0 not in seen


# ---------------------------------------------------------------------------
# membership points and digit classification


def membership_point(ctx: AdeleContext, n: int, k: int) -> Fraction:
    """The rational b*n / alpha^(k+1) whose reduced position encodes eps_k(n)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    ak, bk = _level(ctx, k + 1)  # position k reads the level-(k+1) box
    return Fraction(n * bk * ctx.base.b, ak)


def _membership_box(ctx: AdeleContext, n: int, k: int, r: int,
                    least: int = 0) -> tuple[tuple[int, ...], Fraction]:
    """Residues and canonical corner b H(residues) / a^r of the level-r box
    holding membership_point(ctx, n, k)."""
    x = membership_point(ctx, n, k)
    ar, br = _level(ctx, r, least)
    y, q = _box(ctx, _coordinates(ctx, x), r, ar, br)
    residues, c = _peel(ctx.base.a, ctx.base.b, y * pow(q, -1, ar) % ar, r, br)
    return residues, Fraction(c, ar)


def classify_digit(ctx: AdeleContext, n: int, k: int, r: int,
                   tubes: "Mapping[int, BoundaryTube] | None" = None) -> int:
    """Digit eps_k(n) read off geometrically from the level-r box location.

    With the level-r tubes supplied (the mapping boundary_tubes returns), a
    box inside the tube of its own digit raises BoundaryAmbiguous: the
    level-r read cannot be trusted there and the caller should raise r.
    """
    residues, corner = _membership_box(ctx, n, k, r, 1)
    if tubes is not None:
        tube = tubes[residues[0]]
        if tube.level != r:
            raise ValueError(f"level-{tube.level} tubes for a level-{r} read")
        if corner in tube.members:
            raise BoundaryAmbiguous(
                f"point for (n={n}, k={k}) lies in the level-{r} boundary tube")
    return residues[0]


# ---------------------------------------------------------------------------
# boundary tubes


@dataclass(frozen=True)
class BoundaryTube:
    """Conservative cover of the level-r boxes where geometric digit reading
    may disagree with the true digit, for one digit class."""

    digit: int
    level: int
    resolution: int
    members: frozenset[Fraction]

    def __contains__(self, corner: Fraction) -> bool:
        return corner in self.members


def _tail_overhang(a: int, b: int, m: int) -> int:
    """floor(W b^m) for the real extent W = (a-1) b / (a-b) of all digit tails."""
    return (a - 1) * b ** (m + 1) // (a - b)


def _first_residue(a: int, b: int, u: int, r: int) -> int:
    """e_1 of the level-r class u, the last residue _peel would produce."""
    for _ in range(r - 1):
        u = u // a * b
    return u % a


def _box_certificates(a: int, b: int, c: int, r: int, br: int, rho: int) -> set[int]:
    """Digits d for which the box with corner c / a^r is certified safe at
    refinement level rho; br = b^r.

    Safe means: for every point z of the closed box, the smoothed level-r
    indicator of digit d agrees with the true digit test.  Two certificates:

    * fully in: the box and its right neighbour carry digit d at level r and
      no other digit's level-rho box meets the box once each rho-box is
      fattened rightward by the tail overhang (W - 1) alpha^(-rho); then the
      tile cover forces every point of the box into digit class d.
    * fully out: neither the box nor its right neighbour carries d at level
      r, and no level-rho box of digit d meets the fattened range, so the
      closed box avoids digit class d entirely.

    Both read the first residues of the rho-corners (c a^m + s b^r) / a^rho,
    s_min <= s <= a^m, of class u_s = u_0 + s b^(-m) mod a^rho.  s = 0 is the
    box's own corner and s = a^m its right neighbour's; a level-r corner
    keeps its first residue at level rho.  So the box is fully in when every
    rho-corner reads one digit, and fully out of every digit none reads.
    """
    m = rho - r
    mod = a**rho
    s_min = -_tail_overhang(a, b, m)
    u = (c * a**m + s_min * br) * pow(b, -rho, mod) % mod
    step = pow(b, -m, mod)
    present: set[int] = set()
    for _ in range(s_min, a**m + 1):
        present.add(_first_residue(a, b, u, rho))
        u = (u + step) % mod
    digits = set(range(a))
    return digits if len(present) == 1 else digits - present


def _tube_charge(ctx: AdeleContext, r: int, resolution: int) -> int:
    """The charge of boundary_tubes(ctx, r, resolution), at least a^resolution:
    each of the a^r boxes pays a^m + floor(W b^m) + 2 at each refinement
    level rho = r + m, about the rho-corners it reads."""
    a, b = ctx.base.a, ctx.base.b
    ar, _ = _level(ctx, r, charged=resolution)
    return ar * sum(a ** (rho - r) + _tail_overhang(a, b, rho - r) + 2
                    for rho in range(r + 1, resolution + 1))


def boundary_tubes(ctx: AdeleContext, r: int, resolution: int) -> dict[int, BoundaryTube]:
    """Boundary tubes for every digit at level r, refined up to `resolution`.

    Boxes leave the tube at the first refinement level (from r+1 up to
    `resolution`) that certifies them safe, so member sets only shrink as the
    resolution grows.  The result is an over-approximation of the boundary
    region; only its emptiness claims are load-bearing.
    """
    a, b = ctx.base.a, ctx.base.b
    if resolution <= r:
        raise ValueError("resolution must exceed the tube level")
    _check_budget(_tube_charge(ctx, r, resolution))
    ar, br = _level(ctx, r)
    members: dict[int, set[Fraction]] = {d: set() for d in range(a)}
    for first in range(a):
        for c in _corner_numerators(a, b, r, first):
            certified: set[int] = set()
            for rho in range(r + 1, resolution + 1):
                certified |= _box_certificates(a, b, c, r, br, rho)
                if len(certified) == a:
                    break
            corner = Fraction(c, ar)
            for d in range(a):
                if d not in certified:
                    members[d].add(corner)
    return {
        d: BoundaryTube(digit=d, level=r, resolution=resolution,
                        members=frozenset(members[d]))
        for d in range(a)
    }


def count_boundary_hits(ctx: AdeleContext, k: int, r: int, N: int,
                        tube: BoundaryTube) -> int:
    """How many of the reduced points for n <= N land in tube boxes; charged N."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if tube.level != r:
        raise ValueError(f"level-{tube.level} tubes for a level-{r} read")
    _check_budget(N)
    return sum(_membership_box(ctx, n, k, r)[1] in tube.members for n in range(1, N + 1))


# ---------------------------------------------------------------------------
# fiber coordinates for rendering

_SCHEMES = ("alpha-digits", "p-adic-digits")


def _fiber_numerator(ctx: AdeleContext, x: Fraction, depth: int,
                     scheme: str) -> tuple[int, int]:
    """(N, n) with the fiber value of x, truncated at `depth`, equal to N / b^n.

    alpha-digits: x = sum_j d_j alpha^(-j) with d_j in {0..b-1}, the greedy
    expansion along the chain of index-b subgroups alpha^(-j) prod Z_p.
    p-adic-digits: base-b digits of x in prod Z_p via residues mod b^j.
    The expansion starts at j = -K, K > 0 only when x has a pole at some
    p | b.  With the unit-scaled u = U / V (V prime to b) each digit is
    d = U V^(-1) mod b, and u - d moves on times a / b (resp. 1 / b), so V
    stays fixed.  The value sum_j d_j b^(-j) (b^(-j-1) for p-adic-digits)
    is a Horner sum in b over the digits.
    """
    a, b = ctx.base.a, ctx.base.b
    alpha = scheme == "alpha-digits"
    U, den = x.numerator, x.denominator
    V, K = den, 0
    for p, e in ctx.primes:
        v = 0
        while V % p == 0:
            V //= p
            v += 1
        K = max(K, -(-v // e))
    if K:  # a pole; never at a box corner
        U = U * b**K // (den // V)
        if alpha:
            V *= a**K
    mul = a if alpha else 1
    vinv = pow(V, -1, b)
    num = 0
    for _ in range(depth + K + 1):
        d = U * vinv % b
        num = num * b + d
        U = (U - d * V) // b * mul
    return num, depth if alpha else depth + 1


def fiber_coordinate(ctx: AdeleContext, x, depth: int = 32,
                     scheme: str = "alpha-digits") -> Fraction:
    """Rendering coordinate of a p-integral rational in the fiber prod Z_p.

    Under alpha-digits, x = sum_{j>=0} d_j alpha^(-j) with d_j in {0..b-1}
    is drawn at sum d_j b^(-j) (truncated at `depth`); inputs divisible by b
    land in [0, 1].  Under p-adic-digits the base-b expansion of x is read
    as the b-ary real 0.d_0 d_1 ... in [0, 1).
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = Fraction(x)
    for p, _ in ctx.primes:
        if x != 0 and _vp(p, x) < 0:
            raise NotIntegral(f"{x} is not integral at p = {p}")
    num, n = _fiber_numerator(ctx, x, depth, scheme)
    return Fraction(num, ctx.base.b**n)


def fiber_interval(ctx: AdeleContext, c: Fraction, r: int,
                   scheme: str = "alpha-digits") -> tuple[Fraction, Fraction]:
    """Image of the p-adic ball c + alpha^(-r) prod Z_p on the fiber axis.

    Balls at the same level map to aligned intervals with disjoint
    interiors: width b^(1-r) for alpha-digits, b^(-r) for p-adic-digits.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _, br = _level(ctx, r)
    if type(c) is not Fraction:
        c = Fraction(c)
    num, _ = _fiber_numerator(ctx, c, r - 1, scheme)
    step = ctx.base.b if scheme == "alpha-digits" else 1
    lo = num * step
    return Fraction(lo, br), Fraction(lo + step, br)


# ---------------------------------------------------------------------------
# cover census for verification


def cover_census(ctx: AdeleContext, z, r: int) -> tuple[int, bool]:
    """Closed-box containment count for a point, with a face flag.

    Locates the box by the half-open rule, then independently validates the
    containment inequalities.  Returns (count, flagged): count is the number
    of closed level-r boxes containing z (2 exactly on a shared face).

    With the corner C / Q = y b^r / (q a^r) and z_oo = X / D, the real offset
    is (X Q - C D) / (D Q), which must lie in [0, b^r / a^r); each z_p - C / Q
    must have valuation at least r v_p(b).
    """
    x, xs = coords = _coordinates(ctx, z)
    ar, br = _level(ctx, r)
    y, q = _box(ctx, coords, r, ar, br)
    C, Q = y * br, q * ar
    D = x.denominator
    off = x.numerator * Q - C * D
    if not 0 <= off * ar < br * D * Q:
        raise AssertionError("located box fails the real containment check")
    for (p, e), x_p in zip(ctx.primes, xs):
        diff = x_p.numerator * Q - C * x_p.denominator
        if diff != 0 and _vp(p, diff) - _vp(p, x_p.denominator * Q) < r * e:
            raise AssertionError("located box fails the p-adic containment check")
    on_face = off == 0
    return (2 if on_face else 1), on_face
