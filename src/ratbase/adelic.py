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
over a^r and b-powers and build one Fraction per returned value.

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
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .numeration import Base, _horner

DEFAULT_MAX_ENUM = 10**7


class ScaleExceeded(RuntimeError):
    """Requested enumeration exceeds the RATBASE_MAX_ENUM budget."""


class BoundaryAmbiguous(RuntimeError):
    """A reduced point fell into a boundary-tube box; retry at higher level."""


class NotIntegral(ValueError):
    """Input has a negative valuation at some p | b where integrality is required."""


def max_enum() -> int:
    raw = os.environ.get("RATBASE_MAX_ENUM")
    if raw is None or raw == "":
        return DEFAULT_MAX_ENUM
    return int(raw)


def _check_budget(work: int) -> None:
    cap = max_enum()
    if work > cap:
        raise ScaleExceeded(f"enumeration of {work} objects exceeds cap {cap}")


@dataclass(frozen=True)
class AdeleContext:
    """A base together with its finite places (p, v_p(b)) for p | b."""

    base: Base
    primes: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", self.base.primes_of_b())

    def alpha_pow(self, k: int) -> Fraction:
        return Fraction(self.base.a, self.base.b) ** k


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


def _as_point(ctx: AdeleContext, z) -> AdelePoint:
    if isinstance(z, AdelePoint):
        for p, _ in ctx.primes:
            if p not in z.padic:
                raise ValueError(f"point missing component at p = {p}")
        return z
    return AdelePoint.diagonal(ctx, z)


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
    z = _as_point(ctx, z)
    s = sum((frac_p(p, z.padic[p]) for p, _ in ctx.primes), Fraction(0))
    return s - z.real


def character(ctx: AdeleContext, z) -> complex:
    """chi(z) = e(sum_p lambda_p(z_p) - z_oo) on the unit circle."""
    t = char_exponent(ctx, z)
    t -= math.floor(t)
    return complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))


def char_tilde(ctx: AdeleContext, xi) -> complex:
    """chi on the diagonal: trivial exactly on Z[alpha] = Z[1/b]."""
    return character(ctx, AdelePoint.diagonal(ctx, xi))


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
    z = _as_point(ctx, z)
    y = locate_box(ctx, z, 0).corner
    res = AdelePoint(
        real=z.real - y,
        padic={p: z.padic[p] - y for p, _ in ctx.primes},
    )
    return y, res


# ---------------------------------------------------------------------------
# level-r boxes and their canonical residues


def _peel(a: int, b: int, u: int, r: int) -> tuple[int, ...]:
    """Residues (e_1, ..., e_r) of the level-r class u mod a^r.

    u = sum_k e_k a^(r-k) b^(k-r) mod a^r, so e_r = u mod a and
    b * floor(u / a) is the class of e_1 .. e_(r-1) one level down.  Each
    step reads only u mod a, so the reductions mod a^j can be skipped.
    """
    digs = []
    for _ in range(r):
        u, e = divmod(u, a)
        digs.append(e)
        u *= b
    digs.reverse()
    return tuple(digs)


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


@dataclass(frozen=True)
class BoxLocation:
    """Result of point location: actual corner, canonical residues, translate."""

    level: int
    corner: Fraction
    residues: tuple[int, ...]
    translate: Fraction

    @property
    def digit(self) -> int:
        return self.residues[0]

    @property
    def canonical_corner(self) -> Fraction:
        return self.corner - self.translate


def locate_box(ctx: AdeleContext, z, r: int) -> BoxLocation:
    """The level-r box containing z under the half-open convention.

    The corner c satisfies z_oo - c in [0, alpha^(-r)) and
    v_p(z_p - c) >= r v_p(b) for each p; points on a shared face belong to
    the box on their right.

    With z scaled by alpha^r, the sum of the p-adic fractional parts is
    t / q for a b-power q; the scaled corner is y / q with
    y = t + q floor(alpha^r z_oo - t / q), and the corner is y b^r / (q a^r).
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    z = _as_point(ctx, z)
    a, b = ctx.base.a, ctx.base.b
    ar, br = a**r, b**r
    t, q = 0, 1
    for p, e in ctx.primes:
        # lambda_p(alpha^r z_p) = tp / pm, pm the p-part of its denominator
        x = z.padic[p]
        den, pe = x.denominator, p ** (e * r)
        pm = pe
        while den % p == 0:
            den //= p
            pm *= p
        tp = x.numerator * ar * pow(den * (br // pe), -1, pm) % pm
        t, q = t * pm + tp * q, q * pm
    x = z.real
    yd = x.denominator * br
    y = t + (x.numerator * ar * q - t * yd) // (yd * q) * q
    residues = _peel(a, b, y * pow(q, -1, ar) % ar, r)
    c = b * _horner(a, b, residues)
    return BoxLocation(level=r, corner=Fraction(y * br, q * ar), residues=residues,
                       translate=Fraction((y * br - c * q) // ar, q))


# ---------------------------------------------------------------------------
# tile approximations


def tile_corners(ctx: AdeleContext, d: int, r: int) -> tuple[Fraction, ...]:
    """Corners d alpha^(-1) + sum_{k=2..r} e_k alpha^(-k), sorted by value.

    Enumerated as their numerators over a^r.
    """
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:
        raise ValueError(f"digit {d} outside alphabet")
    if r < 1:
        raise ValueError("level must be >= 1")
    _check_budget(a ** (r - 1))
    ar = a**r
    return tuple(Fraction(n, ar) for n in sorted(_corner_numerators(a, b, r, d)))


def verify_residue_system(ctx: AdeleContext, r: int) -> bool:
    """Check that the a^r canonical corners are pairwise non-congruent mod
    Z[alpha].

    Two corners X / a^r and X' / a^r are congruent iff a^r divides X - X'
    (their difference is in Z[1/b]), so the a^r corners, marked one digit
    at a time by X mod a^r, are pairwise non-congruent iff they mark every
    class.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    a, b = ctx.base.a, ctx.base.b
    _check_budget(a**r)
    mod = a**r
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
    a, b = ctx.base.a, ctx.base.b
    return Fraction(n * b ** (k + 2), a ** (k + 1))


def classify_digit(ctx: AdeleContext, n: int, k: int, r: int,
                   tubes: "Mapping[int, BoundaryTube] | None" = None) -> int:
    """Digit eps_k(n) read off geometrically from the level-r box location.

    With the level-r tubes supplied (the mapping boundary_tubes returns), a
    box inside the tube of its own digit raises BoundaryAmbiguous: the
    level-r read cannot be trusted there and the caller should raise r.
    """
    loc = locate_box(ctx, membership_point(ctx, n, k), r)
    if tubes is not None:
        tube = tubes[loc.digit]
        if tube.level != r:
            raise ValueError(f"level-{tube.level} tubes for a level-{r} read")
        if loc.canonical_corner in tube.members:
            raise BoundaryAmbiguous(
                f"point for (n={n}, k={k}) lies in the level-{r} boundary tube")
    return loc.digit


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


def _box_certificates(a: int, b: int, c: int, r: int, rho: int) -> set[int]:
    """Digits d for which the box with corner c / a^r is certified safe at
    refinement level rho.

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
    u = (c * a**m + s_min * b**r) * pow(b, -rho, mod) % mod
    step = pow(b, -m, mod)
    present: set[int] = set()
    for _ in range(s_min, a**m + 1):
        present.add(_first_residue(a, b, u, rho))
        u = (u + step) % mod
    digits = set(range(a))
    return digits if len(present) == 1 else digits - present


def boundary_tubes(ctx: AdeleContext, r: int, resolution: int) -> dict[int, BoundaryTube]:
    """Boundary tubes for every digit at level r, refined up to `resolution`.

    Boxes leave the tube at the first refinement level (from r+1 up to
    `resolution`) that certifies them safe, so member sets only shrink as the
    resolution grows.  The result is an over-approximation of the boundary
    region; only its emptiness claims are load-bearing.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    a, b = ctx.base.a, ctx.base.b
    if resolution <= r:
        raise ValueError("resolution must exceed the tube level")
    per_rho = sum(a ** (rho - r) + _tail_overhang(a, b, rho - r) + 2
                  for rho in range(r + 1, resolution + 1))
    _check_budget(a**r * max(per_rho, 1))
    members: dict[int, set[Fraction]] = {d: set() for d in range(a)}
    for first in range(a):
        for c in _corner_numerators(a, b, r, first):
            certified: set[int] = set()
            for rho in range(r + 1, resolution + 1):
                certified |= _box_certificates(a, b, c, r, rho)
                if len(certified) == a:
                    break
            corner = Fraction(c, a**r)
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
    _check_budget(N)
    hits = 0
    for n in range(1, N + 1):
        loc = locate_box(ctx, membership_point(ctx, n, k), r)
        if loc.canonical_corner in tube.members:
            hits += 1
    return hits


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
    U, V, K = x.numerator, x.denominator, 0
    for p, e in ctx.primes:
        v = 0
        while V % p == 0:
            V //= p
            v += 1
        K = max(K, -(-v // e))
    U = U * b**K // (x.denominator // V)
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
    if r < 0:
        raise ValueError("level must be >= 0")
    num, n = _fiber_numerator(ctx, Fraction(c), r - 1, scheme)
    if n < 0:  # alpha-digits at level 0: the values are multiples of b
        b = ctx.base.b
        return Fraction(num * b), Fraction((num + 1) * b)
    den = ctx.base.b**n
    return Fraction(num, den), Fraction(num + 1, den)


# ---------------------------------------------------------------------------
# cover census for verification


def cover_census(ctx: AdeleContext, z, r: int) -> tuple[int, bool]:
    """Closed-box containment count for a point, with a face flag.

    Locates the box by the half-open rule, then independently validates the
    containment inequalities.  Returns (count, flagged): count is the number
    of closed level-r boxes containing z (2 exactly on a shared face).
    """
    z = _as_point(ctx, z)
    loc = locate_box(ctx, z, r)
    width = ctx.alpha_pow(-r)
    off = z.real - loc.corner
    if not 0 <= off < width:
        raise AssertionError("located box fails the real containment check")
    for p, e in ctx.primes:
        diff = z.padic[p] - loc.corner
        if diff != 0 and _vp(p, diff) < r * e:
            raise AssertionError("located box fails the p-adic containment check")
    on_face = off == 0
    return (2 if on_face else 1), on_face
