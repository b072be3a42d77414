"""Fourier analysis of smoothed box indicators on the adelic quotient.

g_{x,r} is the Urysohn-style smoothing of the indicator of the level-r box
at corner x: the box indicator averaged over a level-r box of shifts.  Its
character coefficients against e(xi .) vanish off (1/b^r) Z and otherwise
have the closed form

    c_{x,r,xi} = alpha^r b^(-r) chi~(-x xi) |1 - e(alpha^(-r) xi)|^2 / (4 pi^2 xi^2)

with c_{x,r,0} = a^(-r).  Summing over the a^(r-1) corners of one digit's
tile approximation gives the coefficients c'_{d,r,xi} of f_{d,r}; the prefix
sum factorizes into per-level geometric sums, which is how the exact zeros
on (a Z)/b^r are detected.

In space f_{d,r} is read from two boxes: with x the corner of the level-r
box holding z, h = alpha^(-r) and theta = (z - x) / h,
f_{d,r}(Phi(z)) = (1 - theta) [digit(x) = d] + theta [digit(x + h) = d].

So urysohn_pattern_estimate is the padded count S'_{k,w}(N) exactly once
r >= k + |w|: position k + j reads z = b n / alpha^(k+j+1), and
z alpha^r = n a^(r-k-j-1) b^(k+j+2-r) lies in Z[1/b], so every point sits
on a level-r box corner, theta = 0, and each factor is a digit indicator.

All frequency bookkeeping is exact and runs on integers.  On the support
xi = m / b^r every character exponent coeff_f needs is m times a fixed
rational mod 1, kept as an integer residue over a power of a (gcd(a, b) = 1
makes b invertible there), and the diagonal character of a rational point
is read as a residue P mod Q.  A coefficient's value is evaluated to
floating point once, from those integers, when the coefficient is built;
Fraction is the type of the exact results.

The product of the level sums sum_{e<a} e(-e c_k / a^k), c_k = w b^k mod
a^k, over k = 2..K depends on (a, b, a^K, w mod a^K) only.  Those with
a^K <= 2^12 are kept for the life of the process in one table that
coeff_f, the tables and the series all read, filled as calls first ask:
at most a^K - a per base pair.  A product is the same expression whether
it is computed or read, so every value is bit-identical either way.

A series at a point whose character has denominator Q <= its nonzero terms
sums them by residue rho = m mod Q, whose terms share one root of unity:
the coefficients of each residue are summed once per coefficient list and
Q and kept with the list, so a call that finds them held costs O(Q).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .adelic import (AdeleContext, _box, _check_budget, _coordinates, _csv,
                     _first_residue, _level, _split_b, _Strict, max_enum)
from .numeration import _check_digits

# the constant factors of the angles, each computed as the expressions that
# use them would compute it first, so hoisting them changes no result bit
_TWO_PI = 2.0 * math.pi
_TWO_PI_J = 2j * math.pi
_NEG_TWO_PI_J = -2j * math.pi
_PI_SQUARED = math.pi**2


class FourierCoefficient(_Strict, namedtuple("_Fields", "frequency value exact")):
    """One coefficient at frequency xi, with its value: an immutable 3-tuple
    equal only to another coefficient.

    `exact` is the value as a rational number where it is one (the zero
    mode and the exact vanishing locus), and None elsewhere.
    """

    __slots__ = ()


def _mode(xi: Fraction, ar: int, br: int) -> int | None:
    """m = xi b^r, or None where the coefficient is exact: at xi = 0, off
    (1/b^r) Z, and where osc = alpha^(-r) xi = m / a^r is an integer;
    ar, br = a^r, b^r."""
    m, off = divmod(xi.numerator * br, xi.denominator)
    return None if off or m % ar == 0 else m


def _chi_residue(ctx: AdeleContext, num: int, den: int) -> tuple[int, int]:
    """(P, Q) with chi~(num / den) = e(P / Q): Q is the part of den prime
    to b, B the rest, and P = -num B^(-1) mod Q."""
    den_b, Q = _split_b(ctx, den)
    return -num * pow(den_b, -1, Q) % Q, Q


def _closed_form(m: int, ar: int, P: int, Q: int, factor: complex) -> complex:
    """a^r / (4 m^2) |1 - e(m / a^r)|^2 / pi^2 e(P / Q) factor at xi = m / b^r,
    with |1 - e(t)|^2 = 4 sin^2(pi t) at the residue nearer 0, free of cancelling."""
    s = math.sin(math.pi * (min(m % ar, -m % ar) / ar))
    amp = 4.0 * s * s
    unit = cmath.exp(_TWO_PI_J * (P / Q))
    return ar / (4 * m * m) * amp / _PI_SQUARED * unit * factor


def coeff_g(ctx: AdeleContext, x, r: int, xi) -> FourierCoefficient:
    """Coefficient of the single-box smoothing at corner x.

    Exact a^(-r) at xi = 0; zero off (1/b^r) Z; otherwise the closed form
    above with phase chi~(-x xi).
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    if type(xi) is not Fraction:
        xi = Fraction(xi)
    ar, br = _level(ctx, r)
    m = _mode(xi, ar, br)
    if m is None:
        q = Fraction(1, ar) if xi == 0 else Fraction(0)
        return tuple.__new__(FourierCoefficient, (xi, complex(q), q))
    P, Q = _chi_residue(ctx, -x.numerator * xi.numerator, x.denominator * xi.denominator)
    value = _closed_form(m, ar, P, Q, complex(1.0))
    return tuple.__new__(FourierCoefficient, (xi, value, None))


def coeff_f(ctx: AdeleContext, d: int, r: int, xi) -> FourierCoefficient:
    """Coefficient of the digit-d tile smoothing f_{d,r}.

    The sum over tile corners factorizes: the common corner d alpha^(-1)
    contributes a phase, and each deeper level k contributes the geometric
    sum over e in {0..a-1} of e(-e t_k) with t_k the character exponent of
    alpha^(-k) xi.  A factor vanishes exactly when e(-t_k) is a nontrivial
    a-th root of unity, which happens precisely on (a Z)/b^r away from 0.

    On the support xi = m / b^r every exponent is m times a fixed rational
    mod 1: osc = m / a^r, phase = (d m b^(1-r) mod a) / a and
    t_k = (-m b^(k-r) mod a^k) / a^k, so a call costs O(r a) integer steps.
    The coefficient is exactly zero iff r = 0 or a | m: then either osc is
    an integer or, at the level k with a^(k-1) || m, e(-t_k) is a
    nontrivial a-th root of unity.
    """
    if type(xi) is not Fraction:
        xi = Fraction(xi)
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:  # inline: a call here costs a few percent of coeff_f
        raise ValueError(f"digit {d} outside alphabet of base {ctx.base}")
    ar, br = _level(ctx, r)
    m = _mode(xi, ar, br)
    if m is None or m % a == 0:
        q = Fraction(1, a) if xi == 0 else Fraction(0)
        return tuple.__new__(FourierCoefficient, (xi, complex(q), q))
    w = -m * pow(b, -r, ar) % ar
    value = _closed_form(m, ar, -d * w * b % a, a, _level_factor(a, b, ar, br, w))
    return tuple.__new__(FourierCoefficient, (xi, value, None))


def _level_sum(a: int, ak: int, c: int) -> complex:
    """sum over e in {0..a-1} of e(-e c / a^k), the level-k factor of c'."""
    return sum([cmath.exp(_NEG_TWO_PI_J * ((e * c % ak) / ak)) for e in range(a)])


# The level factor of every level r with a^r <= _TABLE_TOP, by (a, b, a^r,
# w mod a^r), since c_k depends on w mod a^k only; shared by all calls and
# filled as they ask.  a never divides w, so a base pair keeps at most
# a^K - a factors, a^K its largest tabled power: 2184 at 3/2, 4094 at a = 2.
_TABLE_TOP = 1 << 12
_prefixes: dict[tuple[int, int, int, int], complex] = {}


def _top_level(a: int) -> int:
    """K, the deepest tabled level: the largest with a^K <= _TABLE_TOP, or 1."""
    k, ak = 1, a
    while ak * a <= _TABLE_TOP:
        k, ak = k + 1, ak * a
    return k


def _fill_charge(a: int, r: int, rows: int) -> int:
    """rows * (1 + L), the budget charge of rows level-r coefficients: L
    counts the levels k in 2..r with a^k above _TABLE_TOP, whose sums each
    mode computes anew (a exponentials each), where the tabled levels are
    one lookup."""
    return rows * (1 + max(0, r - _top_level(a)))


def _level_factor(a: int, b: int, ar: int, br: int, w: int) -> complex:
    """prod_{k=2..r} _level_sum(a, a^k, c_k), c_k = w b^k mod a^k, from
    complex(1.0) in the order of k; ar, br = a^r, b^r and 0 <= w < a^r.

    Where a^r <= _TABLE_TOP the product is one _prefixes entry, filled from
    the entry a level below.  Above it the tabled levels are one entry and
    each level above them is summed anew.
    """
    if ar == a:
        return complex(1.0)
    if ar <= _TABLE_TOP:
        p = _prefixes.get((a, b, ar, w))
        if p is None:
            below = _level_factor(a, b, ar // a, br // b, w % (ar // a))
            p = _prefixes[a, b, ar, w] = below * _level_sum(a, ar, w * br % ar)
        return p
    k = _top_level(a)
    ak, bk = a**k, b**k
    factor = _level_factor(a, b, ak, bk, w % ak)
    while ak < ar:
        ak, bk = ak * a, bk * b
        factor *= _level_sum(a, ak, w * bk % ak)
    return factor


def _f_values(ctx: AdeleContext, digits: Sequence[int], r: int, ms: range):
    """(m, the tuple of c'_{d,r,m/b^r} over digits) for each m >= 0 in ms,
    with w = -m b^(-r) mod a^r and the level factor computed once per m for
    all digits; callers check the level and the digits."""
    a, b = ctx.base.a, ctx.base.b
    ar, br = _level(ctx, r)
    b_inv = pow(b, -r, ar)
    for m in ms:
        if r == 0 or m % a == 0:
            yield m, (complex(1 / a) if m == 0 else 0j,) * len(digits)
            continue
        w = -m * b_inv % ar  # t_k = (w b^k mod a^k) / a^k
        factor = _level_factor(a, b, ar, br, w)
        yield m, tuple(_closed_form(m, ar, -d * w * b % a, a, factor) for d in digits)


def coefficient_table(ctx: AdeleContext, digits: Sequence[int], r: int,
                      max_m: int) -> str:
    """CSV of c'_{d,r,m/b^r} for m = 0..max_m, one row per (digit, m).

    Checks the level and digits, then charges the _fill_charge of its
    len(digits) * (max_m + 1) rows to the budget.
    """
    _level(ctx, r)
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    _check_digits(ctx.base, digits)
    _check_budget(_fill_charge(ctx.base.a, r, len(digits) * (max_m + 1)))
    ms, values = zip(*_f_values(ctx, digits, r, range(max_m + 1)))
    return _csv(("xi_numerator", "r", "digit", "re", "im", "abs"),
                [(m, r, d, v.real, v.imag, abs(v))
                 for d, column in zip(digits, zip(*values)) for m, v in zip(ms, column)])


# ---------------------------------------------------------------------------
# direct geometric evaluation


def eval_urysohn_direct(ctx: AdeleContext, d: int, r: int, z) -> Fraction:
    """f_{d,r}(Phi(z)) as an exact rational, from the box that holds z.

    f_{d,r} is a sum of tents of half-width h = alpha^(-r), one on each
    corner of a digit-d box, that count only where the p-adic balls agree.
    The corners in z's ball are x + k h, with x the corner of the level-r
    box holding z, so only x and its right neighbour x + h reach z.  With
    theta = (z - x) / h in [0, 1):

        f_{d,r}(Phi(z)) = (1 - theta) [digit(x) = d] + theta [digit(x + h) = d]
    """
    _check_digits(ctx.base, (d,))
    ar, br = _level(ctx, r, 1)
    return _direct(ctx, d, r, ar, br, z if type(z) is Fraction else Fraction(z))


def _direct(ctx: AdeleContext, d: int, r: int, ar: int, br: int, z: Fraction) -> Fraction:
    """eval_urysohn_direct at a checked digit d and level r; ar, br = a^r, b^r."""
    a, b = ctx.base.a, ctx.base.b
    y, q = _box(ctx, _coordinates(ctx, z), r, ar, br)
    u = y * pow(q, -1, ar) % ar
    # x = y h / q, so theta = z / h - y / q = t / s; the right neighbour
    # x + h has the scaled corner (y + q) / q and the class u + 1
    s = z.denominator * br * q
    t = z.numerator * ar * q - y * z.denominator * br
    num = s - t if _first_residue(a, b, u, r) == d else 0
    if t and _first_residue(a, b, (u + 1) % ar, r) == d:
        num += t
    return Fraction(num, s)


# ---------------------------------------------------------------------------
# truncated series evaluation


class SeriesTruncation(_Strict, namedtuple("_Fields", "cutoff terms tail_bound")):
    """Report of a symmetric truncation at |xi b^r| <= cutoff, of 2 cutoff + 1 terms."""

    __slots__ = ()


class SeriesEval(_Strict, namedtuple("_Fields", "value truncation")):
    """A series value, a float, with its SeriesTruncation."""

    __slots__ = ()


def series_tail_bound(ctx: AdeleContext, r: int, cutoff: int) -> float:
    """Bound on the discarded mass: sum_{|m| > cutoff} |c'_{d,r,m/b^r}|.

    Each |c_{x,r,xi}| is at most a^r / (pi^2 m^2) since |1-e(u)| <= 2, there
    are a^(r-1) corners, and sum_{m > X} m^(-2) <= 1/floor(X).
    """
    ar, _ = _level(ctx, r)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    return 2.0 * (ar * ar / ctx.base.a) / (math.pi**2 * cutoff)


_CacheInfo = namedtuple("_CacheInfo", "hits misses lists pairs")


class _SeriesCache:
    """Coefficient lists of recent series calls, oldest first, each with its
    folds by Q: at most 64 lists, holding at most max_enum() items in all,
    an item being a pair, a fold term or a root of unity."""

    def __init__(self) -> None:
        self.lists: dict[tuple, tuple[tuple[tuple[int, complex], ...], dict]] = {}
        self.hits = self.misses = self.items = 0

    def _keep(self, key: tuple, n: int) -> bool:
        """Drop the oldest lists other than key's until n more items fit
        under the cap among at most 64 lists; count the n items and return
        True if they fit, else return False."""
        cap = max_enum()
        for old in [k for k in self.lists if k != key]:
            if len(self.lists) <= 64 and self.items + n <= cap:
                break
            pairs, folds = self.lists.pop(old)
            self.items -= len(pairs) + sum(len(t) + len(u) for t, u in folds.values())
        fits = self.items + n <= cap
        self.items += n if fits else 0
        return fits

    def __call__(self, ctx: AdeleContext, d: int, r: int,
                 cutoff: int) -> tuple[tuple[int, complex], ...]:
        """The nonzero c'_{d,r,m/b^r} for m = 1..cutoff as (m, value) pairs.

        Charged the _fill_charge of cutoff coefficients against the budget
        on a cache miss.
        """
        key = (ctx.base.a, ctx.base.b, d, r, cutoff)
        got = self.lists.get(key)
        if got is not None:
            self.hits += 1
            return got[0]
        _check_budget(_fill_charge(ctx.base.a, r, cutoff))
        self.misses += 1
        values = _f_values(ctx, (d,), r, range(1, cutoff + 1))
        pairs = tuple((m, c) for m, (c,) in values if c != 0)
        self.lists[key] = (pairs, {})
        self._keep(key, len(pairs))  # they fit: the charge covers them
        return pairs

    def fold(self, key: tuple, Q: int) -> tuple:
        """(the nonzero (rho, C_rho), the roots e(j / Q) for j = 0..Q-1) of
        the held list at key: C_rho is the sum in order of m of its c with
        m = rho mod Q, and each root is complex(cos, sin) of 2 pi j / Q.
        A fold that does not fit beside its list is returned unkept."""
        pairs, folds = self.lists[key]
        got = folds.get(Q)
        if got is None:
            sums: dict[int, complex] = {}
            for m, c in pairs:
                rho = m % Q
                sums[rho] = sums.get(rho, 0j) + c
            terms = tuple((rho, c) for rho, c in sums.items() if c != 0)
            got = terms, [complex(math.cos(ang), math.sin(ang))
                          for ang in (_TWO_PI * j / Q for j in range(Q))]
            if self._keep(key, len(terms) + Q):
                folds[Q] = got
        return got

    def cache_info(self) -> _CacheInfo:
        pairs = sum(len(entry[0]) for entry in self.lists.values())
        return _CacheInfo(self.hits, self.misses, len(self.lists), pairs)


_series_coeffs = _SeriesCache()


def eval_urysohn_series(ctx: AdeleContext, d: int, r: int, z,
                        cutoff: int) -> SeriesEval:
    """Symmetric partial character sum for f_{d,r}(Phi(z)).

    Terms pair m with -m, whose contributions are complex conjugates, so the
    partial sum is real by construction; the truncation error is bounded by
    series_tail_bound.  The character of m z / b^r is e(m P / Q), with
    chi~(z / b^r) = e(P / Q) read as an integer residue.

    Where Q is at most the nonzero terms, the terms of one residue rho of m
    mod Q share e(rho P / Q), so the sum is read from the cached fold
    C_rho of the coefficients: O(pairs) once per (coefficient list, Q), then
    O(Q) per call.  Folding reorders the float additions, so such a value
    may differ from the term-by-term sum in its last bits; elsewhere the
    terms are summed one by one, in order of m.
    """
    a, b = ctx.base.a, ctx.base.b
    _check_digits(ctx.base, (d,))
    tail_bound = series_tail_bound(ctx, r, cutoff)  # checks the level and cutoff
    if type(z) is not Fraction:
        z = Fraction(z)
    pairs = _series_coeffs(ctx, d, r, cutoff)
    # chi~(z) = e(P / Q) with Q prime to b, so chi~(z / b^r) = e(P b^(-r) / Q)
    P, Q = _chi_residue(ctx, z.numerator, z.denominator)
    P = P * pow(b, -r, Q) % Q
    total = 1.0 / a
    if Q <= len(pairs):
        terms, units = _series_coeffs.fold((a, b, d, r, cutoff), Q)
        for rho, c in terms:
            total += 2.0 * (c * units[rho * P % Q]).real
    else:
        for m, c in pairs:
            ang = _TWO_PI * ((m * P) % Q) / Q
            w = complex(math.cos(ang), math.sin(ang))
            total += 2.0 * (c * w).real
    trunc = tuple.__new__(SeriesTruncation, (cutoff, 2 * cutoff + 1, tail_bound))
    return tuple.__new__(SeriesEval, (total, trunc))


# ---------------------------------------------------------------------------
# pattern-count estimator


def urysohn_pattern_estimate(ctx: AdeleContext, word: Sequence[int], k: int,
                             r: int, N: int) -> Fraction:
    """Estimate of the padded count S'_{k,w}(N) by products of smoothings.

    Sums over n <= N the product over window offsets j of
    f_{w_j, r}(Phi(b n / alpha^(k+j+1))), all in exact rational arithmetic.
    The deviation from S'_{k,w}(N) is at most the total number of boundary
    tube hits along the window.
    """
    w_lsf = tuple(reversed(tuple(word)))
    if not w_lsf or r < 1 or k < 0:
        raise ValueError("need a nonempty word, level >= 1 and k >= 0")
    ar, br = _level(ctx, r)  # refuse a level above the bound before the charge
    if N < 0:
        raise ValueError("N must be nonnegative")
    _check_digits(ctx.base, w_lsf)
    _check_budget(max(N, 1) * len(w_lsf))
    b = ctx.base.b
    # the powers of the point b n / alpha^(k+j+1) that position k + j reads,
    # taken where a product first reaches offset j
    scales: list[tuple[int, int]] = []
    total = Fraction(0)
    for n in range(1, N + 1):
        prod = Fraction(1)
        for j, d in enumerate(w_lsf):
            if j == len(scales):
                scales.append(_level(ctx, k + j + 1))
            ak, bk = scales[j]
            prod *= _direct(ctx, d, r, ar, br, Fraction(n * bk * b, ak))
            if prod == 0:
                break
        total += prod
    return total
