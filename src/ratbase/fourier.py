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

All frequency bookkeeping is exact and runs on integers.  On the support
xi = m / b^r every character exponent coeff_f needs is m times a fixed
rational mod 1, kept as an integer residue over a power of a (gcd(a, b) = 1
makes b invertible there), and the diagonal character of a rational point
is read as a residue P mod Q.  A coefficient's value is evaluated to
floating point once, from those integers, when the coefficient is built;
Fraction is the type of the exact results.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .adelic import (AdeleContext, _check_budget, _split_b, locate_box,
                     max_enum, membership_point)


@dataclass(frozen=True)
class FourierCoefficient:
    """One coefficient at frequency xi, with its value.

    `exact` is the value as a rational number where it is one (the zero
    mode and the exact vanishing locus), and None elsewhere.
    """

    frequency: Fraction
    value: complex
    exact: Fraction | None


def _mode(ctx: AdeleContext, r: int, xi: Fraction) -> int | None:
    """m = xi b^r, or None where the coefficient is exact: at xi = 0, off
    (1/b^r) Z, and where osc = alpha^(-r) xi = m / a^r is an integer."""
    if r < 0:
        raise ValueError("level must be >= 0")
    m, off = divmod(xi.numerator * ctx.base.b**r, xi.denominator)
    return None if off or m % ctx.base.a**r == 0 else m


def _chi_residue(ctx: AdeleContext, num: int, den: int) -> tuple[int, int]:
    """(P, Q) with chi~(num / den) = e(P / Q): Q is the part of den prime
    to b, B the rest, and P = -num B^(-1) mod Q."""
    den_b, Q = _split_b(ctx, den)
    return -num * pow(den_b, -1, Q) % Q, Q


def _closed_form(m: int, ar: int, P: int, Q: int, factor: complex) -> complex:
    """a^r / (4 m^2) |1 - e(m / a^r)|^2 / pi^2 e(P / Q) factor at xi = m / b^r."""
    amp = 2.0 - 2.0 * math.cos(2.0 * math.pi * (m % ar / ar))
    unit = cmath.exp(2j * math.pi * (P / Q))
    return ar / (4 * m * m) * amp / math.pi**2 * unit * factor


def coeff_g(ctx: AdeleContext, x, r: int, xi) -> FourierCoefficient:
    """Coefficient of the single-box smoothing at corner x.

    Exact a^(-r) at xi = 0; zero off (1/b^r) Z; otherwise the closed form
    above with phase chi~(-x xi).
    """
    x, xi = Fraction(x), Fraction(xi)
    m = _mode(ctx, r, xi)
    ar = ctx.base.a**r
    if m is None:
        q = Fraction(1, ar) if xi == 0 else Fraction(0)
        return FourierCoefficient(xi, complex(q), q)
    P, Q = _chi_residue(ctx, -x.numerator * xi.numerator, x.denominator * xi.denominator)
    return FourierCoefficient(xi, _closed_form(m, ar, P, Q, complex(1.0)), None)


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
    xi = Fraction(xi)
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:
        raise ValueError(f"digit {d} outside alphabet")
    m = _mode(ctx, r, xi)
    if m is None or m % a == 0:
        q = Fraction(1, a) if xi == 0 else Fraction(0)
        return FourierCoefficient(xi, complex(q), q)
    return FourierCoefficient(xi, _f_value(ctx, d, r, m), None)


def _f_value(ctx: AdeleContext, d: int, r: int, m: int) -> complex:
    """c'_{d,r,m/b^r} for an integer m >= 0; callers check the digit d."""
    a, b = ctx.base.a, ctx.base.b
    if r == 0 or m % a == 0:
        return complex(1 / a) if m == 0 else 0j
    ar = a**r
    w = -m * pow(b, -r, ar) % ar  # t_k = (w b^k mod a^k) / a^k
    factor = complex(1.0)
    ak, bk = a, b
    for _ in range(2, r + 1):
        ak, bk = ak * a, bk * b
        c = w * bk % ak
        factor *= sum(cmath.exp(-2j * math.pi * ((e * c % ak) / ak)) for e in range(a))
    return _closed_form(m, ar, -d * w * b % a, a, factor)


def coefficient_table(ctx: AdeleContext, digits: Sequence[int], r: int,
                      max_m: int) -> str:
    """CSV of c'_{d,r,m/b^r} for m = 0..max_m, one row per (digit, m).

    Checks the level and digits, then charges len(digits) * (max_m + 1) to
    the budget.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    for d in digits:
        if not 0 <= d < ctx.base.a:
            raise ValueError(f"digit {d} outside alphabet")
    _check_budget(len(digits) * (max_m + 1))
    lines = ["xi_numerator,r,digit,re,im,abs"]
    for d in digits:
        for m in range(0, max_m + 1):
            v = _f_value(ctx, d, r, m)
            lines.append(f"{m},{r},{d},{v.real!r},{v.imag!r},{abs(v)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# direct geometric evaluation


def eval_urysohn_direct(ctx: AdeleContext, d: int, r: int, z) -> Fraction:
    """f_{d,r}(Phi(z)) as an exact rational, from the box that holds z.

    f_{d,r} is a sum of tents of half-width h = alpha^(-r), one on each
    corner of a digit-d box, that count only where the p-adic balls agree.
    The corners in z's ball are x + k h, with x the corner of the level-r
    box holding z (locate_box), so only x and its right neighbour x + h
    reach z.  With theta = (z - x) / h in [0, 1):

        f_{d,r}(Phi(z)) = (1 - theta) [digit(x) = d] + theta [digit(x + h) = d]
    """
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:
        raise ValueError(f"digit {d} outside alphabet")
    if r < 1:
        raise ValueError("level must be >= 1")
    z = Fraction(z)
    loc = locate_box(ctx, z, r)
    h = Fraction(b**r, a**r)
    theta = (z - loc.corner) / h
    value = 1 - theta if loc.digit == d else Fraction(0)
    if theta and locate_box(ctx, loc.corner + h, r).digit == d:
        value += theta
    return value


# ---------------------------------------------------------------------------
# truncated series evaluation


@dataclass(frozen=True)
class SeriesTruncation:
    """Report of a symmetric truncation at |xi b^r| <= cutoff."""

    cutoff: int
    terms: int
    tail_bound: float


@dataclass(frozen=True)
class SeriesEval:
    value: float
    truncation: SeriesTruncation


def series_tail_bound(ctx: AdeleContext, r: int, cutoff: int) -> float:
    """Bound on the discarded mass: sum_{|m| > cutoff} |c'_{d,r,m/b^r}|.

    Each |c_{x,r,xi}| is at most a^r / (pi^2 m^2) since |1-e(u)| <= 2, there
    are a^(r-1) corners, and sum_{m > X} m^(-2) <= 1/floor(X).
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    a = ctx.base.a
    return 2.0 * a ** (2 * r - 1) / (math.pi**2 * cutoff)


_CacheInfo = namedtuple("_CacheInfo", "hits misses lists pairs")


class _SeriesCache:
    """Coefficient lists of recent series calls, oldest first: at most 64
    lists, holding at most max_enum() pairs in all."""

    def __init__(self) -> None:
        self.lists: dict[tuple, tuple[tuple[int, complex], ...]] = {}
        self.hits = self.misses = self.pairs = 0

    def __call__(self, ctx: AdeleContext, d: int, r: int,
                 cutoff: int) -> tuple[tuple[int, complex], ...]:
        """The nonzero c'_{d,r,m/b^r} for m = 1..cutoff as (m, value) pairs.

        Charged cutoff coefficients against the budget on a cache miss.
        """
        key = (ctx, d, r, cutoff)
        got = self.lists.get(key)
        if got is not None:
            self.hits += 1
            return got
        _check_budget(cutoff)
        self.misses += 1
        values = ((m, _f_value(ctx, d, r, m)) for m in range(1, cutoff + 1))
        got = self.lists[key] = tuple((m, c) for m, c in values if c != 0)
        self.pairs += len(got)
        cap = max_enum()
        while len(self.lists) > 64 or self.pairs > cap:
            self.pairs -= len(self.lists.pop(next(iter(self.lists))))
        return got

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, len(self.lists), self.pairs)


_series_coeffs = _SeriesCache()


def eval_urysohn_series(ctx: AdeleContext, d: int, r: int, z,
                        cutoff: int) -> SeriesEval:
    """Symmetric partial character sum for f_{d,r}(Phi(z)).

    Terms pair m with -m, whose contributions are complex conjugates, so the
    partial sum is real by construction; the truncation error is bounded by
    series_tail_bound.  The character of m z / b^r is e(m P / Q), with
    chi~(z / b^r) = e(P / Q) read as an integer residue.
    """
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:
        raise ValueError(f"digit {d} outside alphabet")
    if r < 0:
        raise ValueError("level must be >= 0")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    z = Fraction(z)
    pairs = _series_coeffs(ctx, d, r, cutoff)
    P, Q = _chi_residue(ctx, z.numerator, z.denominator * b**r)
    total = 1.0 / a
    for m, c in pairs:
        ang = 2.0 * math.pi * ((m * P) % Q) / Q
        w = complex(math.cos(ang), math.sin(ang))
        total += 2.0 * (c * w).real
    trunc = SeriesTruncation(cutoff=cutoff, terms=2 * cutoff + 1,
                             tail_bound=series_tail_bound(ctx, r, cutoff))
    return SeriesEval(value=total, truncation=trunc)


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
    if N < 0:
        raise ValueError("N must be nonnegative")
    for d in w_lsf:
        if not 0 <= d < ctx.base.a:
            raise ValueError(f"digit {d} outside alphabet")
    _check_budget(max(N, 1) * len(w_lsf))
    total = Fraction(0)
    for n in range(1, N + 1):
        prod = Fraction(1)
        for j, d in enumerate(w_lsf):
            zz = membership_point(ctx, n, k + j)
            prod *= eval_urysohn_direct(ctx, d, r, zz)
            if prod == 0:
                break
        total += prod
    return total
