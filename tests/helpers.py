"""Independent reference computations used as oracles by the tests.

Everything here deliberately avoids the library's fast paths: plain
per-integer digit scans instead of the counting engine, a scan of the
stream's digits instead of counting its windows on that engine, brute-force
residue searches instead of modular inverses, literal Fraction sums
instead of integer Horner evaluation, Fraction box geometry and
containment checks instead of integer numerators over a^r and
cross-multiplied integer checks, a Fraction lattice reduction instead of
point location at level 0, Fraction character exponents instead of
residues of m = xi b^r, Fraction SVG coordinates instead of integers over
a common denominator, numerical quadrature instead of closed forms, a
400-digit Decimal series for sin instead of math.sin, and one hand-built
serializer per table instead of the package's shared CSV and JSON writers.
Agreement between these and the library is the point of the tests, so
nothing below imports anything fancier than frac_p, char_exponent,
coeff_g, tile_corners and the stream's prefix builder.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import json
import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np

from ratbase import (AdeleContext, AdelePoint, Base, BoundaryTube, BoxLocation,
                     FourierCoefficient, champernowne_prefix_array, char_exponent,
                     coeff_g, digit, frac_p, length, tile_corners)

BASES = [Base(3, 2), Base(5, 2), Base(5, 3), Base(7, 4), Base(10, 1)]
ORACLE_BASES = BASES + [Base(7, 6)]  # the fast paths' oracle tests add b = 6


def word_digits(base: Base, n: int) -> tuple[int, ...]:
    """Most-significant-first digits of n, straight from the recurrence."""
    out = []
    while n > 0:
        out.append((base.b * n) % base.a)
        n = (base.b * n) // base.a
    return tuple(reversed(out))


def literal_value(base: Base, digits_msf) -> Fraction:
    """(1/b) sum_k eps_k alpha^k with literal Fraction powers, no Horner."""
    alpha = Fraction(base.a, base.b)
    total = Fraction(0)
    for k, d in enumerate(reversed(tuple(digits_msf))):
        total += d * alpha**k
    return total / base.b


def stream_prefix(base: Base, m: int) -> list[int]:
    """First m stream digits by concatenating the words for n = 1, 2, ..."""
    out: list[int] = []
    n = 1
    while len(out) < m:
        out.extend(word_digits(base, n))
        n += 1
    return out[:m]


def scan_count(base: Base, word_msf, k: int, N: int, padded: bool = False) -> int:
    """S_{k,w}(N) or S'_{k,w}(N) by per-integer digit reads."""
    w = tuple(word_msf)
    m = len(w)
    hits = 0
    for n in range(1, N + 1):
        if not padded and length(base, n) < k + m:
            continue
        if all(digit(base, n, k + m - 1 - i) == w[i] for i in range(m)):
            hits += 1
    return hits


def residue_class_count(base: Base, word_msf, k: int, N: int) -> int:
    """S'_{k,w}(N) from one period of n: the padded digits k..k+m-1 of n
    depend only on n mod P = a^(k+m), so 0..N holds floor((N+1)/P) whole
    periods and one partial one, each counted with digit() over n < P.
    Costs P * m digit reads (cached per window and position), whatever N."""
    w = tuple(word_msf)
    hits = _period_hits(base, w, k)
    whole, part = divmod(N + 1, base.a ** (k + len(w)))
    return whole * len(hits) + bisect.bisect_left(hits, part) - (not any(w))


@functools.lru_cache(maxsize=None)
def _period_hits(base: Base, w: tuple[int, ...], k: int) -> list[int]:
    """The n < a^(k+|w|) whose padded digits k..k+|w|-1 spell w, ascending."""
    m = len(w)
    return [n for n in range(base.a ** (k + m))
            if all(digit(base, n, k + m - 1 - i) == w[i] for i in range(m))]


def low_digit_classes(base: Base, m: int) -> dict[tuple[int, ...], int]:
    """Each q in [0, a^m) keyed by its m lowest padded digits, least
    significant first, read off the recurrence one integer at a time."""
    a, b = base.a, base.b
    out = {}
    for q in range(a**m):
        n, digs = q, []
        for _ in range(m):
            digs.append(b * n % a)
            n = b * n // a
        out[tuple(digs)] = q
    return out


def stream_scan(base: Base, word_msf, x: int) -> int:
    """Occurrences of w among the stream windows anchored at positions 1..x."""
    w_lsf = tuple(reversed(tuple(word_msf)))
    z = stream_prefix(base, x + len(w_lsf))
    return sum(
        1 for n in range(1, x + 1)
        if all(z[n - 1 + i] == w_lsf[i] for i in range(len(w_lsf)))
    )


@functools.lru_cache(maxsize=None)
def first_with_length(base: Base, L: int) -> int:
    """The least n >= 1 with at least L digits, by bisection on n (word
    length never decreases in n)."""
    lo, hi = 1, 1
    while len(word_digits(base, hi)) < L:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if len(word_digits(base, mid)) < L else (lo, mid)
    return lo


def stream_offset(base: Base, n: int) -> int:
    """P(n), the digits the words 1..n-1 fill: a word has L digits or more
    from f_L, the first n with L digits, on; so P(n) = sum_L max(0, n - f_L)."""
    total, L = 0, 1
    while (f := first_with_length(base, L)) < n:
        total, L = total + n - f, L + 1
    return total


def stream_window(base: Base, x: int, m: int) -> tuple[int, ...]:
    """Stream digits z_x, ..., z_(x+m-1), read from the words that hold them;
    z_x lies in the word of the largest n with P(n) < x, found by bisection."""
    lo, hi = 1, x
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if stream_offset(base, mid) < x else (lo, mid - 1)
    skip = x - stream_offset(base, lo) - 1
    z: list[int] = []
    n = lo
    while len(z) < skip + m:
        z.extend(word_digits(base, n))
        n += 1
    return tuple(z[skip:skip + m])


def stream_word_ends(base: Base, x: int) -> np.ndarray:
    """Stream offsets at which the words of 1, 2, ... end, up to past x,
    from every word length counted at once."""
    n = np.arange(1, x + 2, dtype=np.int64)
    lengths = np.zeros_like(n)
    while n.any():
        lengths += n > 0
        n = base.b * n // base.a
    ends = np.cumsum(lengths)
    return ends[:np.searchsorted(ends, x) + 1]


def stream_scan_bulk(base: Base, words_msf, xs) -> dict[tuple[int, ...], list[int]]:
    """stream_scan for several words at several x from one stream prefix,
    by a vectorized mask over champernowne_prefix_array (itself checked
    against stream_prefix), for x far past what stream_scan reaches."""
    words = [tuple(w) for w in words_msf]
    n_count = max(xs, default=0)
    z = champernowne_prefix_array(base, n_count + max(map(len, words)) - 1)
    out = {}
    for w in words:
        mask = np.ones(n_count, dtype=bool)
        for j, d in enumerate(reversed(w)):
            mask &= z[j:j + n_count] == d
        out[w] = [int(np.count_nonzero(mask[:x])) for x in xs]
    return out


def vp(p: int, x) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_p_bruteforce(p: int, x) -> Fraction:
    """The unique c/p^m in [0, 1) with x - c/p^m p-integral, by search."""
    x = Fraction(x)
    m, den = 0, x.denominator
    while den % p == 0:
        den //= p
        m += 1
    mod = p**m
    for c in range(mod):
        if (x - Fraction(c, mod)).denominator % p != 0:
            return Fraction(c, mod)
    raise AssertionError(f"no p-adic fractional part for {x} at p = {p}")


def denominator_in_b(b: int, x) -> bool:
    """True when every prime factor of the denominator divides b."""
    den = Fraction(x).denominator
    while den > 1:
        g = math.gcd(den, b)
        if g == 1:
            return False
        while den % g == 0:
            den //= g
    return True


def corner_set(ctx: AdeleContext, d: int, r: int) -> set[Fraction]:
    """Level-r corners of the digit-d tile: d/alpha + sum_{j=2}^r e_j alpha^-j."""
    alpha = Fraction(ctx.base.a, ctx.base.b)
    out = set()
    for tail in itertools.product(range(ctx.base.a), repeat=r - 1):
        c = d / alpha
        for j, e in enumerate(tail, start=2):
            c += e * alpha**-j
        out.add(c)
    return out


def urysohn_bruteforce(ctx: AdeleContext, d: int, r: int, z) -> Fraction:
    """Tent sum for f_{d,r}(Phi(z)) with brute-force translate matching.

    For each corner, candidate lattice translates are enumerated over the
    full integer grid scaled by the b-part of the offset's denominator, and
    the p-adic ball match is decided by raw valuations.  No modular
    inverses, no coset representatives.
    """
    a, b = ctx.base.a, ctx.base.b
    h = Fraction(b, a) ** r
    total = Fraction(0)
    for x_c in corner_set(ctx, d, r):
        delta = Fraction(z) - x_c
        den_b = 1
        den = delta.denominator
        for p, _ in ctx.primes:
            while den % p == 0:
                den //= p
                den_b *= p
        lo = math.ceil((delta - h) * den_b)
        hi = math.floor((delta + h) * den_b)
        for u in range(lo, hi + 1):
            y = Fraction(u, den_b)
            diff = delta - y
            if diff != 0 and any(vp(p, diff) < r * e for p, e in ctx.primes):
                continue
            ov = h - abs(diff)
            if ov > 0:
                total += ov
    return Fraction(a, b) ** r * total


def ball_char_integral(p: int, e: int, r: int, xi: Fraction) -> complex:
    """Integral of e(lambda_p(-u xi)) over p^(re) Z_p as an exact finite sum."""
    re = r * e
    if xi == 0:
        return complex(p**-re, 0.0)
    m = max(0, -vp(p, xi) - re)
    acc = 0 + 0j
    for j in range(p**m):
        ph = float(frac_p_bruteforce(p, Fraction(-(p**re) * j) * xi))
        acc += cmath.exp(2j * math.pi * ph)
    return (p**-re) * acc / p**m


def coeff_g_quadrature(ctx: AdeleContext, x, r: int, xi) -> complex:
    """Bump coefficient by quadrature of the real tent times exact ball sums."""
    from scipy.integrate import quad

    a, b = ctx.base.a, ctx.base.b
    h = float(Fraction(b, a) ** r)
    xi = Fraction(xi)
    xf = float(xi)
    re_i = quad(lambda u: (h - abs(u)) * math.cos(2 * math.pi * xf * u),
                -h, h, limit=600)[0]
    im_i = quad(lambda u: (h - abs(u)) * math.sin(2 * math.pi * xf * u),
                -h, h, limit=600)[0]
    val = complex(re_i, im_i)
    for p, e in ctx.primes:
        val *= ball_char_integral(p, e, r, xi)
    ph = float(Fraction(x) * xi) + sum(
        float(frac_p_bruteforce(p, -Fraction(x) * xi)) for p, _ in ctx.primes)
    return float(Fraction(a, b) ** r) * val * cmath.exp(2j * math.pi * ph)


def interior_disjoint(rects) -> bool:
    """Exact interior-disjointness of equal-sized axis-aligned rectangles."""
    if not rects:
        return True
    w_real = rects[0].real_hi - rects[0].real_lo
    w_fib = rects[0].fiber_hi - rects[0].fiber_lo
    for rc in rects:
        if rc.real_hi - rc.real_lo != w_real or rc.fiber_hi - rc.fiber_lo != w_fib:
            raise AssertionError("rectangle sizes are not uniform")
    by_row: dict[Fraction, list[Fraction]] = {}
    for rc in rects:
        by_row.setdefault(rc.fiber_lo, []).append(rc.real_lo)
    fibs = sorted(by_row)
    for lo, nxt in zip(fibs, fibs[1:]):
        if nxt - lo < w_fib and nxt != lo:
            raise AssertionError("fiber rows are not aligned")
    for xs in by_row.values():
        xs.sort()
        for x, y in zip(xs, xs[1:]):
            if y - x < w_real:
                return False
    return True


def random_rational(rng, num_range: int, denominators) -> Fraction:
    return Fraction(rng.randint(-num_range, num_range), rng.choice(denominators))


# ---------------------------------------------------------------------------
# Fraction reference geometry: the library's box, tile, tube and fiber
# routines as they were before they moved to integers over a^r.


def _point(ctx: AdeleContext, z) -> AdelePoint:
    return z if isinstance(z, AdelePoint) else AdelePoint.diagonal(ctx, z)


def corner_ref(ctx: AdeleContext, residues) -> Fraction:
    """sum_k e_k alpha^(-k) by Fraction Horner."""
    a, b = ctx.base.a, ctx.base.b
    acc = Fraction(0)
    for e in reversed(tuple(residues)):
        acc = (acc + e) * b / a
    return acc


def residue_digits_ref(ctx: AdeleContext, q: Fraction, r: int):
    """(e_1..e_r, y) with q = sum_k e_k alpha^(-k) + y and y in Z[1/b]."""
    a, b = ctx.base.a, ctx.base.b
    t = q * Fraction(a, b) ** r
    den = t.denominator
    rem = den
    for p, _ in ctx.primes:
        while rem % p == 0:
            rem //= p
    if rem != 1:
        raise ValueError(f"{q} is not a level-{r} corner for base {ctx.base}")
    mod = a**r
    x = (t.numerator * pow(den, -1, mod)) % mod
    x = (x * pow(b, r, mod)) % mod  # now x = sum e_k b^k a^(r-k) mod a^r
    digs = []
    for j in range(r, 0, -1):
        aj = a**j
        e = (x * pow(b, -j, a)) % a
        digs.append(e)
        x = (x - e * pow(b, j, aj)) % aj
        x //= a
    digs.reverse()
    e_vec = tuple(digs)
    return e_vec, q - corner_ref(ctx, e_vec)


def reduce_mod_lattice_ref(ctx: AdeleContext, z) -> tuple[Fraction, AdelePoint]:
    """y = sum_p lambda_p(z_p) + floor(z_oo - sum_p lambda_p(z_p)) as Fraction
    sums, with the residual z - Phi(y)."""
    z = _point(ctx, z)
    lam = sum((frac_p(p, z.padic[p]) for p, _ in ctx.primes), Fraction(0))
    y = lam + math.floor(z.real - lam)
    return y, AdelePoint(real=z.real - y, padic={p: z.padic[p] - y for p, _ in ctx.primes})


def locate_box_ref(ctx: AdeleContext, z, r: int) -> BoxLocation:
    """Scale by alpha^r, reduce mod the lattice, scale back, peel residues."""
    z = _point(ctx, z)
    ar = Fraction(ctx.base.a, ctx.base.b) ** r
    scaled = AdelePoint(real=z.real * ar, padic={p: z.padic[p] * ar for p, _ in ctx.primes})
    w, _ = reduce_mod_lattice_ref(ctx, scaled)
    corner = w / ar
    residues, translate = residue_digits_ref(ctx, corner, r)
    return BoxLocation(level=r, corner=corner, residues=residues, translate=translate)


def cover_census_ref(ctx: AdeleContext, z, r: int) -> tuple[int, bool]:
    """Locate the box, then check the closed-box containment in Fractions:
    z_oo - c in [0, alpha^(-r)) and v_p(z_p - c) >= r v_p(b) for each p."""
    z = _point(ctx, z)
    corner = locate_box_ref(ctx, z, r).corner
    off = z.real - corner
    if not 0 <= off < Fraction(ctx.base.b, ctx.base.a) ** r:
        raise AssertionError("located box fails the real containment check")
    for p, e in ctx.primes:
        diff = z.padic[p] - corner
        if diff != 0 and vp(p, diff) < r * e:
            raise AssertionError("located box fails the p-adic containment check")
    return (2, True) if off == 0 else (1, False)


def tile_corners_ref(ctx: AdeleContext, d: int, r: int) -> tuple[Fraction, ...]:
    """Tile corners by Fraction sums, sorted."""
    step = Fraction(ctx.base.b, ctx.base.a)
    corners = [d * step]
    for k in range(2, r + 1):
        corners = [c + e * step**k for c in corners for e in range(ctx.base.a)]
    return tuple(sorted(corners))


def _crt_digit_ref(ctx: AdeleContext, u: Fraction) -> int:
    """The residue of a p-integral rational modulo b, via CRT over p | b."""
    residue, modulus = 0, 1
    for p, e in ctx.primes:
        pe = p**e
        rp = (u.numerator * pow(u.denominator, -1, pe)) % pe
        inc = ((rp - residue) * pow(modulus, -1, pe)) % pe
        residue += modulus * inc
        modulus *= pe
    return residue


def fiber_value_ref(ctx: AdeleContext, x, depth: int, scheme: str) -> Fraction:
    """Fiber coordinate of x truncated at `depth`, by Fraction digit peeling."""
    a, b = ctx.base.a, ctx.base.b
    x = Fraction(x)
    if x == 0:
        k, digits = 0, [0] * (depth + 1)
    else:
        k = 0
        for p, e in ctx.primes:
            v = vp(p, x)
            k = min(k, v // e if v < 0 else 0)
        u = x * (Fraction(a, b) ** k if scheme == "alpha-digits" else Fraction(1, b) ** k)
        digits = []
        for _ in range(k, depth + 1):
            d = _crt_digit_ref(ctx, u)
            digits.append(d)
            u = (u - d) * a / b if scheme == "alpha-digits" else (u - d) / b
    bf = Fraction(b)
    shift = 0 if scheme == "alpha-digits" else 1
    return sum((d * bf ** (-j - shift) for j, d in enumerate(digits, start=k)), Fraction(0))


def fiber_interval_ref(ctx: AdeleContext, c, r: int,
                       scheme: str = "alpha-digits") -> tuple[Fraction, Fraction]:
    lo = fiber_value_ref(ctx, c, r - 1, scheme)
    b = ctx.base.b
    width = Fraction(b) ** (1 - r) if scheme == "alpha-digits" else Fraction(1, b**r)
    return lo, lo + width


def boundary_tubes_ref(ctx: AdeleContext, r: int, resolution: int) -> dict[int, BoundaryTube]:
    """Boundary tubes with every digit read through residue_digits_ref."""
    a, b = ctx.base.a, ctx.base.b
    W = Fraction((a - 1) * b, a - b)
    width = Fraction(b, a) ** r
    members: dict[int, set[Fraction]] = {d: set() for d in range(a)}
    for e_vec in itertools.product(range(a), repeat=r):
        corner = corner_ref(ctx, e_vec)
        right_digit = residue_digits_ref(ctx, corner + width, r)[0][0]
        certified: set[int] = set()
        for rho in range(r + 1, resolution + 1):
            m = rho - r
            u = Fraction(b**r, a**rho)
            present = {residue_digits_ref(ctx, corner + s * u, rho)[0][0]
                       for s in range(-math.floor(W * b**m), a**m + 1)}
            for d in range(a):
                if d == e_vec[0]:
                    if right_digit == d and present <= {d}:
                        certified.add(d)
                elif right_digit != d and d not in present:
                    certified.add(d)
            if len(certified) == a:
                break
        for d in range(a):
            if d not in certified:
                members[d].add(corner)
    return {d: BoundaryTube(digit=d, level=r, resolution=resolution,
                            members=frozenset(members[d])) for d in range(a)}


# ---------------------------------------------------------------------------
# Fraction reference Fourier coefficients: coeff_g and coeff_f as they were
# before they moved to integer residues of m = xi b^r, each coefficient kept
# in the pieces scale, osc, phase and factor_sum and evaluated by the formula
# those pieces were read with, and the direct corner sum.


def _from_pieces(xi: Fraction, scale: Fraction, osc: Fraction | None, phase: Fraction,
                 factor_sum: complex = 1.0 + 0.0j,
                 exact: Fraction | None = None) -> FourierCoefficient:
    """The coefficient worth scale * |1 - e(osc)|^2 / pi^2 * e(phase) *
    factor_sum, or exact where that is given."""
    if exact is not None:
        return FourierCoefficient(xi, complex(exact), exact)
    t = osc - math.floor(osc)
    s = math.sin(math.pi * float(min(t, 1 - t)))
    amp = 4.0 * s * s
    u = phase - math.floor(phase)
    unit = cmath.exp(2j * math.pi * float(u))
    return FourierCoefficient(
        xi, float(scale) * amp / math.pi**2 * unit * factor_sum, None)


def coeff_g_ref(ctx: AdeleContext, x, r: int, xi) -> FourierCoefficient:
    """coeff_g with Fraction powers of alpha and its phase from char_exponent."""
    x, xi = Fraction(x), Fraction(xi)
    a, b = ctx.base.a, ctx.base.b
    if xi == 0:
        return _from_pieces(xi, Fraction(0), None, Fraction(0), exact=Fraction(1, a**r))
    if (xi * b**r).denominator != 1:
        return _from_pieces(xi, Fraction(0), None, Fraction(0), exact=Fraction(0))
    osc = ctx.alpha_pow(-r) * xi
    if osc.denominator == 1:
        return _from_pieces(xi, Fraction(0), osc, Fraction(0), exact=Fraction(0))
    scale = Fraction(a**r, b ** (2 * r)) / (4 * xi * xi)
    phase = char_exponent(ctx, -x * xi)
    return _from_pieces(xi, scale, osc, phase)


def coeff_f_ref(ctx: AdeleContext, d: int, r: int, xi) -> FourierCoefficient:
    """coeff_f with Fraction powers of alpha and char_exponent per level."""
    xi = Fraction(xi)
    a, b = ctx.base.a, ctx.base.b
    if not 0 <= d < a:
        raise ValueError(f"digit {d} outside alphabet")
    if xi == 0:
        return _from_pieces(xi, Fraction(0), None, Fraction(0), exact=Fraction(1, a))
    if (xi * b**r).denominator != 1:
        return _from_pieces(xi, Fraction(0), None, Fraction(0), exact=Fraction(0))
    osc = ctx.alpha_pow(-r) * xi
    if osc.denominator == 1:
        return _from_pieces(xi, Fraction(0), osc, Fraction(0), exact=Fraction(0))
    factor = complex(1.0)
    for k in range(2, r + 1):
        t_k = char_exponent(ctx, ctx.alpha_pow(-k) * xi)
        t_k -= math.floor(t_k)
        if t_k == 0:
            factor *= a
            continue
        if (a * t_k).denominator == 1:
            # nontrivial a-th root of unity: the geometric sum is exactly 0
            return _from_pieces(xi, Fraction(0), osc, Fraction(0), exact=Fraction(0))
        s = sum(cmath.exp(-2j * math.pi * float((e * t_k) % 1)) for e in range(a))
        factor *= s
    scale = Fraction(a**r, b ** (2 * r)) / (4 * xi * xi)
    phase = char_exponent(ctx, -Fraction(d * b, a) * xi)
    return _from_pieces(xi, scale, osc, phase, factor_sum=factor)


def coeff_f_sum(ctx: AdeleContext, d: int, r: int, xi) -> complex:
    """Direct summation of coeff_g over the tile corners (small-r route)."""
    return sum(coeff_g(ctx, x, r, xi).value for x in tile_corners(ctx, d, r))


def urysohn_series_ref(ctx: AdeleContext, d: int, r: int, z, cutoff: int) -> float:
    """The symmetric partial character sum with the phase from char_exponent
    and every coefficient from coeff_f_ref."""
    a, b = ctx.base.a, ctx.base.b
    theta = char_exponent(ctx, Fraction(z) / b**r)
    theta -= math.floor(theta)
    P, Q = theta.numerator, theta.denominator
    total = 1.0 / a
    for m in range(1, cutoff + 1):
        c = coeff_f_ref(ctx, d, r, Fraction(m, b**r)).value
        if c == 0:
            continue
        ang = 2.0 * math.pi * ((m * P) % Q) / Q
        total += 2.0 * (c * complex(math.cos(ang), math.sin(ang))).real
    return total


def urysohn_series_decimal(ctx: AdeleContext, d: int, r: int, z, cutoff: int,
                           digits: int = 50) -> tuple[Decimal, Decimal]:
    """The symmetric partial character sum in `digits`-digit Decimal, taking
    coeff_f_ref's float coefficients as exact values, with its mass
    1/a + 2 sum |c_m|: what rounding in the float sum is measured against."""
    a, b = ctx.base.a, ctx.base.b
    theta = char_exponent(ctx, Fraction(z) / b**r)
    theta -= math.floor(theta)
    P, Q = theta.numerator, theta.denominator
    with localcontext() as context:
        context.prec = digits
        pi = _decimal_pi()
        units: dict[int, tuple[Decimal, Decimal]] = {}
        total = mass = 1 / Decimal(a)
        for m in range(1, cutoff + 1):
            c = coeff_f_ref(ctx, d, r, Fraction(m, b**r)).value
            if c == 0:
                continue
            j = m * P % Q
            if j not in units:
                ang = 2 * pi * j / Q
                units[j] = (_decimal_sin(pi / 2 - ang), _decimal_sin(ang))
            cos, sin = units[j]
            total += 2 * (Decimal(c.real) * cos - Decimal(c.imag) * sin)
            mass += 2 * Decimal(abs(c))
        return +total, +mass



def _decimal_pi() -> Decimal:
    """pi to the context precision, by the series of the decimal module's recipes."""
    getcontext().prec += 2
    three = Decimal(3)
    lasts, t, total, n, na, d, da = 0, three, three, 1, 0, 0, 24
    while total != lasts:
        lasts = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        total += t
    getcontext().prec -= 2
    return +total


def _decimal_sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, to the context precision."""
    getcontext().prec += 2
    i, lasts, total, fact, num, sign = 1, 0, x, 1, x, 1
    while total != lasts:
        lasts = total
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign = -sign
        total += num / fact * sign
    getcontext().prec -= 2
    return +total


def bump_coefficient_decimal(a: int, r: int, m: int, digits: int = 400) -> Decimal:
    """c_{0,r,m/b^r} = a^r / (4 m^2) |1 - e(m / a^r)|^2 / pi^2, with
    |1 - e(t)|^2 = 4 sin^2(pi t) summed as a series at t = (m mod a^r) / a^r
    itself, to `digits` digits: sin(pi t) near pi loses about log10(a^r)
    of them, 154 at 3^322."""
    ar = a**r
    with localcontext() as context:
        context.prec = digits
        pi = _decimal_pi()
        return ar * _decimal_sin(pi * (m % ar) / ar) ** 2 / (pi * pi * m * m)

# ---------------------------------------------------------------------------
# Fraction reference SVG: tiles_svg as it was before its coordinates moved to
# integers over a common denominator.


def tiles_svg_ref(rects, px_per_unit: int = 160, fiber_px: int = 360,
                  pad: int = 12) -> str:
    """tiles_svg with every coordinate scaled and shifted as a Fraction."""
    from ratbase.render import _PALETTE

    if not rects:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1" '
                'viewBox="0 0 1 1"></svg>\n')
    x0 = min(R.real_lo for R in rects)
    x1 = max(R.real_hi for R in rects)
    y0 = min(R.fiber_lo for R in rects)
    y1 = max(R.fiber_hi for R in rects)
    sx = Fraction(px_per_unit)
    sy = Fraction(fiber_px) / (y1 - y0) if y1 > y0 else Fraction(1)
    width = float((x1 - x0) * sx) + 2 * pad
    height = float((y1 - y0) * sy) + 2 * pad

    def fx(v: Fraction) -> str:
        return format(float((v - x0) * sx) + pad, ".3f")

    def fy(v: Fraction) -> str:
        return format(float((y1 - v) * sy) + pad, ".3f")

    digits = sorted({R.digit for R in rects})
    style = "".join(
        f".d{d}{{fill:{_PALETTE[d % len(_PALETTE)]};stroke:none}}" for d in digits)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" '
        f'height="{height:.3f}" viewBox="0 0 {width:.3f} {height:.3f}">',
        f"<style>{style}</style>",
    ]
    for R in rects:
        w = format(float((R.real_hi - R.real_lo) * sx), ".3f")
        h = format(float((R.fiber_hi - R.fiber_lo) * sy), ".3f")
        out.append(f'<rect class="d{R.digit}" x="{fx(R.real_lo)}" '
                   f'y="{fy(R.fiber_hi)}" width="{w}" height="{h}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Hand-built serializers: each table and record as it was written before the
# package routed them all through one CSV writer and one JSON writer.


def tiles_csv_ref(rects) -> str:
    lines = ["translate,digit,real_lo,real_hi,fiber_lo,fiber_hi"]
    for R in rects:
        lines.append(f"{R.translate},{R.digit},{R.real_lo},{R.real_hi},"
                     f"{R.fiber_lo},{R.fiber_hi}")
    return "\n".join(lines) + "\n"


def report_csv_ref(rows) -> str:
    lines = ["N,S_w,main_term,residual,residual_norm"]
    for r in rows:
        lines.append(f"{r.N},{r.s_w},{r.main_term!r},{r.residual!r},{r.residual_norm!r}")
    return "\n".join(lines) + "\n"


def report_json_ref(rows) -> str:
    recs = [
        {"N": r.N, "S_w": r.s_w, "main_term": r.main_term,
         "residual": r.residual, "residual_norm": r.residual_norm}
        for r in rows
    ]
    return json.dumps(recs, indent=2) + "\n"


def coefficient_table_ref(digits, r: int, f_values) -> str:
    """The CSV that coefficient_table built from the (m, values) pairs of
    fourier._f_values."""
    rows: list[list[str]] = [[] for _ in digits]
    for m, values in f_values:
        for row, d, v in zip(rows, digits, values):
            row.append(f"{m},{r},{d},{v.real!r},{v.imag!r},{abs(v)!r}")
    lines = ["xi_numerator,r,digit,re,im,abs"]
    for row in rows:
        lines += row
    return "\n".join(lines) + "\n"


def patterns_record_ref(base: Base, pattern, stats) -> str:
    """The record of `patterns --format json` without --horizons or --k."""
    return json.dumps({
        "base": f"{base.a}/{base.b}",
        "pattern": str(pattern),
        "N": stats.N,
        "total": stats.total,
        "per_position": {str(k): v for k, v in stats.per_position.items()},
        "padded_per_position": {str(k): v
                                for k, v in stats.padded_per_position.items()},
    }, indent=2) + "\n"


def lo_ref(a: int, b: int, q: int, k: int) -> int:
    """lo_k(q), the least n with T^k(n) >= q: k ceiling divisions ceil(a q / b)."""
    for _ in range(k):
        q = -(-a * q // b)
    return q


def family_sums_ref(a: int, b: int, first: int, step: int, lefts) -> list[int]:
    """By level j, sum_(t < lefts[j]) |{n : T^j(n) = q_t}| with q_t = first + step*t:
    each term and its successor walked up from level 0, one ceiling division
    a level, as far as the deepest level that sums it."""
    sums = [0] * len(lefts)
    depth = len(lefts)
    for t in range(max(lefts, default=0)):
        while lefts[depth - 1] <= t:
            depth -= 1
        lo = first + step * t
        hi = lo + 1
        for j in range(depth):
            if lefts[j] > t:
                sums[j] += hi - lo
            lo, hi = -(-a * lo // b), -(-a * hi // b)
    return sums
