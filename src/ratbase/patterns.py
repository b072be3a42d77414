"""Digit-pattern statistics and the concatenation stream for a rational base.

S_{k,w}(N) counts n <= N whose word contains pattern w ending at digit
position k (position 0 is least significant) with the window fully inside
the word; the primed variant S'_{k,w}(N) matches against zero-padded digits
eps_k(n) = 0 for k >= length(n).  Summing over k gives S_w(N), which grows
like N * a^(-|w|) * log_alpha(N).

Counting is exact for every N and never visits the integers one by one.
It rests on the map T(n) = floor(b n / a) (Akiyama, Frougny and Sakarovitch,
Israel J. Math. 168, 2008):

- eps_k(n) = b T^k(n) mod a, and the m digits of n from position k up are the
  m lowest digits of q = T^k(n), which fix q mod a^m and are fixed by it;
  so a window w is a single residue r_w = H(w_(m-1)..w_0) b^(-m) mod a^m,
  H the Horner numerator of numeration (b^m q = H + a^m T^m(q)).
- T is nondecreasing, so {n : T^k(n) = q} is an interval
  [lo_k(q), lo_k(q + 1)) with lo(q) = ceil(a q / b).
- lo_k(q + b^k) = lo_k(q) + a^k: interval sizes repeat with period b^k.

A count is then whole periods times a^k plus left_k < b^k interval sizes
summed directly, about N^(log b / log a) terms over all positions; b = 1
costs O(log N).  The positions of a count sweep prefixes of one progression
of q.  The levels j <= J of the tree (b^J <= 2^10) are tabled once per base,
and below J once per step too, as prefix sums of the sizes in the order the
progression meets them, so a leftover below J is two reads a level; a term
summed at J or above jumps to level J in one step and is walked up from
there once, to the deepest position that sums it:
sum_(j>J) max_(i>=j) left_i steps, not sum_k k left_k.
The RATBASE_MAX_ENUM budget is charged the sweep length sum_k left_k, not N.
A window opening with 0 has r_w < lo_{m-1}(1): its exact progression starts
at r_w + a^m, the padded one without its first term.  count_pattern walks
only the padded one and subtracts the interval of q = r_w at each position,
one upward walk of r_w and r_w + 1; it still charges both sweeps.

The stream z_1 z_2 z_3 ... concatenates the words of 1, 2, 3, ... in print
order.  gamma_w(x) counts positions n <= x with (z_{n+|w|-1}, ..., z_n) = w,
the window convention under which the stream's digit statistics mirror the
per-word counts.  gamma runs on the same engine: windows inside words are
counts of the reversed pattern, a window across one word boundary is a
residue class counted in closed form over each word length, and the
O(|w| log x) windows across more boundaries or near x are read directly.
It is charged its sweep plus those direct reads, so x reaches about 10^12
under the default budget.  Only the paths that print digits build a stream
prefix, one band of equal-length words at a time on the same T(n) tree,
and they are charged its length.

numpy is imported by the walks above the tables of 32 or more terms, at
any N (in int64 while b*N + a fits, Python integers beyond), and by the
prefix builder, at their first call, so importing ratbase does not load it;
the tables are arrays of the standard library, which numpy reads in place.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .adelic import _check_budget, _csv, _json, _Strict
from .numeration import (Base, _check_digits, _horner, _read_digits, encode,
                         format_digits, length)

if TYPE_CHECKING:
    import numpy as np

_BLOCK = 1 << 16
_VECTOR_MIN = 32
_INT64_MAX = (1 << 63) - 1
_TABLE_SPAN = 1 << 10  # the tables of _low_levels stop at b^J <= this
_TABLE_BASES = 64  # the tables held at once: a base's lo tables, or one step's


@dataclass(frozen=True)
class Pattern:
    """A digit window over {0..a-1}, most significant first; leading zeros allowed."""

    base: Base
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        if not self.word:
            raise ValueError("pattern must be nonempty")
        _check_digits(self.base, self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return format_digits(self.base, self.word)

    @classmethod
    def parse(cls, base: Base, text: str) -> "Pattern":
        return cls(base, _read_digits(text))

    @property
    def lsf(self) -> tuple[int, ...]:
        """Digits reindexed least-significant-first (w_0, w_1, ...)."""
        return tuple(reversed(self.word))


class PatternStats(_Strict, namedtuple(
        "_Fields", "pattern N per_position padded_per_position total")):
    """Counts for one pattern up to N, each per-position field a dict from k
    to its count: an immutable 5-tuple equal only to another PatternStats."""

    __slots__ = ()


def _residue(base: Base, w_lsf: Sequence[int]) -> int:
    """The residue r_w mod a^m of the q whose m lowest digits are w_0..w_{m-1}.

    b^m q = H(w_(m-1)..w_0) + a^m T^m(q), so r_w = H b^(-m) mod a^m.
    """
    a, b = base.a, base.b
    mod = a ** len(w_lsf)
    return _horner(a, b, w_lsf[::-1]) * pow(b, -len(w_lsf), mod) % mod


@functools.lru_cache(maxsize=_TABLE_BASES)
def _low_levels(a: int, b: int, s: int) -> tuple[array, ...]:
    """P_j(i) = sum_(t < i) size_j(s t mod b^j) for 0 <= i <= b^j, one
    array('q') a level, size_j(r) = lo_j(r + 1) - lo_j(r).

    s = 1 gives P_j = lo_j at each level j <= J, the deepest with
    b^J <= _TABLE_SPAN and a^J < 2^62, so every entry fits int64: at most
    2 _TABLE_SPAN + J + 1 entries (16 KiB).  Any other s, prime to b and
    reduced mod b^J, permutes each level's sizes; its levels j < J are built
    from those of s = 1, at most _TABLE_SPAN + J entries (8 KiB, built in
    about 0.2 ms when b = 2).  Every b^j steps sum to a^j, so P_j(b^j) = a^j
    and P_j(i) = a^j floor(i / b^j) + P_j(i mod b^j) for every i >= 0.
    """
    if s != 1:
        tables = []
        for lo in _low_levels(a, b, 1)[:-1]:
            bj = len(lo) - 1
            sizes = [y - x for x, y in zip(lo, lo[1:])]
            steps = [sizes[x % bj] for x in range(0, s * bj, s)]  # s t mod b^j
            tables.append(array("q", itertools.accumulate(steps, initial=0)))
        return tuple(tables)
    levels = [array("q", (0, 1))]
    bj, aj = 1, 1
    while bj * b <= _TABLE_SPAN and aj * a < 1 << 62:
        # lo(lo_j(r)) over 0 <= r < b^(j+1), lo_j read off its period
        period = levels[-1].tolist()[:-1]
        level = [(a * (aj * m + x) + b - 1) // b for m in range(b) for x in period]
        level.append(aj * a)
        levels.append(array("q", level))
        bj, aj = bj * b, aj * a
    return tuple(levels)


def _lo(a: int, b: int, q, k: int):
    """lo_k(q), the least n with T^k(n) >= q: q a^k when b = 1."""
    if b == 1:
        return q * a**k
    for _ in range(k):
        q = -(-a * q // b)
    return q


def _family_sums(a: int, b: int, first: int, step: int, lefts: list[int],
                 N: int) -> list[int]:
    """List by j of sum_(t < lefts[j]) |{n : T^j(n) = q_t}|, q_t = first + step*t.

    The tree's low levels are tabled once per base and step (_low_levels).
    step is a power of a, so prime to b, and q_t = step (i0 + t) mod b^j with
    i0 = first step^(-1): below J level j's lefts[j] < b^j sizes are a run of
    its table, a^j w + P_j(i1) - P_j(i0) with i0 + lefts[j] = w b^j + i1
    (i0 mod b^j), two reads.  A term summed at J or above jumps to level J
    in one step, lo_J(q) = a^J floor(q / b^J) + lo_J(q mod b^J), and is
    walked on from there, lo_(j+1) = lo(lo_j), to the deepest D with
    lefts[D] > t.  So a sweep takes two reads a level below J plus, above J,
    one jump a term and sum_(j>J) max_(i>=j) lefts[i] steps; the budget is
    charged sum_j lefts[j] all the same.  q_t < T^D(N), so every value kept
    is at most N.

    An upper walk of under _VECTOR_MIN terms runs on Python integers; a
    longer one runs on numpy, so numpy loads exactly when the walk above J
    reaches _VECTOR_MIN terms.  It runs in blocks, each sliced to the terms
    the next level keeps before it steps and not stepped past its last
    summed level: a product a*x is then taken only of a kept x with
    ceil(a*x/b) <= N, so it is at most b*N, and the blocks are int64 while
    b*N + a fits and Python integers (dtype object) beyond.
    """
    levels = _low_levels(a, b, 1)
    J = len(levels) - 1
    bJ, s = b**J, step % b**J
    tables = _low_levels(a, b, s) if s > 1 else levels
    i0 = first * pow(step, -1, bJ) % bJ  # q_0 = step i0 mod b^J
    sums = [0] * len(lefts)
    aj = bj = 1
    for j, left in enumerate(lefts[:J]):
        prefix, i = tables[j], i0 % bj
        w, i1 = divmod(i + left, bj)
        sums[j] = aj * w + prefix[i1] - prefix[i]
        aj, bj = aj * a, bj * b
    width = list(itertools.accumulate(lefts[J:][::-1], max))[::-1]  # max_(i>=J+j) lefts[i]
    if not width or not width[0]:
        return sums
    aJ, top = a**J, levels[J]
    if width[0] < _VECTOR_MIN:
        depth = len(width)
        for t in range(width[0]):
            while width[depth - 1] <= t:
                depth -= 1
            d, r = divmod(first + step * t, bJ)
            lo, hi = aJ * d + top[r], aJ * d + top[r + 1]
            for j in range(J, J + depth):
                if j > J:
                    lo, hi = -(-a * lo // b), -(-a * hi // b)
                if lefts[j] > t:
                    sums[j] += hi - lo
        return sums
    import numpy as np
    dtype = np.int64 if b * N + a <= _INT64_MAX else object
    top = np.frombuffer(top, dtype=np.int64)
    for start in range(0, width[0], _BLOCK):
        stop = min(start + _BLOCK, width[0])
        q = np.arange(first + step * start, first + step * (stop - 1) + 1, step,
                      dtype=dtype)
        d = q // bJ
        r = (q - d * bJ).astype(np.int64)  # object arrays have no divmod
        d *= aJ
        lo, hi = d + top[r], d + top[r + 1]
        for i in range(len(width)):
            if lefts[J + i] > start:
                n = lefts[J + i] - start
                sums[J + i] += int((hi[:n] - lo[:n]).sum())
            keep = (width[i + 1] if i + 1 < len(width) else 0) - start
            if keep <= 0:
                break
            lo, hi = lo[:keep], hi[:keep]
            for v in (lo, hi):  # v = lo(v), in place
                v *= -a
                v //= b
                np.negative(v, out=v)
    return sums


def _progression_counts(base: Base, firsts: Sequence[int], step: int, N: int,
                        k: int | None = None, extra: int = 0) -> list[list[int]]:
    """#{1 <= n <= N : T^k(n) in f + step*Z>=0} for each first term f, at
    position k, or by position over 0..length(N) when k is None.

    The q = T^k(n) below Q = T^k(N) contribute whole intervals whose sizes
    repeat with period b^k in q and sum to a^k over a period; since
    gcd(step, b) = 1, every b^k consecutive progression terms make one
    period.  Fewer than b^k leftover terms are summed directly, q = Q adds
    the part of its interval up to N, and n = 0 sits in the interval of q = 0.
    A first term f that follows f - step in firsts is not walked: its
    progression lacks only the term f - step, whose n fill
    [lo_k(f - step), lo_k(f - step + 1)) up to N, so one upward walk of those
    two values gives its counts at every position.  The leftover sweep
    lengths of every first term, walked or not, are charged to the budget
    before any walk runs, in one check with the caller's `extra` work.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    a, b = base.a, base.b
    orbit = [N]  # T^k(N) down to the first zero
    while orbit[-1]:
        orbit.append(b * orbit[-1] // a)
    # a position past length(N) counts as length(N) does: T^k(N) = 0 at both
    ks = range(len(orbit)) if k is None else [min(k, len(orbit) - 1)]
    counts, lefts, ends = [], [], []  # by first term; lefts by position from 0
    for i, f in enumerate(firsts):
        row, left = [], [0] * (ks[-1] + 1)
        bk, ak = b ** ks[0], a ** ks[0]
        for j, k in enumerate(ks):
            below, rest = divmod(orbit[k] - f, step)
            if below < 0:  # f > T^k(N), here and at every later position
                break
            # below + (rest > 0) terms lie under T^k(N), itself a term if not rest
            full, left[k] = divmod(below + (rest > 0), bk)
            row.append(full * ak - (f == 0))
            if not rest:
                ends.append((i, j, k))
            bk, ak = bk * b, ak * a
        counts.append(row + [0] * (len(ks) - len(row)))
        lefts.append(left)
    _check_budget(sum(map(sum, lefts)) + extra)
    # a term T^k(N) adds its interval up to N: lo_k's k steps wait for the check
    for i, j, k in ends:
        counts[i][j] += N + 1 - (_lo(a, b, orbit[k], k) if orbit[k] else 0)
    for i, f in enumerate(firsts):
        if f - step in firsts:
            lo, hi = _lo(a, b, f - step, ks[0]), _lo(a, b, f - step + 1, ks[0])
            for j, c in enumerate(counts[firsts.index(f - step)]):
                counts[i][j] = c - (min(N + 1, hi) - lo if lo <= N else 0) + (f == step)
                lo, hi = -(-a * lo // b), -(-a * hi // b)
        elif any(lefts[i]):
            sums = _family_sums(a, b, f, step, lefts[i], N)
            counts[i] = [c + sums[k] for c, k in zip(counts[i], ks)]
    return counts


def _window_starts(base: Base, w_lsf: Sequence[int]) -> tuple[int, int]:
    """First terms (exact, padded) of the q = T^k(n) progressions, step a^m.

    The window matches at position k exactly when q = T^k(n) is r_w mod a^m.
    Its top digit is real when T^(m-1)(q) >= 1, i.e. q >= lo_{m-1}(1) <= a^(m-1),
    so the exact count skips the term r_w when it lies below.
    """
    m = len(w_lsf)
    r = _residue(base, w_lsf)
    return (r + base.a ** m if r < _lo(base.a, base.b, 1, m - 1) else r), r


def count_pattern_at(base: Base, pattern: Pattern, k: int, N: int,
                     padded: bool = False) -> int:
    """S_{k,w}(N), or S'_{k,w}(N) with padded=True."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    r_exact, r = _window_starts(base, pattern.lsf)
    first = r if padded else r_exact
    return _progression_counts(base, [first], base.a ** len(pattern), N, k)[0][0]


def count_pattern(base: Base, pattern: Pattern, N: int) -> PatternStats:
    """All per-position counts for w up to N, plus the total S_w(N).

    Exact positions run over 0 <= k <= length(N) - |w|; padded positions are
    reported for 0 <= k <= length(N) (count_pattern_at serves larger k).
    """
    m = len(pattern)
    r_exact, r = _window_starts(base, pattern.lsf)
    firsts = [r] if r == r_exact else [r, r_exact]
    counts = _progression_counts(base, firsts, base.a ** m, N)
    padded, exact = counts[0], counts[-1]
    per_position = dict(enumerate(exact[:max(len(padded) - m, 0)]))
    return PatternStats(pattern, N, per_position, dict(enumerate(padded)),
                        sum(per_position.values()))


def summatory_sod(base: Base, N: int) -> int:
    """Sum of s(n) for 1 <= n <= N; equals sum_d d * S'_{(d)}(N) over positions."""
    residues = [_residue(base, (d,)) for d in range(1, base.a)]
    counts = _progression_counts(base, residues, base.a, N)
    return sum(d * sum(row) for d, row in enumerate(counts, 1))


def champernowne_digits(base: Base, m: int) -> list[int]:
    """First m digits of the stream."""
    return champernowne_prefix_array(base, m).tolist()


def champernowne_prefix_array(base: Base, m: int) -> np.ndarray:
    """First m stream digits as an int8 array (int64 when a > 128).

    The words of length L are the n in [lo, ceil(a lo / b)), each its parent
    T(n)'s word, one band down, plus the digit b n mod a: one gather of parent
    rows and one digit column per band, from the empty word of 0 up to the
    band holding digit m.  O(m) work, and about twice the output at the peak.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_budget(m)
    import numpy as np
    a, b = base.a, base.b
    dtype = np.int8 if a <= 128 else np.int64
    words = np.empty((1, 0), dtype=dtype)  # the band of 0, first n = 0
    bands = [words.ravel()]
    first, lo, left = 0, 1, m
    while left > 0:
        L, hi = words.shape[1] + 1, -(-a * lo // b)
        bn = b * np.arange(lo, min(hi, lo - (-left // L)), dtype=np.int64)
        words = np.column_stack((words[bn // a - first], (bn % a).astype(dtype)))
        bands.append(words.ravel()[:left])
        first, lo, left = lo, hi, left - words.size
    return np.concatenate(bands)


def champernowne_freq(base: Base, pattern: Pattern, x: int) -> int:
    """gamma_w(x): window matches (z_{n+|w|-1}, ..., z_n) = w for n <= x."""
    return champernowne_freq_bulk(base, [pattern], [x])[pattern.word][0]


def champernowne_freq_bulk(base: Base, patterns: Sequence[Pattern],
                           checkpoints: Sequence[int]) -> dict[tuple[int, ...], list[int]]:
    """gamma_w at several x for several w, each counted on the T(n) engine.

    Each list holds the counts in the order the checkpoints are given.  Every
    count is charged its sweep, as a pattern count is, and the digits it
    reads directly.
    """
    if not patterns:
        raise ValueError("patterns must be nonempty")
    xs = list(checkpoints)
    if any(x < 0 for x in xs):
        raise ValueError("checkpoints must be nonnegative")
    return {p.word: [_gamma(base, p.lsf, x) for x in xs] for p in patterns}


def _gamma(base: Base, w: tuple[int, ...], x: int) -> int:
    """gamma(x) for the window with z_{i+j} = w[j], counted exactly.

    Word n starts after P(n) = sum_j max(0, n - lo_j(1)) stream digits, so
    the windows of words 1..M all start at or before x for the largest M
    with P(M + 1) <= x.  A window starting in word n <= M, with s digits
    of n in it, lies
    - inside n (s >= m): the reversed pattern at an exact position of n;
    - across one boundary (the rest of it opens word n + 1): n is one class
      mod a^s, and T^j(n + 1) = V for the word V the rest spells, with
      j = L(n + 1) - (m - s), puts n + 1 in [lo_j(V), lo_j(V + 1));
    - across more: it holds the whole word n + 1, which fixes n, and the
      window is read directly, like the windows starting in word M + 1.
    """
    a, b = base.a, base.b
    m = len(w)
    first, P, L = 1, 0, 1  # first = lo_(L-1)(1), P = P(first)
    while True:
        nxt = -(-a * first // b)
        if P + (nxt - first) * L > x:
            break
        P += (nxt - first) * L
        first, L = nxt, L + 1
    M = first - 1 + (x - P) // L  # word M + 1 has L digits
    tail = x - P - (M + 1 - first) * L  # windows starting in word M + 1
    L_M = L - (M < first)  # length(M); past L_M - m no word holds w
    reads = []
    for s in range(1, min(m - 2, L_M) + 1):
        for ell in range(1, min(m - 1 - s, L) + 1):
            V = _value(base, w[s:s + ell])
            if V is not None and 2 <= V <= M + 1:
                reads.append((V - 1, s))
    r_exact, _ = _window_starts(base, w[::-1])  # the reversed pattern
    # the direct reads and the tail are charged with the sweep, in one check
    read = m * len(reads) + (tail + m - 1 if tail else 0)
    count = sum(_progression_counts(base, [r_exact], a**m, M, extra=read)[0])
    for s in range(max(1, m - L), min(m - 1, L_M) + 1):
        V = _value(base, w[s:])
        if V is None:
            continue
        mod, rho = a**s, _residue(base, w[s - 1::-1])
        least = _lo(a, b, 1, s - 1)  # the first n with s digits
        lo, hi = V, V + 1
        while lo <= M + 1:
            top, bottom = min(M, hi - 2), max(least, lo - 1)
            if top >= bottom:
                count += (top - rho) // mod - (bottom - 1 - rho) // mod
            lo, hi = -(-a * lo // b), -(-a * hi // b)
    for n, s in reads:
        skip = length(base, n) - s
        if skip >= 0 and _read(base, n, skip, m) == w:
            count += 1
    if tail:
        z = _read(base, M + 1, 0, tail + m - 1)
        count += sum(z[i:i + m] == w for i in range(tail))
    return count


def _value(base: Base, word: tuple[int, ...]) -> int | None:
    """The integer a word names, or None when it opens with 0 or names none."""
    if word[0] == 0:
        return None
    n, rest = divmod(_horner(base.a, base.b, word), base.b ** len(word))
    return None if rest else n


def _read(base: Base, n: int, skip: int, count: int) -> tuple[int, ...]:
    """count stream digits, starting skip digits into the word of n."""
    out: list[int] = []
    while len(out) < skip + count:
        out.extend(encode(base, n).digits)
        n += 1
    return tuple(out[skip:skip + count])


class ReportRow(_Strict, namedtuple("_Fields", "N s_w main_term residual residual_norm")):
    """One horizon of a growth report: an immutable 5-tuple equal only to another ReportRow."""

    __slots__ = ()


def asymptotic_report(base: Base, pattern: Pattern,
                      horizons: Sequence[int]) -> list[ReportRow]:
    """S_w against its main term N a^(-|w|) log_alpha N at several horizons.

    residual_norm divides the residual by N log log N (natural logs), so each
    horizon must satisfy log log N > 0, i.e. N >= 16.  The floats of a row
    are computed from N and S_w as floats, so a horizon where any of them,
    or a product on the way, exceeds the largest float (about 1.8e308) is
    refused once it is counted.
    """
    rows = []
    log_alpha = math.log(base.a) - math.log(base.b)
    for N in horizons:
        if N < 16:
            raise ValueError("horizons must be >= 16 so that log log N > 0")
        s_w = count_pattern(base, pattern, N).total
        try:
            main = N * base.a ** (-len(pattern)) * math.log(N) / log_alpha
            residual = s_w - main
            scale = N * math.log(math.log(N))
            finite = all(map(math.isfinite, (main, residual, scale)))
        except OverflowError:  # N or S_w is no float; a float product gives inf
            finite = False
        if not finite:
            raise ValueError("horizons must keep the report's floats below about "
                             "1.8e308, the largest float")
        rows.append(ReportRow(N, s_w, main, residual, residual / scale))
    return rows


_REPORT_HEADER = ("N", "S_w", "main_term", "residual", "residual_norm")


def report_csv(rows: Iterable[ReportRow]) -> str:
    return _csv(_REPORT_HEADER, rows)


def report_json(rows: Iterable[ReportRow]) -> str:
    return _json([dict(zip(_REPORT_HEADER, row)) for row in rows])
