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
of q, so each leftover term is walked up the tree once, to the deepest
position that sums it: sum_j max_(i>=j) left_i steps, not sum_k k left_k.
The RATBASE_MAX_ENUM budget is charged the sweep length sum_k left_k, not N.

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

numpy is imported by the leftover walks of 32 or more terms, at any N (in
int64 while a*N fits, Python integers beyond), and by the prefix builder,
at their first call, so importing ratbase does not load it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .adelic import _check_budget
from .numeration import (Base, _horner, encode, format_digits, length,
                         parse_digits)

if TYPE_CHECKING:
    import numpy as np

_BLOCK = 1 << 16
_VECTOR_MIN = 32
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Pattern:
    """A digit window over {0..a-1}, most significant first; leading zeros allowed."""

    base: Base
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        if not self.word:
            raise ValueError("pattern must be nonempty")
        for d in self.word:
            if not 0 <= d < self.base.a:
                raise ValueError(f"digit {d} outside alphabet of base {self.base}")

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return format_digits(self.base, self.word)

    @classmethod
    def parse(cls, base: Base, text: str) -> "Pattern":
        return cls(base, parse_digits(base, text))

    @property
    def lsf(self) -> tuple[int, ...]:
        """Digits reindexed least-significant-first (w_0, w_1, ...)."""
        return tuple(reversed(self.word))


@dataclass(frozen=True)
class PatternStats:
    """Per-position counts for one pattern up to a horizon N."""

    pattern: Pattern
    N: int
    per_position: dict[int, int]
    padded_per_position: dict[int, int]
    total: int


def _residue(base: Base, w_lsf: Sequence[int]) -> int:
    """The residue r_w mod a^m of the q whose m lowest digits are w_0..w_{m-1}.

    b^m q = H(w_(m-1)..w_0) + a^m T^m(q), so r_w = H b^(-m) mod a^m.
    """
    a, b = base.a, base.b
    mod = a ** len(w_lsf)
    return _horner(a, b, w_lsf[::-1]) * pow(b, -len(w_lsf), mod) % mod


def _lo(a: int, b: int, q, k: int):
    """lo_k(q), the least n with T^k(n) >= q."""
    for _ in range(k):
        q = -(-a * q // b)
    return q


def _family_sums(a: int, b: int, first: int, step: int, lefts: dict[int, int],
                 N: int) -> list[int]:
    """List by j of sum_(t < lefts[j]) |{n : T^j(n) = q_t}|, q_t = first + step*t.

    lo_(j+1) = lo(lo_j): q_t and q_t + 1 are walked up once, to the deepest
    D with lefts[D] > t, where q_t < T^D(N); so every value kept is at most
    N.  Sweeps under _VECTOR_MIN terms use Python integers; longer ones use
    numpy blocks, each walked as deep as its first term needs, of int64
    while a*N fits and of Python integers (dtype object) beyond.
    """
    lefts = [lefts.get(j, 0) for j in range(max(lefts) + 1)]
    width = list(itertools.accumulate(lefts[::-1], max))[::-1]  # max_(i>=j) lefts[i]
    sums = [0] * len(lefts)
    if width[0] < _VECTOR_MIN:
        for t in range(width[0]):
            lo, hi = first + step * t, first + step * t + 1
            for j, w in enumerate(width):
                if w <= t:
                    break
                if lefts[j] > t:
                    sums[j] += hi - lo
                lo, hi = -(-a * lo // b), -(-a * hi // b)
        return sums
    import numpy as np
    dtype = np.int64 if a * N <= _INT64_MAX else object
    for start in range(0, width[0], _BLOCK):
        stop = min(start + _BLOCK, width[0])
        lo = np.arange(first + step * start, first + step * stop, step, dtype=dtype)
        hi = lo + 1
        for j, w in enumerate(width):
            if w <= start:
                break
            lo, hi = lo[:w - start], hi[:w - start]
            if lefts[j] > start:
                n = lefts[j] - start
                sums[j] += int((hi[:n] - lo[:n]).sum())
            for q in (lo, hi):  # q = lo(q), in place
                q *= -a
                q //= b
                np.negative(q, out=q)
    return sums


def _progression_counts(base: Base, jobs: Sequence[tuple[int, int]], step: int,
                        N: int) -> list[int]:
    """#{1 <= n <= N : T^k(n) in first + step*Z>=0} for each job (k, first).

    The q = T^k(n) below Q = T^k(N) contribute whole intervals whose sizes
    repeat with period b^k in q and sum to a^k over a period; since
    gcd(step, b) = 1, every b^k consecutive progression terms make one
    period.  Fewer than b^k leftover terms are summed directly, q = Q adds
    the part of its interval up to N, and n = 0 sits in the interval of q = 0.
    Jobs with one first term share one walk.  The leftover sweep lengths,
    not the walk steps, are charged to the budget before any runs.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    a, b = base.a, base.b
    orbit = [N]  # T^k(N) down to the first zero
    while orbit[-1]:
        orbit.append(b * orbit[-1] // a)
    plans, lefts = [], {}  # lefts: per first term, left by position
    for k, first in jobs:
        Q = orbit[k] if k < len(orbit) else 0
        below = -(-(Q - first) // step) if Q > first else 0
        full, left = divmod(below, b ** k) if below else (0, 0)
        plans.append((k, first, Q, full, left))
        if left:
            lefts.setdefault(first, {})[k] = left
    _check_budget(sum(plan[-1] for plan in plans))
    sums = {first: _family_sums(a, b, first, step, row, N)
            for first, row in lefts.items()}
    counts = []
    for k, first, Q, full, left in plans:
        c = sums[first][k] if left else 0
        if full:
            c += full * a ** k
        if Q >= first and (Q - first) % step == 0:
            c += N + 1 - (_lo(a, b, Q, k) if Q else 0)
        counts.append(c - (first == 0))
    return counts


def _window_starts(base: Base, pattern: Pattern) -> tuple[int, int]:
    """First terms (exact, padded) of the q = T^k(n) progressions, step a^m.

    The window matches at position k exactly when q = T^k(n) is r_w mod a^m.
    Its top digit is real when T^(m-1)(q) >= 1, i.e. q >= lo_{m-1}(1) <= a^(m-1),
    so the exact count skips the term r_w when it lies below.
    """
    m = len(pattern)
    r = _residue(base, pattern.lsf)
    return (r + base.a ** m if r < _lo(base.a, base.b, 1, m - 1) else r), r


def count_pattern_at(base: Base, pattern: Pattern, k: int, N: int,
                     padded: bool = False) -> int:
    """S_{k,w}(N), or S'_{k,w}(N) with padded=True."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    r_exact, r = _window_starts(base, pattern)
    job = (k, r if padded else r_exact)
    return _progression_counts(base, [job], base.a ** len(pattern), N)[0]


def count_pattern(base: Base, pattern: Pattern, N: int) -> PatternStats:
    """All per-position counts for w up to N, plus the total S_w(N).

    Exact positions run over 0 <= k <= length(N) - |w|; padded positions are
    reported for 0 <= k <= length(N) (count_pattern_at serves larger k).
    """
    ell = length(base, N)
    exact_ks = range(max(ell - len(pattern), -1) + 1)
    r_exact, r = _window_starts(base, pattern)
    jobs = sorted({(k, r_exact) for k in exact_ks} | {(k, r) for k in range(ell + 1)})
    counts = dict(zip(jobs, _progression_counts(base, jobs, base.a ** len(pattern), N)))
    per_position = {k: counts[k, r_exact] for k in exact_ks}
    return PatternStats(
        pattern=pattern,
        N=N,
        per_position=per_position,
        padded_per_position={k: counts[k, r] for k in range(ell + 1)},
        total=sum(per_position.values()),
    )


def summatory_sod(base: Base, N: int) -> int:
    """Sum of s(n) for 1 <= n <= N; equals sum_d d * S'_{(d)}(N) over positions."""
    digits = range(1, base.a)
    residues = [_residue(base, (d,)) for d in digits]
    jobs = [(k, r) for k in range(length(base, N)) for r in residues]
    counts = _progression_counts(base, jobs, base.a, N)
    return sum(d * c for d, c in zip(itertools.cycle(digits), counts))


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
    L_M = length(base, M)
    r_exact, _ = _window_starts(base, Pattern(base, w))
    jobs = [(k, r_exact) for k in range(L_M - m + 1)]
    count = sum(_progression_counts(base, jobs, a**m, M))
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
    reads = []
    for s in range(1, min(m - 2, L_M) + 1):
        for ell in range(1, min(m - 1 - s, L) + 1):
            V = _value(base, w[s:s + ell])
            if V is not None and 2 <= V <= M + 1:
                reads.append((V - 1, s))
    _check_budget(m * len(reads) + (tail + m - 1 if tail else 0))
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


@dataclass(frozen=True)
class ReportRow:
    N: int
    s_w: int
    main_term: float
    residual: float
    residual_norm: float


def asymptotic_report(base: Base, pattern: Pattern,
                      horizons: Sequence[int]) -> list[ReportRow]:
    """S_w against its main term N a^(-|w|) log_alpha N at several horizons.

    residual_norm divides the residual by N log log N (natural logs), so each
    horizon must satisfy log log N > 0, i.e. N >= 16.
    """
    rows = []
    log_alpha = math.log(base.a) - math.log(base.b)
    for N in horizons:
        if N < 16:
            raise ValueError("horizons must be >= 16 so that log log N > 0")
        s_w = count_pattern(base, pattern, N).total
        main = N * base.a ** (-len(pattern)) * math.log(N) / log_alpha
        residual = s_w - main
        rows.append(ReportRow(
            N=N,
            s_w=s_w,
            main_term=main,
            residual=residual,
            residual_norm=residual / (N * math.log(math.log(N))),
        ))
    return rows


def report_csv(rows: Iterable[ReportRow]) -> str:
    lines = ["N,S_w,main_term,residual,residual_norm"]
    for r in rows:
        lines.append(f"{r.N},{r.s_w},{r.main_term!r},{r.residual!r},{r.residual_norm!r}")
    return "\n".join(lines) + "\n"


def report_json(rows: Iterable[ReportRow]) -> str:
    recs = [
        {"N": r.N, "S_w": r.s_w, "main_term": r.main_term,
         "residual": r.residual, "residual_norm": r.residual_norm}
        for r in rows
    ]
    return json.dumps(recs, indent=2) + "\n"
