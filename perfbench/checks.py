"""Output checks for every operation, each against something other than the
timed call.

Independent oracles where they are cheap: a plain digit recurrence for the
numeration calls and round trips, brute-force digit scans for pattern
counts and stream windows, the corner lattice a^(-r) Z[1/b] for face
detection, a closed form for decimal digit sums, eval_urysohn_direct for
the series, and the golden SVG.  Everything else is compared with values
frozen in frozen.json, drawn from the finite pools in workloads.py; floats
are compared within a tolerance (see text_record).

A check never raises: a wrong answer, a missing frozen value or an
exception stored as the result all read as a failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from workloads import Op, word_digits

_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")
# counts that verify reports as measurements rather than checks
_MEASURED = re.compile(r"\d+ (escalations|unresolved)")
BLOCK = 256
RTOL, ATOL = 1e-10, 1e-13


def split_floats(text: str) -> tuple[str, list[float]]:
    """The text with every float replaced by "~", and the floats in order."""
    values: list[float] = []

    def take(m: re.Match) -> str:
        values.append(float(m.group()))
        return "~"
    return _FLOAT.sub(take, text), values


def block_sums(values: list[float]) -> list[tuple[float, float]]:
    """(sum of w x, its tolerance) over consecutive blocks of the values.

    A short output (at most 64 floats) has one value per block, so each is
    compared on its own scale; a long table is summed in blocks of BLOCK
    with fixed weights in [1, 2), so swapped rows change the sums too.
    """
    size = 1 if len(values) <= 64 else BLOCK
    out = []
    for lo in range(0, len(values), size):
        w = [1.0 + (i * 0.6180339887498949) % 1.0 for i in range(lo, lo + size)]
        block = values[lo:lo + size]
        out.append((math.fsum(wi * x for wi, x in zip(w, block)),
                    math.fsum(wi * (RTOL * abs(x) + ATOL) for wi, x in zip(w, block))))
    return out


def _fingerprint(text: str) -> tuple[str, list[tuple[float, float]]]:
    skeleton, values = split_floats(_MEASURED.sub(r"~ \1", text))
    return hashlib.sha256(skeleton.encode()).hexdigest(), block_sums(values)


def text_record(text: str) -> dict:
    """What frozen.json keeps of one command's output.

    The text itself with floats and measured counts masked, by digest, and
    the floats as block sums.  Floats are then compared within RTOL of
    their size plus ATOL, near-zero ones included, so a reordered or
    vectorized sum still passes while a wrong value beyond about 1e-9
    fails.
    """
    digest, sums = _fingerprint(text)
    return {"text": digest, "sums": [s for s, _ in sums]}


def text_matches(text: str, want: dict) -> bool:
    digest, got = _fingerprint(text)
    return (digest == want["text"] and len(got) == len(want["sums"])
            and all(abs(s - ref) <= tol for (s, tol), ref in zip(got, want["sums"])))


def coeff_key(a: int, b: int, d: int, r: int, m: int) -> str:
    return f"{a}/{b} {d} {r} {m}"


def decimal_digit_sum_total(N: int) -> int:
    """Sum of the decimal digit sums of 1..N, digit position by position."""
    total, p = 0, 1
    while p <= N:
        high, cur, low = N // (10 * p), (N // p) % 10, N % p
        total += high * 45 * p + cur * (cur - 1) // 2 * p + cur * (low + 1)
        p *= 10
    return total


def fiber_key(a: int, b: int, residues: tuple[int, ...]) -> str:
    return f"{a}/{b} {''.join(map(str, residues))}"


def tube_key(a: int, b: int, r: int, resolution: int) -> str:
    return f"{a}/{b} {r} {resolution}"


def tube_record(tubes: dict) -> dict:
    """What frozen.json keeps of one boundary_tubes result."""
    members = [sorted(tubes[d].members) for d in sorted(tubes)]
    return {"sizes": [len(m) for m in members],
            "digest": hashlib.sha256(repr(members).encode()).hexdigest()}


def valuation(p: int, x: Fraction) -> int:
    """p-adic valuation of a nonzero rational."""
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def is_level_corner(a: int, b: int, z: Fraction, r: int) -> bool:
    """Whether z is a level-r box corner, i.e. z a^r lies in Z[1/b]."""
    den = (z * a**r).denominator
    den //= math.gcd(den, b**den.bit_length())
    return den == 1


class Checker:
    """Judges one result per call; holds the oracles' lazily built tables."""

    def __init__(self, ratbase, frozen: dict, golden_svg: bytes | None):
        self.lib = ratbase
        self.frozen = frozen
        self.golden_svg = golden_svg
        self._digit_tables: dict = {}
        self._count_tables: dict = {}
        self._streams: dict = {}
        self._contexts: dict = {}

    def __call__(self, op: Op, result) -> bool:
        if isinstance(result, BaseException):
            return False
        try:
            return bool(getattr(self, "_" + op.kind)(op, result))
        except Exception:  # a malformed result is a failed operation
            return False

    # -- numeration ---------------------------------------------------------
    def _encode(self, op, word):
        a, b, n = op.args
        return tuple(word.digits) == word_digits(a, b, n)

    def _decode(self, op, n):
        return n == op.expect

    def _digit(self, op, d):
        a, b, n, k = op.args
        lsf = word_digits(a, b, n)[::-1]
        return d == (lsf[k] if k < len(lsf) else 0)

    def _length(self, op, ell):
        a, b, n = op.args
        return ell == len(word_digits(a, b, n))

    def _sum_of_digits(self, op, s):
        a, b, n = op.args
        return s == sum(word_digits(a, b, n))

    # -- patterns -----------------------------------------------------------
    def _digit_table(self, a: int, b: int, n_max: int):
        """Padded least-significant-first digits of 0..n_max, and lengths."""
        key = (a, b, n_max)
        if key not in self._digit_tables:
            words = [word_digits(a, b, n)[::-1] for n in range(n_max + 1)]
            width = max(len(w) for w in words) + 4
            table = np.zeros((n_max + 1, width), dtype=np.int64)
            for n, w in enumerate(words):
                table[n, :len(w)] = w
            lens = np.array([len(w) for w in words], dtype=np.int64)
            self._digit_tables[key] = (table, lens)
        return self._digit_tables[key]

    def _count_pattern(self, op, stats):
        a, b, word, N = op.args
        key = (a, b, word)
        if key not in self._count_tables:
            table, lens = self._digit_table(a, b, 3000)
            t = word[::-1]
            m = len(t)
            kk = table.shape[1] - m + 1
            match = np.ones((table.shape[0], kk), dtype=bool)
            for j, tj in enumerate(t):
                match &= table[:, j:j + kk] == tj
            match[0] = False  # n runs over 1..N
            exact = match & (lens[:, None] >= np.arange(kk)[None, :] + m)
            self._count_tables[key] = (np.cumsum(exact, axis=0),
                                       np.cumsum(match, axis=0), lens)
        exact_cum, padded_cum, lens = self._count_tables[key]
        ell, m = int(lens[N]), len(word)
        per_position = {k: int(exact_cum[N, k]) for k in range(max(ell - m, -1) + 1)}
        padded = {k: int(padded_cum[N, k]) for k in range(ell + 1)}
        return (stats.N == N and tuple(stats.pattern.word) == word
                and dict(stats.per_position) == per_position
                and dict(stats.padded_per_position) == padded
                and stats.total == sum(per_position.values()))

    def _stream(self, a: int, b: int, m: int) -> np.ndarray:
        """z_1..z_m of the concatenated stream (index 0 holds z_1)."""
        if (a, b) not in self._streams or len(self._streams[(a, b)]) < m:
            out: list[int] = []
            n = 1
            while len(out) < m:
                out.extend(word_digits(a, b, n))
                n += 1
            self._streams[(a, b)] = np.array(out, dtype=np.int64)
        return self._streams[(a, b)][:m]

    def _champernowne_freq(self, op, count):
        a, b, word, x = op.args
        t = word[::-1]  # z_n meets the least significant pattern digit
        z = self._stream(a, b, 5000 + len(t))
        hits = np.ones(x, dtype=bool)
        for j, tj in enumerate(t):
            hits &= z[j:j + x] == tj
        return count == int(hits.sum())

    def _bulk(self, op, counts):
        _a, _b, words, _xs = op.args
        want = self.frozen["bulk"]
        return all(counts[tuple(int(c) for c in w)] == want[w] for w in words)

    # -- adelic -------------------------------------------------------------
    def _cover_census(self, op, got):
        a, b, z, r = op.args
        on_face = is_level_corner(a, b, z, r)
        return tuple(got) == ((2, True) if on_face else (1, False))

    def _locate_box(self, op, loc):
        """The half-open containment rules, and the residues rebuilding the corner."""
        a, b, n, k, r = op.args
        step = Fraction(b, a)
        z = Fraction(n * b ** (k + 2), a ** (k + 1))
        off = z - loc.corner
        if loc.level != r or not 0 <= off < step**r:
            return False
        if off != 0 and any(valuation(p, off) < r * valuation(p, Fraction(b))
                            for p in prime_factors(b)):
            return False
        e = tuple(loc.residues)
        if len(e) != r or not all(0 <= x < a for x in e):
            return False
        canonical = sum((x * step ** (i + 1) for i, x in enumerate(e)), Fraction(0))
        t = loc.translate
        return (loc.corner - t == canonical
                and t.denominator == math.gcd(t.denominator, b ** t.denominator.bit_length()))

    def _fiber_interval(self, op, got):
        a, b, residues = op.args
        lo, hi = got
        return f"{lo} {hi}" == self.frozen["fiber_interval"][fiber_key(a, b, residues)]

    def _tile_corners(self, op, got):
        """Every corner d/alpha + sum_{k>=2} e_k alpha^-k, by plain enumeration."""
        a, b, d, r = op.args
        step = Fraction(b, a)
        want = sorted(d * step + sum((e * step ** (k + 2) for k, e in enumerate(es)),
                                     Fraction(0))
                      for es in itertools.product(range(a), repeat=r - 1))
        return tuple(got) == tuple(want)

    def _boundary_tubes(self, op, got):
        return tube_record(got) == self.frozen["boundary_tubes"][tube_key(*op.args)]

    # -- fourier ------------------------------------------------------------
    def _context(self, a: int, b: int):
        if (a, b) not in self._contexts:
            self._contexts[(a, b)] = self.lib.AdeleContext(self.lib.Base(a, b))
        return self._contexts[(a, b)]

    def _coeff_f(self, op, coef):
        # whether .exact is set is measured (exact_share), not checked; where
        # it is set it must agree with the value
        want = complex(*self.frozen["coeff_f"][coeff_key(*op.args)])
        value = coef.value
        if coef.exact is not None and value != complex(coef.exact):
            return False
        return abs(value - want) <= RTOL * abs(want) + ATOL

    def _series(self, op, got):
        a, b, r, cutoff, d, z = op.args
        ctx = self._context(a, b)
        bound = self.lib.series_tail_bound(ctx, r, cutoff) + 1e-9
        return abs(got.value - float(self.lib.eval_urysohn_direct(ctx, d, r, z))) <= bound

    def _estimate(self, op, value):
        word = "".join(str(c) for c in op.args[2])
        return str(value) == self.frozen["estimate"][word]

    # -- command line -------------------------------------------------------
    def _cli(self, op, got):
        rc, out = got
        if rc != 0:
            return False
        argv = " ".join(op.args)
        if op.check == "frozen":
            if op.args[0] == "verify" and not all(
                    ": PASS" in line for line in out.splitlines()):
                return False
            return text_matches(out, self.frozen["cli"][argv])
        if op.check == "golden_svg":
            return self.golden_svg is not None and out.encode() == self.golden_svg
        if op.check == "decimal_sod":
            return int(out) == decimal_digit_sum_total(int(op.args[-1]))
        if op.check == "stream":
            a, b, m = int(op.args[2]), int(op.args[4]), int(op.args[6])
            return out == "".join(map(str, self._stream(a, b, m).tolist())) + "\n"
        return False
