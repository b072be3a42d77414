"""Positional numeration in a rational base a/b.

Fix coprime integers a > b >= 1 with a >= 2 and write alpha = a/b.  Every
positive integer n has a unique expansion

    n = (1/b) * sum_{k=0}^{L-1} eps_k * alpha**k,   eps_k in {0, ..., a-1},

with nonzero leading digit eps_{L-1}.  Digits come out of the division
recurrence b*n = eps_0 + a*n', eps_0 = (b*n) mod a, so the least significant
digit is determined first.  For b = 1 this is ordinary base-a numeration.

Words are stored most-significant-first, matching how they print.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class NotInLanguage(ValueError):
    """A digit word whose rational value is not a nonnegative integer."""


@dataclass(frozen=True)
class Base:
    """A rational base a/b with gcd(a, b) = 1 and a > b >= 1."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("base parts must be integers")
        if self.a < 2 or self.b < 1 or self.a <= self.b:
            raise ValueError(f"need a > b >= 1 and a >= 2, got {self.a}/{self.b}")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"a and b must be coprime, got {self.a}/{self.b}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.b)

    def primes_of_b(self) -> tuple[tuple[int, int], ...]:
        """Prime factorization of b as ((p, v_p(b)), ...); empty for b = 1."""
        out = []
        m = self.b
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out.append((p, e))
            p += 1
        if m > 1:
            out.append((m, 1))
        return tuple(out)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


def _check_digits(base: Base, digits: Sequence[int]) -> Sequence[int]:
    """The one alphabet check: digits, or a ValueError at the first outside 0..a-1."""
    a = base.a
    for d in digits:
        if not 0 <= d < a:
            raise ValueError(f"digit {d} outside alphabet of base {base}")
    return digits


@dataclass(frozen=True)
class DigitWord:
    """A digit string over {0..a-1}, most significant digit first.

    The empty word represents 0; otherwise the leading digit is nonzero.
    """

    base: Base
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        _check_digits(self.base, self.digits)
        if self.digits and self.digits[0] == 0:
            raise ValueError("leading digit must be nonzero")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i):
        return self.digits[i]

    def __str__(self) -> str:
        return format_digits(self.base, self.digits)

    @classmethod
    def parse(cls, base: Base, text: str) -> "DigitWord":
        return cls(base, _read_digits(text))


# byte d to the character of digit d for d < 10, and every other byte to
# 0xff, which ASCII decoding refuses
_DIGIT_CHARS = b"0123456789" + b"\xff" * 246


def format_digits(base: Base, digits: Sequence[int]) -> str:
    """Serialize digits: plain ASCII when a <= 10, else "(d,d,...)".

    In the ASCII form a digit outside 0..9 is a ValueError.
    """
    if base.a <= 10:
        return bytes(digits).translate(_DIGIT_CHARS).decode("ascii")
    return "(" + ",".join(str(d) for d in digits) + ")"


def parse_digits(base: Base, text: str) -> tuple[int, ...]:
    """Inverse of format_digits; accepts either form for any base."""
    return _check_digits(base, _read_digits(text))


def _read_digits(text: str) -> tuple[int, ...]:
    """The digits of either form of format_digits, unchecked against a base."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return ()
        parts = [p.strip() for p in inner.split(",")]
        if any(not re.fullmatch(r"\d+", p) for p in parts):
            raise ValueError(f"malformed digit tuple {text!r}")
        return tuple(int(p) for p in parts)
    if not re.fullmatch(r"\d*", text):
        raise ValueError(f"malformed digit string {text!r}")
    return tuple(int(c) for c in text)


def encode(base: Base, n: int) -> DigitWord:
    """Digit word of a nonnegative integer; encode(base, 0) is the empty word."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = base.a, base.b
    lsf = []
    while n > 0:
        bn = b * n
        lsf.append(bn % a)
        n = bn // a
    # the recurrence's digits lie in 0..a-1 with a nonzero lead: skip the checks
    word = object.__new__(DigitWord)
    object.__setattr__(word, "base", base)
    object.__setattr__(word, "digits", tuple(reversed(lsf)))
    return word


def _horner(a: int, b: int, digits: Sequence[int]) -> int:
    """H(d_0..d_(L-1)) = sum_i d_i b^i a^(L-1-i), by Horner in a: b^L times the
    value of the word d_0..d_(L-1).  adelic reads box corners off it and
    patterns the residue classes of digit windows."""
    num, bi = 0, 1
    for d in digits:
        num = num * a + d * bi
        bi *= b
    return num


def word_value(word: DigitWord) -> Fraction:
    """Exact rational value (1/b) * sum eps_k alpha^k of a word."""
    return Fraction(_horner(word.base.a, word.base.b, word.digits),
                    word.base.b ** len(word.digits))


def decode(word: DigitWord) -> int:
    """Integer named by a word; raises NotInLanguage if the value is fractional."""
    b = word.base.b
    n, rest = divmod(_horner(word.base.a, b, word.digits), b ** len(word.digits))
    if rest:
        raise NotInLanguage(f"word {word} has value {word_value(word)}, not an integer")
    return n


def digit(base: Base, n: int, k: int) -> int:
    """Padded digit eps_k(n): zero for k >= length(n)."""
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    a, b = base.a, base.b
    for _ in range(k):
        if n == 0:
            return 0
        n = (b * n) // a
    return (b * n) % a


def length(base: Base, n: int) -> int:
    """Number of digits L(n); zero for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = base.a, base.b
    ell = 0
    while n > 0:
        n = (b * n) // a
        ell += 1
    return ell


def sum_of_digits(base: Base, n: int) -> int:
    """Digit sum s(n); satisfies s(n) = b*n mod (a-b) when a-b >= 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = base.a, base.b
    s = 0
    while n > 0:
        bn = b * n
        s += bn % a
        n = bn // a
    return s
