"""Digit expansions: frozen values, serialization, and arithmetic laws."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratbase import (
    Base,
    DigitWord,
    NotInLanguage,
    decode,
    digit,
    encode,
    format_digits,
    length,
    parse_digits,
    sum_of_digits,
    word_value,
)
from helpers import BASES, literal_value, word_digits

WORDS_32 = ["2", "21", "210", "212", "2101", "2120", "2122", "21011", "21200", "21202"]
SOD_32 = [2, 3, 3, 5, 4, 5, 7, 5, 5, 7]

bases_st = st.sampled_from(BASES)


class TestBaseValidation:
    def test_accepts_coprime_pairs(self):
        for base in BASES:
            assert base.a > base.b >= 1

    @pytest.mark.parametrize("a,b", [(4, 2), (6, 3), (9, 6)])
    def test_rejects_common_factor(self, a, b):
        with pytest.raises(ValueError):
            Base(a, b)

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 3), (1, 1), (3, 0), (0, 1), (-3, 2)])
    def test_rejects_bad_ordering(self, a, b):
        with pytest.raises(ValueError):
            Base(a, b)

    @pytest.mark.parametrize("a,b", [(3.0, 2), (3, Fraction(2)), ("3", 2)])
    def test_rejects_non_integer_parts(self, a, b):
        with pytest.raises(TypeError, match="integers"):
            Base(a, b)

    def test_alpha(self, b32):
        assert b32.alpha == Fraction(3, 2)


class TestFrozenTable:
    def test_first_ten_words(self, b32):
        got = [format_digits(b32, encode(b32, n).digits) for n in range(1, 11)]
        assert got == WORDS_32

    def test_zero_is_the_empty_word(self, b32):
        w = encode(b32, 0)
        assert w.digits == ()
        assert decode(w) == 0
        assert format_digits(b32, ()) == ""
        assert parse_digits(b32, "") == ()

    def test_sum_of_digits_values(self, b32):
        assert [sum_of_digits(b32, n) for n in range(1, 11)] == SOD_32

    def test_integer_base_matches_ordinary_decimal(self):
        b10 = Base(10, 1)
        assert format_digits(b10, encode(b10, 2026).digits) == "2026"
        assert sum_of_digits(b10, 2026) == 10


class TestSerialization:
    def test_parse_roundtrip_small_alphabet(self, b32):
        for n in range(0, 200):
            text = format_digits(b32, encode(b32, n).digits)
            assert parse_digits(b32, text) == encode(b32, n).digits

    def test_digits_outside_ten_are_refused_in_ascii(self, b32):
        assert format_digits(Base(10, 1), tuple(range(10))) == "0123456789"
        for bad in (10, 200, 255, 256, -1):
            with pytest.raises(ValueError):
                format_digits(b32, (1, bad, 0))

    def test_wide_alphabet_uses_tuple_form(self):
        b12 = Base(12, 1)
        w = encode(b12, 1511)  # digits 10, 5, 11
        text = format_digits(b12, w.digits)
        assert text == "(10,5,11)"
        assert parse_digits(b12, text) == (10, 5, 11)

    @pytest.mark.parametrize("text", ["2x1", "(2,", "(3,1", "2 1x", "(a)", "-1"])
    def test_malformed_text_raises(self, b32, text):
        with pytest.raises(ValueError):
            parse_digits(b32, text)

    def test_out_of_range_digit_raises(self, b32):
        with pytest.raises(ValueError):
            parse_digits(b32, "231")

    def test_digit_word_rejects_leading_zero(self, b32):
        with pytest.raises(ValueError):
            DigitWord(b32, (0, 2))

    def test_digit_word_rejects_digit_outside_alphabet(self, b32):
        with pytest.raises(ValueError):
            DigitWord(b32, (3,))


class TestValueAndDecode:
    def test_word_value_matches_literal_sum(self, b32):
        for n in range(1, 400):
            w = encode(b32, n)
            assert word_value(w) == literal_value(b32, w.digits) == n

    def test_decode_rejects_non_integer_words(self, b32):
        for text in ["1", "11", "22", "121"]:
            word = DigitWord(b32, parse_digits(b32, text))
            assert word_value(word).denominator > 1
            with pytest.raises(NotInLanguage):
                decode(word)

    def test_not_in_language_is_a_value_error(self):
        assert issubclass(NotInLanguage, ValueError)

    @given(bases_st, st.integers(min_value=0, max_value=10**6))
    def test_roundtrip(self, base, n):
        assert decode(encode(base, n)) == n

    @given(bases_st, st.integers(min_value=1, max_value=10**6))
    def test_recurrence_shift(self, base, n):
        # b n = eps_0 + a n', so dropping the last digit must encode n'
        w = encode(base, n)
        n_shift = (base.b * n) // base.a
        assert w.digits[:-1] == encode(base, n_shift).digits

    @given(bases_st, st.integers(min_value=1, max_value=10**6))
    def test_digits_match_reference(self, base, n):
        assert encode(base, n).digits == word_digits(base, n)


class TestDigitAccess:
    @pytest.mark.parametrize("call", [lambda b: encode(b, -1), lambda b: digit(b, -1, 0),
                                      lambda b: digit(b, 5, -1), lambda b: length(b, -1),
                                      lambda b: sum_of_digits(b, -1)],
                             ids=["encode", "digit_n", "digit_k", "length", "sum_of_digits"])
    def test_negative_arguments_are_refused(self, b32, call):
        with pytest.raises(ValueError, match="nonnegative|n >= 0"):
            call(b32)

    @given(bases_st, st.integers(min_value=1, max_value=10**5),
           st.integers(min_value=0, max_value=60))
    def test_digit_agrees_with_word(self, base, n, k):
        w = encode(base, n).digits
        expected = w[len(w) - 1 - k] if k < len(w) else 0
        assert digit(base, n, k) == expected

    @given(bases_st, st.integers(min_value=1, max_value=10**6))
    def test_length_and_sandwich(self, base, n):
        ell = length(base, n)
        assert ell == len(encode(base, n).digits)
        alpha = Fraction(base.a, base.b)
        assert Fraction(1, base.b) * alpha ** (ell - 1) <= n
        assert n <= Fraction(base.a - 1, base.a - base.b) * (alpha**ell - 1)

    @given(bases_st, st.integers(min_value=1, max_value=10**6))
    def test_sum_of_digits_congruence(self, base, n):
        m = base.a - base.b
        assert (sum_of_digits(base, n) - base.b * n) % m == 0

    @given(bases_st, st.integers(min_value=1, max_value=2000))
    def test_sum_of_digits_matches_word(self, base, n):
        assert sum_of_digits(base, n) == sum(encode(base, n).digits)

    def test_length_zero(self, b32):
        assert length(b32, 0) == 0
