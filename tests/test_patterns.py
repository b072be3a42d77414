"""Pattern counting: frozen values, engine-vs-scan agreement, stream laws."""
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratbase import (
    Base,
    DigitWord,
    NotInLanguage,
    Pattern,
    ScaleExceeded,
    asymptotic_report,
    champernowne_digits,
    champernowne_freq,
    champernowne_freq_bulk,
    champernowne_prefix_array,
    count_pattern,
    count_pattern_at,
    decode,
    length,
    report_csv,
    report_json,
    summatory_sod,
)
from ratbase.patterns import _progression_counts, _residue, _value
from helpers import (BASES, ORACLE_BASES, low_digit_classes, residue_class_count,
                     scan_count, stream_prefix, stream_scan, stream_scan_bulk,
                     stream_word_ends, word_digits)

KERNEL_BASES = [Base(3, 2), Base(5, 2), Base(10, 1)]
ENGINE_BASES = BASES + [Base(7, 6)]


class TestPatternType:
    def test_lsf_reverses_word(self, b32):
        p = Pattern(b32, (2, 1, 0))
        assert p.word == (2, 1, 0)
        assert p.lsf == (0, 1, 2)
        assert len(p) == 3

    def test_rejects_bad_digits(self, b32):
        with pytest.raises(ValueError):
            Pattern(b32, (3,))
        with pytest.raises(ValueError):
            Pattern(b32, ())

    def test_single_position_refuses_negative_k_and_n(self, b32):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            count_pattern_at(b32, Pattern(b32, (1,)), -1, 10)
        with pytest.raises(ValueError, match="N must be nonnegative"):
            count_pattern_at(b32, Pattern(b32, (1,)), 0, -1)


class TestFrozenCounts:
    def test_single_digit_at_position_zero(self, b32):
        assert count_pattern_at(b32, Pattern(b32, (2,)), 0, 10) == 4
        assert count_pattern_at(b32, Pattern(b32, (0,)), 0, 1) == 0

    def test_padded_far_position(self, b32):
        assert count_pattern_at(b32, Pattern(b32, (0,)), 9, 10, padded=True) == 10

    def test_totals(self, b32):
        assert count_pattern(b32, Pattern(b32, (2,)), 10).total == 17
        assert count_pattern(b32, Pattern(b32, (2, 1, 2, 0, 2)), 10).total == 1

    def test_summatory_sod(self, b32):
        assert summatory_sod(b32, 10) == 46
        assert summatory_sod(b32, 1) == 2


def _random_case(rng, base):
    """A window (all-zero ones included), N, and a position up to past length(N)."""
    m = rng.randint(1, 3)
    if rng.random() < 0.25:
        w = (0,) * m
    else:
        w = tuple(rng.randrange(base.a) for _ in range(m))
    N = rng.choice([0, 1, 2, 50, 400, rng.randint(3, 3000)])
    k = rng.randint(0, length(base, N) + 2)
    return w, k, N


@pytest.mark.parametrize("base", ORACLE_BASES + [Base(131, 2)], ids=str)
def test_residue_matches_digit_scan(base):
    """r_w against the q < a^m whose lowest digits read w, for m <= 6."""
    a = base.a
    rng = random.Random(f"residue {base}")
    for m in range(1, 7):
        if a**m > 120_000:
            break
        classes = low_digit_classes(base, m)
        assert len(classes) == a**m  # the m lowest digits fix q mod a^m
        words = [(0,) * m, (a - 1,) * m, (0,) * (m - 1) + (1,)]
        words += [tuple(0 if rng.random() < 0.6 else rng.randrange(1, a)
                        for _ in range(m)) for _ in range(200)]
        for w in words:
            assert _residue(base, w) == classes[w]


@pytest.mark.parametrize("base", [Base(3, 2), Base(5, 3), Base(7, 4), Base(10, 1),
                                  Base(7, 6)], ids=str)
def test_value_matches_decode(base):
    """_value against decode on every word of length <= 5 (<= 4 for a >= 7)."""
    for m in range(1, 6 if base.a < 7 else 5):
        for w in itertools.product(range(base.a), repeat=m):
            want = None
            if w[0] != 0:
                try:
                    want = decode(DigitWord(base, w))
                except NotInLanguage:
                    pass
            assert _value(base, w) == want, w


class TestKernelAgainstScan:
    @pytest.mark.parametrize("base", ENGINE_BASES, ids=lambda b: f"{b.a}_{b.b}")
    def test_fixed_cases(self, base):
        rng = random.Random(17)
        for _ in range(30):
            w, k, N = _random_case(rng, base)
            pat = Pattern(base, w)
            assert count_pattern_at(base, pat, k, N) == scan_count(base, w, k, N)
            assert count_pattern_at(base, pat, k, N, padded=True) == \
                scan_count(base, w, k, N, padded=True)

    @given(st.sampled_from(ENGINE_BASES), st.integers(0, 2000), st.booleans(),
           st.data())
    def test_property(self, base, N, padded, data):
        m = data.draw(st.integers(1, 3))
        w = tuple(data.draw(st.integers(0, base.a - 1)) for _ in range(m))
        k = data.draw(st.integers(0, length(base, N) + 2))
        pat = Pattern(base, w)
        assert count_pattern_at(base, pat, k, N, padded=padded) == \
            scan_count(base, w, k, N, padded=padded)

    # (base, w, k) at N = 20000 whose leftover sweeps are long enough to run
    # on numpy blocks; 5/2 and 10/1 only reach them far beyond a scan
    @pytest.mark.parametrize("a,b,w,k", [
        (3, 2, (1,), 9), (3, 2, (0, 0), 8), (5, 3, (1,), 6), (5, 3, (0, 0), 5),
        (7, 4, (1,), 5), (7, 4, (0, 0), 4), (7, 6, (1,), 5), (7, 6, (0, 0), 4)])
    def test_long_sweeps(self, a, b, w, k):
        base = Base(a, b)
        for padded in (False, True):
            assert count_pattern_at(base, Pattern(base, w), k, 20000, padded=padded) == \
                scan_count(base, w, k, 20000, padded=padded)

    def test_all_zero_pattern_skips_n_zero(self, b32):
        # r_w = 0 puts n = 0 in the interval of q = 0; it must not be counted
        for N in (0, 1, 2, 3, 10):
            for k in (0, 1, 4):
                assert count_pattern_at(b32, Pattern(b32, (0, 0)), k, N, padded=True) == \
                    scan_count(b32, (0, 0), k, N, padded=True)

    def test_far_position_is_constant_time(self, b32):
        zero = Pattern(b32, (0,))
        assert count_pattern_at(b32, zero, 10**9, 10, padded=True) == 10
        assert count_pattern_at(b32, zero, 10**9, 10) == 0
        assert count_pattern_at(b32, Pattern(b32, (2,)), 10**9, 10, padded=True) == 0

    def test_workers_agree(self, b32):
        # frozen from the int64 window kernel, which split N across threads
        assert count_pattern(b32, Pattern(b32, (2, 1)), 20000).total == 56986

    def test_scale_guard(self, b32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        with pytest.raises(ScaleExceeded):
            count_pattern(b32, Pattern(b32, (2,)), 10**9)


class TestFrozenKernelTotals:
    """Totals of the int64 window kernel this engine replaced, frozen before
    its removal; they check the engine where it runs, far past any scan."""

    def test_report_horizons_32(self, b32):
        rows = asymptotic_report(b32, Pattern(b32, (2, 1)),
                                 [10**4, 10**5, 10**6, 10**7, 10**8])
        assert [r.s_w for r in rows] == \
            [26661, 327839, 3898746, 45478379, 518249151]

    def test_base_74(self):
        b74 = Base(7, 4)
        pat = Pattern(b74, (3, 1))
        assert count_pattern(b74, pat, 5 * 10**6).total == 2150161
        assert count_pattern(b74, pat, 10**7).total == 4922466
        assert count_pattern(b74, pat, 10**8).total == 56670352

    def test_all_zero_pattern_52(self):
        b52 = Base(5, 2)
        for N, total, padded_total in [(10**7, 5705566, 28154766),
                                       (10**8, 65117986, 242925600)]:
            stats = count_pattern(b52, Pattern(b52, (0, 0)), N)
            assert stats.total == total
            assert sum(stats.padded_per_position.values()) == padded_total

    def test_base_76(self):
        b76 = Base(7, 6)
        assert count_pattern(b76, Pattern(b76, (5,)), 10**7).total == 124391129

    def test_summatory_sod(self, b32):
        assert summatory_sod(b32, 10**7) == 373115710
        assert summatory_sod(b32, 10**8) == 4307178841
        assert summatory_sod(Base(7, 4), 10**8) == 9329335729
        assert summatory_sod(Base(5, 2), 10**7) == 340487435
        assert summatory_sod(Base(10, 1), 10**7) == 315000001


class TestBeyondInt64:
    def test_decimal_closed_form(self):
        # digit d >= 1 fills n * 10^(n-1) places among 1..10^n - 1
        b10 = Base(10, 1)
        N = 10**30 - 1
        for d in (1, 7):
            assert count_pattern(b10, Pattern(b10, (d,)), N).total == 30 * 10**29
        assert summatory_sod(b10, N) == 45 * 30 * 10**29

    def test_padded_digits_tile_at_huge_n(self, b32):
        N = 2**70 + 12345
        ell = length(b32, N)
        for k in (ell - 12, ell - 1, ell, ell + 3):
            assert sum(count_pattern_at(b32, Pattern(b32, (d,)), k, N, padded=True)
                       for d in range(3)) == N

    def test_int64_blocks_do_not_overflow(self):
        # a*N fits int64, but a block's sum of 2^16 terms near N does not
        b112 = Base(11, 2)
        N = 8 * 10**17
        assert summatory_sod(b112, N) == 95579071283994289884
        assert count_pattern(b112, Pattern(b112, (1,)), N).total == 1794410494729627512

    def test_long_sweeps_past_int64(self):
        # a*N > 2^63 with sweeps of 32 or more terms, frozen from a walk of
        # one term at a time on Python integers
        b312 = Base(31, 2)
        N = 10**18
        assert 31 * N > 2**63
        assert summatory_sod(b312, N) == 222888982492998334087

    def test_budget_charges_the_sweep_not_n(self, b32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", str(10**6))
        N = 10**9
        assert sum(count_pattern_at(b32, Pattern(b32, (d,)), 3, N, padded=True)
                   for d in range(3)) == N


# horizons for the residue-class oracle, from n = 0 to far past int64
RESIDUE_NS = [0, 1, 2, 40, 3001, 10**6 + 3, 10**9 + 7, 2**63 + 5, 10**30 + 12345]


def _oracle_windows(base):
    """(w, k) whose period a^(k+|w|) is at most 20000: every digit, and three
    two-digit windows, at every such position."""
    top = next(K for K in itertools.count() if base.a ** (K + 1) > 20000)
    words = [(d,) for d in range(base.a)] + [(base.a - 1, 1), (0, 0), (1, 0)]
    return [(w, k) for w in words for k in range(top - len(w) + 1)]


@pytest.mark.parametrize("base", BASES, ids=str)
class TestResidueClassOracle:
    """Padded counts against one period of digit reads, at every horizon."""

    def test_count_pattern_at(self, base):
        for w, k in _oracle_windows(base):
            for N in RESIDUE_NS:
                assert count_pattern_at(base, Pattern(base, w), k, N, padded=True) == \
                    residue_class_count(base, w, k, N), (w, k, N)

    def test_count_pattern(self, base):
        # every position in one call; far horizons only where b = 1 keeps
        # the sweep inside the default budget
        Ns = RESIDUE_NS if base.b == 1 else RESIDUE_NS[:-2]
        windows = _oracle_windows(base)
        for w in dict.fromkeys(w for w, _ in windows):
            for N in Ns:
                stats = count_pattern(base, Pattern(base, w), N)
                for v, k in windows:
                    if v == w and k in stats.padded_per_position:
                        assert stats.padded_per_position[k] == \
                            residue_class_count(base, w, k, N), (w, k, N)

    def test_summatory_sod_slice(self, base):
        # summatory_sod's jobs at the positions the oracle reaches, in one call
        jobs = [(k, w[0]) for w, k in _oracle_windows(base) if len(w) == 1 and w[0]]
        for N in RESIDUE_NS:
            got = _progression_counts(base, [(k, _residue(base, (d,))) for k, d in jobs],
                                      base.a, N)
            assert got == [residue_class_count(base, (d,), k, N) for k, d in jobs], N


class TestDigitExtension:
    """Every count splits over the digit one below or one above the window,
    S'_{k,w} = sum_d S'_{k-1,(w,d)} = sum_d S'_{k,(d,w)}, at every position
    and on long numpy walks; the first 3/2 line is frozen."""

    @pytest.mark.parametrize("a,b,w,N", [(3, 2, (2, 1), 10**11),
                                         (7, 6, (3, 4), 2 * 10**8)],  # near the cap
                             ids=["3_2", "7_6"])
    def test_windows_split_over_one_more_digit(self, a, b, w, N):
        base = Base(a, b)
        stats = count_pattern(base, Pattern(base, w), N)
        lower = [count_pattern(base, Pattern(base, w + (d,)), N) for d in range(a)]
        upper = [count_pattern(base, Pattern(base, (d,) + w), N) for d in range(a)]
        for k, c in stats.padded_per_position.items():
            assert c == sum(s.padded_per_position[k] for s in upper), k
            if k:
                assert c == sum(s.padded_per_position[k - 1] for s in lower), k
        for k, c in stats.per_position.items():
            if k:
                assert c == sum(s.per_position[k - 1] for s in lower), k
        if a == 3:
            assert stats.padded_per_position[20] == 11111110219
            assert stats.total == 707936694427

    @pytest.mark.parametrize("a,b,x", [(3, 2, 10**9), (7, 6, 10**7)], ids=["3_2", "7_6"])
    def test_stream_windows_cover_every_position(self, a, b, x):
        base = Base(a, b)
        for m in (1, 2):
            words = [Pattern(base, w) for w in itertools.product(range(a), repeat=m)]
            counts = champernowne_freq_bulk(base, words, [x])
            assert sum(c for c, in counts.values()) == x, m


class TestBudgetCharges:
    """The charge is the leftover sweep length, frozen before the sweeps of
    one count shared a walk; the walk must not move it."""

    @pytest.fixture(autouse=True)
    def default_cap(self, monkeypatch):
        monkeypatch.delenv("RATBASE_MAX_ENUM", raising=False)

    @pytest.mark.parametrize("a,b,N,charge", [(3, 2, 10**11, 21137942),
                                              (7, 6, 4 * 10**7, 71716583)],
                             ids=["3_2", "7_6"])
    def test_summatory_sod_charge(self, a, b, N, charge):
        with pytest.raises(ScaleExceeded) as err:
            summatory_sod(Base(a, b), N)
        assert str(err.value) == f"enumeration of {charge} objects exceeds cap 10000000"

    def test_single_digit_count_fits_the_default_cap(self, b32):
        assert count_pattern(b32, Pattern(b32, (1,)), 10**9).total == 16063676278


class TestCountingIdentities:
    def test_padded_single_digits_tile_every_position(self, b32):
        for k in (0, 3, 9):
            total = sum(
                count_pattern_at(b32, Pattern(b32, (d,)), k, 200, padded=True)
                for d in range(3))
            assert total == 200

    def test_exact_single_digits_tile_long_numbers(self, b32):
        from ratbase import length
        for k in (0, 2, 5):
            total = sum(
                count_pattern_at(b32, Pattern(b32, (d,)), k, 200)
                for d in range(3))
            assert total == sum(1 for n in range(1, 201) if length(b32, n) >= k + 1)

    def test_stats_structure(self, b32):
        stats = count_pattern(b32, Pattern(b32, (2, 1)), 500)
        assert stats.total == sum(stats.per_position.values())
        for k, v in stats.per_position.items():
            assert v <= stats.padded_per_position[k]

    def test_sod_equals_weighted_digit_counts(self):
        for base in KERNEL_BASES:
            lhs = summatory_sod(base, 3000)
            rhs = sum(
                d * count_pattern(base, Pattern(base, (d,)), 3000).total
                for d in range(1, base.a))
            assert lhs == rhs

    def test_monotone_in_horizon(self, b32):
        pat = Pattern(b32, (2, 1))
        vals = [count_pattern(b32, pat, N).total for N in (50, 100, 200, 400)]
        assert vals == sorted(vals)


class TestChampernowneStream:
    def test_prefix_is_word_concatenation(self, b32):
        first30 = champernowne_digits(b32, 30)
        concat = []
        for n in range(1, 11):
            concat.extend(word_digits(b32, n))
        assert first30 == concat[:30]
        assert first30[:10] == [2, 2, 1, 2, 1, 0, 2, 1, 2, 2]

    def test_integer_base_stream(self):
        b10 = Base(10, 1)
        assert champernowne_digits(b10, 11) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0]

    def test_generator_and_array_agree(self, b32):
        want = stream_prefix(b32, 500)
        assert champernowne_digits(b32, 500) == want
        assert champernowne_prefix_array(b32, 500).tolist() == want

    def test_frozen_frequencies(self, b32):
        assert champernowne_freq(b32, Pattern(b32, (2,)), 10) == 6
        assert champernowne_freq(b32, Pattern(b32, (2, 2)), 1) == 1

    @pytest.mark.parametrize("base", ORACLE_BASES + [Base(131, 2)],
                             ids=lambda b: f"{b.a}_{b.b}")
    def test_freq_against_scan(self, base):
        """All-zero, zero-led, zero-heavy and occurring words up to m = 9, at
        x = 0, 1, word starts and ends and random x; stream_scan checks the
        small x and the vectorized scan everything up to 10^6."""
        a = base.a
        rng = random.Random(f"stream {base}")
        z = stream_prefix(base, 400)
        words = []
        for m in range(1, 10):
            i = rng.randrange(300)
            words += [(0,) * m,
                      (0,) + tuple(rng.randrange(a) for _ in range(m - 1)),
                      tuple(0 if rng.random() < 0.6 else rng.randrange(1, a)
                            for _ in range(m)),
                      tuple(reversed(z[i:i + m]))]
        ends = stream_word_ends(base, 10**6)
        small = [0, 1, 2] + [e + d for e in ends[:6].tolist() + [int(ends[40])]
                             for d in (-1, 0, 1)]
        large = [rng.randrange(2000, 10**6) for _ in range(4)] + [10**6]
        large += [int(e) + d for e in rng.sample(ends[ends > 2000].tolist(), 3)
                  for d in (0, 1)]
        want = stream_scan_bulk(base, words, small + large)
        for w in words:
            got = champernowne_freq_bulk(base, [Pattern(base, w)], small + large)[w]
            assert got == want[w], w
        for w in rng.sample(words, 6):
            assert want[w][:len(small)] == [stream_scan(base, w, x) for x in small]

    @pytest.mark.parametrize("base,ms,xs", [
        (Base(3, 2), range(5, 10), range(50)),
        (Base(10, 1), [9], [0, 1, 8, 9, 10, 189, 190, 191, 2000, 10**6]),
    ], ids=["3_2", "10_1"])
    def test_windows_across_many_words(self, base, ms, xs):
        # the stream's own windows near its start span three or more short
        # words: 3/2 words have at most four digits up to n = 7, and the
        # 10/1 window 123456789 holds seven whole words
        z = stream_prefix(base, 300)
        ends = stream_word_ends(base, 300).tolist()
        starts = [(i, m) for m in ms for i in range(0, 200, 3) if i < 50 or base.b == 1]
        assert any(sum(i < e < i + m for e in ends) >= 2 for i, m in starts)
        words = {tuple(reversed(z[i:i + m])) for i, m in starts}
        want = stream_scan_bulk(base, words, list(xs))
        assert champernowne_freq_bulk(base, [Pattern(base, w) for w in words], xs) == want

    def test_frozen_at_ten_million(self, b32):
        # gamma_w(10^7) of the prefix scan this engine replaced
        pats = [Pattern.parse(b32, w) for w in ("21", "12", "0", "212")]
        out = champernowne_freq_bulk(b32, pats, [10**7])
        assert [out[p.word][0] for p in pats] == [1243963, 1285960, 3158357, 521188]

    def test_bulk_memory_and_reach(self, b32, monkeypatch):
        # the prefix scan held every digit up to x: 28.6 MiB for this call
        pats = [Pattern.parse(b32, w) for w in ("21", "12", "0", "212")]
        tracemalloc.start()
        try:
            champernowne_freq_bulk(b32, pats, [10**5, 10**6, 10**7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.delenv("RATBASE_MAX_ENUM", raising=False)
        assert champernowne_freq(b32, pats[0], 10**12) > 0

    def test_bulk_path_agrees_with_scan(self, b32):
        pat = Pattern(b32, (2,))
        out = champernowne_freq_bulk(b32, [pat], [50, 120000])
        assert out[(2,)][0] == stream_scan(b32, (2,), 50)
        assert out[(2,)][1] == stream_scan(b32, (2,), 120000)

    def test_prefix_array_across_blocks(self):
        # the 10/1 stream is the decimal Champernowne word; a million digits
        # take six word-length bands and end inside a number
        b10 = Base(10, 1)
        m = 1_000_003
        text = "".join(str(n) for n in range(1, 200_000))
        want = [int(c) for c in text[:m]]
        assert champernowne_prefix_array(b10, m).tolist() == want

    def test_bulk_keeps_the_checkpoint_order(self, b32):
        pats = [Pattern(b32, (2,)), Pattern(b32, (1, 0))]
        xs = [10, 5, 300, 5, 0]
        out = champernowne_freq_bulk(b32, pats, xs)
        for p in pats:
            assert out[p.word] == [stream_scan(b32, p.word, x) for x in xs]
        assert champernowne_freq_bulk(b32, pats[:1], [10, 5])[(2,)] == [6, 3]

    def test_bulk_rejects_bad_arguments(self, b32):
        with pytest.raises(ValueError, match="patterns"):
            champernowne_freq_bulk(b32, [], [10])
        with pytest.raises(ValueError):
            champernowne_freq_bulk(b32, [Pattern(b32, (2,))], [10, -1])
        with pytest.raises(ValueError):
            champernowne_prefix_array(b32, -1)

    @pytest.mark.parametrize("base", ORACLE_BASES + [Base(131, 2), Base(200, 199)],
                             ids=str)
    def test_prefix_array_lengths(self, base):
        # the builder makes one band of words per word length and cuts the
        # last band short, so every cut at or next to a band end must land
        # right; 200/199 has a band per word up to n = 199 and int64 digits
        want = stream_prefix(base, 20000)
        ends = stream_word_ends(base, 20000)
        sizes = np.diff(ends, prepend=0)
        band_ends = ends[:-1][sizes[1:] > sizes[:-1]].tolist()
        assert band_ends
        ms = {0, 1, 2, 57, 1999, 20000} | {e + d for e in band_ends for d in (-1, 0, 1)}
        dtype = np.int8 if base.a <= 128 else np.int64
        for m in sorted(ms):
            got = champernowne_prefix_array(base, m)
            assert got.dtype == dtype and got.shape == (m,)
            assert got.tolist() == want[:m], m

    def test_prefix_array_memory_at_ten_million(self, b32):
        # 10^7 int8 digits; the block, level and scatter builder this one
        # replaced peaked at about 2.68 bytes per digit
        m = 10**7
        tracemalloc.start()
        try:
            arr = champernowne_prefix_array(b32, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * m
        # gamma_0(10^7), frozen in test_frozen_at_ten_million
        assert np.count_nonzero(arr == 0) == 3_158_357

    def test_wide_alphabet_stream(self):
        base = Base(131, 2)
        want = stream_prefix(base, 400)
        assert max(want) > 127
        assert champernowne_digits(base, 400) == want

    def test_prefix_array_budget(self, b32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        assert champernowne_prefix_array(b32, 1000).tolist() == stream_prefix(b32, 1000)
        with pytest.raises(ScaleExceeded):
            champernowne_prefix_array(b32, 2000)

    def test_budget(self, b32, monkeypatch):
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1000")
        pat = Pattern(b32, (2, 1))
        assert len(champernowne_digits(b32, 1000)) == 1000
        assert champernowne_freq(b32, pat, 1000) == stream_scan(b32, (2, 1), 1000)
        with pytest.raises(ScaleExceeded):
            champernowne_digits(b32, 1001)
        # frequencies are charged the engine's sweep and direct reads, not x
        assert champernowne_freq(b32, pat, 1001) == stream_scan(b32, (2, 1), 1001)
        with pytest.raises(ScaleExceeded):
            champernowne_freq(b32, pat, 10**9)
        with pytest.raises(ScaleExceeded):
            champernowne_freq_bulk(b32, [pat], [10, 10**9])
        with pytest.raises(ScaleExceeded):
            champernowne_freq(b32, Pattern(b32, (2,) * 2000), 11)


class TestReports:
    def test_rejects_tiny_horizons(self, b32):
        with pytest.raises(ValueError):
            asymptotic_report(b32, Pattern(b32, (2,)), [10])

    def test_row_contents(self, b32):
        pat = Pattern(b32, (2,))
        rows = asymptotic_report(b32, pat, [100, 1000])
        assert [r.N for r in rows] == [100, 1000]
        log_alpha = math.log(3) - math.log(2)
        for r in rows:
            assert r.s_w == count_pattern(b32, pat, r.N).total
            main = r.N * (1 / 3) * math.log(r.N) / log_alpha
            assert math.isclose(r.main_term, main, rel_tol=1e-12)
            assert math.isclose(r.residual, r.s_w - main, rel_tol=1e-12)
            assert math.isclose(
                r.residual_norm, (r.s_w - main) / (r.N * math.log(math.log(r.N))),
                rel_tol=1e-12)

    def test_csv_shape(self, b32):
        rows = asymptotic_report(b32, Pattern(b32, (2, 1)), [100, 1000])
        text = report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "N,S_w,main_term,residual,residual_norm"
        assert len(lines) == 3
        assert lines[1].startswith("100,")

    def test_json_roundtrip(self, b32):
        rows = asymptotic_report(b32, Pattern(b32, (2,)), [100])
        recs = json.loads(report_json(rows))
        assert recs[0]["N"] == 100
        assert recs[0]["S_w"] == rows[0].s_w
