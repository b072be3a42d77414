"""Command line interface: outputs, exit codes, determinism."""
import contextlib
import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ratbase import Base
from ratbase.fourier import FourierCoefficient
from helpers import stream_prefix

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ratbase", *args],
        capture_output=True, text=True, env=env, timeout=300)


BASE32 = ("--a", "3", "--b", "2")


class TestEncodeDecode:
    def test_encode(self):
        r = run_cli("encode", *BASE32, "7")
        assert r.returncode == 0
        assert r.stdout.strip() == "2122"

    def test_encode_zero(self):
        r = run_cli("encode", *BASE32, "0")
        assert r.returncode == 0
        assert r.stdout.strip() == ""

    def test_decode(self):
        r = run_cli("decode", *BASE32, "21011")
        assert r.returncode == 0
        assert r.stdout.strip() == "8"

    def test_roundtrip(self):
        for n in (1, 5, 81, 2026):
            word = run_cli("encode", *BASE32, str(n)).stdout.strip()
            back = run_cli("decode", *BASE32, word).stdout.strip()
            assert back == str(n)

    def test_decode_rejects_words_outside_language(self):
        r = run_cli("decode", *BASE32, "1")
        assert r.returncode == 2

    def test_decode_rejects_malformed_digits(self):
        r = run_cli("decode", *BASE32, "9x")
        assert r.returncode == 2

    def test_decode_rejects_a_leading_zero_as_not_in_language(self):
        r = run_cli("decode", *BASE32, "012")
        assert r.returncode == 2


class TestPatternsCommand:
    def test_single_position(self):
        r = run_cli("patterns", *BASE32, "--w", "2", "--k", "0", "--N", "10")
        assert r.returncode == 0
        assert r.stdout.strip().endswith("4")

    def test_single_position_goes_to_out(self, tmp_path):
        out = tmp_path / "o.txt"
        r = run_cli("patterns", *BASE32, "--w", "2", "--k", "0", "--N", "10",
                    "--out", str(out))
        assert r.returncode == 0
        assert r.stdout == ""
        assert out.read_text() == "4\n"

    @pytest.mark.parametrize("flags", [
        ("--padded",),
        ("--k", "3", "--format", "json"),
        ("--k", "3", "--horizons", "100,1000"),
    ], ids=["padded-without-k", "k-with-json", "k-with-horizons"])
    def test_flags_that_would_be_ignored_are_usage_errors(self, flags):
        # any count at N = 1e9 overruns a budget of 1 (exit 3): these stop first
        r = run_cli("patterns", *BASE32, "--w", "2", "--N", "1e9", *flags,
                    env_extra={"RATBASE_MAX_ENUM": "1"})
        assert r.returncode == 64
        assert r.stdout == ""

    def test_total(self):
        r = run_cli("patterns", *BASE32, "--w", "2", "--N", "10")
        assert r.returncode == 0
        assert "17" in r.stdout

    def test_report_csv(self):
        r = run_cli("patterns", *BASE32, "--w", "21",
                    "--horizons", "100,1000")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "N,S_w,main_term,residual,residual_norm"
        assert len(lines) == 3

    def test_report_json(self):
        r = run_cli("patterns", *BASE32, "--w", "21",
                    "--horizons", "100,1000", "--format", "json")
        recs = json.loads(r.stdout)
        assert [x["N"] for x in recs] == [100, 1000]

    @pytest.mark.parametrize("w,horizon", [
        ("7", "1e400"),  # N is no float
        ("7", "1e308"),  # S_w is none
        ("7", "5e306"),  # N and S_w are, but N a^-|w| log N is inf
        ("7777777", "1e308")])  # the main term is, but N log log N is inf
    def test_report_past_the_largest_float_is_a_usage_error(self, w, horizon):
        r = run_cli("patterns", "--a", "10", "--b", "1", "--w", w, "--horizons", horizon)
        assert r.returncode == 64
        assert r.stdout == ""
        assert r.stderr.splitlines()[-1] == (
            "ratbase: error: horizons must keep the report's floats below about "
            "1.8e308, the largest float")

    def test_report_below_the_largest_float_is_unchanged(self):
        r = run_cli("patterns", "--a", "10", "--b", "1", "--w", "7", "--horizons", "1e300")
        assert r.returncode == 0
        assert r.stdout == (
            "N,S_w,main_term,residual,residual_norm\n"
            f"{10**300},{3 * 10**301},2.9999999999999996e+301,"
            "4.758454107128906e+285,7.278355483331216e-16\n")

    def test_scale_guard_exit_code(self):
        r = run_cli("patterns", *BASE32, "--w", "2", "--N", "1e9",
                    env_extra={"RATBASE_MAX_ENUM": "1000"})
        assert r.returncode == 3

    def test_scientific_notation_count(self):
        r = run_cli("patterns", *BASE32, "--w", "2", "--k", "0", "--N", "1e3")
        assert r.returncode == 0

    def test_scientific_notation_is_exact(self):
        r = run_cli("encode", "--a", "10", "--b", "1", "1e23")
        assert r.returncode == 0
        assert r.stdout.strip() == str(10**23)

    def test_rejects_non_integer_counts(self):
        for text in ("1.5", "1e-3"):
            r = run_cli("patterns", *BASE32, "--w", "2", "--N", text)
            assert r.returncode == 64, text


class TestOtherCommands:
    def test_sod_sum(self):
        r = run_cli("sod-sum", *BASE32, "--N", "10")
        assert r.returncode == 0
        assert r.stdout.strip().endswith("46")

    def test_stream_budget_exit_code(self):
        r = run_cli("stream", *BASE32, "--N", "200000",
                    env_extra={"RATBASE_MAX_ENUM": "1000"})
        assert r.returncode == 3
        assert r.stdout == ""

    def test_stream(self):
        r = run_cli("stream", *BASE32, "--N", "10")
        assert r.returncode == 0
        assert "2212102122" in r.stdout.replace(" ", "").replace(",", "")

    def test_long_stream_matches_the_word_concatenation(self):
        r = run_cli("stream", *BASE32, "--N", "200000")
        assert r.returncode == 0
        assert r.stdout == "".join(map(str, stream_prefix(Base(3, 2), 200000))) + "\n"

    def test_wide_alphabet_stream_prints_the_tuple_form(self):
        # a > 10 prints "(d,d,...)", digits 10 and up included
        r = run_cli("stream", "--a", "11", "--b", "2", "--N", "2000")
        assert r.returncode == 0
        want = stream_prefix(Base(11, 2), 2000)
        assert max(want) == 10
        assert r.stdout == "(" + ",".join(map(str, want)) + ")\n"

    def test_fourier_table(self):
        r = run_cli("fourier", *BASE32, "--r", "1", "--max-xi", "4")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "xi_numerator,r,digit,re,im,abs"
        assert len(lines) == 1 + 3 * 5

    def test_fourier_budget_exit_code(self):
        r = run_cli("fourier", *BASE32, "--r", "2", "--max-xi", "5000",
                    env_extra={"RATBASE_MAX_ENUM": "1000"})
        assert r.returncode == 3
        assert r.stdout == ""

    def test_fourier_rejects_bad_digit(self):
        r = run_cli("fourier", *BASE32, "--r", "1", "--d", "3")
        assert r.returncode == 64
        assert r.stdout == ""

    def test_tiles_csv(self):
        r = run_cli("tiles", *BASE32, "--r", "2", "--format", "csv")
        assert r.returncode == 0
        assert r.stdout.startswith("translate,digit,real_lo")

    def test_tiles_svg_deterministic(self, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        r1 = run_cli("tiles", *BASE32, "--r", "4", "--out", str(out1))
        r2 = run_cli("tiles", *BASE32, "--r", "4", "--out", str(out2))
        assert r1.returncode == r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("<svg")

    def test_tiles_translate_range(self):
        r = run_cli("tiles", *BASE32, "--r", "1", "--format", "csv",
                    "--translates", "0..2")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert len(lines) == 1 + 3 * 3  # translates 0, 1, 2

    def test_tiles_rejects_an_empty_translate_list(self):
        for flag in ("--translates=", "--translates=,"):
            r = run_cli("tiles", *BASE32, "--r", "1", flag)
            assert r.returncode == 64, flag
            assert r.stdout == "", flag

    def test_tiles_translate_range_is_charged_before_it_is_built(self):
        r = run_cli("tiles", *BASE32, "--r", "1", "--translates", "0..1e12",
                    env_extra={"RATBASE_MAX_ENUM": "10"})
        assert r.returncode == 3
        assert r.stdout == ""


class TestVerifyCommand:
    def test_tiling_suite_line_format(self):
        r = run_cli("verify", *BASE32, "--suite", "tiling", "--r", "6")
        assert r.returncode == 0
        assert "residue_system r=6: PASS (729 distinct)" in r.stdout

    def test_character_suite(self):
        r = run_cli("verify", *BASE32, "--suite", "character")
        assert r.returncode == 0
        assert "PASS" in r.stdout and "FAIL" not in r.stdout

    def test_fourier_suite(self):
        r = run_cli("verify", *BASE32, "--suite", "fourier", "--r", "2")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout

    @pytest.mark.parametrize("a, b, vanishing, series", [
        (3, 2, 16, "3.38e-03 <= bound 1.23e-01"),
        (5, 3, 16, "1.66e-02 <= bound 1.58e+00"),
        (7, 4, 16, "4.77e-02 <= bound 8.51e+00"),
    ])
    def test_fourier_suite_output_is_pinned(self, a, b, vanishing, series, capsys):
        # what the suite printed when every series was summed term by term
        from ratbase import cli
        for seed in range(6):
            assert cli.main(["verify", "--a", str(a), "--b", str(b), "--suite",
                             "fourier", "--seed", str(seed)]) == 0
            assert capsys.readouterr() == (
                f"zero_mode r=4: PASS (1/{a} at xi=0)\n"
                f"vanishing r=4: PASS ({vanishing} frequencies)\n"
                f"series_vs_direct r=3: PASS (max err {series})\n", "")

    def test_all_suites(self):
        r = run_cli("verify", *BASE32, "--suite", "all", "--r", "4", "--N", "200")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout

    @pytest.mark.parametrize("suite", ["boundary", "fourier"])
    def test_boxed_suites_reject_level_zero(self, suite):
        r = run_cli("verify", *BASE32, "--suite", suite, "--r", "0", "--N", "5")
        assert r.returncode == 64
        assert r.stdout == ""
        assert f"{suite} suite" in r.stderr

    @pytest.mark.parametrize("suite", ["fourier", "all"])
    def test_zero_cutoff_is_a_usage_error(self, suite):
        r = run_cli("verify", *BASE32, "--suite", suite, "--r", "2", "--N", "5",
                    "--cutoff", "0")
        assert r.returncode == 64
        assert "cutoff must be positive" in r.stderr
        assert "Traceback" not in r.stderr

    def test_zero_cutoff_is_refused_before_any_suite(self):
        r = run_cli("verify", *BASE32, "--suite", "all", "--r", "2", "--N", "5",
                    "--cutoff", "0")
        assert r.returncode == 64
        assert r.stdout == ""
        # the cutoff belongs to the fourier suite alone
        r = run_cli("verify", *BASE32, "--suite", "tiling", "--r", "2", "--N", "5",
                    "--cutoff", "0")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout

    def test_every_suite_is_charged_before_the_first_runs(self, capsys, monkeypatch):
        # the tiling suite's 10^5 samples fit the cap, the character
        # suite's 3 x 10^5 do not
        from ratbase import cli
        monkeypatch.setenv("RATBASE_MAX_ENUM", "200000")
        code = cli.main(["verify", *BASE32, "--N", "100000", "--seed", "7"])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: enumeration of 300000 objects exceeds cap 200000\n")

    @pytest.mark.parametrize("argv, charge", [
        (("--a", "10", "--b", "1"), 11190000),
        ((*BASE32, "--r", "4", "--N", "5", "--resolution", "16"), 67225464),
    ], ids=["10/1", "3/2-resolution-16"])
    def test_tube_builds_are_charged_before_the_first_suite(self, argv, charge,
                                                           capsys, monkeypatch):
        # every other suite's charge fits the default cap; a boundary tube's
        # does not
        from ratbase import cli
        monkeypatch.delenv("RATBASE_MAX_ENUM", raising=False)
        start = time.perf_counter()
        code = cli.main(["verify", *argv])
        took = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: enumeration of {charge} objects exceeds cap 10000000\n")
        assert took < 1.0

    @pytest.mark.parametrize("exact, value", [(None, 1e-13), (Fraction(0), 0.5)],
                             ids=["inexact-tiny", "exact-zero-wrong-value"])
    def test_vanishing_check_fails_on_a_wrong_zero(self, exact, value, capsys,
                                                   monkeypatch):
        # a | m must give exact == 0 with value 0; anything else is a failure
        from ratbase import cli
        real = cli.coeff_f

        def wrong(ctx, d, r, xi):
            if xi != 0 and xi * ctx.base.b**r % ctx.base.a == 0:
                return FourierCoefficient(xi, complex(value), exact)
            return real(ctx, d, r, xi)

        monkeypatch.setattr(cli, "coeff_f", wrong)
        code = cli.main(["verify", *BASE32, "--suite", "fourier", "--r", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert re.search(r"^vanishing r=2: FAIL \(", out, re.M), out

    def test_sample_budget_exit_code(self):
        for suite in ("tiling", "character"):
            r = run_cli("verify", *BASE32, "--suite", suite, "--r", "2", "--N", "20000",
                        env_extra={"RATBASE_MAX_ENUM": "10"})
            assert r.returncode == 3, suite
            assert r.stdout == "", suite


class TestHugeLevelRefusals:
    """A charge the cap cannot reach exits 3 with one error line, even when
    the charge is too large to print or to compute."""

    @pytest.mark.parametrize("argv", [
        ("tiles", *BASE32, "--r", "100000"),
        ("verify", *BASE32, "--suite", "tiling", "--r", "100000", "--N", "1"),
        ("verify", *BASE32, "--suite", "boundary", "--r", "3",
         "--resolution", "100000", "--N", "1"),
        ("tiles", *BASE32, "--r", "2", "--translates", "0..1e5000"),
    ], ids=["tiles", "tiling", "boundary", "translates"])
    def test_exit_code_and_one_error_line(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: enumeration of ")
        assert r.stderr.count("\n") == 1

    def test_level_ten_million_is_refused_at_once(self, capsys):
        from ratbase import cli
        start = time.perf_counter()
        code = cli.main(["tiles", *BASE32, "--r", "10000000"])
        took = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr().err == \
            "error: enumeration of at least 3^10000000 objects exceeds cap 10000000\n"
        assert took < 1.0


class TestLevelBoundRefusals:
    """A level above the bound (322 at 3/2) exits 3 at once, before any work."""

    def test_fourier_table(self, capsys):
        from ratbase import cli
        start = time.perf_counter()
        code = cli.main(["fourier", *BASE32, "--r", "100000", "--max-xi", "2"])
        took = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: level 100000 is too large: 3^100000 >= 2^511\n")
        assert took < 1.0

    def test_fourier_table_is_charged_its_untabled_levels(self, capsys):
        # 100001 rows times 1 + 3 exponentials at each of the 315 levels
        # above the shared table's bound
        from ratbase import cli
        start = time.perf_counter()
        code = cli.main(["fourier", *BASE32, "--r", "322", "--max-xi", "100000", "--d", "1"])
        took = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: enumeration of 94600946 objects exceeds cap 10000000\n")
        assert took < 1.0

    def test_fourier_table_of_a_huge_alphabet(self, capsys, monkeypatch):
        # one level above the table at a = 2*10^7 + 1 is charged its a
        # exponentials per row; every digit of a = 10^17 + 32 is charged
        # before the digits are listed
        from ratbase import cli
        monkeypatch.setenv("RATBASE_MAX_ENUM", "100")
        assert cli.main(["fourier", "--a", "20000001", "--b", "20000000", "--d", "1",
                         "--r", "2", "--max-xi", "1"]) == 3
        assert capsys.readouterr() == (
            "", "error: enumeration of 40000004 objects exceeds cap 100\n")
        monkeypatch.delenv("RATBASE_MAX_ENUM")
        start = time.perf_counter()
        code = cli.main(["fourier", "--a", "100000000000000032", "--b", "100000000000000031",
                         "--r", "1", "--max-xi", "1"])
        took = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: enumeration of 200000000000000064 objects exceeds cap 10000000\n")
        assert took < 5.0

    def test_verify_refuses_a_huge_resolution_before_any_suite(self, capsys):
        from ratbase import cli
        code = cli.main(["verify", *BASE32, "--r", "2", "--N", "5",
                         "--resolution", "100000"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: enumeration of at least 3^100000 objects exceeds cap 10000000\n"


class TestBudgetVariable:
    """RATBASE_MAX_ENUM is read as the count flags are: exactly, and a bad
    value is a usage error that names it."""

    def test_scientific_notation(self, capsys, monkeypatch):
        from ratbase import cli
        from ratbase.adelic import max_enum
        monkeypatch.setenv("RATBASE_MAX_ENUM", "1e8")
        assert max_enum() == 10**8
        assert cli.main(["sod-sum", *BASE32, "--N", "1000"]) == 0
        assert capsys.readouterr().out == "14734\n"

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", "1" + "0" * 4300],
                             ids=["abc", "-5", "1.5", "4301-digits"])
    def test_bad_value_is_a_usage_error(self, raw, capsys, monkeypatch):
        from ratbase import cli
        monkeypatch.setenv("RATBASE_MAX_ENUM", raw)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sod-sum", *BASE32, "--N", "1000"])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "RATBASE_MAX_ENUM" in errors[0], err


@contextlib.contextmanager
def _any_int_length():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntegersOfAnyLength:
    """A result of more than 4300 digits prints whole, while the flags are
    still read under Python's limit on int() of text, and main leaves that
    limit as it found it, on every exit."""

    @staticmethod
    def main(argv, capsys):
        from ratbase import cli
        limit = sys.get_int_max_str_digits()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert sys.get_int_max_str_digits() == limit
        return code, capsys.readouterr()

    @pytest.mark.parametrize("argv, line", [
        # digit 7 fills each of the 4299 positions of 1..10^4299 - 1 10^4298 times
        (("patterns", "--a", "10", "--b", "1", "--w", "7", "--N", "1e4299"),
         lambda: f"total {4299 * 10**4298}"),
        # s(1) + ... + s(2^k) = k 2^(k-1) + 1
        (("sod-sum", "--a", "2", "--b", "1", "--N", str(2**14280)),
         lambda: str(14280 * 2**14279 + 1)),
        (("decode", "--a", "10", "--b", "1", "1" + "0" * 4400), lambda: str(10**4400)),
    ], ids=["patterns", "sod-sum", "decode"])
    def test_prints_the_exact_value(self, argv, line, capsys):
        code, got = self.main(argv, capsys)
        with _any_int_length():
            expected = line()
        assert (code, got.out, got.err) == (0, expected + "\n", "")
        assert len(expected) > 4300

    def test_json_record(self, capsys, monkeypatch):
        from ratbase import Pattern, PatternStats, cli
        base = Base(10, 1)
        huge = 7 * 10**5000
        stats = PatternStats(Pattern(base, (7,)), 10**4299, {0: huge}, {0: huge, 1: 1}, huge)
        monkeypatch.setattr(cli, "count_pattern", lambda *args: stats)
        code, got = self.main(("patterns", "--a", "10", "--b", "1", "--w", "7",
                               "--N", "1e4299", "--format", "json"), capsys)
        assert code == 0
        with _any_int_length():
            record = json.loads(got.out)
        assert (record["total"], record["per_position"], record["padded_per_position"]) == (
            huge, {"0": huge}, {"0": huge, "1": 1})

    @pytest.mark.parametrize("argv", [
        ("patterns", "--a", "10", "--b", "1", "--w", "7", "--N", "1e4300"),
        ("patterns", *BASE32, "--w", "2", "--padded"),
        ("sod-sum", *BASE32, "--N", "1e30"),
        ("decode", *BASE32, "1"),
    ], ids=["count-of-4301-digits", "usage", "budget", "not-in-language"])
    def test_refusals_keep_the_limit(self, argv, capsys):
        code, got = self.main(argv, capsys)
        assert code in (2, 3, 64) and got.out == ""


def _readme_cli_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_block(line, tmp_path, capsys, monkeypatch):
    # every line runs as written; a "# -> X" comment is its first output line
    from ratbase import cli
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "ratbase"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if comment.strip().startswith("->"):
        assert out.splitlines()[0] == comment.strip()[2:].strip()


class TestExitCodes:
    def test_usage_error_on_bad_base(self):
        assert run_cli("encode", "--a", "4", "--b", "2", "5").returncode == 64

    def test_decode_with_a_bad_base_is_a_usage_error(self):
        r = run_cli("decode", "--a", "2", "--b", "2", "1")
        assert r.returncode == 64
        assert "need a > b >= 1" in r.stderr

    def test_usage_error_on_missing_argument(self):
        assert run_cli("encode", *BASE32).returncode == 64

    def test_usage_error_on_unknown_command(self):
        assert run_cli("frobnicate", *BASE32).returncode == 64

    def test_usage_error_on_malformed_pattern(self):
        assert run_cli("patterns", *BASE32, "--w", "9", "--N", "10").returncode == 64


class TestInProcess:
    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        # main keeps its parser between calls; each call must still behave
        # as the first call of a new process does
        from ratbase import cli
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the width
        calls = [("encode", "--a", "4", "--b", "2", "5"),
                 ("encode", *BASE32, "7"),
                 ("sod-sum", "--a", "10", "--b", "1", "--N", "10")]
        for argv in calls:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
            assert (code, got.out, got.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == 0 and got.out == "46\n"
