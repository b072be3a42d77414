"""Command line interface: outputs, exit codes, determinism."""
import json
import subprocess
import sys

import pytest

from ratbase import Base
from helpers import stream_prefix


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

    def test_sample_budget_exit_code(self):
        for suite in ("tiling", "character"):
            r = run_cli("verify", *BASE32, "--suite", suite, "--r", "2", "--N", "20000",
                        env_extra={"RATBASE_MAX_ENUM": "10"})
            assert r.returncode == 3, suite
            assert r.stdout == "", suite


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
