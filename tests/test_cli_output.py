"""Where the CLI writes: --out takes the whole output, and a command writes
all of its output or none."""
import pytest

from ratbase import cli

BASE32 = ["--a", "3", "--b", "2"]


def test_patterns_total_goes_to_out(tmp_path, capsys):
    out = tmp_path / "f.txt"
    assert cli.main(["patterns", *BASE32, "--w", "2", "--N", "10",
                     "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == b"total 17\n"


@pytest.mark.parametrize("argv", [
    ["patterns", *BASE32, "--w", "21", "--N", "1000"],
    ["patterns", *BASE32, "--w", "21", "--N", "1000", "--format", "json"],
    ["patterns", *BASE32, "--w", "21", "--horizons", "1e4,1e5"],
    ["patterns", *BASE32, "--w", "21", "--horizons", "1e4,1e5", "--format", "json"],
    ["patterns", *BASE32, "--w", "21", "--k", "2", "--N", "1e6", "--padded"],
    ["tiles", *BASE32, "--r", "3"],
    ["tiles", *BASE32, "--r", "2", "--translates", "0..2", "--format", "csv"],
    ["fourier", *BASE32, "--d", "1", "--r", "2", "--max-xi", "16"],
], ids=["total", "json", "horizons-csv", "horizons-json", "k", "svg", "tiles-csv",
        "fourier"])
def test_out_holds_exactly_what_stdout_would(argv, tmp_path, capsys):
    assert cli.main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == "" and printed.out
    out = tmp_path / "f.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text(encoding="utf-8") == printed.out


@pytest.mark.parametrize("argv", [
    ["patterns", *BASE32, "--w", "2", "--N", "10"],
    ["tiles", *BASE32, "--r", "2"],
    ["fourier", *BASE32, "--d", "1", "--r", "2", "--max-xi", "4"],
], ids=["patterns", "tiles", "fourier"])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "f.txt"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_USAGE
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: --out: ") and printed.err.count("\n") == 1
    assert not out.parent.exists()


def test_verify_writes_nothing_when_a_later_suite_fails(capsys, monkeypatch):
    def raises_after_one_check(ctx, args):
        yield []
        yield ("first", True, "passed")
        raise ValueError("second check refused")

    monkeypatch.setattr(cli, "_SUITES", {"tiling": cli._suite_tiling,
                                         "late": raises_after_one_check})
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *BASE32, "--r", "2", "--N", "5"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: second check refused\n")


def test_verify_still_prints_a_failing_check(capsys):
    code = cli.main(["verify", *BASE32, "--suite", "boundary", "--r", "1",
                     "--N", "50"])
    assert code == 1
    assert capsys.readouterr() == (
        "tube_monotone r=1: PASS (resolution 2 -> 4 only removes boxes)\n"
        "tube_cap r=1: FAIL (sizes [3, 3, 3] < 3)\n"
        "digit_reads: PASS (50 points, 97 escalations, 47 unresolved, "
        "0 mismatches)\n", "")
