"""Fuzz every command's flags through main, in-process.

argv is built from build_parser()'s own actions: every flag or argument of
the command that is required, or drawn, gets a value.  The level and count
flags take edge values around the largest accepted level (322 at 3/2), the
cap and the largest count accepted (4300 decimal digits), and malformed
values.  The other values include malformed words, empty lists and 1/0.
A drawn --out names a file in a fresh directory, or one in a directory that
does not exist: the first must hold exactly what stdout shows without
--out, the second must be a usage error that writes nothing.
"""
import argparse
import contextlib
import io
import os
import signal
import tempfile
from unittest import mock

from hypothesis import example, given, seed, settings, strategies as st

from ratbase.cli import build_parser, main

LEVEL_COMMANDS = ("tiles", "fourier", "verify")
OTHER_COMMANDS = ("encode", "decode", "patterns", "sod-sum", "stream")
EDGES = ("0", "1", "2", "322", "323", "100000", "10000000", "1e30",
         "-1", "1e4300", "1/0")
LEVEL_FLAGS = ("--r", "--resolution", "--max-xi", "--N", "--cutoff")
# (a, b) pairs; 4/2 is not a base
BASES = (("3", "2"), ("5", "3"), ("10", "1"), ("4", "2"))
# values for the other flags and arguments that take one; --out takes a
# placeholder that _check turns into a path
OTHER_VALUES = {
    "--out": ("file", "missing"),
    "--d": ("0", "1", "-1", "9"),
    "--seed": ("0", "7"),
    "--translates": ("0", "-1,1", "0..2", "1/3"),
    "n": ("0", "7", "2026", "-1", "1e30", "1e4299", "1e4300", "1/0", ""),
    "word": ("21011", "2122", "1", "0", "", "9x", "(1,2)", "1/0", "-1",
             "2" * 60),
    "--w": ("2", "21", "0", "", "9", "(1,0)", "(12,0,7)", "1/0", "-1"),
    "--k": ("0", "2", "40", "-1", "1e4300", "1/0"),
    "--horizons": ("1e4", "10,1e5", "1e30", "", ",", "-1", "1e4299",
                   "1e4300", "1/0"),
}
CALL_SECONDS = 20


def _commands() -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@st.composite
def argvs(draw, commands: tuple[str, ...]) -> list[str]:
    name = draw(st.sampled_from(commands))
    a, b = draw(st.sampled_from(BASES))
    argv = [name, "--a", a, "--b", b]
    for action in _commands()[name]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in ("--help", "--a", "--b"):
            continue
        if not (action.required or draw(st.booleans())):
            continue
        if action.nargs == 0:  # --padded
            argv.append(flag)
            continue
        if flag in LEVEL_FLAGS:
            values = EDGES
        elif action.choices:
            values = tuple(action.choices)
        else:
            values = OTHER_VALUES[flag or action.dest]
        value = draw(st.sampled_from(values))
        argv += [flag, value] if flag else [value]
    return argv


class _Alarm(Exception):
    pass


def _ring(signum, frame):
    raise _Alarm(f"call ran longer than {CALL_SECONDS} s")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _check(argv: list[str]) -> None:
    if "--out" not in argv:
        _check_run(argv)
        return
    i = argv.index("--out")
    missing = argv[i + 1] == "missing"
    code, out, _ = _check_run(argv[:i] + argv[i + 2:])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "missing", "out") if missing else os.path.join(tmp, "out")
        got, got_out, _ = _check_run(argv[:i + 1] + [path] + argv[i + 2:])
        wrote = code in (0, 1) and not missing
        assert got == (64 if missing and code in (0, 1) else code), argv
        assert got_out == "", (argv, got_out)
        assert os.path.exists(path) == wrote, argv
        if wrote:
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == out, argv


def _check_run(argv: list[str]) -> tuple[int, str, str]:
    with mock.patch.dict(os.environ, {"RATBASE_MAX_ENUM": str(2 * 10**5)}):
        code, out, err = _run(argv)
    assert code in (0, 1, 2, 3, 64), argv
    assert "Traceback" not in err, argv
    if code in (2, 3, 64):
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert out == "", (argv, out)
    if code in (0, 1):
        assert err == "", (argv, err)
    if code == 1:
        assert any(": FAIL (" in line for line in out.splitlines()), (argv, out)
    return code, out, err


@seed(0)
@settings(max_examples=120, database=None, deadline=None)
@given(argvs(LEVEL_COMMANDS))
# verify argv whose boundary tubes exceed the cap after other suites'
# charges fit it; the seed-0 draws need not reach such a call
@example(["verify", "--a", "5", "--b", "3"])
@example(["verify", "--a", "10", "--b", "1", "--r", "2", "--N", "1", "--seed", "7"])
# tables that fit, to a file and to a directory that does not exist
@example(["tiles", "--a", "3", "--b", "2", "--r", "3", "--format", "csv", "--out", "file"])
@example(["tiles", "--a", "5", "--b", "3", "--r", "2", "--out", "missing"])
@example(["fourier", "--a", "3", "--b", "2", "--r", "2", "--out", "file"])
@example(["fourier", "--a", "10", "--b", "1", "--r", "1", "--d", "7", "--out", "missing"])
def test_level_flags_exit_cleanly(argv):
    _check(argv)


@seed(0)
@settings(max_examples=200, database=None, deadline=None)
@given(argvs(OTHER_COMMANDS))
@example(["patterns", "--a", "3", "--b", "2", "--w", "21", "--horizons", "1e4",
          "--format", "json", "--out", "file"])
@example(["patterns", "--a", "3", "--b", "2", "--w", "2", "--out", "missing"])
def test_every_other_command_exits_cleanly(argv):
    _check(argv)
