"""Output checks: wrong answers and exceptions count as failed operations."""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import ratbase
import ratbase.cli
from ratbase import AdeleContext, Base, ScaleExceeded

from checks import (Checker, decimal_digit_sum_total, is_level_corner, text_matches,
                    text_record)
from harness import bind, run_cli, run_pass
from workloads import BOUNDARY, COEFF_POOL, Op, build

HERE = Path(__file__).resolve().parent.parent
FROZEN = json.loads((HERE / "frozen.json").read_text())
CONTEXTS = {(a, b): AdeleContext(Base(a, b))
            for a, b in ((3, 2), (5, 2), (5, 3), (7, 4), (10, 1))}


def _failed(ops, calls):
    _, _, results = run_pass(calls)
    check = Checker(ratbase, FROZEN, None)
    return sum(not check(op, r) for op, r in zip(ops, results))


def test_wrong_answer_and_exception_are_counted():
    ops = [Op("length", (3, 2, 7)), Op("length", (3, 2, 7)), Op("encode", (3, 2, 7)),
           Op("sum_of_digits", (3, 2, 7))]
    base = Base(3, 2)

    def refuse():
        raise ScaleExceeded("over budget")
    calls = [lambda: ratbase.length(base, 7), lambda: 99, refuse,
             lambda: ratbase.sum_of_digits(base, 7)]
    assert _failed(ops, calls) == 2


def test_wrong_cli_output_is_counted():
    op = Op("cli", ("sod-sum", "--a", "10", "--b", "1", "--N", "100"), "decimal_sod")
    check = Checker(ratbase, FROZEN, None)
    assert check(op, (0, f"{decimal_digit_sum_total(100)}\n"))
    assert not check(op, (0, f"{decimal_digit_sum_total(100) + 1}\n"))
    assert not check(op, (1, f"{decimal_digit_sum_total(100)}\n"))
    assert not check(op, SystemExit(64))


def test_library_passes_small_query_checks():
    ops = build("small_queries", 3)[:600]
    calls = [bind(op, ratbase, CONTEXTS) for op in ops]
    assert _failed(ops, calls) == 0


def test_library_passes_geometry_checks():
    ops = [op for op in build("geometry", 3) if op.kind != "cli"][:600]
    calls = [bind(op, ratbase, CONTEXTS) for op in ops]
    assert {op.kind for op in ops} >= {"locate_box", "fiber_interval", "tile_corners"}
    assert _failed(ops, calls) == 0


def test_wrong_geometry_is_counted():
    ctx = CONTEXTS[(3, 2)]
    check = Checker(ratbase, FROZEN, None)
    op = Op("locate_box", (3, 2, 1234, 2, 5))
    loc = ratbase.adelic.locate_box(ctx, ratbase.adelic.membership_point(ctx, 1234, 2), 5)
    assert check(op, loc)
    width = Fraction(2, 3) ** 5
    assert not check(op, dataclasses.replace(loc, corner=loc.corner + width,
                                             translate=loc.translate + width))
    flipped = ((loc.residues[0] + 1) % 3,) + tuple(loc.residues[1:])
    assert not check(op, dataclasses.replace(loc, residues=flipped))
    op = Op("tile_corners", (3, 2, 1, 4))
    corners = ratbase.adelic.tile_corners(ctx, 1, 4)
    assert check(op, corners)
    assert not check(op, corners[:-1])
    assert not check(op, corners[:-1] + (corners[-1] + 1,))


def test_decimal_digit_sum_closed_form():
    total = 0
    for n in range(1, 2500):
        total += sum(map(int, str(n)))
        assert decimal_digit_sum_total(n) == total


def test_level_corners():
    assert is_level_corner(3, 2, Fraction(2, 3) + Fraction(4, 9), 2)
    assert not is_level_corner(3, 2, Fraction(2, 27), 2)
    assert is_level_corner(3, 2, Fraction(5, 8), 1)
    assert is_level_corner(10, 1, Fraction(7, 100), 2)
    assert not is_level_corner(10, 1, Fraction(7, 1000), 2)



def test_frozen_text_tolerates_float_noise_only():
    text = "xi,re,im\n1,0.125,1e-17\n2,-0.3333333333333333,0.0\n"
    want = text_record(text)
    assert text_matches("xi,re,im\n1,0.12500000000000003,-2e-17\n"
                        "2,-0.33333333333333326,0.0\n", want)
    assert not text_matches("xi,re,im\n1,0.1250001,1e-17\n2,-0.3333333333333333,0.0\n", want)
    assert not text_matches("xi,re,im\n1,0.125,1e-17\n3,-0.3333333333333333,0.0\n", want)

    values = [m / 7 for m in range(1000)]
    want = text_record("".join(f"{m},{v!r}\n" for m, v in enumerate(values)))
    assert len(want["sums"]) == 4  # blocks of 256 values
    values[7], values[8] = values[8], values[7]
    assert not text_matches("".join(f"{m},{v!r}\n" for m, v in enumerate(values)), want)


def test_verify_counts_are_measured_not_checked():
    op = Op("cli", tuple(BOUNDARY[0].format(0).split()), "frozen")
    check = Checker(ratbase, FROZEN, None)
    rc, out = run_cli(ratbase.cli.main, op.args)
    assert rc == 0 and check(op, (rc, out))
    fewer = re.sub(r"\d+ unresolved", "3 unresolved",
                   re.sub(r"\d+ escalations", "7 escalations", out))
    assert fewer != out and check(op, (0, fewer))
    assert not check(op, (0, out.replace("0 mismatches", "1 mismatches")))
    assert not check(op, (0, out.replace(": PASS", ": FAIL", 1)))


def test_coeff_f_exactness_is_not_frozen():
    a, b = 3, 2
    d, r, m = COEFF_POOL[(a, b)][0]
    op = Op("coeff_f", (a, b, d, r, m))
    coef = ratbase.coeff_f(CONTEXTS[(a, b)], d, r, Fraction(m, b**r))
    check = Checker(ratbase, FROZEN, None)
    assert check(op, coef)
    assert check(op, SimpleNamespace(value=coef.value, exact=None))
    # where .exact is set, it must agree with the value
    assert not check(op, SimpleNamespace(value=coef.value, exact=Fraction(7, 3)))
    assert not check(op, SimpleNamespace(value=coef.value + 1e-6, exact=None))
