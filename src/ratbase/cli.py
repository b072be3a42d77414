"""Command line front end.

Every command is deterministic given its flags; sampling commands take an
explicit --seed.  Exit codes: 0 success, 1 verification failure, 2 word not
in the language, 3 enumeration budget exceeded, 64 usage error.

Each command returns its whole output with its exit code, and main writes
it once: to --out where the command has that flag (stdout stays empty), to
stdout otherwise.  A command therefore prints all of its output or none;
verify's lines appear once every check has run.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .adelic import (AdeleContext, BoundaryAmbiguous, ScaleExceeded,
                     boundary_tubes, char_tilde, classify_digit,
                     corner_of_residues, cover_census, frac_p, in_z_alpha,
                     reduce_mod_lattice, verify_residue_system, _check_budget,
                     _json, _level, _parse_count, _tube_charge, _vp)
from .fourier import (coeff_f, coefficient_table, eval_urysohn_direct,
                      eval_urysohn_series, series_tail_bound, _fill_charge)
from .numeration import (Base, DigitWord, NotInLanguage, decode, digit, encode,
                         format_digits)
from .patterns import (Pattern, asymptotic_report, champernowne_prefix_array,
                       count_pattern, count_pattern_at, report_csv,
                       report_json, summatory_sod)
from .render import render_tiles, tiles_csv, tiles_svg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_IN_LANGUAGE = 2
EXIT_SCALE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _count(text: str) -> int:
    """A count flag, read exactly by the reader RATBASE_MAX_ENUM shares."""
    try:
        return _parse_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _horizons(text: str) -> list[int]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty horizon list")
    return [_count(t) for t in toks]


def _translates(text: str) -> tuple[int, Iterable[Fraction]]:
    """(count, translates) for a comma list of rationals, or for an inclusive
    range lo..hi stepped by the coarsest grid containing both endpoints
    (1/lcm of denominators); a range is built only as it is read."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = _fraction(lo_s), _fraction(hi_s)
        if hi < lo:
            raise argparse.ArgumentTypeError("range upper bound below lower")
        step = Fraction(1, math.lcm(lo.denominator, hi.denominator))
        n = int((hi - lo) / step) + 1
        return n, (lo + i * step for i in range(n))
    shifts = [_fraction(t) for t in text.split(",") if t.strip()]
    if not shifts:
        raise argparse.ArgumentTypeError("no translate given")
    return len(shifts), shifts


def _base_of(args) -> Base:
    return Base(args.a, args.b)


# ---------------------------------------------------------------------------
# commands


def cmd_encode(args) -> tuple[str, int]:
    return f"{encode(_base_of(args), args.n)}\n", EXIT_OK


def cmd_decode(args) -> tuple[str, int]:
    base = _base_of(args)
    try:
        word = DigitWord.parse(base, args.word)
    except ValueError as exc:  # malformed or out-of-alphabet: not in the language
        raise NotInLanguage(str(exc)) from exc
    return f"{decode(word)}\n", EXIT_OK


def cmd_patterns(args) -> tuple[str, int]:
    base = _base_of(args)
    pattern = Pattern.parse(base, args.w)
    if args.k is not None:
        if args.horizons or args.format == "json":
            raise ValueError("--k takes neither --horizons nor --format json")
        n = count_pattern_at(base, pattern, args.k, args.N, padded=args.padded)
        return f"{n}\n", EXIT_OK
    if args.padded:
        raise ValueError("--padded needs --k")
    if args.horizons:
        rows = asymptotic_report(base, pattern, args.horizons)
        return (report_json(rows) if args.format == "json" else report_csv(rows),
                EXIT_OK)
    stats = count_pattern(base, pattern, args.N)
    if args.format != "json":
        return f"total {stats.total}\n", EXIT_OK
    return _json({"base": f"{base.a}/{base.b}", "pattern": str(pattern), "N": stats.N,
                  "total": stats.total, "per_position": stats.per_position,
                  "padded_per_position": stats.padded_per_position}), EXIT_OK


def cmd_sod_sum(args) -> tuple[str, int]:
    return f"{summatory_sod(_base_of(args), args.N)}\n", EXIT_OK


def cmd_stream(args) -> tuple[str, int]:
    base = _base_of(args)
    return f"{format_digits(base, champernowne_prefix_array(base, args.N))}\n", EXIT_OK


def cmd_tiles(args) -> tuple[str, int]:
    ctx = AdeleContext(_base_of(args))
    count, translates = args.translates
    # render_tiles charges the same amount, but only once it holds the list
    ar, _ = _level(ctx, args.r, charged=args.r)
    _check_budget(max(count, 1) * ar)
    rects = render_tiles(ctx, args.r, translates, scheme=args.scheme)
    return tiles_csv(rects) if args.format == "csv" else tiles_svg(rects), EXIT_OK


def cmd_fourier(args) -> tuple[str, int]:
    base = _base_of(args)
    ctx = AdeleContext(base)
    digits = [args.d] if args.d is not None else list(range(base.a))
    return coefficient_table(ctx, digits, args.r, args.max_xi), EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
#
# A suite is a generator.  Its plan checks its arguments, fixes its sizes and
# yields the list of its charges; then it yields (check, ok, detail) per check.


def _suite_tiling(ctx: AdeleContext, args) -> Iterator:
    a, r, n_pts = ctx.base.a, args.r, args.N
    # no level gate here, which would refuse a huge --r before a later suite's
    # usage error: the residue system, run first, charges a^r itself
    yield [n_pts]
    ok = verify_residue_system(ctx, r)
    yield (f"residue_system r={r}", ok, f"{a**r} distinct" if ok else "collision")
    rng = random.Random(args.seed)
    faces = bad = 0
    for i in range(n_pts):
        if i % 10 == 0:
            # exact corners exercise the shared-face path
            e_vec = tuple(rng.randrange(a) for _ in range(r))
            z = corner_of_residues(ctx, e_vec) + rng.randrange(-3, 4)
        else:
            z = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        try:
            _, flagged = cover_census(ctx, z, r)
        except AssertionError:
            bad += 1
            continue
        faces += flagged
    yield (f"box_cover r={r}", bad == 0,
           f"{n_pts} points, {faces} on faces" if bad == 0 else f"{bad} bad")


def _suite_character(ctx: AdeleContext, args) -> Iterator:
    n = args.N
    yield [3 * n]  # three checks of n samples each
    rng = random.Random(args.seed)
    bad = 0
    for _ in range(n):
        x = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))
        for p, _e in ctx.primes:
            t = frac_p(p, x)
            if not 0 <= t < 1:
                bad += 1
            den = t.denominator
            while den % p == 0:
                den //= p
            if den != 1:
                bad += 1
            if x != t and _vp(p, x - t) < 0:
                bad += 1
    yield ("padic_fractional", bad == 0, f"{n} samples" if bad == 0 else f"{bad} bad")
    bad = 0
    b = ctx.base.b
    for i in range(n):
        if i % 2 == 0:
            xi = Fraction(rng.randrange(-10**6, 10**6), b ** rng.randrange(0, 6))
        else:
            xi = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        trivial = abs(char_tilde(ctx, xi) - 1) < 1e-9
        if trivial != in_z_alpha(ctx, xi):
            bad += 1
    yield ("character_kernel", bad == 0, f"{n} samples" if bad == 0 else f"{bad} bad")
    bad = 0
    for _ in range(n):
        z = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))
        y, res = reduce_mod_lattice(ctx, z)
        if not in_z_alpha(ctx, y):
            bad += 1
        if not 0 <= res.real < 1:
            bad += 1
        for p, _e in ctx.primes:
            v = res.padic[p]
            if v != 0 and _vp(p, v) < 0:
                bad += 1
    yield ("lattice_reduction", bad == 0, f"{n} samples" if bad == 0 else f"{bad} bad")


def _suite_fourier(ctx: AdeleContext, args) -> Iterator:
    a, b = ctx.base.a, ctx.base.b
    r, rf, cutoff = min(args.r, 4), min(args.r, 3), args.cutoff
    if r == 0:
        raise ValueError("the fourier suite needs --r >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    yield [_fill_charge(a, rf, cutoff)]  # its series, at level rf
    ok = all(coeff_f(ctx, d, r, 0).exact == Fraction(1, a) for d in range(a))
    yield (f"zero_mode r={r}", ok, f"1/{a} at xi=0")
    br = b**r
    bad = 0
    checked = 0
    for m in range(-8 * a, 8 * a + 1):
        if m == 0 or m % a != 0:
            continue
        c = coeff_f(ctx, 1, r, Fraction(m, br))
        checked += 1
        if not (c.exact == 0 and c.value == 0):
            bad += 1
    yield (f"vanishing r={r}", bad == 0, f"{checked} frequencies")
    rng = random.Random(args.seed)
    tb = series_tail_bound(ctx, rf, cutoff)
    worst = 0.0
    bad = 0
    for _ in range(20):
        z = Fraction(rng.randrange(0, 4 * br), rng.choice([1, 2, 3, 4, 5, br]))
        d = rng.randrange(a)
        direct = eval_urysohn_direct(ctx, d, rf, z)
        got = eval_urysohn_series(ctx, d, rf, z, cutoff)
        err = abs(got.value - float(direct))
        worst = max(worst, err)
        if err > tb + 1e-9:
            bad += 1
    yield (f"series_vs_direct r={rf}", bad == 0,
           f"max err {worst:.2e} <= bound {tb:.2e}")


def _suite_boundary(ctx: AdeleContext, args) -> Iterator:
    a = ctx.base.a
    r = min(args.r, 4)
    if r == 0:
        raise ValueError("the boundary suite needs --r >= 1")
    res_hi = args.resolution if args.resolution is not None else r + 3
    if res_hi <= r + 1:
        res_hi = r + 2
    levels = list(range(2, r + 3))
    n_pts = min(args.N, 2000)  # the most digit reads the suite makes
    # every tube build below is charged here, and a huge resolution refused
    yield [n_pts, _tube_charge(ctx, r, r + 1), _tube_charge(ctx, r, res_hi),
           *(_tube_charge(ctx, rr, rr + 2) for rr in levels)]
    t_lo = boundary_tubes(ctx, r, r + 1)
    t_hi = boundary_tubes(ctx, r, res_hi)
    mono = all(t_hi[d].members <= t_lo[d].members for d in range(a))
    yield (f"tube_monotone r={r}", mono,
           f"resolution {r + 1} -> {res_hi} only removes boxes")
    sizes = [len(t_hi[d].members) for d in range(a)]
    capped = all(s < a**r for s in sizes)
    yield (f"tube_cap r={r}", capped, f"sizes {sizes} < {a**r}")
    rng = random.Random(args.seed)
    tubes = {rr: boundary_tubes(ctx, rr, rr + 2) for rr in levels}
    mism = escal = unresolved = 0
    for _ in range(n_pts):
        n = rng.randrange(1, 10**5)
        k = rng.randrange(0, 5)
        truth = digit(ctx.base, n, k)
        got = None
        for rr in levels:
            try:
                got = classify_digit(ctx, n, k, rr, tubes[rr])
                break
            except BoundaryAmbiguous:
                escal += 1
        if got is None:
            unresolved += 1
        elif got != truth:
            mism += 1
    yield ("digit_reads", mism == 0,
           f"{n_pts} points, {escal} escalations, {unresolved} unresolved, "
           f"{mism} mismatches")


_SUITES = {
    "tiling": _suite_tiling,
    "character": _suite_character,
    "fourier": _suite_fourier,
    "boundary": _suite_boundary,
}


def cmd_verify(args) -> tuple[str, int]:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ctx = AdeleContext(_base_of(args))
    suites = [_SUITES[name](ctx, args) for name in names]
    # every plan runs, so a usage error in any suite comes before a refusal,
    # and every charge is checked before the first suite runs
    charges = [charge for suite in suites for charge in next(suite)]
    for charge in charges:
        _check_budget(charge)
    results = [result for suite in suites for result in suite]
    text = "".join(f"{check}: {'PASS' if ok else 'FAIL'} ({detail})\n"
                   for check, ok, detail in results)
    return text, EXIT_OK if all(ok for _, ok, _ in results) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="ratbase",
                description="Rational-base numeration, digit statistics, and "
                            "adelic tilings.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def base_flags(sp):
        sp.add_argument("--a", type=int, required=True, help="base numerator a")
        sp.add_argument("--b", type=int, required=True, help="base denominator b")

    sp = sub.add_parser("encode", help="digit word of an integer")
    base_flags(sp)
    sp.add_argument("n", type=_count)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="integer named by a digit word")
    base_flags(sp)
    sp.add_argument("word")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("patterns", help="pattern occurrence counts and reports")
    base_flags(sp)
    sp.add_argument("--w", required=True, help="digit pattern")
    sp.add_argument("--N", type=_count, default=1000)
    sp.add_argument("--k", type=_count, default=None, help="single position")
    sp.add_argument("--padded", action="store_true",
                    help="count with zero-padded digits (with --k)")
    sp.add_argument("--horizons", type=_horizons, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_patterns)

    sp = sub.add_parser("sod-sum", help="summatory sum-of-digits")
    base_flags(sp)
    sp.add_argument("--N", type=_count, required=True)
    sp.set_defaults(func=cmd_sod_sum)

    sp = sub.add_parser("stream", help="prefix of the concatenated digit stream")
    base_flags(sp)
    sp.add_argument("--N", type=_count, required=True, help="number of digits")
    sp.set_defaults(func=cmd_stream)

    sp = sub.add_parser("tiles", help="render tile approximations")
    base_flags(sp)
    sp.add_argument("--r", type=_count, required=True, help="box level")
    sp.add_argument("--translates", type=_translates, default=(1, [Fraction(0)]),
                    help="comma list or lo..hi range of lattice translates")
    sp.add_argument("--scheme", choices=("alpha-digits", "p-adic-digits"),
                    default="alpha-digits")
    sp.add_argument("--format", choices=("svg", "csv"), default="svg")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_tiles)

    sp = sub.add_parser("fourier", help="coefficient tables of tile smoothings")
    base_flags(sp)
    sp.add_argument("--d", type=int, default=None, help="digit (default: all)")
    sp.add_argument("--r", type=_count, required=True)
    sp.add_argument("--max-xi", type=_count, default=32,
                    help="largest frequency numerator m (xi = m / b^r)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fourier)

    sp = sub.add_parser("verify", help="run invariant suites")
    base_flags(sp)
    sp.add_argument("--suite", choices=("tiling", "character", "fourier",
                                        "boundary", "all"), default="all")
    sp.add_argument("--r", type=_count, default=6)
    sp.add_argument("--resolution", type=_count, default=None,
                    help="boundary tube refinement level")
    sp.add_argument("--N", type=_count, default=1000, help="sample size")
    sp.add_argument("--cutoff", type=_count, default=400,
                    help="series truncation for the fourier suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # flags are read under Python's 4300-digit limit on int() of text, but a
    # result prints at any length; int() gives 0 where there is no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        try:
            text, code = args.func(args)
        except NotInLanguage as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_IN_LANGUAGE
        except ScaleExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SCALE
        except ValueError as exc:
            parser.error(str(exc))
        if getattr(args, "out", None):
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: --out: {exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            sys.stdout.write(text)
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
