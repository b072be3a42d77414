"""Seeded operation lists for the benchmark's four workloads.

An operation is a plain descriptor (kind, arguments, optionally an expected
value known from how the input was made); nothing here imports ratbase, so
the same seed always yields the same list whatever the library does.

Inputs that have no cheap independent oracle are drawn from finite pools
whose answers are frozen in frozen.json (see freeze.py); everything else is
drawn freely and checked against an oracle in checks.py.  Each workload
keeps its mix fixed (how many operations of each kind, at which sizes) and
lets the seed choose only the values, so seeds differ in inputs, not in
amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("counting", "geometry", "spectral", "small_queries")

BASES = ((3, 2), (5, 2), (5, 3), (7, 4), (10, 1))

# -- frozen pools -----------------------------------------------------------
COUNT_WORDS_32 = ("21", "12", "20", "02", "11", "22", "10", "01")
COUNT_WORDS_74 = ("31", "64", "06", "50", "12", "43")
SOD_N_32 = ("1e7", "9999991", "9876543", "9990001")
BULK_WORDS = ("21", "12", "0", "212", "2", "120", "201", "11", "10", "22",
              "002", "1")
BULK_XS = (10**5, 10**6, 10**7)
TRANSLATES_32 = ("0", "1", "-1", "2")
TRANSLATES_53 = ("0..2", "-1..1", "1..3", "-2..0")
VERIFY_SEEDS = tuple(range(6))
FOURIER_MAX_XI = (10, 9, 11, 12)

# Command lines checked against frozen.json: a template and the pool its
# seeded value comes from.
PATTERNS_32 = ("patterns --a 3 --b 2 --w {} --horizons 1e4,1e5,1e6,1e7", COUNT_WORDS_32)
SOD_32 = ("sod-sum --a 3 --b 2 --N {}", SOD_N_32)
PATTERNS_74 = ("patterns --a 7 --b 4 --w {} --N 5e6 --format json", COUNT_WORDS_74)
TILES_32 = ("tiles --a 3 --b 2 --r 3 --translates={} --format svg", TRANSLATES_32)
TILES_53 = ("tiles --a 5 --b 3 --r 1 --translates={} --format csv", TRANSLATES_53)
TILING = ("verify --a 3 --b 2 --suite tiling --r 3 --N 20 --seed {}", VERIFY_SEEDS)
BOUNDARY = ("verify --a 3 --b 2 --suite boundary --r 3 --N 2000 --seed {}", (0,))
FOURIER_32 = ("fourier --a 3 --b 2 --r 3 --max-xi {}", FOURIER_MAX_XI)
FOURIER_52 = ("fourier --a 5 --b 2 --r 2 --max-xi {}", FOURIER_MAX_XI)
FROZEN_CLI = (PATTERNS_32, SOD_32, PATTERNS_74, TILES_32, TILES_53, TILING, BOUNDARY,
              FOURIER_32, FOURIER_52)

# -- geometry: many short library calls -------------------------------------
GEOMETRY_BASES = ((3, 2), (5, 3))
# (a, b, r, resolution) of every boundary_tubes call in a pass
TUBES = ((3, 2, 1, 2), (3, 2, 2, 3), (5, 3, 1, 2))
CORNER_LEVELS = {(3, 2): (2, 3, 4), (5, 3): (2, 3)}
FIBER_LEVELS = (4, 5, 6, 7, 8)
GEOMETRY_MIX = {"locate_box": 1200, "fiber_interval": 1000, "tile_corners": 60}


def _fiber_pool() -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Residue vectors (e_1..e_r) of level-r corners per base, fixed forever."""
    rng = random.Random("fiber-pool")
    return {(a, b): tuple(tuple(rng.randrange(a) for _ in range(r))
                          for r in FIBER_LEVELS for _ in range(24))
            for a, b in GEOMETRY_BASES}


FIBER_POOL = _fiber_pool()

ESTIMATE_WORDS = tuple(f"{i}{j}" for i in range(3) for j in range(3))
SERIES_CUTOFF = 50
SERIES_CALLS = 1000
SPECTRAL_COEFFS = 2000
ESTIMATE_N = 10


def _coeff_pool() -> dict[tuple[int, int], tuple[tuple[int, int, int], ...]]:
    """(digit, level r, frequency numerator m) triples per base, fixed forever."""
    rng = random.Random("coeff-pool")
    return {(a, b): tuple((rng.randrange(a), rng.randint(2, 4), rng.randrange(400))
                          for _ in range(40))
            for a, b in BASES}


COEFF_POOL = _coeff_pool()

# -- small_queries mix, per base --------------------------------------------
SMALL_MIX = {
    "encode": 500,
    "decode": 400,
    "digit": 300,
    "length": 300,
    "sum_of_digits": 300,
    "count_pattern": 60,
    "champernowne_freq": 30,
    "cover_census": 400,
    "coeff_f": 100,
}


@dataclass(frozen=True)
class Op:
    """One call the benchmark times.

    kind names the library entry point (or "cli"), args are plain values,
    check names how the result is judged for CLI operations, and expect is
    an answer known independently from how the input was generated.
    """

    kind: str
    args: tuple
    check: str = ""
    expect: object = None


def word_digits(a: int, b: int, n: int) -> tuple[int, ...]:
    """Most-significant-first digits of n in base a/b, from the recurrence."""
    out = []
    while n > 0:
        out.append((b * n) % a)
        n = (b * n) // a
    return tuple(reversed(out))


def small_words(a: int) -> tuple[tuple[int, ...], ...]:
    """Patterns queried by small_queries in base a/b (all in the alphabet)."""
    return ((a - 1, 1), (1,), (1, 0, a - 1), (0, 0))


def _cli(argv: str, check: str) -> Op:
    return Op("cli", tuple(argv.split()), check)


def frozen_cli_pool() -> list[str]:
    """Every CLI command line whose output is checked against frozen.json."""
    return [template.format(v) for template, pool in FROZEN_CLI for v in pool]


def _frozen(rng: random.Random, command: tuple[str, tuple]) -> Op:
    template, pool = command
    return _cli(template.format(rng.choice(pool)), "frozen")


def _digits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def _counting(rng: random.Random) -> list[Op]:
    return [
        _frozen(rng, PATTERNS_32),
        _frozen(rng, SOD_32),
        _frozen(rng, PATTERNS_74),
        _cli(f"sod-sum --a 10 --b 1 --N {10**7 - rng.randrange(1000)}",
             "decimal_sod"),
        _cli(f"stream --a 3 --b 2 --N {200_000 + rng.randrange(1000)}", "stream"),
        Op("bulk", (3, 2, tuple(sorted(rng.sample(BULK_WORDS, 4))), BULK_XS)),
    ]


def _geometry(rng: random.Random) -> list[Op]:
    ops = [
        _frozen(rng, TILES_32),
        _frozen(rng, TILES_53),
        _frozen(rng, TILING),
        *(Op("boundary_tubes", tube) for tube in TUBES),
    ]
    for a, b in GEOMETRY_BASES:
        # the points and depths the boundary suite reads digits at
        ops += [Op("locate_box", (a, b, rng.randrange(1, 10**5), rng.randrange(5), 2 + i % 7))
                for i in range(GEOMETRY_MIX["locate_box"])]
        ops += [Op("fiber_interval", (a, b, rng.choice(FIBER_POOL[(a, b)])))
                for _ in range(GEOMETRY_MIX["fiber_interval"])]
        levels = CORNER_LEVELS[(a, b)]
        ops += [Op("tile_corners", (a, b, rng.randrange(a), levels[i % len(levels)]))
                for i in range(GEOMETRY_MIX["tile_corners"])]
    rng.shuffle(ops)
    return ops


def once(workload: str) -> list[Op]:
    """Operations checked once per run, after the first pass, untimed.

    The golden SVG and the boundary suite's digit reads take about a second
    each as single calls.  Timed, their share of a pass would swing with
    the machine's speed (see README.md, "Noise"), so they are only checked;
    the digit reads also give adelic.digit_reads.resolved_share.  Their
    parts are timed as short calls in the pass: tile corners, fiber
    intervals, boundary tubes and box location.
    """
    if workload == "geometry":
        return [_cli("tiles --a 3 --b 2 --r 8 --format svg", "golden_svg"),
                _cli(BOUNDARY[0].format(BOUNDARY[1][0]), "frozen")]
    return []


def _series_point(rng: random.Random, br: int) -> Fraction:
    return Fraction(rng.randrange(0, 4 * br), rng.choice([1, 2, 3, 4, 5, br]))


def _spectral(rng: random.Random) -> list[Op]:
    r, br = 3, 2**3
    # the first call per digit fills the coefficient cache from cold, then
    # seeded points are evaluated from the warm cache
    series = [Op("series", (3, 2, r, SERIES_CUTOFF, d, _series_point(rng, br)))
              for d in [0, 1, 2] + [rng.randrange(3) for _ in range(SERIES_CALLS - 3)]]
    coeffs = []
    for a, b in ((3, 2), (5, 2)):
        pool = COEFF_POOL[(a, b)]
        start = rng.randrange(len(pool))
        coeffs += [Op("coeff_f", (a, b) + pool[(start + i) % len(pool)])
                   for i in range(SPECTRAL_COEFFS // 2)]
    rng.shuffle(coeffs)
    return [
        _frozen(rng, FOURIER_32),
        _frozen(rng, FOURIER_52),
        *series,
        *coeffs,
        Op("estimate", (3, 2, _digits(rng.choice(ESTIMATE_WORDS)), 2, 3, ESTIMATE_N)),
    ]


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One value from each of count equal slices of [lo, hi).

    Seeds then differ in the values but not in their size profile, which
    keeps percentiles comparable from seed to seed.
    """
    step = (hi - lo) / count
    return [lo + (i + rng.random()) * step for i in range(count)]


def _sizes(rng: random.Random, count: int) -> list[int]:
    """Integers 1 <= n < 10**12, log-uniform by strata."""
    return [max(1, int(10**e)) for e in _strata(rng, count, 0, 12)]


def _corner_point(rng: random.Random, a: int, b: int, r: int) -> Fraction:
    """A level-r box corner sum e_k (b/a)^k plus a small integer shift."""
    z = sum((rng.randrange(a) * Fraction(b, a) ** k for k in range(1, r + 1)),
            Fraction(0))
    return z + rng.randrange(-3, 4)


def _small_queries(rng: random.Random) -> list[Op]:
    ops = []
    for a, b in BASES:
        words = small_words(a)
        ops += [Op("encode", (a, b, n)) for n in _sizes(rng, SMALL_MIX["encode"])]
        ops += [Op("decode", (a, b, word_digits(a, b, n)), expect=n)
                for n in _sizes(rng, SMALL_MIX["decode"])]
        for n in _sizes(rng, SMALL_MIX["digit"]):
            ops.append(Op("digit", (a, b, n, rng.randrange(len(word_digits(a, b, n)) + 3))))
        for kind in ("length", "sum_of_digits"):
            ops += [Op(kind, (a, b, n)) for n in _sizes(rng, SMALL_MIX[kind])]
        ops += [Op("count_pattern", (a, b, rng.choice(words), int(N)))
                for N in _strata(rng, SMALL_MIX["count_pattern"], 1, 3001)]
        ops += [Op("champernowne_freq", (a, b, rng.choice(words), int(x)))
                for x in _strata(rng, SMALL_MIX["champernowne_freq"], 1000, 5001)]
        for i in range(SMALL_MIX["cover_census"]):
            r = 1 + i % 6
            if i % 10 == 0:
                z = _corner_point(rng, a, b, r)
            else:
                z = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            ops.append(Op("cover_census", (a, b, z, r)))
        pool = COEFF_POOL[(a, b)]
        start = rng.randrange(len(pool))
        ops += [Op("coeff_f", (a, b) + pool[(start + i) % len(pool)])
                for i in range(SMALL_MIX["coeff_f"])]
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "counting": _counting,
    "geometry": _geometry,
    "spectral": _spectral,
    "small_queries": _small_queries,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass; a pure function of (workload, seed)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
