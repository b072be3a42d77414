"""Running one pass: binding operations to the library, the closed loop that
times them, output checks, and the optional span trace.  worker.py calls
main() in a fresh process once ratbase is imported."""

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from checks import Checker
from spans import LAYERS, REPORTED, Tracer
from workloads import Op, build, once

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_SVG = ROOT / "tests" / "golden" / "tiles_32_r8.svg"
_DIGIT_READS = re.compile(r"digit_reads: \w+ \((\d+) points, \d+ escalations, "
                          r"(\d+) unresolved")


def run_cli(main, argv: tuple) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def bind(op: Op, lib, contexts):
    """A zero-argument call for op; objects are built here, outside timing."""
    k, args = op.kind, op.args
    if k == "cli":
        return functools.partial(run_cli, lib.cli.main, args)
    a, b = args[0], args[1]
    ctx = contexts[(a, b)]
    base = ctx.base
    num, pat, fou = lib.numeration, lib.patterns, lib.fourier
    if k == "encode":
        return functools.partial(num.encode, base, args[2])
    if k == "decode":
        return functools.partial(num.decode, lib.DigitWord(base, args[2]))
    if k in ("digit", "length", "sum_of_digits"):
        return functools.partial(getattr(num, k), base, *args[2:])
    if k in ("count_pattern", "champernowne_freq"):
        return functools.partial(getattr(pat, k), base, lib.Pattern(base, args[2]), args[3])
    if k == "bulk":
        patterns = [lib.Pattern(base, tuple(int(c) for c in w)) for w in args[2]]
        return functools.partial(pat.champernowne_freq_bulk, base, patterns, list(args[3]))
    if k == "cover_census":
        return functools.partial(lib.adelic.cover_census, ctx, args[2], args[3])
    if k == "locate_box":
        n, depth, r = args[2:]
        return functools.partial(lib.adelic.locate_box, ctx,
                                 lib.adelic.membership_point(ctx, n, depth), r)
    if k == "fiber_interval":
        residues = args[2]
        return functools.partial(lib.adelic.fiber_interval, ctx,
                                 lib.adelic.corner_of_residues(ctx, residues), len(residues))
    if k == "tile_corners":
        return functools.partial(lib.adelic.tile_corners, ctx, *args[2:])
    if k == "boundary_tubes":
        return functools.partial(lib.adelic.boundary_tubes, ctx, *args[2:])
    if k == "coeff_f":
        d, r, m = args[2:]
        return functools.partial(fou.coeff_f, ctx, d, r, Fraction(m, b**r))
    if k == "series":
        r, cutoff, d, z = args[2:]
        return functools.partial(fou.eval_urysohn_series, ctx, d, r, z, cutoff)
    if k == "estimate":
        return functools.partial(fou.urysohn_pattern_estimate, ctx, *args[2:])
    raise ValueError(f"unknown operation kind {k!r}")


def run_pass(calls) -> tuple[float, list[float], list]:
    """Closed loop, one caller: each call starts when the previous returns."""
    clock = time.perf_counter
    latencies, results = [], []
    t_start = clock()
    for call in calls:
        t0 = clock()
        try:
            result = call()
        except (Exception, SystemExit) as exc:  # a failed call must not stop the run
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
    return clock() - t_start, latencies, results


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r).encode())
        h.update(b"\0")
    return h.hexdigest()


def layer_metrics(lib, tracer: Tracer, results, exact) -> dict[str, float]:
    spans = tracer.summary()
    out: dict[str, float] = {}
    for layer in LAYERS:
        for fn in REPORTED[layer]:
            out[f"{layer}.{fn}.calls"] = spans.get(f"{layer}.{fn}.calls", 0)
            out[f"{layer}.{fn}.s"] = spans.get(f"{layer}.{fn}.s", 0.0)
        out[f"{layer}.self_s"] = spans.get(f"{layer}.self_s", 0.0)
    points = unresolved = 0
    for r in results:
        if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], str):
            for m in _DIGIT_READS.finditer(r[1]):
                points += int(m.group(1))
                unresolved += int(m.group(2))
    out["adelic.digit_reads.points"] = points
    out["adelic.digit_reads.resolved_share"] = (points - unresolved) / points if points else 0.0
    # the series coefficient cache is private; read it only while it exists
    cache_info = getattr(getattr(lib.fourier, "_series_coeffs", None), "cache_info", None)
    info = cache_info() if cache_info else None
    lookups = info.hits + info.misses if info else 0
    out["fourier.series_cache.hit_share"] = info.hits / lookups if lookups else 0.0
    out["fourier.coeff_f.exact_share"] = exact[1] / exact[0] if exact[0] else 0.0
    return out


def main(ratbase, contexts) -> int:
    p = argparse.ArgumentParser(description="One pass of one workload (see worker.py).")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="check every output, and the workload's once() operations; "
                        "run.py compares the other passes' outputs with this one's")
    args = p.parse_args()
    if args.setup_only:
        return 0
    src = Path(ratbase.__file__).resolve().parent
    if src != ROOT / "src" / "ratbase":
        print(f"ratbase imported from {src}, not from this checkout", file=sys.stderr)
        return 2

    tracer, exact = None, [0, 0]
    if args.trace:
        def observe_coeff_f(c):
            exact[0] += 1
            exact[1] += c.exact is not None
        tracer = Tracer()
        tracer.install(ratbase, {"fourier.coeff_f": observe_coeff_f})

    ops = build(args.workload, args.seed)
    calls = [bind(op, ratbase, contexts) for op in ops]
    gc.collect()
    if tracer:
        tracer.active = True
    wall, latencies, results = run_pass(calls)
    if tracer:
        tracer.active = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = list(zip(ops, results))
    failed = []
    if args.check:
        extra = once(args.workload)
        checked += zip(extra, run_pass([bind(op, ratbase, contexts) for op in extra])[2])
        with open(HERE / "frozen.json", encoding="utf-8") as fh:
            frozen = json.load(fh)
        golden = GOLDEN_SVG.read_bytes() if GOLDEN_SVG.is_file() else None
        check = Checker(ratbase, frozen, golden)
        failed = [(op, r) for op, r in checked if not check(op, r)]
        for op, r in failed[:5]:
            print(f"failed: {op} -> {r!r:.200}", file=sys.stderr)

    report = {
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(checked),
        "failed": len(failed),
        "digest": digest(results),
        "numpy": np.__version__,
    }
    if tracer:
        report["layers"] = layer_metrics(ratbase, tracer, [r for _, r in checked], exact)
        report["spans"] = len(tracer.start)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")
    print(json.dumps(report))
    return 0

