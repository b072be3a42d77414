"""Freeze the answers for the pooled inputs into frozen.json.

    python3 perfbench/freeze.py

Run once, at the commit that defines the benchmark: later commits are
checked against these values.  It runs every pooled command line and
library call at full size, which takes a few minutes.
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("RATBASE_MAX_ENUM", None)

import ratbase  # noqa: E402
import ratbase.cli  # noqa: E402

from checks import (coeff_key, fiber_key, text_record, tube_key,  # noqa: E402
                    tube_record)
from harness import run_cli  # noqa: E402
from workloads import (BULK_WORDS, BULK_XS, COEFF_POOL, ESTIMATE_N,  # noqa: E402
                       ESTIMATE_WORDS, FIBER_POOL, TUBES, frozen_cli_pool)


def main() -> int:
    out = {"cli": {}, "coeff_f": {}, "estimate": {}, "bulk": {}, "fiber_interval": {},
           "boundary_tubes": {}}
    for argv in frozen_cli_pool():
        rc, text = run_cli(ratbase.cli.main, tuple(argv.split()))
        if rc != 0 or "FAIL" in text:
            print(f"{argv}: exit {rc}\n{text}", file=sys.stderr)
            return 1
        out["cli"][argv] = text_record(text)
        print(argv, file=sys.stderr)
    for (a, b), pool in COEFF_POOL.items():
        ctx = ratbase.AdeleContext(ratbase.Base(a, b))
        for d, r, m in pool:
            c = ratbase.coeff_f(ctx, d, r, Fraction(m, b**r))
            out["coeff_f"][coeff_key(a, b, d, r, m)] = [c.value.real, c.value.imag]
    for (a, b), pool in FIBER_POOL.items():
        ctx = ratbase.AdeleContext(ratbase.Base(a, b))
        for residues in pool:
            corner = ratbase.adelic.corner_of_residues(ctx, residues)
            lo, hi = ratbase.adelic.fiber_interval(ctx, corner, len(residues))
            out["fiber_interval"][fiber_key(a, b, residues)] = f"{lo} {hi}"
    for a, b, r, resolution in TUBES:
        ctx = ratbase.AdeleContext(ratbase.Base(a, b))
        tubes = ratbase.adelic.boundary_tubes(ctx, r, resolution)
        out["boundary_tubes"][tube_key(a, b, r, resolution)] = tube_record(tubes)
    ctx = ratbase.AdeleContext(ratbase.Base(3, 2))
    for w in ESTIMATE_WORDS:
        word = tuple(int(c) for c in w)
        out["estimate"][w] = str(ratbase.urysohn_pattern_estimate(ctx, word, 2, 3, ESTIMATE_N))
    base = ratbase.Base(3, 2)
    patterns = [ratbase.Pattern(base, tuple(int(c) for c in w)) for w in BULK_WORDS]
    counts = ratbase.champernowne_freq_bulk(base, patterns, list(BULK_XS))
    out["bulk"] = {w: counts[p.word] for w, p in zip(BULK_WORDS, patterns)}
    with open(HERE / "frozen.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
