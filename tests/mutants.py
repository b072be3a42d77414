"""Mutation check for the counting engine in src/ratbase/patterns.py.

Each mutant replaces one exact text of the engine, and the tests it names
must then fail: a mutant that passes them has survived, and the check
fails.  Run from the repository root; it exits 1 if a mutant survives or
cannot be run:

    python tests/mutants.py

Each mutant runs on its own copy of src/, tests/, pyproject.toml and
README.md in a temporary directory, under `pytest -x` on its tests, so the
checkout is never changed.  Only pytest's exit code 1 (a test failed) kills a mutant; an old
text that does not occur exactly once, or tests that do not run (exit codes
2-5), are errors, never kills.  A surviving mutant is mended by a test that
catches it, never by dropping the mutant, and a change to a mutated line
updates the mutant's old text with it.  The file's name keeps pytest from
collecting it; tests/test_mutants.py checks the script itself.  The
speed thresholds are listed apart, as equivalent mutants with their
reasons, and are not run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/ratbase/patterns.py"


class Mutant(NamedTuple):
    name: str
    old: str  # must occur exactly once in path
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    reason: str
    path: str = ENGINE


class MutantError(Exception):
    """A mutant that cannot be applied, or whose tests did not run."""


class Outcome(NamedTuple):
    name: str
    killed: bool
    seconds: float


PATTERNS = "tests/test_patterns.py"

MUTANTS = (
    Mutant("step-read-no-wrap",
           "sums[j] = aj * w + prefix[i1] - prefix[i]", "sums[j] = prefix[i1] - prefix[i]",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a leftover that wraps past the end of its level's table drops a^j"),
    Mutant("step-start-no-inverse",
           "i0 = first * pow(step, -1, bJ) % bJ", "i0 = first % bJ",
           (f"{PATTERNS}::TestLowLevelTables",),
           "the run of a step table starts at first, not at first step^(-1)"),
    Mutant("step-table-natural-order",
           "steps = [sizes[x % bj] for x in range(0, s * bj, s)]",
           "steps = [sizes[x % bj] for x in range(bj)]",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a step table sums the sizes in natural order, as for step 1"),
    Mutant("step-read-scale",
           "aj, bj = aj * a, bj * b", "aj, bj = aj * b, bj * b",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a wrapping leftover adds b^j, not a^j"),
    Mutant("jump-read-r-for-r+1",
           "lo, hi = aJ * d + top[r], aJ * d + top[r + 1]",
           "lo, hi = aJ * d + top[r], aJ * d + top[r]",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a short upper walk jumps q + 1 to lo_J(q)"),
    Mutant("block-jump-read-r-for-r+1",
           "lo, hi = d + top[r], d + top[r + 1]", "lo, hi = d + top[r], d + top[r]",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a block's jump takes q + 1 to lo_J(q)"),
    Mutant("block-jump-scale",
           "        d *= aJ\n", "        d *= bJ\n",
           (f"{PATTERNS}::TestLowLevelTables",),
           "a block's jump scales the whole periods by b^J, not a^J"),
    Mutant("table-one-level-short",
           "for j, left in enumerate(lefts[:J]):", "for j, left in enumerate(lefts[:J - 1]):",
           (f"{PATTERNS}::TestLowLevelTables",),
           "level J - 1 is neither read nor walked"),
    Mutant("integer-base-walks",
           "    if b == 1:\n        return q * a**k\n", "",
           (f"{PATTERNS}::test_counts_step_by_the_word_of_n[2/1-w01-N1e2400]",),
           "an integer base takes k products for lo_k(q), not one: the 2 s alarm rings"),
    Mutant("int64-switch-from-n",
           "dtype = np.int64 if b * N + a <= _INT64_MAX else object",
           "dtype = np.int64 if N <= _INT64_MAX else object",
           (f"{PATTERNS}::TestBeyondInt64",),
           "the int64 switch read from N, so b*N overflows between the two"),
    Mutant("exact-count-keeps-n-zero",
           "row.append(full * ak - (f == 0))", "row.append(full * ak)",
           (f"{PATTERNS}::TestKernelAgainstScan::test_all_zero_pattern_skips_n_zero",
            PATTERNS),
           "n = 0, in the interval of q = 0, is counted"),
    Mutant("one-position-short",
           "ks = range(len(orbit)) if k is None", "ks = range(len(orbit) - 1) if k is None",
           (f"{PATTERNS}::TestCountingIdentities", PATTERNS),
           "the counts stop one position below length(N)"),
    Mutant("leading-zero-window-kept",
           "return (r + base.a ** m if r < _lo(base.a, base.b, 1, m - 1) else r), r",
           "return r, r",
           (f"{PATTERNS}::TestExactCountsBySubtraction", PATTERNS),
           "an exact window opening with 0 counts its padded first term"),
    Mutant("stream-tail-read-forward",
           "z = _read(base, M + 1, 0, tail + m - 1)", "z = _read(base, M + 1, 1, tail + m - 1)",
           (f"{PATTERNS}::TestChampernowneStream",),
           "the windows that start in the last word are read one digit late"),
    Mutant("report-overflow-escapes",
           "        except OverflowError:", "        except ZeroDivisionError:",
           ("tests/test_cli.py::TestPatternsCommand",),
           "a horizon past the largest float ends in a traceback, not a usage error"),
    Mutant("report-inf-kept",
           "finite = all(map(math.isfinite, (main, residual, scale)))", "finite = True",
           ("tests/test_cli.py::TestPatternsCommand",),
           "a float product past the largest float prints a row of inf, or of 0.0"),
)

# Mutants that change only speed or memory, listed so that no later change
# takes them for gaps in the tests; they are not run.
EQUIVALENT = (
    Mutant("vector-min",
           "_VECTOR_MIN = 32", "_VECTOR_MIN = 8", (PATTERNS,),
           "moves the Python/numpy split, which give the same sums"),
    Mutant("block-size",
           "_BLOCK = 1 << 16", "_BLOCK = 1 << 12", (PATTERNS,),
           "more, shorter blocks sum the same terms"),
    Mutant("table-span",
           "_TABLE_SPAN = 1 << 10", "_TABLE_SPAN = 1 << 4", (PATTERNS,),
           "a shallower table leaves more levels to the walk, which gives the same sizes"),
    Mutant("table-bases",
           "_TABLE_BASES = 64", "_TABLE_BASES = 1", (PATTERNS,),
           "holding fewer tables only rebuilds them"),
    Mutant("products-not-sliced",
           "            lo, hi = lo[:keep], hi[:keep]\n", "",
           (PATTERNS,),
           "the products of terms no deeper level keeps may wrap in int64, "
           "but they are never read"),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Write the mutant into the tree at root."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise MutantError(f"{mutant.name}: its old text occurs {found} times in "
                          f"{mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant, root: Path = ROOT) -> Outcome:
    """Run the mutant's tests on a mutated copy of the tree at root."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ratbase-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):  # pytest's settings; test_cli reads
            shutil.copy(root / part, copy)
        apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-5:])
        raise MutantError(f"{mutant.name}: pytest exited {proc.returncode}\n{tail}")
    return Outcome(mutant.name, proc.returncode == 1, time.perf_counter() - start)


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        try:
            outcome = run(mutant)
        except MutantError as exc:
            print(f"ERROR    {exc}", flush=True)
            bad += 1
            continue
        bad += not outcome.killed
        print(f"{'killed' if outcome.killed else 'SURVIVED':<9}{mutant.name} "
              f"({outcome.seconds:.1f} s): {mutant.reason}", flush=True)
    print(f"{bad} of {len(MUTANTS)} mutants failed the check")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
