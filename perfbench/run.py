"""ratbase benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload counting --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Every pass runs in a fresh process (worker.py) as a closed loop with one
caller and no threads.  A run makes a fixed number of passes, --seconds
over the workload's PASS_SECONDS (fewer only on a machine so slow that the
run would pass SLACK x --seconds).  With --trace 0 each operation's time is
its fastest over the passes, set-up and memory are medians, and extra
processes that only set up bring the set-up samples to nine.
With --trace 1 untraced and traced passes alternate, half as many pairs as
passes (one at least); the per-layer metrics come from the first traced
pass.  One pass per run (the first; traced, the first traced one) checks
every output against its oracle, and every other pass must repeat its
outputs byte for byte.

Standard output ends with the environment on one JSON line and then the
result on the last line: {"correct", "attempted", "failed", "metrics"}.
The run exits non-zero without a result when the checkout holds no
ratbase sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# Seconds one pass takes (process start and the pass; the checked pass
# takes longer) at the commit that defined the benchmark, on the 2-vCPU
# Xeon VM it was defined on.  They fix the number of passes, so that a
# faster commit gets no more samples than a slower one.
PASS_SECONDS = {"counting": 14.0, "geometry": 0.9, "spectral": 0.8, "small_queries": 1.45}
# A run stops early only when its next pass would end after this many times
# --seconds, which keeps a run on a slow machine inside its time limit.
SLACK = 1.5
DEADLINE_S = 170.0  # per workload; a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "op_p50_us": "us", "op_p99_us": "us"}


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RATBASE_MAX_ENUM", None)  # always the default budget
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(fd: int, deadline: float, until_newline: bool) -> bytes:
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise WorkerError("worker timed out")
        if not select.select([fd], [], [], left)[0]:
            continue
        data = os.read(fd, 1 << 16)
        if not data:
            return b"".join(chunks)
        chunks.append(data)
        if until_newline and b"\n" in data:
            return b"".join(chunks)


def run_worker(flags: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return its set-up time and its report (None if setup-only)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
                            env=_child_env())
    try:
        fd = proc.stdout.fileno()
        head = _read(fd, deadline, until_newline=True)
        setup = time.perf_counter() - t0
        line, _, rest = head.partition(b"\n")
        if line != b"ready":
            raise WorkerError(f"worker did not set up: {' '.join(flags)}")
        tail = rest + _read(fd, deadline, until_newline=False)
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0:
        raise WorkerError(f"worker exited {rc}: {' '.join(flags)}")
    if "--setup-only" in flags:
        return setup, None
    return setup, json.loads(tail.decode().strip().splitlines()[-1])


def repeat(step, count: int, seconds: float) -> list:
    """step(i) for i = 0..count-1; fewer only if the next would end after SLACK x seconds."""
    t0 = time.monotonic()
    out, last = [], 0.0
    while len(out) < count and (not out or time.monotonic() - t0 + last <= SLACK * seconds):
        t = time.monotonic()
        out.append(step(len(out)))
        last = time.monotonic() - t
    return out


def first(i: int) -> list[str]:
    """Extra flags for pass i: the first pass checks its outputs one by one."""
    return ["--check"] if i == 0 else []


def same_outputs(reports: list[dict], checked: dict) -> None:
    """Every pass must repeat the checked pass's outputs byte for byte."""
    for r in reports:
        if r["digest"] != checked["digest"]:
            print("a pass's outputs differ from the checked pass's", file=sys.stderr)
            r["failed"] = r["attempted"]


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    flags = ["--workload", workload, "--seed", str(seed)]
    runs = repeat(lambda i: run_worker(flags + first(i), deadline),
                  pass_count(workload, seconds), seconds)
    setups = [setup for setup, _ in runs]
    passes = [report for _, report in runs]
    same_outputs(passes, passes[0])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(flags + ["--setup-only"], deadline)[0])
    # Every pass of a run repeats the same operations.  Other tenants of the
    # machine only ever add time, and they come and go within seconds, so
    # each operation counts at its fastest, and wall_s is the pass made of
    # those times.  Percentiles are interpolated: where a pass has a few
    # long jobs, the median spans two of them.
    best = [min(times) for times in zip(*(p["latencies_s"] for p in passes))]
    pct = statistics.quantiles(best, n=100, method="inclusive")
    metrics = {
        "wall_s": sum(best),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "op_p50_us": pct[49] * 1e6,
        "op_p99_us": pct[98] * 1e6,
    }
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            passes, f"{len(passes)} passes")


def traced(workload: str, seed: int, seconds: float, deadline: float):
    flags = ["--workload", workload, "--seed", str(seed)]
    traced_flags = flags + ["--trace", "1"]
    # untraced and traced passes alternate, so the overhead compares passes
    # made under the same machine conditions
    # the first traced pass is checked; its once() operations give the
    # digit-read counts
    pairs = repeat(lambda i: (run_worker(flags, deadline)[1],
                              run_worker(traced_flags + first(i), deadline)[1]),
                   max(1, pass_count(workload, seconds) // 2), seconds)
    plain = [p for p, _ in pairs]
    with_spans = [t for _, t in pairs]
    values = dict(with_spans[0]["layers"])
    values["trace.overhead_share"] = (statistics.median(t["wall_s"] for t in with_spans)
                                      / statistics.median(p["wall_s"] for p in plain) - 1.0)
    units = {m["name"]: m["unit"] for m in per_layer_metrics()}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    reports = plain + with_spans
    same_outputs(reports, with_spans[0])
    return metrics, reports, f"{len(pairs)} pairs, {with_spans[0]['spans']} spans per traced pass"


def environment(numpy_version: str) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc_size": llc,
            "python": platform.python_version(), "numpy": numpy_version,
            "ratbase_max_enum_set": "RATBASE_MAX_ENUM" in os.environ,
            "budget": "default (RATBASE_MAX_ENUM unset in workers)"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    # on SIGTERM unwind normally, so run_worker's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ratbase" / "__init__.py").is_file():
        print(f"no ratbase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, numpy_version = {}, 0, 0, ""
    try:
        for w in workloads:
            deadline = time.monotonic() + DEADLINE_S
            run = traced if args.trace else end_to_end
            m, reports, detail = run(w, args.seed, args.seconds, deadline)
            attempted += sum(r["attempted"] for r in reports)
            failed += sum(r["failed"] for r in reports)
            numpy_version = reports[0]["numpy"]
            print(f"{w}: {detail}, {sum(r['attempted'] for r in reports)} operations, "
                  f"{sum(r['failed'] for r in reports)} failed", file=sys.stderr)
            for name, v in m.items():
                print(f"{w:14s} {name:44s} {v['value']:14.6g} {v['unit']}")
                metrics[f"{w}.{name}" if len(workloads) > 1 else name] = v
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(numpy_version)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
