"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It runs whole rounds of the
workload, each in a fresh single-threaded interpreter, until S seconds
have passed; before each round it times interpreter start plus
`import planes` on its own (`setup_s`).  It prints one JSON object as
its last line: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  A
traced run alternates untraced and traced rounds, so that the tracing
overhead is the difference of their mean wall times.  Each run also
writes its rounds to `.bench_out/`, and a traced run its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s

# one process, one thread: no BLAS or OpenMP pools in the rounds
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports planes and exits.

    No timeout here: with one, `subprocess` polls the child with sleeps of
    up to 50 ms, and the time comes out rounded to that step.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import planes"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True)
    return time.perf_counter() - t


def run_round(workload: str, seed: int, spans: Path | None,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_round.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=ENV, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    """Times are per round, averaged: the run's total over its rounds.

    Round times scatter widely on a shared machine, and over ~15 rounds
    their mean moved less from run to run than their median did.  The
    query percentiles pool every operation of every round; `inclusive`
    keeps the 90th percentile of a few suite calls inside their range.
    """
    latencies = [ms for r in rounds for _, ms in r["latencies"]]
    wall = sum(r["wall_s"] for r in rounds)
    return {
        "wall_s": wall / len(rounds),
        "cpu_s": sum(r["cpu_s"] for r in rounds) / len(rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "items_per_s": sum(r["items"] for r in rounds) / wall,
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": statistics.quantiles(latencies, n=10,
                                             method="inclusive")[8],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, _ in tracing.metrics():
        if name == tracing.OVERHEAD:
            out[name] = (statistics.mean(r["wall_s"] for r in traced)
                         - statistics.mean(r["wall_s"] for r in plain))
        else:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "planes" / "__init__.py").is_file():
        print(f"error: no planes package under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"spans-{stem}.jsonl" if args.trace else None
    setup_time()  # untimed: fills the bytecode cache, proves planes imports
    setup = []
    t0 = time.perf_counter()
    plain, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - t0
        enough = plain and (traced or not args.trace)
        if enough and (elapsed >= args.seconds or
                       time.perf_counter() - start + longest > DEADLINE_S):
            break
        trace_this = bool(args.trace) and len(plain) > len(traced)
        setup.append(setup_time())
        t = time.perf_counter()
        result = run_round(args.workload, args.seed,
                           spans if trace_this else None,
                           timeout=DEADLINE_S - (t - start))
        longest = max(longest, time.perf_counter() - t)
        (traced if trace_this else plain).append(result)

    rounds = plain + traced
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        values = per_layer(plain, traced)
        units = dict(tracing.metrics())
    else:
        values = end_to_end(plain, setup)
        units = END_TO_END
    report = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    detail = {"args": vars(args), "setup_s": setup, "rounds": rounds,
              "report": report}
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
