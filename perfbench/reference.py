"""Reference figures: each suite at its acceptance bound, and `verify all`.

    python3 perfbench/reference.py

Runs `planes verify <suite>` once per suite, then `planes verify all`,
each in a fresh interpreter, and prints one Markdown table row per run
(wall seconds, peak RSS, exit code) after a line naming the machine.
These are one-off figures for the README, not part of the benchmark.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

# run the CLI, then report this process's peak RSS (KiB) on stderr
_CHILD = (
    "import resource, sys\n"
    "from planes import cli\n"
    "code = cli.cmd_dispatch(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
ROOT = Path(__file__).resolve().parent.parent

# the bounds of tests/test_acceptance.py
ACCEPTANCE = (
    ("r24", ["--dmax", "500"]),
    ("klein", ["--nmax", "200"]),
    ("orth", ["--nmax", "200"]),
    ("local-identity", ["--order", "20"]),
    ("p-local", ["--fmax", "99"]),
    ("class-number", ["--dmax", "200"]),
    ("l-value", ["--dmax", "200"]),
    ("gauss-genus", ["--nmax", "200"]),
    ("comp-ort", ["--nmax", "150"]),
    ("pair-genus", ["--nmax", "150"]),
    ("genus-structure", ["--nmax", "300"]),
    ("global-identity", ["--w", "4", "--dmax", "200",
                         "--prime-cutoff", "10000"]),
    ("all", []),
)


def main() -> None:
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:
        sha = ""
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, git {sha or 'unknown'}")
    print("| suite | wall s | peak RSS MB | exit |")
    print("|---|---:|---:|---:|")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for suite, flags in ACCEPTANCE:
        argv = ["verify", suite, *flags]
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t
        rss = float(proc.stderr.split()[-1]) / 1024
        print(f"| {suite} | {wall:.1f} | {rss:.0f} | {proc.returncode} |",
              flush=True)


if __name__ == "__main__":
    main()
