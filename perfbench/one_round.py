"""One round of one workload in this interpreter.

    python3 perfbench/one_round.py --workload NAME --seed N [--spans FILE]

Imports `planes` from the checkout's `src`, runs the round, and prints
its result as one JSON line.  With `--spans` the public functions of the
program are traced (see `tracing.py`), the per-layer values join the
result, and every span is written to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import planes
    import tracing
    import workloads

    if not Path(planes.__file__).resolve().is_relative_to(SRC):
        print(f"planes imported from {planes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    result = workloads.WORKLOADS[args.workload](args.seed, tracer)
    if tracer:
        result["layers"] = tracer.stats()
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
