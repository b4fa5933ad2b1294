"""Survey of realizable class pairs against the genus prediction.

For each squarefree n = 1 mod 4 the observed (plane form, complement form)
pairs should fill exactly the fibers of one genus under composition, so
their number is h^2 / #genera.  The table makes that visible directly.

Usage: python3 scripts/genus_survey.py [--nmax 150]
"""

import argparse

from planes import lattice, repnum
from planes.klein import class_pairs, genus_context


def survey_row(n: int):
    group, partition, _ = genus_context(n)
    observed, predicted, _ = class_pairs(n)
    h = group.order
    return h, partition.count, len(observed), len(predicted), h * h // partition.count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=150)
    args = ap.parse_args()

    print(f"{'n':>5} {'h(-4n)':>7} {'genera':>7} {'observed':>9} "
          f"{'predicted':>10} {'h^2/genera':>11}")
    lattice.warm_cache(args.nmax)
    for n in range(5, args.nmax + 1, 4):
        if not repnum.is_squarefree(n):
            continue
        h, genera, obs, pred, expect = survey_row(n)
        flag = "" if obs == pred == expect else "  <-- MISMATCH"
        print(f"{n:>5} {h:>7} {genera:>7} {obs:>9} {pred:>10} {expect:>11}{flag}")


if __name__ == "__main__":
    main()
