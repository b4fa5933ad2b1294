"""Truncation sweep for the assembled Dirichlet-series identity.

Both sides of the identity are truncated: the coefficient sum at dmax and
every Euler product at the prime cutoff.  This prints the relative gap as
the truncation grows, which is how the 1e-4 budget in the verification
suite was chosen.

Usage: python3 scripts/identity_convergence.py [--w 4.0] [--cutoff 10000]
"""

import argparse

from planes.mds import rs3_identity_numeric

DMAX_STEPS = (3, 11, 27, 51, 101, 151, 200, 300, 443)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w", type=float, default=4.0)
    ap.add_argument("--cutoff", type=int, default=10 ** 4,
                    help="odd primes up to this bound enter the products")
    args = ap.parse_args()

    print(f"w = {args.w}, prime cutoff = {args.cutoff}")
    print(f"{'dmax':>6}  {'lhs':>20}  {'rhs':>20}  {'rel gap':>10}")
    for dmax in DMAX_STEPS:
        detail = rs3_identity_numeric(args.w, dmax, args.cutoff)
        print(f"{dmax:>6}  {detail['lhs']:>20.12g}  {detail['rhs']:>20.12g}"
              f"  {detail['rel_diff']:>10.3g}")


if __name__ == "__main__":
    main()
