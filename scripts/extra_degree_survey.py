#!/usr/bin/env python3
"""Survey the extra relation degree of gluings against its lower bound.

The extra degree d of a gluing mu*S + lambda*S2 is measured by multiset
subtraction from the actual minimal presentations; the library only
guarantees d is a multiple of lambda*mu and at least lambda*mu.  This script
tabulates the observed ratio d / (lambda*mu) over a dense family of gluings
to show how tight the bound is in practice.
"""

import argparse
import sys
from collections import Counter
from math import gcd

from nsg import enumerate_semigroups, extra_degree, glue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--donor-genus", type=int, default=3,
                        help="donor semigroups come from the census up to this genus")
    parser.add_argument("--scale-bound", type=int, default=20,
                        help="largest lambda and mu to try")
    args = parser.parse_args(argv)

    donors = list(enumerate_semigroups(args.donor_genus))
    ratios = Counter()
    checked = 0
    for left in donors:
        lams = [v for v in range(2, args.scale_bound + 1)
                if v in left and v not in left.generators]
        for right in donors:
            mus = [v for v in range(2, args.scale_bound + 1)
                   if v in right and v not in right.generators]
            for lam in lams:
                for mu in mus:
                    if gcd(lam, mu) != 1:
                        continue
                    glued = glue(left, right, lam, mu)
                    d = extra_degree(glued, left, right, lam, mu)
                    ratios[d // (lam * mu)] += 1
                    checked += 1

    print(f"{checked} gluings from {len(donors)} donors "
          f"(genus <= {args.donor_genus}, scales <= {args.scale_bound})")
    print(f"{'d/(lambda*mu)':>14} {'count':>8}")
    for ratio in sorted(ratios):
        print(f"{ratio:>14} {ratios[ratio]:>8}")
    if set(ratios) == {1}:
        print("the extra degree met its lower bound lambda*mu in every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
